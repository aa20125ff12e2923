//! The placement score, its fold semantics, and the admissible lower
//! bound that lets the fast path skip most exact evaluations.
//!
//! The score of placing qubit `u` at free site `h` is the seed
//! placer's
//!
//! ```text
//! s(u, h) = Σ_{mapped v} d(h, φ(v)) · w(u, v)
//! ```
//!
//! summed left-to-right in ascending partner order. The fast path may
//! never change a single bit of any score it evaluates, nor the fold
//! that picks the winner — it is only allowed to *skip* candidates
//! that provably cannot win, using
//!
//! ```text
//! s(u, h) ≥ (Σ_v w(u, v)) · cheb_dist(h, bbox(φ(v)))
//! ```
//!
//! (every mapped partner lies inside the bounding box, and Chebyshev
//! distance lower-bounds Euclidean). [`prune_cutoff`] folds in a
//! relative + absolute slack so that f64 rounding in either side of
//! the inequality can never prune a candidate the exact fold would
//! have accepted, and [`exact_score_below`] rejects through monotone
//! partial sums, which need no slack at all.

use crate::{CompileError, InteractionWeights, QubitMap};
use na_arch::{Grid, Site};
use na_circuit::{Circuit, Qubit};

/// Tie-break width of the site fold: scores closer than this are
/// "equal" and the earlier (smaller) site wins. Matches the seed
/// placer exactly.
pub(crate) const TIE_EPS: f64 = 1e-12;

/// Relative slack covering f64 rounding of the score and bound sums
/// (worst-case relative error of summing ≤ 10⁴ non-negative products
/// is ~1e-12; 1e-9 leaves three orders of margin).
const PRUNE_REL: f64 = 1e-9;

/// Absolute slack covering rounding at near-zero score magnitudes.
const PRUNE_ABS: f64 = 1e-9;

/// The threshold a lower bound must exceed before a candidate may be
/// skipped against an incumbent of score `best`.
///
/// A later candidate replaces the incumbent only when its exact score
/// is below `best - TIE_EPS`, or ties within `TIE_EPS` while sorting
/// before the incumbent site. Any admissible lower bound above
/// `(best + TIE_EPS + abs) / (1 − rel)` rules out both branches with
/// slack to spare for floating-point rounding on either side of the
/// inequality.
#[inline]
pub(crate) fn prune_cutoff(best: f64) -> f64 {
    (best + TIE_EPS + PRUNE_ABS) / (1.0 - PRUNE_REL)
}

/// The exact placement score: left-to-right `Σ d(h, φ(v)) · w` over
/// `mapped_partners` in the order given (ascending partner order, as
/// the seed placer produced it). Bitwise-identical to the seed
/// placer's evaluation.
#[inline]
pub(crate) fn exact_score(h: Site, mapped_partners: &[(Site, f64)]) -> f64 {
    mapped_partners
        .iter()
        .map(|&(s, w)| h.distance(s) * w)
        .sum()
}

/// [`exact_score`] with early exit: returns `None` as soon as the
/// running partial sum exceeds `cutoff`, `Some(score)` otherwise.
///
/// This is *exactly* equivalent to computing the full score and
/// comparing, with no rounding caveat: every term is non-negative and
/// IEEE-754 round-to-nearest addition of a non-negative term never
/// decreases the running sum, so each partial sum is a true lower
/// bound on the full computed sum. A candidate rejected here (partial
/// sum `> best + TIE_EPS`) satisfies neither branch of [`accepts`] —
/// its full score cannot undercut the incumbent nor tie within
/// [`TIE_EPS`]. When `Some` is returned the accumulation ran to
/// completion in the same order, so the value is bit-identical to
/// [`exact_score`].
#[inline]
pub(crate) fn exact_score_below(
    h: Site,
    mapped_partners: &[(Site, f64)],
    cutoff: f64,
) -> Option<f64> {
    let mut sum = 0.0f64;
    for &(s, w) in mapped_partners {
        sum += h.distance(s) * w;
        if sum > cutoff {
            return None;
        }
    }
    Some(sum)
}

/// The seed placer's incumbent-replacement rule: strictly better by
/// more than [`TIE_EPS`], or tied within it with the smaller site.
#[inline]
pub(crate) fn accepts(score: f64, h: Site, best: Option<(f64, Site)>) -> bool {
    best.is_none_or(|(bs, bsite)| {
        score + TIE_EPS < bs || ((score - bs).abs() <= TIE_EPS && h < bsite)
    })
}

/// The seed placer, verbatim: O(n² · sites) greedy placement with full
/// rescans.
///
/// Kept as the differential oracle for the fast path: the property
/// tests assert map-for-map equality on randomized programs and
/// devices.
///
/// # Errors
///
/// Returns [`CompileError::ProgramTooLarge`] if the program has more
/// qubits than the grid has usable atoms.
pub fn initial_placement_reference(
    circuit: &Circuit,
    grid: &Grid,
    weights: &InteractionWeights,
) -> Result<QubitMap, CompileError> {
    let n = circuit.num_qubits();
    if (n as usize) > grid.num_usable() {
        return Err(CompileError::ProgramTooLarge {
            program: n,
            usable: grid.num_usable(),
        });
    }

    let mut map = QubitMap::with_extent(n, grid.width(), grid.height());
    let center = grid.center();

    if let Some((u0, v0)) = weights.heaviest_pair() {
        let s0 = nearest_free_site(grid, &map, center).expect("usable capacity checked above");
        map.assign(u0, s0);
        let s1 = nearest_free_site(grid, &map, s0).expect("capacity");
        map.assign(v0, s1);
    }

    loop {
        let candidate = next_qubit_to_place(n, weights, &map);
        let Some(u) = candidate else { break };
        let h = best_site_for(grid, &map, weights, u);
        map.assign(u, h);
    }

    for i in 0..n {
        let q = Qubit(i);
        if map.site_of(q).is_none() {
            let s = nearest_free_site(grid, &map, center).expect("capacity");
            map.assign(q, s);
        }
    }
    Ok(map)
}

/// The seed placer's placement-order rule (full re-sum every round).
fn next_qubit_to_place(n: u32, weights: &InteractionWeights, map: &QubitMap) -> Option<Qubit> {
    let mut best: Option<(f64, Qubit)> = None;
    for i in 0..n {
        let q = Qubit(i);
        if map.site_of(q).is_some() {
            continue;
        }
        let w = weights.weight_to_mapped(q, |v| map.site_of(v).is_some());
        if w > 0.0 && best.is_none_or(|(bw, _)| w > bw + 1e-15) {
            best = Some((w, q));
        }
    }
    if best.is_none() {
        for i in 0..n {
            let q = Qubit(i);
            if map.site_of(q).is_some() {
                continue;
            }
            let w: f64 = weights
                .partners(q)
                .iter()
                .filter(|(v, _)| map.site_of(*v).is_none())
                .map(|(_, w)| w)
                .sum();
            if w > 0.0 && best.is_none_or(|(bw, _)| w > bw + 1e-15) {
                best = Some((w, q));
            }
        }
    }
    best.map(|(_, q)| q)
}

/// The seed placer's site scan (exact score at every free site).
fn best_site_for(grid: &Grid, map: &QubitMap, weights: &InteractionWeights, u: Qubit) -> Site {
    let mapped_partners: Vec<(Site, f64)> = weights
        .partners(u)
        .iter()
        .filter_map(|&(v, w)| map.site_of(v).map(|s| (s, w)))
        .collect();
    let mut best: Option<(f64, Site)> = None;
    for h in grid.usable_sites() {
        if !map.is_free(h) {
            continue;
        }
        let score: f64 = if mapped_partners.is_empty() {
            h.distance(grid.center())
        } else {
            exact_score(h, &mapped_partners)
        };
        if accepts(score, h, best) {
            best = Some((score, h));
        }
    }
    best.expect("capacity checked: a free usable site exists").1
}

/// The seed placer's nearest-free-site scan.
fn nearest_free_site(grid: &Grid, map: &QubitMap, anchor: Site) -> Option<Site> {
    let mut best: Option<(i64, Site)> = None;
    for s in grid.usable_sites() {
        if !map.is_free(s) {
            continue;
        }
        let d = s.distance_sq(anchor);
        if best.is_none_or(|(bd, bsite)| d < bd || (d == bd && s < bsite)) {
            best = Some((d, s));
        }
    }
    best.map(|(_, s)| s)
}
