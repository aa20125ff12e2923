//! Initial mapping of program qubits onto the atom array.
//!
//! Paper §III-A: the two qubits with the greatest interaction weight
//! are seeded adjacent at the device center; every subsequent qubit
//! `u` (in descending weight-to-mapped order) is placed at the free
//! site `h` minimizing
//!
//! ```text
//! s(u, h) = Σ_{mapped v} d(h, φ(v)) · w(u, v)
//! ```
//!
//! so frequently interacting qubits land near each other and SWAPs are
//! avoided during routing.
//!
//! # The fast path
//!
//! The seed placer re-walked every usable site and re-summed every
//! partner weight for each qubit placed — O(n² · sites) for an
//! n-qubit program. This module keeps its *output* bit for bit (the
//! digests in `tests/placement_digests.rs` pin the benchmark suite)
//! while skipping most of that work:
//!
//! * the placement order never reads the grid, so it is computed once
//!   per program ([`order`]): [`Program`](crate::Program) builds it
//!   next to its time-zero weights, with each step's anchor (the
//!   device center, the previous step's site, or its placed partners),
//!   and a compile — a loss-driven recompile on a new hole pattern
//!   included — only walks it. Its weight-to-mapped totals are cached
//!   per qubit and re-summed only when a partner was placed, by the
//!   same summation the seed placer ran, so ordering ties break
//!   identically;
//! * a maintained free-site list ([`candidates`]) replaces the
//!   full-grid `usable_sites`/`is_free` rescans;
//! * the site scan prunes candidates through an admissible
//!   Chebyshev-bounding-box lower bound ([`score`],
//!   [`na_arch::BBox`]) and only evaluates the exact score — in the
//!   seed placer's exact summation order — where the bound cannot
//!   rule the site out.
//!
//! `tests/common` preserves the seed placer verbatim as a
//! differential oracle; the property tests below hold the fast path to
//! map-for-map equality against it.

pub mod candidates;
pub mod order;
pub mod score;
pub mod scratch;

pub use scratch::PlacementScratch;

use self::candidates::FreeSites;
use self::order::{Anchor, PlacementOrder};
use self::score::{accepts, exact_score};
use crate::{CompileError, CompilerConfig, InteractionWeights, QubitMap};
use na_arch::{BBox, Grid, Site};
use na_circuit::{Circuit, Qubit};

/// Computes the initial placement for `circuit` on `grid`, reusing
/// caller-held working memory (the compile driver and the experiment
/// engine hold one scratch across compiles). The placement order is
/// derived from `weights` on every call; a compile reads its
/// [`Program`](crate::Program)'s instead.
///
/// # Errors
///
/// Returns [`CompileError::ProgramTooLarge`] if the program has more
/// qubits than the grid has usable atoms.
pub fn initial_placement_with(
    circuit: &Circuit,
    grid: &Grid,
    weights: &InteractionWeights,
    scratch: &mut PlacementScratch,
) -> Result<QubitMap, CompileError> {
    let order = PlacementOrder::of(circuit.num_qubits(), weights);
    place_in_order(circuit.num_qubits(), grid, weights, &order, scratch)
}

/// Maps `num_qubits` qubits onto `grid` by walking `order` (built from
/// `weights`): each step takes the free site its anchor selects.
///
/// # Errors
///
/// Returns [`CompileError::ProgramTooLarge`] if the program has more
/// qubits than the grid has usable atoms.
pub(crate) fn place_in_order(
    num_qubits: u32,
    grid: &Grid,
    weights: &InteractionWeights,
    order: &PlacementOrder,
    scratch: &mut PlacementScratch,
) -> Result<QubitMap, CompileError> {
    if (num_qubits as usize) > grid.num_usable() {
        return Err(CompileError::ProgramTooLarge {
            program: num_qubits,
            usable: grid.num_usable(),
        });
    }
    // Pre-size the flat site table to the device so placement and the
    // downstream router never regrow it.
    let mut map = QubitMap::with_extent(num_qubits, grid.width(), grid.height());
    scratch.free.rebuild(grid);
    let center = grid.center();
    let mut previous = center;
    for &(q, anchor) in order.steps() {
        let site = match anchor {
            Anchor::Center => nearest_free_site(&scratch.free, center),
            Anchor::Previous => nearest_free_site(&scratch.free, previous),
            Anchor::Partners => best_site_for(&map, weights, q, scratch),
        };
        map.assign(q, site);
        scratch.free.claim(site);
        previous = site;
    }
    Ok(map)
}

/// The free usable site minimizing the placement score for `u`, which
/// has at least one placed partner.
///
/// Walks the free list in the seed placer's row-major order, but skips
/// any candidate a lower bound proves unable to displace the incumbent
/// ([`score::prune_cutoff`]); survivors get the exact score in the
/// seed placer's summation order, so the fold's outcome is
/// bit-identical.
fn best_site_for(
    map: &QubitMap,
    weights: &InteractionWeights,
    u: Qubit,
    scratch: &mut PlacementScratch,
) -> Site {
    let PlacementScratch { free, partners, .. } = scratch;
    partners.clear();
    partners.extend(
        weights
            .partners(u)
            .iter()
            .filter_map(|&(v, w)| map.site_of(v).map(|s| (s, w))),
    );
    let mut best: Option<(f64, Site)> = None;
    let bbox = BBox::containing(partners.iter().map(|&(s, _)| s)).expect("partners non-empty");
    let total_weight: f64 = partners.iter().map(|&(_, w)| w).sum();
    for h in free.iter() {
        let score = if let Some((bs, _)) = best {
            // Level 1: O(1) — all partners collapsed to their bbox.
            let cutoff = score::prune_cutoff(bs);
            if total_weight * f64::from(bbox.chebyshev_to(h)) > cutoff {
                continue;
            }
            // Level 2: per-partner integer Chebyshev with early exit —
            // no square roots; catches the wide-bbox case where level 1
            // is 0 for every site inside the box. Only worthwhile at
            // higher degree: below that the exact early-exit sum is
            // just as cheap.
            if partners.len() >= 4 {
                let mut cheb = 0.0f64;
                let mut hopeless = false;
                for &(s, w) in partners.iter() {
                    cheb += f64::from(h.chebyshev(s)) * w;
                    if cheb > cutoff {
                        hopeless = true;
                        break;
                    }
                }
                if hopeless {
                    continue;
                }
            }
            // Level 3: the exact sum with early exit — bit-exact
            // rejection, no rounding slack needed.
            match score::exact_score_below(h, partners, bs + score::TIE_EPS) {
                Some(score) => score,
                None => continue,
            }
        } else {
            exact_score(h, partners)
        };
        if accepts(score, h, best) {
            best = Some((score, h));
        }
    }
    best.expect("capacity checked: a free usable site exists").1
}

/// The free usable site nearest `anchor` (ties broken by site order).
///
/// The minimum is over exact integer squared distances with a total
/// `(d², site)` order, so scanning the free list gives the same result
/// as the seed placer's full-grid scan.
///
/// The seed placer scored a component seed — a qubit with no placed
/// partner — by its distance to the device center. That float fold is
/// exactly this one at the center: distances there are square roots of
/// integers bounded by the device diagonal, so two candidates either
/// tie bitwise (equal squared distances) or differ by far more than the
/// fold's 1e-12 epsilon (adjacent integer square roots are ≥ 1/(2·diag)
/// apart) — the float fold degenerates to the integer `(d², site)`
/// minimum, which needs no square roots at all.
fn nearest_free_site(free: &FreeSites, anchor: Site) -> Site {
    let mut best: Option<(i64, Site)> = None;
    for s in free.iter() {
        let d = s.distance_sq(anchor);
        if best.is_none_or(|(bd, bsite)| d < bd || (d == bd && s < bsite)) {
            best = Some((d, s));
        }
    }
    best.expect("capacity checked: a free usable site exists").1
}

/// Builds the lookahead interaction weights [`initial_placement_with`]
/// consumes for a (possibly pre-lowered) circuit, exactly as
/// [`crate::compile`] does before placing: the time-zero weights of
/// [`Program::weights`](crate::Program::weights), decaying over
/// `lookahead_depth` layers.
pub fn circuit_weights(circuit: &Circuit, lookahead_depth: usize) -> InteractionWeights {
    crate::program::time_zero_weights(
        circuit,
        &circuit.dag(),
        &crate::program::GateOperands::of(circuit),
        lookahead_depth,
    )
}

/// The initial placement [`crate::compile`] would start from: lowers
/// `circuit` to the gate set `config` selects, builds the frontier
/// lookahead weights, and maps the result onto `grid`.
///
/// This is the placement-only slice of the compile pipeline, exposed
/// so the golden placement-digest tests exercise exactly the mapping
/// the compiler uses.
///
/// # Errors
///
/// Returns [`CompileError::ProgramTooLarge`] like
/// [`initial_placement_with`].
pub fn initial_layout(
    circuit: &Circuit,
    grid: &Grid,
    config: &CompilerConfig,
) -> Result<QubitMap, CompileError> {
    let lowered = crate::compiler::lower_for(circuit, config);
    let weights = circuit_weights(&lowered, config.lookahead_depth);
    initial_placement_with(&lowered, grid, &weights, &mut PlacementScratch::new())
}

/// A stable 64-bit digest of a placement: qubit count plus every
/// `(qubit, site)` pair in ascending qubit order, folded through the
/// same FNV-1a the schedule digest uses.
///
/// Two placements agree on this digest iff they map the same qubits to
/// the same sites — the regression contract the placement fast path is
/// held to (see `tests/placement_digests.rs`).
pub fn placement_digest(map: &QubitMap) -> u64 {
    use na_circuit::fingerprint::fnv1a_extend;
    let mut h = fnv1a_extend(0xcbf2_9ce4_8422_2325, u64::from(map.num_qubits()));
    for i in 0..map.num_qubits() {
        if let Some(s) = map.site_of(Qubit(i)) {
            h = fnv1a_extend(h, u64::from(i) + 1);
            h = fnv1a_extend(h, s.x as i64 as u64);
            h = fnv1a_extend(h, s.y as i64 as u64);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracles::initial_placement_reference;
    use na_circuit::Circuit;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A placement on fresh working memory.
    fn initial_placement(
        circuit: &Circuit,
        grid: &Grid,
        weights: &InteractionWeights,
    ) -> Result<QubitMap, CompileError> {
        initial_placement_with(circuit, grid, weights, &mut PlacementScratch::new())
    }

    fn weights_for(circuit: &Circuit) -> InteractionWeights {
        let dag = circuit.dag();
        let ops: Vec<(Vec<Qubit>, usize)> = circuit
            .iter()
            .enumerate()
            .map(|(i, g)| (g.qubits(), dag.layer(na_circuit::GateId(i))))
            .collect();
        InteractionWeights::from_layered_gates(
            circuit.num_qubits(),
            ops.iter().map(|(q, l)| (q.as_slice(), *l)),
            20,
        )
    }

    #[test]
    fn heaviest_pair_lands_at_center() {
        let mut c = Circuit::new(4);
        // (2,3) interact twice at the frontier; (0,1) once, later.
        c.cnot(Qubit(2), Qubit(3));
        c.cnot(Qubit(2), Qubit(3));
        c.cnot(Qubit(0), Qubit(1));
        let grid = Grid::new(9, 9);
        let w = weights_for(&c);
        let map = initial_placement(&c, &grid, &w).unwrap();
        let center = grid.center();
        assert_eq!(map.site_of(Qubit(2)), Some(center));
        let s3 = map.site_of(Qubit(3)).unwrap();
        assert!(center.distance(s3) <= 1.0, "partner adjacent to center");
    }

    #[test]
    fn interacting_qubits_are_placed_close() {
        let mut c = Circuit::new(6);
        for i in 0..5u32 {
            c.cnot(Qubit(i), Qubit(i + 1));
        }
        let grid = Grid::new(10, 10);
        let w = weights_for(&c);
        let map = initial_placement(&c, &grid, &w).unwrap();
        for i in 0..5u32 {
            let a = map.site_of(Qubit(i)).unwrap();
            let b = map.site_of(Qubit(i + 1)).unwrap();
            assert!(
                a.distance(b) <= 3.0,
                "chain neighbors {i},{} placed {} apart",
                i + 1,
                a.distance(b)
            );
        }
    }

    #[test]
    fn every_qubit_gets_a_distinct_site() {
        let mut c = Circuit::new(9);
        c.cnot(Qubit(0), Qubit(1));
        // Qubits 2..8 never interact.
        let grid = Grid::new(3, 3);
        let w = weights_for(&c);
        let map = initial_placement(&c, &grid, &w).unwrap();
        assert_eq!(map.mapped_count(), 9);
    }

    #[test]
    fn too_large_program_errors() {
        let c = Circuit::new(10);
        let grid = Grid::new(3, 3);
        let w = weights_for(&c);
        let err = initial_placement(&c, &grid, &w).unwrap_err();
        assert_eq!(
            err,
            CompileError::ProgramTooLarge {
                program: 10,
                usable: 9
            }
        );
    }

    #[test]
    fn holes_are_never_assigned() {
        let mut grid = Grid::new(3, 3);
        grid.remove_atom(Site::new(1, 1)); // center is a hole
        let mut c = Circuit::new(8);
        c.cnot(Qubit(0), Qubit(1));
        let w = weights_for(&c);
        let map = initial_placement(&c, &grid, &w).unwrap();
        for i in 0..8 {
            let s = map.site_of(Qubit(i)).unwrap();
            assert!(grid.is_usable(s), "qubit {i} on hole {s}");
        }
    }

    #[test]
    fn disconnected_interaction_components_all_placed() {
        let mut c = Circuit::new(8);
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(4), Qubit(5)); // separate component
        let grid = Grid::new(5, 5);
        let w = weights_for(&c);
        let map = initial_placement(&c, &grid, &w).unwrap();
        assert_eq!(map.mapped_count(), 8);
        // Second component's pair should still be near each other.
        let a = map.site_of(Qubit(4)).unwrap();
        let b = map.site_of(Qubit(5)).unwrap();
        assert!(a.distance(b) <= 2.0);
    }

    #[test]
    fn component_seeds_pack_toward_the_center() {
        // The score of a partner-less component seed is its distance
        // to the device center, so the second component opens at the
        // free site nearest the center — compact, not "away from the
        // existing block".
        let mut c = Circuit::new(4);
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(2), Qubit(3)); // disconnected second component
        let grid = Grid::new(7, 7);
        let w = weights_for(&c);
        let map = initial_placement(&c, &grid, &w).unwrap();
        let center = grid.center();
        let seed_site = map.site_of(Qubit(2)).unwrap();
        // Only the first pair is placed before qubit 2, so at most two
        // sites adjacent to the center are taken: the seed must land
        // within one step of the center, not at the device edge.
        assert!(
            center.distance(seed_site) <= 2.0f64.sqrt() + 1e-12,
            "component seed {seed_site} strayed from center {center}"
        );
        let reference = initial_placement_reference(&c, &grid, &w).unwrap();
        assert_eq!(map, reference);
    }

    #[test]
    fn placement_is_deterministic() {
        let mut c = Circuit::new(10);
        for i in (0..8u32).step_by(2) {
            c.cnot(Qubit(i), Qubit(i + 1));
        }
        let grid = Grid::new(6, 6);
        let w = weights_for(&c);
        let m1 = initial_placement(&c, &grid, &w).unwrap();
        let m2 = initial_placement(&c, &grid, &w).unwrap();
        assert_eq!(m1, m2);
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let mut scratch = PlacementScratch::new();
        let grid = Grid::new(8, 8);
        for n in [4u32, 12, 7] {
            let mut c = Circuit::new(n);
            for i in 0..n - 1 {
                c.cnot(Qubit(i), Qubit(i + 1));
            }
            let w = weights_for(&c);
            let reused = initial_placement_with(&c, &grid, &w, &mut scratch).unwrap();
            let fresh = initial_placement(&c, &grid, &w).unwrap();
            assert_eq!(reused, fresh, "stale scratch state leaked at n={n}");
        }
    }

    /// A random circuit mixing 1q/2q/3q gates over `n` qubits, some of
    /// which may stay idle (loners) or form separate components.
    fn random_circuit(rng: &mut StdRng, n: u32) -> Circuit {
        let mut c = Circuit::new(n);
        let gates = rng.gen_range(0..3 * n);
        for _ in 0..gates {
            let a = Qubit(rng.gen_range(0..n));
            match rng.gen_range(0..6) {
                0 => {
                    c.h(a);
                }
                1..=4 => {
                    let b = Qubit(rng.gen_range(0..n));
                    if a != b {
                        c.cnot(a, b);
                    }
                }
                _ => {
                    if n >= 3 {
                        let b = Qubit(rng.gen_range(0..n));
                        let t = Qubit(rng.gen_range(0..n));
                        if a != b && b != t && a != t {
                            c.toffoli(a, b, t);
                        }
                    }
                }
            }
        }
        c
    }

    #[test]
    fn prop_fast_path_matches_reference_on_random_programs() {
        // The load-bearing differential test: the fast path (free-site
        // list + bbox pruning + cached ordering) must reproduce the
        // seed placer map for map across random programs, grid shapes,
        // and hole patterns — including near-full devices where the
        // free list runs dry.
        let mut rng = StdRng::seed_from_u64(42);
        for case in 0..120 {
            let w = rng.gen_range(3u32..11);
            let h = rng.gen_range(3u32..11);
            let mut grid = Grid::new(w, h);
            for _ in 0..rng.gen_range(0..(w * h) / 4) {
                grid.remove_atom(Site::new(
                    rng.gen_range(0..w as i32),
                    rng.gen_range(0..h as i32),
                ));
            }
            let usable = grid.num_usable() as u32;
            if usable < 2 {
                continue;
            }
            // Bias toward crowded devices: placement tie-breaks matter
            // most when free sites are scarce.
            let n = rng.gen_range(2..=usable.min(40));
            let c = random_circuit(&mut rng, n);
            let weights = weights_for(&c);
            let fast = initial_placement(&c, &grid, &weights).unwrap();
            let reference = initial_placement_reference(&c, &grid, &weights).unwrap();
            assert_eq!(
                fast,
                reference,
                "case {case}: {w}x{h} grid ({} holes), {n} qubits",
                grid.num_holes()
            );
        }
    }

    #[test]
    fn prop_fast_path_matches_reference_on_full_device() {
        // Every site occupied: the free list shrinks to zero and every
        // tie-break in the packing order is exercised.
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..20 {
            let w = rng.gen_range(3u32..7);
            let h = rng.gen_range(3u32..7);
            let grid = Grid::new(w, h);
            let n = w * h;
            let c = random_circuit(&mut rng, n);
            let weights = weights_for(&c);
            let fast = initial_placement(&c, &grid, &weights).unwrap();
            let reference = initial_placement_reference(&c, &grid, &weights).unwrap();
            assert_eq!(fast, reference, "case {case}: full {w}x{h} device");
            assert_eq!(fast.mapped_count(), n as usize);
        }
    }

    #[test]
    fn digest_distinguishes_and_is_stable() {
        let mut c = Circuit::new(3);
        c.cnot(Qubit(0), Qubit(1));
        let grid = Grid::new(4, 4);
        let w = weights_for(&c);
        let map = initial_placement(&c, &grid, &w).unwrap();
        assert_eq!(placement_digest(&map), placement_digest(&map));
        let mut other = map.clone();
        let free = grid
            .usable_sites()
            .find(|&s| other.is_free(s))
            .expect("free site");
        let occupied = other.site_of(Qubit(0)).unwrap();
        other.swap_sites(occupied, free);
        assert_ne!(placement_digest(&map), placement_digest(&other));
    }
}
