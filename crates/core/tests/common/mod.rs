//! The seed placer, verbatim: the O(n² · sites) greedy placement with
//! full rescans that the placement fast path must reproduce map for
//! map. Shared by the crate's unit tests and its integration tests as
//! their differential oracle; not part of the public API. The unbounded
//! SWAP scan the router must reproduce lives in [`swap_search`].

#![allow(dead_code)]

pub mod swap_search;

use na_arch::{Grid, Site};
use na_circuit::{Circuit, Qubit};
use na_core::{CompileError, InteractionWeights, QubitMap};

/// Tie-break width of the site fold: scores closer than this are
/// "equal" and the earlier (smaller) site wins.
const TIE_EPS: f64 = 1e-12;

/// The seed placer's initial placement.
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

/// The seed placer's site scan: the exact score
/// `Σ d(h, φ(v)) · w(u, v)` (ascending partner order) at every free
/// site; strictly better by more than [`TIE_EPS`], or tied within it
/// with the smaller site, replaces the incumbent.
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
            mapped_partners
                .iter()
                .map(|&(s, w)| h.distance(s) * w)
                .sum()
        };
        if best.is_none_or(|(bs, bsite)| {
            score + TIE_EPS < bs || ((score - bs).abs() <= TIE_EPS && h < bsite)
        }) {
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
