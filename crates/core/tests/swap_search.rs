//! The bounded SWAP search against the unbounded scan it replaced
//! (`common::swap_search`): on random devices, mappings and weights it
//! must return the same move with the same score bits, while skipping
//! candidates.

mod common;

use common::swap_search::best_swap_reference;
use na_arch::{Grid, InteractionGraph, Site};
use na_circuit::Qubit;
use na_core::routing::{best_swap_for_gate, CandidateCounts};
use na_core::{InteractionWeights, QubitMap, WeightScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Random gates over `n` qubits, mostly at layer 0 so that symmetric
/// placements score exact ties; a few land at layers 28–34, whose
/// weights `e^{-ℓ}` (below 1e-12) turn exact ties into ties within
/// the comparator's ε.
fn random_weights(rng: &mut StdRng, n: u32) -> InteractionWeights {
    let gates: Vec<(Vec<Qubit>, usize)> = (0..rng.gen_range(1..=3 * n as usize))
        .map(|_| {
            let mut qubits: Vec<Qubit> = (0..n).map(Qubit).collect();
            shuffle(rng, &mut qubits);
            qubits.truncate(if n > 2 && rng.gen_bool(0.2) { 3 } else { 2 });
            let layer = match rng.gen_range(0..10) {
                0..=5 => 0,
                6 | 7 => rng.gen_range(1..4),
                _ => rng.gen_range(28..=34),
            };
            (qubits, layer)
        })
        .collect();
    let mut weights = InteractionWeights::empty(n);
    let items = gates
        .iter()
        .enumerate()
        .map(|(i, (q, l))| (i, q.as_slice(), *l));
    weights.rebuild(items, 40, &mut WeightScratch::new());
    weights
}

#[test]
fn bounded_search_returns_the_full_scan_move_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(26);
    let (mut counts, mut ties, mut moves) = (CandidateCounts::default(), [0u64; 2], 0);
    for trial in 0..4_000 {
        let mid = f64::from(rng.gen_range(1..=13u32)) * if rng.gen_bool(0.2) { 1.5 } else { 1.0 };
        let side = rng.gen_range(4..=(4 + 2 * mid as i32).min(24));
        let mut grid = Grid::new(side as u32, rng.gen_range(3..=side) as u32);
        let sites: Vec<Site> = grid.usable_sites().collect();
        for _ in 0..rng.gen_range(0..=sites.len() / 4) {
            grid.remove_atom(sites[rng.gen_range(0..sites.len())]);
        }
        let mut free: Vec<Site> = grid.usable_sites().collect();
        shuffle(&mut rng, &mut free);
        let n = rng.gen_range(2..=free.len().min(12)) as u32;
        let mut map = QubitMap::with_extent(n, grid.width(), grid.height());
        for (q, &s) in free.iter().take(n as usize).enumerate() {
            map.assign(Qubit(q as u32), s);
        }
        let weights = random_weights(&mut rng, n);
        let mut operands: Vec<Qubit> = (0..n).map(Qubit).collect();
        shuffle(&mut rng, &mut operands);
        operands.truncate(if n > 2 && rng.gen_bool(0.4) { 3 } else { 2 });
        let graph = InteractionGraph::cached(&grid, mid);
        let usable = grid.usable_mask();
        let want = best_swap_reference(&operands, &map, &graph, usable, &weights, mid, &mut ties);
        let got = best_swap_for_gate(&operands, &map, &graph, usable, &weights, mid, &mut counts);
        let bits =
            |m: Option<na_core::routing::SwapMove>| m.map(|m| (m.from, m.to, m.score.to_bits()));
        assert_eq!(
            bits(got),
            bits(want),
            "trial {trial}: MID {mid}, operands {operands:?}\n{grid}"
        );
        moves += usize::from(want.is_some());
    }
    assert!(moves > 1_500, "only {moves} searches found a move");
    assert!(ties[0] > 1_000 && ties[1] > 100, "ties reached: {ties:?}");
    assert!(
        counts.pruned > counts.scored / 4,
        "the bound skipped too little: {counts:?}"
    );
}
