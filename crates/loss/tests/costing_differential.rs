//! Randomized differential tests: the summary-based fast costing path
//! against the retained per-op reference path.
//!
//! The fast path answers `resolved_ok`/`fixup_swaps` from a
//! precomputed [`InteractionSummary`] and a hole-masked full-grid
//! [`InteractionGraph`]; the reference path walks every scheduled op
//! and runs one BFS per out-of-range pair. On random loss sequences
//! over random programs the two must agree exactly — same go/no-go
//! verdicts, same SWAP totals, same `None`s on disconnection.

mod common;

use common::{fixup_swaps_with, resolved_ok};
use na_arch::{BfsScratch, Grid, InteractionGraph, Site, VirtualMap};
use na_benchmarks::Benchmark;
use na_core::{compile, CompilerConfig};
use na_loss::{fixup_swaps_summary, resolved_ok_summary, InteractionSummary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn summary_costing_matches_reference_under_random_loss() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let mut scratch = BfsScratch::new();
    let mut ref_scratch = BfsScratch::new();
    for case in 0..24u64 {
        let benchmark =
            [Benchmark::Bv, Benchmark::Cuccaro, Benchmark::Qaoa][rng.gen_range(0..3usize)];
        let size = rng.gen_range(10..24u32);
        let mid = f64::from(rng.gen_range(2u32..5));
        let grid = Grid::new(8, 8);
        let compiled = compile(
            &benchmark.generate(size, 0),
            &grid,
            &CompilerConfig::new(mid),
        )
        .expect("compiles");
        let summary = InteractionSummary::of(&compiled);
        let full_graph = InteractionGraph::build(&grid, mid);
        let used = compiled.used_sites().to_vec();

        let mut g = grid.clone();
        let mut vmap = VirtualMap::new();
        for _ in 0..rng.gen_range(4..16usize) {
            let usable: Vec<Site> = g.usable_sites().collect();
            if usable.is_empty() {
                break;
            }
            let victim = usable[rng.gen_range(0..usable.len())];
            g.remove_atom(victim);
            let in_use = |a: Site| used.binary_search(&a).is_ok();
            if in_use(vmap.address_of(victim)) {
                let Some(dir) = vmap.best_shift_direction(&g, victim, &in_use) else {
                    break;
                };
                if vmap
                    .shift_from_with(&g, victim, dir, &in_use, &mut na_arch::ShiftScratch::new())
                    .is_err()
                {
                    break;
                }
            }

            assert_eq!(
                resolved_ok_summary(&summary, &vmap, &g, mid),
                resolved_ok(&compiled, &vmap, &g, mid),
                "case {case}: resolved_ok diverged ({benchmark} size {size}, MID {mid})\n{g}"
            );
            assert_eq!(
                fixup_swaps_summary(
                    &summary,
                    &vmap,
                    &full_graph,
                    g.usable_mask(),
                    mid,
                    &mut scratch
                ),
                fixup_swaps_with(&compiled, &vmap, &g, mid, &mut ref_scratch),
                "case {case}: fixup cost diverged ({benchmark} size {size}, MID {mid})\n{g}"
            );
        }
    }
}

#[test]
fn summary_counts_every_scheduled_occurrence() {
    // A pair scheduled k times must appear with multiplicity k, so the
    // summary's total pair count equals the per-op pair count.
    let grid = Grid::new(10, 10);
    for benchmark in Benchmark::ALL {
        let compiled = compile(&benchmark.generate(20, 0), &grid, &CompilerConfig::new(3.0))
            .expect("compiles");
        let summary = InteractionSummary::of(&compiled);
        let per_op: usize = compiled
            .ops()
            .iter()
            .map(|op| op.sites.len() * (op.sites.len() - 1) / 2)
            .sum();
        let from_summary: u64 = summary.pairs().iter().map(|&(_, _, n)| u64::from(n)).sum();
        assert_eq!(from_summary, per_op as u64, "{benchmark}");
        // Pairs are normalized, sorted, and deduped.
        assert!(summary
            .pairs()
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        assert!(summary.pairs().iter().all(|&(a, b, _)| a <= b));
        // Every operand of every pair is a distinct-operand entry.
        for &(a, b, _) in summary.pairs() {
            assert!(summary.operands().binary_search(&a).is_ok());
            assert!(summary.operands().binary_search(&b).is_ok());
        }
    }
}
