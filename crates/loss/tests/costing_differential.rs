//! Randomized differential tests: the fast costing paths against the
//! retained per-op reference path.
//!
//! The fast paths answer from a precomputed [`InteractionSummary`]:
//! `resolved_ok_summary` directly, and the reroute strategies' fixup
//! SWAP count inside [`StrategyState`], which re-costs only the pairs
//! a remap moved or whose path witness lost a site. The reference
//! path walks every scheduled op of the state's schedule on its live
//! grid and virtual map. On random loss sequences over random programs
//! the two must agree exactly — same go/no-go verdicts, same SWAP
//! totals, same reload requests on disconnection or an exceeded budget.

mod common;

use common::{fixup_swaps_with, resolved_ok};
use na_arch::{BfsScratch, Direction, Grid, InteractionGraph, Site, VirtualMap};
use na_benchmarks::Benchmark;
use na_core::{compile, CompilerConfig};
use na_loss::{resolved_ok_summary, InteractionSummary, LossOutcome, Strategy, StrategyState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn summary_costing_matches_reference_under_random_loss() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
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
        }
    }
}

/// What one differential walk saw, so the test can insist that every
/// path of the delta costing was exercised.
#[derive(Debug, Default)]
struct Seen {
    uncompiled: usize,
    spares: usize,
    tolerated: usize,
    nonzero_fixups: usize,
    costed_reloads: usize,
    ignored_reloads: usize,
    reloads: usize,
    /// Pairs 3 or more hops apart whose last path witness stayed
    /// intact over unmoved endpoints, so the state kept their distance
    /// without a BFS.
    far_pairs_proven: usize,
}

/// A pair's resolved endpoints, hop distance and path witness, as the
/// state's fixup cache keeps them.
type Witness = (Site, Site, u32, Vec<u32>);

/// A live state with the test's model of its kept path witnesses
/// (`None` while the state holds no costing); a clone carries both.
#[derive(Clone)]
struct Live {
    state: StrategyState,
    witnesses: Option<Vec<Witness>>,
}

/// The path-witness rule, modelled outside the state: after a costed
/// fixup, each pair of `summary` keeps its `last` witness when its
/// endpoints still resolve to the same sites and the path's interior
/// is all usable, and is costed afresh otherwise. Every kept distance
/// must equal a fresh BFS's; the far ones are counted in `seen`.
fn follow_witnesses(
    last: &mut Option<Vec<Witness>>,
    summary: &InteractionSummary,
    state: &StrategyState,
    graph: &InteractionGraph,
    seen: &mut Seen,
    scratch: &mut BfsScratch,
) {
    let usable = state.grid().usable_mask();
    let mut kept = last.take().map(Vec::into_iter);
    let mut next = Vec::with_capacity(summary.pairs().len());
    for &(a, b, _) in summary.pairs() {
        let (ra, rb) = (state.vmap().resolve(a), state.vmap().resolve(b));
        let hops = graph
            .hop_distance(ra, rb, usable, scratch)
            .expect("a whole costing connects every pair");
        let fresh = (ra, rb, hops, scratch.path().to_vec());
        next.push(match kept.as_mut().and_then(Iterator::next) {
            Some(w) if (w.0, w.1) == (ra, rb) && w.3.iter().all(|&i| usable[i as usize]) => {
                assert_eq!(w.2, hops, "a kept distance went stale");
                seen.far_pairs_proven += usize::from(hops >= 3);
                w
            }
            _ => fresh,
        });
    }
    *last = Some(next);
}

/// Drives `live.state` through `steps` random losses — interfering or
/// spare by a coin flip — and checks every reaction against the per-op
/// oracle on the state's live grid and virtual map. A `Tolerated` loss
/// must carry the oracle's SWAP count. A reload request after a remap
/// (the map moved, so a fixup was costed) must match an oracle answer
/// of `None` or one over `budget`. Most reload requests are followed
/// by `reload()`; after the rest the walk goes on over the broken
/// topology, whose next costing must see the unmoved lost operand. The
/// walk also reloads unasked now and then, since `reload()` alone must
/// drop the state's costing. Every whole costing also steps the model
/// of its kept path witnesses ([`follow_witnesses`]).
fn walk(
    live: &mut Live,
    mid: f64,
    budget: Option<u32>,
    steps: usize,
    rng: &mut StdRng,
    seen: &mut Seen,
    what: &str,
) {
    let Live { state, witnesses } = live;
    let mut scratch = BfsScratch::new();
    let summary = InteractionSummary::of(state.compiled());
    let graph = InteractionGraph::cached(state.grid(), mid);
    for step in 0..steps {
        if rng.gen_range(0..12u32) == 0 {
            state.reload();
            seen.reloads += 1;
            *witnesses = None;
        }
        let (used, spare): (Vec<Site>, Vec<Site>) = state
            .grid()
            .usable_sites()
            .partition(|&site| state.is_interfering(site));
        let pool = if spare.is_empty() || (!used.is_empty() && rng.gen_bool(0.5)) {
            used
        } else {
            spare
        };
        let victim = pool[rng.gen_range(0..pool.len())];
        let before: VirtualMap = state.vmap().clone();
        let outcome = state.apply_loss(victim);
        let mut oracle = || {
            fixup_swaps_with(
                state.compiled(),
                state.vmap(),
                state.grid(),
                mid,
                &mut scratch,
            )
        };
        match outcome {
            LossOutcome::Spare => seen.spares += 1,
            LossOutcome::Tolerated { .. } => {
                assert_eq!(
                    Some(state.extra_swaps()),
                    oracle(),
                    "{what}, step {step}: fixup cost diverged at {victim}\n{}",
                    state.grid()
                );
                seen.tolerated += 1;
                seen.nonzero_fixups += usize::from(state.extra_swaps() > 0);
                follow_witnesses(witnesses, &summary, state, &graph, seen, &mut scratch);
            }
            LossOutcome::NeedsReload => {
                if *state.vmap() != before {
                    let cost = oracle();
                    assert!(
                        cost.is_none() || cost > budget,
                        "{what}, step {step}: reload requested at {victim}, \
                         but the reference costs {cost:?} (budget {budget:?})"
                    );
                    seen.costed_reloads += 1;
                    if cost.is_some() {
                        // Over budget: a whole costing ran on the rule.
                        follow_witnesses(witnesses, &summary, state, &graph, seen, &mut scratch);
                    }
                }
                *witnesses = None;
                if rng.gen_range(0..4u32) == 0 {
                    seen.ignored_reloads += 1;
                } else {
                    state.reload();
                    seen.reloads += 1;
                }
            }
            other => panic!("{what}: unexpected {other:?}"),
        }
    }
}

#[test]
fn an_unheeded_reload_request_drops_the_costing() {
    // Losing a program atom whose every cardinal ray holds only program
    // atoms and holes cannot be remapped: a reload request that leaves
    // the address on its hole. A caller that goes on anyway must see
    // every later interfering loss refused, since the schedule still
    // needs that atom, even when the later loss's own remap succeeds.
    let program = Benchmark::Bv.generate(12, 0);
    let grid = Grid::new(8, 8);
    let mid = 3.0;
    let mut state =
        StrategyState::new(&program, &grid, mid, Strategy::MinorReroute, None).expect("compiles");
    let used = |s: &StrategyState| -> Vec<Site> {
        s.grid()
            .usable_sites()
            .filter(|&site| s.is_interfering(site))
            .collect()
    };
    // A first tolerated loss, so the state holds a costing.
    let first = used(&state)[0];
    assert!(matches!(
        state.apply_loss(first),
        LossOutcome::Tolerated { .. }
    ));
    let victim = used(&state)[0];
    for dir in Direction::ALL {
        let mut site = victim.step(dir);
        while state.grid().contains(site) {
            if state.grid().is_usable(site) && !state.is_interfering(site) {
                assert_eq!(state.apply_loss(site), LossOutcome::Spare);
            }
            site = site.step(dir);
        }
    }
    let before = state.vmap().clone();
    assert_eq!(state.apply_loss(victim), LossOutcome::NeedsReload);
    assert_eq!(*state.vmap(), before, "the loss was not remapped");
    let mut scratch = BfsScratch::new();
    let mut remapped = 0;
    for site in used(&state) {
        let before = state.vmap().clone();
        assert_eq!(state.apply_loss(site), LossOutcome::NeedsReload, "{site}");
        assert_eq!(
            fixup_swaps_with(
                state.compiled(),
                state.vmap(),
                state.grid(),
                mid,
                &mut scratch
            ),
            None
        );
        remapped += usize::from(*state.vmap() != before);
    }
    assert!(remapped > 0, "no later loss was remapped");
}

#[test]
fn state_fixup_costing_matches_reference_through_live_losses() {
    let mut rng = StdRng::seed_from_u64(0xDE17A);
    let mut seen = Seen::default();
    for case in 0..120u64 {
        let side = [8u32, 10][rng.gen_range(0..2usize)];
        let mut grid = Grid::new(side, side);
        for _ in 0..rng.gen_range(1..=side as usize) {
            let site = Site::new(rng.gen_range(0..side as i32), rng.gen_range(0..side as i32));
            if grid.is_usable(site) {
                grid.remove_atom(site);
            }
        }
        let benchmark =
            [Benchmark::Bv, Benchmark::Cuccaro, Benchmark::Qaoa][rng.gen_range(0..3usize)];
        let size = rng.gen_range(10..=(side * side / 4));
        let mid = f64::from(rng.gen_range(2u32..=4));
        let strategy = if mid >= 3.0 && rng.gen_bool(0.5) {
            Strategy::CompileSmallReroute
        } else {
            Strategy::MinorReroute
        };
        let budget = rng.gen_bool(0.5).then(|| rng.gen_range(0..24u32));
        let program = benchmark.generate(size, 0);
        let what =
            format!("case {case}: {benchmark}-{size} {strategy} MID {mid} budget {budget:?}");
        // A tight MID on a holey grid can leave the router stuck: a
        // typed compile error, not a costing case.
        let Ok(state) = StrategyState::new(&program, &grid, mid, strategy, budget) else {
            seen.uncompiled += 1;
            continue;
        };
        let mut live = Live {
            state,
            witnesses: None,
        };
        walk(&mut live, mid, budget, 30, &mut rng, &mut seen, &what);
        // A clone carries the live costing: both copies go on with
        // their own losses and must each stay exact.
        let mut twin = live.clone();
        walk(&mut live, mid, budget, 20, &mut rng, &mut seen, &what);
        walk(&mut twin, mid, budget, 20, &mut rng, &mut seen, &what);
    }
    assert!(
        seen.uncompiled < 5
            && seen.spares > 500
            && seen.tolerated > 500
            && seen.nonzero_fixups > 200
            && seen.costed_reloads > 20
            && seen.ignored_reloads > 20
            && seen.reloads > 50
            && seen.far_pairs_proven > 200,
        "too little exercised: {seen:?}"
    );
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
