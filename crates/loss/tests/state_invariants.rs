//! Seeded-fuzz invariants of the loss-strategy state machine: random
//! loss sequences must never corrupt the topology bookkeeping,
//! whatever the strategy.
//!
//! (Originally written with `proptest`, which is unavailable offline;
//! rewritten as deterministic seeded fuzzing over the vendored `rand`.)

use na_arch::Grid;
use na_benchmarks::Benchmark;
use na_core::{compile_with, schedule_digest, verify, CompilerConfig, PlacementScratch};
use na_loss::{LossOutcome, Strategy, StrategyState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ALL_STRATEGIES: [Strategy; 6] = [
    Strategy::AlwaysReload,
    Strategy::FullRecompile,
    Strategy::VirtualRemap,
    Strategy::MinorReroute,
    Strategy::CompileSmall,
    Strategy::CompileSmallReroute,
];

/// Whatever happens, program atoms stay on usable traps, fixup SWAPs
/// stay zero for non-rerouting strategies, a recompile (which starts
/// from the original schedule's lowered circuit) equals a fresh compile
/// of the program on the holey grid, and a reload always restores the
/// pristine state.
#[test]
fn random_loss_sequences_preserve_invariants() {
    let mut rng = StdRng::seed_from_u64(0xF00D);
    for case in 0..24u64 {
        let strategy = ALL_STRATEGIES[rng.gen_range(0..ALL_STRATEGIES.len())];
        let mid = f64::from(rng.gen_range(6u32..12)) / 2.0; // MID 3.0 .. 6.0
        if !strategy.supports_mid(mid) {
            continue;
        }
        let num_picks = rng.gen_range(1..30usize);
        let reload_every = rng.gen_range(5..12usize);

        let program = Benchmark::Cuccaro.generate(20, 0);
        let grid = Grid::new(8, 8);
        let mut state = StrategyState::new(&program, &grid, mid, strategy, None)
            .unwrap_or_else(|e| panic!("case {case}: initial compile: {e}"));
        let pristine_measured = state.measured_sites();

        for step in 0..num_picks {
            let usable: Vec<_> = state.grid().usable_sites().collect();
            assert!(!usable.is_empty(), "case {case}: grid emptied");
            let victim = usable[rng.gen_range(0..usable.len())];
            match state.apply_loss(victim) {
                LossOutcome::NeedsReload => {
                    state.reload();
                    assert_eq!(state.grid().num_holes(), 0, "case {case}");
                    assert_eq!(state.extra_swaps(), 0, "case {case}");
                    assert_eq!(state.measured_sites(), pristine_measured, "case {case}");
                }
                LossOutcome::Spare => {
                    // A spare loss never touches the mapping.
                    assert!(
                        state
                            .measured_sites()
                            .iter()
                            .all(|&m| state.grid().is_usable(m)),
                        "case {case}: mapping touched by spare loss"
                    );
                }
                LossOutcome::Tolerated { .. } | LossOutcome::Recompiled { .. } => {
                    for m in state.measured_sites() {
                        assert!(
                            state.grid().is_usable(m),
                            "case {case}: program atom on hole after tolerated loss"
                        );
                    }
                    if !strategy.reroutes() {
                        assert_eq!(
                            state.extra_swaps(),
                            0,
                            "case {case}: non-rerouting strategy acquired fixup swaps"
                        );
                    }
                    if strategy == Strategy::FullRecompile {
                        na_core::verify(state.compiled(), state.grid())
                            .expect("recompiled schedule verifies");
                        let config = na_core::CompilerConfig::new(strategy.compile_mid(mid));
                        let fresh = na_core::compile(&program, state.grid(), &config);
                        assert_eq!(Ok(state.compiled()), fresh.as_ref(), "case {case}");
                    }
                }
            }
            // Periodic reload keeps the run going even when the grid
            // gets thin.
            if step % reload_every == reload_every - 1 {
                state.reload();
            }
        }
    }
}

/// FullRecompile on grids made holey by losing program atoms, as a
/// recompile campaign does: every recompiled schedule has the digest of
/// a fresh [`compile_with`] of the program on that grid and passes
/// `verify`, and a recompile fails exactly when the fresh compile does.
#[test]
fn full_recompiles_match_fresh_compiles_on_random_holey_grids() {
    let points = [
        (Benchmark::Cuccaro, 30, 4.0),
        (Benchmark::Qaoa, 20, 3.0),
        (Benchmark::Bv, 24, 2.0),
    ];
    let mut scratch = PlacementScratch::new();
    let (mut recompiled, mut failed) = (0, 0);
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0x5EED ^ seed);
        let (bench, size, mid) = points[seed as usize % points.len()];
        let program = bench.generate(size, seed);
        let config = CompilerConfig::new(mid);
        let mut state = StrategyState::new(
            &program,
            &Grid::new(8, 8),
            mid,
            Strategy::FullRecompile,
            None,
        )
        .expect("the full grid compiles");
        for step in 0..40 {
            let used = state.measured_sites();
            let victim = used[rng.gen_range(0..used.len())];
            let mut holey = state.grid().clone();
            holey.remove_atom(victim);
            let fresh = compile_with(&program, &holey, &config, &mut scratch);
            match state.apply_loss(victim) {
                LossOutcome::Recompiled { .. } => {
                    let fresh = fresh.unwrap_or_else(|e| {
                        panic!(
                            "seed {seed} step {step}: recompiled, but a fresh compile fails: {e}"
                        )
                    });
                    assert_eq!(
                        schedule_digest(state.compiled()),
                        schedule_digest(&fresh),
                        "seed {seed} step {step}"
                    );
                    verify(state.compiled(), state.grid())
                        .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));
                    recompiled += 1;
                }
                LossOutcome::NeedsReload => {
                    assert!(
                        fresh.is_err(),
                        "seed {seed} step {step}: recompile failed alone"
                    );
                    failed += 1;
                    state.reload();
                }
                other => panic!("seed {seed} step {step}: a program atom's loss gave {other:?}"),
            }
        }
    }
    assert!(
        recompiled >= 100 && failed > 0,
        "{recompiled} recompiles, {failed} failures"
    );
}

/// Swap penalties are always in (0, 1] and monotone in the swap count.
#[test]
fn swap_penalty_is_well_formed() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let program = Benchmark::Bv.generate(12, 0);
    let grid = Grid::new(6, 6);
    let state =
        StrategyState::new(&program, &grid, 3.0, Strategy::MinorReroute, None).expect("compiles");
    for _ in 0..32 {
        let p2 = rng.gen_range(0.5f64..0.9999);
        let penalty = state.swap_penalty(p2);
        assert!(penalty > 0.0 && penalty <= 1.0);
        // Zero swaps initially: penalty is exactly 1.
        assert!((penalty - 1.0).abs() < 1e-12);
    }
}
