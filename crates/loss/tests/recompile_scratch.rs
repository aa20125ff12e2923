//! A `FullRecompile` state keeps one compile scratch across every
//! recompile of its loss walk, failed recompiles included. Whatever an
//! earlier compile left in that scratch — finished, or stopped part
//! way by `ProgramTooLarge`, a stuck routing or a disconnected grid —
//! must never reach a later schedule: each recompiled schedule equals
//! a compile of the program on the same holey grid with a fresh
//! scratch.

use na_arch::{Grid, Site};
use na_benchmarks::Benchmark;
use na_core::{compile_with, CompileError, CompiledCircuit, CompilerConfig, PlacementScratch};
use na_loss::{LossOutcome, Strategy, StrategyState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `(benchmark, size, grid side)`: programs that fill most of a small
/// device, so a walk soon runs out of atoms or routes.
const POINTS: [(Benchmark, u32, u32); 4] = [
    (Benchmark::Bv, 24, 6),
    (Benchmark::Cnu, 23, 6),
    (Benchmark::Cuccaro, 30, 7),
    (Benchmark::Qaoa, 24, 6),
];

fn assert_same_schedule(live: &CompiledCircuit, fresh: &CompiledCircuit, case: &str) {
    assert_eq!(live.ops(), fresh.ops(), "{case}: ops");
    assert_eq!(
        live.initial_map(),
        fresh.initial_map(),
        "{case}: initial map"
    );
    assert_eq!(live.final_map(), fresh.final_map(), "{case}: final map");
    assert_eq!(live.used_sites(), fresh.used_sites(), "{case}: used sites");
    assert_eq!(
        live.num_timesteps(),
        fresh.num_timesteps(),
        "{case}: timesteps"
    );
    assert_eq!(live, fresh, "{case}");
}

/// How each recompile of the walks ended.
#[derive(Debug, Default)]
struct Tally {
    recompiled: usize,
    too_large: usize,
    routing_failed: usize,
    /// Recompiles that succeeded right after a failed one, with no
    /// reload in between.
    recovered: usize,
}

#[test]
fn recompiles_in_a_reused_scratch_match_fresh_compiles() {
    let mut tally = Tally::default();
    for (p, &(bench, size, side)) in POINTS.iter().enumerate() {
        for mid in [2.0, 3.0, 4.0, 5.0] {
            let mut rng = StdRng::seed_from_u64(0x5C2A ^ (p as u64) << 8 ^ mid as u64);
            let program = bench.generate(size, 3);
            let config = CompilerConfig::new(mid);
            let device = Grid::new(side, side);
            let Ok(mut state) =
                StrategyState::new(&program, &device, mid, Strategy::FullRecompile, None)
            else {
                continue;
            };
            let mut after_failure = false;
            for step in 0..60 {
                let case = format!("{} MID {mid} step {step}", bench.name());
                let grid = state.grid();
                let used: Vec<Site> = state
                    .compiled()
                    .used_sites()
                    .iter()
                    .copied()
                    .filter(|&s| grid.is_usable(s))
                    .collect();
                let usable: Vec<Site> = grid.usable_sites().collect();
                // Mostly program atoms, so most losses recompile.
                let pool = if used.is_empty() || rng.gen_bool(0.15) {
                    &usable
                } else {
                    &used
                };
                if pool.is_empty() {
                    break;
                }
                let victim = pool[rng.gen_range(0..pool.len())];
                let mut holey = grid.clone();
                holey.remove_atom(victim);
                let fresh = compile_with(&program, &holey, &config, &mut PlacementScratch::new());
                match state.apply_loss(victim) {
                    LossOutcome::Recompiled { .. } => {
                        let fresh = fresh.unwrap_or_else(|e| {
                            panic!("{case}: recompiled, but a fresh compile fails: {e}")
                        });
                        assert_same_schedule(state.compiled(), &fresh, &case);
                        tally.recompiled += 1;
                        tally.recovered += usize::from(after_failure);
                        after_failure = false;
                    }
                    LossOutcome::NeedsReload => {
                        match fresh {
                            Err(CompileError::ProgramTooLarge { .. }) => tally.too_large += 1,
                            Err(CompileError::RoutingStuck { .. } | CompileError::Disconnected) => {
                                tally.routing_failed += 1
                            }
                            other => {
                                panic!("{case}: recompile failed, a fresh compile gave {other:?}")
                            }
                        }
                        // Carry on from the failure on the same scratch;
                        // reload only once the device is too small.
                        if state.grid().num_usable() < program.num_qubits() as usize {
                            state.reload();
                        } else {
                            after_failure = true;
                        }
                    }
                    LossOutcome::Spare => {}
                    other => panic!("{case}: a recompile strategy gave {other:?}"),
                }
            }
        }
    }
    println!("{tally:?}");
    assert!(
        tally.recompiled >= 500
            && tally.too_large > 0
            && tally.routing_failed > 0
            && tally.recovered > 0,
        "walks too narrow: {tally:?}"
    );
}
