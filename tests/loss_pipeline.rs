//! Integration tests for the atom-loss pipeline: compiled schedules
//! driven through loss injection, strategy reactions, and campaign
//! simulation.

use natoms::arch::Grid;
use natoms::benchmarks::Benchmark;
use natoms::circuit::Circuit;
use natoms::compiler::{compile, CompileError, CompilerConfig};
use natoms::loss::{
    mean_loss_tolerance, run_campaign_precompiled, CampaignConfig, CampaignResult,
    InteractionSummary, LossModel, LossOutcome, ShotTarget, Strategy, StrategyState,
};
use std::sync::Arc;

/// Compiles `program` at `cfg`'s strategy compile MID and runs the
/// whole campaign over that schedule.
fn campaign(
    program: &Circuit,
    grid: &Grid,
    loss: LossModel,
    cfg: &CampaignConfig,
) -> Result<CampaignResult, CompileError> {
    let compile_cfg = CompilerConfig::new(cfg.strategy.compile_mid(cfg.hardware_mid));
    let compiled = Arc::new(compile(program, grid, &compile_cfg)?);
    let summary = Arc::new(InteractionSummary::of(&compiled));
    run_campaign_precompiled(program, grid, compiled, summary, loss, cfg)
}

fn grid() -> Grid {
    Grid::new(10, 10)
}

#[test]
fn strategy_tolerance_ordering_matches_paper() {
    // Fig. 10's qualitative ordering at a mid-range MID: recompile >=
    // reroute variants >= plain remapping >= always reload (averaged
    // over seeds).
    let program = Benchmark::Cnu.generate(30, 0);
    let mean = |strategy: Strategy| -> f64 {
        let state = StrategyState::new(&program, &grid(), 4.0, strategy, None).unwrap();
        mean_loss_tolerance(&state, 6, 0).0
    };
    let recompile = mean(Strategy::FullRecompile);
    let reroute = mean(Strategy::MinorReroute);
    let remap = mean(Strategy::VirtualRemap);
    let always = mean(Strategy::AlwaysReload);
    assert!(
        recompile >= reroute,
        "recompile {recompile} vs reroute {reroute}"
    );
    assert!(reroute >= remap, "reroute {reroute} vs remap {remap}");
    assert!(remap >= always * 0.9, "remap {remap} vs always {always}");
}

#[test]
fn measured_sites_stay_on_atoms_through_long_loss_sequences() {
    let program = Benchmark::Cuccaro.generate(30, 0);
    let mut state =
        StrategyState::new(&program, &grid(), 5.0, Strategy::MinorReroute, None).expect("compiles");
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..60 {
        let usable: Vec<_> = state.grid().usable_sites().collect();
        let victim = usable[rng.gen_range(0..usable.len())];
        match state.apply_loss(victim) {
            LossOutcome::NeedsReload => {
                state.reload();
            }
            _ => {
                for m in state.measured_sites() {
                    assert!(state.grid().is_usable(m), "program atom on a hole");
                }
            }
        }
    }
}

#[test]
fn campaign_shot_accounting_is_consistent() {
    let program = Benchmark::Cnu.generate(30, 0);
    for strategy in Strategy::ALL {
        let mid = 4.0;
        let cfg = CampaignConfig::new(mid, strategy)
            .with_target(ShotTarget::Attempts(120))
            .with_two_qubit_error(2e-3)
            .with_seed(8);
        let r = campaign(&program, &grid(), LossModel::new(8), &cfg)
            .unwrap_or_else(|e| panic!("{strategy}: {e}"));
        assert_eq!(
            r.shots_attempted,
            r.shots_successful + r.discarded_by_loss + r.failed_by_noise,
            "{strategy}"
        );
        assert_eq!(r.ledger.fluorescences, r.shots_attempted, "{strategy}");
        let interval_sum: u64 = r.shots_between_reloads.iter().map(|&v| u64::from(v)).sum();
        assert_eq!(interval_sum, r.shots_successful, "{strategy}");
        assert_eq!(
            r.shots_between_reloads.len() as u64,
            r.ledger.reloads + 1,
            "{strategy}"
        );
    }
}

#[test]
fn loss_improvement_scales_shots_per_reload() {
    // Fig. 13's claim: better loss rates mean proportionally more
    // shots between reloads.
    let program = Benchmark::Cnu.generate(30, 0);
    let run = |factor: f64| -> f64 {
        let cfg = CampaignConfig::new(4.0, Strategy::CompileSmallReroute)
            .with_target(ShotTarget::Attempts(1500))
            .with_two_qubit_error(1e-3)
            .with_seed(21);
        let loss = LossModel::new(22).with_improvement_factor(factor);
        campaign(&program, &grid(), loss, &cfg)
            .unwrap()
            .mean_shots_before_reload()
    };
    let base = run(1.0);
    let better = run(10.0);
    assert!(
        better > 4.0 * base,
        "10x loss improvement only scaled shots {base} -> {better}"
    );
}

#[test]
fn destructive_readout_is_much_worse() {
    let program = Benchmark::Cnu.generate(30, 0);
    let cfg = CampaignConfig::new(4.0, Strategy::CompileSmallReroute)
        .with_target(ShotTarget::Attempts(150))
        .with_two_qubit_error(1e-3)
        .with_seed(5);
    let lowloss = campaign(&program, &grid(), LossModel::new(5), &cfg).unwrap();
    let destructive = campaign(&program, &grid(), LossModel::destructive_readout(5), &cfg).unwrap();
    assert!(
        destructive.ledger.reloads > 2 * lowloss.ledger.reloads,
        "destructive {} vs low-loss {} reloads",
        destructive.ledger.reloads,
        lowloss.ledger.reloads
    );
}

#[test]
fn overhead_dominated_by_reloads_for_always_reload() {
    let program = Benchmark::Cnu.generate(30, 0);
    let cfg = CampaignConfig::new(3.0, Strategy::AlwaysReload)
        .with_target(ShotTarget::Attempts(300))
        .with_two_qubit_error(1e-3)
        .with_seed(2);
    let r = campaign(&program, &grid(), LossModel::new(2), &cfg).unwrap();
    assert!(
        r.ledger.reload_time > r.ledger.overhead_time() * 0.5,
        "reloads {}s of {}s overhead",
        r.ledger.reload_time,
        r.ledger.overhead_time()
    );
}

#[test]
fn campaign_timeline_matches_ledger() {
    let program = Benchmark::Cnu.generate(30, 0);
    let cfg = CampaignConfig::new(4.0, Strategy::VirtualRemap)
        .with_target(ShotTarget::Attempts(80))
        .with_two_qubit_error(1e-3)
        .with_seed(6)
        .with_timeline();
    let r = campaign(&program, &grid(), LossModel::new(6), &cfg).unwrap();
    use natoms::loss::EventKind;
    let count = |k: EventKind| r.timeline.iter().filter(|e| e.kind == k).count() as u64;
    assert_eq!(count(EventKind::RunCircuit), r.shots_attempted);
    assert_eq!(count(EventKind::Fluorescence), r.ledger.fluorescences);
    assert_eq!(count(EventKind::Reload), r.ledger.reloads);
    assert_eq!(count(EventKind::Remap), r.ledger.remaps);
}
