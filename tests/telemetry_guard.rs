//! The no-perturbation contract of `na-telemetry`, pinned end to end:
//! compiling, placing, and running a loss campaign with metrics
//! collection enabled must produce **bit-identical** results to the
//! same work with collection disabled. Telemetry is strictly
//! observational — it draws no RNG and changes no float accumulation
//! order — and this test is the tripwire that keeps it that way.

use natoms::arch::Grid;
use natoms::benchmarks::Benchmark;
use natoms::compiler::{
    compile, initial_layout, placement_digest, schedule_digest, CompilerConfig,
};
use natoms::engine::{Engine, ExperimentSpec, Task};
use natoms::loss::{run_campaign, CampaignConfig, CampaignResult, LossModel, ShotTarget, Strategy};
use natoms::telemetry as tel;

/// One single-job compile experiment through the engine, returning its
/// row. Used to pin the per-pass report contract on both telemetry
/// arms.
fn engine_compile_row() -> natoms::engine::RunRecord {
    let mut spec = ExperimentSpec::new("guard", Grid::new(10, 10));
    spec.push(
        Benchmark::Bv,
        16,
        0,
        CompilerConfig::new(3.0),
        Task::Compile,
    );
    let mut rows = Engine::with_workers(1).run(&spec);
    assert_eq!(rows.len(), 1);
    rows.pop().expect("one row")
}

/// The workload both arms of the comparison run: a compile + placement
/// digest pair per benchmark family, and two campaigns (a remap-only
/// strategy compared in full, and a FullRecompile strategy whose one
/// wall-clock field is zeroed before comparison).
fn pipeline_digests() -> (Vec<(u64, u64)>, CampaignResult, CampaignResult) {
    let grid = Grid::new(10, 10);
    let cfg = CompilerConfig::new(3.0);
    let mut compiles = Vec::new();
    for b in [Benchmark::Bv, Benchmark::Qaoa, Benchmark::Cuccaro] {
        let program = b.generate(20, 0);
        let compiled = compile(&program, &grid, &cfg).expect("compiles");
        let layout = initial_layout(&program, &grid, &cfg).expect("places");
        compiles.push((schedule_digest(&compiled), placement_digest(&layout)));
    }

    let program = Benchmark::Bv.generate(16, 0);
    let reroute_cfg = CampaignConfig::new(4.0, Strategy::CompileSmallReroute)
        .with_target(ShotTarget::Attempts(60))
        .with_seed(7);
    let reroute =
        run_campaign(&program, &grid, LossModel::new(3), &reroute_cfg).expect("campaign runs");

    let recompile_cfg = CampaignConfig::new(4.0, Strategy::FullRecompile)
        .with_target(ShotTarget::Attempts(30))
        .with_seed(7);
    let mut recompile = run_campaign(
        &program,
        &grid,
        LossModel::destructive_readout(3),
        &recompile_cfg,
    )
    .expect("campaign runs");
    // The recompile strategy's ledger records measured wall-clock
    // compile time — the one legitimately nondeterministic field.
    // Zero it so the rest of the result is compared exactly.
    recompile.ledger.recompile_time = 0.0;

    (compiles, reroute, recompile)
}

#[test]
fn metrics_on_and_off_produce_bit_identical_results() {
    // Baseline with telemetry disabled (the default).
    tel::set_enabled(false);
    let (compiles_off, reroute_off, recompile_off) = pipeline_digests();
    let row_off = engine_compile_row();

    // Same work with collection enabled.
    tel::set_enabled(true);
    tel::reset();
    let (compiles_on, reroute_on, recompile_on) = pipeline_digests();
    let row_on = engine_compile_row();
    let snapshot = tel::snapshot();
    tel::set_enabled(false);
    tel::reset();

    assert_eq!(
        compiles_off, compiles_on,
        "schedule/placement digests changed under telemetry"
    );
    assert_eq!(
        reroute_off, reroute_on,
        "reroute campaign result changed under telemetry"
    );
    assert_eq!(
        recompile_off, recompile_on,
        "recompile campaign result changed under telemetry"
    );

    // Engine rows: the observable outcome is identical on both arms;
    // the per-pass pipeline report is attached only when telemetry is
    // on (wall-clock fields, like `timings`, are exempt from the
    // byte-identity contract).
    assert_eq!(
        row_off.outcome, row_on.outcome,
        "engine row outcome changed under telemetry"
    );
    assert!(
        row_off.pass_report.is_none(),
        "pass report with metrics off"
    );
    let report = row_on
        .pass_report
        .as_ref()
        .expect("telemetry-on engine row carries a pass report");
    let names: Vec<&str> = report.passes.iter().map(|p| p.pass.as_str()).collect();
    assert_eq!(
        names,
        [
            "lower",
            "validate_arity",
            "place",
            "route_schedule",
            "verify",
            "finalize"
        ],
        "unexpected pass list in the engine row's report"
    );

    // And the enabled arm must actually have observed the pipeline —
    // otherwise this test would pass vacuously with dead telemetry.
    assert!(snapshot.stage("lower").is_some(), "no lower-stage samples");
    assert!(snapshot.stage("place").is_some(), "no place-stage samples");
    assert!(
        snapshot.stage("route").is_some(),
        "no route-stage samples (scheduler routing split)"
    );
    assert!(
        snapshot.stage("route_schedule").is_some(),
        "no schedule-stage samples"
    );
    assert!(snapshot.stage("shot").is_some(), "no per-shot samples");
    assert!(
        snapshot.stage("recompile").is_some(),
        "no recompile samples"
    );
    assert!(snapshot.counter("compiles") > 0);
    assert!(snapshot.counter("shots_attempted") >= 90);
    assert!(snapshot.counter("losses_drawn") > 0);
}
