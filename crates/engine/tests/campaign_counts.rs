//! Work counters of sharded engine campaigns and loss-tolerance jobs,
//! read from the process-global telemetry recorder. The tests live in
//! their own test binary (their own process) and serialize on one
//! lock, so no other work lands in the counts they read.

use na_arch::Grid;
use na_benchmarks::Benchmark;
use na_core::CompilerConfig;
use na_engine::{paper, Engine, ExperimentSpec, LossSpec, RunRecord, Task};
use na_loss::{CampaignConfig, ShotTarget, Strategy};
use na_telemetry::MetricsSnapshot;
use std::sync::{Mutex, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

/// One BV-16 campaign on an 8×8 grid at MID 3, split into 4 shards.
fn sharded_campaign(strategy: Strategy) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new("counts", Grid::new(8, 8));
    spec.push(
        Benchmark::Bv,
        16,
        0,
        CompilerConfig::new(3.0),
        Task::ShardedCampaign {
            config: CampaignConfig::new(3.0, strategy)
                .with_target(ShotTarget::Attempts(80))
                .with_seed(4),
            loss: LossSpec::new(4),
            shards: 4,
        },
    );
    spec
}

/// Runs `spec` on `engine` with metrics on, checks that none of its
/// rows failed, and returns the metrics the run recorded.
fn counted(engine: &Engine, spec: &ExperimentSpec) -> MetricsSnapshot {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    na_telemetry::reset();
    na_telemetry::set_enabled(true);
    let records: Vec<RunRecord> = engine.run(spec);
    let snapshot = na_telemetry::snapshot();
    na_telemetry::set_enabled(false);
    for record in &records {
        assert!(!record.outcome.is_failed(), "{:?}", record.outcome);
    }
    snapshot
}

#[test]
fn a_verified_sharded_campaign_verifies_its_schedule_once() {
    let spec = sharded_campaign(Strategy::CompileSmallReroute);
    let verify_samples = |engine: Engine| {
        let metrics = counted(&engine, &spec);
        assert_eq!(metrics.counter("campaign_shards"), 4);
        metrics.stage("verify").map_or(0, |s| s.count)
    };
    // Each run compiles the point once, and the compile opens its
    // (skipped) `verify` pass span; a verified run replays the schedule
    // once more for all four shards.
    let unverified = verify_samples(Engine::with_workers(2));
    assert_eq!(
        verify_samples(Engine::with_workers(2).verified()),
        unverified + 1
    );
}

#[test]
fn a_sharded_recompile_campaign_builds_one_program() {
    let metrics = counted(
        &Engine::with_workers(2),
        &sharded_campaign(Strategy::FullRecompile),
    );
    let recompiles = metrics.counter("recompiles");
    assert!(recompiles > 0, "no loss was absorbed by a recompile");
    assert_eq!(metrics.counter("compiles"), recompiles + 1);
    assert_eq!(metrics.counter("campaign_shards"), 4);
    // The first shard looks the point up; the other three reuse it.
    assert_eq!(metrics.counter("compile_cache_misses"), 1);
    assert_eq!(metrics.counter("compile_cache_hits"), 0);
    assert_eq!(
        metrics.counter("program_builds"),
        1,
        "every shard recompiles the cached schedule's program"
    );
}

#[test]
fn a_tolerance_job_compiles_its_point_once() {
    // `natoms tolerance --benchmark cuccaro --size 30 --mid 4
    // --strategy recompile`'s job: ten trials walk clones of one state
    // built from the cached compile.
    let mut spec = ExperimentSpec::new("counts", paper::paper_grid());
    let task = Task::Tolerance {
        strategy: Strategy::FullRecompile,
        trials: 10,
        seed: 0,
    };
    spec.push(Benchmark::Cuccaro, 30, 0, CompilerConfig::new(4.0), task);
    let metrics = counted(&Engine::with_workers(2).verified(), &spec);
    assert_eq!(metrics.counter("compile_cache_misses"), 1);
    assert_eq!(metrics.counter("compile_cache_hits"), 0);
    assert_eq!(
        metrics.counter("program_builds"),
        1,
        "every trial recompiles the cached schedule's program"
    );
    // The losses the ten walks absorb by recompiling.
    assert_eq!(metrics.counter("recompiles"), 339);
    assert_eq!(metrics.counter("compiles"), 340);
}

#[test]
fn a_compile_job_and_a_campaign_share_one_verified_point() {
    // VirtualRemap compiles at the hardware MID, so both jobs read the
    // BV-16 MID-3 point: one compiles it, the other hits the cache.
    let mut spec = ExperimentSpec::new("counts", Grid::new(8, 8));
    spec.push(
        Benchmark::Bv,
        16,
        0,
        CompilerConfig::new(3.0),
        Task::Compile,
    );
    spec.push(
        Benchmark::Bv,
        16,
        0,
        CompilerConfig::new(3.0),
        Task::Campaign {
            config: CampaignConfig::new(3.0, Strategy::VirtualRemap)
                .with_target(ShotTarget::Attempts(20))
                .with_seed(4),
            loss: LossSpec::new(4),
        },
    );
    let verify_samples = |engine: Engine| {
        let metrics = counted(&engine, &spec);
        let stats = engine.cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert_eq!(metrics.counter("compile_cache_misses"), 1);
        assert_eq!(metrics.counter("compile_cache_hits"), 1);
        metrics.stage("verify").map_or(0, |s| s.count)
    };
    // The compile opens its (skipped) `verify` pass span; a verified
    // engine replays the shared schedule once more, for both jobs.
    let unverified = verify_samples(Engine::with_workers(2));
    assert_eq!(
        verify_samples(Engine::with_workers(2).verified()),
        unverified + 1
    );
}
