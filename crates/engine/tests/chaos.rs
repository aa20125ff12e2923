//! Engine failure-domain tests: worker-pool drain under injected
//! panics and cooperative deadlines.
//!
//! These tests arm process-global fault plans scoped to the engine's
//! own `job<id>` scopes, so they live in their own test binary (their
//! own process) and serialize through [`na_faults::exclusive`] —
//! a `job0`-scoped panic plan must never leak into an unrelated test
//! that also runs a job 0.

use na_arch::Grid;
use na_benchmarks::Benchmark;
use na_core::CompilerConfig;
use na_engine::{write_records, Engine, ExperimentSpec, JsonlSink, Outcome, Task};
use std::time::Duration;

fn compile_spec(name: &str, sizes: &[u32]) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(name, Grid::new(6, 6));
    for &size in sizes {
        spec.push(
            Benchmark::Bv,
            size,
            0,
            CompilerConfig::new(3.0),
            Task::Compile,
        );
    }
    spec
}

/// The drain contract: a panic injected into one job leaves every
/// worker alive, every other row fault-free, and the full row set
/// byte-identical at any worker count.
#[test]
fn workers_drain_past_an_injected_panic_identically() {
    let _serial = na_faults::exclusive();
    na_faults::reset();
    na_faults::arm_spec("engine.execute_job#job2=panic@1").unwrap();

    let spec = compile_spec("chaos-drain", &[6, 7, 8, 9, 10, 11]);
    let mut renders = Vec::new();
    for workers in [1usize, 2, 8] {
        let records = Engine::with_workers(workers).run(&spec);
        assert_eq!(records.len(), 6, "{workers} workers must drain every job");
        match &records[2].outcome {
            Outcome::Failed {
                panicked, error, ..
            } => {
                assert!(panicked, "the row must be typed as a panic");
                assert_eq!(error, "injected panic at engine.execute_job (hit 1)");
            }
            other => panic!("job 2 must fail, got {other:?}"),
        }
        for (i, record) in records.iter().enumerate() {
            assert!(
                i == 2 || !record.outcome.is_failed(),
                "job {i} must be isolated from job 2's panic"
            );
        }
        let mut sink = JsonlSink::new(Vec::new());
        write_records(&records, &mut sink).unwrap();
        renders.push(sink.into_inner());
    }
    na_faults::reset();
    assert_eq!(renders[0], renders[1], "1 vs 2 workers");
    assert_eq!(renders[1], renders[2], "2 vs 8 workers");
}

/// The per-scope hit counter makes "the 2nd compile of job 0" a
/// deterministic event; an unscoped plan would fire on whichever
/// worker reached the site first.
#[test]
fn scoped_plans_pick_one_job_at_any_worker_count() {
    let _serial = na_faults::exclusive();
    na_faults::reset();
    na_faults::arm_spec("engine.execute_job#job4=error@1").unwrap();

    let spec = compile_spec("chaos-scoped", &[6, 7, 8, 9, 10, 11]);
    for workers in [1usize, 8] {
        let records = Engine::with_workers(workers).run(&spec);
        let failed: Vec<u64> = records
            .iter()
            .filter(|r| r.outcome.is_failed())
            .map(|r| r.id)
            .collect();
        assert_eq!(failed, vec![4], "exactly job 4 fails at {workers} workers");
        match &records[4].outcome {
            Outcome::Failed {
                panicked, error, ..
            } => {
                assert!(!panicked, "an injected error is not a panic");
                assert_eq!(error, "injected fault at engine.execute_job");
            }
            other => panic!("expected a Failed row, got {other:?}"),
        }
    }
    na_faults::reset();
}

/// The poisoned-cache recovery contract, observed through the engine:
/// when the first claimant of a shared compile key panics mid-compile,
/// the claim is released, the second job compiles for real, and the
/// precomputed spec-order `cache_hit` flags do not flip.
#[test]
fn cache_hit_flags_survive_a_panicking_first_claimant() {
    let _serial = na_faults::exclusive();
    na_faults::reset();
    na_faults::arm_spec("engine.compile#job0=panic@1").unwrap();

    let engine = Engine::with_workers(1);
    // Two jobs sharing one compile key; serial execution pins job 0 as
    // the first claimant.
    let spec = compile_spec("chaos-claim", &[8, 8]);
    let records = engine.run(&spec);
    na_faults::reset();

    assert!(
        matches!(&records[0].outcome, Outcome::Failed { panicked: true, .. }),
        "job 0 must be the isolated panicking claimant"
    );
    assert!(
        !records[1].outcome.is_failed(),
        "the released claim lets job 1 compile the shared key"
    );
    // Flags are derived in spec order before execution; the panic must
    // not flip job 1's flag even though job 1 physically compiled.
    assert_eq!(records[0].cache_hit, Some(false));
    assert_eq!(records[1].cache_hit, Some(true));
    let stats = engine.cache_stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (0, 1),
        "one real compile, no memoized serves"
    );
}

/// The shard failure domain: a panic injected into exactly one shard
/// of a sharded campaign (via its `job<id>.shard<k>` scope) fails that
/// campaign's row typed-as-panicked while sibling jobs — including an
/// identical sharded campaign — stay fault-free, at any worker count.
#[test]
fn a_panicking_shard_fails_only_its_own_campaign_row() {
    let _serial = na_faults::exclusive();
    na_faults::reset();
    na_faults::arm_spec("engine.execute_job#job1.shard2=panic@1").unwrap();

    let sharded = |seed: u64| Task::ShardedCampaign {
        config: na_loss::CampaignConfig::new(4.0, na_loss::Strategy::VirtualRemap)
            .with_target(na_loss::ShotTarget::Attempts(30))
            .with_seed(seed),
        loss: na_engine::LossSpec::new(seed),
        shards: 4,
    };
    let mut spec = ExperimentSpec::new("chaos-shard", Grid::new(8, 8));
    for seed in 0..3u64 {
        spec.push(
            Benchmark::Bv,
            10,
            0,
            CompilerConfig::new(4.0),
            sharded(seed),
        );
    }
    for workers in [1usize, 4] {
        let records = Engine::with_workers(workers).run(&spec);
        assert_eq!(records.len(), 3);
        match &records[1].outcome {
            Outcome::Failed {
                panicked, error, ..
            } => {
                assert!(panicked, "the row must be typed as a panic");
                assert_eq!(error, "injected panic at engine.execute_job (hit 1)");
            }
            other => panic!("job 1 must fail, got {other:?}"),
        }
        for (i, record) in records.iter().enumerate() {
            assert!(
                i == 1 || !record.outcome.is_failed(),
                "job {i} must be isolated from job 1's shard panic"
            );
        }
    }
    na_faults::reset();
}

/// An already-spent budget fails each job at its first checkpoint with
/// a typed deadline row — not a panic, not a hang.
#[test]
fn zero_job_timeout_fails_jobs_typed() {
    let spec = compile_spec("chaos-deadline", &[8, 9]);
    let records = Engine::with_workers(2)
        .with_job_timeout(Duration::ZERO)
        .run(&spec);
    for record in &records {
        match &record.outcome {
            Outcome::Failed {
                deadline,
                panicked,
                error,
                ..
            } => {
                assert!(deadline, "the row must be typed as a deadline expiry");
                assert!(!panicked);
                assert_eq!(error, "job deadline exceeded");
            }
            other => panic!("expected a deadline row, got {other:?}"),
        }
    }
    // A generous budget changes nothing.
    let relaxed = Engine::with_workers(2)
        .with_job_timeout(Duration::from_secs(3600))
        .run(&spec);
    assert!(relaxed.iter().all(|r| !r.outcome.is_failed()));
}
