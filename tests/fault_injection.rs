//! The chaos suite: deterministic fault injection through every
//! planted failpoint site, at several worker counts.
//!
//! The failure-domain contract under test:
//!
//! * the process survives every injected panic/error/delay — a fault
//!   in one job becomes that job's typed `Failed` row;
//! * failed rows are deterministic (same bytes at 1, 2, or 8 workers);
//! * every *other* row is bit-identical to a fault-free golden run;
//! * a panicking compile-cache claimant releases its claim — later
//!   requesters of the key make progress in bounded time instead of
//!   deadlocking on a poisoned entry;
//! * deadline extremes behave: a zero budget fails every job typed, a
//!   generous budget changes nothing.
//!
//! Fault plans are process-global, so every test here serializes
//! through [`faults::exclusive`] and disarms with [`faults::reset`].

use natoms::arch::Grid;
use natoms::benchmarks::Benchmark;
use natoms::compiler::CompilerConfig;
use natoms::engine::{
    write_records, Engine, ExperimentSpec, JsonlSink, LossSpec, Outcome, RunRecord, Task,
};
use natoms::faults;
use natoms::loss::{CampaignConfig, ShotTarget, Strategy};
use std::time::Duration;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// A spec exercising every failpoint site: four compile jobs (ids
/// 0..=3, distinct keys) and two campaign replicas (ids 4 and 5, one
/// shared compile key) whose shot loops hit `loss.shot`.
fn mixed_spec() -> ExperimentSpec {
    let mut spec = ExperimentSpec::new("chaos", Grid::new(8, 8));
    for size in [8u32, 10, 12, 14] {
        spec.push(
            Benchmark::Bv,
            size,
            0,
            CompilerConfig::new(3.0),
            Task::Compile,
        );
    }
    for seed in [1u64, 2] {
        spec.push(
            Benchmark::Bv,
            10,
            0,
            CompilerConfig::new(4.0),
            Task::Campaign {
                config: CampaignConfig::new(4.0, Strategy::VirtualRemap)
                    .with_target(ShotTarget::Attempts(30))
                    .with_seed(seed),
                loss: LossSpec::new(seed),
            },
        );
    }
    spec
}

fn run_jsonl(spec: &ExperimentSpec, workers: usize) -> (Vec<RunRecord>, Vec<String>) {
    let records = Engine::with_workers(workers).run(spec);
    let lines = render(&records);
    (records, lines)
}

/// The records' JSONL rows, one string per line.
fn render(records: &[RunRecord]) -> Vec<String> {
    let mut sink = JsonlSink::new(Vec::new());
    write_records(records, &mut sink).expect("in-memory sink never fails");
    let text = String::from_utf8(sink.into_inner()).expect("rows are UTF-8");
    text.lines().map(str::to_owned).collect()
}

#[test]
fn every_failpoint_site_is_survivable_and_deterministic() {
    let _serial = faults::exclusive();
    faults::reset();
    let spec = mixed_spec();

    // Fault-free golden: faults linked but disarmed, identical rows at
    // any worker count, nothing failed.
    let (golden_records, golden) = run_jsonl(&spec, 1);
    assert!(golden_records.iter().all(|r| !r.outcome.is_failed()));
    for workers in [2usize, 8] {
        assert_eq!(
            golden,
            run_jsonl(&spec, workers).1,
            "golden determinism at {workers} workers"
        );
    }

    // One plan per site/action pair; `target` is the only row allowed
    // to differ from golden.
    let cases = [
        ("engine.execute_job#job1=panic@1", 1usize),
        ("engine.compile#job3=error@1", 3),
        ("loss.shot#job5=error@3", 5),
        ("loss.shot#job4=panic@2", 4),
        ("engine.execute_job#job0=delay:20", usize::MAX), // delay: no row fails
    ];
    for (plan, target) in cases {
        let mut renders: Vec<Vec<String>> = Vec::new();
        for workers in WORKER_COUNTS {
            faults::reset();
            faults::arm_spec(plan).unwrap();
            let (records, lines) = run_jsonl(&spec, workers);
            faults::reset();
            for (i, (record, (line, gold))) in
                records.iter().zip(lines.iter().zip(&golden)).enumerate()
            {
                if i == target {
                    assert!(
                        record.outcome.is_failed(),
                        "{plan} at {workers} workers must fail row {target}"
                    );
                } else {
                    assert!(!record.outcome.is_failed());
                    assert_eq!(line, gold, "{plan} at {workers} workers perturbed row {i}");
                }
            }
            renders.push(lines);
        }
        assert_eq!(renders[0], renders[1], "{plan}: 1 vs 2 workers");
        assert_eq!(renders[1], renders[2], "{plan}: 2 vs 8 workers");
    }
}

/// Injected failures carry their type in the row, not just a message.
#[test]
fn injected_failures_are_typed_in_their_rows() {
    let _serial = faults::exclusive();
    faults::reset();
    let spec = mixed_spec();

    faults::arm_spec("engine.execute_job#job1=panic@1; loss.shot#job5=error@1").unwrap();
    let (records, _) = run_jsonl(&spec, 2);
    faults::reset();

    match &records[1].outcome {
        Outcome::Failed {
            panicked,
            deadline,
            error,
            ..
        } => {
            assert!(panicked);
            assert!(!deadline);
            assert_eq!(error, "injected panic at engine.execute_job (hit 1)");
        }
        other => panic!("expected a panic row, got {other:?}"),
    }
    match &records[5].outcome {
        Outcome::Failed {
            panicked, error, ..
        } => {
            assert!(!panicked);
            assert_eq!(error, "injected fault at loss.shot");
        }
        other => panic!("expected an injected-error row, got {other:?}"),
    }
}

/// The sink failpoint takes the same typed path a real I/O error
/// would: the write stops at the failing record, and the error is not
/// mistaken for a broken pipe.
#[test]
fn sink_write_failpoint_surfaces_as_typed_sink_error() {
    let _serial = faults::exclusive();
    faults::reset();
    let spec = mixed_spec();
    let records = Engine::with_workers(2).run(&spec);

    faults::arm_spec("engine.sink.write#emit=error@2").unwrap();
    let err = {
        let _scope = faults::scope("emit");
        let mut sink = JsonlSink::new(Vec::new());
        let err = write_records(&records, &mut sink).unwrap_err();
        let written = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(
            written.lines().count(),
            1,
            "exactly the pre-fault record is on disk"
        );
        err
    };
    faults::reset();
    assert!(!err.is_broken_pipe());
    assert!(err
        .to_string()
        .contains("injected fault at engine.sink.write"));
}

/// The anti-deadlock watchdog: after a claimant panics mid-compile,
/// re-requesting the same key must complete in bounded time (the claim
/// was released to Vacant and the waiters were woken) — the scenario
/// that wedged a bare `OnceLock` design forever.
#[test]
fn panicked_claimant_does_not_deadlock_the_cache() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _serial = faults::exclusive();
        faults::reset();
        faults::arm_spec("engine.compile#job0=panic@1").unwrap();
        // Two jobs sharing one compile key, run serially so job 0 is
        // deterministically the first (panicking) claimant.
        let mut spec = ExperimentSpec::new("watchdog", Grid::new(6, 6));
        for _ in 0..2 {
            spec.push(Benchmark::Bv, 8, 0, CompilerConfig::new(3.0), Task::Compile);
        }
        let records = Engine::with_workers(1).run(&spec);
        faults::reset();
        let ok = records[0].outcome.is_failed() && !records[1].outcome.is_failed();
        tx.send(ok).unwrap();
    });
    let ok = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("cache re-request deadlocked after a claimant panic");
    assert!(ok, "job 0 fails isolated, job 1 compiles the released key");
}

/// Deadline extremes: an already-expired budget fails every job with a
/// typed row at any worker count; a generous budget is bit-identical
/// to no budget at all.
#[test]
fn deadline_extremes_are_typed_and_nonperturbing() {
    let _serial = faults::exclusive();
    faults::reset();
    let spec = mixed_spec();

    let mut renders = Vec::new();
    for workers in WORKER_COUNTS {
        let records = Engine::with_workers(workers)
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
                    assert!(*deadline && !panicked);
                    assert_eq!(error, "job deadline exceeded");
                }
                other => panic!("expected a deadline row, got {other:?}"),
            }
        }
        renders.push(render(&records));
    }
    assert_eq!(renders[0], renders[1]);
    assert_eq!(renders[1], renders[2]);

    let (_, golden) = run_jsonl(&spec, 2);
    let records = Engine::with_workers(2)
        .with_job_timeout(Duration::from_secs(3600))
        .run(&spec);
    assert_eq!(
        render(&records),
        golden,
        "a generous budget must not perturb a single byte"
    );
}
