//! Engine acceptance tests: cache semantics, parallel-vs-serial
//! determinism, and agreement with direct (pre-engine) computation.

use na_benchmarks::Benchmark;
use na_core::{compile, CompilerConfig};
use na_engine::{paper, write_records, Engine, ExperimentSpec, JsonlSink, Outcome, Task};
use na_noise::NoiseParams;

/// The acceptance sweep: ≥3 benchmarks × the paper MID set, run with
/// ≥4 workers, must produce byte-identical JSONL rows to a
/// single-threaded run of the same spec.
#[test]
fn parallel_and_serial_runs_are_byte_identical() {
    let benchmarks = [Benchmark::Bv, Benchmark::Cnu, Benchmark::Qaoa];
    let mids = paper::paper_mids();
    let mut spec = ExperimentSpec::new("acceptance", paper::paper_grid());
    spec.sweep(&benchmarks, &[16, 24], &mids, |_, _, mid| {
        Some((paper::two_qubit_cfg(mid), Task::Compile))
    });
    // Mix in tasks that involve the noise model and per-job RNG.
    for b in benchmarks {
        spec.push(
            b,
            16,
            0,
            CompilerConfig::new(3.0),
            Task::Success {
                params: NoiseParams::neutral_atom(1e-3),
            },
        );
        spec.push(
            b,
            16,
            0,
            CompilerConfig::new(4.0),
            Task::LossTrace {
                strategy: na_loss::Strategy::VirtualRemap,
                max_holes: 6,
                params: NoiseParams::neutral_atom(1e-3),
                seed: 77,
            },
        );
    }
    assert!(spec.len() >= 3 * mids.len());

    let jsonl = |workers: usize| {
        let mut sink = JsonlSink::new(Vec::new());
        write_records(&Engine::with_workers(workers).run(&spec), &mut sink)
            .expect("in-memory sink");
        sink.into_inner()
    };
    let serial = jsonl(1);
    let parallel = jsonl(4);
    assert_eq!(
        serial, parallel,
        "4-worker rows must match 1-worker rows byte for byte"
    );
    // And repeating the parallel run is stable too.
    assert_eq!(parallel, jsonl(4));
}

/// The cache counter proves repeated (circuit, grid, config) points
/// are served from memory: pricing one compilation at many error
/// points compiles exactly once.
#[test]
fn repeated_points_hit_the_compilation_cache() {
    let engine = Engine::with_workers(4);
    let mut spec = ExperimentSpec::new("cache", paper::paper_grid());
    let errors = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1];
    for b in [Benchmark::Bv, Benchmark::Cnu, Benchmark::Cuccaro] {
        for e in errors {
            spec.push(
                b,
                20,
                0,
                CompilerConfig::new(3.0),
                Task::Success {
                    params: NoiseParams::neutral_atom(e),
                },
            );
        }
    }
    let records = engine.run(&spec);
    assert_eq!(records.len(), 3 * errors.len());
    assert!(records.iter().all(|r| !r.outcome.is_failed()));

    let stats = engine.cache_stats();
    assert_eq!(
        stats.misses, 3,
        "three distinct (circuit, grid, config) points => three compiles"
    );
    assert_eq!(
        stats.hits,
        (3 * errors.len()) as u64 - 3,
        "every other lookup must be served from the cache"
    );
    assert_eq!(stats.entries, 3);

    // All records of one benchmark priced the *same* compilation.
    let bv: Vec<_> = records.iter().filter(|r| r.benchmark == "BV").collect();
    assert!(bv
        .windows(2)
        .all(|w| w[0].compiled_metrics() == w[1].compiled_metrics()));
}

/// Smoke test: the engine's rows agree with the direct computation a
/// fig bin used to inline (Fig. 3's gate counts, here a small slice).
#[test]
fn engine_rows_match_pre_engine_computation() {
    let grid = paper::paper_grid();
    let mids = [1.0, 3.0, 8.0];
    let sizes = [10u32, 30];

    let mut spec = ExperimentSpec::new("fig03-slice", grid.clone());
    spec.sweep(&[Benchmark::Bv], &sizes, &mids, |_, _, mid| {
        Some((paper::two_qubit_cfg(mid), Task::Compile))
    });
    let records = Engine::with_workers(4).run(&spec);

    let mut i = 0;
    for &size in &sizes {
        for &mid in &mids {
            // The pre-engine harness loop, verbatim.
            let circuit = Benchmark::Bv.generate(size, 0);
            let direct = compile(&circuit, &grid, &paper::two_qubit_cfg(mid))
                .expect("direct compile")
                .metrics();
            let record = &records[i];
            assert_eq!(record.mid, mid);
            assert_eq!(record.size, size);
            let engine_metrics = record.compiled_metrics().expect("compiled row");
            assert_eq!(
                engine_metrics, &direct,
                "BV size {size} MID {mid}: engine row disagrees with direct compile"
            );
            i += 1;
        }
    }
}

/// Loss-tolerance rows agree with calling the loss crate directly.
#[test]
fn tolerance_rows_match_direct_call() {
    let grid = paper::paper_grid();
    let program = Benchmark::Cuccaro.generate(20, 0);
    let (direct_mean, direct_std) = na_loss::mean_loss_tolerance(
        &program,
        &grid,
        4.0,
        na_loss::Strategy::VirtualRemap,
        3,
        500,
    )
    .expect("direct tolerance");

    let mut spec = ExperimentSpec::new("tolerance", grid);
    spec.push(
        Benchmark::Cuccaro,
        20,
        0,
        CompilerConfig::new(4.0),
        Task::Tolerance {
            strategy: na_loss::Strategy::VirtualRemap,
            trials: 3,
            seed: 500,
        },
    );
    let records = Engine::with_workers(2).run(&spec);
    match &records[0].outcome {
        Outcome::Tolerance { mean, std, trials } => {
            assert_eq!(*trials, 3);
            assert_eq!(*mean, direct_mean);
            assert_eq!(*std, direct_std);
        }
        other => panic!("expected Tolerance outcome, got {other:?}"),
    }
}

/// Campaign shot statistics are deterministic in the spec (wall-clock
/// overhead fields vary; the drawn statistics must not).
#[test]
fn campaign_statistics_are_deterministic() {
    let mut spec = ExperimentSpec::new("campaign", paper::paper_grid());
    let config = na_loss::CampaignConfig::new(4.0, na_loss::Strategy::VirtualRemap)
        .with_target(na_loss::ShotTarget::Attempts(60))
        .with_two_qubit_error(1e-3)
        .with_seed(9);
    spec.push(
        Benchmark::Cnu,
        20,
        0,
        CompilerConfig::new(4.0),
        Task::Campaign {
            config,
            loss: na_engine::LossSpec::new(9),
        },
    );
    let a = Engine::with_workers(2).run(&spec);
    let b = Engine::with_workers(1).run(&spec);
    match (&a[0].outcome, &b[0].outcome) {
        (Outcome::Campaign(ra), Outcome::Campaign(rb)) => {
            assert_eq!(ra.shots_attempted, rb.shots_attempted);
            assert_eq!(ra.shots_successful, rb.shots_successful);
            assert_eq!(ra.discarded_by_loss, rb.discarded_by_loss);
            assert_eq!(ra.failed_by_noise, rb.failed_by_noise);
            assert_eq!(ra.ledger.reloads, rb.ledger.reloads);
            assert_eq!(ra.shots_between_reloads, rb.shots_between_reloads);
        }
        other => panic!("expected Campaign outcomes, got {other:?}"),
    }
}
