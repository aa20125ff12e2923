//! The no-perturbation contract of `na-telemetry::trace`, pinned end
//! to end: compiling, placing, and running loss campaigns with span
//! tracing enabled must produce **bit-identical** results to the same
//! work with tracing disabled. Tracing is strictly observational — it
//! draws no RNG and changes no float accumulation order — and this
//! test is the tripwire that keeps it that way.
//!
//! Two more tests export a sharded campaign: one reads it back through
//! the `na_telemetry::trace` codec and requires every event to come
//! back equal; the other parses it independently with `serde_json` and
//! pins its *shape*: valid JSON array, matched begin/end pairs,
//! monotone per-track timestamps, and per-shard child spans linked
//! (via `args.parent`) to their campaign job span.

use natoms::arch::Grid;
use natoms::benchmarks::Benchmark;
use natoms::compiler::{
    compile, initial_layout, placement_digest, schedule_digest, CompilerConfig,
};
use natoms::engine::{Engine, ExperimentSpec, LossSpec, Task};
use natoms::loss::{run_campaign, CampaignConfig, CampaignResult, LossModel, ShotTarget, Strategy};
use natoms::telemetry::trace;
use std::sync::Mutex;

/// Tracing state is process-global; the tests in this binary must
/// not interleave their enable/reset windows.
static GUARD: Mutex<()> = Mutex::new(());

/// One single-job compile experiment through the engine, returning its
/// row — the whole-job span path.
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

/// The workload both arms of the comparison run — the same pipeline the
/// telemetry guard pins, so the two observability layers are held to
/// the same standard.
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
    // Measured wall clock — the one legitimately nondeterministic
    // field; zero it so the rest compares exactly.
    recompile.ledger.recompile_time = 0.0;

    (compiles, reroute, recompile)
}

#[test]
fn tracing_on_and_off_produce_bit_identical_results() {
    let _guard = GUARD.lock().unwrap();

    trace::set_enabled(false);
    trace::reset();
    let (compiles_off, reroute_off, recompile_off) = pipeline_digests();
    let row_off = engine_compile_row();

    trace::set_enabled(true);
    trace::reset();
    let (compiles_on, reroute_on, recompile_on) = pipeline_digests();
    let row_on = engine_compile_row();
    let events = trace::take_events();
    trace::set_enabled(false);
    trace::reset();

    assert_eq!(
        compiles_off, compiles_on,
        "schedule/placement digests changed under tracing"
    );
    assert_eq!(
        reroute_off, reroute_on,
        "reroute campaign result changed under tracing"
    );
    assert_eq!(
        recompile_off, recompile_on,
        "recompile campaign result changed under tracing"
    );
    assert_eq!(
        row_off.outcome, row_on.outcome,
        "engine row outcome changed under tracing"
    );

    // The enabled arm must actually have recorded spans — otherwise
    // this test passes vacuously with dead tracing.
    assert!(!events.is_empty(), "no trace events on the enabled arm");
    assert!(
        events
            .iter()
            .any(|e| e.cat == "pass" && e.phase == trace::Phase::Begin),
        "no compile-pass spans recorded"
    );
    assert!(
        events.iter().any(|e| e.name == "job"),
        "no engine job span recorded"
    );
}

/// A compile-only sweep is a fan of one unit per job: each job traces
/// one `job` span, and no campaign span (`campaign_job`, `shard`,
/// `merge`) leaks into ordinary jobs.
#[test]
fn traced_compile_sweep_emits_only_job_spans() {
    let _guard = GUARD.lock().unwrap();
    trace::set_enabled(true);
    trace::reset();
    let mut spec = ExperimentSpec::new("trace-jobs", Grid::new(10, 10));
    for mid in [1.0, 3.0] {
        let cfg = CompilerConfig::new(mid).with_native_multiqubit(mid > 1.0);
        spec.push(Benchmark::Bv, 16, 0, cfg, Task::Compile);
    }
    let rows = Engine::with_workers(2).run(&spec);
    let events = trace::take_events();
    trace::set_enabled(false);
    trace::reset();

    assert!(rows.iter().all(|r| !r.outcome.is_failed()));
    let begins = |name: &str| {
        events
            .iter()
            .filter(|e| e.name == name && e.phase == trace::Phase::Begin)
            .count()
    };
    assert_eq!(begins("job"), 2, "one job span per job");
    for campaign_span in ["campaign_job", "shard", "merge"] {
        assert!(
            events.iter().all(|e| e.name != campaign_span),
            "a compile sweep traced a {campaign_span} span"
        );
    }
}

/// Runs a 2-shard campaign through the engine under tracing and
/// exports it: the events written and the file text.
fn traced_sharded_campaign() -> (Vec<trace::TraceEvent>, String) {
    let _guard = GUARD.lock().unwrap();
    trace::set_enabled(true);
    trace::reset();
    let mut spec = ExperimentSpec::new("trace-shape", Grid::new(10, 10));
    let config = CampaignConfig::new(4.0, Strategy::CompileSmallReroute)
        .with_target(ShotTarget::Attempts(40))
        .with_seed(7);
    spec.push(
        Benchmark::Bv,
        16,
        0,
        CompilerConfig::new(4.0),
        Task::ShardedCampaign {
            config,
            loss: LossSpec::new(3),
            shards: 2,
        },
    );
    let rows = Engine::with_workers(2).run(&spec);
    assert_eq!(rows.len(), 1);

    let mut buf = Vec::new();
    let written = trace::write_chrome_trace(&mut buf).expect("export succeeds");
    trace::set_enabled(false);
    trace::reset();
    (written, String::from_utf8(buf).expect("utf-8 export"))
}

/// The trace codec reads back exactly what it wrote: every event's
/// name, category, phase, track, span links, arguments, and timestamp
/// to the nanosecond.
#[test]
fn sharded_campaign_trace_round_trips() {
    let (written, text) = traced_sharded_campaign();
    assert!(written.iter().any(|e| e.name == "shard"), "no shard spans");
    let read = trace::read_chrome_trace(&text).expect("the export reads back");
    assert_eq!(read.len(), written.len());
    for (back, original) in read.iter().zip(&written) {
        assert_eq!(back, original);
    }
}

#[test]
fn sharded_campaign_trace_is_perfetto_shaped() {
    let (_, text) = traced_sharded_campaign();

    // Valid JSON array of event objects.
    let events: Vec<serde_json::Value> =
        serde_json::from_str(&text).expect("trace export parses as a JSON array");
    assert!(!events.is_empty(), "empty trace export");

    let str_of = |ev: &serde_json::Value, key: &str| {
        ev.get(key).and_then(|v| v.as_str()).map(str::to_string)
    };
    let u64_of = |ev: &serde_json::Value, key: &str| ev.get(key).and_then(|v| v.as_u64());
    let arg_u64 = |ev: &serde_json::Value, key: &str| {
        ev.get("args")
            .and_then(|args| args.get(key))
            .and_then(|v| v.as_u64())
    };

    // Matched begin/end pairs and monotone timestamps, per track.
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
    let mut last_ts: std::collections::BTreeMap<u64, f64> = Default::default();
    for ev in &events {
        let tid = u64_of(ev, "tid").expect("every event carries a tid");
        let ts = ev
            .get("ts")
            .and_then(|v| v.as_f64())
            .expect("every event carries a numeric ts");
        let prev = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
        assert!(
            ts >= *prev,
            "timestamps not monotone on tid {tid}: {ts} after {prev}"
        );
        *prev = ts;
        let name = str_of(ev, "name").expect("every event carries a name");
        match str_of(ev, "ph").as_deref() {
            Some("B") => stacks.entry(tid).or_default().push(name),
            Some("E") => {
                let open = stacks
                    .entry(tid)
                    .or_default()
                    .pop()
                    .unwrap_or_else(|| panic!("E {name:?} on tid {tid} with no open span"));
                assert_eq!(open, name, "mismatched begin/end nesting on tid {tid}");
            }
            Some("i") => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "unclosed spans on tid {tid}: {stack:?}");
    }

    // Span hierarchy: the campaign job span exists on its virtual job
    // track, and both shard spans (plus the merge span) point at it.
    let job_span = events
        .iter()
        .find(|ev| str_of(ev, "name").as_deref() == Some("campaign_job"))
        .expect("sharded campaign emits a campaign_job span");
    let job_id = arg_u64(job_span, "id").expect("campaign_job carries its span id");
    assert!(
        u64_of(job_span, "tid").expect("tid") >= trace::JOB_TRACK_BASE,
        "campaign job span must live on a virtual job track"
    );
    assert_eq!(arg_u64(job_span, "shards"), Some(2));
    let shard_begins: Vec<&serde_json::Value> = events
        .iter()
        .filter(|ev| {
            str_of(ev, "name").as_deref() == Some("shard")
                && str_of(ev, "ph").as_deref() == Some("B")
        })
        .collect();
    assert_eq!(shard_begins.len(), 2, "one span per shard");
    for shard in &shard_begins {
        assert_eq!(
            arg_u64(shard, "parent"),
            Some(job_id),
            "shard span not parented to the campaign job span"
        );
    }
    let merge = events
        .iter()
        .find(|ev| {
            str_of(ev, "name").as_deref() == Some("merge")
                && str_of(ev, "ph").as_deref() == Some("B")
        })
        .expect("last finisher records a merge span");
    assert_eq!(
        arg_u64(merge, "parent"),
        Some(job_id),
        "merge span not parented to the campaign job span"
    );
}
