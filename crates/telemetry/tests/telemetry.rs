//! na-telemetry contract tests: histogram bucket layout, percentile
//! extraction vs a brute-force reference, order-independent recorder
//! merging (including across threads), the disabled fast path, and
//! the one span feeding metrics and the trace under the same name.
//!
//! Tests that touch the process-global mode word or recorder
//! serialize on [`global_lock`] so they can run under the default
//! parallel test harness.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread;

use na_telemetry as tel;
use na_telemetry::trace::{self, Phase};
use na_telemetry::{Counter, Gauge, Histogram, MetricsSnapshot, Recorder, Span};

/// Serializes tests that mutate the global state.
fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------- histogram

#[test]
fn bucket_layout_is_contiguous_and_total() {
    // Every bucket's upper bound is the next bucket's lower bound, and
    // bucket 0 starts at value 0.
    assert_eq!(Histogram::bucket_bounds(0).0, 0);
    for i in 0..tel::NUM_BUCKETS - 1 {
        let (lo, hi) = Histogram::bucket_bounds(i);
        assert!(lo < hi, "bucket {i} is empty: [{lo}, {hi})");
        assert_eq!(
            hi,
            Histogram::bucket_bounds(i + 1).0,
            "gap between buckets {i} and {}",
            i + 1
        );
    }
    // The last bucket reaches the top of the u64 range.
    let (lo, hi) = Histogram::bucket_bounds(tel::NUM_BUCKETS - 1);
    assert!(lo < hi);
    assert_eq!(hi, u64::MAX);
}

#[test]
fn bucket_index_matches_bounds_across_the_range() {
    // For a spread of values (all octaves, plus boundary neighbours),
    // the value must land inside its own bucket's bounds.
    let mut values = vec![0u64, 1, 2, 7, 8, 9, 15, 16, 17];
    for shift in 4..63 {
        let v = 1u64 << shift;
        values.extend([v - 1, v, v + 1, v + (v >> 1)]);
    }
    values.push(u64::MAX);
    for &v in &values {
        let idx = Histogram::bucket_index(v);
        let (lo, hi) = Histogram::bucket_bounds(idx);
        let inside = lo <= v && (v < hi || (v == u64::MAX && hi == u64::MAX));
        assert!(inside, "value {v} -> bucket {idx} [{lo}, {hi})");
    }
}

#[test]
fn small_values_are_exact() {
    let mut h = Histogram::new();
    for v in 0..tel::LINEAR_LIMIT {
        h.record(v);
    }
    for v in 0..tel::LINEAR_LIMIT {
        assert_eq!(Histogram::bucket_index(v), v as usize);
    }
    assert_eq!(h.count(), tel::LINEAR_LIMIT);
    assert_eq!(h.min(), 0);
    assert_eq!(h.max(), tel::LINEAR_LIMIT - 1);
}

/// Deterministic xorshift so the reference data needs no external RNG.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

#[test]
fn percentiles_match_brute_force_reference() {
    // Mixed-magnitude sample set: exact small values, microsecond- and
    // millisecond-scale values, and a heavy tail.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut samples: Vec<u64> = Vec::new();
    for i in 0..5000u64 {
        let r = xorshift(&mut state);
        let v = match i % 4 {
            0 => r % 8,                         // linear range
            1 => 1_000 + r % 50_000,            // tens of microseconds
            2 => 1_000_000 + r % 20_000_000,    // milliseconds
            _ => 100_000_000 + r % 900_000_000, // heavy tail
        };
        samples.push(v);
    }

    let mut h = Histogram::new();
    for &v in &samples {
        h.record(v);
    }
    let mut sorted = samples.clone();
    sorted.sort_unstable();

    assert_eq!(h.count(), samples.len() as u64);
    assert_eq!(h.min(), sorted[0]);
    assert_eq!(h.max(), *sorted.last().unwrap());

    for &q in &[0.0, 0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999, 1.0] {
        // Same nearest-rank rule as the histogram.
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        let estimate = h.percentile(q);
        // The estimate must land in the exact value's bucket, which
        // bounds the relative error by the bucket width (<= 12.5%).
        assert_eq!(
            Histogram::bucket_index(estimate),
            Histogram::bucket_index(exact),
            "q={q}: estimate {estimate} not in exact value {exact}'s bucket"
        );
        let (lo, hi) = Histogram::bucket_bounds(Histogram::bucket_index(exact));
        let err = estimate.abs_diff(exact);
        assert!(
            err < hi - lo,
            "q={q}: |{estimate} - {exact}| = {err} exceeds bucket width {}",
            hi - lo
        );
    }
}

#[test]
fn single_value_percentiles_are_exact() {
    let mut h = Histogram::new();
    h.record(123_456_789);
    for &q in &[0.0, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(h.percentile(q), 123_456_789);
    }
    assert_eq!(Histogram::new().percentile(0.5), 0);
}

// ------------------------------------------------------------------ merging

/// Builds a recorder with data derived deterministically from `seed`.
fn scripted_recorder(seed: u64) -> Recorder {
    let mut r = Recorder::new();
    let mut state = seed | 1;
    for _ in 0..200 {
        let v = xorshift(&mut state);
        r.record_ns(Span::Place, v % 10_000_000);
        r.record_ns(Span::RouteSchedule, v % 50_000_000);
        if v.is_multiple_of(3) {
            r.record_ns(Span::LossFixup, v % 400_000);
        }
        r.add(Counter::CompileCacheHits, v % 5);
        r.add(Counter::OpsScheduled, v % 97);
        r.gauge_max(Gauge::CompileCacheEntries, v % 1000);
    }
    r
}

#[test]
fn merge_is_order_independent_serial() {
    let recorders: Vec<Recorder> = (1..=8)
        .map(|i| scripted_recorder(i * 0x1234_5678))
        .collect();

    let mut forward = Recorder::new();
    for r in &recorders {
        forward.merge_from(r);
    }
    let mut backward = Recorder::new();
    for r in recorders.iter().rev() {
        backward.merge_from(r);
    }
    let snapshot = |r: &Recorder| MetricsSnapshot::of(r, true);
    assert_eq!(snapshot(&forward), snapshot(&backward));
    assert!(!snapshot(&forward).is_empty());
}

#[test]
fn concurrent_merge_equals_serial_merge() {
    const THREADS: u64 = 8;

    // Serial reference: merge in index order.
    let mut serial = Recorder::new();
    for i in 1..=THREADS {
        serial.merge_from(&scripted_recorder(i));
    }

    // Concurrent: N threads each build the same scripted recorder and
    // merge it whenever the scheduler lets them.
    let concurrent = Mutex::new(Recorder::new());
    thread::scope(|scope| {
        for i in 1..=THREADS {
            let merged = &concurrent;
            scope.spawn(move || merged.lock().unwrap().merge_from(&scripted_recorder(i)));
        }
    });

    let lhs = MetricsSnapshot::of(&serial, true);
    let rhs = MetricsSnapshot::of(&concurrent.into_inner().unwrap(), true);
    assert_eq!(lhs, rhs);
    assert_eq!(lhs.counter("ops_scheduled"), rhs.counter("ops_scheduled"));
    assert!(lhs.stage("place").is_some());
}

// -------------------------------------------------------------- global API

#[test]
fn disabled_registry_records_nothing() {
    let _guard = global_lock();
    tel::reset();
    tel::set_enabled(false);

    {
        let _span = tel::span(Span::Place);
        tel::add(Counter::Compiles, 10);
        tel::gauge_max(Gauge::EngineWorkers, 32);
        tel::record_ns(Span::RouteSchedule, 1_000_000);
    }
    let snap = tel::snapshot();
    assert!(snap.is_empty(), "disabled registry captured data: {snap:?}");
    assert!(!snap.enabled);
}

#[test]
fn worker_threads_flush_into_global_snapshot() {
    let _guard = global_lock();
    tel::reset();
    tel::set_enabled(true);

    thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for i in 0..50u64 {
                    tel::record_ns(Span::RouteSchedule, 1_000 + i);
                    tel::add(Counter::ShotsAttempted, 1);
                }
                tel::flush_local();
            });
        }
    });

    let snap = tel::snapshot();
    tel::set_enabled(false);
    tel::reset();

    assert_eq!(snap.counter("shots_attempted"), 200);
    let sched = snap
        .stage("route_schedule")
        .expect("route_schedule span present");
    assert_eq!(sched.count, 200);
    assert!(sched.p50_ns >= 1_000);
    assert!(sched.max_ns <= 1_049 + 1_049 / 8); // bucket quantisation headroom
}

#[test]
fn stage_marks_capture_per_job_deltas() {
    let _guard = global_lock();
    tel::reset();
    tel::set_enabled(true);

    tel::record_ns(Span::Place, 500);
    let mark = tel::mark();
    tel::record_ns(Span::Place, 1_000);
    tel::record_ns(Span::RouteSchedule, 2_000);
    let deltas = mark.deltas();

    tel::set_enabled(false);
    tel::reset();

    let expected: BTreeMap<String, u64> = [
        ("place".to_string(), 1_000),
        ("route_schedule".to_string(), 2_000),
    ]
    .into_iter()
    .collect();
    assert_eq!(deltas, expected);
}

#[test]
fn snapshot_round_trips_through_json() {
    let snap = MetricsSnapshot::of(&scripted_recorder(42), true);
    let json = serde_json::to_string(&snap).unwrap();
    let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(snap, back);
    assert_eq!(back.schema, tel::SNAPSHOT_SCHEMA);
}

// -------------------------------------------------------------- one span

/// Runs `work` with metrics and tracing set as given, returning the
/// metrics snapshot and the trace events it produced.
fn observe(
    metrics: bool,
    tracing: bool,
    work: impl FnOnce(),
) -> (MetricsSnapshot, Vec<trace::TraceEvent>) {
    tel::reset();
    trace::reset();
    tel::set_enabled(metrics);
    trace::set_enabled(tracing);
    work();
    let snap = tel::snapshot();
    let events = trace::take_events();
    tel::set_enabled(false);
    trace::set_enabled(false);
    tel::reset();
    trace::reset();
    (snap, events)
}

#[test]
fn one_span_feeds_one_sample_and_one_trace_pair() {
    let _guard = global_lock();
    let mut id = 0;
    let (snap, events) = observe(true, true, || {
        let span = tel::span(Span::RouteSchedule);
        id = span.id();
        span.end();
    });
    assert_ne!(id, 0, "a traced span carries an id");
    let stage = snap.stage("route_schedule").expect("one histogram sample");
    assert_eq!(stage.count, 1);
    assert_eq!(snap.stages.len(), 1);
    assert_eq!(events.len(), 2, "one begin/end pair: {events:?}");
    assert!(events
        .iter()
        .all(|e| e.name == "route_schedule" && e.id == id));
    assert_eq!(events[0].phase, Phase::Begin);
    assert_eq!(events[1].phase, Phase::End);
    // The histogram sample and the trace pair come from the same two
    // clock reads.
    assert_eq!(events[1].ts_ns - events[0].ts_ns, stage.total_ns);
}

#[test]
fn span_is_inert_with_metrics_and_tracing_off() {
    let _guard = global_lock();
    let mut id = u64::MAX;
    let mut ns = u64::MAX;
    let (snap, events) = observe(false, false, || {
        let span = tel::span(Span::Job);
        id = span.id();
        ns = span.end();
    });
    assert_eq!((id, ns), (0, 0));
    assert!(snap.is_empty(), "inert span recorded: {snap:?}");
    assert!(events.is_empty(), "inert span traced: {events:?}");
}

#[test]
fn metrics_only_names_record_a_sample_but_no_trace_event() {
    let _guard = global_lock();
    let (snap, events) = observe(true, true, || {
        let shot = tel::span(Span::Shot);
        assert_eq!(shot.id(), 0, "shot is metrics-only");
        drop(shot);
    });
    assert!(!Span::Shot.traced());
    assert_eq!(snap.stage("shot").map(|s| s.count), Some(1));
    assert!(events.is_empty(), "metrics-only span traced: {events:?}");
}

#[test]
fn timed_span_returns_its_duration_with_telemetry_off() {
    let _guard = global_lock();
    let mut ns = 0;
    let (snap, events) = observe(false, false, || {
        let span = tel::span_timed(Span::Recompile);
        thread::sleep(std::time::Duration::from_millis(1));
        ns = span.end();
    });
    assert!(ns >= 1_000_000, "timed span measured {ns} ns");
    assert!(snap.is_empty() && events.is_empty());
}

#[test]
fn paused_span_records_its_running_stretches_as_one_sample() {
    let _guard = global_lock();
    let (snap, _) = observe(true, false, || {
        let mut route = tel::span_paused(Span::Route);
        for _ in 0..3 {
            route.resume();
            route.pause();
        }
    });
    assert_eq!(snap.stage("route").map(|s| s.count), Some(1));
}
