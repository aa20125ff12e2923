//! `na-telemetry`: zero-dependency structured instrumentation.
//!
//! One timing primitive — the named RAII [`Span`] — plus monotonic
//! counters, high-watermark gauges, and log-scale latency histograms
//! for the natoms pipeline. The design has one hard contract:
//! **instrumentation is strictly observational**. It draws no RNG,
//! changes no float accumulation order, and with metrics and tracing
//! both off (the default) every event site costs a single relaxed
//! atomic load and branch — so all golden digests (schedules,
//! placements, campaigns) are byte-identical with telemetry on or off.
//!
//! # Model
//!
//! - One **mode word** gates everything: a metrics bit
//!   ([`set_enabled`]) and a tracing bit ([`trace::set_enabled`]).
//! - A span samples the mode when it opens and, when it ends, feeds
//!   its one duration to every consumer that is on: the name's
//!   histogram (metrics), a begin/end pair in the trace (tracing, for
//!   [traced](Span::traced) names), and the caller
//!   ([`OpenSpan::end`]).
//! - Events are recorded into a **thread-local [`Recorder`]** with
//!   plain array arithmetic — no locks on the hot path. Engine workers
//!   call [`flush_local`] before they join; [`snapshot`] flushes the
//!   calling thread implicitly.
//! - Flushed recorders merge into one global recorder. Counter
//!   addition, gauge max, and bucketwise histogram addition are all
//!   commutative and associative, so the merged result is independent
//!   of worker scheduling and join order.
//! - [`snapshot`] produces a serde-serializable [`MetricsSnapshot`]
//!   with per-span p50/p90/p99 latency extracted from the histograms;
//!   [`mark`]/[`Mark::deltas`] carve one job's per-span totals out of
//!   its thread's recorder.
//! - The [`trace`] module keeps the timeline and is the one codec of
//!   its Chrome trace-event export: it writes the file, reads it back
//!   into the same events, and renders the `natoms trace` summary.
//!
//! # Usage
//!
//! ```
//! use na_telemetry as tel;
//!
//! tel::set_enabled(true);
//! {
//!     let _span = tel::span(tel::Span::Place); // RAII: records on drop
//!     // ... placement work ...
//! }
//! let ns = tel::span_timed(tel::Span::Verify).end(); // duration back
//! tel::add(tel::Counter::CompileCacheMisses, 1);
//! let snap = tel::snapshot();
//! assert_eq!(snap.counter("compile_cache_misses"), 1);
//! assert_eq!(snap.stage("place").map(|s| s.count), Some(1));
//! assert_eq!(snap.stage("verify").map(|s| s.total_ns), Some(ns));
//! tel::reset();
//! tel::set_enabled(false);
//! ```

/// Declares a dense telemetry key enum: its variants with their
/// stable snake_case names (the snapshot keys), `COUNT`, `ALL` in
/// declaration order, and `index` for array storage.
macro_rules! keys {
    ($(#[$doc:meta])* pub enum $ty:ident {
        $($(#[$vdoc:meta])* $var:ident => $name:literal,)*
    }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $ty {
            $($(#[$vdoc])* $var,)*
        }

        impl $ty {
            /// Number of keys.
            pub const COUNT: usize = [$($name),*].len();
            /// All keys, in declaration (snapshot) order.
            pub const ALL: [$ty; $ty::COUNT] = [$($ty::$var),*];

            /// Dense index for array storage.
            #[inline]
            pub const fn index(self) -> usize {
                self as usize
            }

            /// Stable snake_case name used in snapshots.
            pub const fn name(self) -> &'static str {
                match self {
                    $($ty::$var => $name,)*
                }
            }
        }
    };
}

mod clock;
mod histogram;
mod recorder;
mod snapshot;
mod span;
pub mod trace;

pub use histogram::{Histogram, LINEAR_LIMIT, NUM_BUCKETS};
pub use recorder::Recorder;
pub use snapshot::{fmt_ns, MetricsSnapshot, StageSummary, SNAPSHOT_SCHEMA};
pub use span::{span, span_detached, span_paused, span_timed, span_with, OpenSpan, Span};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// The mode word: which consumers are on. One relaxed load of it is
/// the whole cost of a disabled site.
static MODE: AtomicU8 = AtomicU8::new(0);
/// Mode bit: metrics collection (histograms, counters, gauges).
const METRICS: u8 = 1;
/// Mode bit: span tracing.
const TRACE: u8 = 2;

#[inline]
fn mode() -> u8 {
    MODE.load(Ordering::Relaxed)
}

fn set_mode_bit(bit: u8, on: bool) {
    if on {
        MODE.fetch_or(bit, Ordering::Relaxed);
    } else {
        MODE.fetch_and(!bit, Ordering::Relaxed);
    }
}

keys! {
    /// Monotonic event counters.
    pub enum Counter {
        /// Full compiler pipeline runs.
        Compiles => "compiles",
        /// Compile-cache lookups served from a memoized entry.
        CompileCacheHits => "compile_cache_hits",
        /// Compile-cache lookups that ran the compiler.
        CompileCacheMisses => "compile_cache_misses",
        /// Artifact-store placement reuses across MID points.
        ArtifactHits => "artifact_hits",
        /// Scheduled operations emitted across all compiles.
        OpsScheduled => "ops_scheduled",
        /// Lookahead-weight rebuilds: the scheduler's, plus each
        /// program's time-zero build.
        WeightRebuilds => "weight_rebuilds",
        /// Gates placed in a lookahead window, summed over rebuilds.
        LookaheadGatesVisited => "lookahead_gates_visited",
        /// Ready long-distance gates the scheduler sought a routing
        /// SWAP for, skipped searches included.
        SwapSearches => "swap_searches",
        /// SWAP searches skipped because a claimed restriction zone
        /// blocks every operand's site, so no move could be claimed.
        SwapSearchesBlocked => "swap_searches_blocked",
        /// SWAP candidates whose score the router computed.
        SwapCandidatesScored => "swap_candidates_scored",
        /// SWAP candidates skipped because their score bound cannot
        /// beat the search's running best.
        SwapCandidatesPruned => "swap_candidates_pruned",
        /// SWAP searches whose move the scheduler dropped because its
        /// restriction zone could not be claimed.
        SwapSearchesDiscarded => "swap_searches_discarded",
        /// Program artifacts (DAG, operands, time-zero weights) built
        /// from a lowered circuit.
        ProgramBuilds => "program_builds",
        /// Routings stopped as stuck because the router's state
        /// repeated with no gate completed in between.
        RoutingCycles => "routing_cycles",
        /// Loss-campaign shots attempted.
        ShotsAttempted => "shots_attempted",
        /// Atom losses drawn across all shots.
        LossesDrawn => "losses_drawn",
        /// Array shifts / remaps applied after losses.
        Remaps => "remaps",
        /// SWAP-fixup searches run after remaps.
        Fixups => "fixups",
        /// BFS node expansions spent inside fixup searches.
        FixupBfsExpansions => "fixup_bfs_expansions",
        /// Neighbor sites tested by the distance-2 lens shortcut of
        /// fixup searches (not BFS visits).
        FixupLensProbes => "fixup_lens_probes",
        /// Full recompilations triggered by losses.
        Recompiles => "recompiles",
        /// Array reloads (campaign strategy gave up on the shot state).
        Reloads => "reloads",
        /// Engine jobs that produced a `Failed` row (any cause).
        JobsFailed => "jobs_failed",
        /// Engine jobs whose panic was caught and isolated into a row.
        JobsPanicked => "jobs_panicked",
        /// Engine jobs that ran out of their cooperative deadline budget.
        DeadlinesExceeded => "deadlines_exceeded",
        /// Campaign shards executed (sharded fan-out across the pool).
        CampaignShards => "campaign_shards",
    }
}

keys! {
    /// High-watermark gauges (merged by `max`).
    pub enum Gauge {
        /// Distinct fingerprints resident in the compile cache.
        CompileCacheEntries => "compile_cache_entries",
        /// Worker threads the engine ran with.
        EngineWorkers => "engine_workers",
    }
}

/// The merged state of every flushed thread-local recorder.
static GLOBAL: Mutex<Recorder> = Mutex::new(Recorder::new());

thread_local! {
    static LOCAL: RefCell<Recorder> = const { RefCell::new(Recorder::new()) };
}

/// Whether metrics collection is on. One relaxed load — this is the
/// entire cost of every event site when telemetry is disabled.
#[inline]
pub fn is_enabled() -> bool {
    mode() & METRICS != 0
}

/// Turns metrics collection on or off.
pub fn set_enabled(on: bool) {
    set_mode_bit(METRICS, on);
}

#[inline]
fn with_local<F: FnOnce(&mut Recorder)>(f: F) {
    LOCAL.with(|cell| f(&mut cell.borrow_mut()));
}

/// Adds `n` to a counter (thread-local; no-op when disabled).
#[inline]
pub fn add(counter: Counter, n: u64) {
    if !is_enabled() {
        return;
    }
    with_local(|r| r.add(counter, n));
}

/// Raises a gauge to at least `value` (thread-local; no-op when
/// disabled).
#[inline]
pub fn gauge_max(gauge: Gauge, value: u64) {
    if !is_enabled() {
        return;
    }
    with_local(|r| r.gauge_max(gauge, value));
}

/// Records a raw nanosecond sample under a span name (no-op when
/// disabled). Spans record through the same path; this entry point
/// exists for replaying known samples.
#[inline]
pub fn record_ns(span: Span, ns: u64) {
    if !is_enabled() {
        return;
    }
    with_local(|r| r.record_ns(span, ns));
}

/// Merges this thread's recorder and trace buffer into the global
/// state and clears them. Engine workers call this right before they
/// join; long-lived threads may call it at any convenient boundary.
pub fn flush_local() {
    LOCAL.with(|cell| {
        let mut local = cell.borrow_mut();
        if local.is_empty() {
            return;
        }
        lock_global().merge_from(&local);
        local.clear();
    });
    trace::flush_local();
}

fn lock_global() -> std::sync::MutexGuard<'static, Recorder> {
    GLOBAL
        .lock()
        .expect("no thread panics while merging plain counters")
}

/// Flushes the calling thread and snapshots the global metrics.
pub fn snapshot() -> MetricsSnapshot {
    flush_local();
    MetricsSnapshot::of(&lock_global(), is_enabled())
}

/// Clears the calling thread's recorder and the global merged state.
/// (Recorders owned by other live threads are untouched.)
pub fn reset() {
    LOCAL.with(|cell| cell.borrow_mut().clear());
    lock_global().clear();
}

/// Per-span totals of the calling thread's recorder at one instant,
/// for carving out one job's span timings (see [`Mark::deltas`]).
pub struct Mark {
    totals: [u64; Span::COUNT],
}

/// Marks the current per-span totals on this thread.
pub fn mark() -> Mark {
    let mut totals = [0u64; Span::COUNT];
    LOCAL.with(|cell| {
        let local = cell.borrow();
        for s in Span::ALL {
            totals[s.index()] = local.stage(s).sum();
        }
    });
    Mark { totals }
}

impl Mark {
    /// Nanoseconds accrued per span on this thread since the mark,
    /// keyed by span name; zero-delta spans are omitted. The engine
    /// tags each JSONL row (and each campaign shard) with these.
    pub fn deltas(&self) -> BTreeMap<String, u64> {
        let mut deltas = BTreeMap::new();
        LOCAL.with(|cell| {
            let local = cell.borrow();
            for s in Span::ALL {
                let delta = local.stage(s).sum().saturating_sub(self.totals[s.index()]);
                if delta > 0 {
                    deltas.insert(s.name().to_string(), delta);
                }
            }
        });
        deltas
    }
}

/// Serializes unit tests that flip the process-global mode word.
#[cfg(test)]
fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .expect("no thread panics while merging plain counters")
}
