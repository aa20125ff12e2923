//! The one timing primitive: a named RAII span (see the crate docs).
//! With metrics and tracing both off, an untimed span is inert: one
//! relaxed load at open, no clock read, nothing recorded.

use crate::clock::now_ns;
use crate::trace::{self, Args};
use crate::{mode, with_local, METRICS, TRACE};

keys! {
    /// Every named span. Each owns one latency histogram; the traced
    /// ones also appear in the Chrome trace under the same name, which
    /// is also the snapshot key and the JSONL `timings` key.
    pub enum Span {
        /// Compile pass: gate-set lowering (artifact-store hits included).
        Lower => "lower",
        /// Compile pass: native-gate arity check against the MID.
        ValidateArity => "validate_arity",
        /// Compile pass: interaction weights plus initial placement
        /// (artifact-store hits included).
        Place => "place",
        /// Compile pass: the restriction-zone scheduler, routing included.
        RouteSchedule => "route_schedule",
        /// The routing phases inside [`Span::RouteSchedule`] (SWAP
        /// insertion and forced BFS hops), accumulated over the
        /// scheduler loop into one sample per compile. Metrics-only.
        Route => "route",
        /// Schedule verification: the compile pass, or a standalone
        /// `na_core::verify`.
        Verify => "verify",
        /// Compile pass: counters and the assembled `CompiledCircuit`.
        Finalize => "finalize",
        /// A loss campaign's initial compile (strategy state set-up).
        CampaignCompile => "campaign_compile",
        /// One loss-campaign shot end to end. Metrics-only.
        Shot => "shot",
        /// Array shift / remap after an atom loss. Metrics-only.
        Remap => "remap",
        /// SWAP-fixup search over the hole-masked grid. Metrics-only.
        LossFixup => "loss_fixup",
        /// Full recompilation fallback after a loss. Metrics-only.
        Recompile => "recompile",
        /// One whole engine job.
        Job => "job",
        /// A sharded campaign job, from fan-out to the last merge.
        CampaignJob => "campaign_job",
        /// One campaign shard on a pool worker.
        Shard => "shard",
        /// The merge of a campaign's shard results.
        Merge => "merge",
        /// Waiting on another thread's in-flight compile of the same key.
        CacheWait => "cache_wait",
    }
}

impl Span {
    /// Trace category.
    pub const fn category(self) -> &'static str {
        match self {
            Span::Job | Span::CampaignJob => "job",
            Span::Shard | Span::Merge => "shard",
            Span::CacheWait => "cache",
            Span::CampaignCompile
            | Span::Shot
            | Span::Remap
            | Span::LossFixup
            | Span::Recompile => "campaign",
            _ => "pass",
        }
    }

    /// Whether the span appears in the trace. The per-shot and
    /// per-loss names fire tens of thousands of times per campaign and
    /// would overflow the per-thread trace buffer, and `route` is an
    /// accumulated sample rather than one interval, so these five are
    /// metrics-only.
    pub const fn traced(self) -> bool {
        !matches!(
            self,
            Span::Route | Span::Shot | Span::Remap | Span::LossFixup | Span::Recompile
        )
    }
}

/// Span-local bit: read the clock even when no consumer is on.
const TIMED: u8 = 4;

/// An open span; it ends (and records) when dropped or on
/// [`OpenSpan::end`].
#[must_use = "the span records when it ends; binding it to `_` ends it immediately"]
pub struct OpenSpan {
    name: Span,
    /// Consumers this span feeds (`METRICS`, `TRACE`, `TIMED`);
    /// 0 = inert or already ended.
    live: u8,
    /// Clock at open or at the last resume; `None` while paused.
    started: Option<u64>,
    /// Time accrued over earlier running stretches.
    accrued: u64,
    /// Trace span id (0 = untraced).
    id: u64,
    /// Begin and end are both emitted at the end, onto an explicit
    /// track (spans whose lifetime crosses threads).
    detached: bool,
}

impl OpenSpan {
    /// Samples the mode word once; reads the clock only when some
    /// consumer is live and the span starts running.
    fn open(name: Span, extra: u8, running: bool) -> Self {
        let mut live = mode() | extra;
        if !name.traced() {
            live &= !TRACE;
        }
        OpenSpan {
            name,
            live,
            started: (running && live != 0).then(now_ns),
            accrued: 0,
            id: 0,
            detached: false,
        }
    }

    /// Opens a running span, pushing its trace begin event when traced.
    fn begin(name: Span, extra: u8, parent: u64, args: impl FnOnce() -> Args) -> Self {
        let mut span = OpenSpan::open(name, extra, true);
        if let (true, Some(ts)) = (span.traced(), span.started) {
            span.id = trace::begin(name, parent, ts, args());
        }
        span
    }

    fn traced(&self) -> bool {
        self.live & TRACE != 0
    }

    /// The trace span id, for explicit child links across threads
    /// (0 when the span is not traced).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Stops the clock; [`OpenSpan::resume`] restarts it. The span's
    /// sample is the sum of its running stretches.
    pub fn pause(&mut self) {
        if let Some(t) = self.started.take() {
            self.accrued += now_ns() - t;
        }
    }

    /// Restarts a paused clock.
    pub fn resume(&mut self) {
        if self.live != 0 && self.started.is_none() {
            self.started = Some(now_ns());
        }
    }

    /// Ends the span, returning its duration in nanoseconds (0 for an
    /// inert span).
    pub fn end(mut self) -> u64 {
        self.finish(None)
    }

    /// Ends a [`span_detached`] span, emitting its trace pair onto
    /// track `tid` with `args`. Returns the duration in nanoseconds.
    pub fn end_on_track(mut self, tid: u64, args: impl FnOnce() -> Args) -> u64 {
        let args = if self.traced() { args() } else { Args::new() };
        self.finish(Some((tid, args)))
    }

    fn finish(&mut self, track: Option<(u64, Args)>) -> u64 {
        if self.live == 0 {
            return 0;
        }
        let begin = self.started;
        let end = begin.map(|_| now_ns());
        let ns = self.accrued + end.zip(begin).map_or(0, |(e, b)| e - b);
        if self.live & METRICS != 0 {
            with_local(|r| r.record_ns(self.name, ns));
        }
        if self.traced() {
            let end = end.unwrap_or_else(now_ns);
            if self.detached {
                let (tid, args) =
                    track.map_or((None, Args::new()), |(tid, args)| (Some(tid), args));
                trace::complete(self.name, tid, begin.unwrap_or(end), end, self.id, args);
            } else {
                trace::end(self.name, self.id, end);
            }
        }
        self.live = 0;
        ns
    }
}

impl Drop for OpenSpan {
    fn drop(&mut self) {
        self.finish(None);
    }
}

/// Opens `name` on this thread, parented under the innermost open
/// span.
#[inline]
pub fn span(name: Span) -> OpenSpan {
    OpenSpan::begin(name, 0, 0, Args::new)
}

/// Opens `name` with trace arguments and, for cross-thread edges, an
/// explicit trace parent (0 = the innermost open span on this thread).
/// `args` runs only when the span is traced.
#[inline]
pub fn span_with(name: Span, parent: u64, args: impl FnOnce() -> Args) -> OpenSpan {
    OpenSpan::begin(name, 0, parent, args)
}

/// Opens `name` and always reads the clock, so [`OpenSpan::end`]
/// returns the duration even with metrics and tracing off.
#[inline]
pub fn span_timed(name: Span) -> OpenSpan {
    OpenSpan::begin(name, TIMED, 0, Args::new)
}

/// Opens `name` paused and untraced: an accumulator that
/// [`OpenSpan::resume`]/[`OpenSpan::pause`] bracket around the timed
/// stretches, recording their sum as one sample when it ends.
#[inline]
pub fn span_paused(name: Span) -> OpenSpan {
    let mut span = OpenSpan::open(name, 0, false);
    span.live &= !TRACE;
    span
}

/// Opens `name` without touching this thread's trace state: the span
/// may end on another thread, and [`OpenSpan::end_on_track`] emits its
/// begin/end pair there. Its [`OpenSpan::id`] is allocated up front so
/// children on other threads can link to it.
#[inline]
pub fn span_detached(name: Span) -> OpenSpan {
    let mut span = OpenSpan::open(name, 0, true);
    if span.traced() {
        span.id = trace::alloc_span_id();
        span.detached = true;
    }
    span
}
