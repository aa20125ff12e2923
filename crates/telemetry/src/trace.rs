//! Causal span tracing: begin/end/instant events on a per-thread
//! timeline, exported as Chrome trace-event JSON.
//!
//! Where the [`Recorder`](crate::Recorder) aggregates (counters,
//! histograms), this module keeps the *timeline*: the traced
//! [`Span`](crate::Span)s (one per compile pass, per engine job, per
//! campaign shard) as begin/end pairs, with instant events for cache
//! hits, artifact reuse, faults, and deadline expiries. The export
//! loads directly in Perfetto / `chrome://tracing`.
//!
//! The contract matches the rest of `na-telemetry`:
//!
//! * **Disabled fast path** — tracing is one bit of the crate's mode
//!   word; with it off, every site is one relaxed load plus a branch.
//! * **Strictly observational** — no RNG draws, no float folds, no
//!   change to any output byte (`tests/trace_guard.rs` pins this).
//! * **Order-independent merge** — events land in thread-local
//!   buffers; workers flush at join and the export stable-sorts by
//!   `(tid, timestamp)`, so the file content is deterministic in
//!   structure at any worker count.
//!
//! Span identity is explicit: every traced span gets a process-unique
//! id and records its parent id (the enclosing span on the same
//! thread, or an explicitly passed parent for cross-thread edges such
//! as campaign shards under their job span). Ids travel in the Chrome
//! `args` map (`id`, `parent`), since the trace-event format itself
//! only nests by timestamp within a single track.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::clock::{epoch, now_ns};
use crate::{mode, set_mode_bit, Span, TRACE};

/// Process-unique span id allocator. 0 means "no span".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Thread ids for threads that never called [`set_thread_tid`]
/// (the main thread, test threads). Engine workers claim small ids
/// (1..=workers); lazy ids start high so the tracks never collide.
static NEXT_LAZY_TID: AtomicU64 = AtomicU64::new(LAZY_TID_BASE);

/// Events dropped because a thread buffer hit [`BUFFER_CAP`].
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// First lazily allocated tid (see [`NEXT_LAZY_TID`]).
pub const LAZY_TID_BASE: u64 = 100;

/// Virtual track base for whole-job spans of sharded campaign jobs:
/// the job span is emitted on track `JOB_TRACK_BASE + job_index` so
/// it does not interleave with whichever worker ran the merge.
pub const JOB_TRACK_BASE: u64 = 1_000_000;

/// Per-thread event-buffer capacity. Per-shot spans are metrics-only
/// (see [`Span::traced`]), so real runs sit far below this; if a
/// buffer fills anyway we drop and count rather than grow unboundedly.
const BUFFER_CAP: usize = 1 << 16;

/// Is tracing collecting? One relaxed load.
#[inline]
pub fn is_enabled() -> bool {
    mode() & TRACE != 0
}

/// Turn collection on or off. Enabling pins the trace epoch.
pub fn set_enabled(enabled: bool) {
    if enabled {
        epoch();
    }
    set_mode_bit(TRACE, enabled);
}

/// Allocates a process-unique span id.
pub(crate) fn alloc_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// An argument value attached to an event.
#[derive(Debug, Clone)]
pub enum ArgValue {
    U64(u64),
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

/// The arguments attached to an event.
pub type Args = Vec<(&'static str, ArgValue)>;

/// Chrome trace-event phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `"B"` — span begin.
    Begin,
    /// `"E"` — span end.
    End,
    /// `"i"` — instant (thread-scoped).
    Instant,
}

/// One trace event. `ts_ns` is nanoseconds since the process epoch;
/// the Chrome export divides to microseconds.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub name: &'static str,
    pub cat: &'static str,
    pub phase: Phase,
    pub ts_ns: u64,
    pub tid: u64,
    /// Span id (0 for instants).
    pub id: u64,
    /// Enclosing span id (0 = root).
    pub parent: u64,
    pub args: Args,
}

impl TraceEvent {
    /// A span event with no parent or arguments yet.
    fn span(span: Span, phase: Phase, ts_ns: u64, tid: u64, id: u64) -> Self {
        TraceEvent {
            name: span.name(),
            cat: span.category(),
            phase,
            ts_ns,
            tid,
            id,
            parent: 0,
            args: Vec::new(),
        }
    }
}

struct LocalBuf {
    events: Vec<TraceEvent>,
    /// Stack of open span ids on this thread (implicit parents).
    stack: Vec<u64>,
    tid: u64,
}

impl LocalBuf {
    fn new() -> Self {
        LocalBuf {
            events: Vec::new(),
            stack: Vec::new(),
            tid: NEXT_LAZY_TID.fetch_add(1, Ordering::Relaxed),
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() >= BUFFER_CAP {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.events.push(ev);
    }
}

thread_local! {
    static LOCAL: std::cell::RefCell<LocalBuf> = std::cell::RefCell::new(LocalBuf::new());
}

fn with_buf<T>(f: impl FnOnce(&mut LocalBuf) -> T) -> T {
    LOCAL.with(|l| f(&mut l.borrow_mut()))
}

fn merged() -> &'static Mutex<Vec<TraceEvent>> {
    static MERGED: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    MERGED.get_or_init(|| Mutex::new(Vec::new()))
}

/// Pin this thread's track id (engine workers use their worker index
/// so the Perfetto rows read `tid 1..=N`). Must be called before the
/// thread records its first event to take effect from the start.
pub fn set_thread_tid(tid: u64) {
    if !is_enabled() {
        return;
    }
    with_buf(|l| l.tid = tid);
}

/// Move this thread's buffered events into the global registry
/// ([`crate::flush_local`] calls this alongside the metrics flush).
pub(crate) fn flush_local() {
    if !is_enabled() {
        return;
    }
    with_buf(|l| {
        if l.events.is_empty() {
            return;
        }
        let drained = std::mem::take(&mut l.events);
        merged().lock().unwrap().extend(drained);
    });
}

/// Pushes the begin event of a traced span at `ts_ns` and opens it on
/// this thread's stack; returns its new id. `parent` 0 means the
/// innermost open span on this thread.
pub(crate) fn begin(span: Span, parent: u64, ts_ns: u64, args: Args) -> u64 {
    let id = alloc_span_id();
    with_buf(|l| {
        let parent = match parent {
            0 => l.stack.last().copied().unwrap_or(0),
            explicit => explicit,
        };
        let begin = TraceEvent::span(span, Phase::Begin, ts_ns, l.tid, id);
        l.push(TraceEvent {
            parent,
            args,
            ..begin
        });
        l.stack.push(id);
    });
    id
}

/// Pushes the end event of span `id` at `ts_ns` and closes it.
pub(crate) fn end(span: Span, id: u64, ts_ns: u64) {
    with_buf(|l| {
        // Pop our own id; tolerate a foreign top if spans ended out of
        // order (they never do in practice).
        if let Some(pos) = l.stack.iter().rposition(|&s| s == id) {
            l.stack.remove(pos);
        }
        l.push(TraceEvent::span(span, Phase::End, ts_ns, l.tid, id));
    });
}

/// Pushes a complete begin/end pair for a root span whose lifetime
/// crossed threads, onto track `tid` (this thread's track when
/// `None`).
pub(crate) fn complete(
    span: Span,
    tid: Option<u64>,
    begin_ns: u64,
    end_ns: u64,
    id: u64,
    args: Args,
) {
    with_buf(|l| {
        let tid = tid.unwrap_or(l.tid);
        let begin = TraceEvent::span(span, Phase::Begin, begin_ns, tid, id);
        l.push(TraceEvent { args, ..begin });
        l.push(TraceEvent::span(
            span,
            Phase::End,
            end_ns.max(begin_ns),
            tid,
            id,
        ));
    });
}

/// Record a thread-scoped instant event. `args` runs only when tracing
/// is on.
pub fn instant(cat: &'static str, name: &'static str, args: impl FnOnce() -> Args) {
    if !is_enabled() {
        return;
    }
    let ts_ns = now_ns();
    let args = args();
    with_buf(|l| {
        let parent = l.stack.last().copied().unwrap_or(0);
        let tid = l.tid;
        l.push(TraceEvent {
            name,
            cat,
            phase: Phase::Instant,
            ts_ns,
            tid,
            id: 0,
            parent,
            args,
        });
    });
}

/// Flush this thread and drain every merged event, stable-sorted by
/// `(tid, ts_ns)`. Leaves the registry empty.
pub fn take_events() -> Vec<TraceEvent> {
    flush_local();
    let mut events = std::mem::take(&mut *merged().lock().unwrap());
    events.sort_by_key(|e| (e.tid, e.ts_ns));
    events
}

/// Clear all trace state (merged events, drop counter). Thread-local
/// buffers of *other* threads are untouched, so call between runs,
/// not mid-run.
pub fn reset() {
    with_buf(|l| {
        l.events.clear();
        l.stack.clear();
    });
    merged().lock().unwrap().clear();
    DROPPED.store(0, Ordering::Relaxed);
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn write_event(out: &mut String, ev: &TraceEvent) {
    out.push_str("{\"name\":\"");
    escape_json(ev.name, out);
    out.push_str("\",\"cat\":\"");
    escape_json(ev.cat, out);
    out.push_str("\",\"ph\":\"");
    out.push_str(match ev.phase {
        Phase::Begin => "B",
        Phase::End => "E",
        Phase::Instant => "i",
    });
    out.push('"');
    if ev.phase == Phase::Instant {
        out.push_str(",\"s\":\"t\"");
    }
    // Microseconds with nanosecond precision preserved.
    out.push_str(&format!(
        ",\"ts\":{}.{:03}",
        ev.ts_ns / 1_000,
        ev.ts_ns % 1_000
    ));
    out.push_str(&format!(",\"pid\":1,\"tid\":{}", ev.tid));
    if ev.id != 0 || ev.parent != 0 || !ev.args.is_empty() {
        out.push_str(",\"args\":{");
        let mut first = true;
        let field = |out: &mut String, key: &str, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('"');
            escape_json(key, out);
            out.push_str("\":");
        };
        if ev.id != 0 {
            field(out, "id", &mut first);
            out.push_str(&ev.id.to_string());
        }
        if ev.parent != 0 {
            field(out, "parent", &mut first);
            out.push_str(&ev.parent.to_string());
        }
        for (key, value) in &ev.args {
            field(out, key, &mut first);
            match value {
                ArgValue::U64(v) => out.push_str(&v.to_string()),
                ArgValue::Str(s) => {
                    out.push('"');
                    escape_json(s, out);
                    out.push('"');
                }
            }
        }
        out.push('}');
    }
    out.push('}');
}

/// Serialize events as a Chrome trace-event JSON array (the format
/// Perfetto and `chrome://tracing` load directly). Hand-rolled so the
/// telemetry crate stays serde_json-free.
pub fn render_chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 2);
    out.push('[');
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        write_event(&mut out, ev);
    }
    out.push_str("\n]\n");
    out
}

/// Drain all events (see [`take_events`]) and write them to `w` as
/// Chrome trace JSON. Returns the number of events written. If any
/// events were dropped on full buffers, a final instant event
/// `trace_buffer_dropped` records the count.
pub fn write_chrome_trace<W: Write>(w: &mut W) -> io::Result<usize> {
    let mut events = take_events();
    let dropped = DROPPED.load(Ordering::Relaxed);
    if dropped > 0 {
        events.push(TraceEvent {
            name: "trace_buffer_dropped",
            cat: "trace",
            phase: Phase::Instant,
            ts_ns: now_ns(),
            tid: LAZY_TID_BASE,
            id: 0,
            parent: 0,
            args: vec![("dropped", ArgValue::U64(dropped))],
        });
    }
    let n = events.len();
    w.write_all(render_chrome_trace(&events).as_bytes())?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{span, span_detached, span_with, test_lock};

    #[test]
    fn disabled_sites_record_nothing() {
        let _g = test_lock();
        set_enabled(false);
        reset();
        {
            let s = span(Span::Job);
            assert_eq!(s.id(), 0);
            instant("test", "nothing", Vec::new);
        }
        assert_eq!(take_events().len(), 0);
    }

    #[test]
    fn spans_nest_and_balance() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        let parent_id;
        {
            let outer = span(Span::Job);
            parent_id = outer.id();
            assert_ne!(parent_id, 0);
            {
                let _inner = span_with(Span::Lower, 0, || vec![("k", ArgValue::U64(7))]);
                instant("test", "tick", Vec::new);
            }
        }
        let events = take_events();
        set_enabled(false);
        assert_eq!(events.len(), 5);
        let begins: Vec<_> = events.iter().filter(|e| e.phase == Phase::Begin).collect();
        let ends = events.iter().filter(|e| e.phase == Phase::End).count();
        assert_eq!(begins.len(), 2);
        assert_eq!(ends, 2);
        let inner = begins.iter().find(|e| e.name == "lower").unwrap();
        assert_eq!(inner.parent, parent_id);
        assert_eq!(inner.cat, "pass");
        let tick = events.iter().find(|e| e.name == "tick").unwrap();
        assert_eq!(tick.phase, Phase::Instant);
        assert_ne!(tick.parent, 0);
    }

    #[test]
    fn complete_spans_carry_explicit_track_and_parent() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        let job = span_detached(Span::CampaignJob);
        let id = job.id();
        assert_ne!(id, 0);
        drop(span_with(Span::Shard, id, Vec::new));
        job.end_on_track(JOB_TRACK_BASE + 3, || vec![("job", ArgValue::U64(3))]);
        let events = take_events();
        set_enabled(false);
        let job_events: Vec<_> = events.iter().filter(|e| e.id == id).collect();
        assert_eq!(job_events.len(), 2);
        assert!(job_events.iter().all(|e| e.tid == JOB_TRACK_BASE + 3));
        assert_eq!(job_events[0].phase, Phase::Begin);
        assert!(job_events[0].ts_ns <= job_events[1].ts_ns);
        let shard = events.iter().find(|e| e.name == "shard").unwrap();
        assert_eq!(shard.parent, id);
    }

    #[test]
    fn chrome_render_is_valid_shape() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        {
            let _s = span_with(Span::Job, 0, || {
                vec![("msg", ArgValue::Str("line1\nline2".into()))]
            });
            instant("test", "quoted \"name\"", Vec::new);
        }
        let mut buf = Vec::new();
        let n = write_chrome_trace(&mut buf).unwrap();
        set_enabled(false);
        assert_eq!(n, 3);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.trim_start().starts_with('['));
        assert!(text.trim_end().ends_with(']'));
        assert!(text.contains("\\n"));
        assert!(text.contains("quoted \\\"name\\\""));
        assert!(text.contains("\"ph\":\"B\""));
        assert!(text.contains("\"ph\":\"E\""));
    }

    #[test]
    fn events_sorted_by_tid_then_ts() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        let late_track = span_detached(Span::CampaignJob);
        let early_track = span_detached(Span::CampaignJob);
        late_track.end_on_track(50, Vec::new);
        early_track.end_on_track(2, Vec::new);
        let events = take_events();
        set_enabled(false);
        let tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids, vec![2, 2, 50, 50]);
    }
}
