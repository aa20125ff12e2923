//! Causal span tracing: begin/end/instant events on a per-thread
//! timeline, exported as Chrome trace-event JSON.
//!
//! Where the [`Recorder`](crate::Recorder) aggregates (counters,
//! histograms), this module keeps the *timeline*: the traced
//! [`Span`]s (one per compile pass, per engine job, per
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
//! The module is the one codec of the export: [`write_chrome_trace`]
//! writes it, [`read_chrome_trace`] reads it back into the same
//! [`TraceEvent`]s, and [`write_summary`] renders `natoms trace`.
//!
//! Span identity is explicit: every traced span gets a process-unique
//! id and records its parent id (the enclosing span on the same
//! thread, or an explicitly passed parent for cross-thread edges such
//! as campaign shards under their job span). Ids travel in the Chrome
//! `args` map (`id`, `parent`), since the trace-event format itself
//! only nests by timestamp within a single track.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use serde::de::parse;
use serde::ser::to_json_string;
use serde::{DeError, Deserialize, Serialize, Value};

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

/// First lazily allocated tid (see `NEXT_LAZY_TID`).
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
#[derive(Debug, Clone, PartialEq)]
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

/// The arguments a call site attaches to an event.
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
/// the Chrome export divides to microseconds. Recorded events borrow
/// their static names; events read back from a file own them.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub name: Cow<'static, str>,
    pub cat: Cow<'static, str>,
    pub phase: Phase,
    pub ts_ns: u64,
    pub tid: u64,
    /// Span id (0 for instants).
    pub id: u64,
    /// Enclosing span id (0 = root).
    pub parent: u64,
    /// Arguments other than `id` and `parent`.
    pub args: Vec<(Cow<'static, str>, ArgValue)>,
}

impl TraceEvent {
    /// An event recorded at a call site.
    fn new(cat: &'static str, name: &'static str, phase: Phase, ts_ns: u64, tid: u64) -> Self {
        TraceEvent {
            name: Cow::Borrowed(name),
            cat: Cow::Borrowed(cat),
            phase,
            ts_ns,
            tid,
            id: 0,
            parent: 0,
            args: Vec::new(),
        }
    }

    /// A span event with no parent or arguments yet.
    fn span(span: Span, phase: Phase, ts_ns: u64, tid: u64, id: u64) -> Self {
        let ev = TraceEvent::new(span.category(), span.name(), phase, ts_ns, tid);
        TraceEvent { id, ..ev }
    }

    /// This event with the call site's `args` attached.
    fn with_args(mut self, args: Args) -> Self {
        self.args = args
            .into_iter()
            .map(|(k, v)| (Cow::Borrowed(k), v))
            .collect();
        self
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
        let begin = TraceEvent::span(span, Phase::Begin, ts_ns, l.tid, id).with_args(args);
        l.push(TraceEvent { parent, ..begin });
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
        l.push(TraceEvent::span(span, Phase::Begin, begin_ns, tid, id).with_args(args));
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
        let ev = TraceEvent::new(cat, name, Phase::Instant, ts_ns, l.tid).with_args(args);
        l.push(TraceEvent { parent, ..ev });
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

// The file format, both ways: one event object per line of a JSON
// array, `{"name","cat","ph",["s":"t",]"ts","pid":1,"tid"[,"args"]}`,
// `ts` in microseconds to the nanosecond, `args` led by `id`/`parent`.

impl Phase {
    /// The Chrome `"ph"` code.
    pub const fn code(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
        }
    }
}

impl Serialize for ArgValue {
    fn to_value(&self) -> Value {
        match self {
            ArgValue::U64(v) => v.to_value(),
            ArgValue::Str(s) => s.to_value(),
        }
    }
}

impl Deserialize for ArgValue {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::String(s) => Ok(ArgValue::Str(s.clone())),
            _ => u64::from_value(value).map(ArgValue::U64),
        }
    }
}

impl Serialize for TraceEvent {
    fn to_value(&self) -> Value {
        let field = |key: &str, value: Value| (key.to_string(), value);
        let mut fields = vec![
            field("name", self.name.as_ref().to_value()),
            field("cat", self.cat.as_ref().to_value()),
            field("ph", self.phase.code().to_value()),
        ];
        if self.phase == Phase::Instant {
            fields.push(field("s", "t".to_value()));
        }
        fields.push(field("ts", (self.ts_ns as f64 / 1e3).to_value()));
        fields.push(field("pid", 1u64.to_value()));
        fields.push(field("tid", self.tid.to_value()));
        let links = [("id", self.id), ("parent", self.parent)];
        let args: Vec<(String, Value)> = links
            .into_iter()
            .filter(|&(_, link)| link != 0)
            .map(|(key, link)| field(key, link.to_value()))
            .chain(self.args.iter().map(|(key, v)| field(key, v.to_value())))
            .collect();
        if !args.is_empty() {
            fields.push(field("args", Value::Object(args)));
        }
        Value::Object(fields)
    }
}

impl Deserialize for TraceEvent {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let get = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| DeError(format!("missing \"{key}\"")))
        };
        let text = |key: &str| String::from_value(get(key)?).map(Cow::Owned);
        let ph = get("ph")?;
        let phase = [Phase::Begin, Phase::End, Phase::Instant]
            .into_iter()
            .find(|p| ph.as_str() == Some(p.code()))
            .ok_or_else(|| DeError::expected("a \"ph\" of B, E or i", ph))?;
        let ts_us = f64::from_value(get("ts")?)?;
        let mut event = TraceEvent {
            name: text("name")?,
            cat: text("cat")?,
            phase,
            ts_ns: (ts_us * 1e3).round() as u64,
            tid: u64::from_value(get("tid")?)?,
            id: 0,
            parent: 0,
            args: Vec::new(),
        };
        match value.get("args") {
            None => {}
            Some(Value::Object(args)) => {
                for (key, v) in args {
                    match key.as_str() {
                        "id" => event.id = u64::from_value(v)?,
                        "parent" => event.parent = u64::from_value(v)?,
                        _ => event
                            .args
                            .push((Cow::Owned(key.clone()), ArgValue::from_value(v)?)),
                    }
                }
            }
            Some(other) => return Err(DeError::expected("an \"args\" object", other)),
        }
        Ok(event)
    }
}

/// Drain all events (see [`take_events`]) and write them to `w` as
/// Chrome trace JSON, the format Perfetto and `chrome://tracing` load
/// directly. Returns the events written. If any events were dropped
/// on full buffers, a final instant event `trace_buffer_dropped`
/// records the count.
pub fn write_chrome_trace<W: Write>(w: &mut W) -> io::Result<Vec<TraceEvent>> {
    let mut events = take_events();
    let dropped = DROPPED.load(Ordering::Relaxed);
    if dropped > 0 {
        let ev = TraceEvent::new(
            "trace",
            "trace_buffer_dropped",
            Phase::Instant,
            now_ns(),
            LAZY_TID_BASE,
        );
        events.push(ev.with_args(vec![("dropped", ArgValue::U64(dropped))]));
    }
    w.write_all(b"[")?;
    for (i, ev) in events.iter().enumerate() {
        w.write_all(if i == 0 { b"\n" } else { b",\n" })?;
        w.write_all(to_json_string(&ev.to_value()).as_bytes())?;
    }
    w.write_all(b"\n]\n")?;
    Ok(events)
}

/// Reads a Chrome trace written by [`write_chrome_trace`] back into
/// its events, in file order.
///
/// # Errors
///
/// The JSON syntax error, or the index and cause of the first entry
/// that is not a `B`/`E`/`i` event of this format.
pub fn read_chrome_trace(text: &str) -> Result<Vec<TraceEvent>, DeError> {
    let value = parse(text).map_err(DeError)?;
    let entries = value
        .as_array()
        .ok_or_else(|| DeError("expected an array of events".into()))?;
    entries
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            TraceEvent::from_value(entry).map_err(|e| DeError(format!("event {i}: {e}")))
        })
        .collect()
}

/// One matched begin/end pair, with its `job` and `task` arguments.
struct SpanRecord<'a> {
    begin: &'a TraceEvent,
    dur_us: f64,
    job: Option<u64>,
    task: Option<&'a str>,
}

/// Pairs each end with the innermost open begin on its track. Returns
/// the spans in end order, the instant counts by name, and the number
/// of unmatched begins and ends.
fn fold(events: &[TraceEvent]) -> (Vec<SpanRecord<'_>>, BTreeMap<&str, u64>, usize) {
    // `ts_ns / 1e3` is exactly the f64 a JSON reader parses from the
    // file's `ts`, so durations round as they would for any reader.
    let ts_us = |ev: &TraceEvent| ev.ts_ns as f64 / 1e3;
    let mut open: HashMap<u64, Vec<&TraceEvent>> = HashMap::new();
    let (mut spans, mut instants, mut unmatched) = (Vec::new(), BTreeMap::new(), 0);
    for ev in events {
        match ev.phase {
            Phase::Begin => open.entry(ev.tid).or_default().push(ev),
            Phase::End => match open.entry(ev.tid).or_default().pop() {
                Some(begin) => spans.push(SpanRecord {
                    begin,
                    dur_us: (ts_us(ev) - ts_us(begin)).max(0.0),
                    job: begin.args.iter().find_map(|(k, v)| match v {
                        ArgValue::U64(job) if k == "job" => Some(*job),
                        _ => None,
                    }),
                    task: begin.args.iter().find_map(|(k, v)| match v {
                        ArgValue::Str(task) if k == "task" => Some(task.as_str()),
                        _ => None,
                    }),
                }),
                None => unmatched += 1,
            },
            Phase::Instant => *instants.entry(ev.name.as_ref()).or_insert(0) += 1,
        }
    }
    unmatched += open.values().map(Vec::len).sum::<usize>();
    (spans, instants, unmatched)
}

/// Writes the `natoms trace` summary of the trace read from `path`:
/// event/span/track/unmatched counts, instant counts, the cache-wait
/// total, the `top` slowest spans, and per job (`job`/`campaign_job`
/// span) the chain of slowest children, linked by span id.
///
/// # Errors
///
/// Whatever writing to `out` returns.
pub fn write_summary(
    out: &mut impl Write,
    path: &str,
    events: &[TraceEvent],
    top: usize,
) -> io::Result<()> {
    let (spans, instants, unmatched) = fold(events);
    let tracks: BTreeSet<u64> = events.iter().map(|ev| ev.tid).collect();
    writeln!(
        out,
        "{path}: {} events, {} spans, {} tracks, {unmatched} unmatched begin/end",
        events.len(),
        spans.len(),
        tracks.len(),
    )?;
    if !instants.is_empty() {
        let rendered: Vec<String> = instants
            .iter()
            .map(|(name, count)| format!("{name} x{count}"))
            .collect();
        writeln!(out, "instants: {}", rendered.join(", "))?;
    }
    let is = |s: &SpanRecord, span: Span| s.begin.name == span.name();
    let waits: Vec<f64> = spans
        .iter()
        .filter(|s| is(s, Span::CacheWait))
        .map(|s| s.dur_us)
        .collect();
    if !waits.is_empty() {
        let total_ms = waits.iter().sum::<f64>() / 1e3;
        let n = waits.len();
        writeln!(out, "cache wait: {n} wait(s), {total_ms:.3} ms total")?;
    }

    let mut slowest: Vec<&SpanRecord> = spans.iter().collect();
    slowest.sort_by(|a, b| b.dur_us.total_cmp(&a.dur_us));
    if !slowest.is_empty() {
        writeln!(out, "top {} slowest spans:", top.min(slowest.len()))?;
    }
    for (rank, s) in slowest.iter().take(top).enumerate() {
        let mut label = s.begin.name.to_string();
        if let Some(job) = s.job {
            label.push_str(&format!(" job={job}"));
        }
        if let Some(task) = s.task {
            label.push_str(&format!(" task={task}"));
        }
        let (rank, ms, tid) = (rank + 1, s.dur_us / 1e3, s.begin.tid);
        writeln!(out, "  {rank:>2}. {label:<32} {ms:>10.3} ms  [tid {tid}]")?;
    }

    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in spans.iter().filter(|s| s.begin.parent != 0) {
        children.entry(s.begin.parent).or_default().push(s);
    }
    let mut jobs: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.begin.id != 0 && (is(s, Span::Job) || is(s, Span::CampaignJob)))
        .collect();
    jobs.sort_by_key(|s| s.job.unwrap_or(u64::MAX));
    if !jobs.is_empty() {
        writeln!(out, "per-job critical path:")?;
    }
    for job in jobs {
        let default_task = if is(job, Span::CampaignJob) {
            "campaign_sharded"
        } else {
            "?"
        };
        let id = job.job.map_or_else(|| "?".into(), |j| j.to_string());
        let (task, ms) = (job.task.unwrap_or(default_task), job.dur_us / 1e3);
        write!(out, "  job {id} ({task}) {ms:.3} ms")?;
        // Follow the slowest child (the last one on ties) to a leaf.
        let mut at = job;
        while let Some(&child) = children
            .get(&at.begin.id)
            .and_then(|kids| kids.iter().max_by(|a, b| a.dur_us.total_cmp(&b.dur_us)))
        {
            write!(out, " -> {} {:.3} ms", child.begin.name, child.dur_us / 1e3)?;
            at = child;
        }
        writeln!(out)?;
    }
    Ok(())
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
        let written = write_chrome_trace(&mut buf).unwrap();
        set_enabled(false);
        assert_eq!(written.len(), 3);
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(read_chrome_trace(&text).unwrap(), written);
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

    /// The 7-event fixture `natoms trace` is tested on: one compile
    /// job with a `lower` pass, a cache wait and a cache hit.
    const FIXTURE: &str = r#"[
      {"name":"job","cat":"job","ph":"B","ts":10.0,"pid":1,"tid":1,"args":{"id":1,"job":0,"task":"compile"}},
      {"name":"lower","cat":"pass","ph":"B","ts":11.0,"pid":1,"tid":1,"args":{"id":2,"parent":1}},
      {"name":"lower","cat":"pass","ph":"E","ts":15.0,"pid":1,"tid":1},
      {"name":"cache_wait","cat":"cache","ph":"B","ts":16.0,"pid":1,"tid":1,"args":{"id":3,"parent":1}},
      {"name":"cache_wait","cat":"cache","ph":"E","ts":18.0,"pid":1,"tid":1},
      {"name":"cache_hit","cat":"cache","ph":"i","s":"t","ts":19.0,"pid":1,"tid":1},
      {"name":"job","cat":"job","ph":"E","ts":20.0,"pid":1,"tid":1}
    ]"#;

    #[test]
    fn fixture_folds_into_three_spans() {
        let events = read_chrome_trace(FIXTURE).unwrap();
        assert_eq!(events.len(), 7);
        assert_eq!(events[5].phase, Phase::Instant);
        assert_eq!(
            events[0].args[1],
            ("task".into(), ArgValue::Str("compile".into()))
        );
        let (spans, instants, unmatched) = fold(&events);
        assert_eq!((spans.len(), unmatched), (3, 0));
        assert_eq!(instants.get("cache_hit"), Some(&1));
        let job = spans.iter().find(|s| s.begin.name == "job").unwrap();
        assert_eq!((job.begin.id, job.job, job.dur_us), (1, Some(0), 10.0));
        assert_eq!(job.task, Some("compile"));
        assert!(spans
            .iter()
            .all(|s| s.begin.name == "job" || s.begin.parent == 1));
    }

    #[test]
    fn fixture_summary_is_pinned() {
        let events = read_chrome_trace(FIXTURE).unwrap();
        let mut out = Vec::new();
        write_summary(&mut out, "t.json", &events, 10).unwrap();
        let expected = [
            "t.json: 7 events, 3 spans, 1 tracks, 0 unmatched begin/end",
            "instants: cache_hit x1",
            "cache wait: 1 wait(s), 0.002 ms total",
            "top 3 slowest spans:",
            "   1. job job=0 task=compile                0.010 ms  [tid 1]",
            "   2. lower                                 0.004 ms  [tid 1]",
            "   3. cache_wait                            0.002 ms  [tid 1]",
            "per-job critical path:",
            "  job 0 (compile) 0.010 ms -> lower 0.004 ms",
        ];
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn unmatched_ends_and_open_begins_are_counted() {
        let events = read_chrome_trace(
            r#"[{"name":"a","cat":"pass","ph":"E","ts":1.0,"pid":1,"tid":1},
                {"name":"b","cat":"pass","ph":"B","ts":2.0,"pid":1,"tid":2}]"#,
        )
        .unwrap();
        let (spans, _, unmatched) = fold(&events);
        assert_eq!((spans.len(), unmatched), (0, 2));
    }

    #[test]
    fn malformed_traces_are_errors() {
        for (text, cause) in [
            ("{not json", "byte"),
            (r#"{"name":"job"}"#, "array"),
            (
                r#"[{"name":"job","cat":"job","ts":1.0,"tid":1}]"#,
                "event 0: missing \"ph\"",
            ),
            (
                r#"[{"name":"job","cat":"job","ph":"X","ts":1.0,"tid":1}]"#,
                "B, E or i",
            ),
            (
                r#"[{"name":"job","cat":"job","ph":"B","ts":1.0,"tid":1,"args":[]}]"#,
                "args",
            ),
        ] {
            let err = read_chrome_trace(text).unwrap_err().to_string();
            assert!(err.contains(cause), "{text}: {err}");
        }
    }

    #[test]
    fn timestamps_round_trip_to_the_nanosecond() {
        for ts_ns in [0, 1, 999, 1_000, 123_456_789, 86_400_000_000_001] {
            let ev = TraceEvent::new("test", "t", Phase::Instant, ts_ns, 7);
            let text = format!("[{}]", to_json_string(&ev.to_value()));
            assert_eq!(read_chrome_trace(&text).unwrap(), vec![ev], "{text}");
        }
    }
}
