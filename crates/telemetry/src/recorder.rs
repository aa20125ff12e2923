//! Per-thread metric accumulator.
//!
//! A [`Recorder`] is plain mutable state with no interior locking: each
//! engine worker owns one (thread-local) and records into it with
//! simple array arithmetic, then the full recorder is merged into the
//! global recorder once, at flush time. Every merge operation —
//! counter addition, gauge max, bucketwise histogram addition — is
//! commutative and associative, so the merged result is independent of
//! worker join order.

use crate::histogram::Histogram;
use crate::{Counter, Gauge, Span};

/// A flat bundle of counters, gauges, and per-span histograms.
#[derive(Clone, Copy)]
pub struct Recorder {
    counters: [u64; Counter::COUNT],
    gauges: [u64; Gauge::COUNT],
    stages: [Histogram; Span::COUNT],
    dirty: bool,
}

impl Recorder {
    /// An empty recorder. `const` so it can back a `static`/TLS slot.
    pub const fn new() -> Self {
        Recorder {
            counters: [0; Counter::COUNT],
            gauges: [0; Gauge::COUNT],
            stages: [Histogram::new(); Span::COUNT],
            dirty: false,
        }
    }

    /// Adds `n` to a monotonic counter.
    #[inline]
    pub fn add(&mut self, counter: Counter, n: u64) {
        self.counters[counter.index()] += n;
        self.dirty = true;
    }

    /// Raises a high-watermark gauge to at least `value`.
    #[inline]
    pub fn gauge_max(&mut self, gauge: Gauge, value: u64) {
        let slot = &mut self.gauges[gauge.index()];
        if value > *slot {
            *slot = value;
        }
        self.dirty = true;
    }

    /// Records one duration sample (in nanoseconds) under a span name.
    #[inline]
    pub fn record_ns(&mut self, span: Span, ns: u64) {
        self.stages[span.index()].record(ns);
        self.dirty = true;
    }

    /// Current value of a counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// Current value of a gauge.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge.index()]
    }

    /// The latency histogram under a span name.
    pub fn stage(&self, span: Span) -> &Histogram {
        &self.stages[span.index()]
    }

    /// True when nothing has been recorded since the last clear.
    pub fn is_empty(&self) -> bool {
        !self.dirty
    }

    /// Folds another recorder into this one. Counters add, gauges take
    /// the max, histograms add bucketwise — all order-independent.
    pub fn merge_from(&mut self, other: &Recorder) {
        for (mine, theirs) in self.counters.iter_mut().zip(other.counters.iter()) {
            *mine += theirs;
        }
        for (mine, theirs) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            if *theirs > *mine {
                *mine = *theirs;
            }
        }
        for (mine, theirs) in self.stages.iter_mut().zip(other.stages.iter()) {
            mine.merge_from(theirs);
        }
        self.dirty = self.dirty || other.dirty;
    }

    /// Resets everything to zero.
    pub fn clear(&mut self) {
        *self = Recorder::new();
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}
