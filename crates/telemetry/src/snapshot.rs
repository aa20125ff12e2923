//! Serializable point-in-time view of a [`Recorder`].
//!
//! [`MetricsSnapshot`] is the wire format for `natoms --metrics <file>`
//! dumps and the input to `natoms stats`. Only non-zero counters/gauges and non-empty
//! stages are included, so a disabled run serializes to an empty shell.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::recorder::Recorder;
use crate::{Counter, Gauge, Span};

/// Schema tag stamped into every snapshot. v2: the `stages` keys are
/// [`Span`] names (pass spans include artifact-store hits, `schedule`
/// became `route_schedule`); the JSON shape is unchanged from v1.
pub const SNAPSHOT_SCHEMA: &str = "na-metrics-v2";

/// Latency summary for one span name, extracted from its
/// log-scale histogram. All durations are nanoseconds; the percentile
/// fields carry the histogram's bounded quantisation error (<= 12.5%).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSummary {
    pub count: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    pub mean_ns: f64,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
}

/// A merged, serializable view of all recorded metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub schema: String,
    pub enabled: bool,
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, u64>,
    pub stages: BTreeMap<String, StageSummary>,
}

impl MetricsSnapshot {
    /// Summarizes a recorder. `enabled` records whether collection was
    /// on for the run that produced it.
    pub fn of(recorder: &Recorder, enabled: bool) -> Self {
        let mut counters = BTreeMap::new();
        for c in Counter::ALL {
            let v = recorder.counter(c);
            if v > 0 {
                counters.insert(c.name().to_string(), v);
            }
        }
        let mut gauges = BTreeMap::new();
        for g in Gauge::ALL {
            let v = recorder.gauge(g);
            if v > 0 {
                gauges.insert(g.name().to_string(), v);
            }
        }
        let mut stages = BTreeMap::new();
        for s in Span::ALL {
            let h = recorder.stage(s);
            if !h.is_empty() {
                stages.insert(
                    s.name().to_string(),
                    StageSummary {
                        count: h.count(),
                        total_ns: h.sum(),
                        min_ns: h.min(),
                        max_ns: h.max(),
                        mean_ns: h.mean(),
                        p50_ns: h.percentile(0.50),
                        p90_ns: h.percentile(0.90),
                        p99_ns: h.percentile(0.99),
                    },
                );
            }
        }
        MetricsSnapshot {
            schema: SNAPSHOT_SCHEMA.to_string(),
            enabled,
            counters,
            gauges,
            stages,
        }
    }

    /// Counter value by name, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name, 0 when absent.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Span summary by name, if that span recorded anything.
    pub fn stage(&self, name: &str) -> Option<&StageSummary> {
        self.stages.get(name)
    }

    /// True when the snapshot carries no data at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.stages.is_empty()
    }

    /// Human-readable multi-line rendering (used by `natoms stats`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} ({})\n",
            self.schema,
            if self.enabled { "enabled" } else { "disabled" }
        ));
        if self.is_empty() {
            out.push_str("  (no metrics recorded)\n");
            return out;
        }
        if !self.stages.is_empty() {
            out.push_str(&format!(
                "  {:<16} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                "stage", "count", "total", "p50", "p90", "p99", "max"
            ));
            for (name, s) in &self.stages {
                out.push_str(&format!(
                    "  {:<16} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                    name,
                    s.count,
                    fmt_ns(s.total_ns),
                    fmt_ns(s.p50_ns),
                    fmt_ns(s.p90_ns),
                    fmt_ns(s.p99_ns),
                    fmt_ns(s.max_ns),
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("  counters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("    {name:<24} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("  gauges:\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("    {name:<24} {v}\n"));
            }
        }
        out
    }
}

/// Renders a nanosecond duration with a human-scale unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}
