//! Campaign event traces (paper Fig. 14).

use serde::{Deserialize, Serialize};
use std::fmt;

/// What happened during one span of a campaign timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// Initial (or re-) compilation.
    Compile,
    /// One circuit execution.
    RunCircuit,
    /// Fluorescence loss detection.
    Fluorescence,
    /// Virtual-remap table update.
    Remap,
    /// Reroute fixup computation.
    Fixup,
    /// Full array reload.
    Reload,
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EventKind::Compile => "compile",
            EventKind::RunCircuit => "run circuit",
            EventKind::Fluorescence => "fluorescence",
            EventKind::Remap => "remap",
            EventKind::Fixup => "circuit fixup",
            EventKind::Reload => "reload atoms",
        };
        f.write_str(s)
    }
}

/// One span of campaign wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimelineEvent {
    /// Event type.
    pub kind: EventKind,
    /// Start time (seconds from campaign start).
    pub start: f64,
    /// Duration (seconds).
    pub duration: f64,
}

impl TimelineEvent {
    /// End time (seconds from campaign start).
    pub fn end(&self) -> f64 {
        self.start + self.duration
    }
}

/// Renders a trace as an indented text report with per-kind totals —
/// the textual analogue of Fig. 14.
pub fn render_timeline(events: &[TimelineEvent]) -> String {
    use std::collections::BTreeMap;
    let mut out = String::new();
    let total = events.last().map(TimelineEvent::end).unwrap_or(0.0);
    out.push_str(&format!(
        "timeline: {} events over {total:.3} s\n",
        events.len()
    ));
    // Keyed by display name, so the totals list alphabetically.
    let mut by_kind: BTreeMap<String, (usize, f64)> = BTreeMap::new();
    for e in events {
        let entry = by_kind.entry(e.kind.to_string()).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += e.duration;
    }
    for (name, (count, secs)) in by_kind {
        let pct = if total > 0.0 {
            100.0 * secs / total
        } else {
            0.0
        };
        out.push_str(&format!(
            "  {name:<13} x{count:<5} {secs:>10.4} s ({pct:>5.1}%)\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_end_is_start_plus_duration() {
        let e = TimelineEvent {
            kind: EventKind::Reload,
            start: 1.0,
            duration: 0.3,
        };
        assert!((e.end() - 1.3).abs() < 1e-12);
    }

    #[test]
    fn render_reports_totals() {
        let events = vec![
            TimelineEvent {
                kind: EventKind::Compile,
                start: 0.0,
                duration: 0.01,
            },
            TimelineEvent {
                kind: EventKind::RunCircuit,
                start: 0.01,
                duration: 35e-6,
            },
            TimelineEvent {
                kind: EventKind::Reload,
                start: 0.0101,
                duration: 0.3,
            },
        ];
        let s = render_timeline(&events);
        assert!(s.contains("3 events"));
        assert!(s.contains("reload atoms"));
        assert!(s.contains("run circuit"));
    }

    #[test]
    fn empty_timeline_renders() {
        let s = render_timeline(&[]);
        assert!(s.contains("0 events"));
    }

    #[test]
    fn kinds_display() {
        assert_eq!(EventKind::Fixup.to_string(), "circuit fixup");
        assert_eq!(EventKind::Fluorescence.to_string(), "fluorescence");
    }
}
