//! Shared harness utilities for the figure-regeneration binaries.
//!
//! Every figure of the paper's evaluation has a binary in `src/bin`
//! that builds an [`na_engine::ExperimentSpec`], runs it through the
//! parallel [`na_engine::Engine`], and renders the resulting rows.
//!
//! The sweep constants live in [`na_engine::paper`] — one copy shared
//! by the harnesses, the CLI, and the engine tests — and are
//! re-exported here so harness code keeps its historical imports.
//! This crate adds only presentation helpers: the fixed-width
//! [`Table`] writer, [`mean_std`], and [`pct`].

pub use na_engine::paper::{
    paper_grid, paper_mids, paper_sizes, two_qubit_cfg, two_qubit_cfg_no_zones,
};

/// The number of engine workers the harnesses run with: every core,
/// as the engine's determinism guarantee makes worker count
/// observable only in wall-clock time.
pub fn harness_engine() -> na_engine::Engine {
    na_engine::Engine::new()
}

/// Unwraps the compiled metrics of an engine row, panicking with the
/// experiment point and error on failure (harness sweeps are supposed
/// to stay inside the feasible region).
pub fn expect_metrics(record: &na_engine::RunRecord) -> &na_core::CompiledMetrics {
    record.compiled_metrics().unwrap_or_else(|| {
        panic!(
            "{} size {} MID {}: {:?}",
            record.benchmark, record.size, record.mid, record.outcome
        )
    })
}

/// Emits every row as JSON lines to stdout when `NATOMS_JSONL=1`, so
/// any figure binary doubles as a structured-data producer. Returns
/// `true` in JSONL mode — the caller must then skip its rendered
/// tables so stdout stays valid JSONL end to end.
#[must_use]
pub fn maybe_emit_jsonl(records: &[na_engine::RunRecord]) -> bool {
    let jsonl = std::env::var_os("NATOMS_JSONL").is_some_and(|v| v == "1");
    if jsonl {
        match na_engine::write_records(records, &mut na_engine::JsonlSink::stdout()) {
            // A closed consumer (`fig03 | head`) is a clean early stop.
            Err(e) if e.is_broken_pipe() => {}
            other => other.expect("stdout JSONL write"),
        }
    }
    jsonl
}

/// Mean and ±1σ of a sample (population σ, like the paper's plots).
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

/// A fixed-width text table writer for figure output.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a fraction as a signed percent string.
pub fn pct(frac: f64) -> String {
    format!("{:+.1}%", frac * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_match_paper_setup() {
        assert_eq!(paper_grid().num_sites(), 100);
        assert_eq!(paper_mids().first(), Some(&1.0));
        assert_eq!(paper_mids().last(), Some(&13.0));
        assert_eq!(paper_sizes().len(), 10);
        assert!(!two_qubit_cfg(3.0).native_multiqubit);
        assert!(two_qubit_cfg_no_zones(3.0).restriction.is_none());
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0]);
        assert!((m - 3.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["mid", "gates"]);
        t.row(vec!["1".into(), "592".into()]);
        t.row(vec!["13".into(), "299".into()]);
        let s = t.render();
        assert!(s.contains("mid"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn pct_formats_signed() {
        assert_eq!(pct(0.251), "+25.1%");
        assert_eq!(pct(-0.5), "-50.0%");
    }
}
