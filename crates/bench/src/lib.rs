//! The paper's evaluation (Figs. 3–14, the §III-A MID-1 validation,
//! the ablations and the native-arity extension) as a registry of
//! figures, each a spec builder, a renderer over the engine's
//! [`RunRecord`] rows, and the paper's claims checked on those rows.
//! The `figures` binary runs them; see [`run`].

mod connectivity;
mod loss;
mod success;

use na_engine::{paper::paper_grid, write_records, Engine, ExperimentSpec, JsonlSink};
use na_engine::{Outcome, RunRecord};
use std::process::ExitCode;

/// One figure of the evaluation.
struct Figure {
    /// The figure's id: its `figures` argument and its spec's name.
    id: &'static str,
    /// Pushes the figure's jobs; a figure that needs a compiled point
    /// to set up its jobs reads it from the engine's cache.
    build: fn(&mut ExperimentSpec, &Engine),
    /// Prints the figure's tables to stdout.
    render: fn(&[RunRecord]),
    claims: &'static [Claim],
}

/// A qualitative result of the paper that a figure's rows must show.
/// Claims never read wall-clock values.
struct Claim {
    text: &'static str,
    /// `Err` names the offending cell.
    check: fn(&[RunRecord]) -> Result<(), String>,
}

/// Every figure, in the order `figures` runs them with no ids given.
static FIGURES: [Figure; 16] = [
    connectivity::VALIDATION_MID1,
    connectivity::FIG03,
    connectivity::FIG04,
    connectivity::FIG05,
    connectivity::FIG06,
    success::FIG07,
    success::FIG08,
    loss::FIG10,
    loss::FIG11,
    loss::FIG12,
    loss::FIG13,
    loss::FIG14,
    success::ABLATION_CROSSTALK,
    connectivity::ABLATION_LOOKAHEAD,
    connectivity::ABLATION_RESTRICTION,
    success::EXT_NATIVE_ARITY,
];

/// Runs `figures [ids…] [--jsonl]` on the arguments after the program
/// name: each figure prints its tables (with `--jsonl`, its rows as
/// JSON lines instead), then its claims are checked. Exit codes: 0
/// every claim holds, 1 a claim (or stdout) failed, 2 usage error.
pub fn run(args: impl IntoIterator<Item = String>) -> ExitCode {
    let (figures, jsonl) = match parse_args(args) {
        Ok(parsed) => parsed,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    let mut claims_hold = true;
    for figure in figures {
        // A fresh engine per figure keeps each row's `cache_hit` flag
        // independent of which other figures ran; every compiled
        // schedule is replayed through `na_core::verify`.
        let engine = Engine::new().verified();
        let records = engine.run(&figure.spec(&engine));
        if !jsonl {
            (figure.render)(&records);
        } else if let Err(e) = write_records(&records, &mut JsonlSink::stdout()) {
            // A closed consumer (`figures --jsonl | head`) is a clean
            // early stop.
            if e.is_broken_pipe() {
                return ExitCode::SUCCESS;
            }
            eprintln!("figures: {e}");
            return ExitCode::FAILURE;
        }
        for failure in figure.failed_claims(&records) {
            eprintln!("{failure}");
            claims_hold = false;
        }
    }
    if claims_hold {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The figures to run and the `--jsonl` flag. No ids selects every
/// figure in registry order; a repeated id runs once, at its first
/// position. An unknown argument is a usage error naming the ids.
fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(Vec<&'static Figure>, bool), String> {
    let (mut figures, mut jsonl) = (Vec::<&Figure>::new(), false);
    for arg in args {
        if arg == "--jsonl" {
            jsonl = true;
        } else if let Some(figure) = FIGURES.iter().find(|f| f.id == arg) {
            if !figures.iter().any(|f| f.id == arg) {
                figures.push(figure);
            }
        } else {
            let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
            let ids = ids.join(" ");
            return Err(format!(
                "unknown argument `{arg}`\nusage: figures [ids…] [--jsonl]\nids: {ids}"
            ));
        }
    }
    if figures.is_empty() {
        figures = FIGURES.iter().collect();
    }
    Ok((figures, jsonl))
}

impl Figure {
    /// The figure's experiment on the paper's device, named by its id,
    /// built for `engine` to run.
    fn spec(&self, engine: &Engine) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(self.id, paper_grid());
        (self.build)(&mut spec, engine);
        spec
    }

    /// One message per failed claim, naming the figure, the claim and
    /// the offending cell. A figure's claims read successful rows, so
    /// a failed job is reported alone.
    fn failed_claims(&self, records: &[RunRecord]) -> Vec<String> {
        let failed = |claim: &Claim| {
            let cell = (claim.check)(records).err()?;
            Some(format!("{}: claim failed: {}: {cell}", self.id, claim.text))
        };
        match failed(&JOBS_RUN) {
            Some(failure) => vec![failure],
            None => self.claims.iter().filter_map(failed).collect(),
        }
    }
}

/// Every figure's first claim: its jobs ran and their schedules
/// verified. Only points the compiler reports unroutable may fail.
const JOBS_RUN: Claim = Claim {
    text: "every job runs and its schedule verifies",
    check: |records| {
        let failed =
            |r: &&RunRecord| matches!(r.outcome, Outcome::Failed { unroutable, .. } if !unroutable);
        match records.iter().find(failed) {
            Some(r) => Err(format!("row {}: {:?}", r.id, r.outcome)),
            None => Ok(()),
        }
    },
};

/// `Ok` when `holds` is true of every cell's value, else `Err` naming
/// the first cell where it is not.
fn every<T: std::fmt::Debug>(
    cells: impl IntoIterator<Item = (String, T)>,
    holds: impl Fn(&T) -> bool,
) -> Result<(), String> {
    match cells.into_iter().find(|(_, value)| !holds(value)) {
        Some((cell, value)) => Err(format!("{cell}: {value:?}")),
        None => Ok(()),
    }
}

/// Unwraps the compiled metrics of an engine row, panicking with the
/// experiment point and error on failure (figure sweeps are supposed
/// to stay inside the feasible region).
fn expect_metrics(record: &RunRecord) -> &na_core::CompiledMetrics {
    record.compiled_metrics().unwrap_or_else(|| {
        panic!(
            "{} size {} MID {}: {:?}",
            record.benchmark, record.size, record.mid, record.outcome
        )
    })
}

/// Table headers: `first`, then one `MID m` column per MID.
fn mid_headers(first: &str, mids: &[f64]) -> Vec<String> {
    std::iter::once(first.to_string())
        .chain(mids.iter().map(|m| format!("MID {m}")))
        .collect()
}

/// Mean and ±1σ of a sample (population σ, like the paper's plots).
pub(crate) fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

/// A fixed-width text table writer for figure output.
pub(crate) struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
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
pub(crate) fn pct(frac: f64) -> String {
    format!("{:+.1}%", frac * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, PoisonError};

    /// Telemetry counters are process-global: a counted figure run and
    /// any other compile work in this test binary take turns.
    pub(crate) static COUNTED: Mutex<()> = Mutex::new(());

    /// The parsed ids and `--jsonl` flag of an argument list.
    fn args(list: &[&str]) -> Result<(Vec<&'static str>, bool), String> {
        let (figures, jsonl) = parse_args(list.iter().map(|s| s.to_string()))?;
        Ok((figures.iter().map(|f| f.id).collect(), jsonl))
    }

    #[test]
    fn registry_ids_are_unique_and_name_their_specs() {
        // Building Fig. 11's spec compiles the points that tune it.
        let _serial = COUNTED.lock().unwrap_or_else(PoisonError::into_inner);
        let mut seen = std::collections::HashSet::new();
        for figure in &FIGURES {
            assert!(seen.insert(figure.id), "duplicate id {}", figure.id);
            assert_eq!(figure.spec(&Engine::new()).name, figure.id);
        }
    }

    #[test]
    fn no_ids_selects_every_figure_in_registry_order() {
        let all: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        assert_eq!(args(&[]).unwrap(), (all, false));
    }

    #[test]
    fn jsonl_is_accepted_in_any_position() {
        for list in [
            &["--jsonl", "fig03", "fig14"][..],
            &["fig03", "--jsonl", "fig14"],
            &["fig03", "fig14", "--jsonl"],
        ] {
            assert_eq!(args(list).unwrap(), (vec!["fig03", "fig14"], true));
        }
        assert_eq!(args(&["--jsonl"]).unwrap().0.len(), FIGURES.len());
    }

    #[test]
    fn repeated_ids_run_once_at_their_first_position() {
        let parsed = args(&["fig14", "fig03", "fig14", "fig03"]).unwrap();
        assert_eq!(parsed, (vec!["fig14", "fig03"], false));
    }

    #[test]
    fn unknown_ids_and_flags_are_usage_errors_naming_the_ids() {
        for arg in ["nosuch", "--bogus", "-j"] {
            let err = args(&["fig03", arg]).expect_err("rejected");
            assert!(
                err.starts_with(&format!("unknown argument `{arg}`")),
                "{err}"
            );
            assert!(err.contains("usage: figures"), "{err}");
            assert!(FIGURES.iter().all(|f| err.contains(f.id)), "{err}");
        }
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
        let mut t = Table::new(["mid", "gates"]);
        t.row(vec!["1".into(), "592".into()]);
        t.row(vec!["13".into(), "299".into()]);
        let s = t.render();
        assert!(s.contains("mid"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn pct_formats_signed() {
        assert_eq!(pct(0.251), "+25.1%");
        assert_eq!(pct(-0.5), "-50.0%");
    }
}
