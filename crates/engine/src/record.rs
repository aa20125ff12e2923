//! Structured result rows.
//!
//! Every job produces exactly one [`RunRecord`]: flat metadata
//! identifying the experiment point plus a typed [`Outcome`]. Records
//! serialize to JSON lines (see [`crate::sink`]), replacing the seed's
//! ad-hoc `println!` output with rows downstream tooling can parse.

use crate::spec::{CircuitSource, Job, Task};
use na_arch::RestrictionPolicy;
use na_circuit::CircuitMetrics;
use na_core::{CompileError, CompiledMetrics};
use na_loss::CampaignResult;
use na_noise::SuccessBreakdown;
use serde::{Deserialize, Serialize};

/// The measured result of one job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// `Task::Compile`: metrics of the lowered source program and of
    /// the compiled schedule.
    Compiled {
        /// Metrics of the lowered circuit the scheduler consumed.
        source: CircuitMetrics,
        /// Post-compilation metrics.
        metrics: CompiledMetrics,
    },
    /// `Task::Success`: schedule metrics plus the analytic success
    /// factors at the requested noise point.
    Success {
        /// Post-compilation metrics.
        metrics: CompiledMetrics,
        /// Gate-success / coherence / duration breakdown.
        breakdown: SuccessBreakdown,
    },
    /// `Task::Crosstalk`: the serialization-vs-crosstalk trade factors.
    Crosstalk {
        /// Compiled depth.
        depth: u32,
        /// Spectator exposures in the schedule.
        exposures: u64,
        /// Probability of no crosstalk fault.
        p_crosstalk: f64,
        /// Gate-success × coherence (the standard model).
        p_standard: f64,
        /// Combined shot success.
        p_combined: f64,
    },
    /// `Task::Tolerance`: mean ± σ of the device fraction lost before
    /// a reload became unavoidable.
    Tolerance {
        /// Mean lost fraction over the trials.
        mean: f64,
        /// Population standard deviation.
        std: f64,
        /// Number of trials averaged.
        trials: u32,
    },
    /// `Task::LossTrace`: `success[k]` is predicted shot success at
    /// `k` holes; the vector ends where the strategy demanded a
    /// reload (or at `max_holes`).
    LossTrace {
        /// Per-hole-count success values.
        success: Vec<f64>,
    },
    /// `Task::Campaign`: the full campaign result (shot statistics,
    /// overhead ledger, optional timeline).
    Campaign(CampaignResult),
    /// The job failed — "Failed rows, not panics": infeasible points,
    /// caught panics, and expired deadlines are all data. Sweeps over
    /// infeasible regions (e.g. native arity at small MIDs) read
    /// `unroutable` to render a "-" cell instead of aborting.
    Failed {
        /// `true` for [`CompileError::UnroutableGate`].
        unroutable: bool,
        /// `true` when the job panicked and the engine isolated it
        /// (`error` carries the panic payload message).
        panicked: bool,
        /// `true` when the job's cooperative `--job-timeout` deadline
        /// expired ([`CompileError::DeadlineExceeded`]).
        deadline: bool,
        /// Human-readable error.
        error: String,
    },
}

impl Outcome {
    /// Builds the failure outcome for a compile error. Emits a trace
    /// instant (`deadline` / `unroutable` / `error`) on the thread
    /// that hit the failure boundary, so failed rows are visible on
    /// the causal timeline.
    pub fn from_error(e: &CompileError) -> Self {
        let unroutable = matches!(e, CompileError::UnroutableGate { .. });
        let deadline = matches!(e, CompileError::DeadlineExceeded);
        let name = if deadline {
            "deadline"
        } else if unroutable {
            "unroutable"
        } else {
            "error"
        };
        na_telemetry::trace::instant("fault", name, || vec![("message", e.to_string().into())]);
        Outcome::Failed {
            unroutable,
            panicked: false,
            deadline,
            error: e.to_string(),
        }
    }

    /// Builds the failure outcome for a panic the engine caught and
    /// isolated; `message` is the extracted panic payload. Emits a
    /// `panic` trace instant on the catching thread.
    pub fn from_panic(message: String) -> Self {
        na_telemetry::trace::instant("fault", "panic", || {
            vec![("message", message.as_str().into())]
        });
        Outcome::Failed {
            unroutable: false,
            panicked: true,
            deadline: false,
            error: message,
        }
    }

    /// `true` if the job failed.
    pub fn is_failed(&self) -> bool {
        matches!(self, Outcome::Failed { .. })
    }
}

/// One result row: flat experiment-point metadata plus the [`Outcome`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Job id (row order).
    pub id: u64,
    /// Circuit source label (benchmark name or raw label).
    pub benchmark: String,
    /// Requested size budget.
    pub size: u32,
    /// Qubits the generated program actually uses.
    pub actual_size: u32,
    /// Device dimensions, `"WxH"`.
    pub grid: String,
    /// Device hole count at job start.
    pub holes: usize,
    /// Maximum interaction distance.
    pub mid: f64,
    /// Whether native multiqubit gates were enabled.
    pub native: bool,
    /// Restriction policy, rendered (`"d/2"`, `"none"`, `"d"`, `"c=2"`).
    pub restriction: String,
    /// Circuit-generation seed.
    pub circuit_seed: u64,
    /// Task kind (`"compile"`, `"success"`, …).
    pub task: String,
    /// The loss-coping strategy, for tasks that exercise one.
    pub strategy: Option<String>,
    /// The noise point's two-qubit gate success probability, for
    /// tasks that price a schedule. Echoed into the row so harnesses
    /// key results on the record itself rather than reconstructing
    /// sweep coordinates from job-id arithmetic.
    pub noise_p2: Option<f64>,
    /// Whether this row's compilation was served from the engine's
    /// memoized compile cache; `None` for tasks that bypass it.
    ///
    /// Defined in *spec order* — `true` iff the job's compile key was
    /// already cached before the run or appears on an earlier job of
    /// the same spec — so the flag is identical at any worker count
    /// and rows stay byte-reproducible.
    pub cache_hit: Option<bool>,
    /// Per-span nanoseconds this job accrued on its worker thread
    /// (span name → ns), tagged only when telemetry is enabled.
    ///
    /// Wall-clock measurements, so — unlike every other field — not
    /// covered by the byte-reproducibility contract; in the default
    /// (telemetry-disabled) configuration the field is `None` and rows
    /// stay byte-identical at any worker count.
    pub timings: Option<std::collections::BTreeMap<String, u64>>,
    /// The pass pipeline's per-pass report for the compilation this
    /// job read from the cache (shared verbatim by every row on the
    /// same compile key), tagged only when telemetry is enabled.
    ///
    /// Wall-clock like [`RunRecord::timings`], so equally exempt from
    /// the byte-reproducibility contract; `None` in the default
    /// configuration and for tasks that bypass the compile cache.
    pub pass_report: Option<na_core::PassReport>,
    /// Per-shard span timings for campaign rows (indexed by shard,
    /// span name → ns on the shard's worker thread; an unsharded
    /// campaign is one shard), tagged only when telemetry is enabled.
    /// Wall-clock like [`RunRecord::timings`], so exempt from
    /// byte-reproducibility; `None` in the default configuration and
    /// for every other task.
    #[serde(default)]
    pub shard_timings: Option<Vec<std::collections::BTreeMap<String, u64>>>,
    /// The measurement.
    pub outcome: Outcome,
}

impl RunRecord {
    /// Assembles the row for a finished job.
    pub fn new(job: &Job, outcome: Outcome) -> Self {
        let actual_size = match &job.source {
            CircuitSource::Bench(b) => b.actual_size(job.size),
            CircuitSource::Raw { circuit, .. } => circuit.num_qubits(),
        };
        let strategy = match &job.task {
            Task::Tolerance { strategy, .. } | Task::LossTrace { strategy, .. } => {
                Some(strategy.name().to_string())
            }
            Task::Campaign { config, .. } | Task::ShardedCampaign { config, .. } => {
                Some(config.strategy.name().to_string())
            }
            _ => None,
        };
        let noise_p2 = match &job.task {
            Task::Success { params } | Task::Crosstalk { params, .. } => Some(params.p2),
            Task::LossTrace { params, .. } => Some(params.p2),
            Task::Campaign { config, .. } | Task::ShardedCampaign { config, .. } => {
                Some(1.0 - config.two_qubit_error)
            }
            _ => None,
        };
        RunRecord {
            id: job.id,
            benchmark: job.source.label().to_string(),
            size: job.size,
            actual_size,
            grid: format!("{}x{}", job.grid.width(), job.grid.height()),
            holes: job.grid.num_holes(),
            mid: job.config.mid,
            native: job.config.native_multiqubit,
            restriction: render_restriction(job.config.restriction),
            circuit_seed: job.circuit_seed,
            task: Task::name(&job.task).to_string(),
            strategy,
            noise_p2,
            cache_hit: None,
            timings: None,
            pass_report: None,
            shard_timings: None,
            outcome,
        }
    }

    /// The compiled metrics, when the outcome carries them.
    pub fn compiled_metrics(&self) -> Option<&CompiledMetrics> {
        match &self.outcome {
            Outcome::Compiled { metrics, .. } | Outcome::Success { metrics, .. } => Some(metrics),
            _ => None,
        }
    }

    /// The success probability, when the outcome carries one.
    pub fn probability(&self) -> Option<f64> {
        match &self.outcome {
            Outcome::Success { breakdown, .. } => Some(breakdown.probability()),
            Outcome::Crosstalk { p_combined, .. } => Some(*p_combined),
            _ => None,
        }
    }
}

/// Aggregated failure counts over one run's records, driving the
/// CLI's partial-failure summary line and exit code.
///
/// Renders as e.g. `3/120 rows failed: 2 unroutable, 1 panicked`
/// (zero categories are omitted; failures that are none of the typed
/// categories render as `other`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureSummary {
    /// Rows in the run.
    pub total: usize,
    /// Rows with a [`Outcome::Failed`] outcome.
    pub failed: usize,
    /// Failed rows flagged `unroutable`.
    pub unroutable: usize,
    /// Failed rows flagged `panicked`.
    pub panicked: usize,
    /// Failed rows flagged `deadline`.
    pub deadline: usize,
}

impl FailureSummary {
    /// Tallies `records`.
    pub fn of(records: &[RunRecord]) -> Self {
        let mut summary = FailureSummary {
            total: records.len(),
            ..FailureSummary::default()
        };
        for record in records {
            if let Outcome::Failed {
                unroutable,
                panicked,
                deadline,
                ..
            } = &record.outcome
            {
                summary.failed += 1;
                summary.unroutable += usize::from(*unroutable);
                summary.panicked += usize::from(*panicked);
                summary.deadline += usize::from(*deadline);
            }
        }
        summary
    }

    /// `true` when at least one row failed.
    pub fn any_failed(&self) -> bool {
        self.failed > 0
    }
}

impl std::fmt::Display for FailureSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{} rows failed", self.failed, self.total)?;
        if self.failed == 0 {
            return Ok(());
        }
        let other = self.failed - self.unroutable - self.panicked - self.deadline;
        let mut sep = ": ";
        for (count, label) in [
            (self.unroutable, "unroutable"),
            (self.panicked, "panicked"),
            (self.deadline, "deadline-exceeded"),
            (other, "other"),
        ] {
            if count > 0 {
                write!(f, "{sep}{count} {label}")?;
                sep = ", ";
            }
        }
        Ok(())
    }
}

fn render_restriction(policy: RestrictionPolicy) -> String {
    match policy {
        RestrictionPolicy::None => "none".to_string(),
        RestrictionPolicy::HalfDistance => "d/2".to_string(),
        RestrictionPolicy::FullDistance => "d".to_string(),
        RestrictionPolicy::Constant(c) => format!("c={c}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ExperimentSpec, Task};
    use na_arch::Grid;
    use na_benchmarks::Benchmark;
    use na_core::CompilerConfig;

    #[test]
    fn record_rows_serialize_and_round_trip() {
        let mut spec = ExperimentSpec::new("t", Grid::new(4, 4));
        spec.push(
            Benchmark::Cnu,
            9,
            0,
            CompilerConfig::new(3.0),
            Task::Compile,
        );
        let record = RunRecord::new(
            &spec.jobs()[0],
            Outcome::Failed {
                unroutable: false,
                panicked: false,
                deadline: false,
                error: "nope".into(),
            },
        );
        let line = serde_json::to_string(&record).unwrap();
        assert!(line.contains("\"benchmark\":\"CNU\""));
        assert!(line.contains("\"grid\":\"4x4\""));
        let back: RunRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn rows_without_cache_hit_field_still_deserialize() {
        // Rows written before the cache_hit field existed have no such
        // key; a missing key must read back as `None`, not an error.
        let mut spec = ExperimentSpec::new("t", Grid::new(4, 4));
        spec.push(Benchmark::Bv, 8, 0, CompilerConfig::new(2.0), Task::Compile);
        let record = RunRecord::new(
            &spec.jobs()[0],
            Outcome::Failed {
                unroutable: false,
                panicked: false,
                deadline: false,
                error: "x".into(),
            },
        );
        let mut line = serde_json::to_string(&record).unwrap();
        line = line.replace("\"cache_hit\":null,", "");
        assert!(!line.contains("cache_hit"));
        let back: RunRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back.cache_hit, None);
        assert_eq!(back, record);
    }

    #[test]
    fn failure_summary_renders_the_issue_shape() {
        let mut spec = ExperimentSpec::new("t", Grid::new(4, 4));
        for _ in 0..5 {
            spec.push(Benchmark::Bv, 8, 0, CompilerConfig::new(2.0), Task::Compile);
        }
        let jobs = spec.jobs();
        let ok = |job| RunRecord::new(job, Outcome::LossTrace { success: vec![] });
        let failed = |job, unroutable, panicked, deadline| {
            RunRecord::new(
                job,
                Outcome::Failed {
                    unroutable,
                    panicked,
                    deadline,
                    error: "e".into(),
                },
            )
        };
        let records = vec![
            ok(&jobs[0]),
            failed(&jobs[1], true, false, false),
            failed(&jobs[2], true, false, false),
            failed(&jobs[3], false, true, false),
            ok(&jobs[4]),
        ];
        let summary = FailureSummary::of(&records);
        assert!(summary.any_failed());
        assert_eq!(
            summary.to_string(),
            "3/5 rows failed: 2 unroutable, 1 panicked"
        );

        let clean = FailureSummary::of(&records[..1]);
        assert!(!clean.any_failed());
        assert_eq!(clean.to_string(), "0/1 rows failed");

        let untyped = FailureSummary::of(&[failed(&jobs[0], false, false, false)]);
        assert_eq!(untyped.to_string(), "1/1 rows failed: 1 other");

        let timed_out = FailureSummary::of(&[failed(&jobs[0], false, false, true)]);
        assert_eq!(
            timed_out.to_string(),
            "1/1 rows failed: 1 deadline-exceeded"
        );
    }

    #[test]
    fn panic_and_deadline_outcomes_are_typed() {
        let p = Outcome::from_panic("boom".into());
        assert_eq!(
            p,
            Outcome::Failed {
                unroutable: false,
                panicked: true,
                deadline: false,
                error: "boom".into(),
            }
        );
        let d = Outcome::from_error(&CompileError::DeadlineExceeded);
        assert_eq!(
            d,
            Outcome::Failed {
                unroutable: false,
                panicked: false,
                deadline: true,
                error: "job deadline exceeded".into(),
            }
        );
    }

    #[test]
    fn restriction_renders_compactly() {
        assert_eq!(render_restriction(RestrictionPolicy::HalfDistance), "d/2");
        assert_eq!(render_restriction(RestrictionPolicy::None), "none");
        assert_eq!(render_restriction(RestrictionPolicy::Constant(2.0)), "c=2");
    }
}
