//! The execution engine: a worker pool that fans jobs out across
//! cores and reassembles results in job-id order.
//!
//! Every job is a fan of work units over one compiled point: a
//! campaign is a fan of one unit per shard of its shot plan, and every
//! other job a fan of one unit. The pool runs all units as peers. The
//! first unit of a fan to run resolves the job's point (circuit, cache
//! lookup, verification), and the last to finish builds the job's row.
//!
//! Determinism contract: a job's result depends only on the job's own
//! fields (every RNG it touches is seeded from values stored in the
//! job), a campaign's shards merge in shard-index order, and each row
//! lands in its job's fan, indexed by job id. Running the same spec
//! with 1 worker or N workers therefore produces identical —
//! byte-identical once serialized — result rows.

use crate::cache::{CacheKey, CacheStats, CompileCache, CompiledPoint};
use crate::record::{Outcome, RunRecord};
use crate::spec::{ExperimentSpec, Job, Task};
use na_benchmarks::{Benchmark, Workload};
use na_circuit::Circuit;
use na_core::CompileError;
use na_loss::{CampaignResult, ShotRange, Strategy, StrategyState};
use na_noise::{
    crosstalk_exposures, crosstalk_success, success_probability, success_with_crosstalk,
};
use na_telemetry::Span;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// The parallel experiment executor. Owns worker configuration and
/// the shared [`CompileCache`]; cheap to clone specs through, reusable
/// across many [`Engine::run`] calls (the cache persists between
/// runs).
#[derive(Debug)]
pub struct Engine {
    workers: usize,
    cache: Arc<CompileCache>,
    verify: bool,
    job_timeout: Option<Duration>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with one worker per available core.
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Engine::with_workers(workers)
    }

    /// An engine with an explicit worker count (`1` = serial).
    pub fn with_workers(workers: usize) -> Self {
        Engine {
            workers: workers.max(1),
            cache: Arc::new(CompileCache::new()),
            verify: false,
            job_timeout: None,
        }
    }

    /// Sets a per-job cooperative deadline: a job still running after
    /// `timeout` stops at its next stage boundary (compile stages,
    /// campaign shots) with a typed deadline-exceeded [`Outcome::Failed`]
    /// row while the rest of the spec completes. Surfaced on the CLI
    /// as `--job-timeout <secs>`.
    pub fn with_job_timeout(mut self, timeout: Duration) -> Self {
        self.job_timeout = Some(timeout);
        self
    }

    /// Enables schedule verification: every compiled circuit a job
    /// starts from is replayed through [`na_core::verify`] (once per
    /// compilation point) before it is used, and a constraint
    /// violation becomes an [`Outcome::Failed`] row. Used by validation
    /// harnesses; off by default (verification replays the whole
    /// schedule).
    pub fn verified(mut self) -> Self {
        self.verify = true;
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The shared compilation cache (persists across runs).
    pub fn cache(&self) -> &CompileCache {
        &self.cache
    }

    /// Counters of the shared compilation cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Executes every job of `spec` and returns the records in job-id
    /// order. Job-level failures (e.g. unroutable points) are reported
    /// as [`Outcome::Failed`] rows, not panics — sweeps over
    /// infeasible regions are data, not errors.
    pub fn run(&self, spec: &ExperimentSpec) -> Vec<RunRecord> {
        let jobs = spec.jobs();
        // Deterministic per-row cache flags, derived in spec order
        // *before* any job executes (see `RunRecord::cache_hit`):
        // execution order must not leak into the rows.
        let cache_flags = self.cache_hit_flags(jobs);
        // One fan per job; the pool's work items are its units, in job
        // order and, within a campaign, shard order.
        let fans: Vec<Fan> = jobs.iter().map(Fan::new).collect();
        let items: Vec<(usize, usize)> = fans
            .iter()
            .enumerate()
            .flat_map(|(i, fan)| (0..fan.units.len()).map(move |unit| (i, unit)))
            .collect();

        let cursor = AtomicUsize::new(0);
        let threads = self.workers.min(items.len()).max(1);
        na_telemetry::gauge_max(na_telemetry::Gauge::EngineWorkers, threads as u64);
        if threads == 1 {
            for &(fan, unit) in &items {
                self.run_unit(&fans[fan], unit);
            }
        } else {
            std::thread::scope(|scope| {
                let (cursor, items, fans) = (&cursor, &items, &fans);
                for worker in 0..threads {
                    scope.spawn(move || {
                        // Workers trace onto track ids 1..=N so the
                        // Perfetto rows read as the pool's threads.
                        na_telemetry::trace::set_thread_tid(worker as u64 + 1);
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(&(fan, unit)) = items.get(i) else {
                                break;
                            };
                            self.run_unit(&fans[fan], unit);
                        }
                        // Merge this worker's recorder and trace buffer
                        // into the global state before the scope joins
                        // it.
                        na_telemetry::flush_local();
                    });
                }
            });
        }

        let records: Vec<RunRecord> = fans
            .into_iter()
            .zip(cache_flags)
            .map(|(fan, cache_hit)| {
                let mut record = fan.row.into_inner().expect("every job ran");
                record.cache_hit = Some(cache_hit);
                record
            })
            .collect();
        // Failure-domain counters (no-ops while telemetry is off).
        for record in &records {
            if let Outcome::Failed {
                panicked, deadline, ..
            } = &record.outcome
            {
                na_telemetry::add(na_telemetry::Counter::JobsFailed, 1);
                if *panicked {
                    na_telemetry::add(na_telemetry::Counter::JobsPanicked, 1);
                }
                if *deadline {
                    na_telemetry::add(na_telemetry::Counter::DeadlinesExceeded, 1);
                }
            }
        }
        records
    }

    /// Runs unit `unit` of `fan` inside its own failure domain
    /// ([`Engine::isolated`]), and builds the job's row if it is the
    /// fan's last unit to finish. Units of one job are peers of every
    /// other job's units on the pool, so a panicking or expired unit
    /// fails only its own job's row.
    ///
    /// A whole job runs under a `job` span in the fault scope
    /// `job{id}`. A campaign's unit runs under a `shard` span parented
    /// to the campaign's job span; shard `k` of a sharded campaign runs
    /// in the fault scope `job{id}.shard{k}`, so chaos plans can target
    /// a single shard, while the one shard of an unsharded campaign
    /// keeps the job's own scope `job{id}`.
    fn run_unit(&self, fan: &Fan, unit: usize) {
        let job = fan.job;
        let campaign = fan.is_campaign();
        let scope = match job.task {
            Task::ShardedCampaign { .. } => format!("job{}.shard{unit}", job.id),
            _ => format!("job{}", job.id),
        };
        let done = {
            let _span = if campaign {
                na_telemetry::span_with(Span::Shard, fan.job_span_id, || {
                    vec![("job", job.id.into()), ("shard", unit.into())]
                })
            } else {
                na_telemetry::span_with(Span::Job, 0, || {
                    vec![("job", job.id.into()), ("task", job.task.name().into())]
                })
            };
            // Span totals are thread-local, so the window since the
            // mark is exactly this unit's work on this worker thread.
            let mark = na_telemetry::is_enabled().then(na_telemetry::mark);
            let result = self.isolated(scope, || self.execute_unit(fan, unit));
            if campaign {
                na_telemetry::add(na_telemetry::Counter::CampaignShards, 1);
            }
            UnitDone {
                result,
                timings: mark.map(|mark| mark.deltas()),
            }
        };
        fan.units[unit].set(done).expect("unit slot written once");
        // `AcqRel` so the last finisher observes every other unit's
        // completed write before building the row.
        if fan.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            fan.row.set(fan.build_row()).expect("row written once");
        }
    }

    /// One unit's work: the fan's compiled point (resolved by the
    /// job's first unit to run), then the job's task on it — for a
    /// campaign, just this unit's shard. A whole task whose budget ran
    /// out while it ran fails its row; campaigns check their deadline
    /// at shot boundaries instead.
    fn execute_unit(&self, fan: &Fan, unit: usize) -> Outcome {
        let (circuit, point) = match fan.point(&self.cache, self.verify) {
            Ok(point) => point,
            Err(failed) => return failed,
        };
        let outcome = run_task(fan.job, &circuit, &point, unit, &fan.ranges);
        if fan.is_campaign() {
            return outcome;
        }
        // A loss walk's recompile that runs out of the job's budget
        // reads as a forced reload and ends the walk early: fail the
        // row rather than report the truncated measurement.
        match na_faults::check_deadline() {
            Err(e) if !outcome.is_failed() => Outcome::from_error(&e.into()),
            _ => outcome,
        }
    }

    /// The failure domain every unit of pool work runs in: the fault
    /// scope `scope` (deterministic failpoint hit counts at any worker
    /// count), a fresh copy of the engine's per-job deadline budget,
    /// and a panic boundary. Inside it, the `engine.execute_job`
    /// failpoint and a deadline check run before `work`, so a unit
    /// whose budget is already spent fails typed without doing any.
    /// A caught panic comes back as its typed [`Outcome::from_panic`]
    /// — the worker keeps draining the cursor and every other row is
    /// unaffected.
    // The Err side carries a full `Outcome` so a failed unit slots into
    // its row verbatim; units are coarse, so the extra bytes per return
    // never matter.
    #[allow(clippy::result_large_err)]
    fn isolated<T>(&self, scope: String, work: impl FnOnce() -> T) -> Result<T, Outcome> {
        let _scope = na_faults::scope(scope);
        let _deadline = na_faults::push_deadline(match self.job_timeout {
            Some(budget) => na_faults::Deadline::after(budget),
            None => na_faults::Deadline::UNBOUNDED,
        });
        catch_unwind(AssertUnwindSafe(|| -> Result<T, Outcome> {
            na_faults::point("engine.execute_job")
                .map_err(CompileError::from)
                .and_then(|()| na_faults::check_deadline().map_err(CompileError::from))
                .map_err(|e| Outcome::from_error(&e))?;
            Ok(work())
        }))
        .unwrap_or_else(|payload| {
            // An unwind mid-placement may have left this worker's
            // reusable scratch half-updated; start the next unit from a
            // fresh one. (The compile cache protects itself with its
            // own claim guard and poison-recovering locks.)
            crate::cache::reset_thread_scratch();
            Err(Outcome::from_panic(panic_message(payload.as_ref())))
        })
    }

    /// `cache_hit` for every job: whether the job's compile key is
    /// already cached or claimed by an earlier job of this spec.
    fn cache_hit_flags(&self, jobs: &[Job]) -> Vec<bool> {
        let mut claimed: HashSet<CacheKey> = HashSet::new();
        // A benchmark circuit's fingerprint depends only on
        // (benchmark, size, seed); memoize it so a sweep pricing one
        // compilation at many noise points generates the circuit once
        // here, not once per job.
        let mut bench_fingerprints: HashMap<(Benchmark, u32, u64), u64> = HashMap::new();
        jobs.iter()
            .map(|job| {
                let circuit_fp = match &job.workload {
                    Workload::Custom { circuit, .. } => circuit.fingerprint(),
                    Workload::Bench(b) => *bench_fingerprints
                        .entry((*b, job.size, job.circuit_seed))
                        .or_insert_with(|| b.generate(job.size, job.circuit_seed).fingerprint()),
                };
                let key = CacheKey {
                    circuit: circuit_fp,
                    grid: job.grid.fingerprint(),
                    config: job.task.compile_config(&job.config).fingerprint(),
                };
                self.cache.contains(&key) || !claimed.insert(key)
            })
            .collect()
    }
}

/// One job's work on the pool and the shared state of its units.
struct Fan<'a> {
    job: &'a Job,
    /// A campaign's shard plan, from [`na_loss::shard_ranges`]; empty
    /// for every other task.
    ranges: Vec<ShotRange>,
    /// Per-unit results, indexed by unit (= shard): one per shard of a
    /// campaign, one for a whole job, none for a campaign whose shard
    /// plan is invalid (its row is written when the fan is built).
    units: Vec<OnceLock<UnitDone>>,
    /// Units still running; the worker that decrements this to zero
    /// builds the job's row.
    remaining: AtomicUsize,
    /// Resolved once, by the first unit to run, so a job costs one
    /// cache lookup at any shard count. The row builder releases it, so
    /// a long spec does not hold every finished job's circuit.
    point: Mutex<Option<FanPoint>>,
    /// Trace id of a campaign's job span (0 = untraced, and for every
    /// other task); shard and merge spans parent under it.
    job_span_id: u64,
    /// A campaign's job span, opened at fan creation; the merging
    /// worker takes and ends it on the job's virtual track.
    job_span: Mutex<Option<na_telemetry::OpenSpan>>,
    /// The job's row.
    row: OnceLock<RunRecord>,
}

/// A job's circuit and compiled point, or the typed failure of its
/// cache lookup.
type FanPoint = Result<(Arc<Circuit>, Arc<CompiledPoint>), Outcome>;

/// What one unit produced: its outcome, or the typed failure of its
/// failure domain (caught panic, injected fault, deadline spent at
/// entry).
#[derive(Debug)]
struct UnitDone {
    result: Result<Outcome, Outcome>,
    /// Span nanoseconds this unit accrued on its worker thread (`None`
    /// while telemetry is disabled).
    timings: Option<BTreeMap<String, u64>>,
}

impl<'a> Fan<'a> {
    /// The fan of `job`: one unit per shard of a campaign's plan (the
    /// campaign's job span opens here, detached, since it outlives any
    /// single worker), one unit for any other task. A campaign whose
    /// shard plan is invalid fails typed before any work starts.
    fn new(job: &'a Job) -> Self {
        let (ranges, units, row) = match job.task.campaign() {
            None => (Vec::new(), 1, OnceLock::new()),
            Some((config, _, shards)) => match na_loss::shard_ranges(config, shards) {
                Ok(ranges) => {
                    let units = ranges.len();
                    (ranges, units, OnceLock::new())
                }
                Err(plan) => {
                    let failed = Outcome::Failed {
                        unroutable: false,
                        panicked: false,
                        deadline: false,
                        error: plan.to_string(),
                    };
                    (Vec::new(), 0, OnceLock::from(RunRecord::new(job, failed)))
                }
            },
        };
        let job_span = (!ranges.is_empty()).then(|| na_telemetry::span_detached(Span::CampaignJob));
        Fan {
            job,
            ranges,
            units: (0..units).map(|_| OnceLock::new()).collect(),
            remaining: AtomicUsize::new(units),
            point: Mutex::new(None),
            job_span_id: job_span.as_ref().map_or(0, na_telemetry::OpenSpan::id),
            job_span: Mutex::new(job_span),
            row,
        }
    }

    fn is_campaign(&self) -> bool {
        !self.ranges.is_empty()
    }

    /// The job's circuit and compiled point: the first unit to run
    /// generates the circuit and looks it up in the shared cache (at
    /// [`Task::compile_config`]). On a verified engine the schedule is
    /// replayed through the constraint verifier before any unit uses
    /// it (once per compilation point, see [`CompiledPoint::verify`]).
    #[allow(clippy::result_large_err)]
    fn point(&self, cache: &CompileCache, verify: bool) -> FanPoint {
        let job = self.job;
        let (circuit, point) = self
            .point
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_or_insert_with(|| {
                let circuit = job.workload.circuit(job.size, job.circuit_seed);
                let point = cache
                    .lookup(&circuit, &job.grid, &job.task.compile_config(&job.config))
                    .map_err(|e| Outcome::from_error(&e))?;
                Ok((circuit, point))
            })
            .clone()?;
        if verify {
            point
                .verify(&job.grid)
                .map_err(|e| Outcome::from_error(&e))?;
        }
        Ok((circuit, point))
    }

    /// The job's row, once every unit has finished.
    ///
    /// A whole job's row is its unit's outcome. A unit that ran to an
    /// outcome tags it, while telemetry is on, with the unit's span
    /// nanoseconds (wall-clock, hence deliberately absent in the
    /// deterministic default configuration) and the point's pass
    /// report (rows sharing a compile key share the compiling thread's
    /// report: it describes the artifact, not the lookup); a
    /// failure-domain verdict is the bare row.
    ///
    /// A campaign's shard results merge in shard-index order (so the
    /// row does not depend on completion order), and a failed shard —
    /// typed error, caught panic, expired deadline — fails the whole
    /// row with the lowest-indexed failure. Telemetry-tagged rows carry
    /// the per-span sums in `timings` and the per-shard breakdown in
    /// `shard_timings`.
    fn build_row(&self) -> RunRecord {
        let job = self.job;
        let report = self
            .point
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .and_then(Result::ok)
            .and_then(|(_, point)| point.report.clone());
        let done: Vec<&UnitDone> = self
            .units
            .iter()
            .map(|slot| slot.get().expect("every unit ran"))
            .collect();
        if !self.is_campaign() {
            return match &done[0].result {
                Err(failed) => RunRecord::new(job, failed.clone()),
                Ok(outcome) => {
                    let mut record = RunRecord::new(job, outcome.clone());
                    if let Some(timings) = &done[0].timings {
                        record.timings = (!timings.is_empty()).then(|| timings.clone());
                        record.pass_report = report;
                    }
                    record
                }
            };
        }
        let merge_span = na_telemetry::span_with(Span::Merge, self.job_span_id, || {
            vec![("job", job.id.into()), ("shards", self.ranges.len().into())]
        });
        let outcome = 'merge: {
            let mut merged: Option<CampaignResult> = None;
            for shard in &done {
                match &shard.result {
                    Ok(Outcome::Campaign(result)) => match &mut merged {
                        None => merged = Some(result.clone()),
                        Some(m) => m.merge(result),
                    },
                    Ok(failed) | Err(failed) => break 'merge failed.clone(),
                }
            }
            Outcome::Campaign(merged.expect("shard plans are never empty"))
        };
        let mut record = RunRecord::new(job, outcome);
        if na_telemetry::is_enabled() {
            let mut sums = BTreeMap::new();
            for shard in &done {
                for (stage, ns) in shard.timings.iter().flatten() {
                    *sums.entry(stage.clone()).or_insert(0) += ns;
                }
            }
            if !sums.is_empty() {
                record.timings = Some(sums);
            }
            record.shard_timings = Some(
                done.iter()
                    .map(|shard| shard.timings.clone().unwrap_or_default())
                    .collect(),
            );
            record.pass_report = report;
        }
        // The campaign's job span, opened at fan creation, ends on the
        // job's own virtual track (it spans multiple workers).
        drop(merge_span);
        let job_span = self
            .job_span
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(job_span) = job_span {
            job_span.end_on_track(na_telemetry::trace::JOB_TRACK_BASE + job.id, || {
                vec![
                    ("job", job.id.into()),
                    ("task", job.task.name().into()),
                    ("shards", self.ranges.len().into()),
                ]
            });
        }
        record
    }
}

/// Renders a caught panic payload: the `&str`/`String` message panics
/// carry in practice, or a typed placeholder for exotic payloads.
/// Deterministic for deterministic panic sites (`panic!` with a fixed
/// or value-formatted message), which keeps injected-panic rows
/// byte-reproducible.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Measures unit `unit` of a job's task on its compiled point:
/// the whole task, or shard `unit` of a campaign's shard plan
/// `ranges`. Infallible by construction: errors become
/// [`Outcome::Failed`] rows.
fn run_task(
    job: &Job,
    circuit: &Circuit,
    point: &CompiledPoint,
    unit: usize,
    ranges: &[ShotRange],
) -> Outcome {
    let compiled = &point.compiled;
    // The loss tasks start from one strategy state around the cached
    // point (the job's MID is the hardware MID).
    let loss_state = |strategy: Strategy| {
        StrategyState::with_compiled(
            circuit,
            &job.grid,
            job.config.mid,
            strategy,
            None,
            Arc::clone(compiled),
            point.summary(),
        )
    };
    match &job.task {
        Task::Compile => Outcome::Compiled {
            source: compiled.circuit().metrics(),
            metrics: compiled.metrics(),
        },
        Task::Success { params } => Outcome::Success {
            metrics: compiled.metrics(),
            breakdown: success_probability(compiled, params),
        },
        Task::Crosstalk { params, crosstalk } => Outcome::Crosstalk {
            depth: compiled.metrics().depth,
            exposures: crosstalk_exposures(compiled, crosstalk),
            p_crosstalk: crosstalk_success(compiled, crosstalk),
            p_standard: success_probability(compiled, params).probability(),
            p_combined: success_with_crosstalk(compiled, params, crosstalk),
        },
        Task::Tolerance {
            strategy,
            trials,
            seed,
        } => {
            let (mean, std) = na_loss::mean_loss_tolerance(&loss_state(*strategy), *trials, *seed);
            Outcome::Tolerance {
                mean,
                std,
                trials: *trials,
            }
        }
        // The Fig. 11 measurement: predicted shot success before the
        // first loss and after every loss the strategy absorbs, with
        // the fixup SWAPs' penalty (1 for a recompiled schedule).
        Task::LossTrace {
            strategy,
            max_holes,
            params,
            seed,
        } => {
            let mut state = loss_state(*strategy);
            let mut success = vec![success_probability(compiled, params).probability()];
            na_loss::loss_walk(&mut state, *seed, *max_holes as usize, |state| {
                let p = success_probability(state.compiled(), params).probability();
                success.push(p * state.swap_penalty(params.p2));
            });
            Outcome::LossTrace { success }
        }
        // One shard's shot range with its deterministically derived RNG
        // streams, reusing the point's interaction summary. Shard 0 of
        // a one-shard plan draws exactly the unsharded campaign's
        // streams, so it reproduces `na_loss::run_campaign` bit for bit.
        Task::Campaign { config, loss } | Task::ShardedCampaign { config, loss, .. } => {
            na_loss::run_campaign_shard(
                circuit,
                &job.grid,
                Arc::clone(compiled),
                point.summary(),
                &loss.build(),
                config,
                u32::try_from(unit).expect("shard counts are u32"),
                ranges[unit],
            )
            .map_or_else(|e| Outcome::from_error(&e), Outcome::Campaign)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::LossSpec;
    use na_arch::Grid;
    use na_benchmarks::Benchmark;
    use na_core::CompilerConfig;

    #[test]
    fn failed_jobs_become_rows_not_panics() {
        let mut spec = ExperimentSpec::new("t", Grid::new(5, 5));
        // Native Toffoli at MID 1 is unroutable by design.
        spec.push(
            Benchmark::Cnu,
            9,
            0,
            CompilerConfig::new(1.0),
            Task::Compile,
        );
        let records = Engine::with_workers(2).run(&spec);
        assert_eq!(records.len(), 1);
        match &records[0].outcome {
            Outcome::Failed { unroutable, .. } => assert!(unroutable),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn empty_spec_runs_to_empty_result() {
        let spec = ExperimentSpec::new("t", Grid::new(4, 4));
        assert!(Engine::new().run(&spec).is_empty());
    }

    #[test]
    fn cache_persists_across_runs() {
        let engine = Engine::with_workers(2);
        let mut spec = ExperimentSpec::new("t", Grid::new(6, 6));
        spec.push(Benchmark::Bv, 8, 0, CompilerConfig::new(3.0), Task::Compile);
        engine.run(&spec);
        engine.run(&spec);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    /// Every task reads its compiled point from the cache exactly once
    /// per job (once per fan for a campaign, at any shard count): run
    /// one job per task kind on a fresh engine and count the lookups.
    #[test]
    fn every_task_does_one_cache_lookup_per_job() {
        let params = na_noise::NoiseParams::neutral_atom(1e-3);
        let tasks = vec![
            Task::Compile,
            Task::Success { params },
            Task::Crosstalk {
                params,
                crosstalk: na_noise::CrosstalkParams::default(),
            },
            Task::Tolerance {
                strategy: Strategy::VirtualRemap,
                trials: 3,
                seed: 0,
            },
            Task::LossTrace {
                strategy: Strategy::VirtualRemap,
                max_holes: 3,
                params,
                seed: 0,
            },
            Task::Campaign {
                config: na_loss::CampaignConfig::new(4.0, Strategy::VirtualRemap)
                    .with_target(na_loss::ShotTarget::Attempts(1)),
                loss: LossSpec::new(0),
            },
            Task::ShardedCampaign {
                config: na_loss::CampaignConfig::new(4.0, Strategy::VirtualRemap)
                    .with_target(na_loss::ShotTarget::Attempts(3)),
                loss: LossSpec::new(0),
                shards: 3,
            },
        ];
        for task in tasks {
            let engine = Engine::with_workers(1);
            let mut spec = ExperimentSpec::new("t", Grid::new(6, 6));
            spec.push(Benchmark::Bv, 8, 0, CompilerConfig::new(4.0), task.clone());
            let records = engine.run(&spec);
            assert!(!records[0].outcome.is_failed(), "{:?}", records[0].outcome);
            assert_eq!(
                engine.cache_stats().lookups(),
                1,
                "Task::{} cache lookups",
                task.name()
            );
        }
    }

    #[test]
    fn a_walk_past_its_budget_fails_the_row() {
        // Warm the cache, so the budgeted run spends its millisecond in
        // the walk's recompiles, not in the initial compile.
        let engine = Engine::with_workers(1);
        let mut spec = ExperimentSpec::new("t", Grid::new(10, 10));
        let task = Task::Tolerance {
            strategy: Strategy::FullRecompile,
            trials: 10,
            seed: 0,
        };
        spec.push(Benchmark::Cuccaro, 30, 0, CompilerConfig::new(4.0), task);
        assert!(!engine.run(&spec)[0].outcome.is_failed());
        let engine = engine.with_job_timeout(Duration::from_millis(1));
        match &engine.run(&spec)[0].outcome {
            Outcome::Failed { deadline, .. } => assert!(deadline),
            other => panic!("expected a deadline row, got {other:?}"),
        }
    }

    #[test]
    fn campaign_replicas_share_one_compilation_and_summary() {
        // Three replicas of one campaign point (different seeds) must
        // compile once; the other two are cache hits, rendered as
        // deterministic Some(true) flags in spec order.
        let engine = Engine::with_workers(2);
        let mut spec = ExperimentSpec::new("t", Grid::new(8, 8));
        for seed in 0..3u64 {
            spec.push(
                Benchmark::Bv,
                10,
                0,
                CompilerConfig::new(4.0),
                Task::Campaign {
                    config: na_loss::CampaignConfig::new(4.0, na_loss::Strategy::CompileSmall)
                        .with_target(na_loss::ShotTarget::Attempts(10))
                        .with_seed(seed),
                    loss: LossSpec::new(seed),
                },
            );
        }
        let records = engine.run(&spec);
        let stats = engine.cache_stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (1, 2, 1));
        let flags: Vec<Option<bool>> = records.iter().map(|r| r.cache_hit).collect();
        assert_eq!(flags, vec![Some(false), Some(true), Some(true)]);
        assert!(records.iter().all(|r| !r.outcome.is_failed()));
    }

    #[test]
    fn campaign_through_the_cache_matches_direct_run_campaign() {
        // The cached-compile + shared-summary path must reproduce
        // na_loss::run_campaign bit for bit (minus measured wall
        // clock, which CompileSmall never records).
        let cfg = na_loss::CampaignConfig::new(4.0, na_loss::Strategy::CompileSmallReroute)
            .with_target(na_loss::ShotTarget::Attempts(40))
            .with_seed(9);
        let circuit = Benchmark::Bv.generate(16, 0);
        let grid = Grid::new(8, 8);
        let direct =
            na_loss::run_campaign(&circuit, &grid, LossSpec::new(3).build(), &cfg).unwrap();

        let mut spec = ExperimentSpec::new("t", grid.clone());
        spec.push(
            Benchmark::Bv,
            16,
            0,
            CompilerConfig::new(4.0),
            Task::Campaign {
                config: cfg,
                loss: LossSpec::new(3),
            },
        );
        let records = Engine::with_workers(1).run(&spec);
        match &records[0].outcome {
            Outcome::Campaign(result) => assert_eq!(result, &direct),
            other => panic!("expected a campaign outcome, got {other:?}"),
        }
    }

    #[test]
    fn sharded_campaign_matches_the_serial_shard_fold_at_any_worker_count() {
        // The pool's fan-out (shards completing in scheduler order)
        // must reproduce the serial index-order fold of
        // na_loss::run_campaign_shard over the same shard plan, bit for
        // bit.
        let cfg = na_loss::CampaignConfig::new(4.0, na_loss::Strategy::VirtualRemap)
            .with_target(na_loss::ShotTarget::Attempts(60))
            .with_seed(11);
        let task = Task::ShardedCampaign {
            config: cfg,
            loss: LossSpec::new(5),
            shards: 3,
        };
        let circuit = Benchmark::Bv.generate(12, 0);
        let grid = Grid::new(8, 8);
        let compile_cfg = task.compile_config(&CompilerConfig::new(4.0));
        let point = CompileCache::new()
            .lookup(&circuit, &grid, &compile_cfg)
            .unwrap();
        let ranges = na_loss::shard_ranges(&cfg, 3).unwrap();
        let shard = |i: usize| {
            na_loss::run_campaign_shard(
                &circuit,
                &grid,
                Arc::clone(&point.compiled),
                point.summary(),
                &LossSpec::new(5).build(),
                &cfg,
                i as u32,
                ranges[i],
            )
            .unwrap()
        };
        let oracle = (1..ranges.len()).fold(shard(0), |mut merged, i| {
            merged.merge(&shard(i));
            merged
        });

        let mut spec = ExperimentSpec::new("t", grid);
        spec.push(Benchmark::Bv, 12, 0, CompilerConfig::new(4.0), task);
        for workers in [1, 4] {
            let records = Engine::with_workers(workers).run(&spec);
            match &records[0].outcome {
                Outcome::Campaign(result) => assert_eq!(result, &oracle, "workers={workers}"),
                other => panic!("expected a campaign outcome, got {other:?}"),
            }
        }
    }

    #[test]
    fn one_shard_sharded_campaign_matches_the_unsharded_task() {
        // shards=1 keeps the serial campaign's exact RNG draw order,
        // so the row's outcome equals Task::Campaign's bit for bit.
        let cfg = na_loss::CampaignConfig::new(4.0, na_loss::Strategy::CompileSmall)
            .with_target(na_loss::ShotTarget::Successes(10))
            .with_seed(3);
        let grid = Grid::new(8, 8);
        let mut spec = ExperimentSpec::new("t", grid);
        spec.push(
            Benchmark::Bv,
            10,
            0,
            CompilerConfig::new(4.0),
            Task::Campaign {
                config: cfg,
                loss: LossSpec::new(7),
            },
        );
        spec.push(
            Benchmark::Bv,
            10,
            0,
            CompilerConfig::new(4.0),
            Task::ShardedCampaign {
                config: cfg,
                loss: LossSpec::new(7),
                shards: 1,
            },
        );
        let records = Engine::with_workers(2).run(&spec);
        let (Outcome::Campaign(serial), Outcome::Campaign(sharded)) =
            (&records[0].outcome, &records[1].outcome)
        else {
            panic!("expected two campaign outcomes");
        };
        assert_eq!(serial, sharded);
        assert_eq!(records[1].task, "campaign_sharded");
    }

    #[test]
    fn invalid_shard_plans_fail_typed_before_any_work() {
        // A successes target cannot be pre-split: the row must be a
        // typed Failed (not a panic), and no compilation may run.
        let engine = Engine::with_workers(2);
        let mut spec = ExperimentSpec::new("t", Grid::new(6, 6));
        spec.push(
            Benchmark::Bv,
            8,
            0,
            CompilerConfig::new(4.0),
            Task::ShardedCampaign {
                config: na_loss::CampaignConfig::new(4.0, na_loss::Strategy::VirtualRemap)
                    .with_target(na_loss::ShotTarget::Successes(5)),
                loss: LossSpec::new(0),
                shards: 4,
            },
        );
        let records = engine.run(&spec);
        match &records[0].outcome {
            Outcome::Failed {
                unroutable,
                panicked,
                deadline,
                error,
            } => {
                assert!(!unroutable && !panicked && !deadline);
                assert!(error.contains("cannot be split into 4 shards"), "{error}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(engine.cache_stats().lookups(), 0);
    }

    #[test]
    fn rows_carry_deterministic_cache_hit_flags() {
        let engine = Engine::with_workers(4);
        let cfg = CompilerConfig::new(3.0);
        let mut spec = ExperimentSpec::new("t", Grid::new(6, 6));
        spec.push(Benchmark::Bv, 8, 0, cfg, Task::Compile);
        // Same compile key as the first job: a hit in spec order.
        spec.push(
            Benchmark::Bv,
            8,
            0,
            cfg,
            Task::Success {
                params: na_noise::NoiseParams::neutral_atom(1e-3),
            },
        );
        // Distinct compile key: a miss.
        spec.push(Benchmark::Bv, 9, 0, cfg, Task::Compile);
        // A loss task reads the cache at its strategy's compile MID:
        // MID 4 is a key no earlier job compiled.
        spec.push(
            Benchmark::Bv,
            8,
            0,
            CompilerConfig::new(4.0),
            Task::Tolerance {
                strategy: na_loss::Strategy::VirtualRemap,
                trials: 1,
                seed: 0,
            },
        );
        let records = engine.run(&spec);
        let flags: Vec<Option<bool>> = records.iter().map(|r| r.cache_hit).collect();
        assert_eq!(
            flags,
            vec![Some(false), Some(true), Some(false), Some(false)]
        );

        // A re-run of the same spec is served entirely from the cache.
        let again = engine.run(&spec);
        assert!(again.iter().all(|r| r.cache_hit != Some(false)));
    }
}
