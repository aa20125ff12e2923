//! The execution engine: a worker pool that fans jobs out across
//! cores and reassembles results in job-id order.
//!
//! Determinism contract: a job's result depends only on the job's own
//! fields (every RNG it touches is seeded from values stored in the
//! job), and results are collected into a slot array indexed by job
//! id. Running the same spec with 1 worker or N workers therefore
//! produces identical — byte-identical once serialized — result rows.

use crate::cache::{CacheKey, CacheStats, CompileCache};
use crate::record::{Outcome, RunRecord};
use crate::sink::{ResultSink, SinkError};
use crate::spec::{CircuitSource, ExperimentSpec, Job, Task};
use na_benchmarks::Benchmark;
use na_loss::{CampaignResult, LossOutcome, ShotRange, Strategy, StrategyState};
use na_noise::{
    crosstalk_exposures, crosstalk_success, success_probability, success_with_crosstalk,
    CrosstalkParams, NoiseParams,
};
use na_telemetry::Span;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
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

    /// Enables schedule verification: every compiled circuit a
    /// compile-family task produces is replayed through
    /// [`na_core::verify`] before its metrics are reported, and a
    /// constraint violation becomes an [`Outcome::Failed`] row.
    /// Used by validation harnesses; off by default (verification
    /// replays the whole schedule).
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
        let slots: Vec<OnceLock<RunRecord>> = jobs.iter().map(|_| OnceLock::new()).collect();

        // Expand the spec into pool work items: one item per job, but
        // one item per shard of a campaign (an unsharded campaign is a
        // fan of one shard). A campaign's shards share a `ShardFan`;
        // the last shard to finish merges the per-shard results in
        // shard-index order, so the row is independent of completion
        // order. Jobs whose shard plan is invalid fail typed before any
        // work starts.
        let mut fans: Vec<ShardFan> = Vec::new();
        let mut items: Vec<WorkItem> = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            let Some((config, _, shards)) = job.task.campaign() else {
                items.push(WorkItem::Whole(i));
                continue;
            };
            match na_loss::shard_ranges(config, shards) {
                Ok(ranges) => {
                    let fan = fans.len();
                    let results = ranges.iter().map(|_| OnceLock::new()).collect();
                    let remaining = AtomicUsize::new(ranges.len());
                    items.extend((0..ranges.len()).map(|shard| WorkItem::Shard { fan, shard }));
                    // The job span of a campaign outlives any single
                    // worker: it opens here, detached, and the merging
                    // worker ends it onto the job's virtual track.
                    let job_span = na_telemetry::span_detached(Span::CampaignJob);
                    fans.push(ShardFan {
                        job_index: i,
                        ranges,
                        results,
                        remaining,
                        job_span_id: job_span.id(),
                        job_span: Mutex::new(Some(job_span)),
                    });
                }
                Err(plan) => {
                    slots[i]
                        .set(RunRecord::new(
                            job,
                            Outcome::Failed {
                                unroutable: false,
                                panicked: false,
                                deadline: false,
                                error: plan.to_string(),
                            },
                        ))
                        .expect("slot written once");
                }
            }
        }

        let cursor = AtomicUsize::new(0);
        let threads = self.workers.min(items.len()).max(1);
        na_telemetry::gauge_max(na_telemetry::Gauge::EngineWorkers, threads as u64);

        let run_item = |item: &WorkItem| match *item {
            WorkItem::Whole(i) => slots[i]
                .set(self.run_job(&jobs[i]))
                .expect("slot written once"),
            WorkItem::Shard { fan, shard } => {
                let fan = &fans[fan];
                let job = &jobs[fan.job_index];
                fan.results[shard]
                    .set(self.run_shard(job, shard, fan.ranges[shard], fan.job_span_id))
                    .expect("shard slot written once");
                // `AcqRel` so the last finisher observes every other
                // shard's completed write before merging.
                if fan.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    slots[fan.job_index]
                        .set(merge_fan(job, fan, &self.cache))
                        .expect("slot written once");
                }
            }
        };
        if threads == 1 {
            for item in &items {
                run_item(item);
            }
        } else {
            std::thread::scope(|scope| {
                let run_item = &run_item;
                let cursor = &cursor;
                let items = &items;
                for worker in 0..threads {
                    scope.spawn(move || {
                        // Workers trace onto track ids 1..=N so the
                        // Perfetto rows read as the pool's threads.
                        na_telemetry::trace::set_thread_tid(worker as u64 + 1);
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            run_item(&items[i]);
                        }
                        // Merge this worker's recorder and trace buffer
                        // into the global state before the scope joins
                        // it.
                        na_telemetry::flush_local();
                    });
                }
            });
        }

        let records: Vec<RunRecord> = slots
            .into_iter()
            .zip(cache_flags)
            .map(|(slot, cache_hit)| {
                let mut record = slot.into_inner().expect("every job ran");
                record.cache_hit = cache_hit;
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

    /// Runs one whole job inside its failure domain
    /// ([`Engine::isolated`], fault scope `job{id}`); a panic becomes
    /// the job's [`Outcome::from_panic`] row.
    fn run_job(&self, job: &Job) -> RunRecord {
        let _job_span = na_telemetry::span_with(Span::Job, 0, || {
            vec![("job", job.id.into()), ("task", job.task.name().into())]
        });
        self.isolated(format!("job{}", job.id), || {
            execute_job(job, &self.cache, self.verify)
        })
        .unwrap_or_else(|panicked| RunRecord::new(job, panicked))
    }

    /// Runs one campaign shard inside its own failure domain
    /// ([`Engine::isolated`]). Shards of one job are peers of whole
    /// jobs on the pool, so a panicking or expired shard fails only its
    /// own campaign's row. Shard `k` of a sharded campaign runs in the
    /// fault scope `job{id}.shard{k}`, so chaos plans can target a
    /// single shard; the one shard of an unsharded campaign keeps the
    /// job's own scope `job{id}`.
    #[allow(clippy::result_large_err)]
    fn run_shard(&self, job: &Job, shard: usize, range: ShotRange, trace_parent: u64) -> ShardDone {
        let _shard_span = na_telemetry::span_with(Span::Shard, trace_parent, || {
            vec![("job", job.id.into()), ("shard", shard.into())]
        });
        let scope = match job.task {
            Task::ShardedCampaign { .. } => format!("job{}.shard{}", job.id, shard),
            _ => format!("job{}", job.id),
        };
        // Span totals are thread-local, so the window since the mark
        // is exactly this shard's work on this worker thread.
        let mark = na_telemetry::is_enabled().then(na_telemetry::mark);
        let result = self
            .isolated(scope, || execute_shard(job, shard, range, &self.cache))
            .and_then(std::convert::identity);
        na_telemetry::add(na_telemetry::Counter::CampaignShards, 1);
        ShardDone {
            result,
            timings: mark.map(|mark| mark.deltas()),
        }
    }

    /// The failure domain every unit of pool work runs in: the fault
    /// scope `scope` (deterministic failpoint hit counts at any worker
    /// count), a fresh copy of the engine's per-job deadline budget,
    /// and a panic boundary. A caught panic comes back as its typed
    /// [`Outcome::from_panic`] — the worker keeps draining the cursor
    /// and every other row is unaffected.
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
        catch_unwind(AssertUnwindSafe(work)).map_err(|payload| {
            // An unwind mid-placement may have left this worker's
            // reusable scratch half-updated; start the next unit from a
            // fresh one. (The compile cache protects itself with its
            // own claim guard and poison-recovering locks.)
            crate::cache::reset_thread_scratch();
            Outcome::from_panic(panic_message(payload.as_ref()))
        })
    }

    /// `cache_hit` for every job: `None` for tasks that bypass the
    /// compile cache, otherwise whether the job's compile key is
    /// already cached or claimed by an earlier job of this spec.
    fn cache_hit_flags(&self, jobs: &[Job]) -> Vec<Option<bool>> {
        let mut claimed: HashSet<CacheKey> = HashSet::new();
        // A benchmark circuit's fingerprint depends only on
        // (benchmark, size, seed); memoize it so a sweep pricing one
        // compilation at many noise points generates the circuit once
        // here, not once per job.
        let mut bench_fingerprints: HashMap<(Benchmark, u32, u64), u64> = HashMap::new();
        jobs.iter()
            .map(|job| {
                // The cached config is task-dependent: compile-family
                // tasks compile at the job's config, campaigns at the
                // strategy's compile MID.
                let compile_cfg = job.task.compile_config(&job.config)?;
                let circuit_fp = match &job.source {
                    CircuitSource::Raw { circuit, .. } => circuit.fingerprint(),
                    CircuitSource::Bench(b) => *bench_fingerprints
                        .entry((*b, job.size, job.circuit_seed))
                        .or_insert_with(|| job.circuit().fingerprint()),
                };
                let key = CacheKey {
                    circuit: circuit_fp,
                    grid: job.grid.fingerprint(),
                    config: compile_cfg.fingerprint(),
                };
                Some(self.cache.contains(&key) || !claimed.insert(key))
            })
            .collect()
    }

    /// Like [`Engine::run`], but also streams every record (in job-id
    /// order) into `sink` before returning them.
    ///
    /// # Errors
    ///
    /// The first [`SinkError`] the sink reported; the records were
    /// still fully computed.
    pub fn run_into(
        &self,
        spec: &ExperimentSpec,
        sink: &mut dyn ResultSink,
    ) -> Result<Vec<RunRecord>, SinkError> {
        let records = self.run(spec);
        crate::sink::write_records(&records, sink)?;
        Ok(records)
    }
}

/// One unit of pool work: a whole job, or one shard of a campaign
/// (both indices into the expansion-time arrays).
enum WorkItem {
    /// `jobs[i]` runs as a single item (every task but a campaign).
    Whole(usize),
    /// Shard `shard` of `fans[fan]`.
    Shard { fan: usize, shard: usize },
}

/// Shared merge state of one campaign job.
struct ShardFan {
    /// Index of the owning job in the spec.
    job_index: usize,
    /// The shard plan, from [`na_loss::shard_ranges`].
    ranges: Vec<ShotRange>,
    /// Per-shard results, indexed by shard.
    results: Vec<OnceLock<ShardDone>>,
    /// Shards still running; the worker that decrements this to zero
    /// merges and writes the job's row.
    remaining: AtomicUsize,
    /// Trace id of the whole-job span (0 = untraced); shard and merge
    /// spans parent under it.
    job_span_id: u64,
    /// The whole-job span, opened at fan creation; the merging worker
    /// takes and ends it on the job's virtual track.
    job_span: Mutex<Option<na_telemetry::OpenSpan>>,
}

/// What one shard produced: its partial campaign, or the typed
/// failure outcome that will become the whole job's row.
#[derive(Debug)]
struct ShardDone {
    result: Result<CampaignResult, Outcome>,
    /// Span nanoseconds this shard accrued on its worker thread
    /// (`None` while telemetry is disabled).
    timings: Option<std::collections::BTreeMap<String, u64>>,
}

/// Runs one shard of a campaign: compile through the shared cache (at
/// the strategy's compile MID; all shards hit the one artifact), reuse
/// the memoized interaction summary, then execute just this shard's
/// shot range with its deterministically derived RNG streams. Shard 0
/// of a one-shard plan draws exactly the unsharded campaign's streams,
/// so it reproduces `na_loss::run_campaign` bit for bit.
#[allow(clippy::result_large_err)]
fn execute_shard(
    job: &Job,
    shard: usize,
    range: ShotRange,
    cache: &CompileCache,
) -> Result<CampaignResult, Outcome> {
    if let Err(fault) = na_faults::point("engine.execute_job") {
        return Err(Outcome::from_error(&fault.into()));
    }
    if let Err(expired) = na_faults::check_deadline() {
        return Err(Outcome::from_error(&expired.into()));
    }
    let (config, loss, _) = job
        .task
        .campaign()
        .expect("only campaigns expand into shard work items");
    let compile_cfg = job
        .task
        .compile_config(&job.config)
        .expect("campaigns use the compile cache");
    let circuit = job.circuit();
    let compiled = cache
        .get_or_compile(&circuit, &job.grid, &compile_cfg)
        .map_err(|e| Outcome::from_error(&e))?;
    let key = CacheKey::for_point(&circuit, &job.grid, &compile_cfg);
    let summary = cache.summary_for(&key, &compiled);
    let shard_index = u32::try_from(shard).expect("shard counts are u32");
    na_loss::run_campaign_shard(
        &circuit,
        &job.grid,
        compiled,
        summary,
        &loss.build(),
        config,
        shard_index,
        range,
    )
    .map_err(|e| Outcome::from_error(&e))
}

/// Assembles a campaign's row once every shard has finished:
/// the shard results merge in shard-index order (so the row does not
/// depend on completion order), and a failed shard — typed error,
/// caught panic, expired deadline — fails the whole row with the
/// lowest-indexed failure. Telemetry-tagged rows carry the per-span
/// sums in `timings` and the per-shard breakdown in `shard_timings`.
fn merge_fan(job: &Job, fan: &ShardFan, cache: &CompileCache) -> RunRecord {
    let merge_span = na_telemetry::span_with(Span::Merge, fan.job_span_id, || {
        vec![("job", job.id.into()), ("shards", fan.ranges.len().into())]
    });
    let done: Vec<&ShardDone> = fan
        .results
        .iter()
        .map(|slot| slot.get().expect("every shard ran"))
        .collect();
    let outcome = 'merge: {
        let mut merged: Option<CampaignResult> = None;
        for shard in &done {
            match &shard.result {
                Ok(result) => match &mut merged {
                    None => merged = Some(result.clone()),
                    Some(m) => m.merge(result),
                },
                Err(failed) => break 'merge failed.clone(),
            }
        }
        Outcome::Campaign(merged.expect("shard plans are never empty"))
    };
    let mut record = RunRecord::new(job, outcome);
    if na_telemetry::is_enabled() {
        let mut sums = std::collections::BTreeMap::new();
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
        if let Some(compile_cfg) = job.task.compile_config(&job.config) {
            let key = CacheKey::for_point(&job.circuit(), &job.grid, &compile_cfg);
            record.pass_report = cache.pass_report(&key).map(|r| (*r).clone());
        }
    }
    // The whole-job span, opened at fan creation, ends on the job's
    // own virtual track (it spans multiple workers).
    drop(merge_span);
    let job_span = fan
        .job_span
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    if let Some(job_span) = job_span {
        job_span.end_on_track(na_telemetry::trace::JOB_TRACK_BASE + job.id, || {
            vec![
                ("job", job.id.into()),
                ("task", job.task.name().into()),
                ("shards", fan.ranges.len().into()),
            ]
        });
    }
    record
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

/// Runs one job to completion. Infallible by construction: errors
/// become [`Outcome::Failed`] rows.
///
/// When telemetry is enabled the row is tagged with the span
/// nanoseconds this job accrued on the executing thread (wall-clock,
/// hence deliberately absent — `None` — in the deterministic default
/// configuration).
fn execute_job(job: &Job, cache: &CompileCache, verify: bool) -> RunRecord {
    // Failure boundary at job entry: the chaos failpoint and the
    // cheapest possible deadline check (a job whose budget is already
    // spent fails typed before doing any work).
    if let Err(fault) = na_faults::point("engine.execute_job") {
        return RunRecord::new(job, Outcome::from_error(&fault.into()));
    }
    if let Err(expired) = na_faults::check_deadline() {
        return RunRecord::new(job, Outcome::from_error(&expired.into()));
    }
    let mark = na_telemetry::is_enabled().then(na_telemetry::mark);
    let circuit = job.circuit();
    // Compile through the cache, optionally replaying the schedule
    // through the constraint verifier (Engine::verified).
    let compile_cached = |outcome: &dyn Fn(Arc<na_core::CompiledCircuit>) -> Outcome| match cache
        .get_or_compile(&circuit, &job.grid, &job.config)
    {
        Ok(compiled) => {
            if verify {
                if let Err(e) = na_core::verify(&compiled, &job.grid) {
                    return Outcome::Failed {
                        unroutable: false,
                        panicked: false,
                        deadline: false,
                        error: format!("schedule verification failed: {e}"),
                    };
                }
            }
            outcome(compiled)
        }
        Err(e) => Outcome::from_error(&e),
    };
    let outcome = match &job.task {
        Task::Compile => compile_cached(&|compiled| Outcome::Compiled {
            source: compiled.circuit().metrics(),
            metrics: compiled.metrics(),
        }),
        Task::Success { params } => compile_cached(&|compiled| Outcome::Success {
            metrics: compiled.metrics(),
            breakdown: success_probability(&compiled, params),
        }),
        Task::Crosstalk { params, crosstalk } => {
            compile_cached(&|compiled| run_crosstalk(&compiled, params, crosstalk))
        }
        Task::Tolerance {
            strategy,
            trials,
            seed,
        } => match na_loss::mean_loss_tolerance(
            &circuit,
            &job.grid,
            job.config.mid,
            *strategy,
            *trials,
            *seed,
        ) {
            Ok((mean, std)) => Outcome::Tolerance {
                mean,
                std,
                trials: *trials,
            },
            Err(e) => Outcome::from_error(&e),
        },
        Task::LossTrace {
            strategy,
            max_holes,
            params,
            seed,
        } => run_loss_trace(&circuit, job, *strategy, *max_holes, params, *seed),
        // Campaigns are expanded into per-shard work items by
        // `Engine::run` and never reach the whole-job path.
        Task::Campaign { .. } | Task::ShardedCampaign { .. } => {
            unreachable!("campaigns expand into shard work items")
        }
    };
    let mut record = RunRecord::new(job, outcome);
    if let Some(mark) = mark {
        let deltas = mark.deltas();
        if !deltas.is_empty() {
            record.timings = Some(deltas);
        }
        // Attach the pipeline's per-pass report next to the span
        // deltas: rows sharing a compile key share the compiling
        // thread's report (it describes the artifact, not the lookup).
        if let Some(compile_cfg) = job.task.compile_config(&job.config) {
            let key = CacheKey::for_point(&circuit, &job.grid, &compile_cfg);
            record.pass_report = cache.pass_report(&key).map(|r| (*r).clone());
        }
    }
    record
}

fn run_crosstalk(
    compiled: &na_core::CompiledCircuit,
    params: &NoiseParams,
    crosstalk: &CrosstalkParams,
) -> Outcome {
    Outcome::Crosstalk {
        depth: compiled.metrics().depth,
        exposures: crosstalk_exposures(compiled, crosstalk),
        p_crosstalk: crosstalk_success(compiled, crosstalk),
        p_standard: success_probability(compiled, params).probability(),
        p_combined: success_with_crosstalk(compiled, params, crosstalk),
    }
}

/// The Fig. 11 measurement: lose atoms one at a time, letting the
/// strategy absorb each loss, and record predicted shot success after
/// every survived loss. Ends at the first forced reload.
fn run_loss_trace(
    circuit: &na_circuit::Circuit,
    job: &Job,
    strategy: Strategy,
    max_holes: u32,
    params: &NoiseParams,
    seed: u64,
) -> Outcome {
    let mut state = match StrategyState::new(circuit, &job.grid, job.config.mid, strategy, None) {
        Ok(s) => s,
        Err(e) => return Outcome::from_error(&e),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut success = vec![success_probability(state.compiled(), params).probability()];
    for _ in 1..=max_holes {
        let usable: Vec<_> = state.grid().usable_sites().collect();
        if usable.is_empty() {
            break;
        }
        let victim = usable[rng.gen_range(0..usable.len())];
        match state.apply_loss(victim) {
            LossOutcome::NeedsReload => break,
            LossOutcome::Recompiled { .. } => {
                success.push(success_probability(state.compiled(), params).probability());
            }
            LossOutcome::Spare | LossOutcome::Tolerated { .. } => {
                let p = success_probability(state.compiled(), params).probability()
                    * state.swap_penalty(params.p2);
                success.push(p);
            }
        }
    }
    Outcome::LossTrace { success }
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

    /// `Task::uses_compile_cache` must agree with what `execute_job`
    /// actually routes through the cache: run one job per task kind on
    /// a fresh engine and compare the flag against observed lookups.
    #[test]
    fn uses_compile_cache_matches_execute_job_dispatch() {
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
                trials: 1,
                seed: 0,
            },
            Task::LossTrace {
                strategy: Strategy::VirtualRemap,
                max_holes: 1,
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
                    .with_target(na_loss::ShotTarget::Attempts(2)),
                loss: LossSpec::new(0),
                shards: 2,
            },
        ];
        for task in tasks {
            let expected = task.uses_compile_cache();
            let engine = Engine::with_workers(1);
            let mut spec = ExperimentSpec::new("t", Grid::new(6, 6));
            spec.push(Benchmark::Bv, 8, 0, CompilerConfig::new(4.0), task.clone());
            engine.run(&spec);
            let touched_cache = engine.cache_stats().lookups() > 0;
            assert_eq!(
                touched_cache,
                expected,
                "Task::{} disagrees with execute_job's cache dispatch",
                Task::name(&task)
            );
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
        // must reproduce na_loss::run_campaign_sharded — the serial
        // index-order fold over the same shard plan — bit for bit.
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
        let compile_cfg = task.compile_config(&CompilerConfig::new(4.0)).unwrap();
        let oracle_engine = Engine::with_workers(1);
        let compiled = oracle_engine
            .cache()
            .get_or_compile(&circuit, &grid, &compile_cfg)
            .unwrap();
        let key = CacheKey::for_point(&circuit, &grid, &compile_cfg);
        let summary = oracle_engine.cache().summary_for(&key, &compiled);
        let ranges = na_loss::shard_ranges(&cfg, 3).unwrap();
        let oracle = na_loss::run_campaign_sharded(
            &circuit,
            &grid,
            compiled,
            summary,
            &LossSpec::new(5).build(),
            &cfg,
            &ranges,
        )
        .unwrap();

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
        // Bypasses the compile cache entirely.
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
        assert_eq!(flags, vec![Some(false), Some(true), Some(false), None]);

        // A re-run of the same spec is served entirely from the cache.
        let again = engine.run(&spec);
        assert!(again.iter().all(|r| r.cache_hit != Some(false)));
    }
}
