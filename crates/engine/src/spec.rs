//! The declarative experiment model: what to run, not how.
//!
//! An [`ExperimentSpec`] is an ordered list of [`Job`]s. Each job is a
//! self-contained experiment point — circuit source, device, compiler
//! configuration, and a [`Task`] saying what to measure — so jobs can
//! execute in any order on any thread and still produce identical
//! results. All randomness a job consumes is seeded from values stored
//! *in the job*, never from execution order or wall clock.

use na_arch::Grid;
use na_benchmarks::{Benchmark, Workload};
use na_circuit::Circuit;
use na_core::CompilerConfig;
use na_loss::{CampaignConfig, Strategy};
use na_noise::{CrosstalkParams, NoiseParams};
use std::sync::Arc;

/// Where a job's circuit comes from.
#[derive(Debug, Clone)]
pub enum CircuitSource {
    /// One of the paper's benchmark families, generated at the job's
    /// `(size, circuit_seed)`.
    Bench(Benchmark),
    /// An explicit circuit with a display label (used by harnesses
    /// that sweep hand-built programs, e.g. the native-arity
    /// extension's raw CNU).
    Raw {
        /// Label used in result rows.
        label: String,
        /// The circuit itself, shared across jobs without copying.
        circuit: Arc<Circuit>,
    },
}

impl CircuitSource {
    /// A raw source from a circuit and label.
    pub fn raw(label: impl Into<String>, circuit: Circuit) -> Self {
        CircuitSource::Raw {
            label: label.into(),
            circuit: Arc::new(circuit),
        }
    }

    /// The display label used in result rows.
    pub fn label(&self) -> &str {
        match self {
            CircuitSource::Bench(b) => b.name(),
            CircuitSource::Raw { label, .. } => label,
        }
    }
}

impl From<Benchmark> for CircuitSource {
    fn from(b: Benchmark) -> Self {
        CircuitSource::Bench(b)
    }
}

impl From<Workload> for CircuitSource {
    /// A [`Workload`] maps straight onto a source: benchmark families
    /// keep size-parametrized generation, custom circuits become
    /// [`CircuitSource::Raw`] sharing the workload's `Arc` (so a sweep
    /// over one imported QASM program never copies it, and every job
    /// keys the compile cache on the same circuit fingerprint).
    fn from(w: Workload) -> Self {
        match w {
            Workload::Bench(b) => CircuitSource::Bench(b),
            Workload::Custom { label, circuit } => CircuitSource::Raw { label, circuit },
        }
    }
}

/// The loss-model parameters of a campaign job, spelled out as plain
/// data so the job stays cloneable and hashable-by-value (the real
/// `LossModel` owns RNG state).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossSpec {
    /// Seed of the loss model's RNG.
    pub seed: u64,
    /// Improvement factor applied to both loss rates (Fig. 13).
    pub improvement_factor: f64,
}

impl LossSpec {
    /// Paper-default loss rates under the given seed.
    pub fn new(seed: u64) -> Self {
        LossSpec {
            seed,
            improvement_factor: 1.0,
        }
    }

    /// Scales both loss rates (×10 = better hardware).
    pub fn with_improvement_factor(mut self, factor: f64) -> Self {
        self.improvement_factor = factor;
        self
    }

    /// Builds the RNG-carrying model.
    pub fn build(&self) -> na_loss::LossModel {
        na_loss::LossModel::new(self.seed).with_improvement_factor(self.improvement_factor)
    }
}

/// What to measure at one experiment point.
#[derive(Debug, Clone)]
pub enum Task {
    /// Compile and report schedule metrics (Figs. 3–6, ablations,
    /// validation). Served from the engine's compilation cache.
    Compile,
    /// Compile (cached) and evaluate the analytic success model at one
    /// noise point (Figs. 7–8). Many error points per compiled circuit
    /// is exactly the access pattern the cache collapses.
    Success {
        /// The hardware noise point to price the schedule at.
        params: NoiseParams,
    },
    /// Compile (cached) and report crosstalk exposure alongside the
    /// standard success factors (§IV-A ablation).
    Crosstalk {
        /// Baseline noise point.
        params: NoiseParams,
        /// Crosstalk range and per-exposure error.
        crosstalk: CrosstalkParams,
    },
    /// Mean maximum-loss-before-reload over `trials` seeds (Fig. 10).
    Tolerance {
        /// Coping strategy under test.
        strategy: Strategy,
        /// Number of independent loss sequences.
        trials: u32,
        /// Base seed; trial `t` uses `seed + t`.
        seed: u64,
    },
    /// Shot-success trace as atoms are lost one by one until the
    /// strategy demands a reload (Fig. 11). `success[k]` is the
    /// predicted success at `k` holes.
    LossTrace {
        /// Coping strategy under test.
        strategy: Strategy,
        /// Stop after this many holes even if the strategy survives.
        max_holes: u32,
        /// Noise point used to price each surviving schedule.
        params: NoiseParams,
        /// Seed of the victim-site sequence.
        seed: u64,
    },
    /// Full multi-shot campaign under atom loss (Figs. 12–14).
    Campaign {
        /// Campaign parameters (strategy, target, overhead model…).
        config: CampaignConfig,
        /// Loss-model parameters.
        loss: LossSpec,
    },
    /// The same campaign, fanned out as `shards` independent shot
    /// ranges across the worker pool and merged in shard-index order.
    /// Shard 0 replays the serial campaign's RNG streams exactly; the
    /// merged result is bit-identical to the serial fold of the same
    /// shard plan ([`na_loss::run_campaign_sharded`]), not to the
    /// unsharded campaign (different shard counts draw different
    /// streams by design).
    ShardedCampaign {
        /// Campaign parameters (strategy, target, overhead model…).
        config: CampaignConfig,
        /// Loss-model parameters.
        loss: LossSpec,
        /// Number of shot-range shards to fan out (≥ 1).
        shards: u32,
    },
}

impl Task {
    /// `true` for tasks served through the engine's memoized
    /// [`CompileCache`](crate::CompileCache): the compile family plus
    /// campaigns (whose initial compilation and interaction summary
    /// are shared between equal points).
    pub fn uses_compile_cache(&self) -> bool {
        self.compile_config(&CompilerConfig::new(1.0)).is_some()
    }

    /// The compiler configuration whose artifact this task reads from
    /// the compile cache, or `None` for tasks that bypass it.
    ///
    /// Compile-family tasks compile at the job's own config; a
    /// campaign compiles at the strategy's compile MID (compile-small
    /// strategies compile one unit tighter than the hardware MID),
    /// matching [`na_loss::StrategyState`] exactly so the cached
    /// artifact is byte-identical to what the campaign would have
    /// compiled itself.
    pub fn compile_config(&self, job_config: &CompilerConfig) -> Option<CompilerConfig> {
        match self {
            Task::Compile | Task::Success { .. } | Task::Crosstalk { .. } => Some(*job_config),
            Task::Campaign { config, .. } | Task::ShardedCampaign { config, .. } => Some(
                CompilerConfig::new(config.strategy.compile_mid(config.hardware_mid)),
            ),
            Task::Tolerance { .. } | Task::LossTrace { .. } => None,
        }
    }

    /// A campaign task's config, loss model and shard count (an
    /// unsharded campaign is one shard); `None` for every other task.
    pub(crate) fn campaign(&self) -> Option<(&CampaignConfig, &LossSpec, u32)> {
        match self {
            Task::Campaign { config, loss } => Some((config, loss, 1)),
            Task::ShardedCampaign {
                config,
                loss,
                shards,
            } => Some((config, loss, *shards)),
            _ => None,
        }
    }

    /// Short task name used in result rows.
    pub fn name(&self) -> &'static str {
        match self {
            Task::Compile => "compile",
            Task::Success { .. } => "success",
            Task::Crosstalk { .. } => "crosstalk",
            Task::Tolerance { .. } => "tolerance",
            Task::LossTrace { .. } => "loss_trace",
            Task::Campaign { .. } => "campaign",
            Task::ShardedCampaign { .. } => "campaign_sharded",
        }
    }
}

/// One fully specified experiment point.
#[derive(Debug, Clone)]
pub struct Job {
    /// Position in the spec; results are emitted in `id` order, which
    /// is what makes parallel and serial runs byte-identical.
    pub id: u64,
    /// Circuit source.
    pub source: CircuitSource,
    /// Program-size budget handed to benchmark generation.
    pub size: u32,
    /// Seed for circuit generation (only QAOA's random graph uses it).
    pub circuit_seed: u64,
    /// The device.
    pub grid: Grid,
    /// Compiler configuration; `config.mid` doubles as the hardware
    /// MID for loss tasks.
    pub config: CompilerConfig,
    /// What to measure.
    pub task: Task,
}

impl Job {
    /// Generates (or clones out) the circuit for this job.
    pub fn circuit(&self) -> Arc<Circuit> {
        match &self.source {
            CircuitSource::Bench(b) => Arc::new(b.generate(self.size, self.circuit_seed)),
            CircuitSource::Raw { circuit, .. } => Arc::clone(circuit),
        }
    }
}

/// Splits one base seed into per-`id` seeds with unrelated streams
/// (SplitMix64). Used by callers that need a deterministic seed per
/// sweep point without hand-numbering them. The canonical
/// implementation lives in [`na_loss::derive_seed`] (shard seeding
/// uses the same stream-splitting function); this delegates so the
/// two can never drift apart.
#[must_use]
pub fn derive_seed(base: u64, id: u64) -> u64 {
    na_loss::derive_seed(base, id)
}

/// An ordered collection of jobs over one (default) device.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Display name, recorded in sinks that care (and useful in logs).
    pub name: String,
    grid: Grid,
    jobs: Vec<Job>,
}

impl ExperimentSpec {
    /// An empty spec whose jobs default to `grid`.
    pub fn new(name: impl Into<String>, grid: Grid) -> Self {
        ExperimentSpec {
            name: name.into(),
            grid,
            jobs: Vec::new(),
        }
    }

    /// The default device.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The jobs, in id order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when no jobs have been added.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Adds one job on the default grid; returns its id.
    pub fn push(
        &mut self,
        source: impl Into<CircuitSource>,
        size: u32,
        circuit_seed: u64,
        config: CompilerConfig,
        task: Task,
    ) -> u64 {
        let id = self.jobs.len() as u64;
        self.jobs.push(Job {
            id,
            source: source.into(),
            size,
            circuit_seed,
            grid: self.grid.clone(),
            config,
            task,
        });
        id
    }

    /// Adds one job on an explicit grid (mixed-device sweeps).
    pub fn push_on_grid(
        &mut self,
        grid: Grid,
        source: impl Into<CircuitSource>,
        size: u32,
        circuit_seed: u64,
        config: CompilerConfig,
        task: Task,
    ) -> u64 {
        let id = self.jobs.len() as u64;
        self.jobs.push(Job {
            id,
            source: source.into(),
            size,
            circuit_seed,
            grid,
            config,
            task,
        });
        id
    }

    /// The rectangular sweep most figures use: every
    /// `(benchmark, size, mid)` combination, in that nesting order.
    /// `point` returns the compiler config and task for a combination,
    /// or `None` to skip it (e.g. unsupported strategy/MID pairs).
    pub fn sweep<F>(&mut self, benchmarks: &[Benchmark], sizes: &[u32], mids: &[f64], mut point: F)
    where
        F: FnMut(Benchmark, u32, f64) -> Option<(CompilerConfig, Task)>,
    {
        for &b in benchmarks {
            for &size in sizes {
                for &mid in mids {
                    if let Some((config, task)) = point(b, size, mid) {
                        self.push(b, size, 0, config, task);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_assigns_sequential_ids() {
        let mut spec = ExperimentSpec::new("t", Grid::new(4, 4));
        let a = spec.push(Benchmark::Bv, 8, 0, CompilerConfig::new(2.0), Task::Compile);
        let b = spec.push(
            Benchmark::Cnu,
            8,
            0,
            CompilerConfig::new(2.0),
            Task::Compile,
        );
        assert_eq!((a, b), (0, 1));
        assert_eq!(spec.len(), 2);
        assert_eq!(spec.jobs()[1].id, 1);
    }

    #[test]
    fn sweep_covers_the_product_and_honors_skips() {
        let mut spec = ExperimentSpec::new("t", Grid::new(6, 6));
        spec.sweep(
            &[Benchmark::Bv, Benchmark::Qaoa],
            &[8, 12],
            &[1.0, 2.0, 3.0],
            |_, _, mid| {
                if mid < 2.0 {
                    None
                } else {
                    Some((CompilerConfig::new(mid), Task::Compile))
                }
            },
        );
        assert_eq!(spec.len(), 2 * 2 * 2);
        assert!(spec.jobs().iter().all(|j| j.config.mid >= 2.0));
    }

    #[test]
    fn derive_seed_is_stable_and_spread() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        assert_ne!(derive_seed(7, 3), derive_seed(7, 4));
        assert_ne!(derive_seed(7, 3), derive_seed(8, 3));
    }

    #[test]
    fn raw_sources_share_the_circuit() {
        let mut c = Circuit::new(2);
        c.h(na_circuit::Qubit(0));
        let src = CircuitSource::raw("custom", c);
        let mut spec = ExperimentSpec::new("t", Grid::new(4, 4));
        spec.push(src.clone(), 2, 0, CompilerConfig::new(2.0), Task::Compile);
        spec.push(src, 2, 0, CompilerConfig::new(3.0), Task::Compile);
        let c0 = spec.jobs()[0].circuit();
        let c1 = spec.jobs()[1].circuit();
        assert!(Arc::ptr_eq(&c0, &c1));
    }
}
