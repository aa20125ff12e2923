//! The declarative experiment model: what to run, not how.
//!
//! An [`ExperimentSpec`] is an ordered list of [`Job`]s. Each job is a
//! self-contained experiment point — workload, device, compiler
//! configuration, and a [`Task`] saying what to measure — so jobs can
//! execute in any order on any thread and still produce identical
//! results. All randomness a job consumes is seeded from values stored
//! *in the job*, never from execution order or wall clock.

use na_arch::Grid;
use na_benchmarks::{Benchmark, Workload};
use na_core::CompilerConfig;
pub use na_loss::derive_seed;
use na_loss::{CampaignConfig, Strategy};
use na_noise::{CrosstalkParams, NoiseParams};

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
    /// Mean maximum-loss-before-reload over `trials` seeds (Fig. 10):
    /// each trial is a [`na_loss::loss_walk`] on a clone of one
    /// strategy state built from the cached compile at the strategy's
    /// compile MID (the job's MID is the hardware MID).
    Tolerance {
        /// Coping strategy under test.
        strategy: Strategy,
        /// Number of independent loss sequences.
        trials: u32,
        /// Base seed; trial `t` uses `seed + t`.
        seed: u64,
    },
    /// Shot-success trace as atoms are lost one by one until the
    /// strategy demands a reload (Fig. 11): one [`na_loss::loss_walk`]
    /// from the cached compile at the strategy's compile MID.
    /// `success[k]` is the predicted success at `k` holes.
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
    /// merged result is bit-identical to the serial index-order fold of
    /// [`na_loss::run_campaign_shard`] over the same shard plan, not to
    /// the unsharded campaign (different shard counts draw different
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
    /// The compiler configuration whose artifact this task reads from
    /// the compile cache. Every task reads one.
    ///
    /// Compile-family tasks compile at the job's own config. A loss
    /// task compiles at its strategy's compile MID (compile-small
    /// strategies compile one unit tighter than the hardware MID: the
    /// job's MID for tolerance and traces, the campaign's own for
    /// campaigns), matching [`na_loss::StrategyState::new`] exactly, so
    /// the cached artifact is byte-identical to what the task would
    /// have compiled itself.
    pub fn compile_config(&self, job_config: &CompilerConfig) -> CompilerConfig {
        let (strategy, hardware_mid) = match self {
            Task::Compile | Task::Success { .. } | Task::Crosstalk { .. } => return *job_config,
            Task::Tolerance { strategy, .. } | Task::LossTrace { strategy, .. } => {
                (*strategy, job_config.mid)
            }
            Task::Campaign { config, .. } | Task::ShardedCampaign { config, .. } => {
                (config.strategy, config.hardware_mid)
            }
        };
        CompilerConfig::new(strategy.compile_mid(hardware_mid))
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
    /// The benchmark family or labelled circuit to run.
    pub workload: Workload,
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
        workload: impl Into<Workload>,
        size: u32,
        circuit_seed: u64,
        config: CompilerConfig,
        task: Task,
    ) -> u64 {
        let id = self.jobs.len() as u64;
        self.jobs.push(Job {
            id,
            workload: workload.into(),
            size,
            circuit_seed,
            grid: self.grid.clone(),
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
        let mut c = na_circuit::Circuit::new(2);
        c.h(na_circuit::Qubit(0));
        let w = Workload::custom("custom", c);
        let mut spec = ExperimentSpec::new("t", Grid::new(4, 4));
        spec.push(w.clone(), 2, 0, CompilerConfig::new(2.0), Task::Compile);
        spec.push(w, 2, 0, CompilerConfig::new(3.0), Task::Compile);
        let [c0, c1] = [0, 1].map(|i| {
            let job = &spec.jobs()[i];
            job.workload.circuit(job.size, job.circuit_seed)
        });
        assert!(std::sync::Arc::ptr_eq(&c0, &c1));
    }
}
