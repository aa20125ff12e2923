//! # na-engine — the parallel experiment-execution engine
//!
//! The paper's evaluation (Figs. 3–14) is a large grid of
//! `(benchmark × size × MID × strategy × seed)` experiments. This
//! crate owns the full sweep lifecycle so that no harness hand-rolls
//! its own loops:
//!
//! * **[`ExperimentSpec`] / [`Job`] / [`Task`]** — a declarative model
//!   of any experiment point: compile-metrics, analytic success,
//!   crosstalk, loss tolerance, per-hole loss traces, and full
//!   Monte-Carlo campaigns ([`spec`]);
//! * **[`Engine`]** — a multi-threaded worker pool that fans jobs out
//!   across cores. Every RNG a job touches is seeded from values
//!   stored in the job, and results are reassembled in job-id order,
//!   so parallel and serial runs produce *byte-identical* result rows
//!   ([`runner`]);
//! * **[`CompileCache`]** — a memoized compilation cache keyed on
//!   stable structural fingerprints of `(circuit, grid, config)`:
//!   a `CompiledCircuit` shared by many sweep points is compiled once
//!   and shared via `Arc`, with hit/miss counters that prove reuse
//!   ([`cache`]);
//! * **[`RunRecord`] / [`JsonlSink`]** — structured JSON-lines
//!   result rows with run metadata, replacing ad-hoc `println!`
//!   output ([`record`], [`sink`]);
//! * **[`paper`]** — the paper's shared sweep constants (10×10 grid,
//!   MID set, size ladder), consolidated here from the copies the
//!   harnesses used to keep privately.
//!
//! # Example
//!
//! ```
//! use na_engine::{Engine, ExperimentSpec, Task, paper};
//! use na_benchmarks::Benchmark;
//!
//! // Gate counts for two benchmarks across the paper's MID set.
//! let mut spec = ExperimentSpec::new("quickstart", paper::paper_grid());
//! spec.sweep(
//!     &[Benchmark::Bv, Benchmark::Qaoa],
//!     &[20],
//!     &paper::paper_mids(),
//!     |_, _, mid| Some((paper::two_qubit_cfg(mid), Task::Compile)),
//! );
//!
//! let engine = Engine::with_workers(4);
//! let records = engine.run(&spec);
//! assert_eq!(records.len(), 2 * paper::paper_mids().len());
//! assert!(records.iter().all(|r| r.compiled_metrics().is_some()));
//!
//! // The same spec re-run is served entirely from the compile cache.
//! engine.run(&spec);
//! assert_eq!(engine.cache_stats().hits, records.len() as u64);
//! ```

pub mod cache;
pub mod paper;
pub mod record;
pub mod runner;
pub mod sink;
pub mod spec;

pub use cache::{CacheKey, CacheStats, CompileCache};
pub use record::{FailureSummary, Outcome, RunRecord};
pub use runner::Engine;
pub use sink::{write_records, JsonlSink, SinkError};
pub use spec::{derive_seed, ExperimentSpec, Job, LossSpec, Task};

#[cfg(test)]
mod tests {
    use super::*;

    /// The `Send + Sync` audit the parallel engine rests on: jobs and
    /// records cross thread boundaries, the cache is shared by
    /// reference from every worker.
    #[test]
    fn engine_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Job>();
        assert_send_sync::<ExperimentSpec>();
        assert_send_sync::<RunRecord>();
        assert_send_sync::<CompileCache>();
        assert_send_sync::<Engine>();
        assert_send_sync::<na_core::CompiledCircuit>();
        assert_send_sync::<na_loss::CampaignResult>();
    }
}
