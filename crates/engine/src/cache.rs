//! The memoized compilation cache.
//!
//! Monte-Carlo campaigns and noise sweeps evaluate many experiment
//! points that share one `(circuit, grid, config)` compilation — e.g.
//! Fig. 8 prices every compiled size at nine error rates, and Fig. 3's
//! BV series re-reads the counts its savings table already computed.
//! The cache compiles each distinct point once and hands out shared
//! [`Arc`]s, with hit/miss counters so harnesses (and the acceptance
//! tests) can prove reuse happened.
//!
//! Keys are *structural*: stable FNV-1a fingerprints of the circuit
//! ([`na_circuit::Circuit::fingerprint`]), the grid hole pattern
//! ([`na_arch::Grid::fingerprint`]), and every compilation-relevant
//! config field ([`na_core::CompilerConfig::fingerprint`]) — so two
//! sweep points that *describe* the same compilation share an entry
//! even if they were built independently.
//!
//! One entry per key holds everything known about its point: the
//! compile result and, on success, the compiling thread's pass report
//! and the interaction summary campaigns share (built on first use).
//!
//! Concurrency: the entries live in a [`Memo`]. The first thread to
//! ask for a key claims it and runs the compiler; any thread arriving
//! while that compile is in flight waits on that key only (never on
//! other keys), inside a `cache_wait` span, and then shares the
//! result. Failed compilations are memoized too — a sweep with many
//! unroutable points pays for the failure once.
//!
//! Failure domain: a compiler panic unwinds through the claim, which
//! releases the key and wakes its waiters, one of which re-claims it,
//! instead of wedging every later requester of that key — the
//! poisoned-`OnceLock` deadlock this design replaces. Transient errors
//! ([`CompileError::is_transient`]: injected faults, expired
//! deadlines) likewise release the claim rather than being memoized,
//! so one job's fault or budget can never contaminate another job
//! sharing its compile key. The memo's lock recovers from poison.

use na_arch::Grid;
use na_circuit::Circuit;
use na_core::{
    ArtifactStore, CompileError, CompiledCircuit, CompilerConfig, Memo, PassReport,
    PlacementScratch, Reuse, VerifyError,
};
use na_loss::InteractionSummary;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

thread_local! {
    /// One compile scratch per worker thread: every cache miss this
    /// thread compiles reuses placement's and the scheduler's working
    /// memory instead of reallocating it per program.
    static PLACEMENT_SCRATCH: RefCell<PlacementScratch> = RefCell::new(PlacementScratch::new());
}

/// Replaces this thread's compile scratch with a fresh one. Called by
/// the engine after isolating a job panic: an unwind mid-compile may
/// leave the scratch's buffers half-updated, and although every compile
/// re-arms what it reads, a worker that survived a panic starts over
/// from fresh memory.
pub(crate) fn reset_thread_scratch() {
    PLACEMENT_SCRATCH.with(|s| *s.borrow_mut() = PlacementScratch::new());
}

/// Cache key: the three structural fingerprints of a compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`Circuit::fingerprint`] of the source program.
    pub circuit: u64,
    /// [`Grid::fingerprint`] of the device.
    pub grid: u64,
    /// [`CompilerConfig::fingerprint`] of the configuration.
    pub config: u64,
}

impl CacheKey {
    /// The key for one compilation point.
    pub fn for_point(circuit: &Circuit, grid: &Grid, config: &CompilerConfig) -> Self {
        CacheKey {
            circuit: circuit.fingerprint(),
            grid: grid.fingerprint(),
            config: config.fingerprint(),
        }
    }
}

/// A successful compilation point: the compiled schedule plus what
/// the runner derives from it, shared by every requester of the point.
#[derive(Debug)]
pub(crate) struct CompiledPoint {
    /// The compiled schedule.
    pub(crate) compiled: Arc<CompiledCircuit>,
    /// The compiling thread's [`PassReport`] (collected only while
    /// telemetry is enabled). Cache hits share it: it describes the
    /// artifact, not the lookup.
    pub(crate) report: Option<PassReport>,
    /// The deduped interaction-pair summary campaign shards share
    /// instead of each [`na_loss::StrategyState`] rebuilding it.
    summary: OnceLock<Arc<InteractionSummary>>,
    /// [`na_core::verify`]'s verdict on the schedule, replayed once.
    verified: OnceLock<Result<(), VerifyError>>,
}

impl CompiledPoint {
    /// The memoized [`InteractionSummary`] of the schedule, built on
    /// first use. A pure function of the schedule, so it does not
    /// matter which thread builds it.
    pub(crate) fn summary(&self) -> Arc<InteractionSummary> {
        Arc::clone(
            self.summary
                .get_or_init(|| Arc::new(InteractionSummary::of(&self.compiled))),
        )
    }

    /// [`na_core::verify`] of the schedule on `grid`, the device it was
    /// compiled for: replayed by the first requester, shared by every
    /// job and campaign shard of the point.
    pub(crate) fn verify(&self, grid: &Grid) -> Result<(), CompileError> {
        let verdict = self
            .verified
            .get_or_init(|| na_core::verify(&self.compiled, grid));
        verdict.clone().map_err(|e| CompileError::VerifyFailed {
            detail: e.to_string(),
        })
    }
}

/// What a lookup yields: the compiled point, or its compile error.
pub(crate) type Lookup = Result<Arc<CompiledPoint>, CompileError>;

/// Hit/miss counters and current size of a [`CompileCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from an existing entry.
    pub hits: u64,
    /// Lookups that ran the compiler.
    pub misses: u64,
    /// Distinct compilation points currently cached.
    pub entries: usize,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A thread-safe memoized compilation cache. See the module docs.
#[derive(Debug)]
pub struct CompileCache {
    points: Memo<CacheKey, Lookup>,
    /// The compile passes' MID-independent front-end artifacts
    /// (lowered circuit + initial placement), shared across cache
    /// entries that differ only in MID/zone policy — a finer-grained
    /// reuse than the whole-compilation entries above.
    artifacts: ArtifactStore,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for CompileCache {
    fn default() -> Self {
        CompileCache {
            points: Memo::new(Some(na_telemetry::Span::CacheWait)),
            artifacts: ArtifactStore::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl CompileCache {
    /// An empty cache.
    pub fn new() -> Self {
        CompileCache::default()
    }

    /// Compiles `circuit` on `grid` under `config`, or returns the
    /// shared artifact if an identical point was compiled before.
    ///
    /// # Errors
    ///
    /// Propagates the (cached) [`CompileError`] of the point.
    pub fn get_or_compile(
        &self,
        circuit: &Circuit,
        grid: &Grid,
        config: &CompilerConfig,
    ) -> Result<Arc<CompiledCircuit>, CompileError> {
        self.lookup(circuit, grid, config)
            .map(|point| Arc::clone(&point.compiled))
    }

    /// The entry of one compilation point: served from memory (a hit),
    /// or compiled by this thread (a miss).
    pub(crate) fn lookup(&self, circuit: &Circuit, grid: &Grid, config: &CompilerConfig) -> Lookup {
        let served = self
            .points
            .get_or_claim(CacheKey::for_point(circuit, grid, config));
        na_telemetry::gauge_max(
            na_telemetry::Gauge::CompileCacheEntries,
            self.points.len() as u64,
        );
        let claim = match served {
            Ok(result) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                na_telemetry::add(na_telemetry::Counter::CompileCacheHits, 1);
                na_telemetry::trace::instant("cache", "cache_hit", Vec::new);
                return result;
            }
            Err(claim) => claim,
        };

        // This thread owns the claim; if the compiler (or an injected
        // failpoint) panics, the unwind drops it, releasing the key, so
        // later requesters retry instead of deadlocking on it.
        let result: Lookup = na_faults::point("engine.compile")
            .map_err(CompileError::from)
            .and_then(|()| {
                PLACEMENT_SCRATCH.with(|s| {
                    let mut report = na_telemetry::is_enabled().then(PassReport::default);
                    let compiled = na_core::run_passes(
                        circuit,
                        grid,
                        config,
                        &mut s.borrow_mut(),
                        Reuse::FrontEnd(&self.artifacts),
                        false,
                        report.as_mut(),
                    )?;
                    Ok(Arc::new(CompiledPoint {
                        compiled: Arc::new(compiled),
                        report,
                        summary: OnceLock::new(),
                        verified: OnceLock::new(),
                    }))
                })
            });
        if result.as_ref().is_err_and(CompileError::is_transient) {
            // A deadline expiry or injected fault describes this
            // request, not the compilation point: release the claim so
            // the next requester compiles for real.
            drop(claim);
        } else {
            claim.deposit(result.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        na_telemetry::add(na_telemetry::Counter::CompileCacheMisses, 1);
        na_telemetry::trace::instant("cache", "cache_miss", Vec::new);
        result
    }

    /// The front-end artifact store (placement reuse across MID
    /// variants) — exposed for occupancy/hit introspection.
    #[cfg(test)]
    pub(crate) fn artifacts(&self) -> &ArtifactStore {
        &self.artifacts
    }

    /// `true` if a completed compilation (or cached failure) for `key`
    /// is already present. Used to derive the deterministic per-row
    /// hit flag: an entry claimed but still compiling on another
    /// thread does not count.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.points.contains(key)
    }

    /// Current counters and size.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.points.len(),
        }
    }

    /// Drops all entries (with their summaries and reports) and the
    /// front-end artifacts, and zeroes the counters.
    pub fn clear(&self) {
        self.points.clear();
        self.artifacts.clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use na_benchmarks::Benchmark;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Runs `retry` on a detached thread and returns its answer, or
    /// fails after 30 s: a retry waiting on a claim nobody released
    /// would otherwise hang the test instead of failing it.
    fn retry_detached<T: Send + 'static>(retry: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(retry()));
        rx.recv_timeout(Duration::from_secs(30))
            .expect("the retry waits on a claim that was never released")
    }

    #[test]
    fn repeated_points_hit() {
        let cache = CompileCache::new();
        let grid = Grid::new(6, 6);
        let cfg = CompilerConfig::new(3.0);
        let c = Benchmark::Bv.generate(8, 0);
        let a = cache.get_or_compile(&c, &grid, &cfg).unwrap();
        let b = cache.get_or_compile(&c, &grid, &cfg).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the artifact");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn structurally_equal_circuits_share_an_entry() {
        let cache = CompileCache::new();
        let grid = Grid::new(6, 6);
        let cfg = CompilerConfig::new(3.0);
        // Generated twice — different allocations, same structure.
        let c1 = Benchmark::Cuccaro.generate(10, 0);
        let c2 = Benchmark::Cuccaro.generate(10, 0);
        cache.get_or_compile(&c1, &grid, &cfg).unwrap();
        cache.get_or_compile(&c2, &grid, &cfg).unwrap();
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn any_field_change_misses() {
        let cache = CompileCache::new();
        let grid = Grid::new(6, 6);
        let c = Benchmark::Bv.generate(8, 0);
        cache
            .get_or_compile(&c, &grid, &CompilerConfig::new(3.0))
            .unwrap();
        cache
            .get_or_compile(&c, &grid, &CompilerConfig::new(4.0))
            .unwrap();
        let mut holey = grid.clone();
        holey.remove_atom(na_arch::Site::new(1, 1));
        cache
            .get_or_compile(&c, &holey, &CompilerConfig::new(3.0))
            .unwrap();
        let bigger = Benchmark::Bv.generate(9, 0);
        cache
            .get_or_compile(&bigger, &grid, &CompilerConfig::new(3.0))
            .unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 4, 4));
    }

    #[test]
    fn failures_are_cached_too() {
        let cache = CompileCache::new();
        let grid = Grid::new(5, 5);
        let mut c = Circuit::new(3);
        c.toffoli(
            na_circuit::Qubit(0),
            na_circuit::Qubit(1),
            na_circuit::Qubit(2),
        );
        let cfg = CompilerConfig::new(1.0); // native Toffoli unroutable at MID 1
        assert!(cache.get_or_compile(&c, &grid, &cfg).is_err());
        assert!(cache.get_or_compile(&c, &grid, &cfg).is_err());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn summaries_are_shared_per_compilation_point() {
        let cache = CompileCache::new();
        let grid = Grid::new(6, 6);
        let cfg = CompilerConfig::new(3.0);
        let c = Benchmark::Bv.generate(8, 0);
        let first = cache.lookup(&c, &grid, &cfg).unwrap();
        let s1 = first.summary();
        let s2 = cache.lookup(&c, &grid, &cfg).unwrap().summary();
        assert!(Arc::ptr_eq(&s1, &s2), "summary must be memoized");
        assert_eq!(*s1, na_loss::InteractionSummary::of(&first.compiled));
        cache.clear();
        let s3 = cache.lookup(&c, &grid, &cfg).unwrap().summary();
        assert!(!Arc::ptr_eq(&s1, &s3), "clear must drop summaries");
    }

    #[test]
    fn hits_carry_the_compiling_threads_pass_report() {
        let cache = CompileCache::new();
        let grid = Grid::new(6, 6);
        let cfg = CompilerConfig::new(3.0);
        let c = Benchmark::Bv.generate(8, 0);
        // Reports are collected only while telemetry is on; the hit
        // below runs with it off and still carries the compile's one.
        // No other test in this crate switches telemetry, so the
        // process-global flag cannot flip under this test.
        na_telemetry::set_enabled(true);
        let compiled = cache.lookup(&c, &grid, &cfg).unwrap();
        na_telemetry::set_enabled(false);
        let hit = cache.lookup(&c, &grid, &cfg).unwrap();
        assert!(Arc::ptr_eq(&compiled, &hit));
        let report = hit.report.as_ref().expect("the compile collected a report");
        assert_eq!(
            report.passes.first().map(|p| p.pass.as_str()),
            Some("lower")
        );
        assert_eq!(cache.stats().hits, 1);
        cache.clear();
        assert!(
            cache.lookup(&c, &grid, &cfg).unwrap().report.is_none(),
            "clear must drop reports"
        );
    }

    #[test]
    fn injected_panic_releases_the_claim_for_retry() {
        let _serial = na_faults::exclusive();
        na_faults::reset();
        na_faults::arm(
            na_faults::FaultPlan::new("engine.compile", na_faults::FaultAction::Panic)
                .in_scope("cache-panic"),
        );
        let cache = CompileCache::new();
        let grid = Grid::new(6, 6);
        let cfg = CompilerConfig::new(3.0);
        let c = Benchmark::Bv.generate(8, 0);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _scope = na_faults::scope("cache-panic");
            cache.get_or_compile(&c, &grid, &cfg)
        }));
        assert!(unwound.is_err(), "the armed failpoint must panic");
        na_faults::reset();
        // The unwind dropped the claim, releasing the key: this retry
        // claims it and compiles for real instead of deadlocking on a
        // key claimed forever.
        let (retried, stats) = retry_detached(move || {
            let retried = cache.get_or_compile(&c, &grid, &cfg);
            (retried, cache.stats())
        });
        assert!(retried.is_ok());
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 1),
            "the panicked attempt counts as neither hit nor miss"
        );
    }

    #[test]
    fn transient_injected_errors_are_not_memoized() {
        let _serial = na_faults::exclusive();
        na_faults::reset();
        na_faults::arm(
            na_faults::FaultPlan::new("engine.compile", na_faults::FaultAction::Error)
                .in_scope("cache-transient"),
        );
        let cache = CompileCache::new();
        let grid = Grid::new(6, 6);
        let cfg = CompilerConfig::new(3.0);
        let c = Benchmark::Bv.generate(8, 0);
        let key = CacheKey::for_point(&c, &grid, &cfg);
        let err = {
            let _scope = na_faults::scope("cache-transient");
            cache.get_or_compile(&c, &grid, &cfg).unwrap_err()
        };
        assert!(err.is_transient());
        assert!(
            !cache.contains(&key),
            "an injected error describes the request, not the point"
        );
        na_faults::reset();
        assert!(cache.get_or_compile(&c, &grid, &cfg).is_ok());
        assert!(cache.contains(&key));
        assert_eq!(cache.stats().hits, 0, "nothing was served from memory");
    }

    #[test]
    fn expired_deadlines_release_the_claim_too() {
        let cache = CompileCache::new();
        let grid = Grid::new(6, 6);
        let cfg = CompilerConfig::new(3.0);
        let c = Benchmark::Bv.generate(8, 0);
        let key = CacheKey::for_point(&c, &grid, &cfg);
        let err = {
            let _over =
                na_faults::push_deadline(na_faults::Deadline::after(std::time::Duration::ZERO));
            cache.get_or_compile(&c, &grid, &cfg).unwrap_err()
        };
        assert!(matches!(err, CompileError::DeadlineExceeded));
        assert!(
            !cache.contains(&key),
            "one job's expired budget must not be memoized for others"
        );
        assert!(retry_detached(move || cache.get_or_compile(&c, &grid, &cfg)).is_ok());
    }

    #[test]
    fn waiters_share_the_delayed_claimants_artifact() {
        let _serial = na_faults::exclusive();
        na_faults::reset();
        na_faults::arm(
            na_faults::FaultPlan::new(
                "engine.compile",
                na_faults::FaultAction::Delay(std::time::Duration::from_millis(80)),
            )
            .in_scope("cache-delay"),
        );
        let cache = CompileCache::new();
        let grid = Grid::new(6, 6);
        let cfg = CompilerConfig::new(3.0);
        let c = Benchmark::Bv.generate(8, 0);
        std::thread::scope(|s| {
            let claimant = s.spawn(|| {
                let _scope = na_faults::scope("cache-delay");
                cache.get_or_compile(&c, &grid, &cfg).unwrap()
            });
            // Give the claimant time to take the entry, then request
            // the same key: this thread must block on the entry's
            // condvar and share the artifact, not compile again.
            std::thread::sleep(std::time::Duration::from_millis(20));
            let waited = cache.get_or_compile(&c, &grid, &cfg).unwrap();
            let claimed = claimant.join().unwrap();
            assert!(Arc::ptr_eq(&claimed, &waited));
        });
        na_faults::reset();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn clear_resets_everything() {
        let cache = CompileCache::new();
        let grid = Grid::new(6, 6);
        let c = Benchmark::Bv.generate(8, 0);
        cache
            .get_or_compile(&c, &grid, &CompilerConfig::new(3.0))
            .unwrap();
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
        assert!(cache.artifacts().is_empty());
        assert_eq!(cache.artifacts().hits(), 0);
    }

    #[test]
    fn mid_variants_share_front_end_artifacts() {
        let cache = CompileCache::new();
        let grid = Grid::new(8, 8);
        let c = Benchmark::Bv.generate(10, 0);
        let a = cache
            .get_or_compile(&c, &grid, &CompilerConfig::new(2.0))
            .unwrap();
        assert_eq!(cache.artifacts().len(), 1);
        assert_eq!(cache.artifacts().hits(), 0);
        let b = cache
            .get_or_compile(&c, &grid, &CompilerConfig::new(4.0))
            .unwrap();
        assert_eq!(
            (cache.artifacts().len(), cache.artifacts().hits()),
            (1, 1),
            "MID variants must share one front-end entry"
        );
        // Distinct compile-cache entries, same (MID-independent)
        // initial placement, and the reused placement must compile to
        // exactly the artifact a fresh pipeline produces.
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(a.initial_map(), b.initial_map());
        let fresh = na_core::compile(&c, &grid, &CompilerConfig::new(4.0)).unwrap();
        assert_eq!(*b, fresh, "artifact reuse must be bit-identical");
    }
}
