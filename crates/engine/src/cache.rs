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
//! Concurrency: one state cell per key (`Vacant` → `InFlight` →
//! `Done`). The first thread to claim a key runs the compiler; any
//! thread arriving while compilation is in flight waits on that entry
//! only (never on other keys) and then shares the result. Failed
//! compilations are cached too — a sweep with many unroutable points
//! pays for the failure once.
//!
//! Failure domain: the claiming thread holds an unwind guard, so a
//! compiler panic releases the claim (back to `Vacant`, waiters woken)
//! instead of wedging every later requester of that key — the
//! poisoned-`OnceLock` deadlock this design replaces. Transient
//! errors ([`CompileError::is_transient`]: injected faults, expired
//! deadlines) likewise release the claim rather than being memoized,
//! so one job's fault or budget can never contaminate another job
//! sharing its compile key. All internal locks recover from poison.

use na_arch::Grid;
use na_circuit::Circuit;
use na_core::{
    ArtifactStore, CompileError, CompiledCircuit, CompilerConfig, PassReport, PlacementScratch,
    Reuse,
};
use na_loss::InteractionSummary;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

thread_local! {
    /// One placement scratch per worker thread: every cache miss this
    /// thread compiles reuses the placement fast path's free-site list
    /// and ordering caches instead of reallocating them per program.
    static PLACEMENT_SCRATCH: RefCell<PlacementScratch> = RefCell::new(PlacementScratch::new());
}

/// Replaces this thread's placement scratch with a fresh one. Called
/// by the engine after isolating a job panic: an unwind mid-placement
/// may leave the scratch's reusable caches half-updated, and the next
/// compile on this worker must not inherit that state.
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

type CompileResult = Result<Arc<CompiledCircuit>, CompileError>;

/// Lifecycle of one cache entry.
#[derive(Debug)]
enum EntryState {
    /// Nobody owns the compile: initial, or the previous claimant
    /// abandoned it (panicked, was injected with a fault, or ran out
    /// of deadline). The next requester claims and retries.
    Vacant,
    /// A thread is compiling; requesters wait on the entry's condvar.
    InFlight,
    /// Terminal memoized result shared by every requester.
    Done(CompileResult),
}

/// One keyed entry: a state cell plus the condvar in-flight waiters
/// block on. Waiting is per-entry — never across keys.
#[derive(Debug)]
struct EntryCell {
    state: Mutex<EntryState>,
    ready: Condvar,
}

impl Default for EntryCell {
    fn default() -> Self {
        EntryCell {
            state: Mutex::new(EntryState::Vacant),
            ready: Condvar::new(),
        }
    }
}

type Entry = Arc<EntryCell>;

/// Locks `mutex`, recovering the data from a poisoned lock: cache
/// state transitions never happen while panicking (the unwind guard
/// only resets a claim), so the underlying state is always coherent.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Releases an `InFlight` claim back to `Vacant` if the claimant
/// unwinds, and wakes every waiter so one of them re-claims. Defused
/// on the normal path.
struct ClaimGuard<'a> {
    cell: &'a EntryCell,
    armed: bool,
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            *lock_recover(&self.cell.state) = EntryState::Vacant;
            self.cell.ready.notify_all();
        }
    }
}

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
#[derive(Debug, Default)]
pub struct CompileCache {
    entries: Mutex<HashMap<CacheKey, Entry>>,
    /// Per-compilation [`InteractionSummary`] memo: campaign jobs
    /// sharing a compiled schedule also share its deduped
    /// interaction-pair summary instead of each
    /// [`na_loss::StrategyState`] rebuilding it.
    summaries: Mutex<HashMap<CacheKey, Arc<InteractionSummary>>>,
    /// The compile passes' MID-independent front-end artifacts
    /// (lowered circuit + initial placement), shared across cache
    /// entries that differ only in MID/zone policy — a finer-grained
    /// reuse than the whole-compilation entries above.
    artifacts: ArtifactStore,
    /// Per-entry [`PassReport`] from the compiling thread (collected
    /// only while telemetry is enabled); runner rows attach it next to
    /// their span deltas.
    reports: Mutex<HashMap<CacheKey, Arc<PassReport>>>,
    hits: AtomicU64,
    misses: AtomicU64,
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
        let key = CacheKey::for_point(circuit, grid, config);
        let (entry, occupancy): (Entry, u64) = {
            let mut map = lock_recover(&self.entries);
            let entry = Arc::clone(map.entry(key).or_default());
            (entry, map.len() as u64)
        };
        na_telemetry::gauge_max(na_telemetry::Gauge::CompileCacheEntries, occupancy);

        // Claim loop: serve a Done result, wait out another thread's
        // InFlight claim, or take a Vacant entry and compile.
        {
            let mut state = lock_recover(&entry.state);
            loop {
                match &*state {
                    EntryState::Done(result) => {
                        let result = result.clone();
                        drop(state);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        na_telemetry::add(na_telemetry::Counter::CompileCacheHits, 1);
                        na_telemetry::trace::instant("cache", "cache_hit", Vec::new);
                        return result;
                    }
                    EntryState::InFlight => {
                        let _wait_span = na_telemetry::span(na_telemetry::Span::CacheWait);
                        state = entry
                            .ready
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    EntryState::Vacant => {
                        *state = EntryState::InFlight;
                        break;
                    }
                }
            }
        }

        // This thread owns the claim; the guard releases it if the
        // compiler (or an injected failpoint) panics, so later
        // requesters retry instead of deadlocking on the entry.
        let mut claim = ClaimGuard {
            cell: &entry,
            armed: true,
        };
        let result: CompileResult = na_faults::point("engine.compile")
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
                    if let Some(report) = report {
                        lock_recover(&self.reports)
                            .entry(key)
                            .or_insert_with(|| Arc::new(report));
                    }
                    Ok(Arc::new(compiled))
                })
            });
        claim.armed = false;
        {
            let mut state = lock_recover(&entry.state);
            if result.as_ref().is_err_and(CompileError::is_transient) {
                // A deadline expiry or injected fault describes this
                // request, not the compilation point: release the
                // claim so the next requester compiles for real.
                *state = EntryState::Vacant;
            } else {
                *state = EntryState::Done(result.clone());
            }
        }
        entry.ready.notify_all();
        self.misses.fetch_add(1, Ordering::Relaxed);
        na_telemetry::add(na_telemetry::Counter::CompileCacheMisses, 1);
        na_telemetry::trace::instant("cache", "cache_miss", Vec::new);
        result
    }

    /// The memoized [`InteractionSummary`] of the compilation at
    /// `key`, building (and caching) it from `compiled` on first use.
    /// Deterministic regardless of which thread builds it — the
    /// summary is a pure function of the compiled schedule.
    pub fn summary_for(
        &self,
        key: &CacheKey,
        compiled: &CompiledCircuit,
    ) -> Arc<InteractionSummary> {
        if let Some(summary) = lock_recover(&self.summaries).get(key) {
            return Arc::clone(summary);
        }
        // Built *outside* the lock: a panic in the builder must leave
        // the map untouched (the lock recovers from poison and the
        // next requester rebuilds), and determinism makes the benign
        // double-build race harmless — first insert wins, identical
        // values either way.
        let built = Arc::new(InteractionSummary::of(compiled));
        Arc::clone(lock_recover(&self.summaries).entry(*key).or_insert(built))
    }

    /// The [`PassReport`] of the compilation at `key`, if one was
    /// collected (the compiling thread records it only while telemetry
    /// is enabled). Cache hits share the original compile's report —
    /// it describes the artifact, not the lookup.
    pub fn pass_report(&self, key: &CacheKey) -> Option<Arc<PassReport>> {
        lock_recover(&self.reports).get(key).cloned()
    }

    /// The front-end artifact store (placement reuse across MID
    /// variants) — exposed for occupancy/hit introspection.
    pub fn artifacts(&self) -> &ArtifactStore {
        &self.artifacts
    }

    /// `true` if a completed compilation (or cached failure) for `key`
    /// is already present. Used to derive the deterministic per-row
    /// hit flag: an entry claimed but still compiling on another
    /// thread does not count.
    pub fn contains(&self, key: &CacheKey) -> bool {
        lock_recover(&self.entries)
            .get(key)
            .is_some_and(|entry| matches!(&*lock_recover(&entry.state), EntryState::Done(_)))
    }

    /// Current counters and size.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: lock_recover(&self.entries).len(),
        }
    }

    /// Drops all entries (summaries, pass artifacts, and reports
    /// included) and zeroes the counters.
    pub fn clear(&self) {
        lock_recover(&self.entries).clear();
        lock_recover(&self.summaries).clear();
        lock_recover(&self.reports).clear();
        self.artifacts.clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use na_benchmarks::Benchmark;

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
        let compiled = cache.get_or_compile(&c, &grid, &cfg).unwrap();
        let key = CacheKey::for_point(&c, &grid, &cfg);
        let s1 = cache.summary_for(&key, &compiled);
        let s2 = cache.summary_for(&key, &compiled);
        assert!(Arc::ptr_eq(&s1, &s2), "summary must be memoized");
        assert_eq!(*s1, na_loss::InteractionSummary::of(&compiled));
        cache.clear();
        let s3 = cache.summary_for(&key, &compiled);
        assert!(!Arc::ptr_eq(&s1, &s3), "clear must drop summaries");
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
        // The unwind guard reset the entry to Vacant: this retry
        // claims it and compiles for real instead of deadlocking on a
        // permanently-InFlight entry.
        let retried = cache.get_or_compile(&c, &grid, &cfg);
        assert!(retried.is_ok());
        let stats = cache.stats();
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
        assert!(cache.get_or_compile(&c, &grid, &cfg).is_ok());
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
