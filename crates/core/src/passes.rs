//! The compile passes and the one function that runs them.
//!
//! [`run`] is the whole compiler, six named passes over typed
//! intermediates:
//!
//! ```text
//! lower → validate_arity → place → route_schedule → verify → finalize
//!   Circuit                QubitMap  ScheduleResult             CompiledCircuit
//! ```
//!
//! Before each pass it checks the job's cooperative deadline
//! ([`na_faults::check_deadline`]), so an expired budget stops at the
//! next pass boundary with a typed [`CompileError::DeadlineExceeded`],
//! and opens the pass's [`na_telemetry::Span`], which feeds the
//! metrics histogram and the trace under the pass name. When the
//! caller asks for a [`PassReport`], the span's duration becomes the
//! pass's row and its statistics are collected; `natoms
//! bench`/`natoms compile --passes` print the report and
//! telemetry-tagged engine rows carry it.
//!
//! # Artifact reuse
//!
//! The MID enters compilation only at routing/scheduling: lowering
//! reads the gate-set fields (`native_multiqubit`, `max_native_arity`)
//! and placement reads `lookahead_depth`, so the lowered circuit and
//! the initial placement are *MID-independent*. [`ArtifactStore`] is
//! the cache that exploits this: keyed by circuit fingerprint × grid
//! fingerprint × front-end config fingerprint, it lets a sweep over MID
//! variants of one circuit reuse the placement instead of recomputing
//! it, bit-for-bit identical to a fresh compile (pinned by
//! `tests/pipeline_differential.rs`). [`Reuse`] selects how a compile
//! uses a store.

use crate::compiler::{lower_for, verify_parts, CompiledCircuit};
use crate::placement::{circuit_weights, initial_placement_with, PlacementScratch};
use crate::scheduler::{self, ScheduleResult};
use crate::{CompileError, CompilerConfig, QubitMap};
use na_arch::{Grid, InteractionGraph};
use na_circuit::{Circuit, Gate};
use na_telemetry::Span;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What a compile may take from, and leave in, an [`ArtifactStore`].
#[derive(Debug, Clone, Copy)]
pub enum Reuse<'a> {
    /// Lower and place from scratch; touch no store.
    Nothing,
    /// Serve the lowered circuit and the initial placement from the
    /// store when it holds them for this (circuit, grid, front-end
    /// config), and deposit both after computing them. The engine's
    /// compile cache uses this across MID variants of one circuit.
    FrontEnd(&'a ArtifactStore),
    /// Serve and deposit only the grid-independent lowering; always
    /// place afresh and deposit no placement. This is for recompiling
    /// one program against a mutating grid (the `FullRecompile` loss
    /// strategy, where every loss event changes the grid fingerprint):
    /// lowering never reads the grid, so it is reusable across every
    /// hole pattern, but caching one placement per hole pattern would
    /// grow without bound over a campaign.
    Lowering(&'a ArtifactStore),
}

/// Compiles `circuit` for `grid` under `config` through the six passes
/// (see the module docs).
///
/// `reuse` selects the artifact store the front-end passes serve from
/// and deposit into; `verify` replays the schedule against the hardware
/// constraints before finalizing; `report`, when given, receives one
/// timed row per pass. None of the three changes the compiled circuit.
///
/// # Errors
///
/// As [`compile`](crate::compile), plus [`CompileError::VerifyFailed`]
/// when `verify` rejects the schedule (a compiler bug by definition),
/// and [`CompileError::DeadlineExceeded`] at a pass boundary.
pub fn run(
    circuit: &Circuit,
    grid: &Grid,
    config: &CompilerConfig,
    scratch: &mut PlacementScratch,
    reuse: Reuse<'_>,
    verify: bool,
    report: Option<&mut PassReport>,
) -> Result<CompiledCircuit, CompileError> {
    let mut passes = Passes { report };
    let (store, front_end) = match reuse {
        Reuse::Nothing => (None, false),
        Reuse::FrontEnd(store) => (Some(store), true),
        Reuse::Lowering(store) => (Some(store), false),
    };
    let store = store.map(|store| (store, ArtifactKey::of(circuit, grid, config)));
    let cached = match store {
        Some((store, key)) if front_end => store.get(&key),
        _ => None,
    };

    let lowered = passes.run(Span::Lower, |stats| {
        Ok(lower(circuit, config, store, cached.as_deref(), stats))
    })?;
    passes.run(Span::ValidateArity, |stats| {
        validate_arity(&lowered, config, stats)
    })?;
    let placement = passes.run(Span::Place, |stats| {
        let deposit = store.filter(|_| front_end);
        place(
            &lowered,
            grid,
            config,
            scratch,
            deposit,
            cached.as_deref(),
            stats,
        )
    })?;
    let initial = placement.to_table();
    let schedule = passes.run(Span::RouteSchedule, |stats| {
        route_schedule(&lowered, grid, config, placement, stats)
    })?;
    passes.run(Span::Verify, |stats| {
        if !verify {
            stats.set("skipped", 1);
            return Ok(());
        }
        let final_table = schedule.final_map.to_table();
        verify_parts(
            &lowered,
            config,
            &schedule.ops,
            &initial,
            &final_table,
            grid,
        )
        .map_err(|e| CompileError::VerifyFailed {
            detail: e.to_string(),
        })?;
        stats.set("ops_checked", schedule.ops.len() as u64);
        Ok(())
    })?;
    passes.run(Span::Finalize, |stats| {
        na_telemetry::add(na_telemetry::Counter::Compiles, 1);
        na_telemetry::add(
            na_telemetry::Counter::OpsScheduled,
            schedule.ops.len() as u64,
        );
        let compiled = CompiledCircuit::from_parts(lowered, schedule, initial, *config);
        stats.set("used_sites", compiled.used_sites().len() as u64);
        Ok(compiled)
    })
}

/// `lower`: gate-set lowering via [`lower_for`], served from the store
/// when it holds this compile's front-end artifacts or its lowering.
/// Lowering is a pure function of (circuit, front-end config), so a
/// cached copy is bit-identical to a fresh one. Stats: `gates`, and
/// `reused` or `reused_lowered` on a hit.
fn lower(
    circuit: &Circuit,
    config: &CompilerConfig,
    store: Option<(&ArtifactStore, ArtifactKey)>,
    cached: Option<&PassArtifacts>,
    stats: &mut Stats,
) -> Circuit {
    let lowered = if let Some(art) = cached {
        stats.set("reused", 1);
        (*art.lowered).clone()
    } else if let Some(low) = store.and_then(|(store, key)| store.get_lowered(&key)) {
        stats.set("reused_lowered", 1);
        (*low).clone()
    } else {
        let low = lower_for(circuit, config);
        if let Some((store, key)) = store {
            store.insert_lowered(key, Arc::new(low.clone()));
        }
        low
    };
    stats.set("gates", lowered.len() as u64);
    lowered
}

/// `validate_arity`: rejects native multiqubit gates no placement can
/// ever bring within the MID. An arity-k gate needs k atoms pairwise
/// within the MID; the tightest k-site cluster on a grid is a
/// ⌈√k⌉×⌈√k⌉ block whose diagonal is √2·(⌈√k⌉−1). Stats: `max_arity`.
fn validate_arity(
    lowered: &Circuit,
    config: &CompilerConfig,
    stats: &mut Stats,
) -> Result<(), CompileError> {
    let max_arity = lowered
        .iter()
        .filter(|g| !g.is_measure())
        .map(Gate::arity)
        .max()
        .unwrap_or(1);
    stats.set("max_arity", max_arity as u64);
    if max_arity >= 3 {
        let side = (max_arity as f64).sqrt().ceil();
        let required_sq = 2.0 * (side - 1.0) * (side - 1.0);
        if config.mid * config.mid < required_sq - 1e-9 {
            return Err(CompileError::UnroutableGate { arity: max_arity });
        }
    }
    Ok(())
}

/// `place`: the cached placement on a front-end hit, else the
/// lookahead-weighted initial placement, deposited with the lowering
/// into `deposit` when given. Stats: `qubits`, and `reused` on a hit.
fn place(
    lowered: &Circuit,
    grid: &Grid,
    config: &CompilerConfig,
    scratch: &mut PlacementScratch,
    deposit: Option<(&ArtifactStore, ArtifactKey)>,
    cached: Option<&PassArtifacts>,
    stats: &mut Stats,
) -> Result<QubitMap, CompileError> {
    stats.set("qubits", u64::from(lowered.num_qubits()));
    if let Some(art) = cached {
        stats.set("reused", 1);
        return Ok(art.placement.clone());
    }
    let weights = circuit_weights(lowered, config.lookahead_depth);
    let placement = initial_placement_with(lowered, grid, &weights, scratch)?;
    if let Some((store, key)) = deposit {
        store.insert(
            key,
            PassArtifacts {
                lowered: Arc::new(lowered.clone()),
                placement: placement.clone(),
            },
        );
    }
    Ok(placement)
}

/// `route_schedule`: the restriction-zone frontier scheduler
/// ([`crate::scheduler`]), which also reports its routing phases under
/// [`Span::Route`]. Stats: `ops`, `swaps`, `timesteps`.
fn route_schedule(
    lowered: &Circuit,
    grid: &Grid,
    config: &CompilerConfig,
    placement: QubitMap,
    stats: &mut Stats,
) -> Result<ScheduleResult, CompileError> {
    // The precomputed flat-index interaction graph every hot loop
    // (SWAP scoring, forced hops) runs over; memoized per (grid, MID).
    let graph = InteractionGraph::cached(grid, config.mid);
    let result = scheduler::run(lowered, grid, &graph, config, placement)?;
    stats.set("ops", result.ops.len() as u64);
    stats.set(
        "swaps",
        result.ops.iter().filter(|o| o.is_swap()).count() as u64,
    );
    stats.set("timesteps", u64::from(result.num_timesteps));
    Ok(result)
}

/// Runs each pass of one compile behind its deadline checkpoint and
/// inside its span, adding its [`PassTiming`] row when a report is
/// wanted.
struct Passes<'r> {
    report: Option<&'r mut PassReport>,
}

impl Passes<'_> {
    fn run<T>(
        &mut self,
        name: Span,
        pass: impl FnOnce(&mut Stats) -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        // One relaxed load when no deadline is armed.
        na_faults::check_deadline()?;
        let Some(report) = self.report.as_deref_mut() else {
            let _span = na_telemetry::span(name);
            return pass(&mut Stats(None));
        };
        let mut stats = Stats(Some(BTreeMap::new()));
        let span = na_telemetry::span_timed(name);
        let outcome = pass(&mut stats);
        let ns = span.end();
        report.passes.push(PassTiming {
            pass: name.name().to_string(),
            ns,
            stats: stats.0.unwrap_or_default(),
        });
        report.total_ns += ns;
        outcome
    }
}

/// The statistics one pass records for its report row; `None` (and
/// every `set` a no-op) when no report is collected.
struct Stats(Option<BTreeMap<String, u64>>);

impl Stats {
    fn set(&mut self, key: &str, value: u64) {
        if let Some(stats) = &mut self.0 {
            stats.insert(key.to_string(), value);
        }
    }
}

/// Per-pass wall time and artifact statistics for one compilation,
/// filled in by [`run`] when the caller passes one.
///
/// Wall-clock measurements: each row is its pass span's duration.
/// Exempt from the byte-reproducibility contract (like the engine's
/// per-row span deltas), while the compiled artifact itself stays
/// digest-pinned.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PassReport {
    /// One row per executed pass, in pass order.
    pub passes: Vec<PassTiming>,
    /// Sum of the per-pass times.
    pub total_ns: u64,
}

/// One [`PassReport`] row.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PassTiming {
    /// The pass name (`lower`, `validate_arity`, `place`,
    /// `route_schedule`, `verify` or `finalize`).
    pub pass: String,
    /// Wall time spent in the pass.
    pub ns: u64,
    /// Artifact statistics the pass recorded (gate counts, op counts,
    /// reuse flags — see each pass's docs).
    pub stats: BTreeMap<String, u64>,
}

impl PassReport {
    /// Renders the per-pass timing table `natoms compile --passes`
    /// prints.
    pub fn render(&self) -> String {
        let mut out = String::from("pass            time        stats\n");
        for row in &self.passes {
            let stats = row
                .stats
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            out.push_str(&format!(
                "{:<15} {:>10}  {}\n",
                row.pass,
                na_telemetry::fmt_ns(row.ns),
                stats
            ));
        }
        out.push_str(&format!(
            "{:<15} {:>10}\n",
            "total",
            na_telemetry::fmt_ns(self.total_ns)
        ));
        out
    }
}

/// Key of one [`ArtifactStore`] entry: circuit fingerprint × grid
/// fingerprint × the front-end config fields that influence lowering
/// and placement (`native_multiqubit`, `max_native_arity`,
/// `lookahead_depth`). The MID is deliberately absent — that is the
/// whole point of the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    circuit: u64,
    grid: u64,
    front: u64,
}

impl ArtifactKey {
    /// The key for compiling `circuit` on `grid` under `config`.
    pub fn of(circuit: &Circuit, grid: &Grid, config: &CompilerConfig) -> Self {
        use na_circuit::fingerprint::fnv1a_extend;
        let mut front = fnv1a_extend(0xcbf2_9ce4_8422_2325, u64::from(config.native_multiqubit));
        front = fnv1a_extend(front, config.max_native_arity as u64);
        front = fnv1a_extend(front, config.lookahead_depth as u64);
        ArtifactKey {
            circuit: circuit.fingerprint(),
            grid: grid.fingerprint(),
            front,
        }
    }
}

/// The MID-independent front-end artifacts of one compilation.
#[derive(Debug)]
pub struct PassArtifacts {
    /// The lowered circuit (`lower` output).
    pub lowered: Arc<Circuit>,
    /// The lookahead-weighted initial placement (`place` output).
    pub placement: QubitMap,
}

/// Concurrent cache of [`PassArtifacts`], shared across compilations
/// of MID variants of the same circuit (the engine's compile cache
/// holds one per process).
///
/// Only successful placements are stored; a first-insert-wins policy
/// keeps concurrent writers deterministic.
#[derive(Debug, Default)]
pub struct ArtifactStore {
    map: Mutex<HashMap<ArtifactKey, Arc<PassArtifacts>>>,
    hits: AtomicU64,
    /// The grid-independent lowering cache, keyed by (circuit, front)
    /// only: lowering never reads the grid, so one entry serves every
    /// hole pattern of the same program (the `FullRecompile` case).
    lowered: Mutex<HashMap<(u64, u64), Arc<Circuit>>>,
    lowered_hits: AtomicU64,
}

impl ArtifactStore {
    /// An empty store.
    pub fn new() -> Self {
        ArtifactStore::default()
    }

    /// Looks up `key`, counting a hit when present.
    pub fn get(&self, key: &ArtifactKey) -> Option<Arc<PassArtifacts>> {
        let got = lock_recover(&self.map).get(key).cloned();
        if got.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            na_telemetry::add(na_telemetry::Counter::ArtifactHits, 1);
            na_telemetry::trace::instant("artifact", "artifact_hit", Vec::new);
        }
        got
    }

    /// Deposits `artifacts` under `key` (first insert wins).
    pub fn insert(&self, key: ArtifactKey, artifacts: PassArtifacts) {
        lock_recover(&self.map)
            .entry(key)
            .or_insert_with(|| Arc::new(artifacts));
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        lock_recover(&self.map).len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of compilations that reused a cached entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Looks up the cached lowering for `key`'s (circuit, front) pair
    /// — the grid component is deliberately ignored — counting a hit
    /// when present.
    pub fn get_lowered(&self, key: &ArtifactKey) -> Option<Arc<Circuit>> {
        let got = lock_recover(&self.lowered)
            .get(&(key.circuit, key.front))
            .cloned();
        if got.is_some() {
            self.lowered_hits.fetch_add(1, Ordering::Relaxed);
            na_telemetry::add(na_telemetry::Counter::ArtifactLoweredHits, 1);
            na_telemetry::trace::instant("artifact", "artifact_lowered_hit", Vec::new);
        }
        got
    }

    /// Deposits a lowered circuit under `key`'s (circuit, front) pair
    /// (first insert wins).
    pub fn insert_lowered(&self, key: ArtifactKey, lowered: Arc<Circuit>) {
        lock_recover(&self.lowered)
            .entry((key.circuit, key.front))
            .or_insert(lowered);
    }

    /// Number of cached lowerings.
    pub fn lowered_len(&self) -> usize {
        lock_recover(&self.lowered).len()
    }

    /// Number of compilations that reused a cached lowering.
    pub fn lowered_hits(&self) -> u64 {
        self.lowered_hits.load(Ordering::Relaxed)
    }

    /// Drops every entry (both maps) and zeroes the hit counters.
    pub fn clear(&self) {
        lock_recover(&self.map).clear();
        self.hits.store(0, Ordering::Relaxed);
        lock_recover(&self.lowered).clear();
        self.lowered_hits.store(0, Ordering::Relaxed);
    }
}

/// Mutex poisoning recovery: artifacts are immutable once inserted, so
/// a panicking holder cannot leave them half-written.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use na_arch::Site;
    use na_benchmarks::Benchmark;

    fn inputs() -> (Circuit, Grid, CompilerConfig) {
        (
            Benchmark::Bv.generate(12, 0),
            Grid::new(8, 8),
            CompilerConfig::new(2.0),
        )
    }

    /// One compile of `c` on `grid` through `reuse`.
    fn compile_reusing(
        c: &Circuit,
        grid: &Grid,
        cfg: &CompilerConfig,
        reuse: Reuse<'_>,
    ) -> CompiledCircuit {
        run(
            c,
            grid,
            cfg,
            &mut PlacementScratch::new(),
            reuse,
            false,
            None,
        )
        .unwrap()
    }

    /// One compile of the test inputs, also returning its report.
    fn reported(verify: bool) -> (CompiledCircuit, PassReport) {
        let (c, grid, cfg) = inputs();
        let mut report = PassReport::default();
        let mut scratch = PlacementScratch::new();
        let compiled = run(
            &c,
            &grid,
            &cfg,
            &mut scratch,
            Reuse::Nothing,
            verify,
            Some(&mut report),
        )
        .unwrap();
        (compiled, report)
    }

    #[test]
    fn reported_run_times_every_pass_and_collects_stats() {
        let (compiled, report) = reported(false);
        assert_eq!(report.passes.len(), 6);
        assert_eq!(report.total_ns, report.passes.iter().map(|p| p.ns).sum());
        let by_name = |n: &str| {
            report
                .passes
                .iter()
                .find(|p| p.pass == n)
                .unwrap_or_else(|| panic!("pass {n} reported"))
        };
        assert_eq!(
            by_name("route_schedule").stats["ops"],
            compiled.ops().len() as u64
        );
        assert_eq!(
            by_name("finalize").stats["used_sites"],
            compiled.used_sites().len() as u64
        );
        assert!(by_name("lower").stats["gates"] > 0);
        assert_eq!(by_name("verify").stats["skipped"], 1);
    }

    #[test]
    fn self_checking_pipeline_verifies_and_reports_it() {
        let (compiled, report) = reported(true);
        let verify = report.passes.iter().find(|p| p.pass == "verify").unwrap();
        assert_eq!(verify.stats["ops_checked"], compiled.ops().len() as u64);
        let (_, grid, _) = inputs();
        crate::verify(&compiled, &grid).expect("self-checked schedule verifies externally too");
    }

    #[test]
    fn artifact_key_ignores_the_mid() {
        let (c, grid, _) = inputs();
        let a = ArtifactKey::of(&c, &grid, &CompilerConfig::new(2.0));
        let b = ArtifactKey::of(&c, &grid, &CompilerConfig::new(5.0));
        assert_eq!(a, b, "MID variants share front-end artifacts");
        let narity = ArtifactKey::of(&c, &grid, &CompilerConfig::new(2.0).with_lookahead_depth(3));
        assert_ne!(a, narity, "placement inputs are part of the key");
    }

    #[test]
    fn artifact_store_counts_hits_and_clears() {
        let (c, grid, cfg) = inputs();
        let store = ArtifactStore::new();
        compile_reusing(&c, &grid, &cfg, Reuse::FrontEnd(&store));
        assert_eq!(store.len(), 1);
        assert_eq!(store.hits(), 0);

        compile_reusing(&c, &grid, &cfg, Reuse::FrontEnd(&store));
        assert_eq!(store.len(), 1);
        assert_eq!(store.hits(), 1);

        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.hits(), 0);
    }

    #[test]
    fn lowered_only_reuse_serves_across_grids_without_storing_placements() {
        let (c, grid, cfg) = inputs();
        let store = ArtifactStore::new();

        // First compile on the pristine grid, lowering only: deposits
        // one lowering, zero full artifacts.
        let fresh = compile_reusing(&c, &grid, &cfg, Reuse::Lowering(&store));
        assert_eq!(store.lowered_len(), 1);
        assert_eq!(store.lowered_hits(), 0);
        assert_eq!(store.len(), 0, "lowering-only reuse stores no placements");

        // Recompile on a mutated grid (different grid fingerprint —
        // the FullRecompile situation): the lowering is served, the
        // full map stays empty, and the compile is bit-identical to one
        // without a store.
        let mut holey = grid.clone();
        holey.remove_atom(Site::new(0, 0));
        let reused = compile_reusing(&c, &holey, &cfg, Reuse::Lowering(&store));
        assert_eq!(store.lowered_hits(), 1);
        assert_eq!(store.lowered_len(), 1);
        assert_eq!(store.len(), 0);
        let direct = compile_reusing(&c, &holey, &cfg, Reuse::Nothing);
        assert_eq!(reused, direct);

        // A pre-seeded lowering (how campaigns seed the store from an
        // already compiled schedule) hits immediately.
        let seeded = ArtifactStore::new();
        seeded.insert_lowered(
            ArtifactKey::of(&c, &grid, &cfg),
            Arc::new(fresh.circuit().clone()),
        );
        compile_reusing(&c, &holey, &cfg, Reuse::Lowering(&seeded));
        assert_eq!(seeded.lowered_hits(), 1);

        store.clear();
        assert_eq!(store.lowered_len(), 0);
        assert_eq!(store.lowered_hits(), 0);
    }

    #[test]
    fn full_reuse_also_populates_the_lowering_cache() {
        let (c, grid, cfg) = inputs();
        let store = ArtifactStore::new();
        compile_reusing(&c, &grid, &cfg, Reuse::FrontEnd(&store));
        assert_eq!(store.len(), 1);
        assert_eq!(store.lowered_len(), 1);
        // A full-artifact hit never needs the lowering map.
        compile_reusing(&c, &grid, &cfg, Reuse::FrontEnd(&store));
        assert_eq!(store.hits(), 1);
        assert_eq!(store.lowered_hits(), 0);
    }

    #[test]
    fn pass_report_renders_a_table() {
        let (_, report) = reported(false);
        let table = report.render();
        assert!(table.contains("route_schedule"));
        assert!(table.contains("total"));
    }

    #[test]
    fn report_round_trips_through_serde() {
        let (_, report) = reported(false);
        let json = serde_json::to_string(&report).unwrap();
        let back: PassReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
