//! The compile passes and the one function that runs them.
//!
//! [`run`] is the whole compiler, six named passes over typed
//! intermediates:
//!
//! ```text
//! lower → validate_arity → place → route_schedule → verify → finalize
//!   Program                QubitMap  ScheduleResult             CompiledCircuit
//! ```
//!
//! `lower` lowers the circuit to the configured gate set and builds
//! its [`Program`]: the lowered circuit with its DAG, operand table and
//! time-zero lookahead weights. Every later pass borrows that one
//! artifact — placement reads its weights, the scheduler its DAG,
//! operands and weights, `verify` its DAG — so no compile builds any of
//! them twice — and `finalize` hands it to the [`CompiledCircuit`],
//! which keeps it.
//!
//! Before each pass it checks the job's cooperative deadline
//! ([`na_faults::check_deadline`]), so an expired budget stops at the
//! next pass boundary with a typed [`CompileError::DeadlineExceeded`],
//! and opens the pass's [`na_telemetry::Span`], which feeds the
//! metrics histogram and the trace under the pass name. When the
//! caller asks for a [`PassReport`], the span's duration becomes the
//! pass's row and its statistics are collected; `natoms compile
//! --passes` prints the report and telemetry-tagged engine rows carry
//! it.
//!
//! # Artifact reuse
//!
//! The MID enters compilation only at routing/scheduling: lowering
//! reads the gate-set fields (`native_multiqubit`, `max_native_arity`)
//! and the program's weights and placement read `lookahead_depth`, so
//! the [`Program`] and the initial placement are *MID-independent*.
//! [`ArtifactStore`] is the cache that exploits this: keyed by circuit
//! fingerprint × grid fingerprint × front-end config fingerprint, it
//! lets a sweep over MID variants of one circuit reuse the program and
//! the placement instead of recomputing them, bit-for-bit identical to
//! a fresh compile (pinned by `tests/pipeline_differential.rs`).
//! [`Reuse`] selects how a compile uses a store, or whether it skips
//! lowering because the caller holds the program already (a loss-driven
//! recompile).

use crate::compiler::{lower_for, verify_parts, CompiledCircuit};
use crate::placement::{initial_placement_with, PlacementScratch};
use crate::program::Program;
use crate::scheduler::{self, ScheduleResult};
use crate::{CompileError, CompilerConfig, QubitMap};
use na_arch::{Grid, InteractionGraph};
use na_circuit::{Circuit, Gate};
use na_telemetry::Span;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Which front-end work a compile may skip. Every compile uses exactly
/// one [`Program`]: built once here, served from a store, or the
/// caller's.
#[derive(Debug, Clone, Copy)]
pub enum Reuse<'a> {
    /// Lower, build the program and place from scratch; touch no
    /// store.
    Nothing,
    /// Serve the program and the initial placement from the store when
    /// it holds them for this (circuit, grid, front-end config), and
    /// deposit both after computing them. The engine's compile cache
    /// uses this across MID variants of one circuit.
    FrontEnd(&'a ArtifactStore),
    /// Compile this program, already lowered for the config (a
    /// schedule's own [`CompiledCircuit::program`], compiled under that
    /// schedule's config); the `circuit` argument is not read, and
    /// placement always runs afresh. This is for recompiling one
    /// program against a mutating grid (the `FullRecompile` loss
    /// strategy): the program never reads the grid, so one serves
    /// every hole pattern and every recompiled schedule shares it,
    /// while one cached placement per hole pattern would grow without
    /// bound over a campaign.
    Lowered(&'a Arc<Program>),
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
    let (cached, claim) = match reuse {
        Reuse::FrontEnd(store) => {
            match store.get_or_claim(ArtifactKey::of(circuit, grid, config)) {
                Ok(cached) => (Some(cached), None),
                Err(claim) => (None, Some(claim)),
            }
        }
        Reuse::Nothing | Reuse::Lowered(_) => (None, None),
    };

    let program = passes.run(Span::Lower, |stats| {
        Ok(lower(circuit, config, reuse, cached.as_deref(), stats))
    })?;
    debug_assert_eq!(
        program.lookahead_depth(),
        config.lookahead_depth,
        "program built for another lookahead depth"
    );
    passes.run(Span::ValidateArity, |stats| {
        validate_arity(program.circuit(), config, stats)
    })?;
    let placement = passes.run(Span::Place, |stats| {
        place(&program, grid, scratch, claim, cached.as_deref(), stats)
    })?;
    let initial = placement.to_table();
    let schedule = passes.run(Span::RouteSchedule, |stats| {
        route_schedule(&program, grid, config, placement, stats)
    })?;
    passes.run(Span::Verify, |stats| {
        if !verify {
            stats.set("skipped", 1);
            return Ok(());
        }
        let final_table = schedule.final_map.to_table();
        verify_parts(
            &program,
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
        let compiled = CompiledCircuit::from_parts(program, schedule, initial, *config);
        stats.set("used_sites", compiled.used_sites().len() as u64);
        Ok(compiled)
    })
}

/// `lower`: gate-set lowering via [`lower_for`] and the [`Program`]
/// built from it, unless the store holds this compile's front-end
/// artifacts or the caller passed its program ([`Reuse::Lowered`]).
/// Lowering is a pure function of (circuit, front-end config), so
/// either program is bit-identical to a fresh one. Stats: `gates`, and
/// `reused` (store hit) or `reused_lowered` (the caller's program).
fn lower(
    circuit: &Circuit,
    config: &CompilerConfig,
    reuse: Reuse<'_>,
    cached: Option<&PassArtifacts>,
    stats: &mut Stats,
) -> Arc<Program> {
    let program = if let Some(art) = cached {
        stats.set("reused", 1);
        Arc::clone(&art.program)
    } else if let Reuse::Lowered(program) = reuse {
        stats.set("reused_lowered", 1);
        Arc::clone(program)
    } else {
        Arc::new(Program::new(
            lower_for(circuit, config),
            config.lookahead_depth,
        ))
    };
    stats.set("gates", program.circuit().len() as u64);
    program
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

/// `place`: the cached placement on a front-end hit, else the initial
/// placement from the program's time-zero weights, deposited with the
/// program under this compile's [`Reuse::FrontEnd`] claim when given.
/// Stats: `qubits`, and `reused` on a hit.
fn place(
    program: &Arc<Program>,
    grid: &Grid,
    scratch: &mut PlacementScratch,
    claim: Option<ArtifactClaim<'_>>,
    cached: Option<&PassArtifacts>,
    stats: &mut Stats,
) -> Result<QubitMap, CompileError> {
    stats.set("qubits", u64::from(program.circuit().num_qubits()));
    if let Some(art) = cached {
        stats.set("reused", 1);
        return Ok(art.placement.clone());
    }
    let placement = initial_placement_with(program.circuit(), grid, program.weights(), scratch)?;
    if let Some(claim) = claim {
        claim.deposit(PassArtifacts {
            program: Arc::clone(program),
            placement: placement.clone(),
        });
    }
    Ok(placement)
}

/// `route_schedule`: the restriction-zone frontier scheduler
/// ([`crate::scheduler`]), which also reports its routing phases under
/// [`Span::Route`]. Stats: `ops`, `swaps`, `timesteps`.
fn route_schedule(
    program: &Program,
    grid: &Grid,
    config: &CompilerConfig,
    placement: QubitMap,
    stats: &mut Stats,
) -> Result<ScheduleResult, CompileError> {
    // The precomputed flat-index interaction graph every hot loop
    // (SWAP scoring, forced hops) runs over, with the grid's holes as a
    // mask; memoized per (grid size, MID), so a recompile on a holey
    // grid reuses the full device's graph.
    let graph = InteractionGraph::cached(grid, config.mid);
    let result = scheduler::run(program, grid, &graph, config, placement)?;
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
    /// The lowered program (`lower` output).
    pub program: Arc<Program>,
    /// The lookahead-weighted initial placement (`place` output).
    pub placement: QubitMap,
}

/// Concurrent cache of [`PassArtifacts`], shared across compilations
/// of MID variants of the same circuit (the engine's compile cache
/// holds one per process).
///
/// Only successful placements are stored; a first-insert-wins policy
/// keeps concurrent writers deterministic. Concurrent compilations of
/// one key build its artifacts once: the first claims the key, and
/// the others wait for its deposit.
#[derive(Debug, Default)]
pub struct ArtifactStore {
    entries: Mutex<Entries>,
    /// Signalled whenever a claim ends, deposited or released.
    claim_ended: Condvar,
    hits: AtomicU64,
}

#[derive(Debug, Default)]
struct Entries {
    stored: HashMap<ArtifactKey, Arc<PassArtifacts>>,
    /// Keys a compilation has claimed and is building artifacts for.
    claimed: HashSet<ArtifactKey>,
}

/// A compilation's claim on building the artifacts of one key. It
/// ends with [`ArtifactClaim::deposit`] or, dropped without one (the
/// compile failed or unwound), releases the key to a waiter.
pub(crate) struct ArtifactClaim<'a> {
    store: &'a ArtifactStore,
    key: ArtifactKey,
}

impl ArtifactClaim<'_> {
    /// Deposits the claimed key's artifacts, ending the claim.
    fn deposit(self, artifacts: PassArtifacts) {
        self.store.insert(self.key, artifacts);
    }
}

impl Drop for ArtifactClaim<'_> {
    fn drop(&mut self) {
        lock_recover(&self.store.entries).claimed.remove(&self.key);
        self.store.claim_ended.notify_all();
    }
}

impl ArtifactStore {
    /// An empty store.
    pub fn new() -> Self {
        ArtifactStore::default()
    }

    /// Looks up `key`, counting a hit when present.
    pub fn get(&self, key: &ArtifactKey) -> Option<Arc<PassArtifacts>> {
        let got = lock_recover(&self.entries).stored.get(key).cloned();
        if got.is_some() {
            self.count_hit();
        }
        got
    }

    /// The artifacts stored under `key` (a hit), or the claim to build
    /// them. While another compilation holds the claim, waits for it to
    /// end rather than build the same artifacts twice.
    fn get_or_claim(&self, key: ArtifactKey) -> Result<Arc<PassArtifacts>, ArtifactClaim<'_>> {
        let mut entries = lock_recover(&self.entries);
        loop {
            if let Some(stored) = entries.stored.get(&key) {
                let stored = Arc::clone(stored);
                drop(entries);
                self.count_hit();
                return Ok(stored);
            }
            if entries.claimed.insert(key) {
                return Err(ArtifactClaim { store: self, key });
            }
            entries = self
                .claim_ended
                .wait(entries)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        na_telemetry::add(na_telemetry::Counter::ArtifactHits, 1);
        na_telemetry::trace::instant("artifact", "artifact_hit", Vec::new);
    }

    /// Deposits `artifacts` under `key` (first insert wins).
    pub fn insert(&self, key: ArtifactKey, artifacts: PassArtifacts) {
        lock_recover(&self.entries)
            .stored
            .entry(key)
            .or_insert_with(|| Arc::new(artifacts));
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        lock_recover(&self.entries).stored.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of compilations that reused a cached entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Drops every entry and zeroes the hit counter.
    pub fn clear(&self) {
        lock_recover(&self.entries).stored.clear();
        self.hits.store(0, Ordering::Relaxed);
    }
}

/// Mutex poisoning recovery: artifacts are immutable once inserted, so
/// a panicking holder cannot leave them half-written.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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
    fn concurrent_mid_variants_build_their_front_end_once() {
        // Two threads compile MID variants of one circuit at once: one
        // builds the shared front end, the other waits for it and hits.
        let (c, grid, _) = inputs();
        let store = ArtifactStore::new();
        let start = std::sync::Barrier::new(2);
        let compiled: Vec<CompiledCircuit> = std::thread::scope(|scope| {
            let threads: Vec<_> = [2.0, 5.0]
                .map(|mid| {
                    let (c, grid, store, start) = (&c, &grid, &store, &start);
                    scope.spawn(move || {
                        start.wait();
                        let cfg = CompilerConfig::new(mid);
                        compile_reusing(c, grid, &cfg, Reuse::FrontEnd(store))
                    })
                })
                .into_iter()
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!((store.len(), store.hits()), (1, 1));
        assert!(Arc::ptr_eq(compiled[0].program(), compiled[1].program()));
    }

    #[test]
    fn lowered_only_reuse_serves_across_grids_without_storing_placements() {
        let (c, grid, cfg) = inputs();
        let store = ArtifactStore::new();
        let compiled = compile_reusing(&c, &grid, &cfg, Reuse::FrontEnd(&store));
        assert_eq!(store.len(), 1);

        // Recompile the schedule's own program on a mutated grid (the
        // FullRecompile situation): bit-identical to a fresh compile of
        // the source program, reported as a reused lowering, holding
        // the very same program, and the store is neither read nor
        // written.
        let mut holey = grid.clone();
        holey.remove_atom(Site::new(0, 0));
        let program = compiled.program();
        let mut report = PassReport::default();
        let reused = run(
            program.circuit(),
            &holey,
            &cfg,
            &mut PlacementScratch::new(),
            Reuse::Lowered(program),
            false,
            Some(&mut report),
        )
        .unwrap();
        assert_eq!(reused, compile_reusing(&c, &holey, &cfg, Reuse::Nothing));
        assert!(Arc::ptr_eq(reused.program(), program));
        assert_eq!(report.passes[0].stats["reused_lowered"], 1);
        assert_eq!((store.len(), store.hits()), (1, 0));
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
