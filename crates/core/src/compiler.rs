//! The compile driver, compiled-circuit container, and schedule
//! verifier.
//!
//! [`compile`]/[`compile_with`] are thin wrappers over [`passes::run`];
//! see [`crate::passes`] for the pass-by-pass breakdown and artifact
//! reuse.

use crate::passes::{self, Reuse};
use crate::placement::PlacementScratch;
use crate::program::Program;
use crate::scheduler::ScheduleResult;
use crate::{CompileError, CompilerConfig, QubitMap};
use na_arch::{BBox, Grid, RestrictionZone, Site};
use na_circuit::{decompose_circuit, Circuit, DecomposeLevel};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

pub use crate::scheduler::{ScheduledOp, SiteList};

/// A fully mapped, routed, and scheduled circuit.
///
/// Produced by [`compile`]; consumed by the error model (`na-noise`)
/// and the atom-loss machinery (`na-loss`). It holds the [`Program`]
/// its compile used.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledCircuit {
    program: Arc<Program>,
    ops: Vec<ScheduledOp>,
    initial_map: QubitMap,
    final_map: QubitMap,
    num_timesteps: u32,
    config: CompilerConfig,
    /// Every site the program touches, ascending and unique, computed
    /// once at compile time (the loss strategies scan this per shot).
    used_sites: Vec<Site>,
}

impl CompiledCircuit {
    /// The lowered program that was scheduled (after any Toffoli/CNX
    /// decomposition chosen by the config).
    pub fn circuit(&self) -> &Circuit {
        self.program.circuit()
    }

    /// The [`Program`] the compile used: the lowered circuit with its
    /// DAG and time-zero weights, ready for [`Reuse::Lowered`].
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The schedule, in time order.
    pub fn ops(&self) -> &[ScheduledOp] {
        &self.ops
    }

    /// Placement at time 0.
    pub fn initial_map(&self) -> &QubitMap {
        &self.initial_map
    }

    /// Placement after the last timestep.
    pub fn final_map(&self) -> &QubitMap {
        &self.final_map
    }

    /// Number of timesteps (the compiled depth).
    pub fn num_timesteps(&self) -> u32 {
        self.num_timesteps
    }

    /// The configuration used to compile.
    pub fn config(&self) -> &CompilerConfig {
        &self.config
    }

    /// Post-compilation metrics (the quantities the paper's figures
    /// report).
    pub fn metrics(&self) -> CompiledMetrics {
        let mut m = CompiledMetrics {
            depth: self.num_timesteps,
            ..CompiledMetrics::default()
        };
        for op in &self.ops {
            if op.is_swap() {
                m.swaps += 1;
                m.two_qubit += 1;
                continue;
            }
            let gate = &self.circuit().gates()[op.source.expect("program op")];
            if gate.is_measure() {
                m.measurements += 1;
                continue;
            }
            match op.arity() {
                1 => m.one_qubit += 1,
                2 => m.two_qubit += 1,
                _ => m.three_qubit += 1,
            }
            m.program_gates += 1;
        }
        m
    }

    /// The sites the program occupies at any point in the schedule
    /// (used by the loss strategies to distinguish in-use atoms from
    /// spares), sorted ascending — computed once at compile time, so
    /// callers that only scan pay no per-call `Vec` churn and can
    /// binary-search membership.
    pub fn used_sites(&self) -> &[Site] {
        &self.used_sites
    }

    /// Every site of `initial_map` and `ops`, ascending and unique,
    /// without a sort: each site is marked in an occupancy mask over
    /// their bounding box, laid out x-major like [`Site`]'s order, and
    /// the mask is read back column by column into a list sized to the
    /// sites marked.
    fn compute_used_sites(initial_map: &QubitMap, ops: &[ScheduledOp]) -> Vec<Site> {
        let sites = || {
            let op_sites = ops.iter().flat_map(|o| o.sites.iter().copied());
            initial_map.iter().map(|(_, s)| s).chain(op_sites)
        };
        let Some(b) = BBox::containing(sites()) else {
            return Vec::new();
        };
        let height = (b.max_y - b.min_y + 1) as usize;
        let mut occupied = vec![false; (b.max_x - b.min_x + 1) as usize * height];
        let mut count = 0;
        for s in sites() {
            let cell = &mut occupied[(s.x - b.min_x) as usize * height + (s.y - b.min_y) as usize];
            count += usize::from(!*cell);
            *cell = true;
        }
        let mut used = Vec::with_capacity(count);
        for (column, x) in occupied.chunks_exact(height).zip(b.min_x..) {
            let column = column.iter().zip(b.min_y..);
            used.extend(column.filter(|&(&o, _)| o).map(|(_, y)| Site::new(x, y)));
        }
        used
    }

    /// Assembles the container from the compile's intermediates (the
    /// `finalize` pass calls this).
    pub(crate) fn from_parts(
        program: Arc<Program>,
        result: ScheduleResult,
        initial_map: QubitMap,
        config: CompilerConfig,
    ) -> Self {
        let used_sites = Self::compute_used_sites(&initial_map, &result.ops);
        CompiledCircuit {
            program,
            final_map: result.final_map,
            num_timesteps: result.num_timesteps,
            ops: result.ops,
            initial_map,
            config,
            used_sites,
        }
    }
}

/// Post-compilation gate counts and depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CompiledMetrics {
    /// Program gates executed (excluding measurements and SWAPs).
    pub program_gates: usize,
    /// Router-inserted SWAPs.
    pub swaps: usize,
    /// One-qubit program gates.
    pub one_qubit: usize,
    /// Two-qubit gates including SWAPs.
    pub two_qubit: usize,
    /// Three-qubit (native multiqubit) gates.
    pub three_qubit: usize,
    /// Measurements.
    pub measurements: usize,
    /// Compiled depth in timesteps.
    pub depth: u32,
}

impl CompiledMetrics {
    /// Total gate count (program gates + SWAPs), the paper's
    /// "post-compilation gate count".
    pub fn total_gates(&self) -> usize {
        self.program_gates + self.swaps
    }
}

impl fmt::Display for CompiledMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gates={} (1q={}, 2q={}, 3q={}, swaps={}), depth={}",
            self.total_gates(),
            self.one_qubit,
            self.two_qubit,
            self.three_qubit,
            self.swaps,
            self.depth
        )
    }
}

/// Compiles `circuit` for the neutral-atom device `grid` under
/// `config`.
///
/// Passes ([`crate::passes`]): lower multiqubit gates to the
/// configured gate set → build the lookahead-weighted initial placement
/// → route and schedule with restriction zones. See the crate docs for
/// an end-to-end example.
///
/// # Errors
///
/// * [`CompileError::ProgramTooLarge`] — more program qubits than
///   usable atoms;
/// * [`CompileError::UnroutableGate`] — native 3-qubit gates requested
///   at a MID below √2, where no three grid sites are pairwise in
///   range;
/// * [`CompileError::Disconnected`] — interacting qubits in different
///   components of the interaction graph;
/// * [`CompileError::RoutingStuck`] — the router is cycling (or its
///   step budget ran out).
pub fn compile(
    circuit: &Circuit,
    grid: &Grid,
    config: &CompilerConfig,
) -> Result<CompiledCircuit, CompileError> {
    compile_with(circuit, grid, config, &mut PlacementScratch::new())
}

/// [`compile`] reusing caller-held compile working memory.
///
/// Repeated compilations — the experiment engine's workers, the loss
/// executor's recompile strategy — hand the same
/// [`PlacementScratch`] back in so placement's and the scheduler's
/// buffers are re-armed instead of reallocated per compile. The result
/// is identical to [`compile`].
///
/// # Errors
///
/// Exactly as [`compile`].
pub fn compile_with(
    circuit: &Circuit,
    grid: &Grid,
    config: &CompilerConfig,
    scratch: &mut PlacementScratch,
) -> Result<CompiledCircuit, CompileError> {
    passes::run(circuit, grid, config, scratch, Reuse::Nothing, false, None)
}

/// Lowers `circuit` to the gate set `config` selects (native
/// multiqubit capped at `max_native_arity`, or the two-qubit set) —
/// the exact front half of [`compile`], shared with
/// [`crate::placement::initial_layout`] so a lowering change can never
/// silently drift between the compiler and the code that mirrors it.
pub fn lower_for(circuit: &Circuit, config: &CompilerConfig) -> Circuit {
    if config.native_multiqubit {
        na_circuit::decompose::decompose_to_max_arity(circuit, config.max_native_arity)
    } else {
        decompose_circuit(circuit, DecomposeLevel::TwoQubit)
    }
}

/// A stable 64-bit digest of a compiled schedule: the timestep count,
/// the initial placement, every op's `(time, source, sites)` in order,
/// and the final placement, folded through the same FNV-1a the cache
/// fingerprints use.
///
/// Two compilations agree on this digest iff they produced the same
/// schedule byte for byte — the regression contract the flat-index
/// overhaul is held to (see `tests/golden_digests.rs`).
pub fn schedule_digest(compiled: &CompiledCircuit) -> u64 {
    use na_circuit::fingerprint::fnv1a_extend;
    fn fold_site(h: u64, s: Site) -> u64 {
        fnv1a_extend(fnv1a_extend(h, s.x as i64 as u64), s.y as i64 as u64)
    }
    let mut h = fnv1a_extend(0xcbf2_9ce4_8422_2325, u64::from(compiled.num_timesteps()));
    for (q, s) in compiled.initial_map().iter() {
        h = fnv1a_extend(h, u64::from(q.0));
        h = fold_site(h, s);
    }
    for op in compiled.ops() {
        h = fnv1a_extend(h, u64::from(op.time));
        h = fnv1a_extend(h, op.source.map_or(0, |g| g as u64 + 1));
        h = fnv1a_extend(h, op.sites.len() as u64);
        for &s in &op.sites {
            h = fold_site(h, s);
        }
    }
    for (q, s) in compiled.final_map().iter() {
        h = fnv1a_extend(h, u64::from(q.0));
        h = fold_site(h, s);
    }
    h
}

/// Constraint violations reported by [`verify`].
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// A program gate was scheduled zero or multiple times.
    GateCount { gate: usize, times: usize },
    /// An op's recorded sites disagree with the replayed mapping.
    SiteMismatch { time: u32, gate: Option<usize> },
    /// Operands of a multiqubit op exceed the MID.
    OutOfRange { time: u32, span: f64 },
    /// Two ops in one timestep have intersecting restriction zones.
    ZoneConflict { time: u32 },
    /// An op uses a site with no atom.
    UnusableSite { time: u32, site: Site },
    /// A gate ran before one of its DAG predecessors.
    DependencyViolation { gate: usize, pred: usize },
    /// The recorded final map disagrees with the replay.
    FinalMapMismatch,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::GateCount { gate, times } => {
                write!(f, "gate {gate} scheduled {times} times")
            }
            VerifyError::SiteMismatch { time, gate } => {
                write!(
                    f,
                    "op at t={time} (gate {gate:?}) disagrees with the mapping replay"
                )
            }
            VerifyError::OutOfRange { time, span } => {
                write!(
                    f,
                    "op at t={time} spans {span}, beyond the interaction distance"
                )
            }
            VerifyError::ZoneConflict { time } => {
                write!(f, "restriction zones overlap at t={time}")
            }
            VerifyError::UnusableSite { time, site } => {
                write!(f, "op at t={time} uses empty trap {site}")
            }
            VerifyError::DependencyViolation { gate, pred } => {
                write!(f, "gate {gate} ran before its dependency {pred}")
            }
            VerifyError::FinalMapMismatch => write!(f, "final mapping mismatch"),
        }
    }
}

impl Error for VerifyError {}

/// Replays a compiled schedule and checks every hardware constraint:
/// each program gate exactly once and after its dependencies, recorded
/// sites consistent with the mapping evolution, all interactions within
/// the MID, no restriction-zone overlap within a timestep, and no use
/// of empty traps.
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered.
pub fn verify(compiled: &CompiledCircuit, grid: &Grid) -> Result<(), VerifyError> {
    let _span = na_telemetry::span(na_telemetry::Span::Verify);
    verify_parts(
        compiled.program(),
        compiled.config(),
        compiled.ops(),
        compiled.initial_map(),
        compiled.final_map(),
        grid,
    )
}

/// [`verify`] over the raw schedule parts of `program` (whose DAG it
/// reads), shared with the pipeline's `verify` pass, which runs before
/// the [`CompiledCircuit`] container exists. Untimed: both callers hold
/// the `verify` span.
pub(crate) fn verify_parts(
    program: &Program,
    config: &CompilerConfig,
    ops: &[ScheduledOp],
    initial_map: &QubitMap,
    final_map: &QubitMap,
    grid: &Grid,
) -> Result<(), VerifyError> {
    let (circuit, dag) = (program.circuit(), program.dag());
    // Gate execution times (for counting and dependency checks).
    let mut exec_time: Vec<Option<u32>> = vec![None; circuit.len()];
    for op in ops {
        if let Some(g) = op.source {
            if exec_time[g].is_some() {
                return Err(VerifyError::GateCount { gate: g, times: 2 });
            }
            exec_time[g] = Some(op.time);
        }
    }
    for (g, t) in exec_time.iter().enumerate() {
        if t.is_none() {
            return Err(VerifyError::GateCount { gate: g, times: 0 });
        }
    }
    for g in 0..circuit.len() {
        for p in dag.preds(na_circuit::GateId(g)) {
            if exec_time[p.0] >= exec_time[g] {
                return Err(VerifyError::DependencyViolation { gate: g, pred: p.0 });
            }
        }
    }

    // Replay the mapping through the schedule.
    let mut map = initial_map.clone();
    let mut i = 0usize;
    while i < ops.len() {
        let t = ops[i].time;
        let mut j = i;
        while j < ops.len() && ops[j].time == t {
            j += 1;
        }
        let step = &ops[i..j];

        let mut zones: Vec<RestrictionZone> = Vec::new();
        for op in step {
            for &s in &op.sites {
                if !grid.is_usable(s) {
                    return Err(VerifyError::UnusableSite { time: t, site: s });
                }
            }
            if op.arity() >= 2 && op.span() > config.mid + 1e-9 {
                return Err(VerifyError::OutOfRange {
                    time: t,
                    span: op.span(),
                });
            }
            if let Some(g) = op.source {
                let expected: Vec<Site> = circuit.gates()[g]
                    .qubits()
                    .iter()
                    .map(|&q| map.site_of(q).expect("placed"))
                    .collect();
                if expected != op.sites {
                    return Err(VerifyError::SiteMismatch {
                        time: t,
                        gate: Some(g),
                    });
                }
            }
            let zone = RestrictionZone::for_gate(&op.sites, config.restriction);
            if zones.iter().any(|z| z.intersects(&zone)) {
                return Err(VerifyError::ZoneConflict { time: t });
            }
            zones.push(zone);
        }
        // Apply this step's SWAPs after validation.
        for op in step {
            if op.is_swap() {
                map.swap_sites(op.sites[0], op.sites[1]);
            }
        }
        i = j;
    }

    if map != *final_map {
        return Err(VerifyError::FinalMapMismatch);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use na_arch::RestrictionPolicy;
    use na_benchmarks::Benchmark;
    use na_circuit::Qubit;

    fn compile_ok(circuit: &Circuit, grid: &Grid, config: &CompilerConfig) -> CompiledCircuit {
        let compiled = compile(circuit, grid, config).expect("compiles");
        verify(&compiled, grid).expect("verifies");
        compiled
    }

    #[test]
    fn bell_circuit_compiles_and_verifies() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0));
        c.cnot(Qubit(0), Qubit(1));
        let grid = Grid::new(4, 4);
        let compiled = compile_ok(&c, &grid, &CompilerConfig::new(2.0));
        let m = compiled.metrics();
        assert_eq!(m.total_gates(), 2);
        assert_eq!(m.swaps, 0);
        assert_eq!(m.depth, 2);
    }

    #[test]
    fn every_benchmark_compiles_at_every_mid() {
        let grid = Grid::new(10, 10);
        for b in Benchmark::ALL {
            for mid in [2.0, 3.0, 5.0] {
                let c = b.generate(16, 5);
                let cfg = CompilerConfig::new(mid);
                let compiled = compile_ok(&c, &grid, &cfg);
                assert!(compiled.metrics().total_gates() > 0, "{b} at MID {mid}");
            }
        }
    }

    #[test]
    fn mid1_works_when_lowered_to_two_qubit() {
        let grid = Grid::new(10, 10);
        let c = Benchmark::Cuccaro.generate(12, 0);
        let cfg = CompilerConfig::new(1.0).with_native_multiqubit(false);
        let compiled = compile_ok(&c, &grid, &cfg);
        assert_eq!(compiled.metrics().three_qubit, 0);
    }

    #[test]
    fn native_toffoli_at_mid1_is_unroutable() {
        let mut c = Circuit::new(3);
        c.toffoli(Qubit(0), Qubit(1), Qubit(2));
        let grid = Grid::new(5, 5);
        let err = compile(&c, &grid, &CompilerConfig::new(1.0)).unwrap_err();
        assert_eq!(err, CompileError::UnroutableGate { arity: 3 });
    }

    #[test]
    fn large_native_gate_schedules_as_one_op() {
        let mut c = Circuit::new(5);
        c.cnx((0..4).map(Qubit).collect(), Qubit(4));
        let grid = Grid::new(6, 6);
        let cfg = CompilerConfig::new(3.0).with_max_native_arity(5);
        let compiled = compile_ok(&c, &grid, &cfg);
        let prog_ops: Vec<_> = compiled.ops().iter().filter(|o| !o.is_swap()).collect();
        assert_eq!(prog_ops.len(), 1);
        assert_eq!(prog_ops[0].arity(), 5);
        assert!(prog_ops[0].span() <= 3.0);
    }

    #[test]
    fn large_native_gate_needs_large_mid() {
        // Nine operands need a 3x3 block: MID >= 2*sqrt(2).
        let mut c = Circuit::new(9);
        c.cnx((0..8).map(Qubit).collect(), Qubit(8));
        let grid = Grid::new(6, 6);
        let cfg = CompilerConfig::new(2.0).with_max_native_arity(16);
        assert_eq!(
            compile(&c, &grid, &cfg).unwrap_err(),
            CompileError::UnroutableGate { arity: 9 }
        );
        let ok = CompilerConfig::new(3.0).with_max_native_arity(16);
        compile_ok(&c, &grid, &ok);
    }

    #[test]
    fn oversized_cnx_lowers_to_toffolis_under_arity_cap() {
        let mut c = Circuit::new(9);
        c.cnx((0..8).map(Qubit).collect(), Qubit(8));
        let grid = Grid::new(6, 6);
        let cfg = CompilerConfig::new(3.0).with_max_native_arity(4);
        let compiled = compile_ok(&c, &grid, &cfg);
        // 8 controls -> 2*(8-2)+1 = 13 Toffolis, nothing bigger.
        assert_eq!(compiled.metrics().three_qubit, 13);
        assert!(compiled.ops().iter().all(|o| o.arity() <= 3));
    }

    #[test]
    fn native_beats_decomposed_on_gate_count() {
        let grid = Grid::new(10, 10);
        let c = Benchmark::Cuccaro.generate(14, 0);
        let native = compile_ok(&c, &grid, &CompilerConfig::new(3.0));
        let lowered = compile_ok(
            &c,
            &grid,
            &CompilerConfig::new(3.0).with_native_multiqubit(false),
        );
        assert!(
            native.metrics().total_gates() < lowered.metrics().total_gates(),
            "native {} vs decomposed {}",
            native.metrics().total_gates(),
            lowered.metrics().total_gates()
        );
    }

    #[test]
    fn gate_count_decreases_with_mid() {
        let grid = Grid::new(10, 10);
        let c = Benchmark::QftAdder.generate(20, 0);
        let g1 = compile_ok(
            &c,
            &grid,
            &CompilerConfig::new(1.0).with_native_multiqubit(false),
        )
        .metrics()
        .total_gates();
        let g13 = compile_ok(
            &c,
            &grid,
            &CompilerConfig::new(grid.max_distance()).with_native_multiqubit(false),
        )
        .metrics()
        .total_gates();
        assert!(g13 < g1, "MID 13 {g13} must beat MID 1 {g1}");
        // Full connectivity: zero SWAPs, so count equals source gates.
        assert_eq!(
            g13,
            c.metrics().total_gates(),
            "all-to-all connectivity needs no SWAPs"
        );
    }

    #[test]
    fn zones_never_reduce_gate_count_only_depth() {
        let grid = Grid::new(10, 10);
        let c = Benchmark::Qaoa.generate(20, 11);
        let with_zones = compile_ok(&c, &grid, &CompilerConfig::new(4.0));
        let no_zones = compile_ok(
            &c,
            &grid,
            &CompilerConfig::new(4.0).with_restriction(RestrictionPolicy::None),
        );
        assert!(with_zones.metrics().depth >= no_zones.metrics().depth);
    }

    #[test]
    fn program_larger_than_grid_errors() {
        let c = Circuit::new(30);
        let grid = Grid::new(5, 5);
        let err = compile(&c, &grid, &CompilerConfig::default()).unwrap_err();
        assert!(matches!(err, CompileError::ProgramTooLarge { .. }));
    }

    #[test]
    fn compiles_onto_grid_with_holes() {
        let mut grid = Grid::new(6, 6);
        grid.remove_atom(Site::new(2, 2));
        grid.remove_atom(Site::new(3, 3));
        let c = Benchmark::Bv.generate(20, 0);
        let cfg = CompilerConfig::new(2.0);
        let compiled = compile_ok(&c, &grid, &cfg);
        for op in compiled.ops() {
            for s in &op.sites {
                assert!(grid.is_usable(*s));
            }
        }
    }

    #[test]
    fn used_sites_is_superset_of_initial_map() {
        let grid = Grid::new(8, 8);
        let c = Benchmark::Qaoa.generate(10, 3);
        let compiled = compile_ok(&c, &grid, &CompilerConfig::new(2.0));
        let used = compiled.used_sites();
        for (_, s) in compiled.initial_map().iter() {
            assert!(used.contains(&s));
        }
    }

    #[test]
    fn verify_catches_tampered_schedule() {
        let mut c = Circuit::new(2);
        c.cnot(Qubit(0), Qubit(1));
        let grid = Grid::new(4, 4);
        let mut compiled = compile(&c, &grid, &CompilerConfig::new(2.0)).unwrap();
        // Corrupt: drop the only op.
        compiled.ops.clear();
        assert!(matches!(
            verify(&compiled, &grid),
            Err(VerifyError::GateCount { times: 0, .. })
        ));
    }

    #[test]
    fn verify_on_a_grid_of_other_dimensions_is_typed() {
        // The replayed map keeps the compile device's extent, so a
        // device of other dimensions must be answered by a typed
        // error where a used site is missing from it, and accepted
        // where every used site exists, never by a panic.
        let grid = Grid::new(10, 10);
        let compiled = compile_ok(
            &Benchmark::Bv.generate(16, 0),
            &grid,
            &CompilerConfig::new(3.0),
        );
        for (w, h) in [(1, 1), (4, 4), (10, 3), (3, 10), (6, 12), (12, 12), (30, 2)] {
            let other = Grid::new(w, h);
            let fits = compiled.used_sites().iter().all(|&s| other.contains(s));
            match verify(&compiled, &other) {
                Ok(()) => assert!(fits, "{w}x{h} accepted a schedule it cannot hold"),
                Err(VerifyError::UnusableSite { site, .. }) => {
                    assert!(!fits && !other.contains(site), "{w}x{h}: {site}");
                }
                Err(e) => panic!("{w}x{h}: unexpected {e}"),
            }
        }
    }

    #[test]
    fn metrics_display_is_informative() {
        let grid = Grid::new(4, 4);
        let mut c = Circuit::new(2);
        c.cnot(Qubit(0), Qubit(1));
        let compiled = compile_ok(&c, &grid, &CompilerConfig::new(2.0));
        let s = compiled.metrics().to_string();
        assert!(s.contains("gates=1"));
        assert!(s.contains("depth=1"));
    }
}
