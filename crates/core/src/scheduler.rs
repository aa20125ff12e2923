//! The restriction-zone-aware frontier scheduler.
//!
//! Compilation proceeds layer by layer over the program DAG
//! (paper §III-A). At every timestep the scheduler:
//!
//! 1. executes every ready gate whose operands are pairwise within the
//!    MID and whose restriction zone does not intersect a zone already
//!    claimed this step (greedy maximal packing, deterministic order);
//! 2. for each remaining long-distance frontier gate, schedules the
//!    best-scoring SWAP (see [`crate::routing`]) if its zone fits;
//! 3. if the step would otherwise be empty, forces one BFS hop toward
//!    the gate's congregation point so progress is guaranteed.
//!
//! SWAPs update the mapping immediately; completed gates unlock their
//! DAG successors at the end of the step.
//!
//! # Hot-path layout
//!
//! The inner loop runs over the precomputed
//! [`InteractionGraph`](na_arch::InteractionGraph) and allocates
//! nothing per timestep in steady state: gate operands live in a
//! flattened CSR table built once per compile, the per-step
//! `ready`/`in_range`/zone collections are reusable buffers, completion
//! is a bit mask, zone conflicts go through a bounding-box prefilter,
//! and lookahead weights are rebuilt lazily (only when a completed gate
//! has shifted the frontier *and* a long-distance gate actually needs a
//! SWAP scored) into reused adjacency buffers. Emitted ops store their
//! operand sites in an inline [`SiteList`] (up to three sites — SWAPs,
//! 1q/2q gates, native Toffolis — with a heap spill only for larger
//! CNX decompositions), so in steady state the loop allocates nothing
//! per op beyond the `ops` vector's amortized growth.
//!
//! # Telemetry split
//!
//! [`run`] is timed as a whole by the `route_schedule` pass span. It
//! also accumulates its routing phases (SWAP insertion and forced BFS
//! hops — phase 2/3 above) in a paused [`Span::Route`], recorded as
//! one sample per compile, so the schedule-only time (frontier refill,
//! in-range packing, zone claims) is `route_schedule − route`. With
//! metrics off the route span reads no clock; it is metrics-only and
//! strictly observational.

use crate::routing::{all_within_mid, best_swap_for_gate, meeting_point_of_sites};
use crate::{CompileError, CompilerConfig, InteractionWeights, QubitMap, WeightScratch};
use na_arch::{BfsScratch, Grid, InteractionGraph, RestrictionPolicy, Site};
use na_circuit::{Circuit, Frontier, GateId, Qubit};
use na_telemetry::Span;
use std::fmt;

/// One operation in the compiled schedule.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScheduledOp {
    /// Timestep (0-based). Ops sharing a timestep run in parallel.
    pub time: u32,
    /// The program gate this op executes, or `None` for a router SWAP.
    pub source: Option<usize>,
    /// Physical operand sites at execution time (program-gate operand
    /// order, or the two swapped sites).
    pub sites: SiteList,
}

/// Inline small-vector of operand sites: up to three sites (SWAPs,
/// 1q/2q gates, native Toffolis — the overwhelming majority of
/// emitted ops) live inline in the `ScheduledOp`; larger CNX
/// decompositions spill to a heap `Vec`. Dereferences to `&[Site]`,
/// compares and serializes exactly like a `Vec<Site>`.
#[derive(Clone)]
pub struct SiteList(Repr);

const INLINE_SITES: usize = 3;

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        sites: [Site; INLINE_SITES],
    },
    Spilled(Vec<Site>),
}

impl SiteList {
    /// Builds from a slice, inlining when it fits.
    #[inline]
    pub fn from_slice(sites: &[Site]) -> Self {
        if sites.len() <= INLINE_SITES {
            let mut inline = [Site::new(0, 0); INLINE_SITES];
            inline[..sites.len()].copy_from_slice(sites);
            SiteList(Repr::Inline {
                len: sites.len() as u8,
                sites: inline,
            })
        } else {
            SiteList(Repr::Spilled(sites.to_vec()))
        }
    }

    /// The two-site list of a SWAP or forced hop — always inline.
    #[inline]
    pub fn pair(a: Site, b: Site) -> Self {
        SiteList(Repr::Inline {
            len: 2,
            sites: [a, b, Site::new(0, 0)],
        })
    }

    /// Builds from an owned `Vec`, inlining when it fits.
    pub fn from_vec(sites: Vec<Site>) -> Self {
        if sites.len() <= INLINE_SITES {
            SiteList::from_slice(&sites)
        } else {
            SiteList(Repr::Spilled(sites))
        }
    }

    /// The sites as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Site] {
        match &self.0 {
            Repr::Inline { len, sites } => &sites[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }

    /// `true` when the list spilled to the heap (arity > 3).
    pub fn is_spilled(&self) -> bool {
        matches!(self.0, Repr::Spilled(_))
    }
}

impl From<Vec<Site>> for SiteList {
    fn from(sites: Vec<Site>) -> Self {
        SiteList::from_vec(sites)
    }
}

impl std::ops::Deref for SiteList {
    type Target = [Site];

    #[inline]
    fn deref(&self) -> &[Site] {
        self.as_slice()
    }
}

impl fmt::Debug for SiteList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl PartialEq for SiteList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SiteList {}

impl PartialEq<Vec<Site>> for SiteList {
    fn eq(&self, other: &Vec<Site>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<SiteList> for Vec<Site> {
    fn eq(&self, other: &SiteList) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[Site]> for SiteList {
    fn eq(&self, other: &[Site]) -> bool {
        self.as_slice() == other
    }
}

impl<'a> IntoIterator for &'a SiteList {
    type Item = &'a Site;
    type IntoIter = std::slice::Iter<'a, Site>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

// Byte-identical JSON to the `Vec<Site>` this replaced: a plain array.
impl serde::Serialize for SiteList {
    fn to_value(&self) -> serde::Value {
        self.as_slice().to_value()
    }
}

impl serde::Deserialize for SiteList {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        Vec::<Site>::from_value(value).map(SiteList::from_vec)
    }
}

impl ScheduledOp {
    /// `true` for router-inserted SWAPs.
    #[inline]
    pub fn is_swap(&self) -> bool {
        self.source.is_none()
    }

    /// Number of atoms the op touches.
    #[inline]
    pub fn arity(&self) -> usize {
        self.sites.len()
    }

    /// Maximum pairwise distance between operand sites.
    pub fn span(&self) -> f64 {
        max_pairwise_distance(&self.sites)
    }
}

fn max_pairwise_distance(sites: &[Site]) -> f64 {
    let mut d: f64 = 0.0;
    for i in 0..sites.len() {
        for j in (i + 1)..sites.len() {
            d = d.max(sites[i].distance(sites[j]));
        }
    }
    d
}

/// Output of [`run`]: the time-stamped ops, the final mapping, and the
/// number of timesteps used.
pub(crate) struct ScheduleResult {
    pub ops: Vec<ScheduledOp>,
    pub final_map: QubitMap,
    pub num_timesteps: u32,
}

/// Flattened per-gate operand lists in CSR layout, built once per
/// compile so the scheduler never calls the allocating
/// [`na_circuit::Gate::qubits`] in its inner loop.
pub(crate) struct GateOperands {
    offsets: Vec<u32>,
    qubits: Vec<Qubit>,
}

impl GateOperands {
    pub(crate) fn of(circuit: &Circuit) -> Self {
        let mut offsets = Vec::with_capacity(circuit.len() + 1);
        let mut qubits = Vec::new();
        offsets.push(0u32);
        for gate in circuit.iter() {
            gate.qubits_into(&mut qubits);
            offsets.push(qubits.len() as u32);
        }
        GateOperands { offsets, qubits }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Operands of gate `id`, controls first.
    #[inline]
    pub(crate) fn get(&self, id: usize) -> &[Qubit] {
        &self.qubits[self.offsets[id] as usize..self.offsets[id + 1] as usize]
    }
}

/// Completed-gate bit mask: `contains` is one word probe instead of a
/// linear scan over the step's completion list.
struct GateMask {
    words: Vec<u64>,
}

impl GateMask {
    fn new(num_gates: usize) -> Self {
        GateMask {
            words: vec![0; num_gates.div_ceil(64)],
        }
    }

    #[inline]
    fn set(&mut self, id: usize) {
        self.words[id / 64] |= 1 << (id % 64);
    }

    #[inline]
    fn contains(&self, id: usize) -> bool {
        self.words[id / 64] & (1 << (id % 64)) != 0
    }
}

/// The per-timestep set of claimed restriction zones, flattened into
/// reusable buffers with a bounding-box prefilter in front of the
/// exact disc-intersection test.
///
/// Semantics match chaining [`na_arch::RestrictionZone::for_gate`] +
/// `intersects` over every already-claimed zone: gates conflict when
/// they share an operand site or any two discs overlap strictly.
struct ZoneBuffer {
    policy: RestrictionPolicy,
    /// All claimed operand sites this step, flat.
    centers: Vec<Site>,
    /// Per-zone: centers range, disc radius, radius-expanded bbox.
    zones: Vec<ZoneEntry>,
}

struct ZoneEntry {
    start: u32,
    end: u32,
    radius: f64,
    min_x: f64,
    max_x: f64,
    min_y: f64,
    max_y: f64,
}

impl ZoneBuffer {
    fn new(policy: RestrictionPolicy) -> Self {
        ZoneBuffer {
            policy,
            centers: Vec::new(),
            zones: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.centers.clear();
        self.zones.clear();
    }

    /// Claims the zone of a gate over `sites` if it conflicts with no
    /// zone claimed so far this step; returns whether it was claimed.
    fn try_claim(&mut self, sites: &[Site]) -> bool {
        let radius = self.policy.radius(max_pairwise_distance(sites));
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for s in sites {
            min_x = min_x.min(f64::from(s.x) - radius);
            max_x = max_x.max(f64::from(s.x) + radius);
            min_y = min_y.min(f64::from(s.y) - radius);
            max_y = max_y.max(f64::from(s.y) + radius);
        }
        for zone in &self.zones {
            // Bounding-box prefilter: disc overlap (strict) or a shared
            // operand site both imply the expanded boxes touch, so a
            // separated box pair can never conflict.
            if zone.min_x > max_x || min_x > zone.max_x || zone.min_y > max_y || min_y > zone.max_y
            {
                continue;
            }
            let claimed = &self.centers[zone.start as usize..zone.end as usize];
            for a in claimed {
                for b in sites {
                    if a == b || a.distance(*b) < zone.radius + radius {
                        return false;
                    }
                }
            }
        }
        let start = self.centers.len() as u32;
        self.centers.extend_from_slice(sites);
        self.zones.push(ZoneEntry {
            start,
            end: self.centers.len() as u32,
            radius,
            min_x,
            max_x,
            min_y,
            max_y,
        });
        true
    }
}

/// Schedules a (pre-lowered) circuit starting from `initial` placement.
pub(crate) fn run(
    circuit: &Circuit,
    grid: &Grid,
    graph: &InteractionGraph,
    config: &CompilerConfig,
    initial: QubitMap,
) -> Result<ScheduleResult, CompileError> {
    let dag = circuit.dag();
    let mut frontier = dag.frontier();
    let mut map = initial;
    let mut ops: Vec<ScheduledOp> = Vec::new();
    let mut time: u32 = 0;
    let step_budget = config
        .max_steps_per_gate
        .saturating_mul(circuit.len().max(1))
        .saturating_add(1024);

    let operands = GateOperands::of(circuit);

    // Lookahead weights change only when gates complete, and are only
    // read when a long-distance gate needs a SWAP scored — rebuild
    // lazily at first use after a completion.
    let mut weights = InteractionWeights::empty(circuit.num_qubits());
    let mut weight_scratch = WeightScratch::new();
    let mut layer_scratch: Vec<Option<usize>> = Vec::new();
    rebuild_weights(
        &operands,
        &frontier,
        config.lookahead_depth,
        &mut layer_scratch,
        &mut weight_scratch,
        &mut weights,
    );
    let mut weights_dirty = false;

    // Reusable per-step buffers (see module docs).
    let mut ready: Vec<GateId> = Vec::new();
    let mut in_range: Vec<(GateId, f64)> = Vec::new();
    let mut completed: Vec<GateId> = Vec::new();
    let mut completed_mask = GateMask::new(circuit.len());
    let mut zones = ZoneBuffer::new(config.restriction);
    let mut site_scratch: Vec<Site> = Vec::new();
    let mut bfs_scratch = BfsScratch::new();

    // The routing phases accumulate into one `route` sample (see
    // module docs). No clock reads when metrics are off.
    let mut route = na_telemetry::span_paused(Span::Route);

    while !frontier.is_done() {
        if time as usize > step_budget {
            return Err(CompileError::RoutingStuck {
                steps: time as usize,
            });
        }
        ready.clear();
        ready.extend_from_slice(frontier.ready());
        zones.clear();
        completed.clear();
        let mut scheduled = 0usize;

        // Phase A: execute in-range, zone-compatible ready gates.
        // Packing short-span gates first fits more gates per step: a
        // long-range gate claims a large zone that can forbid many
        // small ones, but never the other way around.
        in_range.clear();
        for &id in &ready {
            let ops_of_gate = operands.get(id.0);
            if ops_of_gate.len() >= 2 && !all_within_mid(ops_of_gate, &map, config.mid) {
                continue;
            }
            let mut span: f64 = 0.0;
            for i in 0..ops_of_gate.len() {
                let si = map
                    .site_of(ops_of_gate[i])
                    .expect("all program qubits placed");
                for &qj in &ops_of_gate[(i + 1)..] {
                    let sj = map.site_of(qj).expect("all program qubits placed");
                    span = span.max(si.distance(sj));
                }
            }
            in_range.push((id, span));
        }
        in_range.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("finite spans")
                .then(a.0.cmp(&b.0))
        });
        for &(id, _) in &in_range {
            site_scratch.clear();
            site_scratch.extend(
                operands
                    .get(id.0)
                    .iter()
                    .map(|&q| map.site_of(q).expect("all program qubits placed")),
            );
            if !zones.try_claim(&site_scratch) {
                continue;
            }
            ops.push(ScheduledOp {
                time,
                source: Some(id.0),
                sites: SiteList::from_slice(&site_scratch),
            });
            completed_mask.set(id.0);
            completed.push(id);
            scheduled += 1;
        }

        // Phase B: one routing SWAP per remaining long-distance gate.
        route.resume();
        for &id in &ready {
            if completed_mask.contains(id.0) {
                continue;
            }
            let ops_of_gate = operands.get(id.0);
            if ops_of_gate.len() < 2 || all_within_mid(ops_of_gate, &map, config.mid) {
                // In range but zone-blocked: just wait.
                continue;
            }
            if weights_dirty {
                rebuild_weights(
                    &operands,
                    &frontier,
                    config.lookahead_depth,
                    &mut layer_scratch,
                    &mut weight_scratch,
                    &mut weights,
                );
                weights_dirty = false;
            }
            let Some(mv) = best_swap_for_gate(ops_of_gate, &map, graph, &weights, config.mid)
            else {
                continue;
            };
            if !zones.try_claim(&[mv.from, mv.to]) {
                continue;
            }
            ops.push(ScheduledOp {
                time,
                source: None,
                sites: SiteList::pair(mv.from, mv.to),
            });
            map.swap_sites(mv.from, mv.to);
            scheduled += 1;
        }

        // Fallback: force one BFS hop so the schedule always advances.
        if scheduled == 0 {
            let id = ready[0];
            let (from, to) = forced_move(
                operands.get(id.0),
                &map,
                grid,
                graph,
                &mut bfs_scratch,
                &mut site_scratch,
            )?;
            ops.push(ScheduledOp {
                time,
                source: None,
                sites: SiteList::pair(from, to),
            });
            map.swap_sites(from, to);
        }
        route.pause();

        for id in completed.iter() {
            frontier.complete(*id);
        }
        if !completed.is_empty() && !frontier.is_done() {
            weights_dirty = true;
        }
        time += 1;
    }

    route.end();

    Ok(ScheduleResult {
        ops,
        final_map: map,
        num_timesteps: time,
    })
}

/// Builds lookahead weights from the live frontier.
pub(crate) fn frontier_weights(
    circuit: &Circuit,
    frontier: &Frontier<'_>,
    lookahead_depth: usize,
) -> InteractionWeights {
    let operands = GateOperands::of(circuit);
    let mut weights = InteractionWeights::empty(circuit.num_qubits());
    rebuild_weights(
        &operands,
        frontier,
        lookahead_depth,
        &mut Vec::new(),
        &mut WeightScratch::new(),
        &mut weights,
    );
    weights
}

/// Rebuilds `weights` in place from the frontier's remaining layers,
/// reusing every buffer involved.
fn rebuild_weights(
    operands: &GateOperands,
    frontier: &Frontier<'_>,
    lookahead_depth: usize,
    layer_scratch: &mut Vec<Option<usize>>,
    weight_scratch: &mut WeightScratch,
    weights: &mut InteractionWeights,
) {
    frontier.remaining_layers_into(layer_scratch);
    weights.rebuild_from_layered_gates(
        (0..operands.len()).filter_map(|i| layer_scratch[i].map(|l| (operands.get(i), l))),
        lookahead_depth,
        weight_scratch,
    );
}

/// Deterministic forced hop: move the operand farthest from the gate's
/// congregation point one BFS hop toward it.
fn forced_move(
    operands: &[Qubit],
    map: &QubitMap,
    grid: &Grid,
    graph: &InteractionGraph,
    bfs_scratch: &mut BfsScratch,
    site_scratch: &mut Vec<Site>,
) -> Result<(Site, Site), CompileError> {
    debug_assert!(operands.len() >= 2);
    site_scratch.clear();
    site_scratch.extend(operands.iter().map(|&q| map.site_of(q).expect("placed")));
    let op_sites: &[Site] = site_scratch;

    // Congregation goal: the meeting point, displaced to the nearest
    // usable non-operand site if an operand already sits there.
    let m = meeting_point_of_sites(op_sites, grid);
    let goal = if op_sites.contains(&m) {
        nearest_usable_excluding(grid, m, op_sites).ok_or(CompileError::Disconnected)?
    } else {
        m
    };

    // Move the operand farthest from the goal (ties: operand order).
    let (mut mover, mut worst) = (op_sites[0], -1.0f64);
    for &s in op_sites {
        let d = s.distance(goal);
        if d > worst + 1e-12 {
            mover = s;
            worst = d;
        }
    }
    // Reuse the tail of the site buffer for the blocked set (the
    // non-mover operands): compact it in place.
    let mover_site = mover;
    site_scratch.retain(|&s| s != mover_site);
    let hop = graph
        .hop_toward(mover, goal, site_scratch, bfs_scratch)
        .ok_or(CompileError::Disconnected)?;
    Ok((mover, hop))
}

fn nearest_usable_excluding(grid: &Grid, anchor: Site, excluded: &[Site]) -> Option<Site> {
    let mut best: Option<(i64, Site)> = None;
    for s in grid.usable_sites() {
        if excluded.contains(&s) {
            continue;
        }
        let d = s.distance_sq(anchor);
        if best.is_none_or(|(bd, bs)| d < bd || (d == bd && s < bs)) {
            best = Some((d, s));
        }
    }
    best.map(|(_, s)| s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::initial_placement;
    use na_circuit::Circuit;

    fn schedule_circuit(circuit: &Circuit, grid: &Grid, config: &CompilerConfig) -> ScheduleResult {
        let dag = circuit.dag();
        let frontier = dag.frontier();
        let w = frontier_weights(circuit, &frontier, config.lookahead_depth);
        let map = initial_placement(circuit, grid, &w).unwrap();
        let graph = InteractionGraph::cached(grid, config.mid);
        run(circuit, grid, &graph, config, map).unwrap()
    }

    #[test]
    fn all_gates_get_scheduled_exactly_once() {
        let mut c = Circuit::new(4);
        c.h(Qubit(0));
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(2), Qubit(3));
        c.cnot(Qubit(1), Qubit(2));
        let grid = Grid::new(5, 5);
        let result = schedule_circuit(&c, &grid, &CompilerConfig::new(2.0));
        let mut seen = vec![0usize; c.len()];
        for op in &result.ops {
            if let Some(i) = op.source {
                seen[i] += 1;
            }
        }
        assert!(
            seen.iter().all(|&n| n == 1),
            "each gate exactly once: {seen:?}"
        );
    }

    #[test]
    fn independent_gates_share_timesteps_without_zones() {
        let mut c = Circuit::new(4);
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(2), Qubit(3));
        let grid = Grid::new(8, 8);
        let cfg = CompilerConfig::new(2.0).with_restriction(na_arch::RestrictionPolicy::None);
        let result = schedule_circuit(&c, &grid, &cfg);
        // Both CNOTs should land in timestep 0 when zones are off and
        // placement keeps pairs adjacent.
        let times: Vec<u32> = result
            .ops
            .iter()
            .filter(|o| !o.is_swap())
            .map(|o| o.time)
            .collect();
        assert_eq!(times, vec![0, 0]);
    }

    #[test]
    fn swaps_appear_when_qubits_start_far_apart() {
        // Serial chain that the placer cannot keep fully adjacent at
        // MID 1 on a narrow device.
        let mut c = Circuit::new(6);
        for i in 0..5u32 {
            c.cnot(Qubit(i), Qubit((i + 1) % 6));
        }
        c.cnot(Qubit(0), Qubit(5));
        c.cnot(Qubit(2), Qubit(5));
        c.cnot(Qubit(0), Qubit(3));
        let grid = Grid::new(6, 1);
        let result = schedule_circuit(&c, &grid, &CompilerConfig::new(1.0));
        let swaps = result.ops.iter().filter(|o| o.is_swap()).count();
        assert!(swaps > 0, "line topology must need SWAPs");
    }

    #[test]
    fn larger_mid_needs_fewer_swaps() {
        let mut c = Circuit::new(8);
        // All-to-all-ish interaction pattern.
        for i in 0..8u32 {
            for j in (i + 1)..8 {
                if (i + j) % 3 == 0 {
                    c.cnot(Qubit(i), Qubit(j));
                }
            }
        }
        let grid = Grid::new(4, 4);
        let s1 = schedule_circuit(&c, &grid, &CompilerConfig::new(1.0));
        let s4 = schedule_circuit(&c, &grid, &CompilerConfig::new(4.4));
        let swaps1 = s1.ops.iter().filter(|o| o.is_swap()).count();
        let swaps4 = s4.ops.iter().filter(|o| o.is_swap()).count();
        assert!(swaps4 < swaps1, "MID 4.4 ({swaps4}) vs MID 1 ({swaps1})");
        assert_eq!(swaps4, 0, "all-to-all at diagonal MID needs no SWAPs");
    }

    #[test]
    fn toffoli_schedules_natively_at_mid_two() {
        let mut c = Circuit::new(3);
        c.toffoli(Qubit(0), Qubit(1), Qubit(2));
        let grid = Grid::new(5, 5);
        let result = schedule_circuit(&c, &grid, &CompilerConfig::new(2.0));
        let prog_ops: Vec<_> = result.ops.iter().filter(|o| !o.is_swap()).collect();
        assert_eq!(prog_ops.len(), 1);
        assert_eq!(prog_ops[0].arity(), 3);
        assert!(prog_ops[0].span() <= 2.0);
    }

    #[test]
    fn restriction_zones_serialize_nearby_gates() {
        // Two independent distance-2 CNOTs forced close together on a
        // tiny device: with f(d)=d/2 zones they cannot share a step.
        let mut c = Circuit::new(4);
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(2), Qubit(3));
        let grid = Grid::new(2, 2);
        let cfg = CompilerConfig::new(2.0);
        let result = schedule_circuit(&c, &grid, &cfg);
        let mut times: Vec<u32> = result
            .ops
            .iter()
            .filter(|o| !o.is_swap())
            .map(|o| o.time)
            .collect();
        times.sort_unstable();
        // On a 2x2 grid every pair of sites is within distance ~1.41 of
        // the others, so if either gate spans a diagonal its zone covers
        // the other pair. Gates must either be adjacent-placed (span 1,
        // zones radius 0.5 might still clear) — accept either full
        // parallelism or serialization but require a valid schedule.
        assert_eq!(times.len(), 2);
        let zones_off = schedule_circuit(
            &c,
            &grid,
            &CompilerConfig::new(2.0).with_restriction(na_arch::RestrictionPolicy::None),
        );
        let depth_off = zones_off.num_timesteps;
        assert!(result.num_timesteps >= depth_off);
    }

    #[test]
    fn schedule_is_deterministic() {
        let mut c = Circuit::new(6);
        for i in 0..5u32 {
            c.cnot(Qubit(i), Qubit(i + 1));
        }
        let grid = Grid::new(4, 4);
        let cfg = CompilerConfig::new(1.0);
        let a = schedule_circuit(&c, &grid, &cfg);
        let b = schedule_circuit(&c, &grid, &cfg);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.num_timesteps, b.num_timesteps);
    }

    #[test]
    fn empty_circuit_schedules_to_nothing() {
        let c = Circuit::new(3);
        let grid = Grid::new(3, 3);
        let result = schedule_circuit(&c, &grid, &CompilerConfig::new(1.0));
        assert!(result.ops.is_empty());
        assert_eq!(result.num_timesteps, 0);
    }

    #[test]
    fn site_list_inlines_up_to_three_sites_and_spills_beyond() {
        let three = vec![Site::new(0, 0), Site::new(1, 0), Site::new(2, 2)];
        let inline = SiteList::from_slice(&three);
        assert!(!inline.is_spilled());
        assert_eq!(inline, three);
        assert_eq!(inline.len(), 3);

        let five: Vec<Site> = (0..5).map(|i| Site::new(i, 1)).collect();
        let spilled = SiteList::from_vec(five.clone());
        assert!(spilled.is_spilled());
        assert_eq!(spilled, five);

        let pair = SiteList::pair(Site::new(4, 4), Site::new(5, 4));
        assert_eq!(pair.as_slice(), &[Site::new(4, 4), Site::new(5, 4)]);
        assert!(!pair.is_spilled());
    }

    #[test]
    fn site_list_serializes_byte_identically_to_a_vec() {
        for n in [0usize, 1, 2, 3, 4, 7] {
            let sites: Vec<Site> = (0..n).map(|i| Site::new(i as i32, 2)).collect();
            let list = SiteList::from_slice(&sites);
            let as_vec = serde_json::to_string(&sites).unwrap();
            let as_list = serde_json::to_string(&list).unwrap();
            assert_eq!(as_vec, as_list, "n={n}");
            let back: SiteList = serde_json::from_str(&as_vec).unwrap();
            assert_eq!(back, list);
        }
    }

    #[test]
    fn zone_buffer_matches_restriction_zone_semantics() {
        use na_arch::RestrictionZone;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for policy in [
            RestrictionPolicy::HalfDistance,
            RestrictionPolicy::None,
            RestrictionPolicy::FullDistance,
            RestrictionPolicy::Constant(1.5),
        ] {
            for _ in 0..64 {
                let gate = |rng: &mut StdRng| -> Vec<Site> {
                    let n = rng.gen_range(1..=3);
                    let mut sites = Vec::new();
                    while sites.len() < n {
                        let s = Site::new(rng.gen_range(0..8), rng.gen_range(0..8));
                        if !sites.contains(&s) {
                            sites.push(s);
                        }
                    }
                    sites
                };
                let mut buffer = ZoneBuffer::new(policy);
                let mut reference: Vec<RestrictionZone> = Vec::new();
                for _ in 0..5 {
                    let sites = gate(&mut rng);
                    let zone = RestrictionZone::for_gate(&sites, policy);
                    let expect_free = !reference.iter().any(|z| z.intersects(&zone));
                    assert_eq!(
                        buffer.try_claim(&sites),
                        expect_free,
                        "zone semantics diverged for {sites:?} under {policy:?}"
                    );
                    if expect_free {
                        reference.push(zone);
                    }
                }
            }
        }
    }
}
