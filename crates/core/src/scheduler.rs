//! The restriction-zone-aware frontier scheduler.
//!
//! Compilation proceeds layer by layer over the program DAG
//! (paper §III-A). At every timestep the scheduler:
//!
//! 1. executes every ready gate whose operands are pairwise within the
//!    MID and whose restriction zone does not intersect a zone already
//!    claimed this step (greedy maximal packing, deterministic order);
//! 2. for each remaining long-distance frontier gate, schedules the
//!    best-scoring SWAP (see [`crate::routing`]) if its zone fits. The
//!    search is skipped when a claimed zone already blocks every
//!    operand's site at the radius of a unit-distance SWAP: every
//!    candidate moves an operand one site or more, and every policy's
//!    radius grows with distance, so no move it returned could be
//!    claimed;
//! 3. if the step would otherwise be empty, forces one BFS hop toward
//!    the gate's congregation point so progress is guaranteed.
//!
//! SWAPs update the mapping immediately; completed gates unlock their
//! DAG successors at the end of the step.
//!
//! # Hot-path layout
//!
//! The inner loop runs over the precomputed [`InteractionGraph`] and
//! borrows everything grid-independent from the [`Program`]: the DAG
//! the frontier walks, the flattened CSR operand table, and the
//! time-zero lookahead weights, which it reads in place until its first
//! rebuild. None of these is rebuilt per compile, so a loss-driven
//! recompile of one program pays only for the grid-dependent work.
//!
//! Its working memory persists across compiles too: every buffer lives
//! in the compile's [`PlacementScratch`](crate::PlacementScratch)
//! (`ScheduleScratch`) — the rebuilt weights' adjacency lists, the
//! rebuild's window and decay tables, the frontier's per-gate state
//! ([`FrontierBuffers`]), the per-step `ready`/`in_range`/`completed`
//! lists, the completion bit mask, the zone buffer, the BFS scratch and
//! the cycle check's anchor — and `run` re-arms each one when it
//! starts. A compile that returns an error may leave them in any
//! state; the next one never reads what it has not re-armed. So once
//! the scratch has grown, a compile allocates only what its schedule
//! keeps: the `ops` list, sized up front from the program's gate count
//! plus the previous schedule's SWAPs, and the final map.
//!
//! Per timestep it allocates nothing: completion is a bit mask, zone
//! conflicts go through a bounding-box prefilter, and lookahead weights
//! are rebuilt lazily (only when a completed gate has shifted the
//! frontier *and* a long-distance gate actually needs a SWAP scored).
//! A rebuild walks only the `lookahead_depth` layers ahead of the
//! frontier ([`Frontier::window_into`]), so its work scales with that
//! window, not with the circuit. Emitted ops store their operand sites
//! in an inline [`SiteList`] (up to three sites — SWAPs, 1q/2q gates,
//! native Toffolis — with a heap spill only for larger CNX
//! decompositions).
//!
//! # Stuck routings
//!
//! Each step is a deterministic function of the mapping, the frontier
//! and the lookahead weights. While no gate completes, the frontier and
//! the (clean) weights stay fixed, so a mapping that repeats means the
//! router is cycling and will never complete another gate. The loop
//! checks for that with Brent's cycle detection (one map compare per
//! step) and returns [`CompileError::RoutingStuck`] at the first
//! repeat, counted in `routing_cycles`, instead of running on to the
//! step budget ([`CompilerConfig::max_steps_per_gate`]).
//!
//! # Telemetry split
//!
//! `run` is timed as a whole by the `route_schedule` pass span. It
//! also accumulates two phases in paused spans, each recorded as one
//! sample per compile: the routing phases (SWAP insertion and forced
//! BFS hops — phase 2/3 above) in [`Span::Route`], and the lookahead
//! weight rebuilds in [`Span::Lookahead`]. `route` is paused around
//! each rebuild, so the schedule-only time (frontier refill, in-range
//! packing, zone claims) is `route_schedule − route − lookahead`. The
//! counters `weight_rebuilds` and `lookahead_gates_visited` count the
//! rebuilds and the gates their windows hold; a program's time-zero
//! weights count as one more rebuild when the [`Program`] is built.
//! Five counters break down the SWAP searches of phase 2:
//! `swap_searches` (ready long-distance gates that reached the search),
//! `swap_searches_blocked` (of those, skipped as zone-blocked),
//! `swap_candidates_scored` and `swap_candidates_pruned` (skipped by
//! the score bound, see [`crate::routing`]), and
//! `swap_searches_discarded` (a move found whose zone claim failed).
//! Like the rebuild counts they are kept in locals and added once per
//! compile. With metrics off neither span reads a clock; both are
//! metrics-only and strictly observational.

use crate::program::{GateOperands, Program};
use crate::routing::{all_within_mid, best_swap_for_gate, meeting_point_of_sites, CandidateCounts};
use crate::{CompileError, CompilerConfig, InteractionWeights, QubitMap, WeightScratch};
use na_arch::{BfsScratch, Grid, InteractionGraph, RestrictionPolicy, Site};
use na_circuit::{Frontier, FrontierBuffers, GateId, Qubit, WindowScratch};
use na_telemetry::{Counter, Span};
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

/// Completed-gate bit mask: `contains` is one word probe instead of a
/// linear scan over the step's completion list.
#[derive(Debug, Clone, Default)]
struct GateMask {
    words: Vec<u64>,
}

impl GateMask {
    /// Clears the mask and sizes it to `num_gates` gates.
    fn reset(&mut self, num_gates: usize) {
        self.words.clear();
        self.words.resize(num_gates.div_ceil(64), 0);
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
#[derive(Debug, Clone)]
struct ZoneBuffer {
    policy: RestrictionPolicy,
    /// All claimed operand sites this step, flat.
    centers: Vec<Site>,
    /// Per-zone: centers range, disc radius, radius-expanded bbox.
    zones: Vec<ZoneEntry>,
}

#[derive(Debug, Clone)]
struct ZoneEntry {
    start: u32,
    end: u32,
    radius: f64,
    min_x: f64,
    max_x: f64,
    min_y: f64,
    max_y: f64,
}

impl Default for ZoneBuffer {
    /// An empty buffer; [`ZoneBuffer::reset`] sets each compile's policy.
    fn default() -> Self {
        ZoneBuffer {
            policy: RestrictionPolicy::None,
            centers: Vec::new(),
            zones: Vec::new(),
        }
    }
}

impl ZoneBuffer {
    /// Empties the buffer and sets the policy its zones are drawn by.
    fn reset(&mut self, policy: RestrictionPolicy) {
        self.policy = policy;
        self.clear();
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
        if self.conflicts(sites, radius, [min_x, max_x, min_y, max_y]) {
            return false;
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

    /// `true` if a disc of `radius` around `site` conflicts with a zone
    /// claimed this step. A gate on `site` whose own zone radius is at
    /// least `radius` can then not be claimed: its box contains this
    /// one and the disc test is monotone in the radius.
    fn blocks(&self, site: Site, radius: f64) -> bool {
        let (x, y) = (f64::from(site.x), f64::from(site.y));
        self.conflicts(
            &[site],
            radius,
            [x - radius, x + radius, y - radius, y + radius],
        )
    }

    /// `true` if the zone of radius `radius` over `sites`, whose
    /// radius-expanded bounding box is `[min_x, max_x, min_y, max_y]`,
    /// conflicts with a claimed zone.
    #[inline]
    fn conflicts(&self, sites: &[Site], radius: f64, bbox: [f64; 4]) -> bool {
        let [min_x, max_x, min_y, max_y] = bbox;
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
                        return true;
                    }
                }
            }
        }
        false
    }
}

/// The scheduler's working memory, kept in the compile's
/// [`PlacementScratch`](crate::PlacementScratch) so a run of compiles
/// (a loss campaign's recompiles, an engine worker's cache misses)
/// allocates it once. [`run`] re-arms every buffer before it reads it;
/// a compile that fails or unwinds may leave any of them in any state.
#[derive(Debug, Clone, Default)]
pub(crate) struct ScheduleScratch {
    /// The lookahead weights after the first rebuild (before it, the
    /// scheduler reads the program's time-zero weights).
    weights: InteractionWeights,
    rebuild: RebuildScratch,
    frontier: FrontierBuffers,
    ready: Vec<GateId>,
    in_range: Vec<(GateId, f64)>,
    completed: Vec<GateId>,
    completed_mask: GateMask,
    zones: ZoneBuffer,
    sites: Vec<Site>,
    bfs: BfsScratch,
    cycle: CycleCheck,
    /// SWAPs the last schedule inserted: with the program's gate count,
    /// the capacity the next schedule's `ops` starts at.
    swaps_hint: usize,
}

/// Schedules `program` starting from `initial` placement, in the
/// working memory of `scratch`.
pub(crate) fn run(
    program: &Program,
    grid: &Grid,
    graph: &InteractionGraph,
    config: &CompilerConfig,
    initial: QubitMap,
    scratch: &mut ScheduleScratch,
) -> Result<ScheduleResult, CompileError> {
    let mut frontier = program
        .dag()
        .frontier_in(std::mem::take(&mut scratch.frontier));
    let result = schedule(
        program,
        grid,
        graph,
        config,
        initial,
        &mut frontier,
        scratch,
    );
    scratch.frontier = frontier.into_buffers();
    result
}

fn schedule(
    program: &Program,
    grid: &Grid,
    graph: &InteractionGraph,
    config: &CompilerConfig,
    initial: QubitMap,
    frontier: &mut Frontier<'_>,
    scratch: &mut ScheduleScratch,
) -> Result<ScheduleResult, CompileError> {
    let ScheduleScratch {
        weights: rebuilt_weights,
        rebuild,
        frontier: _,
        ready,
        in_range,
        completed,
        completed_mask,
        zones,
        sites: site_scratch,
        bfs: bfs_scratch,
        cycle,
        swaps_hint,
    } = scratch;
    let circuit = program.circuit();
    let operands = program.operands();
    let mut map = initial;
    let mut ops: Vec<ScheduledOp> = Vec::with_capacity(circuit.len() + *swaps_hint);
    let mut time: u32 = 0;
    let step_budget = config
        .max_steps_per_gate
        .saturating_mul(circuit.len().max(1))
        .saturating_add(1024);

    // Lookahead weights change only when gates complete, and are only
    // read when a long-distance gate needs a SWAP scored — rebuild
    // lazily at first use after a completion. Until the first rebuild
    // the weights are the program's time-zero ones.
    rebuilt_weights.reset(circuit.num_qubits());
    let mut rebuilt = false;
    let mut lookahead = Lookahead::new(rebuild);
    let mut weights_dirty = false;
    cycle.reset();
    let mut searches = SwapSearches::default();
    let blocked_radius = config.restriction.radius(1.0);
    completed_mask.reset(circuit.len());
    zones.reset(config.restriction);

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
        for &id in ready.iter() {
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
        for &(id, _) in in_range.iter() {
            site_scratch.clear();
            site_scratch.extend(
                operands
                    .get(id.0)
                    .iter()
                    .map(|&q| map.site_of(q).expect("all program qubits placed")),
            );
            if !zones.try_claim(site_scratch) {
                continue;
            }
            ops.push(ScheduledOp {
                time,
                source: Some(id.0),
                sites: SiteList::from_slice(site_scratch),
            });
            completed_mask.set(id.0);
            completed.push(id);
            scheduled += 1;
        }

        // Phase B: one routing SWAP per remaining long-distance gate.
        route.resume();
        for &id in ready.iter() {
            if completed_mask.contains(id.0) {
                continue;
            }
            let ops_of_gate = operands.get(id.0);
            if ops_of_gate.len() < 2 || all_within_mid(ops_of_gate, &map, config.mid) {
                // In range but zone-blocked: just wait.
                continue;
            }
            if weights_dirty {
                route.pause();
                lookahead.rebuild(operands, frontier, config.lookahead_depth, rebuilt_weights);
                route.resume();
                weights_dirty = false;
                rebuilt = true;
            }
            let weights: &InteractionWeights = if rebuilt {
                rebuilt_weights
            } else {
                program.weights()
            };
            searches.searches += 1;
            // No move out of a blocked operand site could be claimed
            // (see step 2 in the module docs).
            if ops_of_gate
                .iter()
                .all(|&q| zones.blocks(map.site_of(q).expect("operand mapped"), blocked_radius))
            {
                searches.blocked += 1;
                continue;
            }
            let Some(mv) = best_swap_for_gate(
                ops_of_gate,
                &map,
                graph,
                grid.usable_mask(),
                weights,
                config.mid,
                &mut searches.candidates,
            ) else {
                continue;
            };
            if !zones.try_claim(&[mv.from, mv.to]) {
                searches.discarded += 1;
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
                bfs_scratch,
                site_scratch,
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
        time += 1;
        if !completed.is_empty() {
            cycle.reset();
            weights_dirty = !frontier.is_done();
        } else if !weights_dirty && cycle.repeats(&map) {
            // Each step is a deterministic function of the mapping, the
            // frontier and the weights, and neither of the latter two
            // has changed since the anchor: the router is cycling and
            // can never complete another gate.
            na_telemetry::add(Counter::RoutingCycles, 1);
            return Err(CompileError::RoutingStuck {
                steps: time as usize,
            });
        }
    }

    route.end();
    *swaps_hint = ops.len() - circuit.len();

    Ok(ScheduleResult {
        ops,
        final_map: map,
        num_timesteps: time,
    })
}

/// The reusable buffers of one lookahead rebuild.
#[derive(Debug, Clone, Default)]
pub(crate) struct RebuildScratch {
    walk: WindowScratch,
    window: Vec<(GateId, usize)>,
    weights: WeightScratch,
}

impl RebuildScratch {
    /// Rebuilds `weights` in place from the gates within
    /// `lookahead_depth` layers of the frontier, reusing every buffer
    /// involved. Returns the number of gates in the window.
    pub(crate) fn rebuild(
        &mut self,
        operands: &GateOperands,
        frontier: &Frontier<'_>,
        lookahead_depth: usize,
        weights: &mut InteractionWeights,
    ) -> usize {
        frontier.window_into(lookahead_depth, &mut self.walk, &mut self.window);
        weights.rebuild(
            self.window
                .iter()
                .map(|&(g, l)| (g.0, operands.get(g.0), l)),
            lookahead_depth,
            &mut self.weights,
        );
        self.window.len()
    }
}

/// The scheduler's lookahead rebuilds: their buffers, their paused
/// [`Span::Lookahead`], and their work counts, added to the counters
/// once per compile when dropped.
struct Lookahead<'s> {
    scratch: &'s mut RebuildScratch,
    span: na_telemetry::OpenSpan,
    rebuilds: u64,
    gates_visited: u64,
}

impl<'s> Lookahead<'s> {
    fn new(scratch: &'s mut RebuildScratch) -> Self {
        Lookahead {
            scratch,
            span: na_telemetry::span_paused(Span::Lookahead),
            rebuilds: 0,
            gates_visited: 0,
        }
    }

    fn rebuild(
        &mut self,
        operands: &GateOperands,
        frontier: &Frontier<'_>,
        lookahead_depth: usize,
        weights: &mut InteractionWeights,
    ) {
        self.span.resume();
        let visited = self
            .scratch
            .rebuild(operands, frontier, lookahead_depth, weights);
        self.span.pause();
        self.rebuilds += 1;
        self.gates_visited += visited as u64;
    }
}

impl Drop for Lookahead<'_> {
    /// Adds the counts even when the compile fails, as the span records.
    fn drop(&mut self) {
        na_telemetry::add(Counter::WeightRebuilds, self.rebuilds);
        na_telemetry::add(Counter::LookaheadGatesVisited, self.gates_visited);
    }
}

/// The work counts of the scheduler's SWAP searches, added to the
/// counters once per compile when dropped (as [`Lookahead`]'s are).
#[derive(Default)]
struct SwapSearches {
    /// Ready long-distance gates that reached the search.
    searches: u64,
    /// Of those, searches skipped because every operand was blocked.
    blocked: u64,
    /// Searches whose move failed its zone claim.
    discarded: u64,
    /// Candidates the searches that ran scored and pruned.
    candidates: CandidateCounts,
}

impl Drop for SwapSearches {
    fn drop(&mut self) {
        na_telemetry::add(Counter::SwapSearches, self.searches);
        na_telemetry::add(Counter::SwapSearchesBlocked, self.blocked);
        na_telemetry::add(Counter::SwapCandidatesScored, self.candidates.scored);
        na_telemetry::add(Counter::SwapCandidatesPruned, self.candidates.pruned);
        na_telemetry::add(Counter::SwapSearchesDiscarded, self.discarded);
    }
}

/// Brent's cycle detection over the router's mapping while the
/// frontier and the weights stand still: the mapping is compared with
/// an anchor copy that moves to the current mapping after 1, 2, 4, …
/// observations, so a cycle of period λ entered after μ steps is found
/// within 2·max(μ, λ) + λ steps, at one map compare per step.
#[derive(Debug, Clone)]
struct CycleCheck {
    /// [`QubitMap::sites`] at the anchor.
    anchor: Vec<Option<Site>>,
    /// `false` until the first observation after a reset.
    armed: bool,
    /// Observations since the anchor last moved, and the count at
    /// which it moves next.
    since: u32,
    power: u32,
}

impl Default for CycleCheck {
    fn default() -> Self {
        CycleCheck {
            anchor: Vec::new(),
            armed: false,
            since: 0,
            power: 1,
        }
    }
}

impl CycleCheck {
    /// Forgets the anchor: the frontier moved, so earlier mappings no
    /// longer describe the same state.
    fn reset(&mut self) {
        self.armed = false;
    }

    /// Observes the mapping after a step that completed no gate;
    /// `true` when it repeats the anchor exactly.
    fn repeats(&mut self, map: &QubitMap) -> bool {
        if self.armed {
            self.since += 1;
            if map.sites() == self.anchor {
                return true;
            }
            if self.since < self.power {
                return false;
            }
            self.power *= 2;
        } else {
            self.armed = true;
            self.power = 1;
        }
        self.since = 0;
        self.anchor.clear();
        self.anchor.extend_from_slice(map.sites());
        false
    }
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
        .hop_toward(mover, goal, site_scratch, grid.usable_mask(), bfs_scratch)
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
    use crate::placement::{initial_placement_with, PlacementScratch};
    use na_circuit::Circuit;

    /// `true` when the list spilled to the heap (arity > 3).
    fn is_spilled(list: &SiteList) -> bool {
        matches!(list.0, Repr::Spilled(_))
    }

    fn schedule_circuit(circuit: &Circuit, grid: &Grid, config: &CompilerConfig) -> ScheduleResult {
        let program = Program::new(circuit.clone(), config.lookahead_depth);
        let map = initial_placement_with(
            circuit,
            grid,
            program.weights(),
            &mut PlacementScratch::new(),
        )
        .unwrap();
        let graph = InteractionGraph::cached(grid, config.mid);
        run(
            &program,
            grid,
            &graph,
            config,
            map,
            &mut ScheduleScratch::default(),
        )
        .unwrap()
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
        assert!(!is_spilled(&inline));
        assert_eq!(inline, three);
        assert_eq!(inline.len(), 3);

        let five: Vec<Site> = (0..5).map(|i| Site::new(i, 1)).collect();
        let spilled = SiteList::from_vec(five.clone());
        assert!(is_spilled(&spilled));
        assert_eq!(spilled, five);

        let pair = SiteList::pair(Site::new(4, 4), Site::new(5, 4));
        assert_eq!(pair.as_slice(), &[Site::new(4, 4), Site::new(5, 4)]);
        assert!(!is_spilled(&pair));
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
        let mut blocked = 0;
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
                let mut buffer = ZoneBuffer::default();
                buffer.reset(policy);
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
                // The blocked-operand skip: where a unit-distance zone
                // on `su` conflicts, so does every SWAP out of `su`.
                let mid = f64::from(rng.gen_range(1..=5u32));
                let su = Site::new(rng.gen_range(0..8), rng.gen_range(0..8));
                if !buffer.blocks(su, policy.radius(1.0)) {
                    continue;
                }
                blocked += 1;
                for x in 0..8 {
                    for y in 0..8 {
                        let h = Site::new(x, y);
                        if h != su && su.within(h, mid) {
                            assert!(
                                !buffer.try_claim(&[su, h]),
                                "{su:?} blocked, yet a SWAP to {h:?} claimed under {policy:?}"
                            );
                        }
                    }
                }
            }
        }
        assert!(blocked > 64, "only {blocked} blocked operand sites");
    }

    /// The lookahead weights as the scheduler built them before the
    /// windowed walk: relative layers by a full walk of the circuit,
    /// gates in id order, each pair's contributions stable-sorted by
    /// pair and summed left to right. Weights are returned as bits.
    fn full_walk_adjacency(
        circuit: &Circuit,
        frontier: &Frontier<'_>,
        depth: usize,
    ) -> Vec<Vec<(Qubit, u64)>> {
        let dag = circuit.dag();
        let mut rel: Vec<Option<usize>> = vec![None; circuit.len()];
        let mut contribs: Vec<(u64, f64)> = Vec::new();
        for (i, gate) in circuit.iter().enumerate() {
            if frontier.is_executed(GateId(i)) {
                continue;
            }
            let l = dag
                .preds(GateId(i))
                .iter()
                .filter_map(|p| rel[p.0].map(|x| x + 1))
                .max()
                .unwrap_or(0);
            rel[i] = Some(l);
            if l > depth {
                continue;
            }
            let ops = gate.qubits();
            for a in 0..ops.len() {
                for b in (a + 1)..ops.len() {
                    let (u, v) = (ops[a].min(ops[b]), ops[a].max(ops[b]));
                    let key = (u64::from(u.0) << 32) | u64::from(v.0);
                    contribs.push((key, (-(l as f64)).exp()));
                }
            }
        }
        contribs.sort_by_key(|&(key, _)| key);
        let mut adj = vec![Vec::new(); circuit.num_qubits() as usize];
        for pair in contribs.chunk_by(|a, b| a.0 == b.0) {
            let sum = pair.iter().fold(0.0f64, |s, &(_, w)| s + w);
            let (u, v) = ((pair[0].0 >> 32) as u32, pair[0].0 as u32);
            adj[u as usize].push((Qubit(v), sum.to_bits()));
            adj[v as usize].push((Qubit(u), sum.to_bits()));
        }
        adj
    }

    /// Rebuilds one weight graph, with one scratch, on every frontier
    /// the scheduler passed through compiling a spread of benchmarks
    /// at MIDs 1 and 3 (native Toffolis, so 3-operand windows, at 3),
    /// as the scheduler reuses them, and calls `visit` after each
    /// rebuild. Returns the number of frontiers visited.
    fn for_each_rebuilt_frontier(
        mut visit: impl FnMut(&str, &Circuit, &Frontier<'_>, usize, &InteractionWeights),
    ) -> usize {
        use na_benchmarks::Benchmark;
        let grid = Grid::new(10, 10);
        let mut visited = 0usize;
        for (bench, size) in [
            (Benchmark::Bv, 16),
            (Benchmark::Cnu, 15),
            (Benchmark::Cuccaro, 20),
            (Benchmark::QftAdder, 16),
            (Benchmark::Qaoa, 16),
        ] {
            for mid in [1.0, 3.0] {
                let config = CompilerConfig::new(mid).with_native_multiqubit(mid >= 2.0);
                let compiled = crate::compile(&bench.generate(size, 7), &grid, &config).unwrap();
                let circuit = compiled.circuit();
                let program = Program::new(circuit.clone(), config.lookahead_depth);
                let operands = program.operands();
                let mut frontier = program.dag().frontier();
                let mut scratch = RebuildScratch::default();
                let mut weights = InteractionWeights::empty(circuit.num_qubits());
                let ops = compiled.ops();
                let mut next = 0;
                let case = format!("{} MID {mid}", bench.name());
                while !frontier.is_done() {
                    let depth = config.lookahead_depth;
                    scratch.rebuild(operands, &frontier, depth, &mut weights);
                    visit(&case, circuit, &frontier, depth, &weights);
                    visited += 1;
                    let time = ops[next].time;
                    while next < ops.len() && ops[next].time == time {
                        if let Some(g) = ops[next].source {
                            frontier.complete(GateId(g));
                        }
                        next += 1;
                    }
                }
            }
        }
        visited
    }

    #[test]
    fn windowed_rebuilds_match_the_full_walk_bit_for_bit() {
        let compared = for_each_rebuilt_frontier(|case, circuit, frontier, depth, weights| {
            let want = full_walk_adjacency(circuit, frontier, depth);
            for (q, want) in want.iter().enumerate() {
                let got: Vec<(Qubit, u64)> = weights
                    .partners(Qubit(q as u32))
                    .iter()
                    .map(|&(p, w)| (p, w.to_bits()))
                    .collect();
                assert_eq!(&got, want, "{case}, qubit {q}");
            }
        });
        assert!(compared > 500, "only {compared} frontiers compared");
    }

    #[test]
    fn weight_totals_fold_their_partners_after_windowed_rebuilds() {
        for_each_rebuilt_frontier(|case, circuit, _, _, weights| {
            for q in (0..circuit.num_qubits()).map(Qubit) {
                let fold = weights
                    .partners(q)
                    .iter()
                    .fold(0.0f64, |sum, &(_, w)| sum + w);
                assert_eq!(
                    weights.total(q).to_bits(),
                    fold.to_bits(),
                    "{case}, qubit {q:?}"
                );
            }
        });
    }
}
