//! Post-loss executability checks and SWAP fixup costing.
//!
//! After virtual remapping shifts addresses into spares, the compiled
//! schedule's interactions resolve to new physical sites. This module
//! answers two questions per topology state:
//!
//! * [`resolved_ok_summary`] — does every interaction still fit within
//!   the hardware MID (the virtual-remap go/no-go)?
//! * if not, how many SWAPs does the swap-out/execute/swap-back fixup
//!   of Fig. 9c cost per shot? Each reroute
//!   [`StrategyState`](crate::StrategyState) answers that from its own
//!   fixup cache.
//!
//! Both questions depend on the schedule only through its *distinct*
//! operand pairs: a pair scheduled twenty times costs twenty fixups
//! but needs one hop-distance query. [`InteractionSummary`] precomputes
//! that deduped pair multiset once per compiled schedule, with an index
//! from each operand address to its pairs, and both answers come from
//! it over the device's one [`InteractionGraph`] with the current holes
//! as a mask. Most out-of-range pairs are exactly two hops apart, which
//! [`InteractionGraph::hop_distance`] settles with a local lens test;
//! only the rest pay for a BFS. Either way the answer comes with its
//! *path witness* ([`na_arch::BfsScratch::path`]): the interior sites
//! of one shortest path, the lens site alone at distance 2.
//!
//! # Costing by delta: one path-witness rule
//!
//! A reroute strategy costs its fixup after every remap, but a remap
//! moves only the addresses on one ray. So each strategy state keeps
//! its last costing — every pair's hop distance and path witness — and
//! the next costing keeps a pair's distance when
//!
//! * neither endpoint is among the addresses the shift moved
//!   ([`na_arch::ShiftScratch::changes`]), and
//! * every interior site of its path is still usable (spare losses
//!   included).
//!
//! Every other pair is re-costed. The rule is exact. Between reloads
//! holes only accumulate, so over a pair whose endpoints did not move a
//! hop distance can only grow, while an intact `k`-hop path proves it
//! is still at most `k`: hence exactly `k`. A pair in range has an
//! empty path and stays in range (range is geometry). A disconnected
//! pair or a lost operand ends the costing with `None`, which the state
//! answers with a reload request, and the state drops its costing then,
//! on `reload`, and before its first costing: each of those costs every
//! pair. Pairs are visited in ascending order either way, and the SWAP
//! total is an exact integer sum, so the answer equals a full costing's
//! bit for bit. The per-op seed costing lives on in `tests/common` as
//! the oracle a randomized differential test drives the live state
//! machine against.

use na_arch::{BfsScratch, Grid, InteractionGraph, Site, VirtualMap};
use na_core::CompiledCircuit;

/// The deduped interaction-pair summary of one compiled schedule.
///
/// `pairs` holds every unordered operand *address* pair any scheduled
/// op interacts, normalized `(min, max)`, with its multiplicity
/// (scheduled occurrence count); `operands` holds every distinct
/// operand address. Both are sorted ascending. Addresses resolve
/// through the [`VirtualMap`] at query time, so one summary serves a
/// whole campaign until the schedule itself changes (FullRecompile).
/// The summary also indexes, per operand, the pairs it is an endpoint
/// of, so a remap finds the pairs it moved without a scan; built once
/// here, the index is shared by every state holding the summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InteractionSummary {
    pairs: Vec<(Site, Site, u32)>,
    operands: Vec<Site>,
    /// Operand `k`'s pairs are
    /// `operand_pairs[pair_offsets[k]..pair_offsets[k + 1]]`, as
    /// ascending indices into `pairs`.
    pair_offsets: Vec<u32>,
    operand_pairs: Vec<u32>,
}

impl InteractionSummary {
    /// Builds the summary of `compiled`'s scheduled ops.
    pub fn of(compiled: &CompiledCircuit) -> Self {
        let mut raw: Vec<(Site, Site)> = Vec::new();
        let mut operands: Vec<Site> = Vec::new();
        for op in compiled.ops() {
            operands.extend(op.sites.iter().copied());
            for i in 0..op.sites.len() {
                for j in (i + 1)..op.sites.len() {
                    let (a, b) = (op.sites[i], op.sites[j]);
                    raw.push(if a <= b { (a, b) } else { (b, a) });
                }
            }
        }
        raw.sort();
        operands.sort();
        operands.dedup();
        let mut pairs: Vec<(Site, Site, u32)> = Vec::new();
        for (a, b) in raw {
            match pairs.last_mut() {
                Some(&mut (pa, pb, ref mut n)) if (pa, pb) == (a, b) => *n += 1,
                _ => pairs.push((a, b, 1)),
            }
        }
        let slot = |a: Site| {
            operands
                .binary_search(&a)
                .expect("pair endpoints are operands")
        };
        let mut pair_offsets = vec![0u32; operands.len() + 1];
        for &(a, b, _) in &pairs {
            pair_offsets[slot(a) + 1] += 1;
            pair_offsets[slot(b) + 1] += 1;
        }
        for k in 0..operands.len() {
            pair_offsets[k + 1] += pair_offsets[k];
        }
        let mut fill = pair_offsets.clone();
        let mut operand_pairs = vec![0u32; 2 * pairs.len()];
        for (p, &(a, b, _)) in pairs.iter().enumerate() {
            for k in [slot(a), slot(b)] {
                operand_pairs[fill[k] as usize] = p as u32;
                fill[k] += 1;
            }
        }
        InteractionSummary {
            pairs,
            operands,
            pair_offsets,
            operand_pairs,
        }
    }

    /// The distinct unordered address pairs with multiplicities,
    /// ascending.
    pub fn pairs(&self) -> &[(Site, Site, u32)] {
        &self.pairs
    }

    /// The distinct operand addresses, ascending.
    pub fn operands(&self) -> &[Site] {
        &self.operands
    }

    /// Ascending indices into [`InteractionSummary::pairs`] of the
    /// pairs `address` is an endpoint of; empty for a non-operand.
    pub(crate) fn pairs_of(&self, address: Site) -> &[u32] {
        match self.operands.binary_search(&address) {
            Ok(k) => {
                let (lo, hi) = (self.pair_offsets[k], self.pair_offsets[k + 1]);
                &self.operand_pairs[lo as usize..hi as usize]
            }
            Err(_) => &[],
        }
    }
}

/// `true` if every scheduled interaction, resolved through `vmap`,
/// stays within `hardware_mid` and on usable atoms, answered from a
/// precomputed [`InteractionSummary`]: every distinct operand must
/// resolve to a usable atom and every distinct pair must resolve within
/// `hardware_mid`. Equivalent to a per-op scan — a violation exists in
/// one iff it exists in the other.
pub fn resolved_ok_summary(
    summary: &InteractionSummary,
    vmap: &VirtualMap,
    grid: &Grid,
    hardware_mid: f64,
) -> bool {
    summary
        .operands()
        .iter()
        .all(|&a| grid.is_usable(vmap.resolve(a)))
        && summary
            .pairs()
            .iter()
            .all(|&(a, b, _)| vmap.resolve(a).within(vmap.resolve(b), hardware_mid))
}

/// One pair's entry in a [`FixupCache`].
#[derive(Debug, Clone, Default)]
struct PairCost {
    /// Hop distance at the last costing; 0 marks a pair a remap moved,
    /// to be costed afresh (distinct addresses never resolve to one
    /// site, so no costed pair is 0 hops apart).
    hops: u32,
    /// The path witness of `hops`: the flat indices of its interior
    /// sites, empty within range. Cleared and refilled in place, so a
    /// costing in steady state allocates nothing.
    path: Vec<u32>,
}

/// One strategy state's fixup costing, kept between remaps so each
/// costing re-costs only what the last one cannot vouch for (see the
/// module docs): the last hop distance and path witness of every pair
/// of the state's [`InteractionSummary`].
#[derive(Debug, Clone)]
pub(crate) struct FixupCache {
    pairs: Vec<PairCost>,
    /// Whether `pairs` is the costing of the state's topology before
    /// the remap now being costed. Cleared by
    /// [`FixupCache::invalidate`] and by a costing that ends in `None`.
    valid: bool,
    /// Pairs whose hop distance a costing computed, cumulative.
    costed: u64,
}

impl FixupCache {
    /// An empty cache for `summary`'s pairs; its first costing costs
    /// every pair.
    pub(crate) fn new(summary: &InteractionSummary) -> Self {
        FixupCache {
            pairs: vec![PairCost::default(); summary.pairs().len()],
            valid: false,
            costed: 0,
        }
    }

    /// Drops the last costing: the next one costs every pair. Needed
    /// whenever holes may have been refilled or an operand lost
    /// without a remap (reload, and every reload request).
    pub(crate) fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Cumulative count of pairs whose hop distance this cache has
    /// computed, read before and after a costing for the delta.
    pub(crate) fn pairs_costed(&self) -> u64 {
        self.costed
    }

    /// SWAP count of the minor-reroute fixup (Fig. 9c) for the current
    /// topology over `graph`, the device's graph at the hardware MID:
    /// for every scheduled interaction whose resolved operands are out
    /// of range, one operand is swapped along a shortest MID-hop path
    /// to within range, the gate executes, and the SWAPs are reversed —
    /// `2 · (hops − 1)` SWAPs per distinct pair, multiplied by its
    /// scheduled multiplicity. These SWAPs recur every shot until the
    /// topology changes again.
    ///
    /// `moved` lists the addresses the remap since the last costing
    /// moved, and `grid` carries every hole since then; the pairs whose
    /// path witness the last costing still vouches for keep their
    /// distance (module docs).
    ///
    /// Returns `None` when some operand resolves to a lost atom or some
    /// required pair is disconnected — the strategy must reload.
    pub(crate) fn cost(
        &mut self,
        summary: &InteractionSummary,
        vmap: &VirtualMap,
        moved: &[(Site, Site)],
        graph: &InteractionGraph,
        grid: &Grid,
        scratch: &mut BfsScratch,
    ) -> Option<u32> {
        let usable = grid.usable_mask();
        // By delta from the last costing, or (none valid) every pair.
        let delta = self.valid;
        if delta {
            // A moved operand lands on a usable shift target, and an
            // unmoved one kept its atom (losing it would have moved
            // it), so every operand is still usable.
            debug_assert!(moved.iter().all(|&(_, site)| grid.is_usable(site)));
            for &(address, _) in moved {
                for &p in summary.pairs_of(address) {
                    self.pairs[p as usize].hops = 0;
                }
            }
        } else {
            for &a in summary.operands() {
                let i = graph.index_of(vmap.resolve(a))?;
                if !usable[i] {
                    return None;
                }
            }
        }
        self.valid = false;
        let mut total = 0u32;
        for (&(a, b, mult), pair) in summary.pairs().iter().zip(&mut self.pairs) {
            let proven = delta && pair.hops > 0 && pair.path.iter().all(|&s| usable[s as usize]);
            if !proven {
                self.costed += 1;
                pair.path.clear();
                // Settle in-range pairs, most of a full costing, by
                // geometry alone, without the graph query.
                let (ra, rb) = (vmap.resolve(a), vmap.resolve(b));
                pair.hops = if ra.within(rb, graph.mid()) {
                    1
                } else {
                    let hops = graph.hop_distance(ra, rb, usable, scratch)?;
                    pair.path.extend_from_slice(scratch.path());
                    hops
                };
            }
            total += mult * 2 * (pair.hops - 1);
        }
        self.valid = true;
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use na_arch::ShiftScratch;
    use na_circuit::{Circuit, Qubit};
    use na_core::{compile, CompilerConfig};

    /// A two-qubit program compiled on a small grid; the pair ends up
    /// adjacent.
    fn compiled_pair(grid: &Grid, mid: f64) -> CompiledCircuit {
        let mut c = Circuit::new(2);
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(0), Qubit(1));
        compile(&c, grid, &CompilerConfig::new(mid)).unwrap()
    }

    /// A full production costing: a fresh cache costs every pair.
    fn fixup_cost(
        summary: &InteractionSummary,
        vmap: &VirtualMap,
        grid: &Grid,
        mid: f64,
    ) -> Option<u32> {
        FixupCache::new(summary).cost(
            summary,
            vmap,
            &[],
            &InteractionGraph::cached(grid, mid),
            grid,
            &mut BfsScratch::new(),
        )
    }

    /// The largest resolved distance of any scheduled pair.
    fn max_resolved_span(summary: &InteractionSummary, vmap: &VirtualMap) -> f64 {
        summary
            .pairs()
            .iter()
            .map(|&(a, b, _)| vmap.resolve(a).distance(vmap.resolve(b)))
            .fold(0.0, f64::max)
    }

    #[test]
    fn identity_map_is_ok() {
        let grid = Grid::new(6, 6);
        let summary = InteractionSummary::of(&compiled_pair(&grid, 2.0));
        let vmap = VirtualMap::new();
        assert!(resolved_ok_summary(&summary, &vmap, &grid, 2.0));
        assert_eq!(fixup_cost(&summary, &vmap, &grid, 2.0), Some(0));
        assert!(max_resolved_span(&summary, &vmap) <= 2.0);
    }

    #[test]
    fn fixup_cost_counts_every_occurrence() {
        // 8x2 grid, two-qubit program with the same CNOT twice. The
        // placer seeds the pair at the device center: q0 at (3,0) and
        // its partner at the smallest adjacent free site (2,0).
        let grid = Grid::new(8, 2);
        let mut c = Circuit::new(2);
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(0), Qubit(1));
        let compiled = compile(&c, &grid, &CompilerConfig::new(1.0)).unwrap();
        let summary = InteractionSummary::of(&compiled);
        let s0 = compiled.ops()[0].sites[0];
        let s1 = compiled.ops()[0].sites[1];
        assert_eq!((s0, s1), (Site::new(3, 0), Site::new(2, 0)));

        // Lose q0's atom: the east ray holds the most spares, so the
        // shift stretches the pair to distance 2 over the new hole.
        let mut g = grid.clone();
        let mut vmap = VirtualMap::new();
        let in_use = move |s: Site| s == s0 || s == s1;
        g.remove_atom(s0);
        let dir = vmap.best_shift_direction(&g, s0, &in_use).unwrap();
        assert_eq!(dir, na_arch::Direction::East);
        vmap.shift_from_with(&g, s0, dir, &in_use, &mut ShiftScratch::new())
            .unwrap();
        assert_eq!(vmap.resolve(s0), Site::new(4, 0));

        let span = max_resolved_span(&summary, &vmap);
        assert_eq!(span, 2.0);
        assert!(!resolved_ok_summary(&summary, &vmap, &g, 1.0));
        // At MID 1 the fixup path must detour around the hole through
        // the second row: 4 hops, so 2*(5-2)=6 SWAPs per execution,
        // and the gate executes twice.
        assert_eq!(fixup_cost(&summary, &vmap, &g, 1.0), Some(12));
        // At MID 2 the stretched pair is back in range: no fixup.
        assert!(resolved_ok_summary(&summary, &vmap, &g, 2.0));
        assert_eq!(fixup_cost(&summary, &vmap, &g, 2.0), Some(0));
    }

    #[test]
    fn fixup_zero_iff_resolved_ok_under_random_loss() {
        // Invariant check across a random loss sequence, costed by
        // delta through one cache: the reroute cost is zero exactly
        // when the plain remap check passes, and any nonzero cost is
        // even (out-and-back symmetry).
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let grid = Grid::new(8, 8);
        let mut c = Circuit::new(6);
        for i in 0..5u32 {
            c.cnot(Qubit(i), Qubit(i + 1));
        }
        let compiled = compile(&c, &grid, &CompilerConfig::new(2.0)).unwrap();
        let summary = InteractionSummary::of(&compiled);
        let graph = InteractionGraph::cached(&grid, 2.0);
        let mut cache = FixupCache::new(&summary);
        let (mut scratch, mut shift) = (BfsScratch::new(), ShiftScratch::new());
        let used = compiled.used_sites();
        let in_use = |a: Site| used.contains(&a);
        let mut g = grid.clone();
        let mut vmap = VirtualMap::new();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..12 {
            let usable: Vec<Site> = g.usable_sites().collect();
            let victim = usable[rng.gen_range(0..usable.len())];
            g.remove_atom(victim);
            let mut moved: &[(Site, Site)] = &[];
            if in_use(vmap.address_of(victim)) {
                let Some(dir) = vmap.best_shift_direction(&g, victim, &in_use) else {
                    break;
                };
                if vmap
                    .shift_from_with(&g, victim, dir, &in_use, &mut shift)
                    .is_err()
                {
                    break;
                }
                moved = shift.changes();
            }
            match cache.cost(&summary, &vmap, moved, &graph, &g, &mut scratch) {
                Some(0) => assert!(resolved_ok_summary(&summary, &vmap, &g, 2.0)),
                Some(n) => {
                    assert!(!resolved_ok_summary(&summary, &vmap, &g, 2.0));
                    assert_eq!(n % 2, 0, "odd fixup cost {n}");
                    assert_eq!(fixup_cost(&summary, &vmap, &g, 2.0), Some(n));
                }
                None => break, // disconnected: strategy reloads
            }
        }
    }

    #[test]
    fn pairs_of_indexes_every_pair_at_both_endpoints() {
        let grid = Grid::new(10, 10);
        for benchmark in na_benchmarks::Benchmark::ALL {
            let compiled = compile(&benchmark.generate(20, 0), &grid, &CompilerConfig::new(3.0))
                .expect("compiles");
            let summary = InteractionSummary::of(&compiled);
            for site in grid.sites() {
                let expect: Vec<u32> = (0..summary.pairs().len() as u32)
                    .filter(|&p| {
                        let (a, b, _) = summary.pairs()[p as usize];
                        site == a || site == b
                    })
                    .collect();
                assert_eq!(summary.pairs_of(site), expect, "{benchmark} at {site}");
            }
        }
    }

    #[test]
    fn disconnected_pair_returns_none() {
        let grid = Grid::new(5, 1);
        let compiled = compiled_pair(&grid, 1.0);
        let summary = InteractionSummary::of(&compiled);
        let mut g = grid.clone();
        // Knock out everything except the two operand sites, leaving
        // them disconnected at MID 1.
        let used = compiled.used_sites();
        for s in g.sites().collect::<Vec<_>>() {
            if !used.contains(&s) {
                g.remove_atom(s);
            }
        }
        // Separate the operands artificially with a vmap shift onto the
        // far end — simpler: remove an operand's atom entirely.
        let vmap = VirtualMap::new();
        g.remove_atom(used[0]);
        assert!(!resolved_ok_summary(&summary, &vmap, &g, 1.0));
        assert_eq!(fixup_cost(&summary, &vmap, &g, 1.0), None);
    }
}
