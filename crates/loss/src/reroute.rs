//! Post-loss executability checks and SWAP fixup costing.
//!
//! After virtual remapping shifts addresses into spares, the compiled
//! schedule's interactions resolve to new physical sites. This module
//! answers two questions per topology state:
//!
//! * [`resolved_ok_summary`] — does every interaction still fit within
//!   the hardware MID (the virtual-remap go/no-go)?
//! * [`fixup_swaps_summary`] — if not, how many SWAPs does the
//!   swap-out/execute/swap-back fixup of Fig. 9c cost per shot?
//!
//! Both questions depend on the schedule only through its *distinct*
//! operand pairs: a pair scheduled twenty times costs twenty fixups
//! but needs one hop-distance query. [`InteractionSummary`] precomputes
//! that deduped pair multiset once per compiled schedule, and both
//! functions answer from it — per distinct pair instead of per
//! scheduled op — over the device's one [`InteractionGraph`] with the
//! current holes as a mask. Most out-of-range pairs are exactly two
//! hops apart, which [`InteractionGraph::hop_distance`] settles with a
//! local lens test; only the rest pay for a BFS. The per-op seed
//! costing lives on in `tests/common` as the oracle randomized
//! differential tests hold this path bit-for-bit equal to.

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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InteractionSummary {
    pairs: Vec<(Site, Site, u32)>,
    operands: Vec<Site>,
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
        InteractionSummary { pairs, operands }
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

/// SWAP count of the minor-reroute fixup (Fig. 9c) for the current
/// topology: for every scheduled interaction whose resolved operands
/// exceed `hardware_mid`, one operand is swapped along a shortest
/// MID-hop path to within range, the gate executes, and the SWAPs are
/// reversed. Answered from a precomputed [`InteractionSummary`] and a
/// hole-masked full-grid graph: one [`InteractionGraph::hop_distance`]
/// per distinct out-of-range pair (a lens test for distance 2, a BFS
/// beyond), its `2 · (hops − 1)` SWAP cost multiplied by the pair's
/// scheduled multiplicity. `usable` is the current hole pattern as a flat-index
/// mask ([`Grid::usable_mask`]), so `graph` never needs rebuilding as
/// losses accrue. These SWAPs recur every shot until the topology
/// changes again.
///
/// Returns `None` when some operand resolves to a lost atom or some
/// required pair is disconnected — the strategy must reload.
pub fn fixup_swaps_summary(
    summary: &InteractionSummary,
    vmap: &VirtualMap,
    graph: &InteractionGraph,
    usable: &[bool],
    hardware_mid: f64,
    scratch: &mut BfsScratch,
) -> Option<u32> {
    for &a in summary.operands() {
        let i = graph.index_of(vmap.resolve(a))?;
        if !usable[i] {
            return None;
        }
    }
    let mut total = 0u32;
    for &(a, b, mult) in summary.pairs() {
        let (ra, rb) = (vmap.resolve(a), vmap.resolve(b));
        if ra.within(rb, hardware_mid) {
            continue;
        }
        let dist = graph.hop_distance(ra, rb, usable, scratch)?;
        total += mult * 2 * (dist - 1);
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracles::{fixup_swaps_with, max_resolved_span, resolved_ok};
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

    #[test]
    fn identity_map_is_ok() {
        let grid = Grid::new(6, 6);
        let compiled = compiled_pair(&grid, 2.0);
        let vmap = VirtualMap::new();
        assert!(resolved_ok(&compiled, &vmap, &grid, 2.0));
        assert_eq!(
            fixup_swaps_with(&compiled, &vmap, &grid, 2.0, &mut BfsScratch::new()),
            Some(0)
        );
        assert!(max_resolved_span(&compiled, &vmap) <= 2.0);
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

        let span = max_resolved_span(&compiled, &vmap);
        assert_eq!(span, 2.0);
        assert!(!resolved_ok(&compiled, &vmap, &g, 1.0));
        // At MID 1 the fixup path must detour around the hole through
        // the second row: 4 hops, so 2*(5-2)=6 SWAPs per execution,
        // and the gate executes twice.
        let swaps = fixup_swaps_with(&compiled, &vmap, &g, 1.0, &mut BfsScratch::new()).unwrap();
        assert_eq!(swaps, 12);
        // At MID 2 the stretched pair is back in range: no fixup.
        assert!(resolved_ok(&compiled, &vmap, &g, 2.0));
        assert_eq!(
            fixup_swaps_with(&compiled, &vmap, &g, 2.0, &mut BfsScratch::new()),
            Some(0)
        );
    }

    #[test]
    fn fixup_zero_iff_resolved_ok_under_random_loss() {
        // Invariant check across a random loss sequence: the reroute
        // cost is zero exactly when the plain remap check passes, and
        // any nonzero cost is even (out-and-back symmetry).
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let grid = Grid::new(8, 8);
        let mut c = Circuit::new(6);
        for i in 0..5u32 {
            c.cnot(Qubit(i), Qubit(i + 1));
        }
        let compiled = compile(&c, &grid, &CompilerConfig::new(2.0)).unwrap();
        let used = compiled.used_sites();
        let mut g = grid.clone();
        let mut vmap = VirtualMap::new();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..12 {
            let usable: Vec<Site> = g.usable_sites().collect();
            let victim = usable[rng.gen_range(0..usable.len())];
            g.remove_atom(victim);
            let used2 = used.to_vec();
            let in_use = move |a: Site| used2.contains(&a);
            if in_use(vmap.address_of(victim)) {
                let Some(dir) = vmap.best_shift_direction(&g, victim, &in_use) else {
                    break;
                };
                if vmap
                    .shift_from_with(&g, victim, dir, &in_use, &mut ShiftScratch::new())
                    .is_err()
                {
                    break;
                }
            }
            match fixup_swaps_with(&compiled, &vmap, &g, 2.0, &mut BfsScratch::new()) {
                Some(0) => assert!(resolved_ok(&compiled, &vmap, &g, 2.0)),
                Some(n) => {
                    assert!(!resolved_ok(&compiled, &vmap, &g, 2.0));
                    assert_eq!(n % 2, 0, "odd fixup cost {n}");
                }
                None => break, // disconnected: strategy reloads
            }
        }
    }

    #[test]
    fn disconnected_pair_returns_none() {
        let grid = Grid::new(5, 1);
        let compiled = compiled_pair(&grid, 1.0);
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
        assert!(!resolved_ok(&compiled, &vmap, &g, 1.0));
        assert_eq!(
            fixup_swaps_with(&compiled, &vmap, &g, 1.0, &mut BfsScratch::new()),
            None
        );
    }
}
