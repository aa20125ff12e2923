//! The per-op reference costing: the seed implementation of the
//! post-loss checks, kept as the differential oracle for the
//! summary-based fast path (`na_loss::{resolved_ok_summary,
//! fixup_swaps_summary}`). Shared by the crate's unit tests and its
//! integration tests; not part of the public API.

#![allow(dead_code)]

use na_arch::{BfsScratch, Grid, InteractionGraph, Site, VirtualMap};
use na_core::CompiledCircuit;

/// The largest pairwise operand distance any scheduled interaction has
/// after resolving through `vmap`.
pub fn max_resolved_span(compiled: &CompiledCircuit, vmap: &VirtualMap) -> f64 {
    let mut worst: f64 = 0.0;
    let mut sites: Vec<Site> = Vec::new();
    for op in compiled.ops() {
        sites.clear();
        sites.extend(op.sites.iter().map(|&s| vmap.resolve(s)));
        for i in 0..sites.len() {
            for j in (i + 1)..sites.len() {
                worst = worst.max(sites[i].distance(sites[j]));
            }
        }
    }
    worst
}

/// `true` if every scheduled interaction, resolved through `vmap`,
/// stays within `hardware_mid` and on usable atoms.
pub fn resolved_ok(
    compiled: &CompiledCircuit,
    vmap: &VirtualMap,
    grid: &Grid,
    hardware_mid: f64,
) -> bool {
    let mut sites: Vec<Site> = Vec::new();
    for op in compiled.ops() {
        sites.clear();
        sites.extend(op.sites.iter().map(|&s| vmap.resolve(s)));
        for &s in &sites {
            if !grid.is_usable(s) {
                return false;
            }
        }
        for i in 0..sites.len() {
            for j in (i + 1)..sites.len() {
                if !sites[i].within(sites[j], hardware_mid) {
                    return false;
                }
            }
        }
    }
    true
}

/// SWAP count of the minor-reroute fixup (Fig. 9c) for the current
/// topology, per scheduled op. For every scheduled interaction whose
/// resolved operands exceed `hardware_mid`, one operand is swapped
/// along a shortest MID-hop path to within range, the gate executes,
/// and the SWAPs are reversed to restore the mapping.
///
/// Returns `None` when some required pair has no path over usable
/// atoms — the strategy must reload.
///
/// Hop distances come from the same `InteractionGraph::hop_distance`
/// the fast path uses, so this oracle checks the per-pair dedup and
/// multiplicity fold, not the distance kernel; `na_arch` holds that
/// kernel to a naive BFS over every ordered pair of random holey grids.
pub fn fixup_swaps_with(
    compiled: &CompiledCircuit,
    vmap: &VirtualMap,
    grid: &Grid,
    hardware_mid: f64,
    scratch: &mut BfsScratch,
) -> Option<u32> {
    let graph = InteractionGraph::cached(grid, hardware_mid);
    let mut sites: Vec<Site> = Vec::new();
    let mut total = 0u32;
    for op in compiled.ops() {
        sites.clear();
        sites.extend(op.sites.iter().map(|&s| vmap.resolve(s)));
        for &s in &sites {
            if !grid.is_usable(s) {
                return None;
            }
        }
        for i in 0..sites.len() {
            for j in (i + 1)..sites.len() {
                if sites[i].within(sites[j], hardware_mid) {
                    continue;
                }
                // Walk one endpoint to the penultimate node of a
                // shortest hop path (then it is within one hop — hence
                // within MID — of the other), and walk it back
                // afterwards: 2 · (hop distance − 1) SWAPs.
                let dist = graph.hop_distance(sites[i], sites[j], grid.usable_mask(), scratch)?;
                total += 2 * (dist - 1);
            }
        }
    }
    Some(total)
}
