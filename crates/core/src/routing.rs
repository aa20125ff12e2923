//! SWAP selection for long-distance frontier gates.
//!
//! When a frontier gate's operands are not all pairwise within the MID,
//! the router moves qubits together with SWAPs. Paper §III-A scores a
//! candidate SWAP of qubit `u` into site `h` by
//!
//! ```text
//! s(u, h) = Σ_v [d(φ(u), φ(v)) − d(h, φ(v))] · w(u, v)
//!         + Σ_v [d(h, φ(v)) − d(φ(u), φ(v))] · w(φ⁻¹(h), v)
//! ```
//!
//! — the progress `u` makes toward its weighted future partners, minus
//! the damage done to the displaced occupant of `h` — subject to `h`
//! being *strictly closer* to `u`'s most immediate interaction, which
//! guarantees forward progress.
//!
//! A deterministic BFS fallback ([`InteractionGraph::hop_toward`])
//! guarantees global progress even when no scored candidate exists
//! (e.g. routing around device corners), so compilation always
//! terminates on connected topologies.
//!
//! # Bounding the scan
//!
//! Each term of `s(u, h)` is bounded by the triangle inequality:
//! `|d(φ(u), φ(v)) − d(h, φ(v))| ≤ d(φ(u), h)`. Both sums run over
//! subsets of the partners of `u` and of the occupant `o = φ⁻¹(h)`,
//! and weights are non-negative, so
//!
//! ```text
//! s(u, h) ≤ d(φ(u), h) · (W(u) + W(o)),   W(q) = Σ_v w(q, v)
//! ```
//!
//! with `W(o) = 0` for an empty `h`. The totals `W` come with the
//! weights ([`InteractionWeights::total`]), so the bound costs one
//! distance and one multiply — far less than the score's walk over
//! two partner lists. [`best_swap_for_gate`] skips a candidate whose
//! bound cannot reach its running best.

use crate::{InteractionWeights, QubitMap};
use na_arch::{Grid, InteractionGraph, Site};
use na_circuit::Qubit;

/// A candidate SWAP: exchange the occupants of `from` and `to`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapMove {
    /// Site of the qubit being moved.
    pub from: Site,
    /// Destination site (its occupant, if any, is displaced to `from`).
    pub to: Site,
    /// The lookahead score of this move (higher is better).
    pub score: f64,
}

/// `true` if every operand pair is within the MID (gate executable as
/// far as distance is concerned).
pub fn all_within_mid(operands: &[Qubit], map: &QubitMap, mid: f64) -> bool {
    for i in 0..operands.len() {
        for j in (i + 1)..operands.len() {
            let si = map.site_of(operands[i]).expect("operand mapped");
            let sj = map.site_of(operands[j]).expect("operand mapped");
            if !si.within(sj, mid) {
                return false;
            }
        }
    }
    true
}

/// Work counts of [`best_swap_for_gate`] calls: candidates whose
/// score was computed, and candidates the bound skipped. Their sum is
/// what a full scan would have scored.
#[derive(Debug, Default)]
pub struct CandidateCounts {
    /// Candidates scored with [`swap_score`].
    pub scored: u64,
    /// Candidates skipped because their bound cannot beat the best.
    pub pruned: u64,
}

/// The best-scoring SWAP that moves one operand of the gate strictly
/// closer to its farthest co-operand. Returns `None` when no usable
/// candidate site satisfies the strictly-closer constraint (the caller
/// falls back to [`InteractionGraph::hop_toward`]). Adds its work to
/// `counts`.
///
/// Candidate sites come from the precomputed [`InteractionGraph`]
/// (built at the same MID) minus the holes in `usable`
/// ([`Grid::usable_mask`]), so the scan is a flat slice walk with no
/// per-call allocation.
///
/// Candidates are visited operand by operand, neighbor by neighbor,
/// and one beats the running best `b` when it scores more than
/// `b + 1e-12`, or within `1e-12` of it at a smaller `(from, to)`.
/// Once `b` exists, a candidate whose bound `ub` (module docs)
/// satisfies `ub · (1 + 1e-9) + 1e-9 < b − 1e-12` is not scored. The
/// slack covers the f64 rounding of the score and the bound on grids
/// of up to 4,096 sites, so such a candidate's computed score is below
/// `b − 1e-12`: neither better nor an ε-tie. Skipping it leaves the
/// running best, and so the result, exactly as the full scan has it.
/// The bound is tested only against the running best of this scan
/// order: the ε-tie comparator is not transitive, so a best seeded
/// from a candidate scored out of order could change the winner.
pub fn best_swap_for_gate(
    operands: &[Qubit],
    map: &QubitMap,
    graph: &InteractionGraph,
    usable: &[bool],
    weights: &InteractionWeights,
    mid: f64,
    counts: &mut CandidateCounts,
) -> Option<SwapMove> {
    let mut best: Option<SwapMove> = None;
    for &u in operands {
        let su = map.site_of(u).expect("operand mapped");
        // Most immediate interaction for u: the farthest co-operand.
        let target = operands
            .iter()
            .filter(|&&v| v != u)
            .max_by(|&&a, &&b| {
                let da = su.distance(map.site_of(a).expect("mapped"));
                let db = su.distance(map.site_of(b).expect("mapped"));
                da.partial_cmp(&db).expect("finite distances")
            })
            .copied()?;
        let st = map.site_of(target).expect("operand mapped");
        if su.within(st, mid) && operands.len() == 2 {
            continue; // this pair is already satisfied
        }
        let total_u = weights.total(u);
        let su_index = graph.index_of(su).expect("mapped sites are on the grid");
        for &n in graph.neighbors(su_index) {
            if !usable[n as usize] {
                continue;
            }
            let h = graph.site_at(n as usize);
            // Strictly-closer constraint toward the immediate partner.
            if h.distance(st) + 1e-12 >= su.distance(st) {
                continue;
            }
            // Never displace a co-operand of the same gate; that undoes
            // progress on another pair.
            let occupant = map.qubit_at(h);
            if occupant.is_some_and(|q| operands.contains(&q)) {
                continue;
            }
            if let Some(b) = best {
                let total = total_u + occupant.map_or(0.0, |q| weights.total(q));
                let bound = su.distance(h) * total;
                if bound * (1.0 + 1e-9) + 1e-9 < b.score - 1e-12 {
                    counts.pruned += 1;
                    continue;
                }
            }
            counts.scored += 1;
            let score = swap_score(u, su, h, map, weights);
            let better = match best {
                None => true,
                Some(b) => {
                    score > b.score + 1e-12
                        || ((score - b.score).abs() <= 1e-12 && (su, h) < (b.from, b.to))
                }
            };
            if better {
                best = Some(SwapMove {
                    from: su,
                    to: h,
                    score,
                });
            }
        }
    }
    best
}

/// The paper's dual-term SWAP score (see module docs).
pub fn swap_score(
    u: Qubit,
    su: Site,
    h: Site,
    map: &QubitMap,
    weights: &InteractionWeights,
) -> f64 {
    let mut score = 0.0;
    for &(v, w) in weights.partners(u) {
        if let Some(sv) = map.site_of(v) {
            if sv == h {
                // v itself is displaced to su by this swap; its term is
                // covered below.
                continue;
            }
            score += (su.distance(sv) - h.distance(sv)) * w;
        }
    }
    if let Some(displaced) = map.qubit_at(h) {
        for &(v, w) in weights.partners(displaced) {
            if v == u {
                continue;
            }
            if let Some(sv) = map.site_of(v) {
                score += (h.distance(sv) - su.distance(sv)) * w;
            }
        }
    }
    score
}

/// The usable site minimizing the maximum Euclidean distance to the
/// operand sites — where a gate's operands should congregate. The
/// scheduler's fallback path calls this with its reusable site buffer.
///
/// # Panics
///
/// Panics if the grid has no usable site.
pub fn meeting_point_of_sites(sites: &[Site], grid: &Grid) -> Site {
    let mut best: Option<(f64, Site)> = None;
    for m in grid.usable_sites() {
        let worst = sites.iter().map(|s| s.distance(m)).fold(0.0f64, f64::max);
        if best.is_none_or(|(bw, bs)| worst + 1e-12 < bw || ((worst - bw).abs() <= 1e-12 && m < bs))
        {
            best = Some((worst, m));
        }
    }
    best.expect("grid has a usable site").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn line_map(positions: &[(i32, i32)]) -> QubitMap {
        let mut m = QubitMap::new(positions.len() as u32);
        for (i, &(x, y)) in positions.iter().enumerate() {
            m.assign(Qubit(i as u32), Site::new(x, y));
        }
        m
    }

    fn weights_pair(n: u32, u: Qubit, v: Qubit) -> InteractionWeights {
        InteractionWeights::from_layered_gates(n, [(&[u, v][..], 0usize)], 20)
    }

    #[test]
    fn all_within_mid_checks_every_pair() {
        let map = line_map(&[(0, 0), (1, 0), (2, 0)]);
        let ops = [Qubit(0), Qubit(1), Qubit(2)];
        assert!(all_within_mid(&ops, &map, 2.0));
        assert!(!all_within_mid(&ops, &map, 1.0)); // (0,2) at distance 2
    }

    #[test]
    fn best_swap_moves_toward_partner() {
        let grid = Grid::new(7, 1);
        let graph = InteractionGraph::cached(&grid, 2.0);
        let map = line_map(&[(0, 0), (6, 0)]);
        let w = weights_pair(2, Qubit(0), Qubit(1));
        let mv = best_swap_for_gate(
            &[Qubit(0), Qubit(1)],
            &map,
            &graph,
            grid.usable_mask(),
            &w,
            2.0,
            &mut CandidateCounts::default(),
        )
        .unwrap();
        // Either endpoint can move, but the move must make strict progress.
        let gain_from = mv.from.distance(if mv.from.x == 0 {
            Site::new(6, 0)
        } else {
            Site::new(0, 0)
        });
        let gain_to = mv.to.distance(if mv.from.x == 0 {
            Site::new(6, 0)
        } else {
            Site::new(0, 0)
        });
        assert!(gain_to < gain_from, "swap must shrink the gap: {mv:?}");
        assert!(mv.score > 0.0);
    }

    #[test]
    fn best_swap_none_when_already_within() {
        let grid = Grid::new(7, 1);
        let graph = InteractionGraph::cached(&grid, 2.0);
        let map = line_map(&[(0, 0), (1, 0)]);
        let w = weights_pair(2, Qubit(0), Qubit(1));
        assert_eq!(
            best_swap_for_gate(
                &[Qubit(0), Qubit(1)],
                &map,
                &graph,
                grid.usable_mask(),
                &w,
                2.0,
                &mut CandidateCounts::default(),
            ),
            None
        );
    }

    #[test]
    fn best_swap_never_displaces_co_operand() {
        // Three operands in a row; moving q0 onto q1's site is banned.
        let grid = Grid::new(5, 1);
        let graph = InteractionGraph::cached(&grid, 1.0);
        let map = line_map(&[(0, 0), (1, 0), (4, 0)]);
        let w = InteractionWeights::from_layered_gates(
            3,
            [(&[Qubit(0), Qubit(1), Qubit(2)][..], 0usize)],
            20,
        );
        if let Some(mv) = best_swap_for_gate(
            &[Qubit(0), Qubit(1), Qubit(2)],
            &map,
            &graph,
            grid.usable_mask(),
            &w,
            1.0,
            &mut CandidateCounts::default(),
        ) {
            let displaced = map.qubit_at(mv.to);
            assert!(
                displaced.is_none_or(|q| q.0 > 2 || mv.to == Site::new(4, 0)),
                "co-operand displaced by {mv:?}"
            );
        }
    }

    #[test]
    fn swap_score_rewards_progress_and_penalizes_damage() {
        // u at (0,0) wants v at (4,0); a bystander b at (1,0) wants
        // w at (0,1) (i.e. b prefers staying put).
        let mut map = QubitMap::new(4);
        map.assign(Qubit(0), Site::new(0, 0)); // u
        map.assign(Qubit(1), Site::new(4, 0)); // v
        map.assign(Qubit(2), Site::new(1, 0)); // bystander b
        map.assign(Qubit(3), Site::new(0, 1)); // b's partner
        let w = InteractionWeights::from_layered_gates(
            4,
            [
                (&[Qubit(0), Qubit(1)][..], 0usize),
                (&[Qubit(2), Qubit(3)][..], 0usize),
            ],
            20,
        );
        let score = swap_score(Qubit(0), Site::new(0, 0), Site::new(1, 0), &map, &w);
        // u gains 1.0 toward v; b is pushed from distance sqrt(2) to 1
        // relative to its partner — actually a small gain for b too.
        assert!(score > 0.0);

        // Moving u away from v scores negative.
        let bad = swap_score(Qubit(0), Site::new(0, 0), Site::new(0, 1), &map, &w);
        assert!(bad < score);
    }

    #[test]
    fn meeting_point_centers_operands() {
        let grid = Grid::new(9, 9);
        let m = meeting_point_of_sites(&[Site::new(0, 4), Site::new(8, 4)], &grid);
        assert_eq!(m, Site::new(4, 4));
    }

    #[test]
    fn meeting_point_avoids_holes() {
        let mut grid = Grid::new(9, 1);
        grid.remove_atom(Site::new(4, 0));
        let m = meeting_point_of_sites(&[Site::new(0, 0), Site::new(8, 0)], &grid);
        assert!(grid.is_usable(m));
        assert!(m == Site::new(3, 0) || m == Site::new(5, 0));
    }

    #[test]
    fn best_swap_never_targets_a_hole() {
        // q0 at (0,3) wants q1 at (6,3) at MID 2. Every site that would
        // bring either qubit strictly closer but (1,4) is a hole, among
        // them the best-scoring (2,3); the move must land on (1,4).
        let mut grid = Grid::new(7, 7);
        let graph = InteractionGraph::cached(&grid, 2.0);
        let map = line_map(&[(0, 3), (6, 3)]);
        let w = weights_pair(2, Qubit(0), Qubit(1));
        for s in [(1, 2), (1, 3), (2, 3), (5, 2), (5, 3), (5, 4), (4, 3)] {
            grid.remove_atom(Site::new(s.0, s.1));
        }
        let mv = best_swap_for_gate(
            &[Qubit(0), Qubit(1)],
            &map,
            &graph,
            grid.usable_mask(),
            &w,
            2.0,
            &mut CandidateCounts::default(),
        )
        .expect("a usable site is strictly closer");
        assert_eq!((mv.from, mv.to), (Site::new(0, 3), Site::new(1, 4)));
        // On a random holey grid no candidate is ever a hole either.
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let mut g = Grid::new(7, 7);
            for _ in 0..15 {
                let s = Site::new(rng.gen_range(0..7), rng.gen_range(0..7));
                if map.qubit_at(s).is_none() {
                    g.remove_atom(s);
                }
            }
            let graph = InteractionGraph::cached(&g, 2.0);
            if let Some(mv) = best_swap_for_gate(
                &[Qubit(0), Qubit(1)],
                &map,
                &graph,
                g.usable_mask(),
                &w,
                2.0,
                &mut CandidateCounts::default(),
            ) {
                assert!(g.is_usable(mv.to), "swap into hole {mv:?}\n{g}");
            }
        }
    }
}
