//! The SWAP search before its candidate bound, verbatim but for a tie
//! count: it scores every candidate. `na_core::routing::best_swap_for_gate`
//! must return exactly its move, score bits included.

use na_arch::InteractionGraph;
use na_circuit::Qubit;
use na_core::routing::{swap_score, SwapMove};
use na_core::{InteractionWeights, QubitMap};

/// The unbounded scan's best SWAP. `ties` counts candidates that
/// scored exactly the running best (`ties[0]`) or within `1e-12` of it
/// but not equal (`ties[1]`), so a fuzzer can show it reached the
/// ε-tie comparator.
pub fn best_swap_reference(
    operands: &[Qubit],
    map: &QubitMap,
    graph: &InteractionGraph,
    usable: &[bool],
    weights: &InteractionWeights,
    mid: f64,
    ties: &mut [u64; 2],
) -> Option<SwapMove> {
    let mut best: Option<SwapMove> = None;
    for &u in operands {
        let su = map.site_of(u).expect("operand mapped");
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
            continue;
        }
        let su_index = graph.index_of(su).expect("mapped sites are on the grid");
        for &n in graph.neighbors(su_index) {
            if !usable[n as usize] {
                continue;
            }
            let h = graph.site_at(n as usize);
            if h.distance(st) + 1e-12 >= su.distance(st) {
                continue;
            }
            if let Some(q) = map.qubit_at(h) {
                if operands.contains(&q) {
                    continue;
                }
            }
            let score = swap_score(u, su, h, map, weights);
            let better = match best {
                None => true,
                Some(b) => {
                    if (score - b.score).abs() <= 1e-12 {
                        ties[usize::from(score != b.score)] += 1;
                    }
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
