//! The lookahead interaction-weight function.
//!
//! Mapping and routing decisions are driven by the weighted interaction
//! graph of paper §III-A: nodes are program qubits and the edge weight
//! between `u` and `v` is
//!
//! ```text
//! w(u, v) = Σ_{ℓ ≥ ℓc} e^{-|ℓc - ℓ|}
//! ```
//!
//! summed over the remaining DAG layers in which `u` and `v` share a
//! gate (multiqubit gates contribute to every operand pair). Gates far
//! in the future matter exponentially less, and the sum is cut off at
//! `lookahead_depth` layers. The scheduler's rebuilds see only that
//! window: `Frontier::window_into` layers the gates within the depth
//! of the frontier and nothing beyond it.

use na_circuit::Qubit;

/// Reusable working memory for [`InteractionWeights`] rebuilds: the
/// pair contributions bucketed by their smaller qubit, and the decay
/// table `e^{-ℓ}`.
#[derive(Debug, Clone, Default)]
pub struct WeightScratch {
    /// `contribs[u]` holds `(v, gate index, e^{-layer})` for every pair
    /// `u < v` a gate in the window contributes.
    contribs: Vec<Vec<(u32, usize, f64)>>,
    /// `decay[ℓ] = e^{-ℓ}` for every layer seen so far.
    decay: Vec<f64>,
}

impl WeightScratch {
    /// Fresh scratch; grows to the window's pair count on first use.
    pub fn new() -> Self {
        WeightScratch::default()
    }

    /// `e^{-layer}`, tabled up to the deepest layer seen: the same
    /// bits as computing it each time. Rebuilds skip layers beyond
    /// `lookahead_depth`, so the table never outgrows the window.
    #[inline]
    fn decay(&mut self, layer: usize) -> f64 {
        while self.decay.len() <= layer {
            self.decay.push((-(self.decay.len() as f64)).exp());
        }
        self.decay[layer]
    }
}

/// The weighted interaction graph over program qubits.
///
/// Built either from a whole circuit (initial mapping, `ℓc = 0`) or
/// from the gates in the scheduler's lookahead window
/// (`Frontier::window_into`).
#[derive(Debug, Clone, Default)]
pub struct InteractionWeights {
    /// Symmetric adjacency: `adj[q]` lists `(partner, weight)` pairs.
    adj: Vec<Vec<(Qubit, f64)>>,
    /// `totals[q] = Σ_v w(q, v)`, folded in partner order.
    totals: Vec<f64>,
}

impl InteractionWeights {
    /// An empty graph over `num_qubits` qubits (no interactions yet);
    /// fill it with [`InteractionWeights::rebuild`].
    pub fn empty(num_qubits: u32) -> Self {
        InteractionWeights {
            adj: vec![Vec::new(); num_qubits as usize],
            totals: vec![0.0; num_qubits as usize],
        }
    }

    /// Resizes the graph to `num_qubits` qubits, keeping the adjacency
    /// buffers it has; [`InteractionWeights::rebuild`] then refills it.
    pub(crate) fn reset(&mut self, num_qubits: u32) {
        self.adj.resize_with(num_qubits as usize, Vec::new);
        self.totals.resize(num_qubits as usize, 0.0);
    }

    /// Builds weights from per-gate relative layers.
    ///
    /// `gates` yields `(operands, relative_layer)` for every pending
    /// gate in gate order; gates beyond `lookahead_depth` layers are
    /// ignored.
    #[cfg(test)]
    pub(crate) fn from_layered_gates<'a, I>(
        num_qubits: u32,
        gates: I,
        lookahead_depth: usize,
    ) -> Self
    where
        I: IntoIterator<Item = (&'a [Qubit], usize)>,
    {
        let mut weights = InteractionWeights::empty(num_qubits);
        let gates = gates
            .into_iter()
            .enumerate()
            .map(|(i, (operands, layer))| (i, operands, layer));
        weights.rebuild(gates, lookahead_depth, &mut WeightScratch::new());
        weights
    }

    /// Rebuilds the graph in place from `(gate index, operands,
    /// relative layer)` items, in any order, reusing this graph's
    /// adjacency buffers and `scratch`. The scheduler calls this every
    /// time completions shift the frontier, so the rebuild allocates
    /// nothing once buffers have grown. Gates beyond `lookahead_depth`
    /// layers are ignored.
    ///
    /// Each pair's weight sums its contributions in gate-index order,
    /// so the value is bitwise-independent of the item order: the
    /// digests pin this f64 fold order.
    pub fn rebuild<'a, I>(&mut self, gates: I, lookahead_depth: usize, scratch: &mut WeightScratch)
    where
        I: IntoIterator<Item = (usize, &'a [Qubit], usize)>,
    {
        for list in &mut self.adj {
            list.clear();
        }
        self.totals.fill(0.0);
        scratch.contribs.resize_with(self.adj.len(), Vec::new);
        for list in &mut scratch.contribs {
            list.clear();
        }
        for (gate, operands, layer) in gates {
            if layer > lookahead_depth {
                continue;
            }
            let w = scratch.decay(layer);
            for i in 0..operands.len() {
                for j in (i + 1)..operands.len() {
                    let (u, v) = if operands[i] < operands[j] {
                        (operands[i], operands[j])
                    } else {
                        (operands[j], operands[i])
                    };
                    scratch.contribs[u.index()].push((v.0, gate, w));
                }
            }
        }
        // Sorting a bucket by `(v, gate)` puts each pair's contributions
        // in gate order. Entries that tie on both carry equal weights,
        // so the unstable sort cannot change a sum. Visiting buckets in
        // qubit order leaves every adjacency list in partner order.
        // Many small sorts beat one sort of the whole list by packed
        // pair: about 16% more compile_sweep units/s end to end. A
        // qubit's partners arrive in ascending order here too (smaller
        // ones from earlier buckets, then its own), so its total folds
        // the same terms in the same order as its adjacency list.
        for (u, list) in scratch.contribs.iter_mut().enumerate() {
            list.sort_unstable_by_key(|&(v, gate, _)| (v, gate));
            let mut total = self.totals[u];
            for pair in list.chunk_by(|a, b| a.0 == b.0) {
                let sum = pair.iter().fold(0.0f64, |sum, &(_, _, w)| sum + w);
                let v = pair[0].0;
                self.adj[u].push((Qubit(v), sum));
                self.adj[v as usize].push((Qubit(u as u32), sum));
                total += sum;
                self.totals[v as usize] += sum;
            }
            self.totals[u] = total;
        }
    }

    /// The weight between two qubits (0 if they never interact in the
    /// window).
    pub fn weight(&self, u: Qubit, v: Qubit) -> f64 {
        self.adj
            .get(u.index())
            .map(|l| {
                l.iter()
                    .find(|(q, _)| *q == v)
                    .map(|(_, w)| *w)
                    .unwrap_or(0.0)
            })
            .unwrap_or(0.0)
    }

    /// All weighted partners of `u`, in ascending qubit order.
    pub fn partners(&self, u: Qubit) -> &[(Qubit, f64)] {
        self.adj.get(u.index()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total interaction weight of `u`, `Σ_v w(u, v)`: bit for bit the
    /// left fold of [`InteractionWeights::partners`]. The router's
    /// candidate bound reads it (see [`crate::routing`]).
    #[inline]
    pub fn total(&self, u: Qubit) -> f64 {
        self.totals.get(u.index()).copied().unwrap_or(0.0)
    }

    /// Total interaction weight of `u` against a set of already-placed
    /// qubits (the placement-order key of the initial mapper).
    pub fn weight_to_mapped(&self, u: Qubit, is_mapped: impl Fn(Qubit) -> bool) -> f64 {
        self.partners(u)
            .iter()
            .filter(|(v, _)| is_mapped(*v))
            .map(|(_, w)| w)
            .sum()
    }

    /// The heaviest interacting pair, breaking ties toward smaller
    /// qubit indices; `None` if nothing interacts.
    pub fn heaviest_pair(&self) -> Option<(Qubit, Qubit)> {
        let mut best: Option<((Qubit, Qubit), f64)> = None;
        for (i, list) in self.adj.iter().enumerate() {
            let u = Qubit(i as u32);
            for &(v, w) in list {
                if u < v {
                    let better = match best {
                        None => true,
                        Some((_, bw)) => w > bw + 1e-15,
                    };
                    if better {
                        best = Some(((u, v), w));
                    }
                }
            }
        }
        best.map(|(p, _)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights_of(gates: &[(Vec<Qubit>, usize)]) -> InteractionWeights {
        let n = gates
            .iter()
            .flat_map(|(ops, _)| ops.iter())
            .map(|q| q.0 + 1)
            .max()
            .unwrap_or(0);
        InteractionWeights::from_layered_gates(
            n,
            gates.iter().map(|(ops, l)| (ops.as_slice(), *l)),
            20,
        )
    }

    #[test]
    fn single_gate_at_frontier_weighs_one() {
        let w = weights_of(&[(vec![Qubit(0), Qubit(1)], 0)]);
        assert!((w.weight(Qubit(0), Qubit(1)) - 1.0).abs() < 1e-12);
        assert!((w.weight(Qubit(1), Qubit(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deeper_gates_decay_exponentially() {
        let w = weights_of(&[(vec![Qubit(0), Qubit(1)], 0), (vec![Qubit(0), Qubit(2)], 3)]);
        let near = w.weight(Qubit(0), Qubit(1));
        let far = w.weight(Qubit(0), Qubit(2));
        assert!((far - (-3.0f64).exp()).abs() < 1e-12);
        assert!(near > far);
    }

    #[test]
    fn repeated_interactions_accumulate() {
        let w = weights_of(&[(vec![Qubit(0), Qubit(1)], 0), (vec![Qubit(0), Qubit(1)], 1)]);
        let expected = 1.0 + (-1.0f64).exp();
        assert!((w.weight(Qubit(0), Qubit(1)) - expected).abs() < 1e-12);
    }

    #[test]
    fn multiqubit_gates_weight_all_pairs() {
        let w = weights_of(&[(vec![Qubit(0), Qubit(1), Qubit(2)], 0)]);
        for (u, v) in [(0, 1), (0, 2), (1, 2)] {
            assert!((w.weight(Qubit(u), Qubit(v)) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn lookahead_window_truncates() {
        let w =
            InteractionWeights::from_layered_gates(2, [(&[Qubit(0), Qubit(1)][..], 10usize)], 5);
        assert_eq!(w.weight(Qubit(0), Qubit(1)), 0.0);
        assert!(w.heaviest_pair().is_none());
    }

    #[test]
    fn heaviest_pair_picks_max() {
        let w = weights_of(&[(vec![Qubit(0), Qubit(1)], 2), (vec![Qubit(2), Qubit(3)], 0)]);
        assert_eq!(w.heaviest_pair(), Some((Qubit(2), Qubit(3))));
    }

    #[test]
    fn weight_to_mapped_filters() {
        let w = weights_of(&[(vec![Qubit(0), Qubit(1)], 0), (vec![Qubit(0), Qubit(2)], 0)]);
        let only_q1 = w.weight_to_mapped(Qubit(0), |q| q == Qubit(1));
        assert!((only_q1 - 1.0).abs() < 1e-12);
        let both = w.weight_to_mapped(Qubit(0), |_| true);
        assert!((both - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rebuild_reuses_buffers_and_matches_fresh_build() {
        let gates_a = [
            (vec![Qubit(0), Qubit(1)], 0usize),
            (vec![Qubit(1), Qubit(2)], 1),
        ];
        let gates_b = [(vec![Qubit(0), Qubit(2)], 0usize)];
        let mut scratch = WeightScratch::new();
        let mut w = InteractionWeights::empty(3);
        for gates in [&gates_a[..], &gates_b[..], &gates_a[..]] {
            // Reversed item order: the fold is by gate index anyway.
            w.rebuild(
                gates
                    .iter()
                    .enumerate()
                    .rev()
                    .map(|(i, (q, l))| (i, q.as_slice(), *l)),
                20,
                &mut scratch,
            );
            let fresh = InteractionWeights::from_layered_gates(
                3,
                gates.iter().map(|(q, l)| (q.as_slice(), *l)),
                20,
            );
            for u in 0..3u32 {
                assert_eq!(w.partners(Qubit(u)), fresh.partners(Qubit(u)));
            }
        }
    }

    #[test]
    fn rebuild_folds_each_pair_in_gate_order_whatever_the_item_order() {
        // Layers 0, 1, 3 on one pair: an f64 sum whose bits depend on
        // the order of the terms.
        let pair = [Qubit(0), Qubit(1)];
        let layers = [0usize, 1, 3];
        let terms = layers.map(|l| (-(l as f64)).exp());
        let in_gate_order = terms.iter().fold(0.0f64, |s, w| s + w);
        let reversed = terms.iter().rev().fold(0.0f64, |s, w| s + w);
        assert_ne!(in_gate_order.to_bits(), reversed.to_bits());

        let mut w = InteractionWeights::empty(2);
        let items = [(2, &pair[..], 3), (0, &pair[..], 0), (1, &pair[..], 1)];
        w.rebuild(items, 20, &mut WeightScratch::new());
        assert_eq!(
            w.weight(Qubit(0), Qubit(1)).to_bits(),
            in_gate_order.to_bits()
        );
        assert_eq!(
            w.weight(Qubit(1), Qubit(0)).to_bits(),
            in_gate_order.to_bits()
        );
    }

    #[test]
    fn loners_have_no_partners() {
        let w =
            InteractionWeights::from_layered_gates(4, [(&[Qubit(1), Qubit(3)][..], 0usize)], 20);
        let with_partners: Vec<u32> = (0..4)
            .filter(|&i| !w.partners(Qubit(i)).is_empty())
            .collect();
        assert_eq!(with_partners, vec![1, 3]);
    }
}
