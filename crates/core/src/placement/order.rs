//! The order placement maps qubits in, computed once per program.
//!
//! Which qubit the placer maps next depends only on the lookahead
//! weights and on which qubits it has already mapped — never on the
//! grid or on the sites they landed on. So the whole order, and where
//! each step looks for its site, is a function of the weights alone:
//! [`Program`](crate::Program) builds it next to its time-zero weights,
//! and every compile of the program, on any hole pattern, walks it.

use crate::InteractionWeights;
use na_circuit::Qubit;

/// Where one placement step looks for its site.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Anchor {
    /// The free site nearest the device center: the first qubit of the
    /// seed pair, a component seed (no partner placed before it), and
    /// every qubit with no interactions at all.
    Center,
    /// The free site nearest the site the previous step took: the
    /// second qubit of the seed pair.
    Previous,
    /// The free site minimizing the placement score against the
    /// partners placed before it.
    Partners,
}

/// Every program qubit in placement order, each with its [`Anchor`].
#[derive(Debug)]
pub(crate) struct PlacementOrder {
    steps: Vec<(Qubit, Anchor)>,
}

impl PlacementOrder {
    /// The order of paper §III-A over `num_qubits` qubits: the heaviest
    /// pair first, then repeatedly the unplaced qubit with the greatest
    /// weight to the placed set (or, when none touches it, the heaviest
    /// remaining endpoint, which seeds a new component), and last the
    /// qubits that interact with nothing, in ascending order.
    ///
    /// Weight-to-placed totals are cached per qubit and re-summed — by
    /// the exact summation the seed placer ran, so ordering ties break
    /// identically — only when one of the qubit's partners was placed
    /// since they were last computed.
    pub(crate) fn of(num_qubits: u32, weights: &InteractionWeights) -> Self {
        let n = num_qubits as usize;
        let mut order = Builder {
            steps: Vec::with_capacity(n),
            placed: vec![false; n],
            unplaced: (0..num_qubits).collect(),
            w2p: vec![0.0; n],
            dirty: vec![true; n],
        };
        if let Some((u0, v0)) = weights.heaviest_pair() {
            order.place(weights, u0, Anchor::Center);
            order.place(weights, v0, Anchor::Previous);
        }
        while let Some(u) = order.next_qubit(weights) {
            let has_placed_partner = weights
                .partners(u)
                .iter()
                .any(|&(v, _)| order.placed[v.index()]);
            let anchor = if has_placed_partner {
                Anchor::Partners
            } else {
                Anchor::Center
            };
            order.place(weights, u, anchor);
        }
        while let Some(&i) = order.unplaced.first() {
            order.place(weights, Qubit(i), Anchor::Center);
        }
        PlacementOrder { steps: order.steps }
    }

    /// The steps, in placement order.
    pub(crate) fn steps(&self) -> &[(Qubit, Anchor)] {
        &self.steps
    }
}

/// The working state of [`PlacementOrder::of`].
struct Builder {
    steps: Vec<(Qubit, Anchor)>,
    placed: Vec<bool>,
    /// Unplaced qubit indices, ascending.
    unplaced: Vec<u32>,
    /// Cached weight to the placed set per qubit; valid where `!dirty`.
    w2p: Vec<f64>,
    /// Qubits whose cached weight is stale (a partner was placed since
    /// it was computed).
    dirty: Vec<bool>,
}

impl Builder {
    fn place(&mut self, weights: &InteractionWeights, q: Qubit, anchor: Anchor) {
        self.steps.push((q, anchor));
        self.placed[q.index()] = true;
        let i = self
            .unplaced
            .binary_search(&q.0)
            .expect("placed qubit must be unplaced");
        self.unplaced.remove(i);
        for &(p, _) in weights.partners(q) {
            if !self.placed[p.index()] {
                self.dirty[p.index()] = true;
            }
        }
    }

    /// The unplaced qubit with the greatest weight to the placed set;
    /// failing that, the heaviest unplaced-to-unplaced endpoint, so
    /// disconnected interaction components are still seeded by weight.
    fn next_qubit(&mut self, weights: &InteractionWeights) -> Option<Qubit> {
        let mut best: Option<(f64, Qubit)> = None;
        for &i in &self.unplaced {
            let q = Qubit(i);
            if self.dirty[i as usize] {
                self.w2p[i as usize] = weights.weight_to_mapped(q, |v| self.placed[v.index()]);
                self.dirty[i as usize] = false;
            }
            let w = self.w2p[i as usize];
            if w > 0.0 && best.is_none_or(|(bw, _)| w > bw + 1e-15) {
                best = Some((w, q));
            }
        }
        if best.is_none() {
            // No unplaced qubit touches the placed set; seed the
            // heaviest remaining component instead (once per extra
            // component).
            for &i in &self.unplaced {
                let q = Qubit(i);
                let w: f64 = weights
                    .partners(q)
                    .iter()
                    .filter(|(v, _)| !self.placed[v.index()])
                    .map(|(_, w)| w)
                    .sum();
                if w > 0.0 && best.is_none_or(|(bw, _)| w > bw + 1e-15) {
                    best = Some((w, q));
                }
            }
        }
        best.map(|(_, q)| q)
    }
}
