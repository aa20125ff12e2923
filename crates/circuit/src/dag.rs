//! Data-dependency DAG and frontier traversal.
//!
//! The compiler consumes circuits through this view: gates are nodes,
//! and a gate depends on the previous gate touching each of its
//! operands. [`CircuitDag::layers`] gives the ASAP layering used by the
//! paper's lookahead weight `w(u,v) = Σ_{ℓ≥ℓc} e^{-|ℓc-ℓ|}`, and
//! [`Frontier`] is the mutable cursor the scheduler advances gate by
//! gate. [`Frontier::window_into`] layers only the gates within the
//! lookahead depth of that cursor.

use crate::{Circuit, Qubit};
use std::collections::HashMap;

/// Index of a gate within its circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub usize);

impl GateId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// The data-dependency DAG of a [`Circuit`].
///
/// # Example
///
/// ```
/// use na_circuit::{Circuit, Qubit};
///
/// let mut c = Circuit::new(2);
/// c.h(Qubit(0));
/// c.h(Qubit(1));
/// c.cnot(Qubit(0), Qubit(1));
/// let dag = c.dag();
/// assert_eq!(dag.depth(), 2);            // both H's fit in layer 0
/// assert_eq!(dag.layers()[0].len(), 2);
/// assert_eq!(dag.layers()[1].len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CircuitDag {
    preds: Vec<Vec<GateId>>,
    succs: Vec<Vec<GateId>>,
    layer: Vec<usize>,
    layers: Vec<Vec<GateId>>,
}

impl CircuitDag {
    /// Builds the DAG for `circuit`.
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.len();
        let mut preds: Vec<Vec<GateId>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<GateId>> = vec![Vec::new(); n];
        let mut layer: Vec<usize> = vec![0; n];
        let mut last_use: HashMap<Qubit, GateId> = HashMap::new();

        for (i, gate) in circuit.iter().enumerate() {
            let id = GateId(i);
            for q in gate.qubits() {
                if let Some(&prev) = last_use.get(&q) {
                    // A qubit can join two operands of the same gate to a
                    // single predecessor; dedupe below.
                    if !preds[i].contains(&prev) {
                        preds[i].push(prev);
                        succs[prev.0].push(id);
                    }
                }
                last_use.insert(q, id);
            }
            layer[i] = preds[i].iter().map(|p| layer[p.0] + 1).max().unwrap_or(0);
        }

        let depth = layer.iter().copied().max().map_or(0, |m| m + 1);
        let mut layers: Vec<Vec<GateId>> = vec![Vec::new(); depth];
        for (i, &l) in layer.iter().enumerate() {
            layers[l].push(GateId(i));
        }

        CircuitDag {
            preds,
            succs,
            layer,
            layers,
        }
    }

    /// Number of gates in the DAG.
    #[inline]
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// `true` if the circuit had no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Direct predecessors of a gate.
    #[inline]
    pub fn preds(&self, id: GateId) -> &[GateId] {
        &self.preds[id.0]
    }

    /// Direct successors of a gate.
    #[inline]
    pub fn succs(&self, id: GateId) -> &[GateId] {
        &self.succs[id.0]
    }

    /// The ASAP layer of a gate (0-based from the circuit start).
    #[inline]
    pub fn layer(&self, id: GateId) -> usize {
        self.layer[id.0]
    }

    /// Gates grouped by ASAP layer.
    #[inline]
    pub fn layers(&self) -> &[Vec<GateId>] {
        &self.layers
    }

    /// Circuit depth (number of ASAP layers).
    #[inline]
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Creates a fresh scheduling cursor over this DAG.
    pub fn frontier(&self) -> Frontier<'_> {
        self.frontier_in(FrontierBuffers::default())
    }

    /// [`CircuitDag::frontier`] in the storage of an earlier cursor
    /// ([`Frontier::into_buffers`]): every buffer is refilled, so what
    /// the earlier cursor left in it never matters, and a scheduler
    /// that walks many frontiers allocates their state once.
    pub fn frontier_in(&self, buffers: FrontierBuffers) -> Frontier<'_> {
        let FrontierBuffers {
            mut indegree,
            mut ready,
            mut executed,
        } = buffers;
        indegree.clear();
        indegree.extend(self.preds.iter().map(Vec::len));
        ready.clear();
        ready.extend(
            indegree
                .iter()
                .enumerate()
                .filter(|(_, &d)| d == 0)
                .map(|(i, _)| GateId(i)),
        );
        executed.clear();
        executed.resize(self.len(), false);
        Frontier {
            dag: self,
            indegree,
            ready,
            executed,
            executed_count: 0,
        }
    }
}

/// The per-gate storage of a [`Frontier`], detached from its DAG so it
/// can serve the next cursor ([`CircuitDag::frontier_in`]).
#[derive(Debug, Clone, Default)]
pub struct FrontierBuffers {
    indegree: Vec<usize>,
    ready: Vec<GateId>,
    executed: Vec<bool>,
}

/// A mutable cursor over a [`CircuitDag`] tracking which gates are ready.
///
/// The scheduler repeatedly inspects [`Frontier::ready`], picks a set of
/// gates to execute this timestep, and calls [`Frontier::complete`] for
/// each, which unlocks successors. Its per-gate in-degree counts the
/// *unexecuted* predecessors, which is what seeds the lookahead walk of
/// [`Frontier::window_into`].
#[derive(Debug, Clone)]
pub struct Frontier<'a> {
    dag: &'a CircuitDag,
    indegree: Vec<usize>,
    ready: Vec<GateId>,
    executed: Vec<bool>,
    executed_count: usize,
}

impl<'a> Frontier<'a> {
    /// Gates whose dependencies are all satisfied, in ascending id order.
    pub fn ready(&self) -> &[GateId] {
        &self.ready
    }

    /// `true` once every gate has been completed.
    pub fn is_done(&self) -> bool {
        self.executed_count == self.dag.len()
    }

    /// `true` if the gate has already been completed.
    pub fn is_executed(&self, id: GateId) -> bool {
        self.executed[id.0]
    }

    /// Ends the cursor, handing back its storage for
    /// [`CircuitDag::frontier_in`].
    pub fn into_buffers(self) -> FrontierBuffers {
        FrontierBuffers {
            indegree: self.indegree,
            ready: self.ready,
            executed: self.executed,
        }
    }

    /// Marks `id` as executed and moves the successors it unlocks into
    /// the ready list.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not currently ready (dependencies unsatisfied or
    /// already executed).
    pub fn complete(&mut self, id: GateId) {
        let pos = self
            .ready
            .iter()
            .position(|&g| g == id)
            .unwrap_or_else(|| panic!("gate {id:?} is not ready"));
        self.ready.remove(pos);
        self.executed[id.0] = true;
        self.executed_count += 1;

        for &s in self.dag.succs(id) {
            self.indegree[s.0] -= 1;
            if self.indegree[s.0] == 0 {
                // Keep the ready list sorted for deterministic
                // scheduling.
                let ins = self.ready.partition_point(|&r| r < s);
                self.ready.insert(ins, s);
            }
        }
    }

    /// Every unexecuted gate whose ASAP layer relative to the current
    /// frontier is at most `depth`, as `(gate, layer)` in layer order
    /// (ready gates are layer 0).
    ///
    /// This is the window of the paper's lookahead weight: `layer` is
    /// its `ℓ - ℓc` term, recomputed as the schedule advances. The walk
    /// is Kahn's layering seeded with the ready gates. A successor's
    /// count of unexecuted predecessors starts from the cursor's
    /// in-degree and drops as each of them is placed; at zero the
    /// successor joins the next layer. The walk stops after layer
    /// `depth`, so its work scales with the window, not the circuit.
    pub fn window_into(
        &self,
        depth: usize,
        scratch: &mut WindowScratch,
        out: &mut Vec<(GateId, usize)>,
    ) {
        let epoch = scratch.next_epoch(self.dag.len());
        out.clear();
        out.extend(self.ready.iter().map(|&g| (g, 0)));
        let (mut start, mut layer) = (0, 0);
        while start < out.len() && layer < depth {
            let end = out.len();
            for k in start..end {
                for &s in self.dag.succs(out[k].0) {
                    let (stamp, left) = &mut scratch.left[s.0];
                    if *stamp != epoch {
                        *stamp = epoch;
                        *left = self.indegree[s.0] as u32;
                    }
                    *left -= 1;
                    if *left == 0 {
                        out.push((s, layer + 1));
                    }
                }
            }
            start = end;
            layer += 1;
        }
    }
}

/// Reusable working memory for [`Frontier::window_into`]: per gate,
/// the count of predecessors not yet placed in the window. A count is
/// valid only where stamped with the current walk's epoch, so a walk
/// never pays to reset them.
#[derive(Debug, Clone, Default)]
pub struct WindowScratch {
    epoch: u32,
    /// `(epoch stamp, predecessors left)` per gate.
    left: Vec<(u32, u32)>,
}

impl WindowScratch {
    /// Fresh scratch; grows to the circuit's gate count on first use.
    pub fn new() -> Self {
        WindowScratch::default()
    }

    /// Starts a walk over `n` gates and returns its epoch.
    fn next_epoch(&mut self, n: usize) -> u32 {
        if self.left.len() < n {
            self.left.resize(n, (0, 0));
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: clear every stamp so none can match a live epoch.
            self.left.fill((0, 0));
            self.epoch = 1;
        }
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of gates `frontier` has completed so far.
    fn executed_count(frontier: &Frontier<'_>) -> usize {
        frontier.executed_count
    }

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn chain_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(Qubit(0));
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(1), Qubit(2));
        c
    }

    #[test]
    fn layers_of_serial_chain() {
        let c = chain_circuit();
        let dag = c.dag();
        assert_eq!(dag.depth(), 3);
        assert_eq!(dag.layer(GateId(0)), 0);
        assert_eq!(dag.layer(GateId(1)), 1);
        assert_eq!(dag.layer(GateId(2)), 2);
    }

    #[test]
    fn independent_gates_share_a_layer() {
        let mut c = Circuit::new(4);
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(2), Qubit(3));
        let dag = c.dag();
        assert_eq!(dag.depth(), 1);
        assert_eq!(dag.layers()[0].len(), 2);
    }

    #[test]
    fn empty_circuit_has_zero_depth() {
        let c = Circuit::new(3);
        let dag = c.dag();
        assert!(dag.is_empty());
        assert_eq!(dag.depth(), 0);
        assert!(dag.frontier().is_done());
    }

    #[test]
    fn duplicate_pred_edges_are_merged() {
        let mut c = Circuit::new(2);
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(0), Qubit(1));
        let dag = c.dag();
        // Both operands link gate 1 to gate 0, but only one edge exists.
        assert_eq!(dag.preds(GateId(1)), &[GateId(0)]);
        assert_eq!(dag.succs(GateId(0)), &[GateId(1)]);
    }

    #[test]
    fn frontier_unlocks_in_dependency_order() {
        let c = chain_circuit();
        let dag = c.dag();
        let mut f = dag.frontier();
        assert_eq!(f.ready(), &[GateId(0)]);
        f.complete(GateId(0));
        assert_eq!(f.ready(), &[GateId(1)]);
        f.complete(GateId(1));
        assert_eq!(f.ready(), &[GateId(2)]);
        f.complete(GateId(2));
        assert!(f.is_done());
    }

    #[test]
    fn frontier_in_reused_buffers_starts_fresh() {
        // Leave a half-walked cursor over a wider circuit behind.
        let mut wide = Circuit::new(4);
        wide.cnot(Qubit(0), Qubit(1));
        wide.cnot(Qubit(2), Qubit(3));
        wide.cnot(Qubit(1), Qubit(2));
        let wide_dag = wide.dag();
        let mut f = wide_dag.frontier();
        f.complete(GateId(1));
        let buffers = f.into_buffers();

        let c = chain_circuit();
        let dag = c.dag();
        let mut reused = dag.frontier_in(buffers);
        let mut fresh = dag.frontier();
        for g in 0..dag.len() {
            assert_eq!(reused.ready(), fresh.ready());
            assert_eq!(executed_count(&reused), executed_count(&fresh));
            assert!(!reused.is_executed(GateId(g)));
            reused.complete(GateId(g));
            fresh.complete(GateId(g));
        }
        assert!(reused.is_done());
    }

    #[test]
    #[should_panic(expected = "not ready")]
    fn completing_unready_gate_panics() {
        let c = chain_circuit();
        let dag = c.dag();
        let mut f = dag.frontier();
        f.complete(GateId(2));
    }

    /// Reference oracle for [`Frontier::window_into`]: the relative
    /// ASAP layer of every unexecuted gate (`None` once executed), by a
    /// full walk of the circuit in id order. Predecessors always have
    /// smaller ids because gates are appended in program order.
    fn remaining_layers(f: &Frontier<'_>) -> Vec<Option<usize>> {
        let mut rel: Vec<Option<usize>> = vec![None; f.dag.len()];
        for i in 0..f.dag.len() {
            if f.is_executed(GateId(i)) {
                continue;
            }
            let l = f
                .dag
                .preds(GateId(i))
                .iter()
                .filter_map(|p| rel[p.0].map(|x| x + 1))
                .max()
                .unwrap_or(0);
            rel[i] = Some(l);
        }
        rel
    }

    fn window(f: &Frontier<'_>, depth: usize) -> Vec<(GateId, usize)> {
        let mut out = Vec::new();
        f.window_into(depth, &mut WindowScratch::new(), &mut out);
        out
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn remaining_layers_initially_match_dag_layers() {
        let c = chain_circuit();
        let dag = c.dag();
        let f = dag.frontier();
        let rel = remaining_layers(&f);
        for i in 0..dag.len() {
            assert_eq!(rel[i], Some(dag.layer(GateId(i))));
        }
        let all = (0..dag.len()).map(|i| (GateId(i), i)).collect::<Vec<_>>();
        assert_eq!(window(&f, usize::MAX), all);
    }

    #[test]
    fn remaining_layers_shift_after_execution() {
        let c = chain_circuit();
        let dag = c.dag();
        let mut f = dag.frontier();
        f.complete(GateId(0));
        let rel = remaining_layers(&f);
        assert_eq!(rel[0], None);
        assert_eq!(rel[1], Some(0));
        assert_eq!(rel[2], Some(1));
        assert_eq!(window(&f, 20), vec![(GateId(1), 0), (GateId(2), 1)]);
    }

    /// Generates a random circuit over at most `max_qubits` qubits for
    /// the seeded property tests.
    fn arb_circuit(rng: &mut StdRng, max_qubits: u32, max_gates: usize) -> Circuit {
        let n = rng.gen_range(2..=max_qubits);
        let g = rng.gen_range(0..max_gates);
        let mut c = Circuit::new(n);
        for _ in 0..g {
            let qa = Qubit(rng.gen_range(0..n));
            let qb = Qubit(rng.gen_range(0..n));
            match rng.gen_range(0..3u8) {
                0 => {
                    c.h(qa);
                }
                1 => {
                    if qa != qb {
                        c.cnot(qa, qb);
                    } else {
                        c.x(qa);
                    }
                }
                _ => {
                    c.rz(qa, 0.25);
                }
            }
        }
        c
    }

    #[test]
    fn prop_layers_respect_dependencies() {
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..32 {
            let c = arb_circuit(&mut rng, 6, 40);
            let dag = c.dag();
            for i in 0..dag.len() {
                for &p in dag.preds(GateId(i)) {
                    assert!(dag.layer(p) < dag.layer(GateId(i)));
                }
            }
        }
    }

    #[test]
    fn prop_frontier_executes_every_gate_once() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..32 {
            let c = arb_circuit(&mut rng, 6, 40);
            let dag = c.dag();
            let mut f = dag.frontier();
            let mut executed = 0usize;
            while !f.is_done() {
                let next = f.ready()[0];
                f.complete(next);
                executed += 1;
            }
            assert_eq!(executed, dag.len());
        }
    }

    #[test]
    fn prop_layer_sizes_sum_to_gate_count() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..32 {
            let c = arb_circuit(&mut rng, 6, 40);
            let dag = c.dag();
            let total: usize = dag.layers().iter().map(Vec::len).sum();
            assert_eq!(total, dag.len());
        }
    }

    /// [`arb_circuit`] plus 3-qubit gates and gates that repeat an
    /// earlier gate's operands (merged predecessor edges).
    fn arb_wide_circuit(rng: &mut StdRng, max_qubits: u32, max_gates: usize) -> Circuit {
        let mut c = arb_circuit(rng, max_qubits.max(3), max_gates);
        let n = c.num_qubits();
        for _ in 0..rng.gen_range(0..max_gates) {
            let q = Qubit(rng.gen_range(0..n));
            let a = Qubit((q.0 + 1) % n);
            let b = Qubit((q.0 + 2) % n);
            match rng.gen_range(0..3u8) {
                0 if n >= 3 => {
                    c.toffoli(q, a, b);
                }
                1 => {
                    c.cnot(q, a);
                    c.cz(a, q);
                }
                _ => {
                    c.cnot(q, a);
                }
            }
        }
        c
    }

    #[test]
    fn prop_window_matches_remaining_layers() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut scratch = WindowScratch::new();
        let mut out = Vec::new();
        for _ in 0..48 {
            let c = arb_wide_circuit(&mut rng, 7, 40);
            let dag = c.dag();
            let mut f = dag.frontier();
            loop {
                let rel = remaining_layers(&f);
                for depth in [0, 1, 2, 5, 20, usize::MAX] {
                    // One scratch across circuits and depths exercises
                    // the epoch stamps.
                    f.window_into(depth, &mut scratch, &mut out);
                    assert!(out.windows(2).all(|p| p[0].1 <= p[1].1));
                    let mut got = out.clone();
                    got.sort_unstable();
                    let want: Vec<(GateId, usize)> = rel
                        .iter()
                        .enumerate()
                        .filter_map(|(i, l)| l.filter(|&l| l <= depth).map(|l| (GateId(i), l)))
                        .collect();
                    assert_eq!(got, want, "depth {depth}");
                }
                if f.is_done() {
                    break;
                }
                let next = f.ready()[rng.gen_range(0..f.ready().len())];
                f.complete(next);
            }
        }
    }
}
