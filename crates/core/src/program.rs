//! The grid-independent artifact of one lowered circuit.
//!
//! Everything the compiler derives from a lowered [`Circuit`] before it
//! looks at a grid is built once into a [`Program`]: the
//! data-dependency DAG, the flattened operand table the scheduler's
//! inner loop reads, the time-zero lookahead weights that drive
//! placement and seed the router, and the placement order those weights
//! fix (see [`crate::placement::order`]). Placement and the scheduler borrow
//! it, and the [`crate::CompiledCircuit`] a compile produces holds it,
//! so a loss-driven recompile (same program, new holes) redoes only the
//! grid-dependent work. A `Program` is MID-independent: its only
//! configuration input is `lookahead_depth`.

use crate::placement::order::PlacementOrder;
use crate::scheduler::RebuildScratch;
use crate::InteractionWeights;
use na_circuit::{Circuit, CircuitDag, Qubit};
use na_telemetry::{Counter, Span};

/// A lowered circuit with its DAG, operand table, time-zero lookahead
/// weights and placement order, built once and shared by every compile
/// of it and every schedule those compiles produce (see the module
/// docs).
#[derive(Debug)]
pub struct Program {
    circuit: Circuit,
    dag: CircuitDag,
    operands: GateOperands,
    weights: InteractionWeights,
    placement_order: PlacementOrder,
    lookahead_depth: usize,
}

impl Program {
    /// Builds the artifact of `lowered` (a circuit already lowered for
    /// the compile's gate set, see [`crate::lower_for`]) with weights
    /// decaying over `lookahead_depth` layers. Counted in the
    /// `program_builds` counter; the weight build is a lookahead
    /// rebuild (see [`crate::scheduler`]'s telemetry split).
    pub fn new(lowered: Circuit, lookahead_depth: usize) -> Self {
        na_telemetry::add(Counter::ProgramBuilds, 1);
        let dag = lowered.dag();
        let operands = GateOperands::of(&lowered);
        let weights = time_zero_weights(&lowered, &dag, &operands, lookahead_depth);
        let placement_order = PlacementOrder::of(lowered.num_qubits(), &weights);
        Program {
            circuit: lowered,
            dag,
            operands,
            weights,
            placement_order,
            lookahead_depth,
        }
    }

    /// The lowered circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The circuit's data-dependency DAG.
    pub fn dag(&self) -> &CircuitDag {
        &self.dag
    }

    /// The flattened operand table.
    pub(crate) fn operands(&self) -> &GateOperands {
        &self.operands
    }

    /// The lookahead weights of the DAG frontier at time zero: the
    /// initial placement's input and the scheduler's first weights.
    pub fn weights(&self) -> &InteractionWeights {
        &self.weights
    }

    /// The order placement maps the qubits in, fixed by the weights.
    pub(crate) fn placement_order(&self) -> &PlacementOrder {
        &self.placement_order
    }

    /// The lookahead depth the weights were built with.
    pub fn lookahead_depth(&self) -> usize {
        self.lookahead_depth
    }
}

/// Programs are equal when their lowered circuits and lookahead depths
/// are: the DAG, operand table, weights and placement order are
/// functions of those.
impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        self.circuit == other.circuit && self.lookahead_depth == other.lookahead_depth
    }
}

/// The lookahead weights of `dag`'s time-zero frontier over
/// `lookahead_depth` layers, timed under [`Span::Lookahead`] and counted
/// as one weight rebuild.
pub(crate) fn time_zero_weights(
    circuit: &Circuit,
    dag: &CircuitDag,
    operands: &GateOperands,
    lookahead_depth: usize,
) -> InteractionWeights {
    let _span = na_telemetry::span(Span::Lookahead);
    let mut weights = InteractionWeights::empty(circuit.num_qubits());
    let visited =
        RebuildScratch::default().rebuild(operands, &dag.frontier(), lookahead_depth, &mut weights);
    na_telemetry::add(Counter::WeightRebuilds, 1);
    na_telemetry::add(Counter::LookaheadGatesVisited, visited as u64);
    weights
}

/// Flattened per-gate operand lists in CSR layout, so the scheduler
/// never calls the allocating [`na_circuit::Gate::qubits`] in its inner
/// loop.
#[derive(Debug)]
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

    /// Operands of gate `id`, controls first.
    #[inline]
    pub(crate) fn get(&self, id: usize) -> &[Qubit] {
        &self.qubits[self.offsets[id] as usize..self.offsets[id + 1] as usize]
    }
}
