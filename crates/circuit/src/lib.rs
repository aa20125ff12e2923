//! Quantum circuit intermediate representation for the neutral-atom toolkit.
//!
//! This crate provides the circuit substrate every other `natoms` crate is
//! built on:
//!
//! * [`Qubit`] — a program (logical) qubit index;
//! * [`Gate`] — one-, two-, three-, and n-qubit operations, including the
//!   native multiqubit gates (Toffoli/CCZ) that neutral-atom hardware can
//!   execute in a single step;
//! * [`Circuit`] — an ordered gate list with a builder-style API;
//! * [`CircuitDag`] — the data-dependency DAG with ASAP layering, used by
//!   the compiler's lookahead weighting and frontier scheduling;
//! * [`decompose`] — lowering passes (Toffoli → 6 CNOTs, controlled-phase
//!   → CNOT + Rz, SWAP → 3 CNOTs) so the same source circuit can be
//!   compiled either with or without native multiqubit gates;
//! * [`qasm`] — OpenQASM 2.0 import ([`parse_qasm`]) and export
//!   ([`to_qasm`]), so external circuits can enter the pipeline and
//!   compiled programs can leave it for cross-checking;
//! * [`metrics`] — gate counts by arity and circuit depth, the two success
//!   predictors the paper's evaluation is phrased in.
//!
//! # Example
//!
//! ```
//! use na_circuit::{Circuit, Qubit};
//!
//! let mut c = Circuit::new(3);
//! c.h(Qubit(0));
//! c.cnot(Qubit(0), Qubit(1));
//! c.toffoli(Qubit(0), Qubit(1), Qubit(2));
//! assert_eq!(c.len(), 3);
//! assert_eq!(c.dag().depth(), 3);
//! ```

pub mod circuit;
pub mod dag;
pub mod decompose;
pub mod fingerprint;
pub mod gate;
pub mod metrics;
pub mod qasm;
pub mod qubit;
pub mod sim;

pub use circuit::{Circuit, CircuitError};
pub use dag::{CircuitDag, Frontier, FrontierBuffers, GateId, WindowScratch};
pub use decompose::{decompose_circuit, DecomposeLevel};
pub use gate::Gate;
pub use metrics::CircuitMetrics;
pub use qasm::{parse_qasm, to_qasm, QasmError, QasmErrorKind};
pub use qubit::Qubit;
