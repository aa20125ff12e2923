//! Parametrized benchmark circuits (paper §III-B).
//!
//! The paper evaluates five program families chosen to span the
//! parallelism and gate-composition spectrum:
//!
//! * [`bv()`] — **Bernstein–Vazirani** with the all-1s oracle (maximum
//!   gate count for the family); completely serial on the ancilla.
//! * [`cuccaro()`] — **Cuccaro ripple-carry adder**, Toffoli-heavy with
//!   no parallelism.
//! * [`cnu()`] — **n-controlled-NOT** via the logarithmic-depth ancilla
//!   tree; highly parallel and Toffoli-built.
//! * [`qft_adder`] — **QFT adder** (Ruiz-Perez/Draper): two QFT blocks
//!   around a highly parallel controlled-phase cascade.
//! * [`qaoa_maxcut`] — **QAOA for MAX-CUT** on seeded random graphs at
//!   edge density 0.1; a promising near-term workload.
//!
//! [`Benchmark`] wraps all five behind one sweepable interface keyed by
//! *program size* (total qubits), matching how the paper's figures are
//! parametrized.

pub mod bv;
pub mod cnu;
pub mod cuccaro;
pub mod qaoa;
pub mod qft;
pub mod suite;

pub use bv::bv;
pub use cnu::{cnu, cnu_controls_for_size};
pub use cuccaro::cuccaro;
pub use qaoa::{qaoa_maxcut, random_graph};
pub use qft::{inverse_qft, qft, qft_adder};
pub use suite::{Benchmark, ParseBenchmarkError, Workload};
