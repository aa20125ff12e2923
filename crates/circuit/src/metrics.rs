//! Circuit metrics: gate counts by arity and depth.
//!
//! Gate count and depth are the paper's two program-success predictors
//! (§II-A): every figure in the evaluation is phrased in terms of one or
//! both. Measurements are tracked separately — they happen once at the
//! end of a shot and are priced by the loss model, not the gate-error
//! model.

use crate::Circuit;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Gate counts by arity plus circuit depth.
///
/// # Example
///
/// ```
/// use na_circuit::{Circuit, Qubit};
///
/// let mut c = Circuit::new(3);
/// c.h(Qubit(0));
/// c.cnot(Qubit(0), Qubit(1));
/// c.toffoli(Qubit(0), Qubit(1), Qubit(2));
/// let m = c.metrics();
/// assert_eq!(m.one_qubit, 1);
/// assert_eq!(m.two_qubit, 1);
/// assert_eq!(m.three_qubit, 1);
/// assert_eq!(m.depth, 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CircuitMetrics {
    /// Count of one-qubit gates (excluding measurements).
    pub one_qubit: usize,
    /// Count of two-qubit gates, including SWAPs.
    pub two_qubit: usize,
    /// Count of three-qubit gates (Toffoli/CCZ).
    pub three_qubit: usize,
    /// Count of gates on four or more qubits (unlowered `Cnx`).
    pub many_qubit: usize,
    /// Count of router-inserted SWAPs (subset of `two_qubit`).
    pub swaps: usize,
    /// Count of measurements.
    pub measurements: usize,
    /// Circuit depth (ASAP layers, measurements included).
    pub depth: usize,
}

impl CircuitMetrics {
    /// Computes metrics for `circuit`.
    pub fn of(circuit: &Circuit) -> Self {
        let mut m = CircuitMetrics::default();
        for g in circuit.iter() {
            if g.is_measure() {
                m.measurements += 1;
                continue;
            }
            match g.arity() {
                1 => m.one_qubit += 1,
                2 => {
                    m.two_qubit += 1;
                    if g.is_swap() {
                        m.swaps += 1;
                    }
                }
                3 => m.three_qubit += 1,
                _ => m.many_qubit += 1,
            }
        }
        m.depth = circuit.dag().depth();
        m
    }

    /// Total gate count excluding measurements.
    pub fn total_gates(&self) -> usize {
        self.one_qubit + self.two_qubit + self.three_qubit + self.many_qubit
    }
}

impl fmt::Display for CircuitMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gates={} (1q={}, 2q={}, 3q={}, n-q={}, swaps={}), depth={}, meas={}",
            self.total_gates(),
            self.one_qubit,
            self.two_qubit,
            self.three_qubit,
            self.many_qubit,
            self.swaps,
            self.depth,
            self.measurements
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Qubit;

    #[test]
    fn counts_by_arity() {
        let mut c = Circuit::new(5);
        c.h(Qubit(0));
        c.x(Qubit(1));
        c.cnot(Qubit(0), Qubit(1));
        c.swap(Qubit(2), Qubit(3));
        c.toffoli(Qubit(0), Qubit(1), Qubit(2));
        c.cnx((0..4).map(Qubit).collect(), Qubit(4));
        c.measure(Qubit(0));

        let m = c.metrics();
        assert_eq!(m.one_qubit, 2);
        assert_eq!(m.two_qubit, 2);
        assert_eq!(m.swaps, 1);
        assert_eq!(m.three_qubit, 1);
        assert_eq!(m.many_qubit, 1);
        assert_eq!(m.measurements, 1);
        assert_eq!(m.total_gates(), 6);
        assert_eq!(m.two_qubit + m.three_qubit + m.many_qubit, 4);
    }

    #[test]
    fn empty_circuit_metrics_are_zero() {
        let m = Circuit::new(3).metrics();
        assert_eq!(m, CircuitMetrics::default());
        assert_eq!(m.total_gates(), 0);
    }

    #[test]
    fn depth_matches_dag() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0));
        c.h(Qubit(1));
        c.cnot(Qubit(0), Qubit(1));
        assert_eq!(c.metrics().depth, 2);
    }

    #[test]
    fn display_mentions_all_fields() {
        let mut c = Circuit::new(2);
        c.cnot(Qubit(0), Qubit(1));
        let s = c.metrics().to_string();
        assert!(s.contains("2q=1"));
        assert!(s.contains("depth=1"));
    }
}
