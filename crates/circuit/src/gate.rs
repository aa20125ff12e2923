//! Gate definitions.

use crate::Qubit;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A quantum gate acting on one or more program qubits.
///
/// The gate set covers everything the paper's benchmarks and compiler
/// need: a universal single-qubit family, the standard two-qubit
/// entanglers, the router-inserted `Swap`, and the native multiqubit
/// gates (`Toffoli`/`Ccz` and the general [`Gate::Cnx`]) that neutral-atom
/// hardware executes in a single Rydberg interaction.
///
/// # Example
///
/// ```
/// use na_circuit::{Gate, Qubit};
///
/// let g = Gate::Toffoli {
///     controls: [Qubit(0), Qubit(1)],
///     target: Qubit(2),
/// };
/// assert_eq!(g.arity(), 3);
/// assert_eq!(g.qubits(), vec![Qubit(0), Qubit(1), Qubit(2)]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Gate {
    /// Pauli-X (NOT).
    X(Qubit),
    /// Pauli-Y.
    Y(Qubit),
    /// Pauli-Z.
    Z(Qubit),
    /// Hadamard.
    H(Qubit),
    /// Phase gate S = diag(1, i).
    S(Qubit),
    /// Inverse phase gate.
    Sdg(Qubit),
    /// π/8 gate T = diag(1, e^{iπ/4}).
    T(Qubit),
    /// Inverse T gate.
    Tdg(Qubit),
    /// Rotation about X by the given angle (radians).
    Rx(Qubit, f64),
    /// Rotation about Y by the given angle (radians).
    Ry(Qubit, f64),
    /// Rotation about Z by the given angle (radians).
    Rz(Qubit, f64),
    /// Controlled-NOT.
    Cnot { control: Qubit, target: Qubit },
    /// Controlled-Z (symmetric).
    Cz(Qubit, Qubit),
    /// Controlled phase rotation by the given angle (symmetric).
    Cphase(Qubit, Qubit, f64),
    /// SWAP of two qubits. Inserted by the router for communication.
    Swap(Qubit, Qubit),
    /// Doubly-controlled NOT (CCX). Natively executable on NA hardware.
    Toffoli { controls: [Qubit; 2], target: Qubit },
    /// Doubly-controlled Z (symmetric). Natively executable on NA hardware.
    Ccz(Qubit, Qubit, Qubit),
    /// N-controlled NOT with an arbitrary number of controls.
    ///
    /// Benchmarks lower this to Toffolis (with ancilla) before
    /// compilation; the variant exists so generators can speak in the
    /// paper's CNU vocabulary.
    Cnx { controls: Vec<Qubit>, target: Qubit },
    /// Computational-basis measurement.
    Measure(Qubit),
}

impl Gate {
    /// The qubits this gate operates on, controls first.
    pub fn qubits(&self) -> Vec<Qubit> {
        let mut v = Vec::with_capacity(self.arity());
        self.qubits_into(&mut v);
        v
    }

    /// Appends this gate's operands (controls first) to `out` without
    /// allocating — the hot-path form of [`Gate::qubits`] used by the
    /// scheduler's flattened operand table.
    pub fn qubits_into(&self, out: &mut Vec<Qubit>) {
        match self {
            Gate::X(q)
            | Gate::Y(q)
            | Gate::Z(q)
            | Gate::H(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::T(q)
            | Gate::Tdg(q)
            | Gate::Rx(q, _)
            | Gate::Ry(q, _)
            | Gate::Rz(q, _)
            | Gate::Measure(q) => out.push(*q),
            Gate::Cnot { control, target } => out.extend([*control, *target]),
            Gate::Cz(a, b) | Gate::Cphase(a, b, _) | Gate::Swap(a, b) => out.extend([*a, *b]),
            Gate::Toffoli { controls, target } => out.extend([controls[0], controls[1], *target]),
            Gate::Ccz(a, b, c) => out.extend([*a, *b, *c]),
            Gate::Cnx { controls, target } => {
                out.extend_from_slice(controls);
                out.push(*target);
            }
        }
    }

    /// Folds a stable encoding of this gate — variant tag, operand
    /// indices, angle bits — into an FNV-1a state. The basis of
    /// [`crate::Circuit::fingerprint`]; allocation-free except for the
    /// operand list.
    pub fn fingerprint_fold(&self, state: u64) -> u64 {
        use crate::fingerprint::fnv1a_extend as fold;
        let tag: u64 = match self {
            Gate::X(_) => 1,
            Gate::Y(_) => 2,
            Gate::Z(_) => 3,
            Gate::H(_) => 4,
            Gate::S(_) => 5,
            Gate::Sdg(_) => 6,
            Gate::T(_) => 7,
            Gate::Tdg(_) => 8,
            Gate::Rx(..) => 9,
            Gate::Ry(..) => 10,
            Gate::Rz(..) => 11,
            Gate::Cnot { .. } => 12,
            Gate::Cz(..) => 13,
            Gate::Cphase(..) => 14,
            Gate::Swap(..) => 15,
            Gate::Toffoli { .. } => 16,
            Gate::Ccz(..) => 17,
            Gate::Cnx { .. } => 18,
            Gate::Measure(_) => 19,
        };
        let mut h = fold(state, tag);
        for q in self.qubits() {
            h = fold(h, u64::from(q.0));
        }
        let angle = match self {
            Gate::Rx(_, a) | Gate::Ry(_, a) | Gate::Rz(_, a) | Gate::Cphase(_, _, a) => Some(*a),
            _ => None,
        };
        if let Some(a) = angle {
            h = fold(h, a.to_bits());
        }
        h
    }

    /// Number of qubits the gate acts on.
    pub fn arity(&self) -> usize {
        match self {
            Gate::Cnx { controls, .. } => controls.len() + 1,
            Gate::Cnot { .. } | Gate::Cz(..) | Gate::Cphase(..) | Gate::Swap(..) => 2,
            Gate::Toffoli { .. } | Gate::Ccz(..) => 3,
            _ => 1,
        }
    }

    /// `true` if this is a router-inserted SWAP.
    #[inline]
    pub fn is_swap(&self) -> bool {
        matches!(self, Gate::Swap(..))
    }

    /// `true` if this is a measurement.
    #[inline]
    pub fn is_measure(&self) -> bool {
        matches!(self, Gate::Measure(..))
    }

    /// Short mnemonic name ("h", "cnot", "toffoli", ...).
    pub fn name(&self) -> &'static str {
        match self {
            Gate::X(_) => "x",
            Gate::Y(_) => "y",
            Gate::Z(_) => "z",
            Gate::H(_) => "h",
            Gate::S(_) => "s",
            Gate::Sdg(_) => "sdg",
            Gate::T(_) => "t",
            Gate::Tdg(_) => "tdg",
            Gate::Rx(..) => "rx",
            Gate::Ry(..) => "ry",
            Gate::Rz(..) => "rz",
            Gate::Cnot { .. } => "cnot",
            Gate::Cz(..) => "cz",
            Gate::Cphase(..) => "cphase",
            Gate::Swap(..) => "swap",
            Gate::Toffoli { .. } => "toffoli",
            Gate::Ccz(..) => "ccz",
            Gate::Cnx { .. } => "cnx",
            Gate::Measure(_) => "measure",
        }
    }

    /// Remaps every operand through `f`. Used by the compiler when
    /// rewriting program qubits to physical locations.
    pub fn map_qubits(&self, mut f: impl FnMut(Qubit) -> Qubit) -> Gate {
        match self {
            Gate::X(q) => Gate::X(f(*q)),
            Gate::Y(q) => Gate::Y(f(*q)),
            Gate::Z(q) => Gate::Z(f(*q)),
            Gate::H(q) => Gate::H(f(*q)),
            Gate::S(q) => Gate::S(f(*q)),
            Gate::Sdg(q) => Gate::Sdg(f(*q)),
            Gate::T(q) => Gate::T(f(*q)),
            Gate::Tdg(q) => Gate::Tdg(f(*q)),
            Gate::Rx(q, a) => Gate::Rx(f(*q), *a),
            Gate::Ry(q, a) => Gate::Ry(f(*q), *a),
            Gate::Rz(q, a) => Gate::Rz(f(*q), *a),
            Gate::Cnot { control, target } => Gate::Cnot {
                control: f(*control),
                target: f(*target),
            },
            Gate::Cz(a, b) => Gate::Cz(f(*a), f(*b)),
            Gate::Cphase(a, b, t) => Gate::Cphase(f(*a), f(*b), *t),
            Gate::Swap(a, b) => Gate::Swap(f(*a), f(*b)),
            Gate::Toffoli { controls, target } => Gate::Toffoli {
                controls: [f(controls[0]), f(controls[1])],
                target: f(*target),
            },
            Gate::Ccz(a, b, c) => Gate::Ccz(f(*a), f(*b), f(*c)),
            Gate::Cnx { controls, target } => Gate::Cnx {
                controls: controls.iter().map(|q| f(*q)).collect(),
                target: f(*target),
            },
            Gate::Measure(q) => Gate::Measure(f(*q)),
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())?;
        let qs = self.qubits();
        let mut first = true;
        write!(f, " ")?;
        for q in qs {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{q}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_operand_count() {
        let cases: Vec<Gate> = vec![
            Gate::X(Qubit(0)),
            Gate::Rz(Qubit(1), 0.5),
            Gate::Cnot {
                control: Qubit(0),
                target: Qubit(1),
            },
            Gate::Swap(Qubit(2), Qubit(3)),
            Gate::Toffoli {
                controls: [Qubit(0), Qubit(1)],
                target: Qubit(2),
            },
            Gate::Ccz(Qubit(0), Qubit(1), Qubit(2)),
            Gate::Cnx {
                controls: vec![Qubit(0), Qubit(1), Qubit(2), Qubit(3)],
                target: Qubit(4),
            },
            Gate::Measure(Qubit(5)),
        ];
        for g in cases {
            assert_eq!(g.arity(), g.qubits().len(), "arity mismatch for {g}");
        }
    }

    #[test]
    fn multiqubit_flags() {
        assert_eq!(Gate::H(Qubit(0)).arity(), 1);
        assert_eq!(Gate::Cz(Qubit(0), Qubit(1)).arity(), 2);
        assert!(Gate::Swap(Qubit(0), Qubit(1)).is_swap());
        assert!(!Gate::Cz(Qubit(0), Qubit(1)).is_swap());
        assert!(Gate::Measure(Qubit(0)).is_measure());
    }

    #[test]
    fn map_qubits_shifts_all_operands() {
        let g = Gate::Toffoli {
            controls: [Qubit(0), Qubit(1)],
            target: Qubit(2),
        };
        let shifted = g.map_qubits(|q| Qubit(q.0 + 10));
        assert_eq!(shifted.qubits(), vec![Qubit(10), Qubit(11), Qubit(12)]);
    }

    #[test]
    fn display_formats_gate_and_operands() {
        let g = Gate::Cnot {
            control: Qubit(0),
            target: Qubit(3),
        };
        assert_eq!(g.to_string(), "cnot q0,q3");
    }

    #[test]
    fn cnx_qubits_puts_controls_first() {
        let g = Gate::Cnx {
            controls: vec![Qubit(4), Qubit(5)],
            target: Qubit(6),
        };
        assert_eq!(g.qubits(), vec![Qubit(4), Qubit(5), Qubit(6)]);
        assert_eq!(g.arity(), 3);
    }
}
