//! The [`Circuit`] container.

use crate::{CircuitDag, CircuitMetrics, Gate, Qubit};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// Error returned when a gate cannot be appended to a [`Circuit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitError {
    /// An operand index is `>= num_qubits`.
    QubitOutOfRange { qubit: Qubit, num_qubits: u32 },
    /// The same qubit appears twice in one gate.
    DuplicateOperand { qubit: Qubit },
    /// A `Cnx` gate was constructed with zero controls.
    EmptyControls,
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::QubitOutOfRange { qubit, num_qubits } => {
                write!(
                    f,
                    "qubit {qubit} out of range for {num_qubits}-qubit circuit"
                )
            }
            CircuitError::DuplicateOperand { qubit } => {
                write!(f, "duplicate operand {qubit} in gate")
            }
            CircuitError::EmptyControls => write!(f, "controlled gate with zero controls"),
        }
    }
}

impl Error for CircuitError {}

/// An ordered list of gates over a fixed register of program qubits.
///
/// `Circuit` is the unit of input to the compiler. Gates are appended via
/// the builder-style helpers (`h`, `cnot`, `toffoli`, ...) or via
/// [`Circuit::try_push`] / [`Circuit::push`].
///
/// # Example
///
/// ```
/// use na_circuit::{Circuit, Qubit};
///
/// let mut bell = Circuit::new(2);
/// bell.h(Qubit(0));
/// bell.cnot(Qubit(0), Qubit(1));
/// assert_eq!(bell.len(), 2);
/// assert_eq!(bell.metrics().depth, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Circuit {
    num_qubits: u32,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` program qubits.
    pub fn new(num_qubits: u32) -> Self {
        Circuit {
            num_qubits,
            gates: Vec::new(),
        }
    }

    /// Creates a circuit from an existing gate list.
    ///
    /// # Errors
    ///
    /// Returns the first [`CircuitError`] found while validating `gates`.
    #[cfg(test)]
    pub(crate) fn from_gates(
        num_qubits: u32,
        gates: impl IntoIterator<Item = Gate>,
    ) -> Result<Self, CircuitError> {
        let mut c = Circuit::new(num_qubits);
        for g in gates {
            c.try_push(g)?;
        }
        Ok(c)
    }

    /// Number of program qubits in the register.
    #[inline]
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Number of gates.
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// `true` if the circuit contains no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gates, in program order.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Iterates over the gates in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Gate> {
        self.gates.iter()
    }

    /// A stable 64-bit structural fingerprint (FNV-1a folded directly
    /// over the register width and every gate's variant tag, operands,
    /// and angle bits — no intermediate serialization): equal circuits
    /// always agree, and circuits differing in any gate, operand,
    /// angle, or register width virtually never collide. The
    /// experiment engine keys its memoized compilation cache on this,
    /// so it runs on every cache lookup and must stay allocation-light.
    pub fn fingerprint(&self) -> u64 {
        let mut h =
            crate::fingerprint::fnv1a_extend(0xcbf2_9ce4_8422_2325, u64::from(self.num_qubits));
        for gate in &self.gates {
            h = gate.fingerprint_fold(h);
        }
        h
    }

    /// Validates a gate against this register.
    ///
    /// # Errors
    ///
    /// See [`CircuitError`].
    pub fn validate(&self, gate: &Gate) -> Result<(), CircuitError> {
        let qs = gate.qubits();
        if qs.is_empty() {
            return Err(CircuitError::EmptyControls);
        }
        let mut seen = HashSet::with_capacity(qs.len());
        for q in qs {
            if q.0 >= self.num_qubits {
                return Err(CircuitError::QubitOutOfRange {
                    qubit: q,
                    num_qubits: self.num_qubits,
                });
            }
            if !seen.insert(q) {
                return Err(CircuitError::DuplicateOperand { qubit: q });
            }
        }
        if let Gate::Cnx { controls, .. } = gate {
            if controls.is_empty() {
                return Err(CircuitError::EmptyControls);
            }
        }
        Ok(())
    }

    /// Appends a gate after validating it.
    ///
    /// # Errors
    ///
    /// See [`CircuitError`].
    pub fn try_push(&mut self, gate: Gate) -> Result<(), CircuitError> {
        self.validate(&gate)?;
        self.gates.push(gate);
        Ok(())
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate fails validation (out-of-range or duplicate
    /// operands). Use [`Circuit::try_push`] for fallible insertion.
    pub fn push(&mut self, gate: Gate) {
        if let Err(e) = self.try_push(gate) {
            panic!("invalid gate: {e}");
        }
    }

    /// Appends every gate of `other` to this circuit.
    ///
    /// # Panics
    ///
    /// Panics if `other` uses qubits outside this register.
    pub fn extend_from(&mut self, other: &Circuit) {
        for g in other.iter() {
            self.push(g.clone());
        }
    }

    /// Builds the data-dependency DAG for this circuit.
    pub fn dag(&self) -> CircuitDag {
        CircuitDag::new(self)
    }

    /// Computes gate-count/depth metrics.
    pub fn metrics(&self) -> CircuitMetrics {
        CircuitMetrics::of(self)
    }

    // --- builder helpers ------------------------------------------------

    /// Appends a Pauli-X gate.
    pub fn x(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::X(q));
        self
    }

    /// Appends a Pauli-Y gate.
    pub fn y(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::Y(q));
        self
    }

    /// Appends a Pauli-Z gate.
    pub fn z(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::Z(q));
        self
    }

    /// Appends a Hadamard gate.
    pub fn h(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::H(q));
        self
    }

    /// Appends an S gate.
    pub fn s(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::S(q));
        self
    }

    /// Appends an S† gate.
    pub fn sdg(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::Sdg(q));
        self
    }

    /// Appends a T gate.
    pub fn t(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::T(q));
        self
    }

    /// Appends a T† gate.
    pub fn tdg(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::Tdg(q));
        self
    }

    /// Appends an Rx rotation.
    pub fn rx(&mut self, q: Qubit, angle: f64) -> &mut Self {
        self.push(Gate::Rx(q, angle));
        self
    }

    /// Appends an Ry rotation.
    pub fn ry(&mut self, q: Qubit, angle: f64) -> &mut Self {
        self.push(Gate::Ry(q, angle));
        self
    }

    /// Appends an Rz rotation.
    pub fn rz(&mut self, q: Qubit, angle: f64) -> &mut Self {
        self.push(Gate::Rz(q, angle));
        self
    }

    /// Appends a CNOT gate.
    pub fn cnot(&mut self, control: Qubit, target: Qubit) -> &mut Self {
        self.push(Gate::Cnot { control, target });
        self
    }

    /// Appends a CZ gate.
    pub fn cz(&mut self, a: Qubit, b: Qubit) -> &mut Self {
        self.push(Gate::Cz(a, b));
        self
    }

    /// Appends a controlled-phase gate.
    pub fn cphase(&mut self, a: Qubit, b: Qubit, angle: f64) -> &mut Self {
        self.push(Gate::Cphase(a, b, angle));
        self
    }

    /// Appends a SWAP gate.
    pub fn swap(&mut self, a: Qubit, b: Qubit) -> &mut Self {
        self.push(Gate::Swap(a, b));
        self
    }

    /// Appends a Toffoli (CCX) gate.
    pub fn toffoli(&mut self, c0: Qubit, c1: Qubit, target: Qubit) -> &mut Self {
        self.push(Gate::Toffoli {
            controls: [c0, c1],
            target,
        });
        self
    }

    /// Appends a CCZ gate.
    pub fn ccz(&mut self, a: Qubit, b: Qubit, c: Qubit) -> &mut Self {
        self.push(Gate::Ccz(a, b, c));
        self
    }

    /// Appends an n-controlled X gate.
    pub fn cnx(&mut self, controls: Vec<Qubit>, target: Qubit) -> &mut Self {
        self.push(Gate::Cnx { controls, target });
        self
    }

    /// Appends a measurement.
    pub fn measure(&mut self, q: Qubit) -> &mut Self {
        self.push(Gate::Measure(q));
        self
    }

    /// Measures every qubit in the register, in index order.
    pub fn measure_all(&mut self) -> &mut Self {
        for i in 0..self.num_qubits {
            self.push(Gate::Measure(Qubit(i)));
        }
        self
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Gate;
    type IntoIter = std::slice::Iter<'a, Gate>;

    fn into_iter(self) -> Self::IntoIter {
        self.gates.iter()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit[{} qubits, {} gates]",
            self.num_qubits,
            self.gates.len()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain_appends_in_order() {
        let mut c = Circuit::new(3);
        c.h(Qubit(0))
            .cnot(Qubit(0), Qubit(1))
            .toffoli(Qubit(0), Qubit(1), Qubit(2));
        assert_eq!(c.len(), 3);
        assert_eq!(c.gates()[0].name(), "h");
        assert_eq!(c.gates()[2].name(), "toffoli");
    }

    #[test]
    fn out_of_range_rejected() {
        let mut c = Circuit::new(2);
        let err = c.try_push(Gate::X(Qubit(2))).unwrap_err();
        assert_eq!(
            err,
            CircuitError::QubitOutOfRange {
                qubit: Qubit(2),
                num_qubits: 2
            }
        );
        assert!(c.is_empty());
    }

    #[test]
    fn duplicate_operand_rejected() {
        let mut c = Circuit::new(2);
        let err = c
            .try_push(Gate::Cnot {
                control: Qubit(1),
                target: Qubit(1),
            })
            .unwrap_err();
        assert_eq!(err, CircuitError::DuplicateOperand { qubit: Qubit(1) });
    }

    #[test]
    fn empty_cnx_rejected() {
        let mut c = Circuit::new(2);
        let err = c
            .try_push(Gate::Cnx {
                controls: vec![],
                target: Qubit(0),
            })
            .unwrap_err();
        // A zero-control Cnx has exactly one operand, so it passes the
        // operand checks and is caught by the dedicated control check.
        assert_eq!(err, CircuitError::EmptyControls);
    }

    #[test]
    #[should_panic(expected = "invalid gate")]
    fn push_panics_on_invalid() {
        let mut c = Circuit::new(1);
        c.push(Gate::X(Qubit(5)));
    }

    #[test]
    fn from_gates_validates_all() {
        let gates = vec![
            Gate::H(Qubit(0)),
            Gate::Cnot {
                control: Qubit(0),
                target: Qubit(1),
            },
        ];
        let c = Circuit::from_gates(2, gates).unwrap();
        assert_eq!(c.len(), 2);

        let bad = Circuit::from_gates(1, vec![Gate::X(Qubit(3))]);
        assert!(bad.is_err());
    }

    #[test]
    fn measure_all_touches_every_qubit() {
        let mut c = Circuit::new(4);
        c.measure_all();
        assert_eq!(c.len(), 4);
        for (i, g) in c.iter().enumerate() {
            assert_eq!(*g, Gate::Measure(Qubit(i as u32)));
        }
    }

    #[test]
    fn extend_from_appends_other_circuit() {
        let mut a = Circuit::new(2);
        a.h(Qubit(0));
        let mut b = Circuit::new(2);
        b.cnot(Qubit(0), Qubit(1));
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn display_lists_gates() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0)).cnot(Qubit(0), Qubit(1));
        let s = c.to_string();
        assert!(s.contains("circuit[2 qubits, 2 gates]"));
        assert!(s.contains("h q0"));
        assert!(s.contains("cnot q0,q1"));
    }
}
