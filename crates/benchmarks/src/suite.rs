//! The benchmark suite behind the paper's figures, and the
//! [`Workload`] wrapper that lets external circuits (e.g. imported
//! OpenQASM programs) ride the same sweep interfaces.

use crate::{bv, cnu, cnu_controls_for_size, cuccaro, qaoa_maxcut, qft_adder};
use na_circuit::Circuit;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// One of the paper's five benchmark families, sweepable by *program
/// size* (total qubit budget).
///
/// # Example
///
/// ```
/// use na_benchmarks::Benchmark;
///
/// for b in Benchmark::ALL {
///     let c = b.generate(30, 0);
///     assert!(c.num_qubits() <= 30, "{b} overflows its size budget");
///     assert!(!c.is_empty());
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Benchmark {
    /// Bernstein–Vazirani, all-1s oracle. Serial, CNOT-only.
    Bv,
    /// n-controlled NOT via the log-depth ancilla tree. Parallel,
    /// Toffoli-built.
    Cnu,
    /// Cuccaro ripple-carry adder. Serial, Toffoli-built.
    Cuccaro,
    /// QFT adder. Parallel middle between two QFT blocks.
    QftAdder,
    /// QAOA MAX-CUT on random graphs of edge density 0.1.
    Qaoa,
}

impl Benchmark {
    /// All five benchmarks in the order the paper's figures list them.
    pub const ALL: [Benchmark; 5] = [
        Benchmark::Bv,
        Benchmark::Cnu,
        Benchmark::Cuccaro,
        Benchmark::QftAdder,
        Benchmark::Qaoa,
    ];

    /// The smallest size budget every family supports.
    pub const MIN_SIZE: u32 = 4;

    /// The display name used in figures.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Bv => "BV",
            Benchmark::Cnu => "CNU",
            Benchmark::Cuccaro => "Cuccaro",
            Benchmark::QftAdder => "QFT-Adder",
            Benchmark::Qaoa => "QAOA",
        }
    }

    /// Generates the family member that fits within `size` qubits.
    ///
    /// Every family rounds down to its structural parameter:
    /// BV uses all `size` qubits; CNU picks the largest control count
    /// with `2c - 1 ≤ size`; the adders use `⌊(size-2)/2⌋`- and
    /// `⌊size/2⌋`-bit registers; QAOA uses all `size` vertices.
    /// `seed` only affects QAOA's random graph.
    ///
    /// # Panics
    ///
    /// Panics if `size < Benchmark::MIN_SIZE` (4).
    pub fn generate(self, size: u32, seed: u64) -> Circuit {
        assert!(
            size >= Self::MIN_SIZE,
            "benchmark size must be at least 4 qubits"
        );
        match self {
            Benchmark::Bv => bv(size),
            Benchmark::Cnu => cnu(cnu_controls_for_size(size)),
            Benchmark::Cuccaro => cuccaro((size - 2) / 2),
            Benchmark::QftAdder => qft_adder(size / 2),
            Benchmark::Qaoa => qaoa_maxcut(size, 0.1, seed),
        }
    }

    /// The number of qubits [`Benchmark::generate`] actually uses for a
    /// given size budget.
    pub fn actual_size(self, size: u32) -> u32 {
        match self {
            Benchmark::Bv | Benchmark::Qaoa => size,
            Benchmark::Cnu => 2 * cnu_controls_for_size(size) - 1,
            Benchmark::Cuccaro => 2 * ((size - 2) / 2) + 2,
            Benchmark::QftAdder => 2 * (size / 2),
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A sweepable workload: one of the paper's benchmark families *or* a
/// custom circuit (typically imported from OpenQASM via
/// [`na_circuit::qasm::parse_qasm`]).
///
/// Every harness that used to be hardwired to [`Benchmark`] can speak
/// `Workload` instead: benchmarks keep their size-parametrized
/// generation, custom circuits are fixed programs that ignore the size
/// budget and seed. The circuit is held behind an [`Arc`] so sweeps
/// that evaluate one program at many configuration points share it
/// without copying.
///
/// # Example
///
/// ```
/// use na_benchmarks::{Benchmark, Workload};
/// use na_circuit::{Circuit, Qubit};
///
/// let mut bell = Circuit::new(2);
/// bell.h(Qubit(0));
/// bell.cnot(Qubit(0), Qubit(1));
/// let w = Workload::custom("bell", bell);
/// assert_eq!(w.name(), "bell");
/// assert_eq!(w.actual_size(30), 2, "custom circuits ignore the budget");
/// assert_eq!(Workload::from(Benchmark::Bv).actual_size(30), 30);
/// ```
#[derive(Debug, Clone)]
pub enum Workload {
    /// A size-parametrized benchmark family.
    Bench(Benchmark),
    /// A fixed external circuit with a display label.
    Custom {
        /// Label used anywhere a benchmark name would appear.
        label: String,
        /// The circuit, shared across sweep points.
        circuit: Arc<Circuit>,
    },
}

impl Workload {
    /// Wraps a custom circuit under a display label.
    pub fn custom(label: impl Into<String>, circuit: Circuit) -> Self {
        Workload::Custom {
            label: label.into(),
            circuit: Arc::new(circuit),
        }
    }

    /// The display name (benchmark name or custom label).
    pub fn name(&self) -> &str {
        match self {
            Workload::Bench(b) => b.name(),
            Workload::Custom { label, .. } => label,
        }
    }

    /// The circuit at one sweep point. Benchmarks generate at
    /// `(size, seed)`; custom circuits ignore both.
    pub fn circuit(&self, size: u32, seed: u64) -> Arc<Circuit> {
        match self {
            Workload::Bench(b) => Arc::new(b.generate(size, seed)),
            Workload::Custom { circuit, .. } => Arc::clone(circuit),
        }
    }

    /// Qubits the workload actually uses for a given size budget
    /// (custom circuits: their fixed register width).
    pub fn actual_size(&self, size: u32) -> u32 {
        match self {
            Workload::Bench(b) => b.actual_size(size),
            Workload::Custom { circuit, .. } => circuit.num_qubits(),
        }
    }
}

impl From<Benchmark> for Workload {
    fn from(b: Benchmark) -> Self {
        Workload::Bench(b)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when a benchmark name does not parse; lists the
/// accepted spellings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBenchmarkError(pub String);

impl fmt::Display for ParseBenchmarkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown benchmark {:?} (bv|cnu|cuccaro|qft-adder|qaoa)",
            self.0
        )
    }
}

impl std::error::Error for ParseBenchmarkError {}

impl std::str::FromStr for Benchmark {
    type Err = ParseBenchmarkError;

    /// Parses the CLI/figure spellings, case-insensitively. This is
    /// *the* shared name table — the CLI and every harness parse
    /// through it rather than keeping private copies.
    fn from_str(name: &str) -> Result<Self, Self::Err> {
        match name.to_ascii_lowercase().as_str() {
            "bv" => Ok(Benchmark::Bv),
            "cnu" => Ok(Benchmark::Cnu),
            "cuccaro" => Ok(Benchmark::Cuccaro),
            "qft-adder" | "qftadder" | "qft_adder" => Ok(Benchmark::QftAdder),
            "qaoa" => Ok(Benchmark::Qaoa),
            _ => Err(ParseBenchmarkError(name.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `true` for benchmarks natively expressed in Toffoli gates
    /// (the Fig. 6 native-vs-decomposed comparison applies to these).
    fn uses_toffoli(b: Benchmark) -> bool {
        matches!(b, Benchmark::Cnu | Benchmark::Cuccaro)
    }

    #[test]
    fn generate_fits_budget_for_all_families() {
        for b in Benchmark::ALL {
            for size in [4u32, 10, 30, 50, 100] {
                let c = b.generate(size, 3);
                assert_eq!(c.num_qubits(), b.actual_size(size), "{b} size {size}");
                assert!(c.num_qubits() <= size, "{b} size {size}");
                assert!(!c.is_empty(), "{b} size {size}");
            }
        }
    }

    #[test]
    fn paper_sweep_point_cnu_is_49_qubits() {
        assert_eq!(Benchmark::Cnu.actual_size(50), 49);
    }

    #[test]
    fn toffoli_families_flagged() {
        assert!(uses_toffoli(Benchmark::Cnu));
        assert!(uses_toffoli(Benchmark::Cuccaro));
        assert!(!uses_toffoli(Benchmark::Bv));
        assert!(!uses_toffoli(Benchmark::QftAdder));
        assert!(!uses_toffoli(Benchmark::Qaoa));
    }

    #[test]
    fn toffoli_families_emit_three_qubit_gates() {
        for b in Benchmark::ALL {
            let c = b.generate(20, 0);
            let has3q = c.metrics().three_qubit > 0;
            assert_eq!(has3q, uses_toffoli(b), "{b}");
        }
    }

    #[test]
    fn names_match_paper_labels() {
        let names: Vec<_> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["BV", "CNU", "Cuccaro", "QFT-Adder", "QAOA"]);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_size_panics() {
        Benchmark::Cuccaro.generate(3, 0);
    }

    #[test]
    fn workload_shares_custom_circuits_and_delegates_for_benchmarks() {
        use na_circuit::Qubit;
        let mut c = Circuit::new(3);
        c.h(Qubit(0)).cnot(Qubit(0), Qubit(1)).measure(Qubit(1));
        let fp = c.fingerprint();
        let w = Workload::custom("mine", c);
        let a = w.circuit(100, 7);
        let b = w.circuit(4, 0);
        assert!(Arc::ptr_eq(&a, &b), "custom circuit must be shared");
        assert_eq!(a.fingerprint(), fp);
        assert_eq!(w.to_string(), "mine");

        let bench = Workload::from(Benchmark::Cuccaro);
        assert_eq!(bench.name(), "Cuccaro");
        assert_eq!(
            bench.circuit(20, 0).num_qubits(),
            Benchmark::Cuccaro.actual_size(20)
        );
    }

    #[test]
    fn names_parse_case_insensitively() {
        assert_eq!("qaoa".parse::<Benchmark>().unwrap(), Benchmark::Qaoa);
        assert_eq!(
            "QFT-Adder".parse::<Benchmark>().unwrap(),
            Benchmark::QftAdder
        );
        assert_eq!(
            "qft_adder".parse::<Benchmark>().unwrap(),
            Benchmark::QftAdder
        );
        let err = "ghz".parse::<Benchmark>().unwrap_err();
        assert!(err.to_string().contains("ghz"));
    }
}
