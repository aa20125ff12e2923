//! Compiler configuration and error types.

use na_arch::RestrictionPolicy;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Configuration of one compilation run.
///
/// # Example
///
/// ```
/// use na_arch::RestrictionPolicy;
/// use na_core::CompilerConfig;
///
/// // Paper defaults: f(d) = d/2 zones, native Toffoli enabled.
/// let cfg = CompilerConfig::new(3.0);
/// assert_eq!(cfg.mid, 3.0);
/// assert!(cfg.native_multiqubit);
///
/// // An SC-style baseline: MID 1, no zones, 2q gate set.
/// let sc = CompilerConfig::new(1.0)
///     .with_restriction(RestrictionPolicy::None)
///     .with_native_multiqubit(false);
/// assert!(!sc.native_multiqubit);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompilerConfig {
    /// Maximum interaction distance (Euclidean, in grid units).
    pub mid: f64,
    /// Restriction-zone policy; the paper uses `f(d) = d/2`.
    pub restriction: RestrictionPolicy,
    /// Whether Toffoli/CCZ execute natively. When `false`, the driver
    /// lowers them to the 6-CNOT network before mapping.
    pub native_multiqubit: bool,
    /// Largest gate arity executed as a single Rydberg interaction
    /// when `native_multiqubit` is on. The paper evaluates 3; larger
    /// values implement its §IV-B extension ("larger control gates
    /// will require increasingly larger interaction distances"):
    /// an arity-k gate needs all k atoms pairwise within the MID.
    pub max_native_arity: usize,
    /// Number of future DAG layers the lookahead weight considers.
    /// The exponential decay `e^{-ℓ}` makes layers beyond ~20
    /// numerically irrelevant.
    pub lookahead_depth: usize,
    /// Hard cap on scheduler timesteps per gate, a backstop against
    /// routing livelock. The scheduler stops a cycling router at its
    /// first repeated state long before this; hitting the cap also
    /// returns [`CompileError::RoutingStuck`].
    pub max_steps_per_gate: usize,
}

impl CompilerConfig {
    /// Paper-default configuration at the given MID.
    ///
    /// # Panics
    ///
    /// Panics if `mid < 1.0` (atoms closer than one lattice site apart
    /// do not exist).
    pub fn new(mid: f64) -> Self {
        assert!(mid >= 1.0, "maximum interaction distance must be >= 1");
        CompilerConfig {
            mid,
            restriction: RestrictionPolicy::HalfDistance,
            native_multiqubit: true,
            max_native_arity: 3,
            lookahead_depth: 20,
            max_steps_per_gate: 64,
        }
    }

    /// Replaces the largest native gate arity (≥ 3).
    ///
    /// # Panics
    ///
    /// Panics if `arity < 3` (use `with_native_multiqubit(false)` for
    /// a two-qubit gate set).
    pub fn with_max_native_arity(mut self, arity: usize) -> Self {
        assert!(arity >= 3, "native arity below 3 means a 2q gate set");
        self.max_native_arity = arity;
        self
    }

    /// Replaces the restriction policy.
    pub fn with_restriction(mut self, policy: RestrictionPolicy) -> Self {
        self.restriction = policy;
        self
    }

    /// Enables or disables native multiqubit gates.
    pub fn with_native_multiqubit(mut self, native: bool) -> Self {
        self.native_multiqubit = native;
        self
    }

    /// Replaces the lookahead window.
    pub fn with_lookahead_depth(mut self, layers: usize) -> Self {
        self.lookahead_depth = layers;
        self
    }

    /// A stable 64-bit fingerprint of every field that influences
    /// compilation output. Two configs with equal fingerprints produce
    /// identical schedules for the same circuit and grid; the
    /// experiment engine keys its memoized compilation cache on this.
    pub fn fingerprint(&self) -> u64 {
        use na_circuit::fingerprint::fnv1a_extend;
        let restriction_words: (u64, u64) = match self.restriction {
            RestrictionPolicy::None => (0, 0),
            RestrictionPolicy::HalfDistance => (1, 0),
            RestrictionPolicy::FullDistance => (2, 0),
            RestrictionPolicy::Constant(c) => (3, c.to_bits()),
        };
        let mut h = fnv1a_extend(0xcbf2_9ce4_8422_2325, self.mid.to_bits());
        h = fnv1a_extend(h, restriction_words.0);
        h = fnv1a_extend(h, restriction_words.1);
        h = fnv1a_extend(h, u64::from(self.native_multiqubit));
        h = fnv1a_extend(h, self.max_native_arity as u64);
        h = fnv1a_extend(h, self.lookahead_depth as u64);
        h = fnv1a_extend(h, self.max_steps_per_gate as u64);
        h
    }
}

impl Default for CompilerConfig {
    /// MID 3 — the mid-range point the paper's error analysis uses.
    fn default() -> Self {
        CompilerConfig::new(3.0)
    }
}

/// Errors produced by [`compile`](crate::compile).
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// More program qubits than usable atoms.
    ProgramTooLarge {
        /// Program qubits required.
        program: u32,
        /// Usable atoms available.
        usable: usize,
    },
    /// Two qubits that must interact sit in different connected
    /// components of the interaction graph.
    Disconnected,
    /// The router can never finish: its state repeated with no gate
    /// completed in between, so it is cycling. Holey grids produce this
    /// routinely (a recompile campaign's grids between reloads). Also
    /// returned if the step budget
    /// ([`CompilerConfig::max_steps_per_gate`]) runs out first.
    RoutingStuck {
        /// Timesteps executed before giving up: the step at which the
        /// repeat was found, or the budget.
        steps: usize,
    },
    /// A gate's operands can never be brought within the MID (e.g. a
    /// 3-qubit gate at MID 1, where no three distinct sites are
    /// pairwise within distance 1).
    UnroutableGate {
        /// Arity of the offending gate.
        arity: usize,
    },
    /// The job's cooperative deadline ([`na_faults::check_deadline`])
    /// elapsed at a compile stage boundary or in the campaign shot
    /// loop. Transient by definition: retrying with a larger budget
    /// may succeed, so the engine's compile cache never memoizes it.
    DeadlineExceeded,
    /// An armed [`na_faults`] failpoint injected this error (chaos
    /// testing only; never produced in production configurations).
    /// Transient like [`CompileError::DeadlineExceeded`] — not cached.
    Injected {
        /// The failpoint site that fired.
        site: String,
    },
    /// The in-line `verify` pass rejected the schedule it had just
    /// produced — a compiler bug by definition. Only emitted by
    /// self-checking compiles (`verify` on in
    /// [`run_passes`](crate::run_passes)); [`compile`](crate::compile)
    /// leaves verification to its callers.
    VerifyFailed {
        /// The rendered [`VerifyError`](crate::VerifyError).
        detail: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::ProgramTooLarge { program, usable } => {
                write!(
                    f,
                    "program needs {program} qubits but only {usable} atoms are usable"
                )
            }
            CompileError::Disconnected => {
                write!(
                    f,
                    "interaction graph is disconnected at this interaction distance"
                )
            }
            CompileError::RoutingStuck { steps } => {
                write!(f, "router made no progress after {steps} timesteps")
            }
            CompileError::UnroutableGate { arity } => {
                write!(
                    f,
                    "no placement can bring a {arity}-qubit gate within interaction distance"
                )
            }
            CompileError::DeadlineExceeded => write!(f, "job deadline exceeded"),
            CompileError::Injected { site } => write!(f, "injected fault at {site}"),
            CompileError::VerifyFailed { detail } => {
                write!(f, "schedule verification failed: {detail}")
            }
        }
    }
}

impl Error for CompileError {}

impl From<na_faults::DeadlineExceeded> for CompileError {
    fn from(_: na_faults::DeadlineExceeded) -> Self {
        CompileError::DeadlineExceeded
    }
}

impl From<na_faults::InjectedFault> for CompileError {
    fn from(fault: na_faults::InjectedFault) -> Self {
        CompileError::Injected { site: fault.site }
    }
}

impl CompileError {
    /// `true` for errors that describe the run, not the compilation
    /// point: a deadline or injected fault says nothing about whether
    /// the point compiles, so caches must not memoize it.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            CompileError::DeadlineExceeded | CompileError::Injected { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let cfg = CompilerConfig::new(5.0)
            .with_restriction(RestrictionPolicy::None)
            .with_native_multiqubit(false)
            .with_lookahead_depth(7);
        assert_eq!(cfg.mid, 5.0);
        assert!(cfg.restriction.is_none());
        assert!(!cfg.native_multiqubit);
        assert_eq!(cfg.lookahead_depth, 7);
    }

    #[test]
    fn default_is_paper_midpoint() {
        let cfg = CompilerConfig::default();
        assert_eq!(cfg.mid, 3.0);
        assert_eq!(cfg.restriction, RestrictionPolicy::HalfDistance);
        assert!(cfg.native_multiqubit);
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn sub_unit_mid_panics() {
        CompilerConfig::new(0.5);
    }

    #[test]
    fn errors_display() {
        let e = CompileError::ProgramTooLarge {
            program: 30,
            usable: 20,
        };
        assert!(e.to_string().contains("30"));
        assert!(CompileError::Disconnected
            .to_string()
            .contains("disconnected"));
        assert!(CompileError::RoutingStuck { steps: 9 }
            .to_string()
            .contains('9'));
        assert!(CompileError::UnroutableGate { arity: 3 }
            .to_string()
            .contains('3'));
        assert_eq!(
            CompileError::DeadlineExceeded.to_string(),
            "job deadline exceeded"
        );
        assert_eq!(
            CompileError::Injected { site: "x.y".into() }.to_string(),
            "injected fault at x.y"
        );
        assert_eq!(
            CompileError::VerifyFailed {
                detail: "final mapping mismatch".into()
            }
            .to_string(),
            "schedule verification failed: final mapping mismatch"
        );
    }

    #[test]
    fn only_run_scoped_errors_are_transient() {
        assert!(CompileError::DeadlineExceeded.is_transient());
        assert!(CompileError::Injected { site: "s".into() }.is_transient());
        assert!(!CompileError::Disconnected.is_transient());
        assert!(!CompileError::UnroutableGate { arity: 3 }.is_transient());
        assert!(!CompileError::RoutingStuck { steps: 1 }.is_transient());
        assert!(!CompileError::VerifyFailed { detail: "d".into() }.is_transient());
    }

    #[test]
    fn faults_errors_convert_to_compile_errors() {
        let e: CompileError = na_faults::DeadlineExceeded.into();
        assert_eq!(e, CompileError::DeadlineExceeded);
        let e: CompileError = na_faults::InjectedFault { site: "a.b".into() }.into();
        assert_eq!(e, CompileError::Injected { site: "a.b".into() });
    }
}
