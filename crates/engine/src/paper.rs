//! The paper's shared experimental setup (§III-C), in one place.
//!
//! Every harness — the figure registry in `na-bench`, the CLI's sweep
//! subcommands, and the engine's own tests — reads these constants
//! instead of keeping private copies, so they cannot drift apart.

use na_arch::{Grid, RestrictionPolicy};
use na_core::CompilerConfig;

/// The paper's device: a 10×10 atom array.
pub fn paper_grid() -> Grid {
    Grid::new(10, 10)
}

/// The MID sweep of Figs. 3–5: 1 … full-diagonal (≈13).
pub fn paper_mids() -> Vec<f64> {
    vec![1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 13.0]
}

/// Program-size sweep (qubits) used by the gate-count/depth figures.
pub fn paper_sizes() -> Vec<u32> {
    (10..=100).step_by(10).collect()
}

/// The compiler configuration used by the connectivity studies
/// (Figs. 3–5): everything lowered to 1- and 2-qubit gates so gate
/// counts isolate the SWAP effect.
pub fn two_qubit_cfg(mid: f64) -> CompilerConfig {
    CompilerConfig::new(mid).with_native_multiqubit(false)
}

/// Like [`two_qubit_cfg`] but with restriction zones disabled (the
/// "ideal parallel" baseline of Fig. 5).
pub fn two_qubit_cfg_no_zones(mid: f64) -> CompilerConfig {
    two_qubit_cfg(mid).with_restriction(RestrictionPolicy::None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_match_paper_setup() {
        assert_eq!(paper_grid().num_sites(), 100);
        assert_eq!(paper_mids().first(), Some(&1.0));
        assert_eq!(paper_mids().last(), Some(&13.0));
        assert_eq!(paper_sizes().len(), 10);
        assert!(!two_qubit_cfg(3.0).native_multiqubit);
        assert!(two_qubit_cfg_no_zones(3.0).restriction.is_none());
    }
}
