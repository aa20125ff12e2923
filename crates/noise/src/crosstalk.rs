//! Crosstalk modelling — the paper's declared-future-work extension.
//!
//! Paper §IV-A: "One additional side effect, which we do not model
//! here due to complexity of simulation is the effect of crosstalk. By
//! limiting which qubits can interact in parallel we can effectively
//! minimize the effects of crosstalk implicitly. This can be made more
//! explicit by artificially extending the restriction zone…"
//!
//! This module makes that explicit. During a Rydberg interaction,
//! light and level shifts leak onto *spectator* atoms near the
//! addressed operands; each exposure flips/dephases the spectator with
//! some small probability. Scheduling with larger restriction zones
//! spaces simultaneous gates out, trading depth (more decoherence) for
//! fewer exposures — exactly the knob the paper proposes. The
//! `ablation_crosstalk` figure (`figures ablation_crosstalk`) sweeps it.

use crate::NoiseParams;
use na_core::CompiledCircuit;
use serde::{Deserialize, Serialize};

/// Crosstalk strength parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrosstalkParams {
    /// Spectators within this Euclidean distance of any operand of a
    /// multiqubit gate are exposed.
    pub range: f64,
    /// Probability one exposure corrupts the spectator.
    pub error_per_exposure: f64,
}

impl Default for CrosstalkParams {
    /// Range 1.5 sites, 0.1% corruption per exposure — weak enough to
    /// be invisible on shallow circuits, decisive on deep parallel
    /// ones.
    fn default() -> Self {
        CrosstalkParams {
            range: 1.5,
            error_per_exposure: 1e-3,
        }
    }
}

/// Counts concurrent-drive exposures in a compiled schedule: for every
/// multiqubit (Rydberg) op `A`, every atom that is simultaneously
/// being addressed by a *different* op in the same timestep and sits
/// within [`CrosstalkParams::range`] of one of `A`'s operands.
///
/// Idle ground-state spectators are essentially immune (that is why
/// single-qubit gates pass freely through restriction zones in the
/// paper's model); the vulnerable atoms are those concurrently driven
/// nearby — exactly the pairs larger restriction zones push into
/// different timesteps.
pub fn crosstalk_exposures(compiled: &CompiledCircuit, params: &CrosstalkParams) -> u64 {
    let ops = compiled.ops();
    let mut exposures = 0u64;

    let mut i = 0usize;
    while i < ops.len() {
        let t = ops[i].time;
        let mut j = i;
        while j < ops.len() && ops[j].time == t {
            j += 1;
        }
        let step = &ops[i..j];

        for (ai, a) in step.iter().enumerate() {
            if a.arity() < 2 {
                continue; // Raman single-qubit addressing is clean
            }
            for (bi, b) in step.iter().enumerate() {
                if ai == bi {
                    continue;
                }
                for &s in &b.sites {
                    if a.sites.iter().any(|&o| o.distance(s) <= params.range) {
                        exposures += 1;
                    }
                }
            }
        }
        i = j;
    }
    exposures
}

/// Probability no crosstalk corruption occurs in one shot:
/// `(1 - ε)^exposures`.
pub fn crosstalk_success(compiled: &CompiledCircuit, params: &CrosstalkParams) -> f64 {
    let exposures = crosstalk_exposures(compiled, params);
    (1.0 - params.error_per_exposure).powi(exposures.min(i32::MAX as u64) as i32)
}

/// Combined shot success: gate errors × ground-state coherence ×
/// crosstalk.
pub fn success_with_crosstalk(
    compiled: &CompiledCircuit,
    noise: &NoiseParams,
    crosstalk: &CrosstalkParams,
) -> f64 {
    crate::success_probability(compiled, noise).probability()
        * crosstalk_success(compiled, crosstalk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use na_arch::{Grid, RestrictionPolicy};
    use na_circuit::{Circuit, Qubit};
    use na_core::{compile, CompilerConfig};

    fn dense_parallel_program() -> Circuit {
        let mut c = Circuit::new(12);
        for round in 0..3u32 {
            for i in (0..12u32).step_by(2) {
                let j = (i + 1 + round) % 12;
                if i != j {
                    c.cz(Qubit(i), Qubit(j));
                }
            }
        }
        c
    }

    #[test]
    fn single_isolated_gate_has_no_exposures() {
        let mut c = Circuit::new(2);
        c.cnot(Qubit(0), Qubit(1));
        let grid = Grid::new(8, 8);
        let compiled = compile(&c, &grid, &CompilerConfig::new(2.0)).unwrap();
        // Only two program qubits exist; both are operands.
        assert_eq!(
            crosstalk_exposures(&compiled, &CrosstalkParams::default()),
            0
        );
        assert_eq!(
            crosstalk_success(&compiled, &CrosstalkParams::default()),
            1.0
        );
    }

    #[test]
    fn packed_program_exposes_spectators() {
        let grid = Grid::new(4, 4);
        let compiled = compile(
            &dense_parallel_program(),
            &grid,
            &CompilerConfig::new(2.0).with_restriction(RestrictionPolicy::None),
        )
        .unwrap();
        let params = CrosstalkParams::default();
        let exposures = crosstalk_exposures(&compiled, &params);
        assert!(
            exposures > 0,
            "12 qubits on 16 sites must expose spectators"
        );
        let p = crosstalk_success(&compiled, &params);
        assert!(p < 1.0 && p > 0.0);
    }

    #[test]
    fn bigger_zones_reduce_exposures() {
        // The paper's proposed mechanism: enlarged zones serialize
        // neighbors, cutting simultaneous-exposure counts — at a depth
        // cost.
        let grid = Grid::new(4, 4);
        let program = dense_parallel_program();
        let loose = compile(
            &program,
            &grid,
            &CompilerConfig::new(2.0).with_restriction(RestrictionPolicy::None),
        )
        .unwrap();
        let strict = compile(
            &program,
            &grid,
            &CompilerConfig::new(2.0).with_restriction(RestrictionPolicy::Constant(2.0)),
        )
        .unwrap();
        let params = CrosstalkParams::default();
        let e_loose = crosstalk_exposures(&loose, &params);
        let e_strict = crosstalk_exposures(&strict, &params);
        assert!(
            e_strict < e_loose,
            "zones must cut exposures: {e_strict} vs {e_loose}"
        );
        assert!(
            strict.metrics().depth >= loose.metrics().depth,
            "price is depth"
        );
    }

    #[test]
    fn zero_range_means_zero_exposures() {
        let grid = Grid::new(4, 4);
        let compiled =
            compile(&dense_parallel_program(), &grid, &CompilerConfig::new(2.0)).unwrap();
        let params = CrosstalkParams {
            range: 0.0,
            error_per_exposure: 0.5,
        };
        assert_eq!(crosstalk_exposures(&compiled, &params), 0);
    }

    #[test]
    fn combined_success_is_bounded_by_both_factors() {
        let grid = Grid::new(4, 4);
        let compiled =
            compile(&dense_parallel_program(), &grid, &CompilerConfig::new(2.0)).unwrap();
        let noise = NoiseParams::neutral_atom(1e-3);
        let ct = CrosstalkParams::default();
        let combined = success_with_crosstalk(&compiled, &noise, &ct);
        assert!(combined <= crate::success_probability(&compiled, &noise).probability());
        assert!(combined <= crosstalk_success(&compiled, &ct));
        assert!(combined > 0.0);
    }
}
