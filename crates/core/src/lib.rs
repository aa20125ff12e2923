//! The neutral-atom-aware quantum compiler (the paper's primary
//! contribution, §III).
//!
//! The compiler extends lookahead mapping/routing/scheduling to account
//! for the three NA-specific hardware properties modelled in
//! [`na_arch`]:
//!
//! 1. **Variable interaction distance.** The hardware topology handed
//!    to the mapper is a unit-disc graph: program qubits may interact
//!    whenever their atoms are within the maximum interaction distance
//!    (MID), so larger MIDs mean fewer router SWAPs.
//! 2. **Restriction zones.** The scheduler packs each timestep with a
//!    greedy maximal set of gates whose restriction zones are pairwise
//!    disjoint; long-range gates occupy more area and serialize
//!    execution.
//! 3. **Native multiqubit gates.** Toffoli/CCZ compile to a single
//!    operation when every operand pair is within the MID; otherwise
//!    the driver lowers them to the 6-CNOT network first.
//!
//! Entry point: [`compile`]. The result is a [`CompiledCircuit`]: a
//! fully time-stamped physical schedule that downstream crates price
//! with an error model (`na-noise`) or replay under atom loss
//! (`na-loss`). [`verify`] checks every hardware constraint on a
//! compiled schedule and is used heavily by the test suite.
//!
//! # Example
//!
//! ```
//! use na_arch::Grid;
//! use na_circuit::{Circuit, Qubit};
//! use na_core::{compile, verify, CompilerConfig};
//!
//! let mut c = Circuit::new(3);
//! c.h(Qubit(0));
//! c.cnot(Qubit(0), Qubit(1));
//! c.toffoli(Qubit(0), Qubit(1), Qubit(2));
//!
//! let grid = Grid::new(10, 10);
//! let config = CompilerConfig::new(3.0);
//! let compiled = compile(&c, &grid, &config)?;
//! verify(&compiled, &grid)?;
//! assert!(compiled.num_timesteps() >= 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod compiler;
pub mod config;
pub mod lookahead;
pub mod mapping;
pub mod passes;
pub mod placement;
pub mod routing;
pub mod scheduler;

pub use compiler::{
    compile, compile_with, compile_with_report, lower_for, schedule_digest, verify,
    CompiledCircuit, CompiledMetrics, ScheduledOp, SiteList, VerifyError,
};
pub use config::{CompileError, CompilerConfig};
pub use lookahead::{InteractionWeights, WeightScratch};
pub use mapping::QubitMap;
pub use passes::{
    run as run_passes, ArtifactKey, ArtifactStore, PassArtifacts, PassReport, PassTiming, Reuse,
};
pub use placement::{
    circuit_weights, initial_layout, initial_placement, initial_placement_reference,
    initial_placement_with, placement_digest, PlacementScratch,
};
