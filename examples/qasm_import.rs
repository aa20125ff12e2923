//! Import an OpenQASM 2.0 circuit and drive it through the whole
//! pipeline: compile on the paper grid, price it with the success
//! model, and run a multi-shot loss campaign.
//!
//! ```console
//! cargo run --release --example qasm_import [path/to/circuit.qasm]
//! ```
//!
//! Defaults to the committed corpus adder (`examples/qasm/adder4.qasm`).

use natoms::arch::Grid;
use natoms::circuit::qasm::parse_qasm;
use natoms::compiler::{compile, verify, CompilerConfig};
use natoms::loss::{
    run_campaign_precompiled, CampaignConfig, InteractionSummary, LossModel, ShotTarget, Strategy,
};
use natoms::noise::{success_probability, NoiseParams};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "examples/qasm/adder4.qasm".to_string());
    let src = std::fs::read_to_string(&path)?;
    let circuit = parse_qasm(&src).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: {} qubits, {} gates, depth {}",
        circuit.num_qubits(),
        circuit.len(),
        circuit.metrics().depth
    );

    let grid = Grid::new(10, 10);
    let config = CompilerConfig::new(3.0);
    let compiled = compile(&circuit, &grid, &config)?;
    verify(&compiled, &grid)?;
    println!("compiled at MID {}: {}", config.mid, compiled.metrics());

    let success = success_probability(&compiled, &NoiseParams::neutral_atom(1e-3));
    println!(
        "predicted shot success at 0.1% two-qubit error: {:.4}",
        success.probability()
    );

    let campaign_cfg = CampaignConfig::new(3.0, Strategy::CompileSmallReroute)
        .with_target(ShotTarget::Attempts(200))
        .with_seed(1);
    // Compile-small strategies run over a compile one MID tighter.
    let small = CompilerConfig::new(campaign_cfg.strategy.compile_mid(3.0));
    let compiled = Arc::new(compile(&circuit, &grid, &small)?);
    let summary = Arc::new(InteractionSummary::of(&compiled));
    let loss = LossModel::new(1);
    let result = run_campaign_precompiled(&circuit, &grid, compiled, summary, loss, &campaign_cfg)?;
    println!(
        "campaign: {}/{} shots successful, {} lost to atom loss, {} reloads",
        result.shots_successful,
        result.shots_attempted,
        result.discarded_by_loss,
        result.ledger.reloads
    );
    Ok(())
}
