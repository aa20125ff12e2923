//! From loading physics to campaign wall-clock: derive the array
//! reload time with the atom-by-atom assembly simulator, feed it into
//! a loss campaign, and see how loading quality moves total overhead.
//!
//! Run with: `cargo run --release --example derived_reload`

use natoms::arch::{AssemblyParams, AssemblySimulator, Grid};
use natoms::benchmarks::Benchmark;
use natoms::compiler::{compile, CompilerConfig};
use natoms::loss::{
    run_campaign_precompiled, CampaignConfig, InteractionSummary, LossModel, OverheadTimes,
    ShotTarget, Strategy,
};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let grid = Grid::new(10, 10);
    let program = Benchmark::Cnu.generate(30, 0);

    println!("Deriving the 10x10 reload time from assembly physics:\n");
    println!(
        "{:>14} {:>10} {:>9} {:>9}",
        "load prob", "reload s", "attempts", "moves"
    );
    for load_probability in [0.40, 0.55, 0.70] {
        let params = AssemblyParams {
            load_probability,
            ..AssemblyParams::default()
        };
        let mut sim = AssemblySimulator::new(params, 7);
        let (_, report) = sim.assemble(10, 10, 3);
        println!(
            "{load_probability:>14} {:>10.3} {:>9} {:>9}",
            report.duration, report.attempts, report.moves
        );
    }

    println!("\nCampaign overhead with the physics-derived reload (500 shots):\n");
    // Both campaigns run over one compile, at compile-small's MID.
    let strategy = Strategy::CompileSmallReroute;
    let compile_cfg = CompilerConfig::new(strategy.compile_mid(4.0));
    let compiled = Arc::new(compile(&program, &grid, &compile_cfg)?);
    let summary = Arc::new(InteractionSummary::of(&compiled));
    for (label, overheads) in [
        ("paper constant 0.3 s", OverheadTimes::default()),
        (
            "derived from assembly",
            OverheadTimes::default().with_derived_reload(10, 10, 3, 7),
        ),
    ] {
        let mut cfg = CampaignConfig::new(4.0, strategy)
            .with_target(ShotTarget::Attempts(500))
            .with_two_qubit_error(5e-3)
            .with_seed(7);
        cfg.overheads = overheads;
        let (c, s) = (Arc::clone(&compiled), Arc::clone(&summary));
        let result = run_campaign_precompiled(&program, &grid, c, s, LossModel::new(7), &cfg)?;
        println!(
            "  {:<22} reload {:.3} s x{:<3} -> total overhead {:.2} s",
            label,
            cfg.overheads.reload,
            result.ledger.reloads,
            result.ledger.overhead_time()
        );
    }
    Ok(())
}
