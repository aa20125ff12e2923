//! Fig. 12 — Overhead time for 500 shots (CNU).
//!
//! A 29-qubit CNU runs 500 shots per strategy and MID under the paper's
//! loss rates (2% measured loss, 6.8e-5 vacuum). Overhead decomposes
//! into reload (dominant), fluorescence, remap/fixup, and — for the
//! recompile strategy, shown for reference as the paper excludes it —
//! compilation. Reloads cost 0.3 s, fluorescence 6 ms.
//!
//! Each (strategy, cost model, MID) cell is one engine `Campaign` job.

use na_bench::{harness_engine, maybe_emit_jsonl, paper_grid, Table};
use na_benchmarks::Benchmark;
use na_core::CompilerConfig;
use na_engine::{ExperimentSpec, LossSpec, Outcome, Task};
use na_loss::{CampaignConfig, OverheadTimes, RecompileCost, ShotTarget, Strategy};

fn main() {
    let mids = [2.0, 3.0, 4.0, 5.0, 6.0];
    let strategies = [
        Strategy::VirtualRemap,
        Strategy::CompileSmall,
        Strategy::AlwaysReload,
        Strategy::MinorReroute,
        Strategy::CompileSmallReroute,
        Strategy::FullRecompile,
    ];

    // The paper's Python compiler took >0.3 s per recompile, making
    // recompilation slower than always reloading; our Rust compiler
    // recompiles in milliseconds. Show both cost models.
    let fixed_recompile = OverheadTimes {
        recompile: RecompileCost::Fixed(1.5),
        ..OverheadTimes::default()
    };
    let rows_spec: Vec<(Strategy, String, OverheadTimes)> = strategies
        .iter()
        .flat_map(|&strategy| {
            let mut rows = vec![(
                strategy,
                strategy.name().to_string(),
                OverheadTimes::default(),
            )];
            if strategy == Strategy::FullRecompile {
                rows.push((
                    strategy,
                    "recompile @1.5s (paper-era)".to_string(),
                    fixed_recompile,
                ));
            }
            rows
        })
        .collect();

    let mut spec = ExperimentSpec::new("fig12", paper_grid());
    for (strategy, _, overheads) in &rows_spec {
        for &mid in &mids {
            if !strategy.supports_mid(mid) {
                continue;
            }
            let mut cfg = CampaignConfig::new(mid, *strategy)
                .with_target(ShotTarget::Attempts(500))
                .with_two_qubit_error(0.035)
                .with_seed(12);
            cfg.overheads = *overheads;
            spec.push(
                Benchmark::Cnu,
                30,
                0,
                CompilerConfig::new(mid),
                Task::Campaign {
                    config: cfg,
                    loss: LossSpec::new(12),
                },
            );
        }
    }
    let records = harness_engine().run(&spec);
    if maybe_emit_jsonl(&records) {
        return;
    }

    println!("== Fig. 12: overhead time for 500 shots, 29-qubit CNU ==");
    println!("   columns: total overhead s (reload s / fluorescence s / other s) [reload count]\n");
    let mut headers: Vec<String> = vec!["strategy".into()];
    headers.extend(mids.iter().map(|m| format!("MID {m}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);

    // Consume rows with the same loop shape that pushed them.
    let mut rows = records.iter();
    for (strategy, label, _) in &rows_spec {
        let mut row = vec![label.clone()];
        for &mid in &mids {
            if !strategy.supports_mid(mid) {
                row.push("-".into());
                continue;
            }
            let r = rows.next().expect("row per job");
            assert_eq!(
                r.strategy.as_deref(),
                Some(strategy.name()),
                "row order drift"
            );
            let l = match &r.outcome {
                Outcome::Campaign(result) => &result.ledger,
                other => panic!("{strategy} MID {mid}: {other:?}"),
            };
            let other = l.remap_time + l.fixup_time + l.recompile_time;
            row.push(format!(
                "{:7.2} ({:6.2}/{:4.2}/{:6.4}) [{}]",
                l.overhead_time(),
                l.reload_time,
                l.fluorescence_time,
                other,
                l.reloads
            ));
        }
        table.row(row);
    }
    table.print();

    println!("\nNote: 'recompile' is charged at the measured Rust compile time; the");
    println!("paper's Python compiler exceeded the 0.3 s reload, ours does not.");
}
