//! Extension — gates larger than Toffoli (paper §IV-B, unexplored
//! there).
//!
//! "While not explored explicitly in this work, larger control gates
//! will require increasingly larger interaction distances. In general,
//! the more qubits interacting, the larger the restriction zone,
//! increasing serialization if the qubits are too spread out."
//!
//! This harness compiles the CNU benchmark with native gate arity
//! capped at 3 (the paper's setting), 5, 9, and unlimited, across
//! MIDs. A `CNU` over c controls collapses to a single (c+1)-operand
//! gate when the cap allows it — but an arity-k gate needs k atoms
//! pairwise within the MID (infeasible below √2·(⌈√k⌉−1)) and claims a
//! proportionally large restriction zone.
//!
//! Raw (non-benchmark) circuits flow through the engine as
//! `Workload::Custom`; unroutable points come back as `Failed`
//! rows, rendered "-".

use na_bench::{harness_engine, maybe_emit_jsonl, paper_grid, Table};
use na_benchmarks::Workload;
use na_circuit::{Circuit, Qubit};
use na_core::CompilerConfig;
use na_engine::{ExperimentSpec, Outcome, Task};
use na_noise::NoiseParams;

/// A raw n-controlled-X without pre-lowering: the compiler decides.
fn raw_cnu(controls: u32) -> Circuit {
    let mut c = Circuit::new(controls + 1);
    c.cnx((0..controls).map(Qubit).collect(), Qubit(controls));
    c
}

fn main() {
    let arities: Vec<(String, usize)> = vec![
        ("3 (paper)".into(), 3),
        ("5".into(), 5),
        ("9".into(), 9),
        ("unlimited".into(), 64),
    ];
    let mids = [2.0, 3.0, 5.0, 8.0, 13.0];
    let error = 1e-3;
    let control_counts = [4u32, 8, 16];

    let mut spec = ExperimentSpec::new("ext_native_arity", paper_grid());
    for &controls in &control_counts {
        let workload = Workload::custom(format!("CNU-{controls}c"), raw_cnu(controls));
        for (_, arity) in &arities {
            for &mid in &mids {
                let cfg = CompilerConfig::new(mid).with_max_native_arity(*arity);
                spec.push(
                    workload.clone(),
                    controls + 1,
                    0,
                    cfg,
                    Task::Success {
                        params: NoiseParams::neutral_atom(error),
                    },
                );
            }
        }
    }
    let records = harness_engine().run(&spec);
    if maybe_emit_jsonl(&records) {
        return;
    }

    let mut rows = records.iter();
    for &controls in &control_counts {
        println!("\n== Extension: native arity sweep, CNU with {controls} controls ==\n");
        let mut headers: Vec<String> = vec!["native arity".into()];
        for &mid in &mids {
            headers.push(format!("MID {mid}"));
        }
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut table = Table::new(&header_refs);
        println!("   cells: gates/depth/success ('-' = gate unroutable at this MID)\n");
        for (label, arity) in &arities {
            let mut row = vec![label.clone()];
            for &mid in &mids {
                let r = rows.next().expect("row per job");
                match &r.outcome {
                    Outcome::Success { metrics, breakdown } => row.push(format!(
                        "{}/{}/{:.3}",
                        metrics.total_gates(),
                        metrics.depth,
                        breakdown.probability()
                    )),
                    Outcome::Failed {
                        unroutable: true, ..
                    } => row.push("-".into()),
                    other => panic!("controls {controls} arity {arity} MID {mid}: {other:?}"),
                }
            }
            table.row(row);
        }
        table.print();
    }
    println!("\nLarger native gates collapse the Toffoli tree to one operation but");
    println!("demand larger MIDs and claim bigger zones; the success column shows");
    println!("where single-pulse fan-in stops paying (fidelity p3^(k-2)).");
}
