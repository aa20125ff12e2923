//! Predicted program success: neutral atoms against superconducting
//! hardware (Figs. 7–8), the crosstalk ablation, and the native-arity
//! extension.

use crate::connectivity::PARALLEL_BENCHMARKS;
use crate::{every, mid_headers, Claim, Figure, Table};
use na_arch::RestrictionPolicy;
use na_benchmarks::{Benchmark, Workload};
use na_circuit::{Circuit, Qubit};
use na_core::CompilerConfig;
use na_engine::{ExperimentSpec, Outcome, RunRecord, Task};
use na_noise::{largest_passing_size, log_spaced_errors, CrosstalkParams, NoiseParams};
use std::collections::HashMap;

fn swept_errors() -> Vec<f64> {
    log_spaced_errors(-5, -1, 2)
}

/// The architectures of Figs. 7–8 at two-qubit error `e`: the
/// neutral-atom device (NA, `true`) and the superconducting baseline.
fn architectures(e: f64) -> [(NoiseParams, bool); 2] {
    [
        (NoiseParams::neutral_atom(e), true),
        (NoiseParams::superconducting(e), false),
    ]
}

/// Pushes one `Success` job pricing `b` at `params`, compiled for the
/// NA device (MID 3, native multiqubit gates, f(d)=d/2 zones) or the
/// SC baseline (MID 1, no zones, 2-qubit gates only).
fn push_success(spec: &mut ExperimentSpec, b: Benchmark, size: u32, params: NoiseParams, na: bool) {
    let config = match na {
        true => CompilerConfig::new(3.0),
        false => CompilerConfig::new(1.0)
            .with_native_multiqubit(false)
            .with_restriction(RestrictionPolicy::None),
    };
    spec.push(b, size, 0, config, Task::Success { params });
}

/// Success probability by (benchmark, size, noise point, NA?), keyed
/// by the rows' own fields, not by push order.
fn success_by_point(records: &[RunRecord]) -> impl Fn(Benchmark, u32, NoiseParams, bool) -> f64 {
    let by_point: HashMap<(String, u32, u64, bool), f64> = records
        .iter()
        .map(|r| {
            let p2 = r.noise_p2.expect("success row carries its noise point");
            let key = (r.benchmark.clone(), r.size, p2.to_bits(), r.native);
            (key, r.probability().expect("success row"))
        })
        .collect();
    move |b, size, params, na| by_point[&(b.name().to_string(), size, params.p2.to_bits(), na)]
}

/// The table of Figs. 7 and 8: one row per swept error, an NA and an
/// SC column per benchmark, `cell(b, params, NA?)` in each.
fn arch_table(cell: impl Fn(Benchmark, NoiseParams, bool) -> String) {
    let mut headers: Vec<String> = vec!["2q error".into()];
    for b in Benchmark::ALL {
        headers.extend([format!("{b} NA"), format!("{b} SC")]);
    }
    let mut table = Table::new(headers);
    for e in swept_errors() {
        let mut row = vec![format!("{e:.1e}")];
        for b in Benchmark::ALL {
            row.extend(architectures(e).map(|(params, na)| cell(b, params, na)));
        }
        table.row(row);
    }
    table.print();
}

/// `value`'s `(NA, SC)` pair at every benchmark and swept error, as
/// [`every`]'s cells, each labelled with the benchmark, the error and
/// `what` the pair is.
fn arch_cells<T>(
    what: &str,
    value: impl Fn(Benchmark, NoiseParams, bool) -> T,
) -> Vec<(String, (T, T))> {
    let mut cells = Vec::new();
    for b in Benchmark::ALL {
        for e in swept_errors() {
            let [na, sc] = architectures(e).map(|(params, na)| value(b, params, na));
            cells.push((format!("{b} at 2q error {e:.1e} (NA, SC {what})"), (na, sc)));
        }
    }
    cells
}

/// Compilations (rows whose compile missed the cache) in a run.
fn compilations(records: &[RunRecord]) -> usize {
    records
        .iter()
        .filter(|r| r.cache_hit == Some(false))
        .count()
}

/// Fig. 7 — Program error rate vs. two-qubit gate error, NA vs SC.
///
/// 50-qubit programs (49 for CNU) compiled once per architecture. The
/// two-qubit error is swept from 1e-5 to 1e-1 and the predicted
/// *sample error rate* (1 − success probability) is reported — lower
/// is better, and the divergence point from 1.0 is where a device
/// becomes usable.
///
/// Each (benchmark, architecture) pair spawns one `Success` job per
/// error point; the engine's compilation cache compiles each pair
/// exactly once and re-prices the shared schedule.
pub(crate) const FIG07: Figure = Figure {
    id: "fig07",
    build: |spec, _| {
        for b in Benchmark::ALL {
            for (params, na) in swept_errors().into_iter().flat_map(architectures) {
                push_success(spec, b, 50, params, na);
            }
            // The "current hardware" markers.
            push_success(spec, b, 50, NoiseParams::neutral_atom_current(), true);
            push_success(spec, b, 50, NoiseParams::superconducting_rome(), false);
        }
    },
    render: |records| {
        // Ten compilations (5 benchmarks × 2 architectures) serve every
        // error point.
        assert_eq!(compilations(records), 10, "one compile per (b, arch)");
        let success = success_by_point(records);
        let error = |b, params, na| 1.0 - success(b, 50, params, na);

        println!("== Fig. 7: sample error rate (1 - success) on 50-qubit programs ==");
        println!("   NA: MID 3, native multiqubit, f(d)=d/2; SC: MID 1, 2q gates\n");
        arch_table(|b, params, na| format!("{:.3e}", error(b, params, na)));

        println!("\n-- markers --");
        for b in Benchmark::ALL {
            let sc = error(b, NoiseParams::superconducting_rome(), false);
            let na = error(b, NoiseParams::neutral_atom_current(), true);
            let b = b.name();
            println!("{b:<10} current SC (e=1.2e-2): error {sc:.3}; current NA (e=3.5e-2): error {na:.3}");
        }
    },
    claims: &[Claim {
        text: "NA error <= SC error at every swept error, and strictly below \
               wherever SC error < 1",
        check: |records| {
            let success = success_by_point(records);
            let cells = arch_cells("error", |b, params, na| 1.0 - success(b, 50, params, na));
            every(cells, |&(na, sc)| na <= sc && (na < sc || sc >= 1.0))
        },
    }],
};

fn fig08_sizes() -> Vec<u32> {
    (5..=100).step_by(5).collect()
}

/// Fig. 8's cells: the largest swept size of a benchmark whose
/// predicted success at a noise point reaches 2/3, if any size does.
fn largest_runnable(records: &[RunRecord]) -> impl Fn(Benchmark, NoiseParams, bool) -> Option<u32> {
    let success = success_by_point(records);
    move |b, params, na| {
        let series = fig08_sizes()
            .into_iter()
            .map(|s| (b.actual_size(s), success(b, s, params, na)));
        largest_passing_size(series, 2.0 / 3.0)
    }
}

/// Fig. 8 — Largest runnable program size vs. two-qubit gate error.
///
/// For each benchmark and architecture (NA MID-3 native vs SC MID-1
/// two-qubit), find the largest program size whose predicted success
/// probability exceeds 2/3 at each swept error rate.
///
/// This is the cache's showcase figure: (sizes × architectures)
/// compilations serve (sizes × architectures × error points) success
/// evaluations, compiled once each by the engine.
pub(crate) const FIG08: Figure = Figure {
    id: "fig08",
    build: |spec, _| {
        for b in Benchmark::ALL {
            for size in fig08_sizes() {
                for (params, na) in swept_errors().into_iter().flat_map(architectures) {
                    push_success(spec, b, size, params, na);
                }
            }
        }
    },
    render: |records| {
        // One compilation per (benchmark, size, architecture).
        let compiles = Benchmark::ALL.len() * fig08_sizes().len() * 2;
        assert_eq!(compilations(records), compiles, "one compile per point");
        let largest = largest_runnable(records);

        println!("== Fig. 8: largest runnable size at success >= 2/3 ==");
        println!("   NA: MID 3, native multiqubit; SC: MID 1, 2q gates\n");
        arch_table(|b, params, na| largest(b, params, na).map_or("-".into(), |s| s.to_string()));
    },
    claims: &[Claim {
        text: "NA's largest runnable size >= SC's for every benchmark at every swept \
               error, with no runnable size counted as 0",
        check: |records| {
            let largest = largest_runnable(records);
            let cells = arch_cells("size", |b, params, na| largest(b, params, na).unwrap_or(0));
            every(cells, |&(na, sc)| na >= sc)
        },
    }],
};

const CROSSTALK_POLICIES: [(&str, RestrictionPolicy); 5] = [
    ("none", RestrictionPolicy::None),
    ("d/2 (paper)", RestrictionPolicy::HalfDistance),
    ("d", RestrictionPolicy::FullDistance),
    ("const 2.0", RestrictionPolicy::Constant(2.0)),
    ("const 3.0", RestrictionPolicy::Constant(3.0)),
];

fn crosstalk_points() -> impl Iterator<Item = (Benchmark, (&'static str, RestrictionPolicy))> {
    PARALLEL_BENCHMARKS
        .into_iter()
        .flat_map(|b| CROSSTALK_POLICIES.map(|policy| (b, policy)))
}

/// Ablation — crosstalk vs. restriction-zone size (the paper's
/// proposed-but-unmodelled mechanism, §IV-A).
///
/// Larger restriction zones serialize nearby gates: fewer spectator
/// exposures (less crosstalk) but more depth (more decoherence). This
/// sweeps the zone policy on the parallel benchmarks and reports both
/// factors plus the combined shot success, locating the optimum the
/// paper predicts exists.
///
/// One engine `Crosstalk` job per (benchmark, policy).
pub(crate) const ABLATION_CROSSTALK: Figure = Figure {
    id: "ablation_crosstalk",
    build: |spec, _| {
        for (b, (_, policy)) in crosstalk_points() {
            let cfg = CompilerConfig::new(3.0)
                .with_native_multiqubit(false)
                .with_restriction(policy);
            let task = Task::Crosstalk {
                params: NoiseParams::neutral_atom(1e-3),
                crosstalk: CrosstalkParams::default(),
            };
            spec.push(b, 40, 0, cfg, task);
        }
    },
    render: render_crosstalk,
    claims: &[],
};

fn render_crosstalk(records: &[RunRecord]) {
    let ct = CrosstalkParams::default();
    println!("== Ablation: crosstalk vs restriction-zone size ==");
    println!(
        "   size 40, MID 3, 2q error 1e-3, crosstalk range {} / eps {}\n",
        ct.range, ct.error_per_exposure
    );
    let mut table = Table::new([
        "benchmark",
        "policy",
        "depth",
        "exposures",
        "p(no crosstalk)",
        "p(gates+coh)",
        "combined",
    ]);
    for ((b, (name, _)), r) in crosstalk_points().zip(records) {
        match &r.outcome {
            Outcome::Crosstalk {
                depth,
                exposures,
                p_crosstalk,
                p_standard,
                p_combined,
            } => table.row(vec![
                b.name().into(),
                name.to_string(),
                depth.to_string(),
                exposures.to_string(),
                format!("{p_crosstalk:.4}"),
                format!("{p_standard:.4}"),
                format!("{p_combined:.4}"),
            ]),
            other => panic!("{b} {name}: {other:?}"),
        }
    }
    table.print();
    println!("\nThe paper's implicit claim: zones buy crosstalk suppression with");
    println!("serialization; the combined column shows where the trade balances.");
}

const ARITIES: [(&str, usize); 4] = [("3 (paper)", 3), ("5", 5), ("9", 9), ("unlimited", 64)];
const ARITY_MIDS: [f64; 5] = [2.0, 3.0, 5.0, 8.0, 13.0];
const CONTROL_COUNTS: [u32; 3] = [4, 8, 16];

/// A raw n-controlled-X without pre-lowering: the compiler decides.
fn raw_cnu(controls: u32) -> Circuit {
    let mut c = Circuit::new(controls + 1);
    c.cnx((0..controls).map(Qubit).collect(), Qubit(controls));
    c
}

/// Extension — gates larger than Toffoli (paper §IV-B, unexplored
/// there).
///
/// "While not explored explicitly in this work, larger control gates
/// will require increasingly larger interaction distances. In general,
/// the more qubits interacting, the larger the restriction zone,
/// increasing serialization if the qubits are too spread out."
///
/// This compiles the CNU benchmark with native gate arity capped at 3
/// (the paper's setting), 5, 9, and unlimited, across MIDs. A `CNU`
/// over c controls collapses to a single (c+1)-operand gate when the
/// cap allows it — but an arity-k gate needs k atoms pairwise within
/// the MID (infeasible below √2·(⌈√k⌉−1)) and claims a proportionally
/// large restriction zone.
///
/// Raw (non-benchmark) circuits flow through the engine as
/// `Workload::Custom`; unroutable points come back as `Failed`
/// rows, rendered "-".
pub(crate) const EXT_NATIVE_ARITY: Figure = Figure {
    id: "ext_native_arity",
    build: |spec, _| {
        for controls in CONTROL_COUNTS {
            let workload = Workload::custom(format!("CNU-{controls}c"), raw_cnu(controls));
            for (_, arity) in ARITIES {
                for mid in ARITY_MIDS {
                    let cfg = CompilerConfig::new(mid).with_max_native_arity(arity);
                    let task = Task::Success {
                        params: NoiseParams::neutral_atom(1e-3),
                    };
                    spec.push(workload.clone(), controls + 1, 0, cfg, task);
                }
            }
        }
    },
    render: render_native_arity,
    claims: &[],
};

fn render_native_arity(records: &[RunRecord]) {
    let mut rows = records.iter();
    for controls in CONTROL_COUNTS {
        println!("\n== Extension: native arity sweep, CNU with {controls} controls ==\n");
        let mut table = Table::new(mid_headers("native arity", &ARITY_MIDS));
        println!("   cells: gates/depth/success ('-' = gate unroutable at this MID)\n");
        for (label, arity) in ARITIES {
            let mut row = vec![label.to_string()];
            for mid in ARITY_MIDS {
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
