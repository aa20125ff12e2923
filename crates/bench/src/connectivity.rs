//! The connectivity study: what a longer maximum interaction distance
//! (MID) buys a compiled schedule in gates and depth (§III-A validation,
//! Figs. 3–6, and the lookahead and restriction-radius ablations).

use crate::{every, expect_metrics, mean_std, mid_headers, pct, Claim, Figure, Table};
use na_arch::RestrictionPolicy;
use na_benchmarks::Benchmark;
use na_core::{CompiledMetrics, CompilerConfig};
use na_engine::paper::{paper_mids, paper_sizes, two_qubit_cfg, two_qubit_cfg_no_zones};
use na_engine::{Engine, ExperimentSpec, Outcome, RunRecord, Task};
use std::collections::HashMap;

/// §III-A validation — MID-1 sanity check against a standard compiler.
///
/// The paper validated its compiler by setting MID = 1 with no
/// restriction zones and comparing against Qiskit's lookahead SWAP
/// pass. Qiskit is not available offline, so this figure reports the
/// quantities such a comparison checks: compiled gate count, SWAP
/// overhead, and depth for one serial (BV) and one parallel (CNU)
/// benchmark, alongside the pre-routing circuit metrics. SWAP overhead
/// on a 2D grid should sit well below one SWAP per gate for local-ish
/// circuits and the schedule must verify.
///
/// The engine's `Compile` rows carry both the lowered-source metrics
/// and the schedule metrics, so one sweep yields every column.
pub(crate) const VALIDATION_MID1: Figure = Figure {
    id: "validation_mid1",
    build: |spec, _| {
        let (benchmarks, sizes) = ([Benchmark::Bv, Benchmark::Cnu], [10, 30, 50]);
        spec.sweep(&benchmarks, &sizes, &[1.0], |_, _, mid| {
            Some((two_qubit_cfg_no_zones(mid), Task::Compile))
        });
    },
    render: render_validation,
    claims: &[Claim {
        text: "swaps per source gate < 1 on every row",
        check: |records| {
            let rows = records.iter().map(|r| {
                let cell = format!("{} size {}", r.benchmark, r.actual_size);
                (cell, compiled(r).2)
            });
            every(rows, |&per_gate| per_gate < 1.0)
        },
    }],
};

/// A `Compile` row's source and schedule metrics, and its SWAPs per
/// source gate.
fn compiled(r: &RunRecord) -> (&na_circuit::CircuitMetrics, &CompiledMetrics, f64) {
    match &r.outcome {
        Outcome::Compiled { source, metrics } => (
            source,
            metrics,
            metrics.swaps as f64 / source.total_gates() as f64,
        ),
        other => panic!("{} {}: {other:?}", r.benchmark, r.size),
    }
}

fn render_validation(records: &[RunRecord]) {
    println!("== Validation: MID 1, no restriction zones (Qiskit-equivalent setup) ==\n");
    let mut table = Table::new([
        "benchmark",
        "size",
        "source gates",
        "source depth",
        "compiled gates",
        "swaps",
        "depth",
        "swap/gate",
    ]);
    for r in records {
        let (src, m, swaps_per_gate) = compiled(r);
        table.row(vec![
            r.benchmark.clone(),
            r.actual_size.to_string(),
            src.total_gates().to_string(),
            src.depth.to_string(),
            m.total_gates().to_string(),
            m.swaps.to_string(),
            m.depth.to_string(),
            format!("{swaps_per_gate:.2}"),
        ]);
    }
    table.print();
}

/// `(benchmark, size, MID, flag) -> value` over compile rows; `flag`
/// tells a figure's two compilations of a point apart (zones, native).
type Points<T> = HashMap<(String, u32, u32, bool), T>;

fn points<T>(
    records: &[RunRecord],
    flag: fn(&RunRecord) -> bool,
    value: impl Fn(&CompiledMetrics) -> T,
) -> Points<T> {
    let point = |r: &RunRecord| (r.benchmark.clone(), r.size, r.mid as u32, flag(r));
    records
        .iter()
        .map(|r| (point(r), value(expect_metrics(r))))
        .collect()
}

fn at<T: Copy>(points: &Points<T>, b: Benchmark, size: u32, mid: f64, flag: bool) -> T {
    points[&(b.name().to_string(), size, mid as u32, flag)]
}

/// A left panel of Figs. 3–5: per benchmark and MID, the mean and σ
/// over the paper's sizes of a fractional `change(b, size, mid)`.
fn mean_change(mids: &[f64], change: impl Fn(Benchmark, u32, f64) -> f64) -> Vec<Cell> {
    let (sizes, mut cells) = (paper_sizes(), Vec::new());
    for b in Benchmark::ALL {
        for &mid in mids {
            let changes: Vec<f64> = sizes.iter().map(|&s| change(b, s, mid)).collect();
            cells.push((b, mid, mean_std(&changes)));
        }
    }
    cells
}

/// One left-panel cell: benchmark, MID, mean and σ.
type Cell = (Benchmark, f64, (f64, f64));

fn print_mean_change(title: &str, mids: &[f64], cells: Vec<Cell>) {
    println!("== {title}, mean over sizes ==\n");
    let mut table = Table::new(mid_headers("benchmark", mids));
    for row in cells.chunks(mids.len()) {
        let mut cells = vec![row[0].0.name().to_string()];
        for (_, _, (mean, std)) in row {
            cells.push(format!("{} (σ {:.1})", pct(*mean), std * 100.0));
        }
        table.row(cells);
    }
    table.print();
}

/// A figure of savings over MID 1 in one schedule metric (left) and
/// one benchmark's series (right). Every program is lowered to 1- and
/// 2-qubit gates so the reduction isolates SWAP savings.
struct Savings {
    left: &'static str,
    right: &'static str,
    series: Benchmark,
    value: fn(&CompiledMetrics) -> f64,
}

/// Fig. 3 — Post-compilation gate count vs. maximum interaction
/// distance; the right panel is the BV series.
const GATE_SAVINGS: Savings = Savings {
    left: "Fig. 3 (left): gate-count savings over MID=1",
    right: "Fig. 3 (right): BV gate count by size and MID",
    series: Benchmark::Bv,
    value: |m| m.total_gates() as f64,
};

/// Fig. 4 — Post-compilation depth vs. maximum interaction distance;
/// the right panel is the QFT-Adder series (the paper highlights it
/// to show restriction zones eroding the benefit at large MIDs).
const DEPTH_SAVINGS: Savings = Savings {
    left: "Fig. 4 (left): depth savings over MID=1",
    right: "Fig. 4 (right): QFT-Adder depth by size and MID",
    series: Benchmark::QftAdder,
    value: |m| f64::from(m.depth),
};

fn mid_sweep(spec: &mut ExperimentSpec, _: &Engine) {
    spec.sweep(
        &Benchmark::ALL,
        &paper_sizes(),
        &paper_mids(),
        |_, _, mid| Some((two_qubit_cfg(mid), Task::Compile)),
    );
}

pub(crate) const FIG03: Figure = Figure {
    id: "fig03",
    build: mid_sweep,
    render: |records| GATE_SAVINGS.render(records),
    claims: &[Claim {
        text: "gate-count savings over MID 1 are > 0 at every MID >= 2 and \
               non-decreasing in MID, for every benchmark",
        check: |records| {
            let mut steps = Vec::new();
            for row in GATE_SAVINGS.savings(records).chunks(mids_from_2().len()) {
                let mut previous = 0.0;
                for &(b, mid, (mean, _)) in row {
                    let cell = format!("{b} MID {mid} (savings at the MID before, here)");
                    steps.push((cell, (previous, mean)));
                    previous = mean;
                }
            }
            every(steps, |&(previous, mean)| mean > 0.0 && mean >= previous)
        },
    }],
};

/// Restriction zones erode the depth benefit at larger MIDs (see
/// [`DEPTH_SAVINGS`]); here CNU's, QAOA's and QFT-Adder's savings turn
/// negative. The claim pins the two benchmarks whose savings stay
/// positive at every MID, BV and Cuccaro.
pub(crate) const FIG04: Figure = Figure {
    id: "fig04",
    build: mid_sweep,
    render: |records| DEPTH_SAVINGS.render(records),
    claims: &[Claim {
        text: "depth savings over MID 1 are > 0 at every MID >= 2 for BV and Cuccaro",
        check: |records| {
            let cells = DEPTH_SAVINGS
                .savings(records)
                .into_iter()
                .filter(|(b, _, _)| matches!(b, Benchmark::Bv | Benchmark::Cuccaro))
                .map(|(b, mid, (mean, _))| (format!("{b} MID {mid}"), mean));
            every(cells, |&mean| mean > 0.0)
        },
    }],
};

impl Savings {
    fn savings(&self, records: &[RunRecord]) -> Vec<Cell> {
        let values = points(records, |_| false, self.value);
        let value = |b, size, mid| at(&values, b, size, mid, false);
        mean_change(&mids_from_2(), |b, s, mid| {
            (value(b, s, 1.0) - value(b, s, mid)) / value(b, s, 1.0)
        })
    }

    fn render(&self, records: &[RunRecord]) {
        let mids = paper_mids();
        print_mean_change(self.left, &mids_from_2(), self.savings(records));
        println!("\n== {} ==\n", self.right);
        let values = points(records, |_| false, self.value);
        let mut table = Table::new(mid_headers("size", &mids));
        for size in paper_sizes() {
            let mut row = vec![size.to_string()];
            for &mid in &mids {
                row.push(at(&values, self.series, size, mid, false).to_string());
            }
            table.row(row);
        }
        table.print();
    }
}

/// The MIDs above the MID-1 baseline: the columns of Figs. 3–4's
/// savings and of Fig. 5 (zones at MID 1 are trivial).
fn mids_from_2() -> Vec<f64> {
    paper_mids().into_iter().skip(1).collect()
}

/// Fig. 5 — Depth increase due to restriction-zone serialization.
///
/// Each program is compiled twice at the same MID: once with the
/// realistic `f(d) = d/2` zones and once with no zones (mimicking an
/// ideal architecture that only forbids overlapping operands). Both
/// compilations have similar gate counts; the depth gap is the price
/// of the zones. Left: percent depth increase per benchmark/MID.
/// Right: the QAOA series the paper highlights (solid = zones,
/// dashed = ideal).
///
/// Both configurations of every point go into one engine spec, so the
/// with/without pairs compile concurrently.
pub(crate) const FIG05: Figure = Figure {
    id: "fig05",
    build: |spec, _| {
        let (sizes, mids) = (paper_sizes(), mids_from_2());
        spec.sweep(&Benchmark::ALL, &sizes, &mids, |_, _, mid| {
            Some((two_qubit_cfg(mid), Task::Compile))
        });
        spec.sweep(&Benchmark::ALL, &sizes, &mids, |_, _, mid| {
            Some((two_qubit_cfg_no_zones(mid), Task::Compile))
        });
    },
    render: render_fig05,
    claims: &[Claim {
        text: "the mean depth increase from zones is >= 0 in every cell",
        check: |records| {
            let cells = zone_increase(records);
            let cells = cells
                .iter()
                .map(|(b, mid, (mean, _))| (format!("{b} MID {mid}"), mean));
            every(cells, |&&mean| mean >= 0.0)
        },
    }],
};

fn zone_depths(records: &[RunRecord]) -> Points<u32> {
    points(records, |r| r.restriction != "none", |m| m.depth)
}

fn depth_increase(with: u32, without: u32) -> f64 {
    (f64::from(with) - f64::from(without)) / f64::from(without)
}

fn zone_increase(records: &[RunRecord]) -> Vec<Cell> {
    let depths = zone_depths(records);
    mean_change(&mids_from_2(), |b, s, mid| {
        depth_increase(at(&depths, b, s, mid, true), at(&depths, b, s, mid, false))
    })
}

fn render_fig05(records: &[RunRecord]) {
    let title = "Fig. 5 (left): depth increase from restriction zones";
    print_mean_change(title, &mids_from_2(), zone_increase(records));

    println!("\n== Fig. 5 (right): QAOA depth, zones (solid) vs ideal (dashed) ==\n");
    let depths = zone_depths(records);
    let mut series = Table::new(["size", "MID", "depth zones", "depth ideal", "gap"]);
    for mid in mids_from_2() {
        for size in [20, 40, 50, 60, 80, 100] {
            let with = at(&depths, Benchmark::Qaoa, size, mid, true);
            let without = at(&depths, Benchmark::Qaoa, size, mid, false);
            series.row(vec![
                size.to_string(),
                format!("{mid}"),
                with.to_string(),
                without.to_string(),
                pct(depth_increase(with, without)),
            ]);
        }
    }
    series.print();
}

const NATIVE_SIZES: [u32; 7] = [5, 10, 20, 40, 60, 80, 100];

/// Fig. 6 — Native three-qubit gates vs. decomposition.
///
/// CNU and Cuccaro (the Toffoli-built benchmarks) compiled two ways at
/// each MID: solid = native Toffolis, dashed = every Toffoli lowered
/// to the 6-CNOT network before mapping. Reports both gate count and
/// depth across sizes. Native compilation requires MID ≥ √2, so the
/// native column starts at MID 2.
pub(crate) const FIG06: Figure = Figure {
    id: "fig06",
    build: |spec, _| {
        let (benchmarks, mids) = ([Benchmark::Cnu, Benchmark::Cuccaro], paper_mids());
        spec.sweep(&benchmarks, &NATIVE_SIZES, &mids, |_, _, mid| {
            (mid >= 2.0).then(|| (CompilerConfig::new(mid), Task::Compile))
        });
        spec.sweep(&benchmarks, &NATIVE_SIZES, &mids, |_, _, mid| {
            Some((two_qubit_cfg(mid), Task::Compile))
        });
    },
    render: render_fig06,
    claims: &[Claim {
        text: "native CNU gate count < decomposed at every size and every MID >= 2",
        check: |records| {
            let gates = points(records, |r| r.native, CompiledMetrics::total_gates);
            let mut cells = Vec::new();
            for mid in paper_mids().into_iter().filter(|&m| m >= 2.0) {
                for s in NATIVE_SIZES {
                    let pair = [true, false].map(|n| at(&gates, Benchmark::Cnu, s, mid, n));
                    cells.push((format!("size {s} MID {mid} (native, decomposed)"), pair));
                }
            }
            every(cells, |&[native, decomposed]| native < decomposed)
        },
    }],
};

fn render_fig06(records: &[RunRecord]) {
    let mids = paper_mids();
    let gates = points(records, |r| r.native, CompiledMetrics::total_gates);
    let depths = points(records, |r| r.native, |m| m.depth as usize);
    // Native compilation needs MID ≥ 2: (MID, native?) columns.
    let columns: Vec<(f64, bool)> = mids
        .iter()
        .flat_map(|&mid| [(mid, true), (mid, false)])
        .filter(|&(mid, native)| mid >= 2.0 || !native)
        .collect();
    for b in [Benchmark::Cnu, Benchmark::Cuccaro] {
        for (metric, values) in [("gate count", &gates), ("depth", &depths)] {
            println!("\n== Fig. 6: {b} {metric}, native (n) vs decomposed (d) ==\n");
            let headers = columns
                .iter()
                .map(|&(mid, native)| format!("{} MID {mid}", if native { "n" } else { "d" }));
            let mut table = Table::new(std::iter::once("size".to_string()).chain(headers));
            for size in NATIVE_SIZES {
                let mut row = vec![b.actual_size(size).to_string()];
                for &(mid, native) in &columns {
                    row.push(at(values, b, size, mid, native).to_string());
                }
                table.row(row);
            }
            table.print();
        }
    }
}

/// Ablation — lookahead window size.
///
/// The lookahead weight `w(u,v) = Σ e^{-|ℓc-ℓ|}` decays exponentially,
/// so the window can be truncated. This sweeps the window from 0
/// layers (frontier-only, no lookahead) upward and reports compiled
/// gate count and depth, showing where the quality saturates.
pub(crate) const ABLATION_LOOKAHEAD: Figure = Figure {
    id: "ablation_lookahead",
    build: |spec, _| {
        for b in Benchmark::ALL {
            for w in LOOKAHEAD_WINDOWS {
                let cfg = CompilerConfig::new(3.0).with_lookahead_depth(w);
                spec.push(b, 40, 0, cfg, Task::Compile);
            }
        }
    },
    render: |records| {
        println!("== Ablation: lookahead window (MID 3, native, size 40) ==\n");
        let mut table = Table::new(["benchmark", "window", "gates", "swaps", "depth"]);
        let windows = Benchmark::ALL
            .iter()
            .flat_map(|b| LOOKAHEAD_WINDOWS.map(|w| (b, w)));
        for ((b, w), r) in windows.zip(records) {
            let m = expect_metrics(r);
            table.row(vec![
                b.name().into(),
                w.to_string(),
                m.total_gates().to_string(),
                m.swaps.to_string(),
                m.depth.to_string(),
            ]);
        }
        table.print();
    },
    claims: &[],
};

const LOOKAHEAD_WINDOWS: [usize; 7] = [0, 1, 2, 5, 10, 20, 50];

/// The parallel benchmarks the zone ablations sweep.
pub(crate) const PARALLEL_BENCHMARKS: [Benchmark; 3] =
    [Benchmark::Qaoa, Benchmark::QftAdder, Benchmark::Cnu];

const RESTRICTION_POLICIES: [(&str, RestrictionPolicy); 5] = [
    ("none", RestrictionPolicy::None),
    ("d/2 (paper)", RestrictionPolicy::HalfDistance),
    ("d", RestrictionPolicy::FullDistance),
    ("const 1.0", RestrictionPolicy::Constant(1.0)),
    ("const 2.0", RestrictionPolicy::Constant(2.0)),
];

/// Ablation — restriction-radius function.
///
/// The paper models the blocked radius as `f(d) = d/2` but notes real
/// devices may differ. This compares `f(d) = 0` (ideal), `d/2`, `d`,
/// and constant radii on the parallel benchmarks, showing how the
/// zone model trades depth for crosstalk safety.
pub(crate) const ABLATION_RESTRICTION: Figure = Figure {
    id: "ablation_restriction",
    build: |spec, _| {
        for (b, mid, (_, policy)) in restriction_points() {
            let cfg = CompilerConfig::new(mid)
                .with_native_multiqubit(false)
                .with_restriction(policy);
            spec.push(b, 50, 0, cfg, Task::Compile);
        }
    },
    render: |records| {
        println!("== Ablation: restriction radius f(d) (size 50, 2q gate set) ==\n");
        let mut table = Table::new(["benchmark", "MID", "policy", "gates", "depth"]);
        for ((b, mid, (name, _)), r) in restriction_points().zip(records) {
            let m = expect_metrics(r);
            table.row(vec![
                b.name().into(),
                format!("{mid}"),
                name.into(),
                m.total_gates().to_string(),
                m.depth.to_string(),
            ]);
        }
        table.print();
    },
    claims: &[],
};

/// The restriction ablation's points, in push order.
fn restriction_points() -> impl Iterator<Item = (Benchmark, f64, (&'static str, RestrictionPolicy))>
{
    PARALLEL_BENCHMARKS.into_iter().flat_map(|b| {
        [3.0, 5.0]
            .into_iter()
            .flat_map(move |mid| RESTRICTION_POLICIES.map(|p| (b, mid, p)))
    })
}
