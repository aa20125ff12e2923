//! Coping with atom loss (Figs. 10–14): how much loss each strategy
//! tolerates, what it costs in shot success and overhead time, and how
//! shots per reload scale with the loss rate.

use crate::{every, mean_std, mid_headers, Claim, Figure, Table};
use na_benchmarks::Benchmark;
use na_core::CompilerConfig;
use na_engine::paper::paper_grid;
use na_engine::{Engine, LossSpec, Outcome, RunRecord, Task};
use na_loss::{
    render_timeline, CampaignConfig, CampaignResult, EventKind, RecompileCost, ShotTarget, Strategy,
};
use na_noise::{success_probability, NoiseParams};

const LOSS_MIDS: [f64; 5] = [2.0, 3.0, 4.0, 5.0, 6.0];

const LOSS_BENCHMARKS: [Benchmark; 2] = [Benchmark::Cnu, Benchmark::Cuccaro];

fn campaign(r: &RunRecord) -> &CampaignResult {
    match &r.outcome {
        Outcome::Campaign(result) => result,
        other => panic!("{} MID {}: {other:?}", r.benchmark, r.mid),
    }
}

/// A Figs. 10/12 table: a row per labelled strategy, a column per MID,
/// "-" where the strategy does not support the MID. Consumes `rows` in
/// push order; each row's own strategy field guards against drift.
fn strategy_table<'a>(
    rows: &mut impl Iterator<Item = &'a RunRecord>,
    strategies: impl IntoIterator<Item = (Strategy, String)>,
    cell: impl Fn(&RunRecord) -> String,
) {
    let mut table = Table::new(mid_headers("strategy", &LOSS_MIDS));
    for (strategy, label) in strategies {
        let mut row = vec![label];
        for mid in LOSS_MIDS {
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
            row.push(cell(r));
        }
        table.row(row);
    }
    table.print();
}

const TOLERANCE_STRATEGIES: [Strategy; 5] = [
    Strategy::VirtualRemap,
    Strategy::MinorReroute,
    Strategy::CompileSmall,
    Strategy::CompileSmallReroute,
    Strategy::FullRecompile,
];

/// Fig. 10 — Maximum atom loss sustainable before an array reload.
///
/// A 30-qubit Cuccaro adder and a 29-qubit CNU on a 100-atom device.
/// Atoms are lost uniformly at random one at a time; the run ends when
/// the strategy can no longer cope (architectural limits only — no
/// SWAP-budget cutoff). Reported: mean lost fraction of the device
/// (±1σ over seeds) per strategy and MID. Compile-small strategies
/// have no MID-2 entry (the paper never compiles to MID 1).
///
/// Every (benchmark, strategy, MID) cell is one engine `Tolerance`
/// job; the cells Monte-Carlo in parallel across cores.
pub(crate) const FIG10: Figure = Figure {
    id: "fig10",
    build: |spec, _| {
        for b in LOSS_BENCHMARKS {
            for strategy in TOLERANCE_STRATEGIES {
                for mid in LOSS_MIDS.into_iter().filter(|&m| strategy.supports_mid(m)) {
                    let task = Task::Tolerance {
                        strategy,
                        trials: 10,
                        seed: 1000,
                    };
                    spec.push(b, 30, 0, CompilerConfig::new(mid), task);
                }
            }
        }
    },
    render: |records| {
        let mut rows = records.iter();
        for b in LOSS_BENCHMARKS {
            let (qubits, atoms) = (b.actual_size(30), paper_grid().num_sites());
            println!("\n== Fig. 10: max atom loss tolerance, {b} ({qubits} qubits on {atoms} atoms) ==\n");
            let strategies = TOLERANCE_STRATEGIES.map(|s| (s, s.name().to_string()));
            strategy_table(&mut rows, strategies, |r| {
                let (mean, std) = tolerance(r);
                format!("{:.1}% (σ {:.1})", mean * 100.0, std * 100.0)
            });
        }
    },
    claims: &[Claim {
        text: "reroute and c-small-reroute tolerate more loss than virtual remapping \
               at every MID, for both benchmarks",
        check: |records| {
            let is = |r: &RunRecord, s: Strategy| r.strategy.as_deref() == Some(s.name());
            let remap = |r: &RunRecord| {
                let point = |q: &&RunRecord| q.benchmark == r.benchmark && q.mid == r.mid;
                let q = records
                    .iter()
                    .filter(point)
                    .find(|q| is(q, Strategy::VirtualRemap));
                tolerance(q.expect("remap runs at every MID")).0
            };
            let rerouting = [Strategy::MinorReroute, Strategy::CompileSmallReroute];
            let rows = records
                .iter()
                .filter(|r| rerouting.iter().any(|&s| is(r, s)));
            let cells = rows.map(|r| {
                let (b, mid, s) = (
                    &r.benchmark,
                    r.mid,
                    r.strategy.as_deref().unwrap_or_default(),
                );
                let cell = format!("{b} MID {mid} ({s}, virtual remapping loss)");
                (cell, (tolerance(r).0, remap(r)))
            });
            every(cells, |&(t, remap)| t > remap)
        },
    }],
};

fn tolerance(r: &RunRecord) -> (f64, f64) {
    match &r.outcome {
        Outcome::Tolerance { mean, std, .. } => (*mean, *std),
        other => panic!("{} {:?} MID {}: {other:?}", r.benchmark, r.strategy, r.mid),
    }
}

/// Fig. 11's (strategy, MID) cases, one table column each. The first,
/// reroute at MID 2, is the case the figure's claim ranks lowest.
const TRACE_CASES: [(Strategy, f64); 8] = [
    (Strategy::MinorReroute, 2.0),
    (Strategy::MinorReroute, 3.0),
    (Strategy::MinorReroute, 5.0),
    (Strategy::CompileSmallReroute, 3.0),
    (Strategy::CompileSmallReroute, 5.0),
    (Strategy::FullRecompile, 2.0),
    (Strategy::FullRecompile, 3.0),
    (Strategy::FullRecompile, 5.0),
];
const MAX_HOLES: usize = 20;

/// Binary-search the two-qubit error rate giving ~0.6 success for the
/// MID-3 native compilation of `b` at 30 qubits. The point is read from
/// `engine`'s cache: it is the compile key of the figure's MID-3
/// reroute and recompile traces, so they reuse (and verify) it.
fn tune_error(b: Benchmark, engine: &Engine) -> f64 {
    let compiled = engine
        .cache()
        .get_or_compile(&b.generate(30, 0), &paper_grid(), &CompilerConfig::new(3.0))
        .expect("the 30-qubit benchmark compiles at MID 3");
    let (mut lo, mut hi) = (1e-6f64, 0.2f64);
    for _ in 0..60 {
        let mid = (lo * hi).sqrt();
        let p = success_probability(&compiled, &NoiseParams::neutral_atom(mid)).probability();
        if p > 0.6 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo * hi).sqrt()
}

/// Fig. 11 — Shot success rate vs. number of holes.
///
/// For the three program-modifying strategies (reroute,
/// compile-small+reroute, full recompile) the estimated shot success
/// is traced as atoms are lost one by one. The two-qubit error rate is
/// tuned per benchmark so the loss-free program succeeds with
/// probability ≈ 0.6 (the paper's choice, to make the drop visible).
/// Entries become "-" once the strategy would require a reload.
///
/// Every (benchmark, case, seed) trace is one engine `LossTrace` job
/// — the per-seed Monte-Carlo repetitions fan out across cores, each
/// seeded from its job so the table is identical at any worker count.
pub(crate) const FIG11: Figure = Figure {
    id: "fig11",
    build: |spec, engine| {
        for b in LOSS_BENCHMARKS {
            let params = NoiseParams::neutral_atom(tune_error(b, engine));
            for (strategy, mid) in TRACE_CASES {
                for seed in 0..5 {
                    let task = Task::LossTrace {
                        strategy,
                        max_holes: MAX_HOLES as u32,
                        params,
                        seed: 4000 + seed,
                    };
                    spec.push(b, 30, 0, CompilerConfig::new(mid), task);
                }
            }
        }
    },
    render: render_fig11,
    claims: &[
        Claim {
            text: "no rerouting seed ever succeeds more often than the loss-free program \
                   (fixup SWAPs only cost)",
            check: |records| {
                let recompile = Some(Strategy::FullRecompile.name());
                let rerouting = records
                    .iter()
                    .filter(|r| r.strategy.as_deref() != recompile);
                let cells = rerouting.map(|r| {
                    let success = trace(r);
                    let peak = success.iter().copied().fold(f64::MIN, f64::max);
                    (
                        format!("row {} (peak, loss-free)", r.id),
                        (peak, success[0]),
                    )
                });
                every(cells, |&(peak, loss_free)| peak <= loss_free)
            },
        },
        Claim {
            text: "reroute at MID 2 ends lowest of all cases at 20 holes, for both benchmarks",
            check: |records| {
                let mut cells = Vec::new();
                for b in LOSS_BENCHMARKS {
                    // Mean success at 20 holes over the seeds that get there.
                    let at_max = |&(strategy, mid): &(Strategy, f64)| {
                        let ends: Vec<f64> = records
                            .iter()
                            .filter(|r| r.benchmark == b.name() && r.mid == mid)
                            .filter(|r| r.strategy.as_deref() == Some(strategy.name()))
                            .filter_map(|r| trace(r).get(MAX_HOLES).copied())
                            .collect();
                        (!ends.is_empty()).then(|| mean_std(&ends).0)
                    };
                    let lowest = at_max(&TRACE_CASES[0]);
                    cells.extend(TRACE_CASES[1..].iter().map(|case| {
                        let cell = format!("{b} {} MID {} vs reroute MID 2", case.0, case.1);
                        (cell, (lowest, at_max(case)))
                    }));
                }
                every(cells, |&(lowest, other)| {
                    lowest
                        .zip(other)
                        .is_some_and(|(lowest, other)| lowest < other)
                })
            },
        },
    ],
};

fn trace(r: &RunRecord) -> &[f64] {
    match &r.outcome {
        Outcome::LossTrace { success } => success,
        other => panic!("{} {:?} MID {}: {other:?}", r.benchmark, r.strategy, r.mid),
    }
}

fn render_fig11(records: &[RunRecord]) {
    for b in LOSS_BENCHMARKS {
        let rows: Vec<&RunRecord> = records.iter().filter(|r| r.benchmark == b.name()).collect();
        let p2 = rows[0]
            .noise_p2
            .expect("loss-trace row carries its noise point");
        let error = 1.0 - p2;
        println!("\n== Fig. 11: shot success vs holes, {b} (2q error tuned to {error:.2e}) ==\n");

        // success[case][k] collects per-seed success at k holes.
        let mut success = vec![vec![Vec::new(); MAX_HOLES + 1]; TRACE_CASES.len()];
        for r in rows {
            let case = TRACE_CASES
                .iter()
                .position(|&(s, mid)| r.strategy.as_deref() == Some(s.name()) && r.mid == mid)
                .expect("row of a Fig. 11 case");
            for (k, p) in trace(r).iter().enumerate() {
                success[case][k].push(*p);
            }
        }

        let cases = TRACE_CASES.iter().map(|(s, m)| format!("{s} MID {m}"));
        let mut table = Table::new(std::iter::once("holes".to_string()).chain(cases));
        for k in 0..=MAX_HOLES {
            let mut row = vec![k.to_string()];
            for case in &success {
                if case[k].is_empty() {
                    row.push("-".into());
                } else {
                    let (mean, std) = mean_std(&case[k]);
                    row.push(format!("{mean:.3} (σ {std:.2})"));
                }
            }
            table.row(row);
        }
        table.print();
    }
}

/// Fig. 12's rows: each strategy at the measured recompile cost, then
/// recompilation again at a fixed 1.5 s per recompile. The paper's
/// Python compiler took >0.3 s per recompile, making recompilation
/// slower than always reloading; our Rust compiler recompiles in
/// milliseconds. Show both cost models.
const OVERHEAD_ROWS: [(Strategy, Option<f64>); 7] = [
    (Strategy::VirtualRemap, None),
    (Strategy::CompileSmall, None),
    (Strategy::AlwaysReload, None),
    (Strategy::MinorReroute, None),
    (Strategy::CompileSmallReroute, None),
    (Strategy::FullRecompile, None),
    (Strategy::FullRecompile, Some(1.5)),
];

/// Fig. 12 — Overhead time for 500 shots (CNU).
///
/// A 29-qubit CNU runs 500 shots per strategy and MID under the paper's
/// loss rates (2% measured loss, 6.8e-5 vacuum). Overhead decomposes
/// into reload (dominant), fluorescence, remap/fixup, and — for the
/// recompile strategy, shown for reference as the paper excludes it —
/// compilation. Reloads cost 0.3 s, fluorescence 6 ms.
///
/// Each (strategy, cost model, MID) cell is one engine `Campaign` job.
pub(crate) const FIG12: Figure = Figure {
    id: "fig12",
    build: |spec, _| {
        for (strategy, fixed_recompile) in OVERHEAD_ROWS {
            for mid in LOSS_MIDS.into_iter().filter(|&m| strategy.supports_mid(m)) {
                let mut config = CampaignConfig::new(mid, strategy)
                    .with_target(ShotTarget::Attempts(500))
                    .with_two_qubit_error(0.035)
                    .with_seed(12);
                if let Some(seconds) = fixed_recompile {
                    config.overheads.recompile = RecompileCost::Fixed(seconds);
                }
                let task = Task::Campaign {
                    config,
                    loss: LossSpec::new(12),
                };
                spec.push(Benchmark::Cnu, 30, 0, CompilerConfig::new(mid), task);
            }
        }
    },
    render: |records| {
        println!("== Fig. 12: overhead time for 500 shots, 29-qubit CNU ==");
        println!(
            "   columns: total overhead s (reload s / fluorescence s / other s) [reload count]\n"
        );
        let strategies = OVERHEAD_ROWS.map(|(s, fixed)| match fixed {
            None => (s, s.name().to_string()),
            Some(seconds) => (s, format!("recompile @{seconds}s (paper-era)")),
        });
        strategy_table(&mut records.iter(), strategies, |r| {
            let l = &campaign(r).ledger;
            let other = l.remap_time + l.fixup_time + l.recompile_time;
            let (total, reload, fluorescence) =
                (l.overhead_time(), l.reload_time, l.fluorescence_time);
            format!(
                "{total:7.2} ({reload:6.2}/{fluorescence:4.2}/{other:6.4}) [{}]",
                l.reloads
            )
        });
        println!("\nNote: 'recompile' is charged at the measured Rust compile time; the");
        println!("paper's Python compiler exceeded the 0.3 s reload, ours does not.");
    },
    claims: &[],
};

const IMPROVEMENT_FACTORS: [f64; 5] = [0.1, 0.316, 1.0, 3.16, 10.0];
const SENSITIVITY_MIDS: [f64; 4] = [3.0, 4.0, 5.0, 6.0];
const SENSITIVITY_SEEDS: u64 = 3;

/// Fig. 13 — Sensitivity of shots-per-reload to the atom-loss rate.
///
/// The balanced compile-small+reroute strategy on the 29-qubit CNU:
/// both loss rates are scaled by an improvement factor from 0.1×
/// (worse) to 10× (better), and the mean number of successful shots
/// between reloads is reported per MID. The paper's claim: a 10× loss
/// improvement buys ~10× more shots per reload.
///
/// Every (factor, MID, seed) campaign is one engine job.
pub(crate) const FIG13: Figure = Figure {
    id: "fig13",
    build: |spec, _| {
        for factor in IMPROVEMENT_FACTORS {
            for mid in SENSITIVITY_MIDS {
                for seed in 0..SENSITIVITY_SEEDS {
                    let shots = if factor >= 3.0 { 4000 } else { 1500 };
                    let config = CampaignConfig::new(mid, Strategy::CompileSmallReroute)
                        .with_target(ShotTarget::Attempts(shots))
                        .with_two_qubit_error(1e-3)
                        .with_seed(100 + seed);
                    let loss = LossSpec::new(200 + seed).with_improvement_factor(factor);
                    let task = Task::Campaign { config, loss };
                    spec.push(Benchmark::Cnu, 30, 0, CompilerConfig::new(mid), task);
                }
            }
        }
    },
    render: |records| {
        println!("== Fig. 13: successful shots before reload vs loss-rate factor ==");
        println!("   compile small + reroute, 29-qubit CNU\n");
        let mut table = Table::new(mid_headers("factor", &SENSITIVITY_MIDS));
        for (factor, cells) in IMPROVEMENT_FACTORS.iter().zip(shots_per_reload(records)) {
            let mut row = vec![format!("{factor}")];
            for (mean, std) in cells {
                row.push(format!("{mean:8.2} (σ {std:.1})"));
            }
            table.row(row);
        }
        table.print();
    },
    claims: &[Claim {
        text: "shots per reload are non-decreasing in the loss-improvement factor at every MID",
        check: |records| {
            let cells = shots_per_reload(records);
            let mut steps = Vec::new();
            for (pair, factor) in cells.windows(2).zip(&IMPROVEMENT_FACTORS[1..]) {
                for (i, mid) in SENSITIVITY_MIDS.iter().enumerate() {
                    let cell = format!("MID {mid} factor {factor} (shots before, here)");
                    steps.push((cell, (pair[0][i].0, pair[1][i].0)));
                }
            }
            every(steps, |&(before, after)| after >= before)
        },
    }],
};

/// Mean and σ over seeds of the successful shots between reloads,
/// indexed `[factor][MID]` in push order.
fn shots_per_reload(records: &[RunRecord]) -> Vec<Vec<(f64, f64)>> {
    let cells: Vec<(f64, f64)> = records
        .chunks(SENSITIVITY_SEEDS as usize)
        .map(|seeds| {
            let means: Vec<f64> = seeds
                .iter()
                .map(|r| campaign(r).mean_shots_before_reload())
                .collect();
            mean_std(&means)
        })
        .collect();
    cells
        .chunks(SENSITIVITY_MIDS.len())
        .map(<[_]>::to_vec)
        .collect()
}

/// Fig. 14 — Timeline of 20 successful shots.
///
/// Compile-small+reroute on the 29-qubit CNU, run until 20 shots
/// succeed, with the full event trace recorded: compile, per-shot
/// circuit execution (~µs–ms), fluorescence (6 ms each), remap/fixup
/// events, and 0.3 s reloads. The rendered per-kind totals show what
/// the paper's trace shows: reload time and fluorescence dominate.
///
/// One engine `Campaign` job with timeline recording enabled.
pub(crate) const FIG14: Figure = Figure {
    id: "fig14",
    build: |spec, _| {
        let config = CampaignConfig::new(4.0, Strategy::CompileSmallReroute)
            .with_target(ShotTarget::Successes(20))
            .with_two_qubit_error(5e-3)
            .with_seed(14)
            .with_timeline();
        let task = Task::Campaign {
            config,
            loss: LossSpec::new(14),
        };
        spec.push(Benchmark::Cnu, 30, 0, CompilerConfig::new(4.0), task);
    },
    render: render_fig14,
    claims: &[],
};

fn render_fig14(records: &[RunRecord]) {
    let result = campaign(&records[0]);
    println!(
        "== Fig. 14: timeline of {} successful shots ==",
        result.shots_successful
    );
    println!(
        "   shots attempted {}, discarded by loss {}, failed by noise {}\n",
        result.shots_attempted, result.discarded_by_loss, result.failed_by_noise
    );
    print!("{}", render_timeline(&result.timeline));

    println!("\n-- first 40 events --");
    for e in result.timeline.iter().take(40) {
        println!(
            "  t={:>9.4}s  {:<13} {:>.3e}s",
            e.start,
            e.kind.to_string(),
            e.duration
        );
    }

    let reload_time: f64 = result
        .timeline
        .iter()
        .filter(|e| e.kind == EventKind::Reload)
        .fold(0.0, |acc, e| acc + e.duration);
    let total = result
        .timeline
        .last()
        .map(na_loss::TimelineEvent::end)
        .unwrap_or(0.0);
    println!(
        "\nreload fraction of wall clock: {:.1}% (paper: reloads dominate)",
        100.0 * reload_time / total
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::COUNTED;
    use na_circuit::fingerprint::fnv1a_extend;
    use na_telemetry::MetricsSnapshot;
    use std::sync::PoisonError;

    /// Builds and runs `figure` as `figures` does (a fresh verified
    /// engine) with metrics on; returns its rows, the engine's
    /// compile-cache misses and the metrics. Every job must run and
    /// verify, and every claim must hold.
    fn counted(figure: &Figure) -> (Vec<RunRecord>, u64, MetricsSnapshot) {
        let _serial = COUNTED.lock().unwrap_or_else(PoisonError::into_inner);
        let engine = Engine::new().verified();
        na_telemetry::reset();
        na_telemetry::set_enabled(true);
        let records = engine.run(&figure.spec(&engine));
        let metrics = na_telemetry::snapshot();
        na_telemetry::set_enabled(false);
        assert_eq!(figure.failed_claims(&records), Vec::<String>::new());
        (records, engine.cache_stats().misses, metrics)
    }

    /// FNV-1a over a row's measurement: Fig. 10's mean and σ bits and
    /// trial count, Fig. 11's success bits.
    fn digest(r: &RunRecord) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        match &r.outcome {
            Outcome::Tolerance { mean, std, trials } => {
                let h = fnv1a_extend(OFFSET, mean.to_bits());
                fnv1a_extend(fnv1a_extend(h, std.to_bits()), u64::from(*trials))
            }
            Outcome::LossTrace { success } => {
                let h = fnv1a_extend(OFFSET, success.len() as u64);
                success.iter().fold(h, |h, p| fnv1a_extend(h, p.to_bits()))
            }
            other => panic!("row {}: {other:?}", r.id),
        }
    }

    fn assert_digests(records: &[RunRecord], golden: &[u64]) {
        assert_eq!(records.len(), golden.len());
        for (r, &want) in records.iter().zip(golden) {
            let cell = format!(
                "row {} ({} {:?} MID {})",
                r.id, r.benchmark, r.strategy, r.mid
            );
            assert_eq!(digest(r), want, "{cell}");
        }
    }

    /// Row digests in job order, recorded when every tolerance trial
    /// and every trace compiled its own strategy state.
    const FIG10_DIGESTS: [u64; 46] = [
        0x606681151199e190,
        0x4f8275c8e26a9c14,
        0xc7ae77cccd3dd16c,
        0x0f923d2ccc0f9a08,
        0x4f4c4930e14e8300,
        0xb961f86f02d3603b,
        0x0a33d4bd87afc689,
        0x0a33d4bd87afc689,
        0x0a33d4bd87afc689,
        0x0a33d4bd87afc689,
        0x5f510647244280f8,
        0xc7ae77cccd3dd16c,
        0x0f923d2ccc0f9a08,
        0x4f4c4930e14e8300,
        0x0a33d4bd87afc689,
        0x0a33d4bd87afc689,
        0x0a33d4bd87afc689,
        0x0a33d4bd87afc689,
        0x989821a411b031fd,
        0xfa7082a3b39d3765,
        0x5aee14a60aa177bb,
        0x52204ff421bec56b,
        0x52204ff421bec56b,
        0x0f5698b7fc093cde,
        0x8602b381c40d982d,
        0xa98e33cd19328477,
        0xdc3249cc43f25d1e,
        0x9f6443ee466d4da3,
        0x6b6aa1056324e29a,
        0x0cf8eb3ff940b6f2,
        0x3b91246c32639a16,
        0xac0de8caa63291b2,
        0xac0de8caa63291b2,
        0x900b4b718139c1f7,
        0x1be47f06fd4c7f0c,
        0xc5de375f818d0207,
        0xe535017934fb6cab,
        0xadfced13f6847e04,
        0x0cf8eb3ff940b6f2,
        0x3b91246c32639a16,
        0xac0de8caa63291b2,
        0xeff9fdf3bf460879,
        0x541323480d009f30,
        0xdc05899503ef873e,
        0xdc98e1cff49a19b1,
        0xdc98e1cff49a19b1,
    ];
    const FIG11_DIGESTS: [u64; 80] = [
        0xb9f155e9289f8b06,
        0xc14ea33fd3b9f5a7,
        0x79d71ed210048cdc,
        0x689bdbd8f9dd5041,
        0x03f7839e83ecdd09,
        0x7dc5a70c165c6098,
        0x1c2a1b6f5acd0fa6,
        0x7dc5a70c165c6098,
        0x2e9e3b2d33c28544,
        0x84382b69077919e8,
        0x7dc5a70c165c6098,
        0x7dc5a70c165c6098,
        0x7dc5a70c165c6098,
        0x7dc5a70c165c6098,
        0x7dc5a70c165c6098,
        0xc3669d8ef7804bd4,
        0x9f58eb99ae0c2fef,
        0xc3669d8ef7804bd4,
        0xcef6b4ace23c2827,
        0xb7850d1ac0c54eac,
        0x7dc5a70c165c6098,
        0x7dc5a70c165c6098,
        0x7dc5a70c165c6098,
        0x7dc5a70c165c6098,
        0x7dc5a70c165c6098,
        0xe319f2ffbb73df12,
        0x46f5539969f59785,
        0x36050aa2b5e5c7f2,
        0xfa60a1f6af38e23f,
        0xd10061b5092bdd65,
        0x5a1ed1201f571931,
        0x235a24f8a5dace0f,
        0x9b43dfded8d74113,
        0xececf4589000002d,
        0xf7ec7650546848d1,
        0x828fdec95e0101cc,
        0x235a24f8a5dace0f,
        0x9b43dfded8d74113,
        0x474009993c0fd429,
        0x9f15128db4505383,
        0x8300857d9cef4221,
        0x268a2ee15375dbcf,
        0xb677a382b8495890,
        0x0d85f3b4767720b6,
        0x1b4a0f6b4d1986d9,
        0xb82561333382c3ad,
        0x19b04ebafab914ba,
        0x79a2e6daa29a05c0,
        0x6c14739eff2a6e63,
        0xbb1e9c6a3d5b24e8,
        0x4d720b4147e7d12f,
        0x220137440ad565b2,
        0xde0ba0523d88fcda,
        0xccee6214aa0ea14b,
        0x4837a5f8f28b0da3,
        0xcecf77c1f01d2be8,
        0x19642e8b6485cf00,
        0x9d2a77ec61fb0ac8,
        0xfc3e428b6775431b,
        0xf8691051975fef80,
        0x4c7a04a5aae186f9,
        0x4c7a04a5aae186f9,
        0x4c7a04a5aae186f9,
        0x4c7a04a5aae186f9,
        0x4c7a04a5aae186f9,
        0xe7d988938960dea7,
        0x1bbc99309c998d79,
        0xcafd30c13e9cadae,
        0x4d96519a155aa11d,
        0xdc773165e2000c34,
        0x2ba0e427f1d8e8b5,
        0x4b4b13572fbf8c3b,
        0xecbecabc8d5fa1fe,
        0xf4a5156c6f3ca96a,
        0x453df6684483d51d,
        0x9b568441765c17c7,
        0xca3eba1753a2cf59,
        0xa77235b33fe13a99,
        0x08c9b21f28018611,
        0x74bc3b900bf7947a,
    ];

    #[test]
    fn fig10_walks_ten_compiled_points() {
        let (records, misses, metrics) = counted(&FIG10);
        assert_digests(&records, &FIG10_DIGESTS);
        // One compile per (benchmark, strategy compile MID): the 460
        // trials walk clones of ten cached points, whose compiles share
        // one lowered program per benchmark.
        assert_eq!(misses, 10);
        assert_eq!(metrics.counter("program_builds"), 2);
        assert_eq!(metrics.counter("recompiles"), 2_731);
    }

    #[test]
    fn fig11_walks_eight_compiled_points() {
        let (records, misses, metrics) = counted(&FIG11);
        assert_digests(&records, &FIG11_DIGESTS);
        // Four compile MIDs per benchmark for the 80 traces; the MID-3
        // point that tunes each benchmark's error rate is one of them.
        assert_eq!(misses, 8);
        assert_eq!(metrics.counter("recompiles"), 174);
        // Every compile is a cache miss or a loss-driven recompile.
        assert_eq!(metrics.counter("compiles"), misses + 174);
    }
}
