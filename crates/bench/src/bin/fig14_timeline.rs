//! Fig. 14 — Timeline of 20 successful shots.
//!
//! Compile-small+reroute on the 29-qubit CNU, run until 20 shots
//! succeed, with the full event trace recorded: compile, per-shot
//! circuit execution (~µs–ms), fluorescence (6 ms each), remap/fixup
//! events, and 0.3 s reloads. The rendered per-kind totals show what
//! the paper's trace shows: reload time and fluorescence dominate.
//!
//! One engine `Campaign` job with timeline recording enabled.

use na_bench::{harness_engine, maybe_emit_jsonl, paper_grid};
use na_benchmarks::Benchmark;
use na_core::CompilerConfig;
use na_engine::{ExperimentSpec, LossSpec, Outcome, Task};
use na_loss::{render_timeline, CampaignConfig, EventKind, ShotTarget, Strategy};

fn main() {
    let cfg = CampaignConfig::new(4.0, Strategy::CompileSmallReroute)
        .with_target(ShotTarget::Successes(20))
        .with_two_qubit_error(5e-3)
        .with_seed(14)
        .with_timeline();

    let mut spec = ExperimentSpec::new("fig14", paper_grid());
    spec.push(
        Benchmark::Cnu,
        30,
        0,
        CompilerConfig::new(4.0),
        Task::Campaign {
            config: cfg,
            loss: LossSpec::new(14),
        },
    );
    let records = harness_engine().run(&spec);
    if maybe_emit_jsonl(&records) {
        return;
    }
    let result = match &records[0].outcome {
        Outcome::Campaign(result) => result,
        other => panic!("campaign: {other:?}"),
    };

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
