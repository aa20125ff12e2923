//! `natoms` — command-line interface to the neutral-atom toolkit.
//!
//! ```console
//! natoms compile  --benchmark qaoa --size 30 --mid 3 [--no-native] [--no-zones] [--emit-qasm] [--passes]
//! natoms compile  --qasm examples/qasm/adder4.qasm --mid 3
//! natoms sweep    --benchmark bv --size 100 --mids 1,2,3,5,13 [--workers 8] [--jsonl]
//! natoms success  --benchmark cuccaro --size 50 --mid 3 --error 1e-3
//! natoms tolerance --benchmark cnu --size 30 --mid 4 --strategy reroute --trials 10
//! natoms campaign --benchmark cnu --size 30 --mid 4 --strategy c-small-reroute \
//!                 --shots 500 --error 0.035 --loss-factor 1 \
//!                 [--campaigns 8] [--shards 8] [--streaming] \
//!                 [--workers 8] [--jsonl] [--timeline]
//! natoms reload-time --width 10 --height 10 --margin 3 --trials 10
//! natoms stats    --file metrics.json [--require-stages lower,place] [--require-cache]
//! natoms trace    t.json [--top 10]
//! ```
//!
//! Every workload command (`compile`, `sweep`, `success`, `tolerance`,
//! `campaign`) accepts either `--benchmark <family>` or `--qasm
//! <file>` to run an imported OpenQASM 2.0 circuit instead.
//!
//! Every subcommand accepts a global `--metrics <file>` flag: it
//! enables `na-telemetry` collection for the run and writes the merged
//! [`na_telemetry::MetricsSnapshot`] JSON to `<file>` on success.
//! `natoms stats` pretty-prints such a file. Telemetry is strictly
//! observational — outputs are identical with or without `--metrics`.
//!
//! Likewise a global `--trace <file>` flag records the causal span
//! timeline (engine jobs, compile passes, campaign shards, fault and
//! cache events) and writes Chrome trace-event JSON on exit — load it
//! in Perfetto / `chrome://tracing`, or summarize it with `natoms
//! trace <file>`. Tracing shares telemetry's strictly-observational
//! contract.
//!
//! `sweep` and `campaign` run through the `na-engine` worker pool;
//! results are identical at any `--workers` value.

mod args;
mod commands;

use args::Args;
use std::process::ExitCode;

const USAGE: &str = "\
natoms — neutral-atom quantum architecture toolkit

USAGE: natoms <SUBCOMMAND> [OPTIONS]

SUBCOMMANDS:
  compile      compile one benchmark and print schedule metrics
  sweep        gate count/depth across MIDs and sizes
  success      predicted shot success, NA vs SC
  tolerance    max atom loss before reload, per strategy
  campaign     multi-shot campaign under atom loss
  reload-time  derive the array reload time from assembly physics
  stats        pretty-print a --metrics snapshot file
  trace        summarize a --trace file (critical path per job, top-k
               slowest spans, cache-wait totals)

COMMON OPTIONS:
  --metrics FILE    collect telemetry for this run and write the
                    metrics snapshot JSON to FILE (any subcommand)
  --trace FILE      record causal spans (jobs, passes, shards) and write
                    Chrome trace-event JSON to FILE — load it in
                    Perfetto / chrome://tracing (any subcommand)
  --benchmark bv|cnu|cuccaro|qft-adder|qaoa   (default bv)
  --qasm FILE       run an imported OpenQASM 2.0 circuit instead
  --size N          program qubit budget        (default 30)
  --grid WxH        device dimensions           (default 10x10)
  --mid D           max interaction distance    (default 3)
  --seed N          RNG seed                    (default 0)
  --no-native       lower Toffolis to 2q gates
  --no-zones        disable restriction zones
  --emit-qasm       print the compiled schedule as QASM (compile only)
  --passes          print per-pass wall time and artifact stats from
                    the self-checking pass pipeline (compile only)

ENGINE OPTIONS (sweep, campaign):
  --workers N       worker threads              (default: all cores)
  --jsonl [FILE]    emit structured JSON-lines rows (stdout, or FILE)
  --job-timeout S   per-job wall-clock budget in seconds;
                    over-budget jobs become typed failed rows
  --campaigns N     parallel campaign replicas  (campaign only)
  --shards K        split each campaign into K deterministic shot-range
                    shards fanned across the pool (campaign only)
  --streaming       constant-memory statistics: drop the per-interval
                    vector, report streak summaries (campaign only;
                    incompatible with --timeline)

FAILURE SEMANTICS (see the README for the full contract):
  exit 0   every row succeeded
  exit 1   error (bad arguments, I/O failure, single-point failure)
  exit 2   ran to completion but some rows carry typed failures
  NATOMS_FAULTS='site[#scope]=action[@hit][;...]' injects
  deterministic faults (panic | error | delay:<ms>) for chaos testing

Run `natoms <SUBCOMMAND> --help` fields in the README for the full list.";

/// Exit code for a run that completed but produced typed failed rows.
const PARTIAL_FAILURE_CODE: u8 = 2;

fn main() -> ExitCode {
    // Arm any NATOMS_FAULTS chaos plans before anything else runs; a
    // malformed spec is a startup error, not a silently-ignored one.
    if let Err(e) = na_faults::arm_from_env() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // Global --metrics flag: enable telemetry before the subcommand
    // runs, dump the merged snapshot after it succeeds.
    let metrics_path = match args.get("metrics") {
        Some(path) => Some(path.to_string()),
        None => {
            // A valueless --metrics parses as a boolean flag; refuse
            // it rather than silently collecting into nowhere.
            if args.flag("metrics") {
                eprintln!("error: --metrics expects a file path\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
            None
        }
    };
    if let Some(path) = &metrics_path {
        // Fail before the workload runs, not after minutes of compute.
        if let Err(e) = commands::validate_writable(path, "metrics") {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        na_telemetry::set_enabled(true);
    }
    // Global --trace flag: same shape as --metrics, but recording the
    // causal span timeline instead of aggregate counters.
    let trace_path = match args.get("trace") {
        Some(path) => Some(path.to_string()),
        None => {
            if args.flag("trace") && args.subcommand() != Some("trace") {
                eprintln!("error: --trace expects a file path\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
            None
        }
    };
    if let Some(path) = &trace_path {
        if let Err(e) = commands::validate_writable(path, "trace") {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        na_telemetry::trace::set_enabled(true);
    }
    // Only `natoms trace <file>` takes a positional argument.
    if let Some(pos) = args.positional() {
        if args.subcommand() != Some("trace") {
            eprintln!("error: unexpected positional argument {pos:?}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    let result = match args.subcommand() {
        Some("compile") => commands::compile_cmd(&args),
        Some("sweep") => commands::sweep_cmd(&args),
        Some("success") => commands::success_cmd(&args),
        Some("tolerance") => commands::tolerance_cmd(&args),
        Some("campaign") => commands::campaign_cmd(&args),
        Some("reload-time") => commands::reload_time_cmd(&args),
        Some("stats") => commands::stats_cmd(&args),
        Some("trace") => commands::trace_cmd(&args),
        Some(other) => {
            eprintln!("error: unknown subcommand {other:?}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
        None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
    };
    let result = commands::finalize_outputs(result, metrics_path.as_deref(), trace_path.as_deref());
    match result {
        Ok(commands::CmdStatus::Ok) => ExitCode::SUCCESS,
        Ok(commands::CmdStatus::PartialFailure) => ExitCode::from(PARTIAL_FAILURE_CODE),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
