//! Subcommand implementations.
//!
//! The sweep-shaped subcommands (`sweep`, `campaign`) run through
//! `na-engine`'s parallel worker pool: `--workers N` bounds the pool
//! (default: all cores — results are identical at any worker count),
//! and `--jsonl` switches the output to the engine's structured
//! JSON-lines rows for downstream tooling.

use crate::args::{ArgError, Args};
use na_arch::{AssemblyParams, AssemblySimulator, Grid, RestrictionPolicy};
use na_benchmarks::{Benchmark, Workload};
use na_circuit::parse_qasm;
use na_core::{verify, CompiledCircuit, CompilerConfig};
use na_engine::{
    derive_seed, CompileCache, Engine, ExperimentSpec, FailureSummary, JsonlSink, LossSpec,
    Outcome, RunRecord, Task,
};
use na_loss::{render_timeline, CampaignConfig, ShotTarget, Strategy};
use na_noise::NoiseParams;
use std::error::Error;
use std::time::Duration;

/// What a successfully-dispatched subcommand reports back to `main`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdStatus {
    /// Every row/point succeeded (exit code 0).
    Ok,
    /// The command ran to completion but some result rows carry typed
    /// failures (exit code 2; the rows and the stderr summary tell the
    /// story).
    PartialFailure,
}

type CmdResult = Result<CmdStatus, Box<dyn Error>>;

/// Parses a benchmark through the shared name table
/// (`Benchmark::from_str` in `na-benchmarks`).
fn parse_benchmark(name: &str) -> Result<Benchmark, ArgError> {
    name.parse()
        .map_err(|e: na_benchmarks::ParseBenchmarkError| ArgError(e.to_string()))
}

/// Parses a strategy through the shared name table
/// (`Strategy::from_str` in `na-loss`).
fn parse_strategy(name: &str) -> Result<Strategy, ArgError> {
    name.parse()
        .map_err(|e: na_loss::ParseStrategyError| ArgError(e.to_string()))
}

/// The most trap sites a device flag may ask for: `--grid`, and the
/// `reload-time` trap field of `--width` × `--height` padded by
/// `--margin` on every side. The largest device in any test, example or
/// benchmark is the 20×20 field of a 14×14 target with a 3-site margin
/// (the paper's device is 10×10), ten times below the cap, while a
/// fully connected interaction graph at the cap still fits in ~64 MB.
const MAX_SITES: u64 = 4096;

/// `--grid WxH`: positive sides and at most [`MAX_SITES`] sites.
fn parse_grid(spec: &str) -> Result<Grid, ArgError> {
    let (w, h) = spec
        .split_once('x')
        .and_then(|(w, h)| Some((w.parse::<u32>().ok()?, h.parse::<u32>().ok()?)))
        .filter(|&(w, h)| w > 0 && h > 0 && u64::from(w) * u64::from(h) <= MAX_SITES)
        .ok_or_else(|| {
            ArgError(format!(
                "--grid must be WxH (like 10x10) with positive sides and at most \
                 {MAX_SITES} sites, got {spec:?}"
            ))
        })?;
    Ok(Grid::new(w, h))
}

/// Loads and parses the `--qasm` file into a custom [`Workload`]
/// labeled by the file stem.
fn load_qasm_workload(path: &str) -> Result<Workload, ArgError> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| ArgError(format!("cannot read QASM file {path:?}: {e}")))?;
    let circuit = parse_qasm(&src).map_err(|e| ArgError(format!("{path}: {e}")))?;
    let label = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path)
        .to_string();
    Ok(Workload::custom(label, circuit))
}

/// MIDs below one lattice site do not exist, and JSONL rows cannot
/// carry an infinite one.
fn valid_mid(mid: &f64) -> bool {
    mid.is_finite() && *mid >= 1.0
}

const MID_RULE: &str = "a finite number of at least 1";

/// `--error`: a two-qubit error rate strictly inside (0, 1).
fn two_qubit_error(args: &Args, default: f64) -> Result<f64, ArgError> {
    args.parse_checked("error", default, |&e| e > 0.0 && e < 1.0, "in (0, 1)")
}

struct Common {
    workload: Workload,
    size: u32,
    grid: Grid,
    config: CompilerConfig,
    seed: u64,
}

impl Common {
    /// The circuit at this command's `(size, seed)` point.
    fn circuit(&self) -> std::sync::Arc<na_circuit::Circuit> {
        self.workload.circuit(self.size, self.seed)
    }

    /// Qubits the workload actually uses.
    fn actual_size(&self) -> u32 {
        self.workload.actual_size(self.size)
    }
}

fn common(args: &Args) -> Result<Common, ArgError> {
    let workload = match args.get("qasm") {
        Some(path) => {
            if args.get("benchmark").is_some() {
                return Err(ArgError(
                    "--qasm and --benchmark are mutually exclusive".into(),
                ));
            }
            load_qasm_workload(path)?
        }
        None => {
            // A valueless --qasm parses as a boolean flag; refuse it
            // rather than silently compiling the default benchmark
            // (it is also the old spelling of compile's export flag).
            if args.flag("qasm") {
                return Err(ArgError(
                    "--qasm expects a file path (to print a compiled schedule \
                     as QASM, use --emit-qasm)"
                        .into(),
                ));
            }
            Workload::from(parse_benchmark(args.get_or("benchmark", "bv"))?)
        }
    };
    let builtin = matches!(workload, Workload::Bench(_));
    let size = args.parse_checked(
        "size",
        30u32,
        |&s| !builtin || s >= Benchmark::MIN_SIZE,
        &format!("at least {} for a built-in benchmark", Benchmark::MIN_SIZE),
    )?;
    let grid = parse_grid(args.get_or("grid", "10x10"))?;
    let mid = args.parse_checked("mid", 3.0, valid_mid, MID_RULE)?;
    let mut config = CompilerConfig::new(mid);
    if args.flag("no-native") {
        config = config.with_native_multiqubit(false);
    }
    if args.flag("no-zones") {
        config = config.with_restriction(RestrictionPolicy::None);
    }
    let seed = args.parse_or("seed", 0u64)?;
    Ok(Common {
        workload,
        size,
        grid,
        config,
        seed,
    })
}

/// The most threads `--workers` may ask for: the engine spawns one OS
/// thread per worker, up to the number of work units, so the flag must
/// not ask the OS for an unbounded number.
const MAX_WORKERS: usize = 1024;

/// The most work units `--campaigns` × `--shards` may fan out: every
/// shard's shot range and result are reserved before any shot runs, so
/// the product bounds the campaign command's memory.
const MAX_WORK_UNITS: u32 = 65_536;

/// The engine for a sweep-shaped command: `--workers N` (default all
/// cores, at most [`MAX_WORKERS`]) plus the cooperative
/// `--job-timeout` budget.
fn engine(args: &Args) -> Result<Engine, ArgError> {
    let mut engine = match args.get("workers") {
        None => Engine::new(),
        Some(_) => Engine::with_workers(args.parse_checked(
            "workers",
            0usize,
            |&w| w <= MAX_WORKERS,
            &format!("at most {MAX_WORKERS}"),
        )?),
    };
    if let Some(timeout) = job_timeout(args)? {
        engine = engine.with_job_timeout(timeout);
    }
    Ok(engine)
}

/// Parses `--job-timeout <secs>` (fractional seconds allowed; `0`
/// expires immediately, which the chaos smoke uses).
fn job_timeout(args: &Args) -> Result<Option<Duration>, ArgError> {
    match args.get("job-timeout") {
        Some(raw) => {
            let secs: f64 = raw
                .parse()
                .map_err(|_| ArgError(format!("invalid value {raw:?} for --job-timeout")))?;
            if !secs.is_finite() || secs < 0.0 {
                return Err(ArgError(
                    "--job-timeout must be a non-negative number of seconds".into(),
                ));
            }
            Ok(Some(Duration::from_secs_f64(secs)))
        }
        None if args.flag("job-timeout") => {
            Err(ArgError("--job-timeout expects a number of seconds".into()))
        }
        None => Ok(None),
    }
}

/// The `--jsonl` mode: `None` = human-readable output, `Some(None)` =
/// JSONL to stdout, `Some(Some(path))` = JSONL to a file.
fn jsonl_target(args: &Args) -> Option<Option<String>> {
    match args.get("jsonl") {
        Some(path) => Some(Some(path.to_string())),
        None if args.flag("jsonl") => Some(None),
        None => None,
    }
}

/// Checks up front that `path` can be opened for writing — without
/// truncating anything already there — so a long sweep never runs for
/// minutes only to fail at the final write.
pub fn validate_writable(path: &str, what: &str) -> Result<(), ArgError> {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map(|_| ())
        .map_err(|e| ArgError(format!("cannot open {what} file {path:?} for writing: {e}")))
}

/// Streams records as JSONL to stdout or a file. A broken pipe is a
/// clean early stop (`natoms sweep --jsonl | head`); any other sink
/// error propagates as a real failure.
fn emit_jsonl(records: &[RunRecord], target: Option<&str>) -> Result<(), Box<dyn Error>> {
    let result = match target {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| ArgError(format!("cannot write JSONL file {path:?}: {e}")))?;
            let mut sink = JsonlSink::new(std::io::BufWriter::new(file));
            na_engine::write_records(records, &mut sink)
        }
        None => na_engine::write_records(records, &mut JsonlSink::stdout()),
    };
    match result {
        Ok(()) => Ok(()),
        Err(e) if e.is_broken_pipe() => Ok(()),
        Err(e) => Err(Box::new(e) as Box<dyn Error>),
    }
}

/// The uniform end-of-command failure accounting: silent when every
/// row succeeded, otherwise a stderr summary (`3/120 rows failed: 2
/// unroutable, 1 panicked`) and [`CmdStatus::PartialFailure`] for the
/// exit code.
fn finish_rows(records: &[RunRecord]) -> CmdStatus {
    let summary = FailureSummary::of(records);
    if summary.any_failed() {
        eprintln!("{summary}");
        CmdStatus::PartialFailure
    } else {
        CmdStatus::Ok
    }
}

/// Compiles the command's circuit through a [`CompileCache`] — the
/// same code path the engine commands use, so one-shot commands report
/// real cache/stage telemetry — and verifies the schedule.
fn compile_common(c: &Common) -> Result<std::sync::Arc<CompiledCircuit>, Box<dyn Error>> {
    let program = c.circuit();
    let compiled = CompileCache::new().get_or_compile(&program, &c.grid, &c.config)?;
    verify(&compiled, &c.grid)?;
    Ok(compiled)
}

/// Uniform cache-efficacy report for every compiling subcommand: when
/// telemetry is enabled (`--metrics`), one stderr line from the merged
/// registry — hits/misses/occupancy aggregated across all workers and
/// caches the command touched. Stderr so it never disturbs table or
/// JSONL stdout.
fn report_cache_stats() {
    if !na_telemetry::is_enabled() {
        return;
    }
    let snap = na_telemetry::snapshot();
    eprintln!(
        "compile cache: {} hits, {} misses ({} entries)",
        snap.counter("compile_cache_hits"),
        snap.counter("compile_cache_misses"),
        snap.gauge("compile_cache_entries")
    );
    eprintln!(
        "artifact store: {} placement hits",
        snap.counter("artifact_hits")
    );
}

/// `natoms compile`
pub fn compile_cmd(args: &Args) -> CmdResult {
    let c = common(args)?;
    // `--passes` compiles through the self-checking pipeline instead
    // of the cache: every pass (including `verify`) is a real timed
    // measurement, and the per-pass table is printed after the
    // metrics. The compiled schedule is bit-identical either way.
    let (compiled, pass_report) = if args.flag("passes") {
        let mut report = na_core::PassReport::default();
        let compiled = na_core::run_passes(
            &c.circuit(),
            &c.grid,
            &c.config,
            &mut na_core::PlacementScratch::new(),
            na_core::Reuse::Nothing,
            true,
            Some(&mut report),
        )?;
        (std::sync::Arc::new(compiled), Some(report))
    } else {
        (compile_common(&c)?, None)
    };
    let m = compiled.metrics();
    println!(
        "{} size {} on {}x{} at MID {}",
        c.workload,
        c.actual_size(),
        c.grid.width(),
        c.grid.height(),
        c.config.mid
    );
    println!("  {m}");
    println!("  timesteps: {}", compiled.num_timesteps());
    if let Some(report) = &pass_report {
        print!("{}", report.render());
    }
    if args.flag("emit-qasm") {
        let qasm = na_circuit::qasm::to_qasm(compiled.circuit())?;
        println!("\n{qasm}");
    }
    report_cache_stats();
    Ok(CmdStatus::Ok)
}

/// `natoms sweep` — the MID sweep, fanned across cores by the engine.
pub fn sweep_cmd(args: &Args) -> CmdResult {
    let c = common(args)?;
    let default_mids = na_engine::paper::paper_mids()
        .iter()
        .map(f64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let mids: Vec<f64> = args
        .get_or("mids", &default_mids)
        .split(',')
        .map(|s| match s.trim().parse::<f64>() {
            Ok(mid) if valid_mid(&mid) => Ok(mid),
            Ok(mid) => Err(ArgError(format!("--mids: MID {mid} must be {MID_RULE}"))),
            Err(_) => Err(ArgError(format!("--mids: bad MID {s:?}"))),
        })
        .collect::<Result<_, _>>()?;

    let mut spec = ExperimentSpec::new("cli-sweep", c.grid.clone());
    for &mid in &mids {
        let mut cfg = c.config;
        cfg.mid = mid;
        if mid * mid < 2.0 {
            cfg = cfg.with_native_multiqubit(false);
        }
        spec.push(c.workload.clone(), c.size, c.seed, cfg, Task::Compile);
    }
    let jsonl = jsonl_target(args);
    if let Some(Some(path)) = &jsonl {
        validate_writable(path, "JSONL")?;
    }
    let records = engine(args)?.run(&spec);
    report_cache_stats();

    if let Some(target) = &jsonl {
        emit_jsonl(&records, target.as_deref())?;
        return Ok(finish_rows(&records));
    }

    println!("{:>6} {:>8} {:>7} {:>7}", "MID", "gates", "swaps", "depth");
    for r in &records {
        match &r.outcome {
            Outcome::Compiled { metrics: m, .. } => {
                println!(
                    "{:>6} {:>8} {:>7} {:>7}",
                    r.mid,
                    m.total_gates(),
                    m.swaps,
                    m.depth
                );
            }
            Outcome::Failed { error, .. } => {
                // A failed point is a row, not an abort: render
                // placeholders and keep sweeping.
                println!("{:>6} {:>8} {:>7} {:>7}  {error}", r.mid, "-", "-", "-");
            }
            other => unreachable!("compile task returned {other:?}"),
        }
    }
    Ok(finish_rows(&records))
}

/// `natoms success` — the neutral-atom point against the
/// superconducting baseline (MID 1, no native multi-qubit gates, no
/// zones), two engine `Success` jobs on a verified engine.
pub fn success_cmd(args: &Args) -> CmdResult {
    let c = common(args)?;
    let error = two_qubit_error(args, 1e-3)?;
    let sc_cfg = CompilerConfig::new(1.0)
        .with_native_multiqubit(false)
        .with_restriction(RestrictionPolicy::None);
    let mut spec = ExperimentSpec::new("success", c.grid.clone());
    let na = Task::Success {
        params: NoiseParams::neutral_atom(error),
    };
    spec.push(c.workload.clone(), c.size, c.seed, c.config, na);
    let sc = Task::Success {
        params: NoiseParams::superconducting(error),
    };
    spec.push(c.workload.clone(), c.size, c.seed, sc_cfg, sc);
    let records = Engine::with_workers(1).verified().run(&spec);
    let labels = [format!("NA  MID {}", c.config.mid), "SC  MID 1".into()];
    for (label, record) in labels.iter().zip(&records) {
        let breakdown = match &record.outcome {
            Outcome::Success { breakdown, .. } => breakdown,
            Outcome::Failed { error, .. } => return Err(error.clone().into()),
            other => unreachable!("a success job measured {other:?}"),
        };
        println!(
            "{label}: success {:.4} (gates {:.4}, coherence {:.6}, {:.1} us/shot)",
            breakdown.probability(),
            breakdown.gate_success,
            breakdown.coherence,
            breakdown.duration * 1e6
        );
    }
    report_cache_stats();
    Ok(CmdStatus::Ok)
}

/// Most `--trials` `natoms tolerance` accepts, far past any useful
/// average (a trial of a 30-qubit program takes up to a few ms).
const MAX_TOLERANCE_TRIALS: u32 = 100_000;

/// `natoms tolerance` — one engine `Tolerance` job (Fig. 10's task) on
/// a verified engine.
pub fn tolerance_cmd(args: &Args) -> CmdResult {
    let c = common(args)?;
    let strategy = parse_strategy(args.get_or("strategy", "c-small-reroute"))?;
    let trials = args.parse_checked(
        "trials",
        10u32,
        |t| (1..=MAX_TOLERANCE_TRIALS).contains(t),
        &format!("between 1 and {MAX_TOLERANCE_TRIALS}"),
    )?;
    if !strategy.supports_mid(c.config.mid) {
        return Err(Box::new(ArgError(format!(
            "{strategy} needs a hardware MID of at least 3"
        ))));
    }
    let mut spec = ExperimentSpec::new("tolerance", c.grid.clone());
    let task = Task::Tolerance {
        strategy,
        trials,
        seed: c.seed,
    };
    spec.push(c.workload.clone(), c.size, c.seed, c.config, task);
    let record = Engine::with_workers(1).verified().run(&spec).remove(0);
    let (mean, std) = match record.outcome {
        Outcome::Tolerance { mean, std, .. } => (mean, std),
        Outcome::Failed { error, .. } => return Err(error.into()),
        other => unreachable!("a tolerance job measured {other:?}"),
    };
    println!(
        "{strategy} on {} ({} qubits, MID {}): sustains {:.1}% +/- {:.1}% of the device",
        c.workload,
        c.actual_size(),
        c.config.mid,
        mean * 100.0,
        std * 100.0
    );
    report_cache_stats();
    Ok(CmdStatus::Ok)
}

/// `--campaigns N` and `--shards K`: each at least 1, with at most
/// [`MAX_WORK_UNITS`] shards in all.
fn campaign_fan(args: &Args) -> Result<(u32, u32), ArgError> {
    let campaigns = args.parse_checked(
        "campaigns",
        1u32,
        |n| (1..=MAX_WORK_UNITS).contains(n),
        &format!("between 1 and {MAX_WORK_UNITS}"),
    )?;
    let max_shards = MAX_WORK_UNITS / campaigns;
    let shards = args.parse_checked(
        "shards",
        1u32,
        |n| (1..=max_shards).contains(n),
        &format!(
            "between 1 and {max_shards}, so that --campaigns × --shards is at most \
             {MAX_WORK_UNITS}"
        ),
    )?;
    Ok((campaigns, shards))
}

/// `natoms campaign` — one or more Monte-Carlo campaigns through the
/// engine. `--campaigns N` runs N independent replicas (seeds derived
/// from `--seed`) in parallel and reports each plus the aggregate.
/// `--shards K` fans each replica's shot budget out as K deterministic
/// shards across the worker pool; `--streaming` drops the per-interval
/// vector (and the timeline) for constant-memory campaigns at any shot
/// count, reporting streak statistics from the running summaries
/// instead.
pub fn campaign_cmd(args: &Args) -> CmdResult {
    let c = common(args)?;
    let strategy = parse_strategy(args.get_or("strategy", "c-small-reroute"))?;
    let shots: u64 = args.parse_or("shots", 500u64)?;
    let error = two_qubit_error(args, 0.035)?;
    // The factor divides the loss rates; below the measurement-loss
    // rate it would scale that probability past 1.
    let min_factor = na_loss::LossModel::new(0).measurement_loss();
    let factor = args.parse_checked(
        "loss-factor",
        1.0,
        |&f| f >= min_factor,
        &format!("at least {min_factor}"),
    )?;
    let (campaigns, shards) = campaign_fan(args)?;
    let streaming = args.flag("streaming");
    if streaming && args.flag("timeline") {
        // The timeline grows with the shot count — exactly the
        // unbounded memory --streaming exists to rule out.
        return Err(Box::new(ArgError(
            "--timeline records every shot and cannot be combined with --streaming; \
             drop one of the two flags"
                .into(),
        )));
    }

    let mut spec = ExperimentSpec::new("cli-campaign", c.grid.clone());
    for i in 0..campaigns {
        let replica_seed = if i == 0 {
            c.seed
        } else {
            derive_seed(c.seed, u64::from(i))
        };
        let mut cfg = CampaignConfig::new(c.config.mid, strategy)
            .with_target(ShotTarget::Attempts(shots))
            .with_two_qubit_error(error)
            .with_seed(replica_seed);
        if args.flag("timeline") {
            cfg = cfg.with_timeline();
        }
        if streaming {
            cfg = cfg.with_streaming();
        }
        // An explicit --shots request overrides the library's runaway
        // safety cap (100k), which would otherwise silently truncate
        // the million-shot campaigns --streaming exists to make cheap.
        cfg.max_attempts = cfg.max_attempts.max(shots);
        let loss = LossSpec::new(replica_seed).with_improvement_factor(factor);
        // One shard is the serial campaign itself; the unsharded task
        // keeps its `campaign` task name in the row.
        let task = if shards == 1 {
            Task::Campaign { config: cfg, loss }
        } else {
            Task::ShardedCampaign {
                config: cfg,
                loss,
                shards,
            }
        };
        spec.push(c.workload.clone(), c.size, c.seed, c.config, task);
    }
    let jsonl = jsonl_target(args);
    if let Some(Some(path)) = &jsonl {
        validate_writable(path, "JSONL")?;
    }
    let records = engine(args)?.run(&spec);
    report_cache_stats();

    if let Some(target) = &jsonl {
        emit_jsonl(&records, target.as_deref())?;
        return Ok(finish_rows(&records));
    }

    let mut mean_shots = Vec::new();
    for r in &records {
        let result = match &r.outcome {
            Outcome::Campaign(result) => result,
            Outcome::Failed { error, .. } => {
                // One replica's failure is its own row; the rest of
                // the replicas still report.
                if campaigns > 1 {
                    print!("[replica {}] ", r.id);
                }
                println!("failed: {error}");
                continue;
            }
            other => unreachable!("campaign task returned {other:?}"),
        };
        if campaigns > 1 {
            print!("[replica {}] ", r.id);
        }
        println!(
            "{} shots: {} successful, {} lost to atom loss, {} to noise",
            result.shots_attempted,
            result.shots_successful,
            result.discarded_by_loss,
            result.failed_by_noise
        );
        let l = &result.ledger;
        println!(
            "overhead {:.2} s (reload {:.2} s x{}, fluorescence {:.2} s, remap/fixup/recompile {:.4} s)",
            l.overhead_time(),
            l.reload_time,
            l.reloads,
            l.fluorescence_time,
            l.remap_time + l.fixup_time + l.recompile_time
        );
        println!(
            "mean successful shots per reload interval: {:.1}",
            result.mean_shots_before_reload()
        );
        mean_shots.push(result.mean_shots_before_reload());
        if args.flag("timeline") {
            println!("\n{}", render_timeline(&result.timeline));
        }
    }
    if campaigns > 1 && !mean_shots.is_empty() {
        let mean = mean_shots.iter().sum::<f64>() / mean_shots.len() as f64;
        println!(
            "aggregate over {} campaigns: {mean:.1} successful shots per reload interval",
            mean_shots.len()
        );
    }
    Ok(finish_rows(&records))
}

/// `natoms reload-time`
pub fn reload_time_cmd(args: &Args) -> CmdResult {
    // The trap field the simulator loads: the target plus the margin.
    let field = |w: u32, h: u32, m: u32| {
        (u64::from(w) + 2 * u64::from(m)) * (u64::from(h) + 2 * u64::from(m))
    };
    let width = args.parse_checked(
        "width",
        10u32,
        |&w| w > 0 && field(w, 1, 0) <= MAX_SITES,
        &format!("positive and at most {MAX_SITES}"),
    )?;
    let height = args.parse_checked(
        "height",
        10u32,
        |&h| h > 0 && field(width, h, 0) <= MAX_SITES,
        &format!("positive, with width x height at most {MAX_SITES} sites"),
    )?;
    let margin = args.parse_checked(
        "margin",
        3u32,
        |&m| {
            m > 0
                && field(width, height, m) <= MAX_SITES
                && AssemblyParams::default().reservoir_suffices(width, height, m)
        },
        &format!(
            "at least 1, wide enough to refill the target, with the padded trap \
             field at most {MAX_SITES} sites"
        ),
    )?;
    let trials = args.parse_checked("trials", 10u32, |&t| t > 0, "at least 1")?;
    let seed: u64 = args.parse_or("seed", 0u64)?;
    let mut sim = AssemblySimulator::with_defaults(seed);
    let mean = sim.mean_reload_time(width, height, margin, trials);
    println!(
        "defect-free {width}x{height} assembly (reservoir margin {margin}): {mean:.3} s mean over {trials} trials"
    );
    println!("(the paper's 0.3 s reload constant, derived from loading physics)");
    Ok(CmdStatus::Ok)
}

/// Serializes the merged telemetry snapshot of this run to `path`
/// (the tail end of the global `--metrics <file>` flag).
pub fn write_metrics_snapshot(path: &str) -> Result<(), Box<dyn Error>> {
    let snapshot = na_telemetry::snapshot();
    let json = serde_json::to_string(&snapshot)?;
    std::fs::write(path, json)
        .map_err(|e| ArgError(format!("cannot write metrics file {path:?}: {e}")))?;
    Ok(())
}

/// Drains the trace registry and writes Chrome trace-event JSON to
/// `path` (the tail end of the global `--trace <file>` flag).
pub fn write_trace(path: &str) -> Result<(), Box<dyn Error>> {
    let mut buf = Vec::new();
    let events = na_telemetry::trace::write_chrome_trace(&mut buf)?.len();
    std::fs::write(path, &buf)
        .map_err(|e| ArgError(format!("cannot write trace file {path:?}: {e}")))?;
    eprintln!("trace: wrote {events} events to {path}");
    Ok(())
}

/// The tail end of every `natoms` invocation: writes the `--metrics`
/// snapshot and `--trace` export once the subcommand has run.
///
/// Both files are written for [`CmdStatus::PartialFailure`] (exit 2)
/// too, not just full success — the failure counters
/// (`jobs_failed`, `deadlines_exceeded`) and the panic/deadline trace
/// instants are exactly what you inspect after a partial failure.
/// `tests` pins this regression.
pub fn finalize_outputs(
    result: Result<CmdStatus, Box<dyn Error>>,
    metrics_path: Option<&str>,
    trace_path: Option<&str>,
) -> Result<CmdStatus, Box<dyn Error>> {
    result.and_then(|status| {
        if let Some(path) = metrics_path {
            write_metrics_snapshot(path)?;
        }
        if let Some(path) = trace_path {
            write_trace(path)?;
        }
        Ok(status)
    })
}

/// `natoms stats` — pretty-prints a `--metrics` snapshot file, with
/// optional assertions for CI smoke checks:
///
/// * `--require-stages a,b,c` fails unless every named stage recorded
///   at least one sample with non-zero total time;
/// * `--require-cache` fails unless the compile cache saw at least one
///   lookup.
pub fn stats_cmd(args: &Args) -> CmdResult {
    let path = args
        .get("file")
        .ok_or_else(|| ArgError("stats needs --file <metrics.json>".into()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| ArgError(format!("cannot read metrics file {path:?}: {e}")))?;
    let snapshot: na_telemetry::MetricsSnapshot = serde_json::from_str(&text)
        .map_err(|e| ArgError(format!("{path}: not a metrics snapshot: {e}")))?;
    if snapshot.schema != na_telemetry::SNAPSHOT_SCHEMA {
        return Err(Box::new(ArgError(format!(
            "{path}: unknown snapshot schema {:?} (expected {:?})",
            snapshot.schema,
            na_telemetry::SNAPSHOT_SCHEMA
        ))));
    }
    print!("{}", snapshot.render());

    if let Some(required) = args.get("require-stages") {
        for name in required.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let stage = snapshot.stage(name).ok_or_else(|| {
                ArgError(format!("required stage {name:?} missing from snapshot"))
            })?;
            if stage.count == 0 || stage.total_ns == 0 {
                return Err(Box::new(ArgError(format!(
                    "required stage {name:?} recorded no time"
                ))));
            }
        }
    }
    if args.flag("require-cache") {
        let lookups =
            snapshot.counter("compile_cache_hits") + snapshot.counter("compile_cache_misses");
        if lookups == 0 {
            return Err(Box::new(ArgError(
                "snapshot has no compile-cache lookups".into(),
            )));
        }
    }
    Ok(CmdStatus::Ok)
}

/// `natoms trace <file>` — summarizes a Chrome trace-event file
/// written by the global `--trace` flag (the summary is
/// [`na_telemetry::trace::write_summary`]; `--top N` slowest spans,
/// default 10). A closed stdout (`natoms trace f | head -1`) ends the
/// summary early without error.
pub fn trace_cmd(args: &Args) -> CmdResult {
    let path = args
        .positional()
        .or_else(|| args.get("file"))
        .ok_or_else(|| ArgError("trace needs a file: natoms trace <trace.json>".into()))?;
    let top: usize = args.parse_or("top", 10)?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| ArgError(format!("cannot read trace file {path:?}: {e}")))?;
    let events = na_telemetry::trace::read_chrome_trace(&text)
        .map_err(|e| ArgError(format!("{path}: not a trace-event array: {e}")))?;
    match na_telemetry::trace::write_summary(&mut std::io::stdout().lock(), path, &events, top) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(Box::new(e)),
        _ => Ok(CmdStatus::Ok),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn benchmark_names_parse() {
        assert_eq!(parse_benchmark("qaoa").unwrap(), Benchmark::Qaoa);
        assert_eq!(parse_benchmark("QFT-Adder").unwrap(), Benchmark::QftAdder);
        assert!(parse_benchmark("ghz").is_err());
    }

    #[test]
    fn strategy_names_parse() {
        assert_eq!(parse_strategy("reroute").unwrap(), Strategy::MinorReroute);
        assert_eq!(
            parse_strategy("c-small-reroute").unwrap(),
            Strategy::CompileSmallReroute
        );
        assert!(parse_strategy("magic").is_err());
    }

    #[test]
    fn grid_spec_parses() {
        let g = parse_grid("8x12").unwrap();
        assert_eq!((g.width(), g.height()), (8, 12));
        assert!(parse_grid("8by12").is_err());
        assert!(parse_grid("0x5").is_err());
    }

    #[test]
    fn compile_command_runs() {
        let args = parse(&[
            "compile",
            "--benchmark",
            "qaoa",
            "--size",
            "12",
            "--mid",
            "2",
        ]);
        compile_cmd(&args).unwrap();
    }

    #[test]
    fn compile_command_reports_passes() {
        let args = parse(&[
            "compile",
            "--benchmark",
            "qaoa",
            "--size",
            "12",
            "--mid",
            "2",
            "--passes",
        ]);
        compile_cmd(&args).unwrap();
    }

    #[test]
    fn sweep_command_runs() {
        let args = parse(&[
            "sweep",
            "--benchmark",
            "bv",
            "--size",
            "12",
            "--mids",
            "1,3",
        ]);
        sweep_cmd(&args).unwrap();
    }

    #[test]
    fn sweep_command_runs_through_engine_workers() {
        let args = parse(&[
            "sweep",
            "--benchmark",
            "bv",
            "--size",
            "12",
            "--mids",
            "1,2,3",
            "--workers",
            "4",
        ]);
        sweep_cmd(&args).unwrap();
    }

    #[test]
    fn success_command_fails_typed_on_a_device_too_small() {
        let args = parse(&["success", "--size", "30", "--grid", "5x5"]);
        let err = success_cmd(&args).expect_err("30 qubits do not fit 25 atoms");
        assert_eq!(
            err.to_string(),
            "program needs 30 qubits but only 25 atoms are usable"
        );
    }

    #[test]
    fn campaign_command_runs() {
        let args = parse(&[
            "campaign",
            "--size",
            "12",
            "--shots",
            "20",
            "--strategy",
            "remap",
        ]);
        campaign_cmd(&args).unwrap();
    }

    #[test]
    fn campaign_replicas_run_in_parallel() {
        let args = parse(&[
            "campaign",
            "--size",
            "12",
            "--shots",
            "20",
            "--strategy",
            "remap",
            "--campaigns",
            "3",
            "--workers",
            "3",
        ]);
        campaign_cmd(&args).unwrap();
    }

    #[test]
    fn campaign_shards_and_streaming_run() {
        campaign_cmd(&parse(&[
            "campaign",
            "--size",
            "12",
            "--shots",
            "24",
            "--strategy",
            "remap",
            "--shards",
            "3",
            "--workers",
            "2",
            "--streaming",
        ]))
        .unwrap();
    }

    #[test]
    fn campaign_rejects_timeline_with_streaming() {
        let err = campaign_cmd(&parse(&[
            "campaign",
            "--size",
            "12",
            "--shots",
            "8",
            "--strategy",
            "remap",
            "--streaming",
            "--timeline",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--timeline"), "{err}");
        assert!(err.to_string().contains("--streaming"), "{err}");
    }

    #[test]
    fn campaign_rejects_zero_shards() {
        let err = campaign_cmd(&parse(&[
            "campaign", "--size", "12", "--shots", "8", "--shards", "0",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--shards"), "{err}");
    }

    #[test]
    fn bad_numeric_flags_are_typed_errors_naming_the_flag() {
        // The last flag of each case is the bad one.
        let cases = [
            "compile --size 3",
            "sweep --mids 3 --size 3",
            "success --size 3",
            "tolerance --size 3",
            "campaign --size 3",
            "compile --mid nan",
            "compile --mid inf",
            "sweep --size 8 --mids nan",
            "sweep --size 8 --mids 0.5",
            "sweep --size 8 --mids 3,-1",
            "sweep --size 8 --mids inf",
            "success --size 8 --error 0",
            "success --size 8 --error 1",
            "success --size 8 --error nan",
            "campaign --size 8 --error -1",
            "campaign --size 8 --error nan",
            "campaign --size 8 --loss-factor -1",
            "campaign --size 8 --loss-factor nan",
            "campaign --size 8 --loss-factor 0.01",
            "campaign --size 8 --campaigns 0",
            "reload-time --width 0",
            "reload-time --height 0",
            "tolerance --size 8 --trials 0",
            "tolerance --size 8 --trials 100001",
            "tolerance --size 8 --trials 4294967295",
            "compile --grid 65536x65536",
            "compile --grid 65536x65537",
            "compile --grid 65x64",
            "compile --grid 0x5",
            "compile --grid 10by10",
            "reload-time --width 4097",
            "reload-time --width 100 --height 41",
            "reload-time --margin 0",
            "reload-time --width 60 --height 60 --margin 3",
            "reload-time --width 20 --height 20 --margin 3",
            "reload-time --trials 0",
        ];
        for case in cases {
            let tokens: Vec<&str> = case.split(' ').collect();
            let flag = tokens.iter().rfind(|t| t.starts_with("--")).unwrap();
            let cmd: fn(&Args) -> CmdResult = match tokens[0] {
                "compile" => compile_cmd,
                "sweep" => sweep_cmd,
                "success" => success_cmd,
                "tolerance" => tolerance_cmd,
                "campaign" => campaign_cmd,
                _ => reload_time_cmd,
            };
            let err = cmd(&parse(&tokens)).expect_err(case);
            assert!(err.to_string().starts_with(flag), "{case}: {err}");
        }
    }

    #[test]
    fn engine_fan_flags_are_capped_before_any_engine_runs() {
        // Checked on the parsed flags alone: an over-cap value must
        // never reach an engine, which would spawn its threads or
        // reserve its shards.
        for case in ["sweep --workers 1025", "campaign --workers 100000"] {
            let err = engine(&parse(&case.split(' ').collect::<Vec<_>>())).expect_err(case);
            assert!(err.to_string().starts_with("--workers"), "{case}: {err}");
        }
        for case in [
            "campaign --campaigns 65537",
            "campaign --campaigns 4294967295",
            "campaign --shards 65537",
            "campaign --shards 4000000000",
            "campaign --campaigns 256 --shards 257",
            "campaign --campaigns 65536 --shards 2",
        ] {
            let tokens: Vec<&str> = case.split(' ').collect();
            let flag = tokens.iter().rfind(|t| t.starts_with("--")).unwrap();
            let err = campaign_fan(&parse(&tokens)).expect_err(case);
            assert!(err.to_string().starts_with(flag), "{case}: {err}");
        }
        // The caps themselves are accepted.
        assert!(engine(&parse(&["sweep", "--workers", "1024"])).is_ok());
        let fan = |tokens: &[&str]| campaign_fan(&parse(tokens)).unwrap();
        assert_eq!(
            fan(&["campaign", "--campaigns", "256", "--shards", "256"]),
            (256, 256)
        );
        assert_eq!(fan(&["campaign", "--shards", "65536"]), (1, 65_536));
        assert_eq!(fan(&["campaign"]), (1, 1));
    }

    #[test]
    fn huge_mid_compile_finishes() {
        compile_cmd(&parse(&["compile", "--size", "8", "--mid", "1e6"])).unwrap();
    }

    #[test]
    fn stats_command_round_trips_a_metrics_file() {
        // Build a snapshot through the real pipeline (compile through
        // a cache with telemetry on), write it, and re-read it through
        // the stats command's checks.
        let mut recorder = na_telemetry::Recorder::new();
        recorder.record_ns(na_telemetry::Span::Lower, 1_000);
        recorder.record_ns(na_telemetry::Span::Place, 2_000);
        recorder.record_ns(na_telemetry::Span::RouteSchedule, 3_000);
        recorder.add(na_telemetry::Counter::CompileCacheMisses, 1);
        let snapshot = na_telemetry::MetricsSnapshot::of(&recorder, true);
        let path = std::env::temp_dir().join("natoms_cli_stats_test.json");
        std::fs::write(&path, serde_json::to_string(&snapshot).unwrap()).unwrap();
        let path = path.to_str().unwrap().to_string();

        stats_cmd(&parse(&[
            "stats",
            "--file",
            &path,
            "--require-stages",
            "lower,place,route_schedule",
            "--require-cache",
        ]))
        .unwrap();
        // Missing stage and absent cache counters must fail loudly.
        let err = stats_cmd(&parse(&[
            "stats",
            "--file",
            &path,
            "--require-stages",
            "recompile",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("recompile"));
        let err = stats_cmd(&parse(&["stats", "--file", "/nonexistent.json"])).unwrap_err();
        assert!(err.to_string().contains("cannot read"));
    }

    #[test]
    fn sweep_partial_failure_is_reported_not_fatal() {
        // A zero budget fails every job at its first deadline
        // checkpoint; the sweep still renders its table and reports
        // partial failure instead of aborting.
        let args = parse(&[
            "sweep",
            "--benchmark",
            "bv",
            "--size",
            "12",
            "--mids",
            "1,3",
            "--job-timeout",
            "0",
        ]);
        assert_eq!(sweep_cmd(&args).unwrap(), CmdStatus::PartialFailure);
    }

    #[test]
    fn generous_job_timeout_changes_nothing() {
        let args = parse(&[
            "sweep",
            "--benchmark",
            "bv",
            "--size",
            "12",
            "--mids",
            "1,3",
            "--job-timeout",
            "3600",
        ]);
        assert_eq!(sweep_cmd(&args).unwrap(), CmdStatus::Ok);
    }

    #[test]
    fn bad_job_timeouts_are_rejected() {
        let err = sweep_cmd(&parse(&["sweep", "--size", "12", "--job-timeout", "-1"])).unwrap_err();
        assert!(err.to_string().contains("non-negative"));
        let err = sweep_cmd(&parse(&["sweep", "--size", "12", "--job-timeout"])).unwrap_err();
        assert!(err.to_string().contains("expects a number of seconds"));
    }

    #[test]
    fn campaign_replica_failures_are_rows_not_aborts() {
        let args = parse(&[
            "campaign",
            "--size",
            "12",
            "--shots",
            "10",
            "--strategy",
            "remap",
            "--campaigns",
            "2",
            "--job-timeout",
            "0",
        ]);
        assert_eq!(campaign_cmd(&args).unwrap(), CmdStatus::PartialFailure);
    }

    #[test]
    fn sweep_writes_jsonl_to_a_file() {
        let path = std::env::temp_dir().join("natoms_cli_sweep.jsonl");
        let path = path.to_str().unwrap().to_string();
        let args = parse(&[
            "sweep",
            "--benchmark",
            "bv",
            "--size",
            "12",
            "--mids",
            "1,3",
            "--jsonl",
            &path,
        ]);
        assert_eq!(sweep_cmd(&args).unwrap(), CmdStatus::Ok);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let row: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(row.get("outcome").is_some(), "not a result row: {line}");
        }
    }

    #[test]
    fn finalize_outputs_writes_snapshots_on_partial_failure_too() {
        // Regression guard: an exit-2 run (typed failed rows) must
        // still write the --metrics snapshot and --trace export — the
        // failure counters and fault instants are what you inspect
        // after a partial failure.
        let metrics = std::env::temp_dir().join("natoms_cli_partial_metrics.json");
        let trace = std::env::temp_dir().join("natoms_cli_partial_trace.json");
        for p in [&metrics, &trace] {
            let _ = std::fs::remove_file(p);
        }
        let out = finalize_outputs(
            Ok(CmdStatus::PartialFailure),
            Some(metrics.to_str().unwrap()),
            Some(trace.to_str().unwrap()),
        )
        .unwrap();
        assert_eq!(out, CmdStatus::PartialFailure, "status must pass through");
        let snap: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert_eq!(
            snap.get("schema").and_then(|s| s.as_str()),
            Some(na_telemetry::SNAPSHOT_SCHEMA)
        );
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        let events: serde_json::Value = serde_json::from_str(&trace_text).unwrap();
        assert!(
            events.as_array().is_some(),
            "trace export must be an event array"
        );
        // An Err result must stay an Err and write nothing.
        let _ = std::fs::remove_file(&metrics);
        let err = finalize_outputs(
            Err(Box::new(ArgError("boom".into()))),
            Some(metrics.to_str().unwrap()),
            None,
        );
        assert!(err.is_err());
        assert!(!metrics.exists(), "failed runs must not write snapshots");
    }

    #[test]
    fn trace_cmd_summarizes_a_trace_file() {
        let path = std::env::temp_dir().join("natoms_cli_trace_summary.json");
        std::fs::write(
            &path,
            r#"[
              {"name":"job","cat":"job","ph":"B","ts":10.0,"pid":1,"tid":1,"args":{"id":1,"job":0,"task":"compile"}},
              {"name":"lower","cat":"pass","ph":"B","ts":11.0,"pid":1,"tid":1,"args":{"id":2,"parent":1}},
              {"name":"lower","cat":"pass","ph":"E","ts":15.0,"pid":1,"tid":1},
              {"name":"cache_wait","cat":"cache","ph":"B","ts":16.0,"pid":1,"tid":1,"args":{"id":3,"parent":1}},
              {"name":"cache_wait","cat":"cache","ph":"E","ts":18.0,"pid":1,"tid":1},
              {"name":"cache_hit","cat":"cache","ph":"i","s":"t","ts":19.0,"pid":1,"tid":1},
              {"name":"job","cat":"job","ph":"E","ts":20.0,"pid":1,"tid":1}
            ]"#,
        )
        .unwrap();
        // The folding and the summary text are pinned next to the
        // codec, in `na_telemetry::trace`'s tests.
        let args = parse(&["trace", path.to_str().unwrap()]);
        assert_eq!(trace_cmd(&args).unwrap(), CmdStatus::Ok);
    }

    #[test]
    fn trace_cmd_rejects_missing_and_malformed_files() {
        let args = parse(&["trace"]);
        assert!(trace_cmd(&args).is_err(), "no file argument");
        let path = std::env::temp_dir().join("natoms_cli_trace_bad.json");
        std::fs::write(&path, "{not json").unwrap();
        let args = parse(&["trace", path.to_str().unwrap()]);
        assert!(trace_cmd(&args).is_err(), "malformed trace must error");
    }

    #[test]
    fn unwritable_output_paths_fail_up_front() {
        let err = validate_writable("/nonexistent-dir/x.json", "metrics").unwrap_err();
        assert!(err.to_string().contains("for writing"));
        // Validation must not truncate a file that already exists.
        let path = std::env::temp_dir().join("natoms_cli_writable.txt");
        std::fs::write(&path, "keep").unwrap();
        validate_writable(path.to_str().unwrap(), "JSONL").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "keep");
    }

    #[test]
    fn tolerance_rejects_unsupported_mid() {
        let args = parse(&["tolerance", "--mid", "2", "--strategy", "c-small"]);
        assert!(tolerance_cmd(&args).is_err());
    }

    /// Writes a QASM fixture under the target temp dir and returns its
    /// path as a String.
    fn qasm_fixture(name: &str, body: &str) -> String {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, body).expect("fixture written");
        path.to_str().expect("utf-8 temp path").to_string()
    }

    const GHZ4: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\ncreg c[4];\n\
                        h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\nmeasure q -> c;\n";

    #[test]
    fn qasm_workloads_flow_through_every_command() {
        let path = qasm_fixture("natoms_cli_ghz4.qasm", GHZ4);
        compile_cmd(&parse(&["compile", "--qasm", &path, "--mid", "2"])).unwrap();
        sweep_cmd(&parse(&["sweep", "--qasm", &path, "--mids", "2,3"])).unwrap();
        success_cmd(&parse(&["success", "--qasm", &path, "--mid", "2"])).unwrap();
        tolerance_cmd(&parse(&[
            "tolerance",
            "--qasm",
            &path,
            "--mid",
            "3",
            "--trials",
            "2",
        ]))
        .unwrap();
        campaign_cmd(&parse(&[
            "campaign",
            "--qasm",
            &path,
            "--mid",
            "3",
            "--shots",
            "10",
            "--strategy",
            "remap",
        ]))
        .unwrap();
    }

    #[test]
    fn valueless_qasm_flag_is_rejected_not_ignored() {
        // `--qasm` with no path parses as a boolean flag; it must not
        // silently fall back to the default benchmark.
        let err = compile_cmd(&parse(&["compile", "--qasm"])).unwrap_err();
        assert!(err.to_string().contains("expects a file path"));
        let err = compile_cmd(&parse(&["compile", "--benchmark", "bv", "--qasm"])).unwrap_err();
        assert!(err.to_string().contains("--emit-qasm"));
    }

    #[test]
    fn qasm_and_benchmark_are_mutually_exclusive() {
        let path = qasm_fixture("natoms_cli_excl.qasm", GHZ4);
        let args = parse(&["compile", "--qasm", &path, "--benchmark", "bv"]);
        let err = compile_cmd(&args).unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"));
    }

    #[test]
    fn qasm_parse_errors_surface_with_position() {
        let path = qasm_fixture(
            "natoms_cli_bad.qasm",
            "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n",
        );
        let err = compile_cmd(&parse(&["compile", "--qasm", &path])).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "missing position in {msg:?}");
        assert!(msg.contains("frobnicate"), "missing gate name in {msg:?}");
    }

    #[test]
    fn missing_qasm_file_is_a_clean_error() {
        let err = compile_cmd(&parse(&["compile", "--qasm", "/nonexistent/x.qasm"])).unwrap_err();
        assert!(err.to_string().contains("cannot read"));
    }

    #[test]
    fn emit_qasm_round_trips_through_the_importer() {
        // `compile --emit-qasm` output must be importable again — the
        // CLI surface of the round-trip contract.
        let c = common(&parse(&["compile", "--benchmark", "qaoa", "--size", "8"])).unwrap();
        let compiled = compile_common(&c).unwrap();
        let text = na_circuit::qasm::to_qasm(compiled.circuit()).unwrap();
        let back = parse_qasm(&text).unwrap();
        assert_eq!(back.fingerprint(), compiled.circuit().fingerprint());
    }
}
