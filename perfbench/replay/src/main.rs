//! `perfbench-replay`: the traced, in-process half of the perfbench
//! benchmark.
//!
//! `perfbench/run.py` times each workload end to end through the
//! release `natoms` binary. This program replays the same inputs in one
//! process, calling each layer's public functions directly and wrapping
//! every call in a span of its own, so the per-layer numbers are taken
//! from outside the library. Each workload runs three kinds of pass:
//!
//! - **traced**, once — the serial work under spans, with
//!   `na_telemetry` collection on for exact work counters, plus
//!   correctness probes (`verify` on every schedule) whose time is
//!   subtracted from the layer totals;
//! - **untraced**, [`REPEATS`] times — the same serial work with spans
//!   and telemetry off: the baseline for tracing overhead and parallel
//!   efficiency;
//! - **engine**, [`REPEATS`] times, alternating with the untraced
//!   passes — `Engine::run` at `--workers`, telemetry on, rows written
//!   through `write_records` into a `JsonlSink`.
//!
//! It prints one JSON object on stdout: the per-layer metrics, the
//! deterministic results of the traced and untraced passes, and the
//! counter snapshots of the traced and first engine passes. `run.py`
//! checks those against the CLI's JSONL and the engine pass's JSONL
//! files under `--out`.
//!
//! ```console
//! perfbench-replay sweep --benchmarks bv,cnu --sizes 10,20 --mids 1,3 \
//!     --seed 1 --workers 2 --out DIR
//! perfbench-replay campaign --benchmark cuccaro --size 40 --mid 4 \
//!     --strategy c-small-reroute --error 1e-3 --shots 50000 --shards 2 \
//!     --seed 1 --workers 2 --out DIR
//! ```

use na_arch::{Grid, InteractionGraph, Site};
use na_benchmarks::Benchmark;
use na_core::{circuit_weights, compile_with, initial_placement_with, lower_for, verify};
use na_core::{CompilerConfig, PlacementScratch};
use na_engine::{write_records, CompileCache, Engine, ExperimentSpec, JsonlSink, LossSpec, Task};
use na_loss::{
    run_campaign_precompiled, run_campaign_shard, shard_ranges, CampaignConfig, CampaignResult,
    InteractionSummary, LossModel, LossOutcome, OverheadLedger, ShotTarget, Strategy,
    StrategyState,
};
use na_noise::{success_probability, NoiseParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{Number, Value};
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

type Res<T> = Result<T, Box<dyn Error>>;

/// The benchmark's own spans: wall-time samples per name, recorded only
/// while `on` (the untraced pass runs the same calls with it off).
#[derive(Default)]
struct Spans {
    on: bool,
    samples: BTreeMap<&'static str, Vec<u64>>,
}

impl Spans {
    fn traced() -> Self {
        Spans {
            on: true,
            ..Spans::default()
        }
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.record(name, t0);
        out
    }

    fn record(&mut self, name: &'static str, since: Instant) {
        let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.samples.entry(name).or_default().push(ns);
    }

    fn ms(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0, |s| s.iter().sum::<u64>()) as f64 / 1e6
    }

    /// Nearest-rank percentile in microseconds; 0 when never sampled.
    fn pct_us(&self, name: &str, q: f64) -> f64 {
        self.samples.get(name).map_or(0.0, |s| percentile_us(s, q))
    }

    /// Time spent in correctness probes — work the workload itself
    /// never does, subtracted from every pass total.
    fn probe_ns(&self) -> u64 {
        self.samples
            .iter()
            .filter(|(name, _)| name.starts_with("probe."))
            .map(|(_, s)| s.iter().sum::<u64>())
            .sum()
    }
}

fn percentile_us(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e3
}

/// Untraced and engine passes run this many times, interleaved, and
/// report their medians: on a shared host one pass can land in a slow
/// stretch.
const REPEATS: usize = 3;

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn num(x: f64) -> Value {
    Value::Number(Number::Float(x))
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// `--key value` options after the mode word.
struct Opts(HashMap<String, String>);

impl Opts {
    fn parse(raw: &[String]) -> Res<Self> {
        let mut map = HashMap::new();
        let mut it = raw.iter().peekable();
        while let Some(tok) = it.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {tok:?}"))?;
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().cloned().unwrap_or_default(),
                _ => String::new(),
            };
            map.insert(key.to_string(), value);
        }
        Ok(Opts(map))
    }

    fn get(&self, key: &str) -> Res<&str> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}").into())
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Res<T> {
        let raw = self.get(key)?;
        raw.parse()
            .map_err(|_| format!("invalid value {raw:?} for --{key}").into())
    }

    fn list<T: std::str::FromStr>(&self, key: &str) -> Res<Vec<T>> {
        self.get(key)?
            .split(',')
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("invalid item {s:?} in --{key}").into())
            })
            .collect()
    }
}

/// Runs the engine pass's specs with telemetry on, writing every run's
/// rows to `out/engine-<i>.jsonl`. Returns the engine wall time in
/// seconds, the sink time in milliseconds, and the counter snapshot.
fn engine_pass(
    specs: &[ExperimentSpec],
    workers: usize,
    out: &Path,
) -> Res<(f64, f64, na_telemetry::MetricsSnapshot)> {
    na_telemetry::reset();
    na_telemetry::set_enabled(true);
    let mut sink_spans = Spans::traced();
    let mut wall = 0.0;
    for (i, spec) in specs.iter().enumerate() {
        // A fresh engine per spec, like one `natoms` process per call.
        let engine = Engine::with_workers(workers);
        let t0 = Instant::now();
        let records = engine.run(spec);
        wall += secs(t0);
        let file = std::fs::File::create(out.join(format!("engine-{i}.jsonl")))?;
        let mut sink = JsonlSink::new(std::io::BufWriter::new(file));
        sink_spans.time("sink", || write_records(&records, &mut sink))?;
    }
    let snapshot = na_telemetry::snapshot();
    na_telemetry::set_enabled(false);
    na_telemetry::reset();
    Ok((wall, sink_spans.ms("sink"), snapshot))
}

// ---------------------------------------------------------------- sweep

struct Sweep {
    benchmarks: Vec<Benchmark>,
    sizes: Vec<u32>,
    mids: Vec<f64>,
    seed: u64,
}

/// One serial pass over the sweep grid: per (benchmark, size) point the
/// circuit is generated, lowered and placed once (the CLI's artifact
/// store reuses both across MIDs), then compiled at every MID through a
/// fresh `CompileCache`, exactly as one `natoms sweep` process does.
/// The separate `lower`/`place` calls split the compile time; they are
/// subtracted from the `compile` total to give route + schedule.
fn sweep_pass(p: &Sweep, grid: &Grid, spans: &mut Spans) -> Res<Vec<Value>> {
    let mut rows = Vec::new();
    let mut scratch = PlacementScratch::new();
    let front = na_engine::paper::two_qubit_cfg(p.mids[0]);
    for &b in &p.benchmarks {
        for &size in &p.sizes {
            let circuit = spans.time("generate", || b.generate(size, p.seed));
            let lowered = spans.time("lower", || lower_for(&circuit, &front));
            spans.time("place", || {
                let weights = circuit_weights(&lowered, front.lookahead_depth);
                initial_placement_with(&lowered, grid, &weights, &mut scratch)
            })?;
            let cache = CompileCache::new();
            for &mid in &p.mids {
                let cfg = na_engine::paper::two_qubit_cfg(mid);
                let compiled =
                    spans.time("compile", || cache.get_or_compile(&circuit, grid, &cfg))?;
                if spans.on {
                    spans.time("probe.verify", || verify(&compiled, grid))?;
                    spans.time("probe.graph_build", || InteractionGraph::build(grid, mid));
                }
                rows.push(Value::Object(vec![
                    ("benchmark".into(), Value::String(b.name().into())),
                    ("size".into(), Value::Number(Number::PosInt(size.into()))),
                    ("mid".into(), num(mid)),
                    ("metrics".into(), serde_json::to_value(&compiled.metrics())?),
                ]));
            }
        }
    }
    Ok(rows)
}

fn run_sweep(o: &Opts, workers: usize, out: &Path) -> Res<Value> {
    let p = Sweep {
        benchmarks: o
            .get("benchmarks")?
            .split(',')
            .map(str::parse)
            .collect::<Result<_, _>>()?,
        sizes: o.list("sizes")?,
        mids: o.list("mids")?,
        seed: o.num("seed")?,
    };
    let grid = na_engine::paper::paper_grid();

    na_telemetry::reset();
    na_telemetry::set_enabled(true);
    let mut spans = Spans::traced();
    let t0 = Instant::now();
    let traced_rows = sweep_pass(&p, &grid, &mut spans)?;
    let traced_s = secs(t0) - spans.probe_ns() as f64 / 1e9;
    let traced = na_telemetry::snapshot();
    na_telemetry::set_enabled(false);

    let mut specs = Vec::new();
    for &b in &p.benchmarks {
        for &size in &p.sizes {
            let mut spec = ExperimentSpec::new("cli-sweep", grid.clone());
            for &mid in &p.mids {
                let cfg = na_engine::paper::two_qubit_cfg(mid);
                spec.push(b, size, p.seed, cfg, Task::Compile);
            }
            specs.push(spec);
        }
    }
    let mut untraced_rows = Vec::new();
    let (mut untraced_s, mut engine_s, mut sink_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut engine = None;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        untraced_rows = sweep_pass(&p, &grid, &mut Spans::default())?;
        untraced_s.push(secs(t0));
        let (wall, sink, snapshot) = engine_pass(&specs, workers, out)?;
        engine_s.push(wall);
        sink_ms.push(sink);
        engine.get_or_insert(snapshot);
    }
    let untraced_s = median(untraced_s);
    let engine_s = median(engine_s);

    let sum = |key: &str| -> u64 {
        traced_rows
            .iter()
            .filter_map(|r| r.get("metrics")?.get(key)?.as_u64())
            .sum()
    };
    let (lower, place) = (spans.ms("lower"), spans.ms("place"));
    let compile_ms = spans.ms("compile");
    let metrics = vec![
        ("benchmarks.generate_ms", spans.ms("generate")),
        ("core.lower_ms", lower),
        ("core.place_ms", place),
        // `compile` re-runs lower and place at the first MID of every
        // point and reuses them at the others.
        ("core.route_schedule_ms", compile_ms - lower - place),
        ("core.compile_us.p50", spans.pct_us("compile", 0.50)),
        ("core.compile_us.p99", spans.pct_us("compile", 0.99)),
        ("core.swaps", sum("swaps") as f64),
        (
            "arch.graph_build_us",
            spans.pct_us("probe.graph_build", 0.50),
        ),
        (
            "engine.parallel_efficiency",
            compile_ms / 1e3 / (workers as f64 * engine_s),
        ),
        ("engine.sink_ms", median(sink_ms)),
        ("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0),
    ];
    Ok(report(
        named(metrics),
        vec![
            ("untraced", Value::Array(untraced_rows)),
            ("traced", Value::Array(traced_rows)),
        ],
        &traced,
        &engine.expect("REPEATS > 0"),
    ))
}

// ------------------------------------------------------------- campaign

/// Per-shot tallies the replayed shot loop keeps beside the result.
#[derive(Default)]
struct Tally {
    interfering: u64,
    tolerated: u64,
    reloads: u64,
    recompiled_swaps: u64,
}

/// The campaign shot loop (`na_loss::executor::campaign_loop`) replayed
/// call by call, so `draw_losses_with` and `apply_loss` each run under
/// a span. It draws the same RNG streams in the same order, so its
/// result must equal the library's `run_campaign_shard` exactly; every
/// loss-driven recompile is verified on its holey grid.
fn shot_loop(
    mut state: StrategyState,
    mut loss: LossModel,
    cfg: &CampaignConfig,
    seed: u64,
    attempts: u64,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Res<CampaignResult> {
    let params = NoiseParams::neutral_atom(cfg.two_qubit_error);
    let mut base = success_probability(state.compiled(), &params);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut result = CampaignResult::default();
    let mut ledger = OverheadLedger::default();
    let mut streak = 0u64;
    let mut mask = Vec::new();
    let mut losses: Vec<Site> = Vec::new();
    let mut scratch = PlacementScratch::new();
    while result.shots_attempted < attempts {
        result.shots_attempted += 1;
        ledger.add_circuit(base.duration);
        let p_shot = base.probability() * state.swap_penalty(params.p2);
        let noise_ok = p_shot > 0.0 && rng.gen_bool(p_shot.min(1.0));
        ledger.add_fluorescence(&cfg.overheads);
        state.write_measured_mask(&mut mask);
        spans.time("draw", || {
            loss.draw_losses_with(state.grid(), &mask, &mut losses)
        });
        let any_interfering = losses.iter().any(|&s| state.is_interfering(s));
        if !any_interfering && noise_ok {
            result.shots_successful += 1;
            streak += 1;
        } else if any_interfering {
            result.discarded_by_loss += 1;
        } else {
            result.failed_by_noise += 1;
        }
        let mut need_reload = false;
        for &site in &losses {
            if !state.grid().is_usable(site) {
                continue;
            }
            let t0 = Instant::now();
            let outcome = state.apply_loss(site);
            if spans.on && outcome != LossOutcome::Spare {
                spans.record("apply_loss", t0);
            }
            match outcome {
                LossOutcome::Spare => continue,
                LossOutcome::Tolerated { remaps, refixed } => {
                    for _ in 0..remaps {
                        ledger.add_remap(&cfg.overheads);
                    }
                    if refixed {
                        ledger.add_fixup(&cfg.overheads);
                    }
                    tally.tolerated += 1;
                }
                LossOutcome::Recompiled { compile_seconds } => {
                    ledger.add_recompile(&cfg.overheads, compile_seconds);
                    base = success_probability(state.compiled(), &params);
                    tally.tolerated += 1;
                    if spans.on {
                        recompile_probes(&state, cfg, spans, &mut scratch, tally)?;
                    }
                }
                LossOutcome::NeedsReload => need_reload = true,
            }
            tally.interfering += 1;
            if need_reload {
                break;
            }
        }
        if need_reload {
            state.reload();
            base = success_probability(state.compiled(), &params);
            ledger.add_reload(&cfg.overheads);
            result.streaks.complete(streak);
            streak = 0;
            tally.reloads += 1;
        }
    }
    result.streaks.open = Some(streak);
    result.ledger = ledger;
    Ok(result)
}

/// Checks and layer probes after a loss-driven recompile: the new
/// schedule must verify on the holey grid it was compiled for, and the
/// placement and interaction-graph work it redid is timed separately.
fn recompile_probes(
    state: &StrategyState,
    cfg: &CampaignConfig,
    spans: &mut Spans,
    scratch: &mut PlacementScratch,
    tally: &mut Tally,
) -> Res<()> {
    let compiled = state.compiled();
    spans.time("probe.verify", || verify(compiled, state.grid()))?;
    let mid = cfg.strategy.compile_mid(cfg.hardware_mid);
    spans.time("probe.graph_build", || {
        InteractionGraph::build(state.grid(), mid)
    });
    let lowered = compiled.circuit();
    spans.time("probe.place", || {
        let weights = circuit_weights(lowered, CompilerConfig::new(mid).lookahead_depth);
        initial_placement_with(lowered, state.grid(), &weights, scratch)
    })?;
    tally.recompiled_swaps += compiled.metrics().swaps as u64;
    Ok(())
}

/// The paper's Fig. 12 coping latency (formerly the criterion
/// `loss_reaction` bench): `apply_loss` on an interfering atom of
/// CNU-30 at MID 4, once per interfering site, from a fresh copy of the
/// just-compiled state each time.
fn loss_reaction() -> Res<Vec<(String, f64)>> {
    const SAMPLES: usize = 300;
    let grid = Grid::new(10, 10);
    let program = Benchmark::Cnu.generate(30, 0);
    let mut metrics = Vec::new();
    for (label, strategy) in [
        ("remap", Strategy::VirtualRemap),
        ("reroute", Strategy::MinorReroute),
        ("c-small-reroute", Strategy::CompileSmallReroute),
        ("recompile", Strategy::FullRecompile),
    ] {
        let fresh = StrategyState::new(&program, &grid, 4.0, strategy, None)?;
        let victims: Vec<Site> = fresh
            .grid()
            .usable_sites()
            .filter(|&s| fresh.is_interfering(s))
            .collect();
        let mut spans = Spans::traced();
        for &victim in victims.iter().cycle().take(SAMPLES) {
            let mut state = fresh.clone();
            let t0 = Instant::now();
            let outcome = state.apply_loss(victim);
            spans.record("reaction", t0);
            if outcome == LossOutcome::Spare {
                return Err(format!("{label}: interfering loss at {victim} was spare").into());
            }
        }
        for q in [0.50, 0.99] {
            let name = format!("loss.reaction_us.{label}.p{}", (q * 100.0) as u32);
            metrics.push((name, spans.pct_us("reaction", q)));
        }
    }
    Ok(metrics)
}

fn run_campaign(o: &Opts, workers: usize, out: &Path) -> Res<Value> {
    let benchmark: Benchmark = o.get("benchmark")?.parse()?;
    let size: u32 = o.num("size")?;
    let mid: f64 = o.num("mid")?;
    let strategy: Strategy = o.get("strategy")?.parse()?;
    let shots: u64 = o.num("shots")?;
    let shards: u32 = o.num("shards")?;
    let seed: u64 = o.num("seed")?;
    let grid = na_engine::paper::paper_grid();
    // The CLI's `natoms campaign --streaming` configuration, verbatim.
    let mut cfg = CampaignConfig::new(mid, strategy)
        .with_target(ShotTarget::Attempts(shots))
        .with_two_qubit_error(o.num("error")?)
        .with_seed(seed)
        .with_streaming();
    cfg.max_attempts = cfg.max_attempts.max(shots);
    let loss_spec = LossSpec::new(seed);
    let ranges = shard_ranges(&cfg, shards)?;
    let compile_cfg = CompilerConfig::new(strategy.compile_mid(mid));

    // Untraced: the library's own shard loop (the engine's per-shard
    // call), one clock read per shard.
    let program = benchmark.generate(size, seed);
    let compiled = Arc::new(compile_with(
        &program,
        &grid,
        &compile_cfg,
        &mut PlacementScratch::new(),
    )?);
    let summary = Arc::new(InteractionSummary::of(&compiled));
    let untraced_pass = || -> Res<(CampaignResult, Vec<f64>)> {
        let mut shard_s = Vec::new();
        let mut merged: Option<CampaignResult> = None;
        for (i, &range) in ranges.iter().enumerate() {
            let t0 = Instant::now();
            let (c, s) = (Arc::clone(&compiled), Arc::clone(&summary));
            let result = if shards == 1 {
                run_campaign_precompiled(&program, &grid, c, s, loss_spec.build(), &cfg)?
            } else {
                let loss = loss_spec.build();
                run_campaign_shard(&program, &grid, c, s, &loss, &cfg, i as u32, range)?
            };
            shard_s.push(secs(t0));
            match merged.as_mut() {
                None => merged = Some(result),
                Some(m) => m.merge(&result),
            }
        }
        Ok((merged.unwrap_or_default(), shard_s))
    };

    // Traced: generate and compile under spans, then replay the
    // shot loop call by call.
    na_telemetry::reset();
    na_telemetry::set_enabled(true);
    let mut spans = Spans::traced();
    let program = spans.time("generate", || benchmark.generate(size, seed));
    let mut scratch = PlacementScratch::new();
    let lowered = spans.time("lower", || lower_for(&program, &compile_cfg));
    spans.time("place", || {
        let weights = circuit_weights(&lowered, compile_cfg.lookahead_depth);
        initial_placement_with(&lowered, &grid, &weights, &mut scratch)
    })?;
    let compiled = Arc::new(spans.time("compile", || {
        compile_with(&program, &grid, &compile_cfg, &mut scratch)
    })?);
    spans.time("probe.verify", || verify(&compiled, &grid))?;
    for m in [mid, compile_cfg.mid] {
        spans.time("probe.graph_build", || InteractionGraph::build(&grid, m));
    }
    let summary = Arc::new(InteractionSummary::of(&compiled));
    let mut tally = Tally::default();
    let mut traced: Option<CampaignResult> = None;
    let t_loop = Instant::now();
    let probes_before = spans.probe_ns();
    for (i, &range) in ranges.iter().enumerate() {
        let state = StrategyState::with_compiled(
            &program,
            &grid,
            mid,
            strategy,
            strategy.reroutes().then(|| cfg.swap_budget()),
            Arc::clone(&compiled),
            Arc::clone(&summary),
        );
        // The shard seeding contract of `run_campaign_shard`.
        let base_loss = loss_spec.build();
        let loss = if i == 0 {
            base_loss
        } else {
            base_loss.reseeded(na_loss::derive_seed(base_loss.seed(), i as u64))
        };
        let shard_seed = na_loss::shard_seed(cfg.seed, i as u32);
        let result = shot_loop(
            state, loss, &cfg, shard_seed, range.len, &mut spans, &mut tally,
        )?;
        match traced.as_mut() {
            None => traced = Some(result),
            Some(m) => m.merge(&result),
        }
    }
    let loop_ms = (secs(t_loop) * 1e9 - (spans.probe_ns() - probes_before) as f64) / 1e6;
    let traced_snapshot = na_telemetry::snapshot();
    na_telemetry::set_enabled(false);

    // The engine, as `natoms campaign` drives it.
    let mut spec = ExperimentSpec::new("cli-campaign", grid.clone());
    let task = if shards == 1 {
        Task::Campaign {
            config: cfg,
            loss: loss_spec,
        }
    } else {
        Task::ShardedCampaign {
            config: cfg,
            loss: loss_spec,
            shards,
        }
    };
    spec.push(benchmark, size, seed, CompilerConfig::new(mid), task);
    let mut untraced = CampaignResult::default();
    let (mut untraced_s, mut imbalance) = (Vec::new(), Vec::new());
    let (mut engine_s, mut sink_ms, mut engine) = (Vec::new(), Vec::new(), None);
    for _ in 0..REPEATS {
        let (result, shard_s) = untraced_pass()?;
        let total: f64 = shard_s.iter().sum();
        let slowest = shard_s.iter().copied().fold(0.0, f64::max);
        imbalance.push(slowest * shard_s.len() as f64 / total);
        untraced_s.push(total);
        untraced = result;
        let (wall, sink, snapshot) = engine_pass(std::slice::from_ref(&spec), workers, out)?;
        engine_s.push(wall);
        sink_ms.push(sink);
        engine.get_or_insert(snapshot);
    }
    let untraced_s = median(untraced_s);
    let engine_s = median(engine_s);

    let traced = traced.unwrap_or_default();
    let (lower, place) = (spans.ms("lower"), spans.ms("place"));
    // Every interfering loss under `recompile` is a compile on the new
    // holey grid that redoes placement and the interaction graph (both
    // timed by the probes); the rest of it is route + schedule.
    let recompiles = strategy == Strategy::FullRecompile;
    let mut compile_samples = spans.samples.get("compile").cloned().unwrap_or_default();
    let mut route_schedule = compile_samples.iter().sum::<u64>() as f64 / 1e6 - lower - place;
    if recompiles {
        compile_samples.extend(spans.samples.get("apply_loss").into_iter().flatten());
        route_schedule +=
            spans.ms("apply_loss") - spans.ms("probe.place") - spans.ms("probe.graph_build");
    }
    let mut metrics = named(vec![
        ("benchmarks.generate_ms", spans.ms("generate")),
        ("core.lower_ms", lower),
        ("core.place_ms", place + spans.ms("probe.place")),
        ("core.route_schedule_ms", route_schedule),
        ("core.compile_us.p50", percentile_us(&compile_samples, 0.50)),
        ("core.compile_us.p99", percentile_us(&compile_samples, 0.99)),
        (
            "core.swaps",
            (compiled.metrics().swaps as u64 + tally.recompiled_swaps) as f64,
        ),
        (
            "arch.graph_build_us",
            spans.pct_us("probe.graph_build", 0.50),
        ),
        ("loss.shot_loop_ms", loop_ms),
        ("loss.draw_us.p50", spans.pct_us("draw", 0.50)),
        ("loss.apply_loss_us.p50", spans.pct_us("apply_loss", 0.50)),
        ("loss.apply_loss_us.p99", spans.pct_us("apply_loss", 0.99)),
        ("loss.apply_loss_share", spans.ms("apply_loss") / loop_ms),
        (
            "loss.tolerated_frac",
            tally.tolerated as f64 / tally.interfering.max(1) as f64,
        ),
        ("loss.interfering_losses", tally.interfering as f64),
        ("loss.reloads", tally.reloads as f64),
        (
            "engine.parallel_efficiency",
            untraced_s / (workers as f64 * engine_s),
        ),
        ("engine.shard_imbalance", median(imbalance)),
        ("engine.sink_ms", median(sink_ms)),
        (
            "trace.overhead_pct",
            (loop_ms / 1e3 / untraced_s - 1.0) * 100.0,
        ),
    ]);
    metrics.extend(loss_reaction()?);
    Ok(report(
        metrics,
        vec![
            ("untraced", serde_json::to_value(&untraced)?),
            ("traced", serde_json::to_value(&traced)?),
        ],
        &traced_snapshot,
        &engine.expect("REPEATS > 0"),
    ))
}

fn named(metrics: Vec<(&str, f64)>) -> Vec<(String, f64)> {
    metrics
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

fn report(
    metrics: Vec<(String, f64)>,
    results: Vec<(&str, Value)>,
    traced: &na_telemetry::MetricsSnapshot,
    engine: &na_telemetry::MetricsSnapshot,
) -> Value {
    let counters = |snapshot: &na_telemetry::MetricsSnapshot| {
        serde_json::to_value(&snapshot.counters).expect("counters serialize")
    };
    Value::Object(vec![
        (
            "metrics".into(),
            Value::Object(metrics.into_iter().map(|(k, v)| (k, num(v))).collect()),
        ),
        (
            "results".into(),
            Value::Object(
                results
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ),
        ),
        (
            "counters".into(),
            Value::Object(vec![
                ("traced".into(), counters(traced)),
                ("engine".into(), counters(engine)),
            ]),
        ),
    ])
}

// ------------------------------------------------------------- calibrate

/// A fixed CPU load that calls none of the repo's code: two threads of
/// breadth-first search over a random graph, hash-map counting and
/// sorting, the same mix of work the compiler and the loss layer do.
/// `run.py` times it between passes to measure how fast the host is
/// running right now; a change to natoms cannot move it.
fn calibrate() -> Value {
    fn kernel(seed: u64) -> u64 {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let n = 20_000;
        let adj: Vec<[u32; 4]> = (0..n)
            .map(|_| [0; 4].map(|_| (next() % n as u64) as u32))
            .collect();
        let mut dist = vec![u32::MAX; n];
        let mut queue = Vec::with_capacity(n);
        let mut acc = 0u64;
        for round in 0..300 {
            let src = round * 97 % n;
            dist.fill(u32::MAX);
            dist[src] = 0;
            queue.clear();
            queue.push(src as u32);
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                for v in adj[u as usize] {
                    if dist[v as usize] == u32::MAX {
                        dist[v as usize] = dist[u as usize] + 1;
                        queue.push(v);
                    }
                }
            }
            let mut keys: Vec<u64> = (0..2000).map(|_| next() % 5000).collect();
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for &k in &keys {
                *counts.entry(k).or_insert(0) += 1;
            }
            keys.sort_unstable();
            acc += dist.iter().map(|&d| u64::from(d & 0xff)).sum::<u64>();
            acc += counts.len() as u64 + keys[1000];
        }
        acc
    }
    let checksum: u64 = std::thread::scope(|s| {
        let threads: Vec<_> = (0..2).map(|i| s.spawn(move || kernel(i + 7))).collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("calibration thread panicked"))
            .sum()
    });
    Value::Object(vec![(
        "checksum".into(),
        Value::Number(Number::PosInt(std::hint::black_box(checksum))),
    )])
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = (|| -> Res<Value> {
        let (mode, rest) = raw
            .split_first()
            .ok_or("usage: perfbench-replay sweep|campaign|calibrate --key value ...")?;
        if mode == "calibrate" {
            return Ok(calibrate());
        }
        let opts = Opts::parse(rest)?;
        let workers: usize = opts.num("workers")?;
        let out = PathBuf::from(opts.get("out")?);
        match mode.as_str() {
            "sweep" => run_sweep(&opts, workers, &out),
            "campaign" => run_campaign(&opts, workers, &out),
            other => Err(format!("unknown mode {other:?}").into()),
        }
    })();
    match result {
        Ok(value) => println!(
            "{}",
            serde_json::to_string(&value).expect("report serializes")
        ),
        Err(e) => {
            eprintln!("perfbench-replay: {e}");
            std::process::exit(1);
        }
    }
}
