//! The multi-shot campaign simulator (paper Figs. 12–14).
//!
//! Recompilations triggered mid-campaign (the `FullRecompile`
//! strategy) run through the same `na_core` pass pipeline as the
//! initial compile — see [`StrategyState::apply_loss`] — so per-pass
//! telemetry and deadline checks cover loss-driven recompiles too.

use crate::state::{LossOutcome, StrategyState};
use crate::stats::{shard_seed, StreakStats};
use crate::timeline::{EventKind, TimelineEvent};
use crate::{LossModel, OverheadLedger, OverheadTimes, Strategy};
use na_arch::{Grid, Site};
use na_circuit::Circuit;
use na_core::CompileError;
use na_noise::{success_probability, NoiseParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// When a campaign stops. Counts are `u64` so streaming campaigns can
/// target 10⁶–10⁸ shots without widening anything downstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShotTarget {
    /// Run exactly this many shots (Fig. 12 runs 500).
    Attempts(u64),
    /// Run until this many shots succeed (Fig. 14 traces 20).
    Successes(u64),
}

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Hardware maximum interaction distance.
    pub hardware_mid: f64,
    /// The coping strategy under test.
    pub strategy: Strategy,
    /// Stop condition.
    pub target: ShotTarget,
    /// Safety cap on total shots.
    pub max_attempts: u64,
    /// Two-qubit gate error of the simulated hardware (drives success
    /// draws and the reroute SWAP budget).
    pub two_qubit_error: f64,
    /// Overhead timing constants.
    pub overheads: OverheadTimes,
    /// Reroute strategies force a reload once fixup SWAPs would push
    /// success below this fraction of the loss-free rate (paper: 0.5).
    pub success_floor: f64,
    /// RNG seed for success draws.
    pub seed: u64,
    /// Record a full event timeline (Fig. 14).
    pub record_timeline: bool,
    /// Streaming mode: keep only the constant-memory streak summary
    /// ([`CampaignResult::streaks`]) — the per-interval
    /// `shots_between_reloads` vector stays empty and the timeline is
    /// suppressed, so memory is flat at any shot count.
    #[serde(default)]
    pub streaming: bool,
}

impl CampaignConfig {
    /// Paper-style defaults: 500 shots, 3.5% two-qubit error, standard
    /// overheads, 50% success floor.
    pub fn new(hardware_mid: f64, strategy: Strategy) -> Self {
        CampaignConfig {
            hardware_mid,
            strategy,
            target: ShotTarget::Attempts(500),
            max_attempts: 100_000,
            two_qubit_error: 0.035,
            overheads: OverheadTimes::default(),
            success_floor: 0.5,
            seed: 0,
            record_timeline: false,
            streaming: false,
        }
    }

    /// Replaces the stop condition.
    pub fn with_target(mut self, target: ShotTarget) -> Self {
        self.target = target;
        self
    }

    /// Replaces the two-qubit error rate.
    pub fn with_two_qubit_error(mut self, e: f64) -> Self {
        self.two_qubit_error = e;
        self
    }

    /// Replaces the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables timeline recording.
    pub fn with_timeline(mut self) -> Self {
        self.record_timeline = true;
        self
    }

    /// Enables streaming (constant-memory) mode.
    pub fn with_streaming(mut self) -> Self {
        self.streaming = true;
        self
    }

    /// The SWAP budget implied by the success floor: the largest `n`
    /// with `p2^{3n} ≥ floor` (six SWAPs at 96.5% two-qubit success,
    /// matching the paper).
    pub fn swap_budget(&self) -> u32 {
        let p2 = 1.0 - self.two_qubit_error;
        let per_swap = p2.powi(3);
        if per_swap >= 1.0 {
            return u32::MAX;
        }
        (self.success_floor.ln() / per_swap.ln()).floor() as u32
    }
}

/// Campaign outcome: shot statistics, overhead ledger, the streaming
/// streak summary, and optionally the per-interval vector and full
/// timeline.
///
/// Shot counters, the ledger counts, and the streak histogram are
/// **exact** and merge exactly across shards; the streak *moments*
/// (mean/variance) and the ledger's accumulated seconds are
/// deterministic for the fixed shard-index fold order but are not
/// bit-equal across different shard splits (floating-point addition is
/// not associative). `shots_between_reloads` and `timeline` are the
/// memory-unbounded views and stay empty in streaming mode.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Total shots run.
    pub shots_attempted: u64,
    /// Shots that both avoided interfering loss and passed the noise
    /// draw.
    pub shots_successful: u64,
    /// Shots discarded because an in-use atom was lost.
    pub discarded_by_loss: u64,
    /// Shots failed by the gate-error/coherence draw.
    pub failed_by_noise: u64,
    /// Overhead accounting.
    pub ledger: OverheadLedger,
    /// Constant-memory summary of the inter-reload streaks, maintained
    /// in both modes (it is O(1) per reload).
    #[serde(default)]
    pub streaks: StreakStats,
    /// Successful-shot counts of each inter-reload interval (the last
    /// entry is the still-open interval). Empty in streaming mode —
    /// use [`CampaignResult::streaks`] instead.
    pub shots_between_reloads: Vec<u32>,
    /// Event trace, if requested (suppressed in streaming mode).
    pub timeline: Vec<TimelineEvent>,
}

impl CampaignResult {
    /// Mean successful shots per completed reload interval; falls back
    /// to the open interval when no reload ever happened, and to 0.0
    /// when the campaign never ran. Uses the exact per-interval vector
    /// when present (accumulating mode, bit-stable with the seed) and
    /// the streaming streak summary otherwise.
    pub fn mean_shots_before_reload(&self) -> f64 {
        let Some((_open, completed)) = self.shots_between_reloads.split_last() else {
            return self.streaks.mean_shots_before_reload();
        };
        let slice: &[u32] = if completed.is_empty() {
            &self.shots_between_reloads
        } else {
            completed
        };
        slice.iter().map(|&s| f64::from(s)).sum::<f64>() / slice.len() as f64
    }

    /// Folds the result of the *next* shard (in shard-index order) into
    /// this one. Order-independence is achieved by contract, the same
    /// way the engine orders job rows: whoever merges holds all shard
    /// results and folds them `0, 1, 2, …` regardless of completion
    /// order, so any execution interleaving produces identical bytes.
    ///
    /// Counters and histograms add exactly (commutative); the ledger
    /// seconds and streak moments are deterministic only under the
    /// fixed fold order. Interval vectors concatenate — the left open
    /// interval becomes a completed one, which is exactly how
    /// [`StreakStats::merge_from`] folds the summaries — and timelines
    /// concatenate with the next shard's clock shifted to keep events
    /// contiguous.
    pub fn merge(&mut self, next: &CampaignResult) {
        self.shots_attempted += next.shots_attempted;
        self.shots_successful += next.shots_successful;
        self.discarded_by_loss += next.discarded_by_loss;
        self.failed_by_noise += next.failed_by_noise;
        self.ledger.merge_from(&next.ledger);
        self.streaks.merge_from(&next.streaks);
        self.shots_between_reloads
            .extend_from_slice(&next.shots_between_reloads);
        let offset = self.timeline.last().map_or(0.0, TimelineEvent::end);
        self.timeline.extend(next.timeline.iter().map(|e| {
            let mut e = *e;
            e.start += offset;
            e
        }));
    }
}

/// A contiguous slice of a campaign's shot budget: one shard runs
/// `len` attempts starting at campaign-relative position `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShotRange {
    /// Campaign-relative index of the shard's first shot.
    pub start: u64,
    /// Attempts this shard runs (for a `Successes` target: the shard's
    /// attempt cap).
    pub len: u64,
}

/// Why a campaign could not be split into the requested shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardPlanError {
    /// Zero shards requested.
    ZeroShards,
    /// A `Successes` target stops on a global success count that can
    /// only be observed serially, so it cannot be pre-split.
    SuccessesNotShardable {
        /// Shards requested.
        shards: u32,
    },
}

impl std::fmt::Display for ShardPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardPlanError::ZeroShards => write!(f, "campaign shard count must be at least 1"),
            ShardPlanError::SuccessesNotShardable { shards } => write!(
                f,
                "a successes-target campaign cannot be split into {shards} shards: \
                 the stop condition is a global success count; use an attempts target \
                 or run with 1 shard"
            ),
        }
    }
}

impl std::error::Error for ShardPlanError {}

/// Splits a campaign's shot budget into `shards` balanced contiguous
/// [`ShotRange`]s. An `Attempts(n)` target splits
/// `min(n, max_attempts)` attempts as evenly as possible (earlier
/// shards get the remainder); a `Successes` target is only plannable at
/// 1 shard, where the single range carries the `max_attempts` cap.
///
/// # Errors
///
/// [`ShardPlanError::ZeroShards`] for `shards == 0`;
/// [`ShardPlanError::SuccessesNotShardable`] for a successes target
/// with more than one shard.
pub fn shard_ranges(cfg: &CampaignConfig, shards: u32) -> Result<Vec<ShotRange>, ShardPlanError> {
    if shards == 0 {
        return Err(ShardPlanError::ZeroShards);
    }
    let total = match cfg.target {
        ShotTarget::Attempts(n) => n.min(cfg.max_attempts),
        ShotTarget::Successes(_) => {
            if shards > 1 {
                return Err(ShardPlanError::SuccessesNotShardable { shards });
            }
            cfg.max_attempts
        }
    };
    let shards = u64::from(shards);
    let base = total / shards;
    let rem = total % shards;
    let mut ranges = Vec::with_capacity(shards as usize);
    let mut start = 0u64;
    for i in 0..shards {
        let len = base + u64::from(i < rem);
        ranges.push(ShotRange { start, len });
        start += len;
    }
    Ok(ranges)
}

/// Runs a multi-shot campaign of `program` on a fresh copy of
/// `grid_template` under atom loss, per shot:
///
/// 1. run the circuit (wall-clock from the schedule; success drawn
///    from the noise model × the current fixup-SWAP penalty);
/// 2. fluoresce (6 ms) and draw losses — vacuum on every atom,
///    measurement loss on the program's atoms;
/// 3. if an in-use atom was lost, discard the shot and let the
///    strategy absorb the loss (remap / fixup / recompile), reloading
///    when it cannot.
///
/// Deterministic in `cfg.seed` and the `loss` model's seed.
///
/// # Errors
///
/// Propagates the initial compilation error, a cooperative-deadline
/// expiry ([`CompileError::DeadlineExceeded`]) observed at a shot
/// boundary, or an injected `loss.shot` fault (chaos testing).
pub fn run_campaign(
    program: &Circuit,
    grid_template: &Grid,
    loss: LossModel,
    cfg: &CampaignConfig,
) -> Result<CampaignResult, CompileError> {
    let span = na_telemetry::span_timed(na_telemetry::Span::CampaignCompile);
    let state = StrategyState::new(
        program,
        grid_template,
        cfg.hardware_mid,
        cfg.strategy,
        swap_budget_for(cfg),
    )?;
    campaign_loop(
        state,
        span.end() as f64 / 1e9,
        loss,
        cfg,
        cfg.seed,
        ShardGoal::of(cfg),
    )
}

/// [`run_campaign`] on an already compiled schedule and its
/// [`InteractionSummary`](crate::InteractionSummary) — the entry point
/// for callers that memoize compilations (the experiment engine's
/// compile cache shares one artifact and one summary across every
/// campaign job describing the same compilation point). Produces
/// results identical to [`run_campaign`] given the same inputs: the
/// compile step only ever contributed wall-clock time to the optional
/// timeline.
///
/// `compiled`/`summary` must satisfy the
/// [`StrategyState::with_compiled`] contract.
///
/// # Errors
///
/// A cooperative-deadline expiry observed at a shot boundary, or an
/// injected `loss.shot` fault; the initial compile already happened,
/// so compilation errors cannot occur here.
pub fn run_campaign_precompiled(
    program: &Circuit,
    grid_template: &Grid,
    compiled: std::sync::Arc<na_core::CompiledCircuit>,
    summary: std::sync::Arc<crate::InteractionSummary>,
    loss: LossModel,
    cfg: &CampaignConfig,
) -> Result<CampaignResult, CompileError> {
    let state = StrategyState::with_compiled(
        program,
        grid_template,
        cfg.hardware_mid,
        cfg.strategy,
        swap_budget_for(cfg),
        compiled,
        summary,
    );
    campaign_loop(state, 0.0, loss, cfg, cfg.seed, ShardGoal::of(cfg))
}

/// Runs one shard of a campaign: `range.len` attempts on its own pair
/// of deterministically derived RNG streams.
///
/// # Seeding contract
///
/// `shard 0` draws **exactly** the serial campaign's streams — success
/// RNG seeded `cfg.seed`, loss model `base_loss` as configured — so a
/// 1-shard campaign is bit-identical to [`run_campaign_precompiled`]
/// (the 24 campaign golden digests pin this). Shard `i > 0` derives
/// `derive_seed(cfg.seed, i)` for success draws and
/// `derive_seed(base_loss.seed(), i)` for the loss stream (SplitMix64,
/// see [`crate::stats::shard_seed`]), giving every shard a
/// statistically independent stream that depends only on the campaign
/// seeds and the shard index — never on worker count or scheduling.
///
/// # Shard-boundary semantics
///
/// Each shard starts from a freshly loaded array (the same state a
/// campaign starts in) without charging a reload, and its final
/// interval is left open; [`CampaignResult::merge`] closes it against
/// the next shard. A sharded campaign therefore models `shards`
/// independent campaign segments, which is the documented contract —
/// loss physics is i.i.d. per shot, so segment boundaries do not bias
/// the statistics.
///
/// # Errors
///
/// A cooperative-deadline expiry observed at a shot boundary, or an
/// injected `loss.shot` fault.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_shard(
    program: &Circuit,
    grid_template: &Grid,
    compiled: std::sync::Arc<na_core::CompiledCircuit>,
    summary: std::sync::Arc<crate::InteractionSummary>,
    base_loss: &LossModel,
    cfg: &CampaignConfig,
    shard_index: u32,
    range: ShotRange,
) -> Result<CampaignResult, CompileError> {
    let state = StrategyState::with_compiled(
        program,
        grid_template,
        cfg.hardware_mid,
        cfg.strategy,
        swap_budget_for(cfg),
        compiled,
        summary,
    );
    let loss = if shard_index == 0 {
        base_loss.clone()
    } else {
        base_loss.reseeded(crate::stats::derive_seed(
            base_loss.seed(),
            u64::from(shard_index),
        ))
    };
    campaign_loop(
        state,
        0.0,
        loss,
        cfg,
        shard_seed(cfg.seed, shard_index),
        ShardGoal::for_range(cfg, range),
    )
}

/// The serial sharded-campaign oracle: runs every shard of `ranges` in
/// index order on one thread and folds the results with
/// [`CampaignResult::merge`]. The engine's parallel fan-out must equal
/// this bit for bit at any worker count — the shard merge tests and
/// the engine's sharded-campaign suite pin that.
///
/// Callers obtain `ranges` from [`shard_ranges`] (which validates the
/// plan); a 1-shard plan reproduces [`run_campaign_precompiled`]
/// exactly.
///
/// # Errors
///
/// The first shard error (deadline expiry or injected fault), in shard
/// order.
pub fn run_campaign_sharded(
    program: &Circuit,
    grid_template: &Grid,
    compiled: std::sync::Arc<na_core::CompiledCircuit>,
    summary: std::sync::Arc<crate::InteractionSummary>,
    loss: &LossModel,
    cfg: &CampaignConfig,
    ranges: &[ShotRange],
) -> Result<CampaignResult, CompileError> {
    let mut merged: Option<CampaignResult> = None;
    for (i, &range) in ranges.iter().enumerate() {
        let shard = run_campaign_shard(
            program,
            grid_template,
            std::sync::Arc::clone(&compiled),
            std::sync::Arc::clone(&summary),
            loss,
            cfg,
            i as u32,
            range,
        )?;
        match merged.as_mut() {
            None => merged = Some(shard),
            Some(m) => m.merge(&shard),
        }
    }
    Ok(merged.unwrap_or_default())
}

fn swap_budget_for(cfg: &CampaignConfig) -> Option<u32> {
    if cfg.strategy.reroutes() {
        Some(cfg.swap_budget())
    } else {
        None
    }
}

/// A shard-local stop condition, resolved from the campaign target so
/// the shot loop never consults global state.
#[derive(Debug, Clone, Copy)]
enum ShardGoal {
    /// Run exactly this many attempts.
    Attempts(u64),
    /// Run until `successes` succeed, capped at `max_attempts`.
    Successes { successes: u64, max_attempts: u64 },
}

impl ShardGoal {
    /// The whole campaign as one shard — exactly the historical
    /// `target`/`max_attempts` stop condition.
    fn of(cfg: &CampaignConfig) -> ShardGoal {
        match cfg.target {
            ShotTarget::Attempts(n) => ShardGoal::Attempts(n.min(cfg.max_attempts)),
            ShotTarget::Successes(n) => ShardGoal::Successes {
                successes: n,
                max_attempts: cfg.max_attempts,
            },
        }
    }

    /// One shard's slice of the campaign.
    fn for_range(cfg: &CampaignConfig, range: ShotRange) -> ShardGoal {
        match cfg.target {
            ShotTarget::Attempts(_) => ShardGoal::Attempts(range.len),
            ShotTarget::Successes(n) => ShardGoal::Successes {
                successes: n,
                max_attempts: range.len,
            },
        }
    }

    fn done(self, attempted: u64, successful: u64) -> bool {
        match self {
            ShardGoal::Attempts(n) => attempted >= n,
            ShardGoal::Successes {
                successes,
                max_attempts,
            } => successful >= successes || attempted >= max_attempts,
        }
    }
}

/// The shared shot loop behind every campaign entry point — serial
/// campaigns run it once with [`ShardGoal::of`], sharded campaigns run
/// it once per shard with that shard's goal and derived `seed`.
/// `compile_secs` is the measured initial-compilation time, recorded
/// only into the optional timeline (never the digested ledger).
fn campaign_loop(
    mut state: StrategyState,
    compile_secs: f64,
    mut loss: LossModel,
    cfg: &CampaignConfig,
    seed: u64,
    goal: ShardGoal,
) -> Result<CampaignResult, CompileError> {
    let params = NoiseParams::neutral_atom(cfg.two_qubit_error);
    let mut base = success_probability(state.compiled(), &params);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut ledger = OverheadLedger::default();
    // Streaming campaigns must stay memory-flat, so the timeline (one
    // event per shot) is suppressed along with the interval vector.
    let record_timeline = cfg.record_timeline && !cfg.streaming;
    let mut timeline: Vec<TimelineEvent> = Vec::new();
    let mut clock = 0.0f64;
    let record = |timeline: &mut Vec<TimelineEvent>,
                  clock: &mut f64,
                  kind: EventKind,
                  duration: f64,
                  on: bool| {
        if on {
            timeline.push(TimelineEvent {
                kind,
                start: *clock,
                duration,
            });
        }
        *clock += duration;
    };
    record(
        &mut timeline,
        &mut clock,
        EventKind::Compile,
        compile_secs,
        record_timeline,
    );

    let mut result = CampaignResult::default();
    let mut streak = 0u64;
    // Per-shot buffers reused across the whole campaign: the measured
    // set as a flat-index mask and the drawn-loss list.
    let mut measured_mask: Vec<bool> = Vec::new();
    let mut losses: Vec<Site> = Vec::new();

    loop {
        if goal.done(result.shots_attempted, result.shots_successful) {
            break;
        }
        // Failure boundary of the shot loop: the chaos failpoint and
        // the cooperative deadline both abandon the campaign *between*
        // shots, so a partial campaign is never reported as data.
        na_faults::point("loss.shot")?;
        na_faults::check_deadline()?;
        result.shots_attempted += 1;
        let shot_span = na_telemetry::span(na_telemetry::Span::Shot);
        na_telemetry::add(na_telemetry::Counter::ShotsAttempted, 1);

        // 1. Run the circuit.
        ledger.add_circuit(base.duration);
        record(
            &mut timeline,
            &mut clock,
            EventKind::RunCircuit,
            base.duration,
            record_timeline,
        );
        let p_shot = base.probability() * state.swap_penalty(params.p2);
        let noise_ok = p_shot > 0.0 && rng.gen_bool(p_shot.min(1.0));

        // 2. Detect loss.
        ledger.add_fluorescence(&cfg.overheads);
        record(
            &mut timeline,
            &mut clock,
            EventKind::Fluorescence,
            cfg.overheads.fluorescence,
            record_timeline,
        );
        state.write_measured_mask(&mut measured_mask);
        loss.draw_losses_with(state.grid(), &measured_mask, &mut losses);
        na_telemetry::add(na_telemetry::Counter::LossesDrawn, losses.len() as u64);
        let any_interfering = losses.iter().any(|&s| state.is_interfering(s));

        if !any_interfering && noise_ok {
            result.shots_successful += 1;
            streak += 1;
        } else if any_interfering {
            result.discarded_by_loss += 1;
        } else {
            result.failed_by_noise += 1;
        }

        // 3. Absorb the losses.
        let mut need_reload = false;
        for &site in &losses {
            if !state.grid().is_usable(site) {
                // Duplicate/stale-loss protection: `apply_loss` panics
                // on a site that is already a hole. `draw_losses`
                // yields strictly ascending unique usable sites, so
                // this never fires today — it guards against a future
                // loss model emitting duplicates or sites lost earlier
                // in this same shot.
                continue;
            }
            match state.apply_loss(site) {
                LossOutcome::Spare => {}
                LossOutcome::Tolerated { remaps, refixed } => {
                    for _ in 0..remaps {
                        ledger.add_remap(&cfg.overheads);
                        record(
                            &mut timeline,
                            &mut clock,
                            EventKind::Remap,
                            cfg.overheads.remap,
                            record_timeline,
                        );
                    }
                    if refixed {
                        ledger.add_fixup(&cfg.overheads);
                        record(
                            &mut timeline,
                            &mut clock,
                            EventKind::Fixup,
                            cfg.overheads.fixup,
                            record_timeline,
                        );
                    }
                }
                LossOutcome::Recompiled { compile_seconds } => {
                    ledger.add_recompile(&cfg.overheads, compile_seconds);
                    record(
                        &mut timeline,
                        &mut clock,
                        EventKind::Compile,
                        compile_seconds,
                        record_timeline,
                    );
                    base = success_probability(state.compiled(), &params);
                }
                LossOutcome::NeedsReload => {
                    need_reload = true;
                    break;
                }
            }
        }
        if need_reload {
            na_telemetry::add(na_telemetry::Counter::Reloads, 1);
            na_telemetry::trace::instant("campaign", "reload", Vec::new);
            state.reload();
            base = success_probability(state.compiled(), &params);
            ledger.add_reload(&cfg.overheads);
            record(
                &mut timeline,
                &mut clock,
                EventKind::Reload,
                cfg.overheads.reload,
                record_timeline,
            );
            result.streaks.complete(streak);
            if !cfg.streaming {
                // The accumulating vector is the differential oracle
                // for the streaming summary (and the Fig. 12/13 data
                // source); streaks beyond u32 saturate, far past any
                // campaign the unbounded representation is suited for.
                result
                    .shots_between_reloads
                    .push(u32::try_from(streak).unwrap_or(u32::MAX));
            }
            streak = 0;
        }
        drop(shot_span);
    }

    result.streaks.open = Some(streak);
    if !cfg.streaming {
        result
            .shots_between_reloads
            .push(u32::try_from(streak).unwrap_or(u32::MAX));
    }
    result.ledger = ledger;
    result.timeline = timeline;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use na_benchmarks::Benchmark;

    fn grid() -> Grid {
        Grid::new(10, 10)
    }

    fn program() -> Circuit {
        Benchmark::Bv.generate(30, 0)
    }

    fn quick(strategy: Strategy, shots: u64) -> CampaignConfig {
        CampaignConfig::new(3.0, strategy)
            .with_target(ShotTarget::Attempts(shots))
            .with_two_qubit_error(1e-3)
            .with_seed(1)
    }

    #[test]
    fn campaign_is_deterministic() {
        let cfg = quick(Strategy::CompileSmallReroute, 50);
        let a = run_campaign(&program(), &grid(), LossModel::new(5), &cfg).unwrap();
        let b = run_campaign(&program(), &grid(), LossModel::new(5), &cfg).unwrap();
        assert_eq!(a.shots_successful, b.shots_successful);
        assert_eq!(a.ledger.reloads, b.ledger.reloads);
    }

    #[test]
    fn precompiled_campaign_matches_self_compiled() {
        // The engine hands campaigns a cached compilation + summary;
        // every field of the result (timeline included) must match the
        // self-compiling path, for strategies with and without
        // recompiles/reroutes.
        use crate::InteractionSummary;
        use std::sync::Arc;
        for strategy in [
            Strategy::CompileSmallReroute,
            Strategy::VirtualRemap,
            Strategy::FullRecompile,
        ] {
            let cfg = quick(strategy, 60);
            let own = run_campaign(&program(), &grid(), LossModel::new(5), &cfg).unwrap();
            let compile_cfg = na_core::CompilerConfig::new(strategy.compile_mid(cfg.hardware_mid));
            let compiled =
                Arc::new(na_core::compile(&program(), &grid(), &compile_cfg).expect("compiles"));
            let summary = Arc::new(InteractionSummary::of(&compiled));
            let mut pre = run_campaign_precompiled(
                &program(),
                &grid(),
                compiled,
                summary,
                LossModel::new(5),
                &cfg,
            )
            .unwrap();
            // recompile_time is measured wall clock (the one
            // nondeterministic ledger field); everything else must be
            // bit-identical.
            let mut own = own;
            own.ledger.recompile_time = 0.0;
            pre.ledger.recompile_time = 0.0;
            assert_eq!(own, pre, "{strategy}");
        }
    }

    #[test]
    fn attempts_target_runs_exactly_n_shots() {
        let cfg = quick(Strategy::AlwaysReload, 40);
        let r = run_campaign(&program(), &grid(), LossModel::new(2), &cfg).unwrap();
        assert_eq!(r.shots_attempted, 40);
        assert_eq!(r.ledger.fluorescences, 40);
        assert_eq!(
            r.shots_successful + r.discarded_by_loss + r.failed_by_noise,
            40
        );
    }

    #[test]
    fn successes_target_stops_at_n_successes() {
        let cfg = quick(Strategy::VirtualRemap, 0).with_target(ShotTarget::Successes(10));
        let r = run_campaign(&program(), &grid(), LossModel::new(3), &cfg).unwrap();
        assert_eq!(r.shots_successful, 10);
        assert!(r.shots_attempted >= 10);
    }

    #[test]
    fn no_loss_means_no_reloads() {
        let lossless = LossModel::new(0)
            .with_vacuum_loss(0.0)
            .with_measurement_loss(0.0);
        let cfg = quick(Strategy::AlwaysReload, 30);
        let r = run_campaign(&program(), &grid(), lossless, &cfg).unwrap();
        assert_eq!(r.ledger.reloads, 0);
        assert_eq!(r.discarded_by_loss, 0);
        assert_eq!(
            r.shots_between_reloads,
            vec![u32::try_from(r.shots_successful).unwrap()]
        );
    }

    #[test]
    fn always_reload_reloads_per_interfering_loss() {
        let cfg = quick(Strategy::AlwaysReload, 100);
        let r = run_campaign(&program(), &grid(), LossModel::new(7), &cfg).unwrap();
        assert_eq!(r.ledger.reloads, r.discarded_by_loss);
        assert!(
            r.ledger.reloads > 0,
            "2% measurement loss on 30 qubits must hit"
        );
    }

    #[test]
    fn remapping_strategies_reload_less_than_always_reload() {
        let mut reload_counts = Vec::new();
        for strategy in [Strategy::AlwaysReload, Strategy::CompileSmallReroute] {
            let cfg = quick(strategy, 200);
            let r = run_campaign(&program(), &grid(), LossModel::new(11), &cfg).unwrap();
            reload_counts.push(r.ledger.reloads);
        }
        assert!(
            reload_counts[1] < reload_counts[0],
            "c.small+reroute {} vs always reload {}",
            reload_counts[1],
            reload_counts[0]
        );
    }

    #[test]
    fn timeline_records_all_overheads() {
        let cfg = quick(Strategy::AlwaysReload, 30).with_timeline();
        let r = run_campaign(&program(), &grid(), LossModel::new(4), &cfg).unwrap();
        assert!(!r.timeline.is_empty());
        assert_eq!(r.timeline[0].kind, EventKind::Compile);
        // Events are contiguous in time.
        for w in r.timeline.windows(2) {
            assert!((w[0].end() - w[1].start).abs() < 1e-9);
        }
        let reloads = r
            .timeline
            .iter()
            .filter(|e| e.kind == EventKind::Reload)
            .count() as u64;
        assert_eq!(reloads, r.ledger.reloads);
    }

    #[test]
    fn swap_budget_matches_paper_constant() {
        // 96.5% two-qubit success, 50% floor -> six SWAPs.
        let cfg = CampaignConfig::new(3.0, Strategy::MinorReroute).with_two_qubit_error(0.035);
        assert_eq!(cfg.swap_budget(), 6);
    }

    #[test]
    fn mean_shots_before_reload_uses_completed_intervals() {
        let r = CampaignResult {
            shots_attempted: 10,
            shots_successful: 8,
            discarded_by_loss: 2,
            shots_between_reloads: vec![3, 5, 0],
            ..CampaignResult::default()
        };
        assert!((r.mean_shots_before_reload() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mean_shots_before_reload_handles_empty_and_degenerate_campaigns() {
        // Regression: the `..len()-1` slice underflowed and panicked on
        // an empty interval list. An empty list now reports 0.0.
        let empty = CampaignResult::default();
        assert_eq!(empty.mean_shots_before_reload(), 0.0);

        // A single open interval still falls back to itself.
        let open_only = CampaignResult {
            shots_between_reloads: vec![7],
            ..empty.clone()
        };
        assert!((open_only.mean_shots_before_reload() - 7.0).abs() < 1e-12);

        // And a zero-attempt campaign run end-to-end records the empty
        // open interval without panicking.
        let cfg = quick(Strategy::AlwaysReload, 0).with_target(ShotTarget::Attempts(0));
        let r = run_campaign(&program(), &grid(), LossModel::new(1), &cfg).unwrap();
        assert_eq!(r.shots_attempted, 0);
        assert_eq!(r.mean_shots_before_reload(), 0.0);
        assert_eq!(r.streaks.open, Some(0), "the open interval is recorded");
    }

    #[test]
    fn streaming_mode_matches_accumulating_mode_except_the_vectors() {
        // Streaming is the same campaign with the unbounded views
        // dropped: counters, ledger, and the streak summary must be
        // bit-identical to the accumulating run, and the accumulated
        // interval vector replayed through `StreakStats::from_intervals`
        // must reproduce the streaming summary exactly (the
        // differential-oracle contract).
        for strategy in [Strategy::AlwaysReload, Strategy::CompileSmallReroute] {
            let cfg = quick(strategy, 150);
            let acc = run_campaign(&program(), &grid(), LossModel::new(9), &cfg).unwrap();
            let streaming_cfg = cfg.with_streaming().with_timeline();
            let s = run_campaign(&program(), &grid(), LossModel::new(9), &streaming_cfg).unwrap();
            assert_eq!(s.shots_attempted, acc.shots_attempted, "{strategy}");
            assert_eq!(s.shots_successful, acc.shots_successful, "{strategy}");
            assert_eq!(s.discarded_by_loss, acc.discarded_by_loss, "{strategy}");
            assert_eq!(s.failed_by_noise, acc.failed_by_noise, "{strategy}");
            assert_eq!(s.ledger, acc.ledger, "{strategy}");
            assert_eq!(s.streaks, acc.streaks, "{strategy}");
            assert!(s.shots_between_reloads.is_empty(), "{strategy}");
            assert!(s.timeline.is_empty(), "streaming suppresses the timeline");
            assert_eq!(
                StreakStats::from_intervals(&acc.shots_between_reloads),
                s.streaks,
                "{strategy}: replaying the interval vector must equal streaming"
            );
        }
    }

    #[test]
    fn shard_ranges_balance_the_attempt_budget() {
        let cfg = quick(Strategy::AlwaysReload, 10);
        let ranges = shard_ranges(&cfg, 3).unwrap();
        assert_eq!(
            ranges,
            vec![
                ShotRange { start: 0, len: 4 },
                ShotRange { start: 4, len: 3 },
                ShotRange { start: 7, len: 3 },
            ]
        );
        // The cap applies before the split.
        let mut capped = quick(Strategy::AlwaysReload, 10);
        capped.max_attempts = 7;
        let total: u64 = shard_ranges(&capped, 2)
            .unwrap()
            .iter()
            .map(|r| r.len)
            .sum();
        assert_eq!(total, 7);
        // Degenerate plans stay well-formed.
        assert_eq!(
            shard_ranges(&cfg, 1).unwrap(),
            vec![ShotRange { start: 0, len: 10 }]
        );
        assert_eq!(
            shard_ranges(&quick(Strategy::AlwaysReload, 0), 2)
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn shard_plans_reject_zero_and_successes_fanout() {
        let cfg = quick(Strategy::AlwaysReload, 10);
        assert_eq!(shard_ranges(&cfg, 0), Err(ShardPlanError::ZeroShards));
        let succ = cfg.with_target(ShotTarget::Successes(5));
        assert_eq!(
            shard_ranges(&succ, 2),
            Err(ShardPlanError::SuccessesNotShardable { shards: 2 })
        );
        // One shard of a successes target carries the attempt cap.
        let plan = shard_ranges(&succ, 1).unwrap();
        assert_eq!(
            plan,
            vec![ShotRange {
                start: 0,
                len: succ.max_attempts
            }]
        );
        assert!(ShardPlanError::SuccessesNotShardable { shards: 2 }
            .to_string()
            .contains("cannot be split"));
    }

    #[test]
    fn one_shard_is_bit_identical_to_the_serial_campaign() {
        // The seeding contract's anchor: shard 0 = the serial draw
        // order, for both target kinds.
        use crate::InteractionSummary;
        use std::sync::Arc;
        for target in [ShotTarget::Attempts(80), ShotTarget::Successes(25)] {
            let cfg = quick(Strategy::CompileSmallReroute, 0).with_target(target);
            let compile_cfg =
                na_core::CompilerConfig::new(cfg.strategy.compile_mid(cfg.hardware_mid));
            let compiled =
                Arc::new(na_core::compile(&program(), &grid(), &compile_cfg).expect("compiles"));
            let summary = Arc::new(InteractionSummary::of(&compiled));
            let serial = run_campaign_precompiled(
                &program(),
                &grid(),
                Arc::clone(&compiled),
                Arc::clone(&summary),
                LossModel::new(5),
                &cfg,
            )
            .unwrap();
            let ranges = shard_ranges(&cfg, 1).unwrap();
            let sharded = run_campaign_sharded(
                &program(),
                &grid(),
                compiled,
                summary,
                &LossModel::new(5),
                &cfg,
                &ranges,
            )
            .unwrap();
            assert_eq!(sharded, serial, "{target:?}");
        }
    }

    #[test]
    fn merged_shards_conserve_exact_counters() {
        use crate::InteractionSummary;
        use std::sync::Arc;
        let cfg = quick(Strategy::VirtualRemap, 120);
        let compile_cfg = na_core::CompilerConfig::new(cfg.strategy.compile_mid(cfg.hardware_mid));
        let compiled =
            Arc::new(na_core::compile(&program(), &grid(), &compile_cfg).expect("compiles"));
        let summary = Arc::new(InteractionSummary::of(&compiled));
        let loss = LossModel::new(5);
        let one = run_campaign_sharded(
            &program(),
            &grid(),
            Arc::clone(&compiled),
            Arc::clone(&summary),
            &loss,
            &cfg,
            &shard_ranges(&cfg, 1).unwrap(),
        )
        .unwrap();
        let four = run_campaign_sharded(
            &program(),
            &grid(),
            compiled,
            summary,
            &loss,
            &cfg,
            &shard_ranges(&cfg, 4).unwrap(),
        )
        .unwrap();
        // Different shard counts draw different streams (by design —
        // each shard is an independent segment), but the attempt budget
        // and the bookkeeping identities are exact at any split.
        assert_eq!(four.shots_attempted, 120);
        assert_eq!(four.shots_attempted, one.shots_attempted);
        assert_eq!(
            four.shots_successful + four.discarded_by_loss + four.failed_by_noise,
            four.shots_attempted
        );
        assert_eq!(four.ledger.fluorescences, four.shots_attempted);
        assert_eq!(
            four.shots_between_reloads.len() as u64,
            four.ledger.reloads + 4
        );
        assert_eq!(
            four.streaks.completed.count + 1,
            four.shots_between_reloads.len() as u64,
            "merge closes every shard-boundary interval but the last"
        );
    }
}
