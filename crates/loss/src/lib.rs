//! Atom loss: the dominant cost of neutral-atom systems (paper §VI).
//!
//! Optical-tweezer traps are weak, so atoms vanish between shots — from
//! background-gas collisions during the run and, much more often, from
//! lossy measurement at readout. A lost in-use atom invalidates the
//! shot *and* can make the compiled program incompatible with the now
//! sparser grid. Reloading the full array takes ~0.3 s against a ~ms
//! shot, so a campaign of thousands of shots lives or dies by how
//! rarely it reloads.
//!
//! This crate implements the paper's full coping-strategy suite:
//!
//! | [`Strategy`] | Mechanism | Failure → reload |
//! |---|---|---|
//! | `AlwaysReload` | reload on any interfering loss | every loss |
//! | `FullRecompile` | recompile for the sparser grid | grid unfit |
//! | `VirtualRemap` | 40 ns address-table shift into spares | MID exceeded |
//! | `MinorReroute` | shift + SWAP fixup paths | no path / SWAP budget |
//! | `CompileSmall` | compile at MID−1, then shift | true MID exceeded |
//! | `CompileSmallReroute` | compile small + reroute | no path / SWAP budget |
//!
//! plus the supporting machinery: the Bernoulli [`LossModel`], the
//! overhead ledger with the paper's timing constants
//! ([`OverheadTimes`]: 0.3 s reload, 6 ms fluorescence, 40 ns remap),
//! the seeded [`loss_walk`] behind loss tolerance and success-vs-holes
//! (Figs. 10–11), the multi-shot campaign simulator ([`executor`],
//! Figs. 12–13) and its event [`timeline`] (Fig. 14).
//!
//! Every loss study starts from a [`StrategyState`] the experiment
//! engine builds from its compile cache ([`StrategyState::with_compiled`]),
//! so it compiles its program once; only `FullRecompile`'s per-loss
//! recompiles run the compiler again.

pub mod executor;
pub mod model;
pub mod overhead;
pub mod reroute;
pub mod state;
pub mod stats;
pub mod strategy;
pub mod timeline;
pub mod tolerance;

/// The per-op reference costing the unit tests compare against.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod oracles;

pub use executor::{
    run_campaign_precompiled, run_campaign_shard, shard_ranges, CampaignConfig, CampaignResult,
    ShardPlanError, ShotRange, ShotTarget,
};
pub use model::LossModel;
pub use overhead::{OverheadLedger, OverheadTimes, RecompileCost};
pub use reroute::{resolved_ok_summary, InteractionSummary};
pub use state::{LossOutcome, StrategyState};
pub use stats::{derive_seed, shard_seed, RunningMoments, StreakHistogram, StreakStats};
pub use strategy::{ParseStrategyError, Strategy};
pub use timeline::{render_timeline, EventKind, TimelineEvent};
pub use tolerance::{loss_walk, mean_loss_tolerance};
