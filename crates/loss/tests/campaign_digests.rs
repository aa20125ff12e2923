//! Golden-determinism regression tests for multi-shot loss campaigns.
//!
//! The campaign shot-loop fast path (distinct-interaction-pair fixup
//! costing, the hole-masked full-grid interaction graph, the flat
//! `VirtualMap`, and the reused per-shot buffers) carries the same
//! byte-identical output contract as the scheduler and placement
//! overhauls: every `CampaignResult` — shot counts, the overhead
//! ledger, and the reload-interval trace — must match the
//! pre-overhaul executor exactly. These digests were recorded from
//! the shot loop *before* the fast path landed (commit 721f210); any
//! change to the RNG draw sequence, a loss classified differently, or
//! a reordered f64 fold in the ledger flips a digest here.
//!
//! `recompile_time` is deliberately excluded from the digest: the
//! default `RecompileCost::Measured` charges wall-clock seconds of
//! the in-process compiler, the single nondeterministic field of a
//! campaign. Every other ledger time is `count × constant`
//! accumulated in shot order, so its bits are reproducible.

use na_arch::Grid;
use na_benchmarks::Benchmark;
use na_circuit::fingerprint::fnv1a_extend;
use na_core::{compile, CompilerConfig};
use na_loss::{
    run_campaign_precompiled, CampaignConfig, CampaignResult, InteractionSummary, LossModel,
    ShotTarget, Strategy,
};
use std::sync::Arc;

/// Digest of everything deterministic in a [`CampaignResult`].
fn campaign_digest(r: &CampaignResult) -> u64 {
    let mut h = fnv1a_extend(0xcbf2_9ce4_8422_2325, r.shots_attempted);
    h = fnv1a_extend(h, r.shots_successful);
    h = fnv1a_extend(h, r.discarded_by_loss);
    h = fnv1a_extend(h, r.failed_by_noise);
    let l = &r.ledger;
    for count in [l.reloads, l.fluorescences, l.remaps, l.fixups, l.recompiles] {
        h = fnv1a_extend(h, count);
    }
    // Deterministic f64 accumulations, folded bitwise. recompile_time
    // (measured wall clock) is excluded; circuit_time is the analytic
    // schedule duration summed per shot, so it is reproducible.
    for secs in [
        l.reload_time,
        l.fluorescence_time,
        l.remap_time,
        l.fixup_time,
        l.circuit_time,
    ] {
        h = fnv1a_extend(h, secs.to_bits());
    }
    h = fnv1a_extend(h, r.shots_between_reloads.len() as u64);
    for &s in &r.shots_between_reloads {
        h = fnv1a_extend(h, u64::from(s));
    }
    h
}

/// The digest grid: every strategy at MIDs 3 and 4, two independent
/// (campaign seed, loss seed) pairs each, 100 attempts of BV-30 on the
/// 10×10 paper grid at the paper's 3.5% two-qubit error.
const MIDS: [f64; 2] = [3.0, 4.0];
const SEEDS: [(u64, u64); 2] = [(1, 5), (2, 11)];

fn run(strategy: Strategy, mid: f64, seed: u64, loss_seed: u64) -> CampaignResult {
    let program = Benchmark::Bv.generate(30, 0);
    let grid = Grid::new(10, 10);
    let cfg = CampaignConfig::new(mid, strategy)
        .with_target(ShotTarget::Attempts(100))
        .with_seed(seed);
    let compile_cfg = CompilerConfig::new(strategy.compile_mid(mid));
    let compiled = Arc::new(compile(&program, &grid, &compile_cfg).expect("compiles"));
    let summary = Arc::new(InteractionSummary::of(&compiled));
    run_campaign_precompiled(
        &program,
        &grid,
        compiled,
        summary,
        LossModel::new(loss_seed),
        &cfg,
    )
    .expect("campaign runs")
}

/// `(strategy, mid, campaign seed, loss seed, digest)` recorded from
/// the pre-fast-path executor.
const GOLDEN: &[(Strategy, f64, u64, u64, u64)] = &[
    (Strategy::AlwaysReload, 3.0, 1, 5, 0x9f16c09e3a702084),
    (Strategy::AlwaysReload, 3.0, 2, 11, 0x065e9d3627c203d5),
    (Strategy::AlwaysReload, 4.0, 1, 5, 0x272b73fa8de655cd),
    (Strategy::AlwaysReload, 4.0, 2, 11, 0xb9c82c6627ee4ab8),
    (Strategy::FullRecompile, 3.0, 1, 5, 0x801786a8aa5557f8),
    (Strategy::FullRecompile, 3.0, 2, 11, 0x6cede2825fa819f7),
    (Strategy::FullRecompile, 4.0, 1, 5, 0xe13044e211f5c64b),
    (Strategy::FullRecompile, 4.0, 2, 11, 0xe61eb6d4f9e7dd18),
    (Strategy::VirtualRemap, 3.0, 1, 5, 0xa8ad9e9fa473cf5c),
    (Strategy::VirtualRemap, 3.0, 2, 11, 0x40bd78f8673434f3),
    (Strategy::VirtualRemap, 4.0, 1, 5, 0xbf9e2cf6c714ba9e),
    (Strategy::VirtualRemap, 4.0, 2, 11, 0x3ab03640dff60b5d),
    (Strategy::MinorReroute, 3.0, 1, 5, 0x12ddae664f50772b),
    (Strategy::MinorReroute, 3.0, 2, 11, 0xc0cfa33ba5c7d7f1),
    (Strategy::MinorReroute, 4.0, 1, 5, 0xa2c571d5312ff81a),
    (Strategy::MinorReroute, 4.0, 2, 11, 0xa5ca2c601868e5aa),
    (Strategy::CompileSmall, 3.0, 1, 5, 0xbd4aff951680ceb1),
    (Strategy::CompileSmall, 3.0, 2, 11, 0xad924e1924780b40),
    (Strategy::CompileSmall, 4.0, 1, 5, 0x0939140bb165bc24),
    (Strategy::CompileSmall, 4.0, 2, 11, 0x7d3b7f1e8478602d),
    (Strategy::CompileSmallReroute, 3.0, 1, 5, 0x78a620120291f047),
    (
        Strategy::CompileSmallReroute,
        3.0,
        2,
        11,
        0x0c4f4ebb3c6bb7ad,
    ),
    (Strategy::CompileSmallReroute, 4.0, 1, 5, 0x047de4f141597443),
    (
        Strategy::CompileSmallReroute,
        4.0,
        2,
        11,
        0x4f0e167cac3279ed,
    ),
];

#[test]
fn campaign_digests_match_pre_overhaul_executor() {
    assert_eq!(
        GOLDEN.len(),
        Strategy::ALL.len() * MIDS.len() * SEEDS.len(),
        "digest table incomplete"
    );
    for &(strategy, mid, seed, loss_seed, want) in GOLDEN {
        let got = campaign_digest(&run(strategy, mid, seed, loss_seed));
        assert_eq!(
            got, want,
            "campaign digest drifted: {strategy} at MID {mid}, seed {seed}/{loss_seed} \
             (got {got:#018x}, recorded {want:#018x})"
        );
    }
}

/// Regenerates the GOLDEN table (`cargo test -p na-loss --test
/// campaign_digests -- --ignored --nocapture`). Only for re-recording
/// against a *known-good* executor — never run this to paper over a
/// digest mismatch.
#[test]
#[ignore]
fn print_campaign_digests() {
    for strategy in Strategy::ALL {
        for mid in MIDS {
            for (seed, loss_seed) in SEEDS {
                let d = campaign_digest(&run(strategy, mid, seed, loss_seed));
                println!("    (Strategy::{strategy:?}, {mid:.1}, {seed}, {loss_seed}, {d:#018x}),");
            }
        }
    }
}
