//! The shard-merge algebra, pinned from outside the crate.
//!
//! Three contracts make sharded campaigns safe to fan out:
//!
//! 1. **Differential**: for every supported shard count, re-running
//!    the serial index-order fold of [`na_loss::run_campaign_shard`]
//!    equals the fold of individually executed shards — and the shard
//!    attempt budget is conserved exactly.
//! 2. **Order independence**: shards may *complete* in any order; as
//!    long as the results are folded in shard-index order (what the
//!    engine does), the merged result is byte-identical. Folding in a
//!    *permuted* order still conserves every exact (integer) field —
//!    only float rounding is sensitive to fold order, which is why the
//!    index-order fold is the contract.
//! 3. **Streaming equivalence**: streaming shards merge to the same
//!    exact counters and streak counts as accumulating shards, with
//!    the streak moments agreeing to float tolerance (Chan's merge at
//!    shard boundaries vs one sequential Welford pass).

use na_benchmarks::Benchmark;
use na_loss::{
    run_campaign_shard, shard_ranges, CampaignConfig, CampaignResult, InteractionSummary,
    LossModel, ShotTarget, Strategy, StreakStats,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Fisher–Yates, on the vendored `rand` (no `seq` module there).
fn shuffle(order: &mut [usize], rng: &mut StdRng) {
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
}

struct Fixture {
    program: na_circuit::Circuit,
    grid: na_arch::Grid,
    compiled: Arc<na_core::CompiledCircuit>,
    summary: Arc<InteractionSummary>,
    cfg: CampaignConfig,
}

fn fixture(cfg: CampaignConfig) -> Fixture {
    let program = Benchmark::Bv.generate(30, 0);
    let grid = na_arch::Grid::new(10, 10);
    let compile_cfg = na_core::CompilerConfig::new(cfg.strategy.compile_mid(cfg.hardware_mid));
    let compiled = Arc::new(na_core::compile(&program, &grid, &compile_cfg).expect("compiles"));
    let summary = Arc::new(InteractionSummary::of(&compiled));
    Fixture {
        program,
        grid,
        compiled,
        summary,
        cfg,
    }
}

fn heavy_cfg() -> CampaignConfig {
    CampaignConfig::new(3.0, Strategy::CompileSmallReroute)
        .with_target(ShotTarget::Attempts(120))
        .with_two_qubit_error(1e-3)
        .with_seed(7)
}

impl Fixture {
    fn run_shard(&self, index: u32, range: na_loss::ShotRange) -> CampaignResult {
        run_campaign_shard(
            &self.program,
            &self.grid,
            Arc::clone(&self.compiled),
            Arc::clone(&self.summary),
            &LossModel::destructive_readout(9),
            &self.cfg,
            index,
            range,
        )
        .expect("shard runs")
    }

    /// The serial index-order fold of the `shards` plan: the result
    /// the engine's parallel fan-out must reproduce.
    fn oracle(&self, shards: u32) -> CampaignResult {
        let ranges = shard_ranges(&self.cfg, shards).expect("plannable");
        let mut merged = self.run_shard(0, ranges[0]);
        for (i, &range) in ranges.iter().enumerate().skip(1) {
            merged.merge(&self.run_shard(i as u32, range));
        }
        merged
    }
}

#[test]
fn index_order_fold_of_individual_shards_matches_the_oracle() {
    // Differential at every supported shard count: executing each
    // shard separately and folding in index order reproduces a fresh
    // serial fold bit for bit, and the attempt budget is conserved.
    let fx = fixture(heavy_cfg());
    for shards in [1u32, 2, 3, 8] {
        let ranges = shard_ranges(&fx.cfg, shards).unwrap();
        assert_eq!(ranges.len(), shards as usize);
        assert_eq!(ranges.iter().map(|r| r.len).sum::<u64>(), 120);
        let parts: Vec<CampaignResult> = ranges
            .iter()
            .enumerate()
            .map(|(i, &range)| fx.run_shard(i as u32, range))
            .collect();
        let mut folded = parts[0].clone();
        for part in &parts[1..] {
            folded.merge(part);
        }
        assert_eq!(folded, fx.oracle(shards), "{shards} shards");
        assert_eq!(folded.shots_attempted, 120, "{shards} shards");
        // Interval bookkeeping: every shard contributes its reload
        // intervals plus one open tail.
        assert_eq!(
            folded.shots_between_reloads.len() as u64,
            folded.ledger.reloads + u64::from(shards),
            "{shards} shards"
        );
    }
}

#[test]
fn completion_order_never_leaks_into_the_index_order_fold() {
    // The engine's contract: shards finish in scheduler order, results
    // land in per-shard slots, and the fold walks the slots in index
    // order. Simulate many completion orders and fold from the slots —
    // the result must be byte-identical every time.
    let fx = fixture(heavy_cfg());
    let ranges = shard_ranges(&fx.cfg, 8).unwrap();
    let oracle = fx.oracle(8);
    let mut rng = StdRng::seed_from_u64(42);
    for round in 0..6 {
        let mut completion: Vec<usize> = (0..ranges.len()).collect();
        shuffle(&mut completion, &mut rng);
        let mut slots: Vec<Option<CampaignResult>> = vec![None; ranges.len()];
        for &i in &completion {
            slots[i] = Some(fx.run_shard(i as u32, ranges[i]));
        }
        let mut folded: Option<CampaignResult> = None;
        for slot in slots {
            let part = slot.expect("every shard completed");
            match &mut folded {
                None => folded = Some(part),
                Some(m) => m.merge(&part),
            }
        }
        assert_eq!(folded.unwrap(), oracle, "round {round}: {completion:?}");
    }
}

#[test]
fn permuted_fold_orders_conserve_every_exact_field() {
    // Merging in a *non*-index order is outside the determinism
    // contract (float sums reorder), but the integer algebra is fully
    // commutative: counters, ledger counts, streak counts, and
    // histogram buckets must not depend on fold order at all.
    let fx = fixture(heavy_cfg());
    let ranges = shard_ranges(&fx.cfg, 8).unwrap();
    let parts: Vec<CampaignResult> = ranges
        .iter()
        .enumerate()
        .map(|(i, &range)| fx.run_shard(i as u32, range))
        .collect();
    let oracle = fx.oracle(8);
    let mut rng = StdRng::seed_from_u64(7);
    for round in 0..6 {
        let mut order: Vec<usize> = (0..parts.len()).collect();
        shuffle(&mut order, &mut rng);
        let mut folded = parts[order[0]].clone();
        for &i in &order[1..] {
            folded.merge(&parts[i]);
        }
        let tag = format!("round {round}: {order:?}");
        assert_eq!(folded.shots_attempted, oracle.shots_attempted, "{tag}");
        assert_eq!(folded.shots_successful, oracle.shots_successful, "{tag}");
        assert_eq!(folded.discarded_by_loss, oracle.discarded_by_loss, "{tag}");
        assert_eq!(folded.failed_by_noise, oracle.failed_by_noise, "{tag}");
        assert_eq!(folded.ledger.reloads, oracle.ledger.reloads, "{tag}");
        assert_eq!(folded.ledger.remaps, oracle.ledger.remaps, "{tag}");
        assert_eq!(folded.ledger.fixups, oracle.ledger.fixups, "{tag}");
        assert_eq!(folded.ledger.recompiles, oracle.ledger.recompiles, "{tag}");
        assert_eq!(
            folded.streaks.completed.count, oracle.streaks.completed.count,
            "{tag}"
        );
        // Which streak is left *open* depends on which shard the fold
        // visits last, so the completed histogram alone is not
        // order-independent — but the multiset of all streaks
        // (completed plus the open tail) is. Close both and compare.
        let close = |r: &CampaignResult| {
            let mut h = r.streaks.histogram.clone();
            if let Some(open) = r.streaks.open {
                h.record(open);
            }
            h
        };
        assert_eq!(close(&folded).buckets(), close(&oracle).buckets(), "{tag}");
        // The interval entries are the same multiset concatenated in
        // permuted shard order.
        let mut lhs = folded.shots_between_reloads.clone();
        let mut rhs = oracle.shots_between_reloads.clone();
        lhs.sort_unstable();
        rhs.sort_unstable();
        assert_eq!(lhs, rhs, "{tag}");
    }
}

#[test]
fn streaming_shards_merge_to_the_accumulating_statistics() {
    // Same campaign, streaming vs accumulating, 3 shards each: exact
    // counters and streak counts identical; streak moments agree to
    // float tolerance (the accumulating side re-derives them from the
    // concatenated interval vector with one sequential Welford pass,
    // the streaming side merged per-shard summaries with Chan's
    // update).
    let accumulating = fixture(heavy_cfg());
    let streaming = fixture(heavy_cfg().with_streaming());
    let acc = accumulating.oracle(3);
    let stream = streaming.oracle(3);

    assert!(acc.shots_between_reloads.len() > 3, "fixture draws reloads");
    assert!(stream.shots_between_reloads.is_empty());
    assert!(stream.timeline.is_empty());
    assert_eq!(acc.shots_attempted, stream.shots_attempted);
    assert_eq!(acc.shots_successful, stream.shots_successful);
    assert_eq!(acc.discarded_by_loss, stream.discarded_by_loss);
    assert_eq!(acc.failed_by_noise, stream.failed_by_noise);
    assert_eq!(acc.ledger, stream.ledger);
    // Both modes maintain the running streak summaries; they are the
    // same sequential computation, so even the floats match here.
    assert_eq!(acc.streaks, stream.streaks);

    // Re-deriving streak statistics from the accumulated intervals
    // agrees with the merged streaming summaries: counts exactly,
    // moments to tolerance.
    let rederived = StreakStats::from_intervals(&acc.shots_between_reloads);
    assert_eq!(rederived.completed.count, stream.streaks.completed.count);
    assert_eq!(
        rederived.histogram.buckets(),
        stream.streaks.histogram.buckets()
    );
    let lhs = rederived.completed.mean();
    let rhs = stream.streaks.completed.mean();
    assert!(
        (lhs - rhs).abs() <= 1e-9 * lhs.abs().max(1.0),
        "{lhs} vs {rhs}"
    );
    let lv = rederived.completed.variance();
    let rv = stream.streaks.completed.variance();
    assert!((lv - rv).abs() <= 1e-9 * lv.abs().max(1.0), "{lv} vs {rv}");
}
