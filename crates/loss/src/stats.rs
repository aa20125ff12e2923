//! Constant-memory campaign statistics.
//!
//! A 10⁶–10⁸-shot campaign cannot afford the seed's per-interval
//! bookkeeping (`CampaignResult::shots_between_reloads` grows one
//! entry per reload). This module is the streaming replacement:
//!
//! * [`RunningMoments`] — Welford-style running count/mean/M2, merged
//!   across shards with Chan's parallel update;
//! * [`StreakHistogram`] — a fixed-bucket log₂ histogram of completed
//!   reload streaks (16 linear buckets, then one per power of two),
//!   merged bucketwise like the telemetry latency histograms;
//! * [`StreakStats`] — the pair plus the still-open interval,
//!   maintained by the campaign shot loop in O(1) memory.
//!
//! The accumulating interval vector stays in-tree as the differential
//! oracle (the seed-placer playbook of `na_core`'s placement tests):
//! [`StreakStats::from_intervals`] pushes the recorded intervals
//! through the *same* sequential code path the streaming loop uses, so
//! on any single shard the two representations agree bit for bit —
//! `crates/loss/tests/shard_merge.rs` pins that.
//!
//! # Merge determinism
//!
//! Counter and bucket addition is exact and commutative. The moment
//! merge (Chan) is exact in `count` and deterministic in `mean`/`m2`
//! *for a fixed fold order* — floating-point addition is not
//! associative, so [`CampaignResult::merge`](crate::CampaignResult)
//! always folds shards in shard-index order regardless of completion
//! order, exactly like the engine collects job rows in id order.

use serde::{Deserialize, Serialize};

/// Welford-style running moments: count, mean, and the sum of squared
/// deviations (`m2`). Push is O(1); two accumulators merge with Chan's
/// parallel update.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunningMoments {
    /// Number of samples absorbed.
    pub count: u64,
    mean: f64,
    m2: f64,
}

impl RunningMoments {
    /// An empty accumulator.
    pub fn new() -> Self {
        RunningMoments::default()
    }

    /// Absorbs one sample (Welford's update).
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Merges another accumulator into this one (Chan et al.'s
    /// parallel update). Exact in `count`; deterministic in the float
    /// fields for a fixed merge order.
    pub fn merge_from(&mut self, other: &RunningMoments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let n = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.count += other.count;
    }

    /// Mean of the absorbed samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 when empty).
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }
}

/// Linear buckets below this value (one per integer).
pub const STREAK_LINEAR_LIMIT: u64 = 16;
/// Total bucket count: 16 linear + one per power of two from 2⁴ up to
/// 2⁶³.
pub const STREAK_BUCKETS: usize = 16 + 60;

/// Fixed-bucket histogram of completed reload-streak lengths.
///
/// Values below [`STREAK_LINEAR_LIMIT`] get exact unit buckets (short
/// streaks are the interesting regime — a strategy that reloads every
/// few shots); larger values share one bucket per power of two. The
/// memory footprint is a fixed 76 counters regardless of campaign
/// length, and bucketwise addition makes the merge exact and
/// commutative.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreakHistogram {
    counts: Vec<u64>,
}

impl Default for StreakHistogram {
    fn default() -> Self {
        StreakHistogram {
            counts: vec![0; STREAK_BUCKETS],
        }
    }
}

impl StreakHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        StreakHistogram::default()
    }

    /// The bucket index for a streak of `v` successful shots.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v < STREAK_LINEAR_LIMIT {
            v as usize
        } else {
            let log2 = 63 - v.leading_zeros() as usize;
            STREAK_LINEAR_LIMIT as usize + (log2 - 4)
        }
    }

    /// The `[lo, hi]` value range bucket `i` covers.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        if (i as u64) < STREAK_LINEAR_LIMIT {
            (i as u64, i as u64)
        } else {
            let log2 = i - STREAK_LINEAR_LIMIT as usize + 4;
            let lo = 1u64 << log2;
            let hi = if log2 == 63 { u64::MAX } else { (lo << 1) - 1 };
            (lo, hi)
        }
    }

    /// Counts one completed streak.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_index(v)] += 1;
    }

    /// Adds another histogram bucketwise (exact, commutative).
    pub fn merge_from(&mut self, other: &StreakHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Total streaks recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The raw bucket counters, in [`bucket_bounds`](Self::bucket_bounds)
    /// order.
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }
}

/// Streaming summary of a campaign's reload streaks: the completed
/// intervals' running moments and histogram, plus the still-open
/// interval. O(1) memory for any number of shots — this is what makes
/// streaming campaigns memory-flat.
///
/// `open` is `None` only for a result that never ran a shot loop (the
/// default/empty value and early error paths); a finished campaign
/// always carries its open interval, even when it is zero — mirroring
/// the interval vector's trailing open entry.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StreakStats {
    /// Moments of the *completed* inter-reload intervals.
    pub completed: RunningMoments,
    /// Histogram of the completed intervals.
    pub histogram: StreakHistogram,
    /// Successful shots since the last reload (the open interval), or
    /// `None` when no campaign ran.
    pub open: Option<u64>,
}

impl StreakStats {
    /// An empty summary (no campaign ran yet).
    pub fn new() -> Self {
        StreakStats::default()
    }

    /// Absorbs one *completed* streak (a reload just happened).
    pub fn complete(&mut self, streak: u64) {
        self.completed.push(streak as f64);
        self.histogram.record(streak);
    }

    /// Builds the summary from an accumulated interval vector (last
    /// entry open, per the `shots_between_reloads` convention), using
    /// the same sequential pushes as the streaming loop — bit-identical
    /// to streaming over the same campaign.
    pub fn from_intervals(intervals: &[u32]) -> Self {
        let mut stats = StreakStats::new();
        let Some((open, completed)) = intervals.split_last() else {
            return stats;
        };
        for &c in completed {
            stats.complete(u64::from(c));
        }
        stats.open = Some(u64::from(*open));
        stats
    }

    /// Folds the summary of the *next* shard (in shard-index order)
    /// into this one. The left side's open interval was cut by the
    /// shard boundary, so it counts as completed — exactly what
    /// concatenating the two interval vectors expresses — and the
    /// right side's open interval becomes the merged open interval.
    /// Merging an empty summary is the identity.
    pub fn merge_from(&mut self, next: &StreakStats) {
        if next.open.is_none() && next.completed.count == 0 {
            return;
        }
        if let Some(open) = self.open.take() {
            self.complete(open);
        }
        self.completed.merge_from(&next.completed);
        self.histogram.merge_from(&next.histogram);
        self.open = next.open;
    }

    /// Mean successful shots per completed interval, falling back to
    /// the open interval when no reload ever happened and 0.0 when no
    /// campaign ran — the streaming counterpart of
    /// [`CampaignResult::mean_shots_before_reload`](crate::CampaignResult::mean_shots_before_reload).
    pub fn mean_shots_before_reload(&self) -> f64 {
        if self.completed.count > 0 {
            self.completed.mean()
        } else {
            self.open.map_or(0.0, |open| open as f64)
        }
    }
}

/// Splits one base seed into per-shard seeds with unrelated streams
/// (SplitMix64). Shard 0 keeps the base seed untouched — the serial
/// 1-shard path draws exactly the sequence the unsharded executor
/// always drew, which is what pins the 24 campaign golden digests —
/// and shard `i > 0` gets `derive_seed(base, i)`.
#[must_use]
pub fn shard_seed(base: u64, shard_index: u32) -> u64 {
    if shard_index == 0 {
        base
    } else {
        derive_seed(base, u64::from(shard_index))
    }
}

/// Splits one base seed into per-`id` seeds with unrelated streams
/// (SplitMix64). This is the engine's sweep-point seed splitter, hosted
/// here so the campaign shard contract and the engine derive from one
/// implementation (`na-engine` re-exports it).
#[must_use]
pub fn derive_seed(base: u64, id: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(id.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive_moments() {
        let samples = [3.0, 5.0, 5.0, 8.0, 0.0, 13.0];
        let mut m = RunningMoments::new();
        for s in samples {
            m.push(s);
        }
        let naive_mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let naive_var = samples
            .iter()
            .map(|s| (s - naive_mean).powi(2))
            .sum::<f64>()
            / samples.len() as f64;
        assert_eq!(m.count, samples.len() as u64);
        assert!((m.mean() - naive_mean).abs() < 1e-12);
        assert!((m.variance() - naive_var).abs() < 1e-12);
    }

    #[test]
    fn chan_merge_is_exact_in_count_and_close_in_moments() {
        let mut left = RunningMoments::new();
        let mut right = RunningMoments::new();
        let mut all = RunningMoments::new();
        for i in 0..100u64 {
            let x = (i as f64).sin() * 10.0;
            if i < 37 {
                left.push(x);
            } else {
                right.push(x);
            }
            all.push(x);
        }
        left.merge_from(&right);
        assert_eq!(left.count, all.count);
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn merging_empty_moments_is_identity_both_ways() {
        let mut m = RunningMoments::new();
        m.push(4.0);
        m.push(6.0);
        let snapshot = m;
        m.merge_from(&RunningMoments::new());
        assert_eq!(m, snapshot);
        let mut empty = RunningMoments::new();
        empty.merge_from(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn histogram_buckets_are_exhaustive_and_ordered() {
        for v in [0u64, 1, 15, 16, 17, 31, 32, 1000, u64::MAX] {
            let i = StreakHistogram::bucket_index(v);
            assert!(i < STREAK_BUCKETS, "bucket {i} out of range for {v}");
            let (lo, hi) = StreakHistogram::bucket_bounds(i);
            assert!(lo <= v && v <= hi, "{v} outside bucket [{lo}, {hi}]");
        }
        // Bucket lower bounds are strictly increasing.
        let mut prev = None;
        for i in 0..STREAK_BUCKETS {
            let (lo, hi) = StreakHistogram::bucket_bounds(i);
            assert!(lo <= hi);
            if let Some(p) = prev {
                assert!(lo > p);
            }
            prev = Some(lo);
        }
    }

    #[test]
    fn histogram_merge_is_bucketwise_addition() {
        let mut a = StreakHistogram::new();
        let mut b = StreakHistogram::new();
        let mut both = StreakHistogram::new();
        for v in [0u64, 3, 16, 200, 7] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 3, 99] {
            b.record(v);
            both.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a, both);
        assert_eq!(a.count(), 8);
    }

    #[test]
    fn from_intervals_matches_streaming_pushes() {
        let intervals: Vec<u32> = vec![3, 0, 17, 42, 5];
        let from = StreakStats::from_intervals(&intervals);
        let mut streamed = StreakStats::new();
        for &c in &intervals[..intervals.len() - 1] {
            streamed.complete(u64::from(c));
        }
        streamed.open = Some(5);
        assert_eq!(from, streamed, "identical code path, identical bits");
        assert_eq!(StreakStats::from_intervals(&[]), StreakStats::new());
    }

    #[test]
    fn streak_merge_matches_interval_concatenation() {
        let left_iv: Vec<u32> = vec![3, 5, 2];
        let right_iv: Vec<u32> = vec![7, 0, 4];
        let mut merged = StreakStats::from_intervals(&left_iv);
        merged.merge_from(&StreakStats::from_intervals(&right_iv));
        let concat: Vec<u32> = left_iv.iter().chain(&right_iv).copied().collect();
        let oracle = StreakStats::from_intervals(&concat);
        // Counts, histogram, and the open interval are exact; the
        // moments differ only in float fold order (Chan vs sequential).
        assert_eq!(merged.completed.count, oracle.completed.count);
        assert_eq!(merged.histogram, oracle.histogram);
        assert_eq!(merged.open, oracle.open);
        assert!((merged.completed.mean() - oracle.completed.mean()).abs() < 1e-9);
    }

    #[test]
    fn merging_an_empty_shard_keeps_the_open_interval_open() {
        let mut s = StreakStats::from_intervals(&[3, 9]);
        let snapshot = s.clone();
        s.merge_from(&StreakStats::new());
        assert_eq!(s, snapshot, "an empty shard must not close the interval");
    }

    #[test]
    fn mean_shots_before_reload_semantics_match_the_vector_path() {
        assert_eq!(StreakStats::new().mean_shots_before_reload(), 0.0);
        let open_only = StreakStats::from_intervals(&[7]);
        assert!((open_only.mean_shots_before_reload() - 7.0).abs() < 1e-12);
        let completed = StreakStats::from_intervals(&[3, 5, 0]);
        assert!((completed.mean_shots_before_reload() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn shard_zero_keeps_the_base_seed() {
        assert_eq!(shard_seed(1234, 0), 1234);
        assert_ne!(shard_seed(1234, 1), 1234);
        assert_ne!(shard_seed(1234, 1), shard_seed(1234, 2));
        assert_eq!(shard_seed(1234, 3), derive_seed(1234, 3));
    }

    #[test]
    fn derive_seed_is_stable_and_spread() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        assert_ne!(derive_seed(7, 3), derive_seed(7, 4));
        assert_ne!(derive_seed(7, 3), derive_seed(8, 3));
    }

    #[test]
    fn stats_round_trip_through_serde() {
        use serde::{Deserialize, Serialize};
        let mut s = StreakStats::from_intervals(&[3, 500, 2]);
        s.complete(1_000_000);
        let back = StreakStats::from_value(&s.to_value()).unwrap();
        assert_eq!(back, s);
    }
}
