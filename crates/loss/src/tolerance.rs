//! The seeded loss walk behind Figs. 10–11: lose uniformly random
//! atoms one at a time and let the strategy absorb each loss until it
//! forces a reload.

use crate::state::{LossOutcome, StrategyState};
use na_arch::Site;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Loses uniformly random atoms of `state`'s grid one at a time and
/// lets the strategy absorb each loss. The walk stops at the first
/// [`LossOutcome::NeedsReload`], on an empty grid, or after
/// `max_losses` absorbed losses; `absorbed` sees the state after
/// every absorbed loss. Returns the losses absorbed.
///
/// Deterministic in `seed`. The usable-site list is maintained
/// incrementally: an absorbed loss removes exactly the victim, so
/// deleting it by its drawn index keeps the row-major order, and with
/// it the victim sequence, of re-collecting
/// [`na_arch::Grid::usable_sites`] before every draw.
pub fn loss_walk(
    state: &mut StrategyState,
    seed: u64,
    max_losses: usize,
    mut absorbed: impl FnMut(&StrategyState),
) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut usable: Vec<Site> = state.grid().usable_sites().collect();
    let mut losses = 0;
    while losses < max_losses && !usable.is_empty() {
        let victim = usable.remove(rng.gen_range(0..usable.len()));
        if state.apply_loss(victim) == LossOutcome::NeedsReload {
            break;
        }
        losses += 1;
        absorbed(state);
    }
    losses
}

/// Fig. 10's measurement: the mean and population standard deviation
/// of the device fraction `trials` loss walks absorb before a reload.
/// Trial `t` walks a clone of `state` under seed `base_seed + t` with
/// no loss limit, so only the architecture ends it when `state` has no
/// SWAP budget (build it with `max_fixup_swaps: None`).
///
/// `trials == 0` returns `(0.0, 0.0)`: zero requested trials mean
/// zero observed tolerance, not a `0.0 / 0.0 = NaN`.
pub fn mean_loss_tolerance(state: &StrategyState, trials: u32, base_seed: u64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 0.0);
    }
    let sites = state.grid().num_sites() as f64;
    // Grown per finished trial, never sized by `trials` up front.
    let mut fractions = Vec::new();
    for t in 0..trials {
        let seed = base_seed.wrapping_add(u64::from(t));
        let holes = loss_walk(&mut state.clone(), seed, usize::MAX, |_| {});
        fractions.push(holes as f64 / sites);
    }
    let mean = fractions.iter().sum::<f64>() / fractions.len() as f64;
    let var = fractions
        .iter()
        .map(|f| (f - mean) * (f - mean))
        .sum::<f64>()
        / fractions.len() as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Strategy;
    use na_arch::Grid;
    use na_benchmarks::Benchmark;

    fn state(benchmark: Benchmark, size: u32, mid: f64, strategy: Strategy) -> StrategyState {
        let grid = Grid::new(10, 10);
        StrategyState::new(&benchmark.generate(size, 0), &grid, mid, strategy, None).unwrap()
    }

    /// Losses a 30-qubit Cuccaro adder absorbs in one unlimited walk.
    fn holes(mid: f64, strategy: Strategy, seed: u64) -> usize {
        let mut s = state(Benchmark::Cuccaro, 30, mid, strategy);
        loss_walk(&mut s, seed, usize::MAX, |_| {})
    }

    #[test]
    fn always_reload_tolerates_only_spares() {
        // 30 in-use atoms out of 100: the first interfering hit ends
        // the run, so sustained losses are the spare-only prefix.
        assert!(holes(3.0, Strategy::AlwaysReload, 1) < 71);
    }

    #[test]
    fn recompile_tolerates_the_most() {
        let rec = holes(4.0, Strategy::FullRecompile, 2);
        let vr = holes(4.0, Strategy::VirtualRemap, 2);
        assert!(rec >= vr, "recompile {rec} vs virtual remap {vr}");
        // The paper's ideal: with a 30%-utilization program, recompile
        // approaches 70% device loss at sufficient MID.
        assert!(rec > 30, "holes {rec}");
    }

    #[test]
    fn tolerance_grows_with_mid_for_remapping() {
        let total = |mid| {
            (0..4)
                .map(|s| holes(mid, Strategy::VirtualRemap, s))
                .sum::<usize>()
        };
        let (lo, hi) = (total(2.0), total(6.0));
        assert!(hi > lo, "MID 6 ({hi}) must beat MID 2 ({lo})");
    }

    #[test]
    fn reroute_beats_plain_remap() {
        let total = |strategy| (0..4).map(|s| holes(3.0, strategy, s)).sum::<usize>();
        let (remap, reroute) = (total(Strategy::VirtualRemap), total(Strategy::MinorReroute));
        assert!(reroute >= remap, "reroute {reroute} vs remap {remap}");
    }

    #[test]
    fn walk_draws_the_victims_of_a_per_loss_recollect() {
        // The reference re-collects the usable sites before every draw;
        // the walk must leave the same grid after every absorbed loss.
        for strategy in [Strategy::CompileSmallReroute, Strategy::FullRecompile] {
            let fresh = state(Benchmark::Cuccaro, 30, 3.0, strategy);
            let mut walked = Vec::new();
            let mut s = fresh.clone();
            let n = loss_walk(&mut s, 9, usize::MAX, |s| {
                walked.push(s.grid().fingerprint());
            });
            assert_eq!(n, walked.len());

            let (mut s, mut rng) = (fresh, StdRng::seed_from_u64(9));
            let mut reference = Vec::new();
            loop {
                let usable: Vec<Site> = s.grid().usable_sites().collect();
                if usable.is_empty() {
                    break;
                }
                if s.apply_loss(usable[rng.gen_range(0..usable.len())]) == LossOutcome::NeedsReload
                {
                    break;
                }
                reference.push(s.grid().fingerprint());
            }
            assert_eq!(walked, reference, "{strategy}");
        }
    }

    #[test]
    fn walk_stops_after_max_losses() {
        let fresh = state(Benchmark::Cuccaro, 30, 4.0, Strategy::FullRecompile);
        let unlimited = loss_walk(&mut fresh.clone(), 3, usize::MAX, |_| {});
        assert!(unlimited > 5, "{unlimited}");
        let mut s = fresh;
        let mut seen = 0;
        assert_eq!(loss_walk(&mut s, 3, 5, |_| seen += 1), 5);
        assert_eq!((seen, s.grid().num_holes()), (5, 5));
    }

    #[test]
    fn deterministic_in_seed() {
        let a = holes(3.0, Strategy::CompileSmallReroute, 9);
        assert_eq!(a, holes(3.0, Strategy::CompileSmallReroute, 9));
    }

    #[test]
    fn mean_tolerance_reports_std() {
        let s = state(Benchmark::Bv, 16, 3.0, Strategy::VirtualRemap);
        let (mean, std) = mean_loss_tolerance(&s, 5, 0);
        assert!((0.0..=1.0).contains(&mean));
        assert!(std >= 0.0);
        // Every trial walks a clone: the state stays hole-free.
        assert_eq!(s.grid().num_holes(), 0);
    }

    #[test]
    fn mean_tolerance_with_zero_trials_is_zero_not_nan() {
        let s = state(Benchmark::Bv, 16, 3.0, Strategy::VirtualRemap);
        assert_eq!(mean_loss_tolerance(&s, 0, 0), (0.0, 0.0));
    }
}
