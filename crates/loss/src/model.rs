//! The stochastic atom-loss model.

use na_arch::{Grid, Site};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Per-shot Bernoulli loss processes (paper §VI).
///
/// Two mechanisms, both uniform across atoms:
///
/// * **vacuum loss** — a background-gas collision ejects the atom
///   during the shot; rare (default 6.8e-5 per atom per shot, from the
///   vacuum-limited lifetimes of Covey et al. 2019);
/// * **measurement loss** — low-loss readout still loses ~2% of
///   *measured* atoms per shot (Kwon et al. 2017). The destructive
///   alternative (~50%, state-selective ejection) is available via
///   [`LossModel::destructive_readout`].
///
/// The model owns a seeded RNG so campaigns are reproducible.
///
/// # Example
///
/// ```
/// use na_arch::Grid;
/// use na_loss::LossModel;
///
/// let grid = Grid::new(10, 10);
/// // The first 30 sites in flat-index order are measured.
/// let measured: Vec<bool> = (0..grid.num_sites()).map(|i| i < 30).collect();
/// let mut model = LossModel::new(7);
/// let mut losses = Vec::new();
/// model.draw_losses_with(&grid, &measured, &mut losses);
/// assert!(losses.len() <= grid.num_usable());
/// ```
#[derive(Debug, Clone)]
pub struct LossModel {
    vacuum_loss: f64,
    measurement_loss: f64,
    seed: u64,
    rng: StdRng,
}

impl LossModel {
    /// Paper-default rates: 6.8e-5 vacuum, 2% low-loss measurement.
    pub fn new(seed: u64) -> Self {
        LossModel {
            vacuum_loss: 6.8e-5,
            measurement_loss: 0.02,
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A model with 50% destructive (state-selective ejection) readout.
    pub fn destructive_readout(seed: u64) -> Self {
        LossModel {
            vacuum_loss: 6.8e-5,
            measurement_loss: 0.5,
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The seed this model's RNG was constructed from. Campaign shards
    /// use it as the base for per-shard loss-stream derivation.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The same loss rates over a fresh RNG seeded with `new_seed` —
    /// how a campaign shard gets its own statistically independent loss
    /// stream while keeping the configured physics.
    #[must_use]
    pub fn reseeded(&self, new_seed: u64) -> Self {
        LossModel {
            vacuum_loss: self.vacuum_loss,
            measurement_loss: self.measurement_loss,
            seed: new_seed,
            rng: StdRng::seed_from_u64(new_seed),
        }
    }

    /// Overrides the vacuum-loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[cfg(test)]
    pub(crate) fn with_vacuum_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.vacuum_loss = p;
        self
    }

    /// Overrides the measurement-loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[cfg(test)]
    pub(crate) fn with_measurement_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.measurement_loss = p;
        self
    }

    /// Divides both loss rates by `factor` — the x-axis of the paper's
    /// sensitivity study (Fig. 13), where a 10× rate improvement yields
    /// ~10× more shots per reload.
    ///
    /// # Panics
    ///
    /// Panics if `factor <= 0` or a scaled rate leaves `[0, 1]`.
    pub fn with_improvement_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "improvement factor must be positive");
        self.vacuum_loss = (self.vacuum_loss / factor).clamp(0.0, 1.0);
        let m = self.measurement_loss / factor;
        assert!(m <= 1.0, "scaled measurement loss out of range");
        self.measurement_loss = m;
        self
    }

    /// Current vacuum-loss probability per atom per shot.
    pub fn vacuum_loss(&self) -> f64 {
        self.vacuum_loss
    }

    /// Current measurement-loss probability per measured atom per shot.
    pub fn measurement_loss(&self) -> f64 {
        self.measurement_loss
    }

    /// Draws the atoms lost in one shot into `out`, in ascending
    /// order: every usable atom risks vacuum loss; atoms whose flat
    /// index is set in `measured_mask` additionally risk measurement
    /// loss.
    ///
    /// The campaign executor calls this every shot; the mask makes the
    /// measured test an O(1) load and the reused `out` buffer stops a
    /// `Vec` allocation per shot. The walk runs over
    /// [`Grid::usable_mask`] by flat index and builds a [`Site`] only
    /// for a drawn loss. The RNG contract: one `gen_bool` per usable
    /// site with a nonzero loss probability, in ascending flat-index
    /// (row-major) order. Each `gen_bool(p)` is drawn as the integer
    /// test it is exactly equal to (see `loss_threshold`), with both
    /// thresholds computed once per call.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `mask` is not sized to the grid.
    pub fn draw_losses_with(&mut self, grid: &Grid, measured_mask: &[bool], out: &mut Vec<Site>) {
        debug_assert_eq!(
            measured_mask.len(),
            grid.num_sites(),
            "measured mask sized to the grid"
        );
        out.clear();
        // Loss processes are independent; either suffices.
        let p_measured = 1.0 - (1.0 - self.vacuum_loss) * (1.0 - self.measurement_loss);
        let (t_measured, t_vacuum) = (loss_threshold(p_measured), loss_threshold(self.vacuum_loss));
        for (i, (&usable, &measured)) in grid.usable_mask().iter().zip(measured_mask).enumerate() {
            if !usable {
                continue;
            }
            let t = if measured { t_measured } else { t_vacuum };
            if t > 0 && (self.rng.next_u64() >> 11) < t {
                out.push(grid.site_at(i));
            }
        }
        // The walk goes up the flat indices, so the drawn losses are
        // strictly ascending in row-major order — hence unique. The
        // executor's absorb loop relies on this (each drawn site is
        // lost at most once per shot).
        debug_assert!(out.windows(2).all(|w| (w[0].y, w[0].x) < (w[1].y, w[1].x)));
    }
}

/// The integer form of `gen_bool(p)`: `gen_bool` draws `u = k·2⁻⁵³`
/// from the top 53 bits `k` of one `next_u64` and answers `u < p`. As
/// `p·2⁵³` is exact for every `p ≤ 1` and `k` is an integer, that is
/// `k < ⌈p·2⁵³⌉`, the threshold returned here. It is 0 only for
/// `p = 0`, which draws nothing.
///
/// # Panics
///
/// Panics unless `0 ≤ p ≤ 1`, as `gen_bool` does.
fn loss_threshold(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} out of range");
    (p * (1u64 << 53) as f64).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// One shot's losses with `measured` given as a site list.
    fn draw(model: &mut LossModel, grid: &Grid, measured: &[Site]) -> Vec<Site> {
        let mut mask = vec![false; grid.num_sites()];
        for &s in measured {
            mask[grid.flat_index(s)] = true;
        }
        let mut lost = Vec::new();
        model.draw_losses_with(grid, &mask, &mut lost);
        lost
    }

    #[test]
    fn defaults_match_paper() {
        let m = LossModel::new(0);
        assert!((m.vacuum_loss() - 6.8e-5).abs() < 1e-12);
        assert!((m.measurement_loss() - 0.02).abs() < 1e-12);
        assert!((LossModel::destructive_readout(0).measurement_loss() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn draws_are_reproducible_per_seed() {
        let grid = Grid::new(10, 10);
        let measured: Vec<Site> = grid.usable_sites().take(50).collect();
        let mut a = LossModel::destructive_readout(42);
        let mut b = LossModel::destructive_readout(42);
        for _ in 0..5 {
            assert_eq!(
                draw(&mut a, &grid, &measured),
                draw(&mut b, &grid, &measured)
            );
        }
    }

    #[test]
    fn measured_atoms_are_lost_more_often() {
        let grid = Grid::new(10, 10);
        let measured: Vec<Site> = grid.usable_sites().take(50).collect();
        let mut m = LossModel::new(1).with_measurement_loss(0.3);
        let (mut meas_lost, mut spare_lost) = (0usize, 0usize);
        for _ in 0..200 {
            for s in draw(&mut m, &grid, &measured) {
                if measured.contains(&s) {
                    meas_lost += 1;
                } else {
                    spare_lost += 1;
                }
            }
        }
        assert!(
            meas_lost > 10 * spare_lost.max(1) / 2,
            "{meas_lost} vs {spare_lost}"
        );
    }

    #[test]
    fn improvement_factor_scales_rates() {
        let m = LossModel::new(0).with_improvement_factor(10.0);
        assert!((m.measurement_loss() - 0.002).abs() < 1e-12);
        assert!((m.vacuum_loss() - 6.8e-6).abs() < 1e-15);
        // A worsening factor < 1 raises rates.
        let worse = LossModel::new(0).with_improvement_factor(0.5);
        assert!((worse.measurement_loss() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn zero_rates_lose_nothing() {
        let grid = Grid::new(5, 5);
        let measured: Vec<Site> = grid.usable_sites().collect();
        let mut m = LossModel::new(3)
            .with_vacuum_loss(0.0)
            .with_measurement_loss(0.0);
        assert!(draw(&mut m, &grid, &measured).is_empty());
    }

    #[test]
    fn draws_are_strictly_ascending_unique_usable_sites() {
        // The executor's absorb loop and its duplicate/stale-loss
        // guard rely on this (debug_assert-backed in
        // `draw_losses_with`): one draw per usable site, emitted in
        // strictly ascending row-major order — never a duplicate,
        // never a hole.
        let mut grid = Grid::new(8, 8);
        grid.remove_atom(Site::new(3, 3));
        grid.remove_atom(Site::new(0, 7));
        let measured: Vec<Site> = grid.usable_sites().take(20).collect();
        let mut m = LossModel::destructive_readout(9).with_measurement_loss(0.9);
        for _ in 0..50 {
            let losses = draw(&mut m, &grid, &measured);
            for w in losses.windows(2) {
                assert!(
                    (w[0].y, w[0].x) < (w[1].y, w[1].x),
                    "losses out of order: {} then {}",
                    w[0],
                    w[1]
                );
            }
            for s in losses {
                assert!(grid.is_usable(s), "drew a loss at hole {s}");
            }
        }
    }

    #[test]
    fn draw_order_matches_a_row_major_reference_loop() {
        // An independent reference for the RNG contract: a second RNG
        // on the same seed, one `gen_bool` per usable site, rows outer
        // and columns inner. Holey grids with random measured sets; the
        // losses must agree, and so must the next draw after them.
        let mut setup = StdRng::seed_from_u64(31);
        for round in 0..40u64 {
            let (w, h) = (setup.gen_range(1..9u32), setup.gen_range(1..9u32));
            let mut grid = Grid::new(w, h);
            let mut measured = vec![false; grid.num_sites()];
            for y in 0..h as i32 {
                for x in 0..w as i32 {
                    let site = Site::new(x, y);
                    if setup.gen_bool(0.25) {
                        grid.remove_atom(site);
                    }
                    measured[grid.flat_index(site)] = setup.gen_bool(0.5);
                }
            }
            let (vacuum, readout) = (setup.gen_range(0.0..0.5), setup.gen_range(0.0..0.9));
            let mut model = LossModel::new(round)
                .with_vacuum_loss(vacuum)
                .with_measurement_loss(readout);
            let mut reference = StdRng::seed_from_u64(round);
            let p_measured = 1.0 - (1.0 - vacuum) * (1.0 - readout);
            let mut out = Vec::new();
            for shot in 0..3 {
                model.draw_losses_with(&grid, &measured, &mut out);
                let mut expect = Vec::new();
                for y in 0..h as i32 {
                    for x in 0..w as i32 {
                        let site = Site::new(x, y);
                        if !grid.is_usable(site) {
                            continue;
                        }
                        let p = if measured[grid.flat_index(site)] {
                            p_measured
                        } else {
                            vacuum
                        };
                        if p > 0.0 && reference.gen_bool(p) {
                            expect.push(site);
                        }
                    }
                }
                assert_eq!(out, expect, "round {round} shot {shot}\n{grid}");
            }
            assert_eq!(
                model.rng.gen::<u64>(),
                reference.gen::<u64>(),
                "round {round}"
            );
        }
    }

    #[test]
    fn integer_draw_matches_gen_bool_at_boundary_rates() {
        // Rates the random ranges above never land on: zero, one, the
        // paper's, one ulp below one, a subnormal, and rates whose
        // `p·2⁵³` is an integer (the threshold's exact edge). Twin RNGs,
        // `gen_bool` as the reference: the same losses and the same
        // next draw.
        let edge = (1u64 << 53) as f64;
        let rates = [
            0.0,
            1.0,
            6.8e-5,
            0.02,
            0.5,
            1.0 - 1.0 / edge,
            f64::MIN_POSITIVE / 4.0,
            3.0 / edge,
            0.25,
            0.75,
            1.0 - 2.0 / edge,
        ];
        let mut grid = Grid::new(7, 6);
        grid.remove_atom(Site::new(2, 3));
        let mut measured = vec![false; grid.num_sites()];
        for i in (0..measured.len()).step_by(3) {
            measured[i] = true;
        }
        let mut out = Vec::new();
        for (k, &vacuum) in rates.iter().enumerate() {
            for &readout in &rates {
                let seed = k as u64;
                let mut model = LossModel::new(seed)
                    .with_vacuum_loss(vacuum)
                    .with_measurement_loss(readout);
                let mut reference = StdRng::seed_from_u64(seed);
                let p_measured = 1.0 - (1.0 - vacuum) * (1.0 - readout);
                for shot in 0..4 {
                    model.draw_losses_with(&grid, &measured, &mut out);
                    let expect: Vec<Site> = grid
                        .usable_sites()
                        .filter(|&s| {
                            let p = if measured[grid.flat_index(s)] {
                                p_measured
                            } else {
                                vacuum
                            };
                            p > 0.0 && reference.gen_bool(p)
                        })
                        .collect();
                    assert_eq!(
                        out, expect,
                        "vacuum {vacuum:e} readout {readout:e} shot {shot}"
                    );
                }
                assert_eq!(
                    model.rng.gen::<u64>(),
                    reference.gen::<u64>(),
                    "vacuum {vacuum:e} readout {readout:e}"
                );
            }
        }
        // At the threshold's edge the integer test and `gen_bool`'s
        // float compare agree on either side, whatever the stream.
        for &p in &rates {
            let t = loss_threshold(p);
            for k in [t.saturating_sub(1), t, t + 1] {
                let k = k.min((1 << 53) - 1);
                assert_eq!(k < t, (k as f64) / edge < p, "p {p:e}, k {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn loss_threshold_rejects_rates_gen_bool_rejects() {
        loss_threshold(1.0 + 1e-12);
    }

    #[test]
    fn holes_are_never_lost_again() {
        let mut grid = Grid::new(3, 3);
        for s in grid.sites().collect::<Vec<_>>() {
            grid.remove_atom(s);
        }
        let mut m = LossModel::destructive_readout(0).with_measurement_loss(1.0);
        assert!(draw(&mut m, &grid, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_probability_panics() {
        let _ = LossModel::new(0).with_measurement_loss(1.5);
    }

    #[test]
    fn reseeded_keeps_rates_and_matches_fresh_construction() {
        let grid = Grid::new(6, 6);
        let measured: Vec<Site> = grid.usable_sites().take(20).collect();
        let base = LossModel::destructive_readout(5).with_improvement_factor(2.0);
        assert_eq!(base.seed(), 5);
        let mut reseeded = base.reseeded(99);
        assert_eq!(reseeded.seed(), 99);
        assert_eq!(reseeded.vacuum_loss(), base.vacuum_loss());
        assert_eq!(reseeded.measurement_loss(), base.measurement_loss());
        // The reseeded stream matches a model built fresh on that seed
        // with the same rates — shard draws are position-independent.
        let mut fresh = LossModel::destructive_readout(99).with_improvement_factor(2.0);
        for _ in 0..5 {
            assert_eq!(
                draw(&mut reseeded, &grid, &measured),
                draw(&mut fresh, &grid, &measured)
            );
        }
    }
}
