//! The per-strategy topology state machine.
//!
//! Everything the paper's loss experiments do — tolerance counting
//! (Fig. 10), success-vs-holes traces (Fig. 11), overhead campaigns
//! (Figs. 12–14) — reduces to the same loop: *lose an atom, let the
//! strategy react, ask whether a reload is now required*.
//! [`StrategyState`] owns that loop body so every harness agrees on
//! the semantics.

use crate::reroute::{fixup_swaps_summary, resolved_ok_summary, InteractionSummary};
use crate::Strategy;
use na_arch::{BfsScratch, Grid, InteractionGraph, ShiftScratch, Site, VirtualMap};
use na_circuit::Circuit;
use na_core::{
    compile_with, run_passes, ArtifactKey, ArtifactStore, CompileError, CompiledCircuit,
    CompilerConfig, PlacementScratch, Reuse,
};
use na_telemetry::Span;
use std::sync::Arc;

/// How the strategy absorbed one atom loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossOutcome {
    /// The lost atom was a spare; nothing to do.
    Spare,
    /// Absorbed. `remaps` counts virtual-map updates; `refixed` is
    /// `true` if the reroute fixup was recomputed.
    Tolerated { remaps: u32, refixed: bool },
    /// Absorbed by recompiling (FullRecompile only); carries the
    /// measured compile time in seconds.
    Recompiled { compile_seconds: f64 },
    /// The strategy cannot absorb this loss: the caller must reload
    /// (or, for tolerance analysis, stop counting).
    NeedsReload,
}

/// Live topology state for one strategy on one device.
#[derive(Debug, Clone)]
pub struct StrategyState {
    strategy: Strategy,
    hardware_mid: f64,
    program: Circuit,
    compiler_config: CompilerConfig,
    grid_template: Grid,
    grid: Grid,
    vmap: VirtualMap,
    original: Arc<CompiledCircuit>,
    compiled: Arc<CompiledCircuit>,
    used_addresses: Vec<Site>,
    extra_swaps: u32,
    /// Reroute SWAP budget; `None` disables the success-floor check
    /// (architectural tolerance analysis).
    max_fixup_swaps: Option<u32>,
    /// BFS working memory reused by every fixup costing this state
    /// performs (one per interfering loss, every shot) instead of a
    /// fresh allocation per call.
    fixup_scratch: BfsScratch,
    /// Virtual-map shift working memory reused by every remap this
    /// state performs (one per interfering loss, every shot).
    shift_scratch: ShiftScratch,
    /// Placement working memory reused by the FullRecompile strategy's
    /// per-loss recompilations.
    placement_scratch: PlacementScratch,
    /// Distinct operand pairs (with multiplicities) of `compiled`,
    /// precomputed once so fixup costing iterates distinct pairs
    /// instead of scheduled ops. Shared (`Arc`) between states built
    /// from the same cached compilation; rebuilt only when `compiled`
    /// changes (FullRecompile's per-loss recompilations and its
    /// reload).
    summary: Arc<InteractionSummary>,
    /// The hole-free device's interaction graph at the hardware MID,
    /// fingerprint-cached like the compile path's graphs. Fixup BFS
    /// runs over this fixed graph with the live grid's
    /// [`Grid::usable_mask`] as the hole pattern — no per-loss-event
    /// graph rebuild and no mirror bookkeeping.
    full_graph: Arc<InteractionGraph>,
    /// Per-campaign artifact store, pre-seeded with the compiled
    /// schedule's (grid-independent) lowered circuit so FullRecompile's
    /// per-loss recompilations reuse the lowering instead of
    /// re-lowering on every loss event. `Arc` so cloning the state
    /// shares the cache (it is keyed by fingerprints, so sharing is
    /// always sound).
    artifacts: Arc<ArtifactStore>,
}

impl StrategyState {
    /// Compiles `program` for `strategy` on a fresh copy of
    /// `grid_template` at the given hardware MID (compile-small
    /// strategies compile one unit tighter).
    ///
    /// # Errors
    ///
    /// Propagates compiler errors from the initial compilation.
    pub fn new(
        program: &Circuit,
        grid_template: &Grid,
        hardware_mid: f64,
        strategy: Strategy,
        max_fixup_swaps: Option<u32>,
    ) -> Result<Self, CompileError> {
        let cfg = CompilerConfig::new(strategy.compile_mid(hardware_mid));
        let mut placement_scratch = PlacementScratch::new();
        let compiled = Arc::new(compile_with(
            program,
            grid_template,
            &cfg,
            &mut placement_scratch,
        )?);
        let summary = Arc::new(InteractionSummary::of(&compiled));
        let mut state = Self::with_compiled(
            program,
            grid_template,
            hardware_mid,
            strategy,
            max_fixup_swaps,
            compiled,
            summary,
        );
        // Keep the placement caches warmed by the initial compilation
        // for FullRecompile's per-loss recompilations.
        state.placement_scratch = placement_scratch;
        Ok(state)
    }

    /// Builds the state around an already compiled schedule and its
    /// precomputed [`InteractionSummary`] — the entry point for
    /// callers that memoize compilations (the experiment engine's
    /// fingerprint-keyed compile cache shares one artifact and one
    /// summary across every campaign job describing the same point).
    ///
    /// `compiled` must be the compilation of `program` on
    /// `grid_template` at the strategy's compile MID (what
    /// [`StrategyState::new`] would have produced), and `summary` its
    /// interaction summary.
    ///
    /// # Panics
    ///
    /// Debug builds assert the compiled schedule's MID matches the
    /// strategy's compile MID.
    pub fn with_compiled(
        program: &Circuit,
        grid_template: &Grid,
        hardware_mid: f64,
        strategy: Strategy,
        max_fixup_swaps: Option<u32>,
        compiled: Arc<CompiledCircuit>,
        summary: Arc<InteractionSummary>,
    ) -> Self {
        let cfg = CompilerConfig::new(strategy.compile_mid(hardware_mid));
        debug_assert_eq!(
            compiled.config().mid,
            cfg.mid,
            "precompiled schedule MID does not match the strategy's compile MID"
        );
        let used = compiled.used_sites().to_vec();
        // The costing graph is built from the *hole-free* template (a
        // template normally is one), so every state on the same device
        // and MID shares one cached graph; holes are threaded through
        // `usable_mask` instead.
        let full_graph = InteractionGraph::cached(grid_template, hardware_mid);
        // `CompiledCircuit::circuit()` *is* the pipeline's lowered
        // circuit (finalize stores it verbatim), and lowering never
        // reads the grid — so the cached compilation seeds the
        // per-campaign lowering cache without running a pass.
        let artifacts = Arc::new(ArtifactStore::new());
        if strategy == Strategy::FullRecompile {
            artifacts.insert_lowered(
                ArtifactKey::of(program, grid_template, &cfg),
                Arc::new(compiled.circuit().clone()),
            );
        }
        StrategyState {
            strategy,
            hardware_mid,
            program: program.clone(),
            compiler_config: cfg,
            grid_template: grid_template.clone(),
            grid: grid_template.clone(),
            vmap: VirtualMap::new(),
            original: Arc::clone(&compiled),
            compiled,
            used_addresses: used,
            extra_swaps: 0,
            max_fixup_swaps,
            fixup_scratch: BfsScratch::new(),
            shift_scratch: ShiftScratch::new(),
            placement_scratch: PlacementScratch::new(),
            summary,
            full_graph,
            artifacts,
        }
    }

    /// The strategy being simulated.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The current grid (with holes).
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The schedule currently being executed.
    pub fn compiled(&self) -> &CompiledCircuit {
        &self.compiled
    }

    /// SWAPs the reroute fixup currently adds to every shot.
    pub fn extra_swaps(&self) -> u32 {
        self.extra_swaps
    }

    /// Multiplicative success penalty of the current fixup SWAPs
    /// (each SWAP is three two-qubit gates of success `p2`).
    pub fn swap_penalty(&self, p2: f64) -> f64 {
        p2.powi(3 * self.extra_swaps as i32)
    }

    /// Physical atoms the program currently occupies (addresses
    /// resolved through the virtual map) — the measured set.
    pub fn measured_sites(&self) -> Vec<Site> {
        self.used_addresses
            .iter()
            .map(|&a| self.vmap.resolve(a))
            .collect()
    }

    /// Writes the measured set as a flat-index mask over the grid
    /// (`mask[i]` ⇔ the program occupies the site with flat index
    /// `i`), reusing the caller's buffer. The campaign executor feeds
    /// this to [`crate::LossModel::draw_losses_with`] every shot
    /// instead of materializing a `Vec<Site>` and scanning it per
    /// site.
    pub fn write_measured_mask(&self, mask: &mut Vec<bool>) {
        mask.clear();
        mask.resize(self.grid.num_sites(), false);
        for &a in &self.used_addresses {
            mask[self.grid.flat_index(self.vmap.resolve(a))] = true;
        }
    }

    /// `true` if losing the atom at `site` would interfere with the
    /// program as currently mapped.
    ///
    /// `used_addresses` stays in the sorted order
    /// [`CompiledCircuit::used_sites`] produces, so membership is a
    /// binary search (this runs once per drawn loss, every shot).
    pub fn is_interfering(&self, site: Site) -> bool {
        let address = if self.strategy.remaps() {
            self.vmap.address_of(site)
        } else {
            site
        };
        self.used_addresses.binary_search(&address).is_ok()
    }

    /// Removes the atom at `site` and lets the strategy react.
    ///
    /// On [`LossOutcome::NeedsReload`] the grid keeps the hole; the
    /// caller chooses between [`StrategyState::reload`] and stopping.
    ///
    /// # Panics
    ///
    /// Panics if `site` has no atom.
    pub fn apply_loss(&mut self, site: Site) -> LossOutcome {
        assert!(self.grid.is_usable(site), "no atom at {site}");
        let interfering = self.is_interfering(site);
        self.grid.remove_atom(site);
        if !interfering {
            return LossOutcome::Spare;
        }
        match self.strategy {
            Strategy::AlwaysReload => LossOutcome::NeedsReload,
            Strategy::FullRecompile => {
                let span = na_telemetry::span_timed(Span::Recompile);
                // Recompile through the same passes as the compile
                // path, against the live holey grid. The holes change
                // the grid fingerprint, so full front-end artifacts
                // cannot be reused — but lowering never reads the
                // grid, so the per-campaign store serves the
                // schedule's lowered circuit (pre-seeded at
                // construction) instead of re-lowering per loss event.
                // Bit-identical by the artifact-reuse contract; the
                // campaign digests pin it.
                match run_passes(
                    &self.program,
                    &self.grid,
                    &self.compiler_config,
                    &mut self.placement_scratch,
                    Reuse::Lowering(&self.artifacts),
                    false,
                    None,
                ) {
                    Ok(c) => {
                        self.used_addresses = c.used_sites().to_vec();
                        self.summary = Arc::new(InteractionSummary::of(&c));
                        self.compiled = Arc::new(c);
                        let ns = span.end();
                        na_telemetry::add(na_telemetry::Counter::Recompiles, 1);
                        LossOutcome::Recompiled {
                            compile_seconds: ns as f64 / 1e9,
                        }
                    }
                    Err(_) => LossOutcome::NeedsReload,
                }
            }
            _ => self.apply_remap_loss(site),
        }
    }

    fn apply_remap_loss(&mut self, site: Site) -> LossOutcome {
        // `used_addresses` stays sorted (the `used_sites` contract), so
        // membership is a binary search over a borrow — no clone of the
        // list per interfering loss.
        let remap_span = na_telemetry::span(Span::Remap);
        let used = &self.used_addresses;
        let in_use = |addr: Site| used.binary_search(&addr).is_ok();
        let Some(dir) = self.vmap.best_shift_direction(&self.grid, site, &in_use) else {
            return LossOutcome::NeedsReload;
        };
        if self
            .vmap
            .shift_from_with(&self.grid, site, dir, &in_use, &mut self.shift_scratch)
            .is_err()
        {
            return LossOutcome::NeedsReload;
        }
        drop(remap_span);
        na_telemetry::add(na_telemetry::Counter::Remaps, 1);
        if self.strategy.reroutes() {
            let fixup_span = na_telemetry::span(Span::LossFixup);
            let expansions_before = self.fixup_scratch.expansions();
            let fixup = fixup_swaps_summary(
                &self.summary,
                &self.vmap,
                &self.full_graph,
                self.grid.usable_mask(),
                self.hardware_mid,
                &mut self.fixup_scratch,
            );
            drop(fixup_span);
            na_telemetry::add(na_telemetry::Counter::Fixups, 1);
            na_telemetry::add(
                na_telemetry::Counter::FixupBfsExpansions,
                self.fixup_scratch.expansions() - expansions_before,
            );
            match fixup {
                Some(n) => {
                    if let Some(budget) = self.max_fixup_swaps {
                        if n > budget {
                            return LossOutcome::NeedsReload;
                        }
                    }
                    self.extra_swaps = n;
                    LossOutcome::Tolerated {
                        remaps: 1,
                        refixed: true,
                    }
                }
                None => LossOutcome::NeedsReload,
            }
        } else {
            let _span = na_telemetry::span(Span::LossFixup);
            if resolved_ok_summary(&self.summary, &self.vmap, &self.grid, self.hardware_mid) {
                LossOutcome::Tolerated {
                    remaps: 1,
                    refixed: false,
                }
            } else {
                LossOutcome::NeedsReload
            }
        }
    }

    /// Reloads the array: full grid, identity map, no fixup SWAPs, and
    /// (for FullRecompile) the original schedule.
    pub fn reload(&mut self) {
        self.grid = self.grid_template.clone();
        self.vmap.reset();
        self.extra_swaps = 0;
        if self.strategy == Strategy::FullRecompile {
            self.compiled = Arc::clone(&self.original);
            self.used_addresses = self.compiled.used_sites().to_vec();
            self.summary = Arc::new(InteractionSummary::of(&self.compiled));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use na_benchmarks::Benchmark;

    fn state(strategy: Strategy, mid: f64) -> StrategyState {
        let program = Benchmark::Bv.generate(20, 0);
        let grid = Grid::new(10, 10);
        StrategyState::new(&program, &grid, mid, strategy, None).unwrap()
    }

    fn first_spare(s: &StrategyState) -> Site {
        s.grid()
            .usable_sites()
            .find(|&site| !s.is_interfering(site))
            .expect("spare exists")
    }

    fn first_used(s: &StrategyState) -> Site {
        s.grid()
            .usable_sites()
            .find(|&site| s.is_interfering(site))
            .expect("used site exists")
    }

    #[test]
    fn spare_loss_is_free_for_every_strategy() {
        for strategy in Strategy::ALL {
            let mut s = state(strategy, 3.0);
            let spare = first_spare(&s);
            assert_eq!(s.apply_loss(spare), LossOutcome::Spare, "{strategy}");
            assert_eq!(s.extra_swaps(), 0);
        }
    }

    #[test]
    fn always_reload_reloads_on_first_interfering_loss() {
        let mut s = state(Strategy::AlwaysReload, 3.0);
        let used = first_used(&s);
        assert_eq!(s.apply_loss(used), LossOutcome::NeedsReload);
        s.reload();
        assert_eq!(s.grid().num_holes(), 0);
    }

    #[test]
    fn recompile_absorbs_and_produces_valid_schedule() {
        let mut s = state(Strategy::FullRecompile, 3.0);
        let used = first_used(&s);
        match s.apply_loss(used) {
            LossOutcome::Recompiled { compile_seconds } => {
                assert!(compile_seconds >= 0.0);
                na_core::verify(s.compiled(), s.grid()).expect("recompiled schedule valid");
            }
            other => panic!("expected recompile, got {other:?}"),
        }
    }

    #[test]
    fn virtual_remap_tolerates_then_measures_elsewhere() {
        let mut s = state(Strategy::VirtualRemap, 5.0);
        let before = s.measured_sites();
        let used = first_used(&s);
        match s.apply_loss(used) {
            LossOutcome::Tolerated { remaps, refixed } => {
                assert_eq!(remaps, 1);
                assert!(!refixed);
                let after = s.measured_sites();
                assert_ne!(before, after, "mapping must shift");
                assert!(!after.contains(&used), "nobody measures the hole");
                for m in &after {
                    assert!(s.grid().is_usable(*m));
                }
            }
            LossOutcome::NeedsReload => {} // possible at tight MID
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reroute_reports_fixup_swaps() {
        let mut s = state(Strategy::MinorReroute, 2.0);
        // Lose in-use atoms until a fixup appears or reload is needed.
        for _ in 0..40 {
            let used = first_used(&s);
            match s.apply_loss(used) {
                LossOutcome::Tolerated { refixed, .. } => {
                    assert!(refixed);
                    if s.extra_swaps() > 0 {
                        assert!(s.swap_penalty(0.99) < 1.0);
                        return;
                    }
                }
                LossOutcome::NeedsReload => return,
                other => panic!("unexpected {other:?}"),
            }
        }
        panic!("neither fixup nor reload after 40 losses");
    }

    #[test]
    fn swap_budget_forces_reload() {
        let program = Benchmark::Bv.generate(20, 0);
        let grid = Grid::new(10, 10);
        let mut s =
            StrategyState::new(&program, &grid, 2.0, Strategy::MinorReroute, Some(0)).unwrap();
        // With a zero budget, the first fixup that needs any SWAP must
        // reload; keep losing until that happens.
        for _ in 0..60 {
            let used = first_used(&s);
            match s.apply_loss(used) {
                LossOutcome::NeedsReload => {
                    assert_eq!(s.extra_swaps(), 0);
                    return;
                }
                LossOutcome::Tolerated { .. } => assert_eq!(s.extra_swaps(), 0),
                other => panic!("unexpected {other:?}"),
            }
        }
        panic!("budget never exceeded");
    }

    #[test]
    fn reload_restores_everything() {
        let mut s = state(Strategy::CompileSmallReroute, 4.0);
        for _ in 0..5 {
            let used = first_used(&s);
            if s.apply_loss(used) == LossOutcome::NeedsReload {
                break;
            }
        }
        s.reload();
        assert_eq!(s.grid().num_holes(), 0);
        assert_eq!(s.extra_swaps(), 0);
        let measured = s.measured_sites();
        assert_eq!(measured, s.compiled().used_sites());
    }

    #[test]
    fn remap_membership_binary_search_matches_linear_contains() {
        // `apply_remap_loss` switched from cloning `used_addresses`
        // and scanning it linearly to borrowing it and binary
        // searching; sound because `used_sites` is sorted and deduped.
        // Check the precondition and the predicate equivalence over
        // the whole device.
        let s = state(Strategy::CompileSmallReroute, 4.0);
        let used = &s.used_addresses;
        assert!(
            used.windows(2).all(|w| w[0] < w[1]),
            "used_addresses must be sorted and unique"
        );
        for site in s.grid().sites() {
            let addr = s.vmap.address_of(site);
            assert_eq!(
                used.contains(&addr),
                used.binary_search(&addr).is_ok(),
                "membership predicates diverge at {site}"
            );
        }
    }

    #[test]
    fn state_costing_matches_reference_through_loss_sequences() {
        // Differential check on the live state machine: every
        // tolerated loss's recorded outcome must agree with the
        // retained per-op reference costing recomputed on the current
        // holey grid and virtual map.
        use crate::reroute::{fixup_swaps_with, resolved_ok};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC057);
        let mut scratch = BfsScratch::new();
        for strategy in [
            Strategy::VirtualRemap,
            Strategy::CompileSmall,
            Strategy::MinorReroute,
            Strategy::CompileSmallReroute,
        ] {
            let mut s = state(strategy, 3.0);
            for _ in 0..30 {
                let usable: Vec<Site> = s.grid().usable_sites().collect();
                let victim = usable[rng.gen_range(0..usable.len())];
                match s.apply_loss(victim) {
                    LossOutcome::Tolerated { .. } => {
                        if strategy.reroutes() {
                            assert_eq!(
                                fixup_swaps_with(
                                    &s.compiled,
                                    &s.vmap,
                                    &s.grid,
                                    s.hardware_mid,
                                    &mut scratch,
                                ),
                                Some(s.extra_swaps()),
                                "{strategy}: fixup cost diverged from reference"
                            );
                        } else {
                            assert!(
                                resolved_ok(&s.compiled, &s.vmap, &s.grid, s.hardware_mid),
                                "{strategy}: tolerated a loss the reference rejects"
                            );
                        }
                    }
                    LossOutcome::NeedsReload => break,
                    LossOutcome::Spare => {}
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn compile_small_compiles_tighter() {
        let s = state(Strategy::CompileSmall, 4.0);
        assert_eq!(s.compiled().config().mid, 3.0);
        let s2 = state(Strategy::VirtualRemap, 4.0);
        assert_eq!(s2.compiled().config().mid, 4.0);
    }
}
