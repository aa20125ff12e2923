//! Overhead timing constants and the per-campaign ledger.

use serde::{Deserialize, Serialize};

/// How recompilation time is charged.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RecompileCost {
    /// Charge the wall-clock time the Rust compiler actually takes.
    /// (Orders of magnitude below the paper's Python compiler.)
    Measured,
    /// Charge a fixed duration in seconds; `Fixed(1.5)` reproduces the
    /// paper's observation that software recompilation exceeds the
    /// 0.3 s array reload.
    Fixed(f64),
}

/// Hardware overhead durations (paper §VI, Fig. 14).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadTimes {
    /// Full array reload: ~0.3 s (atom loading is slow).
    pub reload: f64,
    /// Fluorescence imaging to detect loss: ~6 ms per shot.
    pub fluorescence: f64,
    /// Virtual-remap lookup-table update: ~40 ns.
    pub remap: f64,
    /// Computing a reroute fixup: ~81 µs (the "20+61 µs circuit fixup"
    /// of Fig. 14).
    pub fixup: f64,
    /// Recompilation cost model.
    pub recompile: RecompileCost,
}

impl Default for OverheadTimes {
    fn default() -> Self {
        OverheadTimes {
            reload: 0.3,
            fluorescence: 6e-3,
            remap: 40e-9,
            fixup: 81e-6,
            recompile: RecompileCost::Measured,
        }
    }
}

impl OverheadTimes {
    /// Replaces the reload constant with a value derived from the
    /// atom-by-atom assembly physics of
    /// [`na_arch::AssemblySimulator`]: mean defect-free assembly time
    /// of a `width × height` array with the given reservoir margin.
    ///
    /// This closes the loop the paper leaves open — its 0.3 s constant
    /// becomes an output of loading probability, tweezer move time,
    /// and retry statistics.
    pub fn with_derived_reload(mut self, width: u32, height: u32, margin: u32, seed: u64) -> Self {
        let mut sim = na_arch::AssemblySimulator::with_defaults(seed);
        self.reload = sim.mean_reload_time(width, height, margin, 10);
        self
    }
}

/// Counts and accumulated seconds of every overhead source in a
/// campaign.
///
/// Counts are `u64` so a 10⁶–10⁸-shot streaming campaign (and the sum
/// over its shards) can never wrap; per-shard ledgers fold together
/// with [`OverheadLedger::merge_from`] in shard-index order.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OverheadLedger {
    /// Array reloads performed.
    pub reloads: u64,
    /// Fluorescence detections performed (one per shot).
    pub fluorescences: u64,
    /// Virtual-remap table updates.
    pub remaps: u64,
    /// Reroute fixup computations.
    pub fixups: u64,
    /// Full recompilations.
    pub recompiles: u64,
    /// Seconds spent reloading.
    pub reload_time: f64,
    /// Seconds spent fluorescing.
    pub fluorescence_time: f64,
    /// Seconds spent updating remap tables.
    pub remap_time: f64,
    /// Seconds spent computing fixups.
    pub fixup_time: f64,
    /// Seconds spent recompiling.
    pub recompile_time: f64,
    /// Seconds spent actually running circuits.
    pub circuit_time: f64,
}

impl OverheadLedger {
    /// Records one reload.
    pub fn add_reload(&mut self, times: &OverheadTimes) {
        self.reloads += 1;
        self.reload_time += times.reload;
    }

    /// Records one fluorescence detection.
    pub fn add_fluorescence(&mut self, times: &OverheadTimes) {
        self.fluorescences += 1;
        self.fluorescence_time += times.fluorescence;
    }

    /// Records one remap-table update.
    pub fn add_remap(&mut self, times: &OverheadTimes) {
        self.remaps += 1;
        self.remap_time += times.remap;
    }

    /// Records one reroute fixup computation.
    pub fn add_fixup(&mut self, times: &OverheadTimes) {
        self.fixups += 1;
        self.fixup_time += times.fixup;
    }

    /// Records one recompilation of measured duration `measured_secs`
    /// and returns the seconds charged for it (`times.recompile`
    /// decides whether that is the measurement or a fixed cost).
    pub fn add_recompile(&mut self, times: &OverheadTimes, measured_secs: f64) -> f64 {
        let charged = match times.recompile {
            RecompileCost::Measured => measured_secs,
            RecompileCost::Fixed(t) => t,
        };
        self.recompiles += 1;
        self.recompile_time += charged;
        charged
    }

    /// Records circuit-execution time.
    pub fn add_circuit(&mut self, secs: f64) {
        self.circuit_time += secs;
    }

    /// Total overhead seconds (everything except running the circuit).
    pub fn overhead_time(&self) -> f64 {
        self.reload_time
            + self.fluorescence_time
            + self.remap_time
            + self.fixup_time
            + self.recompile_time
    }

    /// Folds another shard's ledger into this one: counts add exactly;
    /// the accumulated seconds add in call order, so callers must fold
    /// shards in shard-index order for a deterministic float result
    /// (the same fold-order contract as the telemetry Recorder merge).
    pub fn merge_from(&mut self, other: &OverheadLedger) {
        self.reloads += other.reloads;
        self.fluorescences += other.fluorescences;
        self.remaps += other.remaps;
        self.fixups += other.fixups;
        self.recompiles += other.recompiles;
        self.reload_time += other.reload_time;
        self.fluorescence_time += other.fluorescence_time;
        self.remap_time += other.remap_time;
        self.fixup_time += other.fixup_time;
        self.recompile_time += other.recompile_time;
        self.circuit_time += other.circuit_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let t = OverheadTimes::default();
        assert!((t.reload - 0.3).abs() < 1e-12);
        assert!((t.fluorescence - 6e-3).abs() < 1e-12);
        assert!((t.remap - 40e-9).abs() < 1e-15);
        assert_eq!(t.recompile, RecompileCost::Measured);
    }

    #[test]
    fn ledger_accumulates() {
        let t = OverheadTimes::default();
        let mut l = OverheadLedger::default();
        l.add_reload(&t);
        l.add_reload(&t);
        l.add_fluorescence(&t);
        l.add_remap(&t);
        l.add_fixup(&t);
        l.add_circuit(1e-3);
        assert_eq!(l.reloads, 2);
        assert!((l.reload_time - 0.6).abs() < 1e-12);
        assert!((l.overhead_time() - (0.6 + 6e-3 + 40e-9 + 81e-6)).abs() < 1e-12);
        assert!((l.circuit_time - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn derived_reload_is_near_the_paper_constant() {
        let t = OverheadTimes::default().with_derived_reload(10, 10, 3, 1);
        assert!(
            (0.2..0.5).contains(&t.reload),
            "derived reload {} s far from 0.3 s",
            t.reload
        );
        // Only the reload field changes.
        assert_eq!(t.fluorescence, OverheadTimes::default().fluorescence);
    }

    #[test]
    fn recompile_cost_models() {
        let mut fixed = OverheadLedger::default();
        let t_fixed = OverheadTimes {
            recompile: RecompileCost::Fixed(1.5),
            ..OverheadTimes::default()
        };
        fixed.add_recompile(&t_fixed, 0.001);
        assert!((fixed.recompile_time - 1.5).abs() < 1e-12);

        let mut measured = OverheadLedger::default();
        measured.add_recompile(&OverheadTimes::default(), 0.001);
        assert!((measured.recompile_time - 0.001).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts_and_times() {
        let t = OverheadTimes::default();
        let mut a = OverheadLedger::default();
        a.add_reload(&t);
        a.add_fluorescence(&t);
        a.add_circuit(1e-3);
        let mut b = OverheadLedger::default();
        b.add_reload(&t);
        b.add_remap(&t);
        b.add_fixup(&t);
        b.add_recompile(&t, 0.02);
        b.add_circuit(2e-3);

        a.merge_from(&b);
        assert_eq!(a.reloads, 2);
        assert_eq!(a.fluorescences, 1);
        assert_eq!(a.remaps, 1);
        assert_eq!(a.fixups, 1);
        assert_eq!(a.recompiles, 1);
        assert!((a.reload_time - 0.6).abs() < 1e-12);
        assert!((a.circuit_time - 3e-3).abs() < 1e-12);
        assert!((a.recompile_time - 0.02).abs() < 1e-12);

        // Merging an empty ledger is the identity.
        let snapshot = a;
        a.merge_from(&OverheadLedger::default());
        assert_eq!(a, snapshot);
    }
}
