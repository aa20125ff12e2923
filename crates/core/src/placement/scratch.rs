//! Reusable working memory for a whole compile.

use super::candidates::FreeSites;
use crate::scheduler::ScheduleScratch;
use na_arch::Site;

/// The working memory of a compile, carried through [`crate::compile`]
/// and reusable across compilations: placement's free-site list and
/// mapped-partner buffer, and every buffer of the scheduler
/// ([`crate::scheduler`]'s "Hot-path layout": its lookahead weights and
/// rebuild buffers, the frontier's per-gate state, the per-step
/// buffers, the zone and BFS scratch and the cycle check's anchor).
///
/// Every compile re-arms each buffer it reads before reading it, so
/// what an earlier compile left behind — finished, failed or unwound —
/// never reaches its output: a reused scratch compiles exactly what a
/// fresh one does, it just allocates less. Held by the experiment
/// engine's workers (one per thread) and by each loss state for its
/// recompiles.
///
/// # Example
///
/// ```
/// use na_arch::Grid;
/// use na_circuit::{Circuit, Qubit};
/// use na_core::{compile_with, CompilerConfig, PlacementScratch};
///
/// let mut scratch = PlacementScratch::new();
/// let grid = Grid::new(6, 6);
/// let mut c = Circuit::new(2);
/// c.cnot(Qubit(0), Qubit(1));
/// // Repeated compiles share the scratch's buffers.
/// for _ in 0..2 {
///     compile_with(&c, &grid, &CompilerConfig::new(2.0), &mut scratch)?;
/// }
/// # Ok::<(), na_core::CompileError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct PlacementScratch {
    /// Free usable sites, shrinking as placement claims them.
    pub(super) free: FreeSites,
    /// Mapped-partner `(site, weight)` buffer of the site scan.
    pub(super) partners: Vec<(Site, f64)>,
    /// The scheduler's buffers.
    pub(crate) schedule: ScheduleScratch,
}

impl PlacementScratch {
    /// Fresh scratch; buffers grow on first use.
    pub fn new() -> Self {
        PlacementScratch::default()
    }
}
