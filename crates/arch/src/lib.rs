//! Hardware model for neutral-atom (NA) quantum devices.
//!
//! The paper models an NA device as a regular 2D grid of optically
//! trapped atoms with three architectural properties (paper §III-A):
//!
//! * **long-range interactions** — two atoms can interact iff their
//!   Euclidean distance is at most the *maximum interaction distance*
//!   (MID), so the effective topology is a unit-disc graph over the grid;
//! * **restriction zones** — an interaction at pairwise max distance `d`
//!   blocks all atoms within radius `f(d) = d/2` of any operand for its
//!   duration; two gates may run in parallel only if their zones do not
//!   intersect;
//! * **atom loss** — traps are weak, so atoms vanish between (and
//!   during) shots, leaving *holes* in the grid.
//!
//! This crate provides:
//!
//! * [`Site`] — integer grid coordinates with Euclidean geometry;
//! * [`Grid`] — the atom array: dimensions, holes (exposed as a
//!   flat-index [`Grid::usable_mask`]) and in-range checks;
//! * [`InteractionGraph`] — the unit-disc graph of one grid size at one
//!   MID, shared by every hole pattern: neighbor lists, hop distances
//!   and forced hops, each taking the hole mask;
//! * [`RestrictionPolicy`] / [`RestrictionZone`] — the parallelism
//!   predicate;
//! * [`VirtualMap`] — the hardware address-indirection table behind the
//!   virtual-remapping loss strategy (a ~40 ns lookup-table update in
//!   hardware, borrowed from DRAM sparing).

pub mod assembly;
pub mod geometry;
pub mod grid;
pub mod interaction;
pub mod restriction;
pub mod vmap;

pub use assembly::{AssemblyParams, AssemblyReport, AssemblySimulator};
pub use geometry::{BBox, Direction, Site};
pub use grid::Grid;
pub use interaction::{BfsScratch, InteractionGraph};
pub use restriction::{RestrictionPolicy, RestrictionZone};
pub use vmap::{NoSpareError, ShiftScratch, VirtualMap};
