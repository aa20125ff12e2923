//! Virtual address remapping for atom-loss recovery.
//!
//! The *virtual remapping* strategy (paper §VI, Fig. 9b) borrows from
//! DRAM sparing: instead of physically refilling a lost trap, a hardware
//! lookup table redirects each program-facing *address* to a possibly
//! different physical trap. Updating the table takes ~40 ns, versus
//! ~0.3 s for an array reload. When an in-use atom is lost, the
//! addresses from the hole to the device edge shift one usable atom
//! outward, absorbing a spare.

use crate::{Direction, Grid, Site};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Sentinel in the flat tables for "identity at this index".
const NONE: u32 = u32::MAX;

/// Error returned by [`VirtualMap::shift_from_with`] when no spare capacity
/// exists in the requested direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoSpareError {
    /// The direction that was attempted.
    pub direction: Direction,
}

impl fmt::Display for NoSpareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no spare atom toward {} to absorb the shift",
            self.direction
        )
    }
}

impl Error for NoSpareError {}

/// Reusable working memory for [`VirtualMap::shift_from_with`].
///
/// One shift needs four small ordered lists (the in-use addresses on
/// the ray, the absorbing targets, the freed traps, and the displaced
/// unused addresses) plus the change list it reports. The campaign
/// shot loop costs one shift per interfering loss; holding the
/// buffers in the caller's strategy state instead of allocating them
/// per call removes the last allocations on that path. The buffers
/// are plain state — reuse changes nothing about the shift itself
/// (the campaign digest tests pin this).
#[derive(Debug, Clone, Default)]
pub struct ShiftScratch {
    shifted: Vec<Site>,
    targets: Vec<Site>,
    freed: Vec<Site>,
    displaced: Vec<Site>,
    changes: Vec<(Site, Site)>,
}

impl ShiftScratch {
    /// Empty scratch; buffers grow on first use and are retained.
    pub fn new() -> Self {
        ShiftScratch::default()
    }

    /// The `(address, new_physical)` pairs changed by the most recent
    /// successful [`VirtualMap::shift_from_with`].
    pub fn changes(&self) -> &[(Site, Site)] {
        &self.changes
    }
}

/// A bijective indirection table from program-facing addresses to
/// physical trap sites.
///
/// Both sides of the mapping are [`Site`]s: an *address* is the location
/// the compiled program believes a qubit occupies; the map resolves it
/// to the trap that actually holds the atom. A fresh map is the
/// identity.
///
/// Both directions are dense flat `Vec`s indexed by the grid's
/// row-major flat site index (the `QubitMap` layout), sized lazily on
/// the first [`VirtualMap::shift_from_with`]: `resolve`/`address_of` are
/// O(1) loads on the loss executor's hottest paths (per-shot measured
/// sets, interference checks, fixup costing) instead of `HashMap`
/// probes. Sites outside the adopted grid always resolve to
/// themselves, matching the old sparse-map behavior.
///
/// # Example
///
/// ```
/// use na_arch::{Direction, Grid, ShiftScratch, Site, VirtualMap};
///
/// let mut grid = Grid::new(5, 1);
/// let mut vmap = VirtualMap::new();
/// let mut scratch = ShiftScratch::new();
/// // Program uses addresses (0,0) and (1,0); (2..4,0) are spares.
/// grid.remove_atom(Site::new(1, 0));
/// let in_use = |a: Site| a.x <= 1 && a.y == 0;
/// vmap.shift_from_with(&grid, Site::new(1, 0), Direction::East, &in_use, &mut scratch)
///     .unwrap();
/// assert_eq!(vmap.resolve(Site::new(1, 0)), Site::new(2, 0));
/// assert_eq!(vmap.resolve(Site::new(0, 0)), Site::new(0, 0));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct VirtualMap {
    width: u32,
    height: u32,
    /// `fwd[flat(addr)]` is the flat index of the physical trap, or
    /// [`NONE`] for identity.
    fwd: Vec<u32>,
    /// `inv[flat(phys)]` is the flat index of the address, or [`NONE`].
    inv: Vec<u32>,
}

impl PartialEq for VirtualMap {
    /// Two maps are equal iff they represent the same indirection:
    /// the same ordered non-identity `address → physical` pairs,
    /// compared as sites so the adopted dimensions don't matter. An
    /// unsized fresh map equals a sized map that was reset.
    fn eq(&self, other: &Self) -> bool {
        let as_sites = |v: &Self, (a, p): (usize, u32)| (v.site_of(a), v.site_of(p as usize));
        self.non_identity_entries()
            .map(|e| as_sites(self, e))
            .eq(other.non_identity_entries().map(|e| as_sites(other, e)))
    }
}

impl VirtualMap {
    /// Creates an identity map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Flat index of `site`, if it lies within the adopted grid.
    #[inline]
    fn index_of(&self, site: Site) -> Option<usize> {
        if site.x >= 0
            && site.y >= 0
            && (site.x as u32) < self.width
            && (site.y as u32) < self.height
        {
            Some(site.y as usize * self.width as usize + site.x as usize)
        } else {
            None
        }
    }

    /// The site of a flat index within the adopted grid.
    #[inline]
    fn site_of(&self, index: usize) -> Site {
        Site::new(
            (index % self.width as usize) as i32,
            (index / self.width as usize) as i32,
        )
    }

    /// Non-identity `(address index, physical index)` pairs, ascending
    /// in address index.
    fn non_identity_entries(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.fwd
            .iter()
            .enumerate()
            .filter(|&(i, &p)| p != NONE && p as usize != i)
            .map(|(i, &p)| (i, p))
    }

    /// Adopts `grid`'s dimensions on first use.
    ///
    /// # Panics
    ///
    /// Panics if the map was already sized for a different device.
    fn ensure_sized(&mut self, grid: &Grid) {
        if self.width == 0 {
            self.width = grid.width();
            self.height = grid.height();
            self.fwd = vec![NONE; grid.num_sites()];
            self.inv = vec![NONE; grid.num_sites()];
            return;
        }
        assert!(
            self.width == grid.width() && self.height == grid.height(),
            "virtual map sized for {}x{} used with a {}x{} grid",
            self.width,
            self.height,
            grid.width(),
            grid.height()
        );
    }

    /// The physical trap an address currently resolves to.
    #[inline]
    pub fn resolve(&self, addr: Site) -> Site {
        match self.index_of(addr) {
            Some(i) => match self.fwd[i] {
                NONE => addr,
                p => self.site_of(p as usize),
            },
            None => addr,
        }
    }

    /// The address currently resolving to a physical trap.
    #[inline]
    pub fn address_of(&self, phys: Site) -> Site {
        match self.index_of(phys) {
            Some(i) => match self.inv[i] {
                NONE => phys,
                a => self.site_of(a as usize),
            },
            None => phys,
        }
    }

    /// `true` if no address has been remapped.
    pub fn is_identity(&self) -> bool {
        self.non_identity_entries().next().is_none()
    }

    /// Resets to the identity (used after an array reload), keeping
    /// the flat tables allocated.
    pub fn reset(&mut self) {
        self.fwd.fill(NONE);
        self.inv.fill(NONE);
    }

    fn set(&mut self, addr: Site, phys: Site) {
        let ai = self.index_of(addr).expect("address on the adopted grid");
        let pi = self.index_of(phys).expect("trap on the adopted grid");
        self.fwd[ai] = pi as u32;
        self.inv[pi] = ai as u32;
    }

    /// Shifts addresses away from a lost atom, absorbing one spare.
    ///
    /// `lost_phys` is the trap whose atom was just lost (the caller must
    /// already have called [`Grid::remove_atom`]). Every in-use address
    /// whose atom lies on the ray from `lost_phys` to the device edge in
    /// `dir` is reassigned to the next usable atoms along that ray, in
    /// order; displaced unused addresses rotate back onto the freed
    /// traps so the map stays a bijection.
    ///
    /// `in_use_addr` reports whether an *address* is used by the
    /// compiled program. `scratch` is caller-held working memory, so
    /// the campaign shot loop shifts once per interfering loss without
    /// allocating.
    ///
    /// Returns the number of changed addresses; the `(address,
    /// new_physical)` pairs are in [`ShiftScratch::changes`].
    ///
    /// # Errors
    ///
    /// Returns [`NoSpareError`] if the usable atoms toward the edge
    /// cannot absorb the shifted addresses; the caller must then fall
    /// back to an array reload.
    pub fn shift_from_with(
        &mut self,
        grid: &Grid,
        lost_phys: Site,
        dir: Direction,
        in_use_addr: &dyn Fn(Site) -> bool,
        scratch: &mut ShiftScratch,
    ) -> Result<usize, NoSpareError> {
        self.ensure_sized(grid);
        let ShiftScratch {
            shifted,
            targets,
            freed,
            displaced,
            changes,
        } = scratch;
        shifted.clear();
        targets.clear();
        freed.clear();
        displaced.clear();
        changes.clear();

        // In-use addresses whose atom sits on the ray from the hole
        // (inclusive) to the device edge, in ray order. The ray is
        // walked directly — it never needs materializing.
        let mut cur = lost_phys;
        while grid.contains(cur) {
            if cur == lost_phys || grid.is_usable(cur) {
                let addr = self.address_of(cur);
                if in_use_addr(addr) {
                    shifted.push(addr);
                }
            }
            cur = cur.step(dir);
        }
        if shifted.is_empty() {
            return Ok(0);
        }

        // Usable atoms strictly beyond the hole, in ray order; only
        // the first `shifted.len()` are consumed.
        let mut cur = lost_phys.step(dir);
        while grid.contains(cur) {
            if grid.is_usable(cur) {
                targets.push(cur);
            }
            cur = cur.step(dir);
        }
        if targets.len() < shifted.len() {
            return Err(NoSpareError { direction: dir });
        }
        targets.truncate(shifted.len());

        // Old homes freed by the shift (starting at the hole itself).
        freed.extend(shifted.iter().map(|&a| self.resolve(a)));

        // Unused addresses displaced from consumed targets rotate onto
        // freed traps, keeping the map bijective.
        displaced.extend(
            targets
                .iter()
                .map(|&t| self.address_of(t))
                .filter(|a| !shifted.contains(a)),
        );

        for (&addr, &target) in shifted.iter().zip(targets.iter()) {
            if self.resolve(addr) != target {
                self.set(addr, target);
                changes.push((addr, target));
            }
        }
        let reclaimed = freed.iter().filter(|p| !targets.contains(p));
        for (&addr, &phys) in displaced.iter().zip(reclaimed) {
            self.set(addr, phys);
        }
        Ok(changes.len())
    }

    /// Picks the cardinal direction with the most spare (usable but
    /// unused) atoms between `lost_phys` and the device edge, the
    /// paper's shift-direction heuristic. Returns `None` if no direction
    /// has a spare.
    pub fn best_shift_direction(
        &self,
        grid: &Grid,
        lost_phys: Site,
        in_use_addr: &dyn Fn(Site) -> bool,
    ) -> Option<Direction> {
        let mut best: Option<(usize, Direction)> = None;
        for dir in Direction::ALL {
            let mut spares = 0usize;
            let mut cur = lost_phys.step(dir);
            while grid.contains(cur) {
                if grid.is_usable(cur) && !in_use_addr(self.address_of(cur)) {
                    spares += 1;
                }
                cur = cur.step(dir);
            }
            if spares > 0 && best.is_none_or(|(s, _)| spares > s) {
                best = Some((spares, dir));
            }
        }
        best.map(|(_, d)| d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    /// One shift through a fresh scratch, returning the changed pairs.
    fn shift(
        v: &mut VirtualMap,
        grid: &Grid,
        lost: Site,
        dir: Direction,
        in_use: &dyn Fn(Site) -> bool,
    ) -> Result<Vec<(Site, Site)>, NoSpareError> {
        let mut scratch = ShiftScratch::new();
        v.shift_from_with(grid, lost, dir, in_use, &mut scratch)?;
        Ok(scratch.changes().to_vec())
    }

    fn assert_bijective(vmap: &VirtualMap, grid: &Grid) {
        let mut seen = HashSet::new();
        for addr in grid.sites() {
            let p = vmap.resolve(addr);
            assert!(seen.insert(p), "two addresses resolve to {p}");
            assert_eq!(vmap.address_of(p), addr, "inverse inconsistent at {p}");
        }
    }

    #[test]
    fn fresh_map_is_identity() {
        let v = VirtualMap::new();
        assert!(v.is_identity());
        assert_eq!(v.resolve(Site::new(3, 4)), Site::new(3, 4));
        assert_eq!(v.address_of(Site::new(3, 4)), Site::new(3, 4));
    }

    #[test]
    fn shift_moves_addresses_over_the_hole() {
        // Row of 5; addresses (0..2,0) in use, (3..4,0) spare.
        let mut grid = Grid::new(5, 1);
        let mut v = VirtualMap::new();
        let in_use = |a: Site| a.y == 0 && a.x <= 2;
        grid.remove_atom(Site::new(1, 0));
        let changes = shift(&mut v, &grid, Site::new(1, 0), Direction::East, &in_use).unwrap();
        // Addresses 1 and 2 shift east by one.
        assert_eq!(v.resolve(Site::new(1, 0)), Site::new(2, 0));
        assert_eq!(v.resolve(Site::new(2, 0)), Site::new(3, 0));
        assert_eq!(v.resolve(Site::new(0, 0)), Site::new(0, 0));
        assert_eq!(changes.len(), 2);
        assert_bijective(&v, &grid);
        // No address in use resolves to the hole.
        for x in 0..=2 {
            assert_ne!(v.resolve(Site::new(x, 0)), Site::new(1, 0));
        }
    }

    #[test]
    fn shift_skips_preexisting_holes() {
        let mut grid = Grid::new(5, 1);
        let mut v = VirtualMap::new();
        let in_use = |a: Site| a.y == 0 && a.x <= 1;
        grid.remove_atom(Site::new(2, 0)); // spare hole
        grid.remove_atom(Site::new(1, 0)); // in-use atom lost
        shift(&mut v, &grid, Site::new(1, 0), Direction::East, &in_use).unwrap();
        // Address 1 skips the hole at x=2 and lands on x=3.
        assert_eq!(v.resolve(Site::new(1, 0)), Site::new(3, 0));
        assert_bijective(&v, &grid);
    }

    #[test]
    fn shift_without_spares_errors() {
        let mut grid = Grid::new(2, 1);
        let mut v = VirtualMap::new();
        let in_use = |_: Site| true; // whole device in use
        grid.remove_atom(Site::new(0, 0));
        let err = shift(&mut v, &grid, Site::new(0, 0), Direction::East, &in_use).unwrap_err();
        assert_eq!(err.direction, Direction::East);
        assert_eq!(
            err.to_string(),
            "no spare atom toward east to absorb the shift"
        );
    }

    #[test]
    fn shift_of_unused_atom_is_a_noop() {
        let mut grid = Grid::new(4, 1);
        let mut v = VirtualMap::new();
        let in_use = |a: Site| a == Site::new(0, 0);
        grid.remove_atom(Site::new(2, 0));
        let changes = shift(&mut v, &grid, Site::new(2, 0), Direction::East, &in_use).unwrap();
        assert!(changes.is_empty());
        assert!(v.is_identity());
    }

    #[test]
    fn second_loss_composes_with_first() {
        let mut grid = Grid::new(6, 1);
        let mut v = VirtualMap::new();
        let in_use = |a: Site| a.y == 0 && a.x <= 2;
        // First loss at x=1.
        grid.remove_atom(Site::new(1, 0));
        shift(&mut v, &grid, Site::new(1, 0), Direction::East, &in_use).unwrap();
        // Now address 1 -> (2,0), address 2 -> (3,0). Lose (3,0).
        grid.remove_atom(Site::new(3, 0));
        shift(&mut v, &grid, Site::new(3, 0), Direction::East, &in_use).unwrap();
        assert_eq!(v.resolve(Site::new(2, 0)), Site::new(4, 0));
        assert_eq!(v.resolve(Site::new(1, 0)), Site::new(2, 0));
        assert_bijective(&v, &grid);
    }

    #[test]
    fn best_direction_prefers_more_spares() {
        let grid = Grid::new(7, 1);
        let v = VirtualMap::new();
        // Program occupies x in 2..=4; one spare west (x 0..1 minus lost),
        // two east.
        let in_use = |a: Site| a.y == 0 && (2..=4).contains(&a.x);
        let dir = v
            .best_shift_direction(&grid, Site::new(3, 0), &in_use)
            .unwrap();
        assert_eq!(dir, Direction::East);
    }

    #[test]
    fn best_direction_none_when_everything_used() {
        let grid = Grid::new(3, 1);
        let v = VirtualMap::new();
        let in_use = |_: Site| true;
        assert_eq!(
            v.best_shift_direction(&grid, Site::new(1, 0), &in_use),
            None
        );
    }

    #[test]
    fn out_of_grid_addresses_stay_identity() {
        // The flat tables cover only the adopted device; anything
        // outside resolves to itself, like the old sparse map.
        let mut grid = Grid::new(4, 1);
        let mut v = VirtualMap::new();
        let far = Site::new(100, -3);
        assert_eq!(v.resolve(far), far);
        assert_eq!(v.address_of(far), far);
        let in_use = |a: Site| a.x <= 1 && a.y == 0;
        grid.remove_atom(Site::new(0, 0));
        shift(&mut v, &grid, Site::new(0, 0), Direction::East, &in_use).unwrap();
        assert_eq!(v.resolve(far), far);
        assert_eq!(v.address_of(far), far);
    }

    #[test]
    fn reset_map_equals_fresh_map() {
        // Semantic equality: a sized-then-reset map and a fresh
        // (unsized) map are both the identity.
        let mut grid = Grid::new(4, 1);
        let mut v = VirtualMap::new();
        let in_use = |a: Site| a.x <= 1 && a.y == 0;
        grid.remove_atom(Site::new(0, 0));
        shift(&mut v, &grid, Site::new(0, 0), Direction::East, &in_use).unwrap();
        assert_ne!(v, VirtualMap::new());
        v.reset();
        assert_eq!(v, VirtualMap::new());
    }

    #[test]
    fn reset_restores_identity() {
        let mut grid = Grid::new(4, 1);
        let mut v = VirtualMap::new();
        let in_use = |a: Site| a.x <= 1 && a.y == 0;
        grid.remove_atom(Site::new(0, 0));
        shift(&mut v, &grid, Site::new(0, 0), Direction::East, &in_use).unwrap();
        assert!(!v.is_identity());
        v.reset();
        assert!(v.is_identity());
    }

    /// One reused scratch across a whole random loss sequence produces
    /// the same maps and the same change lists as the allocating form.
    #[test]
    fn prop_shift_with_scratch_matches_allocating_shift() {
        let mut rng = StdRng::seed_from_u64(23);
        for round in 0..24 {
            let mut grid = Grid::new(9, 3);
            let mut a = VirtualMap::new();
            let mut b = VirtualMap::new();
            let mut scratch = ShiftScratch::new();
            let in_use = |addr: Site| addr.x < 5;
            for _ in 0..rng.gen_range(1..8usize) {
                let lost = Site::new(rng.gen_range(0i32..9), rng.gen_range(0i32..3));
                if !grid.is_usable(lost) {
                    continue;
                }
                grid.remove_atom(lost);
                let dir = match a.best_shift_direction(&grid, lost, &in_use) {
                    Some(d) => d,
                    None => break,
                };
                let via_alloc = shift(&mut a, &grid, lost, dir, &in_use);
                let via_scratch = b.shift_from_with(&grid, lost, dir, &in_use, &mut scratch);
                match (via_alloc, via_scratch) {
                    (Ok(changes), Ok(n)) => {
                        assert_eq!(changes.len(), n, "round {round}");
                        assert_eq!(changes, scratch.changes(), "round {round}");
                    }
                    (Err(ea), Err(eb)) => {
                        assert_eq!(ea, eb, "round {round}");
                        break;
                    }
                    (x, y) => panic!("round {round}: diverged ({x:?} vs {y:?})"),
                }
                assert_eq!(a, b, "round {round}: maps diverged");
            }
        }
    }

    /// Random loss sequences keep the map bijective and never leave
    /// an in-use address resolving to a hole.
    #[test]
    fn prop_shift_preserves_bijection() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..32 {
            let mut grid = Grid::new(8, 4);
            let mut v = VirtualMap::new();
            // Program occupies the left half of the device.
            let in_use = |a: Site| a.x < 4;
            for _ in 0..rng.gen_range(1..6usize) {
                let lost = Site::new(rng.gen_range(0i32..8), rng.gen_range(0i32..4));
                if !grid.is_usable(lost) {
                    continue;
                }
                grid.remove_atom(lost);
                // Only shift when an in-use address lived there.
                if !in_use(v.address_of(lost)) {
                    continue;
                }
                if let Some(dir) = v.best_shift_direction(&grid, lost, &in_use) {
                    if shift(&mut v, &grid, lost, dir, &in_use).is_err() {
                        break;
                    }
                } else {
                    break;
                }
                assert_bijective(&v, &grid);
                for addr in grid.sites().filter(|&a| in_use(a)) {
                    assert!(
                        grid.is_usable(v.resolve(addr)),
                        "in-use address {addr} resolves to a hole"
                    );
                }
            }
        }
    }
}
