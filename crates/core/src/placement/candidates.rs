//! The maintained free-site candidate list.
//!
//! The seed placer asked the grid for `usable_sites()` and the map for
//! `is_free()` on every scan, re-walking the whole device bitmap per
//! qubit placed. `FreeSites` materializes the free usable sites once
//! per placement and shrinks as sites are claimed, so every scan walks
//! exactly the candidates that are still available — in the same
//! row-major order `Grid::usable_sites` yields, which the tie-breaking
//! of the site fold depends on.

use na_arch::{Grid, Site};

/// The usable sites not yet claimed by a placement, in row-major
/// (ascending `(y, x)`) order.
#[derive(Debug, Clone, Default)]
pub(crate) struct FreeSites {
    sites: Vec<Site>,
}

impl FreeSites {
    /// Refills the list with every usable site of `grid`, reusing the
    /// allocation.
    pub(crate) fn rebuild(&mut self, grid: &Grid) {
        self.sites.clear();
        self.sites.extend(grid.usable_sites());
    }

    /// Number of free sites remaining.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.sites.len()
    }

    /// Claims `site`, removing it from the candidate list while
    /// preserving row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `site` is not currently free (placement only ever
    /// claims sites it just scanned).
    pub(crate) fn claim(&mut self, site: Site) {
        let i = self
            .sites
            .binary_search_by_key(&(site.y, site.x), |s| (s.y, s.x))
            .expect("claimed site must be in the free list");
        self.sites.remove(i);
    }

    /// The free sites in row-major order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Site> + '_ {
        self.sites.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebuild_matches_grid_order_and_claim_shrinks() {
        let mut grid = Grid::new(4, 3);
        grid.remove_atom(Site::new(2, 1));
        let mut free = FreeSites::default();
        free.rebuild(&grid);
        assert_eq!(free.len(), 11);
        let listed: Vec<Site> = free.iter().collect();
        let expected: Vec<Site> = grid.usable_sites().collect();
        assert_eq!(listed, expected, "row-major order preserved");

        free.claim(Site::new(1, 0));
        assert_eq!(free.len(), 10);
        assert!(free.iter().all(|s| s != Site::new(1, 0)));
        // Order still row-major after removal.
        let after: Vec<Site> = free.iter().collect();
        let mut sorted = after.clone();
        sorted.sort_by_key(|s| (s.y, s.x));
        assert_eq!(after, sorted);
    }

    #[test]
    #[should_panic(expected = "free list")]
    fn claiming_a_hole_panics() {
        let mut grid = Grid::new(2, 2);
        grid.remove_atom(Site::new(0, 0));
        let mut free = FreeSites::default();
        free.rebuild(&grid);
        free.claim(Site::new(0, 0));
    }
}
