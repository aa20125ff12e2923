//! The 2D atom array.

use crate::{Direction, Site};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A rectangular 2D array of optical traps, some of which may have lost
/// their atom (*holes*).
///
/// `Grid` answers the geometric questions the compiler and the loss
/// strategies ask: which atoms exist and which pairs are within the
/// maximum interaction distance (MID). Graph queries (neighbors, hop
/// distances, forced hops) run on the device's one
/// [`InteractionGraph`](crate::InteractionGraph), with holes passed as
/// [`Grid::usable_mask`].
///
/// # Example
///
/// ```
/// use na_arch::{Grid, Site};
///
/// let mut grid = Grid::new(10, 10);
/// assert_eq!(grid.num_usable(), 100);
/// assert!(grid.in_range(Site::new(0, 0), Site::new(2, 0), 2.0));
///
/// grid.remove_atom(Site::new(5, 5));
/// assert_eq!(grid.num_usable(), 99);
/// assert!(!grid.is_usable(Site::new(5, 5)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Grid {
    width: u32,
    height: u32,
    usable: Vec<bool>,
}

impl Grid {
    /// A stable 64-bit fingerprint of the device: dimensions plus the
    /// exact hole pattern (FNV-1a). Grids with identical dimensions
    /// and holes always agree; the experiment engine keys its memoized
    /// compilation cache on this.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |b: u64| {
            hash ^= b;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        };
        fold(u64::from(self.width));
        fold(u64::from(self.height));
        for chunk in self.usable.chunks(64) {
            let mut word = 0u64;
            for (i, &u) in chunk.iter().enumerate() {
                if u {
                    word |= 1 << i;
                }
            }
            fold(word);
        }
        hash
    }

    /// Creates a fully loaded `width × height` grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be positive");
        Grid {
            width,
            height,
            usable: vec![true; (width * height) as usize],
        }
    }

    /// Grid width (number of columns).
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Grid height (number of rows).
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total number of trap sites (including holes).
    #[inline]
    pub fn num_sites(&self) -> usize {
        (self.width * self.height) as usize
    }

    /// Number of sites currently holding an atom.
    pub fn num_usable(&self) -> usize {
        self.usable.iter().filter(|&&u| u).count()
    }

    /// Number of holes (lost atoms).
    pub fn num_holes(&self) -> usize {
        self.num_sites() - self.num_usable()
    }

    /// `true` if `site` lies within the grid bounds.
    #[inline]
    pub fn contains(&self, site: Site) -> bool {
        site.x >= 0 && site.y >= 0 && (site.x as u32) < self.width && (site.y as u32) < self.height
    }

    fn idx(&self, site: Site) -> usize {
        debug_assert!(self.contains(site));
        site.y as usize * self.width as usize + site.x as usize
    }

    /// The site for a flat index (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_sites()`.
    pub fn site_at(&self, index: usize) -> Site {
        assert!(index < self.num_sites(), "site index out of range");
        Site::new(
            (index % self.width as usize) as i32,
            (index / self.width as usize) as i32,
        )
    }

    /// `true` if `site` is in bounds and holds an atom.
    #[inline]
    pub fn is_usable(&self, site: Site) -> bool {
        self.contains(site) && self.usable[self.idx(site)]
    }

    /// The usability vector in row-major flat-index order —
    /// `usable_mask()[i]` ⇔ the site with flat index `i` holds an
    /// atom. This *is* the grid's internal state (not a copy), and it
    /// is how holes reach the interaction graph: every
    /// [`InteractionGraph`](crate::InteractionGraph) query that must
    /// avoid holes takes it as its `usable` mask.
    #[inline]
    pub fn usable_mask(&self) -> &[bool] {
        &self.usable
    }

    /// The row-major flat index of `site` (the `usable_mask`
    /// position, inverse of [`Grid::site_at`]).
    ///
    /// # Panics
    ///
    /// Panics (debug) if `site` is out of bounds.
    #[inline]
    pub fn flat_index(&self, site: Site) -> usize {
        self.idx(site)
    }

    /// Marks the atom at `site` as lost. Returns `true` if an atom was
    /// present.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of bounds.
    pub fn remove_atom(&mut self, site: Site) -> bool {
        assert!(self.contains(site), "site {site} out of bounds");
        let i = self.idx(site);
        std::mem::replace(&mut self.usable[i], false)
    }

    /// The holes, in row-major order.
    pub fn holes(&self) -> Vec<Site> {
        (0..self.num_sites())
            .filter(|&i| !self.usable[i])
            .map(|i| self.site_at(i))
            .collect()
    }

    /// Iterates over every trap site in row-major order.
    pub fn sites(&self) -> impl Iterator<Item = Site> + '_ {
        (0..self.num_sites()).map(|i| self.site_at(i))
    }

    /// Iterates over sites currently holding an atom, row-major.
    pub fn usable_sites(&self) -> impl Iterator<Item = Site> + '_ {
        (0..self.num_sites())
            .filter(|&i| self.usable[i])
            .map(|i| self.site_at(i))
    }

    /// The site closest to the geometric center of the device.
    pub fn center(&self) -> Site {
        Site::new((self.width as i32 - 1) / 2, (self.height as i32 - 1) / 2)
    }

    /// The largest possible interaction distance on this device
    /// (corner to corner); at this MID the topology is all-to-all.
    pub fn max_distance(&self) -> f64 {
        Site::new(0, 0).distance(Site::new(self.width as i32 - 1, self.height as i32 - 1))
    }

    /// `true` if `a` and `b` both hold atoms and are within `mid`.
    pub fn in_range(&self, a: Site, b: Site, mid: f64) -> bool {
        self.is_usable(a) && self.is_usable(b) && a.within(b, mid)
    }

    /// Number of usable sites strictly beyond `from` in direction `dir`,
    /// up to the device edge (the "room to shift" of the virtual-remap
    /// strategy).
    pub fn usable_toward_edge(&self, from: Site, dir: Direction) -> usize {
        let mut count = 0;
        let mut cur = from.step(dir);
        while self.contains(cur) {
            if self.is_usable(cur) {
                count += 1;
            }
            cur = cur.step(dir);
        }
        count
    }
}

impl fmt::Display for Grid {
    /// Renders the grid with `.` for atoms and `x` for holes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for y in 0..self.height as i32 {
            for x in 0..self.width as i32 {
                let c = if self.is_usable(Site::new(x, y)) {
                    '.'
                } else {
                    'x'
                };
                write!(f, "{c}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BfsScratch, InteractionGraph};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fresh_grid_is_fully_usable() {
        let g = Grid::new(4, 3);
        assert_eq!(g.num_sites(), 12);
        assert_eq!(g.num_usable(), 12);
        assert_eq!(g.num_holes(), 0);
        assert!(g.holes().is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        Grid::new(0, 5);
    }

    #[test]
    fn remove_atom_reports_new_holes() {
        let mut g = Grid::new(3, 3);
        assert!(g.remove_atom(Site::new(1, 1)));
        assert!(!g.remove_atom(Site::new(1, 1)), "already a hole");
        assert_eq!(g.holes(), vec![Site::new(1, 1)]);
        assert_eq!((g.num_holes(), g.num_usable()), (1, 8));
    }

    #[test]
    fn site_index_round_trip() {
        let g = Grid::new(5, 4);
        for (i, s) in g.sites().enumerate() {
            assert_eq!(g.site_at(i), s);
        }
    }

    /// The usable sites within `mid` of `site`: the device graph's
    /// neighbor list filtered by the hole mask.
    fn neighbors(g: &Grid, site: Site, mid: f64) -> Vec<Site> {
        let graph = InteractionGraph::build(g, mid);
        graph
            .neighbors(g.flat_index(site))
            .iter()
            .map(|&n| graph.site_at(n as usize))
            .filter(|&n| g.is_usable(n))
            .collect()
    }

    fn hops(g: &Grid, a: Site, b: Site, mid: f64) -> Option<u32> {
        InteractionGraph::build(g, mid).hop_distance(a, b, g.usable_mask(), &mut BfsScratch::new())
    }

    #[test]
    fn neighbors_at_mid_one_are_cardinal() {
        let g = Grid::new(5, 5);
        let n = neighbors(&g, Site::new(2, 2), 1.0);
        assert_eq!(
            n,
            vec![
                Site::new(1, 2),
                Site::new(2, 1),
                Site::new(2, 3),
                Site::new(3, 2),
            ]
        );
    }

    #[test]
    fn neighbors_at_mid_two_include_diagonals() {
        let g = Grid::new(5, 5);
        let n = neighbors(&g, Site::new(2, 2), 2.0);
        // 4 cardinal at distance 1, 4 diagonal at sqrt(2), 4 cardinal at 2.
        assert_eq!(n.len(), 12);
        assert!(n.contains(&Site::new(1, 1)));
        assert!(n.contains(&Site::new(0, 2)));
        assert!(!n.contains(&Site::new(0, 0))); // distance 2*sqrt(2) > 2
    }

    #[test]
    fn neighbors_skip_holes() {
        let mut g = Grid::new(3, 3);
        g.remove_atom(Site::new(1, 0));
        let n = neighbors(&g, Site::new(1, 1), 1.0);
        assert!(!n.contains(&Site::new(1, 0)));
        assert_eq!(n.len(), 3);
    }

    #[test]
    fn corner_has_fewer_neighbors() {
        let g = Grid::new(5, 5);
        assert_eq!(neighbors(&g, Site::new(0, 0), 1.0).len(), 2);
    }

    #[test]
    fn hop_distance_mid_one_is_manhattan() {
        let g = Grid::new(6, 6);
        assert_eq!(hops(&g, Site::new(0, 0), Site::new(3, 2), 1.0), Some(5));
    }

    #[test]
    fn hop_distance_grows_shorter_with_larger_mid() {
        let g = Grid::new(10, 10);
        let a = Site::new(0, 0);
        let b = Site::new(9, 9);
        let d1 = hops(&g, a, b, 1.0).unwrap();
        let d3 = hops(&g, a, b, 3.0).unwrap();
        assert!(d3 < d1);
        assert_eq!(hops(&g, a, b, g.max_distance()), Some(1));
    }

    #[test]
    fn disconnected_grid_has_no_path() {
        let mut g = Grid::new(3, 1);
        g.remove_atom(Site::new(1, 0));
        let (a, b) = (Site::new(0, 0), Site::new(2, 0));
        assert_eq!(hops(&g, a, b, 1.0), None);
        let graph = InteractionGraph::build(&g, 1.0);
        assert_eq!(
            graph.hop_toward(a, b, &[], g.usable_mask(), &mut BfsScratch::new()),
            None
        );
        // A bigger MID jumps the hole.
        assert_eq!(hops(&g, a, b, 2.0), Some(1));
    }

    #[test]
    fn usable_toward_edge_counts_spares() {
        let mut g = Grid::new(5, 5);
        let s = Site::new(2, 2);
        assert_eq!(g.usable_toward_edge(s, Direction::East), 2);
        assert_eq!(g.usable_toward_edge(s, Direction::West), 2);
        g.remove_atom(Site::new(3, 2));
        assert_eq!(g.usable_toward_edge(s, Direction::East), 1);
        assert_eq!(g.usable_toward_edge(Site::new(4, 2), Direction::East), 0);
    }

    #[test]
    fn center_and_max_distance() {
        let g = Grid::new(10, 10);
        assert_eq!(g.center(), Site::new(4, 4));
        assert!((g.max_distance() - (81.0f64 + 81.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn display_shows_holes() {
        let mut g = Grid::new(2, 2);
        g.remove_atom(Site::new(1, 0));
        assert_eq!(g.to_string(), ".x\n..\n");
    }

    #[test]
    fn prop_hop_distance_symmetric() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = Grid::new(6, 6);
        g.remove_atom(Site::new(2, 2));
        g.remove_atom(Site::new(3, 1));
        for _ in 0..64 {
            let a = Site::new(rng.gen_range(0i32..6), rng.gen_range(0i32..6));
            let b = Site::new(rng.gen_range(0i32..6), rng.gen_range(0i32..6));
            let m = f64::from(rng.gen_range(1u32..4));
            assert_eq!(hops(&g, a, b, m), hops(&g, b, a, m));
        }
    }

    #[test]
    fn prop_path_hops_match_hop_distance() {
        // Walking forced hops from a to b takes exactly hop_distance
        // steps: every hop lies on a shortest path.
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = Grid::new(6, 6);
        g.remove_atom(Site::new(2, 1));
        g.remove_atom(Site::new(1, 3));
        let mut scratch = BfsScratch::new();
        for _ in 0..64 {
            let a = Site::new(0, 0);
            let b = Site::new(rng.gen_range(0i32..6), rng.gen_range(0i32..6));
            let m = f64::from(rng.gen_range(1u32..4));
            let graph = InteractionGraph::build(&g, m);
            let Some(hops) = graph.hop_distance(a, b, g.usable_mask(), &mut scratch) else {
                assert!(!g.is_usable(b), "{a}->{b} disconnected at MID {m}");
                continue;
            };
            let (mut at, mut steps) = (a, 0);
            while let Some(next) = graph.hop_toward(at, b, &[], g.usable_mask(), &mut scratch) {
                assert!(at.within(next, m) && g.is_usable(next));
                (at, steps) = (next, steps + 1);
            }
            assert_eq!((at, steps), (b, hops), "{a}->{b} at MID {m}");
        }
    }

    #[test]
    fn prop_neighbors_are_in_range_and_usable() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = Grid::new(8, 8);
        for _ in 0..10 {
            g.remove_atom(Site::new(rng.gen_range(0i32..8), rng.gen_range(0i32..8)));
        }
        for _ in 0..64 {
            let s = Site::new(rng.gen_range(0i32..8), rng.gen_range(0i32..8));
            let m = f64::from(rng.gen_range(1u32..5));
            for n in neighbors(&g, s, m) {
                assert!(g.is_usable(n));
                assert!(s.within(n, m));
                assert!(n != s);
            }
        }
    }
}
