//! The 2D atom array.

use crate::interaction::{BfsScratch, InteractionGraph};
use crate::{Direction, Site};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A rectangular 2D array of optical traps, some of which may have lost
/// their atom (*holes*).
///
/// `Grid` answers the geometric questions the compiler and the loss
/// strategies ask: which atoms exist, which pairs are within the maximum
/// interaction distance (MID), hop-distance paths over usable atoms, and
/// connectivity of the interaction graph.
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
    /// atom. This *is* the grid's internal state (not a copy), so it
    /// can be handed directly to hole-masked queries like
    /// `InteractionGraph::hop_distance_masked` without any mirror
    /// bookkeeping.
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

    /// Restores the atom at `site` (used when modelling array reloads).
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of bounds.
    pub fn restore_atom(&mut self, site: Site) {
        assert!(self.contains(site), "site {site} out of bounds");
        let i = self.idx(site);
        self.usable[i] = true;
    }

    /// Reloads the entire array: every site holds an atom again.
    pub fn restore_all(&mut self) {
        self.usable.fill(true);
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

    /// All usable sites within Euclidean distance `mid` of `site`,
    /// excluding `site` itself, in ascending `Site` order.
    pub fn neighbors_within(&self, site: Site, mid: f64) -> Vec<Site> {
        // Offsets past the grid's extent never land on a site.
        let r = (mid.floor() as i32).min(self.width.max(self.height) as i32);
        let mut out = Vec::new();
        for dy in -r..=r {
            for dx in -r..=r {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let s = Site::new(site.x + dx, site.y + dy);
                if self.is_usable(s) && site.within(s, mid) {
                    out.push(s);
                }
            }
        }
        out.sort();
        out
    }

    /// Hop distances (in MID-range hops over usable atoms) from `from`
    /// to every site; `None` for unreachable or unusable sites.
    ///
    /// Returns an empty map-equivalent (all `None`) if `from` itself is
    /// unusable. Runs over the memoized [`InteractionGraph`] so the BFS
    /// allocates nothing per hop.
    pub fn hop_distances(&self, from: Site, mid: f64) -> Vec<Option<u32>> {
        let graph = InteractionGraph::cached(self, mid);
        let mut out = Vec::new();
        graph.hop_distances_into(from, &mut BfsScratch::new(), &mut out);
        out
    }

    /// Hop distance between two usable sites, if connected.
    pub fn hop_distance(&self, a: Site, b: Site, mid: f64) -> Option<u32> {
        if !self.contains(b) {
            return None;
        }
        InteractionGraph::cached(self, mid).hop_distance(a, b, &mut BfsScratch::new())
    }

    /// Shortest path (inclusive of both endpoints) between usable sites
    /// where each hop is within `mid`, or `None` if disconnected.
    pub fn shortest_path(&self, a: Site, b: Site, mid: f64) -> Option<Vec<Site>> {
        if !self.is_usable(a) || !self.is_usable(b) {
            return None;
        }
        if a == b {
            return Some(vec![a]);
        }
        let graph = InteractionGraph::cached(self, mid);
        let (ai, bi) = (self.idx(a), self.idx(b));
        let mut prev: Vec<u32> = vec![u32::MAX; self.num_sites()];
        let mut seen = vec![false; self.num_sites()];
        let mut queue = std::collections::VecDeque::new();
        seen[ai] = true;
        queue.push_back(ai as u32);
        while let Some(s) = queue.pop_front() {
            for &n in graph.neighbors(s as usize) {
                let i = n as usize;
                if seen[i] {
                    continue;
                }
                seen[i] = true;
                prev[i] = s;
                if i == bi {
                    let mut path = vec![b];
                    let mut cur = s as usize;
                    loop {
                        path.push(self.site_at(cur));
                        match prev[cur] {
                            u32::MAX => break,
                            p => cur = p as usize,
                        }
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(n);
            }
        }
        None
    }

    /// Size of the largest connected component of the usable interaction
    /// graph at the given MID.
    pub fn largest_component(&self, mid: f64) -> usize {
        InteractionGraph::cached(self, mid).largest_component(&mut BfsScratch::new())
    }

    /// `true` if every usable atom can reach every other via MID hops.
    pub fn is_connected(&self, mid: f64) -> bool {
        let usable = self.num_usable();
        usable == 0 || self.largest_component(mid) == usable
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
    fn remove_and_restore_atoms() {
        let mut g = Grid::new(3, 3);
        assert!(g.remove_atom(Site::new(1, 1)));
        assert!(!g.remove_atom(Site::new(1, 1)), "already a hole");
        assert_eq!(g.holes(), vec![Site::new(1, 1)]);
        g.restore_atom(Site::new(1, 1));
        assert_eq!(g.num_holes(), 0);
        g.remove_atom(Site::new(0, 0));
        g.restore_all();
        assert_eq!(g.num_usable(), 9);
    }

    #[test]
    fn site_index_round_trip() {
        let g = Grid::new(5, 4);
        for (i, s) in g.sites().enumerate() {
            assert_eq!(g.site_at(i), s);
        }
    }

    #[test]
    fn neighbors_within_mid_one_are_cardinal() {
        let g = Grid::new(5, 5);
        let n = g.neighbors_within(Site::new(2, 2), 1.0);
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
    fn neighbors_within_mid_two_include_diagonals() {
        let g = Grid::new(5, 5);
        let n = g.neighbors_within(Site::new(2, 2), 2.0);
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
        let n = g.neighbors_within(Site::new(1, 1), 1.0);
        assert!(!n.contains(&Site::new(1, 0)));
        assert_eq!(n.len(), 3);
    }

    #[test]
    fn corner_has_fewer_neighbors() {
        let g = Grid::new(5, 5);
        assert_eq!(g.neighbors_within(Site::new(0, 0), 1.0).len(), 2);
    }

    #[test]
    fn hop_distance_mid_one_is_manhattan() {
        let g = Grid::new(6, 6);
        assert_eq!(
            g.hop_distance(Site::new(0, 0), Site::new(3, 2), 1.0),
            Some(5)
        );
    }

    #[test]
    fn hop_distance_grows_shorter_with_larger_mid() {
        let g = Grid::new(10, 10);
        let a = Site::new(0, 0);
        let b = Site::new(9, 9);
        let d1 = g.hop_distance(a, b, 1.0).unwrap();
        let d3 = g.hop_distance(a, b, 3.0).unwrap();
        assert!(d3 < d1);
        assert_eq!(g.hop_distance(a, b, g.max_distance()), Some(1));
    }

    #[test]
    fn shortest_path_endpoints_and_hops() {
        let g = Grid::new(5, 5);
        let p = g
            .shortest_path(Site::new(0, 0), Site::new(4, 0), 2.0)
            .unwrap();
        assert_eq!(p.first(), Some(&Site::new(0, 0)));
        assert_eq!(p.last(), Some(&Site::new(4, 0)));
        for w in p.windows(2) {
            assert!(w[0].within(w[1], 2.0));
        }
        assert_eq!(p.len(), 3); // 0 -> 2 -> 4
    }

    #[test]
    fn shortest_path_routes_around_holes() {
        let mut g = Grid::new(3, 3);
        // Wall of holes across the middle column except the top.
        g.remove_atom(Site::new(1, 1));
        g.remove_atom(Site::new(1, 2));
        let p = g
            .shortest_path(Site::new(0, 2), Site::new(2, 2), 1.0)
            .unwrap();
        assert!(p.len() > 3, "must detour around the wall");
        for s in &p {
            assert!(g.is_usable(*s));
        }
    }

    #[test]
    fn disconnected_grid_has_no_path() {
        let mut g = Grid::new(3, 1);
        g.remove_atom(Site::new(1, 0));
        assert_eq!(g.shortest_path(Site::new(0, 0), Site::new(2, 0), 1.0), None);
        assert!(!g.is_connected(1.0));
        // A bigger MID jumps the hole.
        assert!(g.is_connected(2.0));
    }

    #[test]
    fn path_to_self_is_singleton() {
        let g = Grid::new(3, 3);
        let s = Site::new(1, 1);
        assert_eq!(g.shortest_path(s, s, 1.0), Some(vec![s]));
    }

    #[test]
    fn largest_component_counts_usable_atoms() {
        let mut g = Grid::new(4, 1);
        assert_eq!(g.largest_component(1.0), 4);
        g.remove_atom(Site::new(1, 0));
        assert_eq!(g.largest_component(1.0), 2); // {2,3} vs {0}
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
        let g = Grid::new(6, 6);
        for _ in 0..64 {
            let a = Site::new(rng.gen_range(0i32..6), rng.gen_range(0i32..6));
            let b = Site::new(rng.gen_range(0i32..6), rng.gen_range(0i32..6));
            let m = f64::from(rng.gen_range(1u32..4));
            assert_eq!(g.hop_distance(a, b, m), g.hop_distance(b, a, m));
        }
    }

    #[test]
    fn prop_path_hops_match_hop_distance() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = Grid::new(6, 6);
        for _ in 0..64 {
            let a = Site::new(0, 0);
            let b = Site::new(rng.gen_range(0i32..6), rng.gen_range(0i32..6));
            let m = f64::from(rng.gen_range(1u32..4));
            let path = g.shortest_path(a, b, m).unwrap();
            let hops = g.hop_distance(a, b, m).unwrap();
            assert_eq!(path.len() as u32, hops + 1);
        }
    }

    #[test]
    fn prop_neighbors_are_in_range_and_usable() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = Grid::new(8, 8);
        for _ in 0..64 {
            let s = Site::new(rng.gen_range(0i32..8), rng.gen_range(0i32..8));
            let m = f64::from(rng.gen_range(1u32..5));
            for n in g.neighbors_within(s, m) {
                assert!(g.is_usable(n));
                assert!(s.within(n, m));
                assert!(n != s);
            }
        }
    }
}
