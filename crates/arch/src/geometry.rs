//! Grid coordinates and Euclidean geometry.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A site (trap position) in the 2D atom array.
///
/// Coordinates are signed so that directional arithmetic near the edge
/// of the device is well-defined; [`Grid`](crate::Grid) decides which
/// sites actually exist.
///
/// # Example
///
/// ```
/// use na_arch::Site;
///
/// let a = Site::new(0, 0);
/// let b = Site::new(3, 4);
/// assert_eq!(a.distance(b), 5.0);
/// assert_eq!(a.distance_sq(b), 25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Site {
    /// Column index.
    pub x: i32,
    /// Row index.
    pub y: i32,
}

impl Site {
    /// Creates a site at `(x, y)`.
    #[inline]
    pub const fn new(x: i32, y: i32) -> Self {
        Site { x, y }
    }

    /// Squared Euclidean distance to `other` (exact, integer).
    #[inline]
    pub fn distance_sq(self, other: Site) -> i64 {
        let dx = (self.x - other.x) as i64;
        let dy = (self.y - other.y) as i64;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Site) -> f64 {
        (self.distance_sq(other) as f64).sqrt()
    }

    /// Chebyshev (L∞) distance; a cheap lower bound used to prune
    /// neighbor scans.
    #[inline]
    pub fn chebyshev(self, other: Site) -> i32 {
        (self.x - other.x).abs().max((self.y - other.y).abs())
    }

    /// The site one step in `dir`.
    #[inline]
    pub fn step(self, dir: Direction) -> Site {
        let (dx, dy) = dir.delta();
        Site::new(self.x + dx, self.y + dy)
    }

    /// `true` if `self` and `other` are within Euclidean distance `d`.
    ///
    /// Uses the exact squared-integer comparison, so there is no
    /// floating-point boundary ambiguity: distance `d` exactly equal to
    /// the limit is *in range*, matching the paper's `d(u,v) ≤ d_max`.
    #[inline]
    pub fn within(self, other: Site, d: f64) -> bool {
        debug_assert!(d >= 0.0);
        (self.distance_sq(other) as f64) <= d * d
    }
}

impl From<(i32, i32)> for Site {
    fn from((x, y): (i32, i32)) -> Self {
        Site::new(x, y)
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// An axis-aligned bounding box over a non-empty set of sites.
///
/// The compiler's placement fast path collapses the mapped partners of
/// a qubit into their bounding box: the Chebyshev distance from a
/// candidate site to the box ([`BBox::chebyshev_to`]) lower-bounds the
/// Chebyshev — hence the Euclidean — distance to *every* site inside,
/// which makes `Σ w · d` prunable in O(1) per candidate.
///
/// # Example
///
/// ```
/// use na_arch::{BBox, Site};
///
/// let b = BBox::of(Site::new(2, 3)).including(Site::new(5, 1));
/// assert_eq!(b.chebyshev_to(Site::new(3, 2)), 0); // inside
/// assert_eq!(b.chebyshev_to(Site::new(9, 2)), 4); // 4 columns east
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BBox {
    /// Smallest contained column.
    pub min_x: i32,
    /// Smallest contained row.
    pub min_y: i32,
    /// Largest contained column.
    pub max_x: i32,
    /// Largest contained row.
    pub max_y: i32,
}

impl BBox {
    /// The degenerate box holding exactly `site`.
    #[inline]
    pub const fn of(site: Site) -> Self {
        BBox {
            min_x: site.x,
            min_y: site.y,
            max_x: site.x,
            max_y: site.y,
        }
    }

    /// The smallest box containing every site yielded by `sites`, or
    /// `None` for an empty iterator.
    pub fn containing(sites: impl IntoIterator<Item = Site>) -> Option<Self> {
        let mut it = sites.into_iter();
        let mut b = BBox::of(it.next()?);
        for s in it {
            b.insert(s);
        }
        Some(b)
    }

    /// Expands the box to cover `site`.
    #[inline]
    pub fn insert(&mut self, site: Site) {
        self.min_x = self.min_x.min(site.x);
        self.min_y = self.min_y.min(site.y);
        self.max_x = self.max_x.max(site.x);
        self.max_y = self.max_y.max(site.y);
    }

    /// The box expanded to cover `site` (by-value [`BBox::insert`]).
    #[inline]
    #[must_use]
    pub fn including(mut self, site: Site) -> Self {
        self.insert(site);
        self
    }

    /// `true` if `site` lies inside the box.
    #[inline]
    pub fn contains(&self, site: Site) -> bool {
        (self.min_x..=self.max_x).contains(&site.x) && (self.min_y..=self.max_y).contains(&site.y)
    }

    /// Chebyshev (L∞) distance from `site` to the nearest point of the
    /// box; 0 when `site` is inside.
    ///
    /// For every site `v` contained in the box this is a lower bound on
    /// `site.chebyshev(v)`, and therefore on `site.distance(v)`.
    #[inline]
    pub fn chebyshev_to(&self, site: Site) -> i32 {
        let dx = (self.min_x - site.x).max(site.x - self.max_x).max(0);
        let dy = (self.min_y - site.y).max(site.y - self.max_y).max(0);
        dx.max(dy)
    }
}

/// The four cardinal directions used by the row/column shift of the
/// virtual-remapping loss strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Toward smaller `y`.
    North,
    /// Toward larger `y`.
    South,
    /// Toward larger `x`.
    East,
    /// Toward smaller `x`.
    West,
}

impl Direction {
    /// All four directions, in a fixed deterministic order.
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::South,
        Direction::East,
        Direction::West,
    ];

    /// The unit step `(dx, dy)` of this direction.
    #[inline]
    pub fn delta(self) -> (i32, i32) {
        match self {
            Direction::North => (0, -1),
            Direction::South => (0, 1),
            Direction::East => (1, 0),
            Direction::West => (-1, 0),
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::North => "north",
            Direction::South => "south",
            Direction::East => "east",
            Direction::West => "west",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pythagorean_distance() {
        assert_eq!(Site::new(0, 0).distance(Site::new(3, 4)), 5.0);
        assert_eq!(Site::new(1, 1).distance(Site::new(1, 1)), 0.0);
    }

    #[test]
    fn within_is_inclusive_at_the_boundary() {
        let a = Site::new(0, 0);
        assert!(a.within(Site::new(2, 0), 2.0));
        assert!(!a.within(Site::new(3, 0), 2.0));
        // Diagonal distance sqrt(2) vs MID 1: out of range.
        assert!(!a.within(Site::new(1, 1), 1.0));
        // ... but within MID 2.
        assert!(a.within(Site::new(1, 1), 2.0));
    }

    #[test]
    fn step_moves_one_unit() {
        let s = Site::new(5, 5);
        assert_eq!(s.step(Direction::North), Site::new(5, 4));
        assert_eq!(s.step(Direction::South), Site::new(5, 6));
        assert_eq!(s.step(Direction::East), Site::new(6, 5));
        assert_eq!(s.step(Direction::West), Site::new(4, 5));
    }

    /// The opposite direction.
    fn opposite(d: Direction) -> Direction {
        match d {
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
        }
    }

    #[test]
    fn opposite_round_trips() {
        for d in Direction::ALL {
            assert_eq!(opposite(opposite(d)), d);
            let s = Site::new(0, 0);
            assert_eq!(s.step(d).step(opposite(d)), s);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Site::new(2, 7).to_string(), "(2, 7)");
        assert_eq!(Direction::East.to_string(), "east");
    }

    #[test]
    fn prop_distance_symmetric() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..128 {
            let a = Site::new(rng.gen_range(-50i32..50), rng.gen_range(-50i32..50));
            let b = Site::new(rng.gen_range(-50i32..50), rng.gen_range(-50i32..50));
            assert_eq!(a.distance_sq(b), b.distance_sq(a));
        }
    }

    #[test]
    fn prop_triangle_inequality() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..128 {
            let a = Site::new(rng.gen_range(-20i32..20), rng.gen_range(-20i32..20));
            let b = Site::new(rng.gen_range(-20i32..20), rng.gen_range(-20i32..20));
            let c = Site::new(rng.gen_range(-20i32..20), rng.gen_range(-20i32..20));
            assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9);
        }
    }

    #[test]
    fn bbox_grows_and_contains() {
        let mut b = BBox::of(Site::new(3, 3));
        assert!(b.contains(Site::new(3, 3)));
        assert_eq!(b.chebyshev_to(Site::new(3, 3)), 0);
        b.insert(Site::new(1, 5));
        assert_eq!((b.min_x, b.min_y, b.max_x, b.max_y), (1, 3, 3, 5));
        assert!(b.contains(Site::new(2, 4)));
        assert!(!b.contains(Site::new(0, 4)));
        assert_eq!(BBox::containing(std::iter::empty()), None);
        assert_eq!(
            BBox::containing([Site::new(1, 5), Site::new(3, 3)]),
            Some(b)
        );
    }

    #[test]
    fn bbox_chebyshev_is_zero_inside_and_rises_outside() {
        let b = BBox::of(Site::new(2, 2)).including(Site::new(4, 4));
        assert_eq!(b.chebyshev_to(Site::new(3, 3)), 0);
        assert_eq!(b.chebyshev_to(Site::new(4, 2)), 0); // corner
        assert_eq!(b.chebyshev_to(Site::new(7, 3)), 3);
        assert_eq!(b.chebyshev_to(Site::new(0, 0)), 2);
        assert_eq!(b.chebyshev_to(Site::new(5, 8)), 4);
    }

    #[test]
    fn prop_bbox_chebyshev_lower_bounds_distance_to_members() {
        // The load-bearing inequality of the placement fast path: for
        // any site set S and probe h,
        //   bbox(S).chebyshev_to(h) <= min_{v in S} h.distance(v).
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..256 {
            let n = rng.gen_range(1..8);
            let members: Vec<Site> = (0..n)
                .map(|_| Site::new(rng.gen_range(-15i32..15), rng.gen_range(-15i32..15)))
                .collect();
            let b = BBox::containing(members.iter().copied()).unwrap();
            let h = Site::new(rng.gen_range(-20i32..20), rng.gen_range(-20i32..20));
            for &v in &members {
                assert!(b.contains(v));
                assert!(f64::from(b.chebyshev_to(h)) <= h.distance(v) + 1e-9);
                assert!(b.chebyshev_to(h) <= h.chebyshev(v));
            }
        }
    }

    #[test]
    fn prop_chebyshev_lower_bounds_euclidean() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..128 {
            let a = Site::new(rng.gen_range(-20i32..20), rng.gen_range(-20i32..20));
            let b = Site::new(rng.gen_range(-20i32..20), rng.gen_range(-20i32..20));
            assert!(f64::from(a.chebyshev(b)) <= a.distance(b) + 1e-9);
        }
    }
}
