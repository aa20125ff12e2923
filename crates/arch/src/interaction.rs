//! The precomputed, flat-index interaction graph.
//!
//! A device is a unit-disc graph over a fixed trap grid at one MID
//! (paper §III-A). Every hot loop — neighbor scans during SWAP
//! scoring, BFS hops of the forced router, reroute fixup costing —
//! walks that graph, so it is computed once per `(width, height,
//! mid)` and stored in CSR (compressed sparse row) layout: one flat
//! neighbor array plus per-site offsets. A neighbor scan is then a
//! slice iteration, and a BFS needs no per-hop allocation at all.
//!
//! Atom loss only punches holes in the grid, so the graph never
//! models them: it always spans every trap site, and each query that
//! must avoid holes takes the current hole pattern as a flat-index
//! mask ([`Grid::usable_mask`]). Loss campaigns and loss-driven
//! recompiles therefore share the one graph of their device and MID,
//! memoized process-wide by [`InteractionGraph::cached`].
//!
//! Layout invariant: `neighbors(i)` lists every site within the MID
//! of `site_at(i)` in ascending [`Site`] order, so filtering it by a
//! mask gives the same order on every hole pattern — the scheduler's
//! byte-identical output contract rests on this.

use crate::{Grid, Site};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};

/// Sentinel for "no site" in flat-index arrays.
const NONE: u32 = u32::MAX;

/// The interaction graph of one grid size at one MID, in CSR layout
/// over row-major flat site indices. Holes are not part of it: pass
/// [`Grid::usable_mask`] to the queries that must avoid them.
///
/// # Example
///
/// ```
/// use na_arch::{BfsScratch, Grid, InteractionGraph, Site};
///
/// let mut grid = Grid::new(5, 5);
/// let graph = InteractionGraph::build(&grid, 2.0);
/// let center = graph.index_of(Site::new(2, 2)).unwrap();
/// // 4 cardinal at distance 1, 4 diagonal at √2, 4 cardinal at 2.
/// assert_eq!(graph.neighbors(center).len(), 12);
/// for &n in graph.neighbors(center) {
///     assert!(graph.site_at(n as usize).within(Site::new(2, 2), 2.0));
/// }
///
/// // A hole is a masked site, not a different graph.
/// let mut scratch = BfsScratch::new();
/// let (a, b) = (Site::new(0, 0), Site::new(2, 0));
/// assert_eq!(graph.hop_distance(a, b, grid.usable_mask(), &mut scratch), Some(1));
/// grid.remove_atom(b);
/// assert_eq!(graph.hop_distance(a, b, grid.usable_mask(), &mut scratch), None);
/// ```
#[derive(Debug, Clone)]
pub struct InteractionGraph {
    width: u32,
    height: u32,
    mid: f64,
    /// The MID's neighbor offset stencil: every `(dx, dy) != (0, 0)`
    /// with `dx² + dy² ≤ mid²`, in ascending `(dx, dy)` order (which
    /// makes per-site neighbor lists ascend in `Site` order).
    stencil: Vec<(i32, i32)>,
    /// `half_heights[dx + r]` is the half-height of the stencil's
    /// column `dx` for `|dx| ≤ r`, the stencil's reach: the largest
    /// `dy ≥ 0` with `(dx, dy)` in the stencil, or 0 when the column
    /// holds only the origin. A column is the whole run `−h..=h`.
    half_heights: Vec<i32>,
    /// `sites[i]` is the site of flat index `i`, so
    /// [`InteractionGraph::site_at`] is a load rather than a division.
    sites: Vec<Site>,
    /// CSR offsets: site `i`'s neighbors live at
    /// `neighbors[offsets[i] .. offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Flat neighbor site indices.
    neighbors: Vec<u32>,
}

impl InteractionGraph {
    /// Builds the graph for `grid`'s dimensions at interaction
    /// distance `mid`. Only the dimensions are read: the graph of a
    /// holey grid is the graph of the full device.
    pub fn build(grid: &Grid, mid: f64) -> Self {
        let (width, height) = (grid.width(), grid.height());
        let num_sites = grid.num_sites();

        // Offsets past the grid's extent never land on a site, so a huge
        // MID clamps to it instead of enumerating a (2⌊mid⌋+1)² stencil.
        let r = (mid.floor() as i32).min(width.max(height) as i32);
        let mut stencil = Vec::new();
        for dx in -r..=r {
            for dy in -r..=r {
                if (dx, dy) == (0, 0) {
                    continue;
                }
                let d2 = i64::from(dx) * i64::from(dx) + i64::from(dy) * i64::from(dy);
                if (d2 as f64) <= mid * mid {
                    stencil.push((dx, dy));
                }
            }
        }

        let mut half_heights = vec![0; 2 * r.max(0) as usize + 1];
        for &(dx, dy) in &stencil {
            let h = &mut half_heights[(dx + r) as usize];
            *h = (*h).max(dy);
        }

        let mut sites = Vec::with_capacity(num_sites);
        let mut offsets = Vec::with_capacity(num_sites + 1);
        let mut neighbors = Vec::new();
        offsets.push(0u32);
        for y in 0..height as i32 {
            for x in 0..width as i32 {
                sites.push(Site::new(x, y));
                for &(dx, dy) in &stencil {
                    let (nx, ny) = (x + dx, y + dy);
                    if nx < 0 || ny < 0 || nx >= width as i32 || ny >= height as i32 {
                        continue;
                    }
                    neighbors.push((ny as usize * width as usize + nx as usize) as u32);
                }
                offsets.push(neighbors.len() as u32);
            }
        }

        InteractionGraph {
            width,
            height,
            mid,
            stencil,
            half_heights,
            sites,
            offsets,
            neighbors,
        }
    }

    /// The memoized graph for `grid`'s dimensions at `mid`. Holes do
    /// not enter the key, so every hole pattern of one device — each
    /// loss-driven recompile included — shares the same `Arc`.
    pub fn cached(grid: &Grid, mid: f64) -> Arc<InteractionGraph> {
        type GraphCache = Mutex<HashMap<(u32, u32, u64), Arc<InteractionGraph>>>;
        static CACHE: OnceLock<GraphCache> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let key = (grid.width(), grid.height(), mid.to_bits());
        if let Some(g) = cache
            .lock()
            .expect("interaction graph cache lock")
            .get(&key)
        {
            return Arc::clone(g);
        }
        // Build outside the lock so concurrent workers never serialize
        // on one global mutex during construction; a racing builder of
        // the same key just loses its (identical) copy.
        let g = Arc::new(InteractionGraph::build(grid, mid));
        let mut map = cache.lock().expect("interaction graph cache lock");
        if let Some(existing) = map.get(&key) {
            return Arc::clone(existing);
        }
        // Bound memory: MIDs and grid sizes come from CLI input, so an
        // adversarial sweep could name thousands. Drop everything and
        // start over rather than tracking recency.
        if map.len() >= 256 {
            map.clear();
        }
        map.insert(key, Arc::clone(&g));
        g
    }

    /// The MID this graph was built at.
    #[inline]
    pub fn mid(&self) -> f64 {
        self.mid
    }

    /// Grid width (columns).
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Grid height (rows).
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total number of sites (including holes).
    #[inline]
    pub fn num_sites(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// The neighbor offset stencil of this MID, ascending `(dx, dy)`,
    /// clipped to offsets no longer than the grid's larger side.
    #[inline]
    pub fn stencil(&self) -> &[(i32, i32)] {
        &self.stencil
    }

    /// Flat index of `site`, or `None` if out of bounds.
    #[inline]
    pub fn index_of(&self, site: Site) -> Option<usize> {
        if site.x < 0 || site.y < 0 || site.x >= self.width as i32 || site.y >= self.height as i32 {
            return None;
        }
        Some(site.y as usize * self.width as usize + site.x as usize)
    }

    /// The site of a flat index.
    #[inline]
    pub fn site_at(&self, index: usize) -> Site {
        self.sites[index]
    }

    /// Neighbor indices of site `index` (every site within the MID,
    /// holes included), ascending `Site` order.
    #[inline]
    pub fn neighbors(&self, index: usize) -> &[u32] {
        &self.neighbors[self.offsets[index] as usize..self.offsets[index + 1] as usize]
    }

    /// Hop distance (MID-range hops over usable atoms) between two
    /// sites, or `None` if either is out of bounds or a hole, or they
    /// are disconnected. `usable[i]` masks the site with flat index `i`
    /// ([`Grid::usable_mask`]); a `false` entry is a hole, both as an
    /// endpoint and as a waypoint.
    ///
    /// The checks run in order: `a == b` is 0 hops; `b` within the MID
    /// of `a` is 1; an out-of-range pair is 2 iff some usable site lies
    /// within the MID of both (the *lens* test, a scan of the two MID
    /// discs' overlap that stops at the first hit and never runs when
    /// `|ab| > 2·MID`); anything else falls through to the BFS kernel.
    /// Every range test is the `d² ≤ MID²` criterion of the CSR stencil,
    /// so the shortcut answers exactly as the BFS would.
    ///
    /// A distance `k ≥ 2` comes with its *path witness* in
    /// [`BfsScratch::path`]: the `k − 1` interior sites of one shortest
    /// path, the lens site when `k == 2`. While those sites stay usable
    /// the pair stays at most `k` hops apart, whatever else is lost.
    pub fn hop_distance(
        &self,
        a: Site,
        b: Site,
        usable: &[bool],
        scratch: &mut BfsScratch,
    ) -> Option<u32> {
        debug_assert_eq!(usable.len(), self.num_sites(), "mask sized to the grid");
        scratch.path.clear();
        let ai = self.index_of(a)?;
        let bi = self.index_of(b)?;
        if !usable[ai] || !usable[bi] {
            return None;
        }
        if ai == bi {
            return Some(0);
        }
        if a.within(b, self.mid) {
            return Some(1);
        }
        if a.within(b, 2.0 * self.mid) {
            if let Some(lens) = self.lens_hit(a, b, usable, scratch) {
                scratch.path.push(lens);
                return Some(2);
            }
        }
        self.bfs_hop_distance(ai, bi, usable, scratch)
    }

    /// The first usable site within the MID of both `a` and `b` (on the
    /// grid, and out of each other's range), as a flat index.
    ///
    /// It scans only the overlap of the two MID discs, clipped to the
    /// grid: with `(dx, dy) = b − a` and `h` the stencil's column
    /// half-heights, column `cx` of `a`'s stencil meets `b`'s disc in
    /// `max(−h(cx), dy − h(cx − dx)) ..= min(h(cx), dy + h(cx − dx))`.
    /// Columns ascend and rows ascend within each, which is the
    /// stencil's own `(dx, dy)` order, so the first hit is the site a
    /// walk of `a`'s whole stencil, tested against `b`, would find.
    /// The origin is never in the overlap, since `b` is out of range.
    fn lens_hit(&self, a: Site, b: Site, usable: &[bool], scratch: &mut BfsScratch) -> Option<u32> {
        let r = (self.half_heights.len() / 2) as i32;
        let h = |cx: i32| self.half_heights[(cx + r) as usize];
        let (dx, dy) = (b.x - a.x, b.y - a.y);
        let (w, ht) = (self.width as i32, self.height as i32);
        let x_lo = (-r).max(dx - r).max(-a.x);
        let x_hi = r.min(dx + r).min(w - 1 - a.x);
        for cx in x_lo..=x_hi {
            let (ha, hb) = (h(cx), h(cx - dx));
            let y_lo = (-ha).max(dy - hb).max(-a.y);
            let y_hi = ha.min(dy + hb).min(ht - 1 - a.y);
            let column = (a.x + cx) as usize;
            for cy in y_lo..=y_hi {
                let ci = (a.y + cy) as usize * w as usize + column;
                scratch.lens_probes += 1;
                if usable[ci] {
                    return Some(ci as u32);
                }
            }
        }
        None
    }

    /// The BFS kernel of [`InteractionGraph::hop_distance`]: shortest
    /// hop count from `ai` to `bi`, distinct and out of each other's
    /// range, over CSR neighbors `usable` admits. It stops at the first
    /// discovered site within the MID of `bi` rather than at `bi`
    /// itself: BFS discovers sites level by level, so that site lies on
    /// a shortest path, one hop short of the goal. Walking its parents
    /// back to `ai` gives the path witness, whose length is the answer
    /// less one. Kept out of line as the symbol CI checks the
    /// function-alignment pin (the repo's `.cargo/config.toml`) on.
    #[inline(never)]
    fn bfs_hop_distance(
        &self,
        ai: usize,
        bi: usize,
        usable: &[bool],
        scratch: &mut BfsScratch,
    ) -> Option<u32> {
        let goal = self.sites[bi];
        scratch.begin(self.num_sites());
        scratch.visit(ai);
        scratch.queue.push_back(ai as u32);
        while let Some(s) = scratch.queue.pop_front() {
            for &n in self.neighbors(s as usize) {
                if scratch.is_visited(n as usize) || !usable[n as usize] {
                    continue;
                }
                if self.sites[n as usize].within(goal, self.mid) {
                    let path = &mut scratch.path;
                    path.push(n);
                    let mut at = s;
                    while at as usize != ai {
                        path.push(at);
                        at = scratch.prev[at as usize];
                    }
                    path.reverse();
                    return Some(path.len() as u32 + 1);
                }
                scratch.visit(n as usize);
                scratch.prev[n as usize] = s;
                scratch.queue.push_back(n);
            }
        }
        None
    }

    /// One deterministic BFS hop of the atom at `from` toward `goal`
    /// over the sites `usable` admits, avoiding `blocked` sites as
    /// destinations (the goal itself is exempt while still an
    /// intermediate waypoint). Returns the next site on a shortest hop
    /// path, or `None` if `goal` is unreachable or `from` is already
    /// there.
    ///
    /// This is the router's forced hop. The BFS expands neighbors in
    /// ascending `Site` order and walks back along first-found
    /// predecessors, so the hop is deterministic.
    pub fn hop_toward(
        &self,
        from: Site,
        goal: Site,
        blocked: &[Site],
        usable: &[bool],
        scratch: &mut BfsScratch,
    ) -> Option<Site> {
        debug_assert_eq!(usable.len(), self.num_sites(), "mask sized to the grid");
        if from == goal {
            return None;
        }
        let fi = self.index_of(from)?;
        let gi = self.index_of(goal)?;
        if !usable[fi] {
            return None;
        }
        scratch.begin(self.num_sites());
        scratch.visit(fi);
        scratch.prev[fi] = fi as u32;
        scratch.queue.push_back(fi as u32);
        let mut found = false;
        'bfs: while let Some(s) = scratch.queue.pop_front() {
            if s as usize == gi {
                found = true;
                break 'bfs;
            }
            for &n in self.neighbors(s as usize) {
                if scratch.is_visited(n as usize) || !usable[n as usize] {
                    continue;
                }
                let site = self.site_at(n as usize);
                if n as usize != gi && blocked.contains(&site) {
                    continue;
                }
                scratch.visit(n as usize);
                scratch.prev[n as usize] = s;
                scratch.queue.push_back(n);
            }
        }
        if !found {
            return None;
        }
        // Walk back from the goal to the hop adjacent to `from`.
        let mut cur = gi;
        while scratch.prev[cur] as usize != fi {
            cur = scratch.prev[cur] as usize;
        }
        let hop = self.site_at(cur);
        if blocked.contains(&hop) {
            return None;
        }
        Some(hop)
    }
}

/// Reusable BFS working memory: epoch-stamped visited marks, a
/// predecessor array, the frontier queue, and the path witness of the
/// last [`InteractionGraph::hop_distance`] answer. `begin` resets in
/// O(1) by bumping the epoch instead of clearing. It also keeps the
/// work counters of every query run through it.
#[derive(Debug, Clone, Default)]
pub struct BfsScratch {
    mark: Vec<u32>,
    epoch: u32,
    prev: Vec<u32>,
    queue: VecDeque<u32>,
    path: Vec<u32>,
    visits: u64,
    lens_probes: u64,
}

impl BfsScratch {
    /// Fresh scratch; buffers grow to the graph size on first use.
    pub fn new() -> Self {
        BfsScratch::default()
    }

    /// Cumulative count of node expansions across every search this
    /// scratch has run. Never reset by `begin`, so instrumentation can
    /// read it before and after a search and record the delta.
    #[inline]
    pub fn expansions(&self) -> u64 {
        self.visits
    }

    /// Cumulative count of sites the distance-2 lens test of
    /// [`InteractionGraph::hop_distance`] has tested inside the overlap
    /// of its two MID discs, read the same way as
    /// [`BfsScratch::expansions`] (which counts BFS visits only).
    #[inline]
    pub fn lens_probes(&self) -> u64 {
        self.lens_probes
    }

    /// The path witness of the last [`InteractionGraph::hop_distance`]
    /// query: for a distance `k ≥ 2`, the flat indices of the `k − 1`
    /// interior sites of one shortest path, in order from `a`'s side
    /// to `b`'s. Each is usable, each lies within the MID of the next,
    /// the first within the MID of `a` and the last within the MID of
    /// `b`. Empty after any other answer.
    #[inline]
    pub fn path(&self) -> &[u32] {
        &self.path
    }

    fn begin(&mut self, num_sites: usize) {
        if self.mark.len() < num_sites {
            self.mark.resize(num_sites, 0);
            self.prev.resize(num_sites, NONE);
        }
        self.queue.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: stale marks could alias; hard-reset once
            // every 2^32 searches.
            self.mark.fill(0);
            self.epoch = 1;
        }
    }

    #[inline]
    fn visit(&mut self, index: usize) {
        self.mark[index] = self.epoch;
        self.visits += 1;
    }

    #[inline]
    fn is_visited(&self, index: usize) -> bool {
        self.mark[index] == self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_grid(rng: &mut StdRng, w: u32, h: u32, holes: usize) -> Grid {
        let mut g = Grid::new(w, h);
        for _ in 0..holes {
            let s = Site::new(rng.gen_range(0..w as i32), rng.gen_range(0..h as i32));
            if g.is_usable(s) {
                g.remove_atom(s);
            }
        }
        g
    }

    /// The naive reference model of a holey device: an O(sites²) scan
    /// for the usable sites within `mid` of `site`, ascending.
    fn naive_neighbors(g: &Grid, site: Site, mid: f64) -> Vec<Site> {
        if !g.is_usable(site) {
            return Vec::new();
        }
        let mut out: Vec<Site> = g
            .sites()
            .filter(|&t| t != site && g.is_usable(t) && site.within(t, mid))
            .collect();
        out.sort();
        out
    }

    /// Reference BFS over [`naive_neighbors`]: the hop distance from
    /// `from` to `goal` and the first hop of the path found by
    /// expanding neighbors in ascending order, never entering a
    /// `blocked` site other than `goal` (the rule of `hop_toward`).
    fn naive_bfs(
        g: &Grid,
        from: Site,
        goal: Site,
        mid: f64,
        blocked: &[Site],
    ) -> Option<(u32, Site)> {
        if !g.is_usable(from) || !g.is_usable(goal) {
            return None;
        }
        let mut prev: HashMap<Site, Site> = HashMap::from([(from, from)]);
        let mut queue = VecDeque::from([(from, 0u32)]);
        while let Some((s, d)) = queue.pop_front() {
            if s == goal {
                let mut hop = goal;
                while prev[&hop] != from {
                    hop = prev[&hop];
                }
                return Some((d, hop));
            }
            for n in naive_neighbors(g, s, mid) {
                if prev.contains_key(&n) || (n != goal && blocked.contains(&n)) {
                    continue;
                }
                prev.insert(n, s);
                queue.push_back((n, d + 1));
            }
        }
        None
    }

    fn usable_neighbors(graph: &InteractionGraph, g: &Grid, site: Site) -> Vec<Site> {
        if !g.is_usable(site) {
            return Vec::new();
        }
        let i = graph.index_of(site).expect("on the grid");
        graph
            .neighbors(i)
            .iter()
            .filter(|&&n| g.usable_mask()[n as usize])
            .map(|&n| graph.site_at(n as usize))
            .collect()
    }

    /// Runs `check` on 12 random 8x7 grids with up to `holes` holes ×
    /// MIDs {1, 2, 3, 4.4}, each with its hole-free graph for that MID.
    fn for_each_case(
        seed: u64,
        holes: usize,
        mut check: impl FnMut(&Grid, f64, &InteractionGraph, &mut StdRng),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..12 {
            let g = random_grid(&mut rng, 8, 7, holes);
            for &mid in &[1.0, 2.0, 3.0, 4.4] {
                check(&g, mid, &InteractionGraph::build(&g, mid), &mut rng);
            }
        }
    }

    fn random_site(rng: &mut StdRng) -> Site {
        Site::new(rng.gen_range(0..8), rng.gen_range(0..7))
    }

    #[test]
    fn csr_neighbors_match_grid_scan_exactly() {
        // Mask-filtered neighbor lists equal the naive scan, in order.
        for_each_case(21, 10, |g, mid, graph, _| {
            for site in g.sites() {
                assert_eq!(
                    usable_neighbors(graph, g, site),
                    naive_neighbors(g, site, mid),
                    "neighbors of {site} at MID {mid}\n{g}"
                );
            }
        });
    }

    #[test]
    fn hop_distance_matches_grid_bfs() {
        // Hole-free grids: the all-usable mask.
        for_each_case(22, 0, |g, mid, graph, rng| {
            let mut scratch = BfsScratch::new();
            for _ in 0..24 {
                let (a, b) = (random_site(rng), random_site(rng));
                assert_eq!(
                    graph.hop_distance(a, b, g.usable_mask(), &mut scratch),
                    naive_bfs(g, a, b, mid, &[]).map(|(d, _)| d),
                    "{a}->{b} at MID {mid}"
                );
            }
        });
    }

    #[test]
    fn masked_hop_distance_matches_holey_rebuild() {
        // One hole-free graph plus the hole mask answers exactly as the
        // naive model of the holey grid.
        for_each_case(23, 10, |g, mid, graph, rng| {
            let mut scratch = BfsScratch::new();
            for _ in 0..24 {
                let (a, b) = (random_site(rng), random_site(rng));
                assert_eq!(
                    graph.hop_distance(a, b, g.usable_mask(), &mut scratch),
                    naive_bfs(g, a, b, mid, &[]).map(|(d, _)| d),
                    "{a}->{b} at MID {mid}\n{g}"
                );
            }
        });
    }

    #[test]
    fn hop_toward_matches_naive_reference() {
        // Forced hops on holey grids, with and without blockers.
        for_each_case(24, 10, |g, mid, graph, rng| {
            let mut scratch = BfsScratch::new();
            for _ in 0..24 {
                let (a, b) = (random_site(rng), random_site(rng));
                let blocked: Vec<Site> = (0..rng.gen_range(0..4usize))
                    .map(|_| random_site(rng))
                    .collect();
                for blocked in [&[][..], &blocked[..]] {
                    let expect = naive_bfs(g, a, b, mid, blocked)
                        .filter(|_| a != b)
                        .map(|(_, hop)| hop)
                        .filter(|hop| !blocked.contains(hop));
                    assert_eq!(
                        graph.hop_toward(a, b, blocked, g.usable_mask(), &mut scratch),
                        expect,
                        "hop {a}->{b} blocked {blocked:?} at MID {mid}\n{g}"
                    );
                }
            }
        });
    }

    #[test]
    fn lens_and_bfs_match_naive_bfs_on_every_pair() {
        // Every ordered pair of sites, hole endpoints included, on
        // random holey grids: the lens shortcut (distance 2) and the
        // BFS kernel (distance ≥ 3, disconnected) answer as the naive
        // reference does, and every answer of k ≥ 2 hops carries a path
        // witness: k − 1 usable interior sites, each within the MID of
        // the next, the first within the MID of a, the last of b.
        let mut rng = StdRng::seed_from_u64(25);
        let mut seen = [0usize; 5]; // 1, 2, 3, ≥4, None
        for round in 0..6 {
            let g = random_grid(&mut rng, 6, 5, 2 * round);
            for &mid in &[1.0, 2.0, 3.0, 4.0, 4.4] {
                let graph = InteractionGraph::build(&g, mid);
                let mut scratch = BfsScratch::new();
                for a in g.sites() {
                    for b in g.sites() {
                        let expect = naive_bfs(&g, a, b, mid, &[]).map(|(d, _)| d);
                        let got = graph.hop_distance(a, b, g.usable_mask(), &mut scratch);
                        assert_eq!(got, expect, "{a}->{b} at MID {mid}\n{g}");
                        let path: Vec<Site> = scratch
                            .path()
                            .iter()
                            .map(|&i| graph.site_at(i as usize))
                            .collect();
                        let interior = got.map_or(0, |k| k.max(1) as usize - 1);
                        assert_eq!(path.len(), interior, "{a}->{b} at MID {mid}: {path:?}");
                        let walk: Vec<Site> = [a].into_iter().chain(path).chain([b]).collect();
                        if interior > 0 {
                            assert!(walk[1..=interior].iter().all(|&c| g.is_usable(c)));
                            assert!(
                                walk.windows(2).all(|w| w[0].within(w[1], mid)),
                                "{a}->{b} at MID {mid}: {walk:?}\n{g}"
                            );
                        }
                        match expect {
                            Some(0) => {}
                            Some(d) => seen[d.min(4) as usize - 1] += 1,
                            None => seen[4] += 1,
                        }
                    }
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "distance classes {seen:?}");
    }

    /// The full-stencil lens scan the overlap scan replaced: the first
    /// usable neighbor of `a`, in stencil order, within the MID of `b`,
    /// counting every neighbor it tests as one probe.
    fn lens_hit_reference(
        graph: &InteractionGraph,
        a: Site,
        b: Site,
        usable: &[bool],
        probes: &mut u64,
    ) -> Option<u32> {
        for &(dx, dy) in graph.stencil() {
            let c = Site::new(a.x + dx, a.y + dy);
            let Some(ci) = graph.index_of(c) else {
                continue;
            };
            *probes += 1;
            if usable[ci] && c.within(b, graph.mid()) {
                return Some(ci as u32);
            }
        }
        None
    }

    #[test]
    fn lens_overlap_scan_finds_the_reference_witness() {
        // Every ordered out-of-range pair of random holey grids, at
        // MIDs whose discs have flat, pointed and clamped rims (the
        // last MID exceeds the grid's larger side by 1.5, so its
        // stencil clamps to the grid, yet corners stay out of range):
        // the overlap scan returns the full-stencil scan's site (or
        // none), never probing more sites than it.
        let mut rng = StdRng::seed_from_u64(26);
        let (mut hits, mut misses, mut clamped_pairs) = (0usize, 0usize, 0usize);
        for (round, (w, h)) in [(10, 10), (9, 8), (8, 8), (10, 9), (6, 5), (7, 3)]
            .into_iter()
            .enumerate()
        {
            let g = random_grid(&mut rng, w, h, round * (w * h) as usize / 8);
            let clamped = w.max(h) as f64 + 1.5;
            for mid in [1.0, 1.5, 2f64.sqrt(), 2.0, 2.3, 3.0, 4.0, clamped] {
                let graph = InteractionGraph::build(&g, mid);
                let mut scratch = BfsScratch::new();
                for a in g.sites() {
                    for b in g.sites().filter(|&b| !a.within(b, mid)) {
                        let mut reference_probes = 0;
                        let expect = lens_hit_reference(
                            &graph,
                            a,
                            b,
                            g.usable_mask(),
                            &mut reference_probes,
                        );
                        let before = scratch.lens_probes();
                        let got = graph.lens_hit(a, b, g.usable_mask(), &mut scratch);
                        assert_eq!(got, expect, "{a}->{b} at MID {mid}\n{g}");
                        let probes = scratch.lens_probes() - before;
                        assert!(
                            probes <= reference_probes,
                            "{a}->{b} at MID {mid}: {probes} > {reference_probes} probes"
                        );
                        match got {
                            Some(_) => hits += 1,
                            None => misses += 1,
                        }
                        clamped_pairs += usize::from(mid == clamped);
                    }
                }
            }
        }
        assert!(
            hits > 1000 && misses > 1000 && clamped_pairs > 20,
            "{hits} hits, {misses} misses, {clamped_pairs} clamped-MID pairs"
        );
    }

    #[test]
    fn lens_never_passes_through_a_hole() {
        // (0,0) and (2,0) at MID 1: their only common neighbor (1,0) is
        // a hole, so the pair is not 2 hops apart.
        let mut g = Grid::new(3, 2);
        g.remove_atom(Site::new(1, 0));
        let graph = InteractionGraph::build(&g, 1.0);
        let mut scratch = BfsScratch::new();
        let (a, b) = (Site::new(0, 0), Site::new(2, 0));
        // Around through the second row: 4 hops.
        assert_eq!(
            graph.hop_distance(a, b, g.usable_mask(), &mut scratch),
            Some(4)
        );
        let path: Vec<Site> = scratch
            .path()
            .iter()
            .map(|&i| graph.site_at(i as usize))
            .collect();
        assert_eq!(path, [Site::new(0, 1), Site::new(1, 1), Site::new(2, 1)]);
        assert!(scratch.lens_probes() > 0);
        // Without the second row there is no way around at all.
        let mut g = Grid::new(3, 1);
        g.remove_atom(Site::new(1, 0));
        assert_eq!(
            InteractionGraph::build(&g, 1.0).hop_distance(a, b, g.usable_mask(), &mut scratch),
            None
        );
    }

    #[test]
    fn lens_answers_distance_two_without_a_bfs() {
        let g = Grid::new(5, 5);
        let graph = InteractionGraph::build(&g, 1.0);
        let mut scratch = BfsScratch::new();
        let mut hops = |b| graph.hop_distance(Site::new(0, 0), b, g.usable_mask(), &mut scratch);
        assert_eq!(hops(Site::new(1, 1)), Some(2));
        // Out of the lens's reach (|ab| > 2·MID): straight to the BFS.
        assert_eq!(hops(Site::new(4, 4)), Some(8));
        // One lens scan, then BFS visits for the second pair only.
        let mut first = BfsScratch::new();
        graph.hop_distance(
            Site::new(0, 0),
            Site::new(1, 1),
            g.usable_mask(),
            &mut first,
        );
        assert_eq!(first.expansions(), 0, "no BFS visit");
        assert!(first.lens_probes() > 0);
        assert_eq!(scratch.lens_probes(), first.lens_probes());
        assert!(scratch.expansions() > 0);
    }

    #[test]
    fn huge_mid_clamps_to_the_grid() {
        // 13 > the 10x10 diagonal, so both MIDs are all-to-all.
        let grid = Grid::new(10, 10);
        let (huge, exact) = (
            InteractionGraph::build(&grid, 1e6),
            InteractionGraph::build(&grid, 13.0),
        );
        for i in 0..grid.num_sites() {
            assert_eq!(huge.neighbors(i), exact.neighbors(i), "site {i}");
            assert_eq!(huge.neighbors(i).len(), grid.num_sites() - 1);
        }
    }

    #[test]
    fn hop_distance_routes_around_holes() {
        let mut g = Grid::new(3, 3);
        // Wall of holes across the middle column except the top.
        g.remove_atom(Site::new(1, 1));
        g.remove_atom(Site::new(1, 2));
        let graph = InteractionGraph::build(&g, 1.0);
        let mut scratch = BfsScratch::new();
        let (a, b) = (Site::new(0, 2), Site::new(2, 2));
        // Up the left column, over the top, down the right: 6 hops.
        assert_eq!(
            graph.hop_distance(a, b, g.usable_mask(), &mut scratch),
            Some(6)
        );
        assert_eq!(
            graph.hop_toward(a, b, &[], g.usable_mask(), &mut scratch),
            Some(Site::new(0, 1))
        );
    }

    #[test]
    fn hop_toward_advances_along_bfs_path() {
        let grid = Grid::new(6, 1);
        let graph = InteractionGraph::build(&grid, 2.0);
        let (from, goal) = (Site::new(0, 0), Site::new(5, 0));
        let hop = graph
            .hop_toward(from, goal, &[], grid.usable_mask(), &mut BfsScratch::new())
            .unwrap();
        assert!(from.within(hop, 2.0), "hop within MID");
        assert!(
            hop.distance(goal) < from.distance(goal),
            "hop makes progress"
        );
    }

    #[test]
    fn hop_toward_respects_blocked_sites() {
        let grid = Grid::new(6, 1);
        let graph = InteractionGraph::build(&grid, 2.0);
        let hop = graph.hop_toward(
            Site::new(0, 0),
            Site::new(5, 0),
            &[Site::new(2, 0)],
            grid.usable_mask(),
            &mut BfsScratch::new(),
        );
        assert_eq!(hop, Some(Site::new(1, 0)));
    }

    #[test]
    fn hop_toward_none_at_goal_or_unreachable() {
        let mut grid = Grid::new(5, 1);
        let graph = InteractionGraph::build(&grid, 1.0);
        let mut scratch = BfsScratch::new();
        let (a, mid, b) = (Site::new(0, 0), Site::new(2, 0), Site::new(4, 0));
        assert_eq!(
            graph.hop_toward(mid, mid, &[], grid.usable_mask(), &mut scratch),
            None
        );
        grid.remove_atom(mid);
        assert_eq!(
            graph.hop_toward(a, b, &[], grid.usable_mask(), &mut scratch),
            None
        );
        // A hole is never a destination, even as the goal itself.
        assert_eq!(
            graph.hop_toward(Site::new(1, 0), mid, &[], grid.usable_mask(), &mut scratch),
            None
        );
    }

    #[test]
    fn out_of_bounds_lookups_are_none() {
        let g = Grid::new(3, 3);
        let graph = InteractionGraph::build(&g, 1.0);
        assert_eq!(graph.index_of(Site::new(-1, 0)), None);
        assert_eq!(graph.index_of(Site::new(3, 0)), None);
        let mut scratch = BfsScratch::new();
        assert_eq!(
            graph.hop_distance(
                Site::new(0, 0),
                Site::new(9, 9),
                g.usable_mask(),
                &mut scratch
            ),
            None
        );
    }

    #[test]
    fn cached_returns_shared_graphs() {
        let g = Grid::new(4, 4);
        let a = InteractionGraph::cached(&g, 2.0);
        let b = InteractionGraph::cached(&g, 2.0);
        assert!(Arc::ptr_eq(&a, &b));
        let c = InteractionGraph::cached(&g, 3.0);
        assert!(!Arc::ptr_eq(&a, &c));
        // Holes never enter the key: every hole pattern of the device
        // (each loss-driven recompile) shares the full device's graph.
        let mut holey = Grid::new(4, 4);
        holey.remove_atom(Site::new(1, 1));
        holey.remove_atom(Site::new(3, 0));
        assert!(Arc::ptr_eq(&InteractionGraph::cached(&holey, 2.0), &a));
        assert!(!Arc::ptr_eq(
            &InteractionGraph::cached(&Grid::new(4, 5), 2.0),
            &a
        ));
    }

    #[test]
    fn scratch_epochs_do_not_leak_between_searches() {
        let g = Grid::new(6, 1);
        let graph = InteractionGraph::build(&g, 1.0);
        let mut scratch = BfsScratch::new();
        for _ in 0..100 {
            assert_eq!(
                graph.hop_distance(
                    Site::new(0, 0),
                    Site::new(5, 0),
                    g.usable_mask(),
                    &mut scratch
                ),
                Some(5)
            );
        }
    }
}
