//! Bidirectional program-qubit ↔ trap-site mapping.

use na_arch::Site;
use na_circuit::Qubit;

/// Sentinel for "no qubit" in the flat site table.
const EMPTY: u32 = u32::MAX;

/// The placement `φ` from program qubits to trap sites, maintained
/// bidirectionally so the router can ask both "where is qubit u?" and
/// "who occupies site h?".
///
/// Both directions are flat arrays: `q2s` indexed by qubit, and a
/// dense row-major site table sized to the device when the map is made
/// ([`QubitMap::with_extent`]), so the `site_of`/`qubit_at`/`swap_sites`
/// hot path of the router never touches a hash map and never grows.
///
/// # Example
///
/// ```
/// use na_arch::Site;
/// use na_circuit::Qubit;
/// use na_core::QubitMap;
///
/// let mut map = QubitMap::with_extent(2, 4, 4);
/// map.assign(Qubit(0), Site::new(0, 0));
/// map.assign(Qubit(1), Site::new(1, 0));
/// map.swap_sites(Site::new(0, 0), Site::new(1, 0));
/// assert_eq!(map.site_of(Qubit(0)), Some(Site::new(1, 0)));
/// ```
#[derive(Debug, Clone)]
pub struct QubitMap {
    q2s: Vec<Option<Site>>,
    /// Dense `extent_w × extent_h` row-major table of occupants
    /// (`EMPTY` = free). Sites outside it are free and cannot hold a
    /// qubit.
    s2q: Vec<u32>,
    extent_w: i32,
    extent_h: i32,
}

impl PartialEq for QubitMap {
    /// Two maps are equal iff they place the same qubits on the same
    /// sites; the site-table extent is a capacity detail.
    fn eq(&self, other: &Self) -> bool {
        self.q2s == other.q2s
    }
}

impl QubitMap {
    /// Creates an empty mapping of `num_qubits` program qubits onto a
    /// `width × height` device.
    pub fn with_extent(num_qubits: u32, width: u32, height: u32) -> Self {
        QubitMap {
            q2s: vec![None; num_qubits as usize],
            s2q: vec![EMPTY; width as usize * height as usize],
            extent_w: width as i32,
            extent_h: height as i32,
        }
    }

    /// Number of program qubits this map covers.
    pub fn num_qubits(&self) -> u32 {
        self.q2s.len() as u32
    }

    /// The site of every qubit, by qubit index: the whole of the
    /// mapping's identity (see the `PartialEq` impl).
    pub(crate) fn sites(&self) -> &[Option<Site>] {
        &self.q2s
    }

    /// Number of qubits currently placed.
    #[cfg(test)]
    pub(crate) fn mapped_count(&self) -> usize {
        self.q2s.iter().filter(|s| s.is_some()).count()
    }

    #[inline]
    fn site_index(&self, site: Site) -> Option<usize> {
        if site.x < 0 || site.y < 0 || site.x >= self.extent_w || site.y >= self.extent_h {
            return None;
        }
        Some(site.y as usize * self.extent_w as usize + site.x as usize)
    }

    /// The table slot of `site`, which must hold a qubit.
    fn slot(&self, site: Site) -> usize {
        self.site_index(site).unwrap_or_else(|| {
            panic!(
                "site {site} is off the {}x{} device",
                self.extent_w, self.extent_h
            )
        })
    }

    /// The site holding `q`, if placed.
    #[inline]
    pub fn site_of(&self, q: Qubit) -> Option<Site> {
        self.q2s.get(q.index()).copied().flatten()
    }

    /// The program qubit at `site`, if occupied.
    #[inline]
    pub fn qubit_at(&self, site: Site) -> Option<Qubit> {
        match self.site_index(site) {
            Some(i) if self.s2q[i] != EMPTY => Some(Qubit(self.s2q[i])),
            _ => None,
        }
    }

    /// `true` if no program qubit occupies `site`.
    #[inline]
    pub fn is_free(&self, site: Site) -> bool {
        self.qubit_at(site).is_none()
    }

    /// Places `q` at `site`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is already placed, `site` is occupied or off the
    /// device, or `q` is out of range.
    pub fn assign(&mut self, q: Qubit, site: Site) {
        assert!(q.index() < self.q2s.len(), "qubit {q} out of range");
        assert!(self.q2s[q.index()].is_none(), "qubit {q} already placed");
        assert!(self.is_free(site), "site {site} already occupied");
        let i = self.slot(site);
        self.q2s[q.index()] = Some(site);
        self.s2q[i] = q.0;
    }

    /// Exchanges the occupants of two sites (either may be empty); this
    /// is the mapping effect of a SWAP gate.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`, or if a qubit would move off the device.
    pub fn swap_sites(&mut self, a: Site, b: Site) {
        assert_ne!(a, b, "cannot swap a site with itself");
        let qa = self.qubit_at(a);
        let qb = self.qubit_at(b);
        if let Some(i) = self.site_index(a) {
            self.s2q[i] = EMPTY;
        }
        if let Some(i) = self.site_index(b) {
            self.s2q[i] = EMPTY;
        }
        if let Some(q) = qa {
            let i = self.slot(b);
            self.q2s[q.index()] = Some(b);
            self.s2q[i] = q.0;
        }
        if let Some(q) = qb {
            let i = self.slot(a);
            self.q2s[q.index()] = Some(a);
            self.s2q[i] = q.0;
        }
    }

    /// Every placed qubit with its site, in ascending qubit order.
    pub fn iter(&self) -> impl Iterator<Item = (Qubit, Site)> + '_ {
        self.q2s
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|site| (Qubit(i as u32), site)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_and_lookup() {
        let mut m = QubitMap::with_extent(3, 4, 4);
        m.assign(Qubit(0), Site::new(2, 2));
        assert_eq!(m.site_of(Qubit(0)), Some(Site::new(2, 2)));
        assert_eq!(m.qubit_at(Site::new(2, 2)), Some(Qubit(0)));
        assert_eq!(m.site_of(Qubit(1)), None);
        assert!(m.is_free(Site::new(0, 0)));
        assert!(!m.is_free(Site::new(2, 2)));
        assert_eq!(m.mapped_count(), 1);
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_occupancy_panics() {
        let mut m = QubitMap::with_extent(2, 4, 4);
        m.assign(Qubit(0), Site::new(0, 0));
        m.assign(Qubit(1), Site::new(0, 0));
    }

    #[test]
    #[should_panic(expected = "already placed")]
    fn double_placement_panics() {
        let mut m = QubitMap::with_extent(2, 4, 4);
        m.assign(Qubit(0), Site::new(0, 0));
        m.assign(Qubit(0), Site::new(1, 0));
    }

    #[test]
    fn swap_occupied_sites() {
        let mut m = QubitMap::with_extent(2, 4, 4);
        m.assign(Qubit(0), Site::new(0, 0));
        m.assign(Qubit(1), Site::new(1, 0));
        m.swap_sites(Site::new(0, 0), Site::new(1, 0));
        assert_eq!(m.site_of(Qubit(0)), Some(Site::new(1, 0)));
        assert_eq!(m.site_of(Qubit(1)), Some(Site::new(0, 0)));
    }

    #[test]
    fn swap_with_empty_site_moves_qubit() {
        let mut m = QubitMap::with_extent(1, 6, 6);
        m.assign(Qubit(0), Site::new(0, 0));
        m.swap_sites(Site::new(0, 0), Site::new(5, 5));
        assert_eq!(m.site_of(Qubit(0)), Some(Site::new(5, 5)));
        assert!(m.is_free(Site::new(0, 0)));
    }

    #[test]
    fn swap_two_empty_sites_is_noop() {
        let mut m = QubitMap::with_extent(1, 6, 6);
        m.swap_sites(Site::new(0, 0), Site::new(1, 1));
        assert_eq!(m.mapped_count(), 0);
    }

    #[test]
    fn iter_yields_placed_qubits_ascending() {
        let mut m = QubitMap::with_extent(4, 4, 4);
        m.assign(Qubit(2), Site::new(3, 1));
        m.assign(Qubit(0), Site::new(0, 0));
        let placed: Vec<_> = m.iter().collect();
        assert_eq!(
            placed,
            vec![(Qubit(0), Site::new(0, 0)), (Qubit(2), Site::new(3, 1))]
        );
    }

    #[test]
    fn presized_extent_never_regrows_lookups() {
        let mut m = QubitMap::with_extent(2, 10, 10);
        m.assign(Qubit(0), Site::new(9, 9));
        m.assign(Qubit(1), Site::new(0, 0));
        m.swap_sites(Site::new(9, 9), Site::new(0, 0));
        assert_eq!(m.qubit_at(Site::new(0, 0)), Some(Qubit(0)));
        assert_eq!(m.qubit_at(Site::new(9, 9)), Some(Qubit(1)));
        // Out-of-extent sites are simply free.
        assert!(m.is_free(Site::new(50, 50)));
        assert_eq!(m.qubit_at(Site::new(-1, 0)), None);
    }

    #[test]
    #[should_panic(expected = "off the 4x4 device")]
    fn moving_a_qubit_off_the_device_panics() {
        let mut m = QubitMap::with_extent(1, 4, 4);
        m.assign(Qubit(0), Site::new(3, 3));
        m.swap_sites(Site::new(3, 3), Site::new(4, 3));
    }

    #[test]
    fn equality_ignores_extent() {
        let mut a = QubitMap::with_extent(2, 10, 10);
        let mut b = QubitMap::with_extent(2, 4, 4);
        a.assign(Qubit(0), Site::new(3, 2));
        b.assign(Qubit(0), Site::new(3, 2));
        assert_eq!(a, b);
        b.swap_sites(Site::new(3, 2), Site::new(0, 0));
        assert_ne!(a, b);
    }
}
