//! Golden-determinism regression tests for the initial placement.
//!
//! The placement fast-path overhaul (free-site list, branch-and-bound
//! site scan with a Chebyshev-bbox lower bound, lazily cached
//! weight-to-mapped ordering) carries the same byte-identical output
//! contract as the scheduler overhaul: every placement must match the
//! pre-overhaul greedy placer exactly. These digests were recorded
//! from the benchmark suite with the O(n² · sites) placer *before* the
//! fast path landed, through [`na_core::placement_digest`]; any
//! placement change — a pruned site that would have won, a reordered
//! scan, a float reassociation in the weight-to-mapped ordering —
//! flips a digest here.
//!
//! MID 1 runs with multiqubit gates lowered (native Toffolis are
//! unroutable below MID √2), exactly like the schedule digests.

mod common;

use na_arch::{Grid, Site};
use na_benchmarks::Benchmark;
use na_core::{initial_layout, placement_digest, CompilerConfig};

/// `(benchmark, size budget, mid, digest)` recorded from the greedy
/// placer at the parent of the fast-path commit.
const GOLDEN: &[(Benchmark, u32, f64, u64)] = &[
    (Benchmark::Bv, 16, 1.0, 0x3e6aa6015abe0fc4),
    (Benchmark::Bv, 16, 2.0, 0x3e6aa6015abe0fc4),
    (Benchmark::Bv, 16, 3.0, 0x3e6aa6015abe0fc4),
    (Benchmark::Bv, 40, 1.0, 0x8022df99938062c2),
    (Benchmark::Bv, 40, 2.0, 0x8022df99938062c2),
    (Benchmark::Bv, 40, 3.0, 0x8022df99938062c2),
    (Benchmark::Cnu, 16, 1.0, 0xc8ebbb1d29524f69),
    (Benchmark::Cnu, 16, 2.0, 0x147378989b12618b),
    (Benchmark::Cnu, 16, 3.0, 0x147378989b12618b),
    (Benchmark::Cnu, 40, 1.0, 0xc989a3d60eb51749),
    (Benchmark::Cnu, 40, 2.0, 0xa125c62724e44748),
    (Benchmark::Cnu, 40, 3.0, 0xa125c62724e44748),
    (Benchmark::Cuccaro, 16, 1.0, 0xf076e58b4606ec26),
    (Benchmark::Cuccaro, 16, 2.0, 0xf73cfbea3769430c),
    (Benchmark::Cuccaro, 16, 3.0, 0xf73cfbea3769430c),
    (Benchmark::Cuccaro, 40, 1.0, 0x0e2cf00cccc6f108),
    (Benchmark::Cuccaro, 40, 2.0, 0x10ea9a95e1709da5),
    (Benchmark::Cuccaro, 40, 3.0, 0x10ea9a95e1709da5),
    (Benchmark::QftAdder, 16, 1.0, 0xda5df4a97b21fd05),
    (Benchmark::QftAdder, 16, 2.0, 0xda5df4a97b21fd05),
    (Benchmark::QftAdder, 16, 3.0, 0xda5df4a97b21fd05),
    (Benchmark::QftAdder, 40, 1.0, 0xd9ba0bd2ed18d002),
    (Benchmark::QftAdder, 40, 2.0, 0xd9ba0bd2ed18d002),
    (Benchmark::QftAdder, 40, 3.0, 0xd9ba0bd2ed18d002),
    (Benchmark::Qaoa, 16, 1.0, 0xa0db2d5e3bf1c600),
    (Benchmark::Qaoa, 16, 2.0, 0xa0db2d5e3bf1c600),
    (Benchmark::Qaoa, 16, 3.0, 0xa0db2d5e3bf1c600),
    (Benchmark::Qaoa, 40, 1.0, 0xe6e1f28300dee964),
    (Benchmark::Qaoa, 40, 2.0, 0xe6e1f28300dee964),
    (Benchmark::Qaoa, 40, 3.0, 0xe6e1f28300dee964),
];

/// Digests recorded on grids *with holes* — the placement flavor the
/// loss path exercises (FullRecompile replaces onto a holey device
/// every interfering loss). Two fixed hole patterns:
///
/// * **cluster** — the 10×10 paper grid minus a 3-site cluster at the
///   center plus one outlying hole: `(4,4) (5,4) (4,5) (2,7)`;
/// * **wall** — a 12×6 grid with a 4-site vertical wall at x = 6
///   (`y = 1..=4`), which forces placements to route around it at
///   small MIDs.
///
/// Recorded from the digest-pinned placer before any further placement
/// change; the randomized fast-vs-reference differential tests in
/// `na_core::placement` cover arbitrary hole patterns, these pin two
/// forever.
const GOLDEN_CLUSTER: &[(Benchmark, u32, f64, u64)] = &[
    (Benchmark::Bv, 16, 3.0, 0x5a11eaac8bf12f45),
    (Benchmark::Bv, 30, 3.0, 0xa7d1487ec6e566c3),
    (Benchmark::Cnu, 16, 3.0, 0xf4c996ea52d96689),
    (Benchmark::Cnu, 30, 3.0, 0xb03f12644f95a51d),
    (Benchmark::Cuccaro, 16, 3.0, 0x81268cb40c77ad0c),
    (Benchmark::Cuccaro, 30, 3.0, 0xef9a0283edf30447),
    (Benchmark::QftAdder, 16, 3.0, 0x2bb672f503633724),
    (Benchmark::QftAdder, 30, 3.0, 0x2f08842705838ac6),
    (Benchmark::Qaoa, 16, 3.0, 0xee386c596eefd2e0),
    (Benchmark::Qaoa, 30, 3.0, 0xa1e261aad7329160),
];

const GOLDEN_WALL: &[(Benchmark, u32, f64, u64)] = &[
    (Benchmark::Bv, 16, 1.0, 0x55b0d70899c17f45),
    (Benchmark::Bv, 16, 3.0, 0x55b0d70899c17f45),
    (Benchmark::Cnu, 16, 1.0, 0xf2a1107befa96d22),
    (Benchmark::Cnu, 16, 3.0, 0x854f0c80b61fc8e0),
    (Benchmark::Cuccaro, 16, 1.0, 0x3d53d12342332ee3),
    (Benchmark::Cuccaro, 16, 3.0, 0xf086906d5370dfc4),
    (Benchmark::QftAdder, 16, 1.0, 0x3770945d4bdf1b62),
    (Benchmark::QftAdder, 16, 3.0, 0x3770945d4bdf1b62),
    (Benchmark::Qaoa, 16, 1.0, 0xc78d98a350c89d42),
    (Benchmark::Qaoa, 16, 3.0, 0xc78d98a350c89d42),
];

/// The "cluster" holey device.
fn cluster_grid() -> Grid {
    let mut g = Grid::new(10, 10);
    for s in [
        Site::new(4, 4),
        Site::new(5, 4),
        Site::new(4, 5),
        Site::new(2, 7),
    ] {
        g.remove_atom(s);
    }
    g
}

/// The "wall" holey device.
fn wall_grid() -> Grid {
    let mut g = Grid::new(12, 6);
    for y in 1..=4 {
        g.remove_atom(Site::new(6, y));
    }
    g
}

fn config_for(mid: f64) -> CompilerConfig {
    let cfg = CompilerConfig::new(mid);
    if mid * mid < 2.0 {
        cfg.with_native_multiqubit(false)
    } else {
        cfg
    }
}

#[test]
fn placements_match_seed_placer_byte_for_byte() {
    let grid = Grid::new(10, 10);
    for &(benchmark, size, mid, expected) in GOLDEN {
        let circuit = benchmark.generate(size, 0);
        let map = initial_layout(&circuit, &grid, &config_for(mid)).expect("places");
        assert_eq!(
            placement_digest(&map),
            expected,
            "{benchmark} size {size} at MID {mid} diverged from the seed placer"
        );
    }
}

#[test]
fn holey_grid_placements_match_recorded_digests() {
    // Guards the loss-path placement (holey-device recompilation)
    // before anyone touches it: the fast path must keep producing
    // exactly these maps, and must keep agreeing with the in-tree
    // reference placer on the same inputs.
    for (grid, golden) in [(cluster_grid(), GOLDEN_CLUSTER), (wall_grid(), GOLDEN_WALL)] {
        for &(benchmark, size, mid, expected) in golden {
            let circuit = benchmark.generate(size, 0);
            let cfg = config_for(mid);
            let map = initial_layout(&circuit, &grid, &cfg).expect("places on the holey grid");
            assert_eq!(
                placement_digest(&map),
                expected,
                "{benchmark} size {size} at MID {mid} on {}x{} ({} holes) diverged",
                grid.width(),
                grid.height(),
                grid.num_holes()
            );
            let lowered = na_core::lower_for(&circuit, &cfg);
            let weights = na_core::circuit_weights(&lowered, cfg.lookahead_depth);
            let reference = common::initial_placement_reference(&lowered, &grid, &weights)
                .expect("reference places on the holey grid");
            assert_eq!(
                placement_digest(&reference),
                expected,
                "{benchmark} size {size} at MID {mid}: fast path and reference disagree"
            );
        }
    }
}

#[test]
fn holey_digests_differ_from_full_grid_digests() {
    // The holes must actually matter: the cluster grid's digests and
    // the full 10x10 digests disagree for programs big enough to
    // collide with the holes.
    let full = Grid::new(10, 10);
    let holey = cluster_grid();
    let circuit = Benchmark::Qaoa.generate(30, 0);
    let cfg = config_for(3.0);
    let a = placement_digest(&initial_layout(&circuit, &full, &cfg).unwrap());
    let b = placement_digest(&initial_layout(&circuit, &holey, &cfg).unwrap());
    assert_ne!(a, b, "holes did not affect the placement digest");
}

#[test]
fn digest_is_sensitive_to_placement_content() {
    // Same circuit, different grid -> different placement -> different
    // digest (guards against a digest that ignores its input).
    let circuit = Benchmark::Qaoa.generate(16, 0);
    let cfg = config_for(3.0);
    let a = placement_digest(&initial_layout(&circuit, &Grid::new(10, 10), &cfg).unwrap());
    let b = placement_digest(&initial_layout(&circuit, &Grid::new(7, 13), &cfg).unwrap());
    assert_ne!(a, b);
}

#[test]
fn layout_matches_the_compiled_initial_map() {
    // initial_layout must be the exact placement slice of compile():
    // the compiled circuit's initial map and the standalone layout
    // agree site for site.
    let grid = Grid::new(10, 10);
    for &(benchmark, size, mid) in &[
        (Benchmark::Bv, 16, 1.0),
        (Benchmark::Cuccaro, 40, 2.0),
        (Benchmark::Qaoa, 40, 3.0),
    ] {
        let circuit = benchmark.generate(size, 0);
        let cfg = config_for(mid);
        let map = initial_layout(&circuit, &grid, &cfg).unwrap();
        let compiled = na_core::compile(&circuit, &grid, &cfg).unwrap();
        assert_eq!(
            &map.to_table(),
            compiled.initial_map(),
            "{benchmark} size {size} at MID {mid}: layout != compile's initial map"
        );
    }
}
