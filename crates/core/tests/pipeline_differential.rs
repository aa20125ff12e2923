//! The compile passes' byte-identity contract. The golden tables below
//! were recorded from the retired monolithic compile body (the one
//! function that threaded lower → place → route/schedule by hand
//! before the compile was split into named passes): [`na_core::compile`]
//! must reproduce its schedule digests — and its typed errors — over
//! random programs × damaged grids × MIDs × zone policies, and over the
//! benchmark families at MIDs the seed-scheduler digests do not cover.
//! Also pins the pass order and artifact reuse: a placement reused
//! across MID variants must yield schedules bit-identical to fresh
//! compiles.

use na_arch::{Grid, RestrictionPolicy, Site};
use na_benchmarks::Benchmark;
use na_circuit::{Circuit, Qubit};
use na_core::{
    compile, run_passes, schedule_digest, verify, ArtifactStore, CompiledCircuit, CompilerConfig,
    PassReport, PlacementScratch, Reuse,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const UNROUTABLE: &str = "no placement can bring a 3-qubit gate within interaction distance";

/// Schedule digest (or error text) of each random case, in case order.
const RANDOM_GOLDEN: [Result<u64, &str>; 48] = [
    Err(UNROUTABLE),
    Ok(0x01b85b8d26e2b44d),
    Ok(0xb698f1fadf55cb4c),
    Ok(0x6e60fa1a4f3517f8),
    Ok(0x25f9759dc50730b2),
    Ok(0x8a0d610f0e4eab0a),
    Ok(0x23b1d70438f4ae01),
    Ok(0x117537a8bc7a5b11),
    Ok(0x10ef1e506c652584),
    Ok(0x3cbe9ad1d4e16ae1),
    Ok(0x6a26345bcf0986a0),
    Ok(0xf6b0f216ac2df0e7),
    Ok(0xebb7083ea9a88436),
    Ok(0xbddf85e6e50984e4),
    Ok(0xf66f6fea430cb710),
    Ok(0x46f36a05e548b86b),
    Ok(0x6031e8086a7339fc),
    Ok(0x3ff35f34f6cb0434),
    Ok(0x76322e41a46cf1da),
    Ok(0xca2bc87d4accf465),
    Ok(0x2cb942dec301d0e0),
    Ok(0x8703fc2c6242b1db),
    Ok(0xa420e55773a4e861),
    Ok(0x9d6a0ea7f1393f64),
    Ok(0x4e1420a60745817d),
    Ok(0x12bcd413e4ef7904),
    Err(UNROUTABLE),
    Ok(0xf7f7058c5727f266),
    Ok(0x761c3c8d0a9c17e4),
    Ok(0x19c1498e7b562ccc),
    Ok(0x8e6cbac6b9f8df0b),
    Ok(0x6c90dadc54e2eb93),
    Ok(0xdbb76bef3514b737),
    Ok(0x799dd6a904477fde),
    Ok(0xb39635f3cd6558a6),
    Ok(0x3bdabe27a997e024),
    Ok(0x103537361a99b6a5),
    Ok(0x88dafe9f972b7690),
    Ok(0x244c09e6da933d04),
    Ok(0x040923ed4f3dc557),
    Ok(0x5aad157061aca0e6),
    Ok(0xc9bd2e66ec3cad11),
    Ok(0xfde29b8c6ac9227c),
    Ok(0xa6fb797ba56e650e),
    Ok(0x37bb1fd977f81820),
    Err(UNROUTABLE),
    Ok(0xe1bd8d6d455a7a44),
    Ok(0x460ca0f4701b6f77),
];

/// `(benchmark, mid, digest)` at size 16 on the 10×10 grid.
const FAMILY_GOLDEN: [(Benchmark, f64, u64); 15] = [
    (Benchmark::Bv, 2.0, 0xd0150d297baa6b99),
    (Benchmark::Bv, 3.0, 0xe794c672a80920e6),
    (Benchmark::Bv, 4.0, 0xe794c672a80920e6),
    (Benchmark::Cnu, 2.0, 0x3b966816e2db770a),
    (Benchmark::Cnu, 3.0, 0x3b966816e2db770a),
    (Benchmark::Cnu, 4.0, 0x3b966816e2db770a),
    (Benchmark::Cuccaro, 2.0, 0xa98397414e1d554e),
    (Benchmark::Cuccaro, 3.0, 0xa98397414e1d554e),
    (Benchmark::Cuccaro, 4.0, 0xa98397414e1d554e),
    (Benchmark::QftAdder, 2.0, 0x604e596f2cb66bd8),
    (Benchmark::QftAdder, 3.0, 0x07588b1ba263869e),
    (Benchmark::QftAdder, 4.0, 0xc60929dac3830908),
    (Benchmark::Qaoa, 2.0, 0x977fa2b828bb90e8),
    (Benchmark::Qaoa, 3.0, 0xf07da54c163df4dc),
    (Benchmark::Qaoa, 4.0, 0xf07da54c163df4dc),
];

/// A random program mixing 1-, 2-, and 3-qubit gates (same generator
/// family as the compile fuzz suite, independently seeded). The golden
/// table depends on its exact RNG draw order.
fn random_program(rng: &mut StdRng, max_qubits: u32, max_gates: usize) -> Circuit {
    let n = rng.gen_range(3..=max_qubits);
    let g = rng.gen_range(1..max_gates);
    let mut circuit = Circuit::new(n);
    for _ in 0..g {
        match rng.gen_range(0..3u32) {
            0 => {
                circuit.h(Qubit(rng.gen_range(0..n)));
            }
            1 => {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a != b {
                    circuit.cnot(Qubit(a), Qubit(b));
                } else {
                    circuit.x(Qubit(a));
                }
            }
            _ => {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                let c = rng.gen_range(0..n);
                if a != b && b != c && a != c {
                    circuit.toffoli(Qubit(a), Qubit(b), Qubit(c));
                } else {
                    circuit.t(Qubit(a));
                }
            }
        }
    }
    circuit
}

#[test]
fn pipeline_matches_monolith_on_random_programs_and_damaged_grids() {
    let mut rng = StdRng::seed_from_u64(808);
    let zone_choices = [
        RestrictionPolicy::HalfDistance,
        RestrictionPolicy::None,
        RestrictionPolicy::FullDistance,
    ];
    for (case, golden) in RANDOM_GOLDEN.iter().enumerate() {
        let program = random_program(&mut rng, 9, 30);
        let mut grid = Grid::new(6, 6);
        for _ in 0..rng.gen_range(0..6usize) {
            grid.remove_atom(Site::new(rng.gen_range(0..6i32), rng.gen_range(0..6i32)));
        }
        let mid = f64::from(rng.gen_range(2u32..10)) / 2.0; // MID in [1.0, 4.5]
        let cfg = CompilerConfig::new(mid)
            .with_restriction(zone_choices[rng.gen_range(0..zone_choices.len())])
            .with_native_multiqubit(rng.gen_bool(0.5));
        match (compile(&program, &grid, &cfg), golden) {
            (Ok(compiled), Ok(digest)) => {
                assert_eq!(
                    schedule_digest(&compiled),
                    *digest,
                    "case {case}: schedule digest diverged"
                );
                verify(&compiled, &grid).expect("golden schedule verifies");
            }
            (Err(e), Err(message)) => {
                assert_eq!(e.to_string(), *message, "case {case}: error diverged");
            }
            (outcome, golden) => panic!(
                "case {case}: outcome diverged: {:?} vs golden {golden:?}",
                outcome.map(|c| schedule_digest(&c))
            ),
        }
    }
}

#[test]
fn pipeline_matches_monolith_on_benchmark_families() {
    let grid = Grid::new(10, 10);
    for (benchmark, mid, digest) in FAMILY_GOLDEN {
        let program = benchmark.generate(16, 0);
        let compiled = compile(&program, &grid, &CompilerConfig::new(mid)).expect("compiles");
        assert_eq!(
            schedule_digest(&compiled),
            digest,
            "{benchmark} at MID {mid}: schedule digest diverged"
        );
    }
}

/// The pass names of a report, in order.
/// A fresh compile with the `verify` pass on and its per-pass report,
/// as `natoms compile --passes` runs it.
fn compile_reported(
    program: &Circuit,
    grid: &Grid,
    cfg: &CompilerConfig,
) -> (CompiledCircuit, PassReport) {
    let mut report = PassReport::default();
    let compiled = run_passes(
        program,
        grid,
        cfg,
        &mut PlacementScratch::new(),
        Reuse::Nothing,
        true,
        Some(&mut report),
    )
    .expect("compiles");
    (compiled, report)
}

fn pass_names(report: &PassReport) -> Vec<&str> {
    report.passes.iter().map(|p| p.pass.as_str()).collect()
}

#[test]
fn pass_order_is_pinned() {
    let expected = [
        "lower",
        "validate_arity",
        "place",
        "route_schedule",
        "verify",
        "finalize",
    ];
    let program = Benchmark::Bv.generate(12, 0);
    let grid = Grid::new(8, 8);
    let cfg = CompilerConfig::new(2.0);
    let mut unverified = PassReport::default();
    run_passes(
        &program,
        &grid,
        &cfg,
        &mut PlacementScratch::new(),
        Reuse::Nothing,
        false,
        Some(&mut unverified),
    )
    .expect("compiles");
    assert_eq!(pass_names(&unverified), expected);
    let (_, verified) = compile_reported(&program, &grid, &cfg);
    assert_eq!(pass_names(&verified), expected);
}

#[test]
fn placement_reused_across_mid_variants_is_bit_identical_to_fresh() {
    // The artifact-reuse contract: lowering and placement are
    // MID-independent, so a store shared across MID variants of one
    // (circuit, grid) point must serve its cached placement — and the
    // resulting schedules must be bit-for-bit what fresh compiles
    // produce.
    let grid = Grid::new(10, 10);
    let program = Benchmark::Qaoa.generate(14, 3);
    let store = ArtifactStore::new();
    let mut reused = Vec::new();
    for &mid in &[2.0, 3.0, 4.0] {
        let cfg = CompilerConfig::new(mid);
        let mut scratch = PlacementScratch::new();
        reused.push(
            run_passes(
                &program,
                &grid,
                &cfg,
                &mut scratch,
                Reuse::FrontEnd(&store),
                false,
                None,
            )
            .expect("compiles"),
        );
    }
    assert_eq!(store.len(), 1, "one front-end artifact for the point");
    assert_eq!(store.hits(), 2, "the second and third MID reuse it");
    for (compiled, &mid) in reused.iter().zip(&[2.0, 3.0, 4.0]) {
        let fresh = compile(&program, &grid, &CompilerConfig::new(mid)).expect("compiles");
        assert_eq!(
            compiled, &fresh,
            "MID {mid}: reused-placement compile diverged from fresh"
        );
    }
}

#[test]
fn report_times_and_annotates_every_pass() {
    let program = Benchmark::Bv.generate(16, 0);
    let grid = Grid::new(10, 10);
    let (compiled, report) = compile_reported(&program, &grid, &CompilerConfig::new(3.0));
    let fresh = compile(&program, &grid, &CompilerConfig::new(3.0)).expect("compiles");
    assert_eq!(compiled, fresh, "reported compile diverged from plain");
    assert_eq!(report.passes.len(), 6);
    assert!(report.total_ns > 0);
    let stats_of = |name: &str| {
        &report
            .passes
            .iter()
            .find(|p| p.pass == name)
            .unwrap_or_else(|| panic!("missing pass {name}"))
            .stats
    };
    assert!(stats_of("lower").contains_key("gates"));
    assert!(stats_of("place").contains_key("qubits"));
    assert!(stats_of("route_schedule").contains_key("ops"));
    // The reported compile actually verifies (not skipped).
    assert!(stats_of("verify").contains_key("ops_checked"));
    assert!(stats_of("finalize").contains_key("used_sites"));
}
