//! The committed QASM corpus (`examples/qasm/`) exercised end to end:
//! every file must parse, round-trip through the exporter with its
//! fingerprint intact, prove state-vector equivalence against its
//! two-qubit lowering, and compile on the paper grid. CI runs this
//! suite as the corpus smoke step.
//!
//! The corpus also seeds a mutation fuzzer: byte flips, truncations and
//! token splices of it must parse to a circuit or a typed `QasmError`,
//! and a parsed circuit that fits a 10×10 grid must compile or fail
//! with a typed `CompileError`, never panic. The mutation stream has a
//! fixed seed, so a failure reproduces by case number.

use natoms::arch::Grid;
use natoms::circuit::qasm::{parse_qasm, to_qasm, QasmErrorKind};
use natoms::circuit::sim::{circuits_equivalent, StateVector, MAX_QUBITS};
use natoms::circuit::{decompose_circuit, Circuit, DecomposeLevel};
use natoms::compiler::{compile, verify, CompilerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join("qasm")
}

/// Every corpus file's name and source, in name order.
fn sources() -> Vec<(String, String)> {
    let mut files: Vec<_> = std::fs::read_dir(corpus_dir())
        .expect("examples/qasm exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "qasm"))
        .collect();
    files.sort();
    assert!(files.len() >= 5, "corpus unexpectedly small: {files:?}");
    files
        .into_iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&path).expect("readable corpus file");
            (name, src)
        })
        .collect()
}

fn corpus() -> Vec<(String, Circuit)> {
    sources()
        .into_iter()
        .map(|(name, src)| {
            let circuit =
                parse_qasm(&src).unwrap_or_else(|e| panic!("{name} failed to parse: {e}"));
            (name, circuit)
        })
        .collect()
}

#[test]
fn every_corpus_file_parses_nontrivially() {
    for (name, c) in corpus() {
        assert!(!c.is_empty(), "{name} parsed to an empty circuit");
        assert!(c.num_qubits() > 0, "{name} has no qubits");
        assert!(
            c.num_qubits() <= MAX_QUBITS,
            "{name} exceeds the simulable width the corpus promises"
        );
    }
}

#[test]
fn every_corpus_file_round_trips_through_the_exporter() {
    // Imported circuits contain only round-trippable gate variants, so
    // the fingerprint (not just the unitary) must survive.
    for (name, c) in corpus() {
        let text = to_qasm(&c).unwrap_or_else(|e| panic!("{name} failed to export: {e}"));
        let back = parse_qasm(&text).unwrap_or_else(|e| panic!("{name} failed to reimport: {e}"));
        assert_eq!(
            back.fingerprint(),
            c.fingerprint(),
            "{name}: fingerprint changed across the round trip"
        );
    }
}

#[test]
fn every_corpus_file_is_sim_equivalent_to_its_lowering() {
    // State-vector equivalence (every basis column, global phase
    // forgiven) between each imported circuit and its full two-qubit
    // lowering through decompose.rs — the check is exponential in
    // width, so restrict it to the small files.
    for (name, c) in corpus() {
        if c.num_qubits() > 8 {
            continue;
        }
        let lowered = decompose_circuit(&c, DecomposeLevel::TwoQubit);
        assert!(
            circuits_equivalent(&c, &lowered, 1e-9),
            "{name}: lowering changed the unitary"
        );
    }
}

#[test]
fn every_corpus_file_compiles_on_the_paper_grid() {
    let grid = Grid::new(10, 10);
    for (name, c) in corpus() {
        for cfg in [
            CompilerConfig::new(3.0),
            CompilerConfig::new(2.0).with_native_multiqubit(false),
        ] {
            let compiled = compile(&c, &grid, &cfg)
                .unwrap_or_else(|e| panic!("{name} failed to compile at MID {}: {e}", cfg.mid));
            verify(&compiled, &grid)
                .unwrap_or_else(|e| panic!("{name} produced an invalid schedule: {e}"));
            assert!(compiled.num_timesteps() > 0, "{name}: empty schedule");
        }
    }
}

#[test]
fn adder_corpus_file_computes_one_plus_fifteen() {
    // adder4.qasm prepares a = 1, b = 15; the sum overflows: b -> 0,
    // cout -> 1, a restored. Register layout: cin = q0, a = q1..q4,
    // b = q5..q8, cout = q9, so the final basis state sets exactly
    // q1 (a = 1) and q9 (cout).
    let src = std::fs::read_to_string(corpus_dir().join("adder4.qasm")).unwrap();
    let c = parse_qasm(&src).unwrap();
    assert_eq!(c.num_qubits(), 10);
    let state = StateVector::run(&c);
    let expected = (1u64 << 1) | (1u64 << 9);
    assert!(
        (state.probability(expected) - 1.0).abs() < 1e-9,
        "adder output state wrong"
    );
}

#[test]
fn ghz_corpus_file_prepares_a_ghz_state() {
    let src = std::fs::read_to_string(corpus_dir().join("ghz8.qasm")).unwrap();
    let c = parse_qasm(&src).unwrap();
    let state = StateVector::run(&c);
    assert!((state.probability(0) - 0.5).abs() < 1e-9);
    assert!((state.probability(0xFF) - 0.5).abs() < 1e-9);
}

#[test]
fn toffoli_corpus_file_ands_its_controls() {
    let src = std::fs::read_to_string(corpus_dir().join("toffoli5.qasm")).unwrap();
    let c = parse_qasm(&src).unwrap();
    let state = StateVector::run(&c);
    // q0..q2 set by the X prep, ancilla q3 uncomputed, q4 = AND = 1.
    let expected = 0b10111u64;
    assert!((state.probability(expected) - 1.0).abs() < 1e-9);
}

#[test]
fn corpus_circuits_run_a_loss_campaign_end_to_end() {
    // The acceptance criterion's `natoms campaign --qasm …` path,
    // driven through the library: an imported circuit must survive a
    // full multi-shot campaign under atom loss.
    use natoms::loss::{run_campaign, CampaignConfig, LossModel, ShotTarget, Strategy};
    let src = std::fs::read_to_string(corpus_dir().join("ghz8.qasm")).unwrap();
    let c = parse_qasm(&src).unwrap();
    let cfg = CampaignConfig::new(3.0, Strategy::CompileSmallReroute)
        .with_target(ShotTarget::Attempts(40))
        .with_seed(7);
    let result = run_campaign(&c, &Grid::new(10, 10), LossModel::new(7), &cfg).unwrap();
    assert_eq!(result.shots_attempted, 40);
    assert!(result.shots_successful > 0, "GHZ campaign never succeeded");
}

/// Splice units: runs of word bytes, runs of whitespace, and single
/// punctuation bytes.
fn tokens(src: &[u8]) -> Vec<&[u8]> {
    let class = |b: u8| match b {
        b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'.' => 0,
        b' ' | b'\t' | b'\n' | b'\r' => 1,
        _ => 2,
    };
    let mut out = Vec::new();
    let mut start = 0;
    for i in 1..=src.len() {
        if i == src.len() || class(src[i]) != class(src[start]) || class(src[i]) == 2 {
            out.push(&src[start..i]);
            start = i;
        }
    }
    out
}

fn mutate(src: &[u8], corpus: &[Vec<u8>], rng: &mut StdRng) -> Vec<u8> {
    let mut out = src.to_vec();
    match rng.gen_range(0..4u32) {
        // Bit flips, possibly leaving ASCII (decoded lossily to U+FFFD).
        0 => {
            for _ in 0..rng.gen_range(1..5) {
                let i = rng.gen_range(0..out.len());
                out[i] ^= 1u8 << rng.gen_range(0..8u32);
            }
        }
        1 => out.truncate(rng.gen_range(0..out.len())),
        // Token splices: a run of up to 8 tokens from any corpus file
        // replaces up to 8 tokens; an empty run deletes, an empty range
        // inserts.
        _ => {
            let donor = tokens(&corpus[rng.gen_range(0..corpus.len())]);
            let mut toks = tokens(src);
            for _ in 0..rng.gen_range(1..4) {
                let at = rng.gen_range(0..=toks.len());
                let end = (at + rng.gen_range(0..=8usize)).min(toks.len());
                let from = rng.gen_range(0..donor.len());
                let to = (from + rng.gen_range(0..=8usize)).min(donor.len());
                toks.splice(at..end, donor[from..to].iter().copied());
            }
            out = toks.concat();
        }
    }
    out
}

#[test]
fn mutated_corpus_never_panics_the_importer_or_the_compiler() {
    let corpus: Vec<Vec<u8>> = sources().into_iter().map(|(_, s)| s.into_bytes()).collect();
    let grid = Grid::new(10, 10);
    let mut rng = StdRng::seed_from_u64(0x9A5E);
    let mut parsed = 0;
    for case in 0..2_000 {
        let src = &corpus[rng.gen_range(0..corpus.len())];
        let text = String::from_utf8_lossy(&mutate(src, &corpus, &mut rng)).into_owned();
        let mid = f64::from(rng.gen_range(1..4u32));
        let Ok(result) = catch_unwind(|| parse_qasm(&text)) else {
            panic!("case {case}: parse_qasm panicked on:\n{text}");
        };
        let Ok(circuit) = result else { continue };
        parsed += 1;
        if circuit.num_qubits() as usize <= grid.num_sites() {
            let config = CompilerConfig::new(mid);
            let compiled = catch_unwind(AssertUnwindSafe(|| compile(&circuit, &grid, &config)));
            assert!(
                compiled.is_ok(),
                "case {case}: compile at MID {mid} panicked on:\n{text}"
            );
        }
    }
    assert!(parsed > 100, "only {parsed} of 2000 mutants parsed");
}

/// Regression: a qubit total past `u32::MAX` overflowed (a panic in
/// debug builds), and deeply nested or very long angle expressions
/// overflowed the stack (an abort).
#[test]
fn oversized_registers_and_expressions_are_typed_errors() {
    let deep = 100_000;
    let too_long = vec!["1"; deep].join("+");
    for stmts in [
        "qreg a[4294967295];\nqreg b[1];\n".to_string(),
        format!("qreg q[1];\nrz({}1) q[0];\n", "(".repeat(deep)),
        format!("qreg q[1];\nrz({}1) q[0];\n", "-".repeat(deep)),
        format!("qreg q[1];\nrz({}1) q[0];\n", "sin(".repeat(deep)),
        format!("qreg q[1];\nrz({}1) q[0];\n", "2^".repeat(deep)),
        format!("qreg q[1];\nrz({too_long}) q[0];\n"),
    ] {
        let err = parse_qasm(&format!("OPENQASM 2.0;\n{stmts}")).unwrap_err();
        assert!(matches!(err.kind, QasmErrorKind::Unsupported(_)), "{err}");
    }
    let sum = vec!["1"; 200].join("+");
    assert!(parse_qasm(&format!("OPENQASM 2.0;\nqreg q[1];\nrz({sum}) q[0];\n")).is_ok());
}

/// Regression: a register read from input sized the allocation, so a
/// broadcast over it asked for 4·10⁹ gates and ran out of memory. The
/// qubit total is bounded before anything is allocated.
#[test]
fn huge_register_broadcast_is_a_typed_error_before_allocating() {
    let err = parse_qasm("OPENQASM 2.0;\nqreg q[4000000000];\nh q;\n").unwrap_err();
    assert!(matches!(err.kind, QasmErrorKind::Unsupported(_)), "{err}");
    assert_eq!(err.line, 2, "{err}");
    // The bound is on the total, not per register.
    let split = "OPENQASM 2.0;\nqreg a[65536];\nqreg b[1];\nh b;\n";
    let err = parse_qasm(split).unwrap_err();
    assert!(matches!(err.kind, QasmErrorKind::Unsupported(_)), "{err}");
    assert_eq!(err.line, 3, "{err}");
    let at_limit = parse_qasm("OPENQASM 2.0;\nqreg q[65536];\nh q[0];\n").unwrap();
    assert_eq!(at_limit.num_qubits(), 65_536);
}

/// Regression: neither macro fan-out nor broadcast was bounded, so a
/// 22-level doubling macro tower (a few hundred bytes) expanded to
/// 4,194,304 gates and took seconds and gigabytes to import. The gate
/// total is bounded as it grows.
#[test]
fn macro_towers_and_broadcast_floods_hit_the_gate_limit() {
    let tower = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/qasm_gate_tower.qasm"),
    )
    .expect("readable tower fixture");
    let err = parse_qasm(&tower).unwrap_err();
    assert!(matches!(err.kind, QasmErrorKind::Unsupported(_)), "{err}");
    assert!(err.to_string().contains("1048576 gates"), "{err}");

    // 2^16 qubits × 16 broadcasts is exactly the limit; the 17th
    // broadcast (line 19) is the first statement past it.
    let flood = format!("OPENQASM 2.0;\nqreg q[65536];\n{}", "h q;\n".repeat(17));
    let err = parse_qasm(&flood).unwrap_err();
    assert!(matches!(err.kind, QasmErrorKind::Unsupported(_)), "{err}");
    assert_eq!(err.line, 19, "{err}");
}
