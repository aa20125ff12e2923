//! Semantic equivalence of compiled schedules.
//!
//! `verify()` checks hardware constraints; these tests check *meaning*:
//! replaying a compiled schedule — program gates at their physical
//! sites plus every router SWAP as a real state exchange — must
//! implement exactly the source circuit, with each program qubit's
//! state ending at the site `final_map` claims.

use na_arch::{Grid, RestrictionPolicy, Site};
use na_circuit::sim::StateVector;
use na_circuit::{Circuit, Gate, Qubit};
use na_core::{compile, verify, CompilerConfig};
use std::collections::HashMap;

/// Simulates a compiled schedule over the *sites* of the grid and
/// checks it against the source simulation for every computational
/// basis input of the program register.
fn assert_schedule_semantics(program: &Circuit, grid: &Grid, config: &CompilerConfig) {
    let compiled = compile(program, grid, config).expect("compiles");
    verify(&compiled, grid).expect("verifies");
    let lowered = compiled.circuit();

    // Index every grid site as a simulator qubit.
    let sites: Vec<Site> = grid.sites().collect();
    let site_index: HashMap<Site, u32> = sites
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, i as u32))
        .collect();
    let n_sites = sites.len() as u32;
    assert!(n_sites <= 20, "test grid too large to simulate");

    // Rebuild the schedule as a circuit over site-qubits.
    let mut site_circuit = Circuit::new(n_sites);
    for op in compiled.ops() {
        let gate: Gate = match op.source {
            Some(g) => {
                let src = &lowered.gates()[g];
                // Replace each operand with its physical site, in
                // operand order (ScheduledOp::sites preserves it).
                let mut k = 0;
                src.map_qubits(|_| {
                    let q = Qubit(site_index[&op.sites[k]]);
                    k += 1;
                    q
                })
            }
            None => Gate::Swap(
                Qubit(site_index[&op.sites[0]]),
                Qubit(site_index[&op.sites[1]]),
            ),
        };
        site_circuit.push(gate);
    }

    // For each basis input over program qubits: embed at initial sites,
    // run the site circuit, and compare against the source run
    // permuted to the final sites.
    let n_prog = lowered.num_qubits();
    for basis in 0..(1u64 << n_prog) {
        let mut site_basis = 0u64;
        for q in 0..n_prog {
            if basis >> q & 1 == 1 {
                let s = compiled.initial_map().site_of(Qubit(q)).expect("placed");
                site_basis |= 1 << site_index[&s];
            }
        }
        let hw_state = StateVector::run_from(&site_circuit, site_basis);

        let prog_state = StateVector::run_from(lowered, basis);

        // Project: amplitude of each program basis state must match the
        // amplitude of the corresponding final-site pattern.
        let mut fidelity = na_circuit::sim::Complex::ZERO;
        for pb in 0..(1u64 << n_prog) {
            let mut final_sites = 0u64;
            for q in 0..n_prog {
                if pb >> q & 1 == 1 {
                    let s = compiled.final_map().site_of(Qubit(q)).expect("placed");
                    final_sites |= 1 << site_index[&s];
                }
            }
            let a = prog_state.amplitudes()[pb as usize];
            let b = hw_state.amplitudes()[final_sites as usize];
            fidelity = fidelity + a.conj() * b;
        }
        assert!(
            (fidelity.norm_sq() - 1.0).abs() < 1e-9,
            "basis {basis:b}: schedule does not implement the program (overlap {})",
            fidelity.norm_sq()
        );
    }
}

#[test]
fn routed_cnot_chain_is_semantically_exact() {
    // 4x4 grid (16 site-qubits), MID 1: routing inserts SWAPs.
    let mut program = Circuit::new(5);
    program.h(Qubit(0));
    for i in 0..4u32 {
        program.cnot(Qubit(i), Qubit(i + 1));
    }
    program.cnot(Qubit(4), Qubit(0));
    program.cnot(Qubit(0), Qubit(3));
    let grid = Grid::new(4, 4);
    let cfg = CompilerConfig::new(1.0).with_native_multiqubit(false);
    assert_schedule_semantics(&program, &grid, &cfg);
}

#[test]
fn native_toffoli_schedule_is_semantically_exact() {
    let mut program = Circuit::new(4);
    program.h(Qubit(0));
    program.toffoli(Qubit(0), Qubit(1), Qubit(2));
    program.cnot(Qubit(2), Qubit(3));
    program.toffoli(Qubit(3), Qubit(0), Qubit(1));
    let grid = Grid::new(4, 4);
    assert_schedule_semantics(&program, &grid, &CompilerConfig::new(2.0));
}

#[test]
fn decomposed_toffoli_schedule_is_semantically_exact() {
    let mut program = Circuit::new(3);
    program.h(Qubit(0));
    program.h(Qubit(1));
    program.toffoli(Qubit(0), Qubit(1), Qubit(2));
    let grid = Grid::new(4, 4);
    let cfg = CompilerConfig::new(1.0).with_native_multiqubit(false);
    assert_schedule_semantics(&program, &grid, &cfg);
}

#[test]
fn zone_scheduling_preserves_semantics() {
    let mut program = Circuit::new(6);
    for i in (0..6u32).step_by(2) {
        program.h(Qubit(i));
        program.cnot(Qubit(i), Qubit(i + 1));
    }
    program.cz(Qubit(1), Qubit(4));
    program.cphase(Qubit(0), Qubit(5), 0.9);
    let grid = Grid::new(4, 4);
    for policy in [
        RestrictionPolicy::HalfDistance,
        RestrictionPolicy::FullDistance,
    ] {
        let cfg = CompilerConfig::new(2.0)
            .with_native_multiqubit(false)
            .with_restriction(policy);
        assert_schedule_semantics(&program, &grid, &cfg);
    }
}

#[test]
fn schedule_on_damaged_grid_preserves_semantics() {
    let mut program = Circuit::new(4);
    program.h(Qubit(0));
    program.cnot(Qubit(0), Qubit(1));
    program.cnot(Qubit(1), Qubit(2));
    program.cnot(Qubit(2), Qubit(3));
    program.cnot(Qubit(3), Qubit(0));
    let mut grid = Grid::new(4, 4);
    grid.remove_atom(Site::new(1, 1));
    grid.remove_atom(Site::new(2, 2));
    let cfg = CompilerConfig::new(1.0).with_native_multiqubit(false);
    assert_schedule_semantics(&program, &grid, &cfg);
}

#[test]
fn large_native_gate_schedule_is_semantically_exact() {
    // A 5-operand native CNX (the paper's §IV-B extension) scheduled as
    // one Rydberg interaction must still implement the right unitary.
    let mut program = Circuit::new(5);
    program.h(Qubit(0));
    program.h(Qubit(1));
    program.cnx((0..4).map(Qubit).collect(), Qubit(4));
    program.cnot(Qubit(4), Qubit(0));
    let grid = Grid::new(4, 4);
    let cfg = CompilerConfig::new(3.0).with_max_native_arity(5);
    assert_schedule_semantics(&program, &grid, &cfg);
}

#[test]
fn cuccaro_adder_compiled_at_mid1_still_adds() {
    // End-to-end: generator -> decompose -> place -> route -> schedule,
    // then simulate the physical schedule and check 2-bit addition.
    let program = na_benchmarks::cuccaro(1); // 4 qubits
    let grid = Grid::new(4, 4);
    let cfg = CompilerConfig::new(1.0).with_native_multiqubit(false);
    assert_schedule_semantics(&program, &grid, &cfg);
}
