//! The scheduler's lookahead rebuilds visit only the window of
//! `lookahead_depth` layers ahead of the frontier, so their work does
//! not grow with the circuit. Read from the `weight_rebuilds` and
//! `lookahead_gates_visited` counters, the way `tests/telemetry_guard.rs`
//! reads its snapshot.

use na_arch::Grid;
use na_circuit::{Circuit, Qubit};
use na_core::{compile, CompilerConfig};
use na_telemetry as tel;

/// A serial chain of `gates` CNOTs: each shares a qubit with the one
/// before it, over a seeded walk of 12 qubits so the router has SWAPs
/// (and so rebuilds) to do.
fn serial_chain(gates: usize) -> Circuit {
    const N: u32 = 12;
    let mut c = Circuit::new(N);
    let mut state = 0x9e37_79b9_u32;
    let mut prev = Qubit(0);
    for _ in 0..gates {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        let next = Qubit((prev.0 + 1 + (state >> 16) % (N - 1)) % N);
        c.cnot(prev, next);
        prev = next;
    }
    c
}

/// `(weight_rebuilds, lookahead_gates_visited)` of one compile.
fn rebuild_work(circuit: &Circuit, config: &CompilerConfig) -> (u64, u64) {
    tel::reset();
    compile(circuit, &Grid::new(6, 6), config).expect("the chain compiles");
    let snapshot = tel::snapshot();
    (
        snapshot.counter("weight_rebuilds"),
        snapshot.counter("lookahead_gates_visited"),
    )
}

#[test]
fn gates_visited_per_rebuild_scale_with_the_window_not_the_circuit() {
    tel::set_enabled(true);
    let config = CompilerConfig::new(1.0);
    let window = config.lookahead_depth as u64 + 1;
    for gates in [200, 2_000] {
        let (rebuilds, visited) = rebuild_work(&serial_chain(gates), &config);
        assert!(
            rebuilds >= gates as u64 / 4,
            "{gates} gates: only {rebuilds} rebuilds"
        );
        // A chain's window holds at most one gate per layer.
        assert!(
            visited <= rebuilds * window,
            "{gates} gates: {visited} gates visited over {rebuilds} rebuilds"
        );
    }
    tel::set_enabled(false);
}
