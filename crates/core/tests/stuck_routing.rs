//! Doomed routings stop at their first repeated state.
//!
//! The instance below is Cuccaro-40 at MID 4 on a 10×10 grid with 14
//! holes, the kind of grid a recompile campaign reaches between
//! reloads. Its router falls into a cycle of mappings with no gate
//! completing; without the cycle check it would run on to the step
//! budget (several thousand steps) before giving up.

use na_arch::{Grid, Site};
use na_benchmarks::Benchmark;
use na_core::{compile, CompileError, CompilerConfig};
use na_telemetry as tel;

const HOLES: [(i32, i32); 14] = [
    (0, 0),
    (0, 5),
    (1, 3),
    (2, 0),
    (2, 1),
    (2, 2),
    (3, 0),
    (3, 1),
    (3, 2),
    (3, 3),
    (4, 0),
    (4, 1),
    (4, 2),
    (4, 3),
];

fn stuck_error(config: &CompilerConfig) -> CompileError {
    let mut grid = Grid::new(10, 10);
    for (x, y) in HOLES {
        grid.remove_atom(Site::new(x, y));
    }
    compile(&Benchmark::Cuccaro.generate(40, 1), &grid, config)
        .expect_err("the pinned instance cannot be routed")
}

#[test]
fn a_cycling_router_stops_at_the_first_repeat_whatever_the_budget() {
    tel::set_enabled(true);
    tel::reset();
    let config = CompilerConfig::new(4.0);
    let err = stuck_error(&config);
    let CompileError::RoutingStuck { steps } = err else {
        panic!("expected RoutingStuck, got {err:?}");
    };
    assert!(steps <= 200, "repeat found only after {steps} steps");
    assert_eq!(tel::snapshot().counter("routing_cycles"), 1);
    tel::set_enabled(false);

    // The step budget plays no part: eight times the budget stops at
    // the same step.
    let mut generous = config;
    generous.max_steps_per_gate *= 8;
    assert_eq!(stuck_error(&generous), err);
}
