//! The heap-allocation budget of a steady-state loss-driven recompile.
//!
//! A `FullRecompile` state keeps one compile scratch across its
//! recompiles, and its program carries everything grid-independent, so
//! once the scratch has grown a recompile allocates only what its new
//! schedule keeps: the two placement maps, the op list, the used-site
//! list and its mask, and the shared handle. This binary counts the
//! allocations of each recompile with a counting global allocator, so
//! it holds a single test.

use na_arch::{Grid, Site};
use na_benchmarks::Benchmark;
use na_loss::{LossOutcome, Strategy, StrategyState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The most heap allocations (reallocations included) one steady-state
/// recompile may make.
const BUDGET: u64 = 16;

thread_local! {
    /// Whether this thread's allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the calls the current thread makes
/// while [`COUNTING`] is on.
struct Counting;

fn note_allocation() {
    // `try_with`: the allocator also runs while thread locals are torn
    // down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result and the allocations it made on this
/// thread.
fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

/// The recompile campaign's point: Cuccaro-40 at MID 4 on a 10×10
/// device, losing program atoms. After a warm-up, every recompile stays
/// within [`BUDGET`].
#[test]
fn a_steady_state_recompile_stays_within_the_allocation_budget() {
    let program = Benchmark::Cuccaro.generate(40, 0);
    let mut state = StrategyState::new(
        &program,
        &Grid::new(10, 10),
        4.0,
        Strategy::FullRecompile,
        None,
    )
    .expect("the full device compiles");
    let mut rng = StdRng::seed_from_u64(34);
    let (mut measured, mut worst) = (Vec::new(), 0);
    let mut recompiles = 0;
    while measured.len() < 100 {
        let grid = state.grid();
        let used: Vec<Site> = state
            .compiled()
            .used_sites()
            .iter()
            .copied()
            .filter(|&s| grid.is_usable(s))
            .collect();
        let victim = used[rng.gen_range(0..used.len())];
        let (outcome, allocations) = count_allocations(|| state.apply_loss(victim));
        match outcome {
            LossOutcome::Recompiled { .. } => {
                recompiles += 1;
                // Warm-up: the first recompiles grow the scratch.
                if recompiles > 10 {
                    measured.push(allocations);
                    worst = worst.max(allocations);
                }
            }
            LossOutcome::NeedsReload => state.reload(),
            other => panic!("a program atom's loss gave {other:?}"),
        }
    }
    measured.sort_unstable();
    println!(
        "allocations per recompile: median {}, worst {worst}",
        measured[measured.len() / 2]
    );
    assert!(
        worst <= BUDGET,
        "a steady-state recompile made {worst} allocations (budget {BUDGET}): {measured:?}"
    );
}
