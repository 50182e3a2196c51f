//! Proof of the scratch-arena contract: after warm-up, a [`DpSolver`]
//! performs **zero heap allocations per solve** — hit path, miss path,
//! Basic_DP and Reservation_DP alike.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! warms the solver on every instance it will see, snapshots the
//! allocation counter, runs many steady-state solves, and asserts the
//! counter did not move. The counter is **thread-local**: a process-wide
//! atomic would also count allocations made concurrently by other test
//! threads (the harness runs tests in parallel), which made this test
//! flake; counting only the current thread's traffic makes the assertion
//! deterministic regardless of what runs alongside.

use elastisched_sched::{DpItem, DpSolver};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Bump the current thread's counter. The allocator can be entered
/// before the thread-local is initialized (or during its teardown);
/// `try_with` skips counting in those windows instead of recursing.
fn count_one() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(|c| c.get())
}

/// Basic_DP size sets and Reservation_DP item sets.
type Sets = (Vec<Vec<u32>>, Vec<Vec<DpItem>>);

/// Deterministic pseudo-random instances (xorshift; no external deps):
/// four 16-deep queues of jobs of `1..=max_units` units of `unit`
/// processors each.
fn instances(max_units: u64, unit: u32) -> Sets {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut size_sets = Vec::new();
    let mut item_sets = Vec::new();
    for _ in 0..4 {
        size_sets.push(
            (0..16)
                .map(|_| (1 + next() % max_units) as u32 * unit)
                .collect(),
        );
        item_sets.push(
            (0..16)
                .map(|_| DpItem {
                    num: (1 + next() % max_units) as u32 * unit,
                    extends: next() % 2 == 0,
                })
                .collect(),
        );
    }
    (size_sets, item_sets)
}

/// One pass over both machines' sets, returning the processors used
/// (a checksum that keeps the solves observable). `paper` runs on the
/// 320-processor machine in 32-processor units, whose capacity grows
/// from 256 to 320 processors within the pass — a relayout of both
/// retained tables — and `unit1` on a unit-1 machine of 128
/// processors, whose wider layers take the word-row path.
fn solve_all(solver: &mut DpSolver, paper: &Sets, unit1: &Sets) -> u64 {
    let runs = [
        (paper, 256, 128, 32),
        (paper, 320, 160, 32),
        (unit1, 128, 64, 1),
    ];
    let mut checksum = 0u64;
    for ((size_sets, item_sets), cap, freeze, unit) in runs {
        for s in size_sets {
            checksum += u64::from(solver.basic(s, cap, unit).used_now);
        }
        for it in item_sets {
            checksum += u64::from(solver.reservation(it, cap, freeze, unit).used_now);
        }
    }
    checksum
}

#[test]
fn steady_state_solves_do_not_allocate() {
    let paper = instances(10, 32);
    let unit1 = instances(40, 1);

    // --- Cache-hit steady state (the production configuration). ---
    let mut solver = DpSolver::new();
    let mut checksum = solve_all(&mut solver, &paper, &unit1);
    let before = allocations();
    for _ in 0..100 {
        checksum += solve_all(&mut solver, &paper, &unit1);
    }
    assert_eq!(
        allocations() - before,
        0,
        "cache-hit solves allocated (checksum {checksum})"
    );
    // Direct-mapped slots: colliding keys evict each other and re-solve,
    // so not every repeat hits — but plenty must, and (asserted above)
    // even the colliding re-solves allocate nothing.
    assert!(solver.stats().cache_hits > 0);

    // --- Cache-miss steady state: every call runs a kernel. ---
    let mut solver = DpSolver::new();
    solver.cache_enabled = false;
    checksum += solve_all(&mut solver, &paper, &unit1);
    let before = allocations();
    for _ in 0..100 {
        checksum += solve_all(&mut solver, &paper, &unit1);
    }
    assert_eq!(
        allocations() - before,
        0,
        "kernel solves allocated after warm-up (checksum {checksum})"
    );
    assert_eq!(solver.stats().cache_hits, 0);
}

/// The whole-experiment allocation floor: one 500-job headline run —
/// scheduler build, engine setup, workload clone-in, event loop, and
/// metrics derivation — against the budgets the arena work established
/// (PR 7: selection-cache keys share one arena, metrics fold through a
/// pre-sized accumulator; PR 10: cached selections share an answer
/// arena like the keys, and the DP staging buffers / incremental
/// tables / batch queue are pre-sized at construction, collapsing every
/// mid-run doubling chain). Measured on this workload with the
/// binary-heap event queue: build 16 (one-time pre-reserves), load 8,
/// event loop 4 (the heap's few doublings among them), metrics 2 (wait
/// series + scheduler name), full run 30. The ceilings leave headroom
/// for allocator rounding but fail loudly if a per-job or per-slot
/// allocation creeps back in.
#[test]
fn full_run_allocation_floor() {
    use elastisched_metrics::RunMetrics;
    use elastisched_sched::{Algorithm, SchedParams};
    use elastisched_sim::{Engine, Machine};
    use elastisched_workload::{generate, GeneratorConfig};

    let w = generate(
        &GeneratorConfig::paper_batch(0.5)
            .with_jobs(500)
            .with_seed(1),
    );
    // Warm-up: first run pays lazy one-time global setup.
    {
        let scheduler = Algorithm::DelayedLos.build(SchedParams::default());
        let mut engine = Engine::new(
            Machine::new(320, 32),
            scheduler,
            Algorithm::DelayedLos.ecc_policy(),
        );
        engine.load(&w.jobs, &w.eccs).unwrap();
        RunMetrics::from_result(&engine.run().unwrap());
    }

    let total0 = allocations();
    let scheduler = Algorithm::DelayedLos.build(SchedParams::default());
    let mut engine = Engine::new(
        Machine::new(320, 32),
        scheduler,
        Algorithm::DelayedLos.ecc_policy(),
    );
    let load0 = allocations();
    engine.load(&w.jobs, &w.eccs).unwrap();
    let load = allocations() - load0;
    let result = engine.run().unwrap();
    let metrics0 = allocations();
    let m = RunMetrics::from_result(&result);
    let metrics = allocations() - metrics0;
    let total = allocations() - total0;

    assert_eq!(m.jobs, 500);
    assert!(load <= 14, "load allocated {load} times (floor 14)");
    assert!(
        metrics <= 4,
        "metrics derivation allocated {metrics} times (floor 4)"
    );
    assert!(total <= 48, "full run allocated {total} times (floor 48)");
}
