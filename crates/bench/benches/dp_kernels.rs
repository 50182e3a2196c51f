//! Benchmarks of the Basic_DP / Reservation_DP kernels.
//!
//! The LOS family's per-cycle cost is dominated by these dynamic
//! programs; the LOS paper bounds practical cost with a lookahead of 50
//! jobs. Two axes are measured here:
//!
//! * **scaling** — kernel cost against queue length and machine
//!   granularity, validating that the 50-job window is cheap on
//!   BlueGene/P-style units and still tractable on unit-1 machines;
//! * **implementation** — the packed-bitset kernels against the retired
//!   scalar references (`reference-kernels` feature) and against the
//!   cached [`DpSolver`] hit path, at the paper's scale (320 processors,
//!   32-processor units, 16-deep queue) and at 10× queue depth.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use elastisched_sched::dp::{basic_dp_reference, reservation_dp_reference};
use elastisched_sched::{basic_dp, reservation_dp, DpItem, DpSolver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sizes(n: usize, unit: u32, max_units: u32, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| rng.gen_range(1..=max_units) * unit)
        .collect()
}

fn items(n: usize, unit: u32, max_units: u32, seed: u64) -> Vec<DpItem> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| DpItem {
            num: rng.gen_range(1..=max_units) * unit,
            extends: rng.gen_bool(0.5),
        })
        .collect()
}

fn bench_basic_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("basic_dp");
    for &n in &[10usize, 50, 100, 200] {
        let s = sizes(n, 32, 10, n as u64);
        group.bench_with_input(BenchmarkId::new("bluegene_units", n), &s, |b, s| {
            b.iter(|| basic_dp(black_box(s), 320, 32))
        });
    }
    // Unit-1 machine (SDSC-like): a 128-wide table.
    for &n in &[50usize, 200] {
        let s = sizes(n, 1, 128, n as u64);
        group.bench_with_input(BenchmarkId::new("unit1_128procs", n), &s, |b, s| {
            b.iter(|| basic_dp(black_box(s), 128, 1))
        });
    }
    group.finish();
}

fn bench_reservation_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("reservation_dp");
    for &n in &[10usize, 50, 100, 200] {
        let it = items(n, 32, 10, n as u64);
        group.bench_with_input(BenchmarkId::new("bluegene_units", n), &it, |b, it| {
            b.iter(|| reservation_dp(black_box(it), 320, 160, 32))
        });
    }
    for &n in &[50usize, 200] {
        let it = items(n, 1, 128, n as u64);
        group.bench_with_input(BenchmarkId::new("unit1_128procs", n), &it, |b, it| {
            b.iter(|| reservation_dp(black_box(it), 128, 64, 1))
        });
    }
    group.finish();
}

/// Reference (scalar) vs bitset vs cached-solver, Basic_DP. Paper scale
/// is 16 candidates on the 320-processor / 32-unit BlueGene/P; 160 is
/// the 10× stress depth.
fn bench_basic_impls(c: &mut Criterion) {
    let mut group = c.benchmark_group("basic_dp_impls");
    for &n in &[16usize, 160] {
        let s = sizes(n, 32, 10, n as u64);
        group.bench_with_input(BenchmarkId::new("reference", n), &s, |b, s| {
            b.iter(|| basic_dp_reference(black_box(s), 320, 32))
        });
        group.bench_with_input(BenchmarkId::new("bitset", n), &s, |b, s| {
            b.iter(|| basic_dp(black_box(s), 320, 32))
        });
        // The solver's steady state: scratch warm, cache answering.
        let mut solver = DpSolver::new();
        solver.timed = false;
        solver.basic(&s, 320, 32);
        group.bench_with_input(BenchmarkId::new("solver_cached", n), &s, |b, s| {
            b.iter(|| solver.basic(black_box(s), 320, 32).used_now)
        });
    }
    group.finish();
}

/// Reference vs bitset vs cached-solver, Reservation_DP — the paper's
/// expensive kernel (2-D table) and the ISSUE's speedup target.
fn bench_reservation_impls(c: &mut Criterion) {
    let mut group = c.benchmark_group("reservation_dp_impls");
    for &n in &[16usize, 160] {
        let it = items(n, 32, 10, n as u64);
        group.bench_with_input(BenchmarkId::new("reference", n), &it, |b, it| {
            b.iter(|| reservation_dp_reference(black_box(it), 320, 160, 32))
        });
        group.bench_with_input(BenchmarkId::new("bitset", n), &it, |b, it| {
            b.iter(|| reservation_dp(black_box(it), 320, 160, 32))
        });
        let mut solver = DpSolver::new();
        solver.timed = false;
        solver.reservation(&it, 320, 160, 32);
        group.bench_with_input(BenchmarkId::new("solver_cached", n), &it, |b, it| {
            b.iter(|| solver.reservation(black_box(it), 320, 160, 32).used_now)
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_basic_dp, bench_reservation_dp, bench_basic_impls, bench_reservation_impls
}
criterion_main!(benches);
