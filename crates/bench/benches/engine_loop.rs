//! Engine hot-path benchmarks: the full event loop (load + run, no
//! metrics derivation) per algorithm family, untraced and traced.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use elastisched::prelude::*;

const JOBS: usize = 500;

fn batch_workload() -> Workload {
    let mut w = generate(
        &GeneratorConfig::paper_batch(0.5)
            .with_jobs(JOBS)
            .with_seed(1),
    );
    w.scale_to_load(320, 0.9);
    w
}

fn bench_engine_loop(c: &mut Criterion) {
    let w = batch_workload();
    let mut group = c.benchmark_group("engine_loop_500jobs");
    // `run_raw` is load + event loop + SimResult assembly, skipping the
    // RunMetrics derivation that `Experiment::run` adds — the closest
    // measurable proxy for the engine hot path alone.
    for algo in [Algorithm::Fcfs, Algorithm::Easy, Algorithm::DelayedLos] {
        group.bench_with_input(BenchmarkId::from_parameter(algo.name()), &w, |b, w| {
            b.iter(|| Experiment::new(algo).run_raw(black_box(w)).unwrap())
        });
    }
    group.finish();
}

/// The same loop with structured tracing in its three states: absent
/// (the default, branch-on-None per call site), enabled with the clock
/// reads off, and fully enabled. The untraced variant is the path the
/// repository benchmark measures and `repro perf-gate` guards; the
/// deltas between variants are the cost of observability itself.
fn bench_engine_loop_tracing(c: &mut Criterion) {
    let w = batch_workload();
    let mut group = c.benchmark_group("engine_loop_tracing_500jobs");
    group.bench_with_input(BenchmarkId::from_parameter("untraced"), &w, |b, w| {
        b.iter(|| {
            Experiment::new(Algorithm::DelayedLos)
                .run_raw(black_box(w))
                .unwrap()
        })
    });
    let mut no_timing = elastisched_trace::TraceSink::new();
    no_timing.disable_timing();
    for (name, sink) in [
        ("traced_no_timing", no_timing),
        ("traced_full", elastisched_trace::TraceSink::new()),
    ] {
        let exp = Experiment {
            trace: Some(sink),
            ..Experiment::new(Algorithm::DelayedLos)
        };
        group.bench_with_input(BenchmarkId::from_parameter(name), &w, |b, w| {
            b.iter(|| exp.run_raw(black_box(w)).unwrap())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_engine_loop, bench_engine_loop_tracing
}
criterion_main!(benches);
