//! End-to-end simulation cost: one paper data point (a 500-job run on
//! the simulated BlueGene/P) per algorithm family. This is the wall-time
//! unit of every figure in §V.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use elastisched::prelude::*;

fn batch_workload() -> Workload {
    let mut w = generate(
        &GeneratorConfig::paper_batch(0.5)
            .with_jobs(500)
            .with_seed(1),
    );
    w.scale_to_load(320, 0.9);
    w
}

fn heterogeneous_workload() -> Workload {
    let mut w = generate(
        &GeneratorConfig::paper_heterogeneous(0.5, 0.5)
            .with_jobs(500)
            .with_seed(1),
    );
    w.scale_to_load(320, 0.9);
    w
}

fn elastic_workload() -> Workload {
    let mut w = generate(
        &GeneratorConfig::paper_batch(0.5)
            .with_paper_eccs()
            .with_jobs(500)
            .with_seed(1),
    );
    w.scale_to_load(320, 0.9);
    w
}

fn bench_batch_algorithms(c: &mut Criterion) {
    let w = batch_workload();
    let mut group = c.benchmark_group("end_to_end_batch_500jobs");
    for algo in [
        Algorithm::Fcfs,
        Algorithm::Conservative,
        Algorithm::Easy,
        Algorithm::Los,
        Algorithm::DelayedLos,
        Algorithm::Adaptive,
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(algo.name()), &w, |b, w| {
            b.iter(|| Experiment::new(algo).run(black_box(w)).unwrap())
        });
    }
    group.finish();
}

fn bench_heterogeneous_algorithms(c: &mut Criterion) {
    let w = heterogeneous_workload();
    let mut group = c.benchmark_group("end_to_end_heterogeneous_500jobs");
    for algo in [Algorithm::EasyD, Algorithm::LosD, Algorithm::HybridLos] {
        group.bench_with_input(BenchmarkId::from_parameter(algo.name()), &w, |b, w| {
            b.iter(|| Experiment::new(algo).run(black_box(w)).unwrap())
        });
    }
    group.finish();
}

fn bench_elastic_algorithms(c: &mut Criterion) {
    let w = elastic_workload();
    let mut group = c.benchmark_group("end_to_end_elastic_500jobs");
    for algo in [Algorithm::EasyE, Algorithm::LosE, Algorithm::DelayedLosE] {
        group.bench_with_input(BenchmarkId::from_parameter(algo.name()), &w, |b, w| {
            b.iter(|| Experiment::new(algo).run(black_box(w)).unwrap())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_secs(1));
    targets =
    bench_batch_algorithms,
    bench_heterogeneous_algorithms,
    bench_elastic_algorithms

}
criterion_main!(benches);
