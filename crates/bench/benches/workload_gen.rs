//! Workload-machinery benchmarks: CWF generation, trace parsing and
//! serialization, and load calibration.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use elastisched::prelude::*;
use elastisched_workload::cwf::CwfFile;

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_generation");
    for &n in &[500usize, 5_000, 50_000] {
        group.bench_with_input(BenchmarkId::new("batch", n), &n, |b, &n| {
            b.iter(|| {
                generate(black_box(
                    &GeneratorConfig::paper_batch(0.5).with_jobs(n).with_seed(1),
                ))
            })
        });
    }
    group.bench_function("heterogeneous_elastic_5000", |b| {
        b.iter(|| {
            generate(black_box(
                &GeneratorConfig::paper_heterogeneous(0.5, 0.5)
                    .with_paper_eccs()
                    .with_jobs(5_000)
                    .with_seed(1),
            ))
        })
    });
    group.finish();
}

fn bench_cwf_roundtrip(c: &mut Criterion) {
    let w = generate(
        &GeneratorConfig::paper_heterogeneous(0.5, 0.3)
            .with_paper_eccs()
            .with_jobs(5_000)
            .with_seed(1),
    );
    let text = CwfFile::from_workload(&w).to_text();
    let mut group = c.benchmark_group("cwf");
    group.bench_function("serialize_5000", |b| {
        b.iter(|| CwfFile::from_workload(black_box(&w)).to_text())
    });
    group.bench_function("parse_5000", |b| {
        b.iter(|| CwfFile::parse(black_box(&text)).unwrap())
    });
    group.finish();
}

fn bench_calibration(c: &mut Criterion) {
    c.bench_function("scale_to_load_5000", |b| {
        let base = generate(
            &GeneratorConfig::paper_batch(0.5)
                .with_jobs(5_000)
                .with_seed(1),
        );
        b.iter(|| {
            let mut w = base.clone();
            w.scale_to_load(320, black_box(0.9))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_generation, bench_cwf_roundtrip, bench_calibration
}
criterion_main!(benches);
