//! Scheduler decision-cost under queue pressure: every job arrives at
//! t=0, so each scheduling cycle sees a deep waiting queue — the worst
//! case for the DP-based policies (and where the lookahead bound earns
//! its keep).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use elastisched::prelude::*;

/// A burst workload: `n` jobs all submitted at time zero.
fn burst(n: u64, seed: u64) -> Workload {
    let mut w = generate(&GeneratorConfig::paper_batch(0.5).with_jobs(n as usize).with_seed(seed));
    for j in &mut w.jobs {
        j.submit = SimTime::ZERO;
    }
    w
}

fn bench_deep_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("deep_queue_burst");
    for &n in &[100u64, 400] {
        let w = burst(n, 3);
        for algo in [
            Algorithm::Easy,
            Algorithm::Los,
            Algorithm::DelayedLos,
            Algorithm::Conservative,
        ] {
            group.bench_with_input(
                BenchmarkId::new(algo.name(), n),
                &w,
                |b, w| b.iter(|| Experiment::new(algo).run(black_box(w)).unwrap()),
            );
        }
    }
    group.finish();
}

fn bench_lookahead_cost(c: &mut Criterion) {
    let w = burst(400, 5);
    let mut group = c.benchmark_group("lookahead_cost_delayed_los");
    for &look in &[1usize, 10, 50, 200] {
        group.bench_with_input(BenchmarkId::from_parameter(look), &w, |b, w| {
            b.iter(|| {
                let exp = Experiment {
                    params: SchedParams {
                        cs: 7,
                        lookahead: look,
                    },
                    machine: MachineSpec::BLUEGENE_P,
                    ..Experiment::new(Algorithm::DelayedLos)
                };
                exp.run(black_box(w)).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_deep_queue, bench_lookahead_cost
}
criterion_main!(benches);
