//! Engine hot-path benchmarks: the calendar event queue against the
//! retired heap queue, and the full event loop (load + run, no metrics
//! derivation) per algorithm family.
//!
//! The queue benches replay a fill-then-drain traffic shape — a burst
//! of pushes at the workload's arrival times, then an interleaved
//! drain-and-push phase — rather than uniform random churn, because the
//! calendar queue's rebuild policy is tuned for that profile.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use elastisched::prelude::*;
use elastisched_sim::event::reference::HeapEventQueue;
use elastisched_sim::{Duration, Event, EventQueue, SimTime};

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

/// Arrival times of the batch workload: the fill-phase push times.
fn arrival_times(w: &Workload) -> Vec<SimTime> {
    w.jobs.iter().map(|j| j.submit).collect()
}

/// The two operations the replay exercises, so one driver covers both
/// queue implementations.
trait Queue {
    fn push(&mut self, at: SimTime, ev: Event);
    fn drain(&mut self, out: &mut Vec<Event>) -> Option<SimTime>;
}

impl Queue for EventQueue {
    fn push(&mut self, at: SimTime, ev: Event) {
        EventQueue::push(self, at, ev)
    }
    fn drain(&mut self, out: &mut Vec<Event>) -> Option<SimTime> {
        self.drain_next_instant(out)
    }
}

impl Queue for HeapEventQueue {
    fn push(&mut self, at: SimTime, ev: Event) {
        HeapEventQueue::push(self, at, ev)
    }
    fn drain(&mut self, out: &mut Vec<Event>) -> Option<SimTime> {
        self.drain_next_instant(out)
    }
}

/// Replay the engine's traffic shape against a queue.
fn replay<Q: Queue>(arrivals: &[SimTime], q: &mut Q) {
    for (i, &at) in arrivals.iter().enumerate() {
        q.push(
            at,
            Event::Completion {
                slot: i as u32,
                key: i as u64,
            },
        );
    }
    let mut out = Vec::new();
    let mut i = 0u64;
    while let Some(at) = q.drain(&mut out) {
        for ev in out.drain(..) {
            if matches!(ev, Event::Completion { .. }) {
                // Stand-in completion: a deterministic pseudo-runtime.
                i += 1;
                q.push(at + Duration::from_secs(1000 + i * 7 % 5000), Event::Wakeup);
            }
        }
    }
}

fn bench_event_queue(c: &mut Criterion) {
    let w = batch_workload();
    let arrivals = arrival_times(&w);
    let mut group = c.benchmark_group("event_queue_replay_500jobs");
    group.bench_with_input(
        BenchmarkId::from_parameter("calendar"),
        &arrivals,
        |b, arrivals| {
            b.iter(|| {
                let mut q = EventQueue::new();
                replay(black_box(arrivals), &mut q);
                black_box(q.len())
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::from_parameter("reference_heap"),
        &arrivals,
        |b, arrivals| {
            b.iter(|| {
                let mut q = HeapEventQueue::new();
                replay(black_box(arrivals), &mut q);
                black_box(q.len())
            })
        },
    );
    group.finish();
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
    targets = bench_event_queue, bench_engine_loop, bench_engine_loop_tracing
}
criterion_main!(benches);
