//! Deep-dive analysis of one schedule: per-class breakdowns, fairness,
//! utilization timeline, Gantt chart, and queue-depth sampling.
//!
//! Answers the questions the paper's aggregate metrics can't: *who* pays
//! for a packing improvement (small vs large jobs), how bursty the
//! machine's occupancy is over time, and how deep the queue gets.
//!
//! ```text
//! cargo run --release --example schedule_analysis
//! ```

use elastisched::prelude::*;
use elastisched_metrics::{
    breakdown, gantt, jain_fairness, occupancy, sparkline, utilization_profile, validate_schedule,
};
use elastisched_sim::{Engine, TimelineConfig};

fn analyze(algo: Algorithm, w: &Workload) {
    let mut scheduler = algo.build(Default::default());
    let mut engine = Engine::new(
        Machine::bluegene_p(),
        &mut scheduler,
        algo.ecc_policy(),
    );
    engine.enable_timeline(TimelineConfig {
        stride: Duration::from_secs(600),
        ..TimelineConfig::default()
    });
    engine.load(&w.jobs, &w.eccs).expect("valid workload");
    let r = engine.run().expect("simulation completes");

    println!("=== {} ===", algo.name());
    // Independent feasibility check.
    let violations = validate_schedule(&r.outcomes, 320);
    assert!(violations.is_empty(), "violations: {violations:?}");
    let occ = occupancy(&r.outcomes);
    println!(
        "feasible schedule; peak occupancy {} / 320 procs, utilization {:.4}",
        occ.peak,
        r.mean_utilization()
    );

    // Who waits? Small vs large jobs (the paper's small = ≤ 3 units).
    let b = breakdown(&r.outcomes, 96);
    println!(
        "small jobs ({:>3}): mean wait {:>8.1}s   large jobs ({:>3}): mean wait {:>8.1}s",
        b.small.jobs, b.small.mean_wait, b.large.jobs, b.large.mean_wait
    );

    // Fairness of per-job slowdowns.
    let slowdowns: Vec<f64> = r
        .outcomes
        .iter()
        .map(|o| {
            let run = o.runtime.as_secs_f64().max(10.0);
            ((o.wait.as_secs_f64() + o.runtime.as_secs_f64()) / run).max(1.0)
        })
        .collect();
    println!("Jain fairness of slowdowns: {:.3}", jain_fairness(&slowdowns));

    // Utilization over time.
    let bucket = (r.makespan.as_secs() / 72).max(1);
    let profile = utilization_profile(&r.outcomes, 320, bucket);
    println!("utilization  {}", sparkline(&profile));

    // Queue depth over time, from the engine's timeline samples.
    let samples = &r.timeline.samples;
    let max_wait = samples.iter().map(|s| s.queue_depth).max().unwrap_or(0);
    let depth_profile: Vec<(u64, f64)> = samples
        .iter()
        .map(|s| {
            (
                s.at.as_secs(),
                if max_wait == 0 {
                    0.0
                } else {
                    f64::from(s.queue_depth) / f64::from(max_wait)
                },
            )
        })
        .collect();
    println!(
        "queue depth  {}  (peak {} waiting)",
        sparkline(&depth_profile),
        max_wait
    );
    println!();
}

fn main() {
    let mut w = generate(&GeneratorConfig::paper_batch(0.2).with_jobs(300).with_seed(17));
    w.scale_to_load(320, 0.9);
    println!(
        "workload: {} jobs, mean size {:.0} procs, load {:.2}\n",
        w.len(),
        w.mean_size(),
        w.offered_load(320)
    );
    for algo in [Algorithm::Easy, Algorithm::Los, Algorithm::DelayedLos] {
        analyze(algo, &w);
    }

    // Zoom into the first jobs of the Delayed-LOS schedule.
    let r = Experiment::new(Algorithm::DelayedLos)
        .run_raw(&w)
        .expect("simulation completes");
    println!("first 20 jobs of the Delayed-LOS schedule:");
    println!("{}", gantt(&r.outcomes, 96, 20));
}
