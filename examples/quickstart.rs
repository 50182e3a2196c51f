//! Quickstart: generate the paper's synthetic workload, schedule it with
//! every batch algorithm, and print the paper's three metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use elastisched::prelude::*;

fn main() {
    // The paper's setup (§V): a 500-job batch workload on a simulated
    // BlueGene/P (320 processors in 32-processor node groups), small-job
    // probability P_S = 0.5, offered load 0.9.
    let mut workload = generate(
        &GeneratorConfig::paper_batch(0.5)
            .with_jobs(500)
            .with_seed(42),
    );
    workload.scale_to_load(320, 0.9);
    println!(
        "workload: {} jobs, mean size {:.0} procs, mean runtime {:.0}s, load {:.2}\n",
        workload.len(),
        workload.mean_size(),
        workload.mean_runtime(),
        workload.offered_load(320)
    );

    println!(
        "{:<14} {:>12} {:>14} {:>10}",
        "algorithm", "utilization", "mean wait (s)", "slowdown"
    );
    for algo in [
        Algorithm::Fcfs,
        Algorithm::Easy,
        Algorithm::Conservative,
        Algorithm::Los,
        Algorithm::DelayedLos,
    ] {
        let metrics = Experiment::new(algo)
            .run(&workload)
            .expect("simulation completes");
        println!(
            "{:<14} {:>12.4} {:>14.1} {:>10.3}",
            metrics.scheduler, metrics.utilization, metrics.mean_wait, metrics.slowdown
        );
    }

    println!(
        "\nDelayed-LOS is the paper's Algorithm 1: it lets the Basic_DP pick the\n\
         utilization-maximizing job set and only forces the queue head through\n\
         after C_s skipped cycles."
    );
}
