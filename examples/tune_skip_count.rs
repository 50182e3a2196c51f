//! Tuning the maximum skip count `C_s` — the paper's Figure 5/6 study,
//! in miniature.
//!
//! Delayed-LOS's single knob is `C_s`, the number of scheduling cycles
//! the queue head may be skipped in favour of better-packing job sets.
//! The paper finds a sweet spot around 7–8 for balanced workloads
//! (P_S = 0.5) and insensitivity beyond ≈3 for small-job-heavy ones
//! (P_S = 0.8). This example sweeps `C_s` and prints both curves.
//!
//! ```text
//! cargo run --release --example tune_skip_count
//! ```

use elastisched::parallel_map;
use elastisched::prelude::*;

fn sweep(p_small: f64, loads_seed: u64) -> Vec<(u32, f64, f64)> {
    let mut w = generate(
        &GeneratorConfig::paper_batch(p_small)
            .with_jobs(400)
            .with_seed(loads_seed),
    );
    w.scale_to_load(320, 0.9);
    let cs_values: Vec<u32> = vec![0, 1, 2, 3, 5, 7, 10, 14, 20];
    parallel_map(cs_values, |cs| {
        let m = Experiment::new(Algorithm::DelayedLos)
            .with_cs(cs)
            .run(&w)
            .expect("simulation completes");
        (cs, m.utilization, m.mean_wait)
    })
}

fn main() {
    for (p_small, seed) in [(0.5, 11u64), (0.8, 12u64)] {
        println!("P_S = {p_small} (Load ≈ 0.9):");
        println!("{:>5} {:>12} {:>14}", "C_s", "utilization", "mean wait (s)");
        let rows = sweep(p_small, seed);
        let best = rows
            .iter()
            .min_by(|a, b| a.2.partial_cmp(&b.2).unwrap())
            .map(|r| r.0)
            .unwrap();
        for (cs, util, wait) in &rows {
            let marker = if *cs == best { "  ← best wait" } else { "" };
            println!("{cs:>5} {util:>12.4} {wait:>14.1}{marker}");
        }
        println!();
    }
    println!(
        "C_s = 0 degenerates to LOS's start-the-head-right-away rule; large\n\
         C_s risks starving the head. The paper's guidance: pick C_s\n\
         empirically per workload mix (small-job-heavy mixes need less)."
    );
}
