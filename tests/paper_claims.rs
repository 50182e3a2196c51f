//! Integration tests for the paper's qualitative claims, spanning the
//! whole stack (workload generator → schedulers → engine → metrics).

use elastisched::prelude::*;
use elastisched_sched::SchedParams;

fn batch_workload(ps: f64, load: f64, seed: u64, n: usize) -> Workload {
    let mut w = generate(
        &GeneratorConfig::paper_batch(ps)
            .with_jobs(n)
            .with_seed(seed),
    );
    w.scale_to_load(320, load);
    w
}

fn het_workload(ps: f64, pd: f64, load: f64, seed: u64, n: usize) -> Workload {
    let mut w = generate(
        &GeneratorConfig::paper_heterogeneous(ps, pd)
            .with_jobs(n)
            .with_seed(seed),
    );
    w.scale_to_load(320, load);
    w
}

fn run(algo: Algorithm, cs: u32, w: &Workload) -> RunMetrics {
    Experiment {
        params: SchedParams::with_cs(cs),
        machine: MachineSpec::BLUEGENE_P,
        ..Experiment::new(algo)
    }
    .run(w)
    .expect("simulation completes")
}

/// Figure 2 / §III-A: on the motivating example, Delayed-LOS achieves
/// utilization 10/10 where LOS achieves 7/10.
#[test]
fn figure2_delayed_los_beats_los_packing() {
    let jobs = vec![
        JobSpec::batch(1, 0, 224, 100), // 7 units — head
        JobSpec::batch(2, 0, 128, 100), // 4 units
        JobSpec::batch(3, 0, 192, 100), // 6 units
    ];
    let w = Workload::from_jobs(jobs);
    let los = run(Algorithm::Los, 7, &w);
    let dl = run(Algorithm::DelayedLos, 7, &w);
    // Both schedules finish all work at t=200, so *makespan-wide*
    // utilization ties; the packing difference shows up as waiting time:
    // Delayed-LOS delays only the head (waits {100,0,0}), LOS delays the
    // pair ({0,100,100}).
    assert!(
        dl.mean_wait < los.mean_wait,
        "Delayed-LOS wait {} must beat LOS {}",
        dl.mean_wait,
        los.mean_wait
    );
    assert!((dl.mean_wait - 100.0 / 3.0).abs() < 1.0);
    assert!((los.mean_wait - 200.0 / 3.0).abs() < 1.0);
    assert_eq!(dl.jobs, 3);
    assert_eq!(los.jobs, 3);
}

/// §V-A headline: averaged over seeds at high load with variable job
/// sizes (low P_S), Delayed-LOS beats LOS on mean waiting time.
#[test]
fn delayed_los_beats_los_on_variable_size_workloads() {
    let mut dl_total = 0.0;
    let mut los_total = 0.0;
    for seed in 0..5u64 {
        let w = batch_workload(0.2, 0.9, 100 + seed, 300);
        dl_total += run(Algorithm::DelayedLos, 8, &w).mean_wait;
        los_total += run(Algorithm::Los, 8, &w).mean_wait;
    }
    assert!(
        dl_total < los_total,
        "Delayed-LOS mean wait {dl_total:.0} should beat LOS {los_total:.0}"
    );
}

/// §V-B headline: Hybrid-LOS beats LOS-D and EASY-D on heterogeneous
/// workloads (averaged over seeds).
#[test]
fn hybrid_los_beats_dedicated_baselines() {
    let mut hybrid = 0.0;
    let mut los_d = 0.0;
    let mut easy_d = 0.0;
    for seed in 0..5u64 {
        let w = het_workload(0.2, 0.5, 0.9, 200 + seed, 300);
        hybrid += run(Algorithm::HybridLos, 8, &w).mean_wait;
        los_d += run(Algorithm::LosD, 8, &w).mean_wait;
        easy_d += run(Algorithm::EasyD, 8, &w).mean_wait;
    }
    assert!(
        hybrid < los_d,
        "Hybrid-LOS wait {hybrid:.0} should beat LOS-D {los_d:.0}"
    );
    assert!(
        hybrid < easy_d,
        "Hybrid-LOS wait {hybrid:.0} should beat EASY-D {easy_d:.0}"
    );
}

/// Every algorithm in Table III drains every workload it is built for.
#[test]
fn all_twelve_table_iii_algorithms_complete_their_workloads() {
    let batch = batch_workload(0.5, 0.85, 7, 150);
    let het = het_workload(0.5, 0.5, 0.85, 7, 150);
    let mut elastic_batch = generate(
        &GeneratorConfig::paper_batch(0.5)
            .with_paper_eccs()
            .with_jobs(150)
            .with_seed(7),
    );
    elastic_batch.scale_to_load(320, 0.85);
    let mut elastic_het = generate(
        &GeneratorConfig::paper_heterogeneous(0.5, 0.5)
            .with_paper_eccs()
            .with_jobs(150)
            .with_seed(7),
    );
    elastic_het.scale_to_load(320, 0.85);

    for algo in Algorithm::PAPER_TABLE_III {
        let w = match (algo.heterogeneous(), algo.elastic()) {
            (false, false) => &batch,
            (true, false) => &het,
            (false, true) => &elastic_batch,
            (true, true) => &elastic_het,
        };
        let m = run(algo, 7, w);
        assert_eq!(m.jobs, 150, "{algo} lost jobs");
        assert!(m.utilization > 0.0 && m.utilization <= 1.0 + 1e-9, "{algo}");
        if algo.elastic() {
            assert!(m.eccs_applied > 0, "{algo} ignored ECCs");
        } else {
            assert_eq!(m.eccs_applied, 0, "{algo} applied ECCs");
        }
    }
}

/// Dedicated jobs overwhelmingly start on time at light load, under all
/// three heterogeneous schedulers. (Only the *first* future dedicated
/// job is protected by a freeze — the paper's own design — so a small
/// tail of delays from back-to-back reservations is expected.)
#[test]
fn dedicated_jobs_start_on_time_given_capacity() {
    let w = het_workload(0.8, 0.3, 0.3, 31, 120);
    for algo in [Algorithm::EasyD, Algorithm::LosD, Algorithm::HybridLos] {
        let m = run(algo, 7, &w);
        assert!(
            m.dedicated_on_time as f64 >= 0.75 * m.dedicated_jobs as f64,
            "{algo}: only {}/{} dedicated jobs on time",
            m.dedicated_on_time,
            m.dedicated_jobs
        );
        assert!(
            m.mean_dedicated_delay < m.mean_runtime,
            "{algo}: mean dedicated delay {} out of proportion",
            m.mean_dedicated_delay
        );
    }
}

/// Determinism: identical configuration → identical metrics, even across
/// the parallel sweep harness.
#[test]
fn simulations_are_deterministic() {
    let w = batch_workload(0.5, 0.9, 13, 200);
    let runs = elastisched::parallel_map(vec![0u8; 4], |_| run(Algorithm::DelayedLos, 7, &w));
    for r in &runs[1..] {
        assert_eq!(*r, runs[0]);
    }
}

/// The ECC processor's effect is visible: an elastic run differs from a
/// non-elastic run of the same trace, and job durations actually moved.
#[test]
fn eccs_change_schedules() {
    let mut w = generate(
        &GeneratorConfig::paper_batch(0.5)
            .with_paper_eccs()
            .with_jobs(200)
            .with_seed(23),
    );
    w.scale_to_load(320, 0.9);
    assert!(!w.eccs.is_empty());
    let plain = run(Algorithm::DelayedLos, 7, &w);
    let elastic = run(Algorithm::DelayedLosE, 7, &w);
    assert!(elastic.eccs_applied > 0);
    assert_ne!(
        plain.mean_runtime, elastic.mean_runtime,
        "ET/RT commands must change effective runtimes"
    );
}

/// Conservation: total busy area equals the sum of per-job work, for a
/// mixed heterogeneous + elastic run.
#[test]
fn busy_area_conservation_end_to_end() {
    let mut w = generate(
        &GeneratorConfig::paper_heterogeneous(0.5, 0.4)
            .with_paper_eccs()
            .with_jobs(250)
            .with_seed(5),
    );
    w.scale_to_load(320, 0.95);
    let exp = Experiment::new(Algorithm::HybridLosE);
    let r = exp.run_raw(&w).expect("simulation completes");
    let work: f64 = r
        .outcomes
        .iter()
        .map(|o| o.num as f64 * o.runtime.as_secs_f64())
        .sum();
    assert!(
        (r.busy_area - work).abs() < 1e-6,
        "busy area {} != total work {work}",
        r.busy_area
    );
}

/// FCFS is never better than EASY on mean wait (backfilling only adds
/// opportunities) — sanity anchor for the baseline ordering.
#[test]
fn easy_dominates_fcfs() {
    let mut fcfs_total = 0.0;
    let mut easy_total = 0.0;
    for seed in 0..3u64 {
        let w = batch_workload(0.5, 0.9, 300 + seed, 250);
        fcfs_total += run(Algorithm::Fcfs, 7, &w).mean_wait;
        easy_total += run(Algorithm::Easy, 7, &w).mean_wait;
    }
    assert!(
        easy_total <= fcfs_total,
        "EASY {easy_total:.0} must not lose to FCFS {fcfs_total:.0}"
    );
}
