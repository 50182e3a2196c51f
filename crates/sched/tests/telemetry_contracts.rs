//! Behavioural contracts of the LOS family, pinned via telemetry.

use elastisched_sched::{DelayedLos, HybridLos, Los, LosD};
use elastisched_sim::{EccPolicy, Engine, JobSpec, Machine};

fn run_delayed(jobs: &[JobSpec], cs: u32) -> elastisched_sched::Telemetry {
    // `&mut S: Scheduler` lets the caller keep the scheduler (and its
    // telemetry) after the engine consumed itself on run().
    let mut sched = DelayedLos::with_params(cs, 50);
    let mut engine = Engine::new(Machine::bluegene_p(), &mut sched, EccPolicy::disabled());
    engine.load(jobs, &[]).unwrap();
    engine.run().unwrap();
    *sched.telemetry()
}

fn run_hybrid(jobs: &[JobSpec], cs: u32) -> elastisched_sched::Telemetry {
    let mut sched = HybridLos::with_params(cs, 50);
    let mut engine = Engine::new(Machine::bluegene_p(), &mut sched, EccPolicy::disabled());
    engine.load(jobs, &[]).unwrap();
    engine.run().unwrap();
    *sched.telemetry()
}

#[test]
fn figure2_head_skip_is_counted() {
    let jobs = vec![
        JobSpec::batch(1, 0, 224, 100),
        JobSpec::batch(2, 0, 128, 100),
        JobSpec::batch(3, 0, 192, 100),
    ];
    let t = run_delayed(&jobs, 5);
    assert!(t.basic_dp_calls >= 1, "Basic_DP must have run");
    assert!(t.head_skips >= 1, "the 7-unit head was skipped");
    // The head eventually starts via a DP selection or the force rule;
    // all three jobs started.
    assert_eq!(t.total_starts(), 3);
}

#[test]
fn cs_zero_uses_force_starts_not_skips() {
    let jobs = vec![
        JobSpec::batch(1, 0, 224, 100),
        JobSpec::batch(2, 0, 128, 100),
        JobSpec::batch(3, 0, 192, 100),
    ];
    let t = run_delayed(&jobs, 0);
    assert!(t.head_force_starts >= 1, "C_s=0 must force heads through");
    assert_eq!(t.head_skips, 0, "no skips possible at C_s=0");
}

#[test]
fn skip_budget_is_respected_per_job() {
    // A head stuck behind perfect pairs: it must be skipped at most C_s
    // times before a force start.
    let mut jobs = vec![JobSpec::batch(1, 0, 224, 50)];
    let mut id = 2;
    for k in 0..10 {
        jobs.push(JobSpec::batch(id, k * 50, 128, 50));
        id += 1;
        jobs.push(JobSpec::batch(id, k * 50, 192, 50));
        id += 1;
    }
    let cs = 3;
    let t = run_delayed(&jobs, cs);
    assert!(t.head_force_starts >= 1, "head must be forced eventually");
    // The *first* head can be skipped at most cs times; later heads are
    // pairs that the DP takes. Global skip count is bounded by cs per
    // distinct head job.
    assert!(t.head_skips <= cs as u64 * jobs.len() as u64);
}

#[test]
fn hybrid_promotes_every_dedicated_job_exactly_once() {
    let mut jobs = Vec::new();
    for i in 0..30u64 {
        if i % 3 == 0 {
            jobs.push(JobSpec::dedicated(
                i + 1,
                i * 20,
                32 * (1 + (i as u32) % 4),
                40,
                i * 20 + 100,
            ));
        } else {
            jobs.push(JobSpec::batch(i + 1, i * 20, 32 * (1 + (i as u32) % 6), 60));
        }
    }
    let t = run_hybrid(&jobs, 7);
    let dedicated = jobs.iter().filter(|j| j.class.is_dedicated()).count() as u64;
    assert_eq!(t.dedicated_promotions, dedicated);
    assert!(t.cycles > 0);
}

#[test]
fn pure_batch_hybrid_never_promotes() {
    let jobs: Vec<JobSpec> = (0..20)
        .map(|i| JobSpec::batch(i + 1, i * 15, 32 * (1 + (i as u32) % 8), 50))
        .collect();
    let t = run_hybrid(&jobs, 7);
    assert_eq!(t.dedicated_promotions, 0);
    assert!(t.basic_dp_calls > 0, "delegates to Delayed-LOS");
}

#[test]
fn mut_ref_scheduler_runs_through_engine() {
    // Pins that a boxed scheduler works through the engine, which the
    // algorithm registry relies on.
    let jobs = vec![JobSpec::batch(1, 0, 64, 10)];
    let boxed: Box<dyn elastisched_sim::Scheduler + Send> =
        Box::new(DelayedLos::with_params(7, 50));
    let mut engine = Engine::new(Machine::bluegene_p(), boxed, EccPolicy::disabled());
    engine.load(&jobs, &[]).unwrap();
    let r = engine.run().unwrap();
    assert_eq!(r.outcomes.len(), 1);
}

#[test]
fn los_counts_its_dp_calls_and_starts() {
    // The blocked head (job 2) holds a reservation at t = 100; LOS's
    // Reservation_DP packs {96, 32} of the 128 free processors at t = 1
    // (the LOS unit test `dp_packs_queue_behind_blocked_head`). Every
    // other start is an eager head start, which no DP counter sees.
    let jobs = vec![
        JobSpec::batch(1, 0, 192, 100),
        JobSpec::batch(2, 1, 320, 100),
        JobSpec::batch(3, 1, 64, 50),
        JobSpec::batch(4, 1, 96, 50),
        JobSpec::batch(5, 1, 32, 50),
    ];
    let mut sched = Los::new();
    let mut engine = Engine::new(Machine::bluegene_p(), &mut sched, EccPolicy::disabled());
    engine.load(&jobs, &[]).unwrap();
    let r = engine.run().unwrap();
    let t = *sched.telemetry();
    assert!(t.reservation_dp_calls >= 1, "Reservation_DP must have run");
    assert_eq!(t.basic_dp_calls, 0, "LOS never runs Basic_DP");
    assert_eq!(t.dp_starts, 2, "jobs 4 and 5 start out of the DP");
    // The count reaches the engine's stats, hence the metrics plane.
    assert_eq!(r.sched_stats.dp_starts, 2);

    // LOS-D counts through the same pass.
    let mut sched = LosD::new();
    let mut engine = Engine::new(Machine::bluegene_p(), &mut sched, EccPolicy::disabled());
    engine.load(&jobs, &[]).unwrap();
    let r = engine.run().unwrap();
    assert_eq!(sched.telemetry().dp_starts, 2);
    assert_eq!(r.sched_stats.dp_starts, 2);
}
