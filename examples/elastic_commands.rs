//! Runtime elasticity: Elastic Control Commands in action (paper §III-C).
//!
//! Users extend or shrink the execution time of previously submitted
//! jobs *on the fly* (ET/RT commands); the `-E` schedulers process them
//! through the ECC processor. The example also demonstrates the paper's
//! future-work extension implemented by this library: elasticity in the
//! resource dimension (EP/RP — growing and shrinking a *running* job's
//! processor allocation).
//!
//! ```text
//! cargo run --release --example elastic_commands
//! ```

use elastisched::prelude::*;
use elastisched_sim::{simulate, Engine};

fn main() {
    // --- Part 1: time elasticity on a synthetic elastic workload. -----
    let mut w = generate(
        &GeneratorConfig::paper_batch(0.5)
            .with_paper_eccs() // P_E = 0.2, P_R = 0.1
            .with_jobs(400)
            .with_seed(7),
    );
    w.scale_to_load(320, 0.9);
    println!(
        "elastic workload: {} jobs, {} ECCs (ET extends, RT shrinks)\n",
        w.len(),
        w.eccs.len()
    );
    println!(
        "{:<16} {:>11} {:>14} {:>9} {:>13}",
        "algorithm", "utilization", "mean wait (s)", "slowdown", "ECCs applied"
    );
    for algo in [Algorithm::EasyE, Algorithm::LosE, Algorithm::DelayedLosE] {
        let m = Experiment::new(algo).run(&w).expect("simulation completes");
        println!(
            "{:<16} {:>11.4} {:>14.1} {:>9.3} {:>13}",
            format!("{}-E", m.scheduler),
            m.utilization,
            m.mean_wait,
            m.slowdown,
            m.eccs_applied
        );
    }

    // --- Part 2: a concrete ET/RT trace, step by step. -----------------
    println!("\n-- single-job ET/RT walkthrough --");
    let jobs = vec![JobSpec::batch(1, 0, 320, 1_000)];
    let eccs = vec![
        EccSpec::extend_time(JobId(1), SimTime::from_secs(200), 500), // +500s
        EccSpec::reduce_time(JobId(1), SimTime::from_secs(400), 200), // -200s
    ];
    let r = simulate(
        Machine::bluegene_p(),
        elastisched_sched::DelayedLos::new(),
        EccPolicy::time_only(),
        &jobs,
        &eccs,
    )
    .expect("simulation completes");
    let o = &r.outcomes[0];
    println!(
        "job 1: submitted 1000s of work, +500s at t=200, -200s at t=400 \
         → finished at t={} (expected 1300)",
        o.finished.as_secs()
    );

    // --- Part 3: resource-dimension elasticity (paper §VI future work).
    println!("\n-- processor-dimension elasticity (EP/RP) --");
    let jobs = vec![
        JobSpec::batch(1, 0, 64, 600),
        JobSpec::batch(2, 0, 128, 600),
    ];
    let eccs = vec![
        EccSpec {
            job: JobId(1),
            issue_at: SimTime::from_secs(100),
            kind: EccKind::ExtendProcs,
            amount: 64,
        },
        EccSpec {
            job: JobId(2),
            issue_at: SimTime::from_secs(300),
            kind: EccKind::ReduceProcs,
            amount: 64,
        },
    ];
    let mut engine = Engine::new(
        Machine::bluegene_p(),
        elastisched_sched::DelayedLos::new(),
        EccPolicy::with_resource_elasticity(),
    );
    engine.load(&jobs, &eccs).expect("valid workload");
    let r = engine.run().expect("simulation completes");
    for o in &r.outcomes {
        println!("job {}: finished holding {} processors", o.id.0, o.num);
    }
    println!(
        "job 1 grew 64→128 processors mid-run; job 2 shrank 128→64,\n\
         releasing node groups back to the machine."
    );
}
