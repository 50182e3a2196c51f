//! Fresh-core oracle for Conservative backfilling's kept profile.
//!
//! [`ConservativeCore`] keeps its resource profile across cycles that
//! only appended to the batch queue and resumes its walk where the last
//! cycle stopped. The oracle here is a core built anew every cycle: it
//! always rebuilds the profile from the running set and walks from the
//! queue head. Composed through the same stack layers (batch-only,
//! `-D`, `+m` over both), the two must give every job the same start,
//! finish and width. Random workloads cover batch and heterogeneous
//! jobs, loads 0.5–1.2, ECCs off and on (processor ECCs included, so
//! queued and running jobs change width), exact and over-estimated
//! runtimes, and malleable jobs under `+m`; a hand-made workload adds
//! zero-duration jobs.

use elastisched_sched::stack::WithMalleable;
use elastisched_sched::{
    BatchOnly, BatchPolicy, BatchQueue, ConservativeCore, Freeze, PolicyShared, PolicyStack,
    WithDedicated,
};
use elastisched_sim::{simulate, Duration, EccPolicy, JobSpec, Machine, SchedContext, Scheduler};
use elastisched_test_util::add_procs_eccs;
use elastisched_workload::{generate, GeneratorConfig, Workload};
use proptest::prelude::*;

/// Conservative with nothing kept between cycles.
struct FreshConservative;

impl BatchPolicy for FreshConservative {
    fn name(&self) -> &'static str {
        "Conservative"
    }

    fn dedicated_name(&self) -> &'static str {
        "Conservative-D"
    }

    fn cycle(
        &mut self,
        queue: &mut BatchQueue,
        ctx: &mut dyn SchedContext,
        ded: Option<Freeze>,
        shared: &mut PolicyShared,
    ) {
        ConservativeCore::new().cycle(queue, ctx, ded, shared);
    }
}

/// The four Conservative stacks: plain, `-D`, `+m`, `-D+m`.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Plain,
    Dedicated,
    Malleable,
    DedicatedMalleable,
}

impl Shape {
    const ALL: [Shape; 4] = [
        Shape::Plain,
        Shape::Dedicated,
        Shape::Malleable,
        Shape::DedicatedMalleable,
    ];

    fn dedicated(self) -> bool {
        matches!(self, Shape::Dedicated | Shape::DedicatedMalleable)
    }

    fn malleable(self) -> bool {
        matches!(self, Shape::Malleable | Shape::DedicatedMalleable)
    }

    fn build<P: BatchPolicy + Send + 'static>(self, core: P) -> Box<dyn Scheduler + Send> {
        match self {
            Shape::Plain => Box::new(PolicyStack::batch_only(core)),
            Shape::Dedicated => Box::new(PolicyStack::with_dedicated(core, 0)),
            Shape::Malleable => Box::new(PolicyStack::<WithMalleable<_>>::with_malleable(
                BatchOnly::new(core),
            )),
            Shape::DedicatedMalleable => Box::new(PolicyStack::<WithMalleable<_>>::with_malleable(
                WithDedicated::new(core, 0),
            )),
        }
    }
}

/// One random instance of the suite's workload space.
#[derive(Debug, Clone, Copy)]
struct Case {
    shape: Shape,
    seed: u64,
    load: f64,
    eccs: bool,
    overestimate: f64,
    jobs: usize,
}

impl Case {
    fn workload(&self) -> Workload {
        let mut cfg = if self.shape.dedicated() {
            GeneratorConfig::paper_heterogeneous(0.5, 0.3)
        } else {
            GeneratorConfig::paper_batch(0.5)
        }
        .with_jobs(self.jobs)
        .with_seed(self.seed);
        if self.eccs {
            cfg = cfg.with_paper_eccs();
        }
        if self.shape.malleable() {
            cfg = cfg.with_malleable(0.5);
        }
        cfg.overestimate_factor = self.overestimate;
        let mut w = generate(&cfg);
        w.scale_to_load(320, self.load);
        if self.eccs {
            add_procs_eccs(&w.jobs, &mut w.eccs, 32, Duration::from_secs(1));
        }
        w
    }

    /// Panic unless both cores schedule this case's workload alike.
    fn check(&self) {
        assert_same_schedule(self.shape, self.eccs, &self.workload(), self);
    }
}

/// Run `w` through the kept-profile core and the fresh one, both in
/// `shape`'s stack, with ECC processing on when `eccs` is set; panic
/// (naming `case`) on the first job whose `(id, start, finish, num)`
/// differs.
fn assert_same_schedule(shape: Shape, eccs: bool, w: &Workload, case: &dyn std::fmt::Debug) {
    let ecc = if eccs {
        EccPolicy::with_resource_elasticity()
    } else {
        EccPolicy::disabled()
    };
    let schedule = |sched: Box<dyn Scheduler + Send>| {
        let r = simulate(Machine::bluegene_p(), sched, ecc, &w.jobs, &w.eccs)
            .expect("simulation runs to completion");
        assert_eq!(r.outcomes.len(), w.jobs.len(), "{case:?}");
        let mut s: Vec<_> = r
            .outcomes
            .iter()
            .map(|o| (o.id, o.started, o.finished, o.num))
            .collect();
        s.sort_unstable();
        s
    };
    let kept = schedule(shape.build(ConservativeCore::new()));
    let fresh = schedule(shape.build(FreshConservative));
    if let Some((k, f)) = kept.iter().zip(&fresh).find(|(k, f)| k != f) {
        panic!("{case:?}: kept profile gave {k:?}, a fresh core {f:?}");
    }
    assert_eq!(kept, fresh, "{case:?}");
}

#[test]
fn kept_profile_matches_a_fresh_core_on_every_stack() {
    for shape in Shape::ALL {
        for (seed, load) in [(3, 0.6), (4, 1.0), (5, 1.2)] {
            for eccs in [false, true] {
                for overestimate in [1.0, 1.5] {
                    Case {
                        shape,
                        seed,
                        load,
                        eccs,
                        overestimate,
                        jobs: 200,
                    }
                    .check();
                }
            }
        }
    }
}

#[test]
fn zero_duration_starts_free_their_slot_within_the_instant() {
    // A zero-duration job reserves one second but completes the instant
    // it starts, so the engine runs a second cycle at that instant. The
    // kept profile still holds that second; only a rebuild sees the
    // machine free again and starts the jobs queued behind.
    let w = Workload::from_jobs(vec![
        JobSpec::batch(1, 0, 320, 0),
        JobSpec::batch(2, 0, 32, 10),
        JobSpec::batch(3, 5, 160, 20),
        JobSpec::batch(4, 5, 320, 0),
        JobSpec::batch(5, 5, 160, 0),
        JobSpec::batch(6, 6, 64, 30),
    ]);
    for shape in Shape::ALL {
        assert_same_schedule(shape, false, &w, &shape);
    }
}

/// Exact estimates half the time: then every job completes at its
/// kill-by time, the case where the kept profile survives completions.
const OVERESTIMATES: [f64; 4] = [1.0, 1.0, 1.3, 2.5];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kept_profile_matches_a_fresh_core_on_random_workloads(
        shape_idx in 0usize..4,
        seed in 0u64..10_000,
        load_pct in 50u32..=120,
        eccs in prop::bool::ANY,
        overestimate_idx in 0usize..4,
    ) {
        Case {
            shape: Shape::ALL[shape_idx],
            seed,
            load: f64::from(load_pct) / 100.0,
            eccs,
            overestimate: OVERESTIMATES[overestimate_idx],
            jobs: 150,
        }
        .check();
    }
}
