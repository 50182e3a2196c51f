//! Fresh-core oracle for the ordered cores' kept policy order.
//!
//! [`OrderedCore`] keeps the queued jobs sorted by policy key across
//! cycles that only appended to the batch queue, inserting just the
//! arrivals, and compacts the jobs it starts out of that order. The
//! oracle here is a core built anew every cycle: it always sorts the
//! whole queue. For all three [`OrderPolicy`]s, with backfilling off and
//! on, and composed through the same stack layers (batch-only, `-D`,
//! `+m` over both), the two must give every job the same start, finish
//! and width. Random workloads cover batch and heterogeneous jobs,
//! loads 0.5–1.2, ECCs off and on (processor ECCs included, so queued
//! jobs re-key), exact and over-estimated runtimes, and malleable jobs
//! under `+m`; a hand-made workload adds arrival bursts.

use elastisched_sched::stack::WithMalleable;
use elastisched_sched::{
    BatchOnly, BatchPolicy, BatchQueue, Freeze, OrderPolicy, OrderedCore, PolicyShared,
    PolicyStack, WithDedicated,
};
use elastisched_sim::{simulate, Duration, EccPolicy, JobSpec, Machine, SchedContext, Scheduler};
use elastisched_test_util::add_procs_eccs;
use elastisched_workload::{generate, GeneratorConfig, Workload};
use proptest::prelude::*;

/// The ordered core's configuration: policy and backfilling.
#[derive(Debug, Clone, Copy)]
struct Core {
    policy: OrderPolicy,
    backfill: bool,
}

impl Core {
    const ALL: [Core; 6] = [
        Core::new(OrderPolicy::ShortestJobFirst, false),
        Core::new(OrderPolicy::ShortestJobFirst, true),
        Core::new(OrderPolicy::SmallestJobFirst, false),
        Core::new(OrderPolicy::SmallestJobFirst, true),
        Core::new(OrderPolicy::LargestJobFirst, false),
        Core::new(OrderPolicy::LargestJobFirst, true),
    ];

    const fn new(policy: OrderPolicy, backfill: bool) -> Self {
        Core { policy, backfill }
    }

    fn build(self) -> OrderedCore {
        if self.backfill {
            OrderedCore::with_backfill(self.policy)
        } else {
            OrderedCore::new(self.policy)
        }
    }
}

/// An ordered core with nothing kept between cycles.
struct FreshOrdered(Core);

impl BatchPolicy for FreshOrdered {
    fn name(&self) -> &'static str {
        self.0.build().name()
    }

    fn dedicated_name(&self) -> &'static str {
        self.0.build().dedicated_name()
    }

    fn cycle(
        &mut self,
        queue: &mut BatchQueue,
        ctx: &mut dyn SchedContext,
        ded: Option<Freeze>,
        shared: &mut PolicyShared,
    ) {
        self.0.build().cycle(queue, ctx, ded, shared);
    }
}

/// The four stacks: plain, `-D`, `+m`, `-D+m`.
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
    core: Core,
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
        assert_same_schedule(self.core, self.shape, self.eccs, &self.workload(), self);
    }
}

/// Run `w` through the kept-order core and the fresh one, both in
/// `shape`'s stack, with ECC processing on when `eccs` is set; panic
/// (naming `case`) on the first job whose `(id, start, finish, num)`
/// differs.
fn assert_same_schedule(
    core: Core,
    shape: Shape,
    eccs: bool,
    w: &Workload,
    case: &dyn std::fmt::Debug,
) {
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
    let kept = schedule(shape.build(core.build()));
    let fresh = schedule(shape.build(FreshOrdered(core)));
    if let Some((k, f)) = kept.iter().zip(&fresh).find(|(k, f)| k != f) {
        panic!("{case:?}: kept order gave {k:?}, a fresh core {f:?}");
    }
    assert_eq!(kept, fresh, "{case:?}");
}

#[test]
fn kept_order_matches_a_fresh_core_on_every_stack() {
    for core in Core::ALL {
        for shape in Shape::ALL {
            for (seed, load) in [(3, 0.6), (4, 1.0), (5, 1.2)] {
                for eccs in [false, true] {
                    for overestimate in [1.0, 1.5] {
                        Case {
                            core,
                            shape,
                            seed,
                            load,
                            eccs,
                            overestimate,
                            jobs: 150,
                        }
                        .check();
                    }
                }
            }
        }
    }
}

#[test]
fn arrival_bursts_insert_like_a_full_sort() {
    // Bursts of one, two and many arrivals at one instant behind a
    // full machine: a cycle inserts a few arrivals into the kept order
    // and sorts outright after a larger burst.
    let mut jobs = vec![JobSpec::batch(1, 0, 320, 100)];
    for (submit, count) in [(1, 1), (2, 2), (3, 30), (4, 1), (5, 3), (150, 40), (151, 2)] {
        for _ in 0..count {
            let id = jobs.len() as u64 + 1;
            let num = 32 * (1 + (id * 7 % 10) as u32);
            jobs.push(JobSpec::batch(id, submit, num, 20 + id * 37 % 90));
        }
    }
    let w = Workload::from_jobs(jobs);
    for core in Core::ALL {
        for shape in [Shape::Plain, Shape::Malleable] {
            assert_same_schedule(core, shape, false, &w, &(core, shape));
        }
    }
}

/// Exact estimates half the time, as in the Conservative oracle.
const OVERESTIMATES: [f64; 4] = [1.0, 1.0, 1.3, 2.5];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kept_order_matches_a_fresh_core_on_random_workloads(
        core_idx in 0usize..6,
        shape_idx in 0usize..4,
        seed in 0u64..10_000,
        load_pct in 50u32..=120,
        eccs in prop::bool::ANY,
        overestimate_idx in 0usize..4,
    ) {
        Case {
            core: Core::ALL[core_idx],
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
