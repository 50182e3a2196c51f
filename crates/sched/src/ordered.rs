//! Order-based baselines from the paper's related work (§II-B):
//! shortest-job-first [3], smallest-job-first [10] and largest-job-first
//! [11], each with optional EASY-style backfilling.
//!
//! The paper cites studies [5], [13] finding that these orderings "do not
//! necessarily perform better than a straightforward FCFS scheduling" —
//! the `repro baselines` target reproduces that comparison.
//!
//! The core shares the stack's FIFO [`BatchQueue`] and keeps the queued
//! jobs in policy order across cycles. While the queue's
//! [`BatchQueue::version`] holds, only arrivals were appended, and a
//! cycle inserts just those. Any other change rebuilds and sorts the
//! order: a `-D` promotion, or a queued ECC, which re-keys the job it
//! resizes. The core's own starts need no rebuild: it compacts them out
//! of the order and keeps the version they leave. The policy-head is the
//! first job in the order; the backfill walks the rest in place and
//! stops once nothing is free.

use crate::freeze::{batch_head_freeze, Freeze};
use crate::queue::BatchQueue;
use crate::stack::{ded_allows, ded_commit, BatchOnly, BatchPolicy, PolicyShared, PolicyStack};
use elastisched_sim::{Duration, JobId, JobView, SchedContext};
use serde::{Deserialize, Serialize};

/// Queue ordering disciplines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OrderPolicy {
    /// Shortest estimated runtime first (SJF, ref [3]).
    ShortestJobFirst,
    /// Fewest processors first (smallest-job-first, ref [10]).
    SmallestJobFirst,
    /// Most processors first (largest-job-first, ref [11], motivated by
    /// first-fit-decreasing bin packing).
    LargestJobFirst,
}

impl OrderPolicy {
    pub(crate) fn key(&self, j: &JobView) -> (u64, u64, u64) {
        // Tertiary keys keep the order deterministic and FIFO-fair.
        match self {
            OrderPolicy::ShortestJobFirst => (j.dur.as_secs(), j.submit.as_secs(), j.id.0),
            OrderPolicy::SmallestJobFirst => (u64::from(j.num), j.submit.as_secs(), j.id.0),
            OrderPolicy::LargestJobFirst => {
                (u64::MAX - u64::from(j.num), j.submit.as_secs(), j.id.0)
            }
        }
    }

    pub(crate) fn name(&self) -> &'static str {
        match self {
            OrderPolicy::ShortestJobFirst => "SJF",
            OrderPolicy::SmallestJobFirst => "Smallest-First",
            OrderPolicy::LargestJobFirst => "Largest-First",
        }
    }

    pub(crate) fn name_backfill(&self) -> &'static str {
        match self {
            OrderPolicy::ShortestJobFirst => "SJF-BF",
            OrderPolicy::SmallestJobFirst => "Smallest-First-BF",
            OrderPolicy::LargestJobFirst => "Largest-First-BF",
        }
    }

    fn name_dedicated(&self) -> &'static str {
        match self {
            OrderPolicy::ShortestJobFirst => "SJF-D",
            OrderPolicy::SmallestJobFirst => "Smallest-First-D",
            OrderPolicy::LargestJobFirst => "Largest-First-D",
        }
    }

    fn name_backfill_dedicated(&self) -> &'static str {
        match self {
            OrderPolicy::ShortestJobFirst => "SJF-BF-D",
            OrderPolicy::SmallestJobFirst => "Smallest-First-BF-D",
            OrderPolicy::LargestJobFirst => "Largest-First-BF-D",
        }
    }
}

/// A queued job in policy order: (policy key, id, num, dur).
type Ranked = ((u64, u64, u64), JobId, u32, Duration);

/// The order-based policy core: starts in policy order with optional
/// EASY-style backfilling around the blocked policy-head.
#[derive(Debug)]
pub struct OrderedCore {
    policy: OrderPolicy,
    backfill: bool,
    /// Every queued job, sorted by policy key, kept across cycles.
    order: Vec<Ranked>,
    /// The queue's version after the last cycle's starts: while it
    /// holds, the queue is `order`'s jobs plus arrivals behind them.
    version: u64,
}

impl OrderedCore {
    /// Pure ordering, no backfill: a blocked policy-head blocks the queue.
    pub fn new(policy: OrderPolicy) -> Self {
        OrderedCore {
            policy,
            backfill: false,
            order: Vec::new(),
            version: 0,
        }
    }

    /// Ordering plus EASY-style aggressive backfilling.
    pub fn with_backfill(policy: OrderPolicy) -> Self {
        OrderedCore {
            backfill: true,
            ..OrderedCore::new(policy)
        }
    }

    /// Bring `order` up to date with `queue`: insert the arrivals behind
    /// the kept jobs, or rebuild after any other change to the queue (a
    /// queued ECC re-keys a job, a `-D` promotion inserts one at the
    /// front).
    fn sync(&mut self, queue: &BatchQueue) {
        if queue.version() != self.version || queue.len() < self.order.len() {
            self.order.clear();
        }
        let kept = self.order.len();
        let policy = self.policy;
        self.order.extend((kept..queue.len()).map(|i| {
            let v = &queue.get(i).expect("index below len").view;
            (policy.key(v), v.id, v.num, v.dur)
        }));
        // Insert a few arrivals one by one; sort outright when shifting
        // for each would cost more than one sort.
        let added = self.order.len() - kept;
        if kept == 0 || added > self.order.len().ilog2() as usize {
            self.order.sort_unstable();
            return;
        }
        for i in kept..self.order.len() {
            let r = self.order[i];
            let at = self.order[..i].partition_point(|o| o < &r);
            self.order[at..=i].rotate_right(1);
        }
    }

    /// Start in policy order while the policy-head fits, then backfill
    /// around it; `order` loses exactly the jobs started.
    fn start_jobs(
        &mut self,
        queue: &mut BatchQueue,
        ctx: &mut dyn SchedContext,
        mut ded: Option<Freeze>,
    ) {
        let now = ctx.now();
        let mut started = 0;
        for &(_, id, num, dur) in &self.order {
            if num > ctx.free() || !ded_allows(&ded, now, num, dur) {
                break;
            }
            ctx.start(id).expect("fit was checked");
            ded_commit(&mut ded, now, num, dur);
            queue.remove(id);
            started += 1;
        }
        self.order.drain(..started);
        if !self.backfill {
            return;
        }
        let Some(&(_, _, head_num, _)) = self.order.first() else {
            return;
        };
        // EASY-style: reserve for the blocked policy-head, backfill the
        // rest in policy order.
        let Some(shadow) = batch_head_freeze(ctx.running(), now, ctx.total(), head_num) else {
            return;
        };
        if let Some(notes) = ctx.attribution() {
            notes.note_freeze();
        }
        let mut extra = shadow.frec;
        // `free` changes only at a start, and is read back then: unit
        // rounding keeps it from being computed here. A waiting job is at
        // least one unit wide (`is_valid_request` rejects 0 processors, a
        // queued RP clamps to one unit), so nothing starts once it is 0.
        let mut free = ctx.free();
        // Walk `order[1..]`, moving each job left in place over the gap
        // the started ones leave.
        let (mut kept, mut i) = (1, 1);
        while free > 0 && i < self.order.len() {
            let r @ (_, id, num, dur) = self.order[i];
            debug_assert!(num > 0, "a waiting job is at least one unit wide");
            i += 1;
            let delays_head = shadow.extends(now, dur);
            if num > free || (delays_head && num > extra) || !ded_allows(&ded, now, num, dur) {
                self.order[kept] = r;
                kept += 1;
                continue;
            }
            ctx.start(id).expect("backfill fit was checked");
            queue.remove(id);
            if delays_head {
                extra -= num;
            }
            ded_commit(&mut ded, now, num, dur);
            free = ctx.free();
        }
        self.order.drain(kept..i);
    }
}

impl BatchPolicy for OrderedCore {
    fn name(&self) -> &'static str {
        if self.backfill {
            self.policy.name_backfill()
        } else {
            self.policy.name()
        }
    }

    fn dedicated_name(&self) -> &'static str {
        if self.backfill {
            self.policy.name_backfill_dedicated()
        } else {
            self.policy.name_dedicated()
        }
    }

    fn cycle(
        &mut self,
        queue: &mut BatchQueue,
        ctx: &mut dyn SchedContext,
        ded: Option<Freeze>,
        _shared: &mut PolicyShared,
    ) {
        self.sync(queue);
        self.start_jobs(queue, ctx, ded);
        debug_assert_eq!(self.order.len(), queue.len(), "order lost a queued job");
        self.version = queue.version();
    }
}

/// A scheduler that orders its waiting queue by an [`OrderPolicy`] and
/// optionally backfills around a blocked head (EASY-style shadow).
pub type Ordered = PolicyStack<BatchOnly<OrderedCore>>;

impl Ordered {
    /// Pure ordering, no backfill: a blocked head blocks the queue.
    pub fn new(policy: OrderPolicy) -> Self {
        PolicyStack::batch_only(OrderedCore::new(policy))
    }

    /// Ordering plus EASY-style aggressive backfilling.
    pub fn with_backfill(policy: OrderPolicy) -> Self {
        PolicyStack::batch_only(OrderedCore::with_backfill(policy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisched_sim::{simulate, EccPolicy, EccSpec, JobSpec, Machine, Scheduler, SimTime};
    use elastisched_test_util::{run_on_bluegene, started};

    #[test]
    fn sjf_runs_short_jobs_first() {
        // All three queued behind a full-machine job; SJF must order the
        // followers by estimated runtime.
        let jobs = vec![
            JobSpec::batch(1, 0, 320, 100),
            JobSpec::batch(2, 1, 320, 500),
            JobSpec::batch(3, 2, 320, 50),
            JobSpec::batch(4, 3, 320, 200),
        ];
        let r = run_on_bluegene(Ordered::new(OrderPolicy::ShortestJobFirst), &jobs);
        assert_eq!(started(&r, 3), 100);
        assert_eq!(started(&r, 4), 150);
        assert_eq!(started(&r, 2), 350);
    }

    #[test]
    fn largest_first_orders_by_size_descending() {
        let jobs = vec![
            JobSpec::batch(1, 0, 320, 100),
            JobSpec::batch(2, 1, 64, 50),
            JobSpec::batch(3, 2, 256, 50),
            JobSpec::batch(4, 3, 128, 50),
        ];
        let r = run_on_bluegene(Ordered::new(OrderPolicy::LargestJobFirst), &jobs);
        // At t=100: order is 256, 128, 64 → all fit simultaneously
        // (256 + 64 = 320? no: 256+128 > 320). Largest (3) starts, then
        // 128 (4) doesn't fit, blocking 64 (2) too (no backfill).
        assert_eq!(started(&r, 3), 100);
        assert_eq!(started(&r, 4), 150);
        assert_eq!(started(&r, 2), 150);
    }

    #[test]
    fn smallest_first_with_backfill_fills_holes() {
        let jobs = vec![
            JobSpec::batch(1, 0, 256, 100),
            JobSpec::batch(2, 1, 320, 100), // blocked head after sort? size 320 → last
            JobSpec::batch(3, 2, 32, 30),
        ];
        let r = run_on_bluegene(Ordered::with_backfill(OrderPolicy::SmallestJobFirst), &jobs);
        // Smallest-first: job 3 (32) runs immediately beside job 1.
        assert_eq!(started(&r, 3), 2);
    }

    #[test]
    fn backfill_respects_head_reservation() {
        // Head after ordering is the 320-proc job (SJF: dur 10 is
        // shortest). A long 64-proc job must not delay it.
        let jobs = vec![
            JobSpec::batch(1, 0, 256, 100),
            JobSpec::batch(2, 1, 320, 10),
            JobSpec::batch(3, 2, 64, 500),
        ];
        let r = run_on_bluegene(Ordered::with_backfill(OrderPolicy::ShortestJobFirst), &jobs);
        assert_eq!(started(&r, 2), 100, "head reservation violated");
        assert!(started(&r, 3) >= 110);
    }

    #[test]
    fn ecc_reorders_queue() {
        // Jobs 2 and 3 wait behind a full-machine job. Job 3 is longer at
        // submit, but a queued reduce-time ECC makes it the shortest —
        // SJF must then run it first.
        let jobs = vec![
            JobSpec::batch(1, 0, 320, 100),
            JobSpec::batch(2, 1, 320, 100),
            JobSpec::batch(3, 2, 320, 200),
        ];
        let eccs = vec![EccSpec::reduce_time(JobId(3), SimTime::from_secs(10), 150)];
        let r = simulate(
            Machine::bluegene_p(),
            Ordered::new(OrderPolicy::ShortestJobFirst),
            EccPolicy::time_only(),
            &jobs,
            &eccs,
        )
        .unwrap();
        assert_eq!(started(&r, 3), 100, "shrunk job moves to the front");
        assert_eq!(started(&r, 2), 150);
    }

    #[test]
    fn names() {
        assert_eq!(Ordered::new(OrderPolicy::ShortestJobFirst).name(), "SJF");
        assert_eq!(
            Ordered::with_backfill(OrderPolicy::LargestJobFirst).name(),
            "Largest-First-BF"
        );
        assert_eq!(
            PolicyStack::with_dedicated(
                OrderedCore::with_backfill(OrderPolicy::SmallestJobFirst),
                0
            )
            .name(),
            "Smallest-First-BF-D"
        );
    }

    #[test]
    fn drains_workloads() {
        let jobs: Vec<JobSpec> = (0..120)
            .map(|i| JobSpec::batch(i + 1, i * 9, 32 * (1 + (i as u32 * 7) % 10), 30 + i % 240))
            .collect();
        for policy in [
            OrderPolicy::ShortestJobFirst,
            OrderPolicy::SmallestJobFirst,
            OrderPolicy::LargestJobFirst,
        ] {
            assert_eq!(
                run_on_bluegene(Ordered::new(policy), &jobs).outcomes.len(),
                120
            );
            assert_eq!(
                run_on_bluegene(Ordered::with_backfill(policy), &jobs)
                    .outcomes
                    .len(),
                120
            );
        }
    }
}
