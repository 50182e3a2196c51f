//! Delayed-LOS (the paper's Algorithm 1).
//!
//! The paper's claim: LOS's "start the head right away" rule is *too
//! aggressive* — with variable job sizes it forgoes better packings
//! (Fig. 2: head of 7 on a 10-processor machine beats selecting {4, 6}).
//! Delayed-LOS lets **Basic_DP** choose the utilization-maximizing set
//! and only forces the head through when its skip count `scount` reaches
//! the threshold `C_s`, bounding the head's extra delay:
//!
//! * head fits and `scount ≥ C_s` → start it right away (lines 3–5);
//! * head fits and `scount < C_s` → Basic_DP over the queue; increment
//!   `scount` if the head was not selected (lines 6–11);
//! * head does not fit → freeze for the head, Reservation_DP over the
//!   queue (lines 12–20).

use crate::freeze::{batch_head_freeze, Freeze};
use crate::los::{dp_pass, DEFAULT_LOOKAHEAD};
use crate::queue::BatchQueue;
use crate::stack::{
    debug_assert_unconstrained, BatchOnly, BatchPolicy, DedicatedClaim, PolicyShared, PolicyStack,
};
use elastisched_sim::{trace_event, SchedContext, TraceEvent};

/// Default maximum skip count. The paper's Fig. 5 finds the sweet spot at
/// `C_s ≈ 7–8` for `P_S = 0.5`.
pub const DEFAULT_MAX_SKIP: u32 = 7;

/// One Delayed-LOS cycle over `queue`. At most one DP call per cycle;
/// the head-start rule loops so newly exposed heads with exhausted skip
/// budgets are not stranded until the next event.
pub(crate) fn delayed_los_cycle(
    queue: &mut BatchQueue,
    ctx: &mut dyn SchedContext,
    cs: u32,
    lookahead: usize,
    shared: &mut PolicyShared,
) {
    let now = ctx.now();
    let mut dp_done = false;
    // `free` is maintained locally: every start removes exactly the
    // started job's `num` from the machine's free pool, so one context
    // read up front replaces a virtual call per loop iteration.
    let mut free = ctx.free();
    loop {
        if free == 0 || queue.is_empty() {
            return;
        }
        let head = queue.head().expect("checked non-empty");
        let (head_id, head_num, head_scount) = (head.view.id, head.view.num, head.scount);

        // Lines 3–5: skip budget exhausted and the head fits → start it.
        if head_num <= free && head_scount >= cs {
            trace_event!(
                ctx.trace(),
                TraceEvent::HeadForceStart {
                    job: head_id.0,
                    at: now.as_secs(),
                    scount: head_scount,
                }
            );
            ctx.start(head_id).expect("head fit was checked");
            free -= head_num;
            queue.pop_head();
            shared.telemetry.head_force_starts += 1;
            continue;
        }
        if dp_done {
            return;
        }
        if head_num <= free {
            // Lines 6–11: Basic_DP over the waiting queue, the head
            // included; a head the selection passes over is skipped.
            free -= dp_pass(queue, ctx, shared, None, 0, lookahead, free, true);
            dp_done = true;
            continue;
        }
        // Lines 12–20: head too large — freeze for it, Reservation_DP.
        let Some(freeze) = batch_head_freeze(ctx.running(), now, ctx.total(), head_num) else {
            return; // head larger than the machine; engine validation forbids this
        };
        free -= dp_pass(queue, ctx, shared, Some(freeze), 1, lookahead, free, false);
        dp_done = true;
    }
}

/// The Delayed-LOS policy core (Algorithm 1), with the skip budget that
/// turns a dedicated stack into Hybrid-LOS (Algorithm 2): promoted due
/// jobs enter with `scount = C_s` and the interleaved drive force-starts
/// them; around a *future* dedicated start the core runs its
/// Reservation_DP pass ([`BatchPolicy::dedicated_cycle`] override).
#[derive(Debug, Clone, Copy)]
pub struct DelayedLosCore {
    pub(crate) cs: u32,
    pub(crate) lookahead: usize,
}

impl DelayedLosCore {
    /// A core with an explicit maximum skip count `C_s` and lookahead
    /// window.
    pub fn new(cs: u32, lookahead: usize) -> Self {
        DelayedLosCore {
            cs,
            lookahead: lookahead.max(1),
        }
    }
}

impl Default for DelayedLosCore {
    fn default() -> Self {
        DelayedLosCore::new(DEFAULT_MAX_SKIP, DEFAULT_LOOKAHEAD)
    }
}

impl BatchPolicy for DelayedLosCore {
    fn name(&self) -> &'static str {
        "Delayed-LOS"
    }

    fn dedicated_name(&self) -> &'static str {
        "Hybrid-LOS"
    }

    fn skip_budget(&self) -> Option<u32> {
        Some(self.cs)
    }

    fn cycle(
        &mut self,
        queue: &mut BatchQueue,
        ctx: &mut dyn SchedContext,
        ded: Option<Freeze>,
        shared: &mut PolicyShared,
    ) {
        // Delayed-LOS is only ever driven unconstrained: under a
        // dedicated claim the interleaved drive calls `dedicated_cycle`.
        debug_assert_unconstrained(&ded);
        delayed_los_cycle(queue, ctx, self.cs, self.lookahead, shared);
    }

    /// Hybrid-LOS's dedicated-freeze Reservation_DP pass (Algorithm 2
    /// lines 8–33): one Reservation_DP over the *whole* batch queue
    /// (head included) against the dedicated freeze, bumping the head's
    /// `scount` when it was skipped and `bump_scount` is set.
    fn dedicated_cycle(
        &mut self,
        queue: &mut BatchQueue,
        ctx: &mut dyn SchedContext,
        claim: DedicatedClaim,
        bump_scount: bool,
        shared: &mut PolicyShared,
    ) {
        let free = ctx.free();
        let Some(freeze) = claim.freeze(ctx) else {
            return; // dedicated bundle larger than the machine
        };
        dp_pass(
            queue,
            ctx,
            shared,
            Some(freeze),
            0,
            self.lookahead,
            free,
            bump_scount,
        );
    }
}

/// The Delayed-LOS scheduler (batch workloads).
pub type DelayedLos = PolicyStack<BatchOnly<DelayedLosCore>>;

impl DelayedLos {
    /// Delayed-LOS with the default `C_s` and lookahead.
    pub fn new() -> Self {
        DelayedLos::with_params(DEFAULT_MAX_SKIP, DEFAULT_LOOKAHEAD)
    }

    /// Delayed-LOS with an explicit maximum skip count `C_s` and
    /// lookahead window.
    pub fn with_params(cs: u32, lookahead: usize) -> Self {
        PolicyStack::batch_only(DelayedLosCore::new(cs, lookahead))
    }

    /// The configured maximum skip count.
    pub fn max_skip(&self) -> u32 {
        self.layer.core.cs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisched_sim::JobSpec;
    use elastisched_test_util::{run_on_bluegene, started};

    fn run_with(jobs: &[JobSpec], cs: u32) -> elastisched_sim::SimResult {
        run_on_bluegene(DelayedLos::with_params(cs, DEFAULT_LOOKAHEAD), jobs)
    }

    #[test]
    fn figure_2_example_reaches_full_utilization() {
        // Machine of 10 units (320 procs / 32): jobs of 7, 4, 6 units.
        // LOS starts the head (7) → utilization 7/10. Delayed-LOS must
        // select {4, 6} → utilization 10/10 (Alternative (b) in Fig. 2).
        let jobs = vec![
            JobSpec::batch(1, 0, 224, 100), // 7 units
            JobSpec::batch(2, 0, 128, 100), // 4 units
            JobSpec::batch(3, 0, 192, 100), // 6 units
        ];
        let r = run_with(&jobs, 5);
        assert_eq!(started(&r, 2), 0);
        assert_eq!(started(&r, 3), 0);
        assert_eq!(started(&r, 1), 100, "head is delayed for better packing");
    }

    #[test]
    fn cs_zero_degenerates_to_head_start() {
        // With C_s = 0 the head always starts right away when it fits —
        // LOS-like behaviour on the Figure 2 example.
        let jobs = vec![
            JobSpec::batch(1, 0, 224, 100),
            JobSpec::batch(2, 0, 128, 100),
            JobSpec::batch(3, 0, 192, 100),
        ];
        let r = run_with(&jobs, 0);
        assert_eq!(started(&r, 1), 0);
    }

    #[test]
    fn skip_count_bounds_head_delay() {
        // The head (7 units) is repeatedly skipped in favour of packing
        // pairs; after C_s skips it must be forced through.
        // Construct a stream of {4,6}-unit pairs that would starve the
        // head forever under pure Basic_DP.
        let mut jobs = vec![JobSpec::batch(1, 0, 224, 50)];
        let mut id = 2;
        for k in 0..20 {
            jobs.push(JobSpec::batch(id, k * 50, 128, 50));
            id += 1;
            jobs.push(JobSpec::batch(id, k * 50, 192, 50));
            id += 1;
        }
        let r = run_with(&jobs, 3);
        // The head must start long before the pair stream drains
        // (with C_s=3 it is forced through after a few cycles).
        assert!(
            started(&r, 1) <= 400,
            "head start {} — starved past its skip budget",
            started(&r, 1)
        );
    }

    #[test]
    fn blocked_head_gets_reservation_dp() {
        // Head too large to fit → Reservation_DP branch, like LOS.
        let jobs = vec![
            JobSpec::batch(1, 0, 192, 100),
            JobSpec::batch(2, 1, 320, 10),
            JobSpec::batch(3, 2, 128, 500),
            JobSpec::batch(4, 3, 128, 90),
        ];
        let r = run_with(&jobs, 7);
        assert_eq!(started(&r, 2), 100, "reservation honoured");
        assert_eq!(started(&r, 4), 3);
        assert!(started(&r, 3) >= 110);
    }

    #[test]
    fn scount_only_increments_when_head_skipped() {
        // If the DP selects the head, scount must stay 0 and nothing is
        // force-started later. Observable via equivalent outcomes to the
        // all-fit case.
        let jobs = vec![
            JobSpec::batch(1, 0, 128, 100),
            JobSpec::batch(2, 0, 192, 100),
        ];
        let r = run_with(&jobs, 7);
        assert_eq!(started(&r, 1), 0);
        assert_eq!(started(&r, 2), 0);
    }

    #[test]
    fn drains_all_jobs() {
        let jobs: Vec<JobSpec> = (0..200)
            .map(|i| JobSpec::batch(i + 1, i * 9, 32 * (1 + (i as u32 * 3) % 10), 30 + i % 250))
            .collect();
        let r = run_with(&jobs, 7);
        assert_eq!(r.outcomes.len(), 200);
    }

    #[test]
    fn utilization_at_least_los_on_fig2_stream() {
        // Delayed-LOS's whole point: equal-or-better packing than LOS on
        // size-varied workloads. Compare busy areas over the same stream.
        let mut jobs = Vec::new();
        let mut id = 1;
        for k in 0..30 {
            jobs.push(JobSpec::batch(id, k * 120, 224, 100));
            id += 1;
            jobs.push(JobSpec::batch(id, k * 120 + 1, 128, 100));
            id += 1;
            jobs.push(JobSpec::batch(id, k * 120 + 2, 192, 100));
            id += 1;
        }
        let dl = run_with(&jobs, 7);
        let los = run_on_bluegene(crate::los::Los::new(), &jobs);
        assert!(
            dl.mean_utilization() >= los.mean_utilization() - 1e-9,
            "Delayed-LOS {} vs LOS {}",
            dl.mean_utilization(),
            los.mean_utilization()
        );
        assert_eq!(dl.outcomes.len(), los.outcomes.len());
    }
}
