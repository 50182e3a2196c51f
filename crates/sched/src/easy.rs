//! EASY backfilling (Mu'alem & Feitelson, ref [6] of the paper).
//!
//! The head job is started as soon as it fits. When it does not fit, a
//! reservation ("shadow") is computed for it, and later jobs may jump
//! ahead *aggressively* — provided they do not delay the head's
//! reservation: a backfill candidate must either finish before the shadow
//! time or fit inside the extra capacity available at the shadow time.
//!
//! The core pass is exposed crate-internally so the dedicated layer
//! (EASY-D) and the adaptive policy can reuse it with an additional
//! dedicated-freeze constraint.

use crate::freeze::{batch_head_freeze, Freeze};
use crate::queue::BatchQueue;
use crate::stack::{ded_allows, ded_commit, BatchOnly, BatchPolicy, PolicyShared, PolicyStack};
use elastisched_sim::{trace_event, SchedContext, TraceEvent};

/// One EASY scheduling cycle over `queue`, with an optional extra
/// dedicated-freeze constraint (used by EASY-D).
pub(crate) fn easy_cycle(
    queue: &mut BatchQueue,
    ctx: &mut dyn SchedContext,
    mut ded: Option<Freeze>,
) {
    let now = ctx.now();
    // Phase 1: start head jobs while they fit.
    loop {
        let Some(h) = queue.head() else { return };
        let (id, num, dur) = (h.view.id, h.view.num, h.view.dur);
        if num <= ctx.free() && ded_allows(&ded, now, num, dur) {
            ctx.start(id).expect("head fit was checked");
            ded_commit(&mut ded, now, num, dur);
            queue.pop_head();
        } else {
            break;
        }
    }
    // Phase 2: the head is blocked — reserve for it. If it is blocked by
    // the dedicated freeze rather than capacity, `earliest_fit` returns
    // "now", which degenerates to reserving the head's processors out of
    // the free pool; backfill then fills only the remainder.
    let head = queue.head().expect("non-empty after phase 1");
    let Some(shadow) = batch_head_freeze(ctx.running(), now, ctx.total(), head.view.num) else {
        return; // head larger than the machine; engine validation forbids this
    };
    if let Some(notes) = ctx.attribution() {
        notes.note_freeze();
    }
    let mut extra = shadow.frec;
    // Phase 3: aggressive backfill in FIFO order. A cursor walk starts
    // jobs in place — removal at the cursor keeps FIFO order and avoids
    // collecting candidates into a per-cycle vector. `free` changes only
    // at a start, and is read back then: unit rounding keeps it from
    // being computed here. A waiting job is at least one unit wide
    // (`is_valid_request` rejects 0 processors, a queued RP clamps to one
    // unit), so the walk ends once nothing is free.
    let mut free = ctx.free();
    let mut i = 1;
    while free > 0 {
        let Some(w) = queue.get(i) else { break };
        let (id, num, dur) = (w.view.id, w.view.num, w.view.dur);
        debug_assert!(num > 0, "a waiting job is at least one unit wide");
        let delays_head = shadow.extends(now, dur);
        let can_start =
            num <= free && (!delays_head || num <= extra) && ded_allows(&ded, now, num, dur);
        if !can_start {
            i += 1;
            continue;
        }
        trace_event!(
            ctx.trace(),
            TraceEvent::Backfill {
                job: id.0,
                at: now.as_secs(),
            }
        );
        ctx.start(id).expect("backfill fit was checked");
        queue.remove_at(i);
        if delays_head {
            extra -= num;
        }
        ded_commit(&mut ded, now, num, dur);
        free = ctx.free();
    }
}

/// The EASY policy core: aggressive backfilling around the head's
/// reservation, with the dedicated freeze (when stacked) constraining
/// both head starts and backfills.
#[derive(Debug, Default, Clone, Copy)]
pub struct EasyCore;

impl BatchPolicy for EasyCore {
    fn name(&self) -> &'static str {
        "EASY"
    }

    fn dedicated_name(&self) -> &'static str {
        "EASY-D"
    }

    fn cycle(
        &mut self,
        queue: &mut BatchQueue,
        ctx: &mut dyn SchedContext,
        ded: Option<Freeze>,
        _shared: &mut PolicyShared,
    ) {
        easy_cycle(queue, ctx, ded);
    }
}

/// The EASY backfilling scheduler (batch workloads).
pub type Easy = PolicyStack<BatchOnly<EasyCore>>;

impl Easy {
    /// A new, empty EASY scheduler.
    pub fn new() -> Self {
        PolicyStack::batch_only(EasyCore)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisched_sim::{Duration, JobId, JobSpec, JobView, Scheduler, SimTime};
    use elastisched_test_util::{run_on_bluegene, started};

    fn run(jobs: &[JobSpec]) -> elastisched_sim::SimResult {
        run_on_bluegene(Easy::new(), jobs)
    }

    #[test]
    fn backfills_small_job_into_hole() {
        // Job 1 uses 256 procs for 100 s. Job 2 (320) must wait for it.
        // Job 3 (32, short) can backfill: it fits now and finishes before
        // job 1 does (the shadow time of job 2).
        let jobs = vec![
            JobSpec::batch(1, 0, 256, 100),
            JobSpec::batch(2, 1, 320, 100),
            JobSpec::batch(3, 2, 32, 50),
        ];
        let r = run(&jobs);
        assert_eq!(started(&r, 1), 0);
        assert_eq!(started(&r, 3), 2, "small job must backfill");
        assert_eq!(started(&r, 2), 100);
    }

    #[test]
    fn backfill_never_delays_head_reservation() {
        // Job 3 (64 procs, 200 s) fits now but would still be running at
        // the shadow time t=100, where job 2 needs all 320 procs →
        // no extra capacity → job 3 must NOT backfill.
        let jobs = vec![
            JobSpec::batch(1, 0, 256, 100),
            JobSpec::batch(2, 1, 320, 100),
            JobSpec::batch(3, 2, 64, 200),
        ];
        let r = run(&jobs);
        assert_eq!(started(&r, 2), 100, "head must not be delayed");
        assert!(started(&r, 3) >= 200, "long backfill must wait");
    }

    #[test]
    fn backfill_into_shadow_extra_capacity() {
        // Head (job 2) needs 256 at shadow t=100 → extra = 64 + released…
        // Job 1: 256 procs until t=100. Free now: 64. At t=100: 320 free,
        // head takes 256 → extra 64. Job 3 (32, long) fits in extra.
        let jobs = vec![
            JobSpec::batch(1, 0, 256, 100),
            JobSpec::batch(2, 1, 256, 100),
            JobSpec::batch(3, 2, 32, 1_000),
        ];
        let r = run(&jobs);
        assert_eq!(started(&r, 3), 2, "fits in shadow extra capacity");
        assert_eq!(started(&r, 2), 100);
    }

    #[test]
    fn fifo_when_everything_fits() {
        let jobs = vec![
            JobSpec::batch(1, 0, 32, 10),
            JobSpec::batch(2, 0, 32, 10),
            JobSpec::batch(3, 0, 32, 10),
        ];
        let r = run(&jobs);
        for id in 1..=3 {
            assert_eq!(started(&r, id), 0);
        }
    }

    #[test]
    fn head_blocked_only_by_earlier_backfills_is_safe() {
        // Multiple backfills must share the shadow extra capacity, not
        // each consume it independently.
        // Job 1: 192 procs to t=100. Job 2 (head): 320 at t=100.
        // Extra at shadow = 0. Jobs 3,4 (64, short) finish before 100 → ok.
        // Job 5 (64 procs, 200 s) would extend past shadow → blocked.
        let jobs = vec![
            JobSpec::batch(1, 0, 192, 100),
            JobSpec::batch(2, 1, 320, 50),
            JobSpec::batch(3, 2, 64, 90),
            JobSpec::batch(4, 3, 64, 90),
            JobSpec::batch(5, 4, 64, 200),
        ];
        let r = run(&jobs);
        assert_eq!(started(&r, 3), 2);
        assert_eq!(started(&r, 4), 3);
        assert_eq!(started(&r, 2), 100);
        assert!(started(&r, 5) >= 100);
    }

    #[test]
    fn name_and_waiting_len() {
        let mut s = Easy::new();
        assert_eq!(s.name(), "EASY");
        assert_eq!(s.waiting_len(), 0);
        s.on_arrival(JobView {
            id: JobId(1),
            num: 32,
            dur: Duration::from_secs(10),
            submit: SimTime::ZERO,
            class: elastisched_sim::JobClass::Batch,
        });
        assert_eq!(s.waiting_len(), 1);
    }
}
