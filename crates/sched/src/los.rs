//! LOS — the Lookahead Optimizing Scheduler (Shmueli & Feitelson, ref \[7\]).
//!
//! LOS starts the head job *right away* whenever it fits (bounding its
//! wait), and when the head is blocked it makes a reservation for it
//! (shadow time / freeze) and runs **Reservation_DP** over the remaining
//! queue to maximize utilization without delaying the reservation.
//!
//! The cycle is exposed crate-internally with an optional dedicated
//! freeze so LOS-D (the paper's dedicated-queue append of LOS) can reuse
//! it: when a dedicated freeze is present it *replaces* the batch-head
//! shadow, exactly as in Hybrid-LOS's structure.

use crate::freeze::{batch_head_freeze, Freeze};
use crate::queue::BatchQueue;
use crate::stack::{ded_allows, ded_commit, BatchOnly, BatchPolicy, PolicyShared, PolicyStack};
use elastisched_sim::{trace_event, DpKernel, SchedContext, TraceEvent};

/// Default lookahead window: the LOS paper shows 50 jobs suffice.
pub const DEFAULT_LOOKAHEAD: usize = 50;

/// The LOS family's DP pass (LOS, Delayed-LOS, Hybrid-LOS): a
/// [`DpWork::select`](crate::dp::DpWork::select) over `queue`, whose
/// selection is started and removed from the queue by staged position.
/// Counts the call and its starts, notes a freeze for attribution, and
/// traces one `DpSelect`. With `bump_head`, a head the selection passed
/// over is skipped (`scount` bumped and traced before the starts).
/// Returns the processors started.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dp_pass(
    queue: &mut BatchQueue,
    ctx: &mut dyn SchedContext,
    shared: &mut PolicyShared,
    freeze: Option<Freeze>,
    skip: usize,
    lookahead: usize,
    free: u32,
    bump_head: bool,
) -> u32 {
    let (now, unit) = (ctx.now(), ctx.unit());
    let PolicyShared { telemetry, work } = shared;
    let kernel = if freeze.is_some() {
        if let Some(notes) = ctx.attribution() {
            notes.note_freeze();
        }
        telemetry.reservation_dp_calls += 1;
        DpKernel::Reservation
    } else {
        telemetry.basic_dp_calls += 1;
        DpKernel::Basic
    };
    let tracing = ctx.trace().is_some();
    let hits_before = work.solver.stats().cache_hits;
    let (sel, cands) = work.select(queue, skip, lookahead, free, freeze, now, unit);
    // Gathered only when tracing: the event goes out after the starts.
    let mut chosen_ids: Vec<u64> = Vec::new();
    if tracing {
        chosen_ids.extend(sel.chosen.iter().map(|&i| cands[i].id.0));
    }
    let candidates = cands.len() as u32;
    // Chosen indices ascend, and so do their staged positions.
    let head_selected = sel.chosen.first().is_some_and(|&i| cands[i].pos == 0);
    if bump_head && !head_selected {
        let head = queue.head_mut().expect("a head to skip");
        head.scount += 1;
        let (job, scount) = (head.view.id, head.scount);
        telemetry.head_skips += 1;
        if let Some(notes) = ctx.attribution() {
            notes.note_skip(job);
        }
        trace_event!(
            ctx.trace(),
            TraceEvent::HeadSkip {
                job: job.0,
                at: now.as_secs(),
                scount,
            }
        );
    }
    let mut started = 0;
    for &i in &sel.chosen {
        ctx.start(cands[i].id).expect("DP selection fits");
        started += cands[i].item.num;
    }
    telemetry.dp_starts += sel.chosen.len() as u64;
    // Back to front, so the earlier positions stay valid.
    for &i in sel.chosen.iter().rev() {
        queue.remove_at(cands[i].pos as usize);
    }
    if tracing {
        let cache_hit = work.solver.stats().cache_hits > hits_before;
        trace_event!(
            ctx.trace(),
            TraceEvent::DpSelect {
                at: now.as_secs(),
                kernel,
                candidates,
                chosen: chosen_ids,
                cache_hit,
            }
        );
    }
    started
}

/// One LOS scheduling cycle: start heads eagerly, then a single
/// Reservation_DP pass against the binding freeze.
pub(crate) fn los_cycle(
    queue: &mut BatchQueue,
    ctx: &mut dyn SchedContext,
    lookahead: usize,
    ded: Option<Freeze>,
    shared: &mut PolicyShared,
) {
    let now = ctx.now();
    let mut ded = ded;
    // Start the head right away while it fits (LOS's defining rule).
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
    let head = queue.head().expect("non-empty after head loop");
    // The binding freeze: the dedicated one when present (LOS-D), else a
    // reservation for the blocked head (plain LOS).
    let freeze = match ded {
        Some(f) => f,
        None => match batch_head_freeze(ctx.running(), now, ctx.total(), head.view.num) {
            Some(f) => f,
            None => return,
        },
    };
    let skip_head = ded.is_none(); // plain LOS: the head holds the reservation
    let free = ctx.free();
    dp_pass(
        queue,
        ctx,
        shared,
        Some(freeze),
        usize::from(skip_head),
        lookahead,
        free,
        false,
    );
}

/// The LOS policy core: eager head starts plus one Reservation_DP pass
/// against the binding freeze (the dedicated one when stacked as LOS-D,
/// the batch-head shadow otherwise).
#[derive(Debug, Clone, Copy)]
pub struct LosCore {
    lookahead: usize,
}

impl LosCore {
    /// A LOS core with an explicit lookahead window.
    pub fn new(lookahead: usize) -> Self {
        LosCore {
            lookahead: lookahead.max(1),
        }
    }
}

impl Default for LosCore {
    fn default() -> Self {
        LosCore::new(DEFAULT_LOOKAHEAD)
    }
}

impl BatchPolicy for LosCore {
    fn name(&self) -> &'static str {
        "LOS"
    }

    fn dedicated_name(&self) -> &'static str {
        "LOS-D"
    }

    fn cycle(
        &mut self,
        queue: &mut BatchQueue,
        ctx: &mut dyn SchedContext,
        ded: Option<Freeze>,
        shared: &mut PolicyShared,
    ) {
        los_cycle(queue, ctx, self.lookahead, ded, shared);
    }
}

/// The LOS scheduler (batch workloads).
pub type Los = PolicyStack<BatchOnly<LosCore>>;

impl Los {
    /// LOS with the default 50-job lookahead.
    pub fn new() -> Self {
        Los::with_lookahead(DEFAULT_LOOKAHEAD)
    }

    /// LOS with an explicit lookahead window.
    pub fn with_lookahead(lookahead: usize) -> Self {
        PolicyStack::batch_only(LosCore::new(lookahead))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisched_sim::JobSpec;
    use elastisched_test_util::{run_on_bluegene, started};

    fn run(jobs: &[JobSpec]) -> elastisched_sim::SimResult {
        run_on_bluegene(Los::new(), jobs)
    }

    #[test]
    fn starts_head_right_away_even_when_combination_is_better() {
        // The paper's Figure 2 / motivating anomaly: head of 224 (7
        // units) starts immediately under LOS, leaving 96 free — the
        // {128, 192} combination (utilization 320) is NOT taken.
        let jobs = vec![
            JobSpec::batch(1, 0, 224, 100),
            JobSpec::batch(2, 0, 128, 100),
            JobSpec::batch(3, 0, 192, 100),
        ];
        let r = run(&jobs);
        assert_eq!(started(&r, 1), 0, "LOS starts the head right away");
        // 96 free: neither 128 nor 192 fits; both wait for t=100.
        assert_eq!(started(&r, 2), 100);
        assert_eq!(started(&r, 3), 100);
    }

    #[test]
    fn dp_packs_queue_behind_blocked_head() {
        // Head job 2 (320) is blocked behind job 1. LOS must run the DP
        // over {3, 4, 5} (all queued together at t=1) to fill the 128
        // free processors optimally with jobs that finish before the
        // shadow (t=100): {96, 32} beats {64}.
        let jobs = vec![
            JobSpec::batch(1, 0, 192, 100),
            JobSpec::batch(2, 1, 320, 100),
            JobSpec::batch(3, 1, 64, 50),
            JobSpec::batch(4, 1, 96, 50),
            JobSpec::batch(5, 1, 32, 50),
        ];
        let r = run(&jobs);
        assert_eq!(started(&r, 2), 100, "reservation honoured");
        // Optimal packing of 128 free from {64, 96, 32}: 96+32 = 128.
        assert_eq!(started(&r, 4), 1);
        assert_eq!(started(&r, 5), 1);
        assert!(started(&r, 3) >= 100, "the 64-proc job loses the DP");
    }

    #[test]
    fn dp_respects_shadow_capacity() {
        // Free now: 128. Head (job 2) needs 320 at t=100 → frec = 0.
        // A long 128-proc job (3) would extend past the shadow → excluded;
        // a short one (4) is selected instead.
        let jobs = vec![
            JobSpec::batch(1, 0, 192, 100),
            JobSpec::batch(2, 1, 320, 10),
            JobSpec::batch(3, 2, 128, 500),
            JobSpec::batch(4, 3, 128, 90),
        ];
        let r = run(&jobs);
        assert_eq!(started(&r, 2), 100);
        assert_eq!(started(&r, 4), 3, "short job backfills via DP");
        assert!(started(&r, 3) >= 110, "long job must not delay the head");
    }

    #[test]
    fn lookahead_limits_dp_window() {
        // With lookahead 1, only the first fitting candidate enters the
        // DP; the optimal pair further back is invisible.
        let jobs = vec![
            JobSpec::batch(1, 0, 192, 100),
            JobSpec::batch(2, 1, 320, 100),
            JobSpec::batch(3, 2, 64, 50),
            JobSpec::batch(4, 3, 96, 50),
            JobSpec::batch(5, 4, 32, 50),
        ];
        let r = run_on_bluegene(Los::with_lookahead(1), &jobs);
        assert_eq!(started(&r, 3), 2, "lookahead-1 takes the first fitting job");
        assert!(started(&r, 4) >= 100);
    }

    #[test]
    fn drains_all_jobs() {
        let jobs: Vec<JobSpec> = (0..100)
            .map(|i| JobSpec::batch(i + 1, i * 11, 32 * (1 + (i as u32 * 7) % 10), 40 + i % 300))
            .collect();
        let r = run(&jobs);
        assert_eq!(r.outcomes.len(), 100);
    }
}
