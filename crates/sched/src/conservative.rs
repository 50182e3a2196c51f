//! Conservative backfilling (paper §II-B).
//!
//! Unlike EASY, a job may move ahead only if it delays **no** job in the
//! queue, not just the head. Implemented with a [`ResourceProfile`]: each
//! cycle rebuilds the free-capacity timeline from the running set, walks
//! the queue in FIFO order giving every job the earliest reservation that
//! fits, and starts exactly the jobs whose reservation is "now".
//!
//! A cycle costs O(Q·S) for `Q` queued jobs and `S` profile breakpoints:
//! each reservation is one forward sweep plus one range subtraction. The
//! walk stops as soon as nothing is free "now": every request is at least
//! one unit and reservations only remove capacity, so no later job could
//! start this cycle, and the profile is rebuilt from scratch next cycle.
//!
//! When stacked as Conservative-D the dedicated freeze is an additional
//! gate on actual starts: a job whose profile reservation is "now" still
//! stays queued if starting it would invade the first future dedicated
//! job's window.

use crate::freeze::Freeze;
use crate::profile::ResourceProfile;
use crate::queue::BatchQueue;
use crate::stack::{ded_allows, ded_commit, BatchOnly, BatchPolicy, PolicyShared, PolicyStack};
use elastisched_sim::{Duration, JobId, SchedContext, SimTime};

/// The conservative-backfilling policy core: per-cycle resource profile,
/// everyone gets a reservation, only "start now" reservations (allowed by
/// the dedicated freeze, when present) actually start.
#[derive(Debug)]
pub struct ConservativeCore {
    /// Per-cycle scratch, reused so steady-state cycles don't allocate.
    profile: ResourceProfile,
    /// `(id, num, dur)` of the jobs whose reservation is "now".
    start_now: Vec<(JobId, u32, Duration)>,
}

impl ConservativeCore {
    /// A new conservative core with empty scratch.
    pub fn new() -> Self {
        ConservativeCore {
            profile: ResourceProfile::idle(SimTime::ZERO, 0),
            start_now: Vec::new(),
        }
    }
}

impl Default for ConservativeCore {
    fn default() -> Self {
        ConservativeCore::new()
    }
}

impl BatchPolicy for ConservativeCore {
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
        mut ded: Option<Freeze>,
        _shared: &mut PolicyShared,
    ) {
        let now = ctx.now();
        self.profile
            .reset_from_running(ctx.running(), now, ctx.total());
        self.start_now.clear();
        let mut free_now = self.profile.free_at(now);
        for w in queue.iter() {
            if free_now == 0 {
                break; // nothing later can start now
            }
            let (num, dur) = (w.view.num, w.view.dur);
            // Reserve at least one second so zero-duration jobs still
            // occupy a decision slot.
            let span = dur.max(Duration::from_secs(1));
            let Some(at) = self.profile.earliest_start(now, num, span) else {
                continue; // larger than the machine; engine validation forbids this
            };
            self.profile
                .try_reserve(at, span, num)
                .expect("earliest_start guarantees feasibility");
            if at == now {
                free_now -= num;
                self.start_now.push((w.view.id, num, dur));
            }
        }
        for &(id, num, dur) in &self.start_now {
            if !ded_allows(&ded, now, num, dur) {
                continue;
            }
            ctx.start(id).expect("profile guarantees fit");
            ded_commit(&mut ded, now, num, dur);
            queue.remove(id);
        }
    }
}

/// Conservative backfilling scheduler.
pub type Conservative = PolicyStack<BatchOnly<ConservativeCore>>;

impl Conservative {
    /// A new, empty conservative scheduler.
    pub fn new() -> Self {
        PolicyStack::batch_only(ConservativeCore::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisched_sim::JobSpec;
    use elastisched_test_util::{run_on_bluegene, started};

    fn run(jobs: &[JobSpec]) -> elastisched_sim::SimResult {
        run_on_bluegene(Conservative::new(), jobs)
    }

    #[test]
    fn backfills_when_no_job_is_delayed() {
        let jobs = vec![
            JobSpec::batch(1, 0, 256, 100),
            JobSpec::batch(2, 1, 320, 100),
            JobSpec::batch(3, 2, 32, 50), // finishes before job 2's start
        ];
        let r = run(&jobs);
        assert_eq!(started(&r, 3), 2);
        assert_eq!(started(&r, 2), 100);
    }

    #[test]
    fn refuses_backfill_that_delays_any_reservation() {
        // Job 2 (256 procs) reserved at t=100; job 3 (128) reserved after.
        // Job 4 (64, runs 300 s) fits now but would overlap job 2's and
        // job 3's reservations; conservative must hold it unless it
        // demonstrably delays no one. Verify job 2 and 3 keep their
        // earliest-possible starts.
        let jobs = vec![
            JobSpec::batch(1, 0, 256, 100),
            JobSpec::batch(2, 1, 256, 100),
            JobSpec::batch(3, 2, 128, 100),
            JobSpec::batch(4, 3, 64, 300),
        ];
        let r = run(&jobs);
        assert_eq!(started(&r, 2), 100);
        // Job 3's reservation: at t=100 only 64 free after job 2 → t=200.
        assert_eq!(started(&r, 3), 200);
        // Job 4 fits beside job 1 now (free 64) and beside job 2 at 100
        // (free 64) and beside job 3 at 200 (free 192): no delay → runs.
        assert_eq!(started(&r, 4), 3);
    }

    #[test]
    fn drains_everything() {
        let jobs: Vec<JobSpec> = (0..50)
            .map(|i| JobSpec::batch(i + 1, i * 7, 32 + 32 * (i as u32 % 5), 50 + i * 3))
            .collect();
        let r = run(&jobs);
        assert_eq!(r.outcomes.len(), 50);
    }
}
