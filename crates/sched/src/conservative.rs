//! Conservative backfilling (paper §II-B).
//!
//! Unlike EASY, a job may move ahead only if it delays **no** job in the
//! queue, not just the head. Implemented with a [`ResourceProfile`]: the
//! free-capacity timeline of the running set less a reservation for
//! every walked job. The walk goes through the queue in FIFO order,
//! giving every job the earliest reservation that fits, and exactly the
//! jobs whose reservation is "now" start.
//!
//! A walk costs O(Q·S) at most, for `Q` queued jobs and `S` profile
//! breakpoints: each reservation is one forward sweep plus one range
//! subtraction. It stops at the last job that could start now: one pass
//! takes the suffix minima of the queued widths, and once the smallest
//! width still to come exceeds what is free now, no later job can start
//! this cycle (reservations only remove capacity "now").
//!
//! A cycle rebuilds the profile from the running set and walks from the
//! head, unless it can keep the last cycle's profile. Then it starts the
//! walked jobs whose reservation has come due and walks only the jobs
//! behind the last walk's end, so an arrival costs one reservation. The
//! profile is kept when the queue's [`BatchQueue::version`] is unchanged
//! (only arrivals were appended), the last cycle started every job it
//! reserved "now", and the running set is the one the last cycle left,
//! less jobs that reached their kill-by time at this instant.
//!
//! That is exact. A reservation starts at `now` or at a breakpoint, and
//! every breakpoint after the last cycle lies at or after the kill-by
//! time of a job the last cycle left running. Such a job completes by
//! its kill-by time. If it completed earlier, or an ECC or a resize
//! changed it, the running set differs and the cycle rebuilds. If it
//! completed right at its kill-by time, its reservation ends here in
//! the kept profile too. So a rebuild at this instant would give every
//! walked job the same reservation again, and start the same ones.
//!
//! When stacked as Conservative-D the dedicated freeze is an additional
//! gate on actual starts: a job whose profile reservation is "now" still
//! stays queued if starting it would invade the first future dedicated
//! job's window.

use crate::freeze::Freeze;
use crate::profile::ResourceProfile;
use crate::queue::BatchQueue;
use crate::stack::{ded_allows, ded_commit, BatchOnly, BatchPolicy, PolicyShared, PolicyStack};
use elastisched_sim::{Duration, RunningJob, SchedContext, SimTime};

/// The conservative-backfilling policy core: a resource profile, everyone
/// gets a reservation, only "start now" reservations (allowed by the
/// dedicated freeze, when present) actually start.
#[derive(Debug)]
pub struct ConservativeCore {
    /// The running set plus the reservations of the queue's first
    /// `kept.at.len()` jobs; reused so steady-state cycles don't allocate.
    profile: ResourceProfile,
    /// `(queue position, num, dur)` of the jobs reserved "now", in queue
    /// order.
    start_now: Vec<(usize, u32, Duration)>,
    /// Suffix minima of the widths of the jobs the walk may visit.
    suffix_min: Vec<u32>,
    /// What the last cycle left the profile describing.
    kept: Kept,
}

/// What `profile` describes after a cycle, checked by the next cycle
/// before it keeps the profile instead of rebuilding.
#[derive(Debug, Default)]
struct Kept {
    /// False before the first cycle and after a cycle in which the
    /// dedicated freeze held back a job reserved "now": that job's
    /// reservation would move on a rebuild.
    resumable: bool,
    /// The instant of the last cycle.
    now: SimTime,
    /// The queue's version and length after the last cycle's starts.
    version: u64,
    len: usize,
    /// The reservation start of each walked job, by queue position
    /// (`SimTime::MAX` for a job wider than the machine).
    at: Vec<SimTime>,
    /// The running set after the last cycle's starts.
    running: Vec<RunningJob>,
}

impl Kept {
    /// Whether the kept profile still describes this instant: see the
    /// module doc.
    fn holds(&self, now: SimTime, queue: &BatchQueue, running: &[RunningJob]) -> bool {
        let Some(done) = self.running.len().checked_sub(running.len()) else {
            return false;
        };
        // A job whose kill-by time is the last cycle's instant started
        // then with zero duration: its one-second reservation outlives it.
        self.resumable
            && self.version == queue.version()
            && self.len <= queue.len()
            && self.running[done..] == *running
            && (done == 0 || now > self.now)
            && self.running[..done].iter().all(|j| j.finish == now)
    }
}

impl ConservativeCore {
    /// A new conservative core with empty scratch.
    pub fn new() -> Self {
        ConservativeCore {
            profile: ResourceProfile::idle(SimTime::ZERO, 0),
            start_now: Vec::new(),
            suffix_min: Vec::new(),
            kept: Kept::default(),
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
        let kept = &mut self.kept;
        self.start_now.clear();
        if kept.holds(now, queue, ctx.running().as_slice()) {
            self.profile.trim_before(now);
            // Walked jobs whose reservation has come due start now.
            for (pos, &at) in kept.at.iter().enumerate() {
                debug_assert!(at >= now, "a kept reservation lies in the past");
                if at == now {
                    let view = &queue.get(pos).expect("walked jobs are queued").view;
                    self.start_now.push((pos, view.num, view.dur));
                }
            }
            debug_assert_eq!(
                self.profile.free_at(now) + self.start_now.iter().map(|s| s.1).sum::<u32>(),
                ctx.free(),
                "kept profile is stale"
            );
        } else {
            self.profile
                .reset_from_running(ctx.running(), now, ctx.total());
            kept.at.clear();
        }
        let from = kept.at.len();
        self.suffix_min.clear();
        self.suffix_min
            .extend(queue.iter().skip(from).map(|w| w.view.num));
        for i in (1..self.suffix_min.len()).rev() {
            self.suffix_min[i - 1] = self.suffix_min[i - 1].min(self.suffix_min[i]);
        }
        let mut free_now = self.profile.free_at(now);
        for (k, w) in queue.iter().skip(from).enumerate() {
            if self.suffix_min[k] > free_now {
                break; // no job from here on can start now
            }
            let (num, dur) = (w.view.num, w.view.dur);
            // Reserve at least one second so zero-duration jobs still
            // occupy a decision slot.
            let span = dur.max(Duration::from_secs(1));
            // `None`: larger than the machine; engine validation forbids this.
            let at = match self.profile.earliest_start(now, num, span) {
                Some(at) => {
                    self.profile.reserve_fitted(at, span, num);
                    at
                }
                None => SimTime::MAX,
            };
            kept.at.push(at);
            if at == now {
                free_now -= num;
                self.start_now.push((from + k, num, dur));
            }
        }
        let mut held_back = false;
        let mut started = 0;
        for &(pos, num, dur) in &self.start_now {
            if !ded_allows(&ded, now, num, dur) {
                held_back = true;
                continue;
            }
            let job = queue
                .remove_at(pos - started)
                .expect("reserved jobs are queued");
            ctx.start(job.view.id).expect("profile guarantees fit");
            ded_commit(&mut ded, now, num, dur);
            started += 1;
        }
        // Every job reserved "now" started unless one was held back, and
        // then the next cycle rebuilds.
        kept.at.retain(|&at| at != now);
        kept.resumable = !held_back;
        kept.now = now;
        kept.version = queue.version();
        kept.len = queue.len();
        kept.running.clear();
        kept.running.extend_from_slice(ctx.running().as_slice());
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
