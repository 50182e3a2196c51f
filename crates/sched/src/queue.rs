//! Waiting-queue data structures.
//!
//! * [`BatchQueue`] is the paper's `W^b`: a FIFO queue of waiting batch
//!   jobs, each carrying a skip count `scount` (the number of scheduling
//!   cycles in which the job sat at the head without being selected).
//! * [`DedicatedQueue`] is `W^d`: waiting dedicated jobs kept sorted by
//!   increasing requested start time.

use elastisched_sim::{Duration, JobId, JobView, SimTime};
use std::collections::VecDeque;

/// A waiting batch job with its skip count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitingJob {
    /// The job's scheduler-facing attributes (`num`, `dur`, `arr`, …).
    pub view: JobView,
    /// `scount`: cycles this job was skipped while at the head.
    pub scount: u32,
}

impl WaitingJob {
    /// A freshly arrived job (`scount = 0`).
    pub fn new(view: JobView) -> Self {
        WaitingJob { view, scount: 0 }
    }
}

/// The FIFO queue of waiting batch jobs (`W^b`).
///
/// [`BatchQueue::version`] counts every mutation except
/// [`BatchQueue::push_back`]: while it holds still, the queue is what it
/// was plus arrivals at the tail. Conservative backfilling relies on
/// that to keep its reservations across cycles.
#[derive(Debug, Clone)]
pub struct BatchQueue {
    jobs: VecDeque<WaitingJob>,
    version: u64,
}

impl Default for BatchQueue {
    fn default() -> Self {
        // Pre-size for a deep high-load backlog (the headline run
        // peaks above 200 waiting jobs) so the ring buffer doesn't
        // walk a six-step doubling chain mid-run.
        BatchQueue {
            jobs: VecDeque::with_capacity(256),
            version: 0,
        }
    }
}

impl BatchQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of waiting jobs `B`.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The mutation counter: bumped by every change to the queue except
    /// [`BatchQueue::push_back`] (and a no-op [`BatchQueue::apply_ecc`]
    /// or removal of an absent job).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Append a newly arrived job (FIFO order). Leaves
    /// [`BatchQueue::version`] unchanged: the jobs already queued keep
    /// their positions and contents.
    pub fn push_back(&mut self, view: JobView) {
        self.jobs.push_back(WaitingJob::new(view));
    }

    /// Insert a job at the head of the queue with an explicit skip count —
    /// used by `Move_Dedicated_Head_To_Batch_Head` (Algorithm 3), which
    /// sets `scount = C_s` so the job starts as soon as capacity allows.
    pub fn push_front_with_scount(&mut self, view: JobView, scount: u32) {
        self.version += 1;
        self.jobs.push_front(WaitingJob { view, scount });
    }

    /// Insert a promoted dedicated job into the priority region at the
    /// front of the queue: after any leading dedicated jobs with an
    /// earlier-or-equal requested start, before everything else. This
    /// keeps repeatedly promoted dedicated jobs in requested-start order
    /// even when promotions happen in different scheduling cycles.
    pub fn insert_priority(&mut self, view: JobView, scount: u32) {
        let my_start = view.class.requested_start().unwrap_or(SimTime::ZERO);
        let mut pos = 0;
        for j in &self.jobs {
            match j.view.class.requested_start() {
                Some(start) if start <= my_start => pos += 1,
                _ => break,
            }
        }
        self.version += 1;
        self.jobs.insert(pos, WaitingJob { view, scount });
    }

    /// The head job `w_1^b`, if any.
    pub fn head(&self) -> Option<&WaitingJob> {
        self.jobs.front()
    }

    /// Mutable head access (for `scount++`). Counts as a mutation.
    pub fn head_mut(&mut self) -> Option<&mut WaitingJob> {
        self.version += 1;
        self.jobs.front_mut()
    }

    /// Remove and return the head job.
    pub fn pop_head(&mut self) -> Option<WaitingJob> {
        self.version += 1;
        self.jobs.pop_front()
    }

    /// Iterate in FIFO order.
    pub fn iter(&self) -> impl Iterator<Item = &WaitingJob> {
        self.jobs.iter()
    }

    /// The jobs from position `skip` on (0 = head; past the tail,
    /// nothing) as the ring buffer's two slices, in FIFO order. A walk
    /// over plain slices keeps its loop state in registers.
    pub(crate) fn slices_from(&self, skip: usize) -> [&[WaitingJob]; 2] {
        let (a, b) = self.jobs.as_slices();
        match a.get(skip..) {
            Some(a) => [a, b],
            None => [b.get(skip - a.len()..).unwrap_or_default(), &[]],
        }
    }

    /// The job at position `i` (0 = head), if any. With [`Self::remove_at`]
    /// this supports cursor-style queue walks that start jobs in place
    /// without first collecting candidates into a scratch vector.
    pub fn get(&self, i: usize) -> Option<&WaitingJob> {
        self.jobs.get(i)
    }

    /// Remove and return the job at position `i`, preserving FIFO order
    /// of the rest.
    pub fn remove_at(&mut self, i: usize) -> Option<WaitingJob> {
        self.version += 1;
        self.jobs.remove(i)
    }

    /// Remove one job by id; returns it if present.
    pub fn remove(&mut self, id: JobId) -> Option<WaitingJob> {
        let pos = self.jobs.iter().position(|j| j.view.id == id)?;
        self.version += 1;
        self.jobs.remove(pos)
    }

    /// Update a queued job after an Elastic Control Command changed its
    /// requirements. Returns true if the job was found.
    pub fn apply_ecc(&mut self, id: JobId, num: u32, dur: Duration) -> bool {
        match self.jobs.iter_mut().find(|j| j.view.id == id) {
            Some(j) => {
                j.view.num = num;
                j.view.dur = dur;
                self.version += 1;
                true
            }
            None => false,
        }
    }

    /// FIFO invariant: arrival times are non-decreasing, except where a
    /// dedicated job was explicitly promoted to the head.
    #[cfg(test)]
    pub fn check_fifo(&self) {
        for w in self
            .jobs
            .iter()
            .collect::<Vec<_>>()
            .windows(2)
            .filter(|w| !w[0].view.class.is_dedicated() && !w[1].view.class.is_dedicated())
        {
            assert!(w[0].view.submit <= w[1].view.submit, "batch queue not FIFO");
        }
    }
}

/// The sorted list of waiting dedicated jobs (`W^d`).
///
/// Backed by a `VecDeque` so the common consumption pattern — pop the
/// earliest-start head once its time arrives — is O(1) instead of
/// sliding the whole tail down.
#[derive(Debug, Clone, Default)]
pub struct DedicatedQueue {
    jobs: VecDeque<JobView>,
}

impl DedicatedQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of waiting dedicated jobs `D`.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    fn key(v: &JobView) -> (SimTime, SimTime, JobId) {
        (
            v.class.requested_start().unwrap_or(SimTime::ZERO),
            v.submit,
            v.id,
        )
    }

    /// Insert keeping the sort order
    /// `w_1^d.start ≤ w_2^d.start ≤ … ≤ w_D^d.start`.
    pub fn insert(&mut self, view: JobView) {
        debug_assert!(view.class.is_dedicated(), "batch job in dedicated queue");
        let pos = self
            .jobs
            .partition_point(|j| Self::key(j) < Self::key(&view));
        self.jobs.insert(pos, view);
    }

    /// The head `w_1^d` (earliest requested start), if any.
    pub fn head(&self) -> Option<&JobView> {
        self.jobs.front()
    }

    /// Remove and return the head.
    pub fn pop_head(&mut self) -> Option<JobView> {
        self.jobs.pop_front()
    }

    /// Iterate in increasing requested-start order.
    pub fn iter(&self) -> impl Iterator<Item = &JobView> {
        self.jobs.iter()
    }

    /// Total processors requested by dedicated jobs whose requested start
    /// equals `start` (the paper's `tot_start_num`, Algorithm 2 line 16).
    /// The queue is sorted by requested start, so the scan stops at the
    /// first later start instead of filtering the whole queue.
    pub fn total_num_at_start(&self, start: SimTime) -> u32 {
        let mut tot = 0;
        for j in &self.jobs {
            let Some(s) = j.class.requested_start() else {
                continue;
            };
            if s < start {
                continue;
            }
            if s > start {
                break;
            }
            tot += j.num;
        }
        tot
    }

    /// Update a queued dedicated job after an ECC. Returns true if found.
    pub fn apply_ecc(&mut self, id: JobId, num: u32, dur: Duration) -> bool {
        match self.jobs.iter_mut().find(|j| j.id == id) {
            Some(j) => {
                j.num = num;
                j.dur = dur;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisched_sim::JobClass;

    fn batch_view(id: u64, submit: u64, num: u32, dur: u64) -> JobView {
        JobView {
            id: JobId(id),
            num,
            dur: Duration::from_secs(dur),
            submit: SimTime::from_secs(submit),
            class: JobClass::Batch,
        }
    }

    fn ded_view(id: u64, submit: u64, num: u32, dur: u64, start: u64) -> JobView {
        JobView {
            id: JobId(id),
            num,
            dur: Duration::from_secs(dur),
            submit: SimTime::from_secs(submit),
            class: JobClass::Dedicated {
                requested_start: SimTime::from_secs(start),
            },
        }
    }

    #[test]
    fn batch_queue_is_fifo() {
        let mut q = BatchQueue::new();
        q.push_back(batch_view(1, 0, 32, 10));
        q.push_back(batch_view(2, 5, 64, 10));
        q.push_back(batch_view(3, 9, 96, 10));
        q.check_fifo();
        assert_eq!(q.pop_head().unwrap().view.id, JobId(1));
        assert_eq!(q.head().unwrap().view.id, JobId(2));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn push_front_with_scount_takes_head() {
        let mut q = BatchQueue::new();
        q.push_back(batch_view(1, 0, 32, 10));
        q.push_front_with_scount(ded_view(9, 0, 64, 10, 100), 5);
        let h = q.head().unwrap();
        assert_eq!(h.view.id, JobId(9));
        assert_eq!(h.scount, 5);
    }

    #[test]
    fn batch_apply_ecc_updates_view() {
        let mut q = BatchQueue::new();
        q.push_back(batch_view(1, 0, 32, 10));
        assert!(q.apply_ecc(JobId(1), 64, Duration::from_secs(99)));
        let h = q.head().unwrap();
        assert_eq!(h.view.num, 64);
        assert_eq!(h.view.dur, Duration::from_secs(99));
        assert!(!q.apply_ecc(JobId(7), 32, Duration::from_secs(1)));
    }

    #[test]
    fn remove_by_id() {
        let mut q = BatchQueue::new();
        q.push_back(batch_view(1, 0, 32, 10));
        q.push_back(batch_view(2, 5, 64, 10));
        assert_eq!(q.remove(JobId(2)).unwrap().view.id, JobId(2));
        assert!(q.remove(JobId(2)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn scount_increment_via_head_mut() {
        let mut q = BatchQueue::new();
        q.push_back(batch_view(1, 0, 32, 10));
        q.head_mut().unwrap().scount += 1;
        assert_eq!(q.head().unwrap().scount, 1);
    }

    #[test]
    fn version_counts_every_mutation_but_push_back() {
        let mut q = BatchQueue::new();
        q.push_back(batch_view(1, 0, 32, 10));
        q.push_back(batch_view(2, 5, 64, 10));
        q.push_back(batch_view(3, 9, 96, 10));
        q.push_back(batch_view(4, 9, 32, 10));
        assert_eq!(q.version(), 0, "push_back only appends");
        let mut last = q.version();
        let mut bumped = |q: &BatchQueue, what: &str| {
            assert_eq!(q.version(), last + 1, "{what} must bump the version");
            last = q.version();
        };
        q.push_front_with_scount(ded_view(8, 0, 64, 10, 100), 2);
        bumped(&q, "push_front_with_scount");
        q.insert_priority(ded_view(9, 0, 64, 10, 50), 0);
        bumped(&q, "insert_priority");
        assert!(q.apply_ecc(JobId(2), 128, Duration::from_secs(20)));
        bumped(&q, "apply_ecc");
        q.head_mut().unwrap().scount += 1;
        bumped(&q, "head_mut");
        q.pop_head().unwrap();
        bumped(&q, "pop_head");
        q.remove_at(1).unwrap();
        bumped(&q, "remove_at");
        q.remove(JobId(3)).unwrap();
        bumped(&q, "remove");
        assert!(!q.apply_ecc(JobId(77), 32, Duration::from_secs(1)));
        assert!(q.remove(JobId(77)).is_none());
        q.push_back(batch_view(5, 12, 32, 10));
        assert_eq!(q.version(), last, "no-op updates and push_back keep it");
    }

    #[test]
    fn dedicated_queue_sorts_by_start() {
        let mut q = DedicatedQueue::new();
        q.insert(ded_view(1, 0, 32, 10, 300));
        q.insert(ded_view(2, 1, 32, 10, 100));
        q.insert(ded_view(3, 2, 32, 10, 200));
        let order: Vec<u64> = q.iter().map(|j| j.id.0).collect();
        assert_eq!(order, vec![2, 3, 1]);
        assert_eq!(q.pop_head().unwrap().id, JobId(2));
    }

    #[test]
    fn dedicated_ties_broken_by_submit_then_id() {
        let mut q = DedicatedQueue::new();
        q.insert(ded_view(5, 10, 32, 10, 100));
        q.insert(ded_view(2, 10, 32, 10, 100));
        q.insert(ded_view(3, 5, 32, 10, 100));
        let order: Vec<u64> = q.iter().map(|j| j.id.0).collect();
        assert_eq!(order, vec![3, 2, 5]);
    }

    #[test]
    fn total_num_at_start_sums_equal_starts() {
        let mut q = DedicatedQueue::new();
        q.insert(ded_view(1, 0, 32, 10, 100));
        q.insert(ded_view(2, 0, 64, 10, 100));
        q.insert(ded_view(3, 0, 96, 10, 200));
        assert_eq!(q.total_num_at_start(SimTime::from_secs(100)), 96);
        assert_eq!(q.total_num_at_start(SimTime::from_secs(200)), 96);
        assert_eq!(q.total_num_at_start(SimTime::from_secs(999)), 0);
    }

    #[test]
    fn dedicated_apply_ecc() {
        let mut q = DedicatedQueue::new();
        q.insert(ded_view(1, 0, 32, 10, 100));
        assert!(q.apply_ecc(JobId(1), 96, Duration::from_secs(77)));
        assert_eq!(q.head().unwrap().num, 96);
    }
}
