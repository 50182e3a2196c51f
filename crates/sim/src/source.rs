//! Pull-based workload streams.
//!
//! A [`JobSource`] feeds the engine one item at a time in submit-time
//! order, so a run never has to materialize the whole trace: the engine
//! admits each arrival lazily when the virtual clock reaches it and
//! reclaims the job's state at completion, keeping peak memory
//! proportional to the number of *live* jobs rather than the trace
//! length. The materialized [`Engine::load`](crate::Engine::load) +
//! [`Engine::run`](crate::Engine::run) path runs through this same
//! loop: `load` enrolls the whole trace up front and sorts its jobs and
//! ECCs by time, and `run` admits them through a [`SliceSource`], with
//! reclamation off.
//!
//! ## Ordering contract
//!
//! Implementations must yield items in non-decreasing [`SourceItem::time`]
//! order — the engine rejects a time that goes backwards with
//! [`SimError::UnorderedSource`](crate::SimError::UnorderedSource). Two
//! additional conventions make a streamed run indistinguishable from the
//! materialized one:
//!
//! - at one instant, jobs are yielded before ECCs (`load` sorts every
//!   arrival ahead of any same-instant ECC);
//! - an ECC is yielded at or after its target job's submission (the
//!   engine cannot apply a command to a job it has not seen; such a
//!   command counts as `dropped_stale`, where the materialized path
//!   would have pre-applied it to the enrolled future job).
//!
//! Sources over concrete formats (SWF, CWF, the Lublin generator) live
//! in `elastisched-workload`; this module only defines the contract plus
//! [`SliceSource`], the borrowed merge of already-materialized slices
//! that the differential tests pit against `load()`.

use crate::ecc::EccSpec;
use crate::job::JobSpec;
use crate::time::SimTime;

/// One element of a time-ordered workload stream: a job submission or an
/// Elastic Control Command.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceItem {
    /// A job entering the system at [`JobSpec::submit`].
    Job(JobSpec),
    /// An ECC issued at [`EccSpec::issue_at`].
    Ecc(EccSpec),
}

impl SourceItem {
    /// The simulated instant this item enters the system.
    pub fn time(&self) -> SimTime {
        match self {
            SourceItem::Job(j) => j.submit,
            SourceItem::Ecc(e) => e.issue_at,
        }
    }
}

/// A pull-based, submit-time-ordered workload stream.
///
/// The engine drives this like a fallible iterator: `next_item` is
/// called once per admitted item, never ahead of the virtual clock by
/// more than one item (the engine holds exactly one pending item to know
/// the next instant). See the module docs for the ordering contract.
pub trait JobSource {
    /// Pull the next item, or `None` when the stream is exhausted.
    fn next_item(&mut self) -> Option<SourceItem>;

    /// Iterator-style bounds on the remaining item count, purely
    /// advisory (the engine sizes nothing from it today).
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }
}

impl<T: JobSource + ?Sized> JobSource for &mut T {
    fn next_item(&mut self) -> Option<SourceItem> {
        (**self).next_item()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (**self).size_hint()
    }
}

/// Streams borrowed job/ECC slices, merged by time with jobs first at
/// ties. [`Engine::run`](crate::Engine::run) replays the slices
/// [`Engine::load`](crate::Engine::load) sorted through this source, so
/// a `SliceSource` run and `load` + `run` differ only in enrolment and
/// reclamation.
///
/// Both slices must already be sorted by their own time field (generator
/// output and parsed archive logs are); an inversion surfaces as
/// `SimError::UnorderedSource` when the engine consumes the merge.
#[derive(Debug)]
pub struct SliceSource<'a> {
    jobs: &'a [JobSpec],
    eccs: &'a [EccSpec],
    job_at: usize,
    ecc_at: usize,
}

impl<'a> SliceSource<'a> {
    /// A merged stream over `jobs` and `eccs`.
    pub fn new(jobs: &'a [JobSpec], eccs: &'a [EccSpec]) -> Self {
        SliceSource {
            jobs,
            eccs,
            job_at: 0,
            ecc_at: 0,
        }
    }
}

impl JobSource for SliceSource<'_> {
    fn next_item(&mut self) -> Option<SourceItem> {
        let job = self.jobs.get(self.job_at);
        let ecc = self.eccs.get(self.ecc_at);
        match (job, ecc) {
            (None, None) => None,
            (Some(j), None) => {
                self.job_at += 1;
                Some(SourceItem::Job(*j))
            }
            (None, Some(e)) => {
                self.ecc_at += 1;
                Some(SourceItem::Ecc(*e))
            }
            (Some(j), Some(e)) => {
                // Jobs win ties so same-instant arrivals dispatch before
                // same-instant commands, matching the load() order.
                if j.submit <= e.issue_at {
                    self.job_at += 1;
                    Some(SourceItem::Job(*j))
                } else {
                    self.ecc_at += 1;
                    Some(SourceItem::Ecc(*e))
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.jobs.len() - self.job_at) + (self.eccs.len() - self.ecc_at);
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecc::EccSpec;
    use crate::job::JobId;

    #[test]
    fn slice_source_merges_jobs_before_eccs_at_ties() {
        let jobs = [JobSpec::batch(1, 5, 32, 10), JobSpec::batch(2, 20, 32, 10)];
        let eccs = [
            EccSpec::extend_time(JobId(1), SimTime::from_secs(5), 1),
            EccSpec::extend_time(JobId(1), SimTime::from_secs(12), 1),
        ];
        let mut src = SliceSource::new(&jobs, &eccs);
        assert_eq!(src.size_hint(), (4, Some(4)));
        let order: Vec<SimTime> = std::iter::from_fn(|| src.next_item())
            .map(|i| i.time())
            .collect();
        assert_eq!(
            order,
            vec![
                SimTime::from_secs(5),
                SimTime::from_secs(5),
                SimTime::from_secs(12),
                SimTime::from_secs(20)
            ]
        );
        // The tie at t=5 resolved job-first.
        let mut src = SliceSource::new(&jobs, &eccs);
        assert!(matches!(src.next_item(), Some(SourceItem::Job(_))));
        assert!(matches!(src.next_item(), Some(SourceItem::Ecc(_))));
        assert_eq!(src.size_hint(), (2, Some(2)));
    }

    #[test]
    fn empty_slices_end_immediately() {
        let mut src = SliceSource::new(&[], &[]);
        assert!(src.next_item().is_none());
        assert_eq!(src.size_hint(), (0, Some(0)));
    }
}
