//! Job descriptions and lifecycle state.
//!
//! A [`JobSpec`] is the immutable description of a job as it appears in a
//! workload trace (CWF/SWF). The engine tracks the mutable lifecycle in a
//! [`JobRecord`]. Runtime elasticity (Elastic Control Commands) mutates the
//! *record*, never the spec, so a simulation can always be replayed from
//! the same workload.

use crate::time::{Duration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Unique job identifier (the SWF "Job ID" field).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Whether a job is a flexible batch job or a rigid dedicated/interactive
/// job with a user-requested start time (paper §I-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobClass {
    /// Scheduled by the scheduler at an optimal time.
    Batch,
    /// Must be triggered at (or as soon after as capacity allows) the
    /// user-requested start time.
    Dedicated {
        /// CWF field 19, "Requested Start Time".
        requested_start: SimTime,
    },
}

impl JobClass {
    /// True for dedicated/interactive jobs.
    #[inline]
    pub fn is_dedicated(&self) -> bool {
        matches!(self, JobClass::Dedicated { .. })
    }

    /// The requested start time, if dedicated.
    #[inline]
    pub fn requested_start(&self) -> Option<SimTime> {
        match self {
            JobClass::Batch => None,
            JobClass::Dedicated { requested_start } => Some(*requested_start),
        }
    }
}

/// Immutable description of one job in a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Unique identifier.
    pub id: JobId,
    /// Arrival (submit) time.
    pub submit: SimTime,
    /// Number of processors requested (`num` in the paper's notation) —
    /// the *preferred* width in the proc-range model. On a
    /// BlueGene/P-style machine this is a multiple of the allocation
    /// unit; the machine model enforces it.
    pub num: u32,
    /// User-estimated execution time (`dur`). Also the initial kill-by
    /// horizon; ECCs modify the *effective* duration in the job record.
    pub dur: Duration,
    /// Actual execution time. For synthetic workloads this equals `dur`
    /// unless an over-estimation factor was applied at generation time.
    pub actual: Duration,
    /// Batch or dedicated.
    pub class: JobClass,
    /// Minimum acceptable processor count for a malleable job (proc-range
    /// model: `min_procs ≤ num ≤ max_procs`). `0` means unset — the job
    /// is rigid below its preferred width. `#[serde(default)]` keeps
    /// specs serialized before the proc-range model loading cleanly.
    #[serde(default)]
    pub min_procs: u32,
    /// Maximum useful processor count for a malleable job. `0` means
    /// unset — the job cannot grow past its preferred width.
    #[serde(default)]
    pub max_procs: u32,
}

impl JobSpec {
    /// Convenience constructor for a batch job whose actual runtime equals
    /// its estimate.
    pub fn batch(id: u64, submit: u64, num: u32, dur: u64) -> Self {
        JobSpec {
            id: JobId(id),
            submit: SimTime::from_secs(submit),
            num,
            dur: Duration::from_secs(dur),
            actual: Duration::from_secs(dur),
            class: JobClass::Batch,
            min_procs: 0,
            max_procs: 0,
        }
    }

    /// Convenience constructor for a dedicated job.
    pub fn dedicated(id: u64, submit: u64, num: u32, dur: u64, requested_start: u64) -> Self {
        JobSpec {
            id: JobId(id),
            submit: SimTime::from_secs(submit),
            num,
            dur: Duration::from_secs(dur),
            actual: Duration::from_secs(dur),
            class: JobClass::Dedicated {
                requested_start: SimTime::from_secs(requested_start),
            },
            min_procs: 0,
            max_procs: 0,
        }
    }

    /// Attach a proc range (`min ≤ num ≤ max`), making the job malleable
    /// whenever the normalized range is non-degenerate. Pass `0` for
    /// either bound to leave it unset.
    pub fn with_proc_range(mut self, min: u32, max: u32) -> Self {
        self.min_procs = min;
        self.max_procs = max;
        self
    }

    /// The normalized proc range `(min, max)`: unset bounds collapse to
    /// the preferred width, a `min` above `num` clamps down to it and a
    /// `max` below `num` clamps up, so `min ≤ num ≤ max` always holds.
    pub fn proc_range(&self) -> (u32, u32) {
        let min = if self.min_procs == 0 {
            self.num
        } else {
            self.min_procs.min(self.num)
        };
        let max = if self.max_procs == 0 {
            self.num
        } else {
            self.max_procs.max(self.num)
        };
        (min, max)
    }

    /// True when the normalized proc range admits more than one width —
    /// the scheduler may grow or shrink this job at runtime. `min == max`
    /// is the degenerate fixed case.
    pub fn is_malleable(&self) -> bool {
        let (min, max) = self.proc_range();
        min < max
    }

    /// The moment from which this job is *eligible* to run: its submit
    /// time for batch jobs, the later of submit and requested start for
    /// dedicated jobs.
    pub fn eligible_at(&self) -> SimTime {
        match self.class {
            JobClass::Batch => self.submit,
            JobClass::Dedicated { requested_start } => self.submit.max(requested_start),
        }
    }
}

/// Marks the end of the engine's waiting list: no neighbour there.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Lifecycle state of a job inside the engine. A completed job has no
/// state: its record slot is reclaimed at completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)] // field names are self-describing
pub enum JobState {
    /// In a waiting queue: the state a record is born in, at arrival.
    /// `prev` and `next` are the record-slab slots of this job's
    /// neighbours in the engine's arrival-ordered waiting list
    /// (`u32::MAX` at either end); they exist only while the job waits.
    Waiting { prev: u32, next: u32 },
    /// Running since `started`, will complete at `finish` unless an ECC
    /// moves the kill-by time.
    Running { started: SimTime, finish: SimTime },
}

/// Mutable per-job bookkeeping owned by the engine.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The immutable trace-level description.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Effective user-estimated duration: `spec.dur` plus/minus any time
    /// ECCs applied while the job was queued.
    pub est_dur: Duration,
    /// Effective actual runtime (tracks `est_dur` for synthetic traces).
    pub actual_dur: Duration,
    /// Current processor allocation (differs from `spec.num` only when
    /// processor-dimension elasticity, EP/RP, is enabled).
    pub alloc: u32,
    /// Number of ECCs applied to this job so far.
    pub ecc_count: u32,
    /// Processors currently held *above* the preferred width through
    /// scheduler-initiated malleable grows (grows add, shrinks subtract,
    /// saturating at zero). Kept separate from ECC-driven allocation
    /// changes so wait attribution can charge them to different buckets.
    pub mal_gain: u32,
    /// Key of this job's one current completion event. The engine draws
    /// every key from one run-wide counter, so a completion event is
    /// current exactly when its record slot holds its key: a retime, a
    /// resize or the slot's reuse by a later job makes it stale. `0`
    /// (no event) until the job starts.
    pub(crate) completion_key: u64,
}

impl JobRecord {
    /// Fresh record for a job arriving now, so already waiting.
    pub fn new(spec: JobSpec) -> Self {
        let est_dur = spec.dur;
        let actual_dur = spec.actual;
        let alloc = spec.num;
        JobRecord {
            spec,
            state: JobState::Waiting {
                prev: NO_SLOT,
                next: NO_SLOT,
            },
            est_dur,
            actual_dur,
            alloc,
            ecc_count: 0,
            mal_gain: 0,
            completion_key: 0,
        }
    }

    /// True if the job is waiting.
    #[inline]
    pub fn is_waiting(&self) -> bool {
        matches!(self.state, JobState::Waiting { .. })
    }

    /// True if the job is currently running.
    #[inline]
    pub fn is_running(&self) -> bool {
        matches!(self.state, JobState::Running { .. })
    }

    /// Scheduled completion time, if running.
    #[inline]
    pub fn finish_time(&self) -> Option<SimTime> {
        match self.state {
            JobState::Running { finish, .. } => Some(finish),
            _ => None,
        }
    }

    /// Residual (remaining) execution time at `now`, if running
    /// (`res` in the paper's notation).
    #[inline]
    pub fn residual(&self, now: SimTime) -> Option<Duration> {
        self.finish_time().map(|f| f.saturating_since(now))
    }
}

/// Final, immutable outcome of one job, for metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    /// Which job.
    pub id: JobId,
    /// Trace arrival time.
    pub submit: SimTime,
    /// For dedicated jobs, the requested start; `None` for batch.
    pub requested_start: Option<SimTime>,
    /// When the scheduler activated the job.
    pub started: SimTime,
    /// When it completed.
    pub finished: SimTime,
    /// Processors actually held at completion.
    pub num: u32,
    /// Effective runtime (finished - started).
    pub runtime: Duration,
    /// Waiting time: `started - submit` for batch jobs, and
    /// `started - max(submit, requested_start)` for dedicated jobs.
    pub wait: Duration,
    /// Decomposition of `wait` into blocking causes (`None` unless the
    /// engine ran with attribution enabled — see
    /// `Engine::enable_attribution`). The cause buckets sum to `wait`
    /// exactly.
    #[serde(default)]
    pub attribution: Option<crate::attribution::WaitAttribution>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_constructor_defaults() {
        let j = JobSpec::batch(1, 10, 64, 300);
        assert_eq!(j.id, JobId(1));
        assert_eq!(j.num, 64);
        assert_eq!(j.dur, j.actual);
        assert!(!j.class.is_dedicated());
        assert_eq!(j.eligible_at(), SimTime::from_secs(10));
    }

    #[test]
    fn dedicated_eligibility_is_later_of_submit_and_start() {
        let j = JobSpec::dedicated(2, 10, 64, 300, 100);
        assert_eq!(j.eligible_at(), SimTime::from_secs(100));
        let early = JobSpec::dedicated(3, 200, 64, 300, 100);
        assert_eq!(early.eligible_at(), SimTime::from_secs(200));
        assert_eq!(j.class.requested_start(), Some(SimTime::from_secs(100)));
    }

    #[test]
    fn record_residual_tracks_finish() {
        let mut r = JobRecord::new(JobSpec::batch(1, 0, 32, 100));
        assert_eq!(r.residual(SimTime::ZERO), None);
        r.state = JobState::Running {
            started: SimTime::from_secs(5),
            finish: SimTime::from_secs(105),
        };
        assert_eq!(
            r.residual(SimTime::from_secs(50)),
            Some(Duration::from_secs(55))
        );
        assert_eq!(
            r.residual(SimTime::from_secs(200)),
            Some(Duration::ZERO),
            "residual saturates at zero past the finish time"
        );
        assert!(r.is_running());
    }

    #[test]
    fn proc_range_normalizes_and_classifies() {
        let fixed = JobSpec::batch(1, 0, 64, 100);
        assert_eq!(fixed.proc_range(), (64, 64));
        assert!(!fixed.is_malleable());
        // Degenerate explicit range: min == num == max.
        let degenerate = JobSpec::batch(2, 0, 64, 100).with_proc_range(64, 64);
        assert!(!degenerate.is_malleable());
        let mal = JobSpec::batch(3, 0, 64, 100).with_proc_range(32, 128);
        assert_eq!(mal.proc_range(), (32, 128));
        assert!(mal.is_malleable());
        // Unset bounds collapse to the preferred width.
        let grow_only = JobSpec::batch(4, 0, 64, 100).with_proc_range(0, 128);
        assert_eq!(grow_only.proc_range(), (64, 128));
        assert!(grow_only.is_malleable());
        // Inverted bounds clamp to num rather than crossing it.
        let weird = JobSpec::batch(5, 0, 64, 100).with_proc_range(96, 32);
        assert_eq!(weird.proc_range(), (64, 64));
        assert!(!weird.is_malleable());
    }

    #[test]
    fn spec_serde_round_trips_and_defaults_unset_range() {
        let mal = JobSpec::batch(2, 0, 64, 100).with_proc_range(32, 128);
        let text = serde_json::to_string(&mal).unwrap();
        assert!(text.contains("min_procs"));
        let back: JobSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(back, mal);
        // A spec serialized before the proc-range model existed (no
        // min/max fields) loads as a rigid job.
        let fixed = JobSpec::batch(1, 0, 64, 100);
        let mut text = serde_json::to_string(&fixed).unwrap();
        text = text
            .replace(",\"min_procs\":0", "")
            .replace(",\"max_procs\":0", "");
        assert!(!text.contains("min_procs"), "rewrite failed: {text}");
        let back: JobSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(back, fixed);
        assert!(!back.is_malleable());
    }

    #[test]
    fn new_record_copies_spec_dimensions() {
        let r = JobRecord::new(JobSpec::batch(7, 0, 96, 1234));
        assert_eq!(r.est_dur, Duration::from_secs(1234));
        assert_eq!(r.actual_dur, Duration::from_secs(1234));
        assert_eq!(r.alloc, 96);
        assert_eq!(r.ecc_count, 0);
        assert_eq!(
            r.state,
            JobState::Waiting {
                prev: NO_SLOT,
                next: NO_SLOT
            }
        );
    }

    /// The waiting-list links live inside `JobState::Waiting`, in the
    /// room the running variant's two times already take, so they add
    /// nothing to the record.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn record_keeps_its_128_byte_layout() {
        assert_eq!(std::mem::size_of::<JobRecord>(), 128);
    }
}
