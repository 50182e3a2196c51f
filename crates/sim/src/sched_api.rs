//! The interface between the simulation engine and scheduling policies.
//!
//! The engine owns ground truth (machine state, running set, job records,
//! event queue). A [`Scheduler`] owns only its waiting-queue data
//! structures and decides, at each scheduling cycle, which waiting jobs to
//! activate via [`SchedContext::start`].

use crate::attribution::AttrNotes;
use crate::job::{JobClass, JobId};
use crate::machine::MachineError;
use crate::running::RunningSet;
use crate::time::{Duration, SimTime};
use elastisched_trace::TraceSink;
use std::fmt;

/// DP-kernel wall-clock timing is sampled: only one kernel invocation
/// in every `DP_NANOS_SAMPLE_EVERY` reads the clock, and the measured
/// span is multiplied back up by this factor. Shared by the solver (to
/// sample) and by anything interpreting `dp_nanos` (to know it is an
/// extrapolated estimate, not an exact sum). Must be a power of two —
/// the solver masks with `DP_NANOS_SAMPLE_EVERY - 1`.
pub const DP_NANOS_SAMPLE_EVERY: u64 = 16;

/// A scheduler-facing snapshot of one waiting job.
///
/// `dur` is the *current effective* user estimate — ECCs applied while the
/// job was queued are already folded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobView {
    /// Job id.
    pub id: JobId,
    /// Requested processors (current effective value).
    pub num: u32,
    /// Current effective user-estimated duration.
    pub dur: Duration,
    /// Arrival time.
    pub submit: SimTime,
    /// Batch or dedicated.
    pub class: JobClass,
}

impl crate::job::JobSpec {
    /// The scheduler-facing view of this spec (no ECCs applied yet).
    pub fn to_view(&self) -> JobView {
        JobView::from(self)
    }
}

impl From<&crate::job::JobSpec> for JobView {
    fn from(spec: &crate::job::JobSpec) -> Self {
        JobView {
            id: spec.id,
            num: spec.num,
            dur: spec.dur,
            submit: spec.submit,
            class: spec.class,
        }
    }
}

/// Why a start request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StartError {
    /// The job id is unknown to the engine.
    UnknownJob(JobId),
    /// The job is not in the waiting state (double start, or already done).
    NotWaiting(JobId),
    /// The machine refused the allocation.
    Machine(MachineError),
}

impl fmt::Display for StartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StartError::UnknownJob(id) => write!(f, "{id} is unknown"),
            StartError::NotWaiting(id) => write!(f, "{id} is not waiting"),
            StartError::Machine(e) => write!(f, "machine error: {e}"),
        }
    }
}

impl std::error::Error for StartError {}

impl From<MachineError> for StartError {
    fn from(e: MachineError) -> Self {
        StartError::Machine(e)
    }
}

/// Performance counters a scheduler may expose about its decision
/// kernels (the LOS family's DP solver). Schedulers without such
/// kernels report all-zero stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// DP solves answered from the scheduler's selection cache.
    pub dp_cache_hits: u64,
    /// DP solves that actually ran a kernel.
    pub dp_cache_misses: u64,
    /// *Estimated* wall-clock nanoseconds spent in DP solves: timing is
    /// sampled 1-in-[`DP_NANOS_SAMPLE_EVERY`] and extrapolated, so this
    /// is statistically accurate over a run but not an exact sum.
    pub dp_nanos: u64,
    /// Cache misses answered by extending/replaying the solver's
    /// retained cross-cycle reachability table (at least one stored
    /// row reused).
    pub dp_incremental_hits: u64,
    /// Cache misses where the retained table was rebuilt from row zero
    /// (first solve, capacity/unit re-layout, or head-of-queue change).
    pub dp_incremental_rebuilds: u64,
    /// Head-of-queue jobs force-started (LOS family).
    pub head_force_starts: u64,
    /// Head-of-queue skip decisions (delayed-LOS waiting choice).
    pub head_skips: u64,
    /// Jobs started out of a DP selection.
    pub dp_starts: u64,
    /// Dedicated-node promotions performed by wrapper policies.
    pub dedicated_promotions: u64,
}

/// Engine services available to a scheduler during a cycle.
pub trait SchedContext {
    /// Current simulated time `t`.
    fn now(&self) -> SimTime;
    /// Total machine processors `M`.
    fn total(&self) -> u32;
    /// Free processors `m`.
    fn free(&self) -> u32;
    /// Machine allocation unit (node-group size).
    fn unit(&self) -> u32;
    /// The active-job list `A`, sorted by residual time.
    fn running(&self) -> &RunningSet;
    /// Activate a waiting job now: allocate processors and schedule its
    /// completion. On success the job is no longer the scheduler's
    /// responsibility.
    fn start(&mut self, id: JobId) -> Result<(), StartError>;
    /// Current effective duration of a waiting job (after queued ECCs).
    /// `None` if the job is not waiting.
    fn waiting_dur(&self, id: JobId) -> Option<Duration>;
    /// Request a scheduler wakeup (an empty event forcing a cycle) at `at`.
    /// Used to revisit dedicated jobs at their requested start times.
    fn request_wakeup(&mut self, at: SimTime);
    /// The run's trace sink, when tracing is enabled. Schedulers record
    /// decision events through this (via the `trace_event!` macro, which
    /// skips event construction entirely when the sink is absent).
    /// Defaults to `None` so contexts without tracing need no code.
    fn trace(&mut self) -> Option<&mut TraceSink> {
        None
    }
    /// The run's wait-attribution notes, when attribution is enabled.
    /// Policies record per-cycle causes the engine cannot infer —
    /// deliberate head skips and freeze windows — through this; like
    /// [`SchedContext::trace`] it defaults to `None` so disabled runs
    /// cost one branch at each note site.
    fn attribution(&mut self) -> Option<&mut AttrNotes> {
        None
    }
    /// The unit-aligned width bounds `(floor, ceiling)` a *running*
    /// malleable job may be resized within via
    /// [`SchedContext::shrink_running`] / [`SchedContext::grow_running`].
    /// `None` for unknown, non-running, or rigid jobs, and in contexts
    /// without a malleability implementation (the default).
    fn malleable_bounds(&self, id: JobId) -> Option<(u32, u32)> {
        let _ = id;
        None
    }
    /// Shrink a running malleable job by up to `delta` processors (the
    /// engine clamps to the allocation unit and the job's range floor),
    /// releasing the processors immediately. Resizing is
    /// work-conserving: the job's remaining runtime is rescaled by
    /// `old/new` (it runs longer on fewer processors), then the
    /// reconfiguration cost is added on top. Returns the processors
    /// actually reclaimed (0 in contexts without malleability, the
    /// default).
    fn shrink_running(&mut self, id: JobId, delta: u32) -> u32 {
        let _ = (id, delta);
        0
    }
    /// Grow a running malleable job by up to `delta` processors out of
    /// the free pool (clamped to the unit, the free capacity, and the
    /// job's range ceiling). Work-conserving like
    /// [`SchedContext::shrink_running`]: the remaining runtime shrinks by
    /// `old/new` and the reconfiguration cost is added — so a grow only
    /// pays off while `remaining × (1 − old/new)` exceeds the cost.
    /// Returns the processors actually granted (0 by default).
    fn grow_running(&mut self, id: JobId, delta: u32) -> u32 {
        let _ = (id, delta);
        0
    }
    /// The reconfiguration cost the engine would charge for moving
    /// `delta` processors on one resize. Policies use this to decide
    /// whether a grow pays off (time saved must exceed the charge)
    /// before committing to it. Free in contexts without a
    /// malleability implementation (the default).
    fn reconfig_charge(&self, delta: u32) -> Duration {
        let _ = delta;
        Duration::ZERO
    }
}

/// A scheduling policy.
///
/// The engine calls `on_arrival` when a job's submit event fires,
/// `on_queued_ecc` when an ECC changes a *waiting* job's requirements
/// (running-job ECCs are engine-internal: the running set and completion
/// event are updated in place), and `cycle` once per distinct event
/// timestamp after all events at that instant are dispatched.
pub trait Scheduler {
    /// A new job entered the system.
    fn on_arrival(&mut self, job: JobView);

    /// A waiting job's requirements changed (`num`/`dur` are the new
    /// effective values). Schedulers must refresh their queued copy.
    fn on_queued_ecc(&mut self, id: JobId, num: u32, dur: Duration) {
        let _ = (id, num, dur);
    }

    /// A running job completed. Most schedulers need no action beyond the
    /// cycle that follows.
    fn on_completion(&mut self, id: JobId) {
        let _ = id;
    }

    /// One scheduling cycle: examine queues and start jobs via
    /// [`SchedContext::start`].
    fn cycle(&mut self, ctx: &mut dyn SchedContext);

    /// Number of jobs still waiting in this scheduler's queues.
    fn waiting_len(&self) -> usize;

    /// Short algorithm name (e.g. `"Delayed-LOS"`).
    fn name(&self) -> &'static str;

    /// Decision-kernel performance counters accumulated so far.
    /// Defaults to all zeros for schedulers without DP kernels.
    fn stats(&self) -> SchedStats {
        SchedStats::default()
    }
}

/// Mutable references schedule too, letting a caller keep ownership of
/// the scheduler (e.g. to read telemetry after the run).
impl<S: Scheduler + ?Sized> Scheduler for &mut S {
    fn on_arrival(&mut self, job: JobView) {
        (**self).on_arrival(job)
    }

    fn on_queued_ecc(&mut self, id: JobId, num: u32, dur: Duration) {
        (**self).on_queued_ecc(id, num, dur)
    }

    fn on_completion(&mut self, id: JobId) {
        (**self).on_completion(id)
    }

    fn cycle(&mut self, ctx: &mut dyn SchedContext) {
        (**self).cycle(ctx)
    }

    fn waiting_len(&self) -> usize {
        (**self).waiting_len()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn stats(&self) -> SchedStats {
        (**self).stats()
    }
}

/// Boxed schedulers (e.g. from an algorithm registry) schedule too, so
/// the generic engine can drive trait objects.
impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn on_arrival(&mut self, job: JobView) {
        (**self).on_arrival(job)
    }

    fn on_queued_ecc(&mut self, id: JobId, num: u32, dur: Duration) {
        (**self).on_queued_ecc(id, num, dur)
    }

    fn on_completion(&mut self, id: JobId) {
        (**self).on_completion(id)
    }

    fn cycle(&mut self, ctx: &mut dyn SchedContext) {
        (**self).cycle(ctx)
    }

    fn waiting_len(&self) -> usize {
        (**self).waiting_len()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn stats(&self) -> SchedStats {
        (**self).stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineError;

    #[test]
    fn start_error_displays() {
        let e = StartError::UnknownJob(JobId(3));
        assert!(e.to_string().contains("job#3"));
        let e: StartError = MachineError::InsufficientCapacity {
            requested: 64,
            free: 32,
        }
        .into();
        assert!(e.to_string().contains("machine error"));
        let e = StartError::NotWaiting(JobId(1));
        assert!(e.to_string().contains("not waiting"));
    }
}
