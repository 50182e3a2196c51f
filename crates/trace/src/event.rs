//! The typed event taxonomy recorded by a [`crate::TraceSink`].
//!
//! Three families, mirroring the layers of the simulator:
//!
//! * **job lifecycle** — `Submit → Queued → Start → Ecc* → Finish`,
//!   emitted by the engine as ground truth changes hands;
//! * **scheduler decisions** — head force-starts, head skips (with the
//!   running `scount`), DP invocations with their selection sets and
//!   cache outcomes, dedicated promotions, EASY backfills — emitted by
//!   the policies through `SchedContext::trace`;
//! * **engine cycle spans** — one per scheduling cycle (subject to the
//!   sink's sampling knob): events coalesced, queue depth, free
//!   processors, and the cycle's wall-clock nanoseconds.
//!
//! Every field is a plain scalar (or a `Vec<u64>` of job ids) so the
//! JSONL form is self-describing and diff-friendly. Times are simulated
//! seconds (`at`), never wall-clock, except `Cycle::nanos` which is
//! explicitly a wall-clock span and is zeroed when the sink's timing
//! knob is off (golden fixtures pin the zeroed form byte-for-byte).

use serde::{Deserialize, Serialize};

/// Which DP kernel a [`TraceEvent::DpSelect`] ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DpKernel {
    /// `Basic_DP`: maximize utilization now (Algorithm 1 line 7).
    Basic,
    /// `Reservation_DP`: maximize utilization without delaying the
    /// binding freeze (head reservation or dedicated window).
    Reservation,
}

/// Elastic Control Command kind, as recorded in a trace.
///
/// A trace-local mirror of the simulator's `EccKind` (this crate sits
/// below the simulator in the dependency order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EccTag {
    /// `ET`: extend execution time.
    ExtendTime,
    /// `RT`: reduce execution time.
    ReduceTime,
    /// `EP`: expand the processor allocation.
    ExtendProcs,
    /// `RP`: shrink the processor allocation.
    ReduceProcs,
}

/// One structured trace record.
///
/// Serialized externally tagged (`{"Start":{"job":3,...}}`), exactly as
/// upstream serde would, so JSONL traces stay stable across the
/// vendored/real serde boundary. Unknown fields inside a variant are
/// ignored on deserialize, so readers tolerate future field additions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// Run preamble: machine shape and the scheduling policy. Always the
    /// first event; exporters read the track layout from it.
    RunMeta {
        /// Total processors `M`.
        total: u32,
        /// Allocation unit (node-group size).
        unit: u32,
        /// Scheduler name (e.g. `"Delayed-LOS"`).
        scheduler: String,
    },
    /// A job entered the system: emitted when the engine admits it at
    /// its submit time, just before its `Queued`.
    Submit {
        /// Job id.
        job: u64,
        /// Submit time, simulated seconds.
        at: u64,
        /// Requested processors.
        num: u32,
        /// User-estimated duration, seconds.
        dur: u64,
        /// Dedicated (has a requested start) or batch.
        dedicated: bool,
    },
    /// The job's arrival event fired; it is now waiting.
    Queued {
        /// Job id.
        job: u64,
        /// Arrival time, simulated seconds.
        at: u64,
    },
    /// The job was activated on the machine.
    Start {
        /// Job id.
        job: u64,
        /// Start time, simulated seconds.
        at: u64,
        /// Processors allocated.
        num: u32,
    },
    /// An Elastic Control Command was applied to the job.
    Ecc {
        /// Job id.
        job: u64,
        /// Application time, simulated seconds.
        at: u64,
        /// Command kind.
        kind: EccTag,
        /// Raw command amount (seconds or processors).
        amount: u64,
        /// Processor allocation after the command.
        num: u32,
        /// Applied while the job was still queued (else it was running).
        queued: bool,
    },
    /// The job completed and released its processors.
    Finish {
        /// Job id.
        job: u64,
        /// Completion time, simulated seconds.
        at: u64,
        /// Processors held at completion.
        num: u32,
        /// Wait from eligibility to start, seconds.
        wait: u64,
        /// Actual runtime, seconds.
        runtime: u64,
    },
    /// One engine scheduling cycle (recorded 1-in-N per the sink's
    /// sampling knob).
    Cycle {
        /// Cycle timestamp, simulated seconds.
        at: u64,
        /// Events dispatched in this cycle (>1 means coalescing saved
        /// scheduler invocations).
        events: u32,
        /// Events still pending in the queue after the cycle.
        queue_depth: u32,
        /// Free processors after the scheduling pass.
        free: u32,
        /// Wall-clock nanoseconds the cycle took (0 when the sink's
        /// timing knob is off).
        nanos: u64,
    },
    /// The head job was started by the skip-budget rule
    /// (`scount ≥ C_s`, Algorithm 1 lines 3–5).
    HeadForceStart {
        /// Job id.
        job: u64,
        /// Decision time, simulated seconds.
        at: u64,
        /// The skip count that forced it through.
        scount: u32,
    },
    /// A DP selection passed over the head job (`scount++`).
    HeadSkip {
        /// Job id.
        job: u64,
        /// Decision time, simulated seconds.
        at: u64,
        /// The skip count *after* this skip.
        scount: u32,
    },
    /// A DP kernel ran (or was answered from the selection cache) and
    /// chose a set of jobs to start.
    DpSelect {
        /// Decision time, simulated seconds.
        at: u64,
        /// Which kernel.
        kernel: DpKernel,
        /// Candidate jobs offered to the kernel.
        candidates: u32,
        /// Selected job ids, in queue order.
        chosen: Vec<u64>,
        /// Answered from the selection cache without running a kernel.
        cache_hit: bool,
    },
    /// A due dedicated job was promoted to the batch head (Algorithm 3).
    Promote {
        /// Job id.
        job: u64,
        /// Promotion time, simulated seconds.
        at: u64,
    },
    /// EASY started a non-head job ahead of the blocked head.
    Backfill {
        /// Job id.
        job: u64,
        /// Decision time, simulated seconds.
        at: u64,
    },
    /// The scheduler resized a running malleable job (the `+m` layer's
    /// grow/shrink, distinct from user-issued [`TraceEvent::Ecc`]s).
    Reconfig {
        /// Job id.
        job: u64,
        /// Resize time, simulated seconds.
        at: u64,
        /// Grow (true) or shrink (false).
        grow: bool,
        /// Processors moved.
        delta: u32,
        /// Processor allocation after the resize.
        num: u32,
        /// Reconfiguration cost charged to the job, seconds of extended
        /// remaining runtime.
        cost: u64,
    },
}

impl TraceEvent {
    /// The job this event is about, if it names exactly one.
    pub fn job(&self) -> Option<u64> {
        match self {
            TraceEvent::Submit { job, .. }
            | TraceEvent::Queued { job, .. }
            | TraceEvent::Start { job, .. }
            | TraceEvent::Ecc { job, .. }
            | TraceEvent::Finish { job, .. }
            | TraceEvent::HeadForceStart { job, .. }
            | TraceEvent::HeadSkip { job, .. }
            | TraceEvent::Promote { job, .. }
            | TraceEvent::Backfill { job, .. }
            | TraceEvent::Reconfig { job, .. } => Some(*job),
            TraceEvent::RunMeta { .. }
            | TraceEvent::Cycle { .. }
            | TraceEvent::DpSelect { .. } => None,
        }
    }

    /// The simulated timestamp of the event, if it has one.
    pub fn at(&self) -> Option<u64> {
        match self {
            TraceEvent::RunMeta { .. } => None,
            TraceEvent::Submit { at, .. }
            | TraceEvent::Queued { at, .. }
            | TraceEvent::Start { at, .. }
            | TraceEvent::Ecc { at, .. }
            | TraceEvent::Finish { at, .. }
            | TraceEvent::Cycle { at, .. }
            | TraceEvent::HeadForceStart { at, .. }
            | TraceEvent::HeadSkip { at, .. }
            | TraceEvent::DpSelect { at, .. }
            | TraceEvent::Promote { at, .. }
            | TraceEvent::Backfill { at, .. }
            | TraceEvent::Reconfig { at, .. } => Some(*at),
        }
    }

    /// Does this event mention `job` — as its subject or inside a DP
    /// selection set? The `explain` reconstruction filters on this.
    pub fn mentions(&self, job: u64) -> bool {
        if self.job() == Some(job) {
            return true;
        }
        matches!(self, TraceEvent::DpSelect { chosen, .. } if chosen.contains(&job))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_and_at_accessors() {
        let e = TraceEvent::Start {
            job: 7,
            at: 42,
            num: 64,
        };
        assert_eq!(e.job(), Some(7));
        assert_eq!(e.at(), Some(42));
        let m = TraceEvent::RunMeta {
            total: 320,
            unit: 32,
            scheduler: "LOS".into(),
        };
        assert_eq!(m.job(), None);
        assert_eq!(m.at(), None);
    }

    #[test]
    fn mentions_covers_dp_selections() {
        let e = TraceEvent::DpSelect {
            at: 0,
            kernel: DpKernel::Basic,
            candidates: 3,
            chosen: vec![2, 3],
            cache_hit: false,
        };
        assert!(e.mentions(2));
        assert!(e.mentions(3));
        assert!(!e.mentions(1));
    }
}
