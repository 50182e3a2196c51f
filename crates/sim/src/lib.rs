//! # elastisched-sim
//!
//! Discrete-event simulation kernel for parallel job scheduling research.
//!
//! This crate is the Rust substitute for the GridSim + ALEA stack used in
//! *"Scheduling Batch and Heterogeneous Jobs with Runtime Elasticity in a
//! Parallel Processing Environment"*: an event-ordered virtual clock, a
//! BlueGene/P-style machine model with unit-granular allocation, the job
//! lifecycle (arrival → waiting → running → completed), the active-job
//! list `A` sorted by residual time, and the Elastic Control Command
//! processor that implements runtime elasticity in the time (and,
//! optionally, processor) dimension.
//!
//! Scheduling policies implement the [`Scheduler`] trait and live in the
//! `elastisched-sched` crate; the engine is policy-agnostic.
//!
//! ```
//! use elastisched_sim::{Machine, JobSpec};
//!
//! let machine = Machine::bluegene_p();
//! assert_eq!(machine.total(), 320);
//! let job = JobSpec::batch(1, 0, 64, 3600);
//! assert!(machine.is_valid_request(job.num).is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attribution;
pub mod contiguous;
pub mod ecc;
pub mod engine;
pub mod event;
pub mod job;
pub mod machine;
pub mod reconfig;
pub mod running;
pub mod sampler;
pub mod sched_api;
pub mod source;
pub mod time;

pub use attribution::{AttrNotes, AttributionProfile, BlockerShare, WaitAttribution, TOP_BLOCKERS};
pub use contiguous::{ContigError, ContiguousMachine, Extent, ReplayEvent, ReplayStats};
pub use ecc::{EccKind, EccPolicy, EccSpec};
pub use engine::{simulate, EccStats, Engine, EngineStats, SimError, SimResult};
pub use event::{Event, EventQueue};
pub use job::{JobClass, JobId, JobOutcome, JobRecord, JobSpec, JobState};
pub use machine::{Machine, MachineError};
pub use reconfig::{ReconfigCost, ReconfigStats};
pub use running::{RunningJob, RunningSet};
pub use sampler::{
    RunTimeline, TimelineConfig, TimelineSample, TimelineSampler, DEFAULT_TIMELINE_BUDGET,
    DEFAULT_TIMELINE_STRIDE,
};
pub use sched_api::{
    JobView, SchedContext, SchedStats, Scheduler, StartError, DP_NANOS_SAMPLE_EVERY,
};
pub use source::{JobSource, SliceSource, SourceItem};
pub use time::{Duration, SimTime};

// Tracing / telemetry re-exports, so downstream crates that only need
// to *read* a trace or touch the metrics plane (metrics, the CLI) can
// stay off the trace crate directly.
pub use elastisched_trace::{
    metric, metrics, profile, read_postmortem, serve, trace_event, write_postmortem, DpKernel,
    EccTag, LogHistogram, MetricsRegistry, MetricsServer, MetricsSnapshot, Phase, PhaseProfile,
    PostmortemSnapshot, StatusDoc, TraceEvent, TraceSink,
};
