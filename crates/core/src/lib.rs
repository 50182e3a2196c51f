//! # elastisched
//!
//! A runtime-elastic, heterogeneous job-scheduling library for parallel
//! machines — a full reproduction of *"Scheduling Batch and Heterogeneous
//! Jobs with Runtime Elasticity in a Parallel Processing Environment"*
//! (Kumar, Shae & Jamjoom, 2012).
//!
//! The workspace layers:
//!
//! * [`elastisched_sim`] — discrete-event engine, BlueGene/P machine
//!   model, Elastic Control Command processor;
//! * [`elastisched_workload`] — Lublin–Feitelson models, SWF and the
//!   paper's Cloud Workload Format (CWF), the synthetic generator;
//! * [`elastisched_sched`] — EASY, LOS (Basic_DP / Reservation_DP),
//!   **Delayed-LOS**, **Hybrid-LOS**, dedicated-queue and baseline
//!   policies;
//! * [`elastisched_metrics`] — utilization / waiting time / slowdown,
//!   summary statistics, Kolmogorov–Smirnov tests.
//!
//! This crate ties them together: [`Experiment`] runs one scheduler over
//! one workload; [`figures`] regenerates every figure and table of the
//! paper's evaluation; [`sweep`] fans sweeps out over threads.
//!
//! ## Quickstart
//!
//! ```
//! use elastisched::prelude::*;
//!
//! // The paper's setup: a batch workload with P_S = 0.5 on a BlueGene/P.
//! let workload = generate(&GeneratorConfig::paper_batch(0.5).with_jobs(100).with_seed(1));
//! let metrics = Experiment::new(Algorithm::DelayedLos).run(&workload).unwrap();
//! assert!(metrics.utilization > 0.0);
//! println!("mean wait = {:.1}s, slowdown = {:.2}", metrics.mean_wait, metrics.slowdown);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calibrate;
pub mod contiguity;
pub mod diff;
pub mod experiment;
pub mod explain;
pub mod figures;
pub mod plot;
pub mod report;
pub mod sweep;
pub mod telemetry;
pub mod timeline_view;
pub mod tune;

pub use calibrate::{calibrated_workload, search_beta_arr};
pub use contiguity::{contiguity_study, ContiguityPoint, ContiguityStudy};
pub use diff::{
    diff_runs, first_divergence, render_attribution, render_diff, render_wait_breakdown, Decision,
    FirstDivergence, RunDiff,
};
pub use experiment::{Experiment, MachineSpec, StackExperiment};
pub use explain::{explain_job, explain_postmortem};
pub use figures::{
    default_cs_for_ps, improvement_table, Figure, ImprovementTable, ReproConfig, Series,
    SeriesPoint,
};
pub use plot::{render_svg, write_figure_svgs, Metric};
pub use sweep::{parallel_map, try_parallel_map, PointFailure};
pub use timeline_view::render_timeline;
pub use tune::{tune_cs, CsCandidate, CsTuning};

/// The most common imports in one place.
pub mod prelude {
    pub use crate::calibrate::calibrated_workload;
    pub use crate::experiment::{Experiment, MachineSpec, StackExperiment};
    pub use crate::figures::ReproConfig;
    pub use elastisched_metrics::RunMetrics;
    pub use elastisched_sched::{Algorithm, CorePolicy, SchedParams, StackSpec};
    pub use elastisched_sim::{
        Duration, EccKind, EccPolicy, EccSpec, JobClass, JobId, JobSpec, Machine, RunTimeline,
        SimTime, TimelineConfig,
    };
    pub use elastisched_workload::{
        generate, CwfFile, GeneratorConfig, SizeModel, SwfFile, Workload,
    };
}
