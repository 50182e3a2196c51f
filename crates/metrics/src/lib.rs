//! # elastisched-metrics
//!
//! Metrics and statistics for scheduling experiments: the paper's three
//! evaluation metrics (mean utilization, mean job waiting time, slowdown)
//! derived from simulation results ([`report`]), summary statistics
//! ([`stats`]), and from-scratch Kolmogorov–Smirnov goodness-of-fit tests
//! ([`ks`]) mirroring the model validation of Lublin & Feitelson.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accum;
pub mod breakdown;
pub mod ks;
pub mod report;
pub mod special;
pub mod stats;
pub mod timeline;
pub mod validate;

pub use accum::RunAccumulator;
pub use breakdown::{breakdown, Breakdown, ClassMetrics};
pub use ks::{ks_test_cdf, ks_test_two_sample, KsResult};
pub use report::RunMetrics;
pub use special::{gamma_cdf, gamma_p, hyper_gamma_cdf, ln_gamma};
pub use stats::{
    improvement_higher_is_better, improvement_lower_is_better, jain_fairness, mean, median,
    quantile, std_dev, Summary,
};
pub use timeline::{gantt, sparkline, utilization_profile};
pub use validate::{occupancy, validate_schedule, Occupancy, Violation};
