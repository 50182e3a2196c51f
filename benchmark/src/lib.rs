//! The repository benchmark: four long-run workloads, end-to-end metrics,
//! and outside-in per-layer timing. `src/main.rs` is the command; see
//! `README.md` for the workloads and metrics.

pub mod check;
pub mod host;
pub mod timed;
pub mod workloads;
