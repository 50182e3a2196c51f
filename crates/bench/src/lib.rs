//! Benchmark and reproduction harness library (see `src/bin/repro.rs` and `benches/`).

pub mod perfgate;
pub mod soakbench;
