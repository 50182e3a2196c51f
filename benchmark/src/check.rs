//! Output checks: a digest of each run's `RunMetrics`, and the values
//! pinned in `pins.json` (per-instance digests for the default seed and
//! the archive replay's load settings).

use elastisched_metrics::RunMetrics;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Hash of exactly the fields `RunMetrics` equality compares. Wall-clock
/// fields (`dp_nanos`, `engine_nanos`, `phase_profile`), the engine-loop
/// counters and the observability planes are left out, so two runs of one
/// instance hash equal whether or not they were traced.
pub fn digest(m: &RunMetrics) -> String {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.bytes(m.scheduler.as_bytes());
    h.u64(m.jobs as u64);
    let s = &m.wait_summary;
    h.u64(s.n as u64);
    for f in [
        m.utilization,
        m.mean_wait,
        m.slowdown,
        m.mean_bounded_slowdown,
        m.mean_runtime,
        s.mean,
        s.std_dev,
        s.min,
        s.median,
        s.p95,
        s.max,
        m.mean_dedicated_delay,
        m.makespan,
    ] {
        h.f64(f);
    }
    for c in [
        m.dedicated_jobs as u64,
        m.dedicated_on_time as u64,
        m.eccs_applied,
        m.reconfig_grows,
        m.reconfig_shrinks,
        m.reconfig_procs_granted,
        m.reconfig_procs_reclaimed,
        m.reconfig_cost_secs,
        m.dp_cache_hits,
        m.dp_cache_misses,
        m.dp_incremental_hits,
        m.dp_incremental_rebuilds,
    ] {
        h.u64(c);
    }
    format!("{:016x}", h.0)
}

/// How the archive replay's trace is loaded.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ArchivePins {
    /// Arrival-time scale factor applied to the generated trace.
    pub scale_factor: f64,
    /// A replay whose engine ever holds more live jobs than this fails.
    pub peak_live_ceiling: u64,
}

/// The contents of `pins.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pins {
    /// The benchmark seed the digests were taken at.
    pub seed: u64,
    pub archive_replay: ArchivePins,
    /// Workload name → instance label → digest.
    pub digests: BTreeMap<String, BTreeMap<String, String>>,
}

impl Pins {
    /// Where `--bless` writes the pins.
    pub const PATH: &'static str = concat!(env!("CARGO_MANIFEST_DIR"), "/pins.json");

    /// The pins compiled into this binary.
    pub fn load() -> Pins {
        serde_json::from_str(include_str!("../pins.json")).expect("pins.json is valid")
    }

    pub fn save(&self) -> std::io::Result<()> {
        let text = serde_json::to_string_pretty(self).expect("pins serialize");
        std::fs::write(Pins::PATH, text + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisched::Experiment;
    use elastisched_sched::Algorithm;
    use elastisched_workload::{generate, GeneratorConfig};

    #[test]
    fn digest_covers_compared_fields_only() {
        let w = generate(&GeneratorConfig::paper_batch(0.5).with_jobs(80).with_seed(3));
        let m = Experiment::new(Algorithm::DelayedLos).run(&w).unwrap();
        let mut timing = m.clone();
        timing.dp_nanos += 1;
        timing.engine_nanos += 1;
        assert_eq!(digest(&m), digest(&timing));
        let mut other = m.clone();
        other.dp_cache_hits += 1;
        assert_ne!(digest(&m), digest(&other));
        other = m.clone();
        other.wait_summary.p95 += 1.0;
        assert_ne!(digest(&m), digest(&other));
    }

    #[test]
    fn pins_parse() {
        let pins = Pins::load();
        assert!(pins.archive_replay.scale_factor > 0.0);
        assert!(pins.archive_replay.peak_live_ceiling > 0);
    }
}
