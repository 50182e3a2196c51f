//! Lock-free metrics registry: the live-counter plane.
//!
//! Where [`crate::sink`] is a post-hoc event log, this module is the
//! *live* surface: a fixed set of metrics declared up front, one row
//! each in one table ([`STANDARD_SPECS`], [`keys`]), addressed by
//! integer handle ([`MetricId`]), and backed by one relaxed atomic per
//! counter (one atomic histogram per histogram), so sweep workers and
//! the engine can bump them concurrently without a lock. Readers call
//! [`MetricsRegistry::snapshot`], which copies them into a plain
//! serializable value — the API the HTTP endpoint ([`crate::serve`])
//! renders as Prometheus text exposition or JSON.
//!
//! # Cost model
//!
//! Same discipline as [`trace_event!`](crate::trace_event):
//!
//! * **disabled at runtime** (no registry installed, the default): one
//!   branch on an `Option` that is `None`. The engine flushes its
//!   counters **once per run**, never per event, so even that branch is
//!   off the per-event hot path.
//! * **enabled**: a relaxed `fetch_add` on the metric's one atomic.
//!   Writers are the engine's once-per-run flush, the audit-failure
//!   bumps, and the campaign hooks (once per run and per sweep point),
//!   so no writer runs per event and contention is negligible. Reads
//!   are monotone but not a consistent cut across metrics (standard
//!   for scrape-style metrics).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use crate::hist::{bucket_index, bucket_upper_bound, LogHistogram, HIST_BUCKETS};
use crate::profile::Phase;

/// What a metric measures, fixed at registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Monotone non-negative integer total (`*_total`).
    Counter,
    /// Last-write-wins floating point level.
    Gauge,
    /// Log-bucketed distribution of `u64` samples.
    Histogram,
}

/// Static description of one metric: Prometheus name, help text, kind.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Prometheus-legal metric name (e.g. `elastisched_runs_total`).
    pub name: &'static str,
    /// One-line human description, rendered as `# HELP`.
    pub help: &'static str,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
}

/// Handle to a metric of the standard set: its index in
/// [`STANDARD_SPECS`]. The [`keys`] are the only ids there are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(usize);

impl MetricId {
    /// The metric's Prometheus name, as its [`MetricsSnapshot`] entry
    /// carries it.
    pub fn name(self) -> &'static str {
        STANDARD_SPECS[self.0].name
    }
}

/// A merge-friendly histogram made of atomics.
struct AtomicHistogram {
    counts: [AtomicU64; HIST_BUCKETS],
    n: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> Self {
        AtomicHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            n: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn observe(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.n.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Fold a pre-aggregated [`LogHistogram`] in. The true sample sum is
    /// unknown at this granularity, so it is estimated from bucket
    /// midpoints (documented on [`MetricsRegistry::merge_hist`]).
    fn merge_log(&self, h: &LogHistogram) {
        let mut est_sum = 0f64;
        for (b, &c) in h.counts.iter().enumerate() {
            if c > 0 {
                self.counts[b].fetch_add(c, Ordering::Relaxed);
                let mid = if b == 0 {
                    0.0
                } else {
                    1.5 * 2f64.powi(b as i32 - 1)
                };
                est_sum += mid * c as f64;
            }
        }
        self.n.fetch_add(h.n, Ordering::Relaxed);
        self.sum
            .fetch_add(est_sum.min(u64::MAX as f64) as u64, Ordering::Relaxed);
        self.max.fetch_max(h.max, Ordering::Relaxed);
    }
}

/// The registry. Cheap to update from any thread; snapshot to read.
/// See the module docs for the cost model.
pub struct MetricsRegistry {
    /// spec index → slot within its kind's storage.
    slot_of: Vec<usize>,
    counters: Vec<AtomicU64>,
    hists: Vec<AtomicHistogram>,
    gauges: Vec<AtomicU64>, // f64 bits
    labels: Mutex<Vec<(String, String)>>,
    /// Published JSON documents served verbatim by the HTTP endpoint
    /// (e.g. the last run's timeline under the key `"timeline"`).
    docs: Mutex<Vec<(String, String)>>,
}

impl MetricsRegistry {
    /// A registry over the standard metric set ([`STANDARD_SPECS`],
    /// addressed by [`keys`]), every value zero.
    pub fn standard() -> Self {
        let mut slot_of = Vec::with_capacity(STANDARD_SPECS.len());
        let (mut n_counters, mut n_gauges, mut n_hists) = (0usize, 0usize, 0usize);
        for spec in STANDARD_SPECS {
            let n = match spec.kind {
                MetricKind::Counter => &mut n_counters,
                MetricKind::Gauge => &mut n_gauges,
                MetricKind::Histogram => &mut n_hists,
            };
            slot_of.push(*n);
            *n += 1;
        }
        MetricsRegistry {
            slot_of,
            counters: (0..n_counters).map(|_| AtomicU64::new(0)).collect(),
            hists: (0..n_hists).map(|_| AtomicHistogram::new()).collect(),
            gauges: (0..n_gauges)
                .map(|_| AtomicU64::new(0f64.to_bits()))
                .collect(),
            labels: Mutex::new(Vec::new()),
            docs: Mutex::new(Vec::new()),
        }
    }

    #[inline]
    fn slot(&self, id: MetricId, kind: MetricKind) -> usize {
        debug_assert_eq!(STANDARD_SPECS[id.0].kind, kind, "metric kind mismatch");
        self.slot_of[id.0]
    }

    /// Add `delta` to a counter.
    #[inline]
    pub fn counter_add(&self, id: MetricId, delta: u64) {
        let slot = self.slot(id, MetricKind::Counter);
        self.counters[slot].fetch_add(delta, Ordering::Relaxed);
    }

    /// Current counter total.
    pub fn counter_value(&self, id: MetricId) -> u64 {
        let slot = self.slot(id, MetricKind::Counter);
        self.counters[slot].load(Ordering::Relaxed)
    }

    /// Set a gauge (last write wins across threads).
    #[inline]
    pub fn gauge_set(&self, id: MetricId, value: f64) {
        let slot = self.slot(id, MetricKind::Gauge);
        self.gauges[slot].store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current gauge level.
    pub fn gauge_value(&self, id: MetricId) -> f64 {
        let slot = self.slot(id, MetricKind::Gauge);
        f64::from_bits(self.gauges[slot].load(Ordering::Relaxed))
    }

    /// Record one sample into a histogram.
    #[inline]
    pub fn observe(&self, id: MetricId, v: u64) {
        let slot = self.slot(id, MetricKind::Histogram);
        self.hists[slot].observe(v);
    }

    /// Fold a pre-aggregated [`LogHistogram`] into a histogram metric
    /// (e.g. a whole run's wait distribution in one call). The
    /// Prometheus `_sum` contribution is **estimated** from bucket
    /// midpoints, since log buckets do not retain exact sample sums.
    pub fn merge_hist(&self, id: MetricId, h: &LogHistogram) {
        if h.is_empty() {
            return;
        }
        let slot = self.slot(id, MetricKind::Histogram);
        self.hists[slot].merge_log(h);
    }

    /// Attach or replace a free-form label (rendered on the
    /// `elastisched_info` series and echoed in `/status`).
    pub fn set_label(&self, key: &str, value: &str) {
        let mut labels = self.labels.lock().expect("metrics label lock poisoned");
        if let Some(entry) = labels.iter_mut().find(|(k, _)| k == key) {
            entry.1 = value.to_string();
        } else {
            labels.push((key.to_string(), value.to_string()));
        }
    }

    /// Publish (or replace) a JSON document under `key`, served
    /// verbatim by the HTTP endpoint (e.g. `/timeline` serves the
    /// `"timeline"` document). The value must already be valid JSON.
    pub fn publish_doc(&self, key: &str, json: String) {
        let mut docs = self.docs.lock().expect("metrics doc lock poisoned");
        if let Some(entry) = docs.iter_mut().find(|(k, _)| k == key) {
            entry.1 = json;
        } else {
            docs.push((key.to_string(), json));
        }
    }

    /// The last JSON document published under `key`, if any.
    pub fn doc(&self, key: &str) -> Option<String> {
        let docs = self.docs.lock().expect("metrics doc lock poisoned");
        docs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    }

    /// Copy every metric into a plain, serializable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (i, spec) in STANDARD_SPECS.iter().enumerate() {
            let id = MetricId(i);
            match spec.kind {
                MetricKind::Counter => counters.push(CounterSnap {
                    name: spec.name.to_string(),
                    help: spec.help.to_string(),
                    value: self.counter_value(id),
                }),
                MetricKind::Gauge => gauges.push(GaugeSnap {
                    name: spec.name.to_string(),
                    help: spec.help.to_string(),
                    value: self.gauge_value(id),
                }),
                MetricKind::Histogram => {
                    let ah = &self.hists[self.slot_of[i]];
                    let mut hist = LogHistogram::new();
                    for (b, c) in ah.counts.iter().enumerate() {
                        hist.counts[b] = c.load(Ordering::Relaxed);
                    }
                    hist.n = ah.n.load(Ordering::Relaxed);
                    hist.max = ah.max.load(Ordering::Relaxed);
                    histograms.push(HistSnap {
                        name: spec.name.to_string(),
                        help: spec.help.to_string(),
                        sum: ah.sum.load(Ordering::Relaxed),
                        hist,
                    });
                }
            }
        }
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            labels: self
                .labels
                .lock()
                .expect("metrics label lock poisoned")
                .iter()
                .map(|(k, v)| LabelEntry {
                    key: k.clone(),
                    value: v.clone(),
                })
                .collect(),
        }
    }
}

/// One counter in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct CounterSnap {
    /// Metric name.
    pub name: String,
    /// Help text.
    pub help: String,
    /// Counter total.
    pub value: u64,
}

/// One gauge level in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct GaugeSnap {
    /// Metric name.
    pub name: String,
    /// Help text.
    pub help: String,
    /// Last written level.
    pub value: f64,
}

/// One histogram in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct HistSnap {
    /// Metric name.
    pub name: String,
    /// Help text.
    pub help: String,
    /// Sample sum (exact for `observe`d samples, midpoint-estimated for
    /// merged [`LogHistogram`]s).
    pub sum: u64,
    /// Bucket counts.
    pub hist: LogHistogram,
}

/// A free-form key/value label on the snapshot (campaign name, config).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct LabelEntry {
    /// Label key.
    pub key: String,
    /// Label value.
    pub value: String,
}

/// A serializable view of the registry at one instant. This is
/// the `/status` JSON payload and the input to the Prometheus renderer.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counters in registration order.
    #[serde(default)]
    pub counters: Vec<CounterSnap>,
    /// Gauge levels in registration order.
    #[serde(default)]
    pub gauges: Vec<GaugeSnap>,
    /// Histograms in registration order.
    #[serde(default)]
    pub histograms: Vec<HistSnap>,
    /// Free-form labels.
    #[serde(default)]
    pub labels: Vec<LabelEntry>,
}

/// Escape a label value per the Prometheus text exposition rules.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Render an `f64` the exposition format accepts (non-finite → 0).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl MetricsSnapshot {
    /// Look up a counter total by metric name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Look up a gauge level by metric name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Render as Prometheus text exposition format 0.0.4: `# HELP` /
    /// `# TYPE` preamble per family, cumulative `_bucket{le="…"}`
    /// series plus `_sum` / `_count` for histograms, and an
    /// `elastisched_info{…} 1` series carrying the labels.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        if !self.labels.is_empty() {
            out.push_str("# HELP elastisched_info Campaign labels.\n");
            out.push_str("# TYPE elastisched_info gauge\n");
            out.push_str("elastisched_info{");
            for (i, l) in self.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{}=\"{}\"", l.key, escape_label(&l.value)));
            }
            out.push_str("} 1\n");
        }
        for c in &self.counters {
            out.push_str(&format!("# HELP {} {}\n", c.name, c.help));
            out.push_str(&format!("# TYPE {} counter\n", c.name));
            out.push_str(&format!("{} {}\n", c.name, c.value));
        }
        for g in &self.gauges {
            out.push_str(&format!("# HELP {} {}\n", g.name, g.help));
            out.push_str(&format!("# TYPE {} gauge\n", g.name));
            out.push_str(&format!("{} {}\n", g.name, fmt_f64(g.value)));
        }
        for h in &self.histograms {
            out.push_str(&format!("# HELP {} {}\n", h.name, h.help));
            out.push_str(&format!("# TYPE {} histogram\n", h.name));
            let top = h.hist.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
            let mut cum = 0u64;
            for b in 0..=top {
                cum = cum.saturating_add(h.hist.counts[b]);
                out.push_str(&format!(
                    "{}_bucket{{le=\"{}\"}} {}\n",
                    h.name,
                    bucket_upper_bound(b),
                    cum
                ));
            }
            out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {}\n", h.name, h.hist.n));
            out.push_str(&format!("{}_sum {}\n", h.name, h.sum));
            out.push_str(&format!("{}_count {}\n", h.name, h.hist.n));
        }
        out
    }
}

/// Process-wide registry slot, installed once per process (typically by
/// the campaign bootstrap in `elastisched::telemetry::init`).
static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();

/// Install the process-global registry. Returns `false` (and drops the
/// argument) if one is already installed.
pub fn install_global(reg: Arc<MetricsRegistry>) -> bool {
    GLOBAL.set(reg).is_ok()
}

/// The process-global registry, if one has been installed. This is the
/// branch-on-`None` every [`metric!`](crate::metric) call site takes.
#[inline]
pub fn global() -> Option<&'static Arc<MetricsRegistry>> {
    GLOBAL.get()
}

/// The phase-nanos counter for a profiler phase, in the standard set.
pub fn phase_nanos_key(phase: Phase) -> MetricId {
    match phase {
        Phase::WorkloadGen => keys::PHASE_WORKLOAD_GEN_NANOS,
        Phase::DpSolve => keys::PHASE_DP_SOLVE_NANOS,
        Phase::EngineLoop => keys::PHASE_ENGINE_LOOP_NANOS,
        Phase::MetricsDerivation => keys::PHASE_METRICS_DERIVATION_NANOS,
    }
}

/// Declares the standard metric set from one table: each row is
/// `KEY: Kind, "prometheus_name", "help text";`. A key's [`MetricId`] is
/// its row's position, [`STANDARD_SPECS`] lists the rows in that order,
/// and the help text is both the key's rustdoc and its `# HELP` line.
macro_rules! standard_metrics {
    ($($key:ident: $kind:ident, $name:literal, $help:literal;)+) => {
        /// Well-known [`MetricId`]s into [`MetricsRegistry::standard`], one
        /// per row of the standard table, numbered by their position in it.
        pub mod keys {
            use super::MetricId;

            /// Row positions in the table, the source of every key's id.
            #[allow(non_camel_case_types)]
            enum Row {
                $($key,)+
            }

            $(
                #[doc = $help]
                pub const $key: MetricId = MetricId(Row::$key as usize);
            )+
        }

        /// Spec list behind [`MetricsRegistry::standard`], in [`keys`] order.
        pub const STANDARD_SPECS: &[MetricSpec] = &[$(MetricSpec {
            name: $name,
            help: $help,
            kind: MetricKind::$kind,
        },)+];
    };
}

standard_metrics! {
    RUNS_TOTAL: Counter, "elastisched_runs_total", "Simulation runs completed.";
    JOBS_TOTAL: Counter, "elastisched_jobs_total", "Jobs completed across all runs.";
    ENGINE_EVENTS_TOTAL: Counter, "elastisched_engine_events_total", "Engine events processed.";
    ENGINE_CYCLES_TOTAL: Counter, "elastisched_engine_cycles_total", "Scheduler cycles executed.";
    EVENTS_COALESCED_TOTAL: Counter, "elastisched_engine_events_coalesced_total", "Same-instant events coalesced into one scheduler cycle.";
    QUEUE_OPS_TOTAL: Counter, "elastisched_engine_queue_ops_total", "Event-queue push/pop operations.";
    ENGINE_NANOS_TOTAL: Counter, "elastisched_engine_nanos_total", "Wall nanoseconds spent inside Engine::run.";
    ECCS_APPLIED_TOTAL: Counter, "elastisched_eccs_applied_total", "Elasticity change commands applied.";
    DP_CACHE_HITS_TOTAL: Counter, "elastisched_dp_cache_hits_total", "DP selection-cache hits.";
    DP_CACHE_MISSES_TOTAL: Counter, "elastisched_dp_cache_misses_total", "DP selection-cache misses.";
    DP_NANOS_TOTAL: Counter, "elastisched_dp_nanos_total", "Sampled wall nanoseconds spent in DP solves.";
    HEAD_FORCE_STARTS_TOTAL: Counter, "elastisched_sched_head_force_starts_total", "Head-of-queue force starts across schedulers.";
    HEAD_SKIPS_TOTAL: Counter, "elastisched_sched_head_skips_total", "Head-of-queue skips (delayed-LOS waiting decisions).";
    DP_STARTS_TOTAL: Counter, "elastisched_sched_dp_starts_total", "Jobs started out of a DP selection.";
    DEDICATED_PROMOTIONS_TOTAL: Counter, "elastisched_sched_dedicated_promotions_total", "Dedicated-node promotions.";
    SWEEP_POINTS_TOTAL: Counter, "elastisched_sweep_points_total", "Sweep points completed.";
    SWEEP_POINT_FAILURES_TOTAL: Counter, "elastisched_sweep_point_failures_total", "Sweep points that panicked and were skipped.";
    PHASE_WORKLOAD_GEN_NANOS: Counter, "elastisched_phase_workload_gen_nanos_total", "Wall nanoseconds in workload generation.";
    PHASE_DP_SOLVE_NANOS: Counter, "elastisched_phase_dp_solve_nanos_total", "Wall nanoseconds attributed to DP solves.";
    PHASE_ENGINE_LOOP_NANOS: Counter, "elastisched_phase_engine_loop_nanos_total", "Wall nanoseconds attributed to the engine loop.";
    PHASE_METRICS_DERIVATION_NANOS: Counter, "elastisched_phase_metrics_derivation_nanos_total", "Wall nanoseconds deriving RunMetrics from raw results.";
    SWEEP_POINTS_PLANNED: Gauge, "elastisched_sweep_points_planned", "Points planned in the current sweep stage.";
    SWEEP_POINTS_DONE: Gauge, "elastisched_sweep_points_done", "Points finished in the current sweep stage.";
    SWEEP_ETA_SECONDS: Gauge, "elastisched_sweep_eta_seconds", "EWMA-estimated seconds until the current stage completes.";
    SWEEP_POINTS_PER_SEC: Gauge, "elastisched_sweep_points_per_sec", "Smoothed sweep-point completion rate.";
    JOBS_PER_SEC: Gauge, "elastisched_jobs_per_sec", "Cumulative simulated jobs per wall second.";
    EVENTS_PER_SEC: Gauge, "elastisched_events_per_sec", "Cumulative engine events per wall second.";
    POINT_MILLIS: Histogram, "elastisched_sweep_point_millis", "Wall milliseconds per completed sweep point.";
    JOB_WAIT_TIME: Histogram, "elastisched_job_wait_time", "Per-job wait times in simulated time units, merged across runs.";
    DP_INCREMENTAL_HITS_TOTAL: Counter, "elastisched_dp_incremental_hits_total", "DP cache misses answered by the cross-cycle incremental table.";
    DP_INCREMENTAL_REBUILDS_TOTAL: Counter, "elastisched_dp_incremental_rebuilds_total", "DP cache misses that rebuilt the incremental table from row zero.";
    ENGINE_PEAK_WAIT_VIEWS: Gauge, "elastisched_engine_peak_wait_views", "Last run's wait-view buffer high-water mark.";
    ENGINE_PEAK_LIVE_JOBS: Gauge, "elastisched_engine_peak_live_jobs", "Last run's job-record slab high-water mark: its peak live jobs.";
    AUDIT_CAPACITY_VIOLATIONS_TOTAL: Counter, "elastisched_audit_capacity_violations_total", "Audit failures: capacity conservation.";
    AUDIT_CLOCK_VIOLATIONS_TOTAL: Counter, "elastisched_audit_clock_violations_total", "Audit failures: virtual-clock monotonicity.";
    AUDIT_ECC_VIOLATIONS_TOTAL: Counter, "elastisched_audit_ecc_violations_total", "Audit failures: ECC / running-set accounting.";
    AUDIT_SLAB_VIOLATIONS_TOTAL: Counter, "elastisched_audit_slab_violations_total", "Audit failures: reclamation slab consistency.";
    AUDIT_FIFO_VIOLATIONS_TOTAL: Counter, "elastisched_audit_fifo_violations_total", "Audit failures: bucket-FIFO dispatch order.";
    POSTMORTEM_DUMPS_TOTAL: Counter, "elastisched_postmortem_dumps_total", "Flight-recorder postmortem dumps written.";
    TIMELINE_SAMPLES: Gauge, "elastisched_timeline_samples", "Samples retained in the last run's timeline.";
    ATTR_CAPACITY_WAIT_SECONDS_TOTAL: Counter, "elastisched_attr_capacity_wait_seconds_total", "Wait seconds attributed to insufficient free capacity.";
    ATTR_DEDICATED_WAIT_SECONDS_TOTAL: Counter, "elastisched_attr_dedicated_wait_seconds_total", "Wait seconds attributed to dedicated-node contention.";
    ATTR_ECC_WAIT_SECONDS_TOTAL: Counter, "elastisched_attr_ecc_wait_seconds_total", "Wait seconds attributed to processors gained through ECCs.";
    ATTR_POLICY_SKIP_WAIT_SECONDS_TOTAL: Counter, "elastisched_attr_policy_skip_wait_seconds_total", "Wait seconds attributed to deliberate policy skips.";
    ATTR_FREEZE_WAIT_SECONDS_TOTAL: Counter, "elastisched_attr_freeze_wait_seconds_total", "Wait seconds attributed to freeze windows.";
    ATTR_JOBS_TOTAL: Counter, "elastisched_attr_jobs_total", "Jobs folded into attribution profiles.";
    AUDIT_ATTRIBUTION_VIOLATIONS_TOTAL: Counter, "elastisched_audit_attribution_violations_total", "Audit failures: wait-attribution conservation.";
    RECONFIG_GROWS_TOTAL: Counter, "elastisched_reconfig_grows_total", "Scheduler-initiated grows applied to running malleable jobs.";
    RECONFIG_SHRINKS_TOTAL: Counter, "elastisched_reconfig_shrinks_total", "Scheduler-initiated shrinks applied to running malleable jobs.";
    RECONFIG_PROCS_GRANTED_TOTAL: Counter, "elastisched_reconfig_procs_granted_total", "Processors granted across all malleable grows.";
    RECONFIG_PROCS_RECLAIMED_TOTAL: Counter, "elastisched_reconfig_procs_reclaimed_total", "Processors reclaimed across all malleable shrinks.";
    RECONFIG_COST_SECONDS_TOTAL: Counter, "elastisched_reconfig_cost_seconds_total", "Reconfiguration cost charged to resized jobs, seconds.";
    ATTR_MALLEABLE_WAIT_SECONDS_TOTAL: Counter, "elastisched_attr_malleable_wait_seconds_total", "Wait seconds attributed to malleable-grow contention.";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_table_names_are_unique_legal_and_suffixed_by_kind() {
        let mut names: Vec<_> = STANDARD_SPECS.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), STANDARD_SPECS.len(), "Prometheus names repeat");
        for spec in STANDARD_SPECS {
            let name = spec.name;
            let legal_first = |c: char| c.is_ascii_alphabetic() || c == '_' || c == ':';
            assert!(
                name.starts_with(legal_first)
                    && name[1..]
                        .chars()
                        .all(|c| legal_first(c) || c.is_ascii_digit()),
                "{name:?} is not a legal Prometheus name"
            );
            assert_eq!(
                name.ends_with("_total"),
                spec.kind == MetricKind::Counter,
                "{name:?}: counters, and only counters, end in _total"
            );
            // `to_prometheus` writes the help text unescaped after `# HELP`.
            assert!(
                !spec.help.is_empty() && !spec.help.contains(['\n', '\r']),
                "{name:?} needs a one-line help text"
            );
        }
    }

    #[test]
    fn concurrent_counter_adds_sum_exactly() {
        let reg = Arc::new(MetricsRegistry::standard());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        reg.counter_add(keys::ENGINE_EVENTS_TOTAL, 1);
                    }
                });
            }
        });
        assert_eq!(reg.counter_value(keys::ENGINE_EVENTS_TOTAL), 80_000);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let reg = MetricsRegistry::standard();
        reg.gauge_set(keys::SWEEP_ETA_SECONDS, 12.5);
        assert_eq!(reg.gauge_value(keys::SWEEP_ETA_SECONDS), 12.5);
        reg.gauge_set(keys::SWEEP_ETA_SECONDS, 3.0);
        assert_eq!(reg.gauge_value(keys::SWEEP_ETA_SECONDS), 3.0);
    }

    #[test]
    fn histogram_observe_and_merge_agree_in_snapshot() {
        let reg = MetricsRegistry::standard();
        reg.observe(keys::POINT_MILLIS, 10);
        reg.observe(keys::POINT_MILLIS, 1000);
        let mut pre = LogHistogram::new();
        pre.record(10);
        pre.record(1000);
        reg.merge_hist(keys::JOB_WAIT_TIME, &pre);

        let snap = reg.snapshot();
        let point = snap
            .histograms
            .iter()
            .find(|h| h.name == "elastisched_sweep_point_millis")
            .unwrap();
        assert_eq!(point.hist.n, 2);
        assert_eq!(point.sum, 1010);
        let wait = snap
            .histograms
            .iter()
            .find(|h| h.name == "elastisched_job_wait_time")
            .unwrap();
        assert_eq!(wait.hist.n, 2);
        assert_eq!(wait.hist.counts, pre.counts);
        assert_eq!(wait.hist.max, 1000);
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let reg = MetricsRegistry::standard();
        reg.set_label("campaign", "unit \"test\"\nline");
        reg.counter_add(keys::RUNS_TOTAL, 3);
        reg.gauge_set(keys::SWEEP_ETA_SECONDS, 1.5);
        reg.gauge_set(keys::JOBS_PER_SEC, f64::NAN);
        reg.observe(keys::POINT_MILLIS, 7);
        let text = reg.snapshot().to_prometheus();

        assert!(text.contains("# TYPE elastisched_runs_total counter\n"));
        assert!(text.contains("elastisched_runs_total 3\n"));
        assert!(text.contains("# TYPE elastisched_sweep_eta_seconds gauge\n"));
        assert!(text.contains("elastisched_sweep_eta_seconds 1.5\n"));
        // NaN gauges render as 0, not as unparseable text.
        assert!(text.contains("elastisched_jobs_per_sec 0\n"));
        // Histogram family: cumulative buckets, +Inf, sum, count.
        assert!(text.contains("elastisched_sweep_point_millis_bucket{le=\"7\"} 1\n"));
        assert!(text.contains("elastisched_sweep_point_millis_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("elastisched_sweep_point_millis_sum 7\n"));
        assert!(text.contains("elastisched_sweep_point_millis_count 1\n"));
        // Label escaping: backslash-escaped quote and newline.
        assert!(text.contains("campaign=\"unit \\\"test\\\"\\nline\""));
        // Well-formedness: every non-comment line is `name{labels}? value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("line has a value");
            assert!(!series.is_empty());
            let name_end = series.find('{').unwrap_or(series.len());
            let name = &series[..name_end];
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name {name:?}"
            );
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable sample value {value:?} in {line:?}"
            );
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = MetricsRegistry::standard();
        reg.counter_add(keys::RUNS_TOTAL, 2);
        reg.observe(keys::POINT_MILLIS, 42);
        reg.set_label("campaign", "roundtrip");
        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.counter("elastisched_runs_total"), Some(2));
    }

    #[test]
    fn bucket_le_7_covers_bucket_three() {
        // 7 is the inclusive upper bound of bucket 3 ([4, 8)); the
        // renderer's le labels must match the recorder's bucketing.
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_upper_bound(3), 7);
    }
}
