//! Virtual-time telemetry sampling: the engine's time-resolved health
//! signal at streaming scale.
//!
//! The materialized metrics pipeline reconstructs utilization purely
//! from retained [`crate::JobOutcome`]s, which a streamed soak folds
//! away — exactly the runs whose time-resolved behaviour matters most.
//! This module records it online instead: a [`TimelineSampler`] takes
//! one [`TimelineSample`] per virtual-time stride at cycle boundaries,
//! and when the fixed point budget fills it **decimates** — drops every
//! other sample and doubles the stride — so a 10⁶-job soak and a
//! 500-job run both end with the same O(budget) resolution-adaptive
//! [`RunTimeline`].
//!
//! # Cost model
//!
//! Disabled (the default), the engine carries one `Option` that is
//! `None`: a single branch per scheduling cycle, nothing per event.
//! Enabled, a due sample costs O(1) counter reads and the search for
//! the oldest waiting job. The processors held by dedicated and by
//! ECC'd jobs are running counters the engine updates at every start,
//! completion, resize and running ECC, so a sample does not walk the
//! running set. The oldest-wait search walks the engine's
//! arrival-ordered wait views past dead (already started) ones, but it
//! resumes where the previous sample found the oldest live view, so
//! each dead view is passed over at most once between two compactions
//! of the view buffer — amortized O(1) per start, not O(dead views) per
//! sample. Between due points a cycle costs one time comparison.
//! Decimation is an in-place retain over at most `budget` samples and
//! runs O(log(makespan/stride)) times per run. On 40 seeded 2,000-job
//! hybrid-los+e runs at load 1.0 (one process, off and on runs
//! interleaved, 8 rounds, a 2-vCPU x86-64 host) the sampler costs
//! +6–7% over both planes off, down from +16–18% when each sample
//! walked the running set with an id lookup per job.
//!
//! # Determinism
//!
//! Samples are a pure function of engine state at cycle boundaries and
//! the decimation schedule is a pure function of sample count, so the
//! streamed and materialized paths — one event loop, identical cycles —
//! produce **identical** timelines, field for field.

use crate::time::{Duration, SimTime};
use serde::{Deserialize, Serialize};

/// Default point budget: runs end with at most ~1k samples.
pub const DEFAULT_TIMELINE_BUDGET: u32 = 1024;

/// Default initial stride: one sample per simulated second until the
/// budget forces coarser resolution.
pub const DEFAULT_TIMELINE_STRIDE: Duration = Duration::from_secs(1);

/// How the engine should sample a run's timeline (see
/// [`crate::Engine::enable_timeline`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimelineConfig {
    /// Initial virtual-time stride between samples. Doubles on every
    /// decimation, so it only sets the *finest* resolution.
    pub stride: Duration,
    /// Hard cap on retained samples (clamped to at least 2).
    pub budget: u32,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        TimelineConfig {
            stride: DEFAULT_TIMELINE_STRIDE,
            budget: DEFAULT_TIMELINE_BUDGET,
        }
    }
}

/// One point on a run's timeline: system state after the scheduling
/// cycle at `at`, plus cumulative counters from which rates between
/// consecutive samples can be derived by differencing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct TimelineSample {
    /// Sample time (a cycle boundary), simulated seconds.
    pub at: SimTime,
    /// Instantaneous machine utilization in `[0, 1]` (allocated /
    /// total), *not* the run-mean the paper reports.
    pub util: f64,
    /// Free processors.
    pub free: u32,
    /// Processors held by running dedicated jobs.
    pub dedicated_procs: u32,
    /// Processors held by running jobs that have absorbed at least one
    /// Elastic Control Command.
    pub ecc_procs: u32,
    /// Jobs waiting in the scheduler's queues.
    pub queue_depth: u32,
    /// Age of the oldest waiting job (now − submit), seconds; 0 when
    /// the queue is empty.
    pub oldest_wait_secs: u64,
    /// Running jobs.
    pub running: u32,
    /// Entries in the engine's waiting-jobs snapshot buffer (live views
    /// plus not-yet-compacted dead ones) — the quantity
    /// [`crate::EngineStats::peak_wait_views`] tracks the peak of.
    pub live_wait_views: u32,
    /// Pending engine events: completions and scheduler wakeups.
    /// Arrivals and ECCs never enter the event queue; the engine admits
    /// them straight from the workload.
    pub event_queue_len: u32,
    /// Cumulative ECCs applied so far.
    pub eccs_applied: u64,
    /// Cumulative scheduler-initiated malleable reconfigurations
    /// (grows + shrinks) so far.
    #[serde(default)]
    pub reconfigs: u64,
    /// Cumulative DP selection-cache hits so far.
    pub dp_cache_hits: u64,
    /// Cumulative DP selection-cache misses so far.
    pub dp_cache_misses: u64,
    /// Cumulative misses answered by the cross-cycle incremental table.
    pub dp_incremental_hits: u64,
    /// Cumulative incremental-table rebuilds from row zero.
    pub dp_incremental_rebuilds: u64,
}

/// A whole run's sampled timeline: the final stride/decimation shape
/// plus the retained samples, oldest first. Empty (the [`Default`])
/// unless sampling was enabled on the engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RunTimeline {
    /// The stride the run *started* with.
    #[serde(default)]
    pub base_stride_secs: u64,
    /// The stride in effect when the run ended (base × 2^decimations).
    #[serde(default)]
    pub stride_secs: u64,
    /// The point budget the sampler ran under.
    #[serde(default)]
    pub budget: u32,
    /// How many times the budget filled and every other sample was
    /// dropped.
    #[serde(default)]
    pub decimations: u32,
    /// Retained samples in time order. Never longer than `budget`; the
    /// first cycle's sample survives every decimation and the last
    /// sample is forced at the end of the run.
    #[serde(default)]
    pub samples: Vec<TimelineSample>,
}

impl RunTimeline {
    /// True when sampling was disabled (or the run had no cycles).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Render as line-delimited JSON: a `{"meta":{…}}` header line
    /// describing the sampling shape, then one sample object per line,
    /// oldest first, with a trailing newline. The header is *not* a
    /// sample — readers must treat line one specially (mirroring the
    /// postmortem format in `elastisched-trace`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 + self.samples.len() * 128);
        out.push_str(&format!(
            "{{\"meta\":{{\"base_stride_secs\":{},\"stride_secs\":{},\"budget\":{},\"decimations\":{},\"samples\":{}}}}}\n",
            self.base_stride_secs,
            self.stride_secs,
            self.budget,
            self.decimations,
            self.samples.len(),
        ));
        for s in &self.samples {
            // The vendored serde_json never fails on in-memory values.
            out.push_str(&serde_json::to_string(s).unwrap_or_default());
            out.push('\n');
        }
        out
    }

    /// Render as CSV with a header row, one sample per line.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(64 + self.samples.len() * 96);
        out.push_str(
            "at,util,free,dedicated_procs,ecc_procs,queue_depth,oldest_wait_secs,\
             running,live_wait_views,event_queue_len,eccs_applied,reconfigs,\
             dp_cache_hits,dp_cache_misses,dp_incremental_hits,dp_incremental_rebuilds\n",
        );
        for s in &self.samples {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                s.at.as_secs(),
                s.util,
                s.free,
                s.dedicated_procs,
                s.ecc_procs,
                s.queue_depth,
                s.oldest_wait_secs,
                s.running,
                s.live_wait_views,
                s.event_queue_len,
                s.eccs_applied,
                s.reconfigs,
                s.dp_cache_hits,
                s.dp_cache_misses,
                s.dp_incremental_hits,
                s.dp_incremental_rebuilds,
            ));
        }
        out
    }

    /// Parse the [`RunTimeline::to_jsonl`] form back (header line plus
    /// sample lines). Tolerates a missing header for hand-made files.
    pub fn from_jsonl(text: &str) -> Result<RunTimeline, String> {
        let mut tl = RunTimeline::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if i == 0 && line.starts_with("{\"meta\"") {
                #[derive(Deserialize)]
                struct Header {
                    meta: Meta,
                }
                #[derive(Deserialize)]
                struct Meta {
                    #[serde(default)]
                    base_stride_secs: u64,
                    #[serde(default)]
                    stride_secs: u64,
                    #[serde(default)]
                    budget: u32,
                    #[serde(default)]
                    decimations: u32,
                }
                let h: Header = serde_json::from_str(line)
                    .map_err(|e| format!("malformed timeline header: {e}"))?;
                tl.base_stride_secs = h.meta.base_stride_secs;
                tl.stride_secs = h.meta.stride_secs;
                tl.budget = h.meta.budget;
                tl.decimations = h.meta.decimations;
                continue;
            }
            let s: TimelineSample = serde_json::from_str(line)
                .map_err(|e| format!("malformed timeline sample on line {}: {e}", i + 1))?;
            tl.samples.push(s);
        }
        Ok(tl)
    }
}

/// The live sampling state the engine carries while a run is in flight.
/// Build one with [`TimelineSampler::new`], ask [`TimelineSampler::due`]
/// at each cycle boundary, [`TimelineSampler::push`] when it says yes,
/// and [`TimelineSampler::into_timeline`] at the end of the run.
#[derive(Debug, Clone)]
pub struct TimelineSampler {
    base_stride: Duration,
    stride: Duration,
    budget: usize,
    next_due: SimTime,
    decimations: u32,
    samples: Vec<TimelineSample>,
}

impl TimelineSampler {
    /// Build a sampler for one run. The budget is clamped to at least 2
    /// so decimation always has something to halve.
    pub fn new(cfg: TimelineConfig) -> Self {
        let stride = cfg.stride.max(Duration::from_secs(1));
        TimelineSampler {
            base_stride: stride,
            stride,
            budget: cfg.budget.max(2) as usize,
            next_due: SimTime::ZERO,
            decimations: 0,
            samples: Vec::new(),
        }
    }

    /// Is a sample due at `now`? True on the very first cycle and then
    /// once per stride.
    #[inline]
    pub fn due(&self, now: SimTime) -> bool {
        now >= self.next_due
    }

    /// Time of the most recent retained sample.
    pub fn last_at(&self) -> Option<SimTime> {
        self.samples.last().map(|s| s.at)
    }

    /// The retained samples so far, oldest first (the postmortem dump
    /// snapshots the tail of this).
    pub fn samples(&self) -> &[TimelineSample] {
        &self.samples
    }

    /// Record a sample. Accepts samples out of stride (the end-of-run
    /// forced sample) but requires time monotonicity; a sample at the
    /// same instant as the previous one replaces it. Decimates *before*
    /// storing when the budget is full, so the newest sample is always
    /// retained and `len() <= budget` always holds.
    pub fn push(&mut self, sample: TimelineSample) {
        if let Some(last) = self.samples.last_mut() {
            debug_assert!(sample.at >= last.at, "timeline sample time went backwards");
            if last.at == sample.at {
                *last = sample;
                return;
            }
        }
        if self.samples.len() >= self.budget {
            self.decimate();
        }
        self.next_due = sample.at + self.stride;
        self.samples.push(sample);
    }

    /// Drop every odd-indexed sample (index 0 — the run's first sample
    /// — always survives) and double the stride.
    fn decimate(&mut self) {
        let mut i = 0usize;
        self.samples.retain(|_| {
            let keep = i % 2 == 0;
            i += 1;
            keep
        });
        self.stride = Duration::from_secs(self.stride.as_secs().saturating_mul(2).max(1));
        self.decimations += 1;
    }

    /// Finalize into the exported [`RunTimeline`].
    pub fn into_timeline(self) -> RunTimeline {
        RunTimeline {
            base_stride_secs: self.base_stride.as_secs(),
            stride_secs: self.stride.as_secs(),
            budget: self.budget as u32,
            decimations: self.decimations,
            samples: self.samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_at(at: u64) -> TimelineSample {
        TimelineSample {
            at: SimTime::from_secs(at),
            util: 0.5,
            free: 160,
            ..Default::default()
        }
    }

    /// Drive a sampler over event times the way the engine does: ask
    /// `due`, push when yes.
    fn drive(cfg: TimelineConfig, times: &[u64]) -> TimelineSampler {
        let mut s = TimelineSampler::new(cfg);
        for &t in times {
            if s.due(SimTime::from_secs(t)) {
                s.push(sample_at(t));
            }
        }
        s
    }

    #[test]
    fn dense_run_decimates_to_budget() {
        let cfg = TimelineConfig {
            stride: Duration::from_secs(1),
            budget: 8,
        };
        let times: Vec<u64> = (0..1000).collect();
        let s = drive(cfg, &times);
        let tl = s.into_timeline();
        assert!(tl.samples.len() <= 8);
        assert!(tl.decimations >= 6, "1000 points into 8 needs ≥6 halvings");
        assert_eq!(tl.samples[0].at, SimTime::ZERO, "first sample retained");
        assert_eq!(tl.stride_secs, 1 << tl.decimations);
        assert_eq!(tl.base_stride_secs, 1);
    }

    #[test]
    fn sparse_run_keeps_every_sample() {
        let cfg = TimelineConfig::default();
        let times = [0, 100, 5000, 90_000];
        let tl = drive(cfg, &times).into_timeline();
        assert_eq!(tl.samples.len(), 4);
        assert_eq!(tl.decimations, 0);
    }

    #[test]
    fn same_instant_push_replaces_not_appends() {
        let mut s = TimelineSampler::new(TimelineConfig::default());
        s.push(sample_at(5));
        let mut again = sample_at(5);
        again.util = 0.75;
        s.push(again);
        assert_eq!(s.samples().len(), 1);
        assert_eq!(s.samples()[0].util, 0.75);
    }

    #[test]
    fn forced_final_sample_is_retained_through_a_decimation() {
        let cfg = TimelineConfig {
            stride: Duration::from_secs(1),
            budget: 4,
        };
        let mut s = drive(cfg, &(0..4).collect::<Vec<_>>());
        assert_eq!(s.samples().len(), 4);
        // The end-of-run forced sample lands with the ring exactly full:
        // decimate-then-store must keep it.
        s.push(sample_at(1000));
        let tl = s.into_timeline();
        assert!(tl.samples.len() <= 4);
        assert_eq!(tl.samples.last().unwrap().at, SimTime::from_secs(1000));
        assert_eq!(tl.samples[0].at, SimTime::ZERO);
    }

    #[test]
    fn jsonl_round_trips_with_header() {
        let tl = drive(
            TimelineConfig {
                stride: Duration::from_secs(1),
                budget: 4,
            },
            &[0, 1, 2, 3, 4, 5, 6, 7],
        )
        .into_timeline();
        let text = tl.to_jsonl();
        assert!(text.starts_with("{\"meta\":"));
        assert_eq!(text.lines().count(), tl.samples.len() + 1);
        let back = RunTimeline::from_jsonl(&text).unwrap();
        assert_eq!(back, tl);
    }

    #[test]
    fn csv_has_header_and_one_row_per_sample() {
        let tl = drive(TimelineConfig::default(), &[0, 10, 20]).into_timeline();
        let csv = tl.to_csv();
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("at,util,free"));
        assert_eq!(lines.count(), 3);
    }

    #[test]
    fn from_jsonl_rejects_garbage() {
        assert!(RunTimeline::from_jsonl("not json\n").is_err());
        assert!(RunTimeline::from_jsonl("").unwrap().is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Budget is never exceeded, samples are strictly
            /// increasing in time, and the first sample survives every
            /// decimation — for arbitrary event-time sequences and
            /// budgets.
            #[test]
            fn decimation_invariants(
                deltas in prop::collection::vec(0u64..500, 1..400),
                budget in 2u32..64,
                stride in 1u64..20,
            ) {
                let cfg = TimelineConfig {
                    stride: Duration::from_secs(stride),
                    budget,
                };
                let mut s = TimelineSampler::new(cfg);
                let mut t = 0u64;
                let mut first_sampled = None;
                let mut last_t = 0u64;
                for d in deltas {
                    t += d;
                    last_t = t;
                    if s.due(SimTime::from_secs(t)) {
                        s.push(sample_at(t));
                        first_sampled.get_or_insert(t);
                    }
                    prop_assert!(s.samples().len() <= budget as usize);
                }
                // End-of-run forced sample, as the engine's finish does.
                s.push(sample_at(last_t));
                let tl = s.into_timeline();
                prop_assert!(tl.samples.len() <= budget as usize);
                prop_assert!(!tl.samples.is_empty());
                // First due sample retained (t=0 is always due).
                prop_assert_eq!(
                    tl.samples[0].at.as_secs(),
                    first_sampled.unwrap_or(last_t)
                );
                // Last sample is the forced end-of-run point.
                prop_assert_eq!(tl.samples.last().unwrap().at.as_secs(), last_t);
                // Strictly increasing times.
                for w in tl.samples.windows(2) {
                    prop_assert!(w[0].at < w[1].at);
                }
                // Stride bookkeeping matches the decimation count.
                prop_assert_eq!(
                    tl.stride_secs,
                    tl.base_stride_secs << tl.decimations.min(63)
                );
            }
        }
    }
}
