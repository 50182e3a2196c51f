//! Campaign telemetry: the glue between the metrics plane and the
//! experiment harness.
//!
//! A *campaign* is one CLI invocation's worth of work — a figure sweep,
//! a `repro all`, a tuning run. When a campaign is started (opt-in via
//! `--serve-metrics` / `--progress` on `escli` and `repro`), this
//! module:
//!
//! * installs the process-global [`MetricsRegistry`] the engine and
//!   sweep workers flush into (see `Engine::run`'s once-per-run flush);
//! * optionally binds the HTTP scrape endpoint ([`MetricsServer`],
//!   `/metrics` + `/status`);
//! * tracks per-stage sweep progress (points done / planned, an
//!   EWMA-smoothed completion rate, and the derived ETA), printing
//!   stderr progress lines as points finish;
//! * aggregates per-scheduler [`PhaseProfile`] cost rows across every
//!   run, for the cost table printed at campaign end.
//!
//! Everything here is a no-op when no campaign is active: the hooks
//! ([`point_finished`], [`record_run`], …) branch on a `None` and
//! return, so library users and tests pay one load per sweep point,
//! not per event.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use elastisched_metrics::RunMetrics;
use elastisched_sim::metrics::{keys, MetricId, MetricsRegistry};
use elastisched_sim::profile::Phase;
use elastisched_sim::{MetricsServer, PhaseProfile};

/// Smoothing factor for the per-point completion-interval EWMA: each
/// new interval contributes 30%, so the ETA reacts within a few points
/// without whipsawing on one slow outlier.
const EWMA_ALPHA: f64 = 0.3;

struct Progress {
    stage: String,
    planned: u64,
    done: u64,
    failed: u64,
    stage_started: Instant,
    last_finish: Option<Instant>,
    /// EWMA of the wall interval between consecutive point completions.
    ewma_interval_secs: Option<f64>,
}

/// The active campaign: registry + optional server + progress state.
pub struct Campaign {
    registry: Arc<MetricsRegistry>,
    server: Option<MetricsServer>,
    started: Instant,
    progress_lines: bool,
    progress: Mutex<Option<Progress>>,
    /// scheduler name → (runs, jobs, engine events, merged profile).
    costs: Mutex<BTreeMap<String, CostRow>>,
}

/// Accumulated per-scheduler cost across a campaign's runs.
#[derive(Debug, Clone, Default)]
pub struct CostRow {
    /// Simulation runs attributed to this scheduler.
    pub runs: u64,
    /// Jobs completed across those runs.
    pub jobs: u64,
    /// Engine events dispatched across those runs.
    pub events: u64,
    /// Merged phase breakdown.
    pub profile: PhaseProfile,
}

static CAMPAIGN: OnceLock<Campaign> = OnceLock::new();

/// Start the process campaign: install the global registry, bind the
/// scrape endpoint when `serve_addr` is given, and enable stderr
/// progress lines when `progress_lines` is set. Returns the bound
/// server address, if any.
///
/// One campaign per process (second call returns an error). Both knobs
/// off still installs the registry, so `record_run` / the cost table
/// work for plain `--progress`-less invocations that asked for one.
pub fn init(serve_addr: Option<&str>, progress_lines: bool) -> Result<Option<SocketAddr>, String> {
    let registry = Arc::new(MetricsRegistry::standard());
    let server = match serve_addr {
        Some(addr) => Some(
            MetricsServer::start(addr, Arc::clone(&registry))
                .map_err(|e| format!("cannot serve metrics on {addr}: {e}"))?,
        ),
        None => None,
    };
    let bound = server.as_ref().map(|s| s.addr());
    let campaign = Campaign {
        registry: Arc::clone(&registry),
        server,
        started: Instant::now(),
        progress_lines,
        progress: Mutex::new(None),
        costs: Mutex::new(BTreeMap::new()),
    };
    CAMPAIGN
        .set(campaign)
        .map_err(|_| "campaign telemetry already initialized".to_string())?;
    // The engine's `metric!` flush finds the registry through the
    // trace-crate global; first install wins, which is this one unless
    // the embedder installed its own (then we keep feeding ours only
    // through the campaign paths — still coherent for /status).
    let _ = elastisched_sim::metrics::install_global(registry);
    if let Some(addr) = bound {
        eprintln!("[telemetry] serving /metrics and /status on http://{addr}");
    }
    Ok(bound)
}

/// The active campaign, if `init` has run.
pub fn active() -> Option<&'static Campaign> {
    CAMPAIGN.get()
}

impl Campaign {
    /// The campaign's registry (also installed as the process global).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The scrape endpoint's bound address, when serving.
    pub fn server_addr(&self) -> Option<SocketAddr> {
        self.server.as_ref().map(|s| s.addr())
    }
}

/// Set a campaign label (propagated to `/metrics` as `elastisched_info`
/// and to `/status`). No-op without a campaign.
pub fn set_label(key: &str, value: &str) {
    if let Some(c) = active() {
        c.registry.set_label(key, value);
    }
}

/// Begin a named sweep stage of `planned` points. Resets the progress
/// gauges and the EWMA. No-op without a campaign.
pub fn begin_stage(name: &str, planned: usize) {
    let Some(c) = active() else { return };
    c.registry.set_label("stage", name);
    c.registry
        .gauge_set(keys::SWEEP_POINTS_PLANNED, planned as f64);
    c.registry.gauge_set(keys::SWEEP_POINTS_DONE, 0.0);
    c.registry.gauge_set(keys::SWEEP_ETA_SECONDS, 0.0);
    c.registry.gauge_set(keys::SWEEP_POINTS_PER_SEC, 0.0);
    let mut slot = c.progress.lock().expect("progress lock");
    *slot = Some(Progress {
        stage: name.to_string(),
        planned: planned as u64,
        done: 0,
        failed: 0,
        stage_started: Instant::now(),
        last_finish: None,
        ewma_interval_secs: None,
    });
    if c.progress_lines {
        eprintln!("[telemetry] stage {name}: {planned} points");
    }
}

/// End the current sweep stage (progress lines stop; gauges keep their
/// final values so a late scrape still sees the completed stage).
pub fn end_stage() {
    let Some(c) = active() else { return };
    let mut slot = c.progress.lock().expect("progress lock");
    if let Some(p) = slot.take() {
        if c.progress_lines {
            let elapsed = p.stage_started.elapsed().as_secs_f64();
            eprintln!(
                "[telemetry] stage {} finished: {} points ({} failed) in {:.1}s",
                p.stage, p.done, p.failed, elapsed
            );
        }
    }
}

/// Record one finished sweep point: bumps the counters and the point
/// histogram, refreshes the EWMA/ETA gauges, and prints a progress
/// line. Called by `sweep::try_parallel_map` for every point, success
/// or panic. No-op without a campaign.
pub fn point_finished(name: &str, elapsed: Duration, ok: bool) {
    let Some(c) = active() else { return };
    c.registry.counter_add(keys::SWEEP_POINTS_TOTAL, 1);
    if !ok {
        c.registry.counter_add(keys::SWEEP_POINT_FAILURES_TOTAL, 1);
    }
    c.registry.observe(
        keys::POINT_MILLIS,
        elapsed.as_millis().min(u64::MAX as u128) as u64,
    );

    let mut slot = c.progress.lock().expect("progress lock");
    let Some(p) = slot.as_mut() else { return };
    p.done += 1;
    if !ok {
        p.failed += 1;
    }
    let now = Instant::now();
    let interval = now
        .duration_since(p.last_finish.unwrap_or(p.stage_started))
        .as_secs_f64();
    p.last_finish = Some(now);
    let ewma = match p.ewma_interval_secs {
        Some(prev) => EWMA_ALPHA * interval + (1.0 - EWMA_ALPHA) * prev,
        None => interval,
    };
    p.ewma_interval_secs = Some(ewma);
    let remaining = p.planned.saturating_sub(p.done);
    let eta_secs = ewma * remaining as f64;
    let rate = if ewma > 0.0 { 1.0 / ewma } else { 0.0 };
    c.registry.gauge_set(keys::SWEEP_POINTS_DONE, p.done as f64);
    c.registry.gauge_set(keys::SWEEP_ETA_SECONDS, eta_secs);
    c.registry.gauge_set(keys::SWEEP_POINTS_PER_SEC, rate);

    if c.progress_lines {
        let status = if ok { "" } else { " [PANICKED]" };
        eprintln!(
            "[telemetry] {} {}/{} {}{} in {:.2}s · {:.2} pt/s · ETA {}",
            p.stage,
            p.done,
            p.planned,
            name,
            status,
            elapsed.as_secs_f64(),
            rate,
            fmt_eta(eta_secs),
        );
    }
}

fn fmt_eta(secs: f64) -> String {
    if !secs.is_finite() || secs < 0.0 {
        return "?".to_string();
    }
    let s = secs.round() as u64;
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{s}s")
    }
}

/// Fold one run's metrics into the campaign: per-scheduler cost rows,
/// the shared wait histogram, phase-nanos counters, and the cumulative
/// jobs/s + events/s gauges. Called by `Experiment::run`. No-op without
/// a campaign.
pub fn record_run(m: &RunMetrics) {
    let Some(c) = active() else { return };
    c.registry.merge_hist(keys::JOB_WAIT_TIME, &m.wait_hist);
    if !m.timeline.is_empty() {
        // Publish the latest sampled timeline for the `/timeline`
        // endpoint: the JSONL form is one JSON object per line, so the
        // HTTP document wraps it as a JSON array of those objects.
        let mut json = String::from("{\"scheduler\":");
        json.push_str(&serde_json::to_string(&m.scheduler).unwrap_or_default());
        json.push_str(",\"timeline\":[");
        for (i, line) in m.timeline.to_jsonl().lines().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(line);
        }
        json.push_str("]}");
        c.registry.publish_doc("timeline", json);
    }
    if !m.attribution.is_empty() {
        // Publish the latest wait-attribution profile for the
        // `/attribution` endpoint, tagged with its scheduler.
        let profile = serde_json::to_string(&m.attribution).unwrap_or_default();
        let scheduler = serde_json::to_string(&m.scheduler).unwrap_or_default();
        c.registry.publish_doc(
            "attribution",
            format!("{{\"scheduler\":{scheduler},\"attribution\":{profile}}}"),
        );
    }
    for phase in Phase::ALL {
        let nanos = m.phase_profile.nanos_of(phase);
        if nanos > 0 {
            c.registry
                .counter_add(elastisched_sim::metrics::phase_nanos_key(phase), nanos);
        }
    }
    let elapsed = c.started.elapsed().as_secs_f64().max(1e-9);
    c.registry.gauge_set(
        keys::JOBS_PER_SEC,
        c.registry.counter_value(keys::JOBS_TOTAL) as f64 / elapsed,
    );
    c.registry.gauge_set(
        keys::EVENTS_PER_SEC,
        c.registry.counter_value(keys::ENGINE_EVENTS_TOTAL) as f64 / elapsed,
    );
    let mut costs = c.costs.lock().expect("costs lock");
    let row = costs.entry(m.scheduler.clone()).or_default();
    row.runs += 1;
    row.jobs += m.jobs as u64;
    row.events += m.engine_events;
    row.profile.merge(&m.phase_profile);
}

/// Attribute workload-generation wall time to the campaign (the
/// generation happens outside any single run, e.g. pre-generated sweep
/// workloads). Also counted under a synthetic `(workload generation)`
/// cost row. No-op without a campaign.
pub fn record_workload_gen(nanos: u64) {
    let Some(c) = active() else { return };
    c.registry
        .counter_add(keys::PHASE_WORKLOAD_GEN_NANOS, nanos);
    let mut costs = c.costs.lock().expect("costs lock");
    let row = costs
        .entry("(workload generation)".to_string())
        .or_default();
    row.runs += 1;
    row.profile.record(Phase::WorkloadGen, nanos);
}

/// The campaign's per-scheduler cost table as display text, or `None`
/// when no campaign is active or nothing has been recorded. Printed by
/// the CLIs at campaign end.
pub fn cost_table() -> Option<String> {
    let c = active()?;
    let costs = c.costs.lock().expect("costs lock");
    if costs.is_empty() {
        return None;
    }
    let mut out = String::new();
    out.push_str("per-scheduler cost (campaign totals):\n");
    out.push_str(&format!(
        "  {:<24} {:>6} {:>10} {:>12}  phase breakdown\n",
        "scheduler", "runs", "jobs", "events"
    ));
    for (name, row) in costs.iter() {
        out.push_str(&format!(
            "  {:<24} {:>6} {:>10} {:>12}  {}\n",
            name,
            row.runs,
            row.jobs,
            row.events,
            row.profile.to_line()
        ));
    }
    Some(out)
}

/// Render a `/status` document as the `escli top` one-shot view: labels,
/// current stage progress with ETA, throughput gauges, headline totals,
/// and latency quantiles from the merged histograms.
pub fn render_status(doc: &elastisched_sim::StatusDoc) -> String {
    let snap = &doc.snapshot;
    let gauge = |key: MetricId| snap.gauge(key.name()).unwrap_or(0.0);
    let counter = |key: MetricId| snap.counter(key.name()).unwrap_or(0);
    let mut out = String::new();
    out.push_str(&format!(
        "elastisched live status (uptime {:.1}s)\n",
        doc.uptime_secs
    ));
    if !snap.labels.is_empty() {
        let labels: Vec<String> = snap
            .labels
            .iter()
            .map(|l| format!("{}={:?}", l.key, l.value))
            .collect();
        out.push_str(&format!("  labels:  {}\n", labels.join(" ")));
    }
    let planned = gauge(keys::SWEEP_POINTS_PLANNED);
    if planned > 0.0 {
        out.push_str(&format!(
            "  sweep:   {}/{} points · {:.2} pt/s · ETA {}\n",
            gauge(keys::SWEEP_POINTS_DONE) as u64,
            planned as u64,
            gauge(keys::SWEEP_POINTS_PER_SEC),
            fmt_eta(gauge(keys::SWEEP_ETA_SECONDS)),
        ));
    }
    out.push_str(&format!(
        "  rates:   {:.0} jobs/s · {:.0} events/s\n",
        gauge(keys::JOBS_PER_SEC),
        gauge(keys::EVENTS_PER_SEC),
    ));
    out.push_str(&format!(
        "  totals:  {} runs · {} jobs · {} events · {} points ({} failed)\n",
        counter(keys::RUNS_TOTAL),
        counter(keys::JOBS_TOTAL),
        counter(keys::ENGINE_EVENTS_TOTAL),
        counter(keys::SWEEP_POINTS_TOTAL),
        counter(keys::SWEEP_POINT_FAILURES_TOTAL),
    ));
    for h in &snap.histograms {
        if h.hist.is_empty() {
            continue;
        }
        out.push_str(&format!(
            "  {:<24} n={} p50≈{:.0} p90≈{:.0} max={}\n",
            h.name,
            h.hist.n,
            h.hist.quantile(0.5),
            h.hist.quantile(0.9),
            h.hist.max,
        ));
    }
    out
}

/// Snapshot of the per-scheduler cost rows (scheduler → totals), for
/// programmatic consumers (bench notes). Empty without a campaign.
pub fn cost_rows() -> Vec<(String, CostRow)> {
    match active() {
        Some(c) => c
            .costs
            .lock()
            .expect("costs lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect(),
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `init` is process-global (OnceLock), so unit tests here stay on
    // the inactive-campaign paths; the active-campaign flow is covered
    // end-to-end by `tests/metrics_endpoint.rs`, which owns the one
    // process-wide install for its binary.
    #[test]
    fn hooks_are_noops_without_campaign() {
        if active().is_some() {
            return; // some other test in this binary initialized it
        }
        begin_stage("unit", 3);
        point_finished("p0", Duration::from_millis(5), true);
        end_stage();
        record_workload_gen(42);
        assert!(cost_table().is_none());
        assert!(cost_rows().is_empty());
    }

    #[test]
    fn render_status_shows_progress_and_quantiles() {
        // A private registry (not the process global) keeps this test
        // independent of any active campaign.
        let reg = MetricsRegistry::standard();
        reg.set_label("stage", "fig7 simulations");
        reg.counter_add(keys::RUNS_TOTAL, 4);
        reg.counter_add(keys::JOBS_TOTAL, 480);
        reg.gauge_set(keys::SWEEP_POINTS_PLANNED, 12.0);
        reg.gauge_set(keys::SWEEP_POINTS_DONE, 4.0);
        reg.gauge_set(keys::SWEEP_ETA_SECONDS, 65.0);
        reg.gauge_set(keys::SWEEP_POINTS_PER_SEC, 2.5);
        reg.observe(keys::POINT_MILLIS, 800);
        reg.observe(keys::POINT_MILLIS, 1200);
        let doc = elastisched_sim::StatusDoc {
            uptime_secs: 3.25,
            snapshot: reg.snapshot(),
        };
        let text = render_status(&doc);
        assert!(text.contains("uptime 3.2s"), "{text}");
        assert!(text.contains("stage=\"fig7 simulations\""), "{text}");
        assert!(text.contains("4/12 points"), "{text}");
        assert!(text.contains("ETA 1m05s"), "{text}");
        assert!(text.contains("4 runs · 480 jobs"), "{text}");
        assert!(text.contains("elastisched_sweep_point_millis"), "{text}");
        assert!(text.contains("n=2"), "{text}");
    }

    #[test]
    fn eta_formatting() {
        assert_eq!(fmt_eta(5.2), "5s");
        assert_eq!(fmt_eta(65.0), "1m05s");
        assert_eq!(fmt_eta(3725.0), "1h02m");
        assert_eq!(fmt_eta(f64::NAN), "?");
        assert_eq!(fmt_eta(f64::INFINITY), "?");
    }
}
