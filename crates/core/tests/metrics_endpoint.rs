//! End-to-end test of the live telemetry plane: start a campaign with a
//! real scrape endpoint, run a small sweep through the real harness
//! paths (`tune_cs` → `parallel_map` → `Experiment::run` → engine
//! flush), then scrape `/metrics` and `/status` over a plain
//! `std::net::TcpStream` like an external Prometheus or `escli top`
//! would.
//!
//! The campaign is process-global (`telemetry::init` is a `OnceLock`),
//! so this binary holds exactly one `#[test]` that owns the install;
//! unit tests elsewhere cover the inactive-campaign (no-op) paths.

use std::time::Duration;

use elastisched::prelude::*;
use elastisched::telemetry;
use elastisched_sim::serve::http_get;
use elastisched_sim::StatusDoc;

/// Assert Prometheus text-exposition well-formedness: every line is a
/// `# HELP`/`# TYPE` comment or a `name[{labels}] value` sample whose
/// value parses as a float.
fn assert_exposition_well_formed(body: &str) {
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            assert!(
                rest.starts_with(" HELP ") || rest.starts_with(" TYPE "),
                "bad comment line: {line:?}"
            );
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line without value: {line:?}"));
        let name = series.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in line: {line:?}"
        );
        if series.contains('{') {
            assert!(series.ends_with('}'), "unterminated labels: {line:?}");
        }
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
            "unparseable sample value in line: {line:?}"
        );
    }
}

#[test]
fn metrics_endpoint_serves_a_live_sweep_end_to_end() {
    let addr = telemetry::init(Some("127.0.0.1:0"), false)
        .expect("binding 127.0.0.1:0 must succeed")
        .expect("an address was requested");
    telemetry::set_label("campaign", "integration-test");

    // A real (tiny) sweep: C_s tuning fans out through parallel_map,
    // so point counters, the engine flush, and per-run recording all
    // fire on worker threads.
    let base = GeneratorConfig::paper_batch(0.5).with_jobs(60);
    let tuning = elastisched::tune_cs(&base, MachineSpec::BLUEGENE_P, 0.9, &[1, 4], 1, 7);
    assert_eq!(tuning.candidates.len(), 2);

    let addr = addr.to_string();

    // -- /metrics: Prometheus text exposition ------------------------
    let (code, body) = http_get(&addr, "/metrics", Duration::from_secs(5)).expect("GET /metrics");
    assert_eq!(code, 200, "{body}");
    assert_exposition_well_formed(&body);
    assert!(
        body.contains("# TYPE elastisched_runs_total counter"),
        "missing runs counter TYPE line:\n{body}"
    );
    assert!(
        body.contains("# TYPE elastisched_sweep_point_millis histogram"),
        "missing point histogram TYPE line:\n{body}"
    );
    assert!(
        body.contains("elastisched_sweep_point_millis_bucket{le=\"+Inf\"}"),
        "histogram must end with a +Inf bucket:\n{body}"
    );
    assert!(
        body.contains("campaign=\"integration-test\""),
        "labels must surface via elastisched_info:\n{body}"
    );

    // -- /status: JSON snapshot an `escli top` client can parse ------
    let (code, body) = http_get(&addr, "/status", Duration::from_secs(5)).expect("GET /status");
    assert_eq!(code, 200, "{body}");
    let doc = StatusDoc::parse(&body).expect("valid /status JSON");
    assert!(doc.uptime_secs >= 0.0);
    let runs = doc
        .snapshot
        .counter("elastisched_runs_total")
        .expect("runs counter present");
    assert!(runs >= 2, "two sweep points must have flushed, got {runs}");
    let points = doc
        .snapshot
        .counter("elastisched_sweep_points_total")
        .expect("points counter present");
    assert!(points >= 2, "sweep points recorded, got {points}");
    assert!(
        doc.snapshot
            .labels
            .iter()
            .any(|l| l.key == "stage" && l.value == "tune-cs"),
        "stage label set by begin_stage: {:?}",
        doc.snapshot.labels
    );
    let rendered = telemetry::render_status(&doc);
    assert!(rendered.contains("runs"), "{rendered}");

    // -- /timeline: empty until a sampled run publishes one ----------
    let (code, body) = http_get(&addr, "/timeline", Duration::from_secs(5)).expect("GET /timeline");
    assert_eq!(code, 200, "{body}");
    assert_eq!(body, "{}", "no sampled run has published a timeline yet");

    // A run with the sampler on publishes its timeline for the endpoint.
    let w = generate(&GeneratorConfig::paper_batch(0.5).with_jobs(60).with_seed(7));
    let m = Experiment::new(Algorithm::DelayedLos)
        .with_timeline(elastisched_sim::TimelineConfig::default())
        .run(&w)
        .expect("sampled run completes");
    assert!(!m.timeline.is_empty(), "sampler was enabled");
    let (code, body) = http_get(&addr, "/timeline", Duration::from_secs(5)).expect("GET /timeline");
    assert_eq!(code, 200, "{body}");
    assert!(
        body.starts_with("{\"scheduler\":\"Delayed-LOS\""),
        "published timeline doc names the scheduler:\n{body}"
    );
    assert!(
        body.contains("\"timeline\":[{\"meta\":"),
        "doc embeds the JSONL header object:\n{body}"
    );
    // Parseable JSON (unknown fields are ignored by the vendored
    // deserializer, so a scheduler-only view validates the document).
    #[derive(serde::Deserialize)]
    struct TimelineDocHead {
        scheduler: String,
    }
    let doc: TimelineDocHead = serde_json::from_str(&body).expect("valid /timeline JSON");
    assert_eq!(doc.scheduler, "Delayed-LOS");
    // One `"at":` key per sample object in the embedded array.
    assert_eq!(body.matches("\"at\":").count(), m.timeline.samples.len());

    // -- run_raw reports to the campaign too ---------------------------
    // The raw entry point derives the metrics whenever a campaign is
    // active, so a raw run publishes its plane's document and adds a
    // cost-table row exactly as `run` does. EASY and FCFS have not run
    // in this campaign before, so each row is new.
    let r = Experiment::new(Algorithm::Easy)
        .with_timeline(elastisched_sim::TimelineConfig::default())
        .run_raw(&w)
        .expect("sampled raw run completes");
    let (code, body) = http_get(&addr, "/timeline", Duration::from_secs(5)).expect("GET /timeline");
    assert_eq!(code, 200, "{body}");
    assert!(
        body.starts_with("{\"scheduler\":\"EASY\""),
        "a raw run publishes its timeline:\n{body}"
    );
    assert_eq!(body.matches("\"at\":").count(), r.timeline.samples.len());

    let (code, body) =
        http_get(&addr, "/attribution", Duration::from_secs(5)).expect("GET /attribution");
    assert_eq!(code, 200, "{body}");
    assert_eq!(body, "{}", "no attributed run has published a profile yet");
    let r = Experiment::new(Algorithm::Fcfs)
        .with_attribution()
        .run_raw(&w)
        .expect("attributed raw run completes");
    assert!(!r.attribution.is_empty(), "attribution was enabled");
    let (code, body) =
        http_get(&addr, "/attribution", Duration::from_secs(5)).expect("GET /attribution");
    assert_eq!(code, 200, "{body}");
    assert!(
        body.starts_with("{\"scheduler\":\"FCFS\",\"attribution\":{"),
        "a raw run publishes its attribution profile:\n{body}"
    );

    let rows = telemetry::cost_rows();
    for name in ["EASY", "FCFS"] {
        let row = rows.iter().find(|(n, _)| n == name).map(|(_, row)| row);
        assert_eq!(
            row.map(|row| (row.runs, row.jobs)),
            Some((1, 60)),
            "one {name} raw run in the cost table: {rows:?}"
        );
    }

    // -- error paths -------------------------------------------------
    let (code, _) = http_get(&addr, "/nope", Duration::from_secs(5)).expect("GET /nope");
    assert_eq!(code, 404);

    // -- campaign aggregation ----------------------------------------
    let table = telemetry::cost_table().expect("runs were recorded");
    assert!(table.contains("Delayed-LOS"), "{table}");
    // `tune_cs` generated its workloads through `calibrated_workload`,
    // which reports the generation time on its own row.
    assert!(table.contains("(workload generation)"), "{table}");
}
