//! Trace exporters: line-delimited JSON and Chrome `trace_event`.
//!
//! **JSONL** ([`to_jsonl`]) is the archival form: one externally tagged
//! JSON object per line, in recording order, directly re-parseable into
//! [`TraceEvent`]s. It is the format the golden fixtures pin
//! byte-for-byte (with the sink's timing knob off).
//!
//! **Chrome trace** ([`to_chrome_trace`]) is the visual form, loadable
//! in Perfetto or `chrome://tracing`. The exporter replays the job
//! lifecycle through a node-group allocator (lowest free group first,
//! the same policy a real resource manager would log) and lays the run
//! out as:
//!
//! * **pid 1 "machine"** — one thread track per node-group; every
//!   occupancy interval becomes a complete (`"X"`) slice named
//!   `job <id>`, split at each applied ECC so shrink/expand boundaries
//!   are visible;
//! * **pid 2 "scheduler"** — instant (`"i"`) events for decisions
//!   (head skips, force-starts, DP selections, promotions, backfills)
//!   and counter (`"C"`) series for queue depth and free processors.
//!
//! Timestamps are simulated seconds scaled to trace microseconds, so
//! one trace-second of UI time equals one simulated second.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Serialize, Value};

use crate::event::{DpKernel, TraceEvent};

/// Render events as line-delimited JSON, one event per line, oldest
/// first, with a trailing newline after the last line.
pub fn to_jsonl<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> String {
    let mut out = String::new();
    for ev in events {
        // The vendored serde_json never fails on in-memory values.
        out.push_str(&serde_json::to_string(ev).unwrap_or_default());
        out.push('\n');
    }
    out
}

/// Parse a JSONL trace back into events (inverse of [`to_jsonl`]).
/// Blank lines are skipped; a malformed line is an error.
pub fn from_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).map_err(|e| format!("{e}: {l}")))
        .collect()
}

/// A pre-built JSON tree, emitted verbatim.
struct Doc(Value);

impl Serialize for Doc {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

fn u(v: u64) -> Value {
    Value::U64(v)
}

/// Simulated seconds → trace microseconds.
fn ts(at: u64) -> Value {
    u(at.saturating_mul(1_000_000))
}

const MACHINE_PID: u64 = 1;
const SCHED_PID: u64 = 2;

/// Replay state for one job's current occupancy.
struct JobAlloc {
    groups: Vec<u32>,
    since: u64,
    procs: u32,
}

/// Lowest-free-first node-group allocator used to reconstruct which
/// groups each job occupied (the trace records only processor counts).
struct GroupAlloc {
    free: BTreeSet<u32>,
    /// Synthetic ids handed out if the replay ever runs out of groups
    /// (possible when the ring dropped the matching `Finish` events).
    overflow_next: u32,
}

impl GroupAlloc {
    fn new(ngroups: u32) -> Self {
        GroupAlloc {
            free: (0..ngroups).collect(),
            overflow_next: ngroups,
        }
    }

    fn take(&mut self, n: usize) -> Vec<u32> {
        let mut got = Vec::with_capacity(n);
        for _ in 0..n {
            if let Some(&g) = self.free.iter().next() {
                self.free.remove(&g);
                got.push(g);
            } else {
                got.push(self.overflow_next);
                self.overflow_next += 1;
            }
        }
        got
    }

    fn release(&mut self, groups: &[u32]) {
        self.free.extend(groups.iter().copied());
    }
}

/// Convert a trace to Chrome `trace_event` JSON (the `{"traceEvents":
/// [...]}` object form), suitable for Perfetto or `chrome://tracing`.
pub fn to_chrome_trace<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> String {
    let events: Vec<&TraceEvent> = events.into_iter().collect();

    // Track layout from the run preamble; defaults keep a truncated
    // trace (RunMeta overwritten by the ring) renderable.
    let (total, unit, sched_name) = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::RunMeta {
                total,
                unit,
                scheduler,
            } => Some((*total, *unit, scheduler.clone())),
            _ => None,
        })
        .unwrap_or((1, 1, "unknown".to_string()));
    let unit = unit.max(1);
    let ngroups = (total / unit).max(1);
    let end = events.iter().filter_map(|e| e.at()).max().unwrap_or(0);

    let mut out: Vec<Value> = Vec::new();

    // Metadata: process and per-group thread names.
    out.push(obj(vec![
        ("name", s("process_name")),
        ("ph", s("M")),
        ("pid", u(MACHINE_PID)),
        (
            "args",
            obj(vec![("name", s(format!("machine ({total} procs)")))]),
        ),
    ]));
    out.push(obj(vec![
        ("name", s("process_name")),
        ("ph", s("M")),
        ("pid", u(SCHED_PID)),
        (
            "args",
            obj(vec![("name", s(format!("scheduler ({sched_name})")))]),
        ),
    ]));
    for g in 0..ngroups {
        out.push(obj(vec![
            ("name", s("thread_name")),
            ("ph", s("M")),
            ("pid", u(MACHINE_PID)),
            ("tid", u(g as u64 + 1)),
            ("args", obj(vec![("name", s(format!("group {g}")))])),
        ]));
    }
    out.push(obj(vec![
        ("name", s("thread_name")),
        ("ph", s("M")),
        ("pid", u(SCHED_PID)),
        ("tid", u(1)),
        ("args", obj(vec![("name", s("decisions"))])),
    ]));

    let mut alloc = GroupAlloc::new(ngroups);
    let mut running: BTreeMap<u64, JobAlloc> = BTreeMap::new();

    // Emit the closed occupancy slices of `job` as "X" events.
    fn flush(out: &mut Vec<Value>, job: u64, ja: &JobAlloc, until: u64) {
        let dur = until.saturating_sub(ja.since).saturating_mul(1_000_000);
        for &g in &ja.groups {
            out.push(obj(vec![
                ("name", s(format!("job {job}"))),
                ("ph", s("X")),
                ("pid", u(MACHINE_PID)),
                ("tid", u(g as u64 + 1)),
                ("ts", ts(ja.since)),
                ("dur", u(dur)),
                (
                    "args",
                    obj(vec![("job", u(job)), ("procs", u(ja.procs as u64))]),
                ),
            ]));
        }
    }

    for ev in &events {
        match ev {
            TraceEvent::Start { job, at, num } => {
                let n = (num.div_ceil(unit)).max(1) as usize;
                running.insert(
                    *job,
                    JobAlloc {
                        groups: alloc.take(n),
                        since: *at,
                        procs: *num,
                    },
                );
            }
            TraceEvent::Ecc {
                job,
                at,
                num,
                queued: false,
                ..
            } => {
                // Split the slice at the ECC so the new width is visible.
                if let Some(mut ja) = running.remove(job) {
                    flush(&mut out, *job, &ja, *at);
                    let want = (num.div_ceil(unit)).max(1) as usize;
                    if want < ja.groups.len() {
                        let released = ja.groups.split_off(want);
                        alloc.release(&released);
                    } else if want > ja.groups.len() {
                        let extra = alloc.take(want - ja.groups.len());
                        ja.groups.extend(extra);
                    }
                    ja.since = *at;
                    ja.procs = *num;
                    running.insert(*job, ja);
                }
            }
            TraceEvent::Finish { job, at, .. } => {
                if let Some(ja) = running.remove(job) {
                    flush(&mut out, *job, &ja, *at);
                    alloc.release(&ja.groups);
                }
            }
            TraceEvent::Cycle {
                at,
                queue_depth,
                free,
                ..
            } => {
                out.push(obj(vec![
                    ("name", s("queue depth")),
                    ("ph", s("C")),
                    ("pid", u(SCHED_PID)),
                    ("ts", ts(*at)),
                    ("args", obj(vec![("pending", u(*queue_depth as u64))])),
                ]));
                out.push(obj(vec![
                    ("name", s("free procs")),
                    ("ph", s("C")),
                    ("pid", u(SCHED_PID)),
                    ("ts", ts(*at)),
                    ("args", obj(vec![("free", u(*free as u64))])),
                ]));
            }
            TraceEvent::HeadForceStart { job, at, scount } => {
                out.push(instant(
                    "head_force_start",
                    *at,
                    vec![("job", u(*job)), ("scount", u(*scount as u64))],
                ));
            }
            TraceEvent::HeadSkip { job, at, scount } => {
                out.push(instant(
                    "head_skip",
                    *at,
                    vec![("job", u(*job)), ("scount", u(*scount as u64))],
                ));
            }
            TraceEvent::DpSelect {
                at,
                kernel,
                candidates,
                chosen,
                cache_hit,
            } => {
                let name = match kernel {
                    DpKernel::Basic => "basic_dp",
                    DpKernel::Reservation => "reservation_dp",
                };
                out.push(instant(
                    name,
                    *at,
                    vec![
                        ("candidates", u(*candidates as u64)),
                        ("chosen", Value::Seq(chosen.iter().map(|&j| u(j)).collect())),
                        ("cache_hit", Value::Bool(*cache_hit)),
                    ],
                ));
            }
            TraceEvent::Reconfig {
                job,
                at,
                grow,
                delta,
                num,
                ..
            } => {
                // Same slice split as a running ECC, so the scheduler's
                // resize is visible on the machine tracks too.
                if let Some(mut ja) = running.remove(job) {
                    flush(&mut out, *job, &ja, *at);
                    let want = (num.div_ceil(unit)).max(1) as usize;
                    if want < ja.groups.len() {
                        let released = ja.groups.split_off(want);
                        alloc.release(&released);
                    } else if want > ja.groups.len() {
                        let extra = alloc.take(want - ja.groups.len());
                        ja.groups.extend(extra);
                    }
                    ja.since = *at;
                    ja.procs = *num;
                    running.insert(*job, ja);
                }
                out.push(instant(
                    if *grow {
                        "malleable_grow"
                    } else {
                        "malleable_shrink"
                    },
                    *at,
                    vec![("job", u(*job)), ("delta", u(*delta as u64))],
                ));
            }
            TraceEvent::Promote { job, at } => {
                out.push(instant("promote_dedicated", *at, vec![("job", u(*job))]));
            }
            TraceEvent::Backfill { job, at } => {
                out.push(instant("backfill", *at, vec![("job", u(*job))]));
            }
            TraceEvent::RunMeta { .. }
            | TraceEvent::Submit { .. }
            | TraceEvent::Queued { .. }
            | TraceEvent::Ecc { queued: true, .. } => {}
        }
    }

    // Jobs still running when the trace ends: close them at the last
    // timestamp so their slices render.
    for (job, ja) in &running {
        flush(&mut out, *job, ja, end.max(ja.since));
    }

    serde_json::to_string(&Doc(obj(vec![("traceEvents", Value::Seq(out))]))).unwrap_or_default()
}

/// A scheduler-track instant ("i") event.
fn instant(name: &str, at: u64, args: Vec<(&str, Value)>) -> Value {
    obj(vec![
        ("name", s(name)),
        ("ph", s("i")),
        ("s", s("t")),
        ("pid", u(SCHED_PID)),
        ("tid", u(1)),
        ("ts", ts(at)),
        ("args", obj(args)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EccTag;

    fn tiny_trace() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunMeta {
                total: 4,
                unit: 2,
                scheduler: "LOS".into(),
            },
            TraceEvent::Submit {
                job: 1,
                at: 0,
                num: 2,
                dur: 10,
                dedicated: false,
            },
            TraceEvent::Queued { job: 1, at: 0 },
            TraceEvent::HeadSkip {
                job: 1,
                at: 0,
                scount: 1,
            },
            TraceEvent::DpSelect {
                at: 0,
                kernel: DpKernel::Basic,
                candidates: 2,
                chosen: vec![1],
                cache_hit: false,
            },
            TraceEvent::Start {
                job: 1,
                at: 0,
                num: 2,
            },
            TraceEvent::Ecc {
                job: 1,
                at: 5,
                kind: EccTag::ExtendProcs,
                amount: 2,
                num: 4,
                queued: false,
            },
            TraceEvent::Cycle {
                at: 5,
                events: 1,
                queue_depth: 0,
                free: 0,
                nanos: 0,
            },
            TraceEvent::Finish {
                job: 1,
                at: 10,
                num: 4,
                wait: 0,
                runtime: 10,
            },
        ]
    }

    #[test]
    fn jsonl_round_trips() {
        let evs = tiny_trace();
        let text = to_jsonl(&evs);
        assert_eq!(text.lines().count(), evs.len());
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back, evs);
    }

    #[test]
    fn jsonl_is_externally_tagged() {
        let text = to_jsonl(&[TraceEvent::Queued { job: 3, at: 7 }]);
        assert_eq!(text, "{\"Queued\":{\"job\":3,\"at\":7}}\n");
    }

    #[test]
    fn from_jsonl_rejects_garbage() {
        assert!(from_jsonl("not json\n").is_err());
        assert_eq!(from_jsonl("\n  \n").unwrap(), vec![]);
    }

    #[test]
    fn from_jsonl_ignores_unknown_fields_in_known_variants() {
        // A trace written by a future version with an extra field must
        // still load (forward compatibility).
        let text = "{\"Start\":{\"job\":3,\"at\":7,\"num\":64,\"future_field\":true}}\n";
        let back = from_jsonl(text).unwrap();
        assert_eq!(
            back,
            vec![TraceEvent::Start {
                job: 3,
                at: 7,
                num: 64
            }]
        );
    }

    #[test]
    fn from_jsonl_rejects_unknown_variants() {
        // An unknown *event kind* is a hard error, not a silent drop: a
        // reader that doesn't understand a record must not pretend the
        // trace is complete.
        assert!(from_jsonl("{\"TotallyNewEvent\":{\"job\":1}}\n").is_err());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_tracks() {
        let text = to_chrome_trace(&tiny_trace());
        // Valid JSON: the document parses back into a value tree.
        let doc: std::collections::HashMap<String, Vec<ChromeEvent>> =
            serde_json::from_str(&text).unwrap();
        let evs = &doc["traceEvents"];

        // Metadata names both processes and each of the 2 groups.
        let meta: Vec<&ChromeEvent> = evs.iter().filter(|e| e.ph == "M").collect();
        assert_eq!(meta.len(), 5, "2 process names + 2 groups + decisions");

        // The ECC split yields two slices: 1 group before, 2 after.
        let slices: Vec<&ChromeEvent> = evs.iter().filter(|e| e.ph == "X").collect();
        assert_eq!(slices.len(), 3);
        assert!(slices.iter().all(|e| e.pid == 1 && e.name == "job 1"));
        assert_eq!(
            slices.iter().map(|e| e.dur).sum::<u64>(),
            5_000_000 + 2 * 5_000_000,
            "5 s on one group, then 5 s on two"
        );

        // Decisions land on the scheduler track.
        let instants: Vec<&ChromeEvent> = evs.iter().filter(|e| e.ph == "i").collect();
        assert_eq!(instants.len(), 2);
        assert!(instants.iter().all(|e| e.pid == 2));
        // Counters exist for the cycle sample.
        assert_eq!(evs.iter().filter(|e| e.ph == "C").count(), 2);
    }

    #[test]
    fn chrome_trace_closes_unfinished_jobs() {
        let evs = vec![
            TraceEvent::RunMeta {
                total: 2,
                unit: 2,
                scheduler: "EASY".into(),
            },
            TraceEvent::Start {
                job: 9,
                at: 1,
                num: 2,
            },
            TraceEvent::Cycle {
                at: 8,
                events: 1,
                queue_depth: 0,
                free: 0,
                nanos: 0,
            },
        ];
        let text = to_chrome_trace(&evs);
        let doc: std::collections::HashMap<String, Vec<ChromeEvent>> =
            serde_json::from_str(&text).unwrap();
        let slice = doc["traceEvents"].iter().find(|e| e.ph == "X").unwrap();
        assert_eq!(slice.ts, 1_000_000);
        assert_eq!(slice.dur, 7_000_000, "closed at the trace's last timestamp");
    }

    /// The slice of a Chrome event the tests inspect (unknown fields
    /// such as `args`/`s` are ignored by the vendored deserializer;
    /// `ts`/`dur` default to 0 on metadata and instant events).
    #[derive(serde::Deserialize)]
    struct ChromeEvent {
        name: String,
        ph: String,
        #[serde(default)]
        ts: u64,
        #[serde(default)]
        dur: u64,
        pid: u64,
    }
}
