//! Black-box flight-recorder dumps.
//!
//! When the engine's flight recorder is armed and the run loop panics
//! or an audit check fails, the engine freezes a [`PostmortemSnapshot`]
//! of its externally visible state and writes it together with the
//! contents of the bounded trace ring to a postmortem JSONL file:
//!
//! * **line 1** — `{"postmortem": { ...snapshot... }}`, a header the
//!   plain trace loader ([`crate::from_jsonl`]) would reject, so a
//!   postmortem file can never be mistaken for an ordinary trace;
//! * **remaining lines** — the ring's recent [`TraceEvent`]s in
//!   recording order, in exactly the archival JSONL form produced by
//!   [`crate::to_jsonl`].
//!
//! [`read_postmortem`] is the inverse and is what `escli explain
//! --postmortem` replays.

use std::io::Write as _;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::event::TraceEvent;
use crate::export::{from_jsonl, to_jsonl};

/// Engine state frozen at the moment of a panic or audit violation.
///
/// The fields are deliberately plain (strings and integers): the
/// snapshot must serialize even when the engine's own invariants are
/// broken, and must stay readable by future versions of the tooling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PostmortemSnapshot {
    /// Why the dump was taken (panic payload summary or audit check).
    pub reason: String,
    /// Virtual clock at the dump, in seconds.
    pub at_secs: u64,
    /// Name of the scheduling policy driving the run.
    pub scheduler: String,
    /// Processors allocated at the dump.
    pub machine_used: u32,
    /// Total processors in the machine.
    pub machine_total: u32,
    /// Events still pending in the engine's event queue.
    pub event_queue_len: u64,
    /// Jobs in the running set.
    pub running_jobs: u64,
    /// Jobs waiting in the scheduler's queue.
    pub waiting_jobs: u64,
    /// Jobs completed before the dump.
    pub completed_jobs: u64,
    /// Trace events lost to ring wrap-around before the dump.
    pub dropped_events: u64,
    /// Human-readable summaries of the first waiting jobs (FIFO order).
    pub queue_heads: Vec<String>,
    /// JSON-encoded tail of the telemetry sampler's ring, newest last.
    pub sampler_tail: Vec<String>,
}

/// Header wrapper for line 1 of a postmortem file.
#[derive(Serialize, Deserialize)]
struct Header {
    postmortem: PostmortemSnapshot,
}

/// Write a postmortem file: the snapshot header line followed by the
/// flight-recorder ring as trace JSONL.
pub fn write_postmortem<'a>(
    path: impl AsRef<Path>,
    snapshot: &PostmortemSnapshot,
    events: impl IntoIterator<Item = &'a TraceEvent>,
) -> std::io::Result<()> {
    let mut text = serde_json::to_string(&Header {
        postmortem: snapshot.clone(),
    })
    .unwrap_or_default();
    text.push('\n');
    text.push_str(&to_jsonl(events));
    let mut file = std::fs::File::create(path)?;
    file.write_all(text.as_bytes())?;
    file.flush()
}

/// Parse a postmortem file back into its snapshot and ring contents
/// (inverse of [`write_postmortem`]).
pub fn read_postmortem(text: &str) -> Result<(PostmortemSnapshot, Vec<TraceEvent>), String> {
    let mut lines = text.lines();
    let header = lines
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| "empty postmortem file".to_string())?;
    let header: Header = serde_json::from_str(header)
        .map_err(|e| format!("bad postmortem header: {e}: {header}"))?;
    let rest: String = lines.flat_map(|l| [l, "\n"]).collect();
    let events = from_jsonl(&rest)?;
    Ok((header.postmortem, events))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> PostmortemSnapshot {
        PostmortemSnapshot {
            reason: "audit violation [capacity]: used 96 > total 64".into(),
            at_secs: 42,
            scheduler: "LOS-D".into(),
            machine_used: 96,
            machine_total: 64,
            event_queue_len: 3,
            running_jobs: 2,
            waiting_jobs: 5,
            completed_jobs: 17,
            dropped_events: 1024,
            queue_heads: vec!["job 9 (32 procs, 600s est, submitted t=40s)".into()],
            sampler_tail: vec!["{\"at\":40}".into()],
        }
    }

    #[test]
    fn postmortem_round_trips_through_a_file() {
        let events = vec![
            TraceEvent::Submit {
                job: 9,
                at: 40,
                num: 32,
                dur: 600,
                dedicated: false,
            },
            TraceEvent::Queued { job: 9, at: 40 },
        ];
        let path = std::env::temp_dir().join(format!(
            "elastisched-postmortem-roundtrip-{}.jsonl",
            std::process::id()
        ));
        write_postmortem(&path, &snapshot(), &events).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        let (snap, evs) = read_postmortem(&text).unwrap();
        assert_eq!(snap, snapshot());
        assert_eq!(evs, events);
    }

    #[test]
    fn header_line_is_not_a_plain_trace() {
        let events = [TraceEvent::Queued { job: 1, at: 0 }];
        let path = std::env::temp_dir().join(format!(
            "elastisched-postmortem-header-{}.jsonl",
            std::process::id()
        ));
        write_postmortem(&path, &snapshot(), &events).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        // The plain trace loader must refuse the header line, so a
        // postmortem is never silently read as an ordinary trace.
        assert!(from_jsonl(&text).is_err());
    }

    #[test]
    fn read_rejects_garbage_and_empty_input() {
        assert!(read_postmortem("").is_err());
        assert!(read_postmortem("not json\n").is_err());
        // A valid header with a corrupt event line is still an error.
        let mut text = serde_json::to_string(&Header {
            postmortem: snapshot(),
        })
        .unwrap();
        text.push_str("\nnot an event\n");
        assert!(read_postmortem(&text).is_err());
    }

    #[test]
    fn events_after_header_may_be_empty() {
        let text = format!(
            "{}\n",
            serde_json::to_string(&Header {
                postmortem: snapshot()
            })
            .unwrap()
        );
        let (snap, evs) = read_postmortem(&text).unwrap();
        assert_eq!(snap.at_secs, 42);
        assert!(evs.is_empty());
    }
}
