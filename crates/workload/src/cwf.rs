//! The Cloud Workload Format (CWF), the paper's §IV-C contribution.
//!
//! CWF extends SWF with three fields (Fig. 4 of the paper):
//!
//! * **19 — Requested Start Time**: for dedicated/interactive jobs; `-1`
//!   for batch jobs.
//! * **20 — Request Type**: `S` for a submission, `ET`/`EP` for time /
//!   processor extensions, `RT`/`RP` for reductions, applied to a
//!   previously submitted job with the same ID.
//! * **21 — Extension/Reduction Amount**: seconds for `ET`/`RT`,
//!   processors for `EP`/`RP`; `-1` for submissions.
//!
//! Two further optional columns carry the proc-range of a *malleable*
//! job (one the scheduler may grow or shrink at runtime):
//!
//! * **22 — Minimum Processors**: the job cannot run on fewer; `-1`
//!   leaves the minimum at the request (field 8).
//! * **23 — Maximum Processors**: the job cannot use more; `-1` leaves
//!   the maximum at the request. A row with neither field (or both
//!   `-1`) is a rigid job.
//!
//! For ECC rows (`ET`/`EP`/`RT`/`RP`), field 2 (submit time) carries the
//! command's issue time and the remaining SWF fields are `-1`.
//! Plain 18-field SWF lines are accepted and treated as batch `S` rows,
//! so every SWF file is a valid CWF file; 21-field rows (no proc-range
//! columns) parse as rigid. Lines are read by the byte tokenizer in
//! [`crate::swf`]; field 20 must be one of the exact codes above.

use crate::set::Workload;
use crate::swf::{parse_text, push_int, write_text, Fields, ParseError, SwfRecord};
use elastisched_sim::{EccKind, EccSpec, JobClass, JobId, JobSpec, SimTime};
use serde::{Deserialize, Serialize};

/// CWF field 20.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestType {
    /// A usual job submission.
    Submit,
    /// An Elastic Control Command.
    Ecc(EccKind),
}

impl RequestType {
    /// The field-20 token.
    pub fn code(self) -> &'static str {
        match self {
            RequestType::Submit => "S",
            RequestType::Ecc(k) => k.code(),
        }
    }

    /// Parse a field-20 token.
    pub fn from_code(code: &str) -> Option<RequestType> {
        if code == "S" {
            return Some(RequestType::Submit);
        }
        EccKind::from_code(code).map(RequestType::Ecc)
    }
}

/// One CWF record: the 18 SWF fields plus fields 19–21.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CwfRecord {
    /// Fields 1–18.
    pub swf: SwfRecord,
    /// Field 19: requested start time; `-1` for batch jobs.
    pub requested_start: i64,
    /// Field 20.
    pub request_type: RequestType,
    /// Field 21: extension/reduction amount; `-1` for submissions.
    pub amount: i64,
    /// Field 22: minimum processors for a malleable job; `0` unset
    /// (file tokens of `-1` normalize to `0` at parse).
    #[serde(default)]
    pub min_procs: u32,
    /// Field 23: maximum processors for a malleable job; `0` unset.
    #[serde(default)]
    pub max_procs: u32,
}

impl CwfRecord {
    /// A batch-job submission row.
    pub fn submit_batch(job_id: u64, submit: u64, procs: u32, runtime: u64, estimate: u64) -> Self {
        CwfRecord {
            requested_start: -1,
            ..CwfRecord::submit_dedicated(job_id, submit, procs, runtime, estimate, 0)
        }
    }

    /// A dedicated-job submission row.
    pub fn submit_dedicated(
        job_id: u64,
        submit: u64,
        procs: u32,
        runtime: u64,
        estimate: u64,
        requested_start: u64,
    ) -> Self {
        CwfRecord {
            swf: SwfRecord::synthetic(job_id, submit, procs, runtime, estimate),
            requested_start: requested_start as i64,
            request_type: RequestType::Submit,
            amount: -1,
            min_procs: 0,
            max_procs: 0,
        }
    }

    /// An ECC row targeting a previously submitted job.
    pub fn ecc(job_id: u64, issue_at: u64, kind: EccKind, amount: u64) -> Self {
        let mut swf = SwfRecord::synthetic(job_id, issue_at, 0, 0, 0);
        swf.allocated_procs = -1;
        swf.requested_procs = -1;
        swf.run_time = -1;
        swf.requested_time = -1;
        swf.status = -1;
        CwfRecord {
            swf,
            request_type: RequestType::Ecc(kind),
            amount: amount as i64,
            ..CwfRecord::submit_batch(job_id, issue_at, 0, 0, 0)
        }
    }

    /// Attach a proc-range (fields 22-23) to a submission row, making
    /// the job malleable. Pass `0` to leave either bound at the request.
    pub fn with_proc_range(mut self, min_procs: u32, max_procs: u32) -> Self {
        self.min_procs = min_procs;
        self.max_procs = max_procs;
        self
    }

    /// Whether this row is a submission.
    pub fn is_submit(&self) -> bool {
        self.request_type == RequestType::Submit
    }

    /// Convert a submission row to a [`JobSpec`] (batch or dedicated).
    /// `None` for ECC rows or incomplete submissions.
    pub fn to_job_spec(&self) -> Option<JobSpec> {
        if !self.is_submit() {
            return None;
        }
        let mut spec = self.swf.to_job_spec()?;
        if self.requested_start >= 0 {
            spec.class = JobClass::Dedicated {
                requested_start: SimTime::from_secs(self.requested_start as u64),
            };
        }
        spec.min_procs = self.min_procs;
        spec.max_procs = self.max_procs;
        Some(spec)
    }

    /// Convert an ECC row to an [`EccSpec`]. `None` for submissions or
    /// rows with a missing amount.
    pub fn to_ecc_spec(&self) -> Option<EccSpec> {
        let RequestType::Ecc(kind) = self.request_type else {
            return None;
        };
        let amount = u64::try_from(self.amount).ok()?;
        let issue_at = u64::try_from(self.swf.submit).ok()?;
        Some(EccSpec {
            job: JobId(self.swf.job_id),
            issue_at: SimTime::from_secs(issue_at),
            kind,
            amount,
        })
    }

    /// Append this row's line.
    fn write_line(&self, s: &mut String) {
        self.swf.write_fields(s);
        s.push(' ');
        push_int(s, self.requested_start);
        s.push(' ');
        s.push_str(self.request_type.code());
        s.push(' ');
        push_int(s, self.amount);
        // Fields 22-23 appear only on rows that carry a proc-range, so
        // rigid workloads render byte-identically to pre-range CWF. An
        // unset bound renders as the conventional -1.
        if self.min_procs > 0 || self.max_procs > 0 {
            for bound in [self.min_procs, self.max_procs] {
                s.push(' ');
                push_int(s, if bound > 0 { i64::from(bound) } else { -1 });
            }
        }
    }

    /// Parse one CWF data line: 18 SWF fields, 21 CWF fields, or 23 CWF
    /// fields with a trailing proc-range.
    pub(crate) fn from_fields(f: &Fields<'_>) -> Result<CwfRecord, ParseError> {
        // Fields 1-19, 21, and 22-23 (if present) are integers; field 20
        // is a code.
        let (swf, requested_start) = match f.len {
            18 => (f.head::<18>()?.0, -1),
            21 | 23 => f.head::<19>().map(|(swf, ints)| (swf, ints[18]))?,
            n => {
                let message = format!("expected 18 (SWF), 21, or 23 (CWF) fields, found {n}");
                return Err(f.error(message));
            }
        };
        let (request_type, amount) = if f.len == 18 {
            (RequestType::Submit, -1)
        } else {
            let code = f.toks[19];
            let kind = RequestType::from_code(std::str::from_utf8(code).unwrap_or_default());
            let message = || format!("unknown request type {:?}", String::from_utf8_lossy(code));
            let kind = kind.ok_or_else(|| f.error(message()))?;
            (kind, f.int(f.toks[20], "amount")?)
        };
        // Negative tokens (the SWF "unknown" convention) normalize to the
        // 0 sentinel JobSpec uses for an unset bound.
        let bound = |i: usize, what| Ok(u32::try_from(f.int(f.toks[i], what)?).unwrap_or(0));
        let (min_procs, max_procs) = if f.len == 23 {
            (bound(21, "min procs")?, bound(22, "max procs")?)
        } else {
            (0, 0)
        };
        Ok(CwfRecord {
            swf,
            requested_start,
            request_type,
            amount,
            min_procs,
            max_procs,
        })
    }
}

/// A parsed CWF file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CwfFile {
    /// Header/comment lines (without the leading `;`).
    pub comments: Vec<String>,
    /// Rows in file order.
    pub records: Vec<CwfRecord>,
}

impl CwfFile {
    /// Parse CWF text. Plain 18-field SWF lines are accepted as batch
    /// submissions.
    pub fn parse(input: &str) -> Result<CwfFile, ParseError> {
        let (comments, records) = parse_text(input, CwfRecord::from_fields)?;
        Ok(CwfFile { comments, records })
    }

    /// Stable-sort the rows into streaming order: by event time (submit
    /// for submissions, issue time for ECCs), submissions before ECCs at
    /// one instant. [`CwfFile::from_workload`] lays the file out as all
    /// submissions followed by all ECCs; a file must be time-sorted
    /// before it can feed the engine through the streaming `CwfSource`
    /// (the engine rejects a time running backwards).
    pub fn sort_by_time(&mut self) {
        self.records.sort_by_key(|r| (r.swf.submit, !r.is_submit()));
    }

    /// Serialize to CWF text.
    pub fn to_text(&self) -> String {
        write_text(&self.comments, &self.records, CwfRecord::write_line)
    }

    /// Split into simulator inputs: jobs and ECCs.
    pub fn to_workload(&self) -> Workload {
        Workload {
            jobs: self
                .records
                .iter()
                .filter_map(|r| r.to_job_spec())
                .collect(),
            eccs: self
                .records
                .iter()
                .filter_map(|r| r.to_ecc_spec())
                .collect(),
        }
    }

    /// Build a CWF file from an in-memory workload, interleaving ECC rows
    /// by issue time after all submissions (record order in the file is
    /// submissions by submit time, then ECCs by issue time; the simulator
    /// orders by timestamps anyway).
    pub fn from_workload(w: &Workload) -> CwfFile {
        let mut records: Vec<CwfRecord> = Vec::with_capacity(w.jobs.len() + w.eccs.len());
        for j in &w.jobs {
            let (submit, actual, dur) = (j.submit.as_secs(), j.actual.as_secs(), j.dur.as_secs());
            let mut rec = CwfRecord::submit_batch(j.id.0, submit, j.num, actual, dur);
            if let Some(start) = j.class.requested_start() {
                rec.requested_start = start.as_secs() as i64;
            }
            records.push(rec.with_proc_range(j.min_procs, j.max_procs));
        }
        for e in &w.eccs {
            records.push(CwfRecord::ecc(
                e.job.0,
                e.issue_at.as_secs(),
                e.kind,
                e.amount,
            ));
        }
        CwfFile {
            comments: vec!["Cloud Workload Format (CWF) — SWF + fields 19-21".to_string()],
            records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisched_sim::Duration;

    const SAMPLE: &str = "\
; CWF sample
1 0 -1 120 64 -1 -1 64 150 -1 1 -1 -1 -1 -1 -1 -1 -1 -1 S -1
2 30 -1 600 96 -1 -1 96 600 -1 1 -1 -1 -1 -1 -1 -1 -1 500 S -1
1 60 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 -1 ET 300
";

    #[test]
    fn parses_batch_dedicated_and_ecc_rows() {
        let f = CwfFile::parse(SAMPLE).unwrap();
        assert_eq!(f.records.len(), 3);
        assert!(f.records[0].is_submit());
        assert_eq!(f.records[1].requested_start, 500);
        assert_eq!(
            f.records[2].request_type,
            RequestType::Ecc(EccKind::ExtendTime)
        );
    }

    #[test]
    fn to_workload_splits_jobs_and_eccs() {
        let w = CwfFile::parse(SAMPLE).unwrap().to_workload();
        assert_eq!(w.jobs.len(), 2);
        assert_eq!(w.eccs.len(), 1);
        assert!(w.jobs[1].class.is_dedicated());
        assert_eq!(
            w.jobs[1].class.requested_start(),
            Some(SimTime::from_secs(500))
        );
        let e = &w.eccs[0];
        assert_eq!(e.job, JobId(1));
        assert_eq!(e.issue_at, SimTime::from_secs(60));
        assert_eq!(e.amount, 300);
    }

    #[test]
    fn roundtrip_through_text() {
        let f = CwfFile::parse(SAMPLE).unwrap();
        let g = CwfFile::parse(&f.to_text()).unwrap();
        assert_eq!(f.records, g.records);
    }

    #[test]
    fn roundtrip_through_workload() {
        let w = CwfFile::parse(SAMPLE).unwrap().to_workload();
        let f = CwfFile::from_workload(&w);
        let w2 = f.to_workload();
        assert_eq!(w, w2);
    }

    #[test]
    fn plain_swf_lines_are_batch_submissions() {
        let text = "5 10 -1 60 32 -1 -1 32 60 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        let f = CwfFile::parse(text).unwrap();
        assert_eq!(f.records.len(), 1);
        assert!(f.records[0].is_submit());
        let w = f.to_workload();
        assert_eq!(w.jobs.len(), 1);
        assert_eq!(w.jobs[0].dur, Duration::from_secs(60));
    }

    #[test]
    fn unknown_request_type_is_error() {
        let text = "1 0 -1 1 1 -1 -1 1 1 -1 1 -1 -1 -1 -1 -1 -1 -1 -1 XX 5\n";
        let err = CwfFile::parse(text).unwrap_err();
        assert!(err.message.contains("unknown request type"));
    }

    #[test]
    fn wrong_arity_is_error() {
        let err = CwfFile::parse("1 2 3 4 5\n").unwrap_err();
        assert!(err.message.contains("18 (SWF), 21, or 23 (CWF)"));
    }

    #[test]
    fn proc_range_columns_parse_and_make_jobs_malleable() {
        let text = "\
1 0 -1 120 64 -1 -1 64 150 -1 1 -1 -1 -1 -1 -1 -1 -1 -1 S -1 32 128
2 30 -1 600 96 -1 -1 96 600 -1 1 -1 -1 -1 -1 -1 -1 -1 -1 S -1 -1 192
3 60 -1 600 96 -1 -1 96 600 -1 1 -1 -1 -1 -1 -1 -1 -1 -1 S -1 -1 -1
";
        let w = CwfFile::parse(text).unwrap().to_workload();
        assert_eq!(w.jobs.len(), 3);
        assert_eq!(w.jobs[0].proc_range(), (32, 128));
        assert!(w.jobs[0].is_malleable());
        // Grow-only range: min stays at the request.
        assert_eq!(w.jobs[1].proc_range(), (96, 192));
        // Both -1: rigid, same as a 21-field row.
        assert!(!w.jobs[2].is_malleable());
        assert_eq!(w.jobs[2].proc_range(), (96, 96));
    }

    #[test]
    fn proc_range_roundtrips_through_text_and_workload() {
        let rec = CwfRecord::submit_batch(1, 0, 64, 100, 120).with_proc_range(32, 256);
        let f = CwfFile {
            comments: vec![],
            records: vec![rec, CwfRecord::submit_batch(2, 5, 32, 50, 60)],
        };
        let text = f.to_text();
        // The rigid row renders without fields 22-23.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0].split_whitespace().count(), 23);
        assert_eq!(lines[1].split_whitespace().count(), 21);
        let g = CwfFile::parse(&text).unwrap();
        assert_eq!(f.records, g.records);
        let w = g.to_workload();
        let f2 = CwfFile::from_workload(&w);
        assert_eq!(f2.to_workload(), w);
        assert_eq!(w.jobs[0].proc_range(), (32, 256));
    }

    #[test]
    fn record_serde_defaults_range_unset() {
        let rec = CwfRecord::submit_batch(1, 0, 64, 100, 120);
        let json = serde_json::to_string(&rec).unwrap();
        let back: CwfRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
        // Pre-range JSON (fields absent) deserializes with 0 sentinels.
        let stripped = json
            .replace(",\"min_procs\":0", "")
            .replace(",\"max_procs\":0", "");
        let old: CwfRecord = serde_json::from_str(&stripped).unwrap();
        assert_eq!(old, rec);
    }

    #[test]
    fn ecc_row_constructors() {
        let r = CwfRecord::ecc(7, 99, EccKind::ReduceProcs, 64);
        assert_eq!(r.to_ecc_spec().unwrap().kind, EccKind::ReduceProcs);
        assert!(r.to_job_spec().is_none());
        let s = CwfRecord::submit_batch(1, 0, 32, 10, 10);
        assert!(s.to_ecc_spec().is_none());
    }

    #[test]
    fn all_ecc_kinds_roundtrip() {
        for kind in [
            EccKind::ExtendTime,
            EccKind::ReduceTime,
            EccKind::ExtendProcs,
            EccKind::ReduceProcs,
        ] {
            let rec = CwfRecord::ecc(1, 10, kind, 42);
            let f = CwfFile {
                comments: vec![],
                records: vec![rec],
            };
            let g = CwfFile::parse(&f.to_text()).unwrap();
            assert_eq!(g.records[0].to_ecc_spec().unwrap().kind, kind);
        }
    }
}
