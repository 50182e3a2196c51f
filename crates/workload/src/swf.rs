//! The Standard Workload Format (SWF), ref [21] of the paper.
//!
//! SWF represents a workload as a text file: comment/header lines start
//! with `;`, and each job is one line of 18 whitespace-separated integer
//! fields. Missing values are `-1`. This module parses and writes SWF and
//! converts records to simulator [`JobSpec`]s. The Cloud Workload Format
//! (CWF) in [`crate::cwf`] extends these records with fields 19–21.
//!
//! Every SWF/CWF reader, materialized or streamed, goes through the one
//! line tokenizer here: a pass over each line's bytes in a reused buffer,
//! with no allocation per line. Separators are ASCII whitespace, integers
//! follow `i64::from_str`'s grammar, and a `\r` before the `\n` is trimmed.
//! Data lines must be ASCII; comment lines must be UTF-8.

use elastisched_sim::JobSpec;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::BufRead;

/// One SWF job record: the 18 standard fields.
///
/// Field numbering follows the SWF definition; values of `-1` mean
/// "unknown/unused" as in the standard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwfRecord {
    /// 1: Job number (a counter, starting from 1).
    pub job_id: u64,
    /// 2: Submit time, seconds from the log start.
    pub submit: i64,
    /// 3: Wait time in seconds (output field for logs; -1 when unknown).
    pub wait: i64,
    /// 4: Actual run time in seconds.
    pub run_time: i64,
    /// 5: Number of allocated processors.
    pub allocated_procs: i64,
    /// 6: Average CPU time used.
    pub avg_cpu_time: i64,
    /// 7: Used memory (KB).
    pub used_memory: i64,
    /// 8: Requested number of processors.
    pub requested_procs: i64,
    /// 9: Requested time (user runtime estimate), seconds.
    pub requested_time: i64,
    /// 10: Requested memory (KB).
    pub requested_memory: i64,
    /// 11: Status (1 = completed OK).
    pub status: i64,
    /// 12: User ID.
    pub user: i64,
    /// 13: Group ID.
    pub group: i64,
    /// 14: Executable (application) number.
    pub executable: i64,
    /// 15: Queue number.
    pub queue: i64,
    /// 16: Partition number.
    pub partition: i64,
    /// 17: Preceding job number.
    pub preceding_job: i64,
    /// 18: Think time from preceding job, seconds.
    pub think_time: i64,
}

impl SwfRecord {
    /// A minimal record for a synthetic batch job: only the fields the
    /// simulator consumes are populated; the rest are `-1`.
    pub fn synthetic(job_id: u64, submit: u64, procs: u32, runtime: u64, estimate: u64) -> Self {
        SwfRecord {
            job_id,
            submit: submit as i64,
            wait: -1,
            run_time: runtime as i64,
            allocated_procs: procs as i64,
            avg_cpu_time: -1,
            used_memory: -1,
            requested_procs: procs as i64,
            requested_time: estimate as i64,
            requested_memory: -1,
            status: 1,
            user: -1,
            group: -1,
            executable: -1,
            queue: -1,
            partition: -1,
            preceding_job: -1,
            think_time: -1,
        }
    }

    /// Effective processor request: field 8, falling back to field 5.
    pub fn procs(&self) -> Option<u32> {
        let p = if self.requested_procs > 0 {
            self.requested_procs
        } else {
            self.allocated_procs
        };
        u32::try_from(p).ok().filter(|&v| v > 0)
    }

    /// Effective user estimate: field 9, falling back to field 4.
    pub fn estimate(&self) -> Option<u64> {
        let t = if self.requested_time >= 0 {
            self.requested_time
        } else {
            self.run_time
        };
        u64::try_from(t).ok()
    }

    /// Effective actual runtime: field 4, falling back to field 9.
    pub fn actual(&self) -> Option<u64> {
        let t = if self.run_time >= 0 {
            self.run_time
        } else {
            self.requested_time
        };
        u64::try_from(t).ok()
    }

    /// Convert to a batch [`JobSpec`]; `None` if mandatory fields are
    /// missing (such records are skipped, as simulators conventionally do
    /// with incomplete SWF lines).
    pub fn to_job_spec(&self) -> Option<JobSpec> {
        let submit = u64::try_from(self.submit).ok()?;
        let num = self.procs()?;
        let dur = self.estimate()?;
        let actual = self.actual()?;
        let mut spec = JobSpec::batch(self.job_id, submit, num, dur);
        spec.actual = elastisched_sim::Duration::from_secs(actual);
        Some(spec)
    }

    /// Append the 18 fields, space-separated.
    pub(crate) fn write_fields(&self, s: &mut String) {
        let f = [
            self.job_id as i64,
            self.submit,
            self.wait,
            self.run_time,
            self.allocated_procs,
            self.avg_cpu_time,
            self.used_memory,
            self.requested_procs,
            self.requested_time,
            self.requested_memory,
            self.status,
            self.user,
            self.group,
            self.executable,
            self.queue,
            self.partition,
            self.preceding_job,
            self.think_time,
        ];
        for v in f {
            push_int(s, v);
            s.push(' ');
        }
        s.pop();
    }
}

/// Append `v` in decimal.
pub(crate) fn push_int(s: &mut String, v: i64) {
    if v < 0 {
        s.push('-');
    }
    let (mut buf, mut i, mut n) = ([0u8; 20], 20, v.unsigned_abs());
    while i == 20 || n > 0 {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    s.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

/// `spec` with a grow-only proc-range up to `ceiling`, where that is
/// above its request.
pub(crate) fn grow_to(mut spec: JobSpec, ceiling: Option<u32>) -> JobSpec {
    if let Some(cap) = ceiling.filter(|&cap| cap > spec.num) {
        spec.max_procs = cap;
    }
    spec
}

/// Errors produced when parsing SWF/CWF text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl ParseError {
    fn new(line: usize, message: impl Into<String>) -> ParseError {
        let message = message.into();
        ParseError { line, message }
    }
}

/// Structured metadata parsed from the standard SWF header comments
/// (`; Key: Value` lines). Unknown keys are preserved verbatim in
/// [`SwfFile::comments`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SwfHeader {
    /// `Computer`: the machine the log came from.
    pub computer: Option<String>,
    /// `MaxNodes`: node count.
    pub max_nodes: Option<u32>,
    /// `MaxProcs`: processor count.
    pub max_procs: Option<u32>,
    /// `UnixStartTime`: epoch of the log start.
    pub unix_start_time: Option<i64>,
    /// `Version`: SWF version.
    pub version: Option<String>,
    /// `Note` lines, in order.
    pub notes: Vec<String>,
}

impl SwfHeader {
    /// Extract known keys from comment lines (`Key: Value` form).
    pub fn from_comments(comments: &[String]) -> SwfHeader {
        let mut h = SwfHeader::default();
        for c in comments {
            h.scan(c);
        }
        h
    }

    /// Take in one comment line (`Key: Value` form).
    pub(crate) fn scan(&mut self, comment: &str) {
        let Some((key, value)) = comment.split_once(':') else {
            return;
        };
        let value = value.trim();
        match key.trim() {
            "Computer" => self.computer = Some(value.to_string()),
            "MaxNodes" => self.max_nodes = value.parse().ok(),
            "MaxProcs" => self.max_procs = value.parse().ok(),
            "UnixStartTime" => self.unix_start_time = value.parse().ok(),
            "Version" => self.version = Some(value.to_string()),
            "Note" => self.notes.push(value.to_string()),
            _ => {}
        }
    }

    /// The machine size this log implies: `MaxProcs`, falling back to
    /// `MaxNodes`.
    pub fn machine_procs(&self) -> Option<u32> {
        self.max_procs.or(self.max_nodes)
    }
}

/// A parsed SWF file: header comments plus job records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SwfFile {
    /// Header/comment lines (without the leading `;`).
    pub comments: Vec<String>,
    /// Job records in file order.
    pub records: Vec<SwfRecord>,
}

/// Most tokens a valid data line carries: CWF with a proc-range.
const MAX_FIELDS: usize = 23;

/// A field separator: the ASCII members of Unicode `White_Space`, so an
/// ASCII line splits and trims exactly as `str::split_whitespace` and
/// `str::trim` would.
fn is_space(b: &u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// The whitespace-separated tokens of a line.
fn tokens(line: &[u8]) -> impl Iterator<Item = &[u8]> {
    line.split(is_space).filter(|t| !t.is_empty())
}

/// Parse an integer with exactly `i64::from_str`'s grammar: an optional
/// `+` or `-`, then one or more ASCII digits; overflow is an error.
fn parse_int(tok: &[u8]) -> Option<i64> {
    // SWF's "unknown" sentinel: most of the tokens on a typical line.
    if tok == b"-1" {
        return Some(-1);
    }
    let (neg, digits) = match tok {
        [b'-', rest @ ..] => (true, rest),
        [b'+', rest @ ..] => (false, rest),
        _ => (false, tok),
    };
    if digits.is_empty() {
        return None;
    }
    let mut v: u64 = 0;
    for &b in digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        // 18 digits cannot overflow a u64, so only longer tokens check.
        v = if digits.len() <= 18 {
            v * 10 + u64::from(d)
        } else {
            v.checked_mul(10)?.checked_add(u64::from(d))?
        };
    }
    if neg {
        0i64.checked_sub_unsigned(v)
    } else {
        i64::try_from(v).ok()
    }
}

/// A data line split on whitespace: its first [`MAX_FIELDS`] tokens and
/// how many it has in all.
pub(crate) struct Fields<'a> {
    line: &'a [u8],
    /// The leading tokens; `toks[i]` is meaningful for `i < len`.
    pub(crate) toks: [&'a [u8]; MAX_FIELDS],
    /// How many tokens the line has, those past `MAX_FIELDS` included.
    pub(crate) len: usize,
    lineno: usize,
}

impl<'a> Fields<'a> {
    pub(crate) fn split(line: &'a [u8], lineno: usize) -> Self {
        let mut toks = [&line[..0]; MAX_FIELDS];
        let mut len = 0;
        for tok in tokens(line) {
            if let Some(slot) = toks.get_mut(len) {
                *slot = tok;
            }
            len += 1;
        }
        Fields {
            line,
            toks,
            len,
            lineno,
        }
    }

    /// An error on this line.
    pub(crate) fn error(&self, message: String) -> ParseError {
        ParseError::new(self.lineno, message)
    }

    /// `tok` as an integer; an error calls it an invalid `what`.
    pub(crate) fn int(&self, tok: &[u8], what: &str) -> Result<i64, ParseError> {
        parse_int(tok).ok_or_else(|| self.invalid(tok, what))
    }

    /// Cold, so that formatting the error stays out of every field's path.
    #[cold]
    fn invalid(&self, tok: &[u8], what: &str) -> ParseError {
        self.error(format!("invalid {what} {:?}", String::from_utf8_lossy(tok)))
    }

    /// The first `N` tokens as integers, and the first 18 of them as an
    /// SWF record. Every integer is checked before the job id.
    pub(crate) fn head<const N: usize>(&self) -> Result<(SwfRecord, [i64; N]), ParseError> {
        let mut f = [0; N];
        for (v, tok) in f.iter_mut().zip(&self.toks) {
            *v = self.int(tok, "integer field")?;
        }
        let job_id = u64::try_from(f[0])
            .map_err(|_| self.error(format!("job id must be non-negative, found {}", f[0])))?;
        let swf = SwfRecord {
            job_id,
            submit: f[1],
            wait: f[2],
            run_time: f[3],
            allocated_procs: f[4],
            avg_cpu_time: f[5],
            used_memory: f[6],
            requested_procs: f[7],
            requested_time: f[8],
            requested_memory: f[9],
            status: f[10],
            user: f[11],
            group: f[12],
            executable: f[13],
            queue: f[14],
            partition: f[15],
            preceding_job: f[16],
            think_time: f[17],
        };
        Ok((swf, f))
    }

    /// This line as an SWF record: exactly 18 integers. A bad integer
    /// anywhere on the line is reported before a wrong field count.
    pub(crate) fn swf_record(&self) -> Result<SwfRecord, ParseError> {
        if self.len != 18 {
            tokens(self.line).try_for_each(|tok| self.int(tok, "integer field").map(drop))?;
            let message = format!("expected exactly 18 SWF fields, found {}", self.len);
            return Err(self.error(message));
        }
        Ok(self.head::<18>()?.0)
    }
}

/// A non-blank line of SWF/CWF text.
pub(crate) enum Line<'a> {
    /// A `;` line: the text after the `;`, trimmed.
    Comment(&'a str),
    /// Any other line, and its number.
    Data(&'a [u8], usize),
}

/// Reads SWF/CWF text one line at a time into one reused buffer.
///
/// Data lines are handled as bytes and must be ASCII: a non-ASCII byte
/// can be part of no integer and no request code, so it fails the line.
/// Comment lines must be valid UTF-8. Lines end at `\n`; a `\r` before it
/// is trimmed with the other whitespace.
pub(crate) struct Lines<R> {
    reader: R,
    buf: Vec<u8>,
    lineno: usize,
    /// The error that ended a [`pull`](Lines::pull) stream.
    pub(crate) err: Option<ParseError>,
}

impl<R: BufRead> Lines<R> {
    pub(crate) fn new(reader: R) -> Self {
        Lines {
            reader,
            buf: Vec::new(),
            lineno: 0,
            err: None,
        }
    }

    /// The next non-blank line; `None` at the end of the input.
    pub(crate) fn next_line(&mut self) -> Result<Option<Line<'_>>, ParseError> {
        let (start, end) = loop {
            self.buf.clear();
            match self.reader.read_until(b'\n', &mut self.buf) {
                Ok(0) => return Ok(None),
                Ok(_) => self.lineno += 1,
                Err(e) => return Err(ParseError::new(self.lineno + 1, format!("read error: {e}"))),
            }
            if let Some(start) = self.buf.iter().position(|b| !is_space(b)) {
                let end = self.buf.iter().rposition(|b| !is_space(b)).unwrap_or(start);
                break (start, end + 1);
            }
        };
        let (line, lineno) = (&self.buf[start..end], self.lineno);
        Ok(Some(match line.strip_prefix(b";") {
            Some(comment) => Line::Comment(
                std::str::from_utf8(comment)
                    .map_err(|_| ParseError::new(lineno, "comment is not valid UTF-8"))?
                    .trim(),
            ),
            None => Line::Data(line, lineno),
        }))
    }

    /// The next item `item` makes of a line, for a streaming source. Lines
    /// it maps to `None` are skipped; the first error ends the stream and
    /// stays in [`err`](Lines::err).
    pub(crate) fn pull<T>(
        &mut self,
        mut item: impl FnMut(Line<'_>) -> Result<Option<T>, ParseError>,
    ) -> Option<T> {
        while self.err.is_none() {
            match self
                .next_line()
                .and_then(|line| line.map(&mut item).transpose())
            {
                Ok(Some(Some(t))) => return Some(t),
                Ok(Some(None)) => {}
                Ok(None) => return None,
                Err(e) => self.err = Some(e),
            }
        }
        None
    }
}

/// Parse SWF/CWF text into its comments and its records, each data line
/// through `record`.
pub(crate) fn parse_text<T>(
    input: &str,
    record: impl Fn(&Fields<'_>) -> Result<T, ParseError>,
) -> Result<(Vec<String>, Vec<T>), ParseError> {
    let (mut comments, mut records) = (Vec::new(), Vec::new());
    let mut lines = Lines::new(input.as_bytes());
    while let Some(line) = lines.next_line()? {
        match line {
            Line::Comment(c) => comments.push(c.to_string()),
            Line::Data(line, n) => records.push(record(&Fields::split(line, n))?),
        }
    }
    Ok((comments, records))
}

/// Render comments as `; ` lines, then one line per record through `write`.
pub(crate) fn write_text<T>(
    comments: &[String],
    records: &[T],
    write: impl Fn(&T, &mut String),
) -> String {
    let mut s = String::new();
    for c in comments {
        s.push_str("; ");
        s.push_str(c);
        s.push('\n');
    }
    for r in records {
        write(r, &mut s);
        s.push('\n');
    }
    s
}

impl SwfFile {
    /// Parse SWF text.
    pub fn parse(input: &str) -> Result<SwfFile, ParseError> {
        let (comments, records) = parse_text(input, |f| f.swf_record())?;
        Ok(SwfFile { comments, records })
    }

    /// Serialize to SWF text.
    pub fn to_text(&self) -> String {
        write_text(&self.comments, &self.records, SwfRecord::write_fields)
    }

    /// Structured header metadata.
    pub fn header(&self) -> SwfHeader {
        SwfHeader::from_comments(&self.comments)
    }

    /// Convert every parsable record to a batch [`JobSpec`].
    pub fn to_job_specs(&self) -> Vec<JobSpec> {
        self.records
            .iter()
            .filter_map(|r| r.to_job_spec())
            .collect()
    }

    /// Like [`to_job_specs`](Self::to_job_specs), but mark every job as
    /// malleable with a *grow-only* proc-range `[num, MaxProcs]`, where
    /// the ceiling comes from the log's `; MaxProcs:` header (falling
    /// back to `MaxNodes`). SWF carries no per-job range, so this is the
    /// standard moldable-replay assumption from the malleable-scheduling
    /// literature: a job can use more processors than it asked for, never
    /// fewer. Jobs already at the ceiling stay rigid. Without a usable
    /// header this is exactly `to_job_specs`.
    pub fn to_job_specs_malleable(&self) -> Vec<JobSpec> {
        let ceiling = self.header().machine_procs();
        self.records
            .iter()
            .filter_map(|r| Some(grow_to(r.to_job_spec()?, ceiling)))
            .collect()
    }

    /// Scale every submit time by `factor` (the paper's §III load-variation
    /// technique: "multiplying the arrival time of each job by a constant
    /// factor"). `factor > 1` stretches the trace (lower load).
    pub fn scale_arrivals(&mut self, factor: f64) {
        assert!(factor > 0.0, "scale factor must be positive");
        for r in &mut self.records {
            if r.submit >= 0 {
                r.submit = (r.submit as f64 * factor).round() as i64;
            }
        }
    }

    /// Offered load of this trace on an `m`-processor machine:
    /// `Σ (num · runtime) / (duration · m)` with duration measured from
    /// first to last arrival (paper §II, Fig. 1 caption).
    pub fn offered_load(&self, machine_procs: u32) -> f64 {
        crate::load::offered_load(
            self.records.iter().filter_map(|r| {
                Some((
                    r.procs()? as f64,
                    r.actual()? as f64,
                    u64::try_from(r.submit).ok()?,
                ))
            }),
            machine_procs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisched_sim::Duration;

    const SAMPLE: &str = "\
; Version: 2
; Computer: Synthetic BlueGene/P
1 0 -1 120 64 -1 -1 64 150 -1 1 -1 -1 -1 -1 -1 -1 -1
2 30 -1 600 -1 -1 -1 96 600 -1 1 -1 -1 -1 -1 -1 -1 -1
";

    #[test]
    fn header_extracts_known_keys() {
        let text = "\
; Version: 2.2
; Computer: IBM SP2
; MaxProcs: 128
; MaxNodes: 128
; UnixStartTime: 820454400
; Note: scrubbed
; Note: converted twice
; SomethingElse: kept as comment
1 0 -1 60 1 -1 -1 1 60 -1 1 -1 -1 -1 -1 -1 -1 -1
";
        let f = SwfFile::parse(text).unwrap();
        let h = f.header();
        assert_eq!(h.version.as_deref(), Some("2.2"));
        assert_eq!(h.computer.as_deref(), Some("IBM SP2"));
        assert_eq!(h.max_procs, Some(128));
        assert_eq!(h.machine_procs(), Some(128));
        assert_eq!(h.unix_start_time, Some(820454400));
        assert_eq!(h.notes.len(), 2);
        assert_eq!(f.comments.len(), 8, "unknown keys preserved");
    }

    #[test]
    fn header_falls_back_to_max_nodes() {
        let h = SwfHeader::from_comments(&["MaxNodes: 320".to_string()]);
        assert_eq!(h.machine_procs(), Some(320));
        let empty = SwfHeader::from_comments(&[]);
        assert_eq!(empty.machine_procs(), None);
    }

    #[test]
    fn parses_comments_and_records() {
        let f = SwfFile::parse(SAMPLE).unwrap();
        assert_eq!(f.comments.len(), 2);
        assert_eq!(f.records.len(), 2);
        assert_eq!(f.records[0].job_id, 1);
        assert_eq!(f.records[1].requested_procs, 96);
    }

    #[test]
    fn roundtrip_preserves_records() {
        let f = SwfFile::parse(SAMPLE).unwrap();
        let text = f.to_text();
        let g = SwfFile::parse(&text).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn to_job_specs_uses_requested_fields() {
        let f = SwfFile::parse(SAMPLE).unwrap();
        let jobs = f.to_job_specs();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].num, 64);
        assert_eq!(jobs[0].dur, Duration::from_secs(150));
        assert_eq!(jobs[0].actual, Duration::from_secs(120));
        // Record 2 has no requested procs? It does (96); allocated is -1.
        assert_eq!(jobs[1].num, 96);
    }

    #[test]
    fn fallbacks_for_missing_fields() {
        let r = SwfRecord {
            requested_procs: -1,
            allocated_procs: 128,
            requested_time: -1,
            run_time: 77,
            ..SwfRecord::synthetic(1, 0, 1, 1, 1)
        };
        assert_eq!(r.procs(), Some(128));
        assert_eq!(r.estimate(), Some(77));
    }

    #[test]
    fn unusable_record_is_skipped() {
        let mut r = SwfRecord::synthetic(1, 0, 64, 100, 100);
        r.requested_procs = -1;
        r.allocated_procs = -1;
        assert!(r.to_job_spec().is_none());
    }

    #[test]
    fn wrong_field_count_is_error() {
        let err = SwfFile::parse("1 2 3\n").unwrap_err();
        assert!(err.message.contains("18"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn non_integer_field_is_error() {
        let err = SwfFile::parse("a b c d e f g h i j k l m n o p q r\n").unwrap_err();
        assert!(err.message.contains("invalid integer"));
    }

    #[test]
    fn scale_arrivals_stretches_trace() {
        let mut f = SwfFile::parse(SAMPLE).unwrap();
        let load_before = f.offered_load(320);
        f.scale_arrivals(2.0);
        assert_eq!(f.records[1].submit, 60);
        let load_after = f.offered_load(320);
        assert!(load_after < load_before);
    }

    #[test]
    fn synthetic_record_roundtrips_to_spec() {
        let r = SwfRecord::synthetic(9, 500, 160, 3600, 4000);
        let j = r.to_job_spec().unwrap();
        assert_eq!(j.id.0, 9);
        assert_eq!(j.num, 160);
        assert_eq!(j.dur, Duration::from_secs(4000));
        assert_eq!(j.actual, Duration::from_secs(3600));
        assert_eq!(j.submit.as_secs(), 500);
    }
}
