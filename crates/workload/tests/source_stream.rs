//! The file sources' stream contract, seen only through `next_item` and
//! `error`: where a malformed line ends the stream, what an early drop
//! leaves behind, how a reader's panic surfaces, and that streams of
//! every length around the parse batch size yield exactly what the file
//! parsers materialize.

use std::io::{BufRead, Cursor, Read};
use std::panic::{catch_unwind, AssertUnwindSafe};

use elastisched_sim::{JobSource, SourceItem};
use elastisched_workload::{
    generate, CwfFile, CwfSource, GeneratorConfig, SwfFile, SwfRecord, SwfSource,
};

/// The number of items a file source parses ahead per handoff (`BATCH`
/// in `crates/workload/src/source.rs`); the lengths below straddle it.
const B: usize = 512;

fn excerpt_text() -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/sdsc_sp2_excerpt.swf"
    );
    std::fs::read_to_string(path).expect("vendored SWF excerpt present")
}

/// A time-sorted CWF file of at least `rows` rows: jobs, dedicated jobs,
/// malleable ranges and ECCs.
fn cwf_file(rows: usize) -> CwfFile {
    let cfg = GeneratorConfig::paper_heterogeneous(0.5, 0.3)
        .with_paper_eccs()
        .with_jobs(rows)
        .with_seed(17);
    let mut file = CwfFile::from_workload(&generate(&cfg));
    file.sort_by_time();
    assert!(file.records.len() >= rows);
    file
}

fn drain(src: &mut impl JobSource) -> Vec<SourceItem> {
    std::iter::from_fn(|| src.next_item()).collect()
}

/// What `CwfFile::parse` materializes from `text`, in file order.
fn cwf_items(text: &str) -> Vec<SourceItem> {
    CwfFile::parse(text)
        .expect("the text parses")
        .records
        .iter()
        .filter_map(|r| {
            r.to_job_spec()
                .map(SourceItem::Job)
                .or_else(|| r.to_ecc_spec().map(SourceItem::Ecc))
        })
        .collect()
}

/// What `SwfFile::parse` materializes from `text`.
fn swf_items(text: &str, malleable: bool) -> Vec<SourceItem> {
    let f = SwfFile::parse(text).expect("the text parses");
    let jobs = if malleable {
        f.to_job_specs_malleable()
    } else {
        f.to_job_specs()
    };
    jobs.into_iter().map(SourceItem::Job).collect()
}

/// `text` with the fourth field of its `record`th data record (1-based)
/// made unparseable, the number of that line, and the text before it.
fn garble(text: &str, record: usize) -> (String, usize, String) {
    let mut seen = 0;
    let mut bad = None;
    let lines: Vec<String> = text
        .lines()
        .enumerate()
        .map(|(i, line)| {
            let data = !line.trim().is_empty() && !line.trim_start().starts_with(';');
            seen += usize::from(data);
            if data && seen == record && bad.is_none() {
                bad = Some(i + 1);
                let mut fields: Vec<&str> = line.split_whitespace().collect();
                fields[3] = "12x";
                fields.join(" ")
            } else {
                line.to_string()
            }
        })
        .collect();
    let bad = bad.expect("the text has that many data records");
    let before = lines[..bad - 1].iter().map(|l| format!("{l}\n")).collect();
    (lines.join("\n") + "\n", bad, before)
}

#[test]
fn swf_parse_error_ends_the_stream_at_the_21st_record() {
    let (text, bad, before) = garble(&excerpt_text(), 21);
    assert_eq!(SwfFile::parse(&text).unwrap_err().line, bad);
    for malleable in [false, true] {
        let expected = swf_items(&before, malleable);
        assert_eq!(expected.len(), 20);
        let mut src = SwfSource::from_text(&text);
        if malleable {
            src = src.with_malleable_growth();
        }
        assert_eq!(drain(&mut src), expected);
        assert_eq!(src.next_item(), None, "the stream stays ended");
        assert_eq!(src.next_item(), None, "the stream stays ended");
        let err = src.error().expect("the error is kept");
        assert_eq!(err.line, bad);
        assert!(err.message.contains("invalid integer"), "{err}");
    }
}

#[test]
fn cwf_parse_error_ends_the_stream_at_the_21st_record() {
    let (text, bad, before) = garble(&cwf_file(200).to_text(), 21);
    assert_eq!(CwfFile::parse(&text).unwrap_err().line, bad);
    let expected = cwf_items(&before);
    assert_eq!(expected.len(), 20);
    let mut src = CwfSource::from_text(&text);
    assert_eq!(drain(&mut src), expected);
    assert_eq!(src.next_item(), None, "the stream stays ended");
    assert_eq!(src.next_item(), None, "the stream stays ended");
    let err = src.error().expect("the error is kept");
    assert_eq!(err.line, bad);
    assert!(err.message.contains("invalid integer"), "{err}");
}

#[test]
fn dropping_a_source_mid_stream_returns_and_leaves_the_text_replayable() {
    let text = cwf_file(16_000).to_text();
    let expected = cwf_items(&text);
    assert!(expected.len() >= 20_000, "{} rows", expected.len());
    let mut first = CwfSource::from_text(&text);
    let head: Vec<SourceItem> = (0..10).map_while(|_| first.next_item()).collect();
    assert_eq!(head, expected[..10]);
    drop(first);
    let mut again = CwfSource::from_text(&text);
    assert_eq!(drain(&mut again), expected);
    assert!(again.error().is_none());
}

#[test]
fn streams_around_the_batch_size_match_the_file_parsers() {
    let full = cwf_file(3 * B + 7);
    for rows in [0, 1, B - 1, B, B + 1, 3 * B + 7] {
        let cwf = CwfFile {
            comments: vec!["Generated: batch-boundary case".into()],
            records: full.records[..rows].to_vec(),
        }
        .to_text();
        let mut src = CwfSource::from_text(&cwf);
        let items = drain(&mut src);
        assert!(src.error().is_none());
        assert_eq!(items.len(), rows, "every generated row converts");
        assert_eq!(items, cwf_items(&cwf), "{rows} CWF rows");
        assert_eq!(src.next_item(), None);

        let swf = SwfFile {
            comments: vec!["MaxProcs: 128".into()],
            records: (0..rows as u64)
                .map(|i| SwfRecord::synthetic(i + 1, 10 * i, 1 + (i % 100) as u32, 60, 90))
                .collect(),
        }
        .to_text();
        for malleable in [false, true] {
            let mut src = SwfSource::from_text(&swf);
            if malleable {
                src = src.with_malleable_growth();
            }
            let items = drain(&mut src);
            assert!(src.error().is_none());
            assert_eq!(items.len(), rows);
            assert_eq!(items, swf_items(&swf, malleable), "{rows} SWF rows");
            assert_eq!(src.next_item(), None);
        }
    }
}

/// A reader that serves `text` and panics once it is used up.
struct PanicsAtEnd(Cursor<Vec<u8>>);

impl Read for PanicsAtEnd {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}

impl BufRead for PanicsAtEnd {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let buf = self.0.fill_buf()?;
        assert!(!buf.is_empty(), "reader panicked at the end of its text");
        Ok(buf)
    }

    fn consume(&mut self, amt: usize) {
        self.0.consume(amt)
    }
}

#[test]
fn a_reader_panic_reaches_the_consumer() {
    let text = cwf_file(3 * B).to_text();
    let mut src = CwfSource::new(PanicsAtEnd(Cursor::new(text.into_bytes())));
    let caught = catch_unwind(AssertUnwindSafe(|| drain(&mut src)));
    let payload = caught.expect_err("a panic, not a short stream");
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .expect("a message payload");
    assert!(message.contains("reader panicked"), "{message}");
}
