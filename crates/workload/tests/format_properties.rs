//! The SWF/CWF text formats: the line tokenizer against a reference,
//! the streaming readers against the file parsers, pinned edge cases,
//! and writer byte identity.
//!
//! The reference below implements the formats' rules on `str`:
//! `str::lines`, `str::trim`, `split_whitespace` and `i64::from_str`.
//! On ASCII text the byte tokenizer must agree with it exactly: the same
//! records, or the same error message on the same line.

use elastisched_sim::{EccKind, JobSource, SourceItem};
use elastisched_test_util::Fnv;
use elastisched_workload::{
    generate, CwfFile, CwfRecord, CwfSource, GeneratorConfig, ParseError, RequestType, SwfFile,
    SwfRecord, SwfSource, Workload,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// The reference parser
// ---------------------------------------------------------------------

fn error(line: usize, message: String) -> ParseError {
    ParseError { line, message }
}

fn ref_ints(toks: &[&str], lineno: usize) -> Result<Vec<i64>, ParseError> {
    toks.iter()
        .map(|t| {
            t.parse::<i64>()
                .map_err(|_| error(lineno, format!("invalid integer field {t:?}")))
        })
        .collect()
}

fn ref_swf(f: &[i64], lineno: usize) -> Result<SwfRecord, ParseError> {
    let job_id = u64::try_from(f[0]).map_err(|_| {
        error(
            lineno,
            format!("job id must be non-negative, found {}", f[0]),
        )
    })?;
    Ok(SwfRecord {
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
    })
}

fn ref_swf_line(line: &str, lineno: usize) -> Result<SwfRecord, ParseError> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    let f = ref_ints(&toks, lineno)?;
    if f.len() != 18 {
        let message = format!("expected exactly 18 SWF fields, found {}", f.len());
        return Err(error(lineno, message));
    }
    ref_swf(&f, lineno)
}

fn ref_cwf_line(line: &str, lineno: usize) -> Result<CwfRecord, ParseError> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    let int = |t: &str, what: &str| {
        t.parse::<i64>()
            .map_err(|_| error(lineno, format!("invalid {what} {t:?}")))
    };
    match toks.len() {
        18 => Ok(CwfRecord {
            swf: ref_swf(&ref_ints(&toks, lineno)?, lineno)?,
            requested_start: -1,
            request_type: RequestType::Submit,
            amount: -1,
            min_procs: 0,
            max_procs: 0,
        }),
        21 | 23 => {
            let head = ref_ints(&toks[..19], lineno)?;
            let swf = ref_swf(&head, lineno)?;
            let request_type = RequestType::from_code(toks[19])
                .ok_or_else(|| error(lineno, format!("unknown request type {:?}", toks[19])))?;
            let amount = int(toks[20], "amount")?;
            let (min_procs, max_procs) = if toks.len() == 23 {
                (
                    u32::try_from(int(toks[21], "min procs")?).unwrap_or(0),
                    u32::try_from(int(toks[22], "max procs")?).unwrap_or(0),
                )
            } else {
                (0, 0)
            };
            Ok(CwfRecord {
                swf,
                requested_start: head[18],
                request_type,
                amount,
                min_procs,
                max_procs,
            })
        }
        n => Err(error(
            lineno,
            format!("expected 18 (SWF), 21, or 23 (CWF) fields, found {n}"),
        )),
    }
}

/// Comments and records of `text`, each data line through `record`.
fn ref_parse<T>(
    text: &str,
    record: impl Fn(&str, usize) -> Result<T, ParseError>,
) -> Result<(Vec<String>, Vec<T>), ParseError> {
    let (mut comments, mut records) = (Vec::new(), Vec::new());
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        match line.strip_prefix(';') {
            Some(c) => comments.push(c.trim().to_string()),
            None => records.push(record(line, idx + 1)?),
        }
    }
    Ok((comments, records))
}

// ---------------------------------------------------------------------
// Generated text
// ---------------------------------------------------------------------

/// One drawn token: a selector choosing its shape, and a value.
type TokenDraw = (u16, i64);

/// One drawn line: kind, arity selector, tokens, separator choices,
/// leading/trailing whitespace, CRLF.
type LineDraw = (u8, u8, Vec<TokenDraw>, Vec<u8>, (u8, u8), bool);

const SEPARATORS: [&str; 6] = [" ", "  ", "\t", " \t ", "\x0b", "\x0c"];
const CODES: [&str; 9] = ["S", "ET", "RT", "EP", "RP", "S", "S", "s", "XX"];

fn int_token((sel, v): TokenDraw) -> String {
    match sel {
        0..=899 => v.to_string(),
        900..=929 => format!("+{}", v.abs()),
        930..=949 => "-1".to_string(),
        950..=959 => i64::MIN.to_string(),
        960..=969 => i64::MAX.to_string(),
        970..=974 => format!("00{}", v.abs()),
        975..=979 => "-0".to_string(),
        980..=983 => "9223372036854775808".to_string(),
        984..=987 => "-9223372036854775809".to_string(),
        988..=989 => "99999999999999999999".to_string(),
        990..=992 => "-".to_string(),
        993..=994 => "+".to_string(),
        995 => "+-1".to_string(),
        996 => "--1".to_string(),
        997 => "1x".to_string(),
        998 => "0x10".to_string(),
        _ => "S".to_string(),
    }
}

/// Render one line; a `clean` line draws only valid tokens.
fn render_line((kind, arity, toks, seps, (lead, trail), crlf): &LineDraw, clean: bool) -> String {
    let mut s = " \t".repeat(usize::from(*lead % 3));
    let (arity, sel_cap, codes) = if clean {
        (arity % 90, 980, 7)
    } else {
        (*arity, 1000, 9)
    };
    match kind {
        0..=5 => {}
        6..=9 => s.push_str(";  Note: interleaved comment "),
        10..=11 => s.push_str("; MaxProcs: 128"),
        12 => s.push_str("; MaxNodes: 96"),
        _ => {
            let n = match arity {
                0..=29 => 18,
                30..=64 => 21,
                65..=89 => 23,
                90..=91 => 17,
                92..=93 => 19,
                94..=95 => 20,
                96..=97 => 22,
                _ => 24,
            };
            for (i, &(sel, v)) in toks.iter().take(n).enumerate() {
                if i > 0 {
                    s.push_str(SEPARATORS[usize::from(seps[i] % 6)]);
                }
                let sel = sel % sel_cap;
                if i == 19 && n >= 21 {
                    s.push_str(CODES[usize::from(sel) % codes]);
                } else if i == 0 && sel < 900 {
                    // Mostly valid job ids, so records reach the checks
                    // behind the id.
                    s.push_str(&v.abs().to_string());
                } else {
                    s.push_str(&int_token((sel, v)));
                }
            }
        }
    }
    s.push_str(&"\t ".repeat(usize::from(*trail % 3)));
    s.push_str(if *crlf { "\r\n" } else { "\n" });
    s
}

fn arb_text() -> impl Strategy<Value = String> {
    let token = (0u16..1000, -1i64..200_000);
    let line = (
        0u8..40,
        0u8..100,
        prop::collection::vec(token, 24..25),
        prop::collection::vec(0u8..6, 24..25),
        (0u8..6, 0u8..6),
        prop::bool::ANY,
    );
    let text = (
        prop::collection::vec(line, 0..14),
        prop::bool::ANY,
        prop::bool::ANY,
    );
    text.prop_map(|(lines, clean, cut_last_eol)| {
        let mut text: String = lines.iter().map(|l| render_line(l, clean)).collect();
        if cut_last_eol {
            while text.ends_with('\n') || text.ends_with('\r') {
                text.pop();
            }
        }
        text
    })
}

fn drain(src: &mut impl JobSource) -> Vec<SourceItem> {
    std::iter::from_fn(|| src.next_item()).collect()
}

/// The text before line `line`.
fn lines_before(text: &str, line: usize) -> String {
    text.split_inclusive('\n').take(line - 1).collect()
}

/// `CwfSource` over `bytes` (the text `text`) yields
/// `CwfFile::parse(text).to_workload()` in file order, and stops with the
/// parser's error where it errs.
fn check_cwf_source(text: &str, bytes: &[u8]) {
    let mut src = CwfSource::new(bytes);
    let items = drain(&mut src);
    let (w, err) = match CwfFile::parse(text) {
        Ok(f) => (f.to_workload(), None),
        Err(e) => {
            let before = CwfFile::parse(&lines_before(text, e.line)).expect("prefix parses");
            (before.to_workload(), Some(e))
        }
    };
    assert_eq!(src.error(), err.as_ref());
    let mut streamed = Workload::default();
    for item in items {
        match item {
            SourceItem::Job(j) => streamed.jobs.push(j),
            SourceItem::Ecc(e) => streamed.eccs.push(e),
        }
    }
    assert_eq!(streamed, w);
}

/// `SwfSource` over `bytes` yields `SwfFile::to_job_specs` (or its
/// malleable variant), and stops with the parser's error where it errs.
fn check_swf_source(text: &str, bytes: &[u8], malleable: bool) {
    let mut src = SwfSource::new(bytes);
    if malleable {
        src = src.with_malleable_growth();
    }
    let items = drain(&mut src);
    let specs = |f: SwfFile| -> Vec<SourceItem> {
        let jobs = if malleable {
            f.to_job_specs_malleable()
        } else {
            f.to_job_specs()
        };
        jobs.into_iter().map(SourceItem::Job).collect()
    };
    let (expected, err) = match SwfFile::parse(text) {
        Ok(f) => (specs(f), None),
        Err(e) => {
            let before = SwfFile::parse(&lines_before(text, e.line)).expect("prefix parses");
            (specs(before), Some(e))
        }
    };
    assert_eq!(src.error(), err.as_ref());
    assert_eq!(items, expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The tokenizer agrees with the reference on every generated text:
    /// the same comments and records, or the same error on the same line.
    #[test]
    fn parsers_match_the_reference(text in arb_text()) {
        let cwf = CwfFile::parse(&text).map(|f| (f.comments, f.records));
        prop_assert_eq!(cwf, ref_parse(&text, ref_cwf_line));
        let swf = SwfFile::parse(&text).map(|f| (f.comments, f.records));
        prop_assert_eq!(swf, ref_parse(&text, ref_swf_line));
    }

    /// The streaming readers yield what the file parsers materialize, and
    /// stop with the same error.
    #[test]
    fn sources_match_the_file_parsers(text in arb_text()) {
        check_cwf_source(&text, text.as_bytes());
        check_swf_source(&text, text.as_bytes(), false);
        check_swf_source(&text, text.as_bytes(), true);
    }

    /// Arbitrary bytes from the formats' alphabet, invalid UTF-8 included:
    /// no reader panics, and on valid UTF-8 the streaming readers fail
    /// where the file parsers do.
    #[test]
    fn no_input_panics(draws in prop::collection::vec(0u8..20, 0..400)) {
        const ALPHABET: &[u8] = b"0123456789-+ \t\n\r;SETP:";
        let bytes: Vec<u8> = draws
            .iter()
            .map(|&b| match b {
                0..=15 => ALPHABET[usize::from(b) * ALPHABET.len() / 16],
                16 => 0xff,
                17 => 0xc3,
                18 => b'\n',
                _ => b' ',
            })
            .collect();
        drain(&mut CwfSource::new(&bytes[..]));
        drain(&mut SwfSource::new(&bytes[..]).with_malleable_growth());
        if let Ok(text) = std::str::from_utf8(&bytes) {
            check_cwf_source(text, &bytes);
            check_swf_source(text, &bytes, true);
        }
    }
}

// ---------------------------------------------------------------------
// Pinned edge cases
// ---------------------------------------------------------------------

const SWF_LINE: &str = "1 0 -1 120 64 -1 -1 64 150 -1 1 -1 -1 -1 -1 -1 -1 -1";
const CWF_LINE: &str = "2 30 -1 600 96 -1 -1 96 600 -1 1 -1 -1 -1 -1 -1 -1 -1 -1 ET 300";

/// The error each streaming reader stops with on `bytes`.
fn stream_errors(bytes: &[u8]) -> [Option<ParseError>; 2] {
    let mut cwf = CwfSource::new(bytes);
    drain(&mut cwf);
    let mut swf = SwfSource::new(bytes).with_malleable_growth();
    drain(&mut swf);
    [cwf.error().cloned(), swf.error().cloned()]
}

#[test]
fn invalid_utf8_in_a_data_line_is_an_error_on_its_line() {
    let mut bytes = format!("{SWF_LINE}\n").into_bytes();
    bytes.extend_from_slice(b"1 0 -1 12\xff0 64 -1 -1 64 150 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
    for err in stream_errors(&bytes) {
        let err = err.expect("invalid UTF-8 is an error");
        assert_eq!(err.line, 2);
        assert!(err.message.contains("invalid integer field"), "{err}");
    }
}

#[test]
fn invalid_utf8_in_a_comment_is_an_error_on_its_line() {
    let mut bytes = b"; Computer: Caf\xe9\n".to_vec();
    bytes.extend_from_slice(format!("{SWF_LINE}\n").as_bytes());
    for err in stream_errors(&bytes) {
        let err = err.expect("invalid UTF-8 is an error");
        assert_eq!(err.line, 1);
        assert!(err.message.contains("UTF-8"), "{err}");
    }
    // Valid UTF-8 in a comment is kept, trimmed as `str::trim` trims.
    let f = SwfFile::parse(&format!("; Computer: Café \u{3000}\n{SWF_LINE}\n")).unwrap();
    assert_eq!(f.comments, ["Computer: Café"]);
}

#[test]
fn non_ascii_whitespace_between_fields_is_an_error() {
    for sep in ['\u{a0}', '\u{85}', '\u{2003}', '\u{3000}'] {
        let sep = sep.to_string();
        let every = format!("{SWF_LINE}\n{}\n", SWF_LINE.replace(' ', &sep));
        let one = format!("{}\n", SWF_LINE.replacen(' ', &sep, 1));
        for text in [every, one] {
            let line = text.lines().count();
            assert_eq!(SwfFile::parse(&text).unwrap_err().line, line, "{text:?}");
            assert_eq!(CwfFile::parse(&text).unwrap_err().line, line, "{text:?}");
            for err in stream_errors(text.as_bytes()) {
                assert_eq!(err.expect("an error, not a record").line, line);
            }
        }
        let cwf = format!("{CWF_LINE}\n{}\n", CWF_LINE.replacen(' ', &sep, 3));
        assert_eq!(CwfFile::parse(&cwf).unwrap_err().line, 2, "{cwf:?}");
        let mut src = CwfSource::from_text(&cwf);
        assert_eq!(drain(&mut src).len(), 1);
        assert_eq!(src.error().expect("an error, not a record").line, 2);
    }
}

fn excerpt_text() -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/sdsc_sp2_excerpt.swf"
    );
    std::fs::read_to_string(path).expect("vendored SWF excerpt present")
}

#[test]
fn crlf_excerpt_streams_like_the_lf_original() {
    let lf = excerpt_text();
    let crlf = lf.replace('\n', "\r\n");
    assert_ne!(lf, crlf);
    assert_eq!(SwfFile::parse(&crlf).unwrap(), SwfFile::parse(&lf).unwrap());
    for malleable in [false, true] {
        let stream = |text: &str| {
            let mut src = SwfSource::from_text(text);
            if malleable {
                src = src.with_malleable_growth();
            }
            let items = drain(&mut src);
            assert!(src.error().is_none());
            items
        };
        let items = stream(&crlf);
        assert_eq!(items.len(), 48);
        assert_eq!(items, stream(&lf));
    }
}

#[test]
fn integer_grammar_is_i64_from_str() {
    let line = |tok: &str| format!("1 {tok} -1 120 64 -1 -1 64 150 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
    for (tok, want) in [
        ("+5", Some(5)),
        ("-0", Some(0)),
        ("007", Some(7)),
        ("9223372036854775807", Some(i64::MAX)),
        ("-9223372036854775808", Some(i64::MIN)),
        ("9223372036854775808", None),
        ("-9223372036854775809", None),
        ("-", None),
        ("+", None),
        ("+-1", None),
        ("1e3", None),
        ("٣", None),
    ] {
        let got = SwfFile::parse(&line(tok)).map(|f| f.records[0].submit).ok();
        assert_eq!(got, want, "{tok:?}");
        assert_eq!(tok.parse::<i64>().ok(), want, "{tok:?}");
    }
}

#[test]
fn request_codes_match_exactly() {
    for kind in [
        EccKind::ExtendTime,
        EccKind::ReduceTime,
        EccKind::ExtendProcs,
        EccKind::ReduceProcs,
    ] {
        let text = CWF_LINE.replace(" ET ", &format!(" {} ", kind.code()));
        let f = CwfFile::parse(&text).unwrap();
        assert_eq!(f.records[0].request_type, RequestType::Ecc(kind));
    }
    for code in ["et", "E", "ETX", "S2", "Ｓ"] {
        let text = CWF_LINE.replace(" ET ", &format!(" {code} "));
        let err = CwfFile::parse(&text).unwrap_err();
        assert_eq!(err.message, format!("unknown request type {code:?}"));
    }
}

// ---------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------

/// The 64-bit FNV-1a digest of `text`, as 16 hex digits.
fn fnv1a(text: &str) -> String {
    let mut h = Fnv::default();
    h.bytes(text.as_bytes());
    h.hex()
}

/// A heterogeneous, half-malleable workload with the paper's ECCs, as a
/// CWF file: batch, dedicated and ECC rows, with and without fields
/// 22-23.
fn pinned_cwf() -> CwfFile {
    let cfg = GeneratorConfig::paper_heterogeneous(0.5, 0.3)
        .with_malleable(0.5)
        .with_paper_eccs()
        .with_jobs(2000)
        .with_seed(15);
    CwfFile::from_workload(&generate(&cfg))
}

/// The writers' output is pinned by FNV-1a digests of a seeded
/// workload's text, so a faster writer must render the same bytes.
#[test]
fn writers_render_pinned_bytes() {
    let cwf = pinned_cwf();
    let cwf_text = cwf.to_text();
    let swf = SwfFile {
        comments: vec!["MaxProcs: 320".to_string()],
        records: cwf.records.iter().map(|r| r.swf).collect(),
    };
    let swf_text = swf.to_text();
    assert_eq!(
        (cwf_text.len(), fnv1a(&cwf_text)),
        (186603, "d043f80b2107dd70".to_string()),
        "CWF writer output drifted"
    );
    assert_eq!(
        (swf_text.len(), fnv1a(&swf_text)),
        (157267, "545b751e914297ee".to_string()),
        "SWF writer output drifted"
    );
    // And the text parses back to the same rows.
    assert_eq!(CwfFile::parse(&cwf_text).unwrap(), cwf);
    assert_eq!(SwfFile::parse(&swf_text).unwrap(), swf);
}
