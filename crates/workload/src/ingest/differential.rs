//! The byte-level trace parser against the `String`-based parser it
//! replaced, kept here as the oracle: on every line both must accept the
//! same values or report the same `(col, message)`, and invalid UTF-8 must
//! fail as `BufRead::read_line` fails. `FileTrace::open` must not panic on
//! arbitrary bytes.

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use super::*;

/// The previous tokenizer: byte-offset/token pairs of `line`'s
/// whitespace-separated fields, collected into a `Vec`.
fn oracle_split_tokens(line: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut start: Option<usize> = None;
    for (i, ch) in line.char_indices() {
        if ch.is_whitespace() {
            if let Some(s) = start.take() {
                out.push((s, &line[s..i]));
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        out.push((s, &line[s..]));
    }
    out
}

/// The previous line parser, verbatim but for its tokenizer's name.
fn oracle_parse_line(
    raw: &str,
    format: TraceFormat,
) -> Result<Option<ParsedLine>, (usize, String)> {
    let content = raw.split('#').next().unwrap_or("");
    let tokens = oracle_split_tokens(content);
    let Some(&(op_col, op)) = tokens.first() else {
        return Ok(None);
    };
    let value = tokens.get(1).copied();
    if let Some(&(extra_col, extra)) = tokens.get(2) {
        return Err((extra_col + 1, format!("unexpected trailing token `{extra}`")));
    }
    let address = |(col, tok): (usize, &str)| -> Result<u64, (usize, String)> {
        let digits = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")).unwrap_or(tok);
        if digits.is_empty() || !digits.chars().all(|c| c.is_ascii_hexdigit()) {
            return Err((col + 1, format!("invalid address `{tok}` (expected hexadecimal)")));
        }
        u64::from_str_radix(digits, 16)
            .map_err(|_| (col + 1, format!("address `{tok}` out of range")))
    };
    let required = |kind: &str| {
        value.ok_or((op_col + op.len() + 1, format!("missing {kind} after `{op}`")))
    };
    match format {
        TraceFormat::Assignment => match op {
            "0" | "1" => {
                let addr = address(required("address")?)?;
                Ok(Some(ParsedLine::Record { address: addr, is_write: op == "1" }))
            }
            "2" => {
                let (col, tok) = required("cycle count")?;
                let cycles = tok
                    .parse::<u64>()
                    .map_err(|_| (col + 1, format!("invalid cycle count `{tok}`")))?;
                Ok(Some(ParsedLine::Think { cycles }))
            }
            other => Err((
                op_col + 1,
                format!("unknown operation `{other}` (expected 0=load, 1=store, 2=cycles)"),
            )),
        },
        TraceFormat::Label => {
            let is_write = match op.to_ascii_lowercase().as_str() {
                "l" | "r" | "load" | "read" => false,
                "s" | "w" | "store" | "write" => true,
                other => {
                    return Err((
                        op_col + 1,
                        format!("unknown label `{other}` (expected l/r=load, s/w=store)"),
                    ))
                }
            };
            let addr = address(required("address")?)?;
            Ok(Some(ParsedLine::Record { address: addr, is_write }))
        }
    }
}

/// The previous format sniffer, over in-memory bytes.
fn oracle_detect(bytes: &[u8]) -> Result<TraceFormat, String> {
    for (idx, line) in BufReader::new(bytes).lines().enumerate() {
        let line = line.map_err(|e| format!("io: {e}"))?;
        let content = line.split('#').next().unwrap_or("");
        let Some((col, token)) = oracle_split_tokens(content).into_iter().next() else {
            continue;
        };
        return match token {
            "0" | "1" | "2" => Ok(TraceFormat::Assignment),
            t if t.chars().all(|c| c.is_ascii_alphabetic()) => Ok(TraceFormat::Label),
            t => Err(format!("{}:{}: `{t}` in {line:?}", idx + 1, col + 1)),
        };
    }
    Err("no records".into())
}

/// What reading and parsing one line gave: a parse outcome, or the I/O
/// error that stopped the file.
type LineOutcome = Result<Result<Option<ParsedLine>, (usize, String)>, String>;

fn oracle_lines(bytes: &[u8], format: TraceFormat) -> Vec<LineOutcome> {
    let mut reader = BufReader::new(bytes);
    let mut buf = String::new();
    let mut out = Vec::new();
    loop {
        buf.clear();
        match reader.read_line(&mut buf) {
            Ok(0) => return out,
            Ok(_) => out.push(Ok(oracle_parse_line(&buf, format))),
            Err(e) => {
                out.push(Err(e.to_string()));
                return out;
            }
        }
    }
}

fn byte_lines(bytes: &[u8], format: TraceFormat) -> Vec<LineOutcome> {
    let mut lines = Lines::new(bytes);
    let mut out = Vec::new();
    loop {
        match lines.next_line() {
            Ok(None) => return out,
            Ok(Some((_, text))) => out.push(Ok(parse_line(text, format))),
            Err(e) => {
                out.push(Err(e.to_string()));
                return out;
            }
        }
    }
}

/// Operation codes and labels, valid and not, ASCII and not.
const OPS: &[&[u8]] = &[
    b"0", b"1", b"2", b"3", b"l", b"L", b"s", b"S", b"r", b"w", b"W", b"LOAD", b"Load",
    b"Write", b"store", b"READ", b"x", b"loadx", "LÖAD".as_bytes(), "ß".as_bytes(),
];

/// Values: `0x`/`0X` prefixes, leading zeros, 17+ hex digits (overflow),
/// signs, empty digit strings and non-ASCII digits.
const VALUES: &[&[u8]] = &[
    b"0x1f", b"0X1F", b"1f", b"dead", b"0x", b"0X", b"0x0x1", b"zz", b"0xG", b"+1f",
    b"000000000000000000000000000001", b"ffffffffffffffff", b"0xffffffffffffffff",
    b"10000000000000000", b"fffffffffffffffffff", b"0000000000000000f0", b"25", b"+25",
    b"-1", b"+", b"++1", b"18446744073709551615", b"18446744073709551616",
    "０".as_bytes(), "é".as_bytes(),
];

/// ASCII and Unicode whitespace (VT, FF, CR, NBSP, U+3000, U+2028, NEL),
/// and one control byte that is not whitespace.
const SEPARATORS: &[&[u8]] = &[
    b" ", b"  ", b"\t", b"\x0b", b"\x0c", b"\r", "\u{a0}".as_bytes(), "\u{3000}".as_bytes(),
    "\u{2028}".as_bytes(), "\u{85}".as_bytes(), b"\x1f",
];

/// Comments, one with non-ASCII text and one with invalid UTF-8.
const COMMENTS: &[&[u8]] = &[b"#", b"# note", "# café ☕".as_bytes(), b"#\xff"];

/// Invalid UTF-8: a stray byte and truncated sequences.
const INVALID: &[&[u8]] = &[b"\xff", b"\xc3", b"\xe3\x80"];

const CATEGORIES: &[&[&[u8]]] = &[OPS, VALUES, SEPARATORS, COMMENTS, INVALID];

/// Line terminators, CRLF included; an empty one ends the file.
const ENDINGS: &[&[u8]] = &[b"\n", b"\r\n", b"\r\r\n", b""];

fn pick(list: &[&'static [u8]], i: usize) -> &'static [u8] {
    list[i % list.len()]
}

/// One generated line: `picks` lay out `[sep] op [sep value] [sep extra]
/// [sep comment]`; a free line is `(category, index)` fragments in any
/// order.
#[derive(Debug)]
struct LineSpec {
    picks: Vec<usize>,
    free: Option<Vec<(usize, usize)>>,
    ending: usize,
}

impl LineSpec {
    fn write(&self, out: &mut Vec<u8>, last: bool) {
        let p = &self.picks;
        let sep = |i: usize| pick(SEPARATORS, p[i]);
        match &self.free {
            Some(fragments) => {
                for &(category, i) in fragments {
                    out.extend_from_slice(pick(CATEGORIES[category % CATEGORIES.len()], i));
                }
            }
            None => {
                if p[0].is_multiple_of(4) {
                    out.extend_from_slice(sep(1));
                }
                out.extend_from_slice(pick(OPS, p[2]));
                if !p[3].is_multiple_of(5) {
                    out.extend_from_slice(sep(4));
                    out.extend_from_slice(pick(VALUES, p[5]));
                }
                if p[6].is_multiple_of(6) {
                    out.extend_from_slice(sep(7));
                    out.extend_from_slice(pick(CATEGORIES[p[8] % CATEGORIES.len()], p[9]));
                }
                if p[10].is_multiple_of(4) {
                    out.extend_from_slice(sep(11));
                    out.extend_from_slice(pick(COMMENTS, p[12]));
                }
            }
        }
        // Only the last line may end without a newline.
        let ending = pick(ENDINGS, self.ending);
        out.extend_from_slice(if ending.is_empty() && !last { b"\n" } else { ending });
    }
}

fn trace_bytes(lines: &[LineSpec]) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        line.write(&mut out, i + 1 == lines.len());
    }
    out
}

fn lines_strategy() -> impl Strategy<Value = Vec<LineSpec>> {
    let line = (
        prop::collection::vec(0usize..1000, 13),
        prop::collection::vec((0usize..5, 0usize..1000), 0..7),
        0usize..5,
        0usize..1000,
    )
        .prop_map(|(picks, free, kind, ending)| LineSpec {
            picks,
            free: (kind == 0).then_some(free),
            ending,
        });
    prop::collection::vec(line, 1..7)
}

fn temp_trace(bytes: &[u8]) -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let id = UNIQUE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("snoop-ingest-diff-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("t{id}.trace"));
    fs::write(&path, bytes).unwrap();
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Both dialects: the byte parser returns exactly the oracle's value
    /// or `(col, message)` on every line, and the same I/O error on
    /// invalid UTF-8.
    #[test]
    fn byte_parser_matches_the_oracle(lines in lines_strategy()) {
        let bytes = trace_bytes(&lines);
        for format in [TraceFormat::Assignment, TraceFormat::Label] {
            prop_assert_eq!(
                byte_lines(&bytes, format),
                oracle_lines(&bytes, format),
                "{:?}",
                String::from_utf8_lossy(&bytes)
            );
        }
        // A label cursor's skip test agrees with a full parse on every
        // line the prescan accepts.
        for text in String::from_utf8_lossy(&bytes).split_inclusive('\n') {
            if let Ok(parsed) = oracle_parse_line(text, TraceFormat::Label) {
                prop_assert_eq!(has_record(text.as_bytes()), parsed.is_some(), "{:?}", text);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Format sniffing agrees with the previous `lines()`-based sniffer.
    #[test]
    fn detect_matches_the_oracle(lines in lines_strategy()) {
        let bytes = trace_bytes(&lines);
        let path = temp_trace(&bytes);
        let got = TraceFormat::detect(&path).map_err(|e| match e {
            IngestError::Io { message, .. } => format!("io: {message}"),
            IngestError::Parse(e) => {
                let token = e.message.split('`').nth(1).unwrap_or_default().to_string();
                format!("{}:{}: `{token}` in {:?}", e.line, e.col, e.source)
            }
            IngestError::Config(_) => "no records".into(),
        });
        fs::remove_file(&path).unwrap();
        prop_assert_eq!(got, oracle_detect(&bytes));
    }

    /// Arbitrary bytes and fragment mixes never panic `FileTrace::open`;
    /// an opened trace drains exactly its prescan counts, with no replay
    /// error.
    #[test]
    fn file_trace_open_never_panics(
        noise in prop::collection::vec(0u8..=255, 0..160),
        lines in lines_strategy(),
        processors in 1usize..=4,
        use_noise in 0u8..2,
    ) {
        let bytes = if use_noise == 0 { noise } else { trace_bytes(&lines) };
        let path = temp_trace(&bytes);
        for format in [TraceFormat::Assignment, TraceFormat::Label] {
            let options = IngestOptions { processors, ..IngestOptions::default() };
            if let Ok(mut trace) = FileTrace::open(std::slice::from_ref(&path), format, options) {
                for p in 0..trace.processors() {
                    let mut drained = 0;
                    while trace.next_for(p).is_some() {
                        drained += 1;
                    }
                    prop_assert_eq!(drained, trace.record_counts()[p]);
                }
                prop_assert!(trace.replay_error().is_none(), "{:?}", trace.replay_error());
            }
        }
        let _ = FileTrace::open_auto(std::slice::from_ref(&path), IngestOptions::default());
        fs::remove_file(&path).unwrap();
    }
}
