//! The byte-level trace parser against the `String`-based parser it
//! replaced, kept here as the oracle: on every line both must accept the
//! same values or report the same `(col, message)`, and invalid UTF-8 must
//! fail as `BufRead::read_line` fails, however the reader's buffer cuts the
//! lines. `FileTrace::open` must not panic on arbitrary bytes, and replay
//! must deliver each processor the records the oracle shards to it, in
//! every consumer order.

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

fn byte_lines<R: BufRead>(reader: R, format: TraceFormat) -> Vec<LineOutcome> {
    let mut lines = Lines::new(reader);
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
    /// invalid UTF-8, whether a line lies whole in the reader's buffer or
    /// straddles its end.
    #[test]
    fn byte_parser_matches_the_oracle(lines in lines_strategy(), capacity in 1usize..24) {
        let bytes = trace_bytes(&lines);
        for format in [TraceFormat::Assignment, TraceFormat::Label] {
            let want = oracle_lines(&bytes, format);
            let text = String::from_utf8_lossy(&bytes);
            prop_assert_eq!(&byte_lines(&bytes[..], format), &want, "{:?}", text);
            let small = BufReader::with_capacity(capacity, &bytes[..]);
            prop_assert_eq!(&byte_lines(small, format), &want, "capacity {}: {:?}", capacity, text);
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

/// Whitespace that separates fields: ASCII and Unicode.
const SPACES: &[&str] = &[" ", "\t", "  ", "\x0b", "\x0c", "\u{a0}", "\u{3000}", "\u{2028}"];

/// One line of a valid trace: a record with its layout, or a line with
/// none.
#[derive(Debug, Clone)]
enum ValidLine {
    Record { op: usize, block: u64, offset: u64, style: usize, space: usize, note: bool },
    Think { cycles: u64, space: usize },
    Blank { space: usize, note: bool },
}

impl ValidLine {
    fn write(&self, format: TraceFormat, out: &mut String) {
        match *self {
            ValidLine::Record { op, block, offset, style, space, note } => {
                const LABELS: &[&str] = &["l", "L", "r", "s", "S", "w", "load", "STORE", "Write"];
                let op = match format {
                    TraceFormat::Assignment => ["0", "1"][op % 2],
                    TraceFormat::Label => LABELS[op % LABELS.len()],
                };
                let address = block * 16 + offset;
                let value = match style % 4 {
                    0 => format!("{address:#x}"),
                    1 => format!("{address:X}"),
                    2 => format!("0X{address:08x}"),
                    _ => format!("{address:x}"),
                };
                let sep = SPACES[space % SPACES.len()];
                if space % 3 == 0 {
                    out.push_str(sep);
                }
                out.push_str(&format!("{op}{sep}{value}"));
                if note {
                    out.push_str(&format!("{sep}# café {block}"));
                }
            }
            ValidLine::Think { cycles, space } => match format {
                TraceFormat::Assignment => {
                    out.push_str(&format!("2{}{cycles}", SPACES[space % SPACES.len()]));
                }
                TraceFormat::Label => out.push_str("# no think lines here"),
            },
            ValidLine::Blank { space, note } => {
                out.push_str(SPACES[space % SPACES.len()]);
                if note {
                    out.push_str("#\u{3000}comment");
                }
            }
        }
    }
}

/// Six records to each think line and each blank line; `crlf` ends the
/// line with CRLF.
fn valid_line() -> impl Strategy<Value = (ValidLine, bool)> {
    (0usize..8, 0usize..20, 0u64..12, 0u64..16, 0usize..8, 0usize..40, 0u8..5, 0u64..100, 0u8..2)
        .prop_map(|(kind, op, block, offset, style, space, note, cycles, crlf)| {
            let line = match kind {
                0 => ValidLine::Think { cycles, space },
                1 => ValidLine::Blank { space, note: note < 2 },
                _ => ValidLine::Record { op, block, offset, style, space, note: note == 0 },
            };
            (line, crlf == 1)
        })
}

/// Writes `lines` as one trace file: LF and CRLF endings, and no newline
/// after the last line when `open_end` is set.
fn valid_trace(lines: &[(ValidLine, bool)], format: TraceFormat, open_end: bool) -> Vec<u8> {
    let mut out = String::new();
    for (i, (line, crlf)) in lines.iter().enumerate() {
        line.write(format, &mut out);
        if i + 1 < lines.len() || !open_end {
            out.push_str(if *crlf { "\r\n" } else { "\n" });
        }
    }
    out.into_bytes()
}

/// The records the oracle parses from one file, as `(byte address, is_write)`.
fn oracle_records(bytes: &[u8], format: TraceFormat) -> Vec<(u64, bool)> {
    oracle_lines(bytes, format)
        .into_iter()
        .filter_map(|line| match line.expect("valid UTF-8").expect("valid line") {
            Some(ParsedLine::Record { address, is_write }) => Some((address, is_write)),
            _ => None,
        })
        .collect()
}

/// The trace records of per-processor `(byte address, is_write)` streams,
/// with each block classified by its sharers and writes.
fn oracle_replay(streams: &[Vec<(u64, bool)>]) -> Vec<Vec<TraceRecord>> {
    let mut sharers: std::collections::BTreeMap<u64, (Vec<usize>, bool)> = Default::default();
    for (p, stream) in streams.iter().enumerate() {
        for &(address, is_write) in stream {
            let entry = sharers.entry(address / 16).or_default();
            if !entry.0.contains(&p) {
                entry.0.push(p);
            }
            entry.1 |= is_write;
        }
    }
    streams
        .iter()
        .enumerate()
        .map(|(processor, stream)| {
            stream
                .iter()
                .map(|&(address, is_write)| {
                    let stream = match &sharers[&(address / 16)] {
                        (who, _) if who.len() == 1 => Stream::Private,
                        (_, true) => Stream::SharedWritable,
                        (_, false) => Stream::SharedReadOnly,
                    };
                    TraceRecord { processor, address: address / 4, is_write, stream }
                })
                .collect()
        })
        .collect()
}

/// How a consumer pulls the processors' streams.
#[derive(Debug, Clone, Copy)]
enum Order {
    /// One record from each processor in turn.
    RoundRobin,
    /// Processor `p` pulls `2p + 1` records a round, so later processors
    /// run ahead.
    Skewed,
    /// Processor 0's whole stream, then processor 1's, and so on.
    ZeroFirst,
}

/// Drains `trace` in `order`, checking after every pull that the label
/// queues hold at most `cap` records per processor.
fn replay_in(trace: &mut FileTrace, order: Order, cap: usize) -> Vec<Vec<TraceRecord>> {
    let n = trace.processors();
    let mut out = vec![Vec::new(); n];
    let mut pull = |trace: &mut FileTrace, p: usize| {
        let record = trace.next_for(p);
        if let Replay::Label(dealer) = &trace.replay {
            assert!(dealer.queued() <= cap * n, "{} queued", dealer.queued());
        }
        out[p].extend(record);
        record.is_some()
    };
    match order {
        Order::ZeroFirst => {
            for p in 0..n {
                while pull(trace, p) {}
            }
        }
        Order::RoundRobin | Order::Skewed => {
            let mut live: Vec<usize> = (0..n).collect();
            while !live.is_empty() {
                live.retain(|&p| {
                    let pulls = if matches!(order, Order::Skewed) { 2 * p + 1 } else { 1 };
                    (0..pulls).all(|_| pull(trace, p))
                });
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Replay delivers each processor exactly the records the oracle
    /// shards to it, classified by the oracle's sharer sets, for both
    /// dialects, 1–8 processors, reader buffers that cut lines anywhere,
    /// and small label queues that force processors to detach.
    #[test]
    fn replay_matches_the_oracle(
        lines in prop::collection::vec(valid_line(), 1..80),
        processors in 1usize..=8,
        open_end in 0u8..2,
        read in 1usize..28,
        queue in 1usize..6,
    ) {
        // The largest draws stand for the default sizes.
        let read = if read > 24 { READ_CAPACITY } else { read };
        let queue = if queue > 4 { QUEUE_CAP } else { queue };
        let buffers = Buffers { read, queue };
        let open_end = open_end == 1;
        // Assignment: line i goes to processor i mod n's file.
        let files: Vec<Vec<(ValidLine, bool)>> = (0..processors)
            .map(|p| lines.iter().skip(p).step_by(processors).cloned().collect())
            .collect();
        let assignment: Vec<Vec<u8>> =
            files.iter().map(|f| valid_trace(f, TraceFormat::Assignment, open_end)).collect();
        let label = valid_trace(&lines, TraceFormat::Label, open_end);
        let mut label_streams = vec![Vec::new(); processors];
        for (i, record) in oracle_records(&label, TraceFormat::Label).into_iter().enumerate() {
            label_streams[i % processors].push(record);
        }
        let cases: [(Vec<PathBuf>, _, _); 2] = [
            (
                assignment.iter().map(|bytes| temp_trace(bytes)).collect::<Vec<_>>(),
                TraceFormat::Assignment,
                oracle_replay(
                    &assignment
                        .iter()
                        .map(|bytes| oracle_records(bytes, TraceFormat::Assignment))
                        .collect::<Vec<_>>(),
                ),
            ),
            (vec![temp_trace(&label)], TraceFormat::Label, oracle_replay(&label_streams)),
        ];
        let options = IngestOptions { processors, ..IngestOptions::default() };
        for (paths, format, want) in cases {
            let opened = FileTrace::open_with(&paths, format, options, buffers);
            if want.iter().all(Vec::is_empty) {
                prop_assert!(matches!(opened, Err(IngestError::Config(_))), "{:?}", opened);
            } else {
                let mut trace = opened.unwrap();
                for order in [Order::RoundRobin, Order::Skewed, Order::ZeroFirst] {
                    let got = replay_in(&mut trace, order, queue);
                    prop_assert!(trace.replay_error().is_none(), "{:?}", trace.replay_error());
                    prop_assert_eq!(&got, &want, "{} {:?}", format, order);
                    trace.rewind().unwrap();
                }
            }
            for path in paths {
                fs::remove_file(path).unwrap();
            }
        }
    }
}
