//! File-backed trace ingestion: parse external address-trace formats into
//! [`TraceSource`]s.
//!
//! Two formats cover the related trace-driven simulators this repro
//! validates against:
//!
//! * **Assignment format** — one file per processor, each line an
//!   operation code and a value: `0 <address>` is a load, `1 <address>` a
//!   store, and `2 <cycles>` counts non-memory instruction cycles between
//!   references (the MESI/Dragon multiprocessor assignment traces).
//! * **Label format** — a single interleaved stream of `<label> <address>`
//!   lines where the label is `l`/`r` (load) or `s`/`w` (store), as in the
//!   lab-style `*.trace` replay harnesses. The stream is sharded
//!   round-robin across a configured number of virtual processors.
//!
//! Addresses are byte addresses in hexadecimal (an optional `0x` prefix is
//! accepted); `2`-line cycle counts are decimal. Blank lines and `#`
//! comments are ignored everywhere.
//!
//! Ingestion is two-pass and streams with bounded memory: a prescan reads
//! each file once to validate it, count records per processor, accumulate
//! think-cycle totals, and classify each *block* into the paper's three
//! substreams (referenced by one processor → private; by several, never
//! written → shared read-only; by several with a write → shared-writable).
//! Replay then reads the files again as the consumer pulls records, so
//! memory is proportional to the number of distinct blocks, never the
//! trace length.
//!
//! Every reader tokenizes a line in place, in its `BufReader`'s own buffer.
//! Only a line that straddles the end of that buffer, or ends the file
//! without a newline, is copied into a reused buffer, and parsing allocates
//! only to report an error. The block-keyed tables hash block numbers with
//! the splitmix64 finalizer instead of SipHash.
//!
//! Assignment replay reads each processor's file through its own cursor.
//! Label replay reads the one file through one shared reader, which parses
//! each record once and deals it round-robin into its processor's queue.
//! A queue holds at most 8192 records. A processor whose
//! queue would overflow detaches: it drops its queue and reads on through a
//! cursor of its own, started at its first undelivered record, which skips
//! the other processors' records without parsing them. So a consumer that
//! pulls the processors evenly reads a label file once per pass, and memory
//! stays bounded however unevenly it pulls.
//!
//! Replay stops at the first line that no longer parses, or at a stream
//! whose length differs from the prescan count. Either means the file
//! changed after it was opened, and [`FileTrace::replay_error`] reports it.

use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};

use crate::block_hash::BlockMap;
use crate::synth::Stream;
use crate::trace::{TraceRecord, TraceSource};

/// Maximum processors a file-backed source supports.
pub const MAX_PROCESSORS: usize = 64;

/// What the prescan saw of one block: the first processor that touched
/// it, whether another one did too, and whether any wrote it. Three bytes,
/// so a table entry is as small as a block → [`Stream`] entry.
#[derive(Debug, Clone, Copy)]
struct Sharing {
    /// A processor number, below [`MAX_PROCESSORS`].
    first: u8,
    shared: bool,
    written: bool,
}

impl Sharing {
    /// The block's substream: private to one processor, or shared and
    /// read-only or written.
    fn stream(self) -> Stream {
        if !self.shared {
            Stream::Private
        } else if self.written {
            Stream::SharedWritable
        } else {
            Stream::SharedReadOnly
        }
    }
}

/// On-disk trace dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Per-processor files of `<0|1|2> <value>` lines.
    Assignment,
    /// Single-stream `<label> <address>` lines.
    Label,
}

impl TraceFormat {
    /// Sniffs the format from the first record line of `path`.
    pub fn detect(path: &Path) -> Result<TraceFormat, IngestError> {
        let mut lines = Lines::open(path, READ_CAPACITY)?;
        while let Some((line_no, text)) =
            lines.next_line().map_err(|e| IngestError::io(path, &e))?
        {
            let Some((col, token)) = Tokens::new(text).next() else {
                continue;
            };
            return match token {
                "0" | "1" | "2" => Ok(TraceFormat::Assignment),
                t if t.bytes().all(|b| b.is_ascii_alphabetic()) => Ok(TraceFormat::Label),
                t => Err(IngestError::Parse(TraceParseError {
                    path: path.display().to_string(),
                    line: line_no,
                    col: col + 1,
                    // As `BufRead::lines` yields it: without `\n` or `\r\n`.
                    source: text
                        .strip_suffix('\n')
                        .map_or(text, |t| t.strip_suffix('\r').unwrap_or(t))
                        .to_string(),
                    message: format!(
                        "cannot detect trace format from `{t}` (expected 0/1/2 or l/s/r/w)"
                    ),
                })),
            };
        }
        Err(IngestError::Config(format!(
            "{}: trace file has no records to detect a format from",
            path.display()
        )))
    }
}

impl std::str::FromStr for TraceFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "assignment" | "mesi" | "dragon" => Ok(TraceFormat::Assignment),
            "label" | "lab" => Ok(TraceFormat::Label),
            other => Err(format!(
                "unknown trace format `{other}` (expected assignment, label, or auto)"
            )),
        }
    }
}

impl fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFormat::Assignment => write!(f, "assignment"),
            TraceFormat::Label => write!(f, "label"),
        }
    }
}

/// A trace-file parse failure with full location context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// File the error is in.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based byte column of the offending token.
    pub col: usize,
    /// The offending source line, verbatim.
    pub source: String,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    /// Renders `path:line:col: message` with the source line and a caret,
    /// matching the CLI's `--scenarios` JSON diagnostics.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:{}:{}: {}", self.path, self.line, self.col, self.message)?;
        writeln!(f, "  {}", self.source)?;
        write!(f, "  {:>width$}", "^", width = self.col)
    }
}

impl std::error::Error for TraceParseError {}

/// Why a trace could not be ingested.
#[derive(Debug)]
pub enum IngestError {
    /// Filesystem failure.
    Io {
        /// File involved.
        path: String,
        /// The underlying error.
        message: String,
    },
    /// A line failed to parse.
    Parse(TraceParseError),
    /// The request itself is inconsistent (processor counts, file lists).
    Config(String),
}

impl IngestError {
    fn io(path: &Path, e: &std::io::Error) -> Self {
        IngestError::Io { path: path.display().to_string(), message: e.to_string() }
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io { path, message } => write!(f, "{path}: {message}"),
            IngestError::Parse(e) => write!(f, "{e}"),
            IngestError::Config(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<TraceParseError> for IngestError {
    fn from(e: TraceParseError) -> Self {
        IngestError::Parse(e)
    }
}

/// Address-space interpretation knobs for file traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOptions {
    /// Bytes per word — file addresses are byte addresses, the record
    /// model's are word addresses.
    pub bytes_per_word: u64,
    /// Words per cache block (block classification granularity).
    pub words_per_block: u64,
    /// Virtual processors a [`TraceFormat::Label`] stream is sharded
    /// across round-robin. Ignored for assignment traces (one file = one
    /// processor).
    pub processors: usize,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions { bytes_per_word: 4, words_per_block: 4, processors: 4 }
    }
}

/// Finds the sibling files of a per-processor trace: given `…_p0.trace`,
/// returns every `…_p<i>.trace` that exists, in processor order. A path
/// without the `_p0` marker is returned alone.
pub fn discover_processor_files(first: &Path) -> Vec<PathBuf> {
    let Some(name) = first.file_name().and_then(|n| n.to_str()) else {
        return vec![first.to_path_buf()];
    };
    let Some(pos) = name.find("_p0") else {
        return vec![first.to_path_buf()];
    };
    let (prefix, suffix) = (&name[..pos], &name[pos + 3..]);
    let mut out = Vec::new();
    for i in 0..MAX_PROCESSORS {
        let sibling = first.with_file_name(format!("{prefix}_p{i}{suffix}"));
        if sibling.is_file() {
            out.push(sibling);
        } else {
            break;
        }
    }
    if out.is_empty() {
        out.push(first.to_path_buf());
    }
    out
}

/// One parsed line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParsedLine {
    /// A memory reference (byte address).
    Record { address: u64, is_write: bool },
    /// Non-memory instruction cycles (assignment `2` lines).
    Think { cycles: u64 },
}

/// Bytes each trace reader buffers.
const READ_CAPACITY: usize = 8 * 1024;

/// Records a label processor's queue holds before the processor detaches
/// from the shared reader: 128 KiB at 16 bytes a record. Replaying the
/// benchmark's four-processor label trace, the trace-driven simulator
/// never queues 2048 records for one processor.
const QUEUE_CAP: usize = 1 << 13;

/// The buffer sizes of one trace's readers. Tests shrink them so that
/// small traces reach the straddled-line and detach paths.
#[derive(Debug, Clone, Copy)]
struct Buffers {
    /// Bytes each file reader buffers.
    read: usize,
    /// Records a label processor's queue holds.
    queue: usize,
}

const BUFFERS: Buffers = Buffers { read: READ_CAPACITY, queue: QUEUE_CAP };

/// Reads a trace line by line, in place where it can.
struct Lines<R> {
    reader: R,
    /// Holds a line that straddles the end of the reader's buffer.
    buf: Vec<u8>,
    /// Bytes of the reader's buffer the last line borrowed; consumed at
    /// the next read.
    borrowed: usize,
    /// 1-based number of the last line read.
    line_no: usize,
}

impl Lines<BufReader<File>> {
    fn open(path: &Path, capacity: usize) -> Result<Self, IngestError> {
        let file = File::open(path).map_err(|e| IngestError::io(path, &e))?;
        Ok(Lines::new(BufReader::with_capacity(capacity, file)))
    }
}

impl<R: BufRead> Lines<R> {
    fn new(reader: R) -> Self {
        Lines { reader, buf: Vec::new(), borrowed: 0, line_no: 0 }
    }

    /// The next raw line, terminator included, with its 1-based number;
    /// `None` at end of file.
    ///
    /// The line is a slice of the reader's own buffer. It is copied only
    /// when it straddles the end of that buffer, or ends the file without
    /// a newline.
    fn next_raw(&mut self) -> std::io::Result<Option<(usize, &[u8])>> {
        self.reader.consume(std::mem::take(&mut self.borrowed));
        let newline = loop {
            match self.reader.fill_buf() {
                Ok([]) => return Ok(None),
                Ok(available) => break available.iter().position(|&b| b == b'\n'),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        let line = match newline {
            Some(end) => {
                self.borrowed = end + 1;
                // Unconsumed bytes come back without another read.
                &self.reader.fill_buf()?[..=end]
            }
            None => {
                self.buf.clear();
                self.reader.read_until(b'\n', &mut self.buf)?;
                &self.buf[..]
            }
        };
        self.line_no += 1;
        Ok(Some((self.line_no, line)))
    }

    /// As [`Lines::next_raw`], as text.
    fn next_line(&mut self) -> std::io::Result<Option<(usize, &str)>> {
        match self.next_raw()? {
            None => Ok(None),
            Some((line_no, raw)) => Ok(Some((line_no, utf8(raw)?))),
        }
    }
}

/// A raw line as text, rejecting invalid UTF-8 with the error
/// `BufRead::read_line` gives.
fn utf8(raw: &[u8]) -> std::io::Result<&str> {
    std::str::from_utf8(raw).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "stream did not contain valid UTF-8")
    })
}

/// Locates a parse failure on line `line_no` of `path`.
fn located(
    path: &Path,
    line_no: usize,
    text: &str,
    (col, message): (usize, String),
) -> TraceParseError {
    TraceParseError {
        path: path.display().to_string(),
        line: line_no,
        col,
        source: text.trim_end_matches(['\n', '\r']).to_string(),
        message,
    }
}

/// A line's whitespace-separated fields up to its first `#`, as
/// byte-offset/token pairs, yielded lazily without allocating.
///
/// Fields split on `char::is_whitespace`. ASCII bytes are classified
/// directly (tab, LF, VT, FF, CR and space; `u8::is_ascii_whitespace` omits
/// VT); a non-ASCII character is decoded, so Unicode spaces split too.
struct Tokens<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Tokens<'a> {
    fn new(line: &'a str) -> Self {
        Tokens { line, pos: 0 }
    }

    /// Whether the non-ASCII character at byte `i` is whitespace, and its
    /// width in bytes.
    fn wide_char(&self, i: usize) -> (bool, usize) {
        let ch = self.line[i..].chars().next().unwrap_or_default();
        (ch.is_whitespace(), ch.len_utf8())
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = (usize, &'a str);

    fn next(&mut self) -> Option<(usize, &'a str)> {
        let bytes = self.line.as_bytes();
        let mut i = self.pos;
        let start = loop {
            match bytes.get(i) {
                None | Some(b'#') => {
                    self.pos = i;
                    return None;
                }
                Some(b'\t'..=b'\r' | b' ') => i += 1,
                Some(0..=0x7F) => break i,
                Some(_) => match self.wide_char(i) {
                    (true, width) => i += width,
                    (false, _) => break i,
                },
            }
        };
        loop {
            match bytes.get(i) {
                None | Some(b'#' | b'\t'..=b'\r' | b' ') => break,
                Some(0..=0x7F) => i += 1,
                Some(_) => match self.wide_char(i) {
                    (false, width) => i += width,
                    (true, _) => break,
                },
            }
        }
        self.pos = i;
        Some((start, &self.line[start..i]))
    }
}

/// Whether a raw line holds a record rather than only whitespace and a
/// comment. Label replay asks this of the lines it does not parse: a
/// cursor of the lines other processors own, the shared reader of a
/// detached processor's lines. The prescan has already parsed them.
fn has_record(raw: &[u8]) -> bool {
    let Some(i) = raw.iter().position(|b| !matches!(b, b'\t'..=b'\r' | b' ')) else {
        return false;
    };
    match raw[i] {
        b'#' => false,
        0..=0x7F => true,
        _ => std::str::from_utf8(&raw[i..]).map_or(true, |rest| Tokens::new(rest).next().is_some()),
    }
}

/// Why a numeric field did not parse.
enum NumberError {
    /// A character outside the radix (or no digits at all).
    Invalid,
    /// Well-formed but larger than `u64::MAX`.
    Overflow,
}

/// Hexadecimal digit values by byte; `0xFF` marks a non-digit.
const HEX_DIGITS: [u8; 256] = {
    let mut table = [0xFF; 256];
    let mut i = 0;
    while i < 16 {
        let digit = i as u8;
        let (lower, upper) = if i < 10 {
            (b'0' + digit, b'0' + digit)
        } else {
            (b'a' + digit - 10, b'A' + digit - 10)
        };
        table[lower as usize] = digit;
        table[upper as usize] = digit;
        i += 1;
    }
    table
};

/// Parses a hexadecimal address with an optional `0x`/`0X` prefix.
fn parse_hex(tok: &str) -> Result<u64, NumberError> {
    let digits = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")).unwrap_or(tok);
    if digits.is_empty() {
        return Err(NumberError::Invalid);
    }
    let (mut value, mut spilled) = (0u64, 0u64);
    for b in digits.bytes() {
        let digit = HEX_DIGITS[usize::from(b)];
        if digit > 0xF {
            return Err(NumberError::Invalid);
        }
        // Any nonzero nibble shifted out of the top is an overflow.
        spilled |= value >> 60;
        value = value << 4 | u64::from(digit);
    }
    if spilled == 0 {
        Ok(value)
    } else {
        Err(NumberError::Overflow)
    }
}

/// Parses a decimal count as `str::parse::<u64>` does: an optional `+`,
/// then at least one digit.
fn parse_decimal(tok: &str) -> Option<u64> {
    let digits = tok.strip_prefix('+').unwrap_or(tok);
    if digits.is_empty() {
        return None;
    }
    digits.bytes().try_fold(0u64, |value, b| {
        let digit = b.checked_sub(b'0').filter(|d| *d <= 9)?;
        value.checked_mul(10)?.checked_add(u64::from(digit))
    })
}

/// Parses one raw line (comment stripping included). `Ok(None)` for blank
/// or comment-only lines; `Err((col, message))` locates the problem.
fn parse_line(raw: &str, format: TraceFormat) -> Result<Option<ParsedLine>, (usize, String)> {
    let mut tokens = Tokens::new(raw);
    let Some((op_col, op)) = tokens.next() else {
        return Ok(None);
    };
    let value = tokens.next();
    if let Some((extra_col, extra)) = tokens.next() {
        return Err((extra_col + 1, format!("unexpected trailing token `{extra}`")));
    }
    let address = |(col, tok): (usize, &str)| -> Result<u64, (usize, String)> {
        parse_hex(tok).map_err(|e| match e {
            NumberError::Invalid => {
                (col + 1, format!("invalid address `{tok}` (expected hexadecimal)"))
            }
            NumberError::Overflow => (col + 1, format!("address `{tok}` out of range")),
        })
    };
    let required = |kind: &str| {
        value.ok_or_else(|| (op_col + op.len() + 1, format!("missing {kind} after `{op}`")))
    };
    match format {
        TraceFormat::Assignment => match op {
            "0" | "1" => {
                let addr = address(required("address")?)?;
                Ok(Some(ParsedLine::Record { address: addr, is_write: op == "1" }))
            }
            "2" => {
                let (col, tok) = required("cycle count")?;
                let cycles = parse_decimal(tok)
                    .ok_or_else(|| (col + 1, format!("invalid cycle count `{tok}`")))?;
                Ok(Some(ParsedLine::Think { cycles }))
            }
            other => Err((
                op_col + 1,
                format!("unknown operation `{other}` (expected 0=load, 1=store, 2=cycles)"),
            )),
        },
        TraceFormat::Label => {
            let is = |words: [&str; 4]| words.iter().any(|w| op.eq_ignore_ascii_case(w));
            let is_write = if is(["l", "r", "load", "read"]) {
                false
            } else if is(["s", "w", "store", "write"]) {
                true
            } else {
                return Err((
                    op_col + 1,
                    format!(
                        "unknown label `{}` (expected l/r=load, s/w=store)",
                        op.to_ascii_lowercase()
                    ),
                ));
            };
            let addr = address(required("address")?)?;
            Ok(Some(ParsedLine::Record { address: addr, is_write }))
        }
    }
}

/// An I/O failure on line `line_no` of `path` during replay.
fn replay_io_error(path: &Path, line_no: usize, e: &std::io::Error) -> IngestError {
    IngestError::Io { path: path.display().to_string(), message: format!("line {line_no}: {e}") }
}

/// A replay cursor that reads one processor's records from a file of its
/// own, or picks them out of a label file on its own reader.
struct Cursor {
    path: PathBuf,
    lines: Lines<BufReader<File>>,
    format: TraceFormat,
    /// Records owned by other processors between two of this cursor's
    /// (label sharding: `processors - 1`; assignment cursors own all).
    stride: u64,
    /// Records still to pass over before the next one this cursor owns.
    skip: u64,
}

impl Cursor {
    fn open(
        path: &Path,
        format: TraceFormat,
        stride: u64,
        skip: u64,
        buffers: Buffers,
    ) -> Result<Self, IngestError> {
        let lines = Lines::open(path, buffers.read)?;
        Ok(Cursor { path: path.to_path_buf(), lines, format, stride, skip })
    }

    /// Next byte-address record owned by this cursor's processor.
    ///
    /// A line owned by another processor is only told apart from blank and
    /// comment lines, not parsed: the prescan has parsed every record line,
    /// and the cursor that owns it parses it again. A failure here means
    /// the file changed after it was opened.
    fn next(&mut self) -> Result<Option<(u64, bool)>, IngestError> {
        loop {
            let (line_no, raw) = match self.lines.next_raw() {
                Ok(Some(line)) => line,
                Ok(None) => return Ok(None),
                Err(e) => return Err(replay_io_error(&self.path, self.lines.line_no + 1, &e)),
            };
            if self.skip > 0 {
                if has_record(raw) {
                    self.skip -= 1;
                }
                continue;
            }
            let text = utf8(raw).map_err(|e| replay_io_error(&self.path, line_no, &e))?;
            match parse_line(text, self.format) {
                Ok(Some(ParsedLine::Record { address, is_write })) => {
                    self.skip = self.stride;
                    return Ok(Some((address, is_write)));
                }
                Ok(Some(ParsedLine::Think { .. }) | None) => {}
                Err(e) => return Err(located(&self.path, line_no, text, e).into()),
            }
        }
    }
}

/// The replay state of an opened trace.
enum Replay {
    /// One cursor per processor file (assignment traces).
    Files(Vec<Cursor>),
    /// One shared reader of a label file.
    Label(Dealer),
}

impl Replay {
    /// Positions every processor at its first record.
    fn open(
        paths: &[PathBuf],
        format: TraceFormat,
        processors: usize,
        buffers: Buffers,
    ) -> Result<Replay, IngestError> {
        Ok(match format {
            TraceFormat::Assignment => Replay::Files(
                paths
                    .iter()
                    .map(|p| Cursor::open(p, format, 0, 0, buffers))
                    .collect::<Result<_, _>>()?,
            ),
            TraceFormat::Label => Replay::Label(Dealer {
                lines: Lines::open(&paths[0], buffers.read)?,
                path: paths[0].clone(),
                turn: 0,
                feeds: (0..processors).map(|_| Feed::Dealt(VecDeque::new())).collect(),
                buffers,
            }),
        })
    }

    /// The next byte-address record of processor `p`, given how many
    /// records each processor has been delivered.
    fn next(&mut self, p: usize, delivered: &[u64]) -> Result<Option<(u64, bool)>, IngestError> {
        match self {
            Replay::Files(cursors) => cursors[p].next(),
            Replay::Label(dealer) => dealer.next(p, delivered),
        }
    }

    /// The file and the last line read on processor `p`'s behalf.
    fn position(&self, p: usize) -> (&Path, usize) {
        let cursor = match self {
            Replay::Files(cursors) => &cursors[p],
            Replay::Label(dealer) => match &dealer.feeds[p] {
                Feed::Own(cursor) => cursor,
                Feed::Dealt(_) => return (&dealer.path, dealer.lines.line_no),
            },
        };
        (&cursor.path, cursor.lines.line_no)
    }
}

/// Where a label processor's records come from during replay.
enum Feed {
    /// Records the shared reader has dealt to it, oldest first.
    Dealt(VecDeque<(u64, bool)>),
    /// Its own cursor, after it detached from the shared reader.
    Own(Cursor),
}

/// The one reader of a label file: it deals the records round-robin into
/// per-processor queues, so a consumer that pulls evenly reads the file
/// once.
struct Dealer {
    path: PathBuf,
    lines: Lines<BufReader<File>>,
    /// The processor the next record belongs to.
    turn: usize,
    feeds: Vec<Feed>,
    buffers: Buffers,
}

impl Dealer {
    fn next(&mut self, p: usize, delivered: &[u64]) -> Result<Option<(u64, bool)>, IngestError> {
        match &mut self.feeds[p] {
            Feed::Own(cursor) => cursor.next(),
            Feed::Dealt(queue) => match queue.pop_front() {
                Some(record) => Ok(Some(record)),
                None => self.deal(p, delivered),
            },
        }
    }

    /// Reads on to processor `p`'s next record, dealing every record it
    /// passes to its owner's queue.
    ///
    /// An owner whose queue is full detaches: it drops its queue and opens
    /// its own cursor at its first undelivered record, so no queue ever
    /// holds more than [`Buffers::queue`] records. From then on the shared
    /// reader only counts that owner's lines, as a cursor counts the lines
    /// it does not own.
    fn deal(&mut self, p: usize, delivered: &[u64]) -> Result<Option<(u64, bool)>, IngestError> {
        let n = self.feeds.len();
        loop {
            let (line_no, raw) = match self.lines.next_raw() {
                Ok(Some(line)) => line,
                Ok(None) => return Ok(None),
                Err(e) => return Err(replay_io_error(&self.path, self.lines.line_no + 1, &e)),
            };
            let owner = self.turn;
            if matches!(self.feeds[owner], Feed::Own(_)) {
                if has_record(raw) {
                    self.turn = (owner + 1) % n;
                }
                continue;
            }
            let text = utf8(raw).map_err(|e| replay_io_error(&self.path, line_no, &e))?;
            let record = match parse_line(text, TraceFormat::Label) {
                Ok(Some(ParsedLine::Record { address, is_write })) => (address, is_write),
                Ok(Some(ParsedLine::Think { .. }) | None) => continue,
                Err(e) => return Err(located(&self.path, line_no, text, e).into()),
            };
            self.turn = (owner + 1) % n;
            if owner == p {
                return Ok(Some(record));
            }
            match &mut self.feeds[owner] {
                Feed::Dealt(queue) if queue.len() < self.buffers.queue => queue.push_back(record),
                feed => {
                    let skip = owner as u64 + delivered[owner] * n as u64;
                    let format = TraceFormat::Label;
                    let cursor = Cursor::open(&self.path, format, n as u64 - 1, skip, self.buffers)?;
                    *feed = Feed::Own(cursor);
                }
            }
        }
    }

    /// Records dealt but not yet delivered, over every queue.
    #[cfg(test)]
    fn queued(&self) -> usize {
        self.feeds
            .iter()
            .map(|feed| match feed {
                Feed::Dealt(queue) => queue.len(),
                Feed::Own(_) => 0,
            })
            .sum()
    }
}

/// A file-backed [`TraceSource`].
///
/// Built by [`FileTrace::open`]; classification and counts come from the
/// prescan, records from a streaming replay of the files.
pub struct FileTrace {
    paths: Vec<PathBuf>,
    format: TraceFormat,
    options: IngestOptions,
    processors: usize,
    /// Block → sharing, from the prescan.
    blocks: BlockMap<Sharing>,
    replay: Replay,
    buffers: Buffers,
    counts: Vec<u64>,
    delivered: Vec<u64>,
    tau: Option<f64>,
    distinct_blocks: u64,
    /// The first error replay met; replay stops there.
    replay_error: Option<IngestError>,
}

impl fmt::Debug for FileTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileTrace")
            .field("format", &self.format)
            .field("processors", &self.processors)
            .field("records", &self.counts.iter().sum::<u64>())
            .field("distinct_blocks", &self.distinct_blocks)
            .finish_non_exhaustive()
    }
}

impl FileTrace {
    /// Opens a trace.
    ///
    /// For [`TraceFormat::Assignment`], `paths` is one file per processor
    /// (use [`discover_processor_files`] to expand a `…_p0` family). For
    /// [`TraceFormat::Label`], `paths` must be a single file whose record
    /// stream is sharded across [`IngestOptions::processors`].
    ///
    /// # Errors
    ///
    /// [`IngestError::Config`] for inconsistent requests,
    /// [`IngestError::Io`] for filesystem failures, and
    /// [`IngestError::Parse`] (with line:col context) for malformed lines.
    pub fn open(
        paths: &[PathBuf],
        format: TraceFormat,
        options: IngestOptions,
    ) -> Result<FileTrace, IngestError> {
        FileTrace::open_with(paths, format, options, BUFFERS)
    }

    /// As [`FileTrace::open`], with the given reader and queue sizes.
    fn open_with(
        paths: &[PathBuf],
        format: TraceFormat,
        options: IngestOptions,
        buffers: Buffers,
    ) -> Result<FileTrace, IngestError> {
        if paths.is_empty() {
            return Err(IngestError::Config("no trace files given".into()));
        }
        if options.bytes_per_word == 0 || options.words_per_block == 0 {
            return Err(IngestError::Config(
                "bytes_per_word and words_per_block must be positive".into(),
            ));
        }
        let processors = match format {
            TraceFormat::Assignment => paths.len(),
            TraceFormat::Label => {
                if paths.len() != 1 {
                    return Err(IngestError::Config(format!(
                        "label-format traces are a single file, got {}",
                        paths.len()
                    )));
                }
                options.processors
            }
        };
        if processors == 0 || processors > MAX_PROCESSORS {
            return Err(IngestError::Config(format!(
                "processor count {processors} out of range (1..={MAX_PROCESSORS})"
            )));
        }

        // Prescan: validate, count, and classify blocks by sharing.
        let mut blocks: BlockMap<Sharing> = BlockMap::default();
        let mut counts = vec![0u64; processors];
        let mut think_cycles = 0u64;
        let mut think_applicable = false;
        let block_of = |byte_address: u64| {
            byte_address / options.bytes_per_word / options.words_per_block
        };
        for (file_idx, path) in paths.iter().enumerate() {
            let mut lines = Lines::open(path, buffers.read)?;
            let mut turn = 0;
            while let Some((line_no, text)) =
                lines.next_line().map_err(|e| IngestError::io(path, &e))?
            {
                let parsed =
                    parse_line(text, format).map_err(|e| located(path, line_no, text, e))?;
                match parsed {
                    Some(ParsedLine::Record { address, is_write }) => {
                        let p = match format {
                            TraceFormat::Assignment => file_idx,
                            TraceFormat::Label => {
                                let p = turn;
                                turn = (turn + 1) % processors;
                                p
                            }
                        };
                        counts[p] += 1;
                        let p = p as u8;
                        let entry = blocks.entry(block_of(address)).or_insert(Sharing {
                            first: p,
                            shared: false,
                            written: false,
                        });
                        entry.shared |= entry.first != p;
                        entry.written |= is_write;
                    }
                    Some(ParsedLine::Think { cycles }) => {
                        think_applicable = true;
                        think_cycles = think_cycles.saturating_add(cycles);
                    }
                    None => {}
                }
            }
        }
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return Err(IngestError::Config(format!(
                "{}: trace contains no memory references",
                paths[0].display()
            )));
        }

        Ok(FileTrace {
            replay: Replay::open(paths, format, processors, buffers)?,
            buffers,
            paths: paths.to_vec(),
            format,
            options,
            processors,
            distinct_blocks: blocks.len() as u64,
            blocks,
            counts,
            delivered: vec![0; processors],
            tau: think_applicable.then(|| think_cycles as f64 / total as f64),
            replay_error: None,
        })
    }

    /// Opens a trace, sniffing the format from the first file.
    pub fn open_auto(paths: &[PathBuf], options: IngestOptions) -> Result<FileTrace, IngestError> {
        let first = paths.first().ok_or_else(|| {
            IngestError::Config("no trace files given".into())
        })?;
        let format = TraceFormat::detect(first)?;
        FileTrace::open(paths, format, options)
    }

    /// The dialect this trace was parsed as.
    pub fn format(&self) -> TraceFormat {
        self.format
    }

    /// Memory references per processor, from the prescan.
    pub fn record_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Distinct blocks the trace touches.
    pub fn distinct_blocks(&self) -> u64 {
        self.distinct_blocks
    }

    /// The error that stopped replay early, if any: a line that no longer
    /// parses, an I/O failure, or a processor stream longer or shorter
    /// than the prescan counted. Each means a file changed after it was
    /// opened, and the records delivered before it are a truncated trace.
    pub fn replay_error(&self) -> Option<&IngestError> {
        self.replay_error.as_ref()
    }

    /// Restarts replay from the first record of every processor stream,
    /// keeping the prescan's counts and sharing classification, so a
    /// second pass over the same trace skips the prescan. Clears any
    /// replay error.
    ///
    /// # Errors
    ///
    /// [`IngestError::Io`] when a trace file can no longer be opened.
    pub fn rewind(&mut self) -> Result<(), IngestError> {
        self.replay = Replay::open(&self.paths, self.format, self.processors, self.buffers)?;
        self.delivered.fill(0);
        self.replay_error = None;
        Ok(())
    }
}

impl TraceSource for FileTrace {
    fn processors(&self) -> usize {
        self.processors
    }

    fn words_per_block(&self) -> u64 {
        self.options.words_per_block
    }

    fn next_for(&mut self, processor: usize) -> Option<TraceRecord> {
        if self.replay_error.is_some() {
            return None;
        }
        if processor >= self.processors {
            return None;
        }
        let (delivered, count) = (self.delivered[processor], self.counts[processor]);
        let (byte_address, is_write) = match self.replay.next(processor, &self.delivered) {
            Ok(Some(record)) if delivered < count => record,
            Ok(None) if delivered == count => return None,
            Ok(record) => {
                let found = if record.is_some() { "more" } else { "fewer" };
                let (path, line_no) = self.replay.position(processor);
                self.replay_error = Some(IngestError::Io {
                    path: path.display().to_string(),
                    message: format!(
                        "line {line_no}: processor {processor} has {found} than the {count} \
                         records counted when the trace was opened; the file changed since"
                    ),
                });
                return None;
            }
            Err(e) => {
                self.replay_error = Some(e);
                return None;
            }
        };
        self.delivered[processor] += 1;
        let address = byte_address / self.options.bytes_per_word;
        let block = address / self.options.words_per_block;
        let stream = self.blocks.get(&block).map_or(Stream::Private, |s| s.stream());
        Some(TraceRecord { processor, address, is_write, stream })
    }

    fn remaining_hint(&self, processor: usize) -> Option<u64> {
        let count = *self.counts.get(processor)?;
        Some(count.saturating_sub(self.delivered[processor]))
    }

    fn measured_tau(&self) -> Option<f64> {
        self.tau
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_file(name: &str, content: &str) -> PathBuf {
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let id = UNIQUE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("snoop-ingest-{}-{id}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        fs::write(&path, content).unwrap();
        path
    }

    fn drain<S: TraceSource>(source: &mut S, p: usize) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        while let Some(r) = source.next_for(p) {
            out.push(r);
        }
        out
    }

    #[test]
    fn assignment_traces_classify_sharing_across_files() {
        // Block 0x10 is touched by both processors and written → sw;
        // 0x20 read by both, never written → sro; the rest are private.
        let p0 = temp_file(
            "a_p0.trace",
            "# processor 0\n0 0x100\n1 0x104\n0 0x400\n2 12\n1 0x800\n",
        );
        let p1 = temp_file("a_p1.trace", "0 0x200\n2 8\n0 0x400\n1 0x800\n");
        let mut t = FileTrace::open(
            &[p0, p1],
            TraceFormat::Assignment,
            IngestOptions::default(),
        )
        .unwrap();
        assert_eq!(t.processors(), 2);
        assert_eq!(t.record_counts(), &[4, 3]);
        // tau = (12 + 8) / 7 records.
        assert!((t.measured_tau().unwrap() - 20.0 / 7.0).abs() < 1e-12);

        let r0 = drain(&mut t, 0);
        assert_eq!(r0.len(), 4);
        // Byte 0x100 → word 0x40.
        assert_eq!(r0[0].address, 0x40);
        assert!(!r0[0].is_write);
        assert_eq!(r0[0].stream, Stream::Private);
        assert!(r0[1].is_write);
        // 0x400 (block 0x10) is read-shared; 0x800 (block 0x20) is
        // write-shared.
        assert_eq!(r0[2].stream, Stream::SharedReadOnly);
        assert_eq!(r0[3].stream, Stream::SharedWritable);
        assert_eq!(t.remaining_hint(0), Some(0));
        assert_eq!(t.remaining_hint(1), Some(3));
    }

    #[test]
    fn label_traces_shard_round_robin() {
        let f = temp_file(
            "lab.trace",
            "l 0x1000\ns 0x2000\nl 0x3000\nw 0x4000\nr 0x2000\nl 0x2000\n",
        );
        let options = IngestOptions { processors: 2, ..IngestOptions::default() };
        let mut t = FileTrace::open(&[f], TraceFormat::Label, options).unwrap();
        assert_eq!(t.processors(), 2);
        assert_eq!(t.record_counts(), &[3, 3]);
        assert_eq!(t.measured_tau(), None);

        let r0 = drain(&mut t, 0);
        let r1 = drain(&mut t, 1);
        // Processor 0 gets records 0, 2, 4; processor 1 gets 1, 3, 5.
        assert_eq!(
            r0.iter().map(|r| r.address).collect::<Vec<_>>(),
            vec![0x400, 0xc00, 0x800]
        );
        assert_eq!(
            r1.iter().map(|r| (r.address, r.is_write)).collect::<Vec<_>>(),
            vec![(0x800, true), (0x1000, true), (0x800, false)]
        );
        // 0x1000 is only ever touched by processor 0 → private; 0x2000 is
        // touched by both and written → shared-writable.
        assert_eq!(r0[0].stream, Stream::Private);
        assert_eq!(r1[2].stream, Stream::SharedWritable);
    }

    #[test]
    fn label_cursors_skip_to_the_same_shards_as_a_full_parse() {
        let text = "# header\nl 0x1000\n\n  # indented comment\r\ns 0x2000\r\nr 0x3000 # note\n\
                    \t\r\nw 0x4000\nL 0x5000\r\n#\nS 0x6000\n\nl 0x7000";
        let f = temp_file("skip.trace", text);
        let options = IngestOptions { processors: 3, ..IngestOptions::default() };
        let mut t = FileTrace::open(std::slice::from_ref(&f), TraceFormat::Label, options).unwrap();

        // Full parse of every line, sharded round-robin over the records.
        let mut expected = vec![Vec::new(); 3];
        let records = text.split_inclusive('\n').filter_map(|line| {
            match parse_line(line, TraceFormat::Label).unwrap() {
                Some(ParsedLine::Record { address, is_write }) => Some((address / 4, is_write)),
                _ => None,
            }
        });
        for (i, record) in records.enumerate() {
            expected[i % 3].push(record);
        }

        for (p, want) in expected.iter().enumerate() {
            let got: Vec<_> = drain(&mut t, p).iter().map(|r| (r.address, r.is_write)).collect();
            assert_eq!(&got, want, "processor {p}");
            assert_eq!(got.len() as u64, t.record_counts()[p]);
        }
        assert_eq!(t.record_counts(), &[3, 2, 2]);
        assert!(t.replay_error().is_none());
    }

    #[test]
    fn a_rewound_trace_replays_the_same_records_as_a_fresh_open() {
        let p0 = temp_file("rw_p0.trace", "0 0x100\n2 12\n1 0x400\n0 0x800\n");
        let p1 = temp_file("rw_p1.trace", "0 0x400\n1 0x800\n");
        let label =
            temp_file("rw.trace", "# h\nl 0x1000\ns 0x2000\n\nl 0x3000\nw 0x2000\nl 0x1000\n");
        let labelled = IngestOptions { processors: 2, ..IngestOptions::default() };
        let cases = [
            (vec![p0, p1], TraceFormat::Assignment, IngestOptions::default()),
            (vec![label], TraceFormat::Label, labelled),
        ];
        for (paths, format, options) in cases {
            let replay = |t: &mut FileTrace| -> Vec<Vec<TraceRecord>> {
                (0..t.processors()).map(|p| drain(t, p)).collect()
            };
            let fresh = replay(&mut FileTrace::open(&paths, format, options).unwrap());
            let mut t = FileTrace::open(&paths, format, options).unwrap();
            // Rewind after a partial pass and after a full one.
            t.next_for(0).unwrap();
            t.rewind().unwrap();
            assert_eq!(t.remaining_hint(0), Some(t.record_counts()[0]));
            assert_eq!(replay(&mut t), fresh, "{format}");
            t.rewind().unwrap();
            assert_eq!(replay(&mut t), fresh, "{format}");
            assert!(t.replay_error().is_none());
        }
    }

    #[test]
    fn a_block_table_entry_takes_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<(u64, Sharing)>(), 16);
    }

    #[test]
    fn draining_one_label_processor_first_keeps_the_queues_bounded() {
        // More records than the queues of all three processors hold.
        const N: usize = 3;
        let records = QUEUE_CAP * N + 1000;
        let line = |i: usize| {
            let op = if i.is_multiple_of(7) { 's' } else { 'l' };
            format!("{op} {:#x}\n", (i * 52 % 40_960) * 4)
        };
        let f = temp_file("deep.trace", &(0..records).map(line).collect::<String>());
        let options = IngestOptions { processors: N, ..IngestOptions::default() };
        let mut t = FileTrace::open(&[f], TraceFormat::Label, options).unwrap();

        let mut peak = 0;
        let mut got = vec![Vec::new(); N];
        for (p, records) in got.iter_mut().enumerate() {
            while let Some(r) = t.next_for(p) {
                records.push((r.address, r.is_write));
                let Replay::Label(dealer) = &t.replay else { panic!("a label replay") };
                peak = peak.max(dealer.queued());
            }
        }
        assert!(peak <= QUEUE_CAP * N, "{peak} records queued");
        // Processors 1 and 2 filled their queues, then detached.
        assert!(peak >= QUEUE_CAP, "{peak} records queued");
        let Replay::Label(dealer) = &t.replay else { panic!("a label replay") };
        assert!(dealer.feeds[1..].iter().all(|feed| matches!(feed, Feed::Own(_))));
        for (p, records) in got.iter().enumerate() {
            let want: Vec<_> = (p..records.len() * N)
                .step_by(N)
                .map(|i| ((i * 52 % 40_960) as u64, i.is_multiple_of(7)))
                .collect();
            assert_eq!(records.len() as u64, t.record_counts()[p]);
            assert!(records == &want, "processor {p} differs");
        }
        assert!(t.replay_error().is_none());
    }

    #[test]
    fn a_line_rewritten_after_the_prescan_is_a_replay_error() {
        let f = temp_file("rewritten.trace", "l 0x1000\ns 0x2000\nl 0x3000\nw 0x4000\n");
        let options = IngestOptions { processors: 2, ..IngestOptions::default() };
        let mut t = FileTrace::open(std::slice::from_ref(&f), TraceFormat::Label, options).unwrap();
        fs::write(&f, "l 0x1000\ns 0x2000\nl 0xZZ\nw 0x4000\n").unwrap();

        assert_eq!(drain(&mut t, 0).len(), 1, "replay stops at the bad line");
        let Some(IngestError::Parse(e)) = t.replay_error() else {
            panic!("expected a parse error, got {:?}", t.replay_error())
        };
        assert_eq!((e.line, e.col), (3, 3));
        assert!(e.to_string().starts_with(&format!("{}:3:3: invalid address `0xZZ`", f.display())));
        // Replay stays stopped on every processor.
        assert!(t.next_for(1).is_none());
    }

    #[test]
    fn a_stream_shortened_or_lengthened_after_the_prescan_is_a_replay_error() {
        let p0 = temp_file("short_p0.trace", "0 0x100\n2 5\n1 0x104\n0 0x108\n");
        let mut t = FileTrace::open(
            std::slice::from_ref(&p0),
            TraceFormat::Assignment,
            IngestOptions::default(),
        )
        .unwrap();
        fs::write(&p0, "0 0x100\n2 5\n").unwrap();
        assert_eq!(drain(&mut t, 0).len(), 1);
        let message = t.replay_error().expect("truncation is reported").to_string();
        assert!(message.contains("line 2: processor 0 has fewer than the 3 records"), "{message}");

        let mut t = FileTrace::open(
            std::slice::from_ref(&p0),
            TraceFormat::Assignment,
            IngestOptions::default(),
        )
        .unwrap();
        fs::write(&p0, "0 0x100\n2 5\n1 0x104\n").unwrap();
        assert_eq!(drain(&mut t, 0).len(), 1);
        let message = t.replay_error().expect("growth is reported").to_string();
        assert!(message.contains("line 3: processor 0 has more than the 1 records"), "{message}");
    }

    #[test]
    fn malformed_line_reports_line_col_and_caret() {
        let f = temp_file("bad.trace", "l 0x1000\ns 0x2000\nl 0xZZ\n");
        let err = FileTrace::open(std::slice::from_ref(&f), TraceFormat::Label, IngestOptions::default())
            .unwrap_err();
        let IngestError::Parse(e) = err else { panic!("expected parse error, got {err:?}") };
        assert_eq!(e.line, 3);
        assert_eq!(e.col, 3);
        let rendered = e.to_string();
        assert!(rendered.contains(&format!("{}:3:3: invalid address `0xZZ`", f.display())));
        assert!(rendered.contains("\n  l 0xZZ\n"), "{rendered}");
        assert!(rendered.ends_with("  ^"), "{rendered}");
    }

    #[test]
    fn unknown_operation_and_missing_value_are_located() {
        let f = temp_file("ops.trace", "3 0x10\n");
        let err = FileTrace::open(&[f], TraceFormat::Assignment, IngestOptions::default())
            .unwrap_err();
        let IngestError::Parse(e) = err else { panic!("{err:?}") };
        assert_eq!((e.line, e.col), (1, 1));
        assert!(e.message.contains("unknown operation"));

        let f = temp_file("short.trace", "0 0x10\n1\n");
        let err = FileTrace::open(&[f], TraceFormat::Assignment, IngestOptions::default())
            .unwrap_err();
        let IngestError::Parse(e) = err else { panic!("{err:?}") };
        assert_eq!(e.line, 2);
        assert!(e.message.contains("missing address"));

        let f = temp_file("extra.trace", "l 0x10 junk\n");
        let err =
            FileTrace::open(&[f], TraceFormat::Label, IngestOptions::default()).unwrap_err();
        let IngestError::Parse(e) = err else { panic!("{err:?}") };
        assert_eq!(e.col, 8);
        assert!(e.message.contains("trailing"));
    }

    #[test]
    fn format_detection_from_first_record() {
        let a = temp_file("d1.trace", "# comment\n\n0 0x100\n");
        assert_eq!(TraceFormat::detect(&a).unwrap(), TraceFormat::Assignment);
        let l = temp_file("d2.trace", "l 0x100\n");
        assert_eq!(TraceFormat::detect(&l).unwrap(), TraceFormat::Label);
        let bad = temp_file("d3.trace", "? 0x100\n");
        assert!(matches!(TraceFormat::detect(&bad), Err(IngestError::Parse(_))));
    }

    #[test]
    fn discover_finds_processor_family() {
        let p0 = temp_file("fam_p0.trace", "0 0x0\n");
        let dir = p0.parent().unwrap();
        fs::write(dir.join("fam_p1.trace"), "0 0x0\n").unwrap();
        fs::write(dir.join("fam_p2.trace"), "0 0x0\n").unwrap();
        let family = discover_processor_files(&p0);
        assert_eq!(family.len(), 3);
        assert!(family[2].ends_with("fam_p2.trace"));

        let lone = temp_file("solo.trace", "l 0x0\n");
        assert_eq!(discover_processor_files(&lone), vec![lone]);
    }

    #[test]
    fn empty_trace_is_a_config_error() {
        let f = temp_file("empty.trace", "# nothing here\n");
        let err =
            FileTrace::open(&[f], TraceFormat::Label, IngestOptions::default()).unwrap_err();
        assert!(matches!(err, IngestError::Config(_)), "{err:?}");
    }

    #[test]
    fn format_parses_from_str() {
        assert_eq!("assignment".parse::<TraceFormat>().unwrap(), TraceFormat::Assignment);
        assert_eq!("LABEL".parse::<TraceFormat>().unwrap(), TraceFormat::Label);
        assert!("weird".parse::<TraceFormat>().is_err());
    }
}
