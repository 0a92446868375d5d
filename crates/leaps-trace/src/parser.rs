//! Parser for the raw ETL-like log format.
//!
//! The raw format (see `leaps_etw::logfmt`) records one `EVENT` header
//! line with `key=value` fields, followed by `STACK` lines innermost-frame
//! first, terminated by `END`. Parsing restores **caller order** (outermost
//! first), which is the order every downstream algorithm in the paper
//! consumes.
//!
//! Both parsers read lines through one reader that allocates nothing per
//! line: tokens are borrowed from the input, each distinct module or
//! function name is allocated once per call and shared by every frame
//! that names it (`leaps_etw::event::Name`), and an event's frames gather
//! in one reused buffer.

use leaps_etw::addr::Va;
use leaps_etw::event::{EventType, Name, NameHasher, Provenance, StackFrame};
use leaps_etw::logfmt::HEADER;
use std::collections::hash_map::{Entry, HashMap};
use std::error::Error;
use std::fmt;
use std::hash::BuildHasherDefault;

/// A stack-event correlated record: one system event with its stack walk
/// in caller order.
///
/// Unlike `leaps_etw::SysEvent`, provenance is optional (production logs
/// carry no ground truth) and the `in_app_image` flags on frames are
/// assigned later by the partition module, not trusted from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrelatedEvent {
    /// Event sequence number from the log.
    pub num: u64,
    /// Event class.
    pub etype: EventType,
    /// Process id.
    pub pid: u32,
    /// Thread id.
    pub tid: u32,
    /// Timestamp in trace ticks.
    pub timestamp: u64,
    /// Stack frames, outermost (application entry) first.
    pub frames: Vec<StackFrame>,
    /// Ground-truth provenance if the log was generated in a controlled
    /// environment (`src=` field). **Never read by the detection
    /// pipeline** — only by evaluation code.
    pub truth: Option<Provenance>,
}

/// A parsed raw log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorrelatedLog {
    /// Events in log order.
    pub events: Vec<CorrelatedEvent>,
}

/// Errors produced while parsing a raw log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The log does not start with the `# LEAPS-ETL v1` header.
    MissingHeader,
    /// A line could not be interpreted in the current state.
    UnexpectedLine {
        /// 1-based line number.
        line: usize,
        /// The offending content (truncated).
        content: String,
    },
    /// An `EVENT` header is missing a required field.
    MissingField {
        /// 1-based line number.
        line: usize,
        /// Field name.
        field: &'static str,
    },
    /// A field value failed to parse.
    InvalidValue {
        /// 1-based line number.
        line: usize,
        /// Field name.
        field: &'static str,
        /// The value that failed to parse.
        value: String,
    },
    /// The log ended inside an event (no `END`).
    UnterminatedEvent {
        /// Sequence number of the unterminated event.
        num: u64,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::MissingHeader => write!(f, "missing `{HEADER}` header line"),
            ParseError::UnexpectedLine { line, content } => {
                write!(f, "unexpected content at line {line}: {content:?}")
            }
            ParseError::MissingField { line, field } => {
                write!(f, "EVENT at line {line} is missing field `{field}`")
            }
            ParseError::InvalidValue { line, field, value } => {
                write!(f, "invalid value {value:?} for field `{field}` at line {line}")
            }
            ParseError::UnterminatedEvent { num } => {
                write!(f, "log ended inside event {num} (missing END)")
            }
        }
    }
}

impl Error for ParseError {}

/// Coarse classification of parse failures — the error taxonomy used for
/// per-class skip statistics in lenient mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorClass {
    /// The `# LEAPS-ETL v1` magic line was absent.
    MissingHeader,
    /// A line made no sense in its context.
    UnexpectedLine,
    /// An `EVENT` header lacked a required field.
    MissingField,
    /// A field value failed to parse.
    InvalidValue,
    /// A record was cut off before its `END`.
    UnterminatedEvent,
}

impl ErrorClass {
    /// Every class, in a stable order.
    pub const ALL: [ErrorClass; 5] = [
        ErrorClass::MissingHeader,
        ErrorClass::UnexpectedLine,
        ErrorClass::MissingField,
        ErrorClass::InvalidValue,
        ErrorClass::UnterminatedEvent,
    ];

    /// Position in [`ErrorClass::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            ErrorClass::MissingHeader => 0,
            ErrorClass::UnexpectedLine => 1,
            ErrorClass::MissingField => 2,
            ErrorClass::InvalidValue => 3,
            ErrorClass::UnterminatedEvent => 4,
        }
    }

    /// Stable snake_case label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ErrorClass::MissingHeader => "missing_header",
            ErrorClass::UnexpectedLine => "unexpected_line",
            ErrorClass::MissingField => "missing_field",
            ErrorClass::InvalidValue => "invalid_value",
            ErrorClass::UnterminatedEvent => "unterminated_event",
        }
    }
}

impl ParseError {
    /// The coarse class of this error.
    #[must_use]
    pub fn class(&self) -> ErrorClass {
        match self {
            ParseError::MissingHeader => ErrorClass::MissingHeader,
            ParseError::UnexpectedLine { .. } => ErrorClass::UnexpectedLine,
            ParseError::MissingField { .. } => ErrorClass::MissingField,
            ParseError::InvalidValue { .. } => ErrorClass::InvalidValue,
            ParseError::UnterminatedEvent { .. } => ErrorClass::UnterminatedEvent,
        }
    }
}

/// Per-class skip statistics from a lenient parse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Records parsed successfully.
    pub parsed: usize,
    /// Records discarded because part of them was unparseable.
    pub quarantined: usize,
    /// Individual lines skipped outside of a quarantined record.
    pub skipped_lines: usize,
    /// Error occurrences per [`ErrorClass`], indexed by position in
    /// [`ErrorClass::ALL`].
    pub class_counts: [usize; 5],
}

impl RecoveryStats {
    fn count(&mut self, class: ErrorClass) {
        self.class_counts[class.index()] += 1;
    }

    /// Occurrences of one error class.
    #[must_use]
    pub fn class_count(&self, class: ErrorClass) -> usize {
        self.class_counts[class.index()]
    }

    /// Total error occurrences across all classes.
    #[must_use]
    pub fn total_errors(&self) -> usize {
        self.class_counts.iter().sum()
    }

    /// `true` when the log parsed without a single skip.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.total_errors() == 0 && self.quarantined == 0 && self.skipped_lines == 0
    }
}

impl fmt::Display for RecoveryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} parsed, {} quarantined, {} lines skipped",
            self.parsed, self.quarantined, self.skipped_lines
        )?;
        for class in ErrorClass::ALL {
            let n = self.class_count(class);
            if n > 0 {
                write!(f, ", {}={n}", class.label())?;
            }
        }
        Ok(())
    }
}

/// Result of a lenient parse: the surviving events plus recovery
/// statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredLog {
    /// Events that parsed completely, in log order.
    pub events: Vec<CorrelatedEvent>,
    /// What was skipped, quarantined, and why.
    pub stats: RecoveryStats,
}

/// Parses a raw log leniently: never fails, never panics.
///
/// Where [`parse_log`] reports the first malformed construct, this
/// recovery mode **quarantines** the enclosing record (drops it and
/// counts it) and **resynchronizes** at the next `EVENT` header. A
/// missing magic header is tolerated; a log truncated mid-record loses
/// only the final record. Use this for production telemetry, which is
/// lossy by nature; use [`parse_log`] for controlled-environment logs
/// where any damage indicates a writer bug.
#[must_use]
pub fn parse_log_lenient(raw: &str) -> RecoveredLog {
    let mut stats = RecoveryStats::default();
    let mut events = Vec::new();
    let mut lines = raw.split('\n').enumerate().peekable();
    match lines.peek() {
        Some((_, first)) if trim(first) == HEADER => {
            lines.next();
        }
        _ => stats.count(ErrorClass::MissingHeader),
    }

    let mut reader = Reader::default();
    // After an error inside a record, skip lines until the next EVENT.
    let mut resyncing = false;
    let quarantine = |stats: &mut RecoveryStats, class: ErrorClass| {
        stats.count(class);
        stats.quarantined += 1;
    };

    for (idx, line) in lines {
        let line_no = idx + 1;
        match Line::classify(line) {
            Line::Skip => {}
            Line::Event(fields) => {
                if reader.record.take().is_some() {
                    // The previous record never reached its END.
                    quarantine(&mut stats, ErrorClass::UnterminatedEvent);
                }
                resyncing = false;
                match parse_event_header(fields, line_no) {
                    Ok(ev) => reader.open(ev),
                    Err(e) => {
                        quarantine(&mut stats, e.class());
                        resyncing = true;
                    }
                }
            }
            _ if resyncing => stats.skipped_lines += 1,
            Line::Stack(parts) if reader.record.is_some() => {
                if let Err(e) = reader.stack_line(parts, line_no) {
                    quarantine(&mut stats, e.class());
                    reader.record = None;
                    resyncing = true;
                }
            }
            Line::End if reader.record.is_some() => {
                events.extend(reader.close());
                stats.parsed += 1;
            }
            Line::Stack(_) | Line::End => {
                stats.count(ErrorClass::UnexpectedLine);
                stats.skipped_lines += 1;
            }
            Line::Other => {
                // Unrecognizable line: if it interrupts a record, the
                // record can no longer be trusted.
                stats.count(ErrorClass::UnexpectedLine);
                stats.skipped_lines += 1;
                if reader.record.take().is_some() {
                    stats.quarantined += 1;
                    resyncing = true;
                }
            }
        }
    }
    if reader.record.is_some() {
        quarantine(&mut stats, ErrorClass::UnterminatedEvent);
    }
    RecoveredLog { events, stats }
}

/// Parses a raw log into a [`CorrelatedLog`].
///
/// Frames are reversed from the on-disk innermost-first order back into
/// caller order.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first malformed construct, with
/// its line number.
pub fn parse_log(raw: &str) -> Result<CorrelatedLog, ParseError> {
    let mut lines = raw.split('\n').enumerate();
    match lines.next() {
        Some((_, first)) if trim(first) == HEADER => {}
        _ => return Err(ParseError::MissingHeader),
    }

    let mut reader = Reader::default();
    let mut events = Vec::new();
    for (idx, line) in lines {
        let line_no = idx + 1;
        match Line::classify(line) {
            Line::Skip => {}
            Line::Event(fields) => {
                if let Some(ev) = &reader.record {
                    return Err(ParseError::UnterminatedEvent { num: ev.num });
                }
                reader.open(parse_event_header(fields, line_no)?);
            }
            Line::Stack(parts) if reader.record.is_some() => reader.stack_line(parts, line_no)?,
            Line::End if reader.record.is_some() => events.extend(reader.close()),
            Line::Stack(_) | Line::End | Line::Other => {
                return Err(ParseError::UnexpectedLine {
                    line: line_no,
                    content: truncate(trim(line)),
                });
            }
        }
    }
    if let Some(ev) = reader.record {
        return Err(ParseError::UnterminatedEvent { num: ev.num });
    }
    Ok(CorrelatedLog { events })
}

/// The whitespace-separated tokens of a line, split where
/// `str::split_whitespace` splits: at every character for which
/// `char::is_whitespace` holds.
///
/// One byte loop serves every token and [`trim`]. Its ASCII arm tests
/// the six ASCII `White_Space` bytes, vertical tab included (which
/// `u8::is_ascii_whitespace` and `split_ascii_whitespace` leave out);
/// any other byte starts a character that is decoded and asked.
struct Tokens<'a> {
    line: &'a str,
    /// Byte offset of the next character to read.
    pos: usize,
}

impl<'a> Tokens<'a> {
    fn new(line: &'a str) -> Tokens<'a> {
        Tokens { line, pos: 0 }
    }

    /// Advances past the characters that are whitespace iff `WS`.
    fn skip<const WS: bool>(&mut self) {
        let bytes = self.line.as_bytes();
        let mut pos = self.pos;
        while let Some(&b) = bytes.get(pos) {
            let len = if b.is_ascii() {
                if matches!(b, b'\t'..=b'\r' | b' ') != WS {
                    break;
                }
                1
            } else {
                match self.line.get(pos..).and_then(|rest| rest.chars().next()) {
                    Some(c) if c.is_whitespace() == WS => c.len_utf8(),
                    _ => break,
                }
            };
            pos += len;
        }
        self.pos = pos;
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.skip::<true>();
        let start = self.pos;
        self.skip::<false>();
        self.line.get(start..self.pos).filter(|token| !token.is_empty())
    }
}

/// `line.trim()`, through the loop [`Tokens`] splits with: the span from
/// the first token's start to the last token's end.
fn trim(line: &str) -> &str {
    let mut tokens = Tokens::new(line);
    let Some(first) = tokens.next() else {
        return "";
    };
    let start = tokens.pos - first.len();
    let mut end = tokens.pos;
    while tokens.next().is_some() {
        end = tokens.pos;
    }
    line.get(start..end).unwrap_or_default()
}

/// What one raw-log line holds.
enum Line<'a> {
    /// Blank, or a `#` comment.
    Skip,
    /// An `EVENT` header; the tokens after the keyword.
    Event(Tokens<'a>),
    /// A `STACK` line; the tokens after the keyword.
    Stack(Tokens<'a>),
    /// `END`.
    End,
    /// Anything else.
    Other,
}

impl<'a> Line<'a> {
    /// Classifies a line by its trimmed text: an `EVENT ` or `STACK `
    /// prefix (a space, not any whitespace, after the keyword), `END`
    /// alone, or a leading `#`.
    fn classify(line: &'a str) -> Line<'a> {
        let mut tokens = Tokens::new(line);
        let Some(first) = tokens.next() else {
            return Line::Skip;
        };
        let spaced = line.as_bytes().get(tokens.pos) == Some(&b' ');
        match first {
            "EVENT" if spaced => Line::Event(tokens),
            "STACK" if spaced => Line::Stack(tokens),
            "END" if tokens.next().is_none() => Line::End,
            _ if first.starts_with('#') => Line::Skip,
            _ => Line::Other,
        }
    }
}

type NameMap<'a, V> = HashMap<&'a str, V, BuildHasherDefault<NameHasher>>;

/// What one parse carries from line to line: its name interner and the
/// open record with its frames.
///
/// The interner lives only as long as the call, so its memory is bounded
/// by the log being read; a long-lived process that reads many logs keeps
/// no names from the ones it has finished.
#[derive(Default)]
struct Reader<'a> {
    /// `module!function` token → its two names: one lookup per frame.
    symbols: NameMap<'a, (Name, Name)>,
    /// Every distinct module or function name, allocated once.
    names: NameMap<'a, Name>,
    /// The record whose `END` has not been read yet.
    record: Option<CorrelatedEvent>,
    /// Its frames, innermost first as on disk.
    frames: Vec<StackFrame>,
}

impl<'a> Reader<'a> {
    /// Reads the fields of a `STACK` line into the open record.
    fn stack_line(&mut self, mut parts: Tokens<'a>, line: usize) -> Result<(), ParseError> {
        let addr_str = parts.next().ok_or(ParseError::MissingField { line, field: "addr" })?;
        let sym = parts.next().ok_or(ParseError::MissingField { line, field: "symbol" })?;
        let addr_hex = addr_str.strip_prefix("0x").ok_or_else(|| ParseError::InvalidValue {
            line,
            field: "addr",
            value: addr_str.to_owned(),
        })?;
        let addr = u64::from_str_radix(addr_hex, 16).map_err(|_| ParseError::InvalidValue {
            line,
            field: "addr",
            value: addr_str.to_owned(),
        })?;
        let (module, function) = match self.symbols.entry(sym) {
            Entry::Occupied(known) => known.get().clone(),
            Entry::Vacant(slot) => {
                let (module, function) = sym.split_once('!').ok_or_else(|| {
                    ParseError::InvalidValue { line, field: "symbol", value: sym.to_owned() }
                })?;
                let intern = |names: &mut NameMap<'a, Name>, name: &'a str| {
                    names.entry(name).or_insert_with(|| Name::from(name)).clone()
                };
                let module = intern(&mut self.names, module);
                let function = intern(&mut self.names, function);
                slot.insert((module, function)).clone()
            }
        };
        // `in_app_image` is assigned by the partition module; default false.
        self.frames.push(StackFrame::new(module, function, Va(addr), false));
        Ok(())
    }

    /// Opens a record for the `STACK` lines that follow.
    fn open(&mut self, record: CorrelatedEvent) {
        self.frames.clear();
        self.record = Some(record);
    }

    /// Closes the open record, its frames in caller order in one
    /// allocation of their exact size; the buffer keeps its room for
    /// the next record.
    fn close(&mut self) -> Option<CorrelatedEvent> {
        let mut record = self.record.take()?;
        record.frames = self.frames.drain(..).rev().collect();
        Some(record)
    }
}

fn truncate(s: &str) -> String {
    s.chars().take(60).collect()
}

fn parse_event_header(fields: Tokens<'_>, line: usize) -> Result<CorrelatedEvent, ParseError> {
    let mut num = None;
    let mut etype = None;
    let mut pid = None;
    let mut tid = None;
    let mut ts = None;
    let mut truth = None;
    for token in fields {
        let Some((key, value)) = token.split_once('=') else {
            return Err(ParseError::UnexpectedLine { line, content: truncate(token) });
        };
        match key {
            "num" => num = Some(parse_u64(value, "num", line)?),
            "type" => {
                etype = Some(EventType::from_name(value).ok_or(ParseError::InvalidValue {
                    line,
                    field: "type",
                    value: value.to_owned(),
                })?);
            }
            "pid" => pid = Some(parse_u32(value, "pid", line)?),
            "tid" => tid = Some(parse_u32(value, "tid", line)?),
            "ts" => ts = Some(parse_u64(value, "ts", line)?),
            "src" => {
                truth = Some(match value {
                    "benign" => Provenance::Benign,
                    "malicious" => Provenance::Malicious,
                    other => {
                        return Err(ParseError::InvalidValue {
                            line,
                            field: "src",
                            value: other.to_owned(),
                        })
                    }
                });
            }
            // Forward compatibility: ignore unknown fields.
            _ => {}
        }
    }
    Ok(CorrelatedEvent {
        num: num.ok_or(ParseError::MissingField { line, field: "num" })?,
        etype: etype.ok_or(ParseError::MissingField { line, field: "type" })?,
        pid: pid.ok_or(ParseError::MissingField { line, field: "pid" })?,
        tid: tid.ok_or(ParseError::MissingField { line, field: "tid" })?,
        timestamp: ts.ok_or(ParseError::MissingField { line, field: "ts" })?,
        frames: Vec::new(),
        truth,
    })
}

fn parse_u64(value: &str, field: &'static str, line: usize) -> Result<u64, ParseError> {
    value.parse().map_err(|_| ParseError::InvalidValue { line, field, value: value.to_owned() })
}

fn parse_u32(value: &str, field: &'static str, line: usize) -> Result<u32, ParseError> {
    value.parse().map_err(|_| ParseError::InvalidValue { line, field, value: value.to_owned() })
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition_events;
    use leaps_etw::logfmt::write_log;
    use leaps_etw::scenario::{GenParams, Scenario};
    use std::collections::HashSet;

    fn sample_log() -> String {
        let logs =
            Scenario::by_name("vim_reverse_tcp").unwrap().generate_events(&GenParams::small(), 3);
        write_log(&logs.mixed)
    }

    #[test]
    fn roundtrip_preserves_count_order_and_fields() {
        let logs =
            Scenario::by_name("vim_reverse_tcp").unwrap().generate_events(&GenParams::small(), 3);
        let parsed = parse_log(&write_log(&logs.mixed)).unwrap();
        assert_eq!(parsed.events.len(), logs.mixed.len());
        for (orig, parsed) in logs.mixed.iter().zip(&parsed.events) {
            assert_eq!(parsed.num, orig.num);
            assert_eq!(parsed.etype, orig.etype);
            assert_eq!(parsed.pid, orig.pid);
            assert_eq!(parsed.tid, orig.tid);
            assert_eq!(parsed.timestamp, orig.timestamp);
            assert_eq!(parsed.truth, Some(orig.truth));
            // Caller order restored; symbols and addresses intact.
            assert_eq!(parsed.frames.len(), orig.frames.len());
            for (pf, of) in parsed.frames.iter().zip(&orig.frames) {
                assert_eq!(pf.module, of.module);
                assert_eq!(pf.function, of.function);
                assert_eq!(pf.addr, of.addr);
            }
        }
    }

    #[test]
    fn frames_share_one_allocation_per_name() {
        let logs = Scenario::by_name("vim_reverse_tcp").unwrap().generate(&GenParams::paper(), 3);
        let strict = parse_log(&logs.mixed).unwrap().events;
        let lenient = parse_log_lenient(&logs.mixed).events;
        let partitioned = partition_events(&strict);
        for (events, partitioned) in [(&strict, &partitioned[..]), (&lenient, &[])] {
            let frames = || events.iter().flat_map(|e| &e.frames);
            let names = || frames().flat_map(|f| [&f.module, &f.function]);
            let mut first: HashMap<&str, &Name> = HashMap::new();
            for name in names() {
                let owner = first.entry(name.as_str()).or_insert(name);
                assert!(Name::ptr_eq(owner, name), "{name:?} is allocated more than once");
            }
            let allocations: HashSet<*const u8> = names().map(|n| n.as_ptr()).collect();
            assert_eq!(allocations.len(), first.len());
            assert!(frames().count() > 100 * first.len(), "{} names", first.len());
            let split = partitioned.iter().flat_map(|p| p.app_stack.iter().chain(&p.system_stack));
            for frame in split {
                assert!(Name::ptr_eq(&frame.module, first[frame.module.as_str()]));
                assert!(Name::ptr_eq(&frame.function, first[frame.function.as_str()]));
            }
        }
    }

    #[test]
    fn missing_header_is_rejected() {
        assert_eq!(parse_log("EVENT num=1\n"), Err(ParseError::MissingHeader));
        assert_eq!(parse_log(""), Err(ParseError::MissingHeader));
    }

    #[test]
    fn header_only_log_is_empty() {
        let parsed = parse_log("# LEAPS-ETL v1\n").unwrap();
        assert!(parsed.events.is_empty());
    }

    #[test]
    fn unterminated_event_is_diagnosed() {
        let raw = "# LEAPS-ETL v1\nEVENT num=7 type=FileRead pid=1 tid=2 ts=3\n";
        assert_eq!(parse_log(raw), Err(ParseError::UnterminatedEvent { num: 7 }));
    }

    #[test]
    fn stack_line_outside_event_is_rejected() {
        let raw = "# LEAPS-ETL v1\n  STACK 0x10 a!b\n";
        assert!(matches!(parse_log(raw), Err(ParseError::UnexpectedLine { line: 2, .. })));
    }

    #[test]
    fn missing_fields_are_diagnosed() {
        let raw = "# LEAPS-ETL v1\nEVENT num=1 pid=1 tid=2 ts=3\nEND\n";
        assert_eq!(parse_log(raw), Err(ParseError::MissingField { line: 2, field: "type" }));
    }

    #[test]
    fn invalid_event_type_is_diagnosed() {
        let raw = "# LEAPS-ETL v1\nEVENT num=1 type=Bogus pid=1 tid=2 ts=3\nEND\n";
        assert!(matches!(parse_log(raw), Err(ParseError::InvalidValue { field: "type", .. })));
    }

    #[test]
    fn invalid_address_is_diagnosed() {
        let raw =
            "# LEAPS-ETL v1\nEVENT num=1 type=FileRead pid=1 tid=2 ts=3\n  STACK 12 a!b\nEND\n";
        assert!(matches!(parse_log(raw), Err(ParseError::InvalidValue { field: "addr", .. })));
    }

    #[test]
    fn symbol_without_bang_is_diagnosed() {
        let raw =
            "# LEAPS-ETL v1\nEVENT num=1 type=FileRead pid=1 tid=2 ts=3\n  STACK 0x10 ab\nEND\n";
        assert!(matches!(parse_log(raw), Err(ParseError::InvalidValue { field: "symbol", .. })));
    }

    #[test]
    fn unknown_fields_and_comments_are_ignored() {
        let raw = "# LEAPS-ETL v1\n# a comment\nEVENT num=1 type=FileRead pid=1 tid=2 ts=3 cpu=4\n\nEND\n";
        let parsed = parse_log(raw).unwrap();
        assert_eq!(parsed.events.len(), 1);
        assert!(parsed.events[0].truth.is_none());
    }

    #[test]
    fn errors_display_with_context() {
        let err = ParseError::InvalidValue { line: 12, field: "addr", value: "zz".into() };
        let msg = err.to_string();
        assert!(msg.contains("12") && msg.contains("addr") && msg.contains("zz"));
    }

    #[test]
    fn large_log_parses() {
        let parsed = parse_log(&sample_log()).unwrap();
        assert!(parsed.events.len() >= 600);
    }

    #[test]
    fn lenient_matches_strict_on_clean_logs() {
        let raw = sample_log();
        let strict = parse_log(&raw).unwrap();
        let lenient = parse_log_lenient(&raw);
        assert_eq!(lenient.events, strict.events);
        assert!(lenient.stats.is_clean(), "{}", lenient.stats);
        assert_eq!(lenient.stats.parsed, strict.events.len());
    }

    #[test]
    fn lenient_quarantines_corrupt_record_and_resynchronizes() {
        let raw = "# LEAPS-ETL v1\n\
                   EVENT num=1 type=FileRead pid=1 tid=2 ts=3\n\
                   END\n\
                   EVENT num=2 type=FileRead pid=1 tid=2 ts=zz\n\
                   \x20 STACK 0x10 a!b\n\
                   END\n\
                   EVENT num=3 type=FileRead pid=1 tid=2 ts=5\n\
                   END\n";
        let got = parse_log_lenient(raw);
        assert_eq!(got.events.iter().map(|e| e.num).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(got.stats.quarantined, 1);
        assert_eq!(got.stats.class_count(ErrorClass::InvalidValue), 1);
        // The corrupt record's STACK and END lines are skipped silently.
        assert_eq!(got.stats.skipped_lines, 2);
    }

    #[test]
    fn lenient_quarantines_on_bad_stack_line() {
        let raw = "# LEAPS-ETL v1\n\
                   EVENT num=1 type=FileRead pid=1 tid=2 ts=3\n\
                   \x20 STACK nonsense a!b\n\
                   END\n\
                   EVENT num=2 type=FileRead pid=1 tid=2 ts=4\n\
                   END\n";
        let got = parse_log_lenient(raw);
        assert_eq!(got.events.iter().map(|e| e.num).collect::<Vec<_>>(), vec![2]);
        assert_eq!(got.stats.quarantined, 1);
        assert_eq!(got.stats.class_count(ErrorClass::InvalidValue), 1);
    }

    #[test]
    fn lenient_tolerates_missing_header() {
        let raw = "EVENT num=1 type=FileRead pid=1 tid=2 ts=3\nEND\n";
        let got = parse_log_lenient(raw);
        assert_eq!(got.events.len(), 1);
        assert_eq!(got.stats.class_count(ErrorClass::MissingHeader), 1);
        assert!(!got.stats.is_clean());
    }

    #[test]
    fn lenient_drops_only_the_truncated_tail_record() {
        let raw = "# LEAPS-ETL v1\n\
                   EVENT num=1 type=FileRead pid=1 tid=2 ts=3\n\
                   END\n\
                   EVENT num=2 type=FileRead pid=1 tid=2 ts=4\n\
                   \x20 STACK 0x10 a!b\n";
        let got = parse_log_lenient(raw);
        assert_eq!(got.events.iter().map(|e| e.num).collect::<Vec<_>>(), vec![1]);
        assert_eq!(got.stats.quarantined, 1);
        assert_eq!(got.stats.class_count(ErrorClass::UnterminatedEvent), 1);
    }

    #[test]
    fn lenient_back_to_back_events_quarantine_the_first() {
        let raw = "# LEAPS-ETL v1\n\
                   EVENT num=1 type=FileRead pid=1 tid=2 ts=3\n\
                   EVENT num=2 type=FileRead pid=1 tid=2 ts=4\n\
                   END\n";
        let got = parse_log_lenient(raw);
        assert_eq!(got.events.iter().map(|e| e.num).collect::<Vec<_>>(), vec![2]);
        assert_eq!(got.stats.class_count(ErrorClass::UnterminatedEvent), 1);
    }

    #[test]
    fn lenient_skips_stray_lines_and_interrupted_records() {
        let raw = "# LEAPS-ETL v1\n\
                   noise\n\
                   END\n\
                   EVENT num=1 type=FileRead pid=1 tid=2 ts=3\n\
                   garbage in the middle\n\
                   \x20 STACK 0x10 a!b\n\
                   END\n";
        let got = parse_log_lenient(raw);
        assert!(got.events.is_empty());
        assert_eq!(got.stats.quarantined, 1);
        // "noise", stray "END", "garbage...", plus the record's remaining
        // STACK and END lines skipped during resynchronization.
        assert_eq!(got.stats.skipped_lines, 5);
        assert!(got.stats.class_count(ErrorClass::UnexpectedLine) >= 3);
    }

    #[test]
    fn error_class_taxonomy_is_total() {
        let errors = [
            ParseError::MissingHeader,
            ParseError::UnexpectedLine { line: 1, content: "x".into() },
            ParseError::MissingField { line: 1, field: "num" },
            ParseError::InvalidValue { line: 1, field: "ts", value: "z".into() },
            ParseError::UnterminatedEvent { num: 1 },
        ];
        let classes: Vec<ErrorClass> = errors.iter().map(ParseError::class).collect();
        assert_eq!(classes, ErrorClass::ALL.to_vec());
        for class in ErrorClass::ALL {
            assert!(!class.label().is_empty());
            assert_eq!(ErrorClass::ALL[class.index()], class);
        }
    }

    #[test]
    fn recovery_stats_display_reports_classes() {
        let raw = "EVENT num=1 type=FileRead pid=1 tid=2 ts=zz\nEND\n";
        let got = parse_log_lenient(raw);
        let text = got.stats.to_string();
        assert!(text.contains("quarantined"), "{text}");
        assert!(text.contains("missing_header=1"), "{text}");
        assert!(text.contains("invalid_value=1"), "{text}");
    }
}
