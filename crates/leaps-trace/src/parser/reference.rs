//! The line-by-line parser that the interning reader replaced, kept as
//! the oracle the reader is compared with: it reads lines with
//! `str::lines`, trims and splits them with `str::trim` and
//! `str::split_whitespace`, and allocates two strings per frame.

use super::{CorrelatedEvent, CorrelatedLog, ErrorClass, ParseError, RecoveredLog, RecoveryStats};
use leaps_etw::addr::Va;
use leaps_etw::event::{EventType, Provenance, StackFrame};
use leaps_etw::logfmt::HEADER;

#[path = "../../tests/support/mod.rs"]
mod support;

pub fn parse_log_lenient(raw: &str) -> RecoveredLog {
    let mut stats = RecoveryStats::default();
    let mut events = Vec::new();
    let mut lines = raw.lines().enumerate().peekable();
    match lines.peek() {
        Some((_, first)) if first.trim() == HEADER => {
            lines.next();
        }
        _ => stats.count(ErrorClass::MissingHeader),
    }

    let mut current: Option<CorrelatedEvent> = None;
    // After an error inside a record, skip lines until the next EVENT.
    let mut resyncing = false;
    let quarantine = |stats: &mut RecoveryStats, class: ErrorClass| {
        stats.count(class);
        stats.quarantined += 1;
    };

    for (idx, line) in lines {
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix("EVENT ") {
            if current.take().is_some() {
                // The previous record never reached its END.
                quarantine(&mut stats, ErrorClass::UnterminatedEvent);
            }
            resyncing = false;
            match parse_event_header(rest, line_no) {
                Ok(ev) => current = Some(ev),
                Err(e) => {
                    quarantine(&mut stats, e.class());
                    resyncing = true;
                }
            }
        } else if resyncing {
            stats.skipped_lines += 1;
        } else if let Some(rest) = trimmed.strip_prefix("STACK ") {
            match current.as_mut() {
                Some(ev) => match parse_stack_line(rest, line_no) {
                    Ok(frame) => ev.frames.push(frame),
                    Err(e) => {
                        quarantine(&mut stats, e.class());
                        current = None;
                        resyncing = true;
                    }
                },
                None => {
                    stats.count(ErrorClass::UnexpectedLine);
                    stats.skipped_lines += 1;
                }
            }
        } else if trimmed == "END" {
            match current.take() {
                Some(mut ev) => {
                    ev.frames.reverse();
                    events.push(ev);
                    stats.parsed += 1;
                }
                None => {
                    stats.count(ErrorClass::UnexpectedLine);
                    stats.skipped_lines += 1;
                }
            }
        } else {
            // Unrecognizable line: if it interrupts a record, the record
            // can no longer be trusted.
            stats.count(ErrorClass::UnexpectedLine);
            stats.skipped_lines += 1;
            if current.take().is_some() {
                stats.quarantined += 1;
                resyncing = true;
            }
        }
    }
    if current.is_some() {
        quarantine(&mut stats, ErrorClass::UnterminatedEvent);
    }
    RecoveredLog { events, stats }
}

pub fn parse_log(raw: &str) -> Result<CorrelatedLog, ParseError> {
    let mut lines = raw.lines().enumerate();
    match lines.next() {
        Some((_, first)) if first.trim() == HEADER => {}
        _ => return Err(ParseError::MissingHeader),
    }

    let mut events = Vec::new();
    let mut current: Option<(CorrelatedEvent, usize)> = None;

    for (idx, line) in lines {
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix("EVENT ") {
            if let Some((ev, _)) = current.take() {
                return Err(ParseError::UnterminatedEvent { num: ev.num });
            }
            current = Some((parse_event_header(rest, line_no)?, line_no));
        } else if let Some(rest) = trimmed.strip_prefix("STACK ") {
            let Some((event, _)) = current.as_mut() else {
                return Err(ParseError::UnexpectedLine {
                    line: line_no,
                    content: truncate(trimmed),
                });
            };
            event.frames.push(parse_stack_line(rest, line_no)?);
        } else if trimmed == "END" {
            let Some((mut event, _)) = current.take() else {
                return Err(ParseError::UnexpectedLine {
                    line: line_no,
                    content: truncate(trimmed),
                });
            };
            // On-disk order is innermost first; restore caller order.
            event.frames.reverse();
            events.push(event);
        } else {
            return Err(ParseError::UnexpectedLine { line: line_no, content: truncate(trimmed) });
        }
    }
    if let Some((ev, _)) = current {
        return Err(ParseError::UnterminatedEvent { num: ev.num });
    }
    Ok(CorrelatedLog { events })
}

fn truncate(s: &str) -> String {
    s.chars().take(60).collect()
}

fn parse_event_header(rest: &str, line: usize) -> Result<CorrelatedEvent, ParseError> {
    let mut num = None;
    let mut etype = None;
    let mut pid = None;
    let mut tid = None;
    let mut ts = None;
    let mut truth = None;
    for token in rest.split_whitespace() {
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

fn parse_stack_line(rest: &str, line: usize) -> Result<StackFrame, ParseError> {
    let mut parts = rest.split_whitespace();
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
    let (module, function) = sym.split_once('!').ok_or_else(|| ParseError::InvalidValue {
        line,
        field: "symbol",
        value: sym.to_owned(),
    })?;
    // `in_app_image` is assigned by the partition module; default false.
    Ok(StackFrame::new(module, function, Va(addr), false))
}

#[cfg(test)]
mod tests {
    use super::support::{event_log, fault_plan};
    use crate::parser::{parse_log, parse_log_lenient};
    use leaps_etw::logfmt::write_log;
    use leaps_etw::rng::SimRng;
    use leaps_etw::scenario::{GenParams, Scenario};
    use leaps_faults::inject;
    use proptest::prelude::*;

    /// Both parsers, strict and lenient, give the reference's result:
    /// the same events, or the same error variant, field and line, and
    /// the same recovery statistics.
    fn assert_matches_reference(raw: &str) {
        assert_eq!(parse_log(raw), super::parse_log(raw), "strict parse of {raw:?}");
        assert_eq!(
            parse_log_lenient(raw),
            super::parse_log_lenient(raw),
            "lenient parse of {raw:?}"
        );
    }

    /// Whitespace that `char::is_whitespace` accepts, ASCII and not, and
    /// U+FEFF, which it does not.
    const SPACES: [&str; 11] = [
        " ", "\t", "\x0B", "\x0C", "\r", "\u{A0}", "\u{85}", "\u{1680}", "\u{2003}", "\u{3000}",
        "\u{FEFF}",
    ];

    /// Rewrites the whitespace of a raw log line by line: CRLF endings,
    /// tab indentation, other separators between fields (after the
    /// `EVENT`/`STACK` keyword too), leading and trailing runs, and
    /// inserted blank and `#` lines.
    fn mutate_whitespace(raw: &str, seed: u64) -> String {
        let mut rng = SimRng::new(seed);
        let mut out = String::with_capacity(raw.len() * 2);
        for line in raw.lines() {
            let kind = rng.below(10);
            let a = SPACES[rng.below(SPACES.len())];
            let b = SPACES[rng.below(SPACES.len())];
            let line = match kind {
                0 => format!("{line}\r"),
                1 => format!("\t{}", line.trim_start()),
                2 => line.replacen(' ', a, 2),
                3 => match line.trim_start().split_once(' ') {
                    Some((keyword, rest)) => format!("{keyword} {}", rest.replace(' ', b)),
                    None => line.to_owned(),
                },
                4 => format!("{line}{a}{b}"),
                5 => format!("{a}{b}{line}"),
                6 => format!("{a}\n{line}"),
                7 => format!("{b}# a comment\n{line}"),
                8 => format!("{a}{line}{b}\r"),
                _ => line.to_owned(),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn faulted_logs_parse_as_the_reference_does(
            events in event_log(),
            plan in fault_plan(),
            seed in prop::num::u64::ANY,
        ) {
            let raw = write_log(&events);
            assert_matches_reference(&raw);
            assert_matches_reference(&inject(&raw, &plan, seed).0);
        }

        #[test]
        fn whitespace_mutations_parse_as_the_reference_does(
            events in event_log(),
            plan in fault_plan(),
            seed in prop::num::u64::ANY,
        ) {
            let raw = write_log(&events);
            assert_matches_reference(&mutate_whitespace(&raw, seed));
            let damaged = inject(&raw, &plan, seed).0;
            assert_matches_reference(&mutate_whitespace(&damaged, seed ^ 1));
        }
    }

    #[test]
    fn hand_written_whitespace_parses_as_the_reference_does() {
        let event = "EVENT num=1 type=FileRead pid=1 tid=2 ts=3";
        for space in SPACES {
            for raw in [
                format!("# LEAPS-ETL v1{space}\n{event}\n  STACK 0x10{space}a!b\nEND{space}\n"),
                format!(
                    "{space}# LEAPS-ETL v1\r\n{event}{space}\r\nSTACK{space}0x10 a!b\r\nEND\r\n"
                ),
                format!("# LEAPS-ETL v1\n{space}\n{space}#{event}\n{event}\nEND\n{space}END\n"),
                format!("# LEAPS-ETL v1\nEVENT{space}num=1 type=FileRead pid=1 tid=2 ts=3\nEND\n"),
                format!("# LEAPS-ETL v1\n{event}\nSTACK 0x10 a!b{space}extra\n{space}{space}\n"),
                format!("# LEAPS-ETL{space}v1\n{event}\nEND"),
                format!("\n# LEAPS-ETL v1\n{event}\nEND\n"),
            ] {
                assert_matches_reference(&raw);
            }
        }
        for raw in ["", "\n", "\r\n", "\r", "# LEAPS-ETL v1", "# LEAPS-ETL v1\r", "END\n"] {
            assert_matches_reference(raw);
        }
    }

    #[test]
    fn paper_scale_logs_parse_as_the_reference_does() {
        for name in ["vim_reverse_tcp", "putty_codeinject", "chrome_reverse_https"] {
            let logs = Scenario::by_name(name).unwrap().generate(&GenParams::paper(), 3);
            for raw in [&logs.benign, &logs.mixed, &logs.malicious] {
                assert_matches_reference(raw);
            }
        }
    }
}
