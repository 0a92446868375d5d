//! The raw ETL-like textual log format.
//!
//! A real ETW trace is a binary ETL file; LEAPS's front end parses it into
//! stack-event correlated records. We define an equivalent textual format
//! so that `leaps-trace` has a genuine parsing job with realistic
//! properties: stack frames are recorded **innermost first** (as a stack
//! walker reports return addresses), events carry header fields in
//! `key=value` form, and malformed lines are possible and must be
//! diagnosed.
//!
//! ```text
//! # LEAPS-ETL v1
//! EVENT num=1 type=TcpSend pid=1476 tid=256 ts=17 src=benign
//!   STACK 0xfffff80002003000 tcpip!TcpSendData
//!   STACK 0xfffff80001002000 afd!AfdSend
//!   ...
//!   STACK 0x0000000140001080 vim!main
//! END
//! ```
//!
//! The `src=` field is ground-truth provenance used **only** by evaluation
//! code (confusion matrices); the detection pipeline never reads it.

use crate::event::SysEvent;
use std::fmt::Write as _;

/// Magic first line of a raw log.
pub const HEADER: &str = "# LEAPS-ETL v1";

/// Serializes events into the raw log format.
///
/// Frames are written innermost-first (reverse of the in-memory caller
/// order), as a stack walker would report them.
#[must_use]
pub fn write_log(events: &[SysEvent]) -> String {
    // Rough size pre-allocation: ~64 bytes/line, ~12 lines/event.
    let mut out = String::with_capacity(events.len() * 64 * 12 + 32);
    out.push_str(HEADER);
    out.push('\n');
    for event in events {
        let src = match event.truth {
            crate::event::Provenance::Benign => "benign",
            crate::event::Provenance::Malicious => "malicious",
        };
        let _ = writeln!(
            out,
            "EVENT num={} type={} pid={} tid={} ts={} src={}",
            event.num, event.etype, event.pid, event.tid, event.timestamp, src
        );
        for frame in event.frames.iter().rev() {
            let _ = writeln!(out, "  STACK 0x{:016x} {}", frame.addr.0, frame.symbol());
        }
        out.push_str("END\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Va;
    use crate::event::{EventType, Provenance, StackFrame};

    fn sample_event() -> SysEvent {
        SysEvent {
            num: 3,
            etype: EventType::TcpSend,
            pid: 10,
            tid: 20,
            timestamp: 99,
            frames: vec![
                StackFrame::new("vim", "main", Va(0x1000), true),
                StackFrame::new("ws2_32", "send", Va(0x7000), false),
            ],
            truth: Provenance::Malicious,
        }
    }

    #[test]
    fn log_starts_with_header() {
        let log = write_log(&[sample_event()]);
        assert!(log.starts_with(HEADER));
    }

    #[test]
    fn frames_are_written_innermost_first() {
        let log = write_log(&[sample_event()]);
        let lines: Vec<&str> = log.lines().collect();
        assert!(lines[1].starts_with("EVENT num=3 type=TcpSend"));
        assert!(lines[1].contains("src=malicious"));
        assert!(lines[2].contains("ws2_32!send"), "{}", lines[2]);
        assert!(lines[3].contains("vim!main"));
        assert_eq!(lines[4], "END");
    }

    #[test]
    fn empty_log_is_just_header() {
        assert_eq!(write_log(&[]), format!("{HEADER}\n"));
    }
}
