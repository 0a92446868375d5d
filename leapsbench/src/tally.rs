//! Counting attempted and failed operations against the daemon.
//!
//! A failed operation is a `BUSY` (the daemon shed an event), an `ERR`
//! acknowledgement, a verdict that never arrived, or a verdict that
//! differs from the standalone detector's.

/// How the daemon acknowledged one command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ack {
    Ok,
    Busy,
    Err,
}

impl Ack {
    /// Classifies an acknowledgement line; `None` for anything else.
    pub fn parse(line: &str) -> Option<Ack> {
        let verb = line.split(' ').next().unwrap_or_default();
        match verb {
            "OK" => Some(Ack::Ok),
            "BUSY" => Some(Ack::Busy),
            "ERR" => Some(Ack::Err),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Events sent.
    pub sent: u64,
    /// Events acknowledged `OK`.
    pub accepted: u64,
    /// Verdicts received.
    pub verdicts: u64,
    pub busy: u64,
    pub err: u64,
    pub missing: u64,
    pub mismatched: u64,
}

impl Tally {
    /// Counts the acknowledgement of one command (events and session
    /// commands alike: an `ERR` on `OPEN` or `CLOSE` is a failure too).
    pub fn ack(&mut self, ack: Ack, is_event: bool) {
        match ack {
            Ack::Ok if is_event => self.accepted += 1,
            Ack::Ok => {}
            Ack::Busy => self.busy += 1,
            Ack::Err => self.err += 1,
        }
    }

    /// Compares a received verdict line with the standalone detector's
    /// (`None` when the standalone detector emitted no further verdict).
    /// Returns whether they match bit for bit.
    pub fn verdict(&mut self, expected: Option<&str>, got: &str) -> bool {
        self.verdicts += 1;
        let matches = expected == Some(got);
        if !matches {
            self.mismatched += 1;
        }
        matches
    }

    /// Settles a closed session: every verdict the standalone detector
    /// emits for the events sent must have arrived before the close.
    pub fn close(&mut self, expected: usize, received: usize) {
        self.missing += expected.saturating_sub(received) as u64;
    }

    pub fn failed(&self) -> u64 {
        self.busy + self.err + self.missing + self.mismatched
    }

    pub fn merge(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.accepted += other.accepted;
        self.verdicts += other.verdicts;
        self.busy += other.busy;
        self.err += other.err;
        self.missing += other.missing;
        self.mismatched += other.mismatched;
    }

    pub fn describe(&self) -> String {
        format!(
            "sent={} succeeded={} failed={} (busy={} err={} missing={} mismatched={}) verdicts={}",
            self.sent,
            self.accepted,
            self.failed(),
            self.busy,
            self.err,
            self.missing,
            self.mismatched,
            self.verdicts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_acknowledgements() {
        assert_eq!(Ack::parse("OK event"), Some(Ack::Ok));
        assert_eq!(Ack::parse("BUSY pid=3 shed=1"), Some(Ack::Busy));
        assert_eq!(Ack::parse("ERR proto no session"), Some(Ack::Err));
        assert_eq!(Ack::parse("VERDICT pid=3 num=1 benign=1 score=- degraded=0"), None);
    }

    #[test]
    fn counts_each_failure_kind() {
        let mut t = Tally { sent: 6, ..Tally::default() };
        t.ack(Ack::Ok, true);
        t.ack(Ack::Ok, true);
        t.ack(Ack::Busy, true);
        t.ack(Ack::Err, true);
        t.ack(Ack::Err, false); // a refused OPEN
        assert!(t.verdict(
            Some("num=2 benign=1 score=0.5 degraded=0"),
            "num=2 benign=1 score=0.5 degraded=0"
        ));
        assert!(!t.verdict(
            Some("num=4 benign=1 score=0.5 degraded=0"),
            "num=4 benign=0 score=-0.5 degraded=0"
        ));
        assert!(!t.verdict(None, "num=6 benign=1 score=0.5 degraded=0"));
        t.close(3, 3);
        t.close(5, 2);
        assert_eq!((t.accepted, t.busy, t.err, t.mismatched, t.missing), (2, 1, 2, 2, 3));
        assert_eq!(t.failed(), 8);
        assert_eq!(t.verdicts, 3);
    }

    #[test]
    fn clean_run_has_no_failures_and_merges() {
        let mut a = Tally { sent: 10, accepted: 10, verdicts: 5, ..Tally::default() };
        a.close(5, 5);
        let mut total = Tally::default();
        total.merge(&a);
        total.merge(&a);
        assert_eq!(total.failed(), 0);
        assert_eq!((total.sent, total.accepted, total.verdicts), (20, 20, 10));
    }
}
