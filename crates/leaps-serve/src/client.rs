//! A synchronous protocol client, used by `leaps submit`, the
//! `serve_session` example and the smoke tests.
//!
//! Every command is acknowledged by exactly one `OK`/`BUSY`/`ERR` line;
//! asynchronous `VERDICT` lines may interleave before the
//! acknowledgement. [`Client::request`] hides that: it sends one
//! command, collects any verdicts that arrive, and returns the
//! acknowledgement.

use crate::daemon::{Endpoint, Stream};
use crate::proto::{Command, Reply};
use leaps_core::error::LeapsError;
use leaps_core::stream::Verdict;
use leaps_obs::Snapshot;
use std::io::{BufRead, BufReader, Write};

/// A connected protocol client.
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// [`LeapsError::Protocol`] if the connection fails.
    pub fn connect(endpoint: &Endpoint) -> Result<Client, LeapsError> {
        let stream = endpoint.connect()?;
        let read_half = stream
            .try_clone()
            .map_err(|e| LeapsError::protocol(format!("cloning stream to {endpoint}: {e}")))?;
        Ok(Client { reader: BufReader::new(read_half), writer: stream })
    }

    /// Sends one command line.
    ///
    /// # Errors
    ///
    /// [`LeapsError::Protocol`] on a write failure.
    pub fn send(&mut self, command: &Command) -> Result<(), LeapsError> {
        writeln!(self.writer, "{}", command.to_line())
            .and_then(|()| self.writer.flush())
            .map_err(|e| LeapsError::protocol(format!("sending {:?}: {e}", command.to_line())))
    }

    /// Reads the next reply line (blocking).
    ///
    /// # Errors
    ///
    /// [`LeapsError::Protocol`] on EOF, a read failure or an unparsable
    /// line.
    pub fn next_reply(&mut self) -> Result<Reply, LeapsError> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| LeapsError::protocol(format!("reading reply: {e}")))?;
        if n == 0 {
            return Err(LeapsError::protocol("connection closed by server"));
        }
        Ok(Reply::parse_line(&line)?)
    }

    /// Sends `command` and reads until its acknowledgement, appending
    /// interleaved verdicts (with their session pid) to `verdicts`.
    ///
    /// # Errors
    ///
    /// [`LeapsError::Protocol`] on transport failure; the
    /// acknowledgement itself (possibly `ERR` or `BUSY`) is returned,
    /// not raised.
    pub fn request(
        &mut self,
        command: &Command,
        verdicts: &mut Vec<(u32, Verdict)>,
    ) -> Result<Reply, LeapsError> {
        self.send(command)?;
        loop {
            match self.next_reply()? {
                Reply::Verdict { pid, verdict } => verdicts.push((pid, verdict)),
                ack => return Ok(ack),
            }
        }
    }

    /// Like [`Client::request`], but raises a non-`OK` acknowledgement
    /// as a protocol error and returns the `OK` detail. Use for
    /// commands that must succeed (`HELLO`, `OPEN`, `CLOSE`, ...), not
    /// for `EVENT` where `BUSY` is a legitimate answer.
    ///
    /// # Errors
    ///
    /// [`LeapsError::Protocol`] on transport failure or a non-`OK`
    /// acknowledgement.
    pub fn expect_ok(
        &mut self,
        command: &Command,
        verdicts: &mut Vec<(u32, Verdict)>,
    ) -> Result<String, LeapsError> {
        match self.request(command, verdicts)? {
            Reply::Ok { detail } => Ok(detail),
            other => Err(LeapsError::protocol(format!(
                "{:?} answered {:?}",
                command.to_line(),
                other.to_line()
            ))),
        }
    }

    /// Sends `METRICS [reset]` and reads the whole dump: the
    /// `OK metrics n=<k>` acknowledgement (interleaved verdicts go to
    /// `verdicts`, as in [`Client::request`]) followed by exactly `k`
    /// `METRIC` lines, reassembled into a [`Snapshot`].
    ///
    /// # Errors
    ///
    /// [`LeapsError::Protocol`] on transport failure, a non-`OK`
    /// acknowledgement, a malformed count, or a non-`METRIC` line inside
    /// the announced block.
    pub fn fetch_metrics(
        &mut self,
        reset: bool,
        verdicts: &mut Vec<(u32, Verdict)>,
    ) -> Result<Snapshot, LeapsError> {
        let detail = self.expect_ok(&Command::Metrics { reset }, verdicts)?;
        let count: usize = detail
            .split_ascii_whitespace()
            .find_map(|tok| tok.strip_prefix("n="))
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| {
                LeapsError::protocol(format!("bad METRICS acknowledgement {detail:?}"))
            })?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            match self.next_reply()? {
                Reply::Metric { metric } => entries.push(metric),
                other => {
                    return Err(LeapsError::protocol(format!(
                        "expected METRIC line, got {:?}",
                        other.to_line()
                    )))
                }
            }
        }
        Ok(Snapshot { entries })
    }
}
