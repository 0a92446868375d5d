//! The `leaps-serve` line protocol.
//!
//! Every message is one UTF-8 line (`\n`-terminated, no embedded
//! newlines); the daemon answers a line that is not UTF-8 with
//! `ERR proto` and keeps the connection, as for any malformed line. A
//! client drives the session state machine:
//!
//! ```text
//! client → server                      server → client
//! ---------------                      ---------------
//! HELLO <client-id>                    OK hello <info>
//! OPEN pid=<pid> model=<name>          OK open ... | ERR <family> <msg>
//! EVENT pid=<pid> <event-body>         OK event | BUSY pid=<pid> shed=<n>
//!                                      VERDICT pid=<pid> <verdict-body>   (async)
//! STATS [pid=<pid>]                    OK stats <counters>
//! HEALTH                               OK health <liveness counters>
//! METRICS [reset]                      OK metrics n=<k>  +  k × `METRIC <metric-line>`
//! RELOAD model=<name>                  OK reload ... | ERR ...
//! CLOSE pid=<pid>                      OK close <final counters>
//! SHUTDOWN                             OK shutdown
//! BYE                                  OK bye
//! PANIC [shard=<n>]                    OK panic ...   (chaos hook, LEAPS_CHAOS=1 only)
//! ```
//!
//! `HEALTH` is the supervisor probe: worker liveness plus the
//! self-healing counters (`pool.panics`, `serve.reaped`), session and
//! registry state, and the idle policy
//! (`idle_secs`, `0` = disabled). `METRICS` dumps the server's own
//! `leaps-obs` registry, one `METRIC` line per metric in the stable
//! one-metric-per-line snapshot format (`leaps_obs::snapshot`), count
//! announced up front in the `OK metrics n=<k>` acknowledgement; the
//! whole block is written under one writer lock so verdicts never
//! interleave inside it. With `reset`, counters and histograms are
//! zeroed *after* the snapshot is taken (gauges are levels and keep
//! their value) — the counters `HEALTH` shows among them, since both
//! read the same registry. Both probes are allowed before `HELLO`.
//! `PANIC` deliberately crashes one pool job to exercise supervision;
//! the daemon refuses it unless it was started with `LEAPS_CHAOS=1` in
//! the environment.
//!
//! # Counter vocabulary
//!
//! `STATS`, `CLOSE`, `HEALTH` and `METRICS` share **one naming scheme**:
//! dotted `layer.name` tokens, identical whether they appear as a
//! `key=value` field in an acknowledgement or as a metric line in a
//! `METRICS` dump.
//!
//! | layer       | names                                                                  |
//! |-------------|------------------------------------------------------------------------|
//! | `pool.*`    | `pool.workers`, `pool.jobs`, `pool.panics`, `pool.queue.<shard>`       |
//! | `serve.*`   | `serve.sessions`, `serve.opened`, `serve.closed`, `serve.reaped`, `serve.events`, `serve.shed`, `serve.verdicts`, `serve.degraded` |
//! | `registry.*`| `registry.models`, `registry.cached_bytes`, `registry.loads`, `registry.hits`, `registry.evictions` |
//! | `proto.*`   | `proto.<verb>.us` per-command daemon latency histograms                 |
//! | `session.*` | per-session lifetime counters: `session.queued`, `session.submitted`, `session.shed`, `session.verdicts` |
//! | `stream.*`  | per-session stream health: `stream.accepted`, `stream.duplicates`, `stream.gaps`, `stream.missing`, `stream.reordered`, `stream.degraded` |
//! | `train.*` / `ckpt.*` / `sweep.*` | training-side metrics, in the process-global registry; never in a daemon's `METRICS` |
//!
//! `session.*`/`stream.*` are per-session and therefore appear only in
//! `STATS pid=`/`CLOSE` acknowledgements; everything else is per-server:
//! it lives in the server's own metrics registry, appears in `METRICS`,
//! and `HEALTH` and server-wide `STATS` read their fields from the same
//! snapshot.
//!
//! Every command receives exactly one acknowledgement (`OK`, `BUSY` or
//! `ERR`); `VERDICT` lines are pushed asynchronously by pool workers and
//! may interleave between acknowledgements (never mid-line — the
//! connection writer is a mutex). The verdict body is
//! [`Verdict::to_line`]; the event body is [`encode_event`].
//!
//! Sessions are keyed `(client, pid)`: one client id (from `HELLO`) may
//! stream many processes concurrently over one connection. The id is a
//! name, not an identity: `EVENT`, `STATS pid=` and `CLOSE` reach only
//! the sessions their own connection opened; any other pid, one opened
//! by another connection under the same id included, is `no session`.

use leaps_core::error::LeapsError;
use leaps_core::pipeline::Classifier;
use leaps_core::stream::{EncodeScratch, Encoded, Verdict};
use leaps_etw::event::{EventType, Provenance, StackFrame};
use leaps_etw::Va;
use leaps_trace::partition::PartitionedEvent;
use std::fmt;

/// Protocol identity sent in the `OK hello` acknowledgement and checked
/// nowhere else — a human-readable version marker.
pub const PROTOCOL_VERSION: &str = "leaps-serve v1";

/// A malformed protocol line (either direction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// What was wrong, in one line.
    pub message: String,
}

impl ProtoError {
    fn new(message: impl Into<String>) -> ProtoError {
        ProtoError { message: message.into() }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ProtoError {}

impl From<ProtoError> for LeapsError {
    fn from(e: ProtoError) -> LeapsError {
        LeapsError::protocol(e.message)
    }
}

/// Validates a client or model name: non-empty, `[A-Za-z0-9_.-]` only,
/// not starting with a dot (keeps registry names inside the model
/// directory and protocol lines single-token).
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with('.')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'))
}

// ---------------------------------------------------------------- events

/// Encodes a partitioned event as the single-line `EVENT` body:
///
/// ```text
/// num=7 type=TcpSend tid=3 src=benign app=vim!main@140001080@1 sys=...
/// ```
///
/// Frames are comma-separated `module!function@hexaddr@inapp` tokens in
/// caller order; empty stacks are written `-`. The `src` ground-truth
/// tag is carried for evaluation tooling only, exactly like the raw log
/// format's `src=` field.
#[must_use]
pub fn encode_event(event: &PartitionedEvent) -> String {
    let src = match event.truth {
        Some(Provenance::Benign) => "benign",
        Some(Provenance::Malicious) => "malicious",
        None => "-",
    };
    format!(
        "num={} type={} tid={} src={src} app={} sys={}",
        event.num,
        event.etype,
        event.tid,
        encode_frames(&event.app_stack),
        encode_frames(&event.system_stack)
    )
}

fn encode_frames(frames: &[StackFrame]) -> String {
    if frames.is_empty() {
        return "-".to_owned();
    }
    let tokens: Vec<String> = frames
        .iter()
        .map(|f| format!("{}!{}@{:x}@{}", f.module, f.function, f.addr.0, u8::from(f.in_app_image)))
        .collect();
    tokens.join(",")
}

/// Decodes an `EVENT` body produced by [`encode_event`].
///
/// # Errors
///
/// Returns [`ProtoError`] on any missing field, unknown key or malformed
/// token.
pub fn decode_event(body: &str) -> Result<PartitionedEvent, ProtoError> {
    Ok(EventBody::parse(body)?.to_event())
}

/// An `EVENT` body whose every field and frame token has been checked,
/// with both stacks still borrowed from the line. [`decode_event`] builds
/// the owned event from it; the daemon encodes the system stack's names
/// straight from it ([`EventBody::encode`]) and never builds the event.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EventBody<'a> {
    num: u64,
    etype: EventType,
    tid: u32,
    truth: Option<Provenance>,
    app: &'a str,
    sys: &'a str,
}

impl<'a> EventBody<'a> {
    /// Checks an `EVENT` body, field by field in line order, so the first
    /// fault named is the first one in the line.
    pub(crate) fn parse(body: &'a str) -> Result<EventBody<'a>, ProtoError> {
        let mut num = None;
        let mut etype = None;
        let mut tid = None;
        let mut truth = None;
        let mut app = None;
        let mut sys = None;
        for token in body.split_ascii_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| ProtoError::new(format!("bare token {token:?}")))?;
            match key {
                "num" => {
                    num = Some(value.parse().map_err(|_| ProtoError::new("bad num"))?);
                }
                "type" => {
                    etype =
                        Some(EventType::from_name(value).ok_or_else(|| {
                            ProtoError::new(format!("unknown event type {value:?}"))
                        })?);
                }
                "tid" => {
                    tid = Some(value.parse().map_err(|_| ProtoError::new("bad tid"))?);
                }
                "src" => {
                    truth = Some(match value {
                        "benign" => Some(Provenance::Benign),
                        "malicious" => Some(Provenance::Malicious),
                        "-" => None,
                        other => return Err(ProtoError::new(format!("bad src {other:?}"))),
                    });
                }
                "app" => app = Some(check_frames(value)?),
                "sys" => sys = Some(check_frames(value)?),
                other => return Err(ProtoError::new(format!("unknown event field {other:?}"))),
            }
        }
        let missing = |field| move || ProtoError::new(format!("event body missing {field}"));
        Ok(EventBody {
            num: num.ok_or_else(missing("num"))?,
            etype: etype.ok_or_else(missing("type"))?,
            tid: tid.ok_or_else(missing("tid"))?,
            truth: truth.ok_or_else(missing("src"))?,
            app: app.ok_or_else(missing("app"))?,
            sys: sys.ok_or_else(missing("sys"))?,
        })
    }

    /// The event's sequence number.
    pub(crate) fn num(&self) -> u64 {
        self.num
    }

    /// The system stack's names in caller order: each frame's module and
    /// its `module!function` symbol, both slices of the line.
    pub(crate) fn sys_names(&self) -> impl Iterator<Item = (&'a str, &'a str)> {
        frames(self.sys).map_while(Result::ok).map(|frame| (frame.module(), frame.symbol))
    }

    /// The detector item of this event under `classifier`, encoded from
    /// the borrowed system-stack names: the item
    /// [`Classifier::encode`] gives the decoded event.
    pub(crate) fn encode(&self, classifier: &Classifier, scratch: &mut EncodeScratch) -> Encoded {
        classifier.encode_frames(scratch, self.etype, self.sys_names())
    }

    /// The owned event.
    pub(crate) fn to_event(self) -> PartitionedEvent {
        let owned = |text| frames(text).map_while(Result::ok).map(Frame::to_stack_frame).collect();
        PartitionedEvent {
            num: self.num,
            etype: self.etype,
            tid: self.tid,
            truth: self.truth,
            app_stack: owned(self.app),
            system_stack: owned(self.sys),
        }
    }
}

/// One `module!function@hexaddr@inapp` frame token, borrowed.
#[derive(Debug, Clone, Copy)]
struct Frame<'a> {
    /// `module!function`.
    symbol: &'a str,
    /// Byte length of the module name, the part of `symbol` before its
    /// first `!`.
    module_len: usize,
    addr: u64,
    in_app: bool,
}

impl<'a> Frame<'a> {
    fn module(&self) -> &'a str {
        &self.symbol[..self.module_len]
    }

    fn to_stack_frame(self) -> StackFrame {
        let function = &self.symbol[self.module_len + 1..];
        StackFrame::new(self.module(), function, Va(self.addr), self.in_app)
    }
}

/// The frame tokenizer: the frames of one stack field, comma-separated
/// tokens in caller order, or none for `-`.
fn frames(text: &str) -> impl Iterator<Item = Result<Frame<'_>, ProtoError>> {
    let tokens = if text == "-" { None } else { Some(text.split(',')) };
    tokens.into_iter().flatten().map(parse_frame)
}

/// Checks every frame token of a stack field, returning the field.
fn check_frames(text: &str) -> Result<&str, ProtoError> {
    for frame in frames(text) {
        frame?;
    }
    Ok(text)
}

fn parse_frame(token: &str) -> Result<Frame<'_>, ProtoError> {
    // Split from the right: addr and flag are the last two `@` fields,
    // whatever characters the symbol itself contains. Every delimiter is
    // ASCII, so a byte scan finds it.
    let bad = || ProtoError::new(format!("bad frame token {token:?}"));
    let bytes = token.as_bytes();
    let flag_at = bytes.iter().rposition(|&b| b == b'@').ok_or_else(bad)?;
    let addr_at = bytes[..flag_at].iter().rposition(|&b| b == b'@').ok_or_else(bad)?;
    let in_app = match &bytes[flag_at + 1..] {
        b"0" => false,
        b"1" => true,
        _ => return Err(bad()),
    };
    let addr = u64::from_str_radix(&token[addr_at + 1..flag_at], 16).map_err(|_| bad())?;
    let symbol = &token[..addr_at];
    let module_len = symbol
        .bytes()
        .position(|b| b == b'!')
        .ok_or_else(|| ProtoError::new(format!("frame symbol {symbol:?} lacks `!`")))?;
    Ok(Frame { symbol, module_len, addr, in_app })
}

// -------------------------------------------------------------- commands

/// A parsed client → server command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Introduces the client id that keys this connection's sessions.
    /// Two connections may send the same id; each reaches only the sessions it opened.
    Hello {
        /// Client identity (one token, [`valid_name`]).
        client: String,
    },
    /// Opens the `(client, pid)` session against a registry model.
    Open {
        /// Process id of the monitored stream.
        pid: u32,
        /// Registry model name.
        model: String,
    },
    /// Feeds one event into an open session.
    Event {
        /// Session pid.
        pid: u32,
        /// The event.
        event: PartitionedEvent,
    },
    /// Drains and closes a session.
    Close {
        /// Session pid.
        pid: u32,
    },
    /// Server-wide (`pid` absent) or per-session counters.
    Stats {
        /// Session pid, or `None` for server-wide stats.
        pid: Option<u32>,
    },
    /// Hot-reloads a registry model from disk.
    Reload {
        /// Registry model name.
        model: String,
    },
    /// Probes daemon liveness: worker, panic, session, reap and registry
    /// counters plus the idle policy.
    Health,
    /// Dumps the full `leaps-obs` metrics registry (optionally zeroing
    /// counters and histograms after the snapshot).
    Metrics {
        /// Whether to reset counters/histograms after snapshotting.
        reset: bool,
    },
    /// Asks the daemon to drain every session and exit.
    Shutdown,
    /// Ends the connection (open sessions are drained and closed).
    Bye,
    /// Chaos hook: crash one pool job on the given shard. Refused unless
    /// the daemon runs with `LEAPS_CHAOS=1`.
    Panic {
        /// Pool shard to crash a job on (defaults to 0 on the wire).
        shard: u32,
    },
}

impl Command {
    /// Serializes the command as one protocol line (no newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        match self {
            Command::Hello { client } => format!("HELLO {client}"),
            Command::Open { pid, model } => format!("OPEN pid={pid} model={model}"),
            Command::Event { pid, event } => format!("EVENT pid={pid} {}", encode_event(event)),
            Command::Close { pid } => format!("CLOSE pid={pid}"),
            Command::Stats { pid: Some(pid) } => format!("STATS pid={pid}"),
            Command::Stats { pid: None } => "STATS".to_owned(),
            Command::Reload { model } => format!("RELOAD model={model}"),
            Command::Health => "HEALTH".to_owned(),
            Command::Metrics { reset: false } => "METRICS".to_owned(),
            Command::Metrics { reset: true } => "METRICS reset".to_owned(),
            Command::Shutdown => "SHUTDOWN".to_owned(),
            Command::Bye => "BYE".to_owned(),
            Command::Panic { shard } => format!("PANIC shard={shard}"),
        }
    }

    /// Parses one protocol line into a command.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError`] on an unknown verb or malformed arguments.
    pub fn parse_line(line: &str) -> Result<Command, ProtoError> {
        Ok(match Request::parse(line)? {
            Request::Event { pid, body } => Command::Event { pid, event: body.to_event() },
            Request::Command(command) => command,
        })
    }
}

/// One client line as the daemon acts on it: an `EVENT` keeps its body
/// borrowed from the line, and every other verb is a [`Command`].
/// [`Command::parse_line`] is this parse plus the owned event, so both
/// accept the same lines and name the same fault.
#[derive(Debug)]
pub(crate) enum Request<'a> {
    /// `EVENT pid=<pid> <body>`.
    Event {
        /// Session pid.
        pid: u32,
        /// The checked body.
        body: EventBody<'a>,
    },
    /// Any other verb.
    Command(Command),
}

impl<'a> Request<'a> {
    /// Parses one line as read from a connection, which may hold any
    /// bytes. A line that is not UTF-8 is a protocol fault like any other
    /// malformed line; a blank line is `None` and gets no reply.
    pub(crate) fn read(line: &'a [u8]) -> Option<Result<Request<'a>, ProtoError>> {
        match std::str::from_utf8(line) {
            Ok(text) if text.trim().is_empty() => None,
            Ok(text) => Some(Request::parse(text)),
            Err(e) => Some(Err(ProtoError::new(format!("line is not UTF-8: {e}")))),
        }
    }

    /// Parses one protocol line.
    pub(crate) fn parse(line: &'a str) -> Result<Request<'a>, ProtoError> {
        let line = line.trim_end_matches(['\r', '\n']);
        let (verb, rest) = match line.split_once(' ') {
            Some((v, r)) => (v, r.trim_start()),
            None => (line, ""),
        };
        if verb == "EVENT" {
            let (pid_token, body) = rest
                .split_once(' ')
                .ok_or_else(|| ProtoError::new("EVENT needs pid=<pid> and a body"))?;
            let pid = field_u32(pid_token, "pid")?;
            return Ok(Request::Event { pid, body: EventBody::parse(body)? });
        }
        parse_command(verb, rest).map(Request::Command)
    }
}

/// Parses the arguments `rest` of any verb but `EVENT`.
fn parse_command(verb: &str, rest: &str) -> Result<Command, ProtoError> {
    match verb {
        "HELLO" => {
            if !valid_name(rest) {
                return Err(ProtoError::new(format!("bad client id {rest:?}")));
            }
            Ok(Command::Hello { client: rest.to_owned() })
        }
        "OPEN" => {
            let pid = field_u32(rest, "pid")?;
            let model = field_str(rest, "model")?;
            if !valid_name(model) {
                return Err(ProtoError::new(format!("bad model name {model:?}")));
            }
            Ok(Command::Open { pid, model: model.to_owned() })
        }
        "CLOSE" => Ok(Command::Close { pid: field_u32(rest, "pid")? }),
        "STATS" => {
            if rest.is_empty() {
                Ok(Command::Stats { pid: None })
            } else {
                Ok(Command::Stats { pid: Some(field_u32(rest, "pid")?) })
            }
        }
        "RELOAD" => {
            let model = field_str(rest, "model")?;
            if !valid_name(model) {
                return Err(ProtoError::new(format!("bad model name {model:?}")));
            }
            Ok(Command::Reload { model: model.to_owned() })
        }
        "HEALTH" if rest.is_empty() => Ok(Command::Health),
        "METRICS" if rest.is_empty() => Ok(Command::Metrics { reset: false }),
        "METRICS" if rest == "reset" => Ok(Command::Metrics { reset: true }),
        "SHUTDOWN" if rest.is_empty() => Ok(Command::Shutdown),
        "BYE" if rest.is_empty() => Ok(Command::Bye),
        "PANIC" => {
            let shard = if rest.is_empty() { 0 } else { field_u32(rest, "shard")? };
            Ok(Command::Panic { shard })
        }
        _ => Err(ProtoError::new(format!("unknown command {verb:?}"))),
    }
}

/// The value of the first `key=value` token of `rest`.
fn field_str<'a>(rest: &'a str, key: &str) -> Result<&'a str, ProtoError> {
    rest.split_ascii_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
        .ok_or_else(|| ProtoError::new(format!("missing {key}=")))
}

fn field_u32(rest: &str, key: &str) -> Result<u32, ProtoError> {
    field_str(rest, key)?.parse().map_err(|_| ProtoError::new(format!("bad {key}= value")))
}

// --------------------------------------------------------------- replies

/// A parsed server → client reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Command acknowledged; detail is free-form.
    Ok {
        /// Free-form single-line detail.
        detail: String,
    },
    /// Command failed; `family` names the error class (`proto`, `parse`,
    /// `model`, `data`, `io`) so clients can report it.
    Err {
        /// Error family token.
        family: String,
        /// One-line message.
        message: String,
    },
    /// The event was accepted but the session queue was full: the
    /// *oldest* queued event was shed to make room.
    Busy {
        /// Session pid.
        pid: u32,
        /// Total events shed by this session so far.
        shed: u64,
    },
    /// An asynchronous verdict from an open session.
    Verdict {
        /// Session pid.
        pid: u32,
        /// The verdict.
        verdict: Verdict,
    },
    /// One metric of a `METRICS` dump (exactly `n` follow the
    /// `OK metrics n=<n>` acknowledgement, never interleaved with other
    /// replies).
    Metric {
        /// The metric, in the stable snapshot line format.
        metric: leaps_obs::MetricValue,
    },
}

impl Reply {
    /// Whether this reply acknowledges a command (everything except the
    /// asynchronous `VERDICT` push and the `METRIC` lines that follow an
    /// `OK metrics` acknowledgement).
    #[must_use]
    pub fn is_ack(&self) -> bool {
        !matches!(self, Reply::Verdict { .. } | Reply::Metric { .. })
    }

    /// Serializes the reply as one protocol line (no newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut line = String::new();
        self.push_line(&mut line);
        line
    }

    /// Appends [`Reply::to_line`] to `out`.
    pub(crate) fn push_line(&self, out: &mut String) {
        use fmt::Write as _;
        // Writing into a `String` cannot fail.
        let _ = match self {
            Reply::Ok { detail } if detail.is_empty() => write!(out, "OK"),
            Reply::Ok { detail } => write!(out, "OK {detail}"),
            Reply::Err { family, message } => write!(out, "ERR {family} {message}"),
            Reply::Busy { pid, shed } => write!(out, "BUSY pid={pid} shed={shed}"),
            Reply::Verdict { pid, verdict } => {
                push_verdict(out, *pid, verdict);
                Ok(())
            }
            Reply::Metric { metric } => write!(out, "METRIC {}", metric.to_line()),
        };
    }

    /// Parses one protocol line into a reply.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError`] on an unknown verb or malformed body.
    pub fn parse_line(line: &str) -> Result<Reply, ProtoError> {
        let line = line.trim_end_matches(['\r', '\n']);
        let (verb, rest) = match line.split_once(' ') {
            Some((v, r)) => (v, r),
            None => (line, ""),
        };
        match verb {
            "OK" => Ok(Reply::Ok { detail: rest.to_owned() }),
            "ERR" => {
                let (family, message) = rest.split_once(' ').map_or((rest, ""), |(f, m)| (f, m));
                if family.is_empty() {
                    return Err(ProtoError::new("ERR needs a family token"));
                }
                Ok(Reply::Err { family: family.to_owned(), message: message.to_owned() })
            }
            "BUSY" => Ok(Reply::Busy {
                pid: field_u32(rest, "pid")?,
                shed: field_str(rest, "shed")?
                    .parse()
                    .map_err(|_| ProtoError::new("bad shed= value"))?,
            }),
            "VERDICT" => {
                let (pid_token, body) = rest
                    .split_once(' ')
                    .ok_or_else(|| ProtoError::new("VERDICT needs pid=<pid> and a body"))?;
                let verdict = Verdict::parse_line(body)
                    .ok_or_else(|| ProtoError::new(format!("bad verdict body {body:?}")))?;
                Ok(Reply::Verdict { pid: field_u32(pid_token, "pid")?, verdict })
            }
            "METRIC" => {
                let metric = leaps_obs::MetricValue::parse_line(rest)
                    .map_err(|e| ProtoError::new(format!("bad metric line: {e}")))?;
                Ok(Reply::Metric { metric })
            }
            _ => Err(ProtoError::new(format!("unknown reply {verb:?}"))),
        }
    }
}

/// Appends the `VERDICT` line of session `pid` (no newline) to `out`:
/// the one rendering of a verdict push, shared by [`Reply::to_line`] and
/// the daemon's batched verdict writer.
pub(crate) fn push_verdict(out: &mut String, pid: u32, verdict: &Verdict) {
    use fmt::Write as _;
    // Writing into a `String` cannot fail.
    let _ = write!(out, "VERDICT pid={pid} {}", verdict.to_line());
}

/// The `ERR` family token for a [`LeapsError`], mirroring the CLI's
/// exit-code families.
#[must_use]
pub fn error_family(e: &LeapsError) -> &'static str {
    match e {
        LeapsError::Parse(_) => "parse",
        LeapsError::Model(_) => "model",
        LeapsError::Data(_) => "data",
        LeapsError::Io { .. } => "io",
        LeapsError::Protocol { .. } => "proto",
        LeapsError::Deadline { .. } => "deadline",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event() -> PartitionedEvent {
        PartitionedEvent {
            num: 42,
            etype: EventType::TcpSend,
            tid: 7,
            app_stack: vec![
                StackFrame::new("vim", "main", Va(0x1_4000_1080), true),
                StackFrame::new("", "anon_0x7f", Va(0x7f00_0000), true),
            ],
            system_stack: vec![StackFrame::new("tcpip", "TcpSendData", Va(0xfff8_0002), false)],
            truth: Some(Provenance::Malicious),
        }
    }

    #[test]
    fn event_round_trips_exactly() {
        let event = sample_event();
        let line = encode_event(&event);
        assert!(!line.contains('\n'));
        assert_eq!(decode_event(&line).unwrap(), event);

        let empty = PartitionedEvent {
            num: 0,
            etype: EventType::FileRead,
            tid: 0,
            app_stack: Vec::new(),
            system_stack: Vec::new(),
            truth: None,
        };
        assert_eq!(decode_event(&encode_event(&empty)).unwrap(), empty);
    }

    #[test]
    fn event_decode_rejects_damage() {
        let line = encode_event(&sample_event());
        assert!(decode_event(&line.replace("num=42", "num=x")).is_err());
        assert!(decode_event(&line.replace("type=TcpSend", "type=Nope")).is_err());
        assert!(decode_event(&line.replace("src=malicious", "src=evil")).is_err());
        assert!(decode_event("num=1 type=TcpSend tid=0 src=- app=-").is_err(), "missing sys");
        assert!(decode_event(&format!("{line} zz=1")).is_err(), "unknown field");
        assert!(decode_event(&line.replace("@1,", "@2,")).is_err(), "bad in-app flag");
    }

    #[test]
    fn commands_round_trip() {
        let commands = [
            Command::Hello { client: "host-17.ci".to_owned() },
            Command::Open { pid: 1476, model: "vim_wsvm".to_owned() },
            Command::Event { pid: 1476, event: sample_event() },
            Command::Close { pid: 1476 },
            Command::Stats { pid: None },
            Command::Stats { pid: Some(9) },
            Command::Reload { model: "vim_wsvm".to_owned() },
            Command::Health,
            Command::Metrics { reset: false },
            Command::Metrics { reset: true },
            Command::Shutdown,
            Command::Bye,
            Command::Panic { shard: 3 },
        ];
        for cmd in &commands {
            let line = cmd.to_line();
            assert_eq!(Command::parse_line(&line).as_ref(), Ok(cmd), "round-trip of {line:?}");
        }
    }

    #[test]
    fn command_parse_rejects_damage() {
        assert!(Command::parse_line("NOPE").is_err());
        assert!(Command::parse_line("HELLO two tokens").is_err());
        assert!(Command::parse_line("HELLO ../etc").is_err());
        assert!(Command::parse_line("OPEN pid=3").is_err(), "missing model");
        assert!(Command::parse_line("OPEN pid=3 model=.hidden").is_err());
        assert!(Command::parse_line("OPEN pid=3 model=a/b").is_err(), "path separator");
        assert!(Command::parse_line("EVENT pid=3").is_err(), "missing body");
        assert!(Command::parse_line("SHUTDOWN now").is_err());
        assert!(Command::parse_line("HEALTH now").is_err());
        assert!(Command::parse_line("METRICS hard").is_err());
        assert!(Command::parse_line("PANIC shard=x").is_err());
        assert_eq!(Command::parse_line("PANIC"), Ok(Command::Panic { shard: 0 }));
    }

    #[test]
    fn replies_round_trip() {
        let verdict = Verdict { last_event: 9, benign: false, score: Some(-0.25), degraded: true };
        let replies = [
            Reply::Ok { detail: String::new() },
            Reply::Ok { detail: "open pid=3 model=m".to_owned() },
            Reply::Err { family: "model".to_owned(), message: "missing header".to_owned() },
            Reply::Busy { pid: 3, shed: 17 },
            Reply::Verdict { pid: 3, verdict },
        ];
        for reply in &replies {
            let line = reply.to_line();
            assert_eq!(Reply::parse_line(&line).as_ref(), Ok(reply), "round-trip of {line:?}");
        }
        assert!(Reply::parse_line("VERDICT pid=3 num=x").is_err());
        assert!(Reply::parse_line("WHAT 1").is_err());
    }

    #[test]
    fn metric_replies_round_trip_and_reject_damage() {
        let reg = leaps_obs::MetricsRegistry::new();
        reg.counter("serve.events").add(12);
        reg.gauge("serve.sessions").set(2);
        reg.histogram("proto.event.us").record(37);
        for entry in reg.snapshot().entries {
            let reply = Reply::Metric { metric: entry };
            let line = reply.to_line();
            assert!(line.starts_with("METRIC "), "{line}");
            assert!(!reply.is_ack(), "METRIC lines must not satisfy an ack wait");
            assert_eq!(Reply::parse_line(&line).as_ref(), Ok(&reply), "round-trip of {line:?}");
        }
        assert!(Reply::parse_line("METRIC").is_err(), "empty metric body");
        assert!(Reply::parse_line("METRIC serve.events counter x").is_err());
        assert!(Reply::parse_line("METRIC serve.events tally 3").is_err(), "unknown kind");
        assert!(
            Reply::parse_line("METRIC h hist count=1 sum=2 buckets=1,0").is_err(),
            "truncated buckets"
        );
    }

    /// The partitioned events of a generated mixed log, built once.
    fn real_events() -> &'static [PartitionedEvent] {
        use leaps_etw::logfmt::write_log;
        use leaps_etw::scenario::{GenParams, Scenario};
        use leaps_trace::parser::parse_log;
        use leaps_trace::partition::partition_events;
        static EVENTS: std::sync::OnceLock<Vec<PartitionedEvent>> = std::sync::OnceLock::new();
        EVENTS.get_or_init(|| {
            let logs = Scenario::by_name("vim_reverse_tcp")
                .unwrap()
                .generate_events(&GenParams::small(), 3);
            partition_events(&parse_log(&write_log(&logs.mixed)).unwrap().events)
        })
    }

    /// Checks that the daemon's reading of `line` ([`Request::read`])
    /// agrees with [`Command::parse_line`]: both accept it, or both name
    /// the same fault. Bytes that are not UTF-8 are a fault of their own.
    fn check_parity(line: &[u8]) -> Result<(), String> {
        let daemon = Request::read(line).map(|r| r.map(|_| ()).map_err(|e| e.message));
        match std::str::from_utf8(line) {
            Err(_) => match daemon {
                Some(Err(message)) if message.starts_with("line is not UTF-8: ") => Ok(()),
                other => Err(format!("non-UTF-8 line read as {other:?}")),
            },
            Ok(text) if text.trim().is_empty() => match daemon {
                None => Ok(()),
                Some(other) => Err(format!("blank line read as {other:?}")),
            },
            Ok(text) => {
                let reference = Command::parse_line(text).map(|_| ()).map_err(|e| e.message);
                if daemon == Some(reference.clone()) {
                    Ok(())
                } else {
                    Err(format!("{text:?}: daemon {daemon:?}, parse_line {reference:?}"))
                }
            }
        }
    }

    #[test]
    fn the_daemon_names_the_fault_parse_line_names() {
        let body = encode_event(&sample_event());
        let damaged = [
            body.replace("num=42", "num=x"),
            body.replace("type=TcpSend", "type=Nope"),
            body.replace("src=malicious", "src=evil"),
            "num=1 type=TcpSend tid=0 src=- app=-".to_owned(),
            format!("{body} zz=1"),
            body.replace("@1,", "@2,"),
            body.replace("vim!main", "vim_main"),
            body.replace("num=42 ", "num=42 bare "),
        ];
        for case in &damaged {
            let line = format!("EVENT pid=3 {case}");
            assert!(Command::parse_line(&line).is_err(), "{line}");
            check_parity(line.as_bytes()).unwrap();
        }
        for line in [
            "EVENT pid=3",
            "EVENT pid=x num=1",
            "NOPE",
            "OPEN pid=3",
            "HELLO ../etc",
            "PANIC shard=x",
            "",
            "  \r\n",
            "\u{3000}",
        ] {
            check_parity(line.as_bytes()).unwrap();
        }
        check_parity(format!("EVENT pid=3 {body}\r\n").as_bytes()).unwrap();
        check_parity(b"EVENT pid=1 num=\xff\xfe").unwrap();
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// Truncated and byte-mutated real `EVENT` lines never panic the
        /// daemon's reader, and it names the fault `parse_line` names.
        #[test]
        fn damaged_event_lines_keep_parity_and_never_panic(
            pick in 0usize..1 << 16,
            cut in 0usize..1 << 16,
            mutations in proptest::prop::collection::vec((0usize..1 << 16, 0u8..=255), 0..4),
            truncate in 0u8..3,
        ) {
            let events = real_events();
            let command = Command::Event { pid: 5, event: events[pick % events.len()].clone() };
            let mut line = command.to_line().into_bytes();
            if truncate > 0 {
                line.truncate(cut % (line.len() + 1));
            }
            for &(at, byte) in &mutations {
                if !line.is_empty() {
                    let at = at % line.len();
                    line[at] = byte;
                }
            }
            if let Err(e) = check_parity(&line) {
                proptest::prop_assert!(false, "{e}");
            }
        }

        /// The daemon's encode, from the names borrowed from an `EVENT`
        /// body, is the owned encode of the decoded event, bit for bit:
        /// with names the encoder has never seen and with empty stacks.
        #[test]
        fn borrowed_names_encode_like_the_decoded_event(
            pick in 0usize..1 << 16,
            frames in proptest::prop::collection::vec((0usize..1 << 16, 0u8..4), 0..7),
            keep_real in proptest::prop::bool::ANY,
        ) {
            let (encoder, known) = fitted_encoder();
            let mut event = real_events()[pick % real_events().len()].clone();
            if !keep_real {
                // Known frames, frames with an unknown function or module,
                // and an empty stack when `frames` is empty.
                event.system_stack = frames
                    .iter()
                    .map(|&(i, kind)| {
                        let mut frame = known[i % known.len()].clone();
                        match kind {
                            1 => frame.function = format!("Unseen{i}").into(),
                            2 => frame.module = format!("unseen{}", i % 3).into(),
                            _ => {}
                        }
                        frame
                    })
                    .collect();
            }
            let body = encode_event(&event);
            let fields = EventBody::parse(&body).unwrap();
            let mut scratch = EncodeScratch::default();
            let borrowed =
                encoder.normalize(encoder.tuple_of(&mut scratch, event.etype, fields.sys_names()));
            let owned = encoder.encode(&decode_event(&body).unwrap());
            proptest::prop_assert_eq!(borrowed.map(f64::to_bits), owned.map(f64::to_bits), "{}", body);
        }
    }

    /// An encoder fitted on the real events, and their distinct system
    /// frames.
    fn fitted_encoder() -> &'static (leaps_cluster::FeatureEncoder, Vec<StackFrame>) {
        static FITTED: std::sync::OnceLock<(leaps_cluster::FeatureEncoder, Vec<StackFrame>)> =
            std::sync::OnceLock::new();
        FITTED.get_or_init(|| {
            let refs: Vec<&PartitionedEvent> = real_events().iter().collect();
            let encoder = leaps_cluster::FeatureEncoder::fit(
                &refs,
                leaps_cluster::PreprocessConfig::default(),
            );
            let mut known: Vec<StackFrame> =
                real_events().iter().flat_map(|e| e.system_stack.iter().cloned()).collect();
            known.sort_by(|a, b| (&a.module, &a.function).cmp(&(&b.module, &b.function)));
            known.dedup_by(|a, b| a.module == b.module && a.function == b.function);
            (encoder, known)
        })
    }

    #[test]
    fn names_validate() {
        assert!(valid_name("vim_wsvm-2.model"));
        assert!(!valid_name(""));
        assert!(!valid_name(".."));
        assert!(!valid_name("a/b"));
        assert!(!valid_name("a b"));
    }
}
