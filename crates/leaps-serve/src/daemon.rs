//! The socket daemon: a line-protocol shell around [`Server`] over a
//! Unix domain socket or TCP.
//!
//! One thread accepts connections; each connection gets a handler
//! thread. The handler checks each `EVENT` line in place and encodes the
//! event's system-stack names, slices of the line, with its session's
//! classifier; no owned event is ever built. The encoded item is queued
//! on the session and scored by the server's worker pool, which
//! pushes `VERDICT` lines back through the connection's shared writer.
//! A flooding client therefore cannot stall the accept loop: its
//! session's queue sheds (answering `BUSY`) while every other
//! connection proceeds.
//!
//! Shutdown is protocol-driven (`SHUTDOWN`, the daemon's
//! SIGTERM-equivalent): the accept loop stops, connection threads are
//! joined, every remaining session is drained, and
//! [`BoundDaemon::run`] returns — the process exits 0.
//!
//! # Connection deadlines
//!
//! Every connection reads under a short [`CONN_POLL`] deadline rather
//! than blocking forever. Each timeout tick re-checks two conditions:
//! shutdown (so `SHUTDOWN` never hangs on an idle-but-connected client —
//! `run` joins every handler thread) and the server's idle TTL (a client
//! silent past it is told `ERR proto idle ...` and disconnected, its
//! sessions drained and closed). Partial lines survive deadline ticks:
//! bytes already read stay buffered until the newline arrives.

use crate::lock_unpoisoned;
use crate::proto::{
    error_family, push_verdict, Command, EventBody, Reply, Request, PROTOCOL_VERSION,
};
use crate::server::{no_session, Server};
use crate::session::{Session, SessionReport, Submit, VerdictSink};
use leaps_core::error::LeapsError;
use leaps_core::stream::{EncodeScratch, Verdict};
use leaps_obs::{Histogram, Lazy, MetricsRegistry, Snapshot, Span, Value};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// Read deadline on daemon connections: the cadence at which an idle
/// handler thread re-checks shutdown and the idle TTL.
pub(crate) const CONN_POLL: Duration = Duration::from_millis(200);

/// The longest request line, in bytes without its newline. A longer
/// line is refused once and skipped, so one client cannot make the
/// daemon buffer, or echo back, an unbounded line.
const MAX_LINE: usize = 64 * 1024;

/// Where a daemon listens (and a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
    /// A TCP address, `host:port`.
    Tcp(String),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// One bidirectional protocol stream (either transport).
#[derive(Debug)]
pub enum Stream {
    /// Unix domain socket stream.
    #[cfg(unix)]
    Unix(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl Stream {
    /// A second handle on the same socket, either transport.
    pub(crate) fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }

    /// Sets the read deadline (`None` blocks forever), either transport.
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(timeout),
            Stream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }
}

impl std::io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    #[cfg(unix)]
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

impl Endpoint {
    /// Binds the listening socket. For `Tcp` with port 0, the returned
    /// daemon's [`BoundDaemon::endpoint`] carries the resolved port. A
    /// stale Unix socket file is removed before binding.
    ///
    /// # Errors
    ///
    /// [`LeapsError::Protocol`] if binding fails.
    pub fn bind(&self) -> Result<BoundDaemon, LeapsError> {
        match self {
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)
                    .map_err(|e| LeapsError::protocol(format!("binding {self}: {e}")))?;
                Ok(BoundDaemon { listener: Listener::Unix(listener), endpoint: self.clone() })
            }
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr)
                    .map_err(|e| LeapsError::protocol(format!("binding {self}: {e}")))?;
                let actual = listener
                    .local_addr()
                    .map_err(|e| LeapsError::protocol(format!("resolving {self}: {e}")))?;
                Ok(BoundDaemon {
                    listener: Listener::Tcp(listener),
                    endpoint: Endpoint::Tcp(actual.to_string()),
                })
            }
        }
    }

    /// Connects a client stream.
    ///
    /// # Errors
    ///
    /// [`LeapsError::Protocol`] if the connection fails.
    pub fn connect(&self) -> Result<Stream, LeapsError> {
        match self {
            #[cfg(unix)]
            Endpoint::Unix(path) => UnixStream::connect(path)
                .map(Stream::Unix)
                .map_err(|e| LeapsError::protocol(format!("connecting {self}: {e}"))),
            Endpoint::Tcp(addr) => TcpStream::connect(addr)
                .map(Stream::Tcp)
                .map_err(|e| LeapsError::protocol(format!("connecting {self}: {e}"))),
        }
    }

    /// Best-effort self-connect to wake a blocked accept loop.
    fn wake(&self) {
        let _ = self.connect();
    }
}

/// A bound, not-yet-running daemon (separating bind from run lets
/// callers learn the resolved endpoint before clients race to connect).
pub struct BoundDaemon {
    listener: Listener,
    endpoint: Endpoint,
}

/// Writes `bytes` with one `write_all` under one hold of a connection's
/// writer lock, so no other reply or verdict push lands inside them.
fn write_locked(writer: &Mutex<Stream>, bytes: &[u8]) -> std::io::Result<()> {
    lock_unpoisoned(writer).write_all(bytes)
}

/// A [`VerdictSink`] that pushes `VERDICT` lines through a connection's
/// shared writer, one write per drain batch.
struct WriterSink {
    writer: Arc<Mutex<Stream>>,
}

impl VerdictSink for WriterSink {
    fn deliver(&self, pid: u32, verdict: &Verdict) {
        self.deliver_all(pid, std::slice::from_ref(verdict));
    }

    fn deliver_all(&self, pid: u32, verdicts: &[Verdict]) {
        if verdicts.is_empty() {
            return;
        }
        let mut lines = String::with_capacity(verdicts.len() * 80);
        for verdict in verdicts {
            push_verdict(&mut lines, pid, verdict);
            lines.push('\n');
        }
        // A dead connection is detected by the reader side; drop the
        // verdicts rather than panicking a pool worker.
        let _ = write_locked(&self.writer, lines.as_bytes());
    }
}

/// A connection's replies. `EVENT` acks are deferred into `pending`
/// until the reader holds no further complete line; every other reply
/// goes out at once, after the acks before it, in one `write_all`. So
/// every command gets one reply, in command order, and a session's
/// `VERDICT`s never overtake the `OK open` that precedes its events.
struct Replies {
    writer: Arc<Mutex<Stream>>,
    pending: String,
}

impl Replies {
    /// Queues an `EVENT` ack for the next flush.
    fn defer(&mut self, reply: &Reply) {
        reply.push_line(&mut self.pending);
        self.pending.push('\n');
    }

    /// Writes the deferred acks and then `reply`.
    fn send(&mut self, reply: &Reply) -> std::io::Result<()> {
        self.defer(reply);
        self.flush()
    }

    /// Writes the deferred acks and then `block`, whole lines.
    fn send_block(&mut self, block: &str) -> std::io::Result<()> {
        self.pending.push_str(block);
        self.flush()
    }

    /// Writes the deferred acks, if any.
    fn flush(&mut self) -> std::io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let written = write_locked(&self.writer, self.pending.as_bytes());
        self.pending.clear();
        written
    }
}

impl BoundDaemon {
    /// The endpoint clients should connect to (TCP port resolved).
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Runs the accept loop until a `SHUTDOWN` command arrives, then
    /// joins connection threads, drains every remaining session and
    /// returns the number of sessions drained at shutdown.
    ///
    /// # Errors
    ///
    /// [`LeapsError::Protocol`] if accepting fails fatally.
    pub fn run(self, server: &Arc<Server>) -> Result<usize, LeapsError> {
        let spans = Arc::new(ProtoSpans::new(server.metrics()));
        let mut handles: Vec<JoinHandle<()>> = Vec::new();
        loop {
            let stream = match self.listener.accept() {
                Ok(stream) => stream,
                Err(e) => {
                    if server.is_shutting_down() {
                        break;
                    }
                    return Err(LeapsError::protocol(format!("accept on {}: {e}", self.endpoint)));
                }
            };
            if server.is_shutting_down() {
                break; // the wake connection, or a client racing shutdown
            }
            // An exited thread keeps its stack mapped until it is joined.
            for finished in handles.extract_if(.., |h| h.is_finished()) {
                let _ = finished.join();
            }
            let Ok(write_half) = stream.try_clone() else { continue };
            let writer = Arc::new(Mutex::new(write_half));
            let server = Arc::clone(server);
            let spans = Arc::clone(&spans);
            let endpoint = self.endpoint.clone();
            let conn_writer = Arc::clone(&writer);
            let spawned = std::thread::Builder::new().spawn(move || {
                handle_connection(&server, &spans, &endpoint, stream, conn_writer);
            });
            match spawned {
                Ok(handle) => handles.push(handle),
                // The refused closure dropped the read half; `writer`
                // closes the socket after this one line.
                Err(e) => {
                    let message = format!("cannot start a connection thread: {e}");
                    let reply = Reply::Err { family: "io".to_owned(), message };
                    let _ = Replies { writer, pending: String::new() }.send(&reply);
                }
            }
        }
        for handle in handles {
            let _ = handle.join();
        }
        let drained = server.close_all().len();
        #[cfg(unix)]
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
        Ok(drained)
    }
}

/// The `HEALTH` fields: worker liveness, the caught-panic count, and
/// session and registry state.
const HEALTH_FIELDS: [&str; 11] = [
    "pool.workers",
    "pool.panics",
    "serve.sessions",
    "serve.opened",
    "serve.closed",
    "serve.reaped",
    "registry.models",
    "registry.cached_bytes",
    "registry.loads",
    "registry.hits",
    "registry.evictions",
];

/// The server-wide `STATS` fields.
const STATS_FIELDS: [&str; 9] = [
    "serve.sessions",
    "pool.workers",
    "serve.opened",
    "serve.closed",
    "registry.models",
    "registry.cached_bytes",
    "registry.loads",
    "registry.hits",
    "registry.evictions",
];

/// Renders counters and gauges `names` as `name=value` tokens read from
/// one snapshot of the server's registry. A metric nothing has recorded
/// yet reads 0.
fn snapshot_fields(snapshot: &Snapshot, names: &[&str]) -> String {
    let value = |name: &str| match snapshot.get(name) {
        Some(Value::Counter(v)) => v.to_string(),
        Some(Value::Gauge(v)) => v.to_string(),
        _ => "0".to_owned(),
    };
    names.iter().map(|name| format!("{name}={}", value(name))).collect::<Vec<_>>().join(" ")
}

/// Renders the `HEALTH` reply detail: [`HEALTH_FIELDS`] plus the idle
/// policy. Keys follow the protocol counter vocabulary (`crate::proto`
/// header).
fn health_detail(server: &Server) -> String {
    let idle_secs = server.idle_ttl().map_or(0, |ttl| ttl.as_secs());
    let fields = snapshot_fields(&server.metrics().snapshot(), &HEALTH_FIELDS);
    format!("health {fields} idle_secs={idle_secs}")
}

/// Renders a session report as `key=value` stats tokens, using the
/// `session.*`/`stream.*` names of the protocol counter vocabulary.
fn report_fields(report: &SessionReport) -> String {
    let s = report.stream;
    format!(
        "model={} session.queued={} session.submitted={} session.shed={} session.verdicts={} \
         stream.accepted={} stream.duplicates={} stream.gaps={} stream.missing={} \
         stream.reordered={} stream.degraded={}",
        report.model,
        report.queued,
        report.submitted,
        report.shed,
        report.verdicts,
        s.accepted,
        s.duplicates,
        s.gaps,
        s.missing,
        s.reordered,
        s.degraded_verdicts
    )
}

fn err_reply(e: &LeapsError) -> Reply {
    Reply::Err { family: error_family(e).to_owned(), message: e.to_string() }
}

/// Drives one connection's command loop until `BYE`, `SHUTDOWN`, EOF,
/// an I/O error, shutdown, or the idle TTL expiring, then closes the
/// sessions this connection opened and left open.
///
/// Reads run under the [`CONN_POLL`] deadline; a deadline tick is not an
/// error but a chance to notice shutdown or idleness. `BufReader` keeps
/// any partially-read line across ticks, so slow writers are never
/// corrupted, only rechecked. Deferred `EVENT` acks (see [`Replies`]) are
/// written before any read that could block, and on every way out; the
/// drains the burst's events wait for start just before them, and before
/// any other command.
fn handle_connection(
    server: &Arc<Server>,
    spans: &ProtoSpans,
    endpoint: &Endpoint,
    stream: Stream,
    writer: Arc<Mutex<Stream>>,
) {
    let _ = stream.set_read_timeout(Some(CONN_POLL));
    let mut replies = Replies { writer: Arc::clone(&writer), pending: String::new() };
    let mut reader = BufReader::new(stream);
    let mut client: Option<String> = None;
    let mut opened = Opened::new();
    let mut scratch = EncodeScratch::default();
    let mut drains: Vec<Arc<Session>> = Vec::new();
    let mut line: Vec<u8> = Vec::new();
    // Set after an over-long line is refused, until its newline is read.
    let mut skipping = false;
    let mut last_activity_us = leaps_obs::now_micros();
    loop {
        // Only a read that finds no complete line buffered can block:
        // the burst's drains start and its acks go out first.
        if !reader.buffer().contains(&b'\n') {
            start_drains(server, &mut drains);
            if replies.flush().is_err() {
                break;
            }
        }
        // Bytes, not `read_line`: a line that is not UTF-8 gets an
        // `ERR proto` reply like any other malformed line. One byte past
        // the cap tells an over-long line from one of exactly `MAX_LINE`.
        let read = if skipping {
            reader.skip_until(b'\n')
        } else {
            let budget = (MAX_LINE + 1 - line.len()) as u64;
            (&mut reader).take(budget).read_until(b'\n', &mut line)
        };
        match read {
            Ok(0) => break, // EOF: client went away
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Deadline tick: `line` keeps any partial bytes.
                if server.is_shutting_down() {
                    break;
                }
                if let Some(ttl) = server.idle_ttl() {
                    let ttl_us = u64::try_from(ttl.as_micros()).unwrap_or(u64::MAX);
                    if leaps_obs::now_micros().saturating_sub(last_activity_us) > ttl_us {
                        let _ = replies.send(&Reply::Err {
                            family: "proto".to_owned(),
                            message: format!("idle for over {}s, closing", ttl.as_secs_f64()),
                        });
                        break;
                    }
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        last_activity_us = leaps_obs::now_micros();
        if skipping {
            // The newline (or EOF, which the next read sees) is reached.
            skipping = false;
            continue;
        }
        if line.len() > MAX_LINE && line.last() != Some(&b'\n') {
            line.clear();
            skipping = true;
            let reply = Reply::Err {
                family: "proto".to_owned(),
                message: format!("line longer than {MAX_LINE} bytes"),
            };
            if replies.send(&reply).is_err() {
                break;
            }
            continue;
        }
        let Some(request) = Request::read(&line) else {
            line.clear();
            continue;
        };
        let written = match request {
            Err(e) => {
                replies.send(&Reply::Err { family: "proto".to_owned(), message: e.to_string() })
            }
            Ok(Request::Event { pid, body }) => {
                let latency = Span::new(spans.event.get());
                let reply =
                    submit_event(server, &client, &opened, pid, &body, &mut scratch, &mut drains);
                drop(latency);
                replies.defer(&reply);
                Ok(())
            }
            Ok(Request::Command(command)) => {
                start_drains(server, &mut drains);
                let latency = spans.start(&command);
                let outcome = dispatch(server, &writer, &mut client, &mut opened, command);
                drop(latency);
                match outcome {
                    Dispatch::Reply(reply) => replies.send(&reply),
                    Dispatch::Block(block) => replies.send_block(&block),
                    Dispatch::Last(reply) => {
                        let _ = replies.send(&reply);
                        break;
                    }
                    Dispatch::Shutdown(reply) => {
                        let _ = replies.send(&reply);
                        server.begin_shutdown();
                        endpoint.wake();
                        break;
                    }
                }
            }
        };
        line.clear();
        if written.is_err() {
            break;
        }
    }
    start_drains(server, &mut drains);
    let _ = replies.flush();
    for session in opened.values().filter_map(Weak::upgrade) {
        // Refused if the reaper closed it already.
        let _ = server.close_session(&session);
    }
}

/// The sessions one connection opened and has not closed, by pid: the
/// only ones its commands reach and its teardown closes. Another
/// connection may share its client id. `Weak`, so a reaped session is
/// freed at once and then reads as absent.
type Opened = BTreeMap<u32, Weak<Session>>;

/// The connection's open session of `pid`.
fn opened_session(opened: &Opened, client: &str, pid: u32) -> Result<Arc<Session>, LeapsError> {
    opened.get(&pid).and_then(Weak::upgrade).ok_or_else(|| no_session(client, pid))
}

/// Serves one checked `EVENT` line: encodes the body's system-stack
/// names with the session's own classifier and queues the item. A
/// session left with no drain in flight joins `drains`, to be started
/// once for the whole read burst ([`start_drains`]).
fn submit_event(
    server: &Server,
    client: &Option<String>,
    opened: &Opened,
    pid: u32,
    body: &EventBody<'_>,
    scratch: &mut EncodeScratch,
    drains: &mut Vec<Arc<Session>>,
) -> Reply {
    let Some(client) = client else {
        return Reply::Err { family: "proto".to_owned(), message: "HELLO first".to_owned() };
    };
    let submitted = opened_session(opened, client, pid).and_then(|session| {
        let (outcome, idle) = server
            .submit_to(&session, body.num(), |classifier| body.encode(classifier, scratch))?;
        if idle && !drains.iter().any(|queued| Arc::ptr_eq(queued, &session)) {
            drains.push(session);
        }
        Ok(outcome)
    });
    match submitted {
        Ok(Submit::Accepted { .. }) => Reply::Ok { detail: "event".to_owned() },
        Ok(Submit::Busy { shed }) => Reply::Busy { pid, shed },
        Err(e) => err_reply(&e),
    }
}

/// Starts the drains the connection's queued events wait for. A burst
/// of events thus wakes each session's pool worker once, not once per
/// event that finds the worker idle.
fn start_drains(server: &Server, drains: &mut Vec<Arc<Session>>) {
    for session in drains.drain(..) {
        server.start_drain(&session);
    }
}

enum Dispatch {
    /// Reply and keep the connection open.
    Reply(Reply),
    /// Reply, then end the connection.
    Last(Reply),
    /// Reply, then shut the daemon down.
    Shutdown(Reply),
    /// A multi-line reply (whole lines), which must go out in one write;
    /// keep the connection open.
    Block(String),
}

/// Per-command daemon latency histograms, `proto.<verb>.us` in the
/// server's registry. One handle per verb, taken once per daemon, so the
/// `EVENT` hot path never touches the registry lock.
struct ProtoSpans {
    hello: Lazy<Histogram>,
    open: Lazy<Histogram>,
    event: Lazy<Histogram>,
    close: Lazy<Histogram>,
    stats: Lazy<Histogram>,
    reload: Lazy<Histogram>,
    health: Lazy<Histogram>,
    metrics: Lazy<Histogram>,
    shutdown: Lazy<Histogram>,
    bye: Lazy<Histogram>,
    panic: Lazy<Histogram>,
}

impl ProtoSpans {
    fn new(metrics: &Arc<MetricsRegistry>) -> ProtoSpans {
        ProtoSpans {
            hello: metrics.lazy(|m| m.histogram("proto.hello.us")),
            open: metrics.lazy(|m| m.histogram("proto.open.us")),
            event: metrics.lazy(|m| m.histogram("proto.event.us")),
            close: metrics.lazy(|m| m.histogram("proto.close.us")),
            stats: metrics.lazy(|m| m.histogram("proto.stats.us")),
            reload: metrics.lazy(|m| m.histogram("proto.reload.us")),
            health: metrics.lazy(|m| m.histogram("proto.health.us")),
            metrics: metrics.lazy(|m| m.histogram("proto.metrics.us")),
            shutdown: metrics.lazy(|m| m.histogram("proto.shutdown.us")),
            bye: metrics.lazy(|m| m.histogram("proto.bye.us")),
            panic: metrics.lazy(|m| m.histogram("proto.panic.us")),
        }
    }

    /// Starts timing `command`; the span records when dropped.
    fn start(&self, command: &Command) -> Span {
        let hist = match command {
            Command::Hello { .. } => &self.hello,
            Command::Open { .. } => &self.open,
            Command::Event { .. } => &self.event,
            Command::Close { .. } => &self.close,
            Command::Stats { .. } => &self.stats,
            Command::Reload { .. } => &self.reload,
            Command::Health => &self.health,
            Command::Metrics { .. } => &self.metrics,
            Command::Shutdown => &self.shutdown,
            Command::Bye => &self.bye,
            Command::Panic { .. } => &self.panic,
        };
        Span::new(hist.get())
    }
}

/// Serves `METRICS [reset]`: snapshots the server's registry and renders
/// the `OK metrics n=<k>` acknowledgement and all `k` `METRIC` lines as
/// one [`Dispatch::Block`], written in **one** `write_all` under **one**
/// writer-lock hold, so concurrent `VERDICT` pushes can never land
/// inside the block. With `reset`, counters and histograms are zeroed
/// after the snapshot (gauges keep their level — they track live state,
/// not history); the counters `HEALTH` shows are among them.
fn metrics_block(server: &Server, reset: bool) -> Dispatch {
    let registry = server.metrics();
    let snapshot = registry.snapshot();
    if reset {
        registry.reset();
    }
    let mut block = Reply::Ok { detail: format!("metrics n={}", snapshot.len()) }.to_line();
    block.push('\n');
    for entry in snapshot.entries {
        block.push_str(&Reply::Metric { metric: entry }.to_line());
        block.push('\n');
    }
    Dispatch::Block(block)
}

fn dispatch(
    server: &Arc<Server>,
    writer: &Arc<Mutex<Stream>>,
    client: &mut Option<String>,
    opened: &mut Opened,
    command: Command,
) -> Dispatch {
    let proto_err =
        |message: &str| Reply::Err { family: "proto".to_owned(), message: message.to_owned() };
    match (command, client.as_deref()) {
        (Command::Hello { client: id }, None) => {
            *client = Some(id);
            let workers = server.metrics().snapshot().gauge("pool.workers").unwrap_or(0);
            Dispatch::Reply(Reply::Ok {
                detail: format!("hello {PROTOCOL_VERSION} workers={workers}"),
            })
        }
        (Command::Hello { .. }, Some(_)) => Dispatch::Reply(proto_err("already introduced")),
        // Supervisor probes work without a HELLO: an external health checker
        // should not have to claim a client identity (and session keys).
        (Command::Health, _) => Dispatch::Reply(Reply::Ok { detail: health_detail(server) }),
        (Command::Metrics { reset }, _) => metrics_block(server, reset),
        (Command::Panic { shard }, _) if std::env::var("LEAPS_CHAOS").as_deref() == Ok("1") => {
            server.inject_panic_job(shard as usize);
            Dispatch::Reply(Reply::Ok { detail: format!("panic injected shard={shard}") })
        }
        (Command::Panic { .. }, _) => {
            Dispatch::Reply(proto_err("PANIC requires the daemon to run with LEAPS_CHAOS=1"))
        }
        // The connection loop reads `EVENT` lines as `Request::Event`;
        // one that arrives here as a command is answered, not trusted.
        (Command::Event { .. }, _) => {
            Dispatch::Reply(proto_err("EVENT is a request, not a command"))
        }
        (_, None) => Dispatch::Reply(proto_err("HELLO first")),
        (Command::Open { pid, model }, Some(client)) => {
            let sink = Arc::new(WriterSink { writer: Arc::clone(writer) });
            match server.open_session(client, pid, &model, sink) {
                Ok(session) => {
                    opened.insert(pid, Arc::downgrade(&session));
                    Dispatch::Reply(Reply::Ok { detail: format!("open pid={pid} model={model}") })
                }
                Err(e) => Dispatch::Reply(err_reply(&e)),
            }
        }
        (Command::Close { pid }, Some(client)) => {
            let closed = opened_session(opened, client, pid).and_then(|s| server.close_session(&s));
            opened.remove(&pid);
            match closed {
                Ok(report) => Dispatch::Reply(Reply::Ok {
                    detail: format!("close pid={pid} {}", report_fields(&report)),
                }),
                Err(e) => Dispatch::Reply(err_reply(&e)),
            }
        }
        (Command::Stats { pid: Some(pid) }, Some(client)) => {
            match opened_session(opened, client, pid) {
                Ok(session) => Dispatch::Reply(Reply::Ok {
                    detail: format!("stats pid={pid} {}", report_fields(&session.report())),
                }),
                Err(e) => Dispatch::Reply(err_reply(&e)),
            }
        }
        (Command::Stats { pid: None }, _) => Dispatch::Reply(Reply::Ok {
            detail: format!(
                "stats {}",
                snapshot_fields(&server.metrics().snapshot(), &STATS_FIELDS)
            ),
        }),
        (Command::Reload { model }, _) => match server.reload(&model) {
            Ok(()) => Dispatch::Reply(Reply::Ok { detail: format!("reload model={model}") }),
            Err(e) => Dispatch::Reply(err_reply(&e)),
        },
        (Command::Shutdown, _) => Dispatch::Shutdown(Reply::Ok { detail: "shutdown".to_owned() }),
        (Command::Bye, _) => Dispatch::Last(Reply::Ok { detail: "bye".to_owned() }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use leaps_etw::event::EventType;
    use leaps_trace::partition::PartitionedEvent;

    fn is_proto_err(reply: Dispatch) -> bool {
        matches!(reply, Dispatch::Reply(Reply::Err { family, .. }) if family == "proto")
    }

    /// An `EVENT` handed to `dispatch` as a command, before and after
    /// `HELLO`, is answered with `ERR proto` and the connection stays.
    #[cfg(unix)]
    #[test]
    fn an_event_command_is_answered_with_a_protocol_error() {
        let server = Arc::new(Server::new(&ServerConfig {
            workers: 1,
            ..ServerConfig::new(std::env::temp_dir())
        }));
        let (ours, _peer) = UnixStream::pair().unwrap();
        let writer = Arc::new(Mutex::new(Stream::Unix(ours)));
        let (mut client, mut opened) = (None, Opened::new());
        let mut send = |command| dispatch(&server, &writer, &mut client, &mut opened, command);
        let event = Command::Event {
            pid: 7,
            event: PartitionedEvent {
                num: 1,
                etype: EventType::FileRead,
                tid: 0,
                app_stack: Vec::new(),
                system_stack: Vec::new(),
                truth: None,
            },
        };
        assert!(is_proto_err(send(event.clone())), "before HELLO");
        let hello = send(Command::Hello { client: "probe".to_owned() });
        assert!(matches!(hello, Dispatch::Reply(Reply::Ok { .. })));
        assert!(is_proto_err(send(event)), "after HELLO");
    }
}
