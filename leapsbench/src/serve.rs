//! The `serve-wsvm` workload: WSVM models served by the real
//! `leaps serve` daemon on a unix socket, driven by this process over two
//! connections, one thread each.
//!
//! A run trains its models first (outside every timed region), then:
//!
//! 1. set-up: cold starts of the daemon, each timed from spawn until
//!    every first-wave session is open (models loaded from disk);
//! 2. warm-up: a short closed loop on the first-wave sessions;
//! 3. closed loop: each session keeps at most [`WINDOW`] events sent but
//!    not yet covered by a verdict; `events_per_s` is the rate at which
//!    verdicts cover events;
//! 4. open loop: events go out on a fixed schedule at [`OPEN_RATE`];
//!    latency runs from the due time of a verdict's last event to the
//!    verdict's arrival.
//!
//! Every verdict is compared with the standalone detector's verdict for
//! the same stream, and every session is closed and settled at the end
//! of each phase.

use crate::detector::{expected_upto, expected_verdicts, layer_times, Expected, LayerTimes};
use crate::metrics_wire::{parse_metrics_block, DaemonCounters};
use crate::report::{Report, Tracer};
use crate::sched::{Lateness, Schedule};
use crate::stats::{median, windowed_quantile, Summary};
use crate::tally::{Ack, Tally};
use crate::{Layers, Opts, WorkDir, SCENARIO};
use leaps::core::config::PipelineConfig;
use leaps::core::persist::{load_classifier_file, save_classifier_to};
use leaps::core::pipeline::{train_classifier, Classifier, Method};
use leaps::core::stream::Verdict;
use leaps::core::Dataset;
use leaps::etw::scenario::{GenParams, Scenario};
use leaps::serve::proto::encode_event;
use leaps::serve::{Server, ServerConfig, VerdictSink};
use leaps::trace::parser::parse_log;
use leaps::trace::partition::{partition_events, PartitionedEvent};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Load connections (and load-generator threads, one per connection).
pub const CONNS: usize = 2;
/// Daemon cold starts per run; `setup_s` is their median.
const SETUP_STARTS: usize = 15;
const WARMUP_S: f64 = 1.0;
/// Longest the daemon may stay silent while replies are owed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Longest sleep of the open-loop sender between polls for replies.
const POLL: Duration = Duration::from_micros(50);
/// Phases are cut into windows of this length; each end-to-end serve
/// metric is the median over a phase's windows, so a stall of the host
/// in a few of them does not move it.
const WINDOW_S: f64 = 1.0;
/// Daemon per-session queue cap; every window stays far below it.
const QUEUE_CAP: usize = 1024;

/// WSVM models served, each trained on paper-scale logs of its own seed.
const MODELS: usize = 6;
/// Production mixed logs per model; sessions cycle through them.
const STREAMS_PER_MODEL: usize = 2;
/// Events per production log, so per session pass.
const STREAM_LEN: usize = 3000;
const SESSIONS_PER_CONN: usize = 4;
/// Closed loop: events in flight per session.
const WINDOW: usize = 64;
/// Open loop: events/s offered in total, a constant well below the
/// closed-loop `events_per_s` measured at this commit (README.md says
/// how it was chosen).
const OPEN_RATE: f64 = 8000.0;

struct Model {
    name: String,
    path: PathBuf,
    classifier: Classifier,
}

struct StreamData {
    model: usize,
    events: Vec<PartitionedEvent>,
    nums: Vec<u64>,
    /// `encode_event` of every event, encoded before any timing.
    bodies: Vec<String>,
    expected: Vec<Expected>,
}

struct Data {
    models: Vec<Model>,
    streams: Vec<StreamData>,
}

fn parse_events(raw: &str) -> Result<Vec<PartitionedEvent>, String> {
    Ok(partition_events(&parse_log(raw).map_err(|e| e.to_string())?.events))
}

/// The paper-scale benign and mixed logs of `seed`, parsed.
fn paper_dataset(seed: u64) -> Result<Dataset, String> {
    let scenario = Scenario::by_name(SCENARIO).ok_or("unknown scenario")?;
    let raw = scenario.generate(&GenParams::paper(), seed);
    Ok(Dataset {
        scenario,
        benign: parse_events(&raw.benign)?,
        mixed: parse_events(&raw.mixed)?,
        malicious: Vec::new(),
    })
}

/// Trains `method` on the paper-scale dataset of `seed` as `leaps train`
/// does (split + train).
fn train_on(method: Method, data: &Dataset, seed: u64) -> Classifier {
    let cfg = PipelineConfig::default();
    let (train, _) = data.split_benign(cfg.benign_train_fraction, seed);
    train_classifier(method, &train, &data.mixed, &cfg, seed)
}

/// Trains and saves every model (split + train + atomic save, as
/// `leaps train`), returning the models and the time each took.
fn train_models(seed: u64, dir: &Path) -> Result<(Vec<Model>, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut models = Vec::new();
    for i in 0..MODELS {
        let model_seed = crate::sub_seed(seed, i);
        let data = paper_dataset(model_seed)?;
        let name = format!("wsvm-{i}");
        let path = dir.join(format!("{name}.model"));
        let t = Instant::now();
        let classifier = train_on(Method::Wsvm, &data, model_seed);
        save_classifier_to(&path, &classifier).map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64());
        models.push(Model { name, path, classifier });
    }
    Ok((models, times))
}

/// Production logs for the sessions, interleaved by model so that a
/// session moving to the next stream also moves to the next model.
fn build_streams(seed: u64, models: &[Model]) -> Result<Vec<StreamData>, String> {
    let params = GenParams {
        benign_events: 50,
        mixed_events: STREAM_LEN,
        malicious_events: 50,
        benign_ratio: 0.5,
    };
    let mut inputs = Vec::new();
    let scenario = Scenario::by_name(SCENARIO).ok_or("unknown scenario")?;
    for _ in 0..STREAMS_PER_MODEL {
        for m in 0..models.len() {
            let stream_seed = crate::sub_seed(seed, 1000 + inputs.len());
            inputs.push((m, parse_events(&scenario.generate(&params, stream_seed).mixed)?));
        }
    }
    let streams = leaps::core::par::par_map(&inputs, |(m, events)| StreamData {
        model: *m,
        nums: events.iter().map(|e| e.num).collect(),
        bodies: events.iter().map(encode_event).collect(),
        expected: expected_verdicts(&models[*m].classifier, events),
        events: events.clone(),
    });
    if streams.iter().any(|s| s.expected.is_empty()) {
        return Err("a production stream is shorter than one detector window".to_owned());
    }
    Ok(streams)
}

// ------------------------------------------------------------- daemon

/// A `leaps serve` child process; killed and reaped if dropped while
/// still running.
struct Daemon {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns the daemon with an environment of our own and waits until
    /// it reports its socket bound.
    fn spawn(bin: &Path, socket: &Path, models: &Path, workers: usize) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let mut child = std::process::Command::new(bin)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .arg("--models")
            .arg(models)
            .args(["--workers", &workers.to_string(), "--queue", &QUEUE_CAP.to_string()])
            .env_clear()
            .env("LEAPS_THREADS", workers.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon { child: Some(child), stdout: BufReader::new(stdout) };
        let mut line = String::new();
        daemon.stdout.read_line(&mut line).map_err(|e| format!("reading daemon stdout: {e}"))?;
        if !line.starts_with("leaps-serve listening") {
            return Err(format!("daemon did not start: {line:?}"));
        }
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Waits for the daemon to exit after `SHUTDOWN`; it must exit 0.
    fn wait_exit(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("daemon is running");
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not exit after SHUTDOWN".to_owned());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

// --------------------------------------------------------- connection

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// One protocol connection with an outgoing byte queue, usable in
/// blocking mode (closed loop, control) and non-blocking mode (open loop).
struct Conn {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
    out: Vec<u8>,
    partial: Vec<u8>,
}

impl Conn {
    fn connect(socket: &Path) -> Result<Conn, String> {
        let stream = UnixStream::connect(socket).map_err(io_err("connecting to the daemon"))?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(io_err("socket timeout"))?;
        let reader = BufReader::with_capacity(
            1 << 16,
            stream.try_clone().map_err(io_err("cloning socket"))?,
        );
        Ok(Conn { stream, reader, out: Vec::with_capacity(1 << 16), partial: Vec::new() })
    }

    fn push(&mut self, parts: &[&str]) {
        for part in parts {
            self.out.extend_from_slice(part.as_bytes());
        }
        self.out.push(b'\n');
    }

    fn set_nonblocking(&mut self, on: bool) -> Result<(), String> {
        self.stream.set_nonblocking(on).map_err(io_err("switching socket mode"))
    }

    /// Writes the whole queue (blocking mode).
    fn flush(&mut self) -> Result<(), String> {
        self.stream.write_all(&self.out).map_err(io_err("writing to the daemon"))?;
        self.out.clear();
        Ok(())
    }

    /// Writes what the socket takes now (non-blocking mode).
    fn pump(&mut self) -> Result<(), String> {
        let mut written = 0;
        while written < self.out.len() {
            match self.stream.write(&self.out[written..]) {
                Ok(0) => return Err("daemon closed the connection".to_owned()),
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("writing to the daemon: {e}")),
            }
        }
        self.out.drain(..written);
        Ok(())
    }

    /// The next complete reply line, or `None` if none is available yet
    /// (non-blocking mode) or the daemon stayed silent past
    /// [`REPLY_TIMEOUT`] (blocking mode).
    fn read_line(&mut self) -> Result<Option<String>, String> {
        match self.reader.read_until(b'\n', &mut self.partial) {
            Ok(_) if self.partial.last() == Some(&b'\n') => {
                self.partial.pop();
                let line = String::from_utf8(std::mem::take(&mut self.partial))
                    .map_err(|_| "daemon sent a non-UTF-8 line".to_owned())?;
                Ok(Some(line))
            }
            Ok(_) => Err("daemon closed the connection".to_owned()),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(None),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(format!("reading from the daemon: {e}")),
        }
    }

    /// Blocking read of the next line; silence is an error.
    fn expect_line(&mut self) -> Result<String, String> {
        self.read_line()?.ok_or_else(|| format!("daemon silent for {REPLY_TIMEOUT:?}"))
    }

    fn has_buffered_line(&self) -> bool {
        self.reader.buffer().contains(&b'\n')
    }
}

// ------------------------------------------------------ load generator

/// One session's pass over one stream. A session holds a queue of them:
/// the front one receives verdicts, the back one is sent to; any in
/// between are closing.
struct Gen {
    stream: usize,
    sent: usize,
    got: usize,
    covered: usize,
    /// Open loop: due time (s after phase start) of each event sent.
    due: Vec<f64>,
}

struct Sess {
    pid: u32,
    next_stream: usize,
    gens: VecDeque<Gen>,
}

/// What an acknowledgement still owed by the daemon answers.
enum Pending {
    Event { sent_s: f64 },
    Close { sess: usize },
    Other,
}

#[derive(Clone, Copy)]
enum Mode {
    Closed { window: usize },
    Open { rate: f64 },
}

/// Everything one connection measured in one phase.
#[derive(Default)]
struct PhaseStats {
    tally: Tally,
    /// Events covered by verdicts, per window of arrival.
    covered: Vec<u64>,
    /// Verdict latencies, per window of the last event's due time.
    latencies_ms: Vec<Vec<f64>>,
    rtt_us: Vec<f64>,
    late: Lateness,
}

struct Load<'a> {
    index: usize,
    conn: Conn,
    data: &'a Data,
    sessions: Vec<Sess>,
    pending: VecDeque<Pending>,
    origin: Instant,
    counting: bool,
    record_rtt: bool,
    stats: PhaseStats,
}

impl<'a> Load<'a> {
    fn new(
        index: usize,
        socket: &Path,
        data: &'a Data,
        per_conn: usize,
    ) -> Result<Load<'a>, String> {
        let conn = Conn::connect(socket)?;
        let base = 1000 * (index as u32 + 1);
        let sessions = (0..per_conn)
            .map(|s| Sess {
                pid: base + s as u32,
                next_stream: (index * per_conn + s) % data.streams.len(),
                gens: VecDeque::new(),
            })
            .collect();
        let mut load = Load {
            index,
            conn,
            data,
            sessions,
            pending: VecDeque::new(),
            origin: Instant::now(),
            counting: false,
            record_rtt: false,
            stats: PhaseStats::default(),
        };
        load.conn.push(&["HELLO lg", &index.to_string()]);
        load.pending.push_back(Pending::Other);
        Ok(load)
    }

    fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn send_open(&mut self, s: usize) {
        let sess = &mut self.sessions[s];
        let stream = sess.next_stream;
        sess.next_stream = (stream + 1) % self.data.streams.len();
        sess.gens.push_back(Gen { stream, sent: 0, got: 0, covered: 0, due: Vec::new() });
        let model = &self.data.models[self.data.streams[stream].model].name;
        let pid = sess.pid.to_string();
        self.conn.push(&["OPEN pid=", &pid, " model=", model]);
        self.pending.push_back(Pending::Other);
    }

    fn send_close(&mut self, s: usize) {
        let pid = self.sessions[s].pid.to_string();
        self.conn.push(&["CLOSE pid=", &pid]);
        self.pending.push_back(Pending::Close { sess: s });
    }

    /// Sends the next event of session `s`'s current stream.
    fn send_event(&mut self, s: usize, now_s: f64, due_s: Option<f64>) {
        let sess = &mut self.sessions[s];
        let gen = sess.gens.back_mut().expect("session is open");
        let body = &self.data.streams[gen.stream].bodies[gen.sent];
        let pid = sess.pid.to_string();
        self.conn.push(&["EVENT pid=", &pid, " ", body]);
        if let Some(due) = due_s {
            gen.due.push(due);
        }
        gen.sent += 1;
        self.stats.tally.sent += 1;
        self.pending.push_back(Pending::Event { sent_s: now_s });
    }

    /// Opens every session (one per pid) and waits for the acks.
    fn open_all(&mut self) -> Result<(), String> {
        for s in 0..self.sessions.len() {
            self.send_open(s);
        }
        self.settle()
    }

    /// Closes every session, waits for the acks and settles each stream.
    fn close_all(&mut self) -> Result<(), String> {
        for s in 0..self.sessions.len() {
            if !self.sessions[s].gens.is_empty() {
                self.send_close(s);
            }
        }
        self.settle()
    }

    /// Flushes and reads replies until no acknowledgement is owed.
    fn settle(&mut self) -> Result<(), String> {
        self.conn.flush()?;
        while !self.pending.is_empty() {
            let line = self.conn.expect_line()?;
            self.on_line(&line)?;
        }
        Ok(())
    }

    fn on_line(&mut self, line: &str) -> Result<(), String> {
        let now_s = self.now_s();
        if let Some(rest) = line.strip_prefix("VERDICT pid=") {
            return self.on_verdict(rest, now_s);
        }
        let ack = Ack::parse(line).ok_or_else(|| format!("unexpected line {line:?}"))?;
        if ack == Ack::Err {
            eprintln!("daemon: {line}");
        }
        match self.pending.pop_front().ok_or_else(|| format!("unsolicited reply {line:?}"))? {
            Pending::Event { sent_s } => {
                self.stats.tally.ack(ack, true);
                if self.record_rtt {
                    self.stats.rtt_us.push((now_s - sent_s) * 1e6);
                }
            }
            Pending::Close { sess } => {
                self.stats.tally.ack(ack, false);
                let gen = self.sessions[sess].gens.pop_front().expect("a closing stream");
                let expected = &self.data.streams[gen.stream].expected;
                self.stats.tally.close(expected_upto(expected, gen.sent), gen.got);
            }
            Pending::Other => self.stats.tally.ack(ack, false),
        }
        Ok(())
    }

    fn on_verdict(&mut self, rest: &str, now_s: f64) -> Result<(), String> {
        let (pid, body) = rest.split_once(' ').ok_or("malformed VERDICT line")?;
        let pid: u32 = pid.parse().map_err(|_| "bad VERDICT pid")?;
        let s = pid.checked_sub(1000 * (self.index as u32 + 1)).map(|s| s as usize);
        let sess = s.and_then(|s| self.sessions.get_mut(s)).ok_or("VERDICT for an unknown pid")?;
        let gen = sess.gens.front_mut().ok_or("VERDICT for a closed session")?;
        let stream = &self.data.streams[gen.stream];
        let expected = stream.expected.get(gen.got);
        let covered = if self.stats.tally.verdict(expected.map(|e| e.line.as_str()), body) {
            expected.map_or(gen.covered, |e| e.covered)
        } else {
            Verdict::parse_line(body)
                .and_then(|v| stream.nums.binary_search(&v.last_event).ok())
                .map_or(gen.covered, |i| i + 1)
        };
        gen.got += 1;
        if covered > gen.covered {
            if self.counting {
                *slot(&mut self.stats.covered, now_s) += (covered - gen.covered) as u64;
            }
            gen.covered = covered;
            if let Some(&due) = gen.due.get(covered - 1) {
                slot(&mut self.stats.latencies_ms, due).push((now_s - due) * 1e3);
            }
        }
        Ok(())
    }

    /// Runs one phase from `origin` until `end_s` seconds after it.
    fn run(&mut self, mode: Mode, origin: Instant, end_s: f64) -> Result<PhaseStats, String> {
        if let Some(wait) = origin.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        self.origin = origin;
        self.counting = true;
        let result = match mode {
            Mode::Closed { window } => self.run_closed(window, end_s),
            Mode::Open { rate } => self.run_open(rate, end_s),
        };
        self.counting = false;
        result?;
        self.close_all()?;
        Ok(std::mem::take(&mut self.stats))
    }

    fn run_closed(&mut self, window: usize, end_s: f64) -> Result<(), String> {
        while self.now_s() < end_s {
            let now_s = self.now_s();
            for s in 0..self.sessions.len() {
                let gen = self.sessions[s].gens.back().expect("session is open");
                let stream = &self.data.streams[gen.stream];
                if gen.sent == stream.bodies.len() && gen.got >= stream.expected.len() {
                    self.send_close(s);
                    self.send_open(s);
                }
                loop {
                    let gen = self.sessions[s].gens.back().expect("session is open");
                    if gen.sent == self.data.streams[gen.stream].bodies.len()
                        || gen.sent - gen.covered >= window
                    {
                        break;
                    }
                    self.send_event(s, now_s, None);
                }
            }
            self.conn.flush()?;
            let line = self.conn.expect_line()?;
            self.on_line(&line)?;
            while self.conn.has_buffered_line() {
                let line = self.conn.expect_line()?;
                self.on_line(&line)?;
            }
        }
        Ok(())
    }

    fn run_open(&mut self, rate: f64, end_s: f64) -> Result<(), String> {
        let schedule = Schedule::new(rate, self.index, CONNS);
        let sessions = self.sessions.len();
        self.conn.set_nonblocking(true)?;
        let mut j = 0;
        let result = loop {
            while let Some(line) = self.conn.read_line()? {
                self.on_line(&line)?;
            }
            let now_s = self.now_s();
            if now_s >= end_s {
                break Ok(());
            }
            while schedule.due_s(j) <= now_s {
                let s = j % sessions;
                let gen = self.sessions[s].gens.back().expect("session is open");
                if gen.sent == self.data.streams[gen.stream].bodies.len() {
                    self.send_close(s);
                    self.send_open(s);
                }
                let due = schedule.due_s(j);
                self.send_event(s, now_s, Some(due));
                self.stats.late.record(due, now_s);
                j += 1;
            }
            if let Err(e) = self.conn.pump() {
                break Err(e);
            }
            let wait = schedule.due_s(j) - self.now_s();
            if wait > 0.0 {
                std::thread::sleep(POLL.min(Duration::from_secs_f64(wait)));
            }
        };
        self.conn.set_nonblocking(false)?;
        result
    }
}

/// The entry of `per_window` for time `t_s`, grown on demand.
fn slot<T: Default>(per_window: &mut Vec<T>, t_s: f64) -> &mut T {
    let w = (t_s / WINDOW_S) as usize;
    if per_window.len() <= w {
        per_window.resize_with(w + 1, T::default);
    }
    &mut per_window[w]
}

/// Result of one phase across both connections.
struct Phase {
    secs: f64,
    tally: Tally,
    /// Events covered by verdicts in each whole window of the phase.
    covered: Vec<u64>,
    latencies: Vec<Vec<f64>>,
    rtt: Summary,
    late: Summary,
}

impl Phase {
    /// Median over the phase's whole windows of the covered-events rate.
    fn events_per_s(&self) -> f64 {
        let whole = (self.secs / WINDOW_S) as usize;
        let rates: Vec<f64> =
            self.covered.iter().take(whole).map(|&n| n as f64 / WINDOW_S).collect();
        median(&rates).unwrap_or(0.0)
    }

    fn latency_samples(&self) -> usize {
        self.latencies.iter().map(Vec::len).sum()
    }
}

/// Runs one phase on both connections, one thread each. With `reopen`,
/// fresh sessions are opened first (outside the timed window).
fn run_phase(
    loads: &mut [Load<'_>],
    mode: Mode,
    secs: f64,
    reopen: bool,
    record_rtt: bool,
) -> Result<Phase, String> {
    if reopen {
        for load in loads.iter_mut() {
            load.open_all()?;
        }
    }
    let origin = Instant::now() + Duration::from_millis(20);
    let results: Vec<Result<PhaseStats, String>> = std::thread::scope(|scope| {
        let (first, rest) = loads.split_first_mut().expect("at least one connection");
        let handles: Vec<_> = rest
            .iter_mut()
            .map(|load| {
                load.record_rtt = record_rtt;
                scope.spawn(move || load.run(mode, origin, secs))
            })
            .collect();
        first.record_rtt = record_rtt;
        let mut out = vec![first.run(mode, origin, secs)];
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("load thread panicked".to_owned()))),
        );
        out
    });
    let mut tally = Tally::default();
    let (mut covered, mut rtt, mut late) = (Vec::new(), Vec::new(), Vec::new());
    let mut latencies: Vec<Vec<f64>> = Vec::new();
    for stats in results {
        let stats = stats?;
        tally.merge(&stats.tally);
        for (w, n) in stats.covered.into_iter().enumerate() {
            *slot(&mut covered, w as f64 * WINDOW_S) += n;
        }
        for (w, samples) in stats.latencies_ms.into_iter().enumerate() {
            slot(&mut latencies, w as f64 * WINDOW_S).extend(samples);
        }
        rtt.extend(stats.rtt_us);
        late.extend(stats.late.samples_ms);
    }
    Ok(Phase { secs, tally, covered, latencies, rtt: Summary::new(rtt), late: Summary::new(late) })
}

/// A running daemon with its load connections and first-wave sessions
/// open.
struct Live<'a> {
    daemon: Daemon,
    loads: Vec<Load<'a>>,
}

fn cold_start<'a>(
    opts: &Opts,
    work: &WorkDir,
    data: &'a Data,
    workers: usize,
) -> Result<(Live<'a>, f64), String> {
    let socket = work.path("d.sock");
    let t = Instant::now();
    let daemon = Daemon::spawn(&opts.daemon, &socket, &work.path("models"), workers)?;
    let mut loads = (0..CONNS)
        .map(|i| Load::new(i, &socket, data, SESSIONS_PER_CONN))
        .collect::<Result<Vec<_>, _>>()?;
    for load in &mut loads {
        for s in 0..load.sessions.len() {
            load.send_open(s);
        }
        load.conn.flush()?;
    }
    for load in &mut loads {
        load.settle()?;
    }
    let secs = t.elapsed().as_secs_f64();
    Ok((Live { daemon, loads }, secs))
}

/// Closes the load connections and shuts the daemon down; it must exit 0.
fn shutdown(live: Live<'_>) -> Result<Tally, String> {
    let Live { daemon, mut loads } = live;
    let mut tally = Tally::default();
    let mut first = loads.remove(0);
    for load in loads {
        tally.merge(&load.stats.tally);
    }
    first.conn.push(&["SHUTDOWN"]);
    first.pending.push_back(Pending::Other);
    first.settle()?;
    tally.merge(&first.stats.tally);
    drop(first);
    daemon.wait_exit()?;
    Ok(tally)
}

fn fetch_metrics(load: &mut Load<'_>) -> Result<DaemonCounters, String> {
    load.conn.push(&["METRICS"]);
    load.conn.flush()?;
    let ack = load.conn.expect_line()?;
    let count = ack
        .strip_prefix("OK metrics n=")
        .and_then(|n| n.parse::<usize>().ok())
        .ok_or_else(|| format!("bad METRICS acknowledgement {ack:?}"))?;
    let lines = (0..count).map(|_| load.conn.expect_line()).collect::<Result<Vec<_>, _>>()?;
    Ok(DaemonCounters::from_snapshot(&parse_metrics_block(&ack, &lines)?))
}

/// A sink timing each verdict from the due time of its last event.
struct LatencySink {
    origin: Instant,
    due: Mutex<HashMap<(u32, u64), f64>>,
    latencies_ms: Mutex<Vec<f64>>,
}

impl VerdictSink for LatencySink {
    fn deliver(&self, pid: u32, verdict: &Verdict) {
        let now_s = self.origin.elapsed().as_secs_f64();
        let due = leaps::serve::lock_unpoisoned(&self.due).remove(&(pid, verdict.last_event));
        if let Some(due) = due {
            leaps::serve::lock_unpoisoned(&self.latencies_ms).push((now_s - due) * 1e3);
        }
    }
}

/// Median verdict latency of the in-process `Server` (no socket, no
/// wire) at the open-loop rate: `Server::submit` → sink.
fn inproc_verdict_p50_ms(
    data: &Data,
    models: &Path,
    workers: usize,
    secs: f64,
) -> Result<f64, String> {
    let server = Server::try_new(&ServerConfig {
        workers,
        queue_cap: QUEUE_CAP,
        ..ServerConfig::new(models)
    })
    .map_err(|e| e.to_string())?;
    let sink = Arc::new(LatencySink {
        origin: Instant::now(),
        due: Mutex::new(HashMap::new()),
        latencies_ms: Mutex::new(Vec::new()),
    });
    let sessions = CONNS * SESSIONS_PER_CONN;
    // (pid, stream, next event) per session; a spent stream is closed
    // and the session reopened under a new pid on the next stream.
    let mut state: Vec<(u32, usize, usize)> =
        (0..sessions).map(|s| (s as u32 + 1, s % data.streams.len(), 0)).collect();
    let mut next_pid = sessions as u32 + 1;
    let open = |pid: u32, stream: usize| {
        let sink: Arc<dyn VerdictSink> = sink.clone();
        server
            .open("inproc", pid, &data.models[data.streams[stream].model].name, sink)
            .map_err(|e| e.to_string())
    };
    for &(pid, stream, _) in &state {
        open(pid, stream)?;
    }
    let origin = sink.origin;
    let mut j = 0usize;
    loop {
        let due = j as f64 / OPEN_RATE;
        if due >= secs {
            break;
        }
        let wait = due - origin.elapsed().as_secs_f64();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
        let slot = &mut state[j % sessions];
        if slot.2 == data.streams[slot.1].events.len() {
            server.close("inproc", slot.0).map_err(|e| e.to_string())?;
            *slot = (next_pid, (slot.1 + 1) % data.streams.len(), 0);
            next_pid += 1;
            open(slot.0, slot.1)?;
        }
        let event = data.streams[slot.1].events[slot.2].clone();
        leaps::serve::lock_unpoisoned(&sink.due).insert((slot.0, event.num), due);
        server.submit("inproc", slot.0, event).map_err(|e| e.to_string())?;
        slot.2 += 1;
        j += 1;
    }
    server.close_all();
    let latencies = std::mem::take(&mut *leaps::serve::lock_unpoisoned(&sink.latencies_ms));
    Ok(Summary::new(latencies).quantile(0.5).unwrap_or(0.0))
}

fn print_phase(name: &str, mode: Mode, phase: &Phase) {
    let shape = match mode {
        Mode::Closed { window } => format!("closed loop, window={window}"),
        Mode::Open { rate } => format!("open loop, rate={rate}/s"),
    };
    println!(
        "phase {name}: {shape}, {:.1}s, {CONNS} connections x {} sessions: {}; events/s={:.1}, latency samples={}",
        phase.secs,
        SESSIONS_PER_CONN,
        phase.tally.describe(),
        phase.events_per_s(),
        phase.latency_samples()
    );
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let work = WorkDir::create(opts)?;
    let models_dir = work.path("models");
    std::fs::create_dir_all(&models_dir).map_err(io_err("creating the model directory"))?;
    let workers = leaps::core::par::thread_count();
    let (models, train_times) = train_models(opts.seed, &models_dir)?;
    let streams = build_streams(opts.seed, &models)?;
    let data = Data { models, streams };
    println!(
        "workload serve-wsvm: models={} streams={}x{} events | load generator: {CONNS} threads, {CONNS} connections, {} sessions each | daemon: --workers {workers}, LEAPS_THREADS={workers}, --queue {QUEUE_CAP}",
        data.models.len(),
        data.streams.len(),
        STREAM_LEN,
        SESSIONS_PER_CONN,
    );

    let mut tracer = Tracer::new();
    let starts = if opts.trace { 1 } else { SETUP_STARTS };
    let mut setup = Vec::new();
    let mut total = Tally::default();
    let mut live = None;
    for i in 0..starts {
        let root = tracer.begin("setup", None);
        let (started, secs) = cold_start(opts, &work, &data, workers)?;
        tracer.end(root);
        setup.push(secs);
        if i + 1 < starts {
            total.merge(&shutdown(started)?);
        } else {
            live = Some(started);
        }
    }
    let mut live = live.expect("at least one cold start");

    let closed = Mode::Closed { window: WINDOW };
    let open = Mode::Open { rate: OPEN_RATE };
    let half = opts.seconds as f64 / 2.0;
    let mut phase = |tracer: &mut Tracer,
                     name: &'static str,
                     mode,
                     secs,
                     reopen,
                     rtt|
     -> Result<Phase, String> {
        let root = tracer.begin(name, None);
        let p = run_phase(&mut live.loads, mode, secs, reopen, rtt)?;
        tracer.end(root);
        print_phase(name, mode, &p);
        total.merge(&p.tally);
        Ok(p)
    };
    phase(&mut tracer, "warmup", closed, WARMUP_S, false, false)?;
    let closed_phase = phase(
        &mut tracer,
        "closed",
        closed,
        if opts.trace { half / 2.0 } else { half },
        true,
        false,
    )?;
    let traced_closed = if opts.trace {
        Some(phase(&mut tracer, "closed.traced", closed, half / 2.0, true, true)?)
    } else {
        None
    };
    let open_phase = phase(&mut tracer, "open", open, half, true, opts.trace)?;
    let counters = if opts.trace { Some(fetch_metrics(&mut live.loads[0])?) } else { None };
    let daemon_rss = crate::procfs::peak_rss_mb(Some(live.daemon.pid()));
    total.merge(&shutdown(live)?);
    println!("run total: {}", total.describe());

    let mut report = Report::default();
    report.correct = total.failed() == 0;
    report.attempted = total.sent;
    report.failed = total.failed();
    if !opts.trace {
        println!(
            "open loop: {} verdict latency samples in {} windows of {WINDOW_S}s, generator lateness p90 {:.4} ms",
            open_phase.latency_samples(),
            open_phase.latencies.len(),
            open_phase.late.quantile(0.9).unwrap_or(0.0)
        );
        crate::end_to_end(
            &mut report,
            [
                median(&setup).unwrap_or(0.0),
                median(&train_times).unwrap_or(0.0),
                closed_phase.events_per_s(),
                windowed_quantile(&open_phase.latencies, 0.5).unwrap_or(f64::NAN),
                windowed_quantile(&open_phase.latencies, 0.9).unwrap_or(f64::NAN),
                daemon_rss.unwrap_or(f64::NAN),
            ],
        );
        return Ok(report);
    }

    let mut layers = Layers::default();
    let c = counters.expect("fetched in trace mode");
    layers.set("serve.shed", c.shed as f64);
    layers.set("serve.verdicts", c.verdicts as f64);
    layers.set("registry.loads", c.registry_loads as f64);
    layers.set("registry.hits", c.registry_hits as f64);
    layers.set("registry.hit_ratio", c.hit_ratio());
    layers.set("pool.jobs", c.pool_jobs as f64);
    layers.set("pool.jobs_per_event", c.jobs_per_event());
    layers.set("serve.proto_event_us_p50", c.proto_event_p50_us as f64);
    layers.set("serve.ack_rtt_us_p50", open_phase.rtt.quantile(0.5).unwrap_or(0.0));
    layers.set("loadgen.late_ms_p90", open_phase.late.quantile(0.9).unwrap_or(0.0));
    layers.set("loadgen.latency_samples", open_phase.latency_samples() as f64);
    if let Some(traced) = &traced_closed {
        layers.set("trace.overhead_ratio", closed_phase.events_per_s() / traced.events_per_s());
    }
    let root = tracer.begin("inproc", None);
    let inproc = inproc_verdict_p50_ms(&data, &models_dir, workers, half.min(3.0))?;
    tracer.end(root);
    layers.set("serve.inproc_verdict_p50_ms", inproc);

    let times: Vec<LayerTimes> = data
        .streams
        .iter()
        .map(|s| layer_times(&data.models[s.model].classifier, &s.events))
        .collect();
    type Field = (&'static str, fn(&LayerTimes) -> f64);
    let fields: [Field; 4] = [
        ("cluster.encode_us", |t| t.encode_us),
        ("svm.decision_us", |t| t.decision_us),
        ("core.push_us", |t| t.push_us),
        ("serve.wire_us", |t| t.wire_us),
    ];
    for (name, field) in fields {
        layers.set(name, times.iter().map(field).sum::<f64>() / times.len() as f64);
    }
    // The HMM and CGraph detectors are not served here; their per-call
    // costs are timed standalone over the first production stream, with
    // models trained on the first model's dataset.
    let seed0 = crate::sub_seed(opts.seed, 0);
    let dataset = paper_dataset(seed0)?;
    let events = &data.streams[0].events;
    let hmm = layer_times(&train_on(Method::Hmm, &dataset, seed0), events);
    layers.set("hmm.score_us", hmm.hmm_score_us);
    layers.set("hmm.window_us", hmm.hmm_window_us);
    let cgraph = layer_times(&train_on(Method::CGraph, &dataset, seed0), events);
    layers.set("cgraph.classify_us", cgraph.classify_us);

    let time_all = |f: &dyn Fn(&Model) -> Result<(), String>| -> Result<f64, String> {
        let mut reps = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            for m in &data.models {
                f(m)?;
            }
            reps.push(t.elapsed().as_secs_f64());
        }
        Ok(median(&reps).unwrap_or(0.0))
    };
    let save =
        time_all(&|m| save_classifier_to(&m.path, &m.classifier).map_err(|e| e.to_string()))?;
    let load = time_all(&|m| load_classifier_file(&m.path).map(|_| ()).map_err(|e| e.to_string()))?;
    layers.set("core.save_s", save);
    layers.set("core.load_s", load);
    let bytes: u64 =
        data.models.iter().map(|m| std::fs::metadata(&m.path).map_or(0, |md| md.len())).sum();
    layers.set("core.model_bytes", bytes as f64);
    crate::write_trace(opts, &tracer);
    layers.emit(&mut report);
    Ok(report)
}
