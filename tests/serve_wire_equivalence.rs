//! Wire equivalence: sessions streamed to a `leaps serve` daemon over a
//! socket, as `EVENT` lines, must get **bit-identical** `VERDICT` lines
//! to a standalone `StreamDetector` loading the same model file, for the
//! WSVM, HMM and call-graph models alike, on clean streams and on
//! streams with duplicated, missing and reordered events. Each `CLOSE`
//! must report the standalone detector's `stream.*` counters.
//!
//! A second test reloads a session's model mid-stream: the open session
//! keeps scoring with the model it was opened with, and a session opened
//! after the `RELOAD` uses the new file.
//!
//! The daemon's pool follows the `leaps-par` thread policy, so
//! `LEAPS_THREADS` sets its worker count.

use leaps::core::config::PipelineConfig;
use leaps::core::persist::{load_classifier, save_classifier};
use leaps::core::pipeline::{try_train_classifier, Method};
use leaps::core::stream::{StreamDetector, StreamStats};
use leaps::etw::scenario::{GenParams, Scenario};
use leaps::serve::{Command, Endpoint, Server, ServerConfig};
use leaps::trace::parser::parse_log;
use leaps::trace::partition::{partition_events, PartitionedEvent};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Events per write: small enough that the replies of one burst never
/// fill a socket buffer while the test is still writing.
const BURST: usize = 48;

fn events_of(raw: &str) -> Vec<PartitionedEvent> {
    partition_events(&parse_log(raw).expect("scenario logs parse").events)
}

/// A model directory holding WSVM, HMM and CGraph models trained on one
/// `vim_reverse_tcp` dataset, and the streams to score: the held-out
/// mixed and malicious logs of another seed.
fn setup(tag: &str) -> (PathBuf, Vec<PartitionedEvent>, Vec<PartitionedEvent>) {
    let scenario = Scenario::by_name("vim_reverse_tcp").unwrap();
    let logs = scenario.generate(&GenParams::small(), 0x3e1);
    let (benign, mixed) = (events_of(&logs.benign), events_of(&logs.mixed));
    let dir = std::env::temp_dir().join(format!("leaps-wire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (name, method) in [("wsvm", Method::Wsvm), ("hmm", Method::Hmm), ("cgraph", Method::CGraph)]
    {
        let model = try_train_classifier(method, &benign, &mixed, &PipelineConfig::fast(), 7)
            .expect("training succeeds on scenario data");
        std::fs::write(dir.join(format!("{name}.model")), save_classifier(&model)).unwrap();
    }
    let held_out = scenario.generate(&GenParams::small(), 0x3e2);
    (dir, events_of(&held_out.mixed), events_of(&held_out.malicious))
}

/// `events` with telemetry damage: every 13th event sent twice in a row,
/// every 17th dropped and every 19th swapped with its successor.
fn damaged(events: &[PartitionedEvent]) -> Vec<PartitionedEvent> {
    let mut out: Vec<PartitionedEvent> = Vec::with_capacity(events.len() + events.len() / 13);
    for (i, event) in events.iter().enumerate() {
        if i % 17 == 16 {
            continue;
        }
        out.push(event.clone());
        if i % 13 == 12 {
            out.push(event.clone());
        }
    }
    let mut i = 18;
    while i + 1 < out.len() {
        out.swap(i, i + 1);
        i += 19;
    }
    out
}

/// A daemon over `dir` on a loopback TCP port, with no load shedding.
fn daemon(dir: &Path) -> (Endpoint, JoinHandle<usize>) {
    let server =
        Arc::new(Server::new(&ServerConfig { queue_cap: 1 << 20, ..ServerConfig::new(dir) }));
    let bound = Endpoint::Tcp("127.0.0.1:0".to_owned()).bind().unwrap();
    let endpoint = bound.endpoint().clone();
    (endpoint, std::thread::spawn(move || bound.run(&server).unwrap()))
}

/// One client connection. `VERDICT` pushes are filed by session pid, as
/// their wire bodies, in arrival order.
struct Wire {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    verdicts: BTreeMap<u32, Vec<String>>,
}

impl Wire {
    fn connect(endpoint: &Endpoint, client: &str) -> Wire {
        let Endpoint::Tcp(addr) = endpoint else { unreachable!("TCP daemon") };
        let writer = TcpStream::connect(addr).unwrap();
        writer.set_read_timeout(Some(std::time::Duration::from_secs(60))).unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        let mut wire = Wire { writer, reader, verdicts: BTreeMap::new() };
        let acks = wire.send(&[Command::Hello { client: client.to_owned() }.to_line()]);
        assert!(acks[0].starts_with("OK hello"), "{acks:?}");
        wire
    }

    /// Writes `lines` in one write and returns their acknowledgements in
    /// order, filing every `VERDICT` that arrives meanwhile.
    fn send(&mut self, lines: &[String]) -> Vec<String> {
        let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
        self.writer.write_all(text.as_bytes()).unwrap();
        let mut acks = Vec::with_capacity(lines.len());
        while acks.len() < lines.len() {
            let mut line = String::new();
            assert!(self.reader.read_line(&mut line).unwrap() > 0, "daemon closed the connection");
            let line = line.trim_end();
            if let Some(rest) = line.strip_prefix("VERDICT pid=") {
                let (pid, body) = rest.split_once(' ').expect("VERDICT pid=<pid> <body>");
                self.verdicts.entry(pid.parse().unwrap()).or_default().push(body.to_owned());
            } else {
                acks.push(line.to_owned());
            }
        }
        acks
    }

    /// Streams `events` into session `pid` in bursts; every ack must be
    /// `OK event`.
    fn stream(&mut self, pid: u32, events: &[PartitionedEvent]) {
        for chunk in events.chunks(BURST) {
            let lines: Vec<String> = chunk
                .iter()
                .map(|event| Command::Event { pid, event: event.clone() }.to_line())
                .collect();
            let acks = self.send(&lines);
            assert!(acks.iter().all(|a| a == "OK event"), "session {pid}: {acks:?}");
        }
    }

    /// Closes session `pid`; returns the `OK close` reply and the
    /// session's verdict bodies, all of which precede it.
    fn close(&mut self, pid: u32) -> (String, Vec<String>) {
        let ack = self.send(&[Command::Close { pid }.to_line()]).remove(0);
        assert!(ack.starts_with(&format!("OK close pid={pid} ")), "{ack}");
        (ack, self.verdicts.remove(&pid).unwrap_or_default())
    }
}

/// The standalone detector's verdict bodies and counters for `events`
/// under the model file `path`.
fn standalone(path: &Path, events: &[PartitionedEvent]) -> (Vec<String>, StreamStats) {
    let text = std::fs::read_to_string(path).unwrap();
    let mut detector = StreamDetector::new(load_classifier(&text).unwrap());
    let verdicts = detector.push_all(events.iter().cloned());
    (verdicts.iter().map(|v| v.to_line()).collect(), detector.stats())
}

/// The `stream.*` tail of a `CLOSE` reply with these counters.
fn stream_fields(s: StreamStats) -> String {
    format!(
        "stream.accepted={} stream.duplicates={} stream.gaps={} stream.missing={} \
         stream.reordered={} stream.degraded={}",
        s.accepted, s.duplicates, s.gaps, s.missing, s.reordered, s.degraded_verdicts
    )
}

/// Checks one closed session against the standalone detector.
fn check(session: &str, (ack, got): (String, Vec<String>), expected: &(Vec<String>, StreamStats)) {
    assert!(!expected.0.is_empty(), "{session}: the stream must produce verdicts");
    assert_eq!(got.len(), expected.0.len(), "{session}: verdict count");
    for (i, (g, e)) in got.iter().zip(&expected.0).enumerate() {
        assert_eq!(g, e, "{session}: verdict {i} differs from the standalone detector");
    }
    assert!(ack.ends_with(&stream_fields(expected.1)), "{session}: counters differ: {ack}");
}

#[test]
fn socket_sessions_of_every_model_match_standalone_detectors_bit_for_bit() {
    let (dir, mixed, malicious) = setup("equiv");
    let (endpoint, daemon) = daemon(&dir);
    let streams = [mixed.clone(), damaged(&mixed), malicious.clone(), damaged(&malicious)];
    let models = ["wsvm", "hmm", "cgraph"];
    // Two connections, each carrying six sessions: every model over
    // every stream, interleaved one burst at a time.
    let mut wires = [Wire::connect(&endpoint, "wire-a"), Wire::connect(&endpoint, "wire-b")];
    let sessions: Vec<(usize, u32, &str, &[PartitionedEvent])> =
        (0..12).map(|i| (i % 2, i as u32, models[i % 3], streams[i % 4].as_slice())).collect();
    for &(conn, pid, model, _) in &sessions {
        let acks = wires[conn].send(&[Command::Open { pid, model: model.to_owned() }.to_line()]);
        assert_eq!(acks[0], format!("OK open pid={pid} model={model}"));
    }
    let longest = streams.iter().map(Vec::len).max().unwrap();
    for start in (0..longest).step_by(BURST) {
        for &(conn, pid, _, events) in &sessions {
            let end = (start + BURST).min(events.len());
            if start < end {
                wires[conn].stream(pid, &events[start..end]);
            }
        }
    }
    let mut damage = StreamStats::default();
    for &(conn, pid, model, events) in &sessions {
        let expected = standalone(&dir.join(format!("{model}.model")), events);
        damage.duplicates += expected.1.duplicates;
        damage.gaps += expected.1.gaps;
        damage.reordered += expected.1.reordered;
        check(&format!("session {pid} ({model})"), wires[conn].close(pid), &expected);
    }
    assert!(
        damage.duplicates > 0 && damage.gaps > 0 && damage.reordered > 0,
        "the damaged streams must carry duplicates, gaps and reorders: {damage:?}"
    );
    let acks = wires[0].send(&[Command::Shutdown.to_line()]);
    assert_eq!(acks[0], "OK shutdown");
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_reload_leaves_open_sessions_on_their_model_and_new_sessions_get_the_new_one() {
    let (dir, mixed, _) = setup("reload");
    let live = dir.join("live.model");
    std::fs::copy(dir.join("wsvm.model"), &live).unwrap();
    let (endpoint, daemon) = daemon(&dir);
    let mut wire = Wire::connect(&endpoint, "reloader");
    let open = |pid: u32| Command::Open { pid, model: "live".to_owned() }.to_line();
    assert_eq!(wire.send(&[open(1)])[0], "OK open pid=1 model=live");
    let half = mixed.len() / 2;
    wire.stream(1, &mixed[..half]);

    // The file behind `live` becomes the HMM model, and is reloaded
    // while session 1 is mid-stream.
    std::fs::copy(dir.join("hmm.model"), &live).unwrap();
    assert_eq!(
        wire.send(&[Command::Reload { model: "live".to_owned() }.to_line()])[0],
        "OK reload model=live"
    );
    wire.stream(1, &mixed[half..]);
    assert_eq!(wire.send(&[open(2)])[0], "OK open pid=2 model=live");
    wire.stream(2, &mixed);

    let old = standalone(&dir.join("wsvm.model"), &mixed);
    let new = standalone(&dir.join("hmm.model"), &mixed);
    assert_ne!(old.0, new.0, "the two models must score the stream differently");
    check("session 1 (opened before RELOAD)", wire.close(1), &old);
    check("session 2 (opened after RELOAD)", wire.close(2), &new);
    assert_eq!(wire.send(&[Command::Shutdown.to_line()])[0], "OK shutdown");
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
