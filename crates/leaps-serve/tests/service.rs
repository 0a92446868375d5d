//! Service-level tests over a cheap call-graph model: session lifecycle,
//! deterministic load shedding with `BUSY` outcomes, accept-path
//! liveness while a session floods, and the socket daemon end-to-end on
//! both transports.

use leaps_cgraph::classify::CallGraphClassifier;
use leaps_cgraph::graph::CallGraph;
use leaps_core::persist::save_classifier;
use leaps_core::pipeline::Classifier;
use leaps_core::stream::Verdict;
use leaps_etw::event::{EventType, StackFrame};
use leaps_etw::Va;
use leaps_serve::{
    lock_unpoisoned, BufferSink, Client, Command, Endpoint, Reply, Server, ServerConfig, Submit,
    VerdictSink,
};
use leaps_trace::partition::PartitionedEvent;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

/// A benign/malicious pair of invocation chains and the matching
/// call-graph classifier: `sys!a → sys!b` is benign, `sys!x → sys!y`
/// malicious-only.
fn tiny_classifier() -> Classifier {
    let chain_b = vec!["sys!a".to_owned(), "sys!b".to_owned()];
    let chain_m = vec!["sys!x".to_owned(), "sys!y".to_owned()];
    let bcg = CallGraph::from_parts([("sys!a".to_owned(), "sys!b".to_owned())], [chain_b.clone()]);
    let mcg = CallGraph::from_parts(
        [("sys!a".to_owned(), "sys!b".to_owned()), ("sys!x".to_owned(), "sys!y".to_owned())],
        [chain_b, chain_m],
    );
    Classifier::CGraph(CallGraphClassifier::from_parts(bcg, mcg))
}

fn event(num: u64, benign: bool) -> PartitionedEvent {
    let (m1, f1, m2, f2) = if benign { ("sys", "a", "sys", "b") } else { ("sys", "x", "sys", "y") };
    PartitionedEvent {
        num,
        etype: EventType::FileRead,
        tid: 1,
        app_stack: vec![StackFrame::new("app", "main", Va(0x400000 + num), true)],
        system_stack: vec![
            StackFrame::new(m1, f1, Va(0x7000_0000 + num), false),
            StackFrame::new(m2, f2, Va(0x7000_1000 + num), false),
        ],
        truth: None,
    }
}

fn models_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("leaps-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("tiny.model"), save_classifier(&tiny_classifier())).unwrap();
    dir
}

fn config(tag: &str) -> ServerConfig {
    ServerConfig { workers: 2, ..ServerConfig::new(models_dir(tag)) }
}

/// A counter of the server's own registry; 0 until something records it.
fn counter(server: &Server, name: &str) -> u64 {
    server.metrics().snapshot().counter(name).unwrap_or(0)
}

/// Sessions currently open, as the server's `serve.sessions` gauge says.
fn sessions(server: &Server) -> Option<i64> {
    server.metrics().snapshot().gauge("serve.sessions")
}

#[test]
fn session_lifecycle_and_verdict_equivalence() {
    let server = Server::new(&config("lifecycle"));
    let sinks: Vec<Arc<BufferSink>> = (0..3).map(|_| Arc::new(BufferSink::new())).collect();
    for (pid, sink) in sinks.iter().enumerate() {
        let sink: Arc<dyn VerdictSink> = Arc::clone(sink) as Arc<dyn VerdictSink>;
        server.open("cli", pid as u32, "tiny", sink).unwrap();
    }
    assert_eq!(sessions(&server), Some(3));
    // Double-open and unknown sessions are protocol errors.
    assert_eq!(
        server.open("cli", 0, "tiny", Arc::new(BufferSink::new())).unwrap_err().exit_code(),
        7
    );
    assert_eq!(server.submit("cli", 99, event(1, true)).unwrap_err().exit_code(), 7);

    // Interleave three per-session streams (session i sees events where
    // num % 3 == i, with a malicious run inside session 1).
    let per_session: Vec<Vec<PartitionedEvent>> = (0..3u64)
        .map(|i| (0..60).map(|n| event(3 * n + i, !(i == 1 && (20..30).contains(&n)))).collect())
        .collect();
    for n in 0..60 {
        for (pid, events) in per_session.iter().enumerate() {
            assert!(matches!(
                server.submit("cli", pid as u32, events[n].clone()).unwrap(),
                Submit::Accepted { .. }
            ));
        }
    }
    for (pid, (sink, events)) in sinks.iter().zip(&per_session).enumerate() {
        let report = server.close("cli", pid as u32).unwrap();
        assert_eq!(report.submitted, 60);
        assert_eq!(report.shed, 0);
        assert_eq!(report.verdicts, 60, "call-graph model scores per event");
        // Bit-identical to a standalone detector over the same order.
        let mut standalone = leaps_core::stream::StreamDetector::new(tiny_classifier());
        let expected: Vec<Verdict> = standalone.push_all(events.iter().cloned());
        assert_eq!(sink.take(), expected);
    }
    assert_eq!(sessions(&server), Some(0));
    assert_eq!(server.close("cli", 0).unwrap_err().exit_code(), 7, "close is terminal");
}

/// A sink whose first delivery parks until released — makes queue
/// overflow deterministic without sleeps.
struct GateSink {
    entered: Sender<()>,
    release: Mutex<Receiver<()>>,
    gated: Mutex<bool>,
    inner: BufferSink,
}

impl VerdictSink for GateSink {
    fn deliver(&self, pid: u32, verdict: &Verdict) {
        let mut gated = lock_unpoisoned(&self.gated);
        if *gated {
            *gated = false;
            self.entered.send(()).unwrap();
            lock_unpoisoned(&self.release).recv().unwrap();
        }
        drop(gated);
        self.inner.deliver(pid, verdict);
    }
}

#[test]
fn full_queue_sheds_oldest_and_reports_busy_without_blocking() {
    let cfg = ServerConfig { workers: 2, queue_cap: 2, ..ServerConfig::new(models_dir("shed")) };
    let server = Server::new(&cfg);
    let (entered_tx, entered_rx) = channel();
    let (release_tx, release_rx) = channel();
    let sink = Arc::new(GateSink {
        entered: entered_tx,
        release: Mutex::new(release_rx),
        gated: Mutex::new(true),
        inner: BufferSink::new(),
    });
    server.open("cli", 1, "tiny", Arc::clone(&sink) as Arc<dyn VerdictSink>).unwrap();

    // Event 0 is drained immediately; its delivery parks the worker.
    assert!(matches!(server.submit("cli", 1, event(0, true)).unwrap(), Submit::Accepted { .. }));
    entered_rx.recv().unwrap();

    // With the worker parked, fill the queue (cap 2) and overflow it.
    assert_eq!(server.submit("cli", 1, event(1, true)).unwrap(), Submit::Accepted { queued: 1 });
    assert_eq!(server.submit("cli", 1, event(2, true)).unwrap(), Submit::Accepted { queued: 2 });
    assert_eq!(server.submit("cli", 1, event(3, true)).unwrap(), Submit::Busy { shed: 1 });
    assert_eq!(server.submit("cli", 1, event(4, true)).unwrap(), Submit::Busy { shed: 2 });

    // While that session floods, a second session on the other worker
    // opens, scores and closes — the accept path never stalls. Waiting
    // for the tiny queue to drain between submits keeps this session's
    // own backpressure out of the picture.
    let other = Arc::new(BufferSink::new());
    server.open("cli", 2, "tiny", Arc::clone(&other) as Arc<dyn VerdictSink>).unwrap();
    for n in 0..5 {
        assert!(matches!(
            server.submit("cli", 2, event(n, true)).unwrap(),
            Submit::Accepted { .. }
        ));
        while server.session_stats("cli", 2).unwrap().queued > 0 {
            std::thread::yield_now();
        }
    }
    let report = server.close("cli", 2).unwrap();
    assert_eq!((report.verdicts, report.shed), (5, 0));

    release_tx.send(()).unwrap();
    let report = server.close("cli", 1).unwrap();
    assert_eq!(report.submitted, 5);
    assert_eq!(report.shed, 2, "events 1 and 2 were shed as oldest");
    assert_eq!(report.verdicts, 3, "events 0, 3, 4 were scored");
    let nums: Vec<u64> = sink.inner.take().iter().map(|v| v.last_event).collect();
    assert_eq!(nums, vec![0, 3, 4]);
    assert!(report.stream.gaps > 0, "shedding surfaces as sequence gaps");
}

#[test]
fn daemon_speaks_the_protocol_over_tcp_and_shuts_down_gracefully() {
    let server = Arc::new(Server::new(&config("tcp")));
    let bound = Endpoint::Tcp("127.0.0.1:0".to_owned()).bind().unwrap();
    let endpoint = bound.endpoint().clone();
    let daemon_server = Arc::clone(&server);
    let daemon = std::thread::spawn(move || bound.run(&daemon_server).unwrap());

    let mut verdicts: Vec<(u32, Verdict)> = Vec::new();
    let mut client = Client::connect(&endpoint).unwrap();
    // State machine: HELLO is mandatory and unique.
    let ack = client.request(&Command::Open { pid: 7, model: "tiny".into() }, &mut verdicts);
    assert!(matches!(ack.unwrap(), Reply::Err { family, .. } if family == "proto"));
    let detail =
        client.expect_ok(&Command::Hello { client: "itest".into() }, &mut verdicts).unwrap();
    assert!(detail.contains("leaps-serve v1"), "{detail}");

    // Unknown model → ERR io (file not found), connection stays usable.
    let ack = client.request(&Command::Open { pid: 7, model: "absent".into() }, &mut verdicts);
    assert!(matches!(ack.unwrap(), Reply::Err { family, .. } if family == "io"));

    client.expect_ok(&Command::Open { pid: 7, model: "tiny".into() }, &mut verdicts).unwrap();
    for n in 0..10 {
        let ack = client
            .request(&Command::Event { pid: 7, event: event(n, n % 2 == 0) }, &mut verdicts)
            .unwrap();
        assert!(ack.is_ack());
    }
    let detail = client.expect_ok(&Command::Close { pid: 7 }, &mut verdicts).unwrap();
    assert!(detail.contains("submitted=10"), "{detail}");
    assert_eq!(verdicts.len(), 10, "all verdicts delivered by close");
    assert!(verdicts.iter().all(|(pid, _)| *pid == 7));
    let benign: Vec<bool> = verdicts.iter().map(|(_, v)| v.benign).collect();
    let expected: Vec<bool> = (0..10).map(|n| n % 2 == 0).collect();
    assert_eq!(benign, expected);

    let detail = client.expect_ok(&Command::Stats { pid: None }, &mut verdicts).unwrap();
    assert!(detail.contains("sessions=0"), "{detail}");
    client.expect_ok(&Command::Reload { model: "tiny".into() }, &mut verdicts).unwrap();
    client.expect_ok(&Command::Shutdown, &mut verdicts).unwrap();
    drop(client);
    let drained = daemon.join().unwrap();
    assert_eq!(drained, 0, "no sessions left open at shutdown");
}

#[test]
fn a_leaving_connection_closes_only_its_own_sessions() {
    // Two connections introduce themselves with the same client id, as
    // two `leaps submit` runs with the default `--client` do, and each
    // opens its own pid. One leaves, by `BYE` or by dropping the socket;
    // the other's session must keep serving and report every event.
    for (tag, bye) in [("shared-bye", true), ("shared-drop", false)] {
        let server = Arc::new(Server::new(&config(tag)));
        let bound = Endpoint::Tcp("127.0.0.1:0".to_owned()).bind().unwrap();
        let endpoint = bound.endpoint().clone();
        let daemon_server = Arc::clone(&server);
        let daemon = std::thread::spawn(move || bound.run(&daemon_server).unwrap());

        let mut stays_verdicts = Vec::new();
        let mut leaves_verdicts = Vec::new();
        let mut stays = Client::connect(&endpoint).unwrap();
        let mut leaves = Client::connect(&endpoint).unwrap();
        for (client, pid, verdicts) in
            [(&mut stays, 1, &mut stays_verdicts), (&mut leaves, 2, &mut leaves_verdicts)]
        {
            client.expect_ok(&Command::Hello { client: "dup".into() }, verdicts).unwrap();
            client.expect_ok(&Command::Open { pid, model: "tiny".into() }, verdicts).unwrap();
            for n in 0..3 {
                let ack = client.request(&Command::Event { pid, event: event(n, true) }, verdicts);
                assert!(ack.unwrap().is_ack(), "{tag}");
            }
        }
        if bye {
            leaves.expect_ok(&Command::Bye, &mut leaves_verdicts).unwrap();
        }
        drop(leaves);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while counter(&server, "serve.closed") < 1 {
            assert!(std::time::Instant::now() < deadline, "{tag}: teardown never closed pid 2");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }

        for n in 3..5 {
            let ack = stays
                .request(&Command::Event { pid: 1, event: event(n, true) }, &mut stays_verdicts);
            assert!(ack.unwrap().is_ack(), "{tag}: the staying session was closed");
        }
        let detail = stays.expect_ok(&Command::Close { pid: 1 }, &mut stays_verdicts).unwrap();
        assert!(detail.contains("session.submitted=5 "), "{tag}: {detail}");
        assert!(detail.contains("session.verdicts=5 "), "{tag}: {detail}");
        assert_eq!(stays_verdicts.len(), 5, "{tag}");
        assert_eq!(counter(&server, "serve.closed"), 2, "{tag}");
        stays.expect_ok(&Command::Shutdown, &mut stays_verdicts).unwrap();
        drop(stays);
        assert_eq!(daemon.join().unwrap(), 0, "{tag}: no sessions left at shutdown");
    }
}

#[test]
fn a_connection_cannot_reach_a_session_another_opened_under_its_id() {
    // B introduces itself with A's client id. None of B's commands may
    // reach A's session: a window must hold only its own process's
    // events, and only A may read or end its session.
    let server = Arc::new(Server::new(&config("shared-reach")));
    let bound = Endpoint::Tcp("127.0.0.1:0".to_owned()).bind().unwrap();
    let endpoint = bound.endpoint().clone();
    let daemon_server = Arc::clone(&server);
    let daemon = std::thread::spawn(move || bound.run(&daemon_server).unwrap());

    let (mut a_verdicts, mut b_verdicts) = (Vec::new(), Vec::new());
    let mut a = Client::connect(&endpoint).unwrap();
    let mut b = Client::connect(&endpoint).unwrap();
    a.expect_ok(&Command::Hello { client: "dup".into() }, &mut a_verdicts).unwrap();
    b.expect_ok(&Command::Hello { client: "dup".into() }, &mut b_verdicts).unwrap();
    a.expect_ok(&Command::Open { pid: 1, model: "tiny".into() }, &mut a_verdicts).unwrap();
    let ok_event = Reply::Ok { detail: "event".to_owned() };
    for n in 0..3 {
        let ack = a.request(&Command::Event { pid: 1, event: event(n, true) }, &mut a_verdicts);
        assert_eq!(ack.unwrap(), ok_event);
    }
    for command in [
        Command::Event { pid: 1, event: event(3, false) },
        Command::Stats { pid: Some(1) },
        Command::Close { pid: 1 },
    ] {
        let reply = b.request(&command, &mut b_verdicts).unwrap();
        let line = reply.to_line();
        assert!(line.starts_with("ERR proto ") && line.contains("no session"), "{line}");
    }
    for n in 3..5 {
        let ack = a.request(&Command::Event { pid: 1, event: event(n, true) }, &mut a_verdicts);
        assert_eq!(ack.unwrap(), ok_event, "A's session was closed");
    }
    let detail = a.expect_ok(&Command::Close { pid: 1 }, &mut a_verdicts).unwrap();
    assert!(detail.contains("session.submitted=5 "), "{detail}");
    assert!(detail.contains("session.verdicts=5 "), "{detail}");
    assert_eq!(a_verdicts.len(), 5);
    assert!(a_verdicts.iter().all(|(pid, verdict)| *pid == 1 && verdict.benign));
    assert!(b_verdicts.is_empty());
    b.expect_ok(&Command::Shutdown, &mut b_verdicts).unwrap();
    drop((a, b));
    assert_eq!(daemon.join().unwrap(), 0);
}

/// A sink that panics on its first delivery, then behaves — the
/// "crashing job" of the self-healing contract.
struct PanicOnceSink {
    armed: Mutex<bool>,
    inner: BufferSink,
}

impl VerdictSink for PanicOnceSink {
    fn deliver(&self, pid: u32, verdict: &Verdict) {
        let mut armed = self.armed.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if *armed {
            *armed = false;
            panic!("sink crash (test)");
        }
        drop(armed);
        self.inner.deliver(pid, verdict);
    }
}

#[test]
fn panicking_sink_never_wedges_the_server() {
    let server =
        Server::new(&ServerConfig { workers: 1, ..ServerConfig::new(models_dir("wedge")) });
    let sink = Arc::new(PanicOnceSink { armed: Mutex::new(true), inner: BufferSink::new() });
    server.open("cli", 1, "tiny", Arc::clone(&sink) as Arc<dyn VerdictSink>).unwrap();
    // The first drain job panics mid-delivery; the worker catches it
    // and the session must still close (close reschedules leftovers).
    server.submit("cli", 1, event(0, true)).unwrap();
    for n in 1..10 {
        // Submits keep being accepted even while the job is crashing.
        server.submit("cli", 1, event(n, true)).unwrap();
    }
    let report = server.close("cli", 1).unwrap();
    assert_eq!(report.submitted, 10);
    assert_eq!(report.queued, 0, "close drains everything, panic or not");
    // The worker counts its panic *after* waking closers, so give the
    // counter a moment to land.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while counter(&server, "pool.panics") < 1 {
        assert!(std::time::Instant::now() < deadline, "sink panic never counted: {server:?}");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(counter(&server, "pool.panics"), 1, "the sink panicked once");

    // A healthy session on the same worker still works and
    // stays bit-identical to standalone.
    let sink2 = Arc::new(BufferSink::new());
    server.open("cli", 2, "tiny", Arc::clone(&sink2) as Arc<dyn VerdictSink>).unwrap();
    let events: Vec<PartitionedEvent> = (0..20).map(|n| event(n, n % 3 != 0)).collect();
    for e in &events {
        server.submit("cli", 2, e.clone()).unwrap();
    }
    server.close("cli", 2).unwrap();
    let mut standalone = leaps_core::stream::StreamDetector::new(tiny_classifier());
    assert_eq!(sink2.take(), standalone.push_all(events.iter().cloned()));
}

#[test]
fn idle_reaper_closes_stale_sessions_and_counts_them() {
    let cfg = ServerConfig {
        workers: 1,
        idle_ttl: Some(std::time::Duration::from_millis(50)),
        ..ServerConfig::new(models_dir("reap"))
    };
    let server = Arc::new(Server::new(&cfg));
    let reaper = server.start_reaper().expect("TTL configured → reaper runs");

    let idle = Arc::new(BufferSink::new());
    server.open("cli", 1, "tiny", Arc::clone(&idle) as Arc<dyn VerdictSink>).unwrap();
    server.submit("cli", 1, event(0, true)).unwrap();

    // The idle session is reaped once it passes the TTL (the reaper
    // counts it after the close)...
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while counter(&server, "serve.reaped") == 0 {
        assert!(std::time::Instant::now() < deadline, "idle session never reaped");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(sessions(&server), Some(0));
    assert_eq!(counter(&server, "serve.reaped"), 1);
    assert_eq!(counter(&server, "serve.closed"), 1, "reaped sessions count as closed");
    assert_eq!(idle.len(), 1, "queued work was drained, not dropped, before the reap");
    assert_eq!(server.submit("cli", 1, event(1, true)).unwrap_err().exit_code(), 7);

    // ...while an active session survives arbitrarily many TTLs: keep
    // the submit gap (~1ms) far inside the 50ms TTL for ~4 TTLs.
    let busy = Arc::new(BufferSink::new());
    server.open("cli", 2, "tiny", Arc::clone(&busy) as Arc<dyn VerdictSink>).unwrap();
    let until = std::time::Instant::now() + std::time::Duration::from_millis(200);
    let mut n = 0;
    while std::time::Instant::now() < until {
        server.submit("cli", 2, event(n, true)).expect("active session must not be reaped");
        n += 1;
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(sessions(&server), Some(1), "active session not reaped");
    server.close("cli", 2).unwrap();

    server.begin_shutdown();
    reaper.join().unwrap();
}

#[test]
fn no_reaper_without_ttl_and_zero_ttl_is_disabled() {
    let server = Arc::new(Server::new(&config("nottl")));
    assert!(server.idle_ttl().is_none());
    assert!(server.start_reaper().is_none());
    let cfg = ServerConfig {
        idle_ttl: Some(std::time::Duration::ZERO),
        ..ServerConfig::new(models_dir("zerottl"))
    };
    assert!(Server::new(&cfg).idle_ttl().is_none(), "0 disables the policy");
}

#[test]
fn shutdown_does_not_hang_on_an_idle_connected_client() {
    let server = Arc::new(Server::new(&config("idleconn")));
    let bound = Endpoint::Tcp("127.0.0.1:0".to_owned()).bind().unwrap();
    let endpoint = bound.endpoint().clone();
    let daemon_server = Arc::clone(&server);
    let daemon = std::thread::spawn(move || bound.run(&daemon_server).unwrap());

    // This client connects, says HELLO, and then goes silent forever.
    let mut verdicts = Vec::new();
    let mut idler = Client::connect(&endpoint).unwrap();
    idler.expect_ok(&Command::Hello { client: "idler".into() }, &mut verdicts).unwrap();

    // SHUTDOWN from a second client must still terminate the daemon:
    // the idler's handler thread notices shutdown on its read deadline.
    let mut closer = Client::connect(&endpoint).unwrap();
    closer.expect_ok(&Command::Hello { client: "closer".into() }, &mut verdicts).unwrap();
    closer.expect_ok(&Command::Shutdown, &mut verdicts).unwrap();
    drop(closer);
    daemon.join().unwrap();
    drop(idler);
}

#[test]
fn health_probe_works_without_hello_and_reflects_panics() {
    let server = Arc::new(Server::new(&config("health")));
    let bound = Endpoint::Tcp("127.0.0.1:0".to_owned()).bind().unwrap();
    let endpoint = bound.endpoint().clone();
    let daemon_server = Arc::clone(&server);
    let daemon = std::thread::spawn(move || bound.run(&daemon_server).unwrap());

    let mut verdicts = Vec::new();
    let mut probe = Client::connect(&endpoint).unwrap();
    // No HELLO: supervisors probe without claiming a client identity.
    let detail = probe.expect_ok(&Command::Health, &mut verdicts).unwrap();
    for token in ["health", "workers=2", "panics=0", "sessions=0", "idle_secs=0"] {
        assert!(detail.contains(token), "missing {token:?} in {detail}");
    }

    // PANIC is refused unless the daemon opted into chaos…
    let chaos = std::env::var("LEAPS_CHAOS").is_ok();
    if !chaos {
        let ack = probe.request(&Command::Panic { shard: 0 }, &mut verdicts).unwrap();
        assert!(matches!(ack, Reply::Err { family, .. } if family == "proto"));
    }
    // …but the server-side hook always works for embedders.
    server.inject_panic_job(0);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while counter(&server, "pool.panics") < 1 {
        assert!(std::time::Instant::now() < deadline, "injected panic never counted");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let detail = probe.expect_ok(&Command::Health, &mut verdicts).unwrap();
    assert!(detail.contains("panics=1"), "{detail}");
    assert!(detail.contains("workers=2"), "{detail}");

    let mut closer = Client::connect(&endpoint).unwrap();
    closer.expect_ok(&Command::Hello { client: "closer".into() }, &mut verdicts).unwrap();
    closer.expect_ok(&Command::Shutdown, &mut verdicts).unwrap();
    daemon.join().unwrap();
}

#[test]
fn try_new_reports_zero_worker_config() {
    // workers=0 means "default policy", so force a pool failure via the
    // pool's own contract instead: the server surfaces it as an error.
    let cfg = ServerConfig { workers: 2, ..ServerConfig::new(models_dir("trynew")) };
    assert!(Server::try_new(&cfg).is_ok());
}

#[cfg(unix)]
#[test]
fn daemon_drains_abandoned_sessions_on_unix_socket() {
    let dir = models_dir("unix");
    let server = Arc::new(Server::new(&ServerConfig { workers: 1, ..ServerConfig::new(&dir) }));
    let socket = dir.join("serve.sock");
    let endpoint = Endpoint::Unix(socket.clone());
    let bound = endpoint.bind().unwrap();
    let daemon_server = Arc::clone(&server);
    let daemon = std::thread::spawn(move || bound.run(&daemon_server).unwrap());

    let mut verdicts = Vec::new();
    let mut client = Client::connect(&endpoint).unwrap();
    client.expect_ok(&Command::Hello { client: "a".into() }, &mut verdicts).unwrap();
    client.expect_ok(&Command::Open { pid: 1, model: "tiny".into() }, &mut verdicts).unwrap();
    for n in 0..4 {
        client.request(&Command::Event { pid: 1, event: event(n, true) }, &mut verdicts).unwrap();
    }
    // Disconnect without CLOSE: the connection teardown drains and
    // closes the abandoned session.
    drop(client);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while counter(&server, "serve.closed") < 1 {
        assert!(std::time::Instant::now() < deadline, "abandoned session never drained");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // An embedder session opened directly on the shared server (no
    // connection owns it) is drained by the shutdown path instead.
    let embedded = Arc::new(BufferSink::new());
    server.open("embed", 9, "tiny", Arc::clone(&embedded) as Arc<dyn VerdictSink>).unwrap();
    for n in 0..3 {
        server.submit("embed", 9, event(n, true)).unwrap();
    }

    let mut client2 = Client::connect(&endpoint).unwrap();
    client2.expect_ok(&Command::Hello { client: "b".into() }, &mut verdicts).unwrap();
    client2.expect_ok(&Command::Shutdown, &mut verdicts).unwrap();
    drop(client2);
    let drained = daemon.join().unwrap();
    assert_eq!(drained, 1, "the embedder session drained at shutdown");
    assert_eq!(embedded.len(), 3, "its verdicts were delivered before exit");
    assert!(!socket.exists(), "socket file removed on shutdown");
}

/// Asks a daemon over `server` for its `HEALTH` line, then shuts the
/// daemon down.
fn health_over_the_wire(server: &Arc<Server>) -> String {
    let bound = Endpoint::Tcp("127.0.0.1:0".to_owned()).bind().unwrap();
    let endpoint = bound.endpoint().clone();
    let daemon_server = Arc::clone(server);
    let daemon = std::thread::spawn(move || bound.run(&daemon_server).unwrap());
    let mut verdicts = Vec::new();
    let mut probe = Client::connect(&endpoint).unwrap();
    let health = probe.expect_ok(&Command::Health, &mut verdicts).unwrap();
    probe.expect_ok(&Command::Hello { client: "closer".into() }, &mut verdicts).unwrap();
    probe.expect_ok(&Command::Shutdown, &mut verdicts).unwrap();
    daemon.join().unwrap();
    health
}

#[test]
fn each_server_reports_only_its_own_counts() {
    let dir = models_dir("two-servers");
    let model_bytes = std::fs::metadata(dir.join("tiny.model")).unwrap().len();
    let troubled = Arc::new(Server::new(&ServerConfig {
        workers: 1,
        idle_ttl: Some(std::time::Duration::from_millis(50)),
        ..ServerConfig::new(&dir)
    }));
    let calm = Arc::new(Server::new(&ServerConfig { workers: 1, ..ServerConfig::new(&dir) }));
    let reaper = troubled.start_reaper().expect("TTL configured → reaper runs");

    // The troubled server: one session left to the idle reaper, and one
    // injected panic.
    troubled.open("cli", 1, "tiny", Arc::new(BufferSink::new())).unwrap();
    troubled.submit("cli", 1, event(0, true)).unwrap();
    troubled.inject_panic_job(0);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while counter(&troubled, "serve.reaped") < 1 || counter(&troubled, "pool.panics") < 1 {
        assert!(std::time::Instant::now() < deadline, "reap or panic never counted");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    // The calm server: one session opened, scored and closed.
    calm.open("cli", 1, "tiny", Arc::new(BufferSink::new())).unwrap();
    calm.submit("cli", 1, event(0, true)).unwrap();
    calm.close("cli", 1).unwrap();

    let expected = |panics: u64, reaped: u64| {
        format!(
            "health pool.workers=1 pool.panics={panics} \
             serve.sessions=0 serve.opened=1 serve.closed=1 serve.reaped={reaped} \
             registry.models=1 registry.cached_bytes={model_bytes} registry.loads=1 \
             registry.hits=0 registry.evictions=0 idle_secs=0"
        )
    };
    assert_eq!(health_over_the_wire(&troubled), expected(1, 1));
    assert_eq!(health_over_the_wire(&calm), expected(0, 0));
    reaper.join().unwrap();
}

/// A raw connection for reply-order tests: bursts go out in one `write`,
/// and replies are read line by line (`VERDICT` pushes included).
struct Raw {
    writer: std::net::TcpStream,
    reader: std::io::BufReader<std::net::TcpStream>,
}

impl Raw {
    fn connect(endpoint: &Endpoint) -> Raw {
        let Endpoint::Tcp(addr) = endpoint else { unreachable!("TCP daemon") };
        let writer = std::net::TcpStream::connect(addr).unwrap();
        writer.set_read_timeout(Some(std::time::Duration::from_secs(20))).unwrap();
        let reader = std::io::BufReader::new(writer.try_clone().unwrap());
        Raw { writer, reader }
    }

    /// Sends every command in one `write_all`.
    fn burst(&mut self, commands: &[Command]) {
        use std::io::Write;
        let text: String = commands.iter().map(|c| c.to_line() + "\n").collect();
        self.writer.write_all(text.as_bytes()).unwrap();
    }

    fn line(&mut self) -> String {
        use std::io::BufRead;
        let mut line = String::new();
        assert!(self.reader.read_line(&mut line).unwrap() > 0, "daemon closed the connection");
        line.trim_end().to_owned()
    }

    /// Reads lines until `acks` acknowledgements arrived; returns every
    /// line read, verdicts included, in arrival order.
    fn until_acks(&mut self, acks: usize) -> Vec<String> {
        let mut lines = Vec::new();
        let mut seen = 0;
        while seen < acks {
            let line = self.line();
            if !line.starts_with("VERDICT ") {
                seen += 1;
            }
            lines.push(line);
        }
        lines
    }
}

/// A TCP daemon over the tiny model and a raw connection that has said
/// `HELLO` and opened session 7.
fn raw_daemon(tag: &str) -> (Raw, std::thread::JoinHandle<usize>) {
    let server = Arc::new(Server::new(&config(tag)));
    let bound = Endpoint::Tcp("127.0.0.1:0".to_owned()).bind().unwrap();
    let endpoint = bound.endpoint().clone();
    let daemon = std::thread::spawn(move || bound.run(&server).unwrap());
    let mut raw = Raw::connect(&endpoint);
    raw.burst(&[
        Command::Hello { client: tag.into() },
        Command::Open { pid: 7, model: "tiny".into() },
    ]);
    assert!(raw.line().starts_with("OK hello"));
    assert_eq!(raw.line(), "OK open pid=7 model=tiny");
    (raw, daemon)
}

fn shut_down(mut raw: Raw, daemon: std::thread::JoinHandle<usize>) {
    raw.burst(&[Command::Shutdown]);
    let lines = raw.until_acks(1);
    assert_eq!(lines.last().map(String::as_str), Some("OK shutdown"));
    daemon.join().unwrap();
}

#[test]
fn one_write_of_events_gets_one_ack_each_in_command_order() {
    let (mut raw, daemon) = raw_daemon("burst-acks");
    // Events alternate between the open session 7 and the never-opened
    // session 8, so the expected acks alternate `OK event` / `ERR`.
    let n = 200;
    let commands: Vec<Command> = (0..n)
        .map(|i| Command::Event { pid: if i % 2 == 0 { 7 } else { 8 }, event: event(i, true) })
        .collect();
    raw.burst(&commands);
    let acks: Vec<String> =
        raw.until_acks(n as usize).into_iter().filter(|l| !l.starts_with("VERDICT ")).collect();
    assert_eq!(acks.len(), n as usize);
    for (i, ack) in acks.iter().enumerate() {
        if i % 2 == 0 {
            assert_eq!(ack, "OK event", "ack {i}");
        } else {
            assert!(ack.starts_with("ERR proto"), "ack {i}: {ack}");
        }
    }
    shut_down(raw, daemon);
}

#[test]
fn a_reopened_session_never_pushes_verdicts_before_its_open_ack() {
    let (mut raw, daemon) = raw_daemon("reopen");
    for round in 0..20u64 {
        // Old session: nums below 1000; reopened session: from 1000 on.
        let base = round * 2000;
        let mut commands: Vec<Command> =
            (0..20).map(|n| Command::Event { pid: 7, event: event(base + n, true) }).collect();
        commands.push(Command::Close { pid: 7 });
        commands.push(Command::Open { pid: 7, model: "tiny".into() });
        commands.extend(
            (0..20).map(|n| Command::Event { pid: 7, event: event(base + 1000 + n, true) }),
        );
        raw.burst(&commands);
        let lines = raw.until_acks(42);
        let position = |prefix: &str| lines.iter().position(|l| l.starts_with(prefix)).unwrap();
        let (close, open) = (position("OK close pid=7"), position("OK open pid=7"));
        assert!(close < open, "round {round}: {lines:?}");
        for (i, line) in lines.iter().enumerate() {
            let Some(body) = line.strip_prefix("VERDICT pid=7 ") else { continue };
            let num = Verdict::parse_line(body).unwrap().last_event;
            if num >= base + 1000 {
                assert!(i > open, "round {round}: new-session verdict before OK open: {lines:?}");
            } else {
                assert!(i < close, "round {round}: old-session verdict after OK close: {lines:?}");
            }
        }
        // The acks keep command order around the session change.
        let acks: Vec<&String> = lines.iter().filter(|l| !l.starts_with("VERDICT ")).collect();
        assert!(acks[..20].iter().all(|a| *a == "OK event"), "round {round}: {acks:?}");
        assert!(acks[22..].iter().all(|a| *a == "OK event"), "round {round}: {acks:?}");
        // The reopened session's verdicts arrive by its next close.
        raw.burst(&[Command::Close { pid: 7 }, Command::Open { pid: 7, model: "tiny".into() }]);
        raw.until_acks(2);
    }
    shut_down(raw, daemon);
}

#[test]
fn a_metrics_block_after_an_event_burst_arrives_whole_after_the_acks() {
    let (mut raw, daemon) = raw_daemon("metrics-burst");
    let n = 100;
    let mut commands: Vec<Command> =
        (0..n).map(|i| Command::Event { pid: 7, event: event(i, true) }).collect();
    commands.push(Command::Metrics { reset: false });
    raw.burst(&commands);
    let lines = raw.until_acks(n as usize + 1);
    let acks: Vec<&String> = lines.iter().filter(|l| !l.starts_with("VERDICT ")).collect();
    assert!(acks[..n as usize].iter().all(|a| *a == "OK event"), "{acks:?}");
    let header = acks[n as usize];
    let count: usize = header
        .strip_prefix("OK metrics n=")
        .and_then(|k| k.parse().ok())
        .unwrap_or_else(|| panic!("bad METRICS ack {header:?}"));
    assert!(count > 0);
    // The `METRIC` lines follow the header at once, with no verdict
    // pushed inside the block.
    let block: Vec<String> = (0..count).map(|_| raw.line()).collect();
    assert!(block.iter().all(|l| l.starts_with("METRIC ")), "{block:?}");
    assert!(block.iter().any(|l| l.starts_with("METRIC proto.event.us hist count=")), "{block:?}");
    shut_down(raw, daemon);
}

#[test]
fn a_line_that_is_not_utf8_gets_an_error_and_the_connection_lives_on() {
    use std::io::Write;
    let (mut raw, daemon) = raw_daemon("not-utf8");
    raw.writer.write_all(b"EVENT pid=7 num=\xff\xfe\n").unwrap();
    let reply = raw.line();
    assert!(reply.starts_with("ERR proto line is not UTF-8: "), "{reply}");
    // The same connection and its open session keep working.
    raw.burst(&[Command::Event { pid: 7, event: event(0, true) }, Command::Stats { pid: Some(7) }]);
    let acks: Vec<String> =
        raw.until_acks(2).into_iter().filter(|l| !l.starts_with("VERDICT ")).collect();
    assert_eq!(acks[0], "OK event");
    assert!(acks[1].contains(" session.submitted=1 "), "{}", acks[1]);
    shut_down(raw, daemon);
}

#[test]
fn an_over_long_line_gets_one_short_error_and_the_connection_lives_on() {
    use std::io::Write;
    let (mut raw, daemon) = raw_daemon("over-long");
    // A line of exactly the cap is read as a request.
    raw.writer.write_all(&[b'Y'; 64 * 1024]).unwrap();
    raw.writer.write_all(b"\n").unwrap();
    assert!(raw.line().starts_with("ERR proto unknown command \"YYYY"));
    // 1 MiB with no space (the unknown-command reply used to echo it
    // whole), sent in pieces so the skip spans several reads.
    let chunk = vec![b'X'; 64 * 1024];
    for _ in 0..16 {
        raw.writer.write_all(&chunk).unwrap();
    }
    raw.writer.write_all(b"\n").unwrap();
    let reply = raw.line();
    assert_eq!(reply, "ERR proto line longer than 65536 bytes");
    // The rest of the long line is skipped, not read as commands, and the
    // open session keeps working.
    raw.burst(&[Command::Event { pid: 7, event: event(0, true) }, Command::Stats { pid: Some(7) }]);
    let acks: Vec<String> =
        raw.until_acks(2).into_iter().filter(|l| !l.starts_with("VERDICT ")).collect();
    assert_eq!(acks[0], "OK event");
    assert!(acks[1].contains(" session.submitted=1 "), "{}", acks[1]);
    shut_down(raw, daemon);
}
