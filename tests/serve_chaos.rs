//! Chaos-under-supervision invariants of the self-healing service
//! layer (DESIGN.md §12):
//!
//! * a property test proving that deliberately panicking pool jobs
//!   interleaved with a real event stream leave every verdict and every
//!   counter **bit-identical** to the same stream on a never-panicking
//!   pool, at worker counts {1, 2, 4, 8};
//! * a daemon-level chaos test: one client killed mid-stream (no BYE,
//!   no CLOSE) plus injected panicking jobs, while a clean session keeps
//!   streaming — the daemon must keep serving, report the panics over
//!   `HEALTH` with every worker still live, stay bit-identical on the clean session, and still drain
//!   and exit on `SHUTDOWN`.

use leaps::cgraph::classify::CallGraphClassifier;
use leaps::cgraph::graph::CallGraph;
use leaps::core::persist::save_classifier;
use leaps::core::pipeline::Classifier;
use leaps::core::stream::{StreamDetector, Verdict};
use leaps::etw::event::{EventType, StackFrame};
use leaps::etw::Va;
use leaps::serve::{
    BufferSink, Client, Command, Endpoint, Reply, Server, ServerConfig, VerdictSink,
};
use leaps::trace::partition::PartitionedEvent;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// `sys!a → sys!b` benign, `sys!x → sys!y` malicious-only.
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
        app_stack: vec![StackFrame::new("app", "main", Va(0x40_0000 + num), true)],
        system_stack: vec![
            StackFrame::new(m1, f1, Va(0x7000_0000 + num), false),
            StackFrame::new(m2, f2, Va(0x7000_1000 + num), false),
        ],
        truth: None,
    }
}

fn models_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("leaps-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("tiny.model"), save_classifier(&tiny_classifier())).unwrap();
    dir
}

/// Runs `streams` through a server with `workers` threads, injecting a
/// panicking pool job before every `panic_every`-th submit (0 = never),
/// and returns the per-session verdict sequences, (submitted, verdicts)
/// counters and the pool's panic count.
fn run_streams(
    dir: &PathBuf,
    workers: usize,
    streams: &[Vec<PartitionedEvent>],
    panic_every: usize,
) -> (Vec<Vec<Verdict>>, Vec<(u64, u64)>, u64) {
    let server = Server::new(&ServerConfig {
        workers,
        queue_cap: 1 << 20, // determinism test: no shedding
        ..ServerConfig::new(dir)
    });
    let sinks: Vec<Arc<BufferSink>> = streams.iter().map(|_| Arc::new(BufferSink::new())).collect();
    for (i, sink) in sinks.iter().enumerate() {
        let sink = Arc::clone(sink) as Arc<dyn VerdictSink>;
        server.open("chaos", i as u32, "tiny", sink).unwrap();
    }
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    let mut submits = 0usize;
    let mut injected = 0u64;
    for n in 0..longest {
        for (i, stream) in streams.iter().enumerate() {
            if let Some(e) = stream.get(n) {
                if panic_every > 0 && submits.is_multiple_of(panic_every) {
                    // A crashing job on the same shards the sessions use.
                    server.inject_panic_job(submits / panic_every);
                    injected += 1;
                }
                submits += 1;
                server.submit("chaos", i as u32, e.clone()).unwrap();
            }
        }
    }
    let mut verdicts = Vec::new();
    let mut counters = Vec::new();
    for (i, sink) in sinks.iter().enumerate() {
        let report = server.close("chaos", i as u32).unwrap();
        counters.push((report.submitted, report.verdicts));
        verdicts.push(sink.take());
    }
    // A worker counts a panic once the unwind is caught, which can lag
    // behind another shard finishing the drains `close` waited on.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let panics = || server.metrics().snapshot().counter("pool.panics").unwrap_or(0);
    while panics() < injected {
        assert!(std::time::Instant::now() < deadline, "injected panics never counted: {server:?}");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    (verdicts, counters, panics())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn panicking_jobs_never_change_a_verdict(
        workers in prop::sample::select(vec![1usize, 2, 4, 8]),
        sessions in 1usize..4,
        len in 8usize..40,
        panic_every in 2usize..6,
        malice_seed in prop::num::u64::ANY,
    ) {
        let dir = models_dir(&format!("prop-{workers}-{sessions}-{len}-{panic_every}"));
        let streams: Vec<Vec<PartitionedEvent>> = (0..sessions)
            .map(|s| {
                (0..len)
                    .map(|n| {
                        let num = (sessions * n + s) as u64;
                        // Deterministic benign/malicious mix per seed.
                        let benign = (malice_seed >> (n % 64)) & 1 == 0;
                        event(num, benign)
                    })
                    .collect()
            })
            .collect();

        // Reference: the same streams with no panics, one worker.
        let (clean_v, clean_c, clean_p) = run_streams(&dir, 1, &streams, 0);
        prop_assert_eq!(clean_p, 0);
        // And against standalone detectors, transitively anchoring both.
        for (stream, verdicts) in streams.iter().zip(&clean_v) {
            let mut standalone = StreamDetector::new(tiny_classifier());
            prop_assert_eq!(&standalone.push_all(stream.iter().cloned()), verdicts);
        }

        let (chaos_v, chaos_c, chaos_p) = run_streams(&dir, workers, &streams, panic_every);
        prop_assert!(chaos_p > 0, "injection plan must bite");
        prop_assert_eq!(chaos_v, clean_v);
        prop_assert_eq!(chaos_c, clean_c);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The acceptance-criteria chaos drill, end to end over the daemon: a
/// victim client is killed mid-stream (connection dropped, no CLOSE), a
/// panicking job is injected, and a clean session keeps streaming. The
/// daemon must survive all of it, stay bit-identical on the clean
/// session, count the panics in `HEALTH` with both workers still live,
/// and drain on `SHUTDOWN`.
#[test]
fn daemon_survives_killed_client_and_panicking_jobs() {
    let dir = models_dir("daemon");
    let server = Arc::new(Server::new(&ServerConfig { workers: 2, ..ServerConfig::new(&dir) }));
    let bound = Endpoint::Tcp("127.0.0.1:0".to_owned()).bind().unwrap();
    let endpoint = bound.endpoint().clone();
    let daemon_server = Arc::clone(&server);
    let daemon = std::thread::spawn(move || bound.run(&daemon_server).unwrap());

    let clean_events: Vec<PartitionedEvent> = (0..40).map(|n| event(n, n % 4 != 0)).collect();
    let mut clean_verdicts: Vec<(u32, Verdict)> = Vec::new();
    let mut clean = Client::connect(&endpoint).unwrap();
    clean.expect_ok(&Command::Hello { client: "clean".into() }, &mut clean_verdicts).unwrap();
    clean.expect_ok(&Command::Open { pid: 1, model: "tiny".into() }, &mut clean_verdicts).unwrap();

    // The victim starts streaming and is "kill -9"ed mid-stream: its
    // connection drops without CLOSE or BYE mid-session.
    let mut victim_verdicts = Vec::new();
    let mut victim = Client::connect(&endpoint).unwrap();
    victim.expect_ok(&Command::Hello { client: "victim".into() }, &mut victim_verdicts).unwrap();
    victim
        .expect_ok(&Command::Open { pid: 2, model: "tiny".into() }, &mut victim_verdicts)
        .unwrap();
    for n in 0..7 {
        victim
            .request(&Command::Event { pid: 2, event: event(n, true) }, &mut victim_verdicts)
            .unwrap();
    }
    drop(victim); // SIGKILL, as seen from the daemon

    // Panicking jobs land on both shards while the clean client streams.
    for (n, e) in clean_events.iter().enumerate() {
        if n == 5 || n == 20 {
            server.inject_panic_job(n);
        }
        let ack = clean
            .request(&Command::Event { pid: 1, event: e.clone() }, &mut clean_verdicts)
            .unwrap();
        assert!(ack.is_ack());
    }
    let detail = clean.expect_ok(&Command::Close { pid: 1 }, &mut clean_verdicts).unwrap();
    assert!(detail.contains("submitted=40"), "{detail}");

    // Bit-identical verdicts on the clean session, panics and all.
    let mut standalone = StreamDetector::new(tiny_classifier());
    let expected = standalone.push_all(clean_events.iter().cloned());
    let got: Vec<Verdict> =
        clean_verdicts.iter().filter(|(pid, _)| *pid == 1).map(|(_, v)| v.clone()).collect();
    assert_eq!(got, expected, "clean session diverged under chaos");

    // The victim's abandoned session was closed by connection teardown.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while server.metrics().snapshot().gauge("serve.sessions") != Some(0) {
        assert!(std::time::Instant::now() < deadline, "victim session never cleaned up");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // HEALTH (no HELLO needed) reflects the supervision counters.
    while server.metrics().snapshot().counter("pool.panics").unwrap_or(0) < 2 {
        assert!(std::time::Instant::now() < deadline, "injected panics never counted");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let mut probe = Client::connect(&endpoint).unwrap();
    let detail = probe.expect_ok(&Command::Health, &mut Vec::new()).unwrap();
    assert!(detail.contains("panics=2"), "{detail}");
    assert!(detail.contains("workers=2"), "{detail}");
    assert!(detail.contains("sessions=0"), "{detail}");

    // PANIC over the wire is env-gated; without LEAPS_CHAOS it refuses.
    if std::env::var("LEAPS_CHAOS").is_err() {
        let ack = probe.request(&Command::Panic { shard: 0 }, &mut Vec::new()).unwrap();
        assert!(matches!(ack, Reply::Err { family, .. } if family == "proto"));
    }

    // Graceful SHUTDOWN still drains and returns — no hang, no abort.
    probe.expect_ok(&Command::Hello { client: "probe".into() }, &mut Vec::new()).unwrap();
    probe.expect_ok(&Command::Shutdown, &mut Vec::new()).unwrap();
    drop(probe);
    drop(clean);
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
