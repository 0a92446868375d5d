//! Wire-level tests of the `METRICS [reset]` command against a live
//! daemon.
//!
//! Every server counts into a registry of its own, so each test asserts
//! exact counts however the test runner schedules them.

use leaps_cgraph::classify::CallGraphClassifier;
use leaps_cgraph::graph::CallGraph;
use leaps_core::persist::save_classifier;
use leaps_core::pipeline::Classifier;
use leaps_etw::event::{EventType, StackFrame};
use leaps_etw::Va;
use leaps_serve::{Client, Command, Endpoint, Server, ServerConfig};
use leaps_trace::partition::PartitionedEvent;
use std::path::PathBuf;
use std::sync::Arc;

/// Same tiny call-graph model as the service tests: `sys!a → sys!b`
/// benign, `sys!x → sys!y` malicious-only.
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
    let dir = std::env::temp_dir().join(format!("leaps-metrics-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("tiny.model"), save_classifier(&tiny_classifier())).unwrap();
    dir
}

#[test]
fn metrics_probe_works_without_hello_and_reset_rezeroes_counters() {
    let config = ServerConfig { workers: 2, ..ServerConfig::new(models_dir("wire")) };
    let server = Arc::new(Server::new(&config));
    let bound = Endpoint::Tcp("127.0.0.1:0".to_owned()).bind().unwrap();
    let endpoint = bound.endpoint().clone();
    let daemon_server = Arc::clone(&server);
    let daemon = std::thread::spawn(move || bound.run(&daemon_server).unwrap());

    let mut verdicts = Vec::new();
    // No HELLO: like HEALTH, METRICS is a supervisor probe.
    let mut probe = Client::connect(&endpoint).unwrap();
    let before = probe.fetch_metrics(false, &mut verdicts).unwrap();
    assert_eq!(before.counter("serve.events"), None, "no traffic yet, no counter yet");

    // Stream a session; the counters must account for its 8 events.
    let mut client = Client::connect(&endpoint).unwrap();
    client.expect_ok(&Command::Hello { client: "mtest".into() }, &mut verdicts).unwrap();
    client.expect_ok(&Command::Open { pid: 3, model: "tiny".into() }, &mut verdicts).unwrap();
    for n in 0..8 {
        client.request(&Command::Event { pid: 3, event: event(n, true) }, &mut verdicts).unwrap();
    }
    client.expect_ok(&Command::Close { pid: 3 }, &mut verdicts).unwrap();

    let after = probe.fetch_metrics(false, &mut verdicts).unwrap();
    assert_eq!(after.counter("serve.events"), Some(8), "{after:?}");
    assert_eq!(after.counter("serve.verdicts"), Some(8), "{after:?}");
    assert_eq!(after.counter("serve.opened"), Some(1), "{after:?}");
    assert_eq!(after.counter("serve.closed"), Some(1), "{after:?}");
    assert_eq!(after.counter("serve.degraded"), Some(0), "clean stream has no degradations");
    assert!(after.counter("pool.jobs").unwrap_or(0) >= 1, "drain jobs must be counted");
    assert!(
        after.hist("proto.event.us").is_some_and(|h| h.count == 8),
        "per-command latency histogram must record every EVENT: {after:?}"
    );
    assert_eq!(after.gauge("pool.workers"), Some(2), "{after:?}");
    assert_eq!(after.gauge("serve.sessions"), Some(0), "session was closed");
    // Consistency with the HEALTH vocabulary: same names, same story.
    let health = probe.expect_ok(&Command::Health, &mut verdicts).unwrap();
    assert!(health.contains("pool.workers=2"), "{health}");
    assert!(health.contains("serve.sessions=0"), "{health}");
    assert!(health.contains("pool.panics=0"), "{health}");

    // `reset` returns the pre-reset snapshot, then zeroes counters and
    // histograms in place; gauges keep their level.
    let dump = probe.fetch_metrics(true, &mut verdicts).unwrap();
    assert_eq!(dump.counter("serve.events"), Some(8), "reset returns the pre-reset snapshot");
    let zeroed = probe.fetch_metrics(false, &mut verdicts).unwrap();
    assert_eq!(zeroed.counter("serve.events"), Some(0), "{zeroed:?}");
    assert_eq!(zeroed.counter("serve.verdicts"), Some(0), "{zeroed:?}");
    assert_eq!(zeroed.hist("proto.event.us").map(|h| h.count), Some(0));
    assert_eq!(zeroed.gauge("pool.workers"), Some(2), "gauges survive reset");

    let mut closer = Client::connect(&endpoint).unwrap();
    closer.expect_ok(&Command::Hello { client: "mcloser".into() }, &mut verdicts).unwrap();
    closer.expect_ok(&Command::Shutdown, &mut verdicts).unwrap();
    daemon.join().unwrap();
}

#[test]
fn metrics_rejects_unknown_arguments() {
    assert!(Command::parse_line("METRICS reset\n").is_ok());
    assert!(Command::parse_line("METRICS hard\n").is_err());
    assert!(Command::parse_line("METRICS reset now\n").is_err());
}

#[test]
fn metrics_reset_zeroes_the_health_counters_but_keeps_its_levels() {
    let config = ServerConfig { workers: 2, ..ServerConfig::new(models_dir("reset-health")) };
    let server = Arc::new(Server::new(&config));
    let bound = Endpoint::Tcp("127.0.0.1:0".to_owned()).bind().unwrap();
    let endpoint = bound.endpoint().clone();
    let daemon_server = Arc::clone(&server);
    let daemon = std::thread::spawn(move || bound.run(&daemon_server).unwrap());

    // One session stays open across the reset, one is closed before it.
    let mut verdicts = Vec::new();
    let mut client = Client::connect(&endpoint).unwrap();
    client.expect_ok(&Command::Hello { client: "rtest".into() }, &mut verdicts).unwrap();
    for pid in [1, 2] {
        client.expect_ok(&Command::Open { pid, model: "tiny".into() }, &mut verdicts).unwrap();
        client.request(&Command::Event { pid, event: event(0, true) }, &mut verdicts).unwrap();
    }
    client.expect_ok(&Command::Close { pid: 2 }, &mut verdicts).unwrap();
    let before = client.expect_ok(&Command::Health, &mut verdicts).unwrap();
    for token in ["pool.workers=2", "serve.sessions=1", "serve.opened=2", "serve.closed=1"] {
        assert!(before.contains(token), "missing {token:?} in {before}");
    }

    client.fetch_metrics(true, &mut verdicts).unwrap();
    let after = client.expect_ok(&Command::Health, &mut verdicts).unwrap();
    let bytes = server.metrics().snapshot().gauge("registry.cached_bytes").unwrap();
    assert!(bytes > 0, "one model is cached");
    assert_eq!(
        after,
        format!(
            "health pool.workers=2 pool.panics=0 serve.sessions=1 serve.opened=0 \
             serve.closed=0 serve.reaped=0 registry.models=1 \
             registry.cached_bytes={bytes} registry.loads=0 registry.hits=0 \
             registry.evictions=0 idle_secs=0"
        ),
        "counters restart from zero; the pool.workers, serve.sessions and registry.models \
         levels are kept"
    );

    client.expect_ok(&Command::Close { pid: 1 }, &mut verdicts).unwrap();
    client.expect_ok(&Command::Shutdown, &mut verdicts).unwrap();
    daemon.join().unwrap();
}
