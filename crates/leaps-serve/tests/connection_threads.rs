//! The daemon joins each connection thread once it has finished, so a
//! stream of short connections does not grow the process.
//!
//! On Linux, a thread that has exited but was never joined keeps its
//! stack and guard page mapped: two `/proc/self/maps` lines each. This
//! file is its own test binary so that no other test's threads move the
//! count while it is measured.

#![cfg(target_os = "linux")]

use leaps_serve::{Client, Command, Endpoint, Server, ServerConfig};
use std::sync::Arc;

fn mapped_regions() -> usize {
    std::fs::read_to_string("/proc/self/maps").unwrap().lines().count()
}

/// One connection: `HEALTH`, its reply, then close.
fn health_once(endpoint: &Endpoint) {
    let mut client = Client::connect(endpoint).unwrap();
    let detail = client.expect_ok(&Command::Health, &mut Vec::new()).unwrap();
    assert!(detail.starts_with("health "), "{detail}");
}

#[test]
fn sequential_connections_do_not_grow_the_address_space() {
    let dir = std::env::temp_dir().join(format!("leaps-conn-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let server = Arc::new(Server::new(&ServerConfig { workers: 1, ..ServerConfig::new(&dir) }));
    let bound = Endpoint::Unix(dir.join("daemon.sock")).bind().unwrap();
    let endpoint = bound.endpoint().clone();
    let daemon_server = Arc::clone(&server);
    let daemon = std::thread::spawn(move || bound.run(&daemon_server).unwrap());

    // Warm up the allocator's arenas and the thread-stack cache first.
    for _ in 0..50 {
        health_once(&endpoint);
    }
    let before = mapped_regions();
    for _ in 0..2_000 {
        health_once(&endpoint);
    }
    let grown = mapped_regions().saturating_sub(before);
    assert!(grown < 100, "2,000 sequential connections added {grown} memory maps");

    let mut closer = Client::connect(&endpoint).unwrap();
    closer.expect_ok(&Command::Hello { client: "closer".into() }, &mut Vec::new()).unwrap();
    closer.expect_ok(&Command::Shutdown, &mut Vec::new()).unwrap();
    drop(closer);
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
