//! # leaps-serve — the long-running LEAPS detection service
//!
//! The paper's deployment shape is host monitoring: event streams from
//! many live processes, each scored online against a trained
//! per-application model. This crate turns the one-shot pipeline into
//! that long-lived component:
//!
//! * a **model [`Registry`]** — named classifiers loaded on demand from
//!   a model directory via `leaps_core::persist`, cached under a byte
//!   cap with LRU eviction, hot-reloadable (`RELOAD`);
//! * a **session table** — independent [`StreamDetector`] instances
//!   keyed `(client, pid)`, opened and closed by protocol commands, each
//!   preserving the degraded-telemetry semantics of the standalone
//!   detector; a daemon connection reaches only the sessions it opened;
//! * a **line protocol** (`HELLO` / `OPEN` / `EVENT` / `CLOSE` /
//!   `STATS` / `RELOAD` / `SHUTDOWN`) over a Unix domain socket or TCP,
//!   with events fanned out to a `leaps_par::pool` worker pool;
//! * **bounded per-session queues with backpressure and load
//!   shedding** — a flooded session answers `BUSY` and sheds its oldest
//!   events (counted per session) instead of stalling the accept loop,
//!   and shutdown drains every session gracefully;
//! * a **self-healing failure model** — pool workers are supervised
//!   (a panicking job is caught and counted, and its worker goes on
//!   with its shard queue), connections carry read deadlines, idle
//!   sessions are reaped past a configurable TTL, locks are
//!   poison-tolerant, and the `HEALTH` command exposes it all to an
//!   external supervisor (see DESIGN.md §12).
//!
//! The [`Server`] core is transport-independent: tests and benchmarks
//! embed it in-process (see [`BufferSink`]), while the CLI's
//! `leaps serve` wraps it in the socket [`daemon`]. Per-session verdict
//! sequences are **bit-identical** to a standalone [`StreamDetector`]
//! fed the same events in the same order — the service adds
//! concurrency, never a different answer.
//!
//! [`StreamDetector`]: leaps_core::stream::StreamDetector

pub mod client;
pub mod daemon;
pub mod proto;
pub mod registry;
pub mod server;
pub mod session;

pub use client::Client;
pub use daemon::{BoundDaemon, Endpoint};
pub use proto::{Command, ProtoError, Reply};
pub use registry::Registry;
pub use server::{Server, ServerConfig};
pub use session::{BufferSink, SessionKey, SessionReport, Submit, VerdictSink};

/// Poison-tolerant locking, re-exported from [`leaps_par`] so every
/// crate (and downstream user) takes locks the same way: every lock
/// in this crate guards state that stays consistent across a panic
/// (counters, queues whose invariants are re-checked by every drain
/// pass), so a worker that panicked while holding one must not
/// cascade into aborting connection threads or the daemon itself —
/// the self-healing contract is that one crashing job costs at most
/// its own session.
pub use leaps_par::lock_unpoisoned;
