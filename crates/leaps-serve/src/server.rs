//! The transport-independent server core: a model [`Registry`], a table
//! of [`Session`]s, and a [`Pool`] of workers draining session queues.
//!
//! The socket daemon (`crate::daemon`) is a thin line-protocol shell
//! around this type; embedders (tests, benchmarks, other services) drive
//! it directly with [`Server::open`] / [`Server::submit`] /
//! [`Server::close`].
//!
//! Each server owns one [`MetricsRegistry`], made when it is built and
//! handed to its pool and model registry. Every `pool.*`, `registry.*`
//! and `serve.*` count of the server lives there and nowhere else;
//! `HEALTH`, `STATS` and `METRICS` are views of one snapshot of it
//! ([`Server::metrics`]).

use crate::lock_unpoisoned;
use crate::registry::Registry;
use crate::session::{drain, Session, SessionKey, SessionReport, Submit, VerdictSink};
use leaps_core::error::LeapsError;
use leaps_core::pipeline::Classifier;
use leaps_core::stream::{EncodeScratch, Encoded};
use leaps_obs::{Counter, Gauge, Lazy, MetricsRegistry};
use leaps_par::pool::Pool;
use leaps_trace::partition::PartitionedEvent;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::time::Duration;

/// Tunables of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Directory holding `<name>.model` files.
    pub models_dir: PathBuf,
    /// Model-cache byte cap (LRU eviction above it). Default 64 MiB.
    pub cache_cap_bytes: u64,
    /// Bounded per-session queue depth; a full queue sheds its oldest
    /// event per submit. Default 1024.
    pub queue_cap: usize,
    /// Worker threads draining session queues; 0 means the `leaps-par`
    /// thread policy (`--threads` / `LEAPS_THREADS` / cores).
    pub workers: usize,
    /// Idle TTL: sessions (and daemon connections) with no activity for
    /// this long are closed by the reaper / connection handler. `None`
    /// (the default, CLI `--idle-secs 0`) disables the policy.
    pub idle_ttl: Option<Duration>,
}

impl ServerConfig {
    /// Defaults over a model directory.
    #[must_use]
    pub fn new(models_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            models_dir: models_dir.into(),
            cache_cap_bytes: 64 << 20,
            queue_cap: 1024,
            workers: 0,
            idle_ttl: None,
        }
    }
}

/// The server's `serve.*` counters and session level.
pub(crate) struct ServeMetrics {
    /// Sessions opened.
    opened: Lazy<Counter>,
    /// Sessions closed, the reaped ones included.
    closed: Lazy<Counter>,
    /// Sessions closed by the idle reaper.
    reaped: Lazy<Counter>,
    /// Events submitted (accepted + shed).
    events: Lazy<Counter>,
    /// Events shed by backpressure.
    shed: Lazy<Counter>,
    /// Verdicts delivered (counted by the drain).
    pub(crate) verdicts: Lazy<Counter>,
    /// Delivered verdicts flagged degraded.
    pub(crate) degraded: Lazy<Counter>,
    /// Sessions currently open.
    sessions: Lazy<Gauge>,
}

impl ServeMetrics {
    fn new(metrics: &Arc<MetricsRegistry>) -> ServeMetrics {
        ServeMetrics {
            opened: metrics.lazy(|m| m.counter("serve.opened")),
            closed: metrics.lazy(|m| m.counter("serve.closed")),
            reaped: metrics.lazy(|m| m.counter("serve.reaped")),
            events: metrics.lazy(|m| m.counter("serve.events")),
            shed: metrics.lazy(|m| m.counter("serve.shed")),
            verdicts: metrics.lazy(|m| m.counter("serve.verdicts")),
            degraded: metrics.lazy(|m| m.counter("serve.degraded")),
            sessions: metrics.lazy(|m| m.gauge("serve.sessions")),
        }
    }
}

/// A multi-session streaming detection server.
///
/// Thread-safe: every method takes `&self`; connection threads,
/// embedders and pool workers share one `Arc<Server>`.
pub struct Server {
    registry: Registry,
    sessions: Mutex<BTreeMap<SessionKey, Arc<Session>>>,
    pool: Pool,
    queue_cap: usize,
    idle_ttl: Option<Duration>,
    next_shard: AtomicUsize,
    shutting_down: AtomicBool,
    metrics: Arc<MetricsRegistry>,
    /// Shared with every session, whose drain jobs count verdicts.
    serve: Arc<ServeMetrics>,
}

impl Server {
    /// Builds a server: spawns the worker pool and opens the registry.
    ///
    /// # Panics
    ///
    /// Panics if the worker pool cannot be spawned; long-running
    /// services use [`Server::try_new`].
    #[must_use]
    pub fn new(config: &ServerConfig) -> Server {
        Server::try_new(config).expect("spawning server worker pool")
    }

    /// Fallible constructor: reports rather than panicking when the
    /// worker pool cannot be spawned (thread exhaustion at startup).
    ///
    /// # Errors
    ///
    /// [`LeapsError::Protocol`] if the pool cannot be built.
    pub fn try_new(config: &ServerConfig) -> Result<Server, LeapsError> {
        let threads = if config.workers == 0 { leaps_par::thread_count() } else { config.workers };
        let metrics = Arc::new(MetricsRegistry::new());
        let pool = Pool::try_new(threads, &metrics)
            .map_err(|e| LeapsError::protocol(format!("spawning worker pool: {e}")))?;
        Ok(Server {
            registry: Registry::new(&config.models_dir, config.cache_cap_bytes, &metrics),
            sessions: Mutex::new(BTreeMap::new()),
            pool,
            queue_cap: config.queue_cap.max(1),
            idle_ttl: config.idle_ttl.filter(|ttl| !ttl.is_zero()),
            next_shard: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            serve: Arc::new(ServeMetrics::new(&metrics)),
            metrics,
        })
    }

    /// The server's own metrics registry: every `pool.*`, `registry.*`
    /// and `serve.*` metric of this server, and the daemon's `proto.*`
    /// latencies. A metric appears once something has recorded it.
    #[must_use]
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The configured idle TTL, if the idle policy is enabled.
    #[must_use]
    pub fn idle_ttl(&self) -> Option<Duration> {
        self.idle_ttl
    }

    /// Marks the server as shutting down: new opens are refused while
    /// existing sessions keep draining. Transports use this to stop
    /// accepting before [`Server::close_all`].
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Whether [`Server::begin_shutdown`] has been called.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    fn session(&self, client: &str, pid: u32) -> Result<Arc<Session>, LeapsError> {
        lock_unpoisoned(&self.sessions)
            .get(&(client.to_owned(), pid))
            .cloned()
            .ok_or_else(|| no_session(client, pid))
    }

    /// Opens session `(client, pid)` against registry model `model`,
    /// delivering its verdicts to `sink`.
    ///
    /// # Errors
    ///
    /// [`LeapsError::Protocol`] if the session already exists or the
    /// server is shutting down; registry families if the model fails to
    /// load.
    pub fn open(
        &self,
        client: &str,
        pid: u32,
        model: &str,
        sink: Arc<dyn VerdictSink>,
    ) -> Result<(), LeapsError> {
        self.open_session(client, pid, model, sink).map(drop)
    }

    /// [`Server::open`], returning the new session: a daemon connection
    /// reaches its sessions through these handles alone.
    pub(crate) fn open_session(
        &self,
        client: &str,
        pid: u32,
        model: &str,
        sink: Arc<dyn VerdictSink>,
    ) -> Result<Arc<Session>, LeapsError> {
        if self.is_shutting_down() {
            return Err(LeapsError::protocol("server is shutting down"));
        }
        let classifier = self.registry.get(model)?;
        let mut sessions = lock_unpoisoned(&self.sessions);
        let key: SessionKey = (client.to_owned(), pid);
        if sessions.contains_key(&key) {
            return Err(LeapsError::protocol(format!("session ({client:?}, {pid}) already open")));
        }
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed);
        let serve = Arc::clone(&self.serve);
        let session = Arc::new(Session::new(client, pid, model, shard, classifier, sink, serve));
        sessions.insert(key, Arc::clone(&session));
        self.serve.opened.get().inc();
        self.serve.sessions.get().add(1);
        Ok(session)
    }

    /// Submits one event to session `(client, pid)`.
    ///
    /// Never blocks on detection work: the event is encoded with the
    /// session's classifier and queued (shedding the oldest queued event
    /// if the queue is full), and a drain job is scheduled on the
    /// session's pool shard if none is in flight.
    ///
    /// # Errors
    ///
    /// [`LeapsError::Protocol`] if the session does not exist or is
    /// closing.
    pub fn submit(
        &self,
        client: &str,
        pid: u32,
        event: PartitionedEvent,
    ) -> Result<Submit, LeapsError> {
        let session = self.session(client, pid)?;
        let (outcome, idle) = self.submit_to(&session, event.num, |classifier| {
            classifier.encode(&mut EncodeScratch::default(), &event)
        })?;
        if idle {
            self.start_drain(&session);
        }
        Ok(outcome)
    }

    /// Queues event `num` of `session`, encoded by `encode` with the
    /// classifier the session was opened with (never a fresh registry
    /// lookup, so a `RELOAD` leaves open sessions on their model).
    /// Encoding runs on the calling thread, before the queue lock is
    /// taken.
    ///
    /// Schedules nothing. `true` comes back if no drain is in flight:
    /// the caller passes the session to [`Server::start_drain`], at once
    /// or, in the daemon, once per read burst.
    pub(crate) fn submit_to(
        &self,
        session: &Session,
        num: u64,
        encode: impl FnOnce(&Classifier) -> Encoded,
    ) -> Result<(Submit, bool), LeapsError> {
        let item = (num, encode(&session.classifier));
        let (outcome, idle) = {
            let mut state = lock_unpoisoned(&session.state);
            if state.closing {
                let (client, pid) = (&session.client, session.pid);
                return Err(LeapsError::protocol(format!(
                    "session ({client:?}, {pid}) is closing"
                )));
            }
            state.submitted += 1;
            state.last_activity_us = leaps_obs::now_micros();
            self.serve.events.get().inc();
            let outcome = if state.queue.len() >= self.queue_cap {
                state.queue.pop_front();
                state.shed += 1;
                self.serve.shed.get().inc();
                Submit::Busy { shed: state.shed }
            } else {
                Submit::Accepted { queued: state.queue.len() + 1 }
            };
            state.queue.push_back(item);
            (outcome, !state.scheduled)
        };
        Ok((outcome, idle))
    }

    /// Schedules a drain of `session` on its pool shard, unless one is in
    /// flight or its queue is empty.
    pub(crate) fn start_drain(&self, session: &Arc<Session>) {
        {
            let mut state = lock_unpoisoned(&session.state);
            if state.scheduled || state.queue.is_empty() {
                return;
            }
            state.scheduled = true;
        }
        let worker_session = Arc::clone(session);
        self.pool.submit(session.shard, move || drain(&worker_session));
    }

    /// Drains and closes session `(client, pid)`, returning its final
    /// counters. Blocks until every queued event has been scored and
    /// every verdict delivered.
    ///
    /// # Errors
    ///
    /// [`LeapsError::Protocol`] if the session does not exist or another
    /// closer is already draining it.
    pub fn close(&self, client: &str, pid: u32) -> Result<SessionReport, LeapsError> {
        self.close_session(&self.session(client, pid)?)
    }

    /// [`Server::close`] of one session, by handle: every close (`CLOSE`,
    /// teardown, the reaper, shutdown) goes through here.
    ///
    /// # Errors
    ///
    /// [`LeapsError::Protocol`] if another closer got to the session
    /// first. Only that first closer removes the session's key, so a
    /// later session under the same key is never touched.
    pub(crate) fn close_session(
        &self,
        session: &Arc<Session>,
    ) -> Result<SessionReport, LeapsError> {
        let (client, pid) = (&session.client, session.pid);
        {
            let mut state = lock_unpoisoned(&session.state);
            if state.closing {
                return Err(LeapsError::protocol(format!(
                    "session ({client:?}, {pid}) is already closing"
                )));
            }
            state.closing = true;
            while state.scheduled || !state.queue.is_empty() {
                // A drain job that panicked cleared `scheduled` with the
                // queue non-empty; reschedule so the leftovers are still
                // scored and this wait terminates.
                if !state.scheduled && !state.queue.is_empty() {
                    state.scheduled = true;
                    let worker_session = Arc::clone(session);
                    self.pool.submit(session.shard, move || drain(&worker_session));
                }
                state = session.idle.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        }
        lock_unpoisoned(&self.sessions).remove(&(client.clone(), pid));
        self.serve.closed.get().inc();
        self.serve.sessions.get().add(-1);
        Ok(session.report())
    }

    /// Drains and closes every open session (graceful shutdown),
    /// returning the final reports.
    pub fn close_all(&self) -> Vec<(SessionKey, SessionReport)> {
        let open: Vec<Arc<Session>> = lock_unpoisoned(&self.sessions).values().cloned().collect();
        open.into_iter()
            .filter_map(|session| {
                let report = self.close_session(&session).ok()?;
                Some(((session.client.clone(), session.pid), report))
            })
            .collect()
    }

    /// Per-session counters without closing the session.
    ///
    /// # Errors
    ///
    /// [`LeapsError::Protocol`] if the session does not exist.
    pub fn session_stats(&self, client: &str, pid: u32) -> Result<SessionReport, LeapsError> {
        Ok(self.session(client, pid)?.report())
    }

    /// Hot-reloads a registry model (see [`Registry::reload`]).
    ///
    /// # Errors
    ///
    /// Registry families.
    pub fn reload(&self, model: &str) -> Result<(), LeapsError> {
        self.registry.reload(model)
    }

    /// Closes every session idle past `ttl` (no submit since), returning
    /// how many were reaped. Freed sessions release their queue budget
    /// and detector immediately; a client touching a reaped session gets
    /// the ordinary "no session" protocol error.
    pub fn reap_idle(&self, ttl: Duration) -> usize {
        let now_us = leaps_obs::now_micros();
        let ttl_us = u64::try_from(ttl.as_micros()).unwrap_or(u64::MAX);
        let victims: Vec<Arc<Session>> = lock_unpoisoned(&self.sessions)
            .values()
            .filter(|session| {
                let state = lock_unpoisoned(&session.state);
                !state.closing && now_us.saturating_sub(state.last_activity_us) > ttl_us
            })
            .cloned()
            .collect();
        // By handle: a session closed and reopened under a victim's key
        // since the scan is left alone, and a second closer is refused.
        let reaped =
            victims.into_iter().filter(|session| self.close_session(session).is_ok()).count();
        self.serve.reaped.get().add(reaped as u64);
        reaped
    }

    /// Starts the idle-session reaper thread, if an idle TTL is
    /// configured. The thread holds only a [`Weak`] reference and polls
    /// at a fraction of the TTL, so it exits on its own when the server
    /// is dropped or [`Server::begin_shutdown`] is called — joining the
    /// returned handle is optional tidiness, not a liveness requirement.
    #[must_use]
    pub fn start_reaper(self: &Arc<Server>) -> Option<std::thread::JoinHandle<()>> {
        let ttl = self.idle_ttl?;
        let poll = (ttl / 2).clamp(Duration::from_millis(10), Duration::from_millis(500));
        let weak: Weak<Server> = Arc::downgrade(self);
        let handle = std::thread::Builder::new()
            .name("leaps-reaper".to_owned())
            .spawn(move || loop {
                std::thread::sleep(poll);
                let Some(server) = weak.upgrade() else { return };
                if server.is_shutting_down() {
                    return;
                }
                let _ = server.reap_idle(ttl);
            })
            .expect("spawning reaper thread");
        Some(handle)
    }

    /// Chaos hook: submits a job to pool shard `shard` that panics
    /// immediately. Used by the `PANIC` protocol command (gated behind
    /// `LEAPS_CHAOS=1`) and tests to prove the supervision invariant:
    /// the worker catches the panic and keeps serving its shard, queued
    /// session drains still run in order, and `HEALTH` counts the panic.
    pub fn inject_panic_job(&self, shard: usize) {
        self.pool.submit(shard, || panic!("injected panic (chaos hook)"));
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("metrics", &self.metrics.snapshot()).finish()
    }
}

/// The error for a session that is absent, or not the asker's to reach.
pub(crate) fn no_session(client: &str, pid: u32) -> LeapsError {
    LeapsError::protocol(format!("no session ({client:?}, {pid})"))
}
