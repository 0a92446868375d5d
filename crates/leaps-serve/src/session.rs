//! Per-session state: a bounded queue of encoded events feeding one
//! [`StreamDetector`], with load shedding, a verdict sink, and a drain
//! loop run on pool workers.
//!
//! Events are encoded before they are queued, by the submitting thread,
//! with the classifier the session was opened with: each queue item is
//! `(sequence number, Encoded)`. The drain only slides the window and
//! scores it ([`StreamDetector::push_encoded`]).
//!
//! # Ordering and determinism
//!
//! A session has at most **one** drain job scheduled at any time (the
//! `scheduled` flag below), so its events are scored strictly in
//! submission order and its verdict sequence is bit-identical to feeding
//! the same events through a standalone [`StreamDetector`]. Fairness
//! across sessions comes from draining in bounded batches: a flooding
//! session yields the worker back to its shard after each batch.
//!
//! # Backpressure and shedding
//!
//! The queue is bounded. When a submit finds it full, the **oldest**
//! queued event is shed (counted) and the new event queued — the
//! detector keeps seeing the freshest telemetry and the submitter gets a
//! `BUSY` outcome, while the accept path never blocks on a slow session.
//! Shedding manifests downstream as a sequence gap, so affected verdicts
//! carry the `degraded` flag like any other telemetry loss.

use crate::lock_unpoisoned;
use crate::server::ServeMetrics;
use leaps_core::pipeline::Classifier;
use leaps_core::stream::{Encoded, StreamDetector, StreamStats, Verdict};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// Sessions are keyed by `(client, pid)`: one monitored process of one
/// connected client.
pub type SessionKey = (String, u32);

/// Where a session's verdicts go, called by pool workers in verdict
/// order.
pub trait VerdictSink: Send + Sync {
    /// Delivers one verdict of session `pid`.
    fn deliver(&self, pid: u32, verdict: &Verdict);

    /// Delivers one drain batch of session `pid`'s verdicts, in order.
    /// The drain loop calls only this; the default hands each verdict to
    /// [`VerdictSink::deliver`].
    fn deliver_all(&self, pid: u32, verdicts: &[Verdict]) {
        for verdict in verdicts {
            self.deliver(pid, verdict);
        }
    }
}

/// A [`VerdictSink`] that buffers verdicts in memory — the in-process
/// deployment shape (tests, benchmarks, embedding).
#[derive(Debug, Default)]
pub struct BufferSink {
    verdicts: Mutex<Vec<Verdict>>,
}

impl BufferSink {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> BufferSink {
        BufferSink::default()
    }

    /// Takes every buffered verdict, leaving the buffer empty.
    #[must_use]
    pub fn take(&self) -> Vec<Verdict> {
        std::mem::take(&mut *lock_unpoisoned(&self.verdicts))
    }

    /// Number of buffered verdicts.
    #[must_use]
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.verdicts).len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl VerdictSink for BufferSink {
    fn deliver(&self, _pid: u32, verdict: &Verdict) {
        lock_unpoisoned(&self.verdicts).push(verdict.clone());
    }

    fn deliver_all(&self, _pid: u32, verdicts: &[Verdict]) {
        lock_unpoisoned(&self.verdicts).extend_from_slice(verdicts);
    }
}

/// Outcome of submitting one event to a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submit {
    /// Queued; `queued` is the depth after this event.
    Accepted {
        /// Queue depth including this event.
        queued: usize,
    },
    /// The queue was full: the oldest queued event was shed to make room
    /// for this one.
    Busy {
        /// Total events this session has shed so far.
        shed: u64,
    },
}

/// Counters of one session, as reported by `STATS` and `CLOSE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionReport {
    /// Model the session was opened against.
    pub model: String,
    /// Events submitted (accepted + shed).
    pub submitted: u64,
    /// Events shed by backpressure.
    pub shed: u64,
    /// Verdicts delivered to the sink.
    pub verdicts: u64,
    /// Events currently queued (always 0 in a `CLOSE` report).
    pub queued: usize,
    /// The detector's telemetry-quality counters.
    pub stream: StreamStats,
}

pub(crate) struct QueueState {
    /// Encoded events, oldest first: `(sequence number, item)`.
    pub(crate) queue: VecDeque<(u64, Encoded)>,
    pub(crate) scheduled: bool,
    pub(crate) closing: bool,
    pub(crate) shed: u64,
    pub(crate) submitted: u64,
    pub(crate) verdicts: u64,
    /// Last submit (or open) as an obs-clock timestamp (µs) — read by
    /// the idle reaper; on the obs clock so idle tests can freeze time.
    pub(crate) last_activity_us: u64,
}

/// One open session. Shared between the submitting connection thread and
/// the pool worker draining it.
pub struct Session {
    pub(crate) client: String,
    pub(crate) pid: u32,
    pub(crate) model: String,
    /// Stable shard key: pins the session's drain jobs to one pool
    /// worker queue.
    pub(crate) shard: usize,
    pub(crate) state: Mutex<QueueState>,
    /// Signalled by the drain loop when the queue runs dry.
    pub(crate) idle: Condvar,
    /// The classifier the session was opened with, which encodes its
    /// events; a `RELOAD` never changes it. Held apart from the detector,
    /// whose lock the drain holds while it scores.
    pub(crate) classifier: Arc<Classifier>,
    pub(crate) detector: Mutex<StreamDetector>,
    pub(crate) sink: Arc<dyn VerdictSink>,
    /// The server's counters; the drain records verdicts into them.
    pub(crate) serve: Arc<ServeMetrics>,
}

/// Max events scored per drain batch before re-checking the queue —
/// bounds how long one flooding session can hold a worker.
pub(crate) const DRAIN_BATCH: usize = 256;

impl Session {
    pub(crate) fn new(
        client: &str,
        pid: u32,
        model: &str,
        shard: usize,
        classifier: Arc<Classifier>,
        sink: Arc<dyn VerdictSink>,
        serve: Arc<ServeMetrics>,
    ) -> Session {
        Session {
            client: client.to_owned(),
            pid,
            model: model.to_owned(),
            shard,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                scheduled: false,
                closing: false,
                shed: 0,
                submitted: 0,
                verdicts: 0,
                last_activity_us: leaps_obs::now_micros(),
            }),
            idle: Condvar::new(),
            detector: Mutex::new(StreamDetector::new(Arc::clone(&classifier))),
            classifier,
            sink,
            serve,
        }
    }

    /// Snapshot of the session's counters.
    pub(crate) fn report(&self) -> SessionReport {
        let state = lock_unpoisoned(&self.state);
        let stream = lock_unpoisoned(&self.detector).stats();
        SessionReport {
            model: self.model.clone(),
            submitted: state.submitted,
            shed: state.shed,
            verdicts: state.verdicts,
            queued: state.queue.len(),
            stream,
        }
    }
}

/// The drain loop run on a pool worker: repeatedly takes a bounded batch
/// off the queue, scores it, and delivers the verdicts — until the queue
/// is empty, at which point it clears `scheduled` and wakes closers.
///
/// Panic-safe: if scoring or a sink panics, a guard clears `scheduled`
/// and wakes closers on the way out, so the session never wedges with a
/// drain marked in flight that will never finish. The next submit (or a
/// waiting [`Server::close`](crate::Server::close)) reschedules the
/// drain for whatever is still queued.
pub(crate) fn drain(session: &Session) {
    /// Disarmed on the normal exit path (which clears `scheduled`
    /// itself, under the same lock that observed an empty queue).
    struct PanicGuard<'a>(&'a Session);
    impl Drop for PanicGuard<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                lock_unpoisoned(&self.0.state).scheduled = false;
                self.0.idle.notify_all();
            }
        }
    }
    let _guard = PanicGuard(session);
    let mut batch: Vec<(u64, Encoded)> = Vec::new();
    let mut verdicts: Vec<Verdict> = Vec::new();
    loop {
        {
            let mut state = lock_unpoisoned(&session.state);
            if state.queue.is_empty() {
                state.scheduled = false;
                session.idle.notify_all();
                return;
            }
            let take = state.queue.len().min(DRAIN_BATCH);
            batch.extend(state.queue.drain(..take));
        }
        // Score and deliver outside the queue lock: submits (and sheds)
        // proceed while the detector works or a slow sink blocks.
        let mut detector = lock_unpoisoned(&session.detector);
        verdicts.clear();
        for (num, encoded) in batch.drain(..) {
            verdicts.extend(detector.push_encoded(num, encoded));
        }
        drop(detector);
        session.sink.deliver_all(session.pid, &verdicts);
        session.serve.verdicts.get().add(verdicts.len() as u64);
        session.serve.degraded.get().add(verdicts.iter().filter(|v| v.degraded).count() as u64);
        lock_unpoisoned(&session.state).verdicts += verdicts.len() as u64;
    }
}
