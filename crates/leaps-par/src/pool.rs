//! A persistent, sharded, **supervised** worker pool for long-running
//! services.
//!
//! The scoped `par_*` helpers in the crate root fan a *batch* out and
//! join before returning — the right shape for training loops, but not
//! for a daemon that must keep accepting work for its whole lifetime.
//! [`Pool`] keeps `n` worker threads alive with one FIFO queue each and
//! routes every job by a caller-chosen **shard key**:
//!
//! * jobs with the same shard key land on the same worker queue, so
//!   they execute in submission order (FIFO per shard) — the property a
//!   detection service needs to keep every session's event order, and
//!   therefore its verdict sequence, deterministic;
//! * jobs with different shard keys run concurrently on different
//!   workers;
//! * submission never blocks: queues are unbounded here, and callers
//!   that need backpressure bound their own per-session queues *before*
//!   submitting (see `leaps-serve`).
//!
//! # Supervision
//!
//! Every job runs under [`std::panic::catch_unwind`]. A panicking job is
//! consumed (its panic payload dropped after being counted), and the
//! worker that ran it **respawns itself**: the dying thread hands the
//! shard's queue receiver to a freshly spawned replacement and exits, so
//! the replacement starts with a clean stack and clean thread-locals.
//! The queue itself lives outside any worker thread, so the jobs behind
//! the panicking one are preserved and still run in submission order —
//! FIFO per shard survives the crash. The pool counts its work in the
//! [`MetricsRegistry`] it was built with (`pool.jobs`, `pool.panics`,
//! `pool.respawns`, `pool.workers`, `pool.queue.<shard>`), so a service
//! that owns that registry can surface supervision activity through a
//! health endpoint. If the OS refuses to spawn a replacement, the
//! surviving thread keeps draining its shard itself (a panic is then
//! counted without a respawn) — a shard is never silently abandoned.
//!
//! Workers are marked as par workers, so a job that reaches one of the
//! scoped `par_*` helpers runs it serially instead of spawning a nested
//! pool.

use crate::lock_unpoisoned;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use leaps_obs::{Counter, Gauge, Lazy, MetricsRegistry};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The pool could not be constructed (bad size or the OS refused to
/// spawn a worker thread).
#[derive(Debug)]
pub struct PoolError {
    message: String,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for PoolError {}

/// The pool's counters, shared by every shard and worker generation.
struct PoolMetrics {
    /// Jobs run, panicking or not.
    jobs: Lazy<Counter>,
    /// Jobs that panicked (caught and counted, never propagated).
    panics: Lazy<Counter>,
    /// Workers respawned after a panic. Tracks `panics` except when a
    /// replacement spawn failed and the surviving thread kept draining.
    respawns: Lazy<Counter>,
}

/// Per-shard supervision state, shared by the pool handle and every
/// worker generation of that shard. The queue receiver living here —
/// not in any worker thread — is what preserves per-shard FIFO order
/// across a respawn.
struct Shard {
    index: usize,
    /// The shard's job queue. Only the shard's single live worker ever
    /// holds this lock, so it is uncontended; it exists to move the
    /// receiver between worker generations.
    queue: Mutex<Receiver<Job>>,
    /// Join handle of the newest worker generation. A dying worker
    /// stores its replacement's handle here before exiting, so shutdown
    /// can chase generations until one exits normally.
    worker: Mutex<Option<JoinHandle<()>>>,
    /// The `pool.queue.<index>` depth gauge.
    depth: Gauge,
    metrics: Arc<PoolMetrics>,
}

/// The supervised worker loop: one generation of one shard's worker.
///
/// Runs jobs under `catch_unwind`. On a caught panic the generation
/// retires: it spawns a successor on the same shard state and returns.
fn worker_loop(shard: &Arc<Shard>) {
    crate::mark_current_thread_as_worker();
    loop {
        // Holding the queue lock while blocked in `recv` is fine: the
        // only other contender is a successor generation, which by
        // construction does not exist while this one lives.
        let job = match lock_unpoisoned(&shard.queue).recv() {
            Ok(job) => job,
            Err(_) => return, // every sender dropped: graceful drain end
        };
        shard.depth.add(-1);
        shard.metrics.jobs.get().inc();
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            shard.metrics.panics.get().inc();
            // Spawn and count the successor while holding the queue
            // lock: it cannot take a job until the respawn is counted,
            // so a health probe that observes its work also observes it.
            let _queue = lock_unpoisoned(&shard.queue);
            if respawn(shard) {
                shard.metrics.respawns.get().inc();
                return; // successor owns the shard from here
            }
            // Spawn refused: keep draining on this thread rather than
            // abandoning the shard's queued jobs.
        }
    }
}

/// Spawns the next worker generation for `shard`, recording its handle
/// for shutdown. Returns false if the OS refused the thread.
fn respawn(shard: &Arc<Shard>) -> bool {
    let successor = Arc::clone(shard);
    let spawned = std::thread::Builder::new()
        .name(format!("leaps-pool-{}", shard.index))
        .spawn(move || worker_loop(&successor));
    match spawned {
        Ok(handle) => {
            *lock_unpoisoned(&shard.worker) = Some(handle);
            true
        }
        Err(_) => false,
    }
}

/// A fixed-size pool of long-lived, supervised worker threads with
/// per-worker FIFO queues and shard-keyed routing.
///
/// Dropping the pool (or calling [`Pool::shutdown`]) closes every queue,
/// lets each worker finish the jobs already submitted, and joins the
/// threads — a graceful drain, never an abort. Panicking jobs are caught
/// and counted (see the module docs); they never take the pool down and
/// never reorder the jobs queued behind them.
pub struct Pool {
    senders: Vec<Sender<Job>>,
    shards: Vec<Arc<Shard>>,
    /// The `pool.workers` gauge: one per spawned shard worker.
    workers: Gauge,
}

impl Pool {
    /// Spawns a pool of exactly `threads` workers, counting into a
    /// registry of its own.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or if the OS refuses to spawn a thread;
    /// services that must survive spawn failure use [`Pool::try_new`].
    #[must_use]
    pub fn new(threads: usize) -> Pool {
        Pool::try_new(threads, &Arc::new(MetricsRegistry::new()))
            .expect("spawning pool worker threads")
    }

    /// Fallible constructor: spawns a pool of exactly `threads` workers
    /// that count into `metrics`, reporting rather than panicking when
    /// the pool cannot be built. Workers spawned before a failure are
    /// drained and joined.
    ///
    /// # Errors
    ///
    /// [`PoolError`] if `threads == 0` or the OS refuses a thread.
    pub fn try_new(threads: usize, metrics: &Arc<MetricsRegistry>) -> Result<Pool, PoolError> {
        if threads == 0 {
            return Err(PoolError { message: "pool needs at least one worker".to_owned() });
        }
        let pool_metrics = Arc::new(PoolMetrics {
            jobs: metrics.lazy(|m| m.counter("pool.jobs")),
            panics: metrics.lazy(|m| m.counter("pool.panics")),
            respawns: metrics.lazy(|m| m.counter("pool.respawns")),
        });
        let workers = metrics.gauge("pool.workers");
        let mut senders = Vec::with_capacity(threads);
        let mut shards = Vec::with_capacity(threads);
        for index in 0..threads {
            let (tx, rx) = channel::<Job>();
            let shard = Arc::new(Shard {
                index,
                queue: Mutex::new(rx),
                worker: Mutex::new(None),
                depth: metrics.gauge(&format!("pool.queue.{index}")),
                metrics: Arc::clone(&pool_metrics),
            });
            let worker_shard = Arc::clone(&shard);
            let spawned = std::thread::Builder::new()
                .name(format!("leaps-pool-{index}"))
                .spawn(move || worker_loop(&worker_shard));
            match spawned {
                Ok(handle) => {
                    *lock_unpoisoned(&shard.worker) = Some(handle);
                    workers.add(1);
                    senders.push(tx);
                    shards.push(shard);
                }
                Err(e) => {
                    // `Pool` drop semantics clean up the partial pool.
                    drop(tx);
                    drop(Pool { senders, shards, workers });
                    return Err(PoolError {
                        message: format!("spawning pool worker {index}: {e}"),
                    });
                }
            }
        }
        Ok(Pool { senders, shards, workers })
    }

    /// Number of worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.senders.len()
    }

    /// Submits `job` to the worker owning `shard % threads`.
    ///
    /// Jobs submitted with the same shard key run in submission order;
    /// the call itself never blocks.
    ///
    /// # Panics
    ///
    /// Panics if the shard queue is disconnected — impossible while
    /// `self` exists, because the pool itself keeps every receiver
    /// alive (supervision moves receivers between worker generations,
    /// it never drops them). A failure here is a bug, not load.
    pub fn submit<F>(&self, shard: usize, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let idx = shard % self.senders.len();
        self.shards[idx].depth.add(1);
        self.senders[idx]
            .send(Box::new(job))
            .expect("pool shard queue disconnected while the pool exists");
    }

    /// Closes the queues, drains every job already submitted and joins
    /// the workers.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.workers.add(-i64::try_from(self.shards.len()).unwrap_or(i64::MAX));
        self.senders.clear();
        for shard in &self.shards {
            // Chase worker generations: joining one may reveal a
            // successor it spawned while we waited.
            loop {
                let handle = lock_unpoisoned(&shard.worker).take();
                match handle {
                    Some(handle) => {
                        let _ = handle.join();
                    }
                    None => break,
                }
            }
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("threads", &self.threads()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    #[test]
    fn runs_every_job_and_drains_on_shutdown() {
        let pool = Pool::new(4);
        let count = Arc::new(AtomicUsize::new(0));
        for i in 0..100 {
            let count = Arc::clone(&count);
            pool.submit(i, move || {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn same_shard_preserves_submission_order() {
        let pool = Pool::new(3);
        let seen: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        for i in 0..200 {
            let seen = Arc::clone(&seen);
            pool.submit(7, move || {
                lock_unpoisoned(&seen).push(i);
            });
        }
        pool.shutdown();
        let seen = lock_unpoisoned(&seen);
        assert_eq!(*seen, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn distinct_shards_map_to_stable_workers() {
        let pool = Pool::new(2);
        let names: Arc<Mutex<Vec<(usize, String)>>> = Arc::new(Mutex::new(Vec::new()));
        for shard in [0usize, 1, 2, 3] {
            let names = Arc::clone(&names);
            pool.submit(shard, move || {
                let name = std::thread::current().name().unwrap_or("?").to_owned();
                lock_unpoisoned(&names).push((shard, name));
            });
        }
        pool.shutdown();
        let names = lock_unpoisoned(&names);
        let worker_of =
            |shard: usize| names.iter().find(|(s, _)| *s == shard).map(|(_, n)| n.clone()).unwrap();
        assert_eq!(worker_of(0), worker_of(2), "shards 0 and 2 share a worker of 2");
        assert_eq!(worker_of(1), worker_of(3));
        assert_ne!(worker_of(0), worker_of(1));
    }

    #[test]
    fn nested_par_calls_inside_pool_jobs_run_serially() {
        let pool = Pool::new(2);
        let out = Arc::new(Mutex::new(Vec::new()));
        let out2 = Arc::clone(&out);
        pool.submit(0, move || {
            // Must not deadlock or spawn a nested scoped pool.
            let values = crate::par_map_indexed(16, |i| i * i);
            lock_unpoisoned(&out2).extend(values);
        });
        pool.shutdown();
        let out = lock_unpoisoned(&out);
        assert_eq!(*out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn poisoned_shared_lock_does_not_wedge_the_pool() {
        // A job panics *while holding* a shared mutex, poisoning it.
        // `lock_unpoisoned` must shrug that off: later jobs on the
        // same pool still take the lock and the pool keeps serving.
        let pool = Pool::new(2);
        let shared: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let poisoner = Arc::clone(&shared);
        pool.submit(0, move || {
            let _guard = lock_unpoisoned(&poisoner);
            panic!("injected panic under the lock (expected in this test)");
        });
        for i in 0..32 {
            let shared = Arc::clone(&shared);
            pool.submit(0, move || {
                lock_unpoisoned(&shared).push(i);
            });
        }
        pool.shutdown();
        assert!(shared.is_poisoned(), "the panicking holder must have poisoned the lock");
        assert_eq!(*lock_unpoisoned(&shared), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn try_new_rejects_zero_workers() {
        let err = Pool::try_new(0, &Arc::new(MetricsRegistry::new())).unwrap_err();
        assert!(err.to_string().contains("at least one"), "{err}");
    }

    /// A pool of `threads` workers counting into a private registry.
    fn metered_pool(threads: usize) -> (Pool, Arc<MetricsRegistry>) {
        let metrics = Arc::new(MetricsRegistry::new());
        (Pool::try_new(threads, &metrics).unwrap(), metrics)
    }

    #[test]
    fn panicking_jobs_are_caught_counted_and_fifo_survives() {
        let (pool, metrics) = metered_pool(2);
        let seen: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        // Interleave panicking jobs between ordered jobs on one shard.
        for i in 0..50 {
            let seen = Arc::clone(&seen);
            pool.submit(4, move || {
                lock_unpoisoned(&seen).push(i);
            });
            if i % 10 == 3 {
                pool.submit(4, || panic!("injected pool panic (expected in this test)"));
            }
        }
        // The other shard stays untouched by the panics.
        let other = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let other = Arc::clone(&other);
            pool.submit(5, move || {
                other.fetch_add(1, Ordering::Relaxed);
            });
        }
        let snapshot_before_drop;
        {
            // Wait for the panicked shard to drain by watching the
            // ordered jobs complete.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
            while lock_unpoisoned(&seen).len() < 50 {
                assert!(std::time::Instant::now() < deadline, "shard 4 never drained");
                std::thread::yield_now();
            }
            snapshot_before_drop = metrics.snapshot();
        }
        pool.shutdown();
        let seen = lock_unpoisoned(&seen);
        assert_eq!(*seen, (0..50).collect::<Vec<_>>(), "FIFO must survive respawns");
        assert_eq!(other.load(Ordering::Relaxed), 20);
        let counter = |name| snapshot_before_drop.counter(name);
        assert_eq!(counter("pool.panics"), Some(5), "every injected panic is counted");
        assert_eq!(counter("pool.respawns"), Some(5), "every panic respawned the worker");
        assert_eq!(snapshot_before_drop.gauge("pool.workers"), Some(2));
    }

    #[test]
    fn panic_as_final_job_still_drains_and_joins() {
        let pool = Pool::new(1);
        let count = Arc::new(AtomicUsize::new(0));
        for i in 0..10 {
            let count = Arc::clone(&count);
            pool.submit(0, move || {
                count.fetch_add(1, Ordering::Relaxed);
                if i == 9 {
                    panic!("final job panics (expected in this test)");
                }
            });
        }
        // Shutdown must join the respawned generation, not hang.
        pool.shutdown();
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn panics_and_respawns_flow_into_the_global_metrics_registry() {
        // Each pool counts into the registry it was built with (a
        // service's own, never shared), so the counts are exact.
        let (pool, metrics) = metered_pool(1);
        pool.submit(0, || panic!("metrics panic (expected in this test)"));
        pool.submit(0, || {});
        pool.shutdown();
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.counter("pool.jobs"), Some(2), "both jobs counted, panicking or not");
        assert_eq!(snapshot.counter("pool.panics"), Some(1), "the caught panic is counted");
        assert_eq!(snapshot.counter("pool.respawns"), Some(1), "the respawn is counted");
        assert_eq!(snapshot.gauge("pool.workers"), Some(0), "shutdown joined the worker");
        assert_eq!(snapshot.gauge("pool.queue.0"), Some(0), "the queue drained");
    }

    #[test]
    fn a_respawn_is_counted_before_the_successor_runs_a_job() {
        for round in 0..200 {
            let (pool, metrics) = metered_pool(1);
            let respawns = metrics.counter("pool.respawns");
            let (seen_tx, seen_rx) = std::sync::mpsc::channel();
            pool.submit(0, || panic!("respawn-order panic (expected in this test)"));
            pool.submit(0, move || seen_tx.send(()).unwrap());
            seen_rx.recv().unwrap();
            assert_eq!(respawns.value(), 1, "round {round}: successor ran before its count");
            pool.shutdown();
        }
    }
}
