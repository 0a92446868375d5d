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
//! worker that ran it moves on to the next job of its shard: the thread
//! survives, and the jobs queued behind the panicking one still run in
//! submission order — FIFO per shard survives the crash. The pool
//! counts its work in the [`MetricsRegistry`] it was built with
//! (`pool.jobs`, `pool.panics`, `pool.workers`, `pool.queue.<shard>`),
//! so a service that owns that registry can surface supervision
//! activity through a health endpoint.
//!
//! Workers are marked as par workers, so a job that reaches one of the
//! scoped `par_*` helpers runs it serially instead of spawning a nested
//! pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
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

/// The pool's counters, shared by every worker.
struct PoolMetrics {
    /// Jobs run, panicking or not.
    jobs: Lazy<Counter>,
    /// Jobs that panicked (caught and counted, never propagated).
    panics: Lazy<Counter>,
}

/// One shard's worker: runs the shard's jobs in queue order, each under
/// `catch_unwind`, until every sender is dropped and the queue is empty.
fn worker_loop(queue: Receiver<Job>, depth: &Gauge, metrics: &PoolMetrics) {
    crate::mark_current_thread_as_worker();
    for job in queue {
        depth.add(-1);
        metrics.jobs.get().inc();
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            metrics.panics.get().inc();
        }
    }
}

/// A fixed-size pool of long-lived, supervised worker threads with
/// per-worker FIFO queues and shard-keyed routing.
///
/// Dropping the pool closes every queue, lets each worker finish the
/// jobs already submitted, and joins the threads — a graceful drain,
/// never an abort. Panicking jobs are caught and counted (see the
/// module docs); they never take a worker down and never reorder the
/// jobs queued behind them.
pub struct Pool {
    senders: Vec<Sender<Job>>,
    /// The `pool.queue.<shard>` depth gauges, one per shard.
    depths: Vec<Gauge>,
    handles: Vec<JoinHandle<()>>,
    /// The `pool.workers` gauge: one per spawned shard worker.
    workers: Gauge,
}

impl Pool {
    /// Spawns a pool of exactly `threads` workers that count into
    /// `metrics`, reporting rather than panicking when the pool cannot
    /// be built. Workers spawned before a failure are drained and
    /// joined.
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
        });
        let mut pool = Pool {
            senders: Vec::with_capacity(threads),
            depths: Vec::with_capacity(threads),
            handles: Vec::with_capacity(threads),
            workers: metrics.gauge("pool.workers"),
        };
        for index in 0..threads {
            let (tx, rx) = channel::<Job>();
            let depth = metrics.gauge(&format!("pool.queue.{index}"));
            let worker_depth = depth.clone();
            let worker_metrics = Arc::clone(&pool_metrics);
            // On failure, dropping `pool` drains and joins the workers
            // spawned so far.
            let handle = std::thread::Builder::new()
                .name(format!("leaps-pool-{index}"))
                .spawn(move || worker_loop(rx, &worker_depth, &worker_metrics))
                .map_err(|e| PoolError { message: format!("spawning pool worker {index}: {e}") })?;
            pool.workers.add(1);
            pool.senders.push(tx);
            pool.depths.push(depth);
            pool.handles.push(handle);
        }
        Ok(pool)
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
    /// `self` exists, because a worker returns only once every sender
    /// is dropped and catches every job's panic. A failure here is a
    /// bug, not load.
    pub fn submit<F>(&self, shard: usize, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let idx = shard % self.senders.len();
        self.depths[idx].add(1);
        self.senders[idx]
            .send(Box::new(job))
            .expect("pool shard queue disconnected while the pool exists");
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.workers.add(-i64::try_from(self.handles.len()).unwrap_or(i64::MAX));
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
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
    use crate::lock_unpoisoned;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// A pool of `threads` workers counting into a private registry.
    fn metered_pool(threads: usize) -> (Pool, Arc<MetricsRegistry>) {
        let metrics = Arc::new(MetricsRegistry::new());
        (Pool::try_new(threads, &metrics).unwrap(), metrics)
    }

    #[test]
    fn runs_every_job_and_drains_on_shutdown() {
        let (pool, _) = metered_pool(4);
        let count = Arc::new(AtomicUsize::new(0));
        for i in 0..100 {
            let count = Arc::clone(&count);
            pool.submit(i, move || {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool);
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn same_shard_preserves_submission_order() {
        let (pool, _) = metered_pool(3);
        let seen: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        for i in 0..200 {
            let seen = Arc::clone(&seen);
            pool.submit(7, move || {
                lock_unpoisoned(&seen).push(i);
            });
        }
        drop(pool);
        let seen = lock_unpoisoned(&seen);
        assert_eq!(*seen, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn distinct_shards_map_to_stable_workers() {
        let (pool, _) = metered_pool(2);
        let names: Arc<Mutex<Vec<(usize, String)>>> = Arc::new(Mutex::new(Vec::new()));
        for shard in [0usize, 1, 2, 3] {
            let names = Arc::clone(&names);
            pool.submit(shard, move || {
                let name = std::thread::current().name().unwrap_or("?").to_owned();
                lock_unpoisoned(&names).push((shard, name));
            });
        }
        drop(pool);
        let names = lock_unpoisoned(&names);
        let worker_of =
            |shard: usize| names.iter().find(|(s, _)| *s == shard).map(|(_, n)| n.clone()).unwrap();
        assert_eq!(worker_of(0), worker_of(2), "shards 0 and 2 share a worker of 2");
        assert_eq!(worker_of(1), worker_of(3));
        assert_ne!(worker_of(0), worker_of(1));
    }

    #[test]
    fn nested_par_calls_inside_pool_jobs_run_serially() {
        let (pool, _) = metered_pool(2);
        let out = Arc::new(Mutex::new(Vec::new()));
        let out2 = Arc::clone(&out);
        pool.submit(0, move || {
            // Must not deadlock or spawn a nested scoped pool.
            let values = crate::par_map_indexed(16, |i| i * i);
            lock_unpoisoned(&out2).extend(values);
        });
        drop(pool);
        let out = lock_unpoisoned(&out);
        assert_eq!(*out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn poisoned_shared_lock_does_not_wedge_the_pool() {
        // A job panics *while holding* a shared mutex, poisoning it.
        // `lock_unpoisoned` must shrug that off: later jobs on the
        // same pool still take the lock and the pool keeps serving.
        let (pool, _) = metered_pool(2);
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
        drop(pool);
        assert!(shared.is_poisoned(), "the panicking holder must have poisoned the lock");
        assert_eq!(*lock_unpoisoned(&shared), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn try_new_rejects_zero_workers() {
        let err = Pool::try_new(0, &Arc::new(MetricsRegistry::new())).unwrap_err();
        assert!(err.to_string().contains("at least one"), "{err}");
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
        drop(pool);
        let seen = lock_unpoisoned(&seen);
        assert_eq!(*seen, (0..50).collect::<Vec<_>>(), "FIFO must survive panics");
        assert_eq!(other.load(Ordering::Relaxed), 20);
        assert_eq!(
            snapshot_before_drop.counter("pool.panics"),
            Some(5),
            "every injected panic is counted"
        );
        assert_eq!(snapshot_before_drop.gauge("pool.workers"), Some(2));
    }

    #[test]
    fn a_caught_panic_keeps_its_worker_thread() {
        let (pool, _) = metered_pool(2);
        let ids: Arc<Mutex<Vec<ThreadId>>> = Arc::new(Mutex::new(Vec::new()));
        let record = |ids: &Arc<Mutex<Vec<ThreadId>>>| {
            let ids = Arc::clone(ids);
            move || lock_unpoisoned(&ids).push(std::thread::current().id())
        };
        pool.submit(0, record(&ids));
        pool.submit(0, || panic!("same-thread panic (expected in this test)"));
        pool.submit(0, record(&ids));
        let other = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let other = Arc::clone(&other);
            pool.submit(1, move || {
                other.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool);
        let ids = lock_unpoisoned(&ids);
        assert_eq!(ids.len(), 2, "both recording jobs ran");
        assert_eq!(ids[0], ids[1], "the job after the panic ran on the same worker thread");
        assert_eq!(other.load(Ordering::Relaxed), 10, "the other shard ran every job");
    }

    #[test]
    fn panic_as_final_job_still_drains_and_joins() {
        let (pool, _) = metered_pool(1);
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
        // Dropping the pool must join the worker, not hang.
        drop(pool);
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn panics_flow_into_the_pools_metrics_registry() {
        // Each pool counts into the registry it was built with (a
        // service's own, never shared), so the counts are exact.
        let (pool, metrics) = metered_pool(1);
        pool.submit(0, || panic!("metrics panic (expected in this test)"));
        pool.submit(0, || {});
        drop(pool);
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.counter("pool.jobs"), Some(2), "both jobs counted, panicking or not");
        assert_eq!(snapshot.counter("pool.panics"), Some(1), "the caught panic is counted");
        assert_eq!(snapshot.gauge("pool.workers"), Some(0), "shutdown joined the worker");
        assert_eq!(snapshot.gauge("pool.queue.0"), Some(0), "the queue drained");
    }
}
