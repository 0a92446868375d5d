//! # leaps-obs — the LEAPS observability substrate
//!
//! A dependency-free metrics layer shared by every crate in the
//! workspace that does real work: the training loops (SMO passes, CV
//! cells, Baum–Welch iterations), the checkpoint writer, the sweep
//! supervisor, the `leaps-par` worker pool and the `leaps-serve`
//! daemon. It exists because a self-healing train/serve stack cannot be
//! sharded, tuned or debugged without uniform answers to "where is time
//! going, what is being shed, how degraded are verdicts".
//!
//! Three metric kinds, all updated with **atomics only — no locks on
//! any record path**:
//!
//! * [`Counter`] — a monotonic `u64` (events scored, jobs run, panics);
//! * [`Gauge`] — a settable `i64` level (queue depth, cached bytes);
//! * [`Histogram`] — a fixed array of [`HIST_BUCKETS`] log-bucketed
//!   counts plus a sum, for latencies and sizes (bucket *i* holds
//!   values in `[2^(i-1), 2^i)`; bucket 0 holds zero; the last bucket
//!   absorbs overflow).
//!
//! A [`MetricsRegistry`] maps names to metrics. Handles are cheap `Arc`
//! clones, and recording through one is a relaxed `fetch_add` — there is
//! no global switch to check, because service health probes read these
//! counters and they must always count. Two ways to hold a handle:
//!
//! * the [`counter!`]/[`gauge!`]/[`histogram!`]/[`span!`] macros cache a
//!   handle per call site in a `static`, bound to the process-global
//!   [`registry()`] (the training loops, checkpoints and sweeps);
//! * a [`Lazy`] handle, made by [`MetricsRegistry::lazy`], is owned by an
//!   instance — a service keeps its own registry, so its counts are its
//!   own (the `leaps-par` pool and the `leaps-serve` server).
//!
//! Either way a metric is registered on its first record, so a snapshot
//! lists only what something has recorded.
//!
//! [`Span`] is an RAII stage timer: created at stage entry, it records
//! the elapsed microseconds into a histogram on drop. Time comes from
//! [`now_micros`], which normally reads the process monotonic clock but
//! can be swapped for a deterministic [`TestClock`] in tests — metric
//! *counts* are bit-stable under `cargo test` regardless (they count
//! events, not time), and with the test clock installed the recorded
//! durations are bit-stable too.
//!
//! Snapshots ([`MetricsRegistry::snapshot`]) are sorted by name and
//! render to a stable one-metric-per-line text format (see
//! [`snapshot`]) — the body of the daemon's `METRICS` protocol command
//! and of the JSONL flusher's offline records.

pub mod snapshot;

pub use snapshot::{HistSnapshot, MetricValue, ObsError, Snapshot, Value};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Number of histogram buckets. Bucket 0 counts zero values; bucket
/// `i >= 1` counts values in `[2^(i-1), 2^i)`; the last bucket absorbs
/// everything at or above `2^(HIST_BUCKETS-2)` (~18 minutes in µs).
pub const HIST_BUCKETS: usize = 32;

/// The log-bucket index of `v` (see [`HIST_BUCKETS`]).
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper edge of bucket `i`, for rendering quantiles: bucket 0
/// holds exactly 0, the last bucket is unbounded (`u64::MAX`).
#[must_use]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

// ------------------------------------------------------------------ clock

static CLOCK_START: OnceLock<Instant> = OnceLock::new();
static TEST_MODE: AtomicBool = AtomicBool::new(false);
static TEST_NOW_US: AtomicU64 = AtomicU64::new(0);
static TEST_TICK_US: AtomicU64 = AtomicU64::new(0);
static TEST_CLOCK_LOCK: Mutex<()> = Mutex::new(());

/// Microseconds since an arbitrary process-local epoch (monotonic).
/// While a [`TestClock`] is installed, returns its deterministic
/// counter instead (advancing by the configured tick per read).
#[must_use]
pub fn now_micros() -> u64 {
    if TEST_MODE.load(Ordering::Relaxed) {
        TEST_NOW_US.fetch_add(TEST_TICK_US.load(Ordering::Relaxed), Ordering::Relaxed)
    } else {
        u64::try_from(CLOCK_START.get_or_init(Instant::now).elapsed().as_micros())
            .unwrap_or(u64::MAX)
    }
}

/// A deterministic clock for tests: while this guard lives,
/// [`now_micros`] starts at 0 and advances by `tick_us` on every read,
/// so span durations are bit-stable. Installation is serialized across
/// threads (the guard holds a process-wide lock), making tests that use
/// it safe under the parallel test runner.
pub struct TestClock {
    _guard: MutexGuard<'static, ()>,
}

impl TestClock {
    /// Installs the test clock; restored to the real clock on drop.
    #[must_use]
    pub fn install(tick_us: u64) -> TestClock {
        let guard = TEST_CLOCK_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        TEST_NOW_US.store(0, Ordering::Relaxed);
        TEST_TICK_US.store(tick_us, Ordering::Relaxed);
        TEST_MODE.store(true, Ordering::Relaxed);
        TestClock { _guard: guard }
    }

    /// Advances the clock by `us` without a read.
    pub fn advance(&self, us: u64) {
        TEST_NOW_US.fetch_add(us, Ordering::Relaxed);
    }
}

impl Drop for TestClock {
    fn drop(&mut self) {
        TEST_MODE.store(false, Ordering::Relaxed);
    }
}

// ------------------------------------------------------------------ metrics

/// A monotonic counter handle. Clones share the same cell.
#[derive(Clone, Debug)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (a relaxed `fetch_add`; no locks).
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A settable level handle. Clones share the same cell.
#[derive(Clone, Debug)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.cell.fetch_add(d, Ordering::Relaxed);
    }

    /// Current level.
    #[must_use]
    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

struct HistCells {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl HistCells {
    fn new() -> HistCells {
        HistCells { buckets: std::array::from_fn(|_| AtomicU64::new(0)), sum: AtomicU64::new(0) }
    }
}

/// A fixed log-bucketed histogram handle. Clones share the same cells.
#[derive(Clone)]
pub struct Histogram {
    cells: Arc<HistCells>,
}

impl Histogram {
    /// Records one value: two relaxed `fetch_add`s (bucket + sum).
    pub fn record(&self, v: u64) {
        self.cells.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.cells.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Snapshot of the bucket counts and sum.
    #[must_use]
    pub fn snapshot(&self) -> HistSnapshot {
        let buckets: Vec<u64> =
            self.cells.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        HistSnapshot {
            count: buckets.iter().sum(),
            sum: self.cells.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram").field("snapshot", &self.snapshot()).finish()
    }
}

/// An RAII stage timer: records elapsed [`now_micros`] into a histogram
/// when dropped.
pub struct Span {
    hist: Histogram,
    start: u64,
}

impl Span {
    /// Starts timing into `hist`.
    #[must_use]
    pub fn new(hist: &Histogram) -> Span {
        Span { hist: hist.clone(), start: now_micros() }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.record(now_micros().saturating_sub(self.start));
    }
}

/// A metric handle owned by an instance (a server, a pool) rather than
/// a call-site `static`: made up front by [`MetricsRegistry::lazy`], it
/// registers its metric in that registry on first use, like the macros
/// do in the global one. After that, [`Lazy::get`] is one acquire load.
pub struct Lazy<T> {
    registry: Arc<MetricsRegistry>,
    register: fn(&MetricsRegistry) -> T,
    handle: OnceLock<T>,
}

impl<T> Lazy<T> {
    /// The handle, registering the metric on the first call.
    pub fn get(&self) -> &T {
        self.handle.get_or_init(|| (self.register)(&self.registry))
    }
}

// ----------------------------------------------------------------- registry

enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Hist(Arc<HistCells>),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Hist(_) => "hist",
        }
    }
}

/// A named collection of metrics. The process-global instance is
/// [`registry()`]; a service owns its own, so its counts are exact.
///
/// Registration takes a short-lived lock; recording through the
/// returned handles never does.
#[derive(Default)]
pub struct MetricsRegistry {
    slots: Mutex<BTreeMap<String, Slot>>,
}

fn assert_valid_name(name: &str) {
    assert!(
        !name.is_empty()
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.')),
        "metric name {name:?} must be a non-empty [A-Za-z0-9_.-] token \
         (it travels on one-line wire formats)"
    );
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Slot>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The counter named `name`, registering it at zero on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a valid metric token or already names a
    /// metric of a different kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        assert_valid_name(name);
        let mut slots = self.lock();
        let slot = slots
            .entry(name.to_owned())
            .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))));
        match slot {
            Slot::Counter(cell) => Counter { cell: Arc::clone(cell) },
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge named `name`, registering it at zero on first use.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name or a kind clash.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        assert_valid_name(name);
        let mut slots = self.lock();
        let slot = slots
            .entry(name.to_owned())
            .or_insert_with(|| Slot::Gauge(Arc::new(AtomicI64::new(0))));
        match slot {
            Slot::Gauge(cell) => Gauge { cell: Arc::clone(cell) },
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram named `name`, registering it empty on first use.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name or a kind clash.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        assert_valid_name(name);
        let mut slots = self.lock();
        let slot =
            slots.entry(name.to_owned()).or_insert_with(|| Slot::Hist(Arc::new(HistCells::new())));
        match slot {
            Slot::Hist(cells) => Histogram { cells: Arc::clone(cells) },
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// A handle that registers a metric in this registry on first use:
    /// `metrics.lazy(|m| m.counter("serve.opened"))`. Naming the metric
    /// inside `register` keeps the name a literal at the
    /// `.counter(…)`/`.gauge(…)`/`.histogram(…)` call.
    #[must_use]
    pub fn lazy<T>(self: &Arc<Self>, register: fn(&MetricsRegistry) -> T) -> Lazy<T> {
        Lazy { registry: Arc::clone(self), register, handle: OnceLock::new() }
    }

    /// A point-in-time snapshot of every metric, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let slots = self.lock();
        let entries = slots
            .iter()
            .map(|(name, slot)| MetricValue {
                name: name.clone(),
                value: match slot {
                    Slot::Counter(cell) => Value::Counter(cell.load(Ordering::Relaxed)),
                    Slot::Gauge(cell) => Value::Gauge(cell.load(Ordering::Relaxed)),
                    Slot::Hist(cells) => {
                        Value::Hist(Histogram { cells: Arc::clone(cells) }.snapshot())
                    }
                },
            })
            .collect();
        Snapshot { entries }
    }

    /// Zeroes every counter and histogram **in place** (handles cached
    /// by call sites keep working). Gauges are levels, not
    /// accumulations, so they keep their current value.
    pub fn reset(&self) {
        let slots = self.lock();
        for slot in slots.values() {
            match slot {
                Slot::Counter(cell) => cell.store(0, Ordering::Relaxed),
                Slot::Gauge(_) => {}
                Slot::Hist(cells) => {
                    for bucket in &cells.buckets {
                        bucket.store(0, Ordering::Relaxed);
                    }
                    cells.sum.store(0, Ordering::Relaxed);
                }
            }
        }
    }

    /// Number of registered metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no metrics are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").field("metrics", &self.len()).finish()
    }
}

/// The process-global registry: training, checkpoints and sweeps record
/// into it through the macros. A service owns a registry of its own.
#[must_use]
pub fn registry() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

// ------------------------------------------------------------------ macros

/// A global [`Counter`], cached per call site: `counter!("serve.events").inc()`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// A global [`Gauge`], cached per call site: `gauge!("pool.queue_depth").add(1)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// A global [`Histogram`], cached per call site: `histogram!("ckpt.bytes").record(n)`.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::registry().histogram($name))
    }};
}

/// An RAII stage timer into the global histogram `<name>.us`:
/// `let _span = span!("smo.pass");` records the stage's elapsed
/// microseconds when the guard drops.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
        $crate::Span::new(
            HANDLE.get_or_init(|| $crate::registry().histogram(concat!($name, ".us"))),
        )
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index((1 << 30) - 1), 30);
        assert_eq!(bucket_index(1 << 30), 31, "top of range lands in the overflow bucket");
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1, "max value lands in overflow");
        // Every value v lands in a bucket whose upper bound is >= v.
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024, 1 << 20, u64::MAX] {
            assert!(bucket_upper_bound(bucket_index(v)) >= v, "v={v}");
        }
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_records_zero_max_and_overflow() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("t.hist");
        h.record(0);
        h.record(u64::MAX);
        h.record(1 << 40); // deep in the overflow bucket
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[HIST_BUCKETS - 1], 2);
        assert_eq!(snap.sum, u64::MAX.wrapping_add(1 << 40), "sum wraps, counts never lost");
    }

    #[test]
    fn counters_and_gauges_share_cells_across_handles() {
        let reg = MetricsRegistry::new();
        let c1 = reg.counter("t.count");
        let c2 = reg.counter("t.count");
        c1.inc();
        c2.add(2);
        assert_eq!(c1.value(), 3);
        let g1 = reg.gauge("t.level");
        let g2 = reg.gauge("t.level");
        g1.set(5);
        g2.add(-2);
        assert_eq!(g1.value(), 3);
    }

    #[test]
    fn reset_zeroes_counters_and_hists_but_keeps_gauges_and_handles() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("t.count");
        let g = reg.gauge("t.level");
        let h = reg.histogram("t.hist");
        c.add(7);
        g.set(9);
        h.record(100);
        reg.reset();
        assert_eq!(c.value(), 0);
        assert_eq!(g.value(), 9, "gauges are levels; reset keeps them");
        assert_eq!(h.snapshot().count, 0);
        assert_eq!(h.snapshot().sum, 0);
        // Cached handles keep recording into the zeroed cells.
        c.inc();
        h.record(1);
        assert_eq!(c.value(), 1);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn lazy_handles_register_on_first_use() {
        let reg = Arc::new(MetricsRegistry::new());
        let count = reg.lazy(|m| m.counter("t.count"));
        assert!(reg.is_empty(), "nothing is registered before the first record");
        count.get().add(2);
        count.get().inc();
        assert_eq!(reg.snapshot().counter("t.count"), Some(3));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn kind_clash_panics_with_a_clear_message() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("t.mixed");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reg.gauge("t.mixed")))
            .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("not a gauge"), "{msg}");
    }

    #[test]
    fn invalid_names_are_rejected() {
        let reg = MetricsRegistry::new();
        for bad in ["", "two words", "line\nbreak"] {
            assert!(
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reg.counter(bad)))
                    .is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn test_clock_makes_span_durations_deterministic() {
        let clock = TestClock::install(10);
        let reg = MetricsRegistry::new();
        let h = reg.histogram("t.span");
        {
            let _span = Span::new(&h); // start: read 1 (t=0)
            clock.advance(90);
        } // end: read 2 (t=100) -> duration 100
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, 100);
        assert_eq!(snap.buckets[bucket_index(100)], 1);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").inc();
        reg.gauge("a.first").set(-4);
        reg.histogram("m.mid").record(3);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a.first", "m.mid", "z.last"]);
        assert_eq!(snap.counter("z.last"), Some(1));
        assert_eq!(snap.gauge("a.first"), Some(-4));
        assert_eq!(snap.hist("m.mid").map(|h| h.count), Some(1));
    }
}
