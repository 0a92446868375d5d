//! Scoped-thread parallelism for the LEAPS training hot loops.
//!
//! The three dominant costs of the training path — the dense Gaussian
//! kernel matrix, the (λ, σ²) × fold cross-validation grid and the
//! O(n²) pairwise Jaccard distance matrix — are embarrassingly
//! parallel: every unit of work is independent and the reduction is a
//! plain index-ordered concatenation. This crate provides that fan-out
//! with three hard guarantees:
//!
//! 1. **Determinism.** Results are assembled strictly by work-item
//!    index, never by completion order, so every `par_*` call returns
//!    exactly what the serial loop would have returned — bit for bit —
//!    regardless of thread count or scheduling.
//! 2. **No dependencies.** Built on [`std::thread::scope`]; workers
//!    borrow the caller's data directly, no channels or arcs.
//! 3. **No nested oversubscription.** A worker thread that itself calls
//!    into a `par_*` helper runs the inner call serially (tracked by a
//!    thread-local), so a parallel work item never spawns a pool of
//!    its own.
//!
//! The thread count comes from, in priority order: the runtime override
//! ([`set_thread_override`], used by the CLI's `--threads` flag), the
//! `LEAPS_THREADS` environment variable, and finally
//! [`std::thread::available_parallelism`]. A count of 1 short-circuits
//! to the plain serial loop with zero threading overhead.

pub mod pool;

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a mutex, shrugging off poisoning.
///
/// Poisoning marks that a holder panicked mid-critical-section; for
/// every lock in this workspace the protected state is kept
/// consistent at each await-free step, so the right response is to
/// keep serving, not to wedge every future holder behind a panic.
/// This is the *only* sanctioned way to take a `Mutex` here — the
/// `lock-unwrap` lint (see `leaps-lint`) rejects `.lock().unwrap()`
/// workspace-wide, precisely because a supervisor that unwraps a
/// poisoned lock turns one contained worker panic into a permanent
/// outage.
pub fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runtime thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True inside a `par_*` worker; forces nested calls serial.
    static IN_PAR_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Overrides the worker-thread count for every subsequent `par_*` call
/// in this process (`None` restores env/hardware detection).
///
/// Because all reductions are index-ordered, changing the thread count
/// never changes any computed result — only wall-clock time.
///
/// # Panics
///
/// Panics if `Some(0)` is passed.
pub fn set_thread_override(threads: Option<usize>) {
    if let Some(n) = threads {
        assert!(n >= 1, "thread override must be at least 1");
        THREAD_OVERRIDE.store(n, Ordering::Relaxed);
    } else {
        THREAD_OVERRIDE.store(0, Ordering::Relaxed);
    }
}

/// The worker-thread count `par_*` calls will use right now:
/// the [`set_thread_override`] value if set, else `LEAPS_THREADS` if
/// set to a positive integer, else the machine's available parallelism.
#[must_use]
pub fn thread_count() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => env_threads().ok().flatten().unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }),
        n => n,
    }
}

/// Marks the calling thread as a par worker: any scoped `par_*` call it
/// makes from now on runs serially instead of spawning a nested pool.
/// Used by [`pool::Pool`] workers.
pub(crate) fn mark_current_thread_as_worker() {
    IN_PAR_WORKER.with(|flag| flag.set(true));
}

/// The `LEAPS_THREADS` setting: `Ok(None)` when unset, `Ok(Some(n))` for
/// a positive integer, and otherwise a one-line message naming the value.
/// [`thread_count`] ignores such a value; the binaries refuse it up front.
///
/// # Errors
///
/// The message, when the variable is set but is not a positive integer.
pub fn env_threads() -> Result<Option<usize>, String> {
    parse_threads(std::env::var_os("LEAPS_THREADS"))
}

fn parse_threads(value: Option<std::ffi::OsString>) -> Result<Option<usize>, String> {
    let Some(text) = value else { return Ok(None) };
    match text.to_str().map(|text| text.trim().parse()) {
        Some(Ok(n)) if n >= 1 => Ok(Some(n)),
        _ => Err(format!("LEAPS_THREADS={text:?} is not a positive integer")),
    }
}

/// Maps `f` over `0..n`, returning results in index order.
///
/// Work items are distributed dynamically (an atomic cursor), so
/// heavily skewed per-item costs — e.g. triangular distance-matrix
/// rows — still balance across workers.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub fn par_map_indexed<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let threads = thread_count().min(n);
    if threads <= 1 || IN_PAR_WORKER.with(Cell::get) {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<U>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    IN_PAR_WORKER.with(|flag| flag.set(true));
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (i, value) in handle.join().expect("par_map worker panicked") {
                slots[i] = Some(value);
            }
        }
    });
    slots.into_iter().map(|slot| slot.expect("every index computed exactly once")).collect()
}

/// Maps `f` over every element of `items`, returning results in input
/// order. See [`par_map_indexed`] for the guarantees.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that mutate the process-global override.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn thread_env_values_parse_or_name_the_fault() {
        let set = |text: &str| Some(text.into());
        assert_eq!(parse_threads(None), Ok(None));
        assert_eq!(parse_threads(set("4")), Ok(Some(4)));
        assert_eq!(parse_threads(set(" 2 ")), Ok(Some(2)));
        for bad in ["abc", "0", "", "-1", "1.5"] {
            let message = parse_threads(set(bad)).unwrap_err();
            assert_eq!(message, format!("LEAPS_THREADS={bad:?} is not a positive integer"));
        }
        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStringExt;
            let not_utf8 = std::ffi::OsString::from_vec(vec![b'4', 0xff]);
            assert!(parse_threads(Some(not_utf8)).is_err());
        }
    }

    #[test]
    fn par_map_preserves_order_and_values() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(par_map(&items, |x| x * x), serial);
    }

    #[test]
    fn par_map_indexed_handles_empty_and_single() {
        assert_eq!(par_map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // Skewed work per item (triangular), like distance-matrix rows.
        let work = |i: usize| -> f64 { (i..1000).map(|j| (j as f64).sqrt()).sum() };
        let reference: Vec<f64> = (0..200).map(work).collect();
        assert_eq!(par_map_indexed(200, work), reference);
    }

    #[test]
    fn nested_calls_run_serially_without_deadlock() {
        let out = par_map_indexed(8, |i| {
            // Inner call must not spawn another pool.
            par_map_indexed(8, move |j| i * 8 + j)
        });
        for (i, row) in out.iter().enumerate() {
            assert_eq!(*row, (0..8).map(|j| i * 8 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panics_propagate() {
        let _guard = lock_unpoisoned(&OVERRIDE_LOCK);
        // Force the parallel path even on single-core CI machines.
        set_thread_override(Some(2));
        let result = std::panic::catch_unwind(|| {
            par_map_indexed(64, |i| {
                assert!(i != 32, "boom");
                i
            })
        });
        set_thread_override(None);
        match result {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(_) => panic!("expected worker panic"),
        }
    }

    #[test]
    fn override_and_env_precedence() {
        let _guard = lock_unpoisoned(&OVERRIDE_LOCK);
        set_thread_override(Some(3));
        assert_eq!(thread_count(), 3);
        set_thread_override(None);
        assert!(thread_count() >= 1);
    }
}
