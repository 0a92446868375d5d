//! The model registry: named classifiers loaded on demand from a model
//! directory, cached under a byte cap with LRU eviction, hot-reloadable.
//!
//! A registry maps a model *name* to `<dir>/<name>.model` (the
//! `leaps_core::persist` text format written by `leaps train`). Loads
//! are cached; the cache is bounded by a configurable byte cap using the
//! **on-disk size** of each model file as its memory-cost proxy (the
//! text format is within a small constant factor of the in-memory
//! model). When the cap is exceeded, least-recently-used entries are
//! evicted — except the entry just loaded, so a single oversized model
//! is still served, just never retained alongside others.
//!
//! Eviction only drops the cache entry: sessions opened earlier keep
//! their `Arc<Classifier>` alive until they close. Likewise
//! [`Registry::reload`] swaps the cached copy for newly-opened sessions
//! without disturbing running ones.
//!
//! # Failure model
//!
//! Disk reads retry transient I/O errors (interrupted / timed-out
//! syscalls) with a short backoff before reporting. A failed
//! [`Registry::reload`] **keeps the last-known-good cached model**: a
//! torn file or flaky disk degrades hot reload, never availability —
//! sessions keep opening against the copy that last parsed. Parse
//! failures name the backing file (exit-code family 4).
//!
//! The registry counts into the server's metrics registry:
//! `registry.loads`, `registry.hits` and `registry.evictions`, plus the
//! `registry.models` and `registry.cached_bytes` levels.

use crate::lock_unpoisoned;
use crate::proto::valid_name;
use leaps_core::error::LeapsError;
use leaps_core::persist::{load_classifier, ModelError};
use leaps_core::pipeline::Classifier;
use leaps_obs::{Counter, Gauge, Lazy, MetricsRegistry};
use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

struct Entry {
    classifier: Arc<Classifier>,
    bytes: u64,
    last_used: u64,
}

struct Inner {
    entries: BTreeMap<String, Entry>,
    tick: u64,
}

/// The registry's counters and levels.
struct RegistryMetrics {
    /// Cache misses (and reloads) that read a model from disk.
    loads: Lazy<Counter>,
    /// Cache hits.
    hits: Lazy<Counter>,
    /// Entries evicted to honour the byte cap.
    evictions: Lazy<Counter>,
    /// Models currently cached.
    models: Lazy<Gauge>,
    /// Total on-disk bytes of the cached models.
    cached_bytes: Lazy<Gauge>,
}

/// A thread-safe, LRU-bounded cache of named classifiers backed by a
/// model directory.
pub struct Registry {
    dir: PathBuf,
    cap_bytes: u64,
    inner: Mutex<Inner>,
    metrics: RegistryMetrics,
}

impl Registry {
    /// Creates a registry over `dir` with a cache cap of `cap_bytes`,
    /// counting into `metrics`.
    ///
    /// The directory is not scanned up front: models load lazily on
    /// first use, so a registry over a huge model farm starts instantly.
    #[must_use]
    pub fn new(
        dir: impl Into<PathBuf>,
        cap_bytes: u64,
        metrics: &Arc<MetricsRegistry>,
    ) -> Registry {
        Registry {
            dir: dir.into(),
            cap_bytes,
            inner: Mutex::new(Inner { entries: BTreeMap::new(), tick: 0 }),
            metrics: RegistryMetrics {
                loads: metrics.lazy(|m| m.counter("registry.loads")),
                hits: metrics.lazy(|m| m.counter("registry.hits")),
                evictions: metrics.lazy(|m| m.counter("registry.evictions")),
                models: metrics.lazy(|m| m.gauge("registry.models")),
                cached_bytes: metrics.lazy(|m| m.gauge("registry.cached_bytes")),
            },
        }
    }

    /// The backing model directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, name: &str) -> Result<PathBuf, LeapsError> {
        if !valid_name(name) {
            return Err(LeapsError::protocol(format!("bad model name {name:?}")));
        }
        Ok(self.dir.join(format!("{name}.model")))
    }

    fn load_from_disk(&self, name: &str) -> Result<(Arc<Classifier>, u64), LeapsError> {
        let path = self.path_of(name)?;
        let text = read_with_retry(&path)?;
        let classifier = load_classifier(&text).map_err(|inner| {
            LeapsError::Model(ModelError::InFile {
                path: path.display().to_string(),
                inner: Box::new(inner),
            })
        })?;
        Ok((Arc::new(classifier), text.len() as u64))
    }

    /// Fetches `name`, loading `<dir>/<name>.model` on a cache miss and
    /// evicting least-recently-used entries down to the byte cap.
    ///
    /// # Errors
    ///
    /// [`LeapsError::Protocol`] for an invalid name, [`LeapsError::Io`]
    /// if the file cannot be read, [`LeapsError::Model`] if it does not
    /// parse.
    pub fn get(&self, name: &str) -> Result<Arc<Classifier>, LeapsError> {
        {
            let mut guard = lock_unpoisoned(&self.inner);
            let inner = &mut *guard;
            inner.tick += 1;
            if let Some(entry) = inner.entries.get_mut(name) {
                entry.last_used = inner.tick;
                self.metrics.hits.get().inc();
                return Ok(Arc::clone(&entry.classifier));
            }
        }
        // Read and parse outside the lock: a slow disk load must not
        // stall sessions opening already-cached models.
        let (classifier, bytes) = self.load_from_disk(name)?;
        let mut inner = lock_unpoisoned(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        self.metrics.loads.get().inc();
        inner.entries.insert(
            name.to_owned(),
            Entry { classifier: Arc::clone(&classifier), bytes, last_used: tick },
        );
        self.evict_over_cap(&mut inner, name);
        self.publish_gauges(&inner);
        Ok(classifier)
    }

    /// Evicts LRU entries until the cache fits the cap, never evicting
    /// `keep` (the entry that triggered the eviction).
    fn evict_over_cap(&self, inner: &mut Inner, keep: &str) {
        loop {
            let total: u64 = inner.entries.values().map(|e| e.bytes).sum();
            if total <= self.cap_bytes {
                return;
            }
            let victim = inner
                .entries
                .iter()
                .filter(|(name, _)| name.as_str() != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(name, _)| name.clone());
            let Some(victim) = victim else {
                return; // only `keep` remains; an oversized model is served uncached
            };
            inner.entries.remove(&victim);
            self.metrics.evictions.get().inc();
        }
    }

    /// Publishes the cache's level gauges after any mutation.
    fn publish_gauges(&self, inner: &Inner) {
        self.metrics.models.get().set(inner.entries.len() as i64);
        let bytes: u64 = inner.entries.values().map(|e| e.bytes).sum();
        self.metrics.cached_bytes.get().set(i64::try_from(bytes).unwrap_or(i64::MAX));
    }

    /// Hot-reloads `name` from disk, replacing the cached copy.
    ///
    /// If the model is not cached this is a no-op (the next
    /// [`Registry::get`] reads the current file anyway). If the reload
    /// fails, the error is reported but the **last-known-good cached
    /// copy keeps serving** — a torn model file mid-deploy must degrade
    /// hot reload, not availability.
    ///
    /// # Errors
    ///
    /// Same families as [`Registry::get`].
    pub fn reload(&self, name: &str) -> Result<(), LeapsError> {
        let cached = lock_unpoisoned(&self.inner).entries.contains_key(name);
        if !cached {
            // Validate the name even for uncached models.
            self.path_of(name)?;
            return Ok(());
        }
        let (classifier, bytes) = self.load_from_disk(name)?;
        let mut inner = lock_unpoisoned(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        self.metrics.loads.get().inc();
        inner.entries.insert(name.to_owned(), Entry { classifier, bytes, last_used: tick });
        self.evict_over_cap(&mut inner, name);
        self.publish_gauges(&inner);
        Ok(())
    }
}

/// Reads a file, retrying transient I/O errors (interrupted or
/// timed-out syscalls — flaky NFS, pressure-stalled disks) with a short
/// exponential backoff before giving up. Hard errors (missing file,
/// permissions) report immediately.
fn read_with_retry(path: &Path) -> Result<String, LeapsError> {
    const ATTEMPTS: u32 = 3;
    let mut backoff = Duration::from_millis(10);
    for attempt in 1..=ATTEMPTS {
        match std::fs::read_to_string(path) {
            Ok(text) => return Ok(text),
            Err(e)
                if attempt < ATTEMPTS
                    && matches!(
                        e.kind(),
                        ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut
                    ) =>
            {
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            Err(e) => return Err(LeapsError::io(path.display().to_string(), &e)),
        }
    }
    unreachable!("the final attempt either returned or reported")
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("dir", &self.dir)
            .field("cap_bytes", &self.cap_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaps_cgraph::classify::CallGraphClassifier;
    use leaps_cgraph::graph::CallGraph;
    use leaps_core::persist::save_classifier;
    use leaps_core::pipeline::Classifier;

    /// A tiny call-graph classifier whose serialized size grows with
    /// `edges` — enough to exercise load/evict without training.
    fn tiny_model(edges: usize) -> Classifier {
        let edge_list: Vec<(String, String)> =
            (0..edges).map(|i| (format!("m!f{i}"), format!("m!f{}", i + 1))).collect();
        let bcg = CallGraph::from_parts(edge_list, Vec::new());
        let mcg = CallGraph::from_parts(Vec::new(), Vec::new());
        Classifier::CGraph(CallGraphClassifier::from_parts(bcg, mcg))
    }

    fn write_model(dir: &Path, name: &str, edges: usize) -> u64 {
        let text = save_classifier(&tiny_model(edges));
        let path = dir.join(format!("{name}.model"));
        std::fs::write(&path, &text).unwrap();
        text.len() as u64
    }

    /// A registry over `dir` counting into a private metrics registry.
    fn metered(dir: &Path, cap_bytes: u64) -> (Registry, Arc<MetricsRegistry>) {
        let metrics = Arc::new(MetricsRegistry::new());
        (Registry::new(dir, cap_bytes, &metrics), metrics)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("leaps-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn loads_caches_and_counts_hits() {
        let dir = temp_dir("hits");
        write_model(&dir, "a", 4);
        let (registry, metrics) = metered(&dir, 1 << 20);
        let first = registry.get("a").unwrap();
        let second = registry.get("a").unwrap();
        assert!(Arc::ptr_eq(&first, &second), "hit must return the cached Arc");
        let snap = metrics.snapshot();
        assert_eq!(
            (snap.counter("registry.loads"), snap.counter("registry.hits")),
            (Some(1), Some(1))
        );
        assert_eq!(snap.gauge("registry.models"), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_bad_names_and_missing_files() {
        let dir = temp_dir("bad");
        let (registry, _) = metered(&dir, 1 << 20);
        assert_eq!(registry.get("../etc/passwd").unwrap_err().exit_code(), 7);
        assert_eq!(registry.get("absent").unwrap_err().exit_code(), 6);
        std::fs::write(dir.join("garbage.model"), "not a model").unwrap();
        assert_eq!(registry.get("garbage").unwrap_err().exit_code(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evicts_least_recently_used_under_cap() {
        let dir = temp_dir("lru");
        let a = write_model(&dir, "a", 8);
        let b = write_model(&dir, "b", 8);
        let c = write_model(&dir, "c", 8);
        assert_eq!(a, b);
        // Cap fits exactly two of the three models.
        let (registry, metrics) = metered(&dir, a + b + c / 2);
        registry.get("a").unwrap();
        registry.get("b").unwrap();
        registry.get("a").unwrap(); // refresh a: b is now the LRU entry
        let held = registry.get("c").unwrap(); // evicts b
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("registry.evictions"), Some(1));
        assert_eq!(snap.gauge("registry.models"), Some(2));
        // b reloads from disk (a fresh load, not a hit)...
        let loads_before = snap.counter("registry.loads").unwrap();
        registry.get("b").unwrap();
        assert_eq!(metrics.snapshot().counter("registry.loads"), Some(loads_before + 1));
        // ...while the evicted-but-held Arc stays usable.
        drop(held);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_model_is_served_but_not_retained_with_others() {
        let dir = temp_dir("oversize");
        write_model(&dir, "big", 64);
        let (registry, metrics) = metered(&dir, 1); // cap smaller than any model
        let models = || metrics.snapshot().gauge("registry.models");
        registry.get("big").unwrap();
        assert_eq!(models(), Some(1), "sole entry survives");
        write_model(&dir, "other", 4);
        registry.get("other").unwrap();
        assert_eq!(models(), Some(1), "cap forces a single entry");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reload_swaps_the_cached_copy() {
        let dir = temp_dir("reload");
        write_model(&dir, "m", 2);
        let (registry, metrics) = metered(&dir, 1 << 20);
        let old = registry.get("m").unwrap();
        write_model(&dir, "m", 6);
        registry.reload("m").unwrap();
        let new = registry.get("m").unwrap();
        assert!(!Arc::ptr_eq(&old, &new), "reload must produce a fresh classifier");
        // Reload of an uncached model validates the name but reads nothing.
        registry.reload("never-loaded").unwrap();
        assert_eq!(registry.reload("../x").unwrap_err().exit_code(), 7);
        // A reload that fails reports the torn file (naming it) but
        // keeps the last-known-good copy serving.
        std::fs::write(dir.join("m.model"), "garbage").unwrap();
        let err = registry.reload("m").unwrap_err();
        assert_eq!(err.exit_code(), 4);
        assert!(err.to_string().contains("m.model"), "{err}");
        assert_eq!(
            metrics.snapshot().gauge("registry.models"),
            Some(1),
            "last-known-good entry must survive"
        );
        let survivor = registry.get("m").unwrap();
        assert!(Arc::ptr_eq(&survivor, &new), "survivor must be the pre-failure copy");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A one-support-vector WSVM model (window 1) with Gaussian radius
    /// `sigma2`, written out by hand.
    fn svm_model_text(sigma2: &str) -> String {
        format!(
            "# LEAPS-MODEL v1\nkind svm\ntuned 1.0 2.0\nkernel gaussian {sigma2}\nbias 0.5\n\
             sv_count 1\nsv 1.0 0.1 0.2 0.3\nencoder average distance 0.15 1 1 400\n\
             lib_vocab 1\nset 0 ntdll\nfunc_vocab 1\nset 0 ntdll!NtClose\n"
        )
    }

    #[test]
    fn reload_of_an_invalid_kernel_keeps_the_last_known_good_model() {
        let dir = temp_dir("sigma2");
        let path = dir.join("w.model");
        std::fs::write(&path, svm_model_text("2.0")).unwrap();
        let (registry, _) = metered(&dir, 1 << 20);
        let good = registry.get("w").unwrap();
        for bad in ["NaN", "0.0", "-1.0"] {
            std::fs::write(&path, svm_model_text(bad)).unwrap();
            let err = registry.reload("w").unwrap_err();
            assert_eq!(err.exit_code(), 4, "{bad}: {err}");
            assert!(err.to_string().contains("sigma2"), "{bad}: {err}");
            assert!(Arc::ptr_eq(&registry.get("w").unwrap(), &good), "{bad}: model replaced");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A one-state HMM model over a one-entry symbol table, written out
    /// by hand: `pi` is the initial-state line, `symbols` both alphabets
    /// (2 = the table entry plus the unknown symbol).
    fn hmm_model_text(pi: &str, symbols: usize) -> String {
        let b = vec![format!("{:?}", 1.0 / symbols as f64); symbols].join(" ");
        let hmm = |tag: &str| format!("{tag} 1 {symbols}\npi {pi}\na 1.0\nb {b}\n");
        format!(
            "# LEAPS-MODEL v1\nkind hmm\nencoder average distance 0.15 1 1 400\n\
             lib_vocab 1\nset 0 ntdll\nfunc_vocab 1\nset 0 ntdll!NtClose\n\
             symbols 1\nsym 0 0 0 0\n{}{}",
            hmm("benign_hmm"),
            hmm("mixed_hmm")
        )
    }

    #[test]
    fn invalid_hmm_models_are_refused_and_reload_keeps_the_last_known_good_model() {
        let dir = temp_dir("hmm");
        let path = dir.join("h.model");
        let (registry, _) = metered(&dir, 1 << 20);
        for (bad, needle) in
            [(hmm_model_text("NaN", 2), "not a probability"), (hmm_model_text("1.0", 1), "symbol")]
        {
            std::fs::write(&path, &bad).unwrap();
            let err = registry.get("h").unwrap_err();
            assert_eq!(err.exit_code(), 4, "{needle}: {err}");
            assert!(err.to_string().contains(needle), "{err}");
        }
        std::fs::write(&path, hmm_model_text("1.0", 2)).unwrap();
        let good = registry.get("h").unwrap();
        for bad in [hmm_model_text("-5", 2), hmm_model_text("1.0", 1)] {
            std::fs::write(&path, bad).unwrap();
            assert_eq!(registry.reload("h").unwrap_err().exit_code(), 4);
            assert!(Arc::ptr_eq(&registry.get("h").unwrap(), &good), "model replaced");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
