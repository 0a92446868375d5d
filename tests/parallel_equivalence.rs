//! Parallel/serial equivalence: every `leaps_par` fan-out (kernel
//! matrix, CV grid, pairwise distances, Baum–Welch) must be bit-identical
//! to the serial path at any thread count, including grid-search
//! tie-breaking. The UPGMA dendrogram runs on one thread; its
//! nearest-neighbour cache must match the full-rescan oracle merge for
//! merge, on synthetic ties, NaN distances and a paper-scale vocabulary.

use leaps::cluster::dissim::{jaccard_dissimilarity, DistanceMatrix};
use leaps::cluster::features::{FeatureEncoder, PreprocessConfig};
use leaps::cluster::hier::{Dendrogram, Linkage};
use leaps::core::config::PipelineConfig;
use leaps::core::dataset::Dataset;
use leaps::core::par;
use leaps::core::pipeline::{train_classifier, Method};
use leaps::etw::rng::SimRng;
use leaps::etw::scenario::{GenParams, Scenario};
use leaps::hmm::hmm::{Hmm, HmmParams};
use leaps::svm::cv::GridSearch;
use leaps::svm::data::{Sample, TrainSet};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that mutate the process-global thread override.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    OVERRIDE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `f` with the thread count forced to `threads`, restoring the
/// default afterwards.
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    par::set_thread_override(Some(threads));
    let out = f();
    par::set_thread_override(None);
    out
}

fn blob_set() -> TrainSet {
    // Two overlapping 2-D blobs on a deterministic lattice — overlap
    // makes fold scores non-trivial so the grid selection is exercised.
    let mut samples = Vec::new();
    for i in 0..30 {
        let dx = (i % 5) as f64 * 0.06;
        let dy = (i / 5) as f64 * 0.06;
        samples.push(Sample::new(vec![0.1 + dx, 0.15 + dy], 1.0, 1.0));
        samples.push(Sample::new(vec![0.45 + dx, 0.4 + dy], -1.0, 1.0));
    }
    TrainSet::new(samples).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn from_sets_parallel_matches_serial(
        sets in proptest::collection::vec(
            proptest::collection::btree_set(0u8..60, 0..6),
            0..25,
        ),
        threads in 2usize..6,
    ) {
        let _guard = lock();
        let items: Vec<Vec<u8>> =
            sets.into_iter().map(|s| s.into_iter().collect()).collect();
        let serial = DistanceMatrix::from_sets(&items, |a, b| jaccard_dissimilarity(a, b));
        let parallel = with_threads(threads, || {
            DistanceMatrix::from_sets_parallel(&items, |a, b| jaccard_dissimilarity(a, b))
        });
        prop_assert_eq!(serial, parallel);
    }
}

#[test]
fn grid_search_selects_identical_config_across_thread_counts() {
    let _guard = lock();
    let set = blob_set();
    let gs = GridSearch { folds: 4, ..Default::default() };
    let serial = with_threads(1, || gs.run(&set));
    for threads in [2, 4, 7] {
        let parallel = with_threads(threads, || gs.run(&set));
        // GridSearchResult compares (λ, σ², accuracy) — the accuracy
        // equality is the bit-identical float reduction guarantee.
        assert_eq!(serial, parallel, "thread count {threads} diverged");
    }
}

#[test]
fn wsvm_training_is_identical_across_thread_counts() {
    let _guard = lock();
    let scenario = Scenario::by_name("vim_reverse_tcp").unwrap();
    let d = Dataset::materialize(scenario, &GenParams::small(), 21).unwrap();
    let (train, test) = d.split_benign(0.5, 1);
    let evaluate = || {
        train_classifier(Method::Wsvm, &train, &d.mixed, &PipelineConfig::fast(), 7)
            .evaluate(&test, &d.malicious)
    };
    let cm1 = with_threads(1, evaluate);
    let cm4 = with_threads(4, evaluate);
    assert_eq!(cm1, cm4);
}

/// Deterministic pseudo-random distance matrix with quantized values,
/// so closest-pair ties occur and exercise the smallest-index
/// tie-break.
fn synthetic_dm(n: usize, seed: u64) -> DistanceMatrix {
    let mut rng = SimRng::new(seed);
    let data: Vec<f64> = (0..n * (n - 1) / 2).map(|_| (rng.f64() * 16.0).floor() / 16.0).collect();
    DistanceMatrix::from_condensed(n, data)
}

/// Builds the dendrogram of `dm`, asserting that the nearest-neighbour
/// cache and the full-rescan oracle merge the same clusters in the same
/// order at the same distances, bit for bit (so NaN distances compare
/// too).
fn build_matching_rescan(dm: &DistanceMatrix, linkage: Linkage, context: &str) -> Dendrogram {
    let cache = Dendrogram::build(dm, linkage);
    let rescan = Dendrogram::build_rescan(dm, linkage);
    assert_eq!(cache.merges().len(), dm.len() - 1, "{context} {linkage:?}");
    for (k, (a, b)) in cache.merges().iter().zip(rescan.merges()).enumerate() {
        assert_eq!((a.left, a.right, a.size), (b.left, b.right, b.size), "{context} {k}");
        assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "{context} {linkage:?} {k}");
    }
    cache
}

#[test]
fn dendrogram_with_distance_ties_matches_the_rescan_oracle() {
    let dm = synthetic_dm(80, 11);
    for linkage in [Linkage::Average, Linkage::Single, Linkage::Complete] {
        build_matching_rescan(&dm, linkage, "ties");
    }
}

#[test]
fn dendrogram_with_nan_distances_matches_the_rescan_oracle() {
    // Every 5th distance is NaN — the degraded-telemetry shape that
    // used to panic.
    let mut rng = SimRng::new(3);
    let n = 40;
    let data: Vec<f64> =
        (0..n * (n - 1) / 2).map(|k| if k % 5 == 0 { f64::NAN } else { rng.f64() }).collect();
    let dm = DistanceMatrix::from_condensed(n, data);
    for linkage in [Linkage::Average, Linkage::Single, Linkage::Complete] {
        build_matching_rescan(&dm, linkage, "NaN");
    }
}

#[test]
fn dendrogram_matches_the_rescan_oracle_on_a_paper_scale_func_vocabulary() {
    // The Func vocabulary an encoder fit on paper-scale logs clusters:
    // the `max_vocab` cap of 400 sets, with the exact Jaccard ties of
    // real stacks (many pairs share a distance such as 1/2 or 2/3).
    let config = PreprocessConfig::default();
    for name in ["vim_reverse_tcp", "putty_codeinject"] {
        let d =
            Dataset::materialize(Scenario::by_name(name).unwrap(), &GenParams::paper(), 3).unwrap();
        let events: Vec<_> = d.benign.iter().chain(&d.mixed).collect();
        let encoder = FeatureEncoder::fit(&events, config);
        let vocab = encoder.parts().1.members();
        assert_eq!(vocab.len(), config.max_vocab, "{name}");
        let dm = DistanceMatrix::from_sets(vocab, |a, b| jaccard_dissimilarity(a, b));
        for linkage in [Linkage::Average, Linkage::Single, Linkage::Complete] {
            let cache = build_matching_rescan(&dm, linkage, name);
            // Ties decided the order of many merges.
            let tied = cache.merges().windows(2).filter(|w| w[0].distance == w[1].distance);
            assert!(tied.count() > 100, "{name} {linkage:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn dendrogram_matches_the_rescan_oracle_for_random_matrices(
        seed in 0u64..1000,
        n in 2usize..40,
    ) {
        let dm = synthetic_dm(n, seed);
        prop_assert_eq!(
            Dendrogram::build(&dm, Linkage::Average),
            Dendrogram::build_rescan(&dm, Linkage::Average)
        );
    }
}

/// Deterministic symbol sequences with a state-ish structure, varying
/// lengths so the per-sequence E-step work is skewed across threads.
fn synthetic_sequences(count: usize, symbols: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = SimRng::new(seed);
    (0..count)
        .map(|i| {
            let len = 20 + (i * 13) % 40;
            (0..len).map(|_| rng.below(symbols)).collect()
        })
        .collect()
}

#[test]
fn hmm_training_identical_across_thread_counts() {
    let _guard = lock();
    let seqs = synthetic_sequences(12, 6, 42);
    let params = HmmParams::default();
    let serial = with_threads(1, || Hmm::train(&seqs, 6, &params));
    let (pi1, a1, b1) = serial.parts();
    for threads in [2, 4, 8] {
        let parallel = with_threads(threads, || Hmm::train(&seqs, 6, &params));
        let (pi2, a2, b2) = parallel.parts();
        for (name, x, y) in [("pi", pi1, pi2), ("a", a1, a2), ("b", b1, b2)] {
            assert_eq!(x.len(), y.len());
            for (v, w) in x.iter().zip(y) {
                assert_eq!(v.to_bits(), w.to_bits(), "{name} diverged at {threads} threads");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn hmm_training_matches_serial_for_random_corpora(
        seed in 0u64..500,
        count in 1usize..10,
        symbols in 2usize..8,
        threads in 2usize..9,
    ) {
        let _guard = lock();
        let seqs = synthetic_sequences(count, symbols, seed);
        let params = HmmParams { states: 4, iterations: 5, ..HmmParams::default() };
        let serial = with_threads(1, || Hmm::train(&seqs, symbols, &params));
        let parallel = with_threads(threads, || Hmm::train(&seqs, symbols, &params));
        prop_assert_eq!(serial, parallel);
    }
}

#[test]
fn hmm_classifier_verdicts_identical_across_thread_counts() {
    let _guard = lock();
    let scenario = Scenario::by_name("vim_reverse_tcp").unwrap();
    let d = Dataset::materialize(scenario, &GenParams::small(), 21).unwrap();
    let (train, test) = d.split_benign(0.5, 1);
    let evaluate = || {
        train_classifier(Method::Hmm, &train, &d.mixed, &PipelineConfig::fast(), 7)
            .evaluate(&test, &d.malicious)
    };
    let serial = with_threads(1, evaluate);
    for threads in [2, 4, 8] {
        assert_eq!(serial, with_threads(threads, evaluate), "thread count {threads} diverged");
    }
}

#[test]
fn leaps_threads_env_var_reaches_the_pool() {
    let _guard = lock();
    // No override active: the env var must drive the thread count, and
    // the parallel result must still match the serial builder.
    par::set_thread_override(None);
    std::env::set_var("LEAPS_THREADS", "3");
    assert_eq!(par::thread_count(), 3);
    let items: Vec<Vec<u32>> = (0..12).map(|i| (0..=(i % 4)).collect()).collect();
    let enved = DistanceMatrix::from_sets_parallel(&items, |a, b| jaccard_dissimilarity(a, b));
    std::env::remove_var("LEAPS_THREADS");
    let serial = DistanceMatrix::from_sets(&items, |a, b| jaccard_dissimilarity(a, b));
    assert_eq!(serial, enved);
}
