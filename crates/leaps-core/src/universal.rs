//! The universal classifier of paper Section II-B-2: "LEAPS can coalesce
//! all application data from the system event log to learn a universal
//! classifier for testing" (the paper trains application-wise classifiers
//! only "for the convenience of evaluation").
//!
//! One classifier is trained over the pooled training data of several
//! applications' datasets. CFG-guided weights stay *per application* —
//! each mixed log is scored against its own application's benign CFG —
//! and only the statistical model is shared.

use crate::config::PipelineConfig;
use crate::dataset::Dataset;
use crate::metrics::Metrics;
use crate::pipeline::{sample_points, tune_and_solve, tuning_grid, Classifier, Method, StageSink};
use leaps_cluster::features::FeatureEncoder;
use leaps_etw::rng::SimRng;
use leaps_svm::data::TrainSet;
use leaps_trace::partition::PartitionedEvent;

/// A universal (cross-application) SVM-family classifier together with
/// the per-dataset benign test splits used for evaluation.
#[derive(Debug, Clone)]
pub struct UniversalClassifier {
    /// The pooled SVM-family classifier.
    classifier: Classifier,
    /// Its tuned (λ, σ²).
    tuned: (f64, f64),
}

impl UniversalClassifier {
    /// Trains one classifier over the pooled training data of `datasets`.
    ///
    /// `method` must be [`Method::Svm`] or [`Method::Wsvm`].
    ///
    /// # Panics
    ///
    /// Panics if `datasets` is empty, `method` is not an SVM-family
    /// method, or the pooled training set degenerates.
    #[must_use]
    pub fn train(
        datasets: &[Dataset],
        method: Method,
        config: &PipelineConfig,
        seed: u64,
    ) -> UniversalClassifier {
        assert!(!datasets.is_empty(), "need at least one dataset");
        assert!(
            matches!(method, Method::Svm | Method::Wsvm),
            "universal training supports SVM-family methods"
        );
        config.validate();

        // Per-dataset benign training halves.
        let splits: Vec<(Vec<PartitionedEvent>, Vec<PartitionedEvent>)> =
            datasets.iter().map(|d| d.split_benign(config.benign_train_fraction, seed)).collect();

        // One encoder over everything available at training time.
        let mut fit_events: Vec<&PartitionedEvent> = Vec::new();
        for (d, (train, _)) in datasets.iter().zip(&splits) {
            fit_events.extend(train.iter());
            fit_events.extend(d.mixed.iter());
        }
        let encoder = FeatureEncoder::fit(&fit_events, config.preprocess);

        // Pool weighted samples, dataset by dataset (weights are computed
        // against each application's own benign CFG), from one generator.
        let mut samples = Vec::new();
        let mut rng = SimRng::new(seed ^ 0x0411);
        for (d, (train, _)) in datasets.iter().zip(&splits) {
            sample_points(method, &encoder, train, &d.mixed, config, &mut rng, &mut samples);
        }
        let train_set = TrainSet::new(samples).expect("pooled training set is degenerate");
        let svm =
            tune_and_solve(encoder, &train_set, &tuning_grid(config, seed), &mut StageSink::off())
                .expect("training without checkpoints never halts");
        UniversalClassifier { tuned: svm.tuned, classifier: Classifier::Svm(svm) }
    }

    /// Evaluates the universal classifier on one dataset's held-out
    /// benign half and pure-malicious log.
    #[must_use]
    pub fn evaluate(&self, dataset: &Dataset, config: &PipelineConfig, seed: u64) -> Metrics {
        let (_, test) = dataset.split_benign(config.benign_train_fraction, seed);
        self.classifier.evaluate(&test, &dataset.malicious).metrics()
    }

    /// The tuned (λ, σ²).
    #[must_use]
    pub fn tuned(&self) -> (f64, f64) {
        self.tuned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaps_etw::scenario::{GenParams, Scenario};

    fn datasets() -> Vec<Dataset> {
        ["vim_reverse_tcp", "putty_reverse_https"]
            .iter()
            .map(|name| {
                Dataset::materialize(Scenario::by_name(name).unwrap(), &GenParams::small(), 5)
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn universal_wsvm_trains_and_detects_on_every_member_app() {
        let ds = datasets();
        let config = PipelineConfig::fast();
        let universal = UniversalClassifier::train(&ds, Method::Wsvm, &config, 5);
        for d in &ds {
            let m = universal.evaluate(d, &config, 5);
            assert!(m.acc > 0.55, "{}: {m}", d.scenario.name());
        }
        assert!(universal.tuned().0 > 0.0);
    }

    #[test]
    fn universal_svm_also_trains() {
        let ds = datasets();
        let config = PipelineConfig::fast();
        let universal = UniversalClassifier::train(&ds, Method::Svm, &config, 6);
        let m = universal.evaluate(&ds[0], &config, 6);
        assert!(m.acc > 0.4, "{m}");
    }

    #[test]
    #[should_panic(expected = "SVM-family")]
    fn cgraph_is_rejected() {
        let ds = datasets();
        let _ = UniversalClassifier::train(&ds, Method::CGraph, &PipelineConfig::fast(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one dataset")]
    fn empty_dataset_list_rejected() {
        let _ = UniversalClassifier::train(&[], Method::Wsvm, &PipelineConfig::fast(), 5);
    }
}
