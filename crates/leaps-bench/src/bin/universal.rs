//! The universal-classifier experiment of paper Section II-B-2: train
//! **one** classifier over several applications' pooled training data and
//! compare, per application, against the application-wise classifiers the
//! paper evaluates.
//!
//! ```text
//! cargo run -p leaps-bench --release --bin universal
//! ```

use leaps::core::dataset::Dataset;
use leaps::core::pipeline::{train_classifier, Method};
use leaps::core::universal::UniversalClassifier;
use leaps::etw::scenario::Scenario;
use leaps_bench::{fmt3, harness_experiment};

const DATASETS: [&str; 5] = [
    "winscp_reverse_tcp",
    "chrome_reverse_tcp",
    "notepad++_reverse_tcp",
    "putty_reverse_tcp",
    "vim_reverse_tcp",
];

fn main() {
    leaps_bench::check_threads_env();
    let experiment = harness_experiment();
    let seed = experiment.seed;
    println!(
        "UNIVERSAL CLASSIFIER (Section II-B-2, {} events/log, single split)",
        experiment.gen.benign_events
    );

    let datasets: Vec<Dataset> = DATASETS
        .iter()
        .map(|name| {
            Dataset::materialize(
                Scenario::by_name(name).expect("known dataset"),
                &experiment.gen,
                seed,
            )
            .expect("generation")
        })
        .collect();

    println!("training one WSVM over {} pooled datasets...", datasets.len());
    let universal = UniversalClassifier::train(&datasets, Method::Wsvm, &experiment.pipeline, seed);
    println!("tuned lambda={} sigma2={}\n", universal.tuned().0, universal.tuned().1);
    println!("{:<26} {:>18} {:>18}", "Dataset", "universal WSVM ACC", "per-app WSVM ACC");
    for d in &datasets {
        let u = universal.evaluate(d, &experiment.pipeline, seed);
        let (train, test) = d.split_benign(experiment.pipeline.benign_train_fraction, seed);
        let per_app = train_classifier(Method::Wsvm, &train, &d.mixed, &experiment.pipeline, seed)
            .evaluate(&test, &d.malicious)
            .metrics();
        println!("{:<26} {:>18} {:>18}", d.scenario.name(), fmt3(u.acc), fmt3(per_app.acc));
    }
}
