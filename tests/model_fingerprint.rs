//! Golden fingerprints of saved models: the suites that compare thread
//! counts or pause against no pause cannot see a deterministic change
//! in the training arithmetic, because both sides change alike. This
//! test compares each saved model with the bytes an earlier commit
//! saved, so such a change fails here.
//!
//! The inputs are those of `leaps gen --scenario vim_reverse_tcp
//! --events 2000 --seed 21` followed by `leaps train --seed 21` (default
//! configuration, full 10-fold grid), and the fingerprint is FNV-1a over
//! the bytes `leaps train` writes. To regenerate the constants, run
//!
//! ```sh
//! cargo test -p leaps --test model_fingerprint -- --nocapture
//! ```
//!
//! and copy the printed values into [`GOLDEN`]. A change that alters a
//! model must say why in its description; a speedup that claims to keep
//! models bit-identical must leave these constants as they are.

use leaps::core::config::PipelineConfig;
use leaps::core::dataset::Dataset;
use leaps::core::persist::save_classifier;
use leaps::core::pipeline::{train_classifier, Method};
use leaps::etw::scenario::{GenParams, Scenario};

const SEED: u64 = 21;
const EVENTS: usize = 2000;

/// FNV-1a of each method's saved model.
const GOLDEN: [(Method, u64); 3] = [
    (Method::Wsvm, 0x156b_2be7_7444_6897),
    (Method::Svm, 0xaf18_dba2_d0d2_c947),
    (Method::Hmm, 0x2f26_413a_47cf_bc41),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn saved_models_match_their_golden_fingerprints() {
    let params = GenParams {
        benign_events: EVENTS,
        mixed_events: EVENTS,
        malicious_events: EVENTS / 2,
        benign_ratio: 0.5,
    };
    let scenario = Scenario::by_name("vim_reverse_tcp").expect("known scenario");
    let dataset = Dataset::materialize(scenario, &params, SEED).expect("generated logs parse");
    let config = PipelineConfig::default();
    let mut mismatches = Vec::new();
    for (method, golden) in GOLDEN {
        let classifier = train_classifier(method, &dataset.benign, &dataset.mixed, &config, SEED);
        let fingerprint = fnv1a(save_classifier(&classifier).as_bytes());
        println!("{}: {fingerprint:#018x}", method.label());
        if fingerprint != golden {
            mismatches.push(format!("{}: {fingerprint:#018x} != {golden:#018x}", method.label()));
        }
    }
    assert!(mismatches.is_empty(), "saved models changed: {}", mismatches.join("; "));
}
