//! End-to-end integration: raw log text → parser → partition → CFG →
//! clustering → weighted SVM → metrics, across crate boundaries.

use leaps::core::config::PipelineConfig;
use leaps::core::dataset::Dataset;
use leaps::core::pipeline::{train_classifier, Classifier, Method};
use leaps::etw::scenario::{GenParams, Scenario};
use leaps::trace::parser::parse_log;

fn fast_config() -> PipelineConfig {
    PipelineConfig::fast()
}

#[test]
fn every_table1_scenario_materializes_through_the_full_front_end() {
    for scenario in Scenario::table1() {
        let dataset = Dataset::materialize(scenario, &GenParams::small(), 5)
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name()));
        assert!(!dataset.benign.is_empty(), "{}", scenario.name());
        assert!(!dataset.mixed.is_empty());
        assert!(!dataset.malicious.is_empty());
        // Every event survived partitioning with both stack sides.
        for e in dataset.benign.iter().take(20) {
            assert!(!e.app_stack.is_empty());
            assert!(!e.system_stack.is_empty());
        }
    }
}

#[test]
fn wsvm_end_to_end_detects_an_offline_trojan() {
    let dataset =
        Dataset::materialize(Scenario::by_name("vim_reverse_tcp").unwrap(), &GenParams::small(), 9)
            .unwrap();
    let (train, test) = dataset.split_benign(0.5, 9);
    let classifier = train_classifier(Method::Wsvm, &train, &dataset.mixed, &fast_config(), 9);
    let metrics = classifier.evaluate(&test, &dataset.malicious).metrics();
    assert!(metrics.acc > 0.6, "{metrics}");
    assert!(metrics.tnr > 0.5, "{metrics}");
}

#[test]
fn wsvm_end_to_end_detects_an_online_injection() {
    let dataset = Dataset::materialize(
        Scenario::by_name("winscp_reverse_https_online").unwrap(),
        &GenParams::small(),
        9,
    )
    .unwrap();
    let (train, test) = dataset.split_benign(0.5, 9);
    let classifier = train_classifier(Method::Wsvm, &train, &dataset.mixed, &fast_config(), 9);
    let metrics = classifier.evaluate(&test, &dataset.malicious).metrics();
    assert!(metrics.acc > 0.6, "{metrics}");
}

#[test]
fn all_three_methods_produce_complete_confusion_matrices() {
    let dataset = Dataset::materialize(
        Scenario::by_name("putty_codeinject").unwrap(),
        &GenParams::small(),
        3,
    )
    .unwrap();
    let (train, test) = dataset.split_benign(0.5, 3);
    for method in Method::EXTENDED {
        let classifier = train_classifier(method, &train, &dataset.mixed, &fast_config(), 3);
        let cm = classifier.evaluate(&test, &dataset.malicious);
        match classifier {
            Classifier::CGraph(_) => {
                assert_eq!(cm.total(), test.len() + dataset.malicious.len());
            }
            Classifier::Svm(_) | Classifier::Hmm(_) => {
                // SVM-family and HMM methods score per coalesced window.
                assert!(cm.total() > 0);
                assert!(cm.total() < test.len() + dataset.malicious.len());
            }
        }
    }
}

#[test]
fn generated_raw_logs_reparse_identically() {
    // The writer and parser agree byte-for-byte on a roundtrip.
    let raw = Scenario::by_name("chrome_reverse_tcp").unwrap().generate(&GenParams::small(), 4);
    for log in [&raw.benign, &raw.mixed, &raw.malicious] {
        let parsed = parse_log(log).expect("parse");
        let rewritten = {
            // Rebuild SysEvents from parsed records to re-serialize.
            use leaps::etw::event::SysEvent;
            let events: Vec<SysEvent> = parsed
                .events
                .iter()
                .map(|e| SysEvent {
                    num: e.num,
                    etype: e.etype,
                    pid: e.pid,
                    tid: e.tid,
                    timestamp: e.timestamp,
                    frames: e.frames.clone(),
                    truth: e.truth.expect("generated logs carry provenance"),
                })
                .collect();
            leaps::etw::logfmt::write_log(&events)
        };
        assert_eq!(log, &rewritten);
    }
}

#[test]
fn classifier_generalizes_across_fresh_data_from_same_scenario() {
    // Train on one seed's dataset, test on a different seed's logs — the
    // application model is the same (seeded by scenario+app), but the
    // executions differ.
    let scenario = Scenario::by_name("vim_reverse_https").unwrap();
    let train_data = Dataset::materialize(scenario, &GenParams::small(), 11).unwrap();
    let (train, _) = train_data.split_benign(0.5, 11);
    let classifier = train_classifier(Method::Wsvm, &train, &train_data.mixed, &fast_config(), 11);

    // Note: a different master seed changes the program layout too, so we
    // reuse the same seed but evaluate on the held-out benign half plus
    // the full malicious log — data the classifier never trained on.
    let (_, test) = train_data.split_benign(0.5, 11);
    let metrics = classifier.evaluate(&test, &train_data.malicious).metrics();
    assert!(metrics.acc > 0.55, "{metrics}");
}

#[test]
fn system_wide_trace_slices_back_into_per_application_streams() {
    use leaps::etw::logfmt::write_log;
    use leaps::etw::scenario::generate_system_trace;
    use leaps::trace::slicing::slice_by_process;

    let scenarios = [
        Scenario::by_name("vim_reverse_tcp").unwrap(),
        Scenario::by_name("putty_reverse_https_online").unwrap(),
        Scenario::by_name("chrome_reverse_tcp").unwrap(),
    ];
    let trace = generate_system_trace(&scenarios, &GenParams::small(), 3);
    assert_eq!(trace.len(), 3 * GenParams::small().mixed_events);
    // Timestamps merged; numbering global and dense.
    assert!(trace.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
    assert!(trace.iter().enumerate().all(|(i, e)| e.num == i as u64 + 1));

    // Through the real front end: serialize, parse, slice per process.
    let parsed = parse_log(&write_log(&trace)).unwrap();
    let slices = slice_by_process(&parsed);
    assert_eq!(slices.keys().copied().collect::<Vec<_>>(), vec![0x1000, 0x1001, 0x1002]);
    for (pid, events) in &slices {
        assert_eq!(events.len(), GenParams::small().mixed_events, "pid {pid:#x}");
        // Order within each process preserved (timestamps ascending).
        assert!(events.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
    }
}

#[test]
fn classifier_saved_and_loaded_detects_identically() {
    use leaps::core::persist::{load_classifier, save_classifier};

    let dataset = Dataset::materialize(
        Scenario::by_name("putty_reverse_tcp").unwrap(),
        &GenParams::small(),
        13,
    )
    .unwrap();
    let (train, test) = dataset.split_benign(0.5, 13);
    for method in Method::EXTENDED {
        let original = train_classifier(method, &train, &dataset.mixed, &fast_config(), 13);
        let loaded = load_classifier(&save_classifier(&original)).expect("roundtrip");
        assert_eq!(
            original.evaluate(&test, &dataset.malicious),
            loaded.evaluate(&test, &dataset.malicious),
            "{method:?}"
        );
    }
}
