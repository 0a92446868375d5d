//! One encode path, bit for bit:
//!
//! * the interned cluster assignment behind `FeatureEncoder::tuple`
//!   returns the generic string scan's labels on paper-scale events;
//! * a `StreamDetector`, which encodes each event once into its ring,
//!   scores every window exactly as the batch encoders do — across gaps,
//!   duplicates and `resync`.

use leaps::cluster::features::{FeatureEncoder, PreprocessConfig};
use leaps::core::config::PipelineConfig;
use leaps::core::pipeline::{train_classifier, Classifier, Method};
use leaps::core::stream::StreamDetector;
use leaps::core::Dataset;
use leaps::etw::scenario::{GenParams, Scenario};
use leaps::trace::partition::PartitionedEvent;

/// The reference tuple: build the Lib and Func sets as strings and scan
/// every vocabulary member (`ClusterAssigner::assign`).
fn oracle_tuple(encoder: &FeatureEncoder, event: &PartitionedEvent) -> (u32, u32, u32) {
    let (lib, func) = encoder.parts();
    let libs: Vec<String> = event.lib_set().into_iter().map(str::to_owned).collect();
    (event.etype.as_u32(), lib.assign(&libs), func.assign(&event.func_set()))
}

#[test]
fn interned_tuples_match_the_string_scan_on_paper_scale_events() {
    for name in ["vim_reverse_tcp", "putty_reverse_https", "chrome_reverse_https"] {
        let scenario = Scenario::by_name(name).unwrap();
        let train = Dataset::materialize(scenario, &GenParams::paper(), 3).unwrap();
        let held_out = Dataset::materialize(scenario, &GenParams::paper(), 4).unwrap();
        let mut fit: Vec<&PartitionedEvent> = train.benign.iter().collect();
        fit.extend(&train.mixed);
        let encoder = FeatureEncoder::fit(&fit, PreprocessConfig::default());
        let mut events = 0;
        for event in held_out.mixed.iter().chain(&held_out.malicious) {
            assert_eq!(
                encoder.tuple(event),
                oracle_tuple(&encoder, event),
                "{name} #{}",
                event.num
            );
            events += 1;
        }
        assert!(events > 5000, "{name}: only {events} events");
    }
}

/// Scores of every window `[s, s + window)`, `s = 0, stride, …`, as the
/// batch paths compute them.
fn batch_scores(classifier: &Classifier, events: &[PartitionedEvent]) -> Vec<u64> {
    match classifier {
        Classifier::Svm(svm) => {
            let refs: Vec<&PartitionedEvent> = events.iter().collect();
            let (points, _) = svm.encoder.encode_sequence(&refs);
            points.iter().map(|p| svm.model.decision(p).to_bits()).collect()
        }
        Classifier::Hmm(hmm) => {
            let cfg = hmm.encoder_config();
            (0..events.len().saturating_sub(cfg.window - 1))
                .step_by(cfg.stride)
                .map(|s| hmm.score_events(&events[s..s + cfg.window]).to_bits())
                .collect()
        }
        Classifier::CGraph(_) => unreachable!("windowed methods only"),
    }
}

fn stream_scores(detector: &mut StreamDetector, events: &[PartitionedEvent]) -> Vec<u64> {
    detector.push_all(events.iter().cloned()).iter().map(|v| v.score.unwrap().to_bits()).collect()
}

/// Renumbers `events` from `first`, skipping every number in `gaps`.
fn numbered(events: &[PartitionedEvent], first: u64, gaps: &[u64]) -> Vec<PartitionedEvent> {
    let mut num = first;
    events
        .iter()
        .map(|e| {
            while gaps.contains(&num) {
                num += 1;
            }
            let mut e = e.clone();
            e.num = num;
            num += 1;
            e
        })
        .collect()
}

fn assert_stream_matches_batch(method: Method) {
    let d =
        Dataset::materialize(Scenario::by_name("vim_reverse_tcp").unwrap(), &GenParams::small(), 9)
            .unwrap();
    let (train, test) = d.split_benign(0.5, 9);
    let classifier = train_classifier(method, &train, &d.mixed, &PipelineConfig::fast(), 9);
    let mut detector = StreamDetector::new(classifier.clone());

    // Clean stream.
    let clean = numbered(&test[..200], 0, &[]);
    assert_eq!(stream_scores(&mut detector, &clean), batch_scores(&classifier, &clean));

    // Gaps and immediate duplicates: gaps only mark verdicts degraded and
    // duplicates are dropped, so the scored windows are those of the
    // accepted events.
    let gapped = numbered(&d.malicious[..150], 1000, &[1010, 1011, 1077]);
    let mut with_dups = Vec::new();
    for (i, e) in gapped.iter().enumerate() {
        with_dups.push(e.clone());
        if i % 7 == 3 {
            with_dups.push(e.clone());
        }
    }
    let mut fresh = StreamDetector::new(classifier.clone());
    let verdicts = fresh.push_all(with_dups);
    assert!(verdicts.iter().any(|v| v.degraded), "gaps must mark verdicts degraded");
    let scores: Vec<u64> = verdicts.iter().map(|v| v.score.unwrap().to_bits()).collect();
    assert_eq!(scores, batch_scores(&classifier, &gapped));

    // Resync drops the ring: the next windows are those of the new segment.
    detector.resync();
    let after = numbered(&d.mixed[..120], 5000, &[]);
    assert_eq!(stream_scores(&mut detector, &after), batch_scores(&classifier, &after));
}

#[test]
fn svm_stream_verdicts_are_the_batch_decisions_bit_for_bit() {
    assert_stream_matches_batch(Method::Wsvm);
}

#[test]
fn hmm_stream_verdicts_are_the_batch_scores_bit_for_bit() {
    assert_stream_matches_batch(Method::Hmm);
}

/// The blocked `SvmModel::decision` returns the bits of the per-SV
/// `Kernel::eval` sum (Eq. 5 in SV order) on real encoded windows of
/// held-out data.
#[test]
fn blocked_svm_decision_is_the_per_sv_kernel_sum_on_held_out_windows() {
    for name in ["vim_reverse_tcp", "putty_reverse_https", "chrome_reverse_https"] {
        let scenario = Scenario::by_name(name).unwrap();
        let d = Dataset::materialize(scenario, &GenParams::small(), 5).unwrap();
        let classifier =
            train_classifier(Method::Wsvm, &d.benign, &d.mixed, &PipelineConfig::fast(), 5);
        let Classifier::Svm(svm) = &classifier else { unreachable!("WSVM trains an SVM") };
        let held_out = Dataset::materialize(scenario, &GenParams::small(), 6).unwrap();
        let refs: Vec<&PartitionedEvent> =
            held_out.mixed.iter().chain(&held_out.malicious).collect();
        let (points, _) = svm.encoder.encode_sequence(&refs);
        assert!(points.len() > 100, "{name}: only {} windows", points.len());
        let support: Vec<(f64, Vec<f64>)> = svm.model.dual_coefficients().collect();
        for (i, x) in points.iter().enumerate() {
            let mut want = svm.model.bias();
            for (alpha_y, sv) in &support {
                want += alpha_y * svm.model.kernel().eval(sv, x);
            }
            assert_eq!(svm.model.decision(x).to_bits(), want.to_bits(), "{name} window {i}");
        }
    }
}
