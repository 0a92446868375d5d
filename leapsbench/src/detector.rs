//! The standalone detector: the verdicts the daemon must reproduce, and
//! per-call timings of the crates a verdict passes through.

use leaps::core::pipeline::Classifier;
use leaps::core::stream::StreamDetector;
use leaps::serve::proto::encode_event;
use leaps::serve::Command;
use leaps::trace::partition::PartitionedEvent;
use std::hint::black_box;
use std::time::Instant;

/// One verdict of the standalone detector over a stream.
#[derive(Debug, Clone)]
pub struct Expected {
    /// `Verdict::to_line` of the verdict.
    pub line: String,
    /// Events of the stream covered once this verdict is out (index of
    /// its last event + 1).
    pub covered: usize,
}

/// Runs a fresh `StreamDetector` over `events` and records every verdict.
pub fn expected_verdicts(classifier: &Classifier, events: &[PartitionedEvent]) -> Vec<Expected> {
    let mut detector = StreamDetector::new(classifier.clone());
    events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| {
            let v = detector.push(e.clone())?;
            Some(Expected { line: v.to_line(), covered: i + 1 })
        })
        .collect()
}

/// Number of verdicts due once the first `sent` events of a stream are
/// in (`expected` is ordered by `covered`).
pub fn expected_upto(expected: &[Expected], sent: usize) -> usize {
    expected.partition_point(|e| e.covered <= sent)
}

/// Single-thread cost of each layer call, per event or per verdict, in
/// microseconds. A layer the classifier never calls reads zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// `FeatureEncoder::encode` (SVM) or `tuple` (HMM), per event.
    pub encode_us: f64,
    /// `SvmModel::decision`, per verdict.
    pub decision_us: f64,
    /// `HmmClassifier::score` on the window's symbols, per verdict.
    pub hmm_score_us: f64,
    /// `HmmDetector::score_events` (re-encode + score), per verdict.
    pub hmm_window_us: f64,
    /// `CallGraphClassifier::classify`, per event.
    pub classify_us: f64,
    /// `StreamDetector::push`, per event.
    pub push_us: f64,
    /// `encode_event` + `Command::parse_line`, per event.
    pub wire_us: f64,
}

fn per_call_us(start: Instant, calls: usize) -> f64 {
    start.elapsed().as_secs_f64() * 1e6 / calls.max(1) as f64
}

/// Times each layer the classifier uses over `events`.
pub fn layer_times(classifier: &Classifier, events: &[PartitionedEvent]) -> LayerTimes {
    let mut t = LayerTimes::default();
    let owned: Vec<PartitionedEvent> = events.to_vec();
    let mut detector = StreamDetector::new(classifier.clone());
    let start = Instant::now();
    for e in owned {
        black_box(detector.push(e));
    }
    t.push_us = per_call_us(start, events.len());

    let start = Instant::now();
    for e in events {
        let line = format!("EVENT pid=1 {}", encode_event(e));
        black_box(Command::parse_line(&line).is_ok());
    }
    t.wire_us = per_call_us(start, events.len());

    match classifier {
        Classifier::CGraph(model) => {
            let start = Instant::now();
            for e in events {
                black_box(model.classify(e));
            }
            t.classify_us = per_call_us(start, events.len());
        }
        Classifier::Svm(svm) => {
            let start = Instant::now();
            let triples: Vec<[f64; 3]> = events.iter().map(|e| svm.encoder.encode(e)).collect();
            t.encode_us = per_call_us(start, events.len());
            let cfg = svm.encoder.config();
            let points: Vec<Vec<f64>> = windows(triples.len(), cfg.window, cfg.stride)
                .map(|w| triples[w].iter().flatten().copied().collect())
                .collect();
            let start = Instant::now();
            for p in &points {
                black_box(svm.model.decision(p));
            }
            t.decision_us = per_call_us(start, points.len());
        }
        Classifier::Hmm(hmm) => {
            let (clf, encoder, table) = hmm.parts();
            let start = Instant::now();
            let tuples: Vec<(u32, u32, u32)> = events.iter().map(|e| encoder.tuple(e)).collect();
            t.encode_us = per_call_us(start, events.len());
            let symbols: Vec<usize> = tuples.iter().map(|tuple| table.lookup(tuple)).collect();
            let cfg = hmm.encoder_config();
            let spans: Vec<_> = windows(events.len(), cfg.window, cfg.stride).collect();
            let start = Instant::now();
            for w in &spans {
                black_box(clf.score(&symbols[w.clone()]));
            }
            t.hmm_score_us = per_call_us(start, spans.len());
            let start = Instant::now();
            for w in &spans {
                black_box(hmm.score_events(&events[w.clone()]));
            }
            t.hmm_window_us = per_call_us(start, spans.len());
        }
    }
    t
}

/// Index ranges of the windows a stream detector scores.
fn windows(
    len: usize,
    window: usize,
    stride: usize,
) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..len.saturating_sub(window) + usize::from(len >= window))
        .step_by(stride.max(1))
        .map(move |start| start..start + window)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp(covered: usize) -> Expected {
        Expected { line: String::new(), covered }
    }

    #[test]
    fn verdicts_due_after_a_prefix() {
        let expected = [exp(10), exp(12), exp(14)];
        assert_eq!(expected_upto(&expected, 9), 0);
        assert_eq!(expected_upto(&expected, 10), 1);
        assert_eq!(expected_upto(&expected, 13), 2);
        assert_eq!(expected_upto(&expected, 100), 3);
    }

    #[test]
    fn windows_match_the_detector_cadence() {
        let w: Vec<_> = windows(15, 10, 2).collect();
        assert_eq!(w, vec![0..10, 2..12, 4..14]);
        assert_eq!(windows(9, 10, 2).count(), 0);
        assert_eq!(windows(10, 10, 2).count(), 1);
    }
}
