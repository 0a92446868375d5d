//! Online detection: feed events one at a time, get verdicts as windows
//! complete — how a trained LEAPS classifier is actually deployed against
//! a production event stream (the paper's Testing Phase, incrementalized).

use crate::pipeline::Classifier;
use leaps_cgraph::classify::Decision;
pub use leaps_cluster::features::EncodeScratch;
use leaps_etw::event::EventType;
use leaps_trace::partition::PartitionedEvent;
use std::collections::VecDeque;
use std::sync::Arc;

/// A verdict emitted by the detector.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Sequence number of the newest event covered by this verdict.
    pub last_event: u64,
    /// `true` if the window/event looks benign.
    pub benign: bool,
    /// Method-specific confidence: the SVM decision value or the HMM
    /// log-likelihood ratio (positive = benign); `None` for the
    /// call-graph model, which is purely symbolic.
    pub score: Option<f64>,
    /// `true` when the window behind this verdict is **incomplete**: its
    /// event sequence numbers are not contiguous (events were dropped,
    /// reordered or arrived out of sequence inside the window).
    /// Deployments can treat `benign && degraded` as "benign, but judged
    /// on damaged telemetry" rather than a clean bill of health.
    pub degraded: bool,
}

impl Verdict {
    /// Encodes the verdict as one whitespace-free-value line, the body of
    /// the wire protocol's `VERDICT` reply:
    ///
    /// ```text
    /// num=42 benign=1 score=0.53 degraded=0
    /// ```
    ///
    /// The score is written with Rust's `{:?}` (shortest round-trip
    /// float), or `-` when absent, so [`Verdict::parse_line`] restores
    /// the verdict bit for bit.
    #[must_use]
    pub fn to_line(&self) -> String {
        let score = match self.score {
            Some(s) => format!("{s:?}"),
            None => "-".to_owned(),
        };
        format!(
            "num={} benign={} score={score} degraded={}",
            self.last_event,
            u8::from(self.benign),
            u8::from(self.degraded)
        )
    }

    /// Parses a line produced by [`Verdict::to_line`].
    ///
    /// Returns `None` on any missing field, unknown key, or malformed
    /// value — wire damage must never turn into a wrong verdict.
    #[must_use]
    pub fn parse_line(line: &str) -> Option<Verdict> {
        let mut num = None;
        let mut benign = None;
        let mut score: Option<Option<f64>> = None;
        let mut degraded = None;
        for token in line.split_ascii_whitespace() {
            let (key, value) = token.split_once('=')?;
            match key {
                "num" => num = Some(value.parse().ok()?),
                "benign" => benign = Some(parse_wire_bool(value)?),
                "score" => {
                    score = Some(if value == "-" { None } else { Some(value.parse().ok()?) });
                }
                "degraded" => degraded = Some(parse_wire_bool(value)?),
                _ => return None,
            }
        }
        Some(Verdict { last_event: num?, benign: benign?, score: score?, degraded: degraded? })
    }
}

fn parse_wire_bool(value: &str) -> Option<bool> {
    match value {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

/// Telemetry-quality counters accumulated by a [`StreamDetector`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Events accepted into the detector.
    pub accepted: usize,
    /// Events discarded as immediate duplicates of the previous record.
    pub duplicates: usize,
    /// Forward sequence gaps observed (`num` jumped past `last + 1`).
    pub gaps: usize,
    /// Total sequence numbers missing inside those gaps.
    pub missing: u64,
    /// Events that arrived behind the highest sequence number seen.
    pub reordered: usize,
    /// Verdicts emitted with the `degraded` flag set.
    pub degraded_verdicts: usize,
}

/// One event as a classifier reads it at detection, encoded once when it
/// arrives. Every classifier reads only an event's type and its system
/// stack; the application stack feeds CFG inference at training only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Encoded {
    /// The normalized feature triple (SVM family).
    Triple([f64; 3]),
    /// The observation symbol (HMM).
    Symbol(usize),
    /// The per-event decision (call-graph model).
    Decision(Decision),
}

impl Classifier {
    /// Encodes one event for a [`StreamDetector`] over this classifier:
    /// [`Classifier::encode_frames`] over its system stack's names.
    pub fn encode(&self, scratch: &mut EncodeScratch, event: &PartitionedEvent) -> Encoded {
        self.encode_frames(scratch, event.etype, event.sys_names())
    }

    /// The one encode routine of every classifier: the item of an event
    /// of type `etype` whose system stack holds `frames`, each given as
    /// its module name and its `module!function` symbol, borrowed from
    /// wherever the caller holds them (an owned event's frames, or slices
    /// of the daemon's protocol line).
    pub fn encode_frames<'a>(
        &self,
        scratch: &mut EncodeScratch,
        etype: EventType,
        frames: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Encoded {
        match self {
            Classifier::CGraph(model) => {
                let chain: Vec<String> =
                    frames.into_iter().map(|(_, symbol)| symbol.to_owned()).collect();
                Encoded::Decision(model.classify_chain(&chain))
            }
            Classifier::Svm(svm) => {
                Encoded::Triple(svm.encoder.normalize(svm.encoder.tuple_of(scratch, etype, frames)))
            }
            Classifier::Hmm(hmm) => {
                Encoded::Symbol(hmm.symbol_of(hmm.encoder().tuple_of(scratch, etype, frames)))
            }
        }
    }
}

/// An incremental detector wrapping a trained [`Classifier`].
///
/// * SVM-family and HMM classifiers encode each event once on arrival
///   and emit one verdict per completed window (size/stride from the
///   classifier's feature encoder configuration);
/// * the call-graph model emits one verdict per event (undecidable events
///   are reported as *not benign* — a deployment treats them as alerts).
///
/// The classifier is shared, not copied: detectors built from one
/// `Arc<Classifier>` (e.g. every daemon session on one model) hold the
/// same trained model.
///
/// # Degraded telemetry
///
/// The detector does not trust sequence continuity. Immediate duplicates
/// are discarded; gaps and reordered arrivals are counted in
/// [`StreamStats`] and every verdict whose window spans a discontinuity
/// carries [`Verdict::degraded`]. The window **resynchronizes by
/// sliding**: once `window` contiguous post-gap events have arrived, the
/// flag clears on its own. After a known outage, [`StreamDetector::resync`]
/// hard-resets the window instead.
#[derive(Debug, Clone)]
pub struct StreamDetector {
    classifier: Arc<Classifier>,
    /// Rolling window, oldest first: each event's sequence number (for
    /// gap detection) and its encoding.
    ring: VecDeque<(u64, Encoded)>,
    /// Reused per verdict: the window's coalesced SVM point.
    point: Vec<f64>,
    /// Reused per verdict: the window's HMM symbols.
    symbols: Vec<usize>,
    /// Reused per event by [`StreamDetector::push`].
    scratch: EncodeScratch,
    /// Highest sequence number accepted so far (gap/reorder detection).
    last_num: Option<u64>,
    /// Sequence number of the most recently accepted event (duplicate
    /// detection — a duplicate is an immediate re-send, so it must be
    /// compared against its neighbour, not the stream maximum).
    prev_num: Option<u64>,
    stats: StreamStats,
    window: usize,
    stride: usize,
    filled_once: bool,
    since_last: usize,
}

impl StreamDetector {
    /// Wraps a trained classifier, owned or shared.
    #[must_use]
    pub fn new(classifier: impl Into<Arc<Classifier>>) -> StreamDetector {
        let classifier = classifier.into();
        let (window, stride) = match &*classifier {
            Classifier::CGraph(_) => (1, 1),
            Classifier::Svm(svm) => {
                let cfg = svm.encoder.config();
                (cfg.window, cfg.stride)
            }
            Classifier::Hmm(hmm) => {
                let cfg = hmm.encoder_config();
                (cfg.window, cfg.stride)
            }
        };
        StreamDetector {
            classifier,
            ring: VecDeque::new(),
            point: Vec::new(),
            symbols: Vec::new(),
            scratch: EncodeScratch::default(),
            last_num: None,
            prev_num: None,
            stats: StreamStats::default(),
            window,
            stride,
            filled_once: false,
            since_last: 0,
        }
    }

    /// The window size in events.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Telemetry-quality counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Hard-resets the rolling window after a known telemetry outage.
    ///
    /// The buffered events are discarded and the next verdict waits for a
    /// full fresh window. Cumulative [`StreamStats`] and the last seen
    /// sequence number are kept, so duplicates of pre-outage events are
    /// still recognized.
    pub fn resync(&mut self) {
        self.ring.clear();
        self.filled_once = false;
        self.since_last = 0;
    }

    /// Feeds one event; returns a verdict when a window completes.
    ///
    /// Immediate duplicates (same sequence number as the newest accepted
    /// event) are dropped and counted; gaps and out-of-order arrivals are
    /// counted and mark the verdicts whose window spans them as
    /// [`Verdict::degraded`].
    pub fn push(&mut self, event: PartitionedEvent) -> Option<Verdict> {
        let encoded = self.classifier.encode(&mut self.scratch, &event);
        self.push_encoded(event.num, encoded)
    }

    /// [`StreamDetector::push`] of event `num`, already encoded by this
    /// detector's classifier ([`Classifier::encode`] or
    /// [`Classifier::encode_frames`]).
    ///
    /// # Panics
    ///
    /// Panics if `encoded` is not the kind of item this detector's
    /// classifier encodes.
    pub fn push_encoded(&mut self, num: u64, encoded: Encoded) -> Option<Verdict> {
        let decision = match (&*self.classifier, encoded) {
            (Classifier::CGraph(_), Encoded::Decision(decision)) => Some(decision),
            (Classifier::Svm(_), Encoded::Triple(_)) | (Classifier::Hmm(_), Encoded::Symbol(_)) => {
                None
            }
            _ => panic!("encoded item does not match the detector's classifier"),
        };
        if self.prev_num == Some(num) {
            self.stats.duplicates += 1;
            return None;
        }
        match self.last_num {
            Some(last) if num < last => {
                self.stats.reordered += 1;
            }
            Some(last) => {
                if num > last + 1 {
                    self.stats.gaps += 1;
                    self.stats.missing += num - last - 1;
                }
                self.last_num = Some(num);
            }
            None => self.last_num = Some(num),
        }
        self.prev_num = Some(num);
        self.stats.accepted += 1;
        if let Some(decision) = decision {
            return Some(Verdict {
                last_event: num,
                benign: decision == Decision::Benign,
                score: None,
                degraded: false,
            });
        }
        if self.ring.len() == self.window {
            self.ring.pop_front();
        }
        self.ring.push_back((num, encoded));
        if self.ring.len() < self.window {
            return None;
        }
        if self.filled_once {
            self.since_last += 1;
            if self.since_last < self.stride {
                return None;
            }
        }
        self.filled_once = true;
        self.since_last = 0;

        let degraded = self.ring.iter().zip(self.ring.iter().skip(1)).any(|(a, b)| b.0 != a.0 + 1);
        if degraded {
            self.stats.degraded_verdicts += 1;
        }
        let value = match &*self.classifier {
            Classifier::Svm(svm) => {
                self.point.clear();
                for (_, encoded) in &self.ring {
                    if let Encoded::Triple(triple) = encoded {
                        self.point.extend_from_slice(triple);
                    }
                }
                svm.model.decision(&self.point)
            }
            Classifier::Hmm(hmm) => {
                self.symbols.clear();
                for (_, encoded) in &self.ring {
                    if let Encoded::Symbol(symbol) = encoded {
                        self.symbols.push(*symbol);
                    }
                }
                hmm.score_symbols(&self.symbols)
            }
            Classifier::CGraph(_) => unreachable!("handled above"),
        };
        Some(Verdict { last_event: num, benign: value >= 0.0, score: Some(value), degraded })
    }

    /// Feeds many events, collecting every verdict.
    pub fn push_all(&mut self, events: impl IntoIterator<Item = PartitionedEvent>) -> Vec<Verdict> {
        events.into_iter().filter_map(|event| self.push(event)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::dataset::Dataset;
    use crate::pipeline::{train_classifier, Method};
    use leaps_etw::scenario::{GenParams, Scenario};

    fn dataset() -> Dataset {
        Dataset::materialize(Scenario::by_name("vim_reverse_tcp").unwrap(), &GenParams::small(), 5)
            .unwrap()
    }

    #[test]
    fn svm_stream_emits_one_verdict_per_stride() {
        let d = dataset();
        let (train, test) = d.split_benign(0.5, 5);
        let clf = train_classifier(Method::Wsvm, &train, &d.mixed, &PipelineConfig::fast(), 5);
        let mut detector = StreamDetector::new(clf);
        let window = detector.window();
        let stride = leaps_cluster::features::PreprocessConfig::default().stride;
        let n = 100;
        let verdicts = detector.push_all(test.iter().take(n).cloned());
        let expected = (n - window) / stride + 1;
        assert_eq!(verdicts.len(), expected);
        assert!(verdicts.iter().all(|v| v.score.is_some()));
    }

    #[test]
    fn stream_verdicts_match_batch_evaluation_direction() {
        let d = dataset();
        let (train, test) = d.split_benign(0.5, 5);
        let clf = train_classifier(Method::Wsvm, &train, &d.mixed, &PipelineConfig::fast(), 5);
        let mut detector = StreamDetector::new(clf);
        let benign_verdicts = detector.push_all(test.iter().cloned());
        let benign_rate = benign_verdicts.iter().filter(|v| v.benign).count() as f64
            / benign_verdicts.len() as f64;

        let clf2 = train_classifier(Method::Wsvm, &train, &d.mixed, &PipelineConfig::fast(), 5);
        let mut detector2 = StreamDetector::new(clf2);
        let mal_verdicts = detector2.push_all(d.malicious.iter().cloned());
        let mal_benign_rate =
            mal_verdicts.iter().filter(|v| v.benign).count() as f64 / mal_verdicts.len() as f64;
        assert!(
            benign_rate > mal_benign_rate,
            "benign stream {benign_rate} should look more benign than payload {mal_benign_rate}"
        );
    }

    #[test]
    fn cgraph_stream_is_per_event() {
        let d = dataset();
        let (train, test) = d.split_benign(0.5, 5);
        let clf = train_classifier(Method::CGraph, &train, &d.mixed, &PipelineConfig::fast(), 5);
        let mut detector = StreamDetector::new(clf);
        let verdicts = detector.push_all(test.iter().take(50).cloned());
        assert_eq!(verdicts.len(), 50);
        assert!(verdicts.iter().all(|v| v.score.is_none()));
        assert_eq!(verdicts[0].last_event, test[0].num);
    }

    #[test]
    fn hmm_stream_works() {
        let d = dataset();
        let (train, test) = d.split_benign(0.5, 5);
        let clf = train_classifier(Method::Hmm, &train, &d.mixed, &PipelineConfig::fast(), 5);
        let mut detector = StreamDetector::new(clf);
        let verdicts = detector.push_all(test.iter().take(60).cloned());
        assert!(!verdicts.is_empty());
        assert!(verdicts.iter().all(|v| v.score.is_some()));
    }

    #[test]
    fn gap_marks_verdicts_degraded_until_window_slides_past() {
        let d = dataset();
        let (train, _) = d.split_benign(0.5, 5);
        let clf = train_classifier(Method::Wsvm, &train, &d.mixed, &PipelineConfig::fast(), 5);
        let mut detector = StreamDetector::new(clf);
        let window = detector.window();
        // Contiguous events (renumbered), with one dropped in the middle.
        let mut events: Vec<PartitionedEvent> = d.benign.iter().take(4 * window).cloned().collect();
        for (i, e) in events.iter_mut().enumerate() {
            e.num = i as u64;
        }
        let cut = 2 * window;
        events.remove(cut);
        let verdicts = detector.push_all(events);
        assert!(verdicts.iter().any(|v| v.degraded), "gap never flagged");
        assert!(!verdicts.first().unwrap().degraded, "pre-gap window clean");
        assert!(
            !verdicts.last().unwrap().degraded,
            "window should resynchronize once it slides past the gap"
        );
        let stats = detector.stats();
        assert_eq!(stats.gaps, 1);
        assert_eq!(stats.missing, 1);
        assert!(stats.degraded_verdicts > 0);
    }

    #[test]
    fn duplicates_are_dropped_and_counted() {
        let d = dataset();
        let (train, _) = d.split_benign(0.5, 5);
        let clf = train_classifier(Method::Wsvm, &train, &d.mixed, &PipelineConfig::fast(), 5);
        let mut detector = StreamDetector::new(clf);
        let window = detector.window();
        let mut events: Vec<PartitionedEvent> = Vec::new();
        for (i, e) in d.benign.iter().take(window).cloned().enumerate() {
            let mut e = e;
            e.num = i as u64;
            events.push(e.clone());
            events.push(e); // immediate duplicate of every record
        }
        let verdicts = detector.push_all(events);
        let stats = detector.stats();
        assert_eq!(stats.duplicates, window);
        assert_eq!(stats.accepted, window);
        assert_eq!(verdicts.len(), 1, "duplicates must not advance the window");
        assert!(!verdicts[0].degraded, "deduplicated stream is contiguous");
    }

    #[test]
    fn reordered_arrivals_are_counted_and_flagged() {
        let d = dataset();
        let (train, _) = d.split_benign(0.5, 5);
        let clf = train_classifier(Method::Wsvm, &train, &d.mixed, &PipelineConfig::fast(), 5);
        let mut detector = StreamDetector::new(clf);
        let window = detector.window();
        let mut events: Vec<PartitionedEvent> = d.benign.iter().take(window).cloned().collect();
        for (i, e) in events.iter_mut().enumerate() {
            e.num = i as u64;
        }
        events.swap(window / 2, window / 2 + 1);
        let verdicts = detector.push_all(events);
        assert_eq!(detector.stats().reordered, 1);
        assert!(verdicts[0].degraded, "swapped pair breaks contiguity");
    }

    #[test]
    fn resync_clears_window_but_keeps_stats() {
        let d = dataset();
        let (train, test) = d.split_benign(0.5, 5);
        let clf = train_classifier(Method::Wsvm, &train, &d.mixed, &PipelineConfig::fast(), 5);
        let mut detector = StreamDetector::new(clf);
        let window = detector.window();
        let verdicts = detector.push_all(test.iter().take(window).cloned());
        assert!(!verdicts.is_empty());
        let accepted_before = detector.stats().accepted;
        detector.resync();
        // After resync a fresh full window is required before any verdict.
        for e in test.iter().skip(window).take(window - 1) {
            assert_eq!(detector.push(e.clone()), None);
        }
        assert!(detector.push(test[2 * window - 1].clone()).is_some());
        assert!(detector.stats().accepted > accepted_before, "stats survive resync");
    }

    #[test]
    fn cgraph_verdicts_are_never_degraded() {
        let d = dataset();
        let (train, test) = d.split_benign(0.5, 5);
        let clf = train_classifier(Method::CGraph, &train, &d.mixed, &PipelineConfig::fast(), 5);
        let mut detector = StreamDetector::new(clf);
        let mut events: Vec<PartitionedEvent> = test.iter().take(20).cloned().collect();
        for (i, e) in events.iter_mut().enumerate() {
            e.num = (i * 3) as u64; // gaps everywhere
        }
        let verdicts = detector.push_all(events);
        assert_eq!(verdicts.len(), 20);
        assert!(verdicts.iter().all(|v| !v.degraded));
        assert!(detector.stats().gaps > 0);
    }

    #[test]
    fn verdict_line_round_trips_exactly() {
        let verdicts = [
            Verdict { last_event: 42, benign: true, score: Some(0.53), degraded: false },
            Verdict {
                last_event: u64::MAX,
                benign: false,
                score: Some(-1.234_567_890_123_456_7e-300),
                degraded: true,
            },
            Verdict { last_event: 0, benign: false, score: None, degraded: false },
            Verdict { last_event: 7, benign: true, score: Some(f64::INFINITY), degraded: true },
        ];
        for v in &verdicts {
            let line = v.to_line();
            assert!(!line.contains('\n'));
            assert_eq!(Verdict::parse_line(&line).as_ref(), Some(v), "round-trip of {line:?}");
        }
    }

    #[test]
    fn verdict_parse_rejects_damage() {
        let good = Verdict { last_event: 9, benign: true, score: Some(1.5), degraded: false };
        let line = good.to_line();
        assert!(Verdict::parse_line("").is_none(), "all fields required");
        assert!(Verdict::parse_line("num=9 benign=1 score=1.5").is_none(), "missing field");
        assert!(Verdict::parse_line(&format!("{line} extra=1")).is_none(), "unknown key");
        assert!(Verdict::parse_line(&line.replace("benign=1", "benign=yes")).is_none());
        assert!(Verdict::parse_line(&line.replace("num=9", "num=nine")).is_none());
        assert!(Verdict::parse_line(&line.replace("score=1.5", "score=")).is_none());
    }

    #[test]
    fn push_is_encode_then_push_encoded_for_every_classifier() {
        let d = dataset();
        let (train, test) = d.split_benign(0.5, 5);
        let stream: Vec<PartitionedEvent> = test.iter().chain(&d.malicious).cloned().collect();
        for method in [Method::Wsvm, Method::Hmm, Method::CGraph] {
            let clf =
                Arc::new(train_classifier(method, &train, &d.mixed, &PipelineConfig::fast(), 5));
            let mut pushed = StreamDetector::new(Arc::clone(&clf));
            let mut encoded = StreamDetector::new(Arc::clone(&clf));
            let mut scratch = EncodeScratch::default();
            let expected = pushed.push_all(stream.iter().cloned());
            let got: Vec<Verdict> = stream
                .iter()
                .filter_map(|e| encoded.push_encoded(e.num, clf.encode(&mut scratch, e)))
                .collect();
            assert_eq!(got, expected, "{method:?}");
            assert_eq!(encoded.stats(), pushed.stats(), "{method:?}");
        }
    }

    #[test]
    #[should_panic(expected = "does not match the detector's classifier")]
    fn an_item_of_another_classifier_kind_is_refused() {
        let d = dataset();
        let (train, _) = d.split_benign(0.5, 5);
        let clf = train_classifier(Method::Wsvm, &train, &d.mixed, &PipelineConfig::fast(), 5);
        let _ = StreamDetector::new(clf).push_encoded(0, Encoded::Symbol(1));
    }

    #[test]
    fn no_verdict_before_first_window_fills() {
        let d = dataset();
        let (train, test) = d.split_benign(0.5, 5);
        let clf = train_classifier(Method::Wsvm, &train, &d.mixed, &PipelineConfig::fast(), 5);
        let window = StreamDetector::new(clf.clone()).window();
        let mut detector = StreamDetector::new(clf);
        for e in test.iter().take(window - 1) {
            assert_eq!(detector.push(e.clone()), None);
        }
        assert!(detector.push(test[window - 1].clone()).is_some());
    }
}
