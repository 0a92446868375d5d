//! Feature extraction and discretization (paper Section III-A and V-A-2).
//!
//! Pipeline per event:
//!
//! 1. take the system stack trace's library set and function set;
//! 2. discretize each via the trained hierarchical clustering (cluster
//!    number replaces the set);
//! 3. emit the 3-tuple `{Event_Type, Lib, Func}` as a normalized `f64`
//!    triple;
//! 4. coalesce `window` consecutive events into one `3·window`-dimensional
//!    data point ("we increase the dimensions from 3 up to 30 by
//!    coalescing each 10 consecutive samples").

use crate::assign::{ClusterAssigner, IndexedAssigner, SetQuery};
use crate::dissim::{jaccard_dissimilarity, DistanceMatrix};
use crate::hier::{Dendrogram, Linkage};
use leaps_etw::event::EventType;
use leaps_trace::partition::PartitionedEvent;
use std::collections::BTreeMap;

/// How to cut the dendrogram into clusters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CutRule {
    /// Merge while linkage distance is at most this threshold.
    Distance(f64),
    /// Cut to exactly this many clusters (clamped to the vocabulary size).
    Count(usize),
}

/// Configuration of the preprocessing stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreprocessConfig {
    /// Linkage criterion (the paper uses UPGMA = average).
    pub linkage: Linkage,
    /// Dendrogram cut rule for both Lib and Func clusterings.
    pub cut: CutRule,
    /// Events per coalesced data point (paper: 10 → 30 dimensions).
    pub window: usize,
    /// Step between consecutive windows.
    pub stride: usize,
    /// Cap on the number of distinct sets clustered per vocabulary
    /// (most-frequent first). Rarer sets are discretized by
    /// nearest-cluster assignment, which keeps the O(n³) hierarchical
    /// clustering tractable on logs with highly variable stack chains.
    pub max_vocab: usize,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig {
            linkage: Linkage::Average,
            cut: CutRule::Distance(0.15),
            window: 10,
            stride: 2,
            max_vocab: 400,
        }
    }
}

/// Reusable work buffers for encoding events, one per encoding thread:
/// the Lib and Func queries of the event at hand and their assignment
/// buffers. Encoding through a scratch allocates nothing once its buffers
/// have grown to the encoder's vocabulary (names the vocabulary has never
/// seen excepted).
#[derive(Debug, Clone, Default)]
pub struct EncodeScratch {
    libs: SetQuery,
    funcs: SetQuery,
}

/// A trained feature encoder: cluster vocabularies for Lib and Func sets,
/// interned once when the encoder is fitted or reassembled.
#[derive(Debug, Clone)]
pub struct FeatureEncoder {
    lib_assigner: IndexedAssigner,
    func_assigner: IndexedAssigner,
    config: PreprocessConfig,
}

impl FeatureEncoder {
    /// Fits the encoder on training events: collects the unique Lib/Func
    /// sets, builds the Jaccard distance matrices (Eq. 1) and clusters
    /// them hierarchically.
    ///
    /// # Panics
    ///
    /// Panics if `events` is empty or `config.window`/`stride` is zero.
    #[must_use]
    pub fn fit(events: &[&PartitionedEvent], config: PreprocessConfig) -> FeatureEncoder {
        assert!(!events.is_empty(), "cannot fit encoder on an empty event set");
        assert!(config.window >= 1, "window must be >= 1");
        assert!(config.stride >= 1, "stride must be >= 1");

        assert!(config.max_vocab >= 2, "max_vocab must be >= 2");
        let lib_vocab = frequent_sets(events.iter().map(|e| e.lib_set()), config.max_vocab);
        let func_vocab = frequent_sets(events.iter().map(|e| e.func_set()), config.max_vocab);

        Self::from_parts(
            cluster_vocab(lib_vocab, config),
            cluster_vocab(func_vocab, config),
            config,
        )
    }

    /// The configuration the encoder was fitted with.
    #[must_use]
    pub fn config(&self) -> PreprocessConfig {
        self.config
    }

    /// Borrows the fitted parts (for persistence).
    #[must_use]
    pub fn parts(&self) -> (&ClusterAssigner<String>, &ClusterAssigner<String>) {
        (self.lib_assigner.assigner(), self.func_assigner.assigner())
    }

    /// Reassembles an encoder from previously fitted parts, interning
    /// their vocabularies.
    #[must_use]
    pub fn from_parts(
        lib_assigner: ClusterAssigner<String>,
        func_assigner: ClusterAssigner<String>,
        config: PreprocessConfig,
    ) -> FeatureEncoder {
        FeatureEncoder {
            lib_assigner: IndexedAssigner::new(lib_assigner),
            func_assigner: IndexedAssigner::new(func_assigner),
            config,
        }
    }

    /// Number of Lib clusters.
    #[must_use]
    pub fn lib_cluster_count(&self) -> usize {
        self.lib_assigner.n_clusters()
    }

    /// Number of Func clusters.
    #[must_use]
    pub fn func_cluster_count(&self) -> usize {
        self.func_assigner.n_clusters()
    }

    /// The paper's discretized 3-tuple for one event:
    /// `(Event_Type, Lib cluster, Func cluster)`.
    ///
    /// The Lib set is the system stack's modules and the Func set its
    /// `module!function` symbols ([`PartitionedEvent::lib_set`] and
    /// [`PartitionedEvent::func_set`]). Allocates fresh work buffers;
    /// encoders of many events use [`Self::tuple_of`].
    #[must_use]
    pub fn tuple(&self, event: &PartitionedEvent) -> (u32, u32, u32) {
        self.tuple_of(&mut EncodeScratch::default(), event.etype, event.sys_names())
    }

    /// The one encode routine: the 3-tuple of an event of type `etype`
    /// whose system stack holds `frames`, each given as its module name
    /// and its `module!function` symbol, borrowed from wherever the
    /// caller holds them (an owned event's frames
    /// ([`PartitionedEvent::sys_names`]), or a protocol line).
    pub fn tuple_of<'a>(
        &self,
        scratch: &mut EncodeScratch,
        etype: EventType,
        frames: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> (u32, u32, u32) {
        let EncodeScratch { libs, funcs } = scratch;
        libs.clear();
        funcs.clear();
        for (module, symbol) in frames {
            self.lib_assigner.add(libs, module);
            self.func_assigner.add(funcs, symbol);
        }
        (
            etype.as_u32(),
            self.lib_assigner.assign_query(libs),
            self.func_assigner.assign_query(funcs),
        )
    }

    /// The normalized feature triple for one event, each component scaled
    /// to `[0, 1]` so the Gaussian kernel treats the three coordinates
    /// comparably.
    #[must_use]
    pub fn encode(&self, event: &PartitionedEvent) -> [f64; 3] {
        self.normalize(self.tuple(event))
    }

    /// Scales a [`Self::tuple`] to the normalized feature triple.
    #[must_use]
    pub fn normalize(&self, (e, l, f): (u32, u32, u32)) -> [f64; 3] {
        [
            f64::from(e) / (EventType::ALL.len() - 1) as f64,
            f64::from(l) / self.lib_assigner.n_clusters().max(2).saturating_sub(1) as f64,
            f64::from(f) / self.func_assigner.n_clusters().max(2).saturating_sub(1) as f64,
        ]
    }

    /// Encodes a sequence of events and coalesces windows of
    /// `config.window` consecutive events into flat feature vectors of
    /// dimension `3 * window`, advancing by `config.stride`.
    ///
    /// Also returns, per data point, the indices of the events it covers
    /// (needed to attach CFG-derived weights to coalesced points).
    #[must_use]
    pub fn encode_sequence(
        &self,
        events: &[&PartitionedEvent],
    ) -> (Vec<Vec<f64>>, Vec<Vec<usize>>) {
        let mut scratch = EncodeScratch::default();
        let per_event: Vec<[f64; 3]> = events
            .iter()
            .map(|e| self.normalize(self.tuple_of(&mut scratch, e.etype, e.sys_names())))
            .collect();
        let w = self.config.window;
        let s = self.config.stride;
        let mut points = Vec::new();
        let mut covers = Vec::new();
        if per_event.len() < w {
            return (points, covers);
        }
        let mut start = 0usize;
        while start + w <= per_event.len() {
            let mut v = Vec::with_capacity(3 * w);
            for triple in &per_event[start..start + w] {
                v.extend_from_slice(triple);
            }
            points.push(v);
            covers.push((start..start + w).collect());
            start += s;
        }
        (points, covers)
    }
}

/// Collects the distinct sets in frequency order and keeps the `cap` most
/// frequent (ties broken lexicographically, so the vocabulary is
/// deterministic). Sets are counted borrowed; only the kept ones are
/// copied out.
fn frequent_sets<'a>(iter: impl Iterator<Item = Vec<&'a str>>, cap: usize) -> Vec<Vec<String>> {
    let mut counts: BTreeMap<Vec<&str>, usize> = BTreeMap::new();
    for mut set in iter {
        set.sort_unstable();
        set.dedup();
        *counts.entry(set).or_insert(0) += 1;
    }
    let mut entries: Vec<(Vec<&str>, usize)> = counts.into_iter().collect();
    entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    entries.truncate(cap);
    entries.into_iter().map(|(set, _)| set.into_iter().map(str::to_owned).collect()).collect()
}

fn cluster_vocab(vocab: Vec<Vec<String>>, config: PreprocessConfig) -> ClusterAssigner<String> {
    // O(n²) Jaccard pass over the vocabulary — the dominant fit cost for
    // large `max_vocab`, so rows fan out across threads (bit-identical to
    // the serial builder).
    let dm = DistanceMatrix::from_sets_parallel(&vocab, |a, b| {
        jaccard_dissimilarity(a.as_slice(), b.as_slice())
    });
    let dendro = Dendrogram::build(&dm, config.linkage);
    let labels = match config.cut {
        CutRule::Distance(t) => dendro.cut_at_distance(t),
        CutRule::Count(k) => dendro.cut_at_count(k),
    };
    ClusterAssigner::new(vocab, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaps_etw::logfmt::write_log;
    use leaps_etw::scenario::{GenParams, Scenario};
    use leaps_trace::parser::parse_log;
    use leaps_trace::partition::partition_events;

    fn events() -> Vec<PartitionedEvent> {
        let logs =
            Scenario::by_name("vim_reverse_tcp").unwrap().generate_events(&GenParams::small(), 3);
        let parsed = parse_log(&write_log(&logs.benign)).unwrap();
        partition_events(&parsed.events)
    }

    fn fit(events: &[PartitionedEvent], config: PreprocessConfig) -> FeatureEncoder {
        let refs: Vec<&PartitionedEvent> = events.iter().collect();
        FeatureEncoder::fit(&refs, config)
    }

    #[test]
    fn fit_produces_multiple_clusters_on_real_events() {
        let evs = events();
        let enc = fit(&evs, PreprocessConfig::default());
        assert!(enc.lib_cluster_count() >= 2);
        assert!(enc.func_cluster_count() >= enc.lib_cluster_count());
    }

    #[test]
    fn encoding_is_normalized() {
        let evs = events();
        let enc = fit(&evs, PreprocessConfig::default());
        for e in &evs {
            for x in enc.encode(e) {
                assert!((0.0..=1.0).contains(&x), "{x}");
            }
        }
    }

    #[test]
    fn identical_events_get_identical_tuples() {
        let evs = events();
        let enc = fit(&evs, PreprocessConfig::default());
        let a = enc.tuple(&evs[0]);
        let b = enc.tuple(&evs[0].clone());
        assert_eq!(a, b);
    }

    #[test]
    fn coalescing_dimensions_and_cover_bookkeeping() {
        let evs = events();
        let config = PreprocessConfig { window: 10, stride: 3, ..Default::default() };
        let enc = fit(&evs, config);
        let refs: Vec<&PartitionedEvent> = evs.iter().collect();
        let (points, covers) = enc.encode_sequence(&refs);
        assert!(!points.is_empty());
        assert_eq!(points.len(), covers.len());
        for (p, c) in points.iter().zip(&covers) {
            assert_eq!(p.len(), 30);
            assert_eq!(c.len(), 10);
        }
        assert_eq!(covers[0][0], 0);
        assert_eq!(covers[1][0], 3);
        let expected = (evs.len() - 10) / 3 + 1;
        assert_eq!(points.len(), expected);
    }

    #[test]
    fn too_few_events_yield_no_points() {
        let evs = events();
        let config = PreprocessConfig { window: 10, stride: 1, ..Default::default() };
        let enc = fit(&evs, config);
        let refs: Vec<&PartitionedEvent> = evs.iter().take(5).collect();
        let (points, covers) = enc.encode_sequence(&refs);
        assert!(points.is_empty());
        assert!(covers.is_empty());
    }

    #[test]
    fn count_cut_rule_bounds_cluster_count() {
        let evs = events();
        let config = PreprocessConfig { cut: CutRule::Count(4), ..Default::default() };
        let enc = fit(&evs, config);
        assert!(enc.lib_cluster_count() <= 4);
        assert!(enc.func_cluster_count() <= 4);
    }

    #[test]
    fn window_one_is_passthrough() {
        let evs = events();
        let config = PreprocessConfig { window: 1, stride: 1, ..Default::default() };
        let enc = fit(&evs, config);
        let refs: Vec<&PartitionedEvent> = evs.iter().take(20).collect();
        let (points, covers) = enc.encode_sequence(&refs);
        assert_eq!(points.len(), 20);
        assert_eq!(points[0].len(), 3);
        assert_eq!(covers[7], vec![7]);
    }

    #[test]
    #[should_panic(expected = "empty event set")]
    fn fit_rejects_empty_input() {
        let _ = FeatureEncoder::fit(&[], PreprocessConfig::default());
    }

    #[test]
    fn one_reused_scratch_encodes_like_fresh_buffers() {
        // Fit on one scenario, encode another (unseen names) with one
        // scratch reused across events, empty system stacks included.
        let logs = Scenario::by_name("putty_reverse_https")
            .unwrap()
            .generate_events(&GenParams::small(), 3);
        let other = partition_events(&parse_log(&write_log(&logs.malicious)).unwrap().events);
        let enc = fit(&events(), PreprocessConfig::default());
        let mut scratch = EncodeScratch::default();
        let mut stripped = other[0].clone();
        stripped.system_stack.clear();
        for e in events().iter().take(200).chain(other.iter().take(200)).chain([&stripped]) {
            assert_eq!(enc.tuple_of(&mut scratch, e.etype, e.sys_names()), enc.tuple(e));
        }
    }

    #[test]
    fn unseen_events_still_encode() {
        // Fit on benign, encode malicious (different library mix).
        let logs = Scenario::by_name("putty_reverse_https")
            .unwrap()
            .generate_events(&GenParams::small(), 3);
        let benign = partition_events(&parse_log(&write_log(&logs.benign)).unwrap().events);
        let malicious = partition_events(&parse_log(&write_log(&logs.malicious)).unwrap().events);
        let enc = fit(&benign, PreprocessConfig::default());
        for e in malicious.iter().take(50) {
            let t = enc.tuple(e);
            assert!((t.1 as usize) < enc.lib_cluster_count());
            assert!((t.2 as usize) < enc.func_cluster_count());
        }
    }
}
