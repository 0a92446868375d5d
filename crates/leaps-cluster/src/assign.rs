//! Assignment of unseen sets to existing clusters.
//!
//! The paper clusters the Lib/Func sets observed in the *training* data.
//! At testing time unseen sets appear; a usable pipeline needs a rule to
//! discretize them with the trained clustering. We use the UPGMA-consistent
//! rule: assign the set to the cluster with the smallest **mean**
//! dissimilarity to its members.

use crate::dissim::{jaccard_dissimilarity, jaccard_from_counts};
use leaps_etw::event::NameHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// A trained clustering over a vocabulary of sets, supporting nearest-
/// cluster assignment for unseen sets.
///
/// [`ClusterAssigner::assign`] is the generic reference scan. The feature
/// encoder assigns through `IndexedAssigner`, which interns the names
/// and returns the same label for every set.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterAssigner<T: Ord> {
    /// Vocabulary of training sets (each sorted + deduplicated).
    members: Vec<Vec<T>>,
    /// Cluster label per vocabulary entry.
    labels: Vec<u32>,
    /// Number of vocabulary entries per cluster.
    sizes: Vec<usize>,
}

impl<T: Ord + Clone> ClusterAssigner<T> {
    /// Creates an assigner from a vocabulary and its cluster labels.
    ///
    /// # Panics
    ///
    /// Panics where [`Self::try_new`] returns an error.
    #[must_use]
    pub fn new(members: Vec<Vec<T>>, labels: Vec<u32>) -> Self {
        match Self::try_new(members, labels) {
            Ok(assigner) => assigner,
            Err(reason) => panic!("{reason}"),
        }
    }

    /// Creates an assigner, rejecting an invalid vocabulary.
    ///
    /// # Errors
    ///
    /// A one-line reason if lengths mismatch, the vocabulary is empty, a
    /// member is not sorted and deduplicated, or labels are not dense
    /// `0..k`.
    pub fn try_new(members: Vec<Vec<T>>, labels: Vec<u32>) -> Result<Self, String> {
        if members.len() != labels.len() {
            return Err(format!(
                "vocabulary/label length mismatch ({} sets, {} labels)",
                members.len(),
                labels.len()
            ));
        }
        if members.is_empty() {
            return Err("empty vocabulary".into());
        }
        if let Some(i) = members.iter().position(|m| m.windows(2).any(|w| w[0] >= w[1])) {
            return Err(format!("vocabulary set {i} is not sorted and deduplicated"));
        }
        let n_clusters = labels.iter().copied().max().map_or(0, |m| m as usize + 1);
        let mut sizes = vec![0usize; n_clusters];
        for &label in &labels {
            sizes[label as usize] += 1;
        }
        if let Some(k) = sizes.iter().position(|&n| n == 0) {
            return Err(format!("labels are not dense: cluster {k} has no members"));
        }
        Ok(ClusterAssigner { members, labels, sizes })
    }

    /// Number of clusters.
    #[must_use]
    pub fn n_clusters(&self) -> usize {
        self.sizes.len()
    }

    /// Assigns a (sorted, deduplicated) set to the cluster with minimal
    /// mean Jaccard dissimilarity to its members. Ties break toward the
    /// lower cluster label.
    #[must_use]
    pub fn assign(&self, set: &[T]) -> u32 {
        let mut sums = vec![0.0f64; self.n_clusters()];
        for (member, &label) in self.members.iter().zip(&self.labels) {
            sums[label as usize] += jaccard_dissimilarity(member, set);
        }
        nearest(&sums, &self.sizes)
    }

    /// The vocabulary members, parallel to [`Self::labels`].
    #[must_use]
    pub fn members(&self) -> &[Vec<T>] {
        &self.members
    }

    /// Cluster label per vocabulary entry, parallel to [`Self::members`].
    #[must_use]
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }
}

/// A cluster's mean dissimilarity from the sum over its `size` members.
/// A singleton's mean is its sum, exactly as `sum / 1.0` would give.
#[inline]
fn mean(sum: f64, size: usize) -> f64 {
    if size == 1 {
        sum
    } else {
        sum / size as f64
    }
}

/// The cluster with the smallest mean `sums[k] / sizes[k]`; ties break
/// toward the lower label.
fn nearest(sums: &[f64], sizes: &[usize]) -> u32 {
    let mut best = 0u32;
    let mut best_mean = f64::INFINITY;
    for (k, (&sum, &size)) in sums.iter().zip(sizes).enumerate() {
        let mean = mean(sum, size);
        if mean < best_mean {
            best_mean = mean;
            best = k as u32;
        }
    }
    best
}

/// A [`ClusterAssigner`] over names with the vocabulary interned: the
/// assignment path of the feature encoder.
///
/// Each distinct name gets a `u32` id (numbered in order of first
/// appearance over the members) and a posting list of the members that
/// contain it. A query maps its names to ids and counts its intersection
/// with each member by walking the postings of its known ids; names
/// outside the vocabulary meet no member and only add to the query's
/// size. Only clusters with a member the query meets need summing: they
/// add [`jaccard_from_counts`] of each of their members in vocabulary
/// order — the values, in the order, that [`ClusterAssigner::assign`]
/// adds. Every member of any other cluster is disjoint from the
/// (non-empty) query, so adds exactly `1.0`, and that cluster's mean is
/// exactly `1.0`. Both paths therefore return the same label.
#[derive(Debug, Clone)]
pub(crate) struct IndexedAssigner {
    assigner: ClusterAssigner<String>,
    /// Name → id. Used for lookups only, never iterated.
    ids: HashMap<String, u32, BuildHasherDefault<NameHasher>>,
    /// Per name id, the indices of the members that contain it, ascending.
    postings: Groups,
    /// Number of names per member.
    member_len: Vec<usize>,
    /// Per cluster, the indices of its members, ascending.
    clusters: Groups,
}

/// Values grouped by a dense key, in one allocation: the values of key
/// `k` are `items[offsets[k]..offsets[k + 1]]`, in the order given.
#[derive(Debug, Clone)]
struct Groups {
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl Groups {
    fn new(keys: usize, pairs: &[(u32, u32)]) -> Groups {
        let mut offsets = vec![0u32; keys + 1];
        for &(k, _) in pairs {
            offsets[k as usize + 1] += 1;
        }
        for k in 0..keys {
            offsets[k + 1] += offsets[k];
        }
        let mut next = offsets.clone();
        let mut items = vec![0u32; pairs.len()];
        for &(k, v) in pairs {
            items[next[k as usize] as usize] = v;
            next[k as usize] += 1;
        }
        Groups { offsets, items }
    }

    fn get(&self, k: usize) -> &[u32] {
        &self.items[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }
}

/// The names of one set being assigned, split into vocabulary ids and
/// names the vocabulary has never seen, plus the work buffers of its
/// assignment. Repeats are allowed; they count once. A query is reused
/// from one set to the next, so assigning allocates nothing once the
/// buffers have grown to the vocabulary.
#[derive(Debug, Clone, Default)]
pub(crate) struct SetQuery {
    known: Vec<u32>,
    unknown: Vec<String>,
    /// Per member, `|q ∩ m|`.
    hits: Vec<u32>,
    /// Per cluster, whether a member the query meets is in it.
    listed: Vec<bool>,
    /// The listed clusters, each once, in order of first meeting.
    touched: Vec<u32>,
}

impl SetQuery {
    /// Forgets the names added so far (the buffers keep their room).
    pub(crate) fn clear(&mut self) {
        self.known.clear();
        self.unknown.clear();
    }
}

impl IndexedAssigner {
    /// Interns the vocabulary of `assigner`.
    pub(crate) fn new(assigner: ClusterAssigner<String>) -> IndexedAssigner {
        let member_len: Vec<usize> = assigner.members.iter().map(Vec::len).collect();
        let mut ids: HashMap<String, u32, BuildHasherDefault<NameHasher>> = HashMap::default();
        let mut occurrences = Vec::with_capacity(member_len.iter().sum());
        for (m, member) in assigner.members.iter().enumerate() {
            for name in member {
                let id = match ids.get(name) {
                    Some(&id) => id,
                    None => {
                        let id = ids.len() as u32;
                        ids.insert(name.clone(), id);
                        id
                    }
                };
                occurrences.push((id, m as u32));
            }
        }
        let postings = Groups::new(ids.len(), &occurrences);
        let by_label: Vec<(u32, u32)> =
            assigner.labels.iter().zip(0u32..).map(|(&l, m)| (l, m)).collect();
        let clusters = Groups::new(assigner.n_clusters(), &by_label);
        IndexedAssigner { assigner, ids, postings, member_len, clusters }
    }

    /// The underlying clustering (for persistence).
    pub(crate) fn assigner(&self) -> &ClusterAssigner<String> {
        &self.assigner
    }

    /// Number of clusters.
    pub(crate) fn n_clusters(&self) -> usize {
        self.assigner.n_clusters()
    }

    /// Adds one name to `query`.
    pub(crate) fn add(&self, query: &mut SetQuery, name: &str) {
        match self.ids.get(name) {
            Some(&id) => query.known.push(id),
            None => query.unknown.push(name.to_owned()),
        }
    }

    /// Assigns the set gathered in `query` to its nearest cluster: the
    /// label [`ClusterAssigner::assign`] gives the sorted, deduplicated
    /// set of its names. The query's names stay until it is cleared.
    pub(crate) fn assign_query(&self, query: &mut SetQuery) -> u32 {
        let SetQuery { known, unknown, hits, listed, touched } = query;
        known.sort_unstable();
        known.dedup();
        unknown.sort_unstable();
        unknown.dedup();
        let query_len = known.len() + unknown.len();
        let labels = &self.assigner.labels;
        let n_clusters = self.n_clusters();
        hits.clear();
        hits.resize(labels.len(), 0);
        // The clusters with a member the query meets, each listed once.
        // Appending is branch-free: every label is written, and the end
        // only advances past labels not yet listed.
        listed.clear();
        listed.resize(n_clusters, false);
        touched.clear();
        touched.resize(n_clusters + 1, 0);
        let mut n_touched = 0;
        for &id in known.iter() {
            for &m in self.postings.get(id as usize) {
                hits[m as usize] += 1;
                let k = labels[m as usize];
                touched[n_touched] = k;
                n_touched += usize::from(!listed[k as usize]);
                listed[k as usize] = true;
            }
        }
        touched.truncate(n_touched);
        if query_len == 0 {
            // An empty query is at 0 from an empty member, not 1: sum all.
            touched.clear();
            touched.extend(0..n_clusters as u32);
            listed.fill(true);
        }
        // Each cluster's sum is independent of the others, so they may be
        // formed in any order; the smallest mean wins, ties to the lower
        // label, as in the scan.
        let mut best = (f64::INFINITY, u32::MAX);
        let mut consider = |mean: f64, k: u32| {
            if mean < best.0 || (mean == best.0 && k < best.1) {
                best = (mean, k);
            }
        };
        for &k in touched.iter() {
            let members = self.clusters.get(k as usize);
            let sum = members.iter().fold(0.0, |sum, &m| {
                let m = m as usize;
                sum + jaccard_from_counts(self.member_len[m], query_len, hits[m] as usize)
            });
            consider(mean(sum, members.len()), k);
        }
        // The lowest unlisted label stands for every unlisted cluster.
        if let Some(k) = listed.iter().position(|&l| !l) {
            consider(1.0, k as u32);
        }
        best.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assigner() -> ClusterAssigner<&'static str> {
        ClusterAssigner::new(
            vec![
                vec!["kernel32", "ntdll"],               // cluster 0
                vec!["kernel32", "kernelbase", "ntdll"], // cluster 0
                vec!["tcpip", "ws2_32"],                 // cluster 1
                vec!["afd", "tcpip", "ws2_32"],          // cluster 1
            ],
            vec![0, 0, 1, 1],
        )
    }

    #[test]
    fn member_sets_assign_to_their_own_cluster() {
        let a = assigner();
        assert_eq!(a.assign(&["kernel32", "ntdll"]), 0);
        assert_eq!(a.assign(&["tcpip", "ws2_32"]), 1);
    }

    #[test]
    fn unseen_set_assigns_to_nearest_cluster() {
        let a = assigner();
        assert_eq!(a.assign(&["kernelbase", "ntdll"]), 0);
        assert_eq!(a.assign(&["afd", "ws2_32"]), 1);
    }

    #[test]
    fn totally_alien_set_still_gets_some_cluster() {
        let a = assigner();
        let label = a.assign(&["win32k"]);
        assert!(label < 2);
    }

    /// The indexed assignment of `names` (any order, repeats allowed).
    fn assign_names<'a>(
        indexed: &IndexedAssigner,
        names: impl IntoIterator<Item = &'a str>,
    ) -> u32 {
        assign_in(indexed, &mut SetQuery::default(), names)
    }

    /// [`assign_names`] through a caller's (possibly used) query.
    fn assign_in<'a>(
        indexed: &IndexedAssigner,
        query: &mut SetQuery,
        names: impl IntoIterator<Item = &'a str>,
    ) -> u32 {
        query.clear();
        for name in names {
            indexed.add(query, name);
        }
        indexed.assign_query(query)
    }

    /// Vocabulary names are `n0..n7`; queries also draw `n8..n11`, which
    /// no member contains.
    fn name(count: u32) -> impl Strategy<Value = String> {
        (0..count).prop_map(|i| format!("n{i}"))
    }

    /// Small alphabets and few clusters make overlapping members, empty
    /// members, duplicate members and tied means common.
    fn vocabulary() -> impl Strategy<Value = ClusterAssigner<String>> {
        prop::collection::vec(prop::collection::btree_set(name(8), 0..5), 1..24).prop_flat_map(
            |sets| {
                let n = sets.len();
                prop::collection::vec(0u32..6, n).prop_map(move |raw| {
                    // Densify: each label becomes its rank among the labels used.
                    let mut used = raw.clone();
                    used.sort_unstable();
                    used.dedup();
                    let labels =
                        raw.iter().map(|l| used.binary_search(l).unwrap() as u32).collect();
                    let members = sets.iter().map(|s| s.iter().cloned().collect()).collect();
                    ClusterAssigner::new(members, labels)
                })
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The interned assignment returns the reference scan's label for
        /// any query: repeated names, unseen names and the empty query,
        /// through a fresh query and through one reused across queries.
        #[test]
        fn indexed_assignment_matches_the_string_scan(
            vocab in vocabulary(),
            queries in prop::collection::vec(prop::collection::vec(name(12), 0..7), 1..8),
        ) {
            let indexed = IndexedAssigner::new(vocab.clone());
            let mut reused = SetQuery::default();
            for query in &queries {
                let mut set = query.clone();
                set.sort_unstable();
                set.dedup();
                let names = || query.iter().map(String::as_str);
                prop_assert_eq!(
                    assign_names(&indexed, names()),
                    vocab.assign(&set),
                    "query {:?} over {:?}", query, vocab
                );
                prop_assert_eq!(
                    assign_in(&indexed, &mut reused, names()),
                    vocab.assign(&set),
                    "reused query {:?} over {:?}", query, vocab
                );
            }
        }
    }

    #[test]
    fn indexed_assignment_breaks_ties_like_the_scan() {
        // Pairs of identical clusters and an empty member: an unseen
        // query is at 1.0 from every member, the empty query at 0.0 from
        // the empty member only.
        let vocab = ClusterAssigner::new(
            vec![
                vec!["a".to_owned()],
                vec!["b".to_owned()],
                vec![],
                vec!["a".to_owned()],
                vec!["b".to_owned()],
            ],
            vec![1, 2, 0, 3, 4],
        );
        let indexed = IndexedAssigner::new(vocab.clone());
        for query in [vec![], vec!["zz"], vec!["a"], vec!["b", "b"], vec!["a", "b", "zz"]] {
            let mut set: Vec<String> = query.iter().map(|&n| n.to_owned()).collect();
            set.sort_unstable();
            set.dedup();
            assert_eq!(
                assign_names(&indexed, query.iter().copied()),
                vocab.assign(&set),
                "{query:?}"
            );
        }
        assert_eq!(assign_names(&indexed, ["zz"]), 0, "ties at 1.0 go to the lowest label");
        assert_eq!(assign_names(&indexed, ["b"]), 2, "ties between equal clusters go to the lower");
    }

    #[test]
    fn unsorted_members_are_rejected() {
        let err = ClusterAssigner::try_new(vec![vec![2, 1]], vec![0]).unwrap_err();
        assert!(err.contains("not sorted"), "{err}");
        assert!(ClusterAssigner::try_new(vec![vec![1, 1]], vec![0]).is_err());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_rejected() {
        let _ = ClusterAssigner::new(vec![vec![1]], vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "not dense")]
    fn sparse_labels_rejected() {
        let _ = ClusterAssigner::new(vec![vec![1], vec![2]], vec![0, 2]);
    }
}
