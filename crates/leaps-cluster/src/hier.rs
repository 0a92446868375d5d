//! Agglomerative hierarchical clustering with Lance–Williams updates.
//!
//! The paper uses SciPy's `cluster.hierarchy` with the **UPGMA** linkage
//! ("the distance between any two clusters is the mean distance between
//! all elements of each cluster"). This module implements the same
//! agglomerative procedure from scratch: start with singleton clusters,
//! repeatedly merge the closest pair, and update inter-cluster distances
//! with the linkage-specific Lance–Williams recurrence.
//!
//! # Algorithm
//!
//! [`Dendrogram::build`] maintains a per-row *nearest-neighbor cache*:
//! for every active row `i` it remembers the closest active column
//! `j > i` (smallest distance, smallest `j` on ties). Each merge then
//! costs one O(active) scan over the cache plus a Lance–Williams row
//! update, and only the rows whose cached neighbor was touched by the
//! merge are rescanned — O(n²) expected overall instead of the O(n³)
//! full rescan. It runs on the calling thread: at the vocabulary cap of
//! a few hundred sets one build takes a few milliseconds, and a thread
//! fan-out per merge costs about as much as it saves. The retired
//! full-rescan implementation is kept as [`Dendrogram::build_rescan`]
//! and serves as the test oracle.
//!
//! # Non-finite distances
//!
//! Distances are compared through a total order that sorts every NaN
//! *after* every finite value and `+∞` (see `dist_cmp`): a non-finite
//! dissimilarity — possible when degraded telemetry feeds an upstream
//! encoder — is merged last (with the usual smallest-index tie-break)
//! instead of corrupting the closest-pair search. Merges recorded at a
//! NaN linkage distance are never applied by
//! [`Dendrogram::cut_at_distance`], so the affected leaves simply stay
//! in their own clusters.

use crate::dissim::DistanceMatrix;
use std::cmp::Ordering;

/// Linkage criterion for inter-cluster distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Linkage {
    /// UPGMA / mean distance between all element pairs (the paper's
    /// choice).
    #[default]
    Average,
    /// Minimum element-pair distance.
    Single,
    /// Maximum element-pair distance.
    Complete,
}

impl Linkage {
    /// Lance–Williams update: distance between the merge of two clusters
    /// (sizes `size_i`/`size_j`, distances `dik`/`djk` to cluster `k`)
    /// and cluster `k`.
    fn update(self, size_i: usize, size_j: usize, dik: f64, djk: f64) -> f64 {
        match self {
            Linkage::Average => {
                (size_i as f64 * dik + size_j as f64 * djk) / (size_i + size_j) as f64
            }
            Linkage::Single => dik.min(djk),
            Linkage::Complete => dik.max(djk),
        }
    }
}

/// Total order on distances: the usual order on finite values and `±∞`,
/// with every NaN sorted after everything else (and equal to any other
/// NaN). This is what makes an all-NaN matrix merge deterministically
/// (smallest indices first) instead of panicking.
fn dist_cmp(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => a.partial_cmp(&b).expect("neither operand is NaN"),
        (false, true) => Ordering::Less,
        (true, false) => Ordering::Greater,
        (true, true) => Ordering::Equal,
    }
}

/// `(distance, column)` pairs ordered by distance first (NaN last), then
/// by column index — the row-local tie-break of the closest-pair scan.
fn neighbor_cmp(a: (f64, usize), b: (f64, usize)) -> Ordering {
    dist_cmp(a.0, b.0).then(a.1.cmp(&b.1))
}

/// One merge step of the dendrogram. Node ids: leaves are `0..n`, the
/// cluster created by `merges[k]` has id `n + k` (SciPy convention).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// First merged node id.
    pub left: usize,
    /// Second merged node id.
    pub right: usize,
    /// Linkage distance at which the merge happened.
    pub distance: f64,
    /// Number of leaves in the merged cluster.
    pub size: usize,
}

/// A full dendrogram over `n` leaves (`n − 1` merges).
#[derive(Debug, Clone, PartialEq)]
pub struct Dendrogram {
    n_leaves: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Runs agglomerative clustering over the distance matrix.
    ///
    /// Ties are broken toward the smallest pair indices so the result is
    /// deterministic, and non-finite distances sort after every finite
    /// one (see the module docs) — the result is bit-identical to
    /// [`Dendrogram::build_rescan`].
    #[must_use]
    pub fn build(dm: &DistanceMatrix, linkage: Linkage) -> Dendrogram {
        let n = dm.len();
        if n == 0 {
            return Dendrogram { n_leaves: 0, merges: Vec::new() };
        }
        // Working distance matrix over active clusters, dense row-major.
        let mut dist = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                dist[i * n + j] = dm.get(i, j);
            }
        }
        // cluster slot -> (node id, leaf count); None = retired slot.
        let mut clusters: Vec<Option<(usize, usize)>> = (0..n).map(|i| Some((i, 1))).collect();
        let mut active = n;
        let mut merges = Vec::with_capacity(n - 1);

        // Nearest-neighbor cache: nn[i] = (distance, j) minimal over
        // active columns j > i under `neighbor_cmp`; None when row i is
        // retired or has no active column after it.
        let row_nn = |dist: &[f64], clusters: &[Option<(usize, usize)>], i: usize| {
            let mut best: Option<(f64, usize)> = None;
            for j in (i + 1)..n {
                if clusters[j].is_none() {
                    continue;
                }
                let cand = (dist[i * n + j], j);
                if best.is_none_or(|b| neighbor_cmp(cand, b) == Ordering::Less) {
                    best = Some(cand);
                }
            }
            best
        };
        let mut nn: Vec<Option<(f64, usize)>> =
            (0..n).map(|i| row_nn(&dist, &clusters, i)).collect();

        while active > 1 {
            // Closest active pair: minimal (distance, i, j) over the
            // cache — a cheap O(n) scan.
            let mut best: Option<(f64, usize, usize)> = None;
            for (i, entry) in nn.iter().enumerate() {
                let Some((d, j)) = *entry else { continue };
                if best.is_none_or(|(bd, bi, _)| dist_cmp(d, bd).then(i.cmp(&bi)) == Ordering::Less)
                {
                    best = Some((d, i, j));
                }
            }
            let (d, i, j) = best.expect("at least two active clusters have a closest pair");
            let (id_i, size_i) = clusters[i].expect("active");
            let (id_j, size_j) = clusters[j].expect("active");
            let merged_size = size_i + size_j;
            merges.push(Merge {
                left: id_i.min(id_j),
                right: id_i.max(id_j),
                distance: d,
                size: merged_size,
            });

            // Lance–Williams update: new cluster occupies slot i.
            for k in 0..n {
                if k == i || k == j || clusters[k].is_none() {
                    continue;
                }
                let v = linkage.update(size_i, size_j, dist[i * n + k], dist[j * n + k]);
                dist[i * n + k] = v;
                dist[k * n + i] = v;
            }
            clusters[i] = Some((n + merges.len() - 1, merged_size));
            clusters[j] = None;
            nn[j] = None;
            active -= 1;

            // Invalidate exactly the rows the merge touched. Row i
            // changed entirely. A row k < i sees one rewritten column
            // (i): if its cached neighbor was i or the retired j it must
            // rescan, otherwise the new dist[k][i] can only *join* the
            // competition, which is a single compare. A row i < k < j
            // only loses column j; rows k > j see no change at all.
            nn[i] = row_nn(&dist, &clusters, i);
            for k in 0..i {
                if clusters[k].is_none() {
                    continue;
                }
                match nn[k] {
                    Some((_, t)) if t == i || t == j => nn[k] = row_nn(&dist, &clusters, k),
                    Some(old) => {
                        let cand = (dist[k * n + i], i);
                        if neighbor_cmp(cand, old) == Ordering::Less {
                            nn[k] = Some(cand);
                        }
                    }
                    None => nn[k] = row_nn(&dist, &clusters, k),
                }
            }
            for k in (i + 1)..j {
                if clusters[k].is_some() && nn[k].is_some_and(|(_, t)| t == j) {
                    nn[k] = row_nn(&dist, &clusters, k);
                }
            }
        }
        Dendrogram { n_leaves: n, merges }
    }

    /// The retired full-rescan implementation: every merge rescans all
    /// O(n²) active pairs. Kept (hidden) as the oracle for the
    /// nearest-neighbor-cache [`Dendrogram::build`] in equivalence tests
    /// and as the benchmark baseline — do not use it for real workloads.
    #[doc(hidden)]
    #[must_use]
    #[allow(clippy::needless_range_loop)] // dense matrix code reads best indexed
    pub fn build_rescan(dm: &DistanceMatrix, linkage: Linkage) -> Dendrogram {
        let n = dm.len();
        if n == 0 {
            return Dendrogram { n_leaves: 0, merges: Vec::new() };
        }
        let mut dist = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in 0..n {
                dist[i][j] = dm.get(i, j);
            }
        }
        let mut clusters: Vec<Option<(usize, usize)>> = (0..n).map(|i| Some((i, 1))).collect();
        let mut active = n;
        let mut merges = Vec::with_capacity(n - 1);

        while active > 1 {
            // Find the closest active pair (first-encountered minimum =
            // smallest indices on ties; NaN sorts last via dist_cmp).
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..n {
                if clusters[i].is_none() {
                    continue;
                }
                for j in (i + 1)..n {
                    if clusters[j].is_none() {
                        continue;
                    }
                    if best.is_none_or(|b| dist_cmp(dist[i][j], b.2) == Ordering::Less) {
                        best = Some((i, j, dist[i][j]));
                    }
                }
            }
            let (i, j, d) = best.expect("at least two active clusters");
            let (id_i, size_i) = clusters[i].expect("active");
            let (id_j, size_j) = clusters[j].expect("active");
            let merged_size = size_i + size_j;
            merges.push(Merge {
                left: id_i.min(id_j),
                right: id_i.max(id_j),
                distance: d,
                size: merged_size,
            });
            for k in 0..n {
                if k == i || k == j || clusters[k].is_none() {
                    continue;
                }
                let updated = linkage.update(size_i, size_j, dist[i][k], dist[j][k]);
                dist[i][k] = updated;
                dist[k][i] = updated;
            }
            clusters[i] = Some((n + merges.len() - 1, merged_size));
            clusters[j] = None;
            active -= 1;
        }
        Dendrogram { n_leaves: n, merges }
    }

    /// Number of leaves.
    #[must_use]
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// The merge sequence (SciPy-style linkage matrix rows).
    #[must_use]
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Cuts the dendrogram so that merges with linkage distance
    /// `<= threshold` are applied. Returns a dense cluster label per leaf
    /// (labels are `0..k` in order of first appearance). Merges recorded
    /// at a NaN distance are never applied.
    #[must_use]
    pub fn cut_at_distance(&self, threshold: f64) -> Vec<u32> {
        let applied = self.merges.iter().map(|m| m.distance <= threshold).collect::<Vec<_>>();
        self.labels_from_applied(&applied)
    }

    /// Cuts the dendrogram to exactly `k` clusters (clamped to
    /// `[1, n_leaves]`): the last `k − 1` merges are undone.
    #[must_use]
    pub fn cut_at_count(&self, k: usize) -> Vec<u32> {
        if self.n_leaves == 0 {
            return Vec::new();
        }
        let k = k.clamp(1, self.n_leaves);
        let n_applied = self.n_leaves - k;
        let applied: Vec<bool> = (0..self.merges.len()).map(|i| i < n_applied).collect();
        self.labels_from_applied(&applied)
    }

    #[allow(clippy::needless_range_loop)]
    fn labels_from_applied(&self, applied: &[bool]) -> Vec<u32> {
        // Union-find over leaves + internal nodes.
        let total = self.n_leaves + self.merges.len();
        let mut parent: Vec<usize> = (0..total).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut root = x;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = x;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        for (k, merge) in self.merges.iter().enumerate() {
            let node = self.n_leaves + k;
            if applied[k] {
                let l = find(&mut parent, merge.left);
                let r = find(&mut parent, merge.right);
                parent[l] = node;
                parent[r] = node;
            }
        }
        let mut labels = vec![0u32; self.n_leaves];
        let mut next = 0u32;
        let mut seen: std::collections::HashMap<usize, u32> = std::collections::HashMap::new();
        for leaf in 0..self.n_leaves {
            let root = find(&mut parent, leaf);
            let label = *seen.entry(root).or_insert_with(|| {
                let l = next;
                next += 1;
                l
            });
            labels[leaf] = label;
        }
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dissim::jaccard_dissimilarity;

    fn two_blob_matrix() -> DistanceMatrix {
        // Leaves 0,1,2 close together; 3,4 close together; blobs far apart.
        DistanceMatrix::from_full(&[
            vec![0.0, 0.1, 0.2, 0.9, 0.8],
            vec![0.1, 0.0, 0.1, 0.9, 0.9],
            vec![0.2, 0.1, 0.0, 0.8, 0.9],
            vec![0.9, 0.9, 0.8, 0.0, 0.1],
            vec![0.8, 0.9, 0.9, 0.1, 0.0],
        ])
    }

    #[test]
    fn builds_n_minus_one_merges_with_nondecreasing_distance_for_upgma() {
        let d = Dendrogram::build(&two_blob_matrix(), Linkage::Average);
        assert_eq!(d.merges().len(), 4);
        // UPGMA on a metric-like matrix is monotone here.
        let dists: Vec<f64> = d.merges().iter().map(|m| m.distance).collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1] + 1e-12), "{dists:?}");
        assert_eq!(d.merges().last().unwrap().size, 5);
    }

    #[test]
    fn cut_at_count_two_recovers_blobs() {
        for linkage in [Linkage::Average, Linkage::Single, Linkage::Complete] {
            let d = Dendrogram::build(&two_blob_matrix(), linkage);
            let labels = d.cut_at_count(2);
            assert_eq!(labels[0], labels[1]);
            assert_eq!(labels[1], labels[2]);
            assert_eq!(labels[3], labels[4]);
            assert_ne!(labels[0], labels[3], "{linkage:?}");
        }
    }

    #[test]
    fn cut_at_distance_recovers_blobs() {
        let d = Dendrogram::build(&two_blob_matrix(), Linkage::Average);
        let labels = d.cut_at_distance(0.5);
        assert_eq!(labels[0], labels[2]);
        assert_ne!(labels[0], labels[4]);
        // Threshold below every distance → all singletons.
        let labels = d.cut_at_distance(0.05);
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), 5);
        // Threshold above everything → one cluster.
        let labels = d.cut_at_distance(1.0);
        assert!(labels.iter().all(|&l| l == labels[0]));
    }

    #[test]
    fn cut_count_extremes_and_clamping() {
        let d = Dendrogram::build(&two_blob_matrix(), Linkage::Average);
        assert!(d.cut_at_count(1).iter().all(|&l| l == 0));
        let singletons = d.cut_at_count(99);
        let unique: std::collections::HashSet<_> = singletons.iter().collect();
        assert_eq!(unique.len(), 5);
        assert!(d.cut_at_count(0).iter().all(|&l| l == 0)); // clamped to 1
    }

    #[test]
    fn single_vs_complete_differ_on_chains() {
        // A chain: 0-1 close, 1-2 close, 0-2 far. Single linkage chains
        // them together at low threshold; complete linkage does not.
        let dm = DistanceMatrix::from_full(&[
            vec![0.0, 0.1, 0.8],
            vec![0.1, 0.0, 0.1],
            vec![0.8, 0.1, 0.0],
        ]);
        let single = Dendrogram::build(&dm, Linkage::Single).cut_at_distance(0.2);
        assert!(single.iter().all(|&l| l == single[0]));
        let complete = Dendrogram::build(&dm, Linkage::Complete).cut_at_distance(0.2);
        let unique: std::collections::HashSet<_> = complete.iter().collect();
        assert_eq!(unique.len(), 2);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty = DistanceMatrix::from_full(&[]);
        let d = Dendrogram::build(&empty, Linkage::Average);
        assert_eq!(d.n_leaves(), 0);
        assert!(d.cut_at_distance(0.5).is_empty());

        let one = DistanceMatrix::from_full(&[vec![0.0]]);
        let d = Dendrogram::build(&one, Linkage::Average);
        assert_eq!(d.cut_at_count(1), vec![0]);
        assert!(d.merges().is_empty());
    }

    #[test]
    fn upgma_average_is_exact_mean_of_pairs() {
        // Clusters {0,1} and {2}: UPGMA distance must be mean(d02, d12).
        let dm = DistanceMatrix::from_full(&[
            vec![0.0, 0.1, 0.4],
            vec![0.1, 0.0, 0.6],
            vec![0.4, 0.6, 0.0],
        ]);
        let d = Dendrogram::build(&dm, Linkage::Average);
        assert!((d.merges()[1].distance - 0.5).abs() < 1e-12);
    }

    #[test]
    fn identical_jaccard_sets_merge_at_zero() {
        let sets = vec![vec!["a", "b"], vec!["a", "b"], vec!["c"]];
        let dm = DistanceMatrix::from_sets(&sets, |a, b| jaccard_dissimilarity(a, b));
        let d = Dendrogram::build(&dm, Linkage::Average);
        assert_eq!(d.merges()[0].distance, 0.0);
        let labels = d.cut_at_distance(0.0);
        assert_eq!(labels[0], labels[1]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn cache_matches_rescan_on_tie_heavy_matrix() {
        // Many exactly-equal distances force the smallest-index
        // tie-break on nearly every merge.
        let n = 9;
        let mut full = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = [0.25, 0.5, 0.25, 0.75][(i + j) % 4];
                full[i][j] = d;
                full[j][i] = d;
            }
        }
        let dm = DistanceMatrix::from_full(&full);
        for linkage in [Linkage::Average, Linkage::Single, Linkage::Complete] {
            let cache = Dendrogram::build(&dm, linkage);
            let rescan = Dendrogram::build_rescan(&dm, linkage);
            assert_eq!(cache, rescan, "{linkage:?}");
        }
    }

    #[test]
    fn nan_distances_no_longer_panic() {
        // Regression: before the NaN-last total order, a round in which
        // every remaining pairwise distance was NaN left the closest-pair
        // sentinel untouched and `build` panicked indexing
        // `clusters[usize::MAX]`. Leaves 0..3 are mutually NaN, so after
        // the finite pairs merge, only NaN distances remain.
        let n = 4;
        let data = vec![f64::NAN; n * (n - 1) / 2];
        let dm = DistanceMatrix::from_condensed(n, data);
        let d = Dendrogram::build(&dm, Linkage::Average);
        assert_eq!(d.merges().len(), n - 1);
        // All-NaN: merges happen in smallest-index order at NaN distance.
        assert_eq!((d.merges()[0].left, d.merges()[0].right), (0, 1));
        assert!(d.merges().iter().all(|m| m.distance.is_nan()));
        // NaN merges are never applied by a distance cut: all singletons.
        let labels = d.cut_at_distance(f64::INFINITY);
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), n);
        // Count cuts still work (they ignore distances entirely).
        assert!(d.cut_at_count(1).iter().all(|&l| l == 0));
    }

    #[test]
    fn nan_distances_sort_after_finite_ones() {
        // 0-1 finite and close, 2 is NaN-distant from everyone: the
        // finite pair must merge first, the NaN leaf last.
        let dm = DistanceMatrix::from_condensed(3, vec![0.1, f64::NAN, f64::NAN]);
        for build in [Dendrogram::build, Dendrogram::build_rescan] {
            let d = build(&dm, Linkage::Average);
            assert_eq!((d.merges()[0].left, d.merges()[0].right), (0, 1));
            assert_eq!(d.merges()[0].distance, 0.1);
            assert!(d.merges()[1].distance.is_nan());
            // Cutting at any finite threshold keeps the NaN leaf apart.
            let labels = d.cut_at_distance(10.0);
            assert_eq!(labels[0], labels[1]);
            assert_ne!(labels[0], labels[2]);
        }
    }

    #[test]
    fn partial_nan_matrix_matches_rescan_oracle() {
        let dm = DistanceMatrix::from_condensed(
            5,
            vec![0.3, f64::NAN, 0.6, 0.2, f64::NAN, 0.4, f64::NAN, 0.5, 0.1, f64::NAN],
        );
        for linkage in [Linkage::Average, Linkage::Single, Linkage::Complete] {
            let cache = Dendrogram::build(&dm, linkage);
            let rescan = Dendrogram::build_rescan(&dm, linkage);
            assert_eq!(cache.merges().len(), rescan.merges().len());
            for (a, b) in cache.merges().iter().zip(rescan.merges()) {
                assert_eq!((a.left, a.right, a.size), (b.left, b.right, b.size), "{linkage:?}");
                assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "{linkage:?}");
            }
        }
    }
}
