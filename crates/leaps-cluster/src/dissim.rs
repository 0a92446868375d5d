//! Set dissimilarity (paper Eq. 1) and pairwise distance matrices.

/// Jaccard set dissimilarity between two **sorted, deduplicated** slices:
/// `1 − |a ∩ b| / |a ∪ b|` (Eq. 1).
///
/// Two empty sets are defined to be identical (dissimilarity 0).
///
/// ```
/// use leaps_cluster::dissim::jaccard_dissimilarity;
/// let a = ["kernel32", "ntdll"];
/// let b = ["ntdll", "ws2_32"];
/// assert!((jaccard_dissimilarity(&a, &b) - (1.0 - 1.0 / 3.0)).abs() < 1e-12);
/// ```
#[must_use]
pub fn jaccard_dissimilarity<T: Ord>(a: &[T], b: &[T]) -> f64 {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "input a must be sorted+deduped");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "input b must be sorted+deduped");
    let mut i = 0;
    let mut j = 0;
    let mut intersection = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                intersection += 1;
                i += 1;
                j += 1;
            }
        }
    }
    jaccard_from_counts(a.len(), b.len(), intersection)
}

/// Eq. 1 from set sizes alone: the dissimilarity of an `a`-element and a
/// `b`-element set sharing `intersection` elements.
///
/// This is the one formula behind both [`jaccard_dissimilarity`] and the
/// feature encoder's interned cluster assignment, so the two produce the
/// same bits for the same sets. Disjoint sets short-cut to `1.0`, the
/// exact value of `1 − 0/|a ∪ b|`.
#[inline]
pub(crate) fn jaccard_from_counts(a: usize, b: usize, intersection: usize) -> f64 {
    debug_assert!(intersection <= a.min(b), "intersection larger than a set");
    if intersection == 0 {
        return if a == 0 && b == 0 { 0.0 } else { 1.0 };
    }
    let union = a + b - intersection;
    1.0 - intersection as f64 / union as f64
}

/// A symmetric pairwise distance matrix with zero diagonal, stored in
/// condensed (upper-triangle) form.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    /// Condensed upper triangle, row-major: entry for `(i, j)` with
    /// `i < j` at index `i*n − i*(i+1)/2 + (j − i − 1)`.
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Builds the matrix by applying `dist` to every pair of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `dist` returns a negative or non-finite value.
    #[must_use]
    pub fn from_sets<T>(items: &[T], mut dist: impl FnMut(&T, &T) -> f64) -> Self {
        let n = items.len();
        let mut data = Vec::with_capacity(n * (n.saturating_sub(1)) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                let d = dist(&items[i], &items[j]);
                assert!(d.is_finite() && d >= 0.0, "invalid distance {d} for pair ({i},{j})");
                data.push(d);
            }
        }
        DistanceMatrix { n, data }
    }

    /// Parallel [`DistanceMatrix::from_sets`]: upper-triangle rows fan
    /// out across threads (see `leaps_par`) and are concatenated in row
    /// order, so the result is bit-identical to the serial builder at
    /// any thread count. Requires `Fn` (not `FnMut`) because the metric
    /// is evaluated concurrently.
    ///
    /// # Panics
    ///
    /// Panics if `dist` returns a negative or non-finite value.
    #[must_use]
    pub fn from_sets_parallel<T: Sync>(items: &[T], dist: impl Fn(&T, &T) -> f64 + Sync) -> Self {
        let n = items.len();
        let row_tails = leaps_par::par_map_indexed(n.saturating_sub(1), |i| {
            ((i + 1)..n)
                .map(|j| {
                    let d = dist(&items[i], &items[j]);
                    assert!(d.is_finite() && d >= 0.0, "invalid distance {d} for pair ({i},{j})");
                    d
                })
                .collect::<Vec<f64>>()
        });
        let mut data = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for tail in row_tails {
            data.extend(tail);
        }
        DistanceMatrix { n, data }
    }

    /// Builds a matrix directly from its condensed upper triangle
    /// (row-major `(i, j)` entries with `i < j`; see the `data` field
    /// docs for the exact layout).
    ///
    /// Unlike [`DistanceMatrix::from_sets`] and
    /// [`DistanceMatrix::from_full`], entries are taken **as-is**:
    /// non-finite values are permitted. This is the constructor for
    /// dissimilarities carried out of degraded or fault-injected
    /// telemetry — `Dendrogram::build` orders any NaN entry
    /// deterministically *after* every finite distance instead of
    /// panicking on it.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n * (n - 1) / 2`.
    #[must_use]
    pub fn from_condensed(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            n * n.saturating_sub(1) / 2,
            "condensed length must be n*(n-1)/2 for n = {n}"
        );
        DistanceMatrix { n, data }
    }

    /// Tolerance for the diagonal and symmetry checks of
    /// [`DistanceMatrix::from_full`]: upstream arithmetic legitimately
    /// produces `-0.0` or O(1e-17) rounding residue on the diagonal.
    const FULL_MATRIX_EPS: f64 = 1e-12;

    /// Builds a matrix from an explicit full square matrix.
    ///
    /// # Panics
    ///
    /// Panics if `full` is not square/symmetric with a zero diagonal
    /// (both checked to within [`Self::FULL_MATRIX_EPS`]), or if any
    /// entry is non-finite — use [`DistanceMatrix::from_condensed`] to
    /// carry non-finite dissimilarities deliberately.
    #[must_use]
    #[allow(clippy::needless_range_loop)] // dense matrix code reads best indexed
    pub fn from_full(full: &[Vec<f64>]) -> Self {
        let n = full.len();
        for (i, row) in full.iter().enumerate() {
            assert_eq!(row.len(), n, "matrix not square");
            assert!(row[i].abs() < Self::FULL_MATRIX_EPS, "nonzero diagonal {} at {i}", row[i]);
        }
        let mut data = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                // Check finiteness first: a NaN would otherwise fail the
                // symmetry comparison with a misleading message.
                assert!(
                    full[i][j].is_finite(),
                    "non-finite distance {} at ({i},{j}); use from_condensed for that",
                    full[i][j]
                );
                assert!(
                    (full[i][j] - full[j][i]).abs() < 1e-12,
                    "matrix not symmetric at ({i},{j})"
                );
                data.push(full[i][j]);
            }
        }
        DistanceMatrix { n, data }
    }

    /// Number of items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty (zero items).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance between items `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        if i == j {
            return 0.0;
        }
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        self.data[lo * self.n - lo * (lo + 1) / 2 + (hi - lo - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sets_have_zero_dissimilarity() {
        let a = [1, 2, 3];
        assert_eq!(jaccard_dissimilarity(&a, &a), 0.0);
    }

    #[test]
    fn disjoint_sets_have_unit_dissimilarity() {
        assert_eq!(jaccard_dissimilarity(&[1, 2], &[3, 4]), 1.0);
    }

    #[test]
    fn empty_set_edge_cases() {
        let empty: [i32; 0] = [];
        assert_eq!(jaccard_dissimilarity(&empty, &empty), 0.0);
        assert_eq!(jaccard_dissimilarity(&empty, &[1]), 1.0);
    }

    #[test]
    fn partial_overlap_matches_formula() {
        // |∩| = 2, |∪| = 4 → 1 − 0.5.
        assert!((jaccard_dissimilarity(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn symmetric() {
        let a = ["x", "y", "z"];
        let b = ["w", "y"];
        assert_eq!(jaccard_dissimilarity(&a, &b), jaccard_dissimilarity(&b, &a));
    }

    #[test]
    fn matrix_indexing() {
        let items = [vec![1], vec![1, 2], vec![3]];
        let dm = DistanceMatrix::from_sets(&items, |a, b| jaccard_dissimilarity(a, b));
        assert_eq!(dm.len(), 3);
        assert_eq!(dm.get(0, 0), 0.0);
        assert!((dm.get(0, 1) - 0.5).abs() < 1e-12);
        assert_eq!(dm.get(0, 2), 1.0);
        assert_eq!(dm.get(1, 0), dm.get(0, 1));
    }

    #[test]
    fn from_full_roundtrip() {
        let full = vec![vec![0.0, 0.3, 0.7], vec![0.3, 0.0, 0.9], vec![0.7, 0.9, 0.0]];
        let dm = DistanceMatrix::from_full(&full);
        for (i, row) in full.iter().enumerate() {
            for (j, &expect) in row.iter().enumerate() {
                assert!((dm.get(i, j) - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "not symmetric")]
    fn from_full_rejects_asymmetry() {
        let _ = DistanceMatrix::from_full(&[vec![0.0, 0.1], vec![0.2, 0.0]]);
    }

    #[test]
    fn from_full_tolerates_rounding_residue_on_diagonal() {
        // Regression: `-0.0` and O(1e-17) residue from upstream float
        // arithmetic used to trip an exact `== 0.0` diagonal check.
        let full = vec![vec![-0.0, 0.4], vec![0.4, 1e-17]];
        let dm = DistanceMatrix::from_full(&full);
        assert_eq!(dm.get(0, 0), 0.0);
        assert_eq!(dm.get(1, 1), 0.0);
        assert!((dm.get(0, 1) - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "nonzero diagonal")]
    fn from_full_still_rejects_real_nonzero_diagonal() {
        let _ = DistanceMatrix::from_full(&[vec![0.5, 0.1], vec![0.1, 0.0]]);
    }

    #[test]
    fn parallel_matches_serial() {
        let items: Vec<Vec<i32>> =
            (0..17).map(|i| (0..=(i % 6)).map(|v| v * (i + 1)).collect()).collect();
        let serial = DistanceMatrix::from_sets(&items, |a, b| jaccard_dissimilarity(a, b));
        let parallel =
            DistanceMatrix::from_sets_parallel(&items, |a, b| jaccard_dissimilarity(a, b));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_empty_and_singleton() {
        let none: Vec<Vec<i32>> = vec![];
        assert!(DistanceMatrix::from_sets_parallel(&none, |_, _| 0.0).is_empty());
        let one = vec![vec![1]];
        let dm = DistanceMatrix::from_sets_parallel(&one, |_, _| unreachable!());
        assert_eq!(dm.len(), 1);
        assert_eq!(dm.get(0, 0), 0.0);
    }

    #[test]
    fn from_condensed_roundtrips_and_allows_nan() {
        let dm = DistanceMatrix::from_condensed(3, vec![0.2, f64::NAN, 0.9]);
        assert_eq!(dm.len(), 3);
        assert_eq!(dm.get(0, 1), 0.2);
        assert!(dm.get(0, 2).is_nan());
        assert_eq!(dm.get(2, 1), 0.9);
        assert_eq!(dm.get(1, 1), 0.0);
        assert!(DistanceMatrix::from_condensed(0, Vec::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "condensed length")]
    fn from_condensed_rejects_wrong_length() {
        let _ = DistanceMatrix::from_condensed(4, vec![0.1; 5]);
    }

    #[test]
    #[should_panic(expected = "non-finite distance")]
    fn from_full_rejects_nan_with_clear_message() {
        // A NaN used to trip the *symmetry* assert (NaN − NaN = NaN)
        // with a misleading message; it is now rejected explicitly.
        let _ = DistanceMatrix::from_full(&[vec![0.0, f64::NAN], vec![f64::NAN, 0.0]]);
    }

    #[test]
    fn empty_matrix() {
        let items: Vec<Vec<i32>> = vec![];
        let dm = DistanceMatrix::from_sets(&items, |a, b| jaccard_dissimilarity(a, b));
        assert!(dm.is_empty());
    }
}
