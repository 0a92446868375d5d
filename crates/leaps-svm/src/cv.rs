//! Stratified k-fold cross-validation and (λ, σ²) grid search
//! ("we use 10-fold cross validation to tune the model parameter λ and σ²
//! on the training set").

use crate::data::{Sample, TrainSet};
use crate::kernel::Kernel;
use crate::smo::{self, SmoParams};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Model-selection criterion for the grid search.
///
/// LEAPS's training negatives are *noisy*: the mixed log contains benign
/// events labeled −1. Selecting hyper-parameters by raw validation
/// accuracy therefore degenerates — the best way to "fit" the noise is to
/// predict everything negative. [`Scoring::WeightedBalanced`] scores each
/// class separately, weighting every validation sample by its confidence
/// `cᵢ`, so mislabeled low-confidence points cannot dominate model
/// selection. With uniform weights it reduces to balanced accuracy, which
/// is the standard guard against one-class degeneration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scoring {
    /// Mean of per-class, confidence-weighted accuracies.
    #[default]
    WeightedBalanced,
}

/// Grid-search configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSearch {
    /// Candidate λ values (Eq. 2 trade-off parameter).
    pub lambdas: Vec<f64>,
    /// Candidate σ² values for the Gaussian kernel.
    pub sigma2s: Vec<f64>,
    /// Number of folds (the paper uses 10).
    pub folds: usize,
    /// Shuffle seed for fold assignment.
    pub seed: u64,
    /// Selection criterion.
    pub scoring: Scoring,
}

impl Default for GridSearch {
    fn default() -> Self {
        GridSearch {
            lambdas: vec![1.0, 10.0, 100.0],
            sigma2s: vec![2.0, 8.0, 32.0],
            folds: 10,
            seed: 0,
            scoring: Scoring::default(),
        }
    }
}

/// Result of a grid search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSearchResult {
    /// Best λ.
    pub lambda: f64,
    /// Best σ².
    pub sigma2: f64,
    /// Cross-validated accuracy of the best configuration.
    pub accuracy: f64,
}

/// Resumable grid-search state: the scores of the completed cells, a
/// prefix of the (λ, σ², fold) lexicographic cell order. `None` entries
/// are legitimate results (empty or degenerate folds), not gaps. Cells
/// are evaluated and checkpointed one (λ, σ²) chunk (all folds) at a
/// time, so a valid state always holds a whole number of chunks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CvState {
    /// Per-cell scores in cell order; length = completed cells.
    pub scores: Vec<Option<f64>>,
}

impl CvState {
    /// Checks that this state can resume a search over `cells` grid
    /// cells (see [`GridSearch::cell_count`]): at most one score per
    /// cell, each in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// A one-line reason naming the first violation.
    pub fn check(&self, cells: usize) -> Result<(), String> {
        if self.scores.len() > cells {
            return Err(format!("resume state has {} cells, grid only {cells}", self.scores.len()));
        }
        for (i, score) in self.scores.iter().enumerate() {
            if let Some(s) = *score {
                if !(0.0..=1.0).contains(&s) {
                    return Err(format!("resume state cell {i} has score {s:?}, outside [0, 1]"));
                }
            }
        }
        Ok(())
    }
}

impl GridSearch {
    /// Runs the grid search: for each (λ, σ²), stratified k-fold CV
    /// score; returns the best configuration (ties → first in grid
    /// order, so results are deterministic).
    ///
    /// The search computes the squared distances of the whole set once,
    /// and each (λ, σ²) chunk maps them to one Gaussian kernel (Gram)
    /// matrix. Its folds fan out across threads (see
    /// `leaps_par`); each fold's SMO solves on the fold's block of that
    /// matrix and is scored from its rows. Every entry is the same
    /// `kernel.eval` a per-fold matrix would hold, fold scores are
    /// averaged in fold order and the best cell is selected in grid
    /// order, making the result — including tie-breaking —
    /// bit-identical to training and predicting one fold model at a
    /// time, at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty or `folds < 2`.
    #[must_use]
    pub fn run(&self, set: &TrainSet) -> GridSearchResult {
        self.run_resumable(set, None, &mut |_| true).expect("non-checkpointing CV cannot pause")
    }

    /// The number of (λ, σ², fold) cells a search over `set` evaluates.
    /// A set with fewer samples per class than `folds` has fewer folds.
    #[must_use]
    pub fn cell_count(&self, set: &TrainSet) -> usize {
        self.lambdas.len()
            * self.sigma2s.len()
            * fold_count(&stratified_folds(set, self.folds, self.seed))
    }

    /// [`GridSearch::run`] with chunk-level checkpoint hooks.
    ///
    /// Cells are evaluated one (λ, σ²) chunk at a time (all folds of a
    /// chunk fan out across threads); after each chunk `checkpoint` is
    /// called with the accumulated [`CvState`]. Returning `false` pauses
    /// the search (`None` is returned). Passing the captured state back
    /// as `resume` skips every completed cell — each cell is a pure
    /// function of `set` and the fold assignment (itself derived from
    /// `self.seed`), so the resumed search selects the exact same
    /// configuration as an uninterrupted one, tie-breaking included. A
    /// resume state from a mid-chunk crash is truncated down to the last
    /// whole chunk; only the remaining chunks' matrices are rebuilt.
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty, `folds < 2`, or `resume` fails
    /// [`CvState::check`].
    pub fn run_resumable(
        &self,
        set: &TrainSet,
        resume: Option<CvState>,
        checkpoint: &mut dyn FnMut(&CvState) -> bool,
    ) -> Option<GridSearchResult> {
        assert!(!self.lambdas.is_empty() && !self.sigma2s.is_empty(), "empty grid");
        assert!(self.folds >= 2, "need at least 2 folds");
        let fold_of = stratified_folds(set, self.folds, self.seed);
        let n_folds = fold_count(&fold_of);
        let cells = self.lambdas.len() * self.sigma2s.len() * n_folds;
        let mut fold_scores = match resume {
            Some(mut state) => {
                if let Err(reason) = state.check(cells) {
                    panic!("{reason}");
                }
                // Realign to the last whole (λ, σ²) chunk.
                state.scores.truncate(state.scores.len() - state.scores.len() % n_folds);
                state.scores
            }
            None => Vec::new(),
        };

        let splits = fold_splits(&fold_of, n_folds);
        // The squared distances do not depend on the cell: built once, when
        // a chunk remains.
        let mut d2 = None;
        while fold_scores.len() < cells {
            // Chunks run in (λ, σ²) order; the matrix lives for one chunk.
            let chunk = fold_scores.len() / n_folds;
            let lambda = self.lambdas[chunk / self.sigma2s.len()];
            let kernel = Kernel::Gaussian { sigma2: self.sigma2s[chunk % self.sigma2s.len()] };
            let d2 = d2.get_or_insert_with(|| smo::sq_dists(set.samples()));
            let gram = smo::gram_of(d2, set.len(), kernel);
            leaps_obs::counter!("train.cv.gram_builds").inc();
            fold_scores.extend(leaps_par::par_map(&splits, |(train, val)| {
                let decisions = fold_decisions(set, &gram, train, val, lambda)?;
                Some(score_fold(set.samples(), val, &decisions))
            }));
            leaps_obs::counter!("train.cv.cells").add(n_folds as u64);
            // Chunk boundary: offer the completed prefix as a checkpoint.
            // (The final chunk is offered too, so a deadline hit after the
            // last cell still leaves a complete state on disk.)
            if !checkpoint(&CvState { scores: fold_scores.clone() }) {
                return None;
            }
        }

        // Deterministic reduce: average per cell in fold order, select in
        // grid order with strict `>` so ties keep the first grid entry —
        // exactly the serial algorithm.
        let mut best =
            GridSearchResult { lambda: self.lambdas[0], sigma2: self.sigma2s[0], accuracy: -1.0 };
        for (li, &lambda) in self.lambdas.iter().enumerate() {
            for (si, &sigma2) in self.sigma2s.iter().enumerate() {
                let base = (li * self.sigma2s.len() + si) * n_folds;
                let scores: Vec<f64> =
                    fold_scores[base..base + n_folds].iter().copied().flatten().collect();
                let acc = if scores.is_empty() {
                    0.0
                } else {
                    scores.iter().sum::<f64>() / scores.len() as f64
                };
                if acc > best.accuracy {
                    best = GridSearchResult { lambda, sigma2, accuracy: acc };
                }
            }
        }
        Some(best)
    }
}

/// Assigns each sample to a fold, stratified by label so every fold sees
/// both classes.
fn stratified_folds(set: &TrainSet, folds: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut assignment = vec![0usize; set.len()];
    for label in [1.0, -1.0] {
        let mut idx: Vec<usize> = set
            .samples()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.y == label)
            .map(|(i, _)| i)
            .collect();
        idx.shuffle(&mut rng);
        for (pos, &i) in idx.iter().enumerate() {
            assignment[i] = pos % folds;
        }
    }
    assignment
}

fn fold_count(fold_of: &[usize]) -> usize {
    fold_of.iter().copied().max().unwrap_or(0) + 1
}

/// Each fold's (training, validation) sample indices, in set order.
fn fold_splits(fold_of: &[usize], n_folds: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    (0..n_folds).map(|fold| (0..fold_of.len()).partition(|&i| fold_of[i] != fold)).collect()
}

/// The decision values `f(x)` at the fold's validation samples of the
/// SVM trained on its training split, or `None` if the fold is empty or
/// its training split degenerates to one class. `gram` is the chunk's
/// kernel matrix over the whole set; `train` and `val` index it.
fn fold_decisions(
    set: &TrainSet,
    gram: &[f64],
    train: &[usize],
    val: &[usize],
    lambda: f64,
) -> Option<Vec<f64>> {
    let samples = set.samples();
    let y: Vec<f64> = train.iter().map(|&t| samples[t].y).collect();
    if val.is_empty() || !(y.contains(&1.0) && y.contains(&-1.0)) {
        return None;
    }
    let cap: Vec<f64> = train.iter().map(|&t| lambda * samples[t].c).collect();
    let n = set.len();
    let row = |i: usize| &gram[i * n..(i + 1) * n];
    // Gather the fold's training block, so SMO reads contiguous rows.
    let mut k = Vec::with_capacity(train.len() * train.len());
    for &r in train {
        let full = row(r);
        k.extend(train.iter().map(|&c| full[c]));
    }
    let params = SmoParams { lambda, ..Default::default() };
    let (alpha, rho, _) = smo::solve(&k, &y, &cap, &params, None, 0, &mut |_| true)
        .expect("non-checkpointing SMO cannot pause");
    drop(k);
    // Support vectors in training order with their αᵢ·yᵢ: each decision
    // value sums exactly as `SvmModel::decision` does.
    let support: Vec<(usize, f64)> = train
        .iter()
        .zip(&alpha)
        .filter(|&(_, &a)| a > 0.0)
        .map(|(&t, &a)| (t, a * samples[t].y))
        .collect();
    let decisions = val
        .iter()
        .map(|&v| {
            let k_v = row(v);
            let mut sum = -rho;
            for &(t, alpha_y) in &support {
                sum += alpha_y * k_v[t];
            }
            sum
        })
        .collect();
    Some(decisions)
}

/// Scores the validation samples `val` (indices into `samples`) by their
/// decision values, [`Scoring::WeightedBalanced`]: `f(x) ≥ 0` predicts
/// `+1`, as `SvmModel::predict`.
fn score_fold(samples: &[Sample], val: &[usize], decisions: &[f64]) -> f64 {
    let correct = |v: usize, f: f64| (f >= 0.0) == (samples[v].y > 0.0);
    let mut class_scores = Vec::new();
    for label in [1.0, -1.0] {
        let mut weight_total = 0.0;
        let mut weight_correct = 0.0;
        for (&v, &f) in val.iter().zip(decisions).filter(|(&v, _)| samples[v].y == label) {
            weight_total += samples[v].c;
            if correct(v, f) {
                weight_correct += samples[v].c;
            }
        }
        if weight_total > 0.0 {
            class_scores.push(weight_correct / weight_total);
        }
    }
    if class_scores.is_empty() {
        0.0
    } else {
        class_scores.iter().sum::<f64>() / class_scores.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_set(n_per_class: usize) -> TrainSet {
        // Two well-separated 2-D blobs on a deterministic lattice.
        let mut samples = Vec::new();
        for i in 0..n_per_class {
            let dx = (i % 5) as f64 * 0.02;
            let dy = (i / 5) as f64 * 0.02;
            samples.push(Sample::new(vec![0.1 + dx, 0.1 + dy], 1.0, 1.0));
            samples.push(Sample::new(vec![0.8 + dx, 0.8 + dy], -1.0, 1.0));
        }
        TrainSet::new(samples).unwrap()
    }

    #[test]
    fn grid_search_finds_high_accuracy_on_separable_data() {
        let set = blob_set(25);
        let gs = GridSearch { folds: 5, ..Default::default() };
        let result = gs.run(&set);
        assert!(result.accuracy > 0.95, "{result:?}");
        assert!(gs.lambdas.contains(&result.lambda));
        assert!(gs.sigma2s.contains(&result.sigma2));
    }

    #[test]
    fn grid_search_is_deterministic() {
        let set = blob_set(20);
        let gs = GridSearch { folds: 4, ..Default::default() };
        assert_eq!(gs.run(&set), gs.run(&set));
    }

    #[test]
    fn stratified_folds_cover_both_classes() {
        let set = blob_set(20);
        let folds = stratified_folds(&set, 5, 1);
        for fold in 0..5 {
            let labels: Vec<f64> = set
                .samples()
                .iter()
                .zip(&folds)
                .filter(|(_, &f)| f == fold)
                .map(|(s, _)| s.y)
                .collect();
            assert!(labels.contains(&1.0), "fold {fold} lacks positives");
            assert!(labels.contains(&-1.0), "fold {fold} lacks negatives");
        }
    }

    #[test]
    fn pause_and_resume_matches_uninterrupted_run() {
        let set = blob_set(12);
        let gs = GridSearch {
            lambdas: vec![1.0, 10.0],
            sigma2s: vec![2.0, 8.0],
            folds: 3,
            ..Default::default()
        };
        let clean = gs.run(&set);
        let chunks = gs.lambdas.len() * gs.sigma2s.len();
        for pause_at in 1..chunks {
            let mut captured = None;
            let mut n = 0usize;
            let paused = gs.run_resumable(&set, None, &mut |state| {
                n += 1;
                captured = Some(state.clone());
                n < pause_at
            });
            assert!(paused.is_none(), "should have paused at chunk {pause_at}");
            let resumed =
                gs.run_resumable(&set, captured, &mut |_| true).expect("resumed run must complete");
            assert_eq!(resumed, clean, "resume after chunk {pause_at} diverged");
        }
    }

    #[test]
    fn resume_truncates_partial_chunk_to_boundary() {
        let set = blob_set(10);
        let gs = GridSearch {
            lambdas: vec![1.0, 10.0],
            sigma2s: vec![2.0],
            folds: 3,
            ..Default::default()
        };
        let clean = gs.run(&set);
        // Capture a full first chunk, then corrupt it with one extra cell
        // (simulating a mid-chunk crash artifact).
        let mut state = None;
        let _ = gs.run_resumable(&set, None, &mut |s| {
            state = Some(s.clone());
            false
        });
        let mut state = state.unwrap();
        state.scores.push(Some(0.0));
        let resumed = gs.run_resumable(&set, Some(state), &mut |_| true).unwrap();
        assert_eq!(resumed, clean);
    }

    /// The per-fold reference path the shared matrix replaced: clone the
    /// fold's training samples, train a model with the public solver and
    /// evaluate `SvmModel::decision` at the validation samples.
    fn reference_decisions(
        set: &TrainSet,
        (train, val): &(Vec<usize>, Vec<usize>),
        lambda: f64,
        sigma2: f64,
    ) -> Option<Vec<f64>> {
        let samples = set.samples();
        let train_set = TrainSet::new(train.iter().map(|&t| samples[t].clone()).collect()).ok()?;
        if val.is_empty() {
            return None;
        }
        let model = smo::train(
            &train_set,
            Kernel::Gaussian { sigma2 },
            &SmoParams { lambda, ..Default::default() },
        );
        Some(val.iter().map(|&v| model.decision(&samples[v].x)).collect())
    }

    /// Overlapping classes on a deterministic scramble with some labels
    /// flipped, so fits take many SMO iterations and miss some points.
    fn noisy_samples(n: usize) -> Vec<Sample> {
        (0..n)
            .map(|i| {
                let a = (i as f64 * 0.618_033_988_75).fract();
                let b = (i as f64 * 0.414_213_562_37).fract();
                let mut y = if a + 0.4 * b < 0.7 { 1.0 } else { -1.0 };
                if i % 7 == 3 {
                    y = -y;
                }
                Sample::new(vec![a, b, (a * b).sqrt()], y, 0.25 + 0.75 * ((i * 5) % 8) as f64 / 8.0)
            })
            .collect()
    }

    /// The sets the shared matrix is checked on: separable, noisy,
    /// partly zero-weighted, duplicated (with one point under both labels)
    /// and one whose folds can lose a class.
    fn test_sets() -> [(&'static str, TrainSet); 5] {
        let noisy = noisy_samples(60);
        let mut zero_weight = noisy.clone();
        for s in zero_weight.iter_mut().step_by(4) {
            s.c = 0.0;
        }
        let mut duplicates = noisy[..30].to_vec();
        duplicates.extend_from_slice(&noisy[..30]);
        duplicates.push(Sample::new(noisy[0].x.clone(), -noisy[0].y, 1.0));
        // One negative: the fold that validates it trains on positives only.
        let mut single_class: Vec<Sample> =
            (0..11).map(|i| Sample::new(vec![0.1 * f64::from(i)], 1.0, 1.0)).collect();
        single_class.push(Sample::new(vec![2.0], -1.0, 1.0));
        [
            ("blobs", blob_set(15)),
            ("noisy", TrainSet::new(noisy).unwrap()),
            ("zero-weight", TrainSet::new(zero_weight).unwrap()),
            ("duplicates", TrainSet::new(duplicates).unwrap()),
            ("single-class fold", TrainSet::new(single_class).unwrap()),
        ]
    }

    #[test]
    fn gram_is_the_kernel_of_every_pair_in_both_triangles() {
        for (name, set) in &test_sets() {
            let samples = set.samples();
            let n = samples.len();
            for sigma2 in [0.05, 2.0, 32.0] {
                let kernel = Kernel::Gaussian { sigma2 };
                let gram = smo::gram(samples, kernel);
                for i in 0..n {
                    for j in 0..n {
                        let want = kernel.eval(&samples[i].x, &samples[j].x);
                        assert_eq!(
                            gram[i * n + j].to_bits(),
                            want.to_bits(),
                            "{name}, σ² {sigma2}, ({i}, {j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shared_gram_scores_are_bit_identical_to_per_fold_models() {
        let sets = test_sets();
        let bits = |d: &Option<Vec<f64>>| {
            d.as_ref().map(|d| d.iter().map(|f| f.to_bits()).collect::<Vec<_>>())
        };
        let gs = GridSearch {
            lambdas: vec![1.0, 100.0],
            sigma2s: vec![0.05, 2.0],
            folds: 4,
            ..Default::default()
        };
        for (name, set) in &sets {
            let mut shared_scores = Vec::new();
            let _ = gs.run_resumable(set, None, &mut |state| {
                shared_scores = state.scores.clone();
                true
            });
            let fold_of = stratified_folds(set, gs.folds, gs.seed);
            let splits = fold_splits(&fold_of, fold_count(&fold_of));
            let mut reference_scores = Vec::new();
            for &lambda in &gs.lambdas {
                for &sigma2 in &gs.sigma2s {
                    let gram = smo::gram(set.samples(), Kernel::Gaussian { sigma2 });
                    for split in &splits {
                        let reference = reference_decisions(set, split, lambda, sigma2);
                        let shared = fold_decisions(set, &gram, &split.0, &split.1, lambda);
                        assert_eq!(
                            bits(&shared),
                            bits(&reference),
                            "{name}, λ {lambda}, σ² {sigma2}"
                        );
                        reference_scores
                            .push(reference.map(|d| score_fold(set.samples(), &split.1, &d)));
                    }
                }
            }
            let score_bits =
                |v: &[Option<f64>]| v.iter().map(|s| s.map(f64::to_bits)).collect::<Vec<_>>();
            assert_eq!(score_bits(&shared_scores), score_bits(&reference_scores), "{name}");
            let nones = shared_scores.iter().filter(|s| s.is_none()).count();
            if *name == "single-class fold" {
                assert!(nones > 0 && nones < shared_scores.len(), "{name}: {shared_scores:?}");
            } else {
                assert_eq!(nones, 0, "{name}: {shared_scores:?}");
            }
        }
    }

    #[test]
    fn resume_state_check_rejects_meaningless_scores() {
        assert!(CvState { scores: vec![Some(0.0), None, Some(1.0)] }.check(3).is_ok());
        assert!(CvState { scores: vec![Some(0.5); 4] }.check(3).is_err());
        for bad in [7.5, -0.25, f64::NAN, f64::INFINITY] {
            let err = CvState { scores: vec![None, Some(bad)] }.check(3).unwrap_err();
            assert!(err.contains("cell 1"), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "resume state has")]
    fn oversized_resume_state_rejected() {
        let set = blob_set(10);
        let gs =
            GridSearch { lambdas: vec![1.0], sigma2s: vec![2.0], folds: 2, ..Default::default() };
        let state = CvState { scores: vec![Some(0.5); 99] };
        let _ = gs.run_resumable(&set, Some(state), &mut |_| true);
    }

    #[test]
    #[should_panic(expected = "at least 2 folds")]
    fn rejects_single_fold() {
        let set = blob_set(5);
        let _ = GridSearch { folds: 1, ..Default::default() }.run(&set);
    }

    #[test]
    #[should_panic(expected = "empty grid")]
    fn rejects_empty_grid() {
        let set = blob_set(5);
        let _ = GridSearch { lambdas: vec![], ..Default::default() }.run(&set);
    }
}
