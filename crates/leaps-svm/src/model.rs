//! The trained SVM model: support vectors, dual coefficients and bias.

use crate::data::Sample;
use crate::kernel::Kernel;

/// Support vectors per block of the decision layout (see [`SvmModel`]).
const LANES: usize = 8;

/// A trained binary SVM classifier.
///
/// The decision function is Eq. 5 of the paper (plus the bias term the
/// solver computes):
///
/// ```text
/// f(x) = Σᵢ αᵢ yᵢ k(xᵢ, x) + b
/// ```
///
/// `x` is classified positive (benign) if `f(x) ≥ 0` and negative
/// (malicious) if `f(x) < 0`.
///
/// # Layout
///
/// The support vectors live in one contiguous array, dimension-major in
/// blocks of [`LANES`] vectors: block `b` is rows `b·dim .. (b+1)·dim`,
/// and lane `l` of row `k` holds feature `k` of support vector
/// `b·LANES + l`. Lanes past the last support vector hold `0.0` and are
/// never read into the sum. [`SvmModel::decision`] walks one block at a
/// time, so each feature of `x` is loaded once per block.
#[derive(Debug, Clone, PartialEq)]
pub struct SvmModel {
    blocks: Vec<[f64; LANES]>,
    /// Features per support vector.
    dim: usize,
    /// `αᵢ·yᵢ` per support vector.
    alpha_y: Vec<f64>,
    bias: f64,
    kernel: Kernel,
    iterations: usize,
}

impl SvmModel {
    /// Builds the model from a completed SMO solution, keeping only
    /// support vectors (`αᵢ > 0`).
    ///
    /// # Panics
    ///
    /// Panics if the kernel fails [`Kernel::validate`].
    #[must_use]
    pub fn from_training(
        samples: &[Sample],
        alpha: &[f64],
        bias: f64,
        kernel: Kernel,
        iterations: usize,
    ) -> SvmModel {
        check_kernel(kernel);
        let mut support = Vec::new();
        let mut alpha_y = Vec::new();
        for (sample, &a) in samples.iter().zip(alpha) {
            if a > 0.0 {
                support.push(sample.x.as_slice());
                alpha_y.push(a * sample.y);
            }
        }
        let dim = samples.first().map_or(0, |s| s.x.len());
        SvmModel { blocks: pack(&support, dim), dim, alpha_y, bias, kernel, iterations }
    }

    /// Reassembles a model from persisted parts. `support_x` and
    /// `alpha_y` must be parallel.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ, the support vectors differ in
    /// dimension, or the kernel fails [`Kernel::validate`].
    #[must_use]
    pub fn from_parts(
        support_x: Vec<Vec<f64>>,
        alpha_y: Vec<f64>,
        bias: f64,
        kernel: Kernel,
    ) -> SvmModel {
        assert_eq!(support_x.len(), alpha_y.len(), "parts length mismatch");
        check_kernel(kernel);
        let dim = support_x.first().map_or(0, Vec::len);
        assert!(support_x.iter().all(|sv| sv.len() == dim), "support vectors differ in dimension");
        let support: Vec<&[f64]> = support_x.iter().map(Vec::as_slice).collect();
        SvmModel { blocks: pack(&support, dim), dim, alpha_y, bias, kernel, iterations: 0 }
    }

    /// The raw decision value `f(x)`.
    ///
    /// Bit-identical to `bias + Σᵢ αᵢyᵢ·kernel.eval(xᵢ, x)` summed in
    /// support-vector order: each lane accumulates its raw sum in
    /// dimension order exactly as [`Kernel::eval`] does, and
    /// [`Kernel::finish`] (the scalar `exp`) runs once per support vector.
    #[must_use]
    pub fn decision(&self, x: &[f64]) -> f64 {
        debug_assert!(
            self.alpha_y.is_empty() || x.len() == self.dim,
            "kernel arguments differ in dimension"
        );
        let mut sum = self.bias;
        for (block, alpha_y) in self.block_rows().zip(self.alpha_y.chunks(LANES)) {
            let d2 = squared_distances(block, x);
            for (&ay, &r) in alpha_y.iter().zip(&d2) {
                sum += ay * self.kernel.finish(r);
            }
        }
        sum
    }

    /// The predicted label: `+1.0` if `f(x) ≥ 0`, else `-1.0`
    /// ("`x` is classified as malicious if `f(x) < 0`").
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> f64 {
        if self.decision(x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Number of support vectors.
    #[must_use]
    pub fn support_vector_count(&self) -> usize {
        self.alpha_y.len()
    }

    /// Iterates `(αᵢ·yᵢ, support vector)` pairs in support-vector order.
    pub fn dual_coefficients(&self) -> impl Iterator<Item = (f64, Vec<f64>)> + '_ {
        self.alpha_y.iter().enumerate().map(|(i, &ay)| {
            let rows = &self.blocks[i / LANES * self.dim..][..self.dim];
            (ay, rows.iter().map(|row| row[i % LANES]).collect())
        })
    }

    /// The row slices of each block, in support-vector order. A model
    /// of zero-dimensional vectors yields empty blocks, one per
    /// [`LANES`] support vectors.
    fn block_rows(&self) -> impl Iterator<Item = &[[f64; LANES]]> {
        let blocks = self.alpha_y.len().div_ceil(LANES);
        (0..blocks).map(|b| &self.blocks[b * self.dim..(b + 1) * self.dim])
    }

    /// Bias term `b`.
    #[must_use]
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// The kernel the model was trained with.
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// SMO iterations the training run took.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

/// Rejects an invalid kernel once, at model construction.
pub(crate) fn check_kernel(kernel: Kernel) {
    if let Err(reason) = kernel.validate() {
        panic!("{reason}");
    }
}

/// Packs `support` (each of length `dim`) into the blocked layout of
/// [`SvmModel`].
fn pack(support: &[&[f64]], dim: usize) -> Vec<[f64; LANES]> {
    let mut blocks = vec![[0.0; LANES]; support.len().div_ceil(LANES) * dim];
    for (i, sv) in support.iter().enumerate() {
        let rows = &mut blocks[i / LANES * dim..][..dim];
        for (row, &v) in rows.iter_mut().zip(*sv) {
            row[i % LANES] = v;
        }
    }
    blocks
}

/// `‖svₗ − x‖²` for the [`LANES`] support vectors of one block, each
/// summed from `0.0` in dimension order as [`Kernel::eval`] sums it.
fn squared_distances(block: &[[f64; LANES]], x: &[f64]) -> [f64; LANES] {
    let mut d2 = [0.0; LANES];
    for (row, &xk) in block.iter().zip(x) {
        for (acc, &v) in d2.iter_mut().zip(row) {
            let d = v - xk;
            *acc += d * d;
        }
    }
    d2
}

#[cfg(test)]
mod tests {
    use super::*;

    const KERNEL: Kernel = Kernel::Gaussian { sigma2: 1.0 };

    fn model() -> SvmModel {
        // Hand-built: two support vectors at ±1 →
        // f(x) = α(k(1, x) − k(−1, x)) = 0.5·(e^−(x−1)² − e^−(x+1)²),
        // which has the sign of x and is exactly 0 at x = 0.
        SvmModel::from_training(
            &[
                Sample::new(vec![1.0], 1.0, 1.0),
                Sample::new(vec![-1.0], -1.0, 1.0),
                Sample::new(vec![5.0], 1.0, 1.0), // α = 0 → not a support vector
            ],
            &[0.5, 0.5, 0.0],
            0.0,
            KERNEL,
            7,
        )
    }

    #[test]
    fn zero_alpha_samples_are_dropped() {
        let m = model();
        assert_eq!(m.support_vector_count(), 2);
        assert_eq!(m.iterations(), 7);
        let support: Vec<Vec<f64>> = m.dual_coefficients().map(|(_, sv)| sv).collect();
        assert_eq!(support, vec![vec![1.0], vec![-1.0]]);
    }

    #[test]
    fn decision_matches_hand_computation() {
        let m = model();
        let f = |x: f64| 0.5 * ((-(x - 1.0).powi(2)).exp() - (-(x + 1.0).powi(2)).exp());
        for x in [2.0, 0.5, -3.0] {
            assert!((m.decision(&[x]) - f(x)).abs() < 1e-12, "{x}");
        }
        assert!(m.decision(&[2.0]) > 0.0);
        assert!(m.decision(&[-3.0]) < 0.0);
    }

    #[test]
    fn predict_uses_sign_with_zero_positive() {
        let m = model();
        assert_eq!(m.decision(&[0.0]), 0.0);
        assert_eq!(m.predict(&[0.0]), 1.0);
        assert_eq!(m.predict(&[1.0]), 1.0);
        assert_eq!(m.predict(&[-1e-9]), -1.0);
    }

    #[test]
    fn bias_shifts_decision() {
        let m = SvmModel::from_training(
            &[Sample::new(vec![1.0], 1.0, 1.0), Sample::new(vec![-1.0], -1.0, 1.0)],
            &[0.5, 0.5],
            1.5,
            KERNEL,
            1,
        );
        assert_eq!(m.decision(&[0.0]), 1.5);
        assert!((m.decision(&[2.0]) - 1.5 - model().decision(&[2.0])).abs() < 1e-12);
        assert_eq!(m.bias(), 1.5);
    }
}
