//! The trained SVM model: support vectors, dual coefficients and bias.

use crate::data::Sample;
use crate::kernel::Kernel;

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
#[derive(Debug, Clone, PartialEq)]
pub struct SvmModel {
    support_x: Vec<Vec<f64>>,
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
        let mut support_x = Vec::new();
        let mut alpha_y = Vec::new();
        for (sample, &a) in samples.iter().zip(alpha) {
            if a > 0.0 {
                support_x.push(sample.x.clone());
                alpha_y.push(a * sample.y);
            }
        }
        SvmModel { support_x, alpha_y, bias, kernel, iterations }
    }

    /// Reassembles a model from persisted parts. `support_x` and
    /// `alpha_y` must be parallel.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or the kernel fails
    /// [`Kernel::validate`].
    #[must_use]
    pub fn from_parts(
        support_x: Vec<Vec<f64>>,
        alpha_y: Vec<f64>,
        bias: f64,
        kernel: Kernel,
    ) -> SvmModel {
        assert_eq!(support_x.len(), alpha_y.len(), "parts length mismatch");
        check_kernel(kernel);
        SvmModel { support_x, alpha_y, bias, kernel, iterations: 0 }
    }

    /// The raw decision value `f(x)`.
    #[must_use]
    pub fn decision(&self, x: &[f64]) -> f64 {
        let mut sum = self.bias;
        for (sv, &ay) in self.support_x.iter().zip(&self.alpha_y) {
            sum += ay * self.kernel.eval(sv, x);
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
        self.support_x.len()
    }

    /// Iterates `(αᵢ·yᵢ, support vector)` pairs.
    pub fn dual_coefficients(&self) -> impl Iterator<Item = (f64, &Vec<f64>)> {
        self.alpha_y.iter().copied().zip(self.support_x.iter())
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

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SvmModel {
        // Hand-built: two support vectors at ±1 with a linear kernel →
        // f(x) = α(k(1,x) − k(−1,x)) = α·2x.
        SvmModel::from_training(
            &[
                Sample::new(vec![1.0], 1.0, 1.0),
                Sample::new(vec![-1.0], -1.0, 1.0),
                Sample::new(vec![5.0], 1.0, 1.0), // α = 0 → not a support vector
            ],
            &[0.5, 0.5, 0.0],
            0.0,
            Kernel::Linear,
            7,
        )
    }

    #[test]
    fn zero_alpha_samples_are_dropped() {
        let m = model();
        assert_eq!(m.support_vector_count(), 2);
        assert_eq!(m.iterations(), 7);
    }

    #[test]
    fn decision_matches_hand_computation() {
        let m = model();
        // f(x) = 0.5·x − 0.5·(−x) = x.
        assert!((m.decision(&[2.0]) - 2.0).abs() < 1e-12);
        assert!((m.decision(&[-3.0]) + 3.0).abs() < 1e-12);
    }

    #[test]
    fn predict_uses_sign_with_zero_positive() {
        let m = model();
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
            Kernel::Linear,
            1,
        );
        assert!((m.decision(&[0.0]) - 1.5).abs() < 1e-12);
        assert_eq!(m.bias(), 1.5);
    }
}
