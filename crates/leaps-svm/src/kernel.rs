//! Kernel functions for the SVM.

/// A kernel `k(a, b)` on the feature space.
///
/// The paper uses the Gaussian (RBF) kernel
/// `k(xᵢ, xⱼ) = exp(−‖xᵢ − xⱼ‖² / σ²)`; linear and polynomial kernels are
/// provided for baselines and tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// `k(a, b) = a · b`.
    Linear,
    /// `k(a, b) = exp(−‖a − b‖² / σ²)` with radius parameter `σ²`.
    Gaussian {
        /// The radius parameter `σ²` (must be positive).
        sigma2: f64,
    },
    /// `k(a, b) = (a · b + coef0)^degree`.
    Polynomial {
        /// Polynomial degree.
        degree: u32,
        /// Additive constant.
        coef0: f64,
    },
}

impl Kernel {
    /// Checks the kernel's parameters. Models and the SMO solver check
    /// once at construction, so [`Kernel::eval`] need not check per call.
    ///
    /// # Errors
    ///
    /// A one-line reason if a Gaussian radius `σ²` is not finite and
    /// positive, or a polynomial `coef0` is not finite.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Kernel::Gaussian { sigma2 } if !(sigma2.is_finite() && sigma2 > 0.0) => {
                Err(format!("Gaussian kernel requires a finite sigma2 > 0, got {sigma2:?}"))
            }
            Kernel::Polynomial { coef0, .. } if !coef0.is_finite() => {
                Err(format!("polynomial kernel requires a finite coef0, got {coef0:?}"))
            }
            _ => Ok(()),
        }
    }

    /// Evaluates the kernel.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the vectors differ in length, or if a Gaussian
    /// kernel was constructed with `sigma2 <= 0` (see
    /// [`Kernel::validate`]).
    #[must_use]
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "kernel arguments differ in dimension");
        let raw = match *self {
            Kernel::Gaussian { .. } => {
                let mut d2 = 0.0;
                for (x, y) in a.iter().zip(b) {
                    let d = x - y;
                    d2 += d * d;
                }
                d2
            }
            Kernel::Linear | Kernel::Polynomial { .. } => {
                // −0.0 is the exact additive identity (as in `Sum for
                // f64`): an all-zero product sum keeps its sign.
                let mut dot = -0.0;
                for (x, y) in a.iter().zip(b) {
                    dot += x * y;
                }
                dot
            }
        };
        self.finish(raw)
    }

    /// The kernel value from its raw sum over the dimensions, summed in
    /// dimension order: the squared distance `‖a − b‖²` (from `0.0`) for
    /// the Gaussian kernel, the dot product `a · b` (from `−0.0`)
    /// otherwise. The one home of each kernel's final expression, shared
    /// by [`Kernel::eval`] and the blocked decision of
    /// [`SvmModel`](crate::SvmModel), so both produce the same bits.
    #[must_use]
    pub(crate) fn finish(&self, raw: f64) -> f64 {
        match *self {
            Kernel::Linear => raw,
            Kernel::Gaussian { sigma2 } => {
                debug_assert!(sigma2 > 0.0, "Gaussian kernel requires sigma2 > 0");
                (-raw / sigma2).exp()
            }
            Kernel::Polynomial { degree, coef0 } => (raw + coef0).powi(degree as i32),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_is_dot_product() {
        assert_eq!(Kernel::Linear.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn gaussian_is_one_at_zero_distance_and_decays() {
        let k = Kernel::Gaussian { sigma2: 2.0 };
        assert_eq!(k.eval(&[1.0, 1.0], &[1.0, 1.0]), 1.0);
        let near = k.eval(&[0.0, 0.0], &[0.1, 0.0]);
        let far = k.eval(&[0.0, 0.0], &[1.0, 0.0]);
        assert!(near > far);
        assert!(far > 0.0);
        // exp(-1/2) at distance² = 1.
        assert!((far - (-0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn gaussian_is_symmetric() {
        let k = Kernel::Gaussian { sigma2: 0.7 };
        let a = [0.2, 0.9, 0.4];
        let b = [0.8, 0.1, 0.5];
        assert_eq!(k.eval(&a, &b), k.eval(&b, &a));
    }

    #[test]
    fn polynomial_kernel() {
        let k = Kernel::Polynomial { degree: 2, coef0: 1.0 };
        // (1*1 + 1)² = 4
        assert_eq!(k.eval(&[1.0], &[1.0]), 4.0);
    }

    #[test]
    fn validate_rejects_bad_radius_and_coefficients() {
        for sigma2 in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(Kernel::Gaussian { sigma2 }.validate().is_err(), "{sigma2}");
        }
        assert!(Kernel::Gaussian { sigma2: 2.0 }.validate().is_ok());
        assert!(Kernel::Polynomial { degree: 2, coef0: f64::NAN }.validate().is_err());
        assert!(Kernel::Linear.validate().is_ok());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sigma2 > 0")]
    fn gaussian_rejects_nonpositive_radius() {
        let _ = Kernel::Gaussian { sigma2: 0.0 }.eval(&[0.0], &[0.0]);
    }
}
