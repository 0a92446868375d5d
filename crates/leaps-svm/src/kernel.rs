//! Kernel functions for the SVM.

/// A kernel `k(a, b)` on the feature space.
///
/// The paper uses the Gaussian (RBF) kernel
/// `k(xᵢ, xⱼ) = exp(−‖xᵢ − xⱼ‖² / σ²)` (Eq. 5), and it is the only one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// `k(a, b) = exp(−‖a − b‖² / σ²)` with radius parameter `σ²`.
    Gaussian {
        /// The radius parameter `σ²` (must be positive).
        sigma2: f64,
    },
}

impl Kernel {
    /// Checks the kernel's parameters. Models and the SMO solver check
    /// once at construction, so [`Kernel::eval`] need not check per call.
    ///
    /// # Errors
    ///
    /// A one-line reason if the Gaussian radius `σ²` is not finite and
    /// positive.
    pub fn validate(&self) -> Result<(), String> {
        let Kernel::Gaussian { sigma2 } = *self;
        if sigma2.is_finite() && sigma2 > 0.0 {
            Ok(())
        } else {
            Err(format!("Gaussian kernel requires a finite sigma2 > 0, got {sigma2:?}"))
        }
    }

    /// Evaluates the kernel.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the vectors differ in length, or if the kernel
    /// was constructed with `sigma2 <= 0` (see [`Kernel::validate`]).
    #[must_use]
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.finish(sq_dist(a, b))
    }

    /// The kernel value from the squared distance `‖a − b‖²`, summed
    /// from `0.0` in dimension order as [`sq_dist`] sums it. The one home
    /// of the kernel's final expression, shared by [`Kernel::eval`], the
    /// Gram matrices of the solver and the blocked decision of
    /// [`SvmModel`](crate::SvmModel), so all produce the same bits.
    #[must_use]
    pub(crate) fn finish(&self, d2: f64) -> f64 {
        let Kernel::Gaussian { sigma2 } = *self;
        debug_assert!(sigma2 > 0.0, "Gaussian kernel requires sigma2 > 0");
        (-d2 / sigma2).exp()
    }
}

/// The squared distance `‖a − b‖²`, summed from `0.0` in dimension
/// order. Swapping `a` and `b` negates each difference exactly, so the
/// sum is symmetric bit for bit.
///
/// # Panics
///
/// Panics (debug) if the vectors differ in length.
#[must_use]
pub(crate) fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "kernel arguments differ in dimension");
    let mut d2 = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        d2 += d * d;
    }
    d2
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn validate_rejects_bad_radius_and_coefficients() {
        for sigma2 in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(Kernel::Gaussian { sigma2 }.validate().is_err(), "{sigma2}");
        }
        assert!(Kernel::Gaussian { sigma2: 2.0 }.validate().is_ok());
        assert!(Kernel::Gaussian { sigma2: f64::MIN_POSITIVE }.validate().is_ok());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sigma2 > 0")]
    fn gaussian_rejects_nonpositive_radius() {
        let _ = Kernel::Gaussian { sigma2: 0.0 }.eval(&[0.0], &[0.0]);
    }
}
