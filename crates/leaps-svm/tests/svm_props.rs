//! Property tests for the SVM stack: the kernel and the SMO solver must
//! uphold their mathematical contracts on arbitrary inputs.

use leaps_svm::data::{Sample, TrainSet};
use leaps_svm::kernel::Kernel;
use leaps_svm::smo::{train, SmoParams};
use proptest::prelude::*;

fn vec_f64(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-5.0f64..5.0, dim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The Gaussian kernel is symmetric and bounded in (0, 1].
    #[test]
    fn kernel_symmetry_and_bounds(
        a in vec_f64(4),
        b in vec_f64(4),
        sigma2 in 0.1f64..20.0,
    ) {
        let g = Kernel::Gaussian { sigma2 };
        let kab = g.eval(&a, &b);
        prop_assert_eq!(kab.to_bits(), g.eval(&b, &a).to_bits());
        // exp(-d²/σ²) underflows to exactly 0.0 for huge distances, so the
        // bound is [0, 1], open only in theory.
        prop_assert!((0.0..=1.0).contains(&kab));
        prop_assert!((g.eval(&a, &a) - 1.0).abs() < 1e-12);
    }

    /// On well-separated data the solver classifies every training point
    /// correctly, regardless of λ.
    #[test]
    fn separable_data_is_fit_exactly(
        offsets in prop::collection::vec((0.0f64..0.2, 0.0f64..0.2), 3..12),
        lambda in 1.0f64..100.0,
    ) {
        let mut samples = Vec::new();
        for &(dx, dy) in &offsets {
            samples.push(Sample::new(vec![dx, dy], 1.0, 1.0));
            samples.push(Sample::new(vec![2.0 + dx, 2.0 + dy], -1.0, 1.0));
        }
        let set = TrainSet::new(samples).expect("valid");
        let model = train(
            &set,
            Kernel::Gaussian { sigma2: 2.0 },
            &SmoParams { lambda, ..Default::default() },
        );
        for s in set.samples() {
            prop_assert_eq!(model.predict(&s.x), s.y);
        }
    }

    /// The dual solution respects 0 ≤ αᵢ ≤ λ·cᵢ and Σ αᵢ yᵢ = 0 for any
    /// weights and any (mild) overlap.
    #[test]
    fn dual_constraints_hold_under_overlap(
        points in prop::collection::vec((0.0f64..1.0, 0.0f64..=1.0), 6..20),
        lambda in 0.5f64..50.0,
    ) {
        let n = points.len();
        let samples: Vec<Sample> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, c))| {
                let y = if i % 2 == 0 { 1.0 } else { -1.0 };
                Sample::new(vec![x, x * 0.5], y, c.max(0.01))
            })
            .collect();
        let set = TrainSet::new(samples).expect("both classes by parity");
        let model = train(
            &set,
            Kernel::Gaussian { sigma2: 1.0 },
            &SmoParams { lambda, ..Default::default() },
        );
        let mut balance = 0.0;
        for (ay, _) in model.dual_coefficients() {
            balance += ay;
        }
        prop_assert!(balance.abs() < 1e-6, "balance {balance} over {n} samples");
        prop_assert!(model.support_vector_count() <= n);
    }

    /// Zero-weight samples never appear as support vectors.
    #[test]
    fn zero_weight_never_supports(
        xs in prop::collection::vec(0.0f64..1.0, 6..16),
        lambda in 1.0f64..50.0,
    ) {
        let n = xs.len();
        let samples: Vec<Sample> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let y = if i < n / 2 { 1.0 } else { -1.0 };
                // Every odd sample gets weight 0.
                let c = if i % 2 == 1 { 0.0 } else { 1.0 };
                Sample::new(vec![x], y, c)
            })
            .collect();
        let Ok(set) = TrainSet::new(samples) else {
            return Ok(()); // single-class split; nothing to test
        };
        let model = train(
            &set,
            Kernel::Gaussian { sigma2: 1.0 },
            &SmoParams { lambda, ..Default::default() },
        );
        for (ay, sv) in model.dual_coefficients() {
            // Match the support vector back to samples; at least one
            // matching sample must have positive weight.
            let any_weighted = set
                .samples()
                .iter()
                .any(|s| s.x == sv && s.c > 0.0);
            prop_assert!(any_weighted, "alpha_y {ay} on zero-weight point");
        }
    }
}
