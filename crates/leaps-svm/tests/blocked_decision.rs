//! `SvmModel::decision` scores a window against one blocked
//! support-vector array. It must return the bits of the plain Eq. 5 sum,
//! `b + Σᵢ αᵢyᵢ·k(xᵢ, x)` over per-SV `Kernel::eval` calls in SV order,
//! for radii across the CV grid and every SV count, whether or not it
//! fills the last block.

use leaps_svm::kernel::Kernel;
use leaps_svm::model::SvmModel;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The reference decision: one `Kernel::eval` per support vector.
fn reference(model: &SvmModel, x: &[f64]) -> f64 {
    let mut sum = model.bias();
    for (alpha_y, sv) in model.dual_coefficients() {
        sum += alpha_y * model.kernel().eval(&sv, x);
    }
    sum
}

const KERNELS: [Kernel; 3] = [
    Kernel::Gaussian { sigma2: 2.0 },
    Kernel::Gaussian { sigma2: 8.0 },
    Kernel::Gaussian { sigma2: 32.0 },
];

/// Uniform in `[lo, hi)`.
fn uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// A model of `count` random support vectors of dimension `dim`, with
/// features in `[0, 1]` as the scaled encoder emits them.
fn model(rng: &mut StdRng, count: usize, dim: usize, kernel: Kernel) -> SvmModel {
    let support: Vec<Vec<f64>> =
        (0..count).map(|_| (0..dim).map(|_| uniform(rng, 0.0, 1.0)).collect()).collect();
    let alpha_y: Vec<f64> = (0..count).map(|_| uniform(rng, -100.0, 100.0)).collect();
    SvmModel::from_parts(support, alpha_y, uniform(rng, -1.0, 1.0), kernel)
}

fn assert_bit_identical(model: &SvmModel, x: &[f64], what: &str) {
    let (got, want) = (model.decision(x), reference(model, x));
    assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got:?} vs {want:?}");
}

#[test]
fn every_sv_count_and_kernel_matches_the_per_sv_sum_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(18);
    // 1..=17 covers 1, L − 1, L and L + 1 for lane counts 4 and 8; 557 is
    // a paper-scale WSVM model.
    for count in (1..=17).chain([557]) {
        for kernel in KERNELS {
            let m = model(&mut rng, count, 30, kernel);
            assert_eq!(m.support_vector_count(), count);
            for _ in 0..20 {
                let x: Vec<f64> = (0..30).map(|_| uniform(&mut rng, 0.0, 1.0)).collect();
                assert_bit_identical(&m, &x, &format!("{count} SVs, {kernel:?}"));
            }
        }
    }
}

#[test]
fn signed_zeros_and_stored_vectors_round_trip() {
    // Signed zeros in the support vectors and the window give signed
    // zero differences; the block must sum them as `Kernel::eval` does.
    let support = vec![vec![-0.0, 0.0, 1.0], vec![0.0, -0.0, 0.0], vec![-1.0, 0.5, 0.25]];
    for kernel in KERNELS {
        let m = SvmModel::from_parts(support.clone(), vec![1.0, -2.0, 0.5], -0.0, kernel);
        for x in [[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [1.0, -1.0, 0.5]] {
            assert_bit_identical(&m, &x, &format!("{kernel:?} at {x:?}"));
        }
        // The persisted parts come back in SV order, bit for bit.
        let stored: Vec<Vec<u64>> =
            m.dual_coefficients().map(|(_, sv)| sv.iter().map(|v| v.to_bits()).collect()).collect();
        let given: Vec<Vec<u64>> =
            support.iter().map(|sv| sv.iter().map(|v| v.to_bits()).collect()).collect();
        assert_eq!(stored, given);
    }
    let empty = SvmModel::from_parts(Vec::new(), Vec::new(), 0.75, KERNELS[0]);
    assert_eq!(empty.decision(&[1.0, 2.0]), 0.75);
}
