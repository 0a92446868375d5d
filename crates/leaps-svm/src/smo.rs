//! Sequential minimal optimization for the weighted C-SVC dual (Eq. 4).
//!
//! We solve the LIBSVM-form dual
//!
//! ```text
//! min  ½ αᵀQα − eᵀα      Q_ij = yᵢ yⱼ k(xᵢ, xⱼ)
//! s.t. yᵀα = 0,   0 ≤ αᵢ ≤ Cᵢ        (Cᵢ = λ·cᵢ — per-sample box)
//! ```
//!
//! with maximal-violating-pair working-set selection (LIBSVM's WSS1) and
//! the standard two-variable analytic update. The per-sample upper bounds
//! `Cᵢ` are exactly how a weighted SVM differs from the ordinary C-SVC:
//! a training point with small `cᵢ` can contribute at most a small `αᵢ`,
//! so mislabeled mixed-log points (high benignity → low maliciousness
//! weight) cannot drag the decision boundary.

use crate::data::{Sample, TrainSet};
use crate::kernel::Kernel;
use crate::model::SvmModel;

/// Numerical floor for the pair curvature.
const TAU: f64 = 1e-12;

/// How far, relative to λ, a solver-written αᵢ may lie above its box top
/// λ·cᵢ: the analytic update clips through rounded differences of the
/// caps, which can overshoot a cap by an ulp or so.
const BOX_SLACK: f64 = 1e-12;

/// Solver hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmoParams {
    /// Trade-off parameter λ of Eq. 2 (global scale of the per-sample box).
    pub lambda: f64,
    /// KKT-violation stopping tolerance.
    pub eps: f64,
    /// Hard iteration cap (the solver also stops on convergence).
    pub max_iter: usize,
}

impl Default for SmoParams {
    fn default() -> Self {
        SmoParams { lambda: 10.0, eps: 1e-3, max_iter: 100_000 }
    }
}

/// Resumable solver state at an iteration boundary: the dual variables,
/// the gradient (error) cache and the number of completed iterations.
/// Everything else the solver touches (the kernel matrix, labels, box
/// caps) is recomputed deterministically from the training set, so a run
/// resumed from this state is bit-identical to one that never stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct SmoState {
    /// Dual variables α, one per training sample.
    pub alpha: Vec<f64>,
    /// Gradient cache `G_i = Σ_j Q_ij α_j − 1`.
    pub grad: Vec<f64>,
    /// Completed SMO iterations.
    pub iterations: usize,
}

impl SmoState {
    /// Checks that this state can resume a solve on `set` with `params`:
    /// one α and one gradient entry per sample, every gradient entry
    /// finite and every α inside its box `0 ≤ αᵢ ≤ λ·cᵢ` (up to
    /// rounding).
    ///
    /// # Errors
    ///
    /// A one-line reason naming the first violation.
    pub fn check(&self, set: &TrainSet, params: &SmoParams) -> Result<(), String> {
        let n = set.len();
        if self.alpha.len() != n {
            return Err(format!(
                "resume state alpha length mismatch: {} values for {n} samples",
                self.alpha.len()
            ));
        }
        if self.grad.len() != n {
            return Err(format!(
                "resume state gradient length mismatch: {} values for {n} samples",
                self.grad.len()
            ));
        }
        if let Some(i) = self.grad.iter().position(|g| !g.is_finite()) {
            return Err(format!("resume state gradient {i} is not finite: {:?}", self.grad[i]));
        }
        for (i, (&a, sample)) in self.alpha.iter().zip(set.samples()).enumerate() {
            let cap = params.lambda * sample.c;
            if !(0.0..=cap + params.lambda * BOX_SLACK).contains(&a) {
                return Err(format!(
                    "resume state alpha {i} = {a:?} is outside its box [0, {cap:?}]"
                ));
            }
        }
        Ok(())
    }
}

/// Trains a (weighted) SVM on `set` with the given kernel.
///
/// Samples with `cᵢ = 0` have an empty feasible box and are effectively
/// excluded. If one class is entirely zero-weighted the solver returns a
/// degenerate constant model rather than looping.
///
/// # Panics
///
/// Panics if `params.lambda <= 0`, `params.eps <= 0` or the kernel fails
/// [`Kernel::validate`].
#[must_use]
pub fn train(set: &TrainSet, kernel: Kernel, params: &SmoParams) -> SvmModel {
    train_resumable(set, kernel, params, None, 0, &mut |_| true)
        .expect("non-checkpointing SMO cannot pause")
}

/// [`train`] with iteration-level checkpoint hooks.
///
/// When `every > 0`, `checkpoint` is called at every `every`-th iteration
/// boundary with the current [`SmoState`]; returning `false` pauses the
/// solver (the function returns `None`). Passing the captured state back
/// as `resume` continues the run exactly where it stopped: the kernel
/// matrix is recomputed (it is a pure function of `set`), the α vector
/// and gradient cache are restored bitwise, and every subsequent
/// iteration performs the identical arithmetic — so pause/resume at any
/// boundary yields a model bit-identical to an uninterrupted run.
///
/// # Panics
///
/// Panics if `params` or `kernel` is invalid or `resume` fails
/// [`SmoState::check`].
pub fn train_resumable(
    set: &TrainSet,
    kernel: Kernel,
    params: &SmoParams,
    resume: Option<SmoState>,
    every: usize,
    checkpoint: &mut dyn FnMut(&SmoState) -> bool,
) -> Option<SvmModel> {
    if let Some(Err(reason)) = resume.as_ref().map(|state| state.check(set, params)) {
        panic!("{reason}");
    }
    let samples = set.samples();
    let k = gram(samples, kernel);
    let y: Vec<f64> = samples.iter().map(|s| s.y).collect();
    let cap: Vec<f64> = samples.iter().map(|s| params.lambda * s.c).collect();
    let (alpha, rho, iterations) = solve(&k, &y, &cap, params, resume, every, checkpoint)?;
    Some(SvmModel::from_training(samples, &alpha, -rho, kernel, iterations))
}

/// The dense, exactly symmetric kernel matrix of `samples`, row-major.
///
/// Rows of the upper triangle are independent, so they fan out across
/// threads; every entry is the same `kernel.eval(xᵢ, xⱼ)` (i ≤ j) the
/// serial loop would compute, and assembly is by row index, so the
/// matrix is bit-identical at any thread count.
///
/// # Panics
///
/// Panics if the kernel fails [`Kernel::validate`].
pub(crate) fn gram(samples: &[Sample], kernel: Kernel) -> Vec<f64> {
    crate::model::check_kernel(kernel);
    let n = samples.len();
    let row_tails = leaps_par::par_map_indexed(n, |i| {
        (i..n).map(|j| kernel.eval(&samples[i].x, &samples[j].x)).collect::<Vec<f64>>()
    });
    let mut k = vec![0.0f64; n * n];
    for (i, tail) in row_tails.iter().enumerate() {
        for (offset, &v) in tail.iter().enumerate() {
            let j = i + offset;
            k[i * n + j] = v;
            k[j * n + i] = v;
        }
    }
    k
}

/// The SMO core: solves the dual for the symmetric kernel matrix `k`
/// (row-major, `n × n` with `n = y.len()`), labels `y` and boxes `cap`.
/// Returns `(α, ρ, iterations)`; the decision bias is `−ρ`.
///
/// Checkpointing is as in [`train_resumable`]: `None` means `checkpoint`
/// paused the solver. The iteration itself is strictly serial.
///
/// # Panics
///
/// Panics if `params.lambda <= 0` or `params.eps <= 0`.
#[allow(clippy::needless_range_loop)] // SMO index arithmetic reads best indexed
pub(crate) fn solve(
    k: &[f64],
    y: &[f64],
    cap: &[f64],
    params: &SmoParams,
    resume: Option<SmoState>,
    every: usize,
    checkpoint: &mut dyn FnMut(&SmoState) -> bool,
) -> Option<(Vec<f64>, f64, usize)> {
    assert!(params.lambda > 0.0, "lambda must be positive");
    assert!(params.eps > 0.0, "eps must be positive");
    let n = y.len();
    let q = |i: usize, j: usize| y[i] * y[j] * k[i * n + j];

    let (mut alpha, mut grad, mut iterations) = match resume {
        Some(state) => (state.alpha, state.grad, state.iterations),
        // Gradient of the dual objective: G_i = Σ_j Q_ij α_j − 1 = −1 at α = 0.
        None => (vec![0.0f64; n], vec![-1.0f64; n], 0usize),
    };

    loop {
        iterations += 1;
        if iterations > params.max_iter {
            break;
        }
        leaps_obs::counter!("train.smo.passes").inc();
        // WSS1: maximal violating pair.
        let mut m_val = f64::NEG_INFINITY;
        let mut m_idx = usize::MAX;
        let mut big_m_val = f64::INFINITY;
        let mut big_m_idx = usize::MAX;
        for t in 0..n {
            let in_up = (y[t] > 0.0 && alpha[t] < cap[t]) || (y[t] < 0.0 && alpha[t] > 0.0);
            let in_low = (y[t] < 0.0 && alpha[t] < cap[t]) || (y[t] > 0.0 && alpha[t] > 0.0);
            let v = -y[t] * grad[t];
            if in_up && v > m_val {
                m_val = v;
                m_idx = t;
            }
            if in_low && v < big_m_val {
                big_m_val = v;
                big_m_idx = t;
            }
        }
        if m_idx == usize::MAX || big_m_idx == usize::MAX || m_val - big_m_val < params.eps {
            break;
        }
        let (i, j) = (m_idx, big_m_idx);

        // Two-variable analytic update (LIBSVM).
        let old_ai = alpha[i];
        let old_aj = alpha[j];
        if y[i] != y[j] {
            let mut quad = q(i, i) + q(j, j) + 2.0 * q(i, j);
            if quad <= 0.0 {
                quad = TAU;
            }
            let delta = (-grad[i] - grad[j]) / quad;
            let diff = alpha[i] - alpha[j];
            alpha[i] += delta;
            alpha[j] += delta;
            if diff > 0.0 {
                if alpha[j] < 0.0 {
                    alpha[j] = 0.0;
                    alpha[i] = diff;
                }
            } else if alpha[i] < 0.0 {
                alpha[i] = 0.0;
                alpha[j] = -diff;
            }
            if diff > cap[i] - cap[j] {
                if alpha[i] > cap[i] {
                    alpha[i] = cap[i];
                    alpha[j] = cap[i] - diff;
                }
            } else if alpha[j] > cap[j] {
                alpha[j] = cap[j];
                alpha[i] = cap[j] + diff;
            }
        } else {
            let mut quad = q(i, i) + q(j, j) - 2.0 * q(i, j);
            if quad <= 0.0 {
                quad = TAU;
            }
            let delta = (grad[i] - grad[j]) / quad;
            let sum = alpha[i] + alpha[j];
            alpha[i] -= delta;
            alpha[j] += delta;
            if sum > cap[i] {
                if alpha[i] > cap[i] {
                    alpha[i] = cap[i];
                    alpha[j] = sum - cap[i];
                }
            } else if alpha[j] < 0.0 {
                alpha[j] = 0.0;
                alpha[i] = sum;
            }
            if sum > cap[j] {
                if alpha[j] > cap[j] {
                    alpha[j] = cap[j];
                    alpha[i] = sum - cap[j];
                }
            } else if alpha[i] < 0.0 {
                alpha[i] = 0.0;
                alpha[j] = sum;
            }
        }

        // Gradient update: G_t += Q_ti·Δα_i + Q_tj·Δα_j. `k` is exactly
        // symmetric, so rows i and j stand in for columns i and j and are
        // read contiguously; the products are the same bits.
        let di = alpha[i] - old_ai;
        let dj = alpha[j] - old_aj;
        if di != 0.0 || dj != 0.0 {
            let (row_i, row_j) = (&k[i * n..(i + 1) * n], &k[j * n..(j + 1) * n]);
            for t in 0..n {
                grad[t] += y[t] * y[i] * row_i[t] * di + y[t] * y[j] * row_j[t] * dj;
            }
        }

        // Iteration boundary: everything the solver will ever read again
        // lives in (alpha, grad, iterations) — offer it as a checkpoint.
        if every > 0 && iterations % every == 0 {
            let state = SmoState { alpha: alpha.clone(), grad: grad.clone(), iterations };
            if !checkpoint(&state) {
                return None;
            }
        }
    }

    let rho = compute_rho(&alpha, &grad, y, cap);
    Some((alpha, rho, iterations))
}

/// LIBSVM `calculate_rho`: average `y_i·G_i` over free support vectors,
/// falling back to the midpoint of the feasible interval.
fn compute_rho(alpha: &[f64], grad: &[f64], y: &[f64], cap: &[f64]) -> f64 {
    let mut n_free = 0usize;
    let mut sum_free = 0.0f64;
    let mut ub = f64::INFINITY;
    let mut lb = f64::NEG_INFINITY;
    for t in 0..alpha.len() {
        let yg = y[t] * grad[t];
        if alpha[t] <= 0.0 {
            if y[t] > 0.0 {
                ub = ub.min(yg);
            } else {
                lb = lb.max(yg);
            }
        } else if alpha[t] >= cap[t] {
            if y[t] < 0.0 {
                ub = ub.min(yg);
            } else {
                lb = lb.max(yg);
            }
        } else {
            n_free += 1;
            sum_free += yg;
        }
    }
    if n_free > 0 {
        sum_free / n_free as f64
    } else {
        (ub + lb) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(samples: Vec<Sample>) -> TrainSet {
        TrainSet::new(samples).unwrap()
    }

    #[test]
    fn separable_linear_problem_is_solved() {
        let s = set(vec![
            Sample::new(vec![0.0, 0.0], 1.0, 1.0),
            Sample::new(vec![0.5, 0.0], 1.0, 1.0),
            Sample::new(vec![0.0, 0.5], 1.0, 1.0),
            Sample::new(vec![3.0, 3.0], -1.0, 1.0),
            Sample::new(vec![3.5, 3.0], -1.0, 1.0),
            Sample::new(vec![3.0, 3.5], -1.0, 1.0),
        ]);
        let model = train(&s, Kernel::Gaussian { sigma2: 8.0 }, &SmoParams::default());
        for sample in s.samples() {
            assert_eq!(model.predict(&sample.x), sample.y, "{:?}", sample.x);
        }
        // Margin property: decision magnitude ≥ ~1 on the support side.
        assert!(model.decision(&[0.0, 0.0]) >= 0.9);
        assert!(model.decision(&[3.5, 3.5]) <= -0.9);
    }

    #[test]
    fn xor_needs_gaussian_kernel() {
        let xor = set(vec![
            Sample::new(vec![0.0, 0.0], 1.0, 1.0),
            Sample::new(vec![1.0, 1.0], 1.0, 1.0),
            Sample::new(vec![0.0, 1.0], -1.0, 1.0),
            Sample::new(vec![1.0, 0.0], -1.0, 1.0),
        ]);
        let model = train(
            &xor,
            Kernel::Gaussian { sigma2: 0.5 },
            &SmoParams { lambda: 100.0, ..Default::default() },
        );
        for sample in xor.samples() {
            assert_eq!(model.predict(&sample.x), sample.y, "{:?}", sample.x);
        }
    }

    #[test]
    fn dual_feasibility_holds() {
        let s = set(vec![
            Sample::new(vec![0.1], 1.0, 1.0),
            Sample::new(vec![0.2], 1.0, 0.3),
            Sample::new(vec![0.9], -1.0, 1.0),
            Sample::new(vec![0.8], -1.0, 0.7),
        ]);
        let params = SmoParams { lambda: 5.0, ..Default::default() };
        let model = train(&s, Kernel::Gaussian { sigma2: 1.0 }, &params);
        // Σ αᵢ yᵢ = 0 and 0 ≤ αᵢ ≤ λ·cᵢ.
        let mut balance = 0.0;
        for (alpha_y, sample) in model.dual_coefficients() {
            balance += alpha_y;
            let alpha = alpha_y.abs();
            let c = s.samples().iter().find(|t| t.x == *sample).map(|t| t.c).unwrap();
            assert!(alpha <= params.lambda * c + 1e-9, "box violated: {alpha} > λ·{c}");
        }
        assert!(balance.abs() < 1e-9, "equality constraint violated: {balance}");
    }

    #[test]
    fn zero_weight_samples_are_excluded_from_the_solution() {
        // The mislabeled point (benign feature labeled −1) has weight 0:
        // the boundary must ignore it.
        let s = set(vec![
            Sample::new(vec![0.0], 1.0, 1.0),
            Sample::new(vec![0.1], 1.0, 1.0),
            Sample::new(vec![0.05], -1.0, 0.0), // mislabeled, zero weight
            Sample::new(vec![1.0], -1.0, 1.0),
            Sample::new(vec![0.9], -1.0, 1.0),
        ]);
        let model = train(&s, Kernel::Gaussian { sigma2: 0.5 }, &SmoParams::default());
        assert_eq!(model.predict(&[0.05]), 1.0);
        // No support vector at the zero-weight point.
        assert!(model.dual_coefficients().all(|(a, x)| x[0] != 0.05 || a.abs() < 1e-12));
    }

    #[test]
    fn weighted_beats_unweighted_under_label_noise() {
        // Negative class contaminated with points that are actually from
        // the positive cluster. Downweighting them (as CFG guidance would)
        // must recover the clean boundary.
        let mut noisy = Vec::new();
        let mut weighted = Vec::new();
        for i in 0..10 {
            let x = 0.05 * f64::from(i);
            noisy.push(Sample::new(vec![x], 1.0, 1.0));
            weighted.push(Sample::new(vec![x], 1.0, 1.0));
        }
        for i in 0..10 {
            let x = 2.0 + 0.05 * f64::from(i);
            noisy.push(Sample::new(vec![x], -1.0, 1.0));
            weighted.push(Sample::new(vec![x], -1.0, 1.0));
        }
        // Contamination: positive-cluster points labeled negative,
        // outnumbering the true positives (a heavily noisy mixed log).
        for i in 0..16 {
            let x = 0.012 + 0.028 * f64::from(i);
            noisy.push(Sample::new(vec![x], -1.0, 1.0));
            weighted.push(Sample::new(vec![x], -1.0, 0.02));
        }
        let params = SmoParams { lambda: 10.0, ..Default::default() };
        let kernel = Kernel::Gaussian { sigma2: 0.5 };
        let plain = train(&set(noisy), kernel, &params);
        let guided = train(&set(weighted), kernel, &params);

        let probe: Vec<f64> = (0..10).map(|i| 0.025 + 0.05 * f64::from(i)).collect();
        let plain_correct = probe.iter().filter(|&&x| plain.predict(&[x]) == 1.0).count();
        let guided_correct = probe.iter().filter(|&&x| guided.predict(&[x]) == 1.0).count();
        assert!(guided_correct > plain_correct, "guided {guided_correct} vs plain {plain_correct}");
        assert_eq!(guided_correct, probe.len());
    }

    #[test]
    fn solver_reports_iterations_and_terminates() {
        let s = set(vec![Sample::new(vec![0.0], 1.0, 1.0), Sample::new(vec![1.0], -1.0, 1.0)]);
        let model = train(&s, Kernel::Gaussian { sigma2: 1.0 }, &SmoParams::default());
        assert!(model.iterations() >= 1);
        assert!(model.iterations() < 1000);
    }

    fn overlapping_set() -> TrainSet {
        // Overlapping classes so the solver needs many iterations.
        let mut samples = Vec::new();
        for i in 0..24 {
            let x = 0.04 * f64::from(i);
            samples.push(Sample::new(vec![x, 1.0 - x], 1.0, 1.0));
            samples.push(Sample::new(vec![x + 0.3, 0.8 - x], -1.0, 0.2 + 0.02 * f64::from(i)));
        }
        set(samples)
    }

    #[test]
    fn pause_and_resume_is_bit_identical() {
        let s = overlapping_set();
        let kernel = Kernel::Gaussian { sigma2: 0.5 };
        let params = SmoParams { lambda: 50.0, ..Default::default() };
        let reference = train(&s, kernel, &params);
        assert!(reference.iterations() > 10, "need a long run: {}", reference.iterations());

        for pause_at in [1usize, 2, 5, 9] {
            // Pause at the `pause_at`-th checkpoint...
            let mut captured = None;
            let mut seen = 0usize;
            let paused = train_resumable(&s, kernel, &params, None, 1, &mut |state| {
                seen += 1;
                if seen == pause_at {
                    captured = Some(state.clone());
                    false
                } else {
                    true
                }
            });
            assert!(paused.is_none());
            let state = captured.expect("checkpoint captured");
            assert_eq!(state.iterations, pause_at);
            // ...and resume: the final model must match bit for bit.
            let resumed =
                train_resumable(&s, kernel, &params, Some(state), 1, &mut |_| true).unwrap();
            assert_eq!(resumed, reference, "paused at {pause_at}");
        }
    }

    #[test]
    fn zero_every_never_checkpoints() {
        let s = overlapping_set();
        let mut calls = 0usize;
        let kernel = Kernel::Gaussian { sigma2: 0.5 };
        let model = train_resumable(&s, kernel, &SmoParams::default(), None, 0, &mut |_| {
            calls += 1;
            true
        })
        .unwrap();
        assert_eq!(calls, 0);
        assert_eq!(model, train(&s, kernel, &SmoParams::default()));
    }

    #[test]
    #[should_panic(expected = "alpha length mismatch")]
    fn resume_state_must_match_set() {
        let s = overlapping_set();
        let bogus = SmoState { alpha: vec![0.0; 3], grad: vec![-1.0; 3], iterations: 1 };
        let kernel = Kernel::Gaussian { sigma2: 0.5 };
        let _ = train_resumable(&s, kernel, &SmoParams::default(), Some(bogus), 0, &mut |_| true);
    }

    #[test]
    fn resume_state_check_rejects_states_outside_the_run() {
        let s = overlapping_set();
        let params = SmoParams { lambda: 2.0, ..Default::default() };
        let n = s.len();
        let ok = SmoState { alpha: vec![0.0; n], grad: vec![-1.0; n], iterations: 1 };
        assert_eq!(ok.check(&s, &params), Ok(()));
        let mut short_grad = ok.clone();
        short_grad.grad.pop();
        assert!(short_grad.check(&s, &params).unwrap_err().contains("gradient length"));
        for (i, bad) in [(0, f64::NAN), (1, 1e300), (2, -1e-9), (3, 2.0 * s.samples()[3].c + 1e-9)]
        {
            let mut state = ok.clone();
            state.alpha[i] = bad;
            let err = state.check(&s, &params).unwrap_err();
            assert!(err.contains(&format!("alpha {i} ")), "{err}");
        }
        let mut at_cap = ok.clone();
        at_cap.alpha[5] = params.lambda * s.samples()[5].c;
        assert_eq!(at_cap.check(&s, &params), Ok(()));
        let mut nan_grad = ok;
        nan_grad.grad[7] = f64::NAN;
        assert!(nan_grad.check(&s, &params).unwrap_err().contains("gradient 7"));
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn rejects_nonpositive_lambda() {
        let s = set(vec![Sample::new(vec![0.0], 1.0, 1.0), Sample::new(vec![1.0], -1.0, 1.0)]);
        let _ = train(
            &s,
            Kernel::Gaussian { sigma2: 1.0 },
            &SmoParams { lambda: 0.0, ..Default::default() },
        );
    }
}
