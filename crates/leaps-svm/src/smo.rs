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
//!
//! Each iteration makes one pass over the samples. Only the gradient
//! update changes `G`, and α changes only at the working pair before it
//! runs, so the update offers every new `Gₜ` to the next iteration's
//! WSS1 selection as it writes it, in the same `t` order with the same
//! strict comparisons; the I_up/I_low flags are refreshed at the pair
//! alone. A resumed solve runs one scan from its restored (α, G), as the
//! paused run's next iteration would have.
//!
//! The arithmetic is that of the two-pass loop, bit for bit, and may be
//! rearranged only where that is exact. Labels are exactly ±1, so
//! `yₜ·yᵢ·kₜᵢ·Δαᵢ` may become `yₜ·(kₜᵢ·(yᵢ·Δαᵢ))`: a sign flip moves but
//! no product rounds differently. The two terms must still be summed
//! before they are added to `Gₜ`; adding them to `Gₜ` one at a time, or
//! any other reassociation, changes bits. The test module keeps the
//! two-pass loop as the oracle.

use crate::data::{Sample, TrainSet};
use crate::kernel::{sq_dist, Kernel};
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

/// The squared distances `‖xᵢ − xⱼ‖²` of `samples`: the upper triangle,
/// packed by rows, so row `i` holds the distances to samples `i..n`.
///
/// Rows are independent, so they fan out across threads; every entry is
/// the same [`sq_dist`] the serial loop would compute, and rows are packed
/// by index, so the triangle is bit-identical at any thread count.
pub(crate) fn sq_dists(samples: &[Sample]) -> Vec<f64> {
    let n = samples.len();
    let row_tails = leaps_par::par_map_indexed(n, |i| {
        (i..n).map(|j| sq_dist(&samples[i].x, &samples[j].x)).collect::<Vec<f64>>()
    });
    row_tails.concat()
}

/// The dense, exactly symmetric kernel matrix over the packed
/// squared-distance triangle `d2` of `n` samples (see [`sq_dists`]),
/// row-major: [`Kernel::finish`] of each distance, mirrored. Distances
/// are symmetric bit for bit, so both triangles hold the bits of
/// `kernel.eval(xᵢ, xⱼ)`.
///
/// # Panics
///
/// Panics if the kernel fails [`Kernel::validate`].
pub(crate) fn gram_of(d2: &[f64], n: usize, kernel: Kernel) -> Vec<f64> {
    crate::model::check_kernel(kernel);
    let mut k = vec![0.0f64; n * n];
    let mut tail = d2;
    for i in 0..n {
        let (row, rest) = tail.split_at(n - i);
        for (offset, &d) in row.iter().enumerate() {
            let j = i + offset;
            let v = kernel.finish(d);
            k[i * n + j] = v;
            k[j * n + i] = v;
        }
        tail = rest;
    }
    k
}

/// The dense, exactly symmetric kernel matrix of `samples`, row-major.
///
/// # Panics
///
/// Panics if the kernel fails [`Kernel::validate`].
pub(crate) fn gram(samples: &[Sample], kernel: Kernel) -> Vec<f64> {
    gram_of(&sq_dists(samples), samples.len(), kernel)
}

/// Whether αₜ may move in the direction that raises `yₜαₜ` (LIBSVM's
/// I_up).
fn in_up(y: f64, alpha: f64, cap: f64) -> bool {
    (y > 0.0 && alpha < cap) || (y < 0.0 && alpha > 0.0)
}

/// Whether αₜ may move in the direction that lowers `yₜαₜ` (LIBSVM's
/// I_low).
fn in_low(y: f64, alpha: f64, cap: f64) -> bool {
    (y < 0.0 && alpha < cap) || (y > 0.0 && alpha > 0.0)
}

/// A WSS1 scan in progress: the largest `−yₜGₜ` offered over I_up and
/// the smallest over I_low, each with the first index that reached it.
#[derive(Clone, Copy)]
struct Selection {
    m_val: f64,
    m_idx: usize,
    big_m_val: f64,
    big_m_idx: usize,
}

impl Selection {
    const EMPTY: Selection = Selection {
        m_val: f64::NEG_INFINITY,
        m_idx: usize::MAX,
        big_m_val: f64::INFINITY,
        big_m_idx: usize::MAX,
    };

    /// Offers sample `t` with key `v = −yₜGₜ`. Strict comparisons keep
    /// the first index on ties, as a scan in `t` order does.
    #[inline(always)]
    fn offer(&mut self, t: usize, v: f64, up: bool, low: bool) {
        if up && v > self.m_val {
            self.m_val = v;
            self.m_idx = t;
        }
        if low && v < self.big_m_val {
            self.big_m_val = v;
            self.big_m_idx = t;
        }
    }
}

/// The SMO core: solves the dual for the symmetric kernel matrix `k`
/// (row-major, `n × n` with `n = y.len()`), labels `y` (each exactly ±1)
/// and boxes `cap`. Returns `(α, ρ, iterations)`; the decision bias is
/// `−ρ`.
///
/// Checkpointing is as in [`train_resumable`]: `None` means `checkpoint`
/// paused the solver. The iteration itself is strictly serial, one pass
/// over the samples per iteration: the gradient update offers each new
/// `Gₜ` to the next iteration's working-set selection as it writes it.
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
    let (k, cap) = (&k[..n * n], &cap[..n]);

    let (mut alpha, mut grad, mut iterations) = match resume {
        Some(state) => (state.alpha, state.grad, state.iterations),
        // Gradient of the dual objective: G_i = Σ_j Q_ij α_j − 1 = −1 at α = 0.
        None => (vec![0.0f64; n], vec![-1.0f64; n], 0usize),
    };
    // Set membership, kept current as α changes, and the first WSS1
    // scan: a resumed run scans its restored (α, G) exactly as the
    // paused run's next iteration would have.
    let mut up: Vec<bool> = (0..n).map(|t| in_up(y[t], alpha[t], cap[t])).collect();
    let mut low: Vec<bool> = (0..n).map(|t| in_low(y[t], alpha[t], cap[t])).collect();
    let mut sel = Selection::EMPTY;
    for t in 0..n {
        sel.offer(t, -y[t] * grad[t], up[t], low[t]);
    }

    loop {
        iterations += 1;
        if iterations > params.max_iter {
            break;
        }
        leaps_obs::counter!("train.smo.passes").inc();
        // WSS1: the maximal violating pair of the current (α, G).
        if sel.m_idx == usize::MAX
            || sel.big_m_idx == usize::MAX
            || sel.m_val - sel.big_m_val < params.eps
        {
            break;
        }
        let (i, j) = (sel.m_idx, sel.big_m_idx);
        let (old_ai, old_aj) = (alpha[i], alpha[j]);
        update_pair(k, y, cap, &grad, &mut alpha, i, j);

        // Gradient update fused with the next selection: G_t += Q_ti·Δα_i +
        // Q_tj·Δα_j, and the new G_t is offered at once. `k` is exactly
        // symmetric, so rows i and j stand in for columns i and j and are
        // read contiguously. Labels are exactly ±1, so hoisting yᵢ·Δαᵢ out
        // of `yₜ·yᵢ·kₜᵢ·Δαᵢ` only moves exact sign flips: each term keeps
        // its bits, and their sum is still added to Gₜ last. If α did not
        // move, neither did G, and the selection carries over.
        let di = alpha[i] - old_ai;
        let dj = alpha[j] - old_aj;
        if di != 0.0 || dj != 0.0 {
            for s in [i, j] {
                up[s] = in_up(y[s], alpha[s], cap[s]);
                low[s] = in_low(y[s], alpha[s], cap[s]);
            }
            let (row_i, row_j) = (&k[i * n..(i + 1) * n], &k[j * n..(j + 1) * n]);
            let (yi_di, yj_dj) = (y[i] * di, y[j] * dj);
            let (grad, up, low) = (&mut grad[..n], &up[..n], &low[..n]);
            sel = Selection::EMPTY;
            for t in 0..n {
                let g = grad[t] + (y[t] * (row_i[t] * yi_di) + y[t] * (row_j[t] * yj_dj));
                grad[t] = g;
                sel.offer(t, -y[t] * g, up[t], low[t]);
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

/// The two-variable analytic update (LIBSVM): moves αᵢ and αⱼ along the
/// constraint `yᵀα = 0` to the minimum of the dual over the pair, clipped
/// to both boxes. `k`, `y` and `cap` are as in [`solve`].
fn update_pair(
    k: &[f64],
    y: &[f64],
    cap: &[f64],
    grad: &[f64],
    alpha: &mut [f64],
    i: usize,
    j: usize,
) {
    let n = y.len();
    let q = |i: usize, j: usize| y[i] * y[j] * k[i * n + j];
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

    /// The two-pass loop that [`solve`] fuses: each iteration scans every
    /// sample for the working set, then makes a second pass to update the
    /// gradient. The reference the fused solver must match bit for bit.
    #[allow(clippy::needless_range_loop)]
    fn two_pass_solve(
        k: &[f64],
        y: &[f64],
        cap: &[f64],
        params: &SmoParams,
        resume: Option<SmoState>,
        every: usize,
        checkpoint: &mut dyn FnMut(&SmoState) -> bool,
    ) -> Option<(Vec<f64>, f64, usize)> {
        let n = y.len();
        let (mut alpha, mut grad, mut iterations) = match resume {
            Some(state) => (state.alpha, state.grad, state.iterations),
            None => (vec![0.0f64; n], vec![-1.0f64; n], 0usize),
        };
        loop {
            iterations += 1;
            if iterations > params.max_iter {
                break;
            }
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
            let (old_ai, old_aj) = (alpha[i], alpha[j]);
            update_pair(k, y, cap, &grad, &mut alpha, i, j);
            let di = alpha[i] - old_ai;
            let dj = alpha[j] - old_aj;
            if di != 0.0 || dj != 0.0 {
                let (row_i, row_j) = (&k[i * n..(i + 1) * n], &k[j * n..(j + 1) * n]);
                for t in 0..n {
                    grad[t] += y[t] * y[i] * row_i[t] * di + y[t] * y[j] * row_j[t] * dj;
                }
            }
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

    /// A solver run's result and every state it checkpointed, as bits.
    type Trace = (Vec<u64>, u64, usize, Vec<(Vec<u64>, Vec<u64>, usize)>);

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn state_bits(state: &SmoState) -> (Vec<u64>, Vec<u64>, usize) {
        (bits(&state.alpha), bits(&state.grad), state.iterations)
    }

    /// Runs `solver` to the end, checkpointing at every iteration.
    fn trace(solver: Solver, problem: &Problem, params: &SmoParams) -> Trace {
        let mut states = Vec::new();
        let (alpha, rho, iterations) =
            solver(&problem.k, &problem.y, &problem.cap, params, None, 1, &mut |state| {
                states.push(state_bits(state));
                true
            })
            .unwrap();
        (bits(&alpha), rho.to_bits(), iterations, states)
    }

    type Solver = fn(
        &[f64],
        &[f64],
        &[f64],
        &SmoParams,
        Option<SmoState>,
        usize,
        &mut dyn FnMut(&SmoState) -> bool,
    ) -> Option<(Vec<f64>, f64, usize)>;

    struct Problem {
        k: Vec<f64>,
        y: Vec<f64>,
        cap: Vec<f64>,
    }

    /// A seeded random problem: points on a coarse lattice (so some
    /// coincide), about a quarter of them zero-weighted, and some points
    /// repeated with either label, so pairs with no curvature arise.
    fn random_problem(seed: u64, params: &SmoParams) -> Problem {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 1 + rng.gen_index(3);
        let n = 8 + rng.gen_index(40);
        let mut samples: Vec<Sample> = (0..n)
            .map(|t| {
                let x = (0..dim).map(|_| rng.gen_index(6) as f64 / 5.0).collect();
                let y = if t % 2 == 0 { 1.0 } else { -1.0 };
                let c =
                    if rng.gen_index(4) == 0 { 0.0 } else { (1 + rng.gen_index(8)) as f64 / 8.0 };
                Sample::new(x, y, c)
            })
            .collect();
        if seed.is_multiple_of(4) {
            // The first working pair is the first positive and the first
            // negative: coincident, it has no curvature (quad = 0 → TAU).
            samples[1].x = samples[0].x.clone();
            samples[0].c = 1.0;
            samples[1].c = 1.0;
        }
        for _ in 0..rng.gen_index(6) {
            let mut copy = samples[rng.gen_index(n)].clone();
            if rng.gen_index(2) == 0 {
                copy.y = -copy.y;
            }
            samples.push(copy);
        }
        let sigma2 = [0.05, 0.5, 2.0][rng.gen_index(3)];
        Problem {
            k: gram(&samples, Kernel::Gaussian { sigma2 }),
            y: samples.iter().map(|s| s.y).collect(),
            cap: samples.iter().map(|s| params.lambda * s.c).collect(),
        }
    }

    fn params_for(seed: u64) -> SmoParams {
        SmoParams { lambda: [1.0, 10.0, 100.0][(seed % 3) as usize], ..Default::default() }
    }

    #[test]
    fn fused_solver_matches_the_two_pass_loop_bit_for_bit() {
        for seed in 0..60 {
            let params = params_for(seed);
            let problem = random_problem(seed, &params);
            let fused = trace(solve, &problem, &params);
            assert_eq!(fused, trace(two_pass_solve, &problem, &params), "seed {seed}");
            assert!(fused.2 > 1, "seed {seed} converged at once");

            // A cap that cuts the run mid-way.
            let cut = SmoParams { max_iter: fused.2 / 2, ..params };
            assert_eq!(
                trace(solve, &problem, &cut),
                trace(two_pass_solve, &problem, &cut),
                "seed {seed}, max_iter {}",
                cut.max_iter
            );
        }
    }

    #[test]
    fn fused_solver_paused_at_every_iteration_matches_the_two_pass_loop() {
        for seed in 0..20 {
            let params = params_for(seed);
            let problem = random_problem(seed, &params);
            let (alpha, rho, iterations, states) = trace(two_pass_solve, &problem, &params);
            // Pause at every checkpoint and resume from the captured state.
            let mut resumed_states = Vec::new();
            let mut resume = None;
            let result = loop {
                let mut captured = None;
                let run =
                    solve(&problem.k, &problem.y, &problem.cap, &params, resume, 1, &mut |s| {
                        captured = Some(s.clone());
                        false
                    });
                if let Some(result) = run {
                    break result;
                }
                let state = captured.expect("a paused run leaves a state");
                resumed_states.push(state_bits(&state));
                resume = Some(state);
            };
            assert_eq!(resumed_states, states, "seed {seed}");
            assert_eq!((bits(&result.0), result.1.to_bits(), result.2), (alpha, rho, iterations));
        }
    }
}
