//! Discrete HMM with Baum–Welch training and scaled forward scoring.

use leaps_etw::rng::SimRng;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HmmParams {
    /// Number of hidden states.
    pub states: usize,
    /// Baum–Welch iterations.
    pub iterations: usize,
    /// Probability floor applied after every re-estimation so no
    /// transition/emission collapses to exactly zero (unseen test symbols
    /// would otherwise yield −∞ likelihood).
    pub floor: f64,
    /// Seed for the random initialization.
    pub seed: u64,
}

impl Default for HmmParams {
    fn default() -> Self {
        HmmParams { states: 6, iterations: 15, floor: 1e-6, seed: 1 }
    }
}

/// A discrete hidden Markov model.
#[derive(Debug, Clone, PartialEq)]
pub struct Hmm {
    /// Number of hidden states `N`.
    states: usize,
    /// Number of observation symbols `M`.
    symbols: usize,
    /// Initial state distribution, length `N`.
    pi: Vec<f64>,
    /// Transition probabilities, `N × N`, row-stochastic.
    a: Vec<f64>,
    /// Emission probabilities, `N × M`, row-stochastic.
    b: Vec<f64>,
}

/// Resumable Baum–Welch state: the model parameters after `iteration`
/// completed iterations, plus the post-initialization RNG state.
///
/// All of Baum–Welch's randomness is spent on the initial π/A/B draw —
/// the iterations themselves are deterministic — so the captured `rng`
/// is never re-consumed on resume; it is carried (and validated
/// non-zero) so the checkpoint records the full generator state the run
/// was derived from.
#[derive(Debug, Clone, PartialEq)]
pub struct HmmState {
    /// Completed Baum–Welch iterations.
    pub iteration: usize,
    /// Number of hidden states `N`.
    pub states: usize,
    /// Number of observation symbols `M`.
    pub symbols: usize,
    /// Initial state distribution after `iteration` iterations.
    pub pi: Vec<f64>,
    /// Transition matrix after `iteration` iterations.
    pub a: Vec<f64>,
    /// Emission matrix after `iteration` iterations.
    pub b: Vec<f64>,
    /// Generator state captured right after the random initialization.
    pub rng: [u64; 4],
}

impl HmmState {
    /// Checks that this state can resume a Baum–Welch run over `symbols`
    /// symbols with `params`: at most `params.iterations` completed
    /// iterations, the run's dimensions, and π, A and B row-stochastic
    /// (see [`check_stochastic`]).
    ///
    /// # Errors
    ///
    /// A one-line reason naming the first violation, in that order.
    pub fn check(&self, symbols: usize, params: &HmmParams) -> Result<(), String> {
        let n = params.states;
        if self.iteration > params.iterations {
            return Err(format!(
                "resume state has {} iterations, the run only {}",
                self.iteration, params.iterations
            ));
        }
        if (self.states, self.symbols) != (n, symbols) {
            return Err(format!(
                "resume state count mismatch: {} states x {} symbols, the run {n} x {symbols}",
                self.states, self.symbols
            ));
        }
        for (name, values, width) in
            [("pi", &self.pi, n), ("a", &self.a, n), ("b", &self.b, symbols)]
        {
            check_stochastic(&format!("resume state {name}"), values, width)?;
        }
        Ok(())
    }
}

/// How far from 1 a stored probability row may sum. Training renormalises
/// every row after flooring, so saved rows sum to 1 within a few ulps;
/// `1e-6` also admits rows edited by hand to six decimal places, while a
/// row that is not a distribution is refused.
pub const ROW_SUM_TOLERANCE: f64 = 1e-6;

/// Checks that `values`, read as rows of `width`, are probability
/// distributions: every value finite and `≥ 0`, every row summing to 1
/// within [`ROW_SUM_TOLERANCE`]. `name` prefixes the reason.
///
/// # Errors
///
/// A one-line reason naming the first bad value or row.
pub fn check_stochastic(name: &str, values: &[f64], width: usize) -> Result<(), String> {
    if let Some(v) = values.iter().find(|v| !(v.is_finite() && **v >= 0.0)) {
        return Err(format!("{name} holds {v}, not a probability"));
    }
    let sums = values.chunks(width.max(1)).map(|row| row.iter().sum::<f64>());
    if let Some((row, sum)) =
        sums.enumerate().find(|(_, sum)| (sum - 1.0).abs() > ROW_SUM_TOLERANCE)
    {
        return Err(format!("{name} row {row} sums to {sum}, not 1"));
    }
    Ok(())
}

/// Per-sequence E-step statistics: each training sequence's contribution
/// to the Baum–Welch accumulators, computed independently of every other
/// sequence so the E-step can fan out across threads.
struct SeqStats {
    pi: Vec<f64>,
    a_num: Vec<f64>,
    a_den: Vec<f64>,
    b_num: Vec<f64>,
    b_den: Vec<f64>,
}

impl SeqStats {
    /// Adds `other` into `self` element-wise. Called on the training
    /// thread in sequence order, which fixes the floating-point reduction
    /// order independently of how the E-step was scheduled.
    fn merge(&mut self, other: &SeqStats) {
        let add = |acc: &mut [f64], inc: &[f64]| {
            for (a, x) in acc.iter_mut().zip(inc) {
                *a += x;
            }
        };
        add(&mut self.pi, &other.pi);
        add(&mut self.a_num, &other.a_num);
        add(&mut self.a_den, &other.a_den);
        add(&mut self.b_num, &other.b_num);
        add(&mut self.b_den, &other.b_den);
    }
}

impl Hmm {
    /// Trains an HMM on `sequences` of observation symbols drawn from
    /// `0..symbols`, with Baum–Welch (multiple-sequence re-estimation).
    ///
    /// The E-step (forward/backward plus gamma/xi accumulation) runs per
    /// sequence and fans out across the `leaps_par` pool; the per-sequence
    /// statistics are then reduced into the shared accumulators on the
    /// calling thread **in sequence order**, so the trained model is
    /// bit-identical at every thread count (`LEAPS_THREADS=1` spawns no
    /// threads at all and computes the exact same sums).
    ///
    /// # Degenerate transition evidence
    ///
    /// A sequence of length 1 has no transitions, so it contributes
    /// nothing to the `A` re-estimation. If **no** sequence has length
    /// ≥ 2 the transition matrix would silently keep its random
    /// initialization; instead it is set to the uniform
    /// (maximum-entropy) distribution and left there — deterministic,
    /// seed-independent, and irrelevant to scoring (a length-1 sequence
    /// never consults `A`). π and `B` are still re-estimated normally.
    ///
    /// # Panics
    ///
    /// Panics if `symbols == 0`, `params.states == 0`, there are no
    /// non-empty sequences, or a sequence contains an out-of-range symbol.
    #[must_use]
    pub fn train(sequences: &[Vec<usize>], symbols: usize, params: &HmmParams) -> Hmm {
        Self::train_resumable(sequences, symbols, params, None, &mut |_| true)
            .expect("non-checkpointing Baum–Welch cannot pause")
    }

    /// [`Hmm::train`] with per-iteration checkpoint hooks.
    ///
    /// After every completed Baum–Welch iteration `checkpoint` is called
    /// with the current [`HmmState`]; returning `false` pauses training
    /// (`None` is returned). Passing the captured state back as `resume`
    /// continues from that exact iteration: the iterations are
    /// deterministic given π/A/B, so the resumed model is bit-identical
    /// to an uninterrupted run. A resume state whose `iteration` already
    /// equals `params.iterations` returns the finished model immediately.
    ///
    /// # Panics
    ///
    /// Panics on the same invalid inputs as [`Hmm::train`], or with the
    /// reason [`HmmState::check`] gives if `resume` does not fit
    /// `symbols` and `params`.
    #[allow(clippy::needless_range_loop)] // Baum-Welch index arithmetic reads best indexed
    pub fn train_resumable(
        sequences: &[Vec<usize>],
        symbols: usize,
        params: &HmmParams,
        resume: Option<HmmState>,
        checkpoint: &mut dyn FnMut(&HmmState) -> bool,
    ) -> Option<Hmm> {
        assert!(symbols > 0, "need at least one observation symbol");
        assert!(params.states > 0, "need at least one hidden state");
        let sequences: Vec<&Vec<usize>> = sequences.iter().filter(|s| !s.is_empty()).collect();
        assert!(!sequences.is_empty(), "need at least one non-empty sequence");
        for seq in &sequences {
            for &o in seq.iter() {
                assert!(o < symbols, "symbol {o} out of range (< {symbols})");
            }
        }

        let n = params.states;
        let (mut model, rng_state, start_iteration) = match resume {
            Some(state) => {
                if let Err(reason) = state.check(symbols, params) {
                    panic!("{reason}");
                }
                // Validates the stored state is a reachable generator.
                let _ = SimRng::from_state(state.rng);
                (
                    Hmm::from_parts(n, symbols, state.pi, state.a, state.b),
                    state.rng,
                    state.iteration,
                )
            }
            None => {
                let mut rng = SimRng::new(params.seed);
                let mut model = Hmm {
                    states: n,
                    symbols,
                    pi: random_stochastic(&mut rng, 1, n).remove(0),
                    a: random_stochastic(&mut rng, n, n).concat(),
                    b: random_stochastic(&mut rng, n, symbols).concat(),
                };
                if !sequences.iter().any(|s| s.len() >= 2) {
                    // No transition is ever observed: fall back to uniform A
                    // (see the method docs) instead of returning the random
                    // init.
                    model.a = vec![1.0 / n as f64; n * n];
                }
                (model, rng.state(), 0)
            }
        };

        for iteration in start_iteration..params.iterations {
            leaps_obs::counter!("train.bw.iters").inc();
            // E-step: independent per sequence, fanned across threads;
            // reduced below in sequence order for bit-identical results
            // at any thread count.
            let locals = leaps_par::par_map(&sequences, |seq| model.sequence_stats(seq));
            let mut acc = SeqStats {
                pi: vec![0.0; n],
                a_num: vec![0.0; n * n],
                a_den: vec![0.0; n],
                b_num: vec![0.0; n * symbols],
                b_den: vec![0.0; n],
            };
            for local in &locals {
                acc.merge(local);
            }

            // M-step: re-estimate with flooring + renormalization.
            let total_pi: f64 = acc.pi.iter().sum();
            if total_pi > 0.0 {
                for i in 0..n {
                    model.pi[i] = acc.pi[i] / total_pi;
                }
            }
            for i in 0..n {
                if acc.a_den[i] > 0.0 {
                    for j in 0..n {
                        model.a[i * n + j] = acc.a_num[i * n + j] / acc.a_den[i];
                    }
                }
                if acc.b_den[i] > 0.0 {
                    for m in 0..symbols {
                        model.b[i * symbols + m] = acc.b_num[i * symbols + m] / acc.b_den[i];
                    }
                }
            }
            model.apply_floor(params.floor);

            // Iteration boundary: offer the re-estimated parameters as a
            // checkpoint (the final iteration included, so a deadline hit
            // at the very end still leaves a complete state on disk).
            let state = HmmState {
                iteration: iteration + 1,
                states: n,
                symbols,
                pi: model.pi.clone(),
                a: model.a.clone(),
                b: model.b.clone(),
                rng: rng_state,
            };
            if !checkpoint(&state) {
                return None;
            }
        }
        Some(model)
    }

    /// One sequence's Baum–Welch E-step against the current model:
    /// scaled forward/backward passes plus the gamma/xi accumulation,
    /// into accumulators local to this sequence. Pure (reads the model,
    /// writes nothing shared), so invocations for different sequences
    /// run concurrently without changing any result.
    #[allow(clippy::needless_range_loop)] // Baum-Welch index arithmetic reads best indexed
    fn sequence_stats(&self, seq: &[usize]) -> SeqStats {
        let n = self.states;
        let symbols = self.symbols;
        let mut stats = SeqStats {
            pi: vec![0.0; n],
            a_num: vec![0.0; n * n],
            a_den: vec![0.0; n],
            b_num: vec![0.0; n * symbols],
            b_den: vec![0.0; n],
        };
        let t_len = seq.len();
        let (alpha, scales) = self.forward_scaled(seq);
        let beta = self.backward_scaled(seq, &scales);

        // gamma_t(i) ∝ alpha_t(i) * beta_t(i) (already normalized per t
        // thanks to the common scaling).
        for t in 0..t_len {
            let mut norm = 0.0;
            for i in 0..n {
                norm += alpha[t * n + i] * beta[t * n + i];
            }
            if norm <= 0.0 {
                continue;
            }
            for i in 0..n {
                let g = alpha[t * n + i] * beta[t * n + i] / norm;
                if t == 0 {
                    stats.pi[i] += g;
                }
                stats.b_num[i * symbols + seq[t]] += g;
                stats.b_den[i] += g;
                if t + 1 < t_len {
                    stats.a_den[i] += g;
                }
            }
        }
        // xi_t(i,j) ∝ alpha_t(i) a_ij b_j(o_{t+1}) beta_{t+1}(j).
        let mut xi = vec![0.0; n * n];
        for t in 0..t_len.saturating_sub(1) {
            let mut norm = 0.0;
            for i in 0..n {
                for j in 0..n {
                    let v = alpha[t * n + i]
                        * self.a[i * n + j]
                        * self.b[j * symbols + seq[t + 1]]
                        * beta[(t + 1) * n + j];
                    xi[i * n + j] = v;
                    norm += v;
                }
            }
            if norm <= 0.0 {
                continue;
            }
            for i in 0..n {
                for j in 0..n {
                    stats.a_num[i * n + j] += xi[i * n + j] / norm;
                }
            }
        }
        stats
    }

    fn apply_floor(&mut self, floor: f64) {
        floor_renormalize(&mut self.pi, floor);
        for i in 0..self.states {
            floor_renormalize(&mut self.a[i * self.states..(i + 1) * self.states], floor);
            floor_renormalize(&mut self.b[i * self.symbols..(i + 1) * self.symbols], floor);
        }
    }

    /// Scaled forward pass; returns (alpha, per-step scale factors).
    #[allow(clippy::needless_range_loop)] // flat-matrix index arithmetic
    fn forward_scaled(&self, seq: &[usize]) -> (Vec<f64>, Vec<f64>) {
        let n = self.states;
        let mut alpha = vec![0.0; seq.len() * n];
        let mut scales = vec![0.0; seq.len()];
        for i in 0..n {
            alpha[i] = self.pi[i] * self.b[i * self.symbols + seq[0]];
        }
        scales[0] = normalize_slice(&mut alpha[0..n]);
        for t in 1..seq.len() {
            for j in 0..n {
                let mut sum = 0.0;
                for i in 0..n {
                    sum += alpha[(t - 1) * n + i] * self.a[i * n + j];
                }
                alpha[t * n + j] = sum * self.b[j * self.symbols + seq[t]];
            }
            scales[t] = normalize_slice(&mut alpha[t * n..(t + 1) * n]);
        }
        (alpha, scales)
    }

    /// Scaled backward pass using the forward scales.
    fn backward_scaled(&self, seq: &[usize], scales: &[f64]) -> Vec<f64> {
        let n = self.states;
        let t_len = seq.len();
        let mut beta = vec![0.0; t_len * n];
        for i in 0..n {
            beta[(t_len - 1) * n + i] = 1.0;
        }
        for t in (0..t_len - 1).rev() {
            for i in 0..n {
                let mut sum = 0.0;
                for j in 0..n {
                    sum += self.a[i * n + j]
                        * self.b[j * self.symbols + seq[t + 1]]
                        * beta[(t + 1) * n + j];
                }
                beta[t * n + i] = if scales[t + 1] > 0.0 { sum / scales[t + 1] } else { 0.0 };
            }
        }
        beta
    }

    /// Log-likelihood `ln P(seq | model)`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is empty or contains an out-of-range symbol.
    #[must_use]
    pub fn log_likelihood(&self, seq: &[usize]) -> f64 {
        assert!(!seq.is_empty(), "cannot score an empty sequence");
        for &o in seq {
            assert!(o < self.symbols, "symbol {o} out of range");
        }
        let (_, scales) = self.forward_scaled(seq);
        scales.iter().map(|&s| if s > 0.0 { s.ln() } else { f64::NEG_INFINITY }).sum()
    }

    /// Reassembles a model from persisted parts (row-stochastic π, A, B).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    #[must_use]
    pub fn from_parts(
        states: usize,
        symbols: usize,
        pi: Vec<f64>,
        a: Vec<f64>,
        b: Vec<f64>,
    ) -> Hmm {
        assert_eq!(pi.len(), states, "pi length mismatch");
        assert_eq!(a.len(), states * states, "A length mismatch");
        assert_eq!(b.len(), states * symbols, "B length mismatch");
        Hmm { states, symbols, pi, a, b }
    }

    /// The persisted parts: `(pi, A, B)` flat row-major matrices.
    #[must_use]
    pub fn parts(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.pi, &self.a, &self.b)
    }

    /// Number of hidden states.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.states
    }

    /// Number of observation symbols.
    #[must_use]
    pub fn symbol_count(&self) -> usize {
        self.symbols
    }
}

/// Normalizes a slice to sum 1, returning the original sum (the scale).
fn normalize_slice(xs: &mut [f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    if sum > 0.0 {
        for x in xs.iter_mut() {
            *x /= sum;
        }
    }
    sum
}

fn floor_renormalize(xs: &mut [f64], floor: f64) {
    for x in xs.iter_mut() {
        if !x.is_finite() || *x < floor {
            *x = floor;
        }
    }
    let sum: f64 = xs.iter().sum();
    for x in xs.iter_mut() {
        *x /= sum;
    }
}

fn random_stochastic(rng: &mut SimRng, rows: usize, cols: usize) -> Vec<Vec<f64>> {
    (0..rows)
        .map(|_| {
            let mut row: Vec<f64> = (0..cols).map(|_| 0.1 + rng.f64()).collect();
            let sum: f64 = row.iter().sum();
            for x in &mut row {
                *x /= sum;
            }
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alternating(len: usize) -> Vec<usize> {
        (0..len).map(|i| i % 2).collect()
    }

    fn constant(len: usize, sym: usize) -> Vec<usize> {
        vec![sym; len]
    }

    #[test]
    fn rows_remain_stochastic_after_training() {
        let seqs = vec![alternating(30), alternating(25)];
        let model = Hmm::train(&seqs, 3, &HmmParams::default());
        let n = model.state_count();
        assert!((model.pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for i in 0..n {
            let a_row: f64 = model.a[i * n..(i + 1) * n].iter().sum();
            assert!((a_row - 1.0).abs() < 1e-9, "A row {i} sums to {a_row}");
            let b_row: f64 = model.b[i * 3..(i + 1) * 3].iter().sum();
            assert!((b_row - 1.0).abs() < 1e-9, "B row {i} sums to {b_row}");
        }
    }

    #[test]
    fn model_prefers_its_training_distribution() {
        let model = Hmm::train(&[alternating(60)], 2, &HmmParams::default());
        let in_dist = model.log_likelihood(&alternating(20));
        let out_dist = model.log_likelihood(&constant(20, 0));
        assert!(in_dist > out_dist, "{in_dist} vs {out_dist}");
    }

    #[test]
    fn two_models_separate_two_languages() {
        let params = HmmParams::default();
        let a = Hmm::train(&[alternating(80)], 3, &params);
        let b = Hmm::train(&[constant(80, 2)], 3, &params);
        let probe_alt = alternating(15);
        let probe_const = constant(15, 2);
        assert!(a.log_likelihood(&probe_alt) > b.log_likelihood(&probe_alt));
        assert!(b.log_likelihood(&probe_const) > a.log_likelihood(&probe_const));
    }

    #[test]
    fn likelihood_is_a_log_probability() {
        let model = Hmm::train(&[alternating(40)], 2, &HmmParams::default());
        // ln P ≤ 0 for any sequence.
        assert!(model.log_likelihood(&alternating(10)) <= 0.0);
        assert!(model.log_likelihood(&constant(10, 1)) <= 0.0);
    }

    #[test]
    fn unseen_symbols_are_floored_not_impossible() {
        // Train on symbols {0,1} of a 3-symbol alphabet; symbol 2 unseen.
        let model = Hmm::train(&[alternating(40)], 3, &HmmParams::default());
        let ll = model.log_likelihood(&constant(5, 2));
        assert!(ll.is_finite(), "unseen symbol must not be -inf");
    }

    #[test]
    fn training_is_deterministic() {
        let seqs = vec![alternating(30)];
        let a = Hmm::train(&seqs, 2, &HmmParams::default());
        let b = Hmm::train(&seqs, 2, &HmmParams::default());
        assert_eq!(a, b);
    }

    #[test]
    fn longer_consistent_sequences_score_proportionally() {
        let model = Hmm::train(&[alternating(60)], 2, &HmmParams::default());
        let ll10 = model.log_likelihood(&alternating(10));
        let ll20 = model.log_likelihood(&alternating(20));
        // Roughly additive per symbol.
        assert!(ll20 < ll10);
        assert!((ll20 / 2.0 - ll10).abs() < 2.0);
    }

    #[test]
    fn length_one_sequences_get_uniform_transitions() {
        // Regression: with only length-1 sequences no transition is ever
        // observed (`a_den` stays 0), and `train` used to return the
        // *random initial* transition matrix silently. The documented
        // fallback is the uniform distribution — deterministic and
        // independent of the seed.
        let seqs = vec![vec![0], vec![1], vec![0], vec![1]];
        let m1 = Hmm::train(&seqs, 2, &HmmParams { seed: 1, ..HmmParams::default() });
        let m2 = Hmm::train(&seqs, 2, &HmmParams { seed: 99, ..HmmParams::default() });
        let n = m1.state_count();
        for i in 0..n {
            for j in 0..n {
                assert!(
                    (m1.a[i * n + j] - 1.0 / n as f64).abs() < 1e-12,
                    "A[{i},{j}] = {} is not uniform",
                    m1.a[i * n + j]
                );
            }
        }
        // The fallback does not depend on the random init.
        assert_eq!(m1.a, m2.a);
        // π and B are still trained: both symbols appear equally often,
        // and scoring still works.
        assert!((m1.pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(m1.log_likelihood(&[0]).is_finite());
    }

    #[test]
    fn mixed_length_one_and_longer_sequences_still_estimate_transitions() {
        // One length-1 sequence among real ones must not trigger the
        // uniform fallback: transitions come from the longer sequences.
        let seqs = vec![vec![0], alternating(40), vec![1]];
        let with_short = Hmm::train(&seqs, 2, &HmmParams::default());
        let uniform = 1.0 / with_short.state_count() as f64;
        let deviates = with_short.a.iter().any(|&x| (x - uniform).abs() > 1e-6);
        assert!(deviates, "A stayed uniform despite transition evidence: {:?}", with_short.a);
    }

    #[test]
    fn pause_and_resume_is_bit_identical() {
        let seqs = vec![alternating(30), constant(20, 1), alternating(25)];
        let params = HmmParams { iterations: 8, ..HmmParams::default() };
        let clean = Hmm::train(&seqs, 2, &params);
        for pause_at in 1..=params.iterations {
            let mut captured = None;
            let paused = Hmm::train_resumable(&seqs, 2, &params, None, &mut |state| {
                captured = Some(state.clone());
                state.iteration < pause_at
            });
            assert!(paused.is_none(), "should have paused at iteration {pause_at}");
            let resumed = Hmm::train_resumable(&seqs, 2, &params, captured, &mut |_| true)
                .expect("resumed training must complete");
            assert_eq!(resumed, clean, "resume after iteration {pause_at} diverged");
        }
    }

    #[test]
    fn full_resume_state_returns_immediately() {
        let seqs = vec![alternating(30)];
        let params = HmmParams::default();
        let mut last = None;
        let clean = Hmm::train_resumable(&seqs, 2, &params, None, &mut |s| {
            last = Some(s.clone());
            true
        })
        .unwrap();
        let state = last.unwrap();
        assert_eq!(state.iteration, params.iterations);
        let mut called = false;
        let resumed = Hmm::train_resumable(&seqs, 2, &params, Some(state), &mut |_| {
            called = true;
            true
        })
        .unwrap();
        assert!(!called, "a complete state must not re-run any iteration");
        assert_eq!(resumed, clean);
    }

    #[test]
    #[should_panic(expected = "resume state count mismatch")]
    fn resume_state_dimension_checked() {
        let seqs = vec![alternating(20)];
        let params = HmmParams::default();
        let mut captured = None;
        let _ = Hmm::train_resumable(&seqs, 2, &params, None, &mut |s| {
            captured = Some(s.clone());
            false
        });
        let bad_params = HmmParams { states: params.states + 1, ..params };
        let _ = Hmm::train_resumable(&seqs, 2, &bad_params, captured, &mut |_| true);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_symbol_rejected() {
        let model = Hmm::train(&[alternating(10)], 2, &HmmParams::default());
        let _ = model.log_likelihood(&[5]);
    }

    #[test]
    #[should_panic(expected = "non-empty sequence")]
    fn empty_training_rejected() {
        let _ = Hmm::train(&[vec![]], 2, &HmmParams::default());
    }
}
