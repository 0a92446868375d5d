//! Benign-vs-mixed classification with a pair of HMMs.

use crate::hmm::{Hmm, HmmParams, HmmState};
use std::collections::BTreeMap;

/// A two-model HMM classifier over discrete event symbols.
///
/// Mirrors the paper's discriminative setup: the positive model is
/// trained on benign sequences, the negative model on mixed sequences
/// (noisy, as in the paper); a test sequence is benign iff the benign
/// model's per-symbol log-likelihood exceeds the mixed model's.
#[derive(Debug, Clone, PartialEq)]
pub struct HmmClassifier {
    benign: Hmm,
    mixed: Hmm,
}

impl HmmClassifier {
    /// Trains the two models.
    ///
    /// Training sequences are symbol chunks of length `chunk`; symbols
    /// must already be discretized into `0..symbols` (use a
    /// `FeatureEncoder` tuple→symbol mapping — see `leaps-core`).
    ///
    /// # Panics
    ///
    /// Panics if either stream produces no non-empty chunk, or symbols
    /// exceed the alphabet.
    #[must_use]
    pub fn fit(
        benign_symbols: &[usize],
        mixed_symbols: &[usize],
        symbols: usize,
        chunk: usize,
        params: &HmmParams,
    ) -> HmmClassifier {
        Self::fit_resumable(
            benign_symbols,
            mixed_symbols,
            symbols,
            chunk,
            params,
            (None, None),
            &mut |_, _| true,
        )
        .expect("non-checkpointing fit cannot pause")
    }

    /// [`HmmClassifier::fit`] with per-iteration checkpoint hooks on
    /// both underlying Baum–Welch runs.
    ///
    /// `checkpoint` receives `(model_index, state)` where index `0` is
    /// the benign model and `1` the mixed model; returning `false`
    /// pauses the fit (`None` is returned). `resume` carries the last
    /// captured state per model: a complete benign state skips that
    /// training entirely, so a fit paused inside the mixed model never
    /// re-trains the benign one. Resumed fits are bit-identical to
    /// uninterrupted ones (see [`Hmm::train_resumable`]).
    ///
    /// # Panics
    ///
    /// Panics on the same invalid inputs as [`HmmClassifier::fit`].
    pub fn fit_resumable(
        benign_symbols: &[usize],
        mixed_symbols: &[usize],
        symbols: usize,
        chunk: usize,
        params: &HmmParams,
        resume: (Option<HmmState>, Option<HmmState>),
        checkpoint: &mut dyn FnMut(usize, &HmmState) -> bool,
    ) -> Option<HmmClassifier> {
        assert!(chunk >= 2, "chunks must hold at least two symbols");
        let chunks = |stream: &[usize]| -> Vec<Vec<usize>> {
            stream.chunks(chunk).map(<[usize]>::to_vec).collect()
        };
        let (benign_resume, mixed_resume) = resume;
        let benign = Hmm::train_resumable(
            &chunks(benign_symbols),
            symbols,
            params,
            benign_resume,
            &mut |state| checkpoint(0, state),
        )?;
        let mixed = Hmm::train_resumable(
            &chunks(mixed_symbols),
            symbols,
            &HmmParams { seed: params.seed ^ 0xbad, ..*params },
            mixed_resume,
            &mut |state| checkpoint(1, state),
        )?;
        Some(HmmClassifier { benign, mixed })
    }

    /// Per-symbol log-likelihood ratio `(benign − mixed) / len`; positive
    /// means benign-like.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is empty or contains out-of-alphabet symbols.
    #[must_use]
    pub fn score(&self, seq: &[usize]) -> f64 {
        let len = seq.len() as f64;
        (self.benign.log_likelihood(seq) - self.mixed.log_likelihood(seq)) / len
    }

    /// The positive (benign) model.
    #[must_use]
    pub fn benign_model(&self) -> &Hmm {
        &self.benign
    }

    /// The negative (mixed) model.
    #[must_use]
    pub fn mixed_model(&self) -> &Hmm {
        &self.mixed
    }

    /// Reassembles a classifier from persisted models.
    #[must_use]
    pub fn from_parts(benign: Hmm, mixed: Hmm) -> HmmClassifier {
        HmmClassifier { benign, mixed }
    }
}

/// A growable mapping from arbitrary ordered observations to dense
/// symbol ids, with a reserved "unknown" symbol for observations first
/// seen at test time.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable<T: Ord> {
    ids: BTreeMap<T, usize>,
}

impl<T: Ord> SymbolTable<T> {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        SymbolTable { ids: BTreeMap::new() }
    }

    /// Interns an observation during training, returning its id.
    pub fn intern(&mut self, obs: T) -> usize {
        let next = self.ids.len();
        *self.ids.entry(obs).or_insert(next)
    }

    /// Looks an observation up at test time; unknown observations map to
    /// the reserved id [`Self::alphabet_size`]` - 1`.
    #[must_use]
    pub fn lookup(&self, obs: &T) -> usize {
        self.ids.get(obs).copied().unwrap_or(self.ids.len())
    }

    /// Alphabet size including the reserved unknown symbol.
    #[must_use]
    pub fn alphabet_size(&self) -> usize {
        self.ids.len() + 1
    }

    /// Iterates `(observation, id)` pairs in observation order (for
    /// persistence; sorted, so persisted artifacts are stable).
    pub fn entries(&self) -> impl Iterator<Item = (&T, usize)> {
        self.ids.iter().map(|(k, &v)| (k, v))
    }

    /// Reassembles a table from persisted entries. Ids must be dense
    /// `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if ids are not dense.
    #[must_use]
    pub fn from_entries(entries: impl IntoIterator<Item = (T, usize)>) -> SymbolTable<T> {
        let ids: BTreeMap<T, usize> = entries.into_iter().collect();
        let n = ids.len();
        let mut seen = vec![false; n];
        for &v in ids.values() {
            assert!(v < n, "symbol id {v} out of range");
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "symbol ids are not dense");
        SymbolTable { ids }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repeat_pattern(pattern: &[usize], len: usize) -> Vec<usize> {
        (0..len).map(|i| pattern[i % pattern.len()]).collect()
    }

    #[test]
    fn classifier_separates_distinct_symbol_languages() {
        // Benign language cycles 0,1,2; "mixed" (malicious-ish) uses 3,4.
        let benign = repeat_pattern(&[0, 1, 2], 200);
        let mixed = repeat_pattern(&[3, 4], 200);
        let clf = HmmClassifier::fit(&benign, &mixed, 5, 40, &HmmParams::default());
        assert!(clf.score(&repeat_pattern(&[0, 1, 2], 12)) > 0.0);
        assert!(clf.score(&repeat_pattern(&[3, 4], 12)) < 0.0);
    }

    #[test]
    fn noisy_mixed_stream_still_flags_pure_malicious() {
        // The mixed stream interleaves benign and malicious symbols (the
        // paper's noisy-negative situation).
        let benign = repeat_pattern(&[0, 1], 300);
        let mixed: Vec<usize> =
            (0..300).map(|i| if (i / 25) % 2 == 0 { i % 2 } else { 2 + i % 2 }).collect();
        let clf = HmmClassifier::fit(&benign, &mixed, 4, 50, &HmmParams::default());
        assert!(clf.score(&repeat_pattern(&[2, 3], 12)) < 0.0);
    }

    #[test]
    fn fit_pause_and_resume_is_bit_identical() {
        let benign = repeat_pattern(&[0, 1, 2], 120);
        let mixed = repeat_pattern(&[3, 4], 120);
        let params = HmmParams { iterations: 4, ..HmmParams::default() };
        let clean = HmmClassifier::fit(&benign, &mixed, 5, 30, &params);

        // Pause after every (model, iteration) boundary and resume; the
        // result must always match the uninterrupted fit.
        let total = 2 * params.iterations;
        for pause_at in 1..=total {
            let mut captured: (Option<HmmState>, Option<HmmState>) = (None, None);
            let mut n = 0usize;
            let paused = HmmClassifier::fit_resumable(
                &benign,
                &mixed,
                5,
                30,
                &params,
                (None, None),
                &mut |which, state| {
                    n += 1;
                    if which == 0 {
                        captured.0 = Some(state.clone());
                    } else {
                        captured.1 = Some(state.clone());
                    }
                    n < pause_at
                },
            );
            assert!(paused.is_none(), "should have paused at boundary {pause_at}");
            let resumed = HmmClassifier::fit_resumable(
                &benign,
                &mixed,
                5,
                30,
                &params,
                captured,
                &mut |_, _| true,
            )
            .expect("resumed fit must complete");
            assert_eq!(resumed, clean, "resume after boundary {pause_at} diverged");
        }
    }

    #[test]
    fn models_are_accessible() {
        let clf = HmmClassifier::fit(
            &repeat_pattern(&[0], 40),
            &repeat_pattern(&[1], 40),
            2,
            20,
            &HmmParams::default(),
        );
        assert_eq!(clf.benign_model().symbol_count(), 2);
        assert_eq!(clf.mixed_model().state_count(), HmmParams::default().states);
    }

    #[test]
    fn symbol_table_interns_and_handles_unknowns() {
        let mut table: SymbolTable<(u32, u32)> = SymbolTable::new();
        let a = table.intern((1, 2));
        let b = table.intern((3, 4));
        assert_ne!(a, b);
        assert_eq!(table.intern((1, 2)), a);
        assert_eq!(table.lookup(&(1, 2)), a);
        // Unknown at test time → reserved last id.
        assert_eq!(table.lookup(&(9, 9)), table.alphabet_size() - 1);
        assert_eq!(table.alphabet_size(), 3);
    }
}
