//! `train.cv.gram_builds` counts one kernel matrix per (λ, σ²) chunk, not
//! one per fold, and a resumed search rebuilds only the chunks it still
//! has to run. This file is its own test binary, so no concurrently
//! running test shares the process-wide counter.

use leaps_svm::cv::{CvState, GridSearch};
use leaps_svm::data::{Sample, TrainSet};

fn builds() -> u64 {
    leaps_obs::registry().counter("train.cv.gram_builds").value()
}

fn set() -> TrainSet {
    let mut samples = Vec::new();
    for i in 0..30 {
        let d = f64::from(i % 6) * 0.03;
        samples.push(Sample::new(vec![0.2 + d, 0.3 - d], 1.0, 1.0));
        samples.push(Sample::new(vec![0.6 + d, 0.5 + d], -1.0, 0.5 + d));
    }
    TrainSet::new(samples).unwrap()
}

#[test]
fn one_gram_matrix_per_chunk_and_resume_rebuilds_only_what_is_left() {
    let set = set();
    let gs = GridSearch::default();
    let chunks = gs.lambdas.len() * gs.sigma2s.len();
    assert_eq!(chunks, 9);

    let before = builds();
    let clean = gs.run(&set);
    assert_eq!(builds() - before, 9, "a fresh default-grid search builds one matrix per chunk");

    // Pause after four chunks, then resume from a state that also holds
    // part of the fifth (a mid-chunk crash): the resumed search redoes
    // the fifth chunk and builds only the five matrices left.
    let mut state = None;
    let mut seen = 0;
    let before = builds();
    let paused = gs.run_resumable(&set, None, &mut |s| {
        seen += 1;
        state = Some(s.clone());
        seen < 4
    });
    assert!(paused.is_none());
    assert_eq!(builds() - before, 4);
    let mut state: CvState = state.unwrap();
    state.scores.push(Some(0.5));
    let before = builds();
    let resumed = gs.run_resumable(&set, Some(state), &mut |_| true).unwrap();
    assert_eq!(builds() - before, 5, "resume rebuilds only the remaining chunks");
    assert_eq!(resumed, clean);
}
