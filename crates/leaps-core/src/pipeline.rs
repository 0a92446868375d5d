//! The training and testing phases (paper Section II-B), wired across all
//! substrate crates.
//!
//! Training (Figure 1):
//!
//! 1. benign + mixed logs are parsed and stack-partitioned upstream
//!    (`Dataset`);
//! 2. the feature encoder (hierarchical clustering) is fitted on the
//!    training events;
//! 3. CFGs are inferred from the application stack traces of the benign
//!    training half and of the mixed log; Algorithm 2 scores each mixed
//!    event's benignity;
//! 4. benign training points (label +1, weight 1) and weighted mixed
//!    points (label −1, weight = maliciousness) are coalesced into
//!    30-dimensional samples, 20% subsampled;
//! 5. (λ, σ²) are tuned by cross-validation and the weighted SVM is
//!    trained.
//!
//! The plain-SVM baseline is the same pipeline with all mixed weights
//! forced to 1; the call-graph baseline replaces steps 2–5 with BCG/MCG
//! construction.
//!
//! There is one training path. Its long-running stages (the CV grid and
//! the SMO solve of step 5, or the two Baum–Welch runs of the HMM) offer
//! their state at each checkpoint boundary to a stage sink.
//! [`try_train_classifier_checkpointed`] gives the sink a
//! [`CheckpointSpec`]: it writes each state to the stage's file and
//! pauses at the deadline. [`try_train_classifier`] runs the same path
//! without a spec, so the sink builds and writes nothing and no stage
//! pauses. The universal classifier ([`crate::universal`]) pools several
//! applications through the same step 3–5 functions.

use crate::config::{PipelineConfig, WeightMode, WeightPolarity};
use crate::error::{DataError, LeapsError};
use crate::metrics::ConfusionMatrix;
use crate::persist::{
    cv_checkpoint, cv_state, fingerprint64, hmm_checkpoint, hmm_state, load_checkpoint_file,
    save_checkpoint_to, smo_checkpoint, smo_state, verify_checkpoint, Checkpoint, ModelError,
    CKPT_PAYLOAD_LINE,
};
use crate::stream::{EncodeScratch, StreamDetector};
use leaps_cfg::infer::infer_cfg;
use leaps_cfg::weight::assess_weights;
use leaps_cgraph::classify::{CallGraphClassifier, Decision};
use leaps_cluster::features::FeatureEncoder;
use leaps_etw::rng::SimRng;
use leaps_hmm::classify::{HmmClassifier, SymbolTable};
use leaps_hmm::hmm::{HmmParams, HmmState};
use leaps_svm::cv::{GridSearch, Scoring};
use leaps_svm::data::{Sample, TrainSet};
use leaps_svm::kernel::Kernel;
use leaps_svm::model::SvmModel;
use leaps_svm::smo::{train_resumable as smo_train_resumable, SmoParams};
use leaps_trace::partition::PartitionedEvent;
use std::path::PathBuf;
use std::sync::Arc;

/// The detection methods: the three the paper compares in Figures 6 and
/// 7, plus the HMM sequence model it names as future work (Section VI-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// System-level call-graph model (Section III-D-1).
    CGraph,
    /// Plain SVM (uniform weights).
    Svm,
    /// CFG-guided Weighted SVM — LEAPS.
    Wsvm,
    /// Hidden-Markov-model sequence classifier (extension).
    Hmm,
}

impl Method {
    /// The paper's three methods, in the figures' order.
    pub const ALL: [Method; 3] = [Method::CGraph, Method::Svm, Method::Wsvm];

    /// The paper's methods plus the extensions.
    pub const EXTENDED: [Method; 4] = [Method::CGraph, Method::Svm, Method::Wsvm, Method::Hmm];

    /// Display label used in the figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Method::CGraph => "CGraph",
            Method::Svm => "SVM",
            Method::Wsvm => "WSVM",
            Method::Hmm => "HMM",
        }
    }

    /// Parses a method from its display label (case-insensitive).
    #[must_use]
    pub fn from_label(label: &str) -> Option<Method> {
        Method::EXTENDED.into_iter().find(|m| m.label().eq_ignore_ascii_case(label))
    }
}

/// A trained application-wise binary classifier.
#[derive(Debug, Clone)]
pub enum Classifier {
    /// Call-graph decision model.
    CGraph(CallGraphClassifier),
    /// (Weighted) SVM with its feature encoder.
    Svm(SvmClassifier),
    /// HMM sequence model (extension).
    Hmm(HmmDetector),
}

/// A trained HMM classifier bundled with its feature encoder and symbol
/// table.
#[derive(Debug, Clone)]
pub struct HmmDetector {
    clf: HmmClassifier,
    encoder: FeatureEncoder,
    table: SymbolTable<(u32, u32, u32)>,
}

impl HmmDetector {
    /// The observation symbol of an encoder tuple (see
    /// [`FeatureEncoder::tuple`]); unseen tuples map to the unknown symbol.
    #[must_use]
    pub fn symbol_of(&self, tuple: (u32, u32, u32)) -> usize {
        self.table.lookup(&tuple)
    }

    /// The fitted feature encoder whose tuples the symbol table maps.
    #[must_use]
    pub fn encoder(&self) -> &FeatureEncoder {
        &self.encoder
    }

    /// The preprocessing configuration (window/stride) of the encoder.
    #[must_use]
    pub fn encoder_config(&self) -> leaps_cluster::features::PreprocessConfig {
        self.encoder.config()
    }

    /// Per-symbol log-likelihood ratio of an event window (positive =
    /// benign-like).
    #[must_use]
    pub fn score_events(&self, events: &[PartitionedEvent]) -> f64 {
        let symbols: Vec<usize> =
            events.iter().map(|e| self.symbol_of(self.encoder.tuple(e))).collect();
        self.score_symbols(&symbols)
    }

    /// Per-symbol log-likelihood ratio of a window of observation
    /// symbols (see [`HmmDetector::symbol_of`]); positive = benign-like.
    #[must_use]
    pub fn score_symbols(&self, symbols: &[usize]) -> f64 {
        self.clf.score(symbols)
    }

    /// The persisted parts: classifier, encoder and symbol table.
    #[must_use]
    pub fn parts(&self) -> (&HmmClassifier, &FeatureEncoder, &SymbolTable<(u32, u32, u32)>) {
        (&self.clf, &self.encoder, &self.table)
    }

    /// Reassembles a detector from persisted parts.
    #[must_use]
    pub fn from_parts(
        clf: HmmClassifier,
        encoder: FeatureEncoder,
        table: SymbolTable<(u32, u32, u32)>,
    ) -> HmmDetector {
        HmmDetector { clf, encoder, table }
    }
}

/// A trained SVM-family classifier bundled with the feature encoder that
/// produced its input space.
#[derive(Debug, Clone)]
pub struct SvmClassifier {
    /// The trained kernel machine.
    pub model: SvmModel,
    /// The fitted preprocessing (clustering) stage.
    pub encoder: FeatureEncoder,
    /// The tuned (λ, σ²).
    pub tuned: (f64, f64),
}

/// Trains a classifier of the given method.
///
/// `benign_train` is the training half of the pure benign samples; the
/// mixed log is always fully available to training (it is the negative
/// class).
///
/// # Panics
///
/// Panics if the inputs are too small to produce at least one coalesced
/// training point per class, or if `config` is invalid. Use
/// [`try_train_classifier`] when the inputs come from untrusted or
/// degraded telemetry.
#[must_use]
pub fn train_classifier(
    method: Method,
    benign_train: &[PartitionedEvent],
    mixed: &[PartitionedEvent],
    config: &PipelineConfig,
    seed: u64,
) -> Classifier {
    match try_train_classifier(method, benign_train, mixed, config, seed) {
        Ok(classifier) => classifier,
        Err(e) => panic!("not enough events to form coalesced training points: {e}"),
    }
}

/// Fallible variant of [`train_classifier`]: instead of panicking on
/// inputs too damaged or too small to train on, reports which input fell
/// short. This is the entry point for pipelines fed by lossy telemetry,
/// where fault injection or lenient parsing may have consumed most of a
/// log. It runs the training path of
/// [`try_train_classifier_checkpointed`] without a checkpoint spec.
///
/// # Errors
///
/// Returns a [`DataError`] when either log is empty, when coalescing
/// yields no training point for a class, or when the sampled training set
/// is degenerate (e.g. single-class).
///
/// # Panics
///
/// Still panics if `config` itself is invalid — a configuration bug, not
/// a data condition.
pub fn try_train_classifier(
    method: Method,
    benign_train: &[PartitionedEvent],
    mixed: &[PartitionedEvent],
    config: &PipelineConfig,
    seed: u64,
) -> Result<Classifier, DataError> {
    match train(method, benign_train, mixed, config, seed, None) {
        Ok(classifier) => Ok(classifier),
        Err(Halt::Failed(LeapsError::Data(e))) => Err(e),
        Err(halt) => unreachable!("training without checkpoints halted: {halt:?}"),
    }
}

/// Checkpointing configuration for [`try_train_classifier_checkpointed`].
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Directory holding the per-stage checkpoint files (created if
    /// absent): `cv.ckpt`, `smo.ckpt`, `hmm-benign.ckpt`,
    /// `hmm-mixed.ckpt`.
    pub dir: PathBuf,
    /// Resume from checkpoints found in `dir` instead of starting fresh.
    /// Checkpoints from a different run configuration (method, seed,
    /// data, hyper-parameters) are rejected, not silently adopted.
    pub resume: bool,
    /// SMO checkpoint stride: the solver offers its state every `every`
    /// iterations (0 disables SMO checkpoints; CV and Baum–Welch always
    /// checkpoint at their natural chunk/iteration boundaries).
    pub every: usize,
    /// Obs-clock deadline in microseconds (compared against
    /// [`leaps_obs::now_micros`]): training pauses at the first
    /// checkpoint boundary at or past this instant, leaving the state
    /// on disk for a later `resume` run. An already-expired deadline
    /// (e.g. `Some(0)`) pauses at the very first boundary — useful for
    /// deterministic interrupt drills.
    pub deadline: Option<u64>,
}

impl CheckpointSpec {
    /// A spec writing to `dir` with the default SMO stride, no resume,
    /// no deadline.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointSpec {
        CheckpointSpec { dir: dir.into(), resume: false, every: 200, deadline: None }
    }

    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| leaps_obs::now_micros() >= d)
    }

    /// The checkpoint file of `stage` (`cv`, `smo`, `hmm-benign`,
    /// `hmm-mixed`).
    fn file(&self, stage: &str) -> PathBuf {
        self.dir.join(format!("{stage}.ckpt"))
    }
}

/// Outcome of a checkpointed training run.
#[derive(Debug)]
pub enum TrainRun {
    /// Training finished; the stage checkpoint files were removed.
    Done(Box<Classifier>),
    /// Training paused at a checkpoint boundary (deadline reached). The
    /// named stage's state is on disk; rerunning with
    /// [`CheckpointSpec::resume`] continues from it, bit-identically.
    Paused {
        /// Which stage paused (`cv`, `smo`, `hmm-benign`, `hmm-mixed`).
        stage: &'static str,
        /// The stage's progress counter at the pause point.
        progress: u64,
    },
}

/// [`try_train_classifier`] with checkpoints: the long-running training
/// stages (CV grid, SMO, Baum–Welch) write their state to `spec.dir`
/// through the atomic-write protocol at every checkpoint boundary, and
/// pause when `spec.deadline` passes. A later run with `spec.resume`
/// picks up from the saved state and produces a model **bit-identical**
/// to an uninterrupted run (DESIGN.md §13): all stochastic choices are
/// either re-derived from `seed` (everything before the first stage) or
/// carried in the checkpoint itself (the Baum–Welch initialization).
///
/// # Errors
///
/// [`LeapsError::Data`] on degenerate inputs, [`LeapsError::Io`] when a
/// checkpoint cannot be written or read, [`LeapsError::Model`] when an
/// existing checkpoint is corrupt or belongs to a different run.
///
/// # Panics
///
/// Panics if `config` itself is invalid — a configuration bug, not a
/// data condition.
pub fn try_train_classifier_checkpointed(
    method: Method,
    benign_train: &[PartitionedEvent],
    mixed: &[PartitionedEvent],
    config: &PipelineConfig,
    seed: u64,
    spec: &CheckpointSpec,
) -> Result<TrainRun, LeapsError> {
    match train(method, benign_train, mixed, config, seed, Some(spec)) {
        Ok(classifier) => Ok(TrainRun::Done(Box::new(classifier))),
        Err(Halt::Paused { stage, progress }) => Ok(TrainRun::Paused { stage, progress }),
        Err(Halt::Failed(e)) => Err(e),
    }
}

/// Why a training run stopped without a classifier.
#[derive(Debug)]
pub(crate) enum Halt {
    /// A stage paused at a checkpoint boundary past the deadline.
    Paused { stage: &'static str, progress: u64 },
    /// Bad data, or a checkpoint that could not be written or read.
    Failed(LeapsError),
}

impl From<LeapsError> for Halt {
    fn from(e: LeapsError) -> Halt {
        Halt::Failed(e)
    }
}

impl From<DataError> for Halt {
    fn from(e: DataError) -> Halt {
        Halt::Failed(e.into())
    }
}

/// The one training path. With a spec, the stages checkpoint through a
/// [`StageSink`] bound to this run; without one, nothing touches the disk
/// and no stage pauses.
fn train(
    method: Method,
    benign_train: &[PartitionedEvent],
    mixed: &[PartitionedEvent],
    config: &PipelineConfig,
    seed: u64,
    spec: Option<&CheckpointSpec>,
) -> Result<Classifier, Halt> {
    config.validate();
    if benign_train.is_empty() {
        return Err(DataError::EmptyLog { role: "benign training" }.into());
    }
    if mixed.is_empty() {
        return Err(DataError::EmptyLog { role: "mixed" }.into());
    }
    let mut sink = match spec {
        Some(spec) => {
            std::fs::create_dir_all(&spec.dir)
                .map_err(|e| LeapsError::io(spec.dir.display().to_string(), &e))?;
            // Everything that shapes the training trajectory goes into
            // the fingerprint, so a checkpoint can never silently resume
            // a different run.
            let fingerprint = fingerprint64(&[
                method.label(),
                &seed.to_string(),
                &benign_train.len().to_string(),
                &mixed.len().to_string(),
                &format!("{config:?}"),
            ]);
            StageSink { spec: Some(spec), fingerprint, halt: None }
        }
        None => StageSink::off(),
    };
    match method {
        // Call-graph fitting is a single linear pass — quicker than a
        // checkpoint write; it never pauses.
        Method::CGraph => {
            Ok(Classifier::CGraph(CallGraphClassifier::fit(benign_train.iter(), mixed.iter())))
        }
        Method::Svm | Method::Wsvm => {
            svm_classifier(method, benign_train, mixed, config, seed, &mut sink)
        }
        Method::Hmm => hmm_classifier(benign_train, mixed, config, seed, &mut sink),
    }
}

/// Where the long-running stages (CV grid, SMO, Baum–Welch) offer their
/// state at each checkpoint boundary. With a spec, the sink writes the
/// state to the stage's file and pauses once the deadline has passed;
/// without one, it lets every stage run to the end and writes nothing.
pub(crate) struct StageSink<'a> {
    spec: Option<&'a CheckpointSpec>,
    /// Binds the checkpoints to one run (see [`train`]).
    fingerprint: u64,
    /// Why the last stage stopped early: the I/O error that stopped it,
    /// or the pause point.
    halt: Option<Halt>,
}

impl StageSink<'_> {
    /// The sink of a run without checkpoints.
    pub(crate) fn off() -> StageSink<'static> {
        StageSink { spec: None, fingerprint: 0, halt: None }
    }

    /// Offers one boundary's state of `stage`; `checkpoint` builds it
    /// from the run's fingerprint, only when there is a spec. Returns
    /// whether the stage goes on.
    fn offer(&mut self, stage: &'static str, checkpoint: impl FnOnce(u64) -> Checkpoint) -> bool {
        let Some(spec) = self.spec else {
            return true;
        };
        let ckpt = checkpoint(self.fingerprint);
        if let Err(e) = save_checkpoint_to(&spec.file(stage), &ckpt) {
            self.halt = Some(Halt::Failed(e));
            return false;
        }
        if spec.expired() {
            self.halt = Some(Halt::Paused { stage, progress: ckpt.progress });
            return false;
        }
        true
    }

    /// Why a stage returned no result: it stopped at an [`offer`].
    ///
    /// [`offer`]: StageSink::offer
    fn stopped(&mut self) -> Halt {
        self.halt.take().expect("a stage stopped without an I/O error or a pause")
    }

    /// The saved state of `stage` when resuming: its file's envelope must
    /// carry stage tag `tag` and this run's fingerprint, and the state
    /// `decode` reads from it must pass `fits`, or it is refused as a
    /// model error naming the file. `Ok(None)` without a spec, when not
    /// resuming, or when the file does not exist yet.
    fn resume<S>(
        &self,
        stage: &str,
        tag: &str,
        decode: impl FnOnce(&Checkpoint) -> Result<S, ModelError>,
        fits: impl FnOnce(&S) -> Result<(), String>,
    ) -> Result<Option<S>, LeapsError> {
        let Some(spec) = self.spec.filter(|spec| spec.resume) else {
            return Ok(None);
        };
        let path = spec.file(stage);
        if !path.exists() {
            return Ok(None);
        }
        let ckpt = load_checkpoint_file(&path)?;
        let in_file = |inner: ModelError| {
            LeapsError::Model(ModelError::InFile {
                path: path.display().to_string(),
                inner: Box::new(inner),
            })
        };
        verify_checkpoint(&ckpt, tag, self.fingerprint).map_err(in_file)?;
        // A state that decodes but does not fit this run is refused,
        // never resumed: a bad record at its first payload line. The
        // decoders have already refused faults in the values themselves
        // (a non-finite gradient, a row that is not a distribution) at
        // their own lines.
        let state = decode(&ckpt)
            .and_then(|state| {
                fits(&state)
                    .map_err(|reason| ModelError::BadRecord { line: CKPT_PAYLOAD_LINE, reason })?;
                Ok(state)
            })
            .map_err(in_file)?;
        Ok(Some(state))
    }

    /// Removes the stage files of a run that completed.
    fn clear(&self, stages: &[&str]) {
        if let Some(spec) = self.spec {
            for stage in stages {
                let _ = std::fs::remove_file(spec.file(stage));
            }
        }
    }
}

/// Length of HMM training chunks: long enough for transition statistics,
/// short enough that the mixed log yields many sequences.
const HMM_TRAIN_CHUNK: usize = 50;

/// The two Baum–Welch runs, benign model first.
const HMM_STAGES: [&str; 2] = ["hmm-benign", "hmm-mixed"];

/// The HMM extension: encoder fit, symbol interning, then the two
/// Baum–Welch runs, whose iterations are offered to `sink`.
fn hmm_classifier(
    benign_train: &[PartitionedEvent],
    mixed: &[PartitionedEvent],
    config: &PipelineConfig,
    seed: u64,
    sink: &mut StageSink,
) -> Result<Classifier, Halt> {
    let fit_events: Vec<&PartitionedEvent> = benign_train.iter().chain(mixed).collect();
    let encoder = FeatureEncoder::fit(&fit_events, config.preprocess);
    let mut table: SymbolTable<(u32, u32, u32)> = SymbolTable::new();
    let benign_symbols: Vec<usize> =
        benign_train.iter().map(|e| table.intern(encoder.tuple(e))).collect();
    let mixed_symbols: Vec<usize> = mixed.iter().map(|e| table.intern(encoder.tuple(e))).collect();

    // Both models share the envelope stage tag "hmm"; which model a file
    // belongs to is carried by the file name.
    let params = HmmParams { seed, ..HmmParams::default() };
    let fits = |state: &HmmState| state.check(table.alphabet_size(), &params);
    let resume = (
        sink.resume(HMM_STAGES[0], "hmm", hmm_state, fits)?,
        sink.resume(HMM_STAGES[1], "hmm", hmm_state, fits)?,
    );
    let clf = HmmClassifier::fit_resumable(
        &benign_symbols,
        &mixed_symbols,
        table.alphabet_size(),
        HMM_TRAIN_CHUNK,
        &params,
        resume,
        &mut |which, state| sink.offer(HMM_STAGES[which], |fp| hmm_checkpoint(state, fp)),
    );
    let clf = clf.ok_or_else(|| sink.stopped())?;
    sink.clear(&HMM_STAGES);
    Ok(Classifier::Hmm(HmmDetector { clf, encoder, table }))
}

/// Steps 2–5 of the module docs for one application.
fn svm_classifier(
    method: Method,
    benign_train: &[PartitionedEvent],
    mixed: &[PartitionedEvent],
    config: &PipelineConfig,
    seed: u64,
    sink: &mut StageSink,
) -> Result<Classifier, Halt> {
    let fit_events: Vec<&PartitionedEvent> = benign_train.iter().chain(mixed).collect();
    let encoder = FeatureEncoder::fit(&fit_events, config.preprocess);
    let mut samples = Vec::new();
    let mut rng = SimRng::new(seed ^ 0x7ea1_11ed);
    let (benign_points, mixed_points) =
        sample_points(method, &encoder, benign_train, mixed, config, &mut rng, &mut samples);
    let too_few =
        |role, got| DataError::TooFewEvents { role, needed: config.preprocess.window, got };
    if benign_points == 0 {
        return Err(too_few("benign training events", benign_train.len()).into());
    }
    if mixed_points == 0 {
        return Err(too_few("mixed events", mixed.len()).into());
    }
    let train_set = TrainSet::new(samples).map_err(DataError::Degenerate)?;
    let svm = tune_and_solve(encoder, &train_set, &tuning_grid(config, seed), sink)?;
    Ok(Classifier::Svm(svm))
}

/// Step 3: the maliciousness of each mixed event, by event number. WSVM
/// scores it with Algorithm 2 against the CFG of the application's
/// benign training events; the plain SVM weighs every event 1.
fn mixed_maliciousness(
    method: Method,
    benign_train: &[PartitionedEvent],
    mixed: &[PartitionedEvent],
    config: &PipelineConfig,
) -> Box<dyn Fn(u64) -> f64> {
    if method != Method::Wsvm {
        return Box::new(|_| 1.0);
    }
    let bcfg = infer_cfg(benign_train);
    let mcfg = infer_cfg(mixed);
    let weights = match config.weight_mode {
        WeightMode::AddressSpace => assess_weights(&bcfg.cfg, &mcfg, config.weight),
        WeightMode::Aligned => leaps_cfg::align::assess_weights_aligned(&bcfg, &mcfg),
    };
    match config.weight_polarity {
        WeightPolarity::Maliciousness => Box::new(move |num| weights.maliciousness(num)),
        WeightPolarity::Benignity => Box::new(move |num| weights.benignity_or_default(num)),
    }
}

/// Steps 3–4 for one application: coalesces its benign training events
/// and its mixed events into points and appends a sample of each class
/// to `samples`, drawing from `rng` (benign: label +1, weight 1; mixed:
/// label −1, weight = coalesced maliciousness). Returns how many benign
/// and mixed points the logs coalesced into.
pub(crate) fn sample_points(
    method: Method,
    encoder: &FeatureEncoder,
    benign_train: &[PartitionedEvent],
    mixed: &[PartitionedEvent],
    config: &PipelineConfig,
    rng: &mut SimRng,
    samples: &mut Vec<Sample>,
) -> (usize, usize) {
    let maliciousness = mixed_maliciousness(method, benign_train, mixed, config);
    let benign_refs: Vec<&PartitionedEvent> = benign_train.iter().collect();
    let mixed_refs: Vec<&PartitionedEvent> = mixed.iter().collect();
    let (benign_points, _) = encoder.encode_sequence(&benign_refs);
    let (mixed_points, mixed_covers) = encoder.encode_sequence(&mixed_refs);
    let counts = (benign_points.len(), mixed_points.len());
    for point in benign_points {
        if rng.chance(config.sample_fraction) {
            samples.push(Sample::new(point, 1.0, 1.0));
        }
    }
    // Sample the same expected number of points from each class (the
    // paper samples 20% "from each dataset"); the mixed log is larger
    // than the benign training half, so its fraction is scaled down.
    let negative_fraction = config.sample_fraction * counts.0 as f64 / counts.1.max(1) as f64;
    for (point, cover) in mixed_points.into_iter().zip(&mixed_covers) {
        if rng.chance(negative_fraction.min(1.0)) {
            let c = coalesced_weight(cover, |i| maliciousness(mixed[i].num), config.weight_floor);
            samples.push(Sample::new(point, -1.0, c));
        }
    }
    counts
}

/// The (λ, σ²) cross-validation grid of `config`, its folds drawn from
/// `seed`.
pub(crate) fn tuning_grid(config: &PipelineConfig, seed: u64) -> GridSearch {
    GridSearch {
        lambdas: config.tuning.lambdas.clone(),
        sigma2s: config.tuning.sigma2s.clone(),
        folds: config.tuning.folds,
        seed,
        scoring: Scoring::WeightedBalanced,
    }
}

/// Step 5: tunes (λ, σ²) over `grid`, then trains the final model on the
/// full set. The CV grid offers its state to `sink` after each (λ, σ²)
/// chunk and the SMO solve every `spec.every` iterations; the kernel
/// matrix is recomputed on resume (a pure function of the set), only the
/// solver state is saved.
pub(crate) fn tune_and_solve(
    encoder: FeatureEncoder,
    train_set: &TrainSet,
    grid: &GridSearch,
    sink: &mut StageSink,
) -> Result<SvmClassifier, Halt> {
    // The seed-expanded generator state, recorded in the CV/SMO
    // checkpoints: both stages are deterministic given the seed, so it
    // is never consumed on resume.
    let rng_state = SimRng::new(grid.seed).state();

    let cv_resume = sink.resume("cv", "cv", cv_state, |s| s.check(grid.cell_count(train_set)))?;
    let best = grid.run_resumable(train_set, cv_resume, &mut |state| {
        sink.offer("cv", |fp| cv_checkpoint(state, fp, rng_state))
    });
    let best = best.ok_or_else(|| sink.stopped())?;

    let params = SmoParams { lambda: best.lambda, ..Default::default() };
    let smo_resume = sink.resume("smo", "smo", smo_state, |s| s.check(train_set, &params))?;
    let model = smo_train_resumable(
        train_set,
        Kernel::Gaussian { sigma2: best.sigma2 },
        &params,
        smo_resume,
        sink.spec.map_or(0, |spec| spec.every),
        &mut |state| sink.offer("smo", |fp| smo_checkpoint(state, fp, rng_state)),
    );
    let model = model.ok_or_else(|| sink.stopped())?;
    sink.clear(&["cv", "smo"]);
    Ok(SvmClassifier { model, encoder, tuned: (best.lambda, best.sigma2) })
}

/// Coalesced-point weight: mean maliciousness over the covered events,
/// floored so the negative class keeps a feasible box (Eq. 2 needs
/// `cᵢ > 0`). An empty cover yields the floor directly — averaging over
/// zero events would otherwise produce `0/0 = NaN` and poison the SMO
/// box constraints.
fn coalesced_weight(cover: &[usize], maliciousness: impl Fn(usize) -> f64, floor: f64) -> f64 {
    if cover.is_empty() {
        return floor;
    }
    let mean = cover.iter().map(|&i| maliciousness(i)).sum::<f64>() / cover.len() as f64;
    mean.max(floor)
}

impl Classifier {
    /// Evaluates the classifier on held-out benign events (expected
    /// positive) and pure malicious events (expected negative).
    ///
    /// SVM-family and HMM classifiers are scored by the detector that
    /// serves ([`StreamDetector`]), one verdict per coalesced window, with
    /// a fresh detector per log so no window straddles the two. The
    /// held-out benign half is made of chunks whose sequence numbers
    /// jump, so many of its verdicts are `degraded`: the flag does not
    /// change a score. As in the detector, an event that repeats the
    /// previous sequence number is dropped.
    ///
    /// The call-graph model is scored per event, with undecidable
    /// outcomes counted as misclassifications on both sides (Section
    /// III-D-1). The stream reports an undecidable event as not benign,
    /// which would count it as a caught malicious event.
    #[must_use]
    pub fn evaluate(
        &self,
        benign_test: &[PartitionedEvent],
        malicious_test: &[PartitionedEvent],
    ) -> ConfusionMatrix {
        let mut cm = ConfusionMatrix::default();
        if let Classifier::CGraph(model) = self {
            for e in benign_test {
                cm.record_benign(model.classify(e) == Decision::Benign);
            }
            for e in malicious_test {
                cm.record_malicious(model.classify(e) == Decision::Malicious);
            }
            return cm;
        }
        let classifier = Arc::new(self.clone());
        let mut scratch = EncodeScratch::default();
        for (events, benign) in [(benign_test, true), (malicious_test, false)] {
            let mut detector = StreamDetector::new(Arc::clone(&classifier));
            for e in events {
                if let Some(v) = detector.push_encoded(e.num, classifier.encode(&mut scratch, e)) {
                    if benign {
                        cm.record_benign(v.benign);
                    } else {
                        cm.record_malicious(!v.benign);
                    }
                }
            }
        }
        cm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use leaps_etw::scenario::{GenParams, Scenario};

    fn dataset(name: &str) -> Dataset {
        Dataset::materialize(Scenario::by_name(name).unwrap(), &GenParams::small(), 21).unwrap()
    }

    #[test]
    fn method_labels() {
        assert_eq!(Method::Wsvm.label(), "WSVM");
        assert_eq!(Method::ALL.len(), 3);
    }

    #[test]
    fn coalesced_weight_handles_empty_cover() {
        // Regression: an empty cover used to average over zero events and
        // produce a NaN sample weight.
        let w = coalesced_weight(&[], |_| 0.9, 0.05);
        assert_eq!(w, 0.05);
        assert!(!w.is_nan());
    }

    #[test]
    fn coalesced_weight_means_and_floors() {
        let malice = |i: usize| [0.2, 0.4, 0.0][i];
        assert!((coalesced_weight(&[0, 1], malice, 0.05) - 0.3).abs() < 1e-12);
        // Mean below the floor is clamped up.
        assert_eq!(coalesced_weight(&[2], malice, 0.05), 0.05);
    }

    #[test]
    fn try_train_reports_empty_inputs() {
        let d = dataset("vim_reverse_tcp");
        let (train, _) = d.split_benign(0.5, 1);
        let cfg = PipelineConfig::fast();
        let err = try_train_classifier(Method::Wsvm, &[], &d.mixed, &cfg, 1).unwrap_err();
        assert!(matches!(err, DataError::EmptyLog { role: "benign training" }), "{err}");
        let err = try_train_classifier(Method::Wsvm, &train, &[], &cfg, 1).unwrap_err();
        assert!(matches!(err, DataError::EmptyLog { role: "mixed" }), "{err}");
    }

    #[test]
    fn try_train_reports_too_few_events() {
        let d = dataset("vim_reverse_tcp");
        let few = &d.benign[..1];
        let err = try_train_classifier(Method::Wsvm, few, &d.mixed, &PipelineConfig::fast(), 1)
            .unwrap_err();
        assert!(matches!(err, DataError::TooFewEvents { .. }), "{err}");
    }

    #[test]
    fn try_train_succeeds_on_healthy_inputs() {
        let d = dataset("vim_reverse_tcp");
        let (train, test) = d.split_benign(0.5, 1);
        let c = try_train_classifier(Method::Wsvm, &train, &d.mixed, &PipelineConfig::fast(), 1)
            .unwrap();
        let cm = c.evaluate(&test, &d.malicious);
        assert!(cm.total() > 0);
    }

    #[test]
    fn cgraph_classifier_trains_and_evaluates() {
        let d = dataset("putty_reverse_tcp");
        let (train, test) = d.split_benign(0.5, 1);
        let c = train_classifier(Method::CGraph, &train, &d.mixed, &PipelineConfig::fast(), 1);
        let cm = c.evaluate(&test, &d.malicious);
        assert_eq!(cm.total(), test.len() + d.malicious.len());
        // The call-graph model catches a decent share of pure-malicious
        // events (payload-only chains).
        assert!(cm.metrics().tnr > 0.2, "{:?}", cm.metrics());
    }

    #[test]
    fn undecidable_malicious_events_count_as_missed() {
        let d = dataset("putty_reverse_tcp");
        let (train, _) = d.split_benign(0.5, 1);
        let c = train_classifier(Method::CGraph, &train, &d.mixed, &PipelineConfig::fast(), 1);
        let Classifier::CGraph(model) = &c else { panic!("expected the call-graph model") };
        let undecidable: Vec<PartitionedEvent> = d
            .malicious
            .iter()
            .filter(|e| model.classify(e) == Decision::Undecidable)
            .cloned()
            .collect();
        assert!(!undecidable.is_empty(), "no undecidable malicious event to count");
        // Section III-D-1: an undecidable event is a miss, so a malicious
        // one is a false positive, never a true negative...
        let cm = c.evaluate(&[], &undecidable);
        assert_eq!((cm.tn, cm.fp), (0, undecidable.len()));
        // ...although the stream reports it as not benign.
        let verdicts = StreamDetector::new(c.clone()).push_all(undecidable);
        assert!(verdicts.iter().all(|v| !v.benign));
    }

    #[test]
    fn wsvm_classifier_trains_and_beats_coin_flip() {
        let d = dataset("vim_reverse_tcp");
        let (train, test) = d.split_benign(0.5, 1);
        let c = train_classifier(Method::Wsvm, &train, &d.mixed, &PipelineConfig::fast(), 1);
        let cm = c.evaluate(&test, &d.malicious);
        let m = cm.metrics();
        assert!(m.acc > 0.6, "{m}");
        if let Classifier::Svm(svm) = &c {
            assert!(svm.model.support_vector_count() > 0);
            assert!(svm.tuned.0 > 0.0 && svm.tuned.1 > 0.0);
        } else {
            panic!("expected SVM classifier");
        }
    }

    #[test]
    fn svm_and_wsvm_differ_in_training_weights_outcome() {
        let d = dataset("vim_reverse_tcp");
        let (train, test) = d.split_benign(0.5, 1);
        let svm = train_classifier(Method::Svm, &train, &d.mixed, &PipelineConfig::fast(), 1);
        let wsvm = train_classifier(Method::Wsvm, &train, &d.mixed, &PipelineConfig::fast(), 1);
        let m_svm = svm.evaluate(&test, &d.malicious).metrics();
        let m_wsvm = wsvm.evaluate(&test, &d.malicious).metrics();
        // The CFG guidance must help on benign recall (the paper's central
        // claim); allow equality in degenerate small-data cases.
        assert!(m_wsvm.tpr >= m_svm.tpr, "WSVM TPR {} < SVM TPR {}", m_wsvm.tpr, m_svm.tpr);
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("leaps-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Runs checkpointed training to completion by repeatedly resuming
    /// with an always-expired deadline (pause at every single checkpoint
    /// boundary — the worst case), then asserts the final model is
    /// byte-identical to an uninterrupted run.
    fn interrupt_everywhere(method: Method) {
        let d = dataset("vim_reverse_tcp");
        let (train, _) = d.split_benign(0.5, 1);
        let cfg = PipelineConfig::fast();
        let clean = train_classifier(method, &train, &d.mixed, &cfg, 7);
        let clean_bytes = crate::persist::save_classifier(&clean);

        let dir = scratch_dir(method.label());
        let mut spec = CheckpointSpec::new(&dir);
        // A small SMO stride so the solve pauses several times without
        // paying a full prelude recompute per iteration (iteration-level
        // bit-identity is proven in leaps-svm's own tests).
        spec.every = 64;
        spec.deadline = Some(0); // expired from the start: pause at every boundary
        let mut pauses = 0;
        let done = loop {
            match try_train_classifier_checkpointed(method, &train, &d.mixed, &cfg, 7, &spec)
                .unwrap()
            {
                TrainRun::Done(clf) => break clf,
                TrainRun::Paused { .. } => {
                    pauses += 1;
                    assert!(pauses < 100_000, "training never completed");
                    spec.resume = true;
                }
            }
        };
        assert!(pauses > 0, "{method:?} never hit a checkpoint boundary");
        assert_eq!(
            crate::persist::save_classifier(&done),
            clean_bytes,
            "{method:?} resumed model diverged after {pauses} pauses"
        );
        // Completion must clean up the stage checkpoints.
        let leftover: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(leftover.is_empty(), "checkpoints not cleaned up: {leftover:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wsvm_interrupted_at_every_checkpoint_is_bit_identical() {
        interrupt_everywhere(Method::Wsvm);
    }

    #[test]
    fn svm_interrupted_at_every_checkpoint_is_bit_identical() {
        interrupt_everywhere(Method::Svm);
    }

    #[test]
    fn hmm_interrupted_at_every_checkpoint_is_bit_identical() {
        interrupt_everywhere(Method::Hmm);
    }

    #[test]
    fn cgraph_checkpointed_never_pauses() {
        let d = dataset("vim_reverse_tcp");
        let (train, _) = d.split_benign(0.5, 1);
        let cfg = PipelineConfig::fast();
        let dir = scratch_dir("cgraph");
        let mut spec = CheckpointSpec::new(&dir);
        spec.deadline = Some(0); // expired from the start: pause at every boundary
        let run =
            try_train_classifier_checkpointed(Method::CGraph, &train, &d.mixed, &cfg, 7, &spec)
                .unwrap();
        let TrainRun::Done(done) = run else { panic!("call-graph training paused: {run:?}") };
        let clean = train_classifier(Method::CGraph, &train, &d.mixed, &cfg, 7);
        assert_eq!(
            crate::persist::save_classifier(&done),
            crate::persist::save_classifier(&clean),
            "checkpointed call-graph model differs from the plain one"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_from_different_run_is_rejected() {
        let d = dataset("vim_reverse_tcp");
        let (train, _) = d.split_benign(0.5, 1);
        let cfg = PipelineConfig::fast();
        let dir = scratch_dir("mismatch");
        let mut spec = CheckpointSpec::new(&dir);
        spec.deadline = Some(0); // expired from the start: pause at every boundary
                                 // Pause a seed-7 run at its first boundary...
        let run = try_train_classifier_checkpointed(Method::Wsvm, &train, &d.mixed, &cfg, 7, &spec)
            .unwrap();
        assert!(matches!(run, TrainRun::Paused { .. }));
        // ...then try to resume it under seed 8: must be rejected.
        spec.resume = true;
        spec.deadline = None;
        let err = try_train_classifier_checkpointed(Method::Wsvm, &train, &d.mixed, &cfg, 8, &spec)
            .unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        assert!(err.to_string().contains("fingerprint"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Pauses a `method` run at its first checkpoint of `stage`, sets
    /// the first value of the file's line `line` to `value`, and returns
    /// the error of resuming from the damaged file.
    fn resume_damaged(method: Method, stage: &str, line: usize, value: &str) -> LeapsError {
        let d = dataset("vim_reverse_tcp");
        let (train, _) = d.split_benign(0.5, 1);
        let cfg = PipelineConfig::fast();
        let dir = scratch_dir(&format!("damaged-{stage}"));
        let mut spec = CheckpointSpec::new(&dir);
        spec.every = 1;
        spec.deadline = Some(0); // expired from the start: pause at every boundary
        loop {
            match try_train_classifier_checkpointed(method, &train, &d.mixed, &cfg, 7, &spec)
                .unwrap()
            {
                TrainRun::Paused { stage: at, .. } if at == stage => break,
                TrainRun::Paused { .. } => spec.resume = true,
                TrainRun::Done(_) => panic!("{method:?} never paused at {stage}"),
            }
        }
        let path = spec.file(stage);
        let text = std::fs::read_to_string(&path).unwrap();
        let damaged: Vec<String> = text
            .lines()
            .enumerate()
            .map(|(i, l)| {
                let mut tokens: Vec<&str> = l.split(' ').collect();
                if i + 1 == line {
                    tokens[2] = value; // `p`, the record tag, then values
                }
                tokens.join(" ") + "\n"
            })
            .collect();
        std::fs::write(&path, damaged.concat()).unwrap();
        spec.resume = true;
        spec.deadline = None;
        let err = try_train_classifier_checkpointed(method, &train, &d.mixed, &cfg, 7, &spec)
            .unwrap_err();
        std::fs::remove_dir_all(&dir).unwrap();
        err
    }

    #[test]
    fn a_nan_gradient_is_refused_at_its_line() {
        let err = resume_damaged(Method::Wsvm, "smo", 8, "NaN");
        assert_eq!(err.exit_code(), 4, "{err}");
        let msg = err.to_string();
        assert!(msg.contains("smo.ckpt: bad record at line 8: grad value NaN"), "{msg}");
    }

    #[test]
    fn a_transition_row_off_one_is_refused_at_its_line() {
        let err = resume_damaged(Method::Hmm, "hmm-benign", 9, "2.0");
        assert_eq!(err.exit_code(), 4, "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains("hmm-benign.ckpt: bad record at line 9: resume state a row 0"),
            "{msg}"
        );
    }

    #[test]
    fn method_from_label_roundtrips() {
        for m in Method::EXTENDED {
            assert_eq!(Method::from_label(m.label()), Some(m));
        }
        assert_eq!(Method::from_label("wsvm"), Some(Method::Wsvm));
        assert_eq!(Method::from_label("nope"), None);
    }

    #[test]
    fn training_is_deterministic_for_fixed_seed() {
        let d = dataset("putty_codeinject");
        let (train, test) = d.split_benign(0.5, 2);
        let a = train_classifier(Method::Wsvm, &train, &d.mixed, &PipelineConfig::fast(), 7);
        let b = train_classifier(Method::Wsvm, &train, &d.mixed, &PipelineConfig::fast(), 7);
        assert_eq!(a.evaluate(&test, &d.malicious), b.evaluate(&test, &d.malicious));
    }
}
