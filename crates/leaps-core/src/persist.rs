//! Model persistence: save a trained [`Classifier`] to a versioned,
//! dependency-free text format and load it back — so a deployment trains
//! once in the controlled environment and detects forever after
//! (`leaps train` / `leaps detect --model`).
//!
//! The format is line-oriented `LEAPS-MODEL v1`: one record per line,
//! space-separated tokens. Symbols (`module!function`) and set members
//! never contain whitespace, and floats are written with Rust's `{:?}`
//! (shortest round-trip representation), so parsing is exact. Only
//! blank lines may follow the last record. Checkpoints and sweep
//! manifests are read by the same `Records` reader.
//!
//! # Crash-safe writes
//!
//! [`save_classifier_to`] (and the lower-level [`write_atomic`]) never
//! expose a half-written model file: the bytes go to a dot-prefixed
//! temporary in the *same directory* ([`temp_path_for`]), are fsynced,
//! and only then renamed over the destination — an atomic operation on
//! POSIX filesystems — followed by a directory fsync so the rename
//! itself survives power loss. A `SIGKILL` (or crash, or full disk) at
//! any instant leaves either the complete old file or the complete new
//! file at the visible path, plus at worst a stale temporary that the
//! next save of the same path reclaims. Dot-prefixed temporaries are
//! invisible to the model registry, whose name validation rejects
//! leading dots.

use crate::error::LeapsError;
use crate::pipeline::{Classifier, HmmDetector, SvmClassifier};
use leaps_cgraph::classify::CallGraphClassifier;
use leaps_cgraph::graph::CallGraph;
use leaps_cluster::assign::ClusterAssigner;
use leaps_cluster::features::{CutRule, FeatureEncoder, PreprocessConfig};
use leaps_cluster::hier::Linkage;
use leaps_hmm::classify::{HmmClassifier, SymbolTable};
use leaps_hmm::hmm::{check_stochastic, Hmm, HmmState};
use leaps_svm::cv::CvState;
use leaps_svm::kernel::Kernel;
use leaps_svm::model::SvmModel;
use leaps_svm::smo::SmoState;
use std::error::Error;
use std::fmt;
use std::str::{FromStr, Lines, SplitWhitespace};

/// Magic first line of a model file.
pub const MODEL_HEADER: &str = "# LEAPS-MODEL v1";

/// Errors loading a persisted model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// Missing or wrong header line.
    BadHeader,
    /// A record is malformed.
    BadRecord {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The file ended before the model was complete.
    Truncated,
    /// A model error with the offending file named — what path-aware
    /// loaders ([`load_classifier_file`]) report, so a torn or corrupt
    /// model file is diagnosed in one line that names the file.
    InFile {
        /// The model file that failed to load.
        path: String,
        /// The underlying error.
        inner: Box<ModelError>,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::BadHeader => write!(f, "missing `{MODEL_HEADER}` header"),
            ModelError::BadRecord { line, reason } => {
                write!(f, "bad record at line {line}: {reason}")
            }
            ModelError::Truncated => write!(f, "file ended unexpectedly"),
            ModelError::InFile { path, inner } => write!(f, "{path}: {inner}"),
        }
    }
}

impl Error for ModelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelError::InFile { inner, .. } => Some(inner),
            _ => None,
        }
    }
}

/// Serializes a classifier to the text model format.
#[must_use]
pub fn save_classifier(classifier: &Classifier) -> String {
    let mut out = String::new();
    out.push_str(MODEL_HEADER);
    out.push('\n');
    match classifier {
        Classifier::CGraph(model) => {
            out.push_str("kind cgraph\n");
            write_call_graph(&mut out, "bcg", model.bcg());
            write_call_graph(&mut out, "mcg", model.mcg());
        }
        Classifier::Svm(svm) => {
            out.push_str("kind svm\n");
            write_svm(&mut out, svm);
        }
        Classifier::Hmm(hmm) => {
            out.push_str("kind hmm\n");
            write_hmm(&mut out, hmm);
        }
    }
    out
}

/// Parses a classifier from the text model format.
///
/// # Errors
///
/// Returns [`ModelError`] on malformed input, including a non-blank
/// line after the last record.
pub fn load_classifier(text: &str) -> Result<Classifier, ModelError> {
    let mut records = Records::new(text, MODEL_HEADER)?;
    let classifier = match records.read("kind", |r| r.word("model kind"))? {
        "cgraph" => {
            let bcg = read_call_graph(&mut records, "bcg")?;
            let mcg = read_call_graph(&mut records, "mcg")?;
            Classifier::CGraph(CallGraphClassifier::from_parts(bcg, mcg))
        }
        "svm" => Classifier::Svm(read_svm(&mut records)?),
        "hmm" => Classifier::Hmm(read_hmm(&mut records)?),
        other => return Err(records.bad(format!("unknown model kind {other:?}"))),
    };
    records.finish()?;
    Ok(classifier)
}

// ----------------------------------------------------------- file helpers

/// The temporary path [`write_atomic`] stages bytes at before renaming
/// them over `path`: `.<file-name>.tmp` in the same directory (same
/// filesystem, so the rename is atomic; dot-prefixed, so registry name
/// validation never serves it as a model).
#[must_use]
pub fn temp_path_for(path: &std::path::Path) -> std::path::PathBuf {
    let name = path.file_name().map_or_else(|| "model".into(), std::ffi::OsStr::to_os_string);
    let mut temp_name = std::ffi::OsString::from(".");
    temp_name.push(name);
    temp_name.push(".tmp");
    path.with_file_name(temp_name)
}

/// Writes `contents` to `path` crash-safely: stage at
/// [`temp_path_for`]`(path)`, fsync, rename over `path`, fsync the
/// directory. A crash (including `SIGKILL`) at any point leaves the
/// visible path either untouched or fully written — never torn. A stale
/// temporary left by an earlier crash is silently reclaimed.
///
/// # Errors
///
/// [`LeapsError::Io`] naming the path that failed.
pub fn write_atomic(path: &std::path::Path, contents: &str) -> Result<(), LeapsError> {
    use std::io::Write;
    let temp = temp_path_for(path);
    let io_err =
        |p: &std::path::Path, e: &std::io::Error| LeapsError::io(p.display().to_string(), e);
    let result = (|| {
        let mut file = std::fs::File::create(&temp).map_err(|e| io_err(&temp, &e))?;
        file.write_all(contents.as_bytes()).map_err(|e| io_err(&temp, &e))?;
        // The data must be durable *before* the rename publishes it,
        // or a power cut could leave a fully-renamed empty file.
        file.sync_all().map_err(|e| io_err(&temp, &e))?;
        drop(file);
        std::fs::rename(&temp, path).map_err(|e| io_err(path, &e))?;
        // Persist the rename itself (the directory entry).
        #[cfg(unix)]
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            let _ = std::fs::File::open(dir).and_then(|d| d.sync_all());
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&temp);
    }
    result
}

/// Saves a classifier to `path` via the crash-safe [`write_atomic`]
/// protocol — the save `leaps train` and every other model writer
/// should use, so a kill mid-save never leaves a torn model file.
///
/// # Errors
///
/// [`LeapsError::Io`] naming the path that failed.
pub fn save_classifier_to(
    path: &std::path::Path,
    classifier: &Classifier,
) -> Result<(), LeapsError> {
    write_atomic(path, &save_classifier(classifier))
}

/// Loads a classifier from a model file, naming the file in every
/// error: read failures are [`LeapsError::Io`], parse failures are
/// [`LeapsError::Model`] wrapping [`ModelError::InFile`] — so a torn or
/// truncated model file is a one-line diagnosis (CLI exit code 4), not
/// a panic.
///
/// # Errors
///
/// [`LeapsError::Io`] or [`LeapsError::Model`], both naming `path`.
pub fn load_classifier_file(path: &std::path::Path) -> Result<Classifier, LeapsError> {
    load_file(path, load_classifier)
}

/// Reads `path` and parses it with `load`, naming the file in every error.
fn load_file<T>(
    path: &std::path::Path,
    load: fn(&str) -> Result<T, ModelError>,
) -> Result<T, LeapsError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| LeapsError::io(path.display().to_string(), &e))?;
    load(&text).map_err(|inner| {
        LeapsError::Model(ModelError::InFile {
            path: path.display().to_string(),
            inner: Box::new(inner),
        })
    })
}

// ------------------------------------------------------------ checkpoints

/// Magic first line of a checkpoint file.
pub const CKPT_HEADER: &str = "# LEAPS-CKPT v1";

/// A versioned training checkpoint: the resumable state of one training
/// stage, staged to disk with [`write_atomic`] so a kill at any instant
/// leaves either the previous checkpoint or the new one — never a torn
/// file.
///
/// The envelope is stage-agnostic (`LEAPS-CKPT v1`: stage tag,
/// configuration fingerprint, progress counter, RNG state, payload
/// records, `end` marker); the stage-specific payloads are produced and
/// consumed by the converter pairs [`smo_checkpoint`]/[`smo_state`],
/// [`cv_checkpoint`]/[`cv_state`] and [`hmm_checkpoint`]/[`hmm_state`].
/// Floats are written with `{:?}` (shortest round-trip representation),
/// so a state loaded back is bit-identical to the one saved — the
/// foundation of the resume-determinism guarantee (DESIGN.md §13).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Which training stage wrote it (`smo`, `cv`, `hmm`).
    pub stage: String,
    /// [`fingerprint64`] of the run configuration (method, seed, input
    /// sizes, hyper-parameters). A resume whose configuration disagrees
    /// is rejected instead of silently diverging.
    pub fingerprint: u64,
    /// Stage-defined progress counter (SMO iterations, completed CV
    /// cells, Baum–Welch iterations).
    pub progress: u64,
    /// The generator state the stage's stochastic choices derive from
    /// (captured via `SimRng::state`); stages whose randomness is fully
    /// re-derived from the seed store the seed-expanded state.
    pub rng: [u64; 4],
    /// Stage-defined payload records (single lines, no newlines).
    pub payload: Vec<String>,
}

/// FNV-1a over a list of string parts, with a separator step between
/// parts so `["ab", "c"]` and `["a", "bc"]` fingerprint differently.
/// Used to fingerprint a training configuration into [`Checkpoint`].
#[must_use]
pub fn fingerprint64(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut step = |byte: u64| {
        h ^= byte;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for part in parts {
        for &b in part.as_bytes() {
            step(u64::from(b));
        }
        step(0x100); // out-of-band separator
    }
    h
}

/// Serializes a checkpoint to the text format.
#[must_use]
pub fn save_checkpoint(ckpt: &Checkpoint) -> String {
    let mut out = String::new();
    out.push_str(CKPT_HEADER);
    out.push('\n');
    out.push_str(&format!("stage {}\n", ckpt.stage));
    out.push_str(&format!("fingerprint {}\n", ckpt.fingerprint));
    out.push_str(&format!("progress {}\n", ckpt.progress));
    let [r0, r1, r2, r3] = ckpt.rng;
    out.push_str(&format!("rng {r0} {r1} {r2} {r3}\n"));
    out.push_str(&format!("payload {}\n", ckpt.payload.len()));
    for record in &ckpt.payload {
        out.push_str(&format!("p {record}\n"));
    }
    out.push_str("end\n");
    out
}

/// Parses a checkpoint from the text format.
///
/// # Errors
///
/// Returns [`ModelError`] on malformed input, including a missing `end`
/// marker (a truncation the atomic write protocol makes unreachable in
/// practice, but hand-edited or foreign files get a diagnosis) and a
/// non-blank line after it.
pub fn load_checkpoint(text: &str) -> Result<Checkpoint, ModelError> {
    let mut records = Records::new(text, CKPT_HEADER)?;
    let stage = records.read("stage", |r| r.word("stage"))?.to_owned();
    let fingerprint = records.read("fingerprint", |r| r.parse("fingerprint"))?;
    let progress = records.read("progress", |r| r.parse("progress"))?;
    let rng = records.read("rng", |r| {
        Ok([r.parse("rng word")?, r.parse("rng word")?, r.parse("rng word")?, r.parse("rng word")?])
    })?;
    let n = records.read("payload", |r| r.count("payload count"))?;
    let mut payload = Vec::with_capacity(n);
    for _ in 0..n {
        payload.push(records.record("p")?.rest().to_owned());
    }
    records.read("end", |_| Ok(()))?;
    records.finish()?;
    Ok(Checkpoint { stage, fingerprint, progress, rng, payload })
}

/// Saves a checkpoint to `path` via the crash-safe [`write_atomic`]
/// protocol.
///
/// # Errors
///
/// [`LeapsError::Io`] naming the path that failed.
pub fn save_checkpoint_to(path: &std::path::Path, ckpt: &Checkpoint) -> Result<(), LeapsError> {
    let _span = leaps_obs::span!("ckpt.write");
    let text = save_checkpoint(ckpt);
    leaps_obs::counter!("ckpt.writes").inc();
    leaps_obs::counter!("ckpt.bytes").add(text.len() as u64);
    write_atomic(path, &text)
}

/// Loads a checkpoint from a file, naming the file in every error (like
/// [`load_classifier_file`]).
///
/// # Errors
///
/// [`LeapsError::Io`] or [`LeapsError::Model`], both naming `path`.
pub fn load_checkpoint_file(path: &std::path::Path) -> Result<Checkpoint, LeapsError> {
    load_file(path, load_checkpoint)
}

/// Checks a loaded checkpoint against the stage and configuration
/// fingerprint the caller is about to resume: a mismatch means the
/// checkpoint belongs to a *different* run (other method, seed, data or
/// hyper-parameters) and resuming from it would silently diverge.
///
/// # Errors
///
/// [`ModelError::BadRecord`] describing the mismatch.
pub fn verify_checkpoint(
    ckpt: &Checkpoint,
    stage: &str,
    fingerprint: u64,
) -> Result<(), ModelError> {
    if ckpt.stage != stage {
        return Err(ModelError::BadRecord {
            line: 2,
            reason: format!("checkpoint stage {:?} does not match {stage:?}", ckpt.stage),
        });
    }
    if ckpt.fingerprint != fingerprint {
        return Err(ModelError::BadRecord {
            line: 3,
            reason: format!(
                "checkpoint fingerprint {} does not match this run's {fingerprint} \
                 (different method, seed, data or hyper-parameters)",
                ckpt.fingerprint
            ),
        });
    }
    Ok(())
}

/// `tag` followed by `values` as `{:?}` floats (shortest round-trip
/// representation): one record line, without its newline.
fn float_record<'v>(tag: &str, values: impl IntoIterator<Item = &'v f64>) -> String {
    use std::fmt::Write;
    let mut line = String::from(tag);
    for v in values {
        let _ = write!(line, " {v:?}");
    }
    line
}

/// 1-based line number of a checkpoint's first payload record (header,
/// stage, fingerprint, progress, rng, payload-count precede).
pub(crate) const CKPT_PAYLOAD_LINE: usize = 7;

impl Checkpoint {
    /// The payload records, numbered as the lines of the checkpoint file.
    fn records(&self) -> Records<impl Iterator<Item = &str>> {
        Records { lines: self.payload.iter().map(String::as_str), line_no: CKPT_PAYLOAD_LINE - 1 }
    }
}

/// Packs an SMO solver state ([`SmoState`]) into a checkpoint. SMO is
/// fully deterministic, so `rng` is the seed-expanded generator state of
/// the pipeline run (recorded, never consumed).
#[must_use]
pub fn smo_checkpoint(state: &SmoState, fingerprint: u64, rng: [u64; 4]) -> Checkpoint {
    Checkpoint {
        stage: "smo".into(),
        fingerprint,
        progress: state.iterations as u64,
        rng,
        payload: vec![float_record("alpha", &state.alpha), float_record("grad", &state.grad)],
    }
}

/// Unpacks an SMO checkpoint back into a resumable [`SmoState`].
///
/// # Errors
///
/// [`ModelError`] if the checkpoint is not a well-formed `smo` stage,
/// including a gradient entry that is not finite.
pub fn smo_state(ckpt: &Checkpoint) -> Result<SmoState, ModelError> {
    verify_checkpoint(ckpt, "smo", ckpt.fingerprint)?;
    let mut records = ckpt.records();
    let alpha = records.read("alpha", |r| r.all(|r, v| r.parsed(v, "alpha value")))?;
    let grad = records.read("grad", |r| r.all(|r, v| r.finite_of(v, "grad value")))?;
    if alpha.len() != grad.len() || alpha.is_empty() {
        return Err(records.bad(format!(
            "alpha/grad length mismatch ({} vs {})",
            alpha.len(),
            grad.len()
        )));
    }
    records.finish()?;
    Ok(SmoState { alpha, grad, iterations: ckpt.progress as usize })
}

/// Packs a CV grid-search state ([`CvState`]) into a checkpoint. Cell
/// scores that are `None` (empty/degenerate folds) are encoded as `-`.
#[must_use]
pub fn cv_checkpoint(state: &CvState, fingerprint: u64, rng: [u64; 4]) -> Checkpoint {
    let mut record = String::from("scores");
    for score in &state.scores {
        match score {
            Some(v) => record.push_str(&format!(" {v:?}")),
            None => record.push_str(" -"),
        }
    }
    Checkpoint {
        stage: "cv".into(),
        fingerprint,
        progress: state.scores.len() as u64,
        rng,
        payload: vec![record],
    }
}

/// Unpacks a CV checkpoint back into a resumable [`CvState`].
///
/// # Errors
///
/// [`ModelError`] if the checkpoint is not a well-formed `cv` stage.
pub fn cv_state(ckpt: &Checkpoint) -> Result<CvState, ModelError> {
    verify_checkpoint(ckpt, "cv", ckpt.fingerprint)?;
    let mut records = ckpt.records();
    let scores = records.read("scores", |r| {
        r.all(|r, v| if v == "-" { Ok(None) } else { r.parsed(v, "score").map(Some) })
    })?;
    if scores.len() as u64 != ckpt.progress {
        return Err(records.bad(format!(
            "{} scores but progress says {}",
            scores.len(),
            ckpt.progress
        )));
    }
    records.finish()?;
    Ok(CvState { scores })
}

/// Packs a Baum–Welch state ([`HmmState`]) into a checkpoint; the RNG
/// state is the one the state itself carries (captured right after the
/// random π/A/B initialization).
#[must_use]
pub fn hmm_checkpoint(state: &HmmState, fingerprint: u64) -> Checkpoint {
    Checkpoint {
        stage: "hmm".into(),
        fingerprint,
        progress: state.iteration as u64,
        rng: state.rng,
        payload: vec![
            format!("dims {} {}", state.states, state.symbols),
            float_record("pi", &state.pi),
            float_record("a", &state.a),
            float_record("b", &state.b),
        ],
    }
}

/// Unpacks a Baum–Welch checkpoint back into a resumable [`HmmState`].
///
/// # Errors
///
/// [`ModelError`] if the checkpoint is not a well-formed `hmm` stage
/// (wrong matrix dimensions, a row of π, A or B that is not a
/// distribution, all-zero RNG state, …), at the line that holds the
/// fault.
pub fn hmm_state(ckpt: &Checkpoint) -> Result<HmmState, ModelError> {
    verify_checkpoint(ckpt, "hmm", ckpt.fingerprint)?;
    if ckpt.rng.iter().all(|&w| w == 0) {
        // The `rng` record is line 5 of the file.
        return Err(ModelError::BadRecord { line: 5, reason: "all-zero RNG state".into() });
    }
    let mut records = ckpt.records();
    let (states, symbols) = records.read("dims", |r| {
        let mut dim = |what: &str| -> Result<usize, ModelError> {
            let n: usize = r.parse(what)?;
            const MAX_DIM: usize = 1 << 12;
            if n == 0 || n > MAX_DIM {
                return Err(r.bad(format!("implausible dimension {n}")));
            }
            Ok(n)
        };
        Ok((dim("states")?, dim("symbols")?))
    })?;
    let pi = records.distributions("pi", 1, states, "resume state")?;
    let a = records.distributions("a", states, states, "resume state")?;
    let b = records.distributions("b", states, symbols, "resume state")?;
    records.finish()?;
    Ok(HmmState { iteration: ckpt.progress as usize, states, symbols, pi, a, b, rng: ckpt.rng })
}

// ---------------------------------------------------------------- writing

fn write_call_graph(out: &mut String, tag: &str, graph: &CallGraph) {
    let mut edges: Vec<(String, String)> =
        graph.edges().map(|(a, b)| (a.to_owned(), b.to_owned())).collect();
    edges.sort();
    let mut chains: Vec<Vec<String>> = graph.chains().map(<[String]>::to_vec).collect();
    chains.sort();
    out.push_str(&format!("{tag}_edges {}\n", edges.len()));
    for (a, b) in edges {
        out.push_str(&format!("edge {a} {b}\n"));
    }
    out.push_str(&format!("{tag}_chains {}\n", chains.len()));
    for chain in chains {
        out.push_str("chain ");
        out.push_str(&chain.join(" "));
        out.push('\n');
    }
}

fn write_kernel(out: &mut String, kernel: Kernel) {
    let Kernel::Gaussian { sigma2 } = kernel;
    out.push_str(&format!("kernel gaussian {sigma2:?}\n"));
}

fn write_encoder(out: &mut String, encoder: &FeatureEncoder) {
    let config = encoder.config();
    let (cut_kind, cut_val) = match config.cut {
        CutRule::Distance(d) => ("distance", format!("{d:?}")),
        CutRule::Count(k) => ("count", k.to_string()),
    };
    let linkage = match config.linkage {
        Linkage::Average => "average",
        Linkage::Single => "single",
        Linkage::Complete => "complete",
    };
    out.push_str(&format!(
        "encoder {linkage} {cut_kind} {cut_val} {} {} {}\n",
        config.window, config.stride, config.max_vocab
    ));
    let (lib, func) = encoder.parts();
    write_assigner(out, "lib", lib);
    write_assigner(out, "func", func);
}

fn write_assigner(out: &mut String, tag: &str, assigner: &ClusterAssigner<String>) {
    out.push_str(&format!("{tag}_vocab {}\n", assigner.members().len()));
    for (set, &label) in assigner.members().iter().zip(assigner.labels()) {
        out.push_str(&format!("set {label} "));
        out.push_str(&set.join(" "));
        out.push('\n');
    }
}

fn write_svm(out: &mut String, svm: &SvmClassifier) {
    out.push_str(&format!("tuned {:?} {:?}\n", svm.tuned.0, svm.tuned.1));
    write_kernel(out, svm.model.kernel());
    out.push_str(&format!("bias {:?}\n", svm.model.bias()));
    out.push_str(&format!("sv_count {}\n", svm.model.support_vector_count()));
    for (alpha_y, sv) in svm.model.dual_coefficients() {
        out.push_str(&float_record("sv", std::iter::once(&alpha_y).chain(&sv)));
        out.push('\n');
    }
    write_encoder(out, &svm.encoder);
}

fn write_hmm_model(out: &mut String, tag: &str, model: &Hmm) {
    out.push_str(&format!("{tag} {} {}\n", model.state_count(), model.symbol_count()));
    let (pi, a, b) = model.parts();
    for (name, values) in [("pi", pi), ("a", a), ("b", b)] {
        out.push_str(&float_record(name, values));
        out.push('\n');
    }
}

fn write_hmm(out: &mut String, hmm: &HmmDetector) {
    let (clf, encoder, table) = hmm.parts();
    write_encoder(out, encoder);
    let mut entries: Vec<((u32, u32, u32), usize)> =
        table.entries().map(|(&k, v)| (k, v)).collect();
    entries.sort();
    out.push_str(&format!("symbols {}\n", entries.len()));
    for ((e, l, f), id) in entries {
        out.push_str(&format!("sym {id} {e} {l} {f}\n"));
    }
    write_hmm_model(out, "benign_hmm", clf.benign_model());
    write_hmm_model(out, "mixed_hmm", clf.mixed_model());
}

// ---------------------------------------------------------------- reading

/// The bound on every count a file declares, checked before the count
/// sizes an allocation, so a corrupted count cannot drive a
/// multi-gigabyte pre-allocation before the missing records are noticed.
const MAX_COUNT: usize = 1 << 24;

/// The one reader of the persisted text formats: model files,
/// checkpoints (the envelope and each stage's payload) and sweep
/// manifests. It numbers lines as the file does, matches the header and
/// each record's tag, and hands out one [`Record`] at a time. Every
/// fault is one [`ModelError`] naming the file line; what the values
/// mean is checked by the caller.
pub(crate) struct Records<I> {
    lines: I,
    /// 1-based file line number of the line last read.
    line_no: usize,
}

impl<'a> Records<Lines<'a>> {
    /// A reader over `text`, whose first line must be `header`.
    pub(crate) fn new(text: &'a str, header: &str) -> Result<Self, ModelError> {
        let mut lines = text.lines();
        if lines.next() != Some(header) {
            return Err(ModelError::BadHeader);
        }
        Ok(Records { lines, line_no: 1 })
    }
}

impl<'a, I: Iterator<Item = &'a str>> Records<I> {
    /// A [`ModelError::BadRecord`] at the line last read.
    fn bad(&self, reason: String) -> ModelError {
        ModelError::BadRecord { line: self.line_no, reason }
    }

    /// The next record, which must carry `tag`, or `None` at the end of
    /// the input.
    pub(crate) fn next_record(&mut self, tag: &str) -> Result<Option<Record<'a>>, ModelError> {
        let Some(line) = self.lines.next() else { return Ok(None) };
        self.line_no += 1;
        match line.strip_prefix(tag).filter(|rest| rest.is_empty() || rest.starts_with(' ')) {
            Some(fields) => Ok(Some(Record::new(fields, self.line_no))),
            None => Err(self.bad(format!("expected a `{tag}` record, got {line:?}"))),
        }
    }

    /// The next record, which must carry `tag`.
    fn record(&mut self, tag: &str) -> Result<Record<'a>, ModelError> {
        self.next_record(tag)?.ok_or(ModelError::Truncated)
    }

    /// Reads the next record, which must carry `tag`, with `read`, which
    /// must consume every field.
    fn read<T>(
        &mut self,
        tag: &str,
        read: impl FnOnce(&mut Record<'a>) -> Result<T, ModelError>,
    ) -> Result<T, ModelError> {
        let mut record = self.record(tag)?;
        let value = read(&mut record)?;
        record.end()?;
        Ok(value)
    }

    /// The next record, which must carry `tag` and exactly `expected`
    /// floats.
    fn floats(&mut self, tag: &str, expected: usize) -> Result<Vec<f64>, ModelError> {
        let values = self.read(tag, |r| r.all(|r, v| r.parsed(v, tag)))?;
        if values.len() != expected {
            return Err(self.bad(format!("{tag} has {} values, expected {expected}", values.len())));
        }
        Ok(values)
    }

    /// The next record, which must carry `tag` and `rows` rows of `width`
    /// probabilities, each row a distribution (see [`check_stochastic`]);
    /// the reason names `owner` and `tag`.
    fn distributions(
        &mut self,
        tag: &str,
        rows: usize,
        width: usize,
        owner: &str,
    ) -> Result<Vec<f64>, ModelError> {
        let values = self.floats(tag, rows * width)?;
        check_stochastic(&format!("{owner} {tag}"), &values, width)
            .map_err(|reason| self.bad(reason))?;
        Ok(values)
    }

    /// Checks that only blank lines follow the last record.
    fn finish(mut self) -> Result<(), ModelError> {
        for line in self.lines.by_ref() {
            self.line_no += 1;
            if let Some(word) = line.split_whitespace().next() {
                return Err(ModelError::BadRecord {
                    line: self.line_no,
                    reason: format!("unexpected {word:?} after the last record"),
                });
            }
        }
        Ok(())
    }
}

/// The fields of one record, read left to right.
pub(crate) struct Record<'a> {
    /// The line after its tag.
    fields: &'a str,
    words: SplitWhitespace<'a>,
    /// The field read last, a slice of `fields`.
    last: &'a str,
    line: usize,
}

impl<'a> Record<'a> {
    fn new(fields: &'a str, line: usize) -> Self {
        Record { fields, words: fields.split_whitespace(), last: &fields[..0], line }
    }

    /// A [`ModelError::BadRecord`] at this record's line.
    pub(crate) fn bad(&self, reason: String) -> ModelError {
        ModelError::BadRecord { line: self.line, reason }
    }

    #[inline]
    fn next_word(&mut self) -> Option<&'a str> {
        let word = self.words.next()?;
        self.last = word;
        Some(word)
    }

    /// The next field, named `what` in errors.
    #[inline]
    pub(crate) fn word(&mut self, what: &str) -> Result<&'a str, ModelError> {
        self.next_word().ok_or_else(|| self.bad(format!("missing {what}")))
    }

    /// `token` parsed as a `T`.
    #[inline]
    fn parsed<T: FromStr>(&self, token: &str, what: &str) -> Result<T, ModelError> {
        token.parse().map_err(|_| self.bad(format!("invalid {what}: {token:?}")))
    }

    /// The next field parsed as a `T`.
    #[inline]
    fn parse<T: FromStr>(&mut self, what: &str) -> Result<T, ModelError> {
        let token = self.word(what)?;
        self.parsed(token, what)
    }

    /// The next field as a count of at most [`MAX_COUNT`].
    fn count(&mut self, what: &str) -> Result<usize, ModelError> {
        let n: usize = self.parse(what)?;
        if n > MAX_COUNT {
            return Err(self.bad(format!("implausible {what} {n} (max {MAX_COUNT})")));
        }
        Ok(n)
    }

    /// `token` as a finite float.
    #[inline]
    fn finite_of(&self, token: &str, what: &str) -> Result<f64, ModelError> {
        let value: f64 = self.parsed(token, what)?;
        if !value.is_finite() {
            return Err(self.bad(format!("{what} {value:?} is not finite")));
        }
        Ok(value)
    }

    /// The next field as a finite float.
    #[inline]
    pub(crate) fn finite(&mut self, what: &str) -> Result<f64, ModelError> {
        let token = self.word(what)?;
        self.finite_of(token, what)
    }

    /// The next field as a float in `[0, 1]`.
    pub(crate) fn unit(&mut self, what: &str) -> Result<f64, ModelError> {
        let value: f64 = self.parse(what)?;
        if !(0.0..=1.0).contains(&value) {
            return Err(self.bad(format!("{what} = {value:?} is outside [0, 1]")));
        }
        Ok(value)
    }

    /// Every remaining field, each read by `read`.
    #[inline]
    fn all<T>(
        &mut self,
        mut read: impl FnMut(&Self, &'a str) -> Result<T, ModelError>,
    ) -> Result<Vec<T>, ModelError> {
        let mut values = Vec::new();
        while let Some(word) = self.next_word() {
            values.push(read(self, word)?);
        }
        Ok(values)
    }

    /// The rest of the line after one separating space, verbatim: a
    /// free-text last field.
    pub(crate) fn rest(&mut self) -> &'a str {
        let start = self.last.as_ptr() as usize + self.last.len() - self.fields.as_ptr() as usize;
        let rest = self.fields.get(start..).unwrap_or("");
        self.words.by_ref().for_each(drop);
        rest.strip_prefix(' ').unwrap_or(rest)
    }

    /// Checks that every field was read.
    pub(crate) fn end(&mut self) -> Result<(), ModelError> {
        match self.words.next() {
            Some(extra) => Err(self.bad(format!("unexpected extra field {extra:?}"))),
            None => Ok(()),
        }
    }
}

fn read_call_graph(records: &mut Records<Lines<'_>>, tag: &str) -> Result<CallGraph, ModelError> {
    let n_edges = records.read(&format!("{tag}_edges"), |r| r.count("edge count"))?;
    let mut edges = Vec::with_capacity(n_edges);
    for _ in 0..n_edges {
        edges.push(
            records.read("edge", |r| {
                Ok((r.word("symbol")?.to_owned(), r.word("symbol")?.to_owned()))
            })?,
        );
    }
    let n_chains = records.read(&format!("{tag}_chains"), |r| r.count("chain count"))?;
    let mut chains = Vec::with_capacity(n_chains);
    for _ in 0..n_chains {
        chains.push(records.read("chain", |r| r.all(|_, symbol| Ok(symbol.to_owned())))?);
    }
    Ok(CallGraph::from_parts(edges, chains))
}

fn read_kernel(records: &mut Records<Lines<'_>>) -> Result<Kernel, ModelError> {
    let kernel = records.read("kernel", |r| match r.word("kernel type")? {
        "gaussian" => Ok(Kernel::Gaussian { sigma2: r.finite("sigma2")? }),
        other => Err(r.bad(format!("unknown kernel {other:?}"))),
    })?;
    kernel.validate().map_err(|reason| records.bad(reason))?;
    Ok(kernel)
}

fn read_encoder(records: &mut Records<Lines<'_>>) -> Result<FeatureEncoder, ModelError> {
    let config = records.read("encoder", |r| {
        let linkage = match r.word("linkage")? {
            "average" => Linkage::Average,
            "single" => Linkage::Single,
            "complete" => Linkage::Complete,
            other => return Err(r.bad(format!("unknown linkage {other:?}"))),
        };
        let cut = match r.word("cut rule")? {
            "distance" => CutRule::Distance(r.finite("cut distance")?),
            "count" => CutRule::Count(r.parse("cut count")?),
            other => return Err(r.bad(format!("unknown cut rule {other:?}"))),
        };
        Ok(PreprocessConfig {
            linkage,
            cut,
            window: r.count("window")?,
            stride: r.count("stride")?,
            max_vocab: r.parse("max_vocab")?,
        })
    })?;
    if config.window == 0 || config.stride == 0 {
        return Err(records.bad("encoder window and stride must be at least 1".into()));
    }
    let lib = read_assigner(records, "lib")?;
    let func = read_assigner(records, "func")?;
    Ok(FeatureEncoder::from_parts(lib, func, config))
}

fn read_assigner(
    records: &mut Records<Lines<'_>>,
    tag: &str,
) -> Result<ClusterAssigner<String>, ModelError> {
    let n = records.read(&format!("{tag}_vocab"), |r| r.count("vocab size"))?;
    let mut members = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let (label, set) = records.read("set", |r| {
            Ok((r.parse("cluster label")?, r.all(|_, member| Ok(member.to_owned()))?))
        })?;
        labels.push(label);
        members.push(set);
    }
    ClusterAssigner::try_new(members, labels).map_err(|reason| records.bad(reason))
}

fn read_svm(records: &mut Records<Lines<'_>>) -> Result<SvmClassifier, ModelError> {
    let tuned = records.read("tuned", |r| {
        let (lambda, sigma2) = (r.finite("lambda")?, r.finite("sigma2")?);
        if lambda <= 0.0 || sigma2 <= 0.0 {
            return Err(r.bad(format!("tuned lambda {lambda:?} and sigma2 {sigma2:?} must be > 0")));
        }
        Ok((lambda, sigma2))
    })?;
    let kernel = read_kernel(records)?;
    let bias = records.read("bias", |r| r.finite("bias"))?;
    let n = records.read("sv_count", |r| r.count("support vector count"))?;
    let first_sv_line = records.line_no + 1;
    let mut support = Vec::with_capacity(n);
    let mut alpha_y = Vec::with_capacity(n);
    for _ in 0..n {
        let (ay, x) = records.read("sv", |r| {
            Ok((r.finite("alpha_y")?, r.all(|r, v| r.finite_of(v, "feature value"))?))
        })?;
        alpha_y.push(ay);
        support.push(x);
    }
    let encoder = read_encoder(records)?;
    let dim = 3 * encoder.config().window;
    if let Some(i) = support.iter().position(|sv| sv.len() != dim) {
        return Err(ModelError::BadRecord {
            line: first_sv_line + i,
            reason: format!(
                "support vectors have inconsistent dimensions: {} features, expected {dim} \
                 (3 x window)",
                support[i].len()
            ),
        });
    }
    Ok(SvmClassifier {
        model: SvmModel::from_parts(support, alpha_y, bias, kernel),
        encoder,
        tuned,
    })
}

fn read_hmm_model(records: &mut Records<Lines<'_>>, tag: &str) -> Result<Hmm, ModelError> {
    let (states, symbols) = records.read(tag, |r| Ok((r.count("states")?, r.count("symbols")?)))?;
    if states == 0 || symbols == 0 {
        return Err(records.bad(format!("{tag} needs at least one state and one symbol")));
    }
    // π is one row over the states, A one row per state over the
    // states, B one row per state over the symbols.
    let pi = records.distributions("pi", 1, states, tag)?;
    let a = records.distributions("a", states, states, tag)?;
    let b = records.distributions("b", states, symbols, tag)?;
    Ok(Hmm::from_parts(states, symbols, pi, a, b))
}

fn read_hmm(records: &mut Records<Lines<'_>>) -> Result<HmmDetector, ModelError> {
    let encoder = read_encoder(records)?;
    let n = records.read("symbols", |r| r.count("symbol count"))?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(records.read("sym", |r| {
            let id = r.parse("symbol id")?;
            Ok(((r.parse("event type")?, r.parse("lib cluster")?, r.parse("func cluster")?), id))
        })?);
    }
    // `SymbolTable::from_entries` requires dense ids and unique tuples;
    // validate here so corrupt files get a diagnosis instead of a panic.
    let mut seen = vec![false; n];
    let mut uniq = std::collections::HashSet::new();
    for &(key, id) in &entries {
        if id >= n || seen[id] || !uniq.insert(key) {
            return Err(records.bad(format!("symbol table entries are not dense at id {id}")));
        }
        seen[id] = true;
    }
    let table = SymbolTable::from_entries(entries);
    let benign = read_hmm_model(records, "benign_hmm")?;
    let mixed = read_hmm_model(records, "mixed_hmm")?;
    // Detection looks up symbols 0..n, plus n for an unseen observation;
    // both models must emit every one of them.
    let (b, m) = (benign.symbol_count(), mixed.symbol_count());
    if b != m || b < table.alphabet_size() {
        return Err(records.bad(format!(
            "benign_hmm has {b} symbols and mixed_hmm {m}; both must be equal and cover the \
             {} symbol-table ids plus the unknown symbol",
            n
        )));
    }
    Ok(HmmDetector::from_parts(HmmClassifier::from_parts(benign, mixed), encoder, table))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::dataset::Dataset;
    use crate::pipeline::{train_classifier, Method};
    use leaps_etw::scenario::{GenParams, Scenario};

    fn dataset() -> Dataset {
        Dataset::materialize(Scenario::by_name("vim_reverse_tcp").unwrap(), &GenParams::small(), 7)
            .unwrap()
    }

    fn roundtrip(method: Method) {
        let d = dataset();
        let (train, test) = d.split_benign(0.5, 7);
        let original = train_classifier(method, &train, &d.mixed, &PipelineConfig::fast(), 7);
        let text = save_classifier(&original);
        assert!(text.starts_with(MODEL_HEADER));
        let loaded = load_classifier(&text).expect("roundtrip parse");

        // The loaded classifier must make byte-identical decisions.
        let original_cm = original.evaluate(&test, &d.malicious);
        let loaded_cm = loaded.evaluate(&test, &d.malicious);
        assert_eq!(original_cm, loaded_cm, "{method:?} decisions diverged");

        // And re-saving must be a fixed point.
        assert_eq!(save_classifier(&loaded), text, "{method:?} not canonical");
    }

    #[test]
    fn cgraph_roundtrips() {
        roundtrip(Method::CGraph);
    }

    #[test]
    fn wsvm_roundtrips() {
        roundtrip(Method::Wsvm);
    }

    #[test]
    fn hmm_roundtrips() {
        roundtrip(Method::Hmm);
    }

    #[test]
    fn streaming_detector_works_on_loaded_model() {
        let d = dataset();
        let (train, _) = d.split_benign(0.5, 7);
        let original = train_classifier(Method::Wsvm, &train, &d.mixed, &PipelineConfig::fast(), 7);
        let loaded = load_classifier(&save_classifier(&original)).unwrap();
        let mut detector = crate::stream::StreamDetector::new(loaded);
        let verdicts = detector.push_all(d.malicious.iter().cloned());
        let flagged = verdicts.iter().filter(|v| !v.benign).count();
        assert!(flagged * 2 > verdicts.len(), "{flagged}/{}", verdicts.len());
    }

    #[test]
    fn malformed_inputs_are_diagnosed() {
        assert!(matches!(load_classifier(""), Err(ModelError::BadHeader)));
        assert!(matches!(load_classifier("# LEAPS-MODEL v1\n"), Err(ModelError::Truncated)));
        let bad_kind = load_classifier("# LEAPS-MODEL v1\nkind forest\n");
        assert!(matches!(bad_kind, Err(ModelError::BadRecord { line: 2, .. })));
        let bad_record = load_classifier("# LEAPS-MODEL v1\nkind cgraph\nnope\n");
        assert!(matches!(bad_record, Err(ModelError::BadRecord { .. })));
    }

    #[test]
    fn truncated_svm_is_diagnosed_not_panicking() {
        let d = dataset();
        let (train, _) = d.split_benign(0.5, 7);
        let clf = train_classifier(Method::Wsvm, &train, &d.mixed, &PipelineConfig::fast(), 7);
        let text = save_classifier(&clf);
        // Chop the file at 60% and expect a clean error.
        let cut = &text[..text.len() * 6 / 10];
        let cut = &cut[..cut.rfind('\n').unwrap() + 1];
        assert!(load_classifier(cut).is_err());
    }

    #[test]
    fn ragged_support_vectors_are_rejected() {
        let d = dataset();
        let (train, _) = d.split_benign(0.5, 7);
        let clf = train_classifier(Method::Wsvm, &train, &d.mixed, &PipelineConfig::fast(), 7);
        let text = save_classifier(&clf);
        // Drop the last value of the first support-vector line.
        let corrupted: Vec<String> = text
            .lines()
            .map(|l| {
                if l.starts_with("sv ") {
                    l.rsplit_once(' ').map(|(head, _)| head.to_owned()).unwrap()
                } else {
                    l.to_owned()
                }
            })
            .collect();
        let corrupted = corrupted.join("\n");
        // Only corrupt one line: restore all but the first `sv `.
        let mut fixed = Vec::new();
        let mut corrupted_one = false;
        for (orig, maybe) in text.lines().zip(corrupted.lines()) {
            if orig.starts_with("sv ") && !corrupted_one {
                fixed.push(maybe.to_owned());
                corrupted_one = true;
            } else {
                fixed.push(orig.to_owned());
            }
        }
        let err = load_classifier(&fixed.join("\n")).unwrap_err();
        assert!(err.to_string().contains("inconsistent dimensions"), "{err}");
    }

    /// Replaces the first line starting with `prefix` by `f(line)`.
    fn edit_line(text: &str, prefix: &str, f: impl Fn(&str) -> String) -> String {
        let mut done = false;
        let lines: Vec<String> = text
            .lines()
            .map(|l| {
                if !done && l.starts_with(prefix) {
                    done = true;
                    f(l)
                } else {
                    l.to_owned()
                }
            })
            .collect();
        assert!(done, "no line starts with {prefix:?}");
        lines.join("\n") + "\n"
    }

    #[test]
    fn semantically_invalid_svm_models_are_rejected_at_load() {
        let d = dataset();
        let (train, _) = d.split_benign(0.5, 7);
        let clf = train_classifier(Method::Wsvm, &train, &d.mixed, &PipelineConfig::fast(), 7);
        let text = save_classifier(&clf);
        let cases: Vec<(String, &str)> = vec![
            (edit_line(&text, "kernel ", |_| "kernel gaussian NaN".into()), "sigma2"),
            (edit_line(&text, "kernel ", |_| "kernel gaussian 0.0".into()), "sigma2"),
            (edit_line(&text, "kernel ", |_| "kernel gaussian -1.0".into()), "sigma2"),
            (edit_line(&text, "kernel ", |_| "kernel gaussian inf".into()), "sigma2"),
            (edit_line(&text, "kernel ", |_| "kernel poly 2 NaN".into()), "unknown kernel"),
            (edit_line(&text, "kernel ", |_| "kernel linear".into()), "unknown kernel"),
            (edit_line(&text, "bias ", |_| "bias NaN".into()), "bias"),
            (edit_line(&text, "sv ", |l| l.replacen("sv ", "sv inf ", 1)), "alpha_y"),
            (edit_line(&text, "sv ", |l| format!("{l} NaN")), "feature value"),
            (
                text.lines()
                    .map(|l| if l.starts_with("sv ") { format!("{l} 0.5") } else { l.to_owned() })
                    .collect::<Vec<_>>()
                    .join("\n"),
                "expected 30",
            ),
            (edit_line(&text, "encoder ", |l| l.replace(" 10 2 ", " 0 2 ")), "window"),
            (edit_line(&text, "set ", |_| "set 0 zz aa".into()), "not sorted"),
            (edit_line(&text, "set ", |_| "set 9999 aa".into()), "not dense"),
            (edit_line(&text, "tuned ", |l| set_token(l, 1, "NaN")), "lambda NaN"),
            (edit_line(&text, "tuned ", |l| set_token(l, 2, "inf")), "sigma2 inf"),
            (edit_line(&text, "tuned ", |l| set_token(l, 1, "0.0")), "must be > 0"),
            (edit_line(&text, "tuned ", |l| set_token(l, 2, "-1.0")), "must be > 0"),
            (edit_line(&text, "encoder ", |l| set_token(l, 3, "NaN")), "cut distance NaN"),
            (edit_line(&text, "encoder ", |l| set_token(l, 3, "inf")), "cut distance inf"),
        ];
        for (bad, needle) in cases {
            let err = load_classifier(&bad).expect_err(needle);
            assert!(matches!(err, ModelError::BadRecord { .. }), "{err}");
            assert!(err.to_string().contains(needle), "{needle}: {err}");
            assert!(!err.to_string().contains('\n'), "one line: {err}");
        }
    }

    /// Shrinks `tag`'s alphabet to `k` symbols: each B row keeps its
    /// first `k` values, renormalised to sum to 1, so only the alphabet
    /// check can refuse the result.
    fn shrink_alphabet(text: &str, tag: &str, k: usize) -> String {
        let mut symbols = None;
        let lines: Vec<String> = text
            .lines()
            .map(|l| {
                if let Some(rest) = l.strip_prefix(&format!("{tag} ")) {
                    let dims: Vec<usize> = rest.split(' ').map(|t| t.parse().unwrap()).collect();
                    symbols = Some(dims[1]);
                    format!("{tag} {} {k}", dims[0])
                } else if let Some(rest) = l.strip_prefix("b ").filter(|_| symbols.is_some()) {
                    let width = symbols.take().unwrap();
                    let b: Vec<f64> = rest.split(' ').map(|t| t.parse().unwrap()).collect();
                    let kept: Vec<String> = b
                        .chunks(width)
                        .flat_map(|row| {
                            let sum: f64 = row[..k].iter().sum();
                            row[..k].iter().map(move |v| format!("{:?}", v / sum))
                        })
                        .collect();
                    format!("b {}", kept.join(" "))
                } else {
                    l.to_owned()
                }
            })
            .collect();
        lines.join("\n")
    }

    /// Replaces token `index` of a record line (0 is its tag).
    fn set_token(line: &str, index: usize, value: &str) -> String {
        let mut tokens: Vec<&str> = line.split(' ').collect();
        tokens[index] = value;
        tokens.join(" ")
    }

    #[test]
    fn semantically_invalid_hmm_models_are_rejected_at_load() {
        let d = dataset();
        let (train, _) = d.split_benign(0.5, 7);
        let clf = train_classifier(Method::Hmm, &train, &d.mixed, &PipelineConfig::fast(), 7);
        let text = save_classifier(&clf);
        let symbols: usize = text
            .lines()
            .find_map(|l| l.strip_prefix("benign_hmm "))
            .and_then(|rest| rest.split(' ').nth(1))
            .unwrap()
            .parse()
            .unwrap();
        // A trained model's alphabet is the table plus the unknown symbol,
        // and the shrink helper alone keeps a file loadable.
        assert!(load_classifier(&shrink_alphabet(&text, "benign_hmm", symbols)).is_ok());
        let both_shrunk = shrink_alphabet(&shrink_alphabet(&text, "benign_hmm", 3), "mixed_hmm", 3);
        let cases: Vec<(String, &str)> = vec![
            (edit_line(&text, "pi ", |l| set_token(l, 1, "NaN")), "not a probability"),
            (edit_line(&text, "pi ", |l| set_token(l, 1, "-5")), "not a probability"),
            (edit_line(&text, "b ", |l| set_token(l, 1, "inf")), "not a probability"),
            (edit_line(&text, "a ", |l| set_token(l, 1, "2.0")), "row 0 sums to"),
            (edit_line(&text, "benign_hmm ", |_| "benign_hmm 0 1".into()), "at least one state"),
            (both_shrunk, "symbol-table ids"),
            (shrink_alphabet(&text, "mixed_hmm", symbols - 1), "symbol-table ids"),
        ];
        for (bad, needle) in cases {
            let err = load_classifier(&bad).expect_err(needle);
            assert!(matches!(err, ModelError::BadRecord { .. }), "{err}");
            assert!(err.to_string().contains(needle), "{needle}: {err}");
            assert!(!err.to_string().contains('\n'), "one line: {err}");
        }
    }

    #[test]
    fn implausible_counts_are_rejected_before_allocation() {
        let text = "# LEAPS-MODEL v1\nkind cgraph\nbcg_edges 999999999999\n";
        let err = load_classifier(text).unwrap_err();
        assert!(err.to_string().contains("implausible"), "{err}");
    }

    /// One of four corruptions of `text`: a truncation at an arbitrary
    /// byte (the formats are ASCII), a deleted line, a duplicated line, or
    /// one token overwritten with garbage or with a value no count,
    /// probability or duration can take.
    fn mutate(text: &str, rng: &mut leaps_etw::rng::SimRng) -> String {
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        match rng.below(4) {
            0 => return text[..rng.below(text.len())].to_owned(),
            1 => drop(lines.remove(rng.below(lines.len()))),
            2 => {
                let victim = rng.below(lines.len());
                lines.insert(victim, lines[victim].clone());
            }
            _ => {
                let garbage = ["999999999999999999", "NaN", "-5", "inf"][rng.below(4)];
                let victim = rng.below(lines.len());
                let mut tokens: Vec<&str> = lines[victim].split_whitespace().collect();
                if !tokens.is_empty() {
                    let t = rng.below(tokens.len());
                    tokens[t] = garbage;
                }
                lines[victim] = tokens.join(" ");
            }
        }
        lines.join("\n")
    }

    /// A load of `text` either succeeded or failed with an error that
    /// points inside `text`.
    fn assert_located<T>(text: &str, loaded: &Result<T, ModelError>) {
        match loaded {
            Ok(_) | Err(ModelError::BadHeader | ModelError::Truncated) => {}
            Err(ModelError::BadRecord { line, reason }) => {
                let lines = text.lines().count();
                assert!((1..=lines).contains(line), "line {line} of {lines}: {reason}");
                assert!(!reason.contains('\n'), "one line: {reason}");
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn corrupted_model_files_never_panic() {
        use leaps_etw::rng::SimRng;
        let d = dataset();
        let (train, _) = d.split_benign(0.5, 7);
        for (m, method) in [Method::CGraph, Method::Wsvm, Method::Hmm].into_iter().enumerate() {
            let clf = train_classifier(method, &train, &d.mixed, &PipelineConfig::fast(), 7);
            let text = save_classifier(&clf);
            let mut rng = SimRng::new(0xc0_44 ^ m as u64);
            for _ in 0..40 {
                let mutated = mutate(&text, &mut rng);
                // Must return Ok (benign mutation) or a clean Err — never
                // panic, never attempt an absurd allocation. A model that
                // loads must also detect without panicking.
                let loaded = load_classifier(&mutated);
                assert_located(&mutated, &loaded);
                if let Ok(loaded) = loaded {
                    let mut detector = crate::stream::StreamDetector::new(loaded);
                    let _ = detector.push_all(d.malicious.iter().take(40).cloned());
                }
            }
        }
    }

    #[test]
    fn corrupted_checkpoints_and_manifests_never_panic() {
        use crate::experiment::{
            parse_manifest, render_manifest, CellOutcome, CellReport, SweepReport,
        };
        use leaps_etw::rng::SimRng;
        let n = 24;
        let smo = SmoState {
            alpha: (0..n).map(|i| f64::from(i % 5) / 8.0).collect(),
            grad: (0..n).map(|i| f64::from(i) / 3.0 - 4.0).collect(),
            iterations: 17,
        };
        let cv =
            CvState { scores: (0..n).map(|i| (i % 7 != 0).then(|| f64::from(i) / 30.0)).collect() };
        let hmm = HmmState {
            iteration: 2,
            states: 2,
            symbols: 3,
            pi: vec![0.25, 0.75],
            a: vec![0.5, 0.5, 0.1, 0.9],
            b: vec![0.2, 0.3, 0.5, 0.6, 0.3, 0.1],
            rng: [9, 8, 7, 6],
        };
        type Decode = fn(&Checkpoint) -> Result<(), ModelError>;
        let decode: [(Checkpoint, Decode); 3] = [
            (smo_checkpoint(&smo, 3, [1, 2, 3, 4]), |c| smo_state(c).map(drop)),
            (cv_checkpoint(&cv, 4, [1, 2, 3, 4]), |c| cv_state(c).map(drop)),
            (hmm_checkpoint(&hmm, 5), |c| hmm_state(c).map(drop)),
        ];
        for (k, (ckpt, decode)) in decode.into_iter().enumerate() {
            let text = save_checkpoint(&ckpt);
            let mut rng = SimRng::new(0xc4_97 ^ k as u64);
            for _ in 0..40 {
                let mutated = mutate(&text, &mut rng);
                let loaded = load_checkpoint(&mutated).and_then(|c| decode(&c));
                assert_located(&mutated, &loaded);
            }
        }

        let cell = |scenario: &str, method, outcome| CellReport {
            scenario: scenario.into(),
            method,
            outcome,
            secs: 1.5,
        };
        let metrics =
            crate::metrics::Metrics { acc: 0.875, ppv: 0.5, tpr: 0.25, tnr: 1.0, npv: 0.6 };
        let report = SweepReport {
            cells: vec![
                cell("vim_reverse_tcp", Method::Wsvm, CellOutcome::Ok(metrics)),
                cell("putty_codeinject", Method::Svm, CellOutcome::Ok(metrics)),
                cell("a", Method::CGraph, CellOutcome::Error("data error: too few".into())),
                cell("b", Method::Hmm, CellOutcome::Panicked("boom; at x".into())),
                cell("c", Method::Wsvm, CellOutcome::Deadline),
            ],
        };
        let text = render_manifest(&report);
        let mut rng = SimRng::new(0x5e_e9);
        for _ in 0..40 {
            // `mutate` drops the final newline, which alone refuses a
            // manifest as cut short; put it back so the damage inside
            // the lines is read too.
            let mutated = mutate(&text, &mut rng);
            assert_located(&mutated, &parse_manifest(&mutated));
            let mutated = format!("{mutated}\n");
            assert_located(&mutated, &parse_manifest(&mutated));
        }
    }

    #[test]
    fn records_after_the_last_one_are_refused_at_their_line() {
        let d = dataset();
        let (train, _) = d.split_benign(0.5, 7);
        let clf = train_classifier(Method::Wsvm, &train, &d.mixed, &PipelineConfig::fast(), 7);
        let text = save_classifier(&clf);
        let lines = text.lines().count();
        // Blank lines after the last record are no record.
        assert!(load_classifier(&format!("{text}\n \n")).is_ok());
        let last = text.lines().last().unwrap();
        for (bad, line) in
            [(format!("{text}{text}"), lines + 1), (format!("{text}{last}\n"), lines + 1)]
        {
            match load_classifier(&bad) {
                Err(ModelError::BadRecord { line: at, reason }) => {
                    assert_eq!(at, line, "{reason}");
                    assert!(reason.contains("after the last record"), "{reason}");
                }
                other => panic!("expected a bad record at line {line}, got {other:?}"),
            }
        }

        let ckpt = save_checkpoint(&smo_checkpoint(
            &SmoState { alpha: vec![0.5], grad: vec![-0.5], iterations: 1 },
            3,
            [1, 1, 1, 1],
        ));
        for bad in [format!("{ckpt}end\n"), format!("{ckpt}{ckpt}")] {
            match load_checkpoint(&bad) {
                Err(ModelError::BadRecord { line: 10, reason }) => {
                    assert!(reason.contains("after the last record"), "{reason}");
                }
                other => panic!("expected a bad record at line 10, got {other:?}"),
            }
        }
        // A payload record no stage reads is refused at its file line.
        let mut extra = load_checkpoint(&ckpt).unwrap();
        extra.payload.push("grad 1.0".into());
        let err = smo_state(&extra).unwrap_err();
        assert!(matches!(err, ModelError::BadRecord { line: 9, .. }), "{err}");
    }

    #[test]
    fn value_faults_in_a_checkpoint_are_refused_at_their_record() {
        let smo = SmoState { alpha: vec![0.5, 0.25], grad: vec![f64::NAN, -0.5], iterations: 3 };
        match smo_state(&smo_checkpoint(&smo, 3, [1, 2, 3, 4])) {
            Err(ModelError::BadRecord { line: 8, reason }) => {
                assert!(reason.contains("grad value NaN is not finite"), "{reason}");
            }
            other => panic!("expected a bad record at line 8, got {other:?}"),
        }
        let good = HmmState {
            iteration: 2,
            states: 2,
            symbols: 3,
            pi: vec![0.25, 0.75],
            a: vec![0.5, 0.5, 0.1, 0.9],
            b: vec![0.2, 0.3, 0.5, 0.6, 0.3, 0.1],
            rng: [9, 8, 7, 6],
        };
        assert_eq!(hmm_state(&hmm_checkpoint(&good, 5)).unwrap(), good);
        let bad_pi = HmmState { pi: vec![0.25, 0.5], ..good.clone() };
        let bad_a = HmmState { a: vec![0.5, 0.5, 0.2, 0.9], ..good.clone() };
        let bad_b = HmmState { b: vec![0.2, 0.3, 0.5, -0.6, 0.3, 0.1], ..good };
        for (state, line, needle) in [
            (bad_pi, 8, "resume state pi row 0 sums to 0.75"),
            (bad_a, 9, "resume state a row 1 sums to 1.1"),
            (bad_b, 10, "resume state b holds -0.6"),
        ] {
            match hmm_state(&hmm_checkpoint(&state, 5)) {
                Err(ModelError::BadRecord { line: at, reason }) => {
                    assert_eq!(at, line, "{reason}");
                    assert!(reason.contains(needle), "{reason}");
                }
                other => panic!("expected a bad record at line {line}, got {other:?}"),
            }
        }
    }

    #[test]
    fn errors_display() {
        assert!(ModelError::BadHeader.to_string().contains("LEAPS-MODEL"));
        let e = ModelError::BadRecord { line: 3, reason: "x".into() };
        assert_eq!(e.to_string(), "bad record at line 3: x");
    }

    #[test]
    fn smo_checkpoint_roundtrips() {
        let state = SmoState {
            alpha: vec![0.0, 0.125, 7.5e-3],
            grad: vec![-1.0, 0.333_333_333_333_333_3, 2.0],
            iterations: 42,
        };
        let fp = fingerprint64(&["wsvm", "7", "smo"]);
        let ckpt = smo_checkpoint(&state, fp, [1, 2, 3, 4]);
        let loaded = load_checkpoint(&save_checkpoint(&ckpt)).unwrap();
        assert_eq!(loaded, ckpt);
        assert_eq!(smo_state(&loaded).unwrap(), state);
    }

    #[test]
    fn cv_checkpoint_roundtrips_including_none_cells() {
        let state = CvState { scores: vec![Some(0.875), None, Some(1.0 / 3.0)] };
        let ckpt = cv_checkpoint(&state, 9, [5, 6, 7, 8]);
        let loaded = load_checkpoint(&save_checkpoint(&ckpt)).unwrap();
        assert_eq!(cv_state(&loaded).unwrap(), state);
    }

    #[test]
    fn hmm_checkpoint_roundtrips() {
        let state = HmmState {
            iteration: 3,
            states: 2,
            symbols: 3,
            pi: vec![0.25, 0.75],
            a: vec![0.5, 0.5, 0.1, 0.9],
            b: vec![0.2, 0.3, 0.5, 0.6, 0.3, 0.1],
            rng: [9, 8, 7, 6],
        };
        let ckpt = hmm_checkpoint(&state, 11);
        let loaded = load_checkpoint(&save_checkpoint(&ckpt)).unwrap();
        assert_eq!(hmm_state(&loaded).unwrap(), state);
    }

    #[test]
    fn checkpoint_fingerprint_mismatch_is_rejected() {
        let state = CvState { scores: vec![Some(0.5)] };
        let ckpt = cv_checkpoint(&state, fingerprint64(&["wsvm", "seed 7"]), [1, 0, 0, 0]);
        assert!(verify_checkpoint(&ckpt, "cv", ckpt.fingerprint).is_ok());
        let err = verify_checkpoint(&ckpt, "cv", fingerprint64(&["wsvm", "seed 8"])).unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");
        let err = verify_checkpoint(&ckpt, "smo", ckpt.fingerprint).unwrap_err();
        assert!(err.to_string().contains("stage"), "{err}");
    }

    #[test]
    fn corrupt_checkpoints_are_diagnosed_not_panicking() {
        assert!(matches!(load_checkpoint(""), Err(ModelError::BadHeader)));
        assert!(matches!(load_checkpoint("# LEAPS-CKPT v1\n"), Err(ModelError::Truncated)));
        let good = save_checkpoint(&hmm_checkpoint(
            &HmmState {
                iteration: 1,
                states: 2,
                symbols: 2,
                pi: vec![0.5, 0.5],
                a: vec![0.5; 4],
                b: vec![0.5; 4],
                rng: [1, 2, 3, 4],
            },
            5,
        ));
        // Missing `end` marker.
        let no_end = good.trim_end().trim_end_matches("end").to_owned();
        assert!(load_checkpoint(&no_end).is_err());
        // Any single-line deletion must error, never panic.
        for victim in 0..good.lines().count() {
            let mutated: Vec<&str> =
                good.lines().enumerate().filter(|(i, _)| *i != victim).map(|(_, l)| l).collect();
            assert!(load_checkpoint(&mutated.join("\n")).is_err(), "line {victim}");
        }
        // Wrong matrix dimensions in an otherwise valid envelope.
        let ckpt = load_checkpoint(&good).unwrap();
        let mut bad_dims = ckpt.clone();
        bad_dims.payload[0] = "dims 3 2".into();
        assert!(hmm_state(&bad_dims).is_err());
        // All-zero RNG state.
        let mut zero_rng = ckpt;
        zero_rng.rng = [0; 4];
        let err = hmm_state(&zero_rng).unwrap_err();
        assert!(err.to_string().contains("all-zero"), "{err}");
    }

    #[test]
    fn fingerprint_separates_parts() {
        assert_ne!(fingerprint64(&["ab", "c"]), fingerprint64(&["a", "bc"]));
        assert_ne!(fingerprint64(&[]), fingerprint64(&[""]));
        assert_eq!(fingerprint64(&["x", "y"]), fingerprint64(&["x", "y"]));
    }

    #[test]
    fn checkpoint_file_roundtrip_is_atomic() {
        let dir = scratch_dir("ckpt");
        let path = dir.join("smo.ckpt");
        let state = SmoState { alpha: vec![0.5], grad: vec![-0.5], iterations: 1 };
        let ckpt = smo_checkpoint(&state, 3, [1, 1, 1, 1]);
        save_checkpoint_to(&path, &ckpt).unwrap();
        assert!(!temp_path_for(&path).exists());
        assert_eq!(load_checkpoint_file(&path).unwrap(), ckpt);
        // A missing checkpoint is an I/O error naming the path.
        let err = load_checkpoint_file(&dir.join("absent.ckpt")).unwrap_err();
        assert_eq!(err.exit_code(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("leaps-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn temp_path_is_dot_prefixed_sibling() {
        let temp = temp_path_for(std::path::Path::new("/models/cgraph.model"));
        assert_eq!(temp, std::path::Path::new("/models/.cgraph.model.tmp"));
        // Dot prefix means registry name validation can never serve it.
        assert!(temp.file_name().unwrap().to_str().unwrap().starts_with('.'));
    }

    #[test]
    fn atomic_save_leaves_no_temp_and_reclaims_stale_ones() {
        let dir = scratch_dir("atomic");
        let path = dir.join("m.model");
        let temp = temp_path_for(&path);

        // A previous save "killed" mid-write left a stale temp behind.
        std::fs::write(&temp, "torn garbage").unwrap();

        let d = dataset();
        let (train, _) = d.split_benign(0.5, 7);
        let original =
            train_classifier(Method::CGraph, &train, &d.mixed, &PipelineConfig::fast(), 7);
        save_classifier_to(&path, &original).unwrap();

        assert!(!temp.exists(), "temp file must be consumed by the rename");
        let loaded = load_classifier_file(&path).unwrap();
        assert_eq!(save_classifier(&loaded), save_classifier(&original));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_save_never_touches_the_visible_file() {
        let dir = scratch_dir("interrupted");
        let path = dir.join("m.model");
        std::fs::write(&path, "known good").unwrap();

        // Simulate a save killed after staging but before the rename:
        // only the temp exists alongside the intact old model.
        std::fs::write(temp_path_for(&path), "half-writ").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "known good");

        // And a save that fails outright (target dir missing) cleans up
        // its temp and leaves nothing visible.
        let bad = dir.join("no-such-dir").join("m.model");
        assert!(write_atomic(&bad, "x").is_err());
        assert!(!temp_path_for(&bad).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_model_file_is_a_one_line_model_error_naming_the_file() {
        let dir = scratch_dir("torn");
        let path = dir.join("torn.model");

        let d = dataset();
        let (train, _) = d.split_benign(0.5, 7);
        let original =
            train_classifier(Method::CGraph, &train, &d.mixed, &PipelineConfig::fast(), 7);
        let text = save_classifier(&original);
        // Truncate mid-file: the classic torn write.
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();

        let err = load_classifier_file(&path).unwrap_err();
        assert_eq!(err.exit_code(), 4, "torn model must be exit-code 4, got {err}");
        let message = err.to_string();
        assert!(message.contains("torn.model"), "message must name the file: {message}");
        assert!(!message.contains('\n'), "diagnosis must be one line: {message:?}");

        // Missing file: exit code 6 (I/O), still naming the path.
        let missing = dir.join("absent.model");
        let err = load_classifier_file(&missing).unwrap_err();
        assert_eq!(err.exit_code(), 6);
        assert!(err.to_string().contains("absent.model"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
