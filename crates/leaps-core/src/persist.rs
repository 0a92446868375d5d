//! Model persistence: save a trained [`Classifier`] to a versioned,
//! dependency-free text format and load it back — so a deployment trains
//! once in the controlled environment and detects forever after
//! (`leaps train` / `leaps detect --model`).
//!
//! The format is line-oriented `LEAPS-MODEL v1`: one record per line,
//! space-separated tokens. Symbols (`module!function`) and set members
//! never contain whitespace, and floats are written with Rust's `{:?}`
//! (shortest round-trip representation), so parsing is exact.
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
                write!(f, "bad model record at line {line}: {reason}")
            }
            ModelError::Truncated => write!(f, "model file ended unexpectedly"),
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
/// Returns [`ModelError`] on malformed input.
pub fn load_classifier(text: &str) -> Result<Classifier, ModelError> {
    let mut lines = Lines::new(text);
    if lines.next_line() != Some(MODEL_HEADER) {
        return Err(ModelError::BadHeader);
    }
    let kind_line = lines.expect_prefixed("kind")?;
    match kind_line {
        "cgraph" => {
            let bcg = read_call_graph(&mut lines, "bcg")?;
            let mcg = read_call_graph(&mut lines, "mcg")?;
            Ok(Classifier::CGraph(CallGraphClassifier::from_parts(bcg, mcg)))
        }
        "svm" => Ok(Classifier::Svm(read_svm(&mut lines)?)),
        "hmm" => Ok(Classifier::Hmm(read_hmm(&mut lines)?)),
        other => Err(lines.bad(format!("unknown model kind {other:?}"))),
    }
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
    let text = std::fs::read_to_string(path)
        .map_err(|e| LeapsError::io(path.display().to_string(), &e))?;
    load_classifier(&text).map_err(|inner| {
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
/// practice, but hand-edited or foreign files get a diagnosis).
pub fn load_checkpoint(text: &str) -> Result<Checkpoint, ModelError> {
    let mut lines = Lines::new(text);
    if lines.next_line() != Some(CKPT_HEADER) {
        return Err(ModelError::BadHeader);
    }
    let stage = lines.expect_prefixed("stage")?.to_owned();
    let fingerprint = {
        let rest = lines.expect_prefixed("fingerprint")?;
        lines.parse(rest, "fingerprint")?
    };
    let progress = {
        let rest = lines.expect_prefixed("progress")?;
        lines.parse(rest, "progress")?
    };
    let rng = {
        let rest = lines.expect_prefixed("rng")?;
        let words: Vec<&str> = rest.split_whitespace().collect();
        let [a, b, c, d] = words.as_slice() else {
            return Err(lines.bad("rng needs 4 words".into()));
        };
        [
            lines.parse(a, "rng word")?,
            lines.parse(b, "rng word")?,
            lines.parse(c, "rng word")?,
            lines.parse(d, "rng word")?,
        ]
    };
    let n: usize = {
        let rest = lines.expect_prefixed("payload")?;
        lines.parse_count(rest, "payload count")?
    };
    let mut payload = Vec::with_capacity(n);
    for _ in 0..n {
        payload.push(lines.expect_prefixed("p")?.to_owned());
    }
    match lines.next_line() {
        Some("end") => Ok(Checkpoint { stage, fingerprint, progress, rng, payload }),
        Some(other) => Err(lines.bad(format!("expected `end`, got {other:?}"))),
        None => Err(ModelError::Truncated),
    }
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
    let text = std::fs::read_to_string(path)
        .map_err(|e| LeapsError::io(path.display().to_string(), &e))?;
    load_checkpoint(&text).map_err(|inner| {
        LeapsError::Model(ModelError::InFile {
            path: path.display().to_string(),
            inner: Box::new(inner),
        })
    })
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

fn float_record(tag: &str, values: &[f64]) -> String {
    let mut line = String::from(tag);
    for v in values {
        line.push_str(&format!(" {v:?}"));
    }
    line
}

/// 1-based line number of a checkpoint's first payload record (header,
/// stage, fingerprint, progress, rng, payload-count precede).
pub(crate) const CKPT_PAYLOAD_LINE: usize = 7;

/// 1-based line number of payload record `index` in the checkpoint file.
fn payload_line_no(index: usize) -> usize {
    CKPT_PAYLOAD_LINE + index
}

fn payload_record<'a>(
    ckpt: &'a Checkpoint,
    index: usize,
    tag: &str,
) -> Result<&'a str, ModelError> {
    let record = ckpt.payload.get(index).ok_or(ModelError::Truncated)?;
    if record == tag {
        return Ok("");
    }
    record.strip_prefix(tag).and_then(|r| r.strip_prefix(' ')).ok_or_else(|| {
        ModelError::BadRecord {
            line: payload_line_no(index),
            reason: format!("expected `{tag} ...`, got {record:?}"),
        }
    })
}

fn payload_floats(ckpt: &Checkpoint, index: usize, tag: &str) -> Result<Vec<f64>, ModelError> {
    payload_record(ckpt, index, tag)?
        .split_whitespace()
        .map(|v| {
            v.parse().map_err(|_| ModelError::BadRecord {
                line: payload_line_no(index),
                reason: format!("invalid {tag} value: {v:?}"),
            })
        })
        .collect()
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
/// [`ModelError`] if the checkpoint is not a well-formed `smo` stage.
pub fn smo_state(ckpt: &Checkpoint) -> Result<SmoState, ModelError> {
    verify_checkpoint(ckpt, "smo", ckpt.fingerprint)?;
    let alpha = payload_floats(ckpt, 0, "alpha")?;
    let grad = payload_floats(ckpt, 1, "grad")?;
    if alpha.len() != grad.len() || alpha.is_empty() {
        return Err(ModelError::BadRecord {
            line: payload_line_no(1),
            reason: format!("alpha/grad length mismatch ({} vs {})", alpha.len(), grad.len()),
        });
    }
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
    let scores: Result<Vec<Option<f64>>, ModelError> = payload_record(ckpt, 0, "scores")?
        .split_whitespace()
        .map(|v| {
            if v == "-" {
                Ok(None)
            } else {
                v.parse().map(Some).map_err(|_| ModelError::BadRecord {
                    line: payload_line_no(0),
                    reason: format!("invalid score: {v:?}"),
                })
            }
        })
        .collect();
    let scores = scores?;
    if scores.len() as u64 != ckpt.progress {
        return Err(ModelError::BadRecord {
            line: payload_line_no(0),
            reason: format!("{} scores but progress says {}", scores.len(), ckpt.progress),
        });
    }
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
/// (wrong matrix dimensions, all-zero RNG state, …).
pub fn hmm_state(ckpt: &Checkpoint) -> Result<HmmState, ModelError> {
    verify_checkpoint(ckpt, "hmm", ckpt.fingerprint)?;
    let dims = payload_record(ckpt, 0, "dims")?;
    let words: Vec<&str> = dims.split_whitespace().collect();
    let bad = |index: usize, reason: String| ModelError::BadRecord {
        line: payload_line_no(index),
        reason,
    };
    let [states, symbols] = words.as_slice() else {
        return Err(bad(0, "dims needs 2 words".into()));
    };
    let parse_dim = |token: &str| -> Result<usize, ModelError> {
        let n: usize =
            token.parse().map_err(|_| bad(0, format!("invalid dimension: {token:?}")))?;
        const MAX_DIM: usize = 1 << 12;
        if n == 0 || n > MAX_DIM {
            return Err(bad(0, format!("implausible dimension {n}")));
        }
        Ok(n)
    };
    let states = parse_dim(states)?;
    let symbols = parse_dim(symbols)?;
    let pi = payload_floats(ckpt, 1, "pi")?;
    let a = payload_floats(ckpt, 2, "a")?;
    let b = payload_floats(ckpt, 3, "b")?;
    for (index, (name, values, expected)) in
        [("pi", &pi, states), ("a", &a, states * states), ("b", &b, states * symbols)]
            .into_iter()
            .enumerate()
    {
        if values.len() != expected {
            return Err(bad(
                index + 1,
                format!("{name} has {} values, expected {expected}", values.len()),
            ));
        }
    }
    if ckpt.rng.iter().all(|&w| w == 0) {
        return Err(bad(0, "all-zero RNG state".into()));
    }
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
    match kernel {
        Kernel::Linear => out.push_str("kernel linear\n"),
        Kernel::Gaussian { sigma2 } => out.push_str(&format!("kernel gaussian {sigma2:?}\n")),
        Kernel::Polynomial { degree, coef0 } => {
            out.push_str(&format!("kernel poly {degree} {coef0:?}\n"));
        }
    }
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
        out.push_str(&format!("sv {alpha_y:?}"));
        for v in sv {
            out.push_str(&format!(" {v:?}"));
        }
        out.push('\n');
    }
    write_encoder(out, &svm.encoder);
}

fn write_hmm_model(out: &mut String, tag: &str, model: &Hmm) {
    out.push_str(&format!("{tag} {} {}\n", model.state_count(), model.symbol_count()));
    let (pi, a, b) = model.parts();
    for (name, values) in [("pi", pi), ("a", a), ("b", b)] {
        out.push_str(name);
        for v in values {
            out.push_str(&format!(" {v:?}"));
        }
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

struct Lines<'a> {
    iter: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Lines { iter: text.lines(), line_no: 0 }
    }

    fn next_line(&mut self) -> Option<&'a str> {
        self.line_no += 1;
        self.iter.next()
    }

    fn bad(&self, reason: String) -> ModelError {
        ModelError::BadRecord { line: self.line_no, reason }
    }

    /// Reads the next line and strips `"{prefix} "`.
    fn expect_prefixed(&mut self, prefix: &str) -> Result<&'a str, ModelError> {
        let line = self.next_line().ok_or(ModelError::Truncated)?;
        line.strip_prefix(prefix)
            .and_then(|rest| rest.strip_prefix(' '))
            .ok_or_else(|| self.bad(format!("expected `{prefix} ...`, got {line:?}")))
    }

    fn parse<T: std::str::FromStr>(&self, token: &str, what: &str) -> Result<T, ModelError> {
        token.parse().map_err(|_| self.bad(format!("invalid {what}: {token:?}")))
    }

    fn parse_finite(&self, token: &str, what: &str) -> Result<f64, ModelError> {
        let value: f64 = self.parse(token, what)?;
        if !value.is_finite() {
            return Err(self.bad(format!("{what} must be finite, got {token:?}")));
        }
        Ok(value)
    }

    /// Parses a record count, bounding it so a corrupted count cannot
    /// drive a multi-gigabyte pre-allocation before the missing records
    /// are noticed.
    fn parse_count(&self, token: &str, what: &str) -> Result<usize, ModelError> {
        const MAX_COUNT: usize = 1 << 24;
        let n: usize = self.parse(token, what)?;
        if n > MAX_COUNT {
            return Err(self.bad(format!("implausible {what} {n} (max {MAX_COUNT})")));
        }
        Ok(n)
    }
}

fn read_call_graph(lines: &mut Lines<'_>, tag: &str) -> Result<CallGraph, ModelError> {
    let n_edges: usize = {
        let rest = lines.expect_prefixed(&format!("{tag}_edges"))?;
        lines.parse_count(rest, "edge count")?
    };
    let mut edges = Vec::with_capacity(n_edges);
    for _ in 0..n_edges {
        let rest = lines.expect_prefixed("edge")?;
        let mut parts = rest.split_whitespace();
        let (Some(a), Some(b), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(lines.bad("edge needs exactly two symbols".into()));
        };
        edges.push((a.to_owned(), b.to_owned()));
    }
    let n_chains: usize = {
        let rest = lines.expect_prefixed(&format!("{tag}_chains"))?;
        lines.parse_count(rest, "chain count")?
    };
    let mut chains = Vec::with_capacity(n_chains);
    for _ in 0..n_chains {
        let rest = lines.expect_prefixed("chain")?;
        chains.push(rest.split_whitespace().map(str::to_owned).collect());
    }
    Ok(CallGraph::from_parts(edges, chains))
}

fn read_kernel(lines: &mut Lines<'_>) -> Result<Kernel, ModelError> {
    let rest = lines.expect_prefixed("kernel")?;
    let mut parts = rest.split_whitespace();
    let kernel = match parts.next() {
        Some("linear") => Kernel::Linear,
        Some("gaussian") => {
            let sigma2 = lines.parse(
                parts.next().ok_or_else(|| lines.bad("gaussian needs sigma2".into()))?,
                "sigma2",
            )?;
            Kernel::Gaussian { sigma2 }
        }
        Some("poly") => {
            let degree = lines.parse(
                parts.next().ok_or_else(|| lines.bad("poly needs degree".into()))?,
                "degree",
            )?;
            let coef0 = lines.parse(
                parts.next().ok_or_else(|| lines.bad("poly needs coef0".into()))?,
                "coef0",
            )?;
            Kernel::Polynomial { degree, coef0 }
        }
        other => return Err(lines.bad(format!("unknown kernel {other:?}"))),
    };
    kernel.validate().map_err(|reason| lines.bad(reason))?;
    Ok(kernel)
}

fn read_encoder(lines: &mut Lines<'_>) -> Result<FeatureEncoder, ModelError> {
    let rest = lines.expect_prefixed("encoder")?;
    let tokens: Vec<&str> = rest.split_whitespace().collect();
    let [linkage, cut_kind, cut_val, window, stride, max_vocab] = tokens.as_slice() else {
        return Err(lines.bad("encoder needs 6 fields".into()));
    };
    let linkage = match *linkage {
        "average" => Linkage::Average,
        "single" => Linkage::Single,
        "complete" => Linkage::Complete,
        other => return Err(lines.bad(format!("unknown linkage {other:?}"))),
    };
    let cut = match *cut_kind {
        "distance" => CutRule::Distance(lines.parse(cut_val, "cut distance")?),
        "count" => CutRule::Count(lines.parse(cut_val, "cut count")?),
        other => return Err(lines.bad(format!("unknown cut rule {other:?}"))),
    };
    let config = PreprocessConfig {
        linkage,
        cut,
        window: lines.parse_count(window, "window")?,
        stride: lines.parse_count(stride, "stride")?,
        max_vocab: lines.parse(max_vocab, "max_vocab")?,
    };
    if config.window == 0 || config.stride == 0 {
        return Err(lines.bad("encoder window and stride must be at least 1".into()));
    }
    let lib = read_assigner(lines, "lib")?;
    let func = read_assigner(lines, "func")?;
    Ok(FeatureEncoder::from_parts(lib, func, config))
}

fn read_assigner(lines: &mut Lines<'_>, tag: &str) -> Result<ClusterAssigner<String>, ModelError> {
    let n: usize = {
        let rest = lines.expect_prefixed(&format!("{tag}_vocab"))?;
        lines.parse_count(rest, "vocab size")?
    };
    let mut members = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let rest = lines.expect_prefixed("set")?;
        let mut parts = rest.split_whitespace();
        let label = lines.parse(
            parts.next().ok_or_else(|| lines.bad("set needs a label".into()))?,
            "cluster label",
        )?;
        labels.push(label);
        members.push(parts.map(str::to_owned).collect());
    }
    ClusterAssigner::try_new(members, labels).map_err(|reason| lines.bad(reason))
}

fn read_svm(lines: &mut Lines<'_>) -> Result<SvmClassifier, ModelError> {
    let rest = lines.expect_prefixed("tuned")?;
    let mut parts = rest.split_whitespace();
    let lambda: f64 = lines
        .parse(parts.next().ok_or_else(|| lines.bad("tuned needs lambda".into()))?, "lambda")?;
    let sigma2: f64 = lines
        .parse(parts.next().ok_or_else(|| lines.bad("tuned needs sigma2".into()))?, "sigma2")?;
    let kernel = read_kernel(lines)?;
    let bias: f64 = {
        let rest = lines.expect_prefixed("bias")?;
        lines.parse_finite(rest, "bias")?
    };
    let n: usize = {
        let rest = lines.expect_prefixed("sv_count")?;
        lines.parse_count(rest, "support vector count")?
    };
    let first_sv_line = lines.line_no + 1;
    let mut support = Vec::with_capacity(n);
    let mut alpha_y = Vec::with_capacity(n);
    for _ in 0..n {
        let rest = lines.expect_prefixed("sv")?;
        let mut values = rest.split_whitespace();
        let ay: f64 = lines.parse_finite(
            values.next().ok_or_else(|| lines.bad("sv needs alpha_y".into()))?,
            "alpha_y",
        )?;
        let x: Result<Vec<f64>, ModelError> =
            values.map(|v| lines.parse_finite(v, "feature value")).collect();
        alpha_y.push(ay);
        support.push(x?);
    }
    let encoder = read_encoder(lines)?;
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
        tuned: (lambda, sigma2),
    })
}

fn read_hmm_model(lines: &mut Lines<'_>, tag: &str) -> Result<Hmm, ModelError> {
    let rest = lines.expect_prefixed(tag)?;
    let mut parts = rest.split_whitespace();
    let states: usize = lines
        .parse_count(parts.next().ok_or_else(|| lines.bad("hmm needs states".into()))?, "states")?;
    let symbols: usize = lines.parse_count(
        parts.next().ok_or_else(|| lines.bad("hmm needs symbols".into()))?,
        "symbols",
    )?;
    if states == 0 || symbols == 0 {
        return Err(lines.bad(format!("{tag} needs at least one state and one symbol")));
    }
    let mut matrices = Vec::with_capacity(3);
    // (name, rows, row width): π is one row over the states, A one row
    // per state over the states, B one row per state over the symbols.
    for (name, rows, width) in [("pi", 1, states), ("a", states, states), ("b", states, symbols)] {
        let rest = lines.expect_prefixed(name)?;
        let values: Result<Vec<f64>, ModelError> =
            rest.split_whitespace().map(|v| lines.parse(v, "probability")).collect();
        let values = values?;
        if values.len() != rows * width {
            return Err(lines.bad(format!(
                "{name} has {} values, expected {}",
                values.len(),
                rows * width
            )));
        }
        check_stochastic(&format!("{tag} {name}"), &values, width)
            .map_err(|reason| lines.bad(reason))?;
        matrices.push(values);
    }
    let b = matrices.pop().expect("pushed above");
    let a = matrices.pop().expect("pushed above");
    let pi = matrices.pop().expect("pushed above");
    Ok(Hmm::from_parts(states, symbols, pi, a, b))
}

fn read_hmm(lines: &mut Lines<'_>) -> Result<HmmDetector, ModelError> {
    let encoder = read_encoder(lines)?;
    let n: usize = {
        let rest = lines.expect_prefixed("symbols")?;
        lines.parse_count(rest, "symbol count")?
    };
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let rest = lines.expect_prefixed("sym")?;
        let tokens: Vec<&str> = rest.split_whitespace().collect();
        let [id, e, l, f] = tokens.as_slice() else {
            return Err(lines.bad("sym needs 4 fields".into()));
        };
        entries.push((
            (
                lines.parse(e, "event type")?,
                lines.parse(l, "lib cluster")?,
                lines.parse(f, "func cluster")?,
            ),
            lines.parse(id, "symbol id")?,
        ));
    }
    // `SymbolTable::from_entries` requires dense ids and unique tuples;
    // validate here so corrupt files get a diagnosis instead of a panic.
    let mut seen = vec![false; n];
    let mut uniq = std::collections::HashSet::new();
    for &(key, id) in &entries {
        if id >= n || seen[id] || !uniq.insert(key) {
            return Err(lines.bad(format!("symbol table entries are not dense at id {id}")));
        }
        seen[id] = true;
    }
    let table = SymbolTable::from_entries(entries);
    let benign = read_hmm_model(lines, "benign_hmm")?;
    let mixed = read_hmm_model(lines, "mixed_hmm")?;
    // Detection looks up symbols 0..n, plus n for an unseen observation;
    // both models must emit every one of them.
    let (b, m) = (benign.symbol_count(), mixed.symbol_count());
    if b != m || b < table.alphabet_size() {
        return Err(lines.bad(format!(
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
            (edit_line(&text, "kernel ", |_| "kernel poly 2 NaN".into()), "coef0"),
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

    /// Replaces the first value of a `pi`/`a`/`b` line.
    fn first_value(line: &str, value: &str) -> String {
        let mut tokens: Vec<&str> = line.split(' ').collect();
        tokens[1] = value;
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
            (edit_line(&text, "pi ", |l| first_value(l, "NaN")), "not a probability"),
            (edit_line(&text, "pi ", |l| first_value(l, "-5")), "not a probability"),
            (edit_line(&text, "b ", |l| first_value(l, "inf")), "not a probability"),
            (edit_line(&text, "a ", |l| first_value(l, "2.0")), "row 0 sums to"),
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
                let mutated = match rng.below(4) {
                    // Truncate at an arbitrary byte (the format is ASCII).
                    0 => text[..rng.below(text.len())].to_owned(),
                    // Delete one line.
                    1 => {
                        let victim = rng.below(text.lines().count());
                        text.lines()
                            .enumerate()
                            .filter(|(i, _)| *i != victim)
                            .map(|(_, l)| l)
                            .collect::<Vec<_>>()
                            .join("\n")
                    }
                    // Duplicate one line.
                    2 => {
                        let victim = rng.below(text.lines().count());
                        let mut lines: Vec<&str> = text.lines().collect();
                        lines.insert(victim, lines[victim]);
                        lines.join("\n")
                    }
                    // Mangle one line: overwrite a token with garbage
                    // or with a value no probability can take.
                    _ => {
                        let garbage = ["999999999999999999", "NaN", "-5", "inf"][rng.below(4)];
                        let victim = rng.below(text.lines().count());
                        let lines: Vec<String> = text
                            .lines()
                            .enumerate()
                            .map(|(i, l)| {
                                if i == victim {
                                    let mut tokens: Vec<&str> = l.split_whitespace().collect();
                                    if !tokens.is_empty() {
                                        let t = rng.below(tokens.len());
                                        tokens[t] = garbage;
                                    }
                                    tokens.join(" ")
                                } else {
                                    l.to_owned()
                                }
                            })
                            .collect();
                        lines.join("\n")
                    }
                };
                // Must return Ok (benign mutation) or a clean Err — never
                // panic, never attempt an absurd allocation. A model that
                // loads must also detect without panicking.
                if let Ok(loaded) = load_classifier(&mutated) {
                    let mut detector = crate::stream::StreamDetector::new(loaded);
                    let _ = detector.push_all(d.malicious.iter().take(40).cloned());
                }
            }
        }
    }

    #[test]
    fn errors_display() {
        assert!(ModelError::BadHeader.to_string().contains("LEAPS-MODEL"));
        let e = ModelError::BadRecord { line: 3, reason: "x".into() };
        assert!(e.to_string().contains("line 3"));
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
