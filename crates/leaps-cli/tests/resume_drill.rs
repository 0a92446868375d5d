//! Crash-recovery drills against the real `leaps` binary: interrupt a
//! checkpointed `leaps train` (deterministically via `--deadline-secs 0`,
//! and with a mid-run SIGKILL), resume it, and require the final model
//! file to be byte-identical to one from an uninterrupted run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_leaps");

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("leaps-drill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn leaps(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("spawning the leaps binary")
}

fn assert_success(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Generates a scenario's raw logs and returns (benign, mixed) paths.
fn gen_logs(dir: &Path, events: &str, seed: &str) -> (String, String) {
    let data = dir.join("data");
    let out = leaps(&[
        "gen",
        "--scenario",
        "vim_reverse_tcp",
        "--out",
        data.to_str().unwrap(),
        "--events",
        events,
        "--seed",
        seed,
    ]);
    assert_success(&out, "leaps gen");
    (
        data.join("benign.log").to_str().unwrap().to_owned(),
        data.join("mixed.log").to_str().unwrap().to_owned(),
    )
}

fn ckpt_files(dir: &Path) -> Vec<String> {
    match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
            .filter(|name| name.ends_with(".ckpt"))
            .collect(),
        Err(_) => Vec::new(),
    }
}

#[test]
fn deadline_zero_pauses_then_resumes_to_identical_model() {
    let dir = scratch("deadline");
    let (benign, mixed) = gen_logs(&dir, "400", "11");
    let clean = dir.join("clean.model");
    let out = leaps(&[
        "train",
        "--benign",
        &benign,
        "--mixed",
        &mixed,
        "--seed",
        "11",
        "--out",
        clean.to_str().unwrap(),
    ]);
    assert_success(&out, "uninterrupted train");

    // --deadline-secs 0: the budget is already expired, so every run
    // pauses at the very next checkpoint boundary — a deterministic
    // interrupt drill with no timing race. Each rerun advances exactly
    // one boundary until training completes.
    let ckpt = dir.join("ckpt");
    let resumed = dir.join("resumed.model");
    let mut pauses = 0usize;
    for attempt in 0..300 {
        let mut args = vec![
            "train",
            "--benign",
            &benign,
            "--mixed",
            &mixed,
            "--seed",
            "11",
            "--out",
            resumed.to_str().unwrap(),
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
            "--deadline-secs",
            "0",
            "--checkpoint-every",
            "50",
        ];
        if attempt > 0 {
            args.push("--resume");
        }
        let out = leaps(&args);
        match out.status.code() {
            Some(0) => break,
            Some(8) => {
                pauses += 1;
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert!(stderr.contains("--resume"), "pause must advertise --resume: {stderr}");
                assert!(!ckpt_files(&ckpt).is_empty(), "paused without a checkpoint on disk");
            }
            other => panic!("unexpected exit {other:?}:\n{}", String::from_utf8_lossy(&out.stderr)),
        }
        assert!(attempt < 299, "training never completed under the deadline drill");
    }
    assert!(pauses > 0, "the expired deadline never paused training");
    assert!(ckpt_files(&ckpt).is_empty(), "completed training must remove its checkpoints");
    let clean_bytes = std::fs::read(&clean).unwrap();
    let resumed_bytes = std::fs::read(&resumed).unwrap();
    assert_eq!(clean_bytes, resumed_bytes, "resumed model differs from the uninterrupted one");
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn sigkill_mid_training_resumes_to_identical_model() {
    let dir = scratch("sigkill");
    let (benign, mixed) = gen_logs(&dir, "1200", "13");
    let clean = dir.join("clean.model");
    let out = leaps(&[
        "train",
        "--benign",
        &benign,
        "--mixed",
        &mixed,
        "--seed",
        "13",
        "--out",
        clean.to_str().unwrap(),
    ]);
    assert_success(&out, "uninterrupted train");

    let ckpt = dir.join("ckpt");
    let killed = dir.join("killed.model");
    let mut child = Command::new(BIN)
        .args([
            "train",
            "--benign",
            &benign,
            "--mixed",
            &mixed,
            "--seed",
            "13",
            "--out",
            killed.to_str().unwrap(),
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "25",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawning checkpointed train");
    std::thread::sleep(std::time::Duration::from_millis(300));
    // SIGKILL: no atexit handlers, no flushing — whatever checkpoint was
    // last atomically renamed into place is all the resume gets.
    let _ = child.kill();
    let _ = child.wait();

    let out = leaps(&[
        "train",
        "--benign",
        &benign,
        "--mixed",
        &mixed,
        "--seed",
        "13",
        "--out",
        killed.to_str().unwrap(),
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--checkpoint-every",
        "25",
        "--resume",
    ]);
    assert_success(&out, "resumed train after SIGKILL");
    let clean_bytes = std::fs::read(&clean).unwrap();
    let resumed_bytes = std::fs::read(&killed).unwrap();
    assert_eq!(clean_bytes, resumed_bytes, "post-kill model differs from the uninterrupted one");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_checkpoint_is_rejected_with_model_error() {
    let dir = scratch("foreign");
    let (benign, mixed) = gen_logs(&dir, "400", "11");
    let ckpt = dir.join("ckpt");
    let out_a = dir.join("a.model");
    // Pause a seed-11 run so a checkpoint lands on disk.
    let out = leaps(&[
        "train",
        "--benign",
        &benign,
        "--mixed",
        &mixed,
        "--seed",
        "11",
        "--out",
        out_a.to_str().unwrap(),
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--deadline-secs",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(8), "{}", String::from_utf8_lossy(&out.stderr));
    // Resuming with a different seed must be refused (exit 4, model
    // error), not silently blended into a wrong model.
    let out = leaps(&[
        "train",
        "--benign",
        &benign,
        "--mixed",
        &mixed,
        "--seed",
        "12",
        "--out",
        out_a.to_str().unwrap(),
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--resume",
    ]);
    assert_eq!(out.status.code(), Some(4), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fingerprint"), "diagnostic names the fingerprint: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_flags_require_checkpoint_dir() {
    let out = leaps(&["train", "--benign", "b", "--mixed", "m", "--out", "o", "--resume"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--checkpoint-dir"));
}

/// A stage checkpoint that cannot be written stops training with a
/// one-line I/O error (exit 6) and no model file: a directory squats on
/// the stage's checkpoint path, so the atomic rename onto it fails.
fn assert_unwritable_checkpoint(tag: &str, method: &str, stage_file: &str, extra: &[&str]) {
    let dir = scratch(tag);
    let (benign, mixed) = gen_logs(&dir, "400", "11");
    let ckpt = dir.join("ckpt");
    std::fs::create_dir_all(ckpt.join(stage_file)).unwrap();
    let model = dir.join("out.model");
    let mut args = vec![
        "train",
        "--benign",
        &benign,
        "--mixed",
        &mixed,
        "--method",
        method,
        "--seed",
        "11",
        "--out",
        model.to_str().unwrap(),
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let out = leaps(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(6), "{stage_file}: {stderr}");
    assert!(stderr.contains(stage_file), "the error names the checkpoint: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "one-line error: {stderr}");
    assert!(!model.exists(), "a failed checkpoint write must not leave a model");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_cv_checkpoint_is_an_io_error() {
    assert_unwritable_checkpoint("cv-io", "wsvm", "cv.ckpt", &[]);
}

#[test]
fn unwritable_smo_checkpoint_is_an_io_error() {
    assert_unwritable_checkpoint("smo-io", "wsvm", "smo.ckpt", &["--checkpoint-every", "1"]);
}

#[test]
fn unwritable_hmm_checkpoint_is_an_io_error() {
    assert_unwritable_checkpoint("hmm-io", "hmm", "hmm-mixed.ckpt", &[]);
}
