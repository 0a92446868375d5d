//! A model file that parses but makes no sense must be refused by
//! `leaps detect` as a one-line model error (exit 4), never a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_leaps");

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("leaps-model-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn leaps(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("spawning the leaps binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn invalid_gaussian_radius_is_a_model_error_not_a_panic() {
    let dir = scratch("sigma2");
    let data = dir.join("data");
    let s = |p: &PathBuf| p.to_str().unwrap().to_owned();
    let out = leaps(&[
        "gen",
        "--scenario",
        "vim_reverse_tcp",
        "--out",
        &s(&data),
        "--events",
        "400",
        "--seed",
        "4",
    ]);
    assert!(out.status.success(), "gen: {}", stderr(&out));
    let model = dir.join("good.model");
    let out = leaps(&[
        "train",
        "--benign",
        &s(&data.join("benign.log")),
        "--mixed",
        &s(&data.join("mixed.log")),
        "--out",
        &s(&model),
        "--seed",
        "4",
    ]);
    assert!(out.status.success(), "train: {}", stderr(&out));
    let text = std::fs::read_to_string(&model).unwrap();
    let kernel = text.lines().find(|l| l.starts_with("kernel gaussian ")).expect("WSVM kernel");
    let target = s(&data.join("malicious.log"));

    let out = leaps(&["detect", "--target", &target, "--model", &s(&model)]);
    assert!(out.status.success(), "the unedited model detects: {}", stderr(&out));

    for sigma2 in ["NaN", "0.0", "-1.0"] {
        let bad = dir.join(format!("bad-{sigma2}.model"));
        std::fs::write(&bad, text.replace(kernel, &format!("kernel gaussian {sigma2}"))).unwrap();
        let out = leaps(&["detect", "--target", &target, "--model", &s(&bad)]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(4), "sigma2 {sigma2}: {err}");
        assert!(err.contains("sigma2") && err.contains(bad.to_str().unwrap()), "{err}");
        assert!(!err.contains("panicked"), "{err}");
        assert_eq!(err.trim_end().lines().count(), 1, "one-line error: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
