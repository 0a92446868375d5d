//! A model file that parses but makes no sense must be refused by
//! `leaps detect` as a one-line model error (exit 4), never a panic:
//! WSVM files with a bad kernel, HMM files whose probabilities or
//! alphabets make no sense.

use std::path::{Path, PathBuf};
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
        assert_refused(&bad, &target, "sigma2");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The edited model must be refused by `leaps detect` with exit 4 and a
/// one-line error naming the file and containing `needle`.
fn assert_refused(bad: &Path, target: &str, needle: &str) {
    let out = leaps(&["detect", "--target", target, "--model", bad.to_str().unwrap()]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(4), "{needle}: {err}");
    assert!(err.contains(needle) && err.contains(bad.to_str().unwrap()), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert_eq!(err.trim_end().lines().count(), 1, "one-line error: {err}");
}

#[test]
fn invalid_hmm_models_are_model_errors_not_panics() {
    let dir = scratch("hmm");
    let data = dir.join("data");
    let s = |p: &PathBuf| p.to_str().unwrap().to_owned();
    let out = leaps(&[
        "gen",
        "--scenario",
        "vim_reverse_tcp",
        "--out",
        &s(&data),
        "--events",
        "600",
        "--seed",
        "5",
    ]);
    assert!(out.status.success(), "gen: {}", stderr(&out));
    let model = dir.join("good.model");
    let out = leaps(&[
        "train",
        "--benign",
        &s(&data.join("benign.log")),
        "--mixed",
        &s(&data.join("mixed.log")),
        "--method",
        "hmm",
        "--out",
        &s(&model),
        "--seed",
        "5",
    ]);
    assert!(out.status.success(), "train: {}", stderr(&out));
    let text = std::fs::read_to_string(&model).unwrap();
    let target = s(&data.join("malicious.log"));
    let out = leaps(&["detect", "--target", &target, "--model", &s(&model)]);
    assert!(out.status.success(), "the unedited model detects: {}", stderr(&out));

    // π made NaN: it used to load and score every window -inf.
    let nan = dir.join("nan.model");
    let mut edited = false;
    let lines: Vec<String> = text
        .lines()
        .map(|l| match l.strip_prefix("pi ") {
            Some(rest) if !edited => {
                edited = true;
                let tail = rest.split_once(' ').map_or("", |(_, tail)| tail);
                format!("pi NaN {tail}")
            }
            _ => l.to_owned(),
        })
        .collect();
    std::fs::write(&nan, lines.join("\n")).unwrap();
    assert_refused(&nan, &target, "not a probability");

    // Both alphabets shrunk below the symbol table, B rows trimmed and
    // renormalised: it used to load and panic on the first unseen id.
    let shrunk = dir.join("shrunk.model");
    let keep = 300;
    let mut width = None;
    let lines: Vec<String> = text
        .lines()
        .map(|l| {
            let tag = ["benign_hmm ", "mixed_hmm "].into_iter().find(|t| l.starts_with(t));
            if let Some(tag) = tag {
                let dims: Vec<usize> =
                    l[tag.len()..].split(' ').map(|t| t.parse().unwrap()).collect();
                assert!(dims[1] > keep, "the table must outgrow the shrunk alphabet");
                width = Some(dims[1]);
                format!("{tag}{} {keep}", dims[0])
            } else if let Some(rest) = l.strip_prefix("b ").filter(|_| width.is_some()) {
                let b: Vec<f64> = rest.split(' ').map(|t| t.parse().unwrap()).collect();
                let rows: Vec<String> = b
                    .chunks(width.take().unwrap())
                    .flat_map(|row| {
                        let sum: f64 = row[..keep].iter().sum();
                        row[..keep].iter().map(move |v| format!("{:?}", v / sum))
                    })
                    .collect();
                format!("b {}", rows.join(" "))
            } else {
                l.to_owned()
            }
        })
        .collect();
    std::fs::write(&shrunk, lines.join("\n")).unwrap();
    assert_refused(&shrunk, &target, "symbol-table ids");
    let _ = std::fs::remove_dir_all(&dir);
}
