//! A model file that parses but makes no sense must be refused by
//! `leaps detect` as a one-line model error (exit 4), never a panic:
//! WSVM files with a bad kernel, HMM files whose probabilities or
//! alphabets make no sense. The same holds for training checkpoints
//! that parse but do not fit the run `leaps train --resume` continues.

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

/// Rewrites the values of checkpoint payload record `tag` with `edit`,
/// keeping the `progress` line equal to the count of CV scores.
fn edit_record(text: &str, tag: &str, edit: impl Fn(&mut Vec<String>)) -> String {
    let prefix = format!("p {tag} ");
    let record = text.lines().find_map(|l| l.strip_prefix(&prefix)).expect("payload record");
    let mut values: Vec<String> = record.split(' ').map(String::from).collect();
    edit(&mut values);
    let lines: Vec<String> = text
        .lines()
        .map(|l| {
            if l.starts_with(&prefix) {
                format!("{prefix}{}", values.join(" "))
            } else if l.starts_with("progress ") && tag == "scores" {
                format!("progress {}", values.len())
            } else {
                l.to_owned()
            }
        })
        .collect();
    lines.join("\n") + "\n"
}

#[test]
fn checkpoints_that_do_not_fit_the_run_are_model_errors_not_panics() {
    let dir = scratch("ckpt");
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
        "6",
    ]);
    assert!(out.status.success(), "gen: {}", stderr(&out));
    let (benign, mixed) = (s(&data.join("benign.log")), s(&data.join("mixed.log")));
    let (ckpt, model) = (dir.join("ckpt"), dir.join("out.model"));
    let train = |extra: &[&str]| {
        let mut args = vec!["train", "--benign", &benign, "--mixed", &mixed, "--seed", "6"];
        let (model, ckpt) = (s(&model), s(&ckpt));
        args.extend(["--out", &model, "--checkpoint-dir", &ckpt, "--checkpoint-every", "20"]);
        args.extend(extra);
        leaps(&args)
    };

    // An expired deadline pauses at every boundary: first after one CV
    // chunk, then after each further chunk, then inside the final SMO.
    let out = train(&["--deadline-secs", "0"]);
    assert_eq!(out.status.code(), Some(8), "{}", stderr(&out));
    let cv_partial = std::fs::read_to_string(ckpt.join("cv.ckpt")).unwrap();
    let mut smo = None;
    for _ in 0..20 {
        let out = train(&["--deadline-secs", "0", "--resume"]);
        assert_eq!(out.status.code(), Some(8), "{}", stderr(&out));
        if let Ok(text) = std::fs::read_to_string(ckpt.join("smo.ckpt")) {
            smo = Some(text);
            break;
        }
    }
    let smo = smo.expect("training paused inside the SMO solve");
    let cv_done = std::fs::read_to_string(ckpt.join("cv.ckpt")).unwrap();
    assert!(!model.exists());

    let cases = [
        // More scores than the 90 grid cells: this used to panic.
        (
            "cv.ckpt",
            edit_record(&cv_partial, "scores", |v| {
                *v = v.iter().cycle().take(100).cloned().collect()
            }),
            "grid only 90",
        ),
        // A score outside [0, 1]: this used to change the tuned (λ, σ²).
        ("cv.ckpt", edit_record(&cv_partial, "scores", |v| v[0] = "7.5".into()), "score 7.5"),
        // α and gradient shorter than the training set: this used to panic.
        (
            "smo.ckpt",
            edit_record(&edit_record(&smo, "alpha", |v| drop(v.pop())), "grad", |v| drop(v.pop())),
            "alpha length mismatch",
        ),
        // α NaN or far outside its box: this used to write another model.
        ("smo.ckpt", edit_record(&smo, "alpha", |v| v[0] = "NaN".into()), "alpha 0 = NaN"),
        ("smo.ckpt", edit_record(&smo, "alpha", |v| v[1] = "1e300".into()), "alpha 1 = 1e300"),
    ];
    for (file, text, needle) in cases {
        let (cv, smo) = if file == "cv.ckpt" { (&text, None) } else { (&cv_done, Some(&text)) };
        std::fs::write(ckpt.join("cv.ckpt"), cv).unwrap();
        let _ = std::fs::remove_file(ckpt.join("smo.ckpt"));
        if let Some(smo) = smo {
            std::fs::write(ckpt.join("smo.ckpt"), smo).unwrap();
        }
        let out = train(&["--resume"]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(4), "{needle}: {err}");
        assert!(err.contains(needle) && err.contains(file), "{needle}: {err}");
        assert!(!err.contains("panicked"), "{err}");
        assert_eq!(err.trim_end().lines().count(), 1, "one-line error: {err}");
        assert!(!model.exists(), "{needle}: a refused checkpoint wrote a model");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hmm_checkpoints_that_do_not_fit_the_run_are_model_errors_not_panics() {
    let dir = scratch("hmm-ckpt");
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
        "6",
    ]);
    assert!(out.status.success(), "gen: {}", stderr(&out));
    let (benign, mixed) = (s(&data.join("benign.log")), s(&data.join("mixed.log")));
    let (ckpt, model) = (dir.join("ckpt"), dir.join("out.model"));
    let train = |extra: &[&str]| {
        let mut args = vec!["train", "--benign", &benign, "--mixed", &mixed, "--seed", "6"];
        let (model, ckpt) = (s(&model), s(&ckpt));
        args.extend(["--method", "hmm", "--out", &model, "--checkpoint-dir", &ckpt]);
        args.extend(extra);
        leaps(&args)
    };
    // An expired deadline pauses after the first Baum–Welch iteration.
    let out = train(&["--deadline-secs", "0"]);
    assert_eq!(out.status.code(), Some(8), "{}", stderr(&out));
    let file = "hmm-benign.ckpt";
    let good = std::fs::read_to_string(ckpt.join(file)).unwrap();
    let dims = good.lines().find_map(|l| l.strip_prefix("p dims ")).expect("dims record");
    let (states, symbols) = dims.split_once(' ').unwrap();
    let states: usize = states.parse().unwrap();
    let symbols: usize = symbols.parse().unwrap();

    let cases = [
        // One symbol fewer than the run's alphabet, B shrunk to match:
        // this used to panic on the resume dimension asserts.
        (
            edit_record(
                &edit_record(&good, "dims", |v| v[1] = (symbols - 1).to_string()),
                "b",
                |v| v.truncate(states * (symbols - 1)),
            ),
            "symbols",
        ),
        // π NaN or a row summing to 0.5: these used to resume silently.
        (edit_record(&good, "pi", |v| v[0] = "NaN".into()), "pi holds NaN"),
        (
            edit_record(&good, "pi", |v| {
                for x in v.iter_mut() {
                    *x = format!("{:?}", x.parse::<f64>().unwrap() / 2.0);
                }
            }),
            "pi row 0 sums to 0.5",
        ),
    ];
    for (text, needle) in cases {
        std::fs::write(ckpt.join(file), text).unwrap();
        let out = train(&["--resume"]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(4), "{needle}: {err}");
        assert!(err.contains(needle) && err.contains(file), "{needle}: {err}");
        assert!(!err.contains("panicked"), "{err}");
        assert_eq!(err.trim_end().lines().count(), 1, "one-line error: {err}");
        assert!(!model.exists(), "{needle}: a refused checkpoint wrote a model");
    }
    // The untouched checkpoint still resumes to a model.
    std::fs::write(ckpt.join(file), good).unwrap();
    let out = train(&["--resume"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(model.exists());
    let _ = std::fs::remove_dir_all(&dir);
}
