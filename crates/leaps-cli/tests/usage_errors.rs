//! Bad command-line values are usage errors (exit 2) with a one-line
//! diagnostic ahead of the usage text, never a panic. A bad
//! `LEAPS_THREADS` is refused the same way, without the usage text.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_leaps");

/// Runs the binary and checks the usage-error shape: exit 2, no panic,
/// and exactly one `error:` line, which is stderr's first. Returns
/// stderr.
fn usage_error(out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(stderr.lines().filter(|l| l.starts_with("error:")).count(), 1, "{stderr}");
    stderr
}

#[test]
fn eval_with_zero_runs_is_a_usage_error() {
    let out = Command::new(BIN)
        .args(["eval", "--scenario", "vim_reverse_tcp", "--runs", "0"])
        .output()
        .expect("spawning the leaps binary");
    let stderr = usage_error(&out);
    assert_eq!(stderr.lines().next(), Some("error: --runs must be >= 1"), "{stderr}");
}

#[test]
fn unknown_method_is_a_usage_error() {
    let out = Command::new(BIN)
        .args(["eval", "--scenario", "vim_reverse_tcp", "--method", "knn"])
        .output()
        .expect("spawning the leaps binary");
    let stderr = usage_error(&out);
    assert_eq!(
        stderr.lines().next(),
        Some("error: unknown method \"knn\" (cgraph|svm|wsvm|hmm)"),
        "{stderr}"
    );
}

#[test]
fn bad_thread_counts_are_refused_in_one_line() {
    for bad in ["abc", "0", ""] {
        let out = Command::new(BIN)
            .arg("list")
            .env("LEAPS_THREADS", bad)
            .output()
            .expect("spawning the leaps binary");
        let stderr = usage_error(&out);
        assert_eq!(
            stderr,
            format!("error: LEAPS_THREADS={bad:?} is not a positive integer\n"),
            "{bad:?}"
        );
        assert!(out.stdout.is_empty(), "{bad:?}");
    }
}
