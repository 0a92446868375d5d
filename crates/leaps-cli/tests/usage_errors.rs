//! Bad command-line values are usage errors (exit 2) with a one-line
//! diagnostic ahead of the usage text, never a panic.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_leaps");

#[test]
fn eval_with_zero_runs_is_a_usage_error() {
    let out = Command::new(BIN)
        .args(["eval", "--scenario", "vim_reverse_tcp", "--runs", "0"])
        .output()
        .expect("spawning the leaps binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(stderr.lines().next(), Some("error: --runs must be >= 1"), "{stderr}");
    assert_eq!(stderr.lines().filter(|l| l.starts_with("error:")).count(), 1, "{stderr}");
}
