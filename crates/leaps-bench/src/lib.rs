//! Shared helpers for the LEAPS evaluation harness binaries and benches.
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper's evaluation (see DESIGN.md §4 for the experiment index):
//!
//! * `table1` — Table I (21 datasets × five measures, WSVM);
//! * `fig6` / `fig7` — Figures 6/7 (CGraph vs SVM vs WSVM per dataset);
//! * `case_studies` — the three Section V-C case studies;
//! * `fig4_cfg` — benign vs mixed CFG DOT dumps (Figure 4);
//! * `fig2_clustering` — the clustering example of Figure 2;
//! * `fig5_boundary` — SVM vs WSVM boundary illustration (Figure 5);
//! * `ablations` — design-choice ablations (coalescing window, linkage,
//!   weight polarity, density interpolation).
//!
//! Environment overrides honoured by the binaries:
//! `LEAPS_RUNS` (averaging runs, default 10), `LEAPS_SEED` (master seed),
//! `LEAPS_EVENTS` (events per log, default 6000 benign/mixed).
//!
//! The sweep binaries (`table1`, `fig6`, `fig7`, `case_studies`) run
//! under per-cell supervision ([`Experiment::run_sweep`]) and honour
//! four more: `LEAPS_DEADLINE_SECS` (wall-clock budget; remaining cells
//! are recorded as `deadline`, exit code 8), `LEAPS_SWEEP_MANIFEST`
//! (manifest path, rewritten atomically after every cell),
//! `LEAPS_RESUME=1` (skip cells the manifest records as ok) and
//! `LEAPS_CHAOS_CELL=scenario:METHOD` (fault injection: that cell's
//! first run panics — the harness must still finish the rest and exit 9).

pub mod chart;

use leaps::core::experiment::{CellOutcome, Experiment, SweepOptions, SweepReport};
use leaps::core::pipeline::Method;
use leaps::etw::scenario::{GenParams, Scenario};
use std::env::VarError;
use std::process::ExitCode;
use std::str::FromStr;

/// Builds the experiment configuration used by the harness binaries,
/// honouring the `LEAPS_*` environment overrides. A value that is set but
/// unparsable, or `LEAPS_RUNS=0`, ends the process with one `error:` line
/// and exit code 2.
#[must_use]
pub fn harness_experiment() -> Experiment {
    let runs = or_exit(parse_runs(std::env::var("LEAPS_RUNS"), 10));
    let seed = env_u64("LEAPS_SEED", 0x1ea5);
    let events = env_usize("LEAPS_EVENTS", 6000);
    Experiment {
        gen: GenParams {
            benign_events: events,
            mixed_events: events,
            malicious_events: events / 2,
            benign_ratio: 0.5,
        },
        runs,
        seed,
        ..Experiment::default()
    }
}

/// Builds the sweep supervision options from the `LEAPS_DEADLINE_SECS`,
/// `LEAPS_SWEEP_MANIFEST`, `LEAPS_RESUME` and `LEAPS_CHAOS_CELL`
/// environment variables. An unparsable `LEAPS_DEADLINE_SECS` ends the
/// process as [`env_usize`] does.
#[must_use]
pub fn sweep_options_from_env() -> SweepOptions {
    SweepOptions {
        deadline_secs: match std::env::var("LEAPS_DEADLINE_SECS") {
            Err(VarError::NotPresent) => None,
            value => Some(or_exit(parse_env("LEAPS_DEADLINE_SECS", value, 0))),
        },
        manifest: std::env::var("LEAPS_SWEEP_MANIFEST").ok().map(std::path::PathBuf::from),
        resume: env_flag("LEAPS_RESUME"),
        chaos_cell: std::env::var("LEAPS_CHAOS_CELL").ok(),
    }
}

/// Runs `scenarios × methods` under the environment's supervision
/// options ([`sweep_options_from_env`]) — the shared entry point of the
/// sweep binaries (`table1`, `fig6`, `fig7`, `case_studies`). A
/// harness-level failure (unwritable manifest, corrupt resume state,
/// ...) is printed as the binaries' common `error:` line and mapped to
/// the process exit code; per-cell failures land in the report instead
/// (see [`sweep_exit`]).
///
/// # Errors
///
/// The exit code to terminate with when the sweep itself could not run.
pub fn run_supervised_sweep(
    experiment: &Experiment,
    scenarios: &[Scenario],
    methods: &[Method],
) -> Result<SweepReport, ExitCode> {
    experiment.run_sweep(scenarios, methods, &sweep_options_from_env()).map_err(|e| {
        eprintln!("error: {e}");
        ExitCode::from(e.exit_code())
    })
}

/// Whether a boolean env var is set to a truthy value (`1`/`true`/`yes`).
#[must_use]
pub fn env_flag(name: &str) -> bool {
    std::env::var(name)
        .is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("yes"))
}

/// One-line status for a sweep cell that did not complete: the tag plus
/// the captured error/panic message.
#[must_use]
pub fn cell_status(outcome: &CellOutcome) -> String {
    match outcome {
        CellOutcome::Ok(_) => "ok".to_owned(),
        CellOutcome::Error(msg) => format!("ERROR: {msg}"),
        CellOutcome::Panicked(msg) => format!("PANICKED: {msg}"),
        CellOutcome::Deadline => "DEADLINE: not run (budget expired)".to_owned(),
    }
}

/// Prints the sweep summary to stderr and converts the report into the
/// process exit code: 0 all ok, 8 deadline-bounded, 9 failed cells.
#[must_use]
pub fn sweep_exit(report: &SweepReport) -> ExitCode {
    let (ok, errors, panics, deadlines) = report.counts();
    for cell in &report.cells {
        if !matches!(cell.outcome, CellOutcome::Ok(_)) {
            eprintln!(
                "sweep cell {}:{} -> {}",
                cell.scenario,
                cell.method.label(),
                cell_status(&cell.outcome)
            );
        }
    }
    eprintln!(
        "sweep: {} cells — {ok} ok, {errors} error, {panics} panicked, {deadlines} deadline",
        report.cells.len()
    );
    ExitCode::from(report.exit_code())
}

/// Renders Figure 6 or 7: every method on every dataset of `scenarios`
/// under [`run_supervised_sweep`], one row of the five measures per
/// cell (or its failure status), then a grouped ACC bar chart of the
/// datasets whose cells all completed. `title` heads the output, with
/// the run count appended.
#[must_use]
pub fn method_figure(title: &str, scenarios: &[Scenario]) -> ExitCode {
    let experiment = harness_experiment();
    println!("{title} ({} runs)", experiment.runs);
    println!(
        "{:<28} {:<8} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "Dataset", "Method", "ACC", "PPV", "TPR", "TNR", "NPV"
    );
    let report = match run_supervised_sweep(&experiment, scenarios, &Method::ALL) {
        Ok(report) => report,
        Err(code) => return code,
    };
    let mut acc_groups: Vec<(String, Vec<f64>)> = Vec::new();
    for (scenario, cells) in scenarios.iter().zip(report.cells.chunks(Method::ALL.len())) {
        // Chart only fully-completed dataset groups.
        if let Some(accs) =
            cells.iter().map(|c| c.outcome.metrics().map(|m| m.acc)).collect::<Option<Vec<f64>>>()
        {
            acc_groups.push((scenario.name(), accs));
        }
        for cell in cells {
            match cell.outcome.metrics() {
                Some(m) => println!(
                    "{:<28} {:<8} {:>6} {:>6} {:>6} {:>6} {:>6}",
                    cell.scenario,
                    cell.method.label(),
                    fmt3(m.acc),
                    fmt3(m.ppv),
                    fmt3(m.tpr),
                    fmt3(m.tnr),
                    fmt3(m.npv),
                ),
                None => println!(
                    "{:<28} {:<8} {}",
                    cell.scenario,
                    cell.method.label(),
                    cell_status(&cell.outcome)
                ),
            }
        }
        println!();
    }
    println!("{}", chart::grouped_bars("ACC", &acc_groups, &["CGraph", "SVM", "WSVM"]));
    sweep_exit(&report)
}

/// Refuses a set `LEAPS_THREADS` that is not a positive integer, as
/// [`env_usize`] refuses a bad value. Every harness binary calls it
/// first: the library would read such a value as the core count.
pub fn check_threads_env() {
    or_exit(leaps::core::par::env_threads());
}

/// Reads the env var `name` through `parse`, with a default; a value
/// `parse` refuses is refused as [`env_usize`] refuses one.
pub fn env_parsed<T>(name: &str, default: T, parse: impl FnOnce(&str) -> Result<T, String>) -> T {
    or_exit(parse_env_with(name, std::env::var(name), default, parse))
}

/// Reads a `usize` env var with a default. A value that is set but does
/// not parse ends the process with one `error:` line and exit code 2.
#[must_use]
pub fn env_usize(name: &str, default: usize) -> usize {
    or_exit(parse_env(name, std::env::var(name), default))
}

/// Reads a `u64` env var with a default, as [`env_usize`] does.
#[must_use]
pub fn env_u64(name: &str, default: u64) -> u64 {
    or_exit(parse_env(name, std::env::var(name), default))
}

/// The value, or the end of the process as a usage error: one `error:`
/// line and exit code 2.
fn or_exit<T>(value: Result<T, String>) -> T {
    value.unwrap_or_else(|message| {
        eprintln!("error: {message}");
        std::process::exit(2)
    })
}

/// Parses the value of the env var `name` as read by `std::env::var`:
/// `default` when unset, `parse`'s value when set, and an error message
/// when `parse` refuses it.
fn parse_env_with<T>(
    name: &str,
    value: Result<String, VarError>,
    default: T,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, String> {
    match value {
        Ok(text) => parse(&text).map_err(|why| format!("{name}={text:?} {why}")),
        Err(VarError::NotPresent) => Ok(default),
        Err(VarError::NotUnicode(text)) => Err(format!("{name}={text:?} is not valid UTF-8")),
    }
}

/// [`parse_env_with`] for an unsigned-integer env var.
fn parse_env<T: FromStr>(
    name: &str,
    value: Result<String, VarError>,
    default: T,
) -> Result<T, String> {
    parse_env_with(name, value, default, |text| {
        text.parse().map_err(|_| "is not a non-negative integer".to_owned())
    })
}

/// [`parse_env`] for `LEAPS_RUNS`, which must be at least 1.
fn parse_runs(value: Result<String, VarError>, default: usize) -> Result<usize, String> {
    match parse_env("LEAPS_RUNS", value, default)? {
        0 => Err("LEAPS_RUNS=0: need at least one run".to_owned()),
        runs => Ok(runs),
    }
}

/// Formats a metric value the way the paper's table does.
#[must_use]
pub fn fmt3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults_apply() {
        assert_eq!(env_usize("LEAPS_NO_SUCH_VAR", 7), 7);
        assert_eq!(env_u64("LEAPS_NO_SUCH_VAR", 9), 9);
    }

    #[test]
    fn env_values_parse_or_name_the_fault() {
        let set = |text: &str| Ok(text.to_owned());
        assert_eq!(parse_env("LEAPS_SEED", set("42"), 9u64), Ok(42));
        assert_eq!(parse_env("LEAPS_SEED", Err(VarError::NotPresent), 9u64), Ok(9));
        let bad = parse_env("LEAPS_EVENTS", set("ten"), 7usize).unwrap_err();
        assert!(bad.contains("LEAPS_EVENTS") && bad.contains("\"ten\""), "{bad}");
        assert!(parse_env("LEAPS_EVENTS", set(""), 7usize).is_err());
        assert!(parse_env("LEAPS_EVENTS", set("-1"), 7usize).is_err());
        let not_utf8 = Err(VarError::NotUnicode(std::ffi::OsString::new()));
        assert!(parse_env("LEAPS_SEED", not_utf8, 9u64).is_err());

        assert_eq!(parse_runs(set("3"), 10), Ok(3));
        assert_eq!(parse_runs(Err(VarError::NotPresent), 10), Ok(10));
        assert!(parse_runs(set("0"), 10).unwrap_err().contains("LEAPS_RUNS"));
        assert!(parse_runs(set("ten"), 10).unwrap_err().contains("\"ten\""));

        let even = |text: &str| match text.parse::<u32>() {
            Ok(n) if n % 2 == 0 => Ok(n),
            _ => Err("is not even".to_owned()),
        };
        assert_eq!(parse_env_with("LEAPS_N", set("4"), 2, even), Ok(4));
        assert_eq!(parse_env_with("LEAPS_N", Err(VarError::NotPresent), 2, even), Ok(2));
        assert_eq!(
            parse_env_with("LEAPS_N", set("3"), 2, even),
            Err("LEAPS_N=\"3\" is not even".to_owned())
        );
    }

    #[test]
    fn fmt3_rounds() {
        assert_eq!(fmt3(0.9321), "0.932");
    }

    #[test]
    fn harness_experiment_has_paper_defaults() {
        // (Assumes the LEAPS_* vars are unset in the test environment.)
        let e = harness_experiment();
        assert!(e.runs >= 1);
        assert!(e.gen.benign_events >= 100);
    }

    #[test]
    fn sweep_options_default_to_unsupervised() {
        // (Assumes the LEAPS_* vars are unset in the test environment.)
        let o = sweep_options_from_env();
        assert_eq!(o.deadline_secs, None);
        assert_eq!(o.manifest, None);
        assert!(!o.resume);
        assert_eq!(o.chaos_cell, None);
        assert!(!env_flag("LEAPS_NO_SUCH_VAR"));
    }

    #[test]
    fn cell_status_captures_messages() {
        assert_eq!(cell_status(&CellOutcome::Error("boom".into())), "ERROR: boom");
        assert!(cell_status(&CellOutcome::Deadline).starts_with("DEADLINE"));
    }
}
