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
use std::process::ExitCode;

/// Builds the experiment configuration used by the harness binaries,
/// honouring the `LEAPS_*` environment overrides.
#[must_use]
pub fn harness_experiment() -> Experiment {
    let runs = env_usize("LEAPS_RUNS", 10);
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
/// environment variables.
#[must_use]
pub fn sweep_options_from_env() -> SweepOptions {
    SweepOptions {
        deadline_secs: std::env::var("LEAPS_DEADLINE_SECS").ok().and_then(|v| v.parse().ok()),
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

/// Reads a `usize` env var with a default.
#[must_use]
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Reads a `u64` env var with a default.
#[must_use]
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
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
