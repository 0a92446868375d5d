//! Regenerates **Table I**: the five effectiveness measures of the
//! CFG-guided Weighted SVM on all 21 camouflaged-attack datasets.
//!
//! ```text
//! cargo run -p leaps-bench --release --bin table1
//! ```
//!
//! Env overrides: `LEAPS_RUNS`, `LEAPS_SEED`, `LEAPS_EVENTS`, plus the
//! sweep supervision vars (`LEAPS_DEADLINE_SECS`, `LEAPS_SWEEP_MANIFEST`,
//! `LEAPS_RESUME`, `LEAPS_CHAOS_CELL`). A cell that errors, panics or
//! misses the deadline is reported in place; the rest of the table is
//! still produced (exit code 8/9 classifies the incident).

use leaps::core::pipeline::Method;
use leaps::etw::scenario::Scenario;
use leaps_bench::{cell_status, fmt3, harness_experiment, run_supervised_sweep, sweep_exit};
use std::process::ExitCode;

fn main() -> ExitCode {
    leaps_bench::check_threads_env();
    let experiment = harness_experiment();
    println!(
        "TABLE I: Evaluation Results of LEAPS on Camouflaged Attacks \
         (WSVM, {} runs, {} events/log)",
        experiment.runs, experiment.gen.benign_events
    );
    println!(
        "{:<32} {:<18} {:<12} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "Name", "Attack Method", "Application", "ACC", "PPV", "TPR", "TNR", "NPV"
    );
    let scenarios = Scenario::table1();
    let report = match run_supervised_sweep(&experiment, &scenarios, &[Method::Wsvm]) {
        Ok(report) => report,
        Err(code) => return code,
    };
    for (scenario, cell) in scenarios.iter().zip(&report.cells) {
        match cell.outcome.metrics() {
            Some(m) => println!(
                "{:<32} {:<18} {:<12} {:>6} {:>6} {:>6} {:>6} {:>6}",
                scenario.name(),
                scenario.method.label(),
                scenario.app.name(),
                fmt3(m.acc),
                fmt3(m.ppv),
                fmt3(m.tpr),
                fmt3(m.tnr),
                fmt3(m.npv),
            ),
            None => println!(
                "{:<32} {:<18} {:<12} {}",
                scenario.name(),
                scenario.method.label(),
                scenario.app.name(),
                cell_status(&cell.outcome)
            ),
        }
    }
    sweep_exit(&report)
}
