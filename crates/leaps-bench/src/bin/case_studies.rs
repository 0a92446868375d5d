//! Regenerates the three **Section V-C case studies**:
//!
//! * Case I — `winscp_reverse_tcp` (offline infection via Metasploit
//!   Meterpreter, shikata_ga_nai-encoded, embedded in WinSCP);
//! * Case II — `vim_codeinject` (password dialog injected into Vim's PE);
//! * Case III — `putty_reverse_https_online` (Meterpreter injected into a
//!   running Putty via `post/windows/manage/payload_inject`).
//!
//! For each, the paper reports how the five measures climb from the
//! call-graph model through plain SVM to the CFG-guided Weighted SVM.
//!
//! ```text
//! cargo run -p leaps-bench --release --bin case_studies
//! ```
//!
//! Runs as a supervised sweep: honours `LEAPS_DEADLINE_SECS`,
//! `LEAPS_SWEEP_MANIFEST`, `LEAPS_RESUME` and `LEAPS_CHAOS_CELL`; a
//! failed cell is reported in place of its metrics row.

use leaps::core::pipeline::Method;
use leaps::etw::scenario::Scenario;
use leaps_bench::{cell_status, fmt3, harness_experiment, run_supervised_sweep, sweep_exit};
use std::process::ExitCode;

const CASES: [(&str, &str); 3] = [
    ("Case Study I", "winscp_reverse_tcp"),
    ("Case Study II", "vim_codeinject"),
    ("Case Study III", "putty_reverse_https_online"),
];

fn main() -> ExitCode {
    leaps_bench::check_threads_env();
    let experiment = harness_experiment();
    let scenarios: Vec<Scenario> =
        CASES.iter().map(|(_, name)| Scenario::by_name(name).expect("known dataset")).collect();
    let report = match run_supervised_sweep(&experiment, &scenarios, &Method::ALL) {
        Ok(report) => report,
        Err(code) => return code,
    };
    for ((title, name), cells) in CASES.iter().zip(report.cells.chunks(Method::ALL.len())) {
        println!("{title} — {name} ({} runs)", experiment.runs);
        println!(
            "  {:<8} {:>6} {:>6} {:>6} {:>6} {:>6}",
            "Method", "ACC", "PPV", "TPR", "TNR", "NPV"
        );
        for cell in cells {
            match cell.outcome.metrics() {
                Some(m) => println!(
                    "  {:<8} {:>6} {:>6} {:>6} {:>6} {:>6}",
                    cell.method.label(),
                    fmt3(m.acc),
                    fmt3(m.ppv),
                    fmt3(m.tpr),
                    fmt3(m.tnr),
                    fmt3(m.npv),
                ),
                None => {
                    println!("  {:<8} {}", cell.method.label(), cell_status(&cell.outcome));
                }
            }
        }
        println!();
    }
    sweep_exit(&report)
}
