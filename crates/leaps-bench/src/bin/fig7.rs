//! Regenerates **Figure 7**: CGraph vs SVM vs WSVM on the five measures,
//! for every online-injection dataset.
//!
//! ```text
//! cargo run -p leaps-bench --release --bin fig7
//! ```
//!
//! Runs as a supervised sweep: honours `LEAPS_DEADLINE_SECS`,
//! `LEAPS_SWEEP_MANIFEST`, `LEAPS_RESUME` and `LEAPS_CHAOS_CELL`; failed
//! cells are reported in place and the rest of the figure still renders.

use leaps::etw::scenario::Scenario;
use std::process::ExitCode;

fn main() -> ExitCode {
    leaps_bench::method_figure(
        "FIGURE 7: LEAPS (WSVM) vs System-level Call Graph and SVM — Online Injection",
        &Scenario::online(),
    )
}
