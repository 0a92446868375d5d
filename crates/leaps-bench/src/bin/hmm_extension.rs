//! The Section VI-B extension experiment: how does an HMM sequence model
//! (the learning technique the paper proposes to explore next) compare
//! with the paper's three methods on representative datasets?
//!
//! The HMM is trained like the SVM baseline — benign model vs noisy
//! mixed model — so it inherits the same noisy-negative handicap; the
//! question is whether modeling event *order* buys anything without CFG
//! guidance.
//!
//! ```text
//! cargo run -p leaps-bench --release --bin hmm_extension
//! ```

use leaps::core::pipeline::Method;
use leaps::etw::scenario::Scenario;
use leaps_bench::{fmt3, harness_experiment};

const DATASETS: [&str; 4] =
    ["winscp_reverse_tcp", "vim_codeinject", "putty_reverse_https_online", "chrome_reverse_tcp"];

fn main() {
    leaps_bench::check_threads_env();
    let experiment = harness_experiment();
    println!(
        "HMM EXTENSION (Section VI-B, {} runs, {} events/log)",
        experiment.runs, experiment.gen.benign_events
    );
    println!(
        "{:<30} {:<8} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "Dataset", "Method", "ACC", "PPV", "TPR", "TNR", "NPV"
    );
    for name in DATASETS {
        let scenario = Scenario::by_name(name).expect("known dataset");
        for method in Method::EXTENDED {
            let m = experiment.run(scenario, method).expect("experiment");
            println!(
                "{:<30} {:<8} {:>6} {:>6} {:>6} {:>6} {:>6}",
                name,
                method.label(),
                fmt3(m.acc),
                fmt3(m.ppv),
                fmt3(m.tpr),
                fmt3(m.tnr),
                fmt3(m.npv),
            );
        }
        println!();
    }
}
