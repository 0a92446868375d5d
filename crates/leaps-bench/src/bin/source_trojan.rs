//! The Section VI-A experiment the paper proposes as future work:
//! **source-level trojans**, where the payload is woven into the
//! application source and the binary recompiled, shuffling every
//! function's address.
//!
//! Compares, per source-trojan dataset:
//!
//! * plain SVM (no CFG guidance);
//! * WSVM with the published address-space Algorithm 2 (expected to
//!   degrade: the benign CFG oracle no longer matches the trojaned
//!   binary's addresses);
//! * WSVM with structural **CFG alignment** (`leaps-cfg::align`), the
//!   paper's proposed fix.
//!
//! ```text
//! cargo run -p leaps-bench --release --bin source_trojan
//! ```

use leaps::core::config::WeightMode;
use leaps::core::pipeline::Method;
use leaps::etw::scenario::Scenario;
use leaps_bench::{fmt3, harness_experiment};

fn main() {
    leaps_bench::check_threads_env();
    let base = harness_experiment();
    println!(
        "SOURCE-LEVEL TROJANS (Section VI-A extension, {} runs, {} events/log)",
        base.runs, base.gen.benign_events
    );
    println!("{:<30} {:<22} {:>6} {:>6} {:>6}", "Dataset", "Method", "ACC", "TPR", "TNR");
    for scenario in Scenario::source_trojans() {
        let svm = base.run(scenario, Method::Svm).expect("experiment");
        let mut address = base.clone();
        address.pipeline.weight_mode = WeightMode::AddressSpace;
        let wsvm_address = address.run(scenario, Method::Wsvm).expect("experiment");
        let mut aligned = base.clone();
        aligned.pipeline.weight_mode = WeightMode::Aligned;
        let wsvm_aligned = aligned.run(scenario, Method::Wsvm).expect("experiment");

        for (label, m) in [
            ("SVM", svm),
            ("WSVM (address-space)", wsvm_address),
            ("WSVM (aligned CFGs)", wsvm_aligned),
        ] {
            println!(
                "{:<30} {:<22} {:>6} {:>6} {:>6}",
                scenario.name(),
                label,
                fmt3(m.acc),
                fmt3(m.tpr),
                fmt3(m.tnr),
            );
        }
        println!();
    }
}
