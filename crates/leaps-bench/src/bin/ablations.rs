//! Ablation studies for the design choices called out in DESIGN.md §5:
//!
//! * **coalescing window** — 1/5/10/20 events per data point (the paper
//!   fixes 10);
//! * **linkage criterion** — UPGMA (paper) vs single vs complete;
//! * **weight polarity** — maliciousness (`1 − benignity`, the paper's
//!   intent) vs raw benignity;
//! * **density interpolation** — Algorithm 2's `ESTIMATE_WEIGHT` on vs
//!   hard 0/1 edge scores.
//!
//! Each ablation reports WSVM accuracy on a representative scenario.
//!
//! ```text
//! cargo run -p leaps-bench --release --bin ablations
//! ```
//!
//! Env overrides: `LEAPS_RUNS` (default 3 here), `LEAPS_SEED`,
//! `LEAPS_EVENTS`, `LEAPS_SCENARIO`.

use leaps::cfg::weight::WeightConfig;
use leaps::cluster::hier::Linkage;
use leaps::core::config::WeightPolarity;
use leaps::core::experiment::Experiment;
use leaps::core::pipeline::Method;
use leaps::etw::scenario::Scenario;
use leaps_bench::{fmt3, harness_experiment};

fn main() {
    leaps_bench::check_threads_env();
    let scenario_name =
        std::env::var("LEAPS_SCENARIO").unwrap_or_else(|_| "winscp_reverse_tcp".into());
    let Some(scenario) = Scenario::by_name(&scenario_name) else {
        eprintln!("error: LEAPS_SCENARIO={scenario_name:?} is not a known dataset");
        std::process::exit(2);
    };
    let mut base = harness_experiment();
    // `harness_experiment` has checked any `LEAPS_RUNS`; unset, the
    // ablations default to 3 runs.
    if std::env::var_os("LEAPS_RUNS").is_none() {
        base.runs = 3;
    }
    println!(
        "ABLATIONS on {scenario_name} (WSVM, {} runs, {} events/log)\n",
        base.runs, base.gen.benign_events
    );

    let run = |label: &str, exp: &Experiment| {
        let m = exp.run(scenario, Method::Wsvm).expect("experiment");
        println!("  {label:<34} ACC={} TPR={} TNR={}", fmt3(m.acc), fmt3(m.tpr), fmt3(m.tnr));
    };

    println!("Coalescing window (paper: 10):");
    for window in [1usize, 5, 10, 20] {
        let mut exp = base.clone();
        exp.pipeline.preprocess.window = window;
        run(&format!("window = {window}"), &exp);
    }

    println!("\nLinkage criterion (paper: UPGMA/average):");
    for (name, linkage) in [
        ("average (UPGMA)", Linkage::Average),
        ("single", Linkage::Single),
        ("complete", Linkage::Complete),
    ] {
        let mut exp = base.clone();
        exp.pipeline.preprocess.linkage = linkage;
        run(name, &exp);
    }

    println!("\nWeight polarity (paper intent: maliciousness = 1 - benignity):");
    for (name, polarity) in [
        ("maliciousness (default)", WeightPolarity::Maliciousness),
        ("benignity (inverted)", WeightPolarity::Benignity),
    ] {
        let mut exp = base.clone();
        exp.pipeline.weight_polarity = polarity;
        run(name, &exp);
    }

    println!("\nDensity-array interpolation (Algorithm 2):");
    for (name, enabled) in [("interpolated (default)", true), ("hard 0/1 scores", false)] {
        let mut exp = base.clone();
        exp.pipeline.weight = WeightConfig { density_estimation: enabled };
        run(name, &exp);
    }
}
