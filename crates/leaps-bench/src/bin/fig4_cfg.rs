//! Regenerates **Figure 4**: the benign CFG of Vim vs the mixed CFG of a
//! trojaned Vim (Reverse TCP shell payload), with the anomalous payload
//! subgraph highlighted.
//!
//! Writes `fig4_vim_benign.dot` and `fig4_vim_mixed.dot` to the current
//! directory (render with `dot -Tsvg`), and prints overlap statistics.
//!
//! ```text
//! cargo run -p leaps-bench --release --bin fig4_cfg
//! ```

use leaps::cfg::compare::overlap;
use leaps::cfg::dot::to_dot;
use leaps::cfg::infer::infer_cfg;
use leaps::core::dataset::Dataset;
use leaps::etw::scenario::{GenParams, Scenario};
use leaps_bench::{env_u64, env_usize};

fn main() {
    leaps_bench::check_threads_env();
    let seed = env_u64("LEAPS_SEED", 0x1ea5);
    let events = env_usize("LEAPS_EVENTS", 1200);
    let scenario = Scenario::by_name("vim_reverse_tcp").expect("known dataset");
    let params = GenParams {
        benign_events: events,
        mixed_events: events,
        malicious_events: events / 2,
        benign_ratio: 0.5,
    };
    let dataset = Dataset::materialize(scenario, &params, seed).expect("generation");

    let benign = infer_cfg(&dataset.benign).cfg;
    let mixed = infer_cfg(&dataset.mixed).cfg;

    std::fs::write("fig4_vim_benign.dot", to_dot(&benign, "vim_benign_cfg", None))
        .expect("write benign dot");
    std::fs::write("fig4_vim_mixed.dot", to_dot(&mixed, "vim_mixed_cfg", Some(&benign)))
        .expect("write mixed dot");

    let stats = overlap(&benign, &mixed);
    println!("FIGURE 4: Vim benign CFG vs trojaned-Vim mixed CFG");
    println!("  benign CFG: {} nodes, {} edges", benign.node_count(), benign.edge_count());
    println!("  mixed CFG:  {} nodes, {} edges", mixed.node_count(), mixed.edge_count());
    println!(
        "  shared nodes: {}   mixed-only nodes (payload subgraph): {}",
        stats.shared_nodes, stats.mixed_only_nodes
    );
    println!(
        "  shared edges: {}   mixed-only edges: {}",
        stats.shared_edges, stats.mixed_only_edges
    );
    println!("  wrote fig4_vim_benign.dot, fig4_vim_mixed.dot (red = anomalous subgraph)");
}
