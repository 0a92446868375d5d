//! Regenerates **Figure 2**: hierarchical clustering discretizing one
//! system event into its `{Event_Type, Lib, Func}` 3-tuple.
//!
//! Picks one `SysCallEnter` event from a WinSCP trace, shows its raw
//! system stack trace, the Lib/Func sets, and the discretized tuple the
//! trained encoder produces.
//!
//! ```text
//! cargo run -p leaps-bench --release --bin fig2_clustering
//! ```

use leaps::cluster::features::{FeatureEncoder, PreprocessConfig};
use leaps::core::dataset::Dataset;
use leaps::etw::event::EventType;
use leaps::etw::scenario::{GenParams, Scenario};
use leaps::trace::partition::PartitionedEvent;
use leaps_bench::env_u64;

fn main() {
    leaps_bench::check_threads_env();
    let seed = env_u64("LEAPS_SEED", 0x1ea5);
    let scenario = Scenario::by_name("winscp_reverse_tcp").expect("known dataset");
    let dataset = Dataset::materialize(scenario, &GenParams::small(), seed).expect("generation");

    let refs: Vec<&PartitionedEvent> = dataset.benign.iter().collect();
    let encoder = FeatureEncoder::fit(&refs, PreprocessConfig::default());

    let event = dataset
        .benign
        .iter()
        .find(|e| e.etype == EventType::SysCallEnter)
        .expect("a SysCallEnter event");

    println!("FIGURE 2: Hierarchical clustering of a system event");
    println!("Event @{} type={}", event.num, event.etype);
    println!("  system stack trace:");
    for frame in &event.system_stack {
        println!("    {frame}");
    }
    println!("  Lib set:  {:?}", event.lib_set());
    println!("  Func set: {:?}", event.func_set());
    let (etype, lib, func) = encoder.tuple(event);
    println!(
        "  clustering: {} lib clusters, {} func clusters",
        encoder.lib_cluster_count(),
        encoder.func_cluster_count()
    );
    println!("  => 3-tuple {{Event_Type={etype}, Lib={lib}, Func={func}}}");
    println!("     (paper Fig. 2 shows e.g. Event_Num @107 -> Event_Type 7, Lib 2, Func 40)");
}
