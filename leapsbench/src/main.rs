//! LEAPS benchmark: offline WSVM training and the `leaps serve`
//! detection daemon under closed- and open-loop load.
//!
//! ```text
//! leapsbench --daemon <path to leaps> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `train` and `serve-wsvm` (see README.md). With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics
//! of a separate traced run, and the spans are written to
//! `.bench_out/<workload>-seed<n>.spans.jsonl`.

mod detector;
mod metrics_wire;
mod procfs;
mod report;
mod sched;
mod serve;
mod stats;
mod tally;
mod train;

use report::{Report, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The application every workload trains and serves.
pub const SCENARIO: &str = "vim_reverse_tcp";

/// Scratch space of the running benchmark, relative to the checkout.
const RUN_DIR: &str = ".bench_run";
/// Where traced runs leave their spans.
const OUT_DIR: &str = ".bench_out";

/// Per-layer metrics and their units, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.parse_s", "s"),
    ("cluster.fit_s", "s"),
    ("cluster.encode_seq_s", "s"),
    ("cluster.encode_us", "us"),
    ("cfg.infer_s", "s"),
    ("cfg.weights_s", "s"),
    ("svm.cv_s", "s"),
    ("svm.cv_fits", "count"),
    ("svm.smo_s", "s"),
    ("svm.support_vectors", "count"),
    ("svm.decision_us", "us"),
    ("hmm.score_us", "us"),
    ("hmm.window_us", "us"),
    ("cgraph.classify_us", "us"),
    ("core.push_us", "us"),
    ("core.save_s", "s"),
    ("core.load_s", "s"),
    ("core.model_bytes", "bytes"),
    ("serve.wire_us", "us"),
    ("serve.ack_rtt_us_p50", "us"),
    ("serve.proto_event_us_p50", "us"),
    ("serve.inproc_verdict_p50_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.verdicts", "count"),
    ("registry.loads", "count"),
    ("registry.hits", "count"),
    ("registry.hit_ratio", "ratio"),
    ("pool.jobs", "count"),
    ("pool.jobs_per_event", "ratio"),
    ("loadgen.late_ms_p90", "ms"),
    ("loadgen.latency_samples", "count"),
    ("train.stage_sum_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// End-to-end metrics and their units, in report order; every workload
/// reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("train_s", "s"),
    ("events_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Adds the end-to-end metrics, valued in [`END_TO_END`] order.
pub fn end_to_end(report: &mut Report, values: [f64; 6]) {
    for (&(name, unit), value) in END_TO_END.iter().zip(values) {
        report.metric(name, value, unit);
    }
}

/// Seed of the `k`-th input set of a run. Runs measure several input
/// sets each, so a run's medians do not hang on one dataset; distinct
/// `--seed` values never share an input set.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k as u64)
}

/// Per-layer values of one traced run; a layer the workload never
/// calls reports zero.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.0.insert(name, value);
    }

    pub fn emit(&self, report: &mut Report) {
        for &(name, unit) in PER_LAYER {
            report.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

#[derive(Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// The `leaps` binary to run as the daemon.
    pub daemon: PathBuf,
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == flag).ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1).map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let seconds: u64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Opts {
        workload: get("--workload")?.to_owned(),
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace,
        daemon: PathBuf::from(get("--daemon")?),
    })
}

/// A private scratch directory under [`RUN_DIR`], removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(opts: &Opts) -> Result<WorkDir, String> {
        let dir = PathBuf::from(RUN_DIR).join(format!("{}-{}", opts.workload, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(RUN_DIR);
    }
}

/// Writes the spans of a traced run; a failure to write them is
/// reported but does not fail the run.
pub fn write_trace(opts: &Opts, tracer: &Tracer) {
    let path =
        PathBuf::from(OUT_DIR).join(format!("{}-seed{}.spans.jsonl", opts.workload, opts.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("spans: {} written to {}", tracer.spans.len(), path.display()),
        Err(e) => eprintln!("writing {}: {e}", path.display()),
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("leapsbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    leaps::core::par::set_thread_override(Some(nproc));
    println!(
        "leapsbench: workload={} seed={} seconds={} trace={} nproc={nproc}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let result = match opts.workload.as_str() {
        "train" => train::run(&opts),
        "serve-wsvm" => serve::run(&opts),
        other => Err(format!("unknown workload {other:?}")),
    };
    match result {
        Ok(report) => {
            print!("{}", report.describe());
            println!("{}", report.to_json());
        }
        Err(e) => {
            eprintln!("leapsbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must declare every per-layer metric this program
    /// reports, with the same unit, and every end-to-end one.
    #[test]
    fn benchmark_json_declares_the_reported_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in PER_LAYER {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "{name} ({unit}) missing from BENCHMARK.json");
        }
        assert_eq!(compact.matches("\"better\"").count(), PER_LAYER.len() + END_TO_END.len());
        for (name, unit) in END_TO_END {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "{name} ({unit}) missing from BENCHMARK.json");
        }
    }

    #[test]
    fn sub_seeds_of_distinct_seeds_do_not_meet() {
        let a: Vec<u64> = (0..2000).map(|k| sub_seed(1, k)).collect();
        let b: Vec<u64> = (0..2000).map(|k| sub_seed(2, k)).collect();
        assert!(a.iter().all(|x| !b.contains(x)));
    }
}
