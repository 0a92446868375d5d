//! Robustness matrix: accuracy of the detection pipeline versus injected
//! telemetry-fault rate, per fault class.
//!
//! For every (fault class, rate) cell the harness generates a scenario's
//! raw logs, damages the training *and* production logs with
//! `leaps-faults`, recovers them with the lenient parser, trains with
//! `try_train_classifier` (recording graceful failures instead of
//! crashing) and stream-detects over a faulted benign log and a faulted
//! malicious log. Writes `results/BENCH_faults.json` (override with
//! `LEAPS_BENCH_OUT`).
//!
//! ```text
//! cargo run -p leaps-bench --release --bin faults
//! ```
//!
//! Environment overrides: `LEAPS_EVENTS` (default 1200), `LEAPS_SEED`,
//! `LEAPS_FAULT_RATES` (comma-separated rates in `[0, 1]`, default
//! `0,0.1,0.25,0.5`), `LEAPS_FAULT_CLASSES` (comma-separated labels,
//! default every class plus `all`), `LEAPS_FAULT_METHOD` (default
//! `wsvm`). A value that is set but malformed is refused with one
//! `error:` line and exit code 2.

use leaps::core::config::PipelineConfig;
use leaps::core::metrics::ConfusionMatrix;
use leaps::core::pipeline::{try_train_classifier, Method};
use leaps::core::stream::StreamDetector;
use leaps::etw::scenario::{GenParams, Scenario};
use leaps::faults::{inject, FaultClass, FaultPlan};
use leaps::trace::parser::{parse_log_lenient, RecoveryStats};
use leaps::trace::partition::{partition_events, PartitionedEvent};
use leaps_bench::{env_parsed, env_u64, env_usize};

const SCENARIO: &str = "vim_reverse_tcp";

struct Cell {
    class: String,
    rate: f64,
    trained: bool,
    train_error: Option<String>,
    accuracy: Option<f64>,
    verdicts: usize,
    faults_injected: u64,
    quarantined: usize,
    skipped_lines: usize,
    gaps: u64,
    missing: u64,
    duplicates: usize,
    degraded_verdicts: usize,
}

impl Cell {
    fn json(&self) -> String {
        let accuracy = self.accuracy.map_or_else(|| "null".to_owned(), |a| format!("{a:.4}"));
        let train_error = self
            .train_error
            .as_ref()
            .map_or_else(|| "null".to_owned(), |e| format!("{:?}", e.to_string()));
        format!(
            "    {{\"class\": \"{}\", \"rate\": {:.3}, \"trained\": {}, \
             \"train_error\": {}, \"accuracy\": {}, \"verdicts\": {}, \
             \"faults_injected\": {}, \"quarantined\": {}, \"skipped_lines\": {}, \
             \"gaps\": {}, \"missing\": {}, \"duplicates\": {}, \
             \"degraded_verdicts\": {}}}",
            self.class,
            self.rate,
            self.trained,
            train_error,
            accuracy,
            self.verdicts,
            self.faults_injected,
            self.quarantined,
            self.skipped_lines,
            self.gaps,
            self.missing,
            self.duplicates,
            self.degraded_verdicts,
        )
    }
}

/// Damages `raw` per `plan`, recovers it leniently and partitions it.
/// Returns the events plus the injection/recovery statistics.
fn damage_and_recover(
    raw: &str,
    plan: &FaultPlan,
    seed: u64,
) -> (Vec<PartitionedEvent>, u64, RecoveryStats) {
    let (damaged, inject_stats) = inject(raw, plan, seed);
    let recovered = parse_log_lenient(&damaged);
    (partition_events(&recovered.events), inject_stats.total_faults() as u64, recovered.stats)
}

fn run_cell(
    class: &str,
    plan: &FaultPlan,
    rate: f64,
    method: Method,
    params: &GenParams,
    seed: u64,
) -> Cell {
    let scenario = Scenario::by_name(SCENARIO).expect("known scenario");
    // Independent generations for training and production, as deployed.
    let train_logs = scenario.generate(params, seed);
    let prod_logs = scenario.generate(params, seed ^ 0x9e37);

    let mut faults = 0;
    let mut quarantined = 0;
    let mut skipped_lines = 0;
    let mut recover = |raw: &str, salt: u64| {
        let (events, f, stats) = damage_and_recover(raw, plan, seed ^ salt);
        faults += f;
        quarantined += stats.quarantined;
        skipped_lines += stats.skipped_lines;
        events
    };
    let benign_train = recover(&train_logs.benign, 0x01);
    let mixed_train = recover(&train_logs.mixed, 0x02);
    let benign_prod = recover(&prod_logs.benign, 0x03);
    let malicious_prod = recover(&prod_logs.malicious, 0x04);

    let mut cell = Cell {
        class: class.to_owned(),
        rate,
        trained: false,
        train_error: None,
        accuracy: None,
        verdicts: 0,
        faults_injected: faults,
        quarantined,
        skipped_lines,
        gaps: 0,
        missing: 0,
        duplicates: 0,
        degraded_verdicts: 0,
    };
    let classifier = match try_train_classifier(
        method,
        &benign_train,
        &mixed_train,
        &PipelineConfig::fast(),
        seed,
    ) {
        Ok(c) => c,
        Err(e) => {
            cell.train_error = Some(e.to_string());
            return cell;
        }
    };
    cell.trained = true;

    // Stream over faulted production telemetry: benign should stay
    // benign, standalone payload should be flagged.
    let mut detector = StreamDetector::new(classifier);
    let mut cm = ConfusionMatrix::default();
    for v in detector.push_all(benign_prod) {
        cm.record_benign(v.benign);
    }
    detector.resync();
    for v in detector.push_all(malicious_prod) {
        cm.record_malicious(!v.benign);
    }
    let stats = detector.stats();
    cell.gaps = stats.gaps as u64;
    cell.missing = stats.missing;
    cell.duplicates = stats.duplicates;
    cell.degraded_verdicts = stats.degraded_verdicts;
    cell.verdicts = cm.total();
    cell.accuracy = (cell.verdicts > 0).then(|| cm.metrics().acc);
    cell
}

/// `LEAPS_FAULT_RATES`: comma-separated rates, each in `[0, 1]`.
fn parse_rates(spec: &str) -> Result<Vec<f64>, String> {
    spec.split(',')
        .map(|token| match token.trim().parse::<f64>() {
            Ok(rate) if (0.0..=1.0).contains(&rate) => Ok(rate),
            _ => Err(format!("has {token:?}, not a rate in [0, 1]")),
        })
        .collect()
}

/// `LEAPS_FAULT_CLASSES`: comma-separated fault-class labels or `all`.
fn parse_classes(spec: &str) -> Result<Vec<String>, String> {
    spec.split(',')
        .map(str::trim)
        .map(|class| {
            if class == "all" || FaultClass::from_label(class).is_some() {
                Ok(class.to_owned())
            } else {
                Err(format!("has {class:?}, not a fault class or `all`"))
            }
        })
        .collect()
}

/// `LEAPS_FAULT_METHOD`: a method label, in any case.
fn parse_method(label: &str) -> Result<Method, String> {
    Method::from_label(label).ok_or_else(|| "is not a method (cgraph|svm|wsvm|hmm)".to_owned())
}

fn main() {
    leaps_bench::check_threads_env();
    let events = env_usize("LEAPS_EVENTS", 1200);
    let seed = env_u64("LEAPS_SEED", 0x1ea5);
    let rates = env_parsed("LEAPS_FAULT_RATES", vec![0.0, 0.1, 0.25, 0.5], parse_rates);
    let classes = env_parsed(
        "LEAPS_FAULT_CLASSES",
        FaultClass::ALL.iter().map(|c| c.label()).chain(["all"]).map(str::to_owned).collect(),
        parse_classes,
    );
    let method = env_parsed("LEAPS_FAULT_METHOD", Method::Wsvm, parse_method);
    let method_name = method.label().to_ascii_lowercase();
    let params = GenParams {
        benign_events: events,
        mixed_events: events,
        malicious_events: events / 2,
        benign_ratio: 0.5,
    };

    println!(
        "fault matrix: {SCENARIO} / {method_name}, {events} events/log, \
         classes {classes:?}, rates {rates:?}"
    );
    let mut cells = Vec::new();
    for class in &classes {
        for &rate in &rates {
            let plan = match FaultClass::from_label(class) {
                Some(fc) => FaultPlan::only(fc, rate),
                None => FaultPlan::uniform(rate),
            };
            let cell = run_cell(class, &plan, rate, method, &params, seed);
            println!(
                "{:<16} rate {:<5.2} trained={} accuracy={} quarantined={} gaps={} \
                 degraded={}{}",
                cell.class,
                cell.rate,
                cell.trained,
                cell.accuracy.map_or_else(|| "n/a".to_owned(), |a| format!("{a:.3}")),
                cell.quarantined,
                cell.gaps,
                cell.degraded_verdicts,
                cell.train_error.as_ref().map_or_else(String::new, |e| format!("  [train: {e}]")),
            );
            cells.push(cell);
        }
    }

    let out =
        std::env::var("LEAPS_BENCH_OUT").unwrap_or_else(|_| "results/BENCH_faults.json".to_owned());
    if let Some(parent) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(parent).expect("creating output directory");
    }
    let body: Vec<String> = cells.iter().map(Cell::json).collect();
    let json = format!(
        "{{\n  \"scenario\": \"{SCENARIO}\",\n  \"method\": \"{method_name}\",\n  \
         \"events\": {events},\n  \"seed\": {seed},\n  \"cells\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    std::fs::write(&out, json).expect("writing benchmark output");
    println!("wrote {out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_env_values_parse_or_name_the_fault() {
        assert_eq!(parse_rates("0, 0.1,1"), Ok(vec![0.0, 0.1, 1.0]));
        for bad in ["abc", "0.1,x", "", "0.1,", "1.5", "-0.1", "NaN"] {
            assert!(parse_rates(bad).is_err(), "{bad:?}");
        }
        assert!(parse_rates("0.1,x").unwrap_err().contains("\"x\""));

        assert_eq!(parse_classes("all, drop_event"), Ok(vec!["all".into(), "drop_event".into()]));
        assert!(parse_classes("nope").unwrap_err().contains("\"nope\""));
        assert!(parse_classes("").is_err());

        assert_eq!(parse_method("wsvm"), Ok(Method::Wsvm));
        assert_eq!(parse_method("HMM"), Ok(Method::Hmm));
        assert!(parse_method("knn").is_err());
        assert!(parse_method("").is_err());
    }
}
