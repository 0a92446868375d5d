//! The `train` workload. Each repetition writes one paper-scale dataset
//! to files, reads, parses and partitions it (set-up), trains a WSVM with
//! the default pipeline configuration and saves it atomically, as
//! `leaps train` does. The saved model is reloaded and run as the
//! standalone detector over the held-out benign half and the malicious
//! log. Repetitions continue until `--seconds` have passed, each on a
//! dataset of its own, and every metric is a median over them.

use crate::detector::layer_times;
use crate::report::{Report, Tracer};
use crate::stats::{median, Summary};
use crate::{Layers, Opts, WorkDir, SCENARIO};
use leaps::cfg::infer::infer_cfg;
use leaps::cfg::weight::assess_weights;
use leaps::cluster::features::FeatureEncoder;
use leaps::core::config::{PipelineConfig, WeightMode, WeightPolarity};
use leaps::core::persist::{load_classifier_file, save_classifier, save_classifier_to};
use leaps::core::pipeline::{train_classifier, Classifier, Method, SvmClassifier};
use leaps::core::stream::StreamDetector;
use leaps::core::Dataset;
use leaps::etw::rng::SimRng;
use leaps::etw::scenario::{GenParams, Scenario};
use leaps::svm::cv::{GridSearch, Scoring};
use leaps::svm::data::{Sample, TrainSet};
use leaps::svm::kernel::Kernel;
use leaps::svm::smo::{train as smo_train, SmoParams};
use leaps::trace::parser::parse_log;
use leaps::trace::partition::{partition_events, PartitionedEvent};
use std::path::Path;
use std::time::{Duration, Instant};

/// Repetitions per run at least, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Output checks on the saved models, from this commit's own numbers
/// over 54 datasets: the held-out benign half was flagged at 0.4–11%
/// (median 4%), the malicious log at 86–100% (median 98.7%). The run's
/// median over its datasets must stay inside the tight bounds; every
/// single dataset inside the loose ones, which only a detector that no
/// longer separates the classes leaves.
const MEDIAN_BENIGN_FLAG_CEILING: f64 = 0.10;
const MEDIAN_MALICIOUS_FLAG_FLOOR: f64 = 0.95;
const BENIGN_FLAG_CEILING: f64 = 0.5;
const MALICIOUS_FLAG_FLOOR: f64 = 0.5;

fn read_parse(path: &Path) -> Result<Vec<PartitionedEvent>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let log = parse_log(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
    Ok(partition_events(&log.events))
}

/// One repetition's measurements.
#[derive(Default)]
struct Rep {
    setup_s: f64,
    train_s: f64,
    detect_events_per_s: f64,
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let work = WorkDir::create(opts)?;
    let scenario = Scenario::by_name(SCENARIO).ok_or("unknown scenario")?;
    let cfg = PipelineConfig::default();
    println!(
        "workload train: scenario={SCENARIO}, one dataset of 6000 benign + 6000 mixed events per repetition; grid={}x{} folds={} threads={}",
        cfg.tuning.lambdas.len(),
        cfg.tuning.sigma2s.len(),
        cfg.tuning.folds,
        leaps::core::par::thread_count()
    );
    let model_path = work.path("vim.model");
    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    let mut tracer = Tracer::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut latencies = Vec::new();
    let mut failed = 0u64;
    let (mut benign_flags, mut malicious_flags) = (Vec::new(), Vec::new());
    let (mut traced, mut untraced, mut parse_spans) = (Vec::new(), Vec::new(), Vec::new());
    let mut cv_fits = 0u64;
    let mut last: Option<(Classifier, Vec<PartitionedEvent>)> = None;
    while reps.len() < MIN_REPS || Instant::now() < deadline {
        let rep_seed = crate::sub_seed(opts.seed, reps.len());
        let raw = scenario.generate(&GenParams::paper(), rep_seed);
        for (name, text) in [
            ("benign.log", &raw.benign),
            ("mixed.log", &raw.mixed),
            ("malicious.log", &raw.malicious),
        ] {
            std::fs::write(work.path(name), text).map_err(|e| format!("writing {name}: {e}"))?;
        }
        drop(raw);
        let mut rep = Rep::default();

        // Set-up: read, parse and partition both training logs.
        let t = Instant::now();
        let root = opts.trace.then(|| tracer.begin("setup", None));
        let mut parse = |name| match root {
            Some(root) => tracer.span("trace.parse", root, || read_parse(&work.path(name))),
            None => read_parse(&work.path(name)),
        };
        let (benign, mixed) = (parse("benign.log")?, parse("mixed.log")?);
        rep.setup_s = t.elapsed().as_secs_f64();
        if let Some(root) = root {
            tracer.end(root);
            parse_spans.push(tracer.children(root).map(|s| s.secs()).sum::<f64>());
        }
        let malicious = read_parse(&work.path("malicious.log"))?;
        let data = Dataset { scenario, benign, mixed, malicious };

        // Training: from partitioned events to the saved model file.
        let t = Instant::now();
        let (train, held_out) = data.split_benign(cfg.benign_train_fraction, rep_seed);
        let clf = train_classifier(Method::Wsvm, &train, &data.mixed, &cfg, rep_seed);
        save_classifier_to(&model_path, &clf).map_err(|e| e.to_string())?;
        rep.train_s = t.elapsed().as_secs_f64();
        if opts.trace {
            // The stage-by-stage training of the same dataset must give
            // a byte-identical model.
            untraced.push(rep.train_s);
            let cells = leaps::obs::registry().counter("train.cv.cells");
            let before = cells.value();
            let root = tracer.begin("train", None);
            let staged = train_traced(&mut tracer, root, &data, &cfg, rep_seed, &model_path)?;
            tracer.end(root);
            cv_fits = cells.value() - before;
            if save_classifier(&staged) != save_classifier(&clf) {
                eprintln!(
                    "train: staged training of repetition {} differs from train_classifier",
                    reps.len()
                );
                failed += 1;
            }
            traced.push(root);
        }

        // Output checks: the saved model, reloaded as `leaps detect`
        // would, flags little of the held-out benign half and most of
        // the malicious log.
        let model = load_classifier_file(&model_path).map_err(|e| e.to_string())?;
        let (benign_s, benign_flag) = detect_pass(&model, &held_out, &mut latencies);
        let (mal_s, mal_flag) = detect_pass(&model, &data.malicious, &mut latencies);
        rep.detect_events_per_s =
            (held_out.len() + data.malicious.len()) as f64 / (benign_s + mal_s);
        println!(
            "repetition {}: setup {:.4}s train {:.4}s, held-out benign flagged {benign_flag:.4}, malicious flagged {mal_flag:.4}",
            reps.len(),
            rep.setup_s,
            rep.train_s
        );
        benign_flags.push(benign_flag);
        malicious_flags.push(mal_flag);
        if benign_flag > BENIGN_FLAG_CEILING || mal_flag < MALICIOUS_FLAG_FLOOR {
            failed += 1;
        }
        reps.push(rep);
        last = Some((model, held_out));
    }
    let benign = median(&benign_flags).unwrap_or(1.0);
    let malicious = median(&malicious_flags).unwrap_or(0.0);
    if benign > MEDIAN_BENIGN_FLAG_CEILING || malicious < MEDIAN_MALICIOUS_FLAG_FLOOR {
        failed += 1;
    }
    println!(
        "train checks over {} datasets: held-out benign flagged {benign:.4} in the median (ceiling {MEDIAN_BENIGN_FLAG_CEILING}; {BENIGN_FLAG_CEILING} per dataset), malicious flagged {malicious:.4} (floor {MEDIAN_MALICIOUS_FLAG_FLOOR}; {MALICIOUS_FLAG_FLOOR} per dataset); failed checks: {failed}",
        reps.len()
    );
    let mut report = Report::default();
    report.correct = failed == 0;
    report.attempted = reps.len() as u64;
    report.failed = failed;
    let field = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);

    if !opts.trace {
        let latency = Summary::new(latencies);
        println!("standalone detector: {} verdict latency samples", latency.count());
        crate::end_to_end(
            &mut report,
            [
                field(|r| r.setup_s),
                field(|r| r.train_s),
                field(|r| r.detect_events_per_s),
                latency.supported_quantile(0.5).unwrap_or(f64::NAN),
                latency.supported_quantile(0.9).unwrap_or(f64::NAN),
                crate::procfs::peak_rss_mb(None).unwrap_or(f64::NAN),
            ],
        );
        return Ok(report);
    }

    let mut layers = Layers::default();
    layers.set("trace.parse_s", median(&parse_spans).unwrap_or(0.0));
    let stage = |name: &str| {
        let per_rep: Vec<f64> = traced
            .iter()
            .map(|&root| tracer.children(root).filter(|s| s.name == name).map(|s| s.secs()).sum())
            .collect();
        median(&per_rep).unwrap_or(0.0)
    };
    for (stage_name, metric) in [
        ("cluster.fit", "cluster.fit_s"),
        ("cluster.encode_seq", "cluster.encode_seq_s"),
        ("cfg.infer", "cfg.infer_s"),
        ("cfg.weights", "cfg.weights_s"),
        ("svm.cv", "svm.cv_s"),
        ("svm.smo", "svm.smo_s"),
        ("core.save", "core.save_s"),
    ] {
        layers.set(metric, stage(stage_name));
    }
    let sum_ratios: Vec<f64> = traced
        .iter()
        .map(|&root| {
            tracer.children(root).map(|s| s.secs()).sum::<f64>() / tracer.spans[root].secs()
        })
        .collect();
    let traced_wall: Vec<f64> = traced.iter().map(|&root| tracer.spans[root].secs()).collect();
    layers.set("train.stage_sum_ratio", median(&sum_ratios).unwrap_or(0.0));
    layers.set(
        "trace.overhead_ratio",
        median(&traced_wall).unwrap_or(0.0) / median(&untraced).unwrap_or(f64::NAN),
    );
    layers.set("svm.cv_fits", cv_fits as f64);
    let (model, held_out) = last.expect("at least one repetition");
    if let Classifier::Svm(svm) = &model {
        layers.set("svm.support_vectors", svm.model.support_vector_count() as f64);
    }
    let loads: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let _ = std::hint::black_box(load_classifier_file(&model_path));
            t.elapsed().as_secs_f64()
        })
        .collect();
    layers.set("core.load_s", median(&loads).unwrap_or(0.0));
    let bytes = std::fs::metadata(&model_path).map_err(|e| e.to_string())?.len();
    layers.set("core.model_bytes", bytes as f64);
    let t = layer_times(&model, &held_out);
    layers.set("cluster.encode_us", t.encode_us);
    layers.set("svm.decision_us", t.decision_us);
    layers.set("core.push_us", t.push_us);
    println!(
        "train trace: {} staged trainings, stage-sum ratio {:.4}",
        traced.len(),
        median(&sum_ratios).unwrap_or(0.0)
    );
    crate::write_trace(opts, &tracer);
    layers.emit(&mut report);
    Ok(report)
}

/// Feeds `events` through a fresh standalone detector, timing each push.
/// Returns (seconds spent in `push`, share of verdicts flagged) and adds
/// the latency of every verdict-producing push to `latencies` (ms).
fn detect_pass(
    model: &Classifier,
    events: &[PartitionedEvent],
    latencies: &mut Vec<f64>,
) -> (f64, f64) {
    let mut detector = StreamDetector::new(model.clone());
    let owned: Vec<PartitionedEvent> = events.to_vec();
    let (mut busy, mut verdicts, mut flagged) = (0.0, 0usize, 0usize);
    for e in owned {
        let t = Instant::now();
        let v = detector.push(e);
        let dt = t.elapsed().as_secs_f64();
        busy += dt;
        if let Some(v) = v {
            latencies.push(dt * 1e3);
            verdicts += 1;
            flagged += usize::from(!v.benign);
        }
    }
    (busy, flagged as f64 / verdicts.max(1) as f64)
}

/// `train_classifier(Method::Wsvm, ..)` split into the paper's stages,
/// each timed as a child span of `root`. It calls the same public
/// functions in the same order, so its model is byte-identical.
fn train_traced(
    tracer: &mut Tracer,
    root: usize,
    data: &Dataset,
    cfg: &PipelineConfig,
    seed: u64,
    path: &Path,
) -> Result<Classifier, String> {
    let (benign, _) =
        tracer.span("core.split", root, || data.split_benign(cfg.benign_train_fraction, seed));
    let mixed = &data.mixed;
    let encoder = tracer.span("cluster.fit", root, || {
        let mut fit_events: Vec<&PartitionedEvent> = benign.iter().collect();
        fit_events.extend(mixed.iter());
        FeatureEncoder::fit(&fit_events, cfg.preprocess)
    });
    let (bcfg, mcfg) = tracer.span("cfg.infer", root, || (infer_cfg(&benign), infer_cfg(mixed)));
    let weights = tracer.span("cfg.weights", root, || match cfg.weight_mode {
        WeightMode::AddressSpace => assess_weights(&bcfg.cfg, &mcfg, cfg.weight),
        WeightMode::Aligned => leaps::cfg::align::assess_weights_aligned(&bcfg, &mcfg),
    });
    let maliciousness = |num: u64| match cfg.weight_polarity {
        WeightPolarity::Maliciousness => weights.maliciousness(num),
        WeightPolarity::Benignity => weights.benignity_or_default(num),
    };
    let ((benign_points, _), (mixed_points, mixed_covers)) =
        tracer.span("cluster.encode_seq", root, || {
            let benign_refs: Vec<&PartitionedEvent> = benign.iter().collect();
            let mixed_refs: Vec<&PartitionedEvent> = mixed.iter().collect();
            (encoder.encode_sequence(&benign_refs), encoder.encode_sequence(&mixed_refs))
        });
    let train_set = tracer.span("svm.sample", root, || {
        let mut samples = Vec::new();
        let mut rng = SimRng::new(seed ^ 0x7ea1_11ed);
        for point in &benign_points {
            if rng.chance(cfg.sample_fraction) {
                samples.push(Sample::new(point.clone(), 1.0, 1.0));
            }
        }
        let negative_fraction =
            cfg.sample_fraction * benign_points.len() as f64 / mixed_points.len() as f64;
        for (point, cover) in mixed_points.iter().zip(&mixed_covers) {
            if rng.chance(negative_fraction.min(1.0)) {
                let c = if cover.is_empty() {
                    cfg.weight_floor
                } else {
                    let sum: f64 = cover.iter().map(|&i| maliciousness(mixed[i].num)).sum();
                    (sum / cover.len() as f64).max(cfg.weight_floor)
                };
                samples.push(Sample::new(point.clone(), -1.0, c));
            }
        }
        TrainSet::new(samples)
    });
    let train_set = train_set.map_err(|e| format!("degenerate training set: {e:?}"))?;
    let grid = GridSearch {
        lambdas: cfg.tuning.lambdas.clone(),
        sigma2s: cfg.tuning.sigma2s.clone(),
        folds: cfg.tuning.folds,
        seed,
        scoring: Scoring::WeightedBalanced,
    };
    let best = tracer.span("svm.cv", root, || grid.run(&train_set));
    let model = tracer.span("svm.smo", root, || {
        smo_train(
            &train_set,
            Kernel::Gaussian { sigma2: best.sigma2 },
            &SmoParams { lambda: best.lambda, ..Default::default() },
        )
    });
    let clf = Classifier::Svm(SvmClassifier { model, encoder, tuned: (best.lambda, best.sigma2) });
    tracer.span("core.save", root, || save_classifier_to(path, &clf)).map_err(|e| e.to_string())?;
    Ok(clf)
}
