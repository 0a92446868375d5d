//! `leaps` — command-line front end for the LEAPS camouflaged-attack
//! detector.
//!
//! ```text
//! leaps list
//! leaps gen    --scenario vim_reverse_tcp --out ./data [--events 4000] [--seed 7]
//! leaps eval   --scenario vim_reverse_tcp [--method wsvm] [--runs 3] [--events 2000]
//! leaps detect --benign b.log --mixed m.log --target t.log [--method wsvm] [--lenient]
//! leaps cfg    --log m.log --dot out.dot [--reference b.log]
//! leaps serve  --socket /tmp/leaps.sock --models ./models
//! leaps submit --socket /tmp/leaps.sock --model vim --target t.log
//! ```

mod args;

use args::{ArgError, Args};
use leaps::cfg::dot::to_dot;
use leaps::cfg::infer::infer_cfg;
use leaps::core::config::PipelineConfig;
use leaps::core::error::LeapsError;
use leaps::core::experiment::Experiment;
use leaps::core::persist::{load_classifier_file, save_classifier, write_atomic};
use leaps::core::pipeline::{
    try_train_classifier, try_train_classifier_checkpointed, CheckpointSpec, Method, TrainRun,
};
use leaps::core::stream::{StreamDetector, Verdict};
use leaps::etw::scenario::{GenParams, Scenario};
use leaps::serve::{Client, Command, Endpoint, Reply, Server, ServerConfig};
use leaps::trace::parser::{parse_log, parse_log_lenient};
use leaps::trace::partition::{partition_events, PartitionedEvent};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
leaps — detect camouflaged attacks (LEAPS, DSN 2015 reproduction)

USAGE:
  leaps list
      List every known dataset scenario.
  leaps gen --scenario NAME --out DIR [--events N] [--seed S] [--ratio R]
      Generate the benign/mixed/malicious raw logs of a scenario.
  leaps eval --scenario NAME [--method cgraph|svm|wsvm|hmm] [--runs N]
             [--events N] [--seed S]
      Train and evaluate on a scenario; prints ACC/PPV/TPR/TNR/NPV.
  leaps train --benign FILE --mixed FILE --out MODEL
              [--method cgraph|svm|wsvm|hmm] [--seed S] [--lenient]
              [--checkpoint-dir DIR [--resume] [--deadline-secs N]
               [--checkpoint-every K]]
      Train a classifier from a benign and a mixed raw log and save it.
      With --checkpoint-dir, training state (CV grid cells, SMO alphas,
      Baum-Welch parameters) is checkpointed atomically to DIR every K
      optimizer passes (default 200), and --deadline-secs pauses at the
      next checkpoint once the budget expires (exit code 8, model not
      written). --resume continues from DIR's checkpoints and produces a
      model byte-identical to an uninterrupted run; checkpoints from a
      different method/seed/input are rejected.
  leaps detect --target FILE (--model MODEL | --benign FILE --mixed FILE)
               [--method cgraph|svm|wsvm|hmm] [--seed S] [--lenient]
      Stream-detect over a target log with a saved model (or train
      in-place from raw logs); prints flagged windows and a summary.
  leaps cfg --log FILE --dot FILE [--reference FILE] [--lenient]
      Infer the CFG of a raw log and write Graphviz; with --reference,
      highlight nodes absent from the reference log's CFG.
  leaps serve (--socket PATH | --tcp ADDR) --models DIR
              [--cap-mb N] [--queue N] [--workers N] [--idle-secs N]
              [--metrics-jsonl PATH [--metrics-every-secs N]]
      Run the detection daemon: clients open per-process sessions over a
      line protocol and stream events; trained models load on demand
      from DIR (LRU-cached under N MiB), flooded sessions shed load with
      BUSY instead of stalling others. With --idle-secs N > 0, sessions
      and connections silent for over N seconds are reaped (default 0 =
      never). With --metrics-jsonl, a background flusher appends one
      JSON metrics snapshot to PATH every N seconds (default 5) and once
      more at shutdown; each snapshot is a single appended line, so
      readers never see a torn record. Stop it with `leaps shutdown`.
  leaps submit (--socket PATH | --tcp ADDR) --model NAME --target FILE
               [--pid N] [--client NAME] [--lenient]
      Stream a raw log to a running daemon as one session and print the
      verdicts — the online counterpart of `leaps detect`.
  leaps health (--socket PATH | --tcp ADDR) [--inject-panic [--shard N]]
      Probe a running daemon: worker liveness, caught-panic count,
      session/reap counters, registry state and the idle policy — one
      `health ...` line for supervisors. --inject-panic (daemon started
      with LEAPS_CHAOS=1 only) crashes one pool job first, to verify
      that its worker catches it and keeps serving.
  leaps metrics (--socket PATH | --tcp ADDR) [--json] [--reset]
      Dump a running daemon's metrics registry — every counter, gauge
      and latency histogram, one metric per line in the stable METRICS
      wire format (or one JSON object with --json). --reset zeroes
      counters and histograms after the dump; gauges keep their level.
      Like health, works without a HELLO handshake.
  leaps top (--socket PATH | --tcp ADDR) [--interval-secs N] [--iterations N]
      Live metrics view: poll a running daemon every N seconds (default
      2) and render the sorted registry with histogram p50/p95/p99
      latencies. --iterations K stops after K refreshes (default 0 =
      until interrupted).
  leaps shutdown (--socket PATH | --tcp ADDR)
      Ask a running daemon to shut down gracefully (drains all sessions).

GLOBAL OPTIONS:
  --threads N
      Worker threads for training (kernel matrix, CV grid, clustering).
      Overrides the LEAPS_THREADS environment variable; default is the
      number of available cores. Results are identical at any setting;
      N=1 forces the serial path.
  --lenient
      Recover from damaged raw logs instead of failing: unparseable
      records are quarantined, parsing resynchronizes at the next EVENT
      header, and per-class skip statistics go to stderr.

EXIT CODES:
  0 success   2 usage error   3 parse error   4 model error
  5 data error (too little/degenerate data)   6 I/O error
  7 network/protocol error   8 deadline expired (resumable checkpoint
  saved; rerun with --resume)   9 sweep finished with failed cells
  (experiment harnesses only; partial results were written)
";

/// A terminal CLI failure: one stderr line plus a process exit code.
/// Usage-class failures (code 2) also reprint the usage text.
struct Failure {
    code: u8,
    message: String,
}

impl Failure {
    fn usage(message: impl Into<String>) -> Failure {
        Failure { code: 2, message: message.into() }
    }
}

impl From<ArgError> for Failure {
    fn from(e: ArgError) -> Failure {
        Failure::usage(e.to_string())
    }
}

impl From<LeapsError> for Failure {
    fn from(e: LeapsError) -> Failure {
        Failure { code: e.exit_code(), message: e.to_string() }
    }
}

fn main() -> ExitCode {
    // Left to the library, a bad `LEAPS_THREADS` would silently mean the
    // core count; it is refused up front, with no usage text, since it is
    // not an argument.
    if let Err(message) = leaps::core::par::env_threads() {
        eprintln!("error: {message}");
        return ExitCode::from(2);
    }
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    match run(&tokens) {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("error: {}", failure.message);
            if failure.code == 2 {
                eprintln!();
                eprintln!("{USAGE}");
            }
            ExitCode::from(failure.code)
        }
    }
}

fn run(tokens: &[String]) -> Result<(), Failure> {
    let args = Args::parse(tokens)?;
    if let Some(threads) = args.parse_opt::<usize>("threads")? {
        if threads == 0 {
            return Err(Failure::usage("--threads must be >= 1"));
        }
        leaps::core::par::set_thread_override(Some(threads));
    }
    match args.command.as_str() {
        "list" => cmd_list(),
        "gen" => cmd_gen(&args),
        "train" => cmd_train(&args),
        "eval" => cmd_eval(&args),
        "detect" => cmd_detect(&args),
        "cfg" => cmd_cfg(&args),
        "serve" => cmd_serve(&args),
        "submit" => cmd_submit(&args),
        "health" => cmd_health(&args),
        "metrics" => cmd_metrics(&args),
        "top" => cmd_top(&args),
        "shutdown" => cmd_shutdown(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(Failure::usage(format!("unknown subcommand {other:?}"))),
    }
}

fn method_of(args: &Args) -> Result<Method, Failure> {
    let label = args.get("method").unwrap_or("wsvm");
    Method::from_label(label)
        .ok_or_else(|| Failure::usage(format!("unknown method {label:?} (cgraph|svm|wsvm|hmm)")))
}

fn gen_params(args: &Args) -> Result<GenParams, Failure> {
    let events = args.parse_or("events", 2000usize)?;
    let ratio = args.parse_or("ratio", 0.5f64)?;
    if !(0.0..=1.0).contains(&ratio) {
        return Err(Failure::usage("--ratio must be in [0,1]"));
    }
    Ok(GenParams {
        benign_events: events,
        mixed_events: events,
        malicious_events: events / 2,
        benign_ratio: ratio,
    })
}

fn scenario_of(args: &Args) -> Result<Scenario, Failure> {
    let name = args.required("scenario")?;
    Scenario::by_name(name)
        .ok_or_else(|| Failure::usage(format!("unknown scenario {name:?}; run `leaps list`")))
}

fn cmd_list() -> Result<(), Failure> {
    println!("Table I datasets:");
    for s in Scenario::table1() {
        println!("  {:<34} {}", s.name(), s.method.label());
    }
    println!("\nSource-level trojan extension datasets:");
    for s in Scenario::source_trojans() {
        println!("  {:<34} {}", s.name(), s.method.label());
    }
    Ok(())
}

fn cmd_gen(args: &Args) -> Result<(), Failure> {
    let scenario = scenario_of(args)?;
    let out = args.required("out")?;
    let seed = args.parse_or("seed", 0x1ea5u64)?;
    let params = gen_params(args)?;
    let logs = scenario.generate(&params, seed);
    std::fs::create_dir_all(out).map_err(|e| LeapsError::io(out, &e))?;
    for (name, content) in [
        ("benign.log", &logs.benign),
        ("mixed.log", &logs.mixed),
        ("malicious.log", &logs.malicious),
    ] {
        let path = format!("{out}/{name}");
        std::fs::write(&path, content).map_err(|e| LeapsError::io(&path, &e))?;
        println!("wrote {path} ({} lines)", content.lines().count());
    }
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<(), Failure> {
    let scenario = scenario_of(args)?;
    let method = method_of(args)?;
    let runs = args.parse_or("runs", 3usize)?;
    if runs == 0 {
        return Err(Failure::usage("--runs must be >= 1"));
    }
    let experiment = Experiment {
        gen: gen_params(args)?,
        runs,
        seed: args.parse_or("seed", 0x1ea5u64)?,
        ..Experiment::default()
    };
    println!(
        "evaluating {} with {} ({} runs, {} events/log)...",
        scenario.name(),
        method.label(),
        experiment.runs,
        experiment.gen.benign_events
    );
    let metrics = experiment.run(scenario, method)?;
    println!("{metrics}");
    Ok(())
}

fn load_log(path: &str, lenient: bool) -> Result<Vec<PartitionedEvent>, Failure> {
    let raw = std::fs::read_to_string(path).map_err(|e| LeapsError::io(path, &e))?;
    let events = if lenient {
        let recovered = parse_log_lenient(&raw);
        if !recovered.stats.is_clean() {
            eprintln!("{path}: recovered degraded log: {}", recovered.stats);
        }
        recovered.events
    } else {
        parse_log(&raw)
            .map_err(|e| Failure { code: 3, message: format!("parsing {path}: {e}") })?
            .events
    };
    Ok(partition_events(&events))
}

/// Trains a classifier from the `--benign` and `--mixed` raw logs. With a
/// spec (`leaps train --checkpoint-dir`), the long-running stages
/// checkpoint to its directory and pause at its deadline (exit 8).
fn train_from_logs(
    args: &Args,
    spec: Option<&CheckpointSpec>,
) -> Result<leaps::core::pipeline::Classifier, Failure> {
    let lenient = args.enabled("lenient");
    let benign = load_log(args.required("benign")?, lenient)?;
    let mixed = load_log(args.required("mixed")?, lenient)?;
    let method = method_of(args)?;
    let seed = args.parse_or("seed", 0x1ea5u64)?;
    let checkpoints = match spec {
        Some(spec) => format!(
            " (checkpoints in {}{})",
            spec.dir.display(),
            if spec.resume { ", resuming" } else { "" }
        ),
        None => String::new(),
    };
    println!(
        "training {} on {} benign + {} mixed events{checkpoints}...",
        method.label(),
        benign.len(),
        mixed.len()
    );
    let config = PipelineConfig::default();
    let run = match spec {
        Some(spec) => {
            try_train_classifier_checkpointed(method, &benign, &mixed, &config, seed, spec)?
        }
        None => TrainRun::Done(Box::new(
            try_train_classifier(method, &benign, &mixed, &config, seed)
                .map_err(LeapsError::from)?,
        )),
    };
    match run {
        TrainRun::Done(classifier) => Ok(*classifier),
        TrainRun::Paused { stage, progress } => Err(LeapsError::deadline(format!(
            "training {} (checkpointed {stage} at progress {progress})",
            method.label()
        ))
        .into()),
    }
}

fn cmd_train(args: &Args) -> Result<(), Failure> {
    let out = args.required("out")?;
    for flag in ["resume", "deadline-secs", "checkpoint-every"] {
        if args.get(flag).is_some() && args.get("checkpoint-dir").is_none() {
            return Err(Failure::usage(format!("--{flag} requires --checkpoint-dir")));
        }
    }
    let spec = match args.get("checkpoint-dir") {
        Some(dir) => {
            let every = args.parse_or("checkpoint-every", 200usize)?;
            if every == 0 {
                return Err(Failure::usage("--checkpoint-every must be >= 1"));
            }
            Some(CheckpointSpec {
                resume: args.enabled("resume"),
                every,
                deadline: args.parse_opt::<u64>("deadline-secs")?.map(|secs| {
                    leaps::obs::now_micros().saturating_add(secs.saturating_mul(1_000_000))
                }),
                ..CheckpointSpec::new(dir)
            })
        }
        None => None,
    };
    let classifier = train_from_logs(args, spec.as_ref())?;
    let text = save_classifier(&classifier);
    // Crash-safe: a kill mid-save leaves the old model (or nothing),
    // never a torn file a later `detect`/`serve` would choke on.
    write_atomic(std::path::Path::new(out), &text)?;
    println!("wrote model to {out} ({} lines)", text.lines().count());
    Ok(())
}

fn cmd_detect(args: &Args) -> Result<(), Failure> {
    let target_path = args.required("target")?;
    let target = load_log(target_path, args.enabled("lenient"))?;
    let classifier = match args.get("model") {
        Some(path) => {
            for conflicting in ["benign", "mixed", "method"] {
                if args.get(conflicting).is_some() {
                    return Err(Failure::usage(format!(
                        "--model conflicts with --{conflicting}: a saved model \
                         already fixes the method and training data"
                    )));
                }
            }
            let classifier = load_classifier_file(std::path::Path::new(path))?;
            println!("loaded model from {path}");
            classifier
        }
        None => train_from_logs(args, None)?,
    };
    let mut detector = StreamDetector::new(classifier);
    let verdicts = detector.push_all(target.iter().cloned());
    let flagged: Vec<_> = verdicts.iter().filter(|v| !v.benign).collect();
    println!(
        "{}: {} verdicts over {} events, {} flagged malicious ({:.1}%)",
        target_path,
        verdicts.len(),
        target.len(),
        flagged.len(),
        100.0 * flagged.len() as f64 / verdicts.len().max(1) as f64
    );
    let stats = detector.stats();
    if stats.gaps > 0 || stats.duplicates > 0 || stats.degraded_verdicts > 0 {
        println!(
            "telemetry quality: {} gaps ({} missing events), {} duplicates dropped, \
             {} reordered, {} degraded verdicts",
            stats.gaps, stats.missing, stats.duplicates, stats.reordered, stats.degraded_verdicts
        );
    }
    print_alerts(flagged.iter().copied(), flagged.len());
    Ok(())
}

#[cfg(unix)]
fn socket_endpoint(path: &str) -> Result<Endpoint, Failure> {
    Ok(Endpoint::Unix(path.into()))
}

#[cfg(not(unix))]
fn socket_endpoint(_path: &str) -> Result<Endpoint, Failure> {
    Err(Failure::usage("--socket needs a Unix platform; use --tcp ADDR"))
}

fn endpoint_of(args: &Args) -> Result<Endpoint, Failure> {
    match (args.get("socket"), args.get("tcp")) {
        (Some(path), None) => socket_endpoint(path),
        (None, Some(addr)) => Ok(Endpoint::Tcp(addr.to_owned())),
        _ => Err(Failure::usage("exactly one of --socket PATH or --tcp ADDR is required")),
    }
}

fn cmd_serve(args: &Args) -> Result<(), Failure> {
    let endpoint = endpoint_of(args)?;
    let models = args.required("models")?;
    let cap_mb = args.parse_or("cap-mb", 64u64)?;
    let queue = args.parse_or("queue", 1024usize)?;
    if queue == 0 {
        return Err(Failure::usage("--queue must be >= 1"));
    }
    let idle_secs = args.parse_or("idle-secs", 0u64)?;
    let config = ServerConfig {
        models_dir: models.into(),
        cache_cap_bytes: cap_mb << 20,
        queue_cap: queue,
        workers: args.parse_or("workers", 0usize)?,
        idle_ttl: (idle_secs > 0).then(|| std::time::Duration::from_secs(idle_secs)),
    };
    let server = Arc::new(Server::try_new(&config)?);
    let reaper = server.start_reaper();
    let flusher = match args.get("metrics-jsonl") {
        Some(path) => {
            let every = args.parse_or("metrics-every-secs", 5u64)?;
            if every == 0 {
                return Err(Failure::usage("--metrics-every-secs must be >= 1"));
            }
            let metrics = Arc::clone(server.metrics());
            Some(start_metrics_flusher(metrics, path, std::time::Duration::from_secs(every))?)
        }
        None => None,
    };
    let bound = endpoint.bind()?;
    let idle = if idle_secs == 0 { "off".to_owned() } else { format!("{idle_secs}s") };
    let workers = server.metrics().snapshot().gauge("pool.workers").unwrap_or(0);
    println!(
        "leaps-serve listening on {} (models {models}, {workers} workers, queue {queue}, \
         cache {cap_mb} MiB, idle TTL {idle})",
        bound.endpoint()
    );
    let drained = bound.run(&server)?;
    if let Some(handle) = reaper {
        let _ = handle.join();
    }
    if let Some((stop, handle)) = flusher {
        drop(stop); // disconnects the channel: final flush, then exit
        let _ = handle.join();
    }
    let snapshot = server.metrics().snapshot();
    let count = |name| snapshot.counter(name).unwrap_or(0);
    println!(
        "leaps-serve shut down: {} sessions served ({} reaped idle), \
         {drained} drained at shutdown",
        count("serve.closed"),
        count("serve.reaped")
    );
    Ok(())
}

/// Starts the `--metrics-jsonl` background flusher: every `every`, and
/// once more at shutdown, it appends one snapshot of the server's
/// `metrics` as a line
/// `{"unix_ms":<now>,"counters":...,"gauges":...,"hists":...}` to
/// `path`. The line is written with a single `write_all` on an
/// append-mode file, so concurrent readers (and a crash mid-run) see
/// whole records only. Dropping the returned sender stops the thread
/// after a final flush.
fn start_metrics_flusher(
    metrics: Arc<leaps::obs::MetricsRegistry>,
    path: &str,
    every: std::time::Duration,
) -> Result<(std::sync::mpsc::Sender<()>, std::thread::JoinHandle<()>), Failure> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| LeapsError::io(path, &e))?;
    let path = path.to_owned();
    let (stop, rx) = std::sync::mpsc::channel::<()>();
    // lint:allow(stray-spawn): the metrics flusher must outlive any one request and dies with the process via the stop channel; routing it through the supervised pool would deadlock shutdown
    let handle = std::thread::spawn(move || loop {
        let done = matches!(
            rx.recv_timeout(every),
            Ok(()) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected)
        );
        // lint:allow(raw-clock): metrics lines carry epoch wall-clock timestamps for cross-host correlation; the swappable obs clock is monotonic-relative and cannot produce these
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis());
        let body = metrics.snapshot().to_json();
        // Splice the timestamp into the snapshot object: `{"unix_ms":T,` + rest.
        let line = format!("{{\"unix_ms\":{unix_ms},{}\n", &body[1..]);
        if let Err(e) = file.write_all(line.as_bytes()) {
            eprintln!("metrics flusher: appending to {path}: {e}");
            return;
        }
        if done {
            return;
        }
    });
    Ok((stop, handle))
}

fn cmd_metrics(args: &Args) -> Result<(), Failure> {
    let endpoint = endpoint_of(args)?;
    let mut verdicts = Vec::new();
    let mut client = Client::connect(&endpoint)?;
    let snapshot = client.fetch_metrics(args.enabled("reset"), &mut verdicts)?;
    if args.enabled("json") {
        println!("{}", snapshot.to_json());
    } else {
        print!("{}", snapshot.encode());
    }
    Ok(())
}

/// Renders one `leaps top` frame: counters and gauges first, then the
/// latency histograms with log-bucket quantiles.
fn render_top(endpoint: &Endpoint, snapshot: &leaps::obs::Snapshot, iteration: u64) -> String {
    use leaps::obs::Value;
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "leaps top — {endpoint} — {} metrics (refresh {iteration})\n",
        snapshot.len()
    );
    let _ = writeln!(out, "{:<44} {:>14}", "METRIC", "VALUE");
    for entry in &snapshot.entries {
        match &entry.value {
            Value::Counter(v) => {
                let _ = writeln!(out, "{:<44} {v:>14}", entry.name);
            }
            Value::Gauge(v) => {
                let _ = writeln!(out, "{:<44} {v:>14} (gauge)", entry.name);
            }
            Value::Hist(_) => {}
        }
    }
    let hists: Vec<_> = snapshot
        .entries
        .iter()
        .filter_map(|e| match &e.value {
            Value::Hist(h) => Some((e.name.as_str(), h)),
            _ => None,
        })
        .collect();
    if !hists.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<34} {:>10} {:>9} {:>9} {:>9} {:>9}",
            "HISTOGRAM", "COUNT", "MEAN", "P50", "P95", "P99"
        );
        for (name, h) in hists {
            let _ = writeln!(
                out,
                "{name:<34} {:>10} {:>9} {:>9} {:>9} {:>9}",
                h.count,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99)
            );
        }
    }
    out
}

fn cmd_top(args: &Args) -> Result<(), Failure> {
    let endpoint = endpoint_of(args)?;
    let interval = args.parse_or("interval-secs", 2u64)?;
    if interval == 0 {
        return Err(Failure::usage("--interval-secs must be >= 1"));
    }
    let iterations = args.parse_or("iterations", 0u64)?;
    let clear_screen = std::io::IsTerminal::is_terminal(&std::io::stdout());
    let mut verdicts = Vec::new();
    let mut client = Client::connect(&endpoint)?;
    let mut iteration = 0u64;
    loop {
        iteration += 1;
        let snapshot = client.fetch_metrics(false, &mut verdicts)?;
        if clear_screen {
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render_top(&endpoint, &snapshot, iteration));
        if iterations != 0 && iteration >= iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs(interval));
    }
}

fn cmd_health(args: &Args) -> Result<(), Failure> {
    let endpoint = endpoint_of(args)?;
    let mut verdicts = Vec::new();
    let mut client = Client::connect(&endpoint)?;
    if args.enabled("inject-panic") {
        let shard = args.parse_or("shard", 0u32)?;
        let detail = client.expect_ok(&Command::Panic { shard }, &mut verdicts)?;
        println!("{detail}");
    }
    let detail = client.expect_ok(&Command::Health, &mut verdicts)?;
    println!("{detail}");
    Ok(())
}

fn print_alerts<'a>(flagged: impl IntoIterator<Item = &'a Verdict>, total: usize) {
    for v in flagged.into_iter().take(20) {
        let tag = if v.degraded { " [degraded]" } else { "" };
        match v.score {
            Some(score) => {
                println!("  ALERT window ending @{} (score {score:.3}){tag}", v.last_event);
            }
            None => println!("  ALERT event @{}{tag}", v.last_event),
        }
    }
    if total > 20 {
        println!("  ... {} more", total - 20);
    }
}

fn cmd_submit(args: &Args) -> Result<(), Failure> {
    let endpoint = endpoint_of(args)?;
    let model = args.required("model")?;
    let target_path = args.required("target")?;
    let events = load_log(target_path, args.enabled("lenient"))?;
    let pid = args.parse_or("pid", std::process::id())?;
    let name = args.get("client").unwrap_or("leaps-submit").to_owned();
    let mut verdicts: Vec<(u32, Verdict)> = Vec::new();
    let mut client = Client::connect(&endpoint)?;
    let hello = client.expect_ok(&Command::Hello { client: name }, &mut verdicts)?;
    println!("connected to {endpoint}: {hello}");
    client.expect_ok(&Command::Open { pid, model: model.to_owned() }, &mut verdicts)?;
    let mut busy = 0u64;
    for event in &events {
        match client.request(&Command::Event { pid, event: event.clone() }, &mut verdicts)? {
            Reply::Busy { .. } => busy += 1,
            Reply::Err { family, message } => {
                return Err(LeapsError::protocol(format!(
                    "event {} rejected ({family}): {message}",
                    event.num
                ))
                .into());
            }
            Reply::Ok { .. } | Reply::Verdict { .. } | Reply::Metric { .. } => {}
        }
    }
    let close = client.expect_ok(&Command::Close { pid }, &mut verdicts)?;
    let _ = client.request(&Command::Bye, &mut verdicts);
    let flagged: Vec<&Verdict> =
        verdicts.iter().filter(|(_, v)| !v.benign).map(|(_, v)| v).collect();
    println!(
        "{target_path}: {} events submitted ({busy} answered BUSY), {} verdicts, \
         {} flagged malicious",
        events.len(),
        verdicts.len(),
        flagged.len()
    );
    println!("session report: {close}");
    print_alerts(flagged.iter().copied(), flagged.len());
    Ok(())
}

fn cmd_shutdown(args: &Args) -> Result<(), Failure> {
    let endpoint = endpoint_of(args)?;
    let mut verdicts = Vec::new();
    let mut client = Client::connect(&endpoint)?;
    client.expect_ok(&Command::Hello { client: "leaps-shutdown".to_owned() }, &mut verdicts)?;
    client.expect_ok(&Command::Shutdown, &mut verdicts)?;
    println!("daemon at {endpoint} is shutting down");
    Ok(())
}

fn cmd_cfg(args: &Args) -> Result<(), Failure> {
    let lenient = args.enabled("lenient");
    let events = load_log(args.required("log")?, lenient)?;
    let dot_path = args.required("dot")?;
    let inferred = infer_cfg(&events);
    let reference = match args.get("reference") {
        Some(path) => Some(infer_cfg(&load_log(path, lenient)?).cfg),
        None => None,
    };
    let dot = to_dot(&inferred.cfg, "inferred_cfg", reference.as_ref());
    std::fs::write(dot_path, dot).map_err(|e| LeapsError::io(dot_path, &e))?;
    println!(
        "inferred CFG: {} nodes, {} edges -> {dot_path}",
        inferred.cfg.node_count(),
        inferred.cfg.edge_count()
    );
    Ok(())
}
