//! The evaluation harness of Section V: run a scenario with a method,
//! average metrics over several randomized runs — supervised, so a
//! panic, error or deadline in one (scenario, method) cell never throws
//! away the rest of a sweep.
//!
//! A sweep ([`Experiment::run_sweep`]) runs every cell under
//! `catch_unwind` with an optional wall-clock deadline, records each
//! cell's outcome in a `LEAPS-SWEEP v1` manifest rewritten atomically
//! after every cell, and emits partial results instead of aborting. The
//! manifest doubles as resume state: a restarted sweep skips cells the
//! previous attempt completed (their metrics round-trip exactly — floats
//! are written with `{:?}`), which is what makes sharded, deadline-bound
//! sweeps across flaky machines practical.

use crate::config::PipelineConfig;
use crate::dataset::Dataset;
use crate::error::LeapsError;
use crate::metrics::Metrics;
use crate::persist::{write_atomic, ModelError, Records};
use crate::pipeline::{try_train_classifier, Method};
use leaps_etw::rng::splitmix64;
use leaps_etw::scenario::{GenParams, Scenario};
use std::collections::HashMap;
use std::path::PathBuf;

/// Experiment parameters: which dataset sizes, how many randomized runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// Log-generation sizes.
    pub gen: GenParams,
    /// Pipeline settings.
    pub pipeline: PipelineConfig,
    /// Number of randomized runs to average ("we average all results over
    /// 10 runs").
    pub runs: usize,
    /// Master seed; per-run seeds are derived with SplitMix64.
    pub seed: u64,
}

impl Default for Experiment {
    fn default() -> Self {
        Experiment {
            gen: GenParams::paper(),
            pipeline: PipelineConfig::default(),
            runs: 10,
            seed: 0x1ea5,
        }
    }
}

impl Experiment {
    /// A small, fast experiment for tests.
    #[must_use]
    pub fn fast() -> Self {
        Experiment {
            gen: GenParams::small(),
            pipeline: PipelineConfig::fast(),
            runs: 2,
            seed: 0x1ea5,
        }
    }

    /// Runs `scenario` with `method`, averaging metrics over the
    /// configured number of runs. The dataset is regenerated per run with
    /// a derived seed, covering both data randomness and split/sampling
    /// randomness.
    ///
    /// # Errors
    ///
    /// Propagates [`LeapsError`] from dataset materialization or training
    /// (e.g. degraded telemetry left too few events).
    ///
    /// # Panics
    ///
    /// Panics if `runs == 0`.
    pub fn run(&self, scenario: Scenario, method: Method) -> Result<Metrics, LeapsError> {
        assert!(self.runs > 0, "need at least one run");
        let mut state = self.seed;
        let mut per_run = Vec::with_capacity(self.runs);
        for _ in 0..self.runs {
            let run_seed = splitmix64(&mut state);
            per_run.push(self.run_once(scenario, method, run_seed)?);
        }
        Ok(Metrics::mean(&per_run))
    }

    /// Runs a single train/test round with an explicit seed.
    ///
    /// # Errors
    ///
    /// Propagates [`LeapsError`] from dataset materialization or training.
    pub fn run_once(
        &self,
        scenario: Scenario,
        method: Method,
        seed: u64,
    ) -> Result<Metrics, LeapsError> {
        let dataset = Dataset::materialize(scenario, &self.gen, seed)?;
        let (train, test) = dataset.split_benign(self.pipeline.benign_train_fraction, seed);
        let classifier =
            try_train_classifier(method, &train, &dataset.mixed, &self.pipeline, seed)?;
        Ok(classifier.evaluate(&test, &dataset.malicious).metrics())
    }

    /// Runs all three methods on a scenario (one Figure 6/7 group),
    /// supervised: a method that errors or panics yields its
    /// [`CellOutcome`] in place, and the remaining methods still run —
    /// one bad method no longer aborts the whole group.
    #[must_use]
    pub fn run_all_methods(&self, scenario: Scenario) -> [(Method, CellOutcome); 3] {
        Method::ALL.map(|method| (method, self.run_cell(scenario, method, None, false)))
    }

    /// Runs one supervised (scenario, method) cell: the configured runs
    /// under `catch_unwind`, cooperatively checking `deadline` between
    /// runs. `chaos` injects a panic into the first run (fault-injection
    /// hook for tests and the CI sweep smoke).
    ///
    /// # Panics
    ///
    /// Panics if `runs == 0` (a configuration bug; cell work itself is
    /// contained).
    #[must_use]
    pub fn run_cell(
        &self,
        scenario: Scenario,
        method: Method,
        deadline: Option<u64>,
        chaos: bool,
    ) -> CellOutcome {
        assert!(self.runs > 0, "need at least one run");
        let mut state = self.seed;
        let mut per_run = Vec::with_capacity(self.runs);
        for run in 0..self.runs {
            let run_seed = splitmix64(&mut state);
            if deadline.is_some_and(|d| leaps_obs::now_micros() >= d) {
                return CellOutcome::Deadline;
            }
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                assert!(
                    !(chaos && run == 0),
                    "chaos: injected panic in cell {}:{}",
                    scenario.name(),
                    method.label()
                );
                self.run_once(scenario, method, run_seed)
            }));
            match result {
                Ok(Ok(metrics)) => per_run.push(metrics),
                Ok(Err(e)) => return CellOutcome::Error(e.to_string()),
                Err(payload) => return CellOutcome::Panicked(panic_message(payload.as_ref())),
            }
        }
        CellOutcome::Ok(Metrics::mean(&per_run))
    }

    /// Runs the full (scenario × method) grid under supervision: each
    /// cell is timed, contained and recorded; the manifest (if
    /// configured) is rewritten atomically after every cell, so a killed
    /// sweep restarted with [`SweepOptions::resume`] skips everything
    /// already completed.
    ///
    /// # Errors
    ///
    /// Only infrastructure failures abort the sweep: an unreadable or
    /// corrupt resume manifest, or a manifest write error. Cell failures
    /// never do — they are recorded as their cell's outcome.
    pub fn run_sweep(
        &self,
        scenarios: &[Scenario],
        methods: &[Method],
        options: &SweepOptions,
    ) -> Result<SweepReport, LeapsError> {
        let deadline = options
            .deadline_secs
            .map(|s| leaps_obs::now_micros().saturating_add(s.saturating_mul(1_000_000)));
        let mut completed: HashMap<(String, &'static str), CellReport> = HashMap::new();
        if options.resume {
            if let Some(path) = options.manifest.as_ref().filter(|p| p.exists()) {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| LeapsError::io(path.display().to_string(), &e))?;
                let prior = parse_manifest(&text).map_err(|inner| {
                    LeapsError::Model(ModelError::InFile {
                        path: path.display().to_string(),
                        inner: Box::new(inner),
                    })
                })?;
                for cell in prior.cells {
                    // Only finished work is worth skipping; failed or
                    // deadline cells get a fresh chance.
                    if matches!(cell.outcome, CellOutcome::Ok(_)) {
                        completed.insert((cell.scenario.clone(), cell.method.label()), cell);
                    }
                }
            }
        }
        let mut report = SweepReport::default();
        for &scenario in scenarios {
            for &method in methods {
                let key = (scenario.name(), method.label());
                let cell = if let Some(prev) = completed.get(&key) {
                    prev.clone()
                } else {
                    let chaos = options
                        .chaos_cell
                        .as_deref()
                        .is_some_and(|spec| chaos_matches(spec, &key.0, method));
                    let start_us = leaps_obs::now_micros();
                    let cell_span = leaps_obs::span!("sweep.cell");
                    let outcome = self.run_cell(scenario, method, deadline, chaos);
                    drop(cell_span);
                    leaps_obs::registry().counter(&format!("sweep.cells.{}", outcome.tag())).inc();
                    CellReport {
                        scenario: key.0,
                        method,
                        outcome,
                        secs: leaps_obs::now_micros().saturating_sub(start_us) as f64 / 1e6,
                    }
                };
                report.cells.push(cell);
                if let Some(path) = &options.manifest {
                    write_atomic(path, &render_manifest(&report))?;
                }
            }
        }
        Ok(report)
    }
}

/// Extracts a printable message from a `catch_unwind` payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// `true` when `spec` (`"scenario:METHOD"`) names this cell.
fn chaos_matches(spec: &str, scenario: &str, method: Method) -> bool {
    spec.split_once(':')
        .is_some_and(|(s, m)| s == scenario && Method::from_label(m) == Some(method))
}

// --------------------------------------------------------- sweep reports

/// Outcome of one supervised (scenario, method) sweep cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// All runs completed; the averaged metrics.
    Ok(Metrics),
    /// Training or evaluation returned a [`LeapsError`].
    Error(String),
    /// A run panicked; the payload message.
    Panicked(String),
    /// The sweep deadline expired before this cell could run (or finish
    /// its first run).
    Deadline,
}

impl CellOutcome {
    /// The manifest tag for this outcome.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            CellOutcome::Ok(_) => "ok",
            CellOutcome::Error(_) => "error",
            CellOutcome::Panicked(_) => "panicked",
            CellOutcome::Deadline => "deadline",
        }
    }

    /// The metrics, when the cell completed.
    #[must_use]
    pub fn metrics(&self) -> Option<Metrics> {
        match self {
            CellOutcome::Ok(m) => Some(*m),
            _ => None,
        }
    }
}

/// One recorded sweep cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Scenario (dataset) name.
    pub scenario: String,
    /// Detection method.
    pub method: Method,
    /// What happened.
    pub outcome: CellOutcome,
    /// Wall-clock seconds the cell took (0 for skipped/deadline cells).
    pub secs: f64,
}

/// Supervision options for [`Experiment::run_sweep`].
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Wall-clock budget for the whole sweep; cells that cannot start
    /// (or continue) before it expires are recorded as
    /// [`CellOutcome::Deadline`].
    pub deadline_secs: Option<u64>,
    /// Manifest path, rewritten atomically after every cell.
    pub manifest: Option<PathBuf>,
    /// Skip cells the manifest already records as ok.
    pub resume: bool,
    /// Fault injection: `"scenario:METHOD"` names one cell whose first
    /// run panics (exercised by tests and the CI sweep smoke).
    pub chaos_cell: Option<String>,
}

/// The outcome of a supervised sweep: one report per (scenario, method)
/// cell, in sweep order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepReport {
    /// Per-cell reports.
    pub cells: Vec<CellReport>,
}

impl SweepReport {
    /// `(ok, error, panicked, deadline)` cell counts.
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for cell in &self.cells {
            match cell.outcome {
                CellOutcome::Ok(_) => c.0 += 1,
                CellOutcome::Error(_) => c.1 += 1,
                CellOutcome::Panicked(_) => c.2 += 1,
                CellOutcome::Deadline => c.3 += 1,
            }
        }
        c
    }

    /// Process exit code classifying the sweep: 0 all ok, 8 only
    /// deadline-skipped cells (partial but healthy — resume to finish),
    /// 9 at least one cell errored or panicked.
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        let (_, errors, panics, deadlines) = self.counts();
        if errors + panics > 0 {
            9
        } else if deadlines > 0 {
            8
        } else {
            0
        }
    }
}

/// Magic first line of a sweep manifest.
pub const SWEEP_HEADER: &str = "# LEAPS-SWEEP v1";

/// Serializes a sweep report to the manifest format. Metrics use `{:?}`
/// floats (exact round-trip); failure messages are flattened to one
/// line.
#[must_use]
pub fn render_manifest(report: &SweepReport) -> String {
    let mut out = String::new();
    out.push_str(SWEEP_HEADER);
    out.push('\n');
    for cell in &report.cells {
        out.push_str(&format!(
            "cell {} {} {} {:?}",
            cell.scenario,
            cell.method.label(),
            cell.outcome.tag(),
            cell.secs
        ));
        match &cell.outcome {
            CellOutcome::Ok(m) => {
                out.push_str(&format!(
                    " {:?} {:?} {:?} {:?} {:?}",
                    m.acc, m.ppv, m.tpr, m.tnr, m.npv
                ));
            }
            CellOutcome::Error(msg) | CellOutcome::Panicked(msg) => {
                out.push(' ');
                out.push_str(&msg.replace('\n', "; "));
            }
            CellOutcome::Deadline => {}
        }
        out.push('\n');
    }
    out
}

/// Parses a sweep manifest back into a report.
///
/// A manifest is checked for meaning, not just syntax: every duration is
/// finite and `≥ 0`, and every metric of an `ok` cell lies in `[0, 1]`
/// (an honest sweep never writes otherwise: [`Metrics`] reports an
/// undefined ratio as 0).
///
/// A manifest has no end marker, but [`render_manifest`] ends every line
/// with a newline. A last line without one was cut short, and a cut
/// inside a metric or a message would otherwise load as a shorter
/// value, so it is refused as [`ModelError::Truncated`].
///
/// # Errors
///
/// [`ModelError`] on malformed or meaningless input, with its line
/// number.
pub fn parse_manifest(text: &str) -> Result<SweepReport, ModelError> {
    let mut records = Records::new(text, SWEEP_HEADER)?;
    if !text.ends_with('\n') {
        return Err(ModelError::Truncated);
    }
    let mut report = SweepReport::default();
    while let Some(mut r) = records.next_record("cell")? {
        let scenario = r.word("scenario")?.to_owned();
        let method = r.word("method")?;
        let method = Method::from_label(method)
            .ok_or_else(|| r.bad(format!("unknown method {method:?}")))?;
        let tag = r.word("outcome")?;
        let secs = r.finite("duration")?;
        if secs < 0.0 {
            return Err(r.bad(format!("duration {secs:?} is not a finite time >= 0")));
        }
        let outcome = match tag {
            "ok" => CellOutcome::Ok(Metrics {
                acc: r.unit("metric acc")?,
                ppv: r.unit("metric ppv")?,
                tpr: r.unit("metric tpr")?,
                tnr: r.unit("metric tnr")?,
                npv: r.unit("metric npv")?,
            }),
            "error" => CellOutcome::Error(r.rest().to_owned()),
            "panicked" => CellOutcome::Panicked(r.rest().to_owned()),
            "deadline" => CellOutcome::Deadline,
            other => return Err(r.bad(format!("unknown outcome {other:?}"))),
        };
        r.end()?;
        report.cells.push(CellReport { scenario, method, outcome, secs });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_experiment_runs_and_averages() {
        let exp = Experiment::fast();
        let scenario = Scenario::by_name("vim_reverse_tcp").unwrap();
        let m = exp.run(scenario, Method::Wsvm).unwrap();
        assert!(m.acc > 0.5, "{m}");
        assert!(m.acc <= 1.0);
    }

    #[test]
    fn run_is_deterministic() {
        let exp = Experiment::fast();
        let scenario = Scenario::by_name("putty_reverse_https_online").unwrap();
        let a = exp.run(scenario, Method::CGraph).unwrap();
        let b = exp.run(scenario, Method::CGraph).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_change_results() {
        let mut exp = Experiment::fast();
        let scenario = Scenario::by_name("vim_codeinject").unwrap();
        let a = exp.run(scenario, Method::Svm).unwrap();
        exp.seed = 99;
        let b = exp.run(scenario, Method::Svm).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        let exp = Experiment { runs: 0, ..Experiment::fast() };
        let _ = exp.run(Scenario::by_name("vim_reverse_tcp").unwrap(), Method::Wsvm);
    }

    /// An experiment whose SVM-family cells fail (too few events to
    /// coalesce a single window) while CGraph still trains.
    fn starved() -> Experiment {
        Experiment {
            gen: GenParams {
                benign_events: 12,
                mixed_events: 12,
                malicious_events: 8,
                benign_ratio: 0.5,
            },
            ..Experiment::fast()
        }
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("leaps-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn run_all_methods_captures_per_method_errors() {
        // Regression: the first failing method used to abort the whole
        // group with `?`, discarding every other method's result.
        let exp = starved();
        let scenario = Scenario::by_name("vim_reverse_tcp").unwrap();
        let results = exp.run_all_methods(scenario);
        assert_eq!(results.len(), 3);
        let cgraph = &results[0];
        assert!(matches!(cgraph.1, CellOutcome::Ok(_)), "{:?}", cgraph);
        for (method, outcome) in &results[1..] {
            assert!(
                matches!(outcome, CellOutcome::Error(msg) if msg.contains("need at least")),
                "{method:?}: {outcome:?}"
            );
        }
    }

    #[test]
    fn sweep_with_panicking_cell_completes_the_rest() {
        let exp = Experiment::fast();
        let scenarios = [
            Scenario::by_name("vim_reverse_tcp").unwrap(),
            Scenario::by_name("vim_codeinject").unwrap(),
        ];
        let dir = scratch("chaos");
        let options = SweepOptions {
            manifest: Some(dir.join("sweep.manifest")),
            chaos_cell: Some("vim_reverse_tcp:CGraph".into()),
            ..SweepOptions::default()
        };
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the injected panic
        let report = exp.run_sweep(&scenarios, &[Method::CGraph, Method::Wsvm], &options);
        std::panic::set_hook(hook);
        let report = report.unwrap();
        assert_eq!(report.cells.len(), 4);
        let (ok, errors, panics, deadlines) = report.counts();
        assert_eq!((ok, errors, panics, deadlines), (3, 0, 1, 0), "{report:?}");
        assert_eq!(report.exit_code(), 9);
        let chaotic = &report.cells[0];
        assert!(
            matches!(&chaotic.outcome, CellOutcome::Panicked(msg) if msg.contains("chaos")),
            "{chaotic:?}"
        );
        // The manifest on disk records all four cells and parses back.
        let text = std::fs::read_to_string(dir.join("sweep.manifest")).unwrap();
        let parsed = parse_manifest(&text).unwrap();
        assert_eq!(parsed, report);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn expired_deadline_marks_cells_and_resume_finishes_them() {
        let exp = Experiment::fast();
        let scenarios = [Scenario::by_name("vim_reverse_tcp").unwrap()];
        let dir = scratch("deadline");
        let manifest = dir.join("sweep.manifest");
        // Deadline 0: every cell is skipped as deadline before starting.
        let options = SweepOptions {
            deadline_secs: Some(0),
            manifest: Some(manifest.clone()),
            ..SweepOptions::default()
        };
        let report = exp.run_sweep(&scenarios, &Method::ALL, &options).unwrap();
        assert_eq!(report.counts(), (0, 0, 0, 3));
        assert_eq!(report.exit_code(), 8);
        // Resume without a deadline: all cells now complete.
        let options = SweepOptions {
            manifest: Some(manifest.clone()),
            resume: true,
            ..SweepOptions::default()
        };
        let report = exp.run_sweep(&scenarios, &Method::ALL, &options).unwrap();
        assert_eq!(report.counts(), (3, 0, 0, 0));
        assert_eq!(report.exit_code(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_skips_completed_cells_with_identical_metrics() {
        let exp = Experiment::fast();
        let scenarios = [Scenario::by_name("vim_reverse_tcp").unwrap()];
        let dir = scratch("resume");
        let manifest = dir.join("sweep.manifest");
        let options = SweepOptions { manifest: Some(manifest.clone()), ..SweepOptions::default() };
        let first = exp.run_sweep(&scenarios, &Method::ALL, &options).unwrap();
        let options = SweepOptions {
            manifest: Some(manifest.clone()),
            resume: true,
            ..SweepOptions::default()
        };
        let second = exp.run_sweep(&scenarios, &Method::ALL, &options).unwrap();
        // Identical including timings: the cells were loaded, not re-run.
        assert_eq!(first, second);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_is_rejected_on_resume() {
        let exp = Experiment::fast();
        let dir = scratch("corrupt");
        let manifest = dir.join("sweep.manifest");
        std::fs::write(&manifest, "# LEAPS-SWEEP v1\nnot a cell\n").unwrap();
        let options = SweepOptions {
            manifest: Some(manifest.clone()),
            resume: true,
            ..SweepOptions::default()
        };
        let err = exp
            .run_sweep(&[Scenario::by_name("vim_reverse_tcp").unwrap()], &Method::ALL, &options)
            .unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_roundtrips_every_outcome() {
        let report = SweepReport {
            cells: vec![
                CellReport {
                    scenario: "vim_reverse_tcp".into(),
                    method: Method::Wsvm,
                    outcome: CellOutcome::Ok(Metrics {
                        acc: 0.875,
                        ppv: 1.0 / 3.0,
                        tpr: 0.0,
                        tnr: 1.0,
                        npv: 0.6,
                    }),
                    secs: 1.25,
                },
                CellReport {
                    scenario: "a".into(),
                    method: Method::CGraph,
                    outcome: CellOutcome::Error("data error: need at least 10 events".into()),
                    secs: 0.5,
                },
                CellReport {
                    scenario: "b".into(),
                    method: Method::Svm,
                    outcome: CellOutcome::Panicked("multi\nline".replace('\n', "; ")),
                    secs: 0.0,
                },
                CellReport {
                    scenario: "c".into(),
                    method: Method::Hmm,
                    outcome: CellOutcome::Deadline,
                    secs: 0.0,
                },
            ],
        };
        let text = render_manifest(&report);
        assert!(text.starts_with(SWEEP_HEADER));
        assert_eq!(parse_manifest(&text).unwrap(), report);
        // Malformed inputs are diagnosed.
        assert!(parse_manifest("").is_err());
        assert!(parse_manifest("# LEAPS-SWEEP v1\ncell x Wat ok 0.0\n").is_err());
        assert!(parse_manifest("# LEAPS-SWEEP v1\ncell x WSVM ok 0.0 1.0\n").is_err());
    }

    #[test]
    fn manifest_cut_inside_its_last_line_is_truncated() {
        let cell = |outcome| CellReport {
            scenario: "vim_reverse_tcp".into(),
            method: Method::Wsvm,
            outcome,
            secs: 1.25,
        };
        let metrics =
            Metrics { acc: 0.875, ppv: 0.5, tpr: 0.25, tnr: 1.0, npv: 0.829_787_234_042_553_2 };
        let error = CellOutcome::Error("data error: too few mixed events (need 10, got 3)".into());
        for last in [CellOutcome::Ok(metrics), error] {
            let report = SweepReport { cells: vec![cell(CellOutcome::Deadline), cell(last)] };
            let text = render_manifest(&report);
            assert_eq!(parse_manifest(&text).unwrap(), report);
            // Cut 8 bytes before the end: inside the last metric or the
            // last words of the message, which would parse as a value.
            let cut = &text[..text.len() - 8];
            assert!(matches!(parse_manifest(cut), Err(ModelError::Truncated)), "{cut:?}");
            // Only the final newline missing is a cut too.
            assert!(matches!(parse_manifest(text.trim_end()), Err(ModelError::Truncated)));
        }
        // A manifest of no cells is its header line.
        assert_eq!(parse_manifest(&format!("{SWEEP_HEADER}\n")).unwrap(), SweepReport::default());
        assert!(matches!(parse_manifest(SWEEP_HEADER), Err(ModelError::Truncated)));
    }

    #[test]
    fn meaningless_manifest_values_are_refused_with_their_line() {
        let ok = "cell vim_reverse_tcp WSVM ok 1.25 0.875 0.5 0.0 1.0 0.6";
        let good = format!("{SWEEP_HEADER}\n{ok}\n");
        assert!(parse_manifest(&good).is_ok());
        for (bad, needle) in [
            ("cell v WSVM ok 1.25 7.5 0.5 0.0 1.0 0.6", "metric acc = 7.5"),
            ("cell v WSVM ok 1.25 0.875 NaN 0.0 1.0 0.6", "metric ppv = NaN"),
            ("cell v WSVM ok 1.25 0.875 0.5 -0.1 1.0 0.6", "metric tpr = -0.1"),
            ("cell v WSVM ok 1.25 0.875 0.5 0.0 inf 0.6", "metric tnr = inf"),
            ("cell v WSVM ok 1.25 0.875 0.5 0.0 1.0 1.5", "metric npv = 1.5"),
            ("cell v WSVM ok NaN 0.875 0.5 0.0 1.0 0.6", "duration NaN"),
            ("cell v CGraph error -1.0 boom", "duration -1.0"),
            ("cell v Hmm deadline inf", "duration inf"),
        ] {
            let text = format!("{good}{bad}\n");
            match parse_manifest(&text) {
                Err(ModelError::BadRecord { line: 3, reason }) => {
                    assert!(reason.contains(needle), "{bad}: {reason}");
                }
                other => panic!("{bad}: expected a bad record at line 3, got {other:?}"),
            }
        }
    }
}
