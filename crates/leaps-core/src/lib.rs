//! LEAPS end-to-end pipeline: datasets, training phase, testing phase,
//! metrics and the Section V evaluation harness.
//!
//! This crate composes the substrate crates into the system of the paper:
//!
//! * [`dataset`] — materializes the 21 Table I scenarios through the full
//!   front end (raw log → parser → stack partition);
//! * [`pipeline`] — the Training and Testing Phases of Section II-B for
//!   the three methods (CGraph, SVM, WSVM);
//! * [`metrics`] — confusion matrices and the ACC/PPV/TPR/TNR/NPV
//!   measures of Section V-B;
//! * [`experiment`] — randomized-run averaging as in Section V
//!   ("average all results over 10 runs");
//! * [`config`] — pipeline hyper-parameters with paper-faithful defaults;
//! * [`stream`] — an incremental detector for production event streams;
//! * [`error`] — the unified [`LeapsError`] every fallible layer reports
//!   through, with per-family process exit codes.
//!
//! # Quickstart
//!
//! ```no_run
//! use leaps_core::experiment::Experiment;
//! use leaps_core::pipeline::Method;
//! use leaps_etw::scenario::Scenario;
//!
//! let experiment = Experiment::fast();
//! let scenario = Scenario::by_name("vim_reverse_tcp").unwrap();
//! let metrics = experiment.run(scenario, Method::Wsvm)?;
//! println!("{} WSVM: {metrics}", scenario.name());
//! # Ok::<(), leaps_core::error::LeapsError>(())
//! ```

/// Thread-fan-out helpers (`par_map`, `par_map_indexed`,
/// `LEAPS_THREADS` handling), re-exported from the bottom-level `leaps-par` crate so
/// pipeline users configure parallelism through one facade.
pub use leaps_par as par;

pub mod config;
pub mod dataset;
pub mod error;
pub mod experiment;
pub mod metrics;
pub mod persist;
pub mod pipeline;
pub mod stream;
pub mod universal;

pub use config::PipelineConfig;
pub use dataset::Dataset;
pub use error::LeapsError;
pub use experiment::Experiment;
pub use metrics::{ConfusionMatrix, Metrics};
pub use pipeline::{train_classifier, try_train_classifier, Classifier, Method};
pub use stream::{StreamDetector, StreamStats, Verdict};
