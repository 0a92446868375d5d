//! From-scratch (weighted) support vector machine with a Gaussian kernel,
//! an SMO solver and cross-validation — the paper's Supervised Statistical
//! Learning Module (Section III-D-2, Eq. 2–5).
//!
//! The paper trains a **Weighted SVM**: the usual soft-margin C-SVC where
//! each training point carries its own confidence `cᵢ ∈ [0, 1]`, giving
//! the per-sample box constraint `0 ≤ αᵢ ≤ λ·cᵢ` in the dual (Eq. 4).
//! Setting every `cᵢ = 1` recovers the ordinary SVM baseline. The solver
//! is a LIBSVM-style SMO with maximal-violating-pair working-set
//! selection — the same optimization LIBSVM performs for the paper's
//! implementation.
//!
//! # Example
//!
//! ```
//! use leaps_svm::data::{Sample, TrainSet};
//! use leaps_svm::kernel::Kernel;
//! use leaps_svm::smo::{SmoParams, train};
//!
//! // Two small, well-separated clusters.
//! let samples = vec![
//!     Sample::new(vec![0.0, 0.0], 1.0, 1.0),
//!     Sample::new(vec![0.0, 1.0], 1.0, 1.0),
//!     Sample::new(vec![3.0, 3.0], -1.0, 1.0),
//!     Sample::new(vec![3.0, 4.0], -1.0, 1.0),
//! ];
//! let set = TrainSet::new(samples)?;
//! let model = train(&set, Kernel::Gaussian { sigma2: 2.0 }, &SmoParams::default());
//! assert!(model.decision(&[0.0, 0.5]) > 0.0);
//! assert!(model.decision(&[3.0, 3.5]) < 0.0);
//! # Ok::<(), leaps_svm::data::DataError>(())
//! ```

pub mod cv;
pub mod data;
pub mod kernel;
pub mod model;
pub mod smo;

pub use cv::{GridSearch, GridSearchResult};
pub use data::{Sample, TrainSet};
pub use kernel::Kernel;
pub use model::SvmModel;
pub use smo::{train, SmoParams};
