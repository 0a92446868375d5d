//! The Data Preprocessing Module (paper Section III-A): set
//! dissimilarity, agglomerative hierarchical clustering and feature
//! discretization.
//!
//! LEAPS turns each system event into the 3-tuple
//! `{Event_Type, Lib, Func}`. `Event_Type` maps naturally to integers;
//! the `Lib` and `Func` *sets* are discretized by clustering similar sets
//! together under the Jaccard set dissimilarity of Eq. 1:
//!
//! ```text
//! DM[i][j] = 1 − |setᵢ ∩ setⱼ| / |setᵢ ∪ setⱼ|
//! ```
//!
//! The paper uses SciPy's hierarchical clustering with the UPGMA linkage;
//! [`hier`] implements the same algorithm (plus single and complete
//! linkage for ablations) from scratch via Lance–Williams updates.
//!
//! # Example
//!
//! ```
//! use leaps_cluster::dissim::jaccard_dissimilarity;
//! use leaps_cluster::hier::{Dendrogram, Linkage};
//! use leaps_cluster::dissim::DistanceMatrix;
//!
//! let sets: Vec<Vec<&str>> = vec![
//!     vec!["kernel32", "ntdll"],
//!     vec!["kernel32", "ntdll"],
//!     vec!["tcpip", "ws2_32"],
//! ];
//! let dm = DistanceMatrix::from_sets(&sets, |a, b| jaccard_dissimilarity(a, b));
//! let dendro = Dendrogram::build(&dm, Linkage::Average);
//! let labels = dendro.cut_at_distance(0.5);
//! assert_eq!(labels[0], labels[1]);
//! assert_ne!(labels[0], labels[2]);
//! ```

pub mod assign;
pub mod dissim;
pub mod features;
pub mod hier;

pub use dissim::{jaccard_dissimilarity, DistanceMatrix};
pub use features::{EncodeScratch, FeatureEncoder, PreprocessConfig};
pub use hier::{Dendrogram, Linkage};
