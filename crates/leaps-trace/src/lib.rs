//! Raw-log parsing, stack-event correlation and stack partitioning — the
//! front end of the LEAPS training and testing pipelines (paper Fig. 1,
//! "Raw Log Parser" and "Stack Partition Module"; modeled on Introperf's
//! front end).
//!
//! * [`parser`] parses the ETL-like raw text log emitted by `leaps-etw`
//!   into *stack-event correlated* records, restoring caller order for the
//!   stack frames and diagnosing malformed input with line numbers. It
//!   allocates nothing per line: each distinct module or function name
//!   is allocated once per log and shared by every frame that names it.
//! * [`partition`] splits each event's stack walk into the **application
//!   stack trace** (frames inside the application image or anonymous
//!   memory — used for CFG inference) and the **system stack trace**
//!   (shared libraries and kernel — used for statistical features). It
//!   clones frames by reference count.
//! * [`slicing`] slices a log per process, as the paper does per
//!   application of interest.
//!
//! # Example
//!
//! ```
//! use leaps_etw::scenario::{GenParams, Scenario};
//! use leaps_trace::parser::parse_log;
//! use leaps_trace::partition::partition_events;
//!
//! let logs = Scenario::by_name("vim_reverse_tcp")
//!     .unwrap()
//!     .generate(&GenParams::small(), 7);
//! let parsed = parse_log(&logs.benign)?;
//! let partitioned = partition_events(&parsed.events);
//! assert_eq!(parsed.events.len(), partitioned.len());
//! # Ok::<(), leaps_trace::parser::ParseError>(())
//! ```

pub mod parser;
pub mod partition;
pub mod slicing;

pub use parser::{
    parse_log, parse_log_lenient, CorrelatedEvent, CorrelatedLog, ErrorClass, ParseError,
    RecoveredLog, RecoveryStats,
};
pub use partition::{partition_events, PartitionedEvent};
