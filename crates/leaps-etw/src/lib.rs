//! Synthetic OS and ETW-like stack-walk event logging substrate.
//!
//! The LEAPS paper collects its data with Event Tracing for Windows (ETW):
//! system events (syscalls, file I/O, registry, network, process/thread
//! lifecycle) annotated with full stack walks spanning the application
//! image, user-mode shared libraries and the kernel. This crate replaces
//! that data source with a deterministic simulation that produces logs with
//! the same *interface*: numbered events, each carrying an event type and a
//! stack of `(module, function, address)` frames.
//!
//! The simulation is structured exactly like the environment the paper
//! evaluates on:
//!
//! * [`event`] — system events and their stack frames; a frame's
//!   `module!function` symbol is one shared [`Name`], so a parsed log
//!   allocates each distinct symbol once and cloning a frame never copies
//!   a string;
//! * [`module`] — binary images laid out in a virtual address space;
//! * [`syslib`] — a catalog of Windows-like shared libraries and API
//!   frame-chains (`kernel32!WriteFile → ntdll!NtWriteFile → …`);
//! * [`program`] — per-application synthetic program models (call graphs
//!   whose leaves invoke system APIs), generated from seeded RNG;
//! * [`apps`] — behaviour profiles for the five host applications of the
//!   paper (WinSCP, Chrome, Notepad++, Putty, Vim);
//! * [`payload`] — models of the three malicious payloads (Reverse TCP
//!   shell, Reverse HTTPS shell, `pwddlg` password-dialog injector);
//! * [`attack`] — the two camouflaging strategies (offline infection and
//!   online injection);
//! * [`exec`] — the execution engine that interleaves benign and malicious
//!   activity and emits stack-walked events;
//! * [`logfmt`] — the raw ETL-like textual log format consumed by
//!   `leaps-trace`;
//! * [`scenario`] — the 21 datasets of Table I.
//!
//! # Example
//!
//! ```
//! use leaps_etw::scenario::{GenParams, Scenario};
//!
//! let scenario = Scenario::by_name("vim_reverse_tcp").expect("known dataset");
//! let logs = scenario.generate(&GenParams::small(), 42);
//! assert!(logs.benign.lines().count() > 100);
//! ```

pub mod addr;
pub mod apps;
pub mod attack;
pub mod event;
pub mod exec;
pub mod logfmt;
pub mod module;
pub mod payload;
pub mod program;
pub mod rng;
pub mod scenario;
pub mod syslib;

pub use addr::Va;
pub use event::{EventType, Name, StackFrame, SysEvent};
pub use scenario::{GenParams, RawLogs, Scenario};
