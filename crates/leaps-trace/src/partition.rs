//! The Stack Partition Module (paper Section II-B-1).
//!
//! Splits each event's stack walk into:
//!
//! * the **application stack trace** — frames inside the application's own
//!   image *or in anonymous memory* (injected code resolves to no module;
//!   it is still application-side code, and must reach the CFG inference
//!   so the mixed CFG contains the payload), and
//! * the **system stack trace** — frames in known shared libraries and
//!   kernel modules, from which the statistical features are extracted.
//!
//! Classification is by module name against the system catalog; the
//! parser's frames are not trusted to carry the distinction.

use crate::parser::CorrelatedEvent;
use leaps_etw::event::{EventType, Provenance, StackFrame};
use leaps_etw::syslib::SysCatalog;

/// An event with its stack walk partitioned into application and system
/// parts (both in caller order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionedEvent {
    /// Event sequence number.
    pub num: u64,
    /// Event class.
    pub etype: EventType,
    /// Thread id (the payload thread differs from the main thread, but the
    /// pipeline never uses this for classification).
    pub tid: u32,
    /// Frames in the application image / anonymous memory, caller order.
    pub app_stack: Vec<StackFrame>,
    /// Frames in shared libraries and the kernel, caller order.
    pub system_stack: Vec<StackFrame>,
    /// Ground truth carried through for evaluation only.
    pub truth: Option<Provenance>,
}

impl PartitionedEvent {
    /// Set of library names in the system stack (the paper's `Lib`).
    #[must_use]
    pub fn lib_set(&self) -> Vec<&str> {
        let mut libs: Vec<&str> = self.system_stack.iter().map(StackFrame::module).collect();
        libs.sort_unstable();
        libs.dedup();
        libs
    }

    /// Set of `module!function` symbols in the system stack (the paper's
    /// `Func`).
    #[must_use]
    pub fn func_set(&self) -> Vec<&str> {
        let mut funcs: Vec<&str> = self.system_stack.iter().map(StackFrame::symbol).collect();
        funcs.sort_unstable();
        funcs.dedup();
        funcs
    }

    /// The system stack's names in caller order: each frame's module and
    /// its `module!function` symbol, as every encoder reads them.
    pub fn sys_names(&self) -> impl Iterator<Item = (&str, &str)> {
        self.system_stack.iter().map(|f| (f.module(), f.symbol()))
    }
}

/// Returns whether a frame belongs to the system side (shared library or
/// kernel module known to the catalog).
#[must_use]
pub fn is_system_frame(frame: &StackFrame) -> bool {
    SysCatalog::standard().is_library(frame.module())
}

/// Partitions one event's stack walk.
#[must_use]
pub fn partition_event(event: &CorrelatedEvent) -> PartitionedEvent {
    let mut app_stack = Vec::new();
    let mut system_stack = Vec::new();
    for frame in &event.frames {
        let mut f = frame.clone();
        if is_system_frame(frame) {
            f.in_app_image = false;
            system_stack.push(f);
        } else {
            f.in_app_image = true;
            app_stack.push(f);
        }
    }
    PartitionedEvent {
        num: event.num,
        etype: event.etype,
        tid: event.tid,
        app_stack,
        system_stack,
        truth: event.truth,
    }
}

/// Partitions every event of a log.
#[must_use]
pub fn partition_events(events: &[CorrelatedEvent]) -> Vec<PartitionedEvent> {
    events.iter().map(partition_event).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_log;
    use leaps_etw::addr::Va;
    use leaps_etw::logfmt::write_log;
    use leaps_etw::scenario::{GenParams, Scenario};

    fn parsed_mixed(name: &str) -> Vec<CorrelatedEvent> {
        let logs = Scenario::by_name(name).unwrap().generate_events(&GenParams::small(), 3);
        parse_log(&write_log(&logs.mixed)).unwrap().events
    }

    #[test]
    fn partition_recovers_generator_split() {
        // The generator knows which frames were application-side; the
        // partition module must reconstruct that from module names alone.
        let logs =
            Scenario::by_name("vim_reverse_tcp").unwrap().generate_events(&GenParams::small(), 3);
        let parsed = parse_log(&write_log(&logs.mixed)).unwrap();
        for (orig, ev) in logs.mixed.iter().zip(&parsed.events) {
            let p = partition_event(ev);
            let orig_app: Vec<_> = orig.app_frames().map(|f| f.addr).collect();
            let orig_sys: Vec<_> = orig.system_frames().map(|f| f.addr).collect();
            assert_eq!(p.app_stack.iter().map(|f| f.addr).collect::<Vec<_>>(), orig_app);
            assert_eq!(p.system_stack.iter().map(|f| f.addr).collect::<Vec<_>>(), orig_sys);
        }
    }

    #[test]
    fn anonymous_frames_are_application_side() {
        let events = parsed_mixed("putty_reverse_tcp_online");
        let anon_event = events
            .iter()
            .map(partition_event)
            .find(|p| p.app_stack.iter().any(|f| f.module() == "<anon>"))
            .expect("online injection produces anonymous frames");
        assert!(anon_event.app_stack.iter().all(|f| f.in_app_image));
    }

    #[test]
    fn system_stack_is_never_empty_for_generated_events() {
        for p in parsed_mixed("chrome_reverse_https").iter().map(partition_event) {
            assert!(!p.system_stack.is_empty());
            assert!(!p.app_stack.is_empty());
        }
    }

    #[test]
    fn lib_and_func_sets_are_sorted_and_deduped() {
        let ev = CorrelatedEvent {
            num: 1,
            etype: EventType::FileRead,
            pid: 1,
            tid: 2,
            timestamp: 3,
            frames: vec![
                StackFrame::new("myapp", "main", Va(0x100), false),
                StackFrame::new("ntdll", "NtReadFile", Va(0x7ffb_0000_2000), false),
                StackFrame::new("ntdll", "NtReadFile", Va(0x7ffb_0000_2000), false),
                StackFrame::new("kernel32", "ReadFile", Va(0x7ffb_0100_1000), false),
            ],
            truth: None,
        };
        let p = partition_event(&ev);
        assert_eq!(p.lib_set(), vec!["kernel32", "ntdll"]);
        assert_eq!(p.func_set(), vec!["kernel32!ReadFile", "ntdll!NtReadFile"]);
        assert_eq!(p.app_stack.len(), 1);
        assert_eq!(p.app_stack[0].module(), "myapp");
    }

    #[test]
    fn is_system_frame_matches_catalog() {
        assert!(is_system_frame(&StackFrame::new("ntdll", "x", Va(1), false)));
        assert!(is_system_frame(&StackFrame::new("tcpip", "x", Va(1), false)));
        assert!(!is_system_frame(&StackFrame::new("vim", "x", Va(1), false)));
        assert!(!is_system_frame(&StackFrame::new("<anon>", "x", Va(1), false)));
    }
}
