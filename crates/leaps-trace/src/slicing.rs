//! Per-process application slicing (paper Section II-B-2: "we perform
//! application slicing on the system event log").
//!
//! A production trace interleaves events from every process on the host;
//! LEAPS trains and tests per application of interest, so the front end
//! slices the correlated log by process id.

use crate::parser::{CorrelatedEvent, CorrelatedLog};
use std::collections::BTreeMap;

/// Groups a log's events per process id, preserving log order within each
/// process.
#[must_use]
pub fn slice_by_process(log: &CorrelatedLog) -> BTreeMap<u32, Vec<CorrelatedEvent>> {
    let mut slices: BTreeMap<u32, Vec<CorrelatedEvent>> = BTreeMap::new();
    for event in &log.events {
        slices.entry(event.pid).or_default().push(event.clone());
    }
    slices
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaps_etw::addr::Va;
    use leaps_etw::event::EventType;
    use leaps_etw::event::StackFrame;

    fn event(num: u64, pid: u32) -> CorrelatedEvent {
        CorrelatedEvent {
            num,
            etype: EventType::FileRead,
            pid,
            tid: 1,
            timestamp: num,
            frames: vec![StackFrame::new("m", "f", Va(num), false)],
            truth: None,
        }
    }

    fn log() -> CorrelatedLog {
        CorrelatedLog {
            events: vec![event(1, 10), event(2, 20), event(3, 10), event(4, 30), event(5, 20)],
        }
    }

    #[test]
    fn slices_group_by_pid_preserving_order() {
        let slices = slice_by_process(&log());
        assert_eq!(slices.len(), 3);
        assert_eq!(slices[&10].iter().map(|e| e.num).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(slices[&20].iter().map(|e| e.num).collect::<Vec<_>>(), vec![2, 5]);
        assert_eq!(slices[&30].len(), 1);
    }
}
