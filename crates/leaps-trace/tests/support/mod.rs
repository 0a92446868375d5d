//! Proptest strategies for well-formed raw logs and fault plans, shared
//! by the parser's fault fuzzing (`tests/fault_fuzz.rs`) and its oracle
//! test (`src/parser/reference.rs`).

use leaps_etw::addr::Va;
use leaps_etw::event::{EventType, Provenance, StackFrame, SysEvent};
use leaps_faults::{FaultClass, FaultPlan};
use proptest::prelude::*;

fn module_name() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec!["ntdll", "kernel32", "ws2_32", "tcpip", "vim", "myapp", "<anon>"])
}

fn frame() -> impl Strategy<Value = StackFrame> {
    (module_name(), 0u32..40, 0u64..0xffff_ffff).prop_map(|(module, fidx, addr)| {
        StackFrame::new(module, format!("f{fidx}"), Va(addr), false)
    })
}

fn event(num: u64) -> impl Strategy<Value = SysEvent> {
    (
        prop::sample::select(EventType::ALL.to_vec()),
        prop::collection::vec(frame(), 1..10),
        0u32..9999,
        0u32..9999,
        prop::bool::ANY,
    )
        .prop_map(move |(etype, frames, pid, tid, malicious)| SysEvent {
            num,
            etype,
            pid,
            tid,
            timestamp: num * 17,
            frames,
            truth: if malicious { Provenance::Malicious } else { Provenance::Benign },
        })
}

pub fn event_log() -> impl Strategy<Value = Vec<SysEvent>> {
    prop::collection::vec(prop::num::u8::ANY, 1..30).prop_flat_map(|nums| {
        let strategies: Vec<_> =
            nums.iter().enumerate().map(|(i, _)| event(i as u64 + 1)).collect();
        strategies
    })
}

/// Strategy: a fault plan with arbitrary per-class rates up to 0.6 and an
/// arbitrary jitter window.
pub fn fault_plan() -> impl Strategy<Value = FaultPlan> {
    (prop::collection::vec(0.0f64..0.6, 6), 1usize..6).prop_map(|(rates, jitter)| {
        let mut plan = FaultPlan::none();
        for (class, &rate) in FaultClass::ALL.iter().zip(&rates) {
            plan.set(*class, rate);
        }
        plan.reorder_jitter = jitter;
        plan
    })
}
