//! Property-based fuzzing of the parser against injected telemetry
//! faults: whatever `leaps-faults` does to a well-formed raw log, the
//! strict parser must fail cleanly (no panic) and the lenient parser must
//! recover — every record is either parsed or quarantined, never lost to
//! a crash.

mod support;

use leaps_etw::logfmt::write_log;
use leaps_faults::{inject, FaultClass, FaultPlan};
use leaps_trace::parser::{parse_log, parse_log_lenient};
use proptest::prelude::*;
use support::{event_log, fault_plan};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The lenient parser survives every injected fault combination:
    /// no panic, and every surviving record is parsed or quarantined.
    #[test]
    fn lenient_parser_recovers_any_faulted_log(
        events in event_log(),
        plan in fault_plan(),
        seed in prop::num::u64::ANY,
    ) {
        let raw = write_log(&events);
        let (damaged, inject_stats) = inject(&raw, &plan, seed);
        let recovered = parse_log_lenient(&damaged);
        prop_assert_eq!(recovered.events.len(), recovered.stats.parsed);
        prop_assert!(
            recovered.stats.parsed + recovered.stats.quarantined
                <= inject_stats.records_out,
            "{} parsed + {} quarantined > {} records in the damaged log",
            recovered.stats.parsed,
            recovered.stats.quarantined,
            inject_stats.records_out
        );
    }

    /// The strict parser never panics on a faulted log — it returns
    /// either a parse or a typed error.
    #[test]
    fn strict_parser_fails_cleanly_on_faulted_log(
        events in event_log(),
        plan in fault_plan(),
        seed in prop::num::u64::ANY,
    ) {
        let raw = write_log(&events);
        let (damaged, _) = inject(&raw, &plan, seed);
        match parse_log(&damaged) {
            Ok(parsed) => prop_assert!(parsed.events.len() <= 2 * events.len()),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    /// A clean plan is the identity: lenient parsing of the injected log
    /// equals strict parsing of the original.
    #[test]
    fn clean_plan_is_identity(events in event_log(), seed in prop::num::u64::ANY) {
        let raw = write_log(&events);
        let (damaged, inject_stats) = inject(&raw, &FaultPlan::none(), seed);
        prop_assert_eq!(&damaged, &raw);
        prop_assert_eq!(inject_stats.total_faults(), 0);
        let strict = parse_log(&raw).expect("clean logs parse strictly");
        let recovered = parse_log_lenient(&damaged);
        prop_assert!(recovered.stats.is_clean());
        prop_assert_eq!(recovered.events.len(), strict.events.len());
        for (a, b) in strict.events.iter().zip(&recovered.events) {
            prop_assert_eq!(a.num, b.num);
            prop_assert_eq!(a.frames.len(), b.frames.len());
        }
    }

    /// With only record drops, every recovered event is one of the
    /// originals, in original order (drops never invent or reorder data).
    #[test]
    fn drops_preserve_order_of_survivors(
        events in event_log(),
        rate in 0.0f64..0.9,
        seed in prop::num::u64::ANY,
    ) {
        let raw = write_log(&events);
        let plan = FaultPlan::only(FaultClass::DropEvent, rate);
        let (damaged, _) = inject(&raw, &plan, seed);
        let recovered = parse_log_lenient(&damaged);
        prop_assert!(recovered.stats.is_clean(), "drops leave well-formed records");
        let nums: Vec<u64> = recovered.events.iter().map(|e| e.num).collect();
        let mut expected = nums.clone();
        expected.sort_unstable();
        prop_assert_eq!(&nums, &expected, "survivor order changed");
        let original: std::collections::HashSet<u64> =
            events.iter().map(|e| e.num).collect();
        prop_assert!(nums.iter().all(|n| original.contains(n)));
    }
}
