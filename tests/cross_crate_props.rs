//! Property-based tests on cross-crate invariants: arbitrary inputs
//! flowing through parser ↔ writer, CFG inference, weight assessment and
//! the SVM must uphold their contracts.

use leaps::cfg::graph::Cfg;
use leaps::cfg::infer::infer_cfg;
use leaps::cfg::weight::{assess_weights, WeightConfig};
use leaps::cluster::dissim::jaccard_dissimilarity;
use leaps::etw::addr::Va;
use leaps::etw::event::{EventType, Provenance, StackFrame, SysEvent};
use leaps::etw::logfmt::write_log;
use leaps::svm::data::{Sample, TrainSet};
use leaps::svm::kernel::Kernel;
use leaps::svm::smo::{train, SmoParams};
use leaps::trace::parser::parse_log;
use leaps::trace::partition::partition_events;
use proptest::prelude::*;

/// Strategy: an arbitrary module name drawn from system + app modules.
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
        prop::collection::vec(frame(), 1..12),
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

fn event_log() -> impl Strategy<Value = Vec<SysEvent>> {
    prop::collection::vec(prop::num::u8::ANY, 1..40).prop_flat_map(|nums| {
        let strategies: Vec<_> =
            nums.iter().enumerate().map(|(i, _)| event(i as u64 + 1)).collect();
        strategies
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Writer → parser roundtrips every field of arbitrary events.
    #[test]
    fn log_roundtrip(events in event_log()) {
        let raw = write_log(&events);
        let parsed = parse_log(&raw).expect("generated logs always parse");
        prop_assert_eq!(parsed.events.len(), events.len());
        for (orig, got) in events.iter().zip(&parsed.events) {
            prop_assert_eq!(got.num, orig.num);
            prop_assert_eq!(got.etype, orig.etype);
            prop_assert_eq!(got.pid, orig.pid);
            prop_assert_eq!(got.tid, orig.tid);
            prop_assert_eq!(got.timestamp, orig.timestamp);
            prop_assert_eq!(got.truth, Some(orig.truth));
            prop_assert_eq!(got.frames.len(), orig.frames.len());
            for (fo, fg) in orig.frames.iter().zip(&got.frames) {
                prop_assert_eq!(&fg.module, &fo.module);
                prop_assert_eq!(&fg.function, &fo.function);
                prop_assert_eq!(fg.addr, fo.addr);
            }
        }
    }

    /// Partitioning never loses or duplicates frames, and classifies by
    /// module catalog membership.
    #[test]
    fn partition_is_a_partition(events in event_log()) {
        let raw = write_log(&events);
        let parsed = parse_log(&raw).unwrap();
        for (orig, part) in parsed.events.iter().zip(partition_events(&parsed.events)) {
            prop_assert_eq!(
                part.app_stack.len() + part.system_stack.len(),
                orig.frames.len()
            );
            for f in &part.app_stack {
                prop_assert!(f.in_app_image);
            }
            for f in &part.system_stack {
                prop_assert!(!f.in_app_image);
            }
        }
    }

    /// CFG inference: every explicit invocation pair of every app stack is
    /// an edge, and the event map points back at real edges.
    #[test]
    fn cfg_inference_covers_explicit_paths(events in event_log()) {
        let raw = write_log(&events);
        let parsed = parse_log(&raw).unwrap();
        let partitioned = partition_events(&parsed.events);
        let out = infer_cfg(&partitioned);
        for e in &partitioned {
            let addrs: Vec<Va> = e.app_stack.iter().map(|f| f.addr).collect();
            for w in addrs.windows(2) {
                prop_assert!(out.cfg.has_edge(w[0], w[1]));
            }
        }
        for (&(s, t), nums) in &out.edge_events {
            prop_assert!(out.cfg.has_edge(s, t));
            prop_assert!(!nums.is_empty());
        }
    }

    /// Weight assessment always yields benignity in [0, 1], and an empty
    /// benign CFG scores everything fully malicious.
    #[test]
    fn weights_stay_in_unit_interval(events in event_log()) {
        let raw = write_log(&events);
        let parsed = parse_log(&raw).unwrap();
        let partitioned = partition_events(&parsed.events);
        let mixed = infer_cfg(&partitioned);
        let half = partitioned.len() / 2;
        let benign = infer_cfg(&partitioned[..half]);
        let weights = assess_weights(&benign.cfg, &mixed, WeightConfig::default());
        for (_, b) in weights.iter() {
            prop_assert!((0.0..=1.0).contains(&b));
        }
        let empty = Cfg::new();
        let zero = assess_weights(&empty, &mixed, WeightConfig::default());
        for (_, b) in zero.iter() {
            prop_assert_eq!(b, 0.0);
        }
    }

    /// Jaccard dissimilarity is a bounded, symmetric semimetric with
    /// identity of indiscernibles on arbitrary string sets.
    #[test]
    fn jaccard_properties(
        a in prop::collection::btree_set("[a-f]{1,3}", 0..8),
        b in prop::collection::btree_set("[a-f]{1,3}", 0..8),
    ) {
        let av: Vec<&String> = a.iter().collect();
        let bv: Vec<&String> = b.iter().collect();
        let dab = jaccard_dissimilarity(&av, &bv);
        let dba = jaccard_dissimilarity(&bv, &av);
        prop_assert!((0.0..=1.0).contains(&dab));
        prop_assert_eq!(dab, dba);
        prop_assert_eq!(jaccard_dissimilarity(&av, &av), 0.0);
        if a == b {
            prop_assert_eq!(dab, 0.0);
        } else {
            prop_assert!(dab > 0.0);
        }
    }

    /// The SMO solution always satisfies the dual constraints:
    /// Σ αᵢyᵢ = 0 and 0 ≤ αᵢ ≤ λ·cᵢ.
    #[test]
    fn smo_respects_dual_constraints(
        xs in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..=1.0), 4..24),
        lambda in 0.5f64..50.0,
    ) {
        // First half positive, second half negative (so both classes exist).
        let n = xs.len();
        let samples: Vec<Sample> = xs
            .iter()
            .enumerate()
            .map(|(i, &(x0, x1, c))| {
                let y = if i < n / 2 { 1.0 } else { -1.0 };
                // Positives get weight 1 as in the pipeline.
                let c = if y > 0.0 { 1.0 } else { c };
                Sample::new(vec![x0, x1], y, c)
            })
            .collect();
        let set = TrainSet::new(samples).expect("two classes by construction");
        let model = train(
            &set,
            Kernel::Gaussian { sigma2: 1.0 },
            &SmoParams { lambda, ..Default::default() },
        );
        let mut balance = 0.0;
        for (alpha_y, sv) in model.dual_coefficients() {
            balance += alpha_y;
            let matching: Vec<&Sample> = set
                .samples()
                .iter()
                .filter(|s| s.x == sv)
                .collect();
            prop_assert!(!matching.is_empty());
            let max_cap = matching
                .iter()
                .map(|s| lambda * s.c)
                .fold(0.0f64, f64::max);
            prop_assert!(alpha_y.abs() <= max_cap * matching.len() as f64 + 1e-7);
        }
        prop_assert!(balance.abs() < 1e-6, "balance {balance}");
    }
}
