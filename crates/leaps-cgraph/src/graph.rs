//! System-level function call graphs built from system stack traces.

use leaps_trace::partition::PartitionedEvent;
use std::collections::BTreeSet;

/// A call graph over system-level symbols (`module!function`), recording
/// both individual invocation edges and complete per-event invocation
/// chains.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallGraph {
    edges: BTreeSet<(String, String)>,
    chains: BTreeSet<Vec<String>>,
}

impl CallGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> CallGraph {
        CallGraph::default()
    }

    /// Builds the graph from training events' system stack traces.
    #[must_use]
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a PartitionedEvent>) -> CallGraph {
        let mut graph = CallGraph::new();
        for event in events {
            graph.add_event(event);
        }
        graph
    }

    /// Adds one event's system-stack invocation chain.
    pub fn add_event(&mut self, event: &PartitionedEvent) {
        let chain = chain_of(event);
        for w in chain.windows(2) {
            self.edges.insert((w[0].clone(), w[1].clone()));
        }
        if !chain.is_empty() {
            self.chains.insert(chain);
        }
    }

    /// Whether the invocation edge `caller → callee` was observed.
    #[must_use]
    pub fn has_edge(&self, caller: &str, callee: &str) -> bool {
        // BTreeSet<(String, String)> lookup without allocation is awkward;
        // graphs are queried orders of magnitude more than built, but the
        // tuple-key representation keeps construction simple and the
        // O(log n) ordered lookup keeps persisted iteration sorted.
        self.edges.contains(&(caller.to_owned(), callee.to_owned()))
    }

    /// Whether the exact invocation chain was observed in training.
    #[must_use]
    pub fn has_chain(&self, chain: &[String]) -> bool {
        self.chains.contains(chain)
    }

    /// Number of distinct edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of distinct chains.
    #[must_use]
    pub fn chain_count(&self) -> usize {
        self.chains.len()
    }

    /// Iterates all edges (for persistence) in sorted order, so
    /// persisted artifacts are byte-identical across runs.
    pub fn edges(&self) -> impl Iterator<Item = (&str, &str)> {
        self.edges.iter().map(|(a, b)| (a.as_str(), b.as_str()))
    }

    /// Iterates all chains (for persistence) in sorted order.
    pub fn chains(&self) -> impl Iterator<Item = &[String]> {
        self.chains.iter().map(Vec::as_slice)
    }

    /// Reassembles a graph from persisted edges and chains.
    #[must_use]
    pub fn from_parts(
        edges: impl IntoIterator<Item = (String, String)>,
        chains: impl IntoIterator<Item = Vec<String>>,
    ) -> CallGraph {
        CallGraph { edges: edges.into_iter().collect(), chains: chains.into_iter().collect() }
    }

    /// Whether every edge of `chain` appears in the graph.
    #[must_use]
    pub fn contains_all_edges(&self, chain: &[String]) -> bool {
        chain.windows(2).all(|w| self.edges.contains(&(w[0].clone(), w[1].clone())))
    }
}

/// The system-level invocation chain of an event: symbols of the system
/// stack in caller order.
#[must_use]
pub fn chain_of(event: &PartitionedEvent) -> Vec<String> {
    event.system_stack.iter().map(|f| f.symbol().to_owned()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaps_etw::addr::Va;
    use leaps_etw::event::{EventType, StackFrame};

    fn event(syms: &[(&str, &str)]) -> PartitionedEvent {
        PartitionedEvent {
            num: 1,
            etype: EventType::FileRead,
            tid: 1,
            app_stack: vec![StackFrame::new("app", "main", Va(1), true)],
            system_stack: syms
                .iter()
                .enumerate()
                .map(|(i, &(m, f))| StackFrame::new(m, f, Va(0x7000 + i as u64), false))
                .collect(),
            truth: None,
        }
    }

    #[test]
    fn edges_and_chains_are_recorded() {
        let g = CallGraph::from_events([&event(&[
            ("kernel32", "ReadFile"),
            ("ntdll", "NtReadFile"),
            ("ntoskrnl", "NtReadFile"),
        ])]);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.chain_count(), 1);
        assert!(g.has_edge("kernel32!ReadFile", "ntdll!NtReadFile"));
        assert!(!g.has_edge("ntdll!NtReadFile", "kernel32!ReadFile"));
        assert!(g.has_chain(&[
            "kernel32!ReadFile".into(),
            "ntdll!NtReadFile".into(),
            "ntoskrnl!NtReadFile".into()
        ]));
    }

    #[test]
    fn contains_all_edges_checks_each_pair() {
        let g = CallGraph::from_events([&event(&[("a", "f"), ("b", "g"), ("c", "h")])]);
        assert!(g.contains_all_edges(&["a!f".into(), "b!g".into()]));
        assert!(g.contains_all_edges(&["a!f".into(), "b!g".into(), "c!h".into()]));
        assert!(!g.contains_all_edges(&["a!f".into(), "c!h".into()]));
        // Empty / single-node chains vacuously match.
        assert!(g.contains_all_edges(&[]));
        assert!(g.contains_all_edges(&["zzz!q".into()]));
    }

    #[test]
    fn duplicate_events_do_not_duplicate_edges() {
        let e = event(&[("a", "f"), ("b", "g")]);
        let g = CallGraph::from_events([&e, &e, &e]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.chain_count(), 1);
    }

    #[test]
    fn empty_system_stack_contributes_nothing() {
        let g = CallGraph::from_events([&event(&[])]);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.chain_count(), 0);
    }
}
