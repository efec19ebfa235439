//! Causal span forests: reconstruction, validation, critical-path
//! extraction and per-stage rollups over the hierarchical
//! [`TraceEvent::Span`] events the engine emits.
//!
//! Producers stamp every span with a trace-unique `id` and the `parent`
//! id that was current when the work was *scheduled* (0 = root). The
//! parent link travels with the job closure across the worker pool,
//! so the tree reflects causality, not thread residency. This module
//! turns the flat drained event list back into a forest,
//! checks it is well-formed (unique ids, no orphan parents, children
//! nested inside their parent's `[start, end]` window) and answers the
//! two questions attribution needs: *where did the wall-clock go*
//! (critical path — from each root, repeatedly follow the child that
//! finished last) and *what did each stage cost in total* (rollups,
//! which reconcile exactly with the engine's stage timers because the
//! engine feeds both from the same start/duration pair).

use crate::trace::TraceEvent;
use std::collections::BTreeMap;

/// One reconstructed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Span id (non-zero unless the producer was causality-blind).
    pub id: u64,
    /// Parent span id, 0 for roots.
    pub parent: u64,
    /// Stage name (`compile`, `emulate`, `encode`, `cache-probe`, …).
    pub name: &'static str,
    /// What was processed (workload name, `artifact-scheme` label, …).
    pub detail: String,
    /// Start in clock nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

impl SpanNode {
    /// End timestamp (`start + dur`, saturating).
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

/// Why a drained event list does not form a well-formed forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForestError {
    /// Two spans carried the same non-zero id.
    DuplicateId(u64),
    /// A span's parent id names no span in the trace.
    OrphanParent {
        /// The child span's id.
        id: u64,
        /// The dangling parent id.
        parent: u64,
    },
    /// A child's `[start, end]` window is not contained in its
    /// parent's.
    NotNested {
        /// The child span's id.
        id: u64,
        /// The parent span's id.
        parent: u64,
    },
    /// A span is its own ancestor.
    Cycle(u64),
}

impl std::fmt::Display for ForestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForestError::DuplicateId(id) => write!(f, "duplicate span id {id}"),
            ForestError::OrphanParent { id, parent } => {
                write!(f, "span {id} has orphan parent {parent}")
            }
            ForestError::NotNested { id, parent } => {
                write!(f, "span {id} not nested within parent {parent}")
            }
            ForestError::Cycle(id) => write!(f, "span {id} is its own ancestor"),
        }
    }
}

/// A validated forest of [`SpanNode`]s.
#[derive(Debug, Clone, Default)]
pub struct SpanForest {
    nodes: Vec<SpanNode>,
    /// Children (indices into `nodes`) per span id.
    children: BTreeMap<u64, Vec<usize>>,
    /// Indices of root nodes (parent 0 or anonymous id 0).
    roots: Vec<usize>,
}

impl SpanForest {
    /// Reconstructs and validates the forest from a drained event list.
    ///
    /// Spans with id 0 (causality-blind producers) are accepted as
    /// anonymous roots but cannot be parents. Fetch events are ignored.
    ///
    /// # Errors
    ///
    /// Returns the first [`ForestError`] found: duplicate non-zero ids,
    /// parent links naming no span, children not nested inside their
    /// parent's time window, or parent cycles.
    pub fn build(events: &[TraceEvent]) -> Result<SpanForest, ForestError> {
        let mut nodes = Vec::new();
        for ev in events {
            if let TraceEvent::Span {
                name,
                detail,
                id,
                parent,
                start_ns,
                dur_ns,
            } = ev
            {
                nodes.push(SpanNode {
                    id: *id,
                    parent: *parent,
                    name,
                    detail: detail.clone(),
                    start_ns: *start_ns,
                    dur_ns: *dur_ns,
                });
            }
        }
        let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            if n.id != 0 && by_id.insert(n.id, i).is_some() {
                return Err(ForestError::DuplicateId(n.id));
            }
        }
        let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        let mut roots = Vec::new();
        for (i, n) in nodes.iter().enumerate() {
            if n.parent == 0 {
                roots.push(i);
                continue;
            }
            let Some(&pi) = by_id.get(&n.parent) else {
                return Err(ForestError::OrphanParent {
                    id: n.id,
                    parent: n.parent,
                });
            };
            let p = &nodes[pi];
            if n.start_ns < p.start_ns || n.end_ns() > p.end_ns() {
                return Err(ForestError::NotNested {
                    id: n.id,
                    parent: n.parent,
                });
            }
            children.entry(n.parent).or_default().push(i);
        }
        // Cycle check: walk each node's ancestor chain; the nesting
        // check above already forbids most cycles, but zero-duration
        // spans could tie, so check explicitly.
        for n in &nodes {
            let mut hops = 0usize;
            let mut cur = n.parent;
            while cur != 0 {
                hops += 1;
                if hops > nodes.len() {
                    return Err(ForestError::Cycle(n.id));
                }
                cur = nodes[by_id[&cur]].parent;
            }
        }
        Ok(SpanForest {
            nodes,
            children,
            roots,
        })
    }

    /// All spans, in recorded order.
    pub fn nodes(&self) -> &[SpanNode] {
        &self.nodes
    }

    /// Whether the forest holds no spans.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Root spans (parent 0), in recorded order.
    pub fn roots(&self) -> impl Iterator<Item = &SpanNode> {
        self.roots.iter().map(|&i| &self.nodes[i])
    }

    /// Direct children of span `id`, in recorded order.
    pub fn children_of(&self, id: u64) -> impl Iterator<Item = &SpanNode> {
        self.children
            .get(&id)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(|&i| &self.nodes[i])
    }

    /// The critical path of the forest: starting from the root that
    /// finished last, repeatedly descend into the child that finished
    /// last. This is the chain of spans that bounded the run's
    /// wall-clock — shortening anything off this path cannot have made
    /// the run end earlier.
    pub fn critical_path(&self) -> Vec<&SpanNode> {
        let mut path = Vec::new();
        let Some(mut cur) = self.roots().max_by_key(|n| (n.end_ns(), n.id)) else {
            return path;
        };
        loop {
            path.push(cur);
            let Some(next) = self.children_of(cur.id).max_by_key(|n| (n.end_ns(), n.id)) else {
                return path;
            };
            cur = next;
        }
    }

    /// Total duration and span count per stage name, sorted by name.
    /// For the engine's stage spans this reconciles *exactly* with its
    /// `EngineSnapshot` timers: both sides are fed the same
    /// start/duration pair.
    pub fn stage_rollup(&self) -> BTreeMap<String, StageRollup> {
        let mut out: BTreeMap<String, StageRollup> = BTreeMap::new();
        for n in &self.nodes {
            let e = out.entry(n.name.to_string()).or_default();
            e.count += 1;
            e.total_ns += n.dur_ns;
        }
        out
    }
}

/// Per-stage aggregate: how many spans and their summed duration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageRollup {
    /// Number of spans with this stage name.
    pub count: u64,
    /// Summed span duration in nanoseconds.
    pub total_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start: u64, dur: u64) -> TraceEvent {
        TraceEvent::Span {
            name,
            detail: format!("d{id}"),
            id,
            parent,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn builds_a_nested_forest_and_finds_the_critical_path() {
        let events = vec![
            span("prepare", 1, 0, 0, 100),
            span("workload", 2, 1, 0, 40),
            span("workload", 3, 1, 10, 90),
            span("compile", 4, 2, 0, 20),
            span("encode", 5, 3, 50, 50),
        ];
        let f = SpanForest::build(&events).unwrap();
        assert_eq!(f.nodes().len(), 5);
        assert_eq!(f.roots().count(), 1);
        let path: Vec<u64> = f.critical_path().iter().map(|n| n.id).collect();
        assert_eq!(path, vec![1, 3, 5], "latest-finishing chain");
        let roll = f.stage_rollup();
        assert_eq!(roll["workload"].count, 2);
        assert_eq!(roll["workload"].total_ns, 130);
    }

    #[test]
    fn orphan_parent_is_rejected() {
        let events = vec![span("compile", 1, 99, 0, 10)];
        assert_eq!(
            SpanForest::build(&events).unwrap_err(),
            ForestError::OrphanParent { id: 1, parent: 99 }
        );
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let events = vec![span("a", 7, 0, 0, 1), span("b", 7, 0, 0, 1)];
        assert_eq!(
            SpanForest::build(&events).unwrap_err(),
            ForestError::DuplicateId(7)
        );
    }

    #[test]
    fn non_nested_child_is_rejected() {
        let events = vec![span("p", 1, 0, 10, 10), span("c", 2, 1, 5, 10)];
        assert_eq!(
            SpanForest::build(&events).unwrap_err(),
            ForestError::NotNested { id: 2, parent: 1 }
        );
    }

    #[test]
    fn cycles_are_rejected() {
        // Two zero-width spans pointing at each other tie on nesting.
        let events = vec![span("a", 1, 2, 0, 0), span("b", 2, 1, 0, 0)];
        let err = SpanForest::build(&events).unwrap_err();
        assert!(matches!(err, ForestError::Cycle(_)), "{err:?}");
    }

    #[test]
    fn anonymous_spans_are_roots() {
        let events = vec![span("legacy", 0, 0, 0, 5), span("legacy", 0, 0, 2, 9)];
        let f = SpanForest::build(&events).unwrap();
        assert_eq!(f.roots().count(), 2);
        let path = f.critical_path();
        assert_eq!(path.len(), 1);
        assert_eq!(path[0].end_ns(), 11);
    }
}
