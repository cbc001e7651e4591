//! Incremental construction of interaction graphs.

use crate::error::GraphError;
use crate::event::{Event, Flow, NodeId, Timestamp};
use crate::multigraph::{Interaction, TemporalMultigraph};
use crate::tsgraph::TimeSeriesGraph;
use flowmotif_util::FxHashMap;

/// Accumulates raw interactions and produces either representation.
///
/// The builder groups interactions per `(u, v)` pair as they arrive, so
/// building the time-series graph is a sort of the (much smaller) pair set
/// rather than of the full edge list.
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    num_nodes: usize,
    num_interactions: usize,
    per_pair: FxHashMap<(NodeId, NodeId), Vec<Event>>,
    allow_self_loops: bool,
}

impl GraphBuilder {
    /// Creates an empty builder (equivalent to `GraphBuilder::default()`).
    /// Self-loops are rejected by [`GraphBuilder::try_add_interaction`]
    /// unless enabled via [`GraphBuilder::allow_self_loops`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Permits `u -> u` interactions (off by default: in the paper's data
    /// model flow transfers connect distinct parties, and motif spanning
    /// paths never map two adjacent motif nodes to the same graph node).
    pub fn allow_self_loops(mut self, allow: bool) -> Self {
        self.allow_self_loops = allow;
        self
    }

    /// Adds one interaction; panics on invalid input (see
    /// [`GraphBuilder::try_add_interaction`] for the checked variant).
    pub fn add_interaction(&mut self, from: NodeId, to: NodeId, time: Timestamp, flow: Flow) {
        self.try_add_interaction(from, to, time, flow).expect("invalid interaction");
    }

    /// Adds one interaction, validating flow positivity and self-loops.
    pub fn try_add_interaction(
        &mut self,
        from: NodeId,
        to: NodeId,
        time: Timestamp,
        flow: Flow,
    ) -> Result<(), GraphError> {
        check_interaction(from, to, flow, self.allow_self_loops)?;
        self.num_nodes = self.num_nodes.max(from.max(to) as usize + 1);
        self.num_interactions += 1;
        self.per_pair.entry((from, to)).or_default().push(Event::new(time, flow));
        Ok(())
    }

    /// Bulk-adds interactions from an iterator of `(from, to, time, flow)`,
    /// pre-reserving pair-table capacity from the iterator's `size_hint`.
    /// The distinct-pair count is at most the interaction count but can be
    /// far smaller (hot pairs), so the reservation is capped — sparse
    /// streams skip the rehash cascade, dense ones don't over-allocate.
    pub fn extend_interactions<I>(&mut self, iter: I)
    where
        I: IntoIterator<Item = (NodeId, NodeId, Timestamp, Flow)>,
    {
        const RESERVE_CAP: usize = 1 << 20;
        let iter = iter.into_iter();
        let (lo, _) = iter.size_hint();
        self.per_pair.reserve(lo.min(RESERVE_CAP));
        for (u, v, t, f) in iter {
            self.add_interaction(u, v, t, f);
        }
    }

    /// Number of interactions added so far.
    pub fn num_interactions(&self) -> usize {
        self.num_interactions
    }

    /// Number of distinct connected pairs so far.
    pub fn num_pairs(&self) -> usize {
        self.per_pair.len()
    }

    /// Finalizes into the merged time-series graph `G_T`.
    pub fn build_time_series_graph(self) -> TimeSeriesGraph {
        TimeSeriesGraph::from_pair_events(self.num_nodes, self.per_pair.into_iter().collect())
    }

    /// Finalizes into the raw multigraph (interaction order is per-pair,
    /// then by arrival).
    pub fn build_multigraph(self) -> TemporalMultigraph {
        let mut g = TemporalMultigraph::with_capacity(self.num_nodes, self.num_interactions);
        for ((u, v), events) in self.per_pair {
            for e in events {
                g.push(Interaction::new(u, v, e.time, e.flow));
            }
        }
        g
    }
}

/// The most nodes an edge list of `interactions` interactions may imply:
/// 16 per interaction, and at least 2^20. Node ids index dense arrays
/// (node count = largest id + 1), so a loader refuses a larger count
/// with [`GraphError::SparseNodeId`] before it allocates any of them.
pub const fn max_dense_nodes(interactions: usize) -> u64 {
    let per_interaction = (interactions as u64).saturating_mul(16);
    if per_interaction > 1 << 20 {
        per_interaction
    } else {
        1 << 20
    }
}

/// The largest node id an edge-list loader has seen and the line that
/// first named it: what the loader sizes its node-indexed arrays by.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeIdRange {
    max: Option<(NodeId, usize)>,
}

impl NodeIdRange {
    /// Records an interaction `from -> to` read on 1-based line `line`.
    #[inline]
    pub(crate) fn see(&mut self, from: NodeId, to: NodeId, line: usize) {
        let id = from.max(to);
        if self.max.is_none_or(|(max, _)| id > max) {
            self.max = Some((id, line));
        }
    }

    /// Folds in the range of a later part of the input, whose line
    /// numbers start after `lines_before` lines: the result is what
    /// seeing both parts in order would have recorded.
    pub(crate) fn merge(&mut self, later: NodeIdRange, lines_before: usize) {
        if let Some((id, line)) = later.max {
            self.see(id, id, line + lines_before);
        }
    }

    /// The node count (largest id + 1), or [`GraphError::SparseNodeId`]
    /// when it exceeds [`max_dense_nodes`] for `interactions`.
    pub(crate) fn num_nodes(&self, interactions: usize) -> Result<usize, GraphError> {
        let Some((id, line)) = self.max else { return Ok(0) };
        let nodes = u64::from(id) + 1;
        if nodes > max_dense_nodes(interactions) {
            return Err(GraphError::SparseNodeId { id: id.into(), line, interactions });
        }
        Ok(nodes as usize)
    }
}

/// The checks every edge-list consumer applies to an interaction: a
/// finite, positive flow, then no self-loop unless allowed.
pub(crate) fn check_interaction(
    from: NodeId,
    to: NodeId,
    flow: Flow,
    allow_self_loops: bool,
) -> Result<(), GraphError> {
    if !(flow.is_finite() && flow > 0.0) {
        return Err(GraphError::InvalidFlow { flow, from: from as u64, to: to as u64 });
    }
    if from == to && !allow_self_loops {
        return Err(GraphError::SelfLoop(from as u64));
    }
    Ok(())
}

impl From<&TemporalMultigraph> for TimeSeriesGraph {
    fn from(g: &TemporalMultigraph) -> Self {
        let mut b = GraphBuilder::new().allow_self_loops(true);
        for i in g.interactions() {
            b.add_interaction(i.from, i.to, i.time, i.flow);
        }
        // Preserve isolated trailing nodes.
        let mut ts = b.build_time_series_graph();
        if ts.num_nodes() < g.num_nodes() {
            ts = TimeSeriesGraph::from_pair_events(
                g.num_nodes(),
                ts.pairs()
                    .iter()
                    .zip(ts.all_series())
                    .map(|(&p, s)| (p, s.events().to_vec()))
                    .collect(),
            );
        }
        ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_counts() {
        let mut b = GraphBuilder::new();
        b.add_interaction(0, 1, 1, 1.0);
        b.add_interaction(0, 1, 2, 1.0);
        b.add_interaction(1, 2, 3, 1.0);
        assert_eq!(b.num_interactions(), 3);
        assert_eq!(b.num_pairs(), 2);
        let g = b.build_time_series_graph();
        assert_eq!(g.num_pairs(), 2);
        assert_eq!(g.num_interactions(), 3);
    }

    #[test]
    fn rejects_nonpositive_flow() {
        let mut b = GraphBuilder::new();
        assert!(b.try_add_interaction(0, 1, 1, 0.0).is_err());
        assert!(b.try_add_interaction(0, 1, 1, -2.0).is_err());
        assert!(b.try_add_interaction(0, 1, 1, f64::NAN).is_err());
        assert!(b.try_add_interaction(0, 1, 1, f64::INFINITY).is_err());
        assert_eq!(b.num_interactions(), 0);
    }

    #[test]
    fn rejects_self_loops_unless_allowed() {
        let mut b = GraphBuilder::new();
        assert!(b.try_add_interaction(5, 5, 1, 1.0).is_err());
        let mut b = GraphBuilder::new().allow_self_loops(true);
        assert!(b.try_add_interaction(5, 5, 1, 1.0).is_ok());
    }

    #[test]
    fn multigraph_round_trip() {
        let mut b = GraphBuilder::new();
        b.extend_interactions([(0, 1, 5, 2.0), (1, 2, 6, 3.0), (0, 1, 7, 4.0)]);
        let mg = b.build_multigraph();
        assert_eq!(mg.num_interactions(), 3);
        let ts: TimeSeriesGraph = (&mg).into();
        assert_eq!(ts.num_pairs(), 2);
        assert_eq!(ts.series(ts.pair_id(0, 1).unwrap()).len(), 2);
    }

    #[test]
    fn conversion_preserves_isolated_nodes() {
        let mut mg = TemporalMultigraph::with_capacity(50, 1);
        mg.push(Interaction::new(0, 1, 1, 1.0));
        let ts: TimeSeriesGraph = (&mg).into();
        assert_eq!(ts.num_nodes(), 50);
    }
}
