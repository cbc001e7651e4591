//! Structural matches (phase P1 output) and flow motif instances (phase P2
//! output) — paper Def. 3.2.

use flowmotif_graph::{Event, Flow, GraphStore, NodeId, PairId, Timestamp};

/// A structural match `G_s` of a motif in `G_T` (paper phase P1, Fig. 6):
/// a mapping from motif vertices and edges to graph vertices and `G_T`
/// pairs that respects the motif structure, ignoring time and flow.
#[derive(Debug, Default, PartialEq, Eq, Hash)]
pub struct StructuralMatch {
    /// `nodes[w]` is the graph vertex that motif vertex `w` maps to (the
    /// bijection µ of Def. 3.2). Distinct motif vertices map to distinct
    /// graph vertices.
    pub nodes: Vec<NodeId>,
    /// `pairs[i]` is the `G_T` pair instantiating motif edge `e_{i+1}`.
    pub pairs: Vec<PairId>,
}

// Hand-written so `clone_from` recycles the destination's vectors (the
// derive's `clone_from` falls back to a fresh clone) — the top-k sink
// and the DP driver overwrite a retained match per improvement and must
// not re-allocate in steady state.
impl Clone for StructuralMatch {
    fn clone(&self) -> Self {
        Self { nodes: self.nodes.clone(), pairs: self.pairs.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.nodes.clone_from(&source.nodes);
        self.pairs.clone_from(&source.pairs);
    }
}

impl StructuralMatch {
    /// Number of motif edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.pairs.len()
    }

    /// The graph-vertex walk of this match (source of each edge plus the
    /// final target), derived from the graph.
    pub fn walk_nodes<G: GraphStore>(&self, g: &G) -> Vec<NodeId> {
        let mut walk = Vec::with_capacity(self.pairs.len() + 1);
        for (i, &p) in self.pairs.iter().enumerate() {
            let (u, v) = g.pair(p);
            if i == 0 {
                walk.push(u);
            }
            walk.push(v);
        }
        walk
    }
}

/// The elements instantiating one motif edge: a contiguous index range into
/// the interaction series of `G_T` pair `pair`.
///
/// Contiguity is not a restriction — in a *maximal* instance every edge-set
/// is exactly the elements of its series falling in a sub-window (see
/// `enumerate.rs`), which is a contiguous run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeSet {
    /// The `G_T` pair this motif edge maps to.
    pub pair: PairId,
    /// First element index (inclusive) in the pair's series.
    pub start: u32,
    /// One past the last element index.
    pub end: u32,
}

impl EdgeSet {
    /// Number of graph edges aggregated into this motif edge.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the set is empty (never true for a valid instance).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The `(t, f)` elements of this edge-set.
    pub fn events<'g, G: GraphStore>(&self, g: &'g G) -> &'g [Event] {
        &g.series(self.pair).events()[self.start as usize..self.end as usize]
    }

    /// Aggregated flow of the set, in O(1) via the series prefix sums.
    pub fn flow<G: GraphStore>(&self, g: &G) -> Flow {
        g.series(self.pair).flow_of_range(self.start as usize..self.end as usize)
    }
}

/// A flow motif instance `G_I` (paper Def. 3.2): one non-empty,
/// time-respecting edge-set per motif edge, within a `δ` window, each set
/// aggregating at least `ϕ` flow.
#[derive(Debug, Clone, PartialEq)]
pub struct MotifInstance {
    /// Edge-sets in motif-edge label order.
    pub edge_sets: Vec<EdgeSet>,
    /// Instance flow `f(G_I)`: the minimum aggregated flow over all
    /// edge-sets (paper Eq. 1).
    pub flow: Flow,
    /// Timestamp of the temporally first element (always on edge `e_1`).
    pub first_time: Timestamp,
    /// Timestamp of the temporally last element (always on edge `e_m`).
    pub last_time: Timestamp,
}

impl MotifInstance {
    /// Time spanned by the instance; at most `δ` for a valid instance.
    #[inline]
    pub fn span(&self) -> Timestamp {
        self.last_time - self.first_time
    }

    /// Total number of graph edges across all edge-sets.
    pub fn num_graph_edges(&self) -> usize {
        self.edge_sets.iter().map(EdgeSet::len).sum()
    }

    /// Renders the instance in the paper's notation
    /// `[e1 <- {(t,f),...}, e2 <- {...}]`.
    pub fn display<G: GraphStore>(&self, g: &G) -> String {
        use std::fmt::Write;
        let mut s = String::from("[");
        for (i, es) in self.edge_sets.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            write!(s, "e{} <- {{", i + 1).unwrap();
            for (j, e) in es.events(g).iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                write!(s, "({}, {})", e.time, e.flow).unwrap();
            }
            s.push('}');
        }
        s.push(']');
        s
    }
}

/// A borrowed, allocation-free view of one motif instance, as handed to
/// [`crate::InstanceSink::accept`]: the edge-sets live in a scratch buffer
/// owned by the enumerator and are only valid for the duration of the
/// call. Sinks that keep instances copy explicitly —
/// [`InstanceView::to_instance`] for a fresh allocation, or
/// [`InstanceView::write_to`] to recycle an existing
/// [`MotifInstance`]'s buffers (zero heap traffic once its capacity is
/// warm). Counting or filtering sinks touch the heap not at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceView<'a> {
    /// Edge-sets in motif-edge label order (borrowed scratch).
    pub edge_sets: &'a [EdgeSet],
    /// Instance flow `f(G_I)` (paper Eq. 1).
    pub flow: Flow,
    /// Timestamp of the temporally first element.
    pub first_time: Timestamp,
    /// Timestamp of the temporally last element.
    pub last_time: Timestamp,
}

impl InstanceView<'_> {
    /// Copies the view into a freshly allocated owned instance.
    pub fn to_instance(&self) -> MotifInstance {
        MotifInstance {
            edge_sets: self.edge_sets.to_vec(),
            flow: self.flow,
            first_time: self.first_time,
            last_time: self.last_time,
        }
    }

    /// Copies the view into `dst`, reusing `dst.edge_sets`' capacity —
    /// the recycle path top-k eviction uses to stay allocation-free in
    /// steady state.
    pub fn write_to(&self, dst: &mut MotifInstance) {
        dst.edge_sets.clear();
        dst.edge_sets.extend_from_slice(self.edge_sets);
        dst.flow = self.flow;
        dst.first_time = self.first_time;
        dst.last_time = self.last_time;
    }
}

impl MotifInstance {
    /// Borrows this instance as an [`InstanceView`] (e.g. to re-offer a
    /// stored instance to a sink).
    pub fn as_view(&self) -> InstanceView<'_> {
        InstanceView {
            edge_sets: &self.edge_sets,
            flow: self.flow,
            first_time: self.first_time,
            last_time: self.last_time,
        }
    }
}

flowmotif_util::impl_to_json!(StructuralMatch { nodes, pairs });
flowmotif_util::impl_to_json!(EdgeSet { pair, start, end });
flowmotif_util::impl_to_json!(MotifInstance { edge_sets, flow, first_time, last_time });

#[cfg(test)]
mod tests {
    use super::*;
    use flowmotif_graph::{GraphBuilder, TimeSeriesGraph};

    fn tiny_graph() -> TimeSeriesGraph {
        let mut b = GraphBuilder::new();
        b.extend_interactions([(0u32, 1u32, 10i64, 5.0), (0, 1, 12, 3.0), (1, 2, 14, 4.0)]);
        b.build_time_series_graph()
    }

    #[test]
    fn edge_set_accessors() {
        let g = tiny_graph();
        let p01 = g.pair_id(0, 1).unwrap();
        let es = EdgeSet { pair: p01, start: 0, end: 2 };
        assert_eq!(es.len(), 2);
        assert!(!es.is_empty());
        assert_eq!(es.flow(&g), 8.0);
        assert_eq!(es.events(&g).len(), 2);
        let empty = EdgeSet { pair: p01, start: 1, end: 1 };
        assert!(empty.is_empty());
        assert_eq!(empty.flow(&g), 0.0);
    }

    #[test]
    fn instance_span_and_display() {
        let g = tiny_graph();
        let p01 = g.pair_id(0, 1).unwrap();
        let p12 = g.pair_id(1, 2).unwrap();
        let inst = MotifInstance {
            edge_sets: vec![
                EdgeSet { pair: p01, start: 0, end: 2 },
                EdgeSet { pair: p12, start: 0, end: 1 },
            ],
            flow: 4.0,
            first_time: 10,
            last_time: 14,
        };
        assert_eq!(inst.span(), 4);
        assert_eq!(inst.num_graph_edges(), 3);
        let s = inst.display(&g);
        assert_eq!(s, "[e1 <- {(10, 5), (12, 3)}, e2 <- {(14, 4)}]");
    }

    #[test]
    fn walk_nodes_reconstruction() {
        let g = tiny_graph();
        let m = StructuralMatch {
            nodes: vec![0, 1, 2],
            pairs: vec![g.pair_id(0, 1).unwrap(), g.pair_id(1, 2).unwrap()],
        };
        assert_eq!(m.walk_nodes(&g), vec![0, 1, 2]);
        assert_eq!(m.num_edges(), 2);
    }
}
