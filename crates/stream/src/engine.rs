//! The resident query session: ingest a stream once, answer many motif
//! queries.

use crate::incremental::IncrementalGraph;
use crate::window::SlidingWindow;
use flowmotif_core::SearchOptions;
use flowmotif_graph::{Flow, GraphError, NodeId, TimeSeriesGraph, Timestamp};

/// A long-lived motif-search session over a live interaction stream.
///
/// The engine owns an [`IncrementalGraph`] and, optionally, a
/// [`SlidingWindow`] retention policy. Queries run a
/// [`flowmotif_core::Query`] with [`QueryEngine::options`] on the
/// resident [`QueryEngine::graph`]: repeated searches over a quiescent
/// stream touch no per-pair state at all, and after `k` new appends only
/// the dirty pairs pay a merge. Instances match a batch `GraphBuilder`
/// rebuild + search over the retained (and window-restricted)
/// interactions exactly. Results index into the graph as of the search:
/// interpret them (`walk_nodes`, `display`, `EdgeSet::events`) **before**
/// further appends, evictions or compactions — any mutation that adds
/// or removes a pair remaps `PairId`s.
#[derive(Debug, Default, Clone)]
pub struct QueryEngine {
    graph: IncrementalGraph,
    window: Option<SlidingWindow>,
    /// Interactions evicted by the window policy since the last
    /// consolidation; drives amortized auto-compaction.
    evicted_since_compact: usize,
    /// Search tuning applied to every query (notably the active-index
    /// A/B toggle).
    opts: SearchOptions,
}

/// A point-in-time description of the engine state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Interactions currently held (resident + buffered).
    pub interactions: usize,
    /// Connected pairs currently indexed (including evicted-empty ones).
    pub pairs: usize,
    /// Largest timestamp appended so far.
    pub watermark: Option<Timestamp>,
    /// Current eviction floor of the sliding window, if any.
    pub floor: Option<Timestamp>,
    /// Interactions appended over the engine's lifetime.
    pub appended: u64,
    /// Interactions evicted over the engine's lifetime.
    pub evicted: u64,
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "interactions={} pairs={} watermark={} floor={} appended={} evicted={}",
            self.interactions,
            self.pairs,
            self.watermark.map_or_else(|| "-".into(), |t| t.to_string()),
            self.floor.map_or_else(|| "-".into(), |t| t.to_string()),
            self.appended,
            self.evicted,
        )
    }
}

impl QueryEngine {
    /// An engine that retains the whole stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a sliding-window retention policy: interactions falling
    /// behind the window horizon are evicted as the watermark advances.
    pub fn with_window(mut self, window: SlidingWindow) -> Self {
        self.window = Some(window);
        self
    }

    /// Permits self-loop interactions (off by default).
    pub fn allow_self_loops(mut self, allow: bool) -> Self {
        self.graph = self.graph.allow_self_loops(allow);
        self
    }

    /// Overrides the [`SearchOptions`] applied to every query — e.g.
    /// `use_active_index: false` to A/B the origin index off.
    pub fn search_options(mut self, opts: SearchOptions) -> Self {
        self.opts = opts;
        self
    }

    /// The search options applied to queries.
    pub fn options(&self) -> SearchOptions {
        self.opts
    }

    /// Appends one interaction and applies the retention policy.
    pub fn try_append(
        &mut self,
        from: NodeId,
        to: NodeId,
        time: Timestamp,
        flow: Flow,
    ) -> Result<(), GraphError> {
        self.graph.try_append(from, to, time, flow)?;
        if let (Some(policy), Some(watermark)) = (&mut self.window, self.graph.watermark()) {
            if let Some(floor) = policy.advance(watermark) {
                let dropped = self.graph.evict_before(floor);
                self.note_evicted(dropped);
            }
        }
        Ok(())
    }

    /// [`QueryEngine::try_append`] that additionally records into
    /// `drained` every `(u, v)` pair the sliding-window policy evicted
    /// events from as a side effect of this append — the hook standing
    /// queries use to rescan affected matches.
    pub fn try_append_collect(
        &mut self,
        from: NodeId,
        to: NodeId,
        time: Timestamp,
        flow: Flow,
        drained: &mut Vec<(NodeId, NodeId)>,
    ) -> Result<(), GraphError> {
        self.graph.try_append(from, to, time, flow)?;
        if let (Some(policy), Some(watermark)) = (&mut self.window, self.graph.watermark()) {
            if let Some(floor) = policy.advance(watermark) {
                let dropped = self.graph.evict_before_collect(floor, drained);
                self.note_evicted(dropped);
            }
        }
        Ok(())
    }

    /// Emptied pairs linger in the CSR index after eviction and would
    /// slowly poison phase P1; consolidate once the evicted volume rivals
    /// the resident volume, which keeps the compaction cost amortized
    /// O(1) per append.
    fn note_evicted(&mut self, dropped: usize) {
        self.evicted_since_compact += dropped;
        if self.evicted_since_compact > 1024.max(self.graph.num_interactions() / 2) {
            self.compact();
        }
    }

    /// Appends a batch of `(from, to, time, flow)` interactions; returns
    /// how many were appended. Fails on the first invalid interaction
    /// (earlier ones stay applied).
    pub fn ingest<I>(&mut self, batch: I) -> Result<usize, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId, Timestamp, Flow)>,
    {
        let mut n = 0;
        for (u, v, t, f) in batch {
            self.try_append(u, v, t, f)?;
            n += 1;
        }
        Ok(n)
    }

    /// Borrows the resident time-series graph (folding buffers in first)
    /// for any [`flowmotif_core::Query`] answer or analytics driver.
    pub fn graph(&mut self) -> &TimeSeriesGraph {
        self.graph.graph()
    }

    /// Manually drops interactions older than `floor`; returns how many
    /// were dropped. Independent of the sliding-window policy, but feeds
    /// the same amortized auto-compaction.
    pub fn evict_before(&mut self, floor: Timestamp) -> usize {
        let dropped = self.graph.evict_before(floor);
        self.note_evicted(dropped);
        dropped
    }

    /// [`QueryEngine::evict_before`] that additionally records the
    /// drained `(u, v)` pairs (see [`QueryEngine::try_append_collect`]).
    pub fn evict_before_collect(
        &mut self,
        floor: Timestamp,
        drained: &mut Vec<(NodeId, NodeId)>,
    ) -> usize {
        let dropped = self.graph.evict_before_collect(floor, drained);
        self.note_evicted(dropped);
        dropped
    }

    /// Consolidates the resident graph (merges buffers, drops emptied
    /// pairs).
    pub fn compact(&mut self) {
        self.graph.compact();
        self.evicted_since_compact = 0;
    }

    /// Distinct node pairs whose series changed since the last
    /// [`QueryEngine::clear_dirty`] — the dirty set a copy-on-write
    /// snapshot publish pays for.
    pub fn dirty_pairs(&self) -> usize {
        self.graph.touched_pairs()
    }

    /// Resets the dirty-pair accounting (the snapshot engine calls this
    /// as part of each publish).
    pub fn clear_dirty(&mut self) {
        self.graph.clear_touched();
    }

    /// Current engine statistics.
    pub fn stats(&self) -> EngineStats {
        let (appended, evicted) = self.graph.totals();
        EngineStats {
            interactions: self.graph.num_interactions(),
            pairs: self.graph.num_pairs(),
            watermark: self.graph.watermark(),
            floor: self.window.as_ref().and_then(|w| w.floor()),
            appended,
            evicted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmotif_core::{catalog, Motif, Query};
    use flowmotif_graph::TimeWindow;

    fn count(engine: &mut QueryEngine, motif: &Motif, bounds: Option<TimeWindow>) -> u64 {
        let opts = engine.options();
        Query { bounds, opts, ..Query::new(motif) }.count(engine.graph()).0
    }

    /// The paper's Fig. 2 bitcoin example, streamed in timestamp order.
    const FIG2: [(NodeId, NodeId, Timestamp, Flow); 10] = [
        (3, 2, 1, 2.0),
        (3, 2, 3, 5.0),
        (2, 0, 10, 10.0),
        (3, 0, 11, 10.0),
        (0, 1, 13, 5.0),
        (0, 1, 15, 7.0),
        (1, 2, 18, 20.0),
        (2, 3, 19, 5.0),
        (2, 3, 21, 4.0),
        (1, 3, 23, 7.0),
    ];

    #[test]
    fn streamed_fig2_reproduces_the_fig4_instance() {
        let mut engine = QueryEngine::new();
        engine.ingest(FIG2).unwrap();
        let motif = catalog::by_name("M(3,3)", 10, 7.0).unwrap();
        let g = engine.graph();
        let (groups, _) = Query::new(&motif).collect(g);
        assert_eq!(groups.iter().map(|(_, v)| v.len()).sum::<usize>(), 1);
        let (sm, insts) = &groups[0];
        assert_eq!(sm.walk_nodes(g), vec![2, 0, 1, 2]);
        assert_eq!(
            insts[0].display(g),
            "[e1 <- {(10, 10)}, e2 <- {(13, 5), (15, 7)}, e3 <- {(18, 20)}]"
        );
    }

    #[test]
    fn interleaved_ingest_and_query_sessions() {
        let mut engine = QueryEngine::new();
        let motif = catalog::by_name("M(3,3)", 10, 7.0).unwrap();
        engine.ingest(FIG2[..6].iter().copied()).unwrap();
        assert_eq!(count(&mut engine, &motif, None), 0, "cycle not closed yet");
        engine.ingest(FIG2[6..].iter().copied()).unwrap();
        assert_eq!(count(&mut engine, &motif, None), 1);
        // Repeated queries on the quiescent stream are stable.
        assert_eq!(count(&mut engine, &motif, None), 1);
        // Window-restricted query excludes the instance's first element.
        assert_eq!(count(&mut engine, &motif, Some(TimeWindow::new(11, 23))), 0);
        assert_eq!(count(&mut engine, &motif, Some(TimeWindow::new(10, 18))), 1);
    }

    #[test]
    fn sliding_window_evicts_and_stats_report_it() {
        let mut engine = QueryEngine::new().with_window(SlidingWindow::with_slack(10, 1));
        engine.ingest(FIG2).unwrap();
        let s = engine.stats();
        assert_eq!(s.appended, 10);
        assert!(s.evicted > 0, "{s}");
        assert_eq!(s.floor, Some(13), "watermark 23 - horizon 10");
        assert_eq!(s.interactions as u64 + s.evicted, s.appended);
        // Everything retained is within the horizon.
        let g = engine.graph();
        let (lo, hi) = g.time_span().unwrap();
        assert!(lo >= 13 && hi == 23);
        // The Fig. 4 instance needed t=10; it is gone now.
        let motif = catalog::by_name("M(3,3)", 10, 7.0).unwrap();
        assert_eq!(count(&mut engine, &motif, None), 0);
        let display = engine.stats().to_string();
        assert!(display.contains("watermark=23"), "{display}");
    }

    #[test]
    fn invalid_append_is_rejected() {
        let mut engine = QueryEngine::new();
        assert!(engine.try_append(0, 0, 1, 1.0).is_err());
        assert!(engine.try_append(0, 1, 1, -1.0).is_err());
        assert_eq!(engine.stats().appended, 0);
        let mut engine = QueryEngine::new().allow_self_loops(true);
        assert!(engine.try_append(0, 0, 1, 1.0).is_ok());
    }
}
