//! The incrementally maintained time-series graph behind the streaming
//! engine.
//!
//! The resident [`TimeSeriesGraph`] holds the sorted per-pair series (with
//! prefix sums). Appends take one of three paths:
//!
//! * **in-order fast path** — the event lands at or after the tail of its
//!   pair's series and nothing is buffered: O(1) append straight into the
//!   resident series;
//! * **tail buffer** — the event is out of order (or the pair already has a
//!   buffered tail): it joins a small per-pair unsorted tail, merged into
//!   the sorted series on read or on [`IncrementalGraph::compact`];
//! * **pending pair** — the `(u, v)` pair is new: its events buffer in a
//!   side table until the next read, when the CSR index is extended once
//!   for all new pairs together.
//!
//! The amortized cost of a read after `k` buffered events on a pair with
//! `n` resident events is `O(k log k + n)` (tail sort + one merge), versus
//! `O((n + k) log (n + k))` plus full graph reconstruction for a batch
//! rebuild.

use flowmotif_graph::{
    Event, Flow, GraphError, InteractionSeries, NodeId, PairId, TimeSeriesGraph, Timestamp,
};
use flowmotif_util::{FxHashMap, FxHashSet};

/// A time-series graph that accepts out-of-order edge appends and window
/// evictions while staying ready for two-phase motif search.
#[derive(Debug, Default, Clone)]
pub struct IncrementalGraph {
    /// Resident sorted state; search borrows this directly.
    graph: TimeSeriesGraph,
    /// O(1) pair lookup, kept in sync with `graph.pairs()`.
    pair_ids: FxHashMap<(NodeId, NodeId), PairId>,
    /// Unsorted straggler buffer per resident pair (parallel to pairs).
    tails: Vec<Vec<Event>>,
    /// Pairs with a non-empty tail, pushed on first insert — so a fold
    /// touches only dirty pairs, not all of `tails`.
    dirty: Vec<PairId>,
    /// Total events across all tails.
    tail_len: usize,
    /// Events on pairs not yet in the CSR index.
    pending: FxHashMap<(NodeId, NodeId), Vec<Event>>,
    /// Total events in `pending`.
    pending_len: usize,
    /// Largest timestamp ever appended.
    watermark: Option<Timestamp>,
    /// Total interactions appended over the graph's lifetime.
    appended: u64,
    /// Total interactions evicted over the graph's lifetime.
    evicted: u64,
    /// Node pairs whose series changed (append or eviction) since the
    /// last [`IncrementalGraph::clear_touched`] — the dirty set behind
    /// the snapshot engine's O(dirty) publish accounting. Keyed by
    /// `(u, v)` so it survives `PairId` remaps (compaction).
    touched: FxHashSet<(NodeId, NodeId)>,
    allow_self_loops: bool,
}

impl IncrementalGraph {
    /// Creates an empty incremental graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Permits `u -> u` interactions (off by default, matching
    /// [`flowmotif_graph::GraphBuilder`]).
    pub fn allow_self_loops(mut self, allow: bool) -> Self {
        self.allow_self_loops = allow;
        self
    }

    /// Appends one interaction; panics on invalid input (see
    /// [`IncrementalGraph::try_append`] for the checked variant).
    pub fn append(&mut self, from: NodeId, to: NodeId, time: Timestamp, flow: Flow) {
        self.try_append(from, to, time, flow).expect("invalid interaction");
    }

    /// Appends one interaction, validating flow positivity and self-loops
    /// exactly like `GraphBuilder::try_add_interaction`.
    pub fn try_append(
        &mut self,
        from: NodeId,
        to: NodeId,
        time: Timestamp,
        flow: Flow,
    ) -> Result<(), GraphError> {
        if !(flow.is_finite() && flow > 0.0) {
            return Err(GraphError::InvalidFlow { flow, from: from as u64, to: to as u64 });
        }
        if from == to && !self.allow_self_loops {
            return Err(GraphError::SelfLoop(from as u64));
        }
        self.watermark = Some(self.watermark.map_or(time, |w| w.max(time)));
        self.appended += 1;
        self.touched.insert((from, to));
        let e = Event::new(time, flow);
        match self.pair_ids.get(&(from, to)) {
            Some(&p) => {
                let tail = &mut self.tails[p as usize];
                let series = self.graph.series(p);
                if tail.is_empty() && series.events().last().is_none_or(|l| l.time <= time) {
                    self.graph.append_in_order(p, e);
                } else {
                    if tail.is_empty() {
                        self.dirty.push(p);
                    }
                    tail.push(e);
                    self.tail_len += 1;
                }
            }
            None => {
                self.pending.entry((from, to)).or_default().push(e);
                self.pending_len += 1;
            }
        }
        Ok(())
    }

    /// Whether the pair `(u, v)` is held, resident or pending.
    pub fn contains_pair(&self, u: NodeId, v: NodeId) -> bool {
        self.pair_ids.contains_key(&(u, v)) || self.pending.contains_key(&(u, v))
    }

    /// Starts the pair `(u, v)`, which must not be held yet, with the
    /// time-sorted `events` without counting them as appends: the
    /// watermark, the lifetime totals and the dirty set stay as they
    /// are. The segment-backed engine copies a sealed pair's events in
    /// this way on its first append.
    pub fn seed_pair(&mut self, u: NodeId, v: NodeId, events: &[Event]) {
        debug_assert!(!self.contains_pair(u, v), "seeding held pair ({u}, {v})");
        self.pending_len += events.len();
        self.pending.insert((u, v), events.to_vec());
    }

    /// Number of interactions currently held (resident + buffered).
    pub fn num_interactions(&self) -> usize {
        self.graph.num_interactions() + self.tail_len + self.pending_len
    }

    /// Number of distinct connected pairs currently held (resident +
    /// pending). Pairs emptied by eviction still count until
    /// [`IncrementalGraph::compact`].
    pub fn num_pairs(&self) -> usize {
        self.graph.num_pairs() + self.pending.len()
    }

    /// Largest timestamp appended so far (`None` before the first append).
    pub fn watermark(&self) -> Option<Timestamp> {
        self.watermark
    }

    /// Lifetime totals: `(appended, evicted)`.
    pub fn totals(&self) -> (u64, u64) {
        (self.appended, self.evicted)
    }

    /// Whether buffered state exists that a read would first fold in.
    pub fn is_dirty(&self) -> bool {
        self.tail_len > 0 || self.pending_len > 0
    }

    /// Folds buffered tails and pending pairs into the resident graph and
    /// borrows it. Clean reads are free; after `k` buffered appends the
    /// fold costs `O(k log k)` plus one merge pass per dirty pair.
    pub fn graph(&mut self) -> &TimeSeriesGraph {
        self.merge_tails();
        self.integrate_pending();
        &self.graph
    }

    /// Drops every interaction with `time < floor` (including buffered
    /// ones); returns how many were dropped. Emptied pairs keep their
    /// `PairId` until [`IncrementalGraph::compact`], which physically
    /// removes them.
    pub fn evict_before(&mut self, floor: Timestamp) -> usize {
        self.evict_before_inner(floor, |_| {})
    }

    /// [`IncrementalGraph::evict_before`] that additionally records every
    /// `(u, v)` pair that lost at least one event into `drained`
    /// (deduplicated, sorted) — the hook standing queries use to rescan
    /// exactly the affected matches.
    pub fn evict_before_collect(
        &mut self,
        floor: Timestamp,
        drained: &mut Vec<(NodeId, NodeId)>,
    ) -> usize {
        let start = drained.len();
        let removed = self.evict_before_inner(floor, |pair| drained.push(pair));
        drained[start..].sort_unstable();
        drained.dedup();
        removed
    }

    fn evict_before_inner(
        &mut self,
        floor: Timestamp,
        mut on_drained: impl FnMut((NodeId, NodeId)),
    ) -> usize {
        let touched = &mut self.touched;
        let mut removed = self.graph.evict_before_with(floor, |pair, _| {
            touched.insert(pair);
            on_drained(pair);
        });
        for (p, tail) in self.tails.iter_mut().enumerate() {
            let before = tail.len();
            tail.retain(|e| e.time >= floor);
            if tail.len() < before {
                removed += before - tail.len();
                let pair = self.graph.pair(p as PairId);
                self.touched.insert(pair);
                on_drained(pair);
            }
        }
        self.tail_len = self.tails.iter().map(Vec::len).sum();
        for (&pair, events) in self.pending.iter_mut() {
            let before = events.len();
            events.retain(|e| e.time >= floor);
            if events.len() < before {
                removed += before - events.len();
                self.touched.insert(pair);
                on_drained(pair);
            }
        }
        self.pending.retain(|_, v| !v.is_empty());
        self.pending_len = self.pending.values().map(Vec::len).sum();
        self.evicted += removed as u64;
        removed
    }

    /// Number of distinct node pairs touched (appended to or evicted
    /// from) since the last [`IncrementalGraph::clear_touched`].
    pub fn touched_pairs(&self) -> usize {
        self.touched.len()
    }

    /// Resets the dirty-pair set (called by the snapshot engine right
    /// after it captures a publish).
    pub fn clear_touched(&mut self) {
        self.touched.clear();
    }

    /// Fully consolidates the graph: folds all buffers in and drops pairs
    /// emptied by eviction, shrinking the CSR index. Call this
    /// occasionally on long-running windows so dead pairs do not
    /// accumulate.
    pub fn compact(&mut self) {
        self.merge_tails();
        self.integrate_pending();
        if self.graph.retain_nonempty() > 0 {
            self.rebuild_lookup();
        }
    }

    /// Merges the unsorted tails into the resident series, visiting only
    /// the dirty pairs.
    fn merge_tails(&mut self) {
        for p in self.dirty.drain(..) {
            let tail = &mut self.tails[p as usize];
            if tail.is_empty() {
                continue; // eviction may have emptied it
            }
            // Stable by time: arrival order is preserved among ties, so
            // the merged series equals a batch build of the same arrivals.
            tail.sort_by_key(|e| e.time);
            self.graph.merge_events(p, tail);
            tail.clear();
        }
        self.tail_len = 0;
    }

    /// Extends the CSR index with all pending pairs at once.
    fn integrate_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let new: Vec<((NodeId, NodeId), InteractionSeries)> = self
            .pending
            .drain()
            .map(|(pair, events)| (pair, InteractionSeries::from_events(events)))
            .collect();
        self.pending_len = 0;
        self.graph.insert_series(new);
        self.rebuild_lookup();
    }

    /// Re-derives `pair_ids` and re-homes the tail buffers after the pair
    /// set (and therefore every `PairId`) changed.
    fn rebuild_lookup(&mut self) {
        debug_assert!(self.tail_len == 0, "tails must be merged before pair ids move");
        self.pair_ids.clear();
        self.pair_ids.reserve(self.graph.num_pairs());
        for (i, &pair) in self.graph.pairs().iter().enumerate() {
            self.pair_ids.insert(pair, i as PairId);
        }
        self.tails.clear();
        self.tails.resize_with(self.graph.num_pairs(), Vec::new);
        // Any remaining dirty entries are stale (evicted-empty tails).
        self.dirty.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmotif_graph::GraphBuilder;

    fn batch(edges: &[(NodeId, NodeId, Timestamp, Flow)]) -> TimeSeriesGraph {
        let mut b = GraphBuilder::new();
        b.extend_interactions(edges.iter().copied());
        b.build_time_series_graph()
    }

    fn assert_same(inc: &mut IncrementalGraph, edges: &[(NodeId, NodeId, Timestamp, Flow)]) {
        let expect = batch(edges);
        let got = inc.graph();
        assert_eq!(got.num_interactions(), expect.num_interactions());
        assert_eq!(got.pairs(), expect.pairs());
        assert_eq!(got.all_series(), expect.all_series());
    }

    #[test]
    fn in_order_appends_match_batch_build() {
        let edges = [(0u32, 1u32, 1i64, 1.0), (0, 1, 2, 2.0), (1, 2, 3, 3.0), (0, 1, 4, 4.0)];
        let mut inc = IncrementalGraph::new();
        for &(u, v, t, f) in &edges {
            inc.append(u, v, t, f);
        }
        assert_same(&mut inc, &edges);
        assert_eq!(inc.watermark(), Some(4));
    }

    #[test]
    fn out_of_order_appends_match_batch_build() {
        let edges = [
            (0u32, 1u32, 9i64, 1.0),
            (0, 1, 3, 2.0),
            (1, 2, 7, 3.0),
            (0, 1, 5, 4.0),
            (0, 1, 9, 5.0), // tie with the first (0,1) event
            (1, 2, 1, 6.0),
        ];
        let mut inc = IncrementalGraph::new();
        for &(u, v, t, f) in &edges {
            inc.append(u, v, t, f);
        }
        assert!(inc.is_dirty());
        assert_eq!(inc.num_interactions(), 6);
        assert_same(&mut inc, &edges);
        assert!(!inc.is_dirty());
        // Appending after a read works too (and re-dirties).
        inc.append(0, 1, 2, 7.0);
        assert!(inc.is_dirty());
        let mut all = edges.to_vec();
        all.push((0, 1, 2, 7.0));
        assert_same(&mut inc, &all);
    }

    #[test]
    fn tie_order_matches_batch_arrival_order() {
        // Two events on the same pair with the same timestamp, arriving
        // around an out-of-order straggler: the merged series must keep
        // arrival order among ties, exactly like the batch stable sort.
        let edges = [(0u32, 1u32, 5i64, 1.0), (0, 1, 3, 2.0), (0, 1, 5, 3.0)];
        let mut inc = IncrementalGraph::new();
        for &(u, v, t, f) in &edges {
            inc.append(u, v, t, f);
        }
        let flows: Vec<f64> = inc.graph().series(0).events().iter().map(|e| e.flow).collect();
        assert_eq!(flows, vec![2.0, 1.0, 3.0]);
        assert_same(&mut inc, &edges);
    }

    #[test]
    fn validation_matches_builder_rules() {
        let mut inc = IncrementalGraph::new();
        assert!(inc.try_append(0, 1, 1, 0.0).is_err());
        assert!(inc.try_append(0, 1, 1, f64::NAN).is_err());
        assert!(inc.try_append(3, 3, 1, 1.0).is_err());
        assert_eq!(inc.num_interactions(), 0);
        let mut inc = IncrementalGraph::new().allow_self_loops(true);
        assert!(inc.try_append(3, 3, 1, 1.0).is_ok());
    }

    #[test]
    fn eviction_drops_resident_and_buffered_events() {
        let mut inc = IncrementalGraph::new();
        inc.append(0, 1, 10, 1.0);
        inc.append(0, 1, 20, 2.0);
        inc.graph(); // make (0,1) resident
        inc.append(0, 1, 5, 3.0); // buffered straggler, below the floor
        inc.append(2, 3, 8, 4.0); // pending pair, below the floor
        inc.append(2, 3, 30, 5.0); // pending pair, above the floor
        let removed = inc.evict_before(15);
        assert_eq!(removed, 3);
        assert_eq!(inc.num_interactions(), 2);
        assert_same(&mut inc, &[(0, 1, 20, 2.0), (2, 3, 30, 5.0)]);
        let (appended, evicted) = inc.totals();
        assert_eq!(appended, 5);
        assert_eq!(evicted, 3);
    }

    #[test]
    fn compact_drops_emptied_pairs() {
        let mut inc = IncrementalGraph::new();
        inc.append(0, 1, 10, 1.0);
        inc.append(1, 2, 20, 2.0);
        inc.graph();
        inc.evict_before(15);
        assert_eq!(inc.num_pairs(), 2, "emptied pair lingers");
        inc.compact();
        assert_eq!(inc.num_pairs(), 1);
        // The graph still behaves correctly afterwards.
        inc.append(0, 1, 30, 3.0);
        assert_same(&mut inc, &[(1, 2, 20, 2.0), (0, 1, 30, 3.0)]);
    }

    #[test]
    fn touched_pairs_track_appends_and_evictions() {
        let mut inc = IncrementalGraph::new();
        assert_eq!(inc.touched_pairs(), 0);
        inc.append(0, 1, 10, 1.0);
        inc.append(0, 1, 11, 1.0); // same pair: still one dirty pair
        inc.append(1, 2, 12, 1.0);
        assert_eq!(inc.touched_pairs(), 2);
        inc.clear_touched();
        assert_eq!(inc.touched_pairs(), 0);
        // Compaction does not dirty anything by itself.
        inc.compact();
        assert_eq!(inc.touched_pairs(), 0);
        // Eviction dirties exactly the pairs that lose events (resident,
        // buffered-tail and pending alike).
        inc.append(0, 1, 5, 1.0); // straggler tail on resident (0, 1)
        inc.append(7, 8, 6, 1.0); // pending pair below the floor
        inc.clear_touched();
        let removed = inc.evict_before(12);
        assert_eq!(removed, 4, "t=10, 11 resident; t=5 tail; t=6 pending");
        assert_eq!(inc.touched_pairs(), 2, "(0,1) and (7,8) changed; (1,2) did not");
        assert_eq!(inc.num_interactions(), 1);
    }

    #[test]
    fn clean_reads_are_stable() {
        let mut inc = IncrementalGraph::new();
        inc.append(0, 1, 1, 1.0);
        let a = inc.graph().num_interactions();
        let b = inc.graph().num_interactions();
        assert_eq!(a, b);
        assert!(!inc.is_dirty());
    }
}
