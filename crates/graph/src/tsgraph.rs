//! The time-series graph `G_T(V, E_T)` (paper §4, Fig. 5): parallel
//! multigraph edges merged into one edge per connected node pair, each
//! carrying an [`InteractionSeries`].
//!
//! Stored in CSR form: pairs are sorted by `(u, v)`, so the out-edges of a
//! node are a contiguous slice and `pair_id(u, v)` is a binary search within
//! that slice.

use crate::active::{ActiveOriginIndex, IndexBuilder};
use crate::event::{Event, NodeId, PairId, Timestamp};
use crate::series::InteractionSeries;
use crate::window::TimeWindow;

/// Sentinel for "no events": an empty interval that any real timestamp
/// expands.
const EMPTY_SPAN: (Timestamp, Timestamp) = (Timestamp::MAX, Timestamp::MIN);

/// The merged, index-based graph all motif algorithms run on.
///
/// Besides the CSR pair/series storage, the graph maintains *activity
/// metadata* incrementally through every mutation path: a per-origin
/// active interval (`[min_time, max_time]` over all out-pair series) and
/// a time-bucketed [`ActiveOriginIndex`], so window-restricted searches
/// can skip origins and pairs with no in-window interaction without
/// touching their series (see [`TimeSeriesGraph::active_origins_in`]).
#[derive(Debug, Clone, Default)]
pub struct TimeSeriesGraph {
    num_nodes: usize,
    num_interactions: usize,
    /// Connected node pairs, sorted by `(u, v)`. Index = `PairId`.
    pairs: Vec<(NodeId, NodeId)>,
    /// `series[p]` is the interaction series of `pairs[p]`.
    series: Vec<InteractionSeries>,
    /// CSR offsets: out-pairs of node `u` are `pairs[out_start[u] as usize ..
    /// out_start[u + 1] as usize]`. Length `num_nodes + 1`.
    out_start: Vec<u32>,
    /// SoA id column: `out_targets[p] = pairs[p].1`. The worst-case-
    /// optimal P1 intersection walks only this column (and the in-side
    /// twins below), never the `(u, v)` tuple array.
    out_targets: Vec<NodeId>,
    /// Transposed CSR offsets: in-pair *positions* of node `v` are
    /// `in_pairs[in_start[v] as usize .. in_start[v + 1] as usize]`.
    /// Length `num_nodes + 1`.
    in_start: Vec<u32>,
    /// Pair ids grouped by target, each group sorted by source (filling
    /// in ascending pair id gives this for free, since pairs are sorted
    /// by `(u, v)`). Length `num_pairs`.
    in_pairs: Vec<PairId>,
    /// SoA id column parallel to `in_pairs`: the source of each in-pair.
    in_sources: Vec<NodeId>,
    /// `origin_span[u]` = active interval of `u`'s out-edges
    /// ([`EMPTY_SPAN`] when none). Length `num_nodes`.
    origin_span: Vec<(Timestamp, Timestamp)>,
    /// Time-bucketed origin activity (see [`ActiveOriginIndex`]).
    index: ActiveOriginIndex,
}

impl TimeSeriesGraph {
    /// Builds the graph from per-pair event lists. `pairs_events` may be in
    /// any order; events within a pair may be unsorted.
    ///
    /// Prefer [`crate::GraphBuilder`], which produces this from raw
    /// interactions.
    pub fn from_pair_events(
        num_nodes: usize,
        mut pairs_events: Vec<((NodeId, NodeId), Vec<crate::Event>)>,
    ) -> Self {
        pairs_events.sort_by_key(|(p, _)| *p);
        let mut pairs = Vec::with_capacity(pairs_events.len());
        let mut series = Vec::with_capacity(pairs_events.len());
        let mut num_interactions = 0;
        for (pair, events) in pairs_events {
            debug_assert!(pairs.last().is_none_or(|&last| last != pair), "duplicate pair {pair:?}");
            num_interactions += events.len();
            pairs.push(pair);
            series.push(InteractionSeries::from_events(events));
        }
        let num_nodes =
            num_nodes.max(pairs.iter().map(|&(u, v)| u.max(v) as usize + 1).max().unwrap_or(0));
        let out_start = Self::csr_offsets(num_nodes, &pairs);
        let mut g = Self {
            num_nodes,
            num_interactions,
            pairs,
            series,
            out_start,
            out_targets: Vec::new(),
            in_start: Vec::new(),
            in_pairs: Vec::new(),
            in_sources: Vec::new(),
            origin_span: Vec::new(),
            index: ActiveOriginIndex::new(),
        };
        g.rebuild_adjacency_columns();
        g.rebuild_activity();
        g
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of connected node pairs `|E_T|`.
    #[inline]
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Number of underlying multigraph edges `|E|`.
    #[inline]
    pub fn num_interactions(&self) -> usize {
        self.num_interactions
    }

    /// The `(u, v)` endpoints of pair `p`.
    #[inline]
    pub fn pair(&self, p: PairId) -> (NodeId, NodeId) {
        self.pairs[p as usize]
    }

    /// All connected pairs, sorted by `(u, v)`.
    #[inline]
    pub fn pairs(&self) -> &[(NodeId, NodeId)] {
        &self.pairs
    }

    /// The interaction series on pair `p`.
    #[inline]
    pub fn series(&self, p: PairId) -> &InteractionSeries {
        &self.series[p as usize]
    }

    /// All series, parallel to [`Self::pairs`].
    #[inline]
    pub fn all_series(&self) -> &[InteractionSeries] {
        &self.series
    }

    /// Pair ids of the out-edges of `u`, a contiguous CSR range.
    #[inline]
    pub fn out_pair_range(&self, u: NodeId) -> std::ops::Range<u32> {
        self.out_start[u as usize]..self.out_start[u as usize + 1]
    }

    /// Iterates `(pair_id, target)` over the out-neighbours of `u`,
    /// sorted by target id.
    pub fn out_pairs(&self, u: NodeId) -> impl Iterator<Item = (PairId, NodeId)> + '_ {
        self.out_pair_range(u).map(move |p| (p, self.pairs[p as usize].1))
    }

    /// Out-degree of `u` in `G_T` (number of distinct targets).
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out_pair_range(u).len()
    }

    /// Looks up the pair id of edge `(u, v)` by binary search in `u`'s
    /// out-slice.
    pub fn pair_id(&self, u: NodeId, v: NodeId) -> Option<PairId> {
        let r = self.out_pair_range(u);
        let slice = &self.pairs[r.start as usize..r.end as usize];
        slice.binary_search_by_key(&v, |&(_, t)| t).ok().map(|i| r.start + i as u32)
    }

    /// Builds the graph from per-pair *series* (already sorted with prefix
    /// sums), skipping the per-event sort of
    /// [`TimeSeriesGraph::from_pair_events`]. This is the snapshot path of
    /// the streaming engine: series maintained incrementally are moved in
    /// without touching their elements.
    pub fn from_pair_series(
        num_nodes: usize,
        mut pairs_series: Vec<((NodeId, NodeId), InteractionSeries)>,
    ) -> Self {
        pairs_series.sort_by_key(|(p, _)| *p);
        let mut pairs = Vec::with_capacity(pairs_series.len());
        let mut series = Vec::with_capacity(pairs_series.len());
        let mut num_interactions = 0;
        for (pair, s) in pairs_series {
            debug_assert!(pairs.last().is_none_or(|&last| last != pair), "duplicate pair {pair:?}");
            num_interactions += s.len();
            pairs.push(pair);
            series.push(s);
        }
        let num_nodes =
            num_nodes.max(pairs.iter().map(|&(u, v)| u.max(v) as usize + 1).max().unwrap_or(0));
        let out_start = Self::csr_offsets(num_nodes, &pairs);
        let mut g = Self {
            num_nodes,
            num_interactions,
            pairs,
            series,
            out_start,
            out_targets: Vec::new(),
            in_start: Vec::new(),
            in_pairs: Vec::new(),
            in_sources: Vec::new(),
            origin_span: Vec::new(),
            index: ActiveOriginIndex::new(),
        };
        g.rebuild_adjacency_columns();
        g.rebuild_activity();
        g
    }

    /// Recomputes the per-origin spans and the origin index from the
    /// series — the bulk-construction path (O(interactions)).
    fn rebuild_activity(&mut self) {
        self.origin_span = vec![EMPTY_SPAN; self.num_nodes];
        self.recompute_origin_spans();
        // Pairs are sorted by origin, as the bulk builder needs.
        let mut index = IndexBuilder::new(self.time_span());
        for (&(u, _), s) in self.pairs.iter().zip(&self.series) {
            for e in s.events() {
                index.note(u, e.time);
            }
        }
        self.index = index.finish();
    }

    #[inline]
    fn expand_origin_span(&mut self, u: NodeId, lo: Timestamp, hi: Timestamp) {
        let span = &mut self.origin_span[u as usize];
        span.0 = span.0.min(lo);
        span.1 = span.1.max(hi);
    }

    /// Re-derives every origin span from the series (after eviction
    /// shrank them); O(pairs).
    fn recompute_origin_spans(&mut self) {
        self.origin_span.iter_mut().for_each(|s| *s = EMPTY_SPAN);
        for (p, s) in self.series.iter().enumerate() {
            if let (Some(first), Some(last)) = (s.first_time(), s.last_time()) {
                let span = &mut self.origin_span[self.pairs[p].0 as usize];
                span.0 = span.0.min(first);
                span.1 = span.1.max(last);
            }
        }
    }

    /// The active interval `[min_time, max_time]` of `u`'s out-edge
    /// interactions, or `None` if `u` currently has none. Kept exact
    /// through appends, merges and evictions.
    pub fn origin_active_span(&self, u: NodeId) -> Option<(Timestamp, Timestamp)> {
        let &(lo, hi) = self.origin_span.get(u as usize)?;
        (lo <= hi).then_some((lo, hi))
    }

    /// Whether origin `u` *may* have an out-edge interaction inside `w`:
    /// true iff `u`'s active interval overlaps `w`. Conservative (the
    /// interval may contain gaps); pair-level checks stay exact via
    /// [`InteractionSeries::active_in`].
    #[inline]
    pub fn origin_active_in(&self, u: NodeId, w: TimeWindow) -> bool {
        self.origin_span
            .get(u as usize)
            .is_some_and(|&(lo, hi)| lo <= hi && lo <= w.end && hi >= w.start)
    }

    /// Sorted, deduplicated origins that may have an out-edge interaction
    /// inside the closed window `w`: the time-bucketed index narrows the
    /// candidates and the exact per-origin spans filter out evicted or
    /// out-of-interval origins. A superset of the origins with an actual
    /// in-window event, and always a subset of the origins with any
    /// events at all — the window-bounded phase-P1 driver iterates this
    /// instead of every node.
    pub fn active_origins_in(&self, w: TimeWindow) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.active_origins_in_range(w, 0..NodeId::MAX, &mut out);
        out
    }

    /// [`TimeSeriesGraph::active_origins_in`] restricted to origins in
    /// `range`, written into the caller-provided buffer (cleared first) so
    /// steady-state queries allocate nothing. Parallel bounded searches
    /// call this once per origin shard: every worker pulls only its own
    /// slice of each index bucket instead of materialising (and then
    /// filtering) one global candidate list per task.
    pub fn active_origins_in_range(
        &self,
        w: TimeWindow,
        range: std::ops::Range<NodeId>,
        out: &mut Vec<NodeId>,
    ) {
        self.index.origins_overlapping_in_range(w.start, w.end, range.start, range.end, out);
        out.retain(|&u| self.origin_active_in(u, w));
    }

    /// Number of buckets the origin index currently holds (observability:
    /// eviction must shrink this as whole buckets fall below the floor).
    pub fn active_index_buckets(&self) -> usize {
        self.index.num_buckets()
    }

    fn csr_offsets(num_nodes: usize, pairs: &[(NodeId, NodeId)]) -> Vec<u32> {
        let mut out_start = vec![0u32; num_nodes + 1];
        for &(u, _) in pairs {
            out_start[u as usize + 1] += 1;
        }
        for i in 0..num_nodes {
            out_start[i + 1] += out_start[i];
        }
        out_start
    }

    /// Rebuilds the SoA id columns and the transposed (in-edge) CSR from
    /// `pairs`; O(nodes + pairs). Runs at every point that recomputes
    /// `out_start` — topology-stable mutations (appends, merges,
    /// evictions that keep empty pairs) never touch it.
    fn rebuild_adjacency_columns(&mut self) {
        self.out_targets.clear();
        self.out_targets.extend(self.pairs.iter().map(|&(_, v)| v));
        self.in_start = vec![0u32; self.num_nodes + 1];
        for &(_, v) in &self.pairs {
            self.in_start[v as usize + 1] += 1;
        }
        for i in 0..self.num_nodes {
            self.in_start[i + 1] += self.in_start[i];
        }
        // Filling slots in ascending pair id keeps each in-list sorted by
        // source: for a fixed target, pair ids ascend with the source.
        let mut cursor = self.in_start.clone();
        self.in_pairs = vec![0; self.pairs.len()];
        self.in_sources = vec![0; self.pairs.len()];
        for (p, &(u, v)) in self.pairs.iter().enumerate() {
            let slot = cursor[v as usize] as usize;
            cursor[v as usize] += 1;
            self.in_pairs[slot] = p as PairId;
            self.in_sources[slot] = u;
        }
    }

    /// Target node at position `i` of `u`'s out-list (the SoA id column
    /// twin of [`TimeSeriesGraph::out_pairs`]).
    #[inline]
    pub fn out_target_at(&self, u: NodeId, i: u32) -> NodeId {
        self.out_targets[(self.out_start[u as usize] + i) as usize]
    }

    /// In-degree of `v` in `G_T` (number of distinct sources).
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> u32 {
        self.in_start[v as usize + 1] - self.in_start[v as usize]
    }

    /// The pair at position `i` (`0 <= i < in_degree(v)`) of `v`'s
    /// in-list, which is sorted by source id.
    #[inline]
    pub fn in_pair_at(&self, v: NodeId, i: u32) -> PairId {
        self.in_pairs[(self.in_start[v as usize] + i) as usize]
    }

    /// Source node at position `i` of `v`'s in-list.
    #[inline]
    pub fn in_source_at(&self, v: NodeId, i: u32) -> NodeId {
        self.in_sources[(self.in_start[v as usize] + i) as usize]
    }

    /// Appends an in-order event to the series of pair `p` in O(1)
    /// (see [`InteractionSeries::append_in_order`]), keeping
    /// [`TimeSeriesGraph::num_interactions`] and the activity metadata
    /// consistent.
    #[inline]
    pub fn append_in_order(&mut self, p: PairId, e: Event) {
        self.series[p as usize].append_in_order(e);
        self.num_interactions += 1;
        let u = self.pairs[p as usize].0;
        self.expand_origin_span(u, e.time, e.time);
        self.index.record(u, e.time);
    }

    /// Merges a time-sorted event batch into the series of pair `p` (see
    /// [`InteractionSeries::merge_sorted`]), keeping the interaction count
    /// and the activity metadata consistent.
    pub fn merge_events(&mut self, p: PairId, sorted: &[Event]) {
        self.series[p as usize].merge_sorted(sorted);
        self.num_interactions += sorted.len();
        if let (Some(first), Some(last)) = (sorted.first(), sorted.last()) {
            let u = self.pairs[p as usize].0;
            self.expand_origin_span(u, first.time, last.time);
            record_series(&mut self.index, u, sorted);
        }
    }

    /// Removes every interaction with `time < t` from all series; returns
    /// the number removed. Pairs whose series become empty stay in the
    /// graph (so `PairId`s remain stable) until
    /// [`TimeSeriesGraph::retain_nonempty`] is called; the search layers
    /// treat empty series as contributing no matches.
    pub fn evict_before(&mut self, t: Timestamp) -> usize {
        self.evict_before_with(t, |_, _| ())
    }

    /// [`TimeSeriesGraph::evict_before`], reporting `(pair, removed)` for
    /// every pair that lost at least one interaction — the hook the
    /// streaming layer uses to keep its dirty-pair accounting exact.
    /// Active-interval metadata shrinks with the eviction: origin spans
    /// are recomputed from the surviving series and index buckets wholly
    /// below the floor are dropped.
    pub fn evict_before_with(
        &mut self,
        t: Timestamp,
        mut on_evicted: impl FnMut((NodeId, NodeId), usize),
    ) -> usize {
        let mut removed = 0;
        for (p, s) in self.series.iter_mut().enumerate() {
            let dropped = s.evict_before(t);
            if dropped > 0 {
                on_evicted(self.pairs[p], dropped);
                removed += dropped;
            }
        }
        self.num_interactions -= removed;
        if removed > 0 {
            self.recompute_origin_spans();
            self.index.evict_below(t);
        }
        removed
    }

    /// Inserts new connected pairs (with their series) into the graph,
    /// rebuilding the CSR index in O(existing + new·log new). Existing
    /// `PairId`s are invalidated. The pairs must not already be present.
    pub fn insert_series(&mut self, mut new: Vec<((NodeId, NodeId), InteractionSeries)>) {
        if new.is_empty() {
            return;
        }
        new.sort_by_key(|(p, _)| *p);
        // Fold the incoming activity in first (incremental — the resident
        // metadata is already correct, so no O(interactions) rebuild).
        let grown = self
            .num_nodes
            .max(new.iter().map(|&((u, v), _)| u.max(v) as usize + 1).max().unwrap_or(0));
        self.origin_span.resize(grown, EMPTY_SPAN);
        for ((u, _), s) in &new {
            if let (Some(first), Some(last)) = (s.first_time(), s.last_time()) {
                let span = &mut self.origin_span[*u as usize];
                span.0 = span.0.min(first);
                span.1 = span.1.max(last);
                record_series(&mut self.index, *u, s.events());
            }
        }
        let mut pairs = Vec::with_capacity(self.pairs.len() + new.len());
        let mut series = Vec::with_capacity(self.pairs.len() + new.len());
        let mut old = self.pairs.drain(..).zip(self.series.drain(..)).peekable();
        let mut incoming = new.into_iter().peekable();
        loop {
            match (old.peek(), incoming.peek()) {
                (Some(&(op, _)), Some(&(np, _))) => {
                    debug_assert!(op != np, "insert_series: pair {np:?} already present");
                    if op < np {
                        let (p, s) = old.next().unwrap();
                        pairs.push(p);
                        series.push(s);
                    } else {
                        let ((u, v), s) = incoming.next().unwrap();
                        self.num_interactions += s.len();
                        pairs.push((u, v));
                        series.push(s);
                    }
                }
                (Some(_), None) => {
                    let (p, s) = old.next().unwrap();
                    pairs.push(p);
                    series.push(s);
                }
                (None, Some(_)) => {
                    let ((u, v), s) = incoming.next().unwrap();
                    self.num_interactions += s.len();
                    pairs.push((u, v));
                    series.push(s);
                }
                (None, None) => break,
            }
        }
        drop(old);
        drop(incoming);
        self.num_nodes = self
            .num_nodes
            .max(pairs.iter().map(|&(u, v)| u.max(v) as usize + 1).max().unwrap_or(0));
        self.out_start = Self::csr_offsets(self.num_nodes, &pairs);
        self.pairs = pairs;
        self.series = series;
        self.rebuild_adjacency_columns();
    }

    /// Drops pairs whose series are empty (left behind by
    /// [`TimeSeriesGraph::evict_before`]) and rebuilds the CSR index.
    /// Existing `PairId`s are invalidated. Returns the number of pairs
    /// removed.
    pub fn retain_nonempty(&mut self) -> usize {
        let before = self.pairs.len();
        let mut kept_pairs = Vec::with_capacity(before);
        let mut kept_series = Vec::with_capacity(before);
        for (p, s) in self.pairs.drain(..).zip(self.series.drain(..)) {
            if !s.is_empty() {
                kept_pairs.push(p);
                kept_series.push(s);
            }
        }
        self.pairs = kept_pairs;
        self.series = kept_series;
        self.out_start = Self::csr_offsets(self.num_nodes, &self.pairs);
        self.rebuild_adjacency_columns();
        before - self.pairs.len()
    }

    /// Earliest and latest timestamp over all series, or `None` if the
    /// graph has no interactions.
    pub fn time_span(&self) -> Option<(Timestamp, Timestamp)> {
        let mut lo = None;
        let mut hi = None;
        for s in &self.series {
            if let (Some(f), Some(l)) = (s.events().first(), s.events().last()) {
                lo = Some(lo.map_or(f.time, |x: Timestamp| x.min(f.time)));
                hi = Some(hi.map_or(l.time, |x: Timestamp| x.max(l.time)));
            }
        }
        Some((lo?, hi?))
    }
}

/// Records every event of a sorted series into the index via a
/// [`crate::active::SeriesRecorder`] (width-aware same-bucket skipping,
/// ~O(buckets touched) per dense series).
fn record_series(index: &mut ActiveOriginIndex, u: NodeId, sorted: &[Event]) {
    let mut rec = crate::active::SeriesRecorder::new();
    for e in sorted {
        rec.note(index, u, e.time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// Paper Fig. 5(b): the time-series graph of the Fig. 2 multigraph.
    fn fig5() -> TimeSeriesGraph {
        let mut b = GraphBuilder::new();
        for (u, v, t, f) in [
            (0u32, 1u32, 13i64, 5.0),
            (0, 1, 15, 7.0),
            (2, 0, 10, 10.0),
            (3, 2, 1, 2.0),
            (3, 2, 3, 5.0),
            (3, 0, 11, 10.0),
            (1, 2, 18, 20.0),
            (2, 3, 19, 5.0),
            (2, 3, 21, 4.0),
            (1, 3, 23, 7.0),
        ] {
            b.add_interaction(u, v, t, f);
        }
        b.build_time_series_graph()
    }

    #[test]
    fn merging_matches_paper_fig5() {
        let g = fig5();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_pairs(), 7); // 7 connected node pairs
        assert_eq!(g.num_interactions(), 10);

        // (u1, u2) carries the two-element series (13,5), (15,7).
        let p = g.pair_id(0, 1).unwrap();
        let s = g.series(p);
        assert_eq!(s.len(), 2);
        assert_eq!(s.time(0), 13);
        assert_eq!(s.time(1), 15);
        assert_eq!(s.total_flow(), 12.0);
    }

    #[test]
    fn pair_lookup() {
        let g = fig5();
        assert!(g.pair_id(0, 1).is_some());
        assert!(g.pair_id(1, 0).is_none()); // direction matters
        assert!(g.pair_id(0, 3).is_none());
        for p in 0..g.num_pairs() as u32 {
            let (u, v) = g.pair(p);
            assert_eq!(g.pair_id(u, v), Some(p));
        }
    }

    #[test]
    fn out_neighbours_are_sorted_and_complete() {
        let g = fig5();
        let n3: Vec<_> = g.out_pairs(3).map(|(_, v)| v).collect();
        assert_eq!(n3, vec![0, 2]); // u4 -> u1, u4 -> u3
        assert_eq!(g.out_degree(1), 2); // u2 -> u3, u2 -> u4
        let total: usize = (0..4).map(|u| g.out_degree(u)).sum();
        assert_eq!(total, g.num_pairs());
    }

    #[test]
    fn time_span_covers_all_series() {
        let g = fig5();
        assert_eq!(g.time_span(), Some((1, 23)));
        assert_eq!(TimeSeriesGraph::default().time_span(), None);
    }

    #[test]
    fn isolated_trailing_nodes_are_kept() {
        let g =
            TimeSeriesGraph::from_pair_events(10, vec![((0, 1), vec![crate::Event::new(1, 1.0)])]);
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.out_degree(9), 0);
    }

    #[test]
    fn from_pair_series_matches_from_pair_events() {
        let events = vec![
            ((0u32, 1u32), vec![Event::new(13, 5.0), Event::new(15, 7.0)]),
            ((2, 0), vec![Event::new(10, 10.0)]),
        ];
        let by_events = TimeSeriesGraph::from_pair_events(0, events.clone());
        let by_series: Vec<_> =
            events.into_iter().map(|(p, ev)| (p, InteractionSeries::from_events(ev))).collect();
        let g = TimeSeriesGraph::from_pair_series(0, by_series);
        assert_eq!(g.num_nodes(), by_events.num_nodes());
        assert_eq!(g.num_interactions(), by_events.num_interactions());
        assert_eq!(g.pairs(), by_events.pairs());
        assert_eq!(g.all_series(), by_events.all_series());
    }

    #[test]
    fn in_place_mutation_keeps_counts_consistent() {
        let mut g = fig5();
        let p = g.pair_id(0, 1).unwrap();
        g.append_in_order(p, Event::new(20, 1.0));
        assert_eq!(g.num_interactions(), 11);
        assert_eq!(g.series(p).len(), 3);
        g.merge_events(p, &[Event::new(12, 2.0), Event::new(14, 2.0)]);
        assert_eq!(g.num_interactions(), 13);
        let times: Vec<_> = g.series(p).events().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![12, 13, 14, 15, 20]);
    }

    #[test]
    fn evict_and_retain_nonempty() {
        let mut g = fig5();
        // Drop everything before t=13: removes times 10, 1, 3 and 11.
        let removed = g.evict_before(13);
        assert_eq!(removed, 4);
        assert_eq!(g.num_interactions(), 6);
        // Pair ids are stable; emptied pairs remain with empty series.
        assert_eq!(g.num_pairs(), 7);
        let p32 = g.pair_id(3, 2).unwrap();
        assert!(g.series(p32).is_empty());
        let dropped = g.retain_nonempty();
        assert_eq!(dropped, 3); // (2,0), (3,2), (3,0) all lived before t=13
        assert_eq!(g.num_pairs(), 4);
        assert_eq!(g.num_interactions(), 6);
        // CSR lookups still work after the rebuild.
        for p in 0..g.num_pairs() as u32 {
            let (u, v) = g.pair(p);
            assert_eq!(g.pair_id(u, v), Some(p));
        }
        assert_eq!(g.time_span(), Some((13, 23)));
    }

    #[test]
    fn origin_spans_track_all_mutation_paths() {
        let mut g = fig5();
        // Construction: node 3's out-edges (3,2) and (3,0) span [1, 11].
        assert_eq!(g.origin_active_span(3), Some((1, 11)));
        assert_eq!(g.origin_active_span(0), Some((13, 15)));
        assert!(g.origin_active_in(3, TimeWindow::new(0, 5)));
        assert!(!g.origin_active_in(3, TimeWindow::new(12, 100)));
        // In-order append extends the span.
        let p = g.pair_id(3, 0).unwrap();
        g.append_in_order(p, Event::new(40, 1.0));
        assert_eq!(g.origin_active_span(3), Some((1, 40)));
        // Merge extends on both ends.
        g.merge_events(p, &[Event::new(0, 1.0), Event::new(50, 1.0)]);
        assert_eq!(g.origin_active_span(3), Some((0, 50)));
        // Eviction shrinks spans back to the surviving events.
        g.evict_before(13);
        assert_eq!(g.origin_active_span(3), Some((40, 50)));
        assert_eq!(g.origin_active_span(2), Some((19, 21)), "(2,3) survives");
        // A fully-evicted origin reports no span and is never returned.
        g.evict_before(100);
        for u in 0..4 {
            assert_eq!(g.origin_active_span(u), None);
        }
        assert!(g.active_origins_in(TimeWindow::new(i64::MIN, i64::MAX)).is_empty());
    }

    #[test]
    fn active_origins_cover_exactly_the_windowed_activity() {
        let g = fig5();
        // Origins with an out-event in [10, 15]: 2 (t=10), 3 (t=11),
        // 0 (t=13, 15).
        assert_eq!(g.active_origins_in(TimeWindow::new(10, 15)), vec![0, 2, 3]);
        // The returned set is always a superset of the truth and a subset
        // of the span-overlapping origins; verify against brute force.
        for (a, b) in [(0, 5), (10, 15), (16, 25), (22, 23), (24, 40)] {
            let w = TimeWindow::new(a, b);
            let got = g.active_origins_in(w);
            for u in 0..g.num_nodes() as NodeId {
                let truly_active =
                    g.out_pairs(u).any(|(p, _)| g.series(p).active_in(w.start, w.end));
                if truly_active {
                    assert!(got.contains(&u), "window [{a},{b}] must include origin {u}");
                }
                if got.contains(&u) {
                    assert!(g.origin_active_in(u, w), "window [{a},{b}] origin {u} has no span");
                }
            }
        }
    }

    #[test]
    fn sharded_active_origin_lookup_partitions_the_window_answer() {
        let g = fig5();
        for (a, b) in [(0, 5), (10, 15), (16, 25), (1, 23), (24, 40)] {
            let w = TimeWindow::new(a, b);
            let full = g.active_origins_in(w);
            let mut stitched = Vec::new();
            let mut shard = Vec::new();
            for lo in 0..g.num_nodes() as NodeId {
                g.active_origins_in_range(w, lo..lo + 1, &mut shard);
                assert!(shard.len() <= 1);
                stitched.extend_from_slice(&shard);
            }
            assert_eq!(stitched, full, "window [{a},{b}]");
        }
    }

    #[test]
    fn mid_batch_coarsening_never_drops_index_entries() {
        // Regression: a merge batch large enough to coarsen the index
        // mid-registration used to skip a later event whose new-width
        // bucket id collided with the stale pre-coarsen id, making the
        // indexed bounded query miss a real match. Build at width 8
        // (span [0, 2040]), then merge a batch that pushes past the
        // bucket cap (coarsen to width 16 fires mid-batch) and ends on a
        // colliding bucket id.
        let mut b = GraphBuilder::new();
        for t in (0..=2040i64).step_by(4) {
            b.add_interaction(0, 1, t, 1.0); // buckets 0..=255 at width 8
        }
        b.add_interaction(2, 3, 0, 1.0);
        let mut g = b.build_time_series_graph();
        let p = g.pair_id(2, 3).unwrap();
        // New buckets 256..=512: the 513th distinct bucket (t=4096)
        // crosses the cap and coarsens to width 16 mid-batch; the final
        // event's new-width bucket (8200/16 = 512) collides with the
        // stale old-width id of t=4096 (4096/8 = 512).
        let mut batch: Vec<Event> = (256..=512i64).map(|i| Event::new(i * 8, 1.0)).collect();
        batch.push(Event::new(8200, 1.0));
        g.merge_events(p, &batch);
        // Every merged event must be discoverable through the index.
        for t in [2048, 4096, 8200] {
            assert_eq!(
                g.active_origins_in(TimeWindow::new(t, t)),
                vec![2],
                "origin 2 must be indexed at t={t}"
            );
        }
    }

    #[test]
    fn eviction_shrinks_the_origin_index() {
        let mut b = GraphBuilder::new();
        for t in 0..2000i64 {
            b.add_interaction((t % 50) as NodeId, 50, t, 1.0);
        }
        let mut g = b.build_time_series_graph();
        let before = g.active_index_buckets();
        assert!(before > 1);
        g.evict_before(1500);
        assert!(g.active_index_buckets() < before, "whole buckets below the floor must drop");
        // Surviving activity is still found; evicted-only windows are not.
        assert_eq!(g.active_origins_in(TimeWindow::new(1500, 1999)).len(), 50);
    }

    #[test]
    fn insert_series_merges_new_pairs() {
        let mut g = fig5();
        let s = InteractionSeries::from_events(vec![Event::new(30, 2.0), Event::new(31, 3.0)]);
        g.insert_series(vec![((1, 0), s), ((5, 2), InteractionSeries::default())]);
        assert_eq!(g.num_pairs(), 9);
        assert_eq!(g.num_interactions(), 12);
        assert_eq!(g.num_nodes(), 6);
        let p = g.pair_id(1, 0).unwrap();
        assert_eq!(g.series(p).total_flow(), 5.0);
        assert!(g.pair_id(5, 2).is_some());
        for p in 0..g.num_pairs() as u32 {
            let (u, v) = g.pair(p);
            assert_eq!(g.pair_id(u, v), Some(p));
        }
        // Inserting nothing is a no-op.
        g.insert_series(Vec::new());
        assert_eq!(g.num_pairs(), 9);
    }

    /// Brute-force transpose check: every pair sits in its target's
    /// in-list, sorted by source, with SoA columns matching the tuples.
    fn check_in_adjacency(g: &TimeSeriesGraph) {
        let mut seen = 0usize;
        for v in 0..g.num_nodes() as NodeId {
            let mut prev = None;
            for i in 0..g.in_degree(v) {
                let p = g.in_pair_at(v, i);
                let (src, tgt) = g.pair(p);
                assert_eq!(tgt, v);
                assert_eq!(g.in_source_at(v, i), src);
                assert!(prev < Some(src), "in-list of {v} must ascend by source");
                prev = Some(src);
                seen += 1;
            }
        }
        assert_eq!(seen, g.num_pairs());
        for u in 0..g.num_nodes() as NodeId {
            for i in 0..g.out_degree(u) as u32 {
                assert_eq!(g.out_target_at(u, i), g.pair(g.out_pair_range(u).start + i).1);
            }
        }
    }

    #[test]
    fn in_adjacency_is_the_exact_transpose_through_every_rebuild() {
        let mut g = fig5();
        check_in_adjacency(&g);
        // insert_series rebuilds the CSR (and the transpose with it).
        let s = InteractionSeries::from_events(vec![Event::new(30, 2.0)]);
        g.insert_series(vec![((1, 0), s), ((5, 2), InteractionSeries::default())]);
        check_in_adjacency(&g);
        // Eviction + retain_nonempty compacts pair ids; the transpose
        // must follow.
        g.evict_before(13);
        g.retain_nonempty();
        check_in_adjacency(&g);
        // from_pair_series path.
        let g2 = TimeSeriesGraph::from_pair_series(
            0,
            vec![
                ((2u32, 0u32), InteractionSeries::from_events(vec![Event::new(1, 1.0)])),
                ((1, 0), InteractionSeries::from_events(vec![Event::new(2, 1.0)])),
                ((0, 2), InteractionSeries::from_events(vec![Event::new(3, 1.0)])),
            ],
        );
        check_in_adjacency(&g2);
        assert_eq!(g2.in_degree(0), 2);
        assert_eq!(g2.in_source_at(0, 0), 1);
        assert_eq!(g2.in_source_at(0, 1), 2);
    }
}
