//! A sealed segment plus a small in-RAM delta, composed into one
//! [`GraphStore`] — the streaming engine's epoch view.
//!
//! [`OverlayStore`] glues two backings together:
//!
//! * a **base**: an immutable, memory-mapped
//!   [`SegmentStore`] holding the bulk of
//!   the graph (shareable read-only across processes), and
//! * a **delta**: an in-memory [`TimeSeriesGraph`] holding everything
//!   appended since the base was sealed.
//!
//! The contract that keeps reads trivial: **for any pair present in
//! both, the delta holds the pair's *full merged series*** (base events
//! included). A read then never merges two series — it picks one backing
//! per pair. The streaming engine maintains the invariant by copying a
//! base pair's events into its delta accumulator the first time the
//! pair is touched; untouched pairs (the overwhelming majority under a
//! small delta) are served straight from the map.
//!
//! # Composite pair ids
//!
//! With `B = base.num_pairs()`:
//!
//! * `p < B` addresses base pair `p`. If the pair was touched, its
//!   series (only) is redirected to the delta's merged copy — topology
//!   queries (`pair`, `pair_id`, out-lists) still resolve through the
//!   base, which stays authoritative for ids it owns.
//! * `p >= B` addresses a pair absent from the base:
//!   `new_pairs[p - B]` gives its delta-local id. `new_pairs` inherits
//!   the delta CSR's `(u, v)` order, so these composite ids are sorted
//!   by `(u, v)` too and `pair_id` can binary-search them.
//!
//! Out-lists interleave ids from both ranges sorted by target (in-lists
//! likewise, sorted by source); origins and targets that gained no new
//! pair keep the base's positional lists, so building an overlay is
//! O(delta), never O(base).

use crate::event::{NodeId, PairId, Timestamp};
use crate::segment::SegmentStore;
use crate::series::SeriesRef;
use crate::store::GraphStore;
use crate::tsgraph::TimeSeriesGraph;
use crate::window::TimeWindow;
use flowmotif_util::FxHashMap;
use std::sync::Arc;

/// An immutable composite view: sealed segment base + in-RAM delta (see
/// the module docs). Cheap to build — O(delta pairs) — and cheap to
/// share behind an `Arc`.
#[derive(Debug)]
pub struct OverlayStore {
    base: Arc<SegmentStore>,
    delta: TimeSeriesGraph,
    /// Base pair id → delta pair id, for pairs present in both (the
    /// delta copy is the full merged series).
    overridden: FxHashMap<PairId, PairId>,
    /// Delta-local ids of pairs absent from the base, in the delta's
    /// `(u, v)` CSR order; entry `i` is composite pair `B + i`.
    new_pairs: Vec<PairId>,
    /// Merged out-lists (composite ids, sorted by target) for exactly
    /// the origins that gained at least one new pair.
    merged_out: FxHashMap<NodeId, Vec<PairId>>,
    /// Merged in-lists (composite ids, sorted by source) for exactly
    /// the targets that gained at least one new pair.
    merged_in: FxHashMap<NodeId, Vec<PairId>>,
    num_nodes: usize,
    num_interactions: usize,
}

impl OverlayStore {
    /// Composes `base` and `delta`. The caller guarantees the overlay
    /// invariant: every delta pair that also exists in the base carries
    /// the full merged series (the constructor checks event counts in
    /// debug builds).
    pub fn new(base: Arc<SegmentStore>, delta: TimeSeriesGraph) -> Self {
        let b = base.num_pairs() as PairId;
        let mut overridden = FxHashMap::default();
        let mut new_pairs = Vec::new();
        let mut delta_only_events = 0usize;
        for dp in 0..delta.num_pairs() as PairId {
            let (u, v) = GraphStore::pair(&delta, dp);
            match base.pair_id(u, v) {
                Some(bp) => {
                    let (dn, bn) = (GraphStore::series(&delta, dp).len(), base.series(bp).len());
                    debug_assert!(
                        dn >= bn,
                        "delta series of overridden pair ({u}, {v}) must include the base events"
                    );
                    delta_only_events += dn - bn;
                    overridden.insert(bp, dp);
                }
                None => {
                    delta_only_events += GraphStore::series(&delta, dp).len();
                    new_pairs.push(dp);
                }
            }
        }
        // `(u, v, composite id)` of every new pair, in `(u, v)` order.
        let fresh: Vec<(NodeId, NodeId, PairId)> = new_pairs
            .iter()
            .enumerate()
            .map(|(i, &dp)| {
                let (u, v) = GraphStore::pair(&delta, dp);
                (u, v, b + i as PairId)
            })
            .collect();
        // Only origins that gained a new pair need a merged out-list
        // (overridden pairs keep their base topology), so this is
        // O(delta), never O(base): one pass over the new pairs, each
        // origin's run merged with its base list by target.
        let mut merged_out = FxHashMap::default();
        for run in fresh.chunk_by(|x, y| x.0 == y.0) {
            let u = run[0].0;
            let degree = if (u as usize) < base.num_nodes() { base.out_degree(u) } else { 0 };
            let base_list = (0..degree).map(|i| (base.out_target_at(u, i), base.out_pair_at(u, i)));
            merged_out.insert(u, merge_by_key(base_list, run.iter().map(|&(_, v, p)| (v, p))));
        }
        // The transposed view: the new pairs bucketed by target, each
        // run merged with its base in-list by source.
        let mut by_target = fresh;
        by_target.sort_unstable_by_key(|&(u, v, _)| (v, u));
        let mut merged_in = FxHashMap::default();
        for run in by_target.chunk_by(|x, y| x.1 == y.1) {
            let v = run[0].1;
            let degree = if (v as usize) < base.num_nodes() { base.in_degree(v) } else { 0 };
            let base_list = (0..degree).map(|i| (base.in_source_at(v, i), base.in_pair_at(v, i)));
            merged_in.insert(v, merge_by_key(base_list, run.iter().map(|&(u, _, p)| (u, p))));
        }
        let num_nodes = base.num_nodes().max(delta.num_nodes());
        let num_interactions = base.num_interactions() + delta_only_events;
        Self {
            base,
            delta,
            overridden,
            new_pairs,
            merged_out,
            merged_in,
            num_nodes,
            num_interactions,
        }
    }

    /// The sealed base segment.
    pub fn base(&self) -> &Arc<SegmentStore> {
        &self.base
    }

    /// The in-RAM delta graph (full merged series for touched base
    /// pairs, plain series for new pairs).
    pub fn delta(&self) -> &TimeSeriesGraph {
        &self.delta
    }

    /// The base may know fewer nodes than the composite view (the delta
    /// can introduce fresh node ids); never hand it one it doesn't own.
    #[inline]
    fn in_base(&self, u: NodeId) -> bool {
        (u as usize) < self.base.num_nodes()
    }

    /// Interactions resident only in the delta (new pairs plus the
    /// appended tail of touched base pairs) — the size publishes and
    /// reseals scale with.
    pub fn delta_interactions(&self) -> usize {
        self.num_interactions - self.base.num_interactions()
    }

    /// Streams every pair of the composite view in `(u, v)` order as
    /// `(u, v, series)`, resolving each pair to its authoritative
    /// backing — the reseal path's input.
    pub fn for_each_merged_series<F: FnMut(NodeId, NodeId, SeriesRef<'_>)>(&self, mut f: F) {
        let b = self.base.num_pairs() as PairId;
        let (mut bp, mut ni) = (0 as PairId, 0usize);
        loop {
            let bk = (bp < b).then(|| self.base.pair(bp));
            let nk = self.new_pairs.get(ni).map(|&dp| GraphStore::pair(&self.delta, dp));
            // The two id ranges partition the pair set, so keys never tie.
            let take_base = match (bk, nk) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(bkey), Some(nkey)) => bkey < nkey,
            };
            if take_base {
                let (u, v) = bk.unwrap();
                f(u, v, self.series(bp));
                bp += 1;
            } else {
                let (u, v) = nk.unwrap();
                f(u, v, GraphStore::series(&self.delta, self.new_pairs[ni]));
                ni += 1;
            }
        }
    }
}

/// Merges two id lists, each sorted by its node key, into one list
/// sorted by that key. A `(u, v)` pair lives in exactly one id range,
/// so keys never tie across the two lists.
fn merge_by_key(
    base: impl Iterator<Item = (NodeId, PairId)>,
    fresh: impl Iterator<Item = (NodeId, PairId)>,
) -> Vec<PairId> {
    let mut fresh = fresh.peekable();
    let mut out = Vec::new();
    for (key, p) in base {
        while let Some((_, q)) = fresh.next_if(|&(k, _)| k < key) {
            out.push(q);
        }
        out.push(p);
    }
    out.extend(fresh.map(|(_, q)| q));
    out
}

impl GraphStore for OverlayStore {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn num_pairs(&self) -> usize {
        self.base.num_pairs() + self.new_pairs.len()
    }

    fn num_interactions(&self) -> usize {
        self.num_interactions
    }

    fn pair(&self, p: PairId) -> (NodeId, NodeId) {
        let b = self.base.num_pairs() as PairId;
        if p < b {
            self.base.pair(p)
        } else {
            GraphStore::pair(&self.delta, self.new_pairs[(p - b) as usize])
        }
    }

    fn series(&self, p: PairId) -> SeriesRef<'_> {
        let b = self.base.num_pairs() as PairId;
        if p < b {
            match self.overridden.get(&p) {
                Some(&dp) => GraphStore::series(&self.delta, dp),
                None => self.base.series(p),
            }
        } else {
            GraphStore::series(&self.delta, self.new_pairs[(p - b) as usize])
        }
    }

    fn out_degree(&self, u: NodeId) -> u32 {
        match self.merged_out.get(&u) {
            Some(pairs) => pairs.len() as u32,
            None if self.in_base(u) => self.base.out_degree(u),
            None => 0,
        }
    }

    fn out_pair_at(&self, u: NodeId, i: u32) -> PairId {
        match self.merged_out.get(&u) {
            Some(pairs) => pairs[i as usize],
            None => self.base.out_pair_at(u, i),
        }
    }

    fn out_target_at(&self, u: NodeId, i: u32) -> NodeId {
        match self.merged_out.get(&u) {
            Some(pairs) => self.pair(pairs[i as usize]).1,
            None => self.base.out_target_at(u, i),
        }
    }

    fn in_degree(&self, v: NodeId) -> u32 {
        match self.merged_in.get(&v) {
            Some(pairs) => pairs.len() as u32,
            None if self.in_base(v) => self.base.in_degree(v),
            None => 0,
        }
    }

    fn in_pair_at(&self, v: NodeId, i: u32) -> PairId {
        match self.merged_in.get(&v) {
            Some(pairs) => pairs[i as usize],
            None => self.base.in_pair_at(v, i),
        }
    }

    fn in_source_at(&self, v: NodeId, i: u32) -> NodeId {
        match self.merged_in.get(&v) {
            Some(pairs) => self.pair(pairs[i as usize]).0,
            None => self.base.in_source_at(v, i),
        }
    }

    fn pair_id(&self, u: NodeId, v: NodeId) -> Option<PairId> {
        if self.in_base(u) {
            if let Some(p) = self.base.pair_id(u, v) {
                return Some(p);
            }
        }
        let b = self.base.num_pairs() as PairId;
        self.new_pairs
            .binary_search_by_key(&(u, v), |&dp| GraphStore::pair(&self.delta, dp))
            .ok()
            .map(|i| b + i as PairId)
    }

    fn origin_active_span(&self, u: NodeId) -> Option<(Timestamp, Timestamp)> {
        // The delta span of a touched base pair covers its base events
        // too (full merged series), so the union is exact.
        let base_span = if self.in_base(u) { self.base.origin_active_span(u) } else { None };
        match (base_span, GraphStore::origin_active_span(&self.delta, u)) {
            (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d))),
            (s, None) | (None, s) => s,
        }
    }

    fn active_origins_in_range(
        &self,
        w: TimeWindow,
        range: std::ops::Range<NodeId>,
        out: &mut Vec<NodeId>,
    ) {
        self.base.active_origins_in_range(w, range.clone(), out);
        let mut from_delta = Vec::new();
        GraphStore::active_origins_in_range(&self.delta, w, range, &mut from_delta);
        out.extend(from_delta);
        out.sort_unstable();
        out.dedup();
    }

    fn time_span(&self) -> Option<(Timestamp, Timestamp)> {
        match (self.base.time_span(), GraphStore::time_span(&self.delta)) {
            (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d))),
            (s, None) | (None, s) => s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::segment::write_segment;
    use crate::Event;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "flowmotif-overlay-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    const BASE: [(NodeId, NodeId, Timestamp, f64); 6] = [
        (0, 1, 10, 5.0),
        (0, 1, 15, 7.0),
        (1, 2, 18, 20.0),
        (2, 0, 10, 10.0),
        (2, 3, 19, 5.0),
        (3, 0, 11, 10.0),
    ];
    const DELTA: [(NodeId, NodeId, Timestamp, f64); 4] = [
        (0, 1, 21, 3.0), // touches a base pair
        (1, 3, 23, 7.0), // new pair, existing origin
        (4, 2, 25, 1.0), // new pair, new origin
        (4, 2, 26, 2.0),
    ];

    fn build(edges: &[(NodeId, NodeId, Timestamp, f64)]) -> TimeSeriesGraph {
        let mut b = GraphBuilder::new();
        b.extend_interactions(edges.iter().copied());
        b.build_time_series_graph()
    }

    /// The overlay with BASE sealed and DELTA on top, next to the
    /// in-memory graph of BASE ∪ DELTA it must be indistinguishable
    /// from.
    fn overlay_and_reference(tag: &str) -> (OverlayStore, TimeSeriesGraph) {
        let dir = tmp_dir(tag);
        write_segment(&build(&BASE), &dir).unwrap();
        let base = Arc::new(SegmentStore::open(&dir).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();

        // Delta invariant: touched base pairs carry their full series.
        let mut pairs: FxHashMap<(NodeId, NodeId), Vec<Event>> = FxHashMap::default();
        for &(u, v, t, f) in &DELTA {
            let entry = pairs.entry((u, v)).or_insert_with(|| {
                base.pair_id(u, v).map(|p| base.series(p).events().to_vec()).unwrap_or_default()
            });
            entry.push(Event { time: t, flow: f });
        }
        let num_nodes = 5;
        let delta = TimeSeriesGraph::from_pair_events(num_nodes, pairs.into_iter().collect());

        let mut all: Vec<_> = BASE.to_vec();
        all.extend_from_slice(&DELTA);
        (OverlayStore::new(base, delta), build(&all))
    }

    #[test]
    fn overlay_is_indistinguishable_from_the_merged_graph() {
        let (ov, want) = overlay_and_reference("equiv");
        assert_eq!(ov.num_nodes(), want.num_nodes());
        assert_eq!(GraphStore::num_pairs(&ov), want.num_pairs());
        assert_eq!(GraphStore::num_interactions(&ov), want.num_interactions());
        assert_eq!(GraphStore::time_span(&ov), TimeSeriesGraph::time_span(&want));
        for u in 0..want.num_nodes() as NodeId {
            assert_eq!(ov.out_degree(u), GraphStore::out_degree(&want, u), "degree of {u}");
            assert_eq!(
                ov.origin_active_span(u),
                TimeSeriesGraph::origin_active_span(&want, u),
                "span of {u}"
            );
            let deg = ov.out_degree(u);
            for i in 0..deg {
                let (op, wp) = (ov.out_pair_at(u, i), GraphStore::out_pair_at(&want, u, i));
                assert_eq!(ov.pair(op), GraphStore::pair(&want, wp), "pair {i} of {u}");
                assert_eq!(
                    ov.out_target_at(u, i),
                    GraphStore::out_target_at(&want, u, i),
                    "target {i} of {u}"
                );
                let (os, ws) = (ov.series(op), GraphStore::series(&want, wp));
                assert_eq!(os.events(), ws.events(), "series of {:?}", ov.pair(op));
                let (u2, v2) = ov.pair(op);
                assert_eq!(ov.pair_id(u2, v2), Some(op));
            }
            assert_eq!(ov.in_degree(u), GraphStore::in_degree(&want, u), "in-degree of {u}");
            for i in 0..ov.in_degree(u) {
                let (op, wp) = (ov.in_pair_at(u, i), GraphStore::in_pair_at(&want, u, i));
                assert_eq!(ov.pair(op), GraphStore::pair(&want, wp), "in-pair {i} of {u}");
                assert_eq!(
                    ov.in_source_at(u, i),
                    GraphStore::in_source_at(&want, u, i),
                    "in-source {i} of {u}"
                );
            }
        }
        assert_eq!(ov.pair_id(0, 3), None);
        assert_eq!(ov.pair_id(9, 9), None);
    }

    #[test]
    fn overlay_activity_matches_the_merged_graph() {
        let (ov, want) = overlay_and_reference("activity");
        let windows = [
            TimeWindow::new(0, 30),
            TimeWindow::new(21, 26),
            TimeWindow::new(10, 15),
            TimeWindow::new(40, 50),
        ];
        let mut got = Vec::new();
        for w in windows {
            ov.active_origins_in_range(w, 0..want.num_nodes() as NodeId, &mut got);
            // Both are conservative supersets; after the exact-span
            // filter they must agree here (spans are exact per origin).
            assert_eq!(got, want.active_origins_in(w), "window {w:?}");
        }
    }

    #[test]
    fn merged_series_stream_visits_every_pair_in_order() {
        let (ov, want) = overlay_and_reference("stream");
        let mut seen = Vec::new();
        ov.for_each_merged_series(|u, v, s| seen.push(((u, v), s.events().to_vec())));
        assert_eq!(seen.len(), want.num_pairs());
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0), "must stream in (u, v) order");
        for ((u, v), events) in seen {
            let p = TimeSeriesGraph::pair_id(&want, u, v).unwrap();
            assert_eq!(events, TimeSeriesGraph::series(&want, p).events(), "({u}, {v})");
        }
    }

    #[test]
    fn empty_delta_passes_reads_through() {
        let dir = tmp_dir("passthrough");
        let g = build(&BASE);
        write_segment(&g, &dir).unwrap();
        let base = Arc::new(SegmentStore::open(&dir).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
        let ov = OverlayStore::new(Arc::clone(&base), TimeSeriesGraph::default());
        assert_eq!(GraphStore::num_pairs(&ov), base.num_pairs());
        assert_eq!(GraphStore::num_interactions(&ov), base.num_interactions());
        assert_eq!(ov.delta_interactions(), 0);
        for p in 0..base.num_pairs() as PairId {
            assert_eq!(ov.series(p).events(), base.series(p).events());
        }
    }
}
