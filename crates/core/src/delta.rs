//! Delta evaluation for standing queries: after one appended interaction,
//! refresh only the structural matches that can possibly have changed,
//! instead of re-running the whole two-phase search.
//!
//! # Why the anchor window is sound
//!
//! Every instance spans at most `δ` (Def. 3.2), so an instance using a
//! *new* event at time `t` lies entirely inside `W = [t − δ, t + δ]` —
//! and every pair of its structural match therefore carries at least one
//! interaction in `W`. Conversely, the per-match P2 result is a pure
//! function of the match's pair series, so a match whose pairs did not
//! change (and that cannot host an instance using the new event) keeps
//! its instance set verbatim. Hence the affected matches after appending
//! to pair `(u, v)` are exactly the `W`-active structural matches that
//! *use* `(u, v)`. They are found by one pair-anchored P1 run,
//! [`crate::matcher::P1Driver::through_pair`] bounded by `W`: for every
//! motif edge the pair can fill, the walk is seeded at that edge and
//! bound outward from it (backward over in-lists, forward over
//! out-lists), so the cost scales with the matches around the new pair,
//! not with the whole `W`-active graph. Appends can also *retire*
//! instances (a grown edge-set subsumes a previously maximal one), but
//! only inside affected matches, for the same reason.
//!
//! The emission order of one append is deterministic: matches stream
//! grouped by the motif edge the new pair fills (in label order), then
//! in the anchored DFS order, and within a match instances follow P2's
//! order.
//!
//! Under **eviction** the affected matches are the *stored* ones touching
//! a drained pair: a post-eviction instance is also a valid pre-eviction
//! instance, so a match gaining a (newly maximal) instance from eviction
//! already had a maximal superset instance before — i.e. it is stored.
//! The drained pairs go into a scratch hash set, so finding those
//! matches is one pass over the stored keys with O(1) lookups per walk
//! edge.
//!
//! # Identity stability
//!
//! `PairId`s remap on compaction and series indices shift on eviction, so
//! the context never stores either: matches are keyed by their graph
//! vertex walk and instances are canonicalized into [`DeltaInstance`]
//! (endpoints, boundary timestamps, event count and flow per edge-set,
//! plus a 64-bit hash folded over the full `(time, flow)` event list).
//! Compaction and segment reseals are therefore no-ops for the context.
//!
//! # Allocation discipline
//!
//! The steady state — an append whose affected matches all re-enumerate
//! to their stored instance sets — allocates nothing: the membership
//! check streams borrowed [`InstanceView`]s against the stored canonical
//! forms. Only a genuine change (new or retired instances) rebuilds that
//! match's stored vector. The `alloc_profile` bench gates the quiet path.

use crate::enumerate::{
    enumerate_in_match_bounded, enumerate_window_with_sink_scratch, FnSink, SearchOptions,
    SearchStats,
};
use crate::instance::{InstanceView, StructuralMatch};
use crate::matcher::P1Driver;
use crate::motif::Motif;
use crate::scratch::SearchScratch;
use flowmotif_graph::{Flow, GraphStore, NodeId, TimeWindow, Timestamp};
use flowmotif_util::{FxHashMap, FxHashSet, FxHasher};
use std::hash::Hasher;

/// The unbounded window (every timestamp admissible).
const UNBOUNDED: TimeWindow = TimeWindow { start: Timestamp::MIN, end: Timestamp::MAX };

/// One motif edge of a canonicalized instance: graph endpoints plus the
/// shape of its edge-set, stable across `PairId` remaps and series index
/// shifts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaEdge {
    /// Source graph vertex of the pair this motif edge maps to.
    pub from: NodeId,
    /// Target graph vertex.
    pub to: NodeId,
    /// Timestamp of the edge-set's first element.
    pub first_time: Timestamp,
    /// Timestamp of the edge-set's last element.
    pub last_time: Timestamp,
    /// Number of elements aggregated into the set.
    pub count: u32,
    /// Aggregated flow of the set.
    pub flow: Flow,
}

/// A canonicalized motif instance as stored by [`DeltaContext`]:
/// graph-content identity only (no `PairId`s, no series indices), so it
/// survives compaction and eviction, plus a hash folded over the full
/// per-set `(time, flow)` event lists for exact-in-practice equality.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaInstance {
    /// Canonical hash over endpoints and every `(time, flow)` element.
    pub hash: u64,
    /// Instance flow `f(G_I)`.
    pub flow: Flow,
    /// Timestamp of the temporally first element.
    pub first_time: Timestamp,
    /// Timestamp of the temporally last element.
    pub last_time: Timestamp,
    /// Per-motif-edge canonical edge-sets, in label order.
    pub edges: Vec<DeltaEdge>,
}

impl DeltaInstance {
    /// Canonicalizes a borrowed enumerator view (allocates the edge vec).
    pub fn from_view<G: GraphStore>(g: &G, view: &InstanceView<'_>) -> Self {
        let edges = view
            .edge_sets
            .iter()
            .map(|es| {
                let (from, to) = g.pair(es.pair);
                let ev = es.events(g);
                DeltaEdge {
                    from,
                    to,
                    first_time: ev.first().expect("non-empty edge-set").time,
                    last_time: ev.last().expect("non-empty edge-set").time,
                    count: es.len() as u32,
                    flow: es.flow(g),
                }
            })
            .collect();
        Self {
            hash: hash_view(g, view),
            flow: view.flow,
            first_time: view.first_time,
            last_time: view.last_time,
            edges,
        }
    }

    /// Whether this stored instance is the canonical form of `view`
    /// (whose canonical hash is `view_hash`). Allocation-free.
    fn matches_view<G: GraphStore>(&self, g: &G, view: &InstanceView<'_>, view_hash: u64) -> bool {
        if self.hash != view_hash
            || self.flow != view.flow
            || self.first_time != view.first_time
            || self.last_time != view.last_time
            || self.edges.len() != view.edge_sets.len()
        {
            return false;
        }
        self.edges.iter().zip(view.edge_sets.iter()).all(|(de, es)| {
            let (from, to) = g.pair(es.pair);
            let ev = es.events(g);
            de.from == from
                && de.to == to
                && de.count as usize == ev.len()
                && de.first_time == ev.first().expect("non-empty").time
                && de.last_time == ev.last().expect("non-empty").time
                && de.flow == es.flow(g)
        })
    }
}

/// Folds the canonical identity of a view — endpoints plus every
/// `(time, flow)` element of every edge-set — into one 64-bit hash,
/// without allocating.
fn hash_view<G: GraphStore>(g: &G, view: &InstanceView<'_>) -> u64 {
    let mut h = FxHasher::default();
    for es in view.edge_sets {
        let (from, to) = g.pair(es.pair);
        h.write_u32(from);
        h.write_u32(to);
        for e in es.events(g) {
            h.write_u64(e.time as u64);
            h.write_u64(e.flow.to_bits());
        }
        // Length marker so adjacent sets cannot alias each other.
        h.write_u64(u64::MAX);
    }
    h.finish()
}

/// Counters describing one delta evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Structural matches visited by the anchored P1 scan.
    pub matches_scanned: u64,
    /// Matches whose stored instance set actually changed.
    pub matches_changed: u64,
    /// Instances newly entering the standing result (emitted).
    pub instances_emitted: u64,
    /// Previously stored instances retired (subsumed or evicted).
    pub instances_retired: u64,
}

impl DeltaStats {
    /// Merges counters from another evaluation.
    pub fn merge(&mut self, o: &DeltaStats) {
        self.matches_scanned += o.matches_scanned;
        self.matches_changed += o.matches_changed;
        self.instances_emitted += o.instances_emitted;
        self.instances_retired += o.instances_retired;
    }
}

/// The materialized result set of one standing query, maintained by delta
/// evaluation: per structural match (keyed by its stable vertex walk) the
/// canonical instances currently maximal. [`DeltaContext::on_append`] and
/// [`DeltaContext::on_pairs_evicted`] keep it equal to what a full
/// re-query would return — the invariant the `prop_delta_equivalence`
/// suite proves — and report every instance *entering* the set to an
/// emission callback (the push-notification feed).
#[derive(Debug, Default)]
pub struct DeltaContext {
    /// Stored matches with a non-empty instance set, keyed by walk nodes.
    matches: FxHashMap<Vec<NodeId>, Vec<DeltaInstance>>,
    /// Scratch: the walk-node key of the match being refreshed.
    key_buf: Vec<NodeId>,
    /// Scratch: keys of stored matches needing an eviction rescan,
    /// flattened (one walk-length chunk per key).
    rescan: Vec<NodeId>,
    /// Scratch: the drained pairs of one eviction, for O(1) lookups.
    drained_set: FxHashSet<(NodeId, NodeId)>,
    /// Scratch: a structural match rebuilt from a stored key.
    sm_buf: StructuralMatch,
}

impl DeltaContext {
    /// An empty context (no stored instances).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every stored match and instance.
    pub fn clear(&mut self) {
        self.matches.clear();
    }

    /// Total instances currently in the standing result set.
    pub fn num_instances(&self) -> usize {
        self.matches.values().map(Vec::len).sum()
    }

    /// Stored matches with at least one instance.
    pub fn num_matches(&self) -> usize {
        self.matches.len()
    }

    /// Visits every stored `(walk nodes, instance)` pair, in unspecified
    /// order (the equivalence suite sorts canonical renderings).
    pub fn for_each_instance(&self, mut f: impl FnMut(&[NodeId], &DeltaInstance)) {
        for (key, insts) in &self.matches {
            for di in insts {
                f(key, di);
            }
        }
    }

    /// Replaces the stored state with a full re-query of `g` (no
    /// emissions) — run once at subscribe time to materialize the view
    /// the deltas then maintain.
    pub fn seed<G: GraphStore>(
        &mut self,
        g: &G,
        motif: &Motif,
        bounds: Option<TimeWindow>,
        opts: SearchOptions,
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
    ) {
        self.matches.clear();
        let Self { matches, key_buf, .. } = self;
        let walk = motif.path().walk();
        let mut sink = FnSink(|sm: &StructuralMatch, view: InstanceView<'_>| {
            key_buf.clear();
            key_buf.extend(walk.iter().map(|&l| sm.nodes[l as usize]));
            let di = DeltaInstance::from_view(g, &view);
            match matches.get_mut(key_buf.as_slice()) {
                Some(v) => v.push(di),
                None => {
                    matches.insert(key_buf.clone(), vec![di]);
                }
            }
        });
        let run = enumerate_window_with_sink_scratch(
            g,
            motif,
            bounds.unwrap_or(UNBOUNDED),
            opts,
            &mut sink,
            scratch,
        );
        stats.merge(&run);
    }

    /// Delta evaluation for one appended interaction `(from, to, time)`:
    /// refreshes exactly the structural matches that can have changed
    /// (see the module docs) and emits every instance entering the
    /// result set. The graph must already contain the new event.
    #[allow(clippy::too_many_arguments)] // the full standing-query state is the argument
    pub fn on_append<G: GraphStore>(
        &mut self,
        g: &G,
        motif: &Motif,
        bounds: Option<TimeWindow>,
        opts: SearchOptions,
        from: NodeId,
        to: NodeId,
        time: Timestamp,
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
        mut emit: impl FnMut(&[NodeId], &DeltaInstance),
    ) -> DeltaStats {
        let mut ds = DeltaStats::default();
        if let Some(w) = bounds {
            if time < w.start || time > w.end {
                // The new event is invisible to the bounded query; the
                // bounded P2 results of every match are unchanged.
                return ds;
            }
        }
        let p2_bounds = bounds.unwrap_or(UNBOUNDED);
        let delta = motif.delta();
        let anchor = TimeWindow::new(
            time.saturating_sub(delta).max(p2_bounds.start),
            time.saturating_add(delta).min(p2_bounds.end),
        );
        let Self { matches, key_buf, .. } = self;
        let SearchScratch { p1, p2, .. } = scratch;
        let walk = motif.path().walk();
        // Every pair of an affected match is active inside the anchor
        // window (the instance using the new event fits in it), so the
        // bounded pair-anchored run visits exactly the affected matches.
        P1Driver::new(motif.path())
            .bounds(anchor)
            .through_pair(from, to)
            .use_index(opts.use_active_index)
            .extension_order(opts.extension_order)
            .run(g, p1, &mut |sm| {
                ds.matches_scanned += 1;
                refresh_match(
                    g, motif, walk, sm, p2_bounds, opts, matches, key_buf, p2, stats, &mut ds,
                    &mut emit,
                );
            });
        ds
    }

    /// Delta evaluation after events were evicted from `drained` pairs:
    /// re-enumerates the *stored* matches using any drained pair (only
    /// those can gain or lose instances — see the module docs) and emits
    /// instances that became maximal through the eviction.
    #[allow(clippy::too_many_arguments)] // mirrors on_append
    pub fn on_pairs_evicted<G: GraphStore>(
        &mut self,
        g: &G,
        motif: &Motif,
        bounds: Option<TimeWindow>,
        opts: SearchOptions,
        drained: &[(NodeId, NodeId)],
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
        mut emit: impl FnMut(&[NodeId], &DeltaInstance),
    ) -> DeltaStats {
        let mut ds = DeltaStats::default();
        if drained.is_empty() || self.matches.is_empty() {
            return ds;
        }
        let p2_bounds = bounds.unwrap_or(UNBOUNDED);
        let Self { matches, key_buf, rescan, drained_set, sm_buf } = self;
        drained_set.clear();
        drained_set.extend(drained.iter().copied());
        rescan.clear();
        for key in matches.keys() {
            if key.windows(2).any(|w| drained_set.contains(&(w[0], w[1]))) {
                rescan.extend_from_slice(key);
            }
        }
        let SearchScratch { p2, .. } = scratch;
        let walk = motif.path().walk();
        'keys: for key in rescan.chunks_exact(walk.len()) {
            ds.matches_scanned += 1;
            // Rebuild the structural match from the stable walk; a pair
            // compacted away means the match is structurally gone.
            sm_buf.nodes.clear();
            sm_buf.nodes.resize(motif.path().num_nodes(), 0);
            sm_buf.pairs.clear();
            for (i, &l) in walk.iter().enumerate() {
                sm_buf.nodes[l as usize] = key[i];
            }
            for w in key.windows(2) {
                match g.pair_id(w[0], w[1]) {
                    Some(p) => sm_buf.pairs.push(p),
                    None => {
                        if let Some(old) = matches.remove(key) {
                            ds.matches_changed += 1;
                            ds.instances_retired += old.len() as u64;
                        }
                        continue 'keys;
                    }
                }
            }
            refresh_match(
                g, motif, walk, sm_buf, p2_bounds, opts, matches, key_buf, p2, stats, &mut ds,
                &mut emit,
            );
        }
        ds
    }
}

/// Re-enumerates one structural match and reconciles the stored instance
/// set: a two-pass scheme whose first pass only *checks* (allocation-free
/// when nothing changed) and whose second pass rebuilds the stored vector
/// and emits the genuinely new instances.
#[allow(clippy::too_many_arguments)] // internal plumbing of DeltaContext
fn refresh_match<G: GraphStore>(
    g: &G,
    motif: &Motif,
    walk: &[u8],
    sm: &StructuralMatch,
    p2_bounds: TimeWindow,
    opts: SearchOptions,
    matches: &mut FxHashMap<Vec<NodeId>, Vec<DeltaInstance>>,
    key_buf: &mut Vec<NodeId>,
    p2: &mut crate::enumerate::EnumerationScratch,
    stats: &mut SearchStats,
    ds: &mut DeltaStats,
    emit: &mut impl FnMut(&[NodeId], &DeltaInstance),
) {
    key_buf.clear();
    key_buf.extend(walk.iter().map(|&l| sm.nodes[l as usize]));
    let stored: &[DeltaInstance] = matches.get(key_buf.as_slice()).map_or(&[], Vec::as_slice);
    // Pass 1: count how many enumerated instances are already stored. If
    // all are and the counts line up, the sets are equal — done, and not
    // a single byte was allocated.
    let (mut total, mut known) = (0usize, 0usize);
    {
        let mut sink = FnSink(|_sm: &StructuralMatch, view: InstanceView<'_>| {
            total += 1;
            let h = hash_view(g, &view);
            if stored.iter().any(|d| d.matches_view(g, &view, h)) {
                known += 1;
            }
        });
        enumerate_in_match_bounded(g, motif, sm, p2_bounds, opts, &mut sink, stats, p2);
    }
    if known == total && total == stored.len() {
        return;
    }
    ds.matches_changed += 1;
    // Pass 2: something changed — rebuild the stored set, emitting every
    // instance that was not previously stored. P2 is deterministic, so
    // the two passes see the same instances.
    let old = matches.remove(key_buf.as_slice()).unwrap_or_default();
    let mut fresh: Vec<DeltaInstance> = Vec::with_capacity(total);
    {
        let mut sink = FnSink(|_sm: &StructuralMatch, view: InstanceView<'_>| {
            let h = hash_view(g, &view);
            let di = DeltaInstance::from_view(g, &view);
            if !old.iter().any(|d| d.matches_view(g, &view, h)) {
                ds.instances_emitted += 1;
                emit(key_buf, &di);
            }
            fresh.push(di);
        });
        let mut resweep = SearchStats::default();
        enumerate_in_match_bounded(g, motif, sm, p2_bounds, opts, &mut sink, &mut resweep, p2);
    }
    ds.instances_retired += old.iter().filter(|o| !fresh.contains(o)).count() as u64;
    if !fresh.is_empty() {
        matches.insert(key_buf.clone(), fresh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use flowmotif_graph::GraphBuilder;

    fn canonicalize(
        g: &flowmotif_graph::TimeSeriesGraph,
        groups: &[(StructuralMatch, Vec<crate::MotifInstance>)],
    ) -> Vec<String> {
        let mut out: Vec<String> = groups
            .iter()
            .flat_map(|(sm, v)| {
                v.iter().map(move |i| {
                    format!(
                        "{:?} {:?}",
                        sm.walk_nodes(g),
                        DeltaInstance::from_view(g, &i.as_view())
                    )
                })
            })
            .collect();
        out.sort();
        out
    }

    fn dump(ctx: &DeltaContext) -> Vec<String> {
        let mut out = Vec::new();
        ctx.for_each_instance(|key, di| out.push(format!("{key:?} {di:?}")));
        out.sort();
        out
    }

    #[test]
    fn incremental_appends_track_full_requery() {
        // Stream the paper's Fig. 2 example edge by edge; after every
        // append the context must equal a full re-query.
        let edges: [(NodeId, NodeId, Timestamp, f64); 10] = [
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
        let motif = catalog::by_name("M(3,3)", 10, 0.0).unwrap();
        let mut ctx = DeltaContext::new();
        let mut scratch = SearchScratch::default();
        let mut stats = SearchStats::default();
        for n in 1..=edges.len() {
            let mut b = GraphBuilder::new();
            b.extend_interactions(edges[..n].iter().copied());
            let g = b.build_time_series_graph();
            let (u, v, t, _) = edges[n - 1];
            ctx.on_append(
                &g,
                &motif,
                None,
                SearchOptions::default(),
                u,
                v,
                t,
                &mut scratch,
                &mut stats,
                |_, _| {},
            );
            let (groups, _) = crate::enumerate_all(&g, &motif);
            assert_eq!(dump(&ctx), canonicalize(&g, &groups), "prefix {n}");
        }
        // The per-match P2 runs accumulate into the caller's SearchStats
        // (structural_matches is a P1-driver counter and stays zero here).
        assert!(stats.windows_processed > 0);
        assert!(stats.instances_emitted > 0);
    }

    #[test]
    fn emission_happens_once_per_instance() {
        let motif = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        let mut ctx = DeltaContext::new();
        let mut scratch = SearchScratch::default();
        let mut stats = SearchStats::default();
        let mut emitted = 0usize;
        let edges: [(NodeId, NodeId, Timestamp, f64); 2] = [(0, 1, 1, 2.0), (1, 2, 2, 3.0)];
        for n in 1..=2 {
            let mut b = GraphBuilder::new();
            b.extend_interactions(edges[..n].iter().copied());
            let g = b.build_time_series_graph();
            let (u, v, t, _) = edges[n - 1];
            ctx.on_append(
                &g,
                &motif,
                None,
                SearchOptions::default(),
                u,
                v,
                t,
                &mut scratch,
                &mut stats,
                |_, _| emitted += 1,
            );
        }
        assert_eq!(emitted, 1, "one instance, announced exactly once");
        assert_eq!(ctx.num_instances(), 1);
        // Re-processing the same append finds everything unchanged.
        let mut b = GraphBuilder::new();
        b.extend_interactions(edges);
        let g = b.build_time_series_graph();
        let ds = ctx.on_append(
            &g,
            &motif,
            None,
            SearchOptions::default(),
            1,
            2,
            2,
            &mut scratch,
            &mut stats,
            |_, _| emitted += 1,
        );
        assert_eq!(emitted, 1);
        assert_eq!(ds.matches_changed, 0);
        assert!(ds.matches_scanned >= 1);
    }

    #[test]
    fn growth_replaces_subsumed_instance() {
        // Appending a second e2 element within δ subsumes the previous
        // maximal instance: the enlarged instance is emitted, the old one
        // retired, and the view matches a re-query.
        let motif = catalog::by_name("M(3,2)", 100, 0.0).unwrap();
        let mut ctx = DeltaContext::new();
        let mut scratch = SearchScratch::default();
        let mut stats = SearchStats::default();
        let mut b = GraphBuilder::new();
        b.extend_interactions([(0u32, 1u32, 10i64, 1.0), (1, 2, 12, 2.0)]);
        let g = b.build_time_series_graph();
        ctx.seed(&g, &motif, None, SearchOptions::default(), &mut scratch, &mut stats);
        assert_eq!(ctx.num_instances(), 1);
        let mut b = GraphBuilder::new();
        b.extend_interactions([(0u32, 1u32, 10i64, 1.0), (1, 2, 12, 2.0), (1, 2, 30, 4.0)]);
        let g = b.build_time_series_graph();
        let mut emitted = Vec::new();
        let ds = ctx.on_append(
            &g,
            &motif,
            None,
            SearchOptions::default(),
            1,
            2,
            30,
            &mut scratch,
            &mut stats,
            |key, di| emitted.push((key.to_vec(), di.clone())),
        );
        assert_eq!(ds.instances_emitted, 1);
        assert_eq!(ds.instances_retired, 1);
        assert_eq!(ctx.num_instances(), 1);
        assert_eq!(emitted.len(), 1);
        assert_eq!(emitted[0].1.edges[1].count, 2, "the enlarged e2 set");
        let (groups, _) = crate::enumerate_all(&g, &motif);
        assert_eq!(dump(&ctx), canonicalize(&g, &groups));
    }

    #[test]
    fn eviction_rescan_tracks_requery() {
        // Evicting the early e2 element can only change stored matches;
        // the rescan keeps the view equal to a re-query on the survivor.
        let motif = catalog::by_name("M(3,2)", 100, 0.0).unwrap();
        let mut ctx = DeltaContext::new();
        let mut scratch = SearchScratch::default();
        let mut stats = SearchStats::default();
        let mut b = GraphBuilder::new();
        b.extend_interactions([(0u32, 1u32, 10i64, 1.0), (1, 2, 12, 2.0), (1, 2, 30, 4.0)]);
        let g = b.build_time_series_graph();
        ctx.seed(&g, &motif, None, SearchOptions::default(), &mut scratch, &mut stats);
        let mut b = GraphBuilder::new();
        b.extend_interactions([(0u32, 1u32, 10i64, 1.0), (1, 2, 30, 4.0)]);
        let g = b.build_time_series_graph();
        let ds = ctx.on_pairs_evicted(
            &g,
            &motif,
            None,
            SearchOptions::default(),
            &[(1, 2)],
            &mut scratch,
            &mut stats,
            |_, _| {},
        );
        assert_eq!(ds.matches_scanned, 1);
        let (groups, _) = crate::enumerate_all(&g, &motif);
        assert_eq!(dump(&ctx), canonicalize(&g, &groups));
    }

    #[test]
    fn bounded_subscription_ignores_out_of_window_appends() {
        let motif = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        let mut ctx = DeltaContext::new();
        let mut scratch = SearchScratch::default();
        let mut stats = SearchStats::default();
        let bounds = Some(TimeWindow::new(0, 20));
        let mut b = GraphBuilder::new();
        b.extend_interactions([(0u32, 1u32, 10i64, 1.0), (1, 2, 12, 2.0), (1, 2, 50, 4.0)]);
        let g = b.build_time_series_graph();
        let ds = ctx.on_append(
            &g,
            &motif,
            bounds,
            SearchOptions::default(),
            1,
            2,
            50,
            &mut scratch,
            &mut stats,
            |_, _| panic!("out-of-window append must not emit"),
        );
        assert_eq!(ds.matches_scanned, 0);
    }
}
