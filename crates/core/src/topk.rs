//! Top-k flow motif search (paper §5): replace the `ϕ` constraint by a
//! ranking — find the `k` maximal instances with the highest flow.
//!
//! The implementation is Algorithm 1 with two changes, exactly as the
//! paper prescribes: a size-`k` min-heap tracks the best instances found
//! so far, and the flow of the current `k`-th instance serves as a
//! *floating* pruning threshold in place of `ϕ`. Ties in flow are ranked
//! by the instances' edge sets ([`rank_order`]), so every search order
//! and thread count returns the same instances in the same order.
//!
//! [`top_k`] also pushes the bound into phase P1: it runs the search as
//! [`crate::cutoff`] passes, each binding only pairs heavy enough to
//! carry a top-k instance.

use crate::cutoff::{cutoff_passes, PassOutcome};
use crate::enumerate::{enumerate_floored, InstanceSink, SearchOptions, SearchStats, UNBOUNDED};
use crate::instance::{EdgeSet, InstanceView, MotifInstance, StructuralMatch};
use crate::motif::Motif;
use crate::scratch::SearchScratch;
use flowmotif_graph::{Flow, GraphStore};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One ranked result.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedInstance {
    /// The structural match the instance lives in.
    pub structural_match: StructuralMatch,
    /// The instance itself (its `flow` field is the ranking key).
    pub instance: MotifInstance,
}

/// The ranking order of instances, best first: flow descending, then
/// edge sets ascending (by pair id, then element range, motif edge by
/// motif edge). Edge sets identify an instance, so the order is total
/// and a ranking does not depend on the order instances are found in —
/// sequential and parallel top-k agree on ties too.
pub fn rank_order(a: &MotifInstance, b: &MotifInstance) -> Ordering {
    rank_cmp(a.flow, &a.edge_sets, b.flow, &b.edge_sets)
}

#[inline]
fn rank_cmp(fa: Flow, ea: &[EdgeSet], fb: Flow, eb: &[EdgeSet]) -> Ordering {
    fb.total_cmp(&fa).then_with(|| ea.cmp(eb))
}

/// Heap entry ordered by [`rank_order`]: the best instance compares
/// least, so the max-heap `BinaryHeap` keeps the *worst* ranked one on
/// top for eviction.
#[derive(Debug)]
struct HeapEntry(RankedInstance);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        rank_order(&self.0.instance, &other.0.instance)
    }
}

/// Entries a [`TopKSink`] reserves room for up front.
const PRESIZED_ENTRIES: usize = 64;

/// Sink maintaining the top-k instances in [`rank_order`] with a
/// floating threshold.
///
/// The threshold lets instances *tied* with the current `k`-th flow
/// through (it sits just below that flow), so a tie straddling rank `k`
/// is settled by the edge-set key rather than by discovery order.
///
/// Steady-state accepts are allocation-free: a candidate is cloned only
/// *after* it beats the current `k`-th instance, and once the heap is
/// full the evicted entry's buffers (`StructuralMatch` vectors, edge-set
/// vector) are recycled in place via `clone_from` instead of being freed
/// and reallocated. [`TopKSink::reset`] parks the entries of a finished
/// search in an internal pool so a reused sink starts its next search
/// with warm buffers too.
#[derive(Debug)]
pub struct TopKSink {
    k: usize,
    heap: BinaryHeap<HeapEntry>,
    /// Retired entries whose buffers the next accepts recycle.
    pool: Vec<HeapEntry>,
}

impl TopKSink {
    /// Creates a sink keeping the best `k` instances.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "top-k search needs k >= 1");
        // At most `k` entries ever exist (heap + pool combined), so for
        // `k <= PRESIZED_ENTRIES` the pre-sized pool never reallocates
        // on `reset`. A larger `k` (any `usize` is accepted) grows both
        // on demand instead of asking for `k` entries up front.
        let n = k.min(PRESIZED_ENTRIES);
        Self { k, heap: BinaryHeap::with_capacity(n + 1), pool: Vec::with_capacity(n) }
    }

    /// Flow of the current `k`-th best instance, or `-∞` while fewer
    /// than `k` instances have been seen.
    pub fn kth_flow(&self) -> Flow {
        if self.heap.len() == self.k {
            self.heap.peek().map_or(f64::NEG_INFINITY, |e| e.0.instance.flow)
        } else {
            f64::NEG_INFINITY
        }
    }

    /// Clears the accumulated results for a fresh search while keeping
    /// every buffer (heap storage, entry vectors) warm in the recycle
    /// pool — after the first search a reused sink accepts without
    /// allocating.
    pub fn reset(&mut self) {
        self.pool.extend(self.heap.drain());
    }

    /// Finishes the search: results in [`rank_order`].
    pub fn into_sorted(self) -> Vec<RankedInstance> {
        self.heap.into_sorted_vec().into_iter().map(|e| e.0).collect()
    }

    /// Writes `(sm, inst)` into `e`, reusing its buffers.
    fn refill(e: &mut HeapEntry, sm: &StructuralMatch, inst: InstanceView<'_>) {
        e.0.structural_match.clone_from(sm);
        inst.write_to(&mut e.0.instance);
    }
}

impl InstanceSink for TopKSink {
    fn prune_threshold(&self) -> Flow {
        // The enumerator drops flows `<=` the threshold; one step below
        // the k-th flow keeps the ties, which may still win on the key.
        self.kth_flow().next_down()
    }

    fn accept(&mut self, sm: &StructuralMatch, inst: InstanceView<'_>) {
        if self.heap.len() == self.k {
            // Clone only after the candidate beats the current k-th
            // instance.
            let worst = &self.heap.peek().expect("full heap").0.instance;
            if rank_cmp(inst.flow, inst.edge_sets, worst.flow, &worst.edge_sets) != Ordering::Less {
                return;
            }
            let mut e = self.heap.pop().expect("full heap");
            Self::refill(&mut e, sm, inst);
            self.heap.push(e);
        } else {
            let entry = match self.pool.pop() {
                Some(mut e) => {
                    Self::refill(&mut e, sm, inst);
                    e
                }
                None => HeapEntry(RankedInstance {
                    structural_match: sm.clone(),
                    instance: inst.to_instance(),
                }),
            };
            self.heap.push(entry);
        }
    }
}

/// Finds the `k` maximal instances of `motif` with the highest flow.
///
/// `motif.phi()` still applies as a hard lower bound; pass `ϕ = 0` for the
/// paper's pure ranking semantics (§5 runs top-k with `ϕ = 0`).
///
/// The search runs as [`crate::cutoff`] passes; the result is that of a
/// single search without a floor, and the stats sum over the passes.
///
/// # Panics
/// Panics if `k == 0`.
pub fn top_k<G: GraphStore>(g: &G, motif: &Motif, k: usize) -> (Vec<RankedInstance>, SearchStats) {
    let mut ranked = Vec::new();
    let mut stats = SearchStats::default();
    let mut scratch = SearchScratch::default();
    cutoff_passes(g, k, motif.phi(), None, |floor| {
        let mut sink = TopKSink::new(k);
        let opts = SearchOptions::default();
        stats.merge(&enumerate_floored(g, motif, UNBOUNDED, floor, opts, &mut sink, &mut scratch));
        ranked = sink.into_sorted();
        pass_outcome(&ranked, k)
    });
    (ranked, stats)
}

/// A top-k pass's outcome from its ranked results.
pub(crate) fn pass_outcome(ranked: &[RankedInstance], k: usize) -> PassOutcome {
    PassOutcome {
        found: ranked.len(),
        kth_flow: ranked.get(k - 1).map_or(Flow::NEG_INFINITY, |r| r.instance.flow),
    }
}

/// Convenience for Fig. 11: the flow of the `k`-th ranked instance, or
/// `None` if fewer than `k` instances exist.
pub fn kth_instance_flow<G: GraphStore>(g: &G, motif: &Motif, k: usize) -> Option<Flow> {
    let (ranked, _) = top_k(g, motif, k);
    (ranked.len() >= k).then(|| ranked[k - 1].instance.flow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::enumerate::{enumerate_with_sink, CollectSink};
    use flowmotif_graph::{GraphBuilder, TimeSeriesGraph};

    /// Builds a graph with several M(3,2) instances of distinct flows.
    fn chain_graph() -> TimeSeriesGraph {
        let mut b = GraphBuilder::new();
        // Three disjoint chains u -> v -> w at separated times, flows 5, 9, 2.
        let mut base = 0;
        for (i, f) in [5.0, 9.0, 2.0].into_iter().enumerate() {
            let n = (i * 3) as u32;
            b.add_interaction(n, n + 1, base, f);
            b.add_interaction(n + 1, n + 2, base + 1, f + 1.0);
            base += 100;
        }
        b.build_time_series_graph()
    }

    #[test]
    fn top_k_orders_by_flow() {
        let g = chain_graph();
        let m = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        let (r, _) = top_k(&g, &m, 2);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].instance.flow, 9.0);
        assert_eq!(r[1].instance.flow, 5.0);
    }

    #[test]
    fn top_k_larger_than_result_set() {
        let g = chain_graph();
        let m = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        let (r, _) = top_k(&g, &m, 10);
        assert_eq!(r.len(), 3);
        let flows: Vec<_> = r.iter().map(|x| x.instance.flow).collect();
        assert_eq!(flows, vec![9.0, 5.0, 2.0]);
    }

    #[test]
    fn kth_flow_matches_full_enumeration() {
        let g = chain_graph();
        let m = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        assert_eq!(kth_instance_flow(&g, &m, 1), Some(9.0));
        assert_eq!(kth_instance_flow(&g, &m, 3), Some(2.0));
        assert_eq!(kth_instance_flow(&g, &m, 4), None);
    }

    #[test]
    fn floating_threshold_agrees_with_sorted_enumeration() {
        // top-k flows == first k flows of the sorted full enumeration.
        let g = chain_graph();
        let m = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        let mut all = CollectSink::default();
        enumerate_with_sink(&g, &m, SearchOptions::default(), &mut all);
        let mut flows: Vec<f64> =
            all.groups.iter().flat_map(|(_, v)| v.iter().map(|i| i.flow)).collect();
        flows.sort_by(|a, b| b.total_cmp(a));
        for k in 1..=flows.len() {
            let (r, _) = top_k(&g, &m, k);
            let got: Vec<_> = r.iter().map(|x| x.instance.flow).collect();
            assert_eq!(got, flows[..k].to_vec(), "k={k}");
        }
    }

    #[test]
    fn threshold_prunes_search() {
        let g = chain_graph();
        let m = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        let (_, stats_k1) = top_k(&g, &m, 1);
        // With k=1 the threshold rises to 5 then 9, pruning later prefixes.
        assert!(stats_k1.prefixes_pruned_by_flow + stats_k1.instances_rejected_by_flow > 0);
    }

    #[test]
    fn phi_still_applies_as_floor() {
        let g = chain_graph();
        let m = catalog::by_name("M(3,2)", 10, 6.0).unwrap();
        let (r, _) = top_k(&g, &m, 10);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].instance.flow, 9.0);
    }

    /// Two instances of flow 5 share the first pair: the one found
    /// first (via target 2) has e1 = both events, the one found second
    /// (via target 3) only the first event, so it ranks first. A
    /// threshold at the k-th flow itself would prune it unseen.
    #[test]
    fn a_tie_found_after_the_heap_filled_still_wins_on_the_key() {
        let mut b = GraphBuilder::new();
        for (u, v, t, f) in [(0, 1, 10, 5.0), (0, 1, 20, 5.0), (1, 2, 30, 5.0), (1, 3, 15, 5.0)] {
            b.add_interaction(u, v, t, f);
        }
        let g = b.build_time_series_graph();
        let m = catalog::by_name("M(3,2)", 100, 0.0).unwrap();
        let (all, _) = crate::enumerate::enumerate_all(&g, &m);
        assert_eq!(all.len(), 2, "two structural matches");
        assert_eq!(all[0].0.walk_nodes(&g), vec![0, 1, 2], "target 2 is found first");
        let (r, _) = top_k(&g, &m, 1);
        assert_eq!(r[0].structural_match.walk_nodes(&g), vec![0, 1, 3]);
        assert_eq!(r[0].instance.edge_sets[0], EdgeSet { pair: 0, start: 0, end: 1 });
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn k_zero_panics() {
        TopKSink::new(0);
    }

    #[test]
    fn a_k_beyond_any_allocation_ranks_every_instance() {
        let g = chain_graph();
        let m = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        let mut sink = TopKSink::new(usize::MAX);
        assert_eq!(sink.kth_flow(), f64::NEG_INFINITY);
        enumerate_with_sink(&g, &m, SearchOptions::default(), &mut sink);
        let all = sink.into_sorted();
        let flows: Vec<f64> = all.iter().map(|r| r.instance.flow).collect();
        assert_eq!(flows, vec![9.0, 5.0, 2.0], "every instance, in rank order");
        assert_eq!(top_k(&g, &m, usize::MAX).0, all);
        assert_eq!(top_k(&g, &m, 3).0, all);
    }

    #[test]
    fn reset_recycles_buffers_and_reproduces_results() {
        let g = chain_graph();
        let m = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        let mut sink = TopKSink::new(2);
        enumerate_with_sink(&g, &m, SearchOptions::default(), &mut sink);
        assert_eq!(sink.kth_flow(), 5.0);
        sink.reset();
        assert_eq!(sink.kth_flow(), f64::NEG_INFINITY, "reset empties the heap");
        enumerate_with_sink(&g, &m, SearchOptions::default(), &mut sink);
        let flows: Vec<f64> = sink.into_sorted().iter().map(|r| r.instance.flow).collect();
        assert_eq!(flows, vec![9.0, 5.0]);
    }

    #[test]
    fn direct_accept_below_the_threshold_is_a_noop() {
        use crate::instance::EdgeSet;
        let g = chain_graph();
        let m = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        let mut sink = TopKSink::new(1);
        enumerate_with_sink(&g, &m, SearchOptions::default(), &mut sink);
        assert_eq!(sink.kth_flow(), 9.0);
        // Offer a weaker instance directly: it must be ignored (no clone,
        // no eviction) because it cannot beat the k-th flow.
        let sets = [EdgeSet { pair: 0, start: 0, end: 1 }];
        let weak = crate::instance::InstanceView {
            edge_sets: &sets,
            flow: 1.0,
            first_time: 0,
            last_time: 0,
        };
        let sm = StructuralMatch { nodes: vec![0, 1, 2], pairs: vec![0, 1] };
        sink.accept(&sm, weak);
        let flows: Vec<f64> = sink.into_sorted().iter().map(|r| r.instance.flow).collect();
        assert_eq!(flows, vec![9.0]);
    }
}
