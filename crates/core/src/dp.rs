//! The dynamic-programming module for top-1 instance search (paper §5.1,
//! Algorithm 2 and Eq. 2).
//!
//! For a structural match `G_s` and a window `T = [t_1, t_1 + δ]`, let
//! `t_1 … t_τ` be the timestamps of the match's elements inside `T`.
//! `Flow([t_1, t_i], κ)` — the best flow of any instance of the motif
//! prefix `M_κ` within `[t_1, t_i]` — satisfies
//!
//! ```text
//! Flow([t1,ti],κ) = max_{1<j≤i} min( Flow([t1,t_{j-1}], κ-1),
//!                                    flow([t_j, t_i], κ) )
//! ```
//!
//! where `flow([t_j, t_i], κ)` aggregates the elements of `R(e_κ)` in
//! `[t_j, t_i]` (O(1) via prefix sums). The window enumeration is the same
//! anchored-at-`R(e_1)`-elements sweep as Algorithm 1.
//!
//! The returned top-1 *flow* equals the flow of the best maximal instance
//! found by full enumeration — extending an instance never decreases its
//! flow, so the maximum over all instances is attained at a maximal one.
//! The reconstructed witness instance, however, need not be maximal.
//!
//! [`crate::Query::top1`] runs as [`crate::cutoff`] passes: phase P1
//! binds only pairs heavy enough to carry the best flow.

use crate::enumerate::SearchOptions;
use crate::instance::{EdgeSet, MotifInstance, StructuralMatch};
use crate::motif::Motif;
use crate::query::Query;
use crate::scratch::SearchScratch;
use crate::trace::TraceStage;
use flowmotif_graph::{Flow, GraphStore, SeriesRef, TimeWindow, Timestamp};

/// Counters for a DP run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpStats {
    /// Structural matches processed.
    pub structural_matches: u64,
    /// Windows the DP table was built for.
    pub windows_processed: u64,
    /// Windows skipped by the redundancy rule.
    pub windows_skipped: u64,
    /// Total `Flow([t1,ti],κ)` cells computed.
    pub cells_computed: u64,
}

impl DpStats {
    /// Adds another run's counters (the cutoff passes of one search).
    pub fn merge(&mut self, o: &DpStats) {
        self.structural_matches += o.structural_matches;
        self.windows_processed += o.windows_processed;
        self.windows_skipped += o.windows_skipped;
        self.cells_computed += o.cells_computed;
    }
}

/// The DP table of one window — exposed for the paper's Table 2 example
/// and for the "top-1 per window" extensibility use-case (§5.1).
#[derive(Debug, Clone, PartialEq)]
pub struct DpTable {
    /// The timestamps `t_1 … t_τ` (sorted, deduplicated).
    pub timestamps: Vec<Timestamp>,
    /// `rows[κ-1][i] = Flow([t_1, t_i], κ)`.
    pub rows: Vec<Vec<Flow>>,
    /// `parents[κ-2][i]` = the split index `j` realizing row `κ` at `i`
    /// (only for `κ >= 2`); `u32::MAX` when no instance exists.
    pub parents: Vec<Vec<u32>>,
}

impl DpTable {
    /// The window's top-1 flow: `Flow([t_1, t_τ], m)`; `0.0` if the window
    /// holds no instance.
    pub fn top_flow(&self) -> Flow {
        self.rows.last().and_then(|r| r.last()).copied().unwrap_or(0.0)
    }
}

/// Builds the DP table for one window of one structural match.
///
/// `series` are borrowed views of the match's interaction series in
/// motif-edge order ([`flowmotif_graph::InteractionSeries::as_ref`] for
/// the in-memory backend, [`GraphStore::series`] for any backend).
pub fn dp_table(series: &[SeriesRef<'_>], window: TimeWindow, stats: &mut DpStats) -> DpTable {
    let m = series.len();
    // Gather t_1 … t_τ: all element timestamps inside the window.
    let mut ts: Vec<Timestamp> = Vec::new();
    for s in series {
        let r = s.range_closed(window.start, window.end);
        ts.extend(s.events()[r].iter().map(|e| e.time));
    }
    ts.sort_unstable();
    ts.dedup();
    let tau = ts.len();
    let mut rows: Vec<Vec<Flow>> = Vec::with_capacity(m);
    let mut parents: Vec<Vec<u32>> = Vec::with_capacity(m.saturating_sub(1));
    if tau == 0 {
        return DpTable { timestamps: ts, rows, parents };
    }

    // κ = 1: all R(e_1) elements in [t_1, t_i].
    let s0 = series[0];
    let a0 = s0.idx_at_or_after(window.start);
    let row0: Vec<Flow> = ts.iter().map(|&t| s0.flow_of_range(a0..s0.idx_after(t))).collect();
    stats.cells_computed += tau as u64;
    rows.push(row0);

    for sk in series.iter().skip(1) {
        // Element index of the first sk-element at or after each ts[j].
        let lo: Vec<usize> = ts.iter().map(|&t| sk.idx_at_or_after(t)).collect();
        let hi: Vec<usize> = ts.iter().map(|&t| sk.idx_after(t)).collect();
        let prev = rows.last().expect("at least one row");
        let mut row = vec![0.0; tau];
        let mut par = vec![u32::MAX; tau];
        for i in 0..tau {
            let mut best = 0.0;
            let mut best_j = u32::MAX;
            for j in 1..=i {
                let prev_flow = prev[j - 1];
                if prev_flow <= best {
                    // cand = min(prev, own) <= prev <= best: cannot win.
                    continue;
                }
                let own = if lo[j] < hi[i] { sk.flow_of_range(lo[j]..hi[i]) } else { 0.0 };
                if own == 0.0 {
                    // Later j only shrink [t_j, t_i]; stop.
                    break;
                }
                let cand = prev_flow.min(own);
                if cand > best {
                    best = cand;
                    best_j = j as u32;
                }
            }
            stats.cells_computed += 1;
            row[i] = best;
            par[i] = best_j;
        }
        rows.push(row);
        parents.push(par);
    }
    DpTable { timestamps: ts, rows, parents }
}

/// Reusable buffers for the window-scan fast path of the DP module.
/// Lifetime-free (series are re-resolved through pair ids), so one
/// `DpScratch` — usually inside a [`crate::SearchScratch`] — serves any
/// number of matches, graphs and snapshots without reallocating.
#[derive(Debug, Default, Clone)]
pub struct DpScratch {
    ts: Vec<Timestamp>,
    cur: Vec<Flow>,
    next: Vec<Flow>,
    lo: Vec<usize>,
    hi: Vec<usize>,
}

/// The flow of the best instance within one window, without parent
/// tracking (used by the window sweep; the winning window is re-solved
/// with [`dp_table`] for witness reconstruction). Returns early with `0`
/// once the running row maximum drops to `threshold` or below — the row
/// maxima are non-increasing in `κ`, so the window cannot beat it.
/// `pairs` are the match's pair ids in motif-edge order (resolved
/// through `g` on use, keeping this path free of per-match allocations).
fn dp_window_flow<G: GraphStore>(
    g: &G,
    pairs: &[flowmotif_graph::PairId],
    window: TimeWindow,
    threshold: Flow,
    scratch: &mut DpScratch,
    stats: &mut DpStats,
) -> Flow {
    let DpScratch { ts, cur, next, lo, hi } = scratch;
    ts.clear();
    for &p in pairs {
        let s = g.series(p);
        let r = s.range_closed(window.start, window.end);
        ts.extend(s.events()[r].iter().map(|e| e.time));
    }
    ts.sort_unstable();
    ts.dedup();
    let tau = ts.len();
    if tau == 0 {
        return 0.0;
    }
    let s0 = g.series(pairs[0]);
    let a0 = s0.idx_at_or_after(window.start);
    cur.clear();
    cur.extend(ts.iter().map(|&t| s0.flow_of_range(a0..s0.idx_after(t))));
    stats.cells_computed += tau as u64;
    for sk in pairs.iter().skip(1).map(|&p| g.series(p)) {
        if cur.last().copied().unwrap_or(0.0) <= threshold {
            return 0.0; // cur is non-decreasing; its last entry bounds the answer
        }
        lo.clear();
        hi.clear();
        lo.extend(ts.iter().map(|&t| sk.idx_at_or_after(t)));
        hi.extend(ts.iter().map(|&t| sk.idx_after(t)));
        next.clear();
        next.resize(tau, 0.0);
        let mut running_best = 0.0f64;
        for i in 0..tau {
            let mut best = running_best; // next is non-decreasing in i
            for j in 1..=i {
                let prev_flow = cur[j - 1];
                if prev_flow <= best {
                    continue;
                }
                let own = if lo[j] < hi[i] { sk.flow_of_range(lo[j]..hi[i]) } else { 0.0 };
                if own == 0.0 {
                    break;
                }
                let cand = prev_flow.min(own);
                if cand > best {
                    best = cand;
                }
            }
            stats.cells_computed += 1;
            next[i] = best;
            running_best = best;
        }
        std::mem::swap(cur, next);
    }
    cur.last().copied().unwrap_or(0.0)
}

/// Like [`dp_top1_in_match`] but with a pruning threshold: windows whose
/// admissible upper bound (the minimum per-edge in-window flow) cannot
/// strictly beat `threshold` are skipped, mirroring the floating
/// threshold of the top-k comparator. Returns the best flow above the
/// threshold and its window, if any.
pub fn dp_best_window_in_match<G: GraphStore>(
    g: &G,
    motif: &Motif,
    sm: &StructuralMatch,
    threshold: Flow,
    scratch: &mut DpScratch,
    stats: &mut DpStats,
) -> Option<(Flow, TimeWindow)> {
    let pairs = sm.pairs.as_slice();
    if pairs.iter().any(|&p| g.series(p).is_empty()) {
        return None;
    }
    // Match-level admissible bound: no instance can exceed the minimum
    // total series flow over the motif edges.
    let match_ub = pairs.iter().map(|&p| g.series(p).total_flow()).fold(f64::INFINITY, Flow::min);
    if match_ub <= threshold {
        return None;
    }
    let m = motif.num_edges();
    let e1 = g.series(pairs[0]);
    let em = g.series(pairs[m - 1]);
    let mut best: Option<(Flow, TimeWindow)> = None;
    let mut thr = threshold;
    let mut prev_end: Option<Timestamp> = None;
    for a_idx in 0..e1.len() {
        let w = TimeWindow::anchored(e1.time(a_idx), motif.delta());
        if let Some(pe) = prev_end {
            if em.range_open_closed(pe, w.end).is_empty() {
                stats.windows_skipped += 1;
                continue;
            }
        }
        prev_end = Some(w.end);
        // Window-level admissible bound.
        let ub = pairs
            .iter()
            .map(|&p| g.series(p).flow_in_closed(w.start, w.end))
            .fold(f64::INFINITY, Flow::min);
        if ub <= thr {
            stats.windows_skipped += 1;
            continue;
        }
        stats.windows_processed += 1;
        let f = dp_window_flow(g, pairs, w, thr, scratch, stats);
        if f > thr {
            thr = f;
            best = Some((f, w));
        }
    }
    best
}

/// Enumerates the DP windows of a structural match exactly like
/// Algorithm 1 (anchored at `R(e_1)` elements, skipping positions that
/// contribute no new `R(e_m)` element) and returns the best flow plus, if
/// any instance exists, a witness instance achieving it.
pub fn dp_top1_in_match<G: GraphStore>(
    g: &G,
    motif: &Motif,
    sm: &StructuralMatch,
    stats: &mut DpStats,
) -> Option<MotifInstance> {
    let mut scratch = DpScratch::default();
    let (flow, window) = dp_best_window_in_match(g, motif, sm, 0.0, &mut scratch, stats)?;
    let series: Vec<SeriesRef<'_>> = sm.pairs.iter().map(|&p| g.series(p)).collect();
    // Re-solve the winning window with parent tracking for the witness.
    let table = dp_table(&series, window, stats);
    debug_assert!((table.top_flow() - flow).abs() < 1e-9);
    Some(reconstruct(&series, sm, window, &table, flow))
}

/// Backtracks the witness instance out of a DP table.
pub(crate) fn reconstruct(
    series: &[SeriesRef<'_>],
    sm: &StructuralMatch,
    window: TimeWindow,
    table: &DpTable,
    flow: Flow,
) -> MotifInstance {
    let m = series.len();
    let ts = &table.timestamps;
    let mut brackets: Vec<(Timestamp, Timestamp)> = vec![(0, 0); m];
    let mut i = ts.len() - 1;
    for k in (1..m).rev() {
        let j = table.parents[k - 1][i] as usize;
        brackets[k] = (ts[j], ts[i]);
        i = j - 1;
    }
    brackets[0] = (window.start, ts[i]);
    let mut edge_sets = Vec::with_capacity(m);
    for (k, s) in series.iter().enumerate() {
        let (a, b) = brackets[k];
        let r = s.range_closed(a, b);
        debug_assert!(!r.is_empty(), "witness bracket must be non-empty");
        edge_sets.push(EdgeSet { pair: sm.pairs[k], start: r.start as u32, end: r.end as u32 });
    }
    let first_time = series[0].time(edge_sets[0].start as usize);
    let last_es = edge_sets[m - 1];
    let last_time = series[m - 1].time(last_es.end as usize - 1);
    MotifInstance { edge_sets, flow, first_time, last_time }
}

/// [`Query::top1`] of `motif`. Kept until the end-to-end benchmark
/// stops importing it (ROADMAP item 2).
pub fn dp_top1_with<G: GraphStore>(
    g: &G,
    motif: &Motif,
    opts: SearchOptions,
    scratch: &mut SearchScratch,
) -> (Option<(StructuralMatch, MotifInstance)>, DpStats) {
    Query { opts, ..Query::new(motif) }.top1(g, scratch)
}

/// One DP pass with phase P1 under the pair-flow floor `floor`: the best
/// flow over the admitted matches, the first match and window reaching
/// it, with its counters added to `stats`.
pub(crate) fn dp_pass<G: GraphStore>(
    g: &G,
    motif: &Motif,
    opts: SearchOptions,
    floor: Flow,
    scratch: &mut SearchScratch,
    total: &mut DpStats,
) -> Option<(Flow, StructuralMatch, TimeWindow)> {
    let mut stats = DpStats::default();
    let SearchScratch { p1, dp, .. } = scratch;
    let start = opts.trace.map(|_| std::time::Instant::now());
    let mut dp_nanos = 0u64;
    let mut best: Option<(Flow, StructuralMatch, TimeWindow)> = None;
    // The DP module does its own P1-vs-DP trace accounting below, so
    // the driver runs untraced.
    let driver = crate::matcher::P1Driver::new(motif.path())
        .use_index(opts.use_active_index)
        .extension_order(opts.extension_order)
        .flow_floor(floor);
    driver.run(g, p1, &mut |sm| {
        stats.structural_matches += 1;
        let thr = best.as_ref().map_or(0.0, |&(f, _, _)| f);
        let found = if opts.trace.is_some() {
            let t0 = std::time::Instant::now();
            let r = dp_best_window_in_match(g, motif, sm, thr, dp, &mut stats);
            dp_nanos += t0.elapsed().as_nanos() as u64;
            r
        } else {
            dp_best_window_in_match(g, motif, sm, thr, dp, &mut stats)
        };
        if let Some((f, w)) = found {
            // Recycle the previous best's buffers instead of
            // reallocating on every improvement.
            match &mut best {
                Some((bf, bsm, bw)) => {
                    *bf = f;
                    bsm.clone_from(sm);
                    *bw = w;
                }
                None => best = Some((f, sm.clone(), w)),
            }
        }
    });
    if let (Some(trace), Some(start)) = (opts.trace, start) {
        let total = start.elapsed().as_nanos() as u64;
        trace.record(TraceStage::P1, total.saturating_sub(dp_nanos), stats.structural_matches);
        trace.record(TraceStage::Dp, dp_nanos, stats.windows_processed);
    }
    total.merge(&stats);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use flowmotif_graph::{GraphBuilder, TimeSeriesGraph};

    fn dp_top1(
        g: &TimeSeriesGraph,
        motif: &Motif,
    ) -> (Option<(StructuralMatch, MotifInstance)>, DpStats) {
        Query::new(motif).top1(g, &mut SearchScratch::default())
    }

    fn dp_max_flow(g: &TimeSeriesGraph, motif: &Motif) -> (Flow, DpStats) {
        let (best, stats) = dp_top1(g, motif);
        (best.map_or(0.0, |(_, i)| i.flow), stats)
    }

    /// The Fig. 7 structural match (see `enumerate.rs` tests).
    fn fig7() -> (TimeSeriesGraph, StructuralMatch) {
        let mut b = GraphBuilder::new();
        for (t, f) in [(10, 5.0), (13, 2.0), (15, 3.0), (18, 7.0)] {
            b.add_interaction(0, 1, t, f);
        }
        for (t, f) in [(9, 4.0), (11, 3.0), (16, 3.0)] {
            b.add_interaction(1, 2, t, f);
        }
        for (t, f) in [(14, 4.0), (19, 6.0), (24, 3.0), (25, 2.0)] {
            b.add_interaction(2, 0, t, f);
        }
        let g = b.build_time_series_graph();
        let sm = StructuralMatch {
            nodes: vec![0, 1, 2],
            pairs: vec![
                g.pair_id(0, 1).unwrap(),
                g.pair_id(1, 2).unwrap(),
                g.pair_id(2, 0).unwrap(),
            ],
        };
        (g, sm)
    }

    #[test]
    fn table2_window_top_flow_is_5() {
        // Paper Table 2: the best instance of M(3,3) in window [10, 20]
        // has flow 5.
        let (g, sm) = fig7();
        let series: Vec<_> = sm.pairs.iter().map(|&p| g.series(p).as_ref()).collect();
        let mut stats = DpStats::default();
        let t = dp_table(&series, TimeWindow::new(10, 20), &mut stats);
        assert_eq!(t.timestamps, vec![10, 11, 13, 14, 15, 16, 18, 19]);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.top_flow(), 5.0);
        // Row κ=2 at t_i = 16 is min(5, 3+3) = 5 with t_j = 11 (paper's
        // worked example).
        let i16 = t.timestamps.iter().position(|&x| x == 16).unwrap();
        assert_eq!(t.rows[1][i16], 5.0);
        assert_eq!(t.timestamps[t.parents[0][i16] as usize], 11);
    }

    #[test]
    fn dp_matches_enumeration_maximum_on_fig7() {
        let (g, sm) = fig7();
        let motif = catalog::by_name("M(3,3)", 10, 0.0).unwrap();
        let mut stats = DpStats::default();
        let inst = dp_top1_in_match(&g, &motif, &sm, &mut stats).unwrap();
        assert_eq!(inst.flow, 5.0);
        // The witness is the paper's top-1 instance:
        // [e1 <- {(10,5)}, e2 <- {(11,3),(16,3)}, e3 <- {(19,6)}].
        assert_eq!(
            inst.display(&g),
            "[e1 <- {(10, 5)}, e2 <- {(11, 3), (16, 3)}, e3 <- {(19, 6)}]"
        );
        // Window sweep mirrors Algorithm 1 plus upper-bound pruning:
        // [10,20] is solved (top flow 5); [13,23] and [18,28] are skipped
        // as redundant, and [15,25] is skipped because its admissible
        // bound (min in-window edge flow = 3) cannot beat 5.
        assert_eq!(stats.windows_processed, 1);
        assert_eq!(stats.windows_skipped, 3);
    }

    #[test]
    fn dp_top1_over_whole_graph() {
        let (g, _) = fig7();
        let motif = catalog::by_name("M(3,3)", 10, 0.0).unwrap();
        let (best, stats) = dp_top1(&g, &motif);
        assert_eq!(stats.structural_matches, 3); // three rotations
        let (_, inst) = best.unwrap();
        assert_eq!(inst.flow, 5.0);
    }

    #[test]
    fn dp_on_graph_without_instances() {
        let mut b = GraphBuilder::new();
        b.extend_interactions([(0u32, 1u32, 100i64, 1.0), (1, 2, 1, 1.0)]);
        let g = b.build_time_series_graph();
        let motif = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        let (flow, _) = dp_max_flow(&g, &motif);
        assert_eq!(flow, 0.0);
        assert!(dp_top1(&g, &motif).0.is_none());
    }

    #[test]
    fn dp_single_edge_motif() {
        let mut b = GraphBuilder::new();
        b.extend_interactions([(0u32, 1u32, 1i64, 2.0), (0, 1, 3, 3.0), (0, 1, 20, 4.0)]);
        let g = b.build_time_series_graph();
        // Walk 0-1: one motif edge; best window aggregates (1,2)+(3,3)=5.
        let motif = catalog::parse_motif("0-1", 5, 0.0).unwrap();
        let (flow, _) = dp_max_flow(&g, &motif);
        assert_eq!(flow, 5.0);
    }

    #[test]
    fn dp_trace_records_windows_and_matches() {
        use crate::trace::{AtomicTrace, TraceStage};
        let (g, _) = fig7();
        let motif = catalog::by_name("M(3,3)", 10, 0.0).unwrap();
        let trace: &'static AtomicTrace = Box::leak(Box::new(AtomicTrace::new()));
        let opts = SearchOptions { trace: Some(trace), ..SearchOptions::default() };
        let (best, stats) =
            Query { opts, ..Query::new(&motif) }.top1(&g, &mut SearchScratch::default());
        assert_eq!(best.unwrap().1.flow, 5.0);
        assert_eq!(trace.count(TraceStage::P1), stats.structural_matches);
        // The witness re-solve happens after the trace is recorded, so
        // the DP count equals the sweep's windows_processed exactly.
        assert_eq!(trace.count(TraceStage::Dp), stats.windows_processed);
        assert_eq!(trace.count(TraceStage::P2), 0);
    }

    #[test]
    fn witness_flow_equals_min_edge_set_flow() {
        let (g, sm) = fig7();
        let motif = catalog::by_name("M(3,3)", 10, 0.0).unwrap();
        let mut stats = DpStats::default();
        let inst = dp_top1_in_match(&g, &motif, &sm, &mut stats).unwrap();
        let min_flow = inst.edge_sets.iter().map(|es| es.flow(&g)).fold(f64::INFINITY, f64::min);
        assert_eq!(inst.flow, min_flow);
    }
}
