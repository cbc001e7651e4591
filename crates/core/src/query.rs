//! The one search entry point: a [`Query`] value names what to search
//! for, and one method per answer runs it.
//!
//! The paper gives three answers on one two-phase pipeline: every
//! maximal instance under `δ`/`ϕ` (Algorithm 1), the top-k by flow and
//! the DP top-1 (§5). A query fills in the motif, the optional time
//! window, the [`SearchOptions`] and the optional parallel scheduling;
//! the answer methods are [`Query::run`] (sink-driven), [`Query::count`],
//! [`Query::collect`], [`Query::sample`], [`Query::top_k`] and
//! [`Query::top1`].
//!
//! ```
//! use flowmotif_core::{catalog, ParOptions, Query};
//! use flowmotif_graph::{GraphBuilder, TimeWindow};
//!
//! let mut b = GraphBuilder::new();
//! b.extend_interactions([
//!     (0u32, 1u32, 10i64, 5.0), (1, 2, 12, 4.0), // one 2-hop chain ...
//!     (5, 6, 30, 2.0), (6, 7, 35, 1.0),          // ... and a later one
//! ]);
//! let g = b.build_time_series_graph();
//! let motif = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
//!
//! let all = Query::new(&motif);
//! assert_eq!(all.count(&g).0, 2);
//! let early = Query { bounds: Some(TimeWindow::new(0, 20)), ..all };
//! assert_eq!(early.count(&g).0, 1);
//! // Two workers: the same answers in the same order.
//! let par = Query { par: Some(ParOptions::with_threads(2)), ..all };
//! assert_eq!(par.top_k(&g, 1).0, all.top_k(&g, 1).0);
//! ```

use crate::cutoff::{cutoff_passes, PassOutcome};
use crate::dp::{dp_pass, dp_table, reconstruct, DpStats};
use crate::enumerate::{CollectSink, CountSink, InstanceSink, SearchOptions, SearchStats};
use crate::instance::{MotifInstance, StructuralMatch};
use crate::motif::Motif;
use crate::parallel::{effective_threads, par_scan, scan, ParOptions, SampleSink};
use crate::scratch::SearchScratch;
use crate::topk::{rank_order, RankedInstance, TopKSink};
use flowmotif_graph::{Flow, GraphStore, SeriesRef, TimeWindow};

/// One motif search. Build it with [`Query::new`] and struct update
/// syntax (`Query { bounds: Some(w), ..Query::new(&motif) }`), then ask
/// for an answer. A query is `Copy`; one value can answer several ways.
#[derive(Debug, Clone, Copy)]
pub struct Query<'a> {
    /// The motif, with its `δ` and `ϕ`.
    pub motif: &'a Motif,
    /// Only interactions inside these closed bounds participate; `None`
    /// searches every interaction (plain Algorithm 1). Instances are
    /// exactly those of a rebuild of the in-bounds interactions; only
    /// [`SearchStats::structural_matches`] may differ from such a
    /// rebuild, because phase P1 runs window-pruned on the whole graph.
    pub bounds: Option<TimeWindow>,
    /// Pruning toggles, P1 extension order and the trace hook.
    pub opts: SearchOptions,
    /// `None` runs on the caller's thread. `Some` shards the scan over
    /// worker threads ([`crate::parallel`]) for [`Query::count`],
    /// [`Query::collect`], [`Query::sample`] and [`Query::top_k`]; every
    /// answer keeps the order it has on one worker. [`Query::run`] and
    /// [`Query::top1`] always run on the caller's thread.
    pub par: Option<ParOptions>,
}

impl<'a> Query<'a> {
    /// The unbounded, sequential search of `motif` with default options.
    pub fn new(motif: &'a Motif) -> Self {
        Self { motif, bounds: None, opts: SearchOptions::default(), par: None }
    }

    /// Runs the two-phase search on the caller's thread, streaming every
    /// maximal instance to `sink`, out of `scratch`. After the first
    /// (warm-up) call, repeated searches allocate nothing beyond what the
    /// sink keeps. `par` is ignored.
    pub fn run<G: GraphStore, S: InstanceSink>(
        &self,
        g: &G,
        sink: &mut S,
        scratch: &mut SearchScratch,
    ) -> SearchStats {
        let mut stats = SearchStats::default();
        scan(g, self, Flow::NEG_INFINITY, None, sink, &mut stats, scratch);
        stats
    }

    /// Counts the maximal instances without materialising them.
    pub fn count<G: GraphStore + Sync>(&self, g: &G) -> (u64, SearchStats) {
        let (sinks, stats) = self.scan_into(g, Flow::NEG_INFINITY, CountSink::default);
        (sinks.iter().map(|s| s.count).sum(), stats)
    }

    /// Collects the maximal instances, grouped by structural match in
    /// scan order. With `par`, groups arrive in worker order, and a
    /// structural match keeps one contiguous group per worker.
    pub fn collect<G: GraphStore + Sync>(
        &self,
        g: &G,
    ) -> (Vec<(StructuralMatch, Vec<MotifInstance>)>, SearchStats) {
        let (mut sinks, stats) = self.scan_into(g, Flow::NEG_INFINITY, CollectSink::default);
        if sinks.len() == 1 {
            return (sinks.pop().expect("one sink").groups, stats);
        }
        // The workers' lists merge into one exact-size list allocated
        // here, on the caller's thread. Growing worker 0's list instead
        // reallocates it inside that worker's malloc arena, and how much
        // of the arena stays resident once the result is dropped then
        // varies from run to run with the schedule.
        let mut groups = Vec::with_capacity(sinks.iter().map(|s| s.groups.len()).sum());
        for s in sinks {
            groups.extend(s.groups);
        }
        (groups, stats)
    }

    /// Counts the maximal instances and keeps the first `show` in scan
    /// order — the order one worker finds them in — whatever the thread
    /// count and schedule. Only the sample is materialised.
    pub fn sample<G: GraphStore + Sync>(
        &self,
        g: &G,
        show: usize,
    ) -> (u64, Vec<(StructuralMatch, MotifInstance)>, SearchStats) {
        let (sinks, stats) = self.scan_into(g, Flow::NEG_INFINITY, || SampleSink {
            count: 0,
            limit: show,
            task: 0,
            sample: Vec::new(),
        });
        let count = sinks.iter().map(|s| s.count).sum();
        // A worker claims tasks in ascending order, so its sample is its
        // first `show` instances in scan order, and the scan's first
        // `show` are among the workers' samples. A stable sort by task
        // merges them.
        let mut sample: Vec<_> = sinks.into_iter().flat_map(|s| s.sample).collect();
        sample.sort_by_key(|&(task, _, _)| task);
        sample.truncate(show);
        (count, sample.into_iter().map(|(_, sm, inst)| (sm, inst)).collect(), stats)
    }

    /// The `k` maximal instances with the highest flow, in
    /// [`rank_order`] (paper §5). `ϕ` still applies as a hard lower
    /// bound; `ϕ = 0` gives the paper's pure ranking.
    ///
    /// The search runs as [`crate::cutoff`] passes (reported to the
    /// trace, if any); the result is that of a single search without a
    /// floor, and the stats sum over the passes. With `par`, each worker
    /// keeps a local top-k, merged in [`rank_order`] at the end: pruning
    /// is weaker, the result identical.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn top_k<G: GraphStore + Sync>(
        &self,
        g: &G,
        k: usize,
    ) -> (Vec<RankedInstance>, SearchStats) {
        let mut ranked = Vec::new();
        let mut stats = SearchStats::default();
        cutoff_passes(g, k, self.motif.phi(), self.opts.trace, |floor| {
            let (sinks, pass_stats) = self.scan_into(g, floor, || TopKSink::new(k));
            stats.merge(&pass_stats);
            ranked.clear();
            ranked.extend(sinks.into_iter().flat_map(TopKSink::into_sorted));
            ranked.sort_by(|a, b| rank_order(&a.instance, &b.instance));
            ranked.truncate(k);
            PassOutcome {
                found: ranked.len(),
                kth_flow: ranked.get(k - 1).map_or(Flow::NEG_INFINITY, |r| r.instance.flow),
            }
        });
        (ranked, stats)
    }

    /// The top-1 instance by the dynamic program of paper §5.1
    /// (Algorithm 2): the best flow over every structural match and a
    /// witness instance achieving it; `None` when no instance exists.
    /// The witness need not be maximal, but its flow equals the best
    /// maximal instance's. Runs on the caller's thread out of `scratch`
    /// (phase P1 from `scratch.p1`, the window DP from `scratch.dp`).
    ///
    /// The search runs as [`crate::cutoff`] passes with `k = 1`. The
    /// winner is the first match in P1 order, and its first window, that
    /// reaches the best flow; a pass's floor removes only matches that
    /// cannot reach it, so the flow and the witness are those of a
    /// single search without a floor. The stats sum over the passes.
    /// When traced, each pass reports P1 time (walk minus DP), DP time
    /// and the windows-solved count.
    ///
    /// # Panics
    /// Panics if `bounds` is set: the DP searches the whole graph.
    pub fn top1<G: GraphStore>(
        &self,
        g: &G,
        scratch: &mut SearchScratch,
    ) -> (Option<(StructuralMatch, MotifInstance)>, DpStats) {
        assert!(self.bounds.is_none(), "the DP top-1 searches the whole graph");
        let mut stats = DpStats::default();
        let mut best = None;
        // Flows are positive and the DP reports only flows above 0, so a
        // floor at 0 skips nothing.
        cutoff_passes(g, 1, 0.0, self.opts.trace, |floor| {
            best = dp_pass(g, self.motif, self.opts, floor, scratch, &mut stats);
            PassOutcome {
                found: usize::from(best.is_some()),
                kth_flow: best.as_ref().map_or(Flow::NEG_INFINITY, |&(f, _, _)| f),
            }
        });
        let Some((flow, sm, window)) = best else { return (None, stats) };
        let series: Vec<SeriesRef<'_>> = sm.pairs.iter().map(|&p| g.series(p)).collect();
        let table = dp_table(&series, window, &mut stats);
        let inst = reconstruct(&series, &sm, window, &table, flow);
        (Some((sm, inst)), stats)
    }

    /// Runs the scan under `floor` into one sink from `make` on the
    /// caller's thread, or one per worker with `par`.
    fn scan_into<G: GraphStore + Sync, S: InstanceSink + Send>(
        &self,
        g: &G,
        floor: Flow,
        make: impl Fn() -> S,
    ) -> (Vec<S>, SearchStats) {
        match self.par {
            None => {
                let (mut sink, mut stats) = (make(), SearchStats::default());
                let scratch = &mut SearchScratch::default();
                scan(g, self, floor, None, &mut sink, &mut stats, scratch);
                (vec![sink], stats)
            }
            Some(par) => {
                let sinks = (0..effective_threads(par.threads)).map(|_| make()).collect();
                par_scan(g, self, floor, par, sinks)
            }
        }
    }
}
