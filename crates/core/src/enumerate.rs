//! Phase P2: enumeration of maximal flow motif instances inside each
//! structural match — Algorithm 1 of the paper.
//!
//! # How instances are enumerated
//!
//! For one structural match `G_s`, a window of length `δ` slides along the
//! timeline, anchored at successive elements of `R(e_1)`. Within a window
//! `[a, a + δ]`, every maximal instance is a sequence of *split points*
//! `a = s_0 ≤ s_1 < s_2 < … < s_{m-1}`: motif edge `e_i` takes **all**
//! elements of its series in `(s_{i-1}, s_i]` (with `e_1` starting
//! inclusively at the anchor and `e_m` running to the window end). The
//! recursion of `FindInstances` (paper Algorithm 1) enumerates the splits —
//! the "prefixes" of the paper — pruning by the flow constraint `ϕ` at
//! every prefix (line 16).
//!
//! # Maximality
//!
//! Three guards make the output exactly the set of *maximal* instances
//! (paper Def. 3.3):
//!
//! 1. **Window skipping** — a window position whose `R(e_m)` gains no new
//!    element over the previously processed window is skipped (the paper's
//!    `[13, 23]` example): any instance found there could absorb an earlier
//!    `R(e_1)` element and is therefore non-maximal.
//! 2. **Prefix admissibility** — a split after element `j` of `e_i` is
//!    admissible only if some `e_{i+1}` element lies strictly between
//!    element `j` and element `j+1` of `e_i`; otherwise element `j+1`
//!    could be added to `e_i` without disturbing `e_{i+1}` (the paper's
//!    "no element of e2 between (13,2) and (15,3)" example).
//! 3. **Prepend guard** — an assembled instance is rejected if the
//!    `R(e_1)` element immediately before the window anchor could be
//!    prepended without exceeding `δ`; the enclosing window anchored at
//!    that element emits the enlarged instance instead.

use crate::instance::{EdgeSet, InstanceView, MotifInstance, StructuralMatch};
use crate::matcher::{ExtensionOrder, P1Driver};
use crate::motif::Motif;
use crate::scratch::SearchScratch;
use crate::trace::{TraceSink, TraceStage};
use flowmotif_graph::{Flow, GraphStore, SeriesRef, TimeWindow, Timestamp};
use std::ops::Range;

/// Tuning knobs for the enumerator. The defaults implement the paper's
/// Algorithm 1; the toggles exist for the ablation experiments.
///
/// The struct is `#[non_exhaustive]`: downstream crates construct it via
/// [`SearchOptions::default`] or [`SearchOptions::builder`] and derive
/// variants with the `with_*` combinators, so new knobs can land without
/// breaking them.
#[derive(Clone, Copy)]
#[non_exhaustive]
pub struct SearchOptions {
    /// Skip window positions that contribute no new `R(e_m)` element
    /// (guard 1 above). Disabling processes every anchor; the result set
    /// is unchanged (the prepend guard still rejects non-maximal
    /// instances) but more work is done.
    pub skip_redundant_windows: bool,
    /// Apply the `ϕ` check at every prefix (Algorithm 1 line 16).
    /// Disabling defers all flow checking to instance assembly; the
    /// result set is unchanged but the search space is not pruned.
    pub phi_prefix_pruning: bool,
    /// Drive window-bounded phase P1 from the graph's active-time origin
    /// index ([`flowmotif_graph::TimeSeriesGraph::active_origins_in`])
    /// instead of sweeping every origin. The result set and emission
    /// order are unchanged; disabling exists for A/B comparisons (the
    /// CLI's `--no-index`). Ignored by unbounded searches.
    pub use_active_index: bool,
    /// Optional stage-level trace hook ([`crate::trace`]). `None` (the
    /// default) costs one branch per structural match and nothing else —
    /// no clocks, no atomics — keeping the steady-state loop
    /// allocation-free and bench-neutral. The `'static` bound keeps the
    /// options `Copy` and freely shareable across worker threads; serve
    /// and the CLI leak one [`crate::trace::AtomicTrace`] per
    /// worker/process and reset it between queries.
    pub trace: Option<&'static dyn TraceSink>,
    /// How phase P1 picks the motif edge extending each DFS prefix
    /// ([`crate::matcher::ExtensionOrder`]). The default,
    /// `Cardinality`, is the worst-case-optimal order; `Fixed` is the
    /// paper's walk order, kept for A/B runs. The result set, emission
    /// order and [`SearchStats`] are identical either way.
    pub extension_order: ExtensionOrder,
}

impl SearchOptions {
    /// A builder starting from the defaults.
    pub fn builder() -> SearchOptionsBuilder {
        SearchOptionsBuilder::default()
    }

    /// This options value with the trace hook replaced. Out-of-crate
    /// callers use this instead of a functional-update literal, which
    /// `#[non_exhaustive]` forbids there.
    #[must_use]
    pub fn with_trace(mut self, trace: Option<&'static dyn TraceSink>) -> Self {
        self.trace = trace;
        self
    }

    /// This options value with the P1 extension order replaced.
    #[must_use]
    pub fn with_extension_order(mut self, order: ExtensionOrder) -> Self {
        self.extension_order = order;
        self
    }

    /// This options value with guard-1 window skipping replaced.
    #[must_use]
    pub fn with_skip_redundant_windows(mut self, v: bool) -> Self {
        self.skip_redundant_windows = v;
        self
    }

    /// This options value with `ϕ` prefix pruning replaced.
    #[must_use]
    pub fn with_phi_prefix_pruning(mut self, v: bool) -> Self {
        self.phi_prefix_pruning = v;
        self
    }

    /// This options value with the active-index toggle replaced.
    #[must_use]
    pub fn with_use_active_index(mut self, v: bool) -> Self {
        self.use_active_index = v;
        self
    }
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            skip_redundant_windows: true,
            phi_prefix_pruning: true,
            use_active_index: true,
            trace: None,
            extension_order: ExtensionOrder::default(),
        }
    }
}

/// Builder for [`SearchOptions`] — the construction path that stays
/// source-compatible as knobs are added.
///
/// ```
/// use flowmotif_core::{ExtensionOrder, SearchOptions};
///
/// let opts = SearchOptions::builder()
///     .phi_prefix_pruning(false)
///     .extension_order(ExtensionOrder::Fixed)
///     .build();
/// assert_eq!(opts, SearchOptions::default()
///     .with_extension_order(ExtensionOrder::Fixed)
///     .with_phi_prefix_pruning(false));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchOptionsBuilder {
    opts: SearchOptions,
}

impl SearchOptionsBuilder {
    /// Sets [`SearchOptions::skip_redundant_windows`].
    pub fn skip_redundant_windows(mut self, v: bool) -> Self {
        self.opts.skip_redundant_windows = v;
        self
    }

    /// Sets [`SearchOptions::phi_prefix_pruning`].
    pub fn phi_prefix_pruning(mut self, v: bool) -> Self {
        self.opts.phi_prefix_pruning = v;
        self
    }

    /// Sets [`SearchOptions::use_active_index`].
    pub fn use_active_index(mut self, v: bool) -> Self {
        self.opts.use_active_index = v;
        self
    }

    /// Sets [`SearchOptions::trace`].
    pub fn trace(mut self, trace: Option<&'static dyn TraceSink>) -> Self {
        self.opts.trace = trace;
        self
    }

    /// Sets [`SearchOptions::extension_order`].
    pub fn extension_order(mut self, order: ExtensionOrder) -> Self {
        self.opts.extension_order = order;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> SearchOptions {
        self.opts
    }
}

// Manual impls: `dyn TraceSink` has no `PartialEq`/`Debug`, so the trace
// hook compares by sink identity (thin-pointer equality — two options
// tracing into the same sink are interchangeable) and prints as a flag.
impl PartialEq for SearchOptions {
    fn eq(&self, other: &Self) -> bool {
        let thin =
            |t: Option<&'static dyn TraceSink>| t.map(|s| s as *const dyn TraceSink as *const ());
        self.skip_redundant_windows == other.skip_redundant_windows
            && self.phi_prefix_pruning == other.phi_prefix_pruning
            && self.use_active_index == other.use_active_index
            && thin(self.trace) == thin(other.trace)
            && self.extension_order == other.extension_order
    }
}

impl Eq for SearchOptions {}

impl std::fmt::Debug for SearchOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchOptions")
            .field("skip_redundant_windows", &self.skip_redundant_windows)
            .field("phi_prefix_pruning", &self.phi_prefix_pruning)
            .field("use_active_index", &self.use_active_index)
            .field("trace", &self.trace.is_some())
            .field("extension_order", &self.extension_order)
            .finish()
    }
}

/// Counters describing one enumeration run; useful for the ablation
/// benchmarks and for sanity-checking scalability claims.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Structural matches processed (phase P1 results).
    pub structural_matches: u64,
    /// Window positions recursed into.
    pub windows_processed: u64,
    /// Window positions skipped by guard 1.
    pub windows_skipped: u64,
    /// Prefixes discarded by the `ϕ` / top-k threshold check.
    pub prefixes_pruned_by_flow: u64,
    /// Prefixes discarded by admissibility guard 2.
    pub prefixes_skipped_nonmaximal: u64,
    /// Assembled instances rejected by prepend guard 3.
    pub instances_rejected_nonmaximal: u64,
    /// Assembled instances rejected by the final flow check (only when
    /// prefix pruning is disabled or a floating threshold rose mid-window).
    pub instances_rejected_by_flow: u64,
    /// Valid maximal instances delivered to the sink.
    pub instances_emitted: u64,
}

impl SearchStats {
    /// Merges counters from another run (used by parallel drivers).
    pub fn merge(&mut self, o: &SearchStats) {
        self.structural_matches += o.structural_matches;
        self.windows_processed += o.windows_processed;
        self.windows_skipped += o.windows_skipped;
        self.prefixes_pruned_by_flow += o.prefixes_pruned_by_flow;
        self.prefixes_skipped_nonmaximal += o.prefixes_skipped_nonmaximal;
        self.instances_rejected_nonmaximal += o.instances_rejected_nonmaximal;
        self.instances_rejected_by_flow += o.instances_rejected_by_flow;
        self.instances_emitted += o.instances_emitted;
    }
}

/// Receives instances as they are found.
///
/// The sink also supplies a *floating* pruning threshold, which the top-k
/// search (paper §5) raises as better instances accumulate; plain
/// enumeration leaves it at `-∞`.
///
/// Both arguments of [`InstanceSink::accept`] are *borrowed views into
/// enumerator scratch buffers*, valid only for the duration of the call:
/// the enumerator mutates them in place for the next match/instance, so a
/// sink that keeps results copies explicitly ([`StructuralMatch::clone`],
/// [`InstanceView::to_instance`] / [`InstanceView::write_to`]) and a sink
/// that only counts, filters or aggregates touches the heap not at all —
/// this is what makes the steady-state P1→P2 loop allocation-free.
pub trait InstanceSink {
    /// Prefixes (and final instances) whose aggregated flow is `<=` this
    /// value cannot contribute; `-∞` disables the extra pruning.
    fn prune_threshold(&self) -> Flow {
        f64::NEG_INFINITY
    }

    /// Called for every valid maximal instance.
    fn accept(&mut self, sm: &StructuralMatch, inst: InstanceView<'_>);

    /// Called by the parallel scan before each task it runs, with the
    /// task's index in the scan's deterministic task list; one worker's
    /// tasks arrive in ascending index order. A sink whose output must
    /// not depend on the schedule keys it on this; the default ignores
    /// it.
    fn begin_task(&mut self, _task: usize) {}
}

/// Sink that only counts (the "counting instances without constructing
/// them" use-case of the paper's future work runs through this fast path).
#[derive(Debug, Default)]
pub struct CountSink {
    /// Number of accepted instances.
    pub count: u64,
}

impl InstanceSink for CountSink {
    fn accept(&mut self, _sm: &StructuralMatch, _inst: InstanceView<'_>) {
        self.count += 1;
    }
}

/// Sink that groups collected instances per structural match.
#[derive(Debug, Default)]
pub struct CollectSink {
    /// `(match, its instances)` in discovery order.
    pub groups: Vec<(StructuralMatch, Vec<MotifInstance>)>,
}

impl CollectSink {
    /// Total number of collected instances.
    pub fn num_instances(&self) -> usize {
        self.groups.iter().map(|(_, v)| v.len()).sum()
    }

    /// Flattens into `(match index, instance)` pairs. The group's owned
    /// match moves into its last instance's pair; only the preceding
    /// instances of a group clone it.
    pub fn into_flat(self) -> Vec<(StructuralMatch, MotifInstance)> {
        let mut out = Vec::with_capacity(self.groups.iter().map(|(_, v)| v.len()).sum());
        for (m, insts) in self.groups {
            let mut it = insts.into_iter();
            let Some(mut prev) = it.next() else { continue };
            for next in it {
                out.push((m.clone(), prev));
                prev = next;
            }
            out.push((m, prev));
        }
        out
    }
}

impl InstanceSink for CollectSink {
    fn accept(&mut self, sm: &StructuralMatch, inst: InstanceView<'_>) {
        let inst = inst.to_instance();
        match self.groups.last_mut() {
            Some((m, v)) if m == sm => v.push(inst),
            _ => self.groups.push((sm.clone(), vec![inst])),
        }
    }
}

/// Adapter turning a closure into a sink.
#[derive(Debug)]
pub struct FnSink<F>(pub F);

impl<F: FnMut(&StructuralMatch, InstanceView<'_>)> InstanceSink for FnSink<F> {
    fn accept(&mut self, sm: &StructuralMatch, inst: InstanceView<'_>) {
        (self.0)(sm, inst)
    }
}

/// Reusable phase-P2 buffers shared across the many structural matches of
/// one search: the prefix stack of Algorithm 1 and the flat edge-set
/// buffer emitted instances are assembled in. Lifetime-free, so drivers
/// (streaming engines, server sessions) can hold one across queries over
/// different graphs; see [`crate::SearchScratch`] for the full-pipeline
/// arena.
#[derive(Debug, Default, Clone)]
pub struct EnumerationScratch {
    stack: Vec<(EdgeSet, Flow)>,
    edge_sets: Vec<EdgeSet>,
}

/// The unbounded search window: every timestamp is admissible. Searching
/// with these bounds is exactly the paper's Algorithm 1.
pub(crate) const UNBOUNDED: TimeWindow = TimeWindow { start: Timestamp::MIN, end: Timestamp::MAX };

/// Enumerates all maximal instances of `motif` inside the single
/// structural match `sm`, delivering them to `sink`. Generic over the
/// [`GraphStore`] backend like the rest of the pipeline.
pub fn enumerate_in_match<G: GraphStore, S: InstanceSink>(
    g: &G,
    motif: &Motif,
    sm: &StructuralMatch,
    opts: SearchOptions,
    sink: &mut S,
    stats: &mut SearchStats,
) {
    let mut scratch = EnumerationScratch::default();
    enumerate_in_match_reusing(g, motif, sm, opts, sink, stats, &mut scratch);
}

/// [`enumerate_in_match`] with caller-provided scratch buffers; use this
/// when iterating over many matches (see [`enumerate_with_sink`]).
pub fn enumerate_in_match_reusing<G: GraphStore, S: InstanceSink>(
    g: &G,
    motif: &Motif,
    sm: &StructuralMatch,
    opts: SearchOptions,
    sink: &mut S,
    stats: &mut SearchStats,
    scratch: &mut EnumerationScratch,
) {
    enumerate_in_match_bounded(g, motif, sm, UNBOUNDED, opts, sink, stats, scratch);
}

/// [`enumerate_in_match_reusing`] restricted to the closed time window
/// `bounds`: the result is exactly what Algorithm 1 would produce on the
/// sub-network of interactions with `bounds.start <= time <= bounds.end`,
/// but computed by *borrowing* the resident graph — no rebuild, no
/// copying. Window anchors, the prepend guard and all series ranges are
/// clamped to the bounds, so maximality is judged relative to the
/// restricted edge set (an instance extendable only by out-of-window
/// elements is still reported). Requires `motif.delta() >= 0`.
#[allow(clippy::too_many_arguments)] // mirrors enumerate_in_match_reusing + bounds
pub fn enumerate_in_match_bounded<G: GraphStore, S: InstanceSink>(
    g: &G,
    motif: &Motif,
    sm: &StructuralMatch,
    bounds: TimeWindow,
    opts: SearchOptions,
    sink: &mut S,
    stats: &mut SearchStats,
    scratch: &mut EnumerationScratch,
) {
    if sm.pairs.iter().any(|&p| g.series(p).is_empty()) {
        return;
    }
    let EnumerationScratch { stack, edge_sets } = scratch;
    stack.clear();
    let mut e = MatchEnumerator {
        g,
        motif,
        sm,
        opts,
        sink,
        stats,
        window: TimeWindow::new(0, 0),
        bounds,
        anchor_time: 0,
        anchor_prev: None,
        stack,
        edge_sets,
    };
    e.run();
}

struct MatchEnumerator<'a, 'g, G, S: InstanceSink> {
    g: &'g G,
    motif: &'a Motif,
    sm: &'a StructuralMatch,
    opts: SearchOptions,
    sink: &'a mut S,
    stats: &'a mut SearchStats,
    window: TimeWindow,
    /// Only interactions inside these closed bounds participate; the
    /// unbounded window recovers plain Algorithm 1.
    bounds: TimeWindow,
    anchor_time: Timestamp,
    anchor_prev: Option<Timestamp>,
    /// Chosen `(edge-set, aggregated flow)` for motif edges `0..k`.
    stack: &'a mut Vec<(EdgeSet, Flow)>,
    /// Flat buffer emitted instances are assembled in (borrowed by the
    /// [`InstanceView`] handed to the sink).
    edge_sets: &'a mut Vec<EdgeSet>,
}

impl<'g, G: GraphStore, S: InstanceSink> MatchEnumerator<'_, 'g, G, S> {
    /// The interaction series instantiating motif edge `k`.
    #[inline]
    fn series(&self, k: usize) -> SeriesRef<'g> {
        self.g.series(self.sm.pairs[k])
    }

    fn run(&mut self) {
        let m = self.motif.num_edges();
        let delta = self.motif.delta();
        let e1 = self.series(0);
        let em = self.series(m - 1);
        // Anchor only at R(e_1) elements inside the bounds; clamping every
        // window end to `bounds.end` makes the recursion see exactly the
        // in-bounds elements of every series (range starts always move
        // forward from the anchor, so the lower bound needs no clamping).
        let first = e1.idx_at_or_after(self.bounds.start);
        let last = e1.idx_after(self.bounds.end);
        let mut prev_end: Option<Timestamp> = None;
        for a_idx in first..last {
            let t_a = e1.time(a_idx);
            let w = TimeWindow::new(t_a, t_a.saturating_add(delta).min(self.bounds.end));
            // Guard 1: require a new R(e_m) element vs the last processed
            // window; otherwise every instance here is non-maximal.
            if self.opts.skip_redundant_windows {
                if let Some(pe) = prev_end {
                    if em.range_open_closed(pe, w.end).is_empty() {
                        self.stats.windows_skipped += 1;
                        continue;
                    }
                }
            }
            self.window = w;
            self.anchor_time = t_a;
            // The prepend guard must only see in-bounds R(e_1) elements: a
            // predecessor outside the bounds does not exist in the
            // restricted network and cannot make an instance non-maximal.
            self.anchor_prev = (a_idx > first).then(|| e1.time(a_idx - 1));
            self.stats.windows_processed += 1;
            let r = a_idx..e1.idx_after(w.end);
            self.recurse(0, r);
            prev_end = Some(w.end);
        }
    }

    /// `FindInstances` (paper Algorithm 1): edge `k` takes elements from
    /// `range` of its series; earlier edges are fixed on `self.stack`.
    fn recurse(&mut self, k: usize, range: Range<usize>) {
        debug_assert!(!range.is_empty());
        let m = self.motif.num_edges();
        let s = self.series(k);
        if k + 1 == m {
            self.emit_last(range);
            return;
        }
        let next = self.series(k + 1);
        let next_end = next.idx_after(self.window.end);
        let phi = self.motif.phi();
        let mut acc = 0.0;
        for j in range.clone() {
            acc += s.event(j).flow;
            let split = s.time(j);
            let nstart = next.idx_after(split);
            if nstart >= next_end {
                // Later splits only shrink the next edge's sub-window.
                break;
            }
            if self.opts.phi_prefix_pruning && (acc < phi || acc <= self.sink.prune_threshold()) {
                self.stats.prefixes_pruned_by_flow += 1;
                continue;
            }
            // Guard 2: if e_k has another element strictly before the
            // first e_{k+1} element, this prefix yields only non-maximal
            // instances (element j+1 could join the prefix). When the two
            // tie, element j+1 can NOT be added — order between motif
            // edges is strict — so the prefix must be kept.
            if j + 1 < range.end && next.time(nstart) > s.time(j + 1) {
                self.stats.prefixes_skipped_nonmaximal += 1;
                continue;
            }
            self.stack.push((
                EdgeSet { pair: self.sm.pairs[k], start: range.start as u32, end: (j + 1) as u32 },
                acc,
            ));
            self.recurse(k + 1, nstart..next_end);
            self.stack.pop();
        }
    }

    /// Last motif edge: takes *all* remaining elements, then assembles
    /// the instance in the reusable flat buffer and hands the sink a
    /// borrowed view — the steady-state emission path allocates nothing.
    fn emit_last(&mut self, range: Range<usize>) {
        let m = self.motif.num_edges();
        let s = self.series(m - 1);
        let set_flow = s.flow_of_range(range.clone());
        let flow = self.stack.iter().map(|&(_, f)| f).fold(set_flow, Flow::min);
        if flow < self.motif.phi() || flow <= self.sink.prune_threshold() {
            self.stats.instances_rejected_by_flow += 1;
            return;
        }
        let last_time = s.time(range.end - 1);
        // Guard 3: reject if the previous R(e_1) element fits within δ —
        // the window anchored there emits the enlarged instance.
        if let Some(tp) = self.anchor_prev {
            if last_time - tp <= self.motif.delta() {
                self.stats.instances_rejected_nonmaximal += 1;
                return;
            }
        }
        self.edge_sets.clear();
        self.edge_sets.extend(self.stack.iter().map(|&(es, _)| es));
        self.edge_sets.push(EdgeSet {
            pair: self.sm.pairs[m - 1],
            start: range.start as u32,
            end: range.end as u32,
        });
        let view = InstanceView {
            edge_sets: self.edge_sets,
            flow,
            first_time: self.anchor_time,
            last_time,
        };
        self.stats.instances_emitted += 1;
        self.sink.accept(self.sm, view);
    }
}

/// Runs the full two-phase search (P1 + P2), streaming instances to `sink`.
pub fn enumerate_with_sink<G: GraphStore, S: InstanceSink>(
    g: &G,
    motif: &Motif,
    opts: SearchOptions,
    sink: &mut S,
) -> SearchStats {
    enumerate_window_with_sink(g, motif, UNBOUNDED, opts, sink)
}

/// Runs the two-phase search restricted to the closed time window
/// `bounds`, streaming instances to `sink`.
///
/// All inputs are taken by shared reference and all of them are `Sync`,
/// so any number of threads may run bounded searches over one graph
/// concurrently — this is the entry point behind the snapshot reads of
/// `flowmotif-stream`/`flowmotif-serve` (each thread brings its own
/// sink and gets its own stats back):
///
/// ```
/// use flowmotif_core::{catalog, enumerate_window_with_sink, CountSink, SearchOptions};
/// use flowmotif_graph::{GraphBuilder, TimeWindow};
///
/// let mut b = GraphBuilder::new();
/// b.extend_interactions([
///     (0u32, 1u32, 10i64, 5.0), (1, 2, 12, 4.0), // one 2-hop chain ...
///     (5, 6, 30, 2.0), (6, 7, 35, 1.0),          // ... and a later one
/// ]);
/// let g = b.build_time_series_graph();
/// let motif = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
///
/// // Two threads, two windows, one shared graph.
/// let counts: Vec<u64> = std::thread::scope(|scope| {
///     [TimeWindow::new(0, 20), TimeWindow::new(25, 40)]
///         .map(|w| {
///             let (g, motif) = (&g, &motif);
///             scope.spawn(move || {
///                 let mut sink = CountSink::default();
///                 enumerate_window_with_sink(g, motif, w, SearchOptions::default(), &mut sink);
///                 sink.count
///             })
///         })
///         .map(|h| h.join().unwrap())
///         .to_vec()
/// });
/// assert_eq!(counts, vec![1, 1]); // 0->1->2 in [0,20]; 5->6->7 in [25,40]
/// ```
///
/// Instances are exactly those a
/// batch rebuild of the in-window interactions would produce (see
/// [`enumerate_in_match_bounded`]); only `SearchStats::structural_matches`
/// may differ from such a rebuild, because phase P1 runs on the resident
/// graph with window pruning
/// (a bounded [`crate::matcher::P1Driver`] run), so its cost —
/// and its visit count — scales with the structure active inside the
/// window rather than with everything retained.
pub fn enumerate_window_with_sink<G: GraphStore, S: InstanceSink>(
    g: &G,
    motif: &Motif,
    bounds: TimeWindow,
    opts: SearchOptions,
    sink: &mut S,
) -> SearchStats {
    let mut scratch = SearchScratch::default();
    enumerate_window_with_sink_scratch(g, motif, bounds, opts, sink, &mut scratch)
}

/// [`enumerate_with_sink`] running out of a caller-provided
/// [`SearchScratch`]: after the first (warm-up) call, repeated searches
/// perform zero heap allocations beyond what the sink itself keeps.
pub fn enumerate_with_sink_scratch<G: GraphStore, S: InstanceSink>(
    g: &G,
    motif: &Motif,
    opts: SearchOptions,
    sink: &mut S,
    scratch: &mut SearchScratch,
) -> SearchStats {
    enumerate_window_with_sink_scratch(g, motif, UNBOUNDED, opts, sink, scratch)
}

/// Traced runs clock one P2 call in this many (always including the
/// first), scaling the sample up to estimate total P2 time; per-match
/// clock reads would cost more than the work they measure.
const P2_SAMPLE_EVERY: u64 = 64;

/// [`enumerate_window_with_sink`] running out of a caller-provided
/// [`SearchScratch`] — the allocation-free steady-state entry point the
/// streaming engine and server sessions reuse across queries.
pub fn enumerate_window_with_sink_scratch<G: GraphStore, S: InstanceSink>(
    g: &G,
    motif: &Motif,
    bounds: TimeWindow,
    opts: SearchOptions,
    sink: &mut S,
    scratch: &mut SearchScratch,
) -> SearchStats {
    enumerate_floored(g, motif, bounds, Flow::NEG_INFINITY, opts, sink, scratch)
}

/// [`enumerate_window_with_sink_scratch`] with phase P1 under the
/// pair-flow floor `floor` ([`P1Driver::flow_floor`]): the instances of
/// the matches whose pairs all reach the floor, in the same order.
pub(crate) fn enumerate_floored<G: GraphStore, S: InstanceSink>(
    g: &G,
    motif: &Motif,
    bounds: TimeWindow,
    floor: Flow,
    opts: SearchOptions,
    sink: &mut S,
    scratch: &mut SearchScratch,
) -> SearchStats {
    let mut stats = SearchStats::default();
    // Split the arena: phase P1 walks out of `p1` while each match's
    // phase P2 runs out of `p2`.
    let SearchScratch { p1, p2, .. } = scratch;
    // The traced path times the whole scan plus the inside of a 1-in-64
    // *sample* of P2 calls (two clock reads per structural match would
    // dominate short windows; the `metrics` bench gates the traced path
    // at <5% over untraced). P2 time is the sampled total scaled up by
    // the sampling ratio, and P1 falls out as total − P2. The untraced
    // path is the original loop: one well-predicted branch per match,
    // no clocks.
    let start = opts.trace.map(|_| std::time::Instant::now());
    let mut p2_sampled_nanos = 0u64;
    let mut p2_sampled = 0u64;
    // P1 trace accounting happens here (total − sampled P2), so the
    // driver runs untraced.
    let driver = P1Driver::new(motif.path())
        .bounds(bounds)
        .use_index(opts.use_active_index)
        .extension_order(opts.extension_order)
        .flow_floor(floor);
    driver.run(g, p1, &mut |sm| {
        stats.structural_matches += 1;
        if opts.trace.is_some() && (stats.structural_matches - 1) % P2_SAMPLE_EVERY == 0 {
            let t0 = std::time::Instant::now();
            enumerate_in_match_bounded(g, motif, sm, bounds, opts, sink, &mut stats, p2);
            p2_sampled_nanos += t0.elapsed().as_nanos() as u64;
            p2_sampled += 1;
        } else {
            enumerate_in_match_bounded(g, motif, sm, bounds, opts, sink, &mut stats, p2);
        }
    });
    if let (Some(trace), Some(start)) = (opts.trace, start) {
        let total = start.elapsed().as_nanos() as u64;
        // Scale the sample to the full match count, clamped to the
        // measured total so P1 = total − P2 can never underflow.
        let p2_nanos = p2_sampled_nanos
            .saturating_mul(stats.structural_matches)
            .checked_div(p2_sampled)
            .map_or(0, |v| v.min(total));
        trace.record(TraceStage::P1, total - p2_nanos, stats.structural_matches);
        trace.record(TraceStage::P2, p2_nanos, stats.instances_emitted);
    }
    stats
}

/// Convenience: collects the maximal instances inside `bounds`, grouped by
/// structural match.
pub fn enumerate_all_in_window<G: GraphStore>(
    g: &G,
    motif: &Motif,
    bounds: TimeWindow,
) -> (Vec<(StructuralMatch, Vec<MotifInstance>)>, SearchStats) {
    let mut sink = CollectSink::default();
    let stats = enumerate_window_with_sink(g, motif, bounds, SearchOptions::default(), &mut sink);
    (sink.groups, stats)
}

/// Convenience: counts the maximal instances inside `bounds`.
pub fn count_instances_in_window<G: GraphStore>(
    g: &G,
    motif: &Motif,
    bounds: TimeWindow,
) -> (u64, SearchStats) {
    let mut sink = CountSink::default();
    let stats = enumerate_window_with_sink(g, motif, bounds, SearchOptions::default(), &mut sink);
    (sink.count, stats)
}

/// Convenience: collects all maximal instances grouped by structural match.
pub fn enumerate_all<G: GraphStore>(
    g: &G,
    motif: &Motif,
) -> (Vec<(StructuralMatch, Vec<MotifInstance>)>, SearchStats) {
    let mut sink = CollectSink::default();
    let stats = enumerate_with_sink(g, motif, SearchOptions::default(), &mut sink);
    (sink.groups, stats)
}

/// Convenience: counts all maximal instances.
pub fn count_instances<G: GraphStore>(g: &G, motif: &Motif) -> (u64, SearchStats) {
    let mut sink = CountSink::default();
    let stats = enumerate_with_sink(g, motif, SearchOptions::default(), &mut sink);
    (sink.count, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::instance::StructuralMatch;
    use flowmotif_graph::{GraphBuilder, TimeSeriesGraph};

    /// The structural match of paper Fig. 7: a 3-cycle 0 -> 1 -> 2 -> 0
    /// with R(e1) = {(10,5),(13,2),(15,3),(18,7)},
    /// R(e2) = {(9,4),(11,3),(16,3)},
    /// R(e3) = {(14,4),(19,6),(24,3),(25,2)}.
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

    fn run_fig7(phi: f64) -> (Vec<MotifInstance>, SearchStats) {
        let (g, sm) = fig7();
        let motif = catalog::by_name("M(3,3)", 10, phi).unwrap();
        let mut sink = CollectSink::default();
        let mut stats = SearchStats::default();
        enumerate_in_match(&g, &motif, &sm, SearchOptions::default(), &mut sink, &mut stats);
        let insts = sink.groups.pop().map(|(_, v)| v).unwrap_or_default();
        (insts, stats)
    }

    fn rendered(g: &TimeSeriesGraph, insts: &[MotifInstance]) -> Vec<String> {
        insts.iter().map(|i| i.display(g)).collect()
    }

    #[test]
    fn fig7_phi0_produces_the_four_maximal_instances() {
        let (g, _) = fig7();
        let (insts, stats) = run_fig7(0.0);
        let shown = rendered(&g, &insts);
        assert_eq!(
            shown,
            vec![
                // Window [10,20], paper's two instances for prefix {(10,5)}:
                "[e1 <- {(10, 5)}, e2 <- {(11, 3)}, e3 <- {(14, 4), (19, 6)}]",
                "[e1 <- {(10, 5)}, e2 <- {(11, 3), (16, 3)}, e3 <- {(19, 6)}]",
                // ...and the three-element prefix:
                "[e1 <- {(10, 5), (13, 2), (15, 3)}, e2 <- {(16, 3)}, e3 <- {(19, 6)}]",
                // Window [15,25]:
                "[e1 <- {(15, 3)}, e2 <- {(16, 3)}, e3 <- {(19, 6), (24, 3), (25, 2)}]",
            ]
        );
        // The paper notes window [13,23] is skipped as redundant; [18,28]
        // is skipped too.
        assert_eq!(stats.windows_processed, 2);
        assert_eq!(stats.windows_skipped, 2);
    }

    #[test]
    fn fig7_phi5_keeps_only_the_flow5_instance() {
        let (g, _) = fig7();
        let (insts, _) = run_fig7(5.0);
        let shown = rendered(&g, &insts);
        // Paper §4: "the latter instance would be rejected for ϕ = 5";
        // Table 2's top-1 instance is the survivor.
        assert_eq!(shown, vec!["[e1 <- {(10, 5)}, e2 <- {(11, 3), (16, 3)}, e3 <- {(19, 6)}]"]);
        assert_eq!(insts[0].flow, 5.0);
        assert_eq!(insts[0].first_time, 10);
        assert_eq!(insts[0].last_time, 19);
        assert_eq!(insts[0].span(), 9);
    }

    #[test]
    fn fig7_no_prefix_stranded_between_e2_elements() {
        // Guard 2 regression: no instance contains the first two elements
        // of e1 but not the third, because no e2 element lies between
        // (13,2) and (15,3) (paper's own remark).
        let (g, _) = fig7();
        let (insts, stats) = run_fig7(0.0);
        for i in &insts {
            let e1_events = i.edge_sets[0].events(&g);
            let times: Vec<_> = e1_events.iter().map(|e| e.time).collect();
            assert_ne!(times, vec![10, 13]);
        }
        assert!(stats.prefixes_skipped_nonmaximal > 0);
    }

    #[test]
    fn options_do_not_change_results() {
        let (g, sm) = fig7();
        let motif = catalog::by_name("M(3,3)", 10, 0.0).unwrap();
        let mut expected = None;
        for skip in [true, false] {
            for prune in [true, false] {
                let opts = SearchOptions::builder()
                    .skip_redundant_windows(skip)
                    .phi_prefix_pruning(prune)
                    .build();
                let mut sink = CollectSink::default();
                let mut stats = SearchStats::default();
                enumerate_in_match(&g, &motif, &sm, opts, &mut sink, &mut stats);
                let shown = rendered(&g, &sink.groups.pop().map(|(_, v)| v).unwrap_or_default());
                match &expected {
                    None => expected = Some(shown),
                    Some(e) => assert_eq!(&shown, e, "skip={skip} prune={prune}"),
                }
            }
        }
    }

    #[test]
    fn full_search_over_fig5_graph() {
        // End-to-end two-phase run on the paper's Fig. 2/5 bitcoin example
        // with the Fig. 4 parameters δ=10, ϕ=7.
        let mut b = GraphBuilder::new();
        b.extend_interactions([
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
        ]);
        let g = b.build_time_series_graph();
        let motif = catalog::by_name("M(3,3)", 10, 7.0).unwrap();
        let (groups, stats) = enumerate_all(&g, &motif);
        assert_eq!(stats.structural_matches, 6);
        // The Fig. 4(a) instance: u3 -> u1 -> u2 -> u3 with edge-sets
        // {(10,10)}, {(13,5),(15,7)}, {(18,20)} and flow 10.
        let gr = &g;
        let all: Vec<_> = groups
            .iter()
            .flat_map(|(sm, v)| v.iter().map(move |i| (sm.walk_nodes(gr), i)))
            .collect();
        assert_eq!(all.len(), 1, "exactly one valid maximal instance");
        let (walk, inst) = &all[0];
        assert_eq!(walk, &vec![2, 0, 1, 2]);
        assert_eq!(
            inst.display(&g),
            "[e1 <- {(10, 10)}, e2 <- {(13, 5), (15, 7)}, e3 <- {(18, 20)}]"
        );
        assert_eq!(inst.flow, 10.0);
        // Fig. 4(b)'s subset (e2 <- {(15,7)} only) must NOT appear: it is
        // non-maximal.
    }

    #[test]
    fn empty_series_short_circuits() {
        let mut b = GraphBuilder::new();
        b.extend_interactions([(0u32, 1u32, 1i64, 1.0)]);
        let g = b.build_time_series_graph();
        let motif = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        let (count, stats) = count_instances(&g, &motif);
        assert_eq!(count, 0);
        assert_eq!(stats.structural_matches, 0);
    }

    #[test]
    fn chain_motif_counts() {
        // 0 -> 1 at t=1 (f=2), 1 -> 2 at t=2 (f=3): a single M(3,2)
        // instance if δ >= 1 and ϕ <= 2.
        let mut b = GraphBuilder::new();
        b.extend_interactions([(0u32, 1u32, 1i64, 2.0), (1, 2, 2, 3.0)]);
        let g = b.build_time_series_graph();
        let m = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        assert_eq!(count_instances(&g, &m).0, 1);
        let m = catalog::by_name("M(3,2)", 10, 2.0).unwrap();
        assert_eq!(count_instances(&g, &m).0, 1);
        let m = catalog::by_name("M(3,2)", 10, 2.5).unwrap();
        assert_eq!(count_instances(&g, &m).0, 0, "ϕ=2.5 kills the e1 flow of 2");
        let m = catalog::by_name("M(3,2)", 0, 0.0).unwrap();
        assert_eq!(count_instances(&g, &m).0, 0, "δ=0 cannot span t=1..2");
    }

    #[test]
    fn time_order_is_strict() {
        // Equal timestamps do not satisfy t(e_i) < t(e_j).
        let mut b = GraphBuilder::new();
        b.extend_interactions([(0u32, 1u32, 5i64, 1.0), (1, 2, 5, 1.0)]);
        let g = b.build_time_series_graph();
        let m = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        assert_eq!(count_instances(&g, &m).0, 0);
    }

    #[test]
    fn tied_timestamps_regression() {
        // Regression for the guard-2 tie bug: with 30-second-bucketed
        // timestamps (the Facebook aggregation), an e2 element can tie
        // with the *next* e1 element. The tied e1 element can NOT join
        // the prefix (order between motif edges is strict), so the
        // prefix must not be skipped. Verified against the brute-force
        // reference.
        use crate::validate::brute_force_instances;
        let mut b = GraphBuilder::new();
        b.extend_interactions([
            (0u32, 1u32, 30i64, 2.0),
            (0, 1, 60, 3.0), // ties with the e2 element below
            (1, 2, 60, 4.0),
            (1, 2, 90, 1.0),
        ]);
        let g = b.build_time_series_graph();
        let motif = catalog::by_name("M(3,2)", 120, 0.0).unwrap();
        let sm = StructuralMatch {
            nodes: vec![0, 1, 2],
            pairs: vec![g.pair_id(0, 1).unwrap(), g.pair_id(1, 2).unwrap()],
        };
        let mut sink = CollectSink::default();
        let mut stats = SearchStats::default();
        enumerate_in_match(&g, &motif, &sm, SearchOptions::default(), &mut sink, &mut stats);
        let mut algo: Vec<String> = sink
            .groups
            .pop()
            .map(|(_, v)| v)
            .unwrap_or_default()
            .iter()
            .map(|i| i.display(&g))
            .collect();
        let mut brute: Vec<String> =
            brute_force_instances(&g, &motif, &sm).iter().map(|i| i.display(&g)).collect();
        algo.sort();
        brute.sort();
        assert_eq!(algo, brute);
        // The instance [e1 <- {(30,2)}, e2 <- {(60,4),(90,1)}] is maximal:
        // the tied (60,3) e1 element cannot be added (order is strict).
        assert!(
            algo.iter().any(|s| s == "[e1 <- {(30, 2)}, e2 <- {(60, 4), (90, 1)}]"),
            "{algo:?}"
        );
    }

    /// Renders every instance with its walk so outputs of different graph
    /// builds (different pair ids) compare structurally.
    fn canonical(
        g: &TimeSeriesGraph,
        groups: &[(StructuralMatch, Vec<MotifInstance>)],
    ) -> Vec<String> {
        let mut out: Vec<String> = groups
            .iter()
            .flat_map(|(sm, v)| {
                v.iter().map(move |i| format!("{:?} {}", sm.walk_nodes(g), i.display(g)))
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn unbounded_window_reproduces_plain_search() {
        let mut b = GraphBuilder::new();
        b.extend_interactions([
            (0u32, 1u32, 13i64, 5.0),
            (0, 1, 15, 7.0),
            (2, 0, 10, 10.0),
            (1, 2, 18, 20.0),
        ]);
        let g = b.build_time_series_graph();
        let motif = catalog::by_name("M(3,3)", 10, 0.0).unwrap();
        let (plain, plain_stats) = enumerate_all(&g, &motif);
        let w = TimeWindow::new(Timestamp::MIN, Timestamp::MAX);
        let (windowed, win_stats) = enumerate_all_in_window(&g, &motif, w);
        assert_eq!(canonical(&g, &plain), canonical(&g, &windowed));
        assert_eq!(plain_stats, win_stats);
    }

    #[test]
    fn windowed_search_equals_rebuild_on_restricted_edges() {
        // The Fig. 7 fixture, queried over several windows: the borrowed
        // windowed search must agree with a batch rebuild of only the
        // in-window interactions.
        let edges = [
            (0u32, 1u32, 10i64, 5.0),
            (0, 1, 13, 2.0),
            (0, 1, 15, 3.0),
            (0, 1, 18, 7.0),
            (1, 2, 9, 4.0),
            (1, 2, 11, 3.0),
            (1, 2, 16, 3.0),
            (2, 0, 14, 4.0),
            (2, 0, 19, 6.0),
            (2, 0, 24, 3.0),
            (2, 0, 25, 2.0),
        ];
        let mut b = GraphBuilder::new();
        b.extend_interactions(edges);
        let g = b.build_time_series_graph();
        let motif = catalog::by_name("M(3,3)", 10, 0.0).unwrap();
        for (a, z) in [(9, 25), (10, 20), (12, 24), (14, 16), (0, 5), (11, 19)] {
            let (windowed, _) = enumerate_all_in_window(&g, &motif, TimeWindow::new(a, z));
            let mut rb = GraphBuilder::new();
            rb.extend_interactions(edges.iter().copied().filter(|&(_, _, t, _)| a <= t && t <= z));
            let rg = rb.build_time_series_graph();
            let (rebuilt, _) = enumerate_all(&rg, &motif);
            assert_eq!(canonical(&g, &windowed), canonical(&rg, &rebuilt), "window [{a}, {z}]");
        }
    }

    #[test]
    fn windowed_search_reports_instances_cut_by_the_bound() {
        // 0 -> 1 at t=10, 1 -> 2 at t=12 and t=30. Restricted to [5, 20],
        // the t=30 element is invisible: the M(3,2) instance is
        // {(10)},{(12)} — and it IS maximal relative to the window.
        let mut b = GraphBuilder::new();
        b.extend_interactions([(0u32, 1u32, 10i64, 1.0), (1, 2, 12, 2.0), (1, 2, 30, 4.0)]);
        let g = b.build_time_series_graph();
        let motif = catalog::by_name("M(3,2)", 100, 0.0).unwrap();
        let (groups, _) = enumerate_all_in_window(&g, &motif, TimeWindow::new(5, 20));
        let insts: Vec<_> = groups.iter().flat_map(|(_, v)| v.iter()).collect();
        assert_eq!(insts.len(), 1);
        assert_eq!(insts[0].display(&g), "[e1 <- {(10, 1)}, e2 <- {(12, 2)}]");
        // Whole-span query sees the full instance instead.
        let (groups, _) = enumerate_all_in_window(&g, &motif, TimeWindow::new(0, 100));
        let insts: Vec<_> = groups.iter().flat_map(|(_, v)| v.iter()).collect();
        assert_eq!(insts.len(), 1);
        assert_eq!(insts[0].display(&g), "[e1 <- {(10, 1)}, e2 <- {(12, 2), (30, 4)}]");
    }

    #[test]
    fn stats_merge() {
        let mut a =
            SearchStats { windows_processed: 2, instances_emitted: 3, ..Default::default() };
        let b = SearchStats { windows_processed: 5, windows_skipped: 1, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.windows_processed, 7);
        assert_eq!(a.windows_skipped, 1);
        assert_eq!(a.instances_emitted, 3);
    }
}
