//! Phase P1: structural matching (paper §4, Fig. 6).
//!
//! Finds every subgraph of `G_T` that matches the motif graph structure,
//! disregarding timestamps and flows. Because motif edges form a spanning
//! path, matching is a depth-first walk enumeration: map every graph vertex
//! to the walk origin, then extend edge by edge, re-using the mapped vertex
//! when the motif walk revisits a label (cycles) and enforcing injectivity
//! between distinct motif vertices (the bijection µ of Def. 3.2).
//!
//! # The match driver
//!
//! [`P1Driver`] is the single entry point: a builder selecting the origin
//! set (all origins, a node range, one origin's first-pair positions, or
//! every match through one graph pair), the window bound, the
//! activity-index toggle, an optional trace sink and the
//! [`ExtensionOrder`].
//!
//! # Binding plans
//!
//! The DFS binds motif edges in the order of a *plan*. A whole-graph run
//! seeds `walk[0]` and walks the edges forward, `0, 1, …, m − 1`, each
//! step extending from its bound source along out-lists. A pair-anchored
//! run ([`P1Driver::through_pair`]) seeds both endpoints of anchor edge
//! `j` at once and binds outward from it: edges `j − 1, …, 0` backward
//! (the fresh source is drawn from the bound target's in-list), then
//! edges `j + 1, …, m − 1` forward. Every non-anchor edge appears in the
//! plan exactly once, either binding a fresh vertex or, when both
//! endpoints are already bound, checking that the pair exists.
//!
//! # Worst-case-optimal extension
//!
//! Under [`ExtensionOrder::Fixed`], each DFS step extends along its walk
//! edge: candidates are the out-neighbors of the already-bound source,
//! and every other motif edge incident to the fresh vertex is only
//! checked when the walk revisits it. A hub of degree `d` therefore
//! fans out `d` candidates even when a later edge would admit two —
//! quadratic blow-up on skewed graphs.
//!
//! [`ExtensionOrder::Cardinality`] (the default) applies the
//! worst-case-optimal join discipline per fresh vertex instead:
//!
//! ```text
//!   count    every motif edge between the fresh vertex and a bound one
//!            is a candidate list — the bound endpoint's out-targets
//!            (forward edge) or in-sources (reverse edge), both
//!            ascending node-id columns;
//!   propose  the smallest list streams its candidates;
//!   intersect each candidate must appear in every other list, checked
//!            by galloping binary search ([`crate::gallop`]) with
//!            monotone cursors.
//! ```
//!
//! Candidates survive exactly when every incident edge exists, which is
//! what the fixed walk would eventually have checked — both orders emit
//! the *same matches in the same order*; only the work to find them
//! changes. Intersections touch the stores' id-only SoA columns
//! (`out_target_at`/`in_source_at`), never the event payloads. The same
//! table drives backward plan steps, whose primary list is the bound
//! target's in-sources.
//!
//! # Pair-flow floor
//!
//! An instance's flow is the minimum of its edge-set flows, and each
//! edge set is a run of the in-bounds elements of its pair, so no
//! instance can out-flow any of its pairs' in-bounds flow. A driver with
//! a *floor* ([`crate::cutoff`] sets one for the ranking searches) binds
//! a pair only if its in-bounds flow reaches the floor, at every bind
//! site: the forward and backward DFS loops, the worst-case-optimal
//! bind, the revisit check and the pair-anchored seed. The floor removes
//! exactly the matches holding a pair below it and keeps the order of
//! the rest. The default floor, `-∞`, costs one predictable branch per
//! bind.

use crate::gallop::gallop_seek_by;
use crate::instance::StructuralMatch;
use crate::motif::SpanningPath;
use crate::trace::{TraceSink, TraceStage};
use flowmotif_graph::{Flow, GraphStore, NodeId, PairId, SeriesRef, TimeWindow};

/// Strategy for choosing which motif edge extends each P1 prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExtensionOrder {
    /// Extend along the walk edge of each step (the paper's order);
    /// other edges incident to the fresh vertex are checked at their
    /// later walk revisits.
    Fixed,
    /// Worst-case-optimal: all motif edges between the fresh vertex and
    /// bound vertices constrain the step; the smallest candidate list
    /// proposes and the rest intersect by galloping binary search.
    /// Identical match stream to `Fixed`, never asymptotically slower,
    /// near-linear where `Fixed` is quadratic (hub-heavy graphs).
    #[default]
    Cardinality,
}

impl ExtensionOrder {
    /// Stable lowercase name (`fixed` / `cardinality`), the CLI and
    /// serve-protocol token.
    pub fn label(self) -> &'static str {
        match self {
            ExtensionOrder::Fixed => "fixed",
            ExtensionOrder::Cardinality => "cardinality",
        }
    }
}

impl std::str::FromStr for ExtensionOrder {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fixed" => Ok(ExtensionOrder::Fixed),
            "cardinality" => Ok(ExtensionOrder::Cardinality),
            other => Err(format!("unknown extension order '{other}' (fixed|cardinality)")),
        }
    }
}

impl std::fmt::Display for ExtensionOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One motif edge constraining a fresh-vertex bind: the graph vertex of
/// `anchor` (a walk label bound before the step) supplies the candidate
/// list — its out-targets when the edge runs `anchor -> fresh`
/// (`forward`), its in-sources when it runs `fresh -> anchor`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Constraint {
    anchor: u8,
    forward: bool,
}

/// One DFS step of a binding plan: motif edge `edge`, walked `forward`
/// from its bound source (`other` is its target) or backward from its
/// bound target (`other` is its source). `other` is either fresh, and
/// bound by this step, or already bound, and the step checks the pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Step {
    edge: u8,
    bound: u8,
    other: u8,
    forward: bool,
}

impl Step {
    fn new(walk: &[u8], edge: usize, forward: bool) -> Self {
        let (a, b) = (walk[edge], walk[edge + 1]);
        let (bound, other) = if forward { (a, b) } else { (b, a) };
        Self { edge: edge as u8, bound, other, forward }
    }
}

/// Reusable phase-P1 buffers: the match under construction (whose fields
/// are mutated in place; the visitor gets a shared reference at each
/// leaf), the injectivity bitmap, the candidate-origin pull buffer of
/// the indexed path, and the binding plan with its per-step constraint
/// table + gallop cursors of the worst-case-optimal extension. One
/// `MatchScratch` threaded through many enumerations (see
/// [`crate::SearchScratch`]) makes the steady-state P1 loop
/// allocation-free; the buffers re-size themselves to each motif.
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    sm: StructuralMatch,
    assigned: Vec<bool>,
    origins: Vec<NodeId>,
    /// The binding plan (see the module docs).
    plan: Vec<Step>,
    /// Flattened constraint table: plan step `s` owns
    /// `cons[cons_start[s]..cons_start[s + 1]]`, primary plan-edge
    /// constraint first. Steps whose other label is already bound own
    /// an empty range. Rebuilt (without allocating, once warm) per plan.
    cons: Vec<Constraint>,
    cons_start: Vec<u32>,
    /// Per-constraint gallop cursors, index-aligned with `cons`; each
    /// DFS frame resets and owns its step's sub-range.
    cursors: Vec<u32>,
}

impl MatchScratch {
    /// Sizes the match/assignment buffers for `path` (contents reset),
    /// lays out the binding plan — forward from `walk[0]`, or outward
    /// from edge `anchor` when set — and derives its constraint table:
    /// for the step binding fresh label `f`, every other motif edge with
    /// one endpoint `f` and the other already bound contributes one
    /// (deduplicated) [`Constraint`], in edge-label order. O(walk²),
    /// walks are tiny.
    fn prepare(&mut self, path: &SpanningPath, anchor: Option<usize>) {
        let n = path.num_nodes();
        let m = path.num_edges();
        self.sm.nodes.clear();
        self.sm.nodes.resize(n, 0);
        self.sm.pairs.clear();
        self.sm.pairs.resize(m, 0);
        self.plan.clear();
        let walk = path.walk();
        // `assigned` doubles as the bound-label set while planning.
        self.assigned.clear();
        self.assigned.resize(n, false);
        match anchor {
            None => {
                self.assigned[walk[0] as usize] = true;
                self.plan.extend((0..m).map(|e| Step::new(walk, e, true)));
            }
            Some(j) => {
                self.assigned[walk[j] as usize] = true;
                self.assigned[walk[j + 1] as usize] = true;
                self.plan.extend((0..j).rev().map(|e| Step::new(walk, e, false)));
                self.plan.extend((j + 1..m).map(|e| Step::new(walk, e, true)));
            }
        }

        self.cons.clear();
        self.cons_start.clear();
        for &step in &self.plan {
            let start = self.cons.len();
            self.cons_start.push(start as u32);
            let (bound, fresh) = (step.bound, step.other);
            if self.assigned[fresh as usize] {
                continue; // revisit step: no fresh vertex to constrain
            }
            self.cons.push(Constraint { anchor: bound, forward: step.forward });
            for (e, w) in walk.windows(2).enumerate() {
                let (a, b) = (w[0], w[1]);
                let c = if e == step.edge as usize {
                    continue;
                } else if b == fresh && self.assigned[a as usize] {
                    Constraint { anchor: a, forward: true }
                } else if a == fresh && self.assigned[b as usize] {
                    Constraint { anchor: b, forward: false }
                } else {
                    continue;
                };
                if !self.cons[start..].contains(&c) {
                    self.cons.push(c);
                }
            }
            self.assigned[fresh as usize] = true;
        }
        self.cons_start.push(self.cons.len() as u32);
        self.cursors.clear();
        self.cursors.resize(self.cons.len(), 0);
        self.assigned.fill(false);
    }
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

/// Which origins a [`P1Driver`] seeds the walk from.
#[derive(Debug, Clone)]
enum OriginSet {
    /// All origins in a node-id range (the whole graph by default);
    /// disjoint ranges partition the match set.
    Range(std::ops::Range<NodeId>),
    /// One origin, restricted to first-step pairs at these *positions*
    /// of its sorted out-list; disjoint position ranges partition the
    /// origin's matches (hub splitting).
    FirstPairs(NodeId, std::ops::Range<u32>),
    /// Every match one of whose motif edges maps to graph pair `(u, v)`,
    /// seeded at that edge.
    ThroughPair(NodeId, NodeId),
}

/// The phase-P1 match driver: one builder for every way the codebase
/// runs structural matching.
///
/// Defaults: all origins, unbounded window, activity index on,
/// [`ExtensionOrder::Cardinality`], no trace. Matches stream to the
/// visitor in lexicographic order of their vertex walk (pair-anchored
/// runs: see [`P1Driver::through_pair`]) — deterministic, identical
/// across [`GraphStore`] backends holding the same graph, and identical
/// across extension orders.
///
/// ```
/// use flowmotif_core::{catalog, P1Driver};
/// use flowmotif_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// b.extend_interactions([(0u32, 1u32, 1i64, 1.0), (1, 2, 2, 1.0)]);
/// let g = b.build_time_series_graph();
/// let m32 = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
/// assert_eq!(P1Driver::new(m32.path()).count(&g), 1);
/// ```
#[derive(Clone)]
pub struct P1Driver<'a> {
    path: &'a SpanningPath,
    bounds: TimeWindow,
    origins: OriginSet,
    use_index: bool,
    order: ExtensionOrder,
    trace: Option<&'static dyn TraceSink>,
    /// The pair-flow floor (see the module docs); `-∞` admits every
    /// active pair.
    floor: Flow,
}

impl std::fmt::Debug for P1Driver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("P1Driver")
            .field("bounds", &self.bounds)
            .field("origins", &self.origins)
            .field("use_index", &self.use_index)
            .field("order", &self.order)
            .field("trace", &self.trace.is_some())
            .field("floor", &self.floor)
            .finish_non_exhaustive()
    }
}

impl<'a> P1Driver<'a> {
    /// A driver over every origin, unbounded, indexed,
    /// cardinality-ordered, untraced.
    pub fn new(path: &'a SpanningPath) -> Self {
        Self {
            path,
            bounds: TimeWindow::new(i64::MIN, i64::MAX),
            origins: OriginSet::Range(0..NodeId::MAX),
            use_index: true,
            order: ExtensionOrder::default(),
            trace: None,
            floor: Flow::NEG_INFINITY,
        }
    }

    /// Restricts matches to those that can host an instance inside the
    /// closed window `bounds`: walks through pairs carrying no in-window
    /// interaction are pruned mid-DFS. Cost then scales with the
    /// structure *active* in the window, not with everything retained.
    pub fn bounds(mut self, bounds: TimeWindow) -> Self {
        self.bounds = bounds;
        self
    }

    /// Seeds only walk origins in this node-id range. Disjoint ranges
    /// partition the match set — how the parallel drivers shard P1+P2
    /// without materialising matches.
    pub fn origins(mut self, range: std::ops::Range<NodeId>) -> Self {
        self.origins = OriginSet::Range(range);
        self
    }

    /// Seeds one origin, restricted to first-step pairs at positions
    /// `first_pairs` of its sorted out-list (a sub-range of
    /// `0..out_degree(origin)`). Disjoint position ranges partition the
    /// origin's match set — how the parallel scheduler splits a heavy
    /// hub across workers. Positions (not pair ids) keep the split
    /// well-defined on composite stores whose out-lists are not
    /// contiguous in id space.
    pub fn from_origin(mut self, origin: NodeId, first_pairs: std::ops::Range<u32>) -> Self {
        self.origins = OriginSet::FirstPairs(origin, first_pairs);
        self
    }

    /// Seeds only matches that use graph pair `(u, v)`: for every motif
    /// edge `j`, in label order, the walk is seeded with `walk[j] = u`,
    /// `walk[j + 1] = v` and bound outward from there (see the module
    /// docs). The result is exactly the matches of the same driver
    /// without this option that contain the pair, each emitted once —
    /// motif edges are distinct directed label pairs and labels map
    /// injectively, so no match uses the pair at two edges. Within one
    /// anchor edge, matches stream in DFS order (labels before the edge
    /// nearest-first, then labels after it, each by ascending node id),
    /// identical across backends and extension orders. A pair absent
    /// from the graph, or inactive inside the bounds, yields nothing.
    pub fn through_pair(mut self, u: NodeId, v: NodeId) -> Self {
        self.origins = OriginSet::ThroughPair(u, v);
        self
    }

    /// Pull candidate origins of a bounded run from the store's
    /// active-time index (`true`, the default) instead of sweeping every
    /// origin and probing each pair. Same matches, same order, either
    /// way; `false` exists for ablation A/Bs. Ignored when unbounded.
    pub fn use_index(mut self, use_index: bool) -> Self {
        self.use_index = use_index;
        self
    }

    /// Selects the [`ExtensionOrder`]. The match stream is identical for
    /// both; `Fixed` exists for A/B runs against the paper's order.
    pub fn extension_order(mut self, order: ExtensionOrder) -> Self {
        self.order = order;
        self
    }

    /// Records the run into a stage-level [`TraceSink`] (elapsed nanos
    /// and match count under [`TraceStage::P1`]). `None` — the default —
    /// costs nothing.
    pub fn trace(mut self, trace: Option<&'static dyn TraceSink>) -> Self {
        self.trace = trace;
        self
    }

    /// Binds only pairs whose flow inside the bounds reaches `floor`
    /// (see the module docs): the matches of the run without a floor
    /// that hold no pair below it, in the same order.
    pub(crate) fn flow_floor(mut self, floor: Flow) -> Self {
        self.floor = floor;
        self
    }

    /// Streams every selected structural match to `visit` out of
    /// caller-provided scratch — the allocation-free form every
    /// steady-state caller (sequential, parallel, streaming) uses.
    pub fn run<S, F>(&self, g: &S, scratch: &mut MatchScratch, visit: &mut F)
    where
        S: GraphStore,
        F: FnMut(&StructuralMatch),
    {
        match self.trace {
            None => self.run_untraced(g, scratch, visit),
            Some(trace) => {
                let t0 = std::time::Instant::now();
                let mut n = 0u64;
                self.run_untraced(g, scratch, &mut |sm| {
                    n += 1;
                    visit(sm);
                });
                trace.record(TraceStage::P1, t0.elapsed().as_nanos() as u64, n);
            }
        }
    }

    /// [`P1Driver::run`] with driver-owned scratch (allocates once).
    pub fn for_each<S, F>(&self, g: &S, visit: &mut F)
    where
        S: GraphStore,
        F: FnMut(&StructuralMatch),
    {
        self.run(g, &mut MatchScratch::default(), visit);
    }

    /// Collects the selected matches (phase P1 output set `S`).
    pub fn collect<S: GraphStore>(&self, g: &S) -> Vec<StructuralMatch> {
        let mut out = Vec::new();
        self.for_each(g, &mut |m| out.push(m.clone()));
        out
    }

    /// Counts the selected matches without materializing them.
    pub fn count<S: GraphStore>(&self, g: &S) -> u64 {
        let mut n = 0u64;
        self.for_each(g, &mut |_| n += 1);
        n
    }

    fn run_untraced<S, F>(&self, g: &S, scratch: &mut MatchScratch, visit: &mut F)
    where
        S: GraphStore,
        F: FnMut(&StructuralMatch),
    {
        let walk = self.path.walk();
        let bounds = self.bounds;
        let bounded = bounds.start > i64::MIN || bounds.end < i64::MAX;
        if let OriginSet::ThroughPair(u, v) = self.origins {
            let n = g.num_nodes() as NodeId;
            if u == v || u >= n || v >= n {
                return;
            }
            let Some(p) = g.pair_id(u, v) else {
                return;
            };
            if !admits(g, p, bounded.then_some(bounds), self.floor) {
                return;
            }
            for j in 0..self.path.num_edges() {
                scratch.prepare(self.path, Some(j));
                let MatchScratch { sm, assigned, plan, cons, cons_start, cursors, .. } =
                    &mut *scratch;
                let ctx = DfsCtx {
                    g,
                    plan,
                    bounds: bounded.then_some(bounds),
                    floor: self.floor,
                    prune_spans: self.use_index,
                    first_pairs: None,
                    order: self.order,
                    cons,
                    cons_start,
                };
                let (a, b) = (walk[j] as usize, walk[j + 1] as usize);
                sm.nodes[a] = u;
                sm.nodes[b] = v;
                sm.pairs[j] = p;
                assigned[a] = true;
                assigned[b] = true;
                dfs(&ctx, 0, sm, assigned, cursors, visit);
                assigned[a] = false;
                assigned[b] = false;
            }
            return;
        }
        scratch.prepare(self.path, None);
        let MatchScratch { sm, assigned, origins: cands, plan, cons, cons_start, cursors } =
            scratch;
        let mut ctx = DfsCtx {
            g,
            plan,
            bounds: bounded.then_some(bounds),
            floor: self.floor,
            prune_spans: self.use_index,
            first_pairs: None,
            order: self.order,
            cons,
            cons_start,
        };

        let mut seed = |ctx: &DfsCtx<'_, S>,
                        u: NodeId,
                        sm: &mut StructuralMatch,
                        assigned: &mut Vec<bool>,
                        cursors: &mut [u32]| {
            let w0 = walk[0] as usize;
            sm.nodes[w0] = u;
            assigned[w0] = true;
            dfs(ctx, 0, sm, assigned, cursors, visit);
            assigned[w0] = false;
        };
        match &self.origins {
            OriginSet::FirstPairs(origin, first_pairs) => {
                let origin = *origin;
                if (origin as usize) >= g.num_nodes() || first_pairs.is_empty() {
                    return;
                }
                debug_assert!(
                    first_pairs.end <= g.out_degree(origin),
                    "first_pairs {first_pairs:?} must lie inside origin {origin}'s out-list \
                     (degree {})",
                    g.out_degree(origin)
                );
                if bounded && self.use_index && !g.origin_active_in(origin, bounds) {
                    return;
                }
                ctx.first_pairs = Some((first_pairs.start, first_pairs.end));
                seed(&ctx, origin, sm, assigned, cursors);
            }
            OriginSet::Range(origins) => {
                let end = origins.end.min(g.num_nodes() as NodeId);
                if bounded && self.use_index {
                    // Index-assisted P1: only origins with in-window
                    // out-activity are even considered (ascending ids keep
                    // the emission order). The pull is already restricted
                    // to this call's origin range, so a parallel shard
                    // never materialises the window's full candidate list.
                    g.active_origins_in_range(bounds, origins.start..end, cands);
                    for &u in cands.iter() {
                        if g.out_degree(u) > 0 {
                            seed(&ctx, u, sm, assigned, cursors);
                        }
                    }
                } else {
                    for u in origins.start..end {
                        if g.out_degree(u) > 0 {
                            seed(&ctx, u, sm, assigned, cursors);
                        }
                    }
                }
            }
            OriginSet::ThroughPair(..) => unreachable!("pair-anchored runs return above"),
        }
    }
}

// ---------------------------------------------------------------------
// DFS
// ---------------------------------------------------------------------

/// Whether pair `p` carries at least one interaction inside `bounds`
/// (`None` = unbounded, always true). A pair failing this cannot host any
/// motif-edge set of an in-window instance.
#[inline]
fn pair_active<S: GraphStore>(g: &S, p: PairId, bounds: Option<TimeWindow>) -> bool {
    match bounds {
        None => true,
        Some(w) => g.series(p).active_in(w.start, w.end),
    }
}

/// Whether series `s` may carry an edge set of flow `floor` or more
/// inside `bounds` (`None` = unbounded).
///
/// P2 sums an edge set element by element from its first element (its
/// last edge, and the DP, take a prefix-sum difference instead); the
/// floor reads the pair's prefix sums. The two are compared as follows:
///
/// - **Unbounded: proved to agree, compared exactly.** The prefix sums
///   are accumulated sequentially from `0.0` over positive flows, and
///   rounding is monotone, so a running sum over elements `s..e`
///   started at `0 ≤ prefix[s]` stays `≤ prefix[e] ≤ prefix[len]`
///   element by element, and `prefix[e] − prefix[s] ≤ prefix[len] − 0`.
///   No edge set of the pair sums above `total_flow()`.
/// - **Bounded: compared with a margin.** The bound `prefix[b] −
///   prefix[a]` subtracts a prefix that carries the rounding of every
///   element before the window, and can come out a few ulps below a
///   running sum over the window; see [`flow_slack`].
#[inline]
fn reaches_floor(s: SeriesRef<'_>, bounds: Option<TimeWindow>, floor: Flow) -> bool {
    match bounds {
        None => s.total_flow() >= floor,
        Some(w) => s.flow_in_closed(w.start, w.end) + flow_slack(s.len(), s.total_flow()) >= floor,
    }
}

/// The flow by which a pair's in-window prefix-sum difference may fall
/// short of a sum P2 accumulates over some of its in-window elements,
/// for a series of `len` elements and total `total`. For `n` positive
/// elements of exact total `T`, each prefix sum and each running sum is
/// off by at most `(n − 1)·u·T` (`u` = unit roundoff = `ε/2`), and the
/// difference adds one rounding of at most `u·T`, so the two differ by
/// at most `(3n − 1)·u·T`. The margin, `4·(n + 2)·ε·total` =
/// `8·(n + 2)·u·total`, covers that with room for second-order terms.
#[inline]
fn flow_slack(len: usize, total: Flow) -> Flow {
    4.0 * (len as Flow + 2.0) * f64::EPSILON * total
}

/// Whether pair `p` may bind: it is active inside `bounds` and, under a
/// floor above `-∞`, [`reaches_floor`].
#[inline]
fn admits<S: GraphStore>(g: &S, p: PairId, bounds: Option<TimeWindow>, floor: Flow) -> bool {
    pair_active(g, p, bounds)
        && (floor == Flow::NEG_INFINITY || reaches_floor(g.series(p), bounds, floor))
}

/// Immutable per-enumeration state shared by every DFS frame.
struct DfsCtx<'a, S> {
    g: &'a S,
    /// The scratch-owned binding plan (see [`MatchScratch`]).
    plan: &'a [Step],
    bounds: Option<TimeWindow>,
    /// The driver's pair-flow floor.
    floor: Flow,
    /// Consult the per-origin active intervals before iterating a node's
    /// out-pairs (on for the indexed path, off for the A/B baseline).
    prune_spans: bool,
    /// When set, step 0 iterates only this `(start, end)` position range
    /// of the origin's out-list — hub tasks partition an origin's matches
    /// by first-step pair. Deeper steps are unaffected.
    first_pairs: Option<(u32, u32)>,
    order: ExtensionOrder,
    /// The scratch-owned constraint table (see [`MatchScratch`]).
    cons: &'a [Constraint],
    cons_start: &'a [u32],
}

/// Length of a constraint's candidate list at runtime.
#[inline]
fn clist_len<S: GraphStore>(g: &S, anchor_node: NodeId, forward: bool) -> u32 {
    if forward {
        g.out_degree(anchor_node)
    } else {
        g.in_degree(anchor_node)
    }
}

/// Candidate at position `i` of a constraint's list — an id-only SoA
/// column read on every backend, ascending in `i`.
#[inline]
fn clist_at<S: GraphStore>(g: &S, anchor_node: NodeId, forward: bool, i: u32) -> NodeId {
    if forward {
        g.out_target_at(anchor_node, i)
    } else {
        g.in_source_at(anchor_node, i)
    }
}

fn dfs<S, F>(
    ctx: &DfsCtx<'_, S>,
    step: usize,
    sm: &mut StructuralMatch,
    assigned: &mut Vec<bool>,
    cursors: &mut [u32],
    visit: &mut F,
) where
    S: GraphStore,
    F: FnMut(&StructuralMatch),
{
    let (g, bounds) = (ctx.g, ctx.bounds);
    let Some(&st) = ctx.plan.get(step) else {
        visit(sm);
        return;
    };
    let bound = sm.nodes[st.bound as usize];
    if assigned[st.other as usize] {
        // Revisited motif vertex: the graph vertex is fixed; the edge must
        // exist (e.g. the cycle-closing check of M(3,3), paper §4 P1).
        let other = sm.nodes[st.other as usize];
        let (u, v) = if st.forward { (bound, other) } else { (other, bound) };
        if let Some(p) = g.pair_id(u, v) {
            if !admits(g, p, bounds, ctx.floor) {
                return;
            }
            sm.pairs[st.edge as usize] = p;
            dfs(ctx, step + 1, sm, assigned, cursors, visit);
        }
        return;
    }
    let cons = ctx.cons_start[step] as usize..ctx.cons_start[step + 1] as usize;
    if st.forward {
        // Span pre-check: if none of `bound`'s out-interactions fall
        // inside the bounds, no out-pair can be active — skip the whole
        // slice.
        if ctx.prune_spans {
            if let Some(w) = bounds {
                if !g.origin_active_in(bound, w) {
                    return;
                }
            }
        }
        let first_pairs = match (step, ctx.first_pairs) {
            (0, Some((s, e))) => Some(s..e),
            _ => None,
        };
        if ctx.order == ExtensionOrder::Cardinality && cons.len() > 1 {
            wco_extend(ctx, step, cons, first_pairs, sm, assigned, cursors, visit);
            return;
        }
        for i in first_pairs.unwrap_or(0..g.out_degree(bound)) {
            let p = g.out_pair_at(bound, i);
            if admits(g, p, bounds, ctx.floor) {
                let v = g.out_target_at(bound, i);
                bind(ctx, step, st, p, v, sm, assigned, cursors, visit);
            }
        }
    } else {
        // Backward step: candidates are the bound target's in-sources
        // (in-lists carry no activity index to pre-check).
        if ctx.order == ExtensionOrder::Cardinality && cons.len() > 1 {
            wco_extend(ctx, step, cons, None, sm, assigned, cursors, visit);
            return;
        }
        for i in 0..g.in_degree(bound) {
            let p = g.in_pair_at(bound, i);
            if admits(g, p, bounds, ctx.floor) {
                let v = g.in_source_at(bound, i);
                bind(ctx, step, st, p, v, sm, assigned, cursors, visit);
            }
        }
    }
}

/// Binds the fresh label of plan step `st` (at index `step`) to graph
/// vertex `v` over pair `p` and recurses — unless `v` is already taken
/// by another label (injectivity: distinct motif vertices need distinct
/// graph vertices).
#[inline]
#[allow(clippy::too_many_arguments)] // one DFS frame's worth of state
fn bind<S, F>(
    ctx: &DfsCtx<'_, S>,
    step: usize,
    st: Step,
    p: PairId,
    v: NodeId,
    sm: &mut StructuralMatch,
    assigned: &mut Vec<bool>,
    cursors: &mut [u32],
    visit: &mut F,
) where
    S: GraphStore,
    F: FnMut(&StructuralMatch),
{
    if sm.nodes.iter().zip(assigned.iter()).any(|(&a, &set)| set && a == v) {
        return;
    }
    sm.nodes[st.other as usize] = v;
    assigned[st.other as usize] = true;
    sm.pairs[st.edge as usize] = p;
    dfs(ctx, step + 1, sm, assigned, cursors, visit);
    assigned[st.other as usize] = false;
}

/// The count/propose/intersect bind of one fresh vertex (see the module
/// docs). `cons` indexes this step's constraint sub-table; constraint 0
/// is always the primary plan edge, whose matched position also yields
/// the edge's pair id without a `pair_id` lookup.
#[allow(clippy::too_many_arguments)] // one DFS frame's worth of state
fn wco_extend<S, F>(
    ctx: &DfsCtx<'_, S>,
    step: usize,
    cons: std::ops::Range<usize>,
    first_pairs: Option<std::ops::Range<u32>>,
    sm: &mut StructuralMatch,
    assigned: &mut Vec<bool>,
    cursors: &mut [u32],
    visit: &mut F,
) where
    S: GraphStore,
    F: FnMut(&StructuralMatch),
{
    let g = ctx.g;
    let st = ctx.plan[step];
    let bound = sm.nodes[st.bound as usize];
    let cset = &ctx.cons[cons.clone()];

    // Count + propose: the smallest candidate list streams (ties keep
    // the lowest constraint index — deterministic). A pinned first-pair
    // range forces the primary plan edge to propose: position ranges
    // partition *its* list, so re-proposing would break hub splitting.
    let prop = match first_pairs {
        Some(_) => 0,
        None => (0..cset.len())
            .min_by_key(|&k| clist_len(g, sm.nodes[cset[k].anchor as usize], cset[k].forward))
            .unwrap(),
    };
    let (pn, pf) = (sm.nodes[cset[prop].anchor as usize], cset[prop].forward);
    let positions = first_pairs.unwrap_or(0..clist_len(g, pn, pf));

    // This frame owns its step's cursor sub-range; candidates ascend, so
    // every gallop resumes where the last one stopped.
    for cur in &mut cursors[cons.clone()] {
        *cur = 0;
    }
    'cands: for i in positions {
        let v = clist_at(g, pn, pf, i);
        // Intersect: v must appear in every other list. Probes touch
        // only id columns; a miss costs O(log distance-advanced).
        let mut prim_idx = i; // position of v in the primary list
        for k in 0..cset.len() {
            if k == prop {
                continue;
            }
            let (n, f) = (sm.nodes[cset[k].anchor as usize], cset[k].forward);
            let len = clist_len(g, n, f);
            let cur = &mut cursors[cons.start + k];
            let pos = gallop_seek_by(|x| clist_at(g, n, f, x), len, *cur, v);
            *cur = pos;
            if pos >= len || clist_at(g, n, f, pos) != v {
                continue 'cands;
            }
            if k == 0 {
                prim_idx = pos;
            }
        }
        let p =
            if st.forward { g.out_pair_at(bound, prim_idx) } else { g.in_pair_at(bound, prim_idx) };
        if admits(g, p, ctx.bounds, ctx.floor) {
            bind(ctx, step, st, p, v, sm, assigned, cursors, visit);
        }
    }
}

/// Collects all structural matches (phase P1 output set `S`).
pub fn find_structural_matches<S: GraphStore>(g: &S, path: &SpanningPath) -> Vec<StructuralMatch> {
    P1Driver::new(path).collect(g)
}

/// Counts structural matches without materializing them.
pub fn count_structural_matches<S: GraphStore>(g: &S, path: &SpanningPath) -> u64 {
    P1Driver::new(path).count(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use flowmotif_graph::{GraphBuilder, TimeSeriesGraph};

    /// The time-series graph of paper Fig. 5(b).
    fn fig5() -> TimeSeriesGraph {
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
        b.build_time_series_graph()
    }

    #[test]
    fn m33_has_six_matches_in_fig5_graph() {
        // Paper Fig. 6: six structural matches of M(3,3) in the Fig. 5
        // graph (each of the two directed triangles in three rotations).
        let g = fig5();
        let m33 = catalog::by_name("M(3,3)", 10, 0.0).unwrap();
        let matches = find_structural_matches(&g, m33.path());
        assert_eq!(matches.len(), 6);
        // Every match is a closed triangle.
        for m in &matches {
            let walk = m.walk_nodes(&g);
            assert_eq!(walk.len(), 4);
            assert_eq!(walk[0], walk[3]);
            assert_eq!(walk.iter().take(3).collect::<std::collections::HashSet<_>>().len(), 3);
        }
    }

    #[test]
    fn m32_matches_are_paths_of_three_distinct_nodes() {
        let g = fig5();
        let m32 = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        let matches = find_structural_matches(&g, m32.path());
        // Enumerate by brute force for the fixture.
        let mut expected = 0;
        for &(u, v) in g.pairs() {
            for (_, w) in g.out_pairs(v) {
                if w != u && w != v {
                    expected += 1;
                }
            }
        }
        assert_eq!(matches.len(), expected);
        for m in &matches {
            let walk = m.walk_nodes(&g);
            assert_eq!(walk.iter().collect::<std::collections::HashSet<_>>().len(), 3);
        }
    }

    #[test]
    fn revisit_requires_edge_existence() {
        // 0 -> 1 -> 2 with no closing edge: no M(3,3) matches.
        let mut b = GraphBuilder::new();
        b.extend_interactions([(0u32, 1u32, 1i64, 1.0), (1, 2, 2, 1.0)]);
        let g = b.build_time_series_graph();
        let m33 = catalog::by_name("M(3,3)", 10, 0.0).unwrap();
        assert_eq!(count_structural_matches(&g, m33.path()), 0);
        let m32 = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        assert_eq!(count_structural_matches(&g, m32.path()), 1);
    }

    #[test]
    fn injectivity_prevents_vertex_reuse() {
        // 0 <-> 1: the walk 0-1-0 is M(3,2)'s 0-1-2 only if the third
        // vertex is distinct, so no M(3,2) match exists.
        let mut b = GraphBuilder::new();
        b.extend_interactions([(0u32, 1u32, 1i64, 1.0), (1, 0, 2, 1.0)]);
        let g = b.build_time_series_graph();
        let m32 = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        assert_eq!(count_structural_matches(&g, m32.path()), 0);
        // But the 2-cycle walk 0-1-0 is a valid custom motif.
        let two_cycle = catalog::parse_motif("0-1-0", 10, 0.0).unwrap();
        assert_eq!(count_structural_matches(&g, two_cycle.path()), 2);
    }

    #[test]
    fn matches_are_deterministic_and_sorted() {
        let g = fig5();
        let m32 = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        let a = find_structural_matches(&g, m32.path());
        let b = find_structural_matches(&g, m32.path());
        assert_eq!(a, b);
        let walks: Vec<_> = a.iter().map(|m| m.walk_nodes(&g)).collect();
        let mut sorted = walks.clone();
        sorted.sort();
        assert_eq!(walks, sorted);
    }

    #[test]
    fn extension_orders_emit_identical_match_streams() {
        // Same matches, same lexicographic order — WCO only changes the
        // work to find them. Cycles (M(3,3), M(5,5)A, 0-1-0) exercise
        // multi-constraint steps; paths fall back to single-constraint.
        let g = fig5();
        for name in ["M(3,2)", "M(3,3)", "M(4,4)B", "M(4,4)C", "M(5,5)A"] {
            let motif = catalog::by_name(name, 10, 0.0).unwrap();
            for w in [TimeWindow::new(i64::MIN, i64::MAX), TimeWindow::new(10, 23)] {
                let run = |order: ExtensionOrder| {
                    P1Driver::new(motif.path()).bounds(w).extension_order(order).collect(&g)
                };
                assert_eq!(
                    run(ExtensionOrder::Fixed),
                    run(ExtensionOrder::Cardinality),
                    "{name} {w:?}"
                );
            }
        }
    }

    #[test]
    fn bounded_matching_prunes_inactive_pairs() {
        let g = fig5();
        let m33 = catalog::by_name("M(3,3)", 10, 0.0).unwrap();
        // Unbounded bounds reproduce plain P1 exactly.
        let all = P1Driver::new(m33.path()).collect(&g);
        assert_eq!(all, find_structural_matches(&g, m33.path()));
        // Only the 10..23 window is active for the (2,0)/(0,1)/(1,2)
        // triangle; restricting to [0, 9] leaves no active triangle edge
        // sets at all.
        let count = P1Driver::new(m33.path()).bounds(TimeWindow::new(0, 9)).count(&g);
        assert_eq!(count, 0, "every triangle needs an edge active before t=10");
        // [10, 23] keeps both directed triangles (3 rotations each).
        assert_eq!(P1Driver::new(m33.path()).bounds(TimeWindow::new(10, 23)).count(&g), 6);
        // A window touching only the (3,2) pair prunes down to walks over
        // active pairs: M(3,2) paths need both hops active in [1, 3].
        let m32 = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        let mut walks = Vec::new();
        P1Driver::new(m32.path())
            .bounds(TimeWindow::new(1, 3))
            .for_each(&g, &mut |m| walks.push(m.walk_nodes(&g)));
        assert!(walks.is_empty(), "only one pair is active: no 2-hop walk, got {walks:?}");
    }

    #[test]
    fn indexed_and_unindexed_bounded_matching_agree() {
        let g = fig5();
        for name in ["M(3,2)", "M(3,3)"] {
            let motif = catalog::by_name(name, 10, 0.0).unwrap();
            for (a, b) in [(0, 9), (10, 15), (10, 23), (1, 3), (16, 30), (i64::MIN, i64::MAX)] {
                let w = TimeWindow { start: a, end: b };
                let run = |use_index: bool| {
                    P1Driver::new(motif.path()).bounds(w).use_index(use_index).collect(&g)
                };
                assert_eq!(run(true), run(false), "{name} window [{a}, {b}]");
            }
        }
    }

    #[test]
    fn first_pair_ranges_partition_an_origins_matches() {
        // Hub splitting: enumerating an origin pair-chunk by pair-chunk
        // must reproduce the whole-origin enumeration exactly (same
        // matches, same order), bounded or not, indexed or not, in both
        // extension orders.
        let g = fig5();
        for name in ["M(3,2)", "M(3,3)"] {
            let motif = catalog::by_name(name, 10, 0.0).unwrap();
            for use_index in [true, false] {
                for order in [ExtensionOrder::Fixed, ExtensionOrder::Cardinality] {
                    for w in [TimeWindow::new(i64::MIN, i64::MAX), TimeWindow::new(10, 23)] {
                        let base = P1Driver::new(motif.path())
                            .bounds(w)
                            .use_index(use_index)
                            .extension_order(order);
                        for origin in 0..g.num_nodes() as NodeId {
                            let whole = base.clone().origins(origin..origin + 1).collect(&g);
                            let mut split = Vec::new();
                            let mut scratch = MatchScratch::default();
                            for i in 0..g.out_degree(origin) as u32 {
                                base.clone().from_origin(origin, i..i + 1).run(
                                    &g,
                                    &mut scratch,
                                    &mut |m| split.push(m.clone()),
                                );
                            }
                            assert_eq!(
                                split, whole,
                                "{name} origin={origin} index={use_index} order={order}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn driver_trace_records_p1_counts() {
        use crate::trace::AtomicTrace;
        let g = fig5();
        let m33 = catalog::by_name("M(3,3)", 10, 0.0).unwrap();
        let trace: &'static AtomicTrace = Box::leak(Box::new(AtomicTrace::new()));
        let n = P1Driver::new(m33.path()).trace(Some(trace)).count(&g);
        assert_eq!(n, 6);
        assert_eq!(trace.count(TraceStage::P1), 6);
    }

    #[test]
    fn empty_graph_has_no_matches() {
        let g = GraphBuilder::new().build_time_series_graph();
        let m = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        assert_eq!(count_structural_matches(&g, m.path()), 0);
    }

    #[test]
    fn five_cycle_matches() {
        let mut b = GraphBuilder::new();
        for i in 0..5u32 {
            b.add_interaction(i, (i + 1) % 5, i as i64, 1.0);
        }
        let g = b.build_time_series_graph();
        let m55a = catalog::by_name("M(5,5)A", 10, 0.0).unwrap();
        // One 5-cycle, five rotations.
        assert_eq!(count_structural_matches(&g, m55a.path()), 5);
        let m54 = catalog::by_name("M(5,4)", 10, 0.0).unwrap();
        assert_eq!(count_structural_matches(&g, m54.path()), 5);
    }

    #[test]
    fn origin_set_flavours_agree_with_the_whole_graph_run() {
        // The entry points the former free functions exposed, now driver
        // options: an explicit full origin range, the unindexed bounded
        // path and a whole-origin first-pair range reproduce the default
        // run (restricted to that origin) exactly.
        let g = fig5();
        let m33 = catalog::by_name("M(3,3)", 10, 0.0).unwrap();
        let path = m33.path();
        let n = g.num_nodes() as NodeId;
        for w in [TimeWindow::new(i64::MIN, i64::MAX), TimeWindow::new(10, 23)] {
            let want = P1Driver::new(path).bounds(w).collect(&g);
            assert_eq!(P1Driver::new(path).bounds(w).origins(0..n).collect(&g), want);
            assert_eq!(P1Driver::new(path).bounds(w).use_index(false).collect(&g), want);
            let mut scratch = MatchScratch::default();
            let mut got = Vec::new();
            P1Driver::new(path).bounds(w).run(&g, &mut scratch, &mut |m| got.push(m.clone()));
            assert_eq!(got, want);
            let deg = GraphStore::out_degree(&g, 2);
            assert_eq!(
                P1Driver::new(path).bounds(w).from_origin(2, 0..deg).collect(&g),
                P1Driver::new(path).bounds(w).origins(2..3).collect(&g),
            );
        }
    }

    #[test]
    fn flow_floor_keeps_exactly_the_matches_whose_pairs_reach_it() {
        // At every bind site (forward and backward loops, the WCO bind,
        // the revisit check, the pair-anchored seed) the floor drops a
        // match iff one of its pairs falls below it, keeping the order.
        // Fig. 5's flows are small integers, so in-window flows are
        // exact and several floors equal a pair's flow.
        let g = fig5();
        for name in ["M(3,2)", "M(3,3)", "M(4,3)", "M(5,5)A"] {
            let motif = catalog::by_name(name, 10, 0.0).unwrap();
            for w in [TimeWindow::new(i64::MIN, i64::MAX), TimeWindow::new(10, 23)] {
                for floor in [f64::NEG_INFINITY, 0.0, 5.0, 9.0, 12.0, 20.0, 100.0] {
                    let heavy = |p: PairId| {
                        GraphStore::series(&g, p).flow_in_closed(w.start, w.end) >= floor
                    };
                    for order in [ExtensionOrder::Fixed, ExtensionOrder::Cardinality] {
                        let base = P1Driver::new(motif.path()).bounds(w).extension_order(order);
                        let want: Vec<_> = base
                            .collect(&g)
                            .into_iter()
                            .filter(|m| m.pairs.iter().all(|&p| heavy(p)))
                            .collect();
                        let floored = base.clone().flow_floor(floor);
                        assert_eq!(floored.collect(&g), want, "{name} {w:?} floor={floor}");
                        for &(u, v) in g.pairs() {
                            let p = g.pair_id(u, v).unwrap();
                            let through = floored.clone().through_pair(u, v).count(&g);
                            let uses = want.iter().filter(|m| m.pairs.contains(&p)).count();
                            assert_eq!(through, uses as u64, "{name} {w:?} floor={floor}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn floor_margin_covers_in_window_running_sums_of_inexact_flows() {
        // A heavy element before the window leaves the in-window prefix
        // difference a few ulps off the running sum P2 would form; the
        // margin keeps the pair admitted at a floor equal to that sum.
        let flows = [1e6, 0.1, 0.2, 0.3, 1e-3, 0.7, 3.3, 1e5 + 0.1, 0.1, 0.2];
        let mut b = GraphBuilder::new();
        for (t, &f) in flows.iter().enumerate() {
            b.add_interaction(0, 1, t as i64, f);
        }
        let g = b.build_time_series_graph();
        let s = GraphStore::series(&g, 0);
        let mut short = 0;
        for start in 1..flows.len() {
            let mut acc = 0.0;
            for (end, &f) in flows.iter().enumerate().skip(start) {
                acc += f;
                let w = TimeWindow::new(start as i64, end as i64);
                short += usize::from(s.flow_in_closed(w.start, w.end) < acc);
                assert!(reaches_floor(s, Some(w), acc), "elements {start}..={end} sum to {acc}");
            }
        }
        assert!(short > 0, "some prefix difference must fall short of its running sum");
        let w = TimeWindow::new(1, 9);
        assert!(!reaches_floor(s, Some(w), s.flow_in_closed(1, 9) + 1e-3));
        // Unbounded, the total is compared exactly: ties are admitted.
        assert!(reaches_floor(s, None, s.total_flow()));
        assert!(!reaches_floor(s, None, s.total_flow().next_up()));
    }

    #[test]
    fn through_pair_rejects_absent_and_degenerate_pairs() {
        let g = fig5();
        let m32 = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        let count = |u, v| P1Driver::new(m32.path()).through_pair(u, v).count(&g);
        assert_eq!(count(1, 0), 0, "no (1, 0) pair");
        assert_eq!(count(0, 0), 0, "self pair");
        assert_eq!(count(0, 99), 0, "node out of range");
        // (3, 2) is only active in [1, 3]: a window missing it is empty.
        let bounded = P1Driver::new(m32.path()).bounds(TimeWindow::new(10, 23));
        assert_eq!(bounded.through_pair(3, 2).count(&g), 0);
        assert!(count(3, 2) > 0);
    }
}
