//! Cutoff passes: the flow bound pushed into phase P1 for the ranking
//! searches ([`crate::Query::top_k`] and [`crate::Query::top1`]).
//!
//! An instance's flow is at most the in-bounds flow of each of its pairs
//! (flows are positive), so a search for the `k` best instances needs
//! no pair lighter than the `k`-th best flow. That flow is unknown up
//! front; the passes seed it from the heaviest pairs, in the manner of
//! the threshold algorithm of Fagin, Lotem & Naor ("Optimal Aggregation
//! Algorithms for Middleware", PODS 2001):
//!
//! 1. Read every pair's total flow once.
//! 2. Set the cutoff `c` to the larger of the hard lower bound (`ϕ` for
//!    top-k, `0` for the DP) and the total flow of the
//!    [`CUTOFF_PAIRS_PER_RESULT`]`·k`-th heaviest pair.
//! 3. Run the unchanged search with the P1 pair-flow floor at `c`
//!    ([`crate::matcher::P1Driver`]). If it found `k` results and the
//!    `k`-th flow `F_k ≥ c`, stop: every instance the pass skipped uses
//!    a pair below `c`, so its flow is `< c ≤ F_k`.
//! 4. If it found `k` results but `F_k < c`, run one more pass with the
//!    floor at `F_k`. Every instance of flow `≥ F_k` survives that
//!    floor, and the `k` results of step 3 are genuine instances, so
//!    that pass is exact.
//! 5. If it found fewer than `k`, lower `c` geometrically (the
//!    `4·C·k`, `16·C·k`, … heaviest pairs) until the cutoff reaches the
//!    lower bound — a pass that skips nothing an answer could use — or
//!    runs out of pairs, which is the search without a floor.
//!
//! Each pass's results are those of the search without a floor: the
//! floor removes only matches that cannot reach the pass's cutoff, and
//! it keeps the rest in their order, so rank ties and the DP's
//! first-found witness come out the same.
//!
//! A pass needs only the pairs its floor admits, so the passes run on a
//! [`FloorCover`]: for each floor, a store that holds at least those
//! pairs. A [`GraphStore`] covers every floor itself; a
//! [`RankingImage`] builds the image of just the admitted pairs, and
//! builds it again only when a later pass lowers the floor below it.
//! The matches of a pass are the same on either: P1 binds only pairs
//! that reach the floor, the image holds each of them with the same
//! series, and it keeps the node ids and the `(origin, target)` order
//! of the pairs, so P1 walks the same matches in the same order.

use crate::trace::TraceSink;
use flowmotif_graph::{Flow, GraphStore, PairId, RankingImage, SegmentStore};

/// Pairs the first cutoff pass admits per requested result (`C`): the
/// first pass keeps the `C·k` heaviest pairs. A pass costs one sweep of
/// the graph's pairs plus the matches it admits, so `C` trades a first
/// pass that admits too few pairs (and needs a second) against one that
/// admits needless matches. On the 270,000-pair Facebook-like graph of
/// the batch benchmark, `C = 64` answers `topk --k 10` and `top1` of
/// M(3,2) in two passes each over a few hundred matches; `C = 16` falls
/// to a refine pass that admits 19,210 pairs and 17,134 matches.
pub const CUTOFF_PAIRS_PER_RESULT: usize = 64;

/// Factor by which each fallback pass grows the admitted pair count.
const GROWTH: usize = 4;

/// What one pass found: how many results (at most `k`) and the flow of
/// the `k`-th (any value when fewer were found).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PassOutcome {
    pub(crate) found: usize,
    pub(crate) kth_flow: Flow,
}

/// The graph the cutoff passes of a ranking search run on (see the
/// module docs): every pair's total flow, and for each pass's floor a
/// store holding every pair whose total reaches it, with the same node
/// ids, series and `(origin, target)` order as the whole graph. Results
/// carry the pair ids of the store the last pass covered.
pub trait FloorCover {
    /// The store the passes search.
    type Store: GraphStore;

    /// Every pair's total flow, one per pair of the whole graph, each
    /// equal to its [`flowmotif_graph::SeriesRef::total_flow`].
    fn pair_totals(&self) -> Vec<Flow>;

    /// A store holding every pair whose total flow reaches `floor`.
    fn cover(&mut self, floor: Flow) -> &Self::Store;
}

/// A graph covers every floor: it holds every pair.
impl<G: GraphStore> FloorCover for &G {
    type Store = G;

    fn pair_totals(&self) -> Vec<Flow> {
        (0..self.num_pairs() as PairId).map(|p| self.series(p).total_flow()).collect()
    }

    fn cover(&mut self, _floor: Flow) -> &G {
        self
    }
}

impl<C: FloorCover + ?Sized> FloorCover for &mut C {
    type Store = C::Store;

    fn pair_totals(&self) -> Vec<Flow> {
        (**self).pair_totals()
    }

    fn cover(&mut self, floor: Flow) -> &C::Store {
        (**self).cover(floor)
    }
}

/// The image of the pairs the floor admits, rebuilt when a pass lowers
/// the floor below it.
impl FloorCover for RankingImage {
    type Store = SegmentStore;

    fn pair_totals(&self) -> Vec<Flow> {
        self.totals()
    }

    fn cover(&mut self, floor: Flow) -> &SegmentStore {
        RankingImage::cover(self, floor)
    }
}

/// Runs `search` on `g`'s cover of each floor of the cutoff schedule
/// until one pass is exact (see the module docs); the caller keeps what
/// the last pass produced, and gets the store that pass searched.
/// `lower` is the flow below which no result can exist. Each pass is
/// reported to `trace` with the pairs its floor admits.
pub(crate) fn cutoff_passes<'g, C: FloorCover>(
    g: &'g mut C,
    k: usize,
    lower: Flow,
    trace: Option<&'static dyn TraceSink>,
    mut search: impl FnMut(&C::Store, Flow) -> PassOutcome,
) -> &'g C::Store {
    let mut totals = g.pair_totals();
    let mut passes = 0;
    // Unbounded, a pair passes the floor iff its total reaches it.
    let mut pass = |g: &mut C, floor: Flow, totals: &[Flow]| {
        let outcome = search(g.cover(floor), floor);
        if let Some(trace) = trace {
            let admitted = totals.iter().filter(|&&t| t >= floor).count();
            trace.pass(passes, floor, admitted as u64, outcome.found as u64);
        }
        passes += 1;
        outcome
    };
    let mut rank = k.max(1).saturating_mul(CUTOFF_PAIRS_PER_RESULT);
    let mut last = Flow::INFINITY;
    let floor = loop {
        let cutoff = if rank < totals.len() {
            let (_, nth, _) = totals.select_nth_unstable_by(rank - 1, |a, b| b.total_cmp(a));
            nth.max(lower)
        } else {
            Flow::NEG_INFINITY
        };
        rank = rank.saturating_mul(GROWTH);
        if cutoff >= last {
            continue; // tied totals: this pass would admit nothing new
        }
        last = cutoff;
        let outcome = pass(g, cutoff, &totals);
        if cutoff <= lower {
            break cutoff; // nothing a result could use was skipped
        }
        if outcome.found >= k {
            if outcome.kth_flow < cutoff {
                pass(g, outcome.kth_flow, &totals);
                break outcome.kth_flow;
            }
            break cutoff;
        }
    };
    // The last pass's store, as it covers that pass's floor already.
    g.cover(floor)
}
