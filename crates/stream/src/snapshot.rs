//! Concurrent reads during live ingestion: an epoch/snapshot layer over
//! the resident [`QueryEngine`].
//!
//! The single-threaded engine answers queries by *borrowing* its mutable
//! graph, so a long search blocks every append (and vice versa). This
//! module decouples the two:
//!
//! * a **writer side** — the [`QueryEngine`] behind a mutex — absorbs
//!   appends and evictions exactly as before;
//! * a **reader side** — an `Arc`-swapped [`Snapshot`] holding a
//!   compacted, immutable [`TimeSeriesGraph`] — serves any number of
//!   concurrent searches without taking the writer lock at all.
//!
//! [`SnapshotEngine::publish`] bridges them: it folds the writer's
//! buffered tails in (`compact`), clones the consolidated CSR into a
//! fresh [`Snapshot`] stamped with a monotonically increasing *epoch*,
//! and swaps it into the published slot. Readers that already hold a
//! snapshot keep it alive through its `Arc` — publishing never
//! invalidates an in-progress query, it only makes newer data visible to
//! the *next* [`SnapshotEngine::snapshot`] call.
//!
//! # Publish cost model (copy-on-write)
//!
//! Per-pair series storage is `Arc`-shared
//! ([`flowmotif_graph::InteractionSeries`] is copy-on-write), so the
//! "clone" a publish performs is **O(pairs + nodes)** pointer/offset
//! copies — *no* interaction data moves at publish time. The deep copies
//! happen lazily instead: the first writer-side mutation of a pair whose
//! series is still shared with a published snapshot detaches just that
//! series. Summed over a publish interval the copying is therefore
//! **O(dirty)** — proportional to the pairs actually touched since the
//! previous publish (reported per publish by
//! [`SnapshotEngine::publish_report`]) — never O(resident interactions).
//!
//! The writer lock is held only for the compaction fold and the cheap
//! structural clone; the new [`Snapshot`] is assembled and swapped into
//! the published slot *after* the lock is released, so concurrent
//! appends are never stalled behind snapshot assembly. Readers pay one
//! `RwLock` read + `Arc` clone per snapshot acquisition and then run
//! lock-free. Publishing on a quiescent stream is a no-op. Batching
//! appends between publishes — see [`SnapshotEngine::publish_every`] —
//! amortizes the per-publish O(pairs) floor the same way the incremental
//! graph amortizes tail merges.

use crate::engine::EngineStats;
use crate::standing::{StandingEvent, StandingQueries};
use crate::window::SlidingWindow;
use crate::QueryEngine;
use flowmotif_core::{
    CountSink, Motif, Query, SearchOptions, SearchScratch, SearchStats, TraceSink,
};
use flowmotif_graph::{
    Flow, GraphError, GraphStore, NodeId, TimeSeriesGraph, TimeWindow, Timestamp,
};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// An immutable point-in-time view of the stream, cheap to share across
/// threads and safe to query while ingestion continues.
///
/// Snapshots are produced by [`SnapshotEngine::publish`] (over the
/// compacted heap graph) and [`crate::EpochEngine::publish`] (over a
/// sealed segment plus its delta, as [`crate::EpochSnapshot`]); each
/// carries the *epoch* at which it was published, so results can be
/// attributed to an exact stream prefix. Search one by running a
/// [`Query`] with [`Snapshot::options`] on [`Snapshot::graph`]: both
/// take `&self`, so any number of threads may search one snapshot
/// concurrently.
#[derive(Debug)]
pub struct Snapshot<G = TimeSeriesGraph> {
    pub(crate) graph: Arc<G>,
    pub(crate) epoch: u64,
    pub(crate) stats: EngineStats,
    pub(crate) opts: SearchOptions,
}

// Not derived: a derive would demand `G: Clone`, and only the `Arc` is
// cloned.
impl<G> Clone for Snapshot<G> {
    fn clone(&self) -> Self {
        Self { graph: Arc::clone(&self.graph), ..*self }
    }
}

impl<G: GraphStore> Snapshot<G> {
    /// The publish sequence number of this snapshot (0 = the snapshot
    /// every engine starts with).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Engine statistics frozen at publish time.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The immutable graph; every [`Query`] answer runs on it directly.
    pub fn graph(&self) -> &G {
        &self.graph
    }

    /// The engine's search options, which every query of this snapshot
    /// runs with.
    pub fn options(&self) -> SearchOptions {
        self.opts
    }

    /// Counts maximal instances. Kept, like [`Snapshot::count_with`] and
    /// [`Snapshot::count_traced`], until the end-to-end benchmark stops
    /// importing it (ROADMAP item 2).
    pub fn count(&self, motif: &Motif, bounds: Option<TimeWindow>) -> (u64, SearchStats) {
        self.count_traced(motif, bounds, &mut SearchScratch::default(), None)
    }

    /// [`Snapshot::count`] out of a caller-provided search arena.
    pub fn count_with(
        &self,
        motif: &Motif,
        bounds: Option<TimeWindow>,
        scratch: &mut SearchScratch,
    ) -> (u64, SearchStats) {
        self.count_traced(motif, bounds, scratch, None)
    }

    /// [`Snapshot::count_with`] with a per-query [`TraceSink`].
    pub fn count_traced(
        &self,
        motif: &Motif,
        bounds: Option<TimeWindow>,
        scratch: &mut SearchScratch,
        trace: Option<&'static dyn TraceSink>,
    ) -> (u64, SearchStats) {
        let opts = SearchOptions { trace, ..self.opts };
        let mut sink = CountSink::default();
        let stats =
            Query { bounds, opts, ..Query::new(motif) }.run(self.graph(), &mut sink, scratch);
        (sink.count, stats)
    }
}

/// Telemetry of the most recent non-no-op publish: what it cost and how
/// much of the graph was actually dirty. Exposed over the wire by the
/// `stats` request of `flowmotif-serve`, so operators can watch publish
/// cost track the dirty set instead of the resident size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishReport {
    /// Epoch the report describes (0 = no publish has happened yet).
    pub epoch: u64,
    /// Distinct node pairs appended to or evicted from since the
    /// previous publish.
    pub dirty_pairs: usize,
    /// Wall-clock duration of the publish (compaction fold + structural
    /// clone + snapshot assembly + swap).
    pub duration: Duration,
}

/// State owned by the writer lock: the resident engine plus the epoch
/// counter and the watermark of the last publish.
#[derive(Debug)]
struct WriterState {
    engine: QueryEngine,
    epoch: u64,
    /// `(appended, evicted)` lifetime totals at the last publish; a
    /// publish with unchanged totals is a no-op.
    published_totals: (u64, u64),
}

/// A [`QueryEngine`] that supports concurrent readers via epoch-stamped
/// snapshots.
///
/// All methods take `&self`; share the engine as an `Arc<SnapshotEngine>`
/// between one (or more, serialised by the writer mutex) ingesting
/// thread and any number of query threads.
///
/// ```
/// use flowmotif_core::{catalog, Query};
/// use flowmotif_stream::SnapshotEngine;
/// use std::sync::Arc;
///
/// let engine = Arc::new(SnapshotEngine::new());
/// engine.ingest([(0u32, 1u32, 10i64, 5.0), (1, 2, 12, 4.0)]).unwrap();
/// engine.publish();
///
/// // A snapshot is immutable: appends racing with the search below
/// // cannot affect its result.
/// let snap = engine.snapshot();
/// let motif = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
/// let reader = std::thread::spawn(move || Query::new(&motif).count(snap.graph()).0);
/// engine.ingest([(2u32, 3u32, 14i64, 3.0)]).unwrap();
/// assert_eq!(reader.join().unwrap(), 1);
///
/// // The new edge becomes visible at the next publish.
/// let epoch = engine.publish();
/// assert_eq!(engine.snapshot().epoch(), epoch);
/// assert_eq!(engine.snapshot().stats().appended, 3);
/// ```
#[derive(Debug)]
pub struct SnapshotEngine {
    writer: Mutex<WriterState>,
    published: RwLock<Arc<Snapshot>>,
    /// Auto-publish after this many appends since the last publish
    /// (0 = only on explicit [`SnapshotEngine::publish`] calls).
    publish_every: usize,
    /// Search tuning copied into every published snapshot.
    opts: SearchOptions,
    /// Telemetry of the last completed publish.
    last_publish: Mutex<PublishReport>,
    /// Readiness hook fired after every epoch install (see
    /// [`SnapshotEngine::set_publish_hook`]).
    publish_hook: PublishHookSlot,
}

/// The callback shape a [`PublishHookSlot`] stores.
type PublishHook = Arc<dyn Fn(u64) + Send + Sync>;

/// A registered publish-notification callback (see
/// [`SnapshotEngine::set_publish_hook`]). Wrapped so engines stay
/// `Debug` despite holding a closure.
#[derive(Default)]
pub(crate) struct PublishHookSlot(Mutex<Option<PublishHook>>);

impl std::fmt::Debug for PublishHookSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let set = self.0.lock().map(|g| g.is_some()).unwrap_or(false);
        f.debug_tuple("PublishHookSlot").field(&set).finish()
    }
}

impl PublishHookSlot {
    pub(crate) fn set(&self, hook: impl Fn(u64) + Send + Sync + 'static) {
        *self.0.lock().unwrap() = Some(Arc::new(hook));
    }

    /// Invokes the hook with the epoch that was just installed. The hook
    /// may run while an engine writer lock is held, so it must be cheap
    /// and must not call back into the engine.
    pub(crate) fn fire(&self, epoch: u64) {
        let hook = self.0.lock().unwrap().clone();
        if let Some(hook) = hook {
            hook(epoch);
        }
    }
}

impl Default for SnapshotEngine {
    fn default() -> Self {
        Self::with_engine(QueryEngine::new())
    }
}

impl SnapshotEngine {
    /// An engine that retains the whole stream and publishes only on
    /// explicit [`SnapshotEngine::publish`] calls.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing (possibly pre-loaded) [`QueryEngine`]. Epoch 0
    /// is published immediately from its current contents.
    pub fn with_engine(mut engine: QueryEngine) -> Self {
        engine.compact();
        engine.clear_dirty();
        let stats = engine.stats();
        let opts = engine.options();
        let snapshot =
            Arc::new(Snapshot { graph: Arc::new(engine.graph().clone()), epoch: 0, stats, opts });
        Self {
            writer: Mutex::new(WriterState {
                engine,
                epoch: 0,
                published_totals: (stats.appended, stats.evicted),
            }),
            published: RwLock::new(snapshot),
            publish_every: 0,
            opts,
            last_publish: Mutex::new(PublishReport::default()),
            publish_hook: PublishHookSlot::default(),
        }
    }

    /// Registers a callback fired after every epoch install (explicit
    /// [`SnapshotEngine::publish`] and `publish_every` auto-publishes
    /// alike) with the freshly installed epoch. The serve tier uses it
    /// as a readiness notification: event loops keep a lock-free copy of
    /// the current epoch for cache keying instead of polling the engine.
    /// The hook runs outside every engine lock; at most one is
    /// registered (later calls replace it).
    pub fn set_publish_hook(&self, hook: impl Fn(u64) + Send + Sync + 'static) {
        self.publish_hook.set(hook);
    }

    /// Overrides the [`SearchOptions`] used by every snapshot query
    /// (notably `use_active_index: false` for A/B runs). Applies to the
    /// already-published epoch-0 snapshot and to every later publish.
    pub fn search_options(mut self, opts: SearchOptions) -> Self {
        self.opts = opts;
        {
            let mut slot = self.published.write().unwrap();
            let mut snap = (**slot).clone();
            snap.opts = opts;
            *slot = Arc::new(snap);
        }
        self
    }

    /// Installs a sliding-window retention policy on the writer side
    /// (see [`QueryEngine::with_window`]).
    pub fn with_window(self, window: SlidingWindow) -> Self {
        {
            let mut w = self.writer.lock().unwrap();
            let engine = std::mem::take(&mut w.engine).with_window(window);
            w.engine = engine;
        }
        self
    }

    /// Permits self-loop interactions (off by default).
    pub fn allow_self_loops(self, allow: bool) -> Self {
        {
            let mut w = self.writer.lock().unwrap();
            let engine = std::mem::take(&mut w.engine).allow_self_loops(allow);
            w.engine = engine;
        }
        self
    }

    /// Auto-publishes a fresh snapshot once `n` appends have accumulated
    /// since the last publish (0 disables auto-publish). The check runs
    /// at the end of each [`SnapshotEngine::append`] / ingest batch, so a
    /// large `ingest` publishes once, not once per `n` edges.
    pub fn publish_every(mut self, n: usize) -> Self {
        self.publish_every = n;
        self
    }

    /// Appends one interaction and returns the stream watermark after it
    /// (computed under the same writer lock, so it is exactly this
    /// append's view even with other writers racing). Auto-publishes
    /// when due.
    pub fn append(
        &self,
        from: NodeId,
        to: NodeId,
        time: Timestamp,
        flow: Flow,
    ) -> Result<Timestamp, GraphError> {
        let (watermark, prepared) = {
            let mut w = self.writer.lock().unwrap();
            w.engine.try_append(from, to, time, flow)?;
            let watermark = w.engine.stats().watermark.unwrap_or(time);
            (watermark, self.maybe_prepare(&mut w))
        };
        if let Some(p) = prepared {
            self.install(p);
        }
        Ok(watermark)
    }

    /// Appends a batch; returns how many were appended. Fails on the
    /// first invalid interaction (earlier ones stay applied).
    /// Auto-publishes at most once, after the whole batch.
    pub fn ingest<I>(&self, batch: I) -> Result<usize, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId, Timestamp, Flow)>,
    {
        let (r, prepared) = {
            let mut w = self.writer.lock().unwrap();
            let mut n = 0;
            let r: Result<(), GraphError> = (|| {
                for (u, v, t, f) in batch {
                    w.engine.try_append(u, v, t, f)?;
                    n += 1;
                }
                Ok(())
            })();
            (r.map(|()| n), self.maybe_prepare(&mut w))
        };
        if let Some(p) = prepared {
            self.install(p);
        }
        r
    }

    /// Drops interactions older than `floor` on the writer side; the
    /// published snapshot keeps serving the old view until the next
    /// publish. Returns how many were dropped.
    pub fn evict_before(&self, floor: Timestamp) -> usize {
        self.writer.lock().unwrap().engine.evict_before(floor)
    }

    /// Registers a standing query in `subs`, seeded from the *writer*
    /// state (not the published snapshot), so subsequent
    /// [`SnapshotEngine::append_standing`] deltas line up exactly with
    /// the stream — no append can fall between the seed and the first
    /// delta. Returns the subscription id.
    pub fn subscribe_standing(
        &self,
        subs: &mut StandingQueries,
        motif: Motif,
        bounds: Option<TimeWindow>,
    ) -> u64 {
        let mut w = self.writer.lock().unwrap();
        let g = w.engine.graph();
        subs.subscribe(g, motif, bounds)
    }

    /// [`SnapshotEngine::append`] that additionally delta-evaluates the
    /// standing queries in `subs` under the same writer lock: every
    /// instance entering a standing result set — through the new edge
    /// itself or through the sliding-window eviction it triggered — is
    /// pushed onto `out`. With `subs` empty this costs one extra branch
    /// over a plain append.
    pub fn append_standing(
        &self,
        from: NodeId,
        to: NodeId,
        time: Timestamp,
        flow: Flow,
        subs: &mut StandingQueries,
        out: &mut Vec<StandingEvent>,
    ) -> Result<Timestamp, GraphError> {
        let (watermark, prepared) = {
            let mut w = self.writer.lock().unwrap();
            if subs.is_empty() {
                w.engine.try_append(from, to, time, flow)?;
            } else {
                let mut drained = Vec::new();
                w.engine.try_append_collect(from, to, time, flow, &mut drained)?;
                let g = w.engine.graph();
                subs.on_append(g, from, to, time, out);
                subs.on_evicted(g, &drained, out);
            }
            let watermark = w.engine.stats().watermark.unwrap_or(time);
            (watermark, self.maybe_prepare(&mut w))
        };
        if let Some(p) = prepared {
            self.install(p);
        }
        Ok(watermark)
    }

    /// [`SnapshotEngine::evict_before`] that additionally delta-evaluates
    /// the standing queries in `subs` against the post-eviction writer
    /// graph (instances can *become* maximal when their superset loses
    /// events). Returns how many interactions were dropped.
    pub fn evict_standing(
        &self,
        floor: Timestamp,
        subs: &mut StandingQueries,
        out: &mut Vec<StandingEvent>,
    ) -> usize {
        let mut w = self.writer.lock().unwrap();
        if subs.is_empty() {
            return w.engine.evict_before(floor);
        }
        let mut drained = Vec::new();
        let dropped = w.engine.evict_before_collect(floor, &mut drained);
        if !drained.is_empty() {
            let g = w.engine.graph();
            subs.on_evicted(g, &drained, out);
        }
        dropped
    }

    /// Consolidates the writer-side graph (see [`QueryEngine::compact`]).
    pub fn compact(&self) {
        self.writer.lock().unwrap().engine.compact();
    }

    /// Publishes the current writer state as a new immutable snapshot and
    /// returns its epoch. When nothing was appended or evicted since the
    /// last publish this is a no-op returning the current epoch — so
    /// polling publishers are cheap on a quiescent stream.
    ///
    /// Only the compaction fold and the O(pairs) structural clone run
    /// under the writer lock; snapshot assembly and the published-slot
    /// swap happen after it is released, so ingestion never waits on
    /// them.
    ///
    /// Read-your-publish guarantee: when this returns epoch `e`, the
    /// published slot already holds epoch `>= e` — even when `e` was
    /// claimed by a racing publish whose install had not yet landed.
    pub fn publish(&self) -> u64 {
        let epoch = {
            let mut w = self.writer.lock().unwrap();
            match self.prepare_publish(&mut w) {
                Ok(p) => {
                    drop(w);
                    return self.install(p);
                }
                Err(current_epoch) => current_epoch,
            }
        };
        // Nothing to publish, but `epoch` may have been claimed by a
        // concurrent publish that is between its prepare and install
        // (the window spans a handful of instructions and no user
        // code); a caller issuing a query right after we return must
        // see it. Wait it out.
        while self.published_epoch() < epoch {
            std::thread::yield_now();
        }
        epoch
    }

    /// Cost telemetry of the most recent publish (see [`PublishReport`]).
    pub fn publish_report(&self) -> PublishReport {
        *self.last_publish.lock().unwrap()
    }

    /// Live writer-side statistics (includes not-yet-published appends).
    pub fn stats(&self) -> EngineStats {
        self.writer.lock().unwrap().engine.stats()
    }

    /// The currently published snapshot. Cheap: one `RwLock` read and an
    /// `Arc` clone; the returned snapshot stays valid (and unchanged)
    /// however far the stream advances.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.published.read().unwrap())
    }

    /// Epoch of the currently published snapshot.
    pub fn published_epoch(&self) -> u64 {
        self.published.read().unwrap().epoch
    }

    fn maybe_prepare(&self, w: &mut WriterState) -> Option<PreparedPublish> {
        if self.publish_every == 0 {
            return None;
        }
        let (appended, _) = w.engine.stats().totals();
        if (appended - w.published_totals.0) as usize >= self.publish_every {
            self.prepare_publish(w).ok()
        } else {
            None
        }
    }

    /// The under-the-writer-lock half of a publish: folds buffers in,
    /// claims the next epoch and takes the O(pairs) copy-on-write
    /// structural clone. `Err` carries the current epoch when nothing
    /// changed since the last publish (no-op). The expensive-looking part
    /// — none of the interaction data — was already paid incrementally by
    /// the writer's own copy-on-write mutations.
    fn prepare_publish(&self, w: &mut WriterState) -> Result<PreparedPublish, u64> {
        let totals = w.engine.stats().totals();
        if totals == w.published_totals {
            return Err(w.epoch);
        }
        let started = Instant::now();
        // Fold tails and drop evicted-empty pairs so the snapshot is a
        // dense CSR. The clone below shares every series' storage with
        // the writer (detached lazily, pair by pair, as the writer
        // mutates on).
        w.engine.compact();
        w.epoch += 1;
        w.published_totals = totals;
        let dirty_pairs = w.engine.dirty_pairs();
        w.engine.clear_dirty();
        Ok(PreparedPublish {
            graph: w.engine.graph().clone(),
            epoch: w.epoch,
            stats: w.engine.stats(),
            dirty_pairs,
            started,
        })
    }

    /// The outside-the-writer-lock half: wraps the prepared state into an
    /// `Arc<Snapshot>` and swaps it into the published slot. Concurrent
    /// publishes may install out of order; the epoch guard keeps the slot
    /// monotone.
    fn install(&self, p: PreparedPublish) -> u64 {
        let snapshot = Arc::new(Snapshot {
            graph: Arc::new(p.graph),
            epoch: p.epoch,
            stats: p.stats,
            opts: self.opts,
        });
        {
            let mut slot = self.published.write().unwrap();
            if snapshot.epoch > slot.epoch {
                *slot = snapshot;
            }
        }
        let report = PublishReport {
            epoch: p.epoch,
            dirty_pairs: p.dirty_pairs,
            duration: p.started.elapsed(),
        };
        crate::metrics::record_publish(report.epoch, report.dirty_pairs, report.duration);
        {
            let mut last = self.last_publish.lock().unwrap();
            if report.epoch >= last.epoch {
                *last = report;
            }
        }
        self.publish_hook.fire(p.epoch);
        p.epoch
    }
}

/// Everything a publish captured under the writer lock, waiting to be
/// wrapped and swapped in outside it.
#[derive(Debug)]
struct PreparedPublish {
    graph: TimeSeriesGraph,
    epoch: u64,
    stats: EngineStats,
    dirty_pairs: usize,
    started: Instant,
}

impl EngineStats {
    /// Lifetime `(appended, evicted)` totals — the pair that decides
    /// whether a publish would produce a new epoch.
    pub fn totals(&self) -> (u64, u64) {
        (self.appended, self.evicted)
    }
}

// The whole point of this module: prove at compile time that snapshots
// and the engine may cross threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Snapshot>();
    assert_send_sync::<SnapshotEngine>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use flowmotif_core::catalog;
    use flowmotif_graph::GraphBuilder;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn count(snap: &Snapshot, motif: &Motif, bounds: Option<TimeWindow>) -> (u64, SearchStats) {
        Query { bounds, opts: snap.options(), ..Query::new(motif) }.count(snap.graph())
    }

    const FIG2: [(NodeId, NodeId, Timestamp, Flow); 10] = [
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

    #[test]
    fn snapshots_are_immutable_and_epoch_stamped() {
        let engine = SnapshotEngine::new();
        let motif = catalog::by_name("M(3,3)", 10, 7.0).unwrap();

        let empty = engine.snapshot();
        assert_eq!(empty.epoch(), 0);
        assert_eq!(count(&empty, &motif, None).0, 0);

        engine.ingest(FIG2).unwrap();
        // Not yet published: readers still see the empty graph.
        assert_eq!(engine.snapshot().epoch(), 0);
        assert_eq!(count(&engine.snapshot(), &motif, None).0, 0);
        assert_eq!(engine.stats().appended, 10, "writer side is live");

        let e = engine.publish();
        assert_eq!(e, 1);
        let snap = engine.snapshot();
        assert_eq!(count(&snap, &motif, None).0, 1);
        // The old snapshot is untouched by the publish.
        assert_eq!(count(&empty, &motif, None).0, 0);
        // Publishing with no new data is a no-op.
        assert_eq!(engine.publish(), 1);
        assert_eq!(engine.published_epoch(), 1);
    }

    #[test]
    fn snapshot_query_matches_batch_rebuild() {
        let engine = SnapshotEngine::new();
        engine.ingest(FIG2).unwrap();
        engine.publish();
        let snap = engine.snapshot();

        let mut b = GraphBuilder::new();
        b.extend_interactions(FIG2);
        let batch = b.build_time_series_graph();

        let motif = catalog::by_name("M(3,3)", 10, 7.0).unwrap();
        for bounds in [None, Some(TimeWindow::new(10, 18)), Some(TimeWindow::new(11, 23))] {
            let (got, _) = Query { bounds, ..Query::new(&motif) }.collect(snap.graph());
            let (expect, _) = Query { bounds, ..Query::new(&motif) }.collect(&batch);
            assert_eq!(got.len(), expect.len(), "{bounds:?}");
            for ((gsm, gi), (esm, ei)) in got.iter().zip(&expect) {
                assert_eq!(gsm.walk_nodes(snap.graph()), esm.walk_nodes(&batch));
                let gd: Vec<_> = gi.iter().map(|i| i.display(snap.graph())).collect();
                let ed: Vec<_> = ei.iter().map(|i| i.display(&batch)).collect();
                assert_eq!(gd, ed);
            }
        }
    }

    #[test]
    fn auto_publish_after_n_appends() {
        let engine = SnapshotEngine::new().publish_every(4);
        for (i, &(u, v, t, f)) in FIG2.iter().enumerate() {
            engine.append(u, v, t, f).unwrap();
            assert_eq!(engine.published_epoch(), ((i + 1) / 4) as u64, "after {} appends", i + 1);
        }
        // A batch ingest publishes once at the end, not every 4 edges.
        let engine = SnapshotEngine::new().publish_every(4);
        engine.ingest(FIG2).unwrap();
        assert_eq!(engine.published_epoch(), 1);
        assert_eq!(engine.snapshot().stats().appended, 10);
    }

    #[test]
    fn eviction_surfaces_at_next_publish() {
        let engine = SnapshotEngine::new().with_window(SlidingWindow::with_slack(10, 1));
        engine.ingest(FIG2).unwrap();
        engine.publish();
        let snap = engine.snapshot();
        // The sliding window evicted everything before t=13.
        assert_eq!(snap.stats().floor, Some(13));
        assert!(snap.graph().time_span().unwrap().0 >= 13);
        // Manual eviction is writer-side only until published.
        let before = engine.snapshot().graph().num_interactions();
        engine.evict_before(20);
        assert_eq!(engine.snapshot().graph().num_interactions(), before);
        engine.publish();
        assert!(engine.snapshot().graph().num_interactions() < before);
    }

    #[test]
    fn with_engine_publishes_preloaded_contents_as_epoch_zero() {
        let mut inner = QueryEngine::new();
        inner.ingest(FIG2).unwrap();
        let engine = SnapshotEngine::with_engine(inner);
        let motif = catalog::by_name("M(3,3)", 10, 7.0).unwrap();
        let snap = engine.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(count(&snap, &motif, None).0, 1);
        // No changes since construction: publish is a no-op.
        assert_eq!(engine.publish(), 0);
    }

    #[test]
    fn publish_shares_untouched_series_with_the_previous_snapshot() {
        // Structural proof of the O(dirty) publish: pairs not touched
        // between two publishes share their series storage across the two
        // snapshots (no data was copied for them); only the dirty pair's
        // series was detached.
        let engine = SnapshotEngine::new();
        engine.ingest([(0u32, 1u32, 10i64, 1.0), (1, 2, 11, 1.0), (2, 3, 12, 1.0)]).unwrap();
        engine.publish();
        let snap1 = engine.snapshot();

        engine.append(1, 2, 20, 2.0).unwrap(); // dirty: only (1, 2)
        engine.publish();
        let snap2 = engine.snapshot();
        assert_eq!(engine.publish_report().dirty_pairs, 1);

        for (u, v) in [(0u32, 1u32), (2, 3)] {
            let p1 = snap1.graph().pair_id(u, v).unwrap();
            let p2 = snap2.graph().pair_id(u, v).unwrap();
            assert!(
                snap1.graph().series(p1).shares_storage_with(snap2.graph().series(p2)),
                "untouched pair ({u}, {v}) must be structurally shared"
            );
        }
        let p1 = snap1.graph().pair_id(1, 2).unwrap();
        let p2 = snap2.graph().pair_id(1, 2).unwrap();
        assert!(
            !snap1.graph().series(p1).shares_storage_with(snap2.graph().series(p2)),
            "the dirty pair must have been detached"
        );
        // And the old snapshot still shows the old data.
        assert_eq!(snap1.graph().series(p1).len(), 1);
        assert_eq!(snap2.graph().series(p2).len(), 2);
    }

    #[test]
    fn publish_report_tracks_dirty_pairs_and_epoch() {
        let engine = SnapshotEngine::new();
        assert_eq!(engine.publish_report(), PublishReport::default());
        engine.ingest(FIG2).unwrap();
        engine.publish();
        let r = engine.publish_report();
        assert_eq!(r.epoch, 1);
        assert_eq!(r.dirty_pairs, 7, "FIG2 touches 7 distinct pairs");
        // Quiescent publish is a no-op: the report is unchanged.
        engine.publish();
        assert_eq!(engine.publish_report(), r);
        // Eviction dirties the pairs it drains.
        engine.evict_before(12);
        engine.publish();
        let r = engine.publish_report();
        assert_eq!(r.epoch, 2);
        assert_eq!(r.dirty_pairs, 3, "(3,2) x2, (2,0), (3,0) lose events; 3 pairs");
    }

    #[test]
    fn cow_publish_beats_a_deep_copy_of_the_resident_graph() {
        // The whole point of the rework: publishing with a small dirty
        // set must cost less than deep-copying the resident interactions
        // (the old per-publish price). Compared on the same machine in
        // the same process, with a wide margin expected (O(pairs) vs
        // O(interactions)), so the assertion is robust.
        const PAIRS: u32 = 2_000;
        const EVENTS_PER_PAIR: i64 = 50;
        let engine = SnapshotEngine::new();
        engine
            .ingest((0..PAIRS as i64 * EVENTS_PER_PAIR).map(|i| {
                let p = (i % PAIRS as i64) as u32;
                (p, PAIRS + 1, i, 1.0)
            }))
            .unwrap();
        engine.publish();

        let rounds = 20;
        let mut t = 1_000_000i64;
        let publish_start = Instant::now();
        for _ in 0..rounds {
            for p in 0..10u32 {
                engine.append(p, PAIRS + 1, t, 1.0).unwrap();
                t += 1;
            }
            engine.publish();
            assert_eq!(engine.publish_report().dirty_pairs, 10);
        }
        let publish_total = publish_start.elapsed();

        let snap = engine.snapshot();
        let deep_start = Instant::now();
        for _ in 0..rounds {
            let copied: Vec<_> = snap
                .graph()
                .all_series()
                .iter()
                .map(|s| {
                    flowmotif_graph::InteractionSeries::from_sorted_events(s.events().to_vec())
                })
                .collect();
            assert_eq!(copied.len(), PAIRS as usize);
            std::hint::black_box(copied);
        }
        let deep_total = deep_start.elapsed();

        assert!(
            publish_total < deep_total,
            "COW publish ({publish_total:?}) must beat a deep copy ({deep_total:?})"
        );
    }

    #[test]
    fn writers_stay_available_during_large_publishes() {
        // Appends race a publisher hammering a ~100k-interaction resident
        // graph. With assembly outside the critical section and the
        // structural clone O(pairs), no single append may stall for
        // anything near a full deep-copy publish. The bound is generous
        // (CI machines vary); it exists to catch an O(resident)
        // under-lock regression, which would cost orders of magnitude
        // more than an append.
        let engine = Arc::new(SnapshotEngine::new());
        engine.ingest((0..100_000i64).map(|i| ((i % 500) as u32, 501u32, i, 1.0))).unwrap();
        engine.publish();

        let stop = Arc::new(AtomicBool::new(false));
        let publisher = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut published = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    engine.publish();
                    published += 1;
                    // Let the appender at the (unfair) writer mutex
                    // between publishes: the test measures publish cost,
                    // not lock barging.
                    std::thread::yield_now();
                }
                published
            })
        };
        let mut worst = Duration::ZERO;
        for i in 0..2_000i64 {
            let t0 = Instant::now();
            engine.append((i % 500) as u32, 501, 200_000 + i, 1.0).unwrap();
            worst = worst.max(t0.elapsed());
        }
        stop.store(true, Ordering::Relaxed);
        let published = publisher.join().unwrap();
        assert!(published > 0, "the publisher must have raced the writer");
        assert!(
            worst < Duration::from_millis(500),
            "an append stalled {worst:?} behind publishing"
        );
    }

    #[test]
    fn publish_return_is_always_visible_to_the_caller() {
        // Read-your-publish under contention: whenever publish() returns
        // epoch e — including the no-op path racing another publisher's
        // prepare/install window — the published slot must already hold
        // an epoch >= e, so an immediate follow-up query cannot miss
        // data the caller was just told is published.
        let engine = Arc::new(SnapshotEngine::new().publish_every(1));
        let threads: Vec<_> = (0..4)
            .map(|k| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    for i in 0..500i64 {
                        // Auto-publishing appends keep prepare/install
                        // windows open while peers call publish().
                        engine.append(k, 100 + k, i, 1.0).unwrap();
                        let e = engine.publish();
                        assert!(
                            engine.published_epoch() >= e,
                            "publish returned {e} but the slot lags"
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn search_options_propagate_to_snapshots() {
        let opts = SearchOptions { use_active_index: false, ..SearchOptions::default() };
        let engine = SnapshotEngine::new().search_options(opts);
        engine.ingest(FIG2).unwrap();
        engine.publish();
        let motif = catalog::by_name("M(3,3)", 10, 7.0).unwrap();
        // Identical answers with the index off (epoch 0 and the fresh one).
        assert_eq!(count(&engine.snapshot(), &motif, Some(TimeWindow::new(0, 30))).0, 1);
        let indexed = SnapshotEngine::new();
        indexed.ingest(FIG2).unwrap();
        indexed.publish();
        assert_eq!(
            count(&engine.snapshot(), &motif, Some(TimeWindow::new(0, 30))),
            count(&indexed.snapshot(), &motif, Some(TimeWindow::new(0, 30))),
        );
    }

    #[test]
    fn concurrent_readers_never_see_torn_state() {
        // Readers hammer snapshots while a writer appends and publishes;
        // every observed snapshot must be internally consistent (its
        // stats match its graph).
        let engine = std::sync::Arc::new(SnapshotEngine::new());
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let engine = std::sync::Arc::clone(&engine);
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut seen = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = engine.snapshot();
                        assert_eq!(
                            snap.graph().num_interactions() as u64,
                            snap.stats().appended - snap.stats().evicted,
                            "epoch {}",
                            snap.epoch()
                        );
                        seen = seen.max(snap.epoch());
                    }
                    seen
                })
            })
            .collect();
        for i in 0..200i64 {
            engine.append(0, 1 + (i % 7) as u32, i, 1.0).unwrap();
            if i % 10 == 0 {
                engine.publish();
            }
        }
        engine.publish();
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(engine.published_epoch(), 21);
    }
}
