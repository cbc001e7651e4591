//! Epoch publishing over a sealed segment: the out-of-core counterpart
//! of [`crate::SnapshotEngine`].
//!
//! [`SnapshotEngine`](crate::SnapshotEngine) keeps the whole resident
//! graph in RAM and pays an O(pairs) structural clone per publish. The
//! [`EpochEngine`] instead anchors every epoch on a **sealed immutable
//! segment file** (see [`flowmotif_graph::segment`]) and keeps only the
//! stream's tail in RAM:
//!
//! * the **base** is a memory-mapped [`SegmentStore`] — shareable
//!   read-only across processes, never copied, never walked at publish
//!   time;
//! * the **delta** is a per-pair accumulator of everything appended
//!   since the base was sealed (plus, for touched base pairs, a copy of
//!   their base events, maintaining the [`OverlayStore`]
//!   full-merged-series invariant);
//! * a **publish** builds a small [`TimeSeriesGraph`] from the delta
//!   and composes it with the shared base into an epoch-stamped
//!   [`EpochSnapshot`] — **O(delta)** work, independent of how many
//!   pairs the base holds;
//! * a **reseal** streams base ∪ delta through a
//!   [`SegmentWriter`] into a fresh
//!   segment (atomically replacing `graph.seg` — live maps of the old
//!   file stay valid) and resets the delta, bounding delta growth
//!   without ever holding the merged graph in memory.
//!
//! Eviction is not supported on this engine: sealed segments are
//! immutable by design. Bound retention by resealing from a filtered
//! source instead.

use crate::engine::EngineStats;
use crate::snapshot::{PublishReport, Snapshot};
use crate::standing::{StandingEvent, StandingQueries};
use flowmotif_core::{Motif, SearchOptions};
use flowmotif_graph::{
    Event, Flow, GraphError, GraphStore, NodeId, OverlayStore, SegmentStore, SegmentWriter,
    TimeSeriesGraph, TimeWindow, Timestamp,
};
use flowmotif_util::FxHashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// An immutable epoch view: the shared sealed segment plus the delta
/// frozen at publish time, queryable exactly like a heap [`Snapshot`].
pub type EpochSnapshot = Snapshot<OverlayStore>;

/// One pair's delta accumulator.
#[derive(Debug)]
struct PendingSeries {
    /// Full merged events: a copy of the pair's base events (when the
    /// pair exists in the base) followed by the appended tail.
    events: Vec<Event>,
    /// How many of `events` came from the base (0 for new pairs).
    from_base: usize,
}

/// State under the writer lock.
#[derive(Debug)]
struct EpochWriter {
    base: Arc<SegmentStore>,
    pending: FxHashMap<(NodeId, NodeId), PendingSeries>,
    /// Appended (delta-only) events currently pending.
    delta_events: usize,
    /// Pairs touched since the last non-no-op publish.
    dirty: flowmotif_util::FxHashSet<(NodeId, NodeId)>,
    num_nodes: usize,
    watermark: Option<Timestamp>,
    /// Lifetime appends through this engine.
    appended: u64,
    /// `appended` at the last publish; equal means publish is a no-op.
    published_appended: u64,
    epoch: u64,
}

impl EpochWriter {
    /// Validates and buffers one interaction into the delta accumulator.
    fn push_edge(&mut self, u: NodeId, v: NodeId, t: Timestamp, f: Flow) -> Result<(), GraphError> {
        if !(f.is_finite() && f > 0.0) {
            return Err(GraphError::InvalidFlow { flow: f, from: u as u64, to: v as u64 });
        }
        if u == v {
            return Err(GraphError::SelfLoop(u as u64));
        }
        {
            let EpochWriter { base, pending, .. } = self;
            // First touch: seed with the pair's base events so the
            // overlay can serve the pair from the delta alone.
            let entry = pending.entry((u, v)).or_insert_with(|| {
                let events = if (u as usize) < base.num_nodes() {
                    base.pair_id(u, v).map(|p| base.series(p).events().to_vec()).unwrap_or_default()
                } else {
                    Vec::new()
                };
                PendingSeries { from_base: events.len(), events }
            });
            entry.events.push(Event::new(t, f));
        }
        self.dirty.insert((u, v));
        self.delta_events += 1;
        self.appended += 1;
        self.num_nodes = self.num_nodes.max(u.max(v) as usize + 1);
        self.watermark = Some(self.watermark.map_or(t, |wm| wm.max(t)));
        Ok(())
    }

    fn stats(&self) -> EngineStats {
        let new_pairs = self.pending.values().filter(|p| p.from_base == 0).count();
        EngineStats {
            interactions: self.base.num_interactions() + self.delta_events,
            pairs: self.base.num_pairs() + new_pairs,
            watermark: self.watermark,
            floor: None,
            appended: self.appended,
            evicted: 0,
        }
    }
}

/// A streaming engine whose epochs are sealed segments plus an in-RAM
/// delta overlay (see the module docs).
///
/// All methods take `&self`; share it as an `Arc<EpochEngine>` between
/// an ingesting thread and any number of query threads — the same shape
/// as [`SnapshotEngine`](crate::SnapshotEngine), minus eviction.
#[derive(Debug)]
pub struct EpochEngine {
    dir: PathBuf,
    writer: Mutex<EpochWriter>,
    published: RwLock<Arc<EpochSnapshot>>,
    publish_every: usize,
    opts: SearchOptions,
    last_publish: Mutex<PublishReport>,
    /// Readiness hook fired after every epoch install (see
    /// [`EpochEngine::set_publish_hook`]).
    publish_hook: crate::snapshot::PublishHookSlot,
}

impl EpochEngine {
    /// Opens the packed segment directory `dir` (as produced by
    /// `flowmotif pack` or a previous [`EpochEngine::reseal`]) and
    /// publishes its contents as epoch 0.
    pub fn open(dir: &Path) -> Result<Self, GraphError> {
        let base = Arc::new(SegmentStore::open(dir)?);
        let opts = SearchOptions::default();
        let writer = EpochWriter {
            num_nodes: base.num_nodes(),
            watermark: base.time_span().map(|(_, hi)| hi),
            base: Arc::clone(&base),
            pending: FxHashMap::default(),
            delta_events: 0,
            dirty: Default::default(),
            appended: 0,
            published_appended: 0,
            epoch: 0,
        };
        let snapshot = Arc::new(EpochSnapshot {
            stats: writer.stats(),
            graph: Arc::new(OverlayStore::new(base, TimeSeriesGraph::default())),
            epoch: 0,
            opts,
        });
        Ok(Self {
            dir: dir.to_path_buf(),
            writer: Mutex::new(writer),
            published: RwLock::new(snapshot),
            publish_every: 0,
            opts,
            last_publish: Mutex::new(PublishReport::default()),
            publish_hook: Default::default(),
        })
    }

    /// Registers a callback invoked with the new epoch number every time
    /// an epoch is installed (explicit [`EpochEngine::publish`],
    /// auto-publish, or [`EpochEngine::reseal`]). At most one hook is
    /// kept; a second call replaces the first. The hook may run while
    /// the writer lock is held, so it must be cheap and must not call
    /// back into the engine — serve uses it to nudge its event loop.
    pub fn set_publish_hook(&self, hook: impl Fn(u64) + Send + Sync + 'static) {
        self.publish_hook.set(hook);
    }

    /// Overrides the [`SearchOptions`] used by every epoch query,
    /// including the already-published epoch 0.
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

    /// Auto-publishes once `n` appends accumulate since the last publish
    /// (0 disables; batches publish once at the end, like
    /// [`SnapshotEngine::publish_every`](crate::SnapshotEngine::publish_every)).
    pub fn publish_every(mut self, n: usize) -> Self {
        self.publish_every = n;
        self
    }

    /// Appends one interaction (validated like the in-memory engines)
    /// and returns the stream watermark after it. Auto-publishes when
    /// due.
    pub fn append(
        &self,
        from: NodeId,
        to: NodeId,
        time: Timestamp,
        flow: Flow,
    ) -> Result<Timestamp, GraphError> {
        self.ingest([(from, to, time, flow)])?;
        Ok(self.writer.lock().unwrap().watermark.unwrap_or(time))
    }

    /// Appends a batch; returns how many were appended. Fails on the
    /// first invalid interaction (earlier ones stay applied).
    /// Auto-publishes at most once, after the whole batch.
    pub fn ingest<I>(&self, batch: I) -> Result<usize, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId, Timestamp, Flow)>,
    {
        let mut w = self.writer.lock().unwrap();
        let mut n = 0usize;
        let r: Result<(), GraphError> = (|| {
            for (u, v, t, f) in batch {
                w.push_edge(u, v, t, f)?;
                n += 1;
            }
            Ok(())
        })();
        let due = self.publish_every > 0
            && (w.appended - w.published_appended) as usize >= self.publish_every;
        if due {
            self.publish_locked(&mut w);
        }
        r.map(|()| n)
    }

    /// Registers a standing query in `subs`, seeded from the *writer*
    /// state (base ∪ current delta), so subsequent
    /// [`EpochEngine::append_standing`] deltas line up exactly with the
    /// stream. Returns the subscription id.
    pub fn subscribe_standing(
        &self,
        subs: &mut StandingQueries,
        motif: Motif,
        bounds: Option<TimeWindow>,
    ) -> u64 {
        let w = self.writer.lock().unwrap();
        let overlay = OverlayStore::new(Arc::clone(&w.base), self.delta_graph(&w));
        subs.subscribe(&overlay, motif, bounds)
    }

    /// [`EpochEngine::append`] that additionally delta-evaluates the
    /// standing queries in `subs` against a transient base ∪ delta
    /// overlay built under the writer lock, pushing every instance
    /// entering a standing result set onto `out`.
    ///
    /// Sealed segments never evict, and a [`EpochEngine::reseal`] merges
    /// data-identically (base ∪ delta before ≡ new base after), so
    /// appends are the only change standing queries ever see here. Note
    /// the transient overlay costs O(delta) per call; reseal
    /// periodically to keep the delta small.
    pub fn append_standing(
        &self,
        from: NodeId,
        to: NodeId,
        time: Timestamp,
        flow: Flow,
        subs: &mut StandingQueries,
        out: &mut Vec<StandingEvent>,
    ) -> Result<Timestamp, GraphError> {
        let mut w = self.writer.lock().unwrap();
        w.push_edge(from, to, time, flow)?;
        if !subs.is_empty() {
            let overlay = OverlayStore::new(Arc::clone(&w.base), self.delta_graph(&w));
            subs.on_append(&overlay, from, to, time, out);
        }
        let due = self.publish_every > 0
            && (w.appended - w.published_appended) as usize >= self.publish_every;
        if due {
            self.publish_locked(&mut w);
        }
        Ok(w.watermark.unwrap_or(time))
    }

    /// Publishes the current base+delta as a new epoch and returns its
    /// number; a no-op returning the current epoch when nothing was
    /// appended since the last publish. Cost is O(delta) — the sealed
    /// base is shared by `Arc`, never walked or copied.
    pub fn publish(&self) -> u64 {
        let mut w = self.writer.lock().unwrap();
        self.publish_locked(&mut w)
    }

    fn publish_locked(&self, w: &mut EpochWriter) -> u64 {
        if w.appended == w.published_appended {
            return w.epoch;
        }
        let started = Instant::now();
        w.epoch += 1;
        w.published_appended = w.appended;
        let dirty_pairs = w.dirty.len();
        w.dirty.clear();
        let delta = self.delta_graph(w);
        let snapshot = Arc::new(EpochSnapshot {
            graph: Arc::new(OverlayStore::new(Arc::clone(&w.base), delta)),
            epoch: w.epoch,
            stats: w.stats(),
            opts: self.opts,
        });
        *self.published.write().unwrap() = snapshot;
        let report = PublishReport { epoch: w.epoch, dirty_pairs, duration: started.elapsed() };
        crate::metrics::record_publish(report.epoch, report.dirty_pairs, report.duration);
        *self.last_publish.lock().unwrap() = report;
        self.publish_hook.fire(w.epoch);
        w.epoch
    }

    /// The delta as a small standalone graph — O(delta) to build.
    fn delta_graph(&self, w: &EpochWriter) -> TimeSeriesGraph {
        let pairs: Vec<_> = w.pending.iter().map(|(&k, p)| (k, p.events.clone())).collect();
        TimeSeriesGraph::from_pair_events(w.num_nodes, pairs)
    }

    /// Merges base ∪ delta into a fresh sealed segment (streamed through
    /// a [`SegmentWriter`], atomically replacing the directory's
    /// `graph.seg`; epochs already published keep their old map), resets
    /// the delta, and publishes the new base. Returns the new epoch.
    pub fn reseal(&self) -> Result<u64, GraphError> {
        let mut w = self.writer.lock().unwrap();
        if w.pending.is_empty() {
            return Ok(w.epoch); // no delta: the base is already sealed
        }
        let started = Instant::now();
        let overlay = OverlayStore::new(Arc::clone(&w.base), self.delta_graph(&w));
        let mut writer = SegmentWriter::create(&self.dir, w.num_nodes, overlay.time_span())?;
        let mut failed: Result<(), GraphError> = Ok(());
        overlay.for_each_merged_series(|u, v, s| {
            if failed.is_err() {
                return;
            }
            failed = (|| {
                writer.begin_pair(u, v)?;
                for e in s.events() {
                    writer.push_event(e.time, e.flow)?;
                }
                Ok(())
            })();
        });
        failed?;
        writer.finish()?;
        w.base = Arc::new(SegmentStore::open(&self.dir)?);
        w.pending.clear();
        w.delta_events = 0;
        w.dirty.clear();
        w.epoch += 1;
        w.published_appended = w.appended;
        let snapshot = Arc::new(EpochSnapshot {
            graph: Arc::new(OverlayStore::new(Arc::clone(&w.base), TimeSeriesGraph::default())),
            epoch: w.epoch,
            stats: w.stats(),
            opts: self.opts,
        });
        *self.published.write().unwrap() = snapshot;
        crate::metrics::record_reseal(started.elapsed());
        self.publish_hook.fire(w.epoch);
        Ok(w.epoch)
    }

    /// Cost telemetry of the most recent publish.
    pub fn publish_report(&self) -> PublishReport {
        *self.last_publish.lock().unwrap()
    }

    /// Live writer-side statistics (includes not-yet-published appends).
    pub fn stats(&self) -> EngineStats {
        self.writer.lock().unwrap().stats()
    }

    /// The currently published epoch snapshot (one `RwLock` read + `Arc`
    /// clone; stays valid however far the stream advances).
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.published.read().unwrap())
    }

    /// Epoch of the currently published snapshot.
    pub fn published_epoch(&self) -> u64 {
        self.published.read().unwrap().epoch
    }
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EpochSnapshot>();
    assert_send_sync::<EpochEngine>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use flowmotif_core::{catalog, Query, SearchStats};
    use flowmotif_graph::{segment::write_segment, GraphBuilder};

    fn count(snap: &EpochSnapshot, motif: &Motif) -> (u64, SearchStats) {
        Query { opts: snap.options(), ..Query::new(motif) }.count(snap.graph())
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

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "flowmotif-epoch-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn sealed(tag: &str, edges: &[(NodeId, NodeId, Timestamp, Flow)]) -> std::path::PathBuf {
        let mut b = GraphBuilder::new();
        b.extend_interactions(edges.iter().copied());
        let dir = tmp_dir(tag);
        write_segment(&b.build_time_series_graph(), &dir).unwrap();
        dir
    }

    #[test]
    fn epoch_zero_serves_the_sealed_base() {
        let dir = sealed("base", &FIG2);
        let engine = EpochEngine::open(&dir).unwrap();
        let motif = catalog::by_name("M(3,3)", 10, 7.0).unwrap();
        let snap = engine.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(count(&snap, &motif).0, 1);
        assert_eq!(snap.stats().interactions, 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_surface_at_publish_and_match_the_batch_graph() {
        // Seal the first half, stream the second, and compare every
        // epoch query against an in-memory graph of the full prefix.
        let dir = sealed("stream", &FIG2[..5]);
        let engine = EpochEngine::open(&dir).unwrap();
        let motif = catalog::by_name("M(3,3)", 10, 7.0).unwrap();
        assert_eq!(count(&engine.snapshot(), &motif).0, 0, "half the graph: no cycle yet");

        for (i, &(u, v, t, f)) in FIG2[5..].iter().enumerate() {
            engine.append(u, v, t, f).unwrap();
            engine.publish();
            let mut b = GraphBuilder::new();
            b.extend_interactions(FIG2[..5 + i + 1].iter().copied());
            let want = b.build_time_series_graph();
            let snap = engine.snapshot();
            assert_eq!(snap.epoch(), i as u64 + 1);
            assert_eq!(
                count(&snap, &motif),
                Query::new(&motif).count(&want),
                "after {} streamed edges",
                i + 1
            );
            assert_eq!(snap.stats().interactions, 5 + i + 1);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn publish_is_noop_without_appends_and_cost_scales_with_delta() {
        let dir = sealed("noop", &FIG2);
        let engine = EpochEngine::open(&dir).unwrap();
        assert_eq!(engine.publish(), 0, "no appends: no new epoch");
        engine.append(0, 2, 30, 1.0).unwrap();
        assert_eq!(engine.publish(), 1);
        assert_eq!(engine.publish(), 1);
        let report = engine.publish_report();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.dirty_pairs, 1, "one pair touched since the last publish");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn old_epochs_survive_a_reseal() {
        let dir = sealed("reseal", &FIG2[..5]);
        let engine = EpochEngine::open(&dir).unwrap();
        engine.ingest(FIG2[5..].iter().copied()).unwrap();
        engine.publish();
        let before = engine.snapshot();
        assert_eq!(before.stats().interactions, 10);

        let epoch = engine.reseal().unwrap();
        assert!(epoch > before.epoch());
        let after = engine.snapshot();
        assert_eq!(after.graph().delta_interactions(), 0, "reseal folds the delta into the base");
        assert_eq!(after.stats().interactions, 10);

        // The resealed segment answers exactly like the old overlay, and
        // the pre-reseal snapshot still works (its map pins the old
        // inode even though graph.seg was replaced).
        let motif = catalog::by_name("M(3,3)", 10, 7.0).unwrap();
        assert_eq!(count(&after, &motif).0, 1);
        assert_eq!(count(&before, &motif).0, 1);

        // And the directory reopens cold to the merged graph.
        let reopened = EpochEngine::open(&dir).unwrap();
        assert_eq!(reopened.snapshot().stats().interactions, 10);
        assert_eq!(count(&reopened.snapshot(), &motif).0, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_publish_and_validation() {
        let dir = sealed("auto", &FIG2[..5]);
        let engine = EpochEngine::open(&dir).unwrap().publish_every(2);
        engine.append(0, 2, 30, 1.0).unwrap();
        assert_eq!(engine.published_epoch(), 0);
        engine.append(0, 2, 31, 1.0).unwrap();
        assert_eq!(engine.published_epoch(), 1);
        assert!(engine.append(0, 0, 32, 1.0).is_err(), "self loop");
        assert!(engine.append(0, 1, 33, -1.0).is_err(), "non-positive flow");
        assert!(engine.append(0, 1, 33, f64::NAN).is_err(), "non-finite flow");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
