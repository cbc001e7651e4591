//! The engine over a sealed segment: the out-of-core base of
//! [`crate::Engine`].
//!
//! [`SnapshotEngine`](crate::SnapshotEngine) keeps the whole resident
//! graph in RAM and pays an O(pairs) structural clone per publish. The
//! [`EpochEngine`] is the same engine over a [`SealedBase`]: every epoch
//! is anchored on a **sealed immutable segment file** (see
//! [`flowmotif_graph::segment`]) and only the stream's tail is in RAM:
//!
//! * the **base** is a memory-mapped [`SegmentStore`] — shareable
//!   read-only across processes, never copied, never walked at publish
//!   time;
//! * the **delta** is the engine's ordinary writer, a
//!   [`QueryEngine`] holding everything appended since the base was
//!   sealed. The first append to a base pair seeds that pair's base
//!   events into it (not counted as appends), maintaining the
//!   [`OverlayStore`] full-merged-series invariant;
//! * a **publish** composes the shared base with the copy-on-write
//!   clone of the delta into an epoch-stamped [`EpochSnapshot`] —
//!   **O(delta)** work, independent of how many pairs the base holds;
//! * a **reseal** streams base ∪ delta through a [`SegmentWriter`] into
//!   a fresh segment (atomically replacing `graph.seg` — live maps of
//!   the old file stay valid) and resets the delta, bounding delta
//!   growth without ever holding the merged graph in memory. The
//!   lifetime `appended` total survives it.
//!
//! Eviction is not supported on this engine: sealed segments are
//! immutable by design. Bound retention by resealing from a filtered
//! source instead.

use crate::engine::EngineStats;
use crate::incremental::IncrementalGraph;
use crate::snapshot::{Base, Engine, Snapshot};
use crate::QueryEngine;
use flowmotif_graph::{
    GraphError, GraphStore, NodeId, OverlayStore, SegmentStore, SegmentWriter, TimeSeriesGraph,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// An immutable epoch view: the shared sealed segment plus the delta
/// frozen at publish time, queryable exactly like a heap [`Snapshot`].
pub type EpochSnapshot = Snapshot<OverlayStore>;

/// The streaming engine over a sealed segment (see the module docs).
pub type EpochEngine = Engine<SealedBase>;

/// A sealed segment beneath an [`Engine`]'s writer, which then holds
/// only the delta since the segment was sealed.
#[derive(Debug)]
pub struct SealedBase {
    dir: PathBuf,
    store: Arc<SegmentStore>,
    /// Base events seeded into the delta, and the pairs they belong to:
    /// counted once, in the store.
    seeded_events: usize,
    seeded_pairs: usize,
    /// Appends folded into the store by earlier reseals.
    resealed: u64,
}

impl Base for SealedBase {
    type View = OverlayStore;
    type Live<'a> = Box<OverlayStore>;
    const EVICTS: bool = false;

    fn seed(&mut self, delta: &mut IncrementalGraph, u: NodeId, v: NodeId) {
        if delta.contains_pair(u, v) {
            return;
        }
        if let Some(p) = self.store.pair_id(u, v) {
            let events = self.store.series(p).events();
            self.seeded_events += events.len();
            self.seeded_pairs += 1;
            delta.seed_pair(u, v, events);
        }
    }

    /// A transient overlay: O(delta) per call, so reseal periodically
    /// to keep the delta small.
    fn live<'a>(&'a self, delta: &'a TimeSeriesGraph) -> Box<OverlayStore> {
        Box::new(self.view(delta.clone()))
    }

    fn view(&self, delta: TimeSeriesGraph) -> OverlayStore {
        OverlayStore::new(Arc::clone(&self.store), delta)
    }

    fn stats(&self, writer: EngineStats) -> EngineStats {
        EngineStats {
            interactions: self.store.num_interactions() + writer.interactions - self.seeded_events,
            pairs: self.store.num_pairs() + writer.pairs - self.seeded_pairs,
            watermark: writer.watermark.max(self.store.time_span().map(|(_, hi)| hi)),
            floor: None,
            appended: self.resealed + writer.appended,
            evicted: 0,
        }
    }

    /// Reseals base ∪ delta. A reseal failure (an I/O error while
    /// writing the new file) leaves the current base and delta fully
    /// intact, so it is safe to swallow here — the engine keeps serving
    /// and the next compact retries.
    fn compact(engine: &EpochEngine) {
        let _ = engine.reseal();
    }
}

impl EpochEngine {
    /// Opens the packed segment directory `dir` (as produced by
    /// `flowmotif pack` or a previous [`EpochEngine::reseal`]) and
    /// publishes its contents as epoch 0.
    pub fn open(dir: &Path) -> Result<Self, GraphError> {
        let store = Arc::new(SegmentStore::open(dir)?);
        let base = SealedBase {
            dir: dir.to_path_buf(),
            store,
            seeded_events: 0,
            seeded_pairs: 0,
            resealed: 0,
        };
        Ok(Self::from_parts(QueryEngine::new(), base))
    }

    /// Merges base ∪ delta into a fresh sealed segment (streamed through
    /// a [`SegmentWriter`], atomically replacing the directory's
    /// `graph.seg`; epochs already published keep their old map), resets
    /// the delta, and publishes the new base. Returns the new epoch.
    pub fn reseal(&self) -> Result<u64, GraphError> {
        let started = Instant::now();
        let mut guard = self.writer.lock().unwrap();
        let w = &mut *guard;
        if w.engine.stats().pairs == 0 {
            return Ok(w.epoch); // no delta: the base is already sealed
        }
        let (engine, base) = (&mut w.engine, &mut w.base);
        let merged = base.view(engine.graph().clone());
        let mut writer = SegmentWriter::create(&base.dir, merged.num_nodes(), merged.time_span())?;
        let mut failed: Result<(), GraphError> = Ok(());
        merged.for_each_merged_series(|u, v, s| {
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
        base.store = Arc::new(SegmentStore::open(&base.dir)?);
        base.resealed += engine.stats().appended;
        (base.seeded_events, base.seeded_pairs) = (0, 0);
        *engine = QueryEngine::new();
        let p = w.claim(self.opts);
        drop(guard);
        crate::metrics::record_reseal(started.elapsed());
        Ok(self.install(p))
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
    use flowmotif_core::{catalog, Motif, Query, SearchStats};
    use flowmotif_graph::{segment::write_segment, Flow, GraphBuilder, Timestamp};

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
        assert_eq!(after.stats().appended, 5, "the lifetime appends survive the reseal");

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
}
