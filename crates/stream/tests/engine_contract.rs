//! The contract every [`Engine`] keeps, whatever its base: run once
//! over no base (the heap engine, preloaded with a prefix of the
//! stream) and once over a sealed segment of the same prefix.

use flowmotif_graph::{segment::write_segment, Flow, GraphBuilder, GraphError, NodeId, Timestamp};
use flowmotif_stream::{Base, Engine, EpochEngine, QueryEngine, SnapshotEngine};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

type Edge = (NodeId, NodeId, Timestamp, Flow);

/// The paper's Fig. 2 bitcoin example; engines start from its first
/// five interactions (four pairs, watermark 13).
const FIG2: [Edge; 10] = [
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
const PREFIX: usize = 5;

/// A segment directory, removed on drop.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// An engine over no base, preloaded with `FIG2[..PREFIX]`.
fn heap() -> (SnapshotEngine, Option<TempDir>) {
    let mut inner = QueryEngine::new();
    inner.ingest(FIG2[..PREFIX].iter().copied()).unwrap();
    (SnapshotEngine::with_engine(inner), None)
}

/// An engine over a sealed segment of `FIG2[..PREFIX]`.
fn sealed() -> (EpochEngine, Option<TempDir>) {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "flowmotif-contract-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let mut b = GraphBuilder::new();
    b.extend_interactions(FIG2[..PREFIX].iter().copied());
    write_segment(&b.build_time_series_graph(), &dir).unwrap();
    (EpochEngine::open(&dir).unwrap(), Some(TempDir(dir)))
}

fn publish_without_appends_is_a_noop<B: Base>(make: fn() -> (Engine<B>, Option<TempDir>)) {
    let (engine, _dir) = make();
    assert_eq!(engine.publish(), 0, "nothing appended: no new epoch");
    assert_eq!(engine.published_epoch(), 0);
    assert_eq!(engine.publish_report().epoch, 0, "a no-op publish reports nothing");
    engine.append(0, 2, 30, 1.0).unwrap();
    assert_eq!(engine.publish(), 1);
    let report = engine.publish_report();
    assert_eq!((report.epoch, report.dirty_pairs), (1, 1), "one pair touched");
    assert_eq!(engine.publish(), 1, "publishing twice is one epoch");
    assert_eq!(engine.publish_report(), report);
}

fn reads_see_their_publish<B: Base>(make: fn() -> (Engine<B>, Option<TempDir>)) {
    let (engine, _dir) = make();
    for (i, &(u, v, t, f)) in FIG2[PREFIX..].iter().enumerate() {
        assert_eq!(engine.append(u, v, t, f).unwrap(), t, "the watermark after each append");
        let epoch = engine.publish();
        let snap = engine.snapshot();
        assert!(snap.epoch() >= epoch, "epoch {epoch} published but {} served", snap.epoch());
        let held = PREFIX + i + 1;
        assert_eq!(snap.stats().interactions, held);
        assert_eq!(flowmotif_graph::GraphStore::num_interactions(snap.graph()), held);
    }
}

fn auto_publishes_every_n_appends<B: Base>(make: fn() -> (Engine<B>, Option<TempDir>)) {
    let (engine, _dir) = make();
    let engine = engine.publish_every(2);
    for (n, &(u, v, t, f)) in (1u64..).zip(&FIG2[PREFIX..]) {
        engine.append(u, v, t, f).unwrap();
        assert_eq!(engine.published_epoch(), n / 2, "after {n} appends");
    }
    // A batch publishes once, at its end.
    let (engine, _dir) = make();
    let engine = engine.publish_every(2);
    engine.ingest(FIG2[PREFIX..].iter().copied()).unwrap();
    assert_eq!(engine.published_epoch(), 1);
    assert_eq!(engine.snapshot().stats().interactions, FIG2.len());
}

fn invalid_appends_are_rejected<B: Base>(make: fn() -> (Engine<B>, Option<TempDir>)) {
    let (engine, _dir) = make();
    let before = engine.stats();
    // (3, 2) is a sealed pair: a rejected append must not change it.
    for (u, v, flow) in [(0, 0, 1.0), (3, 2, 0.0), (3, 2, -1.0), (3, 2, f64::NAN)] {
        let err = engine.append(u, v, 40, flow).unwrap_err();
        assert!(
            matches!(err, GraphError::SelfLoop(_) | GraphError::InvalidFlow { .. }),
            "({u}, {v}, {flow}): {err}"
        );
    }
    assert_eq!(engine.stats(), before, "rejected appends change nothing");
    assert_eq!(engine.publish(), 0, "and publish nothing");
}

fn stats_count_sealed_events_once<B: Base>(make: fn() -> (Engine<B>, Option<TempDir>)) {
    let (engine, _dir) = make();
    let s = engine.stats();
    assert_eq!((s.interactions, s.pairs, s.watermark, s.evicted), (PREFIX, 4, Some(13), 0));
    // Two appends to a pair the prefix holds, one to a new pair.
    engine.ingest([(3, 2, 14, 1.0), (3, 2, 15, 1.0), (0, 3, 16, 1.0)]).unwrap();
    let s = engine.stats();
    assert_eq!((s.interactions, s.pairs, s.watermark), (PREFIX + 3, 5, Some(16)));
    engine.publish();
    let snap = engine.snapshot();
    assert_eq!(snap.stats(), s);
    assert_eq!(flowmotif_graph::GraphStore::num_interactions(snap.graph()), PREFIX + 3);
    assert_eq!(flowmotif_graph::GraphStore::num_pairs(snap.graph()), 5);
}

fn publish_hook_may_call_the_engine<B: Base>(make: fn() -> (Engine<B>, Option<TempDir>)) {
    let (engine, _dir) = make();
    let engine = Arc::new(engine.publish_every(2));
    let seen = Arc::new(AtomicU64::new(0));
    {
        let (weak, seen) = (Arc::downgrade(&engine), Arc::clone(&seen));
        engine.set_publish_hook(move |_| {
            if let Some(engine) = weak.upgrade() {
                seen.store(engine.stats().interactions as u64, Ordering::SeqCst);
            }
        });
    }
    // Run explicit and automatic publishes on a worker, so a deadlock
    // fails the test instead of hanging it.
    let (tx, rx) = mpsc::channel();
    let worker = Arc::clone(&engine);
    std::thread::spawn(move || {
        worker.append(0, 2, 30, 1.0).unwrap();
        worker.publish();
        worker.ingest([(0, 2, 31, 1.0), (0, 2, 32, 1.0)]).unwrap();
        tx.send(()).unwrap();
    });
    rx.recv_timeout(Duration::from_secs(20))
        .expect("a publish hook that calls back into the engine deadlocked");
    assert_eq!(engine.published_epoch(), 2);
    assert_eq!(seen.load(Ordering::SeqCst), PREFIX as u64 + 3);
}

macro_rules! contract {
    ($($case:ident),* $(,)?) => {
        mod heap {
            $(#[test] fn $case() { super::$case(super::heap) })*
        }
        mod sealed {
            $(#[test] fn $case() { super::$case(super::sealed) })*
        }
    };
}

contract!(
    publish_without_appends_is_a_noop,
    reads_see_their_publish,
    auto_publishes_every_n_appends,
    invalid_appends_are_rejected,
    stats_count_sealed_events_once,
    publish_hook_may_call_the_engine,
);
