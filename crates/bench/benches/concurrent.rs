//! Concurrent readers: snapshot isolation vs a mutex-serialised engine.
//!
//! The serving layer's claim is that queries scale with reader threads
//! because they run on immutable `Arc`-swapped snapshots instead of
//! taking the engine lock. This bench measures a fixed batch of
//! window-bounded count queries executed by N reader threads
//!
//! * against [`SnapshotEngine`] snapshots (lock-free after acquisition),
//! * against a `Mutex<QueryEngine>` (every query serialised, the
//!   pre-snapshot architecture),
//!
//! and, separately, the same with a live writer appending throughout —
//! the snapshot path must keep the writer unblocked, the mutex path
//! stalls it behind every in-flight query.

use flowmotif_bench::{micro, BenchGroup};
use flowmotif_core::{catalog, Motif, Query};
use flowmotif_graph::{TimeSeriesGraph, TimeWindow};
use flowmotif_stream::{QueryEngine, SnapshotEngine};
use flowmotif_util::rng::{RngExt, SeedableRng, StdRng};
use std::hint::black_box;
use std::sync::{Arc, Mutex};

const INTERACTIONS: usize = 40_000;
const NODES: u32 = 4_000;
const READERS: usize = 4;
/// Queries per reader thread per measured iteration.
const QUERIES: usize = 8;
const QUERY_SPAN: i64 = 1_500;
/// Appends the live writer performs per measured iteration.
const WRITER_BATCH: usize = 500;

fn edges(n: usize, t0: i64, seed: u64) -> Vec<(u32, u32, i64, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let u = rng.random_range(0..NODES);
            let mut v = rng.random_range(0..NODES);
            while v == u {
                v = rng.random_range(0..NODES);
            }
            (u, v, t0 + i as i64, rng.random_range(1u32..100) as f64)
        })
        .collect()
}

/// N threads, each issuing `QUERIES` counts through `query_fn`, with
/// deterministic distinct look-back windows below the watermark `top`.
fn fan_out<F>(readers: usize, top: i64, query_fn: F) -> u64
where
    F: Fn(TimeWindow) -> u64 + Sync,
{
    std::thread::scope(|scope| {
        let query_fn = &query_fn;
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                scope.spawn(move || {
                    let mut total = 0u64;
                    for q in 0..QUERIES {
                        let hi = top - 1 - ((r * QUERIES + q) as i64 * 37);
                        total += query_fn(TimeWindow::new(hi - QUERY_SPAN, hi));
                    }
                    total
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

/// The instances of `motif` inside `w`.
fn count(g: &TimeSeriesGraph, motif: &Motif, w: TimeWindow) -> u64 {
    Query { bounds: Some(w), ..Query::new(motif) }.count(g).0
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = if quick { INTERACTIONS / 10 } else { INTERACTIONS };
    let motif = catalog::by_name("M(3,2)", 30, 50.0).unwrap();
    let motif = &motif;

    // Two identically loaded engines.
    let snapshot_engine = Arc::new(SnapshotEngine::new());
    snapshot_engine.ingest(edges(n, 0, 42)).unwrap();
    snapshot_engine.publish();
    let mutex_engine = Arc::new(Mutex::new(QueryEngine::new()));
    mutex_engine.lock().unwrap().ingest(edges(n, 0, 42)).unwrap();

    let mut group = BenchGroup::new("concurrent");
    group.measurement_time(std::time::Duration::from_secs(2));
    micro::header();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("# {n} resident interactions, {READERS} readers x {QUERIES} queries/iter");
    println!(
        "# {cores} hardware threads — reader scaling needs >1; on 1 the snapshot \
         path only demonstrates writer isolation, not throughput"
    );

    group.bench(format!("snapshot/{READERS}-readers"), || {
        let engine = Arc::clone(&snapshot_engine);
        fan_out(READERS, n as i64, move |w| count(engine.snapshot().graph(), motif, w))
    });
    group.bench(format!("mutex/{READERS}-readers"), || {
        let engine = Arc::clone(&mutex_engine);
        fan_out(READERS, n as i64, move |w| count(engine.lock().unwrap().graph(), motif, w))
    });

    // The same fan-out with a writer ingesting concurrently: the metric
    // is combined wall time per iteration — the mutex path serialises
    // the writer behind the readers, the snapshot path does not.
    let mut writer_t = n as i64;
    group.bench(format!("snapshot/{READERS}-readers+writer"), || {
        let engine = Arc::clone(&snapshot_engine);
        let batch = edges(WRITER_BATCH, writer_t, writer_t as u64);
        writer_t += WRITER_BATCH as i64;
        std::thread::scope(|scope| {
            let writer_engine = Arc::clone(&engine);
            let writer = scope.spawn(move || {
                writer_engine.ingest(batch).unwrap();
                writer_engine.publish();
            });
            let total = fan_out(READERS, n as i64, |w| count(engine.snapshot().graph(), motif, w));
            writer.join().unwrap();
            black_box(total)
        })
    });
    let mut writer_t = n as i64;
    group.bench(format!("mutex/{READERS}-readers+writer"), || {
        let engine = Arc::clone(&mutex_engine);
        let batch = edges(WRITER_BATCH, writer_t, writer_t as u64);
        writer_t += WRITER_BATCH as i64;
        std::thread::scope(|scope| {
            let writer_engine = Arc::clone(&engine);
            let writer = scope.spawn(move || {
                writer_engine.lock().unwrap().ingest(batch).unwrap();
            });
            let total =
                fan_out(READERS, n as i64, |w| count(engine.lock().unwrap().graph(), motif, w));
            writer.join().unwrap();
            black_box(total)
        })
    });

    group.finish();
}
