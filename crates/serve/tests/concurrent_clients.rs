//! The headline integration test: N client threads query a live server
//! *while* edges stream in, and every answer — attributed to its
//! snapshot epoch — must equal a batch rebuild of exactly the stream
//! prefix that epoch published.
//!
//! The protocol makes this checkable: `publish` returns the new epoch,
//! and every `count`/`query` reply carries the epoch it was answered at.
//! The writer records the epoch → prefix-length mapping as it publishes;
//! at the end each concurrent result is re-derived offline with
//! `GraphBuilder` + windowed `Query::count` over that prefix.

use flowmotif_core::{catalog, Query};
use flowmotif_graph::{GraphBuilder, TimeWindow};
use flowmotif_serve::{Client, Server, ServerConfig};
use flowmotif_stream::SnapshotEngine;
use flowmotif_util::rng::{RngExt, SeedableRng, StdRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const NODES: u32 = 15;
const EDGES: usize = 300;
const BATCH: usize = 50;
const READERS: usize = 4;
/// Every query carries the same full window, so a batch rebuild of a
/// prefix answers it identically.
const WINDOW: (i64, i64) = (0, 1_000_000);
const QUERY: &str = "count M(3,2) 30 5 0 1000000";

/// Deterministic mostly-in-order edge stream with enough locality that
/// M(3,2) instances actually form.
fn edge_stream() -> Vec<(u32, u32, i64, f64)> {
    let mut rng = StdRng::seed_from_u64(7);
    let mut t = 0i64;
    (0..EDGES)
        .map(|_| {
            t += rng.random_range(0i64..3);
            let u = rng.random_range(0..NODES);
            let mut v = rng.random_range(0..NODES);
            while v == u {
                v = rng.random_range(0..NODES);
            }
            // ~10% stragglers arrive out of order.
            let jitter =
                if rng.random_range(0u32..10) == 0 { rng.random_range(1i64..20) } else { 0 };
            (u, v, (t - jitter).max(0), rng.random_range(1u32..10) as f64)
        })
        .collect()
}

fn batch_count(edges: &[(u32, u32, i64, f64)]) -> u64 {
    let motif = catalog::by_name("M(3,2)", 30, 5.0).unwrap();
    let mut b = GraphBuilder::new();
    b.extend_interactions(edges.iter().copied());
    let g = b.build_time_series_graph();
    Query { bounds: Some(TimeWindow::new(WINDOW.0, WINDOW.1)), ..Query::new(&motif) }.count(&g).0
}

#[test]
fn concurrent_clients_match_batch_rebuild_during_live_ingestion() {
    let engine = Arc::new(SnapshotEngine::new());
    let server = Server::start(
        Arc::clone(&engine),
        ServerConfig { workers: READERS + 2, show: usize::MAX, ..ServerConfig::default() },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr();
    let edges = Arc::new(edge_stream());

    // epoch -> number of stream-prefix edges that epoch contains.
    let prefix_of_epoch = Arc::new(Mutex::new(HashMap::from([(0u64, 0usize)])));
    let done = Arc::new(AtomicBool::new(false));

    // The writer: one client ingesting over the wire, publishing after
    // every batch and recording which prefix each epoch froze.
    let writer = {
        let edges = Arc::clone(&edges);
        let prefix_of_epoch = Arc::clone(&prefix_of_epoch);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            for (batch_idx, batch) in edges.chunks(BATCH).enumerate() {
                for &(u, v, t, f) in batch {
                    let reply = c.send(&format!("add {u} {v} {t} {f}")).unwrap();
                    assert!(reply.is_ok(), "{}", reply.status);
                }
                let reply = c.send("publish").unwrap();
                let epoch: u64 = reply.field("epoch").unwrap().parse().unwrap();
                let prefix = (batch_idx + 1) * BATCH;
                prefix_of_epoch.lock().unwrap().insert(epoch, prefix.min(edges.len()));
                // Hold each epoch open briefly so the readers demonstrably
                // interleave with several distinct snapshots.
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            done.store(true, Ordering::Release);
        })
    };

    // The readers: query concurrently with ingestion, recording
    // (epoch, count) pairs for offline verification.
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut observed: Vec<(u64, u64)> = Vec::new();
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let reply = c.send(QUERY).unwrap();
                    assert!(reply.is_ok(), "{}", reply.status);
                    let epoch: u64 = reply.field("epoch").unwrap().parse().unwrap();
                    let count: u64 = reply.field("count").unwrap().parse().unwrap();
                    observed.push((epoch, count));
                    // One guaranteed query *after* the final publish, so
                    // every reader also verifies the complete stream.
                    if finished {
                        return observed;
                    }
                }
            })
        })
        .collect();

    writer.join().unwrap();
    let results: Vec<Vec<(u64, u64)>> = readers.into_iter().map(|r| r.join().unwrap()).collect();

    // Offline verification: every concurrently observed count equals the
    // batch rebuild of the exact prefix its epoch published.
    let prefix_of_epoch = prefix_of_epoch.lock().unwrap();
    let mut expected_of_epoch: HashMap<u64, u64> = HashMap::new();
    let mut distinct_epochs = std::collections::HashSet::new();
    let mut total_queries = 0usize;
    for (reader_idx, observed) in results.iter().enumerate() {
        assert!(!observed.is_empty(), "reader {reader_idx} never completed a query");
        for &(epoch, count) in observed {
            let &prefix = prefix_of_epoch
                .get(&epoch)
                .unwrap_or_else(|| panic!("reader {reader_idx} saw unpublished epoch {epoch}"));
            let expected =
                *expected_of_epoch.entry(epoch).or_insert_with(|| batch_count(&edges[..prefix]));
            assert_eq!(
                count, expected,
                "reader {reader_idx}, epoch {epoch} (prefix {prefix}): served count diverged \
                 from batch rebuild"
            );
            distinct_epochs.insert(epoch);
            total_queries += 1;
        }
    }
    // The race must have been real: queries interleaved with ingestion
    // across multiple different snapshots, and the workload non-trivial.
    assert!(total_queries >= READERS, "at least one verified query per reader");
    assert!(
        distinct_epochs.len() >= 2,
        "readers only ever saw one epoch — no concurrency was exercised"
    );
    let final_epoch = (EDGES / BATCH) as u64;
    let final_count = expected_of_epoch.get(&final_epoch).copied();
    assert!(
        results.iter().flatten().any(|&(e, _)| e == final_epoch),
        "no reader observed the final epoch"
    );
    assert!(final_count.unwrap_or_else(|| batch_count(&edges)) > 0, "workload has no instances");

    // Full materialised equality on the final snapshot: the instance
    // lines served over the wire equal a local enumeration of the batch
    // rebuild, instance by instance.
    let mut c = Client::connect(addr).unwrap();
    let reply = c.send("query M(3,2) 30 5").unwrap();
    assert!(reply.is_ok(), "{}", reply.status);
    assert_eq!(reply.field("epoch"), Some(final_epoch.to_string().as_str()));

    let motif = catalog::by_name("M(3,2)", 30, 5.0).unwrap();
    let mut b = GraphBuilder::new();
    b.extend_interactions(edges.iter().copied());
    let g = b.build_time_series_graph();
    let (groups, _) = Query::new(&motif).collect(&g);
    let mut expected_lines: Vec<String> = Vec::new();
    for (sm, insts) in &groups {
        let nodes: Vec<String> = sm.walk_nodes(&g).into_iter().map(|n| n.to_string()).collect();
        let nodes = nodes.join("-");
        for inst in insts {
            expected_lines.push(format!(
                "nodes={nodes} flow={} span={} sets={}",
                inst.flow,
                inst.span(),
                inst.display(&g)
            ));
        }
    }
    assert_eq!(reply.data, expected_lines, "served instances diverge from batch rebuild");
    assert_eq!(reply.field("instances"), Some(expected_lines.len().to_string().as_str()));

    server.shutdown();
}
