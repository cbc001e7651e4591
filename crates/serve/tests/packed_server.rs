//! A server over a packed segment answers exactly like a server over
//! the heap engine holding the same interactions.
//!
//! A prefix of a deterministic edge script is sealed into a segment and
//! served through `EpochEngine`; the same prefix is preloaded into a
//! `SnapshotEngine`. The rest of the script — appends (valid, invalid,
//! out of order, on sealed and on new pairs), publishes, counts,
//! queries, a standing subscription and the session counters — then
//! runs against both servers, whose replies and pushed `EVENT`s must be
//! identical once `epoch=` is masked.

use flowmotif_graph::{segment::write_segment, GraphBuilder};
use flowmotif_serve::{Client, Server, ServerConfig};
use flowmotif_stream::{EpochEngine, QueryEngine, SnapshotEngine};
use flowmotif_util::rng::{RngExt, SeedableRng, StdRng};
use std::sync::Arc;

const NODES: u32 = 8;
const EDGES: usize = 90;
const SEALED: usize = 45;

/// Mostly in-order edges among a few nodes, so that motifs form across
/// the sealed prefix and the appended rest.
fn edges() -> Vec<(u32, u32, i64, u32)> {
    let mut rng = StdRng::seed_from_u64(0x9AC4ED);
    let mut t = 0i64;
    (0..EDGES)
        .map(|_| {
            t += rng.random_range(0i64..4);
            let u = rng.random_range(0..NODES);
            let v = (u + rng.random_range(1..NODES)) % NODES;
            let late = if rng.random_range(0u32..8) == 0 { rng.random_range(1i64..15) } else { 0 };
            (u, v, (t - late).max(0), rng.random_range(1u32..10))
        })
        .collect()
}

/// The requests run against both servers after the prefix.
fn script(rest: &[(u32, u32, i64, u32)]) -> Vec<String> {
    let reads = [
        "count M(3,2) 10 0",
        "query M(3,3) 15 0",
        "count M(3,2) 12 4 20 120",
        "query M(4,4)A 20 0",
        "query M(3,2) 10 5",
    ];
    let mut lines = Vec::new();
    for (i, &(u, v, t, f)) in rest.iter().enumerate() {
        lines.push(format!("add {u} {v} {t} {f}"));
        if i % 9 == 4 {
            lines.push("publish".to_string());
            lines.extend(reads.iter().map(|r| r.to_string()));
        }
    }
    // Rejected appends: a self-loop and non-positive flows.
    lines.extend(["add 2 2 50 1", "add 0 1 50 0", "add 0 1 50 -3"].map(String::from));
    lines.push("publish".to_string());
    lines.extend(reads.iter().map(|r| r.to_string()));
    lines.push("session".to_string());
    lines
}

/// A reply as text, with every `epoch=<n>` masked.
fn masked(status: &str, data: &[String]) -> String {
    let mut text = String::new();
    for line in data.iter().map(String::as_str).chain([status]) {
        for (i, word) in line.split(' ').enumerate() {
            if i > 0 {
                text.push(' ');
            }
            text.push_str(if word.starts_with("epoch=") { "epoch=_" } else { word });
        }
        text.push('\n');
    }
    text
}

/// Runs the script against `server` with a standing subscription open
/// on a second session; returns the replies and the pushed events.
fn run(server: &Server, script: &[String]) -> (Vec<String>, Vec<String>) {
    let mut sub = Client::connect(server.local_addr()).unwrap();
    assert_eq!(sub.send("subscribe M(3,2) 10 0").unwrap().status, "OK subscribed id=1");
    let mut feeder = Client::connect(server.local_addr()).unwrap();
    let replies = script
        .iter()
        .map(|line| {
            let reply = feeder.send(line).unwrap();
            masked(&reply.status, &reply.data)
        })
        .collect();
    // Every append has been answered, so its events are queued on the
    // subscriber's session. The turn that answers the first ping flushes
    // them (before or just after its reply), so they all arrive ahead of
    // the second reply.
    let mut events = Vec::new();
    for _ in 0..2 {
        let reply = sub.send("ping").unwrap();
        assert_eq!(reply.status, "OK pong");
        events.extend(reply.events);
    }
    (replies, events)
}

#[test]
fn packed_and_heap_servers_reply_identically() {
    let edges = edges();
    let (sealed, rest) = edges.split_at(SEALED);
    let as_flow = |&(u, v, t, f): &(u32, u32, i64, u32)| (u, v, t, f64::from(f));

    let dir = std::env::temp_dir().join(format!("flowmotif-packed-server-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut b = GraphBuilder::new();
    b.extend_interactions(sealed.iter().map(as_flow));
    write_segment(&b.build_time_series_graph(), &dir).unwrap();

    let config = || ServerConfig { show: 1000, ..ServerConfig::default() };
    let packed =
        Server::start(Arc::new(EpochEngine::open(&dir).unwrap()), config(), "127.0.0.1:0").unwrap();
    let mut preloaded = QueryEngine::new();
    preloaded.ingest(sealed.iter().map(as_flow)).unwrap();
    let heap = SnapshotEngine::with_engine(preloaded);
    let heap = Server::start(Arc::new(heap), config(), "127.0.0.1:0").unwrap();

    let script = script(rest);
    let (want, want_events) = run(&heap, &script);
    let (got, got_events) = run(&packed, &script);
    for ((line, w), g) in script.iter().zip(&want).zip(&got) {
        assert_eq!(g, w, "`{line}`: packed server diverged from the heap server");
    }
    assert!(want.iter().any(|r| r.starts_with("ERR")), "the script must reject appends");
    assert!(
        want.iter().any(|r| r.starts_with("nodes=") && r.contains("sets=")),
        "the script must find instances"
    );
    assert!(!want_events.is_empty(), "the subscription must receive events");
    assert_eq!(got_events, want_events, "pushed EVENTs diverged");

    packed.shutdown();
    heap.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
