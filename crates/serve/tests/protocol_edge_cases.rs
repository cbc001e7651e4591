//! Wire-level edge cases: everything here talks to a real server over a
//! real socket, exercising the framing, arity checking, admission
//! control and disconnect handling of the protocol loop.

use flowmotif_serve::{Client, Server, ServerConfig};
use flowmotif_stream::SnapshotEngine;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn server(config: ServerConfig) -> (Server, Arc<SnapshotEngine>) {
    let engine = Arc::new(SnapshotEngine::new());
    let server = Server::start(Arc::clone(&engine), config, "127.0.0.1:0").unwrap();
    (server, engine)
}

#[test]
fn empty_and_whitespace_lines_are_protocol_errors() {
    let (server, _) = server(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    for line in ["", "   ", "\t"] {
        let reply = c.send(line).unwrap();
        assert!(reply.is_err(), "{line:?}: {}", reply.status);
        assert!(reply.status.contains("empty command"), "{}", reply.status);
    }
    // The session survives its own protocol errors.
    assert_eq!(c.send("ping").unwrap().status, "OK pong");
    let reply = c.send("session").unwrap();
    assert_eq!(reply.field("errors"), Some("3"));
    server.shutdown();
}

#[test]
fn bad_arity_and_unknown_commands() {
    let (server, _) = server(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    for (line, needle) in [
        ("add 1 2 3", "takes 4 fields"),
        ("add 1 2 3 4 5", "takes 4 fields"),
        ("query M(3,2) 10", "takes 3 or 5 fields"),
        ("query M(3,2) 10 0 5", "takes 3 or 5 fields"),
        ("evict", "takes 1 fields"),
        ("stats please", "takes 0 fields"),
        ("frobnicate 1 2", "unknown command"),
        ("add 1 2 x 4", "field `x`"),
    ] {
        let reply = c.send(line).unwrap();
        assert!(reply.status.starts_with("ERR proto"), "{line}: {}", reply.status);
        assert!(reply.status.contains(needle), "{line}: {}", reply.status);
    }
    server.shutdown();
}

#[test]
fn a_catalog_motif_with_a_bad_constraint_reports_that_constraint() {
    let (server, _) = server(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    for (line, needle) in [
        ("query M(3,2) -5 0", "δ must be >= 0, got -5"),
        ("count M(3,2) -5 0", "δ must be >= 0, got -5"),
        ("subscribe M(3,2) -5 0", "δ must be >= 0, got -5"),
        ("query M(3,3) 10 -1", "ϕ must be finite and >= 0, got -1"),
    ] {
        let reply = c.send(line).unwrap();
        assert!(reply.status.starts_with("ERR query"), "{line}: {}", reply.status);
        assert!(reply.status.contains(needle), "{line}: {}", reply.status);
        assert!(!reply.status.contains("unknown motif name"), "{line}: {}", reply.status);
    }
    server.shutdown();
}

#[test]
fn oversized_query_window_is_refused_by_admission_control() {
    let (server, engine) = server(ServerConfig { max_window: Some(50), ..ServerConfig::default() });
    engine.ingest([(0u32, 1u32, 10i64, 5.0), (1, 2, 12, 4.0)]).unwrap();
    engine.publish();
    let mut c = Client::connect(server.local_addr()).unwrap();

    // Too wide, and unbounded: permanent admission errors.
    let reply = c.send("count M(3,2) 10 0 0 51").unwrap();
    assert!(reply.status.starts_with("ERR admission window length 51"), "{}", reply.status);
    let reply = c.send("query M(3,2) 10 0").unwrap();
    assert!(reply.status.starts_with("ERR admission unbounded"), "{}", reply.status);

    // At the cap: admitted and answered from the snapshot.
    let reply = c.send("count M(3,2) 10 0 0 50").unwrap();
    assert!(reply.is_ok(), "{}", reply.status);
    assert_eq!(reply.field("count"), Some("1"));
    server.shutdown();
}

#[test]
fn per_query_extension_order_override_round_trips() {
    let (server, engine) = server(ServerConfig::default());
    // A triangle plus a spare chain: cyclic M(3,3) engages the WCO
    // path, so both orders genuinely diverge in exploration here.
    engine
        .ingest([(0u32, 1u32, 10i64, 5.0), (1, 2, 12, 4.0), (2, 0, 14, 3.0), (3, 4, 10, 2.0)])
        .unwrap();
    engine.publish();
    let mut c = Client::connect(server.local_addr()).unwrap();

    // Both orders (and the server default) must agree verb by verb.
    let want = c.send("query M(3,3) 10 0").unwrap();
    assert!(want.is_ok(), "{}", want.status);
    for order in ["fixed", "cardinality"] {
        let reply = c.send(&format!("query M(3,3) 10 0 order={order}")).unwrap();
        assert_eq!((reply.status, reply.data), (want.status.clone(), want.data.clone()));
        let reply = c.send(&format!("count M(3,3) 10 0 order={order}")).unwrap();
        assert_eq!(reply.field("count"), Some("1"), "{}", reply.status);
        // Windowed form: the option stays the trailing token.
        let reply = c.send(&format!("count M(3,3) 10 0 0 20 order={order}")).unwrap();
        assert_eq!(reply.field("count"), Some("1"), "{}", reply.status);
    }

    // Bad value and misplaced token are protocol errors.
    let reply = c.send("count M(3,3) 10 0 order=random").unwrap();
    assert!(reply.status.starts_with("ERR proto"), "{}", reply.status);
    assert!(reply.status.contains("unknown extension order"), "{}", reply.status);
    let reply = c.send("query M(3,3) 10 order=fixed 0 20").unwrap();
    assert!(reply.status.starts_with("ERR proto"), "{}", reply.status);
    server.shutdown();
}

#[test]
fn oversized_request_line_closes_the_connection() {
    let (server, _) = server(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    let huge = format!("ping {}", "x".repeat(70 * 1024));
    let reply = c.send(&huge).unwrap();
    assert!(reply.status.contains("line exceeds"), "{}", reply.status);
    // The server closed the stream afterwards.
    assert!(c.send("ping").is_err());
    // New connections still work.
    let mut c2 = Client::connect(server.local_addr()).unwrap();
    assert_eq!(c2.send("ping").unwrap().status, "OK pong");
    server.shutdown();
}

#[test]
fn newline_free_flood_is_rejected_at_the_cap() {
    // A client streams far more than MAX_LINE_BYTES without ever sending
    // a newline: the server must bound its buffering at the cap (not
    // accumulate the whole flood) and answer with a protocol error.
    let (server, _) = server(ServerConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let chunk = vec![b'x'; 64 * 1024];
    for _ in 0..4 {
        raw.write_all(&chunk).unwrap(); // 256 KiB, no newline anywhere
    }
    raw.flush().unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let mut reply = String::new();
    std::io::BufRead::read_line(&mut reader, &mut reply).unwrap();
    assert!(reply.contains("line exceeds"), "{reply}");
    // The connection is closed afterwards; the server stays healthy.
    let mut c = Client::connect(server.local_addr()).unwrap();
    assert_eq!(c.send("ping").unwrap().status, "OK pong");
    server.shutdown();
}

#[test]
fn mid_stream_disconnect_leaves_the_server_healthy() {
    let (server, _) = server(ServerConfig { workers: 2, ..ServerConfig::default() });
    // A client sends half a request and vanishes.
    {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(b"quer").unwrap();
        raw.flush().unwrap();
        // Dropped here without a newline: the worker must discard the
        // partial request and recycle itself.
    }
    // Another client vanishes mid-line after a successful request.
    {
        let mut c = Client::connect(server.local_addr()).unwrap();
        assert!(c.send("add 0 1 10 5").unwrap().is_ok());
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(b"add 1 2 12").unwrap();
        raw.flush().unwrap();
    }
    // Give the workers a beat to notice the disconnects.
    std::thread::sleep(Duration::from_millis(100));
    let mut c = Client::connect(server.local_addr()).unwrap();
    let reply = c.send("stats").unwrap();
    assert!(reply.is_ok(), "{}", reply.status);
    assert_eq!(reply.field("interactions"), Some("1"), "partial add must not have landed");
    server.shutdown();
}

#[test]
fn quit_closes_only_the_quitting_session() {
    let (server, _) = server(ServerConfig::default());
    let mut a = Client::connect(server.local_addr()).unwrap();
    let mut b = Client::connect(server.local_addr()).unwrap();
    assert_eq!(a.send("quit").unwrap().status, "OK bye");
    assert!(a.send("ping").is_err(), "server must hang up after quit");
    assert_eq!(b.send("ping").unwrap().status, "OK pong");
    server.shutdown();
}

#[test]
fn data_lines_are_capped_by_show_but_totals_are_exact() {
    let (server, engine) = server(ServerConfig { show: 2, ..ServerConfig::default() });
    // Several disjoint 2-hop chains, each one M(3,2) instance.
    let mut edges = Vec::new();
    for i in 0..5u32 {
        let base = i * 3;
        edges.push((base, base + 1, 10 * i as i64, 5.0));
        edges.push((base + 1, base + 2, 10 * i as i64 + 1, 5.0));
    }
    engine.ingest(edges).unwrap();
    engine.publish();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let reply = c.send("query M(3,2) 5 0").unwrap();
    assert_eq!(reply.field("instances"), Some("5"), "{}", reply.status);
    assert_eq!(reply.field("shown"), Some("2"));
    assert_eq!(reply.data.len(), 2);
    assert!(reply.data[0].starts_with("nodes="), "{}", reply.data[0]);
    server.shutdown();
}

#[test]
fn stats_reports_explicit_zero_publish_telemetry_before_first_publish() {
    // A fresh engine has never published: the publish-telemetry fields
    // must still be present, as explicit zeros, so dashboards scraping
    // `stats` never see the keys appear out of nowhere mid-run.
    let (server, engine) = server(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    let reply = c.send("stats").unwrap();
    assert!(reply.is_ok(), "{}", reply.status);
    assert_eq!(reply.field("last_publish_ns"), Some("0"), "{}", reply.status);
    assert_eq!(reply.field("last_publish_dirty"), Some("0"), "{}", reply.status);
    assert_eq!(reply.field("epoch"), Some("0"));
    // After the first publish the fields turn live.
    engine.ingest([(0u32, 1u32, 10i64, 5.0)]).unwrap();
    engine.publish();
    let reply = c.send("stats").unwrap();
    assert_eq!(reply.field("last_publish_dirty"), Some("1"), "{}", reply.status);
    server.shutdown();
}

#[test]
fn slow_query_logging_keeps_the_wire_protocol_byte_identical() {
    // --slow-query-ms diagnostics go to stderr only: replies must not
    // grow extra DATA lines or status fields, even at threshold 0
    // (log everything) and across traced query/count/error paths.
    let (server, engine) =
        server(ServerConfig { slow_query_ms: Some(0), ..ServerConfig::default() });
    engine.ingest([(0u32, 1u32, 10i64, 5.0), (1, 2, 12, 4.0)]).unwrap();
    engine.publish();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let reply = c.send("count M(3,2) 10 0").unwrap();
    assert_eq!(reply.field("count"), Some("1"), "{}", reply.status);
    assert!(reply.data.is_empty(), "count must stay data-free: {:?}", reply.data);
    let reply = c.send("query M(3,2) 10 0 0 20").unwrap();
    assert_eq!(reply.field("instances"), Some("1"), "{}", reply.status);
    assert_eq!(reply.data.len(), 1);
    // Rejected queries never reach the traced search and stay intact.
    let reply = c.send("query M(9,9) 10 0").unwrap();
    assert!(reply.status.starts_with("ERR query"), "{}", reply.status);
    // The slow-query counter is visible over the metrics verb.
    let reply = c.send("metrics").unwrap();
    assert!(reply.is_ok(), "{}", reply.status);
    assert!(
        reply.data.iter().any(|l| l == "flowmotif_serve_slow_queries_total 2"),
        "expected slow-query count 2 in {:?}",
        reply.data
    );
    server.shutdown();
}

#[test]
fn metrics_verb_round_trips_prometheus_text_over_the_wire() {
    let (server, engine) = server(ServerConfig::default());
    engine.ingest([(0u32, 1u32, 10i64, 5.0)]).unwrap();
    engine.publish();
    let mut c = Client::connect(server.local_addr()).unwrap();
    assert!(c.send("count M(3,2) 10 0").unwrap().is_ok());
    let reply = c.send("metrics").unwrap();
    assert!(reply.is_ok(), "{}", reply.status);
    assert_eq!(reply.field("lines"), Some(&*reply.data.len().to_string()));
    // Every line is either a comment or `name[{labels}] value`.
    for line in &reply.data {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                "bad comment: {line}"
            );
        } else {
            let (series, value) = line.rsplit_once(' ').expect("name value");
            assert!(!series.is_empty() && value.parse::<f64>().is_ok(), "bad sample: {line}");
        }
    }
    // One family per tier made it over the wire.
    for needle in [
        "flowmotif_serve_requests_total{verb=\"count\"} 1",
        "flowmotif_engine_epoch 1",
        "flowmotif_stream_epoch_age_seconds",
        "flowmotif_storage_segment_opens_total",
    ] {
        assert!(reply.data.iter().any(|l| l.starts_with(needle)), "missing {needle}");
    }
    server.shutdown();
}

/// `key=value` field of an `EVENT` payload or `DATA` line.
fn field_of(line: &str, key: &str) -> String {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
        .unwrap_or_else(|| panic!("no {key}= in {line}"))
        .to_string()
}

#[test]
fn subscribe_arity_unknown_motif_and_duplicates() {
    let (server, _) = server(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    for (line, needle) in [
        ("subscribe", "takes 3 or 5 fields"),
        ("subscribe M(3,2) 10", "takes 3 or 5 fields"),
        ("subscribe M(3,2) 10 0 5", "takes 3 or 5 fields"),
        ("unsubscribe", "takes 1 fields"),
        ("unsubscribe one", "field `one`"),
    ] {
        let reply = c.send(line).unwrap();
        assert!(reply.status.starts_with("ERR proto"), "{line}: {}", reply.status);
        assert!(reply.status.contains(needle), "{line}: {}", reply.status);
    }
    // An unknown motif is a query error, like for one-shot queries.
    let reply = c.send("subscribe M(9,9) 10 0").unwrap();
    assert!(reply.status.starts_with("ERR query"), "{}", reply.status);
    // The same motif and window twice on one session is refused...
    assert_eq!(c.send("subscribe M(3,2) 10 0").unwrap().status, "OK subscribed id=1");
    let reply = c.send("subscribe M(3,2) 10 0").unwrap();
    assert!(reply.status.starts_with("ERR query already subscribed"), "{}", reply.status);
    // ...but a different window, or another session, is distinct.
    assert_eq!(c.send("subscribe M(3,2) 10 0 0 100").unwrap().status, "OK subscribed id=2");
    let mut c2 = Client::connect(server.local_addr()).unwrap();
    assert_eq!(c2.send("subscribe M(3,2) 10 0").unwrap().status, "OK subscribed id=3");
    server.shutdown();
}

#[test]
fn unsubscribe_twice_and_foreign_ids_are_query_errors() {
    let (server, _) = server(ServerConfig::default());
    let mut a = Client::connect(server.local_addr()).unwrap();
    let mut b = Client::connect(server.local_addr()).unwrap();
    assert_eq!(a.send("subscribe M(3,2) 10 0").unwrap().status, "OK subscribed id=1");
    // Another session cannot remove a subscription it does not own.
    let reply = b.send("unsubscribe 1").unwrap();
    assert!(reply.status.starts_with("ERR query no subscription 1"), "{}", reply.status);
    assert_eq!(a.send("unsubscribe 1").unwrap().status, "OK unsubscribed id=1");
    // Unsubscribing twice reads exactly like never having subscribed.
    let reply = a.send("unsubscribe 1").unwrap();
    assert!(reply.status.starts_with("ERR query no subscription 1"), "{}", reply.status);
    server.shutdown();
}

#[test]
fn subscriber_events_match_a_batch_requery() {
    let (server, _) = server(ServerConfig { show: 16, ..ServerConfig::default() });
    let mut sub = Client::connect(server.local_addr()).unwrap();
    assert_eq!(sub.send("subscribe M(3,2) 10 0").unwrap().status, "OK subscribed id=1");
    // Stream two disjoint 2-hop chains over the wire from another
    // session; each completion is one maximal instance entering the
    // standing result, hence one push notification.
    let mut feeder = Client::connect(server.local_addr()).unwrap();
    for (u, v, t, f) in [(0u32, 1u32, 1i64, 2.0), (1, 2, 2, 3.0), (3, 4, 20, 1.0), (4, 5, 21, 2.0)]
    {
        assert!(feeder.send(&format!("add {u} {v} {t} {f}")).unwrap().is_ok());
    }
    sub.set_read_timeout(Some(Duration::from_millis(1500))).unwrap();
    let mut events = Vec::new();
    while events.len() < 2 {
        match sub.recv_line() {
            Ok(Some(line)) if line.starts_with("EVENT ") => events.push(line),
            Ok(Some(line)) => panic!("unexpected non-event line {line:?}"),
            Ok(None) | Err(_) => break,
        }
    }
    events.sort();
    assert_eq!(
        events,
        [
            "EVENT id=1 match=0-1-2 flow=2 first=1 last=2 size=2",
            "EVENT id=1 match=3-4-5 flow=1 first=20 last=21 size=2",
        ],
        "push notifications diverged"
    );
    // The accumulated events are exactly what a batch re-query returns.
    assert!(feeder.send("publish").unwrap().is_ok());
    let reply = feeder.send("query M(3,2) 10 0").unwrap();
    assert_eq!(reply.field("instances"), Some("2"), "{}", reply.status);
    let mut batch: Vec<(String, String)> =
        reply.data.iter().map(|d| (field_of(d, "nodes"), field_of(d, "flow"))).collect();
    batch.sort();
    let mut pushed: Vec<(String, String)> =
        events.iter().map(|e| (field_of(e, "match"), field_of(e, "flow"))).collect();
    pushed.sort();
    assert_eq!(batch, pushed, "delta events ≠ batch re-query");
    server.shutdown();
}

#[test]
fn subscriber_disconnect_races_notifications_safely() {
    let (server, _) = server(ServerConfig { workers: 3, ..ServerConfig::default() });
    // A subscriber registers and vanishes without unsubscribing.
    {
        let mut sub = Client::connect(server.local_addr()).unwrap();
        assert!(sub.send("subscribe M(3,2) 100 0").unwrap().is_ok());
        // Dropped here, mid-stream: appends below race the cleanup.
    }
    let mut feeder = Client::connect(server.local_addr()).unwrap();
    for i in 0..50u32 {
        let reply = feeder.send(&format!("add {} {} {i} 1", i % 5, (i + 1) % 5)).unwrap();
        assert!(reply.is_ok(), "{}", reply.status);
    }
    // The dangling subscription is reaped once the worker notices the
    // disconnect; until then events are routed into a queue nobody
    // reads, which must stay bounded and harmless.
    let mut reaped = false;
    for _ in 0..100 {
        let m = feeder.send("metrics").unwrap();
        if m.data.iter().any(|l| l == "flowmotif_serve_subscriptions_active 0") {
            reaped = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(reaped, "subscription must be removed after its session disconnects");
    server.shutdown();
}

#[test]
fn subscribe_admission_and_busy_interplay() {
    let (server, _) =
        server(ServerConfig { max_window: Some(50), max_inflight: 1, ..ServerConfig::default() });
    let mut c = Client::connect(server.local_addr()).unwrap();
    // The per-query window cap governs standing queries too: they are
    // re-evaluated forever, so an over-wide one costs strictly more
    // than its one-shot counterpart.
    let reply = c.send("subscribe M(3,2) 10 0").unwrap();
    assert!(reply.status.starts_with("ERR admission unbounded"), "{}", reply.status);
    let reply = c.send("subscribe M(3,2) 10 0 0 51").unwrap();
    assert!(reply.status.starts_with("ERR admission window length 51"), "{}", reply.status);
    assert_eq!(c.send("subscribe M(3,2) 10 0 0 50").unwrap().status, "OK subscribed id=1");
    // The in-flight query cap does not throttle subscribe (it holds no
    // query slot), and admitted queries still work alongside it.
    let reply = c.send("count M(3,2) 10 0 0 50").unwrap();
    assert!(reply.is_ok(), "{}", reply.status);
    server.shutdown();
}

#[test]
fn metrics_expose_subscription_series() {
    let (server, _) = server(ServerConfig::default());
    let mut sub = Client::connect(server.local_addr()).unwrap();
    assert!(sub.send("subscribe M(3,2) 10 0").unwrap().is_ok());
    let mut feeder = Client::connect(server.local_addr()).unwrap();
    assert!(feeder.send("add 0 1 1 2").unwrap().is_ok());
    assert!(feeder.send("add 1 2 2 3").unwrap().is_ok());
    // The completed chain is one event; it counts as pushed once the
    // subscriber's worker writes it out (within one 50ms poll tick).
    let mut all_present = false;
    for _ in 0..100 {
        let m = feeder.send("metrics").unwrap();
        let has = |needle: &str| m.data.iter().any(|l| l == needle);
        if has("flowmotif_serve_subscriptions_active 1")
            && has("flowmotif_serve_events_pushed_total 1")
            && has("flowmotif_serve_events_dropped_total 0")
            && has("flowmotif_serve_requests_total{verb=\"subscribe\"} 1")
        {
            all_present = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(all_present, "subscription series missing from metrics");
    // Subscribe is a timed verb: its latency histogram recorded the
    // registration (which runs a full seeding query).
    let m = feeder.send("metrics").unwrap();
    assert!(
        m.data.iter().any(|l| l
            .starts_with("flowmotif_serve_request_duration_seconds_count{verb=\"subscribe\"} 1")),
        "missing subscribe latency sample"
    );
    // The unsubscribe verb is counted as well.
    assert_eq!(sub.send("unsubscribe 1").unwrap().status, "OK unsubscribed id=1");
    let m = feeder.send("metrics").unwrap();
    assert!(m.data.iter().any(|l| l == "flowmotif_serve_requests_total{verb=\"unsubscribe\"} 1"));
    server.shutdown();
}

#[test]
fn busy_reply_when_inflight_cap_saturated() {
    // Cap of 0 in-flight queries is "unlimited"; use a cap of 1 and hold
    // it with a slow query from another connection? Holding a query open
    // needs a genuinely slow search; instead, saturate deterministically
    // by setting the cap to 1 and issuing queries from many threads,
    // requiring that every reply is either OK or BUSY and at least the
    // cap-respecting invariant holds.
    let (server, engine) =
        server(ServerConfig { max_inflight: 1, workers: 4, ..ServerConfig::default() });
    let mut edges = Vec::new();
    for i in 0..400u32 {
        edges.push((i % 40, (i + 1) % 40, i as i64, 5.0));
    }
    engine.ingest(edges).unwrap();
    engine.publish();
    let addr = server.local_addr();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut ok = 0u32;
                let mut busy = 0u32;
                for _ in 0..50 {
                    let reply = c.send("count M(4,3) 40 0 0 400").unwrap();
                    if reply.is_busy() {
                        assert!(reply.status.contains("cap 1"), "{}", reply.status);
                        busy += 1;
                    } else {
                        assert!(reply.is_ok(), "{}", reply.status);
                        ok += 1;
                    }
                }
                (ok, busy)
            })
        })
        .collect();
    let mut total_ok = 0;
    for h in handles {
        let (ok, _busy) = h.join().unwrap();
        total_ok += ok;
    }
    assert!(total_ok > 0, "some queries must get through");
    server.shutdown();
}

// ------------------------------------------------------------------ batching
//
// The server runs a run of pipelined `add`s as one pool job. Whatever the
// mix around those runs, the reply stream must be the one the same lines
// produce sent one at a time.

/// Whether the server closes the connection after this status line.
fn closes(status: &str) -> bool {
    status == "OK bye" || status.starts_with("ERR proto line exceeds")
}

/// Every line the server sends until it closes the connection.
fn read_to_close(reader: &mut impl BufRead, out: &mut Vec<String>) {
    let mut line = String::new();
    while reader.read_line(&mut line).unwrap() > 0 {
        out.push(line.trim_end_matches('\n').to_string());
        line.clear();
    }
}

/// The lines a fresh server sends back for `lines` written as one
/// pipelined burst.
fn pipelined(lines: &[String]) -> Vec<String> {
    let (server, _) = server(ServerConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let burst: String = lines.iter().map(|l| format!("{l}\n")).collect();
    raw.write_all(burst.as_bytes()).unwrap();
    let mut out = Vec::new();
    read_to_close(&mut BufReader::new(raw), &mut out);
    server.shutdown();
    out
}

/// The lines a fresh server sends back for `lines` sent one at a time,
/// each after the previous reply's status line, up to the line that
/// closes the connection.
fn one_at_a_time(lines: &[String]) -> Vec<String> {
    let (server, _) = server(ServerConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut out = Vec::new();
    for l in lines {
        raw.write_all(format!("{l}\n").as_bytes()).unwrap();
        let mut line = String::new();
        loop {
            line.clear();
            assert!(reader.read_line(&mut line).unwrap() > 0, "closed before replying to {l}");
            let line = line.trim_end_matches('\n').to_string();
            let status = !line.starts_with("DATA ") && !line.starts_with("EVENT ");
            out.push(line);
            if status {
                break;
            }
        }
        if closes(out.last().unwrap()) {
            break;
        }
    }
    read_to_close(&mut reader, &mut out);
    server.shutdown();
    out
}

/// Checks that `lines` pipelined answer as they do one at a time: the
/// same frames byte for byte, the same `EVENT` lines (which may sit
/// between other frames), and no `EVENT` inside a frame. Returns the
/// pipelined reply stream.
fn assert_batching_is_invisible(lines: &[String]) -> Vec<String> {
    let burst = pipelined(lines);
    let single = one_at_a_time(lines);
    let mut in_frame = false;
    for line in &burst {
        assert!(!(in_frame && line.starts_with("EVENT ")), "EVENT inside a frame: {burst:?}");
        in_frame = line.starts_with("DATA ");
    }
    let split = |out: &[String]| {
        let (mut events, frames): (Vec<String>, Vec<String>) =
            out.iter().cloned().partition(|l| l.starts_with("EVENT "));
        events.sort();
        (frames, events)
    };
    assert_eq!(split(&burst), split(&single));
    assert!(burst.last().is_some_and(|l| closes(l) || l.starts_with("EVENT ")), "{burst:?}");
    burst
}

/// `n` adds of a chain from node `first` on, one time unit apart from
/// `time` on.
fn chain(first: u32, time: i64, n: u32) -> Vec<String> {
    (0..n).map(|i| format!("add {} {} {} 2", first + i, first + i + 1, time + i as i64)).collect()
}

fn mix(parts: &[&[String]]) -> Vec<String> {
    parts.concat()
}

fn lines(ls: &[&str]) -> Vec<String> {
    ls.iter().map(|l| l.to_string()).collect()
}

#[test]
fn pipelined_valid_adds_answer_as_one_at_a_time() {
    // Longer than one job's run of 128 adds.
    let _ = assert_batching_is_invisible(&mix(&[&chain(0, 10, 300), &lines(&["session", "quit"])]));
}

#[test]
fn pipelined_rejected_and_malformed_lines_answer_as_one_at_a_time() {
    let _ = assert_batching_is_invisible(&mix(&[
        &chain(0, 10, 20),
        &lines(&["add 30 31 40 0", "add 31 32 41 -1"]), // ERR data: flow ≤ 0
        &chain(40, 50, 20),
        &lines(&["add 1 2 x 4", "bogus", "add 5 5 60 1"]), // malformed, then a self-loop
        &chain(80, 70, 20),
        &lines(&["session", "quit"]),
    ]));
}

#[test]
fn pipelined_verbs_mid_burst_answer_as_one_at_a_time() {
    let _ = assert_batching_is_invisible(&mix(&[
        &chain(0, 10, 40),
        &lines(&["ping", "publish", "count M(3,2) 10 0"]),
        &chain(100, 60, 40),
        &lines(&["publish", "count M(3,2) 10 0", "query M(3,2) 10 0", "session", "quit"]),
        // Never run: the connection closes at `quit`.
        &chain(200, 200, 5),
        &lines(&["ping"]),
    ]));
}

#[test]
fn pipelined_oversized_line_mid_burst_answers_as_one_at_a_time() {
    let huge = format!("add {}", "9".repeat(70 * 1024));
    let _ = assert_batching_is_invisible(&mix(&[
        &chain(0, 10, 100),
        &lines(&["session", &huge]),
        // Never run: the oversized line closes the connection.
        &chain(200, 200, 5),
    ]));
}

#[test]
fn pipelined_adds_on_a_subscribed_connection_answer_as_one_at_a_time() {
    let burst = assert_batching_is_invisible(&mix(&[
        &lines(&["subscribe M(3,2) 10 0", "subscribe M(3,3) 10 0"]),
        &chain(0, 10, 60),
        &lines(&["add 60 0 70 3", "publish", "query M(3,2) 5 0", "count M(3,3) 10 0"]),
        &chain(100, 100, 150),
        &lines(&["session", "quit"]),
    ]));
    assert!(burst.iter().filter(|l| l.starts_with("EVENT ")).count() > 100, "{burst:?}");
    assert!(burst.iter().any(|l| l.starts_with("DATA ")), "{burst:?}");
}
