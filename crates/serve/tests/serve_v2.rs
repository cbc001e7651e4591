//! Serve v2 behaviour: request pipelining on the event loop, the
//! epoch-keyed result cache, and tiered load shedding. Everything here
//! talks to a real server over a real socket, like
//! `protocol_edge_cases` — these are the additional contracts the
//! readiness-driven front-end introduces on top of the v1 protocol.

use flowmotif_core::{
    InstanceSink, Motif, MotifInstance, SearchScratch, SearchStats, StructuralMatch, TraceSink,
};
use flowmotif_graph::{Flow, GraphError, NodeId, TimeWindow, Timestamp};
use flowmotif_serve::protocol::QuerySpec;
use flowmotif_serve::{Client, EngineSnapshot, MotifEngine, Server, ServerConfig};
use flowmotif_stream::{
    EngineStats, PublishReport, Snapshot, SnapshotEngine, StandingEvent, StandingQueries,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn server(config: ServerConfig) -> (Server, Arc<SnapshotEngine>) {
    let engine = Arc::new(SnapshotEngine::new());
    let server = Server::start(Arc::clone(&engine), config, "127.0.0.1:0").unwrap();
    (server, engine)
}

/// Fetches one counter/gauge value from a `metrics` reply.
fn metric(c: &mut Client, name: &str) -> f64 {
    let reply = c.send("metrics").unwrap();
    assert!(reply.is_ok(), "{}", reply.status);
    reply
        .data
        .iter()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.trim().parse().ok()))
        .unwrap_or_else(|| panic!("metric {name} not found"))
}

// ---------------------------------------------------------------- pipelining

#[test]
fn pipelined_batch_replies_in_request_order() {
    let (server, _) = server(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    let replies = c
        .send_batch(&[
            "ping",
            "add 0 1 10 5",
            "add 1 2 12 4",
            "publish",
            "count M(3,2) 10 0",
            "bogus",
            "session",
        ])
        .unwrap();
    assert_eq!(replies.len(), 7);
    assert_eq!(replies[0].status, "OK pong");
    assert_eq!(replies[1].status, "OK added watermark=10");
    assert_eq!(replies[2].status, "OK added watermark=12");
    assert_eq!(replies[3].status, "OK published epoch=1");
    assert_eq!(replies[4].field("count"), Some("1"), "{}", replies[4].status);
    assert!(replies[5].status.starts_with("ERR proto"), "{}", replies[5].status);
    // The session verb ran last and saw everything before it.
    assert_eq!(replies[6].field("queries"), Some("1"));
    assert_eq!(replies[6].field("appends"), Some("2"));
    assert_eq!(replies[6].field("errors"), Some("1"));
    server.shutdown();
}

#[test]
fn a_pipelined_add_burst_runs_as_few_pool_jobs() {
    let (server, _) = server(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    // The `metrics` request is a pool job itself, counted before it runs.
    let before = metric(&mut c, "flowmotif_serve_pool_jobs_total");
    let lines: Vec<String> = (0..128).map(|i| format!("add {i} {} {} 1", i + 1, 10 + i)).collect();
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    for (i, reply) in c.send_batch(&refs).unwrap().iter().enumerate() {
        assert_eq!(reply.status, format!("OK added watermark={}", 10 + i));
    }
    let jobs = metric(&mut c, "flowmotif_serve_pool_jobs_total") - before - 1.0;
    assert!((1.0..=8.0).contains(&jobs), "128 pipelined adds ran as {jobs} jobs");
    assert_eq!(metric(&mut c, "flowmotif_serve_requests_total{verb=\"add\"}"), 128.0);
    server.shutdown();
}

#[test]
fn pipelined_burst_interleaves_events_only_between_frames() {
    let (server, _) = server(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    assert_eq!(c.send("subscribe M(3,2) 10 0").unwrap().status, "OK subscribed id=1");
    // A pipelined chain 0->1->...->5: each add past the first completes
    // a longer walk and fires a notification at the subscriber, whose
    // own reply stream is mid-burst — events must ride between frames.
    let lines: Vec<String> = (0..5).map(|i| format!("add {i} {} {} 2", i + 1, 10 + i)).collect();
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let replies = c.send_batch(&refs).unwrap();
    let mut events = 0;
    for (i, reply) in replies.iter().enumerate() {
        assert!(reply.is_ok(), "add {i}: {}", reply.status);
        events += reply.events.len();
    }
    // Any notification not yet flushed when the last reply was framed
    // arrives right after it; `session` is a convenient sync point.
    let tail = c.send("session").unwrap();
    events += tail.events.len();
    assert_eq!(events, 4, "each add past the first grows the 0->..->5 chain");
    server.shutdown();
}

#[test]
fn mid_burst_disconnect_executes_complete_lines_and_discards_the_partial() {
    let (server, engine) = server(ServerConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    // Two complete requests and one torn-off line, then a hard close
    // without ever reading a reply.
    raw.write_all(b"add 0 1 10 5\nadd 1 2 12 4\nadd 2 3 14 ").unwrap();
    drop(raw);
    // The complete adds land even though the client is gone; the
    // partial third line is discarded, not executed.
    let deadline = Instant::now() + Duration::from_secs(2);
    while engine.stats().appended < 2 {
        assert!(Instant::now() < deadline, "complete pipelined adds never landed");
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(engine.stats().appended, 2, "partial line must not execute");
    // The server stays healthy for new connections.
    let mut c = Client::connect(server.local_addr()).unwrap();
    assert_eq!(c.send("ping").unwrap().status, "OK pong");
    server.shutdown();
}

#[test]
fn oversized_line_mid_pipeline_answers_earlier_requests_first() {
    let (server, _) = server(ServerConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    // Two good requests, then a 70 KiB line, then another request that
    // will never be reached.
    let mut burst = Vec::from(&b"ping\nsession\n"[..]);
    burst.extend(std::iter::repeat_n(b'x', 70 * 1024));
    burst.extend(b"\nping\n");
    raw.write_all(&burst).unwrap();
    // Reply order is preserved: both pre-oversize requests answer
    // first, then the protocol error, then the connection closes.
    let mut lines = Vec::new();
    let mut reader = BufReader::new(raw);
    let mut line = String::new();
    while reader.read_line(&mut line).unwrap() > 0 {
        lines.push(line.trim_end().to_string());
        line.clear();
    }
    assert_eq!(lines.first().map(String::as_str), Some("OK pong"), "{lines:?}");
    assert!(lines[1].starts_with("OK session"), "{lines:?}");
    assert!(lines[2].starts_with("ERR proto line exceeds"), "{lines:?}");
    assert_eq!(lines.len(), 3, "the request after the oversized line must not run: {lines:?}");
    server.shutdown();
}

// --------------------------------------------------------------- result cache

#[test]
fn cache_hits_repeat_queries_and_never_serves_a_stale_epoch() {
    let (server, _) = server(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    let _ = c.send_batch(&["add 0 1 10 5", "add 1 2 12 4", "publish"]).unwrap();

    // Cold, then hot: the second identical query is a cache hit and its
    // reply is byte-identical.
    let cold = c.send("count M(3,2) 10 0").unwrap();
    assert_eq!(cold.field("count"), Some("1"), "{}", cold.status);
    let hot = c.send("count M(3,2) 10 0").unwrap();
    assert_eq!(hot.status, cold.status);
    assert_eq!(metric(&mut c, "flowmotif_serve_cache_hits_total"), 1.0);
    assert_eq!(metric(&mut c, "flowmotif_serve_cache_misses_total"), 1.0);
    assert_eq!(metric(&mut c, "flowmotif_serve_cache_entries"), 1.0);

    // A publish moves the epoch: the same query must re-run against the
    // new snapshot, never the cached epoch-1 reply.
    let _ = c.send_batch(&["add 2 3 14 3", "publish"]).unwrap();
    let fresh = c.send("count M(3,2) 10 0").unwrap();
    assert_eq!(fresh.field("count"), Some("2"), "stale cache reply served: {}", fresh.status);
    assert_eq!(fresh.field("epoch"), Some("2"));
    assert_eq!(metric(&mut c, "flowmotif_serve_cache_misses_total"), 2.0);

    // query and count cache independently (different reply shapes).
    let q = c.send("query M(3,2) 10 0").unwrap();
    assert!(q.is_ok(), "{}", q.status);
    assert_eq!(metric(&mut c, "flowmotif_serve_cache_misses_total"), 3.0);
    let q2 = c.send("query M(3,2) 10 0").unwrap();
    assert_eq!((q2.status, q2.data), (q.status, q.data));
    assert_eq!(metric(&mut c, "flowmotif_serve_cache_hits_total"), 2.0);
    server.shutdown();
}

#[test]
fn zero_cache_entries_disables_caching() {
    let (server, _) = server(ServerConfig { cache_entries: 0, ..ServerConfig::default() });
    let mut c = Client::connect(server.local_addr()).unwrap();
    let _ = c.send_batch(&["add 0 1 10 5", "publish"]).unwrap();
    let _ = c.send("count M(3,2) 10 0").unwrap();
    let _ = c.send("count M(3,2) 10 0").unwrap();
    assert_eq!(metric(&mut c, "flowmotif_serve_cache_hits_total"), 0.0);
    assert_eq!(metric(&mut c, "flowmotif_serve_cache_entries"), 0.0);
    server.shutdown();
}

// --------------------------------------------------------------- load shedding

/// Blocks query execution while closed, so tests can hold the worker
/// pool at an exact load. Everything else delegates to a real
/// [`SnapshotEngine`].
#[derive(Debug, Default)]
struct Gate {
    closed: AtomicBool,
    inside: AtomicUsize,
}

impl Gate {
    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    fn open(&self) {
        self.closed.store(false, Ordering::SeqCst);
    }

    fn block(&self) {
        self.inside.fetch_add(1, Ordering::SeqCst);
        while self.closed.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn wait_entered(&self, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.inside.load(Ordering::SeqCst) < n {
            assert!(Instant::now() < deadline, "gated query never reached the worker");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

#[derive(Debug)]
struct GatedEngine {
    inner: SnapshotEngine,
    gate: Arc<Gate>,
    /// Injected fault: appending an interaction at this time panics.
    panic_at: Option<Timestamp>,
}

impl GatedEngine {
    fn fault(&self, time: Timestamp) {
        if self.panic_at == Some(time) {
            panic!("injected fault at time {time}");
        }
    }
}

struct GatedSnapshot {
    inner: Arc<Snapshot>,
    gate: Arc<Gate>,
}

impl EngineSnapshot for GatedSnapshot {
    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn run<S: InstanceSink>(
        &self,
        spec: &QuerySpec,
        trace: Option<&'static dyn TraceSink>,
        sink: &mut S,
        scratch: &mut SearchScratch,
    ) -> SearchStats {
        self.gate.block();
        self.inner.run(spec, trace, sink, scratch)
    }

    fn describe(&self, sm: &StructuralMatch, inst: &MotifInstance) -> (String, String) {
        self.inner.describe(sm, inst)
    }
}

impl MotifEngine for GatedEngine {
    type Snapshot = GatedSnapshot;

    fn append(
        &self,
        from: NodeId,
        to: NodeId,
        time: Timestamp,
        flow: Flow,
    ) -> Result<Timestamp, GraphError> {
        self.fault(time);
        MotifEngine::append(&self.inner, from, to, time, flow)
    }

    fn publish(&self) -> u64 {
        MotifEngine::publish(&self.inner)
    }

    fn published_epoch(&self) -> u64 {
        MotifEngine::published_epoch(&self.inner)
    }

    fn set_publish_hook(&self, hook: Box<dyn Fn(u64) + Send + Sync>) {
        MotifEngine::set_publish_hook(&self.inner, hook);
    }

    fn evict_before(&self, floor: Timestamp) -> usize {
        MotifEngine::evict_before(&self.inner, floor)
    }

    fn compact(&self) {
        MotifEngine::compact(&self.inner);
    }

    fn stats(&self) -> EngineStats {
        MotifEngine::stats(&self.inner)
    }

    fn publish_report(&self) -> PublishReport {
        MotifEngine::publish_report(&self.inner)
    }

    fn snapshot(&self) -> GatedSnapshot {
        GatedSnapshot { inner: MotifEngine::snapshot(&self.inner), gate: Arc::clone(&self.gate) }
    }

    fn subscribe_standing(
        &self,
        subs: &mut StandingQueries,
        motif: Motif,
        bounds: Option<TimeWindow>,
    ) -> u64 {
        MotifEngine::subscribe_standing(&self.inner, subs, motif, bounds)
    }

    fn append_standing(
        &self,
        from: NodeId,
        to: NodeId,
        time: Timestamp,
        flow: Flow,
        subs: &mut StandingQueries,
        out: &mut Vec<StandingEvent>,
    ) -> Result<Timestamp, GraphError> {
        self.fault(time);
        MotifEngine::append_standing(&self.inner, from, to, time, flow, subs, out)
    }

    fn evict_standing(
        &self,
        floor: Timestamp,
        subs: &mut StandingQueries,
        out: &mut Vec<StandingEvent>,
    ) -> usize {
        MotifEngine::evict_standing(&self.inner, floor, subs, out)
    }
}

#[test]
fn shed_tiers_drop_cold_queries_first_and_always_admit_cache_hits() {
    let gate = Arc::new(Gate::default());
    let engine = Arc::new(GatedEngine {
        inner: SnapshotEngine::new(),
        gate: Arc::clone(&gate),
        panic_at: None,
    });
    // backlog 2: at load 1 (amber) only unbounded cold queries shed; at
    // load 2 (red) every cold query does. One worker so queued jobs
    // stay queued while the gate is closed.
    let config = ServerConfig { workers: 1, backlog: 2, ..ServerConfig::default() };
    let server = Server::start(Arc::clone(&engine), config, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let mut warm = Client::connect(addr).unwrap();
    let _ = warm.send_batch(&["add 0 1 10 5", "add 1 2 12 4", "publish"]).unwrap();
    // Warm one windowed reply into the cache while the pool is idle.
    let cached = warm.send("count M(3,2) 10 0 0 80").unwrap();
    assert_eq!(cached.field("count"), Some("1"), "{}", cached.status);

    // Jam the single worker: connection A's query blocks on the gate.
    gate.close();
    let mut jam = TcpStream::connect(addr).unwrap();
    jam.write_all(b"count M(3,2) 999 0 0 50\n").unwrap();
    // The warm-up query above already passed the gate once.
    gate.wait_entered(2);

    // Amber (load 1, half the backlog): unbounded cold queries shed...
    let mut c = Client::connect(addr).unwrap();
    let reply = c.send("count M(3,2) 10 0").unwrap();
    assert!(reply.is_busy(), "amber must shed unbounded cold queries: {}", reply.status);
    assert!(reply.status.contains("retry_ms="), "{}", reply.status);
    // ...but windowed cold queries are still admitted (they queue).
    let mut queued = TcpStream::connect(addr).unwrap();
    queued.write_all(b"count M(3,2) 777 0 0 50\n").unwrap();

    // The admitted query brings the load to 2: red, everything cold is
    // shed — windowed or not. Probing with a windowed query before that
    // admission lands would race it for the second pool slot (and an
    // admitted probe's reply cannot arrive while the gate is closed),
    // so watch the load rise through the shed replies themselves: a
    // windowless cold query is shed at every tier while the gate holds
    // the worker, and its BUSY line reports the current queue depth.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let reply = c.send("count M(3,2) 10 0").unwrap();
        assert!(reply.is_busy(), "windowless cold queries shed at every tier: {}", reply.status);
        let load: usize = reply
            .status
            .strip_prefix("BUSY overloaded: ")
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unexpected BUSY shape: {}", reply.status));
        if load >= 2 {
            break;
        }
        assert!(Instant::now() < deadline, "queued job never dispatched");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Red engaged: now even windowed cold queries are shed.
    let reply = c.send("count M(3,2) 555 0 0 50").unwrap();
    assert!(reply.is_busy(), "red must shed windowed cold queries: {}", reply.status);
    assert!(reply.status.contains("retry_ms="), "{}", reply.status);

    // Cache hits and cheap verbs are always admitted, even at red.
    let hit = c.send("count M(3,2) 10 0 0 80").unwrap();
    assert_eq!(hit.status, cached.status, "cache hits must bypass shedding");
    assert_eq!(c.send("ping").unwrap().status, "OK pong");

    // Release the gate: the jammed and queued queries complete normally.
    gate.open();
    for raw in [jam, queued] {
        let mut reader = BufReader::new(raw);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("OK count="), "{line}");
    }
    assert!(metric(&mut c, "flowmotif_serve_load_shed_total") >= 2.0);
    assert!(metric(&mut c, "flowmotif_serve_cache_hits_total") >= 1.0);
    server.shutdown();
}

// ---------------------------------------------------------- fault containment

#[test]
fn a_panicking_add_costs_only_its_own_request() {
    let engine = Arc::new(GatedEngine {
        inner: SnapshotEngine::new(),
        gate: Arc::default(),
        panic_at: Some(13),
    });
    // One worker: had the panic killed it, no later job could run.
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let server = Server::start(engine, config, "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    // An uncaught panic would lose the replies: fail, do not hang.
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // A standing query puts every add under the standing-state lock, so
    // the panic also poisons that lock.
    assert_eq!(c.send("subscribe M(3,2) 10 0").unwrap().status, "OK subscribed id=1");
    let lines: Vec<String> = (0..20).map(|i| format!("add {i} {} {} 1", i + 1, 10 + i)).collect();
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    for (i, reply) in c.send_batch(&refs).unwrap().iter().enumerate() {
        if i == 3 {
            assert_eq!(reply.status, "ERR internal injected fault at time 13");
        } else {
            assert_eq!(reply.status, format!("OK added watermark={}", 10 + i));
        }
    }
    // The session came home with its counters, and the connection and
    // the worker still serve.
    assert_eq!(c.send("ping").unwrap().status, "OK pong");
    let session = c.send("session").unwrap();
    assert_eq!(session.field("appends"), Some("20"), "{}", session.status);
    assert_eq!(session.field("errors"), Some("1"), "{}", session.status);
    assert_eq!(c.send("add 50 51 100 1").unwrap().status, "OK added watermark=100");
    let mut other = Client::connect(server.local_addr()).unwrap();
    assert_eq!(other.send("ping").unwrap().status, "OK pong");
    assert_eq!(other.send("add 60 61 101 1").unwrap().status, "OK added watermark=101");
    let stats = other.send("stats").unwrap();
    assert_eq!(stats.field("interactions"), Some("21"), "{}", stats.status);
    assert_eq!(metric(&mut other, "flowmotif_serve_panics_total"), 1.0);
    server.shutdown();
}

// ------------------------------------------------------------- connection cap

#[test]
fn connections_beyond_the_cap_are_refused_with_busy() {
    let (server, _) = server(ServerConfig { max_connections: 2, ..ServerConfig::default() });
    let addr = server.local_addr();
    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    assert_eq!(a.send("ping").unwrap().status, "OK pong");
    assert_eq!(b.send("ping").unwrap().status, "OK pong");
    // The third connection gets a BUSY line and a close, not service.
    let mut over = TcpStream::connect(addr).unwrap();
    let mut text = String::new();
    over.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("BUSY"), "{text:?}");
    // Dropping one admitted connection frees the slot.
    drop(a);
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let mut again = Client::connect(addr).unwrap();
        match again.send("ping") {
            Ok(reply) if reply.status == "OK pong" => break,
            _ => {
                assert!(Instant::now() < deadline, "freed connection slot never reusable");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    assert_eq!(b.send("ping").unwrap().status, "OK pong");
    server.shutdown();
}
