//! The TCP server: event-loop front-end, bounded worker pool, admission
//! control, load shedding, the epoch-keyed result cache, and request
//! handling.
//!
//! The I/O core (readiness loops, connection state machine, pipelining)
//! lives in the private `conn` module; this module owns the shared
//! state, the request semantics, and the [`Server`] lifecycle.

use crate::cache::ResultCache;
use crate::conn::{accept_loop, event_loop, worker_loop, JobQueue, LoopInbox};
use crate::lock;
use crate::metrics::ServerMetrics;
use crate::poll::Waker;
use crate::protocol::{parse_request, ErrorCode, QuerySpec, Request};
use crate::source::{EngineSnapshot, MotifEngine};
use flowmotif_core::{AtomicTrace, SearchScratch, TraceSink, TraceStage};
use flowmotif_graph::{Flow, GraphError, NodeId, Timestamp};
use flowmotif_stream::{StandingEvent, StandingQueries};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Push notifications a subscriber connection has not yet drained.
/// Bounded: once a slow or stalled reader falls this far behind,
/// further events are dropped (counted in
/// `flowmotif_serve_events_dropped_total`) instead of pinning
/// unbounded server memory.
const NOTIFY_QUEUE_CAP: usize = 1024;

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing engine-touching requests. Connections
    /// no longer pin workers — a worker is busy only while a request
    /// is actually running.
    pub workers: usize,
    /// Load-shedding threshold on the worker job queue (queued plus
    /// executing requests). At half this depth, unbounded (windowless)
    /// cold queries are shed with a transient `BUSY`; at the full
    /// depth, every cold query is. Cache hits and cheap verbs are
    /// always admitted.
    pub backlog: usize,
    /// Maximum queries (`query`/`count`) executing at once across all
    /// sessions; further queries get a transient `BUSY` reply. 0 means
    /// unlimited.
    pub max_inflight: usize,
    /// Per-query cap on the explicit time-window length. When set,
    /// queries must carry a window no longer than this; unbounded queries
    /// are rejected with `ERR admission`. `None` admits everything.
    pub max_window: Option<i64>,
    /// Maximum `DATA` instance lines per `query` reply (the total count
    /// is always reported in the status line).
    ///
    /// Snapshot freshness is configured on the engine itself (e.g.
    /// `SnapshotEngine::publish_every`), not here: the engine may be
    /// shared with non-server writers that publish on their own schedule.
    pub show: usize,
    /// When set, every `query`/`count` runs with per-stage tracing, and
    /// any query taking at least this many milliseconds is logged to
    /// stderr with its P1/P2/DP breakdown (0 logs every query). `None`
    /// keeps queries on the zero-overhead untraced path.
    pub slow_query_ms: Option<u64>,
    /// Event-loop threads multiplexing the connections. Each loop owns
    /// its share of the sockets; two are plenty until well past ten
    /// thousand connections.
    pub event_loop_threads: usize,
    /// Capacity of the epoch-keyed result cache (framed `query`/`count`
    /// replies). 0 disables caching.
    pub cache_entries: usize,
    /// Open-connection cap; connections beyond it are refused with a
    /// `BUSY` line at accept time.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            backlog: 16,
            max_inflight: 0,
            max_window: None,
            show: 5,
            slow_query_ms: None,
            event_loop_threads: 2,
            cache_entries: 1024,
            max_connections: 4096,
        }
    }
}

/// Rendered `EVENT` payloads awaiting delivery to one subscriber
/// connection. The producer is whichever session's `add`/`evict`
/// triggered the delta; the consumer is the subscriber's event loop,
/// which drains between reply frames.
#[derive(Debug, Default)]
pub(crate) struct NotifyQueue {
    lines: Mutex<VecDeque<String>>,
    /// Mirror of `lines.len()`, so event loops can scan thousands of
    /// idle connections without taking their queue locks.
    pending: AtomicUsize,
    /// Events dropped on overflow since the subscription was created
    /// (also summed process-wide in the metrics registry).
    dropped: AtomicU64,
}

impl NotifyQueue {
    /// Enqueues one payload; reports whether it was accepted or dropped
    /// on a full queue.
    pub(crate) fn push(&self, payload: String) -> bool {
        let mut q = lock(&self.lines);
        if q.len() >= NOTIFY_QUEUE_CAP {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            false
        } else {
            q.push_back(payload);
            self.pending.store(q.len(), Ordering::Release);
            true
        }
    }

    /// Appends every pending payload to `out` as framed `EVENT` lines;
    /// returns how many were drained.
    pub(crate) fn drain_into(&self, out: &mut String) -> usize {
        let mut q = lock(&self.lines);
        let n = q.len();
        for payload in q.drain(..) {
            out.push_str("EVENT ");
            out.push_str(&payload);
            out.push('\n');
        }
        self.pending.store(0, Ordering::Release);
        n
    }

    /// Lock-free emptiness probe for the event loops' per-iteration
    /// scan.
    pub(crate) fn has_pending(&self) -> bool {
        self.pending.load(Ordering::Acquire) > 0
    }
}

/// One subscription's delivery route: which session owns it and where
/// its events go.
#[derive(Debug)]
pub(crate) struct Route {
    /// Subscription id (assigned by [`StandingQueries`], never reused).
    pub(crate) id: u64,
    /// Owning session; only it may unsubscribe, and disconnect cleanup
    /// removes all of its routes.
    pub(crate) session_id: u64,
    /// Duplicate-subscribe key: motif walk, δ, ϕ and window.
    key: String,
    queue: Arc<NotifyQueue>,
}

/// The server's standing queries plus their delivery routes, mutated
/// together under one lock: `subscribe`/`unsubscribe` and every
/// `add`/`evict` that evaluates deltas serialize here, so each event
/// is routed exactly once and routes never dangle.
#[derive(Debug, Default)]
pub(crate) struct StandingState {
    subs: StandingQueries,
    routes: Vec<Route>,
}

impl StandingState {
    /// Split borrow for callers that walk routes while mutating subs.
    pub(crate) fn parts(&mut self) -> (&mut StandingQueries, &mut Vec<Route>) {
        (&mut self.subs, &mut self.routes)
    }
}

/// State shared by the event loops and the worker pool.
#[derive(Debug)]
pub(crate) struct Shared<E> {
    pub(crate) engine: Arc<E>,
    pub(crate) config: ServerConfig,
    /// Queries currently executing (gauge). `Arc`'d so the metrics
    /// registry can sample it from a render-time closure.
    inflight: Arc<AtomicUsize>,
    /// Connections served over the server's lifetime.
    pub(crate) sessions: Arc<AtomicU64>,
    /// Queries answered over the server's lifetime (admitted ones,
    /// including cache hits).
    pub(crate) queries: Arc<AtomicU64>,
    /// Standing queries and their notification routes.
    pub(crate) standing: Arc<Mutex<StandingState>>,
    /// Session id allocator (ids are per-server and never reused).
    pub(crate) next_session: AtomicU64,
    /// This server's metric registry and request-path handles.
    pub(crate) metrics: ServerMetrics,
    /// The epoch-keyed result cache; hits answer on the event loop.
    pub(crate) cache: Arc<ResultCache>,
    /// Lock-free copy of the engine's published epoch, advanced by the
    /// engine's publish hook — cache lookups on the event loop never
    /// touch an engine lock.
    pub(crate) current_epoch: Arc<AtomicU64>,
    /// The worker pool's job queue; its load drives the shed tiers.
    pub(crate) pool: Arc<JobQueue>,
    /// One mailbox per event loop (empty in unit tests that exercise
    /// request handling without a running server).
    pub(crate) inboxes: Vec<Arc<LoopInbox>>,
    /// Open connections across all loops (the `max_connections` cap).
    pub(crate) conn_count: Arc<AtomicUsize>,
}

/// Decrements the in-flight gauge when an admitted query finishes.
#[derive(Debug)]
struct InflightGuard<'a, E>(&'a Shared<E>);

impl<E> Drop for InflightGuard<'_, E> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

impl<E: MotifEngine> Shared<E> {
    /// Builds the shared state, registers the engine-backed gauges
    /// (epoch, resident interactions/pairs) plus the server's own
    /// in-flight/session/query/cache series into the metrics registry,
    /// and hooks the engine's publish notification to keep
    /// `current_epoch` fresh.
    pub(crate) fn new(
        engine: Arc<E>,
        config: ServerConfig,
        pool: Arc<JobQueue>,
        inboxes: Vec<Arc<LoopInbox>>,
    ) -> Self {
        let metrics = ServerMetrics::new();
        let inflight = Arc::new(AtomicUsize::new(0));
        let sessions = Arc::new(AtomicU64::new(0));
        let queries = Arc::new(AtomicU64::new(0));
        let standing = Arc::new(Mutex::new(StandingState::default()));
        let cache = Arc::new(ResultCache::new(config.cache_entries));
        let current_epoch = Arc::new(AtomicU64::new(engine.published_epoch()));
        {
            // Publish → readiness notification: the loop-side epoch copy
            // advances without any engine lock on the lookup path.
            // `fetch_max` tolerates hooks firing out of order.
            let ce = Arc::clone(&current_epoch);
            engine.set_publish_hook(Box::new(move |epoch| {
                ce.fetch_max(epoch, Ordering::AcqRel);
            }));
        }
        let r = metrics.registry();
        {
            let e = Arc::clone(&engine);
            r.gauge_fn("flowmotif_engine_epoch", "Currently published epoch", move || {
                e.published_epoch() as f64
            });
        }
        {
            let e = Arc::clone(&engine);
            r.gauge_fn(
                "flowmotif_engine_interactions",
                "Interactions currently held by the engine (resident + buffered)",
                move || e.stats().interactions as f64,
            );
        }
        {
            let e = Arc::clone(&engine);
            r.gauge_fn(
                "flowmotif_engine_pairs",
                "Connected pairs currently indexed by the engine",
                move || e.stats().pairs as f64,
            );
        }
        {
            let i = Arc::clone(&inflight);
            r.gauge_fn(
                "flowmotif_serve_inflight_queries",
                "Queries executing right now across all sessions",
                move || i.load(Ordering::Acquire) as f64,
            );
        }
        {
            let s = Arc::clone(&sessions);
            r.counter_fn("flowmotif_serve_sessions_total", "Connections served", move || {
                s.load(Ordering::Relaxed)
            });
        }
        {
            let q = Arc::clone(&queries);
            r.counter_fn("flowmotif_serve_queries_total", "Admitted queries answered", move || {
                q.load(Ordering::Relaxed)
            });
        }
        {
            let st = Arc::clone(&standing);
            r.gauge_fn(
                "flowmotif_serve_subscriptions_active",
                "Standing queries currently registered",
                move || lock(&st).subs.len() as f64,
            );
        }
        {
            let c = Arc::clone(&cache);
            r.gauge_fn(
                "flowmotif_serve_cache_entries",
                "Replies currently held by the result cache",
                move || c.len() as f64,
            );
        }
        {
            let c = Arc::clone(&cache);
            r.counter_fn(
                "flowmotif_serve_cache_evictions_total",
                "Result-cache entries evicted under capacity pressure",
                move || c.evictions(),
            );
        }
        Self {
            engine,
            config,
            inflight,
            sessions,
            queries,
            standing,
            next_session: AtomicU64::new(0),
            metrics,
            cache,
            current_epoch,
            pool,
            inboxes,
            conn_count: Arc::new(AtomicUsize::new(0)),
        }
    }
}

impl<E> Shared<E> {
    /// Admission check for one query: bumps the in-flight gauge or
    /// reports how many queries are already running.
    fn try_admit(&self) -> Result<InflightGuard<'_, E>, usize> {
        let max = self.config.max_inflight;
        let mut current = self.inflight.load(Ordering::Acquire);
        loop {
            if max > 0 && current >= max {
                return Err(current);
            }
            match self.inflight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(InflightGuard(self)),
                Err(observed) => current = observed,
            }
        }
    }
}

/// The retry-after hint (milliseconds) carried by transient `BUSY`
/// replies, scaled to the observed congestion.
pub(crate) fn retry_hint(load: usize) -> u64 {
    ((10 + 2 * load) as u64).min(1000)
}

/// The canonical spec string a `query`/`count` reply is cached under
/// (combined with the epoch): everything that selects the reply bytes.
pub(crate) fn cache_key(spec: &QuerySpec, materialise: bool) -> String {
    format!(
        "{}|{}|{}|{}|{:?}|{:?}",
        if materialise { "query" } else { "count" },
        spec.motif.path(),
        spec.motif.delta(),
        spec.motif.phi(),
        spec.window,
        spec.order,
    )
}

/// A running motif query server. Dropping (or [`Server::shutdown`])
/// stops the accept loop, drains the workers and joins all threads;
/// [`Server::join`] instead blocks forever (the CLI's foreground mode).
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_waker: Arc<Waker>,
    inboxes: Vec<Arc<LoopInbox>>,
    pool: Arc<JobQueue>,
    accept: Option<JoinHandle<()>>,
    loops: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:7878"`, port 0 picks a free port)
    /// and starts the accept thread, `config.event_loop_threads` event
    /// loops and `config.workers` workers. The `engine` — any
    /// [`MotifEngine`]: the in-memory
    /// [`flowmotif_stream::SnapshotEngine`] or the segment-backed
    /// [`flowmotif_stream::EpochEngine`] — is shared; the caller may
    /// keep ingesting into it directly while the server runs.
    pub fn start<E: MotifEngine, A: ToSocketAddrs>(
        engine: Arc<E>,
        config: ServerConfig,
        addr: A,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let loop_threads = config.event_loop_threads.max(1);
        let worker_threads = config.workers.max(1);
        let pool = Arc::new(JobQueue::new());
        let inboxes: Vec<Arc<LoopInbox>> =
            (0..loop_threads).map(|_| LoopInbox::new().map(Arc::new)).collect::<io::Result<_>>()?;
        let accept_waker = Arc::new(Waker::new()?);
        let shared = Arc::new(Shared::new(engine, config, Arc::clone(&pool), inboxes.clone()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let loops: Vec<JoinHandle<()>> = (0..loop_threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let shutdown = Arc::clone(&shutdown);
                std::thread::spawn(move || event_loop(&shared, i, &shutdown))
            })
            .collect();
        let workers: Vec<JoinHandle<()>> = (0..worker_threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            let shutdown = Arc::clone(&shutdown);
            let waker = Arc::clone(&accept_waker);
            std::thread::spawn(move || accept_loop(&listener, &shared, &waker, &shutdown))
        };
        Ok(Server {
            addr,
            shutdown,
            accept_waker,
            inboxes,
            pool,
            accept: Some(accept),
            loops,
            workers,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes every session and joins every thread.
    /// A request already executing on a worker finishes first.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks the calling thread until the server shuts down (which, with
    /// the handle consumed, is when the process exits) — the foreground
    /// mode behind `flowmotif serve`.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.loops.drain(..) {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.accept_waker.wake();
        for inbox in &self.inboxes {
            inbox.waker.wake();
        }
        self.pool.stop();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.loops.drain(..) {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Per-connection counters, reported by the `session` command, plus the
/// session's private search arena: snapshots are shared and immutable,
/// so the reusable P1→P2 buffers live with the session — after its
/// first query, a session's searches run allocation-free per match no
/// matter how many snapshot epochs go by. The session travels with a
/// dispatched job and returns with its completion, which is what makes
/// per-connection execution serial.
#[derive(Debug, Default)]
pub(crate) struct Session {
    /// Per-server unique id; ties this session to its [`Route`]s.
    pub(crate) id: u64,
    pub(crate) queries: u64,
    pub(crate) appends: u64,
    pub(crate) errors: u64,
    pub(crate) scratch: SearchScratch,
    /// This connection's pending push notifications. Shared with every
    /// route the session subscribes; drained by the event loop between
    /// reply frames.
    pub(crate) queue: Arc<NotifyQueue>,
}

/// Processes one request line into a framed reply (every returned string
/// ends with the status line + `\n`). The bool asks the caller to close
/// the connection after writing.
///
/// This is the reference one-line-in/one-reply-out semantics the event
/// loop's pipelined path must be observably identical to; the unit tests
/// below exercise request handling through it. The live server goes
/// through `crate::conn` instead, which needs the parsed [`Request`] to
/// route between loop-inline and worker execution.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn handle_line<E: MotifEngine>(
    line: &str,
    shared: &Shared<E>,
    session: &mut Session,
) -> (String, bool) {
    match parse_request(line) {
        Ok(request) => handle_request(request, shared, session),
        Err(e) => {
            session.errors += 1;
            shared.metrics.inc_verb("error");
            (format!("{}\n", e.status_line()), false)
        }
    }
}

/// The metrics label of a request (a `VERBS` member in `metrics.rs`).
fn verb_of(request: &Request) -> &'static str {
    match request {
        Request::Ping => "ping",
        Request::Add { .. } => "add",
        Request::Query(_) => "query",
        Request::Count(_) => "count",
        Request::Subscribe(_) => "subscribe",
        Request::Unsubscribe(_) => "unsubscribe",
        Request::Publish => "publish",
        Request::Evict(_) => "evict",
        Request::Compact => "compact",
        Request::Stats => "stats",
        Request::Session => "session",
        Request::Metrics => "metrics",
        Request::Quit => "quit",
    }
}

pub(crate) fn handle_request<E: MotifEngine>(
    request: Request,
    shared: &Shared<E>,
    session: &mut Session,
) -> (String, bool) {
    let engine = &shared.engine;
    let verb = verb_of(&request);
    shared.metrics.inc_verb(verb);
    // Engine-touching verbs get a latency sample; the rest answer from
    // local state and would only measure clock overhead.
    let timed = matches!(
        request,
        Request::Add { .. }
            | Request::Query(_)
            | Request::Count(_)
            | Request::Publish
            | Request::Subscribe(_)
    );
    let started = timed.then(Instant::now);
    let reply = match request {
        Request::Ping => ("OK pong\n".to_string(), false),
        Request::Add { from, to, time, flow } => {
            session.appends += 1;
            match append_with_standing(shared, from, to, time, flow) {
                Ok(watermark) => (format!("OK added watermark={watermark}\n"), false),
                Err(e) => {
                    session.errors += 1;
                    (format!("ERR {} {e}\n", ErrorCode::Data.token()), false)
                }
            }
        }
        Request::Query(spec) => run_query(&spec, shared, session, true),
        Request::Count(spec) => run_query(&spec, shared, session, false),
        Request::Subscribe(spec) => subscribe(spec, shared, session),
        Request::Unsubscribe(id) => unsubscribe(id, shared, session),
        Request::Publish => (format!("OK published epoch={}\n", engine.publish()), false),
        Request::Evict(floor) => {
            (format!("OK evicted={}\n", evict_with_standing(shared, floor)), false)
        }
        Request::Compact => {
            engine.compact();
            ("OK compacted\n".to_string(), false)
        }
        Request::Stats => {
            let s = engine.stats();
            let p = engine.publish_report();
            let fmt_t = |t: Option<i64>| t.map_or_else(|| "-".to_string(), |t| t.to_string());
            (
                format!(
                    "OK stats interactions={} pairs={} watermark={} floor={} appended={} \
                     evicted={} epoch={} inflight={} sessions={} queries={} last_publish_ns={} \
                     last_publish_dirty={}\n",
                    s.interactions,
                    s.pairs,
                    fmt_t(s.watermark),
                    fmt_t(s.floor),
                    s.appended,
                    s.evicted,
                    engine.published_epoch(),
                    shared.inflight.load(Ordering::Acquire),
                    shared.sessions.load(Ordering::Relaxed),
                    shared.queries.load(Ordering::Relaxed),
                    p.duration.as_nanos(),
                    p.dirty_pairs,
                ),
                false,
            )
        }
        Request::Metrics => {
            let text = shared.metrics.render();
            let mut reply = String::with_capacity(text.len() + 64);
            let mut lines = 0usize;
            for line in text.lines() {
                reply.push_str("DATA ");
                reply.push_str(line);
                reply.push('\n');
                lines += 1;
            }
            reply.push_str(&format!("OK metrics lines={lines}\n"));
            (reply, false)
        }
        Request::Session => (
            format!(
                "OK session queries={} appends={} errors={}\n",
                session.queries, session.appends, session.errors
            ),
            false,
        ),
        Request::Quit => ("OK bye\n".to_string(), true),
    };
    if let Some(t0) = started {
        shared.metrics.observe(verb, t0.elapsed());
    }
    reply
}

/// Per-query window cap: a non-transient admission error, applied to
/// `query`/`count` and `subscribe` alike (a standing query is a query
/// re-evaluated forever — admitting an over-wide one would be worse
/// than admitting it once). Returns the rejection reply, if any.
pub(crate) fn window_rejection<E>(
    spec: &QuerySpec,
    shared: &Shared<E>,
    session: &mut Session,
) -> Option<String> {
    let cap = shared.config.max_window?;
    let admission = ErrorCode::Admission.token();
    match spec.window {
        None => {
            session.errors += 1;
            shared.metrics.admission_rejected.inc();
            Some(format!(
                "ERR {admission} unbounded query refused: supply a window of at most {cap} \
                 time units\n"
            ))
        }
        Some(w) if w.length() > cap => {
            session.errors += 1;
            shared.metrics.admission_rejected.inc();
            Some(format!(
                "ERR {admission} window length {} exceeds the per-query cap {cap}\n",
                w.length()
            ))
        }
        Some(_) => None,
    }
}

/// Routes each delta event to its subscription's notify queue (drops,
/// with a counter, when the subscriber has fallen [`NOTIFY_QUEUE_CAP`]
/// events behind), then nudges every event loop so delivery does not
/// wait for unrelated socket traffic.
fn dispatch_events<E>(events: &[StandingEvent], routes: &[Route], shared: &Shared<E>) {
    if events.is_empty() {
        return;
    }
    for ev in events {
        if let Some(route) = routes.iter().find(|r| r.id == ev.subscription) {
            if !route.queue.push(ev.to_string()) {
                shared.metrics.events_dropped.inc();
            }
        }
    }
    for inbox in &shared.inboxes {
        inbox.waker.wake();
    }
}

/// Appends one interaction, delta-evaluating the standing queries when
/// any are registered. The standing lock is held across the append so
/// concurrent `subscribe`s cannot miss or double-see an event.
fn append_with_standing<E: MotifEngine>(
    shared: &Shared<E>,
    from: NodeId,
    to: NodeId,
    time: Timestamp,
    flow: Flow,
) -> Result<Timestamp, GraphError> {
    let mut st = lock(&shared.standing);
    if st.subs.is_empty() {
        // Quiet path: no subscribers, no delta work.
        return shared.engine.append(from, to, time, flow);
    }
    let StandingState { subs, routes } = &mut *st;
    let mut events = Vec::new();
    let watermark = shared.engine.append_standing(from, to, time, flow, subs, &mut events)?;
    dispatch_events(&events, routes, shared);
    Ok(watermark)
}

/// Evicts below `floor`, delta-evaluating the standing queries when any
/// are registered (evicting old events can make a smaller instance
/// maximal).
fn evict_with_standing<E: MotifEngine>(shared: &Shared<E>, floor: Timestamp) -> usize {
    let mut st = lock(&shared.standing);
    if st.subs.is_empty() {
        return shared.engine.evict_before(floor);
    }
    let StandingState { subs, routes } = &mut *st;
    let mut events = Vec::new();
    let evicted = shared.engine.evict_standing(floor, subs, &mut events);
    dispatch_events(&events, routes, shared);
    evicted
}

/// Registers a standing query for this session: admission-checked like
/// a one-shot query, rejected as a duplicate if the session already
/// subscribed the same motif and window, then seeded silently against
/// the engine's current graph.
fn subscribe<E: MotifEngine>(
    spec: QuerySpec,
    shared: &Shared<E>,
    session: &mut Session,
) -> (String, bool) {
    if let Some(reject) = window_rejection(&spec, shared, session) {
        return (reject, false);
    }
    let key = format!(
        "{}|{}|{}|{:?}",
        spec.motif.path(),
        spec.motif.delta(),
        spec.motif.phi(),
        spec.window
    );
    let mut st = lock(&shared.standing);
    if st.routes.iter().any(|r| r.session_id == session.id && r.key == key) {
        session.errors += 1;
        return (
            format!(
                "ERR {} already subscribed to this motif and window on this session\n",
                ErrorCode::Query.token()
            ),
            false,
        );
    }
    let StandingState { subs, routes } = &mut *st;
    let id = shared.engine.subscribe_standing(subs, spec.motif, spec.window);
    routes.push(Route { id, session_id: session.id, key, queue: Arc::clone(&session.queue) });
    (format!("OK subscribed id={id}\n"), false)
}

/// Removes a standing query; only the owning session may do so.
fn unsubscribe<E>(id: u64, shared: &Shared<E>, session: &mut Session) -> (String, bool) {
    let mut st = lock(&shared.standing);
    let owned = st.routes.iter().position(|r| r.id == id && r.session_id == session.id);
    match owned {
        Some(pos) => {
            st.routes.remove(pos);
            st.subs.unsubscribe(id);
            (format!("OK unsubscribed id={id}\n"), false)
        }
        None => {
            session.errors += 1;
            (
                format!("ERR {} no subscription {id} on this session\n", ErrorCode::Query.token()),
                false,
            )
        }
    }
}

/// Admission control plus the actual snapshot search, shared by `query`
/// (instances on `DATA` lines) and `count` (status line only). A clean
/// reply is stored in the result cache under the epoch it ran against,
/// so identical queries at the same epoch are answered by the event
/// loop without reaching this function again.
fn run_query<E: MotifEngine>(
    spec: &QuerySpec,
    shared: &Shared<E>,
    session: &mut Session,
    materialise: bool,
) -> (String, bool) {
    if let Some(reject) = window_rejection(spec, shared, session) {
        return (reject, false);
    }
    // In-flight cap: a transient, retryable rejection.
    let _guard = match shared.try_admit() {
        Ok(guard) => guard,
        Err(inflight) => {
            session.errors += 1;
            shared.metrics.busy.inc();
            return (
                format!(
                    "BUSY {inflight} queries in flight (cap {}), retry_ms={}\n",
                    shared.config.max_inflight,
                    retry_hint(inflight)
                ),
                false,
            );
        }
    };
    session.queries += 1;
    shared.queries.fetch_add(1, Ordering::Relaxed);

    // Slow-query tracing: this worker's leaked trace arena, reset per
    // query. `None` (the default) keeps the search entirely untraced.
    let trace = shared.config.slow_query_ms.map(|_| worker_trace());
    let started = trace.map(|t| {
        t.reset();
        Instant::now()
    });
    let sink: Option<&'static dyn TraceSink> = trace.map(|t| t as &'static dyn TraceSink);

    // The query runs on an immutable snapshot: no writer lock is held, and
    // concurrent appends/publishes cannot change what this query sees.
    let snapshot = shared.engine.snapshot();
    let epoch = snapshot.epoch();
    let motif = &spec.motif;
    if !materialise {
        let (count, stats) =
            snapshot.count_with(motif, spec.window, &mut session.scratch, sink, spec.order);
        note_slow("count", spec, epoch, trace, started, shared);
        let reply =
            format!("OK count={count} matches={} epoch={epoch}\n", stats.structural_matches);
        shared.cache.insert((epoch, cache_key(spec, false)), Arc::from(reply.as_str()));
        return (reply, false);
    }
    let result = snapshot.query_with(motif, spec.window, &mut session.scratch, sink, spec.order);
    note_slow("query", spec, epoch, trace, started, shared);
    let total = result.num_instances();
    let mut reply = String::new();
    let mut shown = 0usize;
    'outer: for (sm, instances) in &result.groups {
        for inst in instances {
            if shown >= shared.config.show {
                break 'outer;
            }
            let (nodes, sets) = snapshot.describe(sm, inst);
            reply.push_str(&format!(
                "DATA nodes={nodes} flow={} span={} sets={sets}\n",
                inst.flow,
                inst.span(),
            ));
            shown += 1;
        }
    }
    reply.push_str(&format!(
        "OK query instances={total} shown={shown} matches={} epoch={epoch}\n",
        result.stats.structural_matches
    ));
    shared.cache.insert((epoch, cache_key(spec, true)), Arc::from(reply.as_str()));
    (reply, false)
}

/// This worker thread's trace arena, allocated once and leaked: the
/// search hook needs a `&'static` sink, and the worker pool is fixed,
/// so the leak is bounded by the thread count.
fn worker_trace() -> &'static AtomicTrace {
    thread_local! {
        static TRACE: &'static AtomicTrace = Box::leak(Box::new(AtomicTrace::new()));
    }
    TRACE.with(|t| *t)
}

/// Logs one finished query to stderr if it crossed the
/// `slow_query_ms` threshold, with its per-stage breakdown.
fn note_slow<E: MotifEngine>(
    verb: &'static str,
    spec: &QuerySpec,
    epoch: u64,
    trace: Option<&'static AtomicTrace>,
    started: Option<Instant>,
    shared: &Shared<E>,
) {
    let (Some(trace), Some(started), Some(threshold_ms)) =
        (trace, started, shared.config.slow_query_ms)
    else {
        return;
    };
    let elapsed = started.elapsed();
    if (elapsed.as_millis() as u64) < threshold_ms {
        return;
    }
    shared.metrics.slow_queries.inc();
    let window =
        spec.window.map_or_else(|| "-".to_string(), |w| format!("[{},{}]", w.start, w.end));
    eprintln!(
        "slow-query verb={verb} window={window} epoch={epoch} total_us={} p1_us={} p2_us={} \
         dp_us={} matches={} instances={}",
        elapsed.as_micros(),
        trace.nanos(TraceStage::P1) / 1_000,
        trace.nanos(TraceStage::P2) / 1_000,
        trace.nanos(TraceStage::Dp) / 1_000,
        trace.count(TraceStage::P1),
        trace.count(TraceStage::P2),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(config: ServerConfig) -> Shared<flowmotif_stream::SnapshotEngine> {
        Shared::new(
            Arc::new(flowmotif_stream::SnapshotEngine::new()),
            config,
            Arc::new(JobQueue::new()),
            Vec::new(),
        )
    }

    #[test]
    fn inflight_gauge_caps_and_releases() {
        let s = shared(ServerConfig { max_inflight: 2, ..ServerConfig::default() });
        let a = s.try_admit().unwrap();
        let _b = s.try_admit().unwrap();
        assert_eq!(s.try_admit().unwrap_err(), 2);
        drop(a);
        let _c = s.try_admit().unwrap();
        assert_eq!(s.inflight.load(Ordering::Acquire), 2);
    }

    #[test]
    fn unlimited_inflight_still_counts() {
        let s = shared(ServerConfig::default());
        let g = s.try_admit().unwrap();
        assert_eq!(s.inflight.load(Ordering::Acquire), 1);
        drop(g);
        assert_eq!(s.inflight.load(Ordering::Acquire), 0);
    }

    #[test]
    fn window_cap_rejects_wide_and_unbounded_queries() {
        let s = shared(ServerConfig { max_window: Some(100), ..ServerConfig::default() });
        let mut session = Session::default();
        let (reply, close) = handle_line("count M(3,2) 10 0", &s, &mut session);
        assert!(reply.starts_with("ERR admission unbounded"), "{reply}");
        assert!(!close);
        let (reply, _) = handle_line("count M(3,2) 10 0 0 101", &s, &mut session);
        assert!(reply.starts_with("ERR admission window length 101"), "{reply}");
        let (reply, _) = handle_line("count M(3,2) 10 0 0 100", &s, &mut session);
        assert!(reply.starts_with("OK count=0"), "{reply}");
        assert_eq!(session.errors, 2);
        assert_eq!(session.queries, 1);
    }

    #[test]
    fn session_and_stats_replies() {
        let s = shared(ServerConfig::default());
        let mut session = Session::default();
        let (r, _) = handle_line("add 0 1 10 5", &s, &mut session);
        assert_eq!(r, "OK added watermark=10\n");
        let (r, _) = handle_line("publish", &s, &mut session);
        assert_eq!(r, "OK published epoch=1\n");
        let (r, _) = handle_line("query M(3,2) 10 0", &s, &mut session);
        assert!(r.ends_with("OK query instances=0 shown=0 matches=0 epoch=1\n"), "{r}");
        let (r, _) = handle_line("bogus", &s, &mut session);
        assert!(r.starts_with("ERR proto"), "{r}");
        let (r, _) = handle_line("session", &s, &mut session);
        assert_eq!(r, "OK session queries=1 appends=1 errors=1\n");
        let (r, _) = handle_line("stats", &s, &mut session);
        assert!(r.contains("interactions=1"), "{r}");
        assert!(r.contains("epoch=1"), "{r}");
        // Publish telemetry: epoch 1 published one dirty pair, and the
        // duration field is present (any value).
        assert!(r.contains("last_publish_dirty=1"), "{r}");
        assert!(r.contains("last_publish_ns="), "{r}");
        let (r, close) = handle_line("quit", &s, &mut session);
        assert_eq!(r, "OK bye\n");
        assert!(close);
    }

    #[test]
    fn metrics_reply_covers_every_tier() {
        let s = shared(ServerConfig::default());
        let mut session = Session::default();
        let _ = handle_line("add 0 1 10 5", &s, &mut session);
        let _ = handle_line("publish", &s, &mut session);
        let _ = handle_line("query M(3,2) 10 0", &s, &mut session);
        let _ = handle_line("bogus", &s, &mut session);
        let (r, close) = handle_line("metrics", &s, &mut session);
        assert!(!close);
        assert!(r.ends_with(&format!("OK metrics lines={}\n", r.lines().count() - 1)), "{r}");
        let body: Vec<&str> = r.lines().filter_map(|l| l.strip_prefix("DATA ")).collect();
        // Prometheus text framing: HELP/TYPE headers once per family.
        assert!(body.contains(&"# TYPE flowmotif_serve_requests_total counter"), "{r}");
        assert!(body.contains(&"# TYPE flowmotif_serve_request_duration_seconds histogram"));
        // Serve tier: per-verb counters saw the requests above.
        assert!(body.contains(&"flowmotif_serve_requests_total{verb=\"query\"} 1"), "{r}");
        assert!(body.contains(&"flowmotif_serve_requests_total{verb=\"add\"} 1"));
        assert!(body.contains(&"flowmotif_serve_requests_total{verb=\"error\"} 1"));
        // The query latency histogram recorded one sample.
        assert!(
            body.iter().any(|l| l
                .starts_with("flowmotif_serve_request_duration_seconds_count{verb=\"query\"} 1")),
            "{r}"
        );
        // Engine gauges come from the live engine.
        assert!(body.contains(&"flowmotif_engine_epoch 1"), "{r}");
        assert!(body.contains(&"flowmotif_engine_interactions 1"));
        // The result cache's series: the query above was inserted once.
        assert!(body.contains(&"flowmotif_serve_cache_entries 1"), "{r}");
        assert!(body.contains(&"flowmotif_serve_cache_hits_total 0"), "{r}");
        assert!(body.contains(&"flowmotif_serve_cache_evictions_total 0"), "{r}");
        // Stream and storage families are present (process-wide values).
        assert!(body.iter().any(|l| l.starts_with("flowmotif_stream_publishes_total ")));
        assert!(body.iter().any(|l| l.starts_with("flowmotif_storage_segment_mapped_bytes ")));
    }

    #[test]
    fn rejection_counters_track_busy_and_admission() {
        let s = shared(ServerConfig {
            max_inflight: 1,
            max_window: Some(100),
            ..ServerConfig::default()
        });
        let mut session = Session::default();
        let (r, _) = handle_line("count M(3,2) 10 0", &s, &mut session);
        assert!(r.starts_with("ERR admission"), "{r}");
        assert_eq!(s.metrics.admission_rejected.get(), 1);
        let _held = s.try_admit().unwrap();
        let (r, _) = handle_line("count M(3,2) 10 0 0 50", &s, &mut session);
        assert!(r.starts_with("BUSY"), "{r}");
        assert!(r.contains("retry_ms="), "{r}");
        assert_eq!(s.metrics.busy.get(), 1);
    }

    #[test]
    fn run_query_fills_the_result_cache() {
        let s = shared(ServerConfig::default());
        let mut session = Session::default();
        let _ = handle_line("add 0 1 10 5", &s, &mut session);
        let _ = handle_line("add 1 2 12 4", &s, &mut session);
        let _ = handle_line("publish", &s, &mut session);
        // The publish hook advanced the loop-side epoch copy.
        assert_eq!(s.current_epoch.load(Ordering::Acquire), 1);
        let (r, _) = handle_line("count M(3,2) 10 0", &s, &mut session);
        assert!(r.starts_with("OK count=1"), "{r}");
        let spec = match parse_request("count M(3,2) 10 0").unwrap() {
            Request::Count(spec) => spec,
            _ => unreachable!(),
        };
        let key = (1u64, cache_key(&spec, false));
        assert_eq!(s.cache.get(&key).as_deref(), Some(r.as_str()));
        // A different epoch is a different key: nothing stale to serve.
        assert!(s.cache.get(&(2u64, cache_key(&spec, false))).is_none());
    }

    #[test]
    fn slow_query_threshold_zero_logs_and_counts_every_query() {
        let s = shared(ServerConfig { slow_query_ms: Some(0), ..ServerConfig::default() });
        let mut session = Session::default();
        let _ = handle_line("add 0 1 10 5", &s, &mut session);
        let _ = handle_line("publish", &s, &mut session);
        let (r, _) = handle_line("count M(3,2) 10 0", &s, &mut session);
        assert!(r.starts_with("OK count="), "{r}");
        let (r, _) = handle_line("query M(3,2) 10 0", &s, &mut session);
        assert!(r.contains("OK query"), "{r}");
        assert_eq!(s.metrics.slow_queries.get(), 2);
        // A huge threshold traces but never logs.
        let s = shared(ServerConfig { slow_query_ms: Some(u64::MAX), ..ServerConfig::default() });
        let (r, _) = handle_line("count M(3,2) 10 0", &s, &mut session);
        assert!(r.starts_with("OK count="), "{r}");
        assert_eq!(s.metrics.slow_queries.get(), 0);
    }

    #[test]
    fn subscribe_append_pushes_events_and_unsubscribe_stops_them() {
        let s = shared(ServerConfig::default());
        let mut session = Session::default();
        let (r, _) = handle_line("subscribe M(3,2) 10 0", &s, &mut session);
        assert_eq!(r, "OK subscribed id=1\n");
        // The same motif and window twice on one session is a mistake.
        let (r, _) = handle_line("subscribe M(3,2) 10 0", &s, &mut session);
        assert!(r.starts_with("ERR query already subscribed"), "{r}");
        // A different window is a distinct subscription.
        let (r, _) = handle_line("subscribe M(3,2) 10 0 0 100", &s, &mut session);
        assert_eq!(r, "OK subscribed id=2\n");
        assert!(s.metrics.render().contains("flowmotif_serve_subscriptions_active 2"));

        // Completing a 0->1->2 chain notifies both subscriptions.
        let (r, _) = handle_line("add 0 1 1 2", &s, &mut session);
        assert_eq!(r, "OK added watermark=1\n");
        let _ = handle_line("add 1 2 2 3", &s, &mut session);
        let mut buf = String::new();
        assert!(session.queue.has_pending());
        assert_eq!(session.queue.drain_into(&mut buf), 2);
        assert!(!session.queue.has_pending());
        assert!(buf.contains("EVENT id=1 match=0-1-2 flow=2 first=1 last=2 size=2\n"), "{buf}");
        assert!(buf.contains("EVENT id=2 match=0-1-2 flow=2 first=1 last=2 size=2\n"), "{buf}");

        let (r, _) = handle_line("unsubscribe 1", &s, &mut session);
        assert_eq!(r, "OK unsubscribed id=1\n");
        let (r, _) = handle_line("unsubscribe 1", &s, &mut session);
        assert!(r.starts_with("ERR query no subscription 1"), "{r}");
        // Unknown ids and other sessions' ids read the same way.
        let (r, _) = handle_line("unsubscribe 99", &s, &mut session);
        assert!(r.starts_with("ERR query no subscription 99"), "{r}");

        // Only the surviving subscription sees the next instance.
        let _ = handle_line("add 2 3 3 4", &s, &mut session);
        buf.clear();
        assert_eq!(session.queue.drain_into(&mut buf), 1);
        assert_eq!(buf, "EVENT id=2 match=1-2-3 flow=3 first=2 last=3 size=2\n");
        assert!(s.metrics.render().contains("flowmotif_serve_subscriptions_active 1"));
    }

    #[test]
    fn subscribe_respects_window_admission() {
        let s = shared(ServerConfig { max_window: Some(100), ..ServerConfig::default() });
        let mut session = Session::default();
        let (r, _) = handle_line("subscribe M(3,2) 10 0", &s, &mut session);
        assert!(r.starts_with("ERR admission unbounded"), "{r}");
        let (r, _) = handle_line("subscribe M(3,2) 10 0 0 101", &s, &mut session);
        assert!(r.starts_with("ERR admission window length 101"), "{r}");
        assert_eq!(s.metrics.admission_rejected.get(), 2);
        let (r, _) = handle_line("subscribe M(3,2) 10 0 0 100", &s, &mut session);
        assert_eq!(r, "OK subscribed id=1\n");
    }

    #[test]
    fn notify_queue_drops_past_capacity_with_counter() {
        let q = NotifyQueue::default();
        for i in 0..NOTIFY_QUEUE_CAP {
            assert!(q.push(format!("ev{i}")));
        }
        assert!(!q.push("overflow".to_string()));
        assert_eq!(q.dropped.load(Ordering::Relaxed), 1);
        let mut buf = String::new();
        assert_eq!(q.drain_into(&mut buf), NOTIFY_QUEUE_CAP);
        assert!(buf.starts_with("EVENT ev0\n"), "oldest survives, newest is shed");
        assert!(q.push("after drain".to_string()));
    }

    #[test]
    fn add_rejections_are_data_errors() {
        let s = shared(ServerConfig::default());
        let mut session = Session::default();
        let (r, _) = handle_line("add 0 0 10 5", &s, &mut session);
        assert!(r.starts_with("ERR data"), "{r}");
        let (r, _) = handle_line("add 0 1 10 -5", &s, &mut session);
        assert!(r.starts_with("ERR data"), "{r}");
        assert_eq!(session.errors, 2);
    }
}
