//! The readiness-driven I/O core: a fixed set of event-loop threads
//! multiplexing every connection over [`poll(2)`](crate::poll), with
//! per-connection read/write buffers and a state machine that parses
//! many in-flight request lines (pipelining).
//!
//! Division of labour:
//!
//! * **Accept thread** — blocks in `poll` on the listener plus a waker
//!   (no sleep ticks), enforces the connection cap, and hands accepted
//!   sockets to the loops round-robin.
//! * **Event loops** — own the connections. They parse request lines,
//!   answer the cheap ones inline (`ping`, `session`, `quit`, parse
//!   errors, window-admission rejections, result-cache hits, load-shed
//!   `BUSY` replies) and never take an engine lock; everything else is
//!   dispatched to the worker pool. Replies and push `EVENT` lines are
//!   flushed on writability, so a slow reader can no longer pin a
//!   worker thread.
//! * **Worker pool** — executes engine-touching requests off a shared
//!   [`JobQueue`]. At most one job per connection is ever in flight
//!   (the session travels with the job), which preserves the
//!   protocol's strictly sequential reply order for free. A run of
//!   consecutive `add`s already waiting in a connection's queue (at most
//!   [`PIPELINE_MAX`]) travels as *one* job: the worker runs them in
//!   order and mails their replies back concatenated, so a pipelined
//!   ingest pays one pool round trip per run instead of per add. With
//!   `--pool 1`, other connections' jobs queue behind a whole run.
//!   A panic in a request is caught per request: it is answered
//!   `ERR internal`, the rest of the job still runs, and the session
//!   comes home.
//!
//! Wire semantics are bit-identical to the thread-per-connection
//! server; `tests/protocol_edge_cases.rs` is the contract.

use crate::cache::CacheKey;
use crate::lock;
use crate::poll::{poll_fds, PollFd, Waker, POLLIN, POLLOUT};
use crate::protocol::{parse_request, ErrorCode, Request, MAX_LINE_BYTES};
use crate::server::{handle_request, retry_hint, window_rejection, Session, Shared};
use crate::source::MotifEngine;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Parsed-but-unexecuted requests buffered per connection; beyond this
/// the loop stops reading (backpressure) until the queue drains. It also
/// bounds the `add`s one job carries.
const PIPELINE_MAX: usize = 128;

/// Unflushed reply bytes per connection before the loop stops reading
/// from that peer — a slow reader stalls itself, nobody else.
const WRITE_HIGH_WATER: usize = 256 * 1024;

/// One socket read per syscall.
const READ_CHUNK: usize = 16 * 1024;

/// An oversized line's tail is discarded up to this budget before the
/// error reply is sent regardless.
const DRAIN_BUDGET: usize = 16 * MAX_LINE_BYTES;

/// Quiet gap after which an oversized-line drain gives up waiting for
/// the terminating newline and sends the error reply (mirrors the old
/// per-read 50 ms timeout, and keeps the reply ahead of the close so
/// unread input cannot RST it away).
const DRAIN_QUIET: Duration = Duration::from_millis(50);

/// Engine-touching requests in flight on the worker pool: one request,
/// or a run of consecutive `add`s, executed in order. The session rides
/// along: while it is checked out, the owning connection cannot
/// dispatch another job — the serial-per-connection invariant.
#[derive(Debug)]
pub(crate) struct Job {
    slot: usize,
    gen: u64,
    loop_idx: usize,
    requests: Vec<Request>,
    session: Box<Session>,
}

/// A finished job on its way back to the owning event loop: the framed
/// replies of its requests, concatenated in order.
#[derive(Debug)]
struct Completion {
    slot: usize,
    gen: u64,
    reply: String,
    close: bool,
    session: Box<Session>,
}

/// The bounded worker pool's shared queue. `load` counts queued plus
/// executing jobs — the signal the load-shedding tiers key off.
#[derive(Debug, Default)]
pub(crate) struct JobQueue {
    q: Mutex<VecDeque<Job>>,
    cv: Condvar,
    load: AtomicUsize,
    stopped: AtomicBool,
}

impl JobQueue {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Queued plus currently executing jobs.
    pub(crate) fn load(&self) -> usize {
        self.load.load(Ordering::Acquire)
    }

    fn push(&self, job: Job) {
        self.load.fetch_add(1, Ordering::AcqRel);
        lock(&self.q).push_back(job);
        self.cv.notify_one();
    }

    /// Blocks for the next job; `None` once stopped (queued jobs left
    /// behind at shutdown are dropped, like the old pool dropped its
    /// connection backlog).
    fn pop(&self) -> Option<Job> {
        let mut q = lock(&self.q);
        loop {
            if self.stopped.load(Ordering::Acquire) {
                return None;
            }
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            q = self.cv.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn done(&self) {
        self.load.fetch_sub(1, Ordering::AcqRel);
    }

    pub(crate) fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
        self.cv.notify_all();
    }
}

/// One event loop's mailbox: sockets from the accept thread and
/// completions from the workers, plus the waker that interrupts its
/// `poll` wait.
#[derive(Debug)]
pub(crate) struct LoopInbox {
    new_conns: Mutex<Vec<TcpStream>>,
    completions: Mutex<Vec<Completion>>,
    pub(crate) waker: Waker,
}

impl LoopInbox {
    pub(crate) fn new() -> io::Result<Self> {
        Ok(Self {
            new_conns: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            waker: Waker::new()?,
        })
    }
}

/// Read-side state of one connection.
#[derive(Debug)]
enum ConnState {
    /// Parsing request lines normally.
    Open,
    /// An over-cap line is being discarded; the error reply goes out
    /// once its newline (or EOF, the budget, or a quiet gap) is seen.
    Draining { drained: usize, quiet_since: Option<Instant> },
    /// An oversized line was detected while a job was still in flight:
    /// the error reply waits for that job's reply so frames stay
    /// ordered.
    FailWait,
    /// Reply bytes are flushing; close when the buffer empties.
    Closing,
}

#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// Session id, kept outside the session so disconnect cleanup can
    /// run while the session is checked out to a worker.
    sid: u64,
    /// `None` while a job is in flight on the worker pool.
    session: Option<Box<Session>>,
    /// The session's notify queue (shared `Arc`), reachable even while
    /// the session itself is checked out, so push `EVENT` lines flush
    /// between frames without waiting for the job.
    notify: Arc<crate::server::NotifyQueue>,
    state: ConnState,
    /// Peer sent FIN: no more requests, but complete lines already
    /// received still execute and their replies still flush.
    read_closed: bool,
    /// Connection is unusable (I/O error, invalid UTF-8); freed as soon
    /// as no job is in flight.
    dead: bool,
    read_buf: Vec<u8>,
    pending: VecDeque<String>,
    write_buf: Vec<u8>,
    write_pos: usize,
}

impl Conn {
    fn wants_read(&self) -> bool {
        if self.read_closed || self.dead {
            return false;
        }
        match self.state {
            ConnState::Open => {
                self.pending.len() < PIPELINE_MAX && self.buffered_write() < WRITE_HIGH_WATER
            }
            ConnState::Draining { .. } => true,
            ConnState::FailWait | ConnState::Closing => false,
        }
    }

    fn buffered_write(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    fn push_reply(&mut self, reply: &str) {
        self.write_buf.extend_from_slice(reply.as_bytes());
    }

    /// Enters the oversized-line error path: queue the protocol error
    /// and close. Requests that arrived *before* the oversized line
    /// still run first (old sequential-server semantics), so while any
    /// are pending — or one is in flight on the pool — the error is
    /// deferred behind their frames ([`ConnState::FailWait`]).
    fn fail_oversized(&mut self) {
        self.read_buf.clear();
        if self.session.is_none() || !self.pending.is_empty() {
            self.state = ConnState::FailWait;
            return;
        }
        self.push_reply("ERR proto line exceeds 65536 bytes\n");
        self.state = ConnState::Closing;
    }

    /// Writes out as much buffered reply/event data as the socket
    /// accepts right now.
    fn try_flush(&mut self) {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        } else if self.write_pos > WRITE_HIGH_WATER {
            // Reclaim flushed prefix space without reallocating.
            self.write_buf.drain(..self.write_pos);
            self.write_pos = 0;
        }
    }

    /// Reads available bytes and splits them into pending request
    /// lines, switching to the draining state at the line-length cap.
    fn fill_read(&mut self) {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            if !matches!(self.state, ConnState::Open) || !self.wants_read() {
                return;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    // A partial trailing line is discarded, never
                    // executed — mid-stream disconnect semantics.
                    self.read_buf.clear();
                    return;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    self.extract_lines();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    fn extract_lines(&mut self) {
        loop {
            match self.read_buf.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    // The protocol cap counts the newline, like the old
                    // budgeted `read_line` did.
                    if i + 1 > MAX_LINE_BYTES {
                        self.fail_oversized();
                        return;
                    }
                    let line: Vec<u8> = self.read_buf.drain(..=i).collect();
                    let text = match std::str::from_utf8(&line) {
                        Ok(t) => t,
                        Err(_) => {
                            // Matches the old reader: a non-UTF-8 line
                            // is a transport-level failure, closed
                            // without a reply.
                            self.dead = true;
                            return;
                        }
                    };
                    self.pending.push_back(text.trim_end_matches(['\r', '\n']).to_string());
                }
                None => {
                    if self.read_buf.len() > MAX_LINE_BYTES {
                        // Requests already split off stay pending and
                        // still run; only the over-cap line (and
                        // whatever follows it) is lost.
                        let drained = self.read_buf.len();
                        self.read_buf.clear();
                        self.state = ConnState::Draining { drained, quiet_since: None };
                    }
                    return;
                }
            }
        }
    }

    /// Discards the tail of an oversized line until its newline, EOF,
    /// the budget, or (via the caller's deadline check) a quiet gap.
    fn drain_oversized(&mut self) {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            let ConnState::Draining { drained, .. } = self.state else { return };
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    self.fail_oversized();
                    return;
                }
                Ok(n) => {
                    let total = drained + n;
                    if chunk[..n].contains(&b'\n') || total > DRAIN_BUDGET {
                        self.fail_oversized();
                        return;
                    }
                    self.state = ConnState::Draining { drained: total, quiet_since: None };
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.state = ConnState::Draining { drained, quiet_since: Some(Instant::now()) };
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }
}

/// A slab slot. `gen` increments on every free so a completion for a
/// previous occupant can never be misdelivered to a new connection.
#[derive(Debug, Default)]
struct Slot {
    gen: u64,
    conn: Option<Conn>,
}

/// The accept thread: blocks in `poll` on the listener and a waker —
/// no sleep ticks — and distributes sockets round-robin across the
/// event loops, refusing connections beyond the configured cap.
pub(crate) fn accept_loop<E: MotifEngine>(
    listener: &TcpListener,
    shared: &Shared<E>,
    waker: &Waker,
    shutdown: &AtomicBool,
) {
    let mut next = 0usize;
    let mut fds = [PollFd::new(listener.as_raw_fd(), POLLIN), PollFd::new(waker.fd(), POLLIN)];
    while !shutdown.load(Ordering::Acquire) {
        for fd in &mut fds {
            fd.revents = 0;
        }
        if poll_fds(&mut fds, -1).is_err() {
            return;
        }
        waker.drain();
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        loop {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    if shared.conn_count.load(Ordering::Acquire) >= shared.config.max_connections {
                        // Admission control at the connection level.
                        let _ = stream.write_all(b"BUSY connection backlog full, retry later\n");
                        continue;
                    }
                    shared.conn_count.fetch_add(1, Ordering::AcqRel);
                    let inbox = &shared.inboxes[next % shared.inboxes.len()];
                    next = next.wrapping_add(1);
                    lock(&inbox.new_conns).push(stream);
                    inbox.waker.wake();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }
}

/// A pool worker: executes engine-touching requests and mails the
/// framed replies (and the session) back to the owning event loop.
pub(crate) fn worker_loop<E: MotifEngine>(shared: &Shared<E>) {
    while let Some(mut job) = shared.pool.pop() {
        let mut reply = String::new();
        let mut close = false;
        for request in job.requests {
            let (framed, closes) = handle_contained(request, shared, &mut job.session);
            reply.push_str(&framed);
            if closes {
                close = true;
                break;
            }
        }
        let inbox = &shared.inboxes[job.loop_idx];
        lock(&inbox.completions).push(Completion {
            slot: job.slot,
            gen: job.gen,
            reply,
            close,
            session: job.session,
        });
        shared.pool.done();
        inbox.waker.wake();
    }
}

/// [`handle_request`] with a panic contained to its own request: the
/// reply becomes `ERR internal <message>`, the session's search arena is
/// reset (the panic may have left it mid-search), and the worker lives
/// on.
fn handle_contained<E: MotifEngine>(
    request: Request,
    shared: &Shared<E>,
    session: &mut Session,
) -> (String, bool) {
    match catch_unwind(AssertUnwindSafe(|| handle_request(request, shared, session))) {
        Ok(reply) => reply,
        Err(payload) => {
            shared.metrics.panics.inc();
            session.errors += 1;
            session.scratch = Default::default();
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("request handler panicked");
            // The message must not break the one-line status framing.
            let message = message.replace(['\n', '\r'], " ");
            (format!("ERR {} {message}\n", ErrorCode::Internal.token()), false)
        }
    }
}

/// One event loop thread: multiplexes its share of the connections.
pub(crate) fn event_loop<E: MotifEngine>(
    shared: &Shared<E>,
    loop_idx: usize,
    shutdown: &AtomicBool,
) {
    let inbox = Arc::clone(&shared.inboxes[loop_idx]);
    let mut slots: Vec<Slot> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut fd_slots: Vec<usize> = Vec::new();
    loop {
        // Poll-set construction: the waker first, then every connection
        // with any current interest (idle connections always watch for
        // input, so hangups are noticed promptly).
        fds.clear();
        fd_slots.clear();
        fds.push(PollFd::new(inbox.waker.fd(), POLLIN));
        let mut timeout_ms: i32 = -1;
        for (idx, slot) in slots.iter().enumerate() {
            let Some(conn) = &slot.conn else { continue };
            let mut events = 0i16;
            if conn.wants_read() {
                events |= POLLIN;
            }
            if conn.buffered_write() > 0 {
                events |= POLLOUT;
            }
            if let ConnState::Draining { quiet_since: Some(t0), .. } = conn.state {
                let elapsed = t0.elapsed();
                let left = DRAIN_QUIET.saturating_sub(elapsed).as_millis() as i32 + 1;
                timeout_ms = if timeout_ms < 0 { left } else { timeout_ms.min(left) };
            }
            if events != 0 {
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                fd_slots.push(idx);
            }
        }
        if poll_fds(&mut fds, timeout_ms).is_err() {
            return;
        }
        inbox.waker.drain();
        if shutdown.load(Ordering::Acquire) {
            return; // dropping the slab closes every connection
        }

        // Intake: sockets from the accept thread.
        for stream in lock(&inbox.new_conns).drain(..) {
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                shared.conn_count.fetch_sub(1, Ordering::AcqRel);
                continue;
            }
            shared.sessions.fetch_add(1, Ordering::Relaxed);
            let sid = shared.next_session.fetch_add(1, Ordering::Relaxed) + 1;
            let session = Box::new(Session { id: sid, ..Session::default() });
            let notify = Arc::clone(&session.queue);
            let conn = Conn {
                stream,
                sid,
                session: Some(session),
                notify,
                state: ConnState::Open,
                read_closed: false,
                dead: false,
                read_buf: Vec::new(),
                pending: VecDeque::new(),
                write_buf: Vec::new(),
                write_pos: 0,
            };
            match free.pop() {
                Some(idx) => slots[idx].conn = Some(conn),
                None => slots.push(Slot { gen: 0, conn: Some(conn) }),
            }
        }

        // Intake: finished jobs from the worker pool.
        for comp in lock(&inbox.completions).drain(..) {
            let Some(slot) = slots.get_mut(comp.slot) else { continue };
            if slot.gen != comp.gen {
                continue; // stale completion for a freed connection
            }
            let Some(conn) = slot.conn.as_mut() else { continue };
            conn.session = Some(comp.session);
            if !conn.dead {
                conn.push_reply(&comp.reply);
                if comp.close {
                    conn.state = ConnState::Closing;
                    conn.pending.clear();
                } else if matches!(conn.state, ConnState::FailWait) {
                    // An oversized line arrived behind this job: emit
                    // the deferred protocol error after its frame.
                    conn.fail_oversized();
                }
            }
        }

        // Socket readiness.
        for (fd, &idx) in fds.iter().skip(1).zip(&fd_slots) {
            let Some(conn) = slots[idx].conn.as_mut() else { continue };
            if fd.writable() {
                conn.try_flush();
            }
            if fd.readable() {
                match conn.state {
                    ConnState::Open => conn.fill_read(),
                    ConnState::Draining { .. } => conn.drain_oversized(),
                    ConnState::FailWait | ConnState::Closing => {}
                }
            }
        }

        // Per-connection turn: expire drain deadlines, run inline work,
        // dispatch to the pool, flush events and replies, and reap.
        for (idx, slot) in slots.iter_mut().enumerate() {
            let gen = slot.gen;
            let Some(conn) = slot.conn.as_mut() else { continue };
            if let ConnState::Draining { quiet_since: Some(t0), .. } = conn.state {
                if t0.elapsed() >= DRAIN_QUIET {
                    conn.fail_oversized();
                }
            }
            process_pending(conn, shared, idx, gen, loop_idx);
            let conn = slot.conn.as_mut().unwrap();
            if matches!(conn.state, ConnState::FailWait)
                && conn.pending.is_empty()
                && conn.session.is_some()
            {
                conn.fail_oversized(); // backlog drained: emit the error
            }
            flush_events(conn, shared);
            conn.try_flush();
            let finished = conn.dead
                || (matches!(conn.state, ConnState::Closing) && conn.buffered_write() == 0)
                || (conn.read_closed
                    && conn.pending.is_empty()
                    && conn.buffered_write() == 0
                    && matches!(conn.state, ConnState::Open));
            if finished && conn.session.is_some() {
                free_slot(slot, shared);
                free.push(idx);
            }
            // A finished connection with its session still on the pool
            // waits here; the completion brings the session home and
            // the next turn frees the slot.
        }
    }
}

/// Appends any pending push notifications as framed `EVENT` lines.
/// Only whole frames and whole lines ever enter the write buffer, so
/// an `EVENT` can appear between reply frames but never inside one.
fn flush_events<E>(conn: &mut Conn, shared: &Shared<E>) {
    if conn.dead || !conn.notify.has_pending() {
        return;
    }
    let mut buf = String::new();
    let n = conn.notify.drain_into(&mut buf);
    if n > 0 {
        conn.push_reply(&buf);
        shared.metrics.events_pushed.add(n as u64);
    }
}

/// Runs buffered requests in arrival order: inline ones answer on the
/// spot; an engine-touching one (or a run of `add`s) takes the session
/// and goes to the pool (one job at a time per connection, preserving
/// reply order).
fn process_pending<E: MotifEngine>(
    conn: &mut Conn,
    shared: &Shared<E>,
    slot: usize,
    gen: u64,
    loop_idx: usize,
) {
    loop {
        // Draining/FailWait still run their pre-oversize backlog; only
        // a closing connection stops early.
        if conn.dead
            || matches!(conn.state, ConnState::Closing)
            || conn.session.is_none()
            || conn.pending.is_empty()
            || conn.buffered_write() >= WRITE_HIGH_WATER
        {
            return;
        }
        let line = conn.pending.pop_front().unwrap();
        // The session leaves the connection for the duration of one
        // request: inline handlers put it straight back, a pool
        // dispatch sends it along with the job.
        let mut session = conn.session.take().unwrap();
        let request = match parse_request(&line) {
            Ok(request) => request,
            Err(e) => {
                session.errors += 1;
                shared.metrics.inc_verb("error");
                conn.push_reply(&format!("{}\n", e.status_line()));
                conn.session = Some(session);
                continue;
            }
        };
        match request {
            Request::Ping => {
                shared.metrics.inc_verb("ping");
                conn.push_reply("OK pong\n");
                conn.session = Some(session);
                continue;
            }
            Request::Session => {
                shared.metrics.inc_verb("session");
                conn.push_reply(&format!(
                    "OK session queries={} appends={} errors={}\n",
                    session.queries, session.appends, session.errors
                ));
                conn.session = Some(session);
                continue;
            }
            Request::Quit => {
                shared.metrics.inc_verb("quit");
                conn.push_reply("OK bye\n");
                conn.state = ConnState::Closing;
                conn.pending.clear();
                conn.session = Some(session);
                continue;
            }
            Request::Query(ref spec) | Request::Count(ref spec) => {
                let materialise = matches!(request, Request::Query(_));
                let verb = if materialise { "query" } else { "count" };
                let started = Instant::now();
                if let Some(reject) = window_rejection(spec, shared, &mut session) {
                    shared.metrics.inc_verb(verb);
                    conn.push_reply(&reject);
                    shared.metrics.observe(verb, started.elapsed());
                    conn.session = Some(session);
                    continue;
                }
                let epoch = shared.current_epoch.load(Ordering::Acquire);
                let key = CacheKey::new(epoch, spec, materialise);
                if let Some(reply) = shared.cache.get(&key) {
                    shared.metrics.inc_verb(verb);
                    shared.metrics.cache_hits.inc();
                    session.queries += 1;
                    shared.queries.fetch_add(1, Ordering::Relaxed);
                    conn.push_reply(&reply);
                    shared.metrics.observe(verb, started.elapsed());
                    conn.session = Some(session);
                    continue;
                }
                shared.metrics.cache_misses.inc();
                let load = shared.pool.load();
                let backlog = shared.config.backlog.max(1);
                // Shed tiers: red (load at the backlog cap) sheds every
                // cold query; amber (half the cap) sheds only unbounded
                // — windowless — ones. The expensive cold scans go
                // first; cache hits and cheap verbs are always admitted
                // above.
                let shed = load >= backlog || (2 * load >= backlog && spec.window.is_none());
                if shed {
                    shared.metrics.inc_verb(verb);
                    session.errors += 1;
                    shared.metrics.busy.inc();
                    shared.metrics.load_shed.inc();
                    conn.push_reply(&format!(
                        "BUSY overloaded: {load} jobs queued (backlog {backlog}), retry_ms={}\n",
                        retry_hint(load)
                    ));
                    shared.metrics.observe(verb, started.elapsed());
                    conn.session = Some(session);
                    continue;
                }
            }
            _ => {}
        }
        // Dispatch with the session checked out; the completion brings
        // it back. An `add` takes up to `PIPELINE_MAX - 1` consecutive
        // `add`s queued behind it along: the first other line ends the
        // run and waits for it.
        let mut requests = vec![request];
        if matches!(requests[0], Request::Add { .. }) {
            while requests.len() < PIPELINE_MAX {
                let Some(next) = conn.pending.front() else { break };
                match parse_request(next) {
                    Ok(add @ Request::Add { .. }) => {
                        requests.push(add);
                        conn.pending.pop_front();
                    }
                    _ => break,
                }
            }
        }
        shared.metrics.pool_jobs.inc();
        shared.pool.push(Job { slot, gen, loop_idx, requests, session });
        return;
    }
}

/// Reclaims a finished connection: standing-query cleanup, connection
/// count, generation bump. Only called with the session checked in, so
/// cleanup can never race a still-executing `subscribe`.
fn free_slot<E>(slot: &mut Slot, shared: &Shared<E>) {
    let conn = slot.conn.take().expect("free_slot on an empty slot");
    slot.gen += 1;
    shared.conn_count.fetch_sub(1, Ordering::AcqRel);
    // A gone subscriber must stop costing delta evaluation, and its
    // queue must become unreachable.
    let mut st = lock(&shared.standing);
    let (subs, routes) = st.parts();
    routes.retain(|r| {
        if r.session_id == conn.sid {
            subs.unsubscribe(r.id);
            false
        } else {
            true
        }
    });
}
