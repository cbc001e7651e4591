//! Network front-end for the resident motif query engine: a
//! dependency-free TCP line-protocol server over
//! [`flowmotif_stream::SnapshotEngine`].
//!
//! The paper positions flow-motif search as an analytics primitive over
//! live interaction networks; this crate turns the single-threaded
//! resident engine into a multi-client service:
//!
//! * [`Server`] — a **readiness-driven event loop** front-end: a fixed
//!   set of loop threads multiplexes every connection over `poll(2)`
//!   with nonblocking sockets, so thousands of idle connections cost a
//!   few fds and buffers, not threads. Engine-touching requests run on
//!   a **bounded worker pool**; cheap verbs, parse errors, load-shed
//!   rejections and result-cache hits answer on the loop itself.
//! * **Pipelining** — clients may write many request lines without
//!   waiting; replies come back in order. Per connection, execution
//!   stays serial (at most one job of a connection is on a worker at a
//!   time; a run of pipelined `add`s is one job), which is what makes
//!   pipelining observably identical to one-at-a-time request/reply.
//! * **Snapshot reads** — queries run against immutable epoch-stamped
//!   [`flowmotif_stream::Snapshot`]s, so readers never block the
//!   ingesting writer and a slow query never delays an append.
//! * **Result cache** — framed `query`/`count` replies keyed by
//!   `(epoch, spec)`; a publish changes the key, which is the entire
//!   invalidation story, so a stale reply can never be served.
//! * **Admission control and load shedding** — a cap on concurrently
//!   executing queries and a per-query time-window cap, plus tiered
//!   shedding under worker-backlog pressure (unbounded cold queries go
//!   first, cache hits and cheap verbs are always admitted); transient
//!   rejections carry a `retry_ms=` hint.
//! * [`Client`] — a tiny blocking client speaking the same protocol
//!   (including [`Client::send_batch`] pipelining), used by
//!   `flowmotif client` and the integration tests.
//!
//! The wire protocol is one request line in, one framed reply out
//! (`DATA …` lines, then a single `OK`/`ERR`/`BUSY` status line); see
//! `PROTOCOL.md` next to this crate for the normative description.
//!
//! ```
//! use flowmotif_serve::{Client, Server, ServerConfig};
//! use flowmotif_stream::SnapshotEngine;
//! use std::sync::Arc;
//!
//! let engine = Arc::new(SnapshotEngine::new());
//! let server = Server::start(engine, ServerConfig::default(), "127.0.0.1:0").unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//!
//! client.send("add 0 1 10 5").unwrap();
//! client.send("add 1 2 12 4").unwrap();
//! client.send("publish").unwrap();
//! let reply = client.send("count M(3,2) 10 0").unwrap();
//! assert_eq!(reply.field("count"), Some("1"));
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cache;
pub mod client;
mod conn;
mod metrics;
mod poll;
pub mod protocol;
pub mod server;
pub mod source;

pub use client::Client;
pub use protocol::{ErrorCode, Reply, Request, MAX_LINE_BYTES};
pub use server::{Server, ServerConfig};
pub use source::{EngineSnapshot, MotifEngine};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard if a thread panicked while holding
/// it. Every lock in this crate guards queues, counters, the result
/// cache or the standing-query state; a panic inside a request is
/// caught at the worker's job boundary, and failing every later request
/// on the poison would turn that one failure into a dead server. The
/// worst a recovered guard can show is the panicking request's own
/// half-done update (for example a standing-query delta it did not
/// finish routing).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
