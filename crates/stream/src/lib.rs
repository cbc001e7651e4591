//! Streaming ingestion and a resident query engine for flow motif search.
//!
//! The paper studies *interaction networks* — inherently temporal edge
//! streams — but the batch pipeline requires every interaction up front
//! (`GraphBuilder::build_time_series_graph`) and re-runs phase P1+P2 from
//! scratch per invocation. This crate opens the long-running-service
//! workload instead:
//!
//! * [`IncrementalGraph`] accepts out-of-order edge appends and maintains
//!   the per-pair sorted [`flowmotif_graph::InteractionSeries`] (and its
//!   prefix sums) incrementally: in-order events append in O(1), stragglers
//!   buffer in a small unsorted per-pair tail that is merged on read or on
//!   an explicit [`IncrementalGraph::compact`].
//! * [`SlidingWindow`] is an eviction policy: interactions older than a
//!   configurable horizon behind the stream watermark are dropped in
//!   amortized batches, keeping graph statistics consistent.
//! * [`QueryEngine`] is the session API — ingest once, then answer
//!   repeated two-phase motif searches ([`flowmotif_core::Query`]),
//!   optionally restricted to a [`flowmotif_graph::TimeWindow`],
//!   *borrowing* the resident graph instead of rebuilding it per query.
//! * [`Engine`] adds concurrent readers on top: ingestion keeps
//!   appending to a [`QueryEngine`] under a writer lock while queries
//!   run against cheap, immutable, epoch-stamped [`Snapshot`]s — the
//!   substrate of the `flowmotif-serve` network front-end. It is one
//!   engine over one of two [`Base`]s: [`SnapshotEngine`] has none and
//!   publishes the compacted heap graph; [`EpochEngine`] has a sealed
//!   segment beneath its writer, which then holds only the delta, and
//!   its [`EpochSnapshot`] is a [`Snapshot`] of the segment plus that
//!   delta.
//!
//! ```
//! use flowmotif_core::{catalog, Query};
//! use flowmotif_stream::QueryEngine;
//!
//! let mut engine = QueryEngine::new();
//! engine.ingest([(0u32, 1u32, 10i64, 5.0), (1, 2, 12, 4.0)]).unwrap();
//! let motif = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
//! assert_eq!(Query::new(&motif).count(engine.graph()).0, 1);
//! // Keep streaming; the engine updates state instead of rebuilding.
//! engine.ingest([(2u32, 0u32, 14i64, 3.0)]).unwrap();
//! let cycle = catalog::by_name("M(3,3)", 10, 0.0).unwrap();
//! assert_eq!(Query::new(&cycle).count(engine.graph()).0, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod epoch;
pub mod incremental;
pub mod metrics;
pub mod snapshot;
pub mod standing;
pub mod window;

pub use engine::{EngineStats, QueryEngine};
pub use epoch::{EpochEngine, EpochSnapshot, SealedBase};
pub use incremental::IncrementalGraph;
pub use snapshot::{Base, Engine, NoBase, PublishReport, Snapshot, SnapshotEngine};
pub use standing::{StandingEvent, StandingQueries, StandingQuery};
pub use window::SlidingWindow;
