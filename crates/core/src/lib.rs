//! Flow motif search in temporal interaction networks.
//!
//! Implementation of *Flow Motifs in Interaction Networks* (Kosyfaki,
//! Mamoulis, Pitoura, Tsaparas — EDBT 2019): the flow motif model
//! (§3), the two-phase enumeration algorithm (§4), top-k search with a
//! floating flow threshold (§5) and the dynamic-programming top-1 module
//! (§5.1).
//!
//! # Overview
//!
//! A *flow motif* `M = (G_M, δ, ϕ)` is a small directed graph whose edges
//! are totally ordered (forming a *spanning path*), a duration bound `δ`,
//! and a minimum-flow bound `ϕ`. An *instance* of `M` maps every motif
//! edge to a **set** of graph edges between the mapped vertices such that
//! the sets respect the order, all timestamps fit in a `δ` window, and
//! every set aggregates at least `ϕ` flow. Only *maximal* instances are
//! reported (Def. 3.3).
//!
//! ```
//! use flowmotif_core::{catalog, enumerate_all};
//! use flowmotif_graph::GraphBuilder;
//!
//! // The paper's Fig. 2 bitcoin example.
//! let mut b = GraphBuilder::new();
//! b.extend_interactions([
//!     (0u32, 1u32, 13i64, 5.0), (0, 1, 15, 7.0), (2, 0, 10, 10.0),
//!     (3, 2, 1, 2.0), (3, 2, 3, 5.0), (3, 0, 11, 10.0),
//!     (1, 2, 18, 20.0), (2, 3, 19, 5.0), (2, 3, 21, 4.0), (1, 3, 23, 7.0),
//! ]);
//! let g = b.build_time_series_graph();
//!
//! // Cyclic transactions within δ=10 moving at least ϕ=7 per hop.
//! let motif = catalog::by_name("M(3,3)", 10, 7.0).unwrap();
//! let (groups, stats) = enumerate_all(&g, &motif);
//! assert_eq!(stats.structural_matches, 6);
//! let instances: usize = groups.iter().map(|(_, v)| v.len()).sum();
//! assert_eq!(instances, 1); // the Fig. 4(a) instance
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analytics;
pub mod catalog;
pub mod census;
pub mod cutoff;
pub mod delta;
pub mod dp;
pub mod enumerate;
pub mod error;
pub mod gallop;
pub mod instance;
pub mod matcher;
pub mod motif;
pub mod parallel;
pub mod scratch;
pub mod topk;
pub mod trace;
pub mod validate;

pub use delta::{DeltaContext, DeltaEdge, DeltaInstance, DeltaStats};
pub use enumerate::{
    count_instances, count_instances_in_window, enumerate_all, enumerate_all_in_window,
    enumerate_in_match, enumerate_in_match_bounded, enumerate_in_match_reusing,
    enumerate_window_with_sink, enumerate_window_with_sink_scratch, enumerate_with_sink,
    enumerate_with_sink_scratch, CollectSink, CountSink, EnumerationScratch, FnSink, InstanceSink,
    SearchOptions, SearchOptionsBuilder, SearchStats,
};
pub use error::MotifError;
pub use instance::{EdgeSet, InstanceView, MotifInstance, StructuralMatch};
pub use matcher::{
    count_structural_matches, find_structural_matches, ExtensionOrder, MatchScratch, P1Driver,
};
pub use motif::{Motif, MotifNode, SpanningPath};
pub use scratch::SearchScratch;
pub use trace::{AtomicTrace, PassRecord, TraceSink, TraceStage};

// The search entry points are used from multi-threaded servers
// (snapshot reads in `flowmotif-serve`): everything a query needs to
// share across threads must stay `Send + Sync`. Compile-time assertion
// so a future interior-mutability change fails loudly here, not in a
// downstream crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<flowmotif_graph::TimeSeriesGraph>();
    assert_send_sync::<Motif>();
    assert_send_sync::<SearchOptions>();
    assert_send_sync::<SearchStats>();
    assert_send_sync::<StructuralMatch>();
    assert_send_sync::<MotifInstance>();
};
