//! # flowmotif — flow motif search in interaction networks
//!
//! A Rust implementation of *Flow Motifs in Interaction Networks*
//! (Kosyfaki, Mamoulis, Pitoura, Tsaparas — EDBT 2019).
//!
//! Interaction networks (payments, messages, passenger trips) are
//! directed multigraphs whose edges carry a timestamp and a *flow*. A
//! **flow motif** `M = (G_M, δ, ϕ)` describes a small totally-edge-ordered
//! pattern in which every motif edge is instantiated by a *set* of graph
//! edges that together transfer at least `ϕ` flow, all within a `δ`-long
//! time window. This crate finds all maximal instances of such motifs, the
//! top-k instances by flow, and assesses motif significance against a
//! flow-permutation null model.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`graph`] — temporal multigraph / time-series graph substrate.
//! * [`core`] — motif model, two-phase search, top-k, DP top-1.
//! * [`baseline`] — the join-based competitor algorithm.
//! * [`datasets`] — synthetic Bitcoin/Facebook/Passenger-like workloads,
//!   permutation null model, time-prefix samples.
//! * [`significance`] — z-score / box-plot randomization experiment.
//! * [`stream`] — streaming ingestion and the resident query engine
//!   (incremental appends, sliding-window eviction, window-bounded
//!   queries without rebuilds, epoch-stamped snapshots for concurrent
//!   readers).
//! * [`serve`] — the TCP line-protocol front-end over the snapshot
//!   engine: bounded worker pool, admission control, a tiny client.
//!
//! # Quickstart
//!
//! ```
//! use flowmotif::prelude::*;
//!
//! // Build an interaction network: (from, to, time, flow).
//! let mut b = GraphBuilder::new();
//! b.extend_interactions([
//!     (0u32, 1u32, 10i64, 50.0), // account 0 pays account 1
//!     (1, 2, 40, 30.0),          // account 1 forwards to 2 ...
//!     (1, 2, 55, 25.0),
//!     (2, 0, 90, 60.0),          // ... and 2 closes the cycle
//! ]);
//! let g = b.build_time_series_graph();
//!
//! // Cyclic money movement: >= 25 units per hop within 100 time units.
//! let motif = catalog::by_name("M(3,3)", 100, 25.0).unwrap();
//! let (groups, _stats) = enumerate_all(&g, &motif);
//! let n: usize = groups.iter().map(|(_, v)| v.len()).sum();
//! assert_eq!(n, 1);
//! ```

#![warn(missing_docs)]

pub use flowmotif_baseline as baseline;
pub use flowmotif_core as core;
pub use flowmotif_datasets as datasets;
pub use flowmotif_graph as graph;
pub use flowmotif_serve as serve;
pub use flowmotif_significance as significance;
pub use flowmotif_stream as stream;

/// Convenient glob-import surface covering the common API.
pub mod prelude {
    pub use flowmotif_baseline::{join_enumerate, JoinStats};
    pub use flowmotif_core::{
        analytics::{per_match_activity, per_match_top1, window_top1_series, MatchActivity},
        catalog,
        census::{all_walk_shapes, walk_census, CensusRow},
        count_instances, count_instances_in_window, count_structural_matches,
        dp::{dp_max_flow, dp_top1},
        enumerate_all, enumerate_all_in_window, find_structural_matches,
        parallel::{par_count_instances, par_enumerate_all, par_top_k, ParOptions},
        topk::{kth_instance_flow, top_k},
        EdgeSet, ExtensionOrder, Motif, MotifInstance, P1Driver, SearchOptions, SearchStats,
        SpanningPath, StructuralMatch,
    };
    pub use flowmotif_datasets::{
        permute_flows, time_prefix_samples, Dataset, FlowDistribution, GeneratorConfig,
    };
    pub use flowmotif_graph::{
        pack_edge_list, Event, Flow, GraphBuilder, GraphStats, GraphStore, InteractionSeries,
        NodeId, OverlayStore, PackStats, PairId, SegmentStore, TemporalMultigraph, TimeSeriesGraph,
        TimeWindow, Timestamp,
    };
    pub use flowmotif_serve::{Client, Server, ServerConfig};
    pub use flowmotif_significance::{
        assess_motif, assess_motifs, MotifSignificance, SignificanceConfig,
    };
    pub use flowmotif_stream::{
        EngineStats, EpochEngine, EpochSnapshot, IncrementalGraph, QueryEngine, QueryResult,
        SlidingWindow, Snapshot, SnapshotEngine,
    };
}
