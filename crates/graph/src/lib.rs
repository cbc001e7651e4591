//! Temporal interaction-network substrate for flow motif search.
//!
//! This crate implements the two graph representations used by the paper
//! *Flow Motifs in Interaction Networks* (EDBT 2019):
//!
//! * [`TemporalMultigraph`] — the raw input: a directed multigraph whose
//!   edges carry a timestamp and a positive flow value (paper §3, Fig. 2).
//! * [`TimeSeriesGraph`] — the merged representation `G_T(V, E_T)` where all
//!   parallel edges between a node pair collapse into a single edge holding
//!   an [`InteractionSeries`] — the time-ordered `(t, f)` elements of that
//!   pair (paper §4, Fig. 5).
//!
//! The conversion is performed once by [`GraphBuilder`]; all motif-search
//! algorithms operate on the time-series graph.
//!
//! # Quick example
//!
//! ```
//! use flowmotif_graph::GraphBuilder;
//!
//! // The running example of the paper (Fig. 2 / Fig. 5).
//! let mut b = GraphBuilder::new();
//! b.add_interaction(2, 0, 1, 2.0); // u3 -> u1 ... (renumbered)
//! b.add_interaction(0, 1, 13, 5.0);
//! b.add_interaction(0, 1, 15, 7.0);
//! let g = b.build_time_series_graph();
//! assert_eq!(g.num_nodes(), 3);
//! assert_eq!(g.num_pairs(), 2);       // |E_T|: connected node pairs
//! assert_eq!(g.num_interactions(), 3); // |E|: multigraph edges
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod active;
pub mod builder;
pub mod error;
pub mod event;
pub mod image;
pub mod io;
pub mod metrics;
mod mmap;
pub mod multigraph;
pub mod overlay;
pub mod segment;
pub mod series;
pub mod stats;
pub mod store;
pub mod tsgraph;
pub mod window;

pub use active::ActiveOriginIndex;
pub use builder::GraphBuilder;
pub use error::GraphError;
pub use event::{Event, Flow, NodeId, PairId, Timestamp};
pub use image::BuildProfile;
pub use multigraph::{Interaction, TemporalMultigraph};
pub use overlay::OverlayStore;
pub use segment::{pack_edge_list, write_segment, PackStats, SegmentStore, SegmentWriter};
pub use series::{InteractionSeries, SeriesRef};
pub use stats::GraphStats;
pub use store::GraphStore;
pub use tsgraph::TimeSeriesGraph;
pub use window::TimeWindow;
