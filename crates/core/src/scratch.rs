//! The search arena: every reusable buffer of the P1→P2 pipeline in one
//! lifetime-free bundle.
//!
//! # Ownership model
//!
//! The two-phase search is a *streaming* pipeline: phase P1 mutates one
//! [`crate::StructuralMatch`] in place and hands the visitor a shared
//! reference at each leaf; phase P2 assembles each instance in a flat
//! [`crate::instance::EdgeSet`] buffer and hands the sink a borrowed
//! [`crate::InstanceView`]. Nothing emitted is owned by the callee —
//! callers that keep results copy explicitly, callers that count or
//! aggregate never touch the heap. All of those working buffers live
//! here, so one warm `SearchScratch` makes a full [`crate::Query::run`]
//! allocation-free per match, top-k sinks included (proven by the
//! `alloc_profile` bench, which runs under a counting global allocator).
//!
//! The arena deliberately borrows nothing from any graph (series are
//! re-resolved through [`crate::StructuralMatch::pairs`] on use), so a
//! long-lived driver — a streaming [`QueryEngine`], a server session, a
//! parallel worker — can hold one `SearchScratch` across queries against
//! *different* graphs or snapshots and still reuse every buffer.
//!
//! [`QueryEngine`]: ../../flowmotif_stream/struct.QueryEngine.html

use crate::dp::DpScratch;
use crate::enumerate::EnumerationScratch;
use crate::matcher::MatchScratch;

/// Reusable buffers for one whole search pipeline. `Default` starts
/// empty; capacities grow to the motif/graph shape on first use and stay
/// warm afterwards.
#[derive(Debug, Default, Clone)]
pub struct SearchScratch {
    /// Phase P1: the in-construction match, injectivity bitmap and the
    /// candidate-origin pull buffer of the indexed bounded path.
    pub p1: MatchScratch,
    /// Phase P2: the Algorithm-1 prefix stack and the instance emission
    /// buffer.
    pub p2: EnumerationScratch,
    /// The window-DP fast path buffers (Algorithm 2, used by
    /// [`crate::Query::top1`]).
    pub dp: DpScratch,
}
