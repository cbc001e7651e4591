//! The engine abstraction the server talks to: anything that can
//! absorb appends and hand out immutable, epoch-stamped query views.
//!
//! The whole server front-end (accept loop, admission control, reply
//! formatting) is generic over [`MotifEngine`], which has one real
//! implementation: [`flowmotif_stream::Engine`], over either of its
//! bases —
//!
//! * [`flowmotif_stream::SnapshotEngine`], no base: the resident
//!   in-memory engine (epoch = copy-on-write clone of the compacted
//!   graph);
//! * [`flowmotif_stream::EpochEngine`], a sealed base: the out-of-core
//!   engine (epoch = memory-mapped sealed segment + in-RAM delta
//!   overlay), behind `flowmotif serve <dir> --packed`.
//!
//! The trait stays so that tests can fake an engine.

use crate::protocol::QuerySpec;
use flowmotif_core::{
    InstanceSink, Motif, MotifInstance, Query, SearchOptions, SearchScratch, SearchStats,
    StructuralMatch, TraceSink,
};
use flowmotif_graph::{Flow, GraphError, GraphStore, NodeId, TimeWindow, Timestamp};
use flowmotif_stream::{
    Base, Engine, EngineStats, PublishReport, Snapshot, StandingEvent, StandingQueries,
};
use std::sync::Arc;

/// An immutable query view of one epoch. Implementors are cheap to
/// clone out of the engine and safe to search from many threads.
pub trait EngineSnapshot: Send + Sync {
    /// The publish sequence number of this view.
    fn epoch(&self) -> u64;

    /// Runs the search of `spec` — its motif, window and P1 order
    /// override (the protocol's `order=` option) over the engine's
    /// search options — streaming every instance to `sink`, out of the
    /// caller's search arena. `trace`, when set, receives the per-stage
    /// breakdown of this one query (the server's slow-query log); `None`
    /// keeps the search on the zero-overhead untraced path.
    fn run<S: InstanceSink>(
        &self,
        spec: &QuerySpec,
        trace: Option<&'static dyn TraceSink>,
        sink: &mut S,
        scratch: &mut SearchScratch,
    ) -> SearchStats;

    /// Renders one result for the wire: the `-`-joined walk nodes and
    /// the per-edge interaction sets (graph access stays behind the
    /// trait, so the reply formatter needs no graph type).
    fn describe(&self, sm: &StructuralMatch, inst: &MotifInstance) -> (String, String);
}

/// A query engine the server can front: appends, epoch publishing, and
/// snapshot handout. All methods take `&self` — the server shares the
/// engine across its worker pool.
pub trait MotifEngine: Send + Sync + 'static {
    /// The epoch view this engine hands out.
    type Snapshot: EngineSnapshot;

    /// Appends one interaction; returns the stream watermark after it.
    fn append(
        &self,
        from: NodeId,
        to: NodeId,
        time: Timestamp,
        flow: Flow,
    ) -> Result<Timestamp, GraphError>;

    /// Publishes buffered appends as a new epoch (no-op when clean).
    fn publish(&self) -> u64;

    /// Epoch of the currently published view.
    fn published_epoch(&self) -> u64;

    /// Registers a callback fired with the new epoch number on every
    /// epoch install (explicit publish, auto-publish, or compaction).
    /// At most one hook is kept. The hook runs outside the engine's
    /// writer lock but on the publishing thread, so it should be cheap —
    /// the server uses it to keep a lock-free copy of the current epoch
    /// for its result cache.
    fn set_publish_hook(&self, hook: Box<dyn Fn(u64) + Send + Sync>);

    /// Consolidates storage (fold buffered tails, or reseal a segment).
    fn compact(&self);

    /// Live writer-side statistics.
    fn stats(&self) -> EngineStats;

    /// Cost telemetry of the most recent publish.
    fn publish_report(&self) -> PublishReport;

    /// The currently published epoch view.
    fn snapshot(&self) -> Self::Snapshot;

    /// Registers a standing query in `subs`, seeding it against the
    /// engine's *current* writer-side graph (not the published epoch —
    /// the subscription must see exactly the events later appends will
    /// delta against). Returns the subscription id.
    fn subscribe_standing(
        &self,
        subs: &mut StandingQueries,
        motif: Motif,
        bounds: Option<TimeWindow>,
    ) -> u64;

    /// Appends one interaction and delta-evaluates every standing query
    /// in `subs` against the post-append graph, pushing one
    /// [`StandingEvent`] per instance entering a result set. Returns
    /// the stream watermark, like [`MotifEngine::append`].
    fn append_standing(
        &self,
        from: NodeId,
        to: NodeId,
        time: Timestamp,
        flow: Flow,
        subs: &mut StandingQueries,
        out: &mut Vec<StandingEvent>,
    ) -> Result<Timestamp, GraphError>;

    /// Evicts interactions older than `floor` and delta-evaluates the
    /// standing queries in `subs`, if any, against the post-eviction
    /// graph (instances can *become* maximal when older events leave
    /// their window). Engines over immutable storage return 0 without
    /// evaluating.
    fn evict_standing(
        &self,
        floor: Timestamp,
        subs: &mut StandingQueries,
        out: &mut Vec<StandingEvent>,
    ) -> usize;
}

/// The engine hands out a [`Snapshot`] over either base: of the heap
/// graph, or of a sealed segment plus its delta
/// ([`flowmotif_stream::EpochSnapshot`]).
impl<G: GraphStore + Send + Sync> EngineSnapshot for Arc<Snapshot<G>> {
    fn epoch(&self) -> u64 {
        Snapshot::epoch(self)
    }

    fn run<S: InstanceSink>(
        &self,
        spec: &QuerySpec,
        trace: Option<&'static dyn TraceSink>,
        sink: &mut S,
        scratch: &mut SearchScratch,
    ) -> SearchStats {
        let opts = self.options();
        let extension_order = spec.order.unwrap_or(opts.extension_order);
        let opts = SearchOptions { trace, extension_order, ..opts };
        let q = Query { bounds: spec.window, opts, ..Query::new(&spec.motif) };
        q.run(self.graph(), sink, scratch)
    }

    fn describe(&self, sm: &StructuralMatch, inst: &MotifInstance) -> (String, String) {
        let nodes: Vec<String> =
            sm.walk_nodes(self.graph()).into_iter().map(|n| n.to_string()).collect();
        (nodes.join("-"), inst.display(self.graph()))
    }
}

/// One impl for both bases: the engine's inherent methods already are
/// the trait's.
impl<B: Base> MotifEngine for Engine<B> {
    type Snapshot = Arc<Snapshot<B::View>>;

    fn append(
        &self,
        from: NodeId,
        to: NodeId,
        time: Timestamp,
        flow: Flow,
    ) -> Result<Timestamp, GraphError> {
        Engine::append(self, from, to, time, flow)
    }

    fn publish(&self) -> u64 {
        Engine::publish(self)
    }

    fn published_epoch(&self) -> u64 {
        Engine::published_epoch(self)
    }

    fn set_publish_hook(&self, hook: Box<dyn Fn(u64) + Send + Sync>) {
        Engine::set_publish_hook(self, hook);
    }

    fn compact(&self) {
        Engine::compact(self);
    }

    fn stats(&self) -> EngineStats {
        Engine::stats(self)
    }

    fn publish_report(&self) -> PublishReport {
        Engine::publish_report(self)
    }

    fn snapshot(&self) -> Self::Snapshot {
        Engine::snapshot(self)
    }

    fn subscribe_standing(
        &self,
        subs: &mut StandingQueries,
        motif: Motif,
        bounds: Option<TimeWindow>,
    ) -> u64 {
        Engine::subscribe_standing(self, subs, motif, bounds)
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
        Engine::append_standing(self, from, to, time, flow, subs, out)
    }

    fn evict_standing(
        &self,
        floor: Timestamp,
        subs: &mut StandingQueries,
        out: &mut Vec<StandingEvent>,
    ) -> usize {
        Engine::evict_standing(self, floor, subs, out)
    }
}
