//! The engine abstraction the server talks to: anything that can
//! absorb appends and hand out immutable, epoch-stamped query views.
//!
//! Two implementations exist today, and the whole server front-end
//! (accept loop, admission control, reply formatting) is generic over
//! them:
//!
//! * [`flowmotif_stream::SnapshotEngine`] — the resident in-memory
//!   engine (epoch = copy-on-write clone of the compacted graph);
//! * [`flowmotif_stream::EpochEngine`] — the out-of-core engine
//!   (epoch = memory-mapped sealed segment + in-RAM delta overlay),
//!   behind `flowmotif serve <dir> --packed`.

use crate::protocol::QuerySpec;
use flowmotif_core::{
    InstanceSink, Motif, MotifInstance, Query, SearchOptions, SearchScratch, SearchStats,
    StructuralMatch, TraceSink,
};
use flowmotif_graph::{Flow, GraphError, GraphStore, NodeId, TimeWindow, Timestamp};
use flowmotif_stream::{
    EngineStats, EpochEngine, EpochSnapshot, PublishReport, Snapshot, SnapshotEngine,
    StandingEvent, StandingQueries,
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
    /// At most one hook is kept. The hook may run while the engine's
    /// writer lock is held, so it must be cheap and must not call back
    /// into the engine — the server uses it to keep a lock-free copy of
    /// the current epoch for its result cache.
    fn set_publish_hook(&self, hook: Box<dyn Fn(u64) + Send + Sync>);

    /// Drops interactions older than `floor`, where supported; engines
    /// over immutable storage return 0.
    fn evict_before(&self, floor: Timestamp) -> usize;

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
    /// standing queries against the post-eviction graph (instances can
    /// *become* maximal when older events leave their window). Engines
    /// over immutable storage return 0 without evaluating.
    fn evict_standing(
        &self,
        floor: Timestamp,
        subs: &mut StandingQueries,
        out: &mut Vec<StandingEvent>,
    ) -> usize;
}

/// Both engines hand out a [`Snapshot`]: of the heap graph, or of a
/// sealed segment plus its delta ([`EpochSnapshot`]).
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

impl MotifEngine for SnapshotEngine {
    type Snapshot = Arc<Snapshot>;

    fn append(
        &self,
        from: NodeId,
        to: NodeId,
        time: Timestamp,
        flow: Flow,
    ) -> Result<Timestamp, GraphError> {
        SnapshotEngine::append(self, from, to, time, flow)
    }

    fn publish(&self) -> u64 {
        SnapshotEngine::publish(self)
    }

    fn published_epoch(&self) -> u64 {
        SnapshotEngine::published_epoch(self)
    }

    fn set_publish_hook(&self, hook: Box<dyn Fn(u64) + Send + Sync>) {
        SnapshotEngine::set_publish_hook(self, hook);
    }

    fn evict_before(&self, floor: Timestamp) -> usize {
        SnapshotEngine::evict_before(self, floor)
    }

    fn compact(&self) {
        SnapshotEngine::compact(self);
    }

    fn stats(&self) -> EngineStats {
        SnapshotEngine::stats(self)
    }

    fn publish_report(&self) -> PublishReport {
        SnapshotEngine::publish_report(self)
    }

    fn snapshot(&self) -> Arc<Snapshot> {
        SnapshotEngine::snapshot(self)
    }

    fn subscribe_standing(
        &self,
        subs: &mut StandingQueries,
        motif: Motif,
        bounds: Option<TimeWindow>,
    ) -> u64 {
        SnapshotEngine::subscribe_standing(self, subs, motif, bounds)
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
        SnapshotEngine::append_standing(self, from, to, time, flow, subs, out)
    }

    fn evict_standing(
        &self,
        floor: Timestamp,
        subs: &mut StandingQueries,
        out: &mut Vec<StandingEvent>,
    ) -> usize {
        SnapshotEngine::evict_standing(self, floor, subs, out)
    }
}

impl MotifEngine for EpochEngine {
    type Snapshot = Arc<EpochSnapshot>;

    fn append(
        &self,
        from: NodeId,
        to: NodeId,
        time: Timestamp,
        flow: Flow,
    ) -> Result<Timestamp, GraphError> {
        EpochEngine::append(self, from, to, time, flow)
    }

    fn publish(&self) -> u64 {
        EpochEngine::publish(self)
    }

    fn published_epoch(&self) -> u64 {
        EpochEngine::published_epoch(self)
    }

    fn set_publish_hook(&self, hook: Box<dyn Fn(u64) + Send + Sync>) {
        EpochEngine::set_publish_hook(self, hook);
    }

    /// Sealed segments are immutable; nothing is evicted.
    fn evict_before(&self, _floor: Timestamp) -> usize {
        0
    }

    /// Reseals base ∪ delta into a fresh segment. A reseal failure (an
    /// I/O error while writing the new file) leaves the current base
    /// and delta fully intact, so it is safe to swallow here — the
    /// engine keeps serving and the next compact retries.
    fn compact(&self) {
        let _ = self.reseal();
    }

    fn stats(&self) -> EngineStats {
        EpochEngine::stats(self)
    }

    fn publish_report(&self) -> PublishReport {
        EpochEngine::publish_report(self)
    }

    fn snapshot(&self) -> Arc<EpochSnapshot> {
        EpochEngine::snapshot(self)
    }

    fn subscribe_standing(
        &self,
        subs: &mut StandingQueries,
        motif: Motif,
        bounds: Option<TimeWindow>,
    ) -> u64 {
        EpochEngine::subscribe_standing(self, subs, motif, bounds)
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
        EpochEngine::append_standing(self, from, to, time, flow, subs, out)
    }

    /// Sealed segments are immutable; nothing is evicted and no
    /// standing query can change.
    fn evict_standing(
        &self,
        _floor: Timestamp,
        _subs: &mut StandingQueries,
        _out: &mut Vec<StandingEvent>,
    ) -> usize {
        0
    }
}
