//! The server's metric surface: one [`MetricsRegistry`] per server,
//! rendered on demand by the `metrics` request.
//!
//! Serve-tier series (request counters, latency histograms, rejection
//! counters) are owned here and updated lock-free on the request path.
//! Stream-tier and storage-tier series are process-wide statics owned
//! by their crates (`flowmotif_stream::metrics`,
//! `flowmotif_graph::metrics`) and sampled through closures at render
//! time — if several servers share one process, each renders the same
//! process totals for those families.

use flowmotif_obs::{Counter, Histogram, MetricsRegistry};
use std::sync::Arc;
use std::time::Duration;

/// Every protocol verb, in the order the `flowmotif_serve_requests_total`
/// family is registered (one labeled series per verb).
const VERBS: [&str; 14] = [
    "ping",
    "add",
    "query",
    "count",
    "subscribe",
    "unsubscribe",
    "publish",
    "evict",
    "compact",
    "stats",
    "session",
    "metrics",
    "quit",
    "error",
];

/// Verbs whose wall-clock latency is worth a histogram: the ones that
/// touch the engine.
const TIMED_VERBS: [&str; 5] = ["query", "count", "add", "publish", "subscribe"];

/// Handles into the server's registry, indexed by verb where labeled.
#[derive(Debug)]
pub(crate) struct ServerMetrics {
    registry: MetricsRegistry,
    /// `flowmotif_serve_requests_total{verb=…}`, aligned with [`VERBS`].
    requests: Vec<(&'static str, Arc<Counter>)>,
    /// `flowmotif_serve_request_duration_seconds{verb=…}`, aligned with
    /// [`TIMED_VERBS`].
    latency: Vec<(&'static str, Arc<Histogram>)>,
    /// Transient `BUSY` query rejections (in-flight cap).
    pub busy: Arc<Counter>,
    /// Non-transient `ERR admission` query rejections (window cap).
    pub admission_rejected: Arc<Counter>,
    /// Queries that crossed the `--slow-query-ms` threshold.
    pub slow_queries: Arc<Counter>,
    /// Push `EVENT` lines written to subscriber connections.
    pub events_pushed: Arc<Counter>,
    /// Push `EVENT` lines dropped because a subscriber's notify queue
    /// was full (backpressure).
    pub events_dropped: Arc<Counter>,
    /// Queries answered from the epoch-keyed result cache.
    pub cache_hits: Arc<Counter>,
    /// Queries that missed the result cache and went to the engine.
    pub cache_misses: Arc<Counter>,
    /// Cold queries shed with a transient `BUSY` by the event loop
    /// (worker backlog tiers), as opposed to the in-flight cap.
    pub load_shed: Arc<Counter>,
    /// Jobs pushed to the worker pool; against `requests_total` it
    /// shows how many requests a job carries on average.
    pub pool_jobs: Arc<Counter>,
    /// Requests whose handler panicked and were answered `ERR internal`.
    pub panics: Arc<Counter>,
}

impl ServerMetrics {
    /// Builds the registry with every serve-owned family plus the
    /// stream/storage statics; engine-specific gauges are added by the
    /// caller through [`ServerMetrics::registry`].
    pub(crate) fn new() -> Self {
        let registry = MetricsRegistry::new();
        let requests: Vec<(&'static str, Arc<Counter>)> = VERBS
            .iter()
            .map(|&verb| {
                let c = registry.counter_labeled(
                    "flowmotif_serve_requests_total",
                    Some(("verb", verb)),
                    "Requests handled, by protocol verb (`error` = unparsable line)",
                );
                (verb, c)
            })
            .collect();
        let latency: Vec<(&'static str, Arc<Histogram>)> = TIMED_VERBS
            .iter()
            .map(|&verb| {
                let h = registry.histogram_labeled(
                    "flowmotif_serve_request_duration_seconds",
                    Some(("verb", verb)),
                    "Wall-clock request latency, by engine-touching verb",
                );
                (verb, h)
            })
            .collect();
        let busy = registry.counter(
            "flowmotif_serve_busy_total",
            "Queries rejected with a transient BUSY (in-flight cap reached)",
        );
        let admission_rejected = registry.counter(
            "flowmotif_serve_admission_rejected_total",
            "Queries rejected with ERR admission (window wider than the server cap)",
        );
        let slow_queries = registry.counter(
            "flowmotif_serve_slow_queries_total",
            "Queries that crossed the --slow-query-ms threshold",
        );
        let events_pushed = registry.counter(
            "flowmotif_serve_events_pushed_total",
            "Push EVENT lines delivered to subscriber connections",
        );
        let events_dropped = registry.counter(
            "flowmotif_serve_events_dropped_total",
            "Push EVENT lines dropped on a full subscriber queue (backpressure)",
        );
        let cache_hits = registry.counter(
            "flowmotif_serve_cache_hits_total",
            "Queries answered from the epoch-keyed result cache",
        );
        let cache_misses = registry.counter(
            "flowmotif_serve_cache_misses_total",
            "Queries that missed the result cache and ran on the engine",
        );
        let load_shed = registry.counter(
            "flowmotif_serve_load_shed_total",
            "Cold queries shed with a transient BUSY under worker-backlog pressure",
        );
        let pool_jobs = registry.counter(
            "flowmotif_serve_pool_jobs_total",
            "Jobs pushed to the worker pool (a run of pipelined adds is one job)",
        );
        let panics = registry.counter(
            "flowmotif_serve_panics_total",
            "Requests whose handler panicked, answered with ERR internal",
        );

        use flowmotif_stream::metrics as stream;
        registry.counter_fn(
            "flowmotif_stream_publishes_total",
            "Non-no-op snapshot publishes (process-wide)",
            || stream::PUBLISHES_TOTAL.get(),
        );
        registry.gauge_fn(
            "flowmotif_stream_last_publish_seconds",
            "Duration of the most recent publish (publish lag)",
            || stream::LAST_PUBLISH_DURATION_NS.get() as f64 * 1e-9,
        );
        registry.gauge_fn(
            "flowmotif_stream_last_publish_dirty_pairs",
            "Dirty pairs folded in by the most recent publish",
            || stream::LAST_PUBLISH_DIRTY_PAIRS.get() as f64,
        );
        registry.gauge_fn(
            "flowmotif_stream_epoch_age_seconds",
            "Seconds since the most recent publish (0 before the first)",
            stream::epoch_age_seconds,
        );
        registry.counter_fn(
            "flowmotif_stream_reseals_total",
            "Segment reseals (base ∪ delta merges, process-wide)",
            || stream::RESEALS_TOTAL.get(),
        );
        registry.gauge_fn(
            "flowmotif_stream_last_reseal_seconds",
            "Duration of the most recent reseal",
            || stream::LAST_RESEAL_DURATION_NS.get() as f64 * 1e-9,
        );

        use flowmotif_graph::metrics as storage;
        registry.gauge_fn(
            "flowmotif_storage_segment_mapped_bytes",
            "Bytes of segment files currently memory-mapped (process-wide)",
            || storage::SEGMENT_MAPPED_BYTES.get() as f64,
        );
        registry.gauge_fn(
            "flowmotif_storage_segment_resident_bytes",
            "Estimated heap bytes resident per open segment store (index + headers)",
            || storage::SEGMENT_RESIDENT_BYTES.get() as f64,
        );
        registry.counter_fn(
            "flowmotif_storage_segment_section_reads_total",
            "Series reads against mapped segment sections (process-wide, batched per thread)",
            || storage::SEGMENT_SECTION_READS.get(),
        );
        registry.counter_fn(
            "flowmotif_storage_segment_opens_total",
            "Segment stores opened (process-wide)",
            || storage::SEGMENT_OPENS.get(),
        );

        Self {
            registry,
            requests,
            latency,
            busy,
            admission_rejected,
            slow_queries,
            events_pushed,
            events_dropped,
            cache_hits,
            cache_misses,
            load_shed,
            pool_jobs,
            panics,
        }
    }

    /// The underlying registry, for engine-specific `gauge_fn`s.
    pub(crate) fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Bumps the request counter of `verb` (a [`VERBS`] member).
    pub(crate) fn inc_verb(&self, verb: &str) {
        if let Some((_, c)) = self.requests.iter().find(|(v, _)| *v == verb) {
            c.inc();
        }
    }

    /// Records one request latency for `verb`; no-op for untimed verbs.
    pub(crate) fn observe(&self, verb: &str, elapsed: Duration) {
        if let Some((_, h)) = self.latency.iter().find(|(v, _)| *v == verb) {
            h.record(elapsed);
        }
    }

    /// Renders every family in the Prometheus text exposition format.
    pub(crate) fn render(&self) -> String {
        self.registry.render()
    }
}
