//! Streaming ingestion vs full rebuild: the cost of absorbing a batch of
//! appends *and* answering a window-bounded motif query, for (a) the
//! resident `QueryEngine` and (b) a from-scratch `GraphBuilder` rebuild of
//! the surviving edge log. At the default 100k-interaction steady state
//! the resident engine should win by a wide margin — the rebuild pays
//! O(window) per query, the engine O(batch) amortized.

use flowmotif_bench::{micro, BenchGroup};
use flowmotif_core::{catalog, CountSink, Query, SearchScratch};
use flowmotif_graph::{GraphBuilder, TimeWindow};
use flowmotif_stream::{QueryEngine, SlidingWindow};
use flowmotif_util::rng::{RngExt, SeedableRng, StdRng};
use std::collections::VecDeque;
use std::hint::black_box;

/// Steady-state window size (interactions) — and, since the stream emits
/// one interaction per time unit, also the retention horizon.
const WINDOW: usize = 100_000;
/// Appends absorbed per measured iteration.
const BATCH: usize = 1_000;
/// Queries look back over this many time units.
const QUERY_SPAN: i64 = 2_000;
const NODES: u32 = 200_000;

/// Deterministic open-ended interaction stream: one event per time unit,
/// ~6% delivered out of order by up to 50 time units.
struct Stream {
    rng: StdRng,
    t: i64,
}

impl Stream {
    fn new(seed: u64) -> Self {
        Self { rng: StdRng::seed_from_u64(seed), t: 0 }
    }

    fn next_batch(&mut self, n: usize) -> Vec<(u32, u32, i64, f64)> {
        (0..n)
            .map(|_| {
                self.t += 1;
                let u = self.rng.random_range(0..NODES);
                let mut v = self.rng.random_range(0..NODES);
                while v == u {
                    v = self.rng.random_range(0..NODES);
                }
                let t = if self.rng.random_range(0u32..16) == 0 {
                    self.t - self.rng.random_range(1i64..50)
                } else {
                    self.t
                };
                (u, v, t, self.rng.random_range(1u32..100) as f64)
            })
            .collect()
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let window = if quick { WINDOW / 10 } else { WINDOW };
    let horizon = window as i64;
    let motif = catalog::by_name("M(3,2)", 30, 50.0).unwrap();

    let mut group = BenchGroup::new("streaming");
    group.measurement_time(std::time::Duration::from_secs(2));
    micro::header();

    // Resident engine at steady state.
    let mut stream = Stream::new(42);
    let mut engine = QueryEngine::new().with_window(SlidingWindow::new(horizon));
    engine.ingest(stream.next_batch(window)).unwrap();
    println!(
        "# steady state: {} resident interactions, horizon {horizon}",
        engine.stats().interactions
    );
    let mut scratch = SearchScratch::default();
    group.bench(format!("engine/append{BATCH}+query (window {window})"), || {
        engine.ingest(stream.next_batch(BATCH)).unwrap();
        let wm = engine.stats().watermark.unwrap();
        let bounds = Some(TimeWindow::new(wm - QUERY_SPAN, wm));
        let mut sink = CountSink::default();
        Query { bounds, ..Query::new(&motif) }.run(engine.graph(), &mut sink, &mut scratch);
        black_box(sink.count)
    });

    // Ingestion alone, for the per-append figure.
    let mut stream = Stream::new(43);
    let mut ingest_only = QueryEngine::new().with_window(SlidingWindow::new(horizon));
    ingest_only.ingest(stream.next_batch(window)).unwrap();
    group.bench(format!("engine/append{BATCH} only"), || {
        black_box(ingest_only.ingest(stream.next_batch(BATCH)).unwrap())
    });

    // The no-engine alternative: keep the surviving edge log, rebuild the
    // graph from scratch for every batch+query round.
    let mut stream = Stream::new(42);
    let mut log: VecDeque<(u32, u32, i64, f64)> = VecDeque::new();
    log.extend(stream.next_batch(window));
    group.bench(format!("rebuild/append{BATCH}+query (window {window})"), || {
        log.extend(stream.next_batch(BATCH));
        let wm = log.iter().map(|&(_, _, t, _)| t).max().unwrap();
        while log.front().is_some_and(|&(_, _, t, _)| t < wm - horizon) {
            log.pop_front();
        }
        let mut b = GraphBuilder::new();
        b.extend_interactions(log.iter().copied());
        let g = b.build_time_series_graph();
        black_box(
            Query { bounds: Some(TimeWindow::new(wm - QUERY_SPAN, wm)), ..Query::new(&motif) }
                .count(&g),
        )
    });

    if let [engine_r, _, rebuild_r] = group.results() {
        let speedup = rebuild_r.mean.as_secs_f64() / engine_r.mean.as_secs_f64();
        println!("# resident engine speedup over full rebuild: {speedup:.1}x");
    }
    group.finish();
}
