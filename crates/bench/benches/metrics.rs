//! Observability overhead benches: the raw cost of the metric
//! primitives, and proof that stage tracing stays cheap enough to leave
//! compiled into the hot path.
//!
//! Two hard assertions ride along with the timings:
//!
//! * `search/traced` must stay within 5% (plus a fixed 20 µs of timer
//!   slack) of `search/untraced` on the windowed enumeration — the
//!   [`TraceSink`] hook is a handful of atomics per window, and this
//!   gate fails the bench (and therefore CI) if per-match recording
//!   ever sneaks into the instrumentation.
//! * The comparison uses each bench's *minimum* iteration, the most
//!   scheduler-noise-robust statistic, so the `--quick` CI budgets
//!   cannot flake the gate.
//!
//! The medians still feed the ordinary regression gate via
//! `FLOWMOTIF_BENCH_JSON` like every other bench.

use flowmotif_bench::{micro, BenchGroup, ExpContext};
use flowmotif_core::enumerate::{CountSink, SearchOptions};
use flowmotif_core::{AtomicTrace, Query, SearchScratch};
use flowmotif_datasets::Dataset;
use flowmotif_graph::TimeWindow;
use flowmotif_obs::{Counter, Histogram};
use std::hint::black_box;
use std::time::Duration;

const SCALE: f64 = 0.25;

/// Primitive benches batch this many operations per iteration so the
/// per-op cost is not swamped by the harness's own `Instant` reads.
const BATCH: u64 = 1024;

fn main() {
    let ctx = ExpContext::new(SCALE, 42);
    let mut group = BenchGroup::new("metrics");
    group.measurement_time(Duration::from_secs(1));
    micro::header();

    static HIST: Histogram = Histogram::new();
    group.bench("histogram_record_x1024", || {
        for i in 0..BATCH {
            // Spread across buckets: the stride visits many magnitudes.
            HIST.record_ns(black_box((i + 1) * 977));
        }
        HIST.count()
    });

    static HITS: Counter = Counter::new();
    group.bench("counter_inc_x1024", || {
        for _ in 0..BATCH {
            HITS.inc();
        }
        HITS.get()
    });

    let d = Dataset::Facebook;
    let g = ctx.graph(d);
    let motif = ctx.motifs(d)[0].clone(); // M(3,2) at default δ/ϕ
    let (lo, hi) = g.time_span().expect("non-empty dataset");
    let mid = lo + (hi - lo) / 2;
    let window = TimeWindow::new(mid, mid + (hi - lo) / 4);

    {
        let mut scratch = SearchScratch::default();
        let (g, motif) = (&g, &motif);
        let opts = SearchOptions::default();
        group.bench("search/untraced", move || {
            let mut sink = CountSink::default();
            Query { bounds: Some(window), opts, ..Query::new(motif) }.run(
                g,
                &mut sink,
                &mut scratch,
            );
            sink.count
        });
    }
    {
        let trace: &'static AtomicTrace = Box::leak(Box::new(AtomicTrace::new()));
        let mut scratch = SearchScratch::default();
        let (g, motif) = (&g, &motif);
        let opts = SearchOptions { trace: Some(trace), ..SearchOptions::default() };
        group.bench("search/traced", move || {
            trace.reset();
            let mut sink = CountSink::default();
            Query { bounds: Some(window), opts, ..Query::new(motif) }.run(
                g,
                &mut sink,
                &mut scratch,
            );
            sink.count
        });
    }

    let min_of =
        |needle: &str| group.results().iter().find(|r| r.id.ends_with(needle)).map(|r| r.min);
    if let (Some(untraced), Some(traced)) = (min_of("search/untraced"), min_of("search/traced")) {
        let allowed = untraced.mul_f64(1.05) + Duration::from_micros(20);
        assert!(
            traced <= allowed,
            "trace overhead gate: traced search min {traced:?} exceeds untraced min \
             {untraced:?} by more than 5% + 20µs — stage tracing must stay per-window, \
             never per-match"
        );
    }
    group.finish();
}
