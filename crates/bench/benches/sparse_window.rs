//! Bounded query on a *sparse* window: each origin is active only in its
//! own slice of the timeline, so a fixed-length window always covers the
//! same handful of active origins no matter how many pairs the graph
//! holds. With the active-time origin index, query cost must stay flat
//! as the total pair count grows 8×; the unindexed baseline sweeps every
//! origin (and probes every pair's window activity), so it scales with
//! the graph.

use flowmotif_bench::{micro, BenchGroup};
use flowmotif_core::{catalog, CountSink, Query, SearchOptions, SearchScratch};
use flowmotif_graph::{GraphBuilder, TimeSeriesGraph, TimeWindow};
use std::hint::black_box;

/// Time units each origin's activity slice occupies.
const SLICE: i64 = 10;
/// Window length: covers ~5 origin slices wherever it lands.
const WINDOW: i64 = 50;

/// A chain graph where origin `i` connects to `i + 1` with events only
/// inside `[i*SLICE, i*SLICE + SLICE - 1]` — activity is a moving slice,
/// so any fixed window is sparse.
fn sliced_chain(origins: u32) -> TimeSeriesGraph {
    let mut b = GraphBuilder::new();
    for i in 0..origins {
        let t0 = i as i64 * SLICE;
        for k in 0..4i64 {
            b.add_interaction(i, i + 1, t0 + k * 2, 1.0 + k as f64);
        }
    }
    b.build_time_series_graph()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: [u32; 2] = if quick { [4_000, 32_000] } else { [20_000, 160_000] };
    let motif = catalog::by_name("M(3,2)", 20, 0.0).unwrap();

    let mut group = BenchGroup::new("sparse_window");
    group.measurement_time(std::time::Duration::from_secs(2));
    micro::header();

    for origins in sizes {
        let g = sliced_chain(origins);
        // Slide the window deterministically so no single cache-hot spot
        // is measured.
        for (label, use_index) in [("indexed", true), ("unindexed", false)] {
            let opts = SearchOptions { use_active_index: use_index, ..SearchOptions::default() };
            let mut at = 0i64;
            let span = origins as i64 * SLICE;
            group.bench(format!("bounded_query_{label}_pairs{origins}"), || {
                at = (at + 997 * SLICE) % (span - WINDOW);
                let w = TimeWindow::new(at, at + WINDOW);
                let mut sink = CountSink::default();
                Query { bounds: Some(w), opts, ..Query::new(&motif) }.run(
                    &g,
                    &mut sink,
                    &mut SearchScratch::default(),
                );
                black_box(sink.count)
            });
        }
    }

    let r = group.results();
    if let [idx_small, raw_small, idx_large, raw_large] = r {
        println!(
            "# pairs {}->{}: indexed {:.2}x (flat = window-local), unindexed {:.2}x (O(pairs)); \
             index speedup at {} pairs: {:.1}x",
            sizes[0],
            sizes[1],
            idx_large.median.as_secs_f64() / idx_small.median.as_secs_f64(),
            raw_large.median.as_secs_f64() / raw_small.median.as_secs_f64(),
            sizes[1],
            raw_large.median.as_secs_f64() / idx_large.median.as_secs_f64(),
        );
    }
    group.finish();
}
