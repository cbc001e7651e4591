//! Ablation benches for the design choices called out in `DESIGN.md`:
//!
//! * window-skip rule (guard 1) on/off;
//! * `ϕ` prefix pruning (Algorithm 1 line 16) on/off;
//! * sequential vs parallel phase P2.
//!
//! All variants return identical result sets; only the work differs.

use flowmotif_bench::{micro, BenchGroup, ExpContext};
use flowmotif_core::enumerate::{CountSink, SearchOptions};
use flowmotif_core::{ParOptions, Query, SearchScratch};
use flowmotif_datasets::Dataset;
use std::hint::black_box;

const SCALE: f64 = 0.25;

fn main() {
    let ctx = ExpContext::new(SCALE, 42);
    let mut group = BenchGroup::new("ablation");
    group.measurement_time(std::time::Duration::from_secs(2));
    let d = Dataset::Facebook; // multi-edge-heavy: pruning matters most
    let g = ctx.graph(d);
    let motif = &ctx.motifs(d)[0]; // M(3,2) at default δ/ϕ

    let base = SearchOptions::default();
    let variants = [
        ("full", base),
        ("no_window_skip", SearchOptions { skip_redundant_windows: false, ..base }),
        ("no_phi_prune", SearchOptions { phi_prefix_pruning: false, ..base }),
        (
            "neither",
            SearchOptions { skip_redundant_windows: false, phi_prefix_pruning: false, ..base },
        ),
    ];
    micro::header();
    for (name, opts) in variants {
        group.bench(format!("options/{name}"), || {
            let mut sink = CountSink::default();
            black_box(Query { opts, ..Query::new(motif) }.run(
                &g,
                &mut sink,
                &mut SearchScratch::default(),
            ));
            sink.count
        });
    }
    for threads in [1usize, 2, 4] {
        group.bench(format!("threads/{threads}"), || {
            black_box(
                Query { par: Some(ParOptions::with_threads(threads)), ..Query::new(motif) }
                    .count(&g),
            )
        });
    }
    group.finish();
}
