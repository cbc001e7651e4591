//! Ablation benches for the design choices called out in `DESIGN.md`:
//!
//! * window-skip rule (guard 1) on/off;
//! * `ϕ` prefix pruning (Algorithm 1 line 16) on/off;
//! * sequential vs parallel phase P2.
//!
//! All variants return identical result sets; only the work differs.

use flowmotif_bench::{micro, BenchGroup, ExpContext};
use flowmotif_core::enumerate::{enumerate_with_sink, CountSink, SearchOptions};
use flowmotif_core::parallel::par_count_instances;
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
        ("no_window_skip", base.with_skip_redundant_windows(false)),
        ("no_phi_prune", base.with_phi_prefix_pruning(false)),
        ("neither", base.with_skip_redundant_windows(false).with_phi_prefix_pruning(false)),
    ];
    micro::header();
    for (name, opts) in variants {
        group.bench(format!("options/{name}"), || {
            let mut sink = CountSink::default();
            black_box(enumerate_with_sink(&g, motif, opts, &mut sink));
            sink.count
        });
    }
    for threads in [1usize, 2, 4] {
        group.bench(format!("threads/{threads}"), || {
            black_box(par_count_instances(&g, motif, threads))
        });
    }
    group.finish();
}
