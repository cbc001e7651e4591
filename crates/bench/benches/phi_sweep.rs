//! Micro-bench counterpart of experiment F10 (paper Fig. 10): enumeration
//! cost as the flow constraint ϕ grows (prefix pruning bites earlier).

use flowmotif_bench::{micro, BenchGroup, ExpContext};
use flowmotif_core::{catalog, Query};
use flowmotif_datasets::Dataset;
use std::hint::black_box;

const SCALE: f64 = 0.25;

fn main() {
    let ctx = ExpContext::new(SCALE, 42);
    let mut group = BenchGroup::new("fig10_phi_sweep");
    group.measurement_time(std::time::Duration::from_secs(2));
    micro::header();
    for d in [Dataset::Bitcoin, Dataset::Facebook] {
        let g = ctx.graph(d);
        for phi in d.phi_sweep() {
            let motif = catalog::by_name("M(3,2)", d.default_delta(), phi).unwrap();
            group.bench(format!("{}/phi={phi}", d.name()), || {
                black_box(Query::new(&motif).count(&g))
            });
        }
    }
    group.finish();
}
