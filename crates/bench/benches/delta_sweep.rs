//! Micro-bench counterpart of experiment F9 (paper Fig. 9): enumeration
//! cost as the duration constraint δ grows.

use flowmotif_bench::{micro, BenchGroup, ExpContext};
use flowmotif_core::{catalog, Query};
use flowmotif_datasets::Dataset;
use std::hint::black_box;

const SCALE: f64 = 0.25;

fn main() {
    let ctx = ExpContext::new(SCALE, 42);
    let mut group = BenchGroup::new("fig9_delta_sweep");
    group.measurement_time(std::time::Duration::from_secs(2));
    micro::header();
    for d in [Dataset::Bitcoin, Dataset::Passenger] {
        let g = ctx.graph(d);
        for delta in d.delta_sweep() {
            let motif = catalog::by_name("M(3,2)", delta, d.default_phi()).unwrap();
            group.bench(format!("{}/delta={delta}", d.name()), || {
                black_box(Query::new(&motif).count(&g))
            });
        }
    }
    group.finish();
}
