//! Micro-bench counterpart of experiment F13 (paper Fig. 13): enumeration
//! cost over growing time-prefix samples of each dataset.

use flowmotif_bench::{micro, BenchGroup, ExpContext};
use flowmotif_core::{catalog, Query};
use flowmotif_datasets::{time_prefix_samples, Dataset};
use std::hint::black_box;

const SCALE: f64 = 0.25;

fn main() {
    let ctx = ExpContext::new(SCALE, 42);
    let mut group = BenchGroup::new("fig13_scaling");
    group.measurement_time(std::time::Duration::from_secs(2));
    micro::header();
    for d in Dataset::ALL {
        let mg = ctx.multigraph(d);
        let motif = catalog::by_name("M(3,2)", d.default_delta(), d.default_phi()).unwrap();
        for s in time_prefix_samples(&mg, &d.prefix_fractions()) {
            group.bench(
                format!("{}/{} ({} interactions)", d.name(), s.label, s.num_interactions),
                || black_box(Query::new(&motif).count(&s.graph)),
            );
        }
    }
    group.finish();
}
