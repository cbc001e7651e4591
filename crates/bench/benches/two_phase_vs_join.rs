//! Micro-bench counterpart of experiment F8 (paper Fig. 8): two-phase
//! enumeration vs the join baseline, per dataset and motif.

use flowmotif_baseline::join_enumerate;
use flowmotif_bench::{micro, BenchGroup, ExpContext};
use flowmotif_core::Query;
use flowmotif_datasets::Dataset;
use std::hint::black_box;

const SCALE: f64 = 0.25;
const MOTIFS: [&str; 4] = ["M(3,2)", "M(3,3)", "M(4,4)A", "M(5,5)A"];

fn main() {
    let ctx = ExpContext::new(SCALE, 42);
    let mut group = BenchGroup::new("fig8_two_phase_vs_join");
    group.measurement_time(std::time::Duration::from_secs(2));
    micro::header();
    for d in Dataset::ALL {
        let g = ctx.graph(d);
        for m in ctx.motifs(d).into_iter().filter(|m| MOTIFS.contains(&m.name().as_str())) {
            group.bench(format!("two_phase/{}/{}", d.name(), m.name()), || {
                black_box(Query::new(&m).count(&g))
            });
            group.bench(format!("join/{}/{}", d.name(), m.name()), || {
                black_box(join_enumerate(&g, &m))
            });
        }
    }
    group.finish();
}
