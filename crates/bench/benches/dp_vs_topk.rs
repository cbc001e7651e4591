//! Micro-bench counterpart of experiment F12 (paper Fig. 12): top-1
//! search via the general top-k algorithm (k = 1) vs the DP module of
//! §5.1.

use flowmotif_bench::{micro, BenchGroup, ExpContext};
use flowmotif_core::{Query, SearchScratch};
use flowmotif_datasets::Dataset;
use std::hint::black_box;

const SCALE: f64 = 0.25;
const MOTIFS: [&str; 3] = ["M(3,2)", "M(3,3)", "M(4,4)A"];

fn main() {
    let ctx = ExpContext::new(SCALE, 42);
    let mut group = BenchGroup::new("fig12_dp_vs_topk");
    group.measurement_time(std::time::Duration::from_secs(2));
    micro::header();
    for d in Dataset::ALL {
        let g = ctx.graph(d);
        for m in ctx.motifs(d).into_iter().filter(|m| MOTIFS.contains(&m.name().as_str())) {
            let motif = m.with_constraints(d.default_delta(), 0.0).unwrap();
            group.bench(format!("topk1/{}/{}", d.name(), motif.name()), || {
                black_box(Query::new(&motif).top_k(&g, 1))
            });
            group.bench(format!("dp/{}/{}", d.name(), motif.name()), || {
                black_box(
                    Query::new(&motif)
                        .top1(&g, &mut SearchScratch::default())
                        .0
                        .map_or(0.0, |(_, i)| i.flow),
                )
            });
        }
    }
    group.finish();
}
