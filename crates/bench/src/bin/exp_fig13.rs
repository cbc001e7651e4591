//! Experiment F13 — regenerates paper Fig. 13: scalability of the
//! two-phase algorithm over time-prefix samples of each dataset
//! (B1–B5, F1–F5, T1–T4), at the default δ/ϕ.
//!
//! Run: `cargo run --release -p flowmotif-bench --bin exp_fig13 [--scale S]`

use flowmotif_bench::{harness::ms, time_it, CommonArgs, ExpContext, Table};
use flowmotif_core::Query;
use flowmotif_datasets::{time_prefix_samples, Dataset};

struct Point {
    dataset: String,
    sample: String,
    motif: String,
    interactions: usize,
    instances: u64,
    time_ms: f64,
}

flowmotif_util::impl_to_json!(Point { dataset, sample, motif, interactions, instances, time_ms });

fn main() {
    let args = CommonArgs::parse();
    let ctx = ExpContext::new(args.scale, args.seed);
    println!(
        "Fig. 13: scalability over time-prefix samples, default δ/ϕ, scale={} seed={}\n",
        args.scale, args.seed
    );
    let mut points = Vec::new();
    for d in Dataset::ALL {
        let mg = ctx.multigraph(d);
        let samples = time_prefix_samples(&mg, &d.prefix_fractions());
        let motifs = if args.quick { ctx.motifs_quick(d) } else { ctx.motifs(d) };
        let mut headers = vec!["Motif".to_string()];
        headers.extend(samples.iter().map(|s| format!("{} ({})", s.label, s.num_interactions)));
        let mut counts = Table::new(headers.clone());
        let mut times = Table::new(headers);
        for m in &motifs {
            let mut crow = vec![m.name()];
            let mut trow = vec![m.name()];
            for s in &samples {
                let ((n, _), t) = time_it(|| Query::new(m).count(&s.graph));
                crow.push(n.to_string());
                trow.push(format!("{:.1}", ms(t)));
                points.push(Point {
                    dataset: d.name().into(),
                    sample: s.label.clone(),
                    motif: m.name(),
                    interactions: s.num_interactions,
                    instances: n,
                    time_ms: ms(t),
                });
            }
            counts.row(crow);
            times.row(trow);
        }
        println!("== {} — #instances per sample ==", d.name());
        counts.print();
        println!("\n== {} — time (ms) per sample ==", d.name());
        times.print();
        println!();
    }
    println!("paper shape: cost grows more slowly than #instances and input size.");
    args.maybe_write_json(&points);
}
