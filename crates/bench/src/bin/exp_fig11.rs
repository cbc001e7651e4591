//! Experiment F11 — regenerates paper Fig. 11: the flow of the k-th
//! ranked instance for k ∈ {1, 5, 10, 50, 100, 500} (top-k search with
//! ϕ = 0, δ at its default).
//!
//! Run: `cargo run --release -p flowmotif-bench --bin exp_fig11 [--scale S]`

use flowmotif_bench::{CommonArgs, ExpContext, Table};
use flowmotif_core::Query;
use flowmotif_datasets::Dataset;

const KS: [usize; 6] = [1, 5, 10, 50, 100, 500];

struct Point {
    dataset: String,
    motif: String,
    k: usize,
    flow: Option<f64>,
}

flowmotif_util::impl_to_json!(Point { dataset, motif, k, flow });

fn main() {
    let args = CommonArgs::parse();
    let ctx = ExpContext::new(args.scale, args.seed);
    println!(
        "Fig. 11: flow of the k-th ranked instance (ϕ=0, δ default), scale={} seed={}\n",
        args.scale, args.seed
    );
    let mut points = Vec::new();
    for d in Dataset::ALL {
        let g = ctx.graph(d);
        let motifs = if args.quick { ctx.motifs_quick(d) } else { ctx.motifs(d) };
        let mut headers = vec!["Motif".to_string()];
        headers.extend(KS.iter().map(|k| format!("k={k}")));
        let mut table = Table::new(headers);
        for m in &motifs {
            let motif = m.with_constraints(d.default_delta(), 0.0).unwrap();
            // One top-500 run serves every k.
            let (ranked, _) = Query::new(&motif).top_k(&g, *KS.last().unwrap());
            let mut row = vec![m.name()];
            for &k in &KS {
                let flow = (ranked.len() >= k).then(|| ranked[k - 1].instance.flow);
                row.push(flow.map_or("-".to_string(), |f| format!("{f:.1}")));
                points.push(Point { dataset: d.name().into(), motif: m.name(), k, flow });
            }
            table.row(row);
        }
        println!("== {} ==", d.name());
        table.print();
        println!();
    }
    println!("paper shape: k-th flow decreases in k, flattening for large k.");
    args.maybe_write_json(&points);
}
