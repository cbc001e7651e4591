//! Experiment F9 — regenerates paper Fig. 9: number of instances and
//! runtime of the two-phase algorithm as `δ` varies (ϕ at its default).
//!
//! Run: `cargo run --release -p flowmotif-bench --bin exp_fig9 [--scale S]`

use flowmotif_bench::{harness::ms, time_it, CommonArgs, ExpContext, Table};
use flowmotif_core::Query;
use flowmotif_datasets::Dataset;

struct Point {
    dataset: String,
    motif: String,
    delta: i64,
    phi: f64,
    instances: u64,
    time_ms: f64,
}

flowmotif_util::impl_to_json!(Point { dataset, motif, delta, phi, instances, time_ms });

fn main() {
    let args = CommonArgs::parse();
    let ctx = ExpContext::new(args.scale, args.seed);
    println!(
        "Fig. 9: #instances and time vs δ (ϕ = dataset default), scale={} seed={}\n",
        args.scale, args.seed
    );
    let mut points = Vec::new();
    for d in Dataset::ALL {
        let g = ctx.graph(d);
        let motifs = if args.quick { ctx.motifs_quick(d) } else { ctx.motifs(d) };
        let sweep = if args.quick {
            d.delta_sweep().into_iter().step_by(2).collect()
        } else {
            d.delta_sweep()
        };
        let mut headers = vec!["Motif".to_string()];
        headers.extend(sweep.iter().map(|x| format!("δ={x}")));
        let mut counts = Table::new(headers.clone());
        let mut times = Table::new(headers);
        for m in &motifs {
            let mut crow = vec![m.name()];
            let mut trow = vec![m.name()];
            for &delta in &sweep {
                let motif = m.with_constraints(delta, d.default_phi()).unwrap();
                let ((n, _), t) = time_it(|| Query::new(&motif).count(&g));
                crow.push(n.to_string());
                trow.push(format!("{:.1}", ms(t)));
                points.push(Point {
                    dataset: d.name().into(),
                    motif: m.name(),
                    delta,
                    phi: d.default_phi(),
                    instances: n,
                    time_ms: ms(t),
                });
            }
            counts.row(crow);
            times.row(trow);
        }
        println!("== {} — #instances ==", d.name());
        counts.print();
        println!("\n== {} — time (ms) ==", d.name());
        times.print();
        println!();
    }
    println!(
        "paper shape: both #instances and time grow with δ; time grows slower than #instances."
    );
    args.maybe_write_json(&points);
}
