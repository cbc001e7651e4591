//! Experiment F8 — regenerates paper Fig. 8: runtime of the two-phase
//! algorithm vs the join-based baseline for all ten catalog motifs on the
//! three datasets, at the default δ/ϕ.
//!
//! Run: `cargo run --release -p flowmotif-bench --bin exp_fig8 [--scale S]`

use flowmotif_baseline::join_enumerate;
use flowmotif_bench::{harness::ms, time_it, CommonArgs, ExpContext, Table};
use flowmotif_core::count_instances;
use flowmotif_datasets::Dataset;

struct Row {
    dataset: String,
    motif: String,
    instances: u64,
    two_phase_ms: f64,
    join_ms: f64,
}

flowmotif_util::impl_to_json!(Row { dataset, motif, instances, two_phase_ms, join_ms });

fn main() {
    let args = CommonArgs::parse();
    let ctx = ExpContext::new(args.scale, args.seed);
    println!(
        "Fig. 8: two-phase vs join algorithm, default δ/ϕ, scale={} seed={}\n",
        args.scale, args.seed
    );
    let mut rows = Vec::new();
    for d in Dataset::ALL {
        let g = ctx.graph(d);
        let motifs = if args.quick { ctx.motifs_quick(d) } else { ctx.motifs(d) };
        let mut table =
            Table::new(["Motif", "#instances", "two-phase (ms)", "join (ms)", "join/two-phase"]);
        for m in &motifs {
            let ((n2, _), t2) = time_it(|| count_instances(&g, m));
            let ((nj, _), tj) = time_it(|| join_enumerate(&g, m));
            assert_eq!(n2, nj.len() as u64, "two-phase and join must agree on {m}");
            table.row([
                m.name(),
                n2.to_string(),
                format!("{:.2}", ms(t2)),
                format!("{:.2}", ms(tj)),
                format!("{:.2}x", ms(tj) / ms(t2).max(1e-9)),
            ]);
            rows.push(Row {
                dataset: d.name().into(),
                motif: m.name(),
                instances: n2,
                two_phase_ms: ms(t2),
                join_ms: ms(tj),
            });
        }
        println!("== {} (δ={}, ϕ={}) ==", d.name(), d.default_delta(), d.default_phi());
        table.print();
        println!();
    }
    println!("paper shape: two-phase ~2x faster than join (join materialises redundant sub-motif instances).");
    args.maybe_write_json(&rows);
}
