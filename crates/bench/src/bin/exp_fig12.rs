//! Experiment F12 — regenerates paper Fig. 12: phase-P2 runtime of top-1
//! search via the general top-k algorithm (k = 1) vs the dynamic
//! programming module of §5.1.
//!
//! Phase P1 (structural matching) is shared, so the comparison times P2
//! only, exactly like the paper's bar charts.
//!
//! Run: `cargo run --release -p flowmotif-bench --bin exp_fig12 [--scale S]`

use flowmotif_bench::{harness::ms, time_it, CommonArgs, ExpContext, Table};
use flowmotif_core::dp::{dp_best_window_in_match, DpScratch, DpStats};
use flowmotif_core::enumerate::{
    enumerate_in_match, EnumerationScratch, SearchOptions, SearchStats,
};
use flowmotif_core::find_structural_matches;
use flowmotif_core::topk::TopKSink;
use flowmotif_datasets::Dataset;

struct Row {
    dataset: String,
    motif: String,
    top1_flow: f64,
    topk_p2_ms: f64,
    dp_p2_ms: f64,
}

flowmotif_util::impl_to_json!(Row { dataset, motif, top1_flow, topk_p2_ms, dp_p2_ms });

fn main() {
    let args = CommonArgs::parse();
    let ctx = ExpContext::new(args.scale, args.seed);
    println!(
        "Fig. 12: P2 time of top-1 search — top-k (k=1) vs DP module, scale={} seed={}\n",
        args.scale, args.seed
    );
    let mut rows = Vec::new();
    for d in Dataset::ALL {
        let g = ctx.graph(d);
        let motifs = if args.quick { ctx.motifs_quick(d) } else { ctx.motifs(d) };
        let mut table =
            Table::new(["Motif", "top-1 flow", "top-k k=1 P2 (ms)", "DP P2 (ms)", "DP/top-k"]);
        for m in &motifs {
            let motif = m.with_constraints(d.default_delta(), 0.0).unwrap();
            let matches = find_structural_matches(&g, motif.path());

            // P2 via the general top-k algorithm with k = 1.
            let (topk_flow, t_topk) = time_it(|| {
                let mut sink = TopKSink::new(1);
                let mut stats = SearchStats::default();
                let (opts, scratch) =
                    (SearchOptions::default(), &mut EnumerationScratch::default());
                for sm in &matches {
                    enumerate_in_match(&g, &motif, sm, None, opts, &mut sink, &mut stats, scratch);
                }
                sink.into_sorted().first().map_or(0.0, |r| r.instance.flow)
            });

            // P2 via the DP module (Algorithm 2), threading the best flow
            // found so far as the admissible pruning threshold — the same
            // role the floating threshold plays for top-k.
            let (dp_flow, t_dp) = time_it(|| {
                let mut stats = DpStats::default();
                let mut scratch = DpScratch::default();
                let mut best = 0.0f64;
                for sm in &matches {
                    if let Some((f, _)) =
                        dp_best_window_in_match(&g, &motif, sm, best, &mut scratch, &mut stats)
                    {
                        best = f;
                    }
                }
                best
            });
            assert!(
                (topk_flow - dp_flow).abs() < 1e-9,
                "{}: top-k found {topk_flow}, DP found {dp_flow}",
                m.name()
            );
            table.row([
                m.name(),
                format!("{topk_flow:.1}"),
                format!("{:.2}", ms(t_topk)),
                format!("{:.2}", ms(t_dp)),
                format!("{:.2}x", ms(t_dp) / ms(t_topk).max(1e-9)),
            ]);
            rows.push(Row {
                dataset: d.name().into(),
                motif: m.name(),
                top1_flow: topk_flow,
                topk_p2_ms: ms(t_topk),
                dp_p2_ms: ms(t_dp),
            });
        }
        println!("== {} (δ={}) ==", d.name(), d.default_delta());
        table.print();
        println!();
    }
    println!("paper shape: the DP module cuts P2 time by 20-40% vs top-k with k=1.");
    args.maybe_write_json(&rows);
}
