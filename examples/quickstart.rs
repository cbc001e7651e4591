//! Quickstart: build a small interaction network, search a flow motif,
//! rank instances, and find the top-1 via dynamic programming.
//!
//! Run with: `cargo run --example quickstart`

use flowmotif::prelude::*;

fn main() {
    // 1. Build an interaction network. Each interaction is
    //    (from, to, time, flow) — e.g. an account-to-account payment.
    //    This is the running example of the paper (Fig. 2).
    let mut b = GraphBuilder::new();
    b.extend_interactions([
        (2u32, 0u32, 10i64, 10.0), // u3 pays u1 ten units at t=10
        (0, 1, 13, 5.0),           // u1 forwards to u2 in two chunks...
        (0, 1, 15, 7.0),
        (1, 2, 18, 20.0), // ...and u2 closes the cycle back to u3
        (3, 2, 1, 2.0),
        (3, 2, 3, 5.0),
        (3, 0, 11, 10.0),
        (2, 3, 19, 5.0),
        (2, 3, 21, 4.0),
        (1, 3, 23, 7.0),
    ]);
    let g = b.build_time_series_graph();
    println!("graph: {}", GraphStats::of(&g));

    // 2. Describe the pattern: a cyclic flow over three parties (M(3,3)),
    //    completing within δ=10 time units, moving at least ϕ=7 units on
    //    every hop. Multiple transfers on a hop aggregate.
    let motif = catalog::by_name("M(3,3)", 10, 7.0).unwrap();
    println!("searching {motif}");

    // 3. Enumerate all maximal instances (two-phase algorithm, §4).
    let (groups, stats) = Query::new(&motif).collect(&g);
    println!(
        "phase P1 found {} structural matches; phase P2 emitted {} instances",
        stats.structural_matches, stats.instances_emitted
    );
    for (sm, instances) in &groups {
        for inst in instances {
            println!(
                "  cycle over nodes {:?}, flow {}, span {}: {}",
                sm.walk_nodes(&g),
                inst.flow,
                inst.span(),
                inst.display(&g)
            );
        }
    }

    // 4. Rank instead of filtering: top-k by flow with ϕ = 0 (§5).
    let ranking = catalog::by_name("M(3,3)", 10, 0.0).unwrap();
    let (ranked, _) = Query::new(&ranking).top_k(&g, 3);
    println!("top-{} instances by flow:", ranked.len());
    for (i, r) in ranked.iter().enumerate() {
        println!("  #{}: flow {}", i + 1, r.instance.flow);
    }

    // 5. Top-1 via the dynamic-programming module (§5.1) — same answer,
    //    less work per window.
    let (best, _) = Query::new(&ranking).top1(&g, &mut SearchScratch::default());
    let (_, inst) = best.expect("the graph has instances");
    println!("DP top-1 flow: {}", inst.flow);
    assert_eq!(inst.flow, ranked[0].instance.flow);
}
