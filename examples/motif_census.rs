//! Exploration beyond the fixed catalog: run a census over *every* walk
//! motif shape of a given size (FANMOD-style, paper §2) and rank the most
//! active vertex groups (§5.1 extensibility).
//!
//! Run with: `cargo run --release --example motif_census`

use flowmotif::prelude::*;

fn main() {
    let g = Dataset::Bitcoin.generate(0.6, 21);
    println!("bitcoin-like network: {}", GraphStats::of(&g));
    let delta = Dataset::Bitcoin.default_delta();
    let phi = Dataset::Bitcoin.default_phi();

    // 1. Census: which 3-edge shapes actually occur with significant
    //    flow? (0-1-2-3 is the chain, 0-1-2-0 the triangle, 0-1-0-2 the
    //    bounce, ...)
    println!("\ncensus of all 3-edge walk shapes (δ={delta}, ϕ={phi}):");
    let rows = walk_census(&g, 3, delta, phi, SearchOptions::default(), ParOptions::default())
        .expect("a 3-edge census at the dataset defaults");
    for row in rows {
        println!(
            "  {:<10} {:>6} instances   ({} structural matches)",
            row.shape.to_string(),
            row.instances,
            row.structural_matches
        );
    }

    // 2. Activity: which vertex groups host the most M(3,2) instances,
    //    and when are they active?
    let motif = catalog::by_name("M(3,2)", delta, phi).unwrap();
    let acts = per_match_activity(&g, &motif);
    println!("\ntop flow corridors for {}:", motif.name());
    for a in acts.iter().take(3) {
        println!(
            "  nodes {:?}: {} instances, best flow {:.1}, active t={}..{}",
            a.structural_match.walk_nodes(&g),
            a.instances,
            a.max_flow,
            a.first_activity.unwrap_or(0),
            a.last_activity.unwrap_or(0)
        );
    }
    // The per-window activity series of the hottest corridor (bucketed).
    if let Some(hot) = acts.first() {
        let series = window_top1_series(&g, &motif, &hot.structural_match, delta);
        println!("  activity timeline of the hottest corridor (bucket = δ):");
        for w in series.iter().take(6) {
            println!("    t={:>6}: best window flow {:.1}", w.bucket_start, w.max_flow);
        }
    }
}
