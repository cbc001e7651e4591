//! Passenger-flow analysis (the paper's third dataset): movement chains
//! between taxi zones. Region-to-region chains M(4,3) model multi-leg
//! movement patterns; the example sweeps the time budget δ and contrasts
//! chains with cycles, reproducing the paper's observation that acyclic
//! motifs dominate passenger networks (§6.2.2).
//!
//! Run with: `cargo run --release --example passenger_flows`

use flowmotif::prelude::*;

fn main() {
    // 289 taxi zones, ~3 parallel trips per connected pair, small
    // passenger counts (see DESIGN.md: synthetic stand-in for the NYC
    // yellow-taxi data the paper uses).
    let g = Dataset::Passenger.generate(1.0, 42);
    println!("passenger network: {}", GraphStats::of(&g));

    // How much chained movement (>= 2 passengers per leg) exists within
    // different time budgets?
    let phi = Dataset::Passenger.default_phi();
    println!("\nδ sweep for the 4-zone chain M(4,3), ϕ = {phi}:");
    for delta in Dataset::Passenger.delta_sweep() {
        let motif = catalog::by_name("M(4,3)", delta, phi).unwrap();
        let (n, stats) = Query::new(&motif).count(&g);
        println!("  δ={delta:>5}: {n:>6} chains ({} windows examined)", stats.windows_processed);
    }

    // Chains vs cycles at the default δ: passenger flows rarely loop.
    let delta = Dataset::Passenger.default_delta();
    println!("\nchains vs cycles at δ = {delta}:");
    for name in ["M(3,2)", "M(3,3)", "M(4,3)", "M(4,4)A", "M(5,4)", "M(5,5)A"] {
        let motif = catalog::by_name(name, delta, phi).unwrap();
        let (n, _) = Query::new(&motif).count(&g);
        let kind = if motif.path().has_cycle() { "cycle" } else { "chain" };
        println!("  {name:<8} ({kind}): {n}");
    }

    // The busiest corridor: the top-ranked 3-zone chain by passengers.
    let ranking = catalog::by_name("M(3,2)", delta, 0.0).unwrap();
    let (top, _) = Query::new(&ranking).top_k(&g, 3);
    println!("\nbusiest 3-zone corridors (passengers on the weakest leg):");
    for (i, r) in top.iter().enumerate() {
        println!(
            "  #{}: zones {:?} moved {} passengers within {} time units",
            i + 1,
            r.structural_match.walk_nodes(&g),
            r.instance.flow,
            r.instance.span()
        );
    }
}
