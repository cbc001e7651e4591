//! Social-influence analysis (the paper's Facebook dataset): bursts of
//! interaction flowing along chains of users suggest information
//! propagation (§1: "groups of users with frequent communication within a
//! short period have high chance to influence each other").
//!
//! The example compares the runtime of the two-phase algorithm with the
//! join baseline on this multi-edge-heavy workload, and checks chain
//! significance — the paper's Fig. 14 finds chains over-represented on
//! Facebook.
//!
//! Run with: `cargo run --release --example influence_chains`

use flowmotif::prelude::*;
use std::time::Instant;

fn main() {
    let mg = Dataset::Facebook.generate_multigraph(0.6, 11);
    let g: TimeSeriesGraph = (&mg).into();
    println!("facebook-like network: {}", GraphStats::of(&g));

    let delta = Dataset::Facebook.default_delta();
    let phi = Dataset::Facebook.default_phi();

    // Influence chains: 3 users relaying >= ϕ interactions within δ.
    let motif = catalog::by_name("M(3,2)", delta, phi).unwrap();

    let t0 = Instant::now();
    let (n_two_phase, _) = Query::new(&motif).count(&g);
    let t_two_phase = t0.elapsed();

    let t0 = Instant::now();
    let (joined, join_stats) = join_enumerate(&g, &motif);
    let t_join = t0.elapsed();

    assert_eq!(n_two_phase, joined.len() as u64, "algorithms agree");
    println!(
        "\n{} influence chains; two-phase {:.1?} vs join {:.1?} \
         (join materialised {} intermediate sub-instances)",
        n_two_phase,
        t_two_phase,
        t_join,
        join_stats.intermediate_per_level.iter().sum::<u64>(),
    );

    // Longer cascades: how deep does influence chain within one window?
    println!("\ncascade depth at δ = {delta}, ϕ = {phi}:");
    for name in ["M(3,2)", "M(4,3)", "M(5,4)"] {
        let m = catalog::by_name(name, delta, phi).unwrap();
        let (n, _) = Query::new(&m).count(&g);
        println!("  {:<6} ({} hops): {n}", name, m.num_edges());
    }

    // Significance of chains against the flow-permutation null model.
    let sig =
        assess_motif(&mg, &motif, SignificanceConfig { num_replicas: 10, seed: 5, threads: 0 });
    println!(
        "\nsignificance of M(3,2): real={} random mean={:.1} z={:.2} p={:.2}",
        sig.real_count, sig.random_mean, sig.z_score, sig.p_value
    );

    // Parallel speed-up on the heaviest chain motif.
    let heavy = catalog::by_name("M(5,4)", delta, phi).unwrap();
    let t0 = Instant::now();
    let (seq, _) = Query::new(&heavy).count(&g);
    let t_seq = t0.elapsed();
    let t0 = Instant::now();
    let (par, _) = Query { par: Some(ParOptions::with_threads(0)), ..Query::new(&heavy) }.count(&g);
    let t_par = t0.elapsed();
    assert_eq!(seq, par);
    println!("\nM(5,4) on all cores: {t_seq:.1?} sequential vs {t_par:.1?} parallel");
}
