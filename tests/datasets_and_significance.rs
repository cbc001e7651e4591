//! Integration tests for the synthetic datasets, the permutation null
//! model, time-prefix sampling, and the significance pipeline — the
//! pieces behind experiments T3, F13 and F14.

mod common;

use common::case_rng;
use flowmotif::prelude::*;
use flowmotif_util::rng::RngExt;

#[test]
fn all_datasets_generate_and_search_end_to_end() {
    for d in Dataset::ALL {
        let g = d.generate(0.15, 3);
        let stats = GraphStats::of(&g);
        assert!(stats.num_interactions > 0, "{d}");
        let motif = catalog::by_name("M(3,2)", d.default_delta(), d.default_phi()).unwrap();
        let (n, search) = Query::new(&motif).count(&g);
        assert!(search.structural_matches > 0, "{d}");
        // Two-phase and join agree on generated data too.
        let (joined, _) = join_enumerate(&g, &motif);
        assert_eq!(n, joined.len() as u64, "{d}");
    }
}

#[test]
fn propagation_produces_significant_motifs() {
    // The flow-conservation pass is what separates real from permuted
    // data (experiment F14). At modest scale the z-score should be
    // clearly positive for chains on every dataset.
    for d in [Dataset::Bitcoin, Dataset::Facebook] {
        let mg = d.generate_multigraph(0.4, 42);
        let motif = catalog::by_name("M(3,2)", d.default_delta(), d.default_phi()).unwrap();
        let sig =
            assess_motif(&mg, &motif, SignificanceConfig { num_replicas: 8, seed: 9, threads: 2 });
        assert!(
            sig.z_score > 3.0,
            "{d}: z={} real={} mean={}",
            sig.z_score,
            sig.real_count,
            sig.random_mean
        );
        assert_eq!(sig.p_value, 0.0, "{d}");
    }
}

#[test]
fn prefix_samples_nest_and_final_equals_full() {
    let mg = Dataset::Bitcoin.generate_multigraph(0.2, 5);
    let samples = time_prefix_samples(&mg, &Dataset::Bitcoin.prefix_fractions());
    assert_eq!(samples.len(), 5);
    let motif = catalog::by_name("M(3,2)", 600, 5.0).unwrap();
    let mut prev_count = 0u64;
    for s in &samples {
        // Instance counts grow (weakly) with the sample: more data can
        // only add activity.
        let (n, _) = Query::new(&motif).count(&s.graph);
        assert!(n >= prev_count, "{}: {n} < {prev_count}", s.label);
        prev_count = n;
    }
    let full: TimeSeriesGraph = (&mg).into();
    let (n_full, _) = Query::new(&motif).count(&full);
    assert_eq!(prev_count, n_full, "final sample == full dataset");
}

/// The permutation null model preserves exactly what §6.3 requires:
/// structure, timestamps, and the multiset of flow values.
#[test]
fn permutation_null_model_invariants() {
    for case in 0..16u64 {
        let mut rng = case_rng(0x21, case);
        let seed = rng.random_range(0u64..500);
        let mg = Dataset::Passenger.generate_multigraph(0.08, 11);
        let r = permute_flows(&mg, seed);
        // skeleton identical
        for (a, b) in mg.interactions().iter().zip(r.interactions()) {
            assert_eq!((a.from, a.to, a.time), (b.from, b.to, b.time), "case {case}");
        }
        // flow multiset identical
        let key = |g: &TemporalMultigraph| {
            let mut v: Vec<u64> = g.interactions().iter().map(|i| i.flow.to_bits()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(key(&mg), key(&r), "case {case}");
        // structural matches identical (flow-agnostic phase P1)
        let motif = catalog::by_name("M(3,3)", 900, 0.0).unwrap();
        let a: TimeSeriesGraph = (&mg).into();
        let b: TimeSeriesGraph = (&r).into();
        assert_eq!(
            find_structural_matches(&a, motif.path()),
            find_structural_matches(&b, motif.path()),
            "case {case}"
        );
        // with ϕ = 0 even the instance count is invariant
        assert_eq!(Query::new(&motif).count(&a).0, Query::new(&motif).count(&b).0, "case {case}");
    }
}

/// Generators are deterministic and honour the scale knob.
#[test]
fn generator_scaling() {
    for case in 0..16u64 {
        let mut rng = case_rng(0x22, case);
        let scale = rng.random_range(0.05f64..0.5);
        let a = Dataset::Facebook.generate_multigraph(scale, 1);
        let b = Dataset::Facebook.generate_multigraph(scale, 1);
        assert_eq!(a.interactions().len(), b.interactions().len(), "case {case}");
        let cfg = Dataset::Facebook.config().scaled(scale);
        let ts: TimeSeriesGraph = (&a).into();
        assert_eq!(ts.num_pairs(), cfg.num_pairs, "case {case} scale={scale}");
    }
}

#[test]
fn edge_list_io_round_trips_generated_data() {
    let mg = Dataset::Passenger.generate_multigraph(0.1, 17);
    let mut buf = Vec::new();
    flowmotif::graph::io::write_edge_list(&mg, &mut buf).unwrap();
    let loaded = flowmotif::graph::io::read_edge_list(buf.as_slice()).unwrap().build_multigraph();
    assert_eq!(loaded.num_interactions(), mg.num_interactions());
    assert!((loaded.total_flow() - mg.total_flow()).abs() < 1e-6);
    // Search results identical through the round trip.
    let motif = catalog::by_name("M(3,2)", 900, 2.0).unwrap();
    let a: TimeSeriesGraph = (&mg).into();
    let b: TimeSeriesGraph = (&loaded).into();
    assert_eq!(Query::new(&motif).count(&a).0, Query::new(&motif).count(&b).0);
}
