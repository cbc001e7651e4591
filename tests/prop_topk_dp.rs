//! Randomized tests for the ranking variants (§5): top-k equals the head
//! of the sorted full enumeration, the DP module equals the maximum
//! enumerated flow, and the k-th flow is monotone in k.
//!
//! Formerly proptest suites; now seeded randomized tests with the same
//! case counts and oracles (the workspace builds offline).

mod common;

use common::{case_rng, pick, random_graph};
use flowmotif::prelude::*;
use flowmotif_util::rng::RngExt;

const CASES: u64 = 64;

fn sorted_flows_desc(g: &TimeSeriesGraph, motif: &Motif) -> Vec<f64> {
    let (groups, _) = Query::new(motif).collect(g);
    let mut flows: Vec<f64> = groups.iter().flat_map(|(_, v)| v.iter().map(|i| i.flow)).collect();
    flows.sort_by(|a, b| b.total_cmp(a));
    flows
}

/// top-k == the first k instances of the full enumeration sorted in the
/// ranking order (flow descending, ties by edge sets): the same flows,
/// and among tied flows the same instances — also when a smaller-keyed
/// tie is found after the heap has filled.
#[test]
fn top_k_is_head_of_sorted_enumeration() {
    use flowmotif::core::topk::rank_order;
    for case in 0..CASES {
        let mut rng = case_rng(0x11, case);
        let g = random_graph(&mut rng, 8, 40);
        let name = pick(&mut rng, &["M(3,2)", "M(3,3)", "M(4,3)"]);
        let delta = rng.random_range(1i64..50);
        let k = rng.random_range(1usize..12);
        let motif = catalog::by_name(name, delta, 0.0).unwrap();
        let (groups, _) = Query::new(&motif).collect(&g);
        let mut all: Vec<(StructuralMatch, MotifInstance)> = groups
            .into_iter()
            .flat_map(|(sm, v)| v.into_iter().map(move |i| (sm.clone(), i)))
            .collect();
        all.sort_by(|a, b| rank_order(&a.1, &b.1));
        let (ranked, _) = Query::new(&motif).top_k(&g, k);
        let got: Vec<_> = ranked.into_iter().map(|r| (r.structural_match, r.instance)).collect();
        let want: Vec<_> = all.into_iter().take(k).collect();
        assert_eq!(got, want, "case {case}: {name} δ={delta} k={k}");
    }
}

/// The DP module's max flow equals the best enumerated instance flow,
/// and its witness instance is valid per Def. 3.2.
#[test]
fn dp_equals_enumeration_max() {
    use flowmotif::core::validate::check_instance_valid;
    for case in 0..CASES {
        let mut rng = case_rng(0x12, case);
        let g = random_graph(&mut rng, 8, 40);
        let name = pick(&mut rng, &["M(3,2)", "M(3,3)", "M(4,3)"]);
        let delta = rng.random_range(1i64..50);
        let motif = catalog::by_name(name, delta, 0.0).unwrap();
        let all = sorted_flows_desc(&g, &motif);
        let want = all.first().copied().unwrap_or(0.0);
        let (best, _) = Query::new(&motif).top1(&g, &mut SearchScratch::default());
        match best {
            None => assert!(all.is_empty(), "case {case}: DP found nothing, enumeration did"),
            Some((sm, inst)) => {
                assert!(
                    (inst.flow - want).abs() < 1e-9,
                    "case {case}: dp={} enumeration={want}",
                    inst.flow
                );
                check_instance_valid(&g, &motif, &sm, &inst)
                    .unwrap_or_else(|e| panic!("case {case}: {e}"));
            }
        }
    }
}

/// kth_instance_flow is non-increasing in k and None past the end.
#[test]
fn kth_flow_is_monotone() {
    for case in 0..CASES {
        let mut rng = case_rng(0x13, case);
        let g = random_graph(&mut rng, 8, 40);
        let delta = rng.random_range(1i64..50);
        let motif = catalog::by_name("M(3,2)", delta, 0.0).unwrap();
        let all = sorted_flows_desc(&g, &motif);
        let mut prev = f64::INFINITY;
        for k in 1..=(all.len() + 2) {
            match Query::new(&motif).top_k(&g, k).0.get(k - 1).map(|r| r.instance.flow) {
                Some(f) => {
                    assert!(k <= all.len(), "case {case}: k={k} beyond {}", all.len());
                    assert!(f <= prev, "case {case}: k={k} flow {f} > {prev}");
                    prev = f;
                }
                None => assert!(k > all.len(), "case {case}: missing k={k}"),
            }
        }
    }
}

/// Raising ϕ never increases the instance count; ϕ=0 gives the most.
#[test]
fn phi_monotonicity() {
    for case in 0..CASES {
        let mut rng = case_rng(0x14, case);
        let g = random_graph(&mut rng, 8, 40);
        let name = pick(&mut rng, &["M(3,2)", "M(3,3)"]);
        let delta = rng.random_range(1i64..50);
        let mut prev = u64::MAX;
        for phi in [0.0, 2.0, 5.0, 9.0, 20.0] {
            let motif = catalog::by_name(name, delta, phi).unwrap();
            let (n, _) = Query::new(&motif).count(&g);
            assert!(n <= prev, "case {case}: phi={phi}: {n} > {prev}");
            prev = n;
        }
    }
}

/// The *top-1 flow* is monotone in δ: a larger window can only admit
/// richer instances.
#[test]
fn top1_flow_monotone_in_delta() {
    for case in 0..CASES {
        let mut rng = case_rng(0x15, case);
        let g = random_graph(&mut rng, 8, 40);
        let name = pick(&mut rng, &["M(3,2)", "M(3,3)"]);
        let mut prev = 0.0f64;
        for delta in [2i64, 5, 10, 25, 60] {
            let motif = catalog::by_name(name, delta, 0.0).unwrap();
            let flow = Query::new(&motif)
                .top1(&g, &mut SearchScratch::default())
                .0
                .map_or(0.0, |(_, i)| i.flow);
            assert!(flow + 1e-9 >= prev, "case {case}: delta={delta}: {flow} < {prev}");
            prev = flow;
        }
    }
}
