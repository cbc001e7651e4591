//! Randomized equivalence tests: on arbitrary small interaction networks,
//! the two-phase algorithm, the join baseline and the brute-force
//! reference agree exactly, and every emitted instance is valid
//! (Def. 3.2) and maximal (Def. 3.3).
//!
//! Formerly proptest suites; now seeded randomized tests with the same
//! case counts and oracles (the workspace builds offline).

mod common;

use common::{case_rng, pick, random_graph};
use flowmotif::core::validate::{
    brute_force_instances, check_instance_maximal, check_instance_valid, check_structural_match,
};
use flowmotif::prelude::*;
use flowmotif_util::rng::RngExt;

const CASES: u64 = 64;
const CATALOG: [&str; 4] = ["M(3,2)", "M(3,3)", "M(4,3)", "M(4,4)B"];

fn normalize(v: Vec<(StructuralMatch, MotifInstance)>) -> Vec<String> {
    let mut out: Vec<String> =
        v.iter().map(|(sm, i)| format!("{:?}|{:?}", sm.pairs, i.edge_sets)).collect();
    out.sort();
    out
}

fn flatten(
    groups: Vec<(StructuralMatch, Vec<MotifInstance>)>,
) -> Vec<(StructuralMatch, MotifInstance)> {
    groups.into_iter().flat_map(|(sm, is)| is.into_iter().map(move |i| (sm.clone(), i))).collect()
}

/// Two-phase output == join-baseline output, element for element.
#[test]
fn two_phase_equals_join() {
    for case in 0..CASES {
        let mut rng = case_rng(0x01, case);
        let g = random_graph(&mut rng, 8, 40);
        let name = pick(&mut rng, &CATALOG);
        let delta = rng.random_range(1i64..50);
        let phi = rng.random_range(0u32..12) as f64;
        let motif = catalog::by_name(name, delta, phi).unwrap();
        let (two_phase, _) = Query::new(&motif).collect(&g);
        let (joined, _) = join_enumerate(&g, &motif);
        assert_eq!(
            normalize(flatten(two_phase)),
            normalize(joined),
            "case {case}: {name} δ={delta} ϕ={phi}"
        );
    }
}

/// Every emitted instance is structurally sound, valid and maximal.
#[test]
fn instances_are_valid_and_maximal() {
    for case in 0..CASES {
        let mut rng = case_rng(0x02, case);
        let g = random_graph(&mut rng, 8, 40);
        let name = pick(&mut rng, &CATALOG);
        let delta = rng.random_range(1i64..50);
        let phi = rng.random_range(0u32..12) as f64;
        let motif = catalog::by_name(name, delta, phi).unwrap();
        let (groups, _) = Query::new(&motif).collect(&g);
        for (sm, insts) in &groups {
            check_structural_match(&g, &motif, sm).unwrap_or_else(|e| panic!("case {case}: {e}"));
            for inst in insts {
                check_instance_valid(&g, &motif, sm, inst)
                    .unwrap_or_else(|e| panic!("case {case}: {e}"));
                check_instance_maximal(&g, &motif, inst)
                    .unwrap_or_else(|e| panic!("case {case}: {e}"));
            }
        }
    }
}

/// Per structural match, the algorithm agrees with the exponential
/// brute-force reference (smaller graphs: the reference explodes).
#[test]
fn two_phase_equals_brute_force() {
    for case in 0..CASES {
        let mut rng = case_rng(0x03, case);
        let g = random_graph(&mut rng, 6, 24);
        let name = pick(&mut rng, &["M(3,2)", "M(3,3)"]);
        let delta = rng.random_range(1i64..40);
        let phi = rng.random_range(0u32..8) as f64;
        let motif = catalog::by_name(name, delta, phi).unwrap();
        let matches = find_structural_matches(&g, motif.path());
        let (groups, _) = Query::new(&motif).collect(&g);
        for sm in &matches {
            let mut algo: Vec<_> = groups
                .iter()
                .filter(|(m, _)| m == sm)
                .flat_map(|(_, v)| v.iter().map(|i| format!("{:?}", i.edge_sets)))
                .collect();
            let mut brute: Vec<_> = brute_force_instances(&g, &motif, sm)
                .iter()
                .map(|i| format!("{:?}", i.edge_sets))
                .collect();
            algo.sort();
            brute.sort();
            assert_eq!(algo, brute, "case {case}: {name} δ={delta} ϕ={phi}");
        }
    }
}

/// The ablation toggles change work done but never the result set.
#[test]
fn search_options_do_not_change_results() {
    for case in 0..CASES {
        let mut rng = case_rng(0x04, case);
        let g = random_graph(&mut rng, 8, 40);
        let name = pick(&mut rng, &CATALOG);
        let delta = rng.random_range(1i64..50);
        let phi = rng.random_range(0u32..12) as f64;
        let motif = catalog::by_name(name, delta, phi).unwrap();
        let mut reference: Option<Vec<String>> = None;
        for skip in [true, false] {
            for prune in [true, false] {
                let opts = SearchOptions::builder()
                    .skip_redundant_windows(skip)
                    .phi_prefix_pruning(prune)
                    .build();
                let (groups, _) = Query { opts, ..Query::new(&motif) }.collect(&g);
                let norm = normalize(flatten(groups));
                match &reference {
                    None => reference = Some(norm),
                    Some(r) => {
                        assert_eq!(&norm, r, "case {case}: skip={skip} prune={prune}")
                    }
                }
            }
        }
    }
}

/// Parallel drivers agree with the sequential ones.
#[test]
fn parallel_equals_sequential() {
    for case in 0..CASES {
        let mut rng = case_rng(0x05, case);
        let g = random_graph(&mut rng, 10, 50);
        let name = pick(&mut rng, &CATALOG);
        let delta = rng.random_range(1i64..50);
        let phi = rng.random_range(0u32..10) as f64;
        let threads = rng.random_range(1usize..5);
        let motif = catalog::by_name(name, delta, phi).unwrap();
        let (seq, _) = Query::new(&motif).count(&g);
        let (par, _) =
            Query { par: Some(ParOptions::with_threads(threads)), ..Query::new(&motif) }.count(&g);
        assert_eq!(seq, par, "case {case}: {name} threads={threads}");
    }
}
