//! Three-way equivalence of the active-time origin index: across any
//! interleaving of streaming appends, evictions and compactions, every
//! window-restricted motif query must answer identically whether it is
//! (a) index-assisted (the default), (b) unindexed (the pre-index origin
//! sweep, `use_active_index: false`), or (c) a batch `GraphBuilder`
//! rebuild of the surviving in-window edges — the oracle.
//!
//! A second suite pins the eviction contract of the metadata itself: an
//! origin whose out-events are all evicted must never be resurrected by
//! the index, and the index's bucket footprint must shrink as whole
//! buckets fall below the floor.

mod common;

use common::{case_rng, pick};
use flowmotif::prelude::*;
use flowmotif_util::rng::{RngExt, StdRng};

const CASES: u64 = 40;
const CATALOG: [&str; 4] = ["M(3,2)", "M(3,3)", "M(4,3)", "M(4,4)B"];

fn canonical(g: &TimeSeriesGraph, groups: &[(StructuralMatch, Vec<MotifInstance>)]) -> Vec<String> {
    let mut out: Vec<String> = groups
        .iter()
        .flat_map(|(sm, v)| {
            v.iter().map(move |i| format!("{:?} {}", sm.walk_nodes(g), i.display(g)))
        })
        .collect();
    out.sort();
    out
}

fn batch_build(edges: &[(NodeId, NodeId, Timestamp, Flow)]) -> TimeSeriesGraph {
    let mut b = GraphBuilder::new();
    b.extend_interactions(edges.iter().copied());
    b.build_time_series_graph()
}

fn random_edge(rng: &mut StdRng, nodes: u32) -> (NodeId, NodeId, Timestamp, Flow) {
    let u = rng.random_range(0..nodes);
    let mut v = rng.random_range(0..nodes);
    while v == u {
        v = rng.random_range(0..nodes);
    }
    (u, v, rng.random_range(0i64..200), rng.random_range(1u32..10) as f64)
}

#[test]
fn indexed_unindexed_and_batch_rebuild_agree() {
    let unindexed_opts = SearchOptions { use_active_index: false, ..SearchOptions::default() };
    for case in 0..CASES {
        let mut rng = case_rng(0x1D_EC5, case);
        let nodes = rng.random_range(4u32..10);
        let ops = rng.random_range(15usize..70);
        // Two engines fed identically; only the query-time option differs.
        let mut indexed = QueryEngine::new();
        let mut unindexed = QueryEngine::new().search_options(unindexed_opts);
        let mut surviving: Vec<(NodeId, NodeId, Timestamp, Flow)> = Vec::new();
        for _ in 0..ops {
            match rng.random_range(0u32..12) {
                0 => {
                    let floor = rng.random_range(0i64..200);
                    indexed.evict_before(floor);
                    unindexed.evict_before(floor);
                    surviving.retain(|&(_, _, t, _)| t >= floor);
                }
                1 => {
                    indexed.compact();
                    unindexed.compact();
                }
                _ => {
                    let (u, v, t, f) = random_edge(&mut rng, nodes);
                    indexed.try_append(u, v, t, f).unwrap();
                    unindexed.try_append(u, v, t, f).unwrap();
                    surviving.push((u, v, t, f));
                }
            }
        }
        for q in 0..5 {
            let name = pick(&mut rng, &CATALOG);
            let delta = rng.random_range(1i64..60);
            let phi = rng.random_range(0u32..10) as f64;
            let motif = catalog::by_name(name, delta, phi).unwrap();
            let bounds = if q == 0 {
                None
            } else {
                let a = rng.random_range(0i64..190);
                let b = rng.random_range(a..210);
                Some(TimeWindow::new(a, b))
            };
            let search = Query { bounds, ..Query::new(&motif) };
            let with_index = Query { opts: indexed.options(), ..search }.collect(indexed.graph());
            let without = Query { opts: unindexed.options(), ..search }.collect(unindexed.graph());
            // (a) == (b), including emission order and search counters of
            // the instance phase (the structural-match streams coincide).
            assert_eq!(
                canonical(indexed.graph(), &with_index.0),
                canonical(unindexed.graph(), &without.0),
                "case {case} query {q}: indexed vs unindexed, {name} δ={delta} ϕ={phi} \
                 bounds={bounds:?}"
            );
            assert_eq!(with_index.1, without.1, "case {case} query {q}: search counters diverged");
            // (a) == (c): the batch-rebuild oracle over the surviving
            // in-window edges.
            let oracle_graph = match bounds {
                None => batch_build(&surviving),
                Some(w) => batch_build(
                    &surviving
                        .iter()
                        .copied()
                        .filter(|&(_, _, t, _)| w.contains(t))
                        .collect::<Vec<_>>(),
                ),
            };
            let (oracle, _) = Query::new(&motif).collect(&oracle_graph);
            assert_eq!(
                canonical(indexed.graph(), &with_index.0),
                canonical(&oracle_graph, &oracle),
                "case {case} query {q}: indexed vs batch rebuild, {name} δ={delta} ϕ={phi} \
                 bounds={bounds:?}"
            );
        }
    }
}

#[test]
fn eviction_shrinks_active_metadata_without_resurrecting_origins() {
    for case in 0..CASES / 2 {
        let mut rng = case_rng(0x1D_EC6, case);
        let nodes = rng.random_range(6u32..14);
        let mut b = GraphBuilder::new();
        let mut edges = Vec::new();
        for _ in 0..rng.random_range(40usize..120) {
            let (u, v, t, f) = {
                let u = rng.random_range(0..nodes);
                let mut v = rng.random_range(0..nodes);
                while v == u {
                    v = rng.random_range(0..nodes);
                }
                (u, v, rng.random_range(0i64..2000), rng.random_range(1u32..5) as f64)
            };
            b.add_interaction(u, v, t, f);
            edges.push((u, v, t, f));
        }
        let mut g = b.build_time_series_graph();
        let buckets_before = g.active_index_buckets();
        let floor = rng.random_range(500i64..1800);
        g.evict_before(floor);
        edges.retain(|&(_, _, t, _)| t >= floor);

        // Spans shrank to exactly the surviving events per origin.
        for u in 0..nodes {
            let survivors: Vec<i64> =
                edges.iter().filter(|&&(s, _, _, _)| s == u).map(|&(_, _, t, _)| t).collect();
            let expect = survivors
                .iter()
                .copied()
                .min()
                .map(|lo| (lo, survivors.iter().copied().max().unwrap()));
            assert_eq!(
                g.origin_active_span(u),
                expect,
                "case {case} origin {u} floor {floor}: span must match the survivors"
            );
        }
        // No stale origin is resurrected by any window query, including
        // windows entirely below the floor.
        for (a, z) in [(0, floor - 1), (0, 2000), (floor, 2000)] {
            if z < a {
                continue;
            }
            let w = TimeWindow::new(a, z);
            for u in g.active_origins_in(w) {
                assert!(
                    g.origin_active_span(u).is_some(),
                    "case {case}: evicted-empty origin {u} resurrected for {w}"
                );
                assert!(
                    g.origin_active_in(u, w),
                    "case {case}: origin {u} outside its span for {w}"
                );
            }
        }
        // And origins that truly have in-window activity are all found.
        let w = TimeWindow::new(floor, 2000);
        let found = g.active_origins_in(w);
        for &(u, _, _, _) in &edges {
            assert!(found.contains(&u), "case {case}: surviving origin {u} missing for {w}");
        }
        // The bucket footprint shrank (whole buckets fell below the
        // floor) unless the eviction removed nothing.
        if !edges.is_empty() && g.num_interactions() > 0 && floor > 600 {
            assert!(
                g.active_index_buckets() <= buckets_before,
                "case {case}: bucket count grew across an eviction"
            );
        }
    }
}
