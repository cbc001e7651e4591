//! Randomized incremental-vs-batch equivalence: any interleaving of
//! streaming appends, evictions, compactions and reads must leave the
//! [`QueryEngine`] answering every (window-restricted) motif query with
//! exactly the instances a fresh batch [`GraphBuilder`] build of the same
//! surviving edge set produces.
//!
//! Flows and ϕ are drawn where f64 sums round (see
//! `common::random_flow`), so an instance's flow must not depend on the
//! history of the series it is read from.
//!
//! The simulator tracks the surviving edges next to the engine: appends
//! push, `evict_before(f)` retains `time >= f` — matching the engine's
//! retention contract (late arrivals below a past floor survive until the
//! next eviction, on both sides).

mod common;

use common::{case_rng, pick, random_flow};
use flowmotif::prelude::*;
use flowmotif_util::rng::{RngExt, StdRng};

const CASES: u64 = 48;
/// A case beyond `CASES` that always runs: M(4,3), δ 37, ϕ 0.3 over
/// `[47, 116]`, where the last edge set's flow, taken as a prefix-sum
/// difference of the resident series, rounded below a direct sum of the
/// same elements and dropped an instance of flow exactly ϕ.
const ROUNDING_CASE: u64 = 4227;
const CATALOG: [&str; 4] = ["M(3,2)", "M(3,3)", "M(4,3)", "M(4,4)B"];

/// Canonical rendering that is independent of pair ids and node-count
/// bookkeeping, so engine output and rebuild output compare structurally.
/// Groups arrive in deterministic P1 order from both sides, but we sort
/// anyway so the oracle only asserts set equality after a canonical sort
/// (the acceptance contract).
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
    (u, v, rng.random_range(0i64..120), random_flow(rng))
}

/// One random session: interleaved appends / evictions / compactions /
/// reads, then queries over random windows (and the unbounded window),
/// each checked against a batch rebuild of the surviving edges.
#[test]
fn interleaved_appends_and_evictions_match_batch_rebuild() {
    for case in (0..CASES).chain([ROUNDING_CASE]) {
        let mut rng = case_rng(0x57_EA, case);
        let nodes = rng.random_range(4u32..9);
        let ops = rng.random_range(10usize..60);
        let mut engine = QueryEngine::new();
        let mut surviving: Vec<(NodeId, NodeId, Timestamp, Flow)> = Vec::new();
        for _ in 0..ops {
            match rng.random_range(0u32..10) {
                // Evictions and compactions are rare; appends dominate.
                0 => {
                    let floor = rng.random_range(0i64..120);
                    engine.evict_before(floor);
                    surviving.retain(|&(_, _, t, _)| t >= floor);
                }
                1 => engine.compact(),
                2 => {
                    // Mid-stream read: folds buffers, must not disturb state.
                    let _ = engine.graph().num_interactions();
                }
                _ => {
                    let (u, v, t, f) = random_edge(&mut rng, nodes);
                    engine.try_append(u, v, t, f).unwrap();
                    surviving.push((u, v, t, f));
                }
            }
        }
        let reference = batch_build(&surviving);
        assert_eq!(
            engine.graph().num_interactions(),
            reference.num_interactions(),
            "case {case}: retained edge count diverged"
        );
        for q in 0..4 {
            let name = pick(&mut rng, &CATALOG);
            let delta = rng.random_range(1i64..50);
            let phi = random_flow(&mut rng);
            let motif = catalog::by_name(name, delta, phi).unwrap();
            let bounds = if q == 0 {
                None
            } else {
                let a = rng.random_range(0i64..110);
                let b = rng.random_range(a..130);
                Some(TimeWindow::new(a, b))
            };
            let (res, _) = Query { bounds, ..Query::new(&motif) }.collect(engine.graph());
            let expected_graph = match bounds {
                None => reference.clone(),
                Some(w) => batch_build(
                    &surviving
                        .iter()
                        .copied()
                        .filter(|&(_, _, t, _)| w.contains(t))
                        .collect::<Vec<_>>(),
                ),
            };
            let (expected, _) = Query::new(&motif).collect(&expected_graph);
            assert_eq!(
                canonical(engine.graph(), &res),
                canonical(&expected_graph, &expected),
                "case {case} query {q}: {name} δ={delta} ϕ={phi} bounds={bounds:?}"
            );
        }
    }
}

/// The sliding-window policy's retention matches an explicit simulator:
/// after every append, evict exactly when the policy fires.
#[test]
fn sliding_window_policy_matches_manual_eviction() {
    for case in 0..CASES / 2 {
        let mut rng = case_rng(0x57_EB, case);
        let horizon = rng.random_range(5i64..60);
        let slack = rng.random_range(1i64..10);
        let mut engine = QueryEngine::new().with_window(SlidingWindow::with_slack(horizon, slack));
        let mut manual = QueryEngine::new();
        let mut policy = SlidingWindow::with_slack(horizon, slack);
        let mut watermark = i64::MIN;
        for _ in 0..rng.random_range(20usize..80) {
            let (u, v, t, f) = random_edge(&mut rng, 7);
            engine.try_append(u, v, t, f).unwrap();
            manual.try_append(u, v, t, f).unwrap();
            watermark = watermark.max(t);
            if let Some(floor) = policy.advance(watermark) {
                manual.evict_before(floor);
            }
        }
        let motif = catalog::by_name("M(3,2)", 30, 0.0).unwrap();
        let (a, _) = Query::new(&motif).collect(engine.graph());
        let (b, _) = Query::new(&motif).collect(manual.graph());
        assert_eq!(
            canonical(engine.graph(), &a),
            canonical(manual.graph(), &b),
            "case {case} horizon={horizon} slack={slack}"
        );
        assert_eq!(engine.stats().interactions, manual.stats().interactions);
    }
}
