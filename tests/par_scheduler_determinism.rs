//! Determinism/equivalence suite for the work-stealing parallel
//! scheduler: on a seeded hub-heavy graph, `par_scan` results — the
//! emitted instance set *and* the merged `SearchStats` — are identical
//! across thread counts {1, 2, 8}, block sizes, hub splitting on/off,
//! and (for window-bounded scans) active-index on/off. Every structural
//! match belongs to exactly one task, whatever the scheduling
//! granularity, so partitioning must never change what is found.

mod common;

use flowmotif::core::parallel::scheduler_makespan;
use flowmotif::prelude::*;
use flowmotif_graph::{GraphBuilder, TimeSeriesGraph, TimeWindow};
use flowmotif_util::rng::{RngExt, SeedableRng, StdRng};

/// One heavy hub (out-degree `hub_deg`, far above every tested
/// `hub_degree` threshold) whose targets fan out again, plus a light
/// random background — the skew that breaks block-only scheduling.
fn hub_heavy_graph(hub_deg: u32, light_edges: usize, seed: u64) -> TimeSeriesGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    for i in 0..hub_deg {
        let v = 1 + i;
        b.add_interaction(0, v, rng.random_range(0..400), rng.random_range(1..10) as f64);
        for _ in 0..2 {
            let w = 1 + hub_deg + rng.random_range(0..20u32);
            b.add_interaction(v, w, rng.random_range(0..400), rng.random_range(1..10) as f64);
        }
    }
    let base = 1 + hub_deg + 20;
    for _ in 0..light_edges {
        let u = base + rng.random_range(0..40u32);
        let mut v = base + rng.random_range(0..40u32);
        while v == u {
            v = base + rng.random_range(0..40u32);
        }
        b.add_interaction(u, v, rng.random_range(0..400), rng.random_range(1..10) as f64);
    }
    b.build_time_series_graph()
}

fn canonical(groups: &[(StructuralMatch, Vec<MotifInstance>)]) -> Vec<String> {
    let mut out: Vec<String> = groups
        .iter()
        .flat_map(|(sm, v)| v.iter().map(move |i| format!("{:?}|{:?}", sm.pairs, i.edge_sets)))
        .collect();
    out.sort();
    out
}

/// The scheduling configurations under test: block sizes spanning
/// "every origin its own task" to "one big run", with hub splitting both
/// forced (threshold 4 splits the hub *and* some background nodes) and
/// disabled (`u32::MAX` = the legacy fixed-block scheduler).
fn scheduler_grid(threads: usize) -> Vec<ParOptions> {
    let mut grid = Vec::new();
    for block in [1u32, 7, 64] {
        for (hub_degree, hub_chunk) in [(4u32, 3u32), (4, 64), (u32::MAX, 16)] {
            grid.push(ParOptions { threads, block, hub_degree, hub_chunk });
        }
    }
    grid
}

#[test]
fn unbounded_scan_is_identical_across_schedules() {
    let g = hub_heavy_graph(60, 120, 0xD5);
    for name in ["M(3,2)", "M(3,3)"] {
        let motif = catalog::by_name(name, 50, 2.0).unwrap();
        let (seq_groups, seq_stats) = Query::new(&motif).collect(&g);
        let want = canonical(&seq_groups);
        for threads in [1usize, 2, 8] {
            for par in scheduler_grid(threads) {
                let (groups, stats) = Query { par: Some(par), ..Query::new(&motif) }.collect(&g);
                assert_eq!(canonical(&groups), want, "{name} {par:?}");
                assert_eq!(stats, seq_stats, "{name} {par:?}");
            }
        }
    }
}

#[test]
fn bounded_scan_is_identical_across_schedules_indexed_and_unindexed() {
    let g = hub_heavy_graph(60, 120, 0xD6);
    let motif = catalog::by_name("M(3,2)", 50, 0.0).unwrap();
    for (a, b) in [(0i64, 120i64), (100, 250), (390, 400)] {
        let w = TimeWindow::new(a, b);
        for use_index in [true, false] {
            let opts = SearchOptions { use_active_index: use_index, ..SearchOptions::default() };
            let seq = Query { bounds: Some(w), opts, ..Query::new(&motif) };
            let (seq_groups, seq_stats) = seq.collect(&g);
            let want = canonical(&seq_groups);
            for threads in [1usize, 2, 8] {
                for par in scheduler_grid(threads) {
                    let (groups, stats) = Query { par: Some(par), ..seq }.collect(&g);
                    assert_eq!(
                        canonical(&groups),
                        want,
                        "window [{a},{b}] index={use_index} {par:?}"
                    );
                    assert_eq!(stats, seq_stats, "window [{a},{b}] index={use_index} {par:?}");
                    let (n, count_stats) = Query { par: Some(par), ..seq }.count(&g);
                    assert_eq!(n as usize, want.len());
                    assert_eq!(count_stats, seq_stats);
                }
            }
        }
    }
}

/// Not just the flows: the ranked instances themselves, in order. Flows
/// here are small integers, so ties straddle rank `k` for most `k`, and
/// only the total ranking order keeps the set and the order of the tied
/// instances independent of the schedule.
#[test]
fn top_k_flows_are_identical_across_schedules() {
    let g = hub_heavy_graph(60, 120, 0xD7);
    let motif = catalog::by_name("M(3,2)", 50, 0.0).unwrap();
    let (all, _) = Query::new(&motif).collect(&g);
    let mut flows: Vec<f64> = all.iter().flat_map(|(_, v)| v.iter().map(|i| i.flow)).collect();
    flows.sort_by(|a, b| b.total_cmp(a));
    let ties = [1usize, 5, 25].iter().filter(|&&k| flows.get(k) == flows.get(k - 1)).count();
    assert!(ties > 0, "no tie straddles any tested k; the test would prove nothing");
    for k in [1usize, 5, 25] {
        let (want, _) = Query::new(&motif).top_k(&g, k);
        for threads in [1usize, 2, 8] {
            for par in scheduler_grid(threads) {
                let (ranked, _) = Query { par: Some(par), ..Query::new(&motif) }.top_k(&g, k);
                assert_eq!(ranked, want, "k={k} {par:?}");
            }
        }
    }
}

/// `find --show N` prints this sample: the count of every instance plus
/// the first `N` in scan order, which must not depend on the thread
/// count or the task granularity.
#[test]
fn count_and_sample_are_identical_across_schedules() {
    let g = hub_heavy_graph(60, 120, 0xD9);
    let motif = catalog::by_name("M(3,2)", 50, 2.0).unwrap();
    let (groups, seq_stats) = Query::new(&motif).collect(&g);
    let scan_order: Vec<(StructuralMatch, MotifInstance)> =
        groups.iter().flat_map(|(sm, v)| v.iter().map(move |i| (sm.clone(), i.clone()))).collect();
    for show in [0usize, 1, 7, scan_order.len() + 3] {
        let want = &scan_order[..show.min(scan_order.len())];
        for threads in [1usize, 2, 8] {
            for par in scheduler_grid(threads) {
                let (count, sample, stats) =
                    Query { par: Some(par), ..Query::new(&motif) }.sample(&g, show);
                assert_eq!(count as usize, scan_order.len(), "show={show} {par:?}");
                assert_eq!(sample, want, "show={show} {par:?}");
                assert_eq!(stats, seq_stats, "show={show} {par:?}");
            }
        }
    }
}

#[test]
fn hub_splitting_balances_the_modelled_schedule() {
    let g = hub_heavy_graph(200, 60, 0xD8);
    let motif = catalog::by_name("M(3,2)", 50, 0.0).unwrap();
    let legacy = scheduler_makespan(
        &g,
        &motif,
        ParOptions { threads: 8, hub_degree: u32::MAX, ..ParOptions::default() },
    );
    let steal = scheduler_makespan(&g, &motif, ParOptions { threads: 8, ..ParOptions::default() });
    assert_eq!(legacy.total, steal.total, "both schedules cover the same match set");
    assert!(steal.tasks > legacy.tasks, "splitting must create sub-tasks for the hub");
    assert!(
        steal.max_task * 4 <= legacy.max_task,
        "hub chunks must be far lighter than the hub's whole block \
         (legacy max {}, splitting max {})",
        legacy.max_task,
        steal.max_task
    );
    assert!(
        steal.makespan * 2 <= legacy.makespan,
        "the modelled 8-worker makespan must improve at least 2x \
         (legacy {}, splitting {})",
        legacy.makespan,
        steal.makespan
    );
}

#[test]
fn random_background_graphs_agree_too() {
    // Not hub-heavy: the scheduler must also be exact on ordinary graphs
    // (regression net for block-boundary bugs).
    for case in 0..8u64 {
        let mut rng = common::case_rng(0x5C, case);
        let g = common::random_graph(&mut rng, 30, 150);
        let motif = catalog::by_name("M(3,2)", 60, 0.0).unwrap();
        let (seq, _) = Query::new(&motif).count(&g);
        for par in scheduler_grid(3) {
            let (n, _) = Query { par: Some(par), ..Query::new(&motif) }.count(&g);
            assert_eq!(n, seq, "case {case} {par:?}");
        }
    }
}
