//! Hub-skew benchmark for the parallel scheduler.
//!
//! The graph is deliberately skewed: one hub origin owns the vast
//! majority of the structural matches, plus a sea of light origins. The
//! legacy scheduler (origin blocks only, `hub_degree = u32::MAX`) puts
//! the whole hub into one task, so one worker serialises the scan; the
//! work-stealing scheduler splits the hub into pair-level chunks.
//!
//! Two kinds of evidence are produced:
//!
//! * **wall times** for the legacy and splitting schedulers at 1 and 8
//!   threads (recorded into the regression baseline like any bench);
//! * a **deterministic scheduler model** ([`scheduler_makespan`]): greedy
//!   list-scheduling of the real per-task match counts at 8 workers.
//!   The achievable speedup of a schedule is `total / makespan`, which is
//!   machine-independent — CI containers pinned to one core cannot
//!   demonstrate wall-clock scaling, but the model proves the schedule
//!   itself. The bench **asserts** that hub splitting makes the modelled
//!   8-thread scan ≥ 2x faster than the legacy block schedule, so a
//!   balance regression fails `cargo bench` (and CI) deterministically.

use flowmotif_bench::{micro, BenchGroup};
use flowmotif_core::parallel::{scheduler_makespan, ParOptions};
use flowmotif_core::{catalog, Query, SearchOptions};
use flowmotif_graph::{GraphBuilder, TimeSeriesGraph};
use flowmotif_util::rng::{RngExt, SeedableRng, StdRng};
use std::hint::black_box;

/// One hub with `hub_deg` out-neighbours (each of which has a few
/// onward edges, so every hub pair roots many M(3,2)/M(3,3) walks),
/// plus `light` low-degree background origins.
fn hub_heavy_graph(hub_deg: u32, light: u32, seed: u64) -> TimeSeriesGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    let hub = 0u32;
    let first_target = 1u32;
    for i in 0..hub_deg {
        let v = first_target + i;
        b.add_interaction(hub, v, rng.random_range(0..5000), rng.random_range(1..10) as f64);
        // Each hub target fans out to a handful of shared sinks, giving
        // the hub a quadratic share of the structural matches.
        for _ in 0..3 {
            let w = first_target + hub_deg + rng.random_range(0..64u32);
            b.add_interaction(v, w, rng.random_range(0..5000), rng.random_range(1..10) as f64);
        }
    }
    let base = first_target + hub_deg + 64;
    for i in 0..light {
        let u = base + i;
        let v = base + (i + 1) % light;
        b.add_interaction(u, v, rng.random_range(0..5000), rng.random_range(1..10) as f64);
    }
    b.build_time_series_graph()
}

fn main() {
    let mut group = BenchGroup::new("skewed_scan");
    group.measurement_time(std::time::Duration::from_secs(1));
    let g = hub_heavy_graph(1500, 2000, 7);
    let motif = catalog::by_name("M(3,2)", 400, 0.0).unwrap();
    let opts = SearchOptions::default();
    let legacy = |threads| ParOptions { threads, hub_degree: u32::MAX, ..ParOptions::default() };
    let stealing = |threads| ParOptions { threads, ..ParOptions::default() };

    // The deterministic scheduler model at 8 workers: the legacy
    // schedule is hub-bound (its makespan ≈ the hub's whole match
    // count); the splitting schedule is balanced.
    let blocks = scheduler_makespan(&g, &motif, legacy(8));
    let steal = scheduler_makespan(&g, &motif, stealing(8));
    assert_eq!(blocks.total, steal.total, "schedulers must cover the same match set");
    let speedup_blocks = blocks.total as f64 / blocks.makespan.max(1) as f64;
    let speedup_steal = steal.total as f64 / steal.makespan.max(1) as f64;
    println!(
        "skewed_scan: {} matches; legacy blocks: {} tasks, max task {}, 8-thread speedup bound \
         {speedup_blocks:.2}x; hub splitting: {} tasks, max task {}, 8-thread speedup bound \
         {speedup_steal:.2}x ({:.2}x better)",
        blocks.total,
        blocks.tasks,
        blocks.max_task,
        steal.tasks,
        steal.max_task,
        blocks.makespan as f64 / steal.makespan.max(1) as f64,
    );
    assert!(
        steal.makespan * 2 <= blocks.makespan,
        "hub splitting must make the modelled 8-thread scan at least 2x faster than the legacy \
         block schedule (legacy makespan {}, splitting makespan {})",
        blocks.makespan,
        steal.makespan,
    );

    // Sanity: both schedulers count exactly what the sequential scan counts.
    let (seq, _) = Query::new(&motif).count(&g);
    for par in [legacy(8), stealing(8)] {
        let (n, _) = Query { opts, par: Some(par), ..Query::new(&motif) }.count(&g);
        assert_eq!(n, seq, "{par:?}");
    }

    micro::header();
    for threads in [1usize, 8] {
        group.bench(format!("blocks/t{threads}"), || {
            black_box(Query { opts, par: Some(legacy(threads)), ..Query::new(&motif) }.count(&g))
        });
        group.bench(format!("worksteal/t{threads}"), || {
            black_box(Query { opts, par: Some(stealing(threads)), ..Query::new(&motif) }.count(&g))
        });
    }
    group.finish();
}
