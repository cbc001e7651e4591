//! Shared helpers for the seeded randomized integration suites.
//!
//! The original property tests used `proptest`; the workspace now builds
//! fully offline, so the suites draw their random cases from the in-repo
//! deterministic RNG instead. Each test runs a fixed number of cases and
//! derives one RNG per case, so failures are reproducible from the
//! printed case number alone.

// Each integration-test binary compiles this module separately and not
// all of them use every helper.
#![allow(dead_code)]

use flowmotif::prelude::*;
use flowmotif_util::rng::{RngExt, SeedableRng, StdRng};

/// RNG for case `case` of the suite identified by `suite` (a per-test
/// constant). Golden-ratio mixing keeps suites' streams disjoint.
pub fn case_rng(suite: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(suite.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(case))
}

/// Random small interaction network mirroring the old proptest strategy:
/// up to `max_edges` interactions among `nodes` vertices with integer
/// times in `0..120` and flows in `1..10`; self-loop draws are dropped.
pub fn random_graph(rng: &mut StdRng, nodes: u32, max_edges: usize) -> TimeSeriesGraph {
    let edges = rng.random_range(1..max_edges.max(2));
    let mut b = GraphBuilder::new();
    for _ in 0..edges {
        let u = rng.random_range(0..nodes);
        let v = rng.random_range(0..nodes);
        if u != v {
            b.add_interaction(u, v, rng.random_range(0i64..120), rng.random_range(1u32..10) as f64);
        }
    }
    b.build_time_series_graph()
}

/// Uniformly picks one element of `items`.
pub fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.random_range(0..items.len())]
}

/// A flow where f64 sums round: a non-dyadic tenth, a log-uniform
/// magnitude in `[1e-3, 1e6)`, or one of a few tie-making values.
pub fn random_flow(rng: &mut StdRng) -> Flow {
    match rng.random_range(0..4u32) {
        0 => 0.1 * rng.random_range(1u32..100) as Flow,
        1 => 10f64.powf(rng.random_range(-3.0f64..6.0)),
        2 => *pick(rng, &[0.3, 7.0, 12.5, 1e3]),
        _ => rng.random_range(1u32..10) as Flow,
    }
}
