//! Standing-query delta evaluation vs naive re-query: the cost of
//! absorbing one appended interaction for (a) a registered subscription
//! maintained by anchored delta evaluation and (b) a poll-style client
//! that re-runs the full query after every append. At the 100k-resident
//! steady state the delta path only rescans structural matches using
//! the new pair, so it must beat the full re-query by a wide margin —
//! the ≥ 10x floor is asserted, not just measured.
//!
//! A third case subscribes `M(4,4)A` with a wide δ (one add per time
//! unit, so the anchor window `[t − δ, t + δ]` holds about δ
//! interactions) on a sparse stream. Pair-anchored P1 costs only the new
//! pair's neighbourhood there; a P1 sweep over the whole anchor window
//! would cost what the window holds and shows up in `bench_gate`.

use flowmotif_bench::{micro, BenchGroup};
use flowmotif_core::catalog;
use flowmotif_stream::{QueryEngine, SlidingWindow, SnapshotEngine, StandingQueries};
use flowmotif_util::rng::{RngExt, SeedableRng, StdRng};
use std::hint::black_box;

/// Steady-state resident interactions (one per time unit, so also the
/// retention horizon).
const WINDOW: usize = 100_000;

/// δ of the wide-window case, in adds.
const WIDE_DELTA: i64 = 2_000;

/// Deterministic open-ended interaction stream, ~6% out of order. The
/// node universe is sized so the pair set saturates during warm-up —
/// the steady state appends onto *existing* series, which is what a
/// long-running stream looks like (and what the delta path's per-append
/// asymptotics are about; a brand-new pair costs a CSR extension on
/// either path). A stream over a fixed pair set saturates the same way
/// while keeping the graph sparse.
struct Stream {
    rng: StdRng,
    nodes: u32,
    /// When non-empty, every interaction lands on one of these pairs.
    pairs: Vec<(u32, u32)>,
    t: i64,
}

impl Stream {
    fn new(seed: u64, nodes: u32) -> Self {
        Self { rng: StdRng::seed_from_u64(seed), nodes, pairs: Vec::new(), t: 0 }
    }

    /// A stream over `num_pairs` random pairs fixed up front.
    fn over_pairs(seed: u64, nodes: u32, num_pairs: usize) -> Self {
        let mut s = Self::new(seed, nodes);
        s.pairs = (0..num_pairs).map(|_| s.random_pair()).collect();
        s
    }

    fn random_pair(&mut self) -> (u32, u32) {
        let u = self.rng.random_range(0..self.nodes);
        let mut v = self.rng.random_range(0..self.nodes);
        while v == u {
            v = self.rng.random_range(0..self.nodes);
        }
        (u, v)
    }

    fn next(&mut self) -> (u32, u32, i64, f64) {
        self.t += 1;
        let (u, v) = if self.pairs.is_empty() {
            self.random_pair()
        } else {
            self.pairs[self.rng.random_range(0..self.pairs.len())]
        };
        let t = if self.rng.random_range(0u32..16) == 0 {
            self.t - self.rng.random_range(1i64..50)
        } else {
            self.t
        };
        (u, v, t, self.rng.random_range(1u32..100) as f64)
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let window = if quick { WINDOW / 10 } else { WINDOW };
    let nodes: u32 = if quick { 50 } else { 150 };
    let motif = catalog::by_name("M(3,2)", 30, 50.0).unwrap();

    let mut group = BenchGroup::new("delta_subscribe");
    group.measurement_time(std::time::Duration::from_secs(2));
    micro::header();

    // Steady state shared by both sides: the sliding window keeps the
    // resident size constant while the benches keep appending.
    let engine = SnapshotEngine::with_engine(
        QueryEngine::new().with_window(SlidingWindow::new(window as i64)),
    );
    let mut stream = Stream::new(42, nodes);
    for _ in 0..window {
        let (u, v, t, f) = stream.next();
        engine.append(u, v, t, f).unwrap();
    }
    println!("# steady state: {} resident interactions", engine.stats().interactions);

    let mut subs = StandingQueries::new();
    engine.subscribe_standing(&mut subs, motif.clone(), None);
    let mut events = Vec::new();
    group.bench(format!("delta/append (window {window})"), || {
        let (u, v, t, f) = stream.next();
        engine.append_standing(u, v, t, f, &mut subs, &mut events).unwrap();
        black_box(events.drain(..).count())
    });

    // The poll-style alternative: append, then re-run the query from
    // scratch. Seeding a fresh subscription *is* exactly that full
    // re-query (it is the oracle the equivalence suite compares
    // against), minus even the cost of diffing against prior results.
    group.bench(format!("requery/append (window {window})"), || {
        let (u, v, t, f) = stream.next();
        engine.append(u, v, t, f).unwrap();
        let mut fresh = StandingQueries::new();
        let id = engine.subscribe_standing(&mut fresh, motif.clone(), None);
        black_box(fresh.get(id).unwrap().num_instances())
    });

    // Wide δ on a sparse graph (out-degree 3 over a fixed pair set):
    // the anchor window holds about δ resident interactions, nearly all
    // of them far from the new pair.
    let wide = SnapshotEngine::with_engine(
        QueryEngine::new().with_window(SlidingWindow::new(window as i64)),
    );
    let wide_nodes = window as u32 / 10;
    let mut wide_stream = Stream::over_pairs(7, wide_nodes, 3 * wide_nodes as usize);
    for _ in 0..window {
        let (u, v, t, f) = wide_stream.next();
        wide.append(u, v, t, f).unwrap();
    }
    let cycle = catalog::by_name("M(4,4)A", WIDE_DELTA, 50.0).unwrap();
    let mut wide_subs = StandingQueries::new();
    wide.subscribe_standing(&mut wide_subs, cycle, None);
    group.bench(format!("delta/append M(4,4)A delta {WIDE_DELTA} (window {window})"), || {
        let (u, v, t, f) = wide_stream.next();
        wide.append_standing(u, v, t, f, &mut wide_subs, &mut events).unwrap();
        black_box(events.drain(..).count())
    });

    let median = |needle: &str| {
        group
            .results()
            .iter()
            .find(|r| r.id.contains(needle))
            .map(|r| r.median.as_nanos())
            .expect("both benches ran")
    };
    let (delta_ns, requery_ns) = (median("delta/append (window"), median("requery/"));
    println!(
        "delta_subscribe: delta {delta_ns} ns/append vs re-query {requery_ns} ns/append \
         ({:.1}x)",
        requery_ns as f64 / delta_ns.max(1) as f64,
    );
    assert!(
        requery_ns >= delta_ns * 10,
        "per-append delta evaluation must be >= 10x faster than a naive full re-query \
         (delta {delta_ns} ns, re-query {requery_ns} ns)",
    );

    group.finish();
}
