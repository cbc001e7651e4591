//! A miniature resident motif-search service: payments stream in,
//! a sliding window keeps the last day of activity, and fraud-style
//! queries run periodically without ever rebuilding the graph.
//!
//! Run with: `cargo run --release --example streaming_service`

use flowmotif::prelude::*;
use flowmotif_util::rng::{RngExt, SeedableRng, StdRng};

const HOUR: i64 = 3_600;
const DAY: i64 = 24 * HOUR;

/// Emits one hour of synthetic payment traffic: background transfers
/// plus, in some hours, a planted 3-cycle moving a large amount.
fn one_hour(rng: &mut StdRng, start: i64, plant_ring: bool) -> Vec<(u32, u32, i64, f64)> {
    let mut out = Vec::new();
    for _ in 0..400 {
        let u = rng.random_range(0..3_000u32);
        let mut v = rng.random_range(0..3_000u32);
        while v == u {
            v = rng.random_range(0..3_000u32);
        }
        out.push((u, v, start + rng.random_range(0..HOUR), rng.random_range(1..50) as f64));
    }
    if plant_ring {
        let a = rng.random_range(3_000..3_100u32);
        let t = start + rng.random_range(0..HOUR - 600);
        out.push((a, a + 1, t, 900.0));
        out.push((a + 1, a + 2, t + 200, 880.0));
        out.push((a + 2, a, t + 400, 860.0));
    }
    out.sort_by_key(|&(_, _, t, _)| t);
    out
}

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    // Retain one day of traffic; evict in ~3-hour sweeps.
    let mut engine = QueryEngine::new().with_window(SlidingWindow::with_slack(DAY, 3 * HOUR));
    // Fraud query: a cycle moving >= 500 per hop within 15 minutes.
    let ring = catalog::by_name("M(3,3)", 900, 500.0).unwrap();

    println!("hour | resident | evicted | rings in last 6h");
    for hour in 0..48 {
        let start = hour * HOUR;
        let batch = one_hour(&mut rng, start, hour % 7 == 3);
        engine.ingest(batch).unwrap();

        // Every 6 hours, scan the recent window for laundering rings.
        if hour % 6 == 5 {
            let wm = engine.stats().watermark.unwrap();
            let bounds = Some(TimeWindow::new(wm - 6 * HOUR, wm));
            let s = engine.stats();
            let g = engine.graph();
            let (rings, _) = Query { bounds, ..Query::new(&ring) }.collect(g);
            println!(
                "{:4} | {:8} | {:7} | {}",
                hour,
                s.interactions,
                s.evicted,
                rings.iter().map(|(_, v)| v.len()).sum::<usize>()
            );
            for (sm, insts) in &rings {
                for inst in insts {
                    println!(
                        "       ring {:?} moved {:.0} within {}s",
                        sm.walk_nodes(g),
                        inst.flow,
                        inst.span()
                    );
                }
            }
        }
    }
    let s = engine.stats();
    println!("final: {s}");
    assert!(s.evicted > 0, "the sliding window must have evicted something");
    assert!((s.interactions as i64) < 30 * 400 + 100, "retention stays near one day");
}
