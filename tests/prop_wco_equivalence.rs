//! Randomized equivalence suite for the worst-case-optimal P1 port
//! (pinned by `core/src/gallop.rs`):
//!
//! * galloping intersection ≡ linear merge intersection on adversarial
//!   sorted slices (duplicates, runs, extreme size skew);
//! * `gallop_seek` ≡ a linear scan for "first index ≥ v from a cursor";
//! * fixed-order and cardinality-ordered extension emit the
//!   bit-identical structural match stream, instance set and
//!   [`SearchStats`] on arbitrary graphs, motifs (including cycles,
//!   where constraint fan-in actually engages the WCO path), windows
//!   and index settings.

mod common;

use common::{case_rng, pick, random_graph};
use flowmotif::core::enumerate::CollectSink;
use flowmotif::core::gallop::{gallop_intersect_into, gallop_seek, merge_intersect_into};
use flowmotif::prelude::*;
use flowmotif_util::rng::{RngExt, StdRng};

const CASES: u64 = 64;
/// Cyclic motifs dominate: a fresh node with a single constraint never
/// enters `wco_extend`, so chains alone would leave the galloping path
/// untested.
const CATALOG: [&str; 6] = ["M(3,2)", "M(3,3)", "M(4,4)A", "M(4,4)B", "M(4,4)C", "M(5,5)A"];

/// Ascending slice with duplicates; `spread` controls density so some
/// draws produce long runs and near-disjoint ranges.
fn sorted_slice(rng: &mut StdRng, len: usize, spread: u32) -> Vec<u32> {
    let mut v: Vec<u32> = (0..len).map(|_| rng.random_range(0..spread.max(1))).collect();
    v.sort_unstable();
    v
}

#[test]
fn gallop_equals_merge_on_adversarial_slices() {
    let (mut got, mut want) = (Vec::new(), Vec::new());
    // Hand-picked adversarial shapes first: empties, identical slices,
    // disjoint ranges, all-equal values, one-sided long runs.
    let fixed: [(&[u32], &[u32]); 7] = [
        (&[], &[]),
        (&[], &[1, 2, 3]),
        (&[5], &[1, 2, 3, 4, 5, 6]),
        (&[1, 1, 1, 1], &[1, 1]),
        (&[1, 2, 3], &[4, 5, 6]),
        (&[0, 2, 4, 6, 8], &[1, 3, 5, 7, 9]),
        (&[7, 7, 7, 8, 9, 9, 9, 9], &[6, 7, 9, 9]),
    ];
    for (a, b) in fixed {
        gallop_intersect_into(a, b, &mut got);
        merge_intersect_into(a, b, &mut want);
        assert_eq!(got, want, "a={a:?} b={b:?}");
    }
    for case in 0..CASES {
        let mut rng = case_rng(0x9C0, case);
        // Extreme size skew half the time: galloping earns its keep when
        // one side dwarfs the other, and its cursor arithmetic is most
        // fragile there.
        let (la, lb) = if case % 2 == 0 {
            (rng.random_range(0..8usize), rng.random_range(100..2000usize))
        } else {
            (rng.random_range(0..60usize), rng.random_range(0..60usize))
        };
        let spread = *pick(&mut rng, &[4u32, 50, 5000]);
        let a = sorted_slice(&mut rng, la, spread);
        let b = sorted_slice(&mut rng, lb, spread);
        gallop_intersect_into(&a, &b, &mut got);
        merge_intersect_into(&a, &b, &mut want);
        assert_eq!(got, want, "case {case}: |a|={la} |b|={lb} spread={spread}");
        // Symmetry: set intersection must not care which side gallops.
        gallop_intersect_into(&b, &a, &mut got);
        assert_eq!(got, want, "case {case} (swapped)");
    }
}

#[test]
fn gallop_seek_equals_linear_scan() {
    for case in 0..CASES {
        let mut rng = case_rng(0x9C1, case);
        let spread = *pick(&mut rng, &[3u32, 40, 10_000]);
        let len = rng.random_range(0..300usize);
        let xs = sorted_slice(&mut rng, len, spread);
        for _ in 0..50 {
            let from = rng.random_range(0..xs.len() + 1);
            let v = rng.random_range(0..spread + 2);
            let got = gallop_seek(&xs, from, v);
            let want = (from..xs.len()).find(|&i| xs[i] >= v).unwrap_or(xs.len());
            assert_eq!(got, want, "case {case}: xs.len()={} from={from} v={v}", xs.len());
        }
    }
}

/// Fixed and cardinality orders must emit the bit-identical structural
/// match *stream* — same matches in the same sequence — for every
/// origin-set flavour and index setting.
#[test]
fn extension_orders_emit_identical_match_streams() {
    for case in 0..CASES {
        let mut rng = case_rng(0x9C2, case);
        let g = random_graph(&mut rng, 8, 40);
        let name = pick(&mut rng, &CATALOG);
        let motif = catalog::by_name(name, 10, 0.0).unwrap();
        let bounds = TimeWindow::new(0, rng.random_range(1i64..120));
        for use_index in [false, true] {
            let driver = |order| {
                P1Driver::new(motif.path())
                    .bounds(bounds)
                    .use_index(use_index)
                    .extension_order(order)
            };
            assert_eq!(
                driver(ExtensionOrder::Fixed).collect(&g),
                driver(ExtensionOrder::Cardinality).collect(&g),
                "case {case}: {name} bounds={bounds:?} index={use_index}"
            );
        }
    }
}

/// End to end: the full two-phase search returns the identical instance
/// groups *and* identical [`SearchStats`] under either order — WCO may
/// only change how P1 explores, never what either phase reports.
#[test]
fn extension_orders_agree_on_instances_and_stats() {
    for case in 0..CASES {
        let mut rng = case_rng(0x9C3, case);
        let g = random_graph(&mut rng, 8, 40);
        let name = pick(&mut rng, &CATALOG);
        let delta = rng.random_range(1i64..50);
        let phi = rng.random_range(0u32..12) as f64;
        let motif = catalog::by_name(name, delta, phi).unwrap();
        let bounded = rng.random_range(0u32..2) == 0;
        let w = if bounded {
            let a = rng.random_range(0i64..100);
            TimeWindow::new(a, a + rng.random_range(1i64..60))
        } else {
            TimeWindow::new(i64::MIN, i64::MAX)
        };
        let run = |order| {
            let opts = SearchOptions { extension_order: order, ..SearchOptions::default() };
            let mut sink = CollectSink::default();
            let stats = Query { bounds: Some(w), opts, ..Query::new(&motif) }.run(
                &g,
                &mut sink,
                &mut SearchScratch::default(),
            );
            (sink.groups, stats)
        };
        let (fixed_groups, fixed_stats) = run(ExtensionOrder::Fixed);
        let (wco_groups, wco_stats) = run(ExtensionOrder::Cardinality);
        assert_eq!(
            fixed_groups, wco_groups,
            "case {case}: {name} δ={delta} ϕ={phi} w={w:?} instance groups diverged"
        );
        assert_eq!(
            fixed_stats, wco_stats,
            "case {case}: {name} δ={delta} ϕ={phi} w={w:?} stats diverged"
        );
    }
}
