//! Property: a standing query's delta-maintained result set is exactly
//! a full re-query, after **every** prefix of a random mutation stream.
//!
//! Seeding a fresh [`StandingQueries`] subscription *is* a full
//! re-query of the current graph (that is how `subscribe` materializes
//! its view), so the oracle on each prefix is simply: subscribe again
//! from scratch and compare instance sets. The maintained view has
//! lived through appends (in- and out-of-order), policy and explicit
//! evictions, tail compactions and snapshot publishes; the fresh view
//! has seen none of it. They must agree bit-for-bit.

use flowmotif_core::catalog;
use flowmotif_graph::{Flow, TimeWindow, Timestamp};
use flowmotif_stream::{
    EpochEngine, QueryEngine, SlidingWindow, SnapshotEngine, StandingQueries, StandingQuery,
};
use flowmotif_util::{RngExt, SeedableRng, StdRng};

const CASES: u64 = 20;
const OPS: usize = 60;
const NODES: u32 = 7;
/// Longer walks subscribed beside M(3,2)/M(3,3), with δ wide enough that
/// 4- and 5-node matches form among `NODES` vertices.
const WIDE: [(&str, Timestamp); 3] = [("M(4,4)A", 40), ("M(4,4)B", 30), ("M(5,5)C", 40)];

/// Canonical, order-independent rendering of a standing result set.
/// `DeltaInstance` already carries a canonical per-edge breakdown (and
/// a content hash), so its `Debug` form is a faithful identity.
fn canon(q: &StandingQuery) -> Vec<String> {
    let mut v = Vec::new();
    q.for_each_instance(|key, di| v.push(format!("{key:?} {di:?}")));
    v.sort();
    v
}

#[test]
fn delta_view_equals_full_requery_on_every_prefix() {
    let mut wide_events = 0u64;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD317A_u64 * 1000 + case);
        // A third of the cases run under a sliding-window policy, so
        // appends themselves trigger evictions mid-stream.
        let horizon: i64 = [0, 25, 60][(case % 3) as usize];
        let mut inner = QueryEngine::new();
        if horizon > 0 {
            inner = inner.with_window(SlidingWindow::new(horizon));
        }
        let engine = SnapshotEngine::with_engine(inner).publish_every(4);

        let chain = catalog::by_name("M(3,2)", 12, 0.0).unwrap();
        let cycle = catalog::by_name("M(3,3)", 15, 0.0).unwrap();
        let bounded = Some(TimeWindow::new(10, 70));
        let mut subs = StandingQueries::new();
        let a = engine.subscribe_standing(&mut subs, chain.clone(), None);
        let b = engine.subscribe_standing(&mut subs, cycle.clone(), None);
        let c = engine.subscribe_standing(&mut subs, chain.clone(), bounded);
        let mut specs =
            vec![(a, chain.clone(), None), (b, cycle.clone(), None), (c, chain.clone(), bounded)];
        // Walks with revisit and branch-out steps: a pair-anchored run
        // binds their labels backward as well as forward.
        for (name, delta) in WIDE {
            let m = catalog::by_name(name, delta, 0.0).unwrap();
            specs.push((engine.subscribe_standing(&mut subs, m.clone(), None), m, None));
        }

        let mut events = Vec::new();
        let mut time: Timestamp = 0;
        for op in 0..OPS {
            match rng.random_range(0..10u32) {
                0..=6 => {
                    // Append, sometimes a few ticks behind the watermark
                    // (exercises the unsorted-tail path).
                    time += rng.random_range(0..4i64);
                    let t = (time - rng.random_range(0..3i64)).max(0);
                    let from = rng.random_range(0..NODES);
                    let to = (from + rng.random_range(1..NODES)) % NODES;
                    let flow = rng.random_range(1..6u32) as Flow;
                    // A stale append (below an eviction floor) is refused
                    // without touching the graph — equivalence must hold
                    // either way.
                    let _ = engine.append_standing(from, to, t, flow, &mut subs, &mut events);
                }
                7 => {
                    let floor = time - rng.random_range(0..30i64);
                    engine.evict_standing(floor, &mut subs, &mut events);
                }
                8 => engine.compact(),
                _ => {
                    engine.publish();
                }
            }
            for (id, motif, bounds) in &specs {
                let mut fresh = StandingQueries::new();
                let fid = engine.subscribe_standing(&mut fresh, motif.clone(), *bounds);
                assert_eq!(
                    canon(subs.get(*id).unwrap()),
                    canon(fresh.get(fid).unwrap()),
                    "case {case} op {op} subscription {id}: delta view diverged from re-query"
                );
            }
        }

        // Accounting: every pushed event belongs to a registered
        // subscription, and the emission counters cover them exactly.
        let ids: Vec<u64> = specs.iter().map(|s| s.0).collect();
        for (id, ..) in &specs[3..] {
            wide_events += subs.get(*id).unwrap().delta_stats().instances_emitted;
        }
        assert!(events.iter().all(|e| ids.contains(&e.subscription)));
        let emitted: u64 =
            ids.iter().map(|id| subs.get(*id).unwrap().delta_stats().instances_emitted).sum();
        assert_eq!(events.len() as u64, emitted, "case {case}");

        // SearchStats sanity: the delta path enumerates windows (P2)
        // but never runs the P1 driver — subscriptions were seeded on an
        // empty graph, and anchored rescans bypass the driver entirely.
        let windows: u64 =
            ids.iter().map(|id| subs.get(*id).unwrap().search_stats().windows_processed).sum();
        if !events.is_empty() {
            assert!(windows > 0, "case {case}: events without P2 work");
        }
        for id in ids {
            assert_eq!(
                subs.get(id).unwrap().search_stats().structural_matches,
                0,
                "case {case}: the standing path must anchor P1, not re-drive it"
            );
        }
    }
    assert!(wide_events > 0, "the M(4,4)/M(5,5) subscriptions never emitted: vacuous cases");
}

#[test]
fn epoch_appends_and_reseals_keep_the_delta_view_exact() {
    use flowmotif_graph::{segment::write_segment, GraphBuilder, NodeId};

    fn tmp_dir(tag: u64) -> std::path::PathBuf {
        let p =
            std::env::temp_dir().join(format!("flowmotif-prop-delta-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    for case in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0xE90C_u64 * 1000 + case);
        // Seal a small random base so the subscription seeds over the
        // mmap'd segment, then stream appends into the RAM delta.
        let mut b = GraphBuilder::new();
        for i in 0..12 {
            let from = rng.random_range(0..NODES);
            let to = (from + rng.random_range(1..NODES)) % NODES;
            b.extend_interactions([(
                from as NodeId,
                to as NodeId,
                i as Timestamp,
                rng.random_range(1..6u32) as Flow,
            )]);
        }
        let dir = tmp_dir(case);
        write_segment(&b.build_time_series_graph(), &dir).unwrap();
        let engine = EpochEngine::open(&dir).unwrap().publish_every(3);

        let motif = catalog::by_name("M(3,2)", 12, 0.0).unwrap();
        let mut subs = StandingQueries::new();
        let id = engine.subscribe_standing(&mut subs, motif.clone(), None);
        assert!(subs.get(id).unwrap().num_instances() > 0 || case > 0, "base seeds the view");
        let mut specs = vec![(id, motif)];
        for (name, delta) in WIDE {
            let m = catalog::by_name(name, delta, 0.0).unwrap();
            specs.push((engine.subscribe_standing(&mut subs, m.clone(), None), m));
        }

        let mut events = Vec::new();
        let mut time: Timestamp = 12;
        for op in 0..30 {
            if rng.random_range(0..6u32) == 0 {
                // Reseal merges base ∪ delta into a fresh segment —
                // data-identical, so the maintained view needs no hook
                // and must come through untouched.
                engine.reseal().unwrap();
            } else {
                time += rng.random_range(0..3i64);
                let from = rng.random_range(0..NODES);
                let to = (from + rng.random_range(1..NODES)) % NODES;
                let flow = rng.random_range(1..6u32) as Flow;
                let _ = engine.append_standing(from, to, time, flow, &mut subs, &mut events);
            }
            for (id, motif) in &specs {
                let mut fresh = StandingQueries::new();
                let fid = engine.subscribe_standing(&mut fresh, motif.clone(), None);
                assert_eq!(
                    canon(subs.get(*id).unwrap()),
                    canon(fresh.get(fid).unwrap()),
                    "case {case} op {op} {}: epoch delta view diverged from re-query",
                    motif.name()
                );
            }
        }
        drop(engine);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
