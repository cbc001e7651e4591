//! Randomized suite for pair-anchored phase P1
//! ([`P1Driver::through_pair`], the seed of standing-query delta
//! evaluation): on random graphs, for every pair `(u, v)`, the anchored
//! run must find exactly the matches of the whole-graph run (same window)
//! that contain the pair — each once — for all ten catalog motifs, random
//! windows, both extension orders, both index settings, and the heap,
//! segment and overlay stores. Its match *stream* must also be identical
//! across stores, orders and index settings.

mod common;

use common::{case_rng, pick};
use flowmotif::graph::segment::write_segment;
use flowmotif::prelude::*;
use flowmotif_util::rng::{RngExt, StdRng};
use std::path::PathBuf;
use std::sync::Arc;

const CASES: u64 = 48;
const NODES: u32 = 7;

/// Temp directory guard: removed on drop.
struct TempDir(PathBuf);
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Random interactions among `NODES` vertices, dense enough that cycles
/// (and hence revisit and backward constraint steps) occur.
fn random_edges(rng: &mut StdRng) -> Vec<(NodeId, NodeId, Timestamp, Flow)> {
    let n = rng.random_range(5..60usize);
    (0..n)
        .filter_map(|_| {
            let u = rng.random_range(0..NODES);
            let v = rng.random_range(0..NODES);
            (u != v)
                .then(|| (u, v, rng.random_range(0i64..120), rng.random_range(1u32..10) as Flow))
        })
        .collect()
}

fn build(edges: &[(NodeId, NodeId, Timestamp, Flow)]) -> TimeSeriesGraph {
    let mut b = GraphBuilder::new();
    b.extend_interactions(edges.iter().copied());
    b.build_time_series_graph()
}

/// The same graph as a sealed segment of the first half of `edges` plus
/// an in-RAM delta holding the full merged series of every pair the
/// second half touches (the overlay invariant).
fn overlay(edges: &[(NodeId, NodeId, Timestamp, Flow)], dir: &TempDir) -> OverlayStore {
    let (base, tail) = edges.split_at(edges.len() / 2);
    write_segment(&build(base), &dir.0).unwrap();
    let touched: Vec<(NodeId, NodeId)> = tail.iter().map(|&(u, v, _, _)| (u, v)).collect();
    let delta: Vec<_> =
        edges.iter().copied().filter(|&(u, v, _, _)| touched.contains(&(u, v))).collect();
    OverlayStore::new(Arc::new(SegmentStore::open(&dir.0).unwrap()), build(&delta))
}

/// The anchored run's match stream as vertex assignments (pair ids are
/// backend-specific; the nodes identify a match).
fn anchored<S: GraphStore>(
    g: &S,
    motif: &Motif,
    w: TimeWindow,
    order: ExtensionOrder,
    use_index: bool,
    (u, v): (NodeId, NodeId),
) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    P1Driver::new(motif.path())
        .bounds(w)
        .extension_order(order)
        .use_index(use_index)
        .through_pair(u, v)
        .for_each(g, &mut |sm| {
            assert!(
                sm.pairs.iter().any(|&p| g.pair(p) == (u, v)),
                "anchored match {:?} does not use ({u}, {v})",
                sm.nodes
            );
            out.push(sm.nodes.clone());
        });
    out
}

#[test]
fn through_pair_equals_the_filtered_whole_graph_run() {
    for case in 0..CASES {
        let mut rng = case_rng(0x7A1, case);
        let edges = random_edges(&mut rng);
        let heap = build(&edges);
        let seg_dir = TempDir(
            std::env::temp_dir()
                .join(format!("flowmotif-prop-through-pair-{}-{case}-seg", std::process::id())),
        );
        write_segment(&heap, &seg_dir.0).unwrap();
        let seg = SegmentStore::open(&seg_dir.0).unwrap();
        let ov_dir = TempDir(
            std::env::temp_dir()
                .join(format!("flowmotif-prop-through-pair-{}-{case}-ov", std::process::id())),
        );
        let ov = overlay(&edges, &ov_dir);

        let motifs = catalog::all_motifs(10, 0.0);
        let motif = pick(&mut rng, &motifs);
        let w = if rng.random_range(0u32..3) == 0 {
            TimeWindow::new(i64::MIN, i64::MAX)
        } else {
            let a = rng.random_range(0i64..110);
            TimeWindow::new(a, a + rng.random_range(0i64..80))
        };
        let all = P1Driver::new(motif.path()).bounds(w).collect(&heap);
        for &(u, v) in heap.pairs() {
            let p = heap.pair_id(u, v).unwrap();
            let mut want: Vec<Vec<NodeId>> =
                all.iter().filter(|m| m.pairs.contains(&p)).map(|m| m.nodes.clone()).collect();
            want.sort();
            let reference = anchored(&heap, motif, w, ExtensionOrder::Fixed, true, (u, v));
            let mut got = reference.clone();
            got.sort();
            let tag = format!("case {case}: {} w={w:?} pair=({u}, {v})", motif.name());
            assert!(got.windows(2).all(|x| x[0] != x[1]), "{tag}: a match emitted twice");
            assert_eq!(got, want, "{tag}: anchored ≠ filtered whole-graph run");
            for order in [ExtensionOrder::Fixed, ExtensionOrder::Cardinality] {
                for use_index in [false, true] {
                    let cfg = format!("{tag} order={order} index={use_index}");
                    let heap_run = anchored(&heap, motif, w, order, use_index, (u, v));
                    assert_eq!(heap_run, reference, "{cfg} heap");
                    let seg_run = anchored(&seg, motif, w, order, use_index, (u, v));
                    assert_eq!(seg_run, reference, "{cfg} segment");
                    let ov_run = anchored(&ov, motif, w, order, use_index, (u, v));
                    assert_eq!(ov_run, reference, "{cfg} overlay");
                }
            }
        }
        // Pairs absent from the graph anchor nothing.
        for u in 0..NODES {
            for v in 0..NODES {
                if !heap.pairs().contains(&(u, v)) {
                    assert!(
                        anchored(&ov, motif, w, ExtensionOrder::Cardinality, true, (u, v))
                            .is_empty(),
                        "case {case}: absent pair ({u}, {v}) anchored a match"
                    );
                }
            }
        }
    }
}
