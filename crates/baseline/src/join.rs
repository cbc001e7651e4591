//! Steps 2–3 of the join baseline: level-by-level joins of quintuples
//! into sub-motif instances, then maximality filtering.

use crate::quintuple::{build_quintuples, Quintuple};
use flowmotif_core::validate::check_instance_maximal;
use flowmotif_core::{EdgeSet, Motif, MotifInstance, StructuralMatch};
use flowmotif_graph::{NodeId, TimeSeriesGraph, Timestamp};

/// Counters describing a join run; `intermediate_per_level[k]` is the
/// number of sub-motif instances materialised after joining `k + 1` motif
/// edges — the "large number of intermediate results" the paper attributes
/// the baseline's slowness to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Total quintuples materialised in step 1.
    pub quintuples: u64,
    /// Materialised sub-instances after each join level.
    pub intermediate_per_level: Vec<u64>,
    /// Full-motif candidates before maximality filtering.
    pub candidates: u64,
    /// Candidates surviving the maximality filter (== the two-phase
    /// algorithm's output size).
    pub maximal: u64,
}

const UNASSIGNED: NodeId = NodeId::MAX;

/// A sub-motif instance: quintuples for the first `k` motif edges plus the
/// partial vertex mapping.
#[derive(Debug, Clone)]
struct Partial {
    /// Motif-vertex -> graph-vertex mapping (`UNASSIGNED` when not yet
    /// mapped).
    nodes: Vec<NodeId>,
    /// Chosen quintuple per joined motif edge.
    quints: Vec<Quintuple>,
    first_ts: Timestamp,
    last_te: Timestamp,
}

/// Runs the full join baseline, returning the same maximal instances as
/// `flowmotif_core::Query::collect` (grouping differs: results are flat).
pub fn join_enumerate(
    g: &TimeSeriesGraph,
    motif: &Motif,
) -> (Vec<(StructuralMatch, MotifInstance)>, JoinStats) {
    let mut stats = JoinStats::default();
    let walk = motif.path().walk();
    let m = motif.num_edges();
    let n_labels = motif.num_nodes();

    // Step 1: quintuples for every G_T pair.
    let per_pair: Vec<Vec<Quintuple>> = (0..g.num_pairs() as u32)
        .map(|p| build_quintuples(p, g.series(p), motif.delta(), motif.phi()))
        .collect();
    stats.quintuples = per_pair.iter().map(|v| v.len() as u64).sum();

    // Level 1: every quintuple of every pair seeds a partial.
    let mut level: Vec<Partial> = Vec::new();
    for (p, quints) in per_pair.iter().enumerate() {
        let (u, v) = g.pair(p as u32);
        for &q in quints {
            let mut nodes = vec![UNASSIGNED; n_labels];
            nodes[walk[0] as usize] = u;
            nodes[walk[1] as usize] = v;
            level.push(Partial { nodes, quints: vec![q], first_ts: q.ts, last_te: q.te });
        }
    }
    stats.intermediate_per_level.push(level.len() as u64);

    // Levels 2..m: merge-join with the next motif edge's quintuples.
    for k in 1..m {
        let src_label = walk[k] as usize;
        let tgt_label = walk[k + 1] as usize;
        let mut next_level: Vec<Partial> = Vec::new();
        for partial in &level {
            let src = partial.nodes[src_label];
            debug_assert_ne!(src, UNASSIGNED, "walk is connected");
            let tgt = partial.nodes[tgt_label];
            if tgt != UNASSIGNED {
                // Cycle-closing (or revisiting) edge: the pair is fixed.
                if let Some(p) = g.pair_id(src, tgt) {
                    extend(partial, &per_pair[p as usize], motif, tgt_label, tgt, &mut next_level);
                }
            } else {
                for (p, v) in g.out_pairs(src) {
                    if partial.nodes.contains(&v) {
                        continue; // injectivity
                    }
                    extend(partial, &per_pair[p as usize], motif, tgt_label, v, &mut next_level);
                }
            }
        }
        stats.intermediate_per_level.push(next_level.len() as u64);
        level = next_level;
    }

    // Step 3: assemble and filter to maximal instances.
    stats.candidates = level.len() as u64;
    let mut out = Vec::new();
    for partial in level {
        let edge_sets: Vec<EdgeSet> = partial
            .quints
            .iter()
            .map(|q| EdgeSet { pair: q.pair, start: q.start, end: q.end })
            .collect();
        let flow = partial.quints.iter().map(|q| q.flow).fold(f64::INFINITY, f64::min);
        let inst = MotifInstance {
            edge_sets,
            flow,
            first_time: partial.first_ts,
            last_time: partial.last_te,
        };
        if check_instance_maximal(g, motif, &inst).is_err() {
            continue;
        }
        let sm = StructuralMatch {
            nodes: partial.nodes,
            pairs: partial.quints.iter().map(|q| q.pair).collect(),
        };
        out.push((sm, inst));
    }
    stats.maximal = out.len() as u64;
    (out, stats)
}

/// Joins one partial with every compatible quintuple on pair `p`.
fn extend(
    partial: &Partial,
    quints: &[Quintuple],
    motif: &Motif,
    tgt_label: usize,
    tgt: NodeId,
    next_level: &mut Vec<Partial>,
) {
    // Quintuples are sorted by ts; skip those not strictly after the
    // partial's last element (the merge-join's temporal condition).
    let from = quints.partition_point(|q| q.ts <= partial.last_te);
    for &q in &quints[from..] {
        if q.te - partial.first_ts > motif.delta() {
            continue; // span violated; later quintuples may still fit (ts asc, te varies)
        }
        let mut nodes = partial.nodes.clone();
        nodes[tgt_label] = tgt;
        let mut qs = Vec::with_capacity(partial.quints.len() + 1);
        qs.extend_from_slice(&partial.quints);
        qs.push(q);
        next_level.push(Partial { nodes, quints: qs, first_ts: partial.first_ts, last_te: q.te });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmotif_core::{catalog, Query};
    use flowmotif_graph::GraphBuilder;

    fn fig5() -> TimeSeriesGraph {
        let mut b = GraphBuilder::new();
        b.extend_interactions([
            (0u32, 1u32, 13i64, 5.0),
            (0, 1, 15, 7.0),
            (2, 0, 10, 10.0),
            (3, 2, 1, 2.0),
            (3, 2, 3, 5.0),
            (3, 0, 11, 10.0),
            (1, 2, 18, 20.0),
            (2, 3, 19, 5.0),
            (2, 3, 21, 4.0),
            (1, 3, 23, 7.0),
        ]);
        b.build_time_series_graph()
    }

    fn normalized(mut v: Vec<(StructuralMatch, MotifInstance)>) -> Vec<String> {
        let mut out: Vec<String> =
            v.drain(..).map(|(sm, i)| format!("{:?}|{:?}", sm.pairs, i.edge_sets)).collect();
        out.sort();
        out
    }

    #[test]
    fn join_matches_two_phase_on_fig5() {
        let g = fig5();
        for (name, phi) in [("M(3,3)", 7.0), ("M(3,3)", 0.0), ("M(3,2)", 0.0), ("M(4,3)", 2.0)] {
            let motif = catalog::by_name(name, 10, phi).unwrap();
            let (two_phase, _) = Query::new(&motif).collect(&g);
            let flat: Vec<_> = two_phase
                .into_iter()
                .flat_map(|(sm, is)| is.into_iter().map(move |i| (sm.clone(), i)))
                .collect();
            let (joined, stats) = join_enumerate(&g, &motif);
            assert_eq!(normalized(joined), normalized(flat), "{name} phi={phi}");
            assert!(stats.quintuples > 0);
        }
    }

    #[test]
    fn join_materialises_intermediates() {
        let g = fig5();
        let motif = catalog::by_name("M(4,3)", 10, 0.0).unwrap();
        let (_, stats) = join_enumerate(&g, &motif);
        assert_eq!(stats.intermediate_per_level.len(), 3);
        // Level 1 holds every quintuple: far more than final results.
        assert!(stats.intermediate_per_level[0] >= stats.maximal);
        assert!(stats.candidates >= stats.maximal);
    }

    #[test]
    fn join_on_empty_graph() {
        let g = GraphBuilder::new().build_time_series_graph();
        let motif = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        let (out, stats) = join_enumerate(&g, &motif);
        assert!(out.is_empty());
        assert_eq!(stats.quintuples, 0);
    }

    #[test]
    fn cycle_closure_is_enforced() {
        // A path 0 -> 1 -> 2 without the closing edge: M(3,3) joins must
        // die at the last level.
        let mut b = GraphBuilder::new();
        b.extend_interactions([(0u32, 1u32, 1i64, 1.0), (1, 2, 2, 1.0)]);
        let g = b.build_time_series_graph();
        let motif = catalog::by_name("M(3,3)", 10, 0.0).unwrap();
        let (out, stats) = join_enumerate(&g, &motif);
        assert!(out.is_empty());
        assert!(stats.intermediate_per_level[1] > 0, "two-edge sub-instances exist");
        assert_eq!(stats.intermediate_per_level[2], 0);
    }
}
