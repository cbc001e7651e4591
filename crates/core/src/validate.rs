//! Independent validity and maximality checkers (paper Defs. 3.2 / 3.3),
//! plus a brute-force reference enumerator.
//!
//! These are deliberately written *against the definitions*, not against
//! the search algorithm, so the property tests can catch agreement bugs:
//! the checkers walk raw event lists with no window/prefix machinery.

use crate::instance::{MotifInstance, StructuralMatch};
use crate::motif::Motif;
use flowmotif_graph::{TimeSeriesGraph, Timestamp};

/// Checks that `sm` is a structural match of the motif in `g`:
/// edge endpoints consistent with the vertex mapping, and the mapping
/// injective.
pub fn check_structural_match(
    g: &TimeSeriesGraph,
    motif: &Motif,
    sm: &StructuralMatch,
) -> Result<(), String> {
    let walk = motif.path().walk();
    if sm.pairs.len() != motif.num_edges() {
        return Err(format!(
            "match has {} pairs, motif has {} edges",
            sm.pairs.len(),
            motif.num_edges()
        ));
    }
    if sm.nodes.len() != motif.num_nodes() {
        return Err(format!(
            "match maps {} nodes, motif has {}",
            sm.nodes.len(),
            motif.num_nodes()
        ));
    }
    for i in 0..sm.nodes.len() {
        for j in i + 1..sm.nodes.len() {
            if sm.nodes[i] == sm.nodes[j] {
                return Err(format!("mapping not injective: motif nodes {i} and {j}"));
            }
        }
    }
    for (k, &p) in sm.pairs.iter().enumerate() {
        let (u, v) = g.pair(p);
        let (mu, mv) = (walk[k] as usize, walk[k + 1] as usize);
        if sm.nodes[mu] != u || sm.nodes[mv] != v {
            return Err(format!(
                "edge {k} maps to pair ({u},{v}), expected ({},{})",
                sm.nodes[mu], sm.nodes[mv]
            ));
        }
    }
    Ok(())
}

/// Checks that `inst` is a valid instance per Def. 3.2: non-empty
/// edge-sets on the match's pairs, strictly time-respecting across
/// consecutive motif edges, spanning at most `δ`, and each set aggregating
/// at least `ϕ`.
pub fn check_instance_valid(
    g: &TimeSeriesGraph,
    motif: &Motif,
    sm: &StructuralMatch,
    inst: &MotifInstance,
) -> Result<(), String> {
    if inst.edge_sets.len() != motif.num_edges() {
        return Err("edge-set count != motif edge count".into());
    }
    let mut t_min = Timestamp::MAX;
    let mut t_max = Timestamp::MIN;
    let mut prev_last: Option<Timestamp> = None;
    for (k, es) in inst.edge_sets.iter().enumerate() {
        if es.pair != sm.pairs[k] {
            return Err(format!("edge {k} uses pair {} instead of {}", es.pair, sm.pairs[k]));
        }
        let series = g.series(es.pair);
        if es.end as usize > series.len() || es.start >= es.end {
            return Err(format!("edge {k} has an empty or out-of-bounds element range"));
        }
        let events = es.events(g);
        let first = events.first().expect("non-empty").time;
        let last = events.last().expect("non-empty").time;
        t_min = t_min.min(first);
        t_max = t_max.max(last);
        if let Some(pl) = prev_last {
            if first <= pl {
                return Err(format!(
                    "edge {k} starts at {first}, not strictly after previous edge's last {pl}"
                ));
            }
        }
        prev_last = Some(last);
        let flow = es.flow(g);
        if flow < motif.phi() {
            return Err(format!("edge {k} aggregates {flow} < ϕ = {}", motif.phi()));
        }
    }
    if t_max - t_min > motif.delta() {
        return Err(format!("span {} exceeds δ = {}", t_max - t_min, motif.delta()));
    }
    if inst.first_time != t_min || inst.last_time != t_max {
        return Err("recorded first/last times disagree with edge-sets".into());
    }
    let min_flow = inst.edge_sets.iter().map(|es| es.flow(g)).fold(f64::INFINITY, f64::min);
    if (inst.flow - min_flow).abs() > 1e-9 {
        return Err(format!("recorded flow {} != min edge-set flow {min_flow}", inst.flow));
    }
    Ok(())
}

/// Checks maximality per Def. 3.3: no single series element can be added
/// to any edge-set while keeping the instance valid. (Adding elements can
/// only raise flows, so only the order and duration constraints matter.)
pub fn check_instance_maximal(
    g: &TimeSeriesGraph,
    motif: &Motif,
    inst: &MotifInstance,
) -> Result<(), String> {
    let m = inst.edge_sets.len();
    for k in 0..m {
        let es = &inst.edge_sets[k];
        let series = g.series(es.pair);
        let prev_last = (k > 0).then(|| {
            let p = &inst.edge_sets[k - 1];
            p.events(g).last().expect("non-empty").time
        });
        let next_first = (k + 1 < m).then(|| {
            let n = &inst.edge_sets[k + 1];
            n.events(g).first().expect("non-empty").time
        });
        for (idx, ev) in series.events().iter().enumerate() {
            if idx >= es.start as usize && idx < es.end as usize {
                continue; // already in the set
            }
            // Would adding this element keep the instance valid?
            if let Some(pl) = prev_last {
                if ev.time <= pl {
                    continue;
                }
            }
            if let Some(nf) = next_first {
                if ev.time >= nf {
                    continue;
                }
            }
            let new_min = inst.first_time.min(ev.time);
            let new_max = inst.last_time.max(ev.time);
            if new_max - new_min <= motif.delta() {
                return Err(format!(
                    "not maximal: element ({}, {}) can join edge {k}",
                    ev.time, ev.flow
                ));
            }
        }
    }
    Ok(())
}

/// Brute-force reference enumerator of maximal instances inside one
/// structural match. Exponential; use only on tiny fixtures.
///
/// It enumerates every anchored window and every split-point combination
/// with *no* pruning or skipping, assembles the bracket-form candidate,
/// and keeps it only if the Def. 3.2 / 3.3 checkers accept it. Results are
/// deduplicated.
pub fn brute_force_instances(
    g: &TimeSeriesGraph,
    motif: &Motif,
    sm: &StructuralMatch,
) -> Vec<MotifInstance> {
    use crate::instance::EdgeSet;
    let series: Vec<_> = sm.pairs.iter().map(|&p| g.series(p)).collect();
    if series.iter().any(|s| s.is_empty()) {
        return Vec::new();
    }
    let mut out: Vec<MotifInstance> = Vec::new();
    let e1 = series[0];
    // splits[k] = chosen last-element time for edge k (k < m-1). One
    // stack for the whole call: the recursion leaves it empty between
    // anchors, so hoisting it out of the loop reuses its capacity.
    let mut stack: Vec<(usize, Timestamp)> = Vec::new(); // (edge, split)
    for a_idx in 0..e1.len() {
        let anchor = e1.time(a_idx);
        let end = anchor.saturating_add(motif.delta());
        #[allow(clippy::too_many_arguments)]
        fn rec(
            g: &TimeSeriesGraph,
            motif: &Motif,
            sm: &StructuralMatch,
            series: &[&flowmotif_graph::InteractionSeries],
            anchor: Timestamp,
            a_idx: usize,
            end: Timestamp,
            k: usize,
            lo: Timestamp,
            stack: &mut Vec<(usize, Timestamp)>,
            out: &mut Vec<MotifInstance>,
        ) {
            let m = motif.num_edges();
            if k == m - 1 {
                // Assemble candidate: each edge takes all elements in its
                // bracket; the last runs to the window end.
                let mut edge_sets = Vec::with_capacity(m);
                let mut cur_lo = anchor;
                for (kk, s) in series.iter().enumerate() {
                    let hi = stack.get(kk).map_or(end, |&(_, t)| t);
                    let r = if kk == 0 {
                        a_idx..s.idx_after(hi)
                    } else {
                        s.range_open_closed(cur_lo, hi)
                    };
                    if r.is_empty() {
                        return;
                    }
                    cur_lo = hi;
                    edge_sets.push(EdgeSet {
                        pair: sm.pairs[kk],
                        start: r.start as u32,
                        end: r.end as u32,
                    });
                }
                let first_time = series[0].time(edge_sets[0].start as usize);
                let last = &edge_sets[m - 1];
                let last_time = series[m - 1].time(last.end as usize - 1);
                let flow = edge_sets.iter().map(|es| es.flow(g)).fold(f64::INFINITY, f64::min);
                let inst = MotifInstance { edge_sets, flow, first_time, last_time };
                if check_instance_valid(g, motif, sm, &inst).is_ok()
                    && check_instance_maximal(g, motif, &inst).is_ok()
                    && !out.contains(&inst)
                {
                    out.push(inst);
                }
                return;
            }
            // Choose the split after edge k: any element time of edge k in
            // (lo, end] (inclusive anchor for k = 0).
            let s = series[k];
            let r = if k == 0 { a_idx..s.idx_after(end) } else { s.range_open_closed(lo, end) };
            for j in r {
                let split = s.time(j);
                stack.push((k, split));
                rec(g, motif, sm, series, anchor, a_idx, end, k + 1, split, stack, out);
                stack.pop();
            }
        }
        rec(g, motif, sm, &series, anchor, a_idx, end, 0, anchor, &mut stack, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::enumerate::{
        enumerate_in_match, CollectSink, EnumerationScratch, SearchOptions, SearchStats,
    };
    use flowmotif_graph::GraphBuilder;

    fn fig7() -> (TimeSeriesGraph, StructuralMatch) {
        let mut b = GraphBuilder::new();
        for (t, f) in [(10, 5.0), (13, 2.0), (15, 3.0), (18, 7.0)] {
            b.add_interaction(0, 1, t, f);
        }
        for (t, f) in [(9, 4.0), (11, 3.0), (16, 3.0)] {
            b.add_interaction(1, 2, t, f);
        }
        for (t, f) in [(14, 4.0), (19, 6.0), (24, 3.0), (25, 2.0)] {
            b.add_interaction(2, 0, t, f);
        }
        let g = b.build_time_series_graph();
        let sm = StructuralMatch {
            nodes: vec![0, 1, 2],
            pairs: vec![
                g.pair_id(0, 1).unwrap(),
                g.pair_id(1, 2).unwrap(),
                g.pair_id(2, 0).unwrap(),
            ],
        };
        (g, sm)
    }

    #[test]
    fn checkers_accept_algorithm_output() {
        let (g, sm) = fig7();
        let motif = catalog::by_name("M(3,3)", 10, 0.0).unwrap();
        check_structural_match(&g, &motif, &sm).unwrap();
        let mut sink = CollectSink::default();
        let mut stats = SearchStats::default();
        let (opts, scratch) = (SearchOptions::default(), &mut EnumerationScratch::default());
        enumerate_in_match(&g, &motif, &sm, None, opts, &mut sink, &mut stats, scratch);
        let insts = &sink.groups[0].1;
        assert_eq!(insts.len(), 4);
        for inst in insts {
            check_instance_valid(&g, &motif, &sm, inst).unwrap();
            check_instance_maximal(&g, &motif, inst).unwrap();
        }
    }

    #[test]
    fn checker_rejects_subset_instances() {
        // Fig. 4(b): dropping (13,5) from the Fig. 4(a) instance makes it
        // non-maximal.
        let mut b = GraphBuilder::new();
        b.extend_interactions([
            (2u32, 0u32, 10i64, 10.0),
            (0, 1, 13, 5.0),
            (0, 1, 15, 7.0),
            (1, 2, 18, 20.0),
        ]);
        let g = b.build_time_series_graph();
        let motif = catalog::by_name("M(3,3)", 10, 7.0).unwrap();
        let sm = StructuralMatch {
            nodes: vec![2, 0, 1],
            pairs: vec![
                g.pair_id(2, 0).unwrap(),
                g.pair_id(0, 1).unwrap(),
                g.pair_id(1, 2).unwrap(),
            ],
        };
        use crate::instance::EdgeSet;
        // Non-maximal: e2 takes only (15,7).
        let nonmax = MotifInstance {
            edge_sets: vec![
                EdgeSet { pair: sm.pairs[0], start: 0, end: 1 },
                EdgeSet { pair: sm.pairs[1], start: 1, end: 2 },
                EdgeSet { pair: sm.pairs[2], start: 0, end: 1 },
            ],
            flow: 7.0,
            first_time: 10,
            last_time: 18,
        };
        check_instance_valid(&g, &motif, &sm, &nonmax).unwrap();
        assert!(check_instance_maximal(&g, &motif, &nonmax).is_err());
        // Maximal: e2 takes both elements.
        let max = MotifInstance {
            edge_sets: vec![
                EdgeSet { pair: sm.pairs[0], start: 0, end: 1 },
                EdgeSet { pair: sm.pairs[1], start: 0, end: 2 },
                EdgeSet { pair: sm.pairs[2], start: 0, end: 1 },
            ],
            flow: 10.0,
            first_time: 10,
            last_time: 18,
        };
        check_instance_valid(&g, &motif, &sm, &max).unwrap();
        check_instance_maximal(&g, &motif, &max).unwrap();
    }

    #[test]
    fn checker_rejects_order_violations() {
        let (g, sm) = fig7();
        let motif = catalog::by_name("M(3,3)", 10, 0.0).unwrap();
        use crate::instance::EdgeSet;
        // e2 <- {(9,4)} is before e1 <- {(10,5)}: order violated.
        let bad = MotifInstance {
            edge_sets: vec![
                EdgeSet { pair: sm.pairs[0], start: 0, end: 1 },
                EdgeSet { pair: sm.pairs[1], start: 0, end: 1 },
                EdgeSet { pair: sm.pairs[2], start: 0, end: 1 },
            ],
            flow: 4.0,
            first_time: 9,
            last_time: 14,
        };
        assert!(check_instance_valid(&g, &motif, &sm, &bad).is_err());
    }

    #[test]
    fn brute_force_agrees_with_algorithm_on_fig7() {
        let (g, sm) = fig7();
        for phi in [0.0, 3.0, 5.0, 7.0] {
            let motif = catalog::by_name("M(3,3)", 10, phi).unwrap();
            let mut sink = CollectSink::default();
            let mut stats = SearchStats::default();
            let (opts, scratch) = (SearchOptions::default(), &mut EnumerationScratch::default());
            enumerate_in_match(&g, &motif, &sm, None, opts, &mut sink, &mut stats, scratch);
            let mut algo: Vec<_> = sink
                .groups
                .pop()
                .map(|(_, v)| v)
                .unwrap_or_default()
                .iter()
                .map(|i| i.display(&g))
                .collect();
            let mut brute: Vec<_> =
                brute_force_instances(&g, &motif, &sm).iter().map(|i| i.display(&g)).collect();
            algo.sort();
            brute.sort();
            assert_eq!(algo, brute, "phi={phi}");
        }
    }

    #[test]
    fn structural_checker_rejects_bad_mappings() {
        let (g, sm) = fig7();
        let motif = catalog::by_name("M(3,3)", 10, 0.0).unwrap();
        let mut bad = sm.clone();
        bad.nodes[1] = bad.nodes[0]; // not injective
        assert!(check_structural_match(&g, &motif, &bad).is_err());
        let mut bad = sm;
        bad.pairs.swap(0, 1); // endpoints disagree with mapping
        assert!(check_structural_match(&g, &motif, &bad).is_err());
    }
}
