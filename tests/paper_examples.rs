//! End-to-end integration tests over the facade crate, pinning every
//! worked example in the paper: the Fig. 1 toy, the Fig. 2/4/5/6 bitcoin
//! example, the Fig. 7 / Table 2 Algorithm-1 walkthrough.

use flowmotif::prelude::*;

/// Paper Fig. 1(a): the four-user money-exchange multigraph.
fn fig1_graph() -> TimeSeriesGraph {
    let mut b = GraphBuilder::new();
    // u1=0, u2=1, u3=2, u4=3
    b.extend_interactions([
        (0u32, 1u32, 2i64, 5.0), // u1 -> u2 t=2 f=5
        (1, 2, 5, 2.0),          // u2 -> u3 t=5 f=2
        (1, 2, 3, 4.0),          // u2 -> u3 t=3 f=4
        (3, 0, 1, 6.0),          // u4 -> u1 t=1 f=6
        (1, 3, 4, 3.0),          // u2 -> u4 t=4 f=3
        (2, 0, 10, 1.0),         // u3 -> u1 t=10 f=1
        (3, 2, 2, 4.0),          // u4 -> u3 t=2 f=4
    ]);
    b.build_time_series_graph()
}

/// Paper Fig. 2/5: the bitcoin user example.
fn fig2_graph() -> TimeSeriesGraph {
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

#[test]
fn fig1_chain_instances() {
    // Fig. 1(b): the 3-node chain motif with δ=5, ϕ=5. The paper's two
    // instances are u4->u1->u2 (Fig. 1c) and u1->u2->u3 (Fig. 1d).
    let g = fig1_graph();
    let motif = catalog::by_name("M(3,2)", 5, 5.0).unwrap();
    let (groups, _) = Query::new(&motif).collect(&g);
    let gr = &g;
    let mut walks: Vec<Vec<u32>> =
        groups.iter().flat_map(|(sm, v)| v.iter().map(move |_| sm.walk_nodes(gr))).collect();
    walks.sort();
    assert_eq!(walks, vec![vec![0, 1, 2], vec![3, 0, 1]]);

    // Fig. 1(d)'s aggregation: the u2->u3 edge-set has flow 2+4 = 6.
    let (sm, insts) = groups.iter().find(|(sm, _)| sm.walk_nodes(&g) == vec![0, 1, 2]).unwrap();
    assert_eq!(insts.len(), 1);
    let inst = &insts[0];
    assert_eq!(inst.edge_sets[1].flow(&g), 6.0);
    assert_eq!(inst.flow, 5.0);
    // Span: 5 - 2 = 3 <= δ.
    assert_eq!(inst.span(), 3);
    let _ = sm;
}

#[test]
fn fig2_stats_shape() {
    let g = fig2_graph();
    let s = GraphStats::of(&g);
    assert_eq!(s.num_nodes, 4);
    assert_eq!(s.num_connected_pairs, 7);
    assert_eq!(s.num_interactions, 10);
}

#[test]
fn fig4_maximal_instance_and_its_nonmaximal_subset() {
    let g = fig2_graph();
    let motif = catalog::by_name("M(3,3)", 10, 7.0).unwrap();
    let (groups, stats) = Query::new(&motif).collect(&g);
    assert_eq!(stats.structural_matches, 6, "Fig. 6: six structural matches");
    let all: Vec<&MotifInstance> = groups.iter().flat_map(|(_, v)| v).collect();
    assert_eq!(all.len(), 1);
    let inst = all[0];
    // Fig. 4(a): e1 <- {(10,10)}, e2 <- {(13,5),(15,7)}, e3 <- {(18,20)}.
    assert_eq!(inst.flow, 10.0);
    assert_eq!(inst.edge_sets[1].len(), 2, "both u1->u2 transfers aggregate");
    assert_eq!((inst.first_time, inst.last_time), (10, 18));
}

#[test]
fn fig7_walkthrough_all_algorithms_agree() {
    // The Fig. 7 structural match as a standalone graph.
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

    // Table 2: top-1 flow in the match is 5 (δ=10, ϕ=0). All three
    // search variants agree.
    let motif = catalog::by_name("M(3,3)", 10, 0.0).unwrap();
    let (ranked, _) = Query::new(&motif).top_k(&g, 1);
    assert_eq!(ranked[0].instance.flow, 5.0);
    let flow =
        Query::new(&motif).top1(&g, &mut SearchScratch::default()).0.map_or(0.0, |(_, i)| i.flow);
    assert_eq!(flow, 5.0);
    let (groups, _) = Query::new(&motif).collect(&g);
    let max = groups.iter().flat_map(|(_, v)| v.iter().map(|i| i.flow)).fold(0.0f64, f64::max);
    assert_eq!(max, 5.0);

    // ϕ=5 leaves exactly the paper's surviving instance.
    let strict = catalog::by_name("M(3,3)", 10, 5.0).unwrap();
    let (n, _) = Query::new(&strict).count(&g);
    assert_eq!(n, 1);
    // The join baseline sees the same world.
    let (joined, _) = join_enumerate(&g, &strict);
    assert_eq!(joined.len(), 1);
    assert_eq!(joined[0].1.flow, 5.0);
}

#[test]
fn facade_prelude_is_complete_for_the_readme_flow() {
    // Everything the README quickstart needs is reachable via the prelude.
    let g = Dataset::Passenger.generate(0.05, 1);
    let motif = catalog::by_name("M(3,2)", 900, 2.0).unwrap();
    let (n, _) = Query::new(&motif).count(&g);
    let (n_par, _) =
        Query { par: Some(ParOptions::with_threads(2)), ..Query::new(&motif) }.count(&g);
    assert_eq!(n, n_par);
    let stats = GraphStats::of(&g);
    assert!(stats.num_nodes > 0);
}
