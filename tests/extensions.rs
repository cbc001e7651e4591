//! Integration tests for the extensions beyond the paper's fixed catalog
//! exposed through the facade: the walk-shape census and the per-match
//! activity analytics.

use flowmotif::graph::io::write_edge_list;
use flowmotif::prelude::*;

fn census<G: GraphStore + Sync>(g: &G, edges: usize, threads: usize) -> Vec<CensusRow> {
    walk_census(g, edges, 600, 5.0, SearchOptions::default(), ParOptions::with_threads(threads))
        .unwrap()
}

#[test]
fn census_totals_are_consistent_with_direct_counts() {
    let g = Dataset::Bitcoin.generate(0.2, 9);
    let rows = census(&g, 2, 1);
    assert_eq!(rows.len(), 2); // 0-1-2 and 0-1-0
    for row in &rows {
        let motif = Motif::new(row.shape.clone(), 600, 5.0).unwrap();
        let (direct, _) = Query::new(&motif).count(&g);
        assert_eq!(direct, row.instances, "{}", row.shape);
        assert_eq!(count_structural_matches(&g, &row.shape), row.structural_matches);
    }
}

/// One census row: shape, instances, structural matches.
type Row = (&'static str, u64, u64);

/// The census rows of the `Bitcoin.generate(0.2, 9)` graph at δ=600,
/// ϕ=5 for 2, 3 and 4 edges, in row order, as the shared-prefix search
/// this census once ran on reported them.
const GOLDEN_CENSUS: [(usize, &[Row]); 3] = [
    (2, &[("0-1-2", 252, 3562), ("0-1-0", 0, 6)]),
    (3, &[("0-1-2-3", 84, 12947), ("0-1-2-0", 4, 783), ("0-1-0-2", 0, 86), ("0-1-2-1", 0, 76)]),
    (
        4,
        &[
            ("0-1-2-3-4", 16, 45066),
            ("0-1-2-3-1", 2, 2844),
            ("0-1-2-0-3", 1, 2871),
            ("0-1-0-2-0", 0, 4),
            ("0-1-0-2-1", 0, 10),
            ("0-1-0-2-3", 0, 321),
            ("0-1-2-0-2", 0, 10),
            ("0-1-2-1-0", 0, 4),
            ("0-1-2-1-3", 0, 1400),
            ("0-1-2-3-0", 0, 180),
            ("0-1-2-3-2", 0, 282),
        ],
    ),
];

#[test]
fn census_rows_match_the_golden_counts_on_heap_and_segment() {
    // The segment is built from the edge list, as the CLI builds it.
    let g = Dataset::Bitcoin.generate(0.2, 9);
    let mut text = Vec::new();
    write_edge_list(&Dataset::Bitcoin.generate_multigraph(0.2, 9), &mut text).unwrap();
    let seg = SegmentStore::from_edge_list(&text[..]).unwrap();
    for (edges, want) in GOLDEN_CENSUS {
        for threads in [1, 2] {
            for (backend, rows) in
                [("heap", census(&g, edges, threads)), ("segment", census(&seg, edges, threads))]
            {
                let got: Vec<_> = rows
                    .iter()
                    .map(|r| (r.shape.to_string(), r.instances, r.structural_matches))
                    .collect();
                let want: Vec<_> = want.iter().map(|&(s, i, m)| (s.to_string(), i, m)).collect();
                assert_eq!(got, want, "{edges} edges, {backend}, {threads} threads");
            }
        }
    }
}

#[test]
fn activity_analytics_cover_all_instances() {
    let g = Dataset::Facebook.generate(0.2, 5);
    let m = catalog::by_name("M(3,2)", 600, 3.0).unwrap();
    let acts = per_match_activity(&g, &m);
    let total: u64 = acts.iter().map(|a| a.instances).sum();
    assert_eq!(total, Query::new(&m).count(&g).0);
    // Sorted by activity.
    for w in acts.windows(2) {
        assert!(w[0].instances >= w[1].instances);
    }
    // Per-match top-1 flows are bounded by the global top-1.
    let tops = per_match_top1(&g, &m);
    let global =
        Query::new(&m).top1(&g, &mut SearchScratch::default()).0.map_or(0.0, |(_, i)| i.flow);
    assert!(tops.iter().all(|(_, f)| *f <= global + 1e-9));
    assert_eq!(tops.first().map(|(_, f)| *f), Some(global));
}
