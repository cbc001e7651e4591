//! Motif census: enumerate *all* canonical walk-shaped motif structures
//! of a given size and count their instances in a graph — the
//! FANMOD-style census (paper §2) transplanted to flow motifs. The ten
//! motifs of Fig. 3 are exactly the census shapes with 2–5 edges whose
//! walks visit 3–5 vertices, so this module also generates the catalog
//! programmatically.

use crate::enumerate::SearchOptions;
use crate::error::MotifError;
use crate::motif::{Motif, MotifNode, SpanningPath};
use crate::parallel::{par_count_instances_with, ParOptions};
use flowmotif_graph::{Flow, GraphStore, Timestamp};

/// The largest census size: beyond 8 edges the number of shapes is
/// combinatorially explosive.
pub const MAX_CENSUS_EDGES: usize = 8;

/// Enumerates every canonical spanning path with exactly `num_edges`
/// edges. Canonical means vertex labels appear in first-appearance order,
/// so each isomorphism class appears exactly once. Fails unless
/// `1 <= num_edges <= MAX_CENSUS_EDGES`.
pub fn all_walk_shapes(num_edges: usize) -> Result<Vec<SpanningPath>, MotifError> {
    if !(1..=MAX_CENSUS_EDGES).contains(&num_edges) {
        return Err(MotifError::CensusSize(num_edges));
    }
    let mut out = Vec::new();
    let mut walk: Vec<MotifNode> = vec![0];
    extend(&mut walk, num_edges, &mut out);
    Ok(out)
}

fn extend(walk: &mut Vec<MotifNode>, remaining: usize, out: &mut Vec<SpanningPath>) {
    if remaining == 0 {
        if let Ok(p) = SpanningPath::new(walk.clone()) {
            out.push(p);
        }
        return;
    }
    // Next vertex: any already-used label or the next fresh one.
    let max_used = *walk.iter().max().expect("non-empty walk");
    for next in 0..=max_used.saturating_add(1) {
        let last = *walk.last().expect("non-empty walk");
        if next == last {
            continue; // self-loop step, invalid anyway
        }
        // Repeated directed pair would be rejected by SpanningPath::new;
        // prune it here to keep the search tight.
        if walk.windows(2).any(|w| w[0] == last && w[1] == next) {
            continue;
        }
        walk.push(next);
        extend(walk, remaining - 1, out);
        walk.pop();
    }
}

/// One census row.
#[derive(Debug, Clone, PartialEq)]
pub struct CensusRow {
    /// The motif shape (canonical walk).
    pub shape: SpanningPath,
    /// Number of maximal instances under the census δ/ϕ.
    pub instances: u64,
    /// Structural matches examined.
    pub structural_matches: u64,
}

flowmotif_util::impl_to_json!(CensusRow { shape, instances, structural_matches });

/// Counts the maximal instances of *every* walk shape with `num_edges`
/// edges in `g`, under a common `δ`/`ϕ`. Each shape runs once through
/// the parallel two-phase search, whose P1 match count fills the
/// `structural_matches` column. Rows are sorted by instance count,
/// descending (ties keep the [`all_walk_shapes`] order). Fails on a size
/// outside `1..=MAX_CENSUS_EDGES` or an invalid `δ`/`ϕ`.
pub fn walk_census<G: GraphStore + Sync>(
    g: &G,
    num_edges: usize,
    delta: Timestamp,
    phi: Flow,
    opts: SearchOptions,
    par: ParOptions,
) -> Result<Vec<CensusRow>, MotifError> {
    let mut rows = Vec::new();
    for shape in all_walk_shapes(num_edges)? {
        let motif = Motif::new(shape.clone(), delta, phi)?;
        let (instances, stats) = par_count_instances_with(g, &motif, opts, par);
        rows.push(CensusRow { shape, instances, structural_matches: stats.structural_matches });
    }
    rows.sort_by_key(|r| std::cmp::Reverse(r.instances));
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CATALOG;
    use flowmotif_graph::GraphBuilder;

    #[test]
    fn shape_counts_for_small_sizes() {
        // m=1: only 0-1.
        assert_eq!(all_walk_shapes(1).unwrap().len(), 1);
        // m=2: 0-1-0 and 0-1-2.
        let s2: Vec<String> = all_walk_shapes(2).unwrap().iter().map(|p| p.to_string()).collect();
        assert_eq!(s2, vec!["0-1-0", "0-1-2"]);
        // m=3: walks of length 3 with unique directed steps.
        let s3: Vec<String> = all_walk_shapes(3).unwrap().iter().map(|p| p.to_string()).collect();
        assert_eq!(s3, vec!["0-1-0-2", "0-1-2-0", "0-1-2-1", "0-1-2-3"]);
    }

    #[test]
    fn shapes_are_unique_and_valid() {
        for m in 1..=5 {
            let shapes = all_walk_shapes(m).unwrap();
            let mut keys: Vec<String> = shapes.iter().map(|p| p.to_string()).collect();
            let n = keys.len();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), n, "m={m}: duplicate shapes");
            for s in &shapes {
                assert_eq!(s.num_edges(), m);
            }
        }
    }

    #[test]
    fn census_contains_the_paper_catalog() {
        // Every Fig. 3 motif appears among the census shapes of its size.
        for (name, walk) in CATALOG {
            let m = walk.len() - 1;
            let shapes = all_walk_shapes(m).unwrap();
            let target = SpanningPath::new(walk.to_vec()).unwrap();
            assert!(shapes.contains(&target), "{name} missing from census of size {m}");
        }
    }

    #[test]
    fn census_counts_on_a_small_graph() {
        let mut b = GraphBuilder::new();
        b.extend_interactions([
            (0u32, 1u32, 1i64, 5.0),
            (1, 2, 2, 5.0),
            (2, 0, 3, 5.0),
            (1, 0, 4, 5.0),
        ]);
        let g = b.build_time_series_graph();
        let rows =
            walk_census(&g, 2, 10, 0.0, SearchOptions::default(), ParOptions::with_threads(1))
                .unwrap();
        // Shapes: 0-1-0 (ping-pong) and 0-1-2 (chain).
        assert_eq!(rows.len(), 2);
        let chain = rows.iter().find(|r| r.shape.to_string() == "0-1-2").unwrap();
        let pingpong = rows.iter().find(|r| r.shape.to_string() == "0-1-0").unwrap();
        // Edges by time: (0,1)@1, (1,2)@2, (2,0)@3, (1,0)@4. The
        // time-respecting chains are 0-1-2 (1 < 2) and 1-2-0 (2 < 3);
        // 2-0-1 fails because (0,1)@1 precedes (2,0)@3.
        assert_eq!(chain.instances, 2);
        // Ping-pong: 0-1-0 via (0,1)@1 then (1,0)@4.
        assert_eq!(pingpong.instances, 1);
        // Rows sorted by count desc.
        assert!(rows[0].instances >= rows[1].instances);
    }

    #[test]
    fn out_of_range_sizes_are_errors() {
        assert_eq!(all_walk_shapes(0), Err(MotifError::CensusSize(0)));
        assert_eq!(all_walk_shapes(MAX_CENSUS_EDGES + 1), Err(MotifError::CensusSize(9)));
        assert!(!all_walk_shapes(MAX_CENSUS_EDGES).unwrap().is_empty());
    }
}
