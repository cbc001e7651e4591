//! Analysis helpers built on the search primitives — the extensibility
//! use-cases the paper sketches:
//!
//! * §5.1: "find the top-1 instance for each structural match … to
//!   compare the sets of entities based on their max-flow interactions";
//! * §5.1: "find the top-1 instance for each position of the sliding
//!   time window … to compare the volume of interactions at different
//!   periods of time";
//! * §7 future work: "group the motif instances per structural match, in
//!   order to identify the structural matches with the largest activity
//!   and how this activity is spread along the timeline".

use crate::dp::{dp_table, DpStats};
use crate::enumerate::FnSink;
use crate::instance::{InstanceView, StructuralMatch};
use crate::matcher::P1Driver;
use crate::motif::Motif;
use crate::query::Query;
use crate::scratch::SearchScratch;
use flowmotif_graph::{Flow, GraphStore, SeriesRef, TimeWindow, Timestamp};

/// Activity summary of one structural match (one row of the "which
/// vertex groups are most active" analysis).
#[derive(Debug, Clone, PartialEq)]
pub struct MatchActivity {
    /// The match (vertex group) itself.
    pub structural_match: StructuralMatch,
    /// Number of maximal instances inside this match.
    pub instances: u64,
    /// Maximum instance flow (`0` when no instances exist).
    pub max_flow: Flow,
    /// Sum of instance flows — a volume indicator.
    pub total_flow: Flow,
    /// Time of the earliest instance start, if any.
    pub first_activity: Option<Timestamp>,
    /// Time of the latest instance end, if any.
    pub last_activity: Option<Timestamp>,
}

flowmotif_util::impl_to_json!(MatchActivity {
    structural_match,
    instances,
    max_flow,
    total_flow,
    first_activity,
    last_activity,
});

/// Groups all maximal instances per structural match and summarises each
/// group, sorted by instance count (most active first). Matches without
/// instances are omitted.
pub fn per_match_activity<G: GraphStore>(g: &G, motif: &Motif) -> Vec<MatchActivity> {
    let mut out: Vec<MatchActivity> = Vec::new();
    // A match's instances arrive together, so each opens or extends the
    // last row.
    let mut sink = FnSink(|sm: &StructuralMatch, i: InstanceView<'_>| {
        if out.last().is_none_or(|a| a.structural_match != *sm) {
            out.push(MatchActivity {
                structural_match: sm.clone(),
                instances: 0,
                max_flow: 0.0,
                total_flow: 0.0,
                first_activity: None,
                last_activity: None,
            });
        }
        let a = out.last_mut().expect("a row for this match");
        a.instances += 1;
        a.max_flow = a.max_flow.max(i.flow);
        a.total_flow += i.flow;
        a.first_activity =
            Some(a.first_activity.map_or(i.first_time, |t: Timestamp| t.min(i.first_time)));
        a.last_activity =
            Some(a.last_activity.map_or(i.last_time, |t: Timestamp| t.max(i.last_time)));
    });
    Query::new(motif).run(g, &mut sink, &mut SearchScratch::default());
    out.sort_by(|a, b| {
        b.instances.cmp(&a.instances).then_with(|| b.total_flow.total_cmp(&a.total_flow))
    });
    out
}

/// One point of the per-window top-1 series: the best instance flow of
/// any window anchored in `[bucket_start, bucket_start + bucket)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowActivity {
    /// Start of the time bucket.
    pub bucket_start: Timestamp,
    /// Best top-1 flow across the match's windows anchored in the bucket
    /// (`0` when no instance exists there).
    pub max_flow: Flow,
    /// Number of windows evaluated in the bucket.
    pub windows: u32,
}

flowmotif_util::impl_to_json!(WindowActivity { bucket_start, max_flow, windows });

/// The "top-1 per sliding-window position" analysis for one structural
/// match, aggregated into time buckets of width `bucket` for plotting.
/// Uses the DP module per window (Algorithm 2).
pub fn window_top1_series<G: GraphStore>(
    g: &G,
    motif: &Motif,
    sm: &StructuralMatch,
    bucket: Timestamp,
) -> Vec<WindowActivity> {
    assert!(bucket > 0, "bucket width must be positive");
    let series: Vec<SeriesRef<'_>> = sm.pairs.iter().map(|&p| g.series(p)).collect();
    if series.iter().any(|s| s.is_empty()) {
        return Vec::new();
    }
    let e1 = series[0];
    let mut stats = DpStats::default();
    let mut out: Vec<WindowActivity> = Vec::new();
    for a_idx in 0..e1.len() {
        let anchor = e1.time(a_idx);
        let w = TimeWindow::anchored(anchor, motif.delta());
        let table = dp_table(&series, w, &mut stats);
        let flow = table.top_flow();
        let bucket_start = anchor.div_euclid(bucket) * bucket;
        match out.last_mut() {
            Some(last) if last.bucket_start == bucket_start => {
                last.max_flow = last.max_flow.max(flow);
                last.windows += 1;
            }
            _ => out.push(WindowActivity { bucket_start, max_flow: flow, windows: 1 }),
        }
    }
    out
}

/// §5.1's per-match top-1 comparison: the best instance flow of every
/// structural match, sorted descending (matches without instances report
/// flow 0 and are omitted).
pub fn per_match_top1<G: GraphStore>(g: &G, motif: &Motif) -> Vec<(StructuralMatch, Flow)> {
    let mut stats = DpStats::default();
    let mut out = Vec::new();
    P1Driver::new(motif.path()).for_each(g, &mut |sm| {
        if let Some(inst) = crate::dp::dp_top1_in_match(g, motif, sm, &mut stats) {
            out.push((sm.clone(), inst.flow));
        }
    });
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use flowmotif_graph::{GraphBuilder, TimeSeriesGraph};

    /// Two chains: a "hot" one with three bursts and a "cold" one with a
    /// single burst.
    fn two_chain_graph() -> TimeSeriesGraph {
        let mut b = GraphBuilder::new();
        for t0 in [0i64, 100, 200] {
            b.add_interaction(0, 1, t0, 5.0);
            b.add_interaction(1, 2, t0 + 2, 6.0);
        }
        b.add_interaction(10, 11, 50, 9.0);
        b.add_interaction(11, 12, 53, 4.0);
        b.build_time_series_graph()
    }

    #[test]
    fn activity_ranks_hot_match_first() {
        let g = two_chain_graph();
        let motif = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        let acts = per_match_activity(&g, &motif);
        assert_eq!(acts.len(), 2);
        assert_eq!(acts[0].structural_match.walk_nodes(&g), vec![0, 1, 2]);
        assert_eq!(acts[0].instances, 3);
        assert_eq!(acts[0].max_flow, 5.0);
        assert_eq!(acts[0].total_flow, 15.0);
        assert_eq!(acts[0].first_activity, Some(0));
        assert_eq!(acts[0].last_activity, Some(202));
        assert_eq!(acts[1].instances, 1);
        assert_eq!(acts[1].max_flow, 4.0);
    }

    #[test]
    fn activity_counts_match_global_count() {
        let g = two_chain_graph();
        let motif = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        let total: u64 = per_match_activity(&g, &motif).iter().map(|a| a.instances).sum();
        assert_eq!(total, Query::new(&motif).count(&g).0);
    }

    #[test]
    fn window_series_shows_bursts() {
        let g = two_chain_graph();
        let motif = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        let sm = StructuralMatch {
            nodes: vec![0, 1, 2],
            pairs: vec![g.pair_id(0, 1).unwrap(), g.pair_id(1, 2).unwrap()],
        };
        let series = window_top1_series(&g, &motif, &sm, 100);
        assert_eq!(series.len(), 3, "one bucket per burst");
        assert!(series.iter().all(|w| w.max_flow == 5.0));
        assert_eq!(series[0].bucket_start, 0);
        assert_eq!(series[2].bucket_start, 200);
    }

    #[test]
    fn per_match_top1_sorted() {
        let g = two_chain_graph();
        let motif = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        let tops = per_match_top1(&g, &motif);
        assert_eq!(tops.len(), 2);
        assert!(tops[0].1 >= tops[1].1);
        assert_eq!(tops[0].1, 5.0);
        assert_eq!(tops[1].1, 4.0);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_bucket_panics() {
        let g = two_chain_graph();
        let motif = catalog::by_name("M(3,2)", 10, 0.0).unwrap();
        let sm = StructuralMatch {
            nodes: vec![0, 1, 2],
            pairs: vec![g.pair_id(0, 1).unwrap(), g.pair_id(1, 2).unwrap()],
        };
        window_top1_series(&g, &motif, &sm, 0);
    }
}
