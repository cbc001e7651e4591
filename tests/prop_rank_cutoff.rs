//! Randomized equivalence suite for the cutoff passes of the ranking
//! searches (`flowmotif_core::cutoff`): `Query::top_k`, sequential and
//! parallel, and `Query::top1` run the search under a phase-P1
//! pair-flow floor, and must return exactly what the search without a
//! floor returns.
//!
//! The graphs hold up to about 1,200 pairs, enough for the first cutoff
//! (the `64·k`-th heaviest pair) to be finite for most `k`, and draw
//! flows where f64 arithmetic is inexact: non-dyadic multiples of 0.1,
//! log-uniform magnitudes from 1e-3 to 1e6, and a few repeated values
//! for ties. Each case runs on the heap graph and on the same edge list
//! built into a segment. The suite also checks that every exit of the
//! pass schedule is taken: exact on the first pass, the refine pass at
//! the k-th flow, and the geometric fallback.
//!
//! Each case also runs through a `RankingImage`, which builds the image
//! of only the pairs a pass's floor admits and rebuilds it when a later
//! floor is lower: its answers (with pair ids mapped back to the full
//! segment's), stats and passes must equal the full segment's, its
//! last image must hold exactly the pairs the last floor admits, and
//! between them the cases must rebuild and fall back to the full image.

mod common;

use common::{case_rng, pick, random_flow};
use flowmotif::core::dp::{dp_best_window_in_match, dp_top1_in_match};
use flowmotif::core::dp::{DpScratch, DpStats};
use flowmotif::core::topk::rank_order;
use flowmotif::core::{AtomicTrace, PassRecord};
use flowmotif::graph::io::read_edge_list;
use flowmotif::graph::RankingImage;
use flowmotif::prelude::*;
use flowmotif_util::rng::{RngExt, StdRng};

const CASES: u64 = 32;

/// The edge list of one case: several hundred random pairs carrying one
/// to five interactions each, so pair totals exceed the flows of the
/// instances inside them (flows printed in their shortest round-trip
/// form, so both backends read the same bits).
fn random_edge_list(rng: &mut StdRng) -> String {
    let nodes = rng.random_range(100..250u32);
    let pairs = rng.random_range(500..1200usize);
    let mut text = String::from("# from to time flow\n");
    for _ in 0..pairs {
        let u = rng.random_range(0..nodes);
        let v = rng.random_range(0..nodes);
        if u != v {
            for _ in 0..rng.random_range(1..=5u32) {
                let t = rng.random_range(0i64..2000);
                text.push_str(&format!("{u} {v} {t} {}\n", random_flow(rng)));
            }
        }
    }
    text
}

/// The first `k` instances of the full enumeration in rank order.
fn sorted_head<G: GraphStore + Sync>(
    g: &G,
    motif: &Motif,
    k: usize,
) -> Vec<(StructuralMatch, MotifInstance)> {
    let (groups, _) = Query::new(motif).collect(g);
    let mut all: Vec<_> = groups
        .into_iter()
        .flat_map(|(sm, v)| v.into_iter().map(move |i| (sm.clone(), i)))
        .collect();
    all.sort_by(|a, b| rank_order(&a.1, &b.1));
    all.truncate(k);
    all
}

/// Top-1 without a floor: the DP's best window of every match in P1
/// order, keeping the first match that reaches the largest flow, and
/// that match's witness.
fn reference_top1<G: GraphStore>(g: &G, motif: &Motif) -> Option<(StructuralMatch, MotifInstance)> {
    let (mut scratch, mut stats) = (DpScratch::default(), DpStats::default());
    let mut best: Option<(Flow, StructuralMatch)> = None;
    P1Driver::new(motif.path()).for_each(g, &mut |sm| {
        let found = dp_best_window_in_match(g, motif, sm, 0.0, &mut scratch, &mut stats);
        if let Some((f, _)) = found {
            if best.as_ref().is_none_or(|(b, _)| f > *b) {
                best = Some((f, sm.clone()));
            }
        }
    });
    let (_, sm) = best?;
    let inst = dp_top1_in_match(g, motif, &sm, &mut stats).expect("the winner has an instance");
    Some((sm, inst))
}

/// Which exits of the pass schedule a search took.
#[derive(Debug, Default)]
struct Exits {
    exact_first: bool,
    refine: bool,
    fallback: bool,
}

impl Exits {
    /// Classifies one search's passes: a single pass with a finite
    /// cutoff above the lower bound is exact on the first pass; a pass
    /// after one that found `k` results is the refine pass; a pass that
    /// found fewer than `k` and is followed by another fell back.
    fn record(&mut self, passes: &[PassRecord], k: u64, lower: Flow) {
        let first = passes.first().expect("at least one pass");
        if passes.len() == 1 && first.cutoff.is_finite() && first.cutoff > lower {
            self.exact_first = true;
        }
        for w in passes.windows(2) {
            if w[0].instances >= k {
                self.refine = true;
            } else {
                self.fallback = true;
            }
        }
    }
}

fn traced() -> (&'static AtomicTrace, SearchOptions) {
    let trace: &'static AtomicTrace = Box::leak(Box::new(AtomicTrace::new()));
    (trace, SearchOptions { trace: Some(trace), ..SearchOptions::default() })
}

/// Checks one backend against the oracles; records the exits taken.
fn check<G: GraphStore + Sync>(
    g: &G,
    motif: &Motif,
    k: usize,
    label: &str,
    topk_exits: &mut Exits,
    top1_exits: &mut Exits,
) {
    let want = sorted_head(g, motif, k);
    let (ranked, _) = Query::new(motif).top_k(g, k);
    let got: Vec<_> = ranked.into_iter().map(|r| (r.structural_match, r.instance)).collect();
    assert_eq!(got, want, "{label}: top_k");
    for threads in [1, 2] {
        let (trace, opts) = traced();
        let par = Some(ParOptions::with_threads(threads));
        let (ranked, _) = Query { opts, par, ..Query::new(motif) }.top_k(g, k);
        let got: Vec<_> = ranked.into_iter().map(|r| (r.structural_match, r.instance)).collect();
        assert_eq!(got, want, "{label}: par_top_k at {threads} threads");
        topk_exits.record(&trace.passes(), k as u64, motif.phi());
    }

    let (trace, opts) = traced();
    let (best, _) = Query { opts, ..Query::new(motif) }.top1(g, &mut SearchScratch::default());
    let reference = reference_top1(g, motif);
    match (&best, &reference) {
        (Some((sm, inst)), Some((rsm, rinst))) => {
            assert_eq!(inst.flow.to_bits(), rinst.flow.to_bits(), "{label}: top-1 flow");
            assert_eq!((sm, inst), (rsm, rinst), "{label}: top-1 witness");
        }
        _ => assert_eq!(best, reference, "{label}: top-1"),
    }
    top1_exits.record(&trace.passes(), 1, 0.0);
}

/// Which exits the ranking-image runs took, beyond those of [`Exits`].
#[derive(Debug, Default)]
struct ImageExits {
    passes: Exits,
    /// A later pass lowered the floor below the image and rebuilt it.
    rebuild: bool,
    /// The last pass ran without a floor, on the full image.
    full_image: bool,
}

impl ImageExits {
    /// Records one search on `image` and checks that its last image
    /// holds exactly the pairs the last pass's floor admits.
    fn record(
        &mut self,
        image: &RankingImage,
        passes: &[PassRecord],
        k: u64,
        lower: Flow,
        label: &str,
    ) {
        self.passes.record(passes, k, lower);
        let last = passes.last().expect("at least one pass").cutoff;
        let admitted = image.totals().iter().filter(|&&t| t >= last).count();
        assert_eq!(image.image().unwrap().num_pairs(), admitted, "{label}: last image");
        assert_eq!(image.full_pair_ids().len(), admitted, "{label}: pair-id table");
        self.rebuild |= image.images_built() > 1;
        if last == Flow::NEG_INFINITY {
            assert_eq!(admitted, image.num_pairs(), "{label}: no floor, every pair");
            self.full_image = true;
        }
    }
}

/// `m` with the full segment's pair ids of an image's pairs.
fn full_ids_match(m: &StructuralMatch, ids: &[PairId]) -> StructuralMatch {
    let pairs = m.pairs.iter().map(|&p| ids[p as usize]).collect();
    StructuralMatch { nodes: m.nodes.clone(), pairs }
}

/// `inst` with the full segment's pair ids of an image's pairs.
fn full_ids_instance(inst: &MotifInstance, ids: &[PairId]) -> MotifInstance {
    let mut inst = inst.clone();
    for es in &mut inst.edge_sets {
        es.pair = ids[es.pair as usize];
    }
    inst
}

/// Runs the ranking searches of one case through a `RankingImage` of
/// `text` and compares answers, stats and passes with the full segment
/// `seg` of the same text.
fn check_ranking_image(
    text: &str,
    seg: &SegmentStore,
    motif: &Motif,
    k: usize,
    label: &str,
    topk_exits: &mut ImageExits,
    top1_exits: &mut ImageExits,
) {
    let fresh = || RankingImage::from_edge_list(text.as_bytes()).unwrap();
    let totals: Vec<u64> = fresh().totals().iter().map(|t| t.to_bits()).collect();
    let series: Vec<u64> =
        (0..seg.num_pairs() as PairId).map(|p| seg.series(p).total_flow().to_bits()).collect();
    assert_eq!(totals, series, "{label}: image totals are the series totals");

    for par in [None, Some(ParOptions::with_threads(1)), Some(ParOptions::with_threads(2))] {
        let (trace, opts) = traced();
        let (want, want_stats) = Query { opts, par, ..Query::new(motif) }.top_k(seg, k);
        let want_passes = trace.passes();
        let (trace, opts) = traced();
        let mut image = fresh();
        let (got, stats) = Query { opts, par, ..Query::new(motif) }.top_k(&mut image, k);
        let ids = image.full_pair_ids();
        let got: Vec<_> = got
            .iter()
            .map(|r| {
                (full_ids_match(&r.structural_match, ids), full_ids_instance(&r.instance, ids))
            })
            .collect();
        let want: Vec<_> = want.into_iter().map(|r| (r.structural_match, r.instance)).collect();
        assert_eq!(got, want, "{label}: image top_k {par:?}");
        assert_eq!(trace.passes(), want_passes, "{label}: image top_k passes {par:?}");
        // Two workers steal tasks in a schedule-dependent order, and the
        // pruning of their local top-k with it.
        if par.is_none_or(|p| p.threads == 1) {
            assert_eq!(stats, want_stats, "{label}: image top_k stats {par:?}");
        }
        topk_exits.record(&image, &trace.passes(), k as u64, motif.phi(), label);
    }

    let (trace, opts) = traced();
    let q = Query { opts, ..Query::new(motif) };
    let (want, want_stats) = q.top1(seg, &mut SearchScratch::default());
    let want_passes = trace.passes();
    let (trace, opts) = traced();
    let mut image = fresh();
    let (got, stats) =
        Query { opts, ..Query::new(motif) }.top1(&mut image, &mut SearchScratch::default());
    let ids = image.full_pair_ids();
    let got = got.map(|(sm, inst)| (full_ids_match(&sm, ids), full_ids_instance(&inst, ids)));
    if let (Some((_, a)), Some((_, b))) = (&got, &want) {
        assert_eq!(a.flow.to_bits(), b.flow.to_bits(), "{label}: image top-1 flow");
    }
    assert_eq!(got, want, "{label}: image top-1 witness");
    assert_eq!(stats, want_stats, "{label}: image top-1 stats");
    assert_eq!(trace.passes(), want_passes, "{label}: image top-1 passes");
    top1_exits.record(&image, &trace.passes(), 1, 0.0, label);
}

/// `top_k`, `par_top_k` (1 and 2 threads) and `dp_top1` equal their
/// oracles instance for instance on both backends and on a ranking
/// image, and between them the cases take every exit of the pass
/// schedule and of the image's rebuilds.
#[test]
fn cutoff_passes_equal_the_search_without_a_floor() {
    let (mut topk_exits, mut top1_exits) = (Exits::default(), Exits::default());
    let (mut topk_image, mut top1_image) = (ImageExits::default(), ImageExits::default());
    for case in 0..CASES {
        let mut rng = case_rng(0x16, case);
        let text = random_edge_list(&mut rng);
        let name = *pick(&mut rng, &["M(3,2)", "M(3,2)", "M(3,3)", "M(4,3)"]);
        let delta = *pick(&mut rng, &[20i64, 150, 600, 2000]);
        let phi = if rng.random_bool(0.25) { random_flow(&mut rng) } else { 0.0 };
        let k = rng.random_range(1usize..=12);
        let motif = catalog::by_name(name, delta, phi).unwrap();

        let heap = read_edge_list(text.as_bytes()).unwrap().build_time_series_graph();
        let seg = SegmentStore::from_edge_list(text.as_bytes()).unwrap();
        assert!(heap.num_pairs() > 64, "case {case}: too few pairs for a finite cutoff");
        let label = format!("case {case}: {name} δ={delta} ϕ={phi} k={k}");
        check(&heap, &motif, k, &format!("{label} heap"), &mut topk_exits, &mut top1_exits);
        check(&seg, &motif, k, &format!("{label} segment"), &mut topk_exits, &mut top1_exits);
        let label = format!("{label} ranking image");
        check_ranking_image(&text, &seg, &motif, k, &label, &mut topk_image, &mut top1_image);
    }
    for (search, exits) in [("top-k", &topk_exits), ("top-1", &top1_exits)] {
        assert!(exits.exact_first, "no {search} case was exact on the first pass: {exits:?}");
        assert!(exits.refine, "no {search} case ran the refine pass: {exits:?}");
        assert!(exits.fallback, "no {search} case fell back to a lower cutoff: {exits:?}");
    }
    for (search, exits) in [("top-k", &topk_image), ("top-1", &top1_image)] {
        let passes = &exits.passes;
        assert!(passes.exact_first, "no {search} image case was exact at once: {exits:?}");
        assert!(passes.refine, "no {search} image case ran the refine pass: {exits:?}");
        assert!(passes.fallback, "no {search} image case fell back: {exits:?}");
        assert!(exits.rebuild, "no {search} image case rebuilt its image: {exits:?}");
        assert!(exits.full_image, "no {search} image case built the full image: {exits:?}");
    }
}

/// An instance whose flow equals the cutoff, through a pair whose total
/// equals it too, must survive the first pass: here it outranks (by its
/// edge sets) the only other instance of that flow, and the first pass
/// is exact, so a floor that dropped pairs *at* the cutoff would return
/// the other one.
#[test]
fn a_tie_at_the_cutoff_survives_the_floor() {
    let mut text = String::new();
    // The winner, 0 -> 1 -> 2: flow min(7, 12) = 7; pair (0, 1) totals 7.
    text.push_str("0 1 10 7\n1 2 20 12\n");
    // The runner-up, 3 -> 4 -> 5 at δ = 150: flow 7 from the element at
    // t = 100; its pairs total 8.
    text.push_str("3 4 0 1\n3 4 100 7\n4 5 200 8\n");
    // Isolated pairs: 60 heavier than 7, so pair (0, 1) is the 64th
    // heaviest and sets the first cutoff at k = 1, and 20 light ones.
    for i in 0..80u32 {
        let flow = if i < 60 { 9.0 } else { 0.5 };
        text.push_str(&format!("{} {} 500 {flow}\n", 10 + 2 * i, 11 + 2 * i));
    }
    let g = read_edge_list(text.as_bytes()).unwrap().build_time_series_graph();
    let motif = catalog::by_name("M(3,2)", 150, 0.0).unwrap();
    let want = sorted_head(&g, &motif, 1);
    assert_eq!(want[0].0.walk_nodes(&g), vec![0, 1, 2], "the tie through the cutoff pair wins");
    let (trace, opts) = traced();
    let par = Some(ParOptions::with_threads(1));
    let (ranked, _) = Query { opts, par, ..Query::new(&motif) }.top_k(&g, 1);
    let got: Vec<_> = ranked.into_iter().map(|r| (r.structural_match, r.instance)).collect();
    assert_eq!(got, want);
    let passes = trace.passes();
    assert_eq!((passes.len(), passes[0].cutoff), (1, 7.0), "exact on the first pass: {passes:?}");
    let (best, _) = Query::new(&motif).top1(&g, &mut SearchScratch::default());
    assert_eq!(best, reference_top1(&g, &motif));
    assert_eq!(best.unwrap().0.walk_nodes(&g), vec![0, 1, 2]);
    // A ranking image at the first cutoff must hold the pair tied at
    // it, and the pass on it is the same exact pass.
    let seg = SegmentStore::from_edge_list(text.as_bytes()).unwrap();
    let want = sorted_head(&seg, &motif, 1);
    let mut image = RankingImage::from_edge_list(text.as_bytes()).unwrap();
    let (ranked, _) = Query::new(&motif).top_k(&mut image, 1);
    let ids = image.full_pair_ids();
    let got: Vec<_> = ranked
        .iter()
        .map(|r| (full_ids_match(&r.structural_match, ids), full_ids_instance(&r.instance, ids)))
        .collect();
    assert_eq!(got, want);
    assert_eq!(image.images_built(), 1, "exact on the first image");
    assert_eq!(image.image().unwrap().num_pairs(), 64, "the 64 heaviest pairs, the tie last");
}

/// Counted work, independent of the host: on a Facebook-like graph the
/// passes answer exactly while phase P1 visits only a small share of
/// the structural matches. Measured: 43,533 matches in the graph, 604
/// visited by `top_k` (k = 10) and 22 by `dp_top1`; the bounds leave a
/// 1.5x–2.5x margin. A change that silently disables the floor or the
/// cutoff schedule visits them all and fails.
#[test]
fn cutoff_passes_bound_the_counted_work() {
    const TOPK_MATCHES: u64 = 900;
    const TOP1_MATCHES: u64 = 55;
    let g = Dataset::Facebook.generate(2.0, 1);
    let motif = catalog::by_name("M(3,2)", 600, 0.0).unwrap();
    assert_eq!(count_structural_matches(&g, motif.path()), 43_533);
    let (ranked, stats) = Query::new(&motif).top_k(&g, 10);
    let got: Vec<_> = ranked.into_iter().map(|r| (r.structural_match, r.instance)).collect();
    assert_eq!(got, sorted_head(&g, &motif, 10));
    let (best, dp_stats) = Query::new(&motif).top1(&g, &mut SearchScratch::default());
    assert_eq!(best, reference_top1(&g, &motif));
    assert!(
        stats.structural_matches <= TOPK_MATCHES,
        "top_k visited {} structural matches (bound {TOPK_MATCHES})",
        stats.structural_matches
    );
    assert!(
        dp_stats.structural_matches <= TOP1_MATCHES,
        "dp_top1 visited {} structural matches (bound {TOP1_MATCHES})",
        dp_stats.structural_matches
    );
}
