//! The allocation gate: proves the steady-state P1→P2 pipeline is
//! allocation-free.
//!
//! The whole bench binary runs under a counting global allocator. Each
//! gated benchmark warms its [`SearchScratch`] (and, for top-k, the
//! sink's recycle pool) with one untimed run, then **panics** if any
//! subsequent iteration performs a single heap allocation — so `cargo
//! bench` (and therefore the CI bench-regression stage) fails the moment
//! a per-match allocation sneaks back into the hot path. The measured
//! wall times feed the ordinary regression gate via
//! `FLOWMOTIF_BENCH_JSON` like every other bench.
//!
//! Both the unbounded and the window-bounded (active-index) paths are
//! gated, for `enumerate` (counting sink) and `top_k`.

use flowmotif_bench::{allocations, micro, BenchGroup, CountingAllocator, ExpContext};
use flowmotif_core::enumerate::{CountSink, SearchOptions};
use flowmotif_core::topk::TopKSink;
use flowmotif_core::{AtomicTrace, Query, SearchScratch};
use flowmotif_datasets::Dataset;
use flowmotif_graph::TimeWindow;
use flowmotif_stream::StandingQueries;
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const SCALE: f64 = 0.25;

/// Runs `f` once as warm-up, then registers it as a benchmark that
/// asserts zero allocations on every timed (and warm-up) iteration.
fn gate<T>(group: &mut BenchGroup, id: &str, mut f: impl FnMut() -> T) {
    f(); // warm the scratch capacities outside the gate
    let mut checked = 0u64;
    group.bench(id.to_string(), move || {
        let before = allocations();
        let out = black_box(f());
        let after = allocations();
        checked += 1;
        assert_eq!(
            after - before,
            0,
            "alloc gate: `{id}` allocated {} time(s) on post-warm-up iteration {checked} — \
             the steady-state search path must not touch the heap",
            after - before,
        );
        out
    });
}

fn main() {
    let ctx = ExpContext::new(SCALE, 42);
    let mut group = BenchGroup::new("alloc_profile");
    group.measurement_time(std::time::Duration::from_secs(1));
    let d = Dataset::Facebook;
    let g = ctx.graph(d);
    let motif = ctx.motifs(d)[0].clone(); // M(3,2) at default δ/ϕ
    let (lo, hi) = g.time_span().expect("non-empty dataset");
    let mid = lo + (hi - lo) / 2;
    let window = TimeWindow::new(mid, mid + (hi - lo) / 4);
    let opts = SearchOptions::default();

    // Context for the gate: matches per pass (printed, not asserted).
    let (_, stats) = Query::new(&motif).count(&g);
    println!(
        "alloc_profile: {} structural matches / {} instances per unbounded pass",
        stats.structural_matches, stats.instances_emitted
    );
    micro::header();

    {
        let mut scratch = SearchScratch::default();
        let (g, motif) = (&g, &motif);
        gate(&mut group, "enumerate/unbounded", move || {
            let mut sink = CountSink::default();
            Query { opts, ..Query::new(motif) }.run(g, &mut sink, &mut scratch);
            sink.count
        });
    }
    {
        let mut scratch = SearchScratch::default();
        let (g, motif) = (&g, &motif);
        gate(&mut group, "enumerate/windowed_indexed", move || {
            let mut sink = CountSink::default();
            Query { bounds: Some(window), opts, ..Query::new(motif) }.run(
                g,
                &mut sink,
                &mut scratch,
            );
            sink.count
        });
    }
    {
        // Stage tracing records into a pre-leaked `AtomicTrace` — pure
        // atomics, so even the *traced* search path must stay off the
        // heap (the untraced path is already covered by the gates
        // above, which run with `SearchOptions::default()`, i.e. the
        // instrumented code with the sink compiled out to `None`).
        let trace: &'static AtomicTrace = Box::leak(Box::new(AtomicTrace::new()));
        let traced = SearchOptions { trace: Some(trace), ..opts };
        let mut scratch = SearchScratch::default();
        let (g, motif) = (&g, &motif);
        gate(&mut group, "enumerate/windowed_traced", move || {
            trace.reset();
            let mut sink = CountSink::default();
            Query { bounds: Some(window), opts: traced, ..Query::new(motif) }.run(
                g,
                &mut sink,
                &mut scratch,
            );
            sink.count
        });
    }
    {
        // Standing-query quiet path: an append that changes no standing
        // result set must not touch the heap — the per-append hot loop
        // behind the serve `subscribe` verb. Re-delivering the last
        // event of a pair the graph already contains is exactly that:
        // the anchored rescan runs, finds every instance already
        // stored, and emits nothing.
        let mut subs = StandingQueries::new();
        let (g, motif) = (&g, &motif);
        let id = subs.subscribe(g, motif.clone(), None);
        let (u, v) = g.pair(0);
        let t = g.series(0).last_time().expect("pair 0 has events");
        let mut out = Vec::with_capacity(4);
        gate(&mut group, "delta/quiet_append", move || {
            subs.on_append(g, u, v, t, &mut out);
            assert!(out.is_empty(), "the re-delivered event must be quiet");
            subs.get(id).unwrap().num_instances()
        });
    }
    {
        // Top-k steady state: `reset` parks the previous search's entries
        // in the sink's recycle pool, so every accept after the warm-up
        // run refills a pooled entry in place.
        let mut scratch = SearchScratch::default();
        let mut sink = TopKSink::new(10);
        let (g, motif) = (&g, &motif);
        gate(&mut group, "top_k/unbounded_k10", move || {
            sink.reset();
            Query { opts, ..Query::new(motif) }.run(g, &mut sink, &mut scratch);
            sink.kth_flow()
        });
    }
    group.finish();
}
