//! Out-of-core gate: a mapped-segment search must complete inside a
//! heap budget several times smaller than the graph, and produce
//! bit-identical results to the in-memory backend.
//!
//! The bench packs a synthetic edge list whose segment file is at least
//! **4x a heap budget**, arms the counting allocator's hard cap
//! ([`flowmotif_bench::set_heap_budget`]) around the packed search, and
//! panics if the search either allocates past the budget (the allocator
//! fails the allocation outright) or disagrees with the in-memory
//! count/stats. It times the in-memory build of the same edge list into
//! a segment (the load step of an edge-list search) and epoch publishes
//! over the sealed segment: a publish must touch only the delta
//! (`dirty_pairs` == pairs appended since the last publish), never the
//! resident pairs of the base — the two `publish/*` entries feed the
//! regression gate so an accidental O(pairs) publish shows up as a
//! timing cliff.

use flowmotif_bench::CountingAllocator;
use flowmotif_bench::{live_bytes, peak_bytes, reset_peak, set_heap_budget, BenchGroup};
use flowmotif_core::catalog::parse_motif;
use flowmotif_core::enumerate::count_instances;
use flowmotif_graph::io::{load_segment, load_time_series_graph};
use flowmotif_graph::segment::{pack_edge_list, segment_path, DEFAULT_RUN_RECORDS};
use flowmotif_graph::SegmentStore;
use flowmotif_stream::EpochEngine;
use flowmotif_util::{RngExt, SeedableRng, StdRng};
use std::fmt::Write as _;
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Interactions in the synthetic graph: 16 B of event payload each, so
/// the event section alone is ~1.2 MiB.
const EVENTS: usize = 80_000;
const NODES: u32 = 150;
/// Timestamps spread over this range keep the δ-joins sparse.
const TIME_RANGE: i64 = 2_000_000;

fn random_edge_list(rng: &mut StdRng) -> String {
    let mut body = String::with_capacity(EVENTS * 16);
    for _ in 0..EVENTS {
        let u = rng.random_range(0..NODES);
        let mut v = rng.random_range(0..NODES);
        if v == u {
            v = (v + 1) % NODES;
        }
        let t = rng.random_range(0i64..TIME_RANGE);
        let f = rng.random_range(1i64..100) as f64;
        writeln!(body, "{u} {v} {t} {f}").unwrap();
    }
    body
}

struct TempDir(std::path::PathBuf);
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let mut group = BenchGroup::new("out_of_core");
    group.measurement_time(std::time::Duration::from_secs(1));

    let dir =
        TempDir(std::env::temp_dir().join(format!("flowmotif_out_of_core_{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).unwrap();
    let edges = dir.0.join("edges.txt");
    std::fs::write(&edges, random_edge_list(&mut StdRng::seed_from_u64(42))).unwrap();
    pack_edge_list(&edges, &dir.0, DEFAULT_RUN_RECORDS).unwrap();
    let segment_bytes = std::fs::metadata(segment_path(&dir.0)).unwrap().len();
    // The graph must dwarf the budget, or the gate proves nothing.
    let budget = segment_bytes / 4;
    println!(
        "out_of_core: segment {} KiB, heap budget {} KiB (4x smaller)",
        segment_bytes / 1024,
        budget / 1024
    );

    let motif = parse_motif("M(3,2)", 60, 50.0).unwrap();

    // In-memory reference, computed (and dropped) before any budget is
    // armed: ~2 MiB of resident events, far over the budget.
    let (want_count, want_stats) = {
        let mem = load_time_series_graph(&edges).unwrap();
        count_instances(&mem, &motif)
    };

    // The mapped store's heap footprint is its section index, not the
    // data: opening and searching must both fit the budget.
    set_heap_budget(Some(live_bytes() + budget));
    reset_peak();
    let floor = live_bytes();
    let seg = SegmentStore::open(&dir.0).unwrap();
    let (got_count, got_stats) = count_instances(&seg, &motif);
    set_heap_budget(None);
    let high_water = peak_bytes() - floor;
    assert_eq!(
        (got_count, got_stats),
        (want_count, want_stats),
        "packed search diverged from the in-memory backend"
    );
    assert!(
        high_water <= budget,
        "packed open+search grew the heap by {high_water} B, budget is {budget} B"
    );
    println!(
        "out_of_core: packed search matched {want_count} instances, \
         heap high-water {} KiB under {} KiB budget",
        high_water / 1024,
        budget / 1024
    );

    // Prefetch note: a fresh map faulted on demand by P1's random
    // access pattern (one 4 KiB fault per miss) versus a sequential
    // prefetch pass (kernel readahead, large ordered requests) followed
    // by the same search. The CLI's packed open runs `prefetch()`
    // unconditionally. Inside one process the page cache is already
    // warm from packing, so these numbers *understate* the cold-file
    // gap — the note chiefly records that the prefetch pass itself is
    // cheap relative to a single search.
    {
        use std::time::Instant;
        let on_demand = SegmentStore::open(&dir.0).unwrap();
        let t0 = Instant::now();
        black_box(count_instances(&on_demand, &motif));
        let cold_search = t0.elapsed();
        let prefetched = SegmentStore::open(&dir.0).unwrap();
        let t0 = Instant::now();
        let spanned = prefetched.prefetch();
        let prefetch_cost = t0.elapsed();
        let t0 = Instant::now();
        black_box(count_instances(&prefetched, &motif));
        let warm_search = t0.elapsed();
        println!(
            "out_of_core: first search on-demand {cold_search:?}; prefetch ({} KiB) \
             {prefetch_cost:?} + search {warm_search:?}",
            spanned / 1024
        );
    }

    // Timed: the budgeted search, re-armed on every iteration so a heap
    // regression in any layer fails the bench run itself.
    {
        let seg = &seg;
        let motif = &motif;
        group.bench("search/packed_budgeted", move || {
            set_heap_budget(Some(live_bytes() + budget));
            let out = black_box(count_instances(seg, motif));
            set_heap_budget(None);
            assert_eq!(out.0, want_count);
            out.0
        });
    }

    // Timed comparison point: the same search over the heap-resident
    // backend (no budget — it could not hold one).
    {
        let mem = load_time_series_graph(&edges).unwrap();
        let motif = motif.clone();
        group.bench("search/in_memory", move || black_box(count_instances(&mem, &motif).0));
    }

    // Timed: the load step of `find`/`topk`/`top1` on an edge list —
    // parse, sort and build the segment image in memory — on one build
    // thread, then on two (`--threads 2`).
    for (name, threads) in [("load/edge_list_to_segment", 1), ("load/edge_list_to_segment_t2", 2)] {
        let edges = edges.clone();
        group.bench(name, move || black_box(load_segment(&edges, threads).unwrap().image().len()));
    }

    // Epoch publish over the sealed segment: cost must track the delta,
    // not the tens of thousands of resident pairs. Each iteration appends a small batch
    // and publishes; `dirty_pairs` proves only the delta was touched.
    for delta in [16usize, 256] {
        let engine = EpochEngine::open(&dir.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7 + delta as u64);
        let mut t = TIME_RANGE;
        group.bench(format!("publish/delta{delta}"), move || {
            for _ in 0..delta {
                let u = rng.random_range(0..NODES);
                let v = (u + 1 + rng.random_range(0..NODES - 1)) % NODES;
                t += 1;
                engine.append(u, v, t, 1.0).unwrap();
            }
            let epoch = engine.publish();
            let report = engine.publish_report();
            assert!(
                report.dirty_pairs <= delta,
                "publish touched {} pairs for a {delta}-event delta",
                report.dirty_pairs
            );
            epoch
        });
    }

    group.finish();
}
