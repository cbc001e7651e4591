//! Randomized round-trip property suite for the out-of-core tier: an
//! edge list packed through `pack_edge_list` and reopened as a mapped
//! [`SegmentStore`] must be observationally identical to the in-memory
//! [`TimeSeriesGraph`] built from the same list — same topology, same
//! per-pair series, same search results and stats, same active-origin
//! candidates. Also checks that corrupted or truncated segment files
//! are rejected at open time rather than misread.

use flowmotif_core::catalog::parse_motif;
use flowmotif_core::enumerate::count_instances;
use flowmotif_graph::io::{load_segment, load_time_series_graph};
use flowmotif_graph::segment::segment_path;
use flowmotif_graph::{
    pack_edge_list, write_segment, GraphStore, NodeId, SegmentStore, TimeSeriesGraph, TimeWindow,
};
use flowmotif_util::{RngExt, SeedableRng, StdRng};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Temp path guard: removes the file or directory on drop.
struct Temp(PathBuf);
impl Drop for Temp {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn unique_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "flowmotif_prop_{tag}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A random multigraph edge list: `events` interactions over up to
/// `nodes` nodes, timestamps clustered so windows actually overlap,
/// duplicate `(u, v, t)` triples possible (exercises stable ordering).
fn random_edge_list(rng: &mut StdRng, nodes: u32, events: usize) -> String {
    let mut body = String::new();
    for _ in 0..events {
        let u = rng.random_range(0..nodes);
        let mut v = rng.random_range(0..nodes);
        if v == u {
            v = (v + 1) % nodes;
        }
        let t = rng.random_range(0i64..200);
        let f = rng.random_range(1i64..50) as f64;
        writeln!(body, "{u} {v} {t} {f}").unwrap();
    }
    body
}

/// Writes `body` to a temp edge list, builds the in-memory graph, packs
/// it with a deliberately tiny sort buffer (forcing multi-run external
/// merges), and reopens the result through the mmap-backed store.
fn build_both(body: &str, run_records: usize) -> (Temp, Temp, TimeSeriesGraph, SegmentStore) {
    let edges = Temp(unique_path("edges"));
    std::fs::write(&edges.0, body).unwrap();
    let mem = load_time_series_graph(&edges.0).unwrap();
    let dir = Temp(unique_path("seg"));
    let stats = pack_edge_list(&edges.0, &dir.0, run_records).unwrap();
    assert_eq!(stats.interactions as usize, mem.num_interactions());
    assert_eq!(stats.pairs as usize, mem.num_pairs());
    let seg = SegmentStore::open(&dir.0).unwrap();
    (edges, dir, mem, seg)
}

/// Asserts the two stores are observationally identical under the full
/// `GraphStore` surface plus the search pipeline.
fn assert_equivalent(mem: &TimeSeriesGraph, seg: &SegmentStore, rng: &mut StdRng) {
    assert_eq!(mem.num_nodes(), seg.num_nodes());
    assert_eq!(mem.num_pairs(), seg.num_pairs());
    assert_eq!(mem.num_interactions(), seg.num_interactions());
    assert_eq!(mem.time_span(), seg.time_span());

    for p in 0..mem.num_pairs() as u32 {
        assert_eq!(mem.pair(p), seg.pair(p), "pair {p} endpoints diverge");
        assert_eq!(mem.series(p).events(), seg.series(p).events(), "pair {p} series diverge");
    }
    for u in 0..mem.num_nodes() as NodeId {
        // Call through the trait: the inherent `TimeSeriesGraph` methods
        // of the same names have (deliberately) different signatures.
        let deg = GraphStore::out_degree(mem, u);
        assert_eq!(deg, seg.out_degree(u), "degree of {u}");
        for i in 0..deg {
            assert_eq!(GraphStore::out_pair_at(mem, u, i), seg.out_pair_at(u, i));
        }
        assert_eq!(mem.origin_active_span(u), seg.origin_active_span(u));
    }

    // Search results and the instrumentation counters must be
    // bit-identical: the segment path is the same algorithm over a
    // different byte layout, nothing more.
    for spec in ["M(3,2)", "M(3,3)", "M(4,3)", "M(4,4)B"] {
        let motif = parse_motif(spec, 25, 10.0).unwrap();
        let (mem_count, mem_stats) = count_instances(mem, &motif);
        let (seg_count, seg_stats) = count_instances(seg, &motif);
        assert_eq!(mem_count, seg_count, "{spec} instance count diverges");
        assert_eq!(mem_stats, seg_stats, "{spec} search stats diverge");
    }

    // The active-origin index must surface identical candidate sets for
    // arbitrary windows (including empty and out-of-range ones).
    let (mut mem_out, mut seg_out) = (Vec::new(), Vec::new());
    for _ in 0..32 {
        let start = rng.random_range(-20i64..220);
        let len = rng.random_range(0i64..80);
        let w = TimeWindow::new(start, start + len);
        mem.active_origins_in_range(w, 0..NodeId::MAX, &mut mem_out);
        seg.active_origins_in_range(w, 0..NodeId::MAX, &mut seg_out);
        assert_eq!(mem_out, seg_out, "active origins diverge in {w:?}");
    }
}

#[test]
fn randomized_pack_roundtrip_is_observationally_identical() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = rng.random_range(2u32..24);
        let events = rng.random_range(1usize..400);
        let body = random_edge_list(&mut rng, nodes, events);
        // Tiny run buffer: a few hundred events become many sorted runs,
        // exercising the k-way merge rather than the fits-in-one-buffer
        // fast path.
        let (_e, _d, mem, seg) = build_both(&body, 17);
        assert_equivalent(&mem, &seg, &mut rng);
    }
}

/// A random edge list in every form the loader accepts: comment and
/// blank lines, comma and tab separators, CRLF line ends, extra
/// columns, fractional flows, unsorted times and duplicate timestamps
/// within a pair.
fn messy_edge_list(rng: &mut StdRng, nodes: u32, events: usize) -> String {
    let mut body = String::from("# from to time flow\r\n");
    for _ in 0..events {
        let u = rng.random_range(0..nodes);
        let mut v = rng.random_range(0..nodes);
        if v == u {
            v = (v + 1) % nodes;
        }
        let t = rng.random_range(-20i64..60);
        let f = match rng.random_range(0..4) {
            0 => format!("{}.{}", rng.random_range(0..9), rng.random_range(1..99)),
            1 => format!("{}e0", rng.random_range(1..9)),
            _ => rng.random_range(1i64..40).to_string(),
        };
        let sep = [" ", "\t", ",", " , ", "  "][rng.random_range(0..5usize)];
        write!(body, "{u}{sep}{v}{sep}{t}{sep}{f}").unwrap();
        if rng.random_bool(0.1) {
            write!(body, " extra{}", rng.random_range(0..9)).unwrap();
        }
        body.push_str(if rng.random_bool(0.3) { "\r\n" } else { "\n" });
        match rng.random_range(0..20) {
            0 => body.push('\n'),
            1 => body.push_str("% comment\n"),
            2 => body.push_str("   \r\n"),
            _ => {}
        }
    }
    body
}

/// The segment image built in memory from an edge list is byte for byte
/// the `graph.seg` that `pack` writes (at any sort-run size) and that
/// `write_segment` writes from the heap graph, at one build thread and
/// at three, and it searches the same.
#[test]
fn in_memory_image_is_byte_identical_to_pack_and_write_segment() {
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(0x1A6E + seed);
        let nodes = rng.random_range(2u32..30);
        let events = if seed == 0 { 0 } else { rng.random_range(1usize..500) };
        let body = messy_edge_list(&mut rng, nodes, events);
        let edges = Temp(unique_path("messy"));
        std::fs::write(&edges.0, &body).unwrap();

        let built = SegmentStore::from_edge_list(body.as_bytes()).unwrap();
        for threads in [1, 3] {
            let loaded = load_segment(&edges.0, threads).unwrap();
            assert!(loaded.image() == built.image(), "seed {seed}: {threads} threads differ");
        }
        for run_records in [5, 1 << 20] {
            let dir = Temp(unique_path("messy_pack"));
            pack_edge_list(&edges.0, &dir.0, run_records).unwrap();
            let packed = std::fs::read(segment_path(&dir.0)).unwrap();
            assert!(packed == built.image(), "seed {seed}: pack (runs of {run_records}) differs");
        }
        let mem = load_time_series_graph(&edges.0).unwrap();
        let dir = Temp(unique_path("messy_heap"));
        let written = std::fs::read(write_segment(&mem, &dir.0).unwrap()).unwrap();
        assert!(written == built.image(), "seed {seed}: write_segment differs");
        assert_equivalent(&mem, &built, &mut rng);
    }
}

#[test]
fn single_run_and_multi_run_packings_agree() {
    let mut rng = StdRng::seed_from_u64(99);
    let body = random_edge_list(&mut rng, 12, 150);
    let (_e1, _d1, mem, one_run) = build_both(&body, usize::MAX);
    let (_e2, _d2, _, many_runs) = build_both(&body, 3);
    assert_equivalent(&mem, &one_run, &mut rng);
    assert_equivalent(&mem, &many_runs, &mut rng);
}

#[test]
fn corrupted_header_is_rejected() {
    let mut rng = StdRng::seed_from_u64(7);
    let body = random_edge_list(&mut rng, 8, 60);
    let (_e, dir, _, seg) = build_both(&body, 1 << 20);
    drop(seg);
    let path = segment_path(&dir.0);
    let clean = std::fs::read(&path).unwrap();
    // Flip one byte in every header word in turn: magic, version,
    // section descriptors, counts, checksum. Each corruption must be
    // caught at open time.
    for offset in (0..clean.len().min(136)).step_by(8) {
        let mut bytes = clean.clone();
        bytes[offset] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(SegmentStore::open(&path).is_err(), "corruption at byte {offset} was not detected");
    }
    // Restoring the original bytes makes the segment readable again.
    std::fs::write(&path, &clean).unwrap();
    assert!(SegmentStore::open(&path).is_ok());
}

#[test]
fn truncated_segment_is_rejected() {
    let mut rng = StdRng::seed_from_u64(8);
    let body = random_edge_list(&mut rng, 8, 60);
    let (_e, dir, _, seg) = build_both(&body, 1 << 20);
    drop(seg);
    let path = segment_path(&dir.0);
    let clean = std::fs::read(&path).unwrap();
    for keep in [0, 8, 64, 135, clean.len() / 2, clean.len() - 1] {
        std::fs::write(&path, &clean[..keep]).unwrap();
        assert!(SegmentStore::open(&path).is_err(), "truncation to {keep} bytes was not detected");
    }
}
