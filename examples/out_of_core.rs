//! Out-of-core search: pack a generated graph into a segment file and
//! run a top-k motif query through the memory-mapped backend.
//!
//! The packed segment is viewed in place through a read-only `mmap`:
//! the process heap holds only the small activity index, while the OS
//! pages topology and event data in on demand — so graphs much larger
//! than RAM stay searchable, and sealed segments can be shared
//! read-only across processes.
//!
//! Run with: `cargo run --example out_of_core`

use flowmotif::datasets::generate;
use flowmotif::graph::io::write_edge_list;
use flowmotif::prelude::*;

fn main() {
    // 1. Generate a Bitcoin-like interaction network and spill it to an
    //    edge list on disk, as a stand-in for a real dump that would
    //    not fit in memory.
    let dir = std::env::temp_dir().join(format!("flowmotif_ooc_example_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let edges = dir.join("edges.txt");
    let g = generate(&Dataset::Bitcoin.config().scaled(2.0), 42);
    write_edge_list(&g, std::io::BufWriter::new(std::fs::File::create(&edges).unwrap())).unwrap();
    drop(g); // from here on, the graph lives on disk only

    // 2. Compile the edge list into a packed segment. The external
    //    merge sort streams the input through bounded sort runs, so
    //    packing memory is O(run buffer), never O(interactions). A
    //    deliberately tiny run buffer shows the multi-run merge path.
    let stats = pack_edge_list(&edges, &dir, 4096).unwrap();
    let segment_bytes =
        std::fs::metadata(flowmotif::graph::segment::segment_path(&dir)).unwrap().len();
    println!(
        "packed {} interactions / {} pairs / {} nodes in {} sorted runs",
        stats.interactions, stats.pairs, stats.nodes, stats.runs
    );

    // 3. Map the segment and run the search pipeline straight off it:
    //    every `GraphStore` consumer (P1 matcher, P2 enumeration,
    //    top-k, DP) works unchanged over the mapped backend.
    let seg = SegmentStore::open(&dir).unwrap();
    let motif = catalog::by_name("M(3,2)", 3600, 0.0).unwrap();
    let (ranked, search) = Query::new(&motif).top_k(&seg, 3);
    println!(
        "top-{} {} instances over the mapped graph ({} structural matches):",
        ranked.len(),
        motif,
        search.structural_matches
    );
    for (i, r) in ranked.iter().enumerate() {
        println!(
            "  #{} flow {:.3} nodes {:?}",
            i + 1,
            r.instance.flow,
            r.structural_match.walk_nodes(&seg)
        );
    }

    // 4. Memory stats: what stayed on disk vs what the in-memory
    //    backend would have made resident.
    let event_payload = stats.interactions * std::mem::size_of::<Event>() as u64;
    println!("segment on disk (mapped, paged on demand): {} KiB", segment_bytes / 1024);
    println!(
        "event payload the in-memory backend would hold resident: {} KiB",
        event_payload / 1024
    );

    std::fs::remove_dir_all(&dir).unwrap();
}
