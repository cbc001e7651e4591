//! The packed on-disk graph segment: a flat, checksummed, little-endian
//! file a [`SegmentStore`] serves through a read-only memory map.
//!
//! # File layout (`graph.seg`)
//!
//! ```text
//! header (168 B):  magic "FLOWSEG1" | version | num_nodes | num_pairs
//!                  | num_events | time_lo | time_hi | 11 section offsets
//!                  | fnv64 in-section checksum | file_len
//!                  | fnv64 header checksum
//! out_start:       u32  x (N+1)   CSR offsets into targets/origins
//! targets:         u32  x P       pair target, sorted by (origin, target)
//! origins:         u32  x P       pair origin
//! event_start:     u64  x (P+1)   per-pair offsets into events
//! origin_span:     i64  x 2N      per-origin [min,max] out-edge time
//!                                 (MAX/MIN sentinel when inactive)
//! events:          16 B x E       (time i64, flow f64) sorted per pair
//! prefix:          f64  x (E+P)   per-pair flow prefix sums, each pair
//!                                 led by 0.0 (pair p starts at
//!                                 event_start[p] + p)
//! in_start:        u32  x (N+1)   transposed CSR offsets (v2)
//! in_pairs:        u32  x P       pair ids grouped by target, each
//!                                 group sorted by source (v2)
//! in_sources:      u32  x P       source of each in-pair (SoA id
//!                                 column, v2)
//! index:           serialized ActiveOriginIndex (width, bucket keys,
//!                                 bucket offsets, origin entries)
//! ```
//!
//! The three v2 in-adjacency sections carry their own chained fnv64
//! checksum in the header (verified at open, O(nodes + pairs)) — they
//! are *derived* from the forward sections, so silent divergence would
//! make the worst-case-optimal P1 driver drop matches rather than crash.
//!
//! Every section offset is 8-aligned, so the store reinterprets the map
//! as typed slices directly — opening a segment is O(header + index),
//! not O(data). Sections mirror [`TimeSeriesGraph`]'s internals element
//! for element (same sort, same sequential prefix accumulation, same
//! activity index construction), which is what makes search results on
//! the two backends bit-identical.
//!
//! [`SegmentWriter`] writes a segment pair by pair into spill files.
//! [`pack_edge_list`] feeds it from an external merge sort over
//! bounded-memory sorted runs — packing never materialises the graph —
//! and [`SegmentStore::from_edge_list`] sorts the records in memory,
//! writes the image in place on several workers ([`crate::image`]) and
//! opens it, with no file in between; both give the same bytes.

use crate::active::{ActiveOriginIndex, IndexBuilder};
use crate::builder::{check_interaction, NodeIdRange};
use crate::error::GraphError;
use crate::event::{Event, Flow, NodeId, PairId, Timestamp};
use crate::image::BuildProfile;
use crate::io::EdgeListRecords;
use crate::mmap::Mmap;
use crate::series::SeriesRef;
use crate::tsgraph::TimeSeriesGraph;
use crate::window::TimeWindow;
use crate::GraphStore;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, Write};
use std::path::{Path, PathBuf};

/// File name of the packed segment inside a segment directory.
pub const SEGMENT_FILE: &str = "graph.seg";

const MAGIC: [u8; 8] = *b"FLOWSEG1";
/// Format version 2 adds the transposed (in-edge) adjacency sections
/// `in_start`/`in_pairs`/`in_sources` plus their own checksum header
/// word — the worst-case-optimal P1 extension proposes from in-lists,
/// so the reverse adjacency must be servable straight off the map.
/// Version-1 files are rejected; re-run `flowmotif pack` to upgrade.
const VERSION: u64 = 2;
/// magic + 20 u64/i64 header words (see the layout above).
pub(crate) const HEADER_LEN: usize = 8 + 20 * 8;
/// Sentinel span of an origin with no out-edge interactions (matches the
/// in-memory representation).
pub(crate) const EMPTY_SPAN: (Timestamp, Timestamp) = (Timestamp::MAX, Timestamp::MIN);

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit continuation: folds `bytes` into a running state, so
/// multi-section checksums chain without concatenating buffers.
fn fnv64_acc(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a 64-bit, the header checksum.
fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_acc(FNV_SEED, bytes)
}

#[inline]
fn align8(n: u64) -> u64 {
    n.div_ceil(8) * 8
}

/// Resolves a user-supplied path to the segment file: a directory means
/// "the `graph.seg` inside it".
pub fn segment_path(path: &Path) -> PathBuf {
    if path.is_dir() {
        path.join(SEGMENT_FILE)
    } else {
        path.to_path_buf()
    }
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Writes a segment pair by pair (pairs strictly ascending by
/// `(origin, target)`, events non-decreasing by time within a pair —
/// exactly the order [`TimeSeriesGraph`] stores) into temporary spill
/// files next to the target, one per section, and concatenates them
/// behind the header on [`SegmentWriter::finish`]. Resident state is
/// O(index + pairs + constants): the transposed adjacency keeps one
/// 8-byte `(target, origin)` entry per pair until `finish` spills it,
/// still far below O(interactions).
///
/// [`SegmentStore::from_edge_list`] builds the same bytes in memory
/// (see [`crate::image`]), sharing this writer's sealing steps.
#[derive(Debug)]
pub struct SegmentWriter {
    dir: PathBuf,
    files: Vec<BufWriter<File>>,
    num_nodes: usize,
    /// Provided global time span (also the index preset, so the packed
    /// activity index starts from the same bucket width as a bulk
    /// rebuild).
    span: Option<(Timestamp, Timestamp)>,
    index: IndexBuilder,
    cur_pair: Option<(NodeId, NodeId)>,
    cur_origin: Option<NodeId>,
    origin_span: (Timestamp, Timestamp),
    pairs_written: u64,
    events_written: u64,
    /// `out_start` entries emitted so far (index of the next node).
    out_filled: usize,
    /// `origin_span` entries emitted so far.
    span_filled: usize,
    /// Target and origin of every pair in pair order, transposed into
    /// the in-edge sections on `finish`.
    targets: Vec<NodeId>,
    origins: Vec<NodeId>,
    last_time: Timestamp,
    acc: Flow,
}

/// Section order inside the writer (and the file).
const S_OUT_START: usize = 0;
const S_TARGETS: usize = 1;
const S_ORIGINS: usize = 2;
const S_EVENT_START: usize = 3;
const S_ORIGIN_SPAN: usize = 4;
const S_EVENTS: usize = 5;
const S_PREFIX: usize = 6;
const S_IN_START: usize = 7;
const S_IN_PAIRS: usize = 8;
const S_IN_SOURCES: usize = 9;
const NUM_SPILL: usize = 10;
/// Section slot of the serialized activity index (after every spill).
pub(crate) const S_INDEX: usize = NUM_SPILL;
/// Sections in the file: the spill sections plus the trailing index.
pub(crate) const NUM_SECTIONS: usize = NUM_SPILL + 1;

/// Byte sizes of the sections before the index, for a segment with
/// these counts.
pub(crate) fn section_sizes(num_nodes: u64, num_pairs: u64, num_events: u64) -> [u64; NUM_SPILL] {
    let (n, p, e) = (num_nodes, num_pairs, num_events);
    [
        4 * (n + 1), // out_start
        4 * p,       // targets
        4 * p,       // origins
        8 * (p + 1), // event_start
        16 * n,      // origin_span
        16 * e,      // events
        8 * (e + p), // prefix
        4 * (n + 1), // in_start
        4 * p,       // in_pairs
        4 * p,       // in_sources
    ]
}

/// Section offsets: each section starts 8-aligned behind the previous
/// one, the index last.
pub(crate) fn layout(sizes: &[u64; NUM_SPILL]) -> [u64; NUM_SECTIONS] {
    let mut offsets = [0u64; NUM_SECTIONS];
    let mut cursor = HEADER_LEN as u64;
    for (off, &size) in offsets.iter_mut().zip(sizes) {
        *off = cursor;
        cursor = align8(cursor + size);
    }
    offsets[S_INDEX] = cursor;
    offsets
}

/// Fills the transposed (in-edge) adjacency of the pairs whose targets
/// and origins are given in pair order: a counting sort of the pairs by
/// target. Filling slots in ascending pair id keeps each in-list sorted
/// by source (pairs are sorted by `(origin, target)`) — the order the
/// galloping intersection in P1 requires.
pub(crate) fn transpose(
    targets: &[NodeId],
    origins: &[NodeId],
    in_start: &mut [u32],
    in_pairs: &mut [PairId],
    in_sources: &mut [NodeId],
) {
    in_start.fill(0);
    for &v in targets {
        in_start[v as usize + 1] += 1;
    }
    for i in 1..in_start.len() {
        in_start[i] += in_start[i - 1];
    }
    let mut next = in_start.to_vec();
    for (p, (&v, &u)) in targets.iter().zip(origins).enumerate() {
        let slot = &mut next[v as usize];
        in_pairs[*slot as usize] = p as PairId;
        in_sources[*slot as usize] = u;
        *slot += 1;
    }
}

/// The chained fnv64 over the in-edge sections' exact bytes, which goes
/// into its own header word.
pub(crate) fn in_checksum(in_start: &[u32], in_pairs: &[PairId], in_sources: &[NodeId]) -> u64 {
    [in_start, in_pairs, in_sources]
        .into_iter()
        .flatten()
        .fold(FNV_SEED, |h, x| fnv64_acc(h, &x.to_le_bytes()))
}

/// The serialized activity index: width, bucket keys, bucket offsets,
/// origin entries.
fn index_bytes(index: &ActiveOriginIndex) -> Vec<u8> {
    let mut bytes: Vec<u8> = Vec::new();
    bytes.extend_from_slice(&index.bucket_width().to_le_bytes());
    let buckets: Vec<(i64, &[NodeId])> = index.buckets().collect();
    bytes.extend_from_slice(&(buckets.len() as u64).to_le_bytes());
    for &(key, _) in &buckets {
        bytes.extend_from_slice(&key.to_le_bytes());
    }
    let mut start = 0u64;
    bytes.extend_from_slice(&start.to_le_bytes());
    for &(_, origins) in &buckets {
        start += origins.len() as u64;
        bytes.extend_from_slice(&start.to_le_bytes());
    }
    for &(_, origins) in &buckets {
        for &u in origins {
            bytes.extend_from_slice(&u.to_le_bytes());
        }
    }
    bytes
}

/// What a sealed segment puts around its sections.
pub(crate) struct Sealed {
    /// The checksummed header.
    pub(crate) header: Vec<u8>,
    /// The serialized activity index, written at `offsets[S_INDEX]`.
    pub(crate) index_bytes: Vec<u8>,
    /// Every section's offset.
    pub(crate) offsets: [u64; NUM_SECTIONS],
}

/// Seals a segment of these counts: lays out the sections, serializes
/// `index` and writes the header around the in-edge checksum.
pub(crate) fn seal(
    num_nodes: usize,
    num_pairs: u64,
    num_events: u64,
    span: Option<(Timestamp, Timestamp)>,
    index: &ActiveOriginIndex,
    in_checksum: u64,
) -> Sealed {
    let index_bytes = index_bytes(index);
    let offsets = layout(&section_sizes(num_nodes as u64, num_pairs, num_events));
    let file_len = offsets[S_INDEX] + index_bytes.len() as u64;
    let (time_lo, time_hi) = span.unwrap_or(EMPTY_SPAN);
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(&MAGIC);
    for word in [VERSION, num_nodes as u64, num_pairs, num_events, time_lo as u64, time_hi as u64] {
        header.extend_from_slice(&word.to_le_bytes());
    }
    for off in offsets {
        header.extend_from_slice(&off.to_le_bytes());
    }
    header.extend_from_slice(&in_checksum.to_le_bytes());
    header.extend_from_slice(&file_len.to_le_bytes());
    header.extend_from_slice(&fnv64(&header).to_le_bytes());
    debug_assert_eq!(header.len(), HEADER_LEN);
    Sealed { header, index_bytes, offsets }
}

impl SegmentWriter {
    /// Opens a writer targeting `dir/graph.seg`. `num_nodes` and the
    /// exact global `time_span` must be known up front (one streaming
    /// pass over the input provides both).
    pub fn create(
        dir: &Path,
        num_nodes: usize,
        span: Option<(Timestamp, Timestamp)>,
    ) -> Result<Self, GraphError> {
        std::fs::create_dir_all(dir)?;
        let mut files = Vec::with_capacity(NUM_SPILL);
        for i in 0..NUM_SPILL {
            let f = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(Self::spill_path(dir, i))?;
            files.push(BufWriter::new(f));
        }
        let mut w = Self {
            dir: dir.to_path_buf(),
            files,
            num_nodes,
            span,
            index: IndexBuilder::new(span),
            cur_pair: None,
            cur_origin: None,
            origin_span: EMPTY_SPAN,
            pairs_written: 0,
            events_written: 0,
            out_filled: 0,
            span_filled: 0,
            targets: Vec::new(),
            origins: Vec::new(),
            last_time: Timestamp::MIN,
            acc: 0.0,
        };
        // out_start[0] = 0 and event_start[0] = 0.
        w.write(S_OUT_START, &0u32.to_le_bytes())?;
        w.write(S_EVENT_START, &0u64.to_le_bytes())?;
        w.out_filled = 1;
        Ok(w)
    }

    fn spill_path(dir: &Path, i: usize) -> PathBuf {
        dir.join(format!("{SEGMENT_FILE}.spill{i}"))
    }

    #[inline]
    fn write(&mut self, section: usize, bytes: &[u8]) -> Result<(), GraphError> {
        self.files[section].write_all(bytes)?;
        Ok(())
    }

    /// Seals the previous pair's event range and prefix run.
    fn end_pair(&mut self) -> Result<(), GraphError> {
        if self.cur_pair.is_some() {
            self.write(S_EVENT_START, &self.events_written.to_le_bytes())?;
        }
        Ok(())
    }

    /// Seals the previous origin's activity span.
    fn end_origin(&mut self) -> Result<(), GraphError> {
        if self.cur_origin.is_some() {
            let (lo, hi) = self.origin_span;
            self.write(S_ORIGIN_SPAN, &lo.to_le_bytes())?;
            self.write(S_ORIGIN_SPAN, &hi.to_le_bytes())?;
            self.span_filled += 1;
        }
        Ok(())
    }

    /// Emits `EMPTY_SPAN` for every origin up to (excluding) `u`.
    fn fill_spans_to(&mut self, u: usize) -> Result<(), GraphError> {
        while self.span_filled < u {
            self.write(S_ORIGIN_SPAN, &EMPTY_SPAN.0.to_le_bytes())?;
            self.write(S_ORIGIN_SPAN, &EMPTY_SPAN.1.to_le_bytes())?;
            self.span_filled += 1;
        }
        Ok(())
    }

    /// Starts the next pair. Pairs must arrive strictly ascending by
    /// `(u, v)`; `u` and `v` must be below the declared node count.
    pub fn begin_pair(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        assert!(
            self.cur_pair.is_none_or(|last| last < (u, v)),
            "pairs must be strictly ascending: {:?} then {:?}",
            self.cur_pair,
            (u, v)
        );
        assert!(
            (u as usize) < self.num_nodes && (v as usize) < self.num_nodes,
            "pair ({u}, {v}) outside the declared {} nodes",
            self.num_nodes
        );
        self.end_pair()?;
        if self.cur_origin != Some(u) {
            self.end_origin()?;
            self.fill_spans_to(u as usize)?;
            self.cur_origin = Some(u);
            self.origin_span = EMPTY_SPAN;
            // out_start[x] for every node through u = pairs before u.
            while self.out_filled <= u as usize {
                let n = self.pairs_written as u32;
                self.write(S_OUT_START, &n.to_le_bytes())?;
                self.out_filled += 1;
            }
        }
        self.write(S_TARGETS, &v.to_le_bytes())?;
        self.write(S_ORIGINS, &u.to_le_bytes())?;
        self.write(S_PREFIX, &0.0f64.to_le_bytes())?;
        self.targets.push(v);
        self.origins.push(u);
        self.cur_pair = Some((u, v));
        self.pairs_written += 1;
        self.last_time = Timestamp::MIN;
        self.acc = 0.0;
        Ok(())
    }

    /// Appends one event to the current pair (times non-decreasing).
    pub fn push_event(&mut self, t: Timestamp, f: Flow) -> Result<(), GraphError> {
        let (u, _) = self.cur_pair.expect("push_event before begin_pair");
        assert!(t >= self.last_time, "events must be sorted by time within a pair");
        self.last_time = t;
        let mut ev = [0u8; 16];
        ev[..8].copy_from_slice(&t.to_le_bytes());
        ev[8..].copy_from_slice(&f.to_le_bytes());
        self.write(S_EVENTS, &ev)?;
        // Same sequential accumulation as `InteractionSeries`, so the
        // stored prefixes are bit-identical to the in-memory ones.
        self.acc += f;
        let acc = self.acc;
        self.write(S_PREFIX, &acc.to_le_bytes())?;
        self.events_written += 1;
        self.origin_span.0 = self.origin_span.0.min(t);
        self.origin_span.1 = self.origin_span.1.max(t);
        self.index.note(u, t);
        Ok(())
    }

    /// Finalizes the segment: pads out the per-node sections, writes the
    /// in-edge sections, assembles the file behind a checksummed header,
    /// removes the spill files and returns the segment path.
    pub fn finish(mut self) -> Result<PathBuf, GraphError> {
        self.end_pair()?;
        self.end_origin()?;
        self.fill_spans_to(self.num_nodes)?;
        while self.out_filled <= self.num_nodes {
            let n = self.pairs_written as u32;
            self.write(S_OUT_START, &n.to_le_bytes())?;
            self.out_filled += 1;
        }
        let pairs = self.targets.len();
        let mut in_start = vec![0u32; self.num_nodes + 1];
        let mut in_pairs = vec![0 as PairId; pairs];
        let mut in_sources = vec![0 as NodeId; pairs];
        transpose(&self.targets, &self.origins, &mut in_start, &mut in_pairs, &mut in_sources);
        for (section, column) in
            [(S_IN_START, &in_start), (S_IN_PAIRS, &in_pairs), (S_IN_SOURCES, &in_sources)]
        {
            for &x in column {
                self.write(section, &x.to_le_bytes())?;
            }
        }
        let index = std::mem::replace(&mut self.index, IndexBuilder::new(None)).finish();
        let Sealed { header, index_bytes, offsets } = seal(
            self.num_nodes,
            self.pairs_written,
            self.events_written,
            self.span,
            &index,
            in_checksum(&in_start, &in_pairs, &in_sources),
        );
        let dir = self.dir;
        let mut spill: Vec<File> = Vec::with_capacity(NUM_SPILL);
        for w in self.files {
            let mut f = w.into_inner().map_err(|e| GraphError::Io(e.into_error()))?;
            f.flush()?;
            spill.push(f);
        }
        let final_path = dir.join(SEGMENT_FILE);
        let tmp_path = dir.join(format!("{SEGMENT_FILE}.tmp"));
        {
            let mut out = BufWriter::new(File::create(&tmp_path)?);
            out.write_all(&header)?;
            let mut written = HEADER_LEN as u64;
            for (i, mut f) in spill.into_iter().enumerate() {
                if written > offsets[i] {
                    return Err(GraphError::segment(format!(
                        "section {} overran its layout",
                        i - 1
                    )));
                }
                while written < offsets[i] {
                    out.write_all(&[0u8])?;
                    written += 1;
                }
                f.seek(std::io::SeekFrom::Start(0))?;
                written += std::io::copy(&mut f, &mut out)?;
            }
            while written < offsets[S_INDEX] {
                out.write_all(&[0u8])?;
                written += 1;
            }
            out.write_all(&index_bytes)?;
            out.flush()?;
        }
        for i in 0..NUM_SPILL {
            let _ = std::fs::remove_file(Self::spill_path(&dir, i));
        }
        std::fs::rename(&tmp_path, &final_path)?;
        Ok(final_path)
    }
}

/// Packs an in-memory graph into a segment at `dir/graph.seg` (the
/// non-streaming convenience; [`pack_edge_list`] is the out-of-core
/// path).
pub fn write_segment(g: &TimeSeriesGraph, dir: &Path) -> Result<PathBuf, GraphError> {
    let mut w = SegmentWriter::create(dir, g.num_nodes(), g.time_span())?;
    for p in 0..g.num_pairs() as PairId {
        let (u, v) = g.pair(p);
        w.begin_pair(u, v)?;
        for e in g.series(p).events() {
            w.push_event(e.time, e.flow)?;
        }
    }
    w.finish()
}

// ---------------------------------------------------------------------
// External-sort packer
// ---------------------------------------------------------------------

/// One edge-list record in a sort run: the `(u, v, t, seq)` key ordering
/// reproduces the in-memory build exactly — pairs sorted by `(u, v)`,
/// events time-sorted with input order breaking ties (the builder's
/// stable sort).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct RunRecord {
    u: NodeId,
    v: NodeId,
    t: Timestamp,
    seq: u64,
}

const RUN_RECORD_LEN: usize = 32;

/// Default records per sorted run (32 B each, so ~32 MiB of sort buffer).
pub const DEFAULT_RUN_RECORDS: usize = 1 << 20;

/// Packing summary returned by [`pack_edge_list`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackStats {
    /// Interactions packed.
    pub interactions: u64,
    /// Distinct `(u, v)` pairs.
    pub pairs: u64,
    /// Node count (max id + 1).
    pub nodes: usize,
    /// Sorted runs merged (1 means the input fit one sort buffer).
    pub runs: usize,
}

flowmotif_util::impl_to_json!(PackStats { interactions, pairs, nodes, runs });

/// Compiles a whitespace/comma-separated `from to time flow` edge list
/// into a packed segment at `out_dir/graph.seg` using an external merge
/// sort: the input is streamed into sorted runs of at most
/// `run_records` records (32 B each) which a k-way merge then streams
/// through a [`SegmentWriter`]. Peak memory is O(run buffer + nodes'
/// index), never O(interactions). Validation matches
/// [`crate::GraphBuilder`]: non-finite or non-positive flows and
/// self-loops are rejected.
pub fn pack_edge_list(
    input: &Path,
    out_dir: &Path,
    run_records: usize,
) -> Result<PackStats, GraphError> {
    let run_records = run_records.max(1);
    std::fs::create_dir_all(out_dir)?;

    // Pass 1: stream the input into sorted runs, learning the node count
    // and the global time span.
    let file = File::open(input).map_err(|e| GraphError::from(e).in_file(input))?;
    let mut buf: Vec<(RunRecord, Flow)> = Vec::with_capacity(run_records.min(1 << 20));
    let mut runs: Vec<PathBuf> = Vec::new();
    let mut num_nodes = 0usize;
    let mut span: Option<(Timestamp, Timestamp)> = None;
    let mut seq = 0u64;
    let result = (|| -> Result<(), GraphError> {
        let mut ids = NodeIdRange::default();
        let mut records = EdgeListRecords::new(file);
        while let Some(rec) = records.next() {
            let (u, v, t, f) = rec?;
            check_interaction(u, v, f, false)?;
            ids.see(u, v, records.line_number());
            span = Some(span.map_or((t, t), |(lo, hi)| (lo.min(t), hi.max(t))));
            buf.push((RunRecord { u, v, t, seq }, f));
            seq += 1;
            if buf.len() >= run_records {
                flush_run(&mut buf, out_dir, &mut runs)?;
            }
        }
        flush_run(&mut buf, out_dir, &mut runs)?;
        num_nodes = ids.num_nodes(seq as usize)?;

        // Pass 2: k-way merge the runs straight into the writer.
        let mut writer = SegmentWriter::create(out_dir, num_nodes, span)?;
        let mut sources = Vec::with_capacity(runs.len());
        for path in &runs {
            sources.push(RunReader::open(path)?);
        }
        // Flows ride along as raw bits (`f64` is not `Ord`); the
        // `(record, source)` key is unique, so they never affect ordering.
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(RunRecord, usize, u64)>> =
            std::collections::BinaryHeap::with_capacity(sources.len());
        for (i, src) in sources.iter_mut().enumerate() {
            if let Some((rec, f)) = src.next()? {
                heap.push(std::cmp::Reverse((rec, i, f.to_bits())));
            }
        }
        let mut cur: Option<(NodeId, NodeId)> = None;
        while let Some(std::cmp::Reverse((rec, i, bits))) = heap.pop() {
            if cur != Some((rec.u, rec.v)) {
                writer.begin_pair(rec.u, rec.v)?;
                cur = Some((rec.u, rec.v));
            }
            writer.push_event(rec.t, f64::from_bits(bits))?;
            if let Some((next, nf)) = sources[i].next()? {
                heap.push(std::cmp::Reverse((next, i, nf.to_bits())));
            }
        }
        writer.finish()?;
        Ok(())
    })();
    let run_count = runs.len();
    for path in runs {
        let _ = std::fs::remove_file(path);
    }
    result?;
    Ok(PackStats {
        interactions: seq,
        pairs: SegmentStore::open(out_dir)?.num_pairs() as u64,
        nodes: num_nodes,
        runs: run_count,
    })
}

/// Sorts and spills one run buffer (no-op when empty).
fn flush_run(
    buf: &mut Vec<(RunRecord, Flow)>,
    dir: &Path,
    runs: &mut Vec<PathBuf>,
) -> Result<(), GraphError> {
    if buf.is_empty() {
        return Ok(());
    }
    // `seq` is globally unique, so the key is total and the sort can be
    // unstable without losing determinism.
    buf.sort_unstable_by_key(|&(rec, _)| rec);
    let path = dir.join(format!("{SEGMENT_FILE}.run{}", runs.len()));
    let mut w = BufWriter::new(File::create(&path)?);
    for &(rec, f) in buf.iter() {
        let mut bytes = [0u8; RUN_RECORD_LEN];
        bytes[..4].copy_from_slice(&rec.u.to_le_bytes());
        bytes[4..8].copy_from_slice(&rec.v.to_le_bytes());
        bytes[8..16].copy_from_slice(&rec.t.to_le_bytes());
        bytes[16..24].copy_from_slice(&rec.seq.to_le_bytes());
        bytes[24..].copy_from_slice(&f.to_le_bytes());
        w.write_all(&bytes)?;
    }
    w.flush()?;
    runs.push(path);
    buf.clear();
    Ok(())
}

/// Buffered reader over one sorted run file.
#[derive(Debug)]
struct RunReader {
    reader: BufReader<File>,
}

impl RunReader {
    fn open(path: &Path) -> Result<Self, GraphError> {
        Ok(Self { reader: BufReader::new(File::open(path)?) })
    }

    fn next(&mut self) -> Result<Option<(RunRecord, Flow)>, GraphError> {
        let mut bytes = [0u8; RUN_RECORD_LEN];
        match self.reader.read_exact(&mut bytes) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        let rec = RunRecord {
            u: u32::from_le_bytes(bytes[..4].try_into().unwrap()),
            v: u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
            t: i64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            seq: u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
        };
        let f = f64::from_le_bytes(bytes[24..].try_into().unwrap());
        Ok(Some((rec, f)))
    }
}

// ---------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------

/// A read-only [`GraphStore`] over a segment: a memory-mapped segment
/// file, or an image built in memory by
/// [`SegmentStore::from_edge_list`].
///
/// Opening validates the header (magic, version, checksum, declared vs
/// actual file length, section bounds and alignment) and deserializes
/// the small activity index; everything else is viewed in place, so a
/// mapped store's resident memory stays O(index) no matter how large the
/// graph is and the OS pages event data in and out on demand (a built
/// image is resident as a whole). Accessors bound-check
/// every slice they cut, so a corrupt body found past the O(1) header
/// validation panics rather than reading out of bounds.
#[derive(Debug)]
pub struct SegmentStore {
    map: Mmap,
    num_nodes: usize,
    num_pairs: usize,
    num_events: usize,
    time_lo: Timestamp,
    time_hi: Timestamp,
    offsets: [usize; NUM_SECTIONS],
    index: ActiveOriginIndex,
    /// Phase times of the in-memory build, if this store was built.
    pub(crate) build_profile: Option<BuildProfile>,
    /// Heap-resident estimate (the deserialized index), mirrored into
    /// [`crate::metrics::SEGMENT_RESIDENT_BYTES`] for this store's
    /// lifetime.
    resident: u64,
}

impl SegmentStore {
    /// Opens and validates `path` (a segment file, or a directory
    /// containing `graph.seg`).
    pub fn open(path: &Path) -> Result<Self, GraphError> {
        let file_path = segment_path(path);
        Self::open_file(&file_path).map_err(|e| e.in_file(&file_path))
    }

    fn open_file(path: &Path) -> Result<Self, GraphError> {
        Self::from_map(Mmap::map(&File::open(path)?)?, None)
    }

    /// Builds a segment from a whitespace/comma-separated `from to time
    /// flow` edge list entirely in memory and opens it: the image is
    /// byte-identical to the `graph.seg` [`pack_edge_list`] writes for
    /// the same input, but no file is written or mapped. Records are
    /// validated as [`crate::GraphBuilder`] validates them, and errors
    /// are those of a line-by-line read. The reader is read to the end,
    /// then built on one worker; [`crate::io::load_segment`] maps a file
    /// instead and builds it on any number (see [`crate::image`] for the
    /// steps).
    pub fn from_edge_list<R: Read>(mut reader: R) -> Result<Self, GraphError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        crate::image::build_threaded(bytes, 1)
    }

    /// Where the time of the in-memory build that made this store went,
    /// or `None` for a store opened from a file.
    pub fn build_profile(&self) -> Option<BuildProfile> {
        self.build_profile
    }

    /// Validates a segment image (a mapped file or one built in memory)
    /// and opens it. An image built in this process passes the activity
    /// index its build serialized into it as `built`, which the store
    /// takes over instead of parsing it back; the header, section bounds
    /// and in-adjacency checksum are validated either way.
    pub(crate) fn from_map(
        map: Mmap,
        built: Option<ActiveOriginIndex>,
    ) -> Result<Self, GraphError> {
        let bytes = map.bytes();
        if bytes.len() < HEADER_LEN {
            return Err(GraphError::segment(format!(
                "file too short for a segment header ({} < {HEADER_LEN} bytes)",
                bytes.len()
            )));
        }
        if bytes[..8] != MAGIC {
            return Err(GraphError::segment("bad magic (not a flowmotif segment)"));
        }
        let word = |i: usize| -> u64 {
            u64::from_le_bytes(bytes[8 + i * 8..16 + i * 8].try_into().unwrap())
        };
        let stored_sum = word(19);
        if fnv64(&bytes[..HEADER_LEN - 8]) != stored_sum {
            return Err(GraphError::segment("header checksum mismatch"));
        }
        if word(0) != VERSION {
            return Err(GraphError::segment(format!("unsupported segment version {}", word(0))));
        }
        let file_len = word(18);
        if file_len != bytes.len() as u64 {
            return Err(GraphError::segment(format!(
                "truncated or padded file: header declares {file_len} bytes, found {}",
                bytes.len()
            )));
        }
        let num_nodes = word(1) as usize;
        let num_pairs = word(2) as usize;
        let num_events = word(3) as usize;
        let time_lo = word(4) as i64;
        let time_hi = word(5) as i64;

        let mut offsets = [0usize; NUM_SECTIONS];
        let sizes = section_sizes(num_nodes as u64, num_pairs as u64, num_events as u64);
        for (i, offset) in offsets.iter_mut().enumerate() {
            let off = word(6 + i);
            // The index runs to the end of the file.
            let size = sizes.get(i).copied().unwrap_or(file_len.saturating_sub(off));
            if off % 8 != 0
                || off < HEADER_LEN as u64
                || off.checked_add(size).is_none_or(|end| end > file_len)
            {
                return Err(GraphError::segment(format!(
                    "section {i} out of bounds (offset {off}, size {size}, file {file_len})"
                )));
            }
            *offset = off as usize;
        }

        // The in-adjacency is *derived* data: a divergence from the
        // forward sections would silently drop matches in the WCO P1
        // driver instead of crashing, so it gets its own verification
        // (chained fnv64 over the exact typed byte ranges, excluding the
        // alignment padding between sections).
        let mut in_sum = FNV_SEED;
        for (i, &size) in sizes.iter().enumerate().take(S_IN_SOURCES + 1).skip(S_IN_START) {
            in_sum = fnv64_acc(in_sum, &bytes[offsets[i]..offsets[i] + size as usize]);
        }
        if in_sum != word(17) {
            return Err(GraphError::segment("in-adjacency checksum mismatch"));
        }

        let index = match built {
            Some(index) => index,
            None => Self::parse_index(&bytes[offsets[S_INDEX]..], num_nodes)?,
        };
        // Resident ≈ the deserialized index (per-bucket key + Vec header
        // + 4 B entries) plus the store struct itself; the mapped body is
        // counted separately as evictable bytes.
        let resident = (std::mem::size_of::<Self>()
            + index
                .buckets()
                .map(|(_, origins)| 8 + std::mem::size_of::<Vec<NodeId>>() + 4 * origins.len())
                .sum::<usize>()) as u64;
        crate::metrics::SEGMENT_RESIDENT_BYTES.add(resident);
        crate::metrics::SEGMENT_OPENS.inc();
        Ok(Self {
            map,
            num_nodes,
            num_pairs,
            num_events,
            time_lo,
            time_hi,
            offsets,
            index,
            build_profile: None,
            resident,
        })
    }

    /// The activity index this store searches with.
    #[cfg(test)]
    pub(crate) fn activity_index(&self) -> &ActiveOriginIndex {
        &self.index
    }

    /// The activity index parsed back from the image's index section.
    #[cfg(test)]
    pub(crate) fn parse_image_index(&self) -> Result<ActiveOriginIndex, GraphError> {
        Self::parse_index(&self.map.bytes()[self.offsets[S_INDEX]..], self.num_nodes)
    }

    /// Deserializes the activity index section into a live
    /// [`ActiveOriginIndex`] (the only O(index)-sized work at open).
    fn parse_index(bytes: &[u8], num_nodes: usize) -> Result<ActiveOriginIndex, GraphError> {
        let err = |m: &str| GraphError::segment(format!("activity index: {m}"));
        let need = |n: usize| -> Result<(), GraphError> {
            if bytes.len() < n {
                return Err(err("section truncated"));
            }
            Ok(())
        };
        need(16)?;
        let width = i64::from_le_bytes(bytes[..8].try_into().unwrap());
        if width < 1 {
            return Err(err("bucket width must be positive"));
        }
        let nb = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let keys_off = 16;
        let starts_off = keys_off + 8 * nb;
        let entries_off = starts_off + 8 * (nb + 1);
        need(entries_off)?;
        let total_entries = (bytes.len() - entries_off) / 4;
        let mut entries: Vec<(i64, Vec<NodeId>)> = Vec::with_capacity(nb);
        let mut prev_start = 0u64;
        for b in 0..nb {
            let key = i64::from_le_bytes(
                bytes[keys_off + 8 * b..keys_off + 8 * b + 8].try_into().unwrap(),
            );
            let s = u64::from_le_bytes(
                bytes[starts_off + 8 * b..starts_off + 8 * b + 8].try_into().unwrap(),
            );
            let e = u64::from_le_bytes(
                bytes[starts_off + 8 * (b + 1)..starts_off + 8 * (b + 2)].try_into().unwrap(),
            );
            if s != prev_start || e < s || e > total_entries as u64 {
                return Err(err("bucket offsets are not a monotone partition"));
            }
            prev_start = e;
            let mut origins = Vec::with_capacity((e - s) as usize);
            for i in s..e {
                let off = entries_off + 4 * i as usize;
                let u = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
                if (u as usize) >= num_nodes {
                    return Err(err("origin entry out of node range"));
                }
                origins.push(u);
            }
            entries.push((key, origins));
        }
        Ok(ActiveOriginIndex::from_raw_parts(width, entries))
    }

    /// Ticks the section-read counter through a thread-local batch.
    /// Series resolution runs millions of times per search, and even a
    /// relaxed `fetch_add` on a shared `static` is a locked RMW — a
    /// full fence on x86 — per read: measured 2.6x on the packed-search
    /// bench. Batching keeps the hot path at a TLS load/store and makes
    /// the global counter exact to within 1024 reads per live thread.
    #[inline]
    fn tick_section_read() {
        use std::cell::Cell;
        thread_local! {
            static PENDING: Cell<u32> = const { Cell::new(0) };
        }
        PENDING.with(|p| {
            let n = p.get() + 1;
            if n == 1024 {
                crate::metrics::SEGMENT_SECTION_READS.add(u64::from(n));
                p.set(0);
            } else {
                p.set(n);
            }
        });
    }

    /// Cuts a typed slice out of a section. Bounds are re-checked here
    /// (not just at open) so index corruption panics instead of reading
    /// out of bounds; alignment holds because the map base and every
    /// section offset are 8-aligned.
    #[inline]
    fn typed<T>(&self, section: usize, len: usize) -> &[T] {
        let off = self.offsets[section];
        let bytes = &self.map.bytes()[off..off + len * std::mem::size_of::<T>()];
        debug_assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<T>(), 0);
        // SAFETY: the range is in bounds (checked by the slice above),
        // 8-aligned, and T is one of the plain-old-data section types
        // (u32/u64/i64/f64/Event) for which any bit pattern is valid.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, len) }
    }

    #[inline]
    fn out_start(&self) -> &[u32] {
        self.typed(S_OUT_START, self.num_nodes + 1)
    }

    #[inline]
    fn targets(&self) -> &[u32] {
        self.typed(S_TARGETS, self.num_pairs)
    }

    #[inline]
    fn origins(&self) -> &[u32] {
        self.typed(S_ORIGINS, self.num_pairs)
    }

    #[inline]
    fn event_start(&self) -> &[u64] {
        self.typed(S_EVENT_START, self.num_pairs + 1)
    }

    #[inline]
    fn origin_spans(&self) -> &[i64] {
        self.typed(S_ORIGIN_SPAN, 2 * self.num_nodes)
    }

    #[inline]
    fn in_start(&self) -> &[u32] {
        self.typed(S_IN_START, self.num_nodes + 1)
    }

    #[inline]
    fn in_pairs(&self) -> &[u32] {
        self.typed(S_IN_PAIRS, self.num_pairs)
    }

    #[inline]
    fn in_sources(&self) -> &[u32] {
        self.typed(S_IN_SOURCES, self.num_pairs)
    }

    /// Sequentially touches one byte per page of the mapped segment so a
    /// cold file is faulted in by the kernel's readahead (large, ordered
    /// requests) instead of P1's random-access pattern (one 4 KiB fault
    /// per miss). Returns the number of bytes spanned. The XOR
    /// accumulator is fed to [`std::hint::black_box`] so the loop cannot
    /// be optimised away.
    pub fn prefetch(&self) -> u64 {
        const PAGE: usize = 4096;
        let bytes = self.map.bytes();
        let mut acc = 0u8;
        let mut off = 0;
        while off < bytes.len() {
            acc ^= bytes[off];
            off += PAGE;
        }
        std::hint::black_box(acc);
        bytes.len() as u64
    }

    /// The segment's bytes: the mapped file, or the image built in
    /// memory — byte for byte what `pack` writes to `graph.seg`.
    pub fn image(&self) -> &[u8] {
        self.map.bytes()
    }

    /// Bytes of this store's segment image, mapped or built in memory.
    pub fn mapped_bytes(&self) -> u64 {
        self.map.len() as u64
    }

    /// This store's heap-resident estimate (the deserialized activity
    /// index; everything else is served straight off the map).
    pub fn resident_bytes(&self) -> u64 {
        self.resident
    }
}

impl Drop for SegmentStore {
    fn drop(&mut self) {
        crate::metrics::SEGMENT_RESIDENT_BYTES.sub(self.resident);
    }
}

impl GraphStore for SegmentStore {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    #[inline]
    fn num_pairs(&self) -> usize {
        self.num_pairs
    }

    #[inline]
    fn num_interactions(&self) -> usize {
        self.num_events
    }

    #[inline]
    fn pair(&self, p: PairId) -> (NodeId, NodeId) {
        (self.origins()[p as usize], self.targets()[p as usize])
    }

    #[inline]
    fn series(&self, p: PairId) -> SeriesRef<'_> {
        // The one accessor that reads the (potentially cold) event and
        // flow-prefix sections — what the section-read counter tracks.
        // Topology lookups (offsets/targets) are excluded: they touch a
        // few always-hot pages and would only add noise (and a tick per
        // `out_pair_at`, the tightest loop in P1).
        Self::tick_section_read();
        let p = p as usize;
        let es = self.event_start();
        let (a, b) = (es[p] as usize, es[p + 1] as usize);
        let events: &[Event] = &self.typed(S_EVENTS, self.num_events)[a..b];
        // Pair p's prefix run is its event range shifted by the p
        // leading zeros of earlier pairs, plus its own.
        let prefix: &[Flow] =
            &self.typed(S_PREFIX, self.num_events + self.num_pairs)[a + p..b + p + 1];
        SeriesRef::from_raw(events, prefix)
    }

    #[inline]
    fn out_degree(&self, u: NodeId) -> u32 {
        let s = self.out_start();
        s[u as usize + 1] - s[u as usize]
    }

    #[inline]
    fn out_pair_at(&self, u: NodeId, i: u32) -> PairId {
        self.out_start()[u as usize] + i
    }

    #[inline]
    fn out_target_at(&self, u: NodeId, i: u32) -> NodeId {
        self.targets()[(self.out_start()[u as usize] + i) as usize]
    }

    #[inline]
    fn in_degree(&self, v: NodeId) -> u32 {
        let s = self.in_start();
        s[v as usize + 1] - s[v as usize]
    }

    #[inline]
    fn in_pair_at(&self, v: NodeId, i: u32) -> PairId {
        self.in_pairs()[(self.in_start()[v as usize] + i) as usize]
    }

    #[inline]
    fn in_source_at(&self, v: NodeId, i: u32) -> NodeId {
        self.in_sources()[(self.in_start()[v as usize] + i) as usize]
    }

    fn pair_id(&self, u: NodeId, v: NodeId) -> Option<PairId> {
        if u as usize >= self.num_nodes {
            return None;
        }
        let s = self.out_start();
        let (a, b) = (s[u as usize] as usize, s[u as usize + 1] as usize);
        let slice = &self.targets()[a..b];
        slice.binary_search(&v).ok().map(|i| (a + i) as PairId)
    }

    #[inline]
    fn origin_active_span(&self, u: NodeId) -> Option<(Timestamp, Timestamp)> {
        let spans = self.origin_spans();
        let (lo, hi) = (*spans.get(2 * u as usize)?, *spans.get(2 * u as usize + 1)?);
        (lo <= hi).then_some((lo, hi))
    }

    fn active_origins_in_range(
        &self,
        w: TimeWindow,
        range: std::ops::Range<NodeId>,
        out: &mut Vec<NodeId>,
    ) {
        self.index.origins_overlapping_in_range(w.start, w.end, range.start, range.end, out);
        out.retain(|&u| self.origin_active_in(u, w));
    }

    #[inline]
    fn time_span(&self) -> Option<(Timestamp, Timestamp)> {
        (self.num_events > 0).then_some((self.time_lo, self.time_hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("flowmotif-seg-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn fig5() -> TimeSeriesGraph {
        let mut b = GraphBuilder::new();
        for (u, v, t, f) in [
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
        ] {
            b.add_interaction(u, v, t, f);
        }
        b.build_time_series_graph()
    }

    fn assert_equivalent(s: &SegmentStore, g: &TimeSeriesGraph) {
        assert_eq!(s.num_nodes(), g.num_nodes());
        assert_eq!(s.num_pairs(), g.num_pairs());
        assert_eq!(s.num_interactions(), g.num_interactions());
        assert_eq!(GraphStore::time_span(s), g.time_span());
        for p in 0..g.num_pairs() as PairId {
            assert_eq!(GraphStore::pair(s, p), g.pair(p));
            assert_eq!(GraphStore::series(s, p).events(), g.series(p).events());
            assert_eq!(
                GraphStore::series(s, p).total_flow().to_bits(),
                g.series(p).total_flow().to_bits(),
                "prefix sums must be bit-identical"
            );
        }
        for u in 0..g.num_nodes() as NodeId {
            assert_eq!(GraphStore::out_degree(s, u) as usize, g.out_degree(u));
            let r = g.out_pair_range(u);
            for i in 0..GraphStore::out_degree(s, u) {
                assert_eq!(GraphStore::out_pair_at(s, u, i), r.start + i);
                assert_eq!(GraphStore::out_target_at(s, u, i), g.out_target_at(u, i));
            }
            assert_eq!(GraphStore::in_degree(s, u), g.in_degree(u));
            for i in 0..GraphStore::in_degree(s, u) {
                assert_eq!(GraphStore::in_pair_at(s, u, i), g.in_pair_at(u, i));
                assert_eq!(GraphStore::in_source_at(s, u, i), g.in_source_at(u, i));
            }
            assert_eq!(GraphStore::origin_active_span(s, u), g.origin_active_span(u));
            for v in 0..g.num_nodes() as NodeId {
                assert_eq!(GraphStore::pair_id(s, u, v), g.pair_id(u, v));
            }
        }
        for (a, b) in [(0, 5), (10, 15), (16, 25), (0, 30), (i64::MIN, i64::MAX)] {
            let w = TimeWindow::new(a, b);
            let mut got = Vec::new();
            s.active_origins_in_range(w, 0..NodeId::MAX, &mut got);
            assert_eq!(got, g.active_origins_in(w), "window [{a},{b}]");
        }
    }

    #[test]
    fn write_and_reopen_round_trips_fig5() {
        let dir = tmp_dir("roundtrip");
        write_segment(&fig5(), &dir).unwrap();
        let s = SegmentStore::open(&dir).unwrap();
        assert_equivalent(&s, &fig5());
        assert_eq!(s.prefetch(), s.mapped_bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_graph_round_trips() {
        let dir = tmp_dir("empty");
        write_segment(&GraphBuilder::new().build_time_series_graph(), &dir).unwrap();
        let s = SegmentStore::open(&dir).unwrap();
        assert_eq!(s.num_nodes(), 0);
        assert_eq!(s.num_pairs(), 0);
        assert_eq!(GraphStore::time_span(&s), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pack_matches_in_memory_build_across_run_sizes() {
        let dir = tmp_dir("pack");
        let input = dir.join("edges.txt");
        let mut text = String::from("# comment line\n");
        let mut b = GraphBuilder::new();
        // Duplicate timestamps on one pair exercise the stable tie-break.
        for (u, v, t, f) in [
            (3u32, 1u32, 9i64, 2.5),
            (0, 1, 5, 1.0),
            (0, 1, 5, 2.0),
            (1, 2, 7, 4.0),
            (0, 1, 3, 8.0),
            (2, 0, 5, 1.5),
            (0, 1, 5, 0.25),
        ] {
            text.push_str(&format!("{u} {v} {t} {f}\n"));
            b.add_interaction(u, v, t, f);
        }
        std::fs::write(&input, text).unwrap();
        let g = b.build_time_series_graph();
        for run_records in [1, 2, 1024] {
            let out = dir.join(format!("seg{run_records}"));
            let stats = pack_edge_list(&input, &out, run_records).unwrap();
            assert_eq!(stats.interactions, 7);
            assert_eq!(stats.nodes, 4);
            assert_eq!(stats.runs, if run_records >= 7 { 1 } else { 7usize.div_ceil(run_records) });
            let s = SegmentStore::open(&out).unwrap();
            assert_equivalent(&s, &g);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pack_rejects_invalid_input() {
        let dir = tmp_dir("pack-invalid");
        let input = dir.join("edges.txt");
        std::fs::write(&input, "0 1 5 -1.0\n").unwrap();
        assert!(matches!(
            pack_edge_list(&input, &dir.join("o1"), 64),
            Err(GraphError::InvalidFlow { .. })
        ));
        std::fs::write(&input, "4 4 5 1.0\n").unwrap();
        assert!(matches!(
            pack_edge_list(&input, &dir.join("o2"), 64),
            Err(GraphError::SelfLoop(4))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pack_and_in_memory_build_refuse_sparse_node_ids() {
        let dir = tmp_dir("pack-sparse");
        let input = dir.join("edges.txt");
        std::fs::write(&input, "0 1 5 1.0\n4294967295 1 6 1.0\n").unwrap();
        let sparse = |e: &GraphError| {
            matches!(e, GraphError::SparseNodeId { id: 4_294_967_295, line: 2, .. })
        };
        let err = pack_edge_list(&input, &dir.join("o"), 64).unwrap_err();
        assert!(sparse(&err), "{err}");
        let err = SegmentStore::from_edge_list(std::fs::File::open(&input).unwrap()).unwrap_err();
        assert!(sparse(&err), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn storage_metrics_track_open_stores() {
        use crate::metrics::{SEGMENT_MAPPED_BYTES, SEGMENT_RESIDENT_BYTES, SEGMENT_SECTION_READS};
        let dir = tmp_dir("metrics");
        write_segment(&fig5(), &dir).unwrap();
        let opens0 = crate::metrics::SEGMENT_OPENS.get();
        let s = SegmentStore::open(&dir).unwrap();
        assert!(crate::metrics::SEGMENT_OPENS.get() > opens0);
        assert!(s.mapped_bytes() > 0);
        assert!(s.resident_bytes() >= std::mem::size_of::<SegmentStore>() as u64);
        // Other tests open and drop stores concurrently, but the gauges
        // always include this live store's contribution.
        assert!(SEGMENT_MAPPED_BYTES.get() >= s.mapped_bytes());
        assert!(SEGMENT_RESIDENT_BYTES.get() >= s.resident_bytes());
        // Reads tick the global through a 1024-batched thread-local, so
        // drive enough accesses to guarantee at least one flush.
        let reads0 = SEGMENT_SECTION_READS.get();
        for _ in 0..2048 {
            let _ = GraphStore::series(&s, 0);
        }
        assert!(SEGMENT_SECTION_READS.get() > reads0);
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_corruption() {
        let dir = tmp_dir("corrupt");
        let path = write_segment(&fig5(), &dir).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // Flipped header byte -> checksum mismatch.
        let mut bad = pristine.clone();
        bad[9] ^= 0xff;
        std::fs::write(&path, &bad).unwrap();
        let err = SegmentStore::open(&path).unwrap_err().to_string();
        assert!(err.contains("checksum"), "{err}");

        // Bad magic.
        let mut bad = pristine.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        let err = SegmentStore::open(&path).unwrap_err().to_string();
        assert!(err.contains("magic"), "{err}");

        // Flipped byte inside the (header-checksum-exempt) in-pairs
        // section -> the dedicated in-adjacency checksum catches it.
        let mut bad = pristine.clone();
        let in_pairs_off =
            u64::from_le_bytes(bad[8 + (6 + S_IN_PAIRS) * 8..][..8].try_into().unwrap()) as usize;
        bad[in_pairs_off] ^= 0xff;
        std::fs::write(&path, &bad).unwrap();
        let err = SegmentStore::open(&path).unwrap_err().to_string();
        assert!(err.contains("in-adjacency"), "{err}");

        // Truncation (header intact, body cut).
        std::fs::write(&path, &pristine[..pristine.len() - 16]).unwrap();
        let err = SegmentStore::open(&path).unwrap_err().to_string();
        assert!(err.contains("truncated"), "{err}");

        // Too short for a header at all.
        std::fs::write(&path, &pristine[..40]).unwrap();
        let err = SegmentStore::open(&path).unwrap_err().to_string();
        assert!(err.contains("too short"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
