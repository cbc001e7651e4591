//! The in-memory segment build behind [`crate::io::load_segment`] and
//! [`SegmentStore::from_edge_list`]: the bytes of an edge list in, the
//! image `pack` writes to `graph.seg` out, built on scoped workers.
//!
//! The build runs in four steps; the first three split their work
//! across the workers, the last is sequential:
//!
//! 1. **Parse.** The input is cut into one newline-aligned chunk per
//!    worker. Each chunk is parsed and validated line by line as a
//!    sequential read would, keeping its own node-id range, time span,
//!    line count and first error. The chunks are merged in input order,
//!    so the error reported is the first error of the earliest failing
//!    chunk, at its line in the file.
//! 2. **Sort.** Each chunk counts its records per origin. The
//!    per-(chunk, origin) prefix sums give every chunk its own slots in
//!    one array, so the scatter keeps input order within each origin.
//!    Each worker then stable-sorts the origins of one range (ranges
//!    balanced by record count) by `(target, time)` and counts their
//!    pairs.
//! 3. **Write.** Once the pairs per range are known, so is where each
//!    range's share of every section starts: each worker writes its
//!    share of `out_start`, `targets`, `origins`, `event_start`,
//!    `origin_span`, `events` and `prefix` as typed slices, and notes its
//!    events in an activity-index builder; the builders' buckets are
//!    concatenated in range order.
//! 4. **Seal.** The in-edge sections, their checksum, the index and the
//!    header are made by the steps [`crate::SegmentWriter`] seals with,
//!    and the image is opened through the validation a file goes
//!    through, except that the store takes over the built activity
//!    index instead of parsing it back out of the image.
//!
//! The image is byte-identical at any worker count: chunks and ranges
//! only cut sequences (lines, origins) that are processed in order and
//! concatenated in order, every value written depends only on the
//! records of its own origin and on counts summed over the earlier
//! ones, and the prefix sums run per pair in time order as in the
//! sequential writer. One worker is one chunk and one range.

use crate::active::IndexBuilder;
use crate::builder::NodeIdRange;
use crate::error::GraphError;
use crate::event::{Event, NodeId, PairId, Timestamp};
use crate::io::{parse_chunk, ParsedChunk, Record};
use crate::mmap::{bytes_of_mut, Mmap};
use crate::segment::{
    in_checksum, layout, seal, section_sizes, transpose, Sealed, SegmentStore, EMPTY_SPAN,
    HEADER_LEN, NUM_SECTIONS, S_INDEX,
};
use std::mem::MaybeUninit;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Where the time of an in-memory segment build went
/// ([`SegmentStore::build_profile`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildProfile {
    /// Parsing and validating the records, merging the chunks.
    pub parse: Duration,
    /// The counting sort by origin and the per-origin sort.
    pub sort: Duration,
    /// Writing the sections, sealing and opening the image.
    pub build: Duration,
    /// Workers the build ran on.
    pub threads: usize,
}

/// Builds `input` on `threads` workers (`0` = all cores).
pub(crate) fn build_threaded<B: AsRef<[u8]>>(
    input: B,
    threads: usize,
) -> Result<SegmentStore, GraphError> {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    let chunks = split_lines(input.as_ref(), threads);
    build(input, &chunks)
}

/// Cuts `bytes` into `n` chunks of about equal length, each ending just
/// after a newline or at the end of the input (chunks may be empty).
pub(crate) fn split_lines(bytes: &[u8], n: usize) -> Vec<Range<usize>> {
    let mut chunks = Vec::with_capacity(n);
    let mut start = 0;
    for i in 1..n {
        let target = (bytes.len() / n * i).max(start);
        let end = bytes[target..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(bytes.len(), |p| target + p + 1);
        chunks.push(start..end);
        start = end;
    }
    chunks.push(start..bytes.len());
    chunks
}

/// Builds the image of `input`, cut into `chunks` (newline-aligned,
/// covering the input in order), on one worker per chunk. `input` is
/// dropped — a map unmapped — as soon as it is parsed.
pub(crate) fn build<B: AsRef<[u8]>>(
    input: B,
    chunks: &[Range<usize>],
) -> Result<SegmentStore, GraphError> {
    let started = Instant::now();
    let workers = chunks.len().max(1);

    // 1. Parse.
    let bytes = input.as_ref();
    let mut parsed = par_map(chunks.iter().map(|c| &bytes[c.clone()]).collect(), parse_chunk);
    drop(input);
    let mut ids = NodeIdRange::default();
    let mut span: Option<(Timestamp, Timestamp)> = None;
    let (mut lines, mut num_events) = (0, 0);
    for chunk in &mut parsed {
        if let Some(e) = chunk.take_error(lines) {
            return Err(e);
        }
        ids.merge(chunk.ids, lines);
        span = match (span, chunk.span) {
            (Some((lo, hi)), Some((a, b))) => Some((lo.min(a), hi.max(b))),
            (s, t) => s.or(t),
        };
        lines += chunk.lines;
        num_events += chunk.records.len();
    }
    let num_nodes = ids.num_nodes(num_events)?;
    let parse = started.elapsed();

    // 2. Sort: scatter by origin, then sort each origin's run.
    let (mut records, start) = scatter_by_origin(parsed, num_nodes, num_events);
    let ranges = origin_ranges(&start, workers);
    let mut runs = Vec::with_capacity(workers);
    let mut rest = records.as_mut_slice();
    for r in &ranges {
        let (run, tail) = std::mem::take(&mut rest).split_at_mut(start[r.end] - start[r.start]);
        runs.push((r.clone(), run));
        rest = tail;
    }
    let pairs_per_range = par_map(runs, |(origins, run)| {
        let base = start[origins.start];
        let mut pairs = 0;
        for u in origins {
            let run = &mut run[start[u] - base..start[u + 1] - base];
            run.sort_by_key(|&(_, v, t, _)| (v, t));
            pairs += run.chunk_by(|a, b| a.1 == b.1).count();
        }
        pairs
    });
    let num_pairs: usize = pairs_per_range.iter().sum();
    let sort = started.elapsed() - parse;

    // 3. Write each range's share of the sections.
    let offsets = layout(&section_sizes(num_nodes as u64, num_pairs as u64, num_events as u64));
    let mut words = vec![0u64; offsets[S_INDEX] as usize / 8];
    let mut sections = Sections::carve(&mut words, &offsets, num_nodes, num_pairs, num_events);
    let mut shares = Vec::with_capacity(workers);
    let mut rest = sections.per_origin();
    let mut first_pair = 0;
    for (origins, &pairs) in ranges.iter().zip(&pairs_per_range) {
        let events = start[origins.end] - start[origins.start];
        shares.push((origins.clone(), first_pair, rest.split_front(origins.len(), pairs, events)));
        first_pair += pairs;
    }
    let builders = par_map(shares, |(origins, first_pair, share)| {
        let run = &records[start[origins.start]..start[origins.end]];
        write_share(share, origins, &start[..], run, first_pair, span)
    });
    // What is left are the closing entries of the two offset sections.
    rest.out_start[0] = num_pairs as u32;
    rest.event_start[0] = num_events as u64;
    let mut builders = builders.into_iter();
    let mut index = builders.next().unwrap_or_else(|| IndexBuilder::new(span));
    for b in builders {
        index.append(b);
    }
    drop(records);

    // 4. Seal.
    transpose(
        sections.targets,
        sections.origins,
        sections.in_start,
        sections.in_pairs,
        sections.in_sources,
    );
    let in_sum = in_checksum(sections.in_start, sections.in_pairs, sections.in_sources);
    let index = index.finish();
    let Sealed { header, index_bytes, offsets } =
        seal(num_nodes, num_pairs as u64, num_events as u64, span, &index, in_sum);
    let at = offsets[S_INDEX] as usize;
    let len = at + index_bytes.len();
    words.resize(len.div_ceil(8), 0);
    let image = bytes_of_mut(&mut words);
    image[..HEADER_LEN].copy_from_slice(&header);
    image[at..len].copy_from_slice(&index_bytes);
    let mut store = SegmentStore::from_map(Mmap::owned(words, len), Some(index))?;
    let build = started.elapsed() - parse - sort;
    store.build_profile = Some(BuildProfile { parse, sort, build, threads: workers });
    Ok(store)
}

/// Runs `f` on every item, each on its own scoped thread but the first,
/// which runs on the calling thread; results come back in item order.
fn par_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let f = &f;
    let mut items = items.into_iter();
    let Some(first) = items.next() else { return Vec::new() };
    std::thread::scope(|s| {
        let handles: Vec<_> = items.map(|item| s.spawn(move || f(item))).collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(f(first));
        for h in handles {
            out.push(h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        out
    })
}

/// Counting sort of the chunks' records by origin, keeping input order
/// within each origin. Returns the records and `start`, where origin
/// `u`'s run is `start[u]..start[u + 1]`. Each chunk's records are freed
/// as soon as it has scattered them.
fn scatter_by_origin(
    chunks: Vec<ParsedChunk>,
    num_nodes: usize,
    num_events: usize,
) -> (Vec<Record>, Vec<usize>) {
    let mut next: Vec<Vec<usize>> = par_map(chunks.iter().collect(), |c| {
        let mut counts = vec![0usize; num_nodes];
        for r in &c.records {
            counts[r.0 as usize] += 1;
        }
        counts
    });
    // Origin by origin, each chunk's slots follow the earlier chunks'.
    let mut start = Vec::with_capacity(num_nodes + 1);
    let mut at = 0;
    for u in 0..num_nodes {
        start.push(at);
        for counts in &mut next {
            let n = counts[u];
            counts[u] = at;
            at += n;
        }
    }
    start.push(at);
    assert_eq!(at, num_events, "the origin counts must cover every record");

    let mut records: Vec<Record> = Vec::with_capacity(num_events);
    let slots = Slots::new(&mut records.spare_capacity_mut()[..num_events]);
    par_map(chunks.into_iter().zip(next).collect(), |(chunk, mut next)| {
        for r in chunk.records {
            let slot = &mut next[r.0 as usize];
            // SAFETY: chunk c's slots for origin u are the `counts[c][u]`
            // indexes from its prefix offset on, which no other chunk or
            // origin uses.
            unsafe { slots.write(*slot, r) };
            *slot += 1;
        }
    });
    // SAFETY: the chunks' slots tile `0..num_events` (their counts sum to
    // it), and every slot was written above.
    unsafe { records.set_len(num_events) };
    (records, start)
}

/// Slots that scoped workers fill at disjoint indexes.
struct Slots<'a, T> {
    ptr: *mut T,
    len: usize,
    _slots: std::marker::PhantomData<&'a mut [MaybeUninit<T>]>,
}

// SAFETY: shared, a `Slots` is only written through `Slots::write`,
// whose callers guarantee that no two writes share an index, so no two
// threads touch the same `T`; `len` is only read.
unsafe impl<T: Send> Sync for Slots<'_, T> {}

impl<'a, T> Slots<'a, T> {
    fn new(slots: &'a mut [MaybeUninit<T>]) -> Self {
        Self { ptr: slots.as_mut_ptr().cast(), len: slots.len(), _slots: std::marker::PhantomData }
    }

    /// Writes `value` into slot `i`.
    ///
    /// # Safety
    /// No other write, on any thread, may target slot `i`.
    #[inline]
    unsafe fn write(&self, i: usize, value: T) {
        assert!(i < self.len, "slot {i} out of {}", self.len);
        self.ptr.add(i).write(value);
    }
}

/// Cuts the origins `0..start.len() - 1` into `n` consecutive ranges
/// holding about equal numbers of records.
fn origin_ranges(start: &[usize], n: usize) -> Vec<Range<usize>> {
    let num_nodes = start.len() - 1;
    let total = start[num_nodes];
    let cut = |i: usize| {
        if i == n {
            num_nodes
        } else {
            start.partition_point(|&s| s < total / n * i).min(num_nodes)
        }
    };
    (0..n).map(|i| cut(i)..cut(i + 1)).collect()
}

/// Plain-old-data section element types: any bit pattern is a valid
/// value, and the alignment is at most 8.
trait Plain {}
impl Plain for u32 {}
impl Plain for u64 {}
impl Plain for i64 {}
impl Plain for f64 {}
impl Plain for Event {}

/// The image's sections as typed slices. The store reads them as
/// native-endian slices too, so they hold the file's little-endian
/// bytes on the little-endian hosts the format is read on.
struct Sections<'a> {
    out_start: &'a mut [u32],
    targets: &'a mut [NodeId],
    origins: &'a mut [NodeId],
    event_start: &'a mut [u64],
    origin_span: &'a mut [i64],
    events: &'a mut [Event],
    prefix: &'a mut [f64],
    in_start: &'a mut [u32],
    in_pairs: &'a mut [PairId],
    in_sources: &'a mut [NodeId],
}

impl<'a> Sections<'a> {
    /// Cuts the sections of a segment of these counts out of its image,
    /// laid out at `offsets`.
    fn carve(
        words: &'a mut [u64],
        offsets: &[u64; NUM_SECTIONS],
        nodes: usize,
        pairs: usize,
        events: usize,
    ) -> Self {
        let sizes = section_sizes(nodes as u64, pairs as u64, events as u64);
        let mut rest = words;
        let mut at = 0;
        let mut next = |section: usize| -> &'a mut [u64] {
            let skip = offsets[section] as usize / 8 - at;
            let len = (sizes[section] as usize).div_ceil(8);
            let (head, tail) = std::mem::take(&mut rest)[skip..].split_at_mut(len);
            rest = tail;
            at += skip + len;
            head
        };
        Self {
            out_start: typed(next(0), nodes + 1),
            targets: typed(next(1), pairs),
            origins: typed(next(2), pairs),
            event_start: typed(next(3), pairs + 1),
            origin_span: typed(next(4), 2 * nodes),
            events: typed(next(5), events),
            prefix: typed(next(6), events + pairs),
            in_start: typed(next(7), nodes + 1),
            in_pairs: typed(next(8), pairs),
            in_sources: typed(next(9), pairs),
        }
    }

    /// The sections the origin ranges write, reborrowed.
    fn per_origin(&mut self) -> Share<'_> {
        Share {
            out_start: self.out_start,
            targets: self.targets,
            origins: self.origins,
            event_start: self.event_start,
            origin_span: self.origin_span,
            events: self.events,
            prefix: self.prefix,
        }
    }
}

/// `words` as the first `len` values of a section element type.
fn typed<T: Plain>(words: &mut [u64], len: usize) -> &mut [T] {
    assert!(len * std::mem::size_of::<T>() <= words.len() * 8, "section overruns its words");
    // SAFETY: the range lies inside `words`, which is 8-aligned and
    // borrowed mutably for the result's lifetime, and any bit pattern is
    // a valid `T` (`Plain`).
    unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast(), len) }
}

/// One origin range's share of the per-origin, per-pair and per-event
/// sections.
struct Share<'a> {
    out_start: &'a mut [u32],
    targets: &'a mut [NodeId],
    origins: &'a mut [NodeId],
    event_start: &'a mut [u64],
    origin_span: &'a mut [i64],
    events: &'a mut [Event],
    prefix: &'a mut [f64],
}

impl<'a> Share<'a> {
    /// Splits off the share of the next `nodes` origins, holding `pairs`
    /// pairs and `events` events.
    fn split_front(&mut self, nodes: usize, pairs: usize, events: usize) -> Share<'a> {
        fn front<'a, T>(s: &mut &'a mut [T], n: usize) -> &'a mut [T] {
            let (head, tail) = std::mem::take(s).split_at_mut(n);
            *s = tail;
            head
        }
        Share {
            out_start: front(&mut self.out_start, nodes),
            targets: front(&mut self.targets, pairs),
            origins: front(&mut self.origins, pairs),
            event_start: front(&mut self.event_start, pairs),
            origin_span: front(&mut self.origin_span, 2 * nodes),
            events: front(&mut self.events, events),
            prefix: front(&mut self.prefix, events + pairs),
        }
    }
}

/// Writes the sections of `origins`, whose sorted records are `run`
/// (origin `u`'s at `start[u]` less the range's first) and whose first
/// pair is `first_pair`; returns the range's activity-index builder.
fn write_share(
    share: Share<'_>,
    origins: Range<usize>,
    start: &[usize],
    run: &[Record],
    first_pair: usize,
    span: Option<(Timestamp, Timestamp)>,
) -> IndexBuilder {
    let Share {
        out_start,
        targets,
        origins: pair_origins,
        event_start,
        origin_span,
        events,
        prefix,
    } = share;
    let base = start[origins.start];
    let mut index = IndexBuilder::new(span);
    let (mut p, mut e) = (0, 0);
    for (i, u) in origins.enumerate() {
        out_start[i] = (first_pair + p) as u32;
        let (mut lo, mut hi) = EMPTY_SPAN;
        for pair in run[start[u] - base..start[u + 1] - base].chunk_by(|a, b| a.1 == b.1) {
            targets[p] = pair[0].1;
            pair_origins[p] = u as NodeId;
            event_start[p] = (base + e) as u64;
            // Pair p's prefix run starts at its first event plus the p
            // leading zeros of the earlier pairs of this share.
            let prefix = &mut prefix[e + p..=e + p + pair.len()];
            prefix[0] = 0.0;
            // The sequential accumulation of `InteractionSeries`.
            let mut acc = 0.0;
            for (j, &(_, _, t, f)) in pair.iter().enumerate() {
                events[e + j] = Event::new(t, f);
                acc += f;
                prefix[j + 1] = acc;
                lo = lo.min(t);
                hi = hi.max(t);
                index.note(u as NodeId, t);
            }
            e += pair.len();
            p += 1;
        }
        origin_span[2 * i] = lo;
        origin_span[2 * i + 1] = hi;
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::read_edge_list;

    /// Lines of every kind the parser treats differently: CRLF endings,
    /// `#` and `%` comments, blank and whitespace-only lines, lines the
    /// byte-level fast path hands to the text parser (a `+` sign, an
    /// em-space separator, a non-ASCII extra column), a fractional flow,
    /// duplicate timestamps, and a last line without `\n`.
    const DOC: &str = "# from to time flow\r\n\
        3 1 9 2.5\r\n\
        0 1 5 1\n\
        \n\
        % comment\n\
        0 1 +5 2\n\
        \x20\t\r\n\
        1\u{2003}2 7 4\n\
        0,1,3,8\n\
        2 0 5 1.5 é\n\
        # another comment\n\
        0 1 5 0.25\r\n\
        4 2 -3 6";

    /// Offsets just after every newline of `doc`, plus both ends.
    fn line_starts(doc: &[u8]) -> Vec<usize> {
        let mut at = vec![0];
        at.extend(doc.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(i, _)| i + 1));
        if *at.last().unwrap() != doc.len() {
            at.push(doc.len());
        }
        at
    }

    /// Chunks cut at `cuts` (ascending offsets inside the document).
    fn chunks_at(len: usize, cuts: &[usize]) -> Vec<Range<usize>> {
        let mut bounds = vec![0];
        bounds.extend_from_slice(cuts);
        bounds.push(len);
        bounds.windows(2).map(|w| w[0]..w[1]).collect()
    }

    /// Every way to cut `doc` that the tests try: the even splits at 1,
    /// 2, 3, 4 and 7 chunks, one chunk per line, empty chunks, and every
    /// choice of one or two line boundaries.
    fn cuttings(doc: &[u8]) -> Vec<Vec<Range<usize>>> {
        let starts = line_starts(doc);
        let mut out: Vec<Vec<Range<usize>>> =
            [1, 2, 3, 4, 7].iter().map(|&n| split_lines(doc, n)).collect();
        let inner: Vec<usize> =
            starts.iter().copied().filter(|&a| 0 < a && a < doc.len()).collect();
        out.push(chunks_at(doc.len(), &inner));
        out.push(chunks_at(doc.len(), &[0, 0, doc.len(), doc.len()]));
        for (i, &a) in starts.iter().enumerate() {
            out.push(chunks_at(doc.len(), &[a]));
            for &b in &starts[i..] {
                out.push(chunks_at(doc.len(), &[a, b]));
            }
        }
        out
    }

    fn built(doc: &[u8], chunks: &[Range<usize>]) -> Result<Vec<u8>, String> {
        build(doc, chunks).map(|s| s.image().to_vec()).map_err(|e| format!("{e:?}"))
    }

    #[test]
    fn split_lines_cuts_after_newlines_and_covers_the_input() {
        let doc = DOC.as_bytes();
        for n in 1..=20 {
            let chunks = split_lines(doc, n);
            assert_eq!(chunks.len(), n);
            assert_eq!(chunks[0].start, 0);
            assert_eq!(chunks[n - 1].end, doc.len());
            for w in chunks.windows(2) {
                assert_eq!(w[0].end, w[1].start);
                assert!(w[0].end == doc.len() || doc[w[0].end - 1] == b'\n', "n={n}: {chunks:?}");
            }
        }
        assert_eq!(split_lines(b"", 3), vec![0..0, 0..0, 0..0]);
    }

    #[test]
    fn the_image_is_byte_identical_at_every_chunking() {
        for doc in [DOC, "", "\n", "0 1 5 1", "# only a comment\r\n"] {
            let doc = doc.as_bytes();
            let want = built(doc, &split_lines(doc, 1)).unwrap();
            // The one-chunk build is the `pack` image (checked against
            // `pack_edge_list` in the segment round-trip suite).
            let read = SegmentStore::from_edge_list(doc).unwrap();
            assert!(read.image() == want.as_slice());
            for chunks in cuttings(doc) {
                assert!(built(doc, &chunks).unwrap() == want, "{chunks:?}");
                let store = build(doc, &chunks).unwrap();
                assert_eq!(store.build_profile().unwrap().threads, chunks.len());
                // The store keeps the index the build made, which must be
                // the one a file open parses from the same bytes.
                assert_eq!(store.activity_index(), &store.parse_image_index().unwrap());
            }
        }
    }

    #[test]
    fn errors_are_identical_at_every_chunking() {
        let clean = "0 1 1 1\n1 2 2 1\n2 0 3 1\n".repeat(4); // 12 lines
        let cases: [(Vec<u8>, &str); 6] = [
            // An error in a late chunk after clean ones.
            (format!("{clean}0 x 5 1\n1 2 6 1\n").into(), "Parse { line: 13,"),
            // Two errors in different chunks: the earlier one wins.
            (format!("0 1 1 1\n1 2 2 -1\n{clean}3 3 4 1\n").into(), "InvalidFlow"),
            (format!("0 1 1 1\n1 2 2 1\n2 y 3 1\n{clean}0 1 4 0\n").into(), "Parse { line: 3,"),
            // A line that is not UTF-8 after clean ones.
            ([clean.as_bytes(), b"0 1 \xff 1\n"].concat(), "Io(Custom { kind: InvalidData"),
            // The largest id repeats across chunks: its first line counts.
            (
                format!("0 1 1 1\n4000000000 1 2 1\n{clean}1 4000000000 3 1\n").into(),
                "SparseNodeId { id: 4000000000, line: 2,",
            ),
            (
                format!("{clean}# gap\n4000000000 1 2 1\n{clean}4000000000 2 3 1\r\n").into(),
                "SparseNodeId { id: 4000000000, line: 14,",
            ),
        ];
        for (doc, expected) in &cases {
            let want = built(doc, &split_lines(doc, 1)).unwrap_err();
            assert!(want.starts_with(expected), "{want}");
            let builder = read_edge_list(doc.as_slice()).map(|_| ()).map_err(|e| format!("{e:?}"));
            assert_eq!(builder.unwrap_err(), want);
            for chunks in cuttings(doc) {
                assert_eq!(built(doc, &chunks).unwrap_err(), want, "{chunks:?}");
            }
        }
    }
}
