//! The in-memory segment build behind [`crate::io::load_segment`] and
//! [`SegmentStore::from_edge_list`]: the bytes of an edge list in, the
//! image `pack` writes to `graph.seg` out, built on scoped workers; and
//! the [`RankingImage`] behind [`crate::io::load_ranking_image`], which
//! writes only the pairs a ranking search's cutoff admits.
//!
//! The build runs in five steps; all but the last split their work
//! across the workers:
//!
//! 1. **Parse.** The input is cut into one newline-aligned chunk per
//!    worker. Each chunk is parsed and validated line by line as a
//!    sequential read would, keeping its own node-id range, line count
//!    and first error. The chunks are merged in input order, so the
//!    error reported is the first error of the earliest failing chunk,
//!    at its line in the file.
//! 2. **Sort.** Each chunk counts its records per origin. The
//!    per-(chunk, origin) prefix sums give every chunk its own slots in
//!    one array, so the scatter keeps input order within each origin.
//!    Each worker then stable-sorts the origins of one range (ranges
//!    balanced by record count) by `(target, time)`, and notes where
//!    each pair's records start and their total flow, summed in series
//!    order as the prefix sums are, so a total is bit-identical to the
//!    [`crate::SeriesRef::total_flow`] of the pair in the image.
//! 3. **Count.** An image holds the pairs a predicate on their ids
//!    admits (every pair, for the image `pack` writes). Each worker
//!    counts the admitted pairs of its range, their events and the times
//!    they span.
//! 4. **Write.** Once the counts per range are known, so is where each
//!    range's share of every section starts: each worker writes its
//!    share of `out_start`, `targets`, `origins`, `event_start`,
//!    `origin_span`, `events` and `prefix` as typed slices, and notes its
//!    events in an activity-index builder; the builders' buckets are
//!    concatenated in range order.
//! 5. **Seal.** The in-edge sections, their checksum, the index and the
//!    header are made by the steps [`crate::SegmentWriter`] seals with,
//!    and the image is opened through the validation a file goes
//!    through, except that the store takes over the built activity
//!    index instead of parsing it back out of the image. The image is
//!    allocated once, with room for the largest index its events can
//!    make.
//!
//! The image is byte-identical at any worker count: chunks and ranges
//! only cut sequences (lines, origins) that are processed in order and
//! concatenated in order, every value written depends only on the
//! records of its own origin and on counts summed over the earlier
//! ones, and the prefix sums run per pair in time order as in the
//! sequential writer. One worker is one chunk and one range.
//!
//! # The ranking image
//!
//! A ranking search (the core crate's `Query::top_k` and
//! `Query::top1`) runs as cutoff passes: each pass binds only pairs
//! whose total flow reaches its floor, and on a large graph the floors
//! admit a few hundred of hundreds of thousands of pairs. A
//! [`RankingImage`] keeps the sorted records and the totals of steps 1
//! and 2, and [`RankingImage::cover`] writes (steps 3 to 5) the image of
//! the pairs whose total reaches a floor, keeping node ids, the
//! `(origin, target)` order of the pairs and each pair's events and
//! prefix sums. A lower floor later rebuilds it from the same records;
//! the floor `-∞` builds the full image, byte for byte.

use crate::active::IndexBuilder;
use crate::builder::NodeIdRange;
use crate::error::GraphError;
use crate::event::{Event, Flow, NodeId, PairId, Timestamp};
use crate::io::{parse_chunk, ParsedChunk, Record};
use crate::mmap::{bytes_of_mut, Mmap};
use crate::segment::{
    in_checksum, index_len_bound, layout, seal, section_sizes, transpose, Sealed, SegmentStore,
    EMPTY_SPAN, HEADER_LEN, NUM_SECTIONS, S_INDEX,
};
use std::borrow::Borrow;
use std::io::Read;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Where the time of an in-memory segment build went
/// ([`SegmentStore::build_profile`], [`RankingImage::build_profile`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildProfile {
    /// Parsing and validating the records, merging the chunks.
    pub parse: Duration,
    /// The counting sort by origin, the per-origin sort and the pair
    /// totals.
    pub sort: Duration,
    /// Counting, writing, sealing and opening the image (for a ranking
    /// image, every image it built).
    pub build: Duration,
    /// Workers the build ran on.
    pub threads: usize,
}

/// Builds `input` on `threads` workers (`0` = all cores).
pub(crate) fn build_threaded<B: AsRef<[u8]>>(
    input: B,
    threads: usize,
) -> Result<SegmentStore, GraphError> {
    let chunks = split_lines(input.as_ref(), workers(threads));
    build(input, &chunks)
}

/// The worker count of `threads` (`0` = all cores).
fn workers(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
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

/// Builds the full image of `input`, cut into `chunks` (newline-aligned,
/// covering the input in order), on one worker per chunk.
pub(crate) fn build<B: AsRef<[u8]>>(
    input: B,
    chunks: &[Range<usize>],
) -> Result<SegmentStore, GraphError> {
    let sorted = Sorted::new(input, chunks)?;
    let (parse, sort, threads) = (sorted.parse, sorted.sort, sorted.ranges.len());
    let started = Instant::now();
    let mut store = image(sorted, |_| true);
    let build = started.elapsed();
    store.build_profile = Some(BuildProfile { parse, sort, build, threads });
    Ok(store)
}

/// An edge list parsed, validated and sorted by origin, then by
/// `(target, time)`: what every image of it is written from.
#[derive(Debug)]
struct Sorted {
    records: Vec<Record>,
    /// The origin ranges of the workers, balanced by record count.
    ranges: Vec<OriginRange>,
    num_nodes: usize,
    parse: Duration,
    sort: Duration,
}

/// One worker's origins and their pairs, in `(origin, target)` order.
/// The full image numbers the pairs of all ranges in range order.
#[derive(Debug)]
struct OriginRange {
    origins: Range<usize>,
    /// The index of the range's first record.
    first_record: usize,
    /// Origin `origins.start + i`'s pairs are `first_pair[i]..first_pair[i + 1]`.
    first_pair: Vec<u32>,
    /// Pair `i`'s records are `pair_start[i]..pair_start[i + 1]`, counted
    /// from the range's first record (offsets take half the memory of
    /// indexes, and the arrays are resident while a full image is written).
    pair_start: Vec<u32>,
    /// Pair `i`'s total flow.
    totals: Vec<Flow>,
    /// The earliest and latest time of the range's records.
    span: Option<(Timestamp, Timestamp)>,
}

/// What one origin range of an image holds.
#[derive(Default)]
struct RangeCount {
    pairs: usize,
    events: usize,
    span: Option<(Timestamp, Timestamp)>,
}

/// The smallest span covering both.
fn merge_span(
    a: Option<(Timestamp, Timestamp)>,
    b: Option<(Timestamp, Timestamp)>,
) -> Option<(Timestamp, Timestamp)> {
    match (a, b) {
        (Some((lo, hi)), Some((c, d))) => Some((lo.min(c), hi.max(d))),
        (s, t) => s.or(t),
    }
}

impl Sorted {
    /// Parses `input`, cut into `chunks`, and sorts its records, on one
    /// worker per chunk (steps 1 and 2). `input` is dropped — a map
    /// unmapped — as soon as it is parsed.
    fn new<B: AsRef<[u8]>>(input: B, chunks: &[Range<usize>]) -> Result<Self, GraphError> {
        let started = Instant::now();
        let workers = chunks.len().max(1);

        // 1. Parse.
        let bytes = input.as_ref();
        let mut parsed = par_map(chunks.iter().map(|c| &bytes[c.clone()]).collect(), parse_chunk);
        drop(input);
        let mut ids = NodeIdRange::default();
        let (mut lines, mut num_events) = (0, 0);
        for chunk in &mut parsed {
            if let Some(e) = chunk.take_error(lines) {
                return Err(e);
            }
            ids.merge(chunk.ids, lines);
            lines += chunk.lines;
            num_events += chunk.records.len();
        }
        let num_nodes = ids.num_nodes(num_events)?;
        let parse = started.elapsed();

        // 2. Sort: scatter by origin, then sort each origin's run and
        // note its pairs.
        let (mut records, start) = scatter_by_origin(parsed, num_nodes, num_events);
        let mut runs = Vec::with_capacity(workers);
        let mut rest = records.as_mut_slice();
        for r in origin_ranges(&start, workers) {
            let (run, tail) = std::mem::take(&mut rest).split_at_mut(start[r.end] - start[r.start]);
            runs.push((r, run));
            rest = tail;
        }
        let ranges = par_map(runs, |(origins, run)| {
            let base = start[origins.start];
            // Every offset below is at most `end`.
            let end = u32::try_from(run.len()).expect("a range holds fewer than 2^32 records");
            // At most one pair per record; pages past the pairs stay untouched.
            let mut range = OriginRange {
                origins: origins.clone(),
                first_record: base,
                first_pair: Vec::with_capacity(origins.len() + 1),
                pair_start: Vec::with_capacity(run.len() + 1),
                totals: Vec::with_capacity(run.len()),
                span: None,
            };
            for u in origins {
                let run = &mut run[start[u] - base..start[u + 1] - base];
                run.sort_by_key(|&(_, v, t, _)| (v, t));
                range.first_pair.push(range.totals.len() as u32);
                let mut at = start[u] - base;
                for pair in run.chunk_by(|a, b| a.1 == b.1) {
                    range.pair_start.push(at as u32);
                    at += pair.len();
                    range.span = merge_span(range.span, Some((pair[0].2, pair[pair.len() - 1].2)));
                    // The sequential accumulation the prefix sums run.
                    range.totals.push(pair.iter().fold(0.0, |acc, r| acc + r.3));
                }
            }
            range.first_pair.push(range.totals.len() as u32);
            range.pair_start.push(end);
            range
        });
        let sort = started.elapsed() - parse;
        Ok(Self { records, ranges, num_nodes, parse, sort })
    }

    /// Every pair's total flow, in full-image pair order.
    fn totals(&self) -> impl Iterator<Item = Flow> + '_ {
        self.ranges.iter().flat_map(|r| r.totals.iter().copied())
    }
}

impl OriginRange {
    /// Pair `i`'s records, sorted by time.
    fn pair<'r>(&self, records: &'r [Record], i: usize) -> &'r [Record] {
        let at = |i: usize| self.first_record + self.pair_start[i] as usize;
        &records[at(i)..at(i + 1)]
    }

    /// Pair `i`'s record count.
    fn pair_len(&self, i: usize) -> usize {
        (self.pair_start[i + 1] - self.pair_start[i]) as usize
    }
}

/// The image of the pairs of `sorted` whose total flow `admit` admits
/// (steps 3 to 5), on one worker per origin range. An owned `sorted` is
/// freed before the seal.
fn image(sorted: impl Borrow<Sorted>, admit: impl Fn(Flow) -> bool + Sync) -> SegmentStore {
    let admit = &admit;
    let Sorted { ref records, ref ranges, num_nodes, .. } = *sorted.borrow();

    // 3. Count.
    let counts = par_map(ranges.iter().collect(), |range| {
        let mut count = RangeCount::default();
        let admitted = || (0..range.totals.len()).filter(|&i| admit(range.totals[i]));
        for i in admitted() {
            count.pairs += 1;
            count.events += range.pair_len(i);
        }
        count.span = if count.pairs == range.totals.len() {
            range.span
        } else {
            admitted().map(|i| range.pair(records, i)).fold(None, |span, pair| {
                merge_span(span, Some((pair[0].2, pair[pair.len() - 1].2)))
            })
        };
        count
    });
    let num_pairs: usize = counts.iter().map(|c| c.pairs).sum();
    let num_events: usize = counts.iter().map(|c| c.events).sum();
    let span = counts.iter().fold(None, |span, c| merge_span(span, c.span));

    // 4. Write each range's share of the sections, into an image with
    // room for the largest index its events can make.
    let offsets = layout(&section_sizes(num_nodes as u64, num_pairs as u64, num_events as u64));
    let at = offsets[S_INDEX] as usize;
    let mut words = vec![0u64; (at + index_len_bound(num_events)).div_ceil(8)];
    let mut sections = Sections::carve(&mut words, &offsets, num_nodes, num_pairs, num_events);
    let mut shares = Vec::with_capacity(ranges.len());
    let mut rest = sections.per_origin();
    let (mut first_pair, mut first_event) = (0, 0);
    for (range, count) in ranges.iter().zip(&counts) {
        let share = rest.split_front(range.origins.len(), count.pairs, count.events);
        shares.push((range, first_pair, first_event, share));
        first_pair += count.pairs;
        first_event += count.events;
    }
    let builders = par_map(shares, |(range, first_pair, first_event, share)| {
        write_share(share, records, range, first_pair, first_event, span, admit)
    });
    // What is left are the closing entries of the two offset sections.
    rest.out_start[0] = num_pairs as u32;
    rest.event_start[0] = num_events as u64;
    let mut builders = builders.into_iter();
    let mut index = builders.next().unwrap_or_else(|| IndexBuilder::new(span));
    for b in builders {
        index.append(b);
    }
    drop(sorted);

    // 5. Seal.
    transpose(
        sections.targets,
        sections.origins,
        sections.in_start,
        sections.in_pairs,
        sections.in_sources,
    );
    let in_sum = in_checksum(sections.in_start, sections.in_pairs, sections.in_sources);
    let index = index.finish();
    let Sealed { header, index_bytes, .. } =
        seal(num_nodes, num_pairs as u64, num_events as u64, span, &index, in_sum);
    let len = at + index_bytes.len();
    let image = bytes_of_mut(&mut words);
    image[..HEADER_LEN].copy_from_slice(&header);
    image[at..len].copy_from_slice(&index_bytes);
    SegmentStore::from_map(Mmap::owned(words, len), Some(index))
        .expect("a built image passes the validation of an open")
}

/// Writes the sections of the admitted pairs of `range`, the first of
/// which is the image's pair `first_pair` and starts at its event
/// `first_event`; returns the range's activity-index builder.
fn write_share(
    share: Share<'_>,
    records: &[Record],
    range: &OriginRange,
    first_pair: usize,
    first_event: usize,
    span: Option<(Timestamp, Timestamp)>,
    admit: &impl Fn(Flow) -> bool,
) -> IndexBuilder {
    let Share { out_start, targets, origins, event_start, origin_span, events, prefix } = share;
    let mut index = IndexBuilder::new(span);
    let (mut p, mut e) = (0, 0);
    for (i, u) in range.origins.clone().enumerate() {
        out_start[i] = (first_pair + p) as u32;
        let (mut lo, mut hi) = EMPTY_SPAN;
        for q in range.first_pair[i] as usize..range.first_pair[i + 1] as usize {
            if !admit(range.totals[q]) {
                continue;
            }
            let pair = range.pair(records, q);
            targets[p] = pair[0].1;
            origins[p] = u as NodeId;
            event_start[p] = (first_event + e) as u64;
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

/// An edge list parsed and sorted for the ranking searches, with the
/// image of the pairs the last floor admitted (see the module docs).
///
/// Every image holds exactly the pairs whose total flow reaches its
/// floor, with the full graph's node ids, the pairs in `(origin,
/// target)` order, and each pair's events and prefix sums as in the
/// full image. A search that binds only pairs reaching a floor at or
/// above the image's therefore finds the same matches in the same order
/// on it as on the full image; only pair ids differ, and
/// [`RankingImage::full_pair_ids`] maps them back.
#[derive(Debug)]
pub struct RankingImage {
    sorted: Sorted,
    /// The last image built and the floor it was built at.
    image: Option<(SegmentStore, Flow)>,
    /// The full image's id of each pair of `image`.
    full_ids: Vec<PairId>,
    images: usize,
    build: Duration,
}

impl RankingImage {
    /// Reads `reader` to the end and parses and sorts it on one worker.
    /// Records are validated, and errors reported, as
    /// [`SegmentStore::from_edge_list`] does.
    pub fn from_edge_list<R: Read>(mut reader: R) -> Result<Self, GraphError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        Self::build_threaded(bytes, 1)
    }

    /// Parses and sorts `input` on `threads` workers (`0` = all cores).
    pub(crate) fn build_threaded<B: AsRef<[u8]>>(
        input: B,
        threads: usize,
    ) -> Result<Self, GraphError> {
        let chunks = split_lines(input.as_ref(), workers(threads));
        Self::build(input, &chunks)
    }

    /// Parses and sorts `input`, cut into `chunks`.
    fn build<B: AsRef<[u8]>>(input: B, chunks: &[Range<usize>]) -> Result<Self, GraphError> {
        let sorted = Sorted::new(input, chunks)?;
        Ok(Self { sorted, image: None, full_ids: Vec::new(), images: 0, build: Duration::ZERO })
    }

    /// Pairs of the whole graph.
    pub fn num_pairs(&self) -> usize {
        self.sorted.ranges.iter().map(|r| r.totals.len()).sum()
    }

    /// Interactions of the whole graph.
    pub fn num_interactions(&self) -> usize {
        self.sorted.records.len()
    }

    /// Every pair's total flow, by the full image's pair id; each is
    /// bit-identical to the pair's [`crate::SeriesRef::total_flow`].
    pub fn totals(&self) -> Vec<Flow> {
        self.sorted.totals().collect()
    }

    /// An image holding every pair whose total flow reaches `floor`: the
    /// last one built if its floor is not above `floor`, otherwise one
    /// built now at `floor` (at `-∞`, the full image).
    pub fn cover(&mut self, floor: Flow) -> &SegmentStore {
        if !self.image.as_ref().is_some_and(|&(_, built)| built <= floor) {
            let started = Instant::now();
            let admit = |total: Flow| total >= floor;
            let store = image(&self.sorted, admit);
            self.full_ids.clear();
            let admitted = self.sorted.totals().enumerate().filter(|&(_, total)| admit(total));
            self.full_ids.extend(admitted.map(|(q, _)| q as PairId));
            self.image = Some((store, floor));
            self.images += 1;
            self.build += started.elapsed();
        }
        &self.image.as_ref().expect("an image was built").0
    }

    /// The last image built, if any.
    pub fn image(&self) -> Option<&SegmentStore> {
        self.image.as_ref().map(|(store, _)| store)
    }

    /// The full image's id of each pair of the last image built (empty
    /// before the first build).
    pub fn full_pair_ids(&self) -> &[PairId] {
        &self.full_ids
    }

    /// How many images [`RankingImage::cover`] has built.
    pub fn images_built(&self) -> usize {
        self.images
    }

    /// The parse and sort times, and the time spent building every
    /// image so far.
    pub fn build_profile(&self) -> BuildProfile {
        let Sorted { parse, sort, ref ranges, .. } = self.sorted;
        BuildProfile { parse, sort, build: self.build, threads: ranges.len() }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::read_edge_list;
    use crate::GraphStore;

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

    /// An edge list for the ranking builds: pairs of one to four events
    /// listed out of time order, with flows whose sums are inexact in
    /// f64 (so a total depends on its summation order) and many totals
    /// tied, on nodes of which some have no admitted pair at any finite
    /// floor.
    fn ranked_doc() -> String {
        let mut doc = String::from("# from to time flow\n");
        for i in 0..40u32 {
            let (u, v) = (i % 11, (i * 7 + 3) % 13);
            if u == v {
                continue;
            }
            for j in 0..1 + i % 4 {
                let t = 100 - 9 * i64::from(j) + i64::from(i % 5);
                let f = [0.1, 0.7, 0.2, 0.3][((i + j) % 4) as usize] * f64::from(1 + i % 3);
                doc.push_str(&format!("{u} {v} {t} {f}\n"));
            }
        }
        doc
    }

    /// The floors worth building at: every distinct total (each admits
    /// the pairs tied at it), the values just above and below them, and
    /// both infinities.
    fn floors(totals: &[Flow]) -> Vec<Flow> {
        let mut floors = vec![Flow::NEG_INFINITY, Flow::INFINITY];
        for &t in totals {
            floors.extend([t, t.next_up(), t.next_down()]);
        }
        floors
    }

    /// The even splits of `doc` at 1, 2, 3, 4 and 7 chunks.
    fn even_splits(doc: &[u8]) -> Vec<Vec<Range<usize>>> {
        [1, 2, 3, 4, 7].iter().map(|&n| split_lines(doc, n)).collect()
    }

    #[test]
    fn a_ranking_build_admitting_every_pair_is_the_full_image() {
        let ranked = ranked_doc();
        for doc in [DOC, ranked.as_str(), "", "\n", "0 1 5 1", "# only a comment\r\n"] {
            let doc = doc.as_bytes();
            let want = built(doc, &split_lines(doc, 1)).unwrap();
            let chunkings = if doc == ranked.as_bytes() { even_splits(doc) } else { cuttings(doc) };
            for chunks in chunkings {
                let mut ranking = RankingImage::build(doc, &chunks).unwrap();
                let image = ranking.cover(Flow::NEG_INFINITY);
                assert!(image.image() == want.as_slice(), "{chunks:?}");
                assert_eq!(image.activity_index(), &image.parse_image_index().unwrap());
                let ids: Vec<PairId> = (0..image.num_pairs() as PairId).collect();
                assert_eq!(ranking.full_pair_ids(), ids.as_slice());
                assert_eq!(ranking.images_built(), 1);
                assert_eq!(ranking.build_profile().threads, chunks.len());
            }
        }
    }

    #[test]
    fn a_floored_build_holds_exactly_the_pairs_reaching_its_floor() {
        let doc = ranked_doc();
        let doc = doc.as_bytes();
        let full = SegmentStore::from_edge_list(doc).unwrap();
        let mut checked_ties = false;
        for chunks in even_splits(doc) {
            let mut ranking = RankingImage::build(doc, &chunks).unwrap();
            let totals = ranking.totals();
            assert_eq!(totals.len(), full.num_pairs());
            for (q, &total) in totals.iter().enumerate() {
                let series = full.series(q as PairId);
                assert_eq!(total.to_bits(), series.total_flow().to_bits(), "pair {q}");
            }
            for floor in floors(&totals) {
                // A fresh build at every floor: a later, lower floor
                // would otherwise reuse nothing of it.
                let mut fresh = RankingImage::build(doc, &chunks).unwrap();
                fresh.cover(floor);
                let image = fresh.image().unwrap();
                let want: Vec<PairId> = (0..full.num_pairs() as PairId)
                    .filter(|&q| totals[q as usize] >= floor)
                    .collect();
                assert_eq!(fresh.full_pair_ids(), want.as_slice(), "floor {floor}");
                checked_ties |= want.iter().filter(|&&q| totals[q as usize] == floor).count() > 1;
                assert_eq!(image.num_nodes(), full.num_nodes());
                assert_eq!(image.num_pairs(), want.len());
                for (p, &q) in want.iter().enumerate() {
                    let p = p as PairId;
                    assert_eq!(image.pair(p), full.pair(q));
                    assert_eq!(image.pair_id(full.pair(q).0, full.pair(q).1), Some(p));
                    let (got, exp) = (image.series(p), full.series(q));
                    assert_eq!(got.events().len(), exp.events().len());
                    for (a, b) in got.events().iter().zip(exp.events()) {
                        assert_eq!((a.time, a.flow.to_bits()), (b.time, b.flow.to_bits()));
                    }
                    for j in 0..=got.len() {
                        let (a, b) = (got.flow_of_range(0..j), exp.flow_of_range(0..j));
                        assert_eq!(a.to_bits(), b.to_bits(), "prefix {j} of pair {q}");
                    }
                }
                assert_eq!(image.activity_index(), &image.parse_image_index().unwrap());
                // The same floor again, or a higher one, keeps the image.
                fresh.cover(floor);
                fresh.cover(Flow::INFINITY);
                assert_eq!(fresh.images_built(), 1);
            }
            // Lowering the floor rebuilds; the last build is the full
            // image.
            let mut sorted = totals.clone();
            sorted.sort_by(|a, b| b.total_cmp(a));
            for (n, &floor) in sorted.iter().enumerate() {
                let built = ranking.images_built();
                ranking.cover(floor);
                let new = n == 0 || sorted[n - 1] != floor;
                assert_eq!(ranking.images_built(), built + usize::from(new));
            }
            assert!(ranking.image().unwrap().image() == full.image());
        }
        assert!(checked_ties, "some floor must tie several pairs");
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
