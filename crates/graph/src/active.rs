//! Time-bucketed origin-activity index: answers "which origins have any
//! out-edge interaction inside window `W`?" without touching the series
//! of inactive node pairs.
//!
//! The timeline is split into fixed-width buckets; every bucket holds the
//! sorted, deduplicated set of origins with at least one out-edge event
//! in that bucket. A window query unions the buckets it overlaps, so its
//! cost scales with the *activity* inside the window, not with the total
//! pair count. The width adapts automatically: whenever the bucket count
//! exceeds a cap the index coarsens (doubles the width and merges
//! neighbouring buckets), so memory stays bounded for arbitrarily long
//! streams while short test timelines keep single-timestamp resolution.
//!
//! Bucket membership is only ever *added* by appends and merges; eviction
//! drops whole buckets below the floor but may leave an origin listed in
//! a bucket straddling the floor after its events there were evicted.
//! Such entries are conservative (the index answers a *superset* of the
//! truly active origins) and [`crate::TimeSeriesGraph::active_origins_in`]
//! filters them through the exact per-origin active spans, which *are*
//! recomputed on eviction — so no evicted-empty origin is ever
//! resurrected.
//!
//! Bucket vectors are `Arc`-shared: cloning the index (for a published
//! snapshot) copies `O(buckets)` pointers, and a mutation after a clone
//! copies only the touched bucket (copy-on-write via [`Arc::make_mut`]).

use crate::event::{NodeId, Timestamp};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Soft cap on the number of buckets; exceeding it doubles the width.
const MAX_BUCKETS: usize = 512;

/// The time-bucketed origin index (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveOriginIndex {
    /// Bucket width in time units; bucket `b` covers `[b*width, (b+1)*width)`.
    width: i64,
    /// Sorted, deduplicated origins per non-empty bucket.
    buckets: BTreeMap<i64, Arc<Vec<NodeId>>>,
}

impl Default for ActiveOriginIndex {
    fn default() -> Self {
        Self { width: 1, buckets: BTreeMap::new() }
    }
}

impl ActiveOriginIndex {
    /// An empty index with single-timestamp buckets (the width grows on
    /// demand as entries accumulate).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes the bucket width for a known time span, so bulk builds
    /// insert directly at the final resolution instead of coarsening
    /// repeatedly. Only meaningful on an empty index.
    pub fn preset_span(&mut self, lo: Timestamp, hi: Timestamp) {
        debug_assert!(self.buckets.is_empty(), "preset_span on a non-empty index");
        let span = hi.saturating_sub(lo).max(0);
        let target = (span / (MAX_BUCKETS as i64 / 2) + 1) as u64;
        self.width = target.next_power_of_two().min(1 << 62) as i64;
    }

    #[inline]
    fn bucket_of(&self, t: Timestamp) -> i64 {
        t.div_euclid(self.width)
    }

    /// Records an out-edge event of `origin` at time `t`. Amortized
    /// `O(log buckets + log bucket_len)` (plus the occasional coarsen).
    pub fn record(&mut self, origin: NodeId, t: Timestamp) {
        let b = self.bucket_of(t);
        let v = Arc::make_mut(self.buckets.entry(b).or_default());
        if let Err(i) = v.binary_search(&origin) {
            v.insert(i, origin);
        }
        if self.buckets.len() > MAX_BUCKETS {
            self.coarsen();
        }
    }

    /// Doubles the bucket width, merging neighbouring buckets, until the
    /// bucket count is back under the cap.
    fn coarsen(&mut self) {
        while self.buckets.len() > MAX_BUCKETS && self.width < i64::MAX / 4 {
            self.width *= 2;
            let mut merged: BTreeMap<i64, Arc<Vec<NodeId>>> = BTreeMap::new();
            for (b, origins) in std::mem::take(&mut self.buckets) {
                // Flooring division composes: t.div_euclid(2w) ==
                // t.div_euclid(w).div_euclid(2).
                let nb = b.div_euclid(2);
                match merged.entry(nb) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(origins);
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        let a = e.get().as_slice();
                        let b = origins.as_slice();
                        let mut out = Vec::with_capacity(a.len() + b.len());
                        let (mut i, mut j) = (0, 0);
                        while i < a.len() && j < b.len() {
                            match a[i].cmp(&b[j]) {
                                std::cmp::Ordering::Less => {
                                    out.push(a[i]);
                                    i += 1;
                                }
                                std::cmp::Ordering::Greater => {
                                    out.push(b[j]);
                                    j += 1;
                                }
                                std::cmp::Ordering::Equal => {
                                    out.push(a[i]);
                                    i += 1;
                                    j += 1;
                                }
                            }
                        }
                        out.extend_from_slice(&a[i..]);
                        out.extend_from_slice(&b[j..]);
                        e.insert(Arc::new(out));
                    }
                }
            }
            self.buckets = merged;
        }
    }

    /// Drops every bucket lying entirely before `floor` (eviction hook).
    /// A bucket straddling the floor is kept whole — see the module docs
    /// for why that is safe.
    pub fn evict_below(&mut self, floor: Timestamp) {
        let first_kept = self.bucket_of(floor);
        self.buckets = self.buckets.split_off(&first_kept);
    }

    /// Collects (into `out`, which is cleared first) every origin with at
    /// least one recorded event in a bucket overlapping the closed window
    /// `[a, b]`, sorted and deduplicated. The result is a superset of the
    /// origins with an actual event in `[a, b]` (bucket granularity +
    /// eviction staleness); callers filter through exact per-origin
    /// spans.
    pub fn origins_overlapping(&self, a: Timestamp, b: Timestamp, out: &mut Vec<NodeId>) {
        self.origins_overlapping_in_range(a, b, 0, NodeId::MAX, out);
    }

    /// [`ActiveOriginIndex::origins_overlapping`] restricted to origins in
    /// `[lo, hi)` — the sharded lookup behind parallel bounded searches.
    /// Each worker pulls only its own origin shard out of every bucket
    /// (binary search on the sorted bucket contents), so no worker ever
    /// materialises the full candidate list of the window.
    pub fn origins_overlapping_in_range(
        &self,
        a: Timestamp,
        b: Timestamp,
        lo: NodeId,
        hi: NodeId,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        if b < a || lo >= hi {
            return;
        }
        let (ba, bb) = (self.bucket_of(a), self.bucket_of(b));
        let mut runs = 0;
        for origins in self.buckets.range(ba..=bb).map(|(_, v)| v) {
            let s = origins.partition_point(|&u| u < lo);
            let e = origins.partition_point(|&u| u < hi);
            if s < e {
                out.extend_from_slice(&origins[s..e]);
                runs += 1;
            }
        }
        if runs > 1 {
            out.sort_unstable();
            out.dedup();
        }
    }

    /// Iterates the non-empty buckets in ascending key order as
    /// `(bucket_key, sorted origins)` — the serialization surface used by
    /// the out-of-core segment format.
    pub fn buckets(&self) -> impl Iterator<Item = (i64, &[NodeId])> + '_ {
        self.buckets.iter().map(|(&b, v)| (b, v.as_slice()))
    }

    /// Reassembles an index from its serialized parts: the bucket `width`
    /// and `(bucket_key, sorted origins)` entries. Inverse of
    /// [`ActiveOriginIndex::buckets`]; an index rebuilt from its own
    /// bucket iteration compares equal to the original.
    pub fn from_raw_parts(
        width: i64,
        entries: impl IntoIterator<Item = (i64, Vec<NodeId>)>,
    ) -> Self {
        debug_assert!(width >= 1, "bucket width must be positive, got {width}");
        Self { width, buckets: entries.into_iter().map(|(b, v)| (b, Arc::new(v))).collect() }
    }

    /// Number of non-empty buckets currently held.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Current bucket width in time units.
    pub fn bucket_width(&self) -> i64 {
        self.width
    }

    /// Removes every entry (the width is kept).
    pub fn clear(&mut self) {
        self.buckets.clear();
    }
}

/// One-pass builder of an [`ActiveOriginIndex`] for the bulk
/// constructions (the heap graph's rebuild and the segment writer),
/// which see events grouped by pair with origins in non-decreasing
/// order.
///
/// Over a known span the width is fixed by
/// [`ActiveOriginIndex::preset_span`], which never leaves more buckets
/// than the coarsening cap (258 unless the span overflows `i64`). So the
/// buckets are a dense array, and an origin is appended to a bucket
/// unless it is already the bucket's last entry: ascending origins keep
/// every bucket sorted and deduplicated without a search or an insert.
/// The result equals recording every event through
/// [`ActiveOriginIndex::record`] after the preset. Without a span, or at
/// the first event outside it, the builder hands its buckets to an index
/// and goes on through `record`.
#[derive(Debug)]
pub(crate) struct IndexBuilder {
    state: BuildState,
}

#[derive(Debug)]
enum BuildState {
    /// Buckets `first ..` of width `1 << shift`, dense.
    Dense { shift: u32, first: i64, buckets: Vec<Vec<NodeId>>, last_origin: NodeId },
    /// The general path, for events outside the preset span.
    Sparse(ActiveOriginIndex),
}

impl IndexBuilder {
    /// A builder for events inside `span` (`None`: no preset width).
    pub fn new(span: Option<(Timestamp, Timestamp)>) -> Self {
        let mut index = ActiveOriginIndex::new();
        let Some((lo, hi)) = span.filter(|&(lo, hi)| lo <= hi) else {
            return Self { state: BuildState::Sparse(index) };
        };
        index.preset_span(lo, hi);
        let shift = index.width.trailing_zeros();
        let (first, last) = (lo >> shift, hi >> shift);
        let buckets = vec![Vec::new(); (last - first + 1) as usize];
        Self { state: BuildState::Dense { shift, first, buckets, last_origin: 0 } }
    }

    /// Notes an out-edge event of `origin` at time `t`. Origins must not
    /// decrease from one call to the next.
    #[inline]
    pub fn note(&mut self, origin: NodeId, t: Timestamp) {
        match &mut self.state {
            BuildState::Dense { shift, first, buckets, last_origin } => {
                debug_assert!(origin >= *last_origin, "origins must arrive in ascending order");
                *last_origin = origin;
                // The width is a power of two, so the arithmetic shift is
                // the flooring division `bucket_of` does.
                let b = (t >> *shift).wrapping_sub(*first);
                match usize::try_from(b).ok().and_then(|b| buckets.get_mut(b)) {
                    Some(v) => {
                        if v.last() != Some(&origin) {
                            v.push(origin);
                        }
                    }
                    _ => {
                        self.state = BuildState::Sparse(self.take_dense());
                        self.note(origin, t);
                    }
                }
            }
            BuildState::Sparse(index) => index.record(origin, t),
        }
    }

    /// Appends the buckets of a builder that noted only origins above
    /// every origin noted here, over the same preset span: the result
    /// equals one builder noting this builder's events, then `later`'s.
    ///
    /// # Panics
    /// Panics unless both builders are still dense over the same span
    /// or `later` noted nothing — which holds for builders over the exact
    /// span of the events they note.
    pub fn append(&mut self, later: IndexBuilder) {
        match (&mut self.state, later.state) {
            (
                BuildState::Dense { shift, first, buckets, last_origin },
                BuildState::Dense { shift: s, first: f, buckets: more, last_origin: l },
            ) if (*shift, *first) == (s, f) => {
                for (b, m) in buckets.iter_mut().zip(more) {
                    b.extend(m);
                }
                *last_origin = (*last_origin).max(l);
            }
            (_, BuildState::Sparse(index)) if index.num_buckets() == 0 => {}
            _ => panic!("appended index builders must stay dense over one preset span"),
        }
    }

    /// The dense buckets as an index (leaves the builder empty).
    fn take_dense(&mut self) -> ActiveOriginIndex {
        match &mut self.state {
            BuildState::Dense { shift, first, buckets, .. } => ActiveOriginIndex::from_raw_parts(
                1 << *shift,
                std::mem::take(buckets)
                    .into_iter()
                    .enumerate()
                    .filter(|(_, v)| !v.is_empty())
                    .map(|(i, v)| (*first + i as i64, v)),
            ),
            BuildState::Sparse(index) => std::mem::take(index),
        }
    }

    /// The finished index.
    pub fn finish(mut self) -> ActiveOriginIndex {
        self.take_dense()
    }
}

/// Incremental bulk-registration helper: notes the events of one sorted
/// series into an [`ActiveOriginIndex`] while skipping consecutive events
/// that land in the same bucket (the common case for a dense series,
/// making registration ~O(buckets touched) instead of O(events)).
///
/// The skip key includes the bucket *width*: [`ActiveOriginIndex::record`]
/// may coarsen the index mid-batch, and a bucket id computed under the
/// old width must never suppress a record under the new one (ids can
/// collide across widths — skipping then would silently drop index
/// entries).
///
/// Used by the heap graph's incremental paths (series merged into or
/// inserted into a live [`crate::TimeSeriesGraph`]); the bulk builds go
/// through `IndexBuilder`.
#[derive(Debug, Default)]
pub struct SeriesRecorder {
    /// `(width, bucket)` of the last recorded event, if any.
    last: Option<(i64, i64)>,
}

impl SeriesRecorder {
    /// A fresh recorder with no event noted yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets the last-noted bucket. Call between series; the skip is
    /// only valid within one consecutive, time-sorted event run.
    pub fn reset(&mut self) {
        self.last = None;
    }

    /// Notes one event of origin `u` at time `t`. Events must arrive in
    /// the order they appear within their series.
    #[inline]
    pub fn note(&mut self, index: &mut ActiveOriginIndex, u: NodeId, t: Timestamp) {
        let w = index.bucket_width();
        if self.last == Some((w, t.div_euclid(w))) {
            return;
        }
        index.record(u, t);
        let w = index.bucket_width(); // re-read: record may have coarsened
        self.last = Some((w, t.div_euclid(w)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collected(idx: &ActiveOriginIndex, a: i64, b: i64) -> Vec<NodeId> {
        let mut v = Vec::new();
        idx.origins_overlapping(a, b, &mut v);
        v
    }

    #[test]
    fn records_and_queries_by_window() {
        let mut idx = ActiveOriginIndex::new();
        idx.record(3, 10);
        idx.record(1, 10);
        idx.record(1, 10); // duplicate is a no-op
        idx.record(7, 50);
        assert_eq!(collected(&idx, 0, 20), vec![1, 3]);
        assert_eq!(collected(&idx, 0, 100), vec![1, 3, 7]);
        assert_eq!(collected(&idx, 40, 60), vec![7]);
        assert_eq!(collected(&idx, 20, 40), Vec::<NodeId>::new());
        assert_eq!(collected(&idx, 60, 40), Vec::<NodeId>::new());
    }

    #[test]
    fn coarsening_keeps_bucket_count_bounded_and_answers_identically() {
        let mut idx = ActiveOriginIndex::new();
        for t in 0..5000i64 {
            idx.record((t % 97) as NodeId, t);
        }
        assert!(idx.num_buckets() <= MAX_BUCKETS, "{}", idx.num_buckets());
        assert!(idx.bucket_width() > 1);
        // Wide query sees everything.
        assert_eq!(collected(&idx, 0, 5000).len(), 97);
        // Narrow queries stay a superset of the truth at bucket
        // resolution: origin (t % 97) for t in [100, 120] must appear.
        let got = collected(&idx, 100, 120);
        for t in 100..=120i64 {
            assert!(got.contains(&((t % 97) as NodeId)), "t={t}");
        }
    }

    #[test]
    fn range_restricted_lookup_shards_the_full_answer() {
        let mut idx = ActiveOriginIndex::new();
        for t in 0..3000i64 {
            idx.record((t % 61) as NodeId, t);
        }
        for (a, b) in [(0, 3000), (100, 120), (2950, 2999), (5000, 6000)] {
            let full = collected(&idx, a, b);
            // Disjoint shards partition the full candidate set.
            let mut stitched = Vec::new();
            let mut shard = Vec::new();
            for lo in (0..70u32).step_by(13) {
                idx.origins_overlapping_in_range(a, b, lo, (lo + 13).min(70), &mut shard);
                assert!(shard.windows(2).all(|w| w[0] < w[1]), "shard must be sorted+deduped");
                assert!(shard.iter().all(|&u| u >= lo && u < (lo + 13).min(70)));
                stitched.extend_from_slice(&shard);
            }
            assert_eq!(stitched, full, "window [{a},{b}]");
        }
        // Degenerate ranges are empty.
        let mut out = vec![99];
        idx.origins_overlapping_in_range(0, 3000, 10, 10, &mut out);
        assert!(out.is_empty());
        idx.origins_overlapping_in_range(3000, 0, 0, 70, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn negative_timestamps_bucket_correctly() {
        let mut idx = ActiveOriginIndex::new();
        idx.preset_span(-1000, 1000);
        idx.record(5, -900);
        idx.record(6, 900);
        assert_eq!(collected(&idx, -1000, 0), vec![5]);
        assert_eq!(collected(&idx, 0, 1000), vec![6]);
        assert_eq!(collected(&idx, -1000, 1000), vec![5, 6]);
    }

    #[test]
    fn eviction_drops_whole_buckets_below_the_floor() {
        let mut idx = ActiveOriginIndex::new();
        idx.preset_span(0, 1000);
        for t in (0..1000i64).step_by(10) {
            idx.record((t / 10) as NodeId, t);
        }
        let before = idx.num_buckets();
        idx.evict_below(500);
        assert!(idx.num_buckets() < before);
        // Everything at or above the floor's bucket survives.
        let got = collected(&idx, 0, 1000);
        for t in (500..1000i64).step_by(10) {
            assert!(got.contains(&((t / 10) as NodeId)), "t={t}");
        }
        // Origins whose bucket lies entirely below the floor are gone.
        assert!(!got.contains(&0));
    }

    #[test]
    fn preset_span_targets_the_cap() {
        let mut idx = ActiveOriginIndex::new();
        idx.preset_span(0, 1_000_000);
        for t in (0..1_000_000i64).step_by(1000) {
            idx.record(1, t);
        }
        assert!(idx.num_buckets() <= MAX_BUCKETS);
        assert_eq!(collected(&idx, 0, 1_000_000), vec![1]);
    }

    #[test]
    fn raw_parts_round_trip_reproduces_the_index() {
        let mut idx = ActiveOriginIndex::new();
        idx.preset_span(0, 100_000);
        for t in (0..100_000i64).step_by(37) {
            idx.record((t % 53) as NodeId, t);
        }
        let rebuilt = ActiveOriginIndex::from_raw_parts(
            idx.bucket_width(),
            idx.buckets().map(|(b, v)| (b, v.to_vec())),
        );
        assert_eq!(rebuilt, idx);
    }

    /// The one-pass builder must produce exactly the index that
    /// `record` builds over the preset span — also when an event falls
    /// outside the span, or no span is given.
    #[test]
    fn bulk_builder_equals_recording_every_event() {
        use flowmotif_util::{RngExt, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xB1D);
        for case in 0..40 {
            let (lo, hi) = match case % 4 {
                0 => (0, 0),
                1 => (-5_000, 5_000),
                2 => (i64::MIN, i64::MAX),
                _ => (rng.random_range(-1_000_000i64..0), rng.random_range(0i64..1_000_000)),
            };
            let mut events: Vec<(NodeId, Timestamp)> = (0..rng.random_range(0..300))
                .map(|_| (rng.random_range(0..40u32), rng.random_range(lo..=hi)))
                .collect();
            if case % 5 == 4 {
                events.push((rng.random_range(0..40u32), hi.saturating_add(1 << 20)));
            }
            events.sort_by_key(|&(u, _)| u);
            let span = (case % 7 != 6).then_some((lo, hi));
            let mut want = ActiveOriginIndex::new();
            if let Some((lo, hi)) = span {
                want.preset_span(lo, hi);
            }
            let mut builder = IndexBuilder::new(span);
            for &(u, t) in &events {
                want.record(u, t);
                builder.note(u, t);
            }
            assert_eq!(builder.finish(), want, "case {case}");
        }
    }

    #[test]
    fn clear_empties_but_keeps_width() {
        let mut idx = ActiveOriginIndex::new();
        idx.preset_span(0, 100_000);
        let w = idx.bucket_width();
        idx.record(1, 10);
        idx.clear();
        assert_eq!(idx.num_buckets(), 0);
        assert_eq!(idx.bucket_width(), w);
        assert_eq!(collected(&idx, 0, 100_000), Vec::<NodeId>::new());
    }
}
