//! The epoch-keyed result cache: framed `query`/`count` replies keyed
//! by `(epoch, spec)`, served straight from the event loop on a hit.
//!
//! Snapshots are immutable and epoch-stamped, so an exact-match lookup
//! keyed by the *currently published* epoch can never serve stale data:
//! a publish changes the key, which is the entire invalidation story.
//! Entries for superseded epochs linger harmlessly until capacity
//! pressure evicts them (least-recently-used first).

use crate::lock;
use crate::protocol::QuerySpec;
use flowmotif_core::{ExtensionOrder, SpanningPath};
use flowmotif_graph::{TimeWindow, Timestamp};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A cache key: the published epoch plus everything that selects a
/// `query`/`count` reply's bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    epoch: u64,
    /// Boxed so that the map's buckets stay small: with the spec inline
    /// (104-byte buckets) a full cache's table passes glibc's 128 KiB
    /// mmap threshold, and `serve-read`'s peak RSS measured ≈0.8 MiB
    /// (5%) higher.
    spec: Box<SpecKey>,
}

/// The verb, the motif walk, δ, ϕ (by its bits), the window and the
/// extension order of a request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SpecKey {
    /// `query` (materialised instances) rather than `count`.
    materialise: bool,
    walk: SpanningPath,
    delta: Timestamp,
    phi_bits: u64,
    window: Option<TimeWindow>,
    order: Option<ExtensionOrder>,
}

impl CacheKey {
    /// The key of `spec`'s reply at `epoch`.
    pub(crate) fn new(epoch: u64, spec: &QuerySpec, materialise: bool) -> Self {
        let spec = Box::new(SpecKey {
            materialise,
            walk: spec.motif.path().clone(),
            delta: spec.motif.delta(),
            phi_bits: spec.motif.phi().to_bits(),
            window: spec.window,
            order: spec.order,
        });
        Self { epoch, spec }
    }
}

#[derive(Debug)]
struct Entry {
    reply: Arc<str>,
    /// Logical access clock at last touch; the eviction victim is the
    /// entry with the smallest stamp.
    touched: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<CacheKey, Entry>,
    clock: u64,
}

/// A bounded LRU of framed replies. `get` is O(1); `insert` pays an
/// O(capacity) victim scan only when full — amortised against the cold
/// engine query whose result it is storing, this is noise, and it keeps
/// the structure a plain map instead of an intrusive list.
#[derive(Debug)]
pub(crate) struct ResultCache {
    inner: Mutex<Inner>,
    capacity: usize,
    evictions: AtomicU64,
}

impl ResultCache {
    /// A cache holding at most `capacity` replies; 0 disables caching
    /// (every lookup misses, every insert is dropped).
    pub(crate) fn new(capacity: usize) -> Self {
        Self { inner: Mutex::new(Inner::default()), capacity, evictions: AtomicU64::new(0) }
    }

    /// Looks up a reply, refreshing its recency on a hit.
    pub(crate) fn get(&self, key: &CacheKey) -> Option<Arc<str>> {
        let mut inner = lock(&self.inner);
        inner.clock += 1;
        let clock = inner.clock;
        let e = inner.map.get_mut(key)?;
        e.touched = clock;
        Some(Arc::clone(&e.reply))
    }

    /// Stores a reply, evicting the least-recently-used entry when full.
    pub(crate) fn insert(&self, key: CacheKey, reply: Arc<str>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = lock(&self.inner);
        inner.clock += 1;
        let clock = inner.clock;
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&key) {
            if let Some(victim) =
                inner.map.iter().min_by_key(|(_, e)| e.touched).map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.map.insert(key, Entry { reply, touched: clock });
    }

    /// Entries currently held (the `cache_entries` gauge).
    pub(crate) fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    /// Entries evicted under capacity pressure since construction.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The key of a `count` of M(3,2) with δ `delta` at `epoch`.
    fn key(epoch: u64, delta: i64) -> CacheKey {
        let motif = flowmotif_core::catalog::by_name("M(3,2)", delta, 0.0).unwrap();
        CacheKey::new(epoch, &QuerySpec { motif, window: None, order: None }, false)
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let c = ResultCache::new(2);
        c.insert(key(1, 1), "ra".into());
        c.insert(key(1, 2), "rb".into());
        assert_eq!(c.get(&key(1, 1)).as_deref(), Some("ra")); // refresh a
        c.insert(key(1, 3), "rc".into()); // evicts b
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert!(c.get(&key(1, 2)).is_none());
        assert_eq!(c.get(&key(1, 1)).as_deref(), Some("ra"));
        assert_eq!(c.get(&key(1, 3)).as_deref(), Some("rc"));
    }

    #[test]
    fn epoch_is_part_of_the_key() {
        let c = ResultCache::new(8);
        c.insert(key(1, 4), "old".into());
        c.insert(key(2, 4), "new".into());
        assert_eq!(c.get(&key(1, 4)).as_deref(), Some("old"));
        assert_eq!(c.get(&key(2, 4)).as_deref(), Some("new"));
        assert!(c.get(&key(3, 4)).is_none());
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let c = ResultCache::new(0);
        c.insert(key(1, 4), "r".into());
        assert_eq!(c.len(), 0);
        assert!(c.get(&key(1, 4)).is_none());
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let c = ResultCache::new(2);
        c.insert(key(1, 1), "ra".into());
        c.insert(key(1, 2), "rb".into());
        c.insert(key(1, 1), "ra2".into());
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.get(&key(1, 1)).as_deref(), Some("ra2"));
        assert_eq!(c.get(&key(1, 2)).as_deref(), Some("rb"));
    }
}
