//! The epoch-keyed result cache: framed `query`/`count` replies keyed
//! by `(epoch, spec)`, served straight from the event loop on a hit.
//!
//! Snapshots are immutable and epoch-stamped, so an exact-match lookup
//! keyed by the *currently published* epoch can never serve stale data:
//! a publish changes the key, which is the entire invalidation story.
//! Entries for superseded epochs linger harmlessly until capacity
//! pressure evicts them (least-recently-used first).

use crate::lock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A cache key: the published epoch plus the canonical spec string
/// (verb, motif walk, δ, ϕ, window, extension order — everything that
/// selects a reply, see [`crate::server`]'s `cache_key`).
pub(crate) type CacheKey = (u64, String);

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

    fn key(epoch: u64, s: &str) -> CacheKey {
        (epoch, s.to_string())
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let c = ResultCache::new(2);
        c.insert(key(1, "a"), "ra".into());
        c.insert(key(1, "b"), "rb".into());
        assert_eq!(c.get(&key(1, "a")).as_deref(), Some("ra")); // refresh a
        c.insert(key(1, "c"), "rc".into()); // evicts b
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert!(c.get(&key(1, "b")).is_none());
        assert_eq!(c.get(&key(1, "a")).as_deref(), Some("ra"));
        assert_eq!(c.get(&key(1, "c")).as_deref(), Some("rc"));
    }

    #[test]
    fn epoch_is_part_of_the_key() {
        let c = ResultCache::new(8);
        c.insert(key(1, "q"), "old".into());
        c.insert(key(2, "q"), "new".into());
        assert_eq!(c.get(&key(1, "q")).as_deref(), Some("old"));
        assert_eq!(c.get(&key(2, "q")).as_deref(), Some("new"));
        assert!(c.get(&key(3, "q")).is_none());
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let c = ResultCache::new(0);
        c.insert(key(1, "q"), "r".into());
        assert_eq!(c.len(), 0);
        assert!(c.get(&key(1, "q")).is_none());
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let c = ResultCache::new(2);
        c.insert(key(1, "a"), "ra".into());
        c.insert(key(1, "b"), "rb".into());
        c.insert(key(1, "a"), "ra2".into());
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.get(&key(1, "a")).as_deref(), Some("ra2"));
        assert_eq!(c.get(&key(1, "b")).as_deref(), Some("rb"));
    }
}
