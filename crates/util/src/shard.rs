//! A lock-sharded concurrent map with a sorted-drain iteration adapter.
//!
//! Replaces the pattern of one global `Mutex<BTreeMap>` protecting a
//! memoization cache: lookups hash-select one of 16 shards (so concurrent
//! workers rarely collide on a lock, and each probe is O(1) instead of a
//! tree walk), while [`ShardMap::sorted_entries`] is the *only* way to see
//! more than one entry at a time — it collects and key-sorts, so any path
//! that drains a cache for diagnostics is deterministic by construction,
//! not by keeping the lookup path ordered.
//!
//! Every lock acquisition's wait time is recorded in a [`Hist`], the same
//! histogram the runner's wall times use, so cache-lock contention is
//! observable wherever the map is embedded.

use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use crate::{FastHashMap, FastHasher, Hist};

const SHARDS: usize = 16;

/// A concurrent map sharded over 16 hash-selected mutexes.
#[derive(Debug)]
pub struct ShardMap<K, V> {
    shards: Vec<Mutex<FastHashMap<K, V>>>,
    /// Lock-wait histogram per shard (summed on read): workers touch only
    /// their shard's counters, so observability never recreates the
    /// single contended cache line the sharding removed.
    wait_hist: Vec<Hist>,
}

impl<K: Hash + Ord + Clone, V: Clone> ShardMap<K, V> {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> ShardMap<K, V> {
        ShardMap {
            shards: (0..SHARDS).map(|_| Mutex::new(FastHashMap::default())).collect(),
            wait_hist: (0..SHARDS).map(|_| Hist::default()).collect(),
        }
    }

    fn lock_shard(&self, key: &K) -> MutexGuard<'_, FastHashMap<K, V>> {
        let mut h = FastHasher::default();
        key.hash(&mut h);
        let shard = (h.finish() as usize) % SHARDS;
        // Fast path: an uncontended acquisition waits ~0 ms, so it lands in
        // the first bucket without paying for two clock reads per probe.
        // Only a blocked acquisition is actually timed.
        match self.shards[shard].try_lock() {
            Ok(guard) => {
                self.wait_hist[shard].observe_ms(0);
                return guard;
            }
            Err(std::sync::TryLockError::Poisoned(_)) => panic!("shard lock poisoned"),
            Err(std::sync::TryLockError::WouldBlock) => {}
        }
        let t0 = Instant::now();
        let guard = self.shards[shard].lock().expect("shard lock poisoned");
        self.wait_hist[shard].observe(t0.elapsed());
        guard
    }

    /// Clones the value for `key` out of the map (the shard guard is
    /// dropped before returning, so callers never hold a lock across their
    /// own work).
    #[must_use]
    pub fn get(&self, key: &K) -> Option<V> {
        self.lock_shard(key).get(key).cloned()
    }

    /// Whether `key` is present.
    #[must_use]
    pub fn contains(&self, key: &K) -> bool {
        self.lock_shard(key).contains_key(key)
    }

    /// Inserts `make()` if `key` is absent; returns a clone of the stored
    /// value either way. `make` runs under the shard lock, so callers doing
    /// expensive work compute it *before* calling and pass a cheap clone.
    pub fn get_or_insert_with(&self, key: K, make: impl FnOnce() -> V) -> V {
        self.lock_shard(&key).entry(key).or_insert_with(make).clone()
    }

    /// Removes and returns the value for `key`, if present (cache
    /// eviction).
    pub fn remove(&self, key: &K) -> Option<V> {
        self.lock_shard(key).remove(key)
    }

    /// Total entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("shard lock poisoned").len()).sum()
    }

    /// Whether the map holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sorted-drain adapter: clones every entry and returns them in
    /// ascending key order. This is the only multi-entry view of the map,
    /// which is what keeps `no-unordered-iteration` satisfied by
    /// construction for any diagnostic or report path built on top.
    #[must_use]
    pub fn sorted_entries(&self) -> Vec<(K, V)> {
        let mut out: Vec<(K, V)> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let guard = shard.lock().expect("shard lock poisoned");
            out.extend(guard.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The lock-wait histogram summed over every shard (bucket bounds
    /// [`crate::HIST_BOUNDS_MS`], last bucket unbounded).
    #[must_use]
    pub fn wait_hist(&self) -> [u64; 8] {
        let shards: Vec<[u64; 8]> = self.wait_hist.iter().map(Hist::snapshot).collect();
        std::array::from_fn(|i| shards.iter().map(|h| h[i]).sum())
    }
}

impl<K: Hash + Ord + Clone, V: Clone> Default for ShardMap<K, V> {
    fn default() -> Self {
        ShardMap::new()
    }
}

/// `BuildHasher` used by the shard maps (exposed for tests that want to
/// pre-hash keys the same way).
pub type ShardBuildHasher = BuildHasherDefault<FastHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_insert_returns_first_value() {
        let m: ShardMap<u64, u64> = ShardMap::new();
        assert_eq!(m.get(&3), None);
        assert_eq!(m.get_or_insert_with(3, || 30), 30);
        assert_eq!(m.get_or_insert_with(3, || 99), 30);
        assert_eq!(m.get(&3), Some(30));
        assert!(m.contains(&3));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(&3), Some(30));
        assert_eq!(m.remove(&3), None);
        assert!(!m.contains(&3));
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn sorted_entries_are_key_ordered_across_shards() {
        let m: ShardMap<u64, u64> = ShardMap::new();
        for k in (0..1000u64).rev() {
            let _ = m.get_or_insert_with(k, || k * 2);
        }
        let entries = m.sorted_entries();
        assert_eq!(entries.len(), 1000);
        for (i, (k, v)) in entries.iter().enumerate() {
            assert_eq!(*k, i as u64);
            assert_eq!(*v, k * 2);
        }
    }

    #[test]
    fn wait_histogram_counts_acquisitions() {
        let m: ShardMap<u64, u64> = ShardMap::new();
        let _ = m.get(&1);
        let _ = m.get_or_insert_with(2, || 2);
        let hist = m.wait_hist();
        assert_eq!(hist.iter().sum::<u64>(), 2);
    }

    #[test]
    fn concurrent_inserts_land_exactly_once() {
        let m: ShardMap<u64, u64> = ShardMap::new();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let m = &m;
                s.spawn(move || {
                    for k in 0..200u64 {
                        let _ = m.get_or_insert_with(k, || k + t * 1000);
                    }
                });
            }
        });
        assert_eq!(m.len(), 200);
        for (k, v) in m.sorted_entries() {
            assert_eq!(v % 1000, k);
        }
    }
}
