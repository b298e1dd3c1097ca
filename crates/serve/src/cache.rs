//! The LRU result cache.
//!
//! Replies are cached by the 128-bit run key from
//! [`powerchop_checkpoint::run_key`]: program fingerprint in the high
//! half, manager + configuration fingerprint in the low half. Two
//! requests collide only when they would produce bit-identical reports
//! (same program bytes, same manager, same budget/scale/fault schedule),
//! so a hit can be replayed verbatim.
//!
//! The store is a `VecDeque` in recency order (front = coldest). At the
//! daemon's default capacity of 64 entries a linear scan is faster than
//! any hashed structure's constant factors, and it keeps this crate
//! allocation-predictable.
//!
//! The daemon wraps it in a [`ShardedCache`]: one independently-locked
//! [`ResultCache`] per worker, selected by a hash of the run key, so
//! completion callbacks on different workers never contend on a single
//! global cache lock. Hit/miss accounting stays aggregated in the server's metrics
//! registry, so sharding is invisible in `/metrics`.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A fixed-capacity least-recently-used map from run key to reply.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    entries: VecDeque<(u128, String)>,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` replies. A capacity of
    /// zero disables caching entirely: every `get` misses, every `put`
    /// is a no-op.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: VecDeque::with_capacity(capacity.min(1024)),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: u128) -> Option<String> {
        let index = self.entries.iter().position(|(k, _)| *k == key)?;
        // Move to the back (most recent) so hot entries survive eviction.
        let entry = self.entries.remove(index)?;
        let value = entry.1.clone();
        self.entries.push_back(entry);
        Some(value)
    }

    /// Inserts (or refreshes) `key`, evicting the coldest entry when at
    /// capacity.
    pub fn put(&mut self, key: u128, value: String) {
        if self.capacity == 0 {
            return;
        }
        if let Some(index) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(index);
        } else if self.entries.len() >= self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back((key, value));
    }

    /// Number of cached replies.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The live entries in recency order (coldest first). Replaying
    /// these through [`ResultCache::put`] in order reproduces the cache
    /// exactly — the persistence layer compacts its log from this.
    pub fn entries(&self) -> impl Iterator<Item = (u128, &str)> {
        self.entries.iter().map(|(k, v)| (*k, v.as_str()))
    }
}

/// Locks a shard, riding through poisoning (a panicked holder cannot
/// corrupt the recency list in a way readers care about).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Mixes a 128-bit run key down to a shard index. SplitMix64's finisher
/// over the xor-folded halves: the run key is already a fingerprint, but
/// folding alone would let structured low bits skew the shards.
fn shard_of(key: u128, shards: usize) -> usize {
    let mut x = (key as u64) ^ ((key >> 64) as u64);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

/// A result cache split into independently-locked LRU shards.
///
/// The total capacity is divided evenly across shards (rounded up, so
/// the configured capacity is a floor, not a ceiling). A key always
/// hashes to the same shard, so recency and eviction are per-shard —
/// the standard sharded-LRU tradeoff for killing lock contention.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<Mutex<ResultCache>>,
    capacity: usize,
}

impl ShardedCache {
    /// A cache of `shards` shards holding `capacity` replies in total
    /// (0 disables caching). At least one shard always exists.
    #[must_use]
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shards)
        };
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(ResultCache::new(per_shard)))
                .collect(),
            capacity,
        }
    }

    /// Looks up `key` in its shard, refreshing recency on a hit.
    pub fn get(&self, key: u128) -> Option<String> {
        lock(&self.shards[shard_of(key, self.shards.len())]).get(key)
    }

    /// Inserts (or refreshes) `key` in its shard. Returns whether the
    /// cache is enabled at all — callers use this to skip write-through
    /// persistence when caching is off.
    pub fn put(&self, key: u128, value: String) -> bool {
        if self.capacity == 0 {
            return false;
        }
        lock(&self.shards[shard_of(key, self.shards.len())]).put(key, value);
        true
    }

    /// Cached replies across every shard.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Whether every shard is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured total capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many shards back the cache.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Absorbs a flat cache (the boot-time reload path): entries are
    /// redistributed to their shards in the flat cache's recency order,
    /// so per-shard recency reproduces the persisted order.
    pub fn absorb(&self, flat: ResultCache) {
        for (key, value) in flat.entries() {
            self.put(key, value.to_owned());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_is_least_recently_used() {
        let mut c = ResultCache::new(2);
        c.put(1, "one".into());
        c.put(2, "two".into());
        // Touch 1 so 2 becomes the coldest entry.
        assert_eq!(c.get(1).as_deref(), Some("one"));
        c.put(3, "three".into());
        assert_eq!(c.get(2), None, "coldest entry evicted");
        assert_eq!(c.get(1).as_deref(), Some("one"));
        assert_eq!(c.get(3).as_deref(), Some("three"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn put_refreshes_existing_keys_without_growth() {
        let mut c = ResultCache::new(2);
        c.put(1, "old".into());
        c.put(2, "two".into());
        c.put(1, "new".into());
        assert_eq!(c.len(), 2);
        c.put(3, "three".into());
        assert_eq!(c.get(2), None, "refreshed key outlived the other");
        assert_eq!(c.get(1).as_deref(), Some("new"));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ResultCache::new(0);
        c.put(1, "one".into());
        assert!(c.is_empty());
        assert_eq!(c.get(1), None);
    }

    #[test]
    fn sharded_cache_round_trips_across_shards() {
        let c = ShardedCache::new(64, 4);
        assert_eq!(c.shard_count(), 4);
        for k in 0..32u128 {
            assert!(c.put(k, format!("r{k}")));
        }
        for k in 0..32u128 {
            assert_eq!(c.get(k).as_deref(), Some(format!("r{k}").as_str()));
        }
        assert_eq!(c.len(), 32);
        assert_eq!(c.capacity(), 64);
    }

    #[test]
    fn sharded_keys_are_stable_and_capacity_is_a_floor() {
        // The same key must land in the same shard every time, and the
        // per-shard split must never shrink the total below the
        // configured capacity.
        let c = ShardedCache::new(10, 3);
        for k in 0..10u128 {
            c.put(k, "x".into());
        }
        assert!(c.len() >= 10.min(c.capacity()) - 3, "skew tolerated");
        for k in 0..10u128 {
            let first = c.get(k).is_some();
            assert_eq!(c.get(k).is_some(), first, "stable placement for {k}");
        }
    }

    #[test]
    fn sharded_zero_capacity_disables_and_absorb_restores_recency() {
        let off = ShardedCache::new(0, 4);
        assert!(!off.put(1, "one".into()));
        assert_eq!(off.get(1), None);

        let mut flat = ResultCache::new(8);
        flat.put(1, "one".into());
        flat.put(2, "two".into());
        let c = ShardedCache::new(8, 2);
        c.absorb(flat);
        assert_eq!(c.get(1).as_deref(), Some("one"));
        assert_eq!(c.get(2).as_deref(), Some("two"));
        assert_eq!(c.len(), 2);
    }
}
