//! The sharded building-pair memo behind both of the workspace's
//! caches: the fleet's route cache (`(src, dst)` → planned flow) and
//! the secure plane's session cache (unordered pair → session key).
//!
//! Each memoizes a pure function of a building pair, so the rules are
//! the same: the value is computed outside any lock (a slow plan or an
//! X25519 exchange never blocks readers of its shard), two workers
//! racing on one missing pair may both compute it, and the first insert
//! wins, so every caller shares one allocation. A hit is a shard
//! read-lock and an `Arc` clone — no allocation.
//!
//! Both the shard and the slot within it come from one SplitMix-style
//! scramble of the packed pair (`PairHasher`) instead of SipHash:
//! keys are building ids the program assigns, never input an attacker
//! could pick to collide, and no result depends on a shard's iteration
//! order ([`PairCache::retain`] only counts what it drops).
//!
//! A poisoned shard (a panic while its write lock was held, i.e. inside
//! a [`PairCache::retain`] predicate) is used as is: every entry is a
//! complete `Arc` inserted in one step, so whatever the shard holds is
//! still a valid memo.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of independently locked shards. A small power of two:
/// enough to keep 8–16 workers off each other's locks, few enough that
/// a full eviction sweep stays cheap.
const SHARDS: usize = 16;

/// One shard: a plain map behind its own lock.
type Shard<V> = RwLock<HashMap<(u32, u32), Arc<V>, BuildHasherDefault<PairHasher>>>;

/// Hashes a `(u32, u32)` key by packing it into one word and
/// scrambling that, SplitMix style. The map picks slots from the low
/// bits and the shard comes from bits 32 and up, so the keys one shard
/// holds still spread over its slots.
#[derive(Default)]
struct PairHasher(u64);

impl PairHasher {
    fn scramble(packed: u64) -> u64 {
        let z = packed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^ (z >> 29)
    }
}

impl Hasher for PairHasher {
    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 << 32) | u64::from(n);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }

    fn finish(&self) -> u64 {
        Self::scramble(self.0)
    }
}

/// A concurrent `(u32, u32) → Arc<V>` memo with hit and miss counters.
///
/// ```
/// use citymesh_core::PairCache;
///
/// let cache = PairCache::new();
/// let (first, computed) = cache.get_or_insert_with((1, 2), || "planned");
/// assert!(computed);
/// let (again, computed) = cache.get_or_insert_with((1, 2), || unreachable!());
/// assert!(!computed);
/// assert!(std::sync::Arc::ptr_eq(&first, &again));
/// assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
/// ```
pub struct PairCache<V> {
    shards: [Shard<V>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> Default for PairCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> PairCache<V> {
    /// An empty cache.
    pub fn new() -> Self {
        PairCache {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::default())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard(&self, key: (u32, u32)) -> &Shard<V> {
        let z = PairHasher::scramble((u64::from(key.0) << 32) | u64::from(key.1));
        &self.shards[(z >> 32) as usize % SHARDS]
    }

    /// The value for `key`, computing it with `make` on a miss. The
    /// boolean is `true` when this call missed and computed —
    /// schedule-dependent, since racing workers may both miss.
    #[inline]
    pub fn get_or_insert_with(&self, key: (u32, u32), make: impl FnOnce() -> V) -> (Arc<V>, bool) {
        let shard = self.shard(key);
        if let Some(found) = read(shard).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(found), false);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let made = Arc::new(make());
        let mut guard = write(shard);
        // A racing worker may have inserted meanwhile; keep whichever
        // is present so all callers share one allocation.
        let kept = guard.entry(key).or_insert_with(|| Arc::clone(&made));
        (Arc::clone(kept), true)
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses (= values computed) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read(s).len()).sum()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keeps the entries `keep` accepts and returns how many it
    /// dropped. Shards are swept one at a time under their own write
    /// locks, so readers of other shards are unaffected.
    pub fn retain(&self, mut keep: impl FnMut(&(u32, u32), &V) -> bool) -> u64 {
        let mut dropped = 0;
        for shard in &self.shards {
            let mut guard = write(shard);
            let before = guard.len();
            guard.retain(|key, value| keep(key, value));
            dropped += (before - guard.len()) as u64;
        }
        dropped
    }

    /// Drops every entry and returns how many there were.
    pub fn clear(&self) -> u64 {
        self.retain(|_, _| false)
    }
}

fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computes_once_per_key_and_counts() {
        let cache = PairCache::new();
        let mut computed = 0;
        for _ in 0..3 {
            let (v, _) = cache.get_or_insert_with((1, 2), || {
                computed += 1;
                12
            });
            assert_eq!(*v, 12);
        }
        assert_eq!(computed, 1, "a value is computed once per key");
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (2, 1, 1));
        // Keys are ordered pairs; a caller wanting unordered ones
        // canonicalizes before asking.
        assert!(cache.get_or_insert_with((2, 1), || 21).1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn racing_inserters_share_one_arc() {
        let cache = PairCache::new();
        let ptrs: Vec<usize> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| Arc::as_ptr(&cache.get_or_insert_with((7, 9), || 79).0) as usize)
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(
            ptrs.windows(2).all(|w| w[0] == w[1]),
            "all threads must share the first insertion"
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits() + cache.misses(), 4);
    }

    #[test]
    fn retain_counts_what_it_drops() {
        let cache = PairCache::new();
        for a in 0..10u32 {
            for b in 0..10u32 {
                cache.get_or_insert_with((a, b), || a * 10 + b);
            }
        }
        let dropped = cache.retain(|&(a, b), _| a != 3 && b != 3);
        assert_eq!(dropped, 19, "row 3 and column 3");
        assert_eq!(cache.len(), 81);
        assert_eq!(cache.retain(|_, &v| v % 2 == 0), 36, "the odd survivors");
        assert_eq!(cache.clear(), 45);
        assert!(cache.is_empty());
    }

    #[test]
    fn a_poisoned_shard_keeps_serving() {
        let cache = PairCache::new();
        cache.get_or_insert_with((1, 1), || 1);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.retain(|_, _| panic!("predicate panics under the write lock"))
        }));
        assert!(panicked.is_err());
        assert_eq!(*cache.get_or_insert_with((1, 1), || 0).0, 1);
        assert_eq!(cache.clear(), 1);
    }
}
