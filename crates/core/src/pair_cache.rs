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
//! The two differ in what they admit. The session cache stores every
//! key it derives ([`PairCache::get_or_insert_with`]). The route cache
//! stores a plan on the pair's second request ([`PairCache::admit`]):
//! the first leaves a marker, an empty slot, so a pair asked once
//! costs the map a key and a null pointer instead of a plan.
//!
//! Both the shard and the slot within it come from one SplitMix-style
//! scramble of the packed pair (`PairHasher`) instead of SipHash:
//! keys are building ids the program assigns, never input an attacker
//! could pick to collide, and no result depends on a shard's iteration
//! order ([`PairCache::retain`] only counts what it drops).
//!
//! A poisoned shard (a panic while its write lock was held, i.e. inside
//! a [`PairCache::retain`] predicate) is used as is: every slot is a
//! marker or a complete `Arc` written in one step, so whatever the
//! shard holds is still a valid memo.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of independently locked shards. A small power of two:
/// enough to keep 8–16 workers off each other's locks, few enough that
/// a full eviction sweep stays cheap.
const SHARDS: usize = 16;

/// One shard: a plain map behind its own lock. `None` is a marker: the
/// pair was asked once and holds no value (the same 8 bytes as an
/// `Arc`).
type Shard<V> = RwLock<HashMap<(u32, u32), Option<Arc<V>>, BuildHasherDefault<PairHasher>>>;

/// What [`PairCache::admit`] found for a pair.
#[derive(Debug)]
pub enum Admission<V> {
    /// The pair's value.
    Hit(Arc<V>),
    /// The pair's first request: it now holds a marker, and the caller
    /// computes a value it does not [`PairCache::insert`].
    First,
    /// A later request of a pair holding no value: the caller computes
    /// it and [`PairCache::insert`]s it.
    Second,
}

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
/// use citymesh_core::{Admission, PairCache};
///
/// let cache = PairCache::new();
/// let (first, computed) = cache.get_or_insert_with((1, 2), || "derived");
/// assert!(computed);
/// let (again, computed) = cache.get_or_insert_with((1, 2), || unreachable!());
/// assert!(!computed);
/// assert!(std::sync::Arc::ptr_eq(&first, &again));
///
/// // Admission stores a pair's value on its second request only.
/// assert!(matches!(cache.admit((3, 4)), Admission::First));
/// assert!(matches!(cache.admit((3, 4)), Admission::Second));
/// cache.insert((3, 4), "planned");
/// assert!(matches!(cache.admit((3, 4)), Admission::Hit(_)));
/// assert_eq!((cache.hits(), cache.misses(), cache.len()), (2, 3, 2));
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

    /// The value for `key`, computing and storing it with `make` on a
    /// miss (a marker counts as a miss). The boolean is `true` when this
    /// call missed and computed — schedule-dependent, since racing
    /// workers may both miss.
    #[inline]
    pub fn get_or_insert_with(&self, key: (u32, u32), make: impl FnOnce() -> V) -> (Arc<V>, bool) {
        if let Some(found) = self.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (found, false);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        (self.insert(key, make()), true)
    }

    /// Decides whether `key` is stored, under its shard's write lock:
    /// the pair's value if it holds one, [`Admission::First`] for the
    /// pair's first request (which leaves a marker), and
    /// [`Admission::Second`] for every later one until a value is
    /// inserted. Deciding under the lock makes admission a function of
    /// how often each pair was asked, whatever the schedule: after any
    /// set of requests, exactly the pairs asked twice or more are
    /// stored once their callers have inserted. Any request that does
    /// not hit counts as a miss.
    #[inline]
    pub fn admit(&self, key: (u32, u32)) -> Admission<V> {
        if let Some(found) = self.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Admission::Hit(found);
        }
        let admission = match write(self.shard(key)).entry(key) {
            Entry::Occupied(slot) => match slot.get() {
                // Inserted by a racing caller since the read.
                Some(found) => Admission::Hit(Arc::clone(found)),
                None => Admission::Second,
            },
            Entry::Vacant(slot) => {
                slot.insert(None);
                Admission::First
            }
        };
        let counter = match admission {
            Admission::Hit(_) => &self.hits,
            _ => &self.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        admission
    }

    /// Stores `value` for `key` unless a racing caller stored one
    /// first, and returns the stored one, so all callers share one
    /// allocation.
    pub fn insert(&self, key: (u32, u32), value: V) -> Arc<V> {
        let made = Arc::new(value);
        let mut guard = write(self.shard(key));
        let kept = guard.entry(key).or_insert(None).get_or_insert(made);
        Arc::clone(kept)
    }

    /// The value `key` holds, under a read lock.
    #[inline]
    fn get(&self, key: (u32, u32)) -> Option<Arc<V>> {
        read(self.shard(key)).get(&key)?.clone()
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses (= values computed) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Values stored across all shards (markers are not counted).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| read(s).values().filter(|v| v.is_some()).count())
            .sum()
    }

    /// Whether the cache holds no value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keeps the values `keep` accepts and returns how many it dropped;
    /// `keep` sees values only. A dropped value leaves a marker, so the
    /// pair's next [`PairCache::admit`] is [`Admission::Second`]: a pair
    /// that has repeated is admitted again on its next request. Shards
    /// are swept one at a time under their own write locks, so readers
    /// of other shards are unaffected.
    pub fn retain(&self, mut keep: impl FnMut(&(u32, u32), &V) -> bool) -> u64 {
        let mut dropped = 0;
        for shard in &self.shards {
            for (key, slot) in write(shard).iter_mut() {
                if slot.as_ref().is_some_and(|value| !keep(key, value)) {
                    *slot = None;
                    dropped += 1;
                }
            }
        }
        dropped
    }

    /// Drops every value and returns how many there were.
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
    fn admission_stores_a_pair_on_its_second_request() {
        let cache = PairCache::new();
        assert!(matches!(cache.admit((1, 2)), Admission::First));
        assert!(cache.is_empty(), "a marker is not a value");
        for _ in 0..2 {
            assert!(matches!(cache.admit((1, 2)), Admission::Second));
        }
        let stored = cache.insert((1, 2), 12);
        let again = cache.insert((1, 2), 99);
        assert!(Arc::ptr_eq(&stored, &again), "the first insert wins");
        match cache.admit((1, 2)) {
            Admission::Hit(v) => assert!(Arc::ptr_eq(&v, &stored)),
            other => panic!("expected a hit, got {other:?}"),
        }
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 3, 1));
        // A marker is a miss to the storing path too.
        assert!(matches!(cache.admit((5, 6)), Admission::First));
        assert!(cache.get_or_insert_with((5, 6), || 56).1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn a_dropped_value_leaves_a_marker() {
        let cache = PairCache::new();
        cache.admit((1, 2));
        cache.admit((3, 4));
        cache.admit((3, 4));
        cache.insert((3, 4), 34);
        let mut seen = Vec::new();
        let dropped = cache.retain(|&key, &v| {
            seen.push((key, v));
            false
        });
        assert_eq!(seen, vec![((3, 4), 34)], "the predicate sees values only");
        assert_eq!((dropped, cache.len()), (1, 0));
        // Both pairs have been asked before: each is admitted next time.
        assert!(matches!(cache.admit((3, 4)), Admission::Second));
        assert!(matches!(cache.admit((1, 2)), Admission::Second));
    }

    #[test]
    fn racing_admissions_decide_first_once() {
        let cache = PairCache::<u32>::new();
        let firsts = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| s.spawn(|| matches!(cache.admit((7, 9)), Admission::First)))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap())
                .filter(|&first| first)
                .count()
        });
        assert_eq!(firsts, 1, "exactly one request is the pair's first");
        assert_eq!(cache.misses(), 4);
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
