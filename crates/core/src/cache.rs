//! Memoized transmission orders.
//!
//! The adaptive loop re-runs `calculatePermutation(n, b)` every time the
//! burst estimate changes — and estimates revisit the same handful of
//! values constantly (eq. 1 is a smoothing filter), so the exact search
//! recomputes identical orders thousands of times per experiment.
//! [`calculate_permutation_cached`] memoizes the search behind an
//! [`OrderCache`] (`RwLock<HashMap>`) keyed by `(n, b)`.
//!
//! The cache is process-global and thread-safe: a sweep's worker threads
//! share one warm cache. Lookups never hold a lock while computing — on
//! a racing miss both threads compute (the search is deterministic and
//! idempotent) and the first insert wins, so every caller sees the same
//! [`Arc`].
//!
//! Every [`OrderCache`] is **bounded** ([`DEFAULT_CACHE_CAPACITY`]
//! entries): a long-lived server accumulating distinct keys evicts the
//! least-recently-used entry instead of growing without limit.
//! Evicted orders are simply recomputed on the next miss — correctness is
//! unaffected, only warmth.
//!
//! Hit/miss/eviction counts are exported through `espread-telemetry` as
//! `core.order_cache.{hits,misses,evictions}`, and are also available
//! lock-free via [`spread_cache_stats`].

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use crate::cpo::{calculate_permutation, SpreadChoice};

/// Default capacity for the process-global order caches. A long-lived
/// server revisits a small set of `(n, b)` pairs (eq. 1 smooths the burst
/// estimate), so a few thousand entries is generous; the bound exists to
/// stop adversarial or pathological key churn from growing the map without
/// limit (the same bug class as the unbounded handshake cache fixed in the
/// event-loop server).
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// One resident cache entry: the memoized value plus a recency stamp used
/// for LRU eviction. The stamp is atomic so hits (read lock only) can
/// refresh it without write contention.
#[derive(Debug)]
struct Entry<V> {
    value: Arc<V>,
    last_used: AtomicU64,
}

/// A thread-safe bounded memoization map with hit/miss/eviction accounting.
///
/// Capacity is enforced at insert time: when a miss would grow the map past
/// its bound, the least-recently-used entry is evicted first. Recency is a
/// per-entry atomic stamp from a cache-global tick, refreshed on every hit
/// under the read lock — so the hot steady-state path never takes the write
/// lock.
#[derive(Debug)]
pub struct OrderCache<K, V> {
    map: RwLock<HashMap<K, Entry<V>>>,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    hit_counter: &'static str,
    miss_counter: &'static str,
    evict_counter: &'static str,
}

/// Point-in-time cache counters (see [`spread_cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the map.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Entries displaced to respect the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the map (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl<K: Eq + Hash + Clone, V> OrderCache<K, V> {
    /// An empty cache with the [default capacity](DEFAULT_CACHE_CAPACITY),
    /// reporting through the given telemetry counters.
    pub fn new(
        hit_counter: &'static str,
        miss_counter: &'static str,
        evict_counter: &'static str,
    ) -> Self {
        OrderCache::with_capacity(
            DEFAULT_CACHE_CAPACITY,
            hit_counter,
            miss_counter,
            evict_counter,
        )
    }

    /// An empty cache holding at most `capacity` entries (clamped to ≥ 1).
    pub fn with_capacity(
        capacity: usize,
        hit_counter: &'static str,
        miss_counter: &'static str,
        evict_counter: &'static str,
    ) -> Self {
        OrderCache {
            map: RwLock::new(HashMap::new()),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            hit_counter,
            miss_counter,
            evict_counter,
        }
    }

    /// The capacity bound entries never exceed.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn stamp(&self, entry: &Entry<V>) {
        entry
            .last_used
            .store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Returns the cached value for `key`, computing and inserting it on a
    /// miss. `compute` runs **without** holding the lock; on a racing miss
    /// the first insert wins and every caller gets the same `Arc`. When the
    /// insert would exceed the capacity bound, the least-recently-used
    /// entry is evicted first. Only a miss clones the key.
    pub fn get_or_compute(&self, key: &K, compute: impl FnOnce() -> V) -> Arc<V> {
        if let Some(hit) = self.map.read().expect("cache lock").get(key) {
            self.stamp(hit);
            self.hits.fetch_add(1, Ordering::Relaxed);
            espread_telemetry::count(self.hit_counter, 1);
            return Arc::clone(&hit.value);
        }
        let computed = Arc::new(compute());
        self.misses.fetch_add(1, Ordering::Relaxed);
        espread_telemetry::count(self.miss_counter, 1);
        let mut map = self.map.write().expect("cache lock");
        if !map.contains_key(key) && map.len() >= self.capacity {
            // O(n) min-scan is fine here: eviction only runs on a miss that
            // inserts at capacity, never on the steady-state hit path.
            let victim = map
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                espread_telemetry::count(self.evict_counter, 1);
            }
        }
        let entry = map.entry(key.clone()).or_insert(Entry {
            value: computed,
            last_used: AtomicU64::new(0),
        });
        self.stamp(entry);
        Arc::clone(&entry.value)
    }

    /// Current counters and size.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.read().expect("cache lock").len(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

fn spread_cache() -> &'static OrderCache<(usize, usize), SpreadChoice> {
    static CACHE: OnceLock<OrderCache<(usize, usize), SpreadChoice>> = OnceLock::new();
    CACHE.get_or_init(|| {
        OrderCache::new(
            "core.order_cache.hits",
            "core.order_cache.misses",
            "core.order_cache.evictions",
        )
    })
}

/// [`calculate_permutation`] through the
/// process-global `(n, b)` cache. The search is deterministic, so the
/// cached choice is exactly what a fresh call would return.
pub fn calculate_permutation_cached(n: usize, b: usize) -> Arc<SpreadChoice> {
    spread_cache().get_or_compute(&(n, b), || calculate_permutation(n, b))
}

/// Counters for the `(n, b)` spread-order cache.
pub fn spread_cache_stats() -> CacheStats {
    spread_cache().stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let cache: OrderCache<(usize, usize), SpreadChoice> =
            OrderCache::new("t.hit", "t.miss", "t.evict");
        let first = cache.get_or_compute(&(17, 5), || calculate_permutation(17, 5));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));

        let second = cache.get_or_compute(&(17, 5), || panic!("must not recompute"));
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache: OrderCache<(usize, usize), usize> =
            OrderCache::new("t.hit", "t.miss", "t.evict");
        let a = cache.get_or_compute(&(8, 2), || 1);
        let b = cache.get_or_compute(&(8, 3), || 2);
        assert_eq!((*a, *b), (1, 2));
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn key_flood_respects_capacity_bound() {
        let cache: OrderCache<(usize, usize), usize> =
            OrderCache::with_capacity(8, "t.hit", "t.miss", "t.evict");
        for n in 0..100 {
            let got = cache.get_or_compute(&(n, 0), || n);
            assert_eq!(*got, n);
            assert!(
                cache.stats().entries <= cache.capacity(),
                "flooded past capacity at key {n}"
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 8);
        assert_eq!(stats.evictions, 100 - 8);
        assert_eq!(stats.misses, 100);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let cache: OrderCache<(usize, usize), usize> =
            OrderCache::with_capacity(2, "t.hit", "t.miss", "t.evict");
        cache.get_or_compute(&(1, 0), || 1);
        cache.get_or_compute(&(2, 0), || 2);
        // Touch key 1 so key 2 is now the LRU victim.
        cache.get_or_compute(&(1, 0), || panic!("warm"));
        cache.get_or_compute(&(3, 0), || 3);
        // Key 1 survived; key 2 was evicted and must recompute.
        cache.get_or_compute(&(1, 0), || panic!("survived eviction"));
        let recomputed = std::sync::atomic::AtomicU64::new(0);
        cache.get_or_compute(&(2, 0), || {
            recomputed.fetch_add(1, Ordering::Relaxed);
            2
        });
        assert_eq!(
            recomputed.load(Ordering::Relaxed),
            1,
            "LRU victim was key 2"
        );
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn cached_choice_matches_fresh_computation() {
        for (n, b) in [(9, 3), (17, 5), (12, 4)] {
            let cached = calculate_permutation_cached(n, b);
            assert_eq!(*cached, calculate_permutation(n, b), "n={n} b={b}");
        }
    }

    #[test]
    fn cross_thread_reuse() {
        let cache: Arc<OrderCache<(usize, usize), SpreadChoice>> =
            Arc::new(OrderCache::new("t.hit", "t.miss", "t.evict"));
        // Warm one entry, then hammer it from several threads.
        let warm = cache.get_or_compute(&(17, 5), || calculate_permutation(17, 5));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    (0..16)
                        .map(|_| cache.get_or_compute(&(17, 5), || panic!("cache was warm")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for got in handle.join().expect("no panic") {
                assert!(Arc::ptr_eq(&warm, &got), "all threads share one entry");
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 64);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn racing_misses_converge_to_one_entry() {
        let cache: Arc<OrderCache<(usize, usize), SpreadChoice>> =
            Arc::new(OrderCache::new("t.hit", "t.miss", "t.evict"));
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.get_or_compute(&(19, 4), || calculate_permutation(19, 4))
                })
            })
            .collect();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect();
        // However the race resolved, exactly one entry survived and every
        // caller sees it.
        assert_eq!(cache.stats().entries, 1);
        for pair in results.windows(2) {
            assert!(Arc::ptr_eq(&pair[0], &pair[1]));
        }
        assert_eq!(*results[0], calculate_permutation(19, 4));
    }
}
