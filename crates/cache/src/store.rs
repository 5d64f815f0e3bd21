//! The thread-safe, LRU-bounded stage memo store.

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use cafemio_instrument::PerfReport;

/// Which pipeline stage a cached value belongs to. Part of every
/// [`CacheKey`], so two stages can never collide even when their input
/// hashes coincide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheStage {
    /// Deck text → parsed specs (plus the lint report, when lint is on).
    Parse,
    /// One idealization spec → its finished idealization.
    Idealize,
    /// One loaded model → its displacement solution.
    Solve,
    /// One (model, solution) pair → its recovered stress field.
    StressRecovery,
    /// One (stress field, component, options) triple → its contour plot.
    Contour,
    /// One HTTP request → its successful response body (the serve
    /// layer's deck-hash result cache).
    Response,
}

/// A content-addressed cache key: the stage, the stable hash of the
/// stage's canonical input, and the session-config fingerprint
/// (capability / solver / CG / audit / lint — everything that changes
/// what the stage would produce).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The producing stage.
    pub stage: CacheStage,
    /// [`StableHasher`](crate::StableHasher) digest of the stage input.
    pub input_hash: u64,
    /// The active `SessionConfig::fingerprint()`.
    pub fingerprint: u64,
}

impl CacheKey {
    /// Builds a key.
    pub fn new(stage: CacheStage, input_hash: u64, fingerprint: u64) -> CacheKey {
        CacheKey {
            stage,
            input_hash,
            fingerprint,
        }
    }
}

/// A snapshot of the store's lifetime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that returned a value.
    pub hits: u64,
    /// Lookups that found nothing (or a type mismatch).
    pub misses: u64,
    /// Entries removed to stay inside the byte budget.
    pub evictions: u64,
    /// Approximate bytes currently held.
    pub bytes: u64,
    /// Entries currently held.
    pub entries: usize,
}

impl CacheStats {
    /// Writes this snapshot into `report` as the `cache.hits`,
    /// `cache.misses`, `cache.evictions`, `cache.bytes` and
    /// `cache.entries` counters, replacing records of those names: the
    /// running totals [`StageCache::get`] emits mean nothing once merged
    /// across jobs or requests.
    pub fn publish(&self, report: &mut PerfReport) {
        report.set_counter("cache.hits", self.hits);
        report.set_counter("cache.misses", self.misses);
        report.set_counter("cache.evictions", self.evictions);
        report.set_counter("cache.bytes", self.bytes);
        report.set_counter("cache.entries", self.entries as u64);
    }
}

struct Entry {
    value: Arc<dyn Any + Send + Sync>,
    bytes: u64,
    tick: u64,
}

struct Inner {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
    bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A thread-safe content-addressed memo store shared by every layer of a
/// session: the typestate pipeline, the batch engine's worker pool, and
/// the serve front end all consult the same `Arc<StageCache>`.
///
/// * **Lookups** ([`get`](Self::get)) are typed: the caller names the
///   artifact type it expects and receives a cheap `Arc` clone on a hit.
/// * **Capacity** is an approximate byte budget; inserting past it
///   evicts least-recently-used entries first.
/// * **Observability**: every lookup emits `cache.hits` /
///   `cache.misses` through [`cafemio_instrument`] (under `cache.lookup`
///   / `cache.store` spans) *and* bumps the store's own [`CacheStats`],
///   which keeps counting even where the calling thread records nothing
///   and which [`CacheStats::publish`] writes into merged reports.
///
/// Failures are the caller's concern: the store only ever holds
/// successfully produced artifacts, so errors are recomputed — and
/// re-attributed — on every run.
pub struct StageCache {
    inner: Mutex<Inner>,
    max_bytes: u64,
}

impl std::fmt::Debug for StageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("StageCache")
            .field("entries", &stats.entries)
            .field("bytes", &stats.bytes)
            .field("max_bytes", &self.max_bytes)
            .finish()
    }
}

impl Default for StageCache {
    fn default() -> StageCache {
        StageCache::new()
    }
}

impl StageCache {
    /// A store with the default budget (256 MiB of approximate payload).
    pub fn new() -> StageCache {
        StageCache::with_max_bytes(256 * 1024 * 1024)
    }

    /// A store bounded to roughly `max_bytes` of payload. A budget of
    /// zero still admits nothing — useful to disable memoization while
    /// keeping the counters.
    pub fn with_max_bytes(max_bytes: u64) -> StageCache {
        StageCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            max_bytes,
        }
    }

    /// The configured byte budget.
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }

    /// Looks up a stage artifact. A present entry of the wrong type
    /// counts as a miss (cannot happen when keys embed the stage, but
    /// the store stays safe if a caller confuses its types).
    pub fn get<T: Send + Sync + 'static>(&self, key: &CacheKey) -> Option<Arc<T>> {
        let _span = cafemio_instrument::span("cache.lookup");
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        let value = inner.map.get_mut(key).and_then(|entry| {
            entry.tick = tick;
            Arc::downcast::<T>(Arc::clone(&entry.value)).ok()
        });
        // The instrument collector keeps the last value per name, so the
        // store reports running totals, not increments.
        match &value {
            Some(_) => {
                inner.hits += 1;
                let hits = inner.hits;
                drop(inner);
                cafemio_instrument::counter("cache.hits", hits);
            }
            None => {
                inner.misses += 1;
                let misses = inner.misses;
                drop(inner);
                cafemio_instrument::counter("cache.misses", misses);
            }
        }
        value
    }

    /// Stores a stage artifact with an approximate payload size used for
    /// the byte budget. A value larger than the whole budget is not
    /// stored at all. Replacing an existing key releases its old bytes.
    pub fn put<T: Send + Sync + 'static>(&self, key: CacheKey, value: Arc<T>, bytes: u64) {
        let _span = cafemio_instrument::span("cache.store");
        if bytes > self.max_bytes {
            return;
        }
        let mut evicted_total = 0u64;
        {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(old) = inner.map.insert(
                key,
                Entry {
                    value,
                    bytes,
                    tick,
                },
            ) {
                inner.bytes = inner.bytes.saturating_sub(old.bytes);
            }
            inner.bytes = inner.bytes.saturating_add(bytes);
            while inner.bytes > self.max_bytes {
                // Evict the least-recently-used entry, never the one just
                // inserted (its tick is the newest in the map).
                let oldest = inner
                    .map
                    .iter()
                    .min_by_key(|(_, entry)| entry.tick)
                    .map(|(&k, _)| k);
                match oldest {
                    Some(victim) if victim != key => {
                        if let Some(entry) = inner.map.remove(&victim) {
                            inner.bytes = inner.bytes.saturating_sub(entry.bytes);
                            inner.evictions += 1;
                            evicted_total = inner.evictions;
                        }
                    }
                    _ => break,
                }
            }
        }
        if evicted_total > 0 {
            // Running total, matching the collector's last-value-wins
            // counter semantics.
            cafemio_instrument::counter("cache.evictions", evicted_total);
        }
    }

    /// A snapshot of the lifetime counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            bytes: inner.bytes,
            entries: inner.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(stage: CacheStage, input: u64) -> CacheKey {
        CacheKey::new(stage, input, 0)
    }

    #[test]
    fn hit_miss_and_stats_accounting() {
        let cache = StageCache::new();
        let k = key(CacheStage::Parse, 1);
        assert!(cache.get::<u32>(&k).is_none());
        cache.put(k, Arc::new(7u32), 4);
        assert_eq!(*cache.get::<u32>(&k).unwrap(), 7);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, 4);
    }

    #[test]
    fn stages_and_fingerprints_partition_the_keyspace() {
        let cache = StageCache::new();
        cache.put(key(CacheStage::Parse, 1), Arc::new(1u32), 4);
        assert!(cache.get::<u32>(&key(CacheStage::Solve, 1)).is_none());
        assert!(cache
            .get::<u32>(&CacheKey::new(CacheStage::Parse, 1, 9))
            .is_none());
        assert!(cache.get::<u32>(&key(CacheStage::Parse, 1)).is_some());
    }

    #[test]
    fn wrong_type_is_a_miss_not_a_panic() {
        let cache = StageCache::new();
        let k = key(CacheStage::Contour, 2);
        cache.put(k, Arc::new("text".to_string()), 4);
        assert!(cache.get::<u64>(&k).is_none());
        assert!(cache.get::<String>(&k).is_some());
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let cache = StageCache::with_max_bytes(10);
        let a = key(CacheStage::Parse, 1);
        let b = key(CacheStage::Parse, 2);
        let c = key(CacheStage::Parse, 3);
        cache.put(a, Arc::new(1u32), 4);
        cache.put(b, Arc::new(2u32), 4);
        // Touch `a` so `b` is the least recently used.
        assert!(cache.get::<u32>(&a).is_some());
        cache.put(c, Arc::new(3u32), 4);
        assert!(cache.get::<u32>(&b).is_none(), "LRU entry survived");
        assert!(cache.get::<u32>(&a).is_some());
        assert!(cache.get::<u32>(&c).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.bytes <= 10);
    }

    #[test]
    fn oversized_values_are_not_stored() {
        let cache = StageCache::with_max_bytes(8);
        let k = key(CacheStage::Response, 1);
        cache.put(k, Arc::new(0u32), 100);
        assert!(cache.get::<u32>(&k).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn shared_across_threads() {
        let cache = Arc::new(StageCache::new());
        let k = key(CacheStage::Solve, 5);
        cache.put(k, Arc::new(11u64), 8);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || *cache.get::<u64>(&k).expect("hit"))
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().expect("no panic"), 11);
        }
        assert_eq!(cache.stats().hits, 4);
    }
}
