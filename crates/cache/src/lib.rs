//! # cafemio-cache
//!
//! The content-addressed stage cache behind the analyst edit-rerun loop.
//!
//! The paper's whole premise is iteration: tweak one subdivision or one
//! contour option on the deck, re-run, re-plot. Without a cache every
//! re-run redoes all six pipeline stages from scratch. This crate gives
//! the pipeline the two pieces needed to skip the unchanged work:
//!
//! * [`StableHasher`] — a deterministic, process-independent streaming
//!   hasher (the same SplitMix64 finalizer family the bench harness
//!   seeds its fault injection with). Stage inputs are hashed field by
//!   field; two runs of the same deck always produce the same key, on
//!   any machine, in any process.
//! * [`StageCache`] — a thread-safe memo store keyed by
//!   [`CacheKey`] = (stage, input hash, config fingerprint). Values are
//!   type-erased (`Arc<dyn Any + Send + Sync>`) so one store serves
//!   every stage of the pipeline without this crate depending on any of
//!   them. The store is LRU-bounded by an approximate byte budget, and
//!   every lookup lands in the `cache.hits` / `cache.misses` counters
//!   (plus the store's own [`CacheStats`], for contexts where the
//!   calling thread's instrument recorder is off).
//!
//! The *config fingerprint* half of the key is produced by the consumer
//! (`cafemio::SessionConfig::fingerprint`) — capability, solver, CG
//! options, audit and lint settings all change what a stage would
//! produce, so they are part of every key and an option flip can never
//! serve a stale artifact.
//!
//! Failures are never cached: a stage that errors is recomputed on every
//! run, so error provenance (spans, stage attribution) stays live.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use cafemio_cache::{CacheKey, CacheStage, StableHasher, StageCache};
//!
//! let cache = StageCache::new();
//! let key = CacheKey::new(CacheStage::Parse, StableHasher::hash_str("deck text"), 0);
//! assert!(cache.get::<String>(&key).is_none());
//! cache.put(key, Arc::new("parsed".to_string()), 6);
//! assert_eq!(*cache.get::<String>(&key).unwrap(), "parsed");
//! let stats = cache.stats();
//! assert_eq!((stats.hits, stats.misses), (1, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hash;
mod store;

pub use hash::StableHasher;
pub use store::{CacheKey, CacheStage, CacheStats, StageCache};
