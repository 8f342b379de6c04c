//! Caching and instrumentation around the what-if optimizer.
//!
//! The paper reports the number of what-if optimizer invocations per query as
//! one of WFIT's overhead metrics (§6.2 "Overhead": "WFIT averaged between 5
//! and 100 calls per query"), so the façade counts both raw calls and cache
//! hits.  Caching mirrors the configuration-parametric optimizations of Bruno
//! & Nehme \[8\] that the paper cites as the way to make repeated what-if calls
//! cheap.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::index::IndexSet;
use crate::optimizer::PlanCost;

/// Counters describing what-if optimizer usage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WhatIfStats {
    /// Number of `cost()` requests issued by callers.
    pub requests: u64,
    /// Number of requests that had to run the optimizer (cache misses).
    pub optimizer_calls: u64,
    /// Number of requests answered from the cache.
    pub cache_hits: u64,
    /// Number of entries evicted to honor a capacity bound (0 for unbounded
    /// caches).
    pub evictions: u64,
    /// Number of entries resident at snapshot time (occupancy).
    pub entries: u64,
}

impl WhatIfStats {
    /// Fraction of requests answered from the cache (0.0 when no request was
    /// made).
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.requests as f64
        }
    }

    /// Merge counters from another stats snapshot (used to aggregate the
    /// per-tenant caches of a multi-tenant service, and the per-shard
    /// snapshots of a sharded cache).  Field-wise addition, so the operation
    /// is associative and commutative with [`WhatIfStats::default`] as the
    /// identity — aggregation order can never change a report.
    pub fn merge(&self, other: &WhatIfStats) -> WhatIfStats {
        WhatIfStats {
            requests: self.requests + other.requests,
            optimizer_calls: self.optimizer_calls + other.optimizer_calls,
            cache_hits: self.cache_hits + other.cache_hits,
            evictions: self.evictions + other.evictions,
            entries: self.entries + other.entries,
        }
    }
}

/// A cache of what-if results keyed by `(statement fingerprint, configuration)`.
#[derive(Debug, Default)]
pub struct WhatIfCache {
    entries: Mutex<HashMap<(u64, IndexSet), PlanCost>>,
    requests: AtomicU64,
    optimizer_calls: AtomicU64,
    cache_hits: AtomicU64,
}

impl WhatIfCache {
    /// Create an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetch the cost for `(fingerprint, config)`, computing it with
    /// `compute` on a miss.
    pub fn get_or_compute(
        &self,
        fingerprint: u64,
        config: &IndexSet,
        compute: impl FnOnce() -> PlanCost,
    ) -> PlanCost {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let key = (fingerprint, config.clone());
        {
            let entries = self.entries.lock();
            if let Some(hit) = entries.get(&key) {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return hit.clone();
            }
        }
        self.optimizer_calls.fetch_add(1, Ordering::Relaxed);
        let value = compute();
        self.entries.lock().insert(key, value.clone());
        value
    }

    /// Current counter values.  This per-database memo never evicts, so
    /// `evictions` is always 0 and `entries` mirrors [`WhatIfCache::len`].
    pub fn stats(&self) -> WhatIfStats {
        WhatIfStats {
            requests: self.requests.load(Ordering::Relaxed),
            optimizer_calls: self.optimizer_calls.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            evictions: 0,
            entries: self.len() as u64,
        }
    }

    /// Reset the counters (the cache contents are kept).
    pub fn reset_stats(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.optimizer_calls.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
    }

    /// Drop all cached plans (typically called when a statement leaves the
    /// tuning window and its fingerprint will not be seen again).
    pub fn clear(&self) {
        self.entries.lock().clear();
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(total: f64) -> PlanCost {
        PlanCost {
            total,
            used_indexes: IndexSet::empty(),
            description: "test".into(),
        }
    }

    #[test]
    fn caches_by_fingerprint_and_config() {
        let cache = WhatIfCache::new();
        let config = IndexSet::empty();
        let a = cache.get_or_compute(1, &config, || plan(10.0));
        let b = cache.get_or_compute(1, &config, || plan(99.0));
        assert_eq!(a.total, 10.0);
        assert_eq!(b.total, 10.0, "second call must hit the cache");
        let c = cache.get_or_compute(2, &config, || plan(20.0));
        assert_eq!(c.total, 20.0);
        let stats = cache.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.optimizer_calls, 2);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn different_configs_are_distinct_entries() {
        let cache = WhatIfCache::new();
        let c1 = IndexSet::empty();
        let c2 = IndexSet::single(crate::index::IndexId(1));
        cache.get_or_compute(1, &c1, || plan(1.0));
        cache.get_or_compute(1, &c2, || plan(2.0));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().optimizer_calls, 2);
    }

    #[test]
    fn reset_and_clear() {
        let cache = WhatIfCache::new();
        cache.get_or_compute(1, &IndexSet::empty(), || plan(1.0));
        cache.reset_stats();
        assert_eq!(
            cache.stats(),
            WhatIfStats {
                entries: 1,
                ..WhatIfStats::default()
            },
            "reset clears the counters but keeps the entries"
        );
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }
}
