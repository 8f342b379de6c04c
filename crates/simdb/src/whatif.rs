//! Counters of what-if optimizer usage.
//!
//! The paper reports the number of what-if optimizer invocations per query as
//! one of WFIT's overhead metrics (§6.2 "Overhead": "WFIT averaged between 5
//! and 100 calls per query").  Every what-if memo in the workspace — the one
//! behind [`crate::database::Database::whatif_cost`] and each service tenant's — is a
//! [`crate::cache::SharedWhatIfCache`], and each reports its requests,
//! optimizer calls and hits as a [`WhatIfStats`].

use serde::{Deserialize, Serialize};

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
