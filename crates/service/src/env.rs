//! The per-tenant tuning environment: a shared database handle and the
//! tenant's shared what-if cost cache.

use simdb::cache::{CacheConfig, SharedWhatIfCache};
use simdb::database::Database;
use simdb::index::{IndexId, IndexSet};
use simdb::optimizer::PlanCost;
use simdb::query::Statement;
use simdb::whatif::WhatIfStats;
use std::sync::Arc;
use wfit_core::TuningEnv;

/// Knobs of a tenant's environment: how what-if answers are cached.
///
/// The default (an unbounded cache) reproduces the historical service
/// behaviour bit-for-bit; production deployments bound the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantOptions {
    /// Capacity policy of the tenant's shared what-if cache; `None` disables
    /// the cache entirely (every request runs the optimizer — the control
    /// arm for cache-effect studies).
    pub cache: Option<CacheConfig>,
}

impl Default for TenantOptions {
    fn default() -> Self {
        Self {
            cache: Some(CacheConfig::unbounded()),
        }
    }
}

impl TenantOptions {
    /// Bound the shared cache to `capacity` resident entries (0 keeps it
    /// unbounded).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = Some(if capacity == 0 {
            CacheConfig::unbounded()
        } else {
            CacheConfig::bounded(capacity)
        });
        self
    }
}

/// A cloneable, owned [`TuningEnv`] over one tenant's database.
///
/// Every clone shares the same [`Database`] and (optionally) the same
/// [`SharedWhatIfCache`], so all sessions of a tenant answer what-if
/// questions out of one memo, while each session builds its own IBGs
/// through the default [`TuningEnv::ibg`].  The environment counts no
/// what-if calls of its own: a session's count is its advisor's
/// [`wfit_core::IndexAdvisor::whatif_calls`], and the tenant's is the
/// cache's [`WhatIfStats`].
///
/// Because the handle is `Arc`-backed it is `'static`, `Send` and `Sync`:
/// advisors built over it can live inside a long-running service and migrate
/// across worker threads — the property the borrowed `&Database` style used
/// by the offline harness cannot provide.
#[derive(Clone)]
pub struct TenantEnv {
    db: Arc<Database>,
    cache: Option<Arc<SharedWhatIfCache>>,
}

impl TenantEnv {
    /// An environment with the given cache policy.
    pub fn with_options(db: Arc<Database>, options: TenantOptions) -> Self {
        Self {
            db,
            cache: options
                .cache
                .map(|config| Arc::new(SharedWhatIfCache::with_config(config))),
        }
    }

    /// An environment answering what-if questions through an unbounded
    /// shared cache.
    pub fn cached(db: Arc<Database>) -> Self {
        Self::with_options(db, TenantOptions::default())
    }

    /// The underlying database.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Counters of the tenant's shared cache ([`WhatIfStats::default`] when
    /// the environment is uncached).
    pub fn cache_stats(&self) -> WhatIfStats {
        self.cache.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// The tenant's shared what-if cache, when one is attached.  The
    /// persistence layer exports/verifies it through this handle.
    pub fn shared_cache(&self) -> Option<&Arc<SharedWhatIfCache>> {
        self.cache.as_ref()
    }
}

impl TuningEnv for TenantEnv {
    fn whatif(&self, stmt: &Statement, config: &IndexSet) -> PlanCost {
        match &self.cache {
            Some(cache) => cache.get_or_compute(stmt.fingerprint, config, || {
                self.db.whatif_cost_uncached(stmt, config)
            }),
            // Bypass the database's own cache as well, so cached and
            // uncached runs differ only in memoization, never in results.
            None => self.db.whatif_cost_uncached(stmt, config),
        }
    }

    fn create_cost(&self, id: IndexId) -> f64 {
        self.db.create_cost(id)
    }

    fn drop_cost(&self, id: IndexId) -> f64 {
        self.db.drop_cost(id)
    }

    fn transition_cost(&self, from: &IndexSet, to: &IndexSet) -> f64 {
        self.db.transition_cost(from, to)
    }

    fn extract_candidates(&self, stmt: &Statement) -> Vec<IndexId> {
        self.db.extract_candidates(stmt)
    }

    fn describe_index(&self, id: IndexId) -> String {
        self.db.index_name(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdb::catalog::CatalogBuilder;
    use simdb::types::DataType;

    /// An environment that always runs the optimizer: no tenant cache.
    fn uncached_env(db: Arc<Database>) -> TenantEnv {
        TenantEnv::with_options(db, TenantOptions { cache: None })
    }

    fn db() -> Arc<Database> {
        let mut b = CatalogBuilder::new();
        b.table("t")
            .rows(1_000_000.0)
            .column("a", DataType::Integer, 100_000.0)
            .column("b", DataType::Integer, 1_000.0)
            .finish();
        Arc::new(Database::new(b.build()))
    }

    #[test]
    fn cached_env_memoizes_and_counts() {
        let db = db();
        let env = TenantEnv::cached(db.clone());
        let q = db.parse("SELECT b FROM t WHERE a = 1").unwrap();
        let e = IndexSet::empty();
        let c1 = env.cost(&q, &e);
        let c2 = env.cost(&q, &e);
        assert_eq!(c1, c2);
        let stats = env.cache_stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.optimizer_calls, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.evictions, 0);
        let cache = env.shared_cache().expect("a cached env shares a cache");
        assert_eq!(cache.capacity(), None, "default cache is unbounded");
    }

    #[test]
    fn clones_share_the_cache() {
        let db = db();
        let env = TenantEnv::cached(db.clone());
        let (session_a, session_b) = (env.clone(), env.clone());
        let q = db.parse("SELECT b FROM t WHERE a = 2").unwrap();
        session_a.cost(&q, &IndexSet::empty());
        // The second session hits the entry the first one computed.
        session_b.cost(&q, &IndexSet::empty());
        let stats = env.cache_stats();
        assert_eq!((stats.requests, stats.cache_hits), (2, 1));
    }

    #[test]
    fn cached_and_uncached_costs_agree() {
        let db = db();
        let cached = TenantEnv::cached(db.clone());
        let uncached = uncached_env(db.clone());
        assert!(uncached.shared_cache().is_none() && cached.shared_cache().is_some());
        let q = db.parse("SELECT b FROM t WHERE a = 3").unwrap();
        let e = IndexSet::empty();
        assert_eq!(cached.cost(&q, &e), uncached.cost(&q, &e));
        assert_eq!(uncached.cache_stats(), WhatIfStats::default());
    }

    #[test]
    fn bounded_env_evicts_but_answers_identically() {
        let db = db();
        let bounded =
            TenantEnv::with_options(db.clone(), TenantOptions::default().with_cache_capacity(2));
        let uncached = uncached_env(db.clone());
        assert_eq!(bounded.shared_cache().and_then(|c| c.capacity()), Some(2));
        let q = db.parse("SELECT b FROM t WHERE a = 1").unwrap();
        let ia = db.define_index("t", &["a"]).unwrap();
        let ib = db.define_index("t", &["b"]).unwrap();
        let iab = db.define_index("t", &["a", "b"]).unwrap();
        let configs = [
            IndexSet::empty(),
            IndexSet::single(ia),
            IndexSet::single(ib),
            IndexSet::single(iab),
            IndexSet::from_iter([ia, ib]),
            IndexSet::from_iter([ia, iab]),
        ];
        // Two passes over a working set of 6 > capacity 2: evictions happen,
        // every answer still equals the uncached oracle.
        for _ in 0..2 {
            for config in &configs {
                assert_eq!(bounded.cost(&q, config), uncached.cost(&q, config));
            }
        }
        let stats = bounded.cache_stats();
        assert!(stats.evictions > 0, "stats = {stats:?}");
        assert!(stats.entries <= 2);
    }
}
