//! A concurrent, interned, capacity-bounded what-if cost cache shared across
//! tuning sessions.
//!
//! [`crate::whatif::WhatIfCache`] is the per-[`crate::Database`] memo behind
//! `whatif_cost`; this module provides the *service-level* layer on top: one
//! [`SharedWhatIfCache`] per tenant, shared by every tuning session replaying
//! that tenant's workload.  Redundant what-if optimization is the dominant
//! cost of online tuning (the paper reports 5–100 optimizer calls per query,
//! §6.2), and sessions of one tenant ask overwhelmingly overlapping
//! questions, so sharing the memo converts most of that work into lookups.
//!
//! Three design points keep the shared cache cheap under concurrency *and*
//! bounded in memory:
//!
//! * **Interning.**  Statement fingerprints (`u64`) and index configurations
//!   ([`IndexSet`], a sorted id vector) are interned to dense `u32` ids
//!   ([`StmtId`], [`ConfigId`]) on first sight.  Cache entries are then keyed
//!   by a single `(u32, u32)` pair — hashing is one shot on a `u64`, and the
//!   hot map never clones an `IndexSet` per entry.
//! * **Sharding.**  Entries are spread over up to [`SHARD_COUNT`] independent
//!   `RwLock`-protected shards selected by a mix of the interned ids, so
//!   concurrent sessions rarely contend on the same lock, and lookups (the
//!   common case once the cache is warm) take only a read lock.
//! * **Bounded occupancy.**  A [`CacheConfig`] capacity caps the number of
//!   resident plan costs.  Each shard runs an independent CLOCK
//!   (second-chance) sweep over its slots: hits set a per-slot reference bit
//!   under the read lock (an `AtomicBool`, so the hot path never upgrades to
//!   a write lock), and an insert into a full shard advances the clock hand,
//!   clearing reference bits until it finds an unreferenced victim.  The
//!   per-shard capacities sum to exactly the configured capacity, so
//!   [`SharedWhatIfCache::len`] can never exceed it.
//!
//! **Determinism.**  Victim selection depends only on the order of requests
//! against a shard (slot order is insertion order, the hand advances
//! deterministically, and reference bits are set by requests).  A tenant's
//! events are drained sequentially by one service worker, so eviction order —
//! and therefore every hit/miss/eviction counter — is a pure function of the
//! tenant's event order, which is what lets bounded-cache scenarios live in
//! the byte-identical golden regression suite.
//!
//! Hit/miss accounting uses the same [`WhatIfStats`] counters as the
//! per-database cache, so reports can present both layers uniformly.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::index::IndexSet;
use crate::optimizer::PlanCost;
use crate::whatif::WhatIfStats;

/// Maximum number of independent shards of the entry map.  16 is far above
/// the worker counts this workspace runs with, so lock contention is
/// negligible; bounded caches with a capacity below 16 use fewer shards so
/// the per-shard capacities can sum to exactly the configured capacity.
pub const SHARD_COUNT: usize = 16;

/// Capacity policy of a [`SharedWhatIfCache`].
///
/// The default is [`CacheConfig::unbounded`], which reproduces the historical
/// grow-forever behaviour bit-for-bit; [`CacheConfig::bounded`] caps the
/// number of resident plan costs and evicts with a deterministic sharded
/// CLOCK sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum number of resident plan-cost entries; `0` means unbounded.
    ///
    /// The bound covers the memoized [`PlanCost`] values (the dominant
    /// memory consumer — each holds a plan description and an index set);
    /// the two interner maps are tiny (a few bytes per distinct statement or
    /// configuration) and are not evicted, so interned ids stay stable for
    /// the lifetime of the cache.
    pub capacity: usize,
}

impl CacheConfig {
    /// No capacity bound: entries are never evicted.
    pub fn unbounded() -> Self {
        Self { capacity: 0 }
    }

    /// Bound the cache to at most `capacity` resident entries (clamped to at
    /// least 1).
    pub fn bounded(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
        }
    }

    /// Whether a capacity bound is in force.
    pub fn is_bounded(&self) -> bool {
        self.capacity > 0
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// Interned id of a statement fingerprint (dense, starting at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u32);

/// Interned id of an index configuration (dense, starting at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConfigId(pub u32);

/// One resident cache entry: the interned key, the memoized plan cost, and
/// the CLOCK reference bit (set on every hit, cleared by the sweeping hand).
#[derive(Debug)]
struct Slot {
    key: (StmtId, ConfigId),
    value: PlanCost,
    referenced: AtomicBool,
}

/// One independent shard: a key → slot index map plus the slot arena the
/// CLOCK hand sweeps.  Slot order is insertion order, so victim selection is
/// a pure function of the request order against this shard.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<(StmtId, ConfigId), usize>,
    slots: Vec<Slot>,
    hand: usize,
}

/// A concurrent what-if cost cache with interned keys and optional capacity
/// bounding, shared by all tuning sessions of one tenant.
///
/// ```
/// use simdb::cache::{CacheConfig, SharedWhatIfCache};
/// use simdb::index::{IndexId, IndexSet};
/// use simdb::optimizer::PlanCost;
///
/// let cache = SharedWhatIfCache::with_config(CacheConfig::bounded(2));
/// let config = IndexSet::single(IndexId(3));
/// let compute = || PlanCost { total: 42.0, used_indexes: config.clone(), description: String::new() };
/// assert_eq!(cache.get_or_compute(7, &config, compute).total, 42.0);
/// // Second request with the same (fingerprint, configuration) is a hit.
/// let hit = cache.get_or_compute(7, &config, || unreachable!("must be cached"));
/// assert_eq!(hit.total, 42.0);
/// assert_eq!(cache.stats().cache_hits, 1);
/// // The resident set never exceeds the configured capacity.
/// for f in 0..100 {
///     cache.get_or_compute(f, &IndexSet::empty(), || PlanCost {
///         total: f as f64, used_indexes: IndexSet::empty(), description: String::new(),
///     });
/// }
/// assert!(cache.len() <= 2);
/// assert!(cache.stats().evictions > 0);
/// ```
#[derive(Debug)]
pub struct SharedWhatIfCache {
    config: CacheConfig,
    stmts: RwLock<HashMap<u64, StmtId>>,
    configs: RwLock<HashMap<IndexSet, ConfigId>>,
    shards: Vec<RwLock<Shard>>,
    /// Per-shard capacity (`usize::MAX` when unbounded); the values sum to
    /// exactly `config.capacity` when bounded.
    shard_caps: Vec<usize>,
    requests: AtomicU64,
    optimizer_calls: AtomicU64,
    cache_hits: AtomicU64,
    evictions: AtomicU64,
}

impl Default for SharedWhatIfCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedWhatIfCache {
    /// Create an empty, unbounded cache.
    pub fn new() -> Self {
        Self::with_config(CacheConfig::unbounded())
    }

    /// Create an empty cache with the given capacity policy.
    pub fn with_config(config: CacheConfig) -> Self {
        let shard_count = if config.is_bounded() {
            // Small capacities use fewer shards so every shard keeps at
            // least two slots — with a single slot the CLOCK sweep would
            // degenerate into evict-on-every-insert and the second-chance
            // property would be lost.
            (config.capacity / 2).clamp(1, SHARD_COUNT)
        } else {
            SHARD_COUNT
        };
        let shard_caps: Vec<usize> = if config.is_bounded() {
            // Distribute the capacity so the per-shard caps sum to exactly
            // `capacity` (the first `capacity % shard_count` shards get one
            // extra slot).
            (0..shard_count)
                .map(|i| {
                    config.capacity / shard_count + usize::from(i < config.capacity % shard_count)
                })
                .collect()
        } else {
            vec![usize::MAX; shard_count]
        };
        Self {
            config,
            stmts: RwLock::new(HashMap::new()),
            configs: RwLock::new(HashMap::new()),
            shards: (0..shard_count).map(|_| RwLock::default()).collect(),
            shard_caps,
            requests: AtomicU64::new(0),
            optimizer_calls: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The capacity policy the cache was created with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Maximum number of resident entries (`None` when unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.config.is_bounded().then_some(self.config.capacity)
    }

    /// Intern a statement fingerprint.  The same fingerprint always maps to
    /// the same [`StmtId`] for the lifetime of the cache.
    pub fn intern_statement(&self, fingerprint: u64) -> StmtId {
        if let Some(&id) = self.stmts.read().get(&fingerprint) {
            return id;
        }
        let mut stmts = self.stmts.write();
        let next = StmtId(stmts.len() as u32);
        *stmts.entry(fingerprint).or_insert(next)
    }

    /// Intern an index configuration.  The same set always maps to the same
    /// [`ConfigId`] for the lifetime of the cache.
    pub fn intern_config(&self, config: &IndexSet) -> ConfigId {
        if let Some(&id) = self.configs.read().get(config) {
            return id;
        }
        let mut configs = self.configs.write();
        let next = ConfigId(configs.len() as u32);
        *configs.entry(config.clone()).or_insert(next)
    }

    /// Number of distinct statement fingerprints seen.
    pub fn distinct_statements(&self) -> usize {
        self.stmts.read().len()
    }

    /// Number of distinct configurations seen.
    pub fn distinct_configs(&self) -> usize {
        self.configs.read().len()
    }

    fn shard_of(&self, stmt: StmtId, config: ConfigId) -> usize {
        // Mix both ids so neither a statement-heavy nor a config-heavy key
        // distribution collapses onto one shard.
        let mix = (stmt.0 as u64).wrapping_mul(0x9E37_79B9) ^ (config.0 as u64);
        (mix as usize) % self.shards.len()
    }

    /// Fetch the plan cost for `(fingerprint, config)`, computing it with
    /// `compute` on a miss and memoizing the result (possibly evicting the
    /// shard's CLOCK victim when the cache is bounded).
    ///
    /// Concurrent misses on the same key may both run `compute`; the result
    /// is identical (the cost model is deterministic), so the only waste is
    /// the duplicated optimization, never an inconsistent answer.
    pub fn get_or_compute(
        &self,
        fingerprint: u64,
        config: &IndexSet,
        compute: impl FnOnce() -> PlanCost,
    ) -> PlanCost {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let key = (
            self.intern_statement(fingerprint),
            self.intern_config(config),
        );
        let shard_index = self.shard_of(key.0, key.1);
        {
            let guard = self.shards[shard_index].read();
            if let Some(&idx) = guard.map.get(&key) {
                let slot = &guard.slots[idx];
                slot.referenced.store(true, Ordering::Relaxed);
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return slot.value.clone();
            }
        }
        self.optimizer_calls.fetch_add(1, Ordering::Relaxed);
        let value = compute();
        self.insert(shard_index, key, value.clone());
        value
    }

    /// Insert under the shard's write lock, evicting the CLOCK victim if the
    /// shard is at capacity.
    fn insert(&self, shard_index: usize, key: (StmtId, ConfigId), value: PlanCost) {
        let cap = self.shard_caps[shard_index];
        let mut guard = self.shards[shard_index].write();
        if let Some(&idx) = guard.map.get(&key) {
            // A concurrent miss on the same key won the race; keep its entry.
            guard.slots[idx].referenced.store(true, Ordering::Relaxed);
            return;
        }
        if guard.slots.len() < cap {
            let idx = guard.slots.len();
            guard.slots.push(Slot {
                key,
                value,
                referenced: AtomicBool::new(false),
            });
            guard.map.insert(key, idx);
            return;
        }
        // CLOCK sweep: give every referenced slot a second chance, evict the
        // first unreferenced one.  Terminates within two revolutions.
        let victim = loop {
            let hand = guard.hand;
            guard.hand = (guard.hand + 1) % guard.slots.len();
            let slot = &guard.slots[hand];
            if slot.referenced.swap(false, Ordering::Relaxed) {
                continue;
            }
            break hand;
        };
        let old_key = guard.slots[victim].key;
        guard.map.remove(&old_key);
        guard.slots[victim] = Slot {
            key,
            value,
            referenced: AtomicBool::new(false),
        };
        guard.map.insert(key, victim);
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Current counter values, including the resident entry count.
    pub fn stats(&self) -> WhatIfStats {
        WhatIfStats {
            requests: self.requests.load(Ordering::Relaxed),
            optimizer_calls: self.optimizer_calls.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }

    /// Reset the counters (cache contents and interners are kept, so
    /// [`WhatIfStats::entries`] reflects the retained occupancy).
    pub fn reset_stats(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.optimizer_calls.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Number of cached plan costs across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().slots.len()).sum()
    }

    /// Whether no plan cost is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all cached plans and interned ids.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut guard = shard.write();
            guard.map.clear();
            guard.slots.clear();
            guard.hand = 0;
        }
        self.stmts.write().clear();
        self.configs.write().clear();
    }

    /// Export the complete cache state — interners, per-shard slot arenas in
    /// insertion order with their CLOCK reference bits and hand positions,
    /// and the counters — as a plain-data [`CacheExport`].
    ///
    /// The export is deterministic for a quiesced cache: interner maps are
    /// inverted into id-ordered vectors and slot order is insertion order,
    /// so two caches that served the same request sequence export
    /// byte-identically.  Exporting while requests are in flight yields an
    /// arbitrary (but internally consistent) interleaving — callers that
    /// need determinism must quiesce first, which is what the service's
    /// snapshot path does between drain rounds.
    pub fn export(&self) -> CacheExport {
        let stmts = self.stmts.read();
        let mut statements = vec![0u64; stmts.len()];
        for (&fingerprint, &id) in stmts.iter() {
            statements[id.0 as usize] = fingerprint;
        }
        drop(stmts);
        let configs_guard = self.configs.read();
        let mut configs = vec![Vec::new(); configs_guard.len()];
        for (set, &id) in configs_guard.iter() {
            configs[id.0 as usize] = set.iter().map(|i| i.0).collect();
        }
        drop(configs_guard);
        let shards = self
            .shards
            .iter()
            .map(|shard| {
                let guard = shard.read();
                ShardExport {
                    hand: guard.hand as u64,
                    slots: guard
                        .slots
                        .iter()
                        .map(|slot| SlotExport {
                            stmt: slot.key.0 .0,
                            config: slot.key.1 .0,
                            total_bits: slot.value.total.to_bits(),
                            used_indexes: slot.value.used_indexes.iter().map(|i| i.0).collect(),
                            description: slot.value.description.clone(),
                            referenced: slot.referenced.load(Ordering::Relaxed),
                        })
                        .collect(),
                }
            })
            .collect();
        CacheExport {
            capacity: self.config.capacity as u64,
            statements,
            configs,
            shards,
            requests: self.requests.load(Ordering::Relaxed),
            optimizer_calls: self.optimizer_calls.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Rebuild a cache from an export so that every subsequent request
    /// behaves exactly as it would have against the original: interned ids,
    /// resident entries, CLOCK hands/reference bits and counters are all
    /// restored.  `export(from_export(e)) == e` bit-for-bit.
    ///
    /// Fails (with a description, never a panic) when the export is
    /// internally inconsistent — wrong shard count for its capacity, slot
    /// ids out of interner range, or an over-capacity shard.
    pub fn from_export(export: &CacheExport) -> Result<Self, String> {
        let cache = Self::with_config(if export.capacity == 0 {
            CacheConfig::unbounded()
        } else {
            CacheConfig::bounded(export.capacity as usize)
        });
        if export.shards.len() != cache.shards.len() {
            return Err(format!(
                "cache export has {} shards, capacity {} implies {}",
                export.shards.len(),
                export.capacity,
                cache.shards.len()
            ));
        }
        {
            let mut stmts = cache.stmts.write();
            for (i, &fingerprint) in export.statements.iter().enumerate() {
                if stmts.insert(fingerprint, StmtId(i as u32)).is_some() {
                    return Err(format!("duplicate statement fingerprint {fingerprint:#x}"));
                }
            }
        }
        {
            let mut configs = cache.configs.write();
            for (i, ids) in export.configs.iter().enumerate() {
                let set = IndexSet::from_iter(ids.iter().map(|&id| crate::index::IndexId(id)));
                if configs.insert(set, ConfigId(i as u32)).is_some() {
                    return Err(format!("duplicate configuration {ids:?}"));
                }
            }
        }
        for (shard_index, shard_export) in export.shards.iter().enumerate() {
            let cap = cache.shard_caps[shard_index];
            if shard_export.slots.len() > cap {
                return Err(format!(
                    "shard {shard_index} holds {} slots over its capacity {cap}",
                    shard_export.slots.len()
                ));
            }
            if shard_export.hand != 0 && shard_export.hand as usize >= shard_export.slots.len() {
                return Err(format!("shard {shard_index} hand out of range"));
            }
            let mut guard = cache.shards[shard_index].write();
            for (idx, slot) in shard_export.slots.iter().enumerate() {
                if slot.stmt as usize >= export.statements.len()
                    || slot.config as usize >= export.configs.len()
                {
                    return Err(format!(
                        "shard {shard_index} slot {idx} references an uninterned id"
                    ));
                }
                let key = (StmtId(slot.stmt), ConfigId(slot.config));
                if guard.map.insert(key, idx).is_some() {
                    return Err(format!("shard {shard_index} repeats key {key:?}"));
                }
                guard.slots.push(Slot {
                    key,
                    value: PlanCost {
                        total: f64::from_bits(slot.total_bits),
                        used_indexes: IndexSet::from_iter(
                            slot.used_indexes
                                .iter()
                                .map(|&id| crate::index::IndexId(id)),
                        ),
                        description: slot.description.clone(),
                    },
                    referenced: AtomicBool::new(slot.referenced),
                });
            }
            guard.hand = shard_export.hand as usize;
        }
        cache.requests.store(export.requests, Ordering::Relaxed);
        cache
            .optimizer_calls
            .store(export.optimizer_calls, Ordering::Relaxed);
        cache.cache_hits.store(export.cache_hits, Ordering::Relaxed);
        cache.evictions.store(export.evictions, Ordering::Relaxed);
        Ok(cache)
    }
}

/// One exported cache entry (see [`SharedWhatIfCache::export`]).  The plan
/// cost's `total` travels as raw bits so import reproduces it exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotExport {
    /// Interned statement id of the entry's key.
    pub stmt: u32,
    /// Interned configuration id of the entry's key.
    pub config: u32,
    /// `PlanCost::total` as IEEE-754 bits.
    pub total_bits: u64,
    /// Raw index ids of `PlanCost::used_indexes` (ascending).
    pub used_indexes: Vec<u32>,
    /// `PlanCost::description`.
    pub description: String,
    /// The slot's CLOCK reference bit.
    pub referenced: bool,
}

/// One exported shard: the CLOCK hand plus the slot arena in insertion
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardExport {
    /// Position of the CLOCK hand.
    pub hand: u64,
    /// Resident entries in insertion (sweep) order.
    pub slots: Vec<SlotExport>,
}

/// A complete, plain-data image of a [`SharedWhatIfCache`]: capacity policy,
/// both interners inverted into id-ordered vectors, every shard's slots +
/// CLOCK state, and the hit/miss/eviction counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheExport {
    /// Configured capacity (0 = unbounded).
    pub capacity: u64,
    /// Statement fingerprints, indexed by [`StmtId`].
    pub statements: Vec<u64>,
    /// Configurations as raw index-id lists, indexed by [`ConfigId`].
    pub configs: Vec<Vec<u32>>,
    /// Per-shard slot arenas and CLOCK hands.
    pub shards: Vec<ShardExport>,
    /// Total requests served.
    pub requests: u64,
    /// Misses that ran the optimizer.
    pub optimizer_calls: u64,
    /// Hits served from the memo.
    pub cache_hits: u64,
    /// Entries displaced by the CLOCK sweep.
    pub evictions: u64,
}

impl CacheExport {
    /// FNV-1a 64-bit digest over the entire export, with length prefixes so
    /// field boundaries cannot alias.  Two exports digest equal iff they are
    /// structurally equal, which is what the service's snapshot verification
    /// compares.
    pub fn digest(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        fn eat(hash: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *hash ^= b as u64;
                *hash = hash.wrapping_mul(PRIME);
            }
        }
        fn eat_u64(hash: &mut u64, v: u64) {
            eat(hash, &v.to_le_bytes());
        }
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        eat_u64(&mut hash, self.capacity);
        eat_u64(&mut hash, self.statements.len() as u64);
        for &f in &self.statements {
            eat_u64(&mut hash, f);
        }
        eat_u64(&mut hash, self.configs.len() as u64);
        for ids in &self.configs {
            eat_u64(&mut hash, ids.len() as u64);
            for &id in ids {
                eat_u64(&mut hash, id as u64);
            }
        }
        eat_u64(&mut hash, self.shards.len() as u64);
        for shard in &self.shards {
            eat_u64(&mut hash, shard.hand);
            eat_u64(&mut hash, shard.slots.len() as u64);
            for slot in &shard.slots {
                eat_u64(&mut hash, slot.stmt as u64);
                eat_u64(&mut hash, slot.config as u64);
                eat_u64(&mut hash, slot.total_bits);
                eat_u64(&mut hash, slot.used_indexes.len() as u64);
                for &id in &slot.used_indexes {
                    eat_u64(&mut hash, id as u64);
                }
                eat_u64(&mut hash, slot.description.len() as u64);
                eat(&mut hash, slot.description.as_bytes());
                eat_u64(&mut hash, slot.referenced as u64);
            }
        }
        for counter in [
            self.requests,
            self.optimizer_calls,
            self.cache_hits,
            self.evictions,
        ] {
            eat_u64(&mut hash, counter);
        }
        hash
    }

    /// Number of resident entries across all shards.
    pub fn entries(&self) -> u64 {
        self.shards.iter().map(|s| s.slots.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexId;

    fn plan(total: f64) -> PlanCost {
        PlanCost {
            total,
            used_indexes: IndexSet::empty(),
            description: "test".into(),
        }
    }

    #[test]
    fn interning_is_stable_and_dense() {
        let cache = SharedWhatIfCache::new();
        let s0 = cache.intern_statement(0xDEAD);
        let s1 = cache.intern_statement(0xBEEF);
        assert_eq!(s0, StmtId(0));
        assert_eq!(s1, StmtId(1));
        // Re-interning returns the original ids, in any order.
        assert_eq!(cache.intern_statement(0xBEEF), s1);
        assert_eq!(cache.intern_statement(0xDEAD), s0);
        assert_eq!(cache.distinct_statements(), 2);

        let c_empty = cache.intern_config(&IndexSet::empty());
        let c_a = cache.intern_config(&IndexSet::single(IndexId(7)));
        assert_eq!(c_empty, ConfigId(0));
        assert_eq!(c_a, ConfigId(1));
        // IndexSet equality (not identity) drives interning: a structurally
        // equal set re-uses the id.
        assert_eq!(cache.intern_config(&IndexSet::from_iter([IndexId(7)])), c_a);
        assert_eq!(cache.distinct_configs(), 2);
    }

    #[test]
    fn hit_miss_accounting() {
        let cache = SharedWhatIfCache::new();
        assert_eq!(cache.capacity(), None);
        let e = IndexSet::empty();
        let a = IndexSet::single(IndexId(1));
        assert_eq!(cache.get_or_compute(1, &e, || plan(10.0)).total, 10.0);
        assert_eq!(cache.get_or_compute(1, &e, || plan(99.0)).total, 10.0);
        assert_eq!(cache.get_or_compute(1, &a, || plan(5.0)).total, 5.0);
        assert_eq!(cache.get_or_compute(2, &e, || plan(7.0)).total, 7.0);
        assert_eq!(cache.get_or_compute(2, &e, || plan(0.0)).total, 7.0);
        let stats = cache.stats();
        assert_eq!(stats.requests, 5);
        assert_eq!(stats.optimizer_calls, 3);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.evictions, 0, "unbounded caches never evict");
        assert_eq!(stats.entries, 3);
        assert!((stats.hit_rate() - 0.4).abs() < 1e-12);
        assert_eq!(cache.len(), 3);

        cache.reset_stats();
        assert_eq!(
            cache.stats(),
            WhatIfStats {
                entries: 3,
                ..WhatIfStats::default()
            },
            "reset_stats keeps the entries"
        );
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.distinct_statements(), 0);
    }

    #[test]
    fn shards_spread_keys() {
        let cache = SharedWhatIfCache::new();
        for f in 0..64u64 {
            cache.get_or_compute(f, &IndexSet::empty(), || plan(f as f64));
        }
        let occupied = cache
            .shards
            .iter()
            .filter(|s| !s.read().slots.is_empty())
            .count();
        assert!(occupied > 1, "64 keys must not collapse onto one shard");
        assert_eq!(cache.len(), 64);
    }

    #[test]
    fn bounded_cache_evicts_and_never_exceeds_capacity() {
        let cache = SharedWhatIfCache::with_config(CacheConfig::bounded(8));
        assert_eq!(cache.capacity(), Some(8));
        for round in 0..3 {
            for f in 0..32u64 {
                let got = cache.get_or_compute(f, &IndexSet::empty(), || plan(f as f64));
                assert_eq!(got.total, f as f64, "round {round}");
                assert!(cache.len() <= 8, "len {} exceeds capacity", cache.len());
            }
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0);
        assert_eq!(stats.entries as usize, cache.len());
        assert_eq!(stats.requests, 96);
        assert_eq!(stats.optimizer_calls + stats.cache_hits, 96);
        // Interners are not evicted: every distinct fingerprint stays known.
        assert_eq!(cache.distinct_statements(), 32);
    }

    #[test]
    fn tiny_capacities_use_fewer_shards_and_stay_exact() {
        for capacity in [1usize, 2, 3, 5, 10, 17] {
            let cache = SharedWhatIfCache::with_config(CacheConfig::bounded(capacity));
            assert_eq!(cache.shard_caps.iter().sum::<usize>(), capacity);
            for f in 0..40u64 {
                cache.get_or_compute(f, &IndexSet::empty(), || plan(f as f64));
                assert!(cache.len() <= capacity, "capacity {capacity}");
            }
        }
    }

    #[test]
    fn clock_gives_hit_entries_a_second_chance() {
        // Capacity 2 ⇒ a single shard with two slots: the hot key is
        // re-referenced before every insert, so the sweep always clears its
        // bit, gives it a second chance, and evicts the cold slot instead.
        let cache = SharedWhatIfCache::with_config(CacheConfig::bounded(2));
        let e = IndexSet::empty();
        cache.get_or_compute(0, &e, || plan(0.0)); // hot key
        cache.get_or_compute(1, &e, || plan(1.0));
        for f in 2..10u64 {
            // Touch the hot key, then insert a new one: the sweep must evict
            // the cold newcomer, never the just-referenced hot key.
            let hot = cache.get_or_compute(0, &e, || unreachable!("hot key evicted"));
            assert_eq!(hot.total, 0.0);
            cache.get_or_compute(f, &e, || plan(f as f64));
        }
        assert!(cache.stats().evictions >= 7);
    }

    #[test]
    fn eviction_is_deterministic_for_identical_request_orders() {
        let run = || {
            let cache = SharedWhatIfCache::with_config(CacheConfig::bounded(6));
            let e = IndexSet::empty();
            for step in 0..200u64 {
                // A skewed, repeating pattern with re-references.
                let f = (step * step + 3) % 17;
                cache.get_or_compute(f, &e, || plan(f as f64));
            }
            let stats = cache.stats();
            (stats.cache_hits, stats.evictions, stats.entries)
        };
        assert_eq!(run(), run());
    }

    /// Drive a bounded cache through a skewed request pattern (hits,
    /// misses, evictions, second chances) and return it.
    fn warmed(capacity: usize) -> SharedWhatIfCache {
        let cache = SharedWhatIfCache::with_config(CacheConfig::bounded(capacity));
        for step in 0..150u64 {
            let f = (step * step + 3) % 23;
            let config = if step % 3 == 0 {
                IndexSet::single(IndexId((step % 5) as u32))
            } else {
                IndexSet::empty()
            };
            cache.get_or_compute(f, &config, || PlanCost {
                total: f as f64 + 0.25,
                used_indexes: config.clone(),
                description: format!("plan-{f}"),
            });
        }
        cache
    }

    #[test]
    fn export_import_round_trips_bit_for_bit() {
        for capacity in [2usize, 6, 48] {
            let cache = warmed(capacity);
            let export = cache.export();
            assert!(export.entries() > 0);
            let imported = SharedWhatIfCache::from_export(&export).expect("import");
            let re_export = imported.export();
            assert_eq!(export, re_export, "capacity {capacity}");
            assert_eq!(export.digest(), re_export.digest());
            assert_eq!(cache.stats(), imported.stats());
        }
        // Unbounded caches export/import too.
        let cache = SharedWhatIfCache::new();
        cache.get_or_compute(7, &IndexSet::empty(), || plan(1.5));
        let export = cache.export();
        assert_eq!(export.capacity, 0);
        let imported = SharedWhatIfCache::from_export(&export).expect("import");
        assert_eq!(imported.export(), export);
    }

    #[test]
    fn imported_cache_behaves_identically_onward() {
        // Continue the same request tail against the original and against an
        // import of its mid-run export: every counter and the final resident
        // set must agree — the CLOCK hands and reference bits travelled.
        let tail = |cache: &SharedWhatIfCache| {
            for step in 0..80u64 {
                let f = (step * 7 + 1) % 29;
                cache.get_or_compute(f, &IndexSet::empty(), || plan(f as f64));
            }
            cache.export()
        };
        let original = warmed(6);
        let imported = SharedWhatIfCache::from_export(&original.export()).expect("import");
        let a = tail(&original);
        let b = tail(&imported);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn inconsistent_exports_are_rejected_not_panicked() {
        let mut export = warmed(6).export();
        export.shards.pop();
        assert!(SharedWhatIfCache::from_export(&export).is_err());

        let mut export = warmed(6).export();
        if let Some(slot) = export.shards.iter_mut().flat_map(|s| &mut s.slots).next() {
            slot.stmt = u32::MAX;
        }
        assert!(SharedWhatIfCache::from_export(&export).is_err());

        let mut export = warmed(6).export();
        export.statements.push(export.statements[0]);
        assert!(SharedWhatIfCache::from_export(&export).is_err());

        // Digests see every field: flipping a reference bit changes it.
        let clean = warmed(6).export();
        let mut dirty = clean.clone();
        let slot = dirty
            .shards
            .iter_mut()
            .flat_map(|s| &mut s.slots)
            .next()
            .expect("warmed cache has entries");
        slot.referenced = !slot.referenced;
        assert_ne!(clean.digest(), dirty.digest());
    }

    #[test]
    fn concurrent_use_is_consistent() {
        let cache = SharedWhatIfCache::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for f in 0..32u64 {
                        let got = cache.get_or_compute(f, &IndexSet::empty(), || plan(f as f64));
                        assert_eq!(got.total, f as f64);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 32);
        let stats = cache.stats();
        assert_eq!(stats.requests, 128);
        assert_eq!(stats.optimizer_calls + stats.cache_hits, 128);
        // At least the three late threads' worth of requests hit.
        assert!(stats.cache_hits >= 64, "stats = {stats:?}");
    }
}
