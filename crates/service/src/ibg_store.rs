//! Cross-session interning of index benefit graphs.
//!
//! Every advisor of a tenant builds one IBG per analyzed statement, and the
//! sessions of a tenant analyze the *same* statements over largely the same
//! candidate sets — so without sharing, a three-session fleet expands every
//! graph three times.  The [`IbgStore`] interns built graphs by
//! `(statement fingerprint, relevant candidate set)`: the first session to
//! analyze a statement pays for the node expansions (each a what-if call
//! against the tenant's shared cost cache), and every later session with the
//! same key gets the finished graph back as an `Arc` clone.
//!
//! Sharing is sound because a graph is a pure function of its key under the
//! deterministic cost model: [`ibg::IndexBenefitGraph::build`] expands nodes
//! in a fixed breadth-first order, so a reused graph is identical — node for
//! node — to the graph the session would have built itself.  Reuse therefore
//! never changes a recommendation, only removes redundant optimizer work.
//!
//! Memory is bounded by **generations** rather than by entry count: the
//! service's batch drain calls [`IbgStore::advance_generation`] after each
//! coalesced query batch, retiring every graph that no session touched
//! during the last [`IbgStore::KEEP_GENERATIONS`] batches.  A tenant's
//! resident graphs are thus the working set of its recent batches, not its
//! whole history.

use ibg::IndexBenefitGraph;
use parking_lot::RwLock;
use simdb::index::IndexSet;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters describing IBG-store usage; all deterministic under the
/// service's sequential per-tenant drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IbgStats {
    /// Graphs built because no interned graph matched.
    pub builds: u64,
    /// Requests answered with an already-built graph.
    pub reuses: u64,
    /// Graphs retired by generation advancement.
    pub retired: u64,
    /// Graphs resident at snapshot time.
    pub entries: u64,
}

impl IbgStats {
    /// Fraction of requests answered without building (0.0 when no request
    /// was made).
    pub fn reuse_rate(&self) -> f64 {
        let total = self.builds + self.reuses;
        if total == 0 {
            0.0
        } else {
            self.reuses as f64 / total as f64
        }
    }

    /// Field-wise sum (associative and commutative, identity
    /// [`IbgStats::default`]), for aggregating per-tenant stores.
    pub fn merge(&self, other: &IbgStats) -> IbgStats {
        IbgStats {
            builds: self.builds + other.builds,
            reuses: self.reuses + other.reuses,
            retired: self.retired + other.retired,
            entries: self.entries + other.entries,
        }
    }
}

/// One interned graph plus the generation it was last touched in (stamped
/// under the read lock, so the hot path never takes the write lock).
#[derive(Debug)]
struct StoreEntry {
    graph: Arc<IndexBenefitGraph>,
    touched: AtomicU64,
}

/// A concurrent store interning built IBGs by
/// `(statement fingerprint, relevant candidate set)`.
///
/// The map is nested (`fingerprint → relevant set → entry`) so the hot
/// lookup path borrows both key parts — no `IndexSet` clone per request.
#[derive(Debug, Default)]
pub struct IbgStore {
    entries: RwLock<HashMap<u64, HashMap<IndexSet, StoreEntry>>>,
    generation: AtomicU64,
    builds: AtomicU64,
    reuses: AtomicU64,
    retired: AtomicU64,
}

impl IbgStore {
    /// How many generations an untouched graph survives
    /// [`IbgStore::advance_generation`]: the current batch's graphs plus the
    /// previous batch's (so a statement repeating across adjacent batches
    /// still reuses its graph).
    pub const KEEP_GENERATIONS: u64 = 1;

    /// An empty store retiring untouched graphs after
    /// [`IbgStore::KEEP_GENERATIONS`] generations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetch the graph for `(fingerprint, relevant)`, building it with
    /// `build` when absent.  Returns the graph and whether it was reused.
    ///
    /// Concurrent misses on the same key may both run `build`; the winner's
    /// graph is kept and both callers are counted as builders (their what-if
    /// calls really happened).  The graphs are identical, so the race never
    /// changes an answer.
    pub fn get_or_build(
        &self,
        fingerprint: u64,
        relevant: &IndexSet,
        build: impl FnOnce() -> IndexBenefitGraph,
    ) -> (Arc<IndexBenefitGraph>, bool) {
        let generation = self.generation.load(Ordering::Relaxed);
        {
            let entries = self.entries.read();
            if let Some(entry) = entries
                .get(&fingerprint)
                .and_then(|by_set| by_set.get(relevant))
            {
                entry.touched.store(generation, Ordering::Relaxed);
                self.reuses.fetch_add(1, Ordering::Relaxed);
                return (entry.graph.clone(), true);
            }
        }
        self.builds.fetch_add(1, Ordering::Relaxed);
        let graph = Arc::new(build());
        let mut entries = self.entries.write();
        let entry = entries
            .entry(fingerprint)
            .or_default()
            .entry(relevant.clone())
            .or_insert_with(|| StoreEntry {
                graph: graph.clone(),
                touched: AtomicU64::new(generation),
            });
        entry.touched.store(generation, Ordering::Relaxed);
        (entry.graph.clone(), false)
    }

    /// Start a new generation, retiring every graph not touched within the
    /// last [`IbgStore::KEEP_GENERATIONS`] generations.  The service's batch
    /// drain calls this once per coalesced batch, which bounds the resident
    /// graphs to the working set of recent batches.
    pub fn advance_generation(&self) {
        let next = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        let mut entries = self.entries.write();
        let mut retired = 0u64;
        entries.retain(|_, by_set| {
            let before = by_set.len();
            by_set.retain(|_, entry| {
                entry.touched.load(Ordering::Relaxed) + Self::KEEP_GENERATIONS >= next
            });
            retired += (before - by_set.len()) as u64;
            !by_set.is_empty()
        });
        self.retired.fetch_add(retired, Ordering::Relaxed);
    }

    /// Current counter values, including resident graph count.
    pub fn stats(&self) -> IbgStats {
        IbgStats {
            builds: self.builds.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
            retired: self.retired.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }

    /// Number of resident graphs.
    pub fn len(&self) -> usize {
        self.entries
            .read()
            .values()
            .map(|by_set| by_set.len())
            .sum()
    }

    /// Whether no graph is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every resident graph (counters are kept).
    pub fn clear(&self) {
        self.entries.write().clear();
    }

    /// FNV-1a 64-bit digest of the store's logical state: the sorted
    /// `(fingerprint, relevant ids, touched generation)` key set, the
    /// current generation, the retention policy and the counters.  Graph
    /// *contents* are excluded on purpose — a graph is a pure function of
    /// its key under the deterministic cost model, so the key set pins the
    /// store exactly.  Used by `service::persist` snapshot verification.
    pub fn digest(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        fn eat_u64(hash: &mut u64, v: u64) {
            for b in v.to_le_bytes() {
                *hash ^= b as u64;
                *hash = hash.wrapping_mul(PRIME);
            }
        }
        let mut keys: Vec<(u64, Vec<u32>, u64)> = self
            .entries
            .read()
            .iter()
            .flat_map(|(&fingerprint, by_set)| {
                by_set.iter().map(move |(relevant, entry)| {
                    (
                        fingerprint,
                        relevant.iter().map(|i| i.0).collect(),
                        entry.touched.load(Ordering::Relaxed),
                    )
                })
            })
            .collect();
        keys.sort();
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        eat_u64(&mut hash, self.generation.load(Ordering::Relaxed));
        eat_u64(&mut hash, Self::KEEP_GENERATIONS);
        eat_u64(&mut hash, keys.len() as u64);
        for (fingerprint, ids, touched) in keys {
            eat_u64(&mut hash, fingerprint);
            eat_u64(&mut hash, ids.len() as u64);
            for id in ids {
                eat_u64(&mut hash, id as u64);
            }
            eat_u64(&mut hash, touched);
        }
        for counter in [&self.builds, &self.reuses, &self.retired] {
            eat_u64(&mut hash, counter.load(Ordering::Relaxed));
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdb::index::IndexId;
    use simdb::optimizer::PlanCost;

    fn tiny_graph(relevant: &IndexSet) -> IndexBenefitGraph {
        IndexBenefitGraph::build(relevant.clone(), |cfg| PlanCost {
            total: 100.0 - cfg.len() as f64,
            used_indexes: cfg.clone(),
            description: String::new(),
        })
    }

    #[test]
    fn first_build_then_reuse() {
        let store = IbgStore::new();
        let relevant = IndexSet::from_iter([IndexId(1), IndexId(2)]);
        let (g1, reused1) = store.get_or_build(7, &relevant, || tiny_graph(&relevant));
        assert!(!reused1);
        let (g2, reused2) = store.get_or_build(7, &relevant, || unreachable!("must be interned"));
        assert!(reused2);
        assert!(Arc::ptr_eq(&g1, &g2), "reuse returns the same graph");
        let stats = store.stats();
        assert_eq!((stats.builds, stats.reuses, stats.entries), (1, 1, 1));
        assert!((stats.reuse_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_relevant_sets_are_distinct_graphs() {
        let store = IbgStore::new();
        let small = IndexSet::single(IndexId(1));
        let large = IndexSet::from_iter([IndexId(1), IndexId(2)]);
        store.get_or_build(7, &small, || tiny_graph(&small));
        store.get_or_build(7, &large, || tiny_graph(&large));
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().builds, 2);
    }

    #[test]
    fn generations_retire_untouched_graphs() {
        let store = IbgStore::new();
        let a = IndexSet::single(IndexId(1));
        let b = IndexSet::single(IndexId(2));
        store.get_or_build(1, &a, || tiny_graph(&a));
        store.advance_generation();
        // `a` survives one untouched generation (KEEP_GENERATIONS = 1)…
        assert_eq!(store.len(), 1);
        store.get_or_build(2, &b, || tiny_graph(&b));
        store.advance_generation();
        // …but not two: only the batch-2 graph remains.
        assert_eq!(store.len(), 1);
        store.advance_generation();
        store.advance_generation();
        assert!(store.is_empty());
        let stats = store.stats();
        assert_eq!(stats.retired, 2);
        // A retired graph is simply rebuilt on next sight.
        let (_, reused) = store.get_or_build(1, &a, || tiny_graph(&a));
        assert!(!reused);
    }

    #[test]
    fn touching_refreshes_the_generation() {
        let store = IbgStore::new();
        let a = IndexSet::single(IndexId(1));
        store.get_or_build(1, &a, || tiny_graph(&a));
        for _ in 0..5 {
            store.advance_generation();
            let (_, reused) = store.get_or_build(1, &a, || unreachable!("kept alive by touches"));
            assert!(reused);
        }
        assert_eq!(store.stats().retired, 0);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let store = IbgStore::new();
        let relevant = IndexSet::from_iter([IndexId(1), IndexId(2), IndexId(3)]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for f in 0..16u64 {
                        let (graph, _) = store.get_or_build(f, &relevant, || tiny_graph(&relevant));
                        assert_eq!(graph.cost(&relevant), 100.0 - relevant.len() as f64);
                    }
                });
            }
        });
        assert_eq!(store.len(), 16);
        let stats = store.stats();
        assert_eq!(stats.builds + stats.reuses, 64);
        assert!(stats.reuses >= 32, "stats = {stats:?}");
    }
}
