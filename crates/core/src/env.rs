//! The `TuningEnv` abstraction: the DBMS services the tuning algorithms need.
//!
//! The paper's prototype "requires two services from the DBMS: access to the
//! what-if optimizer, and an implementation of the `extractIndices(q)` method"
//! (Section 6).  Transition costs (`δ⁺`, `δ⁻`) complete the picture.  The
//! trait is implemented by [`simdb::Database`] for end-to-end runs and by
//! [`MockEnv`] for unit tests and the paper's hand-computed examples.

use ibg::IndexBenefitGraph;
use parking_lot::RwLock;
use simdb::index::{IndexId, IndexSet};
use simdb::optimizer::PlanCost;
use simdb::query::Statement;
use std::collections::HashMap;
use std::sync::Arc;

/// An index benefit graph built by [`TuningEnv::ibg`].  Every build is the
/// caller's own, so advisors charge every build's what-if calls.  Nothing in
/// the tree shares graphs across sessions any more; the name stays because
/// perfbench's timing environment implements [`TuningEnv::ibg`] against it.
#[derive(Debug, Clone)]
pub struct SharedIbg {
    /// The built graph.
    pub graph: Arc<IndexBenefitGraph>,
}

impl SharedIbg {
    /// Wrap a freshly built graph.
    pub fn fresh(graph: IndexBenefitGraph) -> Self {
        Self {
            graph: Arc::new(graph),
        }
    }
}

/// DBMS services required by the tuning algorithms.
pub trait TuningEnv {
    /// What-if optimization of `stmt` under hypothetical configuration
    /// `config`.
    fn whatif(&self, stmt: &Statement, config: &IndexSet) -> PlanCost;

    /// Build the index benefit graph of `stmt` over the `relevant` candidate
    /// set.
    ///
    /// The default builds a fresh graph through [`TuningEnv::whatif`] (one
    /// call per node), and every environment in this workspace uses it.
    /// The hook stays overridable so a decorating environment can wrap the
    /// build, e.g. to time it; an override must return a graph identical to
    /// a fresh build (the graph is a pure function of `(stmt, relevant)`
    /// under a deterministic cost model).
    fn ibg(&self, stmt: &Statement, relevant: IndexSet) -> SharedIbg {
        SharedIbg::fresh(IndexBenefitGraph::build(relevant, |cfg| {
            self.whatif(stmt, cfg)
        }))
    }

    /// Scalar what-if cost.
    fn cost(&self, stmt: &Statement, config: &IndexSet) -> f64 {
        self.whatif(stmt, config).total
    }

    /// Cost `δ⁺(a)` of creating index `a`.
    fn create_cost(&self, id: IndexId) -> f64;

    /// Cost `δ⁻(a)` of dropping index `a`.
    fn drop_cost(&self, id: IndexId) -> f64;

    /// Transition cost `δ(from, to)` (default: sum of per-index costs).
    fn transition_cost(&self, from: &IndexSet, to: &IndexSet) -> f64 {
        let mut cost = 0.0;
        for id in to.difference(from).iter() {
            cost += self.create_cost(id);
        }
        for id in from.difference(to).iter() {
            cost += self.drop_cost(id);
        }
        cost
    }

    /// `extractIndices(q)`: candidate indices syntactically relevant to the
    /// statement, interned so that repeated extraction returns stable ids.
    fn extract_candidates(&self, stmt: &Statement) -> Vec<IndexId>;

    /// Human-readable name of an index (for reports and examples).
    fn describe_index(&self, id: IndexId) -> String {
        format!("{id}")
    }
}

/// Shared references to an environment are environments themselves: this is
/// what lets the advisors take their environment **by value** while every
/// existing call site keeps passing `&db`.
impl<E: TuningEnv + ?Sized> TuningEnv for &E {
    fn whatif(&self, stmt: &Statement, config: &IndexSet) -> PlanCost {
        (**self).whatif(stmt, config)
    }

    fn ibg(&self, stmt: &Statement, relevant: IndexSet) -> SharedIbg {
        (**self).ibg(stmt, relevant)
    }

    fn cost(&self, stmt: &Statement, config: &IndexSet) -> f64 {
        (**self).cost(stmt, config)
    }

    fn create_cost(&self, id: IndexId) -> f64 {
        (**self).create_cost(id)
    }

    fn drop_cost(&self, id: IndexId) -> f64 {
        (**self).drop_cost(id)
    }

    fn transition_cost(&self, from: &IndexSet, to: &IndexSet) -> f64 {
        (**self).transition_cost(from, to)
    }

    fn extract_candidates(&self, stmt: &Statement) -> Vec<IndexId> {
        (**self).extract_candidates(stmt)
    }

    fn describe_index(&self, id: IndexId) -> String {
        (**self).describe_index(id)
    }
}

impl TuningEnv for simdb::database::Database {
    fn whatif(&self, stmt: &Statement, config: &IndexSet) -> PlanCost {
        simdb::database::Database::whatif_cost(self, stmt, config)
    }

    fn create_cost(&self, id: IndexId) -> f64 {
        simdb::database::Database::create_cost(self, id)
    }

    fn drop_cost(&self, id: IndexId) -> f64 {
        simdb::database::Database::drop_cost(self, id)
    }

    fn transition_cost(&self, from: &IndexSet, to: &IndexSet) -> f64 {
        simdb::database::Database::transition_cost(self, from, to)
    }

    fn extract_candidates(&self, stmt: &Statement) -> Vec<IndexId> {
        simdb::database::Database::extract_candidates(self, stmt)
    }

    fn describe_index(&self, id: IndexId) -> String {
        self.index_name(id)
    }
}

/// A fully scripted in-memory environment.
///
/// Costs are looked up by `(statement fingerprint, configuration)`, with a
/// per-statement default for configurations that were not scripted.  This is
/// what the unit tests use to replay the paper's worked example of Figure 2 /
/// Example 4.1, where every cost is given explicitly.
#[derive(Debug, Default)]
pub struct MockEnv {
    costs: RwLock<HashMap<(u64, IndexSet), f64>>,
    default_costs: RwLock<HashMap<u64, f64>>,
    create_costs: RwLock<HashMap<IndexId, f64>>,
    drop_costs: RwLock<HashMap<IndexId, f64>>,
    candidates: RwLock<HashMap<u64, Vec<IndexId>>>,
    /// Create cost used for indices without an explicit entry.
    pub default_create_cost: f64,
    /// Drop cost used for indices without an explicit entry.
    pub default_drop_cost: f64,
}

impl MockEnv {
    /// Create an empty environment with the given default transition costs.
    pub fn new(default_create_cost: f64, default_drop_cost: f64) -> Self {
        Self {
            default_create_cost,
            default_drop_cost,
            ..Self::default()
        }
    }

    /// Script `cost(stmt, config) = cost`.
    pub fn set_cost(&self, stmt: &Statement, config: &IndexSet, cost: f64) {
        self.costs
            .write()
            .insert((stmt.fingerprint, config.clone()), cost);
    }

    /// Script the cost returned for configurations of `stmt` that have no
    /// explicit entry.
    pub fn set_default_cost(&self, stmt: &Statement, cost: f64) {
        self.default_costs.write().insert(stmt.fingerprint, cost);
    }

    /// Script `δ⁺(id)`.
    pub fn set_create_cost(&self, id: IndexId, cost: f64) {
        self.create_costs.write().insert(id, cost);
    }

    /// Script `δ⁻(id)`.
    pub fn set_drop_cost(&self, id: IndexId, cost: f64) {
        self.drop_costs.write().insert(id, cost);
    }

    /// Script the candidates extracted from a statement.
    pub fn set_candidates(&self, stmt: &Statement, cands: Vec<IndexId>) {
        self.candidates.write().insert(stmt.fingerprint, cands);
    }
}

impl TuningEnv for MockEnv {
    fn whatif(&self, stmt: &Statement, config: &IndexSet) -> PlanCost {
        let costs = self.costs.read();
        let total = costs
            .get(&(stmt.fingerprint, config.clone()))
            .copied()
            .or_else(|| self.default_costs.read().get(&stmt.fingerprint).copied())
            .unwrap_or(0.0);
        // Report the whole configuration as used: the mock cannot know which
        // indices matter, and over-reporting keeps IBG lookups exact (every
        // subset gets its own node).
        PlanCost {
            total,
            used_indexes: config.clone(),
            description: "mock".into(),
        }
    }

    fn create_cost(&self, id: IndexId) -> f64 {
        self.create_costs
            .read()
            .get(&id)
            .copied()
            .unwrap_or(self.default_create_cost)
    }

    fn drop_cost(&self, id: IndexId) -> f64 {
        self.drop_costs
            .read()
            .get(&id)
            .copied()
            .unwrap_or(self.default_drop_cost)
    }

    fn extract_candidates(&self, stmt: &Statement) -> Vec<IndexId> {
        self.candidates
            .read()
            .get(&stmt.fingerprint)
            .cloned()
            .unwrap_or_default()
    }
}

/// Build a trivially distinct statement for mock-based tests: a `SELECT` over
/// a synthetic table with a single predicate whose selectivity encodes `tag`,
/// giving each tag a unique fingerprint.
pub fn mock_statement(tag: u32) -> Statement {
    use simdb::query::{build, PredicateKind};
    use simdb::types::{ColumnId, TableId};
    build::select()
        .table(TableId(0))
        .predicate(
            TableId(0),
            ColumnId(0),
            PredicateKind::Equality,
            1.0 / (2.0 + tag as f64),
        )
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_env_returns_scripted_costs() {
        let env = MockEnv::new(20.0, 0.0);
        let q = mock_statement(1);
        let a = IndexId(0);
        env.set_cost(&q, &IndexSet::empty(), 15.0);
        env.set_cost(&q, &IndexSet::single(a), 5.0);
        assert_eq!(env.cost(&q, &IndexSet::empty()), 15.0);
        assert_eq!(env.cost(&q, &IndexSet::single(a)), 5.0);
        // Unscripted configuration falls back to the default (0 here).
        assert_eq!(env.cost(&q, &IndexSet::from_iter([a, IndexId(9)])), 0.0);
        env.set_default_cost(&q, 7.0);
        assert_eq!(env.cost(&q, &IndexSet::from_iter([a, IndexId(9)])), 7.0);
    }

    #[test]
    fn mock_env_transition_costs() {
        let env = MockEnv::new(20.0, 1.0);
        let a = IndexId(0);
        let b = IndexId(1);
        env.set_create_cost(b, 100.0);
        assert_eq!(env.create_cost(a), 20.0);
        assert_eq!(env.create_cost(b), 100.0);
        assert_eq!(env.drop_cost(a), 1.0);
        let d = env.transition_cost(&IndexSet::single(a), &IndexSet::single(b));
        assert_eq!(d, 101.0);
    }

    #[test]
    fn mock_statements_have_distinct_fingerprints() {
        let a = mock_statement(1);
        let b = mock_statement(2);
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_eq!(mock_statement(1).fingerprint, a.fingerprint);
    }

    #[test]
    fn mock_env_candidates() {
        let env = MockEnv::new(1.0, 1.0);
        let q = mock_statement(3);
        assert!(env.extract_candidates(&q).is_empty());
        env.set_candidates(&q, vec![IndexId(1), IndexId(2)]);
        assert_eq!(env.extract_candidates(&q).len(), 2);
    }
}
