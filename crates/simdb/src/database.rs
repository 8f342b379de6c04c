//! The [`Database`] façade: the one-stop interface the tuning algorithms use.
//!
//! A `Database` bundles a catalog, an index registry, the cost model and a
//! what-if memo (an unbounded [`SharedWhatIfCache`]), and exposes exactly the
//! services the paper requires from the DBMS: what-if optimization, candidate
//! extraction and transition costs.

use parking_lot::RwLock;

use crate::cache::SharedWhatIfCache;
use crate::catalog::Catalog;
use crate::cost::CostModelConfig;
use crate::error::Result;
use crate::extract::extract_indices;
use crate::index::{IndexDef, IndexId, IndexRegistry, IndexSet, TransitionCostModel};
use crate::optimizer::{Optimizer, PlanCost};
use crate::query::Statement;
use crate::sql::{parse, Binder};
use crate::types::{ColumnId, TableId};
use crate::whatif::WhatIfStats;

/// A simulated database instance.
pub struct Database {
    catalog: Catalog,
    registry: RwLock<IndexRegistry>,
    cost_config: CostModelConfig,
    transition_model: TransitionCostModel,
    cache: SharedWhatIfCache,
}

impl Database {
    /// Create a database over the given catalog with default cost models.
    pub fn new(catalog: Catalog) -> Self {
        Self::with_configs(
            catalog,
            CostModelConfig::default(),
            TransitionCostModel::default(),
        )
    }

    /// Create a database with explicit cost-model configurations.
    pub fn with_configs(
        catalog: Catalog,
        cost_config: CostModelConfig,
        transition_model: TransitionCostModel,
    ) -> Self {
        Self {
            catalog,
            registry: RwLock::new(IndexRegistry::new()),
            cost_config,
            transition_model,
            cache: SharedWhatIfCache::new(),
        }
    }

    /// The schema catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The cost model configuration.
    pub fn cost_config(&self) -> &CostModelConfig {
        &self.cost_config
    }

    /// Parse and bind a SQL statement.
    pub fn parse(&self, sql: &str) -> Result<Statement> {
        let ast = parse(sql)?;
        let mut stmt = Binder::new(&self.catalog).bind(&ast)?;
        stmt.sql = Some(sql.to_string());
        Ok(stmt)
    }

    /// Define (intern) an index by table and column names.
    pub fn define_index(&self, table: &str, columns: &[&str]) -> Result<IndexId> {
        let table_id = self.catalog.table_by_name(table)?;
        let mut cols = Vec::with_capacity(columns.len());
        for c in columns {
            cols.push(self.catalog.column_by_name(c, &[table_id])?);
        }
        Ok(self.registry.write().intern(table_id, cols))
    }

    /// Define (intern) an index by ids.
    pub fn define_index_on(&self, table: TableId, columns: Vec<ColumnId>) -> IndexId {
        self.registry.write().intern(table, columns)
    }

    /// A snapshot of the definition of an index.
    pub fn index_def(&self, id: IndexId) -> IndexDef {
        self.registry.read().def(id).clone()
    }

    /// Human-readable name of an index.
    pub fn index_name(&self, id: IndexId) -> String {
        self.registry.read().def(id).display_name(&self.catalog)
    }

    /// All indices currently registered (candidates and materialized alike).
    pub fn all_indexes(&self) -> Vec<IndexId> {
        self.registry.read().iter().map(|d| d.id).collect()
    }

    /// What-if optimization: cost of `stmt` under hypothetical configuration
    /// `config`.  Results are memoized per `(statement, configuration)` in
    /// the database's unbounded [`SharedWhatIfCache`], which every caller of
    /// this database shares (the offline harness's parallel cells, for one).
    pub fn whatif_cost(&self, stmt: &Statement, config: &IndexSet) -> PlanCost {
        self.cache.get_or_compute(stmt.fingerprint, config, || {
            self.whatif_cost_uncached(stmt, config)
        })
    }

    /// What-if optimization bypassing the database's own memo: one optimizer
    /// call.
    ///
    /// This is the entry point for callers that bring their *own* memo (a
    /// service tenant's [`SharedWhatIfCache`], shared by its tuning
    /// sessions) and do not want every result stored twice.
    pub fn whatif_cost_uncached(&self, stmt: &Statement, config: &IndexSet) -> PlanCost {
        let registry = self.registry.read();
        let optimizer = Optimizer::new(&self.catalog, &registry, &self.cost_config);
        optimizer.cost(stmt, config)
    }

    /// Convenience: just the scalar cost.
    pub fn cost(&self, stmt: &Statement, config: &IndexSet) -> f64 {
        self.whatif_cost(stmt, config).total
    }

    /// Candidate extraction (`extractIndices(q)` in the paper).
    pub fn extract_candidates(&self, stmt: &Statement) -> Vec<IndexId> {
        let mut registry = self.registry.write();
        extract_indices(stmt, &self.catalog, &mut registry)
    }

    /// Cost `δ⁺(a)` of creating index `a`.
    pub fn create_cost(&self, id: IndexId) -> f64 {
        let registry = self.registry.read();
        self.transition_model
            .create_cost(&self.catalog, registry.def(id))
    }

    /// Cost `δ⁻(a)` of dropping index `a`.
    pub fn drop_cost(&self, id: IndexId) -> f64 {
        let registry = self.registry.read();
        self.transition_model
            .drop_cost(&self.catalog, registry.def(id))
    }

    /// Transition cost `δ(from, to)`.
    pub fn transition_cost(&self, from: &IndexSet, to: &IndexSet) -> f64 {
        let registry = self.registry.read();
        self.transition_model
            .transition_cost(&self.catalog, &registry, from, to)
    }

    /// Counters of the database's what-if memo.
    pub fn whatif_stats(&self) -> WhatIfStats {
        self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogBuilder;
    use crate::types::DataType;

    fn db() -> Database {
        let mut b = CatalogBuilder::new();
        b.table("tpch.lineitem")
            .rows(6_000_000.0)
            .column("l_orderkey", DataType::Integer, 1_500_000.0)
            .column_with_range(
                "l_extendedprice",
                DataType::Decimal,
                900_000.0,
                900.0,
                105_000.0,
            )
            .column("l_tax", DataType::Decimal, 9.0)
            .finish();
        b.table("tpch.orders")
            .rows(1_500_000.0)
            .column("o_orderkey", DataType::Integer, 1_500_000.0)
            .column("o_custkey", DataType::Integer, 100_000.0)
            .finish();
        Database::new(b.build())
    }

    #[test]
    fn end_to_end_parse_and_cost() {
        let db = db();
        let stmt = db
            .parse(
                "SELECT count(*) FROM tpch.lineitem, tpch.orders \
                 WHERE l_orderkey = o_orderkey AND l_extendedprice BETWEEN 1000 AND 1500",
            )
            .unwrap();
        let idx = db
            .define_index("tpch.lineitem", &["l_extendedprice"])
            .unwrap();
        let base = db.cost(&stmt, &IndexSet::empty());
        let with = db.cost(&stmt, &IndexSet::single(idx));
        assert!(with < base);
    }

    #[test]
    fn whatif_cache_counts_calls() {
        let db = db();
        let stmt = db
            .parse("SELECT count(*) FROM tpch.orders WHERE o_custkey = 42")
            .unwrap();
        let e = IndexSet::empty();
        db.cost(&stmt, &e);
        db.cost(&stmt, &e);
        db.cost(&stmt, &e);
        let stats = db.whatif_stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.optimizer_calls, 1);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!((stats.evictions, stats.entries), (0, 1));
    }

    #[test]
    fn candidate_extraction_registers_indexes() {
        let db = db();
        let stmt = db
            .parse("SELECT l_tax FROM tpch.lineitem WHERE l_extendedprice BETWEEN 100 AND 200")
            .unwrap();
        let cands = db.extract_candidates(&stmt);
        assert!(!cands.is_empty());
        assert_eq!(db.all_indexes().len(), cands.len());
        for c in &cands {
            assert!(db.index_name(*c).contains("lineitem"));
        }
    }

    #[test]
    fn transition_costs_exposed() {
        let db = db();
        let idx = db.define_index("tpch.orders", &["o_custkey"]).unwrap();
        assert!(db.create_cost(idx) > db.drop_cost(idx));
        let d = db.transition_cost(&IndexSet::empty(), &IndexSet::single(idx));
        assert!((d - db.create_cost(idx)).abs() < 1e-9);
    }

    #[test]
    fn define_index_rejects_unknown_names() {
        let db = db();
        assert!(db.define_index("nope", &["o_custkey"]).is_err());
        assert!(db.define_index("tpch.orders", &["nope"]).is_err());
    }

    #[test]
    fn update_statement_costs_account_for_maintenance() {
        let db = db();
        let stmt = db
            .parse(
                "UPDATE tpch.lineitem SET l_tax = l_tax + 0.01 \
                 WHERE l_extendedprice BETWEEN 65522.378 AND 66256.943",
            )
            .unwrap();
        let idx_tax = db.define_index("tpch.lineitem", &["l_tax"]).unwrap();
        let base = db.cost(&stmt, &IndexSet::empty());
        let with = db.cost(&stmt, &IndexSet::single(idx_tax));
        assert!(with > base, "index on modified column must add maintenance");
    }
}
