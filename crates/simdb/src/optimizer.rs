//! The what-if optimizer: `cost(q, X)` for an arbitrary hypothetical
//! configuration `X`, together with the set of indices the chosen plan uses.
//!
//! The "used" set is what the index benefit graph of Schnaitter et al. \[16\]
//! needs: for any configuration `Y`, `cost(q, Y) = cost(q, used(q, Y))`, i.e.
//! removing an unused index from the configuration does not change the plan
//! cost.  For data-modification statements the maintained indices are included
//! in the used set, because they, too, influence the statement's cost.

use crate::catalog::Catalog;
use crate::cost::join::cost_select;
use crate::cost::update::{cost_delete, cost_insert, cost_update};
use crate::cost::CostContext;
use crate::index::{IndexRegistry, IndexSet};
use crate::query::{Statement, StatementKind};
use serde::{Deserialize, Serialize};

/// Result of a what-if optimization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanCost {
    /// Estimated cost of the best plan under the given configuration.
    pub total: f64,
    /// Indices of the configuration that influence the plan cost (access
    /// indices and, for updates, maintained indices).
    pub used_indexes: IndexSet,
    /// Human readable plan sketch.
    pub description: String,
}

/// Stateless what-if optimizer over a catalog + index registry.
pub struct Optimizer<'a> {
    ctx: CostContext<'a>,
}

impl<'a> Optimizer<'a> {
    /// Create an optimizer.
    pub fn new(catalog: &'a Catalog, registry: &'a IndexRegistry) -> Self {
        Self {
            ctx: CostContext::new(catalog, registry),
        }
    }

    /// Cost the statement under the hypothetical configuration `config`.
    pub fn cost(&self, stmt: &Statement, config: &IndexSet) -> PlanCost {
        match &stmt.kind {
            StatementKind::Select(s) => {
                let plan = cost_select(&self.ctx, s, config);
                PlanCost {
                    total: plan.cost,
                    used_indexes: IndexSet::from_iter(plan.used_indexes),
                    description: plan.description,
                }
            }
            StatementKind::Update(u) => {
                let plan = cost_update(&self.ctx, u, config);
                PlanCost {
                    total: plan.cost,
                    used_indexes: IndexSet::from_iter(plan.used_indexes),
                    description: plan.description,
                }
            }
            StatementKind::Delete(d) => {
                let plan = cost_delete(&self.ctx, d, config);
                PlanCost {
                    total: plan.cost,
                    used_indexes: IndexSet::from_iter(plan.used_indexes),
                    description: plan.description,
                }
            }
            StatementKind::Insert(i) => {
                let plan = cost_insert(&self.ctx, i, config);
                PlanCost {
                    total: plan.cost,
                    used_indexes: IndexSet::from_iter(plan.used_indexes),
                    description: plan.description,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogBuilder;
    use crate::index::IndexId;
    use crate::query::{build, PredicateKind};
    use crate::types::DataType;

    struct Fixture {
        catalog: Catalog,
        registry: IndexRegistry,
        idx_a: IndexId,
        idx_b: IndexId,
        stmt: Statement,
        upd: Statement,
    }

    fn fixture() -> Fixture {
        let mut b = CatalogBuilder::new();
        b.table("t")
            .rows(2_000_000.0)
            .column("a", DataType::Integer, 500_000.0)
            .column("b", DataType::Integer, 200_000.0)
            .column("c", DataType::Integer, 50.0)
            .finish();
        let catalog = b.build();
        let t = catalog.table_by_name("t").unwrap();
        let a = catalog.column_by_name("a", &[]).unwrap();
        let bcol = catalog.column_by_name("b", &[]).unwrap();
        let c = catalog.column_by_name("c", &[]).unwrap();
        let mut registry = IndexRegistry::new();
        let idx_a = registry.intern(t, vec![a]);
        let idx_b = registry.intern(t, vec![bcol]);
        let stmt = build::select()
            .table(t)
            .predicate(t, a, PredicateKind::Range, 0.01)
            .predicate(t, bcol, PredicateKind::Range, 0.01)
            .output(c)
            .build();
        let upd = build::update(
            t,
            vec![a],
            vec![crate::query::Predicate {
                table: t,
                column: bcol,
                kind: PredicateKind::Range,
                selectivity: 1e-4,
            }],
        );
        Fixture {
            catalog,
            registry,
            idx_a,
            idx_b,
            stmt,
            upd,
        }
    }

    #[test]
    fn used_indexes_determine_cost() {
        // The IBG property: cost(q, Y) == cost(q, used(q, Y)).
        let f = fixture();
        let opt = Optimizer::new(&f.catalog, &f.registry);
        for config in [
            IndexSet::empty(),
            IndexSet::single(f.idx_a),
            IndexSet::single(f.idx_b),
            IndexSet::from_iter([f.idx_a, f.idx_b]),
        ] {
            for stmt in [&f.stmt, &f.upd] {
                let full = opt.cost(stmt, &config);
                let reduced = opt.cost(stmt, &full.used_indexes);
                assert!(
                    (full.total - reduced.total).abs() < 1e-6,
                    "cost must only depend on used indexes: {} vs {} ({})",
                    full.total,
                    reduced.total,
                    full.description
                );
                assert!(full.used_indexes.is_subset_of(&config));
            }
        }
    }

    #[test]
    fn select_cost_monotone_in_configuration() {
        let f = fixture();
        let opt = Optimizer::new(&f.catalog, &f.registry);
        let empty = opt.cost(&f.stmt, &IndexSet::empty()).total;
        let a = opt.cost(&f.stmt, &IndexSet::single(f.idx_a)).total;
        let ab = opt
            .cost(&f.stmt, &IndexSet::from_iter([f.idx_a, f.idx_b]))
            .total;
        assert!(a <= empty + 1e-9);
        assert!(ab <= a + 1e-9);
    }

    #[test]
    fn update_cost_can_increase_with_indexes() {
        let f = fixture();
        let opt = Optimizer::new(&f.catalog, &f.registry);
        // idx_a is on the modified column a → pure maintenance overhead.
        let without = opt.cost(&f.upd, &IndexSet::empty()).total;
        let with = opt.cost(&f.upd, &IndexSet::single(f.idx_a)).total;
        assert!(with > without);
    }

    #[test]
    fn intersection_creates_interaction() {
        // benefit of idx_a depends on whether idx_b is present.
        let f = fixture();
        let opt = Optimizer::new(&f.catalog, &f.registry);
        let c_empty = opt.cost(&f.stmt, &IndexSet::empty()).total;
        let c_a = opt.cost(&f.stmt, &IndexSet::single(f.idx_a)).total;
        let c_b = opt.cost(&f.stmt, &IndexSet::single(f.idx_b)).total;
        let c_ab = opt
            .cost(&f.stmt, &IndexSet::from_iter([f.idx_a, f.idx_b]))
            .total;
        let benefit_a_alone = c_empty - c_a;
        let benefit_a_given_b = c_b - c_ab;
        assert!(
            (benefit_a_alone - benefit_a_given_b).abs() > 1e-6,
            "expected an interaction between the two indexes"
        );
    }

    #[test]
    fn plan_description_is_informative() {
        let f = fixture();
        let opt = Optimizer::new(&f.catalog, &f.registry);
        let plan = opt.cost(&f.stmt, &IndexSet::from_iter([f.idx_a, f.idx_b]));
        assert!(
            plan.description.contains("Index"),
            "expected an index-based plan, got {}",
            plan.description
        );
    }
}
