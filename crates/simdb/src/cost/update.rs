//! Costing of data-modification statements (`UPDATE`, `DELETE`, `INSERT`),
//! including index maintenance.
//!
//! Index maintenance is what gives indexes a *negative* benefit on update
//! statements, which is central to the benchmark workload: "most indices are
//! beneficial only for short windows of the workload, due to intervening
//! updates that make indices expensive to maintain" (§6.2).

use super::access::best_access_path;
use super::CostContext;
use crate::index::{IndexId, IndexSet};
use crate::query::{DeleteStmt, InsertStmt, UpdateStmt};
use crate::types::ColumnId;

/// Cost of writing one modified heap row.
pub(crate) const WRITE_ROW_COST: f64 = 1.0;
/// Cost of maintaining one index entry for one modified row.
pub(crate) const INDEX_MAINTENANCE_ROW_COST: f64 = 2.0;

/// Outcome of planning a data-modification statement.
#[derive(Debug, Clone)]
pub struct UpdatePlan {
    /// Estimated total cost (row location + row writes + index maintenance).
    pub cost: f64,
    /// Estimated number of modified rows.
    pub affected_rows: f64,
    /// Indices used to locate the affected rows *plus* indices that must be
    /// maintained.  Both kinds affect the statement's cost under the
    /// configuration, so both must be reported as "used" for the index
    /// benefit graph to stay consistent.
    pub used_indexes: Vec<IndexId>,
    /// Description of the row-location path.
    pub description: String,
}

/// Cost an `UPDATE` statement under the hypothetical configuration.
pub fn cost_update(ctx: &CostContext<'_>, stmt: &UpdateStmt, config: &IndexSet) -> UpdatePlan {
    let table_meta = ctx.catalog.table(stmt.table);
    let preds: Vec<&crate::query::Predicate> = stmt.predicates.iter().collect();
    let required: Vec<ColumnId> = stmt.referenced_columns.clone();
    let available: Vec<IndexId> = ctx
        .registry
        .indexes_on(stmt.table)
        .iter()
        .copied()
        .filter(|i| config.contains(*i))
        .collect();

    let locate = best_access_path(ctx, stmt.table, &preds, &required, &available, &[], None);
    let affected = locate.output_rows.min(table_meta.row_count);

    let mut cost = locate.cost + affected * WRITE_ROW_COST;
    let mut used = locate.used_indexes.clone();

    // Every materialized index on this table whose key contains a modified
    // column must be maintained.
    for &idx in &available {
        let def = ctx.registry.def(idx);
        let touches_modified = def.key_columns.iter().any(|c| stmt.set_columns.contains(c));
        if touches_modified {
            cost += affected * INDEX_MAINTENANCE_ROW_COST;
            if !used.contains(&idx) {
                used.push(idx);
            }
        }
    }

    UpdatePlan {
        cost,
        affected_rows: affected,
        used_indexes: used,
        description: format!("Update[{}]", locate.description),
    }
}

/// Cost a `DELETE` statement under the hypothetical configuration.
pub fn cost_delete(ctx: &CostContext<'_>, stmt: &DeleteStmt, config: &IndexSet) -> UpdatePlan {
    let table_meta = ctx.catalog.table(stmt.table);
    let preds: Vec<&crate::query::Predicate> = stmt.predicates.iter().collect();
    let required: Vec<ColumnId> = stmt.referenced_columns.clone();
    let available: Vec<IndexId> = ctx
        .registry
        .indexes_on(stmt.table)
        .iter()
        .copied()
        .filter(|i| config.contains(*i))
        .collect();

    let locate = best_access_path(ctx, stmt.table, &preds, &required, &available, &[], None);
    let affected = locate.output_rows.min(table_meta.row_count);

    let mut cost = locate.cost + affected * WRITE_ROW_COST;
    let mut used = locate.used_indexes.clone();
    // Deleting a row touches every index on the table.
    for &idx in &available {
        cost += affected * INDEX_MAINTENANCE_ROW_COST;
        if !used.contains(&idx) {
            used.push(idx);
        }
    }

    UpdatePlan {
        cost,
        affected_rows: affected,
        used_indexes: used,
        description: format!("Delete[{}]", locate.description),
    }
}

/// Cost an `INSERT` statement under the hypothetical configuration.
pub fn cost_insert(ctx: &CostContext<'_>, stmt: &InsertStmt, config: &IndexSet) -> UpdatePlan {
    let rows = stmt.row_count.max(1.0);
    let available: Vec<IndexId> = ctx
        .registry
        .indexes_on(stmt.table)
        .iter()
        .copied()
        .filter(|i| config.contains(*i))
        .collect();

    let mut cost = rows * WRITE_ROW_COST;
    let mut used = Vec::new();
    for &idx in &available {
        cost += rows * INDEX_MAINTENANCE_ROW_COST;
        used.push(idx);
    }

    UpdatePlan {
        cost,
        affected_rows: rows,
        used_indexes: used,
        description: format!("Insert[{}]", ctx.catalog.table(stmt.table).name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, CatalogBuilder};
    use crate::index::IndexRegistry;
    use crate::query::{Predicate, PredicateKind};
    use crate::types::{DataType, TableId};

    struct Fixture {
        catalog: Catalog,
        registry: IndexRegistry,
        table: TableId,
        key: ColumnId,
        payload: ColumnId,
        idx_key: IndexId,
        idx_payload: IndexId,
    }

    fn fixture() -> Fixture {
        let mut b = CatalogBuilder::new();
        b.table("lineitem")
            .rows(6_000_000.0)
            .column("l_price", DataType::Decimal, 900_000.0)
            .column("l_tax", DataType::Decimal, 9.0)
            .finish();
        let catalog = b.build();
        let table = catalog.table_by_name("lineitem").unwrap();
        let key = catalog.column_by_name("l_price", &[]).unwrap();
        let payload = catalog.column_by_name("l_tax", &[]).unwrap();
        let mut registry = IndexRegistry::new();
        let idx_key = registry.intern(table, vec![key]);
        let idx_payload = registry.intern(table, vec![payload]);
        Fixture {
            catalog,
            registry,
            table,
            key,
            payload,
            idx_key,
            idx_payload,
        }
    }

    fn update_stmt(f: &Fixture) -> UpdateStmt {
        UpdateStmt {
            table: f.table,
            set_columns: vec![f.payload],
            predicates: vec![Predicate {
                table: f.table,
                column: f.key,
                kind: PredicateKind::Range,
                selectivity: 1e-4,
            }],
            referenced_columns: vec![f.key],
        }
    }

    #[test]
    fn index_on_predicate_column_speeds_up_update() {
        let f = fixture();
        let ctx = CostContext::new(&f.catalog, &f.registry);
        let stmt = update_stmt(&f);
        let without = cost_update(&ctx, &stmt, &IndexSet::empty());
        let with = cost_update(&ctx, &stmt, &IndexSet::single(f.idx_key));
        assert!(with.cost < without.cost);
        assert!(with.used_indexes.contains(&f.idx_key));
    }

    #[test]
    fn index_on_modified_column_slows_down_update() {
        let f = fixture();
        let ctx = CostContext::new(&f.catalog, &f.registry);
        let stmt = update_stmt(&f);
        let without = cost_update(&ctx, &stmt, &IndexSet::empty());
        let with = cost_update(&ctx, &stmt, &IndexSet::single(f.idx_payload));
        assert!(with.cost > without.cost, "maintenance must cost something");
        assert!(with.used_indexes.contains(&f.idx_payload));
    }

    #[test]
    fn unrelated_index_does_not_change_update_cost() {
        let f = fixture();
        let ctx = CostContext::new(&f.catalog, &f.registry);
        // An index on the predicate column but a statement that modifies it —
        // build a separate index on l_tax only and a statement touching l_price.
        let stmt = UpdateStmt {
            table: f.table,
            set_columns: vec![f.key],
            predicates: vec![Predicate {
                table: f.table,
                column: f.payload,
                kind: PredicateKind::Equality,
                selectivity: 0.1,
            }],
            referenced_columns: vec![f.payload],
        };
        // idx_payload is on l_tax: helps locate, not maintained (l_tax not modified).
        let base = cost_update(&ctx, &stmt, &IndexSet::empty());
        let with = cost_update(&ctx, &stmt, &IndexSet::single(f.idx_payload));
        // It can only help or stay equal, never hurt.
        assert!(with.cost <= base.cost + 1e-9);
    }

    #[test]
    fn delete_maintains_all_indexes() {
        let f = fixture();
        let ctx = CostContext::new(&f.catalog, &f.registry);
        let stmt = DeleteStmt {
            table: f.table,
            predicates: vec![Predicate {
                table: f.table,
                column: f.key,
                kind: PredicateKind::Range,
                selectivity: 1e-5,
            }],
            referenced_columns: vec![f.key],
        };
        let one = cost_delete(&ctx, &stmt, &IndexSet::single(f.idx_key));
        let two = cost_delete(
            &ctx,
            &stmt,
            &IndexSet::from_iter([f.idx_key, f.idx_payload]),
        );
        assert!(two.cost > one.cost);
        assert_eq!(two.used_indexes.len(), 2);
    }

    #[test]
    fn insert_cost_scales_with_rows_and_indexes() {
        let f = fixture();
        let ctx = CostContext::new(&f.catalog, &f.registry);
        let small = InsertStmt {
            table: f.table,
            row_count: 1.0,
        };
        let big = InsertStmt {
            table: f.table,
            row_count: 100.0,
        };
        let c1 = cost_insert(&ctx, &small, &IndexSet::empty());
        let c2 = cost_insert(&ctx, &big, &IndexSet::empty());
        assert!(c2.cost > c1.cost);
        let c3 = cost_insert(&ctx, &big, &IndexSet::from_iter([f.idx_key, f.idx_payload]));
        assert!(c3.cost > c2.cost);
        assert_eq!(c3.used_indexes.len(), 2);
    }

    #[test]
    fn affected_rows_bounded_by_table_size() {
        let f = fixture();
        let ctx = CostContext::new(&f.catalog, &f.registry);
        let stmt = UpdateStmt {
            table: f.table,
            set_columns: vec![f.payload],
            predicates: vec![],
            referenced_columns: vec![],
        };
        let plan = cost_update(&ctx, &stmt, &IndexSet::empty());
        assert!(plan.affected_rows <= 6_000_000.0);
    }
}
