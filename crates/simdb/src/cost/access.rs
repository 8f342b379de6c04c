//! Single-table access path selection: sequential scan, index scan, covering
//! (index-only) scan and index intersection.

use super::CostContext;
use crate::index::IndexId;
use crate::query::{Predicate, PredicateKind};
use crate::types::{ColumnId, TableId};

/// Cost of reading one page sequentially: the unit every other cost is
/// scaled against.
pub(crate) const SEQ_PAGE_COST: f64 = 1.0;
/// Cost of reading one page at a random position.
pub(crate) const RANDOM_PAGE_COST: f64 = 4.0;
/// CPU cost of processing one heap tuple.
pub(crate) const CPU_TUPLE_COST: f64 = 0.01;
/// CPU cost of processing one index entry.
const CPU_INDEX_TUPLE_COST: f64 = 0.005;
/// CPU cost of evaluating one predicate on one row.
const CPU_OPERATOR_COST: f64 = 0.0025;
/// Discount on the random page reads of an index scan's heap fetches,
/// modelling partial clustering and buffer-pool hits.
const FETCH_DISCOUNT: f64 = 0.5;

/// The chosen access path for one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableAccessPlan {
    /// Estimated cost of producing the table's qualifying rows.
    pub cost: f64,
    /// Estimated number of rows produced (all predicates applied).
    pub output_rows: f64,
    /// Indices used by the path.
    pub used_indexes: Vec<IndexId>,
    /// Whether the path delivers rows ordered on the requested prefix.
    pub provides_order: bool,
    /// Human-readable description of the path (for plan explanation).
    pub description: String,
}

/// An "extra" equality constraint injected by an index-nested-loop join:
/// the inner table is probed with `column = <outer value>` at the given
/// per-probe selectivity.
#[derive(Debug, Clone, Copy)]
pub struct ProbeConstraint {
    /// Inner join column.
    pub column: ColumnId,
    /// Selectivity of the probe (typically `1 / distinct(column)`).
    pub selectivity: f64,
}

/// Compute the cheapest access path for `table`.
///
/// * `predicates` — the statement's predicates restricted to this table;
/// * `required_columns` — columns of this table the statement needs to read;
/// * `available` — indices on this table present in the hypothetical
///   configuration;
/// * `desired_order` — prefix of `ORDER BY` columns belonging to this table;
/// * `probe` — optional nested-loop probe constraint (see [`ProbeConstraint`]).
pub fn best_access_path(
    ctx: &CostContext<'_>,
    table: TableId,
    predicates: &[&Predicate],
    required_columns: &[ColumnId],
    available: &[IndexId],
    desired_order: &[ColumnId],
    probe: Option<ProbeConstraint>,
) -> TableAccessPlan {
    let mut best = seq_scan(ctx, table, predicates, probe, desired_order);

    // Single-index paths.
    for &idx in available {
        if let Some(plan) = index_scan(
            ctx,
            table,
            idx,
            predicates,
            required_columns,
            desired_order,
            probe,
        ) {
            if plan.cost < best.cost {
                best = plan;
            }
        }
    }

    // Index-intersection paths over pairs of available indices.
    for (i, &a) in available.iter().enumerate() {
        for &b in available.iter().skip(i + 1) {
            if let Some(plan) = index_intersection(ctx, table, a, b, predicates, probe) {
                if plan.cost < best.cost {
                    best = plan;
                }
            }
        }
    }

    best
}

/// Combined selectivity of all predicates plus the optional probe.
fn total_selectivity(predicates: &[&Predicate], probe: Option<ProbeConstraint>) -> f64 {
    let mut sel: f64 = predicates.iter().map(|p| p.selectivity).product();
    if let Some(p) = probe {
        sel *= p.selectivity;
    }
    sel.clamp(1e-9, 1.0)
}

fn seq_scan(
    ctx: &CostContext<'_>,
    table: TableId,
    predicates: &[&Predicate],
    probe: Option<ProbeConstraint>,
    desired_order: &[ColumnId],
) -> TableAccessPlan {
    let meta = ctx.catalog.table(table);
    let rows = meta.row_count;
    let pages = meta.pages();
    let npreds = predicates.len() as f64 + probe.map(|_| 1.0).unwrap_or(0.0);
    let cost = pages * SEQ_PAGE_COST + rows * CPU_TUPLE_COST + rows * npreds * CPU_OPERATOR_COST;
    let output_rows = (rows * total_selectivity(predicates, probe)).max(1.0);
    TableAccessPlan {
        cost,
        output_rows,
        used_indexes: Vec::new(),
        provides_order: desired_order.is_empty(),
        description: format!("SeqScan({})", meta.name),
    }
}

/// Describes how far an index's key prefix is matched by the predicates.
struct PrefixMatch {
    /// Selectivity of the matched prefix (drives how much of the index is read).
    matched_selectivity: f64,
    /// Number of leading key columns matched.
    matched_columns: usize,
    /// Whether any equality/range predicate was matched at all.
    any_match: bool,
}

fn match_prefix(
    ctx: &CostContext<'_>,
    idx: IndexId,
    predicates: &[&Predicate],
    probe: Option<ProbeConstraint>,
) -> PrefixMatch {
    let def = ctx.registry.def(idx);
    let mut matched_selectivity = 1.0;
    let mut matched_columns = 0usize;
    let mut any_match = false;
    for &key_col in &def.key_columns {
        // Probe constraint behaves like an equality predicate.
        let probe_hit = probe.filter(|p| p.column == key_col);
        let eq = predicates
            .iter()
            .find(|p| p.column == key_col && p.kind == PredicateKind::Equality);
        let range = predicates.iter().find(|p| {
            p.column == key_col && matches!(p.kind, PredicateKind::Range | PredicateKind::Like)
        });
        if let Some(p) = probe_hit {
            matched_selectivity *= p.selectivity;
            matched_columns += 1;
            any_match = true;
            continue;
        }
        if let Some(p) = eq {
            matched_selectivity *= p.selectivity;
            matched_columns += 1;
            any_match = true;
            continue;
        }
        if let Some(p) = range {
            matched_selectivity *= p.selectivity;
            matched_columns += 1;
            any_match = true;
        }
        // A range predicate (or no predicate) terminates the usable prefix.
        break;
    }
    PrefixMatch {
        matched_selectivity: matched_selectivity.clamp(1e-9, 1.0),
        matched_columns,
        any_match,
    }
}

fn index_scan(
    ctx: &CostContext<'_>,
    table: TableId,
    idx: IndexId,
    predicates: &[&Predicate],
    required_columns: &[ColumnId],
    desired_order: &[ColumnId],
    probe: Option<ProbeConstraint>,
) -> Option<TableAccessPlan> {
    let def = ctx.registry.def(idx);
    debug_assert_eq!(def.table, table);
    let meta = ctx.catalog.table(table);
    let rows = meta.row_count;
    let heap_pages = meta.pages();
    let idx_pages = def.pages(ctx.catalog);

    let covering = required_columns.iter().all(|c| def.key_columns.contains(c));
    let prefix = match_prefix(ctx, idx, predicates, probe);

    // Does the index deliver the desired order?  It does when the desired
    // order columns are a prefix of the key columns (possibly after the
    // equality-matched prefix — we keep the simple strict-prefix rule).
    let provides_order = !desired_order.is_empty()
        && desired_order.len() <= def.key_columns.len()
        && desired_order
            .iter()
            .zip(def.key_columns.iter())
            .all(|(a, b)| a == b);

    if !prefix.any_match && !covering && !provides_order {
        // The index cannot help this table at all.
        return None;
    }

    // Fraction of the index that must be read.
    let scan_fraction = if prefix.any_match {
        prefix.matched_selectivity
    } else {
        1.0 // full index scan (only useful when covering or providing order)
    };

    let descent = def.height(ctx.catalog) * RANDOM_PAGE_COST;
    let leaf =
        scan_fraction * idx_pages * SEQ_PAGE_COST + scan_fraction * rows * CPU_INDEX_TUPLE_COST;

    let matched_rows = rows * scan_fraction;
    let fetch = if covering {
        0.0
    } else {
        ctx.pages_fetched(matched_rows, heap_pages) * RANDOM_PAGE_COST * FETCH_DISCOUNT
    };

    // Residual predicates are evaluated on every fetched row.
    let residual_count = predicates.len().saturating_sub(prefix.matched_columns) as f64;
    let residual = matched_rows * residual_count * CPU_OPERATOR_COST;

    let cost = descent + leaf + fetch + residual;
    let output_rows = (rows * total_selectivity(predicates, probe)).max(1.0);
    let kind = if covering {
        "IndexOnlyScan"
    } else {
        "IndexScan"
    };
    Some(TableAccessPlan {
        cost,
        output_rows,
        used_indexes: vec![idx],
        provides_order: provides_order || desired_order.is_empty(),
        description: format!("{}({})", kind, def.display_name(ctx.catalog)),
    })
}

fn index_intersection(
    ctx: &CostContext<'_>,
    table: TableId,
    a: IndexId,
    b: IndexId,
    predicates: &[&Predicate],
    probe: Option<ProbeConstraint>,
) -> Option<TableAccessPlan> {
    let meta = ctx.catalog.table(table);
    let rows = meta.row_count;
    let heap_pages = meta.pages();

    let pa = match_prefix(ctx, a, predicates, None);
    let pb = match_prefix(ctx, b, predicates, None);
    if !pa.any_match || !pb.any_match {
        return None;
    }
    // Intersection only pays off when both sides filter something and together
    // they are tighter than either alone; the cost comparison in the caller
    // takes care of the rest.
    let def_a = ctx.registry.def(a);
    let def_b = ctx.registry.def(b);

    let leaf = |def: &crate::index::IndexDef, sel: f64| {
        def.height(ctx.catalog) * RANDOM_PAGE_COST
            + sel * def.pages(ctx.catalog) * SEQ_PAGE_COST
            + sel * rows * CPU_INDEX_TUPLE_COST
    };
    let bitmap_cpu = (pa.matched_selectivity + pb.matched_selectivity) * rows * CPU_OPERATOR_COST;

    let combined_sel = (pa.matched_selectivity * pb.matched_selectivity).clamp(1e-9, 1.0);
    let fetched_rows = rows * combined_sel;
    let fetch = ctx.pages_fetched(fetched_rows, heap_pages) * RANDOM_PAGE_COST * FETCH_DISCOUNT;

    let residual_count =
        predicates.len().saturating_sub(2) as f64 + probe.map(|_| 1.0).unwrap_or(0.0);
    let residual = fetched_rows * residual_count * CPU_OPERATOR_COST;

    let cost = leaf(def_a, pa.matched_selectivity)
        + leaf(def_b, pb.matched_selectivity)
        + bitmap_cpu
        + fetch
        + residual;
    let output_rows = (rows * total_selectivity(predicates, probe)).max(1.0);
    Some(TableAccessPlan {
        cost,
        output_rows,
        used_indexes: vec![a, b],
        provides_order: false,
        description: format!(
            "IndexIntersection({}, {})",
            def_a.display_name(ctx.catalog),
            def_b.display_name(ctx.catalog)
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, CatalogBuilder};
    use crate::index::{IndexRegistry, IndexSet};
    use crate::types::DataType;

    struct Fixture {
        catalog: Catalog,
        registry: IndexRegistry,
        table: TableId,
        col_a: ColumnId,
        col_b: ColumnId,
        col_c: ColumnId,
        idx_a: IndexId,
        idx_b: IndexId,
        idx_ab: IndexId,
    }

    fn fixture() -> Fixture {
        let mut b = CatalogBuilder::new();
        b.table("t")
            .rows(1_000_000.0)
            .column("a", DataType::Integer, 100_000.0)
            .column("b", DataType::Integer, 50_000.0)
            .column("c", DataType::Integer, 100.0)
            .finish();
        let catalog = b.build();
        let table = catalog.table_by_name("t").unwrap();
        let col_a = catalog.column_by_name("a", &[]).unwrap();
        let col_b = catalog.column_by_name("b", &[]).unwrap();
        let col_c = catalog.column_by_name("c", &[]).unwrap();
        let mut registry = IndexRegistry::new();
        let idx_a = registry.intern(table, vec![col_a]);
        let idx_b = registry.intern(table, vec![col_b]);
        let idx_ab = registry.intern(table, vec![col_a, col_b]);
        Fixture {
            catalog,
            registry,
            table,
            col_a,
            col_b,
            col_c,
            idx_a,
            idx_b,
            idx_ab,
        }
    }

    fn pred(f: &Fixture, col: ColumnId, kind: PredicateKind, sel: f64) -> Predicate {
        Predicate {
            table: f.table,
            column: col,
            kind,
            selectivity: sel,
        }
    }

    #[test]
    fn selective_equality_prefers_index() {
        let f = fixture();
        let ctx = CostContext::new(&f.catalog, &f.registry);
        let p = pred(&f, f.col_a, PredicateKind::Equality, 1e-5);
        let preds = [&p];
        let no_index = best_access_path(&ctx, f.table, &preds, &[f.col_a], &[], &[], None);
        let with_index = best_access_path(&ctx, f.table, &preds, &[f.col_a], &[f.idx_a], &[], None);
        assert!(no_index.used_indexes.is_empty());
        assert_eq!(with_index.used_indexes, vec![f.idx_a]);
        assert!(with_index.cost < no_index.cost / 10.0);
    }

    #[test]
    fn unselective_predicate_prefers_seq_scan() {
        let f = fixture();
        let ctx = CostContext::new(&f.catalog, &f.registry);
        let p = pred(&f, f.col_c, PredicateKind::Range, 0.9);
        let idx_c = {
            // build an index on c on the fly via a fresh registry clone
            let mut reg = f.registry.clone();
            reg.intern(f.table, vec![f.col_c])
        };
        let _ = idx_c;
        let preds = [&p];
        // Even offering the (a) index, the planner should stick to a seq scan
        // because the predicate is not on a.
        let plan = best_access_path(&ctx, f.table, &preds, &[f.col_c], &[f.idx_a], &[], None);
        assert!(plan.used_indexes.is_empty(), "{}", plan.description);
    }

    #[test]
    fn covering_index_avoids_heap_fetch() {
        let f = fixture();
        let ctx = CostContext::new(&f.catalog, &f.registry);
        let p = pred(&f, f.col_a, PredicateKind::Range, 0.05);
        let preds = [&p];
        // Non-covering: query also needs column c.
        let non_covering = best_access_path(
            &ctx,
            f.table,
            &preds,
            &[f.col_a, f.col_c],
            &[f.idx_ab],
            &[],
            None,
        );
        // Covering: query only needs a and b, which idx_ab contains.
        let covering = best_access_path(
            &ctx,
            f.table,
            &preds,
            &[f.col_a, f.col_b],
            &[f.idx_ab],
            &[],
            None,
        );
        assert!(covering.cost < non_covering.cost);
        assert_eq!(covering.used_indexes, vec![f.idx_ab]);
    }

    #[test]
    fn multi_column_prefix_match_beats_single_column() {
        let f = fixture();
        let ctx = CostContext::new(&f.catalog, &f.registry);
        let p1 = pred(&f, f.col_a, PredicateKind::Equality, 1e-5);
        let p2 = pred(&f, f.col_b, PredicateKind::Range, 0.01);
        let preds = [&p1, &p2];
        let single = best_access_path(&ctx, f.table, &preds, &[f.col_a], &[f.idx_a], &[], None);
        let multi = best_access_path(&ctx, f.table, &preds, &[f.col_a], &[f.idx_ab], &[], None);
        assert!(multi.cost <= single.cost);
        assert_eq!(multi.used_indexes, vec![f.idx_ab]);
    }

    #[test]
    fn intersection_used_when_combined_selectivity_pays_off() {
        let f = fixture();
        let ctx = CostContext::new(&f.catalog, &f.registry);
        // Each predicate is mildly selective; combined they are very selective.
        let p1 = pred(&f, f.col_a, PredicateKind::Range, 0.02);
        let p2 = pred(&f, f.col_b, PredicateKind::Range, 0.02);
        let preds = [&p1, &p2];
        let plan = best_access_path(
            &ctx,
            f.table,
            &preds,
            &[f.col_a, f.col_b, f.col_c],
            &[f.idx_a, f.idx_b],
            &[],
            None,
        );
        assert_eq!(plan.used_indexes.len(), 2, "{}", plan.description);
        // And the two-index plan must beat both single-index plans.
        let single_a = best_access_path(
            &ctx,
            f.table,
            &preds,
            &[f.col_a, f.col_b, f.col_c],
            &[f.idx_a],
            &[],
            None,
        );
        assert!(plan.cost < single_a.cost);
    }

    #[test]
    fn probe_constraint_enables_index_use_without_predicates() {
        let f = fixture();
        let ctx = CostContext::new(&f.catalog, &f.registry);
        let probe = ProbeConstraint {
            column: f.col_a,
            selectivity: 1e-5,
        };
        let plan = best_access_path(&ctx, f.table, &[], &[f.col_a], &[f.idx_a], &[], Some(probe));
        assert_eq!(plan.used_indexes, vec![f.idx_a]);
        let no_idx = best_access_path(&ctx, f.table, &[], &[f.col_a], &[], &[], Some(probe));
        assert!(plan.cost < no_idx.cost);
    }

    #[test]
    fn order_providing_index_reports_order() {
        let f = fixture();
        let ctx = CostContext::new(&f.catalog, &f.registry);
        let plan = best_access_path(&ctx, f.table, &[], &[f.col_a], &[f.idx_a], &[f.col_a], None);
        assert!(plan.provides_order, "{}", plan.description);
        let seq = best_access_path(&ctx, f.table, &[], &[f.col_a], &[], &[f.col_a], None);
        assert!(!seq.provides_order);
    }

    #[test]
    fn output_rows_reflect_all_predicates() {
        let f = fixture();
        let ctx = CostContext::new(&f.catalog, &f.registry);
        let p1 = pred(&f, f.col_a, PredicateKind::Equality, 0.001);
        let p2 = pred(&f, f.col_c, PredicateKind::Range, 0.5);
        let preds = [&p1, &p2];
        let plan = best_access_path(&ctx, f.table, &preds, &[f.col_a], &[f.idx_a], &[], None);
        let expected = 1_000_000.0 * 0.001 * 0.5;
        assert!((plan.output_rows - expected).abs() / expected < 0.01);
    }

    #[test]
    fn more_indexes_never_increase_cost() {
        let f = fixture();
        let ctx = CostContext::new(&f.catalog, &f.registry);
        let p = pred(&f, f.col_a, PredicateKind::Equality, 1e-4);
        let preds = [&p];
        let small = best_access_path(&ctx, f.table, &preds, &[f.col_a], &[f.idx_b], &[], None);
        let large = best_access_path(
            &ctx,
            f.table,
            &preds,
            &[f.col_a],
            &[f.idx_a, f.idx_b, f.idx_ab],
            &[],
            None,
        );
        assert!(large.cost <= small.cost + 1e-9);
    }

    #[test]
    fn used_indexes_are_subset_of_available() {
        let f = fixture();
        let ctx = CostContext::new(&f.catalog, &f.registry);
        let p1 = pred(&f, f.col_a, PredicateKind::Range, 0.01);
        let p2 = pred(&f, f.col_b, PredicateKind::Range, 0.01);
        let preds = [&p1, &p2];
        for available in [
            vec![],
            vec![f.idx_a],
            vec![f.idx_b],
            vec![f.idx_a, f.idx_b, f.idx_ab],
        ] {
            let plan = best_access_path(
                &ctx,
                f.table,
                &preds,
                &[f.col_a, f.col_b],
                &available,
                &[],
                None,
            );
            let avail_set = IndexSet::from_iter(available.iter().copied());
            for u in &plan.used_indexes {
                assert!(avail_set.contains(*u));
            }
        }
    }
}
