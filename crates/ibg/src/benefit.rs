//! Benefit computation over the IBG.
//!
//! `benefit_q(Y, X) = cost(q, X) − cost(q, Y ∪ X)` (Section 2 of the WFIT
//! paper).  For `idxStats`, `chooseCands` needs the per-statement *maximum*
//! benefit `β_n = max_X benefit_q({a}, X)` of each index; we compute it by
//! evaluating the benefit at the configurations the IBG distinguishes, which
//! covers the maximizing configuration because the optimizer cannot
//! distinguish any others.

use crate::graph::IndexBenefitGraph;
use simdb::index::{IndexId, IndexSet};

/// `benefit_q(Y, X)` — the reduction in statement cost obtained by adding `Y`
/// on top of `X`.  May be negative for update statements.
pub fn benefit(ibg: &IndexBenefitGraph, y: &IndexSet, x: &IndexSet) -> f64 {
    ibg.cost(x) - ibg.cost(&y.union(x))
}

/// `benefit_q({a}, X)` for a single index.
pub fn benefit_single(ibg: &IndexBenefitGraph, a: IndexId, x: &IndexSet) -> f64 {
    benefit(ibg, &IndexSet::single(a), x)
}

/// Maximum benefit of index `a` for this statement:
/// `β = max_{X ⊆ U − {a}} benefit_q({a}, X)`.
///
/// The maximum is evaluated over the configurations materialized in the IBG
/// (with `a` removed), plus the empty configuration.  Those are exactly the
/// configurations at which the optimizer's plan — and therefore the benefit —
/// can change, so the maximum over them equals the true maximum.
pub fn max_benefit(ibg: &IndexBenefitGraph, a: IndexId) -> f64 {
    if !ibg.relevant().contains(a) {
        return 0.0;
    }
    let mut best = benefit_single(ibg, a, &IndexSet::empty());
    for node in ibg.nodes() {
        let mut x = node.config.clone();
        x.remove(a);
        best = best.max(benefit_single(ibg, a, &x));
        let mut xu = node.used.clone();
        xu.remove(a);
        best = best.max(benefit_single(ibg, a, &xu));
    }
    best
}

/// In-context marginal benefit of `a` with respect to configuration
/// `context`: `cost(context − {a}) − cost(context ∪ {a})`.  This is the
/// quantity the greedy baselines (BC) and the bandit arm use as the
/// per-statement reward signal: how much the statement gains from having `a`
/// on top of everything else currently deployed.  Negative for maintained
/// indexes under updates.
pub fn marginal_benefit(ibg: &IndexBenefitGraph, a: IndexId, context: &IndexSet) -> f64 {
    let mut without = context.clone();
    without.remove(a);
    benefit_single(ibg, a, &without)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdb::catalog::CatalogBuilder;
    use simdb::database::Database;
    use simdb::query::{build, PredicateKind};
    use simdb::types::DataType;

    fn setup() -> (
        Database,
        Vec<IndexId>,
        simdb::query::Statement,
        simdb::query::Statement,
    ) {
        let mut b = CatalogBuilder::new();
        b.table("t")
            .rows(3_000_000.0)
            .column("a", DataType::Integer, 500_000.0)
            .column("b", DataType::Integer, 400_000.0)
            .column("c", DataType::Integer, 30.0)
            .finish();
        let db = Database::new(b.build());
        let ia = db.define_index("t", &["a"]).unwrap();
        let ib = db.define_index("t", &["b"]).unwrap();
        let catalog = db.catalog();
        let t = catalog.table_by_name("t").unwrap();
        let a = catalog.column_by_name("a", &[]).unwrap();
        let bcol = catalog.column_by_name("b", &[]).unwrap();
        let c = catalog.column_by_name("c", &[]).unwrap();
        let query = build::select()
            .table(t)
            .predicate(t, a, PredicateKind::Equality, 2e-6)
            .predicate(t, bcol, PredicateKind::Range, 0.01)
            .output(c)
            .build();
        let update = build::update(
            t,
            vec![a],
            vec![simdb::query::Predicate {
                table: t,
                column: bcol,
                kind: PredicateKind::Range,
                selectivity: 1e-5,
            }],
        );
        (db, vec![ia, ib], query, update)
    }

    fn ibg_for(
        db: &Database,
        ids: &[IndexId],
        stmt: &simdb::query::Statement,
    ) -> IndexBenefitGraph {
        IndexBenefitGraph::build(IndexSet::from_iter(ids.iter().copied()), |cfg| {
            db.whatif_cost(stmt, cfg)
        })
    }

    #[test]
    fn benefit_matches_direct_cost_difference() {
        let (db, ids, query, _) = setup();
        let ibg = ibg_for(&db, &ids, &query);
        let a = ids[0];
        let x = IndexSet::single(ids[1]);
        let direct = db.whatif_cost(&query, &x).total
            - db.whatif_cost(&query, &x.union(&IndexSet::single(a))).total;
        let via = benefit_single(&ibg, a, &x);
        assert!((direct - via).abs() < 1e-6);
    }

    #[test]
    fn max_benefit_positive_for_useful_index() {
        let (db, ids, query, _) = setup();
        let ibg = ibg_for(&db, &ids, &query);
        assert!(max_benefit(&ibg, ids[0]) > 0.0);
        assert!(max_benefit(&ibg, ids[1]) > 0.0);
    }

    #[test]
    fn max_benefit_zero_for_irrelevant_index() {
        let (db, ids, query, _) = setup();
        let ibg = ibg_for(&db, &ids, &query);
        assert_eq!(max_benefit(&ibg, IndexId(12345)), 0.0);
    }

    #[test]
    fn update_statement_gives_negative_benefit_for_maintained_index() {
        let (db, ids, _, update) = setup();
        let ibg = ibg_for(&db, &ids, &update);
        // ids[0] is on the modified column `a`: pure maintenance cost.
        let b = benefit_single(&ibg, ids[0], &IndexSet::empty());
        assert!(b < 0.0, "benefit should be negative, got {b}");
        // ids[1] helps locate the rows to update.
        assert!(benefit_single(&ibg, ids[1], &IndexSet::empty()) > 0.0);
    }

    #[test]
    fn marginal_benefit_removes_the_index_from_its_own_context() {
        let (db, ids, query, _) = setup();
        let ibg = ibg_for(&db, &ids, &query);
        let a = ids[0];
        let ctx = IndexSet::from_iter(ids.iter().copied());
        // Whether or not `a` is in the context, the marginal is measured
        // against `context − {a}`.
        let mut without = ctx.clone();
        without.remove(a);
        assert_eq!(
            marginal_benefit(&ibg, a, &ctx),
            marginal_benefit(&ibg, a, &without)
        );
        assert!(marginal_benefit(&ibg, a, &ctx) >= 0.0);
    }

    #[test]
    fn max_benefit_at_least_benefit_over_empty() {
        let (db, ids, query, _) = setup();
        let ibg = ibg_for(&db, &ids, &query);
        for &a in &ids {
            assert!(max_benefit(&ibg, a) >= benefit_single(&ibg, a, &IndexSet::empty()) - 1e-9);
        }
    }
}
