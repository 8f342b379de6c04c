//! Degree of interaction between indices.
//!
//! Following Section 2 of the WFIT paper,
//!
//! ```text
//! doi_q(a, b) = max_{X ⊆ J} | benefit_q({a}, X) − benefit_q({a}, X ∪ {b}) |
//! ```
//!
//! which is symmetric in `a` and `b`.  Expanding the benefits, the quantity
//! inside the absolute value equals
//! `cost(X) − cost(X ∪ {a}) − cost(X ∪ {b}) + cost(X ∪ {a, b})`, i.e. a
//! "quadruple" of costs, all of which the IBG answers without extra what-if
//! calls.  The maximum is evaluated over the configurations the IBG
//! materializes (with `a`, `b` removed) plus the empty set — the same
//! argument as for [`crate::benefit::max_benefit`] applies.

use crate::graph::IndexBenefitGraph;
use simdb::index::{IndexId, IndexSet};

/// The interaction quadruple evaluated at a specific configuration `x`
/// (which must not contain `a` or `b`).
pub fn interaction_at(ibg: &IndexBenefitGraph, a: IndexId, b: IndexId, x: &IndexSet) -> f64 {
    let xa = x.union(&IndexSet::single(a));
    let xb = x.union(&IndexSet::single(b));
    let xab = xa.union(&IndexSet::single(b));
    (ibg.cost(x) - ibg.cost(&xa) - ibg.cost(&xb) + ibg.cost(&xab)).abs()
}

/// `doi_q(a, b)` for one statement.
pub fn degree_of_interaction(ibg: &IndexBenefitGraph, a: IndexId, b: IndexId) -> f64 {
    if a == b || !ibg.relevant().contains(a) || !ibg.relevant().contains(b) {
        return 0.0;
    }
    let mut best = interaction_at(ibg, a, b, &IndexSet::empty());
    for node in ibg.nodes() {
        let mut x = node.config.clone();
        x.remove(a);
        x.remove(b);
        best = best.max(interaction_at(ibg, a, b, &x));
        let mut xu = node.used.clone();
        xu.remove(a);
        xu.remove(b);
        best = best.max(interaction_at(ibg, a, b, &xu));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdb::catalog::CatalogBuilder;
    use simdb::database::Database;
    use simdb::query::{build, PredicateKind};
    use simdb::types::DataType;

    struct Fixture {
        db: Database,
        same_table: Vec<IndexId>,
        other_table: IndexId,
        stmt: simdb::query::Statement,
    }

    fn fixture() -> Fixture {
        let mut b = CatalogBuilder::new();
        b.table("t")
            .rows(2_000_000.0)
            .column("a", DataType::Integer, 200_000.0)
            .column("b", DataType::Integer, 150_000.0)
            .column("c", DataType::Integer, 50.0)
            .finish();
        b.table("u")
            .rows(100_000.0)
            .column("x", DataType::Integer, 100_000.0)
            .column("y", DataType::Integer, 500.0)
            .finish();
        let db = Database::new(b.build());
        let ia = db.define_index("t", &["a"]).unwrap();
        let ib = db.define_index("t", &["b"]).unwrap();
        let iu = db.define_index("u", &["y"]).unwrap();
        let catalog = db.catalog();
        let t = catalog.table_by_name("t").unwrap();
        let u = catalog.table_by_name("u").unwrap();
        let a = catalog.column_by_name("a", &[]).unwrap();
        let bcol = catalog.column_by_name("b", &[]).unwrap();
        let c = catalog.column_by_name("c", &[]).unwrap();
        let y = catalog.column_by_name("y", &[]).unwrap();
        // Two mildly selective predicates on t (intersection-friendly) and an
        // unrelated predicate on u with no join: u's index cannot interact
        // with t's indexes.
        let stmt = build::select()
            .table(t)
            .table(u)
            .predicate(t, a, PredicateKind::Range, 0.02)
            .predicate(t, bcol, PredicateKind::Range, 0.02)
            .predicate(u, y, PredicateKind::Equality, 0.002)
            .output(c)
            .build();
        Fixture {
            db,
            same_table: vec![ia, ib],
            other_table: iu,
            stmt,
        }
    }

    fn ibg(f: &Fixture) -> IndexBenefitGraph {
        let all = IndexSet::from_iter(
            f.same_table
                .iter()
                .copied()
                .chain(std::iter::once(f.other_table)),
        );
        IndexBenefitGraph::build(all, |cfg| f.db.whatif_cost(&f.stmt, cfg))
    }

    #[test]
    fn intersecting_indexes_interact() {
        let f = fixture();
        let g = ibg(&f);
        let d = degree_of_interaction(&g, f.same_table[0], f.same_table[1]);
        assert!(d > 0.0, "expected positive doi, got {d}");
    }

    #[test]
    fn doi_is_symmetric() {
        let f = fixture();
        let g = ibg(&f);
        let d1 = degree_of_interaction(&g, f.same_table[0], f.same_table[1]);
        let d2 = degree_of_interaction(&g, f.same_table[1], f.same_table[0]);
        assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn indexes_on_unrelated_tables_do_not_interact() {
        let f = fixture();
        let g = ibg(&f);
        for &a in &f.same_table {
            let d = degree_of_interaction(&g, a, f.other_table);
            assert!(d.abs() < 1e-6, "expected independence, got {d}");
        }
    }

    #[test]
    fn doi_with_self_or_foreign_index_is_zero() {
        let f = fixture();
        let g = ibg(&f);
        assert_eq!(
            degree_of_interaction(&g, f.same_table[0], f.same_table[0]),
            0.0
        );
        assert_eq!(
            degree_of_interaction(&g, f.same_table[0], IndexId(4242)),
            0.0
        );
    }

    #[test]
    fn interaction_at_agrees_with_cost_quadruple() {
        let f = fixture();
        let g = ibg(&f);
        let (a, b) = (f.same_table[0], f.same_table[1]);
        let e = IndexSet::empty();
        let direct = (f.db.cost(&f.stmt, &e)
            - f.db.cost(&f.stmt, &IndexSet::single(a))
            - f.db.cost(&f.stmt, &IndexSet::single(b))
            + f.db.cost(&f.stmt, &IndexSet::from_iter([a, b])))
        .abs();
        assert!((interaction_at(&g, a, b, &e) - direct).abs() < 1e-6);
    }
}
