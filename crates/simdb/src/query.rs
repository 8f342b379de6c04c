//! Bound logical statements — the input of the what-if optimizer.
//!
//! A [`Statement`] is fully resolved against the catalog: every column
//! reference is a [`ColumnId`], every predicate carries a pre-computed
//! selectivity, and the statement has a stable [`Statement::fingerprint`] used
//! by the what-if cache.

use crate::types::{ColumnId, TableId};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Kind of a single-table predicate, used both for selectivity bookkeeping and
/// for index-applicability decisions (an equality predicate can be followed by
/// further index key columns; a range predicate terminates the usable prefix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PredicateKind {
    /// `col = literal` (also used for `IN` lists, which behave like a small
    /// disjunction of equalities).
    Equality,
    /// `col < / <= / > / >= / BETWEEN` with literal bounds.
    Range,
    /// `col LIKE 'pattern'` — usable by an index only when the pattern has a
    /// literal prefix; we conservatively treat it as a range.
    Like,
    /// `col <> literal` — never usable by an index probe.
    NotEqual,
}

/// A predicate restricting a single table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Predicate {
    /// Table the predicate applies to.
    pub table: TableId,
    /// Restricted column.
    pub column: ColumnId,
    /// Shape of the predicate.
    pub kind: PredicateKind,
    /// Estimated fraction of the table's rows satisfying the predicate.
    pub selectivity: f64,
}

/// An equi-join predicate between two tables.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JoinPredicate {
    /// One side of the join.
    pub left_table: TableId,
    /// Join column on the left side.
    pub left_column: ColumnId,
    /// Other side of the join.
    pub right_table: TableId,
    /// Join column on the right side.
    pub right_column: ColumnId,
}

impl JoinPredicate {
    /// The join column belonging to `table`, if the predicate touches it.
    pub fn column_for(&self, table: TableId) -> Option<ColumnId> {
        if self.left_table == table {
            Some(self.left_column)
        } else if self.right_table == table {
            Some(self.right_column)
        } else {
            None
        }
    }

    /// The table on the opposite side of `table`, if the predicate touches it.
    pub fn other_table(&self, table: TableId) -> Option<TableId> {
        if self.left_table == table {
            Some(self.right_table)
        } else if self.right_table == table {
            Some(self.left_table)
        } else {
            None
        }
    }
}

/// A bound `SELECT` statement.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SelectStmt {
    /// Tables referenced by the query.
    pub tables: Vec<TableId>,
    /// Single-table predicates.
    pub predicates: Vec<Predicate>,
    /// Equi-join predicates.
    pub joins: Vec<JoinPredicate>,
    /// Every column the query needs to read (projection + predicates + joins +
    /// grouping/ordering); used for covering-index decisions.
    pub referenced_columns: Vec<ColumnId>,
    /// `ORDER BY` columns (in order).
    pub order_by: Vec<ColumnId>,
    /// `GROUP BY` columns.
    pub group_by: Vec<ColumnId>,
}

/// A bound `UPDATE` statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpdateStmt {
    /// Updated table.
    pub table: TableId,
    /// Columns assigned by the `SET` clause.
    pub set_columns: Vec<ColumnId>,
    /// Predicates selecting the rows to update.
    pub predicates: Vec<Predicate>,
    /// Columns read by the statement (for covering decisions while locating
    /// the affected rows).
    pub referenced_columns: Vec<ColumnId>,
}

/// A bound `INSERT` statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InsertStmt {
    /// Target table.
    pub table: TableId,
    /// Number of inserted rows.
    pub row_count: f64,
}

/// A bound `DELETE` statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeleteStmt {
    /// Target table.
    pub table: TableId,
    /// Predicates selecting the rows to delete.
    pub predicates: Vec<Predicate>,
    /// Columns read while locating the affected rows.
    pub referenced_columns: Vec<ColumnId>,
}

/// The statement payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StatementKind {
    /// A query.
    Select(SelectStmt),
    /// An update.
    Update(UpdateStmt),
    /// An insertion.
    Insert(InsertStmt),
    /// A deletion.
    Delete(DeleteStmt),
}

/// A bound statement ready for what-if optimization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Statement {
    /// Statement payload.
    pub kind: StatementKind,
    /// Stable fingerprint of the statement structure, used as a cache key by
    /// the what-if optimizer.
    pub fingerprint: u64,
    /// Original SQL text, when the statement came from the parser.
    pub sql: Option<String>,
}

impl Statement {
    /// Wrap a [`StatementKind`], computing the fingerprint.
    pub fn new(kind: StatementKind) -> Self {
        let fingerprint = fingerprint_of(&kind);
        Self {
            kind,
            fingerprint,
            sql: None,
        }
    }

    /// Tables referenced by the statement.
    pub fn tables(&self) -> Vec<TableId> {
        match &self.kind {
            StatementKind::Select(s) => s.tables.clone(),
            StatementKind::Update(u) => vec![u.table],
            StatementKind::Insert(i) => vec![i.table],
            StatementKind::Delete(d) => vec![d.table],
        }
    }

    /// Single-table predicates of the statement.
    pub fn predicates(&self) -> &[Predicate] {
        match &self.kind {
            StatementKind::Select(s) => &s.predicates,
            StatementKind::Update(u) => &u.predicates,
            StatementKind::Insert(_) => &[],
            StatementKind::Delete(d) => &d.predicates,
        }
    }

    /// Equi-join predicates (empty for non-`SELECT` statements).
    pub fn joins(&self) -> &[JoinPredicate] {
        match &self.kind {
            StatementKind::Select(s) => &s.joins,
            _ => &[],
        }
    }

    /// Whether the statement modifies data (and therefore incurs index
    /// maintenance costs).
    pub fn is_update(&self) -> bool {
        !matches!(self.kind, StatementKind::Select(_))
    }

    /// Columns referenced by the statement for the given table.
    pub fn referenced_columns(&self) -> &[ColumnId] {
        match &self.kind {
            StatementKind::Select(s) => &s.referenced_columns,
            StatementKind::Update(u) => &u.referenced_columns,
            StatementKind::Insert(_) => &[],
            StatementKind::Delete(d) => &d.referenced_columns,
        }
    }
}

fn fingerprint_of(kind: &StatementKind) -> u64 {
    let mut hasher = DefaultHasher::new();
    hash_statement(kind, &mut hasher);
    hasher.finish()
}

fn hash_statement(kind: &StatementKind, h: &mut impl Hasher) {
    match kind {
        StatementKind::Select(s) => {
            0u8.hash(h);
            s.tables.hash(h);
            for p in &s.predicates {
                hash_predicate(p, h);
            }
            s.joins.hash(h);
            s.referenced_columns.hash(h);
            s.order_by.hash(h);
            s.group_by.hash(h);
        }
        StatementKind::Update(u) => {
            1u8.hash(h);
            u.table.hash(h);
            u.set_columns.hash(h);
            for p in &u.predicates {
                hash_predicate(p, h);
            }
        }
        StatementKind::Insert(i) => {
            2u8.hash(h);
            i.table.hash(h);
            i.row_count.to_bits().hash(h);
        }
        StatementKind::Delete(d) => {
            3u8.hash(h);
            d.table.hash(h);
            for p in &d.predicates {
                hash_predicate(p, h);
            }
        }
    }
}

fn hash_predicate(p: &Predicate, h: &mut impl Hasher) {
    p.table.hash(h);
    p.column.hash(h);
    p.kind.hash(h);
    p.selectivity.to_bits().hash(h);
}

/// Builder helpers for constructing statements programmatically (used by the
/// workload generator and by tests that do not want to go through SQL text).
pub mod build {
    use super::*;

    /// Start building a `SELECT` statement.
    pub fn select() -> SelectBuilder {
        SelectBuilder::default()
    }

    /// Builder for [`SelectStmt`].
    #[derive(Debug, Default)]
    pub struct SelectBuilder {
        stmt: SelectStmt,
    }

    impl SelectBuilder {
        /// Add a table to the `FROM` list.
        pub fn table(mut self, t: TableId) -> Self {
            if !self.stmt.tables.contains(&t) {
                self.stmt.tables.push(t);
            }
            self
        }

        /// Add a single-table predicate.
        pub fn predicate(
            mut self,
            table: TableId,
            column: ColumnId,
            kind: PredicateKind,
            selectivity: f64,
        ) -> Self {
            self.stmt.predicates.push(Predicate {
                table,
                column,
                kind,
                selectivity: selectivity.clamp(1e-9, 1.0),
            });
            if !self.stmt.referenced_columns.contains(&column) {
                self.stmt.referenced_columns.push(column);
            }
            self
        }

        /// Add an equi-join predicate.
        pub fn join(
            mut self,
            left_table: TableId,
            left_column: ColumnId,
            right_table: TableId,
            right_column: ColumnId,
        ) -> Self {
            self.stmt.joins.push(JoinPredicate {
                left_table,
                left_column,
                right_table,
                right_column,
            });
            for c in [left_column, right_column] {
                if !self.stmt.referenced_columns.contains(&c) {
                    self.stmt.referenced_columns.push(c);
                }
            }
            self
        }

        /// Add a projected (output) column.
        pub fn output(mut self, column: ColumnId) -> Self {
            if !self.stmt.referenced_columns.contains(&column) {
                self.stmt.referenced_columns.push(column);
            }
            self
        }

        /// Add an `ORDER BY` column.
        pub fn order_by(mut self, column: ColumnId) -> Self {
            self.stmt.order_by.push(column);
            if !self.stmt.referenced_columns.contains(&column) {
                self.stmt.referenced_columns.push(column);
            }
            self
        }

        /// Finish, producing a [`Statement`].
        pub fn build(self) -> Statement {
            Statement::new(StatementKind::Select(self.stmt))
        }
    }

    /// Build an `UPDATE` statement.
    pub fn update(
        table: TableId,
        set_columns: Vec<ColumnId>,
        predicates: Vec<Predicate>,
    ) -> Statement {
        let referenced_columns = predicates.iter().map(|p| p.column).collect();
        Statement::new(StatementKind::Update(UpdateStmt {
            table,
            set_columns,
            predicates,
            referenced_columns,
        }))
    }

    /// Build an `INSERT` statement.
    pub fn insert(table: TableId, row_count: f64) -> Statement {
        Statement::new(StatementKind::Insert(InsertStmt { table, row_count }))
    }

    /// Build a `DELETE` statement.
    pub fn delete(table: TableId, predicates: Vec<Predicate>) -> Statement {
        let referenced_columns = predicates.iter().map(|p| p.column).collect();
        Statement::new(StatementKind::Delete(DeleteStmt {
            table,
            predicates,
            referenced_columns,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_stable_and_distinguish_statements() {
        let t = TableId(0);
        let c = ColumnId(0);
        let s1 = build::select()
            .table(t)
            .predicate(t, c, PredicateKind::Equality, 0.01)
            .build();
        let s2 = build::select()
            .table(t)
            .predicate(t, c, PredicateKind::Equality, 0.01)
            .build();
        let s3 = build::select()
            .table(t)
            .predicate(t, c, PredicateKind::Equality, 0.02)
            .build();
        assert_eq!(s1.fingerprint, s2.fingerprint);
        assert_ne!(s1.fingerprint, s3.fingerprint);
    }

    #[test]
    fn join_predicate_helpers() {
        let j = JoinPredicate {
            left_table: TableId(0),
            left_column: ColumnId(0),
            right_table: TableId(1),
            right_column: ColumnId(5),
        };
        assert_eq!(j.column_for(TableId(0)), Some(ColumnId(0)));
        assert_eq!(j.column_for(TableId(1)), Some(ColumnId(5)));
        assert_eq!(j.column_for(TableId(2)), None);
        assert_eq!(j.other_table(TableId(0)), Some(TableId(1)));
        assert_eq!(j.other_table(TableId(7)), None);
    }

    #[test]
    fn statement_accessors() {
        let t = TableId(3);
        let c = ColumnId(9);
        let upd = build::update(
            t,
            vec![c],
            vec![Predicate {
                table: t,
                column: c,
                kind: PredicateKind::Range,
                selectivity: 0.1,
            }],
        );
        assert!(upd.is_update());
        assert_eq!(upd.tables(), vec![t]);
        assert_eq!(upd.predicates().len(), 1);
        assert!(upd.joins().is_empty());

        let sel = build::select().table(t).output(c).build();
        assert!(!sel.is_update());
        assert_eq!(sel.referenced_columns(), &[c]);
    }

    #[test]
    fn builder_dedups_tables_and_columns() {
        let t = TableId(0);
        let c = ColumnId(1);
        let s = build::select()
            .table(t)
            .table(t)
            .output(c)
            .output(c)
            .build();
        assert_eq!(s.tables().len(), 1);
        assert_eq!(s.referenced_columns().len(), 1);
    }

    #[test]
    fn selectivity_is_clamped() {
        let t = TableId(0);
        let c = ColumnId(0);
        let s = build::select()
            .table(t)
            .predicate(t, c, PredicateKind::Equality, 7.0)
            .build();
        assert!(s.predicates()[0].selectivity <= 1.0);
        let s = build::select()
            .table(t)
            .predicate(t, c, PredicateKind::Equality, -0.5)
            .build();
        assert!(s.predicates()[0].selectivity > 0.0);
    }

    #[test]
    fn insert_and_delete_builders() {
        let t = TableId(2);
        let ins = build::insert(t, 10.0);
        assert!(ins.is_update());
        assert!(ins.predicates().is_empty());
        let del = build::delete(t, vec![]);
        assert!(del.is_update());
        assert_eq!(del.tables(), vec![t]);
    }
}
