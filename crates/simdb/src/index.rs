//! Secondary index definitions, configurations and the cost of building an
//! index.
//!
//! The paper models the physical design as a subset of a universe `I` of
//! candidate indices.  Changing the materialized set from `X` to `Y` costs
//! `δ(X, Y)`, which is the sum of per-index creation costs for `Y − X` and
//! per-index drop costs for `X − Y`.  `δ` obeys the triangle inequality but is
//! *not* symmetric (creation is much more expensive than dropping) — this
//! asymmetry is precisely what makes the competitive analysis in the paper
//! non-trivial.
//!
//! This module prices one index: [`IndexDef::create_cost`] is `δ⁺(a)`, a
//! function of the definition and the catalog.  Dropping costs a flat
//! `DROP_COST` (see [`crate::database::Database::drop_cost`]).  The sum over index sets is
//! `TuningEnv::transition_cost` in `wfit_core`, the one implementation of
//! `δ(X, Y)`.

use crate::catalog::Catalog;
use crate::types::{ColumnId, TableId, PAGE_SIZE};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a (candidate or materialized) index.
///
/// Ids are minted by the [`IndexRegistry`]; the same logical index (same table
/// and key-column sequence) always maps to the same id, so ids can be used as
/// stable keys in the tuning algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct IndexId(pub u32);

impl fmt::Display for IndexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "I{}", self.0)
    }
}

/// I/O cost per heap page scanned while building an index.
const BUILD_SCAN_PAGE_COST: f64 = 1.0;
/// CPU cost per row sorted while building an index.
const BUILD_SORT_ROW_COST: f64 = 0.02;
/// I/O cost per index page written while building an index.
const BUILD_WRITE_PAGE_COST: f64 = 1.0;

/// Definition of a secondary B-tree index: an ordered sequence of key columns
/// over one table.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IndexDef {
    /// Identifier assigned by the registry.
    pub id: IndexId,
    /// Table the index is defined on.
    pub table: TableId,
    /// Key columns, in index order (prefix matching applies).
    pub key_columns: Vec<ColumnId>,
}

impl IndexDef {
    /// Human-readable name of the index, derived from the catalog.
    pub fn display_name(&self, catalog: &Catalog) -> String {
        let table = &catalog.table(self.table).name;
        let cols: Vec<&str> = self
            .key_columns
            .iter()
            .map(|c| catalog.column(*c).name.as_str())
            .collect();
        format!("idx_{}({})", table, cols.join(","))
    }

    /// Width in bytes of one index entry (key columns + row pointer).
    pub fn entry_width(&self, catalog: &Catalog) -> f64 {
        catalog.columns_width(&self.key_columns) + 12.0
    }

    /// Number of leaf pages of the index.
    pub fn pages(&self, catalog: &Catalog) -> f64 {
        let rows = catalog.table(self.table).row_count;
        ((rows * self.entry_width(catalog)) / PAGE_SIZE).max(1.0)
    }

    /// Estimated height of the B-tree (number of non-leaf levels).
    pub fn height(&self, catalog: &Catalog) -> f64 {
        let pages = self.pages(catalog);
        (pages.log2() / 8.0).ceil().max(1.0)
    }

    /// Cost `δ⁺` of building the index: scan the table, sort its rows on
    /// the key and write the leaf pages.
    pub fn create_cost(&self, catalog: &Catalog) -> f64 {
        let table = catalog.table(self.table);
        let rows = table.row_count;
        let scan = table.pages() * BUILD_SCAN_PAGE_COST;
        let sort = rows * rows.max(2.0).log2() * BUILD_SORT_ROW_COST / 10.0;
        let write = self.pages(catalog) * BUILD_WRITE_PAGE_COST;
        scan + sort + write
    }
}

/// A set of indices (an index *configuration*).
///
/// Stored as a sorted vector of ids; configurations encountered by the tuning
/// algorithms are small (tens of indices), so a sorted vector beats a hash set
/// both in speed and in memory, and gives deterministic iteration order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct IndexSet {
    ids: Vec<IndexId>,
}

/// Build a configuration from an arbitrary iterator (deduplicates).
impl FromIterator<IndexId> for IndexSet {
    fn from_iter<I: IntoIterator<Item = IndexId>>(iter: I) -> Self {
        let mut ids: Vec<IndexId> = iter.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        Self { ids }
    }
}

impl IndexSet {
    /// The empty configuration.
    pub fn empty() -> Self {
        Self { ids: Vec::new() }
    }

    /// Configuration containing a single index.
    pub fn single(id: IndexId) -> Self {
        Self { ids: vec![id] }
    }

    /// Number of indices in the configuration.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the configuration is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, id: IndexId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Iterate over the indices in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = IndexId> + '_ {
        self.ids.iter().copied()
    }

    /// Insert an index (no-op if already present).
    pub fn insert(&mut self, id: IndexId) {
        if let Err(pos) = self.ids.binary_search(&id) {
            self.ids.insert(pos, id);
        }
    }

    /// Remove an index (no-op if absent).
    pub fn remove(&mut self, id: IndexId) {
        if let Ok(pos) = self.ids.binary_search(&id) {
            self.ids.remove(pos);
        }
    }

    /// Set union.
    pub fn union(&self, other: &IndexSet) -> IndexSet {
        let mut out = self.clone();
        for id in other.iter() {
            out.insert(id);
        }
        out
    }

    /// Set difference `self − other`.
    pub fn difference(&self, other: &IndexSet) -> IndexSet {
        IndexSet {
            ids: self
                .ids
                .iter()
                .copied()
                .filter(|id| !other.contains(*id))
                .collect(),
        }
    }

    /// Set intersection.
    pub fn intersection(&self, other: &IndexSet) -> IndexSet {
        IndexSet {
            ids: self
                .ids
                .iter()
                .copied()
                .filter(|id| other.contains(*id))
                .collect(),
        }
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset_of(&self, other: &IndexSet) -> bool {
        self.ids.iter().all(|id| other.contains(*id))
    }

    /// Access the underlying sorted slice of ids.
    pub fn as_slice(&self) -> &[IndexId] {
        &self.ids
    }
}

impl fmt::Display for IndexSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, id) in self.ids.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{id}")?;
        }
        write!(f, "}}")
    }
}

/// Interning registry of index definitions.
///
/// The registry guarantees that a given `(table, key columns)` pair is always
/// mapped to the same [`IndexId`], which lets the tuning algorithms accumulate
/// statistics about an index across statements.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IndexRegistry {
    defs: Vec<IndexDef>,
    by_key: HashMap<(TableId, Vec<ColumnId>), IndexId>,
    by_table: HashMap<TableId, Vec<IndexId>>,
}

impl IndexRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern an index definition, returning its stable id.
    pub fn intern(&mut self, table: TableId, key_columns: Vec<ColumnId>) -> IndexId {
        if let Some(id) = self.by_key.get(&(table, key_columns.clone())) {
            return *id;
        }
        let id = IndexId(self.defs.len() as u32);
        self.by_key.insert((table, key_columns.clone()), id);
        self.by_table.entry(table).or_default().push(id);
        self.defs.push(IndexDef {
            id,
            table,
            key_columns,
        });
        id
    }

    /// Look up an existing definition without interning.
    pub fn lookup(&self, table: TableId, key_columns: &[ColumnId]) -> Option<IndexId> {
        self.by_key.get(&(table, key_columns.to_vec())).copied()
    }

    /// Definition for an id.
    pub fn def(&self, id: IndexId) -> &IndexDef {
        &self.defs[id.0 as usize]
    }

    /// All indices registered on a table.
    pub fn indexes_on(&self, table: TableId) -> &[IndexId] {
        self.by_table
            .get(&table)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Total number of registered index definitions.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Iterate over all definitions.
    pub fn iter(&self) -> impl Iterator<Item = &IndexDef> {
        self.defs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogBuilder;
    use crate::types::DataType;

    fn setup() -> (Catalog, IndexRegistry) {
        let mut b = CatalogBuilder::new();
        b.table("t1")
            .rows(1_000_000.0)
            .column("a", DataType::Integer, 1_000_000.0)
            .column("b", DataType::Integer, 1_000.0)
            .column("c", DataType::Text, 500.0)
            .finish();
        b.table("t2")
            .rows(10_000.0)
            .column("x", DataType::Integer, 10_000.0)
            .finish();
        (b.build(), IndexRegistry::new())
    }

    #[test]
    fn interning_is_stable() {
        let (catalog, mut reg) = setup();
        let t1 = catalog.table_by_name("t1").unwrap();
        let a = catalog.column_by_name("a", &[]).unwrap();
        let b = catalog.column_by_name("b", &[]).unwrap();
        let i1 = reg.intern(t1, vec![a, b]);
        let i2 = reg.intern(t1, vec![a, b]);
        assert_eq!(i1, i2);
        let i3 = reg.intern(t1, vec![b, a]);
        assert_ne!(i1, i3, "column order is significant");
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn indexes_on_table() {
        let (catalog, mut reg) = setup();
        let t1 = catalog.table_by_name("t1").unwrap();
        let t2 = catalog.table_by_name("t2").unwrap();
        let a = catalog.column_by_name("a", &[]).unwrap();
        let x = catalog.column_by_name("x", &[]).unwrap();
        let i1 = reg.intern(t1, vec![a]);
        let i2 = reg.intern(t2, vec![x]);
        assert_eq!(reg.indexes_on(t1), &[i1]);
        assert_eq!(reg.indexes_on(t2), &[i2]);
    }

    #[test]
    fn index_set_operations() {
        let a = IndexId(1);
        let b = IndexId(2);
        let c = IndexId(3);
        let s1 = IndexSet::from_iter([a, b]);
        let s2 = IndexSet::from_iter([b, c]);
        assert_eq!(s1.union(&s2).len(), 3);
        assert_eq!(s1.intersection(&s2).as_slice(), &[b]);
        assert_eq!(s1.difference(&s2).as_slice(), &[a]);
        assert!(IndexSet::single(a).is_subset_of(&s1));
        assert!(!s1.is_subset_of(&s2));
    }

    #[test]
    fn index_set_insert_remove_keeps_sorted() {
        let mut s = IndexSet::empty();
        s.insert(IndexId(5));
        s.insert(IndexId(1));
        s.insert(IndexId(3));
        s.insert(IndexId(3));
        assert_eq!(s.as_slice(), &[IndexId(1), IndexId(3), IndexId(5)]);
        s.remove(IndexId(3));
        assert_eq!(s.as_slice(), &[IndexId(1), IndexId(5)]);
        s.remove(IndexId(42)); // no-op
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn index_set_display() {
        let s = IndexSet::from_iter([IndexId(2), IndexId(0)]);
        assert_eq!(s.to_string(), "{I0, I2}");
        assert_eq!(IndexSet::empty().to_string(), "{}");
    }

    #[test]
    fn creation_much_more_expensive_than_drop() {
        let (catalog, mut reg) = setup();
        let t1 = catalog.table_by_name("t1").unwrap();
        let a = catalog.column_by_name("a", &[]).unwrap();
        let id = reg.intern(t1, vec![a]);
        let create = reg.def(id).create_cost(&catalog);
        let drop = crate::database::DROP_COST;
        assert!(
            create > 100.0 * drop,
            "create {create} should dwarf drop {drop}"
        );
    }

    #[test]
    fn larger_tables_have_costlier_indexes() {
        let (catalog, mut reg) = setup();
        let t1 = catalog.table_by_name("t1").unwrap();
        let t2 = catalog.table_by_name("t2").unwrap();
        let a = catalog.column_by_name("a", &[]).unwrap();
        let x = catalog.column_by_name("x", &[]).unwrap();
        let big = reg.intern(t1, vec![a]);
        let small = reg.intern(t2, vec![x]);
        assert!(reg.def(big).create_cost(&catalog) > reg.def(small).create_cost(&catalog));
        assert!(reg.def(big).pages(&catalog) > reg.def(small).pages(&catalog));
        assert!(reg.def(big).height(&catalog) >= 1.0);
    }

    #[test]
    fn display_name_mentions_columns() {
        let (catalog, mut reg) = setup();
        let t1 = catalog.table_by_name("t1").unwrap();
        let a = catalog.column_by_name("a", &[]).unwrap();
        let b = catalog.column_by_name("b", &[]).unwrap();
        let id = reg.intern(t1, vec![a, b]);
        let name = reg.def(id).display_name(&catalog);
        assert!(name.contains("a,b"), "{name}");
        assert!(name.contains("t1"), "{name}");
    }
}
