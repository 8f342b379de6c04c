//! Schema catalog: tables, columns and the statistics driving the cost model.
//!
//! The simulator never materializes base data.  Everything the optimizer needs
//! is captured by per-table and per-column statistics: row counts, row widths,
//! column cardinalities (number of distinct values) and numeric min/max bounds
//! used for range-selectivity interpolation.

use crate::error::{Error, Result};
use crate::types::{ColumnId, DataType, TableId, PAGE_SIZE};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Statistics and metadata for a single column.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ColumnMeta {
    /// Global identifier of the column.
    pub id: ColumnId,
    /// Table the column belongs to.
    pub table: TableId,
    /// Column name (unqualified).
    pub name: String,
    /// Logical type.
    pub data_type: DataType,
    /// Estimated number of distinct values.
    pub distinct_values: f64,
    /// Minimum numeric value (used for range selectivity interpolation).
    pub min_value: f64,
    /// Maximum numeric value (used for range selectivity interpolation).
    pub max_value: f64,
    /// Average width of the column in bytes.
    pub width: f64,
}

/// Statistics and metadata for a single table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableMeta {
    /// Identifier of the table.
    pub id: TableId,
    /// Fully qualified name, e.g. `tpch.lineitem`.
    pub name: String,
    /// Columns of the table, in declaration order.
    pub columns: Vec<ColumnId>,
    /// Estimated number of rows.
    pub row_count: f64,
    /// Average row width in bytes (sum of column widths plus per-row overhead).
    pub row_width: f64,
}

impl TableMeta {
    /// Number of heap pages occupied by the table.
    pub fn pages(&self) -> f64 {
        ((self.row_count * self.row_width) / PAGE_SIZE).max(1.0)
    }
}

/// The schema catalog: a read-only collection of tables and columns with
/// statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Catalog {
    tables: Vec<TableMeta>,
    columns: Vec<ColumnMeta>,
    table_by_name: HashMap<String, TableId>,
    /// Maps `table.column` and bare `column` (when unambiguous) to ids.
    column_by_name: HashMap<String, Vec<ColumnId>>,
}

impl Catalog {
    /// Number of tables in the catalog.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Metadata for a table.
    ///
    /// # Panics
    /// Panics if the id is not in the catalog (ids are only minted by the
    /// builder, so this indicates a logic error).
    pub fn table(&self, id: TableId) -> &TableMeta {
        &self.tables[id.0 as usize]
    }

    /// Metadata for a column.
    pub fn column(&self, id: ColumnId) -> &ColumnMeta {
        &self.columns[id.0 as usize]
    }

    /// All tables in the catalog.
    pub fn tables(&self) -> impl Iterator<Item = &TableMeta> {
        self.tables.iter()
    }

    /// All columns in the catalog.
    pub fn columns(&self) -> impl Iterator<Item = &ColumnMeta> {
        self.columns.iter()
    }

    /// Resolve a table by (qualified) name.
    pub fn table_by_name(&self, name: &str) -> Result<TableId> {
        self.table_by_name
            .get(&name.to_ascii_lowercase())
            .copied()
            .ok_or_else(|| Error::UnknownTable(name.to_string()))
    }

    /// Resolve a column by name.
    ///
    /// `name` may be qualified (`table.column`) or bare.  A bare name is an
    /// error if it is ambiguous across the tables in `scope` (or across the
    /// whole catalog when `scope` is empty).
    pub fn column_by_name(&self, name: &str, scope: &[TableId]) -> Result<ColumnId> {
        let lower = name.to_ascii_lowercase();
        let candidates = self
            .column_by_name
            .get(&lower)
            .ok_or_else(|| Error::UnknownColumn(name.to_string()))?;
        let filtered: Vec<ColumnId> = if scope.is_empty() {
            candidates.clone()
        } else {
            candidates
                .iter()
                .copied()
                .filter(|c| scope.contains(&self.column(*c).table))
                .collect()
        };
        match filtered.len() {
            0 => Err(Error::UnknownColumn(name.to_string())),
            1 => Ok(filtered[0]),
            _ => Err(Error::UnknownColumn(format!("ambiguous column: {name}"))),
        }
    }

    /// Sum of widths of the given columns (used for index size estimation).
    pub fn columns_width(&self, cols: &[ColumnId]) -> f64 {
        cols.iter().map(|c| self.column(*c).width).sum()
    }
}

/// Builder used to declare schemas programmatically.
///
/// ```
/// use simdb::catalog::CatalogBuilder;
/// use simdb::types::DataType;
///
/// let mut b = CatalogBuilder::new();
/// b.table("tpch.orders")
///     .rows(1_500_000.0)
///     .column("o_orderkey", DataType::Integer, 1_500_000.0)
///     .column("o_custkey", DataType::Integer, 100_000.0)
///     .column_with_range("o_totalprice", DataType::Decimal, 800_000.0, 850.0, 560_000.0)
///     .finish();
/// let catalog = b.build();
/// assert_eq!(catalog.table_count(), 1);
/// ```
#[derive(Debug, Default)]
pub struct CatalogBuilder {
    catalog: Catalog,
}

impl CatalogBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start declaring a new table.  Finish the declaration with
    /// [`TableBuilder::finish`].
    pub fn table<'a>(&'a mut self, name: &str) -> TableBuilder<'a> {
        TableBuilder {
            builder: self,
            name: name.to_string(),
            row_count: 1000.0,
            columns: Vec::new(),
        }
    }

    /// Finalize the catalog.
    pub fn build(self) -> Catalog {
        self.catalog
    }

    fn add_table(&mut self, name: String, row_count: f64, cols: Vec<PendingColumn>) -> TableId {
        let table_id = TableId(self.catalog.tables.len() as u32);
        let mut column_ids = Vec::with_capacity(cols.len());
        let mut row_width = 8.0; // per-row header overhead
        for col in cols {
            let col_id = ColumnId(self.catalog.columns.len() as u32);
            let width = col.data_type.width();
            row_width += width;
            let meta = ColumnMeta {
                id: col_id,
                table: table_id,
                name: col.name.clone(),
                data_type: col.data_type,
                distinct_values: col.distinct_values.max(1.0),
                min_value: col.min_value,
                max_value: col.max_value,
                width,
            };
            // Register lookup names: bare and qualified.
            let bare = col.name.to_ascii_lowercase();
            let qualified = format!("{}.{}", name.to_ascii_lowercase(), bare);
            // Also register `last_component.column` (e.g. `lineitem.l_tax` when
            // the table name is `tpch.lineitem`).
            let short_table = name
                .rsplit('.')
                .next()
                .unwrap_or(&name)
                .to_ascii_lowercase();
            let short_qualified = format!("{short_table}.{bare}");
            for key in [bare, qualified, short_qualified] {
                self.catalog
                    .column_by_name
                    .entry(key)
                    .or_default()
                    .push(col_id);
            }
            self.catalog.columns.push(meta);
            column_ids.push(col_id);
        }
        let table = TableMeta {
            id: table_id,
            name: name.clone(),
            columns: column_ids,
            row_count: row_count.max(1.0),
            row_width,
        };
        self.catalog
            .table_by_name
            .insert(name.to_ascii_lowercase(), table_id);
        // Also register the unqualified suffix when the name is schema-qualified.
        if let Some(short) = name.rsplit('.').next() {
            self.catalog
                .table_by_name
                .entry(short.to_ascii_lowercase())
                .or_insert(table_id);
        }
        self.catalog.tables.push(table);
        table_id
    }
}

struct PendingColumn {
    name: String,
    data_type: DataType,
    distinct_values: f64,
    min_value: f64,
    max_value: f64,
}

/// Builder for a single table; created via [`CatalogBuilder::table`].
pub struct TableBuilder<'a> {
    builder: &'a mut CatalogBuilder,
    name: String,
    row_count: f64,
    columns: Vec<PendingColumn>,
}

impl<'a> TableBuilder<'a> {
    /// Set the estimated row count of the table.
    pub fn rows(mut self, rows: f64) -> Self {
        self.row_count = rows;
        self
    }

    /// Add a column with default numeric bounds `[0, distinct)`.
    pub fn column(self, name: &str, data_type: DataType, distinct: f64) -> Self {
        let max = distinct.max(1.0);
        self.column_with_range(name, data_type, distinct, 0.0, max)
    }

    /// Add a column with explicit numeric bounds used for range selectivity.
    pub fn column_with_range(
        mut self,
        name: &str,
        data_type: DataType,
        distinct: f64,
        min_value: f64,
        max_value: f64,
    ) -> Self {
        self.columns.push(PendingColumn {
            name: name.to_string(),
            data_type,
            distinct_values: distinct,
            min_value,
            max_value: max_value.max(min_value + 1.0),
        });
        self
    }

    /// Register the table with the catalog and return its id.
    pub fn finish(self) -> TableId {
        self.builder
            .add_table(self.name, self.row_count, self.columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_catalog() -> Catalog {
        let mut b = CatalogBuilder::new();
        b.table("tpch.lineitem")
            .rows(6_000_000.0)
            .column("l_orderkey", DataType::Integer, 1_500_000.0)
            .column("l_partkey", DataType::Integer, 200_000.0)
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
        b.build()
    }

    #[test]
    fn builder_registers_tables_and_columns() {
        let c = sample_catalog();
        assert_eq!(c.table_count(), 2);
        let t = c.table_by_name("tpch.lineitem").unwrap();
        assert_eq!(c.table(t).columns.len(), 4);
        assert!(c.table(t).row_count > 5e6);
    }

    #[test]
    fn short_table_name_resolves() {
        let c = sample_catalog();
        let a = c.table_by_name("tpch.orders").unwrap();
        let b = c.table_by_name("orders").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_table_is_error() {
        let c = sample_catalog();
        assert!(matches!(
            c.table_by_name("tpch.nation"),
            Err(Error::UnknownTable(_))
        ));
    }

    #[test]
    fn column_lookup_qualified_and_bare() {
        let c = sample_catalog();
        let q = c.column_by_name("tpch.lineitem.l_tax", &[]).unwrap();
        let s = c.column_by_name("lineitem.l_tax", &[]).unwrap();
        let b = c.column_by_name("l_tax", &[]).unwrap();
        assert_eq!(q, s);
        assert_eq!(q, b);
    }

    #[test]
    fn ambiguous_or_missing_column_is_error() {
        let c = sample_catalog();
        assert!(c.column_by_name("does_not_exist", &[]).is_err());
    }

    #[test]
    fn column_scope_filters_tables() {
        let c = sample_catalog();
        let orders = c.table_by_name("orders").unwrap();
        // l_tax does not exist in orders
        assert!(c.column_by_name("l_tax", &[orders]).is_err());
    }

    #[test]
    fn table_pages_scale_with_rows() {
        let c = sample_catalog();
        let li = c.table(c.table_by_name("lineitem").unwrap());
        let ord = c.table(c.table_by_name("orders").unwrap());
        assert!(li.pages() > ord.pages());
        assert!(li.pages() >= 1.0);
    }

    #[test]
    fn row_width_includes_overhead() {
        let c = sample_catalog();
        let ord = c.table(c.table_by_name("orders").unwrap());
        assert!(ord.row_width > 16.0);
    }

    #[test]
    fn columns_width_sums() {
        let c = sample_catalog();
        let li = c.table(c.table_by_name("lineitem").unwrap());
        let w = c.columns_width(&li.columns);
        assert!(w >= 8.0 * 4.0);
    }

    #[test]
    fn distinct_values_floored_at_one() {
        let mut b = CatalogBuilder::new();
        b.table("x")
            .rows(10.0)
            .column("c", DataType::Integer, 0.0)
            .finish();
        let c = b.build();
        let col = c.column_by_name("c", &[]).unwrap();
        assert!(c.column(col).distinct_values >= 1.0);
    }
}
