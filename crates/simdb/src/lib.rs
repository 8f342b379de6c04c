//! # simdb — an analytical cost-model DBMS simulator with a what-if optimizer
//!
//! This crate is the substrate used by the WFIT reproduction of
//! *Semi-Automatic Index Tuning: Keeping DBAs in the Loop*
//! (Schnaitter & Polyzotis, VLDB 2012).  The paper runs on top of IBM DB2 and
//! only consumes two services from the DBMS:
//!
//! 1. a **what-if optimizer** — `cost(q, X)`, the estimated cost of evaluating
//!    statement `q` when the hypothetical set of indices `X` is materialized;
//! 2. an implementation of **`extractIndices(q)`** — candidate indices that are
//!    syntactically relevant to a statement.
//!
//! `simdb` provides both on top of a purely statistics-driven cost model: no
//! base data is ever materialized, which mirrors the paper's evaluation
//! methodology ("the total work metric is evaluated using the optimizer's cost
//! model").
//!
//! The crate contains:
//!
//! * [`catalog`] — tables, columns and their statistics;
//! * [`index`] — secondary index definitions, an interning registry,
//!   [`index::IndexSet`] configurations, and the cost of building an index;
//! * [`sql`] — a tokenizer, recursive-descent parser and binder for the SQL
//!   subset used by the benchmark workloads;
//! * [`query`] — bound logical statements (the optimizer's input);
//! * [`selectivity`] — predicate selectivity estimation;
//! * [`cost`] — the plan cost model (scans, index access, intersections,
//!   joins, sorts, update maintenance);
//! * [`optimizer`] — the what-if optimizer proper, returning both the plan
//!   cost and the set of indices the plan uses (needed by the index benefit
//!   graph);
//! * [`cache`] — the one what-if memo: a concurrent, interned, optionally
//!   bounded cost cache, unbounded behind [`Database::whatif_cost`] and one
//!   per tenant of the multi-tenant service in `crates/service`;
//! * [`whatif`] — the memo's usage counters (the paper reports what-if call
//!   counts as an overhead metric);
//! * [`digest`] — the FNV-1a hasher behind every deterministic digest;
//! * [`extract`] — `extractIndices(q)`.
//!
//! ## Quick example
//!
//! ```
//! use simdb::catalog::CatalogBuilder;
//! use simdb::database::Database;
//! use simdb::index::IndexSet;
//!
//! let mut builder = CatalogBuilder::new();
//! builder
//!     .table("t")
//!     .rows(1_000_000.0)
//!     .column("a", simdb::types::DataType::Integer, 50_000.0)
//!     .column("b", simdb::types::DataType::Integer, 100.0)
//!     .finish();
//! let db = Database::new(builder.build());
//!
//! let stmt = db.parse("SELECT a FROM t WHERE a = 17").unwrap();
//! let idx = db.define_index("t", &["a"]).unwrap();
//!
//! let without = db.whatif_cost(&stmt, &IndexSet::empty());
//! let with = db.whatif_cost(&stmt, &IndexSet::single(idx));
//! assert!(with.total < without.total);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
pub mod catalog;
pub mod cost;
pub mod database;
pub mod digest;
pub mod error;
pub mod extract;
pub mod index;
pub mod optimizer;
pub mod query;
pub mod selectivity;
pub mod sql;
pub mod types;
pub mod whatif;

pub use cache::SharedWhatIfCache;
pub use catalog::{Catalog, CatalogBuilder};
pub use database::Database;
pub use error::{Error, Result};
pub use index::{IndexDef, IndexId, IndexSet};
pub use optimizer::PlanCost;
pub use query::Statement;
pub use types::{ColumnId, DataType, TableId};
