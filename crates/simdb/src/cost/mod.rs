//! The plan cost model.
//!
//! Costs are expressed in abstract "page units": a sequential page read costs
//! 1.0 and everything else is scaled relative to that, following the classic
//! System-R conventions also used by PostgreSQL's planner.  The absolute
//! numbers are irrelevant to the index-tuning algorithms — what matters is
//! that the model reacts to hypothetical indices the way a real optimizer
//! does:
//!
//! * selective predicates make index scans much cheaper than sequential scans,
//!   unselective ones make them more expensive (random I/O);
//! * covering indexes avoid heap fetches entirely;
//! * two indexes on the same table can be *intersected*, making their benefits
//!   interdependent (the paper's canonical example of an index interaction);
//! * join columns with an index enable index-nested-loop joins;
//! * update statements pay a maintenance penalty for every index on the
//!   modified table that contains a modified column.
//!
//! The model's constants are `const`s next to the code that reads them: the
//! page and tuple costs of scans and index access in [`access`], the
//! hash-join row cost in [`join`], the sort cost here, and the row-write and
//! index-maintenance costs in [`update`].  The cost of building or dropping
//! an index (`δ`) is not a plan cost; it lives in [`crate::index`].

pub mod access;
pub mod join;
pub mod update;

use crate::catalog::Catalog;
use crate::index::IndexRegistry;

/// CPU cost per comparison while sorting.
const SORT_ROW_COST: f64 = 0.01;

/// Read-only bundle of everything the costing functions need.
pub struct CostContext<'a> {
    /// Schema and statistics.
    pub catalog: &'a Catalog,
    /// Index definitions.
    pub registry: &'a IndexRegistry,
}

impl<'a> CostContext<'a> {
    /// Create a costing context.
    pub fn new(catalog: &'a Catalog, registry: &'a IndexRegistry) -> Self {
        Self { catalog, registry }
    }

    /// Cardenas/Yao approximation of the number of distinct pages touched when
    /// fetching `rows` random rows from a table of `pages` pages.
    pub fn pages_fetched(&self, rows: f64, pages: f64) -> f64 {
        if pages <= 0.0 || rows <= 0.0 {
            return 0.0;
        }
        pages * (1.0 - (-rows / pages).exp())
    }

    /// Cost of sorting `rows` rows.
    pub fn sort_cost(&self, rows: f64) -> f64 {
        if rows <= 1.0 {
            return 0.0;
        }
        rows * rows.log2().max(1.0) * SORT_ROW_COST
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogBuilder;
    use crate::types::DataType;

    #[test]
    fn pages_fetched_is_bounded_by_pages_and_rows() {
        let mut b = CatalogBuilder::new();
        b.table("t")
            .rows(100.0)
            .column("a", DataType::Integer, 10.0)
            .finish();
        let catalog = b.build();
        let registry = IndexRegistry::new();
        let ctx = CostContext::new(&catalog, &registry);

        // Fetching few rows from many pages touches about that many pages.
        let few = ctx.pages_fetched(10.0, 10_000.0);
        assert!(few > 9.0 && few <= 10.0);
        // Fetching many rows cannot touch more pages than exist.
        let many = ctx.pages_fetched(1_000_000.0, 50.0);
        assert!(many <= 50.0 && many > 49.0);
        // Degenerate inputs.
        assert_eq!(ctx.pages_fetched(0.0, 100.0), 0.0);
        assert_eq!(ctx.pages_fetched(10.0, 0.0), 0.0);
    }

    #[test]
    fn sort_cost_grows_superlinearly() {
        let catalog = Catalog::default();
        let registry = IndexRegistry::new();
        let ctx = CostContext::new(&catalog, &registry);
        let small = ctx.sort_cost(1_000.0);
        let large = ctx.sort_cost(10_000.0);
        assert!(large > 10.0 * small);
        assert_eq!(ctx.sort_cost(1.0), 0.0);
    }

    #[test]
    fn default_config_orders_io_costs_sensibly() {
        const {
            assert!(access::RANDOM_PAGE_COST > access::SEQ_PAGE_COST);
            assert!(access::CPU_TUPLE_COST < access::SEQ_PAGE_COST);
            assert!(update::INDEX_MAINTENANCE_ROW_COST > update::WRITE_ROW_COST);
        }
    }
}
