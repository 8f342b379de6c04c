//! # wfit — semi-automatic index tuning, end to end
//!
//! This façade crate re-exports the building blocks of the WFIT reproduction
//! (Schnaitter & Polyzotis, *Semi-Automatic Index Tuning: Keeping DBAs in the
//! Loop*, VLDB 2012) so that applications can depend on a single crate:
//!
//! * [`simdb`] — the simulated DBMS substrate (catalog, SQL subset, what-if
//!   optimizer, transition costs);
//! * [`ibg`] — index benefit graphs, interaction analysis, stable partitions;
//! * [`wfit_core`] (re-exported as `core`) — WFA and WFIT (whose
//!   fixed-partition mode is WFA⁺), the feedback mechanism and
//!   `TuningSession`, the one loop that adopts recommendations and adds up
//!   `totWork`, online or replaying a whole workload;
//! * [`advisors`] — the BC and OPT baselines;
//! * [`workload`] — the eight-phase online index-tuning benchmark;
//! * [`service`] — the multi-tenant online tuning daemon (tenant registry,
//!   event sharding, shared what-if cost caches).
//!
//! See `examples/quickstart.rs` for the fastest way to get a recommendation
//! out of WFIT, `examples/dba_feedback_session.rs` for the semi-automatic
//! feedback loop, and `examples/tuning_service.rs` for the multi-tenant
//! service driving eight tenants concurrently.

pub use advisors;
pub use ibg;
pub use service;
pub use simdb;
pub use wfit_core as core;
pub use workload;

pub use simdb::database::Database;
pub use simdb::index::{IndexId, IndexSet};
pub use wfit_core::advisor::IndexAdvisor;
pub use wfit_core::config::WfitConfig;
pub use wfit_core::wfit::Wfit;

/// Convenience: build the benchmark database and workload of the paper's
/// evaluation with `statements_per_phase` statements per phase.
pub fn benchmark(statements_per_phase: usize) -> workload::Benchmark {
    workload::Benchmark::generate(workload::BenchmarkSpec::small(statements_per_phase))
}
