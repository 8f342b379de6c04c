//! # harness — deterministic scenario replay for the WFIT reproduction
//!
//! The experiment subsystem every figure bench and regression test builds
//! on.  A declarative [`ScenarioSpec`] (workload phases, drift, update
//! fractions, seeded RNG, scripted DBA-feedback events, advisor fleet) is
//! replayed deterministically by [`ScenarioContext`], producing a structured
//! [`RunReport`] — total-work ratio vs. OPT, transition cost, what-if calls,
//! repartitions, recommendation churn, wall time — serializable to JSON for
//! golden-run regression testing.
//!
//! Design rules:
//!
//! * **No process-global state.** The workload phase length and seed are
//!   explicit spec fields; the harness never reads environment variables, so
//!   concurrent scenarios cannot race (the benches read `WFIT_PHASE_LEN`
//!   once, at their own entry points).
//! * **Deterministic replay.** All id-interning and offline analysis happens
//!   single-threaded in [`PreparedWorkload::prepare`]; the independent
//!   (advisor × options) cells then run in parallel with
//!   `std::thread::scope`, each a [`wfit_core::TuningSession`] owning its
//!   advisor and RNG, so thread interleaving never changes a reported
//!   metric.  Identical specs render byte-identical [`RunReport::to_json`]
//!   output.
//! * **Offline-friendly JSON.** The vendored `serde` stub cannot serialize,
//!   so reports render through [`wfit_core::json`]: a small deterministic
//!   writer/parser and a tolerance-aware diff for golden files.
//!
//! The canonical scenarios (the paper's Figures 8–12, overhead, ablations,
//! and the miniature golden variants) live in [`scenarios`].  Multi-tenant
//! **service** scenarios — many workload streams pushed through
//! [`service::TuningService`] with shared per-tenant what-if caches — live
//! in [`service_run`] and report through the same [`RunReport`] (plus a
//! [`report::ServiceSummary`] block).  Both share one path from spec to
//! report: the session fleet is the same [`AdvisorSpec`] list the cells
//! use, every tenant is a [`PreparedWorkload`], one builder constructs
//! every advisor, and one function reports every cell from its
//! `TuningSession`, so an advisor reports the same name and counters in
//! both.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod report;
pub mod runner;
pub mod scenarios;
pub mod service_run;
pub mod spec;

pub use report::{CellReport, RunReport, ServiceSummary};
pub use runner::{run_scenario, PreparedWorkload, ScenarioContext};
pub use service_run::{
    run_service_control, run_service_scenario, run_service_scenario_traced, ServiceEventKind,
    ServiceScenarioSpec, ServiceTrace,
};
pub use spec::{AdvisorSpec, CellSpec, FeedbackEvent, FeedbackSpec, ScenarioSpec};
