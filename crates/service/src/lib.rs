//! # service — a multi-tenant online index-tuning daemon
//!
//! The WFIT paper describes an *online* algorithm meant to live inside a
//! DBMS; this crate hosts it as a long-running, multi-tenant **service**,
//! the deployment shape of production index-management systems.  A
//! [`TuningService`] owns:
//!
//! * a **tenant registry** — each tenant is one database
//!   ([`simdb::Database`] behind an `Arc`) plus a
//!   [`simdb::cache::SharedWhatIfCache`] shared by all of the tenant's
//!   sessions (optionally capacity-bounded with deterministic CLOCK
//!   eviction, see [`simdb::cache::CacheConfig`] and [`TenantOptions`]) —
//!   redundant what-if optimization across sessions collapses into cache
//!   hits;
//! * a fleet of **tuning sessions** per tenant — each a
//!   [`wfit_core::TuningSession`] driving any boxed
//!   [`wfit_core::IndexAdvisor`] (WFIT, BC, …) over a clone of the tenant's
//!   environment ([`TenantEnv`]); a session's what-if count is its
//!   advisor's [`wfit_core::IndexAdvisor::whatif_calls`], as in an offline
//!   replay, and the tenant's is its cache's
//!   [`simdb::whatif::WhatIfStats`];
//! * a sharded **ingress** of pending events — [`Event::Query`] and
//!   [`Event::Vote`] items submitted with [`TuningService::submit`] (or a
//!   cloned [`ServiceHandle`], from any thread, **while a drain is
//!   running**) are sharded by tenant id into per-tenant FIFO queues
//!   ([`Ingress`]) and drained by [`TuningService::poll`] rounds
//!   ([`TuningService::process_pending`] loops rounds until empty): each
//!   event, in submission order, goes to every healthy session of its
//!   tenant; with [`TuningService::with_ingress`] the ingress is **bounded**
//!   ([`IngressConfig`]): an admission gate enforces per-tenant and global
//!   depth budgets, [`TuningService::try_submit`] reports
//!   [`SubmitOutcome::Accepted`]/[`SubmitOutcome::Rejected`]/
//!   [`SubmitOutcome::Deferred`] per event, blocking `submit` parks the
//!   producer instead of growing memory, votes are never shed (at a full
//!   shard they displace the newest queued query), and the
//!   shed/defer/reject ledger ([`IngressStats`]) is a pure function of
//!   submission order;
//! * a **scheduler** ([`scheduler`]) — each drain round places every busy
//!   tenant whole on one worker bin (heaviest tenant first, onto the
//!   lightest bin) from the queue-depth snapshot; the polling thread drains
//!   the first bin while a scoped worker thread drains each other bin.
//!
//! Per-session results are bit-deterministic: every session processes its
//! tenant's events in submission order, one worker drains each tenant, the
//! plan is a pure function of queue depths, and the shared cache returns
//! exactly what the optimizer would — parallelism only changes wall-clock
//! numbers ([`BatchReport`]), never recommendations, costs or cache
//! counters.
//!
//! ## Quickstart
//!
//! Register a tenant, attach a WFIT session, stream a few statements, read
//! the recommendation back:
//!
//! ```
//! use service::{Event, SessionId, TuningService};
//! use simdb::catalog::CatalogBuilder;
//! use simdb::database::Database;
//! use simdb::types::DataType;
//! use std::sync::Arc;
//! use wfit_core::{Wfit, WfitConfig};
//!
//! // One tenant database (statistics only — no base data is materialized).
//! let mut b = CatalogBuilder::new();
//! b.table("t")
//!     .rows(1_000_000.0)
//!     .column("a", DataType::Integer, 100_000.0)
//!     .column("b", DataType::Integer, 1_000.0)
//!     .finish();
//! let db = Arc::new(Database::new(b.build()));
//!
//! let mut service = TuningService::new();
//! let tenant = service.add_tenant("acme", db.clone());
//! let session = service.add_session(tenant, "wfit", |env| {
//!     Box::new(Wfit::new(env, WfitConfig::default()))
//! });
//!
//! // Stream the tenant's workload as events.
//! let q = Arc::new(db.parse("SELECT b FROM t WHERE a = 42").unwrap());
//! for _ in 0..8 {
//!     service.submit(Event::query(tenant, q.clone()));
//! }
//! let batch = service.process_pending();
//! assert_eq!(batch.events, 8);
//!
//! // The session has converged on an index for the hot predicate.
//! let recommendation = service.recommendation(session);
//! assert!(!recommendation.is_empty());
//! // Repeated analysis of the same statement is answered from the tenant's
//! // shared what-if cache.
//! assert!(service.cache_stats(tenant).hit_rate() > 0.5);
//! # assert_eq!(session, SessionId::new(tenant, 0));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod daemon;
pub mod env;
pub mod event;
pub mod ingress;
pub mod persist;
pub mod scheduler;

pub use daemon::{BatchReport, ServiceSession, TuningService};
pub use env::{TenantEnv, TenantOptions};
pub use event::{Event, SessionId, TenantId};
pub use ingress::{
    Ingress, IngressConfig, IngressStats, RejectReason, ServiceHandle, SubmitOutcome,
};
pub use persist::{PersistError, RestoreReport, Snapshot};
pub use scheduler::{SchedStats, SchedulePlan};
