//! # wfit-core — semi-automatic index tuning
//!
//! Reproduction of the algorithms of *Semi-Automatic Index Tuning: Keeping
//! DBAs in the Loop* (Schnaitter & Polyzotis, VLDB 2012):
//!
//! * [`wfa`] — the Work Function Algorithm (WFA) applied to index tuning
//!   (Section 4.1, Figure 3), with the asymmetric transition costs handled as
//!   in the paper's Appendix A;
//! * [`hypercube`] — the configuration bitmask format of one part (`set_of`,
//!   `mask_of` and the transition cost `δ`) shared by WFA, WFIT and OPT;
//! * [`wfit`] — the full WFIT algorithm (Section 5): DBA feedback with the
//!   consistency and recoverability guarantees of §5.1, automatic candidate
//!   maintenance (`chooseCands`, `topIndices`, `choosePartition`) and
//!   repartitioning (§5.2).  [`Wfit::with_fixed_partition`] is WFA⁺, the
//!   divide-and-conquer variant running one WFA instance per part of a fixed
//!   stable partition (Section 4.2, Theorem 4.2) that Figures 8–11 run;
//! * [`candidates`] — the candidate/partition selection machinery shared by
//!   WFIT and the offline fixed-partition setup used by the experiments;
//! * [`evaluator`] — the inputs of the `totWork` metric: DBA acceptance
//!   models (immediate and lagged) and scheduled feedback streams, plus the
//!   fixed-schedule scorer that OPT and the tests use as a reference;
//! * [`session`] — [`session::TuningSession`], the one loop that adopts
//!   recommendations and adds up `totWork`: the event-driven submit-query /
//!   vote / read-recommendation interface a long-lived tuning service
//!   speaks, and the offline replay every experiment of Section 6 runs;
//! * [`mod@env`] — the `TuningEnv` abstraction of the DBMS services the paper
//!   requires (what-if optimization, candidate extraction, transition costs),
//!   implemented by [`simdb::Database`] and by an in-memory [`env::MockEnv`]
//!   for unit tests and the paper's worked example (Figure 2 / Example 4.1).
//!
//! ## Quick example
//!
//! ```
//! use simdb::catalog::CatalogBuilder;
//! use simdb::database::Database;
//! use simdb::types::DataType;
//! use wfit_core::advisor::IndexAdvisor;
//! use wfit_core::config::WfitConfig;
//! use wfit_core::wfit::Wfit;
//!
//! let mut b = CatalogBuilder::new();
//! b.table("t")
//!     .rows(1_000_000.0)
//!     .column("a", DataType::Integer, 100_000.0)
//!     .column("b", DataType::Integer, 1_000.0)
//!     .finish();
//! let db = Database::new(b.build());
//!
//! let mut tuner = Wfit::new(&db, WfitConfig::default());
//! let q = db.parse("SELECT b FROM t WHERE a = 42").unwrap();
//! for _ in 0..8 {
//!     tuner.analyze_query(&q);
//! }
//! let recommendation = tuner.recommend();
//! assert!(!recommendation.is_empty());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod advisor;
pub mod candidates;
pub mod config;
pub mod env;
pub mod evaluator;
pub mod hypercube;
pub mod json;
pub mod session;
pub mod wfa;
pub mod wfit;

pub use advisor::IndexAdvisor;
pub use config::WfitConfig;
pub use env::{MockEnv, SharedIbg, TuningEnv};
pub use evaluator::{AcceptancePolicy, FeedbackStream};
pub use session::{QueryOutcome, SessionStats, TuningSession};
pub use wfa::WfaInstance;
pub use wfit::Wfit;
