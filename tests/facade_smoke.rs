//! Smoke test of the `wfit` façade: every re-export referenced in the crate
//! docs must resolve and cooperate end to end, so a wiring regression in
//! `src/lib.rs` fails fast here rather than in downstream examples.

use wfit::core::{FeedbackStream, TuningSession};
use wfit::{Database, IndexAdvisor, IndexSet, Wfit, WfitConfig};

#[test]
fn facade_reexports_compose_end_to_end() {
    // `benchmark` is the façade's convenience entry point.
    let bench = wfit::benchmark(2);
    assert!(
        !bench.statements.is_empty(),
        "benchmark workload must not be empty"
    );

    // `Database` is the re-exported simdb type, not a separate shim.
    let db: &Database = &bench.db;

    let mut advisor = Wfit::new(db, WfitConfig::default());
    for stmt in &bench.statements {
        advisor.analyze_query(stmt);
    }
    let rec: IndexSet = advisor.recommend();
    let known = db.all_indexes();
    for id in rec.iter() {
        assert!(
            known.contains(&id),
            "recommended index {id:?} must exist in the database"
        );
    }

    // The session replay every experiment runs must also work through the
    // façade re-exports.
    let mut session = TuningSession::new(db, Wfit::new(db, WfitConfig::default()));
    session.replay(&bench.statements, &FeedbackStream::empty());
    assert!(session.stats().total_work > 0.0);
}

#[test]
fn facade_module_reexports_resolve() {
    // Each sub-crate is reachable through the façade under its documented name.
    let _cfg: wfit::core::config::WfitConfig = WfitConfig::default();
    let set = wfit::simdb::index::IndexSet::empty();
    assert!(set.is_empty());
    let weights = wfit::ibg::partition::InteractionWeights::new();
    let _ = &weights;
    let spec = wfit::workload::BenchmarkSpec::small(1);
    let _ = &spec;
    let _noop = wfit::advisors::NoIndexAdvisor;
}
