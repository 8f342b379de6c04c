//! A semi-automatic tuning session: the DBA inspects WFIT's recommendation,
//! creates one index manually (implicit positive feedback), vetoes another
//! (explicit negative feedback), and WFIT folds both into its next
//! recommendations — exactly the scenario sketched in the paper's
//! introduction.
//!
//! Run with `cargo run --example dba_feedback_session`.

use wfit::core::{FeedbackStream, TuningSession};
use wfit::{IndexAdvisor, IndexSet, Wfit, WfitConfig};

fn main() {
    // Use the benchmark database so the example has realistic tables.
    let bench = wfit::benchmark(6);
    let db = &bench.db;

    let mut tuner = Wfit::new(db, WfitConfig::default());

    // Phase 1: analyze a TPC-H heavy prefix of the workload.
    let prefix: Vec<_> = bench.statements.iter().take(40).cloned().collect();
    for stmt in &prefix {
        tuner.analyze_query(stmt);
    }
    let first = tuner.recommend();
    println!(
        "WFIT recommends {} indices after 40 statements:",
        first.len()
    );
    for idx in first.iter() {
        println!("  {}", db.index_name(idx));
    }

    // Phase 2: the DBA reacts.
    //  - They create the first recommended index out-of-band  → implicit +vote.
    //  - They refuse the second one (say, it clashed with locking in the past)
    //    → explicit −vote.
    let mut it = first.iter();
    let accepted = it.next();
    let vetoed = it.next();
    if let (Some(acc), Some(veto)) = (accepted, vetoed) {
        println!();
        println!(
            "DBA creates {} and vetoes {}",
            db.index_name(acc),
            db.index_name(veto)
        );
        tuner.feedback(&IndexSet::single(acc), &IndexSet::single(veto));
        tuner.notify_materialized(IndexSet::single(acc));
        let after = tuner.recommend();
        assert!(after.contains(acc));
        assert!(!after.contains(veto));
        println!(
            "next recommendation honors both votes ({} indices)",
            after.len()
        );
    }

    // Phase 3: keep tuning; the workload may eventually override the votes.
    // A session adopts each recommendation and adds up the work done.
    let mut session = TuningSession::new(db, tuner);
    session.replay(&bench.statements[40..], &FeedbackStream::empty());
    println!();
    println!(
        "after the full workload: total work {:.0}, final recommendation {} indices",
        session.stats().total_work,
        session.recommendation().len()
    );

    // A session also replays a scheduled feedback stream — this is how the
    // paper's V_GOOD / V_BAD experiments are driven.
    let mut stream = FeedbackStream::empty();
    if let Some(acc) = accepted {
        stream.add(10, IndexSet::single(acc), IndexSet::empty());
    }
    let mut fresh = TuningSession::new(db, Wfit::new(db, WfitConfig::default()));
    fresh.replay(&bench.statements, &stream);
    println!(
        "replay with a scheduled +vote at statement 10: total work {:.0}",
        fresh.stats().total_work
    );
}
