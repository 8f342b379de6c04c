//! Online tuning under a shifting workload: run WFIT and the BC baseline over
//! the eight-phase benchmark and print a per-phase comparison against the
//! offline optimal schedule — a miniature of the paper's Figure 8/12 setup.
//!
//! Run with `cargo run --release --example shifting_workload`.

use advisors::{compute_optimal, BruchoChaudhuriAdvisor};
use wfit::core::candidates::offline_selection;
use wfit::core::{FeedbackStream, TuningSession};
use wfit::{IndexAdvisor, IndexSet, Wfit, WfitConfig};

fn main() {
    let bench = wfit::benchmark(25); // 8 phases × 25 statements
    let db = &bench.db;

    // Offline: mine the fixed candidate set + stable partition and compute OPT.
    let selection = offline_selection(db, &bench.statements, &WfitConfig::default());
    println!(
        "mined {} candidates out of a universe of {}, stable partition has {} parts",
        selection.candidates.len(),
        selection.universe.len(),
        selection.partition.len()
    );
    let opt = compute_optimal(
        db,
        &bench.statements,
        &selection.partition,
        &IndexSet::empty(),
    );

    // Online advisors, each replayed in its own session.
    let mut auto = TuningSession::new(db, Wfit::new(db, WfitConfig::default()));
    auto.replay(&bench.statements, &FeedbackStream::empty());
    let bc = BruchoChaudhuriAdvisor::new(db, selection.candidates.clone(), &IndexSet::empty());
    let mut bc = TuningSession::new(db, bc);
    bc.replay(&bench.statements, &FeedbackStream::empty());

    // Per-phase report.
    println!();
    println!(
        "{:>6} {:>14} {:>14} {:>14}  (cumulative total work; lower is better)",
        "phase", "OPT", "WFIT", "BC"
    );
    let boundaries = bench.phase_boundaries();
    for (phase, _start) in boundaries.iter().enumerate() {
        let end = boundaries
            .get(phase + 1)
            .map(|b| b - 1)
            .unwrap_or(bench.len());
        println!(
            "{:>6} {:>14.0} {:>14.0} {:>14.0}",
            phase + 1,
            opt.cumulative_at(end),
            auto.cost_series()[end - 1],
            bc.cost_series()[end - 1]
        );
    }
    println!();
    println!(
        "final ratios (OPT=1): WFIT {:.3}, BC {:.3}",
        opt.total / auto.stats().total_work,
        opt.total / bc.stats().total_work
    );
    println!(
        "WFIT repartitioned {} times while following the phase shifts",
        auto.advisor().repartitions()
    );
}
