//! Bench entry-point helpers for reproducing the figures of
//! *Semi-Automatic Index Tuning: Keeping DBAs in the Loop*.
//!
//! The actual experiment machinery lives in the [`harness`] crate: every
//! `benches/figNN_*.rs` target is a thin wrapper that builds the matching
//! declarative scenario from [`harness::scenarios`], replays it (advisor
//! cells run in parallel) and prints the "Total Work Ratio (OPT = 1)" series
//! the paper plots.  The multi-tenant service is not benchmarked here: its
//! scenarios replay through [`harness::run_service_scenario`] in the golden
//! suite, and perfbench (`perfbench/`, declared by `BENCHMARK.json`) measures
//! its throughput, latency and restore time.
//!
//! The **only** place the `WFIT_PHASE_LEN` environment variable is read is
//! [`phase_len_from_env`], called once at each bench's `main` — the harness
//! itself takes the phase length as an explicit [`ScenarioSpec`] field, so
//! tests and concurrent scenarios can never race on process-global state.
//! The paper uses 200 statements per phase; the default here is a faster 60
//! so that `cargo bench` completes in minutes.  Set `WFIT_PHASE_LEN=200` to
//! reproduce the paper-scale runs.

pub use harness::{
    run_scenario, scenarios, AdvisorSpec, CellReport, CellSpec, RunReport, ScenarioContext,
    ScenarioSpec,
};

/// Statements per phase for a bench run: the `WFIT_PHASE_LEN` override, or
/// 60.  Benches call this once at their entry point and pass the result down
/// explicitly; nothing below the entry points reads the environment.
pub fn phase_len_from_env() -> usize {
    std::env::var("WFIT_PHASE_LEN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

/// Print a figure-style table for a scenario report: one row per checkpoint,
/// one column per cell, followed by the OPT total and per-cell summaries.
pub fn print_report(title: &str, report: &RunReport) {
    println!();
    println!("=== {title} ===");
    print!("{:>8}", "query#");
    for cell in &report.cells {
        print!("{:>14}", cell.label);
    }
    println!();
    for (row, &cp) in report.checkpoints.iter().enumerate() {
        print!("{cp:>8}");
        for cell in &report.cells {
            let v = cell
                .ratio_series
                .get(row)
                .map(|(_, r)| *r)
                .unwrap_or(f64::NAN);
            print!("{v:>14.3}");
        }
        println!();
    }
    println!();
    println!("OPT          totalWork = {:>14.0}", report.opt_total);
    print_summaries(report);
}

/// Print one summary line per cell of a report.
pub fn print_summaries(report: &RunReport) {
    for cell in &report.cells {
        println!("{}", summary_line(cell));
    }
}

/// The classic one-line cell summary used by every figure bench.
pub fn summary_line(cell: &CellReport) -> String {
    format!(
        "{:<12} totalWork = {:>14.0}   OPT-ratio = {:.3}",
        cell.label, cell.total_work, cell.opt_ratio
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mini_scenario_end_to_end_without_env_vars() {
        // The phase length is an explicit parameter: no env-var writes, so
        // this test cannot race with anything else in the process.
        let report = run_scenario(
            ScenarioSpec::new("bench-smoke", 3)
                .cell(CellSpec::new(
                    "WFIT",
                    AdvisorSpec::WfitFixed { state_cnt: 500 },
                ))
                .cell(CellSpec::new("BC", AdvisorSpec::Bc)),
        );
        assert_eq!(report.statements, 24);
        assert!(report.opt_total > 0.0);
        let wfit = report.cell("WFIT").unwrap();
        assert!(wfit.opt_ratio > 0.0 && wfit.opt_ratio <= 1.05);
        assert_eq!(
            report.checkpoints.len(),
            wfit.ratio_series.len(),
            "one ratio per checkpoint"
        );
        let line = summary_line(wfit);
        assert!(line.contains("WFIT") && line.contains("OPT-ratio"));
        print_report("smoke", &report);
    }

    #[test]
    fn phase_len_default_is_sixty() {
        // The variable is only consulted here, at the bench edge.
        if std::env::var("WFIT_PHASE_LEN").is_err() {
            assert_eq!(phase_len_from_env(), 60);
        }
    }
}
