//! Deterministic scenario replay.
//!
//! [`PreparedWorkload::prepare`] does all the order-sensitive work once, on
//! a single thread: generate the workload from its seed, mine the offline
//! candidate selection for every `stateCnt` a fleet needs (which interns
//! every candidate `IndexId` in workload order, fixing the id space for the
//! rest of the run) and compute the OPT oracle.  The offline replay and
//! every service tenant ([`crate::service_run`]) prepare through it, build
//! their boxed advisors through one builder,
//! `PreparedWorkload::build_advisor` (over `&Database` here, over
//! `TenantEnv` as a service session), and report every cell through one
//! function over the cell's [`TuningSession`],
//! `PreparedWorkload::cell_report`.
//! [`ScenarioContext::run`] then replays the independent (advisor × options)
//! cells in parallel with `std::thread::scope`, each through
//! [`TuningSession::replay`]; every cell owns its advisor and RNG state, so
//! thread interleaving cannot change any reported metric.

use std::sync::Arc;
use std::time::Instant;

use advisors::{compute_optimal, good_feedback_stream, OptSchedule};
use advisors::{
    AllCandidatesAdvisor, BanditAdvisor, BanditConfig, BruchoChaudhuriAdvisor, NoIndexAdvisor,
};
use simdb::database::Database;
use simdb::index::IndexSet;
use simdb::query::Statement;
use wfit_core::candidates::{offline_selection, OfflineSelection};
use wfit_core::config::WfitConfig;
use wfit_core::env::TuningEnv;
use wfit_core::evaluator::FeedbackStream;
use wfit_core::wfit::Wfit;
use wfit_core::{IndexAdvisor, TuningSession};
use workload::{Benchmark, BenchmarkSpec};

use crate::report::{CellReport, RunReport};
use crate::spec::{AdvisorSpec, CellSpec, FeedbackSpec, ScenarioSpec};

/// A generated workload and its offline analysis: the database, the
/// statements, the offline selection for every `stateCnt` a fleet needs and
/// the OPT reference curve.
pub struct PreparedWorkload {
    /// The database.  Its index registry holds the candidate ids the
    /// selections refer to, so this instance backs every advisor built
    /// over the workload (shared, so a service tenant can host it).
    pub db: Arc<Database>,
    /// The workload statements in order.
    pub statements: Vec<Statement>,
    /// Offline selections keyed by `stateCnt`; the default is first.
    pub selections: Vec<(u64, OfflineSelection)>,
    /// The OPT oracle over the default selection.
    pub opt: OptSchedule,
}

impl PreparedWorkload {
    /// Generate the workload, mine one offline selection per entry of
    /// `state_cnts` (the first is the default) and run OPT over the
    /// default selection's partition.
    pub fn prepare(spec: BenchmarkSpec, state_cnts: &[u64]) -> Self {
        let Benchmark { db, statements, .. } = Benchmark::generate(spec);
        let selections: Vec<(u64, OfflineSelection)> = state_cnts
            .iter()
            .map(|&cnt| {
                let config = WfitConfig::with_state_cnt(cnt);
                (cnt, offline_selection(&db, &statements, &config))
            })
            .collect();
        let opt = compute_optimal(
            &db,
            &statements,
            &selections[0].1.partition,
            &IndexSet::empty(),
        );
        Self {
            db: Arc::new(db),
            statements,
            selections,
            opt,
        }
    }

    /// The offline selection for the default `stateCnt`.
    pub fn selection(&self) -> &OfflineSelection {
        &self.selections[0].1
    }

    /// The offline selection for a specific `stateCnt` (must be one of the
    /// prepared ones).
    pub fn selection_for(&self, state_cnt: u64) -> &OfflineSelection {
        self.selections
            .iter()
            .find(|(c, _)| *c == state_cnt)
            .map(|(_, s)| s)
            .unwrap_or_else(|| panic!("no offline selection prepared for stateCnt {state_cnt}"))
    }

    /// The paper's performance metric after `n` statements,
    /// `totWork(OPT, Q_n) / totWork(A, Q_n)`, given the advisor's
    /// cumulative work `alg` (1.0 means optimal).
    pub fn opt_ratio(&self, n: usize, alg: f64) -> f64 {
        if alg <= 0.0 {
            return 1.0;
        }
        self.opt.cumulative_at(n) / alg
    }

    /// Build the advisor `spec` names over `env`: `&Database` for the
    /// offline replay, the tenant's `TenantEnv` for a service session.
    pub(crate) fn build_advisor<'a, E: TuningEnv + Send + 'a>(
        &self,
        spec: &AdvisorSpec,
        env: E,
    ) -> Box<dyn IndexAdvisor + Send + 'a> {
        let candidates = || self.selection().candidates.clone();
        match spec {
            AdvisorSpec::WfitFixed { state_cnt } => Box::new(Wfit::with_fixed_partition(
                env,
                WfitConfig::with_state_cnt(*state_cnt),
                self.selection_for(*state_cnt).partition.clone(),
                IndexSet::empty(),
            )),
            AdvisorSpec::WfitIndependent => Box::new(
                Wfit::with_fixed_partition(
                    env,
                    WfitConfig::independent(),
                    candidates().into_iter().map(|c| vec![c]).collect(),
                    IndexSet::empty(),
                )
                .with_name("WFIT-IND"),
            ),
            AdvisorSpec::WfitAuto { config } => Box::new(Wfit::new(env, config.clone())),
            AdvisorSpec::Bc => Box::new(BruchoChaudhuriAdvisor::new(
                env,
                candidates(),
                &IndexSet::empty(),
            )),
            AdvisorSpec::Bandit { seed } => Box::new(BanditAdvisor::new(
                env,
                candidates(),
                BanditConfig::with_seed(*seed),
            )),
            AdvisorSpec::NoIndex => Box::new(NoIndexAdvisor),
            AdvisorSpec::AllCandidates => Box::new(AllCandidatesAdvisor::new(candidates())),
        }
    }

    /// The report of one cell, offline or a service session: `session` has
    /// replayed a prefix of this workload.  Ratios are taken against OPT at
    /// `checkpoints` and at the last statement the session processed;
    /// `whatif_calls` is the caller's count of the session's optimizer
    /// calls.
    pub(crate) fn cell_report<E: TuningEnv, A: IndexAdvisor>(
        &self,
        label: String,
        session: &TuningSession<E, A>,
        checkpoints: &[usize],
        whatif_calls: u64,
        wall_time_ms: f64,
    ) -> CellReport {
        let stats = session.stats();
        let series = session.cost_series();
        let ratio_at = |n: usize| self.opt_ratio(n, if n == 0 { 0.0 } else { series[n - 1] });
        let advisor = session.advisor();
        CellReport {
            label,
            advisor: advisor.name(),
            total_work: stats.total_work,
            query_cost: stats.total_work - stats.transition_cost,
            transition_cost: stats.transition_cost,
            transitions: stats.transitions as usize,
            opt_ratio: ratio_at(series.len()),
            ratio_series: checkpoints.iter().map(|&n| (n, ratio_at(n))).collect(),
            whatif_calls,
            repartitions: advisor.repartitions(),
            states_tracked: advisor.states_tracked(),
            monitored: advisor.monitored_count(),
            final_config_size: stats.configuration_size,
            regret: self.opt.regret_of(series),
            safety_fallbacks: advisor.safety_fallbacks(),
            wall_time_ms,
        }
    }
}

/// A prepared scenario: the spec and its prepared workload.
pub struct ScenarioContext {
    /// The scenario being replayed.
    pub spec: ScenarioSpec,
    /// The generated workload, its offline selections and OPT.
    pub workload: PreparedWorkload,
}

impl ScenarioContext {
    /// Generate the workload and run the offline analysis for a spec.
    pub fn prepare(spec: ScenarioSpec) -> Self {
        let workload = PreparedWorkload::prepare(spec.benchmark_spec(), &spec.state_cnts_needed());
        Self { spec, workload }
    }

    /// Checkpoint positions (x-axis of the figures): every eighth of the
    /// workload plus the final statement.
    pub fn checkpoints(&self) -> Vec<usize> {
        checkpoint_positions(self.workload.statements.len())
    }

    /// Resolve a cell's feedback script into a concrete vote stream.
    fn feedback_stream(&self, spec: &FeedbackSpec) -> FeedbackStream {
        match spec {
            FeedbackSpec::None => FeedbackStream::empty(),
            FeedbackSpec::OptGood => good_feedback_stream(&self.workload.opt),
            FeedbackSpec::OptBad => good_feedback_stream(&self.workload.opt).mirrored(),
            FeedbackSpec::Scripted(events) => {
                let candidates = &self.workload.selection().candidates;
                let rank_set = |ranks: &[usize]| {
                    IndexSet::from_iter(ranks.iter().filter_map(|&r| candidates.get(r)).copied())
                };
                let mut stream = FeedbackStream::empty();
                for event in events {
                    stream.add(
                        event.position,
                        rank_set(&event.approve_ranks),
                        rank_set(&event.reject_ranks),
                    );
                }
                stream
            }
        }
    }

    /// Replay a single cell and collect its metrics.
    pub fn run_cell(&self, cell: &CellSpec) -> CellReport {
        let workload = &self.workload;
        let advisor = workload.build_advisor(&cell.advisor, &*workload.db);
        let mut session = TuningSession::new(&*workload.db, advisor).with_policy(cell.acceptance);
        let feedback = self.feedback_stream(&cell.feedback);
        let start = Instant::now();
        session.replay(&workload.statements, &feedback);
        let wall_time_ms = start.elapsed().as_secs_f64() * 1000.0;
        let whatif_calls = session.advisor().whatif_calls();
        workload.cell_report(
            cell.label.clone(),
            &session,
            &self.checkpoints(),
            whatif_calls,
            wall_time_ms,
        )
    }

    /// Replay every cell — independent cells run in parallel — and assemble
    /// the report.  Cell order in the report always matches spec order.
    pub fn run(&self) -> RunReport {
        let cells: Vec<CellReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .spec
                .cells
                .iter()
                .map(|cell| scope.spawn(move || self.run_cell(cell)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("cell replay panicked"))
                .collect()
        });
        self.assemble(cells)
    }

    /// Replay every cell one at a time on the calling thread.  Every reported
    /// metric is identical to [`ScenarioContext::run`] except `wall_time_ms`,
    /// which here measures each cell alone — use this when wall-clock time is
    /// the quantity under study (the overhead bench), since parallel cells
    /// time-slice against each other and contend on the shared what-if cache.
    pub fn run_sequential(&self) -> RunReport {
        let cells = self.spec.cells.iter().map(|c| self.run_cell(c)).collect();
        self.assemble(cells)
    }

    fn assemble(&self, cells: Vec<CellReport>) -> RunReport {
        let selection = self.workload.selection();
        RunReport {
            scenario: self.spec.name.clone(),
            seed: self.spec.seed,
            statements: self.workload.statements.len(),
            candidates: selection.candidates.len(),
            partition_parts: selection.partition.len(),
            opt_total: self.workload.opt.total,
            checkpoints: self.checkpoints(),
            cells,
            service: None,
        }
    }
}

/// Prepare and replay a scenario in one call.
pub fn run_scenario(spec: ScenarioSpec) -> RunReport {
    ScenarioContext::prepare(spec).run()
}

/// Checkpoint positions over a workload of `n` statements: every eighth plus
/// the final statement.  Shared by the offline replay and the service
/// scenarios so both report families use identical x-axes.
pub(crate) fn checkpoint_positions(n: usize) -> Vec<usize> {
    let mut points: Vec<usize> = (1..=8).map(|i| i * n / 8).collect();
    points.dedup();
    if *points.last().unwrap_or(&0) != n {
        points.push(n);
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FeedbackEvent;

    fn tiny_spec(name: &str) -> ScenarioSpec {
        ScenarioSpec::new(name, 3)
            .cell(CellSpec::new(
                "WFIT",
                AdvisorSpec::WfitFixed { state_cnt: 500 },
            ))
            .cell(CellSpec::new("NO-INDEX", AdvisorSpec::NoIndex))
    }

    #[test]
    fn replay_produces_one_cell_report_per_spec_cell() {
        let report = run_scenario(tiny_spec("tiny"));
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.statements, 24);
        assert!(report.opt_total > 0.0);
        assert!(report.candidates > 0);
        let wfit = report.cell("WFIT").unwrap();
        assert!(wfit.opt_ratio > 0.0 && wfit.opt_ratio <= 1.05);
        assert!(wfit.whatif_calls > 0);
        assert!(wfit.states_tracked > 0);
        let noop = report.cell("NO-INDEX").unwrap();
        assert_eq!(noop.transition_cost, 0.0);
        assert_eq!(noop.transitions, 0);
        assert_eq!(noop.final_config_size, 0);
        // OPT is a lower bound for every cell.
        for cell in &report.cells {
            assert!(report.opt_total <= cell.total_work + 1e-6, "{}", cell.label);
        }
    }

    #[test]
    fn replay_is_deterministic_across_parallel_runs() {
        let a = run_scenario(tiny_spec("det"));
        let b = run_scenario(tiny_spec("det"));
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn sequential_run_matches_parallel_run_exactly() {
        let ctx = ScenarioContext::prepare(tiny_spec("seq"));
        let parallel = ctx.run();
        let sequential = ctx.run_sequential();
        // Identical deterministic JSON: wall time is the only difference and
        // it is excluded from the stable rendering.
        assert_eq!(parallel.to_json(), sequential.to_json());
    }

    #[test]
    fn scripted_feedback_resolves_candidate_ranks() {
        let spec = ScenarioSpec::new("scripted", 3).cell(
            CellSpec::new("VOTED", AdvisorSpec::WfitFixed { state_cnt: 500 }).with_feedback(
                FeedbackSpec::Scripted(vec![FeedbackEvent {
                    position: 1,
                    approve_ranks: vec![0],
                    reject_ranks: vec![],
                }]),
            ),
        );
        let ctx = ScenarioContext::prepare(spec);
        let top = ctx.workload.selection().candidates[0];
        let stream = ctx.feedback_stream(&ctx.spec.cells[0].feedback);
        let (pos, neg) = stream.at(1).expect("vote scheduled at statement 1");
        assert!(pos.contains(top));
        assert!(neg.is_empty());
        // Out-of-range ranks are ignored rather than panicking.
        let oob = ctx.feedback_stream(&FeedbackSpec::Scripted(vec![FeedbackEvent {
            position: 2,
            approve_ranks: vec![9999],
            reject_ranks: vec![9999],
        }]));
        assert!(oob.is_empty() || oob.at(2).is_none_or(|(p, n)| p.is_empty() && n.is_empty()));
    }

    #[test]
    fn lagged_cell_only_transitions_at_lag_points() {
        let spec = ScenarioSpec::new("lag", 3)
            .cell(CellSpec::new("LAG 8", AdvisorSpec::WfitFixed { state_cnt: 500 }).with_lag(8));
        let ctx = ScenarioContext::prepare(spec);
        let cell = ctx.run_cell(&ctx.spec.cells[0]);
        assert_eq!(cell.label, "LAG 8");
        // Churn is bounded by the number of acceptance points.
        assert!(cell.transitions <= ctx.workload.statements.len() / 8);
    }

    #[test]
    fn extra_state_cnt_selections_are_prepared_on_demand() {
        let spec = ScenarioSpec::new("multi", 2)
            .cell(CellSpec::new(
                "W-100",
                AdvisorSpec::WfitFixed { state_cnt: 100 },
            ))
            .cell(CellSpec::new(
                "W-500",
                AdvisorSpec::WfitFixed { state_cnt: 500 },
            ));
        let ctx = ScenarioContext::prepare(spec);
        assert_eq!(ctx.workload.selections.len(), 2);
        assert!(ctx
            .workload
            .selection_for(100)
            .partition
            .iter()
            .all(|p| !p.is_empty()));
        let report = ctx.run();
        assert_eq!(report.cells.len(), 2);
    }
}
