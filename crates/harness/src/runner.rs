//! Deterministic scenario replay.
//!
//! [`ScenarioContext::prepare`] does all the order-sensitive work once, on a
//! single thread: generate the workload from the spec's seed, mine the
//! offline candidate selections (which interns every candidate `IndexId` in
//! workload order, fixing the id space for the rest of the run) and compute
//! the OPT oracle.  [`ScenarioContext::run`] then replays the independent
//! (advisor × options) cells in parallel with `std::thread::scope`; every
//! cell owns its advisor and RNG state, so thread interleaving cannot change
//! any reported metric.

use std::time::Instant;

use advisors::{compute_optimal, good_feedback_stream, OptSchedule};
use advisors::{
    AllCandidatesAdvisor, BanditAdvisor, BanditConfig, BruchoChaudhuriAdvisor, NoIndexAdvisor,
};
use ibg::partition::Partition;
use simdb::database::Database;
use simdb::index::IndexSet;
use simdb::query::Statement;
use wfit_core::candidates::{offline_selection, OfflineSelection};
use wfit_core::config::WfitConfig;
use wfit_core::evaluator::{AcceptancePolicy, Evaluator, FeedbackStream, RunOptions, RunResult};
use wfit_core::wfit::Wfit;
use wfit_core::IndexAdvisor;
use workload::Benchmark;

use crate::report::{CellReport, RunReport};
use crate::spec::{AcceptanceSpec, AdvisorSpec, CellSpec, FeedbackSpec, ScenarioSpec};

/// A prepared scenario: the generated workload, the offline selections for
/// every `stateCnt` the fleet needs, and the OPT reference curve.
pub struct ScenarioContext {
    /// The scenario being replayed.
    pub spec: ScenarioSpec,
    /// The generated benchmark (database + statements).
    pub bench: Benchmark,
    /// Offline selections keyed by `stateCnt`; the spec's default is first.
    pub selections: Vec<(u64, OfflineSelection)>,
    /// The OPT oracle over the default selection.
    pub opt: OptSchedule,
}

impl ScenarioContext {
    /// Generate the workload and run the offline analysis for a spec.
    pub fn prepare(spec: ScenarioSpec) -> Self {
        let bench = Benchmark::generate(spec.benchmark_spec());
        let selections: Vec<(u64, OfflineSelection)> = spec
            .state_cnts_needed()
            .into_iter()
            .map(|state_cnt| {
                let config = WfitConfig::with_state_cnt(state_cnt);
                (
                    state_cnt,
                    offline_selection(&bench.db, &bench.statements, &config),
                )
            })
            .collect();
        let opt = compute_optimal(
            &bench.db,
            &bench.statements,
            &selections[0].1.partition,
            &IndexSet::empty(),
        );
        Self {
            spec,
            bench,
            selections,
            opt,
        }
    }

    /// The offline selection for the spec's default `stateCnt`.
    pub fn selection(&self) -> &OfflineSelection {
        &self.selections[0].1
    }

    /// The offline selection for a specific `stateCnt` (must be one of
    /// [`ScenarioSpec::state_cnts_needed`]).
    pub fn selection_for(&self, state_cnt: u64) -> &OfflineSelection {
        self.selections
            .iter()
            .find(|(c, _)| *c == state_cnt)
            .map(|(_, s)| s)
            .unwrap_or_else(|| panic!("no offline selection prepared for stateCnt {state_cnt}"))
    }

    /// The singleton (full independence) partition over the default
    /// candidate set.
    pub fn independent_partition(&self) -> Partition {
        self.selection()
            .candidates
            .iter()
            .map(|&c| vec![c])
            .collect()
    }

    /// Checkpoint positions (x-axis of the figures): every eighth of the
    /// workload plus the final statement.
    pub fn checkpoints(&self) -> Vec<usize> {
        checkpoint_positions(self.bench.len())
    }

    /// The paper's performance metric at a checkpoint:
    /// `totWork(OPT, Q_n) / totWork(A, Q_n)` (1.0 means optimal).
    pub fn ratio_at(&self, run: &RunResult, n: usize) -> f64 {
        let alg = run.cumulative_at(n);
        if alg <= 0.0 {
            return 1.0;
        }
        self.opt.cumulative_at(n) / alg
    }

    /// Ratio series over the checkpoints.
    pub fn ratio_series(&self, run: &RunResult) -> Vec<(usize, f64)> {
        self.checkpoints()
            .into_iter()
            .map(|n| (n, self.ratio_at(run, n)))
            .collect()
    }

    /// Resolve a cell's feedback script into a concrete vote stream.
    fn feedback_stream(&self, spec: &FeedbackSpec) -> FeedbackStream {
        match spec {
            FeedbackSpec::None => FeedbackStream::empty(),
            FeedbackSpec::OptGood => good_feedback_stream(&self.opt),
            FeedbackSpec::OptBad => good_feedback_stream(&self.opt).mirrored(),
            FeedbackSpec::Scripted(events) => {
                let candidates = &self.selection().candidates;
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
        let mut advisor = self.build_advisor(&cell.advisor);
        let options = RunOptions {
            acceptance: match cell.acceptance {
                AcceptanceSpec::Immediate => AcceptancePolicy::Immediate,
                AcceptanceSpec::EveryT(t) => AcceptancePolicy::EveryT(t),
            },
            feedback: self.feedback_stream(&cell.feedback),
            initial: IndexSet::empty(),
            implicit_feedback_on_accept: cell.implicit_feedback_on_accept,
        };
        let evaluator = Evaluator::new(&self.bench.db);
        let start = Instant::now();
        let run = evaluator.run(&mut advisor, &self.bench.statements, &options);
        let wall_time_ms = start.elapsed().as_secs_f64() * 1000.0;

        let n = self.bench.len();
        let transition_cost: f64 = run.outcomes.iter().map(|o| o.transition_cost).sum();
        let transitions = run
            .outcomes
            .iter()
            .filter(|o| o.transition_cost > 0.0)
            .count();
        let cumulative: Vec<f64> = run
            .outcomes
            .iter()
            .map(|o| o.cumulative_total_work)
            .collect();
        CellReport {
            label: cell.label.clone(),
            advisor: run.advisor.clone(),
            total_work: run.total_work,
            query_cost: run.total_work - transition_cost,
            transition_cost,
            transitions,
            opt_ratio: self.ratio_at(&run, n),
            ratio_series: self.ratio_series(&run),
            whatif_calls: advisor.whatif_calls(),
            repartitions: advisor.repartitions(),
            states_tracked: advisor.states_tracked(),
            monitored: advisor.monitored(),
            final_config_size: run.outcomes.last().map_or(0, |o| o.configuration_size),
            regret: self.opt.regret_of(&cumulative),
            safety_fallbacks: advisor.safety_fallbacks(),
            wall_time_ms,
        }
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
        RunReport {
            scenario: self.spec.name.clone(),
            seed: self.spec.seed,
            statements: self.bench.len(),
            candidates: self.selection().candidates.len(),
            partition_parts: self.selection().partition.len(),
            opt_total: self.opt.total,
            checkpoints: self.checkpoints(),
            cells,
            service: None,
        }
    }

    fn build_advisor(&self, spec: &AdvisorSpec) -> BuiltAdvisor<'_> {
        match spec {
            AdvisorSpec::WfitFixed { state_cnt } => {
                BuiltAdvisor::Wfit(Box::new(Wfit::with_fixed_partition(
                    &self.bench.db,
                    WfitConfig::with_state_cnt(*state_cnt),
                    self.selection_for(*state_cnt).partition.clone(),
                    IndexSet::empty(),
                )))
            }
            AdvisorSpec::WfitIndependent => {
                BuiltAdvisor::Wfit(Box::new(Wfit::with_fixed_partition(
                    &self.bench.db,
                    WfitConfig::independent(),
                    self.independent_partition(),
                    IndexSet::empty(),
                )))
            }
            AdvisorSpec::WfitAuto { config } => {
                BuiltAdvisor::Wfit(Box::new(Wfit::new(&self.bench.db, config.clone())))
            }
            AdvisorSpec::Bc => BuiltAdvisor::Bc(BruchoChaudhuriAdvisor::new(
                &self.bench.db,
                self.selection().candidates.clone(),
                &IndexSet::empty(),
            )),
            AdvisorSpec::Bandit { seed } => BuiltAdvisor::Bandit(Box::new(BanditAdvisor::new(
                &self.bench.db,
                self.selection().candidates.clone(),
                BanditConfig::with_seed(*seed),
            ))),
            AdvisorSpec::NoIndex => BuiltAdvisor::NoIndex(NoIndexAdvisor),
            AdvisorSpec::AllCandidates => BuiltAdvisor::All(
                AllCandidatesAdvisor::new(self.selection().candidates.clone()),
                self.selection().candidates.len(),
            ),
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

/// The advisor fleet member built for one cell, with uniform access to the
/// per-advisor overhead metrics where they exist.  The WFIT state machine is
/// boxed: it dwarfs the other variants and one allocation per cell is free.
enum BuiltAdvisor<'e> {
    Wfit(Box<Wfit<&'e Database>>),
    Bc(BruchoChaudhuriAdvisor<&'e Database>),
    Bandit(Box<BanditAdvisor<&'e Database>>),
    NoIndex(NoIndexAdvisor),
    All(AllCandidatesAdvisor, usize),
}

impl BuiltAdvisor<'_> {
    fn whatif_calls(&self) -> u64 {
        match self {
            BuiltAdvisor::Wfit(w) => w.whatif_calls(),
            BuiltAdvisor::Bc(b) => b.whatif_calls(),
            BuiltAdvisor::Bandit(b) => b.whatif_calls(),
            _ => 0,
        }
    }

    fn repartitions(&self) -> u64 {
        match self {
            BuiltAdvisor::Wfit(w) => w.repartition_count(),
            _ => 0,
        }
    }

    fn states_tracked(&self) -> u64 {
        match self {
            BuiltAdvisor::Wfit(w) => w.state_count(),
            _ => 0,
        }
    }

    fn monitored(&self) -> usize {
        match self {
            BuiltAdvisor::Wfit(w) => w.monitored().len(),
            BuiltAdvisor::Bc(b) => b.candidates().len(),
            BuiltAdvisor::Bandit(b) => b.candidates().len(),
            BuiltAdvisor::NoIndex(_) => 0,
            BuiltAdvisor::All(_, n) => *n,
        }
    }
}

impl IndexAdvisor for BuiltAdvisor<'_> {
    fn analyze_query(&mut self, stmt: &Statement) {
        match self {
            BuiltAdvisor::Wfit(w) => w.analyze_query(stmt),
            BuiltAdvisor::Bc(b) => b.analyze_query(stmt),
            BuiltAdvisor::Bandit(b) => b.analyze_query(stmt),
            BuiltAdvisor::NoIndex(a) => a.analyze_query(stmt),
            BuiltAdvisor::All(a, _) => a.analyze_query(stmt),
        }
    }

    fn recommend(&self) -> IndexSet {
        match self {
            BuiltAdvisor::Wfit(w) => w.recommend(),
            BuiltAdvisor::Bc(b) => b.recommend(),
            BuiltAdvisor::Bandit(b) => b.recommend(),
            BuiltAdvisor::NoIndex(a) => a.recommend(),
            BuiltAdvisor::All(a, _) => a.recommend(),
        }
    }

    fn feedback(&mut self, positive: &IndexSet, negative: &IndexSet) {
        match self {
            BuiltAdvisor::Wfit(w) => w.feedback(positive, negative),
            BuiltAdvisor::Bc(b) => b.feedback(positive, negative),
            BuiltAdvisor::Bandit(b) => b.feedback(positive, negative),
            BuiltAdvisor::NoIndex(a) => a.feedback(positive, negative),
            BuiltAdvisor::All(a, _) => a.feedback(positive, negative),
        }
    }

    fn name(&self) -> String {
        match self {
            BuiltAdvisor::Wfit(w) => w.name(),
            BuiltAdvisor::Bc(b) => b.name(),
            BuiltAdvisor::Bandit(b) => b.name(),
            BuiltAdvisor::NoIndex(a) => a.name(),
            BuiltAdvisor::All(a, _) => a.name(),
        }
    }

    fn safety_fallbacks(&self) -> u64 {
        match self {
            BuiltAdvisor::Bandit(b) => IndexAdvisor::safety_fallbacks(b),
            _ => 0,
        }
    }
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
        let top = ctx.selection().candidates[0];
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
        assert!(cell.transitions <= ctx.bench.len() / 8);
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
        assert_eq!(ctx.selections.len(), 2);
        assert!(ctx
            .selection_for(100)
            .partition
            .iter()
            .all(|p| !p.is_empty()));
        let report = ctx.run();
        assert_eq!(report.cells.len(), 2);
    }
}
