//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] fully determines an experiment: the workload (phases,
//! drift, update fractions, statements per phase, RNG seed), the offline
//! candidate selection, and a fleet of advisor *cells* — each an advisor
//! variant paired with a feedback script and an acceptance policy.  Replaying
//! the same spec always produces the same [`crate::RunReport`], which is what
//! makes golden-run regression testing possible.

use wfit_core::config::WfitConfig;
use wfit_core::evaluator::AcceptancePolicy;
use workload::{default_phases, BenchmarkSpec, PhaseSpec};

/// Which advisor a scenario cell or a service session runs.
#[derive(Debug, Clone)]
pub enum AdvisorSpec {
    /// WFIT with the fixed offline partition mined for `state_cnt`
    /// (the paper's Figures 8–11 setup).
    WfitFixed {
        /// `stateCnt` used both for the offline partition and the advisor.
        state_cnt: u64,
    },
    /// WFIT with every candidate in its own part (the WFIT-IND variant).
    WfitIndependent,
    /// Full WFIT with online candidate/partition maintenance (`chooseCands`
    /// enabled, Figure 12's AUTO).
    WfitAuto {
        /// Algorithm knobs (`idxCnt`, `stateCnt`, `histSize`, …).
        config: WfitConfig,
    },
    /// The Bruno–Chaudhuri baseline over the offline candidate set.
    Bc,
    /// The C²UCB contextual bandit over the offline candidate set, with a
    /// safety gate falling back to the current configuration.
    Bandit {
        /// Seed for the deterministic splitmix64 tie-break hash.
        seed: u64,
    },
    /// Never recommends anything.
    NoIndex,
    /// Recommends every offline candidate from the first statement.
    AllCandidates,
}

impl AdvisorSpec {
    /// The advisor's short label; a service session's cell is labelled
    /// `t{tenant}/{label}`.
    pub fn label(&self) -> String {
        match self {
            AdvisorSpec::WfitFixed { state_cnt } => format!("WFIT-{state_cnt}"),
            AdvisorSpec::WfitIndependent => "WFIT-IND".to_string(),
            AdvisorSpec::WfitAuto { .. } => "AUTO".to_string(),
            AdvisorSpec::Bc => "BC".to_string(),
            AdvisorSpec::Bandit { .. } => "BANDIT".to_string(),
            AdvisorSpec::NoIndex => "NO-INDEX".to_string(),
            AdvisorSpec::AllCandidates => "ALL-CAND".to_string(),
        }
    }
}

/// `stateCnt` of every scenario's default offline candidate selection, the
/// stable partition and the OPT oracle (the paper's Section 6 value).
const SELECTION_STATE_CNT: u64 = 500;

/// Every distinct `stateCnt` a fleet needs an offline selection for:
/// `SELECTION_STATE_CNT` first, then the `WfitFixed` overrides in fleet
/// order.
pub(crate) fn state_cnts_needed<'a>(fleet: impl IntoIterator<Item = &'a AdvisorSpec>) -> Vec<u64> {
    let mut cnts = vec![SELECTION_STATE_CNT];
    for advisor in fleet {
        if let AdvisorSpec::WfitFixed { state_cnt } = *advisor {
            if !cnts.contains(&state_cnt) {
                cnts.push(state_cnt);
            }
        }
    }
    cnts
}

/// A scripted DBA-feedback event, declarative over the offline candidate
/// *ranks* (position in the offline `topIndices` ordering) so that specs do
/// not depend on the numeric `IndexId`s a particular run happens to intern.
#[derive(Debug, Clone)]
pub struct FeedbackEvent {
    /// 1-based statement position after which the votes are delivered.
    pub position: usize,
    /// Positive votes: ranks into the offline candidate list.
    pub approve_ranks: Vec<usize>,
    /// Negative votes: ranks into the offline candidate list.
    pub reject_ranks: Vec<usize>,
}

/// The feedback script of a cell.
#[derive(Debug, Clone, Default)]
pub enum FeedbackSpec {
    /// No feedback (`V = ∅`).
    #[default]
    None,
    /// `V_GOOD`: votes mirroring OPT's create/drop schedule (Figure 9's
    /// prescient DBA).
    OptGood,
    /// `V_BAD`: the mirror image of `V_GOOD`.
    OptBad,
    /// Explicit scripted events.
    Scripted(Vec<FeedbackEvent>),
}

/// One (advisor × options) cell of a scenario.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Display label (also the key in golden reports).
    pub label: String,
    /// The advisor variant.
    pub advisor: AdvisorSpec,
    /// Scheduled DBA feedback.
    pub feedback: FeedbackSpec,
    /// Acceptance policy.  A lagged policy ([`AcceptancePolicy::EveryT`])
    /// also delivers implicit votes for the created/dropped indices on every
    /// adoption (the lease-renewal reading of delayed acceptance, used by
    /// Figure 11).
    pub acceptance: AcceptancePolicy,
}

impl CellSpec {
    /// A cell with immediate acceptance and no feedback.
    pub fn new(label: impl Into<String>, advisor: AdvisorSpec) -> Self {
        Self {
            label: label.into(),
            advisor,
            feedback: FeedbackSpec::None,
            acceptance: AcceptancePolicy::Immediate,
        }
    }

    /// Set the feedback script.
    pub fn with_feedback(mut self, feedback: FeedbackSpec) -> Self {
        self.feedback = feedback;
        self
    }

    /// Adopt the recommendation every `lag` statements (a lag of 0 or 1 is
    /// immediate adoption), matching the paper's Figure 11 setup.
    pub fn with_lag(mut self, lag: usize) -> Self {
        self.acceptance = if lag <= 1 {
            AcceptancePolicy::Immediate
        } else {
            AcceptancePolicy::EveryT(lag)
        };
        self
    }
}

/// A fully declarative experiment: workload + candidate selection + advisor
/// fleet.  The workload phase length is an **explicit parameter** — there is
/// no environment-variable side channel in the harness, so concurrently
/// running scenarios can never race on process-global state.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (used in reports and golden file names).
    pub name: String,
    /// Statements per phase (the paper uses 200).
    pub statements_per_phase: usize,
    /// Workload RNG seed; the whole scenario is deterministic given this.
    pub seed: u64,
    /// The workload phases (primary/secondary data set drift and update
    /// fractions per phase).
    pub phases: Vec<PhaseSpec>,
    /// The advisor fleet.
    pub cells: Vec<CellSpec>,
}

impl ScenarioSpec {
    /// A scenario over the paper's eight-phase workload with the default
    /// seed.
    pub fn new(name: impl Into<String>, statements_per_phase: usize) -> Self {
        Self {
            name: name.into(),
            statements_per_phase,
            seed: BenchmarkSpec::default().seed,
            phases: default_phases(),
            cells: Vec::new(),
        }
    }

    /// Override the workload seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the phase structure (drift pattern and update fractions).
    pub fn with_phases(mut self, phases: Vec<PhaseSpec>) -> Self {
        self.phases = phases;
        self
    }

    /// Add a cell to the fleet.
    pub fn cell(mut self, cell: CellSpec) -> Self {
        self.cells.push(cell);
        self
    }

    /// The workload specification this scenario replays.
    pub fn benchmark_spec(&self) -> BenchmarkSpec {
        BenchmarkSpec {
            statements_per_phase: self.statements_per_phase,
            seed: self.seed,
            phases: self.phases.clone(),
        }
    }

    /// Total number of statements.
    pub fn total_statements(&self) -> usize {
        self.statements_per_phase * self.phases.len()
    }

    /// Every distinct `stateCnt` that needs an offline selection: 500 (the
    /// paper's default, `SELECTION_STATE_CNT`) plus any `WfitFixed`
    /// overrides.
    pub fn state_cnts_needed(&self) -> Vec<u64> {
        state_cnts_needed(self.cells.iter().map(|c| &c.advisor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes_cells_and_options() {
        let spec = ScenarioSpec::new("t", 5)
            .with_seed(7)
            .cell(CellSpec::new(
                "a",
                AdvisorSpec::WfitFixed { state_cnt: 500 },
            ))
            .cell(
                CellSpec::new("b", AdvisorSpec::Bc)
                    .with_feedback(FeedbackSpec::OptGood)
                    .with_lag(10),
            );
        assert_eq!(spec.cells.len(), 2);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.total_statements(), 40);
        assert_eq!(spec.cells[1].acceptance, AcceptancePolicy::EveryT(10));
        assert!(matches!(spec.cells[1].feedback, FeedbackSpec::OptGood));
    }

    #[test]
    fn lag_of_one_is_immediate() {
        let cell = CellSpec::new("x", AdvisorSpec::NoIndex).with_lag(1);
        assert_eq!(cell.acceptance, AcceptancePolicy::Immediate);
    }

    #[test]
    fn state_cnts_needed_dedups() {
        let spec = ScenarioSpec::new("t", 5)
            .cell(CellSpec::new(
                "a",
                AdvisorSpec::WfitFixed { state_cnt: 500 },
            ))
            .cell(CellSpec::new(
                "b",
                AdvisorSpec::WfitFixed { state_cnt: 100 },
            ))
            .cell(CellSpec::new(
                "c",
                AdvisorSpec::WfitFixed { state_cnt: 100 },
            ));
        assert_eq!(spec.state_cnts_needed(), vec![500, 100]);
    }

    #[test]
    fn benchmark_spec_matches_scenario() {
        let spec = ScenarioSpec::new("t", 9).with_seed(3);
        let b = spec.benchmark_spec();
        assert_eq!(b.statements_per_phase, 9);
        assert_eq!(b.seed, 3);
        assert_eq!(b.phases.len(), 8);
    }
}
