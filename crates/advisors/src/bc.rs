//! An adaptation of the Bruno–Chaudhuri online physical design tuner
//! (ICDE 2007), the paper's main competitor ("BC", Section 6.1).
//!
//! As described in the paper, the adaptation "analyzes the workload using
//! ideas similar to WFIT, except that it always employs a stable partition
//! corresponding to full index independence, i.e., each part contains a
//! single index.  After a query is analyzed, BC heuristically adjusts the
//! measured index benefits to account for specific types of index
//! interactions."
//!
//! Concretely, this implementation keeps one accumulator per candidate index:
//!
//! * while the index is **not** recommended, positive per-statement benefits
//!   (measured *in the context of the other currently recommended indices*,
//!   which is the heuristic interaction adjustment) accumulate as credit;
//!   when the credit exceeds the index's creation cost the index is
//!   recommended — the classic deterministic ski-rental / 2-competitive
//!   threshold of the original algorithm;
//! * while the index **is** recommended, negative benefits accumulate as
//!   debit (and positive benefits pay the debit down); when the debit exceeds
//!   the creation cost the index is dropped from the recommendation.

use simdb::index::{IndexId, IndexSet};
use simdb::query::Statement;
use std::collections::HashMap;
use wfit_core::advisor::IndexAdvisor;
use wfit_core::env::TuningEnv;

/// Per-index accounting state.
#[derive(Debug, Clone, Copy, Default)]
struct Account {
    recommended: bool,
    credit: f64,
    debit: f64,
}

/// The BC baseline advisor over a fixed candidate set.
pub struct BruchoChaudhuriAdvisor<E: TuningEnv> {
    env: E,
    candidates: Vec<IndexId>,
    accounts: HashMap<IndexId, Account>,
    statements: u64,
    whatif_calls: u64,
}

impl<E: TuningEnv> BruchoChaudhuriAdvisor<E> {
    /// Create the advisor over a fixed candidate set, starting from the
    /// materialized set `initial`.
    pub fn new(env: E, candidates: Vec<IndexId>, initial: &IndexSet) -> Self {
        let accounts = candidates
            .iter()
            .map(|&id| {
                (
                    id,
                    Account {
                        recommended: initial.contains(id),
                        credit: 0.0,
                        debit: 0.0,
                    },
                )
            })
            .collect();
        Self {
            env,
            candidates,
            accounts,
            statements: 0,
            whatif_calls: 0,
        }
    }

    /// Number of statements analyzed.
    pub fn statements_analyzed(&self) -> u64 {
        self.statements
    }

    /// Cumulative number of what-if optimizer calls issued through the IBGs
    /// built during analysis.
    pub fn whatif_calls(&self) -> u64 {
        self.whatif_calls
    }

    /// The candidate set this advisor selects from.
    pub fn candidates(&self) -> &[IndexId] {
        &self.candidates
    }
}

impl<E: TuningEnv> IndexAdvisor for BruchoChaudhuriAdvisor<E> {
    fn analyze_query(&mut self, stmt: &Statement) {
        self.statements += 1;
        let all = IndexSet::from_iter(self.candidates.iter().copied());
        let ibg = self.env.ibg(stmt, all).graph;
        self.whatif_calls += ibg.whatif_calls() as u64;

        for i in 0..self.candidates.len() {
            let id = self.candidates[i];
            // Benefit of the index measured in the context of the other
            // recommended indices (the interaction-adjustment heuristic).
            // The context reflects decisions already taken for earlier
            // candidates during this pass, so a redundant index sees no
            // marginal benefit once its substitute has been recommended.
            let mut context = self.recommend();
            context.remove(id);
            let benefit = ibg.cost(&context) - ibg.cost(&context.union(&IndexSet::single(id)));
            let create = self.env.create_cost(id);
            let account = self.accounts.entry(id).or_default();
            if account.recommended {
                if benefit < 0.0 {
                    account.debit += -benefit;
                } else {
                    account.debit = (account.debit - benefit).max(0.0);
                }
                if account.debit >= create {
                    account.recommended = false;
                    account.debit = 0.0;
                    account.credit = 0.0;
                }
            } else {
                account.credit = (account.credit + benefit).max(0.0);
                if account.credit >= create {
                    account.recommended = true;
                    account.credit = 0.0;
                    account.debit = 0.0;
                }
            }
        }
    }

    fn recommend(&self) -> IndexSet {
        IndexSet::from_iter(self.candidates.iter().copied().filter(|id| {
            self.accounts
                .get(id)
                .map(|a| a.recommended)
                .unwrap_or(false)
        }))
    }

    fn name(&self) -> String {
        "BC".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfit_core::env::{mock_statement, MockEnv};

    fn scripted() -> (MockEnv, Statement, Statement, IndexId) {
        let env = MockEnv::new(100.0, 1.0);
        let a = IndexId(0);
        let good = mock_statement(1);
        env.set_cost(&good, &IndexSet::empty(), 60.0);
        env.set_cost(&good, &IndexSet::single(a), 10.0);
        let bad = mock_statement(2);
        env.set_cost(&bad, &IndexSet::empty(), 5.0);
        env.set_cost(&bad, &IndexSet::single(a), 45.0);
        (env, good, bad, a)
    }

    #[test]
    fn bc_creates_after_enough_accumulated_benefit() {
        let (env, good, _bad, a) = scripted();
        let mut bc = BruchoChaudhuriAdvisor::new(&env, vec![a], &IndexSet::empty());
        bc.analyze_query(&good);
        assert!(
            bc.recommend().is_empty(),
            "one query is not enough (credit 50 < 100)"
        );
        bc.analyze_query(&good);
        assert_eq!(bc.recommend(), IndexSet::single(a));
        assert_eq!(bc.statements_analyzed(), 2);
    }

    #[test]
    fn bc_drops_after_enough_accumulated_penalty() {
        let (env, good, bad, a) = scripted();
        let mut bc = BruchoChaudhuriAdvisor::new(&env, vec![a], &IndexSet::single(a));
        assert_eq!(bc.recommend(), IndexSet::single(a));
        bc.analyze_query(&bad); // debit 40
        assert!(!bc.recommend().is_empty());
        bc.analyze_query(&bad); // debit 80
        assert!(!bc.recommend().is_empty());
        bc.analyze_query(&bad); // debit 120 ≥ 100 → drop
        assert!(bc.recommend().is_empty());
        // And it can come back when the workload turns favorable again.
        for _ in 0..3 {
            bc.analyze_query(&good);
        }
        assert_eq!(bc.recommend(), IndexSet::single(a));
    }

    #[test]
    fn positive_benefit_pays_down_debit() {
        let (env, good, bad, a) = scripted();
        let mut bc = BruchoChaudhuriAdvisor::new(&env, vec![a], &IndexSet::single(a));
        bc.analyze_query(&bad); // debit 40
        bc.analyze_query(&good); // debit max(40-50,0)=0
        bc.analyze_query(&bad); // debit 40
        bc.analyze_query(&bad); // debit 80 < 100
        assert_eq!(bc.recommend(), IndexSet::single(a));
    }

    #[test]
    fn interaction_adjustment_uses_recommended_context() {
        // Two redundant indexes: each alone saves 50, together no extra gain.
        let env = MockEnv::new(60.0, 1.0);
        let a = IndexId(0);
        let b = IndexId(1);
        let q = mock_statement(7);
        env.set_cost(&q, &IndexSet::empty(), 60.0);
        env.set_cost(&q, &IndexSet::single(a), 10.0);
        env.set_cost(&q, &IndexSet::single(b), 10.0);
        env.set_cost(&q, &IndexSet::from_iter([a, b]), 10.0);
        let mut bc = BruchoChaudhuriAdvisor::new(&env, vec![a, b], &IndexSet::empty());
        for _ in 0..10 {
            bc.analyze_query(&q);
        }
        // Once one of them is recommended, the other sees zero marginal
        // benefit in context and must not be created as well.
        assert_eq!(bc.recommend().len(), 1, "rec = {}", bc.recommend());
    }

    #[test]
    fn feedback_is_ignored_by_bc() {
        let (env, good, _bad, a) = scripted();
        let mut bc = BruchoChaudhuriAdvisor::new(&env, vec![a], &IndexSet::empty());
        bc.feedback(&IndexSet::single(a), &IndexSet::empty());
        assert!(bc.recommend().is_empty(), "BC does not support feedback");
        let _ = good;
        assert_eq!(bc.name(), "BC");
        assert_eq!(bc.candidates(), &[a]);
    }
}
