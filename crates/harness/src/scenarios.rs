//! The canonical scenario catalog: the paper's Figures 8–12 plus the
//! overhead and ablation studies, each as a declarative [`ScenarioSpec`], and
//! miniature fixed-seed variants of Figures 8, 9 and 11 used by the golden
//! regression suite in `tests/scenarios.rs`.
//!
//! Every constructor takes the phase length **explicitly**; reading the
//! `WFIT_PHASE_LEN` environment variable is the job of the bench entry
//! points (`crates/bench`), never of the harness.

use crate::service_run::ServiceScenarioSpec;
use crate::spec::{AdvisorSpec, CellSpec, FeedbackEvent, FeedbackSpec, ScenarioSpec};
use wfit_core::config::WfitConfig;
use workload::{Dataset, PhaseSpec};

/// Statements per phase of the miniature golden scenarios.  Small enough for
/// tier-1 test time, large enough that WFIT transitions and OPT is non-trivial.
pub const MINI_PHASE_LEN: usize = 6;

/// Figure 8 — baseline performance: WFIT at `stateCnt ∈ {2000, 500, 100}`,
/// WFIT-IND and BC, fixed partition, no feedback.
pub fn fig8(statements_per_phase: usize) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("fig8-baseline", statements_per_phase);
    for state_cnt in [2000u64, 500, 100] {
        spec = spec.cell(CellSpec::new(
            format!("WFIT-{state_cnt}"),
            AdvisorSpec::WfitFixed { state_cnt },
        ));
    }
    spec.cell(CellSpec::new("WFIT-IND", AdvisorSpec::WfitIndependent))
        .cell(CellSpec::new("BC", AdvisorSpec::Bc))
}

/// Figure 9 — effect of DBA feedback: the prescient `V_GOOD` stream, no
/// feedback, and the adversarial `V_BAD` mirror.
pub fn fig9(statements_per_phase: usize) -> ScenarioSpec {
    ScenarioSpec::new("fig9-feedback", statements_per_phase)
        .cell(
            CellSpec::new("GOOD", AdvisorSpec::WfitFixed { state_cnt: 500 })
                .with_feedback(FeedbackSpec::OptGood),
        )
        .cell(CellSpec::new(
            "WFIT",
            AdvisorSpec::WfitFixed { state_cnt: 500 },
        ))
        .cell(
            CellSpec::new("BAD", AdvisorSpec::WfitFixed { state_cnt: 500 })
                .with_feedback(FeedbackSpec::OptBad),
        )
}

/// Figure 10 — feedback under the independence assumption.
pub fn fig10(statements_per_phase: usize) -> ScenarioSpec {
    ScenarioSpec::new("fig10-feedback-ind", statements_per_phase)
        .cell(
            CellSpec::new("GOOD-IND", AdvisorSpec::WfitIndependent)
                .with_feedback(FeedbackSpec::OptGood),
        )
        .cell(CellSpec::new("WFIT-IND", AdvisorSpec::WfitIndependent))
}

/// Figure 11 — effect of delayed responses (`LAG T`).
pub fn fig11(statements_per_phase: usize) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("fig11-lag", statements_per_phase);
    for lag in [1usize, 25, 50, 75] {
        let label = if lag == 1 {
            "WFIT".to_string()
        } else {
            format!("LAG {lag}")
        };
        spec = spec
            .cell(CellSpec::new(label, AdvisorSpec::WfitFixed { state_cnt: 500 }).with_lag(lag));
    }
    spec
}

/// Figure 12 — automatic maintenance of the stable partition (AUTO vs FIXED).
pub fn fig12(statements_per_phase: usize) -> ScenarioSpec {
    ScenarioSpec::new("fig12-auto-partition", statements_per_phase)
        .cell(CellSpec::new(
            "AUTO",
            AdvisorSpec::WfitAuto {
                config: WfitConfig::default(),
            },
        ))
        .cell(CellSpec::new(
            "FIXED",
            AdvisorSpec::WfitFixed { state_cnt: 500 },
        ))
}

/// Overhead study (Section 6.2): fixed-partition WFIT at three `stateCnt`
/// settings plus full AUTO, for wall-clock / what-if-call profiling.
pub fn overhead(statements_per_phase: usize) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("overhead", statements_per_phase);
    for state_cnt in [2000u64, 500, 100] {
        spec = spec.cell(CellSpec::new(
            format!("WFIT-{state_cnt}"),
            AdvisorSpec::WfitFixed { state_cnt },
        ));
    }
    spec.cell(CellSpec::new(
        "AUTO",
        AdvisorSpec::WfitAuto {
            config: WfitConfig::default(),
        },
    ))
}

/// Ablation studies over the AUTO knobs: one scenario per swept knob
/// (`histSize`, `idxCnt`, `choosePartition` randomization).
pub fn ablations(statements_per_phase: usize) -> Vec<ScenarioSpec> {
    let auto = |config: WfitConfig| AdvisorSpec::WfitAuto { config };
    let mut hist = ScenarioSpec::new("ablation-hist-size", statements_per_phase);
    for hist_size in [10usize, 100, 400] {
        hist = hist.cell(CellSpec::new(
            format!("hist={hist_size}"),
            auto(WfitConfig {
                hist_size,
                ..WfitConfig::default()
            }),
        ));
    }
    let mut idx = ScenarioSpec::new("ablation-idx-cnt", statements_per_phase);
    for idx_cnt in [10usize, 20, 40] {
        idx = idx.cell(CellSpec::new(
            format!("idxCnt={idx_cnt}"),
            auto(WfitConfig {
                idx_cnt,
                ..WfitConfig::default()
            }),
        ));
    }
    let mut rand = ScenarioSpec::new("ablation-rand-cnt", statements_per_phase);
    for rand_cnt in [0usize, 8, 32] {
        rand = rand.cell(CellSpec::new(
            format!("rand={rand_cnt}"),
            auto(WfitConfig {
                rand_cnt,
                ..WfitConfig::default()
            }),
        ));
    }
    vec![hist, idx, rand]
}

/// Miniature Figure 8 for the golden suite: fixed seed, no feedback.
pub fn fig8_mini() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("fig8-mini", MINI_PHASE_LEN);
    for state_cnt in [500u64, 100] {
        spec = spec.cell(CellSpec::new(
            format!("WFIT-{state_cnt}"),
            AdvisorSpec::WfitFixed { state_cnt },
        ));
    }
    spec.cell(CellSpec::new("WFIT-IND", AdvisorSpec::WfitIndependent))
        .cell(CellSpec::new("BC", AdvisorSpec::Bc))
        .cell(CellSpec::new("NO-INDEX", AdvisorSpec::NoIndex))
}

/// Miniature Figure 9 for the golden suite: OPT-derived and explicitly
/// scripted feedback streams.
pub fn fig9_mini() -> ScenarioSpec {
    ScenarioSpec::new("fig9-mini", MINI_PHASE_LEN)
        .cell(
            CellSpec::new("GOOD", AdvisorSpec::WfitFixed { state_cnt: 500 })
                .with_feedback(FeedbackSpec::OptGood),
        )
        .cell(CellSpec::new(
            "WFIT",
            AdvisorSpec::WfitFixed { state_cnt: 500 },
        ))
        .cell(
            CellSpec::new("BAD", AdvisorSpec::WfitFixed { state_cnt: 500 })
                .with_feedback(FeedbackSpec::OptBad),
        )
        .cell(
            CellSpec::new("SCRIPTED", AdvisorSpec::WfitFixed { state_cnt: 500 }).with_feedback(
                FeedbackSpec::Scripted(vec![
                    FeedbackEvent {
                        position: 4,
                        approve_ranks: vec![0, 1],
                        reject_ranks: vec![],
                    },
                    FeedbackEvent {
                        position: 24,
                        approve_ranks: vec![],
                        reject_ranks: vec![0],
                    },
                ]),
            ),
        )
}

/// Miniature Figure 11 for the golden suite: delayed acceptance.
pub fn fig11_mini() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("fig11-mini", MINI_PHASE_LEN);
    for lag in [1usize, 8, 16] {
        let label = if lag == 1 {
            "WFIT".to_string()
        } else {
            format!("LAG {lag}")
        };
        spec = spec
            .cell(CellSpec::new(label, AdvisorSpec::WfitFixed { state_cnt: 500 }).with_lag(lag));
    }
    spec
}

/// Tie-break seed of the bandit cells in the golden scenarios.
pub const BANDIT_MINI_SEED: u64 = 0xB0BA;

/// Miniature *ad-hoc drift* scenario for the bandit arm: the C²UCB bandit
/// head-to-head against WFIT-500, BC and the never-index baseline over the
/// paper's eight-phase drifting workload — the regime where the candidate
/// pool's benefits shift phase by phase and the safety gate earns its keep.
/// A second bandit cell receives scripted votes, pinning the pin/ban
/// feedback semantics in the golden.  The golden snapshot pins each cell's
/// `regret` / `safety_fallbacks` / `whatif_calls`.
pub fn bandit_mini() -> ScenarioSpec {
    ScenarioSpec::new("bandit-mini", MINI_PHASE_LEN)
        .cell(CellSpec::new(
            "BANDIT",
            AdvisorSpec::Bandit {
                seed: BANDIT_MINI_SEED,
            },
        ))
        .cell(
            CellSpec::new(
                "BANDIT-VOTED",
                AdvisorSpec::Bandit {
                    seed: BANDIT_MINI_SEED,
                },
            )
            .with_feedback(FeedbackSpec::Scripted(vec![
                FeedbackEvent {
                    position: 4,
                    approve_ranks: vec![0],
                    reject_ranks: vec![],
                },
                FeedbackEvent {
                    position: 24,
                    approve_ranks: vec![],
                    reject_ranks: vec![1],
                },
            ])),
        )
        .cell(CellSpec::new(
            "WFIT-500",
            AdvisorSpec::WfitFixed { state_cnt: 500 },
        ))
        .cell(CellSpec::new("BC", AdvisorSpec::Bc))
        .cell(CellSpec::new("NO-INDEX", AdvisorSpec::NoIndex))
}

/// The HTAP phase structure of [`bandit_htap_mini`]: each dataset pair is
/// held for two consecutive phases — an analytic phase at 5% updates followed
/// by a transactional phase at 45% — so the *same* candidate indexes swing
/// from strongly beneficial to pure maintenance burden without the data
/// shifting underneath them.
pub fn htap_phases() -> Vec<PhaseSpec> {
    use Dataset::*;
    let drift = [
        (TpcH, TpcC),
        (TpcH, TpcC),
        (TpcC, TpcE),
        (TpcC, TpcE),
        (TpcE, Nref),
        (TpcE, Nref),
        (Nref, TpcH),
        (Nref, TpcH),
    ];
    drift
        .into_iter()
        .enumerate()
        .map(|(i, (primary, secondary))| PhaseSpec {
            primary,
            secondary,
            update_fraction: if i % 2 == 0 { 0.05 } else { 0.45 },
        })
        .collect()
}

/// Miniature *HTAP* scenario for the bandit arm: alternating read-heavy and
/// update-heavy phases ([`htap_phases`]).  The always-index baseline pays
/// maintenance through every transactional phase, the bandit must learn to
/// retreat — its safety gate blocks deployments whose estimated cost exceeds
/// staying put, so `safety_fallbacks` is pinned non-zero by the golden.
pub fn bandit_htap_mini() -> ScenarioSpec {
    ScenarioSpec::new("bandit-htap-mini", MINI_PHASE_LEN)
        .with_phases(htap_phases())
        .cell(CellSpec::new(
            "BANDIT",
            AdvisorSpec::Bandit {
                seed: BANDIT_MINI_SEED,
            },
        ))
        .cell(CellSpec::new(
            "WFIT-500",
            AdvisorSpec::WfitFixed { state_cnt: 500 },
        ))
        .cell(CellSpec::new("ALL-CAND", AdvisorSpec::AllCandidates))
        .cell(CellSpec::new("NO-INDEX", AdvisorSpec::NoIndex))
}

/// Miniature service scenario for the golden suite: three tenants, each
/// served by a WFIT-500 / WFIT-IND / BC session fleet over a shared
/// per-tenant what-if cache, with scheduled votes; small enough for tier-1
/// test time.  Use [`crate::run_service_scenario`] to replay it.
pub fn service_mini() -> ServiceScenarioSpec {
    ServiceScenarioSpec::new("service-mini", 3, MINI_PHASE_LEN).with_feedback_every(16)
}

/// Shared-cache capacity of [`service_evict_mini`]: deliberately far below
/// the scenario's working set (the unbounded run of the same workload keeps
/// several hundred entries per tenant resident), so the CLOCK sweep must
/// evict continuously and the golden snapshot pins the eviction counters.
pub const EVICT_MINI_CACHE_CAPACITY: usize = 48;

/// Miniature *bounded* service scenario for the golden suite — the
/// CLOCK-eviction golden: the [`service_mini`] workload with each tenant's
/// cache capacity forced below its working set.  Costs and per-session
/// what-if calls must match [`service_mini`] exactly (the bound may only
/// change the cache's own counters); the golden snapshot additionally pins
/// the hit rate and the eviction count.
pub fn service_evict_mini() -> ServiceScenarioSpec {
    ServiceScenarioSpec::new("service-evict-mini", 3, MINI_PHASE_LEN)
        .with_feedback_every(16)
        .with_cache_capacity(EVICT_MINI_CACHE_CAPACITY)
}

/// Hot-tenant event multiplier of [`service_skew_mini`]: tenant 0 replays
/// 8× the statements of every other tenant, so its worker carries most of
/// each round.
pub const SKEW_FACTOR: usize = 8;

/// Miniature skewed scenario for the golden suite: three tenants (one hot at
/// [`SKEW_FACTOR`]×), a two-session fleet, four workers, no shared cache.
/// Each tenant drains whole on one worker, so the hot tenant's backlog
/// occupies one worker while the other two tenants share the rest; the
/// golden pins every cost cell and the queue-depth and load-imbalance
/// numbers of that plan.
pub fn service_skew_mini() -> ServiceScenarioSpec {
    ServiceScenarioSpec::new("service-skew-mini", 3, 2)
        .with_sessions(vec![
            AdvisorSpec::WfitFixed { state_cnt: 500 },
            AdvisorSpec::Bc,
        ])
        .with_feedback_every(8)
        .with_shared_cache(false)
        .with_skew(SKEW_FACTOR)
        .with_workers(4)
}

/// Per-tenant ingress depth of [`service_overload_mini`]: deliberately far
/// below a wave's per-tenant offer, so the admission gate must reject and
/// votes landing on full queues must displace queued queries.
pub const OVERLOAD_MINI_DEPTH: usize = 8;

/// Global ingress budget of [`service_overload_mini`]: below
/// `tenants × OVERLOAD_MINI_DEPTH`, so tenants also contend for the shared
/// budget and some rejections carry the `GlobalFull` reason.
pub const OVERLOAD_MINI_GLOBAL: usize = 20;

/// Offered-load multiplier of [`service_overload_mini`]: each tenant offers
/// 4× the per-tenant capacity between drain rounds.
pub const OVERLOAD_MINI_OFFERED: usize = 4;

/// Miniature *overload* scenario for the golden suite: three tenants flood a
/// bounded ingress ([`OVERLOAD_MINI_DEPTH`] per tenant,
/// [`OVERLOAD_MINI_GLOBAL`] global) at [`OVERLOAD_MINI_OFFERED`]× capacity
/// with scheduled votes, so the gate rejects overflow queries and votes
/// displace queued ones.  The golden snapshot pins the shed / deferred /
/// rejected counters and `peak_pending` — all pure functions of submission
/// order — and `tests/scenarios.rs` additionally proves the surviving
/// events' cost cells are bit-equal to an un-shed control replay
/// ([`crate::run_service_control`]).
pub fn service_overload_mini() -> ServiceScenarioSpec {
    ServiceScenarioSpec::new("service-overload-mini", 3, MINI_PHASE_LEN)
        .with_sessions(vec![
            AdvisorSpec::WfitFixed { state_cnt: 500 },
            AdvisorSpec::Bc,
        ])
        .with_feedback_every(6)
        .with_ingress_depths(OVERLOAD_MINI_DEPTH, OVERLOAD_MINI_GLOBAL)
        .with_offered_multiplier(OVERLOAD_MINI_OFFERED)
}

/// Kill-and-restore point of the crash arm of [`service_restore_mini`]: the
/// service dies before submitting wave 4, i.e. with a snapshot from wave 3
/// *and* one logged-but-unsnapshotted WAL round behind it — restore must
/// exercise both the snapshot and the WAL tail.
pub const RESTORE_MINI_CRASH_WAVE: usize = 4;

/// Miniature *durable* scenario for the golden suite: two tenants with a
/// WFIT-500 / BC fleet replay the [`MINI_PHASE_LEN`] workload in persistent
/// waves (one WAL record per drain round, a snapshot every
/// [`crate::service_run::PERSIST_SNAPSHOT_EVERY`] waves).  The golden
/// snapshot is produced by the uninterrupted run; `tests/scenarios.rs`
/// additionally replays the same spec with a kill-and-restore at
/// [`RESTORE_MINI_CRASH_WAVE`] and asserts the recovered run renders the
/// byte-identical report — cost cells, cache counters, WAL-round total and
/// all.
pub fn service_restore_mini() -> ServiceScenarioSpec {
    ServiceScenarioSpec::new("service-restore-mini", 2, MINI_PHASE_LEN)
        .with_sessions(vec![
            AdvisorSpec::WfitFixed { state_cnt: 500 },
            AdvisorSpec::Bc,
        ])
        .with_feedback_every(6)
        .with_persist(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_scenarios_have_the_expected_fleets() {
        assert_eq!(fig8(10).cells.len(), 5);
        assert_eq!(fig9(10).cells.len(), 3);
        assert_eq!(fig10(10).cells.len(), 2);
        assert_eq!(fig11(10).cells.len(), 4);
        assert_eq!(fig12(10).cells.len(), 2);
        assert_eq!(overhead(10).cells.len(), 4);
        assert_eq!(ablations(10).len(), 3);
    }

    #[test]
    fn mini_scenarios_share_the_default_seed_and_are_small() {
        for spec in [
            fig8_mini(),
            fig9_mini(),
            fig11_mini(),
            bandit_mini(),
            bandit_htap_mini(),
        ] {
            assert_eq!(spec.statements_per_phase, MINI_PHASE_LEN);
            assert_eq!(spec.total_statements(), 8 * MINI_PHASE_LEN);
            assert_eq!(spec.seed, ScenarioSpec::new("x", 1).seed);
        }
    }

    #[test]
    fn bandit_scenarios_field_the_expected_fleets() {
        let mini = bandit_mini();
        assert_eq!(mini.cells.len(), 5);
        let bandit_cells = mini
            .cells
            .iter()
            .filter(|c| matches!(c.advisor, AdvisorSpec::Bandit { .. }))
            .count();
        assert_eq!(bandit_cells, 2, "plain + voted bandit cells");
        assert!(mini.cells.iter().any(|c| c.label == "NO-INDEX"));
        // The HTAP variant holds each dataset pair for an analytic phase
        // then a transactional one, and keeps the default seed.
        let htap = bandit_htap_mini();
        assert_eq!(htap.cells.len(), 4);
        assert_eq!(htap.phases.len(), 8);
        for (i, phase) in htap.phases.iter().enumerate() {
            let expected = if i % 2 == 0 { 0.05 } else { 0.45 };
            assert_eq!(phase.update_fraction, expected);
            if i % 2 == 1 {
                let prev = &htap.phases[i - 1];
                assert_eq!(phase.primary, prev.primary, "pairs share data");
                assert_eq!(phase.secondary, prev.secondary);
            }
        }
        // The service fleet gains/loses the bandit arm idempotently.
        let svc = service_mini().with_bandit(true);
        assert_eq!(svc.sessions.len(), 4);
        let twice = svc.clone().with_bandit(true);
        assert_eq!(twice.sessions.len(), 4, "with_bandit is idempotent");
        assert_eq!(twice.with_bandit(false).sessions.len(), 3);
    }

    #[test]
    fn fig8_state_cnt_sweep_requires_extra_selections() {
        let cnts = fig8(10).state_cnts_needed();
        assert!(cnts.contains(&2000) && cnts.contains(&500) && cnts.contains(&100));
    }

    #[test]
    fn service_scenarios_are_parameterized_consistently() {
        let mini = service_mini();
        assert_eq!(mini.tenants, 3);
        assert_eq!(mini.statements_per_phase, MINI_PHASE_LEN);
        assert_eq!(mini.sessions.len(), 3);
        assert!(mini.shared_cache);
        assert_eq!(mini.feedback_every, 16);
        // The default keeps the historical hot path: an unbounded cache.
        assert_eq!(mini.cache_capacity, 0);
        // The evict variant differs from service-mini only in the cache
        // bound (same workload, fleet and feedback schedule).
        let evict = service_evict_mini();
        assert_eq!(evict.tenants, mini.tenants);
        assert_eq!(evict.seed, mini.seed);
        assert_eq!(evict.feedback_every, mini.feedback_every);
        assert_eq!(evict.cache_capacity, EVICT_MINI_CACHE_CAPACITY);
        assert!(evict.shared_cache);
        assert_eq!(mini.statements_for_tenant(2), 8 * MINI_PHASE_LEN);
        // Tenant seeds are decorrelated but reproducible.
        assert_ne!(mini.tenant_seed(0), mini.tenant_seed(1));
        assert_eq!(mini.tenant_seed(2), service_mini().tenant_seed(2));
    }

    #[test]
    fn skewed_scenarios_make_tenant_zero_hot() {
        let mini = service_skew_mini();
        assert_eq!(mini.skew, SKEW_FACTOR);
        assert_eq!(mini.statements_for_tenant(0), 8 * 2 * SKEW_FACTOR);
        assert_eq!(mini.statements_for_tenant(1), 8 * 2);
        assert_eq!(
            mini.total_statements(),
            8 * 2 * (SKEW_FACTOR + 2),
            "one hot + two cold tenants"
        );
        assert_eq!(mini.tenants, 3);
        assert_eq!(mini.sessions.len(), 2);
        assert!(!mini.shared_cache);
        assert_eq!(mini.workers, 4);
        // The default scenarios stay unskewed, one worker per tenant.
        assert_eq!(service_mini().skew, 1);
        assert_eq!(service_mini().workers, 3);
    }

    #[test]
    fn overload_mini_floods_a_bounded_ingress() {
        let overload = service_overload_mini();
        assert!(overload.is_bounded());
        assert_eq!(overload.per_tenant_depth, OVERLOAD_MINI_DEPTH);
        assert_eq!(overload.global_depth, OVERLOAD_MINI_GLOBAL);
        assert_eq!(overload.offered_multiplier, OVERLOAD_MINI_OFFERED);
        // The global budget is the contended resource: it is below the sum
        // of the per-tenant depths.
        assert!(OVERLOAD_MINI_GLOBAL < overload.tenants * OVERLOAD_MINI_DEPTH);
        // Each wave offers more per tenant than both limits can admit.
        const { assert!(OVERLOAD_MINI_OFFERED * OVERLOAD_MINI_DEPTH > OVERLOAD_MINI_GLOBAL) };
        // Votes are scheduled often enough to land on full queues.
        assert_eq!(overload.feedback_every, MINI_PHASE_LEN);
        // The default scenarios stay unbounded.
        assert!(!service_mini().is_bounded());
        assert!(!service_skew_mini().is_bounded());
        assert_eq!(service_mini().offered_multiplier, 1);
    }

    #[test]
    fn restore_mini_is_durable_and_crashes_past_a_snapshot() {
        let restore = service_restore_mini();
        assert!(restore.persist && restore.crash_at.is_none());
        assert!(
            !restore.is_bounded(),
            "persistence needs the unbounded shape"
        );
        assert_eq!(restore.tenants, 2);
        assert_eq!(restore.sessions.len(), 2);
        // The crash wave must exist (the run is longer than the crash
        // point) and must sit strictly between two snapshot waves, so the
        // restore replays a snapshot *plus* a WAL tail.
        let events =
            restore.total_statements() + restore.total_statements() / restore.feedback_every;
        let waves = events.div_ceil(crate::service_run::PERSIST_WAVE);
        assert!(
            RESTORE_MINI_CRASH_WAVE < waves,
            "crash wave {RESTORE_MINI_CRASH_WAVE} of {waves}"
        );
        const {
            assert!(
                !RESTORE_MINI_CRASH_WAVE.is_multiple_of(crate::service_run::PERSIST_SNAPSHOT_EVERY)
            );
            assert!(RESTORE_MINI_CRASH_WAVE > crate::service_run::PERSIST_SNAPSHOT_EVERY);
        }
        // The default scenarios stay in-memory.
        assert!(!service_mini().persist);
        assert_eq!(service_mini().crash_at, None);
    }
}
