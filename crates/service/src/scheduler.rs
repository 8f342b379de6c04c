//! Deterministic cross-tenant work-stealing: planning a drain round.
//!
//! A drain round starts from a snapshot of per-tenant queue depths (taken by
//! [`crate::ingress::Ingress::drain_all`]).  The historical scheduler pinned
//! every tenant to one worker for the whole round, so a skewed event
//! distribution — one hot tenant, many cold ones — serialized behind a
//! single thread while the other workers idled.  This module replaces the
//! pinned assignment with **work-stealing at session-run granularity**:
//!
//! * the unit of scheduling is a **session-run** — one session of a tenant
//!   replaying the tenant's whole event run for the round.  A tenant with
//!   `S` sessions and `d` pending events is `S` runs of weight `d`;
//! * the initial ("home") assignment places each tenant's runs on the
//!   lightest worker, exactly like the pinned scheduler;
//! * the steal pass then moves individual session-runs from the most-loaded
//!   worker to the least-loaded one while doing so shrinks the makespan.
//!
//! Three invariants keep the result bit-deterministic (see
//! `ARCHITECTURE.md`):
//!
//! 1. **Sessions are never split** — a session-run replays its session's
//!    events sequentially on one worker; stealing moves whole runs only.
//! 2. **Per-session event order is preserved** — every session still sees
//!    its tenant's events in submission order, so session state (and every
//!    cost-derived metric) is identical to a single-threaded replay.
//! 3. **Victim choice is a pure function of queue depths** — the whole plan
//!    (home bins, steal sequence, steal counters, load imbalance) is
//!    computed from the depth snapshot before any event is processed, never
//!    from wall-clock progress, so steal counters are golden-testable.
//!
//! What stealing deliberately does *not* promise: with a shared what-if
//! cache or IBG store, concurrently-running session-runs of one tenant race
//! on the memo, so the hit/miss (and build/reuse) *split* of those overhead
//! counters becomes timing-dependent.  Costs never change — the cache is
//! transparent — and with stealing disabled the historical sequential drain
//! (and all its counters) is reproduced exactly.

/// Scheduling knobs of one drain round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Maximum workers draining concurrently.
    pub workers: usize,
    /// Whether the steal pass runs (false = historical pinned bins).
    pub steal: bool,
}

/// One tenant's contribution to a drain round: its queue-depth snapshot and
/// session count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantLoad {
    /// Tenant index in the service registry.
    pub tenant: usize,
    /// Events pending for the tenant in this round.
    pub depth: usize,
    /// Sessions registered for the tenant (each becomes one session-run).
    pub sessions: usize,
}

impl TenantLoad {
    /// Session-runs this tenant contributes (a session-less tenant still
    /// needs one pseudo-run to consume its events).
    fn runs(&self) -> usize {
        self.sessions.max(1)
    }

    /// Total scheduled weight: every session replays every event.
    fn weight(&self) -> u64 {
        (self.depth * self.runs()) as u64
    }
}

/// Where one tenant's session-runs execute in a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// All runs on one worker: the tenant drains grouped (session-major
    /// batching, IBG generations advanced per batch) — the exact historical
    /// execution path.
    Whole {
        /// The worker draining the tenant.
        worker: usize,
    },
    /// Runs spread across workers (`workers[s]` = worker of session `s`):
    /// each session replays the event run independently.
    Split {
        /// Worker index per session, in session order.
        workers: Vec<usize>,
    },
}

/// The deterministic outcome of planning one drain round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulePlan {
    /// `(tenant, placement)` for every tenant with pending events, in
    /// tenant order.
    pub placements: Vec<(usize, Placement)>,
    /// Workers the plan actually uses (≤ the configured maximum).
    pub workers_used: usize,
    /// Session-runs scheduled in the round.
    pub session_runs: u64,
    /// Session-runs moved off their home worker by the steal pass.
    pub stolen_runs: u64,
    /// Largest planned per-worker load (in event-replays).
    pub max_load: u64,
    /// Total planned load across workers (in event-replays).
    pub total_load: u64,
}

impl SchedulePlan {
    /// An empty plan (no pending events).
    pub fn empty() -> Self {
        Self {
            placements: Vec::new(),
            workers_used: 0,
            session_runs: 0,
            stolen_runs: 0,
            max_load: 0,
            total_load: 0,
        }
    }

    /// Planned load imbalance: `max_load / (total_load / workers_used)`.
    /// 1.0 is a perfectly even split; the pinned scheduler on a skewed
    /// snapshot approaches `workers_used`.  Returns 1.0 for an empty plan.
    pub fn imbalance(&self) -> f64 {
        if self.total_load == 0 || self.workers_used == 0 {
            1.0
        } else {
            self.max_load as f64 * self.workers_used as f64 / self.total_load as f64
        }
    }
}

/// Cumulative scheduler counters across a service's drain rounds.  All
/// values are pure functions of the per-round queue-depth snapshots, so they
/// are deterministic whenever submission order is (and golden-testable).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedStats {
    /// Drain rounds that processed at least one event.
    pub rounds: u64,
    /// Session-runs scheduled across all rounds.
    pub session_runs: u64,
    /// Session-runs executed away from their home worker.
    pub stolen_runs: u64,
    /// Largest per-tenant queue depth observed at any round start.
    pub max_queue_depth: u64,
    /// Worst planned load imbalance across rounds (see
    /// [`SchedulePlan::imbalance`]); 1.0 when no round ran.
    pub max_imbalance: f64,
}

impl Default for SchedStats {
    fn default() -> Self {
        Self {
            rounds: 0,
            session_runs: 0,
            stolen_runs: 0,
            max_queue_depth: 0,
            // 1.0 = perfectly fair, the documented floor of the scale — so
            // a service that never polled does not report a nonsensical
            // "better than perfect" 0.0.
            max_imbalance: 1.0,
        }
    }
}

impl SchedStats {
    /// Fold one round's plan (and its depth snapshot) into the counters.
    pub fn absorb_round(&mut self, plan: &SchedulePlan, max_depth: u64) {
        self.rounds += 1;
        self.session_runs += plan.session_runs;
        self.stolen_runs += plan.stolen_runs;
        self.max_queue_depth = self.max_queue_depth.max(max_depth);
        self.max_imbalance = self.max_imbalance.max(plan.imbalance());
    }
}

/// Plan one drain round: home-assign tenants to workers
/// (heaviest-tenant-first onto the lightest bin), then — when `steal` is on
/// and more than one worker runs — move session-runs from the most-loaded
/// worker to the least-loaded one while each move strictly shrinks the
/// makespan.
///
/// The plan is a pure function of `loads` and `config`: ties break toward
/// the lower worker index / lower tenant id / higher session index, and no
/// wall-clock information enters.  Callers hand the returned placements to
/// the execution layer unchanged.
pub fn plan(loads: &[TenantLoad], config: &SchedulerConfig) -> SchedulePlan {
    let mut busy: Vec<TenantLoad> = loads.iter().filter(|l| l.depth > 0).copied().collect();
    if busy.is_empty() {
        return SchedulePlan::empty();
    }
    // Heaviest first; ties by tenant id so the order is a pure function of
    // the depth snapshot.
    busy.sort_by_key(|l| (std::cmp::Reverse(l.weight()), l.tenant));

    let total_runs: usize = busy.iter().map(|l| l.runs()).sum();
    let max_workers = config.workers.max(1);
    // Without stealing a worker can only hold whole tenants; with stealing
    // every session-run can occupy its own worker.
    let workers_used = if config.steal {
        max_workers.min(total_runs)
    } else {
        max_workers.min(busy.len())
    }
    .max(1);

    // Home assignment: lightest bin first (ties: lowest worker index).
    let mut bin_load = vec![0u64; workers_used];
    // run_worker[i][s] = worker of session-run `s` of busy tenant `i`.
    let mut run_worker: Vec<Vec<usize>> = Vec::with_capacity(busy.len());
    let mut home: Vec<usize> = Vec::with_capacity(busy.len());
    for load in &busy {
        let lightest = bin_load
            .iter()
            .enumerate()
            .min_by_key(|(_, &l)| l)
            .map(|(w, _)| w)
            .unwrap_or(0);
        bin_load[lightest] += load.weight();
        home.push(lightest);
        run_worker.push(vec![lightest; load.runs()]);
    }

    let mut stolen_runs = 0u64;
    if config.steal && workers_used > 1 {
        loop {
            let (max_w, &max_l) = bin_load
                .iter()
                .enumerate()
                .max_by_key(|&(w, &l)| (l, std::cmp::Reverse(w)))
                .unwrap();
            let (min_w, &min_l) = bin_load
                .iter()
                .enumerate()
                .min_by_key(|&(w, &l)| (l, w))
                .unwrap();
            if max_w == min_w {
                break;
            }
            // Candidate: the heaviest run on the max-loaded worker whose
            // move strictly improves the makespan; ties toward the lower
            // tenant id.  Within a tenant the highest-index run moves first,
            // so session 0 gravitates home.
            let mut candidate: Option<(u64, usize, usize)> = None; // (weight, busy idx, run idx)
            for (i, load) in busy.iter().enumerate() {
                let w = load.depth as u64;
                if w == 0 || min_l + w >= max_l {
                    continue;
                }
                if let Some(&(cw, _, _)) = candidate.as_ref() {
                    if w <= cw {
                        continue;
                    }
                }
                if let Some(run) = run_worker[i].iter().rposition(|&rw| rw == max_w) {
                    candidate = Some((w, i, run));
                }
            }
            let Some((w, i, run)) = candidate else { break };
            run_worker[i][run] = min_w;
            bin_load[max_w] -= w;
            bin_load[min_w] += w;
            stolen_runs += 1;
        }
    }

    // Assemble placements in tenant order.
    let mut order: Vec<usize> = (0..busy.len()).collect();
    order.sort_by_key(|&i| busy[i].tenant);
    let placements = order
        .into_iter()
        .map(|i| {
            let workers = &run_worker[i];
            let placement = if workers.iter().all(|&w| w == workers[0]) {
                Placement::Whole { worker: workers[0] }
            } else {
                Placement::Split {
                    workers: workers.clone(),
                }
            };
            (busy[i].tenant, placement)
        })
        .collect();

    SchedulePlan {
        placements,
        workers_used,
        session_runs: total_runs as u64,
        stolen_runs,
        max_load: bin_load.iter().copied().max().unwrap_or(0),
        total_load: bin_load.iter().sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(tenant: usize, depth: usize, sessions: usize) -> TenantLoad {
        TenantLoad {
            tenant,
            depth,
            sessions,
        }
    }

    fn cfg(workers: usize, steal: bool) -> SchedulerConfig {
        SchedulerConfig { workers, steal }
    }

    #[test]
    fn empty_snapshot_plans_nothing() {
        let plan = plan(&[load(0, 0, 3)], &cfg(4, true));
        assert_eq!(plan, SchedulePlan::empty());
        assert_eq!(plan.imbalance(), 1.0);
    }

    #[test]
    fn pinned_mode_never_splits_a_tenant() {
        let loads = [load(0, 80, 3), load(1, 10, 3), load(2, 10, 3)];
        let plan = plan(&loads, &cfg(4, false));
        assert_eq!(plan.stolen_runs, 0);
        assert_eq!(plan.workers_used, 3, "capped by tenant count");
        for (_, placement) in &plan.placements {
            assert!(matches!(placement, Placement::Whole { .. }));
        }
        // The hot tenant dominates one worker: imbalance near workers_used.
        assert!(plan.imbalance() > 2.0, "imbalance {}", plan.imbalance());
    }

    #[test]
    fn stealing_splits_the_hot_tenant_and_flattens_the_makespan() {
        let loads = [load(0, 80, 3), load(1, 10, 3), load(2, 10, 3)];
        let pinned = plan(&loads, &cfg(4, false));
        let stolen = plan(&loads, &cfg(4, true));
        assert!(stolen.stolen_runs > 0);
        assert!(stolen.max_load < pinned.max_load);
        assert!(stolen.imbalance() < pinned.imbalance());
        // Total work is conserved: stealing moves runs, never duplicates.
        assert_eq!(stolen.total_load, pinned.total_load);
        // The hot tenant is split across workers; each session has exactly
        // one worker (runs are never subdivided).
        let (_, hot) = &stolen.placements[0];
        match hot {
            Placement::Split { workers } => {
                assert_eq!(workers.len(), 3, "one worker per session-run");
                assert!(
                    workers
                        .iter()
                        .collect::<std::collections::HashSet<_>>()
                        .len()
                        > 1
                );
            }
            Placement::Whole { .. } => panic!("hot tenant must be split"),
        }
    }

    #[test]
    fn plan_is_a_pure_function_of_queue_depths() {
        let loads = [load(0, 37, 2), load(1, 9, 2), load(2, 61, 3), load(3, 9, 1)];
        let a = plan(&loads, &cfg(3, true));
        let b = plan(&loads, &cfg(3, true));
        assert_eq!(a, b);
        // Listing tenants in a different order must not change the plan —
        // only depths matter.
        let shuffled = [loads[2], loads[0], loads[3], loads[1]];
        let c = plan(&shuffled, &cfg(3, true));
        assert_eq!(a, c);
    }

    #[test]
    fn single_worker_behaves_like_pinned_regardless_of_steal() {
        let loads = [load(0, 80, 3), load(1, 10, 3)];
        let stolen = plan(&loads, &cfg(1, true));
        assert_eq!(stolen.workers_used, 1);
        assert_eq!(stolen.stolen_runs, 0);
        for (_, placement) in &stolen.placements {
            assert!(matches!(placement, Placement::Whole { worker: 0 }));
        }
    }

    #[test]
    fn stealing_uses_workers_beyond_the_tenant_count() {
        // One hot tenant, four workers: pinned mode can only use one worker,
        // stealing spreads the three session-runs across three.
        let loads = [load(0, 100, 3)];
        let pinned = plan(&loads, &cfg(4, false));
        assert_eq!(pinned.workers_used, 1);
        let stolen = plan(&loads, &cfg(4, true));
        assert_eq!(stolen.workers_used, 3, "capped by total session-runs");
        assert_eq!(stolen.stolen_runs, 2);
        assert_eq!(stolen.max_load, 100);
    }

    #[test]
    fn sessionless_tenants_get_a_pseudo_run() {
        let plan = plan(&[load(0, 5, 0)], &cfg(2, true));
        assert_eq!(plan.session_runs, 1);
        assert_eq!(plan.placements.len(), 1);
        assert!(matches!(plan.placements[0].1, Placement::Whole { .. }));
    }

    #[test]
    fn sched_stats_accumulate_across_rounds() {
        let loads = [load(0, 80, 3), load(1, 10, 3)];
        let p = plan(&loads, &cfg(4, true));
        let mut stats = SchedStats::default();
        stats.absorb_round(&p, 80);
        stats.absorb_round(&plan(&[load(1, 4, 3)], &cfg(4, true)), 4);
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.max_queue_depth, 80);
        assert_eq!(stats.session_runs, p.session_runs + 3);
        assert!(stats.max_imbalance >= p.imbalance());
    }
}
