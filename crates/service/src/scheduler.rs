//! Deterministic placement of a drain round's tenants on worker bins.
//!
//! A drain round starts from a snapshot of per-tenant queue depths (taken by
//! [`crate::ingress::Ingress::drain_all`]).  Every busy tenant is placed
//! **whole** on one worker — heaviest tenant first, onto the lightest bin —
//! where all of its sessions drain its event run grouped, in submission
//! order.  A tenant's load is its **session-runs** × its depth: each of its
//! `S` sessions replays every one of its `d` pending events.
//!
//! Two invariants keep the result bit-deterministic (see
//! `ARCHITECTURE.md`):
//!
//! 1. **A tenant never spans workers** — one worker drains all of its
//!    sessions sequentially, so every session sees the tenant's events in
//!    submission order and the tenant's what-if cache and IBG store see one
//!    request order whatever the worker count.
//! 2. **The plan is a pure function of queue depths** — all of it (bins,
//!    session-run count, load imbalance) is computed from the depth
//!    snapshot before any event is processed, never from wall-clock
//!    progress, so scheduler counters are golden-testable.

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

/// The deterministic outcome of planning one drain round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulePlan {
    /// `(tenant, worker)` for every tenant with pending events, in tenant
    /// order.
    pub placements: Vec<(usize, usize)>,
    /// Workers the plan actually uses (≤ the configured maximum).
    pub workers_used: usize,
    /// Session-runs scheduled in the round.
    pub session_runs: u64,
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
            max_load: 0,
            total_load: 0,
        }
    }

    /// Planned load imbalance: `max_load / (total_load / workers_used)`.
    /// 1.0 is a perfectly even split; one hot tenant on a skewed snapshot
    /// approaches `workers_used`.  Returns 1.0 for an empty plan.
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
        self.max_queue_depth = self.max_queue_depth.max(max_depth);
        self.max_imbalance = self.max_imbalance.max(plan.imbalance());
    }
}

/// Plan one drain round on at most `workers` workers: each busy tenant goes
/// whole onto the lightest bin, heaviest tenant first.
///
/// The plan is a pure function of `loads` and `workers`: ties break toward
/// the lower tenant id and the lower worker index, and no wall-clock
/// information enters.  Callers hand the returned placements to the
/// execution layer unchanged.
pub fn plan(loads: &[TenantLoad], workers: usize) -> SchedulePlan {
    let mut busy: Vec<TenantLoad> = loads.iter().filter(|l| l.depth > 0).copied().collect();
    if busy.is_empty() {
        return SchedulePlan::empty();
    }
    // Heaviest first; ties by tenant id so the order is a pure function of
    // the depth snapshot.
    busy.sort_by_key(|l| (std::cmp::Reverse(l.weight()), l.tenant));

    // A worker holds whole tenants, so more workers than busy tenants idle.
    let workers_used = workers.clamp(1, busy.len());
    let mut bin_load = vec![0u64; workers_used];
    let mut placements: Vec<(usize, usize)> = busy
        .iter()
        .map(|load| {
            // Lightest bin; `min_by_key` keeps the first (lowest) worker on
            // ties.
            let lightest = (0..workers_used).min_by_key(|&w| bin_load[w]).unwrap_or(0);
            bin_load[lightest] += load.weight();
            (load.tenant, lightest)
        })
        .collect();
    placements.sort_unstable();

    SchedulePlan {
        placements,
        workers_used,
        session_runs: busy.iter().map(|l| l.runs() as u64).sum(),
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

    #[test]
    fn empty_snapshot_plans_nothing() {
        let plan = plan(&[load(0, 0, 3)], 4);
        assert_eq!(plan, SchedulePlan::empty());
        assert_eq!(plan.imbalance(), 1.0);
    }

    #[test]
    fn pinned_mode_never_splits_a_tenant() {
        let loads = [load(0, 80, 3), load(1, 10, 3), load(2, 10, 3)];
        let p = plan(&loads, 4);
        assert_eq!(p.workers_used, 3, "capped by tenant count");
        assert_eq!(p.placements, vec![(0, 0), (1, 1), (2, 2)]);
        // The hot tenant dominates one worker: imbalance near workers_used.
        assert_eq!(p.max_load, 240);
        assert!(p.imbalance() > 2.0, "imbalance {}", p.imbalance());
        // One hot tenant occupies exactly one of four workers.
        assert_eq!(plan(&[load(0, 100, 3)], 4).workers_used, 1);
        // One worker holds every tenant.
        let single = plan(&loads, 1);
        assert_eq!(single.workers_used, 1);
        assert_eq!(single.placements, vec![(0, 0), (1, 0), (2, 0)]);
        assert_eq!(single.imbalance(), 1.0);
    }

    #[test]
    fn plan_is_a_pure_function_of_queue_depths() {
        let loads = [load(0, 37, 2), load(1, 9, 2), load(2, 61, 3), load(3, 9, 1)];
        let a = plan(&loads, 3);
        let b = plan(&loads, 3);
        assert_eq!(a, b);
        // Listing tenants in a different order must not change the plan —
        // only depths matter.
        let shuffled = [loads[2], loads[0], loads[3], loads[1]];
        let c = plan(&shuffled, 3);
        assert_eq!(a, c);
    }

    #[test]
    fn sessionless_tenants_get_a_pseudo_run() {
        let plan = plan(&[load(0, 5, 0)], 2);
        assert_eq!(plan.session_runs, 1);
        assert_eq!(plan.placements, vec![(0, 0)]);
    }

    #[test]
    fn sched_stats_accumulate_across_rounds() {
        let loads = [load(0, 80, 3), load(1, 10, 3)];
        let p = plan(&loads, 4);
        let mut stats = SchedStats::default();
        stats.absorb_round(&p, 80);
        stats.absorb_round(&plan(&[load(1, 4, 3)], 4), 4);
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.max_queue_depth, 80);
        assert_eq!(stats.session_runs, p.session_runs + 3);
        assert!(stats.max_imbalance >= p.imbalance());
    }
}
