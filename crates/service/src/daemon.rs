//! The multi-tenant tuning service: the tenant/session registry and the
//! wiring of [`crate::ingress`] → [`crate::scheduler`] → worker execution.
//!
//! The daemon is deliberately thin.  Event queuing lives in the
//! [`Ingress`] (sharded, interior-mutable, accepts [`TuningService::submit`]
//! concurrently with a running drain); round planning lives in
//! [`crate::scheduler::plan`] (deterministic placement of whole tenants on
//! worker bins); this module owns the registry, executes a plan on a
//! `std::thread::scope` worker pool, and keeps the books
//! ([`BatchReport`], [`SchedStats`], per-tenant counters).

use crate::env::{TenantEnv, TenantOptions};
use crate::event::{Event, SessionId, TenantId};
use crate::ingress::{Ingress, IngressConfig, IngressStats, ServiceHandle, SubmitOutcome};
use crate::persist::{self, PersistError, RestoreReport, SessionDigest, Snapshot, TenantSnapshot};
use crate::scheduler::{self, SchedStats, TenantLoad};
use simdb::database::Database;
use simdb::digest::Fnv64;
use simdb::index::{IndexId, IndexSet};
use simdb::whatif::WhatIfStats;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use wfit_core::{IndexAdvisor, SessionStats, TuningSession};

/// The session type hosted by the service: an owned environment driving a
/// boxed advisor, so heterogeneous fleets (WFIT, BC, …) live in one registry.
pub type ServiceSession = TuningSession<TenantEnv, Box<dyn IndexAdvisor + Send>>;

pub(crate) struct SessionSlot {
    label: String,
    session: ServiceSession,
    /// Set when the session's advisor panicked: the panic message.  A
    /// faulted session is quarantined — it is skipped by every subsequent
    /// drain so one broken advisor cannot wedge its tenant or the daemon
    /// (see [`TuningService::session_fault`]).
    fault: Option<String>,
}

/// Render a caught panic payload for [`SessionSlot::fault`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "advisor panicked with a non-string payload".to_string()
    }
}

/// Run one session-level call, quarantining the slot instead of unwinding
/// across the worker pool: before this guard existed, an advisor panic
/// crossed `std::thread::scope` and poisoned the whole drain (`poll`
/// aborted via `join().expect`, wedging every subsequent round).  The
/// session may be left mid-update — that is exactly why the slot is
/// excluded from all further rounds rather than recovered.
fn guard_session(slot: &mut SessionSlot, call: impl FnOnce(&mut ServiceSession)) {
    if slot.fault.is_some() {
        return;
    }
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| call(&mut slot.session))) {
        slot.fault = Some(panic_message(payload));
    }
}

struct Tenant {
    name: String,
    env: TenantEnv,
    slots: Vec<SessionSlot>,
    processed: u64,
}

/// Replay one tenant's event run against every session of the tenant:
/// each event, in submission order, goes to every healthy session before
/// the next event starts, so every session sees the tenant's stream in
/// submission order and the tenant's cache sees one request order.  This
/// is the execution path of every tenant a round drains.  Returns one
/// wall-clock latency sample per event, in microseconds.
fn drain_run(slots: &mut [SessionSlot], events: &[Event]) -> Vec<u64> {
    events
        .iter()
        .map(|event| {
            let start = Instant::now();
            for slot in slots.iter_mut() {
                guard_session(slot, |session| match event {
                    Event::Query { statement, .. } => {
                        session.submit_query(statement);
                    }
                    Event::Vote {
                        approve, reject, ..
                    } => session.vote(approve, reject),
                });
            }
            start.elapsed().as_micros() as u64
        })
        .collect()
}

/// Throughput and latency metrics of one [`TuningService::poll`] round (or
/// of a whole [`TuningService::process_pending`] drain, which absorbs its
/// rounds' reports).
///
/// All fields are wall-clock derived and therefore **not** deterministic
/// across runs; deterministic state (session accounting, cache and
/// scheduler counters) lives on the service itself.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Number of events processed.
    pub events: u64,
    /// Wall-clock duration of the batch in seconds.
    pub wall_seconds: f64,
    /// Per-event processing latencies in microseconds, sorted ascending.
    pub latencies_us: Vec<u64>,
    /// Per-tenant latency samples (sorted ascending), for tenants that
    /// processed at least one event.  Skewed workloads hide hot-tenant tail
    /// latency in the global percentile; these break it out.
    pub tenant_latencies_us: Vec<(TenantId, Vec<u64>)>,
}

impl BatchReport {
    /// Events processed per wall-clock second (0.0 for an empty batch).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.events as f64 / self.wall_seconds
        }
    }

    fn percentile(samples: &[u64], p: f64) -> u64 {
        if samples.is_empty() {
            return 0;
        }
        let rank = (p.clamp(0.0, 1.0) * (samples.len() - 1) as f64).round() as usize;
        samples[rank.min(samples.len() - 1)]
    }

    /// Latency percentile in microseconds (`p` in `[0, 1]`; nearest-rank).
    pub fn latency_percentile_us(&self, p: f64) -> u64 {
        Self::percentile(&self.latencies_us, p)
    }

    /// Median per-event latency in microseconds.
    pub fn p50_us(&self) -> u64 {
        self.latency_percentile_us(0.50)
    }

    /// 99th-percentile per-event latency in microseconds.
    pub fn p99_us(&self) -> u64 {
        self.latency_percentile_us(0.99)
    }

    /// One tenant's latency percentile in microseconds (0 when the tenant
    /// processed nothing in this batch).
    pub fn tenant_latency_percentile_us(&self, tenant: TenantId, p: f64) -> u64 {
        self.tenant_latencies_us
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|(_, samples)| Self::percentile(samples, p))
            .unwrap_or(0)
    }

    /// One tenant's 99th-percentile per-event latency in microseconds.
    pub fn tenant_p99_us(&self, tenant: TenantId) -> u64 {
        self.tenant_latency_percentile_us(tenant, 0.99)
    }

    /// Splice `incoming` (sorted) into `sorted` (sorted), keeping the result
    /// sorted in O(len) instead of re-sorting the accumulated vector —
    /// [`BatchReport::absorb`] runs once per poll round on the live
    /// ingestion path.
    fn merge_sorted(sorted: &mut Vec<u64>, incoming: Vec<u64>) {
        if sorted.is_empty() {
            *sorted = incoming;
            return;
        }
        if incoming.is_empty() {
            return;
        }
        let mut merged = Vec::with_capacity(sorted.len() + incoming.len());
        let (mut a, mut b) = (
            sorted.iter().copied().peekable(),
            incoming.into_iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&x), Some(&y)) if x <= y => {
                    merged.push(x);
                    a.next();
                }
                (Some(_), Some(_)) => {
                    merged.push(b.next().unwrap());
                }
                (Some(_), None) => {
                    merged.extend(a);
                    break;
                }
                (None, _) => {
                    merged.extend(b);
                    break;
                }
            }
        }
        *sorted = merged;
    }

    /// Fold another report into this one (events and wall time add, latency
    /// samples merge, staying sorted).  [`TuningService::process_pending`]
    /// uses this to absorb its poll rounds.
    pub fn absorb(&mut self, other: BatchReport) {
        self.events += other.events;
        self.wall_seconds += other.wall_seconds;
        Self::merge_sorted(&mut self.latencies_us, other.latencies_us);
        for (tenant, samples) in other.tenant_latencies_us {
            match self
                .tenant_latencies_us
                .iter_mut()
                .find(|(t, _)| *t == tenant)
            {
                Some((_, existing)) => Self::merge_sorted(existing, samples),
                None => self.tenant_latencies_us.push((tenant, samples)),
            }
        }
        self.tenant_latencies_us.sort_by_key(|(t, _)| *t);
    }
}

/// A long-running, multi-tenant online tuning service.
///
/// The service owns a registry of tenants — each a database handle, a shared
/// what-if cost cache, and a fleet of tuning sessions — plus a sharded
/// [`Ingress`] of pending events.  [`TuningService::submit`] (or a cloned
/// [`TuningService::handle`], from any thread, **while a drain is running**)
/// shards events across per-tenant FIFO queues; [`TuningService::poll`]
/// snapshots the queues and executes one scheduling round;
/// [`TuningService::process_pending`] loops rounds until the ingress is
/// empty.
///
/// Determinism contract (see `ARCHITECTURE.md` for the invariants):
///
/// * events of one tenant are processed **in submission order** by every
///   session, so session state evolution is deterministic;
/// * each tenant drains sequentially on one worker, so its cache counters
///   are deterministic and independent of the worker count;
/// * the plan is a pure function of the queue-depth snapshot, so scheduler
///   counters are deterministic too.
pub struct TuningService {
    tenants: Vec<Tenant>,
    ingress: Arc<Ingress>,
    max_workers: usize,
    sched: SchedStats,
    persist: Option<PersistState>,
}

/// Attached durability state (see [`crate::persist`]).
struct PersistState {
    dir: PathBuf,
    wal: persist::Wal,
    /// Sticky: set on the first failed WAL append.  The service keeps
    /// processing (the drained events are already committed to execution —
    /// dropping them would diverge live state), but durability is lost from
    /// this round on and [`TuningService::snapshot`] refuses to write a
    /// manifest that the log cannot back.
    fault: Option<String>,
}

impl Default for TuningService {
    fn default() -> Self {
        Self::new()
    }
}

impl TuningService {
    /// An empty service with worker parallelism matching the host.
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self::with_workers(workers)
    }

    /// An empty service draining with at most `max_workers` worker threads.
    pub fn with_workers(max_workers: usize) -> Self {
        Self {
            tenants: Vec::new(),
            ingress: Arc::new(Ingress::new()),
            max_workers: max_workers.max(1),
            sched: SchedStats::default(),
            persist: None,
        }
    }

    /// Bound the ingress: per-tenant depth limits plus a global budget (see
    /// [`crate::ingress`] for the admission-gate semantics).  The default
    /// is unbounded — the historical behaviour.  Must be called before any
    /// tenant is registered, so every shard sees the limits.
    ///
    /// # Panics
    /// If a tenant is already registered.
    pub fn with_ingress(mut self, config: IngressConfig) -> Self {
        assert!(
            self.tenants.is_empty(),
            "configure the ingress before registering tenants"
        );
        self.ingress = Arc::new(Ingress::with_config(config));
        self
    }

    /// Register a tenant with a shared what-if cache over its database.
    pub fn add_tenant(&mut self, name: impl Into<String>, db: Arc<Database>) -> TenantId {
        self.register(name, TenantEnv::cached(db))
    }

    /// Register a tenant with explicit cache options.
    pub fn add_tenant_with(
        &mut self,
        name: impl Into<String>,
        db: Arc<Database>,
        options: TenantOptions,
    ) -> TenantId {
        self.register(name, TenantEnv::with_options(db, options))
    }

    fn register(&mut self, name: impl Into<String>, env: TenantEnv) -> TenantId {
        let shard = self.ingress.add_shard();
        debug_assert_eq!(shard, self.tenants.len(), "shards mirror the registry");
        let id = TenantId(self.tenants.len() as u32);
        self.tenants.push(Tenant {
            name: name.into(),
            env,
            slots: Vec::new(),
            processed: 0,
        });
        id
    }

    /// Add a tuning session to a tenant with immediate recommendation
    /// adoption.  `build` receives the session's environment (sharing the
    /// tenant's database and cache) and returns the advisor to drive.
    pub fn add_session(
        &mut self,
        tenant: TenantId,
        label: impl Into<String>,
        build: impl FnOnce(TenantEnv) -> Box<dyn IndexAdvisor + Send>,
    ) -> SessionId {
        let t = self.tenant_mut(tenant);
        let advisor = build(t.env.clone());
        let session = TuningSession::new(t.env.clone(), advisor);
        t.slots.push(SessionSlot {
            label: label.into(),
            session,
            fault: None,
        });
        SessionId::new(tenant, t.slots.len() - 1)
    }

    /// The tenant-level environment (shared database + cache).  Useful for
    /// preparing statements or inspecting the cache outside any session.
    pub fn env(&self, tenant: TenantId) -> TenantEnv {
        self.tenant_ref(tenant).env.clone()
    }

    /// Queue an event for its tenant.  Events are processed by the next
    /// [`TuningService::poll`] round, in submission order per tenant.
    /// Takes `&self`: submission never blocks on (or is blocked by) a
    /// running drain — use [`TuningService::handle`] to submit from other
    /// threads.  With a bounded ingress ([`TuningService::with_ingress`])
    /// this parks with backoff until a concurrent drain frees capacity;
    /// the returned [`SubmitOutcome`] says whether it had to wait.  With
    /// the default unbounded ingress it never parks and always returns
    /// [`SubmitOutcome::Accepted`].
    pub fn submit(&self, event: Event) -> SubmitOutcome {
        self.ingress.submit(event)
    }

    /// Offer an event to the admission gate without waiting: queries are
    /// [`SubmitOutcome::Rejected`] when the tenant shard or the global
    /// budget is full, votes are always admitted (see [`crate::ingress`]).
    pub fn try_submit(&self, event: Event) -> SubmitOutcome {
        self.ingress.try_submit(event)
    }

    /// A cloneable, `Send + Sync` submission handle.  Handles stay valid
    /// (and non-blocking) while [`TuningService::poll`] /
    /// [`TuningService::process_pending`] run on another thread — the
    /// async-ingestion path.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle::new(self.ingress.clone())
    }

    /// Number of queued, not-yet-processed events across all tenants.
    pub fn pending(&self) -> usize {
        self.ingress.pending()
    }

    /// Ingestion counters (submitted / pending / drained / shed / deferred
    /// / rejected, plus the global pending high-water mark).
    pub fn ingress_stats(&self) -> IngressStats {
        self.ingress.stats()
    }

    /// One tenant's ingestion counters (see [`Ingress::tenant_stats`]).
    pub fn tenant_ingress_stats(&self, tenant: TenantId) -> IngressStats {
        self.ingress.tenant_stats(tenant)
    }

    /// Cumulative scheduler counters (rounds, session-runs, queue depths,
    /// load imbalance) — deterministic whenever submission order is.
    pub fn sched_stats(&self) -> SchedStats {
        self.sched
    }

    /// Execute **one** scheduling round: snapshot every tenant queue, place
    /// each busy tenant whole on a worker bin ([`crate::scheduler::plan`]),
    /// drain the bins on a `std::thread::scope` worker pool, and return the
    /// round's wall-clock report.  Events submitted while the round runs
    /// (through [`TuningService::handle`]) are left for the next round.
    pub fn poll(&mut self) -> BatchReport {
        let runs = self.ingress.drain_all();
        let total: u64 = runs.iter().map(|r| r.len() as u64).sum();
        if total == 0 {
            return BatchReport::default();
        }
        // Durability ordering: the round is appended to the WAL *before*
        // any of its events execute, so every effect visible in
        // snapshot-eligible state is backed by the log.  (During
        // `restore`'s replay no persistence is attached yet, so replayed
        // rounds are not re-logged.)
        self.log_round(&runs);
        let start = Instant::now();

        let loads: Vec<TenantLoad> = runs
            .iter()
            .enumerate()
            .filter(|(_, run)| !run.is_empty())
            .map(|(t, run)| TenantLoad {
                tenant: t,
                depth: run.len(),
                sessions: self.tenants[t].slots.len(),
            })
            .collect();
        let max_depth = loads.iter().map(|l| l.depth as u64).max().unwrap_or(0);
        let plan = scheduler::plan(&loads, self.max_workers);
        self.sched.absorb_round(&plan, max_depth);

        let mut worker_of: Vec<Option<usize>> = vec![None; self.tenants.len()];
        for &(t, worker) in &plan.placements {
            worker_of[t] = Some(worker);
        }
        // One bin per worker, holding the whole tenants it drains.
        let mut bins: Vec<Vec<_>> = (0..plan.workers_used).map(|_| Vec::new()).collect();
        for ((t, tenant), run) in self.tenants.iter_mut().enumerate().zip(runs) {
            tenant.processed += run.len() as u64;
            if let Some(worker) = worker_of[t] {
                bins[worker].push((t, &mut tenant.slots[..], run));
            }
        }

        let results: Vec<(usize, Vec<u64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = bins
                .into_iter()
                .map(|bin| {
                    scope.spawn(move || {
                        bin.into_iter()
                            .map(|(t, slots, events)| (t, drain_run(slots, &events)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("service worker panicked"))
                .collect()
        });

        let mut all = Vec::new();
        let mut per_tenant: Vec<Vec<u64>> = vec![Vec::new(); self.tenants.len()];
        for (t, latencies) in results {
            all.extend_from_slice(&latencies);
            per_tenant[t].extend(latencies);
        }
        all.sort_unstable();
        let tenant_latencies_us = per_tenant
            .into_iter()
            .enumerate()
            .filter(|(_, samples)| !samples.is_empty())
            .map(|(t, mut samples)| {
                samples.sort_unstable();
                (TenantId(t as u32), samples)
            })
            .collect();
        BatchReport {
            events: total,
            wall_seconds: start.elapsed().as_secs_f64(),
            latencies_us: all,
            tenant_latencies_us,
        }
    }

    /// Drain the ingress completely: loop [`TuningService::poll`] rounds
    /// until no event is pending, absorbing each round's report.  A thin
    /// wrapper over `poll` — when all events were submitted before the call
    /// (the deterministic replay shape) this is exactly one round and the
    /// results are bit-identical to the historical stop-the-world drain.
    pub fn process_pending(&mut self) -> BatchReport {
        let mut report = BatchReport::default();
        loop {
            let round = self.poll();
            if round.events == 0 {
                return report;
            }
            report.absorb(round);
        }
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Number of sessions across all tenants.
    pub fn session_count(&self) -> usize {
        self.tenants.iter().map(|t| t.slots.len()).sum()
    }

    /// All session ids, grouped by tenant in registration order.
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.tenants
            .iter()
            .enumerate()
            .flat_map(|(t, tenant)| {
                (0..tenant.slots.len()).map(move |i| SessionId::new(TenantId(t as u32), i))
            })
            .collect()
    }

    /// A tenant's display name.
    pub fn tenant_name(&self, tenant: TenantId) -> &str {
        &self.tenant_ref(tenant).name
    }

    /// Events processed so far for a tenant.
    pub fn tenant_processed(&self, tenant: TenantId) -> u64 {
        self.tenant_ref(tenant).processed
    }

    /// Counters of a tenant's shared what-if cache (zeros when the tenant
    /// was registered uncached).
    pub fn cache_stats(&self, tenant: TenantId) -> WhatIfStats {
        self.tenant_ref(tenant).env.cache_stats()
    }

    /// Cache counters aggregated over all tenants.
    pub fn aggregate_cache_stats(&self) -> WhatIfStats {
        self.tenants.iter().fold(WhatIfStats::default(), |acc, t| {
            acc.merge(&t.env.cache_stats())
        })
    }

    /// A session's label.
    pub fn session_label(&self, id: SessionId) -> &str {
        &self.slot_ref(id).label
    }

    /// A session: its accounting, cost series and advisor (name and
    /// overhead counters).
    pub fn session(&self, id: SessionId) -> &ServiceSession {
        &self.slot_ref(id).session
    }

    /// A session's aggregate accounting.
    pub fn session_stats(&self, id: SessionId) -> SessionStats {
        self.slot_ref(id).session.stats()
    }

    /// A session's current recommendation.
    pub fn recommendation(&self, id: SessionId) -> IndexSet {
        self.slot_ref(id).session.recommendation()
    }

    /// A session's currently materialized configuration.
    pub fn materialized(&self, id: SessionId) -> IndexSet {
        self.slot_ref(id).session.materialized().clone()
    }

    /// A session's cumulative total-work series (one entry per query event).
    pub fn cost_series(&self, id: SessionId) -> &[f64] {
        self.slot_ref(id).session.cost_series()
    }

    /// The panic message of a quarantined session, if its advisor panicked
    /// during a drain.  A faulted session is skipped by every subsequent
    /// round; its accounting is frozen at the last completed call.  Healthy
    /// sessions — including other sessions of the same tenant — are
    /// unaffected.
    pub fn session_fault(&self, id: SessionId) -> Option<&str> {
        self.slot_ref(id).fault.as_deref()
    }

    /// All currently quarantined sessions (empty in a healthy service).
    pub fn faulted_sessions(&self) -> Vec<SessionId> {
        self.tenants
            .iter()
            .enumerate()
            .flat_map(|(t, tenant)| {
                tenant
                    .slots
                    .iter()
                    .enumerate()
                    .filter_map(move |(i, slot)| {
                        slot.fault
                            .as_ref()
                            .map(|_| SessionId::new(TenantId(t as u32), i))
                    })
            })
            .collect()
    }

    // -----------------------------------------------------------------
    // Durability (see `crate::persist` for formats and invariants)
    // -----------------------------------------------------------------

    /// Attach persistence to a fresh service: every subsequent
    /// [`TuningService::poll`] round is appended to `dir`'s event WAL
    /// before it executes, and [`TuningService::snapshot`] writes
    /// checkpoint manifests there.  The directory is created if missing.
    ///
    /// # Errors
    /// [`PersistError::Config`] if `dir` already holds logged rounds —
    /// silently appending to another incarnation's log would interleave two
    /// histories; resume a previous incarnation with
    /// [`TuningService::restore`] instead.
    pub fn with_persistence(mut self, dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| PersistError::Io {
            op: format!("create persistence directory {}", dir.display()),
            source: e,
        })?;
        let (wal, scan) = persist::Wal::open_for_append(&dir)?;
        if !scan.records.is_empty() {
            return Err(PersistError::Config(format!(
                "{} already holds {} logged round(s) — resume it with TuningService::restore",
                dir.display(),
                scan.records.len()
            )));
        }
        self.persist = Some(PersistState {
            dir,
            wal,
            fault: None,
        });
        Ok(self)
    }

    /// Rounds durably logged in the attached WAL (0 without persistence).
    pub fn wal_rounds(&self) -> u64 {
        self.persist.as_ref().map(|p| p.wal.rounds()).unwrap_or(0)
    }

    /// The sticky durability fault, if a WAL append has failed.  The
    /// service keeps executing after an append failure (its drained events
    /// are already committed to execution), but the log is incomplete from
    /// that round on; callers that require durability must check this.
    pub fn persist_fault(&self) -> Option<&str> {
        self.persist.as_ref().and_then(|p| p.fault.as_deref())
    }

    fn log_round(&mut self, runs: &[Vec<Event>]) {
        let Some(state) = self.persist.as_mut() else {
            return;
        };
        if state.fault.is_some() {
            return;
        }
        match persist::encode_round(state.wal.rounds(), runs) {
            Ok(record) => {
                if let Err(e) = state.wal.append(&record) {
                    state.fault = Some(e.to_string());
                }
            }
            Err(e) => state.fault = Some(e.to_string()),
        }
    }

    /// Write a checkpoint manifest for the current state: the WAL round
    /// count it reflects, a configuration echo, full cache exports,
    /// per-session digests, and the admission-ledger counters replay cannot
    /// re-derive.  The file is written to a temp name and atomically
    /// renamed over `snapshot.json`, so readers only ever see a complete
    /// manifest.  Queued-but-undrained events are *not* captured — on a
    /// crash they are lost, which is the documented ingestion contract.
    ///
    /// # Errors
    /// [`PersistError::Config`] without persistence or after a sticky WAL
    /// fault (a manifest claiming rounds the log cannot back would be
    /// corruption by construction); I/O and codec errors pass through.
    pub fn snapshot(&self) -> Result<(), PersistError> {
        let Some(state) = self.persist.as_ref() else {
            return Err(PersistError::Config(
                "persistence is not attached (use with_persistence or restore)".to_string(),
            ));
        };
        if let Some(fault) = &state.fault {
            return Err(PersistError::Config(format!(
                "refusing to snapshot after a WAL fault: {fault}"
            )));
        }
        self.build_snapshot(state.wal.rounds()).save(&state.dir)
    }

    fn build_snapshot(&self, rounds: u64) -> Snapshot {
        Snapshot {
            rounds,
            peak_pending: self.ingress.stats().peak_pending,
            sched_rounds: self.sched.rounds,
            sched_session_runs: self.sched.session_runs,
            tenants: self
                .tenants
                .iter()
                .enumerate()
                .map(|(t, tenant)| {
                    let stats = self.ingress.tenant_stats(TenantId(t as u32));
                    TenantSnapshot {
                        name: tenant.name.clone(),
                        shed: stats.shed,
                        deferred: stats.deferred,
                        rejected: stats.rejected,
                        cache: tenant.env.shared_cache().map(|c| c.export()),
                        sessions: tenant.slots.iter().map(session_digest_of).collect(),
                    }
                })
                .collect(),
        }
    }

    /// Recover a crashed incarnation's state from `dir` into this freshly
    /// assembled service, then attach persistence so new rounds append
    /// after the recovered history.  The host must have registered the
    /// same tenants, cache shapes and sessions (same builder closures) as
    /// the original — the snapshot's configuration echo is checked before
    /// any replay.  The
    /// worker count is not part of the echo: it changes no restored state,
    /// so a snapshot restores on a host of any size.
    ///
    /// Recovery replays the **entire WAL** round-by-round through the
    /// normal execution path (advisor state is not serializable; replay
    /// *is* the restore mechanism, and bit-determinism makes it exact for
    /// every session and cache).  A torn final record is discarded and
    /// physically truncated — never fatal.  When a snapshot manifest is
    /// present its digests are verified at the checkpoint round
    /// ([`PersistError::Divergence`] on any mismatch) and its
    /// non-replayable ledger counters are seeded afterwards: the shed,
    /// deferred and rejected counts and `peak_pending` come back as of the
    /// last snapshot, so a bounded ingress loses whatever its admission
    /// gate counted after it (see [`crate::persist`]).
    ///
    /// # Errors
    /// [`PersistError::Config`] when the service already processed events,
    /// already has persistence, or does not match the configuration echo;
    /// [`PersistError::Corrupt`] for structural damage beyond a torn tail
    /// (including a snapshot claiming more rounds than the WAL holds);
    /// [`PersistError::Divergence`] when replay does not reconverge.
    pub fn restore(&mut self, dir: impl AsRef<Path>) -> Result<RestoreReport, PersistError> {
        let dir = dir.as_ref().to_path_buf();
        if self.persist.is_some() {
            return Err(PersistError::Config(
                "persistence already attached — restore requires a fresh service".to_string(),
            ));
        }
        if self.tenants.iter().any(|t| t.processed > 0) {
            return Err(PersistError::Config(
                "restore requires a freshly assembled service (no processed events)".to_string(),
            ));
        }
        let (wal, scan) = persist::Wal::open_for_append(&dir)?;
        let torn_bytes_discarded = scan.file_len.saturating_sub(scan.valid_len);
        let snapshot = Snapshot::load(&dir)?;
        if let Some(snap) = &snapshot {
            if snap.rounds > scan.records.len() as u64 {
                return Err(PersistError::Corrupt(format!(
                    "snapshot reflects {} round(s) but the WAL holds only {} — the log lost \
                     committed history",
                    snap.rounds,
                    scan.records.len()
                )));
            }
            self.check_config_echo(snap)?;
            if snap.rounds == 0 {
                self.verify_snapshot(snap)?;
            }
        }
        let mut events_replayed = 0u64;
        for record in &scan.records {
            for (tenant, events) in &record.runs {
                let t = self.tenants.get(*tenant as usize).ok_or_else(|| {
                    PersistError::Config(format!(
                        "WAL addresses tenant {tenant} but only {} registered",
                        self.tenants.len()
                    ))
                })?;
                let tid = TenantId(*tenant);
                let decoded = decode_events(t.env.database(), tid, events)?;
                events_replayed += decoded.len() as u64;
                self.ingress.inject_replay(tid, decoded);
            }
            let _ = self.poll();
            if let Some(snap) = &snapshot {
                if snap.rounds == record.round + 1 {
                    self.verify_snapshot(snap)?;
                }
            }
        }
        if let Some(snap) = &snapshot {
            for (t, ts) in snap.tenants.iter().enumerate() {
                self.ingress.seed_replay_ledger(
                    TenantId(t as u32),
                    ts.shed,
                    ts.deferred,
                    ts.rejected,
                );
            }
            self.ingress.seed_peak_pending(snap.peak_pending);
        }
        self.persist = Some(PersistState {
            dir,
            wal,
            fault: None,
        });
        Ok(RestoreReport {
            wal_rounds: scan.records.len() as u64,
            events_replayed,
            snapshot_rounds: snapshot.map(|s| s.rounds),
            torn_bytes_discarded,
        })
    }

    /// Reject a restore into a service shaped differently from the one
    /// that wrote the snapshot — replaying someone else's log would
    /// produce silently wrong state, so shape mismatches are hard errors.
    fn check_config_echo(&self, snap: &Snapshot) -> Result<(), PersistError> {
        let mismatch = |what: String| Err(PersistError::Config(what));
        if snap.tenants.len() != self.tenants.len() {
            return mismatch(format!(
                "snapshot had {} tenant(s), this service has {}",
                snap.tenants.len(),
                self.tenants.len()
            ));
        }
        for (t, (ts, tenant)) in snap.tenants.iter().zip(&self.tenants).enumerate() {
            if ts.name != tenant.name {
                return mismatch(format!(
                    "tenant {t} was named {:?}, this service has {:?}",
                    ts.name, tenant.name
                ));
            }
            // A cache of another shape replays to other hit, miss and
            // eviction counters: refuse before replaying, not after.
            let live_cache = tenant
                .env
                .shared_cache()
                .map(|c| c.config().capacity as u64);
            let snap_cache = ts.cache.as_ref().map(|c| c.capacity);
            if live_cache != snap_cache {
                return mismatch(format!(
                    "tenant {t} had {}, this service has {}",
                    cache_shape(snap_cache),
                    cache_shape(live_cache)
                ));
            }
            if ts.sessions.len() != tenant.slots.len() {
                return mismatch(format!(
                    "tenant {t} had {} session(s), this service has {}",
                    ts.sessions.len(),
                    tenant.slots.len()
                ));
            }
            for (s, (sd, slot)) in ts.sessions.iter().zip(&tenant.slots).enumerate() {
                if sd.label != slot.label {
                    return mismatch(format!(
                        "session {t}/{s} was labelled {:?}, this service has {:?}",
                        sd.label, slot.label
                    ));
                }
            }
        }
        Ok(())
    }

    /// Compare the replayed state against the snapshot's digests at the
    /// checkpoint round: per-session accounting and every cache export are
    /// bit-checked, as is the scheduler ledger.
    fn verify_snapshot(&self, snap: &Snapshot) -> Result<(), PersistError> {
        for (t, (ts, tenant)) in snap.tenants.iter().zip(&self.tenants).enumerate() {
            for (s, (expected, slot)) in ts.sessions.iter().zip(&tenant.slots).enumerate() {
                let actual = session_digest_of(slot);
                if actual != *expected {
                    return Err(PersistError::Divergence(format!(
                        "session {t}/{s} ({}) replayed to a different state: \
                         expected {expected:?}, got {actual:?}",
                        slot.label
                    )));
                }
            }
            let live_cache = tenant.env.shared_cache().map(|c| c.export().digest());
            let snap_cache = ts.cache.as_ref().map(|c| c.digest());
            if live_cache != snap_cache {
                return Err(PersistError::Divergence(format!(
                    "tenant {t} cache digest mismatch: snapshot {snap_cache:?}, \
                     replayed {live_cache:?}"
                )));
            }
        }
        if (self.sched.rounds, self.sched.session_runs)
            != (snap.sched_rounds, snap.sched_session_runs)
        {
            return Err(PersistError::Divergence(format!(
                "scheduler ledger mismatch: snapshot ({}, {}), replayed ({}, {})",
                snap.sched_rounds,
                snap.sched_session_runs,
                self.sched.rounds,
                self.sched.session_runs
            )));
        }
        Ok(())
    }

    fn tenant_ref(&self, tenant: TenantId) -> &Tenant {
        self.tenants
            .get(tenant.0 as usize)
            .unwrap_or_else(|| panic!("unknown tenant {tenant:?}"))
    }

    fn tenant_mut(&mut self, tenant: TenantId) -> &mut Tenant {
        self.tenants
            .get_mut(tenant.0 as usize)
            .unwrap_or_else(|| panic!("unknown tenant {tenant:?}"))
    }

    fn slot_ref(&self, id: SessionId) -> &SessionSlot {
        self.tenant_ref(id.tenant)
            .slots
            .get(id.index)
            .unwrap_or_else(|| panic!("unknown session {id:?}"))
    }
}

/// Describe a cache shape from its export capacity (`None` = no cache,
/// 0 = unbounded) for configuration-echo errors.
fn cache_shape(capacity: Option<u64>) -> String {
    match capacity {
        None => "no cache".to_string(),
        Some(0) => "an unbounded cache".to_string(),
        Some(n) => format!("a capacity-{n} cache"),
    }
}

/// Digest one session's observable state for a snapshot manifest: float
/// accounting as raw IEEE-754 bits, index sets as id lists, the cost series
/// folded to an FNV-64.  Restore compares these for bit-identity.
fn session_digest_of(slot: &SessionSlot) -> SessionDigest {
    let stats = slot.session.stats();
    let mut series = Fnv64::new();
    for &v in slot.session.cost_series() {
        series.write_u64(v.to_bits());
    }
    SessionDigest {
        label: slot.label.clone(),
        advisor: slot.session.advisor().name(),
        queries: stats.queries,
        votes: stats.votes,
        total_work_bits: stats.total_work.to_bits(),
        query_cost_bits: stats.query_cost.to_bits(),
        transition_cost_bits: stats.transition_cost.to_bits(),
        transitions: stats.transitions,
        recommendation: slot.session.recommendation().iter().map(|i| i.0).collect(),
        materialized: slot.session.materialized().iter().map(|i| i.0).collect(),
        series_len: slot.session.cost_series().len() as u64,
        series_digest: series.finish(),
    }
}

/// Rehydrate one logged run: queries re-bind their SQL against the tenant
/// database (binding is deterministic, so fingerprints and costs are
/// identical to the original), votes rebuild their index sets.
fn decode_events(
    db: &Database,
    tenant: TenantId,
    records: &[persist::EventRecord],
) -> Result<Vec<Event>, PersistError> {
    records
        .iter()
        .map(|record| match record {
            persist::EventRecord::Query { sql } => db
                .parse(sql)
                .map(|stmt| Event::query(tenant, Arc::new(stmt)))
                .map_err(|e| {
                    PersistError::Corrupt(format!(
                        "logged statement no longer binds against tenant {}: {e} ({sql:?})",
                        tenant.0
                    ))
                }),
            persist::EventRecord::Vote { approve, reject } => Ok(Event::vote(
                tenant,
                approve.iter().map(|&id| IndexId(id)).collect(),
                reject.iter().map(|&id| IndexId(id)).collect(),
            )),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdb::catalog::CatalogBuilder;
    use simdb::query::Statement;
    use simdb::types::DataType;
    use wfit_core::{Wfit, WfitConfig};

    fn db() -> Arc<Database> {
        let mut b = CatalogBuilder::new();
        b.table("t")
            .rows(1_000_000.0)
            .column("a", DataType::Integer, 100_000.0)
            .column("b", DataType::Integer, 1_000.0)
            .finish();
        Arc::new(Database::new(b.build()))
    }

    fn wfit_builder(env: TenantEnv) -> Box<dyn IndexAdvisor + Send> {
        Box::new(Wfit::new(env, WfitConfig::default()))
    }

    fn seeded_service(
        tenants: usize,
        sessions_per_tenant: usize,
    ) -> (TuningService, Vec<TenantId>) {
        let mut svc = TuningService::with_workers(4);
        let mut ids = Vec::new();
        for t in 0..tenants {
            let id = svc.add_tenant(format!("tenant-{t}"), db());
            for s in 0..sessions_per_tenant {
                svc.add_session(id, format!("t{t}/s{s}"), wfit_builder);
            }
            ids.push(id);
        }
        (svc, ids)
    }

    #[test]
    fn events_fan_out_to_every_session_of_their_tenant() {
        let (mut svc, ids) = seeded_service(2, 2);
        let q = Arc::new(
            svc.env(ids[0])
                .database()
                .parse("SELECT b FROM t WHERE a = 7")
                .unwrap(),
        );
        for _ in 0..5 {
            svc.submit(Event::query(ids[0], q.clone()));
        }
        assert_eq!(svc.pending(), 5);
        let batch = svc.process_pending();
        assert_eq!(batch.events, 5);
        assert_eq!(svc.pending(), 0);
        assert_eq!(svc.tenant_processed(ids[0]), 5);
        assert_eq!(svc.tenant_processed(ids[1]), 0);
        // Both sessions of tenant 0 saw all five queries; tenant 1 none.
        assert_eq!(svc.session_stats(SessionId::new(ids[0], 0)).queries, 5);
        assert_eq!(svc.session_stats(SessionId::new(ids[0], 1)).queries, 5);
        assert_eq!(svc.session_stats(SessionId::new(ids[1], 0)).queries, 0);
        assert_eq!(batch.latencies_us.len(), 5);
        assert!(batch.events_per_sec() > 0.0);
        assert!(batch.p50_us() <= batch.p99_us());
        // Per-tenant latency breakout: only the busy tenant has samples.
        assert_eq!(batch.tenant_latencies_us.len(), 1);
        assert_eq!(batch.tenant_latencies_us[0].0, ids[0]);
        assert!(batch.tenant_latency_percentile_us(ids[0], 0.50) <= batch.tenant_p99_us(ids[0]));
        assert_eq!(batch.tenant_p99_us(ids[1]), 0);
        // Scheduler counters: one round, two session-runs.
        let sched = svc.sched_stats();
        assert_eq!(sched.rounds, 1);
        assert_eq!(sched.session_runs, 2);
        assert_eq!(sched.max_queue_depth, 5);
    }

    #[test]
    fn batch_reports_absorb_keeps_latencies_sorted_and_merged() {
        let mut acc = BatchReport::default();
        acc.absorb(BatchReport {
            events: 3,
            wall_seconds: 0.5,
            latencies_us: vec![10, 30, 50],
            tenant_latencies_us: vec![(TenantId(1), vec![10, 30, 50])],
        });
        acc.absorb(BatchReport {
            events: 2,
            wall_seconds: 0.25,
            latencies_us: vec![20, 40],
            tenant_latencies_us: vec![(TenantId(0), vec![20, 40])],
        });
        acc.absorb(BatchReport::default());
        assert_eq!(acc.events, 5);
        assert!((acc.wall_seconds - 0.75).abs() < 1e-12);
        assert_eq!(acc.latencies_us, vec![10, 20, 30, 40, 50]);
        // Per-tenant samples stay per tenant, listed in tenant order.
        assert_eq!(
            acc.tenant_latencies_us,
            vec![(TenantId(0), vec![20, 40]), (TenantId(1), vec![10, 30, 50])]
        );
        assert_eq!(acc.tenant_p99_us(TenantId(1)), 50);

        // Overlapping tenants merge their runs, staying sorted.
        acc.absorb(BatchReport {
            events: 2,
            wall_seconds: 0.0,
            latencies_us: vec![5, 35],
            tenant_latencies_us: vec![(TenantId(1), vec![5, 35])],
        });
        assert_eq!(acc.latencies_us, vec![5, 10, 20, 30, 35, 40, 50]);
        assert_eq!(
            acc.tenant_latencies_us[1],
            (TenantId(1), vec![5, 10, 30, 35, 50])
        );
    }

    #[test]
    fn sessions_of_a_tenant_share_the_what_if_cache() {
        let (mut svc, ids) = seeded_service(1, 2);
        let q = Arc::new(
            svc.env(ids[0])
                .database()
                .parse("SELECT b FROM t WHERE a = 9")
                .unwrap(),
        );
        svc.submit(Event::query(ids[0], q));
        svc.process_pending();
        let stats = svc.cache_stats(ids[0]);
        // The second session's identical analysis hits what the first one
        // computed: at least half of all requests are hits.
        assert!(stats.requests > 0);
        assert!(
            stats.cache_hits * 2 >= stats.requests,
            "expected cross-session hits, stats = {stats:?}"
        );
        // Both sessions' advisors issued the same number of what-if calls.
        // The cache served those plus each session's charge of the one
        // statement.
        let calls = |s: usize| {
            svc.session(SessionId::new(ids[0], s))
                .advisor()
                .whatif_calls()
        };
        assert_eq!(calls(0), calls(1));
        assert_eq!(stats.requests, calls(0) + calls(1) + 2);
    }

    #[test]
    fn votes_reach_only_their_tenant() {
        let (mut svc, ids) = seeded_service(2, 1);
        let env = svc.env(ids[0]);
        let idx = env.database().define_index("t", &["a"]).unwrap();
        svc.submit(Event::vote(
            ids[0],
            IndexSet::single(idx),
            IndexSet::empty(),
        ));
        svc.process_pending();
        assert_eq!(svc.session_stats(SessionId::new(ids[0], 0)).votes, 1);
        assert_eq!(svc.session_stats(SessionId::new(ids[1], 0)).votes, 0);
        assert!(svc.recommendation(SessionId::new(ids[0], 0)).contains(idx));
        assert!(svc.materialized(SessionId::new(ids[0], 0)).is_empty());
    }

    /// Async ingestion: events submitted *between* poll rounds (as a live
    /// producer would through a [`ServiceHandle`]) are processed by the next
    /// round, and the final state equals a one-shot drain of the same
    /// per-tenant stream.
    #[test]
    fn submissions_between_polls_match_a_single_drain() {
        let queries = |svc: &TuningService, id: TenantId| -> Vec<Arc<Statement>> {
            [
                "SELECT b FROM t WHERE a = 1",
                "SELECT a FROM t WHERE b = 2",
                "SELECT b FROM t WHERE a < 5",
            ]
            .iter()
            .map(|sql| Arc::new(svc.env(id).database().parse(sql).unwrap()))
            .collect()
        };

        // Incremental: one poll round per statement.
        let (mut incremental, ids) = seeded_service(1, 2);
        let handle = incremental.handle();
        for q in queries(&incremental, ids[0]) {
            handle.submit(Event::query(ids[0], q));
            let round = incremental.poll();
            assert_eq!(round.events, 1);
        }
        assert_eq!(incremental.sched_stats().rounds, 3);

        // One-shot: everything queued, then a single drain.
        let (mut oneshot, oids) = seeded_service(1, 2);
        for q in queries(&oneshot, oids[0]) {
            oneshot.submit(Event::query(oids[0], q));
        }
        oneshot.process_pending();
        assert_eq!(oneshot.sched_stats().rounds, 1);

        for (a, b) in incremental.session_ids().iter().zip(oneshot.session_ids()) {
            let sa = incremental.session_stats(*a);
            let sb = oneshot.session_stats(b);
            assert_eq!(sa.queries, sb.queries);
            assert_eq!(sa.total_work.to_bits(), sb.total_work.to_bits());
            assert_eq!(
                incremental
                    .cost_series(*a)
                    .iter()
                    .map(|c| c.to_bits())
                    .collect::<Vec<_>>(),
                oneshot
                    .cost_series(b)
                    .iter()
                    .map(|c| c.to_bits())
                    .collect::<Vec<_>>()
            );
        }
    }

    /// A session registered after a drain sees only the events submitted
    /// after it joined: it ends in exactly the state of the one session of
    /// a fresh service that received only those events.
    #[test]
    fn late_session_matches_a_fresh_service_fed_only_later_events() {
        let database = db();
        let idx = database.define_index("t", &["a"]).unwrap();
        // Structurally distinct statements (fingerprints hash predicate
        // shape, not literals), so the drains exercise several cache keys.
        let queries: Vec<_> = [
            "SELECT b FROM t WHERE a = 1",
            "SELECT a FROM t WHERE b = 2",
            "SELECT b FROM t WHERE a < 5",
            "SELECT a FROM t WHERE b < 9",
        ]
        .iter()
        .map(|sql| Arc::new(database.parse(sql).unwrap()))
        .collect();
        // Both services share the database, so index ids agree.
        let service = || {
            let mut svc = TuningService::with_workers(2);
            let id = svc.add_tenant_with(
                "t",
                database.clone(),
                TenantOptions::default().with_cache_capacity(6),
            );
            (svc, id)
        };
        let submit_later_events = |svc: &TuningService, id: TenantId| {
            svc.submit(Event::vote(id, IndexSet::empty(), IndexSet::single(idx)));
            for q in &queries {
                svc.submit(Event::query(id, q.clone()));
            }
        };

        // Two sessions drain an interleaved query/vote history, then a late
        // session joins.
        let (mut veteran, id) = service();
        veteran.add_session(id, "wfit-a", wfit_builder);
        veteran.add_session(id, "wfit-b", wfit_builder);
        for (round, q) in queries.iter().enumerate() {
            veteran.submit(Event::query(id, q.clone()));
            veteran.submit(Event::query(id, queries[(round + 1) % 4].clone()));
            if round % 2 == 1 {
                veteran.submit(Event::vote(id, IndexSet::single(idx), IndexSet::empty()));
            }
        }
        veteran.process_pending();
        let late = veteran.add_session(id, "late", wfit_builder);
        submit_later_events(&veteran, id);
        veteran.process_pending();

        let (mut fresh, fid) = service();
        let only = fresh.add_session(fid, "late", wfit_builder);
        submit_later_events(&fresh, fid);
        fresh.process_pending();

        let series_bits = |svc: &TuningService, sid: SessionId| -> Vec<u64> {
            svc.cost_series(sid).iter().map(|c| c.to_bits()).collect()
        };
        assert_eq!(series_bits(&veteran, late), series_bits(&fresh, only));
        assert_eq!(veteran.session_stats(late).votes, 1);
        assert_eq!(
            veteran.session_stats(late).votes,
            fresh.session_stats(only).votes
        );
        assert_eq!(veteran.recommendation(late), fresh.recommendation(only));
    }

    #[test]
    fn parallel_processing_is_deterministic_across_worker_counts() {
        let run = |workers: usize| {
            let mut svc = TuningService::with_workers(workers);
            let mut events = Vec::new();
            let mut tenants = Vec::new();
            for t in 0..3 {
                let handle = db();
                let id = svc.add_tenant(format!("tenant-{t}"), handle.clone());
                svc.add_session(id, "wfit", wfit_builder);
                svc.add_session(id, "wfit-2", wfit_builder);
                let q = Arc::new(
                    handle
                        .parse(&format!("SELECT b FROM t WHERE a = {}", t + 1))
                        .unwrap(),
                );
                for _ in 0..4 {
                    events.push(Event::query(id, q.clone()));
                }
                tenants.push(id);
            }
            // Interleave tenants round-robin like a real event stream.
            for round in 0..4 {
                for &t in &tenants {
                    svc.submit(events[t.0 as usize * 4 + round].clone());
                }
            }
            svc.process_pending();
            let mut fingerprint = Vec::new();
            for id in svc.session_ids() {
                let stats = svc.session_stats(id);
                fingerprint.push((stats.queries, stats.total_work.to_bits()));
                fingerprint.push((
                    svc.cache_stats(id.tenant).cache_hits,
                    svc.cache_stats(id.tenant).requests,
                ));
            }
            fingerprint
        };
        assert_eq!(run(1), run(4));
        assert_eq!(run(4), run(16));
    }

    struct PanickyAdvisor {
        seen: u64,
        panic_at: u64,
    }

    impl IndexAdvisor for PanickyAdvisor {
        fn analyze_query(&mut self, _stmt: &Statement) {
            self.seen += 1;
            if self.seen == self.panic_at {
                panic!("injected advisor failure at query {}", self.seen);
            }
        }
        fn recommend(&self) -> IndexSet {
            IndexSet::empty()
        }
        fn name(&self) -> String {
            "panicky".into()
        }
    }

    /// Regression: an advisor panic inside a drain used to unwind across
    /// the worker scope and abort `poll` through `join().expect`, wedging
    /// every subsequent round.  The panic is now caught at the session
    /// boundary: the faulted session is quarantined, its tenant's other
    /// sessions and all later rounds keep working.
    #[test]
    fn advisor_panic_quarantines_the_session_not_the_daemon() {
        let mut svc = TuningService::with_workers(2);
        let id = svc.add_tenant("acme", db());
        let healthy = svc.add_session(id, "wfit", wfit_builder);
        let doomed = svc.add_session(id, "panicky", |_env| {
            Box::new(PanickyAdvisor {
                seen: 0,
                panic_at: 2,
            })
        });
        let database = svc.env(id).database().clone();
        let q = move |k: u32| {
            Arc::new(
                database
                    .parse(&format!("SELECT b FROM t WHERE a = {k}"))
                    .unwrap(),
            )
        };
        for k in 0..4 {
            svc.submit(Event::query(id, q(k)));
        }
        let batch = svc.process_pending();
        assert_eq!(batch.events, 4, "the round completes despite the panic");
        assert_eq!(svc.session_stats(healthy).queries, 4);
        assert_eq!(svc.faulted_sessions(), vec![doomed]);
        assert!(svc
            .session_fault(doomed)
            .unwrap()
            .contains("injected advisor failure"));
        assert!(svc.session_fault(healthy).is_none());
        let frozen = svc.session_stats(doomed).queries;

        // Later rounds still drain; the quarantined session is skipped and
        // its accounting stays frozen.
        for k in 0..2 {
            svc.submit(Event::query(id, q(k)));
        }
        svc.submit(Event::vote(id, IndexSet::empty(), IndexSet::empty()));
        let batch = svc.process_pending();
        assert_eq!(batch.events, 3);
        assert_eq!(svc.session_stats(healthy).queries, 6);
        assert_eq!(svc.session_stats(healthy).votes, 1);
        assert_eq!(svc.session_stats(doomed).queries, frozen);
        assert_eq!(svc.session_stats(doomed).votes, 0);
    }

    fn persist_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wfit-daemon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The host-side assembly closure a persisted deployment re-runs after
    /// a crash: same database shape, same interned index, same sessions.
    fn restorable_service() -> (TuningService, TenantId, IndexId) {
        let mut svc = TuningService::with_workers(2);
        let database = db();
        let idx = database.define_index("t", &["a"]).unwrap();
        let id = svc.add_tenant("acme", database);
        svc.add_session(id, "wfit-0", wfit_builder);
        svc.add_session(id, "wfit-1", wfit_builder);
        (svc, id, idx)
    }

    type Fingerprint = Vec<(u64, u64, u64, Vec<u32>, Vec<u64>)>;

    fn state_fingerprint(svc: &TuningService) -> Fingerprint {
        svc.session_ids()
            .iter()
            .map(|&sid| {
                let stats = svc.session_stats(sid);
                (
                    stats.queries,
                    stats.votes,
                    stats.total_work.to_bits(),
                    svc.recommendation(sid).iter().map(|i| i.0).collect(),
                    svc.cost_series(sid).iter().map(|c| c.to_bits()).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn kill_and_restore_replays_to_bit_identical_state() {
        let dir = persist_dir("restore");
        let (svc, id, idx) = restorable_service();
        let mut svc = svc.with_persistence(&dir).unwrap();
        let q =
            |svc: &TuningService, sql: &str| Arc::new(svc.env(id).database().parse(sql).unwrap());
        // Round 1: two queries.  Round 2: a vote plus a query.  Snapshot.
        // Round 3: a WAL tail past the checkpoint.
        svc.submit(Event::query(id, q(&svc, "SELECT b FROM t WHERE a = 1")));
        svc.submit(Event::query(id, q(&svc, "SELECT a FROM t WHERE b = 2")));
        svc.poll();
        svc.submit(Event::vote(id, IndexSet::single(idx), IndexSet::empty()));
        svc.submit(Event::query(id, q(&svc, "SELECT b FROM t WHERE a < 500")));
        svc.poll();
        svc.snapshot().unwrap();
        svc.submit(Event::query(id, q(&svc, "SELECT a FROM t WHERE b = 9")));
        svc.poll();
        assert_eq!(svc.wal_rounds(), 3);
        assert_eq!(svc.persist_fault(), None);
        let expected = state_fingerprint(&svc);
        let env = svc.env(id);
        let expected_cache = env.shared_cache().map(|c| c.export().digest());
        let expected_processed = svc.tenant_processed(id);
        drop(svc); // the "crash"

        let (mut restored, rid, _) = restorable_service();
        let report = restored.restore(&dir).unwrap();
        assert_eq!(report.wal_rounds, 3);
        assert_eq!(report.events_replayed, 5);
        assert_eq!(report.snapshot_rounds, Some(2));
        assert_eq!(report.torn_bytes_discarded, 0);
        assert_eq!(restored.wal_rounds(), 3);
        assert_eq!(state_fingerprint(&restored), expected);
        let renv = restored.env(rid);
        assert_eq!(
            renv.shared_cache().map(|c| c.export().digest()),
            expected_cache
        );
        assert_eq!(restored.tenant_processed(rid), expected_processed);

        // The restored incarnation keeps logging after the recovered
        // history and can checkpoint again.
        restored.submit(Event::query(
            rid,
            q(&restored, "SELECT b FROM t WHERE a = 7"),
        ));
        restored.poll();
        assert_eq!(restored.wal_rounds(), 4);
        assert_eq!(restored.persist_fault(), None);
        restored.snapshot().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_logs_and_mismatched_hosts_are_rejected() {
        let dir = persist_dir("reject");
        let (svc, id, _) = restorable_service();
        let mut svc = svc.with_persistence(&dir).unwrap();
        let q = Arc::new(
            svc.env(id)
                .database()
                .parse("SELECT b FROM t WHERE a = 1")
                .unwrap(),
        );
        svc.submit(Event::query(id, q));
        svc.poll();
        svc.snapshot().unwrap();
        drop(svc);

        // Attaching fresh persistence over a previous incarnation's rounds
        // must fail — that history needs `restore`, not silent appending.
        let err = restorable_service()
            .0
            .with_persistence(&dir)
            .err()
            .expect("non-empty WAL must be rejected");
        assert!(matches!(err, PersistError::Config(_)), "got {err}");

        // A host shaped differently from the snapshot's echo is rejected
        // before any replay.
        let mut mismatched = TuningService::with_workers(2);
        let tid = mismatched.add_tenant("acme", db());
        mismatched.add_session(tid, "other-label", wfit_builder);
        let err = mismatched.restore(&dir).expect_err("echo must mismatch");
        assert!(matches!(err, PersistError::Config(_)), "got {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
