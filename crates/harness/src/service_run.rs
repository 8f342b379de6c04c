//! Deterministic multi-tenant **service** scenarios.
//!
//! Where [`crate::runner`] replays one workload against a fleet of advisors,
//! one offline [`wfit_core::TuningSession`] per cell, this module replays
//! *many* workloads — one per tenant — through the long-running
//! [`service::TuningService`].  Each tenant is a
//! [`crate::runner::PreparedWorkload`]; its sessions are built by the same
//! [`AdvisorSpec`] builder the offline cells use and reported by the same
//! cell builder, read through [`service::TuningService::session`].  Statements and votes
//! are offered as [`service::Event`]s interleaved round-robin across
//! tenants, in waves: each wave is submitted and then drained by one `poll`
//! round (see [`run_service_scenario`] for the three wave shapes).  The
//! result is the same structured [`RunReport`], with one cell per
//! (tenant × session) and a [`ServiceSummary`] carrying the service-level
//! metrics (event counts, shared-cache hit rate, throughput, latency).
//!
//! Determinism contract: per-tenant event order is fixed by the spec,
//! every session replays its tenant's events in that order, one worker
//! drains each tenant whole, and the worker plan is a pure function of the
//! queue-depth snapshot — so every cost-derived metric, every cache counter
//! and every scheduler counter is bit-identical across runs at the
//! same seed, which is what lets the multi-tenant scenarios (including the
//! skewed one) live in the golden regression suite.  The worker count
//! changes only the echoed `workers` field and the planned
//! `load_imbalance`.

use std::sync::Arc;

use service::{BatchReport, Event, IngressConfig, TenantOptions, TuningService};
use simdb::index::IndexSet;
use workload::BenchmarkSpec;

use crate::report::{RunReport, ServiceSummary};
use crate::runner::{checkpoint_positions, PreparedWorkload};
use crate::spec::{state_cnts_needed, AdvisorSpec};

/// A declarative multi-tenant service scenario: `tenants` independent
/// workload streams (same phase structure, per-tenant seeds derived from
/// `seed`), each served by the same session fleet, processed by one
/// [`service::TuningService`].
#[derive(Debug, Clone)]
pub struct ServiceScenarioSpec {
    /// Scenario name (used in reports and golden file names).
    pub name: String,
    /// Number of tenants (independent databases + workloads).
    pub tenants: usize,
    /// Statements per phase of every tenant's workload.
    pub statements_per_phase: usize,
    /// Base seed; tenant `t` replays seed `mix(seed, t)`.
    pub seed: u64,
    /// The session fleet instantiated for every tenant; session `s` of
    /// tenant `t` reports as cell `t{t}/{label}` ([`AdvisorSpec::label`]).
    pub sessions: Vec<AdvisorSpec>,
    /// `stateCnt` for the offline candidate selection and the OPT oracle.
    pub selection_state_cnt: u64,
    /// Whether tenants get a shared what-if cache (`false` is the control
    /// arm: every request runs the optimizer).
    pub shared_cache: bool,
    /// Deliver a vote event (approve the tenant's top offline candidate,
    /// reject its last) after every `feedback_every`-th statement; 0
    /// disables feedback.
    pub feedback_every: usize,
    /// Capacity bound of each tenant's shared what-if cache; 0 keeps the
    /// cache unbounded (the historical behaviour).  Ignored when
    /// `shared_cache` is false.
    pub cache_capacity: usize,
    /// Worker threads draining the service (default: one per tenant).
    pub workers: usize,
    /// Event-skew multiplier for tenant 0: the "hot" tenant replays
    /// `skew × statements_per_phase` statements per phase while every other
    /// tenant replays `statements_per_phase`.  1 (the default) keeps all
    /// tenants equal.
    pub skew: usize,
    /// Per-tenant ingress depth limit (0 = unbounded, the historical
    /// default).  Setting either depth switches the replay into the
    /// **overload shape**: each wave offers `offered_multiplier ×` the
    /// admission capacity per tenant between drain rounds, so offered load
    /// exceeds drain capacity and the gate must shed deterministically.
    pub per_tenant_depth: usize,
    /// Global ingress budget across all tenants (0 = unbounded).
    pub global_depth: usize,
    /// How many times the admission capacity each tenant offers between
    /// drain rounds in the overload shape (≥ 1; inert without a depth
    /// limit).
    pub offered_multiplier: usize,
    /// Attach durable persistence (snapshot + event WAL in a scratch
    /// directory, removed when the run finishes).  Events are then offered
    /// in waves of [`PERSIST_WAVE`], each drained by one `poll` round (= one
    /// WAL record), with a snapshot every [`PERSIST_SNAPSHOT_EVERY`] waves.
    ///
    /// Only the unbounded ingress supports persistence.  Restore replays
    /// the drained events from the WAL, but it seeds the shed, deferred and
    /// rejected counts only from the last snapshot, so whatever the
    /// admission gate counted after that snapshot is lost.  On a 2-tenant
    /// bounded run (depths 2 and 6, offered at 3×, 9 waves), a kill right
    /// after a snapshot restores the uninterrupted report, but a kill one
    /// WAL round past it reports `offered_events` 100 and
    /// `rejected_submits` 52 against 108 and 60 (every cost cell and cache
    /// counter still equal).  Lifting the restriction needs each round's
    /// per-tenant ledger deltas in the WAL.
    pub persist: bool,
    /// Kill-and-restore point for persistent replays: before submitting
    /// wave `crash_at` (counted from 0, and below the run's wave count) the
    /// live service is dropped (a clean kill between drain rounds) and a
    /// freshly assembled host recovers it from the snapshot + WAL.  The
    /// recovered run must render the same report as an uninterrupted one —
    /// that equality is what the restore golden pins.
    pub crash_at: Option<usize>,
}

/// Events submitted per wave of a persistent ([`ServiceScenarioSpec::persist`])
/// replay; each wave is drained by exactly one `poll` round and therefore
/// logs exactly one WAL record.
pub const PERSIST_WAVE: usize = 16;

/// A persistent replay snapshots the service every this-many waves.
pub const PERSIST_SNAPSHOT_EVERY: usize = 3;

impl ServiceScenarioSpec {
    /// A scenario with the default fleet (WFIT-500, WFIT-IND, BC per
    /// tenant), shared caches, no feedback and one worker per tenant.
    pub fn new(name: impl Into<String>, tenants: usize, statements_per_phase: usize) -> Self {
        Self {
            name: name.into(),
            tenants,
            statements_per_phase,
            seed: BenchmarkSpec::default().seed,
            sessions: vec![
                AdvisorSpec::WfitFixed { state_cnt: 500 },
                AdvisorSpec::WfitIndependent,
                AdvisorSpec::Bc,
            ],
            selection_state_cnt: 500,
            shared_cache: true,
            feedback_every: 0,
            cache_capacity: 0,
            workers: tenants,
            skew: 1,
            per_tenant_depth: 0,
            global_depth: 0,
            offered_multiplier: 1,
            persist: false,
            crash_at: None,
        }
    }

    /// Override the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the per-tenant session fleet.
    pub fn with_sessions(mut self, sessions: Vec<AdvisorSpec>) -> Self {
        self.sessions = sessions;
        self
    }

    /// Enable or disable the shared what-if caches.
    pub fn with_shared_cache(mut self, shared: bool) -> Self {
        self.shared_cache = shared;
        self
    }

    /// Add (or remove) a C²UCB bandit session to every tenant's fleet, as
    /// the bandit stress tests do.  The tie-break seed is derived from the
    /// scenario's base seed, so the arm is fully reproducible.
    pub fn with_bandit(mut self, enabled: bool) -> Self {
        let is_bandit = |s: &AdvisorSpec| matches!(s, AdvisorSpec::Bandit { .. });
        if enabled {
            if !self.sessions.iter().any(is_bandit) {
                self.sessions.push(AdvisorSpec::Bandit {
                    seed: self.seed ^ 0xC2CB,
                });
            }
        } else {
            self.sessions.retain(|s| !is_bandit(s));
        }
        self
    }

    /// Schedule periodic feedback events.
    pub fn with_feedback_every(mut self, every: usize) -> Self {
        self.feedback_every = every;
        self
    }

    /// Bound each tenant's shared cache to `capacity` entries (0 =
    /// unbounded).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Drain with `workers` worker threads (values < 1 are clamped to 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Make tenant 0 "hot": it replays `skew ×` the statements of every
    /// other tenant (values < 1 are clamped to 1).
    pub fn with_skew(mut self, skew: usize) -> Self {
        self.skew = skew.max(1);
        self
    }

    /// Bound the service ingress (see [`service::IngressConfig`]): cap each
    /// tenant's queue at `per_tenant` and the whole ingress at `global`
    /// pending events (0 disables either limit).  Any bound switches the
    /// replay into the overload shape — see
    /// [`ServiceScenarioSpec::per_tenant_depth`].
    pub fn with_ingress_depths(mut self, per_tenant: usize, global: usize) -> Self {
        self.per_tenant_depth = per_tenant;
        self.global_depth = global;
        self
    }

    /// Offer `multiplier ×` the admission capacity per tenant between drain
    /// rounds in the overload shape (values < 1 are clamped to 1).
    pub fn with_offered_multiplier(mut self, multiplier: usize) -> Self {
        self.offered_multiplier = multiplier.max(1);
        self
    }

    /// Attach durable persistence (snapshot + WAL) to the replay.
    pub fn with_persist(mut self, persist: bool) -> Self {
        self.persist = persist;
        self
    }

    /// Kill the service before wave `wave` and restore it from disk
    /// (implies [`ServiceScenarioSpec::with_persist`]).
    pub fn with_crash_at(mut self, wave: usize) -> Self {
        self.persist = true;
        self.crash_at = Some(wave);
        self
    }

    /// Whether the spec replays in the bounded/overload shape.
    pub fn is_bounded(&self) -> bool {
        self.per_tenant_depth > 0 || self.global_depth > 0
    }

    /// The seed tenant `t` generates its workload from (a splitmix64 step
    /// over the base seed, so tenant workloads are decorrelated but fully
    /// reproducible).
    pub fn tenant_seed(&self, tenant: usize) -> u64 {
        let mut z = self
            .seed
            .wrapping_add((tenant as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Statements per phase for one tenant (tenant 0 carries the skew
    /// multiplier).
    pub fn statements_per_phase_for(&self, tenant: usize) -> usize {
        if tenant == 0 {
            self.statements_per_phase * self.skew.max(1)
        } else {
            self.statements_per_phase
        }
    }

    /// Statements one tenant replays over the whole run.
    pub fn statements_for_tenant(&self, tenant: usize) -> usize {
        self.statements_per_phase_for(tenant) * workload::default_phases().len()
    }

    /// Statements across all tenants (skew included).
    pub fn total_statements(&self) -> usize {
        (0..self.tenants)
            .map(|t| self.statements_for_tenant(t))
            .sum()
    }
}

/// A unique scratch directory for one persistent replay's snapshot + WAL
/// (unique per process *and* per call, so parallel test runs of the same
/// scenario never share state).
fn persist_scratch_dir(name: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("wfit-harness-{name}-{}-{n}", std::process::id()))
}

/// One entry of a tenant's scheduled replay stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceEventKind {
    /// The tenant's `pos`-th workload statement.
    Query(usize),
    /// A scheduled DBA vote (approve the tenant's top offline candidate,
    /// reject its last).
    Vote,
}

/// Which scheduled events actually reached the sessions of a bounded run —
/// per tenant, in delivery order.  In the overload shape the admission gate
/// rejects overflow queries and votes displace queued ones; the trace is
/// the surviving per-tenant stream, exactly what
/// [`run_service_control`] needs to prove the survivors' costs are
/// bit-equal to an un-shed control run.
#[derive(Debug, Clone, Default)]
pub struct ServiceTrace {
    /// Surviving events per tenant (everything, for an unbounded run).
    pub survivors: Vec<Vec<ServiceEventKind>>,
}

impl ServiceTrace {
    /// Queries that reached the sessions of one tenant.
    pub fn queries(&self, tenant: usize) -> usize {
        self.survivors[tenant]
            .iter()
            .filter(|k| matches!(k, ServiceEventKind::Query(_)))
            .count()
    }

    /// Votes that reached the sessions of one tenant.
    pub fn votes(&self, tenant: usize) -> usize {
        self.survivors[tenant].len() - self.queries(tenant)
    }
}

/// Replay a multi-tenant service scenario into a [`RunReport`].
///
/// Preparation (workload generation, offline analysis, OPT) runs one thread
/// per tenant — tenants are fully independent, so this is deterministic —
/// and the event schedule is then offered to a [`TuningService`] in waves,
/// each submitted through the admission gate and drained by one `poll`
/// round, so every session of a tenant sees each of its surviving events in
/// submission order.  An unbounded in-memory run offers its whole schedule
/// as one wave; a persistent run offers [`PERSIST_WAVE`] events per wave
/// (see [`ServiceScenarioSpec::persist`]); a bounded run offers
/// `offered_multiplier ×` the admission capacity per wave (see
/// [`ServiceScenarioSpec::per_tenant_depth`]).
pub fn run_service_scenario(spec: &ServiceScenarioSpec) -> RunReport {
    run_internal(spec, None).0
}

/// Like [`run_service_scenario`], additionally returning the
/// [`ServiceTrace`] of events that survived admission — the input for
/// [`run_service_control`].
pub fn run_service_scenario_traced(spec: &ServiceScenarioSpec) -> (RunReport, ServiceTrace) {
    run_internal(spec, None)
}

/// Replay only the events that survived a bounded run, through an
/// **unbounded** service built from the same spec.  Because shedding
/// happens strictly at admission — a shed event simply never existed as far
/// as the sessions are concerned — the control run's cost cells must be
/// bit-equal to the bounded run's (regression-tested in
/// `tests/scenarios.rs`).
pub fn run_service_control(spec: &ServiceScenarioSpec, trace: &ServiceTrace) -> RunReport {
    let mut control = spec.clone();
    control.name = format!("{}-control", spec.name);
    control.per_tenant_depth = 0;
    control.global_depth = 0;
    run_internal(&control, Some(trace)).0
}

fn run_internal(
    spec: &ServiceScenarioSpec,
    replay: Option<&ServiceTrace>,
) -> (RunReport, ServiceTrace) {
    assert!(
        spec.tenants > 0,
        "service scenario needs at least one tenant"
    );
    assert!(
        !spec.sessions.is_empty(),
        "service scenario needs at least one session per tenant"
    );
    assert!(
        replay.is_none() || !spec.is_bounded(),
        "survivor replays run unbounded (they are the control arm)"
    );
    // Restore cannot rebuild the admission ledger past the last snapshot
    // (see `ServiceScenarioSpec::persist`).
    assert!(
        !(spec.persist && spec.is_bounded()),
        "persistence is supported only for the unbounded shape"
    );
    assert!(
        spec.crash_at.is_none() || spec.persist,
        "a crash point needs persistence to recover from"
    );

    // Per-tenant offline preparation, in parallel (order restored by index).
    let state_cnts = state_cnts_needed(spec.selection_state_cnt, &spec.sessions);
    let prepared: Vec<PreparedWorkload> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.tenants)
            .map(|t| {
                let bench = BenchmarkSpec {
                    statements_per_phase: spec.statements_per_phase_for(t),
                    seed: spec.tenant_seed(t),
                    phases: workload::default_phases(),
                };
                let state_cnts = &state_cnts;
                scope.spawn(move || PreparedWorkload::prepare(bench, state_cnts))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant preparation panicked"))
            .collect()
    });

    // Assemble the service: one tenant + fleet per prepared workload, all
    // backed by the prepared database instances (whose registries hold the
    // candidate ids the offline selections refer to).  A persistent replay
    // that crashes mid-run reassembles the *same* host through this closure
    // before restoring — the restore contract is "same databases, same
    // builder closures, same registration order".
    let assemble = || {
        let mut svc = TuningService::with_workers(spec.workers);
        if spec.is_bounded() {
            svc = svc.with_ingress(IngressConfig::bounded(
                spec.per_tenant_depth,
                spec.global_depth,
            ));
        }
        let mut tenant_ids = Vec::with_capacity(spec.tenants);
        for (t, prep) in prepared.iter().enumerate() {
            let options = if spec.shared_cache {
                TenantOptions::default().with_cache_capacity(spec.cache_capacity)
            } else {
                TenantOptions { cache: None }
            };
            let id = svc.add_tenant_with(format!("tenant-{t}"), prep.db.clone(), options);
            for session in &spec.sessions {
                svc.add_session(id, session.label(), |env| {
                    Box::new(prep.build_advisor(session, env))
                });
            }
            tenant_ids.push(id);
        }
        (svc, tenant_ids)
    };
    let (mut svc, tenant_ids) = assemble();

    // The global submission schedule: (tenant index, event kind) in the
    // exact order events are offered.  A survivor replay re-interleaves the
    // per-tenant streams round-robin; otherwise the schedule is the
    // historical order — position-major across tenants, mimicking
    // concurrent arrival, each scheduled vote immediately after its
    // tenant's triggering query.  With skew the hot tenant's stream is
    // longer: exhausted tenants simply drop out of the rotation.
    let mut schedule: Vec<(usize, ServiceEventKind)> = Vec::new();
    match replay {
        Some(trace) => {
            assert_eq!(
                trace.survivors.len(),
                spec.tenants,
                "survivor trace shape must match the spec's tenant count"
            );
            let rounds = trace.survivors.iter().map(|s| s.len()).max().unwrap_or(0);
            for round in 0..rounds {
                for (t, stream) in trace.survivors.iter().enumerate() {
                    if let Some(&kind) = stream.get(round) {
                        schedule.push((t, kind));
                    }
                }
            }
        }
        None => {
            let max_per_tenant = prepared
                .iter()
                .map(|p| p.statements.len())
                .max()
                .unwrap_or(0);
            for pos in 0..max_per_tenant {
                for (t, prep) in prepared.iter().enumerate() {
                    if pos >= prep.statements.len() {
                        continue;
                    }
                    schedule.push((t, ServiceEventKind::Query(pos)));
                    if spec.feedback_every > 0 && (pos + 1) % spec.feedback_every == 0 {
                        schedule.push((t, ServiceEventKind::Vote));
                    }
                }
            }
        }
    }

    let make_event = |t: usize, kind: ServiceEventKind| -> Event {
        match kind {
            ServiceEventKind::Query(pos) => {
                Event::query(tenant_ids[t], Arc::new(prepared[t].statements[pos].clone()))
            }
            ServiceEventKind::Vote => {
                let candidates = &prepared[t].selection().candidates;
                let approve = candidates.first().map(|&c| IndexSet::single(c));
                let reject = candidates.last().filter(|_| candidates.len() > 1);
                Event::vote(
                    tenant_ids[t],
                    approve.unwrap_or_else(IndexSet::empty),
                    reject
                        .map(|&c| IndexSet::single(c))
                        .unwrap_or_else(IndexSet::empty),
                )
            }
        }
    };

    // Wave size.  The bounded shape offers `offered_multiplier ×` the
    // admission capacity per wave, so offered load exceeds drain capacity
    // and the gate must shed; a persistent run logs one WAL record per
    // wave; an unbounded in-memory run is one wave.
    let wave_len = if spec.is_bounded() {
        let base = if spec.per_tenant_depth > 0 {
            spec.per_tenant_depth
        } else {
            spec.global_depth
        };
        spec.offered_multiplier.max(1) * base * spec.tenants
    } else if spec.persist {
        PERSIST_WAVE
    } else {
        schedule.len()
    }
    .max(1);
    let waves = schedule.len().div_ceil(wave_len);
    if let Some(crash_at) = spec.crash_at {
        assert!(
            crash_at < waves,
            "crash point {crash_at} is past the last of the run's {waves} waves (counted from 0)"
        );
    }
    let dir = spec.persist.then(|| persist_scratch_dir(&spec.name));
    if let Some(dir) = &dir {
        svc = svc
            .with_persistence(dir)
            .expect("a fresh scratch directory always attaches");
    }

    // The one submission-and-drain loop.  Every event is offered through
    // the non-blocking gate (which admits everything when unbounded), and
    // `survivors` mirrors each tenant's pending queue on this side of the
    // gate: a query is kept when `try_submit` admits it, and a vote that
    // bumps the tenant's shed counter displaced the newest queued query —
    // one of this wave's, since every wave ends drained — so the surviving
    // stream falls out of public counters, with no ingress introspection.
    // At `crash_at` the live service is dropped between rounds — a clean
    // kill — and a freshly assembled host recovers from disk; the replayed
    // rounds are not re-logged, so the WAL-round total (and every other
    // deterministic metric) is identical to an uninterrupted run's.
    let mut survivors: Vec<Vec<ServiceEventKind>> = vec![Vec::new(); spec.tenants];
    let mut batch = BatchReport::default();
    for (wave, chunk) in schedule.chunks(wave_len).enumerate() {
        if spec.crash_at == Some(wave) {
            let dir = dir.as_ref().expect("a crash point has persistence");
            drop(svc);
            let (fresh, fresh_ids) = assemble();
            assert_eq!(fresh_ids, tenant_ids, "tenant ids are deterministic");
            svc = fresh;
            let report = svc
                .restore(dir)
                .expect("restore recovers a cleanly killed service");
            assert_eq!(report.torn_bytes_discarded, 0, "clean kills tear nothing");
            assert_eq!(report.wal_rounds, wave as u64);
        }
        for &(t, kind) in chunk {
            let shed_before = svc.tenant_ingress_stats(tenant_ids[t]).shed;
            if !svc.try_submit(make_event(t, kind)).is_admitted() {
                continue;
            }
            if svc.tenant_ingress_stats(tenant_ids[t]).shed > shed_before {
                let victim = survivors[t]
                    .iter()
                    .rposition(|k| matches!(k, ServiceEventKind::Query(_)))
                    .expect("a shed bump means a query was displaced");
                survivors[t].remove(victim);
            }
            survivors[t].push(kind);
        }
        batch.absorb(svc.poll());
        if spec.persist && (wave + 1) % PERSIST_SNAPSHOT_EVERY == 0 {
            svc.snapshot().expect("snapshot of a quiescent service");
        }
    }
    batch.absorb(svc.process_pending());
    if let Some(dir) = &dir {
        assert!(
            svc.persist_fault().is_none(),
            "the WAL must stay healthy through the whole replay: {:?}",
            svc.persist_fault()
        );
        let _ = std::fs::remove_dir_all(dir);
    }
    let trace = ServiceTrace { survivors };

    // Overload accounting must reconcile exactly once the service is
    // quiescent: everything admitted was either drained or displaced, and
    // the sessions saw exactly the drained events.
    let istats = svc.ingress_stats();
    assert_eq!(istats.pending, 0, "drain loop left events pending");
    assert_eq!(
        istats.submitted,
        istats.drained + istats.shed,
        "admitted events must all drain or be displaced"
    );
    assert_eq!(
        batch.events, istats.drained,
        "sessions saw a drained event twice or not at all"
    );

    // Cells: one per (tenant × session), ratios against the tenant's OPT.
    // Checkpoints are shared across cells, so they stop at the shortest
    // surviving tenant stream; each cell's final `opt_ratio` still covers
    // its tenant's whole surviving stream.
    let processed: Vec<usize> = (0..spec.tenants).map(|t| trace.queries(t)).collect();
    let min_per_tenant = processed.iter().copied().min().unwrap_or(0);
    let checkpoints = checkpoint_positions(min_per_tenant);
    let mut cells = Vec::with_capacity(spec.tenants * spec.sessions.len());
    for (t, prep) in prepared.iter().enumerate() {
        for (s, session_spec) in spec.sessions.iter().enumerate() {
            let id = service::SessionId::new(tenant_ids[t], s);
            cells.push(prep.cell_report(
                format!("t{t}/{}", session_spec.label()),
                svc.session(id),
                &checkpoints,
                0.0,
            ));
        }
    }

    let query_events: u64 = processed.iter().map(|&n| n as u64).sum();
    let vote_events: u64 = (0..spec.tenants).map(|t| trace.votes(t) as u64).sum();
    let cache = svc.aggregate_cache_stats();
    let sched = svc.sched_stats();
    let tenant_percentile = |p: f64| -> Vec<u64> {
        tenant_ids
            .iter()
            .map(|&id| batch.tenant_latency_percentile_us(id, p))
            .collect()
    };
    let report = RunReport {
        scenario: spec.name.clone(),
        seed: spec.seed,
        statements: query_events as usize,
        candidates: prepared
            .iter()
            .map(|p| p.selection().candidates.len())
            .sum(),
        partition_parts: prepared.iter().map(|p| p.selection().partition.len()).sum(),
        opt_total: prepared.iter().map(|p| p.opt.total).sum(),
        checkpoints,
        cells,
        service: Some(ServiceSummary {
            tenants: spec.tenants,
            sessions: svc.session_count(),
            query_events,
            vote_events,
            cache_requests: cache.requests,
            cache_hits: cache.cache_hits,
            cache_hit_rate: cache.hit_rate(),
            cache_evictions: cache.evictions,
            cache_entries: cache.entries,
            workers: spec.workers,
            session_runs: sched.session_runs,
            max_queue_depth: sched.max_queue_depth,
            load_imbalance: sched.max_imbalance,
            per_tenant_depth: spec.per_tenant_depth,
            global_depth: spec.global_depth,
            offered_events: istats.submitted + istats.rejected,
            shed_events: istats.shed,
            deferred_events: istats.deferred,
            rejected_submits: istats.rejected,
            peak_pending: istats.peak_pending,
            persist: spec.persist,
            wal_rounds: svc.wal_rounds(),
            events_per_sec: batch.events_per_sec(),
            latency_p50_us: batch.p50_us(),
            latency_p99_us: batch.p99_us(),
            tenant_latency_p50_us: tenant_percentile(0.50),
            tenant_latency_p99_us: tenant_percentile(0.99),
        }),
    };
    (report, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(name: &str) -> ServiceScenarioSpec {
        ServiceScenarioSpec::new(name, 2, 2).with_feedback_every(8)
    }

    #[test]
    fn service_scenario_produces_one_cell_per_tenant_session() {
        let spec = tiny("svc-tiny");
        let report = run_service_scenario(&spec);
        assert_eq!(report.cells.len(), 2 * 3);
        assert_eq!(report.statements, 2 * 16);
        let service = report.service.as_ref().expect("service block present");
        assert_eq!(service.tenants, 2);
        assert_eq!(service.sessions, 6);
        assert_eq!(service.query_events, 32);
        assert_eq!(service.vote_events, 2 * 2); // one vote per 8 statements
        assert!(service.cache_requests > 0);
        assert!(service.cache_hit_rate > 0.0 && service.cache_hit_rate < 1.0);
        // Per-tenant OPT lower-bounds every session of that tenant; the
        // summed opt_total lower-bounds the summed total work per fleet slot.
        for cell in &report.cells {
            assert!(
                cell.opt_ratio > 0.0 && cell.opt_ratio <= 1.0 + 1e-9,
                "{}",
                cell.label
            );
            assert!(
                (cell.query_cost + cell.transition_cost - cell.total_work).abs() < 1e-6,
                "{}",
                cell.label
            );
            assert_eq!(cell.ratio_series.len(), report.checkpoints.len());
        }
        // Deterministic rendering round-trips.
        let diffs = report.diff_against_golden(&report.to_json(), 1e-9).unwrap();
        assert!(diffs.is_empty(), "{diffs:?}");
    }

    #[test]
    fn bounded_runs_agree_with_default_costs() {
        // A bounded cache (forced below the working set) may only change
        // the cache's own counters (hits, evictions), never a cost, a
        // recommendation or a session's what-if calls.
        let base = run_service_scenario(&tiny("svc-hotpath"));
        let bounded = run_service_scenario(&tiny("svc-hotpath").with_cache_capacity(16));
        assert_eq!(base.cells.len(), bounded.cells.len());
        for (b, t) in base.cells.iter().zip(&bounded.cells) {
            assert_eq!(b.label, t.label);
            assert_eq!(
                b.total_work.to_bits(),
                t.total_work.to_bits(),
                "{}",
                b.label
            );
            assert_eq!(b.ratio_series, t.ratio_series, "{}", b.label);
            assert_eq!(b.whatif_calls, t.whatif_calls, "{}", b.label);
        }
        let base_svc = base.service.as_ref().unwrap();
        let bounded_svc = bounded.service.as_ref().unwrap();
        assert_eq!(
            base_svc.cache_evictions, 0,
            "unbounded default never evicts"
        );
        assert!(
            bounded_svc.cache_evictions > 0,
            "capacity 16 must be below the working set ({} entries unbounded)",
            base_svc.cache_entries
        );
        // Two tenants, each capped at 16 resident entries.
        assert!(bounded_svc.cache_entries <= 2 * 16);
        // Determinism: the bounded configuration replays byte-identically.
        let rerun = run_service_scenario(&tiny("svc-hotpath").with_cache_capacity(16));
        assert_eq!(bounded.to_json(), rerun.to_json());
    }

    #[test]
    fn bounded_overload_sheds_and_control_replay_is_bit_equal() {
        let spec = tiny("svc-overload")
            .with_ingress_depths(2, 6)
            .with_offered_multiplier(3);
        let (bounded, trace) = run_service_scenario_traced(&spec);
        let svc = bounded.service.as_ref().expect("service block present");
        assert_eq!(svc.per_tenant_depth, 2);
        assert_eq!(svc.global_depth, 6);
        assert!(
            svc.rejected_submits > 0,
            "offering 3× capacity through depth-2 queues must reject"
        );
        // Everything offered is accounted for exactly once.
        assert_eq!(
            svc.offered_events,
            svc.query_events + svc.vote_events + svc.shed_events + svc.rejected_submits
        );
        // Pending may exceed the budget only by over-budget deferred votes.
        assert!(svc.peak_pending <= 6 + svc.deferred_events);
        // The trace is what the report counted.
        let traced_queries: u64 = (0..2).map(|t| trace.queries(t) as u64).sum();
        let traced_votes: u64 = (0..2).map(|t| trace.votes(t) as u64).sum();
        assert_eq!(traced_queries, svc.query_events);
        assert_eq!(traced_votes, svc.vote_events);

        // Replaying only the survivors through an unbounded service must
        // reproduce every cost cell bit-for-bit: shedding happens strictly
        // at admission, so a shed event never existed for the sessions.
        let control = run_service_control(&spec, &trace);
        assert_eq!(control.scenario, "svc-overload-control");
        let csvc = control.service.as_ref().unwrap();
        assert_eq!(csvc.shed_events + csvc.rejected_submits, 0);
        assert_eq!(csvc.query_events, svc.query_events);
        assert_eq!(bounded.cells.len(), control.cells.len());
        for (b, c) in bounded.cells.iter().zip(&control.cells) {
            assert_eq!(b.label, c.label);
            assert_eq!(
                b.total_work.to_bits(),
                c.total_work.to_bits(),
                "{}",
                b.label
            );
            assert_eq!(b.ratio_series, c.ratio_series, "{}", b.label);
        }

        // And the bounded run itself replays byte-identically: the shed
        // choice is a pure function of submission order.
        let rerun = run_service_scenario(&spec);
        assert_eq!(bounded.to_json(), rerun.to_json());
    }

    #[test]
    fn persistent_replay_with_crash_matches_uninterrupted_run() {
        // The wave shape with persistence attached may only change overhead
        // counters relative to the plain in-memory replay — never a cost.
        let plain = run_service_scenario(&tiny("svc-persist"));
        let durable = run_service_scenario(&tiny("svc-persist").with_persist(true));
        assert_eq!(plain.cells.len(), durable.cells.len());
        for (p, d) in plain.cells.iter().zip(&durable.cells) {
            assert_eq!(p.label, d.label);
            assert_eq!(
                p.total_work.to_bits(),
                d.total_work.to_bits(),
                "{}",
                p.label
            );
            assert_eq!(p.ratio_series, d.ratio_series, "{}", p.label);
        }
        let summary = durable.service.as_ref().unwrap();
        assert!(summary.persist);
        let waves = (36usize).div_ceil(PERSIST_WAVE) as u64; // 32 queries + 4 votes
        assert_eq!(summary.wal_rounds, waves);
        assert!(!plain.service.as_ref().unwrap().persist);
        assert_eq!(plain.service.as_ref().unwrap().wal_rounds, 0);

        // Killing the service after wave 1 and restoring from disk renders
        // the *byte-identical* deterministic report.
        let crashed = run_service_scenario(&tiny("svc-persist").with_crash_at(1));
        assert_eq!(durable.to_json(), crashed.to_json());
    }

    #[test]
    #[should_panic(expected = "crash point 3 is past the last of the run's 3 waves")]
    fn crash_point_past_the_last_wave_panics() {
        // 32 queries + 4 votes in waves of 16: waves 0, 1 and 2 exist, so a
        // kill before wave 3 would silently replay an uninterrupted run.
        run_service_scenario(&tiny("svc-crash-past-end").with_crash_at(3));
    }

    #[test]
    fn every_advisor_spec_fields_a_service_session() {
        // The fleet builder is shared with the offline cells, so a service
        // tenant can host the advisors only scenarios used to run.
        let spec = tiny("svc-fleet").with_sessions(vec![
            AdvisorSpec::WfitAuto {
                config: wfit_core::config::WfitConfig::default(),
            },
            AdvisorSpec::NoIndex,
            AdvisorSpec::AllCandidates,
        ]);
        let report = run_service_scenario(&spec);
        let labels: Vec<&str> = report.cells.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "t0/AUTO",
                "t0/NO-INDEX",
                "t0/ALL-CAND",
                "t1/AUTO",
                "t1/NO-INDEX",
                "t1/ALL-CAND"
            ]
        );
        let noop = report.cell("t0/NO-INDEX").unwrap();
        assert_eq!((noop.transitions, noop.final_config_size), (0, 0));
        // The counters come from the session's own advisor, as offline.
        assert_eq!(noop.monitored, 0);
        assert!(report.cell("t0/AUTO").unwrap().states_tracked > 0);
        assert!(report.cell("t0/ALL-CAND").unwrap().final_config_size > 0);
        assert_eq!(report.to_json(), run_service_scenario(&spec).to_json());
    }

    #[test]
    fn offline_cell_and_service_session_report_the_same_cell() {
        use wfit_core::evaluator::FeedbackStream;
        use wfit_core::TuningSession;

        let fleet = [
            AdvisorSpec::WfitFixed { state_cnt: 500 },
            AdvisorSpec::WfitIndependent,
            AdvisorSpec::Bc,
            AdvisorSpec::Bandit { seed: 7 },
            AdvisorSpec::NoIndex,
            AdvisorSpec::WfitAuto {
                config: wfit_core::config::WfitConfig::default(),
            },
        ];
        let prep = PreparedWorkload::prepare(
            BenchmarkSpec {
                statements_per_phase: 2,
                ..BenchmarkSpec::default()
            },
            &state_cnts_needed(500, &fleet),
        );
        let checkpoints = checkpoint_positions(prep.statements.len());

        let mut svc = TuningService::with_workers(1);
        let tenant = svc.add_tenant("tenant-0", prep.db.clone());
        for spec in &fleet {
            svc.add_session(tenant, spec.label(), |env| {
                Box::new(prep.build_advisor(spec, env))
            });
        }
        for stmt in &prep.statements {
            svc.submit(Event::query(tenant, Arc::new(stmt.clone())));
        }
        svc.process_pending();

        for (s, spec) in fleet.iter().enumerate() {
            let mut offline = TuningSession::new(&*prep.db, prep.build_advisor(spec, &*prep.db));
            offline.replay(&prep.statements, &FeedbackStream::empty());
            // One label and one wall time for both, so every other field
            // is compared, `whatif_calls` included.
            let offline = prep.cell_report(spec.label(), &offline, &checkpoints, 0.0);
            let session = svc.session(service::SessionId::new(tenant, s));
            let served = prep.cell_report(spec.label(), session, &checkpoints, 0.0);
            assert_eq!(offline, served, "{}", spec.label());
        }
    }

    #[test]
    fn cached_and_uncached_runs_agree_on_costs() {
        let cached = run_service_scenario(&tiny("svc-cache"));
        let uncached = run_service_scenario(&tiny("svc-cache").with_shared_cache(false));
        assert_eq!(cached.cells.len(), uncached.cells.len());
        for (c, u) in cached.cells.iter().zip(&uncached.cells) {
            assert_eq!(c.label, u.label);
            assert_eq!(
                c.total_work.to_bits(),
                u.total_work.to_bits(),
                "{}",
                c.label
            );
            assert_eq!(c.ratio_series, u.ratio_series, "{}", c.label);
        }
        let service = uncached.service.as_ref().unwrap();
        assert_eq!(service.cache_requests, 0, "uncached arm bypasses the cache");
    }

    #[test]
    fn bandit_cached_and_uncached_runs_agree_on_costs_and_whatif_calls() {
        // The bandit charges its exploration through the same `TuningEnv`
        // what-if accounting as WFIT/BC: switching the shared cache off may
        // change nothing about any cost cell, regret, fallback counter or
        // per-session `whatif_calls` — only the cache counters move.
        let cached = run_service_scenario(&tiny("svc-bandit-cache").with_bandit(true));
        let uncached = run_service_scenario(
            &tiny("svc-bandit-cache")
                .with_bandit(true)
                .with_shared_cache(false),
        );
        assert!(
            cached.cells.iter().any(|c| c.advisor == "BANDIT"),
            "the fleet must field a bandit cell"
        );
        assert_eq!(cached.cells.len(), uncached.cells.len());
        for (c, u) in cached.cells.iter().zip(&uncached.cells) {
            assert_eq!(c.label, u.label);
            assert_eq!(
                c.total_work.to_bits(),
                u.total_work.to_bits(),
                "{}",
                c.label
            );
            assert_eq!(c.ratio_series, u.ratio_series, "{}", c.label);
            assert_eq!(c.regret.to_bits(), u.regret.to_bits(), "{}", c.label);
            assert_eq!(c.safety_fallbacks, u.safety_fallbacks, "{}", c.label);
            assert_eq!(
                c.whatif_calls, u.whatif_calls,
                "{}: what-if accounting must not depend on the cache",
                c.label
            );
        }
        let bandit = cached.cells.iter().find(|c| c.advisor == "BANDIT").unwrap();
        assert!(bandit.whatif_calls > 0, "exploration must be charged");
        let service = uncached.service.as_ref().unwrap();
        assert_eq!(service.cache_requests, 0, "uncached arm bypasses the cache");
    }
}
