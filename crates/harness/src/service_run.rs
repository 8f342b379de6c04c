//! Deterministic multi-tenant **service** scenarios.
//!
//! Where [`crate::runner`] replays one workload against a fleet of advisors
//! through the offline [`wfit_core::Evaluator`], this module replays *many*
//! workloads — one per tenant — through the long-running
//! [`service::TuningService`]: statements and votes are submitted as
//! [`service::Event`]s interleaved round-robin across tenants, sharded by
//! tenant id, and drained by the service's scoped worker pool.  The result
//! is the same structured [`RunReport`], with one cell per
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

use advisors::{compute_optimal, OptSchedule};
use advisors::{BanditAdvisor, BanditConfig, BruchoChaudhuriAdvisor};
use service::{Event, IngressConfig, TenantEnv, TenantOptions, TuningService};
use simdb::index::IndexSet;
use wfit_core::candidates::{offline_selection, OfflineSelection};
use wfit_core::config::WfitConfig;
use wfit_core::{IndexAdvisor, Wfit};
use workload::{Benchmark, BenchmarkSpec};

use crate::report::{CellReport, RunReport, ServiceSummary};

/// Which advisor one session of every tenant runs.
#[derive(Debug, Clone)]
pub enum ServiceSessionSpec {
    /// WFIT with the tenant's fixed offline partition mined for `state_cnt`.
    WfitFixed {
        /// `stateCnt` for the offline partition and the advisor.
        state_cnt: u64,
    },
    /// WFIT with every offline candidate in its own part (WFIT-IND).
    WfitIndependent,
    /// The Bruno–Chaudhuri baseline over the tenant's offline candidates.
    Bc,
    /// The C²UCB bandit over the tenant's offline candidates (safety-gated).
    Bandit {
        /// Seed for the deterministic splitmix64 tie-break hash.
        seed: u64,
    },
}

impl ServiceSessionSpec {
    fn label(&self) -> String {
        match self {
            ServiceSessionSpec::WfitFixed { state_cnt } => format!("WFIT-{state_cnt}"),
            ServiceSessionSpec::WfitIndependent => "WFIT-IND".to_string(),
            ServiceSessionSpec::Bc => "BC".to_string(),
            ServiceSessionSpec::Bandit { .. } => "BANDIT".to_string(),
        }
    }
}

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
    /// The session fleet instantiated for every tenant.
    pub sessions: Vec<ServiceSessionSpec>,
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
    /// Worker threads draining the service; 0 (the default) uses one worker
    /// per tenant — the historical behaviour.
    pub workers: usize,
    /// Event-skew multiplier for tenant 0: the "hot" tenant replays
    /// `skew × statements_per_phase` statements per phase while every other
    /// tenant replays `statements_per_phase`.  1 (the default) keeps all
    /// tenants equal.
    pub skew: usize,
    /// Per-tenant ingress depth limit (0 = unbounded, the historical
    /// default).  Setting either depth switches the replay into the
    /// **overload shape**: events are offered in waves through the
    /// non-blocking admission gate — `offered_multiplier ×` the capacity
    /// per tenant between drain rounds — so offered load exceeds drain
    /// capacity and the gate must shed deterministically.
    pub per_tenant_depth: usize,
    /// Global ingress budget across all tenants (0 = unbounded).
    pub global_depth: usize,
    /// How many times the admission capacity each tenant offers between
    /// drain rounds in the overload shape (≥ 1; inert without a depth
    /// limit).
    pub offered_multiplier: usize,
    /// Attach durable persistence (snapshot + event WAL in a scratch
    /// directory, removed when the run finishes).  Switches the replay into
    /// the **wave shape**: events are submitted in waves of
    /// [`PERSIST_WAVE`], each wave drained by one `poll` round (= one WAL
    /// record), with a snapshot every [`PERSIST_SNAPSHOT_EVERY`] waves.
    /// Only the unbounded shape supports persistence.
    pub persist: bool,
    /// Kill-and-restore point for persistent replays: before submitting
    /// wave `crash_at` the live service is dropped (a clean kill between
    /// drain rounds) and a freshly assembled host recovers it from the
    /// snapshot + WAL.  The recovered run must render the same report as an
    /// uninterrupted one — that equality is what the restore golden pins.
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
    /// tenant), shared caches and no feedback.
    pub fn new(name: impl Into<String>, tenants: usize, statements_per_phase: usize) -> Self {
        Self {
            name: name.into(),
            tenants,
            statements_per_phase,
            seed: BenchmarkSpec::default().seed,
            sessions: vec![
                ServiceSessionSpec::WfitFixed { state_cnt: 500 },
                ServiceSessionSpec::WfitIndependent,
                ServiceSessionSpec::Bc,
            ],
            selection_state_cnt: 500,
            shared_cache: true,
            feedback_every: 0,
            cache_capacity: 0,
            workers: 0,
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
    pub fn with_sessions(mut self, sessions: Vec<ServiceSessionSpec>) -> Self {
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
        let is_bandit = |s: &ServiceSessionSpec| matches!(s, ServiceSessionSpec::Bandit { .. });
        if enabled {
            if !self.sessions.iter().any(is_bandit) {
                self.sessions.push(ServiceSessionSpec::Bandit {
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

    /// Drain with `workers` worker threads (0 = one per tenant).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
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

    /// The worker count the service is built with (0 resolves to one worker
    /// per tenant).
    pub fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            self.tenants
        } else {
            self.workers
        }
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

/// One tenant's prepared state: the database (ready to be shared with the
/// service), the workload statements, the offline selections and the OPT
/// reference curve.
struct PreparedTenant {
    db: Arc<simdb::Database>,
    statements: Vec<simdb::Statement>,
    selections: Vec<(u64, OfflineSelection)>,
    opt: OptSchedule,
}

impl PreparedTenant {
    fn prepare(spec: &ServiceScenarioSpec, tenant: usize) -> Self {
        let bench = Benchmark::generate(BenchmarkSpec {
            statements_per_phase: spec.statements_per_phase_for(tenant),
            seed: spec.tenant_seed(tenant),
            phases: workload::default_phases(),
        });
        let mut state_cnts = vec![spec.selection_state_cnt];
        for session in &spec.sessions {
            if let ServiceSessionSpec::WfitFixed { state_cnt } = session {
                if !state_cnts.contains(state_cnt) {
                    state_cnts.push(*state_cnt);
                }
            }
        }
        let selections: Vec<(u64, OfflineSelection)> = state_cnts
            .into_iter()
            .map(|cnt| {
                let config = WfitConfig::with_state_cnt(cnt);
                (
                    cnt,
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
        // Move the database out of the benchmark: its index registry holds
        // the candidate ids the selections refer to, so the *same* instance
        // must back the service tenant.
        let Benchmark { db, statements, .. } = bench;
        Self {
            db: Arc::new(db),
            statements,
            selections,
            opt,
        }
    }

    fn selection_for(&self, state_cnt: u64) -> &OfflineSelection {
        self.selections
            .iter()
            .find(|(c, _)| *c == state_cnt)
            .map(|(_, s)| s)
            .expect("offline selection prepared for every requested stateCnt")
    }

    fn default_selection(&self) -> &OfflineSelection {
        &self.selections[0].1
    }
}

fn build_advisor(
    spec: &ServiceSessionSpec,
    prepared: &PreparedTenant,
    env: TenantEnv,
) -> Box<dyn IndexAdvisor + Send> {
    match spec {
        ServiceSessionSpec::WfitFixed { state_cnt } => Box::new(Wfit::with_fixed_partition(
            env,
            WfitConfig::with_state_cnt(*state_cnt),
            prepared.selection_for(*state_cnt).partition.clone(),
            IndexSet::empty(),
        )),
        ServiceSessionSpec::WfitIndependent => {
            let partition = prepared
                .default_selection()
                .candidates
                .iter()
                .map(|&c| vec![c])
                .collect();
            Box::new(
                Wfit::with_fixed_partition(
                    env,
                    WfitConfig::independent(),
                    partition,
                    IndexSet::empty(),
                )
                .with_name("WFIT-IND"),
            )
        }
        ServiceSessionSpec::Bc => Box::new(BruchoChaudhuriAdvisor::new(
            env,
            prepared.default_selection().candidates.clone(),
            &IndexSet::empty(),
        )),
        ServiceSessionSpec::Bandit { seed } => Box::new(BanditAdvisor::new(
            env,
            prepared.default_selection().candidates.clone(),
            BanditConfig::with_seed(*seed),
        )),
    }
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
/// and the event stream is then pushed through a [`TuningService`], where
/// every session of a tenant sees each of its events in submission order:
/// in a single drain for unbounded specs (the historical behaviour), in
/// logged waves with persistence on (see [`ServiceScenarioSpec::persist`]),
/// or in overload waves through the admission gate when a depth limit is
/// set (see [`ServiceScenarioSpec::per_tenant_depth`]).
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
    assert!(
        !(spec.persist && spec.is_bounded()),
        "persistence is supported only for the unbounded shape"
    );
    assert!(
        spec.crash_at.is_none() || spec.persist,
        "a crash point needs persistence to recover from"
    );

    // Per-tenant offline preparation, in parallel (order restored by index).
    let prepared: Vec<PreparedTenant> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.tenants)
            .map(|t| scope.spawn(move || PreparedTenant::prepare(spec, t)))
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
        let mut svc = TuningService::with_workers(spec.resolved_workers());
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
                svc.add_session(id, session.label(), |env| build_advisor(session, prep, env));
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
                let candidates = &prepared[t].default_selection().candidates;
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

    let mut survivors: Vec<Vec<ServiceEventKind>> = vec![Vec::new(); spec.tenants];
    let batch = if spec.is_bounded() {
        // Overload shape: offer `offered_multiplier ×` the admission
        // capacity between drain rounds through the non-blocking gate, so
        // offered load exceeds drain capacity and the gate must shed.  Each
        // tenant's pending queue is mirrored on this side of the gate: a
        // query is mirrored when `try_submit` accepts it, and a vote that
        // bumps the tenant's shed counter displaced the newest queued
        // query — so the surviving stream falls out of public counters,
        // with no extra ingress introspection.
        let base = if spec.per_tenant_depth > 0 {
            spec.per_tenant_depth
        } else {
            spec.global_depth.max(1)
        };
        let wave = (spec.offered_multiplier.max(1) * base * spec.tenants).max(1);
        let mut mirror: Vec<std::collections::VecDeque<ServiceEventKind>> =
            vec![std::collections::VecDeque::new(); spec.tenants];
        let mut batch = service::BatchReport::default();
        let mut drain_and_record =
            |svc: &mut TuningService,
             mirror: &mut Vec<std::collections::VecDeque<ServiceEventKind>>| {
                batch.absorb(svc.poll());
                for (t, pending) in mirror.iter_mut().enumerate() {
                    survivors[t].extend(pending.drain(..));
                }
            };
        for chunk in schedule.chunks(wave) {
            for &(t, kind) in chunk {
                match kind {
                    ServiceEventKind::Query(_) => {
                        if svc.try_submit(make_event(t, kind)).is_admitted() {
                            mirror[t].push_back(kind);
                        }
                    }
                    ServiceEventKind::Vote => {
                        let shed_before = svc.tenant_ingress_stats(tenant_ids[t]).shed;
                        let outcome = svc.try_submit(make_event(t, kind));
                        debug_assert!(outcome.is_admitted(), "votes are never rejected");
                        if svc.tenant_ingress_stats(tenant_ids[t]).shed > shed_before {
                            let victim = mirror[t]
                                .iter()
                                .rposition(|k| matches!(k, ServiceEventKind::Query(_)))
                                .expect("a shed bump means a query was displaced");
                            mirror[t].remove(victim);
                        }
                        mirror[t].push_back(kind);
                    }
                }
            }
            drain_and_record(&mut svc, &mut mirror);
        }
        batch.absorb(svc.process_pending());
        for (t, pending) in mirror.iter_mut().enumerate() {
            survivors[t].extend(pending.drain(..));
        }
        batch
    } else if spec.persist {
        // Durable wave shape: every wave is submitted, drained by one poll
        // round (which appends one WAL record before the events execute),
        // and every PERSIST_SNAPSHOT_EVERY-th wave ends with a snapshot.
        // At `crash_at` the live service is dropped between rounds — a
        // clean kill — and a freshly assembled host recovers from disk; the
        // replayed rounds are not re-logged, so the WAL-round total (and
        // every other deterministic metric) is identical to an
        // uninterrupted run's.
        let dir = persist_scratch_dir(&spec.name);
        svc = svc
            .with_persistence(&dir)
            .expect("a fresh scratch directory always attaches");
        let mut batch = service::BatchReport::default();
        for (wave, chunk) in schedule.chunks(PERSIST_WAVE).enumerate() {
            if spec.crash_at == Some(wave) {
                drop(svc);
                let (fresh, fresh_ids) = assemble();
                assert_eq!(fresh_ids, tenant_ids, "tenant ids are deterministic");
                svc = fresh;
                let report = svc
                    .restore(&dir)
                    .expect("restore recovers a cleanly killed service");
                assert_eq!(report.torn_bytes_discarded, 0, "clean kills tear nothing");
                assert_eq!(report.wal_rounds, wave as u64);
            }
            for &(t, kind) in chunk {
                svc.submit(make_event(t, kind));
                survivors[t].push(kind);
            }
            batch.absorb(svc.poll());
            if (wave + 1) % PERSIST_SNAPSHOT_EVERY == 0 {
                svc.snapshot().expect("snapshot of a quiescent service");
            }
        }
        batch.absorb(svc.process_pending());
        assert!(
            svc.persist_fault().is_none(),
            "the WAL must stay healthy through the whole replay: {:?}",
            svc.persist_fault()
        );
        let _ = std::fs::remove_dir_all(&dir);
        batch
    } else {
        for &(t, kind) in &schedule {
            svc.submit(make_event(t, kind));
            survivors[t].push(kind);
        }
        let total_events = svc.pending() as u64;
        let batch = svc.process_pending();
        assert_eq!(batch.events, total_events);
        batch
    };
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
    let checkpoints = crate::runner::checkpoint_positions(min_per_tenant);
    let mut cells = Vec::with_capacity(spec.tenants * spec.sessions.len());
    for (t, prep) in prepared.iter().enumerate() {
        for (s, session_spec) in spec.sessions.iter().enumerate() {
            let id = service::SessionId::new(tenant_ids[t], s);
            let stats = svc.session_stats(id);
            let series = svc.cost_series(id);
            let ratio_at = |n: usize| -> f64 {
                let alg = if n == 0 { 0.0 } else { series[n - 1] };
                if alg <= 0.0 {
                    1.0
                } else {
                    prep.opt.cumulative_at(n) / alg
                }
            };
            cells.push(CellReport {
                label: format!("t{t}/{}", session_spec.label()),
                advisor: svc.session_advisor_name(id),
                total_work: stats.total_work,
                query_cost: stats.query_cost,
                transition_cost: stats.transition_cost,
                transitions: stats.transitions as usize,
                opt_ratio: ratio_at(processed[t]),
                ratio_series: checkpoints.iter().map(|&n| (n, ratio_at(n))).collect(),
                whatif_calls: svc.session_whatif_requests(id),
                repartitions: 0,
                states_tracked: 0,
                monitored: prep.default_selection().candidates.len(),
                final_config_size: stats.configuration_size,
                regret: prep.opt.regret_of(series),
                safety_fallbacks: svc.session_safety_fallbacks(id),
                wall_time_ms: 0.0,
            });
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
            .map(|p| p.default_selection().candidates.len())
            .sum(),
        partition_parts: prepared
            .iter()
            .map(|p| p.default_selection().partition.len())
            .sum(),
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
            workers: spec.resolved_workers(),
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
