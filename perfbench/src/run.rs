//! One measured pass of a workload: assemble a service over the prepared
//! tenants, push the workload's events through it, snapshot, drop the
//! service and restore a freshly assembled host from disk.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use service::{
    BatchReport, Event, IngressStats, SessionId, TenantId, TenantOptions, TuningService,
};
use simdb::index::IndexSet;
use simdb::whatif::WhatIfStats;

use crate::shape::{Shape, Tenant, Traffic};
use crate::trace::{Kind, Span, TimedAdvisor, TimedEnv, Tracer};

/// One scheduled event: tenant index, and the statement position or `None`
/// for a vote.
#[derive(Debug, Clone, Copy)]
pub struct Scheduled {
    pub tenant: usize,
    pub statement: Option<usize>,
}

/// The submission order: position-major across tenants, each vote right
/// after the statement that triggers it.
pub fn schedule(shape: &Shape, tenants: &[Tenant]) -> Vec<Scheduled> {
    let longest = tenants
        .iter()
        .map(|t| t.statements.len())
        .max()
        .unwrap_or(0);
    let mut order = Vec::new();
    for pos in 0..longest {
        for (t, tenant) in tenants.iter().enumerate() {
            if pos >= tenant.statements.len() {
                continue;
            }
            order.push(Scheduled {
                tenant: t,
                statement: Some(pos),
            });
            if (pos + 1) % shape.vote_every == 0 {
                order.push(Scheduled {
                    tenant: t,
                    statement: None,
                });
            }
        }
    }
    order
}

fn make_event(tenants: &[Tenant], ids: &[TenantId], s: Scheduled) -> Event {
    let tenant = &tenants[s.tenant];
    match s.statement {
        Some(pos) => Event::query(ids[s.tenant], tenant.statements[pos].clone()),
        None => {
            // Approve the top offline candidate, reject the last one.
            let candidates = &tenant.selection.candidates;
            let approve = candidates.first().map(|&c| IndexSet::single(c));
            let reject = candidates.last().filter(|_| candidates.len() > 1);
            Event::vote(
                ids[s.tenant],
                approve.unwrap_or_else(IndexSet::empty),
                reject
                    .map(|&c| IndexSet::single(c))
                    .unwrap_or_else(IndexSet::empty),
            )
        }
    }
}

/// Build the service: one worker, one tenant per prepared workload, the
/// shape's fleet per tenant.  With a tracer every session's advisor runs
/// behind [`TimedAdvisor`] over a [`TimedEnv`].
pub fn assemble(
    shape: &Shape,
    tenants: &[Tenant],
    seed: u64,
    tracer: Option<&Arc<Tracer>>,
) -> (TuningService, Vec<TenantId>) {
    let mut svc = TuningService::with_workers(1);
    let mut ids = Vec::with_capacity(tenants.len());
    for (t, tenant) in tenants.iter().enumerate() {
        let options = TenantOptions::default().with_cache_capacity(shape.cache_capacity);
        let id = svc.add_tenant_with(format!("tenant-{t}"), tenant.db.clone(), options);
        for (s, &advisor) in shape.fleet.iter().enumerate() {
            svc.add_session(id, advisor.label(), |env| match tracer {
                None => advisor.build(tenant, env, seed),
                Some(tracer) => Box::new(TimedAdvisor::new(
                    advisor.build(tenant, TimedEnv::new(env, tracer.clone()), seed),
                    tracer.clone(),
                    s as u16,
                    t as u32,
                )),
            });
        }
        ids.push(id);
    }
    (svc, ids)
}

/// The observable result of one session.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub label: &'static str,
    pub tenant: usize,
    pub cost_series: Vec<f64>,
    pub total_work: f64,
    pub query_cost: f64,
    pub transition_cost: f64,
}

fn cells(svc: &TuningService, shape: &Shape, ids: &[TenantId]) -> Vec<Cell> {
    let mut out = Vec::new();
    for (t, &id) in ids.iter().enumerate() {
        for (s, advisor) in shape.fleet.iter().enumerate() {
            let sid = SessionId::new(id, s);
            let stats = svc.session_stats(sid);
            out.push(Cell {
                label: advisor.label(),
                tenant: t,
                cost_series: svc.cost_series(sid).to_vec(),
                total_work: stats.total_work,
                query_cost: stats.query_cost,
                transition_cost: stats.transition_cost,
            });
        }
    }
    out
}

/// Whether two cell lists are bit-equal.
pub fn bit_equal(a: &[Cell], b: &[Cell]) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.label == y.label
                && x.tenant == y.tenant
                && bits(&x.cost_series) == bits(&y.cost_series)
                && x.total_work.to_bits() == y.total_work.to_bits()
                && x.query_cost.to_bits() == y.query_cost.to_bits()
                && x.transition_cost.to_bits() == y.transition_cost.to_bits()
        })
}

/// Everything one pass measured.
#[derive(Default)]
pub struct Pass {
    pub cells: Vec<Cell>,
    pub restored_equal: bool,
    pub report: BatchReport,
    pub events: u64,
    /// Wall time spent inside `poll` rounds that processed events.
    pub drain_s: f64,
    pub freshness_ms: Vec<f64>,
    pub lag_ms: Vec<f64>,
    pub restore_s: f64,
    pub restore_rounds: u64,
    pub wal_bytes: u64,
    pub snapshot_bytes: u64,
    pub cache: WhatIfStats,
    pub ingress: IngressStats,
    pub faulted_events: u64,
    pub persist_errors: Vec<String>,
    pub spans: Vec<Span>,
}

/// A fresh, unique persistence directory under `out`.
fn persist_dir(out: &Path, shape: &Shape) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    out.join(format!("persist-{}-{}-{n}", shape.name, std::process::id()))
}

fn file_len(path: PathBuf) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Assemble a service and attach persistence: the part of set-up that
/// follows preparation.  Returns the service, its tenant ids and its
/// persistence directory.
pub fn start_service(
    shape: &Shape,
    tenants: &[Tenant],
    seed: u64,
    tracer: Option<&Arc<Tracer>>,
    out: &Path,
) -> (TuningService, Vec<TenantId>, PathBuf) {
    let (svc, ids) = assemble(shape, tenants, seed, tracer);
    let dir = persist_dir(out, shape);
    let svc = svc
        .with_persistence(&dir)
        .expect("a fresh persistence directory always attaches");
    (svc, ids, dir)
}

/// Run one pass.
pub fn run_pass(
    shape: &Shape,
    tenants: &[Tenant],
    seed: u64,
    tracer: Option<&Arc<Tracer>>,
    out: &Path,
) -> Pass {
    let order = schedule(shape, tenants);
    let (mut svc, ids, dir) = start_service(shape, tenants, seed, tracer, out);
    let events: Vec<Event> = order
        .iter()
        .map(|&s| make_event(tenants, &ids, s))
        .collect();
    let mut pass = Pass {
        events: events.len() as u64,
        freshness_ms: Vec::with_capacity(events.len()),
        lag_ms: Vec::with_capacity(events.len()),
        ..Pass::default()
    };
    let snapshot = |svc: &TuningService, pass: &mut Pass| {
        let _span = tracer.map(|t| t.open_top(Kind::Snapshot, crate::trace::NO_EVENT));
        if let Err(e) = svc.snapshot() {
            pass.persist_errors.push(format!("snapshot: {e}"));
        }
    };

    match shape.traffic {
        Traffic::Batch => {
            // Checkpoint when persistence attaches; the drain is one round.
            snapshot(&svc, &mut pass);
            let start = Instant::now();
            for (i, event) in events.into_iter().enumerate() {
                let sent = start.elapsed();
                let _span = tracer.map(|t| t.open_top(Kind::Submit, i as u64));
                svc.submit(event);
                pass.lag_ms.push(sent.as_secs_f64() * 1e3);
            }
            let round = {
                let _span = tracer.map(|t| t.open_root(Kind::Poll));
                let drain = Instant::now();
                let report = svc.process_pending();
                pass.drain_s = drain.elapsed().as_secs_f64();
                report
            };
            let done_ms = start.elapsed().as_secs_f64() * 1e3;
            pass.freshness_ms
                .extend(std::iter::repeat_n(done_ms, round.events as usize));
            pass.report = round;
        }
        Traffic::OpenLoop {
            rate,
            snapshot_every,
        } => {
            // Due time of every event, and of every tenant's k-th event.
            let due: Vec<Duration> = (0..events.len())
                .map(|i| Duration::from_secs_f64(i as f64 / rate))
                .collect();
            let mut due_by_tenant: Vec<Vec<Duration>> = vec![Vec::new(); tenants.len()];
            for (s, &d) in order.iter().zip(&due) {
                due_by_tenant[s.tenant].push(d);
            }
            let total = events.len() as u64;
            let handle = svc.handle();
            let start = Instant::now();
            let lag = std::thread::scope(|scope| {
                let generator = scope.spawn(|| {
                    let mut lag = Vec::with_capacity(events.len());
                    for ((i, event), &d) in events.into_iter().enumerate().zip(&due) {
                        let now = start.elapsed();
                        if d > now {
                            std::thread::sleep(d - now);
                        }
                        let sent = start.elapsed();
                        let _span = tracer.map(|t| t.open_top(Kind::Submit, i as u64));
                        handle.submit(event);
                        lag.push(sent.saturating_sub(d).as_secs_f64() * 1e3);
                    }
                    lag
                });
                let mut done = vec![0u64; tenants.len()];
                let mut processed = 0u64;
                let mut rounds = 0u64;
                while processed < total {
                    if svc.pending() == 0 {
                        std::thread::sleep(Duration::from_micros(100));
                        continue;
                    }
                    let round = {
                        let _span = tracer.map(|t| t.open_root(Kind::Poll));
                        let poll = Instant::now();
                        let round = svc.poll();
                        pass.drain_s += poll.elapsed().as_secs_f64();
                        round
                    };
                    let returned = start.elapsed();
                    processed += round.events;
                    pass.report.absorb(round);
                    rounds += 1;
                    for (t, &id) in ids.iter().enumerate() {
                        let now_done = svc.tenant_processed(id);
                        for k in done[t]..now_done {
                            let d = due_by_tenant[t][k as usize];
                            pass.freshness_ms
                                .push(returned.saturating_sub(d).as_secs_f64() * 1e3);
                        }
                        done[t] = now_done;
                    }
                    if rounds.is_multiple_of(snapshot_every) {
                        snapshot(&svc, &mut pass);
                    }
                }
                generator.join().expect("traffic generator panicked")
            });
            pass.lag_ms = lag;
            snapshot(&svc, &mut pass);
        }
    }
    if let Some(tracer) = tracer {
        pass.spans = tracer.take();
    }

    pass.cells = cells(&svc, shape, &ids);
    pass.cache = svc.aggregate_cache_stats();
    pass.ingress = svc.ingress_stats();
    for sid in svc.faulted_sessions() {
        pass.faulted_events += svc.tenant_processed(sid.tenant);
    }
    if let Some(fault) = svc.persist_fault() {
        pass.persist_errors.push(format!("WAL: {fault}"));
    }
    pass.wal_bytes = file_len(dir.join(service::persist::WAL_FILE));
    pass.snapshot_bytes = file_len(dir.join(service::persist::SNAPSHOT_FILE));
    drop(svc);

    // Restore on a freshly assembled (untraced) host.
    let (mut fresh, _) = assemble(shape, tenants, seed, None);
    let start = Instant::now();
    match fresh.restore(&dir) {
        Ok(report) => {
            pass.restore_s = start.elapsed().as_secs_f64();
            pass.restore_rounds = report.wal_rounds;
            pass.restored_equal = bit_equal(&cells(&fresh, shape, &ids), &pass.cells);
        }
        Err(e) => pass.persist_errors.push(format!("restore: {e}")),
    }
    drop(fresh);
    let _ = std::fs::remove_dir_all(&dir);
    pass
}
