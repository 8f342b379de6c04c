//! Sharded, lock-per-tenant event ingestion with **bounded backpressure**.
//!
//! The historical service queued events inside the tenant registry itself,
//! which forced `submit` to take `&mut TuningService` — ingestion and
//! draining were mutually exclusive by construction, a global
//! stop-the-world.  The [`Ingress`] moves the pending queues behind interior
//! mutability: one mutex-guarded FIFO shard per tenant, a read-write lock
//! only around the shard *directory* (taken for writing only when a tenant
//! is registered).  Submitting therefore contends on nothing but the target
//! tenant's shard, and — crucially — it works through a shared reference,
//! so producers can keep calling [`Ingress::submit`] (via a cloned
//! [`ServiceHandle`]) while a drain is running on another thread.
//!
//! # Admission control
//!
//! Unbounded queues are the one failure mode an always-on tuner cannot
//! have: a hot producer would grow memory without limit.  An
//! [`IngressConfig`] therefore bounds each shard (`per_tenant_depth`) and
//! the whole ingress (`global_depth`); both default to 0 = unbounded, the
//! historical behaviour.  Every submission passes an **admission gate**
//! with two priority classes:
//!
//! * [`Event::Query`] is *sheddable*.  [`Ingress::try_submit`] turns a
//!   query away when its shard is at `per_tenant_depth` or the ingress is
//!   at `global_depth` ([`SubmitOutcome::Rejected`] names which);
//!   [`Ingress::submit`] instead parks with escalating backoff until a
//!   drain frees capacity and reports [`SubmitOutcome::Deferred`] when it
//!   had to wait.
//! * [`Event::Vote`] is *high-priority and never shed*: DBA feedback must
//!   stay responsive under bulk replay load.  A vote arriving at a full
//!   queue is admitted by **displacing the newest sheddable event of its
//!   own shard** (counted in [`IngressStats::shed`]; the queue length — and
//!   the global budget — are unchanged).  Only when nothing in the shard is
//!   sheddable (the queue is all votes) is the vote admitted *over* budget
//!   and counted in [`IngressStats::deferred`] — the single, bounded way
//!   `pending` can exceed the caps.
//!
//! Shed choice is a pure function of submission order: the victim is always
//! the newest query of the vote's own shard, and the gate consults only
//! queue lengths, never the clock.  Under the deterministic replay shape
//! (one producer per tenant, drains interleaved at fixed points) every
//! outcome and every counter replays bit-identically, which is what lets
//! the overload scenario live in the golden suite.
//!
//! # Snapshot semantics of the counters
//!
//! All per-shard counters — `submitted`, `drained`, `shed`, `deferred`,
//! `rejected` — and the queue itself live behind **one** mutex, and
//! [`Ingress::stats`] reads each shard's state under that single lock.  A
//! shard snapshot is therefore exact: `pending == submitted - drained -
//! shed` holds *within every shard snapshot*, and because the identity
//! holds term-wise it also holds for the summed [`IngressStats`], even
//! while producers and [`Ingress::drain_all`] race on other shards.  (The
//! historical implementation read `submitted` and the queue length under
//! separate acquisitions, so a submit landing between the two reads could
//! make the global numbers disagree transiently.)  After quiescence the
//! identity is exact in the obvious way: everything submitted was either
//! drained, shed, or is still pending.
//!
//! Ordering contract: events of one tenant are delivered in the order their
//! `submit` calls completed (per-shard FIFO; a displaced query simply
//! vanishes from the stream).  [`Ingress::drain_all`] swaps every shard's
//! queue out atomically per shard, so a drain round observes a clean
//! per-tenant prefix of the stream; events submitted concurrently land in
//! the fresh queues and are picked up by the next round.

use crate::event::{Event, TenantId};
use parking_lot::{Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Admission-control limits of an [`Ingress`].  `0` means unbounded — the
/// default reproduces the historical (unlimited) ingestion exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngressConfig {
    /// Maximum events queued per tenant shard (0 = unbounded).
    pub per_tenant_depth: usize,
    /// Maximum events queued across **all** shards (0 = unbounded).
    pub global_depth: usize,
}

impl IngressConfig {
    /// No limits (the historical behaviour).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Bound each shard to `per_tenant_depth` and the whole ingress to
    /// `global_depth` pending events (0 disables either limit).
    pub fn bounded(per_tenant_depth: usize, global_depth: usize) -> Self {
        Self {
            per_tenant_depth,
            global_depth,
        }
    }

    /// Whether any limit is active.
    pub fn is_bounded(&self) -> bool {
        self.per_tenant_depth > 0 || self.global_depth > 0
    }
}

/// Which admission limit turned a sheddable submission away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The event's tenant shard is at its depth limit.
    TenantFull,
    /// The ingress is at its global budget.
    GlobalFull,
}

/// Result of offering an event to the admission gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The event was queued within budget (votes may have displaced a
    /// pending query to make room — see [`IngressStats::shed`]).
    Accepted,
    /// The event was **not** queued: the shard or the ingress is full and
    /// the event is sheddable.  Only [`Ingress::try_submit`] rejects;
    /// votes are never rejected.
    Rejected {
        /// The limit that was hit.
        reason: RejectReason,
    },
    /// The event was queued, but late or over budget: a blocking
    /// [`Ingress::submit`] had to park for capacity at least once, or an
    /// unsheddable vote found nothing to displace and exceeded the cap.
    Deferred,
}

impl SubmitOutcome {
    /// Whether the event ended up in a queue (everything but `Rejected`).
    pub fn is_admitted(&self) -> bool {
        !matches!(self, SubmitOutcome::Rejected { .. })
    }
}

/// One tenant's pending-event FIFO plus its admission counters.  Everything
/// lives under one mutex so any snapshot of the shard is exact (see the
/// module docs on snapshot semantics).
#[derive(Debug, Default)]
struct ShardState {
    queue: VecDeque<Event>,
    /// Events ever admitted into this shard (monotonic; excludes rejected
    /// submissions, includes later-shed events).
    submitted: u64,
    /// Events handed out by [`Ingress::drain_all`] (monotonic).
    drained: u64,
    /// Queries displaced by vote admissions (monotonic).
    shed: u64,
    /// Admissions that were delayed (blocking submit parked) or over budget
    /// (vote with nothing to displace) — monotonic.
    deferred: u64,
    /// Sheddable submissions turned away by [`Ingress::try_submit`]
    /// (monotonic; never queued, not part of `submitted`).
    rejected: u64,
}

/// Deterministic ingestion counters.  See the module docs for the snapshot
/// semantics: `pending == submitted - drained - shed` holds in **every**
/// snapshot, concurrent drains included, and `submitted + rejected` is the
/// total offered load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngressStats {
    /// Events admitted across all shards since the ingress was created.
    pub submitted: u64,
    /// Events currently queued (not yet drained or shed).
    pub pending: u64,
    /// Events handed out by [`Ingress::drain_all`].
    pub drained: u64,
    /// Queries displaced by vote admissions (admitted, then dropped before
    /// any drain saw them).
    pub shed: u64,
    /// Admissions that parked for capacity or went over budget (unsheddable
    /// votes with nothing to displace).
    pub deferred: u64,
    /// Sheddable submissions rejected by [`Ingress::try_submit`].
    pub rejected: u64,
    /// High-water mark of the global pending count — the memory bound the
    /// admission gate actually enforced.  Global only: per-tenant snapshots
    /// from [`Ingress::tenant_stats`] report 0 here.
    pub peak_pending: u64,
}

/// The sharded front door of the service: per-tenant FIFO queues behind an
/// admission gate, accepting [`Ingress::submit`] / [`Ingress::try_submit`]
/// concurrently with a running drain.
#[derive(Debug, Default)]
pub struct Ingress {
    shards: RwLock<Vec<Mutex<ShardState>>>,
    config: IngressConfig,
    /// Events queued across all shards, maintained by the admission gate
    /// (reserve on push, release on drain/displacement) so the global
    /// budget check is one atomic compare-exchange, never a full sweep.
    global_pending: AtomicU64,
    /// High-water mark of `global_pending`.
    peak_pending: AtomicU64,
}

impl Ingress {
    /// An unbounded ingress with no shards; [`Ingress::add_shard`] registers
    /// tenants.
    pub fn new() -> Self {
        Self::default()
    }

    /// An ingress with the given admission limits.
    pub fn with_config(config: IngressConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// The admission limits the gate enforces.
    pub fn config(&self) -> IngressConfig {
        self.config
    }

    /// Register a new tenant shard, returning its index (== the tenant id
    /// the service will assign).  The shard is bounded by the configured
    /// `per_tenant_depth`.
    pub fn add_shard(&self) -> usize {
        let mut shards = self.shards.write();
        shards.push(Mutex::default());
        shards.len() - 1
    }

    /// Whether a shard holding `queued` events is at the per-tenant depth
    /// limit.
    fn shard_full(&self, queued: usize) -> bool {
        self.config.per_tenant_depth > 0 && queued >= self.config.per_tenant_depth
    }

    /// Number of registered shards.
    pub fn shard_count(&self) -> usize {
        self.shards.read().len()
    }

    /// Try to reserve one slot of the global budget.  Strict even under
    /// races: a compare-exchange loop, so concurrent producers can never
    /// jointly overshoot `global_depth`.
    fn reserve_global(&self) -> bool {
        if self.config.global_depth == 0 {
            self.global_pending.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        let cap = self.config.global_depth as u64;
        self.global_pending
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                (cur < cap).then_some(cur + 1)
            })
            .is_ok()
    }

    /// Record the current global pending count into the high-water mark.
    fn note_peak(&self) {
        let now = self.global_pending.load(Ordering::Relaxed);
        self.peak_pending.fetch_max(now, Ordering::Relaxed);
    }

    /// The admission gate.  `Err` hands the event back for retry (blocking
    /// path) after counting the rejection if `count_reject` is set
    /// (non-blocking path).  Called with no locks held; takes the target
    /// shard's lock for the duration of the decision, so outcomes are
    /// serialized per tenant.
    fn admit(
        &self,
        event: Event,
        count_reject: bool,
    ) -> Result<SubmitOutcome, (Event, RejectReason)> {
        let tenant = event.tenant();
        let shards = self.shards.read();
        let shard = shards
            .get(tenant.0 as usize)
            .unwrap_or_else(|| panic!("unknown tenant {tenant:?}"));
        let mut state = shard.lock();
        let tenant_full = self.shard_full(state.queue.len());

        if event.is_sheddable() {
            let reason = if tenant_full {
                Some(RejectReason::TenantFull)
            } else if !self.reserve_global() {
                Some(RejectReason::GlobalFull)
            } else {
                None
            };
            if let Some(reason) = reason {
                if count_reject {
                    state.rejected += 1;
                }
                return Err((event, reason));
            }
            state.queue.push_back(event);
            state.submitted += 1;
            self.note_peak();
            return Ok(SubmitOutcome::Accepted);
        }

        // Vote: never rejected, never blocked.  Within budget it is a plain
        // push; at a limit it displaces the newest sheddable event of its
        // own shard (net queue length — and global budget — unchanged);
        // with nothing sheddable it goes over budget, counted as deferred.
        if !tenant_full && self.reserve_global() {
            state.queue.push_back(event);
            state.submitted += 1;
            self.note_peak();
            return Ok(SubmitOutcome::Accepted);
        }
        if let Some(victim) = state.queue.iter().rposition(Event::is_sheddable) {
            state.queue.remove(victim);
            state.shed += 1;
            state.queue.push_back(event);
            state.submitted += 1;
            return Ok(SubmitOutcome::Accepted);
        }
        state.queue.push_back(event);
        state.submitted += 1;
        state.deferred += 1;
        self.global_pending.fetch_add(1, Ordering::Relaxed);
        self.note_peak();
        Ok(SubmitOutcome::Deferred)
    }

    /// Whether `tenant`'s shard and the global budget currently have room
    /// for one more sheddable event, checked under the shard lock.  Used by
    /// the blocking [`Ingress::submit`] to re-check **before parking**: a
    /// drain can complete between a failed admission and the park, and
    /// without the re-check the producer would sleep a full backoff step
    /// with capacity sitting free.  The answer can be stale by the time the
    /// caller re-admits (another producer may take the slot) — the admit
    /// loop simply tries again, so staleness costs a retry, never
    /// correctness.
    fn capacity_available(&self, tenant: TenantId) -> bool {
        let shards = self.shards.read();
        let Some(shard) = shards.get(tenant.0 as usize) else {
            return false;
        };
        let state = shard.lock();
        if self.shard_full(state.queue.len()) {
            return false;
        }
        self.config.global_depth == 0
            || self.global_pending.load(Ordering::Relaxed) < self.config.global_depth as u64
    }

    /// Count one deferred admission on the event's shard (the blocking
    /// path's "had to park" marker).
    fn note_deferred(&self, tenant: TenantId) {
        let shards = self.shards.read();
        if let Some(shard) = shards.get(tenant.0 as usize) {
            shard.lock().deferred += 1;
        }
    }

    /// Offer an event to the admission gate without waiting.  Queries are
    /// [`SubmitOutcome::Rejected`] when the shard or the ingress is full;
    /// votes are always admitted (see the module docs).  Safe to call from
    /// any thread, at any time — including while a drain is in flight.
    ///
    /// # Panics
    /// If the event addresses an unregistered tenant.
    pub fn try_submit(&self, event: Event) -> SubmitOutcome {
        match self.admit(event, true) {
            Ok(outcome) => outcome,
            Err((_, reason)) => SubmitOutcome::Rejected { reason },
        }
    }

    /// Queue an event for its tenant, **parking with escalating backoff**
    /// until capacity frees when the admission gate is full (a concurrent
    /// drain must be running for capacity to ever free — in a
    /// single-threaded loop prefer [`Ingress::try_submit`]).  Returns
    /// [`SubmitOutcome::Accepted`] when the event was admitted immediately
    /// and [`SubmitOutcome::Deferred`] when it had to wait (counted in
    /// [`IngressStats::deferred`]).  With the default unbounded
    /// [`IngressConfig`] this never parks — the historical behaviour.
    ///
    /// # Panics
    /// If the event addresses an unregistered tenant.
    pub fn submit(&self, event: Event) -> SubmitOutcome {
        let tenant = event.tenant();
        let mut event = event;
        let mut parked = 0u32;
        loop {
            match self.admit(event, false) {
                Ok(outcome) => {
                    if parked > 0 && matches!(outcome, SubmitOutcome::Accepted) {
                        self.note_deferred(tenant);
                        return SubmitOutcome::Deferred;
                    }
                    return outcome;
                }
                Err((back, _)) => {
                    event = back;
                    // A drain can complete between the failed admission and
                    // the park below; re-check under the shard lock and take
                    // the freed slot immediately instead of sleeping a full
                    // backoff step with capacity sitting idle.
                    if self.capacity_available(tenant) {
                        continue;
                    }
                    // Escalating backoff: yield a few times, then sleep with
                    // doubling pauses capped at 1ms.  Purely a politeness
                    // policy — correctness never depends on the timing.
                    if parked < 4 {
                        std::thread::yield_now();
                    } else {
                        let exp = (parked - 4).min(7);
                        std::thread::sleep(Duration::from_micros(8u64 << exp));
                    }
                    parked = parked.saturating_add(1);
                }
            }
        }
    }

    /// Events currently queued across all shards.
    pub fn pending(&self) -> usize {
        self.shards
            .read()
            .iter()
            .map(|s| s.lock().queue.len())
            .sum()
    }

    /// Events currently queued for one tenant.
    pub fn tenant_pending(&self, tenant: TenantId) -> usize {
        self.shards
            .read()
            .get(tenant.0 as usize)
            .map(|s| s.lock().queue.len())
            .unwrap_or(0)
    }

    /// Current counters, summed across shards.  Each shard is read under
    /// its single state lock, so `pending == submitted - drained - shed`
    /// holds in every snapshot (see the module docs).
    pub fn stats(&self) -> IngressStats {
        let shards = self.shards.read();
        let mut stats = IngressStats::default();
        for shard in shards.iter() {
            let state = shard.lock();
            stats.submitted += state.submitted;
            stats.pending += state.queue.len() as u64;
            stats.drained += state.drained;
            stats.shed += state.shed;
            stats.deferred += state.deferred;
            stats.rejected += state.rejected;
        }
        stats.peak_pending = self.peak_pending.load(Ordering::Relaxed);
        stats
    }

    /// One tenant's counters (an exact snapshot — single lock).  The
    /// `peak_pending` field is global-only and reported as 0 here.
    pub fn tenant_stats(&self, tenant: TenantId) -> IngressStats {
        let shards = self.shards.read();
        let Some(shard) = shards.get(tenant.0 as usize) else {
            return IngressStats::default();
        };
        let state = shard.lock();
        IngressStats {
            submitted: state.submitted,
            pending: state.queue.len() as u64,
            drained: state.drained,
            shed: state.shed,
            deferred: state.deferred,
            rejected: state.rejected,
            peak_pending: 0,
        }
    }

    /// Swap every shard's queue out, returning one event run per tenant
    /// (indexed by tenant id; tenants with nothing pending get an empty
    /// vector).  Each shard is swapped atomically, so per-tenant FIFO order
    /// is preserved; events submitted while the drain round runs accumulate
    /// in the fresh queues.  Releases the drained events' global-budget
    /// slots, so parked [`Ingress::submit`] callers wake into the freed
    /// capacity.
    pub fn drain_all(&self) -> Vec<Vec<Event>> {
        self.shards
            .read()
            .iter()
            .map(|s| {
                let mut state = s.lock();
                if state.queue.is_empty() {
                    return Vec::new();
                }
                let run: Vec<Event> = std::mem::take(&mut state.queue).into();
                state.drained += run.len() as u64;
                self.global_pending
                    .fetch_sub(run.len() as u64, Ordering::Relaxed);
                run
            })
            .collect()
    }

    /// Refill one tenant's queue with `events`, **bypassing the admission
    /// gate**.  This is the WAL-replay path of [`crate::persist`]: the
    /// events were admitted by the original run (that is why they reached
    /// the log), so replaying them must not re-consult depth limits — a
    /// replay round can legitimately exceed the live budget because the
    /// original producers trickled in between drains.  Bumps `submitted`
    /// and the global pending gauge exactly like live admission so the
    /// ledger reconciles after the round is drained.
    ///
    /// # Panics
    /// If the tenant is unregistered (restore wires tenants before replay).
    pub(crate) fn inject_replay(&self, tenant: TenantId, events: Vec<Event>) {
        if events.is_empty() {
            return;
        }
        let shards = self.shards.read();
        let shard = shards
            .get(tenant.0 as usize)
            .unwrap_or_else(|| panic!("replay into unregistered tenant {}", tenant.0));
        let n = events.len() as u64;
        {
            let mut state = shard.lock();
            state.queue.extend(events);
            state.submitted += n;
        }
        self.global_pending.fetch_add(n, Ordering::Relaxed);
        self.note_peak();
    }

    /// Seed the admission-ledger counters that WAL replay cannot re-derive.
    /// Shed events were admitted but displaced before any drain, so they
    /// never reach the log; deferred and rejected outcomes are producer-side
    /// bookkeeping with no queued event at all.  A snapshot carries their
    /// per-shard values and restore adds them back here: `shed` counts both
    /// as `submitted` and `shed` (preserving
    /// `pending == submitted - drained - shed`), the others are plain adds.
    pub(crate) fn seed_replay_ledger(
        &self,
        tenant: TenantId,
        shed: u64,
        deferred: u64,
        rejected: u64,
    ) {
        let shards = self.shards.read();
        let Some(shard) = shards.get(tenant.0 as usize) else {
            return;
        };
        let mut state = shard.lock();
        state.submitted += shed;
        state.shed += shed;
        state.deferred += deferred;
        state.rejected += rejected;
    }

    /// Seed the global high-water mark from a snapshot (replay alone only
    /// reproduces per-round peaks, which lower-bound the live value).
    pub(crate) fn seed_peak_pending(&self, peak: u64) {
        self.peak_pending.fetch_max(peak, Ordering::Relaxed);
    }
}

/// A cloneable, `Send + Sync` submission handle over a service's ingress.
///
/// This is how producers feed a service that is concurrently draining: the
/// handle borrows nothing from the [`crate::TuningService`], so worker
/// threads can submit while another thread calls
/// [`crate::TuningService::poll`].
#[derive(Debug, Clone)]
pub struct ServiceHandle {
    ingress: Arc<Ingress>,
}

impl ServiceHandle {
    /// Wrap an ingress (the service constructs these via
    /// [`crate::TuningService::handle`]).
    pub(crate) fn new(ingress: Arc<Ingress>) -> Self {
        Self { ingress }
    }

    /// Queue an event for its tenant, parking for capacity when the
    /// admission gate is full (see [`Ingress::submit`]).
    pub fn submit(&self, event: Event) -> SubmitOutcome {
        self.ingress.submit(event)
    }

    /// Offer an event without waiting (see [`Ingress::try_submit`]).
    pub fn try_submit(&self, event: Event) -> SubmitOutcome {
        self.ingress.try_submit(event)
    }

    /// Events currently queued across all tenants.
    pub fn pending(&self) -> usize {
        self.ingress.pending()
    }

    /// Ingestion counters (see [`Ingress::stats`]).
    pub fn stats(&self) -> IngressStats {
        self.ingress.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdb::catalog::CatalogBuilder;
    use simdb::database::Database;
    use simdb::index::IndexSet;
    use simdb::types::DataType;

    fn vote(tenant: u32) -> Event {
        Event::vote(TenantId(tenant), IndexSet::empty(), IndexSet::empty())
    }

    fn query(tenant: u32) -> Event {
        use std::sync::OnceLock;
        static STMT: OnceLock<Arc<simdb::query::Statement>> = OnceLock::new();
        let stmt = STMT.get_or_init(|| {
            let mut b = CatalogBuilder::new();
            b.table("t")
                .rows(1000.0)
                .column("a", DataType::Integer, 100.0)
                .finish();
            let db = Database::new(b.build());
            Arc::new(db.parse("SELECT a FROM t WHERE a = 1").unwrap())
        });
        Event::query(TenantId(tenant), stmt.clone())
    }

    fn reconciles(stats: &IngressStats) -> bool {
        stats.pending == stats.submitted - stats.drained - stats.shed
    }

    #[test]
    fn shards_preserve_per_tenant_fifo_order() {
        let ingress = Ingress::new();
        ingress.add_shard();
        ingress.add_shard();
        for i in 0..4 {
            ingress.submit(Event::vote(
                TenantId(i % 2),
                IndexSet::empty(),
                IndexSet::empty(),
            ));
        }
        assert_eq!(ingress.pending(), 4);
        assert_eq!(ingress.tenant_pending(TenantId(0)), 2);
        let runs = ingress.drain_all();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].len(), 2);
        assert_eq!(runs[1].len(), 2);
        assert_eq!(ingress.pending(), 0);
        let stats = ingress.stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.pending, 0);
        assert_eq!(stats.drained, 4);
        assert!(reconciles(&stats));
    }

    #[test]
    #[should_panic(expected = "unknown tenant")]
    fn submitting_to_an_unregistered_tenant_panics() {
        let ingress = Ingress::new();
        ingress.add_shard();
        ingress.submit(vote(7));
    }

    #[test]
    fn unbounded_ingress_never_rejects_or_defers() {
        let ingress = Ingress::new();
        ingress.add_shard();
        for _ in 0..100 {
            assert_eq!(ingress.try_submit(query(0)), SubmitOutcome::Accepted);
        }
        let stats = ingress.stats();
        assert_eq!(stats.rejected + stats.deferred + stats.shed, 0);
        assert_eq!(stats.peak_pending, 100);
    }

    #[test]
    fn per_tenant_depth_rejects_overflow_queries() {
        let ingress = Ingress::with_config(IngressConfig::bounded(3, 0));
        ingress.add_shard();
        ingress.add_shard();
        for _ in 0..3 {
            assert_eq!(ingress.try_submit(query(0)), SubmitOutcome::Accepted);
        }
        assert_eq!(
            ingress.try_submit(query(0)),
            SubmitOutcome::Rejected {
                reason: RejectReason::TenantFull
            }
        );
        // The other shard still has room.
        assert_eq!(ingress.try_submit(query(1)), SubmitOutcome::Accepted);
        let stats = ingress.stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.rejected, 1);
        assert_eq!(ingress.tenant_stats(TenantId(0)).rejected, 1);
        assert_eq!(ingress.tenant_stats(TenantId(1)).rejected, 0);
        assert!(reconciles(&stats));
    }

    #[test]
    fn global_depth_rejects_across_shards() {
        let ingress = Ingress::with_config(IngressConfig::bounded(0, 4));
        ingress.add_shard();
        ingress.add_shard();
        for t in 0..4 {
            assert_eq!(ingress.try_submit(query(t % 2)), SubmitOutcome::Accepted);
        }
        assert_eq!(
            ingress.try_submit(query(0)),
            SubmitOutcome::Rejected {
                reason: RejectReason::GlobalFull
            }
        );
        // Draining frees the budget.
        let drained: usize = ingress.drain_all().iter().map(Vec::len).sum();
        assert_eq!(drained, 4);
        assert_eq!(ingress.try_submit(query(0)), SubmitOutcome::Accepted);
        let stats = ingress.stats();
        assert_eq!(stats.peak_pending, 4);
        assert!(reconciles(&stats));
    }

    #[test]
    fn votes_displace_the_newest_query_and_are_never_shed() {
        let ingress = Ingress::with_config(IngressConfig::bounded(3, 0));
        ingress.add_shard();
        for _ in 0..3 {
            ingress.try_submit(query(0));
        }
        // Full queue: the vote displaces the newest query, length unchanged.
        assert_eq!(ingress.try_submit(vote(0)), SubmitOutcome::Accepted);
        assert_eq!(ingress.tenant_pending(TenantId(0)), 3);
        let stats = ingress.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.submitted, 4);
        assert!(reconciles(&stats));
        let run = &ingress.drain_all()[0];
        assert_eq!(run.len(), 3);
        assert!(run[0].is_sheddable() && run[1].is_sheddable());
        assert!(!run[2].is_sheddable(), "the vote survived at the tail");
    }

    #[test]
    fn votes_with_nothing_to_displace_go_over_budget_as_deferred() {
        let ingress = Ingress::with_config(IngressConfig::bounded(2, 0));
        ingress.add_shard();
        assert_eq!(ingress.try_submit(vote(0)), SubmitOutcome::Accepted);
        assert_eq!(ingress.try_submit(vote(0)), SubmitOutcome::Accepted);
        // Queue full of unsheddable votes: the third vote exceeds the cap.
        assert_eq!(ingress.try_submit(vote(0)), SubmitOutcome::Deferred);
        assert_eq!(ingress.tenant_pending(TenantId(0)), 3);
        let stats = ingress.stats();
        assert_eq!(stats.deferred, 1);
        assert_eq!(stats.shed, 0, "votes are never shed");
        assert_eq!(stats.peak_pending, 3);
        assert!(reconciles(&stats));
        // All three votes drain.
        assert_eq!(ingress.drain_all()[0].len(), 3);
    }

    #[test]
    fn blocking_submit_parks_until_a_drain_frees_capacity() {
        let ingress = Arc::new(Ingress::with_config(IngressConfig::bounded(2, 0)));
        ingress.add_shard();
        assert_eq!(ingress.submit(query(0)), SubmitOutcome::Accepted);
        assert_eq!(ingress.submit(query(0)), SubmitOutcome::Accepted);
        let outcome = std::thread::scope(|scope| {
            let parked = scope.spawn(|| ingress.submit(query(0)));
            // Let the producer hit the full gate, then free capacity.
            while ingress.stats().submitted < 2 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(2));
            let drained: usize = ingress.drain_all().iter().map(Vec::len).sum();
            assert_eq!(drained, 2);
            parked.join().expect("parked producer")
        });
        assert_eq!(outcome, SubmitOutcome::Deferred, "the producer parked");
        let stats = ingress.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.deferred, 1);
        assert_eq!(stats.pending, 1);
        assert!(reconciles(&stats));
    }

    #[test]
    fn concurrent_submission_during_drain_loses_nothing() {
        let ingress = Arc::new(Ingress::new());
        for _ in 0..4 {
            ingress.add_shard();
        }
        let handle = ServiceHandle::new(ingress.clone());
        const PER_THREAD: usize = 500;
        let drained: usize = std::thread::scope(|scope| {
            for t in 0..4u32 {
                let handle = handle.clone();
                scope.spawn(move || {
                    for _ in 0..PER_THREAD {
                        handle.submit(vote(t));
                    }
                });
            }
            // Drain repeatedly while the producers are still submitting.
            let mut seen = 0;
            while seen < 4 * PER_THREAD {
                seen += ingress.drain_all().iter().map(Vec::len).sum::<usize>();
                std::thread::yield_now();
            }
            seen
        });
        assert_eq!(drained, 4 * PER_THREAD);
        assert_eq!(ingress.pending(), 0);
        let stats = ingress.stats();
        assert_eq!(stats.submitted, (4 * PER_THREAD) as u64);
        assert_eq!(stats.drained, (4 * PER_THREAD) as u64);
        assert!(reconciles(&stats));
    }
}
