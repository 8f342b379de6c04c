//! The benchmark's workloads and their set-up: workload generation, offline
//! candidate selection and the OPT oracle, one tenant at a time.

use std::sync::Arc;
use std::time::Instant;

use advisors::{compute_optimal, BanditAdvisor, BanditConfig, BruchoChaudhuriAdvisor, OptSchedule};
use simdb::database::Database;
use simdb::index::IndexSet;
use simdb::query::Statement;
use wfit_core::candidates::{offline_selection, OfflineSelection};
use wfit_core::{IndexAdvisor, TuningEnv, Wfit, WfitConfig};
use workload::{Benchmark, BenchmarkSpec};

/// `stateCnt` of the offline selection, of OPT and of the WFIT-500 session.
const STATE_CNT: u64 = 500;

/// Base of the per-tenant generator seeds.  Like most seeds it yields
/// candidate parts of up to 7 indexes, where the work-function update is
/// about 90% of a `drift` drain.
const CORPUS_SEED: u64 = 2;

/// One session of every tenant's fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advisor {
    Wfit500,
    WfitInd,
    Bc,
    Bandit,
}

impl Advisor {
    pub fn label(self) -> &'static str {
        match self {
            Advisor::Wfit500 => "WFIT-500",
            Advisor::WfitInd => "WFIT-IND",
            Advisor::Bc => "BC",
            Advisor::Bandit => "BANDIT",
        }
    }

    /// Whether the session runs the work-function algorithm.
    pub fn is_wfit(self) -> bool {
        matches!(self, Advisor::Wfit500 | Advisor::WfitInd)
    }

    /// Build the advisor over `env` from the tenant's offline analysis.
    pub fn build<E: TuningEnv + Send + 'static>(
        self,
        tenant: &Tenant,
        env: E,
        seed: u64,
    ) -> Box<dyn IndexAdvisor + Send> {
        let candidates = tenant.selection.candidates.clone();
        match self {
            Advisor::Wfit500 => Box::new(Wfit::with_fixed_partition(
                env,
                WfitConfig::with_state_cnt(STATE_CNT),
                tenant.selection.partition.clone(),
                IndexSet::empty(),
            )),
            Advisor::WfitInd => Box::new(
                Wfit::with_fixed_partition(
                    env,
                    WfitConfig::independent(),
                    candidates.iter().map(|&c| vec![c]).collect(),
                    IndexSet::empty(),
                )
                .with_name("WFIT-IND"),
            ),
            Advisor::Bc => Box::new(BruchoChaudhuriAdvisor::new(
                env,
                candidates,
                &IndexSet::empty(),
            )),
            Advisor::Bandit => Box::new(BanditAdvisor::new(
                env,
                candidates,
                BanditConfig::with_seed(seed ^ 0xC2CB),
            )),
        }
    }
}

/// How a workload's events reach the service.
#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// Closed batch: every event is submitted, then `process_pending` drains
    /// them in one round.
    Batch,
    /// Open loop: a generator thread sends events at `rate` per second
    /// through a `ServiceHandle` while the benchmark's thread polls; a
    /// snapshot is written every `snapshot_every` non-empty rounds.
    OpenLoop { rate: f64, snapshot_every: u64 },
}

/// A workload: traffic shape, fleet and cache sizing.
#[derive(Debug, Clone)]
pub struct Shape {
    pub name: &'static str,
    pub statements_per_phase: usize,
    pub fleet: &'static [Advisor],
    /// Per-tenant CLOCK cache capacity; 0 is unbounded.
    pub cache_capacity: usize,
    /// A DBA vote follows every this-many statements of a tenant.
    pub vote_every: usize,
    pub traffic: Traffic,
}

pub const WORKLOADS: [&str; 2] = ["drift", "live-durable"];

/// Statements per phase of every workload (8 phases per tenant).
pub const PHASE_LEN: usize = 60;

/// Tenants of every workload.
const TENANTS: usize = 2;

impl Shape {
    /// The named workload, optionally at another phase length (the smoke
    /// test runs every workload at a tiny size).
    pub fn named(name: &str, phase_len: Option<usize>) -> Option<Self> {
        use Advisor::*;
        let statements_per_phase = phase_len.unwrap_or(PHASE_LEN);
        let shape = match name {
            // The paper's shifting workload, the service's default fleet plus
            // the bandit arm, drained in one batch round.
            "drift" => Shape {
                name: "drift",
                statements_per_phase,
                fleet: &[Wfit500, WfitInd, Bc, Bandit],
                cache_capacity: 0,
                vote_every: 16,
                traffic: Traffic::Batch,
            },
            // The bounded cache keeps snapshots small: restoring an
            // unbounded-cache snapshot takes seconds, since snapshot parsing
            // is quadratic in its size.  At 300 events/s the drain stays
            // under half busy even on a contended host, so freshness
            // measures the service rather than a growing queue.
            "live-durable" => Shape {
                name: "live-durable",
                statements_per_phase,
                fleet: &[Wfit500, Bc],
                cache_capacity: 512,
                vote_every: 8,
                traffic: Traffic::OpenLoop {
                    rate: 300.0,
                    snapshot_every: 512,
                },
            },
            _ => return None,
        };
        Some(shape)
    }
}

/// One tenant's prepared inputs.
pub struct Tenant {
    /// The database whose index registry holds the selection's candidates.
    pub db: Arc<Database>,
    pub statements: Vec<Arc<Statement>>,
    pub selection: OfflineSelection,
    pub opt: OptSchedule,
}

/// Wall time of each set-up stage, summed over tenants.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub selection_s: f64,
    pub opt_s: f64,
}

/// One splitmix64 step: decorrelated seeds and shuffle draws.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle of every phase's statements, keyed by `key`.
fn shuffle_phases(statements: &mut [Statement], phase_len: usize, key: u64) {
    let mut state = key;
    for phase in statements.chunks_mut(phase_len.max(1)) {
        for i in (1..phase.len()).rev() {
            state = splitmix(state);
            phase.swap(i, (state % (i as u64 + 1)) as usize);
        }
    }
}

/// Generate, select and run OPT for every tenant, one tenant at a time.
///
/// Tenant `t`'s statements are drawn from a fixed generator seed and the
/// offline selection runs over them in generation order, so the statement
/// multiset of every phase, the candidate partition and the analysis work
/// per statement are the same for every `seed`.  `seed` shuffles each
/// phase's statements before OPT and the service see them: it fixes every
/// advisor's decisions, the cache's access order and the WAL contents.
pub fn prepare(shape: &Shape, seed: u64) -> (Vec<Tenant>, SetupTimes) {
    let mut times = SetupTimes::default();
    let tenants = (0..TENANTS)
        .map(|t| {
            let start = Instant::now();
            let mut bench = Benchmark::generate(BenchmarkSpec {
                statements_per_phase: shape.statements_per_phase,
                seed: splitmix(CORPUS_SEED ^ t as u64),
                phases: workload::default_phases(),
            });
            let generated = Instant::now();
            // Offline selection sees the corpus in generation order, so its
            // tie-breaks (and the partition) do not depend on `seed`.
            let selection = offline_selection(
                &bench.db,
                &bench.statements,
                &WfitConfig::with_state_cnt(STATE_CNT),
            );
            let selected = Instant::now();
            shuffle_phases(
                &mut bench.statements,
                shape.statements_per_phase,
                splitmix(seed ^ (t as u64) << 32),
            );
            let opt = compute_optimal(
                &bench.db,
                &bench.statements,
                &selection.partition,
                &IndexSet::empty(),
            );
            let done = Instant::now();
            times.generate_s += (generated - start).as_secs_f64();
            times.selection_s += (selected - generated).as_secs_f64();
            times.opt_s += (done - selected).as_secs_f64();
            let Benchmark { db, statements, .. } = bench;
            Tenant {
                db: Arc::new(db),
                statements: statements.into_iter().map(Arc::new).collect(),
                selection,
                opt,
            }
        })
        .collect();
    (tenants, times)
}
