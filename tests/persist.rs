//! Crash-recovery corpus for the service persistence layer (snapshot +
//! event WAL): a reference host replays a deterministic workload with the
//! WAL attached, then the log is damaged in every way a real crash can
//! damage it — **chopped at every byte boundary of the final record**,
//! bit-flipped mid-record, magic overwritten — and a freshly assembled host
//! restores from each corpse.
//!
//! The recovery contract under test:
//!
//! * a torn *tail* (truncation anywhere inside the last record, or a hash
//!   mismatch in it) is silently discarded: restore succeeds with exactly
//!   the intact prefix of rounds, and the recovered state is bit-identical
//!   to the reference host as of that round — never a panic, never a
//!   diverged state;
//! * damage that cannot be a torn tail (corrupt magic, a snapshot claiming
//!   more rounds than the log holds, a manifest in an older format) is a
//!   hard [`PersistError`], not a guess;
//! * a manifest whose session digests or cache exports disagree with the
//!   replayed state is a [`PersistError::Divergence`];
//! * after a torn-tail restore the log is physically truncated, so the
//!   service appends the next round cleanly and can snapshot again;
//! * the worker count is not part of the restore contract: a snapshot
//!   restores bit-identically on a host with more or fewer workers.

use simdb::catalog::CatalogBuilder;
use simdb::database::Database;
use simdb::index::{IndexId, IndexSet};
use simdb::types::DataType;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wfit::core::json::Json;
use wfit::core::IndexAdvisor;
use wfit::service::persist::SNAPSHOT_VERSION;
use wfit::service::{Event, PersistError, TenantEnv, TenantId, TenantOptions, TuningService};
use wfit::{Wfit, WfitConfig};

const WAL_FILE: &str = "events.wal";
const SNAPSHOT_FILE: &str = "snapshot.json";

/// Logged drain rounds of the reference run (the last one becomes the
/// torn-tail corpus).
const ROUNDS: usize = 4;

/// The reference run snapshots after this many rounds, so every truncated
/// restore still finds a snapshot *behind* the intact prefix.
const SNAPSHOT_AT: usize = 2;

fn db() -> Arc<Database> {
    let mut b = CatalogBuilder::new();
    b.table("t")
        .rows(1_000_000.0)
        .column("a", DataType::Integer, 100_000.0)
        .column("b", DataType::Integer, 1_000.0)
        .finish();
    Arc::new(Database::new(b.build()))
}

fn wfit(env: TenantEnv) -> Box<dyn IndexAdvisor + Send> {
    Box::new(Wfit::new(env, WfitConfig::default()))
}

/// The host-side assembly a persisted deployment re-runs after a crash:
/// same database shape, same interned index, same session fleet.
fn assemble() -> (TuningService, TenantId, IndexId) {
    let mut svc = TuningService::with_workers(2).with_batch_size(2);
    let database = db();
    let idx = database.define_index("t", &["a"]).unwrap();
    let tenant = svc.add_tenant("acme", database);
    svc.add_session(tenant, "wfit-0", wfit);
    svc.add_session(tenant, "wfit-1", wfit);
    (svc, tenant, idx)
}

/// The events of logical round `round` (deterministic, all carrying SQL
/// text so they are WAL-encodable; round 2 mixes in a vote).
fn round_events(svc: &TuningService, tenant: TenantId, idx: IndexId, round: usize) -> Vec<Event> {
    let database = svc.env(tenant).database().clone();
    let sqls = [
        "SELECT b FROM t WHERE a = 1",
        "SELECT a FROM t WHERE b = 2",
        "SELECT b FROM t WHERE a < 5",
        "SELECT a FROM t WHERE b < 9",
    ];
    let mut events = vec![
        Event::query(
            tenant,
            Arc::new(database.parse(sqls[round % sqls.len()]).unwrap()),
        ),
        Event::query(
            tenant,
            Arc::new(database.parse(sqls[(round + 1) % sqls.len()]).unwrap()),
        ),
    ];
    if round == 2 {
        events.push(Event::vote(
            tenant,
            IndexSet::single(idx),
            IndexSet::empty(),
        ));
    }
    events
}

/// Per-session (queries, votes, totWork bits, recommendation ids,
/// cost-series bits) — everything that must survive a restore, bit for bit.
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

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wfit-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run the reference host for [`ROUNDS`] logged rounds into `dir`, returning
/// the state fingerprint after every round and the WAL length after every
/// append (so the corpus knows where the final record starts).
fn reference_run(dir: &Path) -> (Vec<Fingerprint>, Vec<u64>) {
    let (svc, tenant, idx) = assemble();
    let mut svc = svc.with_persistence(dir).expect("fresh dir attaches");
    let mut states = Vec::new();
    let mut wal_lens = Vec::new();
    for round in 0..ROUNDS {
        for event in round_events(&svc, tenant, idx, round) {
            svc.submit(event);
        }
        svc.poll();
        assert_eq!(svc.wal_rounds(), round as u64 + 1);
        states.push(state_fingerprint(&svc));
        wal_lens.push(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len());
        if round + 1 == SNAPSHOT_AT {
            svc.snapshot().expect("snapshot of a quiescent service");
        }
    }
    assert!(svc.persist_fault().is_none());
    (states, wal_lens)
}

/// Copy the reference snapshot plus the WAL truncated to `wal_len` bytes
/// into a fresh directory.
fn damaged_copy(reference: &Path, tag: &str, wal_len: u64) -> PathBuf {
    let dir = scratch_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(reference.join(SNAPSHOT_FILE), dir.join(SNAPSHOT_FILE)).unwrap();
    let mut wal = std::fs::read(reference.join(WAL_FILE)).unwrap();
    wal.truncate(wal_len as usize);
    std::fs::write(dir.join(WAL_FILE), wal).unwrap();
    dir
}

#[test]
fn torn_wal_restores_the_intact_prefix_at_every_truncation_point() {
    let reference = scratch_dir("torn-ref");
    let (states, wal_lens) = reference_run(&reference);
    let prefix_len = wal_lens[ROUNDS - 2]; // log with the final record intactly absent
    let full_len = wal_lens[ROUNDS - 1];
    assert!(full_len > prefix_len + 12, "the final record has a frame");

    // Chop the log at *every* byte boundary of the final record.  Every cut
    // is a torn tail: restore succeeds with ROUNDS-1 rounds and the exact
    // reference state of that round, and reports exactly the discarded
    // bytes.  (The cut at `prefix_len` is the clean kill; every later cut
    // is a mid-write crash.)
    for cut in prefix_len..full_len {
        let dir = damaged_copy(&reference, "torn-cut", cut);
        let (mut svc, _, _) = assemble();
        let report = svc
            .restore(&dir)
            .unwrap_or_else(|e| panic!("cut at {cut} of {full_len} must restore: {e}"));
        assert_eq!(report.wal_rounds, (ROUNDS - 1) as u64, "cut {cut}");
        assert_eq!(report.snapshot_rounds, Some(SNAPSHOT_AT as u64));
        assert_eq!(report.torn_bytes_discarded, cut - prefix_len, "cut {cut}");
        assert_eq!(
            state_fingerprint(&svc),
            states[ROUNDS - 2],
            "cut {cut}: recovered state must match the reference at round {}",
            ROUNDS - 1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The intact log restores the full run.
    let dir = damaged_copy(&reference, "torn-full", full_len);
    let (mut svc, tenant, idx) = assemble();
    let report = svc.restore(&dir).expect("intact log restores");
    assert_eq!(report.wal_rounds, ROUNDS as u64);
    assert_eq!(report.torn_bytes_discarded, 0);
    assert_eq!(state_fingerprint(&svc), states[ROUNDS - 1]);

    // And the restored host keeps going: the next round appends and a new
    // snapshot lands (the WAL write offset is exactly where the log ends).
    for event in round_events(&svc, tenant, idx, ROUNDS) {
        svc.submit(event);
    }
    svc.poll();
    assert_eq!(svc.wal_rounds(), ROUNDS as u64 + 1);
    svc.snapshot().expect("post-restore snapshot");
    assert!(svc.persist_fault().is_none());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&reference);
}

#[test]
fn resume_after_torn_restore_appends_past_the_truncation() {
    let reference = scratch_dir("resume-ref");
    let (states, wal_lens) = reference_run(&reference);
    // Tear the final record in half.
    let cut = (wal_lens[ROUNDS - 2] + wal_lens[ROUNDS - 1]) / 2;
    let dir = damaged_copy(&reference, "resume", cut);

    let (mut svc, tenant, idx) = assemble();
    let report = svc.restore(&dir).expect("torn tail restores");
    assert_eq!(report.wal_rounds, (ROUNDS - 1) as u64);
    assert!(report.torn_bytes_discarded > 0);

    // Re-deliver the lost round (a real deployment re-submits whatever the
    // producers never got an ack for) and finish the workload: the state
    // catches up with the uninterrupted reference exactly.
    for round in (ROUNDS - 1)..ROUNDS {
        for event in round_events(&svc, tenant, idx, round) {
            svc.submit(event);
        }
        svc.poll();
    }
    assert_eq!(svc.wal_rounds(), ROUNDS as u64);
    assert_eq!(state_fingerprint(&svc), states[ROUNDS - 1]);

    // The repaired log is itself restorable — the truncation was physical,
    // so the re-appended round sits on a clean boundary.
    let (mut again, _, _) = assemble();
    let report = again.restore(&dir).expect("repaired log restores");
    assert_eq!(report.wal_rounds, ROUNDS as u64);
    assert_eq!(report.torn_bytes_discarded, 0);
    assert_eq!(state_fingerprint(&again), states[ROUNDS - 1]);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&reference);
}

#[test]
fn unrecoverable_damage_is_a_hard_error_never_a_panic() {
    let reference = scratch_dir("damage-ref");
    let (_, wal_lens) = reference_run(&reference);
    let full_len = wal_lens[ROUNDS - 1];

    // A bit flip in an *early* record breaks its hash: the scan stops
    // there, leaving fewer rounds than the snapshot claims — which cannot
    // be a torn tail, so restore must refuse loudly (the snapshot is
    // evidence the log once held more).
    let dir = damaged_copy(&reference, "damage-flip", full_len);
    let mut wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
    wal[20] ^= 0x01; // inside the first record's frame
    std::fs::write(dir.join(WAL_FILE), &wal).unwrap();
    let (mut svc, _, _) = assemble();
    let err = svc.restore(&dir).expect_err("snapshot ahead of the log");
    let message = err.to_string();
    assert!(
        message.contains("snapshot") || message.contains("corrupt"),
        "unexpected error: {message}"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // A clobbered magic header is corruption, not emptiness.
    let dir = damaged_copy(&reference, "damage-magic", full_len);
    let mut wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
    wal[0..8].copy_from_slice(b"NOTAWAL!");
    std::fs::write(dir.join(WAL_FILE), &wal).unwrap();
    let (mut svc, _, _) = assemble();
    assert!(svc.restore(&dir).is_err(), "bad magic must be rejected");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&reference);
}

/// The value under `key` of a JSON object.
fn field<'a>(doc: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(fields) = doc else {
        panic!("expected an object holding {key:?}")
    };
    fields
        .iter_mut()
        .find(|(k, _)| k.as_str() == key)
        .map(|(_, value)| value)
        .unwrap_or_else(|| panic!("missing field {key:?}"))
}

/// Element `i` of a JSON array.
fn item(doc: &mut Json, i: usize) -> &mut Json {
    let Json::Arr(items) = doc else {
        panic!("expected an array")
    };
    &mut items[i]
}

/// Rewrite the snapshot manifest in `dir` through `edit`.
fn edit_snapshot(dir: &Path, edit: impl FnOnce(&mut Json)) {
    let path = dir.join(SNAPSHOT_FILE);
    let text = std::fs::read_to_string(&path).unwrap();
    let mut doc = Json::parse(&text).expect("snapshot is JSON");
    edit(&mut doc);
    std::fs::write(&path, doc.render().unwrap()).unwrap();
}

/// A manifest stamped with an older format version (1 or 2) parses as JSON
/// and holds every field the current version reads, so only the version
/// check keeps restore from silently misparsing it: restore must report it
/// as corruption.
#[test]
fn version_one_snapshot_is_corrupt_not_misparsed() {
    assert_eq!(SNAPSHOT_VERSION, 3, "the current format");
    let reference = scratch_dir("old-version-ref");
    let (_, wal_lens) = reference_run(&reference);
    for old in [1u64, 2] {
        let dir = damaged_copy(&reference, &format!("v{old}"), wal_lens[ROUNDS - 1]);
        edit_snapshot(&dir, |doc| {
            let version = field(doc, "version");
            assert_eq!(*version, Json::Num(SNAPSHOT_VERSION as f64));
            *version = Json::Num(old as f64);
        });

        let (mut svc, _, _) = assemble();
        match svc.restore(&dir) {
            Err(PersistError::Corrupt(message)) => assert!(
                message.contains(&format!("version {old}")),
                "unexpected message: {message}"
            ),
            other => panic!("a version-{old} manifest must be Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&reference);
}

/// Restore re-executes the log and then compares the replayed state with
/// the manifest: a manifest whose digests disagree with replay means the
/// host was mis-assembled or determinism broke, and restore must say so.
#[test]
fn altered_digests_are_divergence_not_accepted() {
    let reference = scratch_dir("divergence-ref");
    let (_, wal_lens) = reference_run(&reference);
    let restore_edited = |tag: &str, edit: &dyn Fn(&mut Json)| {
        let dir = damaged_copy(&reference, tag, wal_lens[ROUNDS - 1]);
        edit_snapshot(&dir, edit);
        let (mut svc, _, _) = assemble();
        let result = svc.restore(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        match result {
            Err(PersistError::Divergence(message)) => message,
            other => panic!("{tag}: an altered manifest must be Divergence, got {other:?}"),
        }
    };

    // One bit of the second session's cost-series digest.
    let message = restore_edited("divergence-session", &|doc| {
        let tenant = item(field(doc, "tenants"), 0);
        let digest = field(item(field(tenant, "sessions"), 1), "series_digest");
        let bits = u64::from_str_radix(digest.as_str().unwrap(), 16).unwrap() ^ 1;
        *digest = Json::Str(format!("{bits:016x}"));
    });
    assert!(
        message.contains("session 0/1"),
        "unexpected message: {message}"
    );

    // One more cache hit than the replayed cache served.
    let message = restore_edited("divergence-cache", &|doc| {
        let cache = field(item(field(doc, "tenants"), 0), "cache");
        let hits = field(cache, "cache_hits");
        *hits = Json::Num(hits.as_f64().unwrap() + 1.0);
    });
    assert!(
        message.contains("tenant 0 cache digest mismatch"),
        "unexpected message: {message}"
    );
    let _ = std::fs::remove_dir_all(&reference);
}

/// Three tenants, each with a bounded cache and a shared IBG store, drained
/// by `workers` workers.
fn assemble_fleet(workers: usize) -> (TuningService, Vec<(TenantId, IndexId)>) {
    let mut svc = TuningService::with_workers(workers).with_batch_size(2);
    let mut tenants = Vec::new();
    for t in 0..3 {
        let database = db();
        let idx = database.define_index("t", &["a"]).unwrap();
        let tenant = svc.add_tenant_with(
            format!("tenant-{t}"),
            database,
            TenantOptions::default()
                .with_cache_capacity(6)
                .with_ibg_reuse(true),
        );
        svc.add_session(tenant, "wfit-0", wfit);
        svc.add_session(tenant, "wfit-1", wfit);
        tenants.push((tenant, idx));
    }
    (svc, tenants)
}

/// A host's worker count (`TuningService::new` takes it from the machine)
/// reaches no state that restore verifies: a snapshot taken on 2 workers
/// restores on 1 and on 4 with every session, cache and IBG digest
/// verified, and the restored host writes a byte-identical manifest.
#[test]
fn snapshot_restores_bit_identically_on_any_worker_count() {
    let reference = scratch_dir("workers-ref");
    let (svc, tenants) = assemble_fleet(2);
    let mut svc = svc
        .with_persistence(&reference)
        .expect("fresh dir attaches");
    for round in 0..ROUNDS {
        // Tenant 0 is hot, so the 2-worker plan is uneven.
        for (t, &(tenant, idx)) in tenants.iter().enumerate() {
            let copies = if t == 0 { 3 } else { 1 };
            for _ in 0..copies {
                for event in round_events(&svc, tenant, idx, round) {
                    svc.submit(event);
                }
            }
        }
        svc.poll();
    }
    svc.snapshot().expect("snapshot of a quiescent service");
    let expected_state = state_fingerprint(&svc);
    let manifest = std::fs::read_to_string(reference.join(SNAPSHOT_FILE)).unwrap();
    let doc = Json::parse(&manifest).unwrap();
    for tenant in doc.get("tenants").and_then(Json::as_arr).unwrap() {
        assert!(tenant.get("cache").is_some() && tenant.get("ibg_digest").is_some());
    }
    drop(svc);
    let wal_len = std::fs::metadata(reference.join(WAL_FILE)).unwrap().len();

    for workers in [1, 4] {
        let dir = damaged_copy(&reference, &format!("workers-{workers}"), wal_len);
        let (mut restored, _) = assemble_fleet(workers);
        let report = restored
            .restore(&dir)
            .unwrap_or_else(|e| panic!("{workers} worker(s) must restore: {e}"));
        assert_eq!(
            report.snapshot_rounds,
            Some(ROUNDS as u64),
            "digests verified"
        );
        assert_eq!(report.wal_rounds, ROUNDS as u64);
        assert_eq!(state_fingerprint(&restored), expected_state, "{workers}");
        restored.snapshot().expect("post-restore snapshot");
        assert_eq!(
            std::fs::read_to_string(dir.join(SNAPSHOT_FILE)).unwrap(),
            manifest,
            "{workers} worker(s): the restored host's manifest is byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&reference);
}
