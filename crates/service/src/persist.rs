//! Durable service state: deterministic snapshot + append-only event WAL.
//!
//! The service's in-memory state (advisor partitions, vote history, shared
//! what-if caches, admission ledgers) is a pure function of the
//! event sequence each drain round executed — that is the house
//! bit-determinism invariant.  Persistence therefore logs **events**, not
//! state: every [`crate::TuningService::poll`] round appends the drained
//! per-tenant runs to an append-only WAL *before* any of their effects
//! become visible, and recovery replays the log through the exact same
//! execution path.  The snapshot is a *checkpoint manifest*: it pins the
//! observable state at a known round (full cache exports, digests of
//! per-session accounting) so a restore can verify that replay reconverged
//! bit-for-bit, and it carries the few ledger counters replay cannot
//! re-derive (shed/deferred/rejected outcomes never produce a drained
//! event, so they never reach the log).
//!
//! ```text
//!            append round k                      execute round k
//!   drain ──────────────────▶ events.wal ───────────────────────▶ state_k
//!                                │
//!                 snapshot()     │  restore(): replay rounds 0..n
//!   state_k ────▶ snapshot.json ─┴──────────▶ verify digests at round r
//!                 (atomic rename)             seed non-replayable ledgers
//! ```
//!
//! Recovery invariants:
//!
//! * `snapshot ∘ WAL replay = live state` — replaying every logged round
//!   into a freshly assembled service reproduces the crashed service's
//!   snapshot-eligible state bit-for-bit, and the snapshot's digests prove
//!   it at the checkpoint round.
//! * A torn or truncated final WAL record is **discarded, never fatal**:
//!   the scan stops at the first record whose length prefix or content hash
//!   does not validate, recovery physically truncates the tail, and the
//!   service resumes from the last intact round.
//! * A snapshot claiming more rounds than the WAL holds is detected as
//!   [`PersistError::Corrupt`] (the append-before-execute ordering makes it
//!   impossible in any crash schedule short of losing the log itself).
//!
//! Durability boundary: records are written with `write_all` + `flush`
//! (stream integrity against process crashes); `fsync` is deliberately not
//! issued, so an OS/power crash may lose the final records — they are then
//! discarded as a torn tail, which is the documented contract.

use crate::event::Event;
use simdb::cache::{CacheExport, ShardExport, SlotExport};
use simdb::digest::Fnv64;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use wfit_core::json::{Json, JsonError};

/// File name of the append-only event log inside a persistence directory.
pub const WAL_FILE: &str = "events.wal";
/// File name of the checkpoint manifest inside a persistence directory.
pub const SNAPSHOT_FILE: &str = "snapshot.json";
/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"WFITWAL1";
/// Snapshot manifest format version.  A manifest of any other version is
/// rejected as [`PersistError::Corrupt`]: a version-1 manifest's cache
/// exports may describe ARC state and resized capacities that this format
/// cannot represent, a version-2 manifest may come from a service that
/// split a tenant's sessions across workers, whose cache digests then
/// depended on thread timing, and a version-3 manifest may come from a
/// service that batched queries or shared IBGs across sessions, whose
/// cache contents this service cannot reproduce.  Every older version
/// holds every field this format reads, so only the version check tells
/// them apart.
pub const SNAPSHOT_VERSION: u64 = 4;

/// Why a persistence operation failed.  Recovery paths return these as
/// typed errors — corruption and divergence are reported, never panicked.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying filesystem operation failed.
    Io {
        /// What the codec was doing (`"open WAL"`, `"rename snapshot"`, …).
        op: String,
        /// The OS error.
        source: std::io::Error,
    },
    /// A JSON payload failed to render or parse.
    Codec(JsonError),
    /// A file's structure is invalid beyond torn-tail tolerance (bad magic,
    /// a hash-valid record with malformed JSON, round numbering gaps, a
    /// snapshot ahead of its WAL).
    Corrupt(String),
    /// The live service does not match the persisted configuration echo
    /// (different tenants, session labels, cache shapes, …), or an operation was
    /// attempted in an invalid order (e.g. [`crate::TuningService::with_persistence`]
    /// over a non-empty WAL).
    Config(String),
    /// Replay reconverged to a state whose digests disagree with the
    /// snapshot — the strongest possible signal that determinism broke.
    Divergence(String),
    /// An event cannot be represented in the log (a statement constructed
    /// without SQL text).
    Unsupported(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io { op, source } => write!(f, "persist I/O error ({op}): {source}"),
            PersistError::Codec(e) => write!(f, "persist codec error: {e}"),
            PersistError::Corrupt(m) => write!(f, "persist corruption: {m}"),
            PersistError::Config(m) => write!(f, "persist configuration mismatch: {m}"),
            PersistError::Divergence(m) => write!(f, "replay divergence: {m}"),
            PersistError::Unsupported(m) => write!(f, "unloggable event: {m}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            PersistError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JsonError> for PersistError {
    fn from(e: JsonError) -> Self {
        PersistError::Codec(e)
    }
}

fn io_err(op: &str, source: std::io::Error) -> PersistError {
    PersistError::Io {
        op: op.to_string(),
        source,
    }
}

/// One-shot FNV-1a of a byte slice (record framing uses this).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(bytes);
    h.finish()
}

// ---------------------------------------------------------------------------
// Event and round records
// ---------------------------------------------------------------------------

/// A logged event, decoupled from live handles: queries travel as SQL text
/// (re-bound against the tenant database on replay — binding is
/// deterministic, so fingerprints and costs come back identical), votes as
/// index-id lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum EventRecord {
    /// A workload statement, as its original SQL text.
    Query {
        /// SQL source of the statement.
        sql: String,
    },
    /// DBA feedback as raw index ids.
    Vote {
        /// Endorsed index ids.
        approve: Vec<u32>,
        /// Vetoed index ids.
        reject: Vec<u32>,
    },
}

/// One drain round as logged: the round index plus every non-empty
/// per-tenant run, in tenant order (which is execution order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RoundRecord {
    /// Zero-based index of the round in the WAL.
    pub round: u64,
    /// `(tenant id, events)` for each tenant that drained something.
    pub runs: Vec<(u32, Vec<EventRecord>)>,
}

/// Convert a drain round (`runs[tenant]` as returned by
/// [`crate::Ingress::drain_all`]) into its log record.  Fails with
/// [`PersistError::Unsupported`] if a statement carries no SQL text —
/// persistence requires statements built through [`simdb::Database::parse`].
pub(crate) fn encode_round(round: u64, runs: &[Vec<Event>]) -> Result<RoundRecord, PersistError> {
    let mut encoded = Vec::new();
    for (tenant, run) in runs.iter().enumerate() {
        if run.is_empty() {
            continue;
        }
        let mut events = Vec::with_capacity(run.len());
        for event in run {
            events.push(match event {
                Event::Query { statement, .. } => EventRecord::Query {
                    sql: statement.sql.clone().ok_or_else(|| {
                        PersistError::Unsupported(
                            "statement has no SQL text; build statements with Database::parse \
                             when persistence is enabled"
                                .to_string(),
                        )
                    })?,
                },
                Event::Vote {
                    approve, reject, ..
                } => EventRecord::Vote {
                    approve: approve.iter().map(|id| id.0).collect(),
                    reject: reject.iter().map(|id| id.0).collect(),
                },
            });
        }
        encoded.push((tenant as u32, events));
    }
    Ok(RoundRecord {
        round,
        runs: encoded,
    })
}

impl RoundRecord {
    fn to_json(&self) -> Json {
        let runs = self
            .runs
            .iter()
            .map(|(tenant, events)| {
                let events = events
                    .iter()
                    .map(|e| match e {
                        EventRecord::Query { sql } => {
                            Json::obj(vec![("q", Json::Str(sql.clone()))])
                        }
                        EventRecord::Vote { approve, reject } => Json::obj(vec![
                            ("approve", u32_array(approve)),
                            ("reject", u32_array(reject)),
                        ]),
                    })
                    .collect();
                Json::obj(vec![
                    ("tenant", Json::Num(*tenant as f64)),
                    ("events", Json::Arr(events)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("round", Json::Num(self.round as f64)),
            ("runs", Json::Arr(runs)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, PersistError> {
        let round = get_u64(doc, "round")?;
        let mut runs = Vec::new();
        for run in get_arr(doc, "runs")? {
            let tenant = get_u64(run, "tenant")? as u32;
            let mut events = Vec::new();
            for event in get_arr(run, "events")? {
                if let Some(sql) = event.get("q") {
                    let sql = sql
                        .as_str()
                        .ok_or_else(|| corrupt_field("q", "string"))?
                        .to_string();
                    events.push(EventRecord::Query { sql });
                } else {
                    events.push(EventRecord::Vote {
                        approve: u32_vec(event, "approve")?,
                        reject: u32_vec(event, "reject")?,
                    });
                }
            }
            runs.push((tenant, events));
        }
        Ok(RoundRecord { round, runs })
    }
}

// ---------------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------------

/// The result of scanning a WAL file tolerantly: every record up to the
/// first framing/hash failure, plus where the valid prefix ends.
#[derive(Debug)]
pub(crate) struct WalScan {
    /// Decoded rounds, in log order.
    pub records: Vec<RoundRecord>,
    /// Byte length of the valid prefix (magic + intact records).
    pub valid_len: u64,
    /// Total file length on disk (`> valid_len` means a torn tail).
    pub file_len: u64,
}

/// An open, append-positioned WAL.  Framing per record:
/// `u32 payload length (LE) | u64 FNV-1a of payload (LE) | payload` where
/// the payload is the round's JSON document.
#[derive(Debug)]
pub(crate) struct Wal {
    file: File,
    rounds: u64,
}

impl Wal {
    /// Tolerantly scan `path`.  A missing file is an empty log; a file too
    /// short to hold the magic is treated as a torn header (empty log).  A
    /// wrong magic is [`PersistError::Corrupt`] — that file was never ours.
    /// Records after the first length/hash failure are a torn tail and are
    /// not returned; a *hash-valid* record with malformed JSON or a round
    /// numbering gap is corruption, not tearing.
    pub(crate) fn scan(path: &Path) -> Result<WalScan, PersistError> {
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(WalScan {
                    records: Vec::new(),
                    valid_len: 0,
                    file_len: 0,
                })
            }
            Err(e) => return Err(io_err("read WAL", e)),
        };
        let file_len = bytes.len() as u64;
        if bytes.len() < WAL_MAGIC.len() {
            // Torn header write: recoverable as an empty log.
            return Ok(WalScan {
                records: Vec::new(),
                valid_len: 0,
                file_len,
            });
        }
        if bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(PersistError::Corrupt(format!(
                "{} does not start with the WAL magic",
                path.display()
            )));
        }
        let mut records = Vec::new();
        let mut pos = WAL_MAGIC.len();
        let mut valid_len = pos as u64;
        // A header that does not fit in the remaining bytes is a torn (or
        // clean) EOF, ending the scan.
        while let Some(header) = bytes.get(pos..pos + 12) {
            let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
            let hash = u64::from_le_bytes(header[4..12].try_into().unwrap());
            let Some(payload) = bytes.get(pos + 12..pos + 12 + len) else {
                break; // torn payload
            };
            if fnv64(payload) != hash {
                break; // torn (or corrupted) tail — discard from here on
            }
            let text = std::str::from_utf8(payload).map_err(|_| {
                PersistError::Corrupt("hash-valid WAL record is not UTF-8".to_string())
            })?;
            let record = RoundRecord::from_json(&Json::parse(text)?)?;
            if record.round != records.len() as u64 {
                return Err(PersistError::Corrupt(format!(
                    "WAL round numbering gap: record {} claims round {}",
                    records.len(),
                    record.round
                )));
            }
            records.push(record);
            pos += 12 + len;
            valid_len = pos as u64;
        }
        Ok(WalScan {
            records,
            valid_len,
            file_len,
        })
    }

    /// Open (creating if needed) the WAL in `dir` for appending, after
    /// physically truncating any torn tail found by [`Wal::scan`].  Returns
    /// the open log plus the scan of its intact prefix.
    pub(crate) fn open_for_append(dir: &Path) -> Result<(Wal, WalScan), PersistError> {
        let path = dir.join(WAL_FILE);
        let scan = Self::scan(&path)?;
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open WAL", e))?;
        if scan.valid_len < WAL_MAGIC.len() as u64 {
            // Fresh (or torn-header) log: start clean.
            file.set_len(0).map_err(|e| io_err("truncate WAL", e))?;
            file.seek(SeekFrom::Start(0))
                .map_err(|e| io_err("seek WAL", e))?;
            file.write_all(&WAL_MAGIC)
                .map_err(|e| io_err("write WAL magic", e))?;
        } else if scan.file_len > scan.valid_len {
            file.set_len(scan.valid_len)
                .map_err(|e| io_err("truncate torn WAL tail", e))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek WAL", e))?;
        Ok((
            Wal {
                file,
                rounds: scan.records.len() as u64,
            },
            scan,
        ))
    }

    /// Rounds appended (intact on open + appended since).
    pub(crate) fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Append one round record.  The whole frame is staged in memory and
    /// written with a single `write_all` + `flush`, so a process crash can
    /// only tear the *final* record — exactly what [`Wal::scan`] tolerates.
    pub(crate) fn append(&mut self, record: &RoundRecord) -> Result<(), PersistError> {
        debug_assert_eq!(record.round, self.rounds, "rounds must be logged in order");
        let payload = record.to_json().render()?;
        let bytes = payload.as_bytes();
        let mut frame = Vec::with_capacity(12 + bytes.len());
        frame.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv64(bytes).to_le_bytes());
        frame.extend_from_slice(bytes);
        self.file
            .write_all(&frame)
            .map_err(|e| io_err("append WAL record", e))?;
        self.file.flush().map_err(|e| io_err("flush WAL", e))?;
        self.rounds += 1;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Snapshot manifest
// ---------------------------------------------------------------------------

/// Digest of one session's observable state at the snapshot round.  Float
/// accounting is pinned as raw IEEE-754 bits (hex in JSON) — the restore
/// check is bit-identity, not tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionDigest {
    /// Session label (configuration echo).
    pub label: String,
    /// Advisor display name (configuration echo).
    pub advisor: String,
    /// Query events processed.
    pub queries: u64,
    /// Vote events processed.
    pub votes: u64,
    /// `total_work` bits.
    pub total_work_bits: u64,
    /// Query-cost component bits.
    pub query_cost_bits: u64,
    /// Transition-cost component bits.
    pub transition_cost_bits: u64,
    /// Configuration changes adopted.
    pub transitions: u64,
    /// Current recommendation, as index ids.
    pub recommendation: Vec<u32>,
    /// Currently materialized configuration, as index ids.
    pub materialized: Vec<u32>,
    /// Length of the cumulative cost series.
    pub series_len: u64,
    /// FNV-1a over the cost series' f64 bits.
    pub series_digest: u64,
}

/// One tenant's slice of the snapshot: configuration echo, the admission
/// ledger's non-replayable counters, the full what-if cache export, and
/// per-session digests.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSnapshot {
    /// Tenant display name (configuration echo).
    pub name: String,
    /// Queries displaced by the admission gate (never drained → never
    /// logged → must be seeded on restore).
    pub shed: u64,
    /// Deferred admissions (producer-side bookkeeping, not replayable).
    pub deferred: u64,
    /// Rejected submissions (producer-side bookkeeping, not replayable).
    pub rejected: u64,
    /// Full export of the tenant's shared what-if cache (slots, CLOCK
    /// reference bits and hands, interners, hit/miss counters), when the
    /// tenant has one.
    pub cache: Option<CacheExport>,
    /// Per-session state digests, in registration order.
    pub sessions: Vec<SessionDigest>,
}

/// The checkpoint manifest written (atomically, via temp-file + rename) by
/// [`crate::TuningService::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// WAL rounds whose effects this snapshot reflects.
    pub rounds: u64,
    /// Global ingress high-water mark (not replayable round-by-round).
    pub peak_pending: u64,
    /// Scheduler ledger echo, verified after replay: non-empty rounds.
    pub sched_rounds: u64,
    /// Scheduler ledger echo: session-runs scheduled.
    pub sched_session_runs: u64,
    /// Per-tenant state, in registration order.
    pub tenants: Vec<TenantSnapshot>,
}

impl Snapshot {
    /// Write the manifest atomically: render to `snapshot.json.tmp`, then
    /// rename over [`SNAPSHOT_FILE`].  Readers therefore only ever see the
    /// previous complete snapshot or this complete snapshot.
    pub fn save(&self, dir: &Path) -> Result<(), PersistError> {
        let text = self.to_json().render()?;
        let tmp = dir.join("snapshot.json.tmp");
        let dst = dir.join(SNAPSHOT_FILE);
        fs::write(&tmp, text.as_bytes()).map_err(|e| io_err("write snapshot temp file", e))?;
        fs::rename(&tmp, &dst).map_err(|e| io_err("rename snapshot into place", e))?;
        Ok(())
    }

    /// Load the manifest from `dir`, if one exists.
    pub fn load(dir: &Path) -> Result<Option<Snapshot>, PersistError> {
        let path = dir.join(SNAPSHOT_FILE);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err("read snapshot", e)),
        };
        Ok(Some(Self::from_json(&Json::parse(&text)?)?))
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("version", Json::Num(SNAPSHOT_VERSION as f64)),
            ("rounds", Json::Num(self.rounds as f64)),
            ("peak_pending", Json::Num(self.peak_pending as f64)),
            ("sched_rounds", Json::Num(self.sched_rounds as f64)),
            (
                "sched_session_runs",
                Json::Num(self.sched_session_runs as f64),
            ),
            (
                "tenants",
                Json::Arr(self.tenants.iter().map(tenant_to_json).collect()),
            ),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, PersistError> {
        let version = get_u64(doc, "version")?;
        if version != SNAPSHOT_VERSION {
            return Err(PersistError::Corrupt(format!(
                "unsupported snapshot version {version} (expected {SNAPSHOT_VERSION})"
            )));
        }
        Ok(Snapshot {
            rounds: get_u64(doc, "rounds")?,
            peak_pending: get_u64(doc, "peak_pending")?,
            sched_rounds: get_u64(doc, "sched_rounds")?,
            sched_session_runs: get_u64(doc, "sched_session_runs")?,
            tenants: get_arr(doc, "tenants")?
                .iter()
                .map(tenant_from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

fn tenant_to_json(t: &TenantSnapshot) -> Json {
    let mut fields = vec![
        ("name", Json::Str(t.name.clone())),
        ("shed", Json::Num(t.shed as f64)),
        ("deferred", Json::Num(t.deferred as f64)),
        ("rejected", Json::Num(t.rejected as f64)),
    ];
    if let Some(cache) = &t.cache {
        fields.push(("cache", cache_to_json(cache)));
    }
    fields.push((
        "sessions",
        Json::Arr(t.sessions.iter().map(session_to_json).collect()),
    ));
    Json::obj(fields)
}

fn tenant_from_json(doc: &Json) -> Result<TenantSnapshot, PersistError> {
    Ok(TenantSnapshot {
        name: get_str(doc, "name")?,
        shed: get_u64(doc, "shed")?,
        deferred: get_u64(doc, "deferred")?,
        rejected: get_u64(doc, "rejected")?,
        cache: doc.get("cache").map(cache_from_json).transpose()?,
        sessions: get_arr(doc, "sessions")?
            .iter()
            .map(session_from_json)
            .collect::<Result<_, _>>()?,
    })
}

fn session_to_json(s: &SessionDigest) -> Json {
    Json::obj(vec![
        ("label", Json::Str(s.label.clone())),
        ("advisor", Json::Str(s.advisor.clone())),
        ("queries", Json::Num(s.queries as f64)),
        ("votes", Json::Num(s.votes as f64)),
        ("total_work", hex(s.total_work_bits)),
        ("query_cost", hex(s.query_cost_bits)),
        ("transition_cost", hex(s.transition_cost_bits)),
        ("transitions", Json::Num(s.transitions as f64)),
        ("recommendation", u32_array(&s.recommendation)),
        ("materialized", u32_array(&s.materialized)),
        ("series_len", Json::Num(s.series_len as f64)),
        ("series_digest", hex(s.series_digest)),
    ])
}

fn session_from_json(doc: &Json) -> Result<SessionDigest, PersistError> {
    Ok(SessionDigest {
        label: get_str(doc, "label")?,
        advisor: get_str(doc, "advisor")?,
        queries: get_u64(doc, "queries")?,
        votes: get_u64(doc, "votes")?,
        total_work_bits: get_hex(doc, "total_work")?,
        query_cost_bits: get_hex(doc, "query_cost")?,
        transition_cost_bits: get_hex(doc, "transition_cost")?,
        transitions: get_u64(doc, "transitions")?,
        recommendation: u32_vec(doc, "recommendation")?,
        materialized: u32_vec(doc, "materialized")?,
        series_len: get_u64(doc, "series_len")?,
        series_digest: get_hex(doc, "series_digest")?,
    })
}

fn cache_to_json(c: &CacheExport) -> Json {
    let shards = c
        .shards
        .iter()
        .map(|s| {
            let slots = s
                .slots
                .iter()
                .map(|slot| {
                    Json::obj(vec![
                        ("stmt", Json::Num(slot.stmt as f64)),
                        ("config", Json::Num(slot.config as f64)),
                        ("total", hex(slot.total_bits)),
                        ("used", u32_array(&slot.used_indexes)),
                        ("desc", Json::Str(slot.description.clone())),
                        ("ref", Json::Bool(slot.referenced)),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("hand", Json::Num(s.hand as f64)),
                ("slots", Json::Arr(slots)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("capacity", Json::Num(c.capacity as f64)),
        (
            "statements",
            Json::Arr(c.statements.iter().map(|&f| hex(f)).collect()),
        ),
        (
            "configs",
            Json::Arr(c.configs.iter().map(|cfg| u32_array(cfg)).collect()),
        ),
        ("shards", Json::Arr(shards)),
        ("requests", Json::Num(c.requests as f64)),
        ("optimizer_calls", Json::Num(c.optimizer_calls as f64)),
        ("cache_hits", Json::Num(c.cache_hits as f64)),
        ("evictions", Json::Num(c.evictions as f64)),
    ])
}

fn cache_from_json(doc: &Json) -> Result<CacheExport, PersistError> {
    let statements = get_arr(doc, "statements")?
        .iter()
        .map(parse_hex)
        .collect::<Result<_, _>>()?;
    let configs = get_arr(doc, "configs")?
        .iter()
        .map(json_u32_vec)
        .collect::<Result<_, _>>()?;
    let mut shards = Vec::new();
    for shard in get_arr(doc, "shards")? {
        let mut slots = Vec::new();
        for slot in get_arr(shard, "slots")? {
            slots.push(SlotExport {
                stmt: get_u64(slot, "stmt")? as u32,
                config: get_u64(slot, "config")? as u32,
                total_bits: get_hex(slot, "total")?,
                used_indexes: u32_vec(slot, "used")?,
                description: get_str(slot, "desc")?,
                referenced: get_bool(slot, "ref")?,
            });
        }
        shards.push(ShardExport {
            hand: get_u64(shard, "hand")?,
            slots,
        });
    }
    Ok(CacheExport {
        capacity: get_u64(doc, "capacity")?,
        statements,
        configs,
        shards,
        requests: get_u64(doc, "requests")?,
        optimizer_calls: get_u64(doc, "optimizer_calls")?,
        cache_hits: get_u64(doc, "cache_hits")?,
        evictions: get_u64(doc, "evictions")?,
    })
}

/// What a [`crate::TuningService::restore`] did, for logs and assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreReport {
    /// Intact rounds found in the WAL (all of them were replayed).
    pub wal_rounds: u64,
    /// Events re-executed during replay.
    pub events_replayed: u64,
    /// The snapshot's round count, when a snapshot was present and its
    /// digests were verified.
    pub snapshot_rounds: Option<u64>,
    /// Bytes of torn WAL tail discarded (0 for a clean shutdown).
    pub torn_bytes_discarded: u64,
}

// ---------------------------------------------------------------------------
// JSON helpers
// ---------------------------------------------------------------------------

/// `u64` as a fixed-width hex string — used for hashes and IEEE-754 bit
/// patterns, which must survive JSON without any float round-trip.
fn hex(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

fn parse_hex(v: &Json) -> Result<u64, PersistError> {
    let s = v
        .as_str()
        .ok_or_else(|| corrupt_field("<hex>", "hex string"))?;
    u64::from_str_radix(s, 16)
        .map_err(|_| PersistError::Corrupt(format!("invalid hex value {s:?}")))
}

fn corrupt_field(key: &str, expected: &str) -> PersistError {
    PersistError::Corrupt(format!("field {key:?}: expected {expected}"))
}

fn get_u64(doc: &Json, key: &str) -> Result<u64, PersistError> {
    let n = doc
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| corrupt_field(key, "number"))?;
    if !(n >= 0.0 && n.fract() == 0.0 && n <= 9.0e15) {
        return Err(PersistError::Corrupt(format!(
            "field {key:?}: {n} is not an exact unsigned integer"
        )));
    }
    Ok(n as u64)
}

fn get_hex(doc: &Json, key: &str) -> Result<u64, PersistError> {
    parse_hex(
        doc.get(key)
            .ok_or_else(|| corrupt_field(key, "hex string"))?,
    )
}

fn get_str(doc: &Json, key: &str) -> Result<String, PersistError> {
    Ok(doc
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| corrupt_field(key, "string"))?
        .to_string())
}

fn get_bool(doc: &Json, key: &str) -> Result<bool, PersistError> {
    match doc.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(corrupt_field(key, "bool")),
    }
}

fn get_arr<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], PersistError> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| corrupt_field(key, "array"))
}

fn u32_array(ids: &[u32]) -> Json {
    Json::Arr(ids.iter().map(|&id| Json::Num(id as f64)).collect())
}

fn json_u32_vec(v: &Json) -> Result<Vec<u32>, PersistError> {
    v.as_arr()
        .ok_or_else(|| corrupt_field("<array>", "array of numbers"))?
        .iter()
        .map(|item| {
            let n = item
                .as_f64()
                .ok_or_else(|| corrupt_field("<array item>", "number"))?;
            if !(n >= 0.0 && n.fract() == 0.0 && n <= u32::MAX as f64) {
                return Err(PersistError::Corrupt(format!("{n} is not a u32")));
            }
            Ok(n as u32)
        })
        .collect()
}

fn u32_vec(doc: &Json, key: &str) -> Result<Vec<u32>, PersistError> {
    json_u32_vec(doc.get(key).ok_or_else(|| corrupt_field(key, "array"))?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rounds() -> Vec<RoundRecord> {
        vec![
            RoundRecord {
                round: 0,
                runs: vec![
                    (
                        0,
                        vec![
                            EventRecord::Query {
                                sql: "SELECT b FROM t WHERE a = 1".into(),
                            },
                            EventRecord::Vote {
                                approve: vec![1, 2],
                                reject: vec![7],
                            },
                        ],
                    ),
                    (
                        2,
                        vec![EventRecord::Query {
                            sql: "SELECT a FROM t WHERE b = 9".into(),
                        }],
                    ),
                ],
            },
            RoundRecord {
                round: 1,
                runs: vec![(
                    1,
                    vec![EventRecord::Vote {
                        approve: vec![],
                        reject: vec![3],
                    }],
                )],
            },
        ]
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wfit-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn wal_append_scan_round_trips() {
        let dir = temp_dir("roundtrip");
        let (mut wal, scan) = Wal::open_for_append(&dir).unwrap();
        assert_eq!(scan.records.len(), 0);
        for r in sample_rounds() {
            wal.append(&r).unwrap();
        }
        assert_eq!(wal.rounds(), 2);
        let scan = Wal::scan(&dir.join(WAL_FILE)).unwrap();
        assert_eq!(scan.records, sample_rounds());
        assert_eq!(scan.valid_len, scan.file_len);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated_at_every_cut() {
        let dir = temp_dir("torn");
        let (mut wal, _) = Wal::open_for_append(&dir).unwrap();
        let rounds = sample_rounds();
        for r in &rounds {
            wal.append(r).unwrap();
        }
        drop(wal);
        let path = dir.join(WAL_FILE);
        let full = fs::read(&path).unwrap();
        // Find where the final record starts: scan the first record only.
        let first_len = u32::from_le_bytes(full[8..12].try_into().unwrap()) as usize + 12;
        let second_start = 8 + first_len;
        for cut in second_start..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let scan = Wal::scan(&path).unwrap();
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
            assert_eq!(scan.records[0], rounds[0]);
            assert_eq!(scan.valid_len, second_start as u64);
            // Reopening truncates the torn tail and appends cleanly after it.
            let (mut wal, _) = Wal::open_for_append(&dir).unwrap();
            assert_eq!(wal.rounds(), 1);
            wal.append(&RoundRecord {
                round: 1,
                runs: rounds[1].runs.clone(),
            })
            .unwrap();
            drop(wal);
            let rescan = Wal::scan(&path).unwrap();
            assert_eq!(rescan.records.len(), 2, "cut at {cut}");
            assert_eq!(rescan.records[1].runs, rounds[1].runs);
            fs::write(&path, &full).unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_is_corrupt_not_torn() {
        let dir = temp_dir("magic");
        let path = dir.join(WAL_FILE);
        fs::write(&path, b"NOTAWAL!rest").unwrap();
        assert!(matches!(Wal::scan(&path), Err(PersistError::Corrupt(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_save_load_round_trips() {
        let dir = temp_dir("snapshot");
        let snap = Snapshot {
            rounds: 7,
            peak_pending: 12,
            sched_rounds: 7,
            sched_session_runs: 21,
            tenants: vec![TenantSnapshot {
                name: "tenant-0".into(),
                shed: 3,
                deferred: 1,
                rejected: 0,
                cache: None,
                sessions: vec![SessionDigest {
                    label: "wfit".into(),
                    advisor: "WFIT(16)".into(),
                    queries: 42,
                    votes: 2,
                    total_work_bits: 1.5e9_f64.to_bits(),
                    query_cost_bits: 1.25e9_f64.to_bits(),
                    transition_cost_bits: 0.25e9_f64.to_bits(),
                    transitions: 5,
                    recommendation: vec![1, 4],
                    materialized: vec![1],
                    series_len: 42,
                    series_digest: 0x0123_4567_89AB_CDEF,
                }],
            }],
        };
        snap.save(&dir).unwrap();
        let loaded = Snapshot::load(&dir).unwrap().expect("snapshot exists");
        assert_eq!(loaded, snap);
        // No snapshot → Ok(None), not an error.
        let empty = temp_dir("snapshot-empty");
        assert_eq!(Snapshot::load(&empty).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&empty).unwrap();
    }
}
