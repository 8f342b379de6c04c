//! Golden-run regression suite over the deterministic scenario harness.
//!
//! Miniature versions of the paper's Figure 8 (baseline, no feedback),
//! Figure 9 (scripted DBA feedback) and Figure 11 (feedback lag) scenarios —
//! plus the multi-tenant `service-mini` scenario replayed through
//! `crates/service` — are replayed from fixed seeds and their structured
//! `RunReport`s are diffed — within a numeric tolerance — against the
//! snapshots committed under `tests/golden/`.  Any behavioural change to WFIT/WFA⁺/BC/OPT, the
//! workload generator, the cost model or the session loop shows up here as a
//! readable field-level diff.
//!
//! To regenerate the snapshots after an *intentional* behaviour change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test scenarios
//! ```
//!
//! Every run also writes the reports (including wall-clock timing) to
//! `target/scenario-reports/` so CI can upload them as a build artifact.

use harness::{
    run_scenario, run_service_control, run_service_scenario, run_service_scenario_traced,
    scenarios, RunReport, ScenarioSpec,
};
use std::fs;
use std::path::PathBuf;

/// Relative numeric tolerance for golden comparison.  Replays are expected
/// to be bit-deterministic on one platform; the slack only absorbs
/// cross-platform floating-point differences (libm, FMA contraction).
const REL_TOL: f64 = 1e-6;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

fn artifact_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/scenario-reports")
}

fn update_golden_requested() -> bool {
    matches!(std::env::var("UPDATE_GOLDEN"), Ok(v) if !v.is_empty() && v != "0")
}

/// Replay a scenario, export its report for CI, and either regenerate or
/// verify the committed golden snapshot.
fn check_against_golden(spec: ScenarioSpec) -> RunReport {
    let name = spec.name.clone();
    let report = run_scenario(spec);
    check_report_against_golden(&name, report)
}

/// Export a report for CI and regenerate/verify its golden snapshot.
fn check_report_against_golden(name: &str, report: RunReport) -> RunReport {
    let dir = artifact_dir();
    fs::create_dir_all(&dir).expect("create scenario-report dir");
    fs::write(
        dir.join(format!("{name}.json")),
        report.to_json_with_timing(),
    )
    .expect("write scenario report artifact");

    let path = golden_path(name);
    if update_golden_requested() {
        fs::write(&path, report.to_json())
            .unwrap_or_else(|e| panic!("cannot write golden {}: {e}", path.display()));
        eprintln!("regenerated golden snapshot {}", path.display());
    } else {
        let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing/unreadable golden snapshot {} ({e}); \
                 run `UPDATE_GOLDEN=1 cargo test --test scenarios` to create it",
                path.display()
            )
        });
        let diffs = report
            .diff_against_golden(&golden, REL_TOL)
            .expect("golden snapshot parses as JSON");
        assert!(
            diffs.is_empty(),
            "scenario '{name}' deviates from {}:\n  {}\n\
             (if the change is intentional, regenerate with UPDATE_GOLDEN=1)",
            path.display(),
            diffs.join("\n  ")
        );
    }
    report
}

/// Invariants that must hold for every report regardless of the snapshot.
fn sanity(report: &RunReport) {
    assert!(report.opt_total > 0.0);
    assert!(!report.checkpoints.is_empty());
    for cell in &report.cells {
        // OPT is a lower bound on every advisor's schedule.
        assert!(
            report.opt_total <= cell.total_work + 1e-6,
            "{}: OPT {} > total {}",
            cell.label,
            report.opt_total,
            cell.total_work
        );
        assert!(cell.opt_ratio > 0.0 && cell.opt_ratio <= 1.0 + 1e-9);
        assert_eq!(cell.ratio_series.len(), report.checkpoints.len());
        assert!(
            (cell.query_cost + cell.transition_cost - cell.total_work).abs() < 1e-6,
            "{}: cost decomposition must add up",
            cell.label
        );
    }
}

#[test]
fn fig8_mini_matches_golden() {
    let report = check_against_golden(scenarios::fig8_mini());
    sanity(&report);
    assert_eq!(report.cells.len(), 5);
    // The no-index baseline never transitions.
    let noop = report.cell("NO-INDEX").unwrap();
    assert_eq!(noop.transitions, 0);
    assert_eq!(noop.transition_cost, 0.0);
}

#[test]
fn fig9_mini_matches_golden() {
    let report = check_against_golden(scenarios::fig9_mini());
    sanity(&report);
    assert_eq!(report.cells.len(), 4);
    // Prescient votes never hurt relative to adversarial ones.
    let good = report.cell("GOOD").unwrap();
    let bad = report.cell("BAD").unwrap();
    assert!(good.total_work <= bad.total_work + 1e-6);
}

#[test]
fn fig11_mini_matches_golden() {
    let report = check_against_golden(scenarios::fig11_mini());
    sanity(&report);
    assert_eq!(report.cells.len(), 3);
    // A lagged DBA can only transition at acceptance points, so churn is
    // bounded by the number of such points.
    let lag16 = report.cell("LAG 16").unwrap();
    assert!(lag16.transitions <= report.statements / 16);
    // Immediate acceptance is at least as good as the largest lag.
    let immediate = report.cell("WFIT").unwrap();
    assert!(immediate.total_work <= lag16.total_work + 1e-6);
}

#[test]
fn bandit_mini_matches_golden() {
    let report = check_against_golden(scenarios::bandit_mini());
    sanity(&report);
    assert_eq!(report.cells.len(), 5);
    let bandit = report.cell("BANDIT").unwrap();
    let noop = report.cell("NO-INDEX").unwrap();
    // The acceptance bar for the bandit arm: it must beat doing nothing —
    // strictly lower cumulative regret than the naive cell — and its safety
    // gate must actually have fired during the drift phases.
    assert!(
        bandit.regret < noop.regret,
        "bandit regret {} must be strictly below the naive cell's {}",
        bandit.regret,
        noop.regret
    );
    assert!(
        bandit.safety_fallbacks > 0,
        "the safety gate must reject at least one proposal"
    );
    assert!(
        bandit.whatif_calls > 0,
        "exploration must be charged through the TuningEnv accounting"
    );
    // The naive cell has no gate and no exploration to charge.
    assert_eq!(noop.safety_fallbacks, 0);
    // DBA votes ride on top of the model: the voted arm stays a valid cell.
    let voted = report.cell("BANDIT-VOTED").unwrap();
    assert!(voted.regret <= noop.regret);

    // Replay-twice: the whole report renders byte-identically.
    let rerun = run_scenario(scenarios::bandit_mini());
    assert_eq!(report.to_json(), rerun.to_json());
}

#[test]
fn bandit_htap_mini_matches_golden() {
    let report = check_against_golden(scenarios::bandit_htap_mini());
    sanity(&report);
    assert_eq!(report.cells.len(), 4);
    let bandit = report.cell("BANDIT").unwrap();
    // The HTAP mix is the retreat story: the always-index baseline pays
    // maintenance through every transactional phase, so the gated bandit
    // must land strictly below it on cumulative regret *and* total work.
    let all = report.cell("ALL-CAND").unwrap();
    assert!(
        bandit.regret < all.regret,
        "bandit regret {} must beat the always-index cell's {} on the HTAP mix",
        bandit.regret,
        all.regret
    );
    assert!(bandit.total_work < all.total_work);
    // The write-heavy phases are what the gate exists for: deploying into a
    // 45%-update phase must sometimes be rejected as worse than staying put.
    assert!(
        bandit.safety_fallbacks > 0,
        "the HTAP write phases must trip the safety gate"
    );
    // Retreating keeps the bandit within noise of the no-index floor even
    // though it explores; the naive cell never transitions at all.
    let noop = report.cell("NO-INDEX").unwrap();
    assert!(bandit.total_work <= noop.total_work * 1.05);
    assert_eq!(noop.transitions, 0);
}

/// Strip the two cell fields this PR introduced (`regret`,
/// `safety_fallbacks`) from a committed golden snapshot, producing the
/// pre-PR rendering of the same report.
fn strip_bandit_fields(golden: &str) -> String {
    let lines: Vec<&str> = golden
        .lines()
        .filter(|l| !l.contains("\"regret\":") && !l.contains("\"safety_fallbacks\":"))
        .collect();
    let mut out = String::new();
    for (i, line) in lines.iter().enumerate() {
        let mut kept = (*line).to_string();
        // Dropping the last fields of an object leaves a dangling comma on
        // the new last line; remove it so the result stays valid JSON.
        if let Some(next) = lines.get(i + 1) {
            let next_trim = next.trim_start();
            if (next_trim.starts_with('}') || next_trim.starts_with(']'))
                && kept.trim_end().ends_with(',')
            {
                let end = kept.trim_end().len() - 1;
                kept.truncate(end);
            }
        }
        out.push_str(&kept);
        out.push('\n');
    }
    out
}

/// The `regret`/`safety_fallbacks` report additions are purely additive:
/// stripping exactly those lines from a committed golden reconstructs the
/// pre-PR snapshot, and the live report diffs against it with *only*
/// "unexpected in actual" entries for the two new keys — every pre-existing
/// field is untouched.
#[test]
fn report_schema_additions_are_purely_additive() {
    let report = run_scenario(scenarios::fig8_mini());
    let golden = fs::read_to_string(golden_path("fig8-mini")).expect("golden present");
    let stripped = strip_bandit_fields(&golden);
    assert_ne!(stripped, golden, "the golden does carry the new fields");
    let diffs = report
        .diff_against_golden(&stripped, REL_TOL)
        .expect("stripped golden still parses as JSON");
    assert!(!diffs.is_empty());
    for diff in &diffs {
        assert!(
            diff.contains(".regret: unexpected in actual")
                || diff.contains(".safety_fallbacks: unexpected in actual"),
            "only the two new keys may differ from the pre-PR schema: {diff}"
        );
    }
}

#[test]
fn service_mini_matches_golden() {
    let spec = scenarios::service_mini();
    let report = check_report_against_golden(&spec.name.clone(), run_service_scenario(&spec));
    assert_eq!(report.cells.len(), 3 * 3, "3 tenants × 3 sessions");
    let service = report.service.as_ref().expect("service summary present");
    assert_eq!(service.tenants, 3);
    assert_eq!(service.sessions, 9);
    assert_eq!(service.query_events as usize, report.statements);
    assert!(service.vote_events > 0, "scheduled votes must be delivered");
    // The acceptance bar for the shared what-if cache: most requests of the
    // multi-tenant scenario are answered without running the optimizer.
    assert!(
        service.cache_hit_rate > 0.5,
        "shared cache hit rate {} must exceed 0.5",
        service.cache_hit_rate
    );
    for cell in &report.cells {
        // Each tenant's OPT lower-bounds its sessions.
        assert!(
            cell.opt_ratio > 0.0 && cell.opt_ratio <= 1.0 + 1e-9,
            "{}",
            cell.label
        );
        assert!(
            (cell.query_cost + cell.transition_cost - cell.total_work).abs() < 1e-6,
            "{}: cost decomposition must add up",
            cell.label
        );
        assert_eq!(cell.ratio_series.len(), report.checkpoints.len());
    }
}

#[test]
fn service_evict_mini_matches_golden() {
    let spec = scenarios::service_evict_mini();
    let report = check_report_against_golden(&spec.name.clone(), run_service_scenario(&spec));
    let service = report.service.as_ref().expect("service summary present");
    // The scenario's whole point: the capacity is below the working set, so
    // the CLOCK sweep must evict continuously while occupancy stays bounded.
    assert!(
        service.cache_evictions > 0,
        "capacity {} must force evictions",
        scenarios::EVICT_MINI_CACHE_CAPACITY
    );
    assert!(
        service.cache_entries as usize <= 3 * scenarios::EVICT_MINI_CACHE_CAPACITY,
        "3 tenants × {} capacity bounds occupancy, got {}",
        scenarios::EVICT_MINI_CACHE_CAPACITY,
        service.cache_entries
    );
    assert!(service.cache_hit_rate > 0.0 && service.cache_hit_rate < 1.0);

    // Bounding the cache may only change the cache's own counters: every
    // cost-derived metric and every session's what-if calls must equal the
    // unbounded `service-mini` run of the same workload.
    let unbounded = run_service_scenario(&scenarios::service_mini());
    assert_eq!(unbounded.cells.len(), report.cells.len());
    for (u, b) in unbounded.cells.iter().zip(&report.cells) {
        assert_eq!(u.label, b.label);
        assert_eq!(
            u.total_work.to_bits(),
            b.total_work.to_bits(),
            "{}",
            u.label
        );
        assert_eq!(u.ratio_series, b.ratio_series, "{}", u.label);
        assert_eq!(u.transitions, b.transitions, "{}", u.label);
        assert_eq!(u.whatif_calls, b.whatif_calls, "{}", u.label);
    }
    assert_eq!(unbounded.service.as_ref().unwrap().cache_evictions, 0);

    // Determinism: a rerun (parallel workers, eviction and all) renders
    // byte-identical deterministic JSON.
    let rerun = run_service_scenario(&scenarios::service_evict_mini());
    assert_eq!(report.to_json(), rerun.to_json());
}

#[test]
fn service_skew_mini_matches_golden() {
    let spec = scenarios::service_skew_mini();
    let report = check_report_against_golden(&spec.name.clone(), run_service_scenario(&spec));
    assert_eq!(report.cells.len(), 3 * 2, "3 tenants × 2 sessions");
    let service = report.service.as_ref().expect("service summary present");
    assert_eq!(service.tenants, 3);
    assert_eq!(service.workers, 4);
    // The whole point of the scenario: the hot tenant drains whole on one
    // worker, so that worker carries most of the round, and the plan's
    // counters are deterministic (they live in the golden snapshot, so any
    // nondeterminism fails this test across runs).
    assert!(
        service.load_imbalance > 2.0,
        "the hot tenant's backlog sits on one worker: {service:?}"
    );
    // Hot tenant = 8× the cold tenants' events.
    assert_eq!(
        service.max_queue_depth as usize,
        spec.statements_for_tenant(0) + spec.statements_for_tenant(0) / spec.feedback_every,
        "hot tenant queue depth = statements + scheduled votes"
    );
    // The uncached control arm never touches a cache.
    assert_eq!(service.cache_requests, 0);

    // Determinism: a rerun renders byte-identical JSON.
    let rerun = run_service_scenario(&scenarios::service_skew_mini());
    assert_eq!(report.to_json(), rerun.to_json());
}

#[test]
fn service_overload_mini_matches_golden() {
    let spec = scenarios::service_overload_mini();
    let (report, trace) = run_service_scenario_traced(&spec);
    let report = check_report_against_golden(&spec.name.clone(), report);
    assert_eq!(report.cells.len(), 3 * 2, "3 tenants × 2 sessions");
    let service = report.service.as_ref().expect("service summary present");
    assert_eq!(service.per_tenant_depth, scenarios::OVERLOAD_MINI_DEPTH);
    assert_eq!(service.global_depth, scenarios::OVERLOAD_MINI_GLOBAL);
    // The whole point of the scenario: offered load exceeds what the bounds
    // admit, so the gate must reject overflow queries, and scheduled votes
    // landing on full queues must displace (shed) queued queries.
    assert!(
        service.rejected_submits > 0,
        "4× overload must reject: {service:?}"
    );
    assert!(
        service.shed_events > 0,
        "votes on full queues must displace queries: {service:?}"
    );
    // Bounded memory: pending never exceeded the global budget except by
    // over-budget deferred votes (votes are never shed or rejected).
    assert!(
        service.peak_pending <= (scenarios::OVERLOAD_MINI_GLOBAL as u64) + service.deferred_events,
        "peak {} exceeds budget {} + deferred {}",
        service.peak_pending,
        scenarios::OVERLOAD_MINI_GLOBAL,
        service.deferred_events
    );
    // Conservation: every offered event is drained, shed or rejected.
    assert_eq!(
        service.offered_events,
        service.query_events + service.vote_events + service.shed_events + service.rejected_submits
    );

    // Survivor-equality: replaying only the admitted events through an
    // unbounded service reproduces every cost cell bit-for-bit — shedding
    // happens strictly at admission, so a shed event never existed as far
    // as the tuning sessions are concerned.
    let control = run_service_control(&spec, &trace);
    assert_eq!(control.cells.len(), report.cells.len());
    for (b, c) in report.cells.iter().zip(&control.cells) {
        assert_eq!(b.label, c.label);
        assert_eq!(
            b.total_work.to_bits(),
            c.total_work.to_bits(),
            "{}: bounded run and un-shed control replay must agree exactly",
            b.label
        );
        assert_eq!(b.ratio_series, c.ratio_series, "{}", b.label);
        assert_eq!(b.transitions, c.transitions, "{}", b.label);
    }
    let control_svc = control.service.as_ref().unwrap();
    assert_eq!(control_svc.shed_events, 0, "the control arm never sheds");
    assert_eq!(control_svc.rejected_submits, 0);
    assert_eq!(control_svc.query_events, service.query_events);
    assert_eq!(control_svc.vote_events, service.vote_events);

    // Determinism: shed choice is a pure function of submission order, so a
    // rerun renders byte-identical deterministic JSON.
    let rerun = run_service_scenario(&spec);
    assert_eq!(report.to_json(), rerun.to_json());
}

#[test]
fn service_restore_mini_matches_golden() {
    let spec = scenarios::service_restore_mini();
    let report = check_report_against_golden(&spec.name.clone(), run_service_scenario(&spec));
    assert_eq!(report.cells.len(), 2 * 2, "2 tenants × 2 sessions");
    let service = report.service.as_ref().expect("service summary present");
    assert!(service.persist, "the scenario replays with persistence on");
    assert!(
        service.wal_rounds > 0,
        "every drained wave must be WAL-logged"
    );

    // The crash-recovery gate: kill the service between two drain rounds —
    // past a snapshot, with a logged-but-unsnapshotted WAL tail behind it —
    // restore a freshly assembled host from disk, and finish the workload.
    // The recovered run must render the *byte-identical* deterministic
    // report: every cost cell, every cache counter, the WAL-round total.
    let crashed = run_service_scenario(
        &scenarios::service_restore_mini().with_crash_at(scenarios::RESTORE_MINI_CRASH_WAVE),
    );
    assert_eq!(
        report.to_json(),
        crashed.to_json(),
        "a kill-and-restore run must be indistinguishable from an \
         uninterrupted one"
    );

    // And persistence itself never changes a cost: the same workload
    // replayed without the WAL attached agrees on every cost cell.
    let mut in_memory = scenarios::service_restore_mini().with_persist(false);
    in_memory.crash_at = None;
    let plain = run_service_scenario(&in_memory);
    assert_eq!(plain.cells.len(), report.cells.len());
    for (p, d) in plain.cells.iter().zip(&report.cells) {
        assert_eq!(p.label, d.label);
        assert_eq!(
            p.total_work.to_bits(),
            d.total_work.to_bits(),
            "{}: logging must be invisible to the tuning sessions",
            p.label
        );
        assert_eq!(p.ratio_series, d.ratio_series, "{}", p.label);
        assert_eq!(p.transitions, d.transitions, "{}", p.label);
    }
    assert!(!plain.service.as_ref().unwrap().persist);
    assert_eq!(plain.service.as_ref().unwrap().wal_rounds, 0);
}

/// The worker count changes no deterministic field: `service-mini` and
/// `service-evict-mini` drained on one worker and on four render the golden
/// run's JSON byte-identically apart from the echoed `workers` field.  Each
/// tenant drains whole on one worker, so even the bounded cache's
/// hit/eviction split is unchanged.
#[test]
fn worker_count_never_changes_service_goldens() {
    for spec in [scenarios::service_mini(), scenarios::service_evict_mini()] {
        let golden = run_service_scenario(&spec).to_json();
        let echo = format!("\"workers\": {}", spec.workers);
        for workers in [1, 4] {
            let run = run_service_scenario(&spec.clone().with_workers(workers));
            assert_eq!(
                golden,
                run.to_json()
                    .replace(&format!("\"workers\": {workers}"), &echo),
                "{} on {workers} worker(s) must render the golden run apart from \
                 the workers echo",
                spec.name
            );
        }
    }
}

#[test]
fn service_replay_is_deterministic_for_identical_seeds() {
    // Byte-identical deterministic JSON across two full service replays —
    // including the parallel per-tenant workers and the shared-cache
    // hit/miss counters in the service summary.
    let a = run_service_scenario(&scenarios::service_mini());
    let b = run_service_scenario(&scenarios::service_mini());
    assert_eq!(a.to_json(), b.to_json());

    // A different seed must change the outcome (the snapshot is not vacuous).
    let mut spec = scenarios::service_mini();
    spec.seed ^= 1;
    let c = run_service_scenario(&spec);
    assert_ne!(a.to_json(), c.to_json());
}

/// Environment variables are read only at entry points.  Library code under
/// `crates/harness` and `crates/service` reads no environment variable and
/// mentions no knob outside comments; a setting a library needs is an
/// explicit spec or config field.  The bench binaries read
/// `WFIT_PHASE_LEN` and the soak test reads `WFIT_SOAK`.  The guard is
/// two-sided: those entry points must mention *exactly* the canonical knobs,
/// so a knob that is documented but never read, or read but missing from this
/// list, fails the set equality.
#[test]
fn harness_and_service_never_read_env_vars() {
    const KNOB_NAMES: [&str; 2] = ["WFIT_PHASE_LEN", "WFIT_SOAK"];
    assert_eq!(KNOB_NAMES.len(), 2, "the canonical knob list");

    /// Every `.rs` file under `dir`, recursively.
    fn rust_sources(dir: PathBuf) -> Vec<PathBuf> {
        let mut files = Vec::new();
        let mut stack = vec![dir];
        while let Some(d) = stack.pop() {
            for entry in fs::read_dir(&d).expect("source dir readable") {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    files.push(path);
                }
            }
        }
        files
    }

    /// `WFIT_*` tokens mentioned in non-comment code of one file.
    fn knob_tokens(source: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        for line in source.lines() {
            let code = line.split("//").next().unwrap_or("");
            let mut rest = code;
            while let Some(at) = rest.find("WFIT_") {
                let token: String = rest[at..]
                    .chars()
                    .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
                    .collect();
                tokens.push(token);
                rest = &rest[at + 5..];
            }
        }
        tokens
    }

    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));

    // Side one: library code reads no environment variable and mentions no
    // knob outside documentation.
    let mut offenders = Vec::new();
    for crate_dir in ["crates/harness/src", "crates/service/src"] {
        for path in rust_sources(root.join(crate_dir)) {
            let source = fs::read_to_string(&path).expect("source readable");
            for (lineno, line) in source.lines().enumerate() {
                let code = line.split("//").next().unwrap_or("");
                if code.contains("env::var") || KNOB_NAMES.iter().any(|knob| code.contains(knob)) {
                    offenders.push(format!(
                        "{}:{}: {}",
                        path.display(),
                        lineno + 1,
                        line.trim()
                    ));
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "environment variables must only be read at bench/test entry points:\n  {}",
        offenders.join("\n  ")
    );

    // Side two: the entry points that *are* allowed to read the environment
    // — the bench binaries plus the soak test — mention exactly the
    // canonical knob set: no stale knob in the list, no undeclared knob in
    // the entry points.
    let mut entry_points = rust_sources(root.join("crates/bench"));
    entry_points.push(root.join("tests/stress.rs"));
    let mut read_by_entry_points = std::collections::BTreeSet::new();
    for path in entry_points {
        let source = fs::read_to_string(&path).expect("entry-point source readable");
        read_by_entry_points.extend(knob_tokens(&source));
    }
    let canonical: std::collections::BTreeSet<String> =
        KNOB_NAMES.iter().map(|k| k.to_string()).collect();
    assert_eq!(
        read_by_entry_points, canonical,
        "the bench/soak entry points must read exactly the canonical knob set"
    );
}

#[test]
fn replay_is_deterministic_for_identical_seeds() {
    // Two full prepare+run cycles — including the parallel cell replay —
    // must render byte-identical deterministic JSON.
    let a = run_scenario(scenarios::fig8_mini());
    let b = run_scenario(scenarios::fig8_mini());
    assert_eq!(a.to_json(), b.to_json());

    // And a different seed must actually change the outcome (the golden
    // files are not vacuous).
    let mut spec = scenarios::fig8_mini();
    spec.seed ^= 1;
    let c = run_scenario(spec);
    assert_ne!(a.to_json(), c.to_json());
}
