//! Structured run reports and golden-file comparison.
//!
//! A [`RunReport`] captures everything the paper's evaluation plots or
//! tabulates — total-work ratio vs. OPT at checkpoints, transition costs,
//! what-if calls, repartitions, recommendation churn — plus wall-clock
//! timing.  Reports serialize to JSON deterministically: the same scenario
//! replayed from the same seed renders byte-identical JSON (timing is kept
//! out of the deterministic rendering; use
//! [`RunReport::to_json_with_timing`] when wall-clock numbers are wanted,
//! e.g. for CI artifacts).

use wfit_core::json::{diff_with_tolerance, Json};

/// Metrics of one (advisor × options) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// The cell's label from the spec.
    pub label: String,
    /// The advisor's self-reported name.
    pub advisor: String,
    /// `totWork(A, Q_N, V)` over the whole workload.
    pub total_work: f64,
    /// Sum of per-statement query costs.
    pub query_cost: f64,
    /// Sum of configuration-transition costs.
    pub transition_cost: f64,
    /// Number of statements after which the adopted configuration changed
    /// (recommendation churn as experienced by the DBA).
    pub transitions: usize,
    /// `totWork(OPT) / totWork(A)` at the end of the workload (1.0 = optimal).
    pub opt_ratio: f64,
    /// The ratio at each checkpoint (the x/y series of the figures).
    pub ratio_series: Vec<(usize, f64)>,
    /// What-if optimizer calls the advisor asked for
    /// ([`wfit_core::IndexAdvisor::whatif_calls`]; 0 where the advisor asks
    /// no optimizer), offline and in a service cell alike.  The session's
    /// charging of each statement is not counted.
    pub whatif_calls: u64,
    /// Number of stable-partition rebuilds (WFIT AUTO only).
    pub repartitions: u64,
    /// Configurations tracked at the end (`Σ_k 2^|C_k|`; WFIT only).
    pub states_tracked: u64,
    /// Indices monitored by the advisor at the end of the run.
    pub monitored: usize,
    /// Size of the final adopted configuration.
    pub final_config_size: usize,
    /// Clamped cumulative regret against OPT at the end of the workload:
    /// `Σ_n max(0, step_n(A) − step_n(OPT))` (see
    /// `advisors::OptSchedule::regret_series`).  Monotone along the run and
    /// computed uniformly for every cell.
    pub regret: f64,
    /// Safety-gate fallbacks reported by the advisor (bandit cells only;
    /// 0 for advisors without a gate).
    pub safety_fallbacks: u64,
    /// Wall-clock time of the cell's run in milliseconds (excluded from the
    /// deterministic JSON rendering).
    pub wall_time_ms: f64,
}

impl CellReport {
    fn to_json(&self, with_timing: bool) -> Json {
        let mut fields = vec![
            ("label", Json::Str(self.label.clone())),
            ("advisor", Json::Str(self.advisor.clone())),
            ("total_work", Json::Num(self.total_work)),
            ("query_cost", Json::Num(self.query_cost)),
            ("transition_cost", Json::Num(self.transition_cost)),
            ("transitions", Json::Num(self.transitions as f64)),
            ("opt_ratio", Json::Num(self.opt_ratio)),
            (
                "ratio_series",
                Json::Arr(
                    self.ratio_series
                        .iter()
                        .map(|&(n, r)| Json::Arr(vec![Json::Num(n as f64), Json::Num(r)]))
                        .collect(),
                ),
            ),
            ("whatif_calls", Json::Num(self.whatif_calls as f64)),
            ("repartitions", Json::Num(self.repartitions as f64)),
            ("states_tracked", Json::Num(self.states_tracked as f64)),
            ("monitored", Json::Num(self.monitored as f64)),
            (
                "final_config_size",
                Json::Num(self.final_config_size as f64),
            ),
            ("regret", Json::Num(self.regret)),
            ("safety_fallbacks", Json::Num(self.safety_fallbacks as f64)),
        ];
        if with_timing {
            fields.push(("wall_time_ms", Json::Num(self.wall_time_ms)));
        }
        Json::obj(fields)
    }
}

/// Service-level metrics of a multi-tenant run (present only for scenarios
/// replayed through `crates/service`).
///
/// The event counts and cache counters are deterministic and belong to the
/// golden-file JSON; the throughput and latency numbers are wall-clock
/// derived and only appear in [`RunReport::to_json_with_timing`].
#[derive(Debug, Clone, Default)]
pub struct ServiceSummary {
    /// Number of tenants the service hosted.
    pub tenants: usize,
    /// Number of tuning sessions across all tenants.
    pub sessions: usize,
    /// Query events processed.
    pub query_events: u64,
    /// DBA-feedback (vote) events processed.
    pub vote_events: u64,
    /// What-if requests against the tenants' shared caches (summed).
    pub cache_requests: u64,
    /// Requests answered from a shared cache (summed).
    pub cache_hits: u64,
    /// `cache_hits / cache_requests` (0.0 when no request was made).
    pub cache_hit_rate: f64,
    /// Entries evicted to honor the shared caches' capacity bounds (summed;
    /// 0 for unbounded runs).
    pub cache_evictions: u64,
    /// Entries resident in the shared caches at the end of the run (summed).
    pub cache_entries: u64,
    /// Worker threads the service was configured with.
    pub workers: usize,
    /// Session-runs scheduled across all drain rounds (deterministic: a
    /// pure function of the queue-depth snapshots).
    pub session_runs: u64,
    /// Largest per-tenant queue depth observed at any drain-round start.
    pub max_queue_depth: u64,
    /// Worst planned per-round load imbalance
    /// (`max_worker_load / ideal_load`; 1.0 = perfectly fair).
    pub load_imbalance: f64,
    /// Per-tenant ingress depth limit the run was admitted under (0 =
    /// unbounded, the historical default).
    pub per_tenant_depth: usize,
    /// Global ingress budget the run was admitted under (0 = unbounded).
    pub global_depth: usize,
    /// Total offered load: every submission attempt, admitted or rejected
    /// (`submitted + rejected` at the ingress).
    pub offered_events: u64,
    /// Queries displaced by vote admissions at full queues (admitted, then
    /// dropped before any drain saw them) — deterministic under the replay
    /// shape, golden-pinned by the overload scenario.
    pub shed_events: u64,
    /// Admissions that parked for capacity or went over budget (unsheddable
    /// votes with nothing to displace).
    pub deferred_events: u64,
    /// Sheddable submissions the admission gate turned away.
    pub rejected_submits: u64,
    /// High-water mark of the global pending count — the memory bound the
    /// admission gate enforced (≤ the caps except for deferred votes).
    pub peak_pending: u64,
    /// Whether the run was replayed with durable persistence (snapshot +
    /// WAL) attached.  Deterministic: a crash-and-restore run and the
    /// uninterrupted run render the same value.
    pub persist: bool,
    /// Drain rounds recorded in the event WAL by the end of the run (0 with
    /// persistence off).  Restore replays logged rounds and keeps appending
    /// to the same log, so this total is identical whether or not the run
    /// was interrupted — which is what lets it live in the golden files.
    pub wal_rounds: u64,
    /// Events processed per wall-clock second (timing JSON only).
    pub events_per_sec: f64,
    /// Median per-event latency in microseconds (timing JSON only).
    pub latency_p50_us: u64,
    /// 99th-percentile per-event latency in microseconds (timing JSON only).
    pub latency_p99_us: u64,
    /// Per-tenant median latency in microseconds, indexed by tenant id
    /// (timing JSON only) — skewed workloads hide hot-tenant tail latency
    /// in the global percentile.
    pub tenant_latency_p50_us: Vec<u64>,
    /// Per-tenant 99th-percentile latency in microseconds, indexed by
    /// tenant id (timing JSON only).
    pub tenant_latency_p99_us: Vec<u64>,
}

impl ServiceSummary {
    fn to_json(&self, with_timing: bool) -> Json {
        let mut fields = vec![
            ("tenants", Json::Num(self.tenants as f64)),
            ("sessions", Json::Num(self.sessions as f64)),
            ("query_events", Json::Num(self.query_events as f64)),
            ("vote_events", Json::Num(self.vote_events as f64)),
            ("cache_requests", Json::Num(self.cache_requests as f64)),
            ("cache_hits", Json::Num(self.cache_hits as f64)),
            ("cache_hit_rate", Json::Num(self.cache_hit_rate)),
            ("cache_evictions", Json::Num(self.cache_evictions as f64)),
            ("cache_entries", Json::Num(self.cache_entries as f64)),
            ("workers", Json::Num(self.workers as f64)),
            ("session_runs", Json::Num(self.session_runs as f64)),
            ("max_queue_depth", Json::Num(self.max_queue_depth as f64)),
            ("load_imbalance", Json::Num(self.load_imbalance)),
            ("per_tenant_depth", Json::Num(self.per_tenant_depth as f64)),
            ("global_depth", Json::Num(self.global_depth as f64)),
            ("offered_events", Json::Num(self.offered_events as f64)),
            ("shed_events", Json::Num(self.shed_events as f64)),
            ("deferred_events", Json::Num(self.deferred_events as f64)),
            ("rejected_submits", Json::Num(self.rejected_submits as f64)),
            ("peak_pending", Json::Num(self.peak_pending as f64)),
            ("persist", Json::Bool(self.persist)),
            ("wal_rounds", Json::Num(self.wal_rounds as f64)),
        ];
        if with_timing {
            let latencies = |samples: &[u64]| {
                Json::Arr(samples.iter().map(|&us| Json::Num(us as f64)).collect())
            };
            fields.push(("events_per_sec", Json::Num(self.events_per_sec)));
            fields.push(("latency_p50_us", Json::Num(self.latency_p50_us as f64)));
            fields.push(("latency_p99_us", Json::Num(self.latency_p99_us as f64)));
            fields.push((
                "tenant_latency_p50_us",
                latencies(&self.tenant_latency_p50_us),
            ));
            fields.push((
                "tenant_latency_p99_us",
                latencies(&self.tenant_latency_p99_us),
            ));
        }
        Json::obj(fields)
    }
}

/// The structured result of replaying one scenario.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scenario name.
    pub scenario: String,
    /// Workload seed the scenario was replayed from.
    pub seed: u64,
    /// Number of statements in the workload.
    pub statements: usize,
    /// Size of the offline candidate set.
    pub candidates: usize,
    /// Number of parts in the offline stable partition.
    pub partition_parts: usize,
    /// Total work of the OPT oracle (the `OPT = 1` normalizer).  For
    /// multi-tenant service runs this is the **sum** of the per-tenant OPT
    /// totals; each cell's `opt_ratio` is still relative to its own tenant.
    pub opt_total: f64,
    /// Checkpoint positions shared by every cell's ratio series.
    pub checkpoints: Vec<usize>,
    /// One report per cell, in spec order.
    pub cells: Vec<CellReport>,
    /// Service-level metrics (multi-tenant runs only).
    pub service: Option<ServiceSummary>,
}

impl RunReport {
    /// Deterministic JSON rendering (timing excluded) — the golden-file
    /// format.  Identical seeds produce identical strings.
    ///
    /// Panics if a metric is non-finite: the JSON writer rejects NaN/Inf on
    /// the write path (silent placeholders would corrupt golden files), and
    /// a non-finite metric is always a harness bug worth failing loudly on.
    pub fn to_json(&self) -> String {
        self.json_value(false)
            .render()
            .expect("run report contains a non-finite metric")
    }

    /// JSON rendering including per-cell wall-clock timing (for CI
    /// artifacts and overhead studies; NOT stable across runs).
    pub fn to_json_with_timing(&self) -> String {
        self.json_value(true)
            .render()
            .expect("run report contains a non-finite metric")
    }

    fn json_value(&self, with_timing: bool) -> Json {
        let mut fields = vec![
            ("scenario", Json::Str(self.scenario.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("statements", Json::Num(self.statements as f64)),
            ("candidates", Json::Num(self.candidates as f64)),
            ("partition_parts", Json::Num(self.partition_parts as f64)),
            ("opt_total", Json::Num(self.opt_total)),
            (
                "checkpoints",
                Json::Arr(
                    self.checkpoints
                        .iter()
                        .map(|&c| Json::Num(c as f64))
                        .collect(),
                ),
            ),
            (
                "cells",
                Json::Arr(self.cells.iter().map(|c| c.to_json(with_timing)).collect()),
            ),
        ];
        if let Some(service) = &self.service {
            fields.push(("service", service.to_json(with_timing)));
        }
        Json::obj(fields)
    }

    /// Find a cell by label.
    pub fn cell(&self, label: &str) -> Option<&CellReport> {
        self.cells.iter().find(|c| c.label == label)
    }

    /// Compare this report against a golden JSON document within a relative
    /// numeric tolerance.  Returns the differences (empty = match).
    pub fn diff_against_golden(&self, golden: &str, rel_tol: f64) -> Result<Vec<String>, String> {
        let expected = Json::parse(golden).map_err(|e| format!("golden file: {e}"))?;
        let actual = Json::parse(&self.to_json()).expect("own rendering parses");
        Ok(diff_with_tolerance(&expected, &actual, rel_tol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            scenario: "s".into(),
            seed: 42,
            statements: 16,
            candidates: 7,
            partition_parts: 3,
            opt_total: 1000.5,
            checkpoints: vec![8, 16],
            service: None,
            cells: vec![CellReport {
                label: "WFIT".into(),
                advisor: "WFIT-fixed".into(),
                total_work: 1100.25,
                query_cost: 1000.25,
                transition_cost: 100.0,
                transitions: 2,
                opt_ratio: 0.909,
                ratio_series: vec![(8, 0.88), (16, 0.909)],
                whatif_calls: 64,
                repartitions: 0,
                states_tracked: 12,
                monitored: 5,
                final_config_size: 3,
                regret: 99.75,
                safety_fallbacks: 4,
                wall_time_ms: 1.5,
            }],
        }
    }

    #[test]
    fn deterministic_json_excludes_timing() {
        let r = sample();
        let text = r.to_json();
        assert!(!text.contains("wall_time_ms"));
        assert!(r.to_json_with_timing().contains("wall_time_ms"));
        // The regret/safety counters are deterministic and golden-pinned.
        assert!(text.contains("\"regret\": 99.75"));
        assert!(text.contains("\"safety_fallbacks\": 4"));
        // Re-rendering is byte-identical.
        assert_eq!(text, r.to_json());
    }

    #[test]
    fn report_round_trips_and_diffs_clean_against_itself() {
        let r = sample();
        let diffs = r.diff_against_golden(&r.to_json(), 1e-9).unwrap();
        assert!(diffs.is_empty(), "{diffs:?}");
    }

    #[test]
    fn diff_catches_metric_regression() {
        let r = sample();
        let mut worse = sample();
        worse.cells[0].total_work *= 1.10;
        let diffs = worse.diff_against_golden(&r.to_json(), 1e-6).unwrap();
        assert!(diffs.iter().any(|d| d.contains("total_work")), "{diffs:?}");
    }

    #[test]
    fn service_summary_renders_deterministic_and_timing_fields() {
        let mut r = sample();
        r.service = Some(ServiceSummary {
            tenants: 3,
            sessions: 9,
            query_events: 96,
            vote_events: 6,
            cache_requests: 1000,
            cache_hits: 700,
            cache_hit_rate: 0.7,
            cache_evictions: 42,
            cache_entries: 64,
            workers: 4,
            session_runs: 9,
            max_queue_depth: 34,
            load_imbalance: 1.25,
            per_tenant_depth: 8,
            global_depth: 20,
            offered_events: 120,
            shed_events: 3,
            deferred_events: 1,
            rejected_submits: 14,
            peak_pending: 20,
            persist: true,
            wal_rounds: 17,
            events_per_sec: 123.4,
            latency_p50_us: 10,
            latency_p99_us: 50,
            tenant_latency_p50_us: vec![9, 11, 10],
            tenant_latency_p99_us: vec![40, 60, 50],
        });
        let stable = r.to_json();
        assert!(stable.contains("cache_hit_rate"));
        // Eviction and scheduler counters are deterministic and belong to
        // the golden rendering.
        assert!(stable.contains("cache_evictions") && stable.contains("cache_entries"));
        assert!(stable.contains("session_runs") && stable.contains("load_imbalance"));
        assert!(stable.contains("\"workers\": 4"));
        // Admission-gate counters are pure functions of submission order and
        // belong to the golden rendering too.
        assert!(stable.contains("shed_events") && stable.contains("rejected_submits"));
        assert!(stable.contains("peak_pending") && stable.contains("per_tenant_depth"));
        // Persistence counters are deterministic (the WAL-round total is the
        // same whether or not the run was interrupted mid-way).
        assert!(stable.contains("\"persist\": true") && stable.contains("wal_rounds"));
        // Wall-clock service metrics never reach the golden-file rendering.
        assert!(!stable.contains("events_per_sec"));
        assert!(!stable.contains("latency_p99_us"));
        let timing = r.to_json_with_timing();
        assert!(timing.contains("events_per_sec") && timing.contains("latency_p99_us"));
        assert!(timing.contains("tenant_latency_p99_us"));
        let diffs = r.diff_against_golden(&stable, 1e-9).unwrap();
        assert!(diffs.is_empty(), "{diffs:?}");
    }

    #[test]
    fn cell_lookup_by_label() {
        let r = sample();
        assert!(r.cell("WFIT").is_some());
        assert!(r.cell("nope").is_none());
    }
}
