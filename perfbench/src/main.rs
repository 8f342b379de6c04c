//! `perfbench` — the WFIT tuning-service benchmark.
//!
//! ```text
//! perfbench --workload <drift|live-durable> --seed <n> --seconds <s> --trace <0|1>
//!           [--phase-len <statements per phase>] [--out <dir>]
//! ```
//!
//! Sets the workload up several times (generation, offline selection, OPT,
//! service assembly, persistence), then repeats measured passes for
//! `--seconds`.  Every pass drains the workload through a fresh service,
//! snapshots it, and restores a fresh host from disk.  With `--trace 0` the
//! passes are untraced and the end-to-end metrics are printed; with
//! `--trace 1` untraced and traced passes alternate and the per-layer
//! metrics are printed, and the spans of the last traced pass are written
//! to `<out>/<workload>-seed<n>.spans.csv`.  Every run checks the outputs;
//! the last line of standard output is one JSON object.
//!
//! `<out>` defaults to `$CARGO_TARGET_DIR/perfbench`, or `target/perfbench`
//! under the working directory, resolved when the program starts.

mod run;
mod shape;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use run::{bit_equal, run_pass, start_service, Pass};
use shape::{prepare, SetupTimes, Shape, Tenant};
use stats::{median, peak_rss_mb, percentile};
use trace::{self_times, Kind, Span, Tracer, NONE};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    phase_len: Option<usize>,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut phase_len = None;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--phase-len" => phase_len = Some(number(&value)? as usize),
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let out = out.unwrap_or_else(|| {
        std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target"))
            .join("perfbench")
    });
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
        phase_len,
        out,
    })
}

/// Metrics in print order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

/// Checks that failed; the run is correct when this stays empty.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

/// Set the workload up `SETUP_REPS` times; returns the last preparation,
/// every rep's wall time and the per-stage medians.
fn set_up(shape: &Shape, args: &Args) -> (Vec<Tenant>, Vec<f64>, SetupTimes) {
    let mut walls = Vec::new();
    let mut stages = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let (tenants, times) = prepare(shape, args.seed);
        let (svc, _, dir) = start_service(shape, &tenants, args.seed, None, &args.out);
        walls.push(start.elapsed().as_secs_f64());
        drop(svc);
        let _ = std::fs::remove_dir_all(dir);
        stages.push(times);
        last = Some(tenants);
    }
    let stage = |f: fn(&SetupTimes) -> f64| median(&stages.iter().map(f).collect::<Vec<_>>());
    let times = SetupTimes {
        generate_s: stage(|t| t.generate_s),
        selection_s: stage(|t| t.selection_s),
        opt_s: stage(|t| t.opt_s),
    };
    (last.expect("at least one set-up"), walls, times)
}

/// Checks every pass must meet, plus agreement with the first pass.
fn check_pass(checks: &mut Checks, pass: &Pass, first: &Pass, what: &str) {
    checks.require(pass.persist_errors.is_empty(), || {
        format!("{what}: persistence failed: {:?}", pass.persist_errors)
    });
    checks.require(pass.restored_equal, || {
        format!("{what}: restored cost series differ from the live ones")
    });
    checks.require(pass.report.events == pass.events, || {
        format!(
            "{what}: drained {} of {} events",
            pass.report.events, pass.events
        )
    });
    let ing = &pass.ingress;
    checks.require(
        ing.submitted == ing.drained + ing.shed && ing.pending == 0,
        || format!("{what}: ingress ledger does not reconcile: {ing:?}"),
    );
    for cell in &pass.cells {
        let sum = cell.query_cost + cell.transition_cost;
        // The two components are summed separately from the total, so they
        // agree to rounding, not bit for bit.
        checks.require(
            (sum - cell.total_work).abs() <= 1e-9 * cell.total_work.abs().max(1.0),
            || {
                format!(
                    "{what}: t{}/{}: query {} + transition {} != total {}",
                    cell.tenant, cell.label, cell.query_cost, cell.transition_cost, cell.total_work
                )
            },
        );
    }
    // Traced passes are checked against the first untraced one here too.
    checks.require(bit_equal(&pass.cells, &first.cells), || {
        format!("{what}: cost cells differ from the first untraced pass")
    });
    checks.require(
        pass.cache.optimizer_calls == first.cache.optimizer_calls,
        || {
            format!(
                "{what}: optimizer calls {} != {} in the first pass",
                pass.cache.optimizer_calls, first.cache.optimizer_calls
            )
        },
    );
}

/// Σ OPT total work over Σ session total work, one OPT term per session.
fn work_ratio(pass: &Pass, tenants: &[Tenant]) -> f64 {
    let opt: f64 = pass.cells.iter().map(|c| tenants[c.tenant].opt.total).sum();
    let alg: f64 = pass.cells.iter().map(|c| c.total_work).sum();
    opt / alg
}

fn statements(tenants: &[Tenant]) -> usize {
    tenants.iter().map(|t| t.statements.len()).sum()
}

fn end_to_end(
    shape: &Shape,
    tenants: &[Tenant],
    setup_walls: &[f64],
    passes: &[Pass],
    ratio: f64,
) -> Metrics {
    let values = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<_>>();
    // Contention from other tenants of the host only ever slows a pass, and
    // it comes and goes within a run.  So a run reports the lower quartile
    // of its per-pass times (the upper quartile of rates), which holds still
    // until three passes in four are slowed; the median pass moved by up to
    // 30% between runs of the same code.
    let time = |f: &dyn Fn(&Pass) -> f64| percentile(&values(f), 0.25);
    let rate = |f: &dyn Fn(&Pass) -> f64| percentile(&values(f), 0.75);
    let latency = |p: &Pass, q: f64| p.report.latency_percentile_us(q) as f64;
    println!(
        "# {}: {} passes; per pass {} latency and {} freshness samples",
        shape.name,
        passes.len(),
        passes[0].report.latencies_us.len(),
        passes[0].freshness_ms.len()
    );
    vec![
        ("setup_s".into(), median(setup_walls), "s"),
        (
            "drain_events_per_s".into(),
            rate(&|p| p.events as f64 / p.drain_s),
            "1/s",
        ),
        (
            "event_latency_p50_us".into(),
            time(&|p| latency(p, 0.50)),
            "us",
        ),
        (
            "event_latency_p99_us".into(),
            time(&|p| latency(p, 0.99)),
            "us",
        ),
        (
            "freshness_p50_ms".into(),
            time(&|p| percentile(&p.freshness_ms, 0.50)),
            "ms",
        ),
        (
            "freshness_p99_ms".into(),
            time(&|p| percentile(&p.freshness_ms, 0.99)),
            "ms",
        ),
        ("restore_s".into(), time(&|p| p.restore_s), "s"),
        (
            "optimizer_calls_per_stmt".into(),
            passes[0].cache.optimizer_calls as f64 / statements(tenants) as f64,
            "count",
        ),
        ("work_ratio".into(), ratio, "share"),
        (
            "wal_bytes_per_event".into(),
            median(&values(&|p| {
                (p.wal_bytes + p.snapshot_bytes) as f64 / p.events as f64
            })),
            "bytes",
        ),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
    ]
}

/// Per-layer sums over one traced pass's spans.
#[derive(Default, Clone)]
struct Layers {
    poll_s: f64,
    poll_self_s: f64,
    poll_rounds: f64,
    analyze_s: f64,
    analyze_calls: f64,
    feedback_s: f64,
    wfa_self_s: f64,
    advisors_self_s: f64,
    ibg_self_s: f64,
    ibg_builds: f64,
    ibg_nodes: f64,
    whatif_s: f64,
    whatif_calls: f64,
    submits: f64,
    submit_us: Vec<f64>,
    snapshot_s: f64,
    snapshots: f64,
    /// Per session label: analyze seconds, analyze calls, feedback seconds.
    per_label: Vec<(f64, f64, f64)>,
}

fn layers(shape: &Shape, spans: &[Span]) -> Layers {
    let selfs = self_times(spans);
    let mut l = Layers {
        per_label: vec![(0.0, 0.0, 0.0); shape.fleet.len()],
        ..Layers::default()
    };
    for (span, &own) in spans.iter().zip(&selfs) {
        let dur = span.dur_ns() as f64 * 1e-9;
        let own = own as f64 * 1e-9;
        match span.kind {
            Kind::Poll => {
                l.poll_s += dur;
                l.poll_self_s += own;
                l.poll_rounds += 1.0;
            }
            Kind::Analyze => {
                l.analyze_s += dur;
                l.analyze_calls += 1.0;
                if shape.fleet[span.label as usize].is_wfit() {
                    l.wfa_self_s += own;
                } else {
                    l.advisors_self_s += own;
                }
                let slot = &mut l.per_label[span.label as usize];
                slot.0 += dur;
                slot.1 += 1.0;
            }
            Kind::Feedback => {
                l.feedback_s += dur;
                l.per_label[span.label as usize].2 += dur;
            }
            Kind::Ibg => {
                l.ibg_self_s += own;
                l.ibg_builds += 1.0;
                l.ibg_nodes += f64::from(span.count);
            }
            Kind::Whatif => {
                l.whatif_s += dur;
                l.whatif_calls += 1.0;
            }
            Kind::Submit => {
                l.submits += 1.0;
                l.submit_us.push(dur * 1e6);
            }
            Kind::Snapshot => {
                l.snapshot_s += dur;
                l.snapshots += 1.0;
            }
        }
    }
    l
}

fn write_spans(path: &Path, shape: &Shape, spans: &[Span]) -> std::io::Result<()> {
    let mut text = String::from("id,name,label,start_ns,end_ns,parent,event,count\n");
    for (i, s) in spans.iter().enumerate() {
        let label = match s.kind {
            Kind::Analyze | Kind::Feedback => shape.fleet[s.label as usize].label(),
            _ => "",
        };
        let parent = if s.parent == NONE {
            String::new()
        } else {
            s.parent.to_string()
        };
        let event = if s.event == trace::NO_EVENT {
            String::new()
        } else {
            format!("{}:{}", s.event >> 32, s.event & 0xFFFF_FFFF)
        };
        let _ = writeln!(
            text,
            "{i},{},{label},{},{},{parent},{event},{}",
            s.kind.name(),
            s.start_ns,
            s.end_ns,
            s.count
        );
    }
    std::fs::write(path, text)
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    shape: &Shape,
    tenants: &[Tenant],
    times: &SetupTimes,
    plain: &[Pass],
    traced: &[Pass],
    checks: &mut Checks,
    spans_path: &Path,
) -> Metrics {
    let all: Vec<Layers> = traced.iter().map(|p| layers(shape, &p.spans)).collect();
    let first = &all[0];
    for (i, l) in all.iter().enumerate() {
        checks.require(
            l.ibg_builds == first.ibg_builds
                && l.ibg_nodes == first.ibg_nodes
                && l.analyze_calls == first.analyze_calls
                && l.whatif_calls == first.whatif_calls,
            || format!("traced pass {i}: IBG/analyze/what-if counts differ from the first"),
        );
    }
    let m = |f: &dyn Fn(&Layers) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
    let traced_drain = median(&traced.iter().map(|p| p.drain_s).collect::<Vec<_>>());
    let plain_drain = median(&plain.iter().map(|p| p.drain_s).collect::<Vec<_>>());
    let lag: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.lag_ms.iter().copied())
        .collect();
    let submit_us: Vec<f64> = all
        .iter()
        .flat_map(|l| l.submit_us.iter().copied())
        .collect();
    let last = traced.last().expect("at least one traced pass");
    let max_part = tenants
        .iter()
        .flat_map(|t| t.selection.partition.iter().map(|p| p.len()))
        .max()
        .unwrap_or(0);
    let cache = &last.cache;

    for (s, advisor) in shape.fleet.iter().enumerate() {
        println!(
            "# session.{}.analyze_s={} analyze_calls={} feedback_s={}",
            advisor.label(),
            m(&|l| l.per_label[s].0),
            first.per_label[s].1,
            m(&|l| l.per_label[s].2),
        );
    }
    match write_spans(spans_path, shape, &last.spans) {
        Ok(()) => println!("# spans: {}", spans_path.display()),
        Err(e) => checks
            .0
            .push(format!("writing {}: {e}", spans_path.display())),
    }

    vec![
        ("workload.generate_s".into(), times.generate_s, "s"),
        (
            "candidates.offline_selection_s".into(),
            times.selection_s,
            "s",
        ),
        ("opt.compute_optimal_s".into(), times.opt_s, "s"),
        ("session.analyze_s".into(), m(&|l| l.analyze_s), "s"),
        ("session.analyze_calls".into(), first.analyze_calls, "count"),
        ("session.feedback_s".into(), m(&|l| l.feedback_s), "s"),
        ("wfa.self_s".into(), m(&|l| l.wfa_self_s), "s"),
        ("wfa.max_part".into(), max_part as f64, "count"),
        ("advisors.self_s".into(), m(&|l| l.advisors_self_s), "s"),
        ("ibg.build_s".into(), m(&|l| l.ibg_self_s), "s"),
        ("ibg.builds".into(), first.ibg_builds, "count"),
        ("ibg.nodes".into(), first.ibg_nodes, "count"),
        ("whatif.s".into(), m(&|l| l.whatif_s), "s"),
        ("whatif.calls".into(), first.whatif_calls, "count"),
        ("cache.hit_rate".into(), cache.hit_rate(), "share"),
        ("cache.evictions".into(), cache.evictions as f64, "count"),
        (
            "optimizer.calls".into(),
            cache.optimizer_calls as f64,
            "count",
        ),
        ("service.poll_s".into(), m(&|l| l.poll_s), "s"),
        ("service.poll_rounds".into(), m(&|l| l.poll_rounds), "count"),
        ("service.self_s".into(), m(&|l| l.poll_self_s), "s"),
        ("ingress.submits".into(), first.submits, "count"),
        (
            "ingress.submit_us_p99".into(),
            percentile(&submit_us, 0.99),
            "us",
        ),
        (
            "ingress.generator_lag_p99_ms".into(),
            percentile(&lag, 0.99),
            "ms",
        ),
        ("persist.snapshot_s".into(), m(&|l| l.snapshot_s), "s"),
        ("persist.snapshots".into(), m(&|l| l.snapshots), "count"),
        (
            "persist.wal_bytes".into(),
            median(
                &traced
                    .iter()
                    .map(|p| p.wal_bytes as f64)
                    .collect::<Vec<_>>(),
            ),
            "bytes",
        ),
        (
            "persist.restore_rounds".into(),
            median(
                &traced
                    .iter()
                    .map(|p| p.restore_rounds as f64)
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        (
            "trace.overhead_share".into(),
            traced_drain / plain_drain - 1.0,
            "share",
        ),
        (
            "trace.unattributed_share".into(),
            m(&|l| l.poll_self_s / l.poll_s),
            "share",
        ),
    ]
}

fn render(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(shape) = Shape::named(&args.workload, args.phase_len) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {:?})",
            args.workload,
            shape::WORKLOADS
        );
        std::process::exit(2);
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        std::process::exit(2);
    }

    let (tenants, setup_walls, times) = set_up(&shape, &args);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    loop {
        plain.push(run_pass(&shape, &tenants, args.seed, None, &args.out));
        if args.trace {
            let tracer = Tracer::new();
            traced.push(run_pass(
                &shape,
                &tenants,
                args.seed,
                Some(&tracer),
                &args.out,
            ));
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    let mut checks = Checks::default();
    let first = &plain[0];
    for (i, pass) in plain.iter().chain(&traced).enumerate() {
        check_pass(&mut checks, pass, first, &format!("pass {i}"));
    }
    let ratio = work_ratio(first, &tenants);
    checks.require(ratio > 0.0 && ratio <= 1.0, || {
        format!("work_ratio {ratio} outside (0, 1]")
    });
    let metrics = if args.trace {
        let spans_path = args
            .out
            .join(format!("{}-seed{}.spans.csv", shape.name, args.seed));
        per_layer(
            &shape,
            &tenants,
            &times,
            &plain,
            &traced,
            &mut checks,
            &spans_path,
        )
    } else {
        end_to_end(&shape, &tenants, &setup_walls, &plain, ratio)
    };
    for (name, value, _) in &metrics {
        checks.require(value.is_finite(), || format!("{name} is not finite"));
    }

    let passes = plain.iter().chain(&traced);
    let attempted: u64 = passes.clone().map(|p| p.events).sum();
    let failed: u64 = passes
        .map(|p| p.ingress.rejected + p.ingress.shed + p.faulted_events)
        .sum();
    for failure in &checks.0 {
        eprintln!("perfbench: check failed: {failure}");
    }
    let correct = checks.0.is_empty();
    let line = render(correct, attempted, failed, &metrics);
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "{line}");
    let _ = stdout.flush();
    if !correct {
        std::process::exit(1);
    }
}
