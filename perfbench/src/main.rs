//! Single-caller benchmark of the clustered-VLIW scheduler, the unroll explorer
//! and the audit stack.  See `README.md` in this directory for the workloads, the
//! metrics and how they map onto each other.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload unroll-deep --seed 1 --seconds 45 --trace 0
//! ```
//!
//! One process runs one workload on one thread (the rayon pool is held to one
//! worker).  It sets the workload up three times, then runs a fixed number of
//! whole passes over the workload's fixed population of requests, each pass in a
//! fresh seeded order, timing every request on its own clock and setting the
//! workload up again after each pass.  Rounds of reference work between the
//! requests gauge the host's speed, and every time metric is reported at the
//! reference host's speed.  Outputs are checked after the timed phase.  The last
//! line of standard output is the JSON result.

mod audit;
mod calibrate;
mod digest;
mod host;
mod stats;
mod trace;
mod unroll_deep;
mod workload;

use digest::{fold_records, permutation, Digest};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{share, Workload};

/// How many times a run sets its workload up before the timed phase; it sets up
/// `SETUPS_PER_PASS` more times after every timed pass, and `setup_s` is the
/// median of them all.
const SETUP_REPEATS: usize = 3;
const SETUPS_PER_PASS: usize = 3;

/// A run that has taken this many times its `--seconds` starts no further pass.
const OVERRUN: f64 = 2.5;

/// A pass runs one round of reference work before every this many requests.
const GAUGE_EVERY: usize = 4;

/// Where runs keep their digests, counts, span dumps and host records.
const STATE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/.runs");

/// The workloads, by name.
const WORKLOADS: [&str; 2] = ["unroll-deep", "audit"];

/// Per-layer metrics of the traced run: name, unit, and the end-to-end metric and
/// workload it should move.
const LAYERS: [(&str, &str, &str); 22] = [
    ("workloads.generate_ms", "ms", "setup_s, every workload"),
    ("ddg.mii_us", "us", "request_ms_p50, unroll-deep"),
    ("sms.order_us", "us", "request_ms_p50, unroll-deep"),
    ("metrics.account_us", "us", "request_ms_p50, unroll-deep"),
    ("ddg.unroll_ms", "ms", "requests_per_s, unroll-deep"),
    ("ddg.unrolled_nodes", "count", "requests_per_s, unroll-deep"),
    ("sms.schedule_ms", "ms", "requests_per_s, unroll-deep"),
    ("sms.probes", "count", "requests_per_s, unroll-deep"),
    ("sms.attempts", "count", "requests_per_s, unroll-deep"),
    ("sms.ii_steps", "count", "requests_per_s, unroll-deep"),
    ("sms.probe_ns", "ns", "requests_per_s, unroll-deep"),
    ("sms.ii_step_waste", "ratio", "request_ms_p90, unroll-deep"),
    ("core.explore_ms", "ms", "requests_per_s, unroll-deep"),
    ("core.fixed_sum_ms", "ms", "requests_per_s, unroll-deep"),
    (
        "bench.sweep_overhead_ms",
        "ms",
        "requests_per_s, unroll-deep",
    ),
    (
        "verify.schedule_ms",
        "ms",
        "requests_per_s and request_ms_p90, audit",
    ),
    (
        "lint.solve_ms",
        "ms",
        "requests_per_s and request_ms_p90, audit",
    ),
    (
        "sim.check_ms",
        "ms",
        "requests_per_s and request_ms_p90, audit",
    ),
    (
        "lint.certify_ms",
        "ms",
        "requests_per_s and request_ms_p90, audit",
    ),
    (
        "verify.unroll_audit_ms",
        "ms",
        "requests_per_s and request_ms_p90, audit",
    ),
    (
        "lint.solver_probes",
        "count",
        "certified_exact_share, audit",
    ),
    (
        "lint.solver_exhausted_share",
        "ratio",
        "certified_exact_share, audit",
    ),
];

/// Spans whose self time per request a layer metric reports, with the
/// nanoseconds in one unit of the metric.
const SPAN_LAYERS: [(&str, &str, f64); 12] = [
    ("ddg.mii_us", "ddg.mii", 1e3),
    ("sms.order_us", "sms.order", 1e3),
    ("metrics.account_us", "metrics.account", 1e3),
    ("ddg.unroll_ms", "ddg.unroll", 1e6),
    ("sms.schedule_ms", "sms.schedule", 1e6),
    ("core.explore_ms", "core.explore", 1e6),
    ("core.fixed_sum_ms", "core.fixed", 1e6),
    ("verify.schedule_ms", "verify.schedule", 1e6),
    ("lint.solve_ms", "lint.solve", 1e6),
    ("sim.check_ms", "sim.check", 1e6),
    ("lint.certify_ms", "lint.certify", 1e6),
    ("verify.unroll_audit_ms", "verify.unroll_audit", 1e6),
];

/// The counters that must repeat exactly across traced runs of one build.
const EXACT_COUNTS: [&str; 5] = [
    "sms.probes",
    "sms.attempts",
    "sms.ii_steps",
    "ddg.unrolled_nodes",
    "lint.solver_probes",
];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 45.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One pass over the population.
struct Pass {
    /// Per-request latency, indexed by request id.
    latency_ms: Vec<f64>,
    /// Seconds one round of reference work took during the pass: the median of the
    /// rounds run between its requests.
    gauge_s: f64,
    /// The schedule digest of the pass.
    digest: u64,
    /// Failed requests.
    failed: u64,
}

impl Pass {
    fn busy_s(&self) -> f64 {
        self.latency_ms.iter().sum::<f64>() / 1e3
    }

    /// What turns this pass's times into times at the reference host's speed.
    fn to_reference(&self) -> f64 {
        calibrate::REFERENCE_ROUND_S / self.gauge_s
    }
}

/// Run one pass in the order drawn from `(seed, stream)`, with one untimed round
/// of reference work before every `GAUGE_EVERY` requests and after the last.
/// `keep` collects the outputs (indexed by request id) for the untimed check.
fn run_pass<W: Workload>(
    w: &W,
    seed: u64,
    stream: u64,
    mut tracer: Option<&mut Tracer>,
    keep: Option<&mut Vec<Option<W::Output>>>,
) -> Pass {
    let n = w.population();
    let mut latency_ms = vec![0.0; n];
    let mut records = vec![0u64; n];
    let mut rounds = Vec::new();
    let mut failed = 0;
    let mut kept = keep;
    for (k, id) in permutation(n, seed, stream).into_iter().enumerate() {
        if k % GAUGE_EVERY == 0 {
            rounds.push(calibrate::round_s());
        }
        let start = Instant::now();
        let out = match tracer.as_deref_mut() {
            Some(t) => {
                t.set_request(id as u32);
                w.traced_request(std::hint::black_box(id), t)
            }
            None => w.request(std::hint::black_box(id)),
        };
        let out = std::hint::black_box(out);
        latency_ms[id] = start.elapsed().as_secs_f64() * 1e3;
        let mut d = Digest::default();
        w.record(&out, &mut d);
        records[id] = d.value();
        failed += u64::from(w.failed(&out));
        if let Some(k) = kept.as_deref_mut() {
            k[id] = Some(out);
        }
    }
    rounds.push(calibrate::round_s());
    Pass {
        latency_ms,
        gauge_s: median_of(rounds),
        digest: fold_records(&records),
        failed,
    }
}

/// Compare `value` with what an earlier run of a build from the same sources
/// stored under `name`, storing it when there is nothing to compare with.  Each
/// source fingerprint keeps its own store.  Returns the problem, if any.
fn compare_stored(name: &str, value: &str) -> Option<String> {
    let dir = PathBuf::from(STATE_DIR).join(env!("PERFBENCH_SOURCE_HASH"));
    let path = dir.join(name);
    if let Ok(stored) = std::fs::read_to_string(&path) {
        let stored = stored.trim_end();
        return (stored != value).then(|| {
            format!("{name}: this run read {value}, an earlier run of these sources {stored}")
        });
    }
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(&path, format!("{value}\n"));
    None
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, String);

/// The result of a run, before printing.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Human-readable report lines.
    report: Vec<String>,
    /// Context recorded with the run (host, overhead), as JSON members.
    context: Vec<(String, String)>,
}

fn median_of(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    stats::median(&v).unwrap_or(0.0)
}

/// One set-up of the workload.
struct SetUp {
    /// Seconds it took.
    seconds: f64,
    /// Seconds one round of reference work took around it.
    gauge_s: f64,
    /// Milliseconds of input generation.
    generate_ms: f64,
}

impl SetUp {
    /// Its time at the reference host's speed.
    fn reference_s(&self) -> f64 {
        self.seconds * calibrate::REFERENCE_ROUND_S / self.gauge_s
    }
}

/// Set the workload up once: input generation, machine construction and the
/// warm-up pass, timed from `process_start` if given and otherwise from now.  The
/// host is gauged after the set-up and, when the set-up starts now, before it.
fn set_up<W: Workload>(process_start: Option<Instant>) -> (W, SetUp) {
    let before = process_start.is_none().then(calibrate::gauge);
    let start = process_start.unwrap_or_else(Instant::now);
    let generate = Instant::now();
    let w = W::build();
    let generate_ms = generate.elapsed().as_secs_f64() * 1e3;
    w.warm_up();
    let seconds = start.elapsed().as_secs_f64();
    let after = calibrate::gauge();
    let gauge_s = before.map_or(after, |b| (b + after) / 2.0);
    (
        w,
        SetUp {
            seconds,
            gauge_s,
            generate_ms,
        },
    )
}

/// The number of timed passes of an untraced run: `seconds / W::PASS_S`, at least
/// one, fixed by the budget alone and not by the program's speed.
fn pass_count<W: Workload>(seconds: f64) -> usize {
    ((seconds / W::PASS_S).floor() as usize).max(1)
}

/// The end-to-end metrics.  Every time is taken at the reference host's speed:
/// each pass's latencies are scaled by its own gauge, each set-up by the gauges
/// around it.  Throughput and latency pool every timed pass.
fn end_to_end(
    passes: &[&Pass],
    set_ups: &[SetUp],
    ok_share: f64,
    q: &workload::Quality,
) -> Vec<Metric> {
    let latency_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latency_ms.iter().map(|l| l * p.to_reference()))
        .collect();
    let busy_s = latency_ms.iter().sum::<f64>() / 1e3;
    let percentile = |p: f64| stats::quantile(&latency_ms, p).unwrap_or(0.0);
    let metric = |name: &str, value: f64, unit: &str| (name.to_string(), value, unit.to_string());
    vec![
        metric(
            "setup_s",
            median_of(set_ups.iter().map(SetUp::reference_s)),
            "s",
        ),
        metric("requests_per_s", latency_ms.len() as f64 / busy_s, "1/s"),
        metric("request_ms_p50", percentile(0.5), "ms"),
        metric("request_ms_p90", percentile(0.9), "ms"),
        metric("peak_rss_mb", host::peak_rss_mb(), "MB"),
        metric("ok_share", ok_share, "ratio"),
        metric("ipc", q.ipc, "ops/cycle"),
        metric("slots_per_op", q.slots_per_op, "slots/op"),
        metric("at_mii_share", q.at_mii_share, "ratio"),
        metric("certified_exact_share", q.certified_exact_share, "ratio"),
    ]
}

/// Values joined by spaces, each formatted by `f`.
fn joined(values: impl IntoIterator<Item = f64>, f: impl Fn(f64) -> String) -> String {
    values.into_iter().map(f).collect::<Vec<_>>().join(" ")
}

fn run<W: Workload>(args: &Args, process_start: Instant) -> Outcome {
    let steal_before = host::steal_ticks();
    // `SETUP_REPEATS` set-ups before the timed phase, the first timed from process
    // start, and `SETUPS_PER_PASS` more after every timed pass, so that the set-ups
    // sample the host across the whole run and not only its first second.
    let mut set_ups = Vec::new();
    let mut w = None;
    for k in 0..SETUP_REPEATS {
        let (built, set_up) = set_up::<W>((k == 0).then_some(process_start));
        set_ups.push(set_up);
        w = Some(built);
    }
    let w = w.expect("at least one set-up");
    let mut set_up_again = || {
        for _ in 0..SETUPS_PER_PASS {
            let (again, set_up) = set_up::<W>(None);
            drop(std::hint::black_box(again));
            set_ups.push(set_up);
        }
    };
    let n = w.population();

    // Timed phase: a fixed number of whole passes.  The traced run makes a traced
    // pass between two untraced ones, which bracket it for the overhead.  A run
    // stops early only when it has taken `OVERRUN` times its budget, so that even a
    // much slower program ends in time.
    let phase = Instant::now();
    let mut kept: Vec<Option<W::Output>> = (0..n).map(|_| None).collect();
    let mut passes = vec![run_pass(&w, args.seed, 0, None, Some(&mut kept))];
    set_up_again();
    let mut tracer = None;
    if args.trace {
        let mut t = Tracer::new();
        passes.push(run_pass(&w, args.seed, 1, Some(&mut t), None));
        passes.push(run_pass(&w, args.seed, 2, None, None));
        tracer = Some(t);
    } else {
        let limit = Duration::from_secs_f64(args.seconds * OVERRUN);
        while passes.len() < pass_count::<W>(args.seconds) && phase.elapsed() < limit {
            let stream = passes.len() as u64;
            passes.push(run_pass(&w, args.seed, stream, None, None));
            set_up_again();
        }
    }
    let steal = host::steal_ticks().saturating_sub(steal_before);

    // Untimed output check of the first pass; every pass must agree with it.
    let outs: Vec<W::Output> = kept
        .into_iter()
        .map(|o| o.expect("every request ran"))
        .collect();
    let checked = w.check(&outs);
    drop(outs);
    let mut problems = checked.problems;
    let digest = passes[0].digest;
    if passes.iter().any(|p| p.digest != digest) {
        problems.push("passes over the same inputs produced different schedules".into());
    }
    problems.extend(compare_stored(
        &format!("{}.digest", args.workload),
        &format!("{digest:016x}"),
    ));

    let timed: Vec<&Pass> = if args.trace {
        vec![&passes[0], &passes[2]]
    } else {
        passes.iter().collect()
    };
    let attempted = (n * passes.len()) as u64;
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let mut report = vec![
        format!(
            "perfbench {} seed={} trace={} timed_passes={} latency_samples={} (p90 has {} samples beyond it)",
            args.workload,
            args.seed,
            u8::from(args.trace),
            timed.len(),
            n * timed.len(),
            stats::samples_beyond(n * timed.len(), 0.9),
        ),
        format!(
            "  pass requests/s as measured: {}",
            joined(timed.iter().map(|p| n as f64 / p.busy_s()), |r| format!("{r:.2}"))
        ),
        format!(
            "  pass requests/s at reference speed: {}",
            joined(
                timed.iter().map(|p| n as f64 / p.busy_s() / p.to_reference()),
                |r| format!("{r:.2}")
            )
        ),
        format!(
            "  pass gauges in ms (reference {:.3}): {}",
            calibrate::REFERENCE_ROUND_S * 1e3,
            joined(timed.iter().map(|p| p.gauge_s * 1e3), |g| format!("{g:.3}"))
        ),
        format!(
            "  set-ups in s as measured: {}",
            joined(set_ups.iter().map(|s| s.seconds), |s| format!("{s:.4}"))
        ),
        format!(
            "  set-ups in s at reference speed: {}",
            joined(set_ups.iter().map(SetUp::reference_s), |s| format!("{s:.4}"))
        ),
        format!("  schedule digest: {digest:016x}"),
    ];
    let mut context = vec![
        ("nproc".to_string(), host::nproc().to_string()),
        ("loadavg".to_string(), format!("\"{}\"", host::loadavg())),
        ("steal_ticks".to_string(), steal.to_string()),
        ("digest".to_string(), format!("\"{digest:016x}\"")),
        (
            "pass_gauges_s".to_string(),
            format!(
                "[{}]",
                joined(timed.iter().map(|p| p.gauge_s), json_number).replace(' ', ", ")
            ),
        ),
        (
            "setups_s".to_string(),
            format!(
                "[{}]",
                joined(set_ups.iter().map(|s| s.seconds), json_number).replace(' ', ", ")
            ),
        ),
    ];
    let mut metrics = Vec::new();
    if let Some(t) = &tracer {
        layer_metrics(
            t,
            n,
            median_of(set_ups.iter().map(|s| s.generate_ms)),
            &mut metrics,
            &mut report,
        );
        let totals = t.layer_totals();
        let top_ns = ["bench.sweep", "verify.check_case"]
            .iter()
            .find_map(|name| totals.get(name))
            .map_or(0, |l| l.total_ns);
        // Every time at reference speed, so that a change in the host's speed
        // between the passes does not read as overhead.
        let reference_ms = |p: &Pass| p.busy_s() * 1e3 * p.to_reference();
        let untraced_ms = (reference_ms(&passes[0]) + reference_ms(&passes[2])) / 2.0;
        let traced_ms = reference_ms(&passes[1]);
        let pass_overhead = traced_ms / untraced_ms - 1.0;
        let call_overhead = top_ns as f64 / 1e6 * passes[1].to_reference() / untraced_ms - 1.0;
        report.push(format!(
            "  tracing overhead against the untraced passes: traced pass {:+.1}% (layer calls re-run one by one), traced top-level call {:+.2}% (span bookkeeping)",
            pass_overhead * 100.0,
            call_overhead * 100.0
        ));
        context.push(("trace_pass_overhead".into(), pass_overhead.to_string()));
        context.push(("trace_call_overhead".into(), call_overhead.to_string()));
        let counts: Vec<String> = EXACT_COUNTS
            .iter()
            .map(|c| format!("{c}={}", t.counters().get(c).copied().unwrap_or(0)))
            .collect();
        report.push(format!("  counts: {}", counts.join(" ")));
        problems.extend(compare_stored(
            &format!("{}.counts", args.workload),
            &counts.join(","),
        ));
        let _ = std::fs::create_dir_all(STATE_DIR);
        let _ = std::fs::write(
            PathBuf::from(STATE_DIR).join(format!("trace-{}.jsonl", args.workload)),
            t.to_json_lines(),
        );
    } else {
        let ok_share = 1.0 - share(failed, attempted);
        metrics = end_to_end(&timed, &set_ups, ok_share, &checked.quality);
        for (name, value, unit) in &metrics {
            report.push(format!("  {name:<24} {value:>14.6} {unit}"));
        }
    }
    report.push(format!(
        "  host: nproc={} loadavg={} steal_ticks=+{steal}",
        host::nproc(),
        host::loadavg(),
    ));
    report.extend(problems.iter().take(20).map(|p| format!("  wrong: {p}")));
    if !problems.is_empty() {
        report.push(format!(
            "  {} problem(s): outputs are not correct",
            problems.len()
        ));
    }
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        report,
        context,
    }
}

/// The per-layer metrics of a traced pass of `n` requests.
fn layer_metrics(
    t: &Tracer,
    n: usize,
    generate_ms: f64,
    metrics: &mut Vec<Metric>,
    report: &mut Vec<String>,
) {
    let totals = t.layer_totals();
    let count = |name: &str| t.counters().get(name).copied().unwrap_or(0);
    let self_ns = |span: &str| totals.get(span).map_or(0, |l| l.self_ns);
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    values.insert("workloads.generate_ms", generate_ms);
    for (metric, span, ns_per_unit) in SPAN_LAYERS {
        values.insert(metric, self_ns(span) as f64 / ns_per_unit / n as f64);
    }
    // The sweep request minus its nine jobs scheduled directly.
    let sweep_ns = totals.get("bench.sweep").map_or(0, |l| l.total_ns);
    let jobs_ns = self_ns("core.fixed") + self_ns("core.explore");
    let overhead_ns = if sweep_ns == 0 {
        0.0
    } else {
        sweep_ns as f64 - jobs_ns as f64
    };
    values.insert("bench.sweep_overhead_ms", overhead_ns / 1e6 / n as f64);
    for c in EXACT_COUNTS {
        values.insert(c, count(c) as f64);
    }
    values.insert(
        "sms.probe_ns",
        share(self_ns("sms.schedule"), count("sms.probes")),
    );
    values.insert(
        "sms.ii_step_waste",
        share(
            count("sms.ii_steps").saturating_sub(count("sms.calls")),
            count("sms.ii_steps"),
        ),
    );
    values.insert(
        "lint.solver_exhausted_share",
        share(count("lint.solver_exhausted"), count("lint.solves")),
    );
    report.push(format!(
        "  {:<28} {:>14} {:<6} {:>9} {:>12}  moves",
        "layer", "value", "unit", "calls", "self_ms"
    ));
    for (name, unit, moves) in LAYERS {
        let value = values.get(name).copied().unwrap_or(0.0);
        let span = SPAN_LAYERS
            .iter()
            .find(|(m, ..)| *m == name)
            .map(|(_, s, _)| *s)
            .or((name == "bench.sweep_overhead_ms").then_some("bench.sweep"));
        let (calls, self_ms) = span.and_then(|s| totals.get(s)).map_or_else(
            || ("-".to_string(), "-".to_string()),
            |l| {
                (
                    l.calls.to_string(),
                    format!("{:.3}", l.self_ns as f64 / 1e6),
                )
            },
        );
        report.push(format!(
            "  {name:<28} {value:>14.4} {unit:<6} {calls:>9} {self_ms:>12}  {moves}"
        ));
        metrics.push((name.to_string(), value, unit.to_string()));
    }
}

/// Format a metric value as JSON: every digit as measured, 0 for a non-finite value.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    // One worker: the benchmark is a single caller on a shared box.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "unroll-deep" => run::<unroll_deep::UnrollDeep>(&args, process_start),
        _ => run::<audit::Audit>(&args, process_start),
    };
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    json.push_str("}}");
    // The host record sits next to the metrics as context.
    let mut record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {json}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for (k, v) in &outcome.context {
        let _ = write!(record, ", \"{k}\": {v}");
    }
    record.push('}');
    let _ = std::fs::create_dir_all(STATE_DIR);
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(PathBuf::from(STATE_DIR).join("runs.jsonl"))
    {
        use std::io::Write as _;
        let _ = writeln!(f, "{record}");
    }
    for line in &outcome.report {
        println!("{line}");
    }
    println!("{json}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(latency_ms: Vec<f64>, gauge_s: f64) -> Pass {
        Pass {
            latency_ms,
            gauge_s,
            digest: 0,
            failed: 0,
        }
    }

    fn metric(metrics: &[Metric], name: &str) -> f64 {
        metrics.iter().find(|m| m.0 == name).expect("metric").1
    }

    #[test]
    fn times_are_scaled_to_the_reference_speed_and_pooled() {
        let r = calibrate::REFERENCE_ROUND_S;
        // A pass at reference speed and one on a host running at half speed: the
        // second pass's doubled latencies read the same once scaled.
        let passes = [pass(vec![10.0, 30.0], r), pass(vec![20.0, 60.0], 2.0 * r)];
        let set_ups = [
            SetUp {
                seconds: 0.1,
                gauge_s: r,
                generate_ms: 1.0,
            },
            SetUp {
                seconds: 0.4,
                gauge_s: 2.0 * r,
                generate_ms: 1.0,
            },
            SetUp {
                seconds: 0.9,
                gauge_s: 3.0 * r,
                generate_ms: 1.0,
            },
        ];
        let refs: Vec<&Pass> = passes.iter().collect();
        let m = end_to_end(&refs, &set_ups, 1.0, &workload::Quality::default());
        // Four requests in 80 reference milliseconds.
        assert!((metric(&m, "requests_per_s") - 50.0).abs() < 1e-9);
        // Pooled latencies 10, 10, 30, 30.
        assert!((metric(&m, "request_ms_p50") - 20.0).abs() < 1e-9);
        assert!((metric(&m, "request_ms_p90") - 30.0).abs() < 1e-9);
        // Set-ups at reference speed: 0.1, 0.2, 0.3.
        assert!((metric(&m, "setup_s") - 0.2).abs() < 1e-9);
    }

    #[test]
    fn pass_count_depends_on_the_budget_only() {
        let per_pass = <unroll_deep::UnrollDeep as Workload>::PASS_S;
        assert_eq!(pass_count::<unroll_deep::UnrollDeep>(per_pass * 7.5), 7);
        assert_eq!(pass_count::<unroll_deep::UnrollDeep>(per_pass / 2.0), 1);
    }
}
