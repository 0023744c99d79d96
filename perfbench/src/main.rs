//! End-to-end and per-layer benchmark of the adaptive-object stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tcp-serve|store-hot|tsp-solve|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Three paths are measured through their public calls: a TCP request
//! to the served store ([`tcp`]), an in-process store op ([`store`]) and
//! a TSP solve ([`tsp`]). Every run drives all three, so every metric
//! exists on every workload; the workload names the path that gets a
//! full-length pass, and the other two run half-length passes of the
//! same protocol. A change aimed at one path should move that path's
//! metrics and leave the others where they were.
//!
//! The end-to-end metrics are the ones that hold from run to run on a
//! small shared host: CPU per TCP request, store throughput and p99,
//! TSP median solve time, set-up time and the share of operations that
//! were correct. Latency medians and tails of the TCP path, its
//! capacity, the store median and the TSP tail move with hypervisor
//! steal by more than a regression bound can absorb, and are reported
//! with the per-layer metrics.
//!
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it records spans around every public call, prints the
//! per-layer metrics (counters, per-layer self time, and the tracing
//! overhead against an untraced pass of the workload's own path) and
//! writes the spans under `perfbench/out/`. The last line of standard
//! output is the result object; the exit code is non-zero when any
//! correctness check fails.

mod report;
mod stats;
mod store;
mod tcp;
mod trace;
mod tsp;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{json_num, json_str, metric, result_line, Metric, Outcome};
use trace::Trace;

/// Shares of `--seconds` a full-length pass of the TCP and the store
/// path gets.
const TCP_SHARE: f64 = 0.5;
const STORE_SHARE: f64 = 0.4;
/// Solves in a full-length TSP pass of a 36-second run (scaled with
/// `--seconds`). Set by a count rather than a time so that the tail
/// percentile it supports (p95 at 240 solves, p90 at 120) is the same
/// on every run and on every commit.
const TSP_SOLVES_PER_36_S: f64 = 240.0;
/// Length of the other paths' passes, relative to the workload's own.
const COMPANION_SCALE: f64 = 0.5;

/// The three measured paths, in the order a run executes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Tcp,
    Store,
    Tsp,
}

impl Path {
    const ALL: [Path; 3] = [Path::Tcp, Path::Store, Path::Tsp];

    fn workload(self) -> &'static str {
        match self {
            Path::Tcp => "tcp-serve",
            Path::Store => "store-hot",
            Path::Tsp => "tsp-solve",
        }
    }

    fn from_workload(name: &str) -> Option<Path> {
        Path::ALL.into_iter().find(|p| p.workload() == name)
    }

    /// One pass of the path, `scale` times full length.
    fn run(
        self,
        seed: u64,
        seconds: f64,
        scale: f64,
        trace: Option<&mut Trace>,
        epoch: Instant,
    ) -> Outcome {
        match self {
            Path::Tcp => tcp::run(seed, seconds * TCP_SHARE * scale, trace, epoch),
            Path::Store => store::run(seed, seconds * STORE_SHARE * scale, trace, epoch),
            Path::Tsp => {
                let solves = TSP_SOLVES_PER_36_S * seconds / 36.0 * scale;
                tsp::run(seed, solves.round() as usize, trace, epoch)
            }
        }
    }

    /// The path's headline cost, higher = slower: what the tracing
    /// overhead ratio compares between a traced and an untraced pass.
    fn cost(self, out: &Outcome) -> f64 {
        let get = |name: &str| {
            out.end_to_end
                .iter()
                .chain(&out.per_layer)
                .find(|m| m.name == name)
                .map_or(f64::NAN, |m| m.value)
        };
        match self {
            Path::Tcp => get("tcp.cpu_us_per_req"),
            Path::Store => 1.0 / get("store.ops_per_s"),
            Path::Tsp => get("tsp.solve_p50_ms"),
        }
    }
}

/// Parsed command line.
struct Args {
    workloads: Vec<Path>,
    seed: u64,
    seconds: u32,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value:?}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<u32>()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds must be 1..=600, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = match workload.as_str() {
        "all" => Path::ALL.to_vec(),
        w => vec![Path::from_workload(w).ok_or_else(|| format!("unknown workload {w:?}"))?],
    };
    Ok(Args {
        workloads,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(36),
        trace: trace.unwrap_or(false),
    })
}

/// One workload's complete result.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Metrics of the other mode, shown to people but not in the
    /// result object.
    extra: Vec<Metric>,
    checks: Vec<report::Check>,
    facts: Vec<(String, String)>,
}

fn run_workload(
    primary: Path,
    seed: u64,
    seconds: u32,
    traced: bool,
    out_dir: &std::path::Path,
) -> RunResult {
    let total = f64::from(seconds);
    let epoch = Instant::now();
    let mut trace = Trace::default();
    let mut outcomes = Vec::new();
    // A traced run first measures its own path untraced, for the
    // overhead ratio, then every path traced; its own path's full
    // length is split between the two passes.
    let own_scale = if traced { 0.5 } else { 1.0 };
    let reference = traced.then(|| primary.run(seed, total, own_scale, None, epoch));
    for path in Path::ALL {
        let scale = if path == primary {
            own_scale
        } else {
            COMPANION_SCALE
        };
        let out = path.run(seed, total, scale, traced.then_some(&mut trace), epoch);
        outcomes.push((path, out, scale));
    }

    let mut e2e = Vec::new();
    let mut layer = Vec::new();
    let (mut attempted, mut failed, mut setup_s) = (0u64, 0u64, 0.0);
    let mut checks = Vec::new();
    let mut facts = vec![
        ("workload".to_string(), primary.workload().to_string()),
        ("seed".to_string(), seed.to_string()),
        ("seconds".to_string(), seconds.to_string()),
        ("trace".to_string(), traced.to_string()),
        (
            "nproc".to_string(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
    ];
    for (path, out, scale) in &outcomes {
        facts.push((
            format!("{}.pass_scale", path.workload()),
            format!("{scale}"),
        ));
        e2e.extend(out.end_to_end.iter().cloned());
        layer.extend(out.per_layer.iter().cloned());
        attempted += out.attempted;
        failed += out.failed;
        setup_s += out.setup_s;
        checks.extend(out.checks.iter().cloned());
        facts.extend(out.facts.iter().cloned());
    }
    // Each failed check counts as one more failed operation.
    attempted += checks.len() as u64;
    failed += checks.iter().filter(|c| !c.ok).count() as u64;
    if let Some(reference) = &reference {
        attempted += reference.attempted + reference.checks.len() as u64;
        failed += reference.failed + reference.checks.iter().filter(|c| !c.ok).count() as u64;
        checks.extend(reference.checks.iter().map(|c| report::Check {
            name: format!("untraced pass: {}", c.name),
            ..c.clone()
        }));
    }
    let setups = (report::SETUPS * Path::ALL.len()) as u64;
    e2e.insert(0, metric("setup_s", "s", setup_s, setups));
    if let Some(m) = e2e.first_mut() {
        m.note = format!(
            "sum over the paths of each one's median of {} set-ups",
            report::SETUPS
        );
    }
    e2e.insert(
        1,
        metric(
            "ok_ratio",
            "ratio",
            1.0 - failed as f64 / attempted.max(1) as f64,
            attempted,
        ),
    );

    if traced {
        let primary_out = &outcomes
            .iter()
            .find(|(p, ..)| *p == primary)
            .expect("primary ran")
            .1;
        let base = reference.as_ref().map_or(f64::NAN, |r| primary.cost(r));
        layer.push(metric(
            "trace.overhead_ratio",
            "ratio",
            primary.cost(primary_out) / base,
            2,
        ));
        let self_times = trace.self_times();
        for name in trace::SPAN_NAMES {
            let t = self_times.get(name).copied().unwrap_or_default();
            let mut m = metric(
                &format!("trace.self_us.{name}"),
                "us",
                t.mean_self_us(),
                t.count,
            );
            m.note = format!(
                "self {:.3} ms of {:.3} ms over {} spans",
                t.self_ns as f64 / 1e6,
                t.total_ns as f64 / 1e6,
                t.count
            );
            layer.push(m);
        }
        let path = out_dir.join(format!("{}-seed{seed}.spans.tsv", primary.workload()));
        match trace.write_tsv(&path) {
            Ok(()) => facts.push((
                "spans".into(),
                format!("{} spans in {}", trace.len(), path.display()),
            )),
            Err(e) => facts.push(("spans".into(), format!("not written: {e}"))),
        }
    }

    let (metrics, extra) = if traced { (layer, e2e) } else { (e2e, layer) };
    let correct = failed == 0 && checks.iter().all(|c| c.ok);
    RunResult {
        correct,
        attempted,
        failed,
        metrics,
        extra,
        checks,
        facts,
    }
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("  {title}:");
    for m in metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  [{}]", m.note)
        };
        println!(
            "    {:<34} {:>16.4} {:<6} n={}{note}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// The run's facts, checks and every metric with its sample count, as
/// one JSON object (printed and written beside the spans).
fn meta_json(r: &RunResult) -> String {
    let facts: Vec<String> = r
        .facts
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let checks: Vec<String> = r
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                json_str(&c.name),
                c.ok,
                json_str(&c.detail)
            )
        })
        .collect();
    let samples: Vec<String> = r
        .metrics
        .iter()
        .chain(&r.extra)
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}, \"note\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                m.samples,
                json_str(&m.note)
            )
        })
        .collect();
    format!(
        "{{\"facts\": {{{}}}, \"checks\": [{}], \"metrics\": {{{}}}}}",
        facts.join(", "),
        checks.join(", "),
        samples.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <tcp-serve|store-hot|tsp-solve|all> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut all_correct = true;
    for primary in &args.workloads {
        let r = run_workload(*primary, args.seed, args.seconds, args.trace, &out_dir);
        all_correct &= r.correct;
        println!(
            "workload {} (seed {}, {} s, trace {})",
            primary.workload(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        for (k, v) in &r.facts {
            println!("  {k}: {v}");
        }
        for c in &r.checks {
            println!(
                "  check {}: {} ({})",
                if c.ok { "ok" } else { "FAILED" },
                c.name,
                c.detail
            );
        }
        let (shown, other) = if args.trace {
            ("per-layer", "end-to-end (traced run)")
        } else {
            ("end-to-end", "per-layer (untraced run)")
        };
        print_table(shown, &r.metrics);
        print_table(other, &r.extra);
        let meta = meta_json(&r);
        let file = out_dir.join(format!(
            "{}-seed{}-trace{}.json",
            primary.workload(),
            args.seed,
            u8::from(args.trace)
        ));
        if let Err(e) =
            std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&file, &meta))
        {
            eprintln!("perfbench: could not write {}: {e}", file.display());
        }
        println!("meta {meta}");
        println!(
            "{}",
            result_line(r.correct, r.attempted, r.failed, &r.metrics)
        );
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
