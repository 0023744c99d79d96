//! The hot in-process store path: closed-loop threads on
//! `ShardedStore::{get,increment}` over a small Zipf-skewed keyspace,
//! with the default `HotShard` policy, while the calling thread runs
//! `maintenance()` on a fixed tick.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use adaptive_service::{ServiceConfig, ShardSnapshot, ShardedStore};

use crate::report::{Outcome, SETUPS};
use crate::stats;
use crate::trace::{maybe_span, Recorder, Trace};
use crate::util::{zipf_cdf, zipf_sample, Rng};

/// Closed-loop worker threads.
const WORKERS: usize = 2;
/// Keys in the (small) keyspace.
const KEYS: usize = 1_024;
/// Zipf exponent of the key distribution.
const ZIPF_S: f64 = 1.1;
/// Ops per worker stream; the stream is replayed cyclically.
const STREAM: usize = 1 << 16;
/// One op in this many is timed; the rest run bare.
const SAMPLE_EVERY: u64 = 32;
/// When tracing, one op in this many is recorded as a span (which keeps
/// a traced run's spans in the hundreds of thousands).
const SPAN_EVERY: u64 = 256;
/// `store.p99_ns` is the median over chunks of this many timed ops of
/// each chunk's p99 (see [`stats::chunked_percentile`]).
const P99_CHUNK: usize = 5_000;
/// Interval at which the calling thread runs `maintenance()`.
const TICK: Duration = Duration::from_millis(10);
/// Throughput is taken per window of this many ticks.
const WINDOW_TICKS: u32 = 10;
/// `snapshots()` is called once per this many ticks.
const SNAPSHOT_TICKS: u32 = 50;

#[derive(Default)]
struct WorkerOut {
    ops: u64,
    incrs: u64,
    failed: u64,
    /// Latency of every timed op, in the order they ran.
    lat_ns: Vec<f64>,
    /// Whether each timed op was an increment.
    is_incr: Vec<bool>,
    rec: Option<Recorder>,
}

fn build() -> ShardedStore {
    let store = ShardedStore::new(ServiceConfig::default());
    for k in 0..KEYS as u64 {
        store.put(k, 0);
    }
    store
}

/// `(key, is_incr)` stream of worker `w`. Key `k` is the `k`-th most
/// popular for every worker and every seed: which keys are hot, and so
/// which shards they hash to, stays fixed, while the seed draws the
/// sequence of keys and ops. (With the hot set drawn from the seed
/// too, which shards share the hottest keys changed with the seed, and
/// every store metric with it.)
fn stream(seed: u64, w: usize) -> Vec<(u64, bool)> {
    let cdf = zipf_cdf(KEYS, ZIPF_S);
    let mut rng = Rng::new(seed, 0x0F5 + w as u64);
    (0..STREAM)
        .map(|_| (zipf_sample(&cdf, &mut rng), rng.below(2) == 1))
        .collect()
}

/// One op; returns whether its reply is possible (every key is
/// prefilled, so a `get` must find it, and an incremented counter is at
/// least 1).
fn op(store: &ShardedStore, key: u64, incr: bool) -> bool {
    if incr {
        store.increment(key, 1) >= 1
    } else {
        store.get(key).is_some()
    }
}

fn work(
    store: &ShardedStore,
    ops: &[(u64, bool)],
    stop: &AtomicBool,
    count: &AtomicU64,
    mut rec: Option<Recorder>,
) -> WorkerOut {
    let mut out = WorkerOut::default();
    let mut i = 0u64;
    while !stop.load(Ordering::Relaxed) {
        for _ in 0..256 {
            let (key, incr) = ops[(i as usize) & (STREAM - 1)];
            let t0 = i.is_multiple_of(SAMPLE_EVERY).then(Instant::now);
            let ok = match rec.as_mut() {
                Some(r) if i.is_multiple_of(SPAN_EVERY) => r.span(
                    if incr { "store.increment" } else { "store.get" },
                    0,
                    0,
                    || op(store, key, incr),
                ),
                _ => op(store, key, incr),
            };
            if let Some(t0) = t0 {
                out.lat_ns.push(t0.elapsed().as_nanos() as f64);
                out.is_incr.push(incr);
            }
            out.incrs += u64::from(incr);
            out.failed += u64::from(!ok);
            i += 1;
        }
        out.ops += 256;
        count.store(out.ops, Ordering::Relaxed);
    }
    out.rec = rec;
    out
}

/// What a run of the workers against one store measured.
struct Measured {
    workers: Vec<WorkerOut>,
    /// Ops per second in each `WINDOW_TICKS` window after warm-up.
    window_rates: Vec<f64>,
    maint_us: Vec<f64>,
    snaps: Vec<ShardSnapshot>,
    splits: u64,
    shards: usize,
    total: u128,
}

/// Drive `store` with every worker's stream for `seconds` (the first
/// 5% is warm-up), the calling thread ticking `maintenance()`.
fn measure(
    store: &ShardedStore,
    streams: &[Vec<(u64, bool)>],
    seconds: f64,
    mut recs: Vec<Option<Recorder>>,
    tick_rec: &mut Option<Recorder>,
) -> Measured {
    let stop = AtomicBool::new(false);
    let counts: Vec<AtomicU64> = (0..streams.len()).map(|_| AtomicU64::new(0)).collect();
    let warmup = Duration::from_secs_f64((seconds * 0.05).min(0.5));
    let measure = Duration::from_secs_f64(seconds) - warmup;
    let mut window_rates = Vec::new();
    let mut maint_us = Vec::new();
    let workers: Vec<WorkerOut> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .zip(&counts)
            .zip(recs.drain(..))
            .map(|((ops, count), rec)| {
                let stop = &stop;
                s.spawn(move || work(store, ops, stop, count, rec))
            })
            .collect();
        let total = || {
            counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .sum::<u64>()
        };
        std::thread::sleep(warmup);
        let t0 = Instant::now();
        let (mut last_t, mut last_n) = (t0, total());
        let mut tick = 0u32;
        while t0.elapsed() < measure {
            std::thread::sleep(TICK);
            tick += 1;
            let m0 = Instant::now();
            maybe_span(tick_rec.as_mut(), "store.maintenance", 0, 0, || {
                store.maintenance()
            });
            maint_us.push(m0.elapsed().as_nanos() as f64 / 1e3);
            if tick.is_multiple_of(SNAPSHOT_TICKS) {
                maybe_span(tick_rec.as_mut(), "store.snapshots", 0, 0, || {
                    store.snapshots()
                });
            }
            if tick.is_multiple_of(WINDOW_TICKS) {
                let (now, n) = (Instant::now(), total());
                window_rates.push((n - last_n) as f64 / (now - last_t).as_secs_f64());
                (last_t, last_n) = (now, n);
            }
        }
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("store worker panicked"))
            .collect()
    });
    let snaps = maybe_span(tick_rec.as_mut(), "store.snapshots", 0, 0, || {
        store.snapshots()
    });
    Measured {
        workers,
        window_rates,
        maint_us,
        snaps,
        splits: store.splits(),
        shards: store.shard_count(),
        total: store.total(),
    }
}

/// Run the path for about `seconds`, adding spans to `trace` when set.
pub fn run(seed: u64, seconds: f64, mut trace: Option<&mut Trace>, epoch: Instant) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_times = Vec::new();
    let mut store = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        store = Some(build());
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    out.setup_s = stats::median(&setup_times).unwrap_or(0.0);
    let store = store.expect("at least one set-up");
    let streams: Vec<Vec<(u64, bool)>> = (0..WORKERS).map(|w| stream(seed, w)).collect();
    let tracing = trace.is_some();
    let mut tick_rec = tracing.then(|| Recorder::new(epoch, 2));
    let recs = (0..WORKERS)
        .map(|w| tracing.then(|| Recorder::new(epoch, 3 + w as u64)))
        .collect();
    let ep = measure(&store, &streams, seconds, recs, &mut tick_rec);

    let (mut get_ns, mut incr_ns, mut in_order) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ops, mut incrs, mut failed) = (0u64, 0u64, 0u64);
    for w in ep.workers {
        ops += w.ops;
        incrs += w.incrs;
        failed += w.failed;
        for (&ns, &incr) in w.lat_ns.iter().zip(&w.is_incr) {
            if incr { &mut incr_ns } else { &mut get_ns }.push(ns);
        }
        in_order.extend(w.lat_ns);
        if let (Some(t), Some(r)) = (trace.as_deref_mut(), w.rec) {
            t.absorb(r);
        }
    }
    if let (Some(t), Some(r)) = (trace, tick_rec) {
        t.absorb(r);
    }

    let all = stats::sorted(in_order.clone());
    let n = all.len() as u64;
    out.e2e(
        "store.ops_per_s",
        "1/s",
        stats::median(&ep.window_rates).unwrap_or(0.0),
        ep.window_rates.len() as u64,
    );
    if let Some(m) = out.end_to_end.last_mut() {
        m.note = "median over 100 ms windows".into();
    }
    // The median op moved between runs by up to a fifth of its value,
    // more than the throughput or the chunked p99 did; it is reported
    // per layer.
    out.layer(
        "store.p50_ns",
        "ns",
        stats::percentile(&all, 50.0).unwrap_or(0.0),
        n,
    );
    out.e2e(
        "store.p99_ns",
        "ns",
        stats::chunked_percentile(&in_order, P99_CHUNK, 99.0).unwrap_or(0.0),
        n,
    );
    if let Some(m) = out.end_to_end.last_mut() {
        m.note = format!(
            "median over {} chunks of {P99_CHUNK} of each chunk's p99",
            in_order.len() / P99_CHUNK
        );
    }

    let (get_ns, incr_ns) = (stats::sorted(get_ns), stats::sorted(incr_ns));
    out.layer(
        "store.get_ns.p50",
        "ns",
        stats::percentile(&get_ns, 50.0).unwrap_or(0.0),
        get_ns.len() as u64,
    );
    out.layer(
        "store.incr_ns.p50",
        "ns",
        stats::percentile(&incr_ns, 50.0).unwrap_or(0.0),
        incr_ns.len() as u64,
    );
    out.layer(
        "store.incr_ns.p99",
        "ns",
        stats::percentile(&incr_ns, 99.0).unwrap_or(0.0),
        incr_ns.len() as u64,
    );
    let maint = stats::sorted(ep.maint_us);
    out.layer(
        "store.maintenance_us.p50",
        "us",
        stats::percentile(&maint, 50.0).unwrap_or(0.0),
        maint.len() as u64,
    );
    out.layer("store.splits", "count", ep.splits as f64, 1);
    out.layer("store.shards", "count", ep.shards as f64, 1);

    let sum = |f: fn(&ShardSnapshot) -> u64| ep.snaps.iter().map(f).sum::<u64>();
    let acq = sum(|s| s.acquisitions);
    let per_acq = |v: u64| v as f64 / acq.max(1) as f64;
    let shards = ep.snaps.len() as u64;
    out.layer(
        "shardlock.contended_ratio",
        "ratio",
        per_acq(sum(|s| s.contended)),
        acq,
    );
    out.layer(
        "shardlock.parked_ratio",
        "ratio",
        per_acq(sum(|s| s.parked)),
        acq,
    );
    out.layer(
        "shardlock.combined_ratio",
        "ratio",
        per_acq(sum(|s| s.combined_ops)),
        acq,
    );
    out.layer(
        "shardlock.reconfigurations",
        "count",
        sum(|s| s.reconfigurations) as f64,
        shards,
    );
    out.layer(
        "shardlock.algorithm_switches",
        "count",
        sum(|s| s.algorithm_switches) as f64,
        shards,
    );
    let hottest = ep.snaps.iter().map(|s| s.acquisitions).max().unwrap_or(0);
    out.layer("shardlock.hot_share", "ratio", per_acq(hottest), shards);

    out.check(
        "store: total equals acknowledged incr count",
        ep.total == u128::from(incrs),
        format!("total {}, acknowledged {incrs}", ep.total),
    );
    out.attempted += ops;
    out.failed += failed;
    out.fact("store.workers", WORKERS);
    out.fact("store.keys", KEYS);
    out.fact("store.zipf_s", ZIPF_S);
    out.fact("store.sample_every", SAMPLE_EVERY);
    out.fact("store.ops", ops);
    let rates: Vec<String> = ep
        .window_rates
        .iter()
        .map(|r| format!("{:.2}", r / 1e6))
        .collect();
    out.fact("store.window_mops", rates.join(","));
    out
}
