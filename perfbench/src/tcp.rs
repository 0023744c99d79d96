//! The served-store path: an open loop over loopback TCP against
//! `asyncx::net::serve_store`.
//!
//! Two generator threads each drive one data connection on a fixed
//! schedule (a request is due every `1/rate` seconds whether or not the
//! previous reply has arrived), so latency is measured from each
//! request's *due* time and a stalled server shows up as lateness of
//! the requests queued behind the stall. The load runs at two fixed
//! rates (`lo`, `mid`) and then climbs a geometric ladder until a rung
//! misses the p99 limit or builds a backlog.

use std::sync::Arc;
use std::time::{Duration, Instant};

use adaptive_control::{BreakerHub, ControlPlane};
use adaptive_service::{ServiceConfig, ShardedStore};
use asyncx::{serve_store, BlockingLineClient, StoreServerConfig, StoreServerHandle};

use crate::report::{Outcome, SETUPS};
use crate::stats::{self, Rung};
use crate::trace::{maybe_span, Recorder, Trace};
use crate::util::{nanos_since, process_cpu_ns, sleep_until, Rng};

/// Keys prefilled into the served store.
const KEYS: u64 = 100_000;
/// Data connections, each driven by its own generator thread.
const CONNECTIONS: usize = 2;
/// Worker threads of the serving runtime.
const SERVER_WORKERS: usize = 2;
/// Total offered rates of the two fixed steps, requests per second.
const LO_RPS: f64 = 1_000.0;
const MID_RPS: f64 = 3_000.0;
/// The fixed steps run as alternating blocks of these lengths, so a
/// slow spell of the host lands on both rates alike. A `lo` block holds
/// 1,000 requests and a `mid` block 1,500: enough for a p99 with ten
/// samples beyond it in every block.
const LO_BLOCK_S: f64 = 1.0;
const MID_BLOCK_S: f64 = 0.5;
/// p99s are taken per chunk of this many requests and the median chunk
/// reported (see [`stats::chunked_percentile`]): short chunks, so that
/// a run has many and a stall spoils few of them.
const P99_CHUNK: usize = 500;
/// Ladder rungs grow by this factor from `MID_RPS`.
const LADDER_FACTOR: f64 = 1.1;
/// Most ladder rungs a run climbs.
const MAX_RUNGS: usize = 12;
/// The ladder's time is planned for this many rungs; capacity is
/// usually found within them.
const PLANNED_RUNGS: f64 = 6.0;
/// The latency limit a rate must meet at p99.
const P99_LIMIT_US: f64 = 2_000.0;
/// Lateness growth, µs, that [`stats::backlogged`] tolerates on top of
/// doubling.
const BACKLOG_SLACK_US: f64 = 200.0;
/// On connection 0, one request in this many is `ctl health shard-0`.
const CTL_EVERY: u64 = 100;

/// Time split of the path, derived from its share of the run.
struct Budget {
    warmup_s: f64,
    /// Alternating `lo`/`mid` block pairs.
    pairs: usize,
    rung_s: f64,
}

impl Budget {
    fn of(seconds: f64) -> Budget {
        Budget {
            warmup_s: (seconds * 0.03).min(0.5),
            pairs: ((seconds * 0.55 / (LO_BLOCK_S + MID_BLOCK_S)) as usize).max(2),
            rung_s: seconds * 0.42 / PLANNED_RUNGS,
        }
    }
}

/// What a request asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Get(u64),
    Incr(u64),
    Health,
    Retune,
}

impl Op {
    fn line(self) -> String {
        match self {
            Op::Get(k) => format!("get {k}"),
            Op::Incr(k) => format!("incr {k} 1"),
            Op::Health => "ctl health shard-0".into(),
            Op::Retune => "ctl retune shard-0 spin 0".into(),
        }
    }

    fn is_ctl(self) -> bool {
        matches!(self, Op::Health | Op::Retune)
    }
}

/// One request as it happened, ns since its block started.
#[derive(Debug, Clone, Copy)]
struct Req {
    op: Op,
    due: u64,
    sent: u64,
    done: u64,
    /// Transport error, error frame, or a reply that fails its check.
    failed: bool,
    transport_error: bool,
    acked_incr: bool,
}

/// The value key `k` is prefilled with.
fn initial(seed: u64, k: u64) -> u64 {
    Rng::new(seed, k.wrapping_add(1 << 40)).below(1_000)
}

struct Rig {
    handle: StoreServerHandle,
    conns: Vec<BlockingLineClient>,
    prefill_sum: u128,
}

fn build_rig(seed: u64) -> std::io::Result<Rig> {
    let store = Arc::new(ShardedStore::new(ServiceConfig::default()));
    let hub = Arc::new(BreakerHub::default());
    store.register_with_hub(Arc::clone(&hub));
    let mut prefill_sum = 0u128;
    for k in 0..KEYS {
        let v = initial(seed, k);
        store.put(k, v);
        prefill_sum += u128::from(v);
    }
    let handle = serve_store(
        store,
        StoreServerConfig {
            workers: SERVER_WORKERS,
            plane: Some(ControlPlane::new(Arc::clone(&hub))),
            hub: Some(hub),
            ..StoreServerConfig::default()
        },
    )?;
    let conns = (0..CONNECTIONS)
        .map(|_| BlockingLineClient::connect(handle.addr()))
        .collect::<std::io::Result<Vec<_>>>()?;
    Ok(Rig {
        handle,
        conns,
        prefill_sum,
    })
}

fn tear_down(rig: Rig) -> bool {
    drop(rig.conns);
    rig.handle.shutdown(Duration::from_secs(5))
}

/// Check a reply against what the request may legally return; returns
/// `(failed, acknowledged_incr)`.
fn judge(seed: u64, op: Op, reply: &std::io::Result<Result<String, String>>) -> (bool, bool) {
    let body = match reply {
        Err(_) => return (true, false),
        Ok(Err(_)) => return (true, false),
        Ok(Ok(body)) => body,
    };
    match op {
        // Values only grow from their prefill.
        Op::Get(k) => match body.trim().parse::<u64>() {
            Ok(v) => (v < initial(seed, k), false),
            Err(_) => (true, false),
        },
        Op::Incr(k) => match body.trim().parse::<u64>() {
            Ok(v) if v > initial(seed, k) => (false, true),
            _ => (true, false),
        },
        Op::Health | Op::Retune => (body.is_empty(), false),
    }
}

/// One connection's share of one block.
#[allow(clippy::too_many_arguments)]
fn drive(
    conn: &mut BlockingLineClient,
    seed: u64,
    conn_no: usize,
    block_no: usize,
    rate: f64,
    secs: f64,
    start: Instant,
    retune_at_half: bool,
    mut rec: Option<&mut Recorder>,
) -> Vec<Req> {
    let per_conn = rate / CONNECTIONS as f64;
    let interval = 1e9 / per_conn;
    let n = (per_conn * secs).round().max(1.0) as u64;
    let offset = interval * conn_no as f64 / CONNECTIONS as f64;
    let mut rng = Rng::new(seed, ((block_no as u64) << 8) | conn_no as u64);
    let step_span = rec.as_deref_mut().map(|r| (r.open(), r.now()));
    let parent = step_span.map_or(0, |(id, _)| id);
    let mut reqs = Vec::with_capacity(n as usize);
    for i in 0..n {
        let key = rng.below(KEYS);
        let op = if conn_no == 0 && retune_at_half && i == n / 2 {
            Op::Retune
        } else if conn_no == 0 && rng.below(CTL_EVERY) == 0 {
            Op::Health
        } else if rng.below(10) == 0 {
            Op::Incr(key)
        } else {
            Op::Get(key)
        };
        let due = (offset + interval * i as f64) as u64;
        if nanos_since(start) < due {
            maybe_span(rec.as_deref_mut(), "loadgen.wait", parent, 0, || {
                sleep_until(start, due)
            });
        }
        let request = ((block_no as u64) << 40 | (conn_no as u64) << 32 | i) + 1;
        let name = if op.is_ctl() { "ctl.send" } else { "net.send" };
        let sent = nanos_since(start);
        let reply = maybe_span(rec.as_deref_mut(), name, parent, request, || {
            conn.send(&op.line())
        });
        let done = nanos_since(start);
        let (failed, acked_incr) = judge(seed, op, &reply);
        reqs.push(Req {
            op,
            due,
            sent,
            done,
            failed,
            transport_error: reply.is_err(),
            acked_incr,
        });
    }
    if let (Some(r), Some((id, t0))) = (rec, step_span) {
        r.close(id, "loadgen.step", t0, 0, 0);
    }
    reqs
}

/// Everything measured at one offered rate: one block, or several
/// blocks of the same rate interleaved with another's.
struct Step {
    name: String,
    rate: f64,
    blocks: Vec<Vec<Req>>,
    cpu_ns: u64,
}

impl Step {
    fn reqs(&self) -> impl Iterator<Item = &Req> {
        self.blocks.iter().flatten()
    }

    fn data(&self) -> impl Iterator<Item = &Req> {
        self.reqs().filter(|r| !r.op.is_ctl())
    }

    /// Due-to-reply latency of every data request, in time order.
    fn latency_us(&self) -> Vec<f64> {
        self.data().map(|r| (r.done - r.due) as f64 / 1e3).collect()
    }

    fn p50_us(&self) -> f64 {
        stats::percentile(&stats::sorted(self.latency_us()), 50.0).unwrap_or(f64::INFINITY)
    }

    fn p99_us(&self) -> f64 {
        stats::chunked_percentile(&self.latency_us(), P99_CHUNK, 99.0).unwrap_or(f64::INFINITY)
    }

    fn late_us<'a>(reqs: impl Iterator<Item = &'a Req>) -> Vec<f64> {
        stats::sorted(
            reqs.map(|r| r.sent.saturating_sub(r.due) as f64 / 1e3)
                .collect(),
        )
    }

    /// Median generator lateness in the first and second half of a
    /// block, by due time.
    fn halves(block: &[Req]) -> (f64, f64) {
        let mut by_due: Vec<&Req> = block.iter().collect();
        by_due.sort_by_key(|r| r.due);
        let (a, b) = by_due.split_at(by_due.len() / 2);
        let med =
            |v: &[&Req]| stats::percentile(&Step::late_us(v.iter().copied()), 50.0).unwrap_or(0.0);
        (med(a), med(b))
    }

    /// Backlogged when more than half of its blocks built a backlog.
    fn backlogged(&self) -> bool {
        let grew = self
            .blocks
            .iter()
            .filter(|b| {
                let (first, second) = Step::halves(b);
                stats::backlogged(first, second, BACKLOG_SLACK_US)
            })
            .count();
        2 * grew > self.blocks.len()
    }

    fn rung(&self) -> Rung {
        Rung {
            rate: self.rate,
            p99_us: self.p99_us(),
            backlogged: self.backlogged(),
            errors: self.reqs().filter(|r| r.failed).count() as u64,
        }
    }

    fn requests(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }
}

/// Run one block at `rate` on every connection at once; returns its
/// requests and the process CPU time it took.
#[allow(clippy::too_many_arguments)]
fn run_block(
    rig: &mut Rig,
    seed: u64,
    block_no: usize,
    rate: f64,
    secs: f64,
    retune: bool,
    trace: &mut Option<&mut Trace>,
    epoch: Instant,
) -> (Vec<Req>, u64) {
    let start = Instant::now() + Duration::from_millis(2);
    let cpu0 = process_cpu_ns();
    let tracing = trace.is_some();
    let results: Vec<(Vec<Req>, Option<Recorder>)> = std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let mut rec = tracing
                        .then(|| Recorder::new(epoch, (block_no * CONNECTIONS + c) as u64 + 16));
                    let reqs = drive(
                        conn,
                        seed,
                        c,
                        block_no,
                        rate,
                        secs,
                        start,
                        retune,
                        rec.as_mut(),
                    );
                    (reqs, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let cpu_ns = process_cpu_ns() - cpu0;
    let mut reqs = Vec::new();
    for (r, rec) in results {
        reqs.extend(r);
        if let (Some(t), Some(rec)) = (trace.as_deref_mut(), rec) {
            t.absorb(rec);
        }
    }
    reqs.sort_by_key(|r| r.due);
    (reqs, cpu_ns)
}

/// Run the path for about `seconds`, adding spans to `trace` when set.
pub fn run(seed: u64, seconds: f64, mut trace: Option<&mut Trace>, epoch: Instant) -> Outcome {
    let mut out = Outcome::default();
    let budget = Budget::of(seconds);

    let mut setup_times = Vec::new();
    let mut rig = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let built = build_rig(seed);
        setup_times.push(t0.elapsed().as_secs_f64());
        match built {
            Ok(r) => {
                if let Some(old) = rig.replace(r) {
                    tear_down(old);
                }
            }
            Err(e) => {
                out.check("tcp: build server and connections", false, e.to_string());
                return out;
            }
        }
    }
    out.setup_s = stats::median(&setup_times).unwrap_or(0.0);
    let mut rig = rig.expect("at least one set-up");
    let mut main_rec = trace.is_some().then(|| Recorder::new(epoch, 1));

    let mut block_no = 0;
    let mut block =
        |rig: &mut Rig, rate: f64, secs: f64, retune: bool, trace: &mut Option<&mut Trace>| {
            block_no += 1;
            run_block(rig, seed, block_no, rate, secs, retune, trace, epoch)
        };
    let (warmup, _) = block(&mut rig, LO_RPS, budget.warmup_s, false, &mut trace);
    let mut lo = Step {
        name: "lo".into(),
        rate: LO_RPS,
        blocks: Vec::new(),
        cpu_ns: 0,
    };
    let mut mid = Step {
        name: "mid".into(),
        rate: MID_RPS,
        blocks: Vec::new(),
        cpu_ns: 0,
    };
    for pair in 0..budget.pairs {
        for (step, secs) in [(&mut lo, LO_BLOCK_S), (&mut mid, MID_BLOCK_S)] {
            // The retune goes out once, halfway through the middle
            // `mid` block.
            let retune = step.rate == MID_RPS && pair == budget.pairs / 2;
            let (reqs, cpu) = block(&mut rig, step.rate, secs, retune, &mut trace);
            step.blocks.push(reqs);
            step.cpu_ns += cpu;
        }
        // Read like an operator polling the server between steps (and
        // alike whether traced or not).
        maybe_span(main_rec.as_mut(), "server.stats", 0, 0, || {
            rig.handle.stats()
        });
    }
    let mut steps = vec![lo, mid];
    // A failing rung is run once more and judged by its better attempt,
    // so one stall of the host does not end the climb; the discarded
    // attempt still counts for correctness.
    let mut discarded = Vec::new();
    let mut rate = MID_RPS;
    if steps.iter().all(|s| s.rung().passes(P99_LIMIT_US)) {
        for k in 1..=MAX_RUNGS {
            rate *= LADDER_FACTOR;
            let mut attempt = || {
                let (reqs, cpu_ns) = block(&mut rig, rate, budget.rung_s, false, &mut trace);
                maybe_span(main_rec.as_mut(), "server.stats", 0, 0, || {
                    rig.handle.stats()
                });
                // Let a rung that ended near capacity drain before the next.
                std::thread::sleep(Duration::from_millis(20));
                Step {
                    name: format!("rung{k}"),
                    rate,
                    blocks: vec![reqs],
                    cpu_ns,
                }
            };
            let mut step = attempt();
            if !step.rung().passes(P99_LIMIT_US) {
                let again = attempt();
                let better = |a: &Step, b: &Step| {
                    (a.rung().passes(P99_LIMIT_US), -a.p99_us())
                        > (b.rung().passes(P99_LIMIT_US), -b.p99_us())
                };
                if better(&again, &step) {
                    discarded.push(std::mem::replace(&mut step, again));
                } else {
                    discarded.push(again);
                }
            }
            let passed = step.rung().passes(P99_LIMIT_US);
            steps.push(step);
            if !passed {
                break;
            }
        }
    }
    let all_reqs: Vec<Req> = warmup
        .iter()
        .chain(steps.iter().chain(&discarded).flat_map(Step::reqs))
        .copied()
        .collect();

    // Per-step report: latency, generator lateness, backlog verdict.
    for s in &steps {
        let late = Step::late_us(s.reqs());
        let halves: Vec<String> = s
            .blocks
            .iter()
            .map(|b| {
                let (first, second) = Step::halves(b);
                format!("{first:.0}/{second:.0}")
            })
            .collect();
        let r = s.rung();
        let chunks: Vec<String> = s
            .latency_us()
            .chunks(P99_CHUNK)
            .map(|c| {
                format!(
                    "{:.0}",
                    stats::percentile(&stats::sorted(c.to_vec()), 99.0).unwrap_or(0.0)
                )
            })
            .collect();
        out.fact(
            &format!("tcp.step.{}", s.name),
            format!(
                "rate={:.0}/s n={} p50_us={:.1} p99_us={:.1} chunk_p99_us={} late_p50_us={:.1} late_p99_us={:.1} late_halves_us={} backlogged={} passes={}",
                s.rate,
                s.requests(),
                s.p50_us(),
                r.p99_us,
                chunks.join(","),
                stats::percentile(&late, 50.0).unwrap_or(0.0),
                stats::percentile(&late, 99.0).unwrap_or(0.0),
                halves.join(","),
                r.backlogged,
                r.passes(P99_LIMIT_US),
            ),
        );
    }

    // The end-to-end metric is CPU per request at `lo`: process CPU
    // time does not count hypervisor steal. Latencies and capacity are
    // reported per layer: on a 2-vCPU guest a few percent of steal
    // lands in every tail, delays the server's timer wake-ups that set
    // the median, and at `mid` can tip the server into queueing, which
    // moves them across runs by more than any bound a regression gate
    // can use.
    for s in &steps[..2] {
        let n = s.data().count() as u64;
        out.layer(&format!("tcp.{}.p50_us", s.name), "us", s.p50_us(), n);
        out.layer(&format!("tcp.{}.p99_us", s.name), "us", s.p99_us(), n);
        if let Some(m) = out.per_layer.last_mut() {
            m.note = format!(
                "median over {} chunks of {P99_CHUNK} of each chunk's p99",
                (n as usize / P99_CHUNK).max(1)
            );
        }
    }
    let rungs: Vec<Rung> = steps.iter().map(Step::rung).collect();
    let max = stats::max_rps(&rungs, P99_LIMIT_US).unwrap_or(0.0);
    out.layer("tcp.max_rps", "1/s", max, rungs.len() as u64);
    let lo = &steps[0];
    let lo_n = lo.requests() as u64;
    out.e2e(
        "tcp.cpu_us_per_req",
        "us",
        lo.cpu_ns as f64 / 1e3 / lo_n.max(1) as f64,
        lo_n,
    );

    // Per-layer metrics, from the two fixed-rate steps.
    let fixed = || steps[..2].iter().flat_map(Step::reqs);
    let rtt: Vec<f64> = fixed()
        .filter(|r| !r.op.is_ctl())
        .map(|r| (r.done - r.sent) as f64 / 1e3)
        .collect();
    let rtt_sorted = stats::sorted(rtt.clone());
    out.layer(
        "net.rtt_us.p50",
        "us",
        stats::percentile(&rtt_sorted, 50.0).unwrap_or(0.0),
        rtt.len() as u64,
    );
    out.layer(
        "net.rtt_us.p99",
        "us",
        stats::chunked_percentile(&rtt, P99_CHUNK, 99.0).unwrap_or(0.0),
        rtt.len() as u64,
    );
    let late = Step::late_us(fixed());
    out.layer(
        "loadgen.late_us.p99",
        "us",
        stats::percentile(&late, 99.0).unwrap_or(0.0),
        late.len() as u64,
    );
    let ctl: Vec<&Req> = all_reqs.iter().filter(|r| r.op.is_ctl()).collect();
    let ctl_rtt = stats::sorted(ctl.iter().map(|r| (r.done - r.sent) as f64 / 1e3).collect());
    out.layer(
        "ctl.rtt_us.p50",
        "us",
        stats::percentile(&ctl_rtt, 50.0).unwrap_or(0.0),
        ctl_rtt.len() as u64,
    );
    out.layer(
        "ctl.errors",
        "count",
        ctl.iter().filter(|r| r.failed).count() as f64,
        ctl.len() as u64,
    );

    // Correctness over the wire: conservation, server count, transport.
    let acked = all_reqs.iter().filter(|r| r.acked_incr).count() as u128;
    let total = rig.conns[0].send("total");
    let sent = all_reqs.len() as u64 + 1;
    let expected = rig.prefill_sum + acked;
    let observed = match &total {
        Ok(Ok(body)) => body.trim().parse::<u128>().ok(),
        _ => None,
    };
    out.check(
        "tcp: store total equals prefill plus acknowledged incr",
        observed == Some(expected),
        format!("observed {observed:?}, expected {expected}"),
    );
    let server = maybe_span(main_rec.as_mut(), "server.stats", 0, 0, || {
        rig.handle.stats()
    });
    out.layer("net.server_ops", "count", server.ops as f64, 1);
    out.check(
        "tcp: server op count equals client requests",
        server.ops == sent,
        format!("server {} vs client {sent}", server.ops),
    );
    let transport = all_reqs.iter().filter(|r| r.transport_error).count();
    out.check(
        "tcp: zero client transport errors",
        transport == 0,
        format!("{transport} transport errors"),
    );
    let bad_replies = all_reqs
        .iter()
        .filter(|r| r.failed && !r.transport_error)
        .count();
    out.check(
        "tcp: every reply parses and is plausible",
        bad_replies == 0,
        format!("{bad_replies} bad replies"),
    );

    let lock = maybe_span(main_rec.as_mut(), "amutex.stats", 0, 0, || {
        rig.handle.stats_lock().stats()
    });
    let acq = lock.acquisitions.max(1) as f64;
    out.layer(
        "amutex.contended_ratio",
        "ratio",
        lock.contended as f64 / acq,
        lock.acquisitions,
    );
    out.layer(
        "amutex.polls_per_acq",
        "ratio",
        lock.polls as f64 / acq,
        lock.acquisitions,
    );
    out.layer(
        "amutex.parked_ratio",
        "ratio",
        lock.parked as f64 / acq,
        lock.acquisitions,
    );
    out.layer(
        "amutex.handoffs",
        "count",
        lock.handoffs as f64,
        lock.acquisitions,
    );

    out.attempted += sent;
    out.failed +=
        all_reqs.iter().filter(|r| r.failed).count() as u64 + u64::from(observed.is_none());
    let drained = tear_down(rig);
    out.check(
        "tcp: server drains on shutdown",
        drained,
        format!("drained={drained}"),
    );
    if let (Some(t), Some(r)) = (trace, main_rec) {
        t.absorb(r);
    }

    out.fact("tcp.connections", CONNECTIONS);
    out.fact("tcp.generator_threads", CONNECTIONS);
    out.fact("tcp.server_workers", SERVER_WORKERS);
    out.fact("tcp.prefill_keys", KEYS);
    let offered: Vec<String> = steps.iter().map(|s| format!("{:.0}", s.rate)).collect();
    out.fact("tcp.offered_rps", offered.join(","));
    out.fact("tcp.p99_limit_us", P99_LIMIT_US);
    let retried: Vec<String> = discarded
        .iter()
        .map(|s| format!("{:.0}:{:.0}us", s.rate, s.p99_us()))
        .collect();
    out.fact("tcp.retried_rungs", retried.join(","));
    out
}
