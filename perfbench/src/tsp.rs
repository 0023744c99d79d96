//! The TSP path: repeated `solve_native` calls (centralized structure,
//! two searchers, adaptive lock policy) over a fixed set of
//! 16-city Euclidean instances in a seeded order, each checked against
//! its Held–Karp optimum.

use std::time::Instant;

use adaptive_native::MutexStats;
use tsp_app::{solve_native, NativeTspConfig, NativeVariant, TspInstance};

use crate::report::{Outcome, SETUPS};
use crate::stats;
use crate::trace::{maybe_span, Recorder, Trace};
use crate::util::Rng;

/// Cities per instance.
const CITIES: usize = 16;
/// Grid the cities are placed on.
const GRID: u32 = 500;
/// Searcher threads per solve.
const SEARCHERS: usize = 2;
/// Seeds `s` for which `random_euclidean(16, 500, s)` takes 7,000 to
/// 9,000 sequential LMSK expansions: every seed from 0 to 3,729 in that
/// band. Instance hardness is heavy-tailed (the median seed needs ~430
/// expansions, one in a hundred needs over 36,000), so instances drawn
/// from all seeds would make solve time swing with the run seed. Every
/// run solves this fixed set, in an order drawn from the run seed, so
/// the work per run is fixed. `banded_seeds_are_in_band` re-derives a
/// sample of the list.
const BANDED_SEEDS: [u64; 32] = [
    3, 27, 76, 138, 220, 233, 471, 535, 582, 918, 1044, 1256, 1277, 1472, 1490, 1592, 1632, 1694,
    2038, 2105, 2200, 2374, 2426, 2438, 2693, 2720, 2765, 2827, 3061, 3258, 3557, 3729,
];
/// Solves run and discarded before timing.
const WARMUP_SOLVES: usize = 2;

fn config() -> NativeTspConfig {
    NativeTspConfig {
        searchers: SEARCHERS,
        variant: NativeVariant::Centralized,
        ..NativeTspConfig::default()
    }
}

fn instance(seed: u64) -> TspInstance {
    TspInstance::random_euclidean(CITIES, GRID, seed)
}

/// The instance seeds in the order a run with seed `seed` solves them.
fn pool(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 0x75);
    let mut seeds = BANDED_SEEDS.to_vec();
    for i in (1..seeds.len()).rev() {
        seeds.swap(i, rng.below(i as u64 + 1) as usize);
    }
    seeds
}

fn add(acc: &mut MutexStats, s: &MutexStats) {
    acc.acquisitions += s.acquisitions;
    acc.contended += s.contended;
    acc.parked += s.parked;
    acc.handoffs += s.handoffs;
    acc.reconfigurations += s.reconfigurations;
}

/// Time `solves` solves (after the warm-up ones), adding spans to
/// `trace` when set.
pub fn run(seed: u64, solves: usize, trace: Option<&mut Trace>, epoch: Instant) -> Outcome {
    let mut out = Outcome::default();
    let seeds = pool(seed);
    let mut setup_times = Vec::new();
    let mut instances = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        instances = seeds.iter().map(|&s| instance(s)).collect();
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    out.setup_s = stats::median(&setup_times).unwrap_or(0.0);
    // The oracle runs outside every timed region.
    let optimum: Vec<u32> = instances.iter().map(TspInstance::held_karp).collect();

    let mut rec = trace.is_some().then(|| Recorder::new(epoch, 1_000));
    let (mut q, mut b) = (MutexStats::default(), MutexStats::default());
    let (mut expanded, mut solve_ns) = (0u64, 0f64);
    let mut times_ms = Vec::new();
    let mut wrong = 0u64;
    let mut i = 0usize;
    while times_ms.len() < solves.max(1) {
        let inst = &instances[i % instances.len()];
        let s0 = Instant::now();
        let res = maybe_span(rec.as_mut(), "tsp.solve", 0, i as u64 + 1, || {
            solve_native(inst, config())
        });
        let ns = s0.elapsed().as_nanos() as f64;
        wrong += u64::from(res.best != optimum[i % instances.len()]);
        i += 1;
        if i <= WARMUP_SOLVES {
            continue;
        }
        times_ms.push(ns / 1e6);
        solve_ns += ns;
        expanded += res.stats.expanded;
        add(&mut q, &res.queue_lock());
        add(&mut b, &res.best_lock());
    }
    if let (Some(t), Some(r)) = (trace, rec) {
        t.absorb(r);
    }

    let times = stats::sorted(times_ms);
    let n = times.len() as u64;
    out.e2e(
        "tsp.solve_p50_ms",
        "ms",
        stats::percentile(&times, 50.0).unwrap_or(0.0),
        n,
    );
    // With ten solves beyond it, the tail is set by the run's slowest
    // few solves, which host interference decides more than the solver
    // does; it is reported per layer.
    let tail_p = stats::tail_percentile(times.len(), 10).unwrap_or(100.0);
    out.layer(
        "tsp.solve_tail_ms",
        "ms",
        stats::percentile(&times, tail_p).unwrap_or(0.0),
        n,
    );
    if let Some(m) = out.per_layer.last_mut() {
        m.note = format!("p{tail_p}");
    }

    let per = |v: u64, by: u64| v as f64 / by.max(1) as f64;
    out.layer("tsp.expanded", "count", per(expanded, n), n);
    out.layer(
        "tsp.expansions_per_s",
        "1/s",
        expanded as f64 / (solve_ns / 1e9).max(1e-9),
        n,
    );
    out.layer(
        "qlock.acq_per_expansion",
        "ratio",
        per(q.acquisitions, expanded),
        q.acquisitions,
    );
    out.layer(
        "qlock.contended_ratio",
        "ratio",
        per(q.contended, q.acquisitions),
        q.acquisitions,
    );
    out.layer(
        "qlock.parked_ratio",
        "ratio",
        per(q.parked, q.acquisitions),
        q.acquisitions,
    );
    out.layer(
        "qlock.handoffs_per_expansion",
        "ratio",
        per(q.handoffs, expanded),
        q.acquisitions,
    );
    out.layer(
        "qlock.reconfigurations",
        "count",
        per(q.reconfigurations, n),
        n,
    );
    out.layer(
        "bestlock.contended_ratio",
        "ratio",
        per(b.contended, b.acquisitions),
        b.acquisitions,
    );

    out.check(
        "tsp: every best tour equals the Held-Karp optimum",
        wrong == 0,
        format!("{wrong} of {i} solves wrong"),
    );
    out.attempted += i as u64;
    out.failed += wrong;
    out.fact("tsp.cities", CITIES);
    out.fact("tsp.searchers", SEARCHERS);
    out.fact("tsp.instances", BANDED_SEEDS.len());
    out.fact("tsp.tail_percentile", tail_p);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banded_seeds_are_in_band() {
        for &s in &BANDED_SEEDS[..3] {
            let expanded = tsp_app::solve_sequential(&instance(s)).1.expanded;
            assert!((7_000..=9_000).contains(&expanded), "seed {s}: {expanded}");
        }
    }

    #[test]
    fn pool_is_a_seeded_order_of_the_banded_set() {
        let a = pool(1);
        assert_eq!(a, pool(1));
        assert_ne!(a, pool(2));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, BANDED_SEEDS);
    }
}
