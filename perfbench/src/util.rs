//! Seeded random numbers, process CPU time and small timing helpers.

use std::time::{Duration, Instant};

/// SplitMix64: a small seeded generator, enough for key streams and op
/// mixes (the benchmark's inputs depend only on `--seed`).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Cumulative Zipf distribution over `n` keys with exponent `s`:
/// sample with [`zipf_sample`].
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Draw a key (rank 0 is the hottest) from a [`zipf_cdf`] table.
pub fn zipf_sample(cdf: &[f64], rng: &mut Rng) -> u64 {
    let u = rng.unit();
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u64
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process so far, ns.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two `i64`
    // fields on 64-bit Linux) that outlives the call; the clock id is a
    // constant the kernel always accepts for the calling process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Nanoseconds from `epoch` to now.
pub fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Sleep until `epoch + at_ns` (returns at once if that has passed).
pub fn sleep_until(epoch: Instant, at_ns: u64) {
    let now = nanos_since(epoch);
    if at_ns > now {
        std::thread::sleep(Duration::from_nanos(at_ns - now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_uniform_enough() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        let mut r = Rng::new(1, 0);
        let hits = (0..10_000).filter(|_| r.below(10) == 3).count();
        assert!((800..1200).contains(&hits), "{hits}");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let cdf = zipf_cdf(100, 1.1);
        assert!((cdf[99] - 1.0).abs() < 1e-9);
        let mut r = Rng::new(3, 0);
        let draws: Vec<u64> = (0..10_000).map(|_| zipf_sample(&cdf, &mut r)).collect();
        let top = draws.iter().filter(|&&k| k == 0).count();
        let tail = draws.iter().filter(|&&k| k == 99).count();
        assert!(top > 10 * tail.max(1), "{top} vs {tail}");
        assert!(draws.iter().all(|&k| k < 100));
    }

    #[test]
    fn process_cpu_advances_with_work() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(process_cpu_ns() > before, "{x}");
    }
}
