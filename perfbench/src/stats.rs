//! Order statistics over raw samples, and the rate-ladder arithmetic
//! behind `tcp.max_rps`.
//!
//! Every percentile in the benchmark is computed here from the full
//! sorted sample set — no histogram buckets — so a reported value moves
//! continuously with the data instead of jumping between bucket edges.

/// Percentile `p` (0..=100) of `sorted` (ascending), by linear
/// interpolation between the two closest ranks (the "type 7" rule that
/// NumPy and Python's `statistics.quantiles(method="inclusive")` use).
/// Returns `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let (&first, &last) = (sorted.first()?, sorted.last()?);
    if p <= 0.0 {
        return Some(first);
    }
    if p >= 100.0 {
        return Some(last);
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Sort a sample set in place and return it, ready for [`percentile`].
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of an unsorted sample set (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// Percentile `p` of each consecutive chunk of `chunk` samples of
/// `in_order` (a trailing partial chunk joins the one before it), then
/// the median of those per-chunk values. On a shared host a scheduler
/// stall lands in one chunk and moves one chunk's tail, not the
/// reported one. Falls back to the plain percentile when there is less
/// than one full chunk.
pub fn chunked_percentile(in_order: &[f64], chunk: usize, p: f64) -> Option<f64> {
    let chunks = in_order.len() / chunk.max(1);
    if chunks <= 1 {
        return percentile(&sorted(in_order.to_vec()), p);
    }
    let per_chunk: Vec<f64> = (0..chunks)
        .map(|i| {
            let end = if i + 1 == chunks {
                in_order.len()
            } else {
                (i + 1) * chunk
            };
            percentile(&sorted(in_order[i * chunk..end].to_vec()), p).expect("chunk is non-empty")
        })
        .collect();
    median(&per_chunk)
}

/// Percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// `beyond` samples above it in a set of `n`, or `None` when not even
/// the median does. A tail estimated from fewer samples than that is
/// one or two outliers, not a percentile.
pub fn tail_percentile(n: usize, beyond: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        // The epsilon absorbs binary rounding of `100 - p` (99.9 is not
        // exact), so 10_000 samples do leave 10 beyond p99.9.
        .find(|&p| n as f64 * (100.0 - p) / 100.0 >= beyond as f64 - 1e-6)
}

/// Whether an open-loop rate step built a backlog: the generator's
/// median lateness in the step's second half exceeds twice the first
/// half's plus `slack_us`. Below capacity lateness is timer noise and
/// stays flat; above it every request inherits the previous one's
/// delay, so lateness climbs through the step.
pub fn backlogged(first_half_late_us: f64, second_half_late_us: f64, slack_us: f64) -> bool {
    second_half_late_us > 2.0 * first_half_late_us + slack_us
}

/// One rung of the offered-rate ladder, as judged after it ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second (all connections).
    pub rate: f64,
    /// Scheduled-to-reply p99 latency at this rate, µs.
    pub p99_us: f64,
    /// Whether the generator fell progressively behind its schedule.
    pub backlogged: bool,
    /// Requests that failed (transport error or wrong reply).
    pub errors: u64,
}

impl Rung {
    /// A rung passes when p99 meets `limit_us`, no backlog grew and no
    /// request failed.
    pub fn passes(&self, limit_us: f64) -> bool {
        self.p99_us <= limit_us && !self.backlogged && self.errors == 0
    }
}

/// The highest rate that meets `limit_us`, from rungs in ascending rate
/// order, ending at the first failing rung. Between the last passing
/// rung and the first failing one the rate is interpolated in log-rate
/// where p99 crosses the limit; when the failing rung failed for
/// another reason (backlog or errors) at an in-limit p99, the geometric
/// midpoint is used. With no failing rung the last passing rate is a
/// lower bound and is returned as is; with no passing rung the first
/// rate is scaled down by how far its p99 overshot.
pub fn max_rps(rungs: &[Rung], limit_us: f64) -> Option<f64> {
    let first_fail = rungs.iter().position(|r| !r.passes(limit_us));
    match first_fail {
        None => rungs.last().map(|r| r.rate),
        Some(0) => {
            let r = rungs[0];
            Some(r.rate * (limit_us / r.p99_us.max(limit_us)).min(1.0))
        }
        Some(i) => {
            let (pass, fail) = (rungs[i - 1], rungs[i]);
            let (lp, lf) = (pass.rate.ln(), fail.rate.ln());
            let t = if fail.p99_us > limit_us && fail.p99_us > pass.p99_us {
                ((limit_us - pass.p99_us) / (fail.p99_us - pass.p99_us)).clamp(0.0, 1.0)
            } else {
                0.5
            };
            Some((lp + (lf - lp) * t).exp())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 100.0), Some(4.0));
        assert_eq!(percentile(&s, 50.0), Some(2.5));
        // rank = 0.99 * 3 = 2.97 → 3 + 0.97 * (4 - 3)
        let p99 = percentile(&s, 99.0).unwrap();
        assert!((p99 - 3.97).abs() < 1e-12, "{p99}");
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn percentile_matches_python_inclusive_quartiles() {
        // statistics.quantiles([1..=10], n=4, method="inclusive")
        // == [3.25, 5.5, 7.75]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 25.0), Some(3.25));
        assert_eq!(percentile(&s, 50.0), Some(5.5));
        assert_eq!(percentile(&s, 75.0), Some(7.75));
    }

    #[test]
    fn percentile_moves_continuously_with_the_data() {
        // The 1/8-octave histogram this replaces could only report
        // bucket edges; raw samples give every value in between.
        let base: Vec<f64> = (0..1000).map(|i| 390_000.0 + f64::from(i) * 40.0).collect();
        let p50 = percentile(&base, 50.0).unwrap();
        assert!(p50 > 393_215.0 && p50 < 425_983.0, "{p50}");
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn chunked_percentile_is_the_median_of_chunk_percentiles() {
        // Three chunks of four; the middle one holds a stall.
        let v = [1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 400.0, 1.0, 2.0, 3.0, 5.0];
        assert_eq!(chunked_percentile(&v, 4, 100.0), Some(5.0));
        assert_eq!(percentile(&sorted(v.to_vec()), 100.0), Some(400.0));
        // A partial trailing chunk joins the last full one.
        let w = [1.0, 1.0, 9.0, 9.0, 9.0];
        assert_eq!(chunked_percentile(&w, 2, 0.0), Some(5.0));
        // Less than two chunks: the plain percentile.
        assert_eq!(chunked_percentile(&[3.0, 1.0, 2.0], 4, 50.0), Some(2.0));
        assert_eq!(chunked_percentile(&[], 4, 50.0), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5, 10), None);
        assert_eq!(tail_percentile(20, 10), Some(50.0));
        assert_eq!(tail_percentile(39, 10), Some(50.0));
        assert_eq!(tail_percentile(40, 10), Some(75.0));
        assert_eq!(tail_percentile(100, 10), Some(90.0));
        assert_eq!(tail_percentile(999, 10), Some(95.0));
        assert_eq!(tail_percentile(1000, 10), Some(99.0));
        assert_eq!(tail_percentile(10_000, 10), Some(99.9));
    }

    #[test]
    fn backlog_needs_lateness_to_climb() {
        assert!(!backlogged(60.0, 70.0, 100.0));
        assert!(!backlogged(60.0, 210.0, 100.0));
        assert!(backlogged(60.0, 230.0, 100.0));
        assert!(backlogged(500.0, 5_000.0, 100.0));
    }

    fn rung(rate: f64, p99_us: f64) -> Rung {
        Rung {
            rate,
            p99_us,
            backlogged: false,
            errors: 0,
        }
    }

    #[test]
    fn max_rps_interpolates_where_p99_crosses_the_limit() {
        let rungs = [
            rung(1000.0, 500.0),
            rung(2000.0, 1000.0),
            rung(4000.0, 3000.0),
        ];
        // crossing at t = (2000 - 1000) / (3000 - 1000) = 0.5 in log
        // rate between 2000 and 4000 → sqrt(2000 * 4000)
        let got = max_rps(&rungs, 2000.0).unwrap();
        assert!((got - (2000.0f64 * 4000.0).sqrt()).abs() < 1e-6, "{got}");
    }

    #[test]
    fn max_rps_ignores_rungs_after_the_first_failure() {
        let rungs = [
            rung(1000.0, 500.0),
            rung(2000.0, 5000.0),
            rung(4000.0, 100.0),
        ];
        let got = max_rps(&rungs, 2000.0).unwrap();
        assert!(got > 1000.0 && got < 2000.0, "{got}");
    }

    #[test]
    fn max_rps_uses_the_midpoint_for_a_backlog_at_an_in_limit_p99() {
        let mut fail = rung(4000.0, 1500.0);
        fail.backlogged = true;
        let got = max_rps(&[rung(1000.0, 500.0), fail], 2000.0).unwrap();
        assert!((got - 2000.0).abs() < 1e-6, "{got}");
        let mut errs = rung(4000.0, 900.0);
        errs.errors = 1;
        let got = max_rps(&[rung(1000.0, 500.0), errs], 2000.0).unwrap();
        assert!((got - 2000.0).abs() < 1e-6, "{got}");
    }

    #[test]
    fn max_rps_edges() {
        assert_eq!(max_rps(&[], 2000.0), None);
        assert_eq!(
            max_rps(&[rung(1000.0, 10.0), rung(2000.0, 20.0)], 2000.0),
            Some(2000.0)
        );
        // Failing first rung: scaled by the overshoot.
        assert_eq!(max_rps(&[rung(1000.0, 4000.0)], 2000.0), Some(500.0));
    }
}
