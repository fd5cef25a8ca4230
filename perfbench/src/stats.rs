//! Small measurement helpers: order statistics, the seeded generator the
//! workloads draw their inputs from, and process memory.

/// Percentiles the latency tail is chosen from. The reported tail is the
/// highest of these with at least [`TAIL_BEYOND`] samples above it, so it is
/// never a single outlier. The steps are coarse so that a run which
/// measures a round more or less than another still reports the same
/// percentile: p75 for 40 to 999 samples (the sweep and cold-tune runs),
/// p99 beyond (the warm-tune runs).
const TAIL_LADDER: [f64; 3] = [50.0, 75.0, 99.0];
const TAIL_BEYOND: f64 = 10.0;

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The `pct` percentile of `xs` by linear interpolation between ranks.
pub fn percentile(xs: &[f64], pct: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = pct / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The latency tail: `(value, percentile)` for the highest ladder
/// percentile that leaves at least ten samples beyond it. With fewer than
/// forty samples that is the median.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let pct = TAIL_LADDER
        .iter()
        .copied()
        .filter(|p| n * (1.0 - p / 100.0) >= TAIL_BEYOND)
        .fold(50.0, f64::max);
    (percentile(xs, pct), pct)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// splitmix64: the benchmark's own seeded generator, so inputs depend only
/// on `--seed` and never on a library's RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (0..42).map(f64::from).collect();
        let (_, pct) = tail(&xs);
        assert_eq!(pct, 75.0);
        let xs: Vec<f64> = (0..5000).map(f64::from).collect();
        assert_eq!(tail(&xs).1, 99.0);
        assert_eq!(tail(&[1.0, 2.0, 3.0]).1, 50.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], Rng::new(8).next_u64());
    }
}
