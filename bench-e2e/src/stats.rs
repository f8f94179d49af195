//! Exact order statistics for the harness: a preallocated per-op latency
//! store, the percentile rule, medians, and the `VmHWM` reader.

/// Modeled latencies below this many cycles are counted in a direct-indexed
/// table (most syscalls cost a few hundred to a few thousand cycles and
/// take few distinct values); larger ones are kept individually.
const DIRECT: usize = 1 << 16;

/// Exact per-op latency samples. All storage is reserved at construction,
/// so recording never allocates and the store stays small next to the
/// system under test (a 12 M-op run costs 256 KiB, not 48 MiB).
pub struct LatStore {
    direct: Vec<u32>,
    large: Vec<u32>,
    count: u64,
}

impl LatStore {
    /// A store that can take `max_ops` samples.
    pub fn with_capacity(max_ops: usize) -> Self {
        LatStore {
            direct: vec![0; DIRECT],
            large: Vec::with_capacity(max_ops),
            count: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, cycles: u64) {
        self.record_n(cycles, 1);
    }

    /// Records `n` ops that all observed `cycles` (a batch's members).
    #[inline]
    pub fn record_n(&mut self, cycles: u64, n: u32) {
        self.count += n as u64;
        if (cycles as usize) < DIRECT {
            self.direct[cycles as usize] += n;
        } else {
            let v = cycles.min(u32::MAX as u64) as u32;
            debug_assert!(self.large.len() + n as usize <= self.large.capacity());
            self.large.extend(std::iter::repeat_n(v, n as usize));
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sorts the individually kept samples; call once before `quantile`.
    pub fn seal(&mut self) {
        self.large.sort_unstable();
    }

    /// The `rank`-th smallest sample, 1-based.
    fn nth(&self, rank: u64) -> u64 {
        let mut seen = 0u64;
        for (v, &c) in self.direct.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return v as u64;
            }
        }
        self.large[(rank - seen - 1) as usize] as u64
    }

    /// Nearest-rank percentile `p` in (0, 1]: the smallest sample with at
    /// least `p` of all samples at or below it. `None` when fewer than
    /// `MIN_BEYOND` samples lie beyond it — the percentile rule.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        let rank = nearest_rank(self.count, p)?;
        Some(self.nth(rank))
    }
}

/// A percentile is only reported when at least this many samples lie
/// beyond it (choosing-metrics §1).
pub const MIN_BEYOND: u64 = 10;

/// The 1-based nearest rank of percentile `p` among `n` samples, or `None`
/// when fewer than [`MIN_BEYOND`] samples would lie beyond it. The median
/// (p ≤ 0.5) is always reported when there is at least one sample.
pub fn nearest_rank(n: u64, p: f64) -> Option<u64> {
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
    if p > 0.5 && n - rank < MIN_BEYOND {
        return None;
    }
    Some(rank)
}

/// Nearest-rank percentile of an already sorted slice, under the same rule.
pub fn quantile_sorted(sorted: &[u32], p: f64) -> Option<u32> {
    nearest_rank(sorted.len() as u64, p).map(|r| sorted[(r - 1) as usize])
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Coefficient of variation (population standard deviation ÷ mean).
pub fn cv(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// Extracts `VmHWM` (peak resident set, KiB) from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") | None => Some(value),
        Some(_) => None,
    }
}

/// This process's peak resident set in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kib(&status).unwrap_or(0) as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 has 1.
        assert_eq!(nearest_rank(1000, 0.99), Some(990));
        assert_eq!(nearest_rank(1000, 0.999), None);
        // 999 samples: ceil(989.01) = 990 leaves 9 beyond — withheld.
        assert_eq!(nearest_rank(999, 0.99), None);
        assert_eq!(nearest_rank(10_000, 0.999), Some(9990));
        assert_eq!(nearest_rank(9_999, 0.999), None);
        // The median never needs the rule.
        assert_eq!(nearest_rank(1, 0.5), Some(1));
        assert_eq!(nearest_rank(4, 0.5), Some(2));
        assert_eq!(nearest_rank(0, 0.5), None);
    }

    #[test]
    fn store_matches_a_sorted_vector() {
        let mut s = LatStore::with_capacity(20_000);
        let mut all: Vec<u32> = Vec::new();
        let mut x = 12345u64;
        for i in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Mostly small values, a tail of large ones.
            let v = if i % 50 == 0 {
                100_000 + (x >> 40) % 1_000_000
            } else {
                300 + (x >> 40) % 5000
            };
            s.record(v);
            all.push(v as u32);
        }
        s.seal();
        all.sort_unstable();
        assert_eq!(s.count(), 20_000);
        for p in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(
                s.quantile(p).map(|v| v as u32),
                quantile_sorted(&all, p),
                "p = {p}"
            );
        }
        assert_eq!(s.quantile(0.9999), None, "only 2 samples beyond p99.99");
    }

    #[test]
    fn record_n_is_n_records() {
        let mut a = LatStore::with_capacity(64);
        let mut b = LatStore::with_capacity(64);
        a.record_n(700, 5);
        a.record_n(70_000, 3);
        for _ in 0..5 {
            b.record(700);
        }
        for _ in 0..3 {
            b.record(70_000);
        }
        a.seal();
        b.seal();
        assert_eq!(a.count(), b.count());
        assert_eq!(a.quantile(0.5), b.quantile(0.5));
        assert_eq!(a.nth(8), 70_000);
    }

    #[test]
    fn median_of_slices() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One slow slice out of 25 does not move the median.
        let mut slices = vec![0.2; 24];
        slices.push(5.0);
        assert_eq!(median(&slices), 0.2);
        assert!(cv(&slices) > 1.0);
        assert_eq!(cv(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn vm_hwm_parser() {
        let status =
            "Name:\tbench-e2e\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tgarbage kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert!(peak_rss_mib() > 0.0, "Linux reports a peak RSS for us");
    }
}
