//! Log2-bucketed cycle-latency histograms.

use atmo_spec::harness::{check, VerifResult};

use crate::counters::Tally;

/// Number of log2 buckets: bucket `b` covers `[2^(b−1), 2^b)` cycles,
/// with bucket 0 holding zero-cycle samples. 64 buckets cover the whole
/// `u64` range.
pub const HIST_BUCKETS: usize = 65;

/// A latency distribution over modeled cycles (from `hw::cycles`).
///
/// Fixed storage, O(1) record, percentiles reported as the upper bound
/// of the containing bucket (standard log2-histogram resolution: within
/// 2× of the true value).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHist {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    total_cycles: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(cycles: u64) -> usize {
    (64 - cycles.leading_zeros()) as usize
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            total_cycles: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Folds one sample in.
    pub fn record(&mut self, cycles: u64) {
        self.buckets[bucket_of(cycles)] += 1;
        self.count += 1;
        self.total_cycles = self.total_cycles.saturating_add(cycles);
        self.min = self.min.min(cycles);
        self.max = self.max.max(cycles);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.total_cycles.checked_div(self.count).unwrap_or(0)
    }

    /// The `p`-th percentile (0 < p ≤ 100) as the upper bound of the
    /// bucket containing that rank; 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Upper bound of bucket b, clamped to the observed max.
                let upper = if b == 0 { 0 } else { (1u128 << b) - 1 } as u64;
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Median (bucket-resolution).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 90th percentile (bucket-resolution).
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// 99th percentile (bucket-resolution).
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Folds `other` into `self` (used to merge recorders and CPUs).
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.total_cycles = self.total_cycles.saturating_add(other.total_cycles);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Histogram well-formedness: the bucket sum equals the sample
    /// count, and min/max bracket a nonempty distribution.
    pub fn wf(&self) -> VerifResult {
        let sum: u64 = self.buckets.iter().sum();
        check(
            sum == self.count,
            "trace_hist",
            format_args!("bucket sum {sum} != count {}", self.count),
        )?;
        if self.count > 0 {
            check(
                self.min <= self.max,
                "trace_hist",
                format_args!("min {} above max {}", self.min, self.max),
            )?;
        }
        Ok(())
    }
}

/// A [`LatencyHist`] in recorder cells: only the owning recorder's
/// thread records into it, with the same arithmetic as
/// [`LatencyHist::record`].
#[derive(Debug)]
pub(crate) struct HistCells {
    buckets: [Tally; HIST_BUCKETS],
    count: Tally,
    total_cycles: Tally,
    min: Tally,
    max: Tally,
}

impl Default for HistCells {
    fn default() -> Self {
        HistCells {
            buckets: std::array::from_fn(|_| Tally::default()),
            count: Tally::default(),
            total_cycles: Tally::default(),
            min: Tally::new(u64::MAX),
            max: Tally::default(),
        }
    }
}

impl HistCells {
    /// Folds one sample in (owner only).
    pub(crate) fn record(&self, cycles: u64) {
        self.buckets[bucket_of(cycles)].add(1);
        self.count.add(1);
        let total = self.total_cycles.load().saturating_add(cycles);
        self.total_cycles.set(total);
        if cycles < self.min.load() {
            self.min.set(cycles);
        }
        self.max.raise(cycles);
    }

    /// The histogram's current value.
    pub(crate) fn load(&self) -> LatencyHist {
        LatencyHist {
            buckets: std::array::from_fn(|b| self.buckets[b].load()),
            count: self.count.load(),
            total_cycles: self.total_cycles.load(),
            min: self.min.load(),
            max: self.max.load(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn percentiles_bracket_the_samples() {
        let mut h = LatencyHist::new();
        for c in [
            100u64, 200, 300, 400, 1000, 2000, 4000, 8000, 100_000, 100_000,
        ] {
            h.record(c);
        }
        assert_eq!(h.count(), 10);
        assert!(h.wf().is_ok());
        assert!(h.p50() >= 400 && h.p50() <= 2047, "p50 = {}", h.p50());
        assert!(h.p99() >= 8000, "p99 = {}", h.p99());
        assert_eq!(h.max(), 100_000);
        assert_eq!(h.min(), 100);
    }

    #[test]
    fn merge_adds_distributions() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1000);
        assert!(a.wf().is_ok());
    }

    #[test]
    fn empty_histogram_is_wf_and_zero() {
        let h = LatencyHist::new();
        assert!(h.wf().is_ok());
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.min(), 0);
    }
}
