//! NVMe device timing: the P3700-class completion model's parameters.
//!
//! Both the kernel's block queue pairs (`atmo_kernel::blk`, as
//! `BlkTiming`) and the user-space driver's device model
//! (`atmo_drivers::nvme`, as `NvmeSpec`) complete I/Os by
//! `complete = max(submit + latency, prev_complete_of_same_kind +
//! service)`. The kernel sits *below* the driver crate in the dependency
//! order, so the one definition lives here, under both.

/// Device timing parameters, in cycles of the host clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NvmeTiming {
    /// Read completion latency (flash array read).
    pub read_latency: u64,
    /// Write completion latency (write cache hit).
    pub write_latency: u64,
    /// Minimum spacing between read completions (1 / peak read IOPS).
    pub read_service: u64,
    /// Minimum spacing between write completions (1 / peak write IOPS).
    pub write_service: u64,
}

impl NvmeTiming {
    /// P3700 400 GB-class timings: 76 µs read latency, ~450 K IOPS peak
    /// 4 KiB reads, ~3.9 µs cached write latency, 256 K IOPS peak
    /// writes.
    pub const fn p3700(freq_hz: u64) -> Self {
        let per_us = freq_hz / 1_000_000;
        NvmeTiming {
            read_latency: 76 * per_us,
            write_latency: 4 * per_us,
            read_service: freq_hz / 450_000,
            write_service: freq_hz / 256_000,
        }
    }
}
