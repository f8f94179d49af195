//! Edge tests for the NVMe completion model (§6.5.2, Figure 5) and the
//! kernel's mirror of its write penalty.
//!
//! The device model promises `complete = max(submit + latency,
//! prev_complete_of_same_kind + service [+ penalty])`. These tests pin
//! the two Figure 5 regimes (QD1 latency-bound, QD32 service-rate-bound),
//! the independence of the read and write service chains, completion
//! monotonicity — and that `atmo_kernel::blk::BLK_WRITE_PENALTY` (the
//! kernel cannot depend on the drivers crate) stays equal to the driver
//! cost model's `nvme_write_extra`.

use atmo_drivers::nvme::{IoKind, NvmeDevice, NvmeSpec};
use atmo_drivers::DriverCosts;
use atmo_kernel::blk::BLK_WRITE_PENALTY;

/// c220g5 host clock.
const FREQ: u64 = 2_200_000_000;

/// Closed-loop IOPS against the raw device model: keep `qd` I/Os in
/// flight, resubmit on completion, zero host cost.
fn closed_loop_iops(kind: IoKind, qd: u64, total: u64, penalty: u64) -> f64 {
    let mut dev = NvmeDevice::new(NvmeSpec::p3700(FREQ));
    let mut now = 0u64;
    let mut submitted = 0u64;
    while submitted < qd.min(total) {
        dev.submit_with_penalty(now, kind, penalty);
        submitted += 1;
    }
    while dev.completed() < total {
        now += dev.cycles_until_completion(now).expect("I/Os in flight");
        let done = dev.poll(now);
        for _ in 0..done {
            if submitted < total {
                dev.submit_with_penalty(now, kind, penalty);
                submitted += 1;
            }
        }
    }
    total as f64 * FREQ as f64 / now as f64
}

#[test]
fn qd1_reads_are_latency_bound() {
    // One read in flight: each completes `read_latency` (~76 µs) after
    // submission, so everyone lands near 13 K IOPS no matter how cheap
    // the host software is.
    let iops = closed_loop_iops(IoKind::Read, 1, 2_000, 0);
    assert!(
        (12_000.0..14_000.0).contains(&iops),
        "QD1 reads must be latency-bound near 13K IOPS, got {iops:.0}"
    );
}

#[test]
fn qd32_reads_are_service_rate_bound() {
    // 32 in flight: latency is hidden and the device's internal service
    // rate (~450 K IOPS) is the bound.
    let iops = closed_loop_iops(IoKind::Read, 32, 50_000, 0);
    assert!(
        (400_000.0..460_000.0).contains(&iops),
        "QD32 reads must be service-rate-bound near 450K IOPS, got {iops:.0}"
    );
}

#[test]
fn qd32_writes_are_bound_by_the_write_service_chain() {
    let penalty = DriverCosts::atmosphere().nvme_write_extra;
    let iops = closed_loop_iops(IoKind::Write, 32, 50_000, penalty);
    assert!(
        (215_000.0..245_000.0).contains(&iops),
        "QD32 writes with the per-write penalty must land near 230K IOPS, got {iops:.0}"
    );
    // Without the penalty the write cache peaks at its service rate.
    let raw = closed_loop_iops(IoKind::Write, 32, 50_000, 0);
    assert!(raw > iops, "the write penalty must cost throughput");
    assert!(
        (245_000.0..266_000.0).contains(&raw),
        "raw QD32 writes must peak near 256K IOPS, got {raw:.0}"
    );
}

#[test]
fn read_and_write_service_chains_are_independent() {
    // A long read chain must not delay writes: the per-kind `last
    // complete` chains are separate.
    let spec = NvmeSpec::p3700(FREQ);
    let mut dev = NvmeDevice::new(spec);
    for _ in 0..8 {
        dev.submit(0, IoKind::Read);
    }
    dev.submit(0, IoKind::Write);
    // First write completes at max(write_latency, write_service): the
    // read backlog is irrelevant.
    let first_write = spec.write_latency.max(spec.write_service);
    assert_eq!(dev.poll(first_write.saturating_sub(1)), 0);
    assert_eq!(
        dev.poll(first_write),
        1,
        "write must not queue behind reads"
    );
    // The reads then drain on their own chain: the first at the flash
    // latency, the rest spaced by the read service time.
    let last_read = spec.read_latency + 7 * spec.read_service;
    dev.poll(last_read);
    assert_eq!(dev.completed(), 9);
}

#[test]
fn completions_follow_the_max_of_latency_and_service() {
    // Submit reads at staggered times and check every completion
    // boundary against the recurrence
    // `complete = max(submit + latency, prev_complete + service)`.
    let spec = NvmeSpec::p3700(FREQ);
    let mut dev = NvmeDevice::new(spec);
    let submit_times = [0u64, 10, 10, 50_000, 200_000, 200_001];
    let mut expected = Vec::new();
    let mut prev = 0u64;
    for &t in &submit_times {
        dev.submit(t, IoKind::Read);
        prev = (t + spec.read_latency).max(prev + spec.read_service);
        expected.push(prev);
    }
    // The chain is monotone and the queue reports it faithfully.
    assert!(expected.windows(2).all(|w| w[0] <= w[1]));
    for &c in &expected {
        assert_eq!(dev.poll(c - 1), 0, "nothing completes before its boundary");
        assert_eq!(dev.poll(c), 1, "a completion lands exactly at its boundary");
    }
    assert_eq!(dev.completed(), submit_times.len() as u64);
    assert_eq!(dev.queue_depth(), 0);
}

#[test]
fn kernel_timing_mirrors_the_device_model() {
    // `atmo-drivers` depends on `atmo-kernel`, so the kernel carries its
    // own copy of the per-write penalty (the P3700 timings themselves
    // are one `atmo_hw::NvmeTiming`). This root-level test, which sees
    // both crates, keeps the copies from drifting.
    assert_eq!(
        BLK_WRITE_PENALTY,
        DriverCosts::atmosphere().nvme_write_extra,
        "kernel write penalty must mirror the driver cost model"
    );
}

#[test]
fn zero_copy_descriptors_undercut_the_copying_path() {
    // The premise of the zero-copy block datapath: SQE + CQE handling
    // plus an amortized doorbell must be strictly cheaper than the
    // copying per-I/O cost.
    let c = DriverCosts::atmosphere();
    let zc_per_io = c.sq_desc_zc + c.cq_desc_zc + 2 * c.doorbell / 32;
    assert!(
        zc_per_io < c.nvme_io,
        "zc per-I/O ({zc_per_io}) must undercut nvme_io ({})",
        c.nvme_io
    );
}
