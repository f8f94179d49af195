//! Everything the benchmark reads out of the system's own telemetry.
//!
//! * [`Counts`] is the flat set of **C** counters. This file is the only
//!   place that reads `atmo_trace::Snapshot` fields (or `CacheStats`,
//!   `Obligations`), so a trace rebuild has one file to re-bind.
//! * The **P** probes time public functions that sit below the syscall
//!   boundary by calling them directly, for a few tens of milliseconds,
//!   after the timed phase of a traced run.
//!
//! Nothing wall-clock-derived is read here: `Snapshot::sched_pick_hist`,
//! `locks.*.hold_max_cycles` and the `audit_*_hist` histograms pass host
//! nanoseconds through `ns_to_cycles`, so they are never consulted (a unit
//! test in `metrics.rs` scans the sources for them).

use std::hint::black_box;
use std::time::{Duration, Instant};

use atmo_hw::{EntryFlags, Machine, VAddr};
use atmo_kernel::Kernel;
use atmo_mem::{CacheStats, PageAllocator, PageSize};
use atmo_ptable::PageTable;
use atmo_spec::harness::{Invariant, Obligations};
use atmo_spec::SetFold;
use atmo_trace::{FastpathOutcome, ReturnClass, Snapshot, SyscallKind, TraceSink};

macro_rules! counts {
    ($($field:ident),* $(,)?) => {
        /// Cumulative counters; subtract two readings for a phase's delta.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Counts { $(pub $field: u64,)* }

        impl Counts {
            /// `self − base`, field by field (counters are monotone).
            pub fn since(&self, base: &Counts) -> Counts {
                Counts { $($field: self.$field - base.$field,)* }
            }

            /// `self + other`, field by field.
            pub fn plus(&self, other: &Counts) -> Counts {
                Counts { $($field: self.$field + other.$field,)* }
            }
        }
    };
}

counts! {
    syscalls, syscall_errs,
    lock_pm_acq, lock_mem_acq, lock_trace_acq, lock_wait_cycles,
    ctx_switches, rendezvous, fp_hits, fp_fallbacks, slot_hits, slot_misses,
    sched_picks, sched_enqueues, sched_parks, sched_refills, sched_throttles,
    sched_inherited,
    mem_allocs, mem_frames, cache_fast_allocs, cache_refills, cache_drains,
    pt_maps, pt_unmaps, pt_frames_mapped, pt_frames_unmapped,
    vm_batch_hits, vm_promotions, vm_demotions, vm_tlb_deferred, vm_tlb_flushed,
    nr_read_local, nr_fallback_locked, nr_appended, nr_replayed, nr_combines,
    events, events_dropped,
    net_rx_batches, net_rx_frames, net_tx_batches, net_tx_frames,
    net_pool_acquired, net_pool_released, net_pool_exhausted, net_fallback_copies,
    blk_submit_batches, blk_submit_ios, blk_reap_ios, blk_wakeups,
    blk_pool_acquired, blk_pool_released, blk_pool_exhausted, blk_fallback_copies,
    httpd_accepts, httpd_closes, httpd_served, httpd_timeouts, httpd_cascades,
    httpd_parked, httpd_unparked, httpd_malformed, httpd_polls, httpd_ready,
    audit_incremental, audit_full, audit_touched,
    obligations,
}

impl Counts {
    /// Reads one trace snapshot.
    pub fn of_snapshot(s: &Snapshot) -> Counts {
        let c = &s.counters;
        Counts {
            syscalls: s.total_syscall_exits(),
            syscall_errs: s.syscalls.iter().map(|k| k.errs).sum(),
            lock_pm_acq: c.locks.pm.acquisitions,
            lock_mem_acq: c.locks.mem.acquisitions,
            lock_trace_acq: c.locks.trace.acquisitions,
            lock_wait_cycles: s.lock_wait_pm_hist.total_cycles()
                + s.lock_wait_mem_hist.total_cycles(),
            ctx_switches: c.pm.context_switches,
            rendezvous: c.pm.rendezvous,
            fp_hits: c.pm.fastpath.hits,
            fp_fallbacks: c.pm.fastpath.fallbacks(),
            slot_hits: c.pm.fastpath.slot_cache_hits,
            slot_misses: c.pm.fastpath.slot_cache_misses,
            sched_picks: c.sched.picks,
            sched_enqueues: c.sched.enqueues,
            sched_parks: c.sched.parked,
            sched_refills: c.sched.refills,
            sched_throttles: c.sched.throttles,
            sched_inherited: c.sched.inherited_handoffs,
            mem_allocs: c.mem.allocs,
            mem_frames: c.mem.frames_allocated,
            pt_maps: c.ptable.maps,
            pt_unmaps: c.ptable.unmaps,
            pt_frames_mapped: c.ptable.frames_mapped,
            pt_frames_unmapped: c.ptable.frames_unmapped,
            vm_batch_hits: c.vm.map_batch_hits,
            vm_promotions: c.vm.superpage_promotions,
            vm_demotions: c.vm.superpage_demotions,
            vm_tlb_deferred: c.vm.tlb_shootdowns_deferred,
            vm_tlb_flushed: c.vm.tlb_shootdowns_flushed,
            nr_read_local: c.nr.read_local,
            nr_fallback_locked: c.nr.fallback_locked,
            nr_appended: c.nr.appended,
            nr_replayed: c.nr.replayed,
            nr_combines: c.nr.combine_batches,
            events: s.total_events,
            events_dropped: s.total_dropped,
            net_rx_batches: c.net.rx_zc_batches,
            net_rx_frames: c.net.rx_zc_frames,
            net_tx_batches: c.net.tx_zc_batches,
            net_tx_frames: c.net.tx_zc_frames,
            net_pool_acquired: c.net.pool_acquired,
            net_pool_released: c.net.pool_released,
            net_pool_exhausted: c.net.pool_exhausted,
            net_fallback_copies: c.net.fallback_copies,
            blk_submit_batches: c.blk.submit_batches,
            blk_submit_ios: c.blk.submit_ios,
            blk_reap_ios: c.blk.reap_ios,
            blk_wakeups: c.blk.wakeups,
            blk_pool_acquired: c.blk.pool_acquired,
            blk_pool_released: c.blk.pool_released,
            blk_pool_exhausted: c.blk.pool_exhausted,
            blk_fallback_copies: c.blk.fallback_copies,
            httpd_accepts: c.httpd.accepts,
            httpd_closes: c.httpd.closes,
            httpd_served: c.httpd.served,
            httpd_timeouts: c.httpd.timeouts_keepalive
                + c.httpd.timeouts_header
                + c.httpd.timeouts_drain,
            httpd_cascades: c.httpd.wheel_cascades,
            httpd_parked: c.httpd.parked,
            httpd_unparked: c.httpd.unparked,
            httpd_malformed: c.httpd.malformed,
            httpd_polls: c.httpd.polls,
            // A histogram of *counts* (ready-set sizes), not of time.
            httpd_ready: s.httpd_ready_hist.total_cycles(),
            audit_incremental: c.audit.incremental,
            audit_full: c.audit.full,
            audit_touched: c.audit.touched_entries,
            ..Counts::default()
        }
    }

    /// Adds the per-CPU page-cache statistics of a sharded kernel.
    pub fn with_caches(mut self, caches: impl IntoIterator<Item = CacheStats>) -> Counts {
        for s in caches {
            self.cache_fast_allocs += s.fast_allocs;
            self.cache_refills += s.refills;
            self.cache_drains += s.drains;
        }
        self
    }

    /// Adds the process-wide count of discharged proof obligations.
    pub fn with_obligations(mut self) -> Counts {
        self.obligations = Obligations::count();
        self
    }
}

/// Calls `f` until `budget` has passed; returns mean ns per call. The
/// clock is read once per batch, and batches double while they stay short,
/// so a 20 ns function is not timed by its `Instant` reads and a 300 ms
/// one runs once.
fn time_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let (mut calls, mut batch) = (0u64, 1u64);
    loop {
        let batch_start = Instant::now();
        for _ in 0..batch {
            f();
        }
        calls += batch;
        let spent = start.elapsed();
        if spent >= budget {
            return spent.as_nanos() as f64 / calls as f64;
        }
        if batch_start.elapsed() < budget / 16 {
            batch *= 2;
        }
    }
}

const PROBE_BUDGET: Duration = Duration::from_millis(30);

/// The direct-call probes that need no workload state.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probes {
    pub mem_alloc_free_ns: f64,
    pub mem_contig2m_us: f64,
    pub ptable_map_unmap_ns_per_page: f64,
    pub trace_event_ns: f64,
    pub spec_fold_ns: f64,
}

pub fn run_probes() -> Probes {
    // A fresh 64 MiB machine's allocator, the size workloads 1-3 and 7 boot.
    let machine = Machine::boot_c220g5(64, 1, "");
    let mut alloc = PageAllocator::new(&machine.boot);

    let mem_alloc_free_ns = time_per_call(PROBE_BUDGET, || {
        let (_, perm) = alloc.alloc_page_4k().expect("fresh allocator has pages");
        alloc.free_page_4k(black_box(perm));
    });

    let mem_contig2m_us = time_per_call(PROBE_BUDGET, || {
        let head = alloc
            .try_alloc_contiguous_2m()
            .expect("a fresh allocator can assemble 2 MiB");
        alloc.split_mapped_2m(head);
        for k in 0..PageSize::Size2M.frames() {
            alloc.dec_map_ref(head + k * atmo_hw::PAGE_SIZE_4K);
        }
    }) / 1e3;

    const RUN: usize = 16;
    let mut table = PageTable::new(&mut alloc).expect("root table frame");
    let frames: Vec<usize> = (0..RUN)
        .map(|_| alloc.alloc_mapped(PageSize::Size4K).expect("probe frames"))
        .collect();
    let base = VAddr(0x4000_0000);
    let ptable_map_unmap_ns_per_page = time_per_call(PROBE_BUDGET, || {
        table
            .map_range(&mut alloc, base, &frames, EntryFlags::user_rw())
            .expect("probe range maps");
        black_box(table.unmap_range(base, RUN).expect("probe range unmaps"));
    }) / RUN as f64;

    let sink = TraceSink::new(1, atmo_trace::DEFAULT_RING_CAPACITY);
    let trace_event_ns = time_per_call(PROBE_BUDGET, || {
        sink.syscall_enter(0, SyscallKind::Yield);
        sink.fastpath_event(FastpathOutcome::Hit);
        sink.syscall_exit(0, SyscallKind::Yield, ReturnClass::Ok, 439);
    }) / 3.0;

    let mut fold = SetFold::new();
    let mut x = 0u64;
    let spec_fold_ns = time_per_call(PROBE_BUDGET, || {
        x = x.wrapping_add(0x1000);
        fold.insert(black_box(x));
        fold.remove(black_box(x));
        black_box(&fold);
    });

    Probes {
        mem_alloc_free_ns,
        mem_contig2m_us,
        ptable_map_unmap_ns_per_page,
        trace_event_ns,
        spec_fold_ns,
    }
}

/// `Kernel::view()` and `Kernel::wf()` on the workload's own flat kernel:
/// `(view µs, wf µs)`.
pub fn probe_view_wf(k: &Kernel) -> (f64, f64) {
    let view = time_per_call(PROBE_BUDGET, || {
        black_box(k.view());
    }) / 1e3;
    let wf = time_per_call(PROBE_BUDGET, || {
        black_box(k.wf()).expect("probe runs on a well-formed kernel");
    }) / 1e3;
    (view, wf)
}

/// One `trace_snapshot()` of the workload's sink, in µs.
pub fn probe_snapshot_us(mut snapshot: impl FnMut() -> Snapshot) -> f64 {
    time_per_call(PROBE_BUDGET, || {
        black_box(snapshot());
    }) / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_and_plus_are_fieldwise() {
        let a = Counts {
            syscalls: 10,
            fp_hits: 4,
            ..Counts::default()
        };
        let b = Counts {
            syscalls: 25,
            fp_hits: 9,
            obligations: 3,
            ..Counts::default()
        };
        let d = b.since(&a);
        assert_eq!((d.syscalls, d.fp_hits, d.obligations), (15, 5, 3));
        assert_eq!(a.plus(&d), b);
    }

    #[test]
    fn snapshot_reading_matches_issued_syscalls() {
        let sink = TraceSink::new(2, 64);
        for cpu in 0..2 {
            sink.syscall_enter(cpu, SyscallKind::Getpid);
            sink.syscall_exit(cpu, SyscallKind::Getpid, ReturnClass::Ok, 300);
        }
        sink.syscall_enter(0, SyscallKind::Mmap);
        sink.syscall_exit(0, SyscallKind::Mmap, ReturnClass::Quota, 700);
        let c = Counts::of_snapshot(&sink.snapshot());
        assert_eq!((c.syscalls, c.syscall_errs), (3, 1));
        assert_eq!(c.events, 6);
        assert!(c.lock_trace_acq >= 6);
    }
}
