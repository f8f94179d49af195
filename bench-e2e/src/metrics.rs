//! The metric registry: every name the benchmark prints, with its unit,
//! and the arithmetic that turns a run's raw readings into per-layer
//! metrics. `BENCHMARK.json` lists exactly these names (unit-tested).

use atmo_hw::CostModel;
use atmo_trace::SyscallKind;

use crate::probe::{Counts, Probes};
use crate::span::{ratio, Name, Tracer};

/// Modeled clock rate: the c220g5's 2.2 GHz.
pub const FREQ_HZ: f64 = 2.2e9;

/// `(name, unit)` of the end-to-end metrics, in printing order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("host.kops_per_s", "kops/s"),
    ("host.peak_rss_mib", "MiB"),
    ("model.cycles_per_op", "cycles"),
    ("model.kops_per_s", "kops/s"),
    ("model.p50_cycles", "cycles"),
    ("model.p99_cycles", "cycles"),
    ("model.p999_cycles", "cycles"),
];

/// `(name, unit)` of the per-layer metrics, in printing order.
pub const PER_LAYER: [(&str, &str); 100] = [
    // kernel: dispatch
    ("kernel.syscalls_per_op", "count"),
    ("kernel.syscall_host_ns_p50", "ns"),
    ("kernel.syscall_host_ns_p99", "ns"),
    ("kernel.syscall_model_cycles", "cycles"),
    ("kernel.trampoline_share", "ratio"),
    ("kernel.allocs_per_syscall", "count"),
    ("kernel.err_ratio", "ratio"),
    // kernel: locks
    ("kernel.lock_pm_acq_per_op", "count"),
    ("kernel.lock_mem_acq_per_op", "count"),
    ("kernel.lock_wait_cycles_per_op", "cycles"),
    // kernel::vm
    ("kernel.vm_host_ns_per_page_s", "ns"),
    ("kernel.vm_host_ns_per_page_l", "ns"),
    // kernel::blk
    ("kernel.blk_submit_host_ns", "ns"),
    ("kernel.blk_reap_host_ns", "ns"),
    ("kernel.blk_cycles_per_io", "cycles"),
    ("kernel.blk_ios_per_submit", "count"),
    ("kernel.blk_wakeups_per_op", "count"),
    // kernel: oracle
    ("kernel.refine_host_us", "us"),
    ("kernel.view_host_us", "us"),
    ("kernel.wf_host_us", "us"),
    ("kernel.audit_inc_host_us", "us"),
    ("kernel.audit_full_host_ms", "ms"),
    ("kernel.audit_touched_per_inc", "count"),
    // pm: IPC
    ("pm.ctx_switches_per_op", "count"),
    ("pm.rendezvous_per_op", "count"),
    ("pm.fastpath_hit_ratio", "ratio"),
    ("pm.slot_cache_hit_ratio", "ratio"),
    ("pm.inherited_handoffs_per_op", "count"),
    // pm::sched
    ("pm.sched_picks_per_op", "count"),
    ("pm.sched_enqueues_per_op", "count"),
    ("pm.sched_parks_per_op", "count"),
    ("pm.sched_refills_per_op", "count"),
    ("pm.sched_throttles_per_op", "count"),
    ("pm.tick_host_ns_p50", "ns"),
    ("pm.tick_host_ns_p99", "ns"),
    ("pm.tick_allocs", "count"),
    // mem
    ("mem.page_allocs_per_op", "count"),
    ("mem.frames_per_op", "count"),
    ("mem.cache_hit_ratio", "ratio"),
    ("mem.cache_refills_per_kop", "count"),
    ("mem.cache_drains_per_kop", "count"),
    ("mem.alloc_free_host_ns", "ns"),
    ("mem.contig2m_host_us", "us"),
    // ptable
    ("ptable.maps_per_op", "count"),
    ("ptable.frames_mapped_per_op", "count"),
    ("ptable.batch_hit_ratio", "ratio"),
    ("ptable.promotions_per_kop", "count"),
    ("ptable.demotions_per_kop", "count"),
    ("ptable.tlb_flush_per_deferred", "ratio"),
    ("ptable.map_unmap_host_ns", "ns"),
    // nr
    ("nr.read_local_ratio", "ratio"),
    ("nr.appended_per_op", "count"),
    ("nr.replayed_per_op", "count"),
    ("nr.ops_per_combine", "count"),
    ("nr.read_host_ns_p50", "ns"),
    ("nr.read_model_cycles", "cycles"),
    // trace
    ("trace.events_per_op", "count"),
    ("trace.dropped_ratio", "ratio"),
    ("trace.lock_acq_per_op", "count"),
    ("trace.event_host_ns", "ns"),
    ("trace.snapshot_host_us", "us"),
    ("trace.host_share_est", "ratio"),
    // drivers
    ("drivers.rx_host_ns_per_frame", "ns"),
    ("drivers.tx_host_ns_per_frame", "ns"),
    ("drivers.rx_cycles_per_frame", "cycles"),
    ("drivers.tx_cycles_per_frame", "cycles"),
    ("drivers.rx_frames_per_batch", "count"),
    ("drivers.tx_frames_per_batch", "count"),
    ("drivers.pktpool_exhausted_ratio", "ratio"),
    ("drivers.pktpool_in_flight_peak", "count"),
    ("drivers.blkpool_exhausted_ratio", "ratio"),
    ("drivers.fallback_copies_per_op", "count"),
    ("drivers.steer_miss_ratio", "ratio"),
    ("drivers.allocs_per_frame", "count"),
    // apps
    ("apps.ingest_host_ns_per_frame", "ns"),
    ("apps.tick_host_ns_p50", "ns"),
    ("apps.tick_host_ns_p99", "ns"),
    ("apps.tick_model_cycles", "cycles"),
    ("apps.ready_per_tick", "count"),
    ("apps.parked_per_kop", "count"),
    ("apps.timeouts_per_kop", "count"),
    ("apps.cascades_per_kop", "count"),
    ("apps.accepts_per_op", "count"),
    ("apps.malformed_ratio", "ratio"),
    ("apps.allocs_per_op", "count"),
    ("apps.kv_host_ns_per_req", "ns"),
    ("apps.kv_log_bytes_per_user_byte", "ratio"),
    ("apps.kv_records_per_live", "ratio"),
    ("apps.kv_compactions", "count"),
    // spec
    ("spec.obligations_per_op", "count"),
    ("spec.fold_host_ns", "ns"),
    // hw: the model's anchors against the paper's Table 3
    ("hw.anchor_call_reply_cycles", "cycles"),
    ("hw.anchor_fastpath_cycles", "cycles"),
    ("hw.anchor_map_page_cycles", "cycles"),
    // harness
    ("host.allocs_per_op", "count"),
    ("bench.self_ns_per_op", "ns"),
    ("bench.self_share", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.slice_cv", "ratio"),
    ("bench.span_violations", "count"),
];

/// Per-layer metrics built from spans (instruments M and A): present in
/// traced records only.
pub const SPAN_DERIVED: [&str; 10] = [
    "kernel.syscall_model_cycles",
    "kernel.allocs_per_syscall",
    "kernel.blk_cycles_per_io",
    "pm.tick_allocs",
    "nr.read_model_cycles",
    "drivers.rx_cycles_per_frame",
    "drivers.tx_cycles_per_frame",
    "drivers.allocs_per_frame",
    "apps.tick_model_cycles",
    "apps.allocs_per_op",
];

/// `(name, bound)` of every end-to-end metric, read from the
/// `BENCHMARK.json` the binary was built beside.
pub fn bounds() -> Vec<(String, f64)> {
    let doc =
        crate::json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let crate::json::Json::Arr(items) = doc.get("end_to_end").expect("end_to_end") else {
        panic!("end_to_end is not an array");
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(|n| n.as_str()).expect("name").into(),
                m.get("bound").and_then(|b| b.as_f64()).expect("bound"),
            )
        })
        .collect()
}

/// The three Table 3 anchors, measured during set-up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Anchors {
    pub call_reply: u64,
    pub fastpath: u64,
    pub map_page: u64,
}

impl Anchors {
    pub const PAPER: Anchors = Anchors {
        call_reply: 1058,
        fastpath: 718,
        map_page: 1984,
    };

    pub fn measure() -> Anchors {
        Anchors {
            call_reply: atmo_bench::measure_call_reply_cycles(),
            fastpath: atmo_bench::measure_call_reply_fastpath_cycles(),
            map_page: atmo_bench::measure_map_page_cycles(),
        }
    }
}

/// Workload-specific readings no shared counter carries. Everything
/// defaults to 0, which is also what a workload that bypasses the layer
/// reports.
#[derive(Clone, Debug, Default)]
pub struct Extras {
    /// Host ns and pages of traced `Mmap`/`Munmap` spans, runs ≤ 31 pages.
    pub vm_small: (u64, u64),
    /// The same for runs ≥ 64 pages.
    pub vm_large: (u64, u64),
    /// Host-ns samples of traced replicated-read syscalls.
    pub nr_read_samples: Vec<u32>,
    pub pktpool_in_flight_peak: u64,
    pub steer_checked: u64,
    pub steer_missed: u64,
    pub kv_log_bytes: u64,
    pub kv_user_bytes: u64,
    pub kv_records: u64,
    pub kv_live: u64,
    pub kv_compactions: u64,
    /// `(view µs, wf µs)` probed on the workload's flat kernel, if it has one.
    pub view_wf_us: (f64, f64),
    pub snapshot_us: f64,
}

/// Everything a finished run knows, as input to [`per_layer`].
pub struct Readings<'a> {
    /// Ops of the timed phase.
    pub ops: u64,
    /// Σ modeled cycles of the timed phase over all meters.
    pub model_cycles: u64,
    /// Host ns per op over the untraced slices.
    pub host_ns_per_op: f64,
    /// Counter deltas of the timed phase.
    pub d: Counts,
    pub tr: &'a mut Tracer,
    pub x: &'a mut Extras,
    pub probes: Probes,
    pub anchors: Anchors,
    pub allocs_per_op: f64,
    pub trace_overhead_ratio: f64,
    pub slice_cv: f64,
}

const NR_READ_KINDS: [SyscallKind; 4] = [
    SyscallKind::Getpid,
    SyscallKind::ThreadLookup,
    SyscallKind::DescriptorResolve,
    SyscallKind::VmResolve,
];

/// The tag a `kernel.syscall` span carries for `kind`.
pub fn kind_tag(kind: SyscallKind) -> u8 {
    kind.index() as u8
}

/// Computes every per-layer metric, in [`PER_LAYER`] order.
pub fn per_layer(r: &mut Readings<'_>) -> Vec<(&'static str, f64)> {
    let ops = r.ops as f64;
    let kop = ops / 1000.0;
    let d = r.d;
    let f = |x: u64| x as f64;
    let costs = CostModel::c220g5();
    let tr = &mut *r.tr;

    let [sys_p50, sys_p99] = tr.host_ns_quantiles(Name::KernelSyscall, [0.5, 0.99]);
    let [tick_p50, tick_p99] = tr.host_ns_quantiles(Name::PmTimerTick, [0.5, 0.99]);
    let [app_tick_p50, app_tick_p99] = tr.host_ns_quantiles(Name::AppsTick, [0.5, 0.99]);
    r.x.nr_read_samples.sort_unstable();
    let nr_p50 = crate::stats::quantile_sorted(&r.x.nr_read_samples, 0.5).unwrap_or(0) as f64;

    let sys = tr.agg(Name::KernelSyscall);
    let submit = tr.syscall_kind(kind_tag(SyscallKind::BlkSubmitBatch));
    let reap = tr.syscall_kind(kind_tag(SyscallKind::BlkReapBatch));
    let ios_per_submit = ratio(f(d.blk_submit_ios), f(d.blk_submit_batches));
    let (nr_model, nr_count) = NR_READ_KINDS.iter().fold((0u64, 0u64), |(m, c), k| {
        let a = tr.syscall_kind(kind_tag(*k));
        (m + a.model, c + a.count)
    });
    let tick = tr.agg(Name::PmTimerTick);
    let app_tick = tr.agg(Name::AppsTick);
    let ingest = tr.agg(Name::AppsIngest);
    let kv = tr.agg(Name::AppsKvServe);
    let rx = tr.agg(Name::DriversRxBatchZc);
    let tx = tr.agg(Name::DriversTxBatchZc);
    let refine = tr.agg(Name::KernelAuditedSyscall);
    let audit_inc = tr.agg(Name::KernelAuditIncremental);
    let audit_full = tr.agg(Name::KernelAuditTotalWf);
    let op = tr.agg(Name::Op);

    let events_per_op = ratio(f(d.events), ops);
    let self_ns_per_op = ratio(f(op.self_ns), f(op.units));
    let traced_ops = f(op.units);

    let values = vec![
        ratio(f(d.syscalls), ops),
        sys_p50,
        sys_p99,
        sys.mean_model(),
        ratio(
            f(d.syscalls * (costs.syscall_entry + costs.syscall_exit)),
            f(r.model_cycles),
        ),
        ratio(f(sys.allocs), f(sys.count)),
        ratio(f(d.syscall_errs), f(d.syscalls)),
        ratio(f(d.lock_pm_acq), ops),
        ratio(f(d.lock_mem_acq), ops),
        ratio(f(d.lock_wait_cycles), ops),
        ratio(f(r.x.vm_small.0), f(r.x.vm_small.1)),
        ratio(f(r.x.vm_large.0), f(r.x.vm_large.1)),
        submit.mean_host_ns(),
        reap.mean_host_ns(),
        ratio(
            f(submit.model + reap.model),
            f(submit.count) * ios_per_submit,
        ),
        ios_per_submit,
        ratio(f(d.blk_wakeups), ops),
        refine.mean_host_ns() / 1e3,
        r.x.view_wf_us.0,
        r.x.view_wf_us.1,
        audit_inc.mean_host_ns() / 1e3,
        audit_full.mean_host_ns() / 1e6,
        ratio(f(d.audit_touched), f(d.audit_incremental)),
        ratio(f(d.ctx_switches), ops),
        ratio(f(d.rendezvous), ops),
        ratio(f(d.fp_hits), f(d.fp_hits + d.fp_fallbacks)),
        ratio(f(d.slot_hits), f(d.slot_hits + d.slot_misses)),
        ratio(f(d.sched_inherited), ops),
        ratio(f(d.sched_picks), ops),
        ratio(f(d.sched_enqueues), ops),
        ratio(f(d.sched_parks), ops),
        ratio(f(d.sched_refills), ops),
        ratio(f(d.sched_throttles), ops),
        tick_p50,
        tick_p99,
        ratio(f(tick.allocs), f(tick.count)),
        ratio(f(d.mem_allocs), ops),
        ratio(f(d.mem_frames), ops),
        ratio(
            f(d.cache_fast_allocs),
            f(d.cache_fast_allocs + d.cache_refills),
        ),
        ratio(f(d.cache_refills), kop),
        ratio(f(d.cache_drains), kop),
        r.probes.mem_alloc_free_ns,
        r.probes.mem_contig2m_us,
        ratio(f(d.pt_maps), ops),
        ratio(f(d.pt_frames_mapped), ops),
        ratio(f(d.vm_batch_hits), f(d.pt_maps + d.pt_unmaps)),
        ratio(f(d.vm_promotions), kop),
        ratio(f(d.vm_demotions), kop),
        ratio(f(d.vm_tlb_flushed), f(d.vm_tlb_deferred)),
        r.probes.ptable_map_unmap_ns_per_page,
        ratio(
            f(d.nr_read_local),
            f(d.nr_read_local + d.nr_fallback_locked),
        ),
        ratio(f(d.nr_appended), ops),
        ratio(f(d.nr_replayed), ops),
        ratio(f(d.nr_appended), f(d.nr_combines)),
        nr_p50,
        ratio(f(nr_model), f(nr_count)),
        events_per_op,
        ratio(f(d.events_dropped), f(d.events)),
        ratio(f(d.lock_trace_acq), ops),
        r.probes.trace_event_ns,
        r.x.snapshot_us,
        ratio(events_per_op * r.probes.trace_event_ns, r.host_ns_per_op),
        rx.host_ns_per_unit(),
        tx.host_ns_per_unit(),
        rx.model_per_unit(),
        tx.model_per_unit(),
        ratio(f(d.net_rx_frames), f(d.net_rx_batches)),
        ratio(f(d.net_tx_frames), f(d.net_tx_batches)),
        ratio(
            f(d.net_pool_exhausted),
            f(d.net_pool_acquired + d.net_pool_exhausted),
        ),
        f(r.x.pktpool_in_flight_peak),
        ratio(
            f(d.blk_pool_exhausted),
            f(d.blk_pool_acquired + d.blk_pool_exhausted),
        ),
        ratio(f(d.net_fallback_copies + d.blk_fallback_copies), ops),
        ratio(f(r.x.steer_missed), f(r.x.steer_checked)),
        ratio(f(rx.allocs + tx.allocs), f(rx.units + tx.units)),
        ingest.host_ns_per_unit(),
        app_tick_p50,
        app_tick_p99,
        app_tick.mean_model(),
        ratio(f(d.httpd_ready), f(d.httpd_polls)),
        ratio(f(d.httpd_parked), kop),
        ratio(f(d.httpd_timeouts), kop),
        ratio(f(d.httpd_cascades), kop),
        ratio(f(d.httpd_accepts), ops),
        ratio(f(d.httpd_malformed), ops),
        ratio(f(ingest.allocs + app_tick.allocs + kv.allocs), traced_ops),
        kv.host_ns_per_unit(),
        ratio(f(r.x.kv_log_bytes), f(r.x.kv_user_bytes)),
        ratio(f(r.x.kv_records), f(r.x.kv_live)),
        f(r.x.kv_compactions),
        ratio(f(d.obligations), ops),
        r.probes.spec_fold_ns,
        f(r.anchors.call_reply),
        f(r.anchors.fastpath),
        f(r.anchors.map_page),
        r.allocs_per_op,
        self_ns_per_op,
        ratio(self_ns_per_op, ratio(f(op.host_ns), f(op.units))),
        r.trace_overhead_ratio,
        r.slice_cv,
        f(tr.violations),
    ];
    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "registry and arithmetic drifted"
    );
    PER_LAYER.iter().map(|(n, _)| *n).zip(values).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// Every source file of the package, tests stripped.
    fn sources() -> Vec<(&'static str, &'static str)> {
        let files = [
            ("main.rs", include_str!("main.rs")),
            ("alloc.rs", include_str!("alloc.rs")),
            ("harness.rs", include_str!("harness.rs")),
            ("json.rs", include_str!("json.rs")),
            ("metrics.rs", include_str!("metrics.rs")),
            ("probe.rs", include_str!("probe.rs")),
            ("rng.rs", include_str!("rng.rs")),
            ("span.rs", include_str!("span.rs")),
            ("stats.rs", include_str!("stats.rs")),
            ("workloads/mod.rs", include_str!("workloads/mod.rs")),
            ("workloads/ipc_rpc.rs", include_str!("workloads/ipc_rpc.rs")),
            (
                "workloads/vm_churn.rs",
                include_str!("workloads/vm_churn.rs"),
            ),
            (
                "workloads/smp_readmix.rs",
                include_str!("workloads/smp_readmix.rs"),
            ),
            (
                "workloads/net_http.rs",
                include_str!("workloads/net_http.rs"),
            ),
            ("workloads/kv_blk.rs", include_str!("workloads/kv_blk.rs")),
            (
                "workloads/tenant_sched.rs",
                include_str!("workloads/tenant_sched.rs"),
            ),
            (
                "workloads/checked_fuzz.rs",
                include_str!("workloads/checked_fuzz.rs"),
            ),
        ];
        files
            .into_iter()
            .map(|(name, text)| (name, text.split("#[cfg(test)]").next().unwrap_or(text)))
            .collect()
    }

    /// Code only: `//` comments may name what the code must not touch.
    fn code_lines(text: &str) -> impl Iterator<Item = &str> {
        text.lines()
            .map(|l| l.split("//").next().unwrap_or(l))
            .filter(|l| !l.trim().is_empty())
    }

    #[test]
    fn no_metric_reads_a_wall_clock_histogram() {
        // These pass host nanoseconds through `ns_to_cycles`; a metric
        // derived from them would put wall-clock under a `model.` name.
        let banned = [
            "sched_pick_hist",
            "hold_max_cycles",
            "audit_incremental_hist",
            "audit_full_hist",
            "audit_touched_hist",
            "ns_to_cycles",
        ];
        for (file, text) in sources() {
            for line in code_lines(text) {
                for b in banned {
                    assert!(!line.contains(b), "{file} reads {b}: {line}");
                }
            }
        }
    }

    #[test]
    fn snapshot_fields_are_read_in_probe_rs_only() {
        for (file, text) in sources() {
            if file == "probe.rs" {
                continue;
            }
            for line in code_lines(text) {
                for field in [
                    ".counters.",
                    "lock_wait_pm_hist",
                    "lock_wait_mem_hist",
                    "httpd_ready_hist",
                    ".total_dropped",
                    ".total_events",
                    ".per_cpu",
                    ".net_in_flight",
                    ".blk_in_flight",
                ] {
                    assert!(
                        !line.contains(field),
                        "{file} reads a Snapshot field: {line}"
                    );
                }
            }
        }
    }

    #[test]
    fn nothing_slated_for_deletion_is_bound() {
        let banned = [
            "BigLockKernel",
            "set_batch",
            "atmo_apps::Httpd",
            "KvStore",
            "lock-order-checks",
            "microbench",
        ];
        for (file, text) in sources() {
            for line in code_lines(text) {
                for b in banned {
                    assert!(!line.contains(b), "{file} binds to {b}: {line}");
                }
            }
        }
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn benchmark_json_lists_exactly_the_names_the_binary_emits() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let json::Json::Arr(items) = doc.get(key).expect(key) else {
                panic!("{key} is not an array");
            };
            items
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(|n| n.as_str()).unwrap().to_string(),
                        m.get("unit").and_then(|n| n.as_str()).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let json::Json::Arr(workloads) = doc.get("workloads").unwrap() else {
            panic!("workloads is not an array");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap())
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
        assert_eq!(
            doc.get("run_seconds").and_then(|s| s.as_f64()),
            Some(crate::harness::DEFAULT_SECONDS as f64)
        );
    }
}
