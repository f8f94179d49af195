//! The merged trace snapshot and its plain-text report rendering.

use crate::counters::Counters;
use crate::event::{EventKind, SyscallKind, NUM_EVENT_KINDS};
use crate::hist::LatencyHist;

/// One CPU's ring summary at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CpuSummary {
    /// CPU index.
    pub cpu: usize,
    /// Ring head sequence number (= events ever pushed on this CPU).
    pub head: u64,
    /// Ring tail sequence number.
    pub tail: u64,
    /// Events overwritten before being read.
    pub dropped: u64,
    /// Events pushed, by [`EventKind`].
    pub kinds: [u64; NUM_EVENT_KINDS],
    /// Dispatcher entries by syscall kind (indexed by
    /// [`SyscallKind::index`]).
    pub per_kind_enters: Vec<u64>,
    /// Dispatcher returns by syscall kind.
    pub per_kind_exits: Vec<u64>,
}

impl CpuSummary {
    /// Total dispatcher returns on this CPU.
    pub fn syscall_exits(&self) -> u64 {
        self.per_kind_exits.iter().sum()
    }
}

/// Merged per-kind syscall statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyscallSummary {
    /// Which syscall.
    pub kind: SyscallKind,
    /// Dispatcher entries.
    pub enters: u64,
    /// Dispatcher returns.
    pub exits: u64,
    /// Success-class returns.
    pub ok: u64,
    /// Error-class returns.
    pub errs: u64,
    /// Mean latency in modeled cycles.
    pub mean_cycles: u64,
    /// Median latency (log2-bucket resolution).
    pub p50_cycles: u64,
    /// 90th-percentile latency.
    pub p90_cycles: u64,
    /// 99th-percentile latency.
    pub p99_cycles: u64,
    /// Largest observed latency.
    pub max_cycles: u64,
}

/// A merged view of the whole trace subsystem. Each recorder's CPU block
/// is read between two of its events, so each per-CPU summary is
/// coherent and the merge is exact whenever the sink is quiescent.
///
/// Every field is a count or a modeled-cycle quantity — nothing here is
/// read off the host clock — so two runs of one seeded workload yield
/// equal snapshots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Per-CPU ring summaries.
    pub per_cpu: Vec<CpuSummary>,
    /// Merged syscall statistics, one entry per [`SyscallKind`].
    pub syscalls: Vec<SyscallSummary>,
    /// Merged event counts by [`EventKind`].
    pub kinds: [u64; NUM_EVENT_KINDS],
    /// Subsystem counters.
    pub counters: Counters,
    /// Packet-pool slots in flight (acquired − released) at snapshot
    /// time — a gauge, kept apart from the monotone counters.
    pub net_in_flight: i64,
    /// Block-pool slots in flight (acquired − released) at snapshot
    /// time — the blk datapath's gauge, same discipline.
    pub blk_in_flight: i64,
    /// Distribution of ledger entries folded per incremental audit (the
    /// touched-set size each O(touched) audit actually paid for).
    pub audit_touched_hist: LatencyHist,
    /// Distribution of modeled cycles syscalls waited to acquire the pm
    /// domain lock (meter catch-up to the lock's model time).
    pub lock_wait_pm_hist: LatencyHist,
    /// Distribution of modeled cycles syscalls waited to acquire the
    /// mem domain lock.
    pub lock_wait_mem_hist: LatencyHist,
    /// Live httpd connections (accepts − closes) at snapshot time — a
    /// gauge derived from the merged counters, kept apart from the
    /// monotone blocks like the pool in-flight gauges.
    pub httpd_conns_live: i64,
    /// Distribution of ready-set sizes per httpd event-loop iteration
    /// (one sample per poll, empty iterations included — the measured
    /// form of the O(ready) event-loop claim).
    pub httpd_ready_hist: LatencyHist,
    /// Distribution of run-queue levels and nodes touched per pick (one
    /// sample per pick — the exact form of the O(1)-in-tenants scheduler
    /// claim).
    pub sched_pick_hist: LatencyHist,
    /// Events ever pushed across all CPUs.
    pub total_events: u64,
    /// Events overwritten across all CPUs.
    pub total_dropped: u64,
}

impl Snapshot {
    /// The merged statistics for `kind`.
    pub fn syscall(&self, kind: SyscallKind) -> &SyscallSummary {
        &self.syscalls[kind.index()]
    }

    /// Completed calls of `kind` across all CPUs.
    pub fn exits(&self, kind: SyscallKind) -> u64 {
        self.syscall(kind).exits
    }

    /// Total completed syscalls across all CPUs and kinds.
    pub fn total_syscall_exits(&self) -> u64 {
        self.syscalls.iter().map(|s| s.exits).sum()
    }

    /// Renders the snapshot in the `results/repro-*.txt` report style.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== Trace snapshot: per-CPU event rings ==\n");
        out.push_str(&table(
            &["CPU", "Events", "Retained", "Dropped", "Syscalls"],
            self.per_cpu
                .iter()
                .map(|c| {
                    vec![
                        format!("{}", c.cpu),
                        format!("{}", c.head),
                        format!("{}", c.head - c.tail),
                        format!("{}", c.dropped),
                        format!("{}", c.syscall_exits()),
                    ]
                })
                .collect(),
        ));
        out.push_str("\n== Trace snapshot: syscall latency (modeled cycles) ==\n");
        out.push_str(&table(
            &[
                "Syscall", "Calls", "Ok", "Err", "Mean", "p50", "p90", "p99", "Max",
            ],
            self.syscalls
                .iter()
                .filter(|s| s.enters > 0)
                .map(|s| {
                    vec![
                        s.kind.name().to_string(),
                        format!("{}", s.exits),
                        format!("{}", s.ok),
                        format!("{}", s.errs),
                        format!("{}", s.mean_cycles),
                        format!("{}", s.p50_cycles),
                        format!("{}", s.p90_cycles),
                        format!("{}", s.p99_cycles),
                        format!("{}", s.max_cycles),
                    ]
                })
                .collect(),
        ));
        out.push_str("\n== Trace snapshot: lock domains ==\n");
        let locks = [
            ("pm", &self.counters.locks.pm),
            ("mem", &self.counters.locks.mem),
        ];
        out.push_str(&table(
            &["Domain", "Acquisitions", "Contended", "MaxHoldCycles"],
            locks
                .iter()
                .map(|(name, l)| {
                    vec![
                        name.to_string(),
                        format!("{}", l.acquisitions),
                        format!("{}", l.contended),
                        format!("{}", l.hold_max_cycles),
                    ]
                })
                .collect(),
        ));
        out.push_str("\n== Trace snapshot: lock wait (modeled cycles) ==\n");
        out.push_str(&table(
            &["Domain", "Waits", "Mean", "p50", "p90", "p99", "Max"],
            vec![
                hist_row("lock.wait_cycles.pm", &self.lock_wait_pm_hist),
                hist_row("lock.wait_cycles.mem", &self.lock_wait_mem_hist),
            ],
        ));
        out.push_str("\n== Trace snapshot: wf audits ==\n");
        out.push_str(&table(
            &["Audit", "Count", "Mean", "p50", "p90", "p99", "Max"],
            vec![hist_row("audit.touched_entries", &self.audit_touched_hist)],
        ));
        if self.httpd_ready_hist.count() > 0 || self.counters.httpd.accepts > 0 {
            out.push_str("\n== Trace snapshot: httpd event core ==\n");
            out.push_str(&table(
                &["Metric", "Count", "Mean", "p50", "p90", "p99", "Max"],
                vec![hist_row("httpd.ready_batch", &self.httpd_ready_hist)],
            ));
        }
        if self.sched_pick_hist.count() > 0 {
            out.push_str("\n== Trace snapshot: scheduler picks ==\n");
            out.push_str(&table(
                &["Metric", "Count", "Mean", "p50", "p90", "p99", "Max"],
                vec![hist_row("sched.pick_steps", &self.sched_pick_hist)],
            ));
        }
        out.push_str("\n== Trace snapshot: events and subsystem counters ==\n");
        let mut rows: Vec<Vec<String>> = EventKind::ALL
            .iter()
            .map(|k| {
                vec![
                    format!("events.{}", k.name()),
                    format!("{}", self.kinds[k.index()]),
                ]
            })
            .collect();
        for (name, v) in self.counters.flat() {
            rows.push(vec![name.to_string(), format!("{v}")]);
        }
        rows.push(vec![
            "net.in_flight (gauge)".to_string(),
            format!("{}", self.net_in_flight),
        ]);
        rows.push(vec![
            "blk.in_flight (gauge)".to_string(),
            format!("{}", self.blk_in_flight),
        ]);
        rows.push(vec![
            "httpd.conns_live (gauge)".to_string(),
            format!("{}", self.httpd_conns_live),
        ]);
        out.push_str(&table(&["Counter", "Value"], rows));
        out.push_str(&format!(
            "\n{} events on {} CPUs, {} dropped, {} syscalls completed.\n",
            self.total_events,
            self.per_cpu.len(),
            self.total_dropped,
            self.total_syscall_exits()
        ));
        out
    }
}

/// One histogram's report row: name, sample count, mean, p50/p90/p99, max.
fn hist_row(name: &str, h: &LatencyHist) -> Vec<String> {
    let mut row = vec![name.to_string()];
    row.extend([h.count(), h.mean(), h.p50(), h.p90(), h.p99(), h.max()].map(|v| v.to_string()));
    row
}

/// Renders a left-aligned column table in the house report style
/// (header row, dashed rule, padded cells).
fn table(headers: &[&str], rows: Vec<Vec<String>>) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, h) in headers.iter().enumerate() {
        out.push_str(&format!("{:<w$}  ", h, w = widths[i]));
    }
    out.push('\n');
    let rule_len = widths.iter().map(|w| w + 2).sum::<usize>();
    out.push_str(&"-".repeat(rule_len));
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ReturnClass;
    use crate::sink::TraceSink;

    #[test]
    fn render_mentions_active_syscalls_only() {
        let sink = TraceSink::new(2, 16);
        sink.syscall_enter(0, SyscallKind::Yield);
        sink.syscall_exit(0, SyscallKind::Yield, ReturnClass::Ok, 500);
        let text = sink.snapshot().render();
        assert!(text.contains("== Trace snapshot: per-CPU event rings =="));
        assert!(text.contains("yield"));
        assert!(!text.contains("iommu_map"), "inactive kinds are omitted");
        assert!(text.contains("events.syscall_exit"));
    }

    #[test]
    fn totals_reconcile() {
        let sink = TraceSink::new(4, 16);
        for cpu in 0..4 {
            sink.syscall_enter(cpu, SyscallKind::Mmap);
            sink.syscall_exit(cpu, SyscallKind::Mmap, ReturnClass::Ok, 1000 + cpu as u64);
        }
        let snap = sink.snapshot();
        assert_eq!(snap.total_syscall_exits(), 4);
        assert_eq!(snap.exits(SyscallKind::Mmap), 4);
        let per_cpu: u64 = snap.per_cpu.iter().map(|c| c.syscall_exits()).sum();
        assert_eq!(per_cpu, snap.total_syscall_exits());
    }
}
