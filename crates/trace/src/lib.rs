//! The tracing subsystem: per-CPU kernel event rings, syscall latency
//! histograms and per-subsystem counters.
//!
//! The paper's evaluation (§6) is built on measuring kernel hot paths —
//! IPC round trips, map/unmap, driver batches. This crate is the
//! measurement substrate for those paths in the reproduction: every
//! kernel transition can emit a typed [`KernelEvent`] into a
//! fixed-capacity per-CPU [`EventRing`], syscall latencies are folded
//! into log2-bucketed [`LatencyHist`]s keyed by syscall kind, and each
//! subsystem maintains a monotone [`Counters`] block. A merged
//! [`Snapshot`] serializes all of it in the same plain-text report style
//! as the `results/repro-*.txt` artefacts.
//!
//! Like every other subsystem in this reproduction, the trace state
//! carries its own flat, quantifier-only well-formedness invariant
//! ([`trace_wf`]): ring indices are coherent (`tail ≤ head`,
//! `head − tail ≤ capacity`, stored sequence numbers match), histogram
//! totals equal the per-kind event counts, and counters never decrease
//! between audits. The kernel conjoins `trace_wf` into its `total_wf`
//! check, so a lost or double-counted event is a verification failure,
//! not a silently wrong benchmark number.
//!
//! Design constraints mirror a real kernel tracer:
//!
//! * **Never blocks, never allocates after boot** — [`EventRing`] is a
//!   fixed array; when full, the oldest event is overwritten and the
//!   explicit `dropped` counter advances.
//! * **Per-CPU attribution without a global lock** — each OS thread
//!   drives one simulated CPU at a time, so [`TraceSink`] keeps a
//!   thread-local current-CPU cell set at syscall entry; subsystem code
//!   deep in the call graph emits without threading a CPU id through
//!   every signature, and the sink itself is sharded per CPU so distinct
//!   CPUs never contend on emission.
//! * **Shared, not global** — the sink is per kernel instance
//!   ([`TraceHandle`] = `Arc<TraceSink>`), so concurrently running
//!   kernels (the test harness runs many) never mix events.

pub mod audit;
pub mod counters;
pub mod event;
pub mod hist;
pub mod ring;
pub mod sink;
pub mod snapshot;

pub use audit::AuditDelta;
pub use counters::{
    AuditCounters, BlkCounters, Counters, DriverCounters, FastpathCounters, HttpdCounters,
    LockCounters, LocksCounters, MemCounters, NetCounters, NrCounters, PmCounters, PtableCounters,
    SchedCounters, VmCounters,
};
pub use event::{DeviceKind, EventKind, KernelEvent, ReturnClass, SyscallKind};
pub use hist::LatencyHist;
pub use ring::EventRing;
pub use sink::{
    trace_wf, BlkOutcome, FastpathOutcome, HttpdOutcome, LockDomain, NetOutcome, NrOutcome,
    SchedOutcome, SyscallStats, TraceHandle, TraceShare, TraceSink, VmOutcome,
};
pub use snapshot::{CpuSummary, Snapshot, SyscallSummary};

/// Default per-CPU ring capacity (events retained before overwrite).
pub const DEFAULT_RING_CAPACITY: usize = 4096;
