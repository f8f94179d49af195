//! The system-call listing: every call declared once.
//!
//! `syscalls!` takes one row per call: the variant, its corpus token, its
//! fields (each with its doc, type and [`ArgDomain`]), an optional `let`
//! binding shared by the rest of the row, and four slots over the fields
//! — the [`Plan`], the handler call (`run`, which also sees `cx`,
//! `this_cpu` and `t`), what a success may write (`writes`) and the
//! transition spec (`spec`); the last two see the audited [`Step`] `s`.
//! Scalar fields appear by value, vectors as slices. The staged rows bind
//! their [`StagedOp`] once, so the plan the sharded kernel runs and the
//! handler the flat kernel runs take the same one.
//!
//! `writes` lists what a success may change, as [`Writes`] methods:
//! components with keys computed from the fields and `s`, the flags
//! `pages` and `states`, and the teardowns. `spec_holds` checks that Ψ'
//! equals Ψ outside them (outside nothing for an error) before the
//! row's spec, which so states only what changes.
//!
//! From the rows it generates [`SyscallArgs`], `trace_kind`, `plan`, the
//! dispatch, `spec_holds`, the corpus line format
//! ([`Display`](fmt::Display) and [`FromStr`]) and
//! [`SyscallArgs::sample`]. Every generated `match` is exhaustive and
//! `sample` matches on [`SyscallKind`], so a call without a plan, a
//! handler, a `writes` or a spec, or a kind without a row, does not
//! compile.

use std::fmt;
use std::str::FromStr;

use atmo_pm::types::{CpuId, CtnrPtr, EdptIdx, ProcPtr, ThrdPtr};
use atmo_spec::XorShift64Star;
use atmo_trace::SyscallKind;

use super::fields::{
    ArgDomain, BlkOps, Cpu, Cpus, Device, FieldView, Flag, Iommu, Iova, Maybe, Pages, Pools, Ptr,
    Quota, Scalars, Slot, Small, Va, Va2M, Weight,
};
use super::{ExecCtx, Plan, ReplicaRead, StagedOp, SyscallError, SyscallReturn};
use crate::abs::{Undeclared, Writes};
use crate::blk::BlkOp;
use crate::spec::{self, Step};

/// One item of a row's `writes` slot: a flag, or a component and its
/// keys.
macro_rules! declare {
    ($writes:ident, $flag:ident) => {
        $writes.$flag()
    };
    ($writes:ident, $component:ident($($key:expr),+)) => {
        $($writes.$component($key);)+
    };
}

macro_rules! syscalls {
    (
        run($cx:ident, $this_cpu:ident, $t:ident);
        spec($s:ident);
        $(
            $(#[doc = $doc:literal])*
            $V:ident $token:literal $({
                $( $(#[doc = $fdoc:literal])* $f:ident: $ty:ty [$dom:ty], )*
            })?
            => $(let $bind:ident = $bound:expr,)?
            plan: $plan:expr, run: $run:expr,
            writes: [$($w:ident $(($($k:expr),+))?),*], spec: $spec:expr;
        )*
    ) => {
        /// System-call arguments, one variant per row of the listing.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum SyscallArgs {
            $(
                $(#[doc = $doc])*
                $V $({ $( $(#[doc = $fdoc])* $f: $ty, )* })?,
            )*
        }

        // A row's expressions need not read every field.
        #[allow(unused_variables)]
        #[deny(clippy::wildcard_enum_match_arm)]
        impl SyscallArgs {
            /// The trace discriminant of this call (for per-kind
            /// histograms and counters).
            pub fn trace_kind(&self) -> SyscallKind {
                match self {
                    $(SyscallArgs::$V { .. } => SyscallKind::$V,)*
                }
            }

            /// The path the sharded kernel serves this call on.
            pub fn plan(&self) -> Plan {
                match self {
                    $(SyscallArgs::$V $({ $($f,)* })? => {
                        $($(let $f = $f.view();)*)?
                        $(let $bind = $bound;)?
                        $plan
                    })*
                }
            }

            /// Whether the audited step `s` of this call satisfies its
            /// transition specification. `Err` names the first write
            /// outside the row's `writes` (outside nothing for an error);
            /// otherwise a success must satisfy the row's spec.
            pub fn spec_holds(&self, $s: Step<'_>) -> Result<bool, Undeclared> {
                let mut writes = Writes::new($s.pre);
                if $s.ret.result.is_err() {
                    return writes.check($s.post).map(|()| true);
                }
                match self {
                    $(SyscallArgs::$V $({ $($f,)* })? => {
                        $($(let $f = $f.view();)*)?
                        $(let $bind = $bound;)?
                        $(declare!(writes, $w $(($($k),+))?);)*
                        writes.check($s.post)?;
                        Ok($spec)
                    })*
                }
            }

            /// A call of `kind`, each field drawn from its domain: live
            /// values from `pools` mixed with adversarial ones.
            pub fn sample(kind: SyscallKind, rng: &mut XorShift64Star, pools: &Pools) -> Self {
                match kind {
                    $(SyscallKind::$V => SyscallArgs::$V $({
                        $($f: <$dom as ArgDomain<$ty>>::sample(rng, pools),)*
                    })?,)*
                }
            }
        }

        #[allow(unused_variables)]
        #[deny(clippy::wildcard_enum_match_arm)]
        impl ExecCtx<'_> {
            /// Resolves the current thread on `cpu` and runs the handler
            /// of `args` — the part of a system call that needs the pm
            /// domain. The sharded kernel calls this under the pm lock, so
            /// the entry/exit trampolines (per-CPU work) stay outside it.
            pub(crate) fn dispatch_current(
                &mut self,
                cpu: CpuId,
                args: SyscallArgs,
            ) -> SyscallReturn {
                let Some($t) = self.pm.sched.current(cpu) else {
                    return SyscallReturn::err(SyscallError::WrongState);
                };
                let ($cx, $this_cpu) = (self, cpu);
                match &args {
                    $(SyscallArgs::$V $({ $($f,)* })? => {
                        $($(let $f = $f.view();)*)?
                        $(let $bind = $bound;)?
                        $run
                    })*
                }
            }
        }

        /// One corpus line: the token, then one word per field. Trailing
        /// absent optional fields (`-`) are left out.
        impl fmt::Display for SyscallArgs {
            #[deny(clippy::wildcard_enum_match_arm)]
            fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
                let (token, words): (&str, Vec<String>) = match self {
                    $(SyscallArgs::$V $({ $($f,)* })? => {
                        ($token, vec![$($(<$dom as ArgDomain<$ty>>::write($f),)*)?])
                    })*
                };
                write_line(out, token, words)
            }
        }

        impl FromStr for SyscallArgs {
            type Err = String;

            fn from_str(line: &str) -> Result<Self, String> {
                let mut words = line.split_whitespace();
                let token = words.next().ok_or("empty line")?;
                let args = match token {
                    $($token => SyscallArgs::$V $({
                        $($f: read::<$dom, $ty>(&mut words, stringify!($f))?,)*
                    })?,)*
                    other => return Err(format!("unknown syscall `{other}`")),
                };
                match words.next() {
                    Some(extra) => Err(format!("`{token}` takes no word `{extra}`")),
                    None => Ok(args),
                }
            }
        }
    };
}

/// Writes `token` and `words`, leaving out trailing absent words.
fn write_line(out: &mut fmt::Formatter<'_>, token: &str, mut words: Vec<String>) -> fmt::Result {
    while words.last().is_some_and(|w| w == "-") {
        words.pop();
    }
    out.write_str(token)?;
    words.iter().try_for_each(|w| write!(out, " {w}"))
}

/// Reads field `name` from the next word (`-` when the line ended).
fn read<D: ArgDomain<T>, T>(
    words: &mut std::str::SplitWhitespace<'_>,
    name: &str,
) -> Result<T, String> {
    let word = words.next().unwrap_or("-");
    D::read(word).ok_or_else(|| format!("bad {name} `{word}`"))
}

syscalls! {
    // The names the rows' `run`, `writes` and `spec` slots use.
    run(cx, this_cpu, t);
    spec(s);

    /// Map `len` fresh 4 KiB pages at `va_base` into the caller's space.
    Mmap "mmap" {
        /// First virtual address (4 KiB aligned).
        va_base: usize [Va],
        /// Number of pages.
        len: usize [Pages],
        /// Writable mapping?
        writable: bool [Flag],
    } => let op = StagedOp::Map { va_base, len, writable },
        plan: Plan::Staged(op), run: cx.sys_staged(this_cpu, op),
        writes: [containers(s.cntr()), spaces(s.space()), pages], spec: spec::mmap(s, va_base, len);
    /// Unmap `len` pages starting at `va_base` from the caller's space.
    Munmap "munmap" {
        /// First virtual address.
        va_base: usize [Va],
        /// Number of pages.
        len: usize [Pages],
    } => let op = StagedOp::Unmap { va_base, len },
        plan: Plan::Staged(op), run: cx.sys_staged(this_cpu, op),
        writes: [containers(s.cntr()), spaces(s.space()), pages],
        spec: spec::munmap(s, va_base, len);
    /// Create a child container under the caller's container.
    NewContainer "newcontainer" {
        /// Page reservation for the child.
        quota: usize [Quota],
        /// CPU cores passed to the child (owned by the caller's
        /// container, and homing no thread of its subtree).
        cpus: Vec<CpuId> [Cpus],
    } => plan: Plan::Locked, run: cx.sys_new_container(t, quota, cpus),
        writes: [containers(s.lineage(), s.fresh()), pages],
        spec: spec::new_container(s, quota, cpus);
    /// Terminate a (direct or indirect) child container.
    TerminateContainer "termcontainer" {
        /// The doomed container.
        cntr: CtnrPtr [Ptr],
    } => plan: Plan::Locked, run: cx.sys_terminate_container(t, cntr),
        writes: [container_teardown(cntr), states, pages], spec: spec::terminate_container(s, cntr);
    /// Create a top-level process in a container of the caller's subtree.
    NewProcess "newprocess" {
        /// Target container.
        cntr: CtnrPtr [Ptr],
    } => plan: Plan::Locked, run: cx.sys_new_process(t, cntr),
        writes: [containers([cntr]), processes(s.fresh()), spaces(s.fresh_space()), pages],
        spec: spec::new_process(s, cntr);
    /// Create a child process under the caller's own process (same
    /// container; the per-container process tree of §3).
    NewChildProcess "newchild" => plan: Plan::Locked, run: cx.sys_new_child_process(t),
        writes: [containers(s.cntr()), processes(s.proc(), s.fresh()), pages,
            spaces(s.fresh_space())], spec: spec::noop_on_error(s);
    /// Terminate the calling thread (exit). The CPU dispatches the next
    /// ready thread.
    Exit "exit" => plan: Plan::Locked, run: cx.sys_exit(this_cpu, t),
        writes: [thread_teardown(s.t), states, pages], spec: spec::noop_on_error(s);
    /// Terminate a process of the caller's container subtree.
    TerminateProcess "termprocess" {
        /// The doomed process.
        proc: ProcPtr [Ptr],
    } => plan: Plan::Locked, run: cx.sys_terminate_process(t, proc),
        writes: [process_teardown(proc), states, pages], spec: spec::terminate_process(s, proc);
    /// Create a thread in a process of the caller's subtree, homed on `cpu`.
    NewThread "newthread" {
        /// Owning process.
        proc: ProcPtr [Ptr],
        /// Home CPU (must be reserved by the owning container).
        cpu: CpuId [Cpu],
    } => plan: Plan::Locked, run: cx.sys_new_thread(t, proc, cpu),
        writes: [threads(s.fresh()), processes([proc]), containers(s.cntr_of(proc)), pages],
        spec: spec::new_thread(s, proc, cpu);
    /// Create an endpoint in descriptor `slot` of the calling thread.
    NewEndpoint "newendpoint" {
        /// Target descriptor slot.
        slot: EdptIdx [Slot],
    } => plan: Plan::Locked, run: cx.sys_new_endpoint(t, slot),
        writes: [threads([s.t]), endpoints(s.fresh()), containers(s.cntr()), pages],
        spec: spec::new_endpoint(s, slot);
    /// Send on the endpoint in `slot`.
    Send "send" {
        /// Descriptor slot.
        slot: EdptIdx [Slot],
        /// Scalar payload.
        scalars: [u64; 4] [Scalars],
        /// Optionally grant the page mapped at this VA (shared memory).
        grant_page_va: Option<usize> [Maybe<Va>],
        /// Optionally grant the endpoint in this descriptor slot.
        grant_endpoint_slot: Option<EdptIdx> [Maybe<Slot>],
        /// Optionally grant access to this IOMMU protection domain.
        grant_iommu_domain: Option<u32> [Maybe<Iommu>],
    } => plan: Plan::Locked,
        run: cx.sys_send(
            this_cpu, t, slot, scalars, grant_page_va, grant_endpoint_slot, grant_iommu_domain,
        ),
        writes: [threads([s.t], s.peer(slot)), states,
            endpoints(s.edpt(slot), s.edpt(grant_endpoint_slot))],
        spec: spec::syscall_ipc_population_spec(s.pre, s.post);
    /// Receive on the endpoint in `slot`.
    Recv "recv" {
        /// Descriptor slot.
        slot: EdptIdx [Slot],
    } => plan: Plan::Locked, run: cx.sys_recv(this_cpu, t, slot),
        writes: [threads([s.t], s.peer(slot)), states, pages,
            endpoints(s.edpt(slot), s.peer_grant(slot))],
        spec: spec::syscall_ipc_population_spec(s.pre, s.post);
    /// Non-blocking receive on the endpoint in `slot`.
    Poll "poll" {
        /// Descriptor slot.
        slot: EdptIdx [Slot],
    } => plan: Plan::Locked, run: cx.sys_poll(this_cpu, t, slot),
        writes: [threads([s.t], s.peer(slot)), states, pages,
            endpoints(s.edpt(slot), s.peer_grant(slot))],
        spec: spec::syscall_ipc_population_spec(s.pre, s.post);
    /// Call (send + await reply) on the endpoint in `slot`.
    Call "call" {
        /// Descriptor slot.
        slot: EdptIdx [Slot],
        /// Scalar payload.
        scalars: [u64; 4] [Scalars],
    } => plan: Plan::Locked, run: cx.sys_call(this_cpu, t, slot, scalars),
        writes: [threads([s.t], s.peer(slot)), endpoints(s.edpt(slot)), states],
        spec: spec::ipc_handoff(s);
    /// Reply to the caller this thread owes a reply.
    Reply "reply" {
        /// Scalar payload.
        scalars: [u64; 4] [Scalars],
    } => plan: Plan::Locked, run: cx.sys_reply(this_cpu, t, scalars),
        writes: [threads([s.t], s.partner()), states],
        spec: spec::syscall_ipc_population_spec(s.pre, s.post);
    /// Combined reply + receive in one trap: answer the pending caller
    /// and re-open the endpoint in `slot` for the next request. The
    /// server loop's steady-state syscall — eligible for the direct
    /// handoff fast path.
    ReplyRecv "replyrecv" {
        /// Descriptor slot to receive on after the reply.
        slot: EdptIdx [Slot],
        /// Scalar reply payload.
        scalars: [u64; 4] [Scalars],
    } => plan: Plan::Locked, run: cx.sys_reply_recv(this_cpu, t, slot, scalars),
        writes: [threads([s.t], s.partner(), s.peer(slot)), states, pages,
            endpoints(s.edpt(slot), s.peer_grant(slot))],
        spec: spec::ipc_handoff(s);
    /// Take the delivered message (scalars; stashes any page grant).
    TakeMsg "takemsg" => plan: Plan::Locked, run: cx.sys_take_msg(t),
        writes: [threads([s.t]), pages], spec: spec::syscall_ipc_population_spec(s.pre, s.post);
    /// Map the pending granted page at `va`.
    MapGranted "mapgranted" {
        /// Target virtual address in the caller's space.
        va: usize [Va],
    } => plan: Plan::Locked, run: cx.sys_map_granted(t, va),
        writes: [containers(s.cntr()), spaces(s.space()), pages], spec: spec::noop_on_error(s);
    /// Discard the pending granted page (releases its reference).
    DropGrant "dropgrant" => plan: Plan::Locked, run: cx.sys_drop_grant(t),
        writes: [pages], spec: spec::noop_on_error(s);
    /// Map one 2 MiB superpage at `va_base` (512 pages of quota).
    MmapHuge2M "mmap2m" {
        /// 2 MiB-aligned virtual address.
        va_base: usize [Va2M],
        /// Writable mapping?
        writable: bool [Flag],
    } => plan: Plan::Locked, run: cx.sys_mmap_huge_2m(t, va_base, writable),
        writes: [containers(s.cntr()), spaces(s.space()), pages], spec: spec::noop_on_error(s);
    /// Unmap the 2 MiB superpage at `va_base`.
    MunmapHuge2M "munmap2m" {
        /// 2 MiB-aligned virtual address.
        va_base: usize [Va2M],
    } => plan: Plan::Locked, run: cx.sys_munmap_huge_2m(t, va_base),
        writes: [containers(s.cntr()), spaces(s.space()), pages], spec: spec::noop_on_error(s);
    /// Create an IOMMU protection domain owned by the caller's container.
    IommuCreateDomain "iommucreate" => plan: Plan::Locked, run: cx.sys_iommu_create_domain(t),
        writes: [containers(s.cntr()), pages], spec: spec::noop_on_error(s);
    /// Attach a device to an IOMMU domain.
    IommuAttach "iommuattach" {
        /// Target domain.
        domain: u32 [Iommu],
        /// PCI-style device id.
        device: u16 [Device],
    } => plan: Plan::Locked, run: cx.sys_iommu_attach(t, domain, device),
        writes: [], spec: spec::noop_on_error(s);
    /// Detach a device from its IOMMU domain.
    IommuDetach "iommudetach" {
        /// PCI-style device id.
        device: u16 [Device],
    } => plan: Plan::Locked, run: cx.sys_iommu_detach(t, device),
        writes: [], spec: spec::noop_on_error(s);
    /// Make the caller's page at `va` DMA-visible at `iova` in `domain`.
    IommuMap "iommumap" {
        /// Target domain.
        domain: u32 [Iommu],
        /// Device-visible address.
        iova: usize [Iova],
        /// Caller-space virtual address of the page.
        va: usize [Va],
    } => plan: Plan::Locked, run: cx.sys_iommu_map(t, domain, iova, va),
        writes: [spaces(s.space()), pages], spec: spec::noop_on_error(s);
    /// Remove the DMA mapping at `iova` in `domain`.
    IommuUnmap "iommuunmap" {
        /// Target domain.
        domain: u32 [Iommu],
        /// Device-visible address.
        iova: usize [Iova],
    } => plan: Plan::Locked, run: cx.sys_iommu_unmap(t, domain, iova),
        writes: [pages], spec: spec::noop_on_error(s);
    /// Post a batch of block-I/O submission entries on a queue pair and
    /// ring the doorbell once (the io_uring-shaped zero-copy submit).
    BlkSubmitBatch "blksubmit" {
        /// Target queue pair.
        queue: usize [Small],
        /// Submission entries (each names a DMA-pinned buffer by IOVA).
        ops: Vec<BlkOp> [BlkOps],
    } => plan: Plan::Locked, run: cx.sys_blk_submit(t, queue, ops),
        writes: [], spec: spec::noop_on_error(s);
    /// Harvest up to `max` finished block completions from a queue pair
    /// into the caller's completion ring.
    BlkReapBatch "blkreap" {
        /// Target queue pair.
        queue: usize [Small],
        /// Completion-ring capacity this reap may fill.
        max: usize [Small],
        /// Block until at least one completion is ready (delivered via
        /// the IPC fast-path wakeup) instead of returning 0.
        wait: bool [Flag],
    } => plan: Plan::Locked, run: cx.sys_blk_reap(queue, max, wait),
        writes: [], spec: spec::noop_on_error(s);
    /// Yield the CPU (round-robin rotation).
    Yield "yield" => plan: Plan::Locked, run: cx.sys_yield(this_cpu),
        writes: [states], spec: spec::reschedule(s);
    /// Read-only: publish a merged trace snapshot (per-CPU rings,
    /// latency histograms, subsystem counters) for the caller to
    /// retrieve via [`Kernel::take_trace_snapshot`](crate::Kernel::take_trace_snapshot).
    /// Changes no abstract kernel state.
    TraceSnapshot "snapshot" => plan: Plan::Snapshot, run: cx.sys_trace_snapshot(),
        writes: [], spec: spec::frame_only(s);
    /// Read-only: the calling thread's owning process and container.
    /// Node-replicated on the sharded kernel (served from the local
    /// pm replica when enabled).
    Getpid "getpid" => plan: Plan::Replica(ReplicaRead::Getpid), run: cx.sys_getpid(t),
        writes: [], spec: spec::getpid(s);
    /// Read-only: a thread's owning process and container.
    ThreadLookup "thread_lookup" {
        /// The thread to look up.
        thread: ThrdPtr [Ptr],
    } => plan: Plan::Replica(ReplicaRead::ThreadLookup { thread }),
        run: cx.sys_thread_lookup(thread),
        writes: [], spec: spec::thread_lookup(s, thread);
    /// Read-only: the endpoint in descriptor `slot` of the calling
    /// thread.
    DescriptorResolve "descriptor_resolve" {
        /// Descriptor slot to resolve.
        slot: EdptIdx [Slot],
    } => plan: Plan::Replica(ReplicaRead::DescriptorResolve { slot }),
        run: cx.sys_descriptor_resolve(t, slot),
        writes: [], spec: spec::descriptor_resolve(s, slot);
    /// Read-only: whether `va` is mapped in the caller's address space
    /// (and writable). Node-replicated on the sharded kernel (served
    /// from the local mem replica when enabled).
    VmResolve "vm_resolve" {
        /// The virtual address to translate.
        va: usize [Va],
    } => plan: Plan::Replica(ReplicaRead::VmResolve { va }), run: cx.sys_vm_resolve(t, va),
        writes: [], spec: spec::vm_resolve(s, va);
    /// Set the scheduling weight of a container strictly below the
    /// caller in the hierarchy (never the caller's own — budgets are
    /// imposed from above). Weight 0 tears the budget account down
    /// and refunds its remaining budget; a positive weight creates or
    /// resizes the account the container's CPU ticks are charged to.
    SchedSetWeight "setweight" {
        /// Target container.
        cntr: CtnrPtr [Ptr],
        /// Units granted per refill period (0 = unmetered).
        weight: u32 [Weight],
    } => plan: Plan::Locked, run: cx.sys_sched_set_weight(t, cntr, weight),
        writes: [], spec: spec::frame_only(s);
    /// Administratively throttle (park off the run queues) or
    /// unthrottle a weighted container strictly below the caller in
    /// the hierarchy (never the caller's own).
    SchedThrottle "throttle" {
        /// Target container.
        cntr: CtnrPtr [Ptr],
        /// `true` parks, `false` re-enqueues.
        throttle: bool [Flag],
    } => plan: Plan::Locked, run: cx.sys_sched_throttle(t, cntr, throttle),
        writes: [], spec: spec::frame_only(s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn rows_cover_every_kind_once_and_round_trip_through_the_line_codec() {
        let pools = Pools {
            va: 0x4000_0000..0x4004_0000,
            objects: vec![0x20_0000, 0x20_1000],
            ncpus: 4,
        };
        for seed in 0..64 {
            let mut rng = XorShift64Star::new(seed);
            let mut tokens = BTreeSet::new();
            for kind in SyscallKind::ALL {
                let args = SyscallArgs::sample(kind, &mut rng, &pools);
                assert_eq!(args.trace_kind(), kind);
                let line = args.to_string();
                tokens.insert(line.split(' ').next().map(str::to_owned));
                assert_eq!(line.parse(), Ok(args), "seed {seed}: `{line}`");
            }
            assert_eq!(tokens.len(), SyscallKind::ALL.len(), "{tokens:?}");
        }
    }

    #[test]
    fn malformed_lines_are_refused() {
        for line in [
            "",
            "fork",
            "mmap 0x1000 1",
            "yield 1",
            "send x 1",
            "mmap2m 0x0 2",
        ] {
            assert!(line.parse::<SyscallArgs>().is_err(), "`{line}`");
        }
    }
}
