//! `checked-fuzz`: the proof oracle — the host price of executable
//! verification.
//!
//! Each slice runs two kinds of checked transition, 1 *refine* op for
//! every 300 *audit* ops:
//!
//! * **refine** — a seeded random syscall over every argument shape of
//!   `tests/refinement_fuzz.rs`, valid and garbage alike, through
//!   `kernel::refine::audited_syscall` on a flat default kernel (abstract
//!   view before and after, `total_wf`, the transition's specification).
//!   The kernel is booted fresh per slice with four threads on CPU 0 and a
//!   timer tick before every op, because a fuzzed blocking IPC parks its
//!   caller for good.
//! * **audit** — one op of a valid, shadow-predicted stream (page and
//!   8-page-run toggles, 2 MiB toggles, reads, yields, a container
//!   lifecycle, weight changes) on a 4-CPU sharded kernel with the
//!   incremental auditor on: `audit_incremental()` after every op,
//!   `audit_total_wf()` every 1024.
//!
//! Op = one checked transition; its latency is the syscall's modeled
//! cycles (the checking itself is host work only). An op fails when its
//! verdict is not `Ok` or, on the audit side, its return differs from the
//! shadow's prediction; the typed errors garbage arguments draw are what
//! the refinement spec expects and are not failures.
//!
//! Why it exists: `kernel::refine`, `kernel::audit`, `Kernel::view()` and
//! the `spec` ghost collections are nearly all of the host time here and
//! almost none of it in the other six workloads (which audit once,
//! untimed, at exit), so an oracle speed-up must move `host.kops_per_s`
//! here and nothing elsewhere. It is the "fuzz ops/s" of the ROADMAP.

use atmo_kernel::refine::audited_syscall;
use atmo_kernel::{BlkOp, Kernel, KernelConfig, SmpKernel, SyscallArgs};

use crate::harness::{sys_smp, Ctx, Gates, Workload};
use crate::metrics::{kind_tag, Extras};
use crate::probe::Counts;
use crate::rng::{Deck, Rng};
use crate::span::Name;

const NCPUS: usize = 4;
const PAGE: usize = 0x1000;
const PAGE_2M: usize = 0x20_0000;
const VA_BASE: usize = 0x4000_0000;
const RUN_BASE: usize = 0x4800_0000;
const HUGE_VA: usize = 0x8000_0000;
const PAGE_SLOTS: usize = 64;
const RUN_SLOTS: usize = 8;
const RUN_PAGES: usize = 8;
/// Audit ops per refine op.
const AUDITS_PER_REFINE: usize = 300;
const FULL_AUDIT_EVERY: u64 = 1024;
const REFINE_THREADS: usize = 4;

const MM_TOGGLE: u16 = 0;
const RUN_TOGGLE: u16 = 1;
const GETPID: u16 = 2;
const VM_RESOLVE: u16 = 3;
const YIELD: u16 = 4;
const LIFECYCLE: u16 = 5;
const WEIGHT: u16 = 6;
const HUGE_TOGGLE: u16 = 7;

/// Where a CPU's child container is in its lifecycle.
#[derive(Clone, Copy)]
enum Child {
    None,
    Container(u64),
    WithProcess(u64),
}

struct Cpu {
    proc: u64,
    cntr: u64,
    thread: u64,
    mapped: u64,
    runs: u8,
    huge: bool,
    child: Child,
    deck: Deck,
    rng: Rng,
}

pub struct CheckedFuzz {
    smp: SmpKernel,
    cpus: Vec<Cpu>,
    clocks: [u64; NCPUS],
    refine_rng: Rng,
    /// Modeled cycles charged on the per-slice refine kernels.
    refine_cycles: u64,
    audit_ops: u64,
    refine_per_slice: usize,
    audit_per_slice: usize,
    /// The last slice's refine kernel, kept for the view/wf probe.
    last_refine_kernel: Option<Kernel>,
}

// ----- refine side: the argument shapes of tests/refinement_fuzz.rs -------

fn random_va(rng: &mut Rng) -> usize {
    VA_BASE + rng.below(48) * PAGE
}

/// A guess at a kernel-object pointer: null, unmapped garbage, or one of
/// the first frames the allocator hands out (where boot's objects live).
fn random_ptr(rng: &mut Rng) -> usize {
    match rng.below(3) {
        0 => 0,
        1 => 0xdead_b000,
        _ => 0x20_0000 + rng.below(8) * PAGE,
    }
}

fn random_syscall(rng: &mut Rng) -> SyscallArgs {
    match rng.below(18) {
        0 => SyscallArgs::Mmap {
            va_base: random_va(rng),
            len: rng.between(1, 4),
            writable: rng.below(2) == 0,
        },
        1 => SyscallArgs::Munmap {
            va_base: random_va(rng),
            len: rng.between(1, 4),
        },
        2 => SyscallArgs::NewContainer {
            quota: rng.below(64),
            cpus: vec![],
        },
        3 => SyscallArgs::NewProcess {
            cntr: random_ptr(rng),
        },
        4 => SyscallArgs::TerminateContainer {
            cntr: random_ptr(rng),
        },
        5 => SyscallArgs::TerminateProcess {
            proc: random_ptr(rng),
        },
        6 => SyscallArgs::NewThread {
            proc: random_ptr(rng),
            cpu: rng.below(4),
        },
        7 => SyscallArgs::NewEndpoint {
            slot: rng.below(18),
        },
        8 => SyscallArgs::Send {
            slot: rng.below(3),
            scalars: [rng.next_u64(), 0, 0, 0],
            grant_page_va: (rng.below(2) == 0).then(|| random_va(rng)),
            grant_endpoint_slot: None,
            grant_iommu_domain: None,
        },
        9 => SyscallArgs::Poll { slot: rng.below(3) },
        10 => SyscallArgs::TakeMsg,
        11 => SyscallArgs::MapGranted { va: random_va(rng) },
        12 => SyscallArgs::DropGrant,
        13 => SyscallArgs::Call {
            slot: rng.below(3),
            scalars: [rng.next_u64(), 0, 0, 0],
        },
        14 => SyscallArgs::ReplyRecv {
            slot: rng.below(3),
            scalars: [rng.next_u64(), 0, 0, 0],
        },
        15 => SyscallArgs::BlkSubmitBatch {
            queue: rng.below(3),
            ops: (0..rng.below(4))
                .map(|i| BlkOp {
                    cookie: rng.next_u64() % 8 + i as u64,
                    iova: random_ptr(rng),
                    lba: rng.next_u64() % 1024,
                    write: rng.below(2) == 0,
                })
                .collect(),
        },
        16 => SyscallArgs::BlkReapBatch {
            queue: rng.below(3),
            max: rng.below(4),
            wait: rng.below(4) == 0,
        },
        _ => SyscallArgs::Yield,
    }
}

fn boot_refine_kernel() -> Kernel {
    let mut k = Kernel::boot(KernelConfig::default());
    for _ in 1..REFINE_THREADS {
        let r = k.syscall(
            0,
            SyscallArgs::NewThread {
                proc: k.init_proc,
                cpu: 0,
            },
        );
        assert!(r.is_ok(), "refine thread: {r:?}");
    }
    k
}

// ----- audit side ----------------------------------------------------------

impl Cpu {
    /// The next audit op and the return the shadow predicts (`None`: any
    /// success; the caller records the new object).
    fn next_op(&mut self) -> (SyscallArgs, Option<[u64; 4]>) {
        let mut card = self.deck.deal(&mut self.rng);
        if card == WEIGHT && matches!(self.child, Child::None) {
            card = YIELD;
        }
        match card {
            MM_TOGGLE => {
                let slot = self.rng.below(PAGE_SLOTS);
                let (args, expect) = super::toggle_page(&mut self.mapped, slot, VA_BASE);
                (args, Some(expect))
            }
            RUN_TOGGLE => {
                let slot = self.rng.below(RUN_SLOTS);
                let va = RUN_BASE + slot * RUN_PAGES * PAGE;
                let was = self.runs >> slot & 1 == 1;
                self.runs ^= 1 << slot;
                if was {
                    (
                        SyscallArgs::Munmap {
                            va_base: va,
                            len: RUN_PAGES,
                        },
                        Some([RUN_PAGES as u64, 0, 0, 0]),
                    )
                } else {
                    (
                        SyscallArgs::Mmap {
                            va_base: va,
                            len: RUN_PAGES,
                            writable: true,
                        },
                        Some([va as u64, RUN_PAGES as u64, 0, 0]),
                    )
                }
            }
            HUGE_TOGGLE => {
                self.huge = !self.huge;
                if self.huge {
                    (
                        SyscallArgs::MmapHuge2M {
                            va_base: HUGE_VA,
                            writable: true,
                        },
                        Some([HUGE_VA as u64, (PAGE_2M / PAGE) as u64, 0, 0]),
                    )
                } else {
                    (
                        SyscallArgs::MunmapHuge2M { va_base: HUGE_VA },
                        Some([(PAGE_2M / PAGE) as u64, 0, 0, 0]),
                    )
                }
            }
            GETPID => (SyscallArgs::Getpid, Some([self.proc, self.cntr, 0, 0])),
            VM_RESOLVE => {
                let slot = self.rng.below(PAGE_SLOTS);
                let is = self.mapped >> slot & 1;
                (
                    SyscallArgs::VmResolve {
                        va: VA_BASE + slot * PAGE,
                    },
                    Some([is, is, 0, 0]),
                )
            }
            LIFECYCLE => match self.child {
                Child::None => (
                    SyscallArgs::NewContainer {
                        quota: 16,
                        cpus: vec![],
                    },
                    None,
                ),
                Child::Container(c) => (SyscallArgs::NewProcess { cntr: c as usize }, None),
                Child::WithProcess(c) => {
                    self.child = Child::None;
                    (
                        SyscallArgs::TerminateContainer { cntr: c as usize },
                        Some([0; 4]),
                    )
                }
            },
            WEIGHT => {
                let (Child::Container(c) | Child::WithProcess(c)) = self.child else {
                    unreachable!("redirected to YIELD above");
                };
                (
                    SyscallArgs::SchedSetWeight {
                        cntr: c as usize,
                        weight: 1 + self.rng.below(4) as u32,
                    },
                    Some([0; 4]),
                )
            }
            _ => (SyscallArgs::Yield, Some([self.thread, 0, 0, 0])),
        }
    }

    /// Records the object a lifecycle step created.
    fn created(&mut self, ptr: u64) {
        self.child = match self.child {
            Child::None => Child::Container(ptr),
            Child::Container(c) => Child::WithProcess(c),
            done @ Child::WithProcess(_) => done,
        };
    }
}

impl CheckedFuzz {
    fn refine_op(&mut self, ctx: &mut Ctx, k: &mut Kernel) {
        // Rotate CPU 0's threads: a fuzzed blocking call parks its caller
        // for good, the next thread carries on.
        let _ = k.pm.timer_tick(0);
        let args = random_syscall(&mut self.refine_rng);
        let t0 = k.cycles(0);
        ctx.tr.begin_op(t0);
        ctx.tr
            .begin(Name::KernelAuditedSyscall, kind_tag(args.trace_kind()), t0);
        let (_ret, verdict) = audited_syscall(k, 0, args);
        let now = k.cycles(0);
        ctx.tr.end(now);
        ctx.expect(verdict.is_ok());
        ctx.lat.record(now - t0);
        self.refine_cycles += now - t0;
        ctx.tr.end_op(now, 1);
    }

    fn audit_op(&mut self, ctx: &mut Ctx) {
        let c = super::earliest(&self.clocks);
        let t0 = self.clocks[c];
        ctx.tr.begin_op(t0);
        let cpu = &mut self.cpus[c];
        let (args, expect) = cpu.next_op();
        let r = sys_smp(&self.smp, &mut ctx.tr, c, args);
        match (expect, r.result) {
            (Some(e), got) => ctx.expect(got == Ok(e)),
            (None, Ok(v)) => cpu.created(v[0]),
            (None, Err(_)) => ctx.failed += 1,
        }
        let now = self.smp.cycles(c);
        self.clocks[c] = now;

        ctx.tr.begin(Name::KernelAuditIncremental, 0, now);
        let verdict = self.smp.audit_incremental();
        ctx.tr.end(now);
        ctx.expect(verdict.is_ok());
        self.audit_ops += 1;
        if self.audit_ops.is_multiple_of(FULL_AUDIT_EVERY) {
            ctx.tr.begin(Name::KernelAuditTotalWf, 0, now);
            let verdict = self.smp.audit_total_wf();
            ctx.tr.end(now);
            ctx.expect(verdict.is_ok());
        }
        ctx.lat.record(now - t0);
        ctx.tr.end_op(now, 1);
    }
}

impl Workload for CheckedFuzz {
    const NAME: &'static str = "checked-fuzz";
    const OPS_PER_SLICE_PER_SECOND: usize = 6 * (AUDITS_PER_REFINE + 1);

    fn setup(seed: u64, ops_per_slice: usize) -> Self {
        let mut k = Kernel::boot(KernelConfig {
            mem_mib: 64,
            ncpus: NCPUS,
            root_quota: 8192,
        });
        let owners = super::boot_per_cpu(&mut k, NCPUS, 1536);
        let mut cpus = Vec::with_capacity(NCPUS);
        for (cpu, &(cntr, proc, thread)) in owners.iter().enumerate() {
            cpus.push(Cpu {
                proc: proc as u64,
                cntr: cntr as u64,
                thread: thread as u64,
                mapped: 0,
                runs: 0,
                huge: false,
                child: Child::None,
                deck: Deck::new(&[
                    (MM_TOGGLE, 40),
                    (RUN_TOGGLE, 10),
                    (GETPID, 8),
                    (VM_RESOLVE, 8),
                    (YIELD, 10),
                    (LIFECYCLE, 16),
                    (WEIGHT, 4),
                    (HUGE_TOGGLE, 4),
                ]),
                rng: Rng::new(seed, cpu as u64),
            });
        }
        let smp = SmpKernel::new(k);
        smp.enable_incremental_audit();
        let clocks = std::array::from_fn(|c| smp.cycles(c));
        let refine_per_slice = ops_per_slice / (AUDITS_PER_REFINE + 1);
        CheckedFuzz {
            smp,
            cpus,
            clocks,
            refine_rng: Rng::new(seed, NCPUS as u64),
            refine_cycles: 0,
            audit_ops: 0,
            refine_per_slice,
            audit_per_slice: ops_per_slice - refine_per_slice,
            last_refine_kernel: None,
        }
    }

    fn run_slice(&mut self, ctx: &mut Ctx) {
        let mut k = boot_refine_kernel();
        for _ in 0..self.refine_per_slice {
            self.refine_op(ctx, &mut k);
        }
        self.last_refine_kernel = Some(k);
        for _ in 0..self.audit_per_slice {
            self.audit_op(ctx);
        }
    }

    fn clocks(&self) -> Vec<u64> {
        let mut c = self.clocks.to_vec();
        c.push(self.refine_cycles);
        c
    }

    fn counts(&self) -> Counts {
        // The refine kernels come and go; their syscalls are counted by
        // the spans, the obligations process-wide.
        Counts::of_snapshot(&self.smp.trace_snapshot())
            .with_caches((0..NCPUS).map(|c| self.smp.cache_stats(c)))
            .with_obligations()
    }

    fn extras(&mut self, probe: bool) -> Extras {
        let mut x = Extras::default();
        if probe {
            x.snapshot_us = crate::probe::probe_snapshot_us(|| self.smp.trace_snapshot());
            if let Some(k) = &self.last_refine_kernel {
                x.view_wf_us = crate::probe::probe_view_wf(k);
            }
        }
        x
    }

    fn finish(&mut self, _ctx: &mut Ctx, d: &Counts, gates: &mut Gates) {
        gates.check(
            "fuzz.audits_ran",
            d.audit_incremental >= self.audit_per_slice as u64 && d.audit_full > 0,
            || {
                format!(
                    "{} incremental, {} full audits",
                    d.audit_incremental, d.audit_full
                )
            },
        );
        gates.verif("audit_total_wf", self.smp.audit_total_wf());
    }
}
