//! The Atmosphere microkernel (the paper's primary contribution).
//!
//! This crate assembles the substrates — simulated hardware (`atmo-hw`),
//! the page allocator (`atmo-mem`), page tables and IOMMU (`atmo-ptable`),
//! and the process manager (`atmo-pm`) — into the full microkernel and
//! implements the artefacts the paper proves about it:
//!
//! * [`kernel`] — the kernel state Ψ, boot, the mem lock domain, and the
//!   big-lock SMP wrapper (§3: "all interrupts and system calls execute
//!   in the microkernel under one global lock");
//! * [`domain`] — lock domains: ordered, instrumented locks with a
//!   runtime lock-order checker armed in every debug build;
//! * [`smp`] — the sharded SMP kernel: per-subsystem lock domains
//!   (pm / mem / trace) with a per-CPU free-page cache fast path;
//! * [`vm`] — the virtual-memory subsystem owning every page table and
//!   the IOMMU (§4.2's closure hierarchy);
//! * [`syscall`] — the system-call interface: `mmap`, `munmap`,
//!   container/process/thread lifecycle, endpoints and IPC
//!   (`send`/`recv`/`call`/`reply`), page grants, yield;
//! * [`abs`] — the abstract kernel state Ψ the specifications quantify
//!   over;
//! * [`spec`] — per-syscall transition specifications
//!   (`spec::mmap`, Listing 1's `syscall_mmap_spec`, and friends);
//! * [`refine`] (well-formedness) — the `total_wf()` theorem, including the
//!   kernel-wide memory-safety and leak-freedom equations;
//! * [`refine`] — the refinement harness: every audited syscall checks
//!   `total_wf(Ψ')` and its transition spec;
//! * [`iso`] — the isolation invariants `memory_iso` / `endpoint_iso` and
//!   the flat `C_A`/`P_A`/`T_A` constructions of §4.3;
//! * [`noninterf`] — observable state, the unwinding conditions (output
//!   consistency, step consistency, local respect) and the A/B/V scenario;
//! * [`vservice`] — the verified shared-service container V: an
//!   event-driven state machine with its own functional-correctness spec.

pub mod abs;
pub mod audit;
pub mod blk;
pub mod domain;
pub mod interrupt;
pub mod iso;
pub mod kernel;
pub mod noninterf;
pub mod nr;
pub mod refine;
pub mod runner;
pub mod smp;
pub mod spec;
pub mod syscall;
pub mod syscall_blk;
pub mod syscall_ext;
pub mod vm;
pub mod vservice;

pub use abs::AbstractKernel;
pub use audit::{AuditState, Auditor};
pub use blk::{BlkOp, BlkQueuePair, BlkState, BlkTiming, BLK_DEVICE_ID, BLK_SQ_CAPACITY};
pub use domain::{DomainGuard, DomainLock, LockLevel};
pub use kernel::{BigLockKernel, Kernel, KernelConfig, MemDomain};
pub use nr::{KernelNr, MemOp, PmObjects, PmOp, PmState};
pub use refine::{cross_domain_wf, mem_domain_wf, pm_domain_wf, recovery_refines, total_wf_parts};
pub use smp::{PmShard, SmpKernel};
pub use syscall::{Pools, SyscallArgs, SyscallError, SyscallReturn};
pub use vm::VmSubsystem;
