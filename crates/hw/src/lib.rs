//! Simulated hardware substrate for the Atmosphere reproduction.
//!
//! The paper runs on bare-metal x86-64 (under QEMU/KVM on CloudLab
//! machines). This crate replaces that hardware with a faithful software
//! model of everything the kernel and its proofs observe:
//!
//! * [`addr`] — virtual/physical addresses, page sizes (4 KiB / 2 MiB /
//!   1 GiB), canonical-address rules and page-table index arithmetic;
//! * [`paging`] — the x86-64 page-table *entry format* and the hardware
//!   **MMU walk semantics**. This is the trusted hardware specification the
//!   page-table refinement theorem compares against (§4.2, §6.2);
//! * [`cycles`] — per-core cycle meters and the calibrated [cost
//!   model](cycles::CostModel) used by the performance simulation. Constants
//!   are calibrated so the modeled latencies reproduce the paper's
//!   measurements on the CloudLab c220g5 (2×Xeon Silver 4114, 2.2 GHz);
//! * [`boot`] — the trusted boot loader's hand-off: physical memory map,
//!   CPU enumeration, kernel command line (§5, items 8–9);
//! * [`machine`] — the machine itself: cores with meters, DRAM span, and
//!   the interrupt controller model;
//! * [`nvme`] — the NVMe device's timing parameters, shared by the
//!   kernel's block queues and the user-space driver's device model.

pub mod addr;
pub mod boot;
pub mod cycles;
pub mod machine;
pub mod nvme;
pub mod paging;

pub use addr::{PAddr, PageVa, VAddr, VaRange4K, PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K};
pub use boot::{BootInfo, MemoryRegion, MemoryRegionKind};
pub use cycles::{CostModel, CpuProfile, CycleMeter};
pub use machine::{Core, InterruptController, Machine};
pub use nvme::NvmeTiming;
pub use paging::{walk_4level, EntryFlags, PageEntry, PhysFrameSource, ResolvedMapping};
