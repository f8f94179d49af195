//! The Atmosphere page table: flat permission storage + MMU refinement.
//!
//! This crate reproduces the subsystem the paper uses to demonstrate the
//! impact of its flat design (§6.2): a 4-level x86-64 page table supporting
//! 4 KiB / 2 MiB / 1 GiB mappings, whose abstract state is three maps from
//! virtual address to `(frame, permissions)` — one per page size — and
//! whose *refinement theorem* states that the abstract maps agree exactly
//! with what the hardware MMU resolves by walking the concrete tables
//! ([`atmo_hw::paging::walk_4level`]).
//!
//! Following the paper:
//!
//! * table frames at **every** level are owned via tracked permissions
//!   stored flat at the top of the page table (per-level [`atmo_spec::PermMap`]s) —
//!   no recursive ownership, so "other entries did not change" proofs need
//!   no unrolling through PML levels;
//! * each update step writes one entry of one level; steps that do not
//!   touch a leaf entry leave the abstract mapping unchanged, and the leaf
//!   step changes exactly one entry (§4.2 "Consistency of page table
//!   updates") — [`table::PageTable::map_4k_page`] is built from such
//!   steps and the step-consistency tests audit them individually;
//! * the page table's [`page_closure`](atmo_mem::PageClosure) is the set
//!   of frames backing its levels, feeding the bottom-up memory argument.
//!
//! [`iommu`] provides the IOMMU translation tables (same mechanics, one
//! table per device protection domain).

pub mod iommu;
pub mod refine;
pub mod table;

pub use iommu::{DeviceId, Iommu, IommuDomainId};
pub use refine::{refinement_wf, step_preserves_other_mappings};
pub use table::{
    covering_leaf, space_covering, BatchStats, MapEntry, MapError, PageTable, TableFrame,
    WrittenLeaf,
};
