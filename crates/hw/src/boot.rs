//! Trusted boot-loader hand-off: memory map, CPUs, command line.
//!
//! The paper's boot loader (§5, item 9) "enumerates available physical
//! memory, sets up stacks, initializes interrupt controllers" and hands the
//! verified kernel a description of the machine. This module is that
//! hand-off for the simulated machine, including the kernel command-line
//! handling the paper lists among its trusted Rust code (§5, item 8).

use crate::addr::{PAddr, PAGE_SIZE_4K};

/// Kind of a physical memory region in the boot memory map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemoryRegionKind {
    /// RAM available to the kernel page allocator.
    Usable,
    /// Firmware/ACPI reserved; never touched.
    Reserved,
    /// Memory-mapped device registers (NIC/NVMe BARs).
    Mmio,
    /// The kernel image itself.
    KernelImage,
}

/// One contiguous region of the physical memory map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryRegion {
    /// First byte of the region.
    pub start: PAddr,
    /// Length in bytes.
    pub len: usize,
    /// Classification.
    pub kind: MemoryRegionKind,
}

impl MemoryRegion {
    /// One-past-the-end address.
    pub fn end(&self) -> PAddr {
        PAddr::new(self.start.as_usize() + self.len)
    }

    /// `true` when `addr` lies inside the region.
    pub fn contains(&self, addr: PAddr) -> bool {
        addr >= self.start && addr < self.end()
    }
}

/// The boot information handed to the kernel by the trusted loader.
#[derive(Clone, Debug)]
pub struct BootInfo {
    /// Physical memory map, sorted by start address, non-overlapping.
    pub regions: Vec<MemoryRegion>,
    /// Number of application processors brought online.
    pub cpu_count: usize,
    /// Raw kernel command line.
    pub cmdline: String,
}

impl BootInfo {
    /// Builds boot info for a simulated machine with `usable_mib` MiB of
    /// RAM (beyond a 1 MiB legacy hole and a 1 MiB kernel image) and
    /// `cpu_count` cores.
    pub fn simulated(usable_mib: usize, cpu_count: usize, cmdline: &str) -> Self {
        assert!(cpu_count >= 1, "at least the boot CPU must exist");
        let mib = 1024 * 1024;
        BootInfo {
            regions: vec![
                MemoryRegion {
                    start: PAddr::new(0),
                    len: mib,
                    kind: MemoryRegionKind::Reserved,
                },
                MemoryRegion {
                    start: PAddr::new(mib),
                    len: mib,
                    kind: MemoryRegionKind::KernelImage,
                },
                MemoryRegion {
                    start: PAddr::new(2 * mib),
                    len: usable_mib * mib,
                    kind: MemoryRegionKind::Usable,
                },
                MemoryRegion {
                    start: PAddr::new(2 * mib + usable_mib * mib),
                    len: 16 * mib,
                    kind: MemoryRegionKind::Mmio,
                },
            ],
            cpu_count,
            cmdline: cmdline.to_string(),
        }
    }

    /// Total bytes of usable RAM.
    pub fn usable_bytes(&self) -> usize {
        self.regions
            .iter()
            .filter(|r| r.kind == MemoryRegionKind::Usable)
            .map(|r| r.len)
            .sum()
    }

    /// Number of usable 4 KiB frames.
    pub fn usable_frames(&self) -> usize {
        self.usable_bytes() / PAGE_SIZE_4K
    }

    /// First usable frame address (4 KiB aligned).
    ///
    /// # Panics
    ///
    /// Panics when the map has no usable region.
    pub fn first_usable_frame(&self) -> PAddr {
        self.regions
            .iter()
            .find(|r| r.kind == MemoryRegionKind::Usable)
            .map(|r| r.start)
            .expect("boot memory map has no usable region")
    }

    /// Checks the memory map is sorted and non-overlapping.
    pub fn map_wf(&self) -> bool {
        self.regions
            .windows(2)
            .all(|w| w[0].end().as_usize() <= w[1].start.as_usize())
    }

    /// Looks up a `key=value` (or bare `key`) option on the command line.
    ///
    /// Bare flags report `Some("")`; missing keys report `None`.
    pub fn cmdline_option(&self, key: &str) -> Option<&str> {
        for tok in self.cmdline.split_whitespace() {
            match tok.split_once('=') {
                Some((k, v)) if k == key => return Some(v),
                None if tok == key => return Some(""),
                _ => {}
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_map_is_well_formed() {
        let bi = BootInfo::simulated(256, 4, "");
        assert!(bi.map_wf());
        assert_eq!(bi.cpu_count, 4);
        assert_eq!(bi.usable_bytes(), 256 * 1024 * 1024);
        assert_eq!(bi.usable_frames(), 256 * 256);
    }

    #[test]
    fn first_usable_frame_is_aligned() {
        let bi = BootInfo::simulated(64, 1, "");
        let f = bi.first_usable_frame();
        assert!(f.as_usize().is_multiple_of(PAGE_SIZE_4K));
        assert_eq!(f, PAddr::new(2 * 1024 * 1024));
    }

    #[test]
    fn region_contains() {
        let r = MemoryRegion {
            start: PAddr::new(0x1000),
            len: 0x1000,
            kind: MemoryRegionKind::Usable,
        };
        assert!(r.contains(PAddr::new(0x1000)));
        assert!(r.contains(PAddr::new(0x1fff)));
        assert!(!r.contains(PAddr::new(0x2000)));
    }

    #[test]
    fn cmdline_parsing() {
        let bi = BootInfo::simulated(64, 1, "console=serial quiet isol_cores=2-3");
        assert_eq!(bi.cmdline_option("console"), Some("serial"));
        assert_eq!(bi.cmdline_option("quiet"), Some(""));
        assert_eq!(bi.cmdline_option("isol_cores"), Some("2-3"));
        assert_eq!(bi.cmdline_option("debug"), None);
    }

    #[test]
    #[should_panic(expected = "at least the boot CPU")]
    fn zero_cpus_rejected() {
        let _ = BootInfo::simulated(64, 0, "");
    }
}
