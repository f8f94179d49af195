//! Device-visible DMA windows over pinned frames.
//!
//! The zero-copy datapaths pin pool frames through the IOMMU grant path
//! (§5: user-level drivers DMA only through IOMMU translations). A
//! [`DmaWindow`] records the outcome of that pinning — the contiguous
//! IOVA range a protection domain maps and the frames behind it — so a
//! buffer pool can turn a slot index into the device address a
//! submission descriptor needs without re-walking the IOMMU tables.
//!
//! The window is pure bookkeeping: creating one grants nothing. The
//! IOMMU mappings it describes are established and torn down by the
//! kernel's `IommuMap`/`IommuUnmap` syscalls; the window's invariant
//! only checks internal consistency (distinct frames, one frame per
//! 4 KiB of IOVA space).

use atmo_spec::harness::{check, Invariant, VerifResult};

use crate::meta::PagePtr;

/// Bytes covered by one frame of a DMA window.
pub const DMA_FRAME_BYTES: usize = 4096;

/// A contiguous device-visible address range backed by pinned frames:
/// frame `i` is mapped at `iova_base + i * 4096`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DmaWindow {
    iova_base: usize,
    frames: Vec<PagePtr>,
}

impl DmaWindow {
    /// A window mapping `frames` contiguously from `iova_base`.
    ///
    /// # Panics
    ///
    /// Panics when `iova_base` is not 4 KiB-aligned.
    pub fn new(iova_base: usize, frames: Vec<PagePtr>) -> Self {
        assert!(
            iova_base.is_multiple_of(DMA_FRAME_BYTES),
            "DMA window base {iova_base:#x} not page-aligned"
        );
        DmaWindow { iova_base, frames }
    }

    /// First device-visible address of the window.
    pub fn iova_base(&self) -> usize {
        self.iova_base
    }

    /// The pinned frames, in IOVA order.
    pub fn frames(&self) -> &[PagePtr] {
        &self.frames
    }

    /// Bytes the window covers.
    pub fn len_bytes(&self) -> usize {
        self.frames.len() * DMA_FRAME_BYTES
    }

    /// `true` when the window covers no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Device address of byte offset `off` into the window.
    ///
    /// # Panics
    ///
    /// Panics when `off` is outside the window.
    pub fn iova_of(&self, off: usize) -> usize {
        assert!(
            off < self.len_bytes(),
            "offset {off:#x} outside {}-byte DMA window",
            self.len_bytes()
        );
        self.iova_base + off
    }

    /// The IOVA of each mapped frame, in order (the unpin loop walks
    /// these through `IommuUnmap`).
    pub fn iovas(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.frames.len()).map(move |i| self.iova_base + i * DMA_FRAME_BYTES)
    }

    /// Consumes the window, returning the frames for unpinning.
    pub fn into_frames(self) -> Vec<PagePtr> {
        self.frames
    }
}

impl Invariant for DmaWindow {
    /// Window well-formedness: the base is page-aligned, the IOVA range
    /// does not wrap, and no frame backs two window offsets.
    fn wf(&self) -> VerifResult {
        check(
            self.iova_base.is_multiple_of(DMA_FRAME_BYTES),
            "dma_window",
            format_args!("base {:#x} not page-aligned", self.iova_base),
        )?;
        check(
            self.iova_base.checked_add(self.len_bytes()).is_some(),
            "dma_window",
            "IOVA range wraps the address space",
        )?;
        let mut seen = self.frames.clone();
        seen.sort_unstable();
        seen.dedup();
        check(
            seen.len() == self.frames.len(),
            "dma_window",
            "a frame backs two window offsets",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_offsets_translate_contiguously() {
        let w = DmaWindow::new(0x10_0000, vec![0x8000, 0x9000, 0xa000]);
        assert_eq!(w.iova_of(0), 0x10_0000);
        assert_eq!(w.iova_of(4096), 0x10_1000);
        assert_eq!(w.iova_of(2 * 4096 + 512), 0x10_2200);
        assert_eq!(w.len_bytes(), 3 * 4096);
        assert_eq!(
            w.iovas().collect::<Vec<_>>(),
            vec![0x10_0000, 0x10_1000, 0x10_2000]
        );
        assert!(w.is_wf());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_window_offset_panics() {
        let w = DmaWindow::new(0x10_0000, vec![0x8000]);
        let _ = w.iova_of(4096);
    }

    #[test]
    fn duplicate_frames_fail_wf() {
        let w = DmaWindow::new(0x10_0000, vec![0x8000, 0x8000]);
        assert!(w.wf().is_err());
    }

    #[test]
    fn into_frames_round_trips() {
        let frames = vec![0x8000, 0x9000];
        let w = DmaWindow::new(0x20_0000, frames.clone());
        assert_eq!(w.into_frames(), frames);
    }
}
