//! Randomized exploration of the page table: random map/unmap sequences
//! over all three page sizes must preserve structural well-formedness and
//! the MMU-walk refinement relation after every operation (§6.2's
//! theorem, fuzzed). Randomness comes from the deterministic in-repo
//! [`XorShift64Star`] generator.

use atmo_hw::addr::{PageVa, PageVa1G, PageVa2M, PageVa4K};
use atmo_hw::boot::BootInfo;
use atmo_hw::paging::EntryFlags;
use atmo_mem::{PageAllocator, PageSize};
use atmo_ptable::{refinement_wf, PageTable};
use atmo_spec::harness::Invariant;
use atmo_spec::XorShift64Star;

#[derive(Clone, Copy, Debug)]
enum Op {
    Map4K { slot: u8, ro: bool },
    Unmap4K { slot: u8 },
    Map2M { slot: u8 },
    Unmap2M { slot: u8 },
    Map1G,
    Unmap1G,
}

/// Weighted operation mix, 4 KiB-heavy like real address spaces.
fn random_op(rng: &mut XorShift64Star) -> Op {
    match rng.below(15) {
        0..=4 => Op::Map4K {
            slot: rng.next_u32() as u8,
            ro: rng.chance(1, 2),
        },
        5..=8 => Op::Unmap4K {
            slot: rng.next_u32() as u8,
        },
        9..=10 => Op::Map2M {
            slot: rng.below(8) as u8,
        },
        11..=12 => Op::Unmap2M {
            slot: rng.below(8) as u8,
        },
        13 => Op::Map1G,
        _ => Op::Unmap1G,
    }
}

fn va_4k(slot: u8) -> PageVa4K {
    PageVa::new(0x4000_0000 + (slot as usize) * 0x1000).unwrap()
}

fn va_2m(slot: u8) -> PageVa2M {
    PageVa::new(0x8000_0000 + (slot as usize) * 0x20_0000).unwrap()
}

const VA_1G: PageVa1G = PageVa::new(0x80_0000_0000).unwrap();
const FRAME_1G: usize = 0x1_0000_0000; // device-range frame, 1 GiB aligned

#[test]
fn refinement_survives_random_map_unmap() {
    for case in 0..20u64 {
        let mut rng = XorShift64Star::new(0x5eed_5001 + case);
        let mut alloc = PageAllocator::new(&BootInfo::simulated(24, 1, ""));
        let mut pt = PageTable::new(&mut alloc).unwrap();

        let nops = rng.range(1, 60);
        for i in 0..nops {
            let op = random_op(&mut rng);
            match op {
                Op::Map4K { slot, ro } => {
                    if let Ok(frame) = alloc.alloc_mapped(PageSize::Size4K) {
                        let flags = if ro {
                            EntryFlags::user_ro()
                        } else {
                            EntryFlags::user_rw()
                        };
                        if pt
                            .map_4k_page(&mut alloc, va_4k(slot), frame, flags)
                            .is_err()
                        {
                            alloc.dec_map_ref(frame);
                        }
                    }
                }
                Op::Unmap4K { slot } => {
                    if let Ok(frame) = pt.unmap_4k_page(va_4k(slot)) {
                        alloc.dec_map_ref(frame);
                    }
                }
                Op::Map2M { slot } => {
                    if let Ok(frame) = alloc.alloc_mapped(PageSize::Size2M) {
                        if pt
                            .map_2m_page(&mut alloc, va_2m(slot), frame, EntryFlags::user_rw())
                            .is_err()
                        {
                            alloc.dec_map_ref(frame);
                        }
                    }
                }
                Op::Unmap2M { slot } => {
                    if let Ok(frame) = pt.unmap_2m_page(va_2m(slot)) {
                        alloc.dec_map_ref(frame);
                    }
                }
                Op::Map1G => {
                    // A fixed 1 GiB device frame (no allocator involvement).
                    let _ = pt.map_1g_page(&mut alloc, VA_1G, FRAME_1G, EntryFlags::user_ro());
                }
                Op::Unmap1G => {
                    let _ = pt.unmap_1g_page(VA_1G);
                }
            }
            assert!(
                pt.wf().is_ok(),
                "seed {case}: structure broken after op {i} ({op:?}): {:?}",
                pt.wf()
            );
            assert!(
                refinement_wf(&pt).is_ok(),
                "seed {case}: refinement broken after op {i} ({op:?}): {:?}",
                refinement_wf(&pt)
            );
            assert!(
                alloc.wf().is_ok(),
                "seed {case}: allocator broken after op {i}: {:?}",
                alloc.wf()
            );
        }

        // Drain: unmap everything; release tables; nothing leaks.
        let spaces: Vec<(usize, PageSize)> = pt
            .address_space()
            .iter()
            .map(|(va, (_e, sz))| (*va, *sz))
            .collect();
        for (va, sz) in spaces {
            let frame = match sz {
                PageSize::Size4K => pt.unmap_4k_page(PageVa::new(va).unwrap()).unwrap(),
                PageSize::Size2M => pt.unmap_2m_page(PageVa::new(va).unwrap()).unwrap(),
                PageSize::Size1G => {
                    pt.unmap_1g_page(PageVa::new(va).unwrap()).unwrap();
                    continue; // device frame, not allocator-owned
                }
            };
            alloc.dec_map_ref(frame);
        }
        pt.release(&mut alloc);
        assert!(alloc.allocated_pages().is_empty());
        assert!(alloc.mapped_pages().is_empty());
        assert!(alloc.wf().is_ok());
    }
}
