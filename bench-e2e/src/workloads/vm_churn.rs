//! `vm-churn`: one address space mapping and unmapping under a seeded
//! random walk.
//!
//! A sharded kernel with one modeled CPU on a 64 MiB machine. Each op is
//! one `Mmap`, `Munmap`, `MmapHuge2M` or `MunmapHuge2M`. The walk maps
//! while fewer than [`LIVE_TARGET`] pages are live and unmaps a random live
//! region otherwise, so the address space hovers around 4 MiB (16× the
//! per-CPU page cache). Mapped run lengths: 1 page 55%, 2–31 pages 35%, 64–256
//! pages 8%, a 2 MiB-aligned 512-page run (promoted to a superpage, demoted
//! again when it is unmapped) 1.5%, an explicit 2 MiB mapping 0.5%; one in
//! ten unmaps of a multi-page region removes only an inner part of it.
//!
//! Why it exists: `kernel::vm`'s staged two-phase path, `mem` (allocator,
//! 2 MiB contiguous assembly and split) and `ptable` (`map_range` walk
//! cache, promotion, demotion) do the work while `pm` only bills quota; it
//! also puts the host cost per page — super-linear in run length at the
//! commit that defined the benchmark — on the trajectory. NR is off
//! (gated: no log append).

use atmo_kernel::{Kernel, KernelConfig, SmpKernel, SyscallArgs};

use crate::harness::{sys_smp, sys_smp_timed, Ctx, Gates, Workload};
use crate::metrics::Extras;
use crate::probe::Counts;
use crate::rng::{Deck, Rng};

const PAGE: usize = 0x1000;
const PAGE_2M: usize = 0x20_0000;
const RUN_2M: usize = 512;
/// Live pages the walk hovers around.
const LIVE_TARGET: usize = 1024;
/// Small and medium regions: bump-allocated, recycled by exact size.
const ARENA_VA: usize = 0x4000_0000;
/// Aligned 512-page runs: always a fresh 2 MiB slot, because a demoted
/// slot keeps its L1 table and would never promote again.
const RUNS_VA: usize = 0x40_0000_0000;
/// The explicit 2 MiB mapping's slot.
const HUGE_VA: usize = 0x80_0000_0000;
const MAX_RECYCLED: usize = 256;
/// The deck card of an explicit 2 MiB mapping; every other card is the
/// page count of an `Mmap`.
const HUGE_CARD: u16 = u16::MAX;

/// The mapped-run deck: 200 cards with exactly the stated mix, *sizes
/// included*, so every 200 maps cover the same number of pages whatever
/// the seed.
fn run_deck() -> Deck {
    let mut cards: Vec<(u16, usize)> = vec![(1, 110)];
    // 70 small runs: every length 2..=31 twice, every third one once more.
    cards.extend((2..=31u16).map(|n| (n, if n % 3 == 1 { 3 } else { 2 })));
    // 16 medium runs evenly spread over 64..=256.
    cards.extend((0..16u16).map(|i| (64 + i * 64 / 5, 1)));
    cards.push((RUN_2M as u16, 3));
    cards.push((HUGE_CARD, 1));
    let deck = Deck::new(&cards);
    assert_eq!(deck.len(), 200);
    deck
}

#[derive(Clone, Copy, Debug)]
struct Region {
    va: usize,
    pages: usize,
}

pub struct VmChurn {
    k: SmpKernel,
    rng: Rng,
    deck: Deck,
    regions: Vec<Region>,
    /// The one explicit 2 MiB mapping, when live. One, because the
    /// allocator assembles 2 MiB blocks only from fully free aligned runs,
    /// which a fragmented machine no longer has: the block assembled while
    /// the machine was fresh is recycled, a second one could be refused.
    huge_live: bool,
    live_pages: usize,
    next_va: usize,
    next_run_va: usize,
    /// Recyclable VA ranges by exact page count.
    free_va: Vec<Vec<usize>>,
    clock: u64,
    ops_per_slice: usize,
    x: Extras,
}

impl VmChurn {
    fn take_va(&mut self, pages: usize) -> usize {
        if let Some(va) = self.free_va[pages].pop() {
            return va;
        }
        let va = self.next_va;
        self.next_va += pages * PAGE;
        va
    }

    fn give_va(&mut self, r: Region) {
        if r.pages <= MAX_RECYCLED && r.va < RUNS_VA {
            self.free_va[r.pages].push(r.va);
        }
    }

    /// One traced-and-timed VM syscall that must succeed.
    fn vm_call(&mut self, ctx: &mut Ctx, args: SyscallArgs, pages: usize) {
        let (r, ns) = sys_smp_timed(&self.k, &mut ctx.tr, 0, args);
        ctx.expect(r.is_ok());
        if ns > 0 {
            let acc = if pages <= 31 {
                &mut self.x.vm_small
            } else {
                &mut self.x.vm_large
            };
            if pages <= 31 || pages >= 64 {
                acc.0 += ns;
                acc.1 += pages as u64;
            }
        }
    }

    fn map_op(&mut self, ctx: &mut Ctx) {
        let card = self.deck.deal(&mut self.rng);
        if card == HUGE_CARD && !self.huge_live {
            self.vm_call(
                ctx,
                SyscallArgs::MmapHuge2M {
                    va_base: HUGE_VA,
                    writable: true,
                },
                RUN_2M,
            );
            self.huge_live = true;
            self.live_pages += RUN_2M;
            return;
        }
        let (va, pages) = match card {
            // The huge slot is taken: a large medium run instead.
            HUGE_CARD => (self.take_va(MAX_RECYCLED), MAX_RECYCLED),
            512 => {
                let va = self.next_run_va;
                self.next_run_va += PAGE_2M;
                (va, RUN_2M)
            }
            n => (self.take_va(n as usize), n as usize),
        };
        self.vm_call(
            ctx,
            SyscallArgs::Mmap {
                va_base: va,
                len: pages,
                writable: true,
            },
            pages,
        );
        self.regions.push(Region { va, pages });
        self.live_pages += pages;
    }

    fn unmap_op(&mut self, ctx: &mut Ctx) {
        let pick = self
            .rng
            .below(self.regions.len() + usize::from(self.huge_live));
        if pick == self.regions.len() {
            self.vm_call(ctx, SyscallArgs::MunmapHuge2M { va_base: HUGE_VA }, RUN_2M);
            self.huge_live = false;
            self.live_pages -= RUN_2M;
            return;
        }
        let r = self.regions.swap_remove(pick);
        if r.pages >= 3 && self.rng.below(10) == 0 {
            // Partial: drop an inner range, keep a prefix and a suffix.
            let len = self.rng.between(1, r.pages - 2);
            let off = self.rng.between(1, r.pages - len - 1);
            self.vm_call(
                ctx,
                SyscallArgs::Munmap {
                    va_base: r.va + off * PAGE,
                    len,
                },
                len,
            );
            self.regions.push(Region {
                va: r.va,
                pages: off,
            });
            self.regions.push(Region {
                va: r.va + (off + len) * PAGE,
                pages: r.pages - off - len,
            });
            self.live_pages -= len;
        } else {
            self.vm_call(
                ctx,
                SyscallArgs::Munmap {
                    va_base: r.va,
                    len: r.pages,
                },
                r.pages,
            );
            self.give_va(r);
            self.live_pages -= r.pages;
        }
    }

    fn resolve(&self, ctx: &mut Ctx, va: usize) -> Option<[u64; 4]> {
        sys_smp(&self.k, &mut ctx.tr, 0, SyscallArgs::VmResolve { va })
            .result
            .ok()
    }
}

impl Workload for VmChurn {
    const NAME: &'static str = "vm-churn";
    const OPS_PER_SLICE_PER_SECOND: usize = 80;

    fn setup(seed: u64, ops_per_slice: usize) -> Self {
        let k = SmpKernel::new(Kernel::boot(KernelConfig {
            mem_mib: 64,
            ncpus: 1,
            root_quota: 12_288,
        }));
        let clock = k.cycles(0);
        let mut w = VmChurn {
            k,
            rng: Rng::new(seed, 0),
            deck: run_deck(),
            regions: Vec::with_capacity(1 << 16),
            huge_live: false,
            live_pages: 0,
            next_va: ARENA_VA,
            next_run_va: RUNS_VA,
            free_va: (0..=MAX_RECYCLED)
                .map(|_| Vec::with_capacity(1 << 12))
                .collect(),
            clock,
            ops_per_slice,
            x: Extras::default(),
        };
        // Fill to the target, untimed (this is not the warm-up slice: the
        // walk only starts unmapping once the space is full).
        let mut fill = Ctx::untraced();
        // First of all, while the machine is unfragmented, assemble the
        // one 2 MiB block the explicit mapping will recycle.
        for args in [
            SyscallArgs::MmapHuge2M {
                va_base: HUGE_VA,
                writable: true,
            },
            SyscallArgs::MunmapHuge2M { va_base: HUGE_VA },
        ] {
            w.vm_call(&mut fill, args, RUN_2M);
        }
        while w.live_pages < LIVE_TARGET {
            w.map_op(&mut fill);
        }
        assert_eq!(fill.failed, 0, "the initial fill maps cleanly");
        w.clock = w.k.cycles(0);
        w
    }

    fn run_slice(&mut self, ctx: &mut Ctx) {
        for _ in 0..self.ops_per_slice {
            ctx.tr.begin_op(self.clock);
            if self.live_pages < LIVE_TARGET {
                self.map_op(ctx);
            } else {
                self.unmap_op(ctx);
            }
            let now = self.k.cycles(0);
            ctx.lat.record(now - self.clock);
            self.clock = now;
            ctx.tr.end_op(now, 1);
        }
    }

    fn clocks(&self) -> Vec<u64> {
        vec![self.clock]
    }

    fn counts(&self) -> Counts {
        Counts::of_snapshot(&self.k.trace_snapshot())
            .with_caches([self.k.cache_stats(0)])
            .with_obligations()
    }

    fn extras(&mut self, probe: bool) -> Extras {
        if probe {
            self.x.snapshot_us = crate::probe::probe_snapshot_us(|| self.k.trace_snapshot());
        }
        self.x.clone()
    }

    fn finish(&mut self, ctx: &mut Ctx, d: &Counts, gates: &mut Gates) {
        gates.check("vm.nr_off", d.nr_appended == 0, || {
            format!("{} log appends with NR off", d.nr_appended)
        });
        // The shadow (the live-region list) against VmResolve: 500 live
        // pages and up to 1000 pages of recycled or never used, currently
        // unmapped ranges. `VmResolve` answers from the 4 KiB map alone, so
        // a page under a transparently promoted superpage reads as
        // unmapped; whole 512-page runs (which may be promoted) are
        // therefore not sampled.
        let small: Vec<Region> = self
            .regions
            .iter()
            .copied()
            .filter(|r| r.pages != RUN_2M)
            .collect();
        let mut bad = 0;
        for i in 0..500 {
            let r = small[self.rng.below(small.len())];
            let va = r.va + self.rng.below(r.pages) * PAGE;
            if self.resolve(ctx, va) != Some([1, 1, 0, 0]) {
                bad += 1;
            }
            let free = [
                self.free_va[1 + i % 31].last().copied(),
                Some(self.next_va + i * PAGE),
            ];
            for va in free.into_iter().flatten() {
                if self.resolve(ctx, va) != Some([0, 0, 0, 0]) {
                    bad += 1;
                }
            }
        }
        gates.check("vm.shadow_agrees_with_resolve", bad == 0, || {
            format!("{bad} sampled addresses disagree")
        });
        // Final unmap of everything, then nothing may stay mapped.
        let before = ctx.failed;
        while !self.regions.is_empty() || self.huge_live {
            self.unmap_op(ctx);
        }
        gates.check("vm.final_unmap", ctx.failed == before, || {
            format!("{} unmaps failed", ctx.failed - before)
        });
        gates.verif("audit_total_wf", self.k.audit_total_wf());
        let c = self.counts();
        gates.check(
            "vm.every_frame_unmapped",
            c.pt_frames_mapped == c.pt_frames_unmapped,
            || {
                format!(
                    "{} frames mapped, {} unmapped since boot",
                    c.pt_frames_mapped, c.pt_frames_unmapped
                )
            },
        );
    }
}
