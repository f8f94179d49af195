//! Benchmark harness for the Atmosphere reproduction.
//!
//! One `repro-*` binary per table/figure of the paper (see DESIGN.md's
//! experiment index). Each binary runs exactly one configuration, the
//! one `results/` records: none reads an environment variable or a
//! command-line argument. This library holds what they share: Table
//! 3-style cycle measurements against the simulated kernel, the
//! per-CPU boot and discrete-event drain of the SMP experiments, the
//! DMA-pinned window of the zero-copy experiments, and plain-text table
//! rendering. Host-clock timing of the hot paths lives in `bench-e2e`,
//! per layer.
//!
//! **The tag rule.** A line whose bytes anything but the modeled clock
//! can change ends in one tag, added by [`Tag::lines`]: `[host]` for a
//! host-clock reading, `[source]` for a count taken from the source
//! tree. A table with such a column tags its header and rule too
//! ([`render_tagged_table`]), since [`render_table`] pads every row to
//! the widest cell. Every untagged line is deterministic, and
//! `scripts/reproduce_all.sh` fails if one differs from `results/`.

use std::collections::VecDeque;

use atmo_hw::cycles::CpuProfile;
use atmo_kernel::kernel::BigLockKernel;
use atmo_kernel::{Kernel, KernelConfig, SmpKernel, SyscallArgs, SyscallReturn};
use atmo_spec::harness::{Invariant, VerifResult};

/// The c220g5's clock rate, which every modeled rate is taken at.
pub const FREQ: u64 = CpuProfile::c220g5().freq_hz;

/// What a tagged line's bytes depend on besides the modeled clock.
#[derive(Clone, Copy, Debug)]
pub enum Tag {
    /// A host-clock reading: it changes from run to run.
    Host,
    /// A count taken from the source tree: it changes with the code.
    Source,
}

impl Tag {
    /// `text` with this tag at the end of every line.
    pub fn lines(self, text: &str) -> String {
        let tag = match self {
            Tag::Host => " [host]",
            Tag::Source => " [source]",
        };
        text.lines().map(|l| format!("{l}{tag}\n")).collect()
    }
}

/// Renders an aligned plain-text table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    format!("== {title} ==\n{}", table_body(headers, rows))
}

/// Renders a table with a host-clock column: the title as
/// [`render_table`] does, every other line tagged [`Tag::Host`].
pub fn render_tagged_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    format!(
        "== {title} ==\n{}",
        Tag::Host.lines(&table_body(headers, rows))
    )
}

/// The header, rule and rows of a table, each cell padded to its
/// column's widest.
fn table_body(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        let line = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ");
        format!("{line}\n")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let mut out = fmt_row(&header_cells);
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
    }
    out
}

/// A kernel the shared drivers below issue syscalls to: the flat
/// kernel, the big-lock kernel or the sharded one.
pub trait Machine {
    /// Issues `args` on `cpu`.
    fn call(&mut self, cpu: usize, args: SyscallArgs) -> SyscallReturn;
    /// `cpu`'s modeled clock.
    fn clock(&self, cpu: usize) -> u64;
    /// The stop-the-world audit: `wf` on the flat and big-lock
    /// kernels, `audit_total_wf` on the sharded one.
    fn audit(&self) -> VerifResult;
    /// Runs `f` over the whole kernel state.
    fn inspect<R>(&self, f: impl FnOnce(&Kernel) -> R) -> R;

    /// Issues `args` on CPU 0, expects success and returns `val0`.
    fn ok(&mut self, args: SyscallArgs) -> u64 {
        let r = self.call(0, args.clone());
        assert!(r.is_ok(), "{args:?} failed: {r:?}");
        r.val0()
    }
}

impl Machine for Kernel {
    fn call(&mut self, cpu: usize, args: SyscallArgs) -> SyscallReturn {
        self.syscall(cpu, args)
    }
    fn clock(&self, cpu: usize) -> u64 {
        self.cycles(cpu)
    }
    fn audit(&self) -> VerifResult {
        self.wf()
    }
    fn inspect<R>(&self, f: impl FnOnce(&Kernel) -> R) -> R {
        f(self)
    }
}

impl Machine for BigLockKernel {
    fn call(&mut self, cpu: usize, args: SyscallArgs) -> SyscallReturn {
        self.syscall(cpu, args)
    }
    fn clock(&self, cpu: usize) -> u64 {
        self.with_kernel(|k| k.cycles(cpu))
    }
    fn audit(&self) -> VerifResult {
        self.with_kernel(|k| k.wf())
    }
    fn inspect<R>(&self, f: impl FnOnce(&Kernel) -> R) -> R {
        self.with_kernel(|k| f(k))
    }
}

impl Machine for SmpKernel {
    fn call(&mut self, cpu: usize, args: SyscallArgs) -> SyscallReturn {
        self.syscall(cpu, args)
    }
    fn clock(&self, cpu: usize) -> u64 {
        self.cycles(cpu)
    }
    fn audit(&self) -> VerifResult {
        self.audit_total_wf()
    }
    fn inspect<R>(&self, f: impl FnOnce(&Kernel) -> R) -> R {
        self.with_kernel(|k| f(k))
    }
}

/// Gives `cpu` its own container (quota 512, owning `cpu`), process and
/// thread, created through CPU 0's init thread. Returns the process and
/// the thread; the caller dispatches it with `timer_tick(cpu)`.
pub fn spawn_cpu_thread(k: &mut Kernel, cpu: usize) -> (usize, usize) {
    let cpus = vec![cpu];
    let cntr = k.ok(SyscallArgs::NewContainer { quota: 512, cpus }) as usize;
    let proc = k.ok(SyscallArgs::NewProcess { cntr }) as usize;
    (proc, k.ok(SyscallArgs::NewThread { proc, cpu }) as usize)
}

/// Boots a 64 MiB kernel with one running thread per CPU, each in its
/// own container ([`spawn_cpu_thread`]); CPU 0 keeps the init thread.
/// Returns the kernel and the per-CPU threads.
pub fn boot_thread_per_cpu(ncpus: usize) -> (Kernel, Vec<usize>) {
    let mut k = Kernel::boot(KernelConfig {
        mem_mib: 64,
        ncpus,
        root_quota: 16384,
    });
    let mut threads = vec![k.init_thread];
    for cpu in 1..ncpus {
        threads.push(spawn_cpu_thread(&mut k, cpu).1);
        k.pm.timer_tick(cpu);
    }
    (k, threads)
}

/// Yields an odd CPU of the write-heavy mix issues per round.
pub const YIELDS_PER_ROUND: usize = 8;

/// The write-heavy op list of one CPU: an even CPU maps and unmaps one
/// page per round, from `va_base` up; an odd CPU yields
/// [`YIELDS_PER_ROUND`] times per round.
pub fn write_heavy_ops(cpu: usize, rounds: usize, va_base: usize) -> VecDeque<SyscallArgs> {
    let mut ops = VecDeque::new();
    for round in 0..rounds {
        if cpu.is_multiple_of(2) {
            let va_base = va_base + round * 0x1000;
            ops.push_back(SyscallArgs::Mmap {
                va_base,
                len: 1,
                writable: true,
            });
            ops.push_back(SyscallArgs::Munmap { va_base, len: 1 });
        } else {
            for _ in 0..YIELDS_PER_ROUND {
                ops.push_back(SyscallArgs::Yield);
            }
        }
    }
    ops
}

/// Drains CPU `i`'s op list `queues[i]` as a deterministic
/// discrete-event simulation: the pending CPU with the smallest modeled
/// clock issues next, which is how free-running cores reach their next
/// lock acquisition. Every op must succeed; `each` sees the machine and
/// the op count after every op. Returns the op count.
pub fn drain<M: Machine>(
    m: &mut M,
    queues: &mut [VecDeque<SyscallArgs>],
    mut each: impl FnMut(&M, u64),
) -> u64 {
    let mut ops = 0u64;
    loop {
        let next = (0..queues.len())
            .filter(|&c| !queues[c].is_empty())
            .min_by_key(|&c| m.clock(c));
        let Some(cpu) = next else { break };
        let args = queues[cpu].pop_front().expect("non-empty queue");
        let r = m.call(cpu, args);
        assert!(r.is_ok(), "cpu {cpu}: {r:?}");
        ops += 1;
        each(m, ops);
    }
    ops
}

/// The latest modeled clock over the first `ncpus` CPUs.
pub fn max_clock(m: &impl Machine, ncpus: usize) -> u64 {
    (0..ncpus).map(|c| m.clock(c)).max().unwrap_or(0)
}

/// Millions of ops per modeled c220g5 second.
pub fn mops_per_sec(ops: u64, cycles: u64) -> f64 {
    ops as f64 / CpuProfile::c220g5().cycles_to_seconds(cycles) / 1e6
}

/// Maps `npages` pages from `va` on CPU 0, in `Mmap`s of at most
/// `chunk` pages.
pub fn mmap_chunked(m: &mut impl Machine, va: usize, npages: usize, chunk: usize) {
    for i in (0..npages).step_by(chunk) {
        let (va_base, len) = (va + i * 0x1000, chunk.min(npages - i));
        m.ok(SyscallArgs::Mmap {
            va_base,
            len,
            writable: true,
        });
    }
}

/// Undoes [`mmap_chunked`] in `Munmap`s of the same runs.
pub fn munmap_chunked(m: &mut impl Machine, va: usize, npages: usize, chunk: usize) {
    for i in (0..npages).step_by(chunk) {
        let (va_base, len) = (va + i * 0x1000, chunk.min(npages - i));
        m.ok(SyscallArgs::Munmap { va_base, len });
    }
}

/// The frames behind the `npages` 4 KiB mappings from `va` in the init
/// process.
pub fn mapped_frames(k: &Kernel, va: usize, npages: usize) -> Vec<usize> {
    let table = k.mem.vm.table(k.pm.proc(k.init_proc).addr_space).unwrap();
    (0..npages)
        .map(|i| table.map_4k.index(&(va + i * 0x1000)).unwrap().frame)
        .collect()
}

/// Where [`pin_dma_window`] maps the window in the process.
const DMA_VA: usize = 0x4000_0000;
/// The window's first iova.
pub const DMA_IOVA: usize = 0x10_0000;

/// DMA-pins `npages` frames for `device` the way a long-lived driver
/// buffer is pinned: they are mmapped, mapped through a new IOMMU domain
/// attached to `device`, then unmapped from the process, so the pin
/// alone keeps each frame alive and inside `page_closure()`. Audits the
/// pinned state. Returns the domain and the frames in iova order.
pub fn pin_dma_window(m: &mut impl Machine, device: u16, npages: usize) -> (u32, Vec<usize>) {
    m.ok(SyscallArgs::Mmap {
        va_base: DMA_VA,
        len: npages,
        writable: true,
    });
    let domain = m.ok(SyscallArgs::IommuCreateDomain) as u32;
    m.ok(SyscallArgs::IommuAttach { domain, device });
    for i in 0..npages {
        m.ok(SyscallArgs::IommuMap {
            domain,
            iova: DMA_IOVA + i * 0x1000,
            va: DMA_VA + i * 0x1000,
        });
    }
    let frames = m.inspect(|k| mapped_frames(k, DMA_VA, npages));
    m.ok(SyscallArgs::Munmap {
        va_base: DMA_VA,
        len: npages,
    });
    let audit = m.audit();
    assert!(audit.is_ok(), "pinned window breaks the audit: {audit:?}");
    (domain, frames)
}

/// Undoes [`pin_dma_window`]: unpins every frame (the last reference),
/// detaches `device` and audits that no frame leaked.
pub fn unpin_dma_window(m: &mut impl Machine, domain: u32, device: u16, frames: &[usize]) {
    for i in 0..frames.len() {
        m.ok(SyscallArgs::IommuUnmap {
            domain,
            iova: DMA_IOVA + i * 0x1000,
        });
    }
    m.inspect(|k| {
        for &f in frames {
            assert!(k.mem.alloc.page_is_free(f), "frame returned on unpin");
        }
    });
    m.ok(SyscallArgs::IommuDetach { device });
    let audit = m.audit();
    assert!(audit.is_ok(), "teardown: {audit:?}");
    m.inspect(|k| assert!(k.mem.alloc.mapped_pages().is_empty(), "no frames leaked"));
}

/// Boots a kernel with thread T2 parked in `recv` on the shared
/// endpoint and T1 (the init thread) current — the starting state for
/// both call/reply measurements.
fn boot_call_reply_pair(k: &mut Kernel) {
    // Build T2 in the init process, both on CPU 0.
    let proc = k.init_proc;
    let t2 = k.ok(SyscallArgs::NewThread { proc, cpu: 0 }) as usize;
    let e = k.ok(SyscallArgs::NewEndpoint { slot: 0 }) as usize;
    k.pm.install_descriptor(t2, 0, e).unwrap();

    // Switch to T2 and park it in recv.
    k.pm.timer_tick(0);
    assert_eq!(k.pm.sched.current(0), Some(t2));
    k.ok(SyscallArgs::Recv { slot: 0 });
}

/// Measures the Atmosphere call/reply round trip in cycles on the
/// simulated kernel (Table 3, row 1): thread T2 waits in `recv`, T1
/// `call`s, T2 `reply`s; the meter delta across call+reply is the cost.
/// This is the paper's configuration — the slow rendezvous path, with
/// the direct-handoff fast path held off by exhausting the per-CPU
/// handoff budget first (a budget miss charges exactly the classic
/// rendezvous cost and dispatches the same thread).
pub fn measure_call_reply_cycles() -> u64 {
    let mut k = Kernel::boot(KernelConfig::default());
    boot_call_reply_pair(&mut k);

    // Burn the handoff budget with un-measured fastpath round trips so
    // the measured Call falls back to the rendezvous arm.
    for _ in 0..atmo_pm::manager::HANDOFF_BUDGET / 2 {
        let r = k.syscall(
            0,
            SyscallArgs::Call {
                slot: 0,
                scalars: [0; 4],
            },
        );
        assert_eq!(r.val0(), 1, "warm-up call should take the handoff");
        let _ = k.syscall(0, SyscallArgs::TakeMsg);
        let r = k.syscall(
            0,
            SyscallArgs::ReplyRecv {
                slot: 0,
                scalars: [0; 4],
            },
        );
        assert_eq!(r.val0(), 1, "warm-up reply should take the handoff");
        let _ = k.syscall(0, SyscallArgs::TakeMsg);
    }

    // T1 (the init thread, now current) performs the measured round trip.
    let start = k.cycles(0);
    let r = k.syscall(
        0,
        SyscallArgs::Call {
            slot: 0,
            scalars: [1, 2, 3, 4],
        },
    );
    assert!(r.is_ok());
    assert_eq!(r.val0(), 0, "measured call must take the rendezvous path");
    // T2 is current again (the call delivered into its recv); it replies.
    let r = k.syscall(
        0,
        SyscallArgs::Reply {
            scalars: [42, 0, 0, 0],
        },
    );
    assert!(r.is_ok());
    k.cycles(0) - start
}

/// Measures the same round trip on the IPC fast path (direct handoff):
/// T1 `Call`s (handoff to T2), T2 `ReplyRecv`s (handoff back). Not a
/// paper row — the fast path is this reproduction's optimisation on
/// top of the paper's kernel.
pub fn measure_call_reply_fastpath_cycles() -> u64 {
    let mut k = Kernel::boot(KernelConfig::default());
    boot_call_reply_pair(&mut k);

    let start = k.cycles(0);
    let r = k.syscall(
        0,
        SyscallArgs::Call {
            slot: 0,
            scalars: [1, 2, 3, 4],
        },
    );
    assert_eq!(r.val0(), 1, "expected the direct handoff");
    let r = k.syscall(
        0,
        SyscallArgs::ReplyRecv {
            slot: 0,
            scalars: [42, 0, 0, 0],
        },
    );
    assert_eq!(r.val0(), 1, "expected the direct handoff back");
    k.cycles(0) - start
}

/// Measures mapping one 4 KiB page in cycles on the simulated kernel
/// (Table 3, row 2). The neighbouring page is mapped first so the
/// intermediate table levels exist (steady-state cost, as measured in the
/// paper's loop). A 1-page `Mmap` takes the per-page body even with the
/// batched datapath on, so this is the paper's per-page cost; the
/// `repro-vm-batch` binary measures both paths side by side.
pub fn measure_map_page_cycles() -> u64 {
    let mut k = Kernel::boot(KernelConfig::default());
    let page = |va_base| SyscallArgs::Mmap {
        va_base,
        len: 1,
        writable: true,
    };
    k.ok(page(0x40_0000));
    let start = k.cycles(0);
    k.ok(page(0x40_1000));
    k.cycles(0) - start
}

/// Formats a Mpps value for figure rows.
pub fn fmt_mpps(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats an IOPS value in thousands.
pub fn fmt_kiops(v: f64) -> String {
    format!("{:.0}K", v / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_reply_matches_table3() {
        assert_eq!(measure_call_reply_cycles(), 1058);
    }

    #[test]
    fn call_reply_fastpath_beats_table3() {
        // entry + ipc_fastpath + exit, twice: (140 + 110 + 109) * 2.
        assert_eq!(measure_call_reply_fastpath_cycles(), 718);
    }

    #[test]
    fn map_page_matches_table3() {
        assert_eq!(measure_map_page_cycles(), 1984);
    }

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            "T",
            &["a", "long-header"],
            &[vec!["xxx".into(), "1".into()]],
        );
        assert!(t.contains("== T =="));
        assert!(t.contains("long-header"));
        assert!(t.lines().count() >= 4);

        // A tagged table is the same table with the tag after every
        // line but its title.
        let rows = [vec!["xxx".into(), "1".into()]];
        let plain = render_table("T", &["a", "long-header"], &rows);
        let tagged = render_tagged_table("T", &["a", "long-header"], &rows);
        let mut lines = tagged.lines();
        assert_eq!(lines.next(), Some("== T =="));
        for (t, p) in lines.zip(plain.lines().skip(1)) {
            assert_eq!(t.strip_suffix(" [host]"), Some(p));
        }
        assert_eq!(tagged.lines().count(), plain.lines().count());
        assert_eq!(Tag::Source.lines("a\nb\n"), "a [source]\nb [source]\n");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_mpps(14.2), "14.20");
        assert_eq!(fmt_kiops(141_000.0), "141K");
    }
}
