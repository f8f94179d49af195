//! `smp-readmix`: replicated reads beside locked writes on four CPUs.
//!
//! A sharded kernel with node replication on, four modeled CPUs, and per
//! CPU one container, process, thread and endpoint. Each op is one
//! syscall: 90% replicated reads (`Getpid`, `ThreadLookup`,
//! `DescriptorResolve`, `VmResolve`, in equal shares), 7% single-page
//! `Mmap`/`Munmap` toggles over 64 page slots, 1% child-process
//! spawn/terminate toggles (the structural writes: kernel-object pages
//! through the per-CPU page cache, full-projection log resets), 2%
//! `Yield`. The CPU with the smallest modeled clock issues next.
//!
//! Why it exists: the `kernel`/`pm`/`mem` state of `ipc-rpc` and `vm-churn`
//! used for reads beside writes. `nr` (replica reads, combiner, replay) and
//! the modeled domain-lock waits decide `model.kops_per_s`, so a change
//! that speeds the write path by taxing readers (or the reverse) shows
//! here against `vm-churn`. Every return value is checked against the
//! driver's shadow (a replica read may lag other CPUs' writes, never the
//! reader's own, and each CPU reads only its own objects).

use atmo_kernel::{Kernel, KernelConfig, SmpKernel, SyscallArgs};

use crate::harness::{sys_smp_timed, Ctx, Gates, Workload};
use crate::metrics::Extras;
use crate::probe::Counts;
use crate::rng::{Deck, Rng};
use crate::span::MAX_SAMPLES;

const NCPUS: usize = 4;
const PAGE: usize = 0x1000;
const VA_BASE: usize = 0x4000_0000;
const PAGE_SLOTS: usize = 64;

const GETPID: u16 = 0;
const THREAD_LOOKUP: u16 = 1;
const DESCRIPTOR_RESOLVE: u16 = 2;
const VM_RESOLVE: u16 = 3;
const MM_TOGGLE: u16 = 4;
const PROC_TOGGLE: u16 = 5;
const YIELD: u16 = 6;

struct Cpu {
    proc: u64,
    cntr: u64,
    thread: u64,
    endpoint: u64,
    /// Shadow of the 64 page slots.
    mapped: u64,
    child: Option<u64>,
    deck: Deck,
    rng: Rng,
}

pub struct SmpReadmix {
    k: SmpKernel,
    cpus: Vec<Cpu>,
    clocks: [u64; NCPUS],
    ops_per_slice: usize,
    x: Extras,
}

impl Cpu {
    /// Draws the next op: its arguments and the return the shadow expects
    /// (`None`: any success, value recorded by the caller).
    fn next_op(&mut self) -> (u16, SyscallArgs, Option<[u64; 4]>) {
        let card = self.deck.deal(&mut self.rng);
        let slot = self.rng.below(PAGE_SLOTS);
        let va = VA_BASE + slot * PAGE;
        let is_mapped = self.mapped >> slot & 1 == 1;
        let (args, expect) = match card {
            GETPID => (SyscallArgs::Getpid, Some([self.proc, self.cntr, 0, 0])),
            THREAD_LOOKUP => (
                SyscallArgs::ThreadLookup {
                    thread: self.thread as usize,
                },
                Some([self.proc, self.cntr, 0, 0]),
            ),
            DESCRIPTOR_RESOLVE => (
                SyscallArgs::DescriptorResolve { slot: 0 },
                Some([self.endpoint, 0, 0, 0]),
            ),
            VM_RESOLVE => (
                SyscallArgs::VmResolve { va },
                Some([u64::from(is_mapped), u64::from(is_mapped), 0, 0]),
            ),
            MM_TOGGLE => {
                let (args, expect) = super::toggle_page(&mut self.mapped, slot, VA_BASE);
                (args, Some(expect))
            }
            PROC_TOGGLE => match self.child.take() {
                Some(p) => (
                    SyscallArgs::TerminateProcess { proc: p as usize },
                    Some([0; 4]),
                ),
                None => (SyscallArgs::NewChildProcess, None),
            },
            _ => (SyscallArgs::Yield, Some([self.thread, 0, 0, 0])),
        };
        (card, args, expect)
    }
}

impl Workload for SmpReadmix {
    const NAME: &'static str = "smp-readmix";
    const OPS_PER_SLICE_PER_SECOND: usize = 46_000;

    fn setup(seed: u64, ops_per_slice: usize) -> Self {
        let mut k = Kernel::boot(KernelConfig {
            mem_mib: 64,
            ncpus: NCPUS,
            root_quota: 8192,
        });
        let owners = super::boot_per_cpu(&mut k, NCPUS, 1024);
        let mut cpus = Vec::with_capacity(NCPUS);
        for (cpu, &(cntr, proc, thread)) in owners.iter().enumerate() {
            // Endpoints are created through the init thread (slot `cpu`)
            // and installed in slot 0 of the CPU's own thread.
            let endpoint = k.syscall(0, SyscallArgs::NewEndpoint { slot: cpu }).val0() as usize;
            if cpu != 0 {
                k.pm.install_descriptor(thread, 0, endpoint)
                    .expect("endpoint installs");
            }
            cpus.push(Cpu {
                proc: proc as u64,
                cntr: cntr as u64,
                thread: thread as u64,
                endpoint: endpoint as u64,
                mapped: 0,
                child: None,
                deck: Deck::new(&[
                    (GETPID, 45),
                    (THREAD_LOOKUP, 45),
                    (DESCRIPTOR_RESOLVE, 45),
                    (VM_RESOLVE, 45),
                    (MM_TOGGLE, 14),
                    (PROC_TOGGLE, 2),
                    (YIELD, 4),
                ]),
                rng: Rng::new(seed, cpu as u64),
            });
        }
        let k = SmpKernel::new(k);
        k.enable_nr();
        let clocks = std::array::from_fn(|c| k.cycles(c));
        SmpReadmix {
            k,
            cpus,
            clocks,
            ops_per_slice,
            x: Extras {
                nr_read_samples: Vec::with_capacity(MAX_SAMPLES),
                ..Extras::default()
            },
        }
    }

    fn run_slice(&mut self, ctx: &mut Ctx) {
        for _ in 0..self.ops_per_slice {
            let c = super::earliest(&self.clocks);
            let t0 = self.clocks[c];
            ctx.tr.begin_op(t0);
            let cpu = &mut self.cpus[c];
            let (card, args, expect) = cpu.next_op();
            let (r, ns) = sys_smp_timed(&self.k, &mut ctx.tr, c, args);
            match expect {
                Some(e) => ctx.expect(r.result == Ok(e)),
                None => {
                    ctx.expect(r.is_ok());
                    cpu.child = r.result.ok().map(|v| v[0]);
                }
            }
            if ns > 0 && card <= VM_RESOLVE {
                let samples = &mut self.x.nr_read_samples;
                if samples.len() < samples.capacity() {
                    samples.push(ns.min(u32::MAX as u64) as u32);
                }
            }
            let now = self.k.cycles(c);
            self.clocks[c] = now;
            ctx.lat.record(now - t0);
            ctx.tr.end_op(now, 1);
        }
    }

    fn clocks(&self) -> Vec<u64> {
        self.clocks.to_vec()
    }

    fn counts(&self) -> Counts {
        Counts::of_snapshot(&self.k.trace_snapshot())
            .with_caches((0..NCPUS).map(|c| self.k.cache_stats(c)))
            .with_obligations()
    }

    fn extras(&mut self, probe: bool) -> Extras {
        if probe {
            self.x.snapshot_us = crate::probe::probe_snapshot_us(|| self.k.trace_snapshot());
        }
        std::mem::take(&mut self.x)
    }

    fn finish(&mut self, _ctx: &mut Ctx, d: &Counts, gates: &mut Gates) {
        gates.check(
            "nr.reads_served_locally",
            d.nr_read_local > 0 && d.nr_fallback_locked == 0,
            || {
                format!(
                    "{} local, {} locked reads",
                    d.nr_read_local, d.nr_fallback_locked
                )
            },
        );
        // Includes nr_wf and the replica-vs-locked-state cross-check.
        gates.verif("audit_total_wf", self.k.audit_total_wf());
    }
}
