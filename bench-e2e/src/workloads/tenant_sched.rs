//! `tenant-sched`: a latency-sensitive victim beside a thousand tenants.
//!
//! A flat kernel with four modeled CPUs and 1024 tenant containers (the
//! victim among them) in 32 racks, weights 1–4, built the way
//! `repro-multitenant` builds its fleet. CPU 1's tenants flood a shared
//! endpoint with blocking sends; CPU 2's burn their quotas (child
//! processes and mmaps until refused); CPU 0 is the control plane: it
//! drains the endpoint, terminates and respawns one tenant every 48 turns,
//! and flips admin throttles and weights; every CPU takes a
//! `pm.timer_tick` each 8192 modeled cycles, which is what charges,
//! exhausts, parks and refills the tenants' budgets. The victim owns CPU 3.
//! The CPU with the smallest modeled clock takes the next turn; a CPU with
//! nothing runnable halt-polls for 2000 cycles (kept in the driver's clock
//! array, not charged to the kernel's meter).
//!
//! Op = one victim iteration, `Yield` + 1-page `Mmap` + `Munmap`; its
//! latency is its modeled cycles on CPU 3. On a flat kernel nothing
//! serializes CPUs in modeled time, so the victim's modeled latency is a
//! constant that only a cost-model or scheduler change moves; what the
//! fleet costs shows on the host clock: `host.kops_per_s` is victim
//! iterations per host second *while the fleet runs*.
//!
//! Why it exists: `pm::sched` (bitmap pick, park/unpark, refill wheel,
//! budget ledger) and container lifecycle dominate, and the scheduler's
//! per-tick allocations show in `host.allocs_per_op`; `drivers`, `apps`
//! and `nr` idle. The fleet's refusals are the point of it: each adversary
//! syscall is checked against the set of outcomes its op may have
//! (`Quota`, `Capacity`, `Fault`, no runnable thread), and only an outcome
//! outside the set — or any victim failure — counts as a failed op.

use atmo_kernel::{Kernel, KernelConfig, SyscallArgs, SyscallError};
use atmo_spec::harness::Invariant;

use crate::harness::{sys_flat, Ctx, Gates, Workload};
use crate::metrics::Extras;
use crate::probe::Counts;
use crate::rng::Rng;
use crate::span::Name;

const NCPUS: usize = 4;
const CONTROL: usize = 0;
const FLOOD: usize = 1;
const BURN: usize = 2;
const VICTIM: usize = 3;
const RACKS: usize = 32;
const RACK_SLOTS: usize = 32;
const TENANT_QUOTA: usize = 8;
const VICTIM_WEIGHT: u32 = 16;
const TICK_CYCLES: u64 = 8192;
const IDLE_CYCLES: u64 = 2000;
const CHURN_EVERY: u64 = 48;
const PAGE: usize = 0x1000;
const VICTIM_VA: usize = 0x5000_0000;
const BURN_VA: usize = 0x6000_0000;

use SyscallError::{Capacity, Fault, NoMem, Quota, WrongState};

struct Tenant {
    cntr: usize,
    rack: usize,
}

pub struct TenantSched {
    k: Kernel,
    tenants: Vec<Tenant>,
    flood_endpoint: usize,
    turns: [u64; NCPUS],
    /// Halt-poll cycles per CPU, on top of the kernel's meters.
    idle: [u64; NCPUS],
    next_tick: [u64; NCPUS],
    next_churn: usize,
    churn_due: bool,
    weight_phase: usize,
    /// The tenant under an admin throttle, if any.
    throttled: Option<usize>,
    rng: Rng,
    ops_per_slice: usize,
}

/// Weights 1-4 in equal shares; `phase` (from the seed) decides which
/// tenant gets which.
fn tenant_weight(i: usize, phase: usize) -> u32 {
    1 + ((i + phase) % 4) as u32
}

/// Spawns tenant `i` under `rack`. The syscall surface parents a new
/// container to the caller's own, and tenants are grandchildren of root,
/// so the container comes from `pm` directly; the rest are syscalls from
/// the init thread (which must be running on CPU 0).
fn spawn_tenant(
    k: &mut Kernel,
    rack: usize,
    i: usize,
    weight: u32,
    flood_endpoint: usize,
) -> Option<Tenant> {
    let cntr =
        k.pm.new_container(&mut k.mem.alloc, rack, TENANT_QUOTA, &[])
            .ok()?;
    let proc = k
        .syscall(CONTROL, SyscallArgs::NewProcess { cntr })
        .result
        .ok()?[0] as usize;
    let thread = k
        .syscall(
            CONTROL,
            SyscallArgs::NewThread {
                proc,
                cpu: FLOOD + i % 2,
            },
        )
        .result
        .ok()?[0] as usize;
    k.syscall(CONTROL, SyscallArgs::SchedSetWeight { cntr, weight })
        .result
        .ok()?;
    k.pm.install_descriptor(thread, 0, flood_endpoint).ok()?;
    Some(Tenant { cntr, rack })
}

impl TenantSched {
    fn clock(&self, cpu: usize) -> u64 {
        self.k.cycles(cpu) + self.idle[cpu]
    }

    fn tick(&mut self, ctx: &mut Ctx, cpu: usize) -> bool {
        ctx.tr.begin(Name::PmTimerTick, 0, self.k.cycles(cpu));
        let ran = self.k.pm.timer_tick(cpu).is_some();
        ctx.tr.end(self.k.cycles(cpu));
        ran
    }

    /// Nothing answered the trap: let the scheduler try again (a refill
    /// may have unparked someone), else halt-poll.
    fn idle_turn(&mut self, ctx: &mut Ctx, cpu: usize) {
        if !self.tick(ctx, cpu) {
            self.idle[cpu] += IDLE_CYCLES;
        }
    }

    /// One syscall whose error, if any, must be one of `allowed`.
    fn call(
        &mut self,
        ctx: &mut Ctx,
        cpu: usize,
        args: SyscallArgs,
        allowed: &[SyscallError],
    ) -> Result<[u64; 4], SyscallError> {
        let r = sys_flat(&mut self.k, &mut ctx.tr, cpu, args).result;
        if let Err(e) = r {
            ctx.expect(allowed.contains(&e));
            if e == WrongState {
                self.idle_turn(ctx, cpu);
            }
        }
        r
    }

    fn victim_turn(&mut self, ctx: &mut Ctx) {
        let t0 = self.k.cycles(VICTIM);
        for args in [
            SyscallArgs::Yield,
            SyscallArgs::Mmap {
                va_base: VICTIM_VA,
                len: 1,
                writable: true,
            },
            SyscallArgs::Munmap {
                va_base: VICTIM_VA,
                len: 1,
            },
        ] {
            // The victim is never refused anything.
            let _ = self.call(ctx, VICTIM, args, &[]);
        }
        ctx.lat.record(self.k.cycles(VICTIM) - t0);
    }

    fn flood_turn(&mut self, ctx: &mut Ctx, turn: u64) {
        let args = if turn.is_multiple_of(2) {
            SyscallArgs::Send {
                slot: 0,
                scalars: [turn, 0, 0, 0],
                grant_page_va: None,
                grant_endpoint_slot: None,
                grant_iommu_domain: None,
            }
        } else {
            SyscallArgs::Yield
        };
        let _ = self.call(ctx, FLOOD, args, &[Capacity, WrongState]);
    }

    fn burn_turn(&mut self, ctx: &mut Ctx, turn: u64) {
        let (args, allowed): (_, &[SyscallError]) = match turn % 4 {
            0 => (
                SyscallArgs::NewChildProcess,
                &[Quota, Capacity, NoMem, WrongState],
            ),
            1 | 2 => (
                SyscallArgs::Mmap {
                    va_base: BURN_VA + (turn % 512) as usize * PAGE,
                    len: 1,
                    writable: true,
                },
                &[Quota, Fault, NoMem, WrongState],
            ),
            _ => (SyscallArgs::Yield, &[WrongState]),
        };
        let _ = self.call(ctx, BURN, args, allowed);
    }

    fn control_turn(&mut self, ctx: &mut Ctx, turn: u64) {
        if turn % CHURN_EVERY == CHURN_EVERY - 1 {
            self.churn_due = true;
        }
        if self.churn_due {
            // Terminate one tenant mid-life and respawn it. When the init
            // thread is blocked draining the endpoint the trap finds no
            // thread; the churn stays due and is retried next turn.
            let i = self.next_churn % self.tenants.len();
            let cntr = self.tenants[i].cntr;
            let r = self.call(
                ctx,
                CONTROL,
                SyscallArgs::TerminateContainer { cntr },
                &[WrongState],
            );
            if r.is_ok() {
                self.churn_due = false;
                self.next_churn += 1;
                if self.throttled == Some(i) {
                    self.throttled = None;
                }
                let rack = self.tenants[i].rack;
                let weight = tenant_weight(i, self.weight_phase);
                match spawn_tenant(&mut self.k, rack, i, weight, self.flood_endpoint) {
                    Some(t) => self.tenants[i] = t,
                    None => ctx.failed += 1,
                }
            }
            return;
        }
        let args = match turn % 16 {
            // Admin throttle flips: park a tenant, release it 8 turns on.
            5 if self.throttled.is_none() => {
                let i = self.rng.below(self.tenants.len());
                self.throttled = Some(i);
                SyscallArgs::SchedThrottle {
                    cntr: self.tenants[i].cntr,
                    throttle: true,
                }
            }
            13 if self.throttled.is_some() => {
                let i = self.throttled.take().expect("checked");
                SyscallArgs::SchedThrottle {
                    cntr: self.tenants[i].cntr,
                    throttle: false,
                }
            }
            9 => {
                let i = self.rng.below(self.tenants.len());
                SyscallArgs::SchedSetWeight {
                    cntr: self.tenants[i].cntr,
                    weight: 1 + self.rng.below(4) as u32,
                }
            }
            t => match t % 3 {
                0 => SyscallArgs::Recv { slot: 0 },
                1 => SyscallArgs::TakeMsg,
                _ => SyscallArgs::Yield,
            },
        };
        // `WrongState`: an empty mailbox, or the init thread is blocked.
        let r = self.call(ctx, CONTROL, args.clone(), &[WrongState]);
        if r.is_err() {
            // A throttle flip that found no thread did not happen.
            match args {
                SyscallArgs::SchedThrottle { throttle: true, .. } => self.throttled = None,
                SyscallArgs::SchedThrottle {
                    cntr,
                    throttle: false,
                } => self.throttled = self.tenants.iter().position(|t| t.cntr == cntr),
                _ => {}
            }
        }
    }
}

impl Workload for TenantSched {
    const NAME: &'static str = "tenant-sched";
    const OPS_PER_SLICE_PER_SECOND: usize = 160;

    fn setup(seed: u64, ops_per_slice: usize) -> Self {
        let mut k = Kernel::boot(KernelConfig {
            mem_mib: 128,
            ncpus: NCPUS,
            root_quota: 32 * 1024,
        });
        // The racks: root's direct children. Rack 0 takes CPU 3 and hands
        // it on to the victim (strict partition).
        let racks: Vec<usize> = (0..RACKS)
            .map(|r| {
                k.syscall(
                    CONTROL,
                    SyscallArgs::NewContainer {
                        quota: 384,
                        cpus: if r == 0 { vec![VICTIM] } else { vec![] },
                    },
                )
                .val0() as usize
            })
            .collect();
        let v_cntr =
            k.pm.new_container(&mut k.mem.alloc, racks[0], 64, &[VICTIM])
                .expect("victim container");
        let v_proc = k
            .syscall(CONTROL, SyscallArgs::NewProcess { cntr: v_cntr })
            .val0() as usize;
        let v_thread = k
            .syscall(
                CONTROL,
                SyscallArgs::NewThread {
                    proc: v_proc,
                    cpu: VICTIM,
                },
            )
            .val0() as usize;
        let r = k.syscall(
            CONTROL,
            SyscallArgs::SchedSetWeight {
                cntr: v_cntr,
                weight: VICTIM_WEIGHT,
            },
        );
        assert!(r.is_ok(), "victim weight: {r:?}");
        assert_eq!(k.pm.timer_tick(VICTIM), Some(v_thread), "the victim runs");

        // The endpoint CPU 1's tenants flood; `NewEndpoint` installs it in
        // the init thread's slot 0, so the control plane drains it.
        let flood_endpoint = k
            .syscall(CONTROL, SyscallArgs::NewEndpoint { slot: 0 })
            .val0() as usize;
        let mut rng = Rng::new(seed, 0);
        let weight_phase = rng.below(4);
        let mut tenants = Vec::with_capacity(RACKS * RACK_SLOTS);
        for (ri, &rack) in racks.iter().enumerate() {
            // The victim took one of rack 0's slots.
            for _ in 0..RACK_SLOTS - usize::from(ri == 0) {
                let i = tenants.len();
                let weight = tenant_weight(i, weight_phase);
                tenants.push(
                    spawn_tenant(&mut k, rack, i, weight, flood_endpoint).expect("tenant spawns"),
                );
            }
        }
        for cpu in [FLOOD, BURN] {
            assert!(k.pm.timer_tick(cpu).is_some(), "a tenant runs on {cpu}");
        }
        // Set-up ran on CPU 0's meter; start every CPU at the same clock
        // so that the control plane takes turns from the first op on.
        let start = (0..NCPUS).map(|c| k.cycles(c)).max().unwrap_or(0);
        let idle: [u64; NCPUS] = std::array::from_fn(|c| start - k.cycles(c));
        let next_tick = [start + TICK_CYCLES; NCPUS];
        // The seed picks where the churn starts and who weighs what.
        let next_churn = rng.below(tenants.len());
        TenantSched {
            k,
            tenants,
            flood_endpoint,
            turns: [0; NCPUS],
            idle,
            next_tick,
            next_churn,
            churn_due: false,
            weight_phase,
            throttled: None,
            rng,
            ops_per_slice,
        }
    }

    fn run_slice(&mut self, ctx: &mut Ctx) {
        let mut clocks: [u64; NCPUS] = std::array::from_fn(|c| self.clock(c));
        let mut done = 0;
        while done < self.ops_per_slice {
            let cpu = super::earliest(&clocks);
            ctx.tr.begin_op(clocks[cpu]);
            if clocks[cpu] >= self.next_tick[cpu] {
                self.tick(ctx, cpu);
                self.next_tick[cpu] = clocks[cpu] - clocks[cpu] % TICK_CYCLES + TICK_CYCLES;
            }
            self.turns[cpu] += 1;
            let turn = self.turns[cpu];
            match cpu {
                VICTIM => {
                    self.victim_turn(ctx);
                    done += 1;
                }
                CONTROL => self.control_turn(ctx, turn),
                FLOOD => self.flood_turn(ctx, turn),
                _ => self.burn_turn(ctx, turn),
            }
            clocks[cpu] = self.clock(cpu);
            ctx.tr.end_op(clocks[cpu], u64::from(cpu == VICTIM));
        }
    }

    fn clocks(&self) -> Vec<u64> {
        (0..NCPUS).map(|c| self.clock(c)).collect()
    }

    fn counts(&self) -> Counts {
        Counts::of_snapshot(&self.k.trace_snapshot()).with_obligations()
    }

    fn extras(&mut self, probe: bool) -> Extras {
        let mut x = Extras::default();
        if probe {
            x.snapshot_us = crate::probe::probe_snapshot_us(|| self.k.trace_snapshot());
            x.view_wf_us = crate::probe::probe_view_wf(&self.k);
        }
        x
    }

    fn finish(&mut self, _ctx: &mut Ctx, d: &Counts, gates: &mut Gates) {
        gates.check(
            "sched.fleet_was_metered",
            d.sched_throttles > 0 && d.sched_refills > 0 && d.sched_parks > 0,
            || {
                format!(
                    "throttles {} refills {} parks {}",
                    d.sched_throttles, d.sched_refills, d.sched_parks
                )
            },
        );
        gates.check(
            "sched.fleet_size",
            self.tenants.len() + 1 == RACKS * RACK_SLOTS,
            || format!("{} tenants", self.tenants.len()),
        );
        // Includes the budget-conservation ledger (sched_wf) and trace_wf.
        gates.verif("kernel_wf", self.k.wf());
    }
}
