//! Non-interference: observable state, unwinding conditions, and the
//! A/B/V scenario (§4.3).
//!
//! The paper proves non-interference between two untrusted containers A
//! and B that may each communicate with a verified shared container V,
//! via the unwinding conditions of Nelson et al.:
//!
//! * **Output consistency (OC)** — system calls are deterministic
//!   functions of the pre-state and arguments; two identical kernels
//!   running identical traces produce identical outputs and states.
//! * **Step consistency (SC)** — the observable state of container group
//!   B is unchanged across *any* system call (with arbitrary arguments)
//!   issued by a thread of group A, and vice versa.
//! * **Local respect (LR)** — with only A and B isolated, LR coincides
//!   with SC (paper §4.3).
//!
//! [`run_noninterference_trial`] is the executable theorem: it boots the
//! three-container configuration, fires long sequences of *arbitrary*
//! system calls (including garbage pointers and denied operations) from A
//! and B, and checks after every step that `total_wf` holds, that
//! `memory_iso` / `endpoint_iso` are preserved, and that the other
//! domain's observable state is byte-identical.

use atmo_pm::types::{CtnrPtr, EdptPtr, ProcPtr, ThrdPtr};
use atmo_spec::harness::{check, Invariant, VerifResult};
use atmo_spec::{Map, XorShift64Star};
use atmo_trace::SyscallKind;

use crate::abs::{AbsSpace, AbstractKernel};
use crate::iso::{domain_sets, endpoint_iso, memory_iso};
use crate::kernel::{Kernel, KernelConfig};
use crate::syscall::{Pools, SyscallArgs};

/// Handles of the three-container configuration of Figure 1.
#[derive(Clone, Copy, Debug)]
pub struct AbvScenario {
    /// Untrusted container A and its process/thread.
    pub a: CtnrPtr,
    /// A's single process.
    pub pa: ProcPtr,
    /// A's single thread (runs on CPU 1).
    pub ta: ThrdPtr,
    /// Untrusted container B.
    pub b: CtnrPtr,
    /// B's single process.
    pub pb: ProcPtr,
    /// B's single thread (runs on CPU 2).
    pub tb: ThrdPtr,
    /// The verified shared container V.
    pub v: CtnrPtr,
    /// V's single process.
    pub pv: ProcPtr,
    /// V's single thread (runs on CPU 3).
    pub tv: ThrdPtr,
    /// Endpoint shared between V and A (V slot 0, A slot 0).
    pub ea: EdptPtr,
    /// Endpoint shared between V and B (V slot 1, B slot 0).
    pub eb: EdptPtr,
    /// A's CPU.
    pub cpu_a: usize,
    /// B's CPU.
    pub cpu_b: usize,
    /// V's CPU.
    pub cpu_v: usize,
}

/// Boots a kernel configured as in Figure 1: isolated containers A and B,
/// the verified service container V, and communication endpoints A↔V and
/// B↔V distributed by init (the trusted system composition step).
pub fn setup_abv() -> (Kernel, AbvScenario) {
    let mut k = Kernel::boot(KernelConfig {
        mem_mib: 64,
        ncpus: 4,
        root_quota: 2048,
    });

    let mk = |k: &mut Kernel, quota: usize, cpu: usize| -> (CtnrPtr, ProcPtr, ThrdPtr) {
        let c = k
            .syscall(
                0,
                SyscallArgs::NewContainer {
                    quota,
                    cpus: vec![cpu],
                },
            )
            .val0() as usize;
        let p = k.syscall(0, SyscallArgs::NewProcess { cntr: c }).val0() as usize;
        let t = k.syscall(0, SyscallArgs::NewThread { proc: p, cpu }).val0() as usize;
        // Dispatch the thread so it is running on its CPU.
        k.pm.timer_tick(cpu);
        (c, p, t)
    };

    let (a, pa, ta) = mk(&mut k, 256, 1);
    let (b, pb, tb) = mk(&mut k, 256, 2);
    let (v, pv, tv) = mk(&mut k, 256, 3);

    // V creates its two service endpoints (slots 0 and 1) while running.
    let ea = k.syscall(3, SyscallArgs::NewEndpoint { slot: 0 }).val0() as usize;
    let eb = k.syscall(3, SyscallArgs::NewEndpoint { slot: 1 }).val0() as usize;
    // Init distributes the capabilities: A gets ea, B gets eb.
    k.pm.install_descriptor(ta, 0, ea).unwrap();
    k.pm.install_descriptor(tb, 0, eb).unwrap();

    (
        k,
        AbvScenario {
            a,
            pa,
            ta,
            b,
            pb,
            tb,
            v,
            pv,
            tv,
            ea,
            eb,
            cpu_a: 1,
            cpu_b: 2,
            cpu_v: 3,
        },
    )
}

/// The observable state of one container group: everything a program in
/// the group could learn through the system-call interface about its own
/// objects — containers, processes, threads, the endpoints it can name,
/// and its address spaces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsState {
    containers: Map<usize, atmo_pm::Container>,
    processes: Map<usize, atmo_pm::Process>,
    threads: Map<usize, atmo_pm::Thread>,
    endpoints: Map<usize, atmo_pm::Endpoint>,
    spaces: Map<usize, AbsSpace>,
}

/// Projects the observable state of the group rooted at `root`.
pub fn observable_state(psi: &AbstractKernel, root: CtnrPtr) -> ObsState {
    let dom = domain_sets(psi, root);
    let containers = psi.pm.containers.restrict(|c| dom.containers.contains(c));
    let processes = psi.pm.processes.restrict(|p| dom.processes.contains(p));
    let threads = psi.pm.threads.restrict(|t| dom.threads.contains(t));
    // Endpoints the group can name: referenced by a descriptor of one of
    // its threads, or charged to one of its containers.
    let mut reachable = atmo_spec::Set::empty();
    for t in dom.threads.iter() {
        for d in psi.get_thrd_edpt_descriptors(*t).into_iter().flatten() {
            reachable.insert_mut(d);
        }
    }
    let endpoints = psi.pm.endpoints.restrict(|e| {
        reachable.contains(e) || {
            psi.get_endpoint(*e)
                .map(|ep| dom.containers.contains(&ep.owning_cntr))
                .unwrap_or(false)
        }
    });
    let mut spaces = Map::empty();
    for p in dom.processes.iter() {
        if let Some(proc) = psi.get_process(*p) {
            if let Some(space) = psi.spaces.index(&proc.addr_space) {
                spaces.insert_mut(proc.addr_space, space.clone());
            }
        }
    }
    ObsState {
        containers,
        processes,
        threads,
        endpoints,
        spaces,
    }
}

/// Generates an arbitrary system call with arbitrary (often invalid)
/// arguments, as the non-interference theorem requires ("arbitrary system
/// calls with arbitrary system call arguments", §4.3): every call, with
/// pointers to the scenario's own and foreign objects among the
/// adversarial values.
pub fn arbitrary_syscall(rng: &mut XorShift64Star, sc: &AbvScenario) -> SyscallArgs {
    let pools = Pools {
        va: 0x40_0000..0x44_0000,
        objects: vec![sc.a, sc.b, sc.v, sc.pa, sc.pb, sc.ta, sc.tb, sc.ea, sc.eb],
        ncpus: 4,
    };
    // Exit rarely: a domain whose thread exited sits out the trial.
    let kind = match *rng.choose(&SyscallKind::ALL) {
        SyscallKind::Exit if rng.chance(3, 4) => SyscallKind::Yield,
        kind => kind,
    };
    SyscallArgs::sample(kind, rng, &pools)
}

/// Runs one non-interference trial: `steps` arbitrary syscalls fired
/// alternately (pseudo-randomly) from A's and B's threads. After each
/// step checks `total_wf`, preservation of both isolation invariants, and
/// step consistency for the *other* domain.
pub fn run_noninterference_trial(steps: usize, seed: u64) -> VerifResult {
    let (mut k, sc) = setup_abv();
    let mut rng = XorShift64Star::new(seed);

    let psi0 = k.view();
    let da0 = domain_sets(&psi0, sc.a);
    let db0 = domain_sets(&psi0, sc.b);
    check(
        memory_iso(&psi0, &da0.processes, &db0.processes),
        "noninterference",
        "initial memory_iso violated",
    )?;
    check(
        endpoint_iso(&psi0, &da0.threads, &db0.threads),
        "noninterference",
        "initial endpoint_iso violated",
    )?;

    for step in 0..steps {
        let from_a = rng.below(2) == 0;
        let (cpu, other_root) = if from_a {
            (sc.cpu_a, sc.b)
        } else {
            (sc.cpu_b, sc.a)
        };
        // The acting domain must have a running thread; if its only thread
        // blocked, unblock the CPU via a tick (idle CPUs skip the step).
        if k.pm.sched.current(cpu).is_none() && k.pm.timer_tick(cpu).is_none() {
            continue;
        }

        let pre = k.view();
        let obs_other_pre = observable_state(&pre, other_root);
        let args = arbitrary_syscall(&mut rng, &sc);
        let _ret = k.syscall(cpu, args.clone());

        k.wf()?;
        let post = k.view();

        // Step consistency: the other domain's observable state is
        // untouched by this arbitrary syscall.
        let obs_other_post = observable_state(&post, other_root);
        check(
            obs_other_pre == obs_other_post,
            "noninterference",
            format_args!(
                "step {step}: `{args:?}` from {} changed the other domain",
                if from_a { "A" } else { "B" }
            ),
        )?;

        // Isolation invariants are preserved.
        let da = domain_sets(&post, sc.a);
        let db = domain_sets(&post, sc.b);
        check(
            memory_iso(&post, &da.processes, &db.processes),
            "noninterference",
            format_args!("step {step}: memory_iso violated after `{args:?}`"),
        )?;
        check(
            endpoint_iso(&post, &da.threads, &db.threads),
            "noninterference",
            format_args!("step {step}: endpoint_iso violated after `{args:?}`"),
        )?;
    }
    Ok(())
}

/// Output consistency: replaying an identical trace on two identically
/// booted kernels yields identical return values and final states.
pub fn check_output_consistency(steps: usize, seed: u64) -> VerifResult {
    let run = |steps: usize, seed: u64| {
        let (mut k, sc) = setup_abv();
        let mut rng = XorShift64Star::new(seed);
        let mut rets = Vec::new();
        for _ in 0..steps {
            let from_a = rng.below(2) == 0;
            let cpu = if from_a { sc.cpu_a } else { sc.cpu_b };
            if k.pm.sched.current(cpu).is_none() && k.pm.timer_tick(cpu).is_none() {
                continue;
            }
            let args = arbitrary_syscall(&mut rng, &sc);
            rets.push(k.syscall(cpu, args));
        }
        (k.view(), rets)
    };
    let (v1, r1) = run(steps, seed);
    let (v2, r2) = run(steps, seed);
    check(
        r1 == r2,
        "noninterference",
        "output consistency: returns differ",
    )?;
    check(
        v1 == v2,
        "noninterference",
        "output consistency: states differ",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmo_spec::harness::Invariant;

    #[test]
    fn abv_setup_is_wf_and_isolated() {
        let (k, sc) = setup_abv();
        assert!(k.wf().is_ok(), "{:?}", k.wf());
        let psi = k.view();
        let da = domain_sets(&psi, sc.a);
        let db = domain_sets(&psi, sc.b);
        let dv = domain_sets(&psi, sc.v);
        assert!(memory_iso(&psi, &da.processes, &db.processes));
        assert!(endpoint_iso(&psi, &da.threads, &db.threads));
        // A and V deliberately share ea — they are NOT endpoint-isolated.
        assert!(!endpoint_iso(&psi, &da.threads, &dv.threads));
    }

    #[test]
    fn short_noninterference_trial_passes() {
        run_noninterference_trial(60, 0xabcd).unwrap();
    }

    #[test]
    fn output_consistency_short() {
        check_output_consistency(40, 7).unwrap();
    }

    #[test]
    fn observable_state_sees_own_objects_only() {
        let (k, sc) = setup_abv();
        let psi = k.view();
        let obs_a = observable_state(&psi, sc.a);
        assert!(obs_a.containers.contains_key(&sc.a));
        assert!(!obs_a.containers.contains_key(&sc.b));
        assert!(obs_a.threads.contains_key(&sc.ta));
        assert!(!obs_a.threads.contains_key(&sc.tb));
        // A can name ea (shared with V) but not eb.
        assert!(obs_a.endpoints.contains_key(&sc.ea));
        assert!(!obs_a.endpoints.contains_key(&sc.eb));
    }
}
