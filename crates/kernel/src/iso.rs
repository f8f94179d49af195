//! Isolation invariants: `memory_iso`, `endpoint_iso`, and the flat
//! construction of container-group domains (§4.3).
//!
//! The non-interference proof quantifies over the sets `C_X` (all
//! containers recursively created from X), `P_X` (their processes) and
//! `T_X` (their threads). Thanks to flat permission storage and the ghost
//! `subtree` field, each is a direct union — no recursive tree walk.

use atmo_pm::types::{CtnrPtr, ProcPtr, ThrdPtr};
use atmo_spec::Set;

use crate::abs::AbstractKernel;

/// The domain of one container group: `C_X`, `P_X`, `T_X`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DomainSets {
    /// The group's root container.
    pub root: CtnrPtr,
    /// All containers of the group (root + subtree).
    pub containers: Set<CtnrPtr>,
    /// All processes of those containers.
    pub processes: Set<ProcPtr>,
    /// All threads of those containers.
    pub threads: Set<ThrdPtr>,
}

/// Builds the domain sets of the container group rooted at `root`,
/// directly from the flat state (the `T_A_wf` construction of §4.3).
pub fn domain_sets(psi: &AbstractKernel, root: CtnrPtr) -> DomainSets {
    let mut containers = Set::from_slice(&[root]);
    if let Some(c) = psi.get_container(root) {
        containers.union_mut(c.subtree.view());
    }
    let mut processes = Set::empty();
    let mut threads = Set::empty();
    for c_ptr in containers.iter() {
        if let Some(c) = psi.get_container(*c_ptr) {
            processes.union_mut(c.owned_procs.view());
            threads.union_mut(c.owned_thrds.view());
        }
    }
    DomainSets {
        root,
        containers,
        processes,
        threads,
    }
}

/// The paper's bidirectional `T_A_wf` invariant: `threads` contains all
/// and only the threads of the group's containers.
pub fn t_x_wf(psi: &AbstractKernel, root: CtnrPtr, threads: &Set<ThrdPtr>) -> bool {
    let group = domain_sets(psi, root);
    // Direction 1: every thread owned by a group container is in the set.
    for (t_ptr, t) in psi.pm.threads.iter() {
        if group.containers.contains(&t.owning_cntr) && !threads.contains(t_ptr) {
            return false;
        }
    }
    // Direction 2: every thread in the set belongs to a group container.
    for t_ptr in threads.iter() {
        match psi.get_thread(*t_ptr) {
            Some(t) if group.containers.contains(&t.owning_cntr) => {}
            _ => return false,
        }
    }
    true
}

/// `memory_iso` (§4.3): no physical frame is mapped by both an address
/// space of `p_a` and an address space of `p_b`.
pub fn memory_iso(psi: &AbstractKernel, p_a: &Set<ProcPtr>, p_b: &Set<ProcPtr>) -> bool {
    let frames = |procs: &Set<ProcPtr>| -> Set<usize> {
        let mut s = Set::empty();
        for p in procs.iter() {
            for (_va, (e, _sz)) in psi.get_address_space(*p).iter() {
                s.insert_mut(e.frame);
            }
        }
        s
    };
    frames(p_a).disjoint(&frames(p_b))
}

/// `endpoint_iso` (§4.3): no endpoint is reachable from a descriptor of
/// both a thread in `t_a` and a thread in `t_b`.
pub fn endpoint_iso(psi: &AbstractKernel, t_a: &Set<ThrdPtr>, t_b: &Set<ThrdPtr>) -> bool {
    let edpts = |threads: &Set<ThrdPtr>| -> Set<usize> {
        let mut s = Set::empty();
        for t in threads.iter() {
            for d in psi.get_thrd_edpt_descriptors(*t).into_iter().flatten() {
                s.insert_mut(d);
            }
        }
        s
    };
    edpts(t_a).disjoint(&edpts(t_b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Kernel, KernelConfig};
    use crate::syscall::SyscallArgs;

    /// Boots a kernel and creates two sibling containers, each with a
    /// process and a thread.
    fn two_domains() -> (Kernel, CtnrPtr, CtnrPtr) {
        let mut k = Kernel::boot(KernelConfig {
            mem_mib: 64,
            ncpus: 4,
            root_quota: 1024,
        });
        let a = k
            .syscall(
                0,
                SyscallArgs::NewContainer {
                    quota: 128,
                    cpus: vec![1],
                },
            )
            .val0() as usize;
        let b = k
            .syscall(
                0,
                SyscallArgs::NewContainer {
                    quota: 128,
                    cpus: vec![2],
                },
            )
            .val0() as usize;
        for (c, cpu) in [(a, 1), (b, 2)] {
            let p = k.syscall(0, SyscallArgs::NewProcess { cntr: c }).val0() as usize;
            let _ = k.syscall(0, SyscallArgs::NewThread { proc: p, cpu });
        }
        (k, a, b)
    }

    #[test]
    fn domain_sets_are_complete_and_disjoint() {
        let (k, a, b) = two_domains();
        let psi = k.view();
        let da = domain_sets(&psi, a);
        let db = domain_sets(&psi, b);
        assert_eq!(da.processes.len(), 1);
        assert_eq!(da.threads.len(), 1);
        assert!(da.containers.disjoint(&db.containers));
        assert!(da.threads.disjoint(&db.threads));
        assert!(t_x_wf(&psi, a, &da.threads));
        assert!(!t_x_wf(&psi, a, &db.threads), "wrong set rejected");
    }

    #[test]
    fn fresh_domains_satisfy_both_isolation_invariants() {
        let (k, a, b) = two_domains();
        let psi = k.view();
        let da = domain_sets(&psi, a);
        let db = domain_sets(&psi, b);
        assert!(memory_iso(&psi, &da.processes, &db.processes));
        assert!(endpoint_iso(&psi, &da.threads, &db.threads));
    }

    #[test]
    fn mmap_in_both_domains_preserves_memory_iso() {
        let (mut k, a, b) = two_domains();
        // Run each domain's thread and have it map pages.
        for cpu in [1, 2] {
            // Dispatch the ready thread on that CPU.
            k.pm.timer_tick(cpu);
            let ret = k.syscall(
                cpu,
                SyscallArgs::Mmap {
                    va_base: 0x40_0000,
                    len: 8,
                    writable: true,
                },
            );
            assert!(ret.is_ok(), "{ret:?}");
        }
        let psi = k.view();
        let da = domain_sets(&psi, a);
        let db = domain_sets(&psi, b);
        assert!(memory_iso(&psi, &da.processes, &db.processes));
    }

    #[test]
    fn t_x_wf_is_bidirectional() {
        let (k, a, _b) = two_domains();
        let psi = k.view();
        let da = domain_sets(&psi, a);
        // Remove one thread: direction 1 fails.
        if let Some(t) = da.threads.choose() {
            assert!(!t_x_wf(&psi, a, &da.threads.remove(t)));
        }
        // Add a foreign pointer: direction 2 fails.
        assert!(!t_x_wf(&psi, a, &da.threads.insert(0xdead)));
    }
}
