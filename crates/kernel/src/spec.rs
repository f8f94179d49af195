//! Per-syscall transition specifications (Listing 1 of the paper).
//!
//! Every row of the syscall listing names its spec: a function of the
//! audited [`Step`] (Ψ, Ψ', the calling thread and the return) and the
//! call's arguments that captures how a *successful* call changes the
//! abstract kernel state — what must change, what must *not* change (the
//! frame conditions), and how the return value relates to the states.
//! The refinement harness ([`crate::refine`]) asserts it after every
//! audited system call; a failed call must satisfy
//! [`syscall_noop_spec`] — error paths change nothing.

use atmo_hw::addr::VaRange4K;
use atmo_hw::VAddr;

use crate::abs::{
    containers_unchanged_except, endpoints_unchanged_except, normalize_space_4k,
    processes_unchanged_except, space_covering, spaces_unchanged_except, threads_unchanged,
    threads_unchanged_except, AbsSpace, AbstractKernel,
};
use crate::refine::fastpath_refines_rendezvous;
use crate::syscall::SyscallReturn;

/// One audited transition: Ψ before and after the call, the calling
/// thread, and the call's return.
#[derive(Clone, Copy, Debug)]
pub struct Step<'a> {
    /// Ψ before the call.
    pub pre: &'a AbstractKernel,
    /// Ψ after the call.
    pub post: &'a AbstractKernel,
    /// The thread that made the call.
    pub t: usize,
    /// What the call returned.
    pub ret: &'a SyscallReturn,
}

/// Failed syscalls, pure reads, and calls whose effects Ψ does not
/// project leave Ψ untouched.
pub fn syscall_noop_spec(pre: &AbstractKernel, post: &AbstractKernel) -> bool {
    pre == post
}

/// Success held to `total_wf` alone: error paths change nothing (the
/// rule every call obeys), and the calls naming this spec have no
/// functional success spec yet.
pub fn noop_on_error(_s: Step<'_>) -> bool {
    true
}

/// `vm_resolve`'s answer for `va` in `space`: `[1, writable, 0, 0]`
/// when a leaf of any size covers it, `[0; 4]` otherwise. The locked
/// call, the replicated read and the spec all answer through it.
pub fn vm_resolve_answer(space: &AbsSpace, va: usize) -> [u64; 4] {
    space_covering(space, va).map_or([0; 4], |(_, e, _)| [1, e.flags.writable as u64, 0, 0])
}

/// `vm_resolve`: Ψ is unchanged, and the call returns the answer for
/// `va` in the caller's space in Ψ.
pub fn vm_resolve(s: Step<'_>, va: usize) -> bool {
    let Some(thread) = s.pre.get_thread(s.t) else {
        return false;
    };
    let space = s.pre.get_address_space(thread.owning_proc);
    syscall_noop_spec(s.pre, s.post) && s.ret.result == Ok(vm_resolve_answer(&space, va))
}

/// `mmap`: Listing 1's `syscall_mmap_spec` (lines 5–27).
pub fn mmap(s: Step<'_>, va_base: usize, len: usize) -> bool {
    let Step { pre, post, t, .. } = s;
    let Some(va_range) = VaRange4K::new(VAddr(va_base), len) else {
        return false;
    };
    let Some(thread) = pre.get_thread(t) else {
        return false;
    };
    let proc_ptr = thread.owning_proc;
    let cntr = thread.owning_cntr;
    let as_id = match pre.get_process(proc_ptr) {
        Some(p) => p.addr_space,
        None => return false,
    };

    // The state of each thread is unchanged (lines 7–11).
    if !threads_unchanged(pre, post) {
        return false;
    }
    // Processes and endpoints unchanged; containers unchanged except the
    // caller's (its quota charge grew by len).
    if !processes_unchanged_except(pre, post, &[])
        || !endpoints_unchanged_except(pre, post, &[])
        || !containers_unchanged_except(pre, post, &[cntr])
    {
        return false;
    }
    let (pre_c, post_c) = match (pre.get_container(cntr), post.get_container(cntr)) {
        (Some(a), Some(b)) => (a, b),
        _ => return false,
    };
    if post_c.used != pre_c.used + va_range.len {
        return false;
    }

    // Other address spaces are unchanged.
    if !spaces_unchanged_except(pre, post, &[as_id]) {
        return false;
    }
    let pre_space = pre.get_address_space(proc_ptr);
    let post_space = post.get_address_space(proc_ptr);

    // Virtual addresses outside va_range are not changed (lines 13–18).
    let outside_ok = pre_space
        .iter()
        .all(|(va, e)| va_range.contains(VAddr(*va)) || post_space.index(va) == Some(e))
        && post_space
            .iter()
            .all(|(va, e)| va_range.contains(VAddr(*va)) || pre_space.index(va) == Some(e));
    if !outside_ok {
        return false;
    }

    // Each virtual address in va_range maps a page that was free before
    // (lines 19–22) and pages are pairwise distinct (lines 23–26). The
    // clauses are stated over the *covering* entry so the batched,
    // promoted and per-page executions all satisfy the same transition: a
    // `Size4K` entry covers exactly its va, while a promoted `Size2M`
    // entry covers 512 of them with per-va frame `head + offset` (the
    // promotion path assembles its run from the 4 KiB freelist, so each
    // constituent frame individually satisfies `page_is_free`).
    let mut seen = std::collections::BTreeSet::new();
    let range_start = va_range.base.as_usize();
    let range_end = range_start + va_range.len * 0x1000;
    for va in va_range.iter() {
        let Some((base, entry, size)) = space_covering(&post_space, va.as_usize()) else {
            return false;
        };
        // A covering superpage must lie entirely inside the requested
        // range — promotion never maps beyond what was asked for.
        if base < range_start || base + size.bytes() > range_end {
            return false;
        }
        let frame = entry.frame + (va.as_usize() - base);
        if !pre.page_is_free(frame) {
            return false;
        }
        if !seen.insert(frame) {
            return false;
        }
        // The range was previously unmapped (at any page size).
        if space_covering(&pre_space, va.as_usize()).is_some() {
            return false;
        }
        // And the allocator now records the covering block as mapped,
        // with none of its frames free.
        if post.free_4k.contains(&frame) || !post.mapped.contains(&entry.frame) {
            return false;
        }
    }
    true
}

/// `munmap`: the range disappears from the caller's space, frames return
/// toward the allocator, quota is released, everything else unchanged.
pub fn munmap(s: Step<'_>, va_base: usize, len: usize) -> bool {
    let Step { pre, post, t, .. } = s;
    let Some(va_range) = VaRange4K::new(VAddr(va_base), len) else {
        return false;
    };
    let Some(thread) = pre.get_thread(t) else {
        return false;
    };
    let proc_ptr = thread.owning_proc;
    let cntr = thread.owning_cntr;
    let as_id = match pre.get_process(proc_ptr) {
        Some(p) => p.addr_space,
        None => return false,
    };

    if !threads_unchanged(pre, post)
        || !processes_unchanged_except(pre, post, &[])
        || !endpoints_unchanged_except(pre, post, &[])
        || !containers_unchanged_except(pre, post, &[cntr])
        || !spaces_unchanged_except(pre, post, &[as_id])
    {
        return false;
    }
    let (pre_c, post_c) = match (pre.get_container(cntr), post.get_container(cntr)) {
        (Some(a), Some(b)) => (a, b),
        _ => return false,
    };
    if pre_c.used != post_c.used + va_range.len {
        return false;
    }
    let pre_space = pre.get_address_space(proc_ptr);
    let post_space = post.get_address_space(proc_ptr);
    // Every page of the range was mapped (at any size) and is gone, and
    // outside the range the per-4K coverage is unchanged. The comparison
    // runs over the normalized (per-4K expanded) views so that demoting a
    // promoted superpage to unmap part of it — a pure representation
    // change for the surviving pages — satisfies the same transition as
    // the per-page path.
    let pre_n = normalize_space_4k(&pre_space);
    let post_n = normalize_space_4k(&post_space);
    for va in va_range.iter() {
        if !pre_n.contains_key(&va.as_usize()) || post_n.contains_key(&va.as_usize()) {
            return false;
        }
    }
    pre_n
        .iter()
        .all(|(va, e)| va_range.contains(VAddr(*va)) || post_n.index(va) == Some(e))
        && post_n
            .iter()
            .all(|(va, e)| va_range.contains(VAddr(*va)) || pre_n.index(va) == Some(e))
}

/// `new_container` (Listing 3's `new_container_ensures`, adapted to the
/// syscall boundary): a fresh container appears under the caller's
/// container, the parent's charge grows by `quota + 1`, the parent's CPU
/// set shrinks by the passed cores, ancestors' subtrees grow by exactly
/// the child, and nothing else changes. Precondition: no thread of the
/// parent's subtree is homed on a passed core.
pub fn new_container(s: Step<'_>, quota: usize, cpus: &[usize]) -> bool {
    let Step { pre, post, t, ret } = s;
    let Ok(vals) = ret.result else {
        return false;
    };
    let child = vals[0] as usize;
    let Some(thread) = pre.get_thread(t) else {
        return false;
    };
    let parent = thread.owning_cntr;
    let in_subtree = |c: &usize| {
        *c == parent
            || pre
                .get_container(*c)
                .is_some_and(|cntr| cntr.path.contains(&parent))
    };
    let busy = pre
        .pm
        .threads
        .values()
        .any(|th| in_subtree(&th.owning_cntr) && cpus.contains(&th.home_cpu));
    if busy {
        return false;
    }

    if pre.get_container(child).is_some() {
        return false; // the pointer must be fresh
    }
    let Some(child_c) = post.get_container(child) else {
        return false;
    };
    let (Some(pre_p), Some(post_p)) = (pre.get_container(parent), post.get_container(parent))
    else {
        return false;
    };

    // Child shape.
    if child_c.parent != Some(parent)
        || child_c.quota != quota
        || child_c.used != 0
        || child_c.depth != pre_p.depth + 1
        || !child_c.subtree.is_empty()
        || *child_c.path.view() != pre_p.path.push(parent)
    {
        return false;
    }
    for cpu in cpus {
        if !child_c.owned_cpus.contains(cpu) || post_p.owned_cpus.contains(cpu) {
            return false;
        }
    }
    // Parent bookkeeping.
    if post_p.used != pre_p.used + quota + 1 || !post_p.children.contains(&child) {
        return false;
    }

    // Ancestors' subtrees grew by exactly the child; all other containers
    // unchanged (Listing 3 lines 14–21).
    let ancestors: Vec<usize> = {
        let mut v = pre_p.path.to_vec();
        v.push(parent);
        v
    };
    for (c_ptr, pre_c) in pre.pm.containers.iter() {
        let Some(post_c) = post.get_container(*c_ptr) else {
            return false;
        };
        if ancestors.contains(c_ptr) {
            if *post_c.subtree.view() != pre_c.subtree.insert(child) {
                return false;
            }
        } else if *c_ptr != parent && post_c != pre_c {
            return false;
        }
    }

    // The child's object page came from the free set.
    if !pre.free_4k.contains(&child) || post.free_4k.contains(&child) {
        return false;
    }

    threads_unchanged(pre, post)
        && processes_unchanged_except(pre, post, &[])
        && endpoints_unchanged_except(pre, post, &[])
        && spaces_unchanged_except(pre, post, &[])
}

/// `new_endpoint`: a fresh endpoint appears, installed in the caller's
/// descriptor table, charged to the caller's container; nothing else
/// changes (Listing 4's postcondition shape).
pub fn new_endpoint(s: Step<'_>, slot: usize) -> bool {
    let Step { pre, post, t, ret } = s;
    let Ok(vals) = ret.result else {
        return false;
    };
    let e_ptr = vals[0] as usize;
    let Some(thread) = pre.get_thread(t) else {
        return false;
    };
    let cntr = thread.owning_cntr;

    if pre.get_endpoint(e_ptr).is_some() {
        return false;
    }
    let Some(e) = post.get_endpoint(e_ptr) else {
        return false;
    };
    if e.refcount != 1 || e.owning_cntr != cntr || !e.queue.is_empty() {
        return false;
    }
    // The page was free (Listing 4: "newly allocated page was previously
    // not allocated").
    if !pre.page_is_free(e_ptr) || post.free_4k.contains(&e_ptr) {
        return false;
    }
    // The caller's descriptor table gained exactly this endpoint.
    let (Some(pre_t), Some(post_t)) = (pre.get_thread(t), post.get_thread(t)) else {
        return false;
    };
    if post_t.edpt_descriptors[slot] != Some(e_ptr) || pre_t.edpt_descriptors[slot].is_some() {
        return false;
    }
    // Container charge grew by one.
    match (pre.get_container(cntr), post.get_container(cntr)) {
        (Some(a), Some(b)) if b.used == a.used + 1 => {}
        _ => return false,
    }
    threads_unchanged_except(pre, post, &[t])
        && containers_unchanged_except(pre, post, &[cntr])
        && processes_unchanged_except(pre, post, &[])
        && endpoints_unchanged_except(pre, post, &[e_ptr])
        && spaces_unchanged_except(pre, post, &[])
}

/// `yield` / timer tick: only thread scheduling states change; the set of
/// threads, all memory and all other objects are untouched.
pub fn reschedule(s: Step<'_>) -> bool {
    let Step { pre, post, .. } = s;
    if pre.thread_dom() != post.thread_dom() {
        return false;
    }
    // Threads may differ only in their `state` field.
    for (t, pre_t) in pre.pm.threads.iter() {
        let Some(post_t) = post.get_thread(*t) else {
            return false;
        };
        let mut normalized = post_t.clone();
        normalized.state = pre_t.state;
        if &normalized != pre_t {
            return false;
        }
    }
    pre.pm.containers == post.pm.containers
        && pre.pm.processes == post.pm.processes
        && pre.pm.endpoints == post.pm.endpoints
        && pre.spaces == post.spaces
        && pre.free_4k == post.free_4k
        && pre.allocated == post.allocated
        && pre.mapped == post.mapped
}

/// `terminate_container`: the target and its whole subtree vanish; their
/// pages return to the free set; the parent recovers the reservation and
/// CPUs; containers outside the dead set (other than ancestors, whose
/// subtrees shrink) are unchanged.
pub fn terminate_container(s: Step<'_>, cntr: usize) -> bool {
    let Step { pre, post, .. } = s;
    let Some(pre_c) = pre.get_container(cntr) else {
        return false;
    };
    let Some(parent) = pre_c.parent else {
        return false;
    };
    let mut dead: Vec<usize> = pre_c.subtree.to_vec();
    dead.push(cntr);

    // Dead containers (and their processes/threads) are gone.
    for d in &dead {
        if post.get_container(*d).is_some() {
            return false;
        }
    }
    for (p_ptr, p) in pre.pm.processes.iter() {
        if dead.contains(&p.owning_container) && post.get_process(*p_ptr).is_some() {
            return false;
        }
    }
    for (t_ptr, t) in pre.pm.threads.iter() {
        if dead.contains(&t.owning_cntr) && post.get_thread(*t_ptr).is_some() {
            return false;
        }
    }
    // Parent recovered the reservation.
    let (Some(pre_p), Some(post_p)) = (pre.get_container(parent), post.get_container(parent))
    else {
        return false;
    };
    if pre_p.used < pre_c.quota + 1 {
        return false;
    }
    // (Endpoint-charge transfers may add to the parent; allow ≥.)
    if post_p.used + pre_c.quota + 1 < pre_p.used {
        return false;
    }
    if post_p.children.contains(&cntr) {
        return false;
    }
    // Ancestors' subtrees shrank by the dead set; unrelated containers
    // unchanged except quota-neutral fields.
    for (c_ptr, pre_other) in pre.pm.containers.iter() {
        if dead.contains(c_ptr) || *c_ptr == parent {
            continue;
        }
        let Some(post_other) = post.get_container(*c_ptr) else {
            return false;
        };
        let on_path = pre_c.path.contains(c_ptr);
        if on_path {
            let expected: atmo_spec::Set<usize> = dead
                .iter()
                .fold(pre_other.subtree.view().clone(), |acc, d| acc.remove(d));
            if *post_other.subtree.view() != expected {
                return false;
            }
        } else if post_other != pre_other {
            return false;
        }
    }
    true
}

/// `new_process`: a fresh process appears in `cntr` with a fresh, empty
/// address space; the container is charged one page; nothing else
/// changes.
pub fn new_process(s: Step<'_>, cntr: usize) -> bool {
    let Step { pre, post, ret, .. } = s;
    let Ok(vals) = ret.result else {
        return false;
    };
    let p_ptr = vals[0] as usize;
    if pre.get_process(p_ptr).is_some() {
        return false; // pointer freshness
    }
    let Some(p) = post.get_process(p_ptr) else {
        return false;
    };
    if p.owning_container != cntr || p.parent.is_some() || !p.threads.is_empty() {
        return false;
    }
    // Fresh address space, empty.
    if pre.spaces.contains_key(&p.addr_space) {
        return false;
    }
    match post.spaces.index(&p.addr_space) {
        Some(space) if space.is_empty() => {}
        _ => return false,
    }
    // Container bookkeeping: +1 page, process recorded.
    let (Some(pre_c), Some(post_c)) = (pre.get_container(cntr), post.get_container(cntr)) else {
        return false;
    };
    if post_c.used != pre_c.used + 1
        || !post_c.owned_procs.contains(&p_ptr)
        || !post_c.root_procs.contains(&p_ptr)
    {
        return false;
    }
    // The object page came from the free set.
    if !pre.page_is_free(p_ptr) || post.free_4k.contains(&p_ptr) {
        return false;
    }
    threads_unchanged(pre, post)
        && containers_unchanged_except(pre, post, &[cntr])
        && processes_unchanged_except(pre, post, &[p_ptr])
        && endpoints_unchanged_except(pre, post, &[])
        && spaces_unchanged_except(pre, post, &[p.addr_space])
}

/// `new_thread`: a fresh, Ready thread appears in `proc`; its process
/// and container record it; one page of quota is charged.
pub fn new_thread(s: Step<'_>, proc: usize) -> bool {
    let Step { pre, post, ret, .. } = s;
    let Ok(vals) = ret.result else {
        return false;
    };
    let t_ptr = vals[0] as usize;
    if pre.get_thread(t_ptr).is_some() {
        return false;
    }
    let Some(t) = post.get_thread(t_ptr) else {
        return false;
    };
    if t.owning_proc != proc
        || t.state != atmo_pm::ThreadState::Ready
        || t.ipc_buf.is_some()
        || t.edpt_descriptors.iter().any(|d| d.is_some())
    {
        return false;
    }
    let (Some(pre_p), Some(post_p)) = (pre.get_process(proc), post.get_process(proc)) else {
        return false;
    };
    if !post_p.threads.contains(&t_ptr) || post_p.threads.len() != pre_p.threads.len() + 1 {
        return false;
    }
    let cntr = pre_p.owning_container;
    match (pre.get_container(cntr), post.get_container(cntr)) {
        (Some(a), Some(b)) if b.used == a.used + 1 && b.owned_thrds.contains(&t_ptr) => {}
        _ => return false,
    }
    if !pre.page_is_free(t_ptr) || post.free_4k.contains(&t_ptr) {
        return false;
    }
    threads_unchanged_except(pre, post, &[t_ptr])
        && containers_unchanged_except(pre, post, &[cntr])
        && processes_unchanged_except(pre, post, &[proc])
        && endpoints_unchanged_except(pre, post, &[])
        && spaces_unchanged_except(pre, post, &[])
}

/// `terminate_process`: the process, its descendants, their threads and
/// their address spaces vanish; the owning container's charge shrinks by
/// the objects plus mapped pages; other containers untouched.
pub fn terminate_process(s: Step<'_>, proc: usize) -> bool {
    let Step { pre, post, .. } = s;
    let Some(root) = pre.get_process(proc) else {
        return false;
    };
    let cntr = root.owning_container;
    // Collect the doomed subtree from the *pre* view.
    let mut stack = vec![proc];
    let mut doomed_procs = Vec::new();
    while let Some(q) = stack.pop() {
        doomed_procs.push(q);
        if let Some(p) = pre.get_process(q) {
            stack.extend(p.children.iter());
        }
    }
    let mut doomed_threads = Vec::new();
    let mut doomed_spaces = Vec::new();
    let mut mapped_pages = 0usize;
    for &q in &doomed_procs {
        let p = pre.get_process(q).expect("doomed proc in pre");
        doomed_threads.extend(p.threads.iter());
        doomed_spaces.push(p.addr_space);
        mapped_pages += pre
            .spaces
            .index(&p.addr_space)
            .map(|s| s.values().map(|(_e, sz)| sz.frames()).sum::<usize>())
            .unwrap_or(0);
    }
    // Everything doomed is gone.
    if doomed_procs.iter().any(|p| post.get_process(*p).is_some())
        || doomed_threads.iter().any(|t| post.get_thread(*t).is_some())
        || doomed_spaces.iter().any(|s| post.spaces.contains_key(s))
    {
        return false;
    }
    // Quota: objects (procs + threads) + mapped pages released. Endpoint
    // pages may also be released when their last descriptor dies, so the
    // container's use may shrink further.
    let released_min = doomed_procs.len() + doomed_threads.len() + mapped_pages;
    match (pre.get_container(cntr), post.get_container(cntr)) {
        (Some(a), Some(b)) if a.used >= released_min && b.used <= a.used - released_min => {}
        _ => return false,
    }
    containers_unchanged_except(pre, post, &[cntr])
        && spaces_unchanged_except(pre, post, &doomed_spaces)
}

/// Success-path frame conditions shared by the pure IPC operations
/// (`send`/`recv`/`call`/`reply`/`poll`/`take_msg`): the object
/// *populations* and all memory state are untouched; only thread and
/// endpoint contents may change.
pub fn syscall_ipc_population_spec(pre: &AbstractKernel, post: &AbstractKernel) -> bool {
    pre.thread_dom() == post.thread_dom()
        && pre.pm.endpoints.dom() == post.pm.endpoints.dom()
        && pre.pm.processes == post.pm.processes
        && pre.pm.containers == post.pm.containers
        && pre.spaces == post.spaces
        && pre.allocated == post.allocated
}

/// `call` and `reply_recv`: as [`syscall_ipc_population_spec`], and a direct handoff (`val0 ==
/// 1`, the partner in `val1`) must refine the slow rendezvous.
pub fn ipc_handoff(s: Step<'_>) -> bool {
    match s.ret.result {
        Ok([1, partner, ..]) if partner != 0 => {
            fastpath_refines_rendezvous(s.pre, s.post, s.t, partner as usize)
        }
        _ => syscall_ipc_population_spec(s.pre, s.post),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Kernel, KernelConfig};
    use crate::syscall::SyscallArgs;

    #[test]
    fn noop_spec_accepts_identical_states() {
        let k = Kernel::boot(KernelConfig::default());
        let v = k.view();
        assert!(syscall_noop_spec(&v, &v));
    }

    #[test]
    fn mmap_spec_accepts_real_mmap() {
        let mut k = Kernel::boot(KernelConfig::default());
        let t = k.init_thread;
        let pre = k.view();
        let ret = k.syscall(
            0,
            SyscallArgs::Mmap {
                va_base: 0x40_0000,
                len: 3,
                writable: true,
            },
        );
        assert!(ret.is_ok());
        let post = k.view();
        let (pre, post, ret) = (&pre, &post, &ret);
        assert!(mmap(Step { pre, post, t, ret }, 0x40_0000, 3));
        // The spec is discriminating: a wrong thread pointer fails it.
        assert!(!mmap(
            Step {
                pre,
                post,
                t: 0xdead,
                ret
            },
            0x40_0000,
            3
        ));
        // And a wrong range fails the outside-unchanged clause.
        assert!(!mmap(Step { pre, post, t, ret }, 0x50_0000, 3));
    }

    #[test]
    fn failed_mmap_is_a_noop() {
        let mut k = Kernel::boot(KernelConfig::default());
        let t = k.init_thread;
        let pre = k.view();
        // Non-canonical base address.
        let ret = k.syscall(
            0,
            SyscallArgs::Mmap {
                va_base: 0x0000_8000_0000_0000,
                len: 1,
                writable: true,
            },
        );
        assert!(!ret.is_ok());
        let post = k.view();
        assert!(syscall_noop_spec(&pre, &post));
        let _ = t;
    }
}
