//! Per-syscall transition specifications (Listing 1 of the paper).
//!
//! Every row of the syscall listing declares what a successful call may
//! write (`writes:`, a [`Writes`](crate::abs::Writes)) and names its spec: a function of the
//! audited [`Step`] (Ψ, Ψ', the calling thread and the return) and the
//! call's arguments. The generated `spec_holds` first checks the frame —
//! Ψ' equals Ψ outside the declared writes, and outside nothing for a
//! failed call — so a spec states only what changes and how the return
//! relates to the states. The refinement harness ([`crate::refine`])
//! asserts both after every audited system call.

use atmo_hw::addr::{PageVa4K, VaRange4K};
use atmo_hw::VAddr;
use atmo_mem::PageSize;
use atmo_pm::{Process, Thread, ThreadState};
use atmo_ptable::MapEntry;
use atmo_spec::Map;

use crate::abs::{normalize_space_4k, space_covering, AbsSpace, AbstractKernel};
use crate::refine::fastpath_refines_rendezvous;
use crate::syscall::{SyscallError, SyscallReturn};
use crate::vm::AsId;

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

/// Keys the listing's `writes:` slots name, read from Ψ.
impl Step<'_> {
    fn caller(&self) -> Option<&Thread> {
        self.pre.get_thread(self.t)
    }

    /// The caller's container.
    pub(crate) fn cntr(&self) -> Option<usize> {
        self.caller().map(|t| t.owning_cntr)
    }

    /// The caller's process.
    pub(crate) fn proc(&self) -> Option<usize> {
        self.caller().map(|t| t.owning_proc)
    }

    /// The caller's address space.
    pub(crate) fn space(&self) -> Option<AsId> {
        self.pre.get_process(self.proc()?).map(|p| p.addr_space)
    }

    /// The container owning process `p`.
    pub(crate) fn cntr_of(&self, p: usize) -> Option<usize> {
        self.pre.get_process(p).map(|p| p.owning_container)
    }

    /// The caller's container and its ancestors.
    pub(crate) fn lineage(&self) -> Vec<usize> {
        let c = self
            .cntr()
            .and_then(|c| Some((c, self.pre.get_container(c)?)));
        c.map_or(Vec::new(), |(c, cntr)| {
            cntr.path.iter().copied().chain([c]).collect()
        })
    }

    /// The object a creating call returned.
    pub(crate) fn fresh(&self) -> Option<usize> {
        self.ret.result.ok().map(|v| v[0] as usize)
    }

    /// The address space of the fresh process, in Ψ'.
    pub(crate) fn fresh_space(&self) -> Option<AsId> {
        self.post.get_process(self.fresh()?).map(|p| p.addr_space)
    }

    /// The endpoint in the caller's descriptor `slot`.
    pub(crate) fn edpt(&self, slot: impl Into<Option<usize>>) -> Option<usize> {
        let slot = slot.into()?;
        self.caller()?.edpt_descriptors.get(slot).copied().flatten()
    }

    /// The first thread queued on the endpoint in the caller's `slot`.
    pub(crate) fn peer(&self, slot: usize) -> Option<usize> {
        self.pre.get_endpoint(self.edpt(slot)?)?.queue.iter().next()
    }

    /// The endpoint granted by the message the peer holds.
    pub(crate) fn peer_grant(&self, slot: usize) -> Option<usize> {
        self.pre
            .get_thread(self.peer(slot)?)?
            .ipc_buf?
            .endpoint_grant
    }

    /// The caller this thread owes a reply.
    pub(crate) fn partner(&self) -> Option<usize> {
        self.caller()?.reply_partner
    }

    /// Container `c`'s charge before and after the call.
    fn used(&self, c: usize) -> Option<(usize, usize)> {
        Some((
            self.pre.get_container(c)?.used,
            self.post.get_container(c)?.used,
        ))
    }

    /// Page `p` was free and is not now: a fresh object's page (Listing 4:
    /// "newly allocated page was previously not allocated"). `total_wf(Ψ)`
    /// then makes `p` a pointer no object of Ψ holds.
    fn took_free_page(&self, p: usize) -> bool {
        self.pre.page_is_free(p) && !self.post.free_4k.contains(&p)
    }
}

/// Pure reads and calls whose effect Ψ does not project: the row's empty
/// `writes:` is the whole spec.
pub fn frame_only(_s: Step<'_>) -> bool {
    true
}

/// No functional spec yet; the frame comes from the row's `writes:`, and
/// `total_wf` holds after the call.
pub fn noop_on_error(_s: Step<'_>) -> bool {
    true
}

/// `getpid`'s answer for the calling thread `t`: its owning process and
/// container. The locked call, the replicated read and the spec all
/// answer through it, as through the two below.
pub fn getpid_answer(t: &Thread) -> [u64; 4] {
    [t.owning_proc as u64, t.owning_cntr as u64, 0, 0]
}

/// `thread_lookup`'s answer for `thread` (`None` when it does not
/// exist): its owning process and container.
pub fn thread_lookup_answer(thread: Option<&Thread>) -> Result<[u64; 4], SyscallError> {
    thread.map(getpid_answer).ok_or(SyscallError::NotFound)
}

/// `descriptor_resolve`'s answer for `slot` of the calling thread `t`:
/// the endpoint installed there.
pub fn descriptor_resolve_answer(t: &Thread, slot: usize) -> Result<[u64; 4], SyscallError> {
    let e = t.descriptor(slot).ok_or(SyscallError::NotFound)?;
    Ok([e as u64, 0, 0, 0])
}

/// `getpid`: the call returns the caller's answer in Ψ.
pub fn getpid(s: Step<'_>) -> bool {
    s.caller()
        .is_some_and(|t| s.ret.result == Ok(getpid_answer(t)))
}

/// `thread_lookup`: the call returns the answer for `thread` in Ψ.
pub fn thread_lookup(s: Step<'_>, thread: usize) -> bool {
    s.ret.result == thread_lookup_answer(s.pre.get_thread(thread))
}

/// `descriptor_resolve`: the call returns the answer for the caller's
/// `slot` in Ψ.
pub fn descriptor_resolve(s: Step<'_>, slot: usize) -> bool {
    s.caller()
        .is_some_and(|t| s.ret.result == descriptor_resolve_answer(t, slot))
}

/// `vm_resolve`'s answer for `va` in `space`: `[1, writable, 0, 0]`
/// when a leaf of any size covers it, `[0; 4]` otherwise. The replicated
/// read and the spec answer through it; the locked call answers through
/// `vm_resolve_reply` on its table's own covering lookup.
pub fn vm_resolve_answer(space: &AbsSpace, va: usize) -> [u64; 4] {
    vm_resolve_reply(space_covering(space, va))
}

/// `vm_resolve`'s answer for the covering leaf `leaf` (see
/// [`atmo_ptable::covering_leaf`]).
pub(crate) fn vm_resolve_reply(leaf: Option<(usize, MapEntry, PageSize)>) -> [u64; 4] {
    leaf.map_or([0; 4], |(_, e, _)| [1, e.flags.writable as u64, 0, 0])
}

/// `vm_resolve`: the call returns the answer for `va` in the caller's
/// space in Ψ.
pub fn vm_resolve(s: Step<'_>, va: usize) -> bool {
    let space = s.proc().map(|p| s.pre.get_address_space(p));
    space.is_some_and(|space| s.ret.result == Ok(vm_resolve_answer(&space, va)))
}

/// `mmap`: Listing 1's `syscall_mmap_spec` (lines 5–27); the frame
/// (lines 7–11) is the row's `writes:`.
pub fn mmap(s: Step<'_>, va_base: usize, len: usize) -> bool {
    let Step { pre, post, .. } = s;
    let (Some(range), Some(proc), Some(cntr)) =
        (VaRange4K::new(VAddr(va_base), len), s.proc(), s.cntr())
    else {
        return false;
    };
    // The caller's quota charge grew by len.
    if s.used(cntr).is_none_or(|(was, is)| is != was + len) {
        return false;
    }
    let pre_space = pre.get_address_space(proc);
    let post_space = post.get_address_space(proc);
    // Virtual addresses outside the range are not changed (lines 13–18).
    if !agree_outside(&pre_space, &post_space, range) {
        return false;
    }
    // Each virtual address in the range maps a page that was free before
    // (lines 19–22) and pages are pairwise distinct (lines 23–26). The
    // clauses are stated over the *covering* entry so the batched,
    // promoted and per-page executions all satisfy the same transition: a
    // `Size4K` entry covers exactly its va, while a promoted `Size2M`
    // entry covers 512 of them with per-va frame `head + offset` (the
    // promotion path assembles its run from the 4 KiB freelist, so each
    // constituent frame individually satisfies `page_is_free`).
    let mut seen = std::collections::BTreeSet::new();
    let (start, end) = (va_base, va_base + len * 0x1000);
    for va in range.iter().map(|va| va.as_usize()) {
        let Some((base, entry, size)) = space_covering(&post_space, va) else {
            return false;
        };
        let frame = entry.frame + (va - base);
        // A covering superpage lies entirely inside the range (promotion
        // never maps beyond what was asked for); the range was unmapped at
        // any size; the allocator now records the covering block as
        // mapped, with none of its frames free.
        let fresh = start <= base
            && base + size.bytes() <= end
            && pre.page_is_free(frame)
            && seen.insert(frame)
            && space_covering(&pre_space, va).is_none()
            && !post.free_4k.contains(&frame)
            && post.mapped.contains(&entry.frame);
        if !fresh {
            return false;
        }
    }
    true
}

/// `munmap`: the range disappears from the caller's space, frames return
/// toward the allocator and quota is released.
pub fn munmap(s: Step<'_>, va_base: usize, len: usize) -> bool {
    let Step { pre, post, .. } = s;
    let (Some(range), Some(proc), Some(cntr)) =
        (VaRange4K::new(VAddr(va_base), len), s.proc(), s.cntr())
    else {
        return false;
    };
    // Every page of the range was mapped (at any size) and is gone, and
    // outside the range the per-4K coverage is unchanged. The comparison
    // runs over the normalized (per-4K expanded) views so that demoting a
    // promoted superpage to unmap part of it — a pure representation
    // change for the surviving pages — satisfies the same transition as
    // the per-page path.
    let pre_n = normalize_space_4k(&pre.get_address_space(proc));
    let post_n = normalize_space_4k(&post.get_address_space(proc));
    let unmapped =
        |va: PageVa4K| pre_n.contains_key(&va.as_usize()) && !post_n.contains_key(&va.as_usize());
    s.used(cntr).is_some_and(|(was, is)| was == is + len)
        && range.iter().all(unmapped)
        && agree_outside(&pre_n, &post_n, range)
}

/// `a` and `b` agree at every va outside `range`.
fn agree_outside<V: Clone + PartialEq>(
    a: &Map<usize, V>,
    b: &Map<usize, V>,
    range: VaRange4K,
) -> bool {
    let within = |x: &Map<usize, V>, y: &Map<usize, V>| {
        x.iter()
            .all(|(va, e)| range.contains(VAddr(*va)) || y.index(va) == Some(e))
    };
    within(a, b) && within(b, a)
}

/// `new_container` (Listing 3's `new_container_ensures`, adapted to the
/// syscall boundary): a fresh container appears under the caller's
/// container, the parent's charge grows by `quota + 1`, the parent's CPU
/// set shrinks by the passed cores, ancestors' subtrees grow by exactly
/// the child. Precondition: no thread of the parent's subtree is homed on
/// a passed core.
pub fn new_container(s: Step<'_>, quota: usize, cpus: &[usize]) -> bool {
    let Step { pre, post, .. } = s;
    let (Some(child), Some(parent)) = (s.fresh(), s.cntr()) else {
        return false;
    };
    let in_subtree = |c: &usize| {
        *c == parent
            || pre
                .get_container(*c)
                .is_some_and(|c| c.path.contains(&parent))
    };
    let mut threads = pre.pm.threads.values();
    let busy = threads.any(|th| in_subtree(&th.owning_cntr) && cpus.contains(&th.home_cpu));
    let (Some(child_c), Some(pre_p), Some(post_p)) = (
        post.get_container(child),
        pre.get_container(parent),
        post.get_container(parent),
    ) else {
        return false;
    };
    let shaped = child_c.parent == Some(parent)
        && child_c.quota == quota
        && child_c.used == 0
        && child_c.depth == pre_p.depth + 1
        && child_c.subtree.is_empty()
        && *child_c.path.view() == pre_p.path.push(parent);
    let handed = |cpu| child_c.owned_cpus.contains(cpu) && !post_p.owned_cpus.contains(cpu);
    // Ancestors' subtrees grew by exactly the child (Listing 3 lines
    // 14–21).
    let grew = |a: &usize| match (pre.get_container(*a), post.get_container(*a)) {
        (Some(x), Some(y)) => *y.subtree.view() == x.subtree.insert(child),
        _ => false,
    };
    !busy
        && shaped
        && cpus.iter().all(handed)
        && post_p.used == pre_p.used + quota + 1
        && post_p.children.contains(&child)
        && pre_p.path.iter().chain([&parent]).all(grew)
        && s.took_free_page(child)
}

/// `new_endpoint`: a fresh endpoint appears, installed in the caller's
/// descriptor table, charged to the caller's container (Listing 4's
/// postcondition shape).
pub fn new_endpoint(s: Step<'_>, slot: usize) -> bool {
    let (Some(e_ptr), Some(cntr)) = (s.fresh(), s.cntr()) else {
        return false;
    };
    let Some(e) = s.post.get_endpoint(e_ptr) else {
        return false;
    };
    // The caller's descriptor table gained exactly this endpoint.
    let slot_of = |k: &AbstractKernel| k.get_thread(s.t).map(|t| t.edpt_descriptors[slot]);
    e.refcount == 1
        && e.owning_cntr == cntr
        && e.queue.is_empty()
        && slot_of(s.pre) == Some(None)
        && slot_of(s.post) == Some(Some(e_ptr))
        && s.used(cntr).is_some_and(|(was, is)| is == was + 1)
        && s.took_free_page(e_ptr)
}

/// `yield` / timer tick: the thread it returns (if any) now runs; the
/// row's `writes:` lets only thread states change.
pub fn reschedule(s: Step<'_>) -> bool {
    let running = |t: &Thread| matches!(t.state, ThreadState::Running(_));
    match s.ret.result {
        Ok([next, ..]) => next == 0 || s.post.get_thread(next as usize).is_some_and(running),
        Err(_) => false,
    }
}

/// `terminate_container`: the target and its whole subtree vanish with
/// their processes and threads; the parent recovers the reservation; the
/// ancestors' subtrees shrink by the dead set.
pub fn terminate_container(s: Step<'_>, cntr: usize) -> bool {
    let Step { pre, post, .. } = s;
    let Some((pre_c, Some(parent))) = pre.get_container(cntr).map(|c| (c, c.parent)) else {
        return false;
    };
    let dead: Vec<usize> = pre_c.subtree.iter().copied().chain([cntr]).collect();
    let mut procs = pre.pm.processes.iter();
    let mut threads = pre.pm.threads.iter();
    let gone = dead.iter().all(|d| post.get_container(*d).is_none())
        && !procs
            .any(|(p, q)| dead.contains(&q.owning_container) && post.get_process(*p).is_some())
        && !threads.any(|(t, th)| dead.contains(&th.owning_cntr) && post.get_thread(*t).is_some());
    // The parent recovered the reservation, and took over the charge of
    // each surviving endpoint a dead container owned.
    let reservation = pre_c.quota + 1;
    let edpts = post.pm.endpoints.iter();
    let moved = edpts
        .filter(|(e, ep)| {
            let owner = pre.get_endpoint(**e).map(|ep| ep.owning_cntr);
            ep.owning_cntr == parent && owner.is_some_and(|o| dead.contains(&o))
        })
        .count();
    let recovered = s.used(parent).is_some_and(|(was, is)| {
        was >= reservation && is + reservation >= was && is + reservation <= was + moved
    });
    let unlinked = post
        .get_container(parent)
        .is_some_and(|p| !p.children.contains(&cntr));
    // Ancestors' subtrees shrank by the dead set.
    let shrank = |a: &usize| match (pre.get_container(*a), post.get_container(*a)) {
        (Some(x), Some(y)) => {
            let expected = dead
                .iter()
                .fold(x.subtree.view().clone(), |acc, d| acc.remove(d));
            *y.subtree.view() == expected
        }
        _ => false,
    };
    gone && recovered && unlinked && pre_c.path.iter().all(shrank)
}

/// `new_process`: a fresh process appears in `cntr` with a fresh, empty
/// address space; the container is charged one page.
pub fn new_process(s: Step<'_>, cntr: usize) -> bool {
    let Step { pre, post, .. } = s;
    let Some((p_ptr, p)) = s.fresh().and_then(|p| Some((p, post.get_process(p)?))) else {
        return false;
    };
    let fresh_space = post
        .spaces
        .index(&p.addr_space)
        .is_some_and(|space| space.is_empty());
    let recorded = post
        .get_container(cntr)
        .is_some_and(|c| c.owned_procs.contains(&p_ptr) && c.root_procs.contains(&p_ptr));
    p.owning_container == cntr
        && p.parent.is_none()
        && p.threads.is_empty()
        && !pre.spaces.contains_key(&p.addr_space)
        && fresh_space
        && recorded
        && s.used(cntr).is_some_and(|(was, is)| is == was + 1)
        && s.took_free_page(p_ptr)
}

/// `new_thread`: a fresh, Ready thread homed on `cpu` appears in
/// `proc`; its process and container record it; one page of quota is
/// charged.
pub fn new_thread(s: Step<'_>, proc: usize, cpu: usize) -> bool {
    let Step { pre, post, .. } = s;
    let Some((t_ptr, t)) = s.fresh().and_then(|t| Some((t, post.get_thread(t)?))) else {
        return false;
    };
    let (Some(pre_p), Some(post_p)) = (pre.get_process(proc), post.get_process(proc)) else {
        return false;
    };
    let cntr = pre_p.owning_container;
    t.owning_proc == proc
        && t.home_cpu == cpu
        && t.state == ThreadState::Ready
        && t.ipc_buf.is_none()
        && t.edpt_descriptors.iter().all(Option::is_none)
        && post_p.threads.contains(&t_ptr)
        && post_p.threads.len() == pre_p.threads.len() + 1
        && post
            .get_container(cntr)
            .is_some_and(|c| c.owned_thrds.contains(&t_ptr))
        && s.used(cntr).is_some_and(|(was, is)| is == was + 1)
        && s.took_free_page(t_ptr)
}

/// `terminate_process`: the process, its descendants, their threads and
/// their address spaces vanish; the owning container's charge shrinks by
/// the objects plus mapped pages.
pub fn terminate_process(s: Step<'_>, proc: usize) -> bool {
    let Step { pre, post, .. } = s;
    let Some(cntr) = pre.get_process(proc).map(|p| p.owning_container) else {
        return false;
    };
    // The doomed subtree, from Ψ.
    let procs = pre.pm.processes.iter();
    let tree: Vec<_> = procs
        .filter(|(p, q)| **p == proc || q.path.contains(&proc))
        .collect();
    let frames = |q: &Process| {
        let space = pre.spaces.index(&q.addr_space);
        space.map_or(0, |m| m.values().map(|(_, size)| size.frames()).sum())
    };
    // Everything doomed is gone.
    let gone = tree.iter().all(|(p, q)| {
        post.get_process(**p).is_none()
            && !post.spaces.contains_key(&q.addr_space)
            && q.threads.iter().all(|t| post.get_thread(t).is_none())
    });
    // Quota: objects (procs + threads) + mapped pages released. Endpoint
    // pages may also be released when their last descriptor dies, so the
    // container's use may shrink further.
    let released: usize = tree
        .iter()
        .map(|(_, q)| 1 + q.threads.len() + frames(q))
        .sum();
    gone && s
        .used(cntr)
        .is_some_and(|(was, is)| was >= released && is <= was - released)
}

/// The pure IPC operations (`send`/`recv`/`call`/`reply`/`poll`/
/// `take_msg`) neither create nor destroy a thread or an endpoint; their
/// rows' `writes:` frame everything else.
pub fn syscall_ipc_population_spec(pre: &AbstractKernel, post: &AbstractKernel) -> bool {
    pre.pm.threads.keys().eq(post.pm.threads.keys())
        && pre.pm.endpoints.keys().eq(post.pm.endpoints.keys())
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
    use crate::abs::Writes;
    use crate::kernel::{Kernel, KernelConfig};
    use crate::syscall::SyscallArgs;

    #[test]
    fn noop_spec_accepts_identical_states() {
        let k = Kernel::boot(KernelConfig::default());
        let v = k.view();
        assert_eq!(Writes::new(&v).check(&v), Ok(()));
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
        assert_eq!(Writes::new(&pre).check(&post), Ok(()));
        let _ = t;
    }
}
