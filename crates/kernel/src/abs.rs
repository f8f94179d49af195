//! The abstract kernel state Ψ.
//!
//! Specifications in the paper quantify over the kernel state before and
//! after a transition (`Ψ` and `Ψ'` in Listing 1). [`AbstractKernel`] is
//! that state: a pure, comparable value assembled from the abstract views
//! of every subsystem — the process manager's object maps, each process's
//! abstract address space, and the allocator's page sets.

use std::fmt;

use atmo_hw::addr::PAGE_SIZE_4K;
use atmo_mem::{PagePtr, PageSet, PageSize};
use atmo_pm::manager::PmView;
use atmo_pm::{Container, Endpoint, Process, Thread, ThreadState};
use atmo_ptable::MapEntry;
use atmo_spec::Map;

use crate::vm::AsId;

/// One process's abstract address space: va → (entry, size).
pub type AbsSpace = Map<usize, (MapEntry, PageSize)>;

/// The abstract kernel state Ψ.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbstractKernel {
    /// Process-manager object maps (containers, processes, threads,
    /// endpoints) and the root container.
    pub pm: PmView,
    /// Abstract address spaces, keyed by address-space id.
    pub spaces: Map<AsId, AbsSpace>,
    /// The allocator's free 4 KiB pages.
    pub free_4k: PageSet,
    /// Pages backing kernel objects and page tables.
    pub allocated: PageSet,
    /// Mapped user block heads.
    pub mapped: PageSet,
}

impl AbstractKernel {
    /// A thread's abstract state (`Ψ.get_thread(t_ptr)`).
    pub fn get_thread(&self, t: usize) -> Option<&Thread> {
        self.pm.threads.index(&t)
    }

    /// A container's abstract state (`Ψ.get_cntr(c_ptr)`).
    pub fn get_container(&self, c: usize) -> Option<&Container> {
        self.pm.containers.index(&c)
    }

    /// A process's abstract state.
    pub fn get_process(&self, p: usize) -> Option<&Process> {
        self.pm.processes.index(&p)
    }

    /// An endpoint's abstract state.
    pub fn get_endpoint(&self, e: usize) -> Option<&Endpoint> {
        self.pm.endpoints.index(&e)
    }

    /// A process's abstract address space
    /// (`Ψ.get_address_space(proc_ptr)`, Listing 1). Empty when the
    /// process or its space is unknown.
    pub fn get_address_space(&self, proc_ptr: usize) -> AbsSpace {
        match self.pm.processes.index(&proc_ptr) {
            Some(p) => self
                .spaces
                .index(&p.addr_space)
                .cloned()
                .unwrap_or_default(),
            None => Map::empty(),
        }
    }

    /// A thread's endpoint descriptor table
    /// (`Ψ.get_thrd_edpt_descriptors(t_ptr)`, §4.3).
    pub fn get_thrd_edpt_descriptors(&self, t: usize) -> Vec<Option<usize>> {
        self.pm
            .threads
            .index(&t)
            .map(|th| th.edpt_descriptors.to_vec())
            .unwrap_or_default()
    }

    /// `Ψ.page_is_free(page)` (Listing 1 line 22).
    pub fn page_is_free(&self, page: PagePtr) -> bool {
        self.free_4k.contains(&page)
    }
}

// ----- representation-independent space views --------------------------

pub use atmo_ptable::space_covering;

/// Expands every entry of `space` into its per-4 KiB coverage: a
/// `Size2M`/`Size1G` entry becomes `frames()` consecutive 4 KiB entries
/// with `frame = head + offset` and the huge bit cleared. Two spaces
/// mapping the same frames with the same permissions normalize
/// identically regardless of representation — this is the view the
/// batched `Mmap`/`Munmap` specs and the promotion-equivalence fuzz
/// compare (§4.3 adapted to superpages).
pub fn normalize_space_4k(space: &AbsSpace) -> Map<usize, MapEntry> {
    let mut items = Vec::new();
    for (base, (e, sz)) in space.iter() {
        for k in 0..sz.frames() {
            let mut flags = e.flags;
            flags.huge = false;
            items.push((
                *base + k * PAGE_SIZE_4K,
                MapEntry {
                    frame: e.frame + k * PAGE_SIZE_4K,
                    flags,
                },
            ));
        }
    }
    items.into_iter().collect()
}

// ----- the frame: what a transition may write ---------------------------

/// What a transition from `pre` may change — its guarantee (Zhao &
/// Sanán). Ψ' must equal Ψ everywhere else (Listing 1 lines 7–18), which
/// [`Writes::check`] tests. A declared key names an object of `pre`, or a
/// fresh one; it may change, appear or vanish.
#[derive(Clone, Debug)]
pub struct Writes<'a> {
    pre: &'a AbstractKernel,
    containers: Vec<usize>,
    processes: Vec<usize>,
    threads: Vec<usize>,
    endpoints: Vec<usize>,
    spaces: Vec<AsId>,
    pages: bool,
    states: bool,
}

/// A write outside a transition's declared [`Writes`]: the component and
/// its first changed key (the new root pointer for `root`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Undeclared {
    /// The Ψ component (`container`, `thread state`, `free page`, …).
    pub component: &'static str,
    /// Its first changed key.
    pub key: usize,
}

impl fmt::Display for Undeclared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:#x}", self.component, self.key)
    }
}

/// One method per keyed component of [`Writes`].
macro_rules! keyed {
    ($($component:ident),*) => {$(
        #[doc = concat!("The ", stringify!($component), " `keys` may change.")]
        pub fn $component(&mut self, keys: impl IntoIterator<Item = usize>) {
            self.$component.extend(keys);
        }
    )*};
}

impl<'a> Writes<'a> {
    /// Nothing: the frame of an error and of a pure read.
    pub fn new(pre: &'a AbstractKernel) -> Self {
        let [containers, processes, threads, endpoints, spaces] = Default::default();
        Writes {
            pre,
            containers,
            processes,
            threads,
            endpoints,
            spaces,
            pages: false,
            states: false,
        }
    }

    keyed!(containers, processes, threads, endpoints, spaces);

    /// The allocator's free 4 KiB, allocated and mapped sets may change.
    pub fn pages(&mut self) {
        self.pages = true;
    }

    /// Any thread's `state` may change (the scheduler may dispatch
    /// another thread); its other fields stay framed.
    pub fn states(&mut self) {
        self.states = true;
    }

    /// What tearing down thread `t` writes (pm's `terminate_thread`): `t`,
    /// its process and container, the caller it owes a reply and the
    /// threads owing it one, the endpoints it holds or is queued on, their
    /// owners, and the threads queued on them (woken when one dies).
    pub(crate) fn thread_teardown(&mut self, t: usize) {
        let Some(th) = self.pre.get_thread(t) else {
            return;
        };
        let threads = self.pre.pm.threads.iter();
        let debtors = threads.filter(|(_, q)| q.reply_partner == Some(t));
        self.threads
            .extend(debtors.map(|(q, _)| *q).chain([t]).chain(th.reply_partner));
        self.processes.push(th.owning_proc);
        self.containers.push(th.owning_cntr);
        let (ThreadState::BlockedSend(on) | ThreadState::BlockedRecv(on)) = th.state else {
            return self.release(th.edpt_descriptors.iter().flatten());
        };
        self.release(th.edpt_descriptors.iter().flatten().chain([&on]));
    }

    /// Endpoints `edpts`, their owners and their queued threads.
    fn release<'e>(&mut self, edpts: impl Iterator<Item = &'e usize>) {
        for (e, ep) in edpts.filter_map(|e| Some((*e, self.pre.get_endpoint(*e)?))) {
            self.endpoints.push(e);
            self.containers.push(ep.owning_cntr);
            self.threads.extend(ep.queue.iter());
        }
    }

    /// What tearing down process `p` writes (pm's `terminate_process`):
    /// `p`, its parent, container and space, its threads' teardowns, and
    /// its children's.
    pub(crate) fn process_teardown(&mut self, p: usize) {
        let Some(pr) = self.pre.get_process(p) else {
            return;
        };
        self.processes.extend(pr.parent.into_iter().chain([p]));
        self.containers.push(pr.owning_container);
        self.spaces.push(pr.addr_space);
        pr.threads.iter().for_each(|t| self.thread_teardown(t));
        pr.children.iter().for_each(|q| self.process_teardown(q));
    }

    /// What tearing down container `c` writes (pm's
    /// `terminate_container`): `c`, its subtree and its ancestors, each
    /// dead container's processes' teardowns, and the endpoints it owns,
    /// whose charge moves to `c`'s parent.
    pub(crate) fn container_teardown(&mut self, c: usize) {
        let Some(cntr) = self.pre.get_container(c) else {
            return;
        };
        self.containers.extend(cntr.path.iter());
        for dead in cntr.subtree.iter().chain([&c]) {
            self.containers.push(*dead);
            if let Some(d) = self.pre.get_container(*dead) {
                self.endpoints.extend(d.owned_edpts.iter());
                d.root_procs.iter().for_each(|p| self.process_teardown(p));
            }
        }
    }

    /// `Ok` when `post` equals `pre` outside these writes; otherwise the
    /// first undeclared write. Walks Ψ and Ψ' one component at a time and
    /// builds no map.
    pub fn check(&self, post: &AbstractKernel) -> Result<(), Undeclared> {
        let (a, b, w) = (self.pre, post, self);
        let (p, q) = (&a.pm, &b.pm);
        undeclared("root", (p.root != q.root).then_some(q.root))?;
        diff("container", &p.containers, &q.containers, &w.containers)?;
        diff("process", &p.processes, &q.processes, &w.processes)?;
        diff_by("thread", &p.threads, &q.threads, &w.threads, same_but_state)?;
        if !w.states {
            diff("thread state", &p.threads, &q.threads, &w.threads)?;
        }
        diff("endpoint", &p.endpoints, &q.endpoints, &w.endpoints)?;
        diff("space", &a.spaces, &b.spaces, &w.spaces)?;
        if !w.pages {
            diff_pages("free page", &a.free_4k, &b.free_4k)?;
            diff_pages("allocated page", &a.allocated, &b.allocated)?;
            diff_pages("mapped page", &a.mapped, &b.mapped)?;
        }
        Ok(())
    }
}

/// `x` and `y` alike but for `state`.
fn same_but_state(x: &Thread, y: &Thread) -> bool {
    if x == y {
        return true;
    }
    let mut y = y.clone();
    y.state = x.state;
    *x == y
}

/// [`diff_by`] with `==`.
pub(crate) fn diff<V: Clone + PartialEq>(
    component: &'static str,
    pre: &Map<usize, V>,
    post: &Map<usize, V>,
    keys: &[usize],
) -> Result<(), Undeclared> {
    diff_by(component, pre, post, keys, PartialEq::eq)
}

/// The first key outside `keys` whose value differs (by `same`), appears
/// or vanishes between `pre` and `post`, as a write to `component`.
fn diff_by<V: Clone>(
    component: &'static str,
    pre: &Map<usize, V>,
    post: &Map<usize, V>,
    keys: &[usize],
    same: impl Fn(&V, &V) -> bool,
) -> Result<(), Undeclared> {
    let differs = |k: &&usize| match (pre.index(k), post.index(k)) {
        _ if keys.contains(k) => false,
        (Some(x), Some(y)) => !same(x, y),
        _ => true,
    };
    let appeared = || post.keys().find(|k| !pre.contains_key(k) && differs(k));
    undeclared(
        component,
        pre.keys().find(differs).or_else(appeared).copied(),
    )
}

/// The first page in exactly one of `pre` and `post`, as a write to
/// `component`.
fn diff_pages(component: &'static str, pre: &PageSet, post: &PageSet) -> Result<(), Undeclared> {
    let differs = |p: &PagePtr| pre.contains(p) != post.contains(p);
    let first = || pre.iter().chain(post.iter()).find(differs);
    undeclared(component, (pre != post).then(first).flatten())
}

/// `key`, if any, as a write to `component`.
pub(crate) fn undeclared(component: &'static str, key: Option<usize>) -> Result<(), Undeclared> {
    key.map_or(Ok(()), |key| Err(Undeclared { component, key }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmo_pm::manager::PmView;

    fn empty_abs() -> AbstractKernel {
        AbstractKernel {
            pm: PmView {
                root: 0x1000,
                containers: Map::empty(),
                processes: Map::empty(),
                threads: Map::empty(),
                endpoints: Map::empty(),
            },
            spaces: Map::empty(),
            free_4k: PageSet::default(),
            allocated: PageSet::default(),
            mapped: PageSet::default(),
        }
    }

    #[test]
    fn empty_state_accessors() {
        let a = empty_abs();
        assert!(a.get_thread(1).is_none());
        assert!(a.get_address_space(1).is_empty());
        assert!(a.get_thrd_edpt_descriptors(1).is_empty());
        assert!(!a.page_is_free(0x1000));
    }

    #[test]
    fn frame_helpers_detect_changes() {
        let a = empty_abs();
        let mut b = a.clone();
        assert_eq!(Writes::new(&a).check(&b), Ok(()));
        b.pm.threads
            .insert_mut(0x3000, Thread::new(0x2000, 0x1000, 0));
        let thread = Err(Undeclared {
            component: "thread",
            key: 0x3000,
        });
        assert_eq!(Writes::new(&a).check(&b), thread);
        let mut w = Writes::new(&a);
        w.threads([0x4000]);
        assert_eq!(w.check(&b), thread);
        w.threads([0x3000]);
        assert_eq!(w.check(&b), Ok(()));
    }

    #[test]
    fn space_helpers_restrict_properly() {
        let a = empty_abs();
        let mut b = a.clone();
        b.spaces.insert_mut(5, Map::empty());
        let mut w = Writes::new(&a);
        assert_eq!(
            w.check(&b),
            Err(Undeclared {
                component: "space",
                key: 5
            })
        );
        w.spaces([5]);
        assert_eq!(w.check(&b), Ok(()));
    }
}
