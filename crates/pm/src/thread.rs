//! Threads: execution contexts, endpoint descriptors and IPC buffers.
//!
//! Listing 1 of the paper dereferences a raw `ThrdPtr` through the flat
//! `thrd_perms` map to reach `thread.owning_proc` — the same layout used
//! here. Each thread carries a fixed table of endpoint descriptors
//! (`get_thrd_edpt_descriptors(t)[idx]` in the isolation invariants of
//! §4.3), an IPC transfer buffer, and reverse pointers to its process and
//! container.

use atmo_spec::harness::{check, VerifResult};
use atmo_spec::PermMap;

use crate::container::Container;
use crate::endpoint::Endpoint;
use crate::process::Process;
use crate::types::{
    CpuId, CtnrPtr, EdptPtr, IpcPayload, ProcPtr, ThrdPtr, ThreadState, MAX_ENDPOINT_SLOTS,
};

/// A thread kernel object (one per 4 KiB page).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Thread {
    /// The process this thread executes in.
    pub owning_proc: ProcPtr,
    /// Reverse pointer to the owning container (cached; equals
    /// `procs[owning_proc].owning_container`).
    pub owning_cntr: CtnrPtr,
    /// Scheduling/blocking state.
    pub state: ThreadState,
    /// Endpoint descriptor table: slot → endpoint.
    pub edpt_descriptors: [Option<EdptPtr>; MAX_ENDPOINT_SLOTS],
    /// In-flight IPC payload (set while blocked sending, or after a
    /// message was delivered to this thread).
    pub ipc_buf: Option<IpcPayload>,
    /// For a receiver that accepted a `call`: the caller awaiting reply.
    pub reply_partner: Option<ThrdPtr>,
    /// `true` when the thread's pending send is a `call` (expects reply).
    pub is_calling: bool,
    /// Home CPU: chosen at creation, where the thread queues when it
    /// wakes.
    pub home_cpu: CpuId,
}

impl Thread {
    /// A fresh, ready thread of `proc` in `cntr`, homed on `cpu`.
    pub fn new(proc: ProcPtr, cntr: CtnrPtr, cpu: CpuId) -> Self {
        Thread {
            owning_proc: proc,
            owning_cntr: cntr,
            state: ThreadState::Ready,
            edpt_descriptors: [None; MAX_ENDPOINT_SLOTS],
            ipc_buf: None,
            reply_partner: None,
            is_calling: false,
            home_cpu: cpu,
        }
    }

    /// First free descriptor slot, if any.
    pub fn free_slot(&self) -> Option<usize> {
        self.edpt_descriptors.iter().position(|d| d.is_none())
    }

    /// The endpoint in `slot`, if valid and installed.
    pub fn descriptor(&self, slot: usize) -> Option<EdptPtr> {
        self.edpt_descriptors.get(slot).copied().flatten()
    }
}

/// Global thread well-formedness (`threads_wf` of §4.1), stated flat:
/// every thread's reverse pointers agree with the process and container
/// maps, descriptors reference live endpoints, and blocked states are
/// mirrored by endpoint queues / reply partners.
pub fn threads_wf(
    cntrs: &PermMap<Container>,
    procs: &PermMap<Process>,
    thrds: &PermMap<Thread>,
    edpts: &PermMap<Endpoint>,
) -> VerifResult {
    for (t_ptr, perm) in thrds.iter() {
        let t = perm.value();

        check(
            procs.contains(t.owning_proc),
            "threads",
            format_args!("thread {t_ptr:#x} owned by unknown process"),
        )?;
        let p = procs.value(t.owning_proc);
        check(
            p.threads.contains(&t_ptr),
            "threads",
            format_args!("process does not list thread {t_ptr:#x}"),
        )?;
        check(
            t.owning_cntr == p.owning_container,
            "threads",
            format_args!("thread {t_ptr:#x} container cache is stale"),
        )?;
        check(
            cntrs.contains(t.owning_cntr)
                && cntrs.value(t.owning_cntr).owned_thrds.contains(&t_ptr),
            "threads",
            format_args!("container does not record thread {t_ptr:#x}"),
        )?;

        for d in t.edpt_descriptors.iter().flatten() {
            check(
                edpts.contains(*d),
                "threads",
                format_args!("thread {t_ptr:#x} holds descriptor to dead endpoint {d:#x}"),
            )?;
        }

        match t.state {
            ThreadState::BlockedSend(e) | ThreadState::BlockedRecv(e) => {
                check(
                    edpts.contains(e),
                    "threads",
                    format_args!("thread {t_ptr:#x} blocked on dead endpoint {e:#x}"),
                )?;
                check(
                    edpts.value(e).queue.contains(&t_ptr),
                    "threads",
                    format_args!("blocked thread {t_ptr:#x} missing from endpoint queue"),
                )?;
            }
            ThreadState::BlockedReply(e) => {
                check(
                    edpts.contains(e),
                    "threads",
                    format_args!("thread {t_ptr:#x} awaiting reply on dead endpoint {e:#x}"),
                )?;
                // Some live thread must owe this thread a reply.
                let owed = thrds
                    .iter()
                    .any(|(_, q)| q.value().reply_partner == Some(t_ptr));
                check(
                    owed,
                    "threads",
                    format_args!("no thread owes a reply to {t_ptr:#x}"),
                )?;
            }
            ThreadState::Ready | ThreadState::Running(_) => {}
        }
    }

    // Container ghost thread sets only name live threads of the container.
    for (c_ptr, perm) in cntrs.iter() {
        for t in perm.value().owned_thrds.iter() {
            check(
                thrds.contains(*t) && thrds.value(*t).owning_cntr == c_ptr,
                "threads",
                format_args!("container {c_ptr:#x} claims foreign/dead thread {t:#x}"),
            )?;
        }
    }

    // Reply partners are live and actually awaiting a reply.
    for (t_ptr, perm) in thrds.iter() {
        if let Some(rp) = perm.value().reply_partner {
            check(
                thrds.contains(rp),
                "threads",
                format_args!("thread {t_ptr:#x} owes reply to dead thread {rp:#x}"),
            )?;
            check(
                matches!(thrds.value(rp).state, ThreadState::BlockedReply(_)),
                "threads",
                format_args!("reply partner {rp:#x} of {t_ptr:#x} is not awaiting reply"),
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmo_spec::{PointsTo, Seq, Set};

    fn fixture() -> (
        PermMap<Container>,
        PermMap<Process>,
        PermMap<Thread>,
        PermMap<Endpoint>,
    ) {
        let c_ptr = 0x1000;
        let p_ptr = 0x2000;
        let t_ptr = 0x3000;

        let mut c = Container::new_root(100, Set::empty());
        c.root_procs.push(p_ptr);
        c.owned_procs.assign(Set::from_slice(&[p_ptr]));
        c.owned_thrds.assign(Set::from_slice(&[t_ptr]));

        let mut p = Process::new(c_ptr, None, Seq::empty(), 1);
        p.threads.push(t_ptr);

        let t = Thread::new(p_ptr, c_ptr, 0);

        let mut cm = PermMap::new();
        cm.tracked_insert(c_ptr, PointsTo::new_init(c_ptr, c));
        let mut pm = PermMap::new();
        pm.tracked_insert(p_ptr, PointsTo::new_init(p_ptr, p));
        let mut tm = PermMap::new();
        tm.tracked_insert(t_ptr, PointsTo::new_init(t_ptr, t));
        (cm, pm, tm, PermMap::new())
    }

    #[test]
    fn healthy_thread_is_wf() {
        let (cm, pm, tm, em) = fixture();
        assert!(threads_wf(&cm, &pm, &tm, &em).is_ok());
    }

    #[test]
    fn detects_stale_container_cache() {
        let (cm, pm, mut tm, em) = fixture();
        let ptr = atmo_spec::PPtr::<Thread>::from_usize(0x3000);
        ptr.borrow_mut(tm.tracked_borrow_mut(0x3000)).owning_cntr = 0x9999;
        assert!(threads_wf(&cm, &pm, &tm, &em).is_err());
    }

    #[test]
    fn detects_dead_descriptor() {
        let (cm, pm, mut tm, em) = fixture();
        let ptr = atmo_spec::PPtr::<Thread>::from_usize(0x3000);
        ptr.borrow_mut(tm.tracked_borrow_mut(0x3000))
            .edpt_descriptors[0] = Some(0x7000);
        let err = threads_wf(&cm, &pm, &tm, &em).unwrap_err();
        assert!(err.detail.contains("dead endpoint"));
    }

    #[test]
    fn detects_blocked_thread_missing_from_queue() {
        let (cm, pm, mut tm, mut em) = fixture();
        em.tracked_insert(0x7000, PointsTo::new_init(0x7000, Endpoint::new(0x1000)));
        let ptr = atmo_spec::PPtr::<Thread>::from_usize(0x3000);
        ptr.borrow_mut(tm.tracked_borrow_mut(0x3000)).state = ThreadState::BlockedSend(0x7000);
        assert!(threads_wf(&cm, &pm, &tm, &em).is_err());
    }

    #[test]
    fn free_slot_scans_table() {
        let mut t = Thread::new(0x2000, 0x1000, 0);
        assert_eq!(t.free_slot(), Some(0));
        t.edpt_descriptors[0] = Some(0x7000);
        assert_eq!(t.free_slot(), Some(1));
        assert_eq!(t.descriptor(0), Some(0x7000));
        assert_eq!(t.descriptor(1), None);
        assert_eq!(t.descriptor(MAX_ENDPOINT_SLOTS + 5), None);
    }
}
