//! Endpoints: the IPC rendezvous objects (§3).
//!
//! "Processes can communicate via endpoints. A sender thread can pass
//! scalar data, references to memory pages, IOMMU identifiers, and
//! references to other endpoints." An endpoint queues either senders *or*
//! receivers (never both — a waiting sender would have matched a waiting
//! receiver immediately), and is reference-counted by the descriptor
//! slots that name it across all threads.

use atmo_spec::harness::{check, VerifResult};
use atmo_spec::PermMap;

use crate::staticlist::StaticList;
use crate::thread::Thread;
use crate::types::{CtnrPtr, ThrdPtr, ThreadState, MAX_ENDPOINT_QUEUE};

/// Which side of the rendezvous the queued threads are waiting on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum QueueSide {
    /// No thread queued.
    #[default]
    Idle,
    /// Queued threads are blocked senders.
    Senders,
    /// Queued threads are blocked receivers.
    Receivers,
}

/// An endpoint kernel object (one per 4 KiB page).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Endpoint {
    /// Threads blocked on this endpoint, FIFO.
    pub queue: StaticList<ThrdPtr, MAX_ENDPOINT_QUEUE>,
    /// Direction of the queued threads.
    pub side: QueueSide,
    /// Number of descriptor slots (across all threads) referencing this
    /// endpoint; the endpoint is destroyed when it reaches zero.
    pub refcount: usize,
    /// Container charged for this endpoint's page.
    pub owning_cntr: CtnrPtr,
}

impl Endpoint {
    /// A fresh endpoint charged to `cntr`, with one descriptor reference.
    pub fn new(cntr: CtnrPtr) -> Self {
        Endpoint {
            queue: StaticList::new(),
            side: QueueSide::Idle,
            refcount: 1,
            owning_cntr: cntr,
        }
    }
}

/// Global endpoint well-formedness (`endpoints_wf`), stated flat:
/// queue/side coherence, queued threads blocked in the matching direction,
/// and refcounts equal to the number of live descriptor slots.
pub fn endpoints_wf(thrds: &PermMap<Thread>, edpts: &PermMap<Endpoint>) -> VerifResult {
    for (e_ptr, perm) in edpts.iter() {
        let e = perm.value();

        check(
            e.queue.no_duplicates(),
            "endpoints",
            format_args!("endpoint {e_ptr:#x} queues a thread twice"),
        )?;
        check(
            (e.side == QueueSide::Idle) == e.queue.is_empty(),
            "endpoints",
            format_args!("endpoint {e_ptr:#x} queue/side mismatch"),
        )?;
        for t in e.queue.iter() {
            check(
                thrds.contains(t),
                "endpoints",
                format_args!("endpoint {e_ptr:#x} queues dead thread {t:#x}"),
            )?;
            let expected_ok = match (e.side, thrds.value(t).state) {
                (QueueSide::Senders, ThreadState::BlockedSend(on)) => on == e_ptr,
                (QueueSide::Receivers, ThreadState::BlockedRecv(on)) => on == e_ptr,
                _ => false,
            };
            check(
                expected_ok,
                "endpoints",
                format_args!(
                    "queued thread {t:#x} not blocked on {e_ptr:#x} in the right direction"
                ),
            )?;
        }

        // Refcount = number of descriptor slots naming this endpoint.
        let slots: usize = thrds
            .iter()
            .map(|(_, t)| {
                t.value()
                    .edpt_descriptors
                    .iter()
                    .filter(|d| **d == Some(e_ptr))
                    .count()
            })
            .sum();
        check(
            e.refcount == slots,
            "endpoints",
            format_args!(
                "endpoint {e_ptr:#x} refcount {} differs from descriptor count {slots}",
                e.refcount
            ),
        )?;
        check(
            e.refcount >= 1,
            "endpoints",
            format_args!("endpoint {e_ptr:#x} alive with zero references"),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Process;
    use atmo_spec::{PointsTo, Seq};

    fn thread_with_descriptor(_t_ptr: ThrdPtr, e_ptr: usize) -> Thread {
        let mut t = Thread::new(0x2000, 0x1000, 0);
        t.edpt_descriptors[0] = Some(e_ptr);
        t
    }

    #[test]
    fn healthy_endpoint_is_wf() {
        let e_ptr = 0x7000;
        let t_ptr = 0x3000;
        let mut tm = PermMap::new();
        tm.tracked_insert(
            t_ptr,
            PointsTo::new_init(t_ptr, thread_with_descriptor(t_ptr, e_ptr)),
        );
        let mut em = PermMap::new();
        em.tracked_insert(e_ptr, PointsTo::new_init(e_ptr, Endpoint::new(0x1000)));
        assert!(endpoints_wf(&tm, &em).is_ok());
    }

    #[test]
    fn detects_refcount_drift() {
        let e_ptr = 0x7000;
        let t_ptr = 0x3000;
        let mut tm = PermMap::new();
        tm.tracked_insert(
            t_ptr,
            PointsTo::new_init(t_ptr, thread_with_descriptor(t_ptr, e_ptr)),
        );
        let mut em = PermMap::new();
        let mut e = Endpoint::new(0x1000);
        e.refcount = 2; // only one descriptor exists
        em.tracked_insert(e_ptr, PointsTo::new_init(e_ptr, e));
        let err = endpoints_wf(&tm, &em).unwrap_err();
        assert!(err.detail.contains("refcount"));
    }

    #[test]
    fn detects_queue_side_mismatch() {
        let e_ptr = 0x7000;
        let t_ptr = 0x3000;
        let mut t = thread_with_descriptor(t_ptr, e_ptr);
        t.state = ThreadState::BlockedRecv(e_ptr);
        let mut tm = PermMap::new();
        tm.tracked_insert(t_ptr, PointsTo::new_init(t_ptr, t));
        let mut em = PermMap::new();
        let mut e = Endpoint::new(0x1000);
        e.queue.push(t_ptr);
        e.side = QueueSide::Senders; // but the thread is receiving
        em.tracked_insert(e_ptr, PointsTo::new_init(e_ptr, e));
        assert!(endpoints_wf(&tm, &em).is_err());
    }

    #[test]
    fn detects_idle_with_queued_threads() {
        let e_ptr = 0x7000;
        let t_ptr = 0x3000;
        let mut tm = PermMap::new();
        tm.tracked_insert(
            t_ptr,
            PointsTo::new_init(t_ptr, thread_with_descriptor(t_ptr, e_ptr)),
        );
        let mut em = PermMap::new();
        let mut e = Endpoint::new(0x1000);
        e.queue.push(t_ptr); // queued but side stays Idle
        em.tracked_insert(e_ptr, PointsTo::new_init(e_ptr, e));
        assert!(endpoints_wf(&tm, &em).is_err());
    }

    // Silence the unused-import lint in this test module.
    #[allow(unused)]
    fn _uses(p: Process, s: Seq<u32>) {}
}
