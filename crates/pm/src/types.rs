//! Shared process-manager types: pointers, thread states, IPC payloads.

use atmo_mem::PagePtr;

/// Raw pointer to a [`crate::Container`] (its backing page's address).
pub type CtnrPtr = usize;
/// Raw pointer to a [`crate::Process`].
pub type ProcPtr = usize;
/// Raw pointer to a [`crate::Thread`].
pub type ThrdPtr = usize;
/// Raw pointer to an [`crate::Endpoint`].
pub type EdptPtr = usize;
/// Index into a thread's endpoint-descriptor table.
pub type EdptIdx = usize;
/// A CPU core identifier.
pub type CpuId = usize;

/// Maximum direct children per container.
pub const MAX_CHILD_CONTAINERS: usize = 32;
/// Maximum direct child processes per process.
pub const MAX_CHILD_PROCESSES: usize = 32;
/// Maximum threads per process.
pub const MAX_PROC_THREADS: usize = 16;
/// Endpoint-descriptor slots per thread.
pub const MAX_ENDPOINT_SLOTS: usize = 16;
/// Maximum threads queued on one endpoint.
pub const MAX_ENDPOINT_QUEUE: usize = 32;

/// Scheduling / blocking state of a thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ThreadState {
    /// Runnable, waiting in a per-CPU ready queue.
    #[default]
    Ready,
    /// Currently executing on the given CPU.
    Running(CpuId),
    /// Blocked in `send`/`call` on an endpoint, waiting for a receiver.
    BlockedSend(EdptPtr),
    /// Blocked in `recv` on an endpoint, waiting for a sender.
    BlockedRecv(EdptPtr),
    /// Blocked in `call` waiting for the `reply`.
    BlockedReply(EdptPtr),
}

/// What a sender passes through an endpoint (§3: "scalar data, references
/// to memory pages, IOMMU identifiers, and references to other
/// endpoints").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct IpcPayload {
    /// Scalar register payload.
    pub scalars: [u64; 4],
    /// An optional page grant (the head frame being shared).
    pub page_grant: Option<PagePtr>,
    /// An optional endpoint grant (installed into a free descriptor slot
    /// of the receiver).
    pub endpoint_grant: Option<EdptPtr>,
    /// An optional IOMMU domain identifier grant.
    pub iommu_grant: Option<u32>,
}

impl IpcPayload {
    /// A payload carrying only scalars.
    pub fn scalars(scalars: [u64; 4]) -> Self {
        IpcPayload {
            scalars,
            ..Default::default()
        }
    }
}

/// Process-manager errors; these surface as system-call return codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PmError {
    /// The container's memory quota is exhausted.
    QuotaExceeded,
    /// The machine is out of physical memory.
    OutOfMemory,
    /// A fixed-capacity list is full.
    CapacityExceeded,
    /// The referenced object does not exist.
    NotFound,
    /// The arguments are malformed (bad slot index, bad CPU, ...).
    InvalidArgument,
    /// The operation needs a CPU the container does not own.
    CpuNotOwned,
    /// A CPU to hand to a child container still homes a thread of the
    /// parent's subtree.
    CpuBusy,
    /// The target endpoint's queue is full.
    EndpointFull,
    /// The operation would orphan live children (e.g. terminating a
    /// container that still has child containers requires recursion).
    NotEmpty,
    /// The caller is not permitted (e.g. terminating a non-descendant).
    Denied,
    /// The thread is not in a state that allows the operation.
    WrongState,
}

impl From<atmo_mem::AllocError> for PmError {
    fn from(_: atmo_mem::AllocError) -> Self {
        PmError::OutOfMemory
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_default_is_pure_scalar() {
        let p = IpcPayload::scalars([1, 2, 3, 4]);
        assert_eq!(p.scalars, [1, 2, 3, 4]);
        assert!(p.page_grant.is_none());
        assert!(p.endpoint_grant.is_none());
        assert!(p.iommu_grant.is_none());
    }

    #[test]
    fn alloc_error_converts() {
        let e: PmError = atmo_mem::AllocError::OutOfMemory.into();
        assert_eq!(e, PmError::OutOfMemory);
    }
}
