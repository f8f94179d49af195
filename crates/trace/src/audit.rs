//! Audit-ledger deltas: the incremental well-formedness substrate.
//!
//! Every kernel mutation that moves a page between closures, creates or
//! destroys a capability, fills or drains a per-CPU cache, or
//! acquires/releases a pool handle emits one [`AuditDelta`] into the
//! emitting CPU's audit ledger (when recording is enabled — see
//! [`TraceSink::set_audit_recording`](crate::TraceSink::set_audit_recording)).
//! The kernel's incremental auditor drains the per-CPU ledgers and folds
//! the deltas into commutative set folds
//! ([`atmo_spec::fold`]), re-establishing the global closure/leak
//! equations in O(touched) without taking a single domain lock or
//! draining a cache.
//!
//! Deltas ride in per-CPU ledgers beside the trace recorders — *not* in
//! the event rings — because the rings are bounded and reconciled
//! exactly per kind; ledger entries must never be dropped or
//! double-counted, and the auditor folds them in order, so they live in
//! their own unbounded-but-drained side channel. Each ledger is a mutex,
//! taken only while recording is on.

/// One incremental-audit ledger entry. Frames and identifiers are plain
/// `usize` (page pointers, address-space ids, endpoint pointers) so the
/// delta stays `Copy` and ledger pushes never allocate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditDelta {
    /// A page entered the process manager's closure (kernel object).
    PmAcquire(usize),
    /// A page left the process manager's closure.
    PmRelease(usize),
    /// A page entered a page table's closure (table frame).
    VmAcquire(usize),
    /// A page left a page table's closure.
    VmRelease(usize),
    /// A frame moved into the allocator's `Allocated` state.
    Allocated(usize),
    /// A frame left the allocator's `Allocated` state.
    Freed(usize),
    /// A head frame entered the allocator's `Mapped` state.
    MapInsert(usize),
    /// A head frame left the allocator's `Mapped` state (last reference).
    MapRemove(usize),
    /// A new reference site (page-table leaf, pending grant, IPC-buffer
    /// grant, IOMMU leaf) now names this frame.
    RefInc(usize),
    /// A reference site dropped this frame.
    RefDec(usize),
    /// A frame entered a per-CPU page cache (stays `Allocated`, belongs
    /// to no closure).
    CacheFill(usize),
    /// A frame left a per-CPU page cache.
    CacheDrain(usize),
    /// An address space was created in the VM subsystem.
    SpaceCreate(usize),
    /// An address space was destroyed.
    SpaceDestroy(usize),
    /// A process now claims this address-space id.
    ProcSpace(usize),
    /// A process stopped claiming this address-space id.
    ProcSpaceGone(usize),
    /// An endpoint capability was created.
    CapCreate(usize),
    /// An endpoint capability was destroyed.
    CapDestroy(usize),
    /// Net-pool handles moved in (+) or out (−) of flight.
    HandleNet(i64),
    /// Blk-pool handles moved in (+) or out (−) of flight.
    HandleBlk(i64),
    /// Ops appended to a node-replication operation log. The auditor
    /// balances the running sum against the logs' published tails, so a
    /// mutation that bypassed the log (or an append that bypassed the
    /// serializing domain lock) shows up as a ledger imbalance.
    NrAppended(u64),
    /// CPU-budget units granted to a container account (weight refill).
    /// Conservation: `granted = consumed + refunded + remaining`, so a
    /// grant raises both `granted` and `remaining`.
    BudgetGrant(u64),
    /// CPU-budget units consumed by a container's threads running
    /// (raises `consumed`, lowers `remaining`).
    BudgetCharge(u64),
    /// CPU-budget units refunded when an account is torn down (raises
    /// `refunded`, lowers `remaining` — the linear resource is returned,
    /// never dropped).
    BudgetRefund(u64),
}
