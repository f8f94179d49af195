//! The incremental well-formedness auditor: O(touched) ledger folds.
//!
//! The stop-the-world `total_wf` audit
//! ([`SmpKernel::audit_total_wf`](crate::smp::SmpKernel::audit_total_wf))
//! re-establishes the §4.2 cross-domain equations by taking every lock,
//! draining every per-CPU page cache, and rebuilding the page-closure
//! sets from scratch — O(kernel). This module is the incremental
//! alternative: every mutation emits an
//! [`AuditDelta`] into its CPU's trace-shard ledger, and
//! [`AuditState`] maintains each audited set as a commutative
//! [`SetFold`]/[`RefFold`] so re-checking the equations after a batch of
//! syscalls costs O(touched ledger entries) — no domain locks, no cache
//! drain, no stop-the-world.
//!
//! The audited equations are the incremental images of
//! [`cross_domain_wf`](crate::refine::cross_domain_wf):
//!
//! * **closure-partition** — `pm ⊎ vm ⊎ cached == allocated`: the
//!   process manager's closure, the VM subsystem's closure, and the
//!   per-CPU cache-resident frames partition the allocator's
//!   `Allocated` set. (The flat audit drains caches first, so its
//!   version has no `cached` term; the incremental one audits *through*
//!   the caches.)
//! * **space-bijection** — `spaces == proc_spaces`: live address spaces
//!   are exactly the spaces live processes claim.
//! * **leak-freedom** — `support(refs) == mapped`: the frames with at
//!   least one live reference *site* (page-table leaf, pending grant,
//!   IPC-buffer grant, IOMMU leaf) are exactly the allocator's mapped
//!   heads.
//! * **handle-ledger** — folded net/blk pool-handle deltas equal the
//!   sink's in-flight gauges (and never go negative).
//! * **budget-conservation** — scheduler CPU budget is a linear
//!   resource: `granted == consumed + refunded + remaining` and
//!   `remaining >= 0`, folded from the grant/charge/refund deltas the
//!   multi-tenant scheduler emits and cross-checked against the
//!   scheduler's lifetime totals (live plus retired accounts).
//!
//! Soundness: folds compare in O(1) but are fingerprints, so equality
//! is probabilistic (see [`atmo_spec::fold`]). The epoch-boundary flat
//! audit therefore [`cross_check`](AuditState::cross_check)s the
//! incremental folds against a fresh full scan
//! ([`AuditState::from_kernel`]) bit-for-bit, bounding how long a
//! fingerprint collision could survive.

use atmo_mem::PageClosure;
use atmo_spec::fold::{RefFold, SetFold};
use atmo_spec::harness::{check_eqn, VerifResult};
use atmo_trace::AuditDelta;

use crate::kernel::Kernel;

/// The folded image of every cross-domain audited set.
///
/// Maintained two ways: incrementally ([`apply`](AuditState::apply) per
/// ledger delta) and by full scan ([`from_kernel`](AuditState::from_kernel));
/// the epoch audit compares the two.
#[derive(Clone, Debug, Default)]
pub struct AuditState {
    /// The process manager's page closure (kernel-object frames).
    pub pm: SetFold,
    /// The VM subsystem's page closure (page-table and IOMMU frames).
    pub vm: SetFold,
    /// Frames resident in a per-CPU page cache (allocated, no closure).
    pub cached: SetFold,
    /// The allocator's `Allocated` set.
    pub allocated: SetFold,
    /// The allocator's mapped heads.
    pub mapped: SetFold,
    /// Reference sites over frames (leaf entries, grants, IOMMU leaves).
    pub refs: RefFold,
    /// Live address spaces in the VM subsystem.
    pub spaces: SetFold,
    /// Address spaces claimed by live processes.
    pub proc_spaces: SetFold,
    /// Live endpoint capabilities.
    pub caps: SetFold,
    /// Net-pool handles in flight.
    pub net_handles: i64,
    /// Blk-pool handles in flight.
    pub blk_handles: i64,
    /// Ops appended to the node-replication logs since recording began.
    /// A running sum, not a fold: the epoch audit balances it against
    /// the logs' published tails (minus the tails at baseline), so a
    /// mutation that skipped the log is named. Zero when node
    /// replication is off; [`from_kernel`](AuditState::from_kernel)
    /// leaves it zero (the flat kernel has no logs), so
    /// [`cross_check`](AuditState::cross_check) does not compare it —
    /// the replica audit in `audit_total_wf` owns that equation.
    pub nr_appended: u64,
    /// Lifetime scheduler budget units granted by refills (monotone).
    pub budget_granted: u64,
    /// Lifetime budget units consumed by running threads (monotone).
    pub budget_consumed: u64,
    /// Lifetime budget units refunded at account teardown (monotone).
    pub budget_refunded: u64,
    /// Budget units currently spendable. Signed so a double charge
    /// drives it negative and the conservation check names it instead
    /// of wrapping.
    pub budget_remaining: i64,
}

impl AuditState {
    /// The empty state (a kernel with nothing allocated).
    pub fn new() -> Self {
        AuditState::default()
    }

    /// Folds one ledger delta. O(1); commutative with any other delta,
    /// so per-CPU ledgers may be folded in any interleaving.
    pub fn apply(&mut self, d: AuditDelta) {
        match d {
            AuditDelta::PmAcquire(p) => self.pm.insert(p as u64),
            AuditDelta::PmRelease(p) => self.pm.remove(p as u64),
            AuditDelta::VmAcquire(p) => self.vm.insert(p as u64),
            AuditDelta::VmRelease(p) => self.vm.remove(p as u64),
            AuditDelta::Allocated(p) => self.allocated.insert(p as u64),
            AuditDelta::Freed(p) => self.allocated.remove(p as u64),
            AuditDelta::MapInsert(p) => self.mapped.insert(p as u64),
            AuditDelta::MapRemove(p) => self.mapped.remove(p as u64),
            AuditDelta::RefInc(p) => self.refs.inc(p as u64),
            AuditDelta::RefDec(p) => self.refs.dec(p as u64),
            AuditDelta::CacheFill(p) => self.cached.insert(p as u64),
            AuditDelta::CacheDrain(p) => self.cached.remove(p as u64),
            AuditDelta::SpaceCreate(s) => self.spaces.insert(s as u64),
            AuditDelta::SpaceDestroy(s) => self.spaces.remove(s as u64),
            AuditDelta::ProcSpace(s) => self.proc_spaces.insert(s as u64),
            AuditDelta::ProcSpaceGone(s) => self.proc_spaces.remove(s as u64),
            AuditDelta::CapCreate(e) => self.caps.insert(e as u64),
            AuditDelta::CapDestroy(e) => self.caps.remove(e as u64),
            AuditDelta::HandleNet(n) => self.net_handles += n,
            AuditDelta::HandleBlk(n) => self.blk_handles += n,
            AuditDelta::NrAppended(n) => self.nr_appended += n,
            AuditDelta::BudgetGrant(n) => {
                self.budget_granted += n;
                self.budget_remaining += n as i64;
            }
            AuditDelta::BudgetCharge(n) => {
                self.budget_consumed += n;
                self.budget_remaining -= n as i64;
            }
            AuditDelta::BudgetRefund(n) => {
                self.budget_refunded += n;
                self.budget_remaining -= n as i64;
            }
        }
    }

    /// Checks the global equations against the folded state. O(1) — no
    /// set is materialized. `net_expect`/`blk_expect` are the trace
    /// sink's in-flight gauges at the audit point (the audit runs at
    /// quiescent points, so the gauges are stable).
    pub fn check(&self, net_expect: i64, blk_expect: i64) -> VerifResult {
        check_eqn(
            self.pm
                .disjoint_union(&self.vm)
                .disjoint_union(&self.cached)
                == self.allocated,
            "audit_ledger",
            "pm+mem",
            "closure-partition",
            format_args!(
                "pm ⊎ vm ⊎ cached != allocated (counts {}+{}+{} vs {})",
                self.pm.count, self.vm.count, self.cached.count, self.allocated.count
            ),
        )?;
        check_eqn(
            self.spaces == self.proc_spaces,
            "audit_ledger",
            "pm+mem",
            "space-bijection",
            format_args!(
                "address-space folds diverge ({} spaces vs {} process claims)",
                self.spaces.count, self.proc_spaces.count
            ),
        )?;
        check_eqn(
            self.refs.support() == self.mapped,
            "audit_ledger",
            "pm+mem",
            "leak-freedom",
            format_args!(
                "referenced-frame support != mapped heads ({} supported, {} sites, {} mapped)",
                self.refs.support().count,
                self.refs.total(),
                self.mapped.count
            ),
        )?;
        check_eqn(
            self.net_handles >= 0 && self.net_handles == net_expect,
            "audit_ledger",
            "trace",
            "handle-ledger",
            format_args!(
                "net handle fold {} != in-flight gauge {net_expect}",
                self.net_handles
            ),
        )?;
        check_eqn(
            self.blk_handles >= 0 && self.blk_handles == blk_expect,
            "audit_ledger",
            "trace",
            "handle-ledger",
            format_args!(
                "blk handle fold {} != in-flight gauge {blk_expect}",
                self.blk_handles
            ),
        )?;
        check_eqn(
            self.budget_remaining >= 0
                && self.budget_granted
                    == self.budget_consumed + self.budget_refunded + self.budget_remaining as u64,
            "audit_ledger",
            "scheduler",
            "budget-conservation",
            format_args!(
                "budget not conserved: {} granted != {} consumed + {} refunded + {} remaining",
                self.budget_granted,
                self.budget_consumed,
                self.budget_refunded,
                self.budget_remaining
            ),
        )
    }

    /// Rebuilds the folded state by a full scan of a flat kernel — the
    /// O(kernel) baseline and the epoch cross-check's ground truth.
    ///
    /// Must run with the caches drained (the state a
    /// [`with_kernel`](crate::smp::SmpKernel::with_kernel) closure
    /// observes): cache-resident frames are invisible to the flat scan,
    /// so `cached` starts empty.
    pub fn from_kernel(k: &Kernel) -> Self {
        let mut s = AuditState::new();
        for p in k.pm.page_closure().iter() {
            s.pm.insert(*p as u64);
        }
        for p in k.mem.vm.page_closure().iter() {
            s.vm.insert(*p as u64);
        }
        for p in k.mem.alloc.allocated_pages().iter() {
            s.allocated.insert(p as u64);
        }
        for p in k.mem.alloc.mapped_pages().iter() {
            s.mapped.insert(p as u64);
        }
        // Reference *sites*, multiplicity preserved: every page-table
        // leaf entry, every IOMMU leaf, every pending grant, every
        // in-buffer grant is one site.
        for id in k.mem.vm.spaces().iter() {
            k.mem
                .vm
                .table(*id)
                .expect("space")
                .visit_leaf_sites(|f| s.refs.inc(f as u64));
            s.spaces.insert(*id as u64);
        }
        k.mem.vm.iommu.visit_leaf_sites(|f| s.refs.inc(f as u64));
        for (_t, frame) in k.mem.pending_grants.iter() {
            s.refs.inc(*frame as u64);
        }
        for (_t, perm) in k.pm.thrd_perms.iter() {
            if let Some(buf) = perm.value().ipc_buf {
                if let Some(frame) = buf.page_grant {
                    s.refs.inc(frame as u64);
                }
            }
        }
        for (_p, perm) in k.pm.proc_perms.iter() {
            s.proc_spaces.insert(perm.value().addr_space as u64);
        }
        for (e, _) in k.pm.edpt_perms.iter() {
            s.caps.insert(e as u64);
        }
        s.net_handles = k.trace.net_in_flight();
        s.blk_handles = k.trace.blk_in_flight();
        let (granted, consumed, refunded, remaining) = k.pm.sched.budget_totals();
        s.budget_granted = granted;
        s.budget_consumed = consumed;
        s.budget_refunded = refunded;
        s.budget_remaining = remaining as i64;
        s
    }

    /// Compares this (incrementally maintained) state against a freshly
    /// scanned `flat` one, component by component. This is the epoch
    /// boundary's bit-for-bit reconciliation: any drift between the
    /// ledger fold and the real kernel state — a missed delta, a double
    /// emission, a fingerprint collision — is named here.
    pub fn cross_check(&self, flat: &AuditState) -> VerifResult {
        let folds = [
            ("pm closure", "closure-partition", self.pm, flat.pm),
            ("vm closure", "closure-partition", self.vm, flat.vm),
            (
                "cached frames",
                "closure-partition",
                self.cached,
                flat.cached,
            ),
            (
                "allocated set",
                "closure-partition",
                self.allocated,
                flat.allocated,
            ),
            ("mapped heads", "leak-freedom", self.mapped, flat.mapped),
            ("space set", "space-bijection", self.spaces, flat.spaces),
            (
                "process spaces",
                "space-bijection",
                self.proc_spaces,
                flat.proc_spaces,
            ),
            ("capability set", "cap-ledger", self.caps, flat.caps),
        ];
        for (name, eqn, inc, full) in folds {
            check_eqn(inc == full, "audit_ledger", "pm+mem", eqn, format_args!(
                    "incremental {name} fold (count {}, fp {:#x}) != full scan (count {}, fp {:#x})",
                    inc.count, inc.fp, full.count, full.fp
                ))?;
        }
        check_eqn(
            self.refs == flat.refs,
            "audit_ledger",
            "pm+mem",
            "leak-freedom",
            format_args!(
                    "incremental reference fold ({} sites, {} supported) != full scan ({} sites, {} supported)",
                    self.refs.total(),
                    self.refs.support().count,
                    flat.refs.total(),
                    flat.refs.support().count
                ),
        )?;
        check_eqn(
            self.net_handles == flat.net_handles && self.blk_handles == flat.blk_handles,
            "audit_ledger",
            "trace",
            "handle-ledger",
            format_args!(
                "incremental handle gauges (net {}, blk {}) != sink gauges (net {}, blk {})",
                self.net_handles, self.blk_handles, flat.net_handles, flat.blk_handles
            ),
        )?;
        check_eqn(
            self.budget_granted == flat.budget_granted
                && self.budget_consumed == flat.budget_consumed
                && self.budget_refunded == flat.budget_refunded
                && self.budget_remaining == flat.budget_remaining,
            "audit_ledger",
            "scheduler",
            "budget-conservation",
            format_args!(
                "incremental budget ledger ({}/{}/{}/{}) != scheduler totals ({}/{}/{}/{})",
                self.budget_granted,
                self.budget_consumed,
                self.budget_refunded,
                self.budget_remaining,
                flat.budget_granted,
                flat.budget_consumed,
                flat.budget_refunded,
                flat.budget_remaining
            ),
        )
    }
}

/// The auditor a sharded kernel carries: the folded state plus a
/// reusable drain buffer, so the steady-state incremental audit
/// allocates nothing.
#[derive(Debug, Default)]
pub struct Auditor {
    /// The incrementally maintained folds.
    pub state: AuditState,
    /// Reusable ledger-drain scratch; grows to the high-water mark of
    /// deltas per audit interval and is then reused forever.
    pub scratch: Vec<AuditDelta>,
    /// The node-replication logs' (pm, mem) published tails at baseline
    /// time. `audit_total_wf` balances `state.nr_appended` — the sum of
    /// [`AuditDelta::NrAppended`] entries folded since the baseline —
    /// against the tails' growth past this point. `(0, 0)` when node
    /// replication is off (the tails also sit at their creation value,
    /// so the equation degenerates to `0 == growth`).
    pub nr_base: (u64, u64),
}

impl Auditor {
    /// An auditor baselined on a freshly scanned flat kernel.
    pub fn baselined(k: &Kernel) -> Self {
        Auditor {
            state: AuditState::from_kernel(k),
            scratch: Vec::new(),
            nr_base: (0, 0),
        }
    }

    /// Folds every delta in the scratch buffer into the state,
    /// returning how many were folded. The buffer is left intact so a
    /// failing audit can name its entries.
    pub fn fold_scratch(&mut self) -> u64 {
        for d in self.scratch.iter() {
            self.state.apply(*d);
        }
        self.scratch.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelConfig;

    #[test]
    fn boot_scan_passes_equations() {
        let k = Kernel::boot(KernelConfig::default());
        let s = AuditState::from_kernel(&k);
        let r = s.check(0, 0);
        assert!(r.is_ok(), "{r:?}");
        assert!(s.cross_check(&AuditState::from_kernel(&k)).is_ok());
    }

    #[test]
    fn deltas_fold_to_the_rescanned_state() {
        // A syscall's worth of mutations, emitted as deltas by hand,
        // must carry the boot fold to the post-state fold.
        let mut k = Kernel::boot(KernelConfig::default());
        let mut s = AuditState::from_kernel(&k);
        k.trace.set_audit_recording(true);
        let ret = k.syscall(
            0,
            crate::syscall::SyscallArgs::Mmap {
                va_base: 0x40_0000,
                len: 4,
                writable: true,
            },
        );
        assert!(ret.is_ok());
        let mut ledger = Vec::new();
        k.trace.drain_audit_ledgers(&mut ledger);
        assert!(!ledger.is_empty(), "mmap must emit deltas");
        for d in ledger {
            s.apply(d);
        }
        let flat = AuditState::from_kernel(&k);
        let r = s.cross_check(&flat);
        assert!(r.is_ok(), "{r:?}");
        assert!(s.check(0, 0).is_ok());
    }

    #[test]
    fn a_dropped_delta_is_named_by_the_cross_check() {
        let k = Kernel::boot(KernelConfig::default());
        let mut s = AuditState::from_kernel(&k);
        // Simulate a lost MapInsert: the fold diverges from the rescan.
        s.mapped.remove(0xdead);
        let e = s.cross_check(&AuditState::from_kernel(&k)).unwrap_err();
        assert_eq!(e.equation, Some("leak-freedom"));
        assert_eq!(e.domain, Some("pm+mem"));
        assert!(e.detail.contains("mapped heads"), "{e}");
    }

    #[test]
    fn handle_gauge_divergence_is_caught() {
        let mut s = AuditState::new();
        s.apply(AuditDelta::HandleNet(2));
        s.apply(AuditDelta::HandleNet(-1));
        assert_eq!(s.net_handles, 1);
        let e = s.check(0, 0).unwrap_err();
        assert_eq!(e.equation, Some("handle-ledger"));
    }
}
