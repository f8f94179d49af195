//! `ipc-rpc`: request/reply round trips between client and server threads.
//!
//! Two modeled CPUs on a sharded kernel; per CPU one server and four
//! clients share a request endpoint (descriptor slot 0). 15 of every 16
//! requests are `Call`/`ReplyRecv` (the direct handoff, its every-eighth
//! budget fallback, and the queue-and-drain cascade that follows a
//! fallback when four clients are runnable); 1 of 16 is decomposed into
//! `Send`/`Recv`/`TakeMsg` rendezvous legs, its reply travelling over a
//! second per-CPU endpoint (slot 1) because a reply `Send` on the shared
//! request endpoint would be taken for a request.
//!
//! Why it exists: these are the smallest syscalls, so dispatch and
//! trampoline (`kernel`), endpoints, handoff and slot cache (`pm`) and the
//! per-syscall `trace` bumps are nearly all of the cost; `mem`, `ptable`,
//! `nr`, `drivers` and `apps` do nothing (gated: no mem-lock acquisition).
//!
//! The kernel runs threads, not programs: the driver has to know which
//! thread a CPU will run next to issue that thread's next syscall. It
//! keeps a FIFO shadow of the run queue and both endpoints ([`Shadow`])
//! and checks every syscall's return value against the shadow's
//! prediction, so a drift counts as a failed op at once.

use std::collections::VecDeque;

use atmo_kernel::{Kernel, KernelConfig, SmpKernel, SyscallArgs};

use crate::harness::{sys_smp, Ctx, Gates, Workload};
use crate::metrics::Extras;
use crate::probe::Counts;
use crate::rng::{Deck, Rng};

const NCPUS: usize = 2;
const CLIENTS: usize = 4;
/// Thread index of the server; clients are `1..=CLIENTS`.
const SERVER: u8 = 0;
/// Slot of the request endpoint, and of the reply endpoint of the
/// decomposed leg.
const REQ: usize = 0;
const REP: usize = 1;
/// Consecutive direct handoffs before the kernel forces a trip through
/// the run queue (`atmo_pm::manager::HANDOFF_BUDGET`; a wrong value here
/// shows as failed predictions).
const HANDOFF_BUDGET: u32 = 8;
/// Request-tag bit marking the decomposed Send/Recv mode.
const SLOW: u64 = 0x80;

const FAST_CARD: u16 = 0;
const SLOW_CARD: u16 = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Side {
    Idle,
    Senders,
    Receivers,
}

/// FIFO shadow of one CPU's scheduler and its two endpoints.
struct Shadow {
    cur: u8,
    runq: VecDeque<u8>,
    req_side: Side,
    req_q: VecDeque<u8>,
    rep_side: Side,
    rep_q: VecDeque<u8>,
    streak: u32,
    /// The client the server owes a reply.
    partner: Option<u8>,
    /// Whether a thread queued as a sender is a caller.
    calling: [bool; CLIENTS + 1],
}

impl Shadow {
    fn block_current(&mut self) {
        self.cur = self
            .runq
            .pop_front()
            .expect("some thread is always runnable");
        self.streak = 0;
    }

    fn pop(q: &mut VecDeque<u8>, side: &mut Side) -> u8 {
        let t = q.pop_front().expect("non-idle endpoint queue");
        if q.is_empty() {
            *side = Side::Idle;
        }
        t
    }
}

#[derive(Clone, Copy, Debug)]
enum ClientNext {
    Issue,
    /// The decomposed request is sent; receive the reply.
    RecvReply,
    /// A reply sits in the mailbox.
    TakeReply,
}

#[derive(Clone, Copy, Debug)]
enum ServerNext {
    TakeReq,
    Respond { tag: u64, seq: u64 },
    RecvReq,
}

struct Cpu {
    id: usize,
    /// Thread pointers by thread index.
    ptr: [u64; CLIENTS + 1],
    sh: Shadow,
    client: [ClientNext; CLIENTS + 1],
    server: ServerNext,
    /// Outstanding request of each client: sequence number, mode and
    /// start clock.
    seq: [u64; CLIENTS + 1],
    slow: [bool; CLIENTS + 1],
    started: [u64; CLIENTS + 1],
    deck: Deck,
    rng: Rng,
    clock: u64,
}

pub struct IpcRpc {
    k: SmpKernel,
    cpus: Vec<Cpu>,
    ops_per_slice: usize,
}

fn send(slot: usize, scalars: [u64; 4]) -> SyscallArgs {
    SyscallArgs::Send {
        slot,
        scalars,
        grant_page_va: None,
        grant_endpoint_slot: None,
        grant_iommu_domain: None,
    }
}

impl Cpu {
    fn tag(&self, client: u8, slow: bool) -> u64 {
        ((self.id as u64 + 1) << 8) | client as u64 | if slow { SLOW } else { 0 }
    }

    /// Issues the current thread's next syscall. Returns `true` when a
    /// round trip completed.
    fn step(&mut self, k: &SmpKernel, ctx: &mut Ctx) -> bool {
        let t = self.sh.cur;
        if t == SERVER {
            self.server_step(k, ctx);
            false
        } else {
            self.client_step(k, ctx, t)
        }
    }

    fn complete(&mut self, ctx: &mut Ctx, c: u8, reply: [u64; 4]) {
        // The reply must echo this client's request.
        let slow = self.slow[c as usize];
        ctx.expect(reply == [self.tag(c, slow), self.seq[c as usize], 0, 0]);
        self.client[c as usize] = ClientNext::Issue;
    }

    fn client_step(&mut self, k: &SmpKernel, ctx: &mut Ctx, c: u8) -> bool {
        let ci = c as usize;
        let server_ptr = self.ptr[SERVER as usize];
        match self.client[ci] {
            ClientNext::Issue => {
                self.seq[ci] += 1;
                self.started[ci] = self.clock;
                self.slow[ci] = self.deck.deal(&mut self.rng) == SLOW_CARD;
                if !self.slow[ci] {
                    let scalars = [self.tag(c, false), self.seq[ci], 0, 0];
                    let sh = &mut self.sh;
                    let expect = if sh.req_side == Side::Receivers && sh.streak < HANDOFF_BUDGET {
                        Shadow::pop(&mut sh.req_q, &mut sh.req_side);
                        sh.partner = Some(c);
                        sh.cur = SERVER;
                        sh.streak += 1;
                        [1, server_ptr, 0, 0]
                    } else if sh.req_side == Side::Receivers {
                        Shadow::pop(&mut sh.req_q, &mut sh.req_side);
                        sh.partner = Some(c);
                        sh.runq.push_back(SERVER);
                        sh.block_current();
                        [0; 4]
                    } else {
                        sh.req_q.push_back(c);
                        sh.req_side = Side::Senders;
                        sh.calling[ci] = true;
                        sh.block_current();
                        [0; 4]
                    };
                    let r = sys_smp(
                        k,
                        &mut ctx.tr,
                        self.id,
                        SyscallArgs::Call { slot: REQ, scalars },
                    );
                    ctx.expect(r.result == Ok(expect));
                    self.client[ci] = ClientNext::TakeReply;
                } else {
                    let scalars = [self.tag(c, true), self.seq[ci], 0, 0];
                    let sh = &mut self.sh;
                    let expect = if sh.req_side == Side::Receivers {
                        Shadow::pop(&mut sh.req_q, &mut sh.req_side);
                        sh.runq.push_back(SERVER);
                        [1, server_ptr, 0, 0]
                    } else {
                        sh.req_q.push_back(c);
                        sh.req_side = Side::Senders;
                        sh.calling[ci] = false;
                        sh.block_current();
                        [0; 4]
                    };
                    let r = sys_smp(k, &mut ctx.tr, self.id, send(REQ, scalars));
                    ctx.expect(r.result == Ok(expect));
                    self.client[ci] = ClientNext::RecvReply;
                }
                false
            }
            ClientNext::RecvReply => {
                let sh = &mut self.sh;
                let received = if sh.rep_side == Side::Senders {
                    // The server is queued with the reply: taken at once.
                    Shadow::pop(&mut sh.rep_q, &mut sh.rep_side);
                    sh.runq.push_back(SERVER);
                    true
                } else {
                    sh.rep_q.push_back(c);
                    sh.rep_side = Side::Receivers;
                    sh.block_current();
                    false
                };
                let r = sys_smp(k, &mut ctx.tr, self.id, SyscallArgs::Recv { slot: REP });
                if received {
                    self.complete(ctx, c, r.result.unwrap_or([u64::MAX; 4]));
                } else {
                    ctx.expect(r.result == Ok([0; 4]));
                    self.client[ci] = ClientNext::TakeReply;
                }
                received
            }
            ClientNext::TakeReply => {
                let r = sys_smp(k, &mut ctx.tr, self.id, SyscallArgs::TakeMsg);
                self.complete(ctx, c, r.result.unwrap_or([u64::MAX; 4]));
                true
            }
        }
    }

    fn server_step(&mut self, k: &SmpKernel, ctx: &mut Ctx) {
        match self.server {
            ServerNext::TakeReq => {
                let r = sys_smp(k, &mut ctx.tr, self.id, SyscallArgs::TakeMsg);
                self.server = self.accept(ctx, r.result.ok());
            }
            ServerNext::Respond { tag, seq } if tag & SLOW == 0 => {
                let sh = &mut self.sh;
                let p = sh.partner.take().unwrap_or(SERVER);
                // A Call-mode request is answered to the caller it names.
                ctx.expect(u64::from(p) == tag & 0x7f);
                let miss = sh.req_side == Side::Senders || sh.streak >= HANDOFF_BUDGET;
                let mut handed_off = false;
                let mut next_req = None;
                if !miss {
                    sh.req_q.push_back(SERVER);
                    sh.req_side = Side::Receivers;
                    sh.cur = p;
                    sh.streak += 1;
                    handed_off = true;
                } else {
                    sh.runq.push_back(p);
                    if sh.req_side == Side::Senders {
                        let y = Shadow::pop(&mut sh.req_q, &mut sh.req_side);
                        if sh.calling[y as usize] {
                            sh.partner = Some(y);
                        } else {
                            sh.runq.push_back(y);
                        }
                        next_req = Some(y);
                    } else {
                        sh.req_q.push_back(SERVER);
                        sh.req_side = Side::Receivers;
                        sh.block_current();
                    }
                }
                let r = sys_smp(
                    k,
                    &mut ctx.tr,
                    self.id,
                    SyscallArgs::ReplyRecv {
                        slot: REQ,
                        scalars: [tag, seq, 0, 0],
                    },
                );
                self.server = if handed_off {
                    ctx.expect(r.result == Ok([1, self.ptr[p as usize], 0, 0]));
                    ServerNext::TakeReq
                } else if let Some(y) = next_req {
                    let next = self.accept(ctx, r.result.ok());
                    if let ServerNext::Respond { tag, .. } = next {
                        ctx.expect(tag & 0x7f == u64::from(y));
                    }
                    next
                } else {
                    ctx.expect(r.result == Ok([0; 4]));
                    ServerNext::TakeReq
                };
            }
            ServerNext::Respond { tag, seq } => {
                // Decomposed mode: the reply is a plain Send on the reply
                // endpoint, then a plain Recv re-opens the request endpoint.
                let sh = &mut self.sh;
                let expect = if sh.rep_side == Side::Receivers {
                    let c = Shadow::pop(&mut sh.rep_q, &mut sh.rep_side);
                    sh.runq.push_back(c);
                    [1, self.ptr[c as usize], 0, 0]
                } else {
                    sh.rep_q.push_back(SERVER);
                    sh.rep_side = Side::Senders;
                    sh.block_current();
                    [0; 4]
                };
                let r = sys_smp(k, &mut ctx.tr, self.id, send(REP, [tag, seq, 0, 0]));
                ctx.expect(r.result == Ok(expect));
                self.server = ServerNext::RecvReq;
            }
            ServerNext::RecvReq => {
                let sh = &mut self.sh;
                let received = if sh.req_side == Side::Senders {
                    let y = Shadow::pop(&mut sh.req_q, &mut sh.req_side);
                    if sh.calling[y as usize] {
                        sh.partner = Some(y);
                    } else {
                        sh.runq.push_back(y);
                    }
                    true
                } else {
                    sh.req_q.push_back(SERVER);
                    sh.req_side = Side::Receivers;
                    sh.block_current();
                    false
                };
                let r = sys_smp(k, &mut ctx.tr, self.id, SyscallArgs::Recv { slot: REQ });
                self.server = if received {
                    self.accept(ctx, r.result.ok())
                } else {
                    ctx.expect(r.result == Ok([0; 4]));
                    ServerNext::TakeReq
                };
            }
        }
    }

    /// Validates a request the server just received.
    fn accept(&self, ctx: &mut Ctx, msg: Option<[u64; 4]>) -> ServerNext {
        let [tag, seq, ..] = msg.unwrap_or([0; 4]);
        let client = (tag & 0x7f) as usize;
        let well_formed = tag >> 8 == self.id as u64 + 1
            && (1..=CLIENTS).contains(&client)
            && seq == self.seq[client.min(CLIENTS)];
        ctx.expect(well_formed);
        ServerNext::Respond { tag, seq }
    }
}

impl Workload for IpcRpc {
    const NAME: &'static str = "ipc-rpc";
    const OPS_PER_SLICE_PER_SECOND: usize = 12_000;

    fn setup(seed: u64, ops_per_slice: usize) -> Self {
        let mut k = Kernel::boot(KernelConfig {
            mem_mib: 64,
            ncpus: NCPUS,
            root_quota: 4096,
        });
        let init_proc = k.init_proc;
        let mut cpus = Vec::with_capacity(NCPUS);
        for cpu in 0..NCPUS {
            let new_thread = |k: &mut Kernel| {
                k.syscall(
                    0,
                    SyscallArgs::NewThread {
                        proc: init_proc,
                        cpu,
                    },
                )
                .val0()
            };
            // Creation order is run-queue order: the server first.
            let mut ptr = [0u64; CLIENTS + 1];
            ptr[SERVER as usize] = new_thread(&mut k);
            for (i, p) in ptr.iter_mut().enumerate().skip(1) {
                // CPU 0's first client is the init thread, already running.
                *p = if cpu == 0 && i == 1 {
                    k.init_thread as u64
                } else {
                    new_thread(&mut k)
                };
            }
            // Both endpoints are created through the init thread (in spare
            // slots), then installed in every thread of this CPU.
            let req = k
                .syscall(0, SyscallArgs::NewEndpoint { slot: 2 * cpu + 2 })
                .val0() as usize;
            let rep = k
                .syscall(0, SyscallArgs::NewEndpoint { slot: 2 * cpu + 3 })
                .val0() as usize;
            for &t in &ptr {
                k.pm.install_descriptor(t as usize, REQ, req)
                    .expect("request endpoint installs");
                k.pm.install_descriptor(t as usize, REP, rep)
                    .expect("reply endpoint installs");
            }
            // Park the server as the request endpoint's receiver.
            let runq: VecDeque<u8> = if cpu == 0 {
                // init (client 1) yields to the queue head — the server.
                let r = k.syscall(0, SyscallArgs::Yield);
                assert_eq!(r.val0(), ptr[SERVER as usize], "the server runs first");
                [3, 4, 1].into()
            } else {
                let first = k.pm.timer_tick(cpu);
                assert_eq!(first.map(|t| t as u64), Some(ptr[SERVER as usize]));
                [2, 3, 4].into()
            };
            let r = k.syscall(cpu, SyscallArgs::Recv { slot: REQ });
            assert_eq!(r.result, Ok([0; 4]), "the server parks");
            let mut req_q = VecDeque::with_capacity(CLIENTS + 1);
            req_q.push_back(SERVER);
            let mut sh = Shadow {
                cur: if cpu == 0 { 2 } else { 1 },
                runq,
                req_side: Side::Receivers,
                req_q,
                rep_side: Side::Idle,
                rep_q: VecDeque::with_capacity(CLIENTS + 1),
                streak: 0,
                partner: None,
                calling: [false; CLIENTS + 1],
            };
            sh.runq.reserve(CLIENTS + 1);
            cpus.push(Cpu {
                id: cpu,
                ptr,
                sh,
                client: [ClientNext::Issue; CLIENTS + 1],
                server: ServerNext::TakeReq,
                seq: [0; CLIENTS + 1],
                slow: [false; CLIENTS + 1],
                started: [0; CLIENTS + 1],
                deck: Deck::new(&[(FAST_CARD, 15), (SLOW_CARD, 1)]),
                rng: Rng::new(seed, cpu as u64),
                clock: 0,
            });
        }
        let k = SmpKernel::new(k);
        for c in &mut cpus {
            c.clock = k.cycles(c.id);
        }
        IpcRpc {
            k,
            cpus,
            ops_per_slice,
        }
    }

    fn run_slice(&mut self, ctx: &mut Ctx) {
        let mut done = 0;
        while done < self.ops_per_slice {
            // Discrete-event order: the CPU with the smallest clock issues.
            let i = usize::from(self.cpus[1].clock < self.cpus[0].clock);
            let cpu = &mut self.cpus[i];
            ctx.tr.begin_op(cpu.clock);
            let issuer = cpu.sh.cur;
            let completed = cpu.step(&self.k, ctx);
            cpu.clock = self.k.cycles(cpu.id);
            if completed {
                ctx.lat.record(cpu.clock - cpu.started[issuer as usize]);
                done += 1;
            }
            ctx.tr.end_op(cpu.clock, u64::from(completed));
        }
    }

    fn clocks(&self) -> Vec<u64> {
        self.cpus.iter().map(|c| c.clock).collect()
    }

    fn counts(&self) -> Counts {
        Counts::of_snapshot(&self.k.trace_snapshot())
            .with_caches((0..NCPUS).map(|c| self.k.cache_stats(c)))
            .with_obligations()
    }

    fn extras(&mut self, probe: bool) -> Extras {
        let mut x = Extras::default();
        if probe {
            x.snapshot_us = crate::probe::probe_snapshot_us(|| self.k.trace_snapshot());
        }
        x
    }

    fn finish(&mut self, _ctx: &mut Ctx, d: &Counts, gates: &mut Gates) {
        gates.verif("audit_total_wf", self.k.audit_total_wf());
        gates.check("ipc.mem_lock_untouched", d.lock_mem_acq == 0, || {
            format!(
                "{} mem-lock acquisitions in the timed phase",
                d.lock_mem_acq
            )
        });
        gates.check(
            "ipc.both_paths_ran",
            d.fp_hits > 0 && d.fp_fallbacks > 0,
            || format!("hits {} fallbacks {}", d.fp_hits, d.fp_fallbacks),
        );
    }
}
