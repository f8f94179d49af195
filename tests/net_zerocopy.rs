//! The zero-copy network datapath end to end: DMA-pinned packet pools
//! inside the kernel's leak-freedom closure, RSS flow steering across
//! run-to-completion workers, applications (Maglev, kv-store, httpd)
//! over borrowed NIC slots, and exhaustion as backpressure.

use atmosphere::apps::httpd::Httpd;
use atmosphere::apps::kvstore::{KvRequest, KvResponse, KvStore};
use atmosphere::apps::maglev::MaglevTable;
use atmosphere::drivers::pkt;
use atmosphere::drivers::{
    DriverCosts, IxgbeDevice, IxgbeDriver, PktBuf, PktPool, RssSteer, SpscRing, SLOTS_PER_PAGE,
};
use atmosphere::hw::cycles::CycleMeter;
use atmosphere::hw::PAGE_SIZE_2M;
use atmosphere::kernel::refine::audited_syscall;
use atmosphere::kernel::smp::SmpKernel;
use atmosphere::kernel::{Kernel, KernelConfig, SyscallArgs};
use atmosphere::mem::DmaWindow;
use atmosphere::spec::harness::Invariant;

const FREQ: u64 = 2_200_000_000;
const PAGE_4K: usize = 0x1000;
const VA: usize = 0x4000_0000;
const IOVA: usize = 0x10_0000;

fn ok(k: &mut Kernel, cpu: usize, args: SyscallArgs) -> u64 {
    let (ret, audit) = audited_syscall(k, cpu, args.clone());
    audit.unwrap_or_else(|e| panic!("{args:?}: {e}"));
    assert!(ret.is_ok(), "{args:?} failed: {ret:?}");
    ret.val0()
}

/// Mmaps `npages` at `VA`, DMA-pins each through the IOMMU on `device`,
/// unmaps the process window (the pin keeps the frames alive), and
/// returns the pinned frames — the kernel-side setup for
/// [`PktPool::from_window`] at `IOVA`.
fn pin_pool_pages(k: &mut Kernel, npages: usize, device: u16) -> (u32, Vec<usize>) {
    ok(
        k,
        0,
        SyscallArgs::Mmap {
            va_base: VA,
            len: npages,
            writable: true,
        },
    );
    let dom = ok(k, 0, SyscallArgs::IommuCreateDomain) as u32;
    ok(
        k,
        0,
        SyscallArgs::IommuAttach {
            domain: dom,
            device,
        },
    );
    for i in 0..npages {
        ok(
            k,
            0,
            SyscallArgs::IommuMap {
                domain: dom,
                iova: IOVA + i * PAGE_4K,
                va: VA + i * PAGE_4K,
            },
        );
    }
    let as_id = k.pm.proc(k.init_proc).addr_space;
    let frames: Vec<usize> = (0..npages)
        .map(|i| {
            k.mem
                .vm
                .table(as_id)
                .unwrap()
                .map_4k
                .index(&(VA + i * PAGE_4K))
                .unwrap()
                .frame
        })
        .collect();
    ok(
        k,
        0,
        SyscallArgs::Munmap {
            va_base: VA,
            len: npages,
        },
    );
    (dom, frames)
}

/// Unpins the pool's frames and audits that every one returned.
fn unpin_pool_pages(k: &mut Kernel, dom: u32, device: u16, frames: &[usize]) {
    for i in 0..frames.len() {
        ok(
            k,
            0,
            SyscallArgs::IommuUnmap {
                domain: dom,
                iova: IOVA + i * PAGE_4K,
            },
        );
    }
    for &f in frames {
        assert!(k.mem.alloc.page_is_free(f), "frame returned on unpin");
    }
    ok(k, 0, SyscallArgs::IommuDetach { device });
    assert!(k.mem.alloc.mapped_pages().is_empty(), "no frames leaked");
    assert!(k.wf().is_ok(), "{:?}", k.wf());
}

#[test]
fn dma_pinned_pool_stays_in_page_closure_for_its_whole_lifetime() {
    let mut k = Kernel::boot(KernelConfig {
        mem_mib: 64,
        ncpus: 1,
        root_quota: 2048,
    });
    let (dom, frames) = pin_pool_pages(&mut k, 32, 7);
    for &f in &frames {
        assert_eq!(k.mem.alloc.map_refcnt(f), 1, "DMA pin holds the frame");
    }
    assert!(k.wf().is_ok(), "pinned pages: {:?}", k.wf());

    let mut pool = PktPool::from_window(DmaWindow::new(IOVA, frames.clone()));
    assert_eq!(pool.nslots(), 32 * SLOTS_PER_PAGE);
    let mut drv = IxgbeDriver::new(IxgbeDevice::new(FREQ), DriverCosts::atmosphere());
    let mut meter = CycleMeter::new();
    let mut bufs: Vec<PktBuf> = Vec::new();
    drv.rx_batch_zc(&mut meter, &mut pool, &mut bufs, 16);
    assert!(!bufs.is_empty());

    // Audit leak freedom *while handles are in flight*: the frames'
    // membership in page_closure() comes from the IOMMU pin, so the
    // pool's internal state is irrelevant to the kernel equation.
    assert!(k.wf().is_ok(), "in-flight handles: {:?}", k.wf());
    assert!(pool.is_wf(), "{:?}", pool.wf());

    // A mid-pipeline drop releases through the pool; the rest transmit.
    let dropped = bufs.pop().expect("at least one handle");
    pool.release(dropped);
    drv.tx_batch_zc(&mut meter, &mut pool, &mut bufs);
    assert_eq!(pool.in_flight(), 0);

    let reclaimed = pool
        .into_window()
        .expect("kernel-backed pool has a window")
        .into_frames();
    assert_eq!(reclaimed, frames);
    unpin_pool_pages(&mut k, dom, 7, &reclaimed);
}

#[test]
fn smp_audit_covers_the_pool_with_handles_in_flight() {
    // The sharded kernel's stop-the-world audit must hold while a second
    // CPU's worker keeps pool handles outstanding.
    let mut k = Kernel::boot(KernelConfig {
        mem_mib: 64,
        ncpus: 2,
        root_quota: 2048,
    });
    let (dom, frames) = pin_pool_pages(&mut k, 16, 7);
    let init_proc = k.init_proc;
    ok(
        &mut k,
        0,
        SyscallArgs::NewThread {
            proc: init_proc,
            cpu: 1,
        },
    );
    k.pm.timer_tick(1);
    let k = SmpKernel::new(k);

    let mut pool = PktPool::from_window(DmaWindow::new(IOVA, frames));
    pool.attach_trace(k.trace().clone());
    let mut drv = IxgbeDriver::new(IxgbeDevice::new(FREQ), DriverCosts::atmosphere());
    let mut meter = CycleMeter::new();
    let mut bufs: Vec<PktBuf> = Vec::new();
    drv.rx_batch_zc(&mut meter, &mut pool, &mut bufs, 8);
    assert!(!bufs.is_empty());

    // Scheduler churn on CPU 1, then the audit with handles live.
    let r = k.syscall(1, SyscallArgs::Yield);
    assert!(r.is_ok(), "{r:?}");
    let audit = k.audit_total_wf();
    assert!(audit.is_ok(), "audit with in-flight handles: {audit:?}");

    drv.tx_batch_zc(&mut meter, &mut pool, &mut bufs);
    let audit = k.audit_total_wf();
    assert!(audit.is_ok(), "{audit:?}");

    let reclaimed = pool
        .into_window()
        .expect("kernel-backed pool has a window")
        .into_frames();
    k.with_kernel(|uk| unpin_pool_pages(uk, dom, 7, &reclaimed));
}

/// Conditions the 4 KiB freelist so its head sits on a fully-free 2 MiB
/// boundary (compact version of the superpage test helper), making the
/// following 512-page `Mmap` promote.
fn align_freelist_and_mmap_512(k: &mut Kernel, va: usize) -> usize {
    const FILLER_VA: usize = 0x7000_0000;
    for base in [va + PAGE_SIZE_2M, FILLER_VA] {
        ok(
            k,
            0,
            SyscallArgs::Mmap {
                va_base: base,
                len: 1,
                writable: true,
            },
        );
        ok(
            k,
            0,
            SyscallArgs::Munmap {
                va_base: base,
                len: 1,
            },
        );
    }
    let free: std::collections::BTreeSet<usize> = k.mem.alloc.free_pages_4k().iter().collect();
    let lowest = *free.iter().next().expect("free memory");
    let mut head = lowest.next_multiple_of(PAGE_SIZE_2M);
    while !(0..512).all(|i| free.contains(&(head + i * PAGE_4K))) {
        head += PAGE_SIZE_2M;
    }
    let filler = free.iter().filter(|&&p| p < head).count();
    if filler > 0 {
        ok(
            k,
            0,
            SyscallArgs::Mmap {
                va_base: FILLER_VA,
                len: filler,
                writable: true,
            },
        );
    }
    ok(
        k,
        0,
        SyscallArgs::Mmap {
            va_base: va,
            len: 512,
            writable: true,
        },
    );
    filler
}

#[test]
fn pinning_pool_pages_demotes_the_superpage_first() {
    // PR 4's demotion rule applied to the pool: pinning pages out of a
    // promoted 2 MiB run transparently demotes it, and the pool's frames
    // are exactly the ones the superpage covered.
    let mut k = Kernel::boot(KernelConfig {
        mem_mib: 64,
        ncpus: 1,
        root_quota: 2048,
    });
    let filler = align_freelist_and_mmap_512(&mut k, VA);
    assert_eq!(k.trace_snapshot().counters.vm.superpage_promotions, 1);

    const NPOOL: usize = 16;
    let dom = ok(&mut k, 0, SyscallArgs::IommuCreateDomain) as u32;
    ok(
        &mut k,
        0,
        SyscallArgs::IommuAttach {
            domain: dom,
            device: 7,
        },
    );
    for i in 0..NPOOL {
        ok(
            &mut k,
            0,
            SyscallArgs::IommuMap {
                domain: dom,
                iova: IOVA + i * PAGE_4K,
                va: VA + i * PAGE_4K,
            },
        );
    }
    let snap = k.trace_snapshot();
    assert_eq!(
        snap.counters.vm.superpage_demotions, 1,
        "the first pin demotes; later pins find 4 KiB entries"
    );

    let as_id = k.pm.proc(k.init_proc).addr_space;
    let frames: Vec<usize> = (0..NPOOL)
        .map(|i| {
            k.mem
                .vm
                .table(as_id)
                .unwrap()
                .map_4k
                .index(&(VA + i * PAGE_4K))
                .unwrap()
                .frame
        })
        .collect();
    // The run's frames are contiguous, so the demoted slice must be too.
    for w in frames.windows(2) {
        assert_eq!(w[1], w[0] + PAGE_4K, "pool frames come from the run");
    }
    ok(
        &mut k,
        0,
        SyscallArgs::Munmap {
            va_base: VA,
            len: 512,
        },
    );
    if filler > 0 {
        ok(
            &mut k,
            0,
            SyscallArgs::Munmap {
                va_base: 0x7000_0000,
                len: filler,
            },
        );
    }
    assert!(k.wf().is_ok(), "{:?}", k.wf());

    let mut pool = PktPool::from_window(DmaWindow::new(IOVA, frames));
    let mut buf = pool.try_acquire().expect("fresh pool has slots");
    let len = pkt::write_udp64(pool.slot_mut(&buf), 1);
    buf.set_len(len);
    assert_eq!(pkt::seq_of(pool.data(&buf)), Some(1));
    pool.release(buf);
    assert!(pool.is_wf(), "{:?}", pool.wf());

    let reclaimed = pool
        .into_window()
        .expect("kernel-backed pool has a window")
        .into_frames();
    unpin_pool_pages(&mut k, dom, 7, &reclaimed);
}

#[test]
fn steered_workers_process_pairwise_disjoint_flows() {
    // Four run-to-completion workers on four RSS queues: every frame a
    // worker sees hashes to its queue, and the per-worker flow-key sets
    // are pairwise disjoint — no flow is ever split across CPUs.
    const NQ: usize = 4;
    let table = MaglevTable::new(&(0..4).map(|i| format!("b{i}")).collect::<Vec<_>>(), 65537);
    let steer = RssSteer::new(NQ);
    let mut seen: Vec<std::collections::BTreeSet<[u8; 13]>> = vec![Default::default(); NQ];
    for (q, seen_q) in seen.iter_mut().enumerate() {
        let mut drv =
            IxgbeDriver::new(IxgbeDevice::steered(FREQ, NQ, q), DriverCosts::atmosphere());
        let mut pool = PktPool::anonymous(64);
        let mut meter = CycleMeter::new();
        let mut bufs: Vec<PktBuf> = Vec::new();
        let mut done = 0;
        while done < 2000 {
            done += drv.rx_batch_zc(&mut meter, &mut pool, &mut bufs, 32);
            for buf in bufs.iter() {
                let key = pkt::flow_key_of(pool.data(buf)).expect("generated frames parse");
                assert_eq!(steer.queue_of_key(&key), q, "frame on the wrong queue");
                seen_q.insert(key);
                table
                    .process_frame(pool.data_mut(buf))
                    .expect("generated frames parse");
            }
            drv.tx_batch_zc(&mut meter, &mut pool, &mut bufs);
        }
        assert!(!seen_q.is_empty());
        assert_eq!(pool.in_flight(), 0);
    }
    for a in 0..NQ {
        for b in a + 1..NQ {
            assert!(
                seen[a].is_disjoint(&seen[b]),
                "queues {a} and {b} share a flow"
            );
        }
    }
    let covered: usize = seen.iter().map(|s| s.len()).sum();
    assert_eq!(
        covered,
        atmosphere::drivers::RSS_FLOW_PERIOD as usize,
        "the workers jointly cover the whole flow space"
    );
}

#[test]
fn kv_store_over_the_steered_zero_copy_path() {
    // Two kv-store shards, one per steered queue: requests are derived
    // from each frame's sequence number, written into the NIC slot in
    // place, parsed back out of the borrowed view, and served against a
    // reference model. The shards' request streams are disjoint by RSS.
    const NQ: usize = 2;
    let mut seqs: Vec<std::collections::BTreeSet<u64>> = vec![Default::default(); NQ];
    for (q, seqs_q) in seqs.iter_mut().enumerate() {
        let mut kv = KvStore::with_capacity(1 << 10);
        let mut reference = std::collections::BTreeMap::new();
        let mut drv =
            IxgbeDriver::new(IxgbeDevice::steered(FREQ, NQ, q), DriverCosts::atmosphere());
        let mut pool = PktPool::anonymous(64);
        let mut meter = CycleMeter::new();
        let mut bufs: Vec<PktBuf> = Vec::new();
        let mut served = 0;
        while served < 1000 {
            drv.rx_batch_zc(&mut meter, &mut pool, &mut bufs, 32);
            for buf in bufs.iter_mut() {
                let seq = pkt::seq_of(pool.data(buf)).expect("generated frames parse");
                assert!(seqs_q.insert(seq), "seq delivered twice");
                let key = (seq % 64).to_le_bytes().to_vec();
                let req = match seq % 3 {
                    0 => KvRequest::Set(key.clone(), seq.to_be_bytes().to_vec()),
                    1 => KvRequest::Get(key.clone()),
                    _ => KvRequest::Delete(key.clone()),
                };
                // The request rides in the UDP payload of the NIC slot:
                // written in place, parsed back from the borrowed view.
                let wire = req.encode();
                let slot = pool.slot_mut(buf);
                slot[50..50 + wire.len()].copy_from_slice(&wire);
                buf.set_len(50 + wire.len());
                let decoded =
                    KvRequest::decode(&pool.data(buf)[50..]).expect("wire format roundtrips");
                assert_eq!(decoded, req);
                let resp = kv.serve(&decoded);
                match &req {
                    KvRequest::Set(k, v) => {
                        assert_eq!(resp, KvResponse::Stored);
                        reference.insert(k.clone(), v.clone());
                    }
                    KvRequest::Get(k) => match reference.get(k) {
                        Some(v) => assert_eq!(resp, KvResponse::Value(v.clone())),
                        None => assert_eq!(resp, KvResponse::Miss),
                    },
                    KvRequest::Delete(k) => {
                        if reference.remove(k).is_some() {
                            assert_eq!(resp, KvResponse::Deleted);
                        } else {
                            assert_eq!(resp, KvResponse::Miss);
                        }
                    }
                }
                served += 1;
            }
            drv.tx_batch_zc(&mut meter, &mut pool, &mut bufs);
        }
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(pool.exhausted(), 0);
    }
    assert!(
        seqs[0].is_disjoint(&seqs[1]),
        "RSS must partition the request stream"
    );
}

#[test]
fn httpd_over_the_zero_copy_path() {
    // HTTP requests carried in NIC slots: the request line is written
    // into the borrowed slot, fed to the real server, and every response
    // is checked. One connection per flow residue keeps it round-robin.
    let mut srv = Httpd::new();
    srv.add_page("/p0", b"zero");
    srv.add_page("/p1", b"one");
    let conns: Vec<usize> = (0..4).map(|_| srv.open_connection()).collect();

    let mut drv = IxgbeDriver::new(IxgbeDevice::new(FREQ), DriverCosts::atmosphere());
    let mut pool = PktPool::anonymous(64);
    let mut meter = CycleMeter::new();
    let mut bufs: Vec<PktBuf> = Vec::new();
    let mut sent = 0u64;
    while sent < 200 {
        drv.rx_batch_zc(&mut meter, &mut pool, &mut bufs, 16);
        for buf in bufs.iter_mut() {
            let seq = pkt::seq_of(pool.data(buf)).expect("generated frames parse");
            let req = format!("GET /p{} HTTP/1.1\r\n\r\n", seq % 3);
            let slot = pool.slot_mut(buf);
            slot[50..50 + req.len()].copy_from_slice(req.as_bytes());
            buf.set_len(50 + req.len());
            srv.client_send(conns[(seq % 4) as usize], &pool.data(buf)[50..]);
            sent += 1;
        }
        drv.tx_batch_zc(&mut meter, &mut pool, &mut bufs);
        while srv.poll_step() > 0 {}
    }
    assert_eq!(srv.served, sent);
    for (i, &c) in conns.iter().enumerate() {
        let resp = srv.client_recv(c);
        assert!(!resp.is_empty(), "connection {i} got responses");
        let text = String::from_utf8_lossy(&resp);
        assert!(text.starts_with("HTTP/1.1"), "well-formed response");
        assert!(!text.contains("HTTP/1.1 400"), "no malformed requests");
    }
    assert_eq!(pool.in_flight(), 0);
}

#[test]
fn exhaustion_backpressure_end_to_end() {
    // An app stage that stalls (stops draining its ring) exhausts the
    // pool; RX degrades to taking nothing — never panicking, never
    // dropping a consumed frame — and resumes exactly where it left off
    // once the app drains.
    let mut drv = IxgbeDriver::new(IxgbeDevice::new(FREQ), DriverCosts::atmosphere());
    let mut pool = PktPool::anonymous(16);
    let mut ring: SpscRing<PktBuf> = SpscRing::new(32);
    let mut meter = CycleMeter::new();
    meter.charge(1_000_000); // deep wire-side backlog

    // The stalled app: RX keeps filling the ring until the pool is dry.
    let mut bufs: Vec<PktBuf> = Vec::new();
    let mut taken = 0;
    loop {
        let n = drv.rx_batch_zc(&mut meter, &mut pool, &mut bufs, 8);
        for b in bufs.drain(..) {
            ring.enqueue(b).expect("ring outlasts the pool");
        }
        taken += n;
        if n == 0 {
            break;
        }
    }
    assert_eq!(taken, 16, "RX stopped at pool capacity");
    assert!(pool.exhausted() > 0, "exhaustion observed, not panicked");
    let consumed_at_stall = drv.device.rx_count();

    // The app wakes up and drains: every slot returns, RX resumes.
    let mut app: Vec<PktBuf> = Vec::new();
    ring.dequeue_into(&mut app, 32);
    drv.tx_batch_zc(&mut meter, &mut pool, &mut app);
    assert_eq!(pool.in_flight(), 0);
    let n = drv.rx_batch_zc(&mut meter, &mut pool, &mut bufs, 8);
    assert_eq!(n, 8, "full batch after recovery");
    assert_eq!(
        drv.device.rx_count(),
        consumed_at_stall + 8,
        "no frame was consumed during the stall"
    );
    drv.tx_batch_zc(&mut meter, &mut pool, &mut bufs);
    assert!(pool.is_wf(), "{:?}", pool.wf());
}
