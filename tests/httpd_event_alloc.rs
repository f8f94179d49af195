//! Steady-state allocation discipline: once warmed up, the event-driven
//! httpd loop — ingest, parse, serve, TX flush, timers — performs zero
//! heap allocations. All buffers (ready ring, TX queue, RX scratch,
//! parked queue, expiry scratch, wheel slab) are preallocated and
//! recycled; responses serialize straight into pool slots.
//!
//! Lives in its own test binary because of the counting global
//! allocator, whose counts are per thread: allocations libtest makes on
//! its own threads during the measured loop do not count.

use atmosphere::apps::event::HTTP_PAYLOAD_OFFSET;
use atmosphere::apps::{ConnTable, EventCoreConfig, EventHttpd};
use atmosphere::drivers::{
    queue_for_seq, write_udp64, DriverCosts, IxgbeDevice, IxgbeDriver, PktBuf, PktPool,
};
use atmosphere::hw::cycles::CycleMeter;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocs_during, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const FREQ: u64 = 2_200_000_000;
const NQ: usize = 4;

/// The first `n` flows that RSS-steer to queue 0, precomputed so the
/// measured loop below never touches the heap for flow enumeration.
fn flows(n: usize) -> Vec<u64> {
    (0..)
        .filter(|&r| queue_for_seq(r, NQ) == 0)
        .take(n)
        .collect()
}

/// One request/response round for `flow`, reusing `bufs` as the ingest
/// scratch vector so the round itself allocates nothing.
fn round(
    ev: &mut EventHttpd,
    drv: &mut IxgbeDriver,
    pool: &mut PktPool,
    meter: &mut CycleMeter,
    bufs: &mut Vec<PktBuf>,
    flow: u64,
    req: &[u8],
) {
    let mut buf = pool.try_acquire().expect("pool has slots");
    let frame = pool.slot_mut(&buf);
    write_udp64(frame, flow);
    frame[HTTP_PAYLOAD_OFFSET..HTTP_PAYLOAD_OFFSET + req.len()].copy_from_slice(req);
    buf.set_len(HTTP_PAYLOAD_OFFSET + req.len());
    bufs.push(buf);
    ev.ingest(meter, pool, bufs);
    let served = ev.served();
    while ev.served() == served {
        ev.tick(meter, drv, pool);
    }
}

#[test]
fn steady_state_event_loop_allocates_nothing() {
    let table = ConnTable::anonymous(256, 0, NQ);
    let mut ev = EventHttpd::new(EventCoreConfig::new(0, NQ), table);
    ev.add_page("/index.html", &vec![b'x'; 2048]);
    ev.add_page("/big", &vec![b'y'; 9 * 1024]);
    let mut drv = IxgbeDriver::new(IxgbeDevice::steered(FREQ, NQ, 0), DriverCosts::atmosphere());
    let mut pool = PktPool::anonymous(64);
    let mut meter = CycleMeter::new();
    let mut bufs: Vec<PktBuf> = Vec::with_capacity(8);
    let req_small = b"GET /index.html HTTP/1.1\r\nHost: a\r\n\r\n";
    let req_big = b"GET /big HTTP/1.1\r\nHost: a\r\n\r\n";
    let flows = flows(32);

    // Warm-up: open every flow the measured loop will touch and drive
    // both response sizes through, so every internal Vec has grown to
    // its steady-state capacity.
    for &flow in &flows {
        round(
            &mut ev, &mut drv, &mut pool, &mut meter, &mut bufs, flow, req_small,
        );
        round(
            &mut ev, &mut drv, &mut pool, &mut meter, &mut bufs, flow, req_big,
        );
    }
    assert_eq!(ev.live(), 32);

    // Measured steady state: the same shapes, zero allocations.
    let allocs = allocs_during(|| {
        for rep in 0..16 {
            for (i, &flow) in flows.iter().enumerate() {
                let req: &[u8] = if (rep + i) % 3 == 0 {
                    req_big
                } else {
                    req_small
                };
                round(
                    &mut ev, &mut drv, &mut pool, &mut meter, &mut bufs, flow, req,
                );
            }
        }
    });
    assert_eq!(allocs, 0, "steady-state event loop must not allocate");
    assert_eq!(ev.served(), 64 + 16 * 32);
    assert_eq!(pool.in_flight(), 0);
}
