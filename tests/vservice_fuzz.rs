//! Fuzzing the verified shared service V: random client behaviour —
//! arbitrary ops (including unknown codes), page grants at arbitrary
//! times, interleaved GETs, closes and re-opens, and client crashes —
//! must never violate V's functional-correctness spec, the kernel's
//! `total_wf`, or isolation between the clients (§3, §4.3).

use atmosphere::kernel::iso::{domain_sets, endpoint_iso, memory_iso};
use atmosphere::kernel::noninterf::setup_abv;
use atmosphere::kernel::vservice::{VService, OP_CLOSE, OP_GET, OP_PUT};
use atmosphere::kernel::{Kernel, SyscallArgs};
use atmosphere::spec::harness::Invariant;
use atmosphere::spec::XorShift64Star;

/// One random client action.
fn client_step(k: &mut Kernel, rng: &mut XorShift64Star, cpu: usize, mapped: &mut bool) {
    let op = match rng.below(6) {
        0 | 1 => OP_PUT,
        2 => OP_GET,
        3 => OP_CLOSE,
        _ => 77, // unknown op: V must ignore it without leaking grants
    };
    if op == OP_GET {
        let _ = k.syscall(
            cpu,
            SyscallArgs::Call {
                slot: 0,
                scalars: [OP_GET, 0, 0, 0],
            },
        );
        return;
    }
    // Sometimes attach a page grant (mapping the page first if needed).
    let grant = rng.below(3) == 0;
    let va = 0x40_0000;
    if grant && !*mapped {
        let r = k.syscall(
            cpu,
            SyscallArgs::Mmap {
                va_base: va,
                len: 1,
                writable: true,
            },
        );
        *mapped = r.is_ok();
    }
    let _ = k.syscall(
        cpu,
        SyscallArgs::Send {
            slot: 0,
            scalars: [op, rng.below(100) as u64, 0, 0],
            grant_page_va: if grant && *mapped { Some(va) } else { None },
            grant_endpoint_slot: None,
            grant_iommu_domain: None,
        },
    );
}

#[test]
fn v_survives_arbitrary_client_behaviour() {
    for seed in [7u64, 99, 4242] {
        let (mut k, sc) = setup_abv();
        let mut v = VService::new(sc.tv, sc.cpu_v);
        let mut rng = XorShift64Star::new(seed);
        let mut mapped = [false, false];

        for step in 0..150 {
            let client = rng.below(2);
            let cpu = if client == 0 { sc.cpu_a } else { sc.cpu_b };
            // The client may be blocked in a call; give its CPU a tick.
            if k.pm.sched.current(cpu).is_some() {
                client_step(&mut k, &mut rng, cpu, &mut mapped[client]);
            }
            v.step(&mut k);
            // A caller woken by a reply retrieves it (or not — V must not
            // care whether clients consume replies).
            if rng.below(2) == 0 && k.pm.sched.current(cpu).is_some() {
                let _ = k.syscall(cpu, SyscallArgs::TakeMsg);
            }

            v.spec_wf(&k)
                .unwrap_or_else(|e| panic!("seed {seed} step {step}: V spec violated: {e}"));
            k.wf()
                .unwrap_or_else(|e| panic!("seed {seed} step {step}: total_wf violated: {e}"));
            let psi = k.view();
            let da = domain_sets(&psi, sc.a);
            let db = domain_sets(&psi, sc.b);
            assert!(
                memory_iso(&psi, &da.processes, &db.processes),
                "seed {seed} step {step}"
            );
            assert!(
                endpoint_iso(&psi, &da.threads, &db.threads),
                "seed {seed} step {step}"
            );
        }

        // Finally crash both clients; V cleans up; nothing user-mapped
        // remains anywhere.
        let _ = k.syscall(0, SyscallArgs::TerminateContainer { cntr: sc.a });
        let _ = k.syscall(0, SyscallArgs::TerminateContainer { cntr: sc.b });
        v.cleanup_client(&mut k, 0);
        v.cleanup_client(&mut k, 1);
        assert!(v.spec_wf(&k).is_ok());
        assert!(k.wf().is_ok(), "{:?}", k.wf());
        assert!(
            k.mem.alloc.mapped_pages().is_empty(),
            "seed {seed}: frames leaked"
        );
    }
}
