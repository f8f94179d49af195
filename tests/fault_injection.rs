//! Fault injection: deliberately corrupt kernel state and verify that
//! `total_wf` *detects* each corruption class. A verification harness is
//! only as good as its checkers; these tests establish that every
//! invariant family actually refutes the states it is supposed to rule
//! out (the dynamic counterpart of proving the invariants are not
//! vacuous).

use atmosphere::kernel::{Kernel, KernelConfig, SyscallArgs};
use atmosphere::pm::sched::{BudgetSlot, REFILL_PERIOD, SCHED_EQUATIONS};
use atmosphere::pm::{Container, Thread};
use atmosphere::spec::harness::Invariant;
use atmosphere::spec::{PPtr, XorShift64Star};

fn populated_kernel() -> Kernel {
    let mut k = Kernel::boot(KernelConfig::default());
    let c = k
        .syscall(
            0,
            SyscallArgs::NewContainer {
                quota: 128,
                cpus: vec![1],
            },
        )
        .val0() as usize;
    let p = k.syscall(0, SyscallArgs::NewProcess { cntr: c }).val0() as usize;
    let _ = k.syscall(0, SyscallArgs::NewThread { proc: p, cpu: 1 });
    let _ = k.syscall(0, SyscallArgs::NewEndpoint { slot: 0 });
    let _ = k.syscall(
        0,
        SyscallArgs::Mmap {
            va_base: 0x4000_0000,
            len: 4,
            writable: true,
        },
    );
    assert!(k.wf().is_ok(), "baseline must be healthy: {:?}", k.wf());
    k
}

fn root_container_mut(k: &mut Kernel) -> &mut Container {
    let root = k.root_container;
    PPtr::<Container>::from_usize(root).borrow_mut(k.pm.cntr_perms.tracked_borrow_mut(root))
}

#[test]
fn detects_quota_over_commitment() {
    let mut k = populated_kernel();
    root_container_mut(&mut k).used = 1 << 30;
    let e = k.wf().unwrap_err();
    assert_eq!(e.subsystem, "container_quota");
}

#[test]
fn detects_subtree_ghost_corruption() {
    let mut k = populated_kernel();
    let fake = 0xdead_b000;
    let c = root_container_mut(&mut k);
    c.subtree.assign(c.subtree.insert(fake));
    let e = k.wf().unwrap_err();
    assert_eq!(e.subsystem, "container_tree");
}

#[test]
fn detects_path_ghost_corruption() {
    let mut k = populated_kernel();
    // Corrupt a child container's path.
    let child = *k
        .pm
        .cntr(k.root_container)
        .children
        .to_vec()
        .first()
        .unwrap();
    let perm = k.pm.cntr_perms.tracked_borrow_mut(child);
    let c = PPtr::<Container>::from_usize(child).borrow_mut(perm);
    c.path.assign(atmosphere::spec::Seq::from_slice(&[0x1234]));
    let e = k.wf().unwrap_err();
    assert_eq!(e.subsystem, "container_tree");
}

#[test]
fn detects_stale_thread_container_cache() {
    let mut k = populated_kernel();
    let t = k.init_thread;
    let perm = k.pm.thrd_perms.tracked_borrow_mut(t);
    PPtr::<Thread>::from_usize(t).borrow_mut(perm).owning_cntr = 0x9999;
    let e = k.wf().unwrap_err();
    assert_eq!(e.subsystem, "threads");
}

#[test]
fn detects_endpoint_refcount_drift() {
    let mut k = populated_kernel();
    let e_ptr = *k
        .pm
        .thrd(k.init_thread)
        .edpt_descriptors
        .iter()
        .flatten()
        .next()
        .unwrap();
    let perm = k.pm.edpt_perms.tracked_borrow_mut(e_ptr);
    PPtr::<atmosphere::pm::Endpoint>::from_usize(e_ptr)
        .borrow_mut(perm)
        .refcount = 99;
    let e = k.wf().unwrap_err();
    assert_eq!(e.subsystem, "endpoints");
}

#[test]
fn detects_scheduler_ghost_thread() {
    let mut k = populated_kernel();
    k.pm.sched.enqueue(0, 0xdead_b000);
    let e = k.wf().unwrap_err();
    assert_eq!(e.subsystem, "scheduler");
}

#[test]
fn detects_page_table_refinement_break() {
    // Corrupt the ghost abstract mapping so it disagrees with the MMU.
    let mut k = populated_kernel();
    let as_id = k.pm.proc(k.init_proc).addr_space;
    let pt = k.mem.vm.table_mut(as_id).unwrap();
    let wrong = pt.map_4k.insert(
        0x7777_7000,
        atmosphere::ptable::MapEntry {
            frame: 0x1000,
            flags: atmosphere::hw::paging::EntryFlags::user_rw(),
        },
    );
    pt.map_4k.assign(wrong);
    let e = k.wf().unwrap_err();
    assert_eq!(e.subsystem, "pt_refinement");
}

#[test]
fn detects_a_superpage_the_mmu_does_not_resolve() {
    // A 2 MiB ghost leaf over a slot no table entry maps: the domain
    // clause of the 2M map must refute it.
    let mut k = populated_kernel();
    let as_id = k.pm.proc(k.init_proc).addr_space;
    let pt = k.mem.vm.table_mut(as_id).unwrap();
    let mut flags = atmosphere::hw::paging::EntryFlags::user_rw();
    flags.huge = true;
    let entry = atmosphere::ptable::MapEntry {
        frame: 0x20_0000,
        flags,
    };
    pt.map_2m.insert_mut(0x8000_0000, entry);
    let e = k.wf().unwrap_err();
    assert_eq!(e.subsystem, "pt_refinement");
    assert!(e.detail.contains("2M domain"), "{e:?}");
}

#[test]
fn detects_a_4k_leaf_whose_permissions_differ_from_the_mmu() {
    // The MMU's frame at a mapped va with `writable` flipped: the domains
    // agree, so only the value clause can refute it.
    let mut k = populated_kernel();
    let as_id = k.pm.proc(k.init_proc).addr_space;
    let pt = k.mem.vm.table_mut(as_id).unwrap();
    let entry = pt
        .map_4k
        .get_mut(&0x4000_0000)
        .expect("populated_kernel maps it");
    entry.flags.writable = !entry.flags.writable;
    let e = k.wf().unwrap_err();
    assert_eq!(e.subsystem, "pt_refinement");
    assert!(e.detail.contains("4K entries"), "{e:?}");
}

#[test]
fn detects_leaked_mapped_frame() {
    // A frame marked mapped in the allocator but referenced by no address
    // space is a leak; the kernel-wide equation must flag it.
    let mut k = populated_kernel();
    let _orphan = k
        .mem
        .alloc
        .alloc_mapped(atmosphere::mem::PageSize::Size4K)
        .unwrap();
    let e = k.wf().unwrap_err();
    assert_eq!(e.subsystem, "kernel_memory");
}

#[test]
fn detects_closure_partition_break() {
    // Allocate a kernel page owned by no subsystem: the closure-partition
    // equation (closures == allocated) must fail.
    let mut k = populated_kernel();
    let (_p, perm) = k.mem.alloc.alloc_page_4k().unwrap();
    Box::leak(Box::new(perm)); // deliberately leak the permission
    let e = k.wf().unwrap_err();
    assert_eq!(e.subsystem, "kernel_memory");
}

#[test]
fn detects_ghost_owned_thread_drift() {
    let mut k = populated_kernel();
    let c = root_container_mut(&mut k);
    c.owned_thrds.assign(c.owned_thrds.insert(0xdead_b000));
    let e = k.wf().unwrap_err();
    assert_eq!(e.subsystem, "threads");
}

/// A seeded corruption of the scheduler's budget slab (its slots and its
/// refill wheel).
type SlabMutant = fn(&mut [BudgetSlot], &mut [Vec<usize>], &mut XorShift64Star);

/// A uniformly chosen slot satisfying `which`.
fn pick(slots: &[BudgetSlot], rng: &mut XorShift64Star, which: fn(&BudgetSlot) -> bool) -> usize {
    let found: Vec<usize> = (0..slots.len()).filter(|&i| which(&slots[i])).collect();
    *rng.choose(&found)
}

/// The mutant registry: one corruption per named `sched_wf` equation, each
/// of which must make exactly that equation fire. An equation in
/// `SCHED_EQUATIONS` with no entry here fails the test below.
const SLAB_MUTANTS: [(&str, SlabMutant); 5] = [
    // A mapped slot answers to another pointer than the one mapping it.
    ("budget-slot-bijection", |slots, _, rng| {
        slots[pick(slots, rng, |s| s.live)].cntr ^= 0x1000 << rng.below(8);
    }),
    // A tombstone, or an account its next refill would change, loses
    // its pending refill (a saturated account needs none).
    ("mapped-slot-armed", |slots, wheel, rng| {
        let slot = pick(slots, rng, |s| s.armed && !(s.live && s.acct.saturated()));
        slots[slot].armed = false;
        wheel.iter_mut().for_each(|v| v.retain(|&e| e != slot));
    }),
    // A slot on the free list comes back to life.
    ("free-slot-inert", |slots, _, rng| {
        slots[pick(slots, rng, |s| !s.live && !s.armed)].live = true;
    }),
    // An armed slot's entry is doubled, filed under another tick, or due
    // whole revolutions later (filed right, but beyond the next period).
    ("armed-one-wheel-entry", |slots, wheel, rng| {
        let slot = pick(slots, rng, |s| s.armed);
        let revolution = wheel.len() as u64;
        match rng.below(3) {
            0 => wheel[rng.below(wheel.len())].push(slot),
            1 => {
                wheel.iter_mut().for_each(|v| v.retain(|&e| e != slot));
                let at = slots[slot].due + 1 + rng.below(wheel.len() - 1) as u64;
                wheel[(at % revolution) as usize].push(slot);
            }
            _ => slots[slot].due += revolution * (1 + rng.below(4) as u64),
        }
    }),
    // Budget appears from, or vanishes into, nowhere.
    ("budget-conservation", |slots, _, rng| {
        let acct = &mut slots[pick(slots, rng, |s| s.live)].acct;
        match rng.below(3) {
            0 => acct.granted += 1 + rng.below(100) as u64,
            1 => acct.consumed += 1 + rng.below(100) as u64,
            _ => acct.remaining += 1 + rng.below(100) as u64,
        }
    }),
];

/// A healthy kernel whose budget slab holds saturated live accounts, one
/// that has spent (so its refill is pending), a tombstone (an account
/// torn down, due at the next tick of its refill phase) and a free slot
/// (one whose tombstone has fired).
fn kernel_with_budget_churn() -> Kernel {
    let mut k = populated_kernel();
    let cntrs: Vec<usize> = (0..6)
        .map(|_| {
            let args = SyscallArgs::NewContainer {
                quota: 8,
                cpus: vec![],
            };
            k.syscall(0, args).val0() as usize
        })
        .collect();
    let set_weight = |k: &mut Kernel, cntr, weight| {
        let ret = k.syscall(0, SyscallArgs::SchedSetWeight { cntr, weight });
        assert!(ret.is_ok(), "{ret:?}");
    };
    for (i, &cntr) in cntrs.iter().enumerate() {
        set_weight(&mut k, cntr, 1 + i as u32);
    }
    set_weight(&mut k, cntrs[0], 0);
    for _ in 0..REFILL_PERIOD {
        k.pm.timer_tick(0);
    }
    set_weight(&mut k, cntrs[1], 0);
    k.pm.sched.charge_tick(cntrs[2]);
    assert!(k.wf().is_ok(), "baseline must be healthy: {:?}", k.wf());
    k
}

#[test]
fn every_scheduler_equation_is_refuted_by_its_mutant() {
    for equation in SCHED_EQUATIONS {
        let mutants = SLAB_MUTANTS.iter().filter(|(name, _)| *name == equation);
        assert_eq!(mutants.count(), 1, "mutants of sched_wf's {equation}");
    }
    for seed in 1..=16 {
        for (equation, corrupt) in SLAB_MUTANTS {
            let mut k = kernel_with_budget_churn();
            let (slots, wheel) = k.pm.sched.budget_slab_raw();
            corrupt(slots, wheel, &mut XorShift64Star::new(seed));
            let e = k.wf().unwrap_err();
            assert_eq!(
                (e.subsystem, e.equation),
                ("scheduler", Some(equation)),
                "seed {seed}: {e:?}"
            );
        }
    }
}
