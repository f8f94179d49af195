//! Reproduces the **audit scaling** experiment: incremental ledger-fold
//! audits cost O(touched entries), independent of kernel size, while
//! the stop-the-world flat audit rescans every closure and so grows
//! with the kernel.
//!
//! Three kernels of increasing size (16 / 64 / 256 MiB, 8 CPUs; the
//! largest holds >= 4096 mapped pages) are each audited two ways:
//!
//! * `audit_total_wf()` — drain caches, rescan every domain, re-derive
//!   all closure/leak equations, and cross-check them against the
//!   incremental ledger state bit-for-bit;
//! * `audit_incremental()` — fold only the deltas emitted since the
//!   last audit, after touching K in {1, 16, 256} pages.
//!
//! Acceptance (asserted): on the largest state the incremental audit at
//! K=16 is >= 10x cheaper than the flat audit; the deltas folded grow
//! with K, not with kernel size; and a burst of incremental audits
//! leaves the per-CPU cache hit counters untouched (no drain, no domain
//! lock).

use std::time::Instant;

use atmo_bench::{mmap_chunked, render_tagged_table, Machine, Tag};
use atmo_kernel::{Kernel, KernelConfig, SmpKernel, SyscallArgs};

const TOUCH_SIZES: [usize; 3] = [1, 16, 256];

/// Each timing is the best of this many trials.
const TRIALS: usize = 9;

struct Sized {
    mem_mib: usize,
    mapped_pages: usize,
}

const SIZES: [Sized; 3] = [
    Sized {
        mem_mib: 16,
        mapped_pages: 512,
    },
    Sized {
        mem_mib: 64,
        mapped_pages: 2048,
    },
    Sized {
        mem_mib: 256,
        mapped_pages: 8192,
    },
];

/// Scratch VA range the touch loop churns, disjoint from the resident
/// mappings.
const SCRATCH_VA: usize = 0x7000_0000;

fn boot(s: &Sized) -> SmpKernel {
    let mut k = SmpKernel::new(Kernel::boot(KernelConfig {
        mem_mib: s.mem_mib,
        ncpus: 8,
        root_quota: s.mapped_pages + 1024,
    }));
    // Grow the kernel: a resident working set of `mapped_pages` pages
    // (page tables, closure sets and leak-equation support all scale
    // with this).
    mmap_chunked(&mut k, 0x4000_0000, s.mapped_pages, 8);
    k.enable_incremental_audit();
    k
}

/// Touches `k` pages (map+unmap churn in the scratch range), emitting a
/// touched set proportional to `k` and independent of kernel size.
fn touch(kern: &mut SmpKernel, k: usize) {
    for i in 0..k {
        let va_base = SCRATCH_VA + (i % 64) * 0x1000;
        kern.ok(SyscallArgs::Mmap {
            va_base,
            len: 1,
            writable: true,
        });
        kern.ok(SyscallArgs::Munmap { va_base, len: 1 });
    }
}

/// Best-of-[`TRIALS`] wall-clock nanoseconds of `f`.
fn best_ns(mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..TRIALS {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    best
}

fn main() {
    let mut rows = Vec::new();
    let mut flat_large = 0u64;
    let mut inc16_large = 0u64;
    let mut inc16_by_size = Vec::new();
    let mut touched_by_k: Vec<u64> = Vec::new();

    for (si, s) in SIZES.iter().enumerate() {
        let mut k = boot(s);

        // Flat audit cost: drain the pending ledger once so every timed
        // flat audit starts from a clean incremental state.
        let r = k.audit_incremental();
        assert!(r.is_ok(), "baseline incremental audit: {r:?}");
        let flat_ns = best_ns(|| {
            let r = k.audit_total_wf();
            assert!(r.is_ok(), "flat audit: {r:?}");
        });

        // Incremental audit cost at each touched-set size. The touch
        // churn runs outside the timed region; only the ledger fold and
        // equation check are measured.
        let mut inc_ns = [0u64; TOUCH_SIZES.len()];
        let mut touched = [0u64; TOUCH_SIZES.len()];
        for (ki, &ksz) in TOUCH_SIZES.iter().enumerate() {
            let before = k.trace_snapshot().counters.audit.touched_entries;
            let mut audits = 0u64;
            // Each trial touches K pages outside the timed region, then
            // times only the ledger fold + equation check.
            let mut best = u64::MAX;
            for _ in 0..TRIALS {
                touch(&mut k, ksz);
                let t = Instant::now();
                let r = k.audit_incremental();
                best = best.min(t.elapsed().as_nanos() as u64);
                assert!(r.is_ok(), "incremental audit (K={ksz}): {r:?}");
                audits += 1;
            }
            inc_ns[ki] = best;
            let after = k.trace_snapshot().counters.audit.touched_entries;
            touched[ki] = (after - before) / audits.max(1);
        }

        // Cache hit-rates are unperturbed by incremental audits: no
        // domain lock is taken, no cache is drained.
        let stats_before = k.cache_stats(0);
        for _ in 0..100 {
            let r = k.audit_incremental();
            assert!(r.is_ok(), "{r:?}");
        }
        let stats_after = k.cache_stats(0);
        assert_eq!(
            (
                stats_before.fast_allocs,
                stats_before.refills,
                stats_before.drains
            ),
            (
                stats_after.fast_allocs,
                stats_after.refills,
                stats_after.drains
            ),
            "incremental audits must not perturb cache hit-rates"
        );

        if si == SIZES.len() - 1 {
            flat_large = flat_ns;
            inc16_large = inc_ns[1];
            touched_by_k = touched.to_vec();
        }
        inc16_by_size.push(inc_ns[1]);

        rows.push(vec![
            format!("{}", s.mem_mib),
            format!("{}", s.mapped_pages),
            format!("{:.1}", flat_ns as f64 / 1e3),
            format!("{:.2}", inc_ns[0] as f64 / 1e3),
            format!("{:.2}", inc_ns[1] as f64 / 1e3),
            format!("{:.2}", inc_ns[2] as f64 / 1e3),
            format!("{}/{}/{}", touched[0], touched[1], touched[2]),
            format!("{:.0}x", flat_ns as f64 / inc_ns[1] as f64),
        ]);
    }

    print!(
        "{}",
        render_tagged_table(
            &format!(
                "Audit scaling: flat rescan vs incremental ledger fold \
                 (8 CPUs, best of {TRIALS} trials, wall-clock)"
            ),
            &[
                "MiB",
                "Pages",
                "Flat us",
                "Inc K=1 us",
                "K=16 us",
                "K=256 us",
                "Entries K=1/16/256",
                "Flat/Inc16",
            ],
            &rows,
        )
    );
    println!();
    println!(
        "touched entries folded per audit grow with K (the touched set), \
         not with kernel size;"
    );
    println!("flat audits rescan every closure so their cost tracks the mapped working set.");

    // Acceptance: >= 10x on the large state.
    let speedup = flat_large as f64 / inc16_large as f64;
    print!(
        "{}",
        Tag::Host.lines(&format!(
            "large-state (>= 4096 pages) flat/incremental(K=16): {speedup:.0}x \
             (acceptance: >= 10x)"
        ))
    );
    assert!(
        speedup >= 10.0,
        "incremental audit must be >= 10x cheaper than the flat audit on the \
         large state, got {speedup:.2}x"
    );
    // Deltas folded are a function of K alone (deterministic), ordered
    // by touched-set size.
    assert!(
        touched_by_k[0] < touched_by_k[1] && touched_by_k[1] < touched_by_k[2],
        "folded entries must grow with the touched set: {touched_by_k:?}"
    );
    // Kernel-size independence: the K=16 incremental audit on the 16x
    // larger kernel stays within noise of the small one — and in
    // particular far below even the *small* kernel's flat audit.
    let inc_small = inc16_by_size[0].max(1);
    let inc_large = *inc16_by_size.last().unwrap();
    assert!(
        (inc_large as f64) < (flat_large as f64) / 10.0,
        "incremental cost must not track kernel size \
         (inc {inc_large}ns vs flat {flat_large}ns)"
    );
    print!(
        "{}",
        Tag::Host.lines(&format!(
            "incremental K=16 across kernel sizes: {inc_small} -> {inc_large} ns \
             (flat grew to {flat_large} ns)"
        ))
    );
}
