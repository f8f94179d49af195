//! Ablation of the paper's key design choices (§4.1, §6.2): flat ghost
//! state vs. recursive tree reasoning, measured on this artefact.
//!
//! Two comparisons:
//!
//! 1. **Runtime checking cost** — the flat `container_tree_wf` loops vs.
//!    a recursive descent re-deriving paths/subtrees, over growing trees
//!    (chain and bushy shapes). The flat check is what this artefact runs
//!    on every audited transition; the recursive check is the shape a
//!    hierarchical-ownership design would verify.
//! 2. **Proof-effort analog** — the paper's own §6.2 numbers: the NrOS
//!    page table (recursive ownership, unrolled induction) vs. the
//!    Atmosphere page table (flat per-level permissions), replayed from
//!    the verification-task catalogs.

use std::time::Instant;

use atmo_bench::render_table;
use atmo_pm::ablation::{
    build_tree, flat_subtree, flat_tree_check, recursive_subtree, recursive_tree_check,
};
use atmo_verif::schedule::simulate_verification;
use atmo_verif::tasks::{system_catalog, system_loc, SystemId};

fn time_us(mut f: impl FnMut() -> bool, iters: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        assert!(f());
    }
    start.elapsed().as_micros() as f64 / iters as f64
}

fn main() {
    println!("-- structural validation: flat vs recursive (µs per full check) --");
    println!("(the flat check is quantifier-shaped — per-node path conditions and a");
    println!(" path/subtree duality an SMT solver discharges directly; at runtime the");
    println!(" duality costs one pass over the subtrees plus a count, and each path");
    println!(" check grows with depth; the recursive descent is O(n) at runtime but");
    println!(" is exactly the inductive shape the paper shows SMT solvers cannot");
    println!(" handle at scale)\n");
    let mut rows = Vec::new();
    for &(n, fanout, shape) in &[
        (32usize, 1usize, "chain"),
        (32, 4, "bushy"),
        (128, 1, "chain"),
        (128, 4, "bushy"),
        (512, 4, "bushy"),
    ] {
        let (root, cntrs) = build_tree(n, fanout);
        let iters = if n >= 512 { 3 } else { 10 };
        let flat = time_us(|| flat_tree_check(root, &cntrs), iters);
        let rec = time_us(|| recursive_tree_check(root, &cntrs), iters);
        rows.push(vec![
            format!("{n} nodes ({shape})"),
            format!("{flat:.0}"),
            format!("{rec:.0}"),
            format!("{:.2}x", rec / flat.max(1.0)),
        ]);
    }
    print!(
        "{}",
        render_table(
            "Tree validation cost",
            &["Tree", "flat µs", "recursive µs", "ratio"],
            &rows,
        )
    );

    println!("\n-- subtree query: ghost set vs recursive walk (µs) --");
    println!("(what the isolation/non-interference proofs actually consume: the");
    println!(" flat ghost subtree is a lookup; recursive reachability re-walks the");
    println!(" tree — the T_A construction cost of §4.3)\n");
    let mut rows = Vec::new();
    for &n in &[64usize, 256, 1024] {
        let (root, cntrs) = build_tree(n, 4);
        let flat = time_us(|| !flat_subtree(&cntrs, root).is_empty(), 50);
        let rec = time_us(|| !recursive_subtree(&cntrs, root).is_empty(), 50);
        rows.push(vec![
            format!("{n} nodes"),
            format!("{flat:.1}"),
            format!("{rec:.1}"),
            format!("{:.1}x", rec / flat.max(0.1)),
        ]);
    }
    print!(
        "{}",
        render_table(
            "Subtree query cost",
            &["Tree", "flat µs", "recursive µs", "ratio"],
            &rows
        )
    );

    println!("\n-- §6.2 proof-effort analog: page-table designs --\n");
    let nros = system_catalog(SystemId::NrosPageTable);
    let atmo = system_catalog(SystemId::AtmoPageTable);
    let (nros_p, nros_e) = system_loc(SystemId::NrosPageTable);
    let (atmo_p, atmo_e) = system_loc(SystemId::AtmoPageTable);
    let rows = vec![
        vec![
            "NrOS PT (recursive ownership)".to_string(),
            format!("{:.0}s", simulate_verification(&nros, 1, 1.0).wall_s),
            format!("{:.1}:1", nros_p as f64 / nros_e as f64),
        ],
        vec![
            "Atmo PT (flat permissions)".to_string(),
            format!("{:.0}s", simulate_verification(&atmo, 1, 1.0).wall_s),
            format!("{:.1}:1", atmo_p as f64 / atmo_e as f64),
        ],
    ];
    print!(
        "{}",
        render_table(
            "Page-table verification (paper §6.2: 3x faster, 3x lower ratio)",
            &["Design", "1-thread verif", "proof/code"],
            &rows,
        )
    );
}
