//! Reproduces **Table 2**: verification times of different systems on the
//! CloudLab c220g5 (1 vs 8 threads), with proof/exec line counts, then
//! the §6.1 full-verification times (the server + laptop thread sweep).

use atmo_bench::render_table;
use atmo_verif::schedule::simulate_verification;
use atmo_verif::tasks::{system_catalog, system_loc, SystemId};

fn fmt_time(s: f64) -> String {
    let s = s.round() as u64;
    if s >= 60 {
        format!("{}m {:02}s", s / 60, s % 60)
    } else {
        format!("{s}s")
    }
}

fn main() {
    let systems = [
        ("NrOS page table", SystemId::NrosPageTable, true),
        ("Atmo. page table", SystemId::AtmoPageTable, false),
        ("Mimalloc", SystemId::Mimalloc, true),
        ("VeriSMo", SystemId::VeriSmo, true),
        ("Atmosphere", SystemId::Atmosphere, true),
    ];
    let rows: Vec<Vec<String>> = systems
        .iter()
        .map(|(name, id, has_8t)| {
            let cat = system_catalog(*id);
            let t1 = simulate_verification(&cat, 1, 1.0);
            let (proof, exec) = system_loc(*id);
            let t8 = if *has_8t {
                fmt_time(simulate_verification(&cat, 8, 1.0).wall_s)
            } else {
                "—".to_string()
            };
            vec![
                name.to_string(),
                fmt_time(t1.wall_s),
                t8,
                proof.to_string(),
                exec.to_string(),
                format!("{:.2}", proof as f64 / exec as f64),
            ]
        })
        .collect();

    print!(
        "{}",
        render_table(
            "Table 2: Verification time of different systems on CloudLab c220g5",
            &[
                "System",
                "1 thread",
                "8 threads",
                "Proof",
                "Exec.",
                "P/E Ratio"
            ],
            &rows,
        )
    );

    // §6.1: server (1, 8 threads) + laptop (1, 32 threads).
    println!();
    let cat = system_catalog(SystemId::Atmosphere);
    let rows = vec![
        ("c220g5", 1usize, 1.0f64),
        ("c220g5", 8, 1.0),
        ("laptop i9-13900HX", 1, 4.45),
        ("laptop i9-13900HX", 32, 4.45),
    ]
    .into_iter()
    .map(|(m, threads, speedup)| {
        let r = simulate_verification(&cat, threads, speedup);
        vec![m.to_string(), threads.to_string(), fmt_time(r.wall_s)]
    })
    .collect::<Vec<_>>();
    print!(
        "{}",
        render_table(
            "§6.1: Atmosphere full-verification wall time",
            &["Machine", "Threads", "Wall time"],
            &rows,
        )
    );
}
