//! `bench-e2e`: the repo's two-clock end-to-end benchmark. See README.md
//! in this directory for the metric glossary, the workloads and the
//! comparison recipe.
//!
//! ```text
//! bench-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bench-e2e run <workload> [--trace] [--seed N] [--seconds S]
//! bench-e2e all [--seed N] [--seconds S]
//! bench-e2e check [--seconds S]
//! ```
//!
//! The first form is the driver's contract: one run, the result as one
//! JSON object on the last line of standard output, exit code 0. `run`
//! prints every metric as `workload metric value unit`, writes
//! `<workload>[.traced].json` (and `<workload>.spans.json`) and exits
//! non-zero when a check failed. `all` runs every workload untraced, then
//! traced, each in its own child process (so peak RSS is per workload).
//! `check` is the repeatability gate.

mod alloc;
mod harness;
mod json;
mod metrics;
mod probe;
mod rng;
mod span;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use harness::{RunResult, DEFAULT_SECONDS, DEFAULT_SEED};
use json::Json;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  bench-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
  bench-e2e run <workload> [--trace] [--seed N] [--seconds S]
  bench-e2e all [--seed N] [--seconds S]
  bench-e2e check [--seconds S]";

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: u32,
    trace: bool,
}

/// Parses `--flag value` pairs (and the bare `--trace` of the subcommands).
fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).map(String::as_str);
        let number = |what: &str| -> Result<u64, String> {
            value
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag {
            "--workload" => {
                o.workload = Some(value.ok_or("--workload needs a name")?.to_string());
                i += 2;
            }
            "--seed" => {
                o.seed = number("a whole number")?;
                i += 2;
            }
            "--seconds" => {
                o.seconds = u32::try_from(number("a whole number of seconds")?)
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds must be 1 to 60")?;
                i += 2;
            }
            "--trace" => match value {
                Some("0") => {
                    o.trace = false;
                    i += 2;
                }
                Some("1") => {
                    o.trace = true;
                    i += 2;
                }
                _ => {
                    o.trace = true;
                    i += 1;
                }
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

/// Where `run` leaves its records: next to the build products.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("bench-e2e")
}

fn record_path(workload: &str, traced: bool) -> PathBuf {
    out_dir().join(if traced {
        format!("{workload}.traced.json")
    } else {
        format!("{workload}.json")
    })
}

fn print_metrics(r: &RunResult) {
    let w = r.workload;
    println!("{w} slices_timed {} count", r.slices_timed);
    println!("{w} latency_samples {} count", r.latency_samples);
    println!("{w} timed_s {} s", r.timed_s);
    let e2e = r.end_to_end.iter().zip(&metrics::END_TO_END);
    let layers = r.per_layer.iter().zip(&metrics::PER_LAYER);
    for ((name, value), (_, unit)) in e2e.chain(layers) {
        println!("{w} {name} {value} {unit}");
    }
    println!("{w} attempted {} count", r.attempted);
    println!("{w} failed {} count", r.failed);
    for g in &r.gates {
        if g.ok {
            println!("{w} gate {} ok", g.name);
        } else {
            println!("{w} gate {} FAILED: {}", g.name, g.detail);
        }
    }
}

/// `run <workload>`: one in-process run, printed and recorded.
fn cmd_run(o: &Options, process_start: Instant) -> Result<bool, String> {
    let name = o.workload.as_deref().ok_or("run needs a workload")?;
    let r = workloads::run_named(name, o.seed, o.seconds, o.trace, process_start)
        .ok_or_else(|| format!("unknown workload {name:?} (one of {:?})", workloads::NAMES))?;
    print_metrics(&r);
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |path: PathBuf, text: String| {
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(record_path(name, o.trace), r.full_json().render())?;
    if r.traced {
        let spans = r.tracer.raw_json().render();
        write(dir.join(format!("{name}.spans.json")), spans)?;
    }
    Ok(r.correct())
}

/// One child `run`; returns the record it wrote.
fn child_run(workload: &str, seed: u64, seconds: u32, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()]);
    if trace {
        cmd.arg("--trace");
    }
    // The child's own lines pass through; `wait` is implied by `status`.
    let status = cmd.status().map_err(|e| format!("spawn {workload}: {e}"))?;
    let path = record_path(workload, trace);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let record = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if !status.success() && record.get("correct").and_then(Json::as_bool) != Some(false) {
        return Err(format!("{workload}: child exited with {status}"));
    }
    Ok(record)
}

fn metric(record: &Json, section: &str, name: &str) -> f64 {
    record
        .get(section)
        .and_then(|s| s.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

fn is_correct(record: &Json) -> bool {
    record.get("correct").and_then(Json::as_bool) == Some(true)
}

/// Names of the per-layer metrics that are counts or modeled cycles, i.e.
/// must repeat exactly (host times, and the ratios built on them, do not).
fn exact_layer_metrics() -> impl Iterator<Item = &'static str> {
    metrics::PER_LAYER
        .iter()
        .filter(|(name, unit)| {
            !matches!(*unit, "ns" | "us" | "ms")
                && !name.starts_with("bench.")
                && *name != "trace.host_share_est"
        })
        .map(|(name, _)| *name)
}

/// Compares two records of one workload on everything that must be
/// bit-identical; returns the names that differ.
fn exact_differences(a: &Json, b: &Json, both_traced: bool) -> Vec<String> {
    let model = metrics::END_TO_END
        .iter()
        .map(|(name, _)| ("end_to_end", *name))
        .filter(|(_, name)| name.starts_with("model."));
    // Span-derived M and A metrics exist only in traced records.
    let layers = exact_layer_metrics()
        .filter(|name| both_traced || !metrics::SPAN_DERIVED.contains(name))
        .map(|name| ("per_layer", name));
    let mut diffs: Vec<String> = model
        .chain(layers)
        .filter_map(|(section, name)| {
            let (x, y) = (metric(a, section, name), metric(b, section, name));
            (x.to_bits() != y.to_bits()).then(|| format!("{name}: {x} vs {y}"))
        })
        .collect();
    for name in ["attempted", "failed"] {
        let (x, y) = (
            a.get(name).and_then(Json::as_f64),
            b.get(name).and_then(Json::as_f64),
        );
        if x != y {
            diffs.push(format!("{name}: {x:?} vs {y:?}"));
        }
    }
    diffs
}

/// `all`: every workload untraced, then traced.
fn cmd_all(o: &Options) -> Result<bool, String> {
    let mut ok = true;
    for w in workloads::NAMES {
        let plain = child_run(w, o.seed, o.seconds, false)?;
        let traced = child_run(w, o.seed, o.seconds, true)?;
        let diffs = exact_differences(&plain, &traced, false);
        if diffs.is_empty() {
            println!("{w} traced_reproduces_untraced ok");
        } else {
            println!(
                "{w} traced_reproduces_untraced FAILED: {}",
                diffs.join("; ")
            );
        }
        ok &= is_correct(&plain) && is_correct(&traced) && diffs.is_empty();
    }
    Ok(ok)
}

/// `check`: the repeatability gate. Per workload: two untraced and two
/// traced runs with the default seed, one untraced run with seed 2.
fn cmd_check(o: &Options) -> Result<bool, String> {
    let mut ok = true;
    for w in workloads::NAMES {
        let a = child_run(w, DEFAULT_SEED, o.seconds, false)?;
        let b = child_run(w, DEFAULT_SEED, o.seconds, false)?;
        let ta = child_run(w, DEFAULT_SEED, o.seconds, true)?;
        let tb = child_run(w, DEFAULT_SEED, o.seconds, true)?;
        let other = child_run(w, 2, o.seconds, false)?;

        println!("== check {w}: side by side ==");
        println!(
            "{:<28} {:>16} {:>16} {:>16}",
            "metric", "seed 1 run A", "seed 1 run B", "seed 2"
        );
        for (name, _) in metrics::END_TO_END {
            println!(
                "{name:<28} {:>16.6} {:>16.6} {:>16.6}",
                metric(&a, "end_to_end", name),
                metric(&b, "end_to_end", name),
                metric(&other, "end_to_end", name)
            );
        }
        let mut failures = Vec::new();
        for (what, diffs) in [
            ("untraced A vs B", exact_differences(&a, &b, false)),
            ("traced A vs B", exact_differences(&ta, &tb, true)),
            ("untraced vs traced", exact_differences(&a, &ta, false)),
        ] {
            if !diffs.is_empty() {
                failures.push(format!("{what} differ: {}", diffs.join("; ")));
            }
        }
        for (name, bound) in metrics::bounds() {
            if name.starts_with("model.") {
                continue;
            }
            let (x, y) = (
                metric(&a, "end_to_end", &name),
                metric(&b, "end_to_end", &name),
            );
            // Repeat runs of one build: either may be the worse one, so
            // the gap is taken against the better of the two.
            let gap = (x - y).abs();
            let slack = if name == "setup_s" { 0.05 } else { 0.0 };
            if gap > bound * x.min(y) && gap > slack {
                failures.push(format!("{name}: {x} vs {y} is outside ±{bound}"));
            }
        }
        for (label, record) in [
            ("run A", &a),
            ("run B", &b),
            ("traced A", &ta),
            ("traced B", &tb),
            ("seed 2", &other),
        ] {
            if !is_correct(record) {
                failures.push(format!("{label} is not correct"));
            }
        }
        if failures.is_empty() {
            println!("check {w} ok");
        } else {
            ok = false;
            for f in failures {
                println!("check {w} FAILED: {f}");
            }
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (sub, rest) = match args.first().map(String::as_str) {
        Some(s @ ("run" | "all" | "check")) => (s, &args[1..]),
        _ => ("contract", &args[..]),
    };
    // `run <workload>` takes its workload positionally.
    let (positional, rest) = match (sub, rest.first()) {
        ("run", Some(w)) if !w.starts_with("--") => (Some(w.clone()), &rest[1..]),
        _ => (None, rest),
    };
    let mut o = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench-e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if positional.is_some() {
        o.workload = positional;
    }
    let outcome = match sub {
        "run" => cmd_run(&o, process_start),
        "all" => cmd_all(&o),
        "check" => cmd_check(&o),
        _ => match o.workload.as_deref() {
            None => Err("--workload is required".to_string()),
            Some(name) => {
                match workloads::run_named(name, o.seed, o.seconds, o.trace, process_start) {
                    None => Err(format!("unknown workload {name:?}")),
                    Some(r) => {
                        for g in r.gates.iter().filter(|g| !g.ok) {
                            eprintln!("{name}: gate {} failed: {}", g.name, g.detail);
                        }
                        // The contract: the result is the last line, and a
                        // run that produced one exits 0 (its `correct`
                        // field carries the verdict).
                        println!("{}", r.contract_line());
                        return ExitCode::SUCCESS;
                    }
                }
            }
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench-e2e: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn contract_flags_parse() {
        let o = parse_options(&args(&[
            "--workload",
            "kv-blk",
            "--seed",
            "17",
            "--seconds",
            "5",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("kv-blk"));
        assert_eq!((o.seed, o.seconds, o.trace), (17, 5, true));
        let o = parse_options(&args(&["--trace", "0", "--seed", "3"])).unwrap();
        assert_eq!((o.seed, o.trace), (3, false));
        // The subcommands' bare flag.
        let o = parse_options(&args(&["--trace", "--seed", "3"])).unwrap();
        assert_eq!((o.seed, o.trace), (3, true));
    }

    #[test]
    fn bad_flags_are_refused() {
        assert!(parse_options(&args(&["--seconds", "0"])).is_err());
        assert!(parse_options(&args(&["--seconds", "61"])).is_err());
        assert!(parse_options(&args(&["--seed", "x"])).is_err());
        assert!(parse_options(&args(&["--workload"])).is_err());
        assert!(parse_options(&args(&["--frobnicate"])).is_err());
    }

    #[test]
    fn exact_metrics_exclude_host_time() {
        let exact: Vec<&str> = exact_layer_metrics().collect();
        assert!(exact.contains(&"kernel.syscalls_per_op"));
        assert!(exact.contains(&"kernel.syscall_model_cycles"));
        assert!(exact.contains(&"pm.fastpath_hit_ratio"));
        assert!(exact.contains(&"hw.anchor_map_page_cycles"));
        assert!(!exact.contains(&"kernel.syscall_host_ns_p50"));
        assert!(!exact.contains(&"bench.trace_overhead_ratio"));
        assert!(!exact.contains(&"trace.host_share_est"));
    }
}
