//! The run of one workload: repeated set-up, the 25-slice timed phase,
//! exit gates, and the result record.
//!
//! Op counts are a pure function of `--seconds` (never of measured time),
//! so the same `(seed, seconds)` issues bit-identical work on any commit
//! and every modeled metric is exactly comparable. The per-second sizes
//! are calibrated so the timed phase lasts about `--seconds` on the
//! machine and commit that defined the benchmark.

use std::time::Instant;

use atmo_kernel::{Kernel, SmpKernel, SyscallArgs, SyscallReturn};

use crate::alloc::allocs;
use crate::json::Json;
use crate::metrics::{self, kind_tag, Anchors, Extras, Readings, FREQ_HZ};
use crate::probe::{run_probes, Counts, Probes};
use crate::span::{Name, Tracer};
use crate::stats::{cv, median, peak_rss_mib, LatStore};

/// Timed slices per run; one more untimed warm-up slice precedes them.
pub const SLICES: usize = 25;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// `run_seconds` of `BENCHMARK.json`, and the default of the subcommands.
pub const DEFAULT_SECONDS: u32 = 5;
pub const DEFAULT_SEED: u64 = 1;

/// What a slice needs from the harness.
pub struct Ctx {
    pub tr: Tracer,
    pub lat: LatStore,
    /// Ops that failed, were refused, or whose check failed.
    pub failed: u64,
}

impl Ctx {
    pub fn new(trace: bool, max_ops: usize) -> Ctx {
        Ctx {
            tr: Tracer::new(trace),
            lat: LatStore::with_capacity(max_ops),
            failed: 0,
        }
    }

    /// A context for set-up work: no spans, no latency samples.
    pub fn untraced() -> Ctx {
        Ctx::new(false, 0)
    }

    /// Counts one failed op when `ok` does not hold.
    #[inline]
    pub fn expect(&mut self, ok: bool) {
        if !ok {
            self.failed += 1;
        }
    }
}

/// One exit gate's verdict.
pub struct Gate {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Collects exit gates.
#[derive(Default)]
pub struct Gates(pub Vec<Gate>);

impl Gates {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        self.0.push(Gate {
            name,
            ok,
            detail: if ok { String::new() } else { detail() },
        });
    }

    pub fn verif(&mut self, name: &'static str, r: atmo_spec::VerifResult) {
        self.check(name, r.is_ok(), || format!("{:?}", r.err()));
    }
}

/// A workload: a closed loop driven from this one host thread.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Ops per slice for each second of `--seconds`.
    const OPS_PER_SLICE_PER_SECOND: usize;

    /// Boots and fills the system.
    fn setup(seed: u64, ops_per_slice: usize) -> Self;

    /// Issues exactly `ops_per_slice` ops.
    fn run_slice(&mut self, ctx: &mut Ctx);

    /// Cumulative modeled clock of every modeled CPU.
    fn clocks(&self) -> Vec<u64>;

    /// Cumulative counters.
    fn counts(&self) -> Counts;

    /// Workload-specific readings; runs the workload's own direct-call
    /// probes when `probe` is set (traced runs, after the timed phase).
    fn extras(&mut self, probe: bool) -> Extras;

    /// Drains the system and checks its outputs; `d` holds the timed
    /// phase's counter deltas.
    fn finish(&mut self, ctx: &mut Ctx, d: &Counts, gates: &mut Gates);
}

/// One syscall on a sharded kernel, inside a `kernel.syscall` span.
#[inline]
pub fn sys_smp(k: &SmpKernel, tr: &mut Tracer, cpu: usize, args: SyscallArgs) -> SyscallReturn {
    sys_smp_timed(k, tr, cpu, args).0
}

/// [`sys_smp`], also returning the span's host ns (0 when not recording).
#[inline]
pub fn sys_smp_timed(
    k: &SmpKernel,
    tr: &mut Tracer,
    cpu: usize,
    args: SyscallArgs,
) -> (SyscallReturn, u64) {
    if !tr.on() {
        return (k.syscall(cpu, args), 0);
    }
    tr.begin(
        Name::KernelSyscall,
        kind_tag(args.trace_kind()),
        k.cycles(cpu),
    );
    let r = k.syscall(cpu, args);
    let ns = tr.end(k.cycles(cpu));
    (r, ns)
}

/// One syscall on a flat kernel, inside a `kernel.syscall` span.
#[inline]
pub fn sys_flat(k: &mut Kernel, tr: &mut Tracer, cpu: usize, args: SyscallArgs) -> SyscallReturn {
    if !tr.on() {
        return k.syscall(cpu, args);
    }
    tr.begin(
        Name::KernelSyscall,
        kind_tag(args.trace_kind()),
        k.cycles(cpu),
    );
    let r = k.syscall(cpu, args);
    tr.end(k.cycles(cpu));
    r
}

/// Everything one run measured.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u32,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub gates: Vec<Gate>,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(&'static str, f64)>,
    pub slices_timed: usize,
    pub latency_samples: u64,
    pub timed_s: f64,
    /// Host seconds of each timed slice, in order.
    pub slice_s: Vec<f64>,
    /// The run's tracer; its raw spans are rendered only when written out.
    pub tracer: Tracer,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.iter().all(|g| g.ok)
    }

    fn metrics_json(metrics: &[(&'static str, f64)], table: &[(&str, &str)]) -> Json {
        Json::Obj(
            metrics
                .iter()
                .zip(table)
                .map(|((name, value), (_, unit))| {
                    (
                        name.to_string(),
                        Json::obj(vec![
                            ("value", Json::Num(*value)),
                            ("unit", Json::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics` — end-to-end metrics for an untraced run,
    /// per-layer metrics for a traced one.
    pub fn contract_line(&self) -> String {
        let metrics = if self.traced {
            Self::metrics_json(&self.per_layer, &metrics::PER_LAYER)
        } else {
            Self::metrics_json(&self.end_to_end, &metrics::END_TO_END)
        };
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            // One op can fail several checks; the line counts ops.
            ("failed", Json::Num(self.failed.min(self.attempted) as f64)),
            ("metrics", metrics),
        ])
        .render()
    }

    /// The full record written to `<workload>[.traced].json`.
    pub fn full_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::Str(self.workload.into())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds as f64)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("slices_timed", Json::Num(self.slices_timed as f64)),
            ("latency_samples", Json::Num(self.latency_samples as f64)),
            ("timed_s", Json::Num(self.timed_s)),
            (
                "slice_s",
                Json::Arr(self.slice_s.iter().map(|s| Json::Num(*s)).collect()),
            ),
            (
                "gates",
                Json::Arr(
                    self.gates
                        .iter()
                        .map(|g| {
                            Json::obj(vec![
                                ("name", Json::Str(g.name.into())),
                                ("ok", Json::Bool(g.ok)),
                                ("detail", Json::Str(g.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Self::metrics_json(&self.end_to_end, &metrics::END_TO_END),
            ),
            (
                "per_layer",
                Self::metrics_json(&self.per_layer, &metrics::PER_LAYER),
            ),
        ])
    }
}

/// Runs workload `W` once.
pub fn run<W: Workload>(seed: u64, seconds: u32, trace: bool, process_start: Instant) -> RunResult {
    let ops_per_slice = W::OPS_PER_SLICE_PER_SECOND * seconds as usize;
    assert!(ops_per_slice > 0, "--seconds must be at least 1");

    // Set-up, several times over: each repetition checks the Table 3
    // anchors, builds the system from nothing and runs the untimed warm-up
    // slice; the last instance goes on to the timed phase.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut anchors = Anchors::PAPER;
    let mut instance: Option<W> = None;
    let mut warm_failed = 0;
    for rep in 0..SETUP_REPS {
        drop(instance.take());
        let started = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        anchors = Anchors::measure();
        let mut w = W::setup(seed, ops_per_slice);
        let mut warm = Ctx::new(false, ops_per_slice);
        w.run_slice(&mut warm);
        warm_failed += warm.failed;
        setup_s.push(started.elapsed().as_secs_f64());
        instance = Some(w);
    }
    let mut w = instance.expect("SETUP_REPS > 0");
    let mut ctx = Ctx::new(trace, ops_per_slice * SLICES);

    // The timed phase. A traced run records spans on the even slices only;
    // its odd slices are the same run's untraced baseline.
    let counts0 = w.counts();
    let clocks0 = w.clocks();
    let allocs0 = allocs();
    let mut slice_s = Vec::with_capacity(SLICES);
    let timed = Instant::now();
    for s in 0..SLICES {
        ctx.tr.set_on(s % 2 == 0);
        let t = Instant::now();
        w.run_slice(&mut ctx);
        slice_s.push(t.elapsed().as_secs_f64());
    }
    let timed_s = timed.elapsed().as_secs_f64();
    ctx.tr.set_on(false);
    let allocs_timed = allocs() - allocs0;
    let clocks1 = w.clocks();
    let d = w.counts().since(&counts0);

    let ops = (ops_per_slice * SLICES) as u64;
    let mut gates = Gates::default();
    gates.check("hw.anchors", anchors == Anchors::PAPER, || {
        format!("{anchors:?} != {:?}", Anchors::PAPER)
    });
    gates.check("latency_samples", ctx.lat.count() == ops, || {
        format!("{} samples for {ops} ops", ctx.lat.count())
    });
    gates.check("span_nesting", ctx.tr.violations == 0, || {
        format!("{} spans shorter than their children", ctx.tr.violations)
    });
    gates.check("warmup", warm_failed == 0, || {
        format!("{warm_failed} ops failed in the warm-up slices")
    });
    w.finish(&mut ctx, &d, &mut gates);
    let mut x = w.extras(trace);
    let probes = if trace {
        run_probes()
    } else {
        Probes::default()
    };
    let rss = peak_rss_mib();

    // End-to-end metrics.
    let advances: Vec<u64> = clocks1.iter().zip(&clocks0).map(|(a, b)| a - b).collect();
    let model_cycles: u64 = advances.iter().sum();
    let max_advance = advances.iter().copied().max().unwrap_or(0).max(1);
    let (traced_s, untraced_s): (Vec<f64>, Vec<f64>) = if trace {
        (
            slice_s.iter().copied().step_by(2).collect(),
            slice_s.iter().copied().skip(1).step_by(2).collect(),
        )
    } else {
        (Vec::new(), slice_s.clone())
    };
    let slice_median = median(&untraced_s);
    ctx.lat.seal();
    // A percentile the rule withholds (a run shorter than the default,
    // with fewer than ten samples beyond it) repeats the highest one it
    // allows, so that the result line always carries a number.
    let p50 = ctx.lat.quantile(0.5).unwrap_or(0);
    let p99 = ctx.lat.quantile(0.99).unwrap_or(p50);
    let p999 = ctx.lat.quantile(0.999).unwrap_or(p99);
    let end_to_end = vec![
        ("setup_s", median(&setup_s)),
        ("host.kops_per_s", ops_per_slice as f64 / slice_median / 1e3),
        ("host.peak_rss_mib", rss),
        ("model.cycles_per_op", model_cycles as f64 / ops as f64),
        (
            "model.kops_per_s",
            ops as f64 * FREQ_HZ / max_advance as f64 / 1e3,
        ),
        ("model.p50_cycles", p50 as f64),
        ("model.p99_cycles", p99 as f64),
        ("model.p999_cycles", p999 as f64),
    ];

    let mut readings = Readings {
        ops,
        model_cycles,
        host_ns_per_op: slice_median * 1e9 / ops_per_slice as f64,
        d,
        tr: &mut ctx.tr,
        x: &mut x,
        probes,
        anchors,
        allocs_per_op: allocs_timed as f64 / ops as f64,
        trace_overhead_ratio: if trace {
            median(&traced_s) / slice_median
        } else {
            0.0
        },
        slice_cv: cv(&untraced_s),
    };
    let per_layer = metrics::per_layer(&mut readings);

    RunResult {
        workload: W::NAME,
        seed,
        seconds,
        traced: trace,
        attempted: ops,
        failed: ctx.failed,
        gates: gates.0,
        end_to_end,
        per_layer,
        slices_timed: SLICES,
        latency_samples: ctx.lat.count(),
        timed_s,
        slice_s,
        tracer: ctx.tr,
    }
}
