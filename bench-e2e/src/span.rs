//! The traced run's spans, taken from outside the system: the workload
//! driver wraps each call into a layer's public function in
//! [`Tracer::begin`]/[`Tracer::end`]. Spans aggregate in memory (count,
//! sums, exact samples up to [`MAX_SAMPLES`] per name); the raw spans of
//! the first [`RAW_OPS`] ops are kept for `<workload>.spans.json`. All
//! storage is reserved at construction, so tracing adds no allocation to
//! the timed phase.

use std::time::Instant;

use crate::alloc::allocs;
use crate::json::Json;

/// Span names: one per layer boundary the drivers cross, plus the `op`
/// span every other span is a child of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    Op,
    KernelSyscall,
    KernelAuditedSyscall,
    KernelAuditIncremental,
    KernelAuditTotalWf,
    PmTimerTick,
    DriversRxBatchZc,
    DriversTxBatchZc,
    DriversPool,
    AppsIngest,
    AppsTick,
    AppsKvServe,
    TraceSnapshot,
}

pub const NAMES: [Name; 13] = [
    Name::Op,
    Name::KernelSyscall,
    Name::KernelAuditedSyscall,
    Name::KernelAuditIncremental,
    Name::KernelAuditTotalWf,
    Name::PmTimerTick,
    Name::DriversRxBatchZc,
    Name::DriversTxBatchZc,
    Name::DriversPool,
    Name::AppsIngest,
    Name::AppsTick,
    Name::AppsKvServe,
    Name::TraceSnapshot,
];

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Op => "op",
            Name::KernelSyscall => "kernel.syscall",
            Name::KernelAuditedSyscall => "kernel.audited_syscall",
            Name::KernelAuditIncremental => "kernel.audit_incremental",
            Name::KernelAuditTotalWf => "kernel.audit_total_wf",
            Name::PmTimerTick => "pm.timer_tick",
            Name::DriversRxBatchZc => "drivers.rx_batch_zc",
            Name::DriversTxBatchZc => "drivers.tx_batch_zc",
            Name::DriversPool => "drivers.pool",
            Name::AppsIngest => "apps.ingest",
            Name::AppsTick => "apps.tick",
            Name::AppsKvServe => "apps.kv_serve",
            Name::TraceSnapshot => "trace.snapshot",
        }
    }
}

/// Exact host-time samples kept per span name.
pub const MAX_SAMPLES: usize = 1_000_000;
/// Ops whose raw spans are written out.
pub const RAW_OPS: u64 = 20_000;
/// Raw spans reserved (an op has a handful of children; batch ops more).
const RAW_CAP: usize = 400_000;
/// `kernel.syscall` spans also aggregate per syscall kind (the tag).
const TAGS: usize = 64;

#[derive(Clone, Copy, Debug)]
struct Open {
    name: Name,
    tag: u8,
    host0: u64,
    model0: u64,
    allocs0: u64,
    child_ns: u64,
    raw_at: u32,
}

/// One finished span as written to `<workload>.spans.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Raw {
    pub name: Name,
    pub tag: u8,
    pub op_id: u64,
    /// Index of the parent span in the raw list; `u32::MAX` for an `op`.
    pub parent: u32,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub model_start: u64,
    pub model_end: u64,
    pub allocs: u64,
}

/// Running totals of one span name (or one syscall kind).
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub count: u64,
    /// Work items the spans covered (frames, pages, requests); a plain
    /// [`Tracer::end`] counts one.
    pub units: u64,
    pub host_ns: u64,
    /// Host time not covered by child spans.
    pub self_ns: u64,
    pub model: u64,
    pub allocs: u64,
}

impl Agg {
    pub fn mean_host_ns(&self) -> f64 {
        ratio(self.host_ns as f64, self.count as f64)
    }

    pub fn mean_model(&self) -> f64 {
        ratio(self.model as f64, self.count as f64)
    }

    pub fn host_ns_per_unit(&self) -> f64 {
        ratio(self.host_ns as f64, self.units as f64)
    }

    pub fn model_per_unit(&self) -> f64 {
        ratio(self.model as f64, self.units as f64)
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub struct Tracer {
    /// Whether this run is a traced run at all.
    enabled: bool,
    /// Whether the current slice records (a traced run alternates traced
    /// and untraced slices; the untraced ones are its overhead baseline).
    on: bool,
    t0: Instant,
    stack: Vec<Open>,
    aggs: Vec<Agg>,
    /// Host-ns samples per span name, the first [`MAX_SAMPLES`] of each.
    samples: Vec<Vec<u32>>,
    by_tag: Vec<Agg>,
    raw: Vec<Raw>,
    op_id: u64,
    /// Spans whose children summed to more than the span itself.
    pub violations: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        let cap = if enabled { MAX_SAMPLES } else { 0 };
        Tracer {
            enabled,
            on: false,
            t0: Instant::now(),
            stack: Vec::with_capacity(8),
            aggs: vec![Agg::default(); NAMES.len()],
            samples: NAMES.iter().map(|_| Vec::with_capacity(cap)).collect(),
            by_tag: vec![Agg::default(); TAGS],
            raw: Vec::with_capacity(if enabled { RAW_CAP } else { 0 }),
            op_id: 0,
            violations: 0,
        }
    }

    /// `true` while spans are being recorded; drivers read the modeled
    /// clock for a span only when this holds.
    #[inline]
    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.on = on && self.enabled;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens the `op` span of the next op.
    #[inline]
    pub fn begin_op(&mut self, model_now: u64) {
        if self.on {
            self.op_id += 1;
            self.begin(Name::Op, 0, model_now);
        }
    }

    #[inline]
    pub fn begin(&mut self, name: Name, tag: u8, model_now: u64) {
        if !self.on {
            return;
        }
        let keep_raw = self.op_id <= RAW_OPS && self.raw.len() < self.raw.capacity();
        let raw_at = if keep_raw {
            let parent = self.stack.last().map_or(u32::MAX, |o| o.raw_at);
            self.raw.push(Raw {
                name,
                tag,
                op_id: self.op_id,
                parent,
                host_start_ns: 0,
                host_end_ns: 0,
                model_start: model_now,
                model_end: model_now,
                allocs: 0,
            });
            (self.raw.len() - 1) as u32
        } else {
            u32::MAX
        };
        debug_assert!(self.stack.len() < self.stack.capacity());
        // Clock last, so the span excludes the tracer's own set-up.
        let open = Open {
            name,
            tag,
            host0: self.now_ns(),
            model0: model_now,
            allocs0: allocs(),
            child_ns: 0,
            raw_at,
        };
        self.stack.push(open);
    }

    /// Closes the innermost span; returns its host duration in ns (0 when
    /// not recording).
    #[inline]
    pub fn end(&mut self, model_now: u64) -> u64 {
        self.end_with(model_now, 1)
    }

    /// [`end`](Self::end) for a span that covered `units` work items.
    #[inline]
    pub fn end_with(&mut self, model_now: u64, units: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let end_ns = self.now_ns();
        let allocs_now = allocs();
        let o = self.stack.pop().expect("end without begin");
        let dur = end_ns - o.host0;
        let model = model_now.saturating_sub(o.model0);
        let n_allocs = allocs_now - o.allocs0;
        if o.child_ns > dur {
            self.violations += 1;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let self_ns = dur.saturating_sub(o.child_ns);
        let fold = |a: &mut Agg| {
            a.count += 1;
            a.units += units;
            a.host_ns += dur;
            a.self_ns += self_ns;
            a.model += model;
            a.allocs += n_allocs;
        };
        fold(&mut self.aggs[o.name as usize]);
        let samples = &mut self.samples[o.name as usize];
        if samples.len() < samples.capacity() {
            samples.push(dur.min(u32::MAX as u64) as u32);
        }
        if o.name == Name::KernelSyscall {
            fold(&mut self.by_tag[o.tag as usize % TAGS]);
        }
        if o.raw_at != u32::MAX {
            let r = &mut self.raw[o.raw_at as usize];
            r.host_start_ns = o.host0;
            r.host_end_ns = end_ns;
            r.model_end = model_now.max(o.model0);
            r.allocs = n_allocs;
        }
        dur
    }

    /// Closes the `op` span of an op that stood for `ops` counted ops (a
    /// burst or batch).
    #[inline]
    pub fn end_op(&mut self, model_now: u64, ops: u64) {
        self.end_with(model_now, ops);
    }

    pub fn agg(&self, name: Name) -> Agg {
        self.aggs[name as usize]
    }

    /// The `kernel.syscall` aggregate of one syscall kind.
    pub fn syscall_kind(&self, tag: u8) -> Agg {
        self.by_tag[tag as usize % TAGS]
    }

    /// Nearest-rank percentiles `ps` of the host-ns samples kept for
    /// `name` (0 where the percentile rule withholds one).
    pub fn host_ns_quantiles<const N: usize>(&mut self, name: Name, ps: [f64; N]) -> [f64; N] {
        let samples = &mut self.samples[name as usize];
        samples.sort_unstable();
        ps.map(|p| crate::stats::quantile_sorted(samples, p).unwrap_or(0) as f64)
    }

    /// The raw spans as a JSON array.
    pub fn raw_json(&self) -> Json {
        Json::Arr(
            self.raw
                .iter()
                .enumerate()
                .map(|(id, r)| {
                    Json::obj(vec![
                        ("id", Json::Num(id as f64)),
                        ("name", Json::Str(r.name.as_str().into())),
                        ("tag", Json::Num(r.tag as f64)),
                        ("op_id", Json::Num(r.op_id as f64)),
                        (
                            "parent",
                            if r.parent == u32::MAX {
                                Json::Null
                            } else {
                                Json::Num(r.parent as f64)
                            },
                        ),
                        ("host_start_ns", Json::Num(r.host_start_ns as f64)),
                        ("host_end_ns", Json::Num(r.host_end_ns as f64)),
                        ("model_start", Json::Num(r.model_start as f64)),
                        ("model_end", Json::Num(r.model_end as f64)),
                        ("allocs", Json::Num(r.allocs as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut tr = Tracer::new(true);
        tr.set_on(true);
        tr.begin_op(100);
        spin(200_000);
        tr.begin(Name::KernelSyscall, 3, 100);
        spin(300_000);
        let d1 = tr.end(400);
        tr.begin(Name::AppsTick, 0, 400);
        spin(100_000);
        let d2 = tr.end(450);
        tr.end_op(500, 1);
        assert_eq!(tr.violations, 0);
        let op = tr.agg(Name::Op);
        assert_eq!(op.count, 1);
        assert_eq!(op.model, 400);
        assert_eq!(op.self_ns, op.host_ns - d1 - d2, "self = span − children");
        assert!(op.self_ns >= 200_000, "the op's own spin is self time");
        assert!(d1 >= 300_000 && d2 >= 100_000);
        let sc = tr.agg(Name::KernelSyscall);
        assert_eq!((sc.count, sc.model, sc.self_ns), (1, 300, sc.host_ns));
        assert_eq!(tr.syscall_kind(3).count, 1);
        assert_eq!(tr.syscall_kind(4).count, 0);

        // Raw spans: the op first, both children pointing at it.
        let raw = &tr.raw;
        assert_eq!(raw.len(), 3);
        assert_eq!((raw[0].name, raw[0].parent), (Name::Op, u32::MAX));
        assert_eq!((raw[1].name, raw[1].parent), (Name::KernelSyscall, 0));
        assert_eq!((raw[2].name, raw[2].parent), (Name::AppsTick, 0));
        assert!(raw.iter().all(|r| r.op_id == 1));
        assert!(raw[1].host_start_ns >= raw[0].host_start_ns);
        assert!(raw[2].host_end_ns <= raw[0].host_end_ns);
        assert_eq!((raw[1].model_start, raw[1].model_end), (100, 400));
    }

    #[test]
    fn spans_count_allocations_inside_them() {
        let mut tr = Tracer::new(true);
        tr.set_on(true);
        tr.begin_op(0);
        tr.begin(Name::AppsKvServe, 0, 0);
        let v: Vec<u8> = Vec::with_capacity(100);
        std::hint::black_box(&v);
        tr.end(0);
        tr.end_op(0, 1);
        assert!(tr.agg(Name::AppsKvServe).allocs >= 1);
        assert!(tr.agg(Name::Op).allocs >= tr.agg(Name::AppsKvServe).allocs);
    }

    #[test]
    fn untraced_slices_record_nothing() {
        let mut tr = Tracer::new(true);
        tr.set_on(false);
        tr.begin_op(0);
        tr.begin(Name::KernelSyscall, 0, 0);
        assert_eq!(tr.end(10), 0);
        tr.end_op(10, 1);
        assert_eq!(tr.agg(Name::Op).count, 0);
        assert!(tr.raw.is_empty());
        // A run that is not traced cannot be switched on.
        let mut off = Tracer::new(false);
        off.set_on(true);
        assert!(!off.on());
    }

    #[test]
    fn raw_json_renders_every_field() {
        let mut tr = Tracer::new(true);
        tr.set_on(true);
        tr.begin_op(7);
        tr.end_op(9, 1);
        let text = tr.raw_json().render();
        for key in [
            "\"name\":\"op\"",
            "\"op_id\":1",
            "\"parent\":null",
            "\"host_start_ns\":",
            "\"host_end_ns\":",
            "\"model_start\":7",
            "\"model_end\":9",
            "\"allocs\":0",
        ] {
            assert!(text.contains(key), "{key} missing from {text}");
        }
    }
}
