//! End-to-end and per-layer benchmark of the dynsnzi runtime.
//!
//! `perfbench --workload <fib|wavefront|fanout|await_chain> --seed <n>
//! --seconds <s> --trace <0|1> [--out-dir <dir>] [--rustc <version>]
//! [--git-rev <rev>]`
//!
//! The load is a closed loop from one caller thread: the next
//! `Runtime::run` starts only after the previous one returned, and every
//! run is checked against a sequential reference built from the seed.
//! `--trace 0` reports the end-to-end metrics with spans compiled out;
//! `--trace 1` alternates untraced and traced runs and reports the
//! per-layer metrics. Every metric prints as a line, followed by one JSON
//! record as the last line of standard output; the process exits non-zero
//! when any run or self-check failed.

mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dynsnzi::obs::Snapshot;
use dynsnzi::{DagRunStats, Runtime};

use stats::{median, ratio, tail_quantile, Value};
use trace::{Off, On, Recorder, RunTrace, CALLS};
use workloads::{AwaitChain, Counts, Fanout, Fib, Wavefront, Workload, WORKERS};

/// Timed runs each measurement needs at least: enough for ten samples
/// beyond the p90.
const MIN_RUNS: usize = 100;
/// Traced runs the per-layer medians need at least.
const MIN_TRACED: usize = 10;
/// Independent set-ups whose median is `setup_s`.
const SETUPS: usize = 5;
/// Untimed runs that fill the runtime's pools and caches in a set-up.
const WARMUPS: usize = 3;
/// No measurement loop runs longer than this, whatever it still lacks.
const HARD_STOP: Duration = Duration::from_secs(120);
/// Span events written to the Chrome trace at most.
const TRACE_EVENTS: usize = 100_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    rustc: String,
    git_rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(".bench_build/perfbench"),
        rustc: "unknown".into(),
        git_rev: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--out-dir" => args.out_dir = value.into(),
            "--rustc" => args.rustc = value,
            "--git-rev" => args.git_rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], not {}", args.seconds));
    }
    Ok(args)
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ok = match args.workload.as_str() {
        "fib" => bench::<Fib>(&args, process_start),
        "wavefront" => bench::<Wavefront>(&args, process_start),
        "fanout" => bench::<Fanout>(&args, process_start),
        "await_chain" => bench::<AwaitChain>(&args, process_start),
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} (fib, wavefront, fanout, await_chain)"
            );
            std::process::exit(2);
        }
    };
    std::process::exit(if ok { 0 } else { 1 });
}

/// One printed metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: Value,
    samples: usize,
    /// For a ratio: the label and median value of its base.
    base: Option<(String, f64)>,
}

/// Run/failure tally and the metrics of one benchmark invocation.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Exact-count self-check violations (deduplicated).
    violations: Vec<String>,
    metrics: Vec<Metric>,
}

impl Outcome {
    /// Execute one dag run (untimed bookkeeping around it), returning its
    /// wall time and pool statistics when it completed and matched the
    /// reference. A panicking run counts as failed instead of aborting.
    fn run<W: Workload, R: Recorder>(
        &mut self,
        wl: &'static W,
        rt: &Runtime,
        rec: R,
    ) -> (Duration, Option<DagRunStats>) {
        wl.reset();
        let t0 = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| wl.run(rt, rec)));
        let dt = t0.elapsed();
        self.attempted += 1;
        let res = res.ok().filter(|_| wl.check());
        if res.is_none() {
            self.failed += 1;
        }
        (dt, res)
    }

    fn push(&mut self, name: &str, unit: &'static str, value: Value, samples: usize) {
        let value = match value {
            Value::Num(v) if !v.is_finite() => Value::unavailable("not finite"),
            v => v,
        };
        self.metrics.push(Metric { name: name.to_string(), unit, value, samples, base: None });
    }

    fn violation(&mut self, v: String) {
        if !self.violations.contains(&v) {
            self.violations.push(v);
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// Set up a workload: generate inputs and reference, build the runtime,
/// and run the warm-up dags. Returns the set-up time.
fn setup<W: Workload>(
    out: &mut Outcome,
    seed: u64,
    started: Instant,
) -> (&'static W, Runtime, f64) {
    let wl: &'static W = Box::leak(Box::new(W::generate(seed)));
    let rt = Runtime::new().workers(WORKERS);
    for _ in 0..WARMUPS {
        out.run(wl, &rt, Off);
    }
    (wl, rt, started.elapsed().as_secs_f64())
}

fn bench<W: Workload>(args: &Args, process_start: Instant) -> bool {
    let mut out = Outcome::default();
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let (mut wl, mut rt, s0) = setup::<W>(&mut out, args.seed, process_start);
    setup_s.push(s0);
    for _ in 1..setups {
        let (w, r, s) = setup::<W>(&mut out, args.seed, Instant::now());
        (wl, rt) = (w, r);
        setup_s.push(s);
    }
    let seconds = Duration::from_secs_f64(args.seconds);
    let samples = if args.trace {
        measure_layers(&mut out, wl, &rt, seconds, args)
    } else {
        measure_end_to_end(&mut out, wl, &rt, seconds, &setup_s)
    };
    report(&out, wl, args, &samples)
}

/// Closed-loop timed runs with spans compiled out.
fn measure_end_to_end<W: Workload>(
    out: &mut Outcome,
    wl: &'static W,
    rt: &Runtime,
    seconds: Duration,
    setup_s: &[f64],
) -> Vec<(&'static str, usize)> {
    let (mut wall_ms, mut cpu_ms) = (Vec::new(), Vec::new());
    let (mut ops, mut busy) = (0u64, Duration::ZERO);
    let mut peak_kb = None;
    let start = Instant::now();
    let (attempted0, failed0) = (out.attempted, out.failed);
    while (start.elapsed() < seconds || wall_ms.len() < MIN_RUNS) && start.elapsed() < HARD_STOP {
        let c0 = process_cpu_ns();
        let (dt, res) = out.run(wl, rt, Off);
        let c1 = process_cpu_ns();
        wall_ms.push(dt.as_secs_f64() * 1e3);
        cpu_ms.push((c1 - c0) as f64 / 1e6);
        busy += dt;
        if res.is_some() {
            ops += wl.ops();
        }
        if wall_ms.len() == MIN_RUNS {
            // Read at a fixed run count: later runs keep adding small
            // per-run allocations, and a faster build must not report
            // more memory only because it fit more runs in the window.
            peak_kb = peak_rss_kb();
        }
    }
    let n = wall_ms.len();
    let num = |v: Option<f64>, why: &str| v.map_or_else(|| Value::unavailable(why), Value::Num);
    out.push("run_ms_p50", "ms", num(median(&wall_ms), "no runs"), n);
    out.push("run_ms_p90", "ms", num(tail_quantile(&wall_ms, 0.9), "fewer than 100 runs"), n);
    out.push("ops_per_s", "1/s", ratio(ops as f64, busy.as_secs_f64()), n);
    out.push("cpu_ms_per_run", "ms", num(median(&cpu_ms), "no runs"), n);
    let rss = peak_kb.map(|kb| kb as f64 / 1024.0);
    out.push("peak_rss_mb", "MB", num(rss, "VmHWM unreadable or too few runs"), 1);
    out.push("setup_s", "s", num(median(setup_s), "no set-up"), setup_s.len());
    let (attempted, failed) = (out.attempted - attempted0, out.failed - failed0);
    out.push("failed_frac", "frac", ratio(failed as f64, attempted as f64), attempted as usize);
    vec![("timed_runs", n), ("setups", setup_s.len()), ("warmups_per_setup", WARMUPS)]
}

/// Per-run values of the per-layer metrics, gathered over traced runs.
#[derive(Default)]
struct Layers {
    units: BTreeMap<String, &'static str>,
    samples: BTreeMap<String, Vec<f64>>,
    /// For ratios: the base's label and per-run values.
    bases: BTreeMap<String, (String, Vec<f64>)>,
    missing: BTreeMap<String, String>,
}

impl Layers {
    fn put(&mut self, name: &str, unit: &'static str, value: Option<f64>, why_missing: &str) {
        self.units.insert(name.to_string(), unit);
        match value {
            Some(v) => self.samples.entry(name.to_string()).or_default().push(v),
            None => {
                self.missing.entry(name.to_string()).or_insert_with(|| why_missing.to_string());
            }
        }
    }

    fn count(&mut self, name: &str, v: u64) {
        self.put(name, "count", Some(v as f64), "");
    }
}

/// Counter names reported as plain per-run deltas.
const COUNTERS: [&str; 17] = [
    "snzi.trees_created",
    "snzi.grow_installs",
    "incounter.created",
    "outset.created",
    "outset.adds",
    "outset.lost_cas",
    "outset.splits",
    "outset.blocks_allocated",
    "epoch.pins",
    "epoch.collects",
    "sched.vertex_alloc",
    "sched.poolarc_alloc",
    "sched.strand_alloc",
    "spdag.spawns",
    "spdag.futures_created",
    "spdag.touches",
    "spdag.touch_awaits",
];

/// Ratios of counter deltas: the metric, its numerator, and the counters
/// summed into its base.
const RATIOS: [(&str, &str, &[&str]); 5] = [
    ("snzi.grow_loss_ratio", "snzi.grow_losses", &["snzi.grow_installs", "snzi.grow_losses"]),
    ("outset.bounce_ratio", "outset.adds_bounced", &["outset.adds"]),
    (
        "outset.block_reuse_ratio",
        "outset.blocks_reused",
        &["outset.blocks_allocated", "outset.blocks_reused"],
    ),
    (
        "sched.vertex_reuse_ratio",
        "sched.vertex_reuse",
        &["sched.vertex_alloc", "sched.vertex_reuse"],
    ),
    ("spdag.body_inline_ratio", "spdag.body_inline", &["spdag.body_inline", "spdag.body_boxed"]),
];

/// Histogram quantiles: the metric, its histogram, and the quantile.
const QUANTILES: [(&str, &str, f64); 4] = [
    ("outset.sweep_ns_p50", "outset.sweep_ns", 0.5),
    ("outset.sweep_ns_p99", "outset.sweep_ns", 0.99),
    ("sched.steal_to_run_ns_p50", "sched.steal_to_run_ns", 0.5),
    ("sched.steal_to_run_ns_p99", "sched.steal_to_run_ns", 0.99),
];

/// Alternating untraced and traced runs: per-layer metrics from the
/// traced ones, and the tracing overhead from the pair.
fn measure_layers<W: Workload>(
    out: &mut Outcome,
    wl: &'static W,
    rt: &Runtime,
    seconds: Duration,
    args: &Args,
) -> Vec<(&'static str, usize)> {
    let (rec, bufs) = On::install(WORKERS, wl.max_spans());
    let mut layers = Layers::default();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut kept: Vec<RunTrace> = Vec::new();
    let mut kept_spans = 0usize;
    let start = Instant::now();
    while (start.elapsed() < seconds || traced_ms.len() < MIN_TRACED) && start.elapsed() < HARD_STOP
    {
        let (dt, _) = out.run(wl, rt, Off);
        plain_ms.push(dt.as_secs_f64() * 1e3);

        let before = Snapshot::take();
        let run_start = bufs.now();
        let (_, res) = out.run(wl, rt, rec);
        let run_end = bufs.now();
        let after = Snapshot::take();
        // SAFETY: the traced run has returned; no other run is live.
        let (spans, dropped) = unsafe { bufs.take() };
        let Some(stats) = res else { continue };
        let id = traced_ms.len() as u32;
        let run = RunTrace { id, run_start, run_end, spans };
        traced_ms.push((run_end - run_start) as f64 / 1e6);
        if dropped > 0 {
            out.violation("span buffers overflowed".to_string());
        }
        record_run(
            &mut layers,
            &run,
            &Counts { snap: after.diff(&before), pool: stats.pool },
            wl,
            out,
        );
        if kept_spans < TRACE_EVENTS {
            kept_spans += run.spans.len();
            kept.push(run);
        }
    }
    write_trace(&kept, args);

    for (name, unit) in &layers.units {
        let samples = layers.samples.get(name).map_or(&[][..], Vec::as_slice);
        let value = match median(samples) {
            Some(v) => Value::Num(v),
            None => Value::Unavailable(layers.missing.get(name).cloned().unwrap_or_default()),
        };
        out.push(name, unit, value, samples.len());
        if let Some((base_name, bases)) = layers.bases.get(name) {
            let m = out.metrics.last_mut().expect("just pushed");
            m.base = median(bases).map(|b| (base_name.clone(), b));
        }
    }
    let overhead = match (median(&traced_ms), median(&plain_ms)) {
        (Some(t), Some(p)) => {
            ratio(t, p).num().map_or(Value::unavailable("zero base"), |r| Value::Num(r - 1.0))
        }
        _ => Value::unavailable("no runs"),
    };
    out.push("obs.trace_overhead_frac", "frac", overhead, traced_ms.len());
    vec![
        ("traced_runs", traced_ms.len()),
        ("untraced_runs", plain_ms.len()),
        ("warmups_per_setup", WARMUPS),
    ]
}

/// Reduce one traced run to per-layer values and run its exact-count
/// self-checks.
fn record_run<W: Workload>(
    layers: &mut Layers,
    run: &RunTrace,
    c: &Counts,
    wl: &W,
    out: &mut Outcome,
) {
    let spans = trace::analyse(run, WORKERS);
    layers.put("core.run_ms", "ms", Some((run.run_end - run.run_start) as f64 / 1e6), "");
    layers.put("sched.spinup_us", "us", spans.spinup_us, "root body never ran");
    layers.put("sched.drain_us", "us", spans.drain_us, "no body ran");
    layers.put("spdag.body_self_ms", "ms", Some(spans.body_self_ms), "");
    layers.put("sched.busy_frac", "frac", Some(spans.busy_frac), "");
    for ((_, name), v) in CALLS.iter().zip(spans.call_ns) {
        layers.put(name, "ns", v, "the workload makes no such call");
    }
    layers.put(
        "spdag.park_to_resume_us",
        "us",
        spans.park_to_resume_us,
        "no strand parks in this workload",
    );
    layers.put(
        "sched.handoff_us",
        "us",
        spans.handoff_us,
        "no producer-consumer edge in this workload",
    );

    let p = &c.pool;
    for (name, v) in [
        ("sched.tasks", p.tasks),
        ("sched.steals", p.steals),
        ("sched.parks", p.parks),
        ("sched.wakeups", p.wakeups),
        ("sched.spurious_wakes", p.spurious_wakes),
        ("sched.suspends", p.suspends),
    ] {
        layers.count(name, v);
    }
    let max_tasks = p.tasks_per_worker.iter().copied().max().unwrap_or(0) as f64;
    let mean_tasks = p.tasks as f64 / p.tasks_per_worker.len().max(1) as f64;
    layers.put("sched.worker_imbalance", "ratio", ratio(max_tasks, mean_tasks).num(), "no tasks");

    // With telemetry compiled out every counter reads 0: report them as
    // unavailable, never as 0, and skip the exact-count checks.
    const OFF: &str = "telemetry compiled out";
    let telemetry = dynsnzi::obs::enabled();
    for name in COUNTERS {
        layers.put(name, "count", telemetry.then(|| c.get(name) as f64), OFF);
    }
    for (name, num, base) in RATIOS {
        if !telemetry {
            layers.put(name, "ratio", None, OFF);
            continue;
        }
        let base_value: u64 = base.iter().map(|b| c.get(b)).sum();
        let entry = layers.bases.entry(name.to_string());
        entry.or_insert_with(|| (base.join("+"), Vec::new())).1.push(base_value as f64);
        layers.put(name, "ratio", ratio(c.get(num) as f64, base_value as f64).num(), "zero base");
    }
    for (name, hist, q) in QUANTILES {
        let h = c.snap.histogram(hist).filter(|h| h.count() > 0);
        let why = if telemetry { "no samples" } else { OFF };
        layers.put(name, "ns_pow2_ub", h.map(|h| h.quantile_bound(q) as f64), why);
    }
    if !telemetry {
        return;
    }
    for v in wl.check_counts(c) {
        out.violation(v);
    }
}

fn write_trace(runs: &[RunTrace], args: &Args) {
    let path = args.out_dir.join(format!("trace-{}.json", args.workload));
    let json = trace::chrome_json(runs, WORKERS, TRACE_EVENTS);
    match std::fs::create_dir_all(&args.out_dir).and_then(|_| std::fs::write(&path, json)) {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

/// Print every metric as a line and the JSON record as the last line;
/// also store the record under the output directory. Returns whether
/// every run and self-check passed.
fn report<W: Workload>(
    out: &Outcome,
    wl: &W,
    args: &Args,
    samples: &[(&'static str, usize)],
) -> bool {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut features = Vec::new();
    if cfg!(feature = "stats") {
        features.push("stats");
    }
    if cfg!(feature = "telemetry") {
        features.push("telemetry");
    }
    let mut ctx = String::new();
    let _ = write!(
        ctx,
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"nproc\":{nproc},\"workers\":{WORKERS},\
         \"load\":\"closed loop, one caller thread, one dag at a time\",\"sizes\":{{",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
    );
    let sizes: Vec<String> =
        wl.sizes().iter().map(|(k, v)| format!("{}:{v}", json_str(k))).collect();
    let counts: Vec<String> = samples.iter().map(|(k, v)| format!("{}:{v}", json_str(k))).collect();
    let feats: Vec<String> = features.iter().map(|f| json_str(f)).collect();
    let _ = write!(
        ctx,
        "{}}},\"samples\":{{{}}},\"git_rev\":{},\"rustc\":{},\"features\":[{}],\"telemetry\":{}}}",
        sizes.join(","),
        counts.join(","),
        json_str(&args.git_rev),
        json_str(&args.rustc),
        feats.join(","),
        dynsnzi::obs::enabled(),
    );
    println!("context {ctx}");

    let (mut nums, mut gone) = (Vec::new(), Vec::new());
    for m in &out.metrics {
        match &m.value {
            Value::Num(v) => {
                let base =
                    m.base.as_ref().map_or(String::new(), |(b, bv)| format!(" (base {b} = {bv})"));
                println!(
                    "{} {:<28} {v:>16.6} {:<10} n={}{base}",
                    args.workload, m.name, m.unit, m.samples
                );
                nums.push(format!(
                    "{}:{{\"value\":{v},\"unit\":{},\"samples\":{}}}",
                    json_str(&m.name),
                    json_str(m.unit),
                    m.samples
                ));
            }
            Value::Unavailable(why) => {
                println!(
                    "{} {:<28} {:>16} {:<10} ({why})",
                    args.workload, m.name, "unavailable", m.unit
                );
                gone.push(format!(
                    "{}:{{\"unit\":{},\"reason\":{}}}",
                    json_str(&m.name),
                    json_str(m.unit),
                    json_str(why)
                ));
            }
        }
    }
    if args.trace && !dynsnzi::obs::enabled() {
        println!("exact-count self-checks unavailable (telemetry compiled out)");
    }
    for v in &out.violations {
        println!("SELF-CHECK FAILED: {v}");
    }
    if out.failed > 0 {
        println!("RESULT CHECK FAILED: {} of {} dag runs", out.failed, out.attempted);
    }
    let violations: Vec<String> = out.violations.iter().map(|v| json_str(v)).collect();
    let record = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"unavailable\":{{{}}},\
         \"violations\":[{}],\"context\":{ctx}}}",
        out.correct(),
        out.attempted,
        out.failed,
        nums.join(","),
        gone.join(","),
        violations.join(","),
    );
    let path = args.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(&args.out_dir).and_then(|_| std::fs::write(&path, &record))
    {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{record}");
    out.correct()
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set of this process so far, in KiB.
fn peak_rss_kb() -> Option<u64> {
    stats::parse_vm_hwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the
/// process, exited ones included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of the whole process, in nanoseconds.
fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn process_cpu_time_advances() {
        let t0 = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_ns() > t0);
    }
}
