//! The evaluation harness: regenerates every figure of the paper.
//!
//! ```text
//! harness <fig8|...|fig15|outset|growth|all|obs|trace|chaos> [flags]
//!
//! `obs`, `trace` and `chaos` are study subcommands (never part of
//! `all`): `obs` prints one unified registry snapshot of a
//! fanout-broadcast run (with `--assert-bound` it also recomputes, each
//! as a named check, the paper's per-add contention bound, the block-,
//! vertex- and strand-recycling conservation identities — the last with
//! the suspended/resumed terms, on both blocking-await workloads — the
//! warm-run zero-fresh-vertex and zero-fresh-strand-frame claims, the
//! inline share of dag bodies, the never-parking continuation-passing
//! awaits, and the steady-state footprints including suspended-but-live
//! strand frames, failing if any is violated); `trace` records the run
//! and writes Chrome Trace Event Format JSON to `--out` (see
//! `docs/observability.md`); `chaos` (built with `--features
//! fault-inject`) runs the deterministic fault-injection batteries —
//! seeded failpoint plans over the lost-wake, recycle-miss,
//! install-CAS, forced-bounce and panic-on-Nth-execution sites — each
//! under a watchdog-bounded run, replayed from its printed seed, with
//! a machine-checkable summary in `results/chaos.json` (see
//! `docs/robustness.md`).
//!
//! flags:
//!   --n <N>            benchmark size (default: 131072; paper: 8388608)
//!   --runs <R>         repetitions per configuration, median reported (default 3)
//!   --max-workers <W>  highest worker count swept (default: 2 × hardware threads)
//!   --pairs <P>        arrive/depart pairs per thread in fig12 (default 200000)
//!   --grow-adds <A>    adds per thread in the growth-curve study (default n/8)
//!   --outdir <DIR>     where results/*.txt go (default ./results)
//!   --paper            use the paper's n = 8M
//!   --quick            tiny sizes for a smoke run
//!   --assert-bound     (obs) fail unless the contention bounds hold
//!   --out <FILE>       (trace) trace destination (default results/trace.json)
//! ```
//!
//! Each figure prints a human-readable series table (same axes as the
//! paper) and appends artifact-format records (Appendix D.5) to
//! `results/figN.txt`.

use std::cell::RefCell;
use std::path::PathBuf;
use std::time::Duration;

use dynsnzi_bench::report::{fmt_throughput, print_row, Record, Reporter};
use dynsnzi_bench::sweep::{median_duration, run_repeated, throughput_per_core, MeasureOpts};
use dynsnzi_bench::workloads::{
    await_chain, calibrate_dummy_unit_ns, fanin_ops, fanout_broadcast, fanout_broadcast_ops,
    fanout_broadcast_probed, fib, indegree2_ops, outset_footprint_report, pipeline_stages,
    pipeline_stages_blocking, pipeline_stages_ops, raw_counter_bench, raw_growth_bench,
    raw_outset_bench, GrowthStats, RawCounter, RawOutset, TouchMode,
};
use dynsnzi_bench::Algo;
use incounter::{DynConfig, DynSnzi};
use outset::GrowthPolicy;
use snzi::Probability;

struct Opts {
    figures: Vec<String>,
    measure: MeasureOpts,
    pairs: u64,
    grow_adds: Option<u64>,
    outdir: PathBuf,
    assert_bound: bool,
    trace_out: PathBuf,
}

fn parse_args() -> Opts {
    let mut measure = MeasureOpts::auto();
    let mut figures = Vec::new();
    let mut pairs = 200_000u64;
    let mut grow_adds = None;
    let mut outdir = PathBuf::from("results");
    let mut assert_bound = false;
    let mut trace_out = PathBuf::from("results/trace.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--n" => measure.n = args.next().expect("--n N").parse().expect("numeric --n"),
            "--runs" => {
                measure.runs = args.next().expect("--runs R").parse().expect("numeric --runs")
            }
            "--max-workers" => {
                measure.max_workers =
                    args.next().expect("--max-workers W").parse().expect("numeric")
            }
            "--pairs" => pairs = args.next().expect("--pairs P").parse().expect("numeric"),
            "--grow-adds" => {
                grow_adds = Some(args.next().expect("--grow-adds A").parse().expect("numeric"))
            }
            "--outdir" => outdir = PathBuf::from(args.next().expect("--outdir DIR")),
            "--assert-bound" => assert_bound = true,
            "--out" => trace_out = PathBuf::from(args.next().expect("--out FILE")),
            "--paper" => measure = measure.paper_scale(),
            "--quick" => {
                measure.n = 1 << 12;
                measure.runs = 1;
                pairs = 20_000;
            }
            "--help" | "-h" => {
                println!("see module docs: harness <fig8..fig15|all> [--n N] [--runs R] ...");
                std::process::exit(0);
            }
            fig if fig.starts_with("fig")
                || matches!(fig, "all" | "outset" | "growth" | "obs" | "trace" | "chaos") =>
            {
                figures.push(fig.to_string())
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if figures.is_empty() {
        figures.push("all".to_string());
    }
    Opts { figures, measure, pairs, grow_adds, outdir, assert_bound, trace_out }
}

fn main() {
    let opts = parse_args();
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    println!("# dynsnzi evaluation harness");
    println!(
        "# cores={cores} max_workers={} n={} runs={} dummy_unit≈{:.2}ns",
        opts.measure.max_workers,
        opts.measure.n,
        opts.measure.runs,
        calibrate_dummy_unit_ns()
    );
    let all = opts.figures.iter().any(|f| f == "all");
    let want = |f: &str| all || opts.figures.iter().any(|g| g == f);
    if want("fig8") {
        fig8(&opts);
    }
    if want("fig9") {
        fig9(&opts);
    }
    if want("fig10") {
        fig10(&opts);
    }
    if want("fig11") {
        fig11(&opts);
    }
    if want("fig12") {
        fig12(&opts);
    }
    if want("fig13") {
        fig13(&opts);
    }
    if want("fig14") {
        fig14(&opts);
    }
    if want("fig15") {
        fig15(&opts);
    }
    if want("outset") {
        outset_bench(&opts);
    }
    if want("growth") {
        growth_study(&opts);
    }
    // The telemetry subcommands run only when named: `all` reproduces
    // the paper's figures, which these are not.
    let explicit = |f: &str| opts.figures.iter().any(|g| g == f);
    if explicit("obs") {
        obs_cmd(&opts);
    }
    if explicit("trace") {
        trace_cmd(&opts);
    }
    if explicit("chaos") {
        chaos_cmd(&opts);
    }
}

/// `harness obs`: run the fanout broadcast with the whole runtime's
/// telemetry registry live, print the unified before/after snapshot
/// (counters from snzi, incounter, outset, sched, and spdag in one
/// table), and with `--assert-bound` recompute the contention bounds of
/// `docs/observability.md` from those counters, exiting non-zero on any
/// violation.
fn obs_cmd(opts: &Opts) {
    let w = opts.measure.max_workers;
    let n = (opts.measure.n / 4).max(1 << 10);
    println!("\n## Telemetry snapshot — fanout_broadcast, n={n}, workers={w}");
    let before = obs::Snapshot::take();
    let cfg = DynConfig::with_threshold(Algo::default_threshold(w));
    let (elapsed, growth) = fanout_broadcast_probed::<DynSnzi>(cfg, w, n);
    let d = obs::Snapshot::take().diff(&before);
    print!("{}", d.render());
    println!(
        "# wall clock {:.6}s; hub converged to {} lanes after {} splits",
        elapsed.as_secs_f64(),
        growth.final_lanes,
        growth.splits
    );
    if opts.assert_bound {
        let contention_ok = check_contention_bounds(&d, w);
        let inline_ok = check_inline_bodies(&d, opts);
        let recycle_ok = check_recycle_bounds(opts);
        let strand_ok = check_strand_bounds(opts);
        let poison_ok = check_poisoned_bounds(opts);
        if !(contention_ok && inline_ok && recycle_ok && strand_ok && poison_ok) {
            std::process::exit(1);
        }
    }
}

/// Recompute the strand accounting on the two blocking-await workloads:
/// `await_chain`, where every stage parks, and
/// `pipeline_stages_blocking`, where parked strands overlap. Three
/// identities close the suspended-vertex hole the plain vertex checks
/// had:
///
/// * **Exactly-once**: at quiescence `spdag.strand_suspend ==
///   spdag.strand_resume` — every park was repaid by one resumption.
/// * **Conservation with suspension terms**: a parked strand's vertex is
///   born once but crosses the executor `1 + resumes` times, so the
///   per-execution counters do *not* balance against births; the
///   birth/death identity (`alloc + reuse == recycled + dropped`) still
///   must, for vertices and spilled strand frames alike, because
///   suspension defers retirement rather than skipping it.
/// * **Footprint with live parked frames**: the class-pool ceiling gains
///   a `(suspend − resume)` term — a frame parked across the snapshot
///   holds its slab without it being "leaked" by the pool. At the
///   quiescent boundaries used here the term is zero, which is itself
///   part of the claim.
///
/// Also re-checks the warm-run claim for strands: with the class ladder
/// warm, a repeat run mints zero fresh spilled frames, and the frames
/// of both workloads are small enough to inline — allocation-free
/// before the pool is even consulted. Last, the continuation-passing
/// twins of both workloads must never park: CPS `pipeline_stages` has
/// no strands at all, and CPS `await_chain`'s only strand is its sink.
/// Returns whether everything passed.
fn check_strand_bounds(opts: &Opts) -> bool {
    let w = opts.measure.max_workers;
    let n = (opts.measure.n / 4).max(1 << 10);
    let depth = (n / 16).max(64);
    let (stages, width) = (32u64, (n / 64).max(16));
    let cfg = || DynConfig::with_threshold(Algo::default_threshold(w));

    let mut all_ok = true;
    let mut check = |name: &str, pass: bool, detail: String| {
        println!("  [{}] {name}: {detail}", if pass { "ok  " } else { "FAIL" });
        all_ok &= pass;
    };

    type Leg<'a> = (String, Box<dyn Fn() + 'a>);
    let blocking: [Leg<'_>; 2] = [
        (
            format!("await_chain depth={depth}"),
            Box::new(|| {
                await_chain::<DynSnzi>(cfg(), w, depth, TouchMode::Blocking);
            }),
        ),
        (
            format!("pipeline_stages_blocking {stages}x{width}"),
            Box::new(|| {
                pipeline_stages_blocking::<DynSnzi, outset::TreeOutset>(cfg(), w, stages, width);
            }),
        ),
    ];
    for (label, run) in &blocking {
        println!("\n## Strand accounting — {label} (blocking), workers={w}");
        let before = obs::Snapshot::take();
        for _ in 0..3 {
            run();
        }
        let warm_cached = sched::recycle::cached_slabs();
        let mid = obs::Snapshot::take();
        run();
        let steady = obs::Snapshot::take().diff(&mid);
        let total = obs::Snapshot::take().diff(&before);

        let mut parked_live = 0u64;
        if !obs::enabled() || total.is_empty() {
            println!("  (telemetry compiled out; gauge-only checks)");
        } else {
            let (s, r) =
                (total.counter("spdag.strand_suspend"), total.counter("spdag.strand_resume"));
            parked_live = s.saturating_sub(r);
            check(
                "suspend-resume",
                s == r && s > 0,
                format!("suspended {s} == resumed {r} (exactly-once, and the workload did park)"),
            );
            let born = total.counter("sched.strand_alloc") + total.counter("sched.strand_reuse");
            let dead =
                total.counter("sched.strand_recycled") + total.counter("sched.strand_dropped");
            check(
                "strand-frame-conservation",
                born == dead,
                format!("spilled frames born {born} == dead {dead}"),
            );
            let vborn = total.counter("sched.vertex_alloc") + total.counter("sched.vertex_reuse");
            let vdead =
                total.counter("sched.vertex_recycled") + total.counter("sched.vertex_dropped");
            check(
                "vertex-conservation+suspension",
                vborn == vdead,
                format!(
                    "born {vborn} == dead {vdead} with {s} suspends deferring (and {r} resumes \
                     repaying) retirement"
                ),
            );
            let (sa, si) =
                (steady.counter("sched.strand_alloc"), steady.counter("spdag.strand_inline"));
            check(
                "warm-zero-strand-alloc",
                sa == 0 && si > 0,
                format!("warm run: {sa} fresh spilled frames, {si} frames inlined alloc-free"),
            );
        }
        let cached = sched::recycle::cached_slabs();
        check(
            "strand-footprint-ceiling",
            cached <= 2 * warm_cached + 64 + parked_live as usize,
            format!(
                "class pools {cached} slabs <= 2 x warm {warm_cached} + 64 + {parked_live} \
                 suspended-but-live frames"
            ),
        );
    }

    println!(
        "\n## CPS awaits — await_chain depth={depth}, pipeline_stages {stages}x{width}, \
         workers={w}"
    );
    let before = obs::Snapshot::take();
    await_chain::<DynSnzi>(cfg(), w, depth, TouchMode::Cps);
    let mid = obs::Snapshot::take();
    pipeline_stages::<DynSnzi, outset::TreeOutset>(cfg(), w, stages, width);
    let pipeline = obs::Snapshot::take().diff(&mid);
    let chain = mid.diff(&before);
    if !obs::enabled() || chain.is_empty() {
        println!("  (telemetry compiled out; nothing to check)");
    } else {
        let (cs, ps) =
            (chain.counter("spdag.strand_suspend"), pipeline.counter("spdag.strand_suspend"));
        check(
            "cps-never-parks",
            ps == 0 && cs <= 1,
            format!("pipeline_stages suspended {ps} == 0, await_chain {cs} <= 1 (its sink)"),
        );
    }
    println!("# strand checks: {}", if all_ok { "PASS" } else { "FAIL" });
    all_ok
}

/// Recompute the inline share of dag bodies: the spawn fast path's
/// continuations fit the vertex's inline slot, so at least 90 % of the
/// bodies on a spawn- or broadcast-dominated workload run without a
/// boxed allocation. Checked on `fanout`, the broadcast diff `obs` just
/// took, and on one warm `fib` run. Returns whether everything passed.
fn check_inline_bodies(fanout: &obs::Snapshot, opts: &Opts) -> bool {
    // 1 596 spawns: the share depends on closure sizes, not on scale.
    const FIB_N: u64 = 16;
    let w = opts.measure.max_workers;
    let cfg = || DynConfig::with_threshold(Algo::default_threshold(w));
    println!("\n## Inline bodies — fanout_broadcast and fib({FIB_N}), workers={w}");
    fib::<DynSnzi>(cfg(), w, FIB_N);
    let before = obs::Snapshot::take();
    fib::<DynSnzi>(cfg(), w, FIB_N);
    let fib_diff = obs::Snapshot::take().diff(&before);
    if !obs::enabled() || fib_diff.is_empty() {
        println!("  (telemetry compiled out; nothing to check)");
        return true;
    }

    let mut all_ok = true;
    for (label, d) in [("fanout_broadcast", fanout), ("fib", &fib_diff)] {
        let (inline, boxed) = (d.counter("spdag.body_inline"), d.counter("spdag.body_boxed"));
        let pass = inline > 0 && 10 * inline >= 9 * (inline + boxed);
        println!(
            "  [{}] inline-bodies: {label}: inline {inline} of {} bodies (>= 90%)",
            if pass { "ok  " } else { "FAIL" },
            inline + boxed
        );
        all_ok &= pass;
    }
    println!("# inline-body checks: {}", if all_ok { "PASS" } else { "FAIL" });
    all_ok
}

/// Recompute the accounting across a *poisoned* run — a dag whose body
/// panics under panic isolation (`docs/robustness.md`). Drain-to-
/// completion poisoning claims the panic changes *what* runs (the
/// panicking body is cut short, dependent touch closures are skipped,
/// its future completes valueless) but never the accounting: the dag
/// still drains, so at quiescence every vertex born is retired, every
/// out-set add delivered or bounced, and the panic itself is visible as
/// `sched.panics == 1` with the original payload re-raised at the
/// caller. Needs no failpoints — the panic is a plain `panic!` in a
/// body — so it runs in every build. Returns whether everything passed.
fn check_poisoned_bounds(opts: &Opts) -> bool {
    let w = opts.measure.max_workers;
    println!("\n## Poisoned-run accounting — fanout with one panicking body, workers={w}");

    let mut all_ok = true;
    let mut check = |name: &str, pass: bool, detail: String| {
        println!("  [{}] {name}: {detail}", if pass { "ok  " } else { "FAIL" });
        all_ok &= pass;
    };

    let before = obs::Snapshot::take();
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let cfg = DynConfig::with_threshold(Algo::default_threshold(w));
        spdag::run_dag::<DynSnzi, _>(cfg, w, |mut ctx| {
            for i in 0..256u64 {
                ctx.fork(move |mut c: spdag::Ctx<'_, DynSnzi>| {
                    let f = c.future(move |_| {
                        assert!(i != 97, "obs: deliberate body panic");
                        i
                    });
                    c.touch(&f, |_, v| {
                        std::hint::black_box(*v);
                    });
                });
            }
        });
    }));
    std::panic::set_hook(prev_hook);
    let d = obs::Snapshot::take().diff(&before);

    check(
        "panic-propagation",
        caught.is_err(),
        "the body panic was re-raised at the run_dag caller".to_string(),
    );
    if !obs::enabled() || d.is_empty() {
        println!("  (telemetry compiled out; propagation check only)");
    } else {
        check(
            "poison-observed",
            d.counter("sched.panics") == 1 && d.counter("spdag.body_panics") == 1,
            format!(
                "sched.panics {} == 1, spdag.body_panics {} == 1",
                d.counter("sched.panics"),
                d.counter("spdag.body_panics")
            ),
        );
        for (label, alloc, reuse, recycled, dropped) in [
            (
                "vertex",
                "sched.vertex_alloc",
                "sched.vertex_reuse",
                "sched.vertex_recycled",
                "sched.vertex_dropped",
            ),
            (
                "block",
                "outset.blocks_allocated",
                "outset.blocks_reused",
                "outset.blocks_recycled",
                "outset.blocks_dropped",
            ),
            (
                "poolarc",
                "sched.poolarc_alloc",
                "sched.poolarc_reuse",
                "sched.poolarc_recycled",
                "sched.poolarc_dropped",
            ),
        ] {
            let born = d.counter(alloc) + d.counter(reuse);
            let dead = d.counter(recycled) + d.counter(dropped);
            check(
                &format!("poisoned-{label}-conservation"),
                born == dead,
                format!("born {born} == dead {dead} despite the mid-run panic"),
            );
        }
        let adds = d.counter("outset.adds");
        let delivered = d.counter("outset.adds_bounced") + d.counter("outset.swept");
        check(
            "poisoned-add-conservation",
            adds == delivered,
            format!(
                "adds {adds} == bounced+swept {delivered} ({} touch closures skipped)",
                d.counter("spdag.poisoned_touches")
            ),
        );
    }
    println!("# poisoned-run checks: {}", if all_ok { "PASS" } else { "FAIL" });
    all_ok
}

/// Recompute the slab-recycling accounting — both the out-set block pool
/// (`outset::recycle`) and the vertex/continuation class pools
/// (`sched::recycle`) — on a fresh quiesced workload, plus the
/// steady-state claims on the pipeline: a second identically-shaped
/// `pipeline_stages` run must be fed from the slabs the first retired
/// (for vertices: **zero** fresh allocations), and neither free list may
/// keep growing (size tracks peak-live, not cumulative churn). Returns
/// whether everything passed.
fn check_recycle_bounds(opts: &Opts) -> bool {
    let w = opts.measure.max_workers;
    let n = (opts.measure.n / 4).max(1 << 10);
    let (stages, width) = (32u64, (n / 64).max(16));
    let cfg = || DynConfig::with_threshold(Algo::default_threshold(w));
    println!("\n## Recycling accounting — pipeline_stages {stages}x{width}, workers={w}");

    let mut all_ok = true;
    let mut check = |name: &str, pass: bool, detail: String| {
        println!("  [{}] {name}: {detail}", if pass { "ok  " } else { "FAIL" });
        all_ok &= pass;
    };

    let before = obs::Snapshot::take();
    // Warm the pools: their content converges to the high-water mark of
    // simultaneously-live slabs, and one run's peak is a noisy draw, so
    // take a few before claiming the warm run mints nothing.
    for _ in 0..3 {
        pipeline_stages::<DynSnzi, outset::TreeOutset>(cfg(), w, stages, width);
    }
    let warm_cached = outset::recycle::cached_blocks();
    let warm_sched_cached = sched::recycle::cached_slabs();
    let mid = obs::Snapshot::take();
    pipeline_stages::<DynSnzi, outset::TreeOutset>(cfg(), w, stages, width);
    let steady = obs::Snapshot::take().diff(&mid);
    let total = obs::Snapshot::take().diff(&before);

    if !obs::enabled() || total.is_empty() {
        println!("  (telemetry compiled out; gauge-only checks)");
    } else {
        // Both snapshot boundaries are quiescent (runs joined, domains
        // drained, worker caches flushed), so births equal deaths — for
        // out-set blocks, dag vertices, and pooled refcount headers
        // alike.
        let conservation = [
            (
                "block",
                "outset.blocks_allocated",
                "outset.blocks_reused",
                "outset.blocks_recycled",
                "outset.blocks_dropped",
            ),
            (
                "vertex",
                "sched.vertex_alloc",
                "sched.vertex_reuse",
                "sched.vertex_recycled",
                "sched.vertex_dropped",
            ),
            (
                "poolarc",
                "sched.poolarc_alloc",
                "sched.poolarc_reuse",
                "sched.poolarc_recycled",
                "sched.poolarc_dropped",
            ),
        ];
        for (label, alloc, reuse, recycled, dropped) in conservation {
            let born = total.counter(alloc) + total.counter(reuse);
            let dead = total.counter(recycled) + total.counter(dropped);
            check(
                &format!("{label}-conservation"),
                born == dead,
                format!("born {born} == dead {dead}"),
            );
        }
        let (reused, allocated) =
            (steady.counter("outset.blocks_reused"), steady.counter("outset.blocks_allocated"));
        check(
            "steady-state-reuse",
            reused >= allocated,
            format!("warm run: reused {reused} >= freshly allocated {allocated}"),
        );
        // The tentpole claim: with the class pools warm, an identical
        // run mints no fresh vertices at all — the cold run retired far
        // more slabs than the warm run ever holds live at once.
        let (va, vr) = (steady.counter("sched.vertex_alloc"), steady.counter("sched.vertex_reuse"));
        check(
            "warm-zero-vertex-alloc",
            va == 0 && vr > 0,
            format!("warm run: {va} fresh vertices, {vr} reused"),
        );
    }
    let cached = outset::recycle::cached_blocks();
    check(
        "footprint-ceiling",
        cached <= 2 * warm_cached + 64,
        format!("free list {cached} blocks <= 2 x warm {warm_cached} + 64 (peak-live, not churn)"),
    );
    let sched_cached = sched::recycle::cached_slabs();
    check(
        "sched-footprint-ceiling",
        sched_cached <= 2 * warm_sched_cached + 64,
        format!(
            "class pools {sched_cached} slabs <= 2 x warm {warm_sched_cached} + 64 \
             (peak-live, not churn)"
        ),
    );
    println!("# recycling checks: {}", if all_ok { "PASS" } else { "FAIL" });
    all_ok
}

/// Recompute the paper's Section-4-style amortized contention bound for
/// the out-set from one snapshot diff (derivation and counter-to-term
/// mapping: `docs/observability.md`). Exact structural invariants are
/// checked hard; the amortized bound holds in expectation, so it gets a
/// generous slack factor. Returns whether everything passed.
fn check_contention_bounds(d: &obs::Snapshot, workers: usize) -> bool {
    if !obs::enabled() || d.is_empty() {
        println!("--assert-bound: telemetry compiled out; nothing to check");
        return true;
    }
    let adds = d.counter("outset.adds");
    let bounced = d.counter("outset.adds_bounced");
    let swept = d.counter("outset.swept");
    let created = d.counter("outset.created");
    let splits = d.counter("outset.splits");
    let lost = d.counter("outset.lost_cas");
    let cap = GrowthPolicy::default_max_lanes() as u64;
    // Lane counts double from 1 toward the cap: log2(cap) splits per set.
    let log_cap = u64::from(cap.trailing_zeros()).max(1);

    let mut all_ok = true;
    let mut check = |name: &str, pass: bool, detail: String| {
        println!("  [{}] {name}: {detail}", if pass { "ok  " } else { "FAIL" });
        all_ok &= pass;
    };
    check(
        "conservation",
        adds == bounced + swept,
        format!("adds {adds} == bounced {bounced} + swept {swept}"),
    );
    check(
        "split-cap",
        splits <= created * log_cap,
        format!("splits {splits} <= created {created} x log2(cap) {log_cap}"),
    );
    check(
        "serial-quiet",
        workers > 1 || (lost == 0 && splits == 0),
        format!("workers {workers}: lost {lost}, splits {splits}"),
    );
    check("split-needs-loss", splits <= lost, format!("splits {splits} <= lost CASes {lost}"));
    // Amortized per-add contention: a slot claim can lose to at most
    // W-1 rivals racing the same 32-slot block tail, so expected losses
    // are O(adds * (W-1) / B) plus the O(log cap) growth transient per
    // set. x4 slack absorbs the in-expectation part.
    const BLOCK_SLOTS: u64 = 32; // outset::growth::BLOCK_SLOTS
    const SLACK: u64 = 4;
    let bound = SLACK * (adds * (workers as u64 - 1)).div_ceil(BLOCK_SLOTS)
        + 2 * created * log_cap
        + BLOCK_SLOTS;
    check(
        "amortized-lost-cas",
        lost <= bound,
        format!("lost {lost} <= {bound} (4*adds*(W-1)/B + 2*created*log2(cap) + B)"),
    );
    if lost > 0 {
        println!(
            "  [info] splits/lost = {:.3} (policy flips a p = 1/2 coin per lost CAS)",
            splits as f64 / lost as f64
        );
    }
    println!("# --assert-bound: {}", if all_ok { "PASS" } else { "FAIL" });
    all_ok
}

/// `harness trace`: record one fanout broadcast with event tracing
/// enabled and write it as Chrome Trace Event Format JSON (loadable in
/// `chrome://tracing` or Perfetto).
fn trace_cmd(opts: &Opts) {
    let w = opts.measure.max_workers;
    let n = (opts.measure.n / 4).max(1 << 10);
    println!("\n## Event trace — fanout_broadcast, n={n}, workers={w}");
    obs::trace::enable();
    let cfg = DynConfig::with_threshold(Algo::default_threshold(w));
    let elapsed = fanout_broadcast::<DynSnzi, outset::TreeOutset>(cfg, w, n);
    obs::trace::disable();
    let snap = obs::trace::take();
    if let Some(dir) = opts.trace_out.parent() {
        if !dir.as_os_str().is_empty() {
            ensure_dir(dir);
        }
    }
    write_text(&opts.trace_out, &snap.to_chrome_json());
    println!(
        "# {} events over {:.6}s -> {}",
        snap.len(),
        elapsed.as_secs_f64(),
        opts.trace_out.display()
    );
    if !obs::enabled() {
        println!("(telemetry compiled out — the trace is empty)");
    }
}

/// Median-of-runs with one discarded warm-up run.
fn measure(runs: usize, mut f: impl FnMut() -> Duration) -> Duration {
    let _warmup = f();
    median_duration(&run_repeated(runs, &mut f))
}

/// [`measure`], capturing the growth observables of the *last* run
/// alongside the median wall clock (stats from "the median run" would be
/// ill-defined; growth converges to similar shapes run over run).
fn measure_growth(runs: usize, mut f: impl FnMut() -> GrowthStats) -> (Duration, GrowthStats) {
    let mut stats = None;
    let elapsed = measure(runs, || {
        let s = f();
        let e = s.elapsed;
        stats = Some(s);
        e
    });
    (elapsed, stats.expect("measure ran at least once"))
}

thread_local! {
    /// Registry reading at the previous fanin record: each record's
    /// `nb_incounter_nodes` counts the SNZI nodes created (net of
    /// pruning) since then.
    static LAST_FANIN: RefCell<obs::Snapshot> = RefCell::new(obs::Snapshot::default());
}

fn record_fanin(
    rep: &mut Reporter,
    algo: &Algo,
    workers: usize,
    n: u64,
    leaf_work: u64,
    elapsed: Duration,
) {
    let mut r = Record::new("fanin", algo.family());
    r.input("algo_full", algo.name())
        .input("proc", workers)
        .input("n", n)
        .input("leaf_work", leaf_work);
    if let Algo::InCounter { threshold, pregrow } = algo {
        r.input("threshold", threshold).input("pregrow", pregrow);
    }
    if let Algo::Fixed { depth } = algo {
        r.input("depth", depth);
    }
    r.output("exectime", format!("{:.6}", elapsed.as_secs_f64())).output(
        "throughput_per_core",
        format!("{:.1}", throughput_per_core(fanin_ops(n), elapsed, workers)),
    );
    if obs::enabled() {
        let now = obs::Snapshot::take();
        let d = now.diff(&LAST_FANIN.replace(now.clone()));
        let pairs = d.counter("snzi.grow_installs") - d.counter("snzi.pruned_pairs");
        r.output("nb_incounter_nodes", d.counter("snzi.trees_created") + 2 * pairs);
    }
    rep.record(&r);
}

/// Figure 8: fanin throughput per core vs worker count, all algorithms.
fn fig8(opts: &Opts) {
    println!(
        "\n## Figure 8 — fanin, n={}, throughput/core vs workers (higher is better)",
        opts.measure.n
    );
    let mut rep = open_reporter(&opts.outdir, "fig8");
    let workers = opts.measure.worker_counts();
    let mut algos: Vec<Algo> = vec![Algo::FetchAdd];
    for d in 1..=9 {
        algos.push(Algo::Fixed { depth: d });
    }
    let mut header = vec!["algo \\ workers".to_string()];
    header.extend(workers.iter().map(|w| w.to_string()));
    print_row(&header);
    for algo_kind in 0..=algos.len() {
        // Last row: the in-counter, whose threshold tracks the worker count.
        let mut cols = Vec::new();
        for &w in &workers {
            let algo =
                if algo_kind < algos.len() { algos[algo_kind] } else { Algo::incounter_default(w) };
            let t = measure(opts.measure.runs, || algo.run_fanin(w, opts.measure.n, 0));
            record_fanin(&mut rep, &algo, w, opts.measure.n, 0, t);
            cols.push(fmt_throughput(throughput_per_core(fanin_ops(opts.measure.n), t, w)));
        }
        let name =
            if algo_kind < algos.len() { algos[algo_kind].name() } else { "incounter".to_string() };
        let mut row = vec![name];
        row.extend(cols);
        print_row(&row);
    }
    println!("# wrote {}", rep.path().display());
}

/// Figure 9: size invariance — in-counter throughput/core vs n.
fn fig9(opts: &Opts) {
    println!("\n## Figure 9 — fanin size-invariance: in-counter throughput/core vs n");
    let mut rep = open_reporter(&opts.outdir, "fig9");
    let workers = opts.measure.worker_counts();
    let mut sizes = Vec::new();
    let mut n = 1u64 << 12;
    while n <= opts.measure.n {
        sizes.push(n);
        n *= 4;
    }
    if *sizes.last().unwrap() != opts.measure.n {
        sizes.push(opts.measure.n);
    }
    let mut header = vec!["workers \\ n".to_string()];
    header.extend(sizes.iter().map(|s| s.to_string()));
    print_row(&header);
    for &w in &workers {
        let algo = Algo::incounter_default(w);
        let mut row = vec![format!("incounter w={w}")];
        for &size in &sizes {
            let t = measure(opts.measure.runs, || algo.run_fanin(w, size, 0));
            record_fanin(&mut rep, &algo, w, size, 0, t);
            row.push(fmt_throughput(throughput_per_core(fanin_ops(size), t, w)));
        }
        print_row(&row);
    }
    // Reference: single-core fetch-and-add (the paper's "within factor 2").
    let t = measure(opts.measure.runs, || Algo::FetchAdd.run_fanin(1, opts.measure.n, 0));
    record_fanin(&mut rep, &Algo::FetchAdd, 1, opts.measure.n, 0, t);
    print_row(&[
        "fetch-add w=1".to_string(),
        fmt_throughput(throughput_per_core(fanin_ops(opts.measure.n), t, 1)),
    ]);
    println!("# wrote {}", rep.path().display());
}

/// Figure 10: indegree2 throughput/core vs worker count.
fn fig10(opts: &Opts) {
    let n = (opts.measure.n / 2).max(1024);
    println!("\n## Figure 10 — indegree2, n={n}, throughput/core vs workers");
    let mut rep = open_reporter(&opts.outdir, "fig10");
    let workers = opts.measure.worker_counts();
    let mut header = vec!["algo \\ workers".to_string()];
    header.extend(workers.iter().map(|w| w.to_string()));
    print_row(&header);
    let static_algos = [Algo::FetchAdd, Algo::Fixed { depth: 2 }, Algo::Fixed { depth: 4 }];
    for idx in 0..=static_algos.len() {
        let mut cols = Vec::new();
        let mut label = String::new();
        for &w in &workers {
            let algo = if idx < static_algos.len() {
                static_algos[idx]
            } else {
                Algo::incounter_default(w)
            };
            label = if idx < static_algos.len() { algo.name() } else { "incounter".to_string() };
            let t = measure(opts.measure.runs, || algo.run_indegree2(w, n));
            let mut r = Record::new("indegree2", algo.family());
            r.input("algo_full", algo.name()).input("proc", w).input("n", n);
            r.output("exectime", format!("{:.6}", t.as_secs_f64())).output(
                "throughput_per_core",
                format!("{:.1}", throughput_per_core(indegree2_ops(n), t, w)),
            );
            rep.record(&r);
            cols.push(fmt_throughput(throughput_per_core(indegree2_ops(n), t, w)));
        }
        let mut row = vec![label];
        row.extend(cols);
        print_row(&row);
    }
    println!("# wrote {}", rep.path().display());
}

/// Figure 11: the threshold study (p = 1/threshold) at max workers.
fn fig11(opts: &Opts) {
    let w = opts.measure.max_workers;
    println!("\n## Figure 11 — fanin threshold study at {w} workers, n={}", opts.measure.n);
    let mut rep = open_reporter(&opts.outdir, "fig11");
    print_row(&["threshold".to_string(), "ops/s/core".to_string()]);
    for threshold in [10u64, 50, 100, 500, 1_000, 5_000, 10_000, 50_000, 1_000_000] {
        let algo = Algo::incounter_threshold(threshold);
        let t = measure(opts.measure.runs, || algo.run_fanin(w, opts.measure.n, 0));
        record_fanin(&mut rep, &algo, w, opts.measure.n, 0, t);
        print_row(&[
            threshold.to_string(),
            fmt_throughput(throughput_per_core(fanin_ops(opts.measure.n), t, w)),
        ]);
    }
    println!("# wrote {}", rep.path().display());
}

/// Figure 12: SNZI reproduction study — raw counter ops, no dag.
fn fig12(opts: &Opts) {
    println!(
        "\n## Figure 12 — raw counter microbenchmark ({} arrive/depart pairs per thread)",
        opts.pairs
    );
    let mut rep = open_reporter(&opts.outdir, "fig12");
    let threads: Vec<usize> = {
        let mut v = vec![1usize];
        while *v.last().unwrap() < opts.measure.max_workers {
            v.push((v.last().unwrap() * 2).min(opts.measure.max_workers));
        }
        v.dedup();
        v
    };
    let mut header = vec!["counter \\ threads".to_string()];
    header.extend(threads.iter().map(|t| t.to_string()));
    print_row(&header);
    let mut kinds = vec![(RawCounter::FetchAdd, "fetch-add".to_string())];
    for d in 1..=5 {
        kinds.push((RawCounter::FixedSnzi { depth: d }, format!("snzi-depth-{d}")));
    }
    for (kind, name) in kinds {
        let mut row = vec![name.clone()];
        for &t in &threads {
            let elapsed = measure(opts.measure.runs, || raw_counter_bench(kind, t, opts.pairs));
            let ops = 2 * t as u64 * opts.pairs;
            let mut r = Record::new("raw-counter", &name);
            r.input("proc", t).input("pairs", opts.pairs);
            r.output("exectime", format!("{:.6}", elapsed.as_secs_f64())).output(
                "throughput_per_core",
                format!("{:.1}", throughput_per_core(ops, elapsed, t)),
            );
            rep.record(&r);
            row.push(fmt_throughput(throughput_per_core(ops, elapsed, t)));
        }
        print_row(&row);
    }
    println!("# wrote {}", rep.path().display());
}

/// Figure 13 substitution: node-placement policy A/B (first-touch growth
/// vs eager remote pre-placement). The paper's NUMA study was a null
/// result; the check here is that the two policies coincide too.
fn fig13(opts: &Opts) {
    println!(
        "\n## Figure 13 (substituted) — node placement policy A/B, fanin n={}",
        opts.measure.n
    );
    let mut rep = open_reporter(&opts.outdir, "fig13");
    let workers = opts.measure.worker_counts();
    let mut header = vec!["policy \\ workers".to_string()];
    header.extend(workers.iter().map(|w| w.to_string()));
    print_row(&header);
    for pregrow in [0u32, 2] {
        let mut row =
            vec![if pregrow == 0 { "first-touch".to_string() } else { "pre-placed".to_string() }];
        for &w in &workers {
            let algo = Algo::InCounter { threshold: 25 * w as u64, pregrow };
            let t = measure(opts.measure.runs, || algo.run_fanin(w, opts.measure.n, 0));
            record_fanin(&mut rep, &algo, w, opts.measure.n, 0, t);
            row.push(fmt_throughput(throughput_per_core(fanin_ops(opts.measure.n), t, w)));
        }
        print_row(&row);
    }
    println!("# wrote {}", rep.path().display());
}

/// Out-set study: the tree-of-blocks broadcast against the `Mutex<Vec>`
/// baseline, on (a) the raw add path under thread contention, (b) the
/// dag-level fanout broadcast, and (c) the pipeline wavefront.
fn outset_bench(opts: &Opts) {
    let n = (opts.measure.n / 4).max(1 << 10);
    let mut rep = open_reporter(&opts.outdir, "outset");
    let workers = opts.measure.worker_counts();
    let kinds = [RawOutset::Tree, RawOutset::Mutex];

    println!("\n## Outset (raw) — adds/s/core vs threads, one shared out-set");
    let mut header = vec!["outset \\ threads".to_string()];
    header.extend(workers.iter().map(|w| w.to_string()));
    print_row(&header);
    let raw_adds = (opts.measure.n / 8).max(1 << 12);
    for kind in kinds {
        let mut row = vec![kind.name().to_string()];
        for &t in &workers {
            let elapsed = measure(opts.measure.runs, || raw_outset_bench(kind, t, raw_adds));
            let ops = t as u64 * raw_adds;
            let mut r = Record::new("raw-outset", kind.name());
            r.input("proc", t).input("adds", raw_adds);
            r.output("exectime", format!("{:.6}", elapsed.as_secs_f64())).output(
                "throughput_per_core",
                format!("{:.1}", throughput_per_core(ops, elapsed, t)),
            );
            rep.record(&r);
            row.push(fmt_throughput(throughput_per_core(ops, elapsed, t)));
        }
        print_row(&row);
    }

    println!("\n## Outset (dag) — fanout_broadcast, n={n}, ops/s/core vs workers");
    let mut header = vec!["outset \\ workers".to_string()];
    header.extend(workers.iter().map(|w| w.to_string()));
    print_row(&header);
    for kind in kinds {
        let mut row = vec![kind.name().to_string()];
        for &w in &workers {
            let cfg = DynConfig::with_threshold(Algo::default_threshold(w));
            let t = measure(opts.measure.runs, || kind.run_fanout(cfg, w, n));
            let mut r = Record::new("fanout-broadcast", kind.name());
            r.input("proc", w).input("n", n);
            r.output("exectime", format!("{:.6}", t.as_secs_f64())).output(
                "throughput_per_core",
                format!("{:.1}", throughput_per_core(fanout_broadcast_ops(n), t, w)),
            );
            rep.record(&r);
            row.push(fmt_throughput(throughput_per_core(fanout_broadcast_ops(n), t, w)));
        }
        print_row(&row);
    }

    let (stages, width) = (32u64, (n / 64).max(16));
    println!("\n## Outset (dag) — pipeline_stages {stages}×{width}, ops/s/core vs workers");
    let mut header = vec!["outset \\ workers".to_string()];
    header.extend(workers.iter().map(|w| w.to_string()));
    print_row(&header);
    for kind in kinds {
        let mut row = vec![kind.name().to_string()];
        for &w in &workers {
            let cfg = DynConfig::with_threshold(Algo::default_threshold(w));
            let t = measure(opts.measure.runs, || kind.run_pipeline(cfg, w, stages, width));
            let ops = pipeline_stages_ops(stages, width);
            let mut r = Record::new("pipeline-stages", kind.name());
            r.input("proc", w).input("stages", stages).input("width", width);
            r.output("exectime", format!("{:.6}", t.as_secs_f64()))
                .output("throughput_per_core", format!("{:.1}", throughput_per_core(ops, t, w)));
            rep.record(&r);
            row.push(fmt_throughput(throughput_per_core(ops, t, w)));
        }
        print_row(&row);
    }
    println!("# wrote {}", rep.path().display());
}

/// Growth-curve study of the adaptive lane table (the validation half of
/// `docs/outset-contention.md`): (a) growth curve vs thread count —
/// adds-until-first-split, converged lane count, split/race bookkeeping;
/// (b) lanes-vs-contention across the split probability `p`; (c) the
/// dag-level fanout broadcast with the hub's out-set probed; (d) the
/// single-dependent footprint against the superseded fixed default.
fn growth_study(opts: &Opts) {
    let adds = opts.grow_adds.unwrap_or((opts.measure.n / 8).max(1 << 12));
    let mut rep = open_reporter(&opts.outdir, "growth");
    let workers = opts.measure.worker_counts();

    println!("\n## Growth (raw) — adaptive outset from 1 lane, {adds} adds/thread, p=1/2");
    print_row(&[
        "threads".to_string(),
        "Madds/s/core".to_string(),
        "final lanes".to_string(),
        "splits".to_string(),
        "lost CASes".to_string(),
        "adds@1st split".to_string(),
    ]);
    for &t in &workers {
        let (elapsed, stats) = measure_growth(opts.measure.runs, || {
            raw_growth_bench(t, adds, 1, GrowthPolicy::default())
        });
        let ops = t as u64 * adds;
        let mut r = Record::new("growth-curve", "outset-tree-adaptive");
        r.input("proc", t).input("adds", adds);
        r.output("exectime", format!("{:.6}", elapsed.as_secs_f64()))
            .output("throughput_per_core", format!("{:.1}", throughput_per_core(ops, elapsed, t)))
            .output("final_lanes", stats.final_lanes)
            .output("splits", stats.splits)
            .output("install_races", stats.install_races)
            .output(
                "adds_to_first_split",
                stats.adds_to_first_split.map_or("-".to_string(), |a| a.to_string()),
            );
        rep.record(&r);
        print_row(&[
            t.to_string(),
            fmt_throughput(throughput_per_core(ops, elapsed, t)),
            stats.final_lanes.to_string(),
            stats.splits.to_string(),
            stats.install_races.to_string(),
            stats.adds_to_first_split.map_or("-".to_string(), |a| a.to_string()),
        ]);
    }

    let w = opts.measure.max_workers;
    println!("\n## Growth (raw) — lanes vs split probability at {w} threads, {adds} adds/thread");
    print_row(&[
        "p(split|lost CAS)".to_string(),
        "Madds/s/core".to_string(),
        "final lanes".to_string(),
        "splits".to_string(),
        "lost CASes".to_string(),
    ]);
    let max_lanes = GrowthPolicy::default_max_lanes();
    for (name, p) in [
        ("1", Probability::ALWAYS),
        ("1/2", Probability::from_f64(0.5)),
        ("1/8", Probability::one_over(8)),
        ("1/32", Probability::one_over(32)),
        ("0 (fixed 1 lane)", Probability::NEVER),
    ] {
        let policy = GrowthPolicy::new(p, max_lanes);
        let (elapsed, stats) =
            measure_growth(opts.measure.runs, || raw_growth_bench(w, adds, 1, policy));
        let ops = w as u64 * adds;
        let mut r = Record::new("growth-policy", "outset-tree-adaptive");
        r.input("proc", w).input("adds", adds).input("p", name);
        r.output("exectime", format!("{:.6}", elapsed.as_secs_f64()))
            .output("throughput_per_core", format!("{:.1}", throughput_per_core(ops, elapsed, w)))
            .output("final_lanes", stats.final_lanes)
            .output("splits", stats.splits)
            .output("install_races", stats.install_races);
        rep.record(&r);
        print_row(&[
            name.to_string(),
            fmt_throughput(throughput_per_core(ops, elapsed, w)),
            stats.final_lanes.to_string(),
            stats.splits.to_string(),
            stats.install_races.to_string(),
        ]);
    }

    let n = (opts.measure.n / 4).max(1 << 10);
    println!("\n## Growth (dag) — fanout_broadcast hub probe, n={n}");
    print_row(&[
        "workers".to_string(),
        "ops/s/core".to_string(),
        "hub lanes".to_string(),
        "splits".to_string(),
        "lost CASes".to_string(),
    ]);
    for &w in &workers {
        let cfg = DynConfig::with_threshold(Algo::default_threshold(w));
        let (elapsed, stats) =
            measure_growth(opts.measure.runs, || fanout_broadcast_probed::<DynSnzi>(cfg, w, n).1);
        let mut r = Record::new("fanout-broadcast-growth", "outset-tree-adaptive");
        r.input("proc", w).input("n", n);
        r.output("exectime", format!("{:.6}", elapsed.as_secs_f64()))
            .output(
                "throughput_per_core",
                format!("{:.1}", throughput_per_core(fanout_broadcast_ops(n), elapsed, w)),
            )
            .output("final_lanes", stats.final_lanes)
            .output("splits", stats.splits)
            .output("install_races", stats.install_races);
        rep.record(&r);
        print_row(&[
            w.to_string(),
            fmt_throughput(throughput_per_core(fanout_broadcast_ops(n), elapsed, w)),
            stats.final_lanes.to_string(),
            stats.splits.to_string(),
            stats.install_races.to_string(),
        ]);
    }

    println!("\n## Growth — single-dependent footprint (bytes of heap per out-set)");
    let f = outset_footprint_report();
    print_row(&["shape".to_string(), "fresh".to_string(), "after 1 add".to_string()]);
    print_row(&[
        "adaptive (1 lane)".to_string(),
        f.adaptive_fresh.to_string(),
        f.adaptive_one_add.to_string(),
    ]);
    print_row(&[
        "  …of which epoch domain".to_string(),
        f.adaptive_domain.to_string(),
        f.adaptive_domain.to_string(),
    ]);
    print_row(&[
        format!("fixed ({} lanes, superseded default)", f.fixed_lanes),
        f.fixed_fresh.to_string(),
        f.fixed_one_add.to_string(),
    ]);
    print_row(&[
        format!("recycler standby ({} blocks, process-wide)", f.recycler_cached_blocks),
        f.recycler_cached_bytes.to_string(),
        f.recycler_cached_bytes.to_string(),
    ]);
    let mut r = Record::new("outset-footprint", "outset-tree-adaptive");
    r.input("fixed_lanes", f.fixed_lanes);
    r.output("adaptive_fresh_bytes", f.adaptive_fresh)
        .output("adaptive_one_add_bytes", f.adaptive_one_add)
        .output("adaptive_domain_bytes", f.adaptive_domain)
        .output("fixed_fresh_bytes", f.fixed_fresh)
        .output("fixed_one_add_bytes", f.fixed_one_add)
        .output("recycler_cached_blocks", f.recycler_cached_blocks)
        .output("recycler_cached_bytes", f.recycler_cached_bytes);
    rep.record(&r);
    println!("# wrote {}", rep.path().display());
}

/// Choose an n that keeps total dummy work bounded as work per task grows.
fn grain_n(base_n: u64, leaf_work: u64) -> u64 {
    let budget_ns: u64 = 800_000_000; // ≈0.8 s of single-core dummy work
    base_n.min(budget_ns / leaf_work.max(1)).max(1024)
}

/// Figure 14: speedup of each algorithm over fetch-and-add at max workers,
/// as per-task dummy work varies.
fn fig14(opts: &Opts) {
    let w = opts.measure.max_workers;
    println!("\n## Figure 14 — granularity study at {w} workers (speedup vs fetch-add)");
    let mut rep = open_reporter(&opts.outdir, "fig14");
    print_row(&[
        "work(ns)".to_string(),
        "n".to_string(),
        "fetch-add".to_string(),
        "snzi-depth-9".to_string(),
        "incounter".to_string(),
    ]);
    for leaf_work in [1u64, 10, 100, 1_000, 10_000] {
        let n = grain_n(opts.measure.n, leaf_work);
        let t_fa = measure(opts.measure.runs, || Algo::FetchAdd.run_fanin(w, n, leaf_work));
        record_fanin(&mut rep, &Algo::FetchAdd, w, n, leaf_work, t_fa);
        let mut row = vec![leaf_work.to_string(), n.to_string(), "1.00".to_string()];
        for algo in [Algo::Fixed { depth: 9 }, Algo::incounter_default(w)] {
            let t = measure(opts.measure.runs, || algo.run_fanin(w, n, leaf_work));
            record_fanin(&mut rep, &algo, w, n, leaf_work, t);
            row.push(format!("{:.2}", t_fa.as_secs_f64() / t.as_secs_f64()));
        }
        print_row(&row);
    }
    println!("# wrote {}", rep.path().display());
}

/// Figure 15 (a–e): speedup over single-core fetch-and-add vs worker
/// count, one panel per dummy-work amount.
fn fig15(opts: &Opts) {
    println!("\n## Figure 15 — speedup vs workers at fixed dummy work (baseline: fetch-add @1)");
    let mut rep = open_reporter(&opts.outdir, "fig15");
    let workers = opts.measure.worker_counts();
    for leaf_work in [1u64, 10, 100, 1_000, 10_000] {
        let n = grain_n(opts.measure.n, leaf_work);
        println!("# panel: {leaf_work} ns dummy work per task, n={n}");
        let base = measure(opts.measure.runs, || Algo::FetchAdd.run_fanin(1, n, leaf_work));
        record_fanin(&mut rep, &Algo::FetchAdd, 1, n, leaf_work, base);
        let mut header = vec!["algo \\ workers".to_string()];
        header.extend(workers.iter().map(|w| w.to_string()));
        print_row(&header);
        for idx in 0..3 {
            let mut row = Vec::new();
            let mut label = String::new();
            for &w in &workers {
                let algo = match idx {
                    0 => Algo::FetchAdd,
                    1 => Algo::Fixed { depth: 9 },
                    _ => Algo::incounter_default(w),
                };
                label = if idx == 2 { "incounter".to_string() } else { algo.name() };
                let t = measure(opts.measure.runs, || algo.run_fanin(w, n, leaf_work));
                record_fanin(&mut rep, &algo, w, n, leaf_work, t);
                row.push(format!("{:.2}", base.as_secs_f64() / t.as_secs_f64()));
            }
            let mut cols = vec![label];
            cols.extend(row);
            print_row(&cols);
        }
    }
    println!("# wrote {}", rep.path().display());
}

// ---------------------------------------------------------------------------
// Result-file plumbing: every figure and study funnels its filesystem
// side effects through these, so a missing directory, a permission
// wall or a full disk surfaces as one path-bearing line and a non-zero
// exit instead of an `expect` backtrace unwinding through scoped
// worker threads.

fn fail_io(what: &str, path: &std::path::Path, err: &std::io::Error) -> ! {
    eprintln!("harness: failed to {what} `{}`: {err}", path.display());
    std::process::exit(1);
}

fn open_reporter(outdir: &std::path::Path, name: &str) -> Reporter {
    Reporter::create(outdir, name)
        .unwrap_or_else(|e| fail_io("create results file", &outdir.join(format!("{name}.txt")), &e))
}

fn ensure_dir(dir: &std::path::Path) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| fail_io("create directory", dir, &e));
}

fn write_text(path: &std::path::Path, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| fail_io("write", path, &e));
}

// ---------------------------------------------------------------------------
// `harness chaos` — deterministic fault-injection batteries.

/// One chaos battery: a named, seeded failpoint plan plus the
/// expectation its runs are checked against.
struct ChaosBattery {
    name: &'static str,
    seed: u64,
    plan: sched::FaultPlan,
    expect_panic: bool,
}

/// The fixed battery table for one seed. With the `fault-inject`
/// feature compiled out only the empty-plan baseline remains — the
/// workload and the summary artifact still exercise end to end.
fn chaos_batteries(seed: u64) -> Vec<ChaosBattery> {
    use sched::{FaultMode, SiteSpec};
    let site = |s: &str, mode| SiteSpec { site: s.to_string(), mode };
    let mk = |name, sites, expect_panic| ChaosBattery {
        name,
        seed,
        plan: sched::FaultPlan::new(seed, sites),
        expect_panic,
    };
    let mut batteries = vec![mk("baseline", Vec::new(), false)];
    if !sched::failpoint::enabled() {
        return batteries;
    }
    batteries.extend([
        mk(
            "lost-wake",
            vec![
                site("sched.lost_wake", FaultMode::OneIn(3)),
                site("sched.delayed_wake", FaultMode::OneIn(5)),
            ],
            false,
        ),
        mk("recycle-miss", vec![site("sched.recycle_miss", FaultMode::OneIn(2))], false),
        mk("install-cas", vec![site("outset.install_cas", FaultMode::OneIn(2))], false),
        mk("force-bounce", vec![site("spdag.force_bounce", FaultMode::OneIn(3))], false),
        // Nth is seed-derived so different seeds kill different vertices;
        // >= 8 keeps it past the root so the dag has structure to drain.
        mk("panic-vertex", vec![site("spdag.panic_vertex", FaultMode::Nth(seed % 40 + 8))], true),
        mk(
            "everything",
            vec![
                site("sched.lost_wake", FaultMode::OneIn(5)),
                site("sched.recycle_miss", FaultMode::OneIn(3)),
                site("outset.install_cas", FaultMode::OneIn(3)),
                site("spdag.force_bounce", FaultMode::OneIn(5)),
            ],
            false,
        ),
    ]);
    batteries
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Outcome of a single armed run: `panic_msg` is `None` iff the run
/// completed; `injected` counts this run's fired failpoints.
struct ChaosRun {
    panic_msg: Option<String>,
    injected: u64,
}

/// Install the battery's plan, run the workload watchdog-bounded, and
/// disarm. The workload forks `tasks` independent future+touch pairs —
/// enough vertex, out-set and wake traffic to give every armed site
/// real calls to bite on.
fn chaos_run_once(battery: &ChaosBattery, w: usize, tasks: u64) -> ChaosRun {
    sched::failpoint::install(&battery.plan);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let cfg = DynConfig::with_threshold(Algo::default_threshold(w));
        let wd = sched::WatchdogCfg { stall_timeout: Duration::from_secs(30) };
        spdag::run_dag_watched::<DynSnzi, _>(cfg, w, wd, move |mut ctx| {
            for i in 0..tasks {
                ctx.fork(move |mut c: spdag::Ctx<'_, DynSnzi>| {
                    let f = c.future(move |_| i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    c.touch(&f, |_, v| {
                        std::hint::black_box(*v);
                    });
                });
            }
        });
    }));
    let injected = sched::failpoint::injected_count();
    sched::failpoint::clear();
    match result {
        Ok(_) => ChaosRun { panic_msg: None, injected },
        Err(p) => ChaosRun { panic_msg: Some(panic_text(p.as_ref())), injected },
    }
}

/// `harness chaos`: run every battery twice per seed and hold each to
/// three claims — the **outcome** claim (the run completes, or for the
/// panic battery the injected panic propagates to this caller with the
/// pool drained rather than hung), the **replay** claim (the second
/// run under the same plan reproduces the first's outcome — decision
/// `k` at site `s` is pure in `(seed, s, k)`, see `docs/robustness.md`),
/// and the **conservation** claim (at quiescence the vertex and
/// out-set identities still close, even across a poisoned run). Every
/// battery prints the seed that reproduces it; the machine-checkable
/// summary goes to `results/chaos.json` and any failed claim exits
/// non-zero.
fn chaos_cmd(opts: &Opts) {
    let w = opts.measure.max_workers.clamp(2, 8);
    let tasks = (opts.measure.n / 8).clamp(512, 1 << 14);
    let armed = sched::failpoint::enabled();
    println!("\n## Chaos — seeded fault-injection batteries, workers={w}, tasks/battery={tasks}");
    if !armed {
        println!("# fault-inject feature compiled out: baseline battery only");
        println!("# (rebuild with `--features fault-inject` to arm the failpoint sites)");
    }
    let seeds: &[u64] = if armed { &[0x00C0_FFEE, 0x0DDC_0DE5, 42] } else { &[42] };

    // Injected panics are expected and caught; keep the default hook's
    // backtrace spew out of the report (payloads are printed per row).
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut rows: Vec<String> = Vec::new();
    let mut all_ok = true;
    for &seed in seeds {
        for battery in chaos_batteries(seed) {
            let before = obs::Snapshot::take();
            let r1 = chaos_run_once(&battery, w, tasks);
            let r2 = chaos_run_once(&battery, w, tasks);
            let d = obs::Snapshot::take().diff(&before);

            let outcome_ok = if battery.expect_panic {
                // Nth makes the injection itself exactly-once per run,
                // so beyond propagation the counts must both be 1.
                r1.injected == 1
                    && r2.injected == 1
                    && [&r1, &r2].iter().all(|r| {
                        r.panic_msg.as_deref().is_some_and(|m| m.contains("spdag.panic_vertex"))
                    })
            } else {
                r1.panic_msg.is_none() && r2.panic_msg.is_none()
            };
            // OneIn call counts are schedule-dependent (how often a site
            // is *reached* varies), so replay compares outcomes, not
            // injection tallies — those are exact only for Nth above.
            let replay_ok = r1.panic_msg == r2.panic_msg;
            let conservation_ok = if obs::enabled() && !d.is_empty() {
                let vborn = d.counter("sched.vertex_alloc") + d.counter("sched.vertex_reuse");
                let vdead = d.counter("sched.vertex_recycled") + d.counter("sched.vertex_dropped");
                let adds = d.counter("outset.adds");
                let delivered = d.counter("outset.adds_bounced") + d.counter("outset.swept");
                vborn == vdead && adds == delivered
            } else {
                true
            };
            let ok = outcome_ok && replay_ok && conservation_ok;
            all_ok &= ok;

            let outcome = match &r1.panic_msg {
                None => "completed".to_string(),
                Some(m) => format!("panicked: {m}"),
            };
            println!(
                "  [{}] {:<12} seed=0x{:08x} injected={}+{} replay={} conservation={} — {}",
                if ok { "ok  " } else { "FAIL" },
                battery.name,
                battery.seed,
                r1.injected,
                r2.injected,
                if replay_ok { "match" } else { "DIVERGED" },
                if conservation_ok { "intact" } else { "BROKEN" },
                outcome,
            );
            if !ok {
                println!(
                    "# reproduce: harness chaos --n {} --max-workers {w} (battery `{}` is \
                     seeded with 0x{:x} in the fixed table)",
                    opts.measure.n, battery.name, battery.seed,
                );
            }
            rows.push(format!(
                "    {{ \"name\": \"{}\", \"seed\": {}, \"expect_panic\": {}, \
                 \"panicked\": {}, \"injected\": [{}, {}], \"replay_match\": {}, \
                 \"conservation_ok\": {}, \"ok\": {} }}",
                battery.name,
                battery.seed,
                battery.expect_panic,
                r1.panic_msg.is_some(),
                r1.injected,
                r2.injected,
                replay_ok,
                conservation_ok,
                ok,
            ));
        }
    }

    std::panic::set_hook(prev_hook);

    let json = format!(
        "{{\n  \"schema\": \"chaos-v1\",\n  \"fault_inject\": {armed},\n  \"workers\": {w},\n  \
         \"tasks\": {tasks},\n  \"telemetry\": {},\n  \"batteries\": [\n{}\n  ],\n  \
         \"ok\": {all_ok}\n}}\n",
        obs::enabled(),
        rows.join(",\n"),
    );
    let path = opts.outdir.join("chaos.json");
    ensure_dir(&opts.outdir);
    write_text(&path, &json);
    println!("# chaos: {}; wrote {}", if all_ok { "PASS" } else { "FAIL" }, path.display());
    if !all_ok {
        std::process::exit(1);
    }
}
