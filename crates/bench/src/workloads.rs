//! The paper's benchmark programs (Figures 6 and 7), the raw-counter
//! microbenchmark of the SNZI reproduction study (Appendix C.1), the
//! out-set workloads extending the comparison to completion broadcast —
//! [`fanout_broadcast`], [`pipeline_stages`], [`raw_outset_bench`] — and
//! the growth-curve study of the adaptive lane table
//! ([`raw_growth_bench`], [`fanout_broadcast_probed`],
//! [`outset_footprint_report`]) validating `docs/outset-contention.md`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use incounter::CounterFamily;
use outset::tree::TreeOutsetObj;
use outset::{GrowthPolicy, MutexOutset, OutsetFamily, TreeOutset};
use snzi::{FixedSnzi, Probability};
use spdag::{run_dag, strand_await, Ctx, FutureHandle, StrandPoll};

/// Calibrated busy work: roughly `units` nanoseconds of arithmetic on this
/// machine (the paper: "each unit of dummy work takes approximately one
/// nanosecond").
#[inline]
pub fn dummy_work(units: u64) {
    let mut acc = 0u64;
    for i in 0..units {
        // A dependent multiply-add chain defeats vectorisation so each
        // iteration costs on the order of a nanosecond.
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        std::hint::black_box(&acc);
    }
    std::hint::black_box(acc);
}

/// Measure the cost of one `dummy_work` unit in nanoseconds (reported next
/// to granularity results so readers can convert the x-axis).
pub fn calibrate_dummy_unit_ns() -> f64 {
    let iters = 3_000_000u64;
    let t0 = Instant::now();
    dummy_work(iters);
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn fanin_rec<C: CounterFamily>(ctx: Ctx<'_, C>, n: u64, leaf_work: u64) {
    if n >= 2 {
        ctx.spawn(move |c| fanin_rec(c, n / 2, leaf_work), move |c| fanin_rec(c, n / 2, leaf_work));
    } else if leaf_work > 0 {
        dummy_work(leaf_work);
    }
}

/// The fanin benchmark (Figure 6): one finish block, `n` leaf strands all
/// synchronising on a single dependency counter — the maximal-contention
/// pattern of a parallel for. `leaf_work` adds the granularity study's
/// dummy work at each leaf (0 for the pure synchronisation benchmark).
///
/// Returns the wall-clock time of the run.
pub fn fanin<C: CounterFamily>(cfg: C::Config, workers: usize, n: u64, leaf_work: u64) -> Duration {
    run_dag::<C, _>(cfg, workers, move |ctx| fanin_rec(ctx, n, leaf_work)).elapsed
}

/// Counter operations performed by `fanin(n)`: one increment per spawn
/// (`n − 1`) and one decrement per strand termination (`n`), i.e. ~`2n`.
pub fn fanin_ops(n: u64) -> u64 {
    if n < 2 {
        return 1;
    }
    2 * n - 1
}

fn fib_rec<C: CounterFamily>(ctx: Ctx<'_, C>, n: u64, acc: Arc<AtomicU64>) {
    if n < 2 {
        acc.fetch_add(n, Ordering::Relaxed);
        return;
    }
    let acc2 = Arc::clone(&acc);
    ctx.spawn(move |c| fib_rec(c, n - 1, acc), move |c| fib_rec(c, n - 2, acc2));
}

/// Naive parallel Fibonacci: the canonical spawn-cost microbenchmark —
/// `fib(n)` spawns ~`2·fib(n)` vertices whose bodies do nothing but
/// recurse, so wall clock is dominated by vertex allocation, scheduling
/// and synchronisation. Each leaf adds its `n ∈ {0, 1}` into a shared
/// accumulator, which at quiescence holds `fib(n)` (checked here). The
/// spawn arms capture 16 bytes (an `Arc` and a `u64`), deliberately
/// within the runtime's inline-body class so the workload measures the
/// zero-allocation fast path. Returns wall-clock time.
pub fn fib<C: CounterFamily>(cfg: C::Config, workers: usize, n: u64) -> Duration {
    let acc = Arc::new(AtomicU64::new(0));
    let a = Arc::clone(&acc);
    let elapsed = run_dag::<C, _>(cfg, workers, move |ctx| fib_rec(ctx, n, a)).elapsed;
    let (mut x, mut y) = (0u64, 1u64);
    for _ in 0..n {
        (x, y) = (y, x + y);
    }
    assert_eq!(acc.load(Ordering::Relaxed), x, "fib({n}) accumulated wrongly");
    elapsed
}

/// Vertices allocated by `fib(n)`: two per spawn plus the root pair;
/// spawns number `fib(n+1) - 1` (every internal call spawns once).
pub fn fib_ops(n: u64) -> u64 {
    let (mut x, mut y) = (0u64, 1u64);
    for _ in 0..=n {
        (x, y) = (y, x + y);
    }
    2 * (x - 1) + 2
}

fn indegree2_rec<C: CounterFamily>(ctx: Ctx<'_, C>, n: u64) {
    if n >= 2 {
        ctx.chain(
            move |c| {
                c.spawn(move |c2| indegree2_rec(c2, n / 2), move |c2| indegree2_rec(c2, n / 2));
            },
            move |_| {},
        );
    }
}

/// The indegree2 benchmark (Figure 7): the same `n`-leaf pattern as fanin
/// but with a fresh finish block at every level, so every dependency
/// counter sees indegree exactly 2. This isolates per-counter *setup*
/// cost: the fixed-depth baseline must allocate a whole tree per level.
pub fn indegree2<C: CounterFamily>(cfg: C::Config, workers: usize, n: u64) -> Duration {
    run_dag::<C, _>(cfg, workers, move |ctx| indegree2_rec(ctx, n)).elapsed
}

/// Counter operations performed by `indegree2(n)`: per internal node one
/// chain (make(1)), one increment, two decrements — ≈ `4n`.
pub fn indegree2_ops(n: u64) -> u64 {
    if n < 2 {
        return 1;
    }
    4 * (n - 1)
}

/// The fanout-broadcast benchmark: one future, `n` dependents racing to
/// register in its out-set (through `n` scope forks, so adders spread
/// over the worker pool), one sweep scheduling them all. The out-set
/// analogue of fanin — the maximal add-contention pattern — driven by
/// the in-counter dag machinery so the counter and out-set algorithms
/// compose exactly as in production use. Returns wall-clock time.
pub fn fanout_broadcast<C: CounterFamily, O: OutsetFamily>(
    cfg: C::Config,
    workers: usize,
    n: u64,
) -> Duration {
    fanout_broadcast_run::<C, O>(cfg, workers, n, None)
}

/// Escape slot through which [`fanout_broadcast_run`] parks the hub
/// future's handle for post-run probing.
type HubEscape<O> = Arc<Mutex<Option<FutureHandle<u64, O>>>>;

/// Shared body of [`fanout_broadcast`] and [`fanout_broadcast_probed`]:
/// when `escape` is given, the hub future's handle is parked there so
/// callers can probe its out-set after the run quiesces.
fn fanout_broadcast_run<C: CounterFamily, O: OutsetFamily>(
    cfg: C::Config,
    workers: usize,
    n: u64,
    escape: Option<HubEscape<O>>,
) -> Duration {
    run_dag::<C, _>(cfg, workers, move |mut ctx| {
        let registered = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&registered);
        // The future completes only after every dependent's add has
        // really landed (each fork bumps the count *after* its touch
        // returns), keeping the registration path — not the post-seal
        // bounce — under maximal concurrency.
        let f = ctx.future_in::<O, _, _>(move |_| {
            while r.load(Ordering::Acquire) < n {
                std::hint::spin_loop();
            }
            1u64
        });
        if let Some(escape) = escape {
            *escape.lock().unwrap() = Some(f.clone());
        }
        let mut scope = ctx.into_scope();
        for _ in 0..n {
            let f = f.clone();
            let registered = Arc::clone(&registered);
            scope.fork(move |c| {
                c.touch(&f, |_, v| {
                    std::hint::black_box(*v);
                });
                // Runs after touch registered the edge (touch consumes
                // the Ctx but the body continues).
                registered.fetch_add(1, Ordering::Release);
            });
        }
    })
    .elapsed
}

/// Out-set operations performed by `fanout_broadcast(n)`: `n` adds and
/// one finish sweeping `≤ n` tokens — ≈ `2n`.
pub fn fanout_broadcast_ops(n: u64) -> u64 {
    2 * n
}

/// The pipeline benchmark: a `stages × width` wavefront where every cell
/// joins two cells of the previous stage (`i` and `i+1 mod width`) —
/// `2·stages·width` runtime-added edges. Exercises out-set add/finish
/// under pipelined (producer racing consumer) rather than all-at-once
/// contention. Returns wall-clock time.
pub fn pipeline_stages<C: CounterFamily, O: OutsetFamily>(
    cfg: C::Config,
    workers: usize,
    stages: u64,
    width: u64,
) -> Duration {
    run_dag::<C, _>(cfg, workers, move |mut ctx| {
        let mut row: Vec<FutureHandle<u64, O>> =
            (0..width).map(|i| ctx.future_in::<O, _, _>(move |_| i)).collect();
        for _ in 1..stages {
            let mut next = Vec::with_capacity(row.len());
            for i in 0..width as usize {
                let j = (i + 1) % width as usize;
                next.push(ctx.future_join_in::<_, _, _, O, O, O, _>(
                    &row[i],
                    &row[j],
                    |_, a, b| a.wrapping_add(*b),
                ));
            }
            row = next;
        }
        // Sink every last-stage cell so nothing is dead code.
        let mut scope = ctx.into_scope();
        for cell in row {
            scope.fork(move |c| {
                c.touch(&cell, |_, v| {
                    std::hint::black_box(*v);
                });
            });
        }
    })
    .elapsed
}

/// Out-set operations performed by `pipeline_stages`: two adds per
/// interior cell plus one finish per cell — ≈ `3·stages·width`.
pub fn pipeline_stages_ops(stages: u64, width: u64) -> u64 {
    3 * stages * width
}

/// How a dependent awaits its input future in [`await_chain`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TouchMode {
    /// Continuation passing: `future_then` / `touch` — the dependent is a
    /// fresh waiting vertex, no suspension machinery involved.
    Cps,
    /// Blocking style: `future_strand` / `touch_await` — the dependent is
    /// a resumable strand that parks mid-body.
    Blocking,
}

/// The await-chain benchmark: `depth` futures in one sequential
/// dependency chain — `f_0 = 0`, `f_i = f_{i-1} + 1` — folded by a final
/// sink strand. The maximally *serial* future workload: no two stages can
/// ever overlap, so wall clock is pure per-await overhead — which is
/// exactly what the blocking-vs-CPS A/B wants to isolate, and the shape
/// that makes the no-worker-blocking property load-bearing: at `W = 1`
/// with `depth` ≫ 1 every blocking stage must park its *strand* and hand
/// the worker on, or the pool deadlocks instantly.
///
/// Asserts the fold (final value = `depth − 1`) before returning the
/// wall-clock time.
pub fn await_chain<C: CounterFamily>(
    cfg: C::Config,
    workers: usize,
    depth: u64,
    mode: TouchMode,
) -> Duration {
    assert!(depth >= 1);
    let out = Arc::new(AtomicU64::new(u64::MAX));
    let o = Arc::clone(&out);
    let elapsed = run_dag::<C, _>(cfg, workers, move |mut ctx| {
        let mut prev: FutureHandle<u64> = ctx.future(|_| 0u64);
        for _ in 1..depth {
            prev = match mode {
                TouchMode::Cps => ctx.future_then(&prev, |_, v| v + 1),
                TouchMode::Blocking => {
                    let f = prev.clone();
                    // 16 B of state (two handles' worth): rides inline in
                    // the vertex, so a park touches no extra memory.
                    ctx.future_strand(move |c: &mut Ctx<'_, C>| {
                        let v = *strand_await!(c, &f);
                        StrandPoll::Done(v + 1)
                    })
                }
            };
        }
        let f = prev;
        ctx.fork_strand(move |c: &mut Ctx<'_, C>| {
            o.store(*strand_await!(c, &f), Ordering::Relaxed);
            StrandPoll::Done(())
        });
    })
    .elapsed;
    assert_eq!(out.load(Ordering::Relaxed), depth - 1, "await_chain(depth={depth}) misfolded");
    elapsed
}

/// [`pipeline_stages`] with every interior join cell rewritten in
/// blocking style: a strand that `touch_await`s both inputs in sequence
/// instead of nesting two CPS touches. Same dag shape, same out-set
/// traffic — the A/B partner isolating the suspension machinery's cost
/// under a workload where strands actually overlap.
pub fn pipeline_stages_blocking<C: CounterFamily, O: OutsetFamily>(
    cfg: C::Config,
    workers: usize,
    stages: u64,
    width: u64,
) -> Duration {
    run_dag::<C, _>(cfg, workers, move |mut ctx| {
        let mut row: Vec<FutureHandle<u64, O>> =
            (0..width).map(|i| ctx.future_in::<O, _, _>(move |_| i)).collect();
        for _ in 1..stages {
            let mut next = Vec::with_capacity(row.len());
            for i in 0..width as usize {
                let j = (i + 1) % width as usize;
                let (a, b) = (row[i].clone(), row[j].clone());
                next.push(ctx.future_strand_in::<O, u64, _>(move |c: &mut Ctx<'_, C>| {
                    // Re-entry after the second park replays the first
                    // await, which hits the ready fast path.
                    let x = *strand_await!(c, &a);
                    let y = *strand_await!(c, &b);
                    StrandPoll::Done(x.wrapping_add(y))
                }));
            }
            row = next;
        }
        let mut scope = ctx.into_scope();
        for cell in row {
            scope.fork(move |c| {
                c.touch(&cell, |_, v| {
                    std::hint::black_box(*v);
                });
            });
        }
    })
    .elapsed
}

/// Which out-set implementation a raw/dag out-set benchmark exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RawOutset {
    /// The lock-free tree of slot blocks.
    Tree,
    /// The `Mutex<Vec>` baseline.
    Mutex,
}

impl RawOutset {
    /// Display name matching the family constants.
    pub fn name(&self) -> &'static str {
        match self {
            RawOutset::Tree => TreeOutset::NAME,
            RawOutset::Mutex => MutexOutset::NAME,
        }
    }

    /// Run [`fanout_broadcast`] under this out-set with the in-counter.
    pub fn run_fanout(&self, cfg: incounter::DynConfig, workers: usize, n: u64) -> Duration {
        match self {
            RawOutset::Tree => fanout_broadcast::<incounter::DynSnzi, TreeOutset>(cfg, workers, n),
            RawOutset::Mutex => {
                fanout_broadcast::<incounter::DynSnzi, MutexOutset>(cfg, workers, n)
            }
        }
    }

    /// Run [`pipeline_stages`] under this out-set with the in-counter.
    pub fn run_pipeline(
        &self,
        cfg: incounter::DynConfig,
        workers: usize,
        stages: u64,
        width: u64,
    ) -> Duration {
        match self {
            RawOutset::Tree => {
                pipeline_stages::<incounter::DynSnzi, TreeOutset>(cfg, workers, stages, width)
            }
            RawOutset::Mutex => {
                pipeline_stages::<incounter::DynSnzi, MutexOutset>(cfg, workers, stages, width)
            }
        }
    }
}

/// The raw out-set microbenchmark (no dag): `threads` threads each
/// register `adds` edges in one shared out-set, then one finish sweeps
/// it. Isolates the add path's contention exactly as the raw counter
/// benchmark isolates arrive/depart. Total operations =
/// `threads * adds + 1` (the sweep delivers in one call).
pub fn raw_outset_bench(kind: RawOutset, threads: usize, adds: u64) -> Duration {
    fn drive<O: OutsetFamily>(threads: usize, adds: u64) -> Duration {
        let set = Arc::new(O::make());
        let elapsed = {
            let set = Arc::clone(&set);
            run_threads(threads, move |tid, barrier| {
                let set = Arc::clone(&set);
                move || {
                    barrier.wait();
                    for i in 0..adds {
                        let token = (tid as u64) * adds + i;
                        match O::add(&set, token, tid as u64) {
                            outset::AddEdge::Registered => {}
                            outset::AddEdge::Finished(_) => unreachable!("unsealed"),
                        }
                    }
                }
            })
        };
        let mut delivered = 0u64;
        let sweep_start = Instant::now();
        assert!(O::finish(&set, &mut |_| delivered += 1));
        let total = elapsed + sweep_start.elapsed();
        assert_eq!(delivered, threads as u64 * adds);
        total
    }
    match kind {
        RawOutset::Tree => drive::<TreeOutset>(threads, adds),
        RawOutset::Mutex => drive::<MutexOutset>(threads, adds),
    }
}

/// Everything one growth-curve run observes about the adaptive lane
/// table (see `docs/outset-contention.md` for the quantities' roles in
/// the accounting).
#[derive(Clone, Copy, Debug)]
pub struct GrowthStats {
    /// Wall-clock time of the timed add phase (the sweep is excluded —
    /// growth only affects the add path).
    pub elapsed: Duration,
    /// Lane-table size when the adders were done.
    pub final_lanes: usize,
    /// Successful table doublings.
    pub splits: usize,
    /// Lost block-install CASes — the contention events that fed the
    /// growth coin. The accounting predicts `splits ≈ p · races` (each
    /// loss flips once).
    pub install_races: usize,
    /// Total adds completed (across all threads) when the table was first
    /// observed above one lane; `None` if it never grew.
    pub adds_to_first_split: Option<u64>,
}

/// The raw growth-curve microbenchmark: `threads` threads each register
/// `adds_per_thread` edges in one shared out-set that starts at
/// `initial_lanes` under `policy` (1 for the adaptive curve; the policy
/// cap for a "pre-grown" baseline), then one finish sweeps it. The
/// adaptive counterpart of [`raw_outset_bench`]: it measures when (in
/// adds) the table first splits, how far it converges, and what the
/// transient costs, under contention that is real rather than assumed.
pub fn raw_growth_bench(
    threads: usize,
    adds_per_thread: u64,
    initial_lanes: usize,
    policy: GrowthPolicy,
) -> GrowthStats {
    let set = Arc::new(TreeOutsetObj::with_policy(initial_lanes, policy));
    let total_adds = Arc::new(AtomicU64::new(0));
    let first_split = Arc::new(AtomicU64::new(u64::MAX));
    // A policy that cannot split (p = 0, or already at its cap) gets no
    // probe at all: pre-poison the latch so those baselines measure the
    // pure add path.
    if policy.probability() == Probability::NEVER
        || initial_lanes.max(1).next_power_of_two() >= policy.max_lanes()
    {
        first_split.store(u64::MAX - 1, Ordering::Relaxed);
    }
    let elapsed = {
        let set = Arc::clone(&set);
        let total_adds = Arc::clone(&total_adds);
        let first_split = Arc::clone(&first_split);
        run_threads(threads, move |tid, barrier| {
            let set = Arc::clone(&set);
            let total_adds = Arc::clone(&total_adds);
            let first_split = Arc::clone(&first_split);
            move || {
                barrier.wait();
                for i in 0..adds_per_thread {
                    let token = (tid as u64) * adds_per_thread + i;
                    match set.add(token, tid as u64) {
                        outset::AddEdge::Registered => {}
                        outset::AddEdge::Finished(_) => unreachable!("unsealed"),
                    }
                    // The global add clock exists only to timestamp the
                    // first split, and is itself a shared hot spot — so
                    // stop touching it (and the probe) the moment the
                    // split is pinned down, leaving the steady-state
                    // throughput measurement probe-free.
                    if first_split.load(Ordering::Relaxed) == u64::MAX {
                        let done = total_adds.fetch_add(1, Ordering::Relaxed) + 1;
                        if set.splits() > 0 {
                            first_split.fetch_min(done, Ordering::Relaxed);
                        }
                    }
                }
            }
        })
    };
    let mut delivered = 0u64;
    assert!(set.finish(&mut |_| delivered += 1));
    assert_eq!(delivered, threads as u64 * adds_per_thread);
    let fs = first_split.load(Ordering::Relaxed);
    GrowthStats {
        elapsed,
        final_lanes: set.lane_count(),
        splits: set.splits(),
        install_races: set.install_races(),
        // Both u64::MAX (never observed) and the poison value count as
        // "no timestamp".
        adds_to_first_split: (fs < u64::MAX - 1).then_some(fs),
    }
}

/// [`fanout_broadcast`] with the hub future's adaptive out-set probed
/// after the run quiesced: the dag-level growth-curve data point. Returns
/// the wall-clock time plus the hub's [`GrowthStats`] (with
/// `adds_to_first_split` unavailable — the dag offers no global add
/// clock).
pub fn fanout_broadcast_probed<C: CounterFamily>(
    cfg: C::Config,
    workers: usize,
    n: u64,
) -> (Duration, GrowthStats) {
    let escaped = Arc::new(Mutex::new(None::<FutureHandle<u64, TreeOutset>>));
    let elapsed =
        fanout_broadcast_run::<C, TreeOutset>(cfg, workers, n, Some(Arc::clone(&escaped)));
    let handle = escaped.lock().unwrap().take().expect("hub handle escaped");
    let set = handle.outset();
    let stats = GrowthStats {
        elapsed,
        final_lanes: set.lane_count(),
        splits: set.splits(),
        install_races: set.install_races(),
        adds_to_first_split: None,
    };
    (elapsed, stats)
}

/// Heap footprints contrasting the adaptive single-lane start against the
/// superseded fixed default (hardware threads, capped at 16) — the
/// "single-dependent futures pay one word" claim, in bytes.
///
/// Live bytes (blocks linked into an out-set) and recycler bytes (blocks
/// sitting free in the slab pool, ready for reuse) are reported
/// **separately**: cached-but-free memory is a process-wide standby cost
/// bounded by peak-live, not a per-out-set cost, and folding it into the
/// per-object numbers would misattribute it to whichever out-set was
/// measured last.
#[derive(Clone, Copy, Debug)]
pub struct FootprintReport {
    /// A fresh adaptive out-set (1 lane, no blocks, private epoch domain).
    pub adaptive_fresh: usize,
    /// An adaptive out-set holding one registered dependent.
    pub adaptive_one_add: usize,
    /// The part of `adaptive_fresh` that is the private epoch
    /// reclamation domain — a fixed once-per-out-set cost growable
    /// out-sets pay and frozen ones do not.
    pub adaptive_domain: usize,
    /// The fixed lane count the first iteration allocated up front.
    pub fixed_lanes: usize,
    /// A fresh fixed-lane out-set of that size.
    pub fixed_fresh: usize,
    /// The same, holding one registered dependent.
    pub fixed_one_add: usize,
    /// Blocks sitting free in the block recycler when the report was
    /// taken — standby memory, **not** part of any out-set's live bytes.
    pub recycler_cached_blocks: usize,
    /// The same standby pool in bytes
    /// (`recycler_cached_blocks × block size`).
    pub recycler_cached_bytes: usize,
}

/// Measure [`FootprintReport`] on this machine.
pub fn outset_footprint_report() -> FootprintReport {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let fixed_lanes = cores.next_power_of_two().min(16);
    let adaptive = TreeOutsetObj::new();
    let adaptive_fresh = adaptive.footprint_bytes();
    let adaptive_domain = adaptive.domain_footprint_bytes();
    let _ = adaptive.add(1, 0);
    let adaptive_one_add = adaptive.footprint_bytes();
    let fixed = TreeOutsetObj::with_lanes(fixed_lanes);
    let fixed_fresh = fixed.footprint_bytes();
    let _ = fixed.add(1, 0);
    let fixed_one_add = fixed.footprint_bytes();
    FootprintReport {
        adaptive_fresh,
        adaptive_one_add,
        adaptive_domain,
        fixed_lanes,
        fixed_fresh,
        fixed_one_add,
        recycler_cached_blocks: outset::recycle::cached_blocks(),
        recycler_cached_bytes: outset::recycle::cached_bytes(),
    }
}

/// Which raw counter the SNZI reproduction study (Figure 12) exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RawCounter {
    /// A single fetch-and-add cell.
    FetchAdd,
    /// A fixed-depth SNZI tree; threads hash onto leaves.
    FixedSnzi {
        /// Tree depth `d`.
        depth: u32,
    },
}

/// The raw-counter microbenchmark reproducing Figure 10 of the original
/// SNZI paper (our paper's Figure 12): `threads` threads each perform
/// `pairs` arrive/depart pairs on one shared counter, no dag involved.
/// Returns the wall-clock time; total operations = `2 * threads * pairs`.
pub fn raw_counter_bench(counter: RawCounter, threads: usize, pairs: u64) -> Duration {
    match counter {
        RawCounter::FetchAdd => {
            let cell = Arc::new(PaddedCell { v: AtomicU64::new(0) });
            run_threads(threads, move |tid, barrier| {
                let cell = Arc::clone(&cell);
                move || {
                    barrier.wait();
                    for _ in 0..pairs {
                        cell.v.fetch_add(1, Ordering::AcqRel);
                        cell.v.fetch_sub(1, Ordering::AcqRel);
                    }
                    let _ = tid;
                }
            })
        }
        RawCounter::FixedSnzi { depth } => {
            let tree = Arc::new(FixedSnzi::new(depth, 0));
            run_threads(threads, move |tid, barrier| {
                let tree = Arc::clone(&tree);
                move || {
                    barrier.wait();
                    for i in 0..pairs {
                        let key = (tid as u64) << 32 | i;
                        let leaf = tree.arrive_key(key);
                        tree.depart_leaf(leaf);
                    }
                }
            })
        }
    }
}

#[repr(align(128))]
struct PaddedCell {
    v: AtomicU64,
}

/// Spawn `threads` threads from a factory, synchronise their start on a
/// barrier, and time the whole batch.
fn run_threads<F, G>(threads: usize, factory: F) -> Duration
where
    F: Fn(usize, Arc<Barrier>) -> G,
    G: FnOnce() + Send + 'static,
{
    let barrier = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> =
        (0..threads).map(|tid| std::thread::spawn(factory(tid, Arc::clone(&barrier)))).collect();
    // Release all threads at once, then time until they are done.
    barrier.wait();
    let t0 = Instant::now();
    for h in handles {
        h.join().expect("benchmark thread panicked");
    }
    t0.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use incounter::{DynConfig, DynSnzi, FetchAdd, FixedConfig, FixedDepth};

    #[test]
    fn fanin_counts_leaves() {
        // Cross-check the analytic op count with an instrumented run.
        let stats = run_dag::<FetchAdd, _>((), 2, |ctx| fanin_rec(ctx, 64, 0));
        // Vertices: root + final + 2 per spawn (63 spawns).
        assert_eq!(stats.pool.tasks, 2 + 2 * 63);
        assert_eq!(fanin_ops(64), 127);
    }

    #[test]
    fn fanin_runs_on_all_families() {
        for workers in [1, 2] {
            fanin::<DynSnzi>(DynConfig::default(), workers, 256, 0);
            fanin::<FetchAdd>((), workers, 256, 0);
            fanin::<FixedDepth>(FixedConfig { depth: 3 }, workers, 256, 0);
        }
    }

    #[test]
    fn fib_computes_fib_on_all_families() {
        // `fib` asserts the accumulated value internally.
        for workers in [1, 2, 4] {
            fib::<DynSnzi>(DynConfig::default(), workers, 12);
            fib::<FetchAdd>((), workers, 12);
        }
        fib::<FixedDepth>(FixedConfig { depth: 3 }, 2, 10);
        assert_eq!(fib_ops(1), 2, "fib(1) is a leaf: just the root pair");
        assert_eq!(fib_ops(5), 2 * 7 + 2, "fib(6)-1 = 7 spawns");
    }

    #[test]
    fn indegree2_runs_on_all_families() {
        for workers in [1, 2] {
            indegree2::<DynSnzi>(DynConfig::default(), workers, 128);
            indegree2::<FetchAdd>((), workers, 128);
            indegree2::<FixedDepth>(FixedConfig { depth: 2 }, workers, 128);
        }
    }

    #[test]
    fn fanin_with_leaf_work_takes_longer() {
        let fast = fanin::<FetchAdd>((), 1, 512, 0);
        let slow = fanin::<FetchAdd>((), 1, 512, 20_000);
        assert!(slow > fast, "dummy work must cost time: {fast:?} !< {slow:?}");
    }

    #[test]
    fn fanout_broadcast_runs_on_both_outsets() {
        use outset::{MutexOutset, TreeOutset};
        for workers in [1, 2, 4] {
            fanout_broadcast::<DynSnzi, TreeOutset>(DynConfig::default(), workers, 200);
            fanout_broadcast::<DynSnzi, MutexOutset>(DynConfig::default(), workers, 200);
            fanout_broadcast::<FetchAdd, TreeOutset>((), workers, 200);
        }
        assert_eq!(fanout_broadcast_ops(100), 200);
    }

    #[test]
    fn pipeline_stages_runs_on_both_outsets() {
        use outset::{MutexOutset, TreeOutset};
        for workers in [1, 3] {
            pipeline_stages::<DynSnzi, TreeOutset>(DynConfig::default(), workers, 8, 16);
            pipeline_stages::<DynSnzi, MutexOutset>(DynConfig::default(), workers, 8, 16);
        }
        assert_eq!(pipeline_stages_ops(8, 16), 384);
    }

    #[test]
    fn await_chain_runs_in_both_modes() {
        for workers in [1, 2] {
            for mode in [TouchMode::Cps, TouchMode::Blocking] {
                await_chain::<DynSnzi>(DynConfig::default(), workers, 64, mode);
                await_chain::<FetchAdd>((), workers, 64, mode);
            }
        }
    }

    #[test]
    fn await_chain_deep_blocking_single_worker() {
        // The acceptance shape: 1000 sequentially dependent blocking
        // awaits on ONE worker. Strands must park (not the worker) or
        // this deadlocks on the first unready touch_await.
        await_chain::<DynSnzi>(DynConfig::default(), 1, 1000, TouchMode::Blocking);
        await_chain::<FixedDepth>(FixedConfig::default(), 1, 1000, TouchMode::Blocking);
    }

    #[test]
    fn pipeline_stages_blocking_matches_cps_shape() {
        use outset::{MutexOutset, TreeOutset};
        for workers in [1, 3] {
            pipeline_stages_blocking::<DynSnzi, TreeOutset>(DynConfig::default(), workers, 8, 16);
            pipeline_stages_blocking::<DynSnzi, MutexOutset>(DynConfig::default(), workers, 8, 16);
        }
    }

    #[test]
    fn raw_outset_both_kinds_run() {
        for kind in [RawOutset::Tree, RawOutset::Mutex] {
            let d = raw_outset_bench(kind, 2, 5_000);
            assert!(d.as_nanos() > 0, "{}", kind.name());
        }
    }

    #[test]
    fn raw_outset_selector_round_trips() {
        assert_eq!(RawOutset::Tree.name(), "outset-tree");
        assert_eq!(RawOutset::Mutex.name(), "outset-mutex");
        RawOutset::Tree.run_fanout(DynConfig::default(), 2, 100);
        RawOutset::Mutex.run_pipeline(DynConfig::default(), 2, 4, 8);
    }

    #[test]
    fn raw_growth_bench_reports_consistent_stats() {
        // Fixed policy: never splits, whatever the contention.
        let s = raw_growth_bench(2, 3_000, 1, GrowthPolicy::fixed(1));
        assert_eq!(s.final_lanes, 1);
        assert_eq!(s.splits, 0);
        assert_eq!(s.adds_to_first_split, None);
        // Adaptive policy: splits (if any) stay within the cap, and the
        // split/race bookkeeping is coherent.
        let s = raw_growth_bench(4, 3_000, 1, GrowthPolicy::eager(8));
        assert!(s.final_lanes <= 8);
        assert_eq!(s.final_lanes, 1 << s.splits);
        assert!(s.splits <= s.install_races, "every split was preceded by a lost CAS");
        if s.final_lanes > 1 {
            assert!(s.adds_to_first_split.is_some());
        }
    }

    #[test]
    fn fanout_probed_matches_plain_fanout_semantics() {
        let (elapsed, stats) = fanout_broadcast_probed::<DynSnzi>(DynConfig::default(), 2, 300);
        assert!(elapsed.as_nanos() > 0);
        assert!(stats.final_lanes >= 1);
        assert_eq!(stats.final_lanes, 1 << stats.splits);
    }

    #[test]
    fn footprint_report_orders_as_documented() {
        let r = outset_footprint_report();
        assert!(r.adaptive_domain > 0, "growable out-sets carry a reclamation domain");
        assert!(
            r.adaptive_fresh - r.adaptive_domain <= r.fixed_fresh,
            "net of the fixed domain cost, the adaptive start must not cost more"
        );
        assert!(r.adaptive_one_add > r.adaptive_fresh, "one add allocates the first block");
        if r.fixed_lanes > 1 {
            assert!(
                r.fixed_fresh > r.adaptive_fresh - r.adaptive_domain,
                "a multi-lane fixed table costs more than the single-lane start"
            );
        }
        // The recycler's standby pool is reported in its own columns,
        // never folded into the per-out-set live bytes (whose values
        // above are pure shape arithmetic, pool warm or cold).
        assert_eq!(
            r.recycler_cached_bytes,
            r.recycler_cached_blocks * outset::recycle::block_bytes(),
            "cached bytes must be cached blocks x block size"
        );
    }

    #[test]
    fn raw_counter_both_kinds_run() {
        let d = raw_counter_bench(RawCounter::FetchAdd, 2, 10_000);
        assert!(d.as_nanos() > 0);
        let d = raw_counter_bench(RawCounter::FixedSnzi { depth: 3 }, 2, 10_000);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn dummy_work_scales_roughly_linearly() {
        // Best-of-5 to ride out scheduler noise (this also runs in debug
        // builds on loaded CI machines); the bound is deliberately loose.
        let best = |units: u64| {
            (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    dummy_work(units);
                    t0.elapsed()
                })
                .min()
                .unwrap()
        };
        let t1 = best(2_000_000);
        let t8 = best(16_000_000);
        assert!(t8 > t1 * 3, "8x work should take >3x time: {t1:?} vs {t8:?}");
    }

    #[test]
    fn ops_formulas() {
        assert_eq!(fanin_ops(1), 1);
        assert_eq!(fanin_ops(2), 3);
        assert_eq!(indegree2_ops(2), 4);
        assert_eq!(indegree2_ops(8), 28);
    }
}
