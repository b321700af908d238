//! Vertex/continuation recycling under real interleavings: random
//! series-parallel programs — spawns, chains, scope forks and
//! future/touch edges — executed on real worker pools, checked against
//! the accounting discipline of `sched::recycle`:
//!
//! 1. **Conservation** — at quiescence every vertex (and every pooled
//!    refcount header) born is accounted dead exactly once:
//!    `allocated + reused == recycled + dropped`. A violation is a leak
//!    or a double-free caught by arithmetic.
//! 2. **Off-ladder route** — objects too big for the class ladder take
//!    the plain allocator on both ends (`alloc == dropped`, no reuse),
//!    with pooled objects alongside them untouched.
//! 3. **Steady state** — once a few runs have filled the pools to the
//!    peak-live high-water mark, further identical runs stop minting
//!    fresh vertices and live on reuse.
//! 4. **Inline bodies** — closures within the inline size class never
//!    box; oversized captures fall back to the boxed path.
//!
//! Counter-based asserts are skipped under `--no-default-features`
//! (telemetry compiled out); the exactly-once execution checks and the
//! trim/footprint gauge checks hold in both modes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use dynsnzi::prelude::*;
use proptest::prelude::*;
use sched::{recycle, PoolArc};

/// Every test reads process-global recycler gauges and counters:
/// serialize them.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A random structured program exercising every vertex-allocating path:
/// binary spawn, serial chain, multi-async scope forks, and a
/// future/touch dynamic edge (whose continuation body runs the rest).
#[derive(Debug, Clone)]
enum Prog {
    Leaf,
    Spawn(Box<Prog>, Box<Prog>),
    Chain(Box<Prog>, Box<Prog>),
    Fork(u8, Box<Prog>),
    Future(Box<Prog>),
}

impl Prog {
    /// Number of `hits` the program records when executed.
    fn hits(&self) -> u64 {
        match self {
            Prog::Leaf => 1,
            Prog::Spawn(a, b) | Prog::Chain(a, b) => a.hits() + b.hits(),
            Prog::Fork(k, a) => u64::from(*k) + a.hits(),
            Prog::Future(a) => 1 + a.hits(),
        }
    }
}

fn prog_strategy() -> impl Strategy<Value = Prog> {
    let leaf = Just(Prog::Leaf);
    leaf.prop_recursive(4, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Prog::Spawn(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Prog::Chain(Box::new(a), Box::new(b))),
            (1u8..4, inner.clone()).prop_map(|(k, a)| Prog::Fork(k, Box::new(a))),
            inner.prop_map(|a| Prog::Future(Box::new(a))),
        ]
    })
}

fn exec(ctx: Ctx<'_, DynSnzi>, prog: Prog, hits: Arc<AtomicU64>) {
    match prog {
        Prog::Leaf => {
            hits.fetch_add(1, Ordering::Relaxed);
        }
        Prog::Spawn(a, b) => {
            let (h1, h2) = (Arc::clone(&hits), hits);
            ctx.spawn(move |c| exec(c, *a, h1), move |c| exec(c, *b, h2));
        }
        Prog::Chain(a, b) => {
            let (h1, h2) = (Arc::clone(&hits), hits);
            ctx.chain(move |c| exec(c, *a, h1), move |c| exec(c, *b, h2));
        }
        Prog::Fork(k, a) => {
            let mut scope = ctx.into_scope();
            for _ in 0..k {
                let h = Arc::clone(&hits);
                scope.fork(move |_| {
                    h.fetch_add(1, Ordering::Relaxed);
                });
            }
            exec(scope.into_ctx(), *a, hits);
        }
        Prog::Future(a) => {
            let mut c = ctx;
            let f = c.future(move |_| 7u64);
            c.touch(&f, move |c2, v| {
                assert_eq!(*v, 7, "future value corrupted");
                hits.fetch_add(1, Ordering::Relaxed);
                exec(c2, *a, hits);
            });
        }
    }
}

/// Execute `prog` on a real pool, then check exactly-once execution plus
/// the conservation identities over the run's counter deltas.
fn run_and_check(workers: usize, prog: &Prog) {
    let _guard = lock();
    let before = Snapshot::take();
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    let p = prog.clone();
    run_dag::<DynSnzi, _>(DynConfig::default(), workers, move |ctx| exec(ctx, p, h));
    let d = Snapshot::take().diff(&before);
    assert_eq!(hits.load(Ordering::Relaxed), prog.hits(), "every body exactly once");
    if !obs::enabled() {
        return;
    }
    for kind in ["vertex", "poolarc"] {
        let born =
            d.counter(&format!("sched.{kind}_alloc")) + d.counter(&format!("sched.{kind}_reuse"));
        let dead = d.counter(&format!("sched.{kind}_recycled"))
            + d.counter(&format!("sched.{kind}_dropped"));
        assert_eq!(born, dead, "{kind} leak or double-account: born {born} != dead {dead}");
    }
    assert!(d.counter("sched.vertex_alloc") + d.counter("sched.vertex_reuse") > 0, "dag ran");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn random_programs_conserve_with_recycling(prog in prog_strategy(), workers in 1usize..4) {
        run_and_check(workers, &prog);
    }
}

/// A fixed spawn-tree churn round: `2^depth` leaves, every vertex body
/// within the inline size class.
fn churn_round(workers: usize, depth: u64) -> u64 {
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    fn tree(ctx: Ctx<'_, DynSnzi>, depth: u64, hits: Arc<AtomicU64>) {
        if depth == 0 {
            hits.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let h2 = Arc::clone(&hits);
        ctx.spawn(move |c| tree(c, depth - 1, hits), move |c| tree(c, depth - 1, h2));
    }
    run_dag::<DynSnzi, _>(DynConfig::default(), workers, move |ctx| tree(ctx, depth, h));
    hits.load(Ordering::Relaxed)
}

#[test]
fn warm_runs_stop_minting_vertices() {
    let _guard = lock();
    // Warm phase: the pools converge to the high-water mark of
    // simultaneously-live slabs; one run's peak is a noisy draw, so take
    // several before claiming steady state.
    for _ in 0..4 {
        assert_eq!(churn_round(4, 10), 1 << 10);
    }
    let before = Snapshot::take();
    assert_eq!(churn_round(4, 10), 1 << 10);
    let d = Snapshot::take().diff(&before);
    if obs::enabled() {
        let (alloc, reuse) = (d.counter("sched.vertex_alloc"), d.counter("sched.vertex_reuse"));
        // O(peak-live jitter) fresh mints at most, never O(churn).
        assert!(alloc <= 64, "warm run minted {alloc} fresh vertices (reused {reuse})");
        assert!(reuse > alloc, "steady state must be reuse-dominated: {reuse} vs {alloc}");
    }
}

#[test]
fn inline_class_inlines_and_oversize_boxes() {
    let _guard = lock();
    if !obs::enabled() {
        return;
    }
    let before = Snapshot::take();
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    run_dag::<DynSnzi, _>(DynConfig::default(), 2, move |ctx| {
        let big = [1u8; 64]; // over the inline class: must box
        let h2 = Arc::clone(&h);
        ctx.spawn(
            move |_| {
                h.fetch_add(u64::from(big[0]), Ordering::Relaxed);
            },
            move |_| {
                h2.fetch_add(1, Ordering::Relaxed); // 8-byte capture: must inline
            },
        );
    });
    let d = Snapshot::take().diff(&before);
    assert_eq!(hits.load(Ordering::Relaxed), 2);
    assert!(d.counter("spdag.body_boxed") >= 1, "64-byte capture must take the boxed path");
    assert!(d.counter("spdag.body_inline") >= 1, "small capture must take the inline path");
}

/// Assert the off-ladder accounting of `kind` over `d`: `born` objects,
/// every one plainly allocated and plainly freed.
fn assert_off_ladder(d: &Snapshot, kind: &str, born: u64) {
    let get = |what: &str| d.counter(&format!("sched.{kind}_{what}"));
    assert_eq!(
        (get("alloc"), get("dropped"), get("reuse"), get("recycled")),
        (born, born, 0, 0),
        "{kind}: off-ladder objects must be allocated and dropped, never pooled"
    );
}

#[test]
fn off_ladder_objects_use_the_allocator() {
    let _guard = lock();
    const ARCS: u64 = 8;
    const STRANDS: u64 = 16;
    for workers in [1usize, 2] {
        // A `PoolArc` whose header is over the 1024 B top class, shared
        // with `workers` threads that read it and drop their clones.
        let before = Snapshot::take();
        let arcs: Vec<PoolArc<[u8; 2048]>> =
            (0..ARCS).map(|i| PoolArc::new([i as u8; 2048])).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                let mine = arcs.clone();
                s.spawn(move || {
                    for (i, a) in mine.iter().enumerate() {
                        assert!(a.iter().all(|&b| b == i as u8), "shared value corrupted");
                    }
                });
            }
        });
        drop(arcs);
        let arc_d = Snapshot::take().diff(&before);

        // Strands whose state is over 1024 B: spilled behind a pointer to
        // a plain allocation that must survive a park.
        let before = Snapshot::take();
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        run_dag::<DynSnzi, _>(DynConfig::default(), workers, move |mut ctx| {
            let f = ctx.future(|_| 1u64);
            for i in 0..STRANDS {
                let (f, h) = (f.clone(), Arc::clone(&h));
                let state = [i as u8; 1100];
                ctx.fork_strand(move |c: &mut Ctx<'_, DynSnzi>| {
                    let v = *strand_await!(c, &f);
                    assert!(state.iter().all(|&b| b == i as u8), "spilled state corrupted");
                    h.fetch_add(v, Ordering::Relaxed);
                    StrandPoll::Done(())
                });
            }
        });
        let strand_d = Snapshot::take().diff(&before);
        assert_eq!(
            hits.load(Ordering::Relaxed),
            STRANDS,
            "every strand exactly once (W={workers})"
        );
        if obs::enabled() {
            assert_off_ladder(&arc_d, "poolarc", ARCS);
            assert_off_ladder(&strand_d, "strand", STRANDS);
            assert_eq!(strand_d.counter("spdag.strand_spilled"), STRANDS);
        }
    }
}

#[test]
fn trim_empties_the_class_pools() {
    let _guard = lock();
    assert_eq!(churn_round(2, 8), 1 << 8);
    // Workers flushed their caches at pool teardown; flush this thread's
    // share, then trim must leave the class pools empty.
    recycle::flush_thread_cache();
    let freed = recycle::trim();
    assert_eq!(
        recycle::cached_slabs(),
        0,
        "trim left {} slabs cached after freeing {freed}",
        recycle::cached_slabs()
    );
}
