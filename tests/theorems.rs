//! Empirical checks of the paper's analysis (Section 4), using the SNZI
//! trees' own instrumentation — per-tree statistics in every build, and
//! per-node touch counters that count only with telemetry compiled in
//! (the touch-only tests are ignored without it):
//!
//! * **Corollary 4.7** — with growth probability 1, no increment invokes
//!   more than 3 arrive operations on the SNZI tree.
//! * **Theorem 4.9** — the number of operations that ever touch a single
//!   SNZI node is constant (independent of the computation size). Our
//!   per-node counters record successful CASes, of which one *operation*
//!   performs at most two (a ½-install plus its completion), and the root
//!   additionally absorbs indicator/announce maintenance — so the
//!   asserted constant is 16 *steps*, a conservative upper bound for the
//!   paper's 6 *operations*. The point of the test is that the bound does
//!   not grow with n.
//! * **Negative control** — with growth probability 0 the precondition of
//!   the theorems fails, and the per-node bound must blow up linearly.
//!   This shows the instrumentation actually measures what it claims.
//!
//! The in-counter discipline (Figure 5) is driven directly here — the same
//! spawn/signal handle dance `spdag` performs — so the trees stay
//! reachable for profiling.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use incounter::{CounterFamily, DecPair, DynConfig, DynSnzi};
use snzi::SnziTree;

/// A simulated dag vertex of the in-counter discipline.
#[derive(Clone)]
struct SimV {
    inc: snzi::Handle,
    pair: Arc<DecPair<snzi::Handle>>,
    is_left: bool,
}

fn root_vertex(tree: &SnziTree) -> SimV {
    let d = tree.root_handle();
    SimV { inc: d, pair: Arc::new(DecPair::new(d, d)), is_left: true }
}

fn sim_spawn(cfg: &DynConfig, tree: &SnziTree, u: &SimV) -> (SimV, SimV) {
    let (d2, i1, i2) =
        unsafe { DynSnzi::increment(cfg, tree, u.inc, u.is_left, u.inc.addr() as u64) };
    let d1 = u.pair.claim();
    let pair = Arc::new(DecPair::new(d1, d2));
    (
        SimV { inc: i1, pair: Arc::clone(&pair), is_left: true },
        SimV { inc: i2, pair, is_left: false },
    )
}

fn sim_signal(tree: &SnziTree, u: &SimV) -> bool {
    let d = u.pair.claim();
    unsafe { DynSnzi::decrement(tree, d) }
}

/// Expand a balanced spawn tree of the given depth sequentially, returning
/// the leaves.
fn expand_seq(cfg: &DynConfig, tree: &SnziTree, root: SimV, depth: u32) -> Vec<SimV> {
    let mut frontier = vec![root];
    for _ in 0..depth {
        let mut next = Vec::with_capacity(frontier.len() * 2);
        for u in &frontier {
            let (v, w) = sim_spawn(cfg, tree, u);
            next.push(v);
            next.push(w);
        }
        frontier = next;
    }
    frontier
}

#[test]
fn corollary_4_7_arrive_chains_bounded_by_three() {
    let cfg = DynConfig::always_grow();
    for depth in [2u32, 6, 10, 12] {
        let mut tree = DynSnzi::make(&cfg, 1);
        let root = root_vertex(&tree);
        let leaves = expand_seq(&cfg, &tree, root, depth);
        let mut endings = 0;
        for leaf in &leaves {
            if sim_signal(&tree, leaf) {
                endings += 1;
            }
        }
        assert_eq!(endings, 1, "exactly-once readiness at depth {depth}");
        let stats = tree.stats();
        assert!(
            stats.max_arrive_chain <= 3,
            "depth {depth}: arrive chain {} exceeds Corollary 4.7's bound of 3",
            stats.max_arrive_chain
        );
        // The tree must actually have grown (p = 1: one install per spawn).
        let spawns = (1u64 << depth) - 1;
        assert_eq!(stats.grow_installs, spawns, "depth {depth}");
        let _ = tree.contention_profile();
    }
}

#[test]
#[cfg_attr(not(feature = "telemetry"), ignore = "per-node touches count only with telemetry")]
fn theorem_4_9_per_node_touches_constant_in_n() {
    let cfg = DynConfig::always_grow();
    let mut observed = Vec::new();
    for depth in [4u32, 8, 12] {
        let mut tree = DynSnzi::make(&cfg, 1);
        let root = root_vertex(&tree);
        let leaves = expand_seq(&cfg, &tree, root, depth);
        for leaf in &leaves {
            sim_signal(&tree, leaf);
        }
        let profile = tree.contention_profile();
        assert!(
            profile.max_touch <= 16,
            "depth {depth}: max per-node steps {} exceeds the O(1) bound",
            profile.max_touch
        );
        observed.push((1u64 << depth, profile.max_touch));
    }
    // The bound must not grow with n — the substance of Theorem 4.9.
    let maxes: Vec<u64> = observed.iter().map(|&(_, m)| m).collect();
    let spread = maxes.iter().max().unwrap() - maxes.iter().min().unwrap();
    assert!(spread <= 4, "per-node touch bound should be size-invariant, got {observed:?}");
}

#[test]
#[cfg_attr(not(feature = "telemetry"), ignore = "per-node touches count only with telemetry")]
fn negative_control_p0_concentrates_touches() {
    // With growth disabled the theorems' precondition fails: every
    // operation lands on the root and its touch count grows linearly.
    let cfg = DynConfig::never_grow();
    let depth = 10u32;
    let n = 1u64 << depth;
    let mut tree = DynSnzi::make(&cfg, 1);
    let root = root_vertex(&tree);
    let leaves = expand_seq(&cfg, &tree, root, depth);
    for leaf in &leaves {
        sim_signal(&tree, leaf);
    }
    let profile = tree.contention_profile();
    assert_eq!(profile.nodes, 1, "never-grow tree stays a single root");
    assert!(
        profile.max_touch >= n,
        "without growth the root must absorb ~2n steps, saw {}",
        profile.max_touch
    );
}

#[test]
fn theorem_4_9_holds_under_parallel_expansion() {
    // The same discipline with real threads: a parallel top of the spawn
    // tree (8 threads), sequential below, leaves signalled by their own
    // thread. Exactly-once readiness and the per-node bound must survive
    // concurrency (the latter is checked only where touches are counted).
    let cfg = DynConfig::always_grow();
    let tree = Arc::new(DynSnzi::make(&cfg, 1));
    let endings = Arc::new(AtomicU64::new(0));

    fn go(
        cfg: &DynConfig,
        tree: &Arc<SnziTree>,
        endings: &Arc<AtomicU64>,
        u: SimV,
        par_depth: u32,
        seq_depth: u32,
    ) {
        if par_depth == 0 {
            for leaf in expand_seq(cfg, tree, u, seq_depth) {
                if sim_signal(tree, &leaf) {
                    endings.fetch_add(1, Ordering::Relaxed);
                }
            }
            return;
        }
        let (v, w) = sim_spawn(cfg, tree, &u);
        std::thread::scope(|s| {
            let (t1, e1) = (Arc::clone(tree), Arc::clone(endings));
            let (t2, e2) = (Arc::clone(tree), Arc::clone(endings));
            s.spawn(move || go(cfg, &t1, &e1, v, par_depth - 1, seq_depth));
            s.spawn(move || go(cfg, &t2, &e2, w, par_depth - 1, seq_depth));
        });
    }

    let root = root_vertex(&tree);
    go(&cfg, &tree, &endings, root, 3, 7);
    assert_eq!(endings.load(Ordering::Relaxed), 1, "exactly one readiness signal");
    let mut tree = Arc::try_unwrap(tree).ok().expect("all threads joined");
    assert!(!tree.query(), "all surplus drained");
    let stats = tree.stats();
    assert!(stats.max_arrive_chain <= 3, "Corollary 4.7 under concurrency");
    if obs::enabled() {
        let profile = tree.contention_profile();
        assert!(profile.max_touch <= 16, "Theorem 4.9 under concurrency: {}", profile.max_touch);
    }
}
