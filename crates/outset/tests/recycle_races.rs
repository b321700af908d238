//! Reclamation-race battery for the block recycler.
//!
//! Recycling turns the add/finish race into an add ∥ grow ∥ finish ∥
//! recycle ∥ realloc pentagon: while adders are claiming and publishing,
//! the sweep may unlink their block, retire it through the epoch domain,
//! and a *different* out-set may re-allocate the same memory — possibly
//! installing it at the same lane index the adder is still staring at
//! (the ABA shape). These tests drive that pentagon with real threads
//! and disjoint token ranges per out-set, so any stale delivery — a
//! token surfacing in the wrong set, twice, or never — fails an exact
//! set-equality assert. The poison/generation stamps (`debug_assert`s in
//! the retire/reset paths, active in this build) vouch for the
//! complementary property: nobody writes into a block while it is free.
//!
//! Gauge-exact accounting lives in `recycle_accounting.rs` (serialized);
//! these tests only assert delivery semantics, so they can race each
//! other freely.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use outset::tree::TreeOutsetObj;
use outset::{AddEdge, GrowthPolicy};
use proptest::prelude::*;
use snzi::Probability;

/// Slots per block, mirrored from `outset::growth` (not public).
const BLOCK_SLOTS: u64 = 32;

/// Drain one out-set's scheduled retirements so a successor can realloc
/// its blocks (best effort: a still-pinned racer may defer it further).
fn drain(set: &TreeOutsetObj) {
    set.drain_retired();
}

/// Deliveries for one out-set: `swept` from its unique finish, `inline`
/// from bounced adds. Exactly-once means their union equals the add set.
fn assert_exactly_once(name: &str, swept: Vec<u64>, inline: Vec<u64>, expect: Vec<u64>) {
    let mut all = swept;
    all.extend(inline);
    all.sort_unstable();
    let mut expect = expect;
    expect.sort_unstable();
    assert_eq!(all, expect, "{name}: every token exactly once, none stale");
}

/// The pentagon driver: `threads` adders churn through a *sequence* of
/// out-sets with disjoint token ranges. The main thread finishes set `g`
/// mid-race (recycling its blocks) while adders — detecting the seal via
/// their bounced adds — move on to set `g+1`, whose allocation prefers
/// exactly those recycled blocks. `lanes`/`policy` shape the concurrent
/// growth dimension.
fn drive_pentagon(
    threads: usize,
    adds_per_set: u64,
    sets: usize,
    initial_lanes: usize,
    policy: GrowthPolicy,
    finish_frac: u64,
) {
    let outsets: Vec<Arc<TreeOutsetObj>> =
        (0..sets).map(|_| Arc::new(TreeOutsetObj::with_policy(initial_lanes, policy))).collect();
    let barrier = Arc::new(Barrier::new(threads + 1));
    let done = Arc::new(AtomicU64::new(0)); // adds completed on the current set
    let inline: Vec<Arc<Mutex<Vec<u64>>>> =
        (0..sets).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
    let range = |g: usize| {
        let base = g as u64 * threads as u64 * adds_per_set;
        base..base + threads as u64 * adds_per_set
    };
    let swept: Vec<Vec<u64>> = std::thread::scope(|scope| {
        for tid in 0..threads {
            let outsets = outsets.clone();
            let barrier = Arc::clone(&barrier);
            let done = Arc::clone(&done);
            let inline = inline.clone();
            scope.spawn(move || {
                barrier.wait();
                for (g, set) in outsets.iter().enumerate() {
                    let mut mine = Vec::new();
                    let base = range(g).start + tid as u64 * adds_per_set;
                    for i in 0..adds_per_set {
                        if let AddEdge::Finished(t) = set.add(base + i, tid as u64) {
                            mine.push(t);
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    inline[g].lock().unwrap().extend(mine);
                    // Next iteration reallocates from this set's recycled
                    // blocks once the main thread finishes it.
                }
            });
        }
        barrier.wait();
        let total = threads as u64 * adds_per_set;
        let mut all_swept = Vec::new();
        for (g, set) in outsets.iter().enumerate() {
            // Seal mid-race: after finish_frac% of this set's adds.
            let target = g as u64 * total + total * finish_frac / 100;
            while done.load(Ordering::Relaxed) < target {
                std::hint::spin_loop();
            }
            let mut swept = Vec::new();
            assert!(set.finish(&mut |t| swept.push(t)));
            // Recycle eagerly so the *next* set's installs race reuse.
            drain(set);
            all_swept.push(swept);
        }
        all_swept
    });
    for (g, swept) in swept.into_iter().enumerate() {
        let inline = std::mem::take(&mut *inline[g].lock().unwrap());
        for &t in swept.iter().chain(&inline) {
            assert!(range(g).contains(&t), "token {t} leaked across out-set generations");
        }
        assert_exactly_once(&format!("set {g}"), swept, inline, range(g).collect());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    // add ∥ grow ∥ finish ∥ recycle ∥ realloc over strategy-chosen
    // shapes: thread count, churn depth, growth policy, and where in
    // the add stream the seal lands.
    #[test]
    fn pentagon_interleavings(
        threads in 1usize..5,
        adds in 1u64..300,
        sets in 2usize..5,
        initial in 1usize..3,
        p_percent in prop_oneof![Just(0u64), Just(50), Just(100)],
        max_lanes in 2usize..9,
        finish_frac in 0u64..100,
    ) {
        let policy = GrowthPolicy::new(
            Probability::from_f64(p_percent as f64 / 100.0),
            max_lanes,
        );
        drive_pentagon(threads, adds, sets, initial, policy, finish_frac);
    }
}

/// The ABA regression shape, deterministically: a 1-lane out-set's block
/// is recycled and then re-installed at the *same* lane index of a
/// successor out-set, over many generations, while racing adders hammer
/// both. Before the pin-across-publish fix this is exactly the
/// interleaving that could cross-link two out-sets through a stale head
/// CAS; with it, every generation must still deliver exactly once.
#[test]
fn aba_recycled_block_reinstalled_at_same_lane() {
    const ROUNDS: usize = if cfg!(debug_assertions) { 60 } else { 200 };
    const THREADS: usize = 3;
    const ADDS: u64 = 2 * BLOCK_SLOTS + 7; // > 2 blocks per generation
    for round in 0..ROUNDS {
        // Effectively single-lane but still *growable* (recycling rides
        // the domain only growable sets own): a vanishingly small split
        // coin with cap 2, so lane 0 — where the recycled block gets
        // re-installed each round — keeps its index even if a split
        // sneaks in.
        let policy = GrowthPolicy::new(Probability::one_over(1 << 20), 2);
        let set = Arc::new(TreeOutsetObj::with_policy(1, policy));
        let barrier = Barrier::new(THREADS + 1);
        let inline = Mutex::new(Vec::new());
        let swept = std::thread::scope(|scope| {
            for tid in 0..THREADS {
                let set = &set;
                let barrier = &barrier;
                let inline = &inline;
                scope.spawn(move || {
                    barrier.wait();
                    let mut mine = Vec::new();
                    let base = tid as u64 * ADDS;
                    for i in 0..ADDS {
                        // key 0: every adder fights over lane 0, the
                        // same index a recycled block gets re-installed
                        // at in the next round.
                        if let AddEdge::Finished(t) = set.add(base + i, 0) {
                            mine.push(t);
                        }
                    }
                    inline.lock().unwrap().extend(mine);
                });
            }
            barrier.wait();
            // Seal immediately: maximize seal ∥ install ∥ reuse overlap.
            let mut swept = Vec::new();
            assert!(set.finish(&mut |t| swept.push(t)));
            swept
        });
        // All adders done: retirements can drain, so the next round's
        // lane-0 install reuses this round's lane-0 blocks.
        drain(&set);
        let inline = inline.into_inner().unwrap();
        assert_exactly_once(
            &format!("aba round {round}"),
            swept,
            inline,
            (0..THREADS as u64 * ADDS).collect(),
        );
    }
}

/// Cross-generation sweep determinism under recycling: tokens are
/// claimed through several lane-table generations (forced splits) with
/// the blocks themselves coming from the recycler, and the single sweep
/// must deliver every token exactly once — the lane-sharing invariant
/// must survive blocks that have lived previous lives.
#[test]
fn cross_generation_sweep_is_deterministic_with_reused_blocks() {
    // Warm the recycler with one full out-set's worth of blocks.
    let warm = TreeOutsetObj::with_policy(1, GrowthPolicy::eager(16));
    for t in 0..(8 * BLOCK_SLOTS) {
        let _ = warm.add(t, t);
    }
    warm.finish(&mut |_| {});
    drain(&warm);

    for round in 0..10u64 {
        let set = TreeOutsetObj::with_policy(1, GrowthPolicy::eager(16));
        let base = 10_000 * (round + 1);
        let mut expect = Vec::new();
        let mut token = base;
        for generation in 0..4 {
            for k in 0..(2 * BLOCK_SLOTS) {
                assert_eq!(set.add(token, k), AddEdge::Registered);
                expect.push(token);
                token += 1;
            }
            if generation < 3 {
                assert!(set.force_split());
            }
        }
        assert_eq!(set.lane_count(), 8);
        let mut got = Vec::new();
        assert!(set.finish(&mut |t| got.push(t)));
        got.sort_unstable();
        assert_eq!(got, expect, "round {round}: all generations, exactly once, nothing stale");
        assert_eq!(set.block_count(), 0, "the sweep retired every block it visited");
        assert!(set.blocks_retired() >= expect.len() / BLOCK_SLOTS as usize);
        drain(&set);
    }
}

/// Poison integrity across threads: two out-sets alternate lives on the
/// same recycled blocks while adders race, with token ranges chosen so
/// any cross-life slot residue would surface as an out-of-range or
/// duplicated token. (The generation-stamp asserts fire inside
/// retire/reset in this build; this test gives them traffic under
/// contention rather than single-threaded reuse.)
#[test]
fn no_stale_tokens_across_reuse_under_contention() {
    const ROUNDS: usize = if cfg!(debug_assertions) { 40 } else { 120 };
    const THREADS: usize = 4;
    const ADDS: u64 = 96;
    for round in 0..ROUNDS as u64 {
        drive_pentagon(
            THREADS,
            ADDS,
            2,
            1,
            GrowthPolicy::new(Probability::from_f64(0.5), 8),
            (round * 13) % 100,
        );
    }
}
