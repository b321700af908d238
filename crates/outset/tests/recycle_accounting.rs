//! Gauge-exact accounting for the block recycler.
//!
//! These tests assert on the *global* recycler state — the cached-block
//! gauge, the overflow counter, and (when telemetry is compiled in) the
//! `outset.blocks_*` conservation identity — so they serialize on one
//! lock: every test here drains the pool to a known-empty state first,
//! and nothing else in this binary touches out-sets. (The concurrency
//! battery, which cannot make exact global claims, lives in
//! `recycle_races.rs` — a separate process.)

use std::sync::{Mutex, MutexGuard};

use outset::tree::TreeOutsetObj;
use outset::{recycle, GrowthPolicy};

/// Slots per block, mirrored from `outset::growth` (not public).
const BLOCK_SLOTS: u64 = 32;

static LOCK: Mutex<()> = Mutex::new(());

/// Serialize and normalize: flush this thread's cache, return every
/// pooled block to the allocator, and verify the recycler reads empty.
fn isolated() -> MutexGuard<'static, ()> {
    let guard = match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    recycle::flush_thread_cache();
    recycle::trim();
    assert_eq!(recycle::cached_blocks(), 0, "pool must start empty (single-threaded binary)");
    guard
}

/// A growable (hence recycling) out-set filled with exactly `blocks`
/// blocks on one lane, finished (scheduling the chain's retirement) and
/// drained (pushing the blocks into this thread's cache).
fn churn_one(blocks: u64, token_base: u64) -> Vec<u64> {
    let set = TreeOutsetObj::with_policy(1, GrowthPolicy::eager(2));
    let n = blocks * BLOCK_SLOTS;
    for t in 0..n {
        let _ = set.add(token_base + t, 0);
    }
    assert_eq!(set.block_count(), blocks as usize);
    let mut got = Vec::new();
    assert!(set.finish(&mut |t| got.push(t)));
    assert_eq!(set.blocks_retired(), blocks as usize);
    assert!(set.drain_retired(), "quiescent: retirement must complete");
    got
}

#[test]
fn retired_blocks_land_in_the_recycler_and_are_reused() {
    let _guard = isolated();
    let got = churn_one(3, 0);
    assert_eq!(got.len(), 3 * BLOCK_SLOTS as usize);
    assert_eq!(recycle::cached_blocks(), 3, "the swept chain is cached, block for block");
    assert_eq!(recycle::cached_bytes(), 3 * recycle::block_bytes());

    // A successor out-set's first blocks must come from the cache…
    let set = TreeOutsetObj::with_policy(1, GrowthPolicy::eager(2));
    let _ = set.add(1000, 0);
    assert_eq!(recycle::cached_blocks(), 2, "first install reuses a cached block");
    for t in 0..(2 * BLOCK_SLOTS) {
        let _ = set.add(1001 + t, 0);
    }
    assert_eq!(recycle::cached_blocks(), 0, "steady churn drains the cache before allocating");
    // …and once the cache is dry, allocation falls back to fresh boxes.
    for t in 0..BLOCK_SLOTS {
        let _ = set.add(2000 + t, 0);
    }
    let mut got = Vec::new();
    assert!(set.finish(&mut |t| got.push(t)));
    assert_eq!(got.len(), 1 + 3 * BLOCK_SLOTS as usize, "97 adds span four blocks");
    assert!(set.drain_retired());
    assert_eq!(recycle::cached_blocks(), 4, "reused and fresh blocks all retire alike");
    assert_eq!(recycle::trim(), 0, "blocks sit in the thread cache until flushed");
    recycle::flush_thread_cache();
    assert_eq!(recycle::trim(), 4, "trim returns the whole free list to the allocator");
    assert_eq!(recycle::cached_blocks(), 0);
}

#[test]
fn worker_cache_overflows_to_the_global_pool() {
    let _guard = isolated();
    // Retire well past the per-thread cache bound in one go: the excess
    // must spill to the global list rather than grow the cache.
    let blocks = 48u64;
    let before = recycle::overflowed_blocks();
    churn_one(blocks, 100_000);
    assert_eq!(recycle::cached_blocks(), blocks as usize, "spilled blocks stay recycled");
    let spilled = recycle::overflowed_blocks() - before;
    assert!(spilled > 0, "48 retirements must overflow a 32-block cache");
    // Spilled blocks are on the global list already — visible to trim
    // without a flush.
    assert_eq!(recycle::trim(), spilled as usize);
    recycle::flush_thread_cache();
    assert_eq!(recycle::trim(), blocks as usize - spilled as usize);
}

#[test]
fn fixed_lane_sets_keep_the_drop_path() {
    let _guard = isolated();
    // A fixed-lane out-set is frozen: no epoch domain, so no retirement.
    let set = TreeOutsetObj::with_lanes(1);
    for t in 0..(2 * BLOCK_SLOTS) {
        let _ = set.add(t, 0);
    }
    let mut n = 0u64;
    assert!(set.finish(&mut |_| n += 1));
    assert_eq!(n, 2 * BLOCK_SLOTS);
    assert_eq!(set.blocks_retired(), 0);
    assert_eq!(set.block_count(), 2, "a frozen set's chain stays until Drop");
    drop(set);
    assert_eq!(recycle::cached_blocks(), 0, "dropped blocks go to the allocator, not the pool");
}

#[test]
fn conservation_identity_holds_at_quiescence() {
    // The ROADMAP leak check, in miniature: after churning many
    // out-sets to quiescence, every block born (fresh or reused) is
    // accounted dead (recycled or dropped), and the recycler gauge
    // matches the counter flows. Skipped without telemetry — the
    // counters are no-ops there; `tests/recycle_stress.rs` covers the
    // gauge-only story in that mode.
    if !obs::enabled() {
        return;
    }
    let _guard = isolated();
    let before = obs::Snapshot::take();
    for round in 0..20u64 {
        churn_one(2 + round % 3, round * 10_000);
    }
    // One non-recycling (frozen) out-set exercises the dropped flow.
    let frozen = TreeOutsetObj::with_lanes(1);
    for t in 0..BLOCK_SLOTS {
        let _ = frozen.add(t, 0);
    }
    frozen.finish(&mut |_| {});
    drop(frozen);
    let d = obs::Snapshot::take().diff(&before);
    let born = d.counter("outset.blocks_allocated") + d.counter("outset.blocks_reused");
    let dead = d.counter("outset.blocks_recycled") + d.counter("outset.blocks_dropped");
    assert_eq!(born, dead, "no live blocks remain, so births must equal deaths");
    assert!(d.counter("outset.blocks_reused") > 0, "steady churn must actually reuse");
    assert_eq!(
        recycle::cached_blocks() as u64,
        d.counter("outset.blocks_recycled")
            - d.counter("outset.blocks_reused")
            - d.counter("outset.blocks_trimmed"),
        "the recycler holds exactly the retired-not-reused-not-trimmed blocks"
    );
    recycle::flush_thread_cache();
    recycle::trim();
}
