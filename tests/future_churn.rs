//! Future churn: a million futures (in release builds) through the real
//! runtime, with two end-to-end claims checked once the run quiesces:
//!
//! 1. **Exactly once** — every touch of every future runs its
//!    continuation exactly once.
//! 2. **Block conservation** — every slot block an out-set allocated
//!    (`outset.blocks_allocated`) is freed (`outset.blocks_dropped`):
//!    by its out-set's `Drop`, or at once when it lost an install race.
//!    A violation is a leak or a double-free, caught by arithmetic
//!    instead of valgrind.
//!
//! The counter-based conservation check is skipped under
//! `--no-default-features` (telemetry compiled out); the exactly-once
//! count holds in both modes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dynsnzi::prelude::*;

/// One future-churn chain: create a future, touch it, and continue from
/// the touch continuation — so at any instant the chain keeps at most a
/// couple of futures (hence blocks) alive, while total churn is `len`.
fn chain(c: Ctx<'_, DynSnzi>, remaining: u64, touched: Arc<AtomicU64>) {
    if remaining == 0 {
        return;
    }
    let mut c = c;
    let f = c.future(move |_| remaining);
    c.touch(&f, move |c2, v| {
        assert_eq!(*v, remaining, "touch observed the wrong stage value");
        touched.fetch_add(1, Ordering::Relaxed);
        chain(c2, remaining - 1, touched);
    });
}

/// One round: `chains` parallel churn chains of depth `len` on a real
/// worker pool. Returns the number of touches that ran.
fn churn_round(workers: usize, chains: u64, len: u64) -> u64 {
    let touched = Arc::new(AtomicU64::new(0));
    let t = Arc::clone(&touched);
    Runtime::new().workers(workers).run(move |ctx| {
        let mut scope = ctx.into_scope();
        for _ in 0..chains {
            let t = Arc::clone(&t);
            scope.fork(move |c| chain(c, len, t));
        }
    });
    touched.load(Ordering::Relaxed)
}

#[test]
fn million_future_churn_is_conserved() {
    // ~1M futures in release (32 rounds × 64 chains × 512), scaled down
    // in debug builds where the point is coverage, not volume. Chain
    // depth stays modest: a touch on an already-completed future runs
    // its continuation inline, so `len` bounds real stack depth.
    let (rounds, chains, len, workers) =
        if cfg!(debug_assertions) { (6, 16u64, 128u64, 4) } else { (32, 64u64, 512u64, 4) };

    let before = obs::Snapshot::take();
    for _ in 0..rounds {
        assert_eq!(churn_round(workers, chains, len), chains * len, "every touch exactly once");
    }

    if obs::enabled() {
        // Every out-set died inside its run: the boundary is quiescent,
        // so every block allocated has been freed.
        let d = obs::Snapshot::take().diff(&before);
        let (allocated, dropped) =
            (d.counter("outset.blocks_allocated"), d.counter("outset.blocks_dropped"));
        assert!(allocated > 0, "the churn must allocate blocks");
        assert_eq!(
            allocated, dropped,
            "block leak or double-free: allocated {allocated} != dropped {dropped}"
        );
    }
}
