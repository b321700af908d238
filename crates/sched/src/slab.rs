//! Per-worker slab caches with a global overflow pool.
//!
//! The size-classed recycler ([`crate::recycle`]) wants allocator-free
//! steady state: a slab freed by one vertex should satisfy the next
//! vertex's allocation without touching `malloc`. Workers already carry
//! identity and a private RNG ([`crate::WorkerCtx`]); this module gives
//! each worker (thread) a bounded private cache of raw slabs per
//! [`SlabPool`], spilling to the pool's shared free list when the cache
//! overflows and refilling from it in batches when the cache runs dry.
//!
//! The pool is deliberately type-erased and size-agnostic (`*mut u8`):
//! callers own allocation, layout and re-initialization of their slabs,
//! so the pool never runs drop glue and never needs to know the slab
//! type or size.
//!
//! Because workers *are* threads in this pool (`sched::run` spawns one
//! scoped thread per worker), "per-worker cache" is realized as a
//! thread-local keyed by pool; [`crate::run`] flushes the running
//! thread's caches back to the shared lists at worker teardown
//! ([`flush_this_thread`]), and a thread-local destructor backstops
//! non-pool threads.
//!
//! A cache hit touches only thread-local state: the pool keeps no shared
//! count of its standby slabs. [`SlabPool::cached_slabs`] reads the
//! lists themselves instead — the shared list plus the calling thread's
//! cache — which is exact whenever no other thread holds a cache, i.e. at
//! quiescence after worker teardown.
//!
//! ## Address order
//!
//! The shared list is a min-heap by address, and a refill hands the
//! thread cache the lowest-addressed standby slabs, stacked so that the
//! cache pops them in ascending order. Spills and flushes go back into
//! the heap, so the order survives any interleaving of them. This is for
//! reuse locality: a wide fan-out births thousands of vertices, parks
//! them on one counter or out-set and retires them together. Handed back
//! LIFO, the next wave walks those slabs in the order the last spill
//! happened to leave them, scattered over the heap; handed back in
//! address order, it walks memory the way a fresh bump allocation would
//! (address-ordered free lists, Johnstone & Wilson, ISMM'98). On the
//! `fanout` benchmark the LIFO order cost ≈ 18 % of run time
//! (`docs/outset-contention.md`, "Address-ordered refill", has the
//! pairs). The same-thread cache stays LIFO: a slab released and
//! re-acquired without a refill in between comes straight back.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use parking_lot::Mutex;

/// A global free list of uniform raw slabs plus the registry of
/// per-thread caches in front of it. Designed to live in a `static`
/// (`new` is `const`).
pub struct SlabPool {
    /// Per-thread cache bound; overflow spills `cache_cap / 2` slabs to
    /// the shared list, refill pulls up to `cache_cap / 2` back.
    cache_cap: usize,
    /// Standby slabs, lowest address on top (module docs, "Address
    /// order").
    shared: Mutex<BinaryHeap<Reverse<*mut u8>>>,
}

// SAFETY: the raw pointers in `shared` are inert storage — the pool never
// dereferences them — and the caller's contract (release hands over
// exclusive ownership, acquire returns it) makes moving them across
// threads sound.
unsafe impl Send for SlabPool {}
unsafe impl Sync for SlabPool {}

impl SlabPool {
    /// A pool with per-thread caches bounded at `cache_cap` slabs.
    /// Const, so pools can be `static`.
    pub const fn new(cache_cap: usize) -> SlabPool {
        SlabPool { cache_cap, shared: Mutex::new(BinaryHeap::new()) }
    }

    /// Slabs on the shared list plus in the calling thread's cache.
    /// Caches of other live threads are not counted, so this is exact at
    /// quiescence (workers flush at teardown, exiting threads through the
    /// thread-local destructor); mid-run it is a racy snapshot that misses
    /// other threads' caches.
    pub fn cached_slabs(&self) -> usize {
        let mine = CACHES
            .try_with(|caches| {
                let caches = caches.borrow();
                caches
                    .caches
                    .iter()
                    .find(|(p, _)| std::ptr::eq(*p, self))
                    .map_or(0, |(_, c)| c.len())
            })
            .unwrap_or(0);
        self.shared.lock().len() + mine
    }

    /// Take one cached slab, preferring this thread's cache and
    /// refilling it from the shared list in one batch when dry — the
    /// lowest-addressed standby slabs, handed out ascending. `None`
    /// means the recycler is empty and the caller should allocate fresh.
    ///
    /// The returned slab is owned exclusively by the caller (it was
    /// handed over exactly once via [`release`](SlabPool::release)).
    pub fn acquire(&'static self) -> Option<*mut u8> {
        let got = with_cache(self, |slabs| {
            if slabs.is_empty() {
                let refill = (self.cache_cap / 2).max(1);
                let mut shared = self.shared.lock();
                slabs.extend(std::iter::from_fn(|| shared.pop()).take(refill).map(|Reverse(p)| p));
                // Popped ascending; reverse so the cache pops ascending too.
                slabs.reverse();
            }
            slabs.pop()
        });
        match got {
            Some(ptr) => ptr,
            // Thread-locals torn down (or cache unavailable): go straight
            // to the shared list.
            None => self.shared.lock().pop().map(|Reverse(p)| p),
        }
    }

    /// Hand one dead slab to the recycler. Ownership transfers to the
    /// pool until some [`acquire`](SlabPool::acquire) hands it out again
    /// (or [`trim`](SlabPool::trim) hands it back for freeing).
    pub fn release(&'static self, ptr: *mut u8) {
        let cached = with_cache(self, |slabs| {
            slabs.push(ptr);
            if slabs.len() > self.cache_cap {
                // Overflow: spill the oldest half in one lock acquisition.
                let spill = self.cache_cap / 2 + 1;
                self.shared.lock().extend(slabs.drain(..spill).map(Reverse));
            }
        });
        if cached.is_none() {
            // No thread cache (teardown): shared list directly.
            self.shared.lock().push(Reverse(ptr));
        }
    }

    /// Drain the **shared** list, handing each slab to `free` (which
    /// must actually release the memory — typically `Box::from_raw`
    /// after casting back to the real block type). Thread caches are not
    /// touched; flush them first for a full drain. Returns the number of
    /// slabs drained.
    pub fn trim(&self, mut free: impl FnMut(*mut u8)) -> usize {
        let drained = std::mem::take(&mut *self.shared.lock());
        let n = drained.len();
        for Reverse(ptr) in drained {
            free(ptr);
        }
        n
    }

    /// Move this thread's cache for this pool (if any) onto the shared
    /// list, so another thread — or [`trim`](SlabPool::trim) — can see
    /// those slabs.
    pub fn flush_thread_cache(&'static self) {
        with_cache(self, |slabs| self.put_back(slabs));
    }

    /// Move every slab of a thread cache onto the shared list.
    fn put_back(&self, slabs: &mut Vec<*mut u8>) {
        if !slabs.is_empty() {
            self.shared.lock().extend(slabs.drain(..).map(Reverse));
        }
    }
}

/// All of this thread's caches, flushed to their pools on thread exit.
struct ThreadCaches {
    caches: Vec<(&'static SlabPool, Vec<*mut u8>)>,
}

impl ThreadCaches {
    fn flush(&mut self) {
        for (pool, slabs) in &mut self.caches {
            pool.put_back(slabs);
        }
    }
}

impl Drop for ThreadCaches {
    fn drop(&mut self) {
        self.flush();
    }
}

std::thread_local! {
    static CACHES: RefCell<ThreadCaches> = const { RefCell::new(ThreadCaches { caches: Vec::new() }) };
}

/// Run `f` on this thread's cache vector for `pool`; `None` when the
/// thread-local is unavailable (thread teardown).
fn with_cache<R>(pool: &'static SlabPool, f: impl FnOnce(&mut Vec<*mut u8>) -> R) -> Option<R> {
    CACHES
        .try_with(|caches| {
            let mut caches = caches.borrow_mut();
            let idx = match caches.caches.iter().position(|(p, _)| std::ptr::eq(*p, pool)) {
                Some(i) => i,
                None => {
                    caches.caches.push((pool, Vec::with_capacity(pool.cache_cap + 1)));
                    caches.caches.len() - 1
                }
            };
            f(&mut caches.caches[idx].1)
        })
        .ok()
}

/// Flush every pool cache held by the current thread back to its pool's
/// shared list. Called by the worker pool at worker teardown so that a
/// finished [`crate::run`] leaves all recycled slabs globally visible
/// (deterministic gauges for tests and the bench harness).
pub fn flush_this_thread() {
    let _ = CACHES.try_with(|caches| caches.borrow_mut().flush());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leak_slab() -> *mut u8 {
        Box::into_raw(Box::new([0u8; 64])) as *mut u8
    }

    unsafe fn free_slab(ptr: *mut u8) {
        drop(unsafe { Box::from_raw(ptr as *mut [u8; 64]) });
    }

    #[test]
    fn release_then_acquire_round_trips() {
        static POOL: SlabPool = SlabPool::new(8);
        let a = leak_slab();
        POOL.release(a);
        assert_eq!(POOL.cached_slabs(), 1);
        let got = POOL.acquire().expect("cached slab comes back");
        assert_eq!(got, a);
        assert_eq!(POOL.cached_slabs(), 0);
        assert!(POOL.acquire().is_none(), "empty recycler yields None");
        unsafe { free_slab(got) };
    }

    #[test]
    fn overflow_spills_to_shared_and_refills() {
        static POOL: SlabPool = SlabPool::new(4);
        let slabs: Vec<*mut u8> = (0..6).map(|_| leak_slab()).collect();
        for &s in &slabs {
            POOL.release(s);
        }
        assert_eq!(POOL.cached_slabs(), 6, "spilling keeps slabs in the recycler");
        // Exceeding the cap spilled half the cache to the shared list.
        let spilled = POOL.shared.lock().len();
        assert!(spilled >= 3, "exceeding the cap must spill half the cache, got {spilled}");
        // All six come back (cache first, then a batched refill).
        let mut got = Vec::new();
        while let Some(p) = POOL.acquire() {
            got.push(p);
        }
        got.sort_unstable();
        let mut want = slabs.clone();
        want.sort_unstable();
        assert_eq!(got, want);
        for p in got {
            unsafe { free_slab(p) };
        }
    }

    #[test]
    fn refill_hands_out_lowest_addresses_first() {
        const CAP: usize = 8;
        static POOL: SlabPool = SlabPool::new(CAP);
        let mut slabs: Vec<*mut u8> = (0..4 * CAP).map(|_| leak_slab()).collect();
        // Release in a shuffled order (seeded Fisher–Yates), so the cache
        // spills several times mid-stream and no release order is sorted.
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..slabs.len()).rev() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            slabs.swap(i, (rng % (i as u64 + 1)) as usize);
        }
        for &s in &slabs {
            POOL.release(s);
        }
        assert!(POOL.shared.lock().len() >= 2 * CAP, "releases must have spilled mid-stream");
        POOL.flush_thread_cache();
        let got = std::thread::spawn(|| {
            std::iter::from_fn(|| POOL.acquire()).map(|p| p as usize).collect::<Vec<_>>()
        })
        .join()
        .unwrap();
        assert_eq!(got.len(), slabs.len());
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "a fresh thread must be handed slabs in strictly ascending address order: {got:x?}"
        );
        for p in got {
            unsafe { free_slab(p as *mut u8) };
        }
    }

    #[test]
    fn flush_makes_cache_visible_to_other_threads() {
        static POOL: SlabPool = SlabPool::new(8);
        let a = leak_slab();
        POOL.release(a);
        POOL.flush_thread_cache();
        let got = std::thread::spawn(|| POOL.acquire().map_or(0, |p| p as usize)).join().unwrap();
        assert_eq!(got, a as usize, "flushed slab must be visible cross-thread");
        unsafe { free_slab(a) };
    }

    #[test]
    fn thread_exit_flushes_implicitly() {
        static POOL: SlabPool = SlabPool::new(8);
        let (tx, rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let t = std::thread::spawn(move || {
            let a = leak_slab();
            POOL.release(a);
            assert_eq!(POOL.cached_slabs(), 1, "the releasing thread sees its own cache");
            tx.send(a as usize).unwrap();
            done_rx.recv().unwrap();
            // Exit with the slab still cached thread-locally; the TLS
            // destructor must flush it.
        });
        let a = rx.recv().unwrap();
        assert_eq!(POOL.cached_slabs(), 0, "another live thread's cache is not counted");
        done_tx.send(()).unwrap();
        t.join().unwrap();
        assert_eq!(POOL.cached_slabs(), 1, "the exit flush makes the slab visible here");
        assert_eq!(POOL.acquire(), Some(a as *mut u8));
        assert_eq!(POOL.cached_slabs(), 0);
        unsafe { free_slab(a as *mut u8) };
    }

    #[test]
    fn trim_drains_shared_list_only() {
        static POOL: SlabPool = SlabPool::new(8);
        let a = leak_slab();
        let b = leak_slab();
        POOL.release(a);
        POOL.release(b);
        assert_eq!(POOL.trim(|_| panic!("cache not flushed: shared list is empty")), 0);
        POOL.flush_thread_cache();
        let mut freed = 0;
        assert_eq!(
            POOL.trim(|p| {
                unsafe { free_slab(p) };
                freed += 1;
            }),
            2
        );
        assert_eq!(freed, 2);
        assert_eq!(POOL.cached_slabs(), 0);
    }

    #[test]
    fn caches_are_per_pool() {
        static A: SlabPool = SlabPool::new(8);
        static B: SlabPool = SlabPool::new(8);
        let s = leak_slab();
        A.release(s);
        assert!(B.acquire().is_none(), "pools must not share caches");
        assert_eq!(A.acquire(), Some(s));
        unsafe { free_slab(s) };
    }
}
