//! Size-classed slab recycling for the runtime's small hot-path objects.
//!
//! The runtime's *vertices and continuations* cannot share one typed
//! pool: `Vertex<C>` is a different type — and size — per counter
//! family, and Rust has no generic statics. Instead a small fixed ladder of power-of-two **size
//! classes** (each one a [`crate::slab::SlabPool`], so the per-worker
//! cache / shared-overflow machinery is reused verbatim) serves every
//! consumer whose layout fits: dag vertices, pooled reference-counted
//! headers ([`crate::PoolArc`]), and anything a later layer wants to
//! recycle.
//!
//! ## Discipline
//!
//! * **Class by type.** A type's class is a compile-time function of its
//!   layout ([`class_of`]), so an object never records where it was
//!   born: [`alloc_for`] and [`free_for`] route the same `T` to the same
//!   place every time. Slabs are allocated with the class layout (class
//!   bytes, [`CLASS_ALIGN`]), not the object's, so a slab retired by a
//!   `Vertex<DynSnzi>` can be reborn as a pooled `DecPair` header. Types
//!   whose size or alignment exceed the ladder use the plain allocator.
//! * **Poison stamps.** In debug builds every slab released to a class
//!   pool is stamped with [`POISON`] words; acquire asserts the stamp.
//!   A consumer reading recycled memory before re-initializing it trips
//!   the assertion instead of silently observing stale bytes. Class
//!   slabs are never shared while dead, so poison alone closes their
//!   surface.
//!
//! ## Accounting
//!
//! Consumers count births and deaths (`sched.vertex_*`,
//! `sched.poolarc_*`, `sched.strand_*`): `reuse` and `recycled` for the
//! ladder, `alloc` for fresh slabs and off-ladder allocations, `dropped`
//! for off-ladder frees. At quiescence, per consumer:
//!
//! ```text
//! allocated + reused == recycled + dropped      (live = 0)
//! ```
//!
//! and the standby footprint ([`cached_bytes`]) is bounded by the peak
//! number of simultaneously-live pooled objects — a slab only enters a
//! pool when an object dies, so the pool can never hold more slabs than
//! the high-water mark of births minus deaths. [`trim`] is the release
//! valve that hands the standby memory back to the allocator.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::mem::MaybeUninit;

use crate::slab::SlabPool;

/// Alignment every class slab provides (and the most a pooled object may
/// require).
pub const CLASS_ALIGN: usize = 16;

/// The size ladder. Powers of two keep [`class_of`] a constant and
/// internal fragmentation under 2×.
const CLASS_BYTES: [usize; 6] = [32, 64, 128, 256, 512, 1024];

/// Per-thread cache bound per class (slabs); overflow spills half to the
/// class's shared list.
const CACHE_CAP: usize = 64;

static POOLS: [SlabPool; 6] = [const { SlabPool::new(CACHE_CAP) }; 6];

/// Debug poison stamped over dead slabs while they sit in a pool.
pub const POISON: u64 = 0xDEAD_BEEF_DEAD_BEEF;

/// Capture-size ceiling (bytes) for closures and strand state stored
/// **inline** inside a pooled vertex instead of behind a pointer. It
/// lives here because it is really a property of the class ladder — it
/// decides which ladder class a vertex lands in, not anything about dag
/// semantics. 48 B keeps a suspended strand frame with up to 40 B of
/// saved state (a few handles plus loop indices) inline — suspension
/// then touches no memory outside the vertex's own slab — while still
/// fitting `Vertex<DynSnzi>` comfortably inside the 256 B class.
pub const INLINE_SLOT_BYTES: usize = 48;

/// Alignment ceiling for inline slot storage (the in-vertex buffer is
/// 8-aligned).
pub const INLINE_SLOT_ALIGN: usize = 8;

/// The class that serves a `size`/`align` layout, or `None` when the
/// layout is off the ladder and the caller must use the plain allocator.
const fn class_for(size: usize, align: usize) -> Option<u8> {
    if align > CLASS_ALIGN {
        return None;
    }
    let mut i = 0;
    while i < CLASS_BYTES.len() {
        if CLASS_BYTES[i] >= size {
            return Some(i as u8);
        }
        i += 1;
    }
    None
}

/// The class that serves `T`, or `None` when `T` is off the ladder.
/// Const, so every allocation site resolves its route at compile time.
pub const fn class_of<T>() -> Option<u8> {
    class_for(std::mem::size_of::<T>(), std::mem::align_of::<T>())
}

fn class_layout(class: u8) -> Layout {
    // Every ladder entry is a power of two >= 32, hence a multiple of
    // CLASS_ALIGN: this never fails.
    Layout::from_size_align(CLASS_BYTES[class as usize], CLASS_ALIGN).expect("valid class layout")
}

/// Uninitialized storage for one `T`: a slab of `T`'s class — recycled
/// when the class pool has one — or, for a type off the ladder, a plain
/// allocation. Returns the memory and whether it was reused. The caller
/// owns it and must eventually hand it to [`free_for`] with the same `T`.
pub fn alloc_for<T>() -> (*mut T, bool) {
    match const { class_of::<T>() } {
        Some(class) => {
            let (raw, reused) = acquire_or_alloc(class);
            (raw as *mut T, reused)
        }
        None => (Box::into_raw(Box::<T>::new_uninit()) as *mut T, false),
    }
}

/// Give back the storage of one dead `T` (its drop glue already ran): to
/// its class pool, or to the allocator when `T` is off the ladder.
/// Returns whether the slab was recycled.
///
/// # Safety
/// `ptr` must come from [`alloc_for::<T>`](alloc_for), hold no live
/// value, and not be used afterwards.
pub unsafe fn free_for<T>(ptr: *mut T) -> bool {
    match const { class_of::<T>() } {
        Some(class) => {
            release(class, ptr as *mut u8);
            true
        }
        None => {
            // SAFETY: off-ladder storage came from `Box::new_uninit`.
            drop(unsafe { Box::from_raw(ptr as *mut MaybeUninit<T>) });
            false
        }
    }
}

/// Take one recycled slab of `class`, or allocate a fresh one with the
/// class layout. Returns the slab and whether it was served by the pool.
fn acquire_or_alloc(class: u8) -> (*mut u8, bool) {
    // Failpoint (no-op unless `fault-inject` arms it): pretend the class
    // pool is empty, forcing the fresh-allocation path. Conservation
    // (`allocated + reused == recycled + dropped`) is unaffected — the
    // slab is simply born fresh — which is exactly what makes the site
    // safe to fire anywhere.
    if !crate::failpoint::fire("sched.recycle_miss") {
        if let Some(ptr) = POOLS[class as usize].acquire() {
            #[cfg(debug_assertions)]
            // SAFETY: the slab is at least 32 bytes and exclusively ours.
            unsafe {
                assert_eq!(
                    (ptr as *const u64).read(),
                    POISON,
                    "recycled slab lost its poison stamp"
                );
                assert_eq!((ptr as *const u64).add(1).read(), POISON, "poison stamp torn");
            }
            return (ptr, true);
        }
    }
    let layout = class_layout(class);
    // SAFETY: the class layout has non-zero size.
    let ptr = unsafe { alloc(layout) };
    if ptr.is_null() {
        handle_alloc_error(layout);
    }
    (ptr, false)
}

/// Hand one dead slab of `class` back to the recycler, stamped with
/// [`POISON`] in debug builds.
fn release(class: u8, ptr: *mut u8) {
    #[cfg(debug_assertions)]
    // SAFETY: the slab is dead, at least 32 bytes, exclusively ours.
    unsafe {
        (ptr as *mut u64).write(POISON);
        (ptr as *mut u64).add(1).write(POISON);
    }
    POOLS[class as usize].release(ptr);
}

/// Slabs held across all class pools: the shared lists plus the calling
/// thread's caches (see [`SlabPool::cached_slabs`]).
pub fn cached_slabs() -> usize {
    POOLS.iter().map(|p| p.cached_slabs()).sum()
}

/// Bytes held across all class pools — the standby footprint, bounded by
/// peak-live pooled objects.
pub fn cached_bytes() -> usize {
    POOLS.iter().zip(CLASS_BYTES).map(|(p, bytes)| p.cached_slabs() * bytes).sum()
}

/// Move the current thread's class caches onto the shared lists so other
/// threads — or [`trim`] — can see those slabs. Worker threads do this
/// automatically at pool teardown ([`crate::slab::flush_this_thread`]
/// flushes every pool, the class pools included).
pub fn flush_thread_cache() {
    for pool in &POOLS {
        pool.flush_thread_cache();
    }
}

/// Return every slab on the shared lists to the allocator (thread caches
/// are not touched — call [`flush_thread_cache`] on their threads
/// first). Returns the number of slabs freed.
pub fn trim() -> usize {
    let mut n = 0;
    for (i, pool) in POOLS.iter().enumerate() {
        let layout = class_layout(i as u8);
        n += pool.trim(|ptr| {
            // SAFETY: every slab in class pool `i` was allocated with
            // that class's layout (acquire_or_alloc is the only source).
            unsafe { dealloc(ptr, layout) };
        });
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_ladder_covers_expected_sizes() {
        assert_eq!(class_for(1, 8), Some(0));
        assert_eq!(class_for(32, 8), Some(0));
        assert_eq!(class_for(33, 8), Some(1));
        assert_eq!(class_for(1024, 16), Some(5));
        assert_eq!(class_for(1025, 8), None, "off the ladder");
        assert_eq!(class_for(64, 32), None, "over-aligned");
        assert_eq!(class_of::<[u64; 6]>(), Some(1));
        assert_eq!(class_of::<[u8; 2048]>(), None);
    }

    #[test]
    fn alloc_free_round_trip_reuses() {
        // 48 bytes: class 64. Same thread, same class: the thread cache
        // serves the very slab just released.
        let (a, _) = alloc_for::<[u64; 6]>();
        // SAFETY: fresh storage, no live value.
        assert!(unsafe { free_for(a) }, "on-ladder storage goes back to its class");
        assert!(cached_slabs() >= 1);
        let (b, reused) = alloc_for::<[u64; 6]>();
        assert!(reused, "released slab must be served back");
        assert_eq!(b, a);
        // SAFETY: as above.
        unsafe { free_for(b) };
    }

    #[test]
    fn off_ladder_types_use_the_allocator() {
        let (a, reused) = alloc_for::<[u8; 2048]>();
        assert!(!reused);
        // SAFETY: exclusively ours, written before being read.
        unsafe {
            a.write([7; 2048]);
            assert_eq!((*a)[2047], 7);
            assert!(!free_for(a), "off-ladder storage goes back to the allocator");
        }
    }

    #[test]
    fn trim_frees_flushed_slabs() {
        // Class 1024 is untouched by sibling tests, so the flushed slab
        // deterministically survives on the shared list until trim.
        let (a, _) = alloc_for::<[u8; 1000]>();
        // SAFETY: no live value.
        unsafe { free_for(a) };
        flush_thread_cache();
        assert!(trim() >= 1);
    }
}
