//! [`PoolArc`]: an atomically reference-counted box whose backing memory
//! is recycled through the [`crate::recycle`] size-class pools.
//!
//! `std::sync::Arc` always round-trips the global allocator; on the
//! spawn fast path that is one of the three mandatory allocations per
//! vertex (the `DecPair` / `FutureCore` headers). `PoolArc` keeps the
//! exact `Arc` semantics the dag layer relies on — `clone` is a relaxed
//! increment, the last `drop` runs the value's drop glue exactly once
//! with release/acquire publication — but births the header from the
//! class slab of its type and retires it back there, so warm-run churn
//! stops touching the allocator. Headers too big for the class ladder use
//! the plain allocator; the route is a function of `T` alone, so the
//! header records nothing about it. Births and deaths are counted in the
//! `sched.poolarc_*` counters and obey the usual conservation identity at
//! quiescence: `alloc + reuse == recycled + dropped`.

use std::marker::PhantomData;
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicUsize, Ordering};

use crate::recycle;

#[repr(C)]
struct Inner<T> {
    strong: AtomicUsize,
    value: T,
}

/// A pooled `Arc`: shared ownership of `T` with the backing allocation
/// recycled through the scheduler's size-class slabs.
///
/// ```
/// let a = sched::PoolArc::new(41u64);
/// let b = a.clone();
/// assert_eq!(*a + 1, *b + 1);
/// ```
pub struct PoolArc<T> {
    ptr: NonNull<Inner<T>>,
    _marker: PhantomData<Inner<T>>,
}

// SAFETY: same bounds as std::sync::Arc — the value is shared across
// threads and dropped on an arbitrary one.
unsafe impl<T: Send + Sync> Send for PoolArc<T> {}
// SAFETY: as above.
unsafe impl<T: Send + Sync> Sync for PoolArc<T> {}

impl<T> PoolArc<T> {
    /// Allocate a new shared `T`, serving the header from its size-class
    /// pool (or the plain allocator when off the ladder).
    pub fn new(value: T) -> Self {
        let (inner, reused) = recycle::alloc_for::<Inner<T>>();
        if reused {
            obs::counter!("sched.poolarc_reuse").inc();
        } else {
            obs::counter!("sched.poolarc_alloc").inc();
        }
        // SAFETY: `alloc_for` hands over exclusive, suitably sized and
        // aligned, non-null storage for one `Inner<T>`.
        unsafe {
            inner.write(Inner { strong: AtomicUsize::new(1), value });
            Self { ptr: NonNull::new_unchecked(inner), _marker: PhantomData }
        }
    }

    fn inner(&self) -> &Inner<T> {
        // SAFETY: the inner struct is live while any PoolArc points at it.
        unsafe { self.ptr.as_ref() }
    }

    /// Current strong count (diagnostic; racy by nature).
    pub fn strong_count(this: &Self) -> usize {
        this.inner().strong.load(Ordering::Acquire)
    }

    /// Whether two handles share one allocation.
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        a.ptr == b.ptr
    }
}

impl<T> Deref for PoolArc<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner().value
    }
}

impl<T> Clone for PoolArc<T> {
    fn clone(&self) -> Self {
        // Relaxed is sufficient: the clone derives from an existing
        // handle, which already keeps the value alive (same as std Arc).
        let old = self.inner().strong.fetch_add(1, Ordering::Relaxed);
        assert!(old < isize::MAX as usize, "PoolArc refcount overflow");
        Self { ptr: self.ptr, _marker: PhantomData }
    }
}

impl<T> Drop for PoolArc<T> {
    fn drop(&mut self) {
        if self.inner().strong.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        // Synchronize with every other handle's Release decrement before
        // running drop glue (the std Arc protocol).
        fence(Ordering::Acquire);
        let raw = self.ptr.as_ptr();
        // SAFETY: we hold the last reference; nobody else can reach the
        // allocation, which came from `alloc_for::<Inner<T>>`.
        let recycled = unsafe {
            std::ptr::drop_in_place(raw);
            recycle::free_for(raw)
        };
        if recycled {
            obs::counter!("sched.poolarc_recycled").inc();
        } else {
            obs::counter!("sched.poolarc_dropped").inc();
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for PoolArc<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn clone_shares_and_last_drop_frees_once() {
        struct Tally(Arc<AtomicU64>);
        impl Drop for Tally {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicU64::new(0));
        let a = PoolArc::new(Tally(Arc::clone(&drops)));
        let b = a.clone();
        assert!(PoolArc::ptr_eq(&a, &b));
        assert_eq!(PoolArc::strong_count(&a), 2);
        drop(a);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(b);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn header_is_recycled_through_class_pool() {
        let first = PoolArc::new(7u64);
        let addr = first.ptr.as_ptr() as usize;
        drop(first);
        // Same thread, same class: the thread cache must serve the very
        // same slab back.
        let second = PoolArc::new(9u64);
        assert_eq!(second.ptr.as_ptr() as usize, addr);
        drop(second);
    }

    #[test]
    fn cross_thread_drop_races_are_clean() {
        let v = PoolArc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let v = v.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        v.fetch_add(1, Ordering::Relaxed);
                        let _ = v.clone();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(v.load(Ordering::Relaxed), 8000);
    }
}
