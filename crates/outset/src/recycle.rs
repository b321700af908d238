//! The block recycler's probes.
//!
//! The mechanism itself lives in [`crate::tree`] (retirement through the
//! out-set's epoch domain) and `sched::slab` (per-worker caches over a
//! global free list); this module is the small public surface around it:
//! the gauges the bench harness and the reclamation tests read, and the
//! flush/trim valves. Every growable out-set recycles; frozen ones (no
//! epoch domain) free their blocks in `Drop`.
//!
//! ## Accounting
//!
//! Five counters (`telemetry` feature) and one gauge tell the whole
//! story. Every block is born through `outset.blocks_allocated` (fresh
//! `Box`) or `outset.blocks_reused` (served by the recycler), and dies
//! into `outset.blocks_recycled` (retired to the recycler),
//! `outset.blocks_dropped` (freed by an out-set's `Drop` — frozen
//! out-sets, never-finished out-sets, and post-seal straggler blocks) or
//! `outset.blocks_trimmed` ([`trim`] handed it back to the allocator).
//! At quiescence (every out-set dropped, every domain drained):
//!
//! ```text
//! blocks_allocated + blocks_reused == blocks_recycled + blocks_dropped   (live = 0)
//! cached_blocks() == blocks_recycled − blocks_reused − blocks_trimmed
//! ```
//!
//! Mid-run, the difference of the two sides of the first identity is
//! exactly the number of live blocks. The second holds once no thread
//! but the caller holds a cache (workers flush at teardown), since
//! [`cached_blocks`] counts the global list plus the caller's cache.
//! `harness obs --assert-bound` checks both identities after a quiesced
//! run.

use crate::tree;

/// Blocks held by the recycler: the global free list plus the calling
/// thread's cache (exact at quiescence; see `sched::SlabPool::cached_slabs`).
pub fn cached_blocks() -> usize {
    tree::block_pool().cached_slabs()
}

/// Bytes currently held by the recycler — the cached-but-free footprint,
/// which `FootprintReport` counts separately from live blocks.
pub fn cached_bytes() -> usize {
    tree::block_pool().cached_bytes()
}

/// Size of one slot block in bytes.
pub fn block_bytes() -> usize {
    tree::block_pool().slab_bytes()
}

/// Blocks ever spilled from a full worker cache to the global free list
/// (the `outset.blocks_overflowed` counter's feature-independent twin).
pub fn overflowed_blocks() -> u64 {
    tree::block_pool().overflowed()
}

/// Move the current thread's cache onto the global free list so other
/// threads (or [`trim`]) can see those blocks. Worker threads do this
/// automatically at pool teardown.
pub fn flush_thread_cache() {
    tree::block_pool().flush_thread_cache();
}

/// Return every block on the global free list to the allocator (worker
/// caches are not touched — call [`flush_thread_cache`] on their threads
/// first). Returns the number of blocks freed. This is the footprint
/// release valve: the free-list bound is `O(peak live blocks)`, and trim
/// is how a phase change gives that memory back.
pub fn trim() -> usize {
    tree::trim_block_pool()
}
