//! The lock-free tree-of-blocks out-set with an adaptive lane table.
//!
//! ## Structure
//!
//! ```text
//!  TreeOutsetObj
//!  ├── sealed : AtomicBool             (the one-shot finish latch)
//!  └── table ──► LaneTable { mask, lanes[L] }   (L grows 1, 2, 4, ...)
//!                  └── lane ──► Block ──► Block ──► ...  (newest first)
//!                                ├ claimed : AtomicUsize (slot cursor)
//!                                └ slots[B] : AtomicU64  (EMPTY | SWEPT | token+2)
//! ```
//!
//! An `add(token, key)` hashes `key` to a lane, claims a slot index with
//! one `fetch_add` on the newest block's cursor (installing a fresh block
//! by CAS when full), and publishes `token + 2` into the slot with one
//! CAS. Contending adders (distinct workers) hash to distinct lanes, so
//! the fetch-add hot spot is spread `L` ways — the out-set analogue of
//! the in-counter's leaf spreading.
//!
//! ## Adaptive growth
//!
//! Unlike the fixed lane array of the first iteration, the lane table
//! **starts at one lane** — a single-dependent future pays one lane and
//! one table entry, not a hardware-thread-sized array — and grows only
//! under *observed* contention, the same pay-for-contention shape as the
//! in-counter's probabilistic `grow`: when an adder loses the
//! block-install CAS on its lane (direct evidence of a concurrent adder
//! on the same lane), it flips a [`GrowthPolicy`] coin, and heads means
//! "try to double the lane table". The adder then re-hashes against the
//! (possibly) larger table, so a grower immediately escapes the collision
//! that triggered it; every later adder re-hashes naturally on its own
//! add. `docs/outset-contention.md` derives the expected per-add
//! contention bound this policy buys.
//!
//! The table itself is an epoch-protected indirection (the vendored
//! `crossbeam::epoch` shim): growth allocates a doubled table that
//! **shares** the existing `Lane` allocations and appends fresh ones,
//! installs it with one CAS on the table pointer, and retires the old
//! table — just the pointer array, never the shared lanes — via
//! `defer_unchecked`. Readers pin for the duration of one table access.
//! Two invariants keep every racing party correct across a split:
//!
//! * **lanes are shared, never moved** — a slot claimed through an old
//!   table lives in a `Lane` that every newer table also points to, so a
//!   sweep through the newest table visits it;
//! * **the lane set is monotone** — tables only append lanes, so the
//!   sweep's table (loaded *after* the seal) contains every lane any
//!   pre-seal adder could have reached through any historical table. An
//!   adder that claims a slot through a lane installed after the sweep's
//!   table load necessarily published after the seal, observes `sealed`
//!   on its re-check, and resolves the race through the slot CAS like any
//!   other late adder (below).
//!
//! ## The add/finish race, slot by slot
//!
//! `finish` seals the latch (one `swap`) and then sweeps: every claimed
//! slot is `swap`ped to `SWEPT`; a slot that already carried a token is
//! delivered. The interesting interleaving is an adder that claimed a
//! slot before the seal but publishes around the sweep. All operations on
//! `sealed` and on slots are `SeqCst`, and the adder re-checks `sealed`
//! *after* publishing:
//!
//! * adder's publish CAS (`EMPTY → token+2`) fails — the sweep got there
//!   first and left `SWEPT`; nobody will ever read the slot again, and the
//!   adder delivers its token inline ([`AddEdge::Finished`]).
//! * publish succeeds and the re-check reads unsealed — in the seq-cst
//!   total order the publish precedes the seal, hence precedes the whole
//!   sweep, which therefore visits the slot (its lane is in the sweep's
//!   table by monotonicity) and delivers it.
//! * publish succeeds and the re-check reads sealed — the sweep may or
//!   may not have passed this slot already, so exactly one side claims it
//!   with a second CAS (`token+2 → SWEPT`): the adder winning means the
//!   sweep never consumed it (inline delivery); losing means the sweep
//!   already delivered it.
//!
//! Each slot thus transitions `EMPTY → {token+2} → SWEPT` (or directly
//! `EMPTY → SWEPT`) with every token leaving exactly once. Blocks
//! installed after the sweep read a lane's head are only reachable by
//! their installing adders, which by the argument above observe the seal
//! on their re-check and deliver inline.
//!
//! ## Memory and block recycling
//!
//! A growable out-set's `finish` takes each lane's whole block chain
//! (one `swap` of the lane head), sweeps it, and **retires** every block
//! through the out-set's private epoch domain: once every guard pinned
//! at retirement has dropped, the block is poisoned (`POISON` written
//! into every slot, generation stamp bumped to odd) and pushed into the
//! per-worker slab caches (`sched::slab`) that block allocation prefers
//! — so a future's blocks are reusable the moment its completion sweep
//! quiesces, not when its last handle drops, and steady-state future
//! churn reaches zero allocator traffic. The slot protocol guarantees
//! that by retirement time every slot is `EMPTY` or `SWEPT` (the sweep
//! or the adder's inline path delivered every token), and `retire`/
//! `reset` debug-assert it: a stale write into a freed or cached block
//! trips the poison check on its next reuse instead of corrupting a
//! later out-set.
//!
//! The epoch deferral is also the ABA argument: an adder pins **across
//! claim and publish** (not just the table access), so a block it read
//! from a lane head cannot be recycled — let alone reused and
//! re-installed at the same lane index, where the adder's stale
//! `compare_exchange` on the head would otherwise cross-link two
//! out-sets — until the adder unpins. Every growable out-set recycles;
//! frozen out-sets (no domain, no pins) never do.
//!
//! Whatever is still linked at `Drop` — everything for frozen sets, only
//! post-seal straggler blocks for growable ones — is freed
//! through the newest table (which, by monotonicity, points to every
//! lane ever allocated); superseded tables are freed by the epoch shim
//! at quiescent instants. The out-set is expected to be shared via `Arc`
//! by the completing vertex and all edge-adding handles, so no add or
//! finish can race the destructor.

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use crossbeam::epoch;
use snzi::Probability;

use crate::growth::BLOCK_SLOTS;
use crate::{AddEdge, GrowthPolicy, OutsetFamily};

/// Slot states: anything in `TOKEN_BIAS..POISON` is a biased token.
const EMPTY: u64 = 0;
const SWEPT: u64 = 1;
const TOKEN_BIAS: u64 = 2;
/// Written into every slot of a retired block while it sits in the
/// recycler. The live protocol never stores it (`MAX_TOKEN` keeps biased
/// tokens below), so a sweep reading `POISON` — or a reuse *not* reading
/// it — is a reclamation bug caught by the debug asserts in
/// `Block::retire`/`Block::reset`.
const POISON: u64 = u64::MAX;
/// Largest accepted token: `MAX_TOKEN + TOKEN_BIAS < POISON`.
const MAX_TOKEN: u64 = u64::MAX - 3;

/// Pin-count stripes in each growable out-set's private epoch domain.
/// Fewer than the default domain's 16: the domain serves one structure,
/// so the trade is one padded cache line per stripe against `≈ W/4` pin
/// contention from this out-set's own adders only (see
/// `docs/outset-contention.md`, Claim 1).
pub const OUTSET_PIN_STRIPES: usize = 4;

// Slots per block (`BLOCK_SLOTS`, defined in `growth` so the hint
// heuristic can use it): a compromise between per-future footprint
// (futures with one or two dependents — pipelines — pay one ~300 B block
// on their single lane) and allocation amortization for fan-out-heavy
// broadcasts (one allocation per 32 adds).

struct Block {
    /// Next-older block in this lane (immutable after installation).
    next: *mut Block,
    /// Slot cursor; values past `BLOCK_SLOTS` mean "this block was full,
    /// the adder moved on" and are harmless.
    claimed: AtomicUsize,
    /// Reclamation stamp: bumped to odd by `retire`, back to even by
    /// `reset`, so the debug asserts can tell a live block from a cached
    /// one across arbitrarily many reuse cycles.
    generation: AtomicU64,
    slots: [AtomicU64; BLOCK_SLOTS],
}

impl Block {
    fn boxed(next: *mut Block) -> Box<Block> {
        Box::new(Block {
            next,
            claimed: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            slots: std::array::from_fn(|_| AtomicU64::new(EMPTY)),
        })
    }

    /// Poison `block` and hand it to the recycler.
    ///
    /// # Safety
    /// `block` must be unlinked and quiescent: no adder or sweeper can
    /// still reach it. The epoch deferral provides this for
    /// sweep-retired blocks (an adder that could hold the block holds a
    /// pin across its whole claim + publish, and the deferral outwaits
    /// it — by which time the slot protocol has emptied every slot);
    /// install-race losers never published theirs.
    unsafe fn retire(block: *mut Block) {
        // SAFETY: exclusive access per the contract above.
        unsafe {
            let stamp = (*block).generation.fetch_add(1, Ordering::Relaxed);
            debug_assert_eq!(stamp % 2, 0, "double retirement of a slot block");
            for slot in &(*block).slots {
                let prev = slot.swap(POISON, Ordering::SeqCst);
                debug_assert!(
                    prev < TOKEN_BIAS,
                    "retired a slot block still holding an undelivered token"
                );
            }
            (*block).next = std::ptr::null_mut();
        }
        obs::counter!("outset.blocks_recycled").inc();
        let spilled = block_pool().release(block as *mut u8);
        if spilled > 0 {
            obs::counter!("outset.blocks_overflowed").add(spilled as u64);
        }
    }

    /// Re-initialize a block just taken from the recycler: verify the
    /// poison (nobody scribbled on it while it was free), clear the
    /// slots, restart the cursor.
    ///
    /// # Safety
    /// The caller must own `block` exclusively (freshly acquired from
    /// the recycler, not yet published).
    unsafe fn reset(block: *mut Block, next: *mut Block) {
        // SAFETY: exclusive access per the contract above.
        unsafe {
            let stamp = (*block).generation.fetch_add(1, Ordering::Relaxed);
            debug_assert_eq!(stamp % 2, 1, "reused a slot block that was never retired");
            for slot in &(*block).slots {
                let prev = slot.swap(EMPTY, Ordering::SeqCst);
                debug_assert_eq!(prev, POISON, "a cached slot block was written to while free");
            }
            (*block).claimed.store(0, Ordering::SeqCst);
            (*block).next = next;
        }
    }
}

/// The process-wide free list of slot blocks. All out-sets share one
/// recycler: blocks are uniform and carry no owner state while free, so
/// a block retired by one future's sweep can seed any other out-set.
pub(crate) fn block_pool() -> &'static sched::SlabPool {
    // Per-worker cache bound: past this many free blocks a worker spills
    // half to the global list (a churning worker idles ≲ 10 KiB).
    const CACHE_CAP: usize = 32;
    static POOL: sched::SlabPool =
        sched::SlabPool::new("outset.block", std::mem::size_of::<Block>(), CACHE_CAP);
    &POOL
}

/// Free every block on the recycler's global list back to the allocator;
/// see [`crate::recycle::trim`].
pub(crate) fn trim_block_pool() -> usize {
    let n = block_pool().trim(|raw| {
        // SAFETY: everything on the free list was leaked from
        // `Block::boxed` and handed over whole by `Block::retire`.
        drop(unsafe { Box::from_raw(raw as *mut Block) });
    });
    if n > 0 {
        obs::counter!("outset.blocks_trimmed").add(n as u64);
    }
    n
}

#[repr(align(128))] // one lane per cache-line pair: adders on distinct lanes never false-share
struct Lane {
    head: AtomicPtr<Block>,
}

impl Lane {
    fn boxed() -> *mut Lane {
        Box::into_raw(Box::new(Lane { head: AtomicPtr::new(std::ptr::null_mut()) }))
    }
}

/// One immutable snapshot of the lane array. Growth replaces the whole
/// table (epoch-retiring the old one); the `Lane` allocations behind the
/// pointers are shared between generations and owned by the newest table.
struct LaneTable {
    /// `lanes.len() - 1`; the length is always a power of two, so key
    /// hashing is a mask.
    mask: u64,
    lanes: Box<[*mut Lane]>,
}

impl LaneTable {
    fn boxed(lanes: Vec<*mut Lane>) -> *mut LaneTable {
        debug_assert!(lanes.len().is_power_of_two());
        let mask = lanes.len() as u64 - 1;
        Box::into_raw(Box::new(LaneTable { mask, lanes: lanes.into_boxed_slice() }))
    }

    /// The lane `key` hashes to in this table generation.
    ///
    /// # Safety
    /// The table must be alive (caller pinned, or has exclusive access);
    /// the `Lane` itself outlives every table (freed only in `Drop`), so
    /// the returned reference may be used after unpinning.
    unsafe fn lane_for(&self, key: u64) -> &Lane {
        // Fibonacci hash spreads dense keys (worker ids, addresses).
        let mix = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let idx = ((mix >> 32) & self.mask) as usize;
        // SAFETY: lanes are freed only in `Drop`, per the caller contract.
        unsafe { &*self.lanes[idx] }
    }
}

/// The lock-free tree-of-blocks out-set (see module docs).
pub struct TreeOutsetObj {
    sealed: AtomicBool,
    /// Current lane-table generation; swapped wholesale by growth and
    /// protected by the epoch shim.
    table: AtomicPtr<LaneTable>,
    policy: GrowthPolicy,
    /// Whether this out-set can ever split (a positive coin and headroom
    /// under the cap), fixed at construction. When `false` the table
    /// pointer is immutable for the object's whole life, so the add path
    /// skips the epoch pin entirely — fixed-lane baselines and tables
    /// born at their cap pay nothing for the growth machinery. Also
    /// whether swept blocks go to the recycler: retirement rides the
    /// private domain, which only growable out-sets own.
    growable: bool,
    /// Monotone mirror of the table size, so probes (and the growth cap
    /// check) need no epoch pin.
    lanes_approx: AtomicUsize,
    /// Successful lane splits (diagnostic, see [`splits`](Self::splits)).
    split_count: AtomicUsize,
    /// Lost block-install CASes (diagnostic — the contention signal that
    /// feeds the growth coin; see [`install_races`](Self::install_races)).
    race_count: AtomicUsize,
    /// Blocks this object has handed to the recycler (scheduled
    /// retirements; deterministic once `finish` returns — the actual
    /// cache push runs at the domain's next quiescent instant).
    retired_count: AtomicUsize,
    /// Private epoch domain protecting the table indirection, present
    /// exactly when `growable`: retired lane tables are deferred here, so
    /// this out-set's reclamation is independent of every other out-set
    /// (and of the process-wide default domain) — pins elsewhere cannot
    /// delay our garbage, and our pins share stripes with nobody else.
    /// Frozen tables never pin, so they don't pay for a domain at all.
    domain: Option<Box<epoch::Domain>>,
}

// SAFETY: all shared state is atomics; Lane/Block pointers are published
// via SeqCst CAS and freed only in Drop (exclusive access); superseded
// LaneTables are reclaimed through the epoch shim after every reader that
// could hold them has unpinned.
unsafe impl Send for TreeOutsetObj {}
unsafe impl Sync for TreeOutsetObj {}

impl TreeOutsetObj {
    /// An out-set with **one lane** and the default adaptive
    /// [`GrowthPolicy`]: the cheapest possible start (single-dependent
    /// futures never pay for spreading they don't need), growing under
    /// observed contention up to the machine-derived cap.
    pub fn new() -> TreeOutsetObj {
        TreeOutsetObj::with_policy(1, GrowthPolicy::default())
    }

    /// An out-set with a **fixed** lane count (rounded up to a power of
    /// two) that never grows — the first iteration's behaviour, kept for
    /// tests and benchmarks that isolate the block machinery or the
    /// spreading from the adaptivity.
    pub fn with_lanes(lanes: usize) -> TreeOutsetObj {
        let lanes = lanes.max(1).next_power_of_two();
        TreeOutsetObj::with_policy(lanes, GrowthPolicy::fixed(lanes))
    }

    /// An out-set with an explicit initial lane count and growth policy.
    /// `initial_lanes` is rounded up to a power of two and clamped to the
    /// policy's cap. An out-set that can never split — a `NEVER` coin, or
    /// a table born at its cap — is frozen outright (even
    /// [`force_split`](Self::force_split) refuses), which lets its add
    /// path skip the epoch pin.
    pub fn with_policy(initial_lanes: usize, policy: GrowthPolicy) -> TreeOutsetObj {
        let initial = initial_lanes.max(1).next_power_of_two().min(policy.max_lanes());
        let lanes: Vec<*mut Lane> = (0..initial).map(|_| Lane::boxed()).collect();
        let growable = initial < policy.max_lanes() && policy.probability() != Probability::NEVER;
        obs::counter!("outset.created").inc();
        TreeOutsetObj {
            sealed: AtomicBool::new(false),
            table: AtomicPtr::new(LaneTable::boxed(lanes)),
            policy,
            growable,
            lanes_approx: AtomicUsize::new(initial),
            split_count: AtomicUsize::new(0),
            race_count: AtomicUsize::new(0),
            retired_count: AtomicUsize::new(0),
            domain: growable.then(|| Box::new(epoch::Domain::with_stripes(OUTSET_PIN_STRIPES))),
        }
    }

    /// An out-set pre-sized for an expected dependent count, growth still
    /// enabled past the hint (see
    /// [`GrowthPolicy::initial_lanes_for_hint`]).
    pub fn with_fanout_hint(expected_dependents: usize) -> TreeOutsetObj {
        let policy = GrowthPolicy::default();
        TreeOutsetObj::with_policy(policy.initial_lanes_for_hint(expected_dependents), policy)
    }

    /// Register `token`; see [`OutsetFamily::add`] for the contract.
    ///
    /// Telemetry conservation invariant (checked by `harness obs
    /// --assert-bound`): every add ends up in exactly one of
    /// `outset.adds_bounced` (delivered inline, [`AddEdge::Finished`])
    /// or — once the out-set is sealed — `outset.swept` (delivered by
    /// the sweep), so `adds == adds_bounced + swept` after seal.
    pub fn add(&self, token: u64, key: u64) -> AddEdge {
        assert!(token <= MAX_TOKEN, "tokens u64::MAX-2..=u64::MAX are reserved");
        obs::counter!("outset.adds").inc();
        if self.sealed.load(Ordering::SeqCst) {
            obs::counter!("outset.adds_bounced").inc();
            return AddEdge::Finished(token);
        }
        // One pin for the whole claim **and** publish: with block
        // recycling the claimed slot's memory is epoch-protected (the
        // sweep retires blocks through the domain), so the guard must
        // outlive every access to the slot — including the publish CAS
        // and the seal-race CAS below — not just the table lookup.
        // A non-growable table is immutable and never recycles, so only
        // growable out-sets pay the pin — in their own domain, whose
        // stripes no other structure shares.
        let guard = self.domain.as_deref().map(epoch::Domain::pin);
        let slot = self.claim_slot(key, guard.as_ref());
        let biased = token + TOKEN_BIAS;
        if slot.compare_exchange(EMPTY, biased, Ordering::SeqCst, Ordering::SeqCst).is_err() {
            // The sweep resolved this slot before we published.
            obs::counter!("outset.adds_bounced").inc();
            return AddEdge::Finished(token);
        }
        if self.sealed.load(Ordering::SeqCst) {
            // Published around the seal: exactly one of us (this add, the
            // sweep) turns the slot over and owns the delivery.
            if slot.compare_exchange(biased, SWEPT, Ordering::SeqCst, Ordering::SeqCst).is_ok() {
                obs::counter!("outset.adds_bounced").inc();
                return AddEdge::Finished(token);
            }
        }
        AddEdge::Registered
    }

    /// Claim one slot in `key`'s lane, growing the block list — and,
    /// under a lost install CAS plus a heads coin flip, the lane table —
    /// as needed. `guard` is the caller's pin on this out-set's domain
    /// (`None` exactly when the out-set is frozen); the returned slot
    /// reference is only safe to use while that guard lives, because a
    /// recycling sweep retires blocks through the same domain.
    fn claim_slot(&self, key: u64, guard: Option<&epoch::Guard<'_>>) -> &AtomicU64 {
        loop {
            // Re-read the table every round: a split (ours or a
            // competitor's) re-hashes the key over more lanes.
            let table_ptr = self.table.load(Ordering::SeqCst);
            // SAFETY: either pinned (tables are retired through the epoch
            // shim, so `table_ptr` cannot be freed before `guard` drops)
            // or the table is immutable for this object's life.
            let lane = unsafe { (*table_ptr).lane_for(key) };
            let head = lane.head.load(Ordering::SeqCst);
            if !head.is_null() {
                // SAFETY: a linked block observed under our pin cannot be
                // retired (the sweep's deferral outwaits the pin) nor
                // freed (`Drop` needs exclusive access) while the guard
                // lives; frozen out-sets never unlink blocks at all.
                let block = unsafe { &*head };
                let idx = block.claimed.fetch_add(1, Ordering::SeqCst);
                if idx < BLOCK_SLOTS {
                    return &block.slots[idx];
                }
                // Block full (the cursor overshoot is benign): fall
                // through and try to install a fresh head.
            }
            let fresh = self.alloc_block(head);
            // Failpoint (no-op unless `fault-inject` arms it): skip the
            // install attempt and take the lost-CAS branch as if a
            // competitor won — the never-published block goes back, the
            // split coin flips, and the loop retries. Deterministically
            // exercises the contention transient the adaptive policy is
            // built around, on a single quiet thread if need be.
            let lost = sched::failpoint::fire("outset.install_cas")
                || lane
                    .head
                    .compare_exchange(head, fresh, Ordering::SeqCst, Ordering::SeqCst)
                    .is_err();
            if lost {
                // Lost the install race; the never-published block goes
                // straight back — to the recycler when growable (keeping
                // the birth/death accounting balanced), else the
                // allocator — and we retry on the winner.
                if self.growable {
                    // SAFETY: never published, exclusively ours.
                    unsafe { Block::retire(fresh) };
                    self.retired_count.fetch_add(1, Ordering::Relaxed);
                } else {
                    // SAFETY: never published.
                    drop(unsafe { Box::from_raw(fresh) });
                }
                // A lost CAS is direct evidence of a concurrent adder on
                // this lane: flip the split coin (the adaptive analogue
                // of the in-counter's per-increment grow coin).
                self.race_count.fetch_add(1, Ordering::Relaxed);
                obs::counter!("outset.lost_cas").inc();
                if let Some(guard) = guard {
                    if self.policy.flip() {
                        self.try_split(guard, table_ptr);
                    }
                }
            }
        }
    }

    /// One block headed for `key`'s lane: from the recycler when this
    /// out-set recycles (it is growable) and a cached block is available,
    /// else a fresh allocation.
    fn alloc_block(&self, next: *mut Block) -> *mut Block {
        if self.growable {
            if let Some(raw) = block_pool().acquire() {
                let block = raw as *mut Block;
                // SAFETY: `acquire` hands over exclusive ownership.
                unsafe { Block::reset(block, next) };
                obs::counter!("outset.blocks_reused").inc();
                return block;
            }
        }
        obs::counter!("outset.blocks_allocated").inc();
        Box::into_raw(Block::boxed(next))
    }

    /// Attempt to double the lane table from the generation `old` (loaded
    /// under `guard`). Loses silently to concurrent splits; no-op at the
    /// policy cap or once sealed.
    fn try_split(&self, guard: &epoch::Guard, old: *mut LaneTable) {
        if !self.growable {
            // A NEVER coin (or a table born at its cap) promised the add
            // path an immutable table; splitting here — reachable via
            // `force_split` — would break that promise.
            return;
        }
        // SAFETY: `old` was loaded while `guard` was pinned, so its
        // retirement (by a competing split) is deferred past this call.
        let old_ref = unsafe { &*old };
        let old_len = old_ref.lanes.len();
        if old_len >= self.policy.max_lanes() || self.sealed.load(Ordering::SeqCst) {
            // Post-seal growth would be correct (the monotone-lane
            // argument doesn't care) but can only waste memory.
            return;
        }
        // The doubled generation shares every existing lane and appends
        // fresh ones, so claimed slots never move.
        let mut lanes = Vec::with_capacity(old_len * 2);
        lanes.extend_from_slice(&old_ref.lanes);
        lanes.extend((0..old_len).map(|_| Lane::boxed()));
        let fresh = LaneTable::boxed(lanes);
        match self.table.compare_exchange(old, fresh, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => {
                self.lanes_approx.fetch_max(old_len * 2, Ordering::Relaxed);
                self.split_count.fetch_add(1, Ordering::Relaxed);
                obs::counter!("outset.splits").inc();
                obs::trace::record(obs::EventKind::LaneSplit, (old_len * 2) as u64);
                // Retire the superseded table — the pointer array only;
                // the lanes it shares with `fresh` live on.
                // SAFETY: `old` is unlinked (the CAS succeeded), so no new
                // reader can acquire it; current readers hold pins, which
                // is exactly what the deferral waits out. The closure
                // frees only the LaneTable box (raw lane pointers have no
                // drop glue).
                unsafe { guard.defer_unchecked(move || drop(Box::from_raw(old))) };
            }
            Err(_) => {
                // A competitor split first; discard our never-published
                // generation and the fresh lanes only it knew about.
                // SAFETY: `fresh` was never published; lanes beyond
                // `old_len` were allocated above and shared with nobody.
                let table = unsafe { Box::from_raw(fresh) };
                for &lane in &table.lanes[old_len..] {
                    drop(unsafe { Box::from_raw(lane) });
                }
            }
        }
    }

    /// Split the lane table once, unconditionally (subject to the policy
    /// cap). A deterministic handle on the growth machinery for tests and
    /// the footprint study; returns whether a split happened.
    pub fn force_split(&self) -> bool {
        let Some(domain) = self.domain.as_deref() else {
            return false; // frozen: try_split would refuse anyway
        };
        let guard = domain.pin();
        let before = self.split_count.load(Ordering::Relaxed);
        let old = self.table.load(Ordering::SeqCst);
        self.try_split(&guard, old);
        self.split_count.load(Ordering::Relaxed) != before
    }

    /// Seal and sweep; see [`OutsetFamily::finish`] for the contract.
    pub fn finish(&self, sink: &mut dyn FnMut(u64)) -> bool {
        if self.sealed.swap(true, Ordering::SeqCst) {
            return false;
        }
        obs::counter!("outset.seals").inc();
        obs::trace::record(obs::EventKind::Seal, self.lane_count() as u64);
        let sweep_start = obs::now();
        let mut delivered = 0u64;
        let guard = self.domain.as_deref().map(epoch::Domain::pin);
        // Loaded after the seal: by lane-set monotonicity this table
        // contains every lane a pre-seal adder could have claimed through.
        let table_ptr = self.table.load(Ordering::SeqCst);
        // SAFETY: pinned (or the table is immutable); see `claim_slot`.
        let table = unsafe { &*table_ptr };
        let mut retired = 0usize;
        for &lane_ptr in table.lanes.iter() {
            // SAFETY: lanes are freed only in Drop.
            let lane = unsafe { &*lane_ptr };
            // A recycling sweep takes the whole chain in one swap: every
            // pre-seal publish lives in a block linked before this point
            // (installing a block requires claiming through it, and
            // pre-seal claims reach only linked blocks), and an adder
            // that installs a fresh head afterwards necessarily
            // published after the seal, so it observes `sealed` on its
            // re-check and delivers inline — its straggler block stays
            // linked and is freed in `Drop`.
            let taken = if self.growable {
                lane.head.swap(std::ptr::null_mut(), Ordering::SeqCst)
            } else {
                lane.head.load(Ordering::SeqCst)
            };
            let mut head = taken;
            while !head.is_null() {
                // SAFETY: as in `claim_slot` (the chain is ours: either
                // unlinked by the swap above, or never unlinked at all).
                let block = unsafe { &*head };
                let claimed = block.claimed.load(Ordering::SeqCst).min(BLOCK_SLOTS);
                for slot in &block.slots[..claimed] {
                    let prev = slot.swap(SWEPT, Ordering::SeqCst);
                    debug_assert_ne!(prev, POISON, "swept a recycled (poisoned) block");
                    if prev >= TOKEN_BIAS {
                        delivered += 1;
                        sink(prev - TOKEN_BIAS);
                    }
                    // prev == EMPTY: the claiming adder has not published
                    // yet; its publish CAS will fail and deliver inline.
                }
                let next = block.next;
                if self.growable {
                    let ptr = head;
                    let g = guard.as_ref().expect("recycling implies growable implies a domain");
                    // SAFETY: `ptr` is unlinked (the swap above), so no
                    // new reader can acquire it; adders that already
                    // hold it are pinned across their whole claim +
                    // publish, which is exactly what the deferral waits
                    // out — and by then the slot protocol has emptied
                    // every slot (retire re-checks that).
                    unsafe { g.defer_unchecked(move || Block::retire(ptr)) };
                    retired += 1;
                }
                head = next;
            }
        }
        if retired > 0 {
            self.retired_count.fetch_add(retired, Ordering::Relaxed);
        }
        drop(guard);
        obs::counter!("outset.swept").add(delivered);
        obs::histogram!("outset.sweep_ns").record_since(sweep_start);
        obs::trace::record_span(obs::EventKind::Sweep, delivered, sweep_start);
        true
    }

    /// Racy seal snapshot.
    pub fn is_finished(&self) -> bool {
        self.sealed.load(Ordering::SeqCst)
    }

    /// Current lane count (a racy but monotone snapshot, read without
    /// pinning — the growth-curve probe).
    pub fn lane_count(&self) -> usize {
        self.lanes_approx.load(Ordering::Relaxed)
    }

    /// Successful lane splits so far (diagnostic).
    pub fn splits(&self) -> usize {
        self.split_count.load(Ordering::Relaxed)
    }

    /// Lost block-install CASes observed so far — the contention events
    /// that fed the growth coin (diagnostic; `docs/outset-contention.md`
    /// predicts `splits ≈ p · install_races` and the harness checks it).
    pub fn install_races(&self) -> usize {
        self.race_count.load(Ordering::Relaxed)
    }

    /// Blocks reachable from a given table generation.
    ///
    /// # Safety
    /// `table` must be alive (caller pinned, or table immutable).
    unsafe fn blocks_in(table: &LaneTable) -> usize {
        let mut n = 0;
        for &lane_ptr in table.lanes.iter() {
            // SAFETY: lanes/blocks are freed only in Drop; `&self` (held
            // by every caller) keeps them alive.
            let mut head = unsafe { (*lane_ptr).head.load(Ordering::SeqCst) };
            while !head.is_null() {
                n += 1;
                head = unsafe { (*head).next };
            }
        }
        n
    }

    /// Number of blocks currently allocated (test/diagnostic aid).
    pub fn block_count(&self) -> usize {
        let _guard = self.domain.as_deref().map(epoch::Domain::pin);
        let table_ptr = self.table.load(Ordering::SeqCst);
        // SAFETY: pinned (or immutable); lanes/blocks freed only in Drop.
        unsafe { Self::blocks_in(&*table_ptr) }
    }

    /// Bytes of heap currently held (table + lanes + blocks + private
    /// epoch domain), plus the object itself — the footprint-study
    /// probe. Quiescent use only (the walk is racy under concurrent
    /// growth).
    ///
    /// Everything is computed from **one** load of the live table
    /// generation under a single pin. (An earlier version re-loaded the
    /// table through `block_count`'s separate pin, so a split landing
    /// between the two loads mixed generations in the sum — see the
    /// `footprint_matches_equivalent_born_table_after_growth` test.)
    /// Superseded table headers awaiting reclamation in the domain are
    /// deliberately not counted: they are garbage, not footprint.
    pub fn footprint_bytes(&self) -> usize {
        let domain_bytes = self.domain.as_deref().map_or(0, epoch::Domain::footprint_bytes);
        let _guard = self.domain.as_deref().map(epoch::Domain::pin);
        let table_ptr = self.table.load(Ordering::SeqCst);
        // SAFETY: pinned (or immutable); see `block_count`.
        let table = unsafe { &*table_ptr };
        // SAFETY: same generation, same pin.
        let blocks = unsafe { Self::blocks_in(table) };
        std::mem::size_of::<Self>()
            + domain_bytes
            + std::mem::size_of::<LaneTable>()
            + table.lanes.len() * std::mem::size_of::<*mut Lane>()
            + table.lanes.len() * std::mem::size_of::<Lane>()
            + blocks * std::mem::size_of::<Block>()
    }

    /// Bytes of the private epoch reclamation domain included in
    /// [`footprint_bytes`](Self::footprint_bytes) — a fixed cost paid
    /// once per growable out-set (0 for frozen ones, which never pin).
    pub fn domain_footprint_bytes(&self) -> usize {
        self.domain.as_deref().map_or(0, epoch::Domain::footprint_bytes)
    }

    /// Blocks this object has scheduled for the recycler so far (the
    /// sweep's retirements plus never-published install-race losers).
    /// Deterministic once [`finish`](Self::finish) has returned and all
    /// adds have; the cache push itself lands at the domain's next
    /// quiescent instant.
    pub fn blocks_retired(&self) -> usize {
        self.retired_count.load(Ordering::Relaxed)
    }

    /// Force this out-set's pending block retirements through (a
    /// quiescence-gated attempt; no-op for frozen sets). Test/diagnostic
    /// aid: after `finish` returns and every adder has unpinned, this
    /// makes the swept blocks visible to [`crate::recycle::cached_blocks`]
    /// without waiting for another unpin.
    pub fn drain_retired(&self) -> bool {
        self.domain.as_deref().is_none_or(epoch::Domain::try_collect)
    }
}

impl Default for TreeOutsetObj {
    fn default() -> Self {
        TreeOutsetObj::new()
    }
}

impl Drop for TreeOutsetObj {
    fn drop(&mut self) {
        // Exclusive access: free through the newest table, which by
        // monotonicity points to every lane (and thus block) ever
        // allocated. Superseded tables are not ours to free — the epoch
        // shim owns them.
        let table_ptr = *self.table.get_mut();
        // SAFETY: the current table is unlinked by this very drop; every
        // lane pointer in it was leaked from a Box in `with_policy` or
        // `try_split`, and every block from `claim_slot`.
        let table = unsafe { Box::from_raw(table_ptr) };
        let mut dropped = 0u64;
        for &lane_ptr in table.lanes.iter() {
            let mut lane = unsafe { Box::from_raw(lane_ptr) };
            let mut head = *lane.head.get_mut();
            while !head.is_null() {
                let block = unsafe { Box::from_raw(head) };
                dropped += 1;
                head = block.next;
            }
        }
        // For a recycling out-set that was finished, the chains were
        // already retired by the sweep: only post-seal straggler blocks
        // (and never-finished sets) reach the allocator here.
        if dropped > 0 {
            obs::counter!("outset.blocks_dropped").add(dropped);
        }
    }
}

/// The [`OutsetFamily`] of [`TreeOutsetObj`].
pub struct TreeOutset;

impl OutsetFamily for TreeOutset {
    type Outset = TreeOutsetObj;
    const NAME: &'static str = "outset-tree";

    fn make() -> TreeOutsetObj {
        TreeOutsetObj::new()
    }

    fn make_hinted(expected_dependents: usize) -> TreeOutsetObj {
        TreeOutsetObj::with_fanout_hint(expected_dependents)
    }

    fn add(out: &TreeOutsetObj, token: u64, key: u64) -> AddEdge {
        out.add(token, key)
    }

    fn finish(out: &TreeOutsetObj, sink: &mut dyn FnMut(u64)) -> bool {
        out.finish(sink)
    }

    fn is_finished(out: &TreeOutsetObj) -> bool {
        out.is_finished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_outset_allocates_exactly_one_lane() {
        // The acceptance criterion of the adaptive redesign: creation
        // pays for no contention it has not seen.
        let set = TreeOutsetObj::new();
        assert_eq!(set.lane_count(), 1);
        assert_eq!(set.block_count(), 0);
        assert_eq!(set.splits(), 0);
        let set = TreeOutset::make();
        assert_eq!(set.lane_count(), 1);
    }

    #[test]
    fn blocks_grow_and_free() {
        let set = TreeOutsetObj::with_lanes(1);
        assert_eq!(set.block_count(), 0);
        for t in 0..(3 * BLOCK_SLOTS as u64 + 1) {
            let _ = set.add(t, 0);
        }
        assert_eq!(set.block_count(), 4, "ceil((3B+1)/B) blocks on one lane");
        let mut n = 0;
        assert!(set.finish(&mut |_| n += 1));
        assert_eq!(n, 3 * BLOCK_SLOTS + 1);
        // Drop runs at scope end; asan-less smoke: no crash.
    }

    #[test]
    fn lanes_spread_by_key() {
        let set = TreeOutsetObj::with_lanes(8);
        for key in 0..64u64 {
            let _ = set.add(key, key);
        }
        assert!(
            set.block_count() >= 4,
            "64 distinct keys should touch several of 8 lanes, got {} blocks",
            set.block_count()
        );
    }

    #[test]
    fn with_lanes_rounds_and_never_grows() {
        for (ask, want) in [(0usize, 1usize), (1, 1), (2, 2), (3, 4), (5, 8), (6, 8), (16, 16)] {
            let set = TreeOutsetObj::with_lanes(ask);
            assert_eq!(set.lane_count(), want, "with_lanes({ask})");
            assert!(!set.force_split(), "with_lanes({ask}) must stay fixed");
            assert_eq!(set.lane_count(), want);
        }
    }

    #[test]
    fn with_policy_clamps_initial_to_cap() {
        let set = TreeOutsetObj::with_policy(64, GrowthPolicy::eager(4));
        assert_eq!(set.lane_count(), 4);
        let set = TreeOutsetObj::with_policy(0, GrowthPolicy::eager(4));
        assert_eq!(set.lane_count(), 1);
    }

    #[test]
    fn never_coin_freezes_even_with_headroom() {
        // A NEVER policy promises the add path an immutable table, so
        // force_split must refuse even though the cap leaves room.
        let set = TreeOutsetObj::with_policy(1, GrowthPolicy::fixed(8));
        assert!(!set.force_split());
        assert_eq!(set.lane_count(), 1);
        // Born at the cap: frozen too, whatever the coin.
        let set = TreeOutsetObj::with_policy(8, GrowthPolicy::eager(8));
        assert!(!set.force_split());
        assert_eq!(set.lane_count(), 8);
    }

    #[test]
    fn force_split_doubles_until_cap() {
        let set = TreeOutsetObj::with_policy(1, GrowthPolicy::eager(8));
        for want in [2usize, 4, 8] {
            assert!(set.force_split());
            assert_eq!(set.lane_count(), want);
        }
        assert!(!set.force_split(), "capped at max_lanes");
        assert_eq!(set.lane_count(), 8);
        assert_eq!(set.splits(), 3);
    }

    #[test]
    fn tokens_survive_splits_exactly_once() {
        // Claim slots through three different table generations, then
        // sweep: the newest table must reach every block (lane sharing).
        let set = TreeOutsetObj::with_policy(1, GrowthPolicy::eager(16));
        let mut expect = Vec::new();
        let mut token = 0u64;
        for round in 0..4 {
            for k in 0..(2 * BLOCK_SLOTS as u64) {
                assert_eq!(set.add(token, k), AddEdge::Registered);
                expect.push(token);
                token += 1;
            }
            if round < 3 {
                assert!(set.force_split());
            }
        }
        assert_eq!(set.lane_count(), 8);
        let mut got = Vec::new();
        assert!(set.finish(&mut |t| got.push(t)));
        got.sort_unstable();
        assert_eq!(got, expect, "every token from every generation, exactly once");
    }

    #[test]
    fn split_after_seal_is_refused() {
        let set = TreeOutsetObj::with_policy(1, GrowthPolicy::eager(8));
        assert!(set.finish(&mut |_| {}));
        assert!(!set.force_split());
        assert_eq!(set.lane_count(), 1);
    }

    #[test]
    fn fanout_hint_presizes_within_cap() {
        let set = TreeOutsetObj::with_fanout_hint(1);
        assert_eq!(set.lane_count(), 1, "single-dependent hint takes the fast path");
        let set = TreeOutsetObj::with_fanout_hint(10_000);
        assert!(set.lane_count() > 1, "broadcast hint pre-spreads");
        assert!(set.lane_count() <= GrowthPolicy::default_max_lanes());
    }

    #[test]
    fn footprint_starts_small_and_tracks_growth() {
        let fresh = TreeOutsetObj::new();
        let one_lane = fresh.footprint_bytes();
        let _ = fresh.add(7, 0);
        let after_add = fresh.footprint_bytes();
        assert!(after_add > one_lane, "first add allocates the first block");
        let wide = TreeOutsetObj::with_lanes(16);
        assert!(
            wide.footprint_bytes() > one_lane,
            "a 16-lane table must cost more than the adaptive start (even \
             though the adaptive one also carries its private epoch domain)"
        );
    }

    #[test]
    fn frozen_outsets_carry_no_domain() {
        // A fixed table never pins, so it must not pay for a domain:
        // same lane count, strictly smaller footprint than a growable
        // table of the same width.
        let frozen = TreeOutsetObj::with_lanes(4);
        let growable = TreeOutsetObj::with_policy(4, GrowthPolicy::eager(8));
        assert_eq!(frozen.lane_count(), growable.lane_count());
        assert!(
            frozen.footprint_bytes() < growable.footprint_bytes(),
            "domain bytes must only be charged to growable out-sets"
        );
    }

    #[test]
    fn footprint_matches_equivalent_born_table_after_growth() {
        // Regression (ISSUE 6 satellite): the probe used to re-load the
        // table through `block_count`'s *separate* pin, so the sum could
        // mix two generations around a split (and over-count a table
        // header). The probe must reflect the live generation only:
        // growing 1 → 8 lanes must cost exactly what an equivalent
        // 8-lane growable table costs, with zero residue per split.
        let grown = TreeOutsetObj::with_policy(1, GrowthPolicy::eager(8));
        while grown.force_split() {}
        assert_eq!(grown.lane_count(), 8);
        assert_eq!(grown.splits(), 3);
        let born = TreeOutsetObj::with_policy(8, GrowthPolicy::eager(16));
        assert_eq!(born.lane_count(), 8);
        assert_eq!(
            grown.footprint_bytes(),
            born.footprint_bytes(),
            "split history must leave no residue in the footprint"
        );
        // Identical add sequences keep the probes identical, and the
        // probe is stable across repeated reads.
        for t in 0..(2 * BLOCK_SLOTS as u64) {
            let _ = grown.add(t, t);
            let _ = born.add(t, t);
        }
        assert_eq!(grown.footprint_bytes(), born.footprint_bytes());
        assert_eq!(grown.footprint_bytes(), grown.footprint_bytes());
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_tokens_rejected() {
        let set = TreeOutsetObj::new();
        let _ = set.add(u64::MAX, 0);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn poison_adjacent_token_rejected() {
        // u64::MAX - 2 would bias to the poison stamp's neighbourhood.
        let set = TreeOutsetObj::new();
        let _ = set.add(u64::MAX - 2, 0);
    }

    #[test]
    fn max_token_round_trips() {
        // The largest legal token must survive biasing and sweeping
        // without colliding with SWEPT or POISON.
        let set = TreeOutsetObj::new();
        assert_eq!(set.add(MAX_TOKEN, 0), AddEdge::Registered);
        let mut got = Vec::new();
        assert!(set.finish(&mut |t| got.push(t)));
        assert_eq!(got, vec![MAX_TOKEN]);
        assert_eq!(set.add(MAX_TOKEN, 0), AddEdge::Finished(MAX_TOKEN));
    }

    #[test]
    fn only_growable_sets_recycle() {
        // Frozen out-sets must never recycle (retirement needs the
        // domain): their swept chains stay linked until `Drop`.
        for frozen in
            [TreeOutsetObj::with_lanes(4), TreeOutsetObj::with_policy(8, GrowthPolicy::eager(8))]
        {
            for t in 0..(BLOCK_SLOTS as u64 + 1) {
                let _ = frozen.add(t, 0);
            }
            assert!(frozen.finish(&mut |_| {}));
            assert_eq!(frozen.blocks_retired(), 0);
            assert!(frozen.block_count() >= 2);
        }
    }

    #[test]
    fn finish_retires_the_swept_chain() {
        let set = TreeOutsetObj::with_policy(1, GrowthPolicy::eager(8));
        let n = 2 * BLOCK_SLOTS as u64 + 1;
        for t in 0..n {
            assert_eq!(set.add(t, 0), AddEdge::Registered);
        }
        assert_eq!(set.block_count(), 3);
        let mut got = Vec::new();
        assert!(set.finish(&mut |t| got.push(t)));
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>(), "retirement must not lose tokens");
        assert_eq!(set.blocks_retired(), 3, "the whole chain is scheduled for the recycler");
        assert_eq!(set.block_count(), 0, "swept chains leave the live footprint immediately");
        assert!(set.drain_retired(), "no pins remain: the retirements must go through");
        // Post-seal adds still bounce and leave no new blocks linked.
        assert_eq!(set.add(7, 0), AddEdge::Finished(7));
        assert_eq!(set.block_count(), 0);
    }

    #[test]
    fn recycled_blocks_are_reusable_same_lane() {
        // ABA-shaped reuse smoke (the full regression battery lives in
        // tests/recycle_races.rs): a block retired by one out-set's
        // sweep serves a later out-set at the same lane index, with the
        // generation stamp and poison checks (debug builds) vouching
        // that no stale state leaks across lives.
        for round in 0..8u64 {
            let set = TreeOutsetObj::with_policy(1, GrowthPolicy::eager(8));
            let base = round * 1000;
            let mut expect = Vec::new();
            for t in 0..(BLOCK_SLOTS as u64 + 3) {
                assert_eq!(set.add(base + t, 0), AddEdge::Registered);
                expect.push(base + t);
            }
            let mut got = Vec::new();
            assert!(set.finish(&mut |t| got.push(t)));
            got.sort_unstable();
            assert_eq!(got, expect, "round {round}");
            set.drain_retired();
        }
    }

    #[test]
    fn footprint_excludes_retired_blocks() {
        let set = TreeOutsetObj::with_policy(1, GrowthPolicy::eager(8));
        let before_adds = set.footprint_bytes();
        for t in 0..(BLOCK_SLOTS as u64 * 2) {
            let _ = set.add(t, 0);
        }
        assert!(set.footprint_bytes() > before_adds);
        set.finish(&mut |_| {});
        assert_eq!(
            set.footprint_bytes(),
            before_adds,
            "a finished growable out-set holds no blocks"
        );
    }
}
