//! The lock-free tree-of-blocks out-set with an adaptive lane table.
//!
//! ## Structure
//!
//! ```text
//!  TreeOutsetObj
//!  ├── sealed : AtomicBool             (the one-shot finish latch)
//!  └── table ──► LaneTable { mask, lanes[L], prev }   (L grows 1, 2, 4, ...)
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
//! The table itself is an indirection: growth allocates a doubled table
//! that **shares** the existing `Lane` allocations and appends fresh
//! ones, installs it with one CAS on the table pointer, and links the
//! superseded table behind it (`prev`) instead of freeing it, so a
//! reader still holding the old table never dangles. Two invariants keep
//! every racing party correct across a split:
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
//! ## Block lifetime
//!
//! Nothing reachable from an out-set — lane tables (current and
//! superseded), lanes, blocks — is freed or reused while any
//! `&TreeOutsetObj` exists: `Drop` needs `&mut`, and it is the only place
//! that frees. So `add`, `finish` and the slot claim dereference every
//! pointer they load without pinning anything, and the sweep reads each
//! lane's chain in place. The only other free is an install-race loser,
//! which was never published. The cost of that simplicity is lifetime:
//! a finished out-set's blocks go back to the allocator when its last
//! handle drops, not when the sweep returns, and a grown set keeps its
//! superseded tables (at most `log2(cap)` pointer arrays, together
//! smaller than the newest one) until then. The out-set is expected to
//! be shared via `Arc` by the completing vertex and all edge-adding
//! handles, so no add or finish can race the destructor.

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use snzi::Probability;

use crate::{AddEdge, GrowthPolicy, OutsetFamily};

/// Slot states: anything `>= TOKEN_BIAS` is a biased token.
const EMPTY: u64 = 0;
const SWEPT: u64 = 1;
const TOKEN_BIAS: u64 = 2;
/// Largest accepted token: the largest that survives the `+TOKEN_BIAS`.
const MAX_TOKEN: u64 = u64::MAX - TOKEN_BIAS;

/// Slots per block (`B` in `docs/outset-contention.md`): a compromise
/// between per-future footprint (futures with one or two dependents —
/// pipelines — pay one ~300 B block on their single lane) and allocation
/// amortization for fan-out-heavy broadcasts (one allocation per 32
/// adds).
const BLOCK_SLOTS: usize = 32;

struct Block {
    /// Next-older block in this lane (immutable after installation).
    next: *mut Block,
    /// Slot cursor; values past `BLOCK_SLOTS` mean "this block was full,
    /// the adder moved on" and are harmless.
    claimed: AtomicUsize,
    slots: [AtomicU64; BLOCK_SLOTS],
}

impl Block {
    fn boxed(next: *mut Block) -> Box<Block> {
        Box::new(Block {
            next,
            claimed: AtomicUsize::new(0),
            slots: std::array::from_fn(|_| AtomicU64::new(EMPTY)),
        })
    }
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
/// table and links the old one behind it; the `Lane` allocations behind
/// the pointers are shared between generations and owned by the newest
/// table.
struct LaneTable {
    /// `lanes.len() - 1`; the length is always a power of two, so key
    /// hashing is a mask.
    mask: u64,
    lanes: Box<[*mut Lane]>,
    /// The generation this one superseded (null for the first), kept
    /// alive until `Drop` so a reader that loaded it never dangles.
    prev: *mut LaneTable,
}

impl LaneTable {
    fn boxed(lanes: Vec<*mut Lane>, prev: *mut LaneTable) -> *mut LaneTable {
        debug_assert!(lanes.len().is_power_of_two());
        let mask = lanes.len() as u64 - 1;
        Box::into_raw(Box::new(LaneTable { mask, lanes: lanes.into_boxed_slice(), prev }))
    }

    /// The lane `key` hashes to in this table generation.
    fn lane_for(&self, key: u64) -> &Lane {
        // Fibonacci hash spreads dense keys (worker ids, addresses).
        let mix = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let idx = ((mix >> 32) & self.mask) as usize;
        // SAFETY: lanes are freed only in `Drop`, which outlives every
        // borrow of the table (see "Block lifetime").
        unsafe { &*self.lanes[idx] }
    }
}

/// The lock-free tree-of-blocks out-set (see module docs).
pub struct TreeOutsetObj {
    sealed: AtomicBool,
    /// Current lane-table generation; swapped wholesale by growth.
    table: AtomicPtr<LaneTable>,
    policy: GrowthPolicy,
    /// Whether this out-set can ever split (a positive coin and headroom
    /// under the cap), fixed at construction. When `false` the table
    /// pointer is immutable for the object's whole life: fixed-lane
    /// baselines and tables born at their cap never flip the coin.
    growable: bool,
    /// Monotone mirror of the table size, so probes (and the growth cap
    /// check) need not chase the table pointer.
    lanes_approx: AtomicUsize,
    /// Successful lane splits (diagnostic, see [`splits`](Self::splits)).
    split_count: AtomicUsize,
    /// Lost block-install CASes (diagnostic — the contention signal that
    /// feeds the growth coin; see [`install_races`](Self::install_races)).
    race_count: AtomicUsize,
}

// SAFETY: all shared state is atomics; table, lane and block pointers
// are published via SeqCst CAS and freed only in Drop (exclusive access).
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
    /// [`force_split`](Self::force_split) refuses).
    pub fn with_policy(initial_lanes: usize, policy: GrowthPolicy) -> TreeOutsetObj {
        let initial = initial_lanes.max(1).next_power_of_two().min(policy.max_lanes());
        let lanes: Vec<*mut Lane> = (0..initial).map(|_| Lane::boxed()).collect();
        let growable = initial < policy.max_lanes() && policy.probability() != Probability::NEVER;
        obs::counter!("outset.created").inc();
        TreeOutsetObj {
            sealed: AtomicBool::new(false),
            table: AtomicPtr::new(LaneTable::boxed(lanes, std::ptr::null_mut())),
            policy,
            growable,
            lanes_approx: AtomicUsize::new(initial),
            split_count: AtomicUsize::new(0),
            race_count: AtomicUsize::new(0),
        }
    }

    /// Register `token`; see [`OutsetFamily::add`] for the contract.
    ///
    /// Telemetry conservation invariant (checked by `harness obs
    /// --assert-bound`): every add ends up in exactly one of
    /// `outset.adds_bounced` (delivered inline, [`AddEdge::Finished`])
    /// or — once the out-set is sealed — `outset.swept` (delivered by
    /// the sweep), so `adds == adds_bounced + swept` after seal.
    pub fn add(&self, token: u64, key: u64) -> AddEdge {
        assert!(token <= MAX_TOKEN, "tokens u64::MAX-1..=u64::MAX are reserved");
        obs::counter!("outset.adds").inc();
        if self.sealed.load(Ordering::SeqCst) {
            obs::counter!("outset.adds_bounced").inc();
            return AddEdge::Finished(token);
        }
        let slot = self.claim_slot(key);
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
    /// as needed.
    fn claim_slot(&self, key: u64) -> &AtomicU64 {
        loop {
            // Re-read the table every round: a split (ours or a
            // competitor's) re-hashes the key over more lanes.
            let table_ptr = self.table.load(Ordering::SeqCst);
            // SAFETY: tables are freed only in `Drop` (module docs).
            let lane = unsafe { (*table_ptr).lane_for(key) };
            let head = lane.head.load(Ordering::SeqCst);
            if !head.is_null() {
                // SAFETY: linked blocks are freed only in `Drop`.
                let block = unsafe { &*head };
                let idx = block.claimed.fetch_add(1, Ordering::SeqCst);
                if idx < BLOCK_SLOTS {
                    return &block.slots[idx];
                }
                // Block full (the cursor overshoot is benign): fall
                // through and try to install a fresh head.
            }
            obs::counter!("outset.blocks_allocated").inc();
            let fresh = Box::into_raw(Block::boxed(head));
            // Failpoint (no-op unless `fault-inject` arms it): skip the
            // install attempt and take the lost-CAS branch as if a
            // competitor won — the never-published block is freed, the
            // split coin flips, and the loop retries. Deterministically
            // exercises the contention transient the adaptive policy is
            // built around, on a single quiet thread if need be.
            let lost = sched::failpoint::fire("outset.install_cas")
                || lane
                    .head
                    .compare_exchange(head, fresh, Ordering::SeqCst, Ordering::SeqCst)
                    .is_err();
            if lost {
                // Lost the install race: free the never-published block
                // and retry on the winner.
                // SAFETY: never published, exclusively ours.
                drop(unsafe { Box::from_raw(fresh) });
                obs::counter!("outset.blocks_dropped").inc();
                // A lost CAS is direct evidence of a concurrent adder on
                // this lane: flip the split coin (the adaptive analogue
                // of the in-counter's per-increment grow coin).
                self.race_count.fetch_add(1, Ordering::Relaxed);
                obs::counter!("outset.lost_cas").inc();
                if self.growable && self.policy.flip() {
                    self.try_split(table_ptr);
                }
            }
        }
    }

    /// Attempt to double the lane table from the generation `old`. Loses
    /// silently to concurrent splits; no-op when frozen, at the policy
    /// cap or once sealed.
    fn try_split(&self, old: *mut LaneTable) {
        if !self.growable {
            // A NEVER coin (or a table born at its cap) promised an
            // immutable table; splitting here — reachable via
            // `force_split` — would break that promise.
            return;
        }
        // SAFETY: `old` was loaded from `self.table`; tables are freed
        // only in `Drop`.
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
        let fresh = LaneTable::boxed(lanes, old);
        match self.table.compare_exchange(old, fresh, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => {
                self.lanes_approx.fetch_max(old_len * 2, Ordering::Relaxed);
                self.split_count.fetch_add(1, Ordering::Relaxed);
                obs::counter!("outset.splits").inc();
                obs::trace::record(obs::EventKind::LaneSplit, (old_len * 2) as u64);
            }
            Err(_) => {
                // A competitor split first; discard our never-published
                // generation and the fresh lanes only it knew about (its
                // `prev` is the competitor's now).
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
        let before = self.split_count.load(Ordering::Relaxed);
        self.try_split(self.table.load(Ordering::SeqCst));
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
        // Loaded after the seal: by lane-set monotonicity this table
        // contains every lane a pre-seal adder could have claimed through.
        // SAFETY: tables are freed only in `Drop`.
        let table = unsafe { &*self.table.load(Ordering::SeqCst) };
        for &lane_ptr in table.lanes.iter() {
            // Every pre-seal publish lives in a block linked before this
            // load (installing a block requires claiming through it, and
            // pre-seal claims reach only linked blocks); an adder that
            // installs a fresh head afterwards necessarily published
            // after the seal, so it observes `sealed` on its re-check and
            // delivers inline.
            // SAFETY: lanes and blocks are freed only in `Drop`.
            let mut head = unsafe { (*lane_ptr).head.load(Ordering::SeqCst) };
            while !head.is_null() {
                let block = unsafe { &*head };
                let claimed = block.claimed.load(Ordering::SeqCst).min(BLOCK_SLOTS);
                for slot in &block.slots[..claimed] {
                    let prev = slot.swap(SWEPT, Ordering::SeqCst);
                    if prev >= TOKEN_BIAS {
                        delivered += 1;
                        sink(prev - TOKEN_BIAS);
                    }
                    // prev == EMPTY: the claiming adder has not published
                    // yet; its publish CAS will fail and deliver inline.
                }
                head = block.next;
            }
        }
        obs::counter!("outset.swept").add(delivered);
        obs::histogram!("outset.sweep_ns").record_since(sweep_start);
        obs::trace::record_span(obs::EventKind::Sweep, delivered, sweep_start);
        true
    }

    /// Racy seal snapshot.
    pub fn is_finished(&self) -> bool {
        self.sealed.load(Ordering::SeqCst)
    }

    /// Current lane count (a racy but monotone snapshot — the
    /// growth-curve probe).
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
    fn blocks_in(table: &LaneTable) -> usize {
        let mut n = 0;
        for &lane_ptr in table.lanes.iter() {
            // SAFETY: lanes and blocks are freed only in `Drop`; the
            // caller's `&self` keeps them alive.
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
        // SAFETY: tables are freed only in `Drop`.
        Self::blocks_in(unsafe { &*self.table.load(Ordering::SeqCst) })
    }

    /// Bytes of heap currently held (the live table, every superseded
    /// table it keeps, lanes and blocks), plus the object itself — the
    /// footprint-study probe. Quiescent use only (the walk is racy under
    /// concurrent growth).
    ///
    /// Everything is computed from **one** load of the live table
    /// generation, so a split landing mid-probe cannot mix generations
    /// in the sum (see the
    /// `footprint_matches_equivalent_born_table_after_growth` test).
    pub fn footprint_bytes(&self) -> usize {
        // SAFETY: tables are freed only in `Drop`.
        let table = unsafe { &*self.table.load(Ordering::SeqCst) };
        let mut tables = 0;
        let mut gen: *const LaneTable = table;
        while !gen.is_null() {
            // SAFETY: superseded tables live as long as the newest one.
            let t = unsafe { &*gen };
            tables +=
                std::mem::size_of::<LaneTable>() + t.lanes.len() * std::mem::size_of::<*mut Lane>();
            gen = t.prev;
        }
        std::mem::size_of::<Self>()
            + tables
            + table.lanes.len() * std::mem::size_of::<Lane>()
            + Self::blocks_in(table) * std::mem::size_of::<Block>()
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
        // allocated, then the superseded tables (pointer arrays only —
        // their lanes are the newest table's).
        // SAFETY: every table was leaked from a Box in `LaneTable::boxed`,
        // every lane from `Lane::boxed` and every block from
        // `claim_slot`; each is reachable exactly once below.
        let table = unsafe { Box::from_raw(*self.table.get_mut()) };
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
        let mut prev = table.prev;
        while !prev.is_null() {
            let superseded = unsafe { Box::from_raw(prev) };
            prev = superseded.prev;
        }
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
        // A NEVER policy promises an immutable table, so force_split
        // must refuse even though the cap leaves room.
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
    fn footprint_starts_small_and_tracks_growth() {
        let fresh = TreeOutsetObj::new();
        let one_lane = fresh.footprint_bytes();
        let _ = fresh.add(7, 0);
        let after_add = fresh.footprint_bytes();
        assert!(after_add > one_lane, "first add allocates the first block");
        let wide = TreeOutsetObj::with_lanes(16);
        assert!(
            wide.footprint_bytes() > one_lane,
            "a 16-lane table must cost more than the adaptive start"
        );
    }

    #[test]
    fn adaptive_start_costs_what_a_frozen_lane_costs() {
        // Growability is a policy, not a resource: a fresh adaptive
        // out-set holds exactly what a frozen single-lane one holds.
        let adaptive = TreeOutsetObj::new();
        let frozen = TreeOutsetObj::with_lanes(1);
        assert_eq!(adaptive.lane_count(), frozen.lane_count());
        assert_eq!(adaptive.footprint_bytes(), frozen.footprint_bytes());
    }

    #[test]
    fn footprint_matches_equivalent_born_table_after_growth() {
        // Regression: the probe used to re-load the table through
        // `block_count`'s separate load, so the sum could mix two
        // generations around a split (and over-count a table header).
        // The probe must charge the live generation plus exactly the
        // superseded pointer arrays it keeps: growing 1 → 8 lanes costs
        // what an 8-lane table costs plus the 1-, 2- and 4-lane tables.
        let grown = TreeOutsetObj::with_policy(1, GrowthPolicy::eager(8));
        while grown.force_split() {}
        assert_eq!(grown.lane_count(), 8);
        assert_eq!(grown.splits(), 3);
        let born = TreeOutsetObj::with_policy(8, GrowthPolicy::eager(16));
        assert_eq!(born.lane_count(), 8);
        let superseded =
            3 * std::mem::size_of::<LaneTable>() + (1 + 2 + 4) * std::mem::size_of::<*mut Lane>();
        assert_eq!(
            grown.footprint_bytes(),
            born.footprint_bytes() + superseded,
            "split history costs exactly the superseded tables"
        );
        // Identical add sequences keep the probes in step, and the probe
        // is stable across repeated reads.
        for t in 0..(2 * BLOCK_SLOTS as u64) {
            let _ = grown.add(t, t);
            let _ = born.add(t, t);
        }
        assert_eq!(grown.footprint_bytes(), born.footprint_bytes() + superseded);
        assert_eq!(grown.footprint_bytes(), grown.footprint_bytes());
    }

    #[test]
    fn finished_sets_keep_their_chain_until_drop() {
        // The sweep reads chains in place: a finished out-set still holds
        // every block it grew, and post-seal adds bounce without adding
        // any.
        let set = TreeOutsetObj::with_policy(1, GrowthPolicy::eager(8));
        let n = 2 * BLOCK_SLOTS as u64 + 1;
        for t in 0..n {
            assert_eq!(set.add(t, 0), AddEdge::Registered);
        }
        let held = set.footprint_bytes();
        let mut got = Vec::new();
        assert!(set.finish(&mut |t| got.push(t)));
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
        assert_eq!(set.block_count(), 3);
        assert_eq!(set.add(7, 0), AddEdge::Finished(7));
        assert_eq!(set.block_count(), 3);
        assert_eq!(set.footprint_bytes(), held);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_tokens_rejected() {
        let set = TreeOutsetObj::new();
        let _ = set.add(u64::MAX, 0);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn first_reserved_token_rejected() {
        // MAX_TOKEN + 1 would overflow the slot-state bias.
        let set = TreeOutsetObj::new();
        let _ = set.add(MAX_TOKEN + 1, 0);
    }

    #[test]
    fn max_token_round_trips() {
        // The largest legal token must survive biasing and sweeping
        // without colliding with EMPTY or SWEPT.
        let set = TreeOutsetObj::new();
        assert_eq!(set.add(MAX_TOKEN, 0), AddEdge::Registered);
        let mut got = Vec::new();
        assert!(set.finish(&mut |t| got.push(t)));
        assert_eq!(got, vec![MAX_TOKEN]);
        assert_eq!(set.add(MAX_TOKEN, 0), AddEdge::Finished(MAX_TOKEN));
    }
}
