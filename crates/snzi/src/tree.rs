//! The dynamically growing SNZI tree (Section 2 of the paper).
//!
//! A [`SnziTree`] starts as a single root and is extended at run time by
//! [`grow`](SnziTree::grow): given a handle to any node, `grow` flips a
//! `p`-biased coin and, on heads, tries to atomically install a freshly
//! allocated pair of children under that node. The coin is flipped *before*
//! the children pointer is read — the paper's key adversary-resistance
//! property — so that even fully concurrent calls return "no children" at
//! most `1/p` times in expectation.
//!
//! The tree owns every node it ever created; nodes are freed only when the
//! tree is dropped (an explicit early-release discipline for finished
//! subtrees, following the paper's Appendix B, is provided by
//! [`prune_children`](SnziTree::prune_children)). [`Handle`]s are plain
//! copyable pointers into the tree, which is why the handle-based
//! operations are `unsafe`: the caller must keep the tree alive and respect
//! execution validity. The `incounter`/`spdag` crates enforce both
//! structurally.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::coin::{Coin, Probability, ThreadCoin};
use crate::node::{node_arrive, node_depart, ChildPair, Node, OpPath, ParentRef};
use crate::packed::MAX_ROOT_SURPLUS;
use crate::root::Root;
use crate::stats::{StatsSnapshot, TreeStats};

static TREE_IDS: AtomicU32 = AtomicU32::new(1);

/// Allocate a fresh tree identity (shared with [`FixedSnzi`](crate::FixedSnzi)).
pub(crate) fn next_tree_id() -> u32 {
    TREE_IDS.fetch_add(1, Ordering::Relaxed)
}

#[derive(Copy, Clone)]
pub(crate) enum NodeRefInner {
    Root(*const Root),
    Node(*const Node),
}

/// An opaque, copyable reference to a node of a [`SnziTree`] (or of a
/// [`FixedSnzi`](crate::FixedSnzi)).
///
/// A handle is only meaningful together with the tree that produced it; all
/// operations consuming handles are `unsafe` with that contract. Handles
/// are freely copyable and sendable because the underlying nodes are
/// reachable until the owning tree is dropped.
#[derive(Copy, Clone)]
pub struct Handle(pub(crate) NodeRefInner);

// SAFETY: a Handle is an address; the pointee is Sync and kept alive by
// the owning tree per the documented contract.
unsafe impl Send for Handle {}
unsafe impl Sync for Handle {}

impl std::fmt::Debug for Handle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            NodeRefInner::Root(p) => write!(f, "Handle(root {p:p})"),
            NodeRefInner::Node(p) => write!(f, "Handle(node {p:p})"),
        }
    }
}

impl Handle {
    /// Depth of the referenced node (root = 0). Diagnostic use.
    ///
    /// # Safety
    /// The owning tree must be alive.
    pub unsafe fn depth(self) -> u32 {
        match self.0 {
            NodeRefInner::Root(_) => 0,
            // SAFETY: caller contract.
            NodeRefInner::Node(n) => unsafe { (*n).depth },
        }
    }

    /// Whether this handle references the tree root.
    pub fn is_root(self) -> bool {
        matches!(self.0, NodeRefInner::Root(_))
    }

    /// Pointer identity, for assertions about handle distinctness.
    pub fn addr(self) -> usize {
        match self.0 {
            NodeRefInner::Root(p) => p as usize,
            NodeRefInner::Node(p) => p as usize,
        }
    }
}

/// A dynamically growing scalable non-zero indicator.
pub struct SnziTree {
    root: Box<Root>,
    p: Probability,
    id: u32,
    /// When set, operations pin an epoch guard so that subtrees detached
    /// by [`prune_children_deferred`](SnziTree::prune_children_deferred)
    /// are reclaimed only after all straggling operations have left them
    /// (the Appendix B shrinking discipline).
    pub(crate) shrinkable: bool,
    stats: TreeStats,
}

impl SnziTree {
    /// Create a tree with the given initial surplus and growth probability
    /// `p = 1` (grow on every call) — the regime of the paper's analysis.
    pub fn new(initial: u64) -> SnziTree {
        SnziTree::with_probability(initial, Probability::ALWAYS)
    }

    /// Create a tree with the given initial surplus and growth probability.
    pub fn with_probability(initial: u64, p: Probability) -> SnziTree {
        assert!(initial <= MAX_ROOT_SURPLUS as u64, "initial surplus too large");
        let id = next_tree_id();
        obs::counter!("snzi.trees_created").inc();
        SnziTree {
            root: Box::new(Root::new(initial as u32, id)),
            p,
            id,
            shrinkable: false,
            stats: TreeStats::default(),
        }
    }

    /// Enable epoch-protected dynamic shrinking (Appendix B): operations
    /// pin an epoch guard (a few nanoseconds each) and
    /// [`prune_children_deferred`](SnziTree::prune_children_deferred)
    /// becomes tolerant of in-flight operations in the pruned subtree.
    /// Must be called before the tree is shared.
    pub fn shrinkable(mut self) -> SnziTree {
        self.shrinkable = true;
        self
    }

    /// The growth probability this tree was configured with.
    pub fn probability(&self) -> Probability {
        self.p
    }

    /// Handle to the root node.
    pub fn root_handle(&self) -> Handle {
        Handle(NodeRefInner::Root(&*self.root))
    }

    /// `query`: does the tree have surplus? Reads one word at the root.
    #[inline]
    pub fn query(&self) -> bool {
        self.root.query()
    }

    #[inline]
    fn check_handle(&self, h: Handle) {
        #[cfg(debug_assertions)]
        {
            let tid = match h.0 {
                // SAFETY: part of the arrive/depart/grow caller contract.
                NodeRefInner::Root(r) => unsafe { (*r).tree_id },
                NodeRefInner::Node(n) => unsafe { (*n).tree_id },
            };
            assert_eq!(tid, self.id, "handle used with a tree that does not own it");
        }
        let _ = h;
    }

    /// `arrive`: increment the relaxed counter starting at `h`.
    ///
    /// # Safety
    /// `h` must have been produced by this tree, and the tree must outlive
    /// the call.
    #[inline]
    pub unsafe fn arrive(&self, h: Handle) {
        // SAFETY: forwarded contract.
        let _ = unsafe { self.arrive_counted(h) };
    }

    /// As [`arrive`](Self::arrive), returning the propagation path counts.
    ///
    /// # Safety
    /// As [`arrive`](Self::arrive).
    pub unsafe fn arrive_counted(&self, h: Handle) -> OpPath {
        self.check_handle(h);
        let _guard = self.pin_if_shrinkable();
        let path = match h.0 {
            // SAFETY: caller contract.
            NodeRefInner::Root(r) => unsafe { (*r).arrive() },
            NodeRefInner::Node(n) => unsafe { node_arrive(&*n) },
        };
        self.stats.record_arrive(path.arrives);
        path
    }

    /// `depart`: decrement the relaxed counter starting at `h`. Returns
    /// `true` iff this departure ended the tree's non-zero period (i.e.
    /// took the surplus to zero) — the readiness signal.
    ///
    /// # Safety
    /// `h` must have been produced by this tree, the tree must outlive the
    /// call, and the execution must be valid: this departure matches an
    /// earlier completed arrival at the same node that no other departure
    /// consumes.
    #[inline]
    pub unsafe fn depart(&self, h: Handle) -> bool {
        // SAFETY: forwarded contract.
        unsafe { self.depart_counted(h) }.0
    }

    /// As [`depart`](Self::depart), returning the propagation path counts.
    ///
    /// # Safety
    /// As [`depart`](Self::depart).
    pub unsafe fn depart_counted(&self, h: Handle) -> (bool, OpPath) {
        self.check_handle(h);
        let _guard = self.pin_if_shrinkable();
        let (ended, path) = match h.0 {
            // SAFETY: caller contract.
            NodeRefInner::Root(r) => unsafe { (*r).depart() },
            NodeRefInner::Node(n) => unsafe { node_depart(&*n) },
        };
        self.stats.record_depart(path.departs);
        (ended, path)
    }

    /// `grow` (the paper's Figure 2): flip the tree's coin and, on heads,
    /// try to install a fresh pair of children under `h`. Returns handles
    /// to `h`'s children if it has any (whether installed by this call or
    /// an earlier one) and `(h, h)` otherwise.
    ///
    /// # Safety
    /// `h` must have been produced by this tree and the tree must outlive
    /// the call.
    #[inline]
    pub unsafe fn grow(&self, h: Handle) -> (Handle, Handle) {
        // SAFETY: forwarded contract.
        unsafe { self.grow_with(h, &mut ThreadCoin) }
    }

    /// As [`grow`](Self::grow) with an explicit coin source (deterministic
    /// tests, benchmark reproducibility).
    ///
    /// # Safety
    /// As [`grow`](Self::grow).
    pub unsafe fn grow_with(&self, h: Handle, coin: &mut impl Coin) -> (Handle, Handle) {
        // Flip before reading the children pointer: an adversary that
        // cannot see local coins cannot force more than 1/p childless
        // returns in expectation (Section 2).
        let heads = coin.flip(self.p);
        // SAFETY: forwarded contract.
        unsafe { self.grow_impl(h, heads) }
    }

    /// `grow` with the coin forced to heads; used by tests and by callers
    /// that have already made the growth decision.
    ///
    /// # Safety
    /// As [`grow`](Self::grow).
    pub unsafe fn grow_always(&self, h: Handle) -> (Handle, Handle) {
        // SAFETY: forwarded contract.
        unsafe { self.grow_impl(h, true) }
    }

    #[inline]
    pub(crate) fn pin_if_shrinkable(&self) -> Option<crossbeam::epoch::Guard<'static>> {
        if self.shrinkable {
            Some(crossbeam::epoch::pin())
        } else {
            None
        }
    }

    unsafe fn grow_impl(&self, h: Handle, heads: bool) -> (Handle, Handle) {
        self.check_handle(h);
        let _guard = self.pin_if_shrinkable();
        let (children, parent_ref, depth) = match h.0 {
            // SAFETY: caller contract.
            NodeRefInner::Root(r) => unsafe { (&(*r).children, ParentRef::Root(r), 0) },
            NodeRefInner::Node(n) => unsafe { (&(*n).children, ParentRef::Node(n), (*n).depth) },
        };
        if heads && children.load(Ordering::Acquire).is_null() {
            let pair = Box::into_raw(Box::new(ChildPair {
                left: Node::new(parent_ref, self.id, depth + 1),
                right: Node::new(parent_ref, self.id, depth + 1),
            }));
            match children.compare_exchange(
                std::ptr::null_mut(),
                pair,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.stats.grow_installs.fetch_add(1, Ordering::Relaxed);
                    obs::counter!("snzi.grow_installs").inc();
                }
                Err(_) => {
                    // Lost the race; reclaim the local allocation.
                    // SAFETY: `pair` came from Box::into_raw above and was
                    // never published.
                    drop(unsafe { Box::from_raw(pair) });
                    self.stats.grow_losses.fetch_add(1, Ordering::Relaxed);
                    obs::counter!("snzi.grow_losses").inc();
                }
            }
        }
        let c = children.load(Ordering::Acquire);
        if c.is_null() {
            return (h, h);
        }
        // SAFETY: `c` points to a pair owned by this tree, alive until drop.
        let pair = unsafe { &*c };
        (Handle(NodeRefInner::Node(&pair.left)), Handle(NodeRefInner::Node(&pair.right)))
    }

    /// Detach and free the entire subtree **below** `h` (excluding `h`
    /// itself), following the paper's Appendix B safety property: once the
    /// dag vertex owning the increment handle to `h` has finished, no live
    /// handle points into `h`'s subtree, so it may be deleted.
    ///
    /// Returns the number of nodes freed.
    ///
    /// # Safety
    /// `h` must have been produced by this tree, the tree must outlive the
    /// call, and — this is the Appendix B obligation — no other thread may
    /// concurrently access any node strictly below `h`, now or later.
    pub unsafe fn prune_children(&self, h: Handle) -> u64 {
        self.check_handle(h);
        let children = match h.0 {
            // SAFETY: caller contract.
            NodeRefInner::Root(r) => unsafe { &(*r).children },
            NodeRefInner::Node(n) => unsafe { &(*n).children },
        };
        let first = children.swap(std::ptr::null_mut(), Ordering::AcqRel);
        // SAFETY: exclusive access below `h` per caller contract.
        let freed = unsafe { free_subtrees(first) };
        self.stats.pruned_pairs.fetch_add(freed / 2, Ordering::Relaxed);
        obs::counter!("snzi.pruned_pairs").add(freed / 2);
        freed
    }

    /// Walk the tree and return `(node_count, max_touch, total_touch)`
    /// where the touch figures come from the per-node instrumentation.
    /// Intended for tests and reports; takes `&mut self` so no operations
    /// race the traversal. Touch figures read 0 when telemetry is
    /// compiled out.
    pub fn contention_profile(&mut self) -> ContentionProfile {
        let mut nodes = 1u64;
        let mut max_touch = self.root.touches.load(Ordering::Relaxed);
        let mut total_touch = max_touch;
        let mut max_depth = 0u32;
        let mut stack = Vec::new();
        let first = self.root.children.load(Ordering::Relaxed);
        if !first.is_null() {
            stack.push(first);
        }
        while let Some(p) = stack.pop() {
            // SAFETY: &mut self means no concurrent mutation; pointers in
            // the children graph are owned by this tree.
            let pair = unsafe { &*p };
            for child in [&pair.left, &pair.right] {
                nodes += 1;
                let t = child.touches.load(Ordering::Relaxed);
                max_touch = max_touch.max(t);
                total_touch += t;
                max_depth = max_depth.max(child.depth);
                let c = child.children.load(Ordering::Relaxed);
                if !c.is_null() {
                    stack.push(c);
                }
            }
        }
        ContentionProfile { nodes, max_touch, total_touch, max_depth }
    }

    /// Snapshot of the per-tree operation statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Internal access for the shrink module.
    pub(crate) fn stats_ref(&self) -> &TreeStats {
        &self.stats
    }

    /// Internal: the children slot of a handle's node.
    ///
    /// # Safety
    /// `h` must belong to this tree, which must be alive.
    pub(crate) unsafe fn children_slot(
        &self,
        h: Handle,
    ) -> &std::sync::atomic::AtomicPtr<ChildPair> {
        match h.0 {
            // SAFETY: caller contract.
            NodeRefInner::Root(r) => unsafe { &(*r).children },
            NodeRefInner::Node(n) => unsafe { &(*n).children },
        }
    }

    /// Root surplus, for tests.
    #[doc(hidden)]
    pub fn root_surplus_for_test(&self) -> u32 {
        self.root.surplus()
    }
}

/// Result of [`SnziTree::contention_profile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentionProfile {
    /// Total nodes in the tree (root included).
    pub nodes: u64,
    /// Maximum non-trivial steps applied to any single node — the paper's
    /// Theorem 4.9 bounds this by 6 under the in-counter discipline.
    pub max_touch: u64,
    /// Sum of non-trivial steps across all nodes.
    pub total_touch: u64,
    /// Deepest node in the tree.
    pub max_depth: u32,
}

/// Free the chain of child pairs rooted at `first` iteratively (the tree
/// can be deep; recursion would risk stack overflow).
///
/// # Safety
/// The caller must have exclusive access to the whole subtree.
pub(crate) unsafe fn free_subtrees(first: *mut ChildPair) -> u64 {
    let mut freed = 0u64;
    let mut stack = Vec::new();
    if !first.is_null() {
        stack.push(first);
    }
    while let Some(p) = stack.pop() {
        // SAFETY: exclusive access per caller contract; pointer originates
        // from Box::into_raw in grow_impl.
        let pair = unsafe { Box::from_raw(p) };
        for child in [&pair.left, &pair.right] {
            let c = child.children.load(Ordering::Relaxed);
            if !c.is_null() {
                stack.push(c);
            }
        }
        freed += 2;
    }
    freed
}

impl Drop for SnziTree {
    fn drop(&mut self) {
        let first = self.root.children.swap(std::ptr::null_mut(), Ordering::AcqRel);
        // SAFETY: &mut self gives exclusive access to the whole tree.
        unsafe { free_subtrees(first) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coin::XorShift64Star;

    #[test]
    fn fresh_tree_query_matches_initial() {
        assert!(!SnziTree::new(0).query());
        assert!(SnziTree::new(1).query());
        assert!(SnziTree::new(1000).query());
    }

    #[test]
    fn root_arrive_depart() {
        let t = SnziTree::new(0);
        let r = t.root_handle();
        unsafe {
            t.arrive(r);
            assert!(t.query());
            assert!(t.depart(r));
            assert!(!t.query());
        }
    }

    #[test]
    fn grow_installs_children_once() {
        let t = SnziTree::new(0);
        let r = t.root_handle();
        let (l1, r1) = unsafe { t.grow_always(r) };
        let (l2, r2) = unsafe { t.grow_always(r) };
        assert_eq!(l1.addr(), l2.addr());
        assert_eq!(r1.addr(), r2.addr());
        assert_ne!(l1.addr(), r1.addr());
        assert_eq!(t.stats().grow_installs, 1);
    }

    #[test]
    fn grow_with_never_coin_returns_self() {
        let t = SnziTree::with_probability(0, Probability::NEVER);
        let r = t.root_handle();
        let (a, b) = unsafe { t.grow(r) };
        assert_eq!(a.addr(), r.addr());
        assert_eq!(b.addr(), r.addr());
        assert_eq!(t.stats().grow_installs, 0);
    }

    #[test]
    fn grow_probabilistic_expected_installs() {
        // With p = 1/4, the first install should happen after ~4 calls.
        let mut coin = XorShift64Star::new(12345);
        let t = SnziTree::with_probability(0, Probability::one_over(4));
        let r = t.root_handle();
        let mut calls = 0u64;
        while t.stats().grow_installs == 0 {
            let _ = unsafe { t.grow_with(r, &mut coin) };
            calls += 1;
            assert!(calls < 1000, "coin never landed heads?");
        }
        // Loose bound: p=1/4 should fire within 100 tries w.h.p.
        assert!(calls <= 100);
    }

    #[test]
    fn handles_report_depth() {
        let t = SnziTree::new(0);
        let r = t.root_handle();
        assert!(r.is_root());
        assert_eq!(unsafe { r.depth() }, 0);
        let (l, _) = unsafe { t.grow_always(r) };
        assert!(!l.is_root());
        assert_eq!(unsafe { l.depth() }, 1);
        let (ll, _) = unsafe { t.grow_always(l) };
        assert_eq!(unsafe { ll.depth() }, 2);
    }

    #[test]
    fn deep_tree_drops_without_stack_overflow() {
        let t = SnziTree::new(0);
        let mut h = t.root_handle();
        for _ in 0..100_000 {
            let (l, _) = unsafe { t.grow_always(h) };
            h = l;
        }
        assert_eq!(t.stats().grow_installs, 100_000);
        drop(t); // must not overflow the stack
    }

    #[test]
    fn prune_children_frees_subtree() {
        let t = SnziTree::new(0);
        let r = t.root_handle();
        let (l, _) = unsafe { t.grow_always(r) };
        let (ll, _) = unsafe { t.grow_always(l) };
        let _ = unsafe { t.grow_always(ll) };
        // Subtree below `l`: pair(ll,lr) + pair under ll = 4 nodes.
        assert_eq!(t.stats().node_count(), 7);
        let freed = unsafe { t.prune_children(l) };
        assert_eq!(freed, 4);
        assert_eq!(t.stats().pruned_pairs, 2);
        assert_eq!(t.stats().node_count(), 3);
        // Growing again after a prune re-installs fresh children.
        let (nl, _) = unsafe { t.grow_always(l) };
        assert_ne!(nl.addr(), ll.addr());
    }

    #[test]
    fn surplus_survives_grow() {
        let t = SnziTree::new(5);
        let r = t.root_handle();
        let _ = unsafe { t.grow_always(r) };
        assert!(t.query());
        assert_eq!(t.root_surplus_for_test(), 5);
    }

    #[test]
    fn contention_profile_counts_nodes() {
        let mut t = SnziTree::new(0);
        let r = t.root_handle();
        let (l, _) = unsafe { t.grow_always(r) };
        let _ = unsafe { t.grow_always(l) };
        let prof = t.contention_profile();
        assert_eq!(prof.nodes, 5);
        assert_eq!(prof.max_depth, 2);
    }

    #[test]
    fn concurrent_grow_single_install() {
        use std::sync::Arc;
        let t = Arc::new(SnziTree::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let r = t.root_handle();
                let (l, rr) = unsafe { t.grow_always(r) };
                (l.addr(), rr.addr())
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let first = results[0];
        for r in &results {
            assert_eq!(*r, first, "all threads must see the same installed pair");
        }
        let s = t.stats();
        assert_eq!(s.grow_installs, 1);
        assert!(s.grow_installs + s.grow_losses <= 8);
    }

    #[test]
    fn tree_ids_are_distinct() {
        let a = SnziTree::new(0);
        let b = SnziTree::new(0);
        assert_ne!(a.id, b.id);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not own")]
    fn cross_tree_handle_caught_in_debug() {
        let a = SnziTree::new(0);
        let b = SnziTree::new(0);
        let ha = a.root_handle();
        unsafe { b.arrive(ha) };
    }
}
