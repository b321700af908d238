//! The registry identity behind the harness's `nb_incounter_nodes`: over
//! any window, `snzi.trees_created + 2·(snzi.grow_installs −
//! snzi.pruned_pairs)` equals the summed `node_count()` of the trees
//! created in it, whichever path pruned them.
//!
//! The file holds a single test so that it runs in a process of its own:
//! no sibling test bumps the process-wide counters between the two
//! snapshots.

use snzi::{Handle, SnziTree};

/// Grow a pair under the root, two more levels under its left child and
/// one under its right child; return the left child.
fn grow_shape(t: &SnziTree) -> Handle {
    // SAFETY: every handle comes from `t`, which outlives this call.
    unsafe {
        let (l, r) = t.grow_always(t.root_handle());
        let (ll, _) = t.grow_always(l);
        let _ = t.grow_always(ll);
        let _ = t.grow_always(r);
        l
    }
}

#[test]
fn registry_node_identity_matches_per_tree_counts() {
    let before = obs::Snapshot::take();
    let mut trees = [SnziTree::new(0), SnziTree::new(0).shrinkable(), SnziTree::new(3)];
    let (l0, l1) = (grow_shape(&trees[0]), grow_shape(&trees[1]));
    // SAFETY: the handles belong to the trees they are used with, and no
    // operation is in flight anywhere below them.
    unsafe {
        assert_eq!(trees[0].prune_children(l0), 4);
        assert!(trees[1].prune_children_deferred(l1));
    }

    let mut summed = 0;
    for t in &mut trees {
        let count = t.stats().node_count();
        assert_eq!(count, t.contention_profile().nodes, "node_count() matches a walk");
        summed += count;
    }
    assert_eq!(summed, 5 + 5 + 1);

    let d = obs::Snapshot::take().diff(&before);
    if obs::enabled() {
        let pairs = d.counter("snzi.grow_installs") - d.counter("snzi.pruned_pairs");
        assert_eq!(d.counter("snzi.trees_created") + 2 * pairs, summed);
    }
}
