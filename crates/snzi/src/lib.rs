//! # snzi — Scalable Non-Zero Indicators with dynamic growth
//!
//! This crate implements the SNZI ("snazzy") relaxed counter of Ellen, Lev,
//! Luchangco and Moir (PODC 2007) together with the *dynamic* extension of
//! Acar, Ben-David and Rainey (PPoPP 2017): a probabilistic [`SnziTree::grow`]
//! operation that lets the tree expand at run time in response to increasing
//! concurrency.
//!
//! A SNZI object supports three operations:
//!
//! * `arrive` — increment the (relaxed) counter,
//! * `depart` — decrement it, and
//! * `query`  — report whether the surplus of arrivals over departures is
//!   non-zero, by reading a single word at the root.
//!
//! Internally the object is a tree. Arrivals and departures are *filtered*
//! on their way up: a change propagates to a node's parent only when the
//! node's own surplus flips between zero and non-zero, so under well-behaved
//! workloads very few updates ever reach the root. The hierarchical-node
//! protocol (with its `1/2` intermediate count, version numbers, and undo
//! departures) is implemented in [`node`], and the root protocol (with its
//! announce bit and version-tagged indicator word) in [`root`].
//!
//! Two tree containers are provided:
//!
//! * [`SnziTree`] — a dynamically growing tree (the paper's Section 2). New
//!   pairs of children are spliced under a node by [`SnziTree::grow`], which
//!   flips a `p`-biased coin *before* inspecting the node so that an
//!   adversarial schedule cannot force more than `1/p` childless returns in
//!   expectation.
//! * [`FixedSnzi`] — a statically allocated complete binary tree of depth
//!   `d` (2^(d+1) − 1 nodes), the paper's fixed-depth baseline, with callers
//!   hashed onto leaves.
//!
//! The crate deliberately exposes the *raw* handle-based operations
//! ([`SnziTree::arrive`], [`SnziTree::depart`], [`SnziTree::grow`]) as
//! `unsafe`: a [`Handle`] is a plain pointer into the owning tree, and the
//! caller must guarantee it is used only while that tree is alive and only
//! in *valid* executions (never more departures than arrivals at a node).
//! The `incounter` and `spdag` crates build a safe, structurally enforced
//! discipline on top, which is the paper's whole point: nested parallelism
//! makes these invariants hold by construction.
//!
//! Every tree records its growth and prune counts and its longest arrive
//! and depart chains ([`SnziTree::stats`]); with telemetry compiled in
//! (the `telemetry` feature, on by default) each node also counts the
//! operations that touch it ([`SnziTree::contention_profile`]). The
//! test-suite uses both to check the paper's contention theorems
//! empirically (no increment may invoke more than 3 arrives — Corollary
//! 4.7; no node is ever touched by more than 6 operations — Theorem 4.9).
//!
//! ```
//! use snzi::SnziTree;
//!
//! let tree = SnziTree::new(0);
//! assert!(!tree.query());
//!
//! // Grow a pair of children under the root and count through one child.
//! let root = tree.root_handle();
//! // SAFETY: the handles belong to `tree`, which outlives every use, and
//! // each depart below matches one earlier arrive at the same node.
//! unsafe {
//!     let (left, _right) = tree.grow_always(root);
//!     tree.arrive(left);
//!     assert!(tree.query());
//!     assert!(tree.depart(left), "this depart ends the non-zero period");
//! }
//! assert!(!tree.query());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod coin;
pub mod fixed;
pub mod node;
pub mod packed;
pub mod root;
pub mod shrink;
pub mod stats;
pub mod tree;

pub use coin::{Coin, Probability, ThreadCoin, XorShift64Star};
pub use fixed::FixedSnzi;
pub use node::{ChildPair, Node};
pub use root::Root;
pub use tree::{Handle, SnziTree};
