//! Backend-agnostic **shared parse forests** (SPPF).
//!
//! The paper's cubic bound (Lemma 3) holds under the assumption that parsers
//! return *ambiguity-node forest graphs* — the same representation under
//! which Earley and GLR are cubic. This crate is that representation, lifted
//! out of any single parser: a [`Forest`] is an arena of nodes
//! (`Leaf`/`Eps`/`Const`/`Pair`/`Amb`/`Map`/`Cycle`) that every backend —
//! the PWD engine, an Earley chart, a GLR graph-structured stack — can
//! build into, so forests from different parser families can be *compared*
//! (by canonical fingerprint), *counted* (exactly, without enumerating), and
//! *enumerated* (bounded) through one API.
//!
//! The key operations:
//!
//! * **Hash-consed packing** — the canonical constructors ([`Forest::pair`],
//!   [`Forest::amb`], [`Forest::label`], …) dedup structurally identical
//!   subforests to one node, so a forest's size tracks the *shared* graph,
//!   not the (possibly exponential) tree set it denotes.
//! * **Exact counting** — [`Forest::count`] returns a [`TreeCount`]: an
//!   exact `u128`, an explicit [`TreeCount::Overflow`], or
//!   [`TreeCount::Infinite`] (a cycle of productive nodes, found without
//!   diverging). Every statistic — [`Forest::has_tree`], [`Forest::count`],
//!   [`Forest::depth`], [`Forest::reachable_count`],
//!   [`ParseForest::summary`] and the canonicalizer's productivity pass —
//!   reads one walk, which hands each strongly connected component under a
//!   root over children first, and one node-value function, generic over a
//!   semiring (`bool` for `has_tree`, [`TreeCount`] for `count`). A
//!   reduction means the same to counting, enumeration and canonical forms,
//!   so the three agree.
//! * **Bounded enumeration** — [`Forest::trees`] materializes at most
//!   `max_trees` concrete [`Tree`]s, terminating even on cyclic forests.
//! * **Canonical equality** — [`Forest::extract_canonical`] normalizes any
//!   forest (including PWD's reduction-laden ones) into a canonical packed
//!   form whose [`ParseForest::fingerprint`] two backends can compare
//!   without enumerating a single tree.
//!
//! # Example: Catalan-sized ambiguity, polynomial-size forest
//!
//! The grammar `S → S S | a` assigns the Catalan number `C(n-1)` of parse
//! trees to `aⁿ`. Build its packed forest by spans, the way a chart parser
//! would — `node(i,j)` is a leaf for width 1, else an ambiguity node over
//! the split points — and the forest stays quadratic while the count
//! explodes:
//!
//! ```
//! use pwd_forest::{EnumLimits, Forest, ForestId, TreeCount};
//! use std::collections::HashMap;
//!
//! let n = 6;
//! let mut f = Forest::hash_consed();
//! let leaf = f.leaf("a", "a");
//! let mut span: HashMap<(usize, usize), ForestId> = HashMap::new();
//! for width in 1..=n {
//!     for i in 0..=(n - width) {
//!         let j = i + width;
//!         let id = if width == 1 {
//!             leaf
//!         } else {
//!             let alts: Vec<ForestId> =
//!                 (i + 1..j).map(|k| f.pair(span[&(i, k)], span[&(k, j)])).collect();
//!             f.amb(alts)
//!         };
//!         span.insert((i, j), id);
//!     }
//! }
//! let root = span[&(0, n)];
//! assert_eq!(f.count(root), TreeCount::Finite(42)); // C₅ = 42, never enumerated
//! assert_eq!(f.trees(root, EnumLimits::default()).len(), 42);
//! ```
//!
//! (Real builders are the parser backends — `pwd_grammar::sppf` constructs
//! this shape from Earley charts and GLR reduction facts, and `pwd_core`
//! normalizes its derivative forests into it via
//! [`Forest::extract_canonical`].)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canon;
mod count;
mod dot;
mod forest;
mod knot;
#[cfg(test)]
mod properties;
mod reduce;
mod tree;

pub use canon::{CanonError, ForestSummary, ParseForest};
pub use count::TreeCount;
pub use forest::{EnumLimits, Forest, ForestId, ForestMark, ForestNode, IdHasher};
pub use knot::{Knot, KnotTable};
pub use reduce::{RedId, Reduce};
pub use tree::{Leaf, Tree};

// The serving layers share forests across worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Forest>();
    assert_send_sync::<Tree>();
    assert_send_sync::<Reduce>();
    assert_send_sync::<ParseForest>();
};
