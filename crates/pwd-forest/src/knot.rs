//! Memoized knot-tying for cyclic forest construction.
//!
//! Every builder that walks a possibly-cyclic structure into a [`Forest`]
//! (the canonicalizer over derivative forests, the fact-driven SPPF builder
//! over charts and stacks) needs the same protocol: memoize results per
//! key, hand a reserved placeholder to re-entrant (cyclic) lookups, and
//! patch the placeholder once the region's real node exists. One key's
//! place in that protocol is a `Slot`, and the protocol is written once,
//! on `Slot`. [`KnotTable`] keeps slots in a map for arbitrary keys; the
//! canonicalizer keeps them in a dense vector indexed by raw [`ForestId`],
//! so its memo probe is an array read.
//!
//! A memo key is never a hash-cons key. The nodes a builder makes are
//! consed by the arena's constructors, on integers alone (see
//! [`Forest`]'s cons-key rule): text from the input reaches a hash only
//! through the arena's `RandomState` leaf map, once per leaf looked up.

use crate::forest::{Forest, ForestId};
use std::collections::HashMap;
use std::hash::Hash;

/// Result of [`KnotTable::enter`].
pub enum Knot {
    /// The key was built before: use this node.
    Done(ForestId),
    /// The key is mid-construction (a cycle): use this placeholder, which
    /// will be patched when the in-flight construction
    /// [`finish`](KnotTable::finish)es.
    Cycle(ForestId),
    /// Unseen: the caller must build the node and
    /// [`finish`](KnotTable::finish) (or [`abort`](KnotTable::abort)).
    Fresh,
}

/// One key's state in the reserve/patch protocol.
#[derive(Debug, Clone, Copy, Default)]
enum Slot {
    #[default]
    Unseen,
    /// Being built; no placeholder handed out yet.
    Open,
    /// Being built and re-entered: this placeholder stands in for it.
    Tied(ForestId),
    Done(ForestId),
}

impl Slot {
    /// Marks an unseen slot open; a re-entrant lookup (a cycle) allocates
    /// — once — a [`Forest::reserve`] placeholder.
    fn enter(&mut self, forest: &mut Forest) -> Knot {
        match *self {
            Slot::Unseen => {
                *self = Slot::Open;
                Knot::Fresh
            }
            Slot::Open => {
                let ph = forest.reserve();
                *self = Slot::Tied(ph);
                Knot::Cycle(ph)
            }
            Slot::Tied(ph) => Knot::Cycle(ph),
            Slot::Done(id) => Knot::Done(id),
        }
    }

    /// Completes the slot with `result`, patching the placeholder handed
    /// out while it was open (the knot), and returns `result`.
    fn finish(&mut self, forest: &mut Forest, result: ForestId) -> ForestId {
        // A placeholder that *is* the result stays a `Cycle` node: the only
        // way that happens is a self-referential region with no grounded
        // content, which correctly denotes no parses.
        if let Slot::Tied(ph) = *self {
            if ph != result {
                let node = forest.get(result).clone();
                forest.set(ph, node);
            }
        }
        *self = Slot::Done(result);
        result
    }
}

/// A memo table implementing the reserve/patch discipline for cyclic
/// construction into a [`Forest`].
pub struct KnotTable<K> {
    slots: HashMap<K, Slot>,
}

impl<K: Eq + Hash> Default for KnotTable<K> {
    fn default() -> Self {
        KnotTable { slots: HashMap::new() }
    }
}

impl<K: Eq + Hash> KnotTable<K> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up `key`, marking it in-progress when unseen. A re-entrant
    /// lookup (a cycle) allocates — once — and returns a
    /// [`Forest::reserve`] placeholder.
    pub fn enter(&mut self, key: K, forest: &mut Forest) -> Knot {
        self.slots.entry(key).or_default().enter(forest)
    }

    /// Completes `key` with `result`, patching any placeholder handed out
    /// while it was in progress (the knot), and returns `result`.
    pub fn finish(&mut self, key: K, forest: &mut Forest, result: ForestId) -> ForestId {
        self.slots.entry(key).or_default().finish(forest, result)
    }

    /// Abandons an in-progress entry (the error-unwind path).
    pub fn abort(&mut self, key: &K) {
        self.slots.remove(key);
    }
}

/// The same protocol keyed by the nodes of a source arena: one slot per
/// source node, so entering and finishing are array accesses.
pub(crate) struct DenseKnots {
    slots: Vec<Slot>,
}

impl DenseKnots {
    /// Unseen slots for a source arena of `len` nodes.
    pub(crate) fn new(len: usize) -> DenseKnots {
        DenseKnots { slots: vec![Slot::Unseen; len] }
    }

    /// [`KnotTable::enter`] for source node `key`.
    pub(crate) fn enter(&mut self, key: ForestId, forest: &mut Forest) -> Knot {
        self.slots[key.index()].enter(forest)
    }

    /// [`KnotTable::finish`] for source node `key`.
    pub(crate) fn finish(
        &mut self,
        key: ForestId,
        forest: &mut Forest,
        result: ForestId,
    ) -> ForestId {
        self.slots[key.index()].finish(forest, result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::{EnumLimits, ForestNode};
    use crate::TreeCount;

    #[test]
    fn knot_ties_cycles_through_placeholders() {
        // Build amb = { leaf, (amb . leaf) } through the table, the way a
        // recursive builder would.
        let mut f = Forest::hash_consed();
        let leaf = f.leaf("a", "a");
        assert!(matches!(KnotTable::new().enter("k", &mut f), Knot::Fresh));
        let mut table: KnotTable<&str> = KnotTable::new();
        assert!(matches!(table.enter("amb", &mut f), Knot::Fresh));
        // Re-entry hands out one stable placeholder.
        let Knot::Cycle(ph) = table.enter("amb", &mut f) else { panic!("cycle expected") };
        let Knot::Cycle(ph2) = table.enter("amb", &mut f) else { panic!("cycle expected") };
        assert_eq!(ph, ph2);
        let pair = f.alloc(ForestNode::Pair(ph, leaf));
        let result = f.alloc(ForestNode::Amb(vec![leaf, pair]));
        let tied = table.finish("amb", &mut f, result);
        assert_eq!(tied, result);
        assert!(matches!(table.enter("amb", &mut f), Knot::Done(id) if id == result));
        assert_eq!(f.count(tied), TreeCount::Infinite);
        assert_eq!(f.trees(tied, EnumLimits { max_trees: 3, max_depth: 32 }).len(), 3);
    }

    #[test]
    fn finish_without_reentry_patches_nothing() {
        let mut f = Forest::hash_consed();
        let leaf = f.leaf("x", "x");
        let mut table: KnotTable<u32> = KnotTable::new();
        assert!(matches!(table.enter(7, &mut f), Knot::Fresh));
        let before = f.len();
        table.finish(7, &mut f, leaf);
        assert_eq!(f.len(), before, "no placeholder was ever allocated");
        table.abort(&9); // aborting an unknown key is a no-op
    }
}
