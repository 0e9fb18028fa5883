//! The shared forest arena: nodes, hash-consed packing, and bounded
//! enumeration.
//!
//! # The cons-key rule
//!
//! A hash-consed arena conses every node on a key made only of integers it
//! assigned itself: child ids, arities, and label-name symbols, hashed by a
//! cheap multiplicative hasher. Input text never enters such a key: a leaf
//! (kind and lexeme) goes through a `RandomState` map from leaf to its
//! canonical node, hashed once per lookup (a new leaf hashes it once more,
//! for its structural fingerprint), and a label name gets its symbol
//! through a `RandomState` map too. A node built on a cons miss shares the
//! caller's `Leaf` rather than allocating a new one.
//!
//! # The reduction table
//!
//! A `Map` node holds a [`RedId`]: an index into the arena's append-only
//! table of reduction entries, which are plain `Copy` data (see
//! [`Reduce`]). Label names and user-function names are interned once as
//! symbols, and user functions sit in a side table, so a `Map` node is two
//! ids, the table has nothing to drop, and [`truncate`](Forest::truncate)
//! cuts it back with a length store.

use crate::reduce::{Red, RedId, RedView, Reduce, ReduceKind, UserFn};
use crate::tree::{Leaf, Tree};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// Index of a node in a [`Forest`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ForestId(pub(crate) u32);

impl ForestId {
    /// An id no arena assigns: a caller can keep "no forest" in a dense
    /// `ForestId` field without the tag an `Option` adds.
    pub const NONE: ForestId = ForestId(u32::MAX);

    /// The raw index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A node of a shared parse forest.
///
/// The denotation of a node is a *set of trees*: `Pair` is the cross
/// product, `Amb` the union, `Map` a reduction mapped over the set. Cycles
/// are permitted (grammars with infinitely many parses of a word produce
/// cyclic forests); a [`Cycle`](ForestNode::Cycle) node is the placeholder
/// a cyclic region holds while mid-construction — one that survives
/// construction denotes the empty set.
#[derive(Debug, Clone)]
pub enum ForestNode {
    /// No parses.
    Empty,
    /// Exactly one parse: the empty tree `ε`.
    Eps,
    /// Exactly one parse: a token leaf.
    Leaf(Leaf),
    /// Exactly one parse: a constant tree (the `s` of `ε_s`).
    Const(Tree),
    /// The cross product of two forests (from `◦`).
    Pair(ForestId, ForestId),
    /// An ambiguity node: the union of the alternatives.
    Amb(Vec<ForestId>),
    /// A reduction, an entry of the arena's reduction table, mapped over a
    /// forest (from `↪`).
    Map(RedId, ForestId),
    /// Placeholder while a cyclic region is mid-construction (see
    /// [`Forest::reserve`]); inert (no parses) if left undefined.
    Cycle,
}

/// Limits for enumerating trees out of a (possibly cyclic, possibly
/// exponentially ambiguous) forest.
///
/// Enumeration is *bounded*: it returns at most `max_trees` trees and
/// explores the forest graph to at most `max_depth` unrollings, so it always
/// terminates even on cyclic forests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumLimits {
    /// Maximum number of trees to produce.
    pub max_trees: usize,
    /// Maximum graph depth to unroll (guards against cyclic forests).
    pub max_depth: usize,
}

impl Default for EnumLimits {
    fn default() -> Self {
        EnumLimits { max_trees: 64, max_depth: 256 }
    }
}

/// Key under which a canonical constructor hash-conses a node: integers
/// the arena assigned, never text (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ConsKey {
    Empty,
    Eps,
    Pair(u32, u32),
    /// Name symbol, arity, spine.
    Label(u32, u32, u32),
}

/// A multiplicative hasher for keys of arena-assigned integers. Not for
/// text: input could pick colliding keys for it.
#[derive(Default)]
struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Unused by the keys here, which write whole integers.
        for &b in bytes {
            self.add(b as u64);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        // The product's high bits are its best mixed; the table indexes by
        // the low ones.
        self.0.rotate_left(26)
    }
}

type IdMap<K> = HashMap<K, ForestId, BuildHasherDefault<IdHasher>>;

/// The hash-consing tables of a hash-consed arena.
#[derive(Debug, Default, Clone)]
struct Cons {
    /// Empty, `ε`, pair and label nodes.
    keys: IdMap<ConsKey>,
    /// Ambiguity nodes, by their canonical alternative list.
    ambs: IdMap<Box<[ForestId]>>,
    /// Leaves by kind and text: a keyed hash, since the text is input.
    leaves: HashMap<Leaf, ForestId>,
    /// Constant trees, which hold leaf text: a keyed hash too.
    consts: HashMap<Tree, ForestId>,
}

/// The names label and function reductions carry, each interned once as a
/// symbol: the grammar's vocabulary, which [`Forest::truncate`] keeps.
#[derive(Debug, Default, Clone)]
struct Names {
    symbols: HashMap<Arc<str>, u32>,
    text: Vec<Arc<str>>,
    /// `hash_of(name)` per symbol, the name's share of a structural hash.
    hashes: Vec<u64>,
}

impl Names {
    /// The symbol of `name`, assigned on first sight.
    fn symbol(&mut self, name: &str) -> u32 {
        if let Some(&sym) = self.symbols.get(name) {
            return sym;
        }
        let sym = self.text.len() as u32;
        let name: Arc<str> = Arc::from(name);
        self.hashes.push(hash_of(&name));
        self.text.push(name.clone());
        self.symbols.insert(name, sym);
        sym
    }
}

/// A user function of the function table: its name symbol and its code.
#[derive(Clone)]
struct Func(u32, UserFn);

impl std::fmt::Debug for Func {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Func({})", self.0)
    }
}

/// The lengths of an arena's truncatable tables at one moment:
/// [`Forest::truncate`] cuts the arena back to them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForestMark {
    nodes: u32,
    reds: u32,
    funcs: u32,
}

impl ForestMark {
    /// The later of two marks of one arena, table by table.
    pub fn max(self, other: ForestMark) -> ForestMark {
        ForestMark {
            nodes: self.nodes.max(other.nodes),
            reds: self.reds.max(other.reds),
            funcs: self.funcs.max(other.funcs),
        }
    }
}

/// An arena of shared-forest nodes.
///
/// Two construction disciplines coexist:
///
/// * **Raw** ([`Forest::new`]): [`alloc`](Forest::alloc) /
///   [`set`](Forest::set) build nodes in place, placeholders and all — the
///   shape an engine needs while tying cyclic knots token by token (the PWD
///   core's arena works this way, and [`truncate`](Forest::truncate)
///   cuts it back to a [`mark`](Forest::mark) at the engine's reset).
/// * **Hash-consed** ([`Forest::hash_consed`]): the canonical constructors
///   ([`leaf`](Forest::leaf), [`pair`](Forest::pair), [`amb`](Forest::amb),
///   [`label`](Forest::label)) dedup structurally identical subforests to
///   one node, which is what makes packed forests canonical and
///   fingerprint-comparable across backends.
///
/// A hash-consed arena conses on keys of integers it assigned — child ids,
/// arities and label-name symbols — with a cheap hasher. Text goes only
/// through keyed (`RandomState`) maps: a leaf's kind and lexeme, which come
/// from the input, are hashed once per lookup in the map from leaf to
/// canonical node, and a label name once per lookup of its symbol. So no
/// input can pick colliding cons keys, and no probe hashes text twice.
///
/// Every node of a hash-consed arena carries a structural hash (computed
/// bottom-up at construction), so [`node_hash`](Forest::node_hash) of a
/// root is a fingerprint of the whole subgraph. A raw arena keeps no
/// hashes.
#[derive(Debug, Default, Clone)]
pub struct Forest {
    nodes: Vec<ForestNode>,
    hashes: Vec<u64>,
    /// The reduction table `Map` nodes index (see the module docs).
    reds: Vec<Red>,
    names: Names,
    funcs: Vec<Func>,
    cons: Option<Box<Cons>>,
}

/// Domain-separation tags for structural hashing.
const H_EMPTY: u64 = 0x9e37_79b9_7f4a_7c15;
const H_EPS: u64 = 0xc2b2_ae3d_27d4_eb4f;
const H_CYCLE: u64 = 0x1656_67b1_9e37_79f9;

fn mix(a: u64, b: u64) -> u64 {
    // SplitMix64-style avalanche over the running combination.
    let mut x = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

impl Forest {
    /// An empty raw arena (no hash-consing; supports `set`/`truncate`).
    pub fn new() -> Forest {
        Forest::default()
    }

    /// An empty hash-consed arena: the canonical constructors dedup
    /// structurally identical nodes.
    pub fn hash_consed() -> Forest {
        Forest { cons: Some(Box::default()), ..Forest::default() }
    }

    /// Number of nodes allocated.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the arena empty?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node stored at `id`.
    pub fn get(&self, id: ForestId) -> &ForestNode {
        &self.nodes[id.0 as usize]
    }

    /// The structural hash of the subgraph rooted at `id`.
    ///
    /// Maintained only for **hash-consed** arenas (raw arenas — the engine
    /// hot path — skip hashing entirely and report 0). Equal canonical
    /// subgraphs have equal hashes; for acyclic forests the hash is
    /// collision-resistant enough to serve as a fingerprint. Nodes involved
    /// in cycles hash their back-edges as an opaque marker, so the hash is
    /// deterministic but two *bisimilar* cyclic forests built with
    /// different knot placements may hash differently.
    pub fn node_hash(&self, id: ForestId) -> u64 {
        if self.cons.is_some() {
            self.hashes[id.0 as usize]
        } else {
            0
        }
    }

    /// Allocates a node verbatim (no consing).
    pub fn alloc(&mut self, node: ForestNode) -> ForestId {
        // Raw arenas keep no hashes, so the per-token engine path neither
        // computes nor stores one.
        let h = if self.cons.is_some() { self.compute_hash(&node) } else { 0 };
        self.push(node, h)
    }

    /// Appends `node`; a hash-consed arena also records its structural
    /// hash `h`.
    fn push(&mut self, node: ForestNode, h: u64) -> ForestId {
        let id = ForestId(self.nodes.len() as u32);
        debug_assert!(id != ForestId::NONE, "the arena is full");
        self.nodes.push(node);
        if self.cons.is_some() {
            self.hashes.push(h);
        }
        id
    }

    /// Allocates a [`Cycle`](ForestNode::Cycle) placeholder to be filled in
    /// with [`set`](Forest::set) once the cyclic region is built.
    pub fn reserve(&mut self) -> ForestId {
        self.alloc(ForestNode::Cycle)
    }

    /// Overwrites a node in place (placeholder patching). The structural
    /// hash is recomputed from the new children (hash-consed arenas only).
    pub fn set(&mut self, id: ForestId, node: ForestNode) {
        if self.cons.is_some() {
            self.hashes[id.0 as usize] = self.compute_hash(&node);
        }
        self.nodes[id.0 as usize] = node;
    }

    /// The current lengths of the node, reduction and function tables.
    pub fn mark(&self) -> ForestMark {
        ForestMark {
            nodes: self.nodes.len() as u32,
            reds: self.reds.len() as u32,
            funcs: self.funcs.len() as u32,
        }
    }

    /// Cuts the arena back to `mark` — the engine-reset path. The
    /// reduction table is a length store; the node arena drops what its
    /// nodes own (a leaf's names, an ambiguity node's vector). Only
    /// meaningful for raw arenas; a hash-consed arena drops its stale cons
    /// entries too (O(consed nodes)).
    pub fn truncate(&mut self, mark: ForestMark) {
        let len = mark.nodes as usize;
        self.nodes.truncate(len);
        self.hashes.truncate(len);
        self.reds.truncate(mark.reds as usize);
        self.funcs.truncate(mark.funcs as usize);
        if let Some(cons) = &mut self.cons {
            let live = |id: &mut ForestId| (id.0 as usize) < len;
            cons.keys.retain(|_, id| live(id));
            cons.ambs.retain(|_, id| live(id));
            cons.leaves.retain(|_, id| live(id));
            cons.consts.retain(|_, id| live(id));
        }
    }

    /// Number of entries in the reduction table.
    pub fn reduction_count(&self) -> usize {
        self.reds.len()
    }

    /// Approximate bytes of the per-node vectors (the nodes, and a
    /// hash-consed arena's structural hashes) and the reduction table
    /// (lengths times entry sizes; what nodes own on the heap is not
    /// counted).
    pub fn arena_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<ForestNode>()
            + self.hashes.len() * std::mem::size_of::<u64>()
            + self.reds.len() * std::mem::size_of::<Red>()
    }

    // ------------------------------------------------------------------
    // The reduction table
    // ------------------------------------------------------------------

    /// Appends a reduction entry.
    fn push_red(&mut self, red: Red) -> RedId {
        let id = RedId(self.reds.len() as u32);
        self.reds.push(red);
        id
    }

    /// The reduction entry `id`.
    pub(crate) fn red(&self, id: RedId) -> Red {
        self.reds[id.index()]
    }

    /// The text of name symbol `sym`.
    pub(crate) fn name(&self, sym: u32) -> &str {
        &self.names.text[sym as usize]
    }

    /// User function `i`: its name symbol and its code.
    pub(crate) fn func(&self, i: u32) -> (u32, &UserFn) {
        let Func(name, code) = &self.funcs[i as usize];
        (*name, code)
    }

    /// Interns the description `red` into the reduction table; `Map` nodes
    /// of this arena then map it by the returned id. Forests a pairing
    /// reduction names must live in this arena.
    pub fn intern_reduce(&mut self, red: &Reduce) -> RedId {
        let entry = match &*red.0 {
            ReduceKind::Compose(g, f) => {
                let g = self.intern_reduce(g);
                let f = self.intern_reduce(f);
                Red::Compose(g, f)
            }
            ReduceKind::PairLeft(s) => Red::PairLeft(*s),
            ReduceKind::PairRight(s) => Red::PairRight(*s),
            ReduceKind::Reassoc => Red::Reassoc,
            ReduceKind::MapFirst(g) => Red::MapFirst(self.intern_reduce(g)),
            ReduceKind::MapSecond(g) => Red::MapSecond(self.intern_reduce(g)),
            ReduceKind::Label(name, arity) => Red::Label(self.names.symbol(name), *arity as u32),
            ReduceKind::Func(name, code) => {
                let name = self.names.symbol(name);
                self.funcs.push(Func(name, code.clone()));
                Red::Func(self.funcs.len() as u32 - 1)
            }
        };
        self.push_red(entry)
    }

    /// A new entry `g ∘ f`: applies `f` first, then `g` (compaction's
    /// `(p ↪ f) ↪ g ⇒ p ↪ (g ∘ f)`).
    pub fn compose(&mut self, g: RedId, f: RedId) -> RedId {
        self.push_red(Red::Compose(g, f))
    }

    /// A new entry `u ↦ (s, u)` for each tree `s` of forest `s`.
    pub fn pair_left(&mut self, s: ForestId) -> RedId {
        self.push_red(Red::PairLeft(s))
    }

    /// A new entry `u ↦ (u, s)` for each tree `s` of forest `s`.
    pub fn pair_right(&mut self, s: ForestId) -> RedId {
        self.push_red(Red::PairRight(s))
    }

    /// A new reassociation entry, `(t1, (t2, t3)) ↦ ((t1, t2), t3)`. It
    /// carries no data, so one entry can serve every `Map` node.
    pub fn reassoc(&mut self) -> RedId {
        self.push_red(Red::Reassoc)
    }

    /// A new entry mapping `f` over the first component of a pair.
    pub fn map_first(&mut self, f: RedId) -> RedId {
        self.push_red(Red::MapFirst(f))
    }

    /// A new entry mapping `f` over the second component of a pair.
    pub fn map_second(&mut self, f: RedId) -> RedId {
        self.push_red(Red::MapSecond(f))
    }

    /// Reduction `id`, formatted (`{:?}`) as the [`Reduce`] description it
    /// stands for.
    pub fn reduction(&self, id: RedId) -> impl std::fmt::Debug + '_ {
        RedView { forest: self, id }
    }

    // ------------------------------------------------------------------
    // Canonical (hash-consing) constructors
    // ------------------------------------------------------------------

    /// The node consed under `key`, built by `node` only on a miss.
    fn consed(&mut self, key: ConsKey, node: impl FnOnce() -> ForestNode) -> ForestId {
        let Some(cons) = &mut self.cons else { return self.alloc(node()) };
        match cons.keys.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                e.insert(ForestId(self.nodes.len() as u32));
                let node = node();
                let h = self.compute_hash(&node);
                self.push(node, h)
            }
        }
    }

    /// The canonical no-parses node.
    pub fn empty(&mut self) -> ForestId {
        self.consed(ConsKey::Empty, || ForestNode::Empty)
    }

    /// The canonical `ε`-tree node.
    pub fn eps(&mut self) -> ForestId {
        self.consed(ConsKey::Eps, || ForestNode::Eps)
    }

    /// A token leaf node (consed by kind + text).
    pub fn leaf(&mut self, kind: &str, text: &str) -> ForestId {
        self.leaf_shared(&Leaf::new(kind, text))
    }

    /// [`leaf`](Forest::leaf) for a leaf that already holds its names: the
    /// map key and a new node share its `Arc<str>`s, so nothing is copied,
    /// and the text is hashed once for the lookup.
    pub(crate) fn leaf_shared(&mut self, leaf: &Leaf) -> ForestId {
        let Some(cons) = &mut self.cons else { return self.alloc(ForestNode::Leaf(leaf.clone())) };
        match cons.leaves.entry(leaf.clone()) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                e.insert(ForestId(self.nodes.len() as u32));
                self.push(ForestNode::Leaf(leaf.clone()), mix(1, hash_of(leaf)))
            }
        }
    }

    /// A constant-tree node.
    pub fn constant(&mut self, tree: Tree) -> ForestId {
        let Some(cons) = &mut self.cons else { return self.alloc(ForestNode::Const(tree)) };
        match cons.consts.entry(tree) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let node = ForestNode::Const(e.key().clone());
                e.insert(ForestId(self.nodes.len() as u32));
                self.alloc(node)
            }
        }
    }

    /// The cross product of two forests. Annihilates on an empty side.
    pub fn pair(&mut self, a: ForestId, b: ForestId) -> ForestId {
        if matches!(self.get(a), ForestNode::Empty) || matches!(self.get(b), ForestNode::Empty) {
            return self.empty();
        }
        self.consed(ConsKey::Pair(a.0, b.0), || ForestNode::Pair(a, b))
    }

    /// An ambiguity node over `alts`, canonicalized: nested `Amb`s are
    /// spliced flat, empty alternatives dropped, duplicates removed, and the
    /// survivors ordered by structural hash — so the same *set* of
    /// alternatives always conses to the same node. Zero alternatives
    /// collapse to [`empty`](Forest::empty), one to the alternative itself.
    pub fn amb(&mut self, mut alts: Vec<ForestId>) -> ForestId {
        self.amb_from(&mut alts, 0)
    }

    /// [`amb`](Forest::amb) over `buf[start..]`, which it then truncates
    /// away: a caller that keeps one scratch stack allocates only for a
    /// new node.
    pub(crate) fn amb_from(&mut self, buf: &mut Vec<ForestId>, start: usize) -> ForestId {
        self.canonical_alts(buf, start);
        let alts = &buf[start..];
        let id = match alts.len() {
            0 => self.empty(),
            1 => alts[0],
            _ => match self.cons.as_ref().and_then(|cons| cons.ambs.get(alts)) {
                Some(&id) => id,
                None => {
                    let id = self.alloc(ForestNode::Amb(alts.to_vec()));
                    if let Some(cons) = &mut self.cons {
                        cons.ambs.insert(alts.into(), id);
                    }
                    id
                }
            },
        };
        buf.truncate(start);
        id
    }

    /// Puts `buf[start..]` in canonical order, in place: flattened one
    /// level, empties dropped, sorted by structural hash, deduplicated.
    fn canonical_alts(&self, buf: &mut Vec<ForestId>, start: usize) {
        // Survivors move to the front, nested alternatives are appended
        // behind the arguments, then the dropped slots between the two
        // close up.
        let given = buf.len();
        let mut kept = start;
        for i in start..given {
            let a = buf[i];
            match self.get(a) {
                ForestNode::Empty => {}
                ForestNode::Amb(inner) => buf.extend_from_slice(inner),
                _ => {
                    buf[kept] = a;
                    kept += 1;
                }
            }
        }
        buf.drain(kept..given);
        buf[start..].sort_by_key(|&a| (self.node_hash(a), a.0));
        let mut len = start;
        for i in start..buf.len() {
            if len == start || buf[i] != buf[len - 1] {
                buf[len] = buf[i];
                len += 1;
            }
        }
        buf.truncate(len);
    }

    /// A production-label node: `Map(Label(name, arity), spine)`, consed by
    /// `(name, arity, spine)`. Annihilates on an empty spine forest.
    pub fn label(&mut self, name: &str, arity: usize, spine: ForestId) -> ForestId {
        let sym = self.name_symbol(name);
        self.label_sym(sym, arity as u32, spine)
    }

    /// The symbol of name `name` in this arena, assigned on first sight.
    pub(crate) fn name_symbol(&mut self, name: &str) -> u32 {
        self.names.symbol(name)
    }

    /// [`label`](Forest::label) for the name of symbol `sym`.
    pub(crate) fn label_sym(&mut self, sym: u32, arity: u32, spine: ForestId) -> ForestId {
        if matches!(self.get(spine), ForestNode::Empty) {
            return self.empty();
        }
        let Some(cons) = &mut self.cons else {
            let red = self.push_red(Red::Label(sym, arity));
            return self.alloc(ForestNode::Map(red, spine));
        };
        match cons.keys.entry(ConsKey::Label(sym, arity, spine.0)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                e.insert(ForestId(self.nodes.len() as u32));
                let red = self.push_red(Red::Label(sym, arity));
                // `compute_hash` of the node, with the name's hash cached.
                let red_h = mix(16, mix(self.names.hashes[sym as usize], arity as u64));
                let h = mix(6, mix(red_h, self.hashes[spine.index()]));
                self.push(ForestNode::Map(red, spine), h)
            }
        }
    }

    /// A generic reduction node (not consed — arbitrary reductions have no
    /// structural identity), interning `red` into the reduction table.
    pub fn map(&mut self, red: Reduce, inner: ForestId) -> ForestId {
        let red = self.intern_reduce(&red);
        self.alloc(ForestNode::Map(red, inner))
    }

    /// The right-nested pair spine of `parts` (`ε` for zero components) —
    /// the canonical body shape a production label flattens.
    pub fn right_spine(&mut self, parts: &[ForestId]) -> ForestId {
        let mut iter = parts.iter().rev();
        let Some(&last) = iter.next() else { return self.eps() };
        let mut acc = last;
        for &x in iter {
            acc = self.pair(x, acc);
        }
        acc
    }

    /// Does the subgraph under `root` contain a [`ForestNode::Cycle`]
    /// node (an unfinished knot, or the empty remnant of one)?
    pub(crate) fn contains_cycle_node(&self, root: ForestId) -> bool {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        let mut succ = Vec::new();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id.index()], true) {
                continue;
            }
            if matches!(self.get(id), ForestNode::Cycle) {
                return true;
            }
            succ.clear();
            self.successors(id, &mut succ);
            stack.extend(succ.iter().copied());
        }
        false
    }

    // ------------------------------------------------------------------
    // Structural hashing
    // ------------------------------------------------------------------

    fn compute_hash(&self, node: &ForestNode) -> u64 {
        match node {
            ForestNode::Empty => H_EMPTY,
            ForestNode::Eps => H_EPS,
            ForestNode::Cycle => H_CYCLE,
            ForestNode::Leaf(l) => mix(1, hash_of(l)),
            ForestNode::Const(t) => mix(2, hash_of(t)),
            ForestNode::Pair(a, b) => {
                mix(3, mix(self.hashes[a.0 as usize], self.hashes[b.0 as usize]))
            }
            ForestNode::Amb(alts) => {
                let mut h = 4u64;
                for a in alts {
                    h = mix(h, self.hashes[a.0 as usize]);
                }
                mix(5, h)
            }
            ForestNode::Map(red, x) => mix(6, mix(self.red_hash(*red), self.hashes[x.0 as usize])),
        }
    }

    fn red_hash(&self, red: RedId) -> u64 {
        let name_hash = |sym: u32| self.names.hashes[sym as usize];
        match self.red(red) {
            Red::Compose(g, h) => mix(10, mix(self.red_hash(g), self.red_hash(h))),
            Red::PairLeft(s) => mix(11, self.hashes[s.0 as usize]),
            Red::PairRight(s) => mix(12, self.hashes[s.0 as usize]),
            Red::Reassoc => 13,
            Red::MapFirst(g) => mix(14, self.red_hash(g)),
            Red::MapSecond(g) => mix(15, self.red_hash(g)),
            Red::Label(sym, arity) => mix(16, mix(name_hash(sym), arity as u64)),
            Red::Func(i) => mix(17, name_hash(self.func(i).0)),
        }
    }

    // ------------------------------------------------------------------
    // Reachability / shape statistics
    // ------------------------------------------------------------------

    /// Every node id referenced by `node` (children plus forests embedded
    /// in reductions).
    pub(crate) fn successors(&self, id: ForestId, out: &mut Vec<ForestId>) {
        match self.get(id) {
            ForestNode::Empty
            | ForestNode::Eps
            | ForestNode::Leaf(_)
            | ForestNode::Const(_)
            | ForestNode::Cycle => {}
            ForestNode::Pair(a, b) => out.extend([*a, *b]),
            ForestNode::Amb(alts) => out.extend(alts.iter().copied()),
            ForestNode::Map(red, x) => {
                out.push(*x);
                self.red_refs(*red, out);
            }
        }
    }

    /// Number of nodes reachable from `root` (reduction-embedded forests
    /// included).
    pub fn reachable_count(&self, root: ForestId) -> usize {
        self.survey::<bool>(root).nodes
    }

    /// Longest path from `root`, in edges, with every strongly connected
    /// component contracted to one node: the longest path on an acyclic
    /// forest, and on a cyclic one the same whatever order its nodes were
    /// built in.
    pub fn depth(&self, root: ForestId) -> usize {
        self.survey::<bool>(root).depth
    }

    // ------------------------------------------------------------------
    // Enumeration
    // ------------------------------------------------------------------

    /// Enumerates up to `limits.max_trees` trees from `f`, exploring at
    /// most `limits.max_depth` graph unrollings (so cyclic forests
    /// terminate).
    pub fn trees(&self, f: ForestId, limits: EnumLimits) -> Vec<Tree> {
        self.enumerate(f, limits.max_depth, limits.max_trees)
    }

    fn enumerate(&self, f: ForestId, depth: usize, cap: usize) -> Vec<Tree> {
        if depth == 0 || cap == 0 {
            return Vec::new();
        }
        match self.get(f) {
            ForestNode::Empty | ForestNode::Cycle => Vec::new(),
            ForestNode::Eps => vec![Tree::Empty],
            ForestNode::Leaf(l) => vec![Tree::Leaf(l.clone())],
            ForestNode::Const(t) => vec![t.clone()],
            ForestNode::Pair(a, b) => {
                let left = self.enumerate(*a, depth - 1, cap);
                if left.is_empty() {
                    return Vec::new();
                }
                let right = self.enumerate(*b, depth - 1, cap);
                let mut out = Vec::new();
                'outer: for l in &left {
                    for r in &right {
                        out.push(Tree::pair(l.clone(), r.clone()));
                        if out.len() >= cap {
                            break 'outer;
                        }
                    }
                }
                out
            }
            ForestNode::Amb(alts) => {
                let mut out = Vec::new();
                for a in alts {
                    let remaining = cap - out.len();
                    if remaining == 0 {
                        break;
                    }
                    out.extend(self.enumerate(*a, depth - 1, remaining));
                }
                out
            }
            ForestNode::Map(red, inner) => {
                let mut out = Vec::new();
                for t in self.enumerate(*inner, depth - 1, cap) {
                    self.apply(*red, t, depth - 1, cap - out.len(), &mut out);
                    if out.len() >= cap {
                        break;
                    }
                }
                out
            }
        }
    }

    /// Applies a reduction to a tree, pushing at most `cap` of the trees it
    /// produces onto `out` (reductions that pair with a null-parse *forest*
    /// are one-to-many). `map-first(g)` and `map-second(g)` apply `g` to
    /// the whole tree when it is not a pair, so a reduction makes as many
    /// trees of every tree it maps as [`count`](Forest::count) multiplies
    /// by. That is also why every intermediate vector may stop at `cap`:
    /// each of its trees yields the same number of trees further on, so
    /// the first `cap` of them reach `cap` results if any number does.
    fn apply(&self, red: RedId, t: Tree, depth: usize, cap: usize, out: &mut Vec<Tree>) {
        if cap == 0 {
            return;
        }
        match self.red(red) {
            Red::Compose(g, h) => {
                let mut mid = Vec::new();
                self.apply(h, t, depth, cap, &mut mid);
                let goal = out.len() + cap;
                for m in mid {
                    self.apply(g, m, depth, goal - out.len(), out);
                }
            }
            Red::PairLeft(s) => {
                for l in self.enumerate(s, depth, cap) {
                    out.push(Tree::pair(l, t.clone()));
                }
            }
            Red::PairRight(s) => {
                for r in self.enumerate(s, depth, cap) {
                    out.push(Tree::pair(t.clone(), r));
                }
            }
            Red::Reassoc => match t {
                Tree::Pair(t1, rest) => match &*rest {
                    Tree::Pair(t2, t3) => {
                        out.push(Tree::Pair(Arc::new(Tree::Pair(t1, t2.clone())), t3.clone()))
                    }
                    _ => out.push(Tree::Pair(t1, rest)),
                },
                other => out.push(other),
            },
            Red::MapFirst(g) => match t {
                Tree::Pair(a, b) => {
                    let mut firsts = Vec::new();
                    self.apply(g, (*a).clone(), depth, cap, &mut firsts);
                    for a2 in firsts {
                        out.push(Tree::Pair(Arc::new(a2), b.clone()));
                    }
                }
                other => self.apply(g, other, depth, cap, out),
            },
            Red::MapSecond(g) => match t {
                Tree::Pair(a, b) => {
                    let mut seconds = Vec::new();
                    self.apply(g, (*b).clone(), depth, cap, &mut seconds);
                    for b2 in seconds {
                        out.push(Tree::Pair(a.clone(), Arc::new(b2)));
                    }
                }
                other => self.apply(g, other, depth, cap, out),
            },
            Red::Label(sym, arity) => out.push(Reduce::flatten(t, arity as usize, self.name(sym))),
            Red::Func(i) => out.push((self.func(i).1)(t)),
        }
    }

    /// Forest ids referenced from inside reduction `red`.
    pub(crate) fn red_refs(&self, red: RedId, out: &mut Vec<ForestId>) {
        match self.red(red) {
            Red::Compose(g, h) => {
                self.red_refs(g, out);
                self.red_refs(h, out);
            }
            Red::PairLeft(s) | Red::PairRight(s) => out.push(s),
            Red::MapFirst(g) | Red::MapSecond(g) => self.red_refs(g, out),
            Red::Reassoc | Red::Label(..) | Red::Func(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerate_leaf_and_pair() {
        let mut fs = Forest::new();
        let a = fs.alloc(ForestNode::Leaf(Leaf::new("a", "a")));
        let b = fs.alloc(ForestNode::Leaf(Leaf::new("b", "b")));
        let p = fs.alloc(ForestNode::Pair(a, b));
        let ts = fs.trees(p, EnumLimits::default());
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].to_string(), "(a . b)");
        assert_eq!(ts[0].leaves(), 2);
    }

    #[test]
    fn ambiguity_node_unions() {
        let mut fs = Forest::new();
        let a = fs.alloc(ForestNode::Leaf(Leaf::new("a", "a")));
        let b = fs.alloc(ForestNode::Leaf(Leaf::new("b", "b")));
        let amb = fs.alloc(ForestNode::Amb(vec![a, b]));
        let ts = fs.trees(amb, EnumLimits::default());
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn map_applies_reduction() {
        let mut fs = Forest::new();
        let a = fs.alloc(ForestNode::Leaf(Leaf::new("a", "a")));
        let m = fs.map(Reduce::func("wrap", |t| Tree::node("w", vec![t])), a);
        let ts = fs.trees(m, EnumLimits::default());
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].to_string(), "(w a)");
    }

    #[test]
    fn pair_left_reduction_is_one_to_many() {
        let mut fs = Forest::new();
        let s1 = fs.alloc(ForestNode::Leaf(Leaf::new("x", "x")));
        let s2 = fs.alloc(ForestNode::Leaf(Leaf::new("y", "y")));
        let s = fs.alloc(ForestNode::Amb(vec![s1, s2]));
        let u = fs.alloc(ForestNode::Leaf(Leaf::new("u", "u")));
        let m = fs.map(Reduce::pair_left(s), u);
        let mut strs: Vec<String> =
            fs.trees(m, EnumLimits::default()).iter().map(|t| t.to_string()).collect();
        strs.sort();
        assert_eq!(strs, ["(x . u)", "(y . u)"]);
    }

    #[test]
    fn bounded_enumeration_stays_bounded_under_pairing() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let func = Reduce::func("counted", move |t| {
            seen.fetch_add(1, Ordering::Relaxed);
            t
        });
        let mut fs = Forest::new();
        let leaves: Vec<ForestId> = (0..1_000)
            .map(|i| fs.alloc(ForestNode::Leaf(Leaf::new("x", &i.to_string()))))
            .collect();
        let amb = fs.alloc(ForestNode::Amb(leaves));
        let s = fs.map(func, amb);
        let u = fs.alloc(ForestNode::Leaf(Leaf::new("u", "u")));
        let m = fs.map(Reduce::pair_left(s), u);
        let one = EnumLimits { max_trees: 1, ..EnumLimits::default() };
        assert_eq!(fs.trees(m, one).len(), 1);
        assert!(calls.load(Ordering::Relaxed) <= 1, "{calls:?} calls for one tree");
        // Composed and mapped reductions stop at the budget too.
        let composed =
            fs.map(Reduce::map_first(Reduce::pair_left(s)).compose(Reduce::pair_right(s)), u);
        calls.store(0, Ordering::Relaxed);
        assert_eq!(fs.trees(composed, one).len(), 1);
        assert!(calls.load(Ordering::Relaxed) <= 2, "{calls:?} calls for one tree");
        let three = EnumLimits { max_trees: 3, ..EnumLimits::default() };
        assert_eq!(fs.trees(composed, three).len(), 3);
    }

    #[test]
    fn reassoc_rotates_pairs() {
        let mut fs = Forest::new();
        let a = fs.alloc(ForestNode::Leaf(Leaf::new("n", "1")));
        let b = fs.alloc(ForestNode::Leaf(Leaf::new("n", "2")));
        let c = fs.alloc(ForestNode::Leaf(Leaf::new("n", "3")));
        let bc = fs.alloc(ForestNode::Pair(b, c));
        let abc = fs.alloc(ForestNode::Pair(a, bc));
        let m = fs.map(Reduce::reassoc(), abc);
        let ts = fs.trees(m, EnumLimits::default());
        assert_eq!(ts[0].to_string(), "((1 . 2) . 3)");
    }

    #[test]
    fn label_flattens_spines() {
        let mut fs = Forest::hash_consed();
        let a = fs.leaf("a", "a");
        let b = fs.leaf("b", "b");
        let spine = fs.pair(a, b);
        let n = fs.label("S", 2, spine);
        let ts = fs.trees(n, EnumLimits::default());
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].to_string(), "(S a b)");
    }

    #[test]
    fn cyclic_forest_enumeration_terminates() {
        let mut fs = Forest::new();
        let leaf = fs.alloc(ForestNode::Leaf(Leaf::new("a", "a")));
        let amb = fs.reserve();
        let pair = fs.alloc(ForestNode::Pair(amb, leaf));
        fs.set(amb, ForestNode::Amb(vec![leaf, pair]));
        // Infinitely many trees: a, (a . a), ((a . a) . a), …
        let ts = fs.trees(amb, EnumLimits { max_trees: 5, max_depth: 64 });
        assert_eq!(ts.len(), 5);
    }

    #[test]
    fn consing_dedups_structurally_identical_nodes() {
        let mut fs = Forest::hash_consed();
        let a1 = fs.leaf("a", "a");
        let a2 = fs.leaf("a", "a");
        assert_eq!(a1, a2);
        let p1 = fs.pair(a1, a2);
        let p2 = fs.pair(a2, a1);
        assert_eq!(p1, p2);
        let m1 = fs.amb(vec![p1, a1]);
        let m2 = fs.amb(vec![a2, p2, p1]);
        assert_eq!(m1, m2, "amb is order- and duplicate-insensitive");
        let l1 = fs.label("S", 2, p1);
        let l2 = fs.label("S", 2, p2);
        assert_eq!(l1, l2);
        assert_ne!(fs.label("S", 1, p1), l1, "arity is part of the identity");
    }

    #[test]
    fn amb_collapses_trivial_cases() {
        let mut fs = Forest::hash_consed();
        let e = fs.empty();
        let a = fs.leaf("a", "a");
        assert_eq!(fs.amb(vec![]), e);
        assert_eq!(fs.amb(vec![e]), e);
        assert_eq!(fs.amb(vec![a, e]), a);
        let b = fs.leaf("b", "b");
        let u1 = fs.amb(vec![a, b]);
        let nested = fs.amb(vec![u1, a]);
        assert_eq!(nested, u1, "splicing + dedup keeps the flat set");
        assert_eq!(fs.pair(a, e), e, "pair annihilates on empty");
    }

    #[test]
    fn hashes_reflect_structure_not_ids() {
        let mut f1 = Forest::hash_consed();
        let mut f2 = Forest::hash_consed();
        // Same structure built in different orders → same root hash.
        let (a1, b1) = (f1.leaf("a", "a"), f1.leaf("b", "b"));
        let (b2, a2) = (f2.leaf("b", "b"), f2.leaf("a", "a"));
        let p1 = f1.pair(a1, b1);
        let p2 = f2.pair(a2, b2);
        assert_eq!(f1.node_hash(p1), f2.node_hash(p2));
        let u1 = f1.amb(vec![p1, a1]);
        let u2 = f2.amb(vec![a2, p2]);
        assert_eq!(f1.node_hash(u1), f2.node_hash(u2), "amb order canonicalized by hash");
        assert_ne!(f1.node_hash(p1), f1.node_hash(a1));
    }

    #[test]
    fn only_hash_consed_arenas_keep_hashes() {
        let (node, red) = (std::mem::size_of::<ForestNode>(), std::mem::size_of::<Red>());
        let mut raw = Forest::new();
        let a = raw.alloc(ForestNode::Leaf(Leaf::new("a", "a")));
        let p = raw.reserve();
        let m = raw.map(Reduce::reassoc(), a);
        raw.set(p, ForestNode::Pair(a, m));
        assert_eq!(raw.arena_bytes(), 3 * node + raw.reduction_count() * red);
        assert!([a, p, m].into_iter().all(|id| raw.node_hash(id) == 0));
        let mut consed = Forest::hash_consed();
        let a = consed.leaf("a", "a");
        let s = consed.label("S", 1, a);
        assert_eq!(consed.len(), 2);
        assert_eq!(consed.arena_bytes(), 2 * (node + 8) + consed.reduction_count() * red);
        assert_ne!(consed.node_hash(s), consed.node_hash(a));
    }

    #[test]
    fn depth_and_reachable_count() {
        let mut fs = Forest::hash_consed();
        let a = fs.leaf("a", "a");
        let p = fs.pair(a, a);
        let q = fs.pair(p, a);
        assert_eq!(fs.depth(a), 0);
        assert_eq!(fs.depth(q), 2);
        assert_eq!(fs.reachable_count(q), 3, "sharing counted once");
        // Cycles terminate.
        let ph = fs.reserve();
        let r = fs.alloc(ForestNode::Pair(ph, a));
        fs.set(ph, ForestNode::Amb(vec![a, r]));
        assert!(fs.depth(ph) <= 2);
        assert_eq!(fs.reachable_count(ph), 3);
    }

    #[test]
    fn depth_contracts_cycles() {
        // ph = a | (ph . c), with c three pairs deep: the cycle through ph
        // and r is one node of the path, whichever of the two a walk
        // enters first.
        let mut fs = Forest::hash_consed();
        let a = fs.leaf("a", "a");
        let mut c = a;
        for _ in 0..3 {
            c = fs.pair(c, a);
        }
        let ph = fs.reserve();
        let r = fs.alloc(ForestNode::Pair(ph, c));
        fs.set(ph, ForestNode::Amb(vec![a, r]));
        assert_eq!(fs.depth(c), 3);
        assert_eq!(fs.depth(ph), 4);
        assert_eq!(fs.depth(r), 4);
    }
}
