//! Forest statistics from one walk: exact tree counting over (possibly
//! cyclic) shared forests, productivity, depth and size.
//!
//! Every statistic reads one iterative Tarjan walk, [`Forest::each_scc`],
//! which hands each strongly connected component (SCC) under a root to its
//! caller, children first, and one node-value function, `value`, generic
//! over a [`Semiring`]: `bool` answers [`Forest::has_tree`], [`TreeCount`]
//! answers [`Forest::count`]. A node without a cycle takes its value from
//! its children's, which the walk has already handed over; a cyclic SCC
//! takes the least fixed point, by a worklist over its members. Counting
//! never enumerates: `u128` arithmetic with an explicit
//! [`TreeCount::Overflow`] when even 128 bits saturate (exponentially
//! ambiguous grammars reach 2¹²⁸ parses within a few hundred tokens), and
//! [`TreeCount::Infinite`] exactly on a cycle of *live* edges (edges
//! between nodes that have a tree) and on what reaches one. A walk that
//! met a cycle runs once more over live edges to find those, so a cycle
//! that cannot contribute a tree (one strangled by an empty sibling) still
//! counts exactly.
//!
//! A reduction multiplies the trees it maps by the same factor whatever
//! their shape: `map-first(g)` and `map-second(g)` apply `g` to the whole
//! tree when it is not a pair, in [`Forest::trees`] and in canonical forms
//! alike, so counts, enumeration and canonical forms agree.

use crate::forest::{Forest, ForestId, ForestNode};
use crate::reduce::{Red, RedId};

/// The number of distinct trees a forest denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreeCount {
    /// An exact count (0 = no parses).
    Finite(u128),
    /// More than `u128::MAX` trees (but finitely many).
    Overflow,
    /// Infinitely many trees (the forest has a productive cycle).
    Infinite,
}

impl TreeCount {
    /// Is this exactly zero trees?
    pub fn is_zero(&self) -> bool {
        matches!(self, TreeCount::Finite(0))
    }

    /// The exact count, if finite and representable.
    pub fn as_finite(&self) -> Option<u128> {
        match self {
            TreeCount::Finite(n) => Some(*n),
            _ => None,
        }
    }
}

/// Saturating-aware sum: `Infinite` dominates, then `Overflow`.
impl std::ops::Add for TreeCount {
    type Output = TreeCount;

    fn add(self, other: TreeCount) -> TreeCount {
        use TreeCount::*;
        match (self, other) {
            (Infinite, _) | (_, Infinite) => Infinite,
            (Overflow, _) | (_, Overflow) => Overflow,
            (Finite(a), Finite(b)) => a.checked_add(b).map_or(Overflow, Finite),
        }
    }
}

/// Saturating-aware product. Zero annihilates everything — including
/// `Infinite`: a pair with an empty side denotes no trees however ambiguous
/// the other side is.
impl std::ops::Mul for TreeCount {
    type Output = TreeCount;

    fn mul(self, other: TreeCount) -> TreeCount {
        use TreeCount::*;
        match (self, other) {
            (Finite(0), _) | (_, Finite(0)) => Finite(0),
            (Infinite, _) | (_, Infinite) => Infinite,
            (Overflow, _) | (_, Overflow) => Overflow,
            (Finite(a), Finite(b)) => a.checked_mul(b).map_or(Overflow, Finite),
        }
    }
}

impl std::fmt::Display for TreeCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeCount::Finite(n) => write!(f, "{n}"),
            TreeCount::Overflow => write!(f, ">u128"),
            TreeCount::Infinite => write!(f, "∞"),
        }
    }
}

/// The two operations a node's value is built from: `plus` joins the
/// alternatives of an ambiguity node, `times` the two sides of a pair and a
/// reduction's multiplier. `ZERO` is the value of no trees and annihilates
/// under `times`.
pub(crate) trait Semiring: Copy + PartialEq {
    /// The value of no trees.
    const ZERO: Self;
    /// The value of one tree.
    const ONE: Self;
    /// The value of the union of two tree sets.
    fn plus(self, other: Self) -> Self;
    /// The value of the cross product of two tree sets.
    fn times(self, other: Self) -> Self;
}

/// Has a tree at all.
impl Semiring for bool {
    const ZERO: bool = false;
    const ONE: bool = true;

    fn plus(self, other: bool) -> bool {
        self || other
    }

    fn times(self, other: bool) -> bool {
        self && other
    }
}

/// How many trees.
impl Semiring for TreeCount {
    const ZERO: TreeCount = TreeCount::Finite(0);
    const ONE: TreeCount = TreeCount::Finite(1);

    fn plus(self, other: TreeCount) -> TreeCount {
        self + other
    }

    fn times(self, other: TreeCount) -> TreeCount {
        self * other
    }
}

/// A strongly connected component, as [`Forest::each_scc`] hands it over.
pub(crate) struct Scc<'a> {
    /// Its nodes.
    pub(crate) nodes: &'a [ForestId],
    /// Does it hold a cycle: two or more nodes, or one with an edge to
    /// itself?
    pub(crate) cyclic: bool,
    /// The longest path from it, in edges, with every SCC contracted to
    /// one node.
    pub(crate) height: usize,
}

/// What one walk from a root learns.
pub(crate) struct Survey<S> {
    /// Each reachable node's value: `ZERO` exactly where the node has no
    /// tree, and exact wherever no cycle is reachable (see
    /// [`Forest::census`] for counts that are exact everywhere).
    pub(crate) values: Vec<S>,
    /// Nodes reachable from the root.
    pub(crate) nodes: usize,
    /// The root's [`Scc::height`].
    pub(crate) depth: usize,
    /// Did the walk meet a cycle?
    pub(crate) cyclic: bool,
}

impl Forest {
    /// Does the forest rooted at `f` contain at least one (finite) tree?
    ///
    /// Computed as a least fixed point, so a bare cycle with no grounded
    /// alternative has no tree.
    pub fn has_tree(&self, f: ForestId) -> bool {
        self.survey::<bool>(f).values[f.index()]
    }

    /// Counts the trees of the forest rooted at `f` — exactly, without
    /// enumerating any.
    pub fn count(&self, f: ForestId) -> TreeCount {
        self.census(f).values[f.index()]
    }

    /// [`survey`](Forest::survey) in the counting semiring, with counts
    /// exact at the root and at every node it reaches over live edges: a
    /// walk that met a cycle runs once more, over live edges, where a cycle
    /// pumps unboundedly many trees.
    pub(crate) fn census(&self, root: ForestId) -> Survey<TreeCount> {
        let mut survey = self.survey::<TreeCount>(root);
        if survey.cyclic {
            let has: Vec<bool> = survey.values.iter().map(|c| !c.is_zero()).collect();
            let counts = &mut survey.values;
            self.each_scc(root, Some(&has), |scc| {
                for &v in scc.nodes {
                    counts[v.index()] = match scc.cyclic {
                        true => TreeCount::Infinite,
                        // A child off the live edges keeps its zero.
                        false => self.value(v, |c| counts[c.index()]),
                    };
                }
            });
        }
        survey
    }

    /// The one walk: every node reachable from `root` valued in `S`, and
    /// the forest's size and depth.
    pub(crate) fn survey<S: Semiring>(&self, root: ForestId) -> Survey<S> {
        let mut values = vec![S::ZERO; self.len()];
        let (mut nodes, mut depth, mut cyclic) = (0, 0, false);
        let mut fixpoint = Fixpoint::default();
        self.each_scc(root, None, |scc| {
            nodes += scc.nodes.len();
            // The root's SCC comes last.
            depth = scc.height;
            if scc.cyclic {
                cyclic = true;
                fixpoint.solve(self, scc.nodes, &mut values);
            } else {
                let v = scc.nodes[0];
                values[v.index()] = self.value(v, |c| values[c.index()]);
            }
        });
        Survey { values, nodes, depth, cyclic }
    }

    /// The value of node `v` in `S`, from its children's values `of`.
    fn value<S: Semiring>(&self, v: ForestId, of: impl Fn(ForestId) -> S) -> S {
        match self.get(v) {
            ForestNode::Empty | ForestNode::Cycle => S::ZERO,
            ForestNode::Eps | ForestNode::Leaf(_) | ForestNode::Const(_) => S::ONE,
            ForestNode::Pair(a, b) => of(*a).times(of(*b)),
            ForestNode::Amb(alts) => alts.iter().fold(S::ZERO, |acc, a| acc.plus(of(*a))),
            ForestNode::Map(red, x) => of(*x).times(self.multiplier(*red, &of)),
        }
    }

    /// What reduction `red` makes of each tree it maps, whatever the
    /// tree's shape: the pairing forests' values, multiplied.
    fn multiplier<S: Semiring>(&self, red: RedId, of: &impl Fn(ForestId) -> S) -> S {
        match self.red(red) {
            Red::Compose(g, h) => self.multiplier(g, of).times(self.multiplier(h, of)),
            Red::PairLeft(s) | Red::PairRight(s) => of(s),
            Red::MapFirst(g) | Red::MapSecond(g) => self.multiplier(g, of),
            // Flattening and user functions are assumed injective per tree.
            Red::Reassoc | Red::Label(..) | Red::Func(_) => S::ONE,
        }
    }

    /// Tarjan's algorithm, iteratively, from `root`: hands every SCC
    /// reachable from it to `visit`, children first, so every edge out of
    /// an SCC leads to one handed over before it. With `live`, the walk
    /// follows only edges between nodes it marks (and starts only from a
    /// marked root). Beyond three arrays as long as the arena, time and
    /// memory are linear in the nodes and edges reached.
    pub(crate) fn each_scc(
        &self,
        root: ForestId,
        live: Option<&[bool]>,
        mut visit: impl FnMut(Scc<'_>),
    ) {
        const UNSEEN: u32 = 0;
        const DONE: u32 = u32::MAX;
        let followed = |w: ForestId| live.is_none_or(|has| has[w.index()]);
        if !followed(root) {
            return;
        }
        // `num[v]`: UNSEEN, DONE once v's SCC is handed over, else v's
        // visit number while it waits on Tarjan's stack.
        let mut num = vec![UNSEEN; self.len()];
        let mut low = vec![0u32; self.len()];
        let mut height = vec![0usize; self.len()];
        let mut stack: Vec<ForestId> = Vec::new();
        // Frames: a node and where its successors start in `succs`, plus
        // the next one to follow. The top frame's successors end `succs`.
        let mut frames: Vec<(ForestId, usize, usize)> = Vec::new();
        let mut succs: Vec<ForestId> = Vec::new();
        let mut next = 1;
        let mut enter = Some(root);
        loop {
            if let Some(v) = enter.take() {
                num[v.index()] = next;
                low[v.index()] = next;
                next += 1;
                stack.push(v);
                let start = succs.len();
                self.successors(v, &mut succs);
                frames.push((v, start, start));
            }
            let Some((v, start, pos)) = frames.last_mut() else { break };
            let (v, start) = (*v, *start);
            if let Some(&w) = succs.get(*pos) {
                *pos += 1;
                match num[w.index()] {
                    _ if !followed(w) => {}
                    UNSEEN => enter = Some(w),
                    DONE => {}
                    on_stack => low[v.index()] = low[v.index()].min(on_stack),
                }
                continue;
            }
            frames.pop();
            let out = &succs[start..];
            // Edges to SCCs already handed over leave v's SCC; the others
            // stay inside it.
            height[v.index()] = out
                .iter()
                .filter(|w| num[w.index()] == DONE)
                .map(|w| height[w.index()] + 1)
                .max()
                .unwrap_or(0);
            if low[v.index()] == num[v.index()] {
                let at = stack.iter().rposition(|&w| w == v).expect("v is on the stack");
                let nodes = &stack[at..];
                let h = nodes.iter().map(|w| height[w.index()]).max().unwrap_or(0);
                for w in nodes {
                    num[w.index()] = DONE;
                    height[w.index()] = h;
                }
                // A lone node is cyclic through an edge to itself.
                let cyclic = nodes.len() > 1 || out.contains(&v);
                visit(Scc { nodes, cyclic, height: h });
                stack.truncate(at);
            }
            succs.truncate(start);
            if let Some(&(parent, ..)) = frames.last() {
                low[parent.index()] = low[parent.index()].min(low[v.index()]);
            }
        }
    }
}

/// The least fixed point of [`Forest::value`] over one cyclic SCC, whose
/// children outside it are final: every member is evaluated once, and one
/// that becomes nonzero wakes its parents inside the SCC. Nodes only ever
/// turn nonzero, so a member is evaluated once plus once per child that
/// turns. The buffers are kept across the SCCs of one walk.
#[derive(Default)]
struct Fixpoint {
    /// Each member's position in its SCC; stale entries are told apart by
    /// checking the SCC.
    slot: Vec<u32>,
    /// Per member, its first link in `parents`.
    head: Vec<u32>,
    /// Links: a parent's position and the next link.
    parents: Vec<(u32, u32)>,
    work: Vec<u32>,
    succ: Vec<ForestId>,
}

impl Fixpoint {
    fn solve<S: Semiring>(&mut self, forest: &Forest, nodes: &[ForestId], values: &mut [S]) {
        const END: u32 = u32::MAX;
        self.slot.resize(forest.len(), 0);
        for (i, v) in nodes.iter().enumerate() {
            self.slot[v.index()] = i as u32;
        }
        self.head.clear();
        self.head.resize(nodes.len(), END);
        self.parents.clear();
        for (i, &v) in nodes.iter().enumerate() {
            self.succ.clear();
            forest.successors(v, &mut self.succ);
            for w in &self.succ {
                let c = self.slot[w.index()] as usize;
                if nodes.get(c) == Some(w) {
                    self.parents.push((i as u32, self.head[c]));
                    self.head[c] = self.parents.len() as u32 - 1;
                }
            }
        }
        self.work.clear();
        self.work.extend(0..nodes.len() as u32);
        while let Some(i) = self.work.pop() {
            let v = nodes[i as usize];
            if values[v.index()] != S::ZERO {
                continue;
            }
            let x = forest.value(v, |c| values[c.index()]);
            if x == S::ZERO {
                continue;
            }
            values[v.index()] = x;
            let mut link = self.head[i as usize];
            while link != END {
                let (parent, next) = self.parents[link as usize];
                self.work.push(parent);
                link = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::EnumLimits;
    use crate::Reduce;

    #[test]
    fn count_basic_shapes() {
        let mut fs = Forest::hash_consed();
        let a = fs.leaf("a", "a");
        let b = fs.leaf("b", "b");
        let amb = fs.amb(vec![a, b]);
        assert_eq!(fs.count(amb), TreeCount::Finite(2));
        let p = fs.pair(amb, amb);
        assert_eq!(fs.count(p), TreeCount::Finite(4));
        let e = fs.empty();
        assert_eq!(fs.count(e), TreeCount::Finite(0));
        let dead = fs.alloc(ForestNode::Pair(p, e));
        assert_eq!(fs.count(dead), TreeCount::Finite(0));
        assert!(fs.has_tree(p));
        assert!(!fs.has_tree(dead));
    }

    #[test]
    fn productive_cycle_is_infinite() {
        let mut fs = Forest::new();
        let leaf = fs.alloc(ForestNode::Leaf(Leafy::leaf()));
        let amb = fs.reserve();
        let pair = fs.alloc(ForestNode::Pair(amb, leaf));
        fs.set(amb, ForestNode::Amb(vec![leaf, pair]));
        assert_eq!(fs.count(amb), TreeCount::Infinite);
        assert!(fs.has_tree(amb));
    }

    /// Test helper: a single leaf payload.
    struct Leafy;
    impl Leafy {
        fn leaf() -> crate::tree::Leaf {
            crate::tree::Leaf::new("a", "a")
        }
    }

    #[test]
    fn unproductive_cycle_counts_zero() {
        let mut fs = Forest::new();
        let amb = fs.reserve();
        let pair = fs.alloc(ForestNode::Pair(amb, amb));
        fs.set(amb, ForestNode::Amb(vec![pair]));
        assert!(!fs.has_tree(amb));
        assert_eq!(fs.count(amb), TreeCount::Finite(0));
        assert!(fs.trees(amb, EnumLimits::default()).is_empty());
    }

    #[test]
    fn strangled_cycle_is_finite() {
        // amb = { leaf } ∪ (amb ◦ ∅): the cycle exists syntactically but
        // cannot pump — the pair side has no tree — so the count is exact.
        let mut fs = Forest::new();
        let leaf = fs.alloc(ForestNode::Leaf(Leafy::leaf()));
        let empty = fs.alloc(ForestNode::Empty);
        let amb = fs.reserve();
        let pair = fs.alloc(ForestNode::Pair(amb, empty));
        fs.set(amb, ForestNode::Amb(vec![leaf, pair]));
        assert_eq!(fs.count(amb), TreeCount::Finite(1));
    }

    #[test]
    fn a_long_ring_is_solved_in_linear_time() {
        // A ring of ambiguity nodes grounded at one node: every node has a
        // tree, and the ring pumps infinitely many. Re-evaluating the ring
        // until nothing changes would take about n² evaluations here.
        let n = 100_000;
        let mut fs = Forest::new();
        let leaf = fs.alloc(ForestNode::Leaf(Leafy::leaf()));
        let ring: Vec<ForestId> = (0..n).map(|_| fs.reserve()).collect();
        for (i, &v) in ring.iter().enumerate() {
            let next = ring[(i + 1) % n];
            let alts = if i == n / 2 { vec![next, leaf] } else { vec![next] };
            fs.set(v, ForestNode::Amb(alts));
        }
        assert!(fs.has_tree(ring[0]));
        assert_eq!(fs.count(ring[0]), TreeCount::Infinite);
        assert_eq!(fs.reachable_count(ring[0]), n + 1);
        assert_eq!(fs.depth(ring[0]), 1, "the ring counts as one node");
    }

    #[test]
    fn overflow_is_explicit_not_saturating_silence() {
        // 2^130 via a chain of 130 binary ambiguity pairs.
        let mut fs = Forest::hash_consed();
        let a = fs.leaf("a", "a");
        let b = fs.leaf("b", "b");
        let two = fs.amb(vec![a, b]);
        let mut chain = two;
        for _ in 0..129 {
            chain = fs.alloc(ForestNode::Pair(two, chain));
        }
        assert_eq!(fs.count(chain), TreeCount::Overflow);
        // 2^100 still exact.
        let mut chain = two;
        for _ in 0..99 {
            chain = fs.alloc(ForestNode::Pair(two, chain));
        }
        assert_eq!(fs.count(chain), TreeCount::Finite(1u128 << 100));
    }

    #[test]
    fn catalan_counts_by_spans() {
        // The chart-shaped packed forest for S → S S | a over a^n.
        let catalan: [u128; 9] = [1, 1, 2, 5, 14, 42, 132, 429, 1430];
        for n in 1..=9usize {
            let mut fs = Forest::hash_consed();
            let leaf = fs.leaf("a", "a");
            let mut spans = std::collections::HashMap::new();
            for w in 1..=n {
                for i in 0..=(n - w) {
                    let j = i + w;
                    let id = if w == 1 {
                        leaf
                    } else {
                        let alts: Vec<ForestId> =
                            (i + 1..j).map(|k| fs.pair(spans[&(i, k)], spans[&(k, j)])).collect();
                        fs.amb(alts)
                    };
                    spans.insert((i, j), id);
                }
            }
            assert_eq!(fs.count(spans[&(0, n)]), TreeCount::Finite(catalan[n - 1]), "n={n}");
        }
    }

    #[test]
    fn pair_left_multiplier_counts() {
        let mut fs = Forest::hash_consed();
        let x = fs.leaf("x", "x");
        let y = fs.leaf("y", "y");
        let s = fs.amb(vec![x, y]);
        let u = fs.leaf("u", "u");
        let m = fs.map(Reduce::pair_left(s), u);
        assert_eq!(fs.count(m), TreeCount::Finite(2));
        // `map-first(g)` maps a tree that is not a pair whole: pairing it
        // with no tree leaves none, by every query.
        let e = fs.empty();
        let dead = fs.map(Reduce::map_first(Reduce::pair_left(e)), u);
        assert_eq!(fs.count(dead), TreeCount::Finite(0));
        assert!(!fs.has_tree(dead));
        assert!(fs.trees(dead, EnumLimits::default()).is_empty());
        assert_eq!(fs.extract_canonical(dead).unwrap().count(), TreeCount::Finite(0));
        assert_eq!(fs.extract_canonical_pruned(dead).unwrap().count(), TreeCount::Finite(0));
        // And pairing it with `s` makes one tree per tree of `s`.
        let two = fs.map(Reduce::map_first(Reduce::pair_left(s)), u);
        assert_eq!(fs.count(two), TreeCount::Finite(2));
        assert_eq!(fs.trees(two, EnumLimits::default()).len(), 2);
    }

    #[test]
    fn tree_count_algebra() {
        use TreeCount::*;
        assert_eq!(Infinite * Finite(0), Finite(0));
        assert_eq!(Infinite * Finite(3), Infinite);
        assert_eq!(Overflow + Infinite, Infinite);
        assert_eq!(Finite(u128::MAX) + Finite(1), Overflow);
        assert_eq!(Overflow * Finite(0), Finite(0));
        assert_eq!(Finite(2) * Finite(3), Finite(6));
        assert!(Finite(0).is_zero());
        assert_eq!(Finite(7).as_finite(), Some(7));
        assert_eq!(Infinite.as_finite(), None);
        assert_eq!(format!("{Overflow}"), ">u128");
    }
}
