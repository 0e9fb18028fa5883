//! Exact tree counting over (possibly cyclic) shared forests.
//!
//! Counting never enumerates: it is a memoized traversal of the forest DAG
//! with `u128` arithmetic, an explicit [`TreeCount::Overflow`] outcome when
//! even 128 bits saturate (exponentially ambiguous grammars reach 2¹²⁸
//! parses within a few hundred tokens), and [`TreeCount::Infinite`] when
//! the forest has a *productive* cycle — detected by SCC analysis of the
//! live-edge subgraph, so a cycle that cannot contribute a tree (e.g. one
//! strangled by an empty sibling) still counts exactly.

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

/// The per-count analysis state, shared by `has_tree` and `count`.
struct Analysis {
    /// Reachable node ids (reduction-embedded forests included).
    reachable: Vec<ForestId>,
    /// `has[v]`: does node `v` denote at least one (finite) tree?
    has: Vec<bool>,
}

impl Forest {
    /// Does the forest rooted at `f` contain at least one (finite) tree?
    ///
    /// Computed as a least fixed point, so a bare cycle with no grounded
    /// alternative has no tree.
    pub fn has_tree(&self, f: ForestId) -> bool {
        self.analyze(f).has[f.index()]
    }

    /// Counts the trees of the forest rooted at `f` — exactly, without
    /// enumerating any.
    pub fn count(&self, f: ForestId) -> TreeCount {
        let analysis = self.analyze(f);
        // Fast path: a single post-order pass that detects back-edges as it
        // goes. Acyclic forests (every finite-ambiguity parse) never pay
        // for SCC analysis; a detected cycle falls back to the full
        // Tarjan-based classification.
        match self.try_count_acyclic(f, &analysis) {
            Some(count) => count,
            None => {
                let infinite = self.productive_cycle_nodes(&analysis);
                self.count_with(f, &analysis, &infinite)
            }
        }
    }

    /// One-pass memoized post-order count, bailing out (`None`) on the
    /// first live back-edge (a cycle, where infinite-ambiguity
    /// classification is needed).
    fn try_count_acyclic(&self, root: ForestId, analysis: &Analysis) -> Option<TreeCount> {
        const UNSEEN: u8 = 0;
        const OPEN: u8 = 1;
        const DONE: u8 = 2;
        let mut state = vec![UNSEEN; self.len()];
        let mut memo: Vec<Option<TreeCount>> = vec![None; self.len()];
        let mut stack: Vec<(ForestId, bool)> = vec![(root, false)];
        let mut succ = Vec::new();
        while let Some((v, post)) = stack.pop() {
            let i = v.index();
            if !post {
                if state[i] == DONE {
                    continue;
                }
                if state[i] == OPEN {
                    return None; // live back-edge: cyclic
                }
                if !analysis.has[i] {
                    memo[i] = Some(TreeCount::Finite(0));
                    state[i] = DONE;
                    continue;
                }
                state[i] = OPEN;
                stack.push((v, true));
                succ.clear();
                self.live_successors(v, &analysis.has, &mut succ);
                for s in &succ {
                    match state[s.index()] {
                        DONE => {}
                        OPEN => return None,
                        _ => stack.push((*s, false)),
                    }
                }
            } else {
                memo[i] = Some(self.count_eval(v, &|id| live_count(&memo, &analysis.has, id)));
                state[i] = DONE;
            }
        }
        memo[root.index()].or(Some(TreeCount::Finite(0)))
    }

    /// Tree count, depth and reachable node count of the forest rooted at
    /// `root`, in one post-order pass over every reachable node — or `None`
    /// on the first back-edge, live or not. On an acyclic forest a node's
    /// count is zero exactly when it has no tree, so no productivity pass
    /// is needed, and the three figures equal [`count`](Forest::count),
    /// [`depth`](Forest::depth) and
    /// [`reachable_count`](Forest::reachable_count).
    pub(crate) fn acyclic_summary(&self, root: ForestId) -> Option<(TreeCount, usize, usize)> {
        const UNSEEN: u8 = 0;
        const OPEN: u8 = 1;
        const DONE: u8 = 2;
        let mut state = vec![UNSEEN; self.len()];
        let mut counts = vec![TreeCount::Finite(0); self.len()];
        let mut depths = vec![0usize; self.len()];
        let mut nodes = 0;
        let mut stack: Vec<(ForestId, bool)> = vec![(root, false)];
        let mut succ = Vec::new();
        while let Some((v, post)) = stack.pop() {
            let i = v.index();
            succ.clear();
            self.successors(v, &mut succ);
            if !post {
                match state[i] {
                    DONE => continue,
                    OPEN => return None,
                    _ => {}
                }
                state[i] = OPEN;
                nodes += 1;
                stack.push((v, true));
                for s in &succ {
                    match state[s.index()] {
                        DONE => {}
                        OPEN => return None,
                        _ => stack.push((*s, false)),
                    }
                }
            } else {
                depths[i] = succ.iter().map(|s| depths[s.index()] + 1).max().unwrap_or(0);
                counts[i] = self.count_eval(v, &|id| counts[id.index()]);
                state[i] = DONE;
            }
        }
        Some((counts[root.index()], depths[root.index()], nodes))
    }

    /// The `has_tree` bit for every node reachable from `root` (crate
    /// hook for the canonicalizer's productivity pruning).
    pub(crate) fn has_tree_vector(&self, root: ForestId) -> Vec<bool> {
        self.analyze(root).has
    }

    /// Reachability + the `has_tree` least fixed point (worklist over
    /// reverse dependencies; each node re-evaluates once per in-edge flip).
    /// The reverse edges live in one flat CSR array — no per-node
    /// allocation on this path.
    fn analyze(&self, root: ForestId) -> Analysis {
        let n = self.len();
        let mut seen = vec![false; n];
        let mut reachable = Vec::new();
        let mut stack = vec![root];
        let mut succ = Vec::new();
        // (child, parent) edge list, compacted into CSR below.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id.index()], true) {
                continue;
            }
            reachable.push(id);
            succ.clear();
            self.successors(id, &mut succ);
            for s in &succ {
                edges.push((s.0, id.0));
                if !seen[s.index()] {
                    stack.push(*s);
                }
            }
        }
        // CSR: preds of node c are pred_flat[pred_start[c]..pred_start[c+1]].
        let mut pred_start = vec![0u32; n + 1];
        for &(c, _) in &edges {
            pred_start[c as usize + 1] += 1;
        }
        for i in 0..n {
            pred_start[i + 1] += pred_start[i];
        }
        let mut pred_flat = vec![0u32; edges.len()];
        let mut cursor = pred_start.clone();
        for &(c, p) in &edges {
            pred_flat[cursor[c as usize] as usize] = p;
            cursor[c as usize] += 1;
        }
        let mut has = vec![false; n];
        // Seed: ground nodes, then propagate flips through predecessors.
        let mut work: Vec<ForestId> = reachable
            .iter()
            .copied()
            .filter(|v| {
                matches!(self.get(*v), ForestNode::Eps | ForestNode::Leaf(_) | ForestNode::Const(_))
            })
            .collect();
        for v in &work {
            has[v.index()] = true;
        }
        while let Some(v) = work.pop() {
            let (a, b) = (pred_start[v.index()] as usize, pred_start[v.index() + 1] as usize);
            for &pred in &pred_flat[a..b] {
                let p = ForestId(pred);
                if !has[p.index()] && self.has_eval(p, &has) {
                    has[p.index()] = true;
                    work.push(p);
                }
            }
        }
        Analysis { reachable, has }
    }

    fn has_eval(&self, v: ForestId, has: &[bool]) -> bool {
        match self.get(v) {
            ForestNode::Empty | ForestNode::Cycle => false,
            ForestNode::Eps | ForestNode::Leaf(_) | ForestNode::Const(_) => true,
            ForestNode::Pair(a, b) => has[a.index()] && has[b.index()],
            ForestNode::Amb(alts) => alts.iter().any(|a| has[a.index()]),
            ForestNode::Map(red, x) => has[x.index()] && self.mult_positive(*red, has),
        }
    }

    /// Does the reduction produce at least one output per input tree?
    fn mult_positive(&self, red: RedId, has: &[bool]) -> bool {
        match self.red(red) {
            Red::Compose(g, h) => self.mult_positive(g, has) && self.mult_positive(h, has),
            Red::PairLeft(s) | Red::PairRight(s) => has[s.index()],
            Red::MapFirst(g) | Red::MapSecond(g) => self.mult_positive(g, has),
            Red::Reassoc | Red::Label(..) | Red::Func(_) => true,
        }
    }

    /// Edges along which tree *multiplicity* flows: a cycle of live edges
    /// through a productive node pumps unboundedly many distinct trees.
    fn live_successors(&self, v: ForestId, has: &[bool], out: &mut Vec<ForestId>) {
        match self.get(v) {
            ForestNode::Empty
            | ForestNode::Eps
            | ForestNode::Leaf(_)
            | ForestNode::Const(_)
            | ForestNode::Cycle => {}
            ForestNode::Pair(a, b) => {
                if has[a.index()] && has[b.index()] {
                    out.extend([*a, *b]);
                }
            }
            ForestNode::Amb(alts) => out.extend(alts.iter().copied().filter(|a| has[a.index()])),
            ForestNode::Map(red, x) => {
                if has[x.index()] && self.mult_positive(*red, has) {
                    out.push(*x);
                    let refs = out.len();
                    self.red_refs(*red, out);
                    let mut kept = refs;
                    for k in refs..out.len() {
                        if has[out[k].index()] {
                            out[kept] = out[k];
                            kept += 1;
                        }
                    }
                    out.truncate(kept);
                }
            }
        }
    }

    /// Nodes on a productive cycle (SCC of ≥ 2 nodes, or a live self-loop)
    /// — exactly the nodes whose count is infinite.
    fn productive_cycle_nodes(&self, analysis: &Analysis) -> Vec<bool> {
        let n = self.len();
        let mut infinite = vec![false; n];
        // Iterative Tarjan over the live-edge subgraph.
        let mut index: Vec<Option<u32>> = vec![None; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut scc_stack: Vec<ForestId> = Vec::new();
        let mut next_index = 0u32;
        // Frames: (node, end of its successors in `succs`, next position).
        // A frame's successors sit just above its parent's, so the one
        // shared stack pops with the frames.
        let mut call: Vec<(ForestId, usize, usize)> = Vec::new();
        let mut succs: Vec<ForestId> = Vec::new();
        for &root in &analysis.reachable {
            if index[root.index()].is_some() {
                continue;
            }
            let mut enter = Some(root);
            loop {
                if let Some(v) = enter.take() {
                    index[v.index()] = Some(next_index);
                    low[v.index()] = next_index;
                    next_index += 1;
                    on_stack[v.index()] = true;
                    scc_stack.push(v);
                    let start = succs.len();
                    self.live_successors(v, &analysis.has, &mut succs);
                    call.push((v, succs.len(), start));
                }
                let Some((v, end, pos)) = call.last_mut() else { break };
                let v = *v;
                if *pos < *end {
                    let w = succs[*pos];
                    *pos += 1;
                    if index[w.index()].is_none() {
                        enter = Some(w);
                    } else if on_stack[w.index()] {
                        low[v.index()] = low[v.index()].min(index[w.index()].unwrap());
                        if v == w {
                            infinite[v.index()] = true; // live self-loop
                        }
                    }
                    continue;
                }
                call.pop();
                succs.truncate(call.last().map_or(0, |&(_, parent_end, _)| parent_end));
                if low[v.index()] == index[v.index()].unwrap() {
                    // Pop the SCC; size ≥ 2 means a genuine cycle.
                    let at = scc_stack.iter().rposition(|&w| w == v).unwrap();
                    let genuine = scc_stack.len() - at >= 2;
                    for w in scc_stack.drain(at..) {
                        on_stack[w.index()] = false;
                        infinite[w.index()] |= genuine;
                    }
                }
                if let Some(&(parent, _, _)) = call.last() {
                    let p = parent.index();
                    low[p] = low[p].min(low[v.index()]);
                }
            }
        }
        infinite
    }

    /// Memoized post-order count over the live subgraph.
    fn count_with(&self, root: ForestId, analysis: &Analysis, infinite: &[bool]) -> TreeCount {
        let mut memo: Vec<Option<TreeCount>> = vec![None; self.len()];
        let mut stack: Vec<(ForestId, bool)> = vec![(root, false)];
        let mut succ = Vec::new();
        while let Some((v, post)) = stack.pop() {
            let i = v.index();
            if !post {
                if memo[i].is_some() {
                    continue;
                }
                if !analysis.has[i] {
                    memo[i] = Some(TreeCount::Finite(0));
                    continue;
                }
                if infinite[i] {
                    memo[i] = Some(TreeCount::Infinite);
                    continue;
                }
                stack.push((v, true));
                succ.clear();
                self.live_successors(v, &analysis.has, &mut succ);
                for s in &succ {
                    if memo[s.index()].is_none() {
                        stack.push((*s, false));
                    }
                }
            } else if memo[i].is_none() {
                memo[i] = Some(self.count_eval(v, &|id| live_count(&memo, &analysis.has, id)));
            }
        }
        memo[root.index()].unwrap_or(TreeCount::Finite(0))
    }

    /// The count of node `v` from the counts of its children, `of`.
    fn count_eval(&self, v: ForestId, of: &impl Fn(ForestId) -> TreeCount) -> TreeCount {
        match self.get(v) {
            ForestNode::Empty | ForestNode::Cycle => TreeCount::Finite(0),
            ForestNode::Eps | ForestNode::Leaf(_) | ForestNode::Const(_) => TreeCount::Finite(1),
            ForestNode::Pair(a, b) => of(*a) * of(*b),
            ForestNode::Amb(alts) => alts.iter().fold(TreeCount::Finite(0), |acc, a| acc + of(*a)),
            ForestNode::Map(red, x) => of(*x) * self.multiplier(*red, of),
        }
    }

    /// How many output trees a reduction produces per input tree.
    fn multiplier(&self, red: RedId, of: &impl Fn(ForestId) -> TreeCount) -> TreeCount {
        match self.red(red) {
            Red::Compose(g, h) => self.multiplier(g, of) * self.multiplier(h, of),
            Red::PairLeft(s) | Red::PairRight(s) => of(s),
            Red::MapFirst(g) | Red::MapSecond(g) => self.multiplier(g, of),
            // Flattening and user functions are assumed injective per tree.
            Red::Reassoc | Red::Label(..) | Red::Func(_) => TreeCount::Finite(1),
        }
    }
}

/// A child's count during a live-subgraph count: zero without a tree, else
/// its memo entry. A live child without one can only sit on a cycle,
/// which `productive_cycle_nodes` marked — defensively infinite.
fn live_count(memo: &[Option<TreeCount>], has: &[bool], id: ForestId) -> TreeCount {
    if !has[id.index()] {
        return TreeCount::Finite(0);
    }
    memo[id.index()].unwrap_or(TreeCount::Infinite)
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
