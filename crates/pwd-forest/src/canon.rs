//! Canonicalization: one normal form for forests from every backend.
//!
//! Different parser families build structurally different forests for the
//! same (grammar, input): the PWD engine's forests carry compaction-inserted
//! reductions (`pair-left`, `reassoc`, `map-first`, production labels) over
//! binary pair spines, while chart- and stack-based parsers build packed
//! `(symbol, span)` nodes directly. This module normalizes both shapes into
//! one **canonical packed form** — production-labeled nodes over hash-consed
//! right-nested spines, with ambiguity nodes flattened, deduplicated, and
//! hash-ordered — by *symbolically evaluating* the structured reductions at
//! the forest level (no tree is ever enumerated, so the normalization stays
//! polynomial in the packed graph even when the tree count is astronomical).
//!
//! Two canonical forests denote the same tree set iff they are structurally
//! equal, so [`ParseForest::fingerprint`] equality replaces exponential
//! tree-set comparison in the differential-testing harness. (For *cyclic* —
//! infinitely ambiguous — forests the fingerprint is deterministic but only
//! knot-placement-faithful; the harness compares counts there instead.)
//!
//! # Cost per raw node
//!
//! The walk memoizes by raw [`ForestId`] in a dense slot vector, so a raw
//! node costs one array read there plus, when it builds something, one
//! hash-cons probe. Cons keys follow the arena's rule (see [`Forest`]):
//! integers only, so a probe never hashes text; the input's text goes only
//! through the `RandomState` leaf map, once per raw leaf. A unary label
//! conses its operand directly, alternatives are read by index, and
//! multi-alternative results are built on one reused scratch stack, so the
//! walk allocates per forest, not per node.

use crate::count::TreeCount;
use crate::forest::{EnumLimits, Forest, ForestId, ForestNode};
use crate::knot::{DenseKnots, Knot};
use crate::reduce::{Red, RedId};
use crate::tree::Tree;
use std::collections::HashSet;
use std::fmt;

/// Bound on enumerating through an opaque
/// [`Reduce::func`](crate::Reduce::func) during canonicalization. Compiled
/// grammars use structured labels and never hit this path.
const FUNC_LIMIT: u128 = 512;

/// Canonicalization failure: the forest maps an opaque user function over a
/// subforest too ambiguous to enumerate through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CanonError {
    /// The named [`Reduce::func`](crate::Reduce::func) could not be
    /// evaluated symbolically.
    Opaque(String),
}

impl fmt::Display for CanonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CanonError::Opaque(name) => write!(
                f,
                "cannot canonicalize: opaque reduction {name:?} over an \
                 unboundedly ambiguous subforest"
            ),
        }
    }
}

impl std::error::Error for CanonError {}

/// A self-contained parse result: an owned (canonical) forest plus its
/// root. This is what [`Parser::parse_forest`] returns on every backend —
/// count it, fingerprint it, enumerate top-k trees, or export DOT, without
/// holding a borrow of the engine.
///
/// [`Parser::parse_forest`]: https://docs.rs/derp (the unified backend API)
#[derive(Debug, Clone)]
pub struct ParseForest {
    forest: Forest,
    root: ForestId,
}

/// The compact wire summary of a forest: what a parse service returns when
/// the client wants ambiguity information but not the graph itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ForestSummary {
    /// Exact tree count (`Finite`/`Overflow`/`Infinite`).
    pub count: TreeCount,
    /// Longest path from the root, with every strongly connected component
    /// contracted to one node (on an acyclic forest, the longest path).
    pub depth: usize,
    /// Nodes reachable from the root (the packed size, not the tree count).
    pub node_count: usize,
    /// Canonical structural fingerprint (equal forests ⇒ equal fingerprints).
    pub fingerprint: u64,
}

impl ParseForest {
    /// Wraps a forest and its root.
    pub fn new(forest: Forest, root: ForestId) -> ParseForest {
        ParseForest { forest, root }
    }

    /// The canonical empty result: a rejected input's "forest of no trees".
    pub fn rejected() -> ParseForest {
        let mut forest = Forest::hash_consed();
        let root = forest.empty();
        ParseForest { forest, root }
    }

    /// The underlying arena.
    pub fn forest(&self) -> &Forest {
        &self.forest
    }

    /// The root node.
    pub fn root(&self) -> ForestId {
        self.root
    }

    /// Does the forest contain at least one tree (i.e. was the input
    /// accepted)?
    pub fn has_tree(&self) -> bool {
        self.forest.has_tree(self.root)
    }

    /// Exact tree count — see [`Forest::count`].
    pub fn count(&self) -> TreeCount {
        self.forest.count(self.root)
    }

    /// Bounded enumeration — see [`Forest::trees`].
    pub fn trees(&self, limits: EnumLimits) -> Vec<Tree> {
        self.forest.trees(self.root, limits)
    }

    /// The canonical structural fingerprint of the root.
    pub fn fingerprint(&self) -> u64 {
        self.forest.node_hash(self.root)
    }

    /// Nodes reachable from the root.
    pub fn node_count(&self) -> usize {
        self.forest.reachable_count(self.root)
    }

    /// Longest path from the root, with every strongly connected component
    /// contracted to one node — see [`Forest::depth`].
    pub fn depth(&self) -> usize {
        self.forest.depth(self.root)
    }

    /// The wire summary: count, depth, node count, fingerprint. The first
    /// three come from one walk of the forest (two, on a cyclic one, whose
    /// count also needs the cycles of live edges).
    pub fn summary(&self) -> ForestSummary {
        let census = self.forest.census(self.root);
        ForestSummary {
            count: census.values[self.root.index()],
            depth: census.depth,
            node_count: census.nodes,
            fingerprint: self.fingerprint(),
        }
    }

    /// Graphviz DOT export of the forest graph — see [`Forest::to_dot`].
    pub fn to_dot(&self) -> String {
        self.forest.to_dot(self.root)
    }

    /// Exact structural equality with another parse forest, without
    /// enumerating any tree. On cyclic forests this is a bisimulation-style
    /// comparison (cycles are assumed equal when re-encountered).
    pub fn structural_eq(&self, other: &ParseForest) -> bool {
        let mut assumed: HashSet<(u32, u32)> = HashSet::new();
        eq_nodes(&self.forest, self.root, &other.forest, other.root, &mut assumed)
    }
}

fn eq_nodes(
    fa: &Forest,
    a: ForestId,
    fb: &Forest,
    b: ForestId,
    assumed: &mut HashSet<(u32, u32)>,
) -> bool {
    if !assumed.insert((a.0, b.0)) {
        return true; // already being compared (cycle) or already matched
    }
    match (fa.get(a), fb.get(b)) {
        (ForestNode::Empty, ForestNode::Empty)
        | (ForestNode::Eps, ForestNode::Eps)
        | (ForestNode::Cycle, ForestNode::Cycle) => true,
        (ForestNode::Leaf(x), ForestNode::Leaf(y)) => x == y,
        (ForestNode::Const(x), ForestNode::Const(y)) => x == y,
        (ForestNode::Pair(a1, a2), ForestNode::Pair(b1, b2)) => {
            eq_nodes(fa, *a1, fb, *b1, assumed) && eq_nodes(fa, *a2, fb, *b2, assumed)
        }
        (ForestNode::Amb(xs), ForestNode::Amb(ys)) => {
            xs.len() == ys.len()
                && xs.iter().zip(ys).all(|(x, y)| eq_nodes(fa, *x, fb, *y, assumed))
        }
        (ForestNode::Map(rx, x), ForestNode::Map(ry, y)) => {
            eq_reduce(fa, *rx, fb, *ry, assumed) && eq_nodes(fa, *x, fb, *y, assumed)
        }
        _ => false,
    }
}

fn eq_reduce(
    fa: &Forest,
    x: RedId,
    fb: &Forest,
    y: RedId,
    assumed: &mut HashSet<(u32, u32)>,
) -> bool {
    match (fa.red(x), fb.red(y)) {
        (Red::Reassoc, Red::Reassoc) => true,
        (Red::Label(n1, a1), Red::Label(n2, a2)) => fa.name(n1) == fb.name(n2) && a1 == a2,
        (Red::Compose(g1, h1), Red::Compose(g2, h2)) => {
            eq_reduce(fa, g1, fb, g2, assumed) && eq_reduce(fa, h1, fb, h2, assumed)
        }
        (Red::PairLeft(s1), Red::PairLeft(s2)) | (Red::PairRight(s1), Red::PairRight(s2)) => {
            eq_nodes(fa, s1, fb, s2, assumed)
        }
        (Red::MapFirst(g1), Red::MapFirst(g2)) | (Red::MapSecond(g1), Red::MapSecond(g2)) => {
            eq_reduce(fa, g1, fb, g2, assumed)
        }
        // Opaque functions have no structural identity across arenas.
        (Red::Func(f1), Red::Func(f2)) => std::sync::Arc::ptr_eq(fa.func(f1).1, fb.func(f2).1),
        _ => false,
    }
}

// ---------------------------------------------------------------------
// The canonicalizer
// ---------------------------------------------------------------------

/// Why a canonicalizing walk stopped early.
enum Stop {
    /// An opaque function could not be evaluated.
    Opaque(CanonError),
    /// The walk met a knot or an opaque function without the productivity
    /// pre-pass: start over with it.
    Prune,
}

struct Canon<'a> {
    src: &'a Forest,
    /// `has_tree` over the source forest, when the productivity pre-pass
    /// ran: unproductive subforests prune to the canonical empty node.
    has: Option<Vec<bool>>,
    out: Forest,
    memo: DenseKnots,
    /// Alternatives under construction, innermost call's on top: every
    /// method that pushes truncates back before it returns.
    scratch: Vec<ForestId>,
}

impl Forest {
    /// Normalizes the forest rooted at `root` into an owned canonical
    /// [`ParseForest`]: structured reductions evaluated symbolically,
    /// production labels over exact spines, ambiguity flattened/deduped/
    /// hash-ordered, everything hash-consed.
    ///
    /// Each source node costs one memo read and at most one hash-cons probe
    /// on integers (a leaf: one keyed lookup of its text). An acyclic
    /// forest without opaque functions needs no productivity pre-pass: the
    /// constructors annihilate on empty operands, so an unproductive
    /// subforest already comes out as the empty node. A walk that meets a
    /// knot or an opaque [`Reduce::func`](crate::Reduce::func) starts over
    /// with the pre-pass.
    ///
    /// # Errors
    ///
    /// [`CanonError::Opaque`] if the forest maps an opaque
    /// [`Reduce::func`](crate::Reduce::func) over a subforest with more
    /// than a few hundred trees (compiled grammars use structured labels and
    /// cannot hit this).
    pub fn extract_canonical(&self, root: ForestId) -> Result<ParseForest, CanonError> {
        match Canon::run(self, root, false) {
            Err(Stop::Prune) => Canon::run(self, root, true),
            done => done,
        }
        .map_err(Stop::into_error)
    }

    /// [`extract_canonical`](Forest::extract_canonical) with the
    /// productivity pre-pass forced on, to check the shortcut against.
    #[cfg(test)]
    pub(crate) fn extract_canonical_pruned(
        &self,
        root: ForestId,
    ) -> Result<ParseForest, CanonError> {
        Canon::run(self, root, true).map_err(Stop::into_error)
    }
}

impl Stop {
    /// The error of a walk that ran with the pre-pass, which never asks
    /// for it.
    fn into_error(self) -> CanonError {
        match self {
            Stop::Opaque(e) => e,
            Stop::Prune => unreachable!("a pruned walk never asks to prune"),
        }
    }
}

impl<'a> Canon<'a> {
    fn run(src: &'a Forest, root: ForestId, prune: bool) -> Result<ParseForest, Stop> {
        let mut canon = Canon {
            src,
            has: prune.then(|| src.survey::<bool>(root).values),
            out: Forest::hash_consed(),
            memo: DenseKnots::new(src.len()),
            scratch: Vec::new(),
        };
        let out_root = canon.norm(root)?;
        Ok(ParseForest::new(canon.out, out_root))
    }

    fn norm(&mut self, f: ForestId) -> Result<ForestId, Stop> {
        match self.memo.enter(f, &mut self.out) {
            Knot::Done(id) => return Ok(id),
            // A cycle: the placeholder is patched when the region is done.
            Knot::Cycle(ph) if self.has.is_some() => return Ok(ph),
            Knot::Cycle(_) => return Err(Stop::Prune),
            Knot::Fresh => {}
        }
        let r = self.build(f)?;
        // Tie any knot opened while this node was in progress.
        Ok(self.memo.finish(f, &mut self.out, r))
    }

    /// The canonical node of source node `f`, whose children are
    /// normalized through the memo.
    fn build(&mut self, f: ForestId) -> Result<ForestId, Stop> {
        if self.has.as_ref().is_some_and(|has| !has[f.index()]) {
            return Ok(self.out.empty());
        }
        // The source outlives `self`, so its node is read in place.
        let src: &'a Forest = self.src;
        Ok(match src.get(f) {
            ForestNode::Empty | ForestNode::Cycle => self.out.empty(),
            ForestNode::Eps => self.out.eps(),
            ForestNode::Leaf(l) => self.out.leaf_shared(l),
            ForestNode::Const(t) => self.embed(t),
            ForestNode::Pair(a, b) => {
                let na = self.norm(*a)?;
                let nb = self.norm(*b)?;
                self.out.pair(na, nb)
            }
            ForestNode::Amb(alts) => {
                let start = self.scratch.len();
                for &a in alts {
                    let na = self.norm(a)?;
                    self.scratch.push(na);
                }
                self.out.amb_from(&mut self.scratch, start)
            }
            ForestNode::Map(red, x) => {
                let nx = self.norm(*x)?;
                self.sym_apply(*red, nx)?
            }
        })
    }

    /// Embeds a concrete tree as canonical nodes (labels become label
    /// nodes over exact spines, so a constant tree and a structurally
    /// built forest of the same tree cons to the same node).
    fn embed(&mut self, t: &Tree) -> ForestId {
        match t {
            Tree::Empty => self.out.eps(),
            Tree::Leaf(l) => self.out.leaf_shared(l),
            Tree::Pair(a, b) => {
                let na = self.embed(a);
                let nb = self.embed(b);
                self.out.pair(na, nb)
            }
            Tree::Node(label, kids) => {
                let start = self.scratch.len();
                for k in kids.iter() {
                    let nk = self.embed(k);
                    self.scratch.push(nk);
                }
                let spine = self.out.right_spine(&self.scratch[start..]);
                self.scratch.truncate(start);
                self.out.label(label, kids.len(), spine)
            }
        }
    }

    /// The `i`th alternative of canonical node `f`: `f` itself when it is
    /// not an ambiguity node. Read by index, as the arena grows meanwhile.
    fn alt(&self, f: ForestId, i: usize) -> Option<ForestId> {
        match self.out.get(f) {
            ForestNode::Amb(alts) => alts.get(i).copied(),
            _ => (i == 0).then_some(f),
        }
    }

    /// Applies source reduction `red` *symbolically* to a canonical forest.
    fn sym_apply(&mut self, red: RedId, cf: ForestId) -> Result<ForestId, Stop> {
        // No trees in, no trees out, whatever the reduction.
        if matches!(self.out.get(cf), ForestNode::Empty) {
            return Ok(cf);
        }
        let start = self.scratch.len();
        let src: &'a Forest = self.src;
        match src.red(red) {
            Red::Compose(g, h) => {
                let mid = self.sym_apply(h, cf)?;
                return self.sym_apply(g, mid);
            }
            Red::PairLeft(s) => {
                let ns = self.norm(s)?;
                return Ok(self.out.pair(ns, cf));
            }
            Red::PairRight(s) => {
                let ns = self.norm(s)?;
                return Ok(self.out.pair(cf, ns));
            }
            Red::Reassoc => {
                let mut i = 0;
                while let Some(alt) = self.alt(cf, i) {
                    i += 1;
                    let &ForestNode::Pair(a, r) = self.out.get(alt) else {
                        self.scratch.push(alt);
                        continue;
                    };
                    let mut j = 0;
                    while let Some(inner) = self.alt(r, j) {
                        j += 1;
                        let res = match *self.out.get(inner) {
                            ForestNode::Pair(b, c) => {
                                let ab = self.out.pair(a, b);
                                self.out.pair(ab, c)
                            }
                            _ => self.out.pair(a, inner),
                        };
                        self.scratch.push(res);
                    }
                }
            }
            entry @ (Red::MapFirst(g) | Red::MapSecond(g)) => {
                let first = matches!(entry, Red::MapFirst(_));
                let mut i = 0;
                while let Some(alt) = self.alt(cf, i) {
                    i += 1;
                    let res = match *self.out.get(alt) {
                        ForestNode::Pair(a, b) if first => {
                            let ga = self.sym_apply(g, a)?;
                            self.out.pair(ga, b)
                        }
                        ForestNode::Pair(a, b) => {
                            let gb = self.sym_apply(g, b)?;
                            self.out.pair(a, gb)
                        }
                        // Not a pair: `g` maps the whole tree, as in
                        // `Forest::apply`.
                        _ => self.sym_apply(g, alt)?,
                    };
                    self.scratch.push(res);
                }
            }
            Red::Label(name, arity) => {
                let sym = self.out.name_symbol(src.name(name));
                let label = |out: &mut Forest, spine| out.label_sym(sym, arity, spine);
                if arity == 0 {
                    let e = self.out.eps();
                    return Ok(label(&mut self.out, e));
                }
                // A unary label takes its operand whole, ambiguous or not;
                // an operand without ambiguity in its first `arity - 1`
                // spine components is its own spine.
                if arity == 1 || self.plain_spine(cf, arity as usize) {
                    return Ok(label(&mut self.out, cf));
                }
                self.respine(cf, arity as usize);
                for k in start..self.scratch.len() {
                    self.scratch[k] = label(&mut self.out, self.scratch[k]);
                }
            }
            Red::Func(i) => {
                let (name, f) = src.func(i);
                let name = src.name(name);
                if self.has.is_none() {
                    return Err(Stop::Prune);
                }
                // Last resort: enumerate through the opaque function. Only
                // sound when the subforest is small, finite, and *finished*
                // — an in-progress knot under `cf` would count as empty
                // here and silently truncate the cyclic alternatives.
                if self.out.contains_cycle_node(cf) {
                    return Err(Stop::Opaque(CanonError::Opaque(name.to_string())));
                }
                match self.out.count(cf) {
                    TreeCount::Finite(n) if n <= FUNC_LIMIT => {
                        let limits = EnumLimits {
                            max_trees: FUNC_LIMIT as usize + 1,
                            max_depth: usize::MAX,
                        };
                        for t in self.out.trees(cf, limits) {
                            let mapped = self.embed(&f(t));
                            self.scratch.push(mapped);
                        }
                    }
                    _ => return Err(Stop::Opaque(CanonError::Opaque(name.to_string()))),
                }
            }
        }
        Ok(self.out.amb_from(&mut self.scratch, start))
    }

    /// Is `f` a spine without ambiguity in its first `arity - 1`
    /// components (one that [`respine`](Canon::respine) would return
    /// unchanged)? `arity ≥ 2`.
    fn plain_spine(&self, mut f: ForestId, mut arity: usize) -> bool {
        loop {
            match self.out.get(f) {
                ForestNode::Amb(_) => return false,
                ForestNode::Pair(_, r) if arity > 2 => {
                    f = *r;
                    arity -= 1;
                }
                _ => return true,
            }
        }
    }

    /// Pushes the spines an `arity`-ary label (`arity ≥ 2`) distributes
    /// `f`'s ambiguity into: one right-nested pair spine per distinct
    /// choice of alternatives along its first `arity - 1` components. A
    /// spine that bottoms out early (a non-pair where a pair was expected)
    /// ends there, as [`Reduce::label`](crate::Reduce::label)'s flattening
    /// does.
    fn respine(&mut self, f: ForestId, arity: usize) {
        let mut i = 0;
        while let Some(alt) = self.alt(f, i) {
            i += 1;
            match *self.out.get(alt) {
                ForestNode::Pair(a, r) if arity > 2 => {
                    let start = self.scratch.len();
                    self.respine(r, arity - 1);
                    for k in start..self.scratch.len() {
                        self.scratch[k] = self.out.pair(a, self.scratch[k]);
                    }
                }
                _ => self.scratch.push(alt),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reduce;

    #[test]
    fn canonicalization_evaluates_labels_over_spines() {
        // Map(Label(S,2), Amb{Pair(a,b), Pair(a,c)}) — the PWD shape —
        // normalizes to Amb{(S a b), (S a c)} in packed form.
        let mut fs = Forest::new();
        let a = fs.alloc(ForestNode::Leaf(crate::Leaf::new("a", "a")));
        let b = fs.alloc(ForestNode::Leaf(crate::Leaf::new("b", "b")));
        let c = fs.alloc(ForestNode::Leaf(crate::Leaf::new("c", "c")));
        let ab = fs.alloc(ForestNode::Pair(a, b));
        let ac = fs.alloc(ForestNode::Pair(a, c));
        let amb = fs.alloc(ForestNode::Amb(vec![ab, ac]));
        let m = fs.map(Reduce::label("S", 2), amb);
        let canon = fs.extract_canonical(m).unwrap();
        assert_eq!(canon.count(), TreeCount::Finite(2));
        let mut strs: Vec<String> =
            canon.trees(EnumLimits::default()).iter().map(|t| t.to_string()).collect();
        strs.sort();
        assert_eq!(strs, ["(S a b)", "(S a c)"]);
    }

    #[test]
    fn equivalent_shapes_fingerprint_equal() {
        // Shape 1: Map(Label(S,2), Pair(a, b)).
        let mut f1 = Forest::new();
        let a1 = f1.alloc(ForestNode::Leaf(crate::Leaf::new("a", "a")));
        let b1 = f1.alloc(ForestNode::Leaf(crate::Leaf::new("b", "b")));
        let p1 = f1.alloc(ForestNode::Pair(a1, b1));
        let m1 = f1.map(Reduce::label("S", 2), p1);
        // Shape 2: the same denotation via pair-left over the right leaf
        // (ε_a ◦ b compacted): Map(Label(S,2), Map(PairLeft(a), b)).
        let mut f2 = Forest::new();
        let a2 = f2.alloc(ForestNode::Leaf(crate::Leaf::new("a", "a")));
        let b2 = f2.alloc(ForestNode::Leaf(crate::Leaf::new("b", "b")));
        let pl = f2.map(Reduce::pair_left(a2), b2);
        let m2 = f2.map(Reduce::label("S", 2), pl);
        let c1 = f1.extract_canonical(m1).unwrap();
        let c2 = f2.extract_canonical(m2).unwrap();
        assert_eq!(c1.fingerprint(), c2.fingerprint());
        assert!(c1.structural_eq(&c2));
        // And a different denotation does not collide.
        let mut f3 = Forest::new();
        let a3 = f3.alloc(ForestNode::Leaf(crate::Leaf::new("a", "x")));
        let b3 = f3.alloc(ForestNode::Leaf(crate::Leaf::new("b", "b")));
        let p3 = f3.alloc(ForestNode::Pair(a3, b3));
        let m3 = f3.map(Reduce::label("S", 2), p3);
        let c3 = f3.extract_canonical(m3).unwrap();
        assert_ne!(c1.fingerprint(), c3.fingerprint());
        assert!(!c1.structural_eq(&c3));
    }

    #[test]
    fn reassoc_and_map_first_normalize_away() {
        // ((a ◦ (b ◦ c)) ↪ reassoc) ↪ Label(S,2)  ≡  ((a.b).c) labeled.
        let mut f1 = Forest::new();
        let a = f1.alloc(ForestNode::Leaf(crate::Leaf::new("a", "a")));
        let b = f1.alloc(ForestNode::Leaf(crate::Leaf::new("b", "b")));
        let c = f1.alloc(ForestNode::Leaf(crate::Leaf::new("c", "c")));
        let bc = f1.alloc(ForestNode::Pair(b, c));
        let abc = f1.alloc(ForestNode::Pair(a, bc));
        let re = f1.map(Reduce::reassoc(), abc);
        let m1 = f1.map(Reduce::label("S", 2), re);
        let mut f2 = Forest::new();
        let a2 = f2.alloc(ForestNode::Leaf(crate::Leaf::new("a", "a")));
        let b2 = f2.alloc(ForestNode::Leaf(crate::Leaf::new("b", "b")));
        let c2 = f2.alloc(ForestNode::Leaf(crate::Leaf::new("c", "c")));
        let ab2 = f2.alloc(ForestNode::Pair(a2, b2));
        let abc2 = f2.alloc(ForestNode::Pair(ab2, c2));
        let m2 = f2.map(Reduce::label("S", 2), abc2);
        let c1 = f1.extract_canonical(m1).unwrap();
        let cc2 = f2.extract_canonical(m2).unwrap();
        assert_eq!(c1.fingerprint(), cc2.fingerprint());
        assert_eq!(c1.trees(EnumLimits::default()), cc2.trees(EnumLimits::default()));
    }

    #[test]
    fn unproductive_branches_prune() {
        let mut fs = Forest::new();
        let a = fs.alloc(ForestNode::Leaf(crate::Leaf::new("a", "a")));
        let dead = fs.alloc(ForestNode::Empty);
        let dead_pair = fs.alloc(ForestNode::Pair(a, dead));
        let amb = fs.alloc(ForestNode::Amb(vec![a, dead_pair]));
        let canon = fs.extract_canonical(amb).unwrap();
        assert_eq!(canon.count(), TreeCount::Finite(1));
        // The canonical forest is just the leaf: one node.
        assert_eq!(canon.node_count(), 1);
    }

    #[test]
    fn cyclic_forests_canonicalize_without_diverging() {
        let mut fs = Forest::new();
        let leaf = fs.alloc(ForestNode::Leaf(crate::Leaf::new("a", "a")));
        let amb = fs.reserve();
        let pair = fs.alloc(ForestNode::Pair(amb, leaf));
        fs.set(amb, ForestNode::Amb(vec![leaf, pair]));
        let canon = fs.extract_canonical(amb).unwrap();
        assert_eq!(canon.count(), TreeCount::Infinite);
        assert!(canon.has_tree());
        assert!(!canon.trees(EnumLimits { max_trees: 3, max_depth: 32 }).is_empty());
    }

    #[test]
    fn opaque_func_small_forest_canonicalizes_large_errors() {
        let mut fs = Forest::new();
        let a = fs.alloc(ForestNode::Leaf(crate::Leaf::new("a", "a")));
        let m = fs.map(Reduce::func("wrap", |t| Tree::node("w", vec![t])), a);
        let canon = fs.extract_canonical(m).unwrap();
        assert_eq!(canon.trees(EnumLimits::default())[0].to_string(), "(w a)");

        // An infinite subforest under an opaque func cannot canonicalize.
        let mut fs = Forest::new();
        let leaf = fs.alloc(ForestNode::Leaf(crate::Leaf::new("a", "a")));
        let amb = fs.reserve();
        let pair = fs.alloc(ForestNode::Pair(amb, leaf));
        fs.set(amb, ForestNode::Amb(vec![leaf, pair]));
        let m = fs.map(Reduce::func("f", |t| t), amb);
        assert!(matches!(fs.extract_canonical(m), Err(CanonError::Opaque(_))));
    }

    #[test]
    fn opaque_func_on_a_cycle_errors_instead_of_truncating() {
        // The func node sits *inside* the cycle: when it is normalized, its
        // input is still an unpatched placeholder, so counting through it
        // would silently report the cyclic alternatives as absent. This
        // must error, not return a truncated forest.
        let mut fs = Forest::new();
        let leaf = fs.alloc(ForestNode::Leaf(crate::Leaf::new("a", "a")));
        let amb = fs.reserve();
        let m = fs.map(Reduce::func("wrap", |t| Tree::node("w", vec![t])), amb);
        fs.set(amb, ForestNode::Amb(vec![leaf, m]));
        // The source forest really is infinite: a, (w a), (w (w a)), …
        assert_eq!(fs.count(amb), TreeCount::Infinite);
        assert!(matches!(fs.extract_canonical(amb), Err(CanonError::Opaque(_))));
    }

    #[test]
    fn rejected_parse_forest_summary() {
        let pf = ParseForest::rejected();
        assert!(!pf.has_tree());
        assert_eq!(pf.count(), TreeCount::Finite(0));
        assert!(pf.trees(EnumLimits::default()).is_empty());
        let s = pf.summary();
        assert_eq!(s.count, TreeCount::Finite(0));
        assert_eq!(s.node_count, 1);
        // All rejected forests fingerprint identically.
        assert_eq!(s.fingerprint, ParseForest::rejected().fingerprint());
    }
}
