//! Reduction functions (`L ↪ f`) mapped over forests.
//!
//! The paper's compaction rules insert specific, structured reductions —
//! pairing with a known tree, reassociation, mapping over one component of a
//! pair, and composition (§4.3). Representing those as data instead of
//! opaque closures keeps compaction rewrites inspectable, testable, and —
//! crucially for the shared-forest layer — *symbolically evaluable*: the
//! canonicalizer can push a structured reduction through a forest without
//! enumerating trees. Arbitrary user semantic actions are still supported
//! via [`Reduce::func`] (canonicalized by bounded enumeration).
//!
//! A [`Reduce`] is the public *description* a grammar is built from. A
//! forest arena interns it once, when the grammar or forest node that maps
//! it is built, into its reduction table ([`Forest::intern_reduce`]); nodes
//! then hold the entry's [`RedId`]. Entries are plain `Copy` data — label
//! names and user functions sit in side tables they index — so the
//! engine's compaction rules append an entry where they would otherwise
//! allocate, copying a node copies an id, and cutting the table back is a
//! length store.

use crate::forest::{Forest, ForestId};
use crate::tree::Tree;
use std::fmt;
use std::sync::Arc;

/// A reduction function from trees to trees, applied by `L ↪ f` nodes: the
/// description a grammar is built from, interned into a [`Forest`]'s
/// reduction table when a node that maps it is built.
///
/// A description shares its parts (`Arc` internally) and is thread-safe,
/// so building one grammar from it many times copies no closure.
#[derive(Clone)]
pub struct Reduce(pub(crate) Arc<ReduceKind>);

/// The structural variants of a reduction.
pub(crate) enum ReduceKind {
    /// `g ∘ f`: apply `f` first, then `g`.
    Compose(Reduce, Reduce),
    /// `u ↦ (s, u)` for each `s` in the referenced null-parse forest.
    ///
    /// Introduced by the compaction rule `ε_s ◦ p ⇒ p ↪ λu.(s, u)`.
    PairLeft(ForestId),
    /// `u ↦ (u, s)` for each `s` in the referenced null-parse forest.
    ///
    /// Introduced by the pre-parse rule `p ◦ ε_s ⇒ p ↪ λu.(u, s)` (§4.3.1).
    PairRight(ForestId),
    /// `(t1, (t2, t3)) ↦ ((t1, t2), t3)`.
    ///
    /// Introduced by the associativity canonicalization rule (§4.3.2).
    Reassoc,
    /// `(t1, t2) ↦ (f t1, t2)` — floats a reduction above a sequence (§4.3.2).
    MapFirst(Reduce),
    /// `(t1, t2) ↦ (t1, f t2)` — right-child version, pre-parse only (§4.3.2).
    MapSecond(Reduce),
    /// The structured production label of a compiled CFG: flattens the
    /// right-nested pair spine of an arity-`k` production body into a
    /// labeled AST node `(N t₁ … t_k)`. Unlike [`ReduceKind::Func`] this is
    /// symbolically evaluable, which is what makes forests from different
    /// backends canonically comparable.
    Label(Arc<str>, usize),
    /// An arbitrary user function, tagged with a display name.
    Func(Arc<str>, UserFn),
}

/// The code of a [`Reduce::func`].
pub(crate) type UserFn = Arc<dyn Fn(Tree) -> Tree + Send + Sync>;

/// Index of a reduction in a [`Forest`]'s reduction table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RedId(pub(crate) u32);

impl RedId {
    /// The raw index of this reduction.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One entry of a forest's reduction table: [`ReduceKind`] with its parts
/// as table ids, a label's name as a symbol of the arena's name table, and
/// a user function as an index into its function table.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Red {
    /// `g ∘ f`: apply `f` (the second id) first, then `g`.
    Compose(RedId, RedId),
    PairLeft(ForestId),
    PairRight(ForestId),
    Reassoc,
    MapFirst(RedId),
    MapSecond(RedId),
    /// Name symbol, arity.
    Label(u32, u32),
    /// Index into the function table.
    Func(u32),
}

impl Reduce {
    /// Composition `self ∘ other`: applies `other` first, then `self`.
    /// (Compaction's rule `(p ↪ f) ↪ g ⇒ p ↪ (g ∘ f)` appends the table
    /// entry directly: [`Forest::compose`].)
    pub fn compose(self, other: Reduce) -> Reduce {
        Reduce(Arc::new(ReduceKind::Compose(self, other)))
    }

    /// The reassociation reduction `(t1, (t2, t3)) ↦ ((t1, t2), t3)`.
    pub fn reassoc() -> Reduce {
        Reduce(Arc::new(ReduceKind::Reassoc))
    }

    /// Maps `f` over the first component of a pair.
    pub fn map_first(f: Reduce) -> Reduce {
        Reduce(Arc::new(ReduceKind::MapFirst(f)))
    }

    /// Maps `f` over the second component of a pair.
    pub fn map_second(f: Reduce) -> Reduce {
        Reduce(Arc::new(ReduceKind::MapSecond(f)))
    }

    /// `u ↦ (s, u)` for each tree `s` of the referenced forest (which must
    /// live in the arena the reduction is interned in).
    pub fn pair_left(s: ForestId) -> Reduce {
        Reduce(Arc::new(ReduceKind::PairLeft(s)))
    }

    /// `u ↦ (u, s)` for each tree `s` of the referenced forest.
    pub fn pair_right(s: ForestId) -> Reduce {
        Reduce(Arc::new(ReduceKind::PairRight(s)))
    }

    /// The structured production label `(name, arity)`: flattens an
    /// arity-deep right-nested pair spine into `(name t₁ … t_arity)`.
    ///
    /// A spine that bottoms out early (a non-pair where a pair was
    /// expected) contributes its remainder as the final child, mirroring
    /// how compiled grammars flatten partially collapsed spines.
    pub fn label(name: &str, arity: usize) -> Reduce {
        Reduce(Arc::new(ReduceKind::Label(Arc::from(name), arity)))
    }

    /// An arbitrary user reduction with a display `name`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pwd_forest::{Reduce, Tree};
    /// let wrap = Reduce::func("wrap", |t| Tree::node("w", vec![t]));
    /// assert_eq!(format!("{wrap:?}"), "wrap");
    /// ```
    pub fn func(name: &str, f: impl Fn(Tree) -> Tree + Send + Sync + 'static) -> Reduce {
        Reduce(Arc::new(ReduceKind::Func(Arc::from(name), Arc::new(f))))
    }

    /// Returns `true` if the two descriptions are the same object (pointer
    /// equality).
    pub fn same(&self, other: &Reduce) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Applies the label-flattening semantics to one tree: pops up to
    /// `arity - 1` pairs off the right spine and wraps the components.
    pub(crate) fn flatten(t: Tree, arity: usize, name: &str) -> Tree {
        if arity == 0 {
            return Tree::node(name, vec![]);
        }
        let mut kids = Vec::with_capacity(arity);
        let mut cur = t;
        for _ in 0..arity.saturating_sub(1) {
            match cur {
                Tree::Pair(a, b) => {
                    kids.push((*a).clone());
                    cur = (*b).clone();
                }
                other => {
                    cur = other;
                    break;
                }
            }
        }
        kids.push(cur);
        Tree::node(name, kids)
    }
}

impl fmt::Debug for Reduce {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &*self.0 {
            ReduceKind::Compose(g, h) => write!(f, "({g:?} ∘ {h:?})"),
            ReduceKind::PairLeft(s) => write!(f, "pair-left({s:?})"),
            ReduceKind::PairRight(s) => write!(f, "pair-right({s:?})"),
            ReduceKind::Reassoc => write!(f, "reassoc"),
            ReduceKind::MapFirst(g) => write!(f, "map-first({g:?})"),
            ReduceKind::MapSecond(g) => write!(f, "map-second({g:?})"),
            ReduceKind::Label(name, arity) => write!(f, "{name}#{arity}"),
            ReduceKind::Func(name, _) => write!(f, "{name}"),
        }
    }
}

/// A table entry formatted as the [`Reduce`] it was interned from (see
/// [`Forest::reduction`]).
pub(crate) struct RedView<'a> {
    pub(crate) forest: &'a Forest,
    pub(crate) id: RedId,
}

impl fmt::Debug for RedView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let view = |id| RedView { forest: self.forest, id };
        match self.forest.red(self.id) {
            Red::Compose(g, h) => write!(f, "({:?} ∘ {:?})", view(g), view(h)),
            Red::PairLeft(s) => write!(f, "pair-left({s:?})"),
            Red::PairRight(s) => write!(f, "pair-right({s:?})"),
            Red::Reassoc => write!(f, "reassoc"),
            Red::MapFirst(g) => write!(f, "map-first({:?})", view(g)),
            Red::MapSecond(g) => write!(f, "map-second({:?})", view(g)),
            Red::Label(name, arity) => write!(f, "{}#{arity}", self.forest.name(name)),
            Red::Func(i) => write!(f, "{}", self.forest.name(self.forest.func(i).0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interned_reductions_format_as_their_description() {
        let mut fs = Forest::new();
        let s = fs.alloc(crate::ForestNode::Eps);
        let f = Reduce::func("f", |t| t);
        let red = Reduce::label("E", 2)
            .compose(Reduce::map_first(f).compose(Reduce::pair_left(s)))
            .compose(Reduce::map_second(Reduce::reassoc()).compose(Reduce::pair_right(s)));
        let id = fs.intern_reduce(&red);
        assert_eq!(format!("{:?}", fs.reduction(id)), format!("{red:?}"));
        // The engine's constructors append entries that read the same way.
        let pl = fs.pair_left(s);
        let mf = fs.map_first(pl);
        let label = fs.intern_reduce(&Reduce::label("E", 2));
        let c = fs.compose(label, mf);
        assert_eq!(format!("{:?}", fs.reduction(c)), "(E#2 ∘ map-first(pair-left(ForestId(0))))");
    }

    #[test]
    fn debug_formats() {
        let f = Reduce::func("f", |t| t);
        let g = Reduce::func("g", |t| t);
        let c = g.clone().compose(f.clone());
        assert_eq!(format!("{c:?}"), "(g ∘ f)");
        assert_eq!(format!("{:?}", Reduce::reassoc()), "reassoc");
        assert_eq!(format!("{:?}", Reduce::map_first(f)), "map-first(f)");
        assert_eq!(format!("{:?}", Reduce::label("E", 3)), "E#3");
    }

    #[test]
    fn same_is_pointer_equality() {
        let f = Reduce::func("f", |t| t);
        let f2 = f.clone();
        let g = Reduce::func("f", |t| t);
        assert!(f.same(&f2));
        assert!(!f.same(&g));
    }

    #[test]
    fn flatten_pops_the_spine() {
        let t = Tree::pair(
            Tree::leaf("a", "1"),
            Tree::pair(Tree::leaf("b", "2"), Tree::leaf("c", "3")),
        );
        assert_eq!(Reduce::flatten(t.clone(), 3, "N").to_string(), "(N 1 2 3)");
        assert_eq!(Reduce::flatten(t, 2, "N").to_string(), "(N 1 (2 . 3))");
        assert_eq!(Reduce::flatten(Tree::Empty, 0, "N").to_string(), "(N)");
        assert_eq!(Reduce::flatten(Tree::Empty, 1, "N").to_string(), "(N ε)");
    }
}
