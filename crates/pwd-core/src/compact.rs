//! Compaction (§4.3): reduction rules over grammar nodes.
//!
//! All node construction funnels through the `*_built` smart constructors in
//! this module. When compaction is active they apply, locally and without
//! iterating to a fixed point, the paper's rule set:
//!
//! ```text
//! ∅ ∪ p ⇒ p                       p ∪ ∅ ⇒ p
//! ∅ ◦ p ⇒ ∅                       ε_s ◦ p ⇒ p ↪ λu.(s,u)
//! ε_s ↪ f ⇒ ε_{f s}               (p ↪ f) ↪ g ⇒ p ↪ (g ∘ f)
//! ∅ ↪ f ⇒ ∅                       ε_s1 ∪ ε_s2 ⇒ ε_{s1 ∪ s2}      (new, §4.3)
//! (p1 ◦ p2) ◦ p3 ⇒ (p1 ◦ (p2 ◦ p3)) ↪ reassoc                    (§4.3.2)
//! (p1 ↪ f) ◦ p2 ⇒ (p1 ◦ p2) ↪ map-first f                        (§4.3.2)
//! p ◦ ε_s ⇒ p ↪ λu.(u,s)          p ◦ ∅ ⇒ ∅                      (§4.3.1, initial grammar only)
//! p1 ◦ (p2 ↪ f) ⇒ (p1 ◦ p2) ↪ map-second f                       (§4.3.1, initial grammar only)
//! ```
//!
//! Children that are still [`Pending`](crate::expr::ExprKind::Pending) (a
//! cycle mid-derivation) or [`Forward`](crate::expr::ExprKind::Forward)
//! (undefined) are treated as opaque, exactly as §4.3.3 prescribes: "if
//! inspecting a child would result in a cycle, `derive` does not attempt to
//! compact".

use crate::config::CompactionMode;
use crate::expr::{ExprKind, Language, NodeId};
use pwd_forest::{ForestNode, Reduce};
use std::collections::HashMap;

/// Fuel bound on the recursion of the reassociation, map-first and
/// map-second rules: one budget per top-level `◦` construction, shared by
/// every recursive call it makes, so it bounds work, not just depth. A
/// left-spine cycle built through `Ref` chains (`N = N ◦ (N ◦ c)`) sends
/// both halves of a reassociation back into the cycle, so a per-call depth
/// bound would still allow 2⁶⁴ steps. Once the fuel is spent, construction
/// falls back to an uncompacted node (always sound).
const CAT_FUEL: u32 = 64;

/// Result of smart construction: either a brand-new kind to allocate/patch,
/// or an existing node to reuse.
#[derive(Debug, Clone)]
pub(crate) enum Built {
    New(ExprKind),
    Reuse(NodeId),
}

impl Language {
    fn construction_compacts(&self) -> bool {
        self.config.compaction == CompactionMode::OnConstruction
    }

    /// May the §4.3.1 right-child rules fire right now? During parsing they
    /// are unnecessary (Theorem 10) and the improved configuration skips
    /// them; the original configuration applied them in every pass.
    fn allow_right_rules(&self) -> bool {
        !self.in_parse || !self.config.prepass_right_children
    }

    /// Materializes a [`Built`], either reusing or allocating. (Freshly
    /// allocated nodes start with stale epoch stamps, so their nullability
    /// defaults are derived lazily from the kind on first access.)
    pub(crate) fn build(&mut self, built: Built) -> NodeId {
        match built {
            Built::Reuse(id) => id,
            Built::New(kind) => self.alloc(kind),
        }
    }

    /// Overwrites a `Pending` placeholder with the built result. If the
    /// result reuses a node that resolves back to the placeholder itself
    /// (a degenerate cycle), falls back to the uncompacted `raw` kind to
    /// avoid a self-referential `Ref`.
    pub(crate) fn patch(&mut self, ph: NodeId, built: Built, raw: ExprKind) {
        debug_assert!(
            matches!(self.node(ph).kind, ExprKind::Pending),
            "patch target must be pending"
        );
        match built {
            Built::Reuse(id) if self.resolve(id) == ph => {
                self.node_mut(ph).kind = raw;
            }
            Built::Reuse(id) => {
                self.node_mut(ph).kind = ExprKind::Ref(id);
            }
            Built::New(kind) => {
                self.node_mut(ph).kind = kind;
            }
        }
        // The kind changed; epoch-stamped state computed for `Pending` (if
        // any) must not survive into the patched node.
        self.invalidate_parse_state(ph);
    }

    // ------------------------------------------------------------------
    // Public builders
    // ------------------------------------------------------------------

    /// Builds `a ∪ b`, compacting per the engine configuration.
    pub fn alt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let compact = self.construction_compacts();
        let built = self.alt_built(a, b, compact);
        self.build(built)
    }

    /// Builds the union of any number of alternatives (`∅` when empty).
    pub fn alts(&mut self, items: &[NodeId]) -> NodeId {
        match items {
            [] => self.empty_node(),
            [x] => *x,
            [x, rest @ ..] => {
                let r = self.alts(rest);
                self.alt(*x, r)
            }
        }
    }

    /// Builds `a ◦ b`, compacting per the engine configuration.
    pub fn cat(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let compact = self.construction_compacts();
        let built = self.cat_built(a, b, compact);
        self.build(built)
    }

    /// Builds the concatenation of any number of parts (`ε` when empty),
    /// associated to the right.
    pub fn seq(&mut self, items: &[NodeId]) -> NodeId {
        match items {
            [] => self.eps_node(),
            [x] => *x,
            [x, rest @ ..] => {
                let r = self.seq(rest);
                self.cat(*x, r)
            }
        }
    }

    /// Builds `a ↪ f`, compacting per the engine configuration.
    pub fn reduce(&mut self, a: NodeId, f: Reduce) -> NodeId {
        let compact = self.construction_compacts();
        let built = self.red_built(a, f, compact);
        self.build(built)
    }

    /// Builds `ε ∪ a` (zero or one).
    pub fn opt(&mut self, a: NodeId) -> NodeId {
        let e = self.eps_node();
        self.alt(e, a)
    }

    /// Builds the Kleene star as the paper prescribes for CFG-land:
    /// `L* = ε ∪ (L ◦ L*)` (§2.2).
    pub fn star(&mut self, a: NodeId) -> NodeId {
        let s = self.forward();
        let rest = self.cat(a, s);
        let e = self.eps_node();
        let body = self.alt(e, rest);
        self.define(s, body);
        s
    }

    /// Builds `a ◦ a*` (one or more).
    pub fn plus(&mut self, a: NodeId) -> NodeId {
        let s = self.star(a);
        self.cat(a, s)
    }

    pub(crate) fn delta(&mut self, a: NodeId) -> NodeId {
        let compact = self.construction_compacts();
        let built = self.delta_built(a, compact);
        self.build(built)
    }

    // ------------------------------------------------------------------
    // Smart constructors
    // ------------------------------------------------------------------

    pub(crate) fn alt_built(&mut self, a: NodeId, b: NodeId, compact: bool) -> Built {
        let a = self.resolve(a);
        let b = self.resolve(b);
        if !compact {
            return Built::New(ExprKind::Alt(a, b));
        }
        enum AltRule {
            ReuseA,
            ReuseB,
            MergeEps(pwd_forest::ForestId, pwd_forest::ForestId),
            Keep,
        }
        let rule = match (&self.node(a).kind, &self.node(b).kind) {
            (ExprKind::Empty, _) => AltRule::ReuseB,
            (_, ExprKind::Empty) => AltRule::ReuseA,
            (ExprKind::Eps(s1), ExprKind::Eps(s2)) => AltRule::MergeEps(*s1, *s2),
            _ => AltRule::Keep,
        };
        match rule {
            // ∅ ∪ p ⇒ p
            AltRule::ReuseB => {
                self.metrics.compactions_applied += 1;
                Built::Reuse(b)
            }
            // p ∪ ∅ ⇒ p
            AltRule::ReuseA => {
                self.metrics.compactions_applied += 1;
                Built::Reuse(a)
            }
            // ε_s1 ∪ ε_s2 ⇒ ε_{s1 ∪ s2} (one of the paper's new rules)
            AltRule::MergeEps(s1, s2) => {
                self.metrics.compactions_applied += 1;
                let f = self.forests.alloc(ForestNode::Amb(vec![s1, s2]));
                Built::New(ExprKind::Eps(f))
            }
            AltRule::Keep => Built::New(ExprKind::Alt(a, b)),
        }
    }

    pub(crate) fn cat_built(&mut self, a: NodeId, b: NodeId, compact: bool) -> Built {
        let mut fuel = CAT_FUEL;
        self.cat_built_fueled(a, b, compact, &mut fuel)
    }

    /// [`cat_built`](Language::cat_built) drawing on a shared `fuel`
    /// budget: each rule that recurses spends one unit.
    fn cat_built_fueled(&mut self, a: NodeId, b: NodeId, compact: bool, fuel: &mut u32) -> Built {
        let a = self.resolve(a);
        let b = self.resolve(b);
        if !compact || *fuel == 0 {
            return Built::New(ExprKind::Cat(a, b));
        }
        // Left-child rules (always allowed).
        match self.node(a).kind.clone() {
            // ∅ ◦ p ⇒ ∅
            ExprKind::Empty => {
                self.metrics.compactions_applied += 1;
                return Built::Reuse(self.empty_node());
            }
            // ε_s ◦ p ⇒ p ↪ λu.(s, u)
            ExprKind::Eps(s) => {
                self.metrics.compactions_applied += 1;
                return self.red_built(b, Reduce::pair_left(s), compact);
            }
            // (p1 ◦ p2) ◦ p3 ⇒ (p1 ◦ (p2 ◦ p3)) ↪ reassoc   (§4.3.2)
            ExprKind::Cat(a1, a2) => {
                self.metrics.compactions_applied += 1;
                *fuel -= 1;
                let inner = self.cat_built_fueled(a2, b, compact, fuel);
                let inner = self.build(inner);
                let outer = self.cat_built_fueled(a1, inner, compact, fuel);
                let outer = self.build(outer);
                return self.red_built(outer, Reduce::reassoc(), compact);
            }
            // (p1 ↪ f) ◦ p2 ⇒ (p1 ◦ p2) ↪ map-first f      (§4.3.2)
            ExprKind::Red(x, f) => {
                self.metrics.compactions_applied += 1;
                *fuel -= 1;
                let inner = self.cat_built_fueled(x, b, compact, fuel);
                let inner = self.build(inner);
                return self.red_built(inner, Reduce::map_first(f), compact);
            }
            _ => {}
        }
        // Right-child rules (§4.3.1: initial grammar only, in the improved
        // configuration).
        if self.allow_right_rules() {
            match self.node(b).kind.clone() {
                // p ◦ ∅ ⇒ ∅
                ExprKind::Empty => {
                    self.metrics.compactions_applied += 1;
                    return Built::Reuse(self.empty_node());
                }
                // p ◦ ε_s ⇒ p ↪ λu.(u, s)
                ExprKind::Eps(s) => {
                    self.metrics.compactions_applied += 1;
                    return self.red_built(a, Reduce::pair_right(s), compact);
                }
                // p1 ◦ (p2 ↪ f) ⇒ (p1 ◦ p2) ↪ map-second f
                ExprKind::Red(y, g) => {
                    self.metrics.compactions_applied += 1;
                    *fuel -= 1;
                    let inner = self.cat_built_fueled(a, y, compact, fuel);
                    let inner = self.build(inner);
                    return self.red_built(inner, Reduce::map_second(g), compact);
                }
                _ => {}
            }
        }
        Built::New(ExprKind::Cat(a, b))
    }

    pub(crate) fn red_built(&mut self, x: NodeId, f: Reduce, compact: bool) -> Built {
        let x = self.resolve(x);
        if !compact {
            return Built::New(ExprKind::Red(x, f));
        }
        match self.node(x).kind.clone() {
            // ∅ ↪ f ⇒ ∅ (the paper's other new rule)
            ExprKind::Empty => {
                self.metrics.compactions_applied += 1;
                Built::Reuse(self.empty_node())
            }
            // ε_s ↪ f ⇒ ε_{f s}
            ExprKind::Eps(s) => {
                self.metrics.compactions_applied += 1;
                let m = self.forests.alloc(ForestNode::Map(f, s));
                Built::New(ExprKind::Eps(m))
            }
            // (p ↪ f) ↪ g ⇒ p ↪ (g ∘ f)
            ExprKind::Red(y, g) => {
                self.metrics.compactions_applied += 1;
                Built::New(ExprKind::Red(y, f.compose(g)))
            }
            _ => Built::New(ExprKind::Red(x, f)),
        }
    }

    pub(crate) fn delta_built(&mut self, x: NodeId, compact: bool) -> Built {
        let x = self.resolve(x);
        if !compact {
            return Built::New(ExprKind::Delta(x));
        }
        match self.node(x).kind {
            // δ(∅) = ∅ and δ(c) = ∅ (a token has no null parses)
            ExprKind::Empty | ExprKind::Term(_) => {
                self.metrics.compactions_applied += 1;
                return Built::Reuse(self.empty_node());
            }
            // δ(ε_s) = ε_s, δ(δ(x)) = δ(x)
            ExprKind::Eps(_) | ExprKind::Delta(_) => {
                self.metrics.compactions_applied += 1;
                return Built::Reuse(x);
            }
            // Mid-derivation child: punt (§4.3.3).
            ExprKind::Pending | ExprKind::Forward => return Built::New(ExprKind::Delta(x)),
            _ => {}
        }
        // δ(L) for a fully built L: force it to ε_{parse-null(L)} or ∅ right
        // away. Without this rule, nullable sequence derivatives accumulate
        // unbounded δ-prefix chains (`Cat(δ(a₁), Cat(δ(a₂), …))`) and the
        // graph grows with every token; with it, the derivative graph stays
        // proportional to the grammar, which is what makes PWD linear in
        // practice (§2.6). L is from an earlier derivative generation, so
        // its nullability and null-parse forest are already final.
        self.metrics.compactions_applied += 1;
        if self.nullable(x) {
            let forest = self.parse_null(x);
            Built::New(ExprKind::Eps(forest))
        } else {
            Built::Reuse(self.empty_node())
        }
    }

    // ------------------------------------------------------------------
    // Separate-pass compaction (original 2011 mode) and the initial-grammar
    // prepass (§4.3.1).
    // ------------------------------------------------------------------

    /// The §4.3.1 prepass output for `start`, computed once and cached: the
    /// compacted initial grammar is a pure function of the immutable input
    /// graph, so repeated parses share one copy instead of re-running the
    /// pass per parse. When the first parse computes it before the initial
    /// boundary is recorded, the copy becomes part of the persistent grammar
    /// (template rows included) and survives [`Language::reset`].
    pub(crate) fn prepass_root(&mut self, start: NodeId) -> NodeId {
        if let Some(&(_, out)) = self.prepass_cache.iter().find(|&&(s, _)| s == start) {
            return out;
        }
        let out = self.compact_pass(start);
        self.prepass_cache.push((start, out));
        out
    }

    /// Rewrites the graph reachable from `root`, applying the full local
    /// rule set once per node (no fixed-point iteration), and returns the
    /// root of the rewritten graph.
    pub(crate) fn compact_pass(&mut self, root: NodeId) -> NodeId {
        self.metrics.compaction_passes += 1;
        let mut map: HashMap<NodeId, NodeId> = HashMap::new();
        self.compact_node(root, &mut map)
    }

    fn compact_node(&mut self, id: NodeId, map: &mut HashMap<NodeId, NodeId>) -> NodeId {
        let id = self.resolve(id);
        if let Some(&m) = map.get(&id) {
            return m;
        }
        match self.node(id).kind.clone() {
            ExprKind::Empty
            | ExprKind::Eps(_)
            | ExprKind::Term(_)
            | ExprKind::Forward
            | ExprKind::Pending => {
                map.insert(id, id);
                id
            }
            ExprKind::Alt(a, b) => {
                let ph = self.alloc(ExprKind::Pending);
                map.insert(id, ph);
                let ca = self.compact_node(a, map);
                let cb = self.compact_node(b, map);
                let built = self.alt_built(ca, cb, true);
                self.patch(ph, built, ExprKind::Alt(ca, cb));
                ph
            }
            ExprKind::Cat(a, b) => {
                let ph = self.alloc(ExprKind::Pending);
                map.insert(id, ph);
                let ca = self.compact_node(a, map);
                let cb = self.compact_node(b, map);
                let built = self.cat_built(ca, cb, true);
                self.patch(ph, built, ExprKind::Cat(ca, cb));
                ph
            }
            ExprKind::Red(x, f) => {
                let ph = self.alloc(ExprKind::Pending);
                map.insert(id, ph);
                let cx = self.compact_node(x, map);
                let built = self.red_built(cx, f.clone(), true);
                self.patch(ph, built, ExprKind::Red(cx, f));
                ph
            }
            ExprKind::Delta(x) => {
                let ph = self.alloc(ExprKind::Pending);
                map.insert(id, ph);
                let cx = self.compact_node(x, map);
                let built = self.delta_built(cx, true);
                self.patch(ph, built, ExprKind::Delta(cx));
                ph
            }
            ExprKind::Ref(_) => unreachable!("resolved above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParserConfig;
    use crate::Tree;
    use pwd_forest::EnumLimits;

    fn improved() -> Language {
        Language::new(ParserConfig::improved())
    }

    #[test]
    fn alt_identity_rules() {
        let mut lang = improved();
        let a = lang.terminal("a");
        let ta = lang.term_node(a);
        let e = lang.empty_node();
        assert_eq!(lang.alt(e, ta), ta, "∅ ∪ p ⇒ p");
        assert_eq!(lang.alt(ta, e), ta, "p ∪ ∅ ⇒ p");
    }

    #[test]
    fn eps_union_merges() {
        let mut lang = improved();
        let e1 = lang.eps_tree(Tree::node("x", vec![]));
        let e2 = lang.eps_tree(Tree::node("y", vec![]));
        let u = lang.alt(e1, e2);
        assert!(matches!(lang.kind(u), ExprKind::Eps(_)), "ε ∪ ε ⇒ ε");
    }

    #[test]
    fn cat_annihilator_and_eps() {
        let mut lang = improved();
        let a = lang.terminal("a");
        let ta = lang.term_node(a);
        let e = lang.empty_node();
        let k = lang.cat(e, ta);
        assert!(lang.is_empty_node(k), "∅ ◦ p ⇒ ∅");
        let eps = lang.eps_node();
        let r = lang.cat(eps, ta);
        assert!(matches!(lang.kind(r), ExprKind::Red(..)), "ε ◦ p ⇒ p ↪ f");
    }

    #[test]
    fn red_collapses() {
        let mut lang = improved();
        let e = lang.empty_node();
        let r = lang.reduce(e, Reduce::func("f", |t| t));
        assert!(lang.is_empty_node(r), "∅ ↪ f ⇒ ∅");

        let a = lang.terminal("a");
        let ta = lang.term_node(a);
        let r1 = lang.reduce(ta, Reduce::func("f", |t| t));
        let r2 = lang.reduce(r1, Reduce::func("g", |t| t));
        match lang.kind(r2) {
            ExprKind::Red(inner, _) => assert_eq!(lang.resolve(*inner), ta, "(p↪f)↪g ⇒ p↪(g∘f)"),
            other => panic!("expected Red, got {other:?}"),
        }
    }

    #[test]
    fn eps_red_folds_into_forest() {
        let mut lang = improved();
        let e = lang.eps_node();
        let r = lang.reduce(e, Reduce::func("wrap", |t| Tree::node("w", vec![t])));
        match lang.kind(r) {
            ExprKind::Eps(f) => {
                let trees = lang.forests.trees(*f, EnumLimits::default());
                assert_eq!(trees.len(), 1);
                assert_eq!(trees[0].to_string(), "(w ε)");
            }
            other => panic!("expected Eps, got {other:?}"),
        }
    }

    #[test]
    fn cat_reassociates_left_nesting() {
        let mut lang = improved();
        let (a, b, c) = ("a", "b", "c");
        let ta = lang.terminal(a);
        let tb = lang.terminal(b);
        let tc = lang.terminal(c);
        let (na, nb, nc) = (lang.term_node(ta), lang.term_node(tb), lang.term_node(tc));
        let ab = lang.cat(na, nb);
        let abc = lang.cat(ab, nc);
        // Result must be ((a ◦ (b ◦ c)) ↪ reassoc): a reduction on top of a
        // right-nested spine.
        match lang.kind(abc) {
            ExprKind::Red(inner, _) => match lang.kind(*inner) {
                ExprKind::Cat(l, r) => {
                    assert_eq!(lang.resolve(*l), na);
                    assert!(matches!(lang.kind(*r), ExprKind::Cat(..)));
                }
                other => panic!("expected Cat, got {other:?}"),
            },
            other => panic!("expected Red on top, got {other:?}"),
        }
    }

    #[test]
    fn right_child_rules_apply_outside_parse() {
        let mut lang = improved();
        let a = lang.terminal("a");
        let ta = lang.term_node(a);
        let e = lang.empty_node();
        let eps = lang.eps_node();
        let k = lang.cat(ta, e);
        assert!(lang.is_empty_node(k), "p ◦ ∅ ⇒ ∅ before parse");
        let r = lang.cat(ta, eps);
        assert!(matches!(lang.kind(r), ExprKind::Red(..)), "p ◦ ε ⇒ p ↪ f before parse");
    }

    #[test]
    fn right_child_rules_skipped_during_parse() {
        let mut lang = improved();
        let a = lang.terminal("a");
        let ta = lang.term_node(a);
        let eps = lang.eps_node();
        lang.in_parse = true;
        let r = lang.cat(ta, eps);
        assert!(
            matches!(lang.kind(r), ExprKind::Cat(..)),
            "§4.3.1: right-child rules are not applied during parsing"
        );
        lang.in_parse = false;
    }

    #[test]
    fn no_compaction_mode_builds_raw() {
        let mut lang = Language::new(ParserConfig {
            compaction: CompactionMode::None,
            ..ParserConfig::improved()
        });
        let e = lang.empty_node();
        let a = lang.terminal("a");
        let ta = lang.term_node(a);
        let u = lang.alt(e, ta);
        assert!(matches!(lang.kind(u), ExprKind::Alt(..)));
    }

    #[test]
    fn compact_pass_rewrites_graph() {
        let mut lang = Language::new(ParserConfig::original_2011());
        // Build (∅ ∪ a) uncompacted (original mode builds raw)…
        let e = lang.empty_node();
        let a = lang.terminal("a");
        let ta = lang.term_node(a);
        let u = lang.alt(e, ta);
        assert!(matches!(lang.kind(u), ExprKind::Alt(..)));
        // …then the separate pass collapses it.
        let c = lang.compact_pass(u);
        assert_eq!(lang.resolve(c), ta);
        assert_eq!(lang.metrics().compaction_passes, 1);
    }

    #[test]
    fn compact_pass_handles_cycles() {
        let mut lang = Language::new(ParserConfig::original_2011());
        let c = lang.terminal("c");
        let tc = lang.term_node(c);
        let l = lang.forward();
        let lc = lang.cat(l, tc);
        let body = lang.alt(lc, tc);
        lang.define(l, body);
        let out = lang.compact_pass(l);
        // The pass must terminate and produce a graph that still contains a
        // cycle (reachable set is finite and nonempty).
        assert!(lang.reachable_count(out) >= 2);
    }

    /// `N = N ◦ (N ◦ c)`, built with the public builders: a bare `◦` body
    /// whose left spine cycles back to `N`. The session-start prepass
    /// compacts every sequence that begins with `N` by reassociating
    /// through that cycle, and each step recurses into both halves, so a
    /// fuel bound per call (not per construction) lets one `◦` take 2⁶⁴
    /// steps and allocate a node for each. `N` has no base case, so every
    /// derivative is empty.
    #[test]
    fn left_spine_cycle_compacts_in_bounded_work() {
        let mut lang = improved();
        let c = lang.terminal("c");
        let tc = lang.term_node(c);
        let n = lang.forward();
        let nc = lang.cat(n, tc);
        let body = lang.cat(n, nc);
        let start = lang.seq(&[n, tc, tc]);
        lang.define(n, body);
        let before = lang.node_count();
        let mut session = crate::SessionState::start(&mut lang, start).unwrap();
        let grown = lang.node_count() - before;
        assert!(grown < 2_000, "the prepass allocated {grown} nodes");
        let tok = lang.token(c, "c");
        assert!(!session.feed(&mut lang, &tok).unwrap(), "N has no base case");
    }

    #[test]
    fn star_builds_cyclic_structure() {
        let mut lang = improved();
        let a = lang.terminal("a");
        let ta = lang.term_node(a);
        let s = lang.star(ta);
        assert!(lang.validate(s).is_ok());
        assert!(lang.reachable_count(s) >= 2);
    }

    #[test]
    fn seq_and_alts_helpers() {
        let mut lang = improved();
        let a = lang.terminal("a");
        let ta = lang.term_node(a);
        assert_eq!(lang.seq(&[]), lang.eps_node());
        assert_eq!(lang.seq(&[ta]), ta);
        assert_eq!(lang.alts(&[]), lang.empty_node());
        assert_eq!(lang.alts(&[ta]), ta);
        let two = lang.alts(&[ta, ta]);
        assert!(matches!(lang.kind(two), ExprKind::Alt(..)));
    }
}
