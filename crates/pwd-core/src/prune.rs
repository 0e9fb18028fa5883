//! Emptiness (productivity) analysis and zombie pruning.
//!
//! Deriving a left-recursive sub-language by a token it cannot start with
//! produces degenerate cycles like `X = X ◦ y` — languages that are
//! semantically `∅` but that no *local* compaction rule can collapse,
//! because every node of the cycle looks structurally alive. Left in place,
//! one such zombie cluster is born per token, stays reachable forever, and
//! is re-derived on every subsequent token — turning linear-in-practice
//! parses quadratic.
//!
//! Might et al.'s implementation guards against this with an `is-empty?`
//! predicate computed, like nullability, as a fixed point. We do the same:
//! after each token's derivative (and separate-pass compaction, if any) we
//! run a *productivity* fixed point over the nodes created for that token —
//! a node is productive if its language contains any string — and rewrite
//! unproductive nodes to `∅` in place. Since a language, once empty, stays
//! empty under derivation, the rewrite is sound and permanent.
//!
//! The pass is part of compaction and is disabled when
//! [`CompactionMode::None`](crate::CompactionMode::None) is selected (the
//! §3 instrumentation counts every node the pure algorithm constructs).

use crate::expr::{ExprKind, Language, NodeId};

/// Productivity lattice values, stored as a dense per-node slot
/// (`Node::productive`). The mark is *not* epoch-stamped: for initial-grammar
/// nodes productivity is a language-level fact that stays valid across
/// parses, and derived nodes are discarded by `reset()` anyway.
pub(crate) const PROD_UNKNOWN: u8 = 0;
pub(crate) const PROD_YES: u8 = 1;
pub(crate) const PROD_EMPTY: u8 = 2;

impl Language {
    /// Computes productivity for every node in `lo..hi` (all nodes below
    /// `lo` must already be settled) and rewrites proven-empty nodes to `∅`.
    /// When `lo` is at or below the productivity watermark, the watermark
    /// advances to `hi`.
    ///
    /// Least fixed point: nodes are assumed unproductive and promoted to
    /// productive; whatever is still unproven when the iteration stabilizes
    /// is genuinely empty.
    pub(crate) fn prune_empty(&mut self, lo: usize) {
        let hi = self.nodes.len();
        if lo <= self.settled {
            self.settled = hi;
        }
        if lo >= hi {
            return;
        }
        loop {
            let mut changed = false;
            for i in lo..hi {
                if self.nodes[i].productive != PROD_UNKNOWN {
                    continue;
                }
                if self.eval_productive(NodeId(i as u32)) {
                    self.nodes[i].productive = PROD_YES;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Initial-grammar nodes keep their structure (so `reset()` restores
        // a pristine grammar); only derived nodes are rewritten. The cached
        // PROD_EMPTY value already stops them from keeping zombies alive.
        let rewrite_from = self.initial_nodes.unwrap_or(0).max(lo);
        for i in lo..hi {
            if self.nodes[i].productive == PROD_UNKNOWN {
                self.nodes[i].productive = PROD_EMPTY;
                if i >= rewrite_from {
                    let id = NodeId(i as u32);
                    self.nodes[i].kind = ExprKind::Empty;
                    // The kind changed, so epoch-stamped state derived from
                    // the old kind (nullability above all) must not survive.
                    self.invalidate_parse_state(id);
                    self.metrics.empty_prunes += 1;
                }
            }
        }
    }

    /// Does every node below the productivity watermark have a settled
    /// mark? (The invariant a start-of-parse prune relies on.)
    pub(crate) fn watermark_holds(&self) -> bool {
        self.nodes[..self.settled].iter().all(|n| n.productive != PROD_UNKNOWN)
    }

    /// One evaluation step: is this node provably productive *now*, reading
    /// unknown in-range neighbours as "not yet"?
    fn eval_productive(&self, id: NodeId) -> bool {
        let read = |c: NodeId| -> bool {
            let c = self.resolve(c);
            self.node(c).productive == PROD_YES
        };
        match &self.node(id).kind {
            ExprKind::Empty => false,
            ExprKind::Eps(_) | ExprKind::Term(_) => true,
            // Conservative: never prune unpatched or undefined nodes.
            ExprKind::Pending | ExprKind::Forward => true,
            ExprKind::Alt(a, b) => read(*a) || read(*b),
            ExprKind::Cat(a, b) => read(*a) && read(*b),
            ExprKind::Red(x, _) => read(*x),
            ExprKind::Delta(x) => {
                // δ(L) is productive iff L is nullable. Use the cached
                // nullability when final; otherwise stay conservative
                // (productive) rather than compute a nested fixed point.
                let x = self.resolve(*x);
                let (value, definite) = self.null_state(x);
                if definite {
                    value
                } else {
                    true
                }
            }
            ExprKind::Ref(t) => read(*t),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{CompactionMode, Language, ParserConfig, Token};

    /// The zombie repro: nested left recursion. S = ε | S T; T = L n;
    /// L = p | L ";" p. Deriving L by "n" creates X = X ◦ y, which the
    /// pruning pass must collapse so the live graph stays bounded.
    fn nested_list_lang() -> (Language, crate::NodeId, Token, Token) {
        let mut lang = Language::new(ParserConfig::improved());
        let p = lang.terminal("p");
        let nl = lang.terminal("n");
        let semi = lang.terminal(";");
        let tp = lang.term_node(p);
        let tn = lang.term_node(nl);
        let tsemi = lang.term_node(semi);

        let l = lang.forward();
        let l_cont = lang.seq(&[l, tsemi, tp]);
        let l_body = lang.alt(tp, l_cont);
        lang.define(l, l_body);

        let t = lang.cat(l, tn);
        let s = lang.forward();
        let st = lang.cat(s, t);
        let eps = lang.eps_node();
        let s_body = lang.alt(eps, st);
        lang.define(s, s_body);

        let tok_p = lang.token(p, "p");
        let tok_n = lang.token(nl, "n");
        (lang, s, tok_p, tok_n)
    }

    #[test]
    fn zombie_clusters_are_pruned() {
        let (mut lang, s, tok_p, tok_n) = nested_list_lang();
        let mut sizes = Vec::new();
        for k in [4usize, 8, 16, 32] {
            lang.reset();
            let mut toks = Vec::new();
            for _ in 0..k {
                toks.push(tok_p.clone());
                toks.push(tok_n.clone());
            }
            let d = lang.derivative(s, &toks).unwrap();
            assert!(lang.nullable(d), "k={k}: p n repeated is in the language");
            sizes.push(lang.reachable_count(d));
        }
        assert_eq!(sizes[0], sizes[3], "live graph must not grow with input: {sizes:?}");
        assert!(lang.metrics().empty_prunes > 0, "the pass must actually fire");
    }

    #[test]
    fn pruning_disabled_without_compaction() {
        let (mut lang, s, tok_p, tok_n) = nested_list_lang();
        lang.set_config_compaction_for_test(CompactionMode::None);
        let toks = vec![tok_p, tok_n];
        let _ = lang.derivative(s, &toks).unwrap();
        assert_eq!(lang.metrics().empty_prunes, 0);
    }

    #[test]
    fn pruned_parse_results_are_correct() {
        let (mut lang, s, tok_p, tok_n) = nested_list_lang();
        // "p ; p n p n" parses; "p ;" then "n" must reject.
        let semi = lang.terminal(";");
        let tok_semi = lang.token(semi, ";");
        let good = vec![
            tok_p.clone(),
            tok_semi.clone(),
            tok_p.clone(),
            tok_n.clone(),
            tok_p.clone(),
            tok_n.clone(),
        ];
        assert!(lang.recognize(s, &good).unwrap());
        lang.reset();
        let bad = vec![tok_p.clone(), tok_semi.clone(), tok_n.clone()];
        assert!(!lang.recognize(s, &bad).unwrap());
    }
}
