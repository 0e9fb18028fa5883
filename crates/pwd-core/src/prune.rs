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
//! The fixed point is a worklist, for the reason §4.2 gives for
//! `nullable?`: a pass that rescans every node until nothing changes pays
//! for the whole generation once per link of its longest dependency chain,
//! while a worklist revisits only the nodes whose inputs just changed. Each
//! unknown node in the generation is recorded as a *reader* of its unknown
//! children in the generation (read through `Ref` forwarding), then every
//! unknown node is evaluated once in descending index order. `derive`
//! allocates a node's placeholder before its children, so a child is
//! usually evaluated before its parent; when a node is proven productive,
//! only its already-swept readers are evaluated again. That costs
//! O(nodes + edges) per generation: on the Python mix about 335
//! evaluations for a generation of about 237 nodes, where rescanning took
//! about 40 passes and 6,100 evaluations. What is still unproven afterwards
//! is the least fixed point — unique, so the marks and rewrites are exactly
//! those of the round-robin iteration (kept in the tests as the reference).
//!
//! The pass is part of compaction and is disabled when
//! [`CompactionMode::None`](crate::CompactionMode::None) is selected (the
//! §3 instrumentation counts every node the pure algorithm constructs).

use crate::expr::{DepEntry, ExprKind, Language, NodeId, NO_LINK};

/// Productivity lattice values, stored as a dense per-node slot
/// (`Node::productive`). The mark is *not* epoch-stamped: for initial-grammar
/// nodes productivity is a language-level fact that stays valid across
/// parses, and derived nodes are discarded by `reset()` anyway.
pub(crate) const PROD_UNKNOWN: u8 = 0;
pub(crate) const PROD_YES: u8 = 1;
pub(crate) const PROD_EMPTY: u8 = 2;

/// The productivity worklist's buffers. They live on [`Language`], empty
/// between passes but keeping their capacity, so settling a generation
/// allocates nothing once they have grown to the largest one seen.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReaderLists {
    /// Head of each generation node's reader list in `links`, indexed by
    /// node index minus the generation start.
    heads: Vec<u32>,
    /// Pooled reader-list entries: `parent` reads the node owning the list.
    links: Vec<DepEntry>,
    /// Nodes just proven productive whose readers are still to be visited.
    work: Vec<NodeId>,
}

impl Language {
    /// Computes productivity for every node in `lo..hi` (all nodes below
    /// `lo` must already be settled) and rewrites proven-empty nodes to `∅`.
    /// When `lo` is at or below the productivity watermark, the watermark
    /// advances to `hi`.
    ///
    /// Least fixed point: nodes are assumed unproductive and promoted to
    /// productive; whatever is still unproven when the worklist drains is
    /// genuinely empty.
    pub(crate) fn prune_empty(&mut self, lo: usize) {
        let hi = self.nodes.len();
        if lo <= self.settled {
            self.settled = hi;
        }
        if lo >= hi {
            return;
        }
        #[cfg(test)]
        let reference = self.round_robin_marks(lo);
        self.settle_productive(lo);
        #[cfg(test)]
        assert!(
            self.nodes[lo..].iter().map(|n| n.productive).eq(reference),
            "worklist and round-robin productivity disagree on {lo}..{hi}"
        );
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

    /// Marks every provably productive node in `lo..` with `PROD_YES`,
    /// leaving the rest unknown: the worklist least fixed point of the
    /// module docs.
    fn settle_productive(&mut self, lo: usize) {
        let hi = self.nodes.len();
        let mut buf = std::mem::take(&mut self.readers);
        buf.heads.resize(hi - lo, NO_LINK);
        // Record each unknown node as a reader of its unknown in-range
        // children. A child below `lo` or already marked cannot change.
        for i in lo..hi {
            if self.nodes[i].productive != PROD_UNKNOWN {
                continue;
            }
            let reader = NodeId(i as u32);
            let mut link = |child: NodeId| {
                let c = self.resolve(child).index();
                if c < lo {
                    debug_assert!(
                        self.nodes[c].productive != PROD_UNKNOWN,
                        "node {c} below the generation start {lo} is unsettled"
                    );
                } else if self.nodes[c].productive == PROD_UNKNOWN {
                    buf.links.push(DepEntry { parent: reader, next: buf.heads[c - lo] });
                    buf.heads[c - lo] = (buf.links.len() - 1) as u32;
                }
            };
            match &self.nodes[i].kind {
                ExprKind::Alt(a, b) | ExprKind::Cat(a, b) => {
                    link(*a);
                    link(*b);
                }
                ExprKind::Red(x, _) | ExprKind::Ref(x) => link(*x),
                _ => {}
            }
        }
        // One sweep, children before parents. A node proven productive
        // re-evaluates its readers above the sweep (already evaluated, and
        // now possibly productive); readers below it are still to come.
        for i in (lo..hi).rev() {
            let id = NodeId(i as u32);
            if self.nodes[i].productive != PROD_UNKNOWN || !self.eval_productive(id) {
                continue;
            }
            self.nodes[i].productive = PROD_YES;
            buf.work.push(id);
            while let Some(p) = buf.work.pop() {
                let mut cur = buf.heads[p.index() - lo];
                while cur != NO_LINK {
                    let DepEntry { parent: r, next } = buf.links[cur as usize];
                    cur = next;
                    if r.index() > i
                        && self.nodes[r.index()].productive == PROD_UNKNOWN
                        && self.eval_productive(r)
                    {
                        self.nodes[r.index()].productive = PROD_YES;
                        buf.work.push(r);
                    }
                }
            }
        }
        // Emptied but not shrunk: the next pass reuses the capacity, and a
        // clone of the language (a forked backend) copies nothing.
        buf.heads.clear();
        buf.links.clear();
        self.readers = buf;
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

    /// The reference the worklist is checked against: the marks of `lo..`
    /// after Might et al.'s round-robin iteration, which rescans every
    /// unknown node of the generation until a pass changes nothing. The
    /// marks are restored afterwards.
    #[cfg(test)]
    fn round_robin_marks(&mut self, lo: usize) -> Vec<u8> {
        let marks = |lang: &Language| -> Vec<u8> {
            lang.nodes[lo..].iter().map(|n| n.productive).collect()
        };
        let before = marks(self);
        loop {
            let mut changed = false;
            for i in lo..self.nodes.len() {
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
        let after = marks(self);
        for (node, mark) in self.nodes[lo..].iter_mut().zip(before) {
            node.productive = mark;
        }
        after
    }
}

#[cfg(test)]
mod tests {
    use super::{PROD_EMPTY, PROD_UNKNOWN, PROD_YES};
    use crate::expr::ExprKind;
    use crate::{CompactionMode, Language, NodeId, ParseMode, ParserConfig, SessionState, Token};
    use proptest::TestRng;

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

    /// The productivity mark of a node, read through `Ref` forwarding.
    fn mark(lang: &Language, id: NodeId) -> u8 {
        lang.node(lang.resolve(id)).productive
    }

    /// The round-robin loop's worst case. Every non-terminal is declared
    /// before any body exists, so each parent sits below its children in
    /// the arena and a chain of `n` links costs the naive loop `n` passes.
    /// The zombie ring `g₀ = g₁ ◦ x, …, g_m = g₀` has no base case and is
    /// closed through a `Ref` to a `Ref`.
    #[test]
    fn parents_allocated_before_children_settle() {
        const CHAIN: usize = 300;
        const RING: usize = 40;
        let mut lang = Language::new(ParserConfig::improved());
        let x = lang.terminal("x");
        let tx = lang.term_node(x);
        let f: Vec<NodeId> = (0..=CHAIN).map(|_| lang.forward()).collect();
        let g: Vec<NodeId> = (0..=RING).map(|_| lang.forward()).collect();
        for i in 0..CHAIN {
            let body = lang.cat(tx, f[i + 1]);
            lang.define(f[i], body);
        }
        lang.define(f[CHAIN], tx);
        for i in 0..RING {
            let body = lang.cat(g[i + 1], tx);
            lang.define(g[i], body);
        }
        lang.define(g[RING], g[0]);
        let start = lang.alt(f[0], g[0]);

        let mut session = SessionState::start(&mut lang, start).unwrap();
        assert!(f.iter().all(|&n| mark(&lang, n) == PROD_YES), "the chain is productive");
        assert!(g.iter().all(|&n| mark(&lang, n) == PROD_EMPTY), "the ring is empty");
        // x^(CHAIN + 1) is the one sentence; every generation on the way
        // settles completely.
        let tok = lang.token(x, "x");
        for _ in 0..=CHAIN {
            assert!(session.feed(&mut lang, &tok).unwrap());
            assert!(lang.nodes.iter().all(|n| n.productive != PROD_UNKNOWN));
        }
        assert!(session.prefix_is_sentence(&mut lang));
        assert!(!session.feed(&mut lang, &tok).unwrap());
    }

    /// The `resolve` edge case: a non-terminal declared — and
    /// settled while still undefined — before one session and defined after
    /// it is a `Ref` below the watermark whose body lies above it. A reader
    /// must wait on that body, not on the settled `Ref`. `f = x | f x` is a
    /// cycle closed through the `Ref`. `start = f x` is built after the body
    /// but before `define`, so it keeps `f` itself as its child and the
    /// sweep evaluates it first, while the body is still unknown.
    #[test]
    fn cycle_closed_through_a_settled_ref() {
        let mut lang = Language::new(ParserConfig::improved());
        let x = lang.terminal("x");
        let tx = lang.term_node(x);
        let f = lang.forward();
        SessionState::start(&mut lang, tx).unwrap().finish(&mut lang);
        assert!(f.index() < lang.settled);
        let fx = lang.cat(f, tx);
        let body = lang.alt(tx, fx);
        let start = lang.cat(f, tx);
        lang.define(f, body);
        let mut session = SessionState::start(&mut lang, start).unwrap();
        assert_eq!(mark(&lang, start), PROD_YES);
        let tok = lang.token(x, "x");
        for _ in 0..3 {
            assert!(session.feed(&mut lang, &tok).unwrap());
        }
        assert!(session.prefix_is_sentence(&mut lang));
    }

    /// One grammar symbol: a terminal, a non-terminal (any of them, so left,
    /// right and mutual recursion arise), `ε`, `∅`, or a raw `δ` of a leaf.
    /// (The engine builds `δ` only over finished nodes of an earlier
    /// generation; a `δ` inside a cycle through its own operand is not a
    /// grammar the public constructors can produce; the §4.3.1 prepass
    /// panics on it.)
    fn random_symbol(
        rng: &mut TestRng,
        lang: &mut Language,
        terms: &[NodeId],
        nts: &[NodeId],
    ) -> NodeId {
        let leaf = |rng: &mut TestRng| match rng.below(4) {
            0 | 1 => terms[rng.below(terms.len() as u64) as usize],
            2 => lang.eps_node(),
            _ => lang.empty_node(),
        };
        match rng.below(10) {
            0..=4 => leaf(rng),
            5..=8 => nts[rng.below(nts.len() as u64) as usize],
            _ => {
                let inner = leaf(rng);
                let built = lang.delta_built(inner, false);
                lang.build(built)
            }
        }
    }

    /// A seeded random grammar over `a b c`, built through `Language`'s
    /// public constructors: up to six non-terminals declared with `forward`
    /// and closed with `define`, each a union of up to three sequences of
    /// up to three symbols or a bare sequence led by a non-terminal. Some
    /// non-terminals have no base case (zombies from the start); some are
    /// aliases of a later one, so cycles run through `Ref` chains. Returns
    /// the language, its start symbol and the tokens.
    fn random_grammar(seed: u64, config: ParserConfig) -> (Language, NodeId, Vec<Token>) {
        let mut rng = TestRng::seed_from_u64(seed);
        let mut lang = Language::new(config);
        let names = ["a", "b", "c"];
        let ids: Vec<_> = names.iter().map(|n| lang.terminal(n)).collect();
        let terms: Vec<NodeId> = ids.iter().map(|&t| lang.term_node(t)).collect();
        let toks: Vec<Token> = ids.iter().zip(names).map(|(&t, n)| lang.token(t, n)).collect();
        let k = 2 + rng.below(5) as usize;
        let nts: Vec<NodeId> = (0..k).map(|_| lang.forward()).collect();
        // Every body is built while all non-terminals are still undefined,
        // as a grammar compiler does; `define` closes the cycles afterwards.
        let mut bodies = Vec::new();
        for i in 0..k {
            if i + 1 < k && rng.below(5) == 0 {
                // Aliases only point forward, so no `Ref` cycle forms.
                bodies.push(nts[i + 1 + rng.below((k - i - 1) as u64) as usize]);
                continue;
            }
            if rng.below(4) == 0 {
                // A bare `◦` body led by a non-terminal, so left-spine `◦`
                // cycles such as `N = N ◦ (N ◦ c)` arise: on them the
                // §4.3.2 reassociation rule recurses into both halves, and
                // only the shared compaction fuel keeps that linear.
                let mut items = vec![nts[rng.below(k as u64) as usize]];
                for _ in 0..1 + rng.below(2) {
                    items.push(random_symbol(&mut rng, &mut lang, &terms, &nts));
                }
                let body = lang.seq(&items);
                if matches!(lang.kind(body), ExprKind::Cat(..)) {
                    bodies.push(body);
                    continue;
                }
            }
            let mut alts = Vec::new();
            for _ in 0..1 + rng.below(3) {
                let items: Vec<NodeId> = (0..rng.below(4))
                    .map(|_| random_symbol(&mut rng, &mut lang, &terms, &nts))
                    .collect();
                alts.push(lang.seq(&items));
            }
            // Otherwise a left-recursive alternative that adds no base case
            // keeps the body a union, whatever compaction made of the rest:
            // a body that is a bare non-terminal could close a `Ref` cycle.
            let rec = lang.cat(nts[i], terms[0]);
            if alts.iter().all(|&a| lang.is_empty_node(a)) {
                alts.push(lang.cat(nts[i], terms[1]));
            }
            alts.push(rec);
            bodies.push(lang.alts(&alts));
        }
        for (&nt, &body) in nts.iter().zip(&bodies) {
            lang.define(nt, body);
        }
        (lang, nts[0], toks)
    }

    /// Differential test of the worklist against the round-robin loop.
    /// In test builds `prune_empty` computes the round-robin marks of every
    /// generation it settles and asserts that the worklist's marks equal
    /// them, so every session start and every feed below is a comparison.
    /// Random walks prefer tokens that keep the prefix viable (dead feeds
    /// are rolled back), so derivations go deep, and each language runs two
    /// sessions so warm state across `reset` is covered too.
    #[test]
    fn worklist_matches_round_robin_on_random_grammars() {
        let configs = [
            ParserConfig::improved(),
            ParserConfig { mode: ParseMode::Recognize, ..ParserConfig::improved() },
            ParserConfig::original_2011(),
        ];
        let mut prunes = 0;
        for seed in 0..400 {
            for config in configs {
                let (mut lang, start, toks) = random_grammar(seed, config);
                let mut rng = TestRng::seed_from_u64(seed ^ 0x5EED);
                for _ in 0..2 {
                    lang.reset();
                    let mut session = SessionState::start(&mut lang, start).unwrap();
                    assert!(lang.nodes.iter().all(|n| n.productive != PROD_UNKNOWN));
                    for _ in 0..16 {
                        let first = rng.below(toks.len() as u64) as usize;
                        let mut viable = false;
                        for k in 0..toks.len() {
                            let cp = session.checkpoint();
                            let tok = &toks[(first + k) % toks.len()];
                            viable = session.feed(&mut lang, tok).unwrap();
                            assert!(lang.nodes.iter().all(|n| n.productive != PROD_UNKNOWN));
                            if viable {
                                break;
                            }
                            session.rollback(&cp);
                        }
                        if !viable {
                            break;
                        }
                    }
                    if config.mode == ParseMode::Parse && session.prefix_is_sentence(&mut lang) {
                        session.forest(&mut lang).unwrap();
                    }
                    session.finish(&mut lang);
                    prunes += lang.metrics().empty_prunes;
                }
            }
        }
        assert!(prunes > 0, "the random grammars must exercise the rewrite");
    }
}
