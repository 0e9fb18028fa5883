//! The derivative (`derive`), the batch parse entry points (`parse`), and
//! AST extraction (`parse-null`) — the paper's four core functions, minus
//! `nullable?` which lives in [`crate::nullable`]. The per-token loop under
//! `parse` is [`SessionState::feed`]; the batch entry points here start a
//! session, feed it, and finish it.
//!
//! `derive` follows §2.5.2: before recurring into children it allocates a
//! placeholder node of the correct shape, memoizes it, and patches the
//! children afterwards, so cyclic grammars derive correctly. Compaction, if
//! configured on-construction, happens at patch time via the smart
//! constructors in [`crate::compact`] — and punts when a child is still
//! pending, exactly as §4.3.3 prescribes.

use crate::config::{CompactionMode, MemoKeying, ParseMode};
use crate::error::PwdError;
use crate::expr::{ExprKind, Language, NodeId};
use crate::session::SessionState;
use crate::token::{DeriveKey, Token};
use pwd_forest::{CanonError, EnumLimits, ForestId, ForestNode, ParseForest, Tree, TreeCount};

impl Language {
    // ------------------------------------------------------------------
    // Public parse API
    // ------------------------------------------------------------------

    /// Recognizes `tokens` against the language rooted at `start`.
    ///
    /// # Errors
    ///
    /// Returns [`PwdError::UndefinedNonterminal`] for incomplete grammars
    /// and [`PwdError::NodeBudgetExceeded`] if the configured node budget
    /// trips. A simple non-match is `Ok(false)`, not an error.
    ///
    /// # Examples
    ///
    /// ```
    /// use pwd_core::Language;
    /// # fn main() -> Result<(), pwd_core::PwdError> {
    /// let mut lang = Language::default();
    /// let a = lang.terminal("a");
    /// let ta = lang.term_node(a);
    /// let s = lang.star(ta);
    /// let tok = lang.token(a, "a");
    /// assert!(lang.recognize(s, &[tok.clone(), tok])?);
    /// assert!(lang.recognize(s, &[])?);
    /// # Ok(())
    /// # }
    /// ```
    pub fn recognize(&mut self, start: NodeId, tokens: &[Token]) -> Result<bool, PwdError> {
        let session = self.feed_tokens(start, tokens)?;
        let accepted = session.prefix_is_sentence(self);
        session.finish(self);
        Ok(accepted)
    }

    /// Parses `tokens` and returns the root of the shared parse forest.
    ///
    /// # Errors
    ///
    /// [`PwdError::Rejected`] when the input is not in the language, plus
    /// the grammar/budget errors of [`recognize`](Language::recognize).
    pub fn parse_forest(&mut self, start: NodeId, tokens: &[Token]) -> Result<ForestId, PwdError> {
        let session = self.feed_tokens(start, tokens)?;
        let forest = if session.is_viable() {
            session.forest(self)
        } else {
            // The last token fed is the one that killed the derivative.
            let position = session.tokens_fed() - 1;
            Err(PwdError::Rejected { position, token: tokens.get(position).cloned() })
        };
        session.finish(self);
        forest
    }

    /// Parses `tokens` and enumerates up to `limits.max_trees` parse trees.
    ///
    /// # Errors
    ///
    /// Same as [`parse_forest`](Language::parse_forest).
    pub fn parse_trees(
        &mut self,
        start: NodeId,
        tokens: &[Token],
        limits: EnumLimits,
    ) -> Result<Vec<Tree>, PwdError> {
        let f = self.parse_forest(start, tokens)?;
        Ok(self.forests.trees(f, limits))
    }

    /// Parses `tokens` and returns the unique parse tree, or `None` if the
    /// parse is ambiguous.
    ///
    /// # Errors
    ///
    /// Same as [`parse_forest`](Language::parse_forest).
    pub fn parse_unique(
        &mut self,
        start: NodeId,
        tokens: &[Token],
    ) -> Result<Option<Tree>, PwdError> {
        let f = self.parse_forest(start, tokens)?;
        let mut ts = self.forests.trees(f, EnumLimits { max_trees: 2, max_depth: usize::MAX });
        if ts.len() == 1 {
            Ok(Some(ts.swap_remove(0)))
        } else {
            Ok(None)
        }
    }

    /// Parses `tokens` and counts the parse trees — exactly, without
    /// enumerating: [`TreeCount::Finite`] up to `u128`, an explicit
    /// [`TreeCount::Overflow`] beyond, [`TreeCount::Infinite`] for
    /// productive forest cycles.
    ///
    /// # Errors
    ///
    /// Same as [`parse_forest`](Language::parse_forest).
    pub fn count_parses(&mut self, start: NodeId, tokens: &[Token]) -> Result<TreeCount, PwdError> {
        let f = self.parse_forest(start, tokens)?;
        Ok(self.forests.count(f))
    }

    /// Enumerates trees out of a previously returned forest.
    pub fn trees_of(&self, forest: ForestId, limits: EnumLimits) -> Vec<Tree> {
        self.forests.trees(forest, limits)
    }

    /// Counts trees in a previously returned forest.
    pub fn count_of(&self, forest: ForestId) -> TreeCount {
        self.forests.count(forest)
    }

    /// The shared forest arena this language parses into. Forest ids
    /// returned by [`parse_forest`](Language::parse_forest) index into it.
    pub fn forest_store(&self) -> &pwd_forest::Forest {
        &self.forests
    }

    /// Normalizes a previously returned forest into an owned, canonical
    /// [`ParseForest`] — the cross-backend comparable form (see
    /// [`pwd_forest::Forest::extract_canonical`]). Timed under
    /// [`Phase::Forest`](pwd_obs::Phase::Forest), like the `parse-null`
    /// that built the raw forest, so the phase covers the whole canonical
    /// forest build, as it does for the Earley and GLR backends.
    ///
    /// # Errors
    ///
    /// [`CanonError::Opaque`] for forests mapping an opaque
    /// [`Reduce`](crate::Reduce) function over a highly ambiguous
    /// subforest; grammars compiled from a CFG use structured labels and
    /// always canonicalize.
    pub fn canonical_forest(&mut self, forest: ForestId) -> Result<ParseForest, CanonError> {
        let span = self.obs_start();
        let canon = self.forests.extract_canonical(forest);
        self.obs_end(pwd_obs::Phase::Forest, span);
        canon
    }

    /// Does a previously returned forest contain at least one finite tree?
    pub fn has_tree(&self, forest: ForestId) -> bool {
        self.forests.has_tree(forest)
    }

    /// The derivative of the whole language by a token sequence:
    /// `D_w(L)`. Returns the final grammar node (the canonical `∅` node if
    /// the derivative collapsed early).
    ///
    /// # Errors
    ///
    /// Same grammar/budget errors as [`recognize`](Language::recognize).
    pub fn derivative(&mut self, start: NodeId, tokens: &[Token]) -> Result<NodeId, PwdError> {
        let session = self.feed_tokens(start, tokens)?;
        let viable = session.is_viable();
        let last = session.finish(self);
        Ok(if viable { last } else { self.empty_node() })
    }

    // ------------------------------------------------------------------
    // The outer loop (the paper's `parse`)
    // ------------------------------------------------------------------

    /// The paper's `parse` minus the final `parse-null`: a session started
    /// at `start` and fed `tokens` until the derivative dies (early
    /// reject). The caller reads the verdict or forest, then finishes it.
    fn feed_tokens(&mut self, start: NodeId, tokens: &[Token]) -> Result<SessionState, PwdError> {
        let mut session = SessionState::start(self, start)?;
        for tok in tokens {
            if !session.feed(self, tok)? {
                break;
            }
        }
        Ok(session)
    }

    // ------------------------------------------------------------------
    // derive
    // ------------------------------------------------------------------

    /// Are the class-template slots active? In parse mode they carry the
    /// whole class-sharing scheme (memo entries stay value-keyed — forests
    /// embed lexemes); in recognize mode they back the class-keyed memo
    /// with an eviction-proof second level (the single-entry strategy
    /// otherwise thrashes when successive tokens of different classes
    /// revisit the same grammar node).
    #[inline]
    fn templates_enabled(&self) -> bool {
        self.config.keying == MemoKeying::ByClass && !self.config.naming
    }

    /// The memo key identifying `tok` under the configured keying.
    #[inline]
    fn derive_key(&self, tok: &Token) -> DeriveKey {
        // Keyed by terminal class outright only where no lexeme can reach
        // the derivative (`ParserConfig::class_keyed`).
        if self.config.class_keyed() {
            DeriveKey::class(tok.term())
        } else {
            DeriveKey::value(tok.key())
        }
    }

    /// `D_tok(id)` with memoize-before-recurse cycle handling.
    pub(crate) fn derive_node(&mut self, id: NodeId, tok: &Token) -> NodeId {
        self.derive_node_t(id, tok).0
    }

    /// `D_tok(id)` plus its lexeme *taint*: does the derivative embed an `ε`
    /// leaf of `tok` (and therefore its lexeme)? Untainted derivatives are a
    /// pure function of `(id, tok.term())`, which is what lets the class
    /// templates share them verbatim with other lexemes of the class. Taint
    /// is over-approximated (any derived child's taint propagates even if
    /// compaction dropped that child; cycles and evicted slots read as
    /// tainted), which costs sharing, never soundness.
    fn derive_node_t(&mut self, id: NodeId, tok: &Token) -> (NodeId, bool) {
        self.metrics.derive_calls += 1;
        let id = self.resolve(id);
        let key = self.derive_key(tok);
        let templates = self.templates_enabled();
        if let Some(r) = self.memo_get(id, key) {
            // Taint only exists in parse mode (recognize builds no lexeme
            // -carrying leaves, so its derivatives are never tainted — and
            // skipping the row lookup keeps the class-keyed hit path to the
            // memo read alone). In parse mode, a mid-derivation placeholder
            // (cycle) or an absent template reads as tainted.
            let taint = templates
                && self.config.mode == ParseMode::Parse
                && self.template_taint(id, tok.term());
            return (r, taint);
        }
        if templates {
            match self.template_get(id, tok.term()) {
                // A lexeme-independent derivative of this class exists:
                // share it verbatim, skipping the recursive derive.
                Some((val, false)) => {
                    self.metrics.template_shares += 1;
                    self.memo_put(id, key, val);
                    return (val, false);
                }
                // Lexeme-dependent: fall through and re-derive. Untainted
                // subgraphs below still share, so allocation is confined to
                // the patch path reaching the fresh `ε` leaves.
                Some((_, true)) => self.metrics.template_instantiations += 1,
                None => {}
            }
        }
        self.metrics.derive_uncached += 1;
        let compact = self.config.compaction == CompactionMode::OnConstruction;
        let (r, taint) = match self.node(id).kind {
            // D_c(∅) = ∅, D_c(ε) = ∅, D_c(δ(L)) = ∅
            ExprKind::Empty | ExprKind::Eps(_) | ExprKind::Delta(_) => {
                let r = self.derived_empty(id, tok);
                self.memo_put(id, key, r);
                (r, false)
            }
            // D_c(c') = ε_c if c = c', else ∅
            ExprKind::Term(t) => {
                let (r, taint) = if t == tok.term() {
                    // The parse-mode ε leaf is the one lexeme carrier.
                    (self.derived_eps(id, tok), self.config.mode == ParseMode::Parse)
                } else {
                    (self.derived_empty(id, tok), false)
                };
                self.memo_put(id, key, r);
                (r, taint)
            }
            // D_c(L₁ ∪ L₂) = D_c(L₁) ∪ D_c(L₂)
            ExprKind::Alt(a, b) => {
                let ph = self.placeholder(id, tok, false);
                self.memo_put(id, key, ph);
                let (da, ta) = self.derive_node_t(a, tok);
                let (db, tb) = self.derive_node_t(b, tok);
                let built = self.alt_built(da, db, compact);
                self.patch(ph, built, ExprKind::Alt(da, db));
                (ph, ta || tb)
            }
            ExprKind::Cat(a, b) => {
                if self.nullable(a) {
                    // D_c(L₁ ◦ L₂) with ε ∈ L₁ (Rule 5b names the ∪ node).
                    let ph_alt = self.placeholder(id, tok, true);
                    self.memo_put(id, key, ph_alt);
                    let ph_cat = self.placeholder(id, tok, false);
                    let (da, ta) = self.derive_node_t(a, tok);
                    let (db, tb) = self.derive_node_t(b, tok);
                    let built_cat = self.cat_built(da, b, compact);
                    self.patch(ph_cat, built_cat, ExprKind::Cat(da, b));
                    let second = match self.config.mode {
                        // Recognizer (Figure 2): … ∪ D_c(L₂)
                        ParseMode::Recognize => db,
                        // Parser (Might et al. 2011): … ∪ (δ(L₁) ◦ D_c(L₂))
                        ParseMode::Parse => {
                            let dl = if compact {
                                self.delta(a)
                            } else {
                                let built = self.delta_built(a, false);
                                self.build(built)
                            };
                            let built = self.cat_built(dl, db, compact);
                            self.build(built)
                        }
                    };
                    let built_alt = self.alt_built(ph_cat, second, compact);
                    self.patch(ph_alt, built_alt, ExprKind::Alt(ph_cat, second));
                    (ph_alt, ta || tb)
                } else {
                    // D_c(L₁ ◦ L₂) = D_c(L₁) ◦ L₂ when ε ∉ L₁.
                    let ph = self.placeholder(id, tok, false);
                    self.memo_put(id, key, ph);
                    let (da, ta) = self.derive_node_t(a, tok);
                    let built = self.cat_built(da, b, compact);
                    self.patch(ph, built, ExprKind::Cat(da, b));
                    (ph, ta)
                }
            }
            // D_c(L ↪ f) = D_c(L) ↪ f
            ExprKind::Red(x, f) => {
                let ph = self.placeholder(id, tok, false);
                self.memo_put(id, key, ph);
                let (dx, tx) = self.derive_node_t(x, tok);
                let built = self.red_built(dx, f, compact);
                self.patch(ph, built, ExprKind::Red(dx, f));
                (ph, tx)
            }
            ExprKind::Forward => {
                unreachable!("validate() rejects grammars with undefined nonterminals")
            }
            ExprKind::Pending => {
                unreachable!("derive is never called on a node of the current generation")
            }
            ExprKind::Ref(_) => unreachable!("resolved"),
        };
        if templates {
            self.template_put(id, tok.term(), r, taint);
        }
        (r, taint)
    }

    /// A pending placeholder for a node being derived, named per Definition
    /// 5 when naming is enabled (`bullet` selects Rule 5b vs 5c).
    fn placeholder(&mut self, parent: NodeId, tok: &Token, bullet: bool) -> NodeId {
        let ph = self.alloc(ExprKind::Pending);
        if self.config.naming {
            if let Some(name) = self.names.get(parent).cloned() {
                let new_name =
                    if bullet { name.extend_bullet(tok.key()) } else { name.extend(tok.key()) };
                self.names.assign(ph, new_name);
            }
        }
        ph
    }

    /// The `∅` produced by a derivative: canonical normally, or a fresh
    /// named node under the Definition-5 instrumentation (the paper's
    /// Figure 5 counts `∅` nodes like any other constructed node).
    fn derived_empty(&mut self, parent: NodeId, tok: &Token) -> NodeId {
        if self.config.naming {
            let ph = self.placeholder(parent, tok, false);
            self.patch(ph, crate::compact::Built::New(ExprKind::Empty), ExprKind::Empty);
            ph
        } else {
            self.empty_node()
        }
    }

    /// The `ε` produced by deriving a matching token: carries the token's
    /// leaf forest in parse mode.
    fn derived_eps(&mut self, parent: NodeId, tok: &Token) -> NodeId {
        match self.config.mode {
            ParseMode::Parse => {
                let leaf = pwd_forest::Leaf {
                    kind: self.interner.term_name_arc(tok.term()),
                    text: tok.lexeme.clone(),
                };
                let f = self.forests.alloc(ForestNode::Leaf(leaf));
                let ph = self.placeholder(parent, tok, false);
                self.patch(ph, crate::compact::Built::New(ExprKind::Eps(f)), ExprKind::Eps(f));
                ph
            }
            ParseMode::Recognize => {
                if self.config.naming {
                    let f = self.forest_eps_tree; // canonical ε-tree forest
                    let ph = self.placeholder(parent, tok, false);
                    self.patch(ph, crate::compact::Built::New(ExprKind::Eps(f)), ExprKind::Eps(f));
                    ph
                } else {
                    self.eps_node()
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // parse-null
    // ------------------------------------------------------------------

    /// The null-parse forest of `id`: the ASTs it assigns to the empty word.
    /// Memoized per node; cyclic grammars produce cyclic forests, via the
    /// same placeholder discipline as `derive`.
    pub(crate) fn parse_null(&mut self, id: NodeId) -> ForestId {
        self.metrics.parse_null_calls += 1;
        let id = self.resolve(id);
        if let Some(f) = self.null_parse_get(id) {
            return f;
        }
        if !self.nullable(id) {
            let f = self.forest_nothing; // canonical no-parses forest
            self.null_parse_set(id, f);
            return f;
        }
        match self.node(id).kind {
            ExprKind::Eps(s) => {
                self.null_parse_set(id, s);
                s
            }
            ExprKind::Alt(a, b) => {
                let ph = self.forests.reserve();
                self.null_parse_set(id, ph);
                let pa = self.parse_null(a);
                let pb = self.parse_null(b);
                self.forests.set(ph, ForestNode::Amb(vec![pa, pb]));
                ph
            }
            ExprKind::Cat(a, b) => {
                let ph = self.forests.reserve();
                self.null_parse_set(id, ph);
                let pa = self.parse_null(a);
                let pb = self.parse_null(b);
                self.forests.set(ph, ForestNode::Pair(pa, pb));
                ph
            }
            ExprKind::Red(x, f) => {
                let ph = self.forests.reserve();
                self.null_parse_set(id, ph);
                let px = self.parse_null(x);
                self.forests.set(ph, ForestNode::Map(f, px));
                ph
            }
            ExprKind::Delta(x) => {
                let ph = self.forests.reserve();
                self.null_parse_set(id, ph);
                let px = self.parse_null(x);
                self.forests.set(ph, ForestNode::Amb(vec![px]));
                ph
            }
            // Not nullable, so handled by the guard above.
            ExprKind::Empty | ExprKind::Term(_) => unreachable!("not nullable"),
            ExprKind::Forward | ExprKind::Pending => {
                unreachable!("parse_null runs on a fully patched, validated graph")
            }
            ExprKind::Ref(_) => unreachable!("resolved"),
        }
    }

    // ------------------------------------------------------------------
    // Definition-5 naming support
    // ------------------------------------------------------------------

    /// Rule 5a: gives every node reachable from `root` a fresh base symbol.
    pub(crate) fn assign_initial_names(&mut self, root: NodeId) {
        let mut stack = vec![root];
        let mut seen = vec![false; self.nodes.len()];
        while let Some(id) = stack.pop() {
            let id = self.resolve(id);
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            if !self.names.has_base(id) {
                let label = self
                    .label(id)
                    .map(str::to_owned)
                    .unwrap_or_else(|| format!("N{}", self.names.base_count()));
                self.names.assign_base(id, label);
            }
            match self.node(id).kind {
                ExprKind::Alt(a, b) | ExprKind::Cat(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
                ExprKind::Red(x, _) | ExprKind::Delta(x) => stack.push(x),
                _ => {}
            }
        }
    }

    /// Renders the Definition-5 name of a node, e.g. `Mc1•c2c3`.
    pub fn node_name(&self, id: NodeId) -> Option<String> {
        let name = self.names.get(id)?;
        Some(self.names.render(name, |k| self.interner.token_by_key(k).lexeme().to_string()))
    }

    /// Definition-5 statistics over every named node: `(named_nodes,
    /// distinct_names, max_bullets_per_name)`.
    pub fn name_stats(&self) -> (usize, usize, usize) {
        let mut distinct = std::collections::HashSet::new();
        let mut max_bullets = 0;
        let mut total = 0;
        for (_, name) in self.names.iter() {
            total += 1;
            max_bullets = max_bullets.max(name.bullets());
            distinct.insert((name.base, name.syms.clone(), name.bullet));
        }
        (total, distinct.len(), max_bullets)
    }

    /// All rendered node names (diagnostics and the Figure-5 regenerator).
    pub fn all_node_names(&self) -> Vec<(NodeId, String)> {
        let mut out: Vec<(NodeId, String)> = self
            .names
            .iter()
            .map(|(id, name)| {
                (
                    *id,
                    self.names.render(name, |k| self.interner.token_by_key(k).lexeme().to_string()),
                )
            })
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }
}
