//! Incremental parsing sessions: the engine's one per-token loop.
//!
//! PWD's outer loop is naturally *incremental*: the parser state after `k`
//! tokens is just the derivative `D_{t1…tk}(L)`, a first-class language. A
//! [`SessionState`] exposes that loop one token at a time — feed tokens as
//! they arrive (e.g. from a REPL), query acceptance of the prefix so far,
//! inspect per-token costs, and extract a forest whenever the prefix is a
//! sentence. The paper's §3.1 `parse` is exactly `start; feed*; parse-null`,
//! and the batch entry points ([`Language::recognize`],
//! [`Language::parse_forest`], [`Language::derivative`]) are that sequence
//! over a `SessionState`: [`SessionState::feed`] is the only code that
//! steps the derivative by a token.
//!
//! Because the state after `k` tokens *is* a language (a [`NodeId`]), a
//! session is also **checkpointable**: [`SessionState::checkpoint`] saves
//! the current derivative node, and [`SessionState::rollback`] restores it.
//! Nothing is copied — the derivative graph is append-only within a parse
//! (compaction rewrites are semantics-preserving, and emptiness pruning only
//! collapses provably-empty nodes), so an earlier derivative stays valid
//! however far the session has advanced past it. Rollback therefore composes
//! with the epoch-stamped memo/nullability state and the never-evicted
//! class-template rows for free: all of it is keyed by node, and the nodes
//! survive.
//!
//! A `SessionState` owns no borrow of the [`Language`]; every method takes
//! `&mut Language` explicitly. That is the shape long-lived holders such as
//! pooled service sessions and API backends need: they own the session
//! state alongside the engine instead of borrowing it for the whole session
//! lifetime.

use crate::config::CompactionMode;
use crate::error::PwdError;
use crate::expr::{Language, NodeId};
use crate::token::Token;
use pwd_forest::ForestId;

/// A saved session position: the derivative node after `k` tokens.
///
/// The paper's central observation made operational — the parser state after
/// a prefix *is* the language `D_{t1…tk}(L)`, so saving it is saving one
/// `NodeId`. A checkpoint is valid for the session (and epoch) it was taken
/// in: [`Language::reset`] discards derived nodes, so checkpoints never
/// outlive their session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionCheckpoint {
    current: NodeId,
    fed: usize,
    dead: bool,
}

impl SessionCheckpoint {
    /// Number of tokens fed when this checkpoint was taken.
    pub fn tokens_fed(&self) -> usize {
        self.fed
    }

    /// The same saved derivative state re-stamped at a different position —
    /// the edit-splicing re-anchor primitive (the checkpoint analogue of
    /// [`SessionState::set_tokens_fed`]). Sound only when the caller has
    /// proved the state at `fed` on the current timeline equals this saved
    /// state (equal [`StateSignature`](crate::StateSignature)s at an
    /// aligned position, plus an identical suffix up to `fed`).
    pub fn at_position(&self, fed: usize) -> SessionCheckpoint {
        SessionCheckpoint { fed, ..*self }
    }
}

/// An incremental parse over a [`Language`]: the derivative after the
/// tokens fed so far.
///
/// # Examples
///
/// ```
/// use pwd_core::{Language, SessionState};
///
/// # fn main() -> Result<(), pwd_core::PwdError> {
/// let mut lang = Language::default();
/// let a = lang.terminal("a");
/// let ta = lang.term_node(a);
/// let s = lang.star(ta);
/// let tok = lang.token(a, "a");
///
/// let mut session = SessionState::start(&mut lang, s)?;
/// assert!(session.prefix_is_sentence(&mut lang)); // ε ∈ a*
/// assert!(session.feed(&mut lang, &tok)?); // still viable
/// assert!(session.feed(&mut lang, &tok)?);
/// assert!(session.prefix_is_sentence(&mut lang));
/// assert_eq!(session.tokens_fed(), 2);
/// session.finish(&mut lang);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SessionState {
    current: NodeId,
    fed: usize,
    dead: bool,
    pruning: bool,
}

impl SessionState {
    /// Starts a session at the given start node, running the once-per-parse
    /// set-up: the §4.3.1 prepass, Definition-5 base names (when naming is
    /// on) and the productivity pass over the nodes above the productivity
    /// watermark. An initial-grammar start node is validated on its first
    /// start only, so neither step grows with the automaton state that
    /// survives [`Language::reset`].
    ///
    /// # Errors
    ///
    /// [`PwdError::UndefinedNonterminal`] for incomplete grammars.
    pub fn start(lang: &mut Language, start: NodeId) -> Result<SessionState, PwdError> {
        if !lang.validated.contains(&start) {
            lang.validate(start)?;
            // Only initial-grammar nodes keep their graph across resets
            // (derived ids are reused after truncation).
            if lang.initial_nodes.is_none_or(|n| start.index() < n) {
                lang.validated.push(start);
            }
        }
        lang.in_parse = false;
        let mut current = start;
        // §4.3.1: apply the right-child rules (and the rest of the rule set)
        // to the initial grammar once — cached, and run *before* the initial
        // boundary is recorded so the compacted copy persists across resets.
        if lang.config.prepass_right_children && lang.config.compaction != CompactionMode::None {
            current = lang.prepass_root(current);
        }
        lang.mark_initial();
        if lang.config.naming {
            lang.assign_initial_names(current);
        }
        let pruning = lang.config.compaction != CompactionMode::None;
        if pruning {
            // Settle productivity for the initial grammar (and prepass
            // output) before the per-token passes build on it. Everything
            // below the watermark — retained automaton states included — is
            // settled already.
            debug_assert!(lang.watermark_holds(), "a node below the watermark is unsettled");
            lang.prune_empty(lang.settled);
        }
        lang.in_parse = true;
        if lang.automaton_active() {
            // Intern the start node so a warm transition table serves this
            // session from its very first feed.
            let _ = lang.auto_intern(current);
        }
        Ok(SessionState { current, fed: 0, dead: false, pruning })
    }

    /// Feeds one token, advancing the derivative. Returns whether some
    /// continuation can still reach a sentence (`false` = dead).
    ///
    /// Feeding pays for no sentence-hood probe; ask
    /// [`prefix_is_sentence`](SessionState::prefix_is_sentence) when the
    /// answer is wanted.
    ///
    /// # Errors
    ///
    /// [`PwdError::NodeBudgetExceeded`] if the node budget trips. Feeding a
    /// token that kills the language is *not* an error; it returns
    /// `Ok(false)` (and further feeds stay dead).
    pub fn feed(&mut self, lang: &mut Language, tok: &Token) -> Result<bool, PwdError> {
        debug_assert_eq!(
            tok.lexeme(),
            lang.interner.token_by_key(tok.key()).lexeme(),
            "token was interned by a different Language"
        );
        if self.dead {
            self.fed += 1;
            return Ok(false);
        }
        // Tier three: when the current derivative is an interned automaton
        // state with an explored row entry for this terminal, the feed is a
        // table lookup — no derive, no memo probe, no allocation. The state
        // mapping lives on the node, so this composes with checkpoint and
        // rollback for free (a checkpoint is still just a `NodeId`).
        let auto_active = lang.automaton_active();
        let prev_state = if auto_active { lang.auto_state_of(self.current) } else { None };
        if let Some(st) = prev_state {
            if let Some((next, dead)) = lang.auto_try_step(st, tok.term()) {
                self.fed += 1;
                self.current = next;
                self.dead = dead;
                return Ok(!dead);
            }
        }
        let generation_start = lang.nodes.len();
        let span = lang.obs_start();
        self.current = lang.derive_node(self.current, tok);
        lang.obs_end(pwd_obs::Phase::Derive, span);
        if lang.config.compaction == CompactionMode::SeparatePass {
            let span = lang.obs_start();
            self.current = lang.compact_pass(self.current);
            lang.obs_end(pwd_obs::Phase::Compact, span);
        }
        if self.pruning {
            let span = lang.obs_start();
            lang.prune_empty(generation_start);
            lang.obs_end(pwd_obs::Phase::Compact, span);
        }
        self.fed += 1;
        if lang.budget_hit {
            lang.in_parse = false;
            self.dead = true; // the arena overflowed; the session is over
            return Err(PwdError::NodeBudgetExceeded {
                limit: lang.config.max_nodes.unwrap_or(0),
                at_token: self.fed - 1,
            });
        }
        if auto_active {
            // Interpreted feed under an active automaton: intern the fresh
            // derivative (post-prune, so its structure is final), record the
            // explored transition, and canonicalize onto the state's root so
            // the next step reuses its caches.
            lang.metrics.auto_fallbacks += 1;
            let ns = lang.auto_intern(self.current);
            if let (Some(from), Some(to)) = (prev_state, ns) {
                lang.auto_record(from, tok.term(), to);
            }
            if let Some(ns) = ns {
                self.current = lang.auto.roots[ns as usize];
            }
        }
        self.dead = lang.is_empty_node(self.current);
        Ok(!self.dead)
    }

    /// Saves the current position: one `NodeId`, no state is copied.
    ///
    /// The checkpoint composes with the engine's sharing machinery because
    /// everything a resumed parse will consult — derive memos, nullability
    /// values, class-template rows — is keyed by node and epoch, and both
    /// survive: rollback neither bumps the epoch nor removes nodes.
    pub fn checkpoint(&self) -> SessionCheckpoint {
        SessionCheckpoint { current: self.current, fed: self.fed, dead: self.dead }
    }

    /// Restores a position saved by [`checkpoint`](SessionState::checkpoint)
    /// earlier in **this** session.
    ///
    /// O(1): the derivative graph is append-only within a parse, so the
    /// saved node is still valid; nodes derived after the checkpoint become
    /// garbage (reclaimed by the next [`Language::reset`]) but stay inert.
    /// Rollback cannot recover from a tripped node budget — the arena is
    /// still full, so the next feed re-reports the budget error.
    pub fn rollback(&mut self, cp: &SessionCheckpoint) {
        self.current = cp.current;
        self.fed = cp.fed;
        self.dead = cp.dead;
    }

    /// Overrides the fed-token count without touching the derivative.
    ///
    /// The re-alignment primitive under edit splicing: when an edit changes
    /// the prefix *length* but a memoized pre-edit state is known to carry
    /// the same language (equal
    /// [`StateSignature`](crate::StateSignature)s), the restored state's
    /// position is re-stamped to the post-edit token count.
    pub fn set_tokens_fed(&mut self, fed: usize) {
        self.fed = fed;
    }

    /// Is the prefix fed so far a complete sentence? O(1) when the current
    /// derivative is an interned automaton state with a cached accept bit.
    pub fn prefix_is_sentence(&self, lang: &mut Language) -> bool {
        !self.dead && lang.accept_of(self.current)
    }

    /// Can any continuation still reach a sentence?
    pub fn is_viable(&self) -> bool {
        !self.dead
    }

    /// Number of tokens fed (including any fed after death).
    pub fn tokens_fed(&self) -> usize {
        self.fed
    }

    /// The current derivative language `D_{t1…tk}(L)` as a node — usable
    /// with every `Language` API (even as the start of further parses).
    pub fn current(&self) -> NodeId {
        self.current
    }

    /// Extracts the forest of parses of the prefix fed so far.
    ///
    /// # Errors
    ///
    /// [`PwdError::Rejected`] if the prefix is not a sentence.
    pub fn forest(&self, lang: &mut Language) -> Result<ForestId, PwdError> {
        if !self.prefix_is_sentence(lang) {
            return Err(PwdError::Rejected { position: self.fed, token: None });
        }
        let span = lang.obs_start();
        let forest = lang.parse_null(self.current);
        lang.obs_end(pwd_obs::Phase::Forest, span);
        Ok(forest)
    }

    /// Number of nodes reachable from the current derivative — the live
    /// parser state size (stays bounded for LL-ish prefixes thanks to
    /// compaction and emptiness pruning).
    pub fn live_nodes(&self, lang: &Language) -> usize {
        lang.reachable_count(self.current)
    }

    /// Ends the session, returning the final derivative node.
    pub fn finish(self, lang: &mut Language) -> NodeId {
        lang.in_parse = false;
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParserConfig;
    use pwd_forest::EnumLimits;

    fn ab_language() -> (Language, NodeId, Token, Token) {
        // S = a b | a S b  (matched pairs a^n b^n)
        let mut lang = Language::new(ParserConfig::improved());
        let a = lang.terminal("a");
        let b = lang.terminal("b");
        let (ta, tb) = (lang.term_node(a), lang.term_node(b));
        let s = lang.forward();
        let ab = lang.cat(ta, tb);
        let asb = lang.seq(&[ta, s, tb]);
        let body = lang.alt(ab, asb);
        lang.define(s, body);
        let tok_a = lang.token(a, "a");
        let tok_b = lang.token(b, "b");
        (lang, s, tok_a, tok_b)
    }

    #[test]
    fn incremental_matched_pairs() {
        let (mut lang, s, a, b) = ab_language();
        let mut sess = SessionState::start(&mut lang, s).unwrap();
        assert!(!sess.prefix_is_sentence(&mut lang));
        let mut sentence = Vec::new();
        for t in [&a, &a, &b, &b] {
            assert!(sess.feed(&mut lang, t).unwrap(), "aabb stays viable");
            sentence.push(sess.prefix_is_sentence(&mut lang));
        }
        assert_eq!(sentence, [false, false, false, true]);
        // aabb is a sentence; the forest is extractable mid-session.
        let f = sess.forest(&mut lang).unwrap();
        let _ = sess.finish(&mut lang);
        let trees = lang.trees_of(f, EnumLimits::default());
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].fringe(), vec!["a", "a", "b", "b"]);
    }

    #[test]
    fn death_is_detected_and_sticky() {
        let (mut lang, s, a, b) = ab_language();
        let mut sess = SessionState::start(&mut lang, s).unwrap();
        assert!(!sess.feed(&mut lang, &b).unwrap()); // no sentence starts with b
        assert!(!sess.is_viable());
        assert!(!sess.feed(&mut lang, &a).unwrap());
        assert!(sess.forest(&mut lang).is_err());
        assert_eq!(sess.tokens_fed(), 2);
    }

    #[test]
    fn session_agrees_with_batch_parse() {
        let (mut lang, s, a, b) = ab_language();
        let inputs: Vec<Vec<&Token>> =
            vec![vec![&a, &b], vec![&a, &a, &b, &b], vec![&a, &b, &b], vec![&a, &a], vec![]];
        for input in inputs {
            let toks: Vec<Token> = input.iter().map(|t| (*t).clone()).collect();
            lang.reset();
            let batch = lang.recognize(s, &toks).unwrap();
            lang.reset();
            let mut sess = SessionState::start(&mut lang, s).unwrap();
            for t in &toks {
                let _ = sess.feed(&mut lang, t).unwrap();
            }
            let incremental = sess.prefix_is_sentence(&mut lang);
            sess.finish(&mut lang);
            assert_eq!(batch, incremental, "{toks:?}");
        }
    }

    #[test]
    fn current_derivative_is_a_first_class_language() {
        let (mut lang, s, a, b) = ab_language();
        let mut sess = SessionState::start(&mut lang, s).unwrap();
        sess.feed(&mut lang, &a).unwrap();
        sess.feed(&mut lang, &a).unwrap();
        let d = sess.finish(&mut lang);
        // After "aa", the remaining language is exactly { b b, a^k b^(k+2) }…
        // check two members and a non-member.
        assert!(lang.recognize(d, &[b.clone(), b.clone()]).unwrap());
        assert!(lang.recognize(d, &[a.clone(), b.clone(), b.clone(), b.clone()]).unwrap());
        lang.reset();
        // reset() drops derived nodes, so re-derive for the negative case.
        let d = lang.derivative(s, &[a.clone(), a.clone()]).unwrap();
        assert!(!lang.recognize(d, std::slice::from_ref(&b)).unwrap());
    }

    #[test]
    fn checkpoint_rollback_replays_exactly() {
        let (mut lang, s, a, b) = ab_language();
        let mut sess = SessionState::start(&mut lang, s).unwrap();
        sess.feed(&mut lang, &a).unwrap();
        sess.feed(&mut lang, &a).unwrap();
        let cp = sess.checkpoint();
        assert_eq!(cp.tokens_fed(), 2);
        // Speculate down a doomed path…
        for t in [&a, &b, &a] {
            sess.feed(&mut lang, t).unwrap(); // aaba… dead
        }
        assert!(!sess.is_viable());
        // …and rewind: the saved derivative is still the language after aa.
        sess.rollback(&cp);
        assert!(sess.is_viable());
        assert_eq!(sess.tokens_fed(), 2);
        assert!(!sess.prefix_is_sentence(&mut lang));
        sess.feed(&mut lang, &b).unwrap();
        sess.feed(&mut lang, &b).unwrap();
        assert!(sess.prefix_is_sentence(&mut lang), "aa + bb is a sentence after rollback");
        let f = sess.forest(&mut lang).unwrap();
        let _ = sess.finish(&mut lang);
        let trees = lang.trees_of(f, EnumLimits::default());
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].fringe(), vec!["a", "a", "b", "b"]);
    }

    #[test]
    fn rollback_out_of_death_is_sound() {
        let (mut lang, s, a, b) = ab_language();
        let mut sess = SessionState::start(&mut lang, s).unwrap();
        let cp0 = sess.checkpoint();
        sess.feed(&mut lang, &b).unwrap(); // dead immediately
        assert!(!sess.is_viable());
        sess.rollback(&cp0);
        assert!(sess.is_viable());
        assert!(sess.feed(&mut lang, &a).unwrap());
        assert!(!sess.prefix_is_sentence(&mut lang));
        assert!(sess.feed(&mut lang, &b).unwrap());
        assert!(sess.prefix_is_sentence(&mut lang));
    }

    #[test]
    fn nested_checkpoints_restore_in_any_order() {
        let (mut lang, s, a, b) = ab_language();
        let mut sess = SessionState::start(&mut lang, s).unwrap();
        sess.feed(&mut lang, &a).unwrap();
        let cp1 = sess.checkpoint();
        sess.feed(&mut lang, &a).unwrap();
        let cp2 = sess.checkpoint();
        sess.feed(&mut lang, &b).unwrap();
        // Roll past cp2 down to cp1, then forward again to cp2: both nodes
        // remain valid because the graph is append-only within a parse.
        sess.rollback(&cp1);
        assert_eq!(sess.tokens_fed(), 1);
        sess.rollback(&cp2);
        assert_eq!(sess.tokens_fed(), 2);
        sess.feed(&mut lang, &b).unwrap();
        sess.feed(&mut lang, &b).unwrap();
        assert!(sess.prefix_is_sentence(&mut lang));
    }

    #[test]
    fn ownable_session_state_drives_without_borrowing() {
        // The holder owns the state, the language is passed per call — the
        // shape pooled service sessions use.
        let (mut lang, s, a, b) = ab_language();
        let mut st = SessionState::start(&mut lang, s).unwrap();
        st.feed(&mut lang, &a).unwrap();
        let cp = st.checkpoint();
        st.feed(&mut lang, &a).unwrap();
        st.rollback(&cp);
        st.feed(&mut lang, &b).unwrap();
        assert!(st.prefix_is_sentence(&mut lang));
        let d = st.finish(&mut lang);
        assert!(lang.nullable(d));
    }

    #[test]
    fn budget_error_reports_token_index() {
        let (mut lang, s, a, b) = ab_language();
        lang.config.max_nodes = Some(lang.node_count() + 4);
        let mut sess = SessionState::start(&mut lang, s).unwrap();
        let mut hit = None;
        for (i, t) in [&a, &a, &a, &a, &b, &b].iter().enumerate() {
            match sess.feed(&mut lang, t) {
                Ok(_) => {}
                Err(PwdError::NodeBudgetExceeded { at_token, .. }) => {
                    hit = Some((i, at_token));
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        let (i, at) = hit.expect("budget must trip");
        assert_eq!(i, at);
    }
}
