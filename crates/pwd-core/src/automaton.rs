//! The lazy derivative automaton: tier three of the derive cache.
//!
//! # Why a third tier
//!
//! Tier one memoizes `derive` by token value (§4.4); tier two keys it by
//! terminal class, making recognize-mode derivatives lexeme-independent.
//! Both still *walk the derivative graph* for every token: even an all-hit
//! token costs one memo probe per visited node. Worse, the graph nodes a
//! parse flows through do not recur — each token's derivative is a fresh
//! root — so per-node caches alone can never turn the outer loop into a
//! constant-time step.
//!
//! What recurs is *structure*: on real inputs the live derivative settles
//! into a small set of shapes (one per "parser mode" the grammar can be in,
//! LR-state-like), revisited over and over with different node identities.
//! This module interns those shapes. Every derivative root is canonicalized
//! by a structural signature (a canonical DFS of its reachable subgraph);
//! isomorphic roots map to one **state**, and each state owns a dense
//! `TermId → state` transition row plus a cached nullability bit. Once the
//! reachable states are explored, the recognize loop is
//! `state = row[term]` — zero graph construction, memo probes, or hashing —
//! exactly the step `pwd-regex` takes from `deriv.rs` (derivatives
//! interpreted) to `dfa.rs` (derivatives compiled).
//!
//! # Soundness
//!
//! Two facts carry the construction:
//!
//! 1. **Frozen structure.** Within a parse epoch the graph is append-only
//!    below the current token's generation: placeholder patching and
//!    emptiness pruning only rewrite nodes of the generation being built
//!    (and `reset()` preserves interned roots across epochs — their
//!    productivity marks are settled, so the start-of-parse prune pass never
//!    touches them again). States are interned at end-of-step, after the
//!    pruning pass, so a state's signature can never go stale.
//! 2. **Isomorphism ⇒ same language.** The signature ignores exactly the
//!    payloads that cannot affect a recognize-mode verdict: `ε` forests
//!    (every `ε_s` accepts the empty word) and reduction functions (`L ↪ f`
//!    and `L` accept the same strings). Structurally isomorphic roots
//!    therefore denote the same language, so jumping the walk to a state's
//!    canonical root preserves every verdict, reject position, and
//!    per-feed viability answer — byte-identically.
//!
//! The automaton only engages under the class-keyed recognize gate
//! ([`AutomatonMode`]'s docs spell it out); everywhere else the axis is
//! inert.
//!
//! # Budget and fallback
//!
//! Rows are built lazily and capped by
//! [`ParserConfig::automaton_max_rows`](crate::ParserConfig::automaton_max_rows).
//! At the cap the automaton freezes: existing rows keep serving table hits,
//! unexplored transitions fall back to the interpreted class-keyed path
//! (counted in [`Metrics::auto_fallbacks`](crate::Metrics::auto_fallbacks)),
//! and the walk re-enters the table whenever a memo hit lands it back on an
//! already-interned node. Freezing loses speed, never answers.

use crate::config::AutomatonMode;
use crate::expr::{ExprKind, Language, NodeId, NO_LINK};
use crate::token::TermId;
use std::collections::HashMap;

/// Sentinel for an unexplored transition-row slot.
const UNEXPLORED: u32 = u32::MAX;

/// State flag bits.
const F_DEAD: u8 = 1 << 0;
const F_ACCEPT_KNOWN: u8 = 1 << 1;
const F_ACCEPT: u8 = 1 << 2;

/// Signature-stream marker for a back-reference to an already-visited node
/// (high bit set; the low bits carry the visit index).
const SIG_BACKREF: u32 = 1 << 31;

/// The lazy automaton layer of a [`Language`]: interned derivative states,
/// their dense transition rows, and cached accept bits.
///
/// Everything here is a language-level fact about immortal nodes (interned
/// roots survive `reset()`), so nothing is epoch-stamped: the automaton —
/// and every row already built — stays warm across parses, sessions, and
/// pooled-service checkouts of the same engine.
#[derive(Debug, Clone, Default)]
pub(crate) struct Automaton {
    /// Canonical root node of each state (index = state id).
    pub(crate) roots: Vec<NodeId>,
    /// Per-state flag bits (`F_DEAD`, `F_ACCEPT_KNOWN`, `F_ACCEPT`).
    flags: Vec<u8>,
    /// Dense transition rows, `stride` entries per state, indexed by
    /// `TermId`; `UNEXPLORED` marks a transition not yet taken.
    trans: Vec<u32>,
    /// Row width: the terminal count when the first state was interned
    /// (terminals interned later simply never table-walk).
    stride: usize,
    /// Canonical signature stream of each state, for exact collision checks.
    sigs: Vec<Box<[u32]>>,
    /// Signature hash → candidate states.
    intern: HashMap<u64, Vec<u32>>,
    /// Node-arena length at the last intern; [`Language::reset`] truncates
    /// to at least this, keeping every canonical root *and its reachable
    /// subgraph* (allocated after the root, placeholder-then-patch) alive.
    pub(crate) boundary: usize,
    /// Forest-arena high-water mark at the last intern; retained alongside
    /// the node boundary so no surviving node can reference a dead forest.
    pub(crate) forest_boundary: usize,
    /// The row budget tripped: serve existing rows, intern nothing new.
    frozen: bool,
    /// Scratch buffer for signature streams (reused across interns).
    scratch: Vec<u32>,
    /// The state each node is interned as, indexed by node (`NO_LINK` for
    /// none) and grown only as far as the highest interned node, so the
    /// per-token lookup stays one array read. Not epoch-stamped: state
    /// identity is a structural fact, and interned roots survive
    /// [`Language::reset`] (the automaton boundary keeps them alive), so the
    /// mapping stays warm across parses. A node isomorphic to an existing
    /// state is mapped without moving the boundary, so `reset` truncates
    /// this table with the arena. Cleared for one node by
    /// [`Language::invalidate_parse_state`] on the rare in-place kind
    /// rewrite.
    pub(crate) node_states: Vec<u32>,
    /// Digest cache for [`Language::state_signature`]'s interpreted path,
    /// keyed by resolved node id. Sound because a node's *language* never
    /// changes in place during a parse (kind rewrites are language-
    /// preserving pruning/merging), so a cached digest keeps witnessing
    /// language equality; cleared on arena truncation ([`Language::reset`])
    /// where node ids are reused, and on any in-place kind rewrite, where
    /// ancestors' streams go structurally stale (a missed-convergence cost,
    /// but cheap to rule out entirely since rewrites are rare).
    pub(crate) digests: HashMap<u32, (u64, u32)>,
}

impl Automaton {
    fn step(&self, state: u32, term: TermId) -> Option<u32> {
        if term.index() >= self.stride {
            return None;
        }
        let t = self.trans[state as usize * self.stride + term.index()];
        (t != UNEXPLORED).then_some(t)
    }

    fn dead(&self, state: u32) -> bool {
        self.flags[state as usize] & F_DEAD != 0
    }

    /// Number of explored (non-sentinel) transition entries.
    fn explored(&self) -> usize {
        self.trans.iter().filter(|&&t| t != UNEXPLORED).count()
    }

    /// The state node `id` (already resolved) is interned as.
    #[inline]
    fn state_of(&self, id: NodeId) -> Option<u32> {
        self.node_states.get(id.index()).copied().filter(|&st| st != NO_LINK)
    }

    fn set_state(&mut self, id: NodeId, st: u32) {
        let i = id.index();
        if self.node_states.len() <= i {
            self.node_states.resize(i + 1, NO_LINK);
        }
        self.node_states[i] = st;
    }

    /// Unmaps node `id`, returning the state it was interned as.
    pub(crate) fn take_state(&mut self, id: NodeId) -> Option<u32> {
        let slot = self.node_states.get_mut(id.index())?;
        Some(std::mem::replace(slot, NO_LINK)).filter(|&st| st != NO_LINK)
    }
}

/// A public snapshot of the automaton layer: how many states exist, how full
/// their rows are, and whether the budget froze construction. The
/// diagnostic surface behind `probe --automaton` and the serve-layer
/// table-hit reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct AutomatonStats {
    /// States interned (= transition rows built).
    pub states: usize,
    /// Width of each row (terminal count at first intern).
    pub stride: usize,
    /// Explored transition entries across all rows.
    pub explored_transitions: usize,
    /// States whose accept (nullability) bit has been computed and cached.
    pub accept_cached: usize,
    /// States that are the dead (`∅`) language.
    pub dead_states: usize,
    /// Did construction hit `automaton_max_rows` and freeze?
    pub frozen: bool,
}

impl AutomatonStats {
    /// Fraction of row slots explored, in `[0, 1]` (0 with no states).
    pub fn occupancy(&self) -> f64 {
        let slots = self.states * self.stride;
        if slots == 0 {
            0.0
        } else {
            self.explored_transitions as f64 / slots as f64
        }
    }
}

/// A comparable identity of a derivative state, for detecting that two
/// parse positions carry the *same language* — the convergence test behind
/// incremental edit splicing (equal signatures at the same token alignment
/// mean the suffix refeed can stop early).
///
/// Two representations, never equal across each other:
///
/// - [`State`](StateSignature::State): the interned automaton state id —
///   exact (interning is backed by a full canonical-stream comparison) and
///   `O(1)` to obtain when the lazy automaton is active and the node is
///   interned.
/// - [`Digest`](StateSignature::Digest): the 64-bit FNV-1a hash of the
///   node's canonical signature stream plus the stream length. Equal
///   digests are equal languages up to a ~2⁻⁶⁴ hash collision; callers use
///   this as a *fast path*, never as the source of truth for verdicts (a
///   wrong jump is caught by nothing, so the risk budget is the same one
///   already accepted for the automaton's intern hash pre-filter — which
///   additionally verifies streams; here the stream-length check narrows
///   collisions to same-length streams).
///
/// Mixed representations across an edit (one side interned, the other not)
/// simply never compare equal — a lost fast-path opportunity, never an
/// unsoundness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateSignature {
    /// An interned lazy-automaton state id (exact).
    State(u32),
    /// FNV-1a digest of the canonical signature stream, plus stream length.
    Digest(u64, u32),
}

impl Language {
    /// Is the lazy automaton engaged for this configuration? Exactly the
    /// class-keyed recognize gate: derivatives must be lexeme-independent
    /// (class keying, recognize mode) and anonymous (naming embeds token
    /// values into nodes, breaking structural recurrence).
    #[inline]
    pub(crate) fn automaton_active(&self) -> bool {
        self.config.automaton == AutomatonMode::Lazy && self.config.class_keyed()
    }

    /// The interned state a node (after `Ref` resolution) is known to belong
    /// to, if any.
    #[inline]
    pub(crate) fn auto_state_of(&self, id: NodeId) -> Option<u32> {
        self.auto.state_of(self.resolve(id))
    }

    /// One table-walk step: the cached transition of `state` by `term`, as
    /// `(canonical next root, next is dead)`. `None` is a miss (unexplored
    /// edge, or a terminal wider than the rows) — the caller runs the
    /// interpreted path and records the result.
    #[inline]
    pub(crate) fn auto_try_step(&mut self, state: u32, term: TermId) -> Option<(NodeId, bool)> {
        let ns = self.auto.step(state, term)?;
        self.metrics.auto_table_hits += 1;
        Some((self.auto.roots[ns as usize], self.auto.dead(ns)))
    }

    /// Interns the derivative rooted at `id` as an automaton state,
    /// returning its id — an existing state when an isomorphic root was
    /// interned before, a fresh state (and transition row) otherwise, or
    /// `None` once the row budget has frozen construction.
    ///
    /// Must be called at end-of-step only (after the token's pruning pass),
    /// when the root's reachable subgraph is final for this epoch.
    pub(crate) fn auto_intern(&mut self, id: NodeId) -> Option<u32> {
        let id = self.resolve(id);
        if let Some(st) = self.auto_state_of(id) {
            return Some(st);
        }
        if self.auto.frozen {
            return None;
        }
        if self.auto.stride == 0 {
            // First intern fixes the row width. A grammar with no terminals
            // never takes a token step, so rows would be useless anyway.
            let terms = self.interner.term_count();
            if terms == 0 {
                return None;
            }
            self.auto.stride = terms;
        }
        let span = self.obs_start();
        let hash = self.auto_signature(id);
        // Exact collision check: candidate states under this hash must match
        // the canonical stream, not just the 64-bit digest.
        let mut found = None;
        if let Some(cands) = self.auto.intern.get(&hash) {
            for &cand in cands {
                if *self.auto.sigs[cand as usize] == self.auto.scratch[..] {
                    found = Some(cand);
                    break;
                }
            }
        }
        if let Some(st) = found {
            self.auto.set_state(id, st);
            self.obs_end(pwd_obs::Phase::AutoRow, span);
            return Some(st);
        }
        if self.auto.roots.len() >= self.config.automaton_max_rows {
            self.auto.frozen = true;
            self.obs_end(pwd_obs::Phase::AutoRow, span);
            return None;
        }
        let st = self.auto.roots.len() as u32;
        let dead = matches!(self.node(id).kind, ExprKind::Empty);
        // A dead state never accepts, so its bit is known at birth.
        let flags = if dead { F_DEAD | F_ACCEPT_KNOWN } else { 0 };
        self.auto.roots.push(id);
        self.auto.flags.push(flags);
        self.auto.sigs.push(self.auto.scratch.clone().into_boxed_slice());
        self.auto.trans.extend(std::iter::repeat_n(UNEXPLORED, self.auto.stride));
        self.auto.intern.entry(hash).or_default().push(st);
        // The root is allocated *first* in its generation (placeholder-then-
        // patch), so its reachable subgraph sits at higher indices — the
        // boundary must cover the whole arena as of now, not just the root.
        self.auto.boundary = self.auto.boundary.max(self.nodes.len());
        self.auto.forest_boundary = self.auto.forest_boundary.max(self.forests.len());
        self.auto.set_state(id, st);
        self.metrics.auto_rows_built += 1;
        self.obs_end(pwd_obs::Phase::AutoRow, span);
        Some(st)
    }

    /// Records the explored transition `from --term--> to`.
    #[inline]
    pub(crate) fn auto_record(&mut self, from: u32, term: TermId, to: u32) {
        if term.index() < self.auto.stride {
            self.auto.trans[from as usize * self.auto.stride + term.index()] = to;
        }
    }

    /// The accept (nullability) bit of a state: computed once per state via
    /// the ordinary `nullable?` fixed point, O(1) ever after. Nullability is
    /// a pure function of the root's frozen structure, so the cached bit is
    /// valid for the lifetime of the state — across parses and resets.
    pub(crate) fn auto_accept(&mut self, state: u32) -> bool {
        let f = self.auto.flags[state as usize];
        if f & F_ACCEPT_KNOWN != 0 {
            return f & F_ACCEPT != 0;
        }
        let root = self.auto.roots[state as usize];
        let accept = self.nullable(root);
        self.auto.flags[state as usize] |= F_ACCEPT_KNOWN | if accept { F_ACCEPT } else { 0 };
        accept
    }

    /// The accept verdict of a final derivative node, via the state cache
    /// when the node is an interned state, via `nullable?` otherwise.
    #[inline]
    pub(crate) fn accept_of(&mut self, id: NodeId) -> bool {
        if self.automaton_active() {
            if let Some(st) = self.auto_state_of(id) {
                return self.auto_accept(st);
            }
        }
        self.nullable(id)
    }

    /// Canonical signature of the subgraph reachable from `id`, written to
    /// `self.auto.scratch`; returns its 64-bit FNV-1a digest.
    ///
    /// The stream is a pre-order DFS with back-references: first visit of a
    /// node emits its kind tag (plus `TermId` payload for terminals),
    /// revisits emit the node's visit index. `ε` forests and reduction
    /// functions are deliberately *not* emitted — they cannot affect a
    /// recognize verdict — so states merge across those payloads. Two roots
    /// produce equal streams iff their reachable graphs are isomorphic as
    /// ordered, shared-structure-preserving graphs, which implies equal
    /// languages.
    fn auto_signature(&mut self, id: NodeId) -> u64 {
        let mut scratch = std::mem::take(&mut self.auto.scratch);
        scratch.clear();
        let mut index: HashMap<u32, u32> = HashMap::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let n = self.resolve(n);
            if let Some(&i) = index.get(&n.0) {
                scratch.push(SIG_BACKREF | i);
                continue;
            }
            index.insert(n.0, index.len() as u32);
            match &self.node(n).kind {
                ExprKind::Empty => scratch.push(1),
                ExprKind::Eps(_) => scratch.push(2),
                ExprKind::Term(t) => {
                    scratch.push(3);
                    scratch.push(t.index() as u32);
                }
                ExprKind::Alt(a, b) => {
                    scratch.push(4);
                    stack.push(*b);
                    stack.push(*a);
                }
                ExprKind::Cat(a, b) => {
                    scratch.push(5);
                    stack.push(*b);
                    stack.push(*a);
                }
                ExprKind::Red(x, _) => {
                    scratch.push(6);
                    stack.push(*x);
                }
                ExprKind::Delta(x) => {
                    scratch.push(7);
                    stack.push(*x);
                }
                // States are interned on validated graphs at end-of-step,
                // where neither form can be reachable.
                ExprKind::Forward | ExprKind::Pending => {
                    debug_assert!(false, "signature over an unfinished node");
                    scratch.push(8);
                }
                ExprKind::Ref(_) => unreachable!("resolved"),
            }
        }
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &w in &scratch {
            hash ^= u64::from(w);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.auto.scratch = scratch;
        hash
    }

    /// The [`StateSignature`] of the derivative rooted at `id`: the interned
    /// automaton state id when the lazy automaton is active and the node is
    /// interned (`O(1)`), the canonical-stream digest otherwise.
    ///
    /// Only meaningful as an equality witness between two positions of the
    /// *same* `Language` within one epoch (state ids and node structure are
    /// engine-local). Callers gate on recognize mode themselves: equal
    /// signatures witness equal *languages*, not equal forests, so parse
    /// mode must not use them to skip work.
    pub fn state_signature(&mut self, id: NodeId) -> StateSignature {
        if self.automaton_active() {
            if let Some(st) = self.auto_state_of(id) {
                return StateSignature::State(st);
            }
        }
        // Derivative states are memoized nodes, so the same id recurs at
        // every aligned reparse position — cache the DFS so incremental
        // refeeds over already-digested territory are O(1) per token.
        let id = self.resolve(id);
        if let Some(&(hash, len)) = self.auto.digests.get(&id.0) {
            return StateSignature::Digest(hash, len);
        }
        let hash = self.auto_signature(id);
        let len = self.auto.scratch.len() as u32;
        self.auto.digests.insert(id.0, (hash, len));
        StateSignature::Digest(hash, len)
    }

    /// Clears the automaton and every node's state mapping. The correctness
    /// escape hatch for the (never expected) case of an interned root's kind
    /// being rewritten in place; rows are rebuilt lazily afterwards.
    pub(crate) fn auto_clear(&mut self) {
        self.auto = Automaton::default();
    }

    /// Reacts to a node's kind being rewritten in place: drops the node's
    /// state mapping, and — should the node be a state's canonical root —
    /// discards the automaton wholesale rather than serve stale rows.
    #[inline]
    pub(crate) fn auto_node_invalidated(&mut self, id: NodeId, state: u32) {
        if self.auto.roots.get(state as usize) == Some(&id) {
            self.auto_clear();
        }
    }

    /// A snapshot of the automaton layer (states, row occupancy, cached
    /// accept bits, freeze status) — see [`AutomatonStats`].
    pub fn automaton_stats(&self) -> AutomatonStats {
        AutomatonStats {
            states: self.auto.roots.len(),
            stride: self.auto.stride,
            explored_transitions: self.auto.explored(),
            accept_cached: self.auto.flags.iter().filter(|&&f| f & F_ACCEPT_KNOWN != 0).count(),
            dead_states: self.auto.flags.iter().filter(|&&f| f & F_DEAD != 0).count(),
            frozen: self.auto.frozen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MemoKeying, ParseMode, ParserConfig};
    use crate::token::Token;

    fn recognizer_config() -> ParserConfig {
        ParserConfig { mode: ParseMode::Recognize, ..ParserConfig::improved() }
    }

    /// S = a b | a S b, the matched-pairs language.
    fn ab_language(config: ParserConfig) -> (Language, NodeId, Token, Token) {
        let mut lang = Language::new(config);
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
    fn activity_gate() {
        assert!(Language::new(recognizer_config()).automaton_active());
        // Parse mode, naming, value keying, and Off each disarm it.
        assert!(!Language::new(ParserConfig::improved()).automaton_active());
        assert!(!Language::new(ParserConfig::named_recognizer()).automaton_active());
        let off = ParserConfig { automaton: AutomatonMode::Off, ..recognizer_config() };
        assert!(!Language::new(off).automaton_active());
        let by_value = ParserConfig { keying: MemoKeying::ByValue, ..recognizer_config() };
        assert!(!Language::new(by_value).automaton_active());
    }

    #[test]
    fn states_recur_across_runs_and_resets() {
        let (mut lang, s, a, b) = ab_language(recognizer_config());
        let input: Vec<Token> = vec![a.clone(), a.clone(), b.clone(), b.clone()];
        assert!(lang.recognize(s, &input).unwrap());
        let cold = *lang.metrics();
        let built_cold = cold.auto_rows_built;
        assert!(built_cold > 0, "first run must intern states: {cold:?}");

        // Same input again after reset: the table is warm, every step hits.
        lang.reset();
        assert!(lang.recognize(s, &input).unwrap());
        let warm = *lang.metrics();
        assert_eq!(warm.auto_rows_built, 0, "no new rows on a warm run: {warm:?}");
        assert_eq!(warm.auto_table_hits, input.len() as u64, "all steps from the table: {warm:?}");
        assert_eq!(warm.derive_calls, 0, "table hits bypass derive entirely: {warm:?}");
    }

    #[test]
    fn rejection_positions_match_interpreted() {
        let on = recognizer_config();
        let off = ParserConfig { automaton: AutomatonMode::Off, ..on };
        let (mut lang_on, s_on, a, b) = ab_language(on);
        let (mut lang_off, s_off, _, _) = ab_language(off);
        let cases: Vec<Vec<Token>> = vec![
            vec![],
            vec![a.clone()],
            vec![b.clone()],
            vec![a.clone(), b.clone()],
            vec![a.clone(), b.clone(), b.clone()],
            vec![a.clone(), a.clone(), b.clone(), b.clone()],
            vec![b.clone(), a.clone()],
            vec![a.clone(), a.clone(), a.clone(), b.clone(), b.clone(), b.clone()],
        ];
        // Run the whole case list twice without interleaved resets per case,
        // so the automaton-on engine crosses cold and warm regimes.
        for round in 0..2 {
            for toks in &cases {
                lang_on.reset();
                lang_off.reset();
                let v_on = lang_on.recognize(s_on, toks).unwrap();
                let v_off = lang_off.recognize(s_off, toks).unwrap();
                assert_eq!(v_on, v_off, "round {round}, input {toks:?}");
                let d_on = lang_on.derivative(s_on, toks).unwrap();
                let d_off = lang_off.derivative(s_off, toks).unwrap();
                assert_eq!(
                    lang_on.is_empty_node(d_on),
                    lang_off.is_empty_node(d_off),
                    "round {round}, input {toks:?}"
                );
                lang_on.reset();
                lang_off.reset();
            }
        }
    }

    #[test]
    fn tiny_budget_freezes_and_falls_back() {
        let config = ParserConfig { automaton_max_rows: 2, ..recognizer_config() };
        let (mut lang, s, a, b) = ab_language(config);
        let input: Vec<Token> =
            std::iter::repeat_n(a.clone(), 6).chain(std::iter::repeat_n(b.clone(), 6)).collect();
        assert!(lang.recognize(s, &input).unwrap());
        let stats = lang.automaton_stats();
        assert!(stats.frozen, "budget of 2 must freeze on this input: {stats:?}");
        assert!(stats.states <= 2, "{stats:?}");
        assert!(lang.metrics().auto_fallbacks > 0, "{:?}", lang.metrics());
        // Frozen ≠ wrong: verdicts still agree with the interpreted engine.
        let off = ParserConfig { automaton: AutomatonMode::Off, ..config };
        let (mut lang_off, s_off, _, _) = ab_language(off);
        for n in 0..5 {
            lang.reset();
            lang_off.reset();
            let toks: Vec<Token> = std::iter::repeat_n(a.clone(), n)
                .chain(std::iter::repeat_n(b.clone(), n))
                .collect();
            assert_eq!(
                lang.recognize(s, &toks).unwrap(),
                lang_off.recognize(s_off, &toks).unwrap(),
                "n={n}"
            );
        }
    }

    #[test]
    fn stats_report_occupancy() {
        let (mut lang, s, a, b) = ab_language(recognizer_config());
        let input = vec![a.clone(), b.clone()];
        assert!(lang.recognize(s, &input).unwrap());
        let stats = lang.automaton_stats();
        assert!(stats.states > 0);
        assert_eq!(stats.stride, 2, "two terminals");
        assert!(stats.occupancy() > 0.0 && stats.occupancy() <= 1.0);
        assert!(!stats.frozen);
        let empty = AutomatonStats::default();
        assert_eq!(empty.occupancy(), 0.0);
    }

    #[test]
    fn signature_merges_isomorphic_roots_only() {
        let mut lang = Language::new(recognizer_config());
        let a = lang.terminal("a");
        let b = lang.terminal("b");
        let (ta, tb) = (lang.term_node(a), lang.term_node(b));
        let cat1 = lang.cat(ta, tb);
        let cat2 = lang.cat(ta, tb); // isomorphic to cat1 (may hash-cons)
        let cat3 = lang.cat(tb, ta); // different structure
        lang.mark_initial();
        let s1 = lang.auto_intern(cat1).unwrap();
        let s2 = lang.auto_intern(cat2).unwrap();
        let s3 = lang.auto_intern(cat3).unwrap();
        assert_eq!(s1, s2, "isomorphic roots intern to one state");
        assert_ne!(s1, s3, "order matters: a◦b is not b◦a");
    }

    #[test]
    fn accept_bits_cache_nullability() {
        let (mut lang, s, a, b) = ab_language(recognizer_config());
        let input = vec![a.clone(), b.clone()];
        assert!(lang.recognize(s, &input).unwrap());
        let stats = lang.automaton_stats();
        assert!(stats.accept_cached > 0, "final-node accept checks must cache: {stats:?}");
        // The cached bits answer without new nullable runs on a warm rerun.
        lang.reset();
        assert!(lang.recognize(s, &input).unwrap());
        assert_eq!(lang.metrics().nullable_runs, 0, "{:?}", lang.metrics());
    }
}
