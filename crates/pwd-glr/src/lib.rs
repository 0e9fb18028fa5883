//! A GLR parser: the baseline standing in for Bison's `%glr-parser` in the
//! paper's Figure-6 comparison.
//!
//! Builds an SLR(1) automaton (LR(0) item sets + FOLLOW-gated reductions)
//! and drives it with a graph-structured stack (Tomita 1985, with Farshi's
//! fix for reductions through edges created by ε-rules). Conflicts are kept,
//! not resolved — like Bison in GLR mode, all actions are explored and
//! stacks merge on equal states. The paper's Python grammar had 92
//! shift/reduce and 4 reduce/reduce conflicts; [`GlrParser::conflicts`]
//! reports ours.
//!
//! # Quick start
//!
//! ```
//! use pwd_glr::GlrParser;
//! use pwd_grammar::CfgBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = CfgBuilder::new("E");
//! g.terminals(&["+", "n"]);
//! g.rule("E", &["E", "+", "E"]); // ambiguous: GLR explores both
//! g.rule("E", &["n"]);
//! let parser = GlrParser::new(&g.build()?);
//! assert!(parser.recognize_kinds(&["n", "+", "n", "+", "n"])?);
//! assert!(!parser.recognize_kinds(&["n", "+"])?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pwd_forest::ParseForest;
use pwd_grammar::{analysis, build_sppf, Cfg, KindMap, Production, ProductionSpans, Symbol};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Error for token kinds outside the grammar's terminal alphabet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownKind {
    /// The offending kind name.
    pub kind: String,
    /// Its position in the input.
    pub position: usize,
}

impl fmt::Display for UnknownKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "token {} has kind {:?} outside the grammar", self.position, self.kind)
    }
}

impl std::error::Error for UnknownKind {}

/// An LR(0) item over the augmented grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Item {
    prod: u32,
    dot: u32,
}

/// A parse action in a table cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Shift(u32),
    Reduce(u32),
    Accept,
}

/// A GLR parser with SLR(1) tables over a graph-structured stack.
#[derive(Debug, Clone)]
pub struct GlrParser {
    /// The source grammar (kept for SPPF construction).
    cfg: Arc<Cfg>,
    /// Productions of the augmented grammar; the last one is `S' → S`.
    prods: Vec<Production>,
    /// ACTION[state][lookahead]; `None` lookahead = end of input.
    action: Vec<HashMap<Option<u32>, Vec<Action>>>,
    /// GOTO[state][nonterminal].
    goto_nt: Vec<HashMap<u32, u32>>,
}

/// Statistics from a GLR run.
#[derive(Debug, Clone, Default)]
pub struct GlrStats {
    /// Total GSS nodes created.
    pub gss_nodes: usize,
    /// Total GSS edges created.
    pub gss_edges: usize,
}

impl GlrParser {
    /// Builds the SLR(1) tables for a grammar.
    pub fn new(cfg: &Cfg) -> GlrParser {
        // Augment: S' → S. The fresh nonterminal gets index nt_count.
        let aug_nt = cfg.nonterminal_count() as u32;
        let mut prods: Vec<Production> = cfg.productions().to_vec();
        let start_prod = prods.len() as u32;
        prods.push(Production { lhs: aug_nt, rhs: vec![Symbol::N(cfg.start())] });

        let by_lhs: Vec<Vec<usize>> = {
            let mut v = vec![Vec::new(); aug_nt as usize + 1];
            for (i, p) in prods.iter().enumerate() {
                v[p.lhs as usize].push(i);
            }
            v
        };

        let closure = |kernel: &BTreeSet<Item>| -> BTreeSet<Item> {
            let mut set = kernel.clone();
            let mut work: Vec<Item> = set.iter().copied().collect();
            while let Some(item) = work.pop() {
                let p = &prods[item.prod as usize];
                if let Some(Symbol::N(nt)) = p.rhs.get(item.dot as usize) {
                    for &pi in &by_lhs[*nt as usize] {
                        let new = Item { prod: pi as u32, dot: 0 };
                        if set.insert(new) {
                            work.push(new);
                        }
                    }
                }
            }
            set
        };

        // Canonical LR(0) collection.
        let mut states: Vec<BTreeSet<Item>> = Vec::new();
        let mut index: HashMap<BTreeSet<Item>, u32> = HashMap::new();
        let mut kernel0 = BTreeSet::new();
        kernel0.insert(Item { prod: start_prod, dot: 0 });
        let s0 = closure(&kernel0);
        index.insert(s0.clone(), 0);
        states.push(s0);
        let mut trans: Vec<HashMap<Symbol, u32>> = vec![HashMap::new()];
        let mut work = vec![0u32];
        while let Some(si) = work.pop() {
            // Group items by the symbol after the dot.
            let mut by_sym: HashMap<Symbol, BTreeSet<Item>> = HashMap::new();
            for item in &states[si as usize] {
                let p = &prods[item.prod as usize];
                if let Some(sym) = p.rhs.get(item.dot as usize) {
                    by_sym
                        .entry(*sym)
                        .or_default()
                        .insert(Item { prod: item.prod, dot: item.dot + 1 });
                }
            }
            let mut entries: Vec<(Symbol, BTreeSet<Item>)> = by_sym.into_iter().collect();
            entries.sort_by_key(|(s, _)| *s);
            for (sym, kernel) in entries {
                let target = closure(&kernel);
                let ti = match index.get(&target) {
                    Some(&t) => t,
                    None => {
                        let t = states.len() as u32;
                        index.insert(target.clone(), t);
                        states.push(target);
                        trans.push(HashMap::new());
                        work.push(t);
                        t
                    }
                };
                trans[si as usize].insert(sym, ti);
            }
        }

        // SLR: FOLLOW sets of the base grammar gate reductions.
        let follow = analysis::follow_sets(cfg);
        let mut action: Vec<HashMap<Option<u32>, Vec<Action>>> = vec![HashMap::new(); states.len()];
        let mut goto_nt: Vec<HashMap<u32, u32>> = vec![HashMap::new(); states.len()];
        for (si, state) in states.iter().enumerate() {
            for (sym, &ti) in &trans[si] {
                match sym {
                    Symbol::T(t) => {
                        action[si].entry(Some(*t)).or_default().push(Action::Shift(ti));
                    }
                    Symbol::N(n) => {
                        goto_nt[si].insert(*n, ti);
                    }
                }
            }
            for item in state {
                let p = &prods[item.prod as usize];
                if item.dot as usize == p.rhs.len() {
                    if item.prod == start_prod {
                        action[si].entry(None).or_default().push(Action::Accept);
                    } else {
                        for la in &follow[p.lhs as usize] {
                            action[si].entry(*la).or_default().push(Action::Reduce(item.prod));
                        }
                    }
                }
            }
        }

        GlrParser { cfg: Arc::new(cfg.clone()), prods, action, goto_nt }
    }

    /// The source grammar.
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// A resolver from token kinds to this parser's terminal indices, over
    /// its grammar.
    pub fn kind_map(&self) -> KindMap {
        KindMap::new(Arc::clone(&self.cfg))
    }

    /// Number of LR(0) states.
    pub fn state_count(&self) -> usize {
        self.action.len()
    }

    /// `(shift_reduce, reduce_reduce)` conflict counts in the SLR table —
    /// the quantities Bison reported as 92 and 4 for the paper's grammar.
    pub fn conflicts(&self) -> (usize, usize) {
        let mut sr = 0;
        let mut rr = 0;
        for state in &self.action {
            for acts in state.values() {
                let shifts = acts.iter().filter(|a| matches!(a, Action::Shift(_))).count();
                let reduces = acts.iter().filter(|a| matches!(a, Action::Reduce(_))).count();
                if shifts > 0 && reduces > 0 {
                    sr += 1;
                }
                if reduces > 1 {
                    rr += reduces - 1;
                }
            }
        }
        (sr, rr)
    }

    /// Recognizes a sequence of terminal indices.
    pub fn recognize(&self, tokens: &[u32]) -> bool {
        self.run(tokens).0
    }

    /// Recognizes terminal kinds by name.
    ///
    /// # Errors
    ///
    /// [`UnknownKind`] for kinds outside the grammar.
    pub fn recognize_kinds(&self, kinds: &[&str]) -> Result<bool, UnknownKind> {
        let toks = self.kinds_to_tokens(kinds)?;
        Ok(self.recognize(&toks))
    }

    /// Recognizes a lexeme stream.
    ///
    /// # Errors
    ///
    /// [`UnknownKind`] for lexeme kinds outside the grammar.
    pub fn recognize_lexemes(&self, lexemes: &[pwd_lex::Lexeme]) -> Result<bool, UnknownKind> {
        let mut kinds = self.kind_map();
        let toks: Result<Vec<u32>, UnknownKind> = lexemes
            .iter()
            .enumerate()
            .map(|(i, l)| {
                kinds
                    .resolve(l.kind.as_kind_ref())
                    .ok_or_else(|| UnknownKind { kind: l.kind.to_string(), position: i })
            })
            .collect();
        Ok(self.recognize(&toks?))
    }

    /// Recognition plus GSS statistics.
    pub fn recognize_with_stats(&self, tokens: &[u32]) -> (bool, GlrStats) {
        self.run(tokens)
    }

    /// Converts kind names to terminal indices.
    ///
    /// # Errors
    ///
    /// [`UnknownKind`] for kinds outside the grammar.
    pub fn kinds_to_tokens(&self, kinds: &[&str]) -> Result<Vec<u32>, UnknownKind> {
        kinds
            .iter()
            .enumerate()
            .map(|(i, k)| {
                self.terminal_index(k)
                    .ok_or_else(|| UnknownKind { kind: (*k).to_string(), position: i })
            })
            .collect()
    }

    /// The terminal index of a kind name, or `None` if the kind is not in
    /// the grammar.
    pub fn terminal_index(&self, name: &str) -> Option<u32> {
        self.cfg.terminal_index(name)
    }

    fn run(&self, tokens: &[u32]) -> (bool, GlrStats) {
        let mut session = self.begin();
        for &t in tokens {
            self.feed(&mut session, t);
        }
        let accepted = self.accepted(&mut session);
        (accepted, session.stats())
    }

    // ------------------------------------------------------------------
    // Incremental (streaming) recognition
    // ------------------------------------------------------------------

    /// Opens an incremental GLR session: a one-node graph-structured stack
    /// in the initial LR state.
    ///
    /// GLR shifts strictly left to right, so the GSS doubles as a streaming
    /// session: [`feed`](GlrParser::feed) one token at a time, query
    /// [`accepted`](GlrParser::accepted) between tokens, and snapshot the
    /// frontier with [`GlrSession::checkpoint`].
    pub fn begin(&self) -> GlrSession {
        GlrSession {
            states: vec![0],
            edges: vec![Vec::new()],
            pos: vec![0],
            frontier: HashMap::from([(0, 0)]),
            edge_count: 0,
            fed: 0,
            dead: false,
            facts: Vec::new(),
        }
    }

    /// Feeds one token: runs the reduce phase to a fixed point under `tok`
    /// as lookahead, then shifts. Returns `false` when no stack survives —
    /// the session is dead (sticky until a rollback past the killing token).
    pub fn feed(&self, s: &mut GlrSession, tok: u32) -> bool {
        s.fed += 1;
        if s.dead {
            return false;
        }
        self.reduce_phase(s, Some(tok), s.fed - 1);

        // ---- shift phase ----
        let mut next: HashMap<u32, usize> = HashMap::new();
        for (&st, &node) in &s.frontier {
            if let Some(acts) = self.action[st as usize].get(&Some(tok)) {
                for a in acts {
                    if let Action::Shift(target) = a {
                        let w = *next.entry(*target).or_insert_with(|| {
                            s.states.push(*target);
                            s.edges.push(Vec::new());
                            s.pos.push(s.fed);
                            s.states.len() - 1
                        });
                        if !s.edges[w].contains(&node) {
                            s.edges[w].push(node);
                            s.edge_count += 1;
                        }
                    }
                }
            }
        }
        if next.is_empty() {
            // Keep the pre-shift frontier intact: a checkpoint taken before
            // the killing token must be able to restore it.
            s.dead = true;
            return false;
        }
        s.frontier = next;
        true
    }

    /// The terminals for which the session's frontier has *any* table
    /// action (shift or reduce) — a cheap superset of the tokens a
    /// [`feed`](GlrParser::feed) would survive, since a reduction admitted
    /// by the lookahead may still leave no stack that can shift it. Sorted
    /// and deduplicated. This is the candidate set for GSS frontier repair:
    /// the recovery driver trial-feeds each candidate (checkpoint, feed,
    /// rollback) and keeps the ones that actually shift.
    pub fn expected_terminals(&self, s: &GlrSession) -> Vec<u32> {
        let mut out: Vec<u32> = s
            .frontier
            .keys()
            .flat_map(|&st| self.action[st as usize].keys())
            .filter_map(|la| *la)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Does the session accept the prefix fed so far?
    ///
    /// Runs the end-of-input reduce phase on a frontier snapshot and rolls
    /// the GSS back afterwards, so the probe leaves no trace — reductions
    /// gated on the EOF lookahead must not leak into later feeds.
    pub fn accepted(&self, s: &mut GlrSession) -> bool {
        if s.dead {
            return false;
        }
        let cp = s.checkpoint();
        self.reduce_phase(s, None, s.fed);
        let accepted = s.frontier.keys().any(|&st| {
            self.action[st as usize].get(&None).is_some_and(|acts| acts.contains(&Action::Accept))
        });
        s.rollback(&cp);
        accepted
    }

    /// The reduce phase at one input position: apply every reduction the
    /// lookahead admits, to a fixed point, growing the GSS frontier in
    /// place (Tomita with Farshi's fix).
    fn reduce_phase(&self, s: &mut GlrSession, lookahead: Option<u32>, pos: usize) {
        let mut queue: Vec<(usize, u32)> = Vec::new();
        let mut done: HashSet<(usize, u32, usize)> = HashSet::new();
        let enqueue_all = |frontier: &HashMap<u32, usize>,
                           queue: &mut Vec<(usize, u32)>,
                           action: &[HashMap<Option<u32>, Vec<Action>>]| {
            for (&st, &node) in frontier {
                if let Some(acts) = action[st as usize].get(&lookahead) {
                    for a in acts {
                        if let Action::Reduce(p) = a {
                            queue.push((node, *p));
                        }
                    }
                }
            }
        };
        enqueue_all(&s.frontier, &mut queue, &self.action);
        while let Some((node, prod)) = queue.pop() {
            let k = self.prods[prod as usize].rhs.len();
            // All endpoints of length-k paths from `node`.
            let mut layer = vec![node];
            for _ in 0..k {
                let mut next = Vec::new();
                for v in layer {
                    next.extend_from_slice(&s.edges[v]);
                }
                next.sort_unstable();
                next.dedup();
                layer = next;
            }
            for u in layer {
                if !done.insert((node, prod, u)) {
                    continue;
                }
                // The length-k path from `node` back to `u` *is* the
                // statement "prod derives tokens[pos(u)..pos)": record it
                // as a derivation fact for SPPF construction (the
                // augmented start production carries no forest content).
                if (prod as usize) < self.cfg.productions().len() {
                    s.facts.push((prod, s.pos[u] as u32, pos as u32));
                }
                let lhs = self.prods[prod as usize].lhs;
                let Some(&target) = self.goto_nt[s.states[u] as usize].get(&lhs) else {
                    continue;
                };
                match s.frontier.get(&target) {
                    Some(&w) => {
                        if !s.edges[w].contains(&u) {
                            s.edges[w].push(u);
                            s.edge_count += 1;
                            // New path through an existing node: re-run
                            // frontier reductions (Farshi's fix — needed
                            // for ε-rules and hidden left recursion).
                            enqueue_all(&s.frontier, &mut queue, &self.action);
                        }
                    }
                    None => {
                        s.states.push(target);
                        s.edges.push(vec![u]);
                        s.pos.push(pos);
                        let w = s.states.len() - 1;
                        s.edge_count += 1;
                        s.frontier.insert(target, w);
                        if let Some(acts) = self.action[target as usize].get(&lookahead) {
                            for a in acts {
                                if let Action::Reduce(p) = a {
                                    queue.push((w, *p));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Shared parse forests (SPPF) from GSS reduction packing
// ---------------------------------------------------------------------

impl GlrParser {
    /// The derivation facts the session's reductions have proven so far,
    /// **including** the end-of-input reductions: the EOF reduce phase runs
    /// on a frontier snapshot and is rolled back, so the session is
    /// observably unchanged, but the final completions (which only fire
    /// under the EOF lookahead) are captured.
    pub fn session_spans(&self, s: &mut GlrSession) -> ProductionSpans {
        let mut spans = ProductionSpans::new();
        if s.dead {
            // Post-death facts describe a prefix the input diverged from
            // only after the killing token; the pre-shift GSS (and its
            // facts) are still sound, so keep them — the builder's
            // top-down walk from the (unreachable) root ignores them.
            for &(p, i, j) in &s.facts {
                spans.insert(p as usize, i as usize, j as usize);
            }
            return spans;
        }
        let cp = s.checkpoint();
        self.reduce_phase(s, None, s.fed);
        for &(p, i, j) in &s.facts {
            spans.insert(p as usize, i as usize, j as usize);
        }
        s.rollback(&cp);
        spans
    }

    /// Builds the shared forest of **all** derivations of the tokens fed to
    /// `s` (packed per `(nonterminal, span)`), with `texts[i]` the lexeme
    /// text of token `i`.
    ///
    /// # Panics
    ///
    /// Panics if `texts.len() != tokens.len()` or if `tokens` is not the
    /// same length as what the session was fed (the recorded reduction
    /// facts index positions of the *fed* stream).
    pub fn forest_from_session(
        &self,
        s: &mut GlrSession,
        tokens: &[u32],
        texts: &[&str],
    ) -> ParseForest {
        assert_eq!(
            tokens.len(),
            s.tokens_fed(),
            "token slice must match the {} tokens fed to the session",
            s.tokens_fed()
        );
        let spans = self.session_spans(s);
        build_sppf(&self.cfg, tokens, texts, &spans)
    }

    /// Parses `tokens` and returns the shared forest of all derivations
    /// (the canonical empty forest for a rejected input). Lexeme texts
    /// default to the terminal kind names.
    pub fn parse_forest(&self, tokens: &[u32]) -> ParseForest {
        let mut s = self.begin();
        for &t in tokens {
            self.feed(&mut s, t);
        }
        let texts: Vec<&str> = tokens.iter().map(|&t| self.cfg.terminal_name(t)).collect();
        self.forest_from_session(&mut s, tokens, &texts)
    }
}

/// The owned state of an incremental GLR recognition: the graph-structured
/// stack and its current frontier. Opaque; drive it through
/// [`GlrParser::begin`], [`GlrParser::feed`], and [`GlrParser::accepted`].
#[derive(Debug, Clone)]
pub struct GlrSession {
    /// LR state of each GSS node.
    states: Vec<u32>,
    /// Predecessor edges of each GSS node.
    edges: Vec<Vec<usize>>,
    /// Token position at which each GSS node became a stack top.
    pos: Vec<usize>,
    /// Live stack tops: LR state → GSS node.
    frontier: HashMap<u32, usize>,
    edge_count: usize,
    fed: usize,
    dead: bool,
    /// Derivation facts `(prod, from, to)` recorded by performed
    /// reductions — the GSS packing, replayed as SPPF input. Append-only;
    /// rollback truncates.
    facts: Vec<(u32, u32, u32)>,
}

/// A saved GSS position: the frontier plus enough bookkeeping to truncate
/// the stack back to it.
///
/// The GSS is append-only except at the frontier — later feeds add nodes at
/// the end and edges only to (then-)frontier nodes — so a checkpoint stores
/// the node count, the frontier map, and the edge-list length of each
/// frontier node; rollback truncates all three. `O(frontier)` to take,
/// `O(frontier + nodes rolled back)` to restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlrCheckpoint {
    nodes: usize,
    /// `(LR state, GSS node, edge-list length)` per frontier entry.
    frontier: Vec<(u32, usize, usize)>,
    edge_count: usize,
    fed: usize,
    dead: bool,
    facts: usize,
}

impl GlrCheckpoint {
    /// Number of tokens fed when this checkpoint was taken.
    pub fn tokens_fed(&self) -> usize {
        self.fed
    }
}

impl GlrSession {
    /// Number of tokens fed so far.
    pub fn tokens_fed(&self) -> usize {
        self.fed
    }

    /// Has the session died (a token no stack could shift)?
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// GSS statistics for the prefix fed so far.
    pub fn stats(&self) -> GlrStats {
        GlrStats { gss_nodes: self.states.len(), gss_edges: self.edge_count }
    }

    /// Saves the current position: node count, frontier, and the frontier
    /// nodes' edge-list lengths.
    pub fn checkpoint(&self) -> GlrCheckpoint {
        GlrCheckpoint {
            nodes: self.states.len(),
            frontier: self
                .frontier
                .iter()
                .map(|(&st, &node)| (st, node, self.edges[node].len()))
                .collect(),
            edge_count: self.edge_count,
            fed: self.fed,
            dead: self.dead,
            facts: self.facts.len(),
        }
    }

    /// Restores a checkpoint: truncates the GSS to the saved node count,
    /// trims the saved frontier nodes' edge lists (the only pre-checkpoint
    /// nodes later phases may have extended), and reinstates the frontier.
    ///
    /// The restore is exact **only** for a checkpoint taken on this
    /// session's current timeline (no rollback past its position since it
    /// was taken). This layer cannot tell a stale or foreign checkpoint
    /// with a plausible node count from a valid one — it would silently
    /// install a frontier over a divergent stack; callers that need that
    /// validation use the `derp::api` session layer, whose timeline guard
    /// rejects invalidated checkpoints exactly.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint records more GSS nodes than the session
    /// currently holds.
    pub fn rollback(&mut self, cp: &GlrCheckpoint) {
        assert!(
            cp.nodes <= self.states.len(),
            "checkpoint for {} GSS nodes cannot restore a stack of {}",
            cp.nodes,
            self.states.len()
        );
        self.states.truncate(cp.nodes);
        self.edges.truncate(cp.nodes);
        self.pos.truncate(cp.nodes);
        self.facts.truncate(cp.facts);
        self.frontier.clear();
        for &(st, node, edge_len) in &cp.frontier {
            self.edges[node].truncate(edge_len);
            self.frontier.insert(st, node);
        }
        self.edge_count = cp.edge_count;
        self.fed = cp.fed;
        self.dead = cp.dead;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwd_forest::{EnumLimits, TreeCount};
    use pwd_grammar::CfgBuilder;

    #[test]
    fn catalan_forest_counts_are_exact() {
        let p = GlrParser::new(&pwd_grammar::grammars::ambiguous::catalan());
        let catalan: [u128; 8] = [1, 1, 2, 5, 14, 42, 132, 429];
        for n in 1..=8usize {
            let forest = p.parse_forest(&vec![0u32; n]);
            assert_eq!(forest.count(), TreeCount::Finite(catalan[n - 1]), "n={n}");
        }
    }

    #[test]
    fn arithmetic_forest_tree_respects_precedence() {
        let p = arith();
        let toks = p.kinds_to_tokens(&["NUM", "+", "NUM", "*", "NUM"]).unwrap();
        let forest = p.parse_forest(&toks);
        assert_eq!(forest.count(), TreeCount::Finite(1));
        let tree = forest.trees(EnumLimits::default()).pop().unwrap();
        assert_eq!(tree.to_string(), "(E (E (T (F NUM))) + (T (T (F NUM)) * (F NUM)))");
    }

    #[test]
    fn rejected_and_epsilon_forests() {
        let p = arith();
        let toks = p.kinds_to_tokens(&["NUM", "+"]).unwrap();
        assert!(!p.parse_forest(&toks).has_tree());
        // ε-containing grammar over the empty input.
        let mut g = CfgBuilder::new("S");
        g.terminal("a");
        g.rule("S", &[]);
        g.rule("S", &["a"]);
        let p = GlrParser::new(&g.build().unwrap());
        let forest = p.parse_forest(&[]);
        assert_eq!(forest.count(), TreeCount::Finite(1));
        assert_eq!(forest.trees(EnumLimits::default())[0].to_string(), "(S)");
    }

    #[test]
    fn probe_then_forest_still_exact() {
        // Interleaved acceptance probes must not distort the fact set.
        let p = GlrParser::new(&pwd_grammar::grammars::ambiguous::catalan());
        let mut s = p.begin();
        for _ in 0..5 {
            p.feed(&mut s, 0);
            let _ = p.accepted(&mut s);
        }
        let texts = ["a"; 5];
        let forest = p.forest_from_session(&mut s, &[0; 5], &texts[..]);
        assert_eq!(forest.count(), TreeCount::Finite(14));
    }

    fn arith() -> GlrParser {
        GlrParser::new(&pwd_grammar::grammars::arith::cfg())
    }

    #[test]
    fn slr_arithmetic() {
        let p = arith();
        assert!(p.recognize_kinds(&["NUM", "+", "NUM", "*", "NUM"]).unwrap());
        assert!(p.recognize_kinds(&["(", "NUM", "+", "NUM", ")", "*", "NUM"]).unwrap());
        assert!(!p.recognize_kinds(&["NUM", "+"]).unwrap());
        assert!(!p.recognize_kinds(&["(", "NUM"]).unwrap());
        assert!(!p.recognize_kinds(&[]).unwrap());
        // The arith grammar is SLR(1): no conflicts.
        assert_eq!(p.conflicts(), (0, 0));
    }

    #[test]
    fn ambiguous_expression_grammar() {
        let p = GlrParser::new(&pwd_grammar::grammars::ambiguous::expr());
        let (sr, _) = p.conflicts();
        assert!(sr > 0, "E → E+E | E*E must have shift/reduce conflicts");
        assert!(p.recognize_kinds(&["n", "+", "n", "*", "n"]).unwrap());
        assert!(!p.recognize_kinds(&["n", "+", "*"]).unwrap());
    }

    #[test]
    fn catalan_grammar() {
        let p = GlrParser::new(&pwd_grammar::grammars::ambiguous::catalan());
        for n in 1..8 {
            let kinds: Vec<&str> = std::iter::repeat_n("a", n).collect();
            assert!(p.recognize_kinds(&kinds).unwrap(), "n={n}");
        }
        assert!(!p.recognize_kinds(&[]).unwrap());
    }

    #[test]
    fn epsilon_rules() {
        let mut g = CfgBuilder::new("S");
        g.terminals(&["a", "b"]);
        g.rule("S", &["A", "B"]);
        g.rule("A", &[]);
        g.rule("A", &["a"]);
        g.rule("B", &["b"]);
        let p = GlrParser::new(&g.build().unwrap());
        assert!(p.recognize_kinds(&["b"]).unwrap());
        assert!(p.recognize_kinds(&["a", "b"]).unwrap());
        assert!(!p.recognize_kinds(&["a"]).unwrap());
    }

    #[test]
    fn hidden_left_recursion() {
        let mut g = CfgBuilder::new("S");
        g.terminal("b");
        g.rule("S", &["A", "S", "b"]);
        g.rule("S", &["b"]);
        g.rule("A", &[]);
        let p = GlrParser::new(&g.build().unwrap());
        for n in 1..=6 {
            let kinds: Vec<&str> = std::iter::repeat_n("b", n).collect();
            assert!(p.recognize_kinds(&kinds).unwrap(), "n={n}");
        }
        assert!(!p.recognize_kinds(&[]).unwrap());
    }

    #[test]
    fn python_module() {
        let p = GlrParser::new(&pwd_grammar::grammars::python::cfg());
        let src = "def f(x):\n    return x + 1\n\ny = f(41)\n";
        let lexemes = pwd_lex::tokenize_python(src).unwrap();
        assert!(p.recognize_lexemes(&lexemes).unwrap());
        let bad = pwd_lex::tokenize_python("def f(:\n    pass\n").unwrap();
        assert!(!p.recognize_lexemes(&bad).unwrap());
    }

    #[test]
    fn unknown_kind_error() {
        let p = arith();
        let err = p.recognize_kinds(&["NUM", "WAT"]).unwrap_err();
        assert_eq!(err.kind, "WAT");
    }

    #[test]
    fn stats_populated() {
        let p = arith();
        let toks = p.kinds_to_tokens(&["NUM", "+", "NUM"]).unwrap();
        let (ok, stats) = p.recognize_with_stats(&toks);
        assert!(ok);
        assert!(stats.gss_nodes > 0);
        assert!(stats.gss_edges > 0);
    }

    #[test]
    fn incremental_feed_matches_batch() {
        let p = arith();
        for kinds in [
            vec!["NUM", "+", "NUM", "*", "NUM"],
            vec!["NUM", "+"],
            vec!["(", "NUM", ")"],
            vec![],
            vec!["+", "NUM"],
        ] {
            let toks = p.kinds_to_tokens(&kinds).unwrap();
            let batch = p.recognize(&toks);
            let mut s = p.begin();
            for &t in &toks {
                p.feed(&mut s, t);
            }
            assert_eq!(p.accepted(&mut s), batch, "{kinds:?}");
            assert_eq!(s.tokens_fed(), toks.len());
        }
    }

    #[test]
    fn acceptance_probe_leaves_no_trace() {
        // Query acceptance after every token, then finish: the interleaved
        // probes (EOF-lookahead reduce phases) must not change the verdict.
        let p = arith();
        let toks = p.kinds_to_tokens(&["(", "NUM", "+", "NUM", ")", "*", "NUM"]).unwrap();
        let mut probed = p.begin();
        let mut plain = p.begin();
        for (i, &t) in toks.iter().enumerate() {
            assert_eq!(p.accepted(&mut probed), p.recognize(&toks[..i]), "prefix {i}");
            p.feed(&mut probed, t);
            p.feed(&mut plain, t);
        }
        assert!(p.accepted(&mut probed));
        assert_eq!(probed.stats().gss_nodes, plain.stats().gss_nodes);
        assert_eq!(probed.stats().gss_edges, plain.stats().gss_edges);
    }

    #[test]
    fn expected_terminals_cover_every_viable_feed() {
        let p = arith();
        let toks = p.kinds_to_tokens(&["NUM", "+"]).unwrap();
        let mut s = p.begin();
        for &t in &toks {
            p.feed(&mut s, t);
        }
        let expected = p.expected_terminals(&s);
        assert!(!expected.is_empty());
        // Soundness of the superset: every terminal a feed survives is
        // listed (trial feeds restore the session via checkpoint/rollback).
        for t in 0..p.cfg().terminal_count() as u32 {
            let cp = s.checkpoint();
            let viable = p.feed(&mut s, t);
            s.rollback(&cp);
            if viable {
                assert!(expected.contains(&t), "viable terminal {t} missing");
            }
        }
    }

    #[test]
    fn checkpoint_rollback_restores_frontier_and_stack() {
        let p = arith();
        let toks = p.kinds_to_tokens(&["NUM", "+", "NUM", "*", "NUM"]).unwrap();
        let mut s = p.begin();
        p.feed(&mut s, toks[0]);
        let cp = s.checkpoint();
        assert_eq!(cp.tokens_fed(), 1);
        let baseline = s.stats();
        // Speculate into a dead end: NUM + * …
        p.feed(&mut s, toks[1]);
        p.feed(&mut s, toks[3]);
        assert!(s.is_dead());
        s.rollback(&cp);
        assert!(!s.is_dead());
        assert_eq!(s.stats().gss_nodes, baseline.gss_nodes);
        assert_eq!(s.stats().gss_edges, baseline.gss_edges);
        assert!(p.accepted(&mut s), "NUM alone is a sentence");
        // Resume down the real input.
        for &t in &toks[1..] {
            assert!(p.feed(&mut s, t));
        }
        assert!(p.accepted(&mut s));
    }

    #[test]
    fn rollback_with_epsilon_rules_and_hidden_left_recursion() {
        // The Farshi-fix stress shape: S → A S b | b, A → ε. Checkpoints in
        // the middle of ε-driven frontier growth must restore exactly.
        let mut g = CfgBuilder::new("S");
        g.terminal("b");
        g.rule("S", &["A", "S", "b"]);
        g.rule("S", &["b"]);
        g.rule("A", &[]);
        let p = GlrParser::new(&g.build().unwrap());
        let b = p.kinds_to_tokens(&["b"]).unwrap()[0];
        let mut s = p.begin();
        p.feed(&mut s, b);
        p.feed(&mut s, b);
        let cp = s.checkpoint();
        for _ in 0..3 {
            p.feed(&mut s, b);
        }
        assert!(p.accepted(&mut s), "bbbbb ∈ L");
        s.rollback(&cp);
        assert_eq!(s.tokens_fed(), 2);
        assert!(p.accepted(&mut s), "bb ∈ L after rollback");
        p.feed(&mut s, b);
        p.feed(&mut s, b);
        assert!(p.accepted(&mut s), "bbbb ∈ L after resume");
    }
}
