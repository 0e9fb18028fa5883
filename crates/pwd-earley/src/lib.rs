//! An Earley parser: the baseline standing in for Racket's
//! `parser-tools/cfg-parser` (itself an Earley variant) in the paper's
//! Figure-6 comparison.
//!
//! Standard Earley (1970) with the Aycock–Horspool nullable-prediction fix:
//! when the predictor introduces a nullable nonterminal, the item's dot is
//! also advanced over it immediately, which makes ε-rules sound without
//! repeated completer passes. The recognizer is `O(n³)` for arbitrary CFGs,
//! `O(n²)` for unambiguous ones.
//!
//! # Quick start
//!
//! ```
//! use pwd_earley::EarleyParser;
//! use pwd_grammar::CfgBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = CfgBuilder::new("S");
//! g.terminal("a");
//! g.rule("S", &["S", "S"]);
//! g.rule("S", &["a"]);
//! let parser = EarleyParser::new(&g.build()?);
//! assert!(parser.recognize_kinds(&["a", "a", "a"])?);
//! assert!(!parser.recognize_kinds(&[])?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pwd_forest::{EnumLimits, ParseForest, Tree};
use pwd_grammar::{analysis, build_sppf, Cfg, KindMap, ProductionSpans, Symbol};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// An Earley item: production, dot position, origin set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Item {
    prod: u32,
    dot: u32,
    origin: u32,
}

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

/// An Earley parser compiled from a [`Cfg`].
#[derive(Debug, Clone)]
pub struct EarleyParser {
    cfg: Arc<Cfg>,
    nullable: Vec<bool>,
}

/// Statistics from a recognition run (chart sizes drive the complexity
/// comparison tests).
#[derive(Debug, Clone, Default)]
pub struct EarleyStats {
    /// Number of items in each chart set.
    pub set_sizes: Vec<usize>,
    /// Total items across the chart.
    pub total_items: usize,
}

impl EarleyParser {
    /// Compiles the parser (precomputes the nullable set).
    pub fn new(cfg: &Cfg) -> EarleyParser {
        EarleyParser { cfg: Arc::new(cfg.clone()), nullable: analysis::nullable_nonterminals(cfg) }
    }

    /// The underlying grammar.
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// A resolver from token kinds to this parser's terminal indices, over
    /// its grammar.
    pub fn kind_map(&self) -> KindMap {
        KindMap::new(Arc::clone(&self.cfg))
    }

    /// Recognizes a sequence of terminal indices.
    pub fn recognize(&self, tokens: &[u32]) -> bool {
        self.run(tokens).0
    }

    /// Recognizes a sequence of terminal kinds by name.
    ///
    /// # Errors
    ///
    /// [`UnknownKind`] if a kind is not a terminal of the grammar.
    pub fn recognize_kinds(&self, kinds: &[&str]) -> Result<bool, UnknownKind> {
        let toks = self.kinds_to_tokens(kinds)?;
        Ok(self.recognize(&toks))
    }

    /// Recognizes a lexeme stream (e.g. from `pwd_lex`).
    ///
    /// # Errors
    ///
    /// [`UnknownKind`] if a lexeme kind is not a terminal of the grammar.
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

    /// Recognition plus chart statistics.
    pub fn recognize_with_stats(&self, tokens: &[u32]) -> (bool, EarleyStats) {
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
                self.cfg
                    .terminal_index(k)
                    .ok_or_else(|| UnknownKind { kind: (*k).to_string(), position: i })
            })
            .collect()
    }

    fn run(&self, tokens: &[u32]) -> (bool, EarleyStats) {
        let mut chart = self.begin();
        for &t in tokens {
            self.feed(&mut chart, t);
        }
        let accepted = self.accepted(&chart);
        (accepted, chart.stats())
    }

    // ------------------------------------------------------------------
    // Incremental (streaming) recognition
    // ------------------------------------------------------------------

    /// Opens an incremental chart: Earley set 0, seeded with the start
    /// nonterminal's productions and closed under prediction/completion.
    ///
    /// Earley recognition is naturally left-to-right — set `i` depends only
    /// on sets `0..i` and token `i-1` — so the chart doubles as a streaming
    /// session: [`feed`](EarleyParser::feed) one token at a time, query
    /// [`accepted`](EarleyParser::accepted) between tokens, and snapshot a
    /// prefix with [`EarleyChart::checkpoint`] (rollback simply truncates
    /// the chart back to that prefix — earlier sets are never mutated by
    /// later feeds).
    pub fn begin(&self) -> EarleyChart {
        let mut chart = EarleyChart { sets: vec![Vec::new()], seen: vec![HashSet::new()] };
        for &pi in self.cfg.productions_of(self.cfg.start()) {
            chart.add(Item { prod: pi as u32, dot: 0, origin: 0 }, 0);
        }
        self.close(&mut chart, 0);
        chart
    }

    /// Feeds one token: scans the (already closed) frontier set over `tok`
    /// into a new set, then closes it. Returns `false` when the new set is
    /// empty — no continuation of the input can be accepted.
    ///
    /// Feeding a dead chart is permitted and stays dead (the empty set
    /// scans to another empty set), so a driver can keep feeding and let
    /// the final [`accepted`](EarleyParser::accepted) answer.
    pub fn feed(&self, chart: &mut EarleyChart, tok: u32) -> bool {
        let i = chart.sets.len() - 1;
        chart.sets.push(Vec::new());
        chart.seen.push(HashSet::new());
        // Scanner over the closed set i.
        for idx in 0..chart.sets[i].len() {
            let item = chart.sets[i][idx];
            let p = &self.cfg.productions()[item.prod as usize];
            if p.rhs.get(item.dot as usize) == Some(&Symbol::T(tok)) {
                chart.add(Item { dot: item.dot + 1, ..item }, i + 1);
            }
        }
        self.close(chart, i + 1);
        !chart.sets[i + 1].is_empty()
    }

    /// The terminals the chart's frontier can scan next — exactly the set
    /// of tokens for which [`feed`](EarleyParser::feed) would produce a
    /// non-empty set. Sorted and deduplicated. This is the candidate set
    /// for chart re-seeding error recovery: on a dead feed, the recoverer
    /// rolls the chart back to the failure frontier and re-seeds it by
    /// feeding one of these.
    pub fn expected_terminals(&self, chart: &EarleyChart) -> Vec<u32> {
        let mut out: Vec<u32> = chart
            .sets
            .last()
            .expect("chart has a frontier")
            .iter()
            .filter_map(|item| {
                let p = &self.cfg.productions()[item.prod as usize];
                match p.rhs.get(item.dot as usize) {
                    Some(Symbol::T(t)) => Some(*t),
                    _ => None,
                }
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Does the chart's current frontier accept the prefix fed so far?
    pub fn accepted(&self, chart: &EarleyChart) -> bool {
        chart.sets.last().expect("chart has a frontier").iter().any(|item| {
            let p = &self.cfg.productions()[item.prod as usize];
            p.lhs == self.cfg.start() && item.origin == 0 && item.dot as usize == p.rhs.len()
        })
    }

    /// Closes set `i` under prediction and completion (the scanner runs at
    /// [`feed`](EarleyParser::feed) time, when the next token is known).
    fn close(&self, chart: &mut EarleyChart, i: usize) {
        let mut idx = 0;
        while idx < chart.sets[i].len() {
            let item = chart.sets[i][idx];
            idx += 1;
            let p = &self.cfg.productions()[item.prod as usize];
            match p.rhs.get(item.dot as usize) {
                Some(Symbol::T(_)) => {
                    // Scanner — deferred to the next feed.
                }
                Some(Symbol::N(nt)) => {
                    // Predictor.
                    for &pi in self.cfg.productions_of(*nt) {
                        chart.add(Item { prod: pi as u32, dot: 0, origin: i as u32 }, i);
                    }
                    // Aycock–Horspool: skip over nullable nonterminals.
                    if self.nullable[*nt as usize] {
                        chart.add(Item { dot: item.dot + 1, ..item }, i);
                    }
                }
                None => {
                    // Completer. Iterate by index: sets[origin] grows while
                    // we scan when origin == i (ε-cycles).
                    let lhs = p.lhs;
                    let origin = item.origin as usize;
                    let mut j = 0;
                    while j < chart.sets[origin].len() {
                        let cand = chart.sets[origin][j];
                        j += 1;
                        let cp = &self.cfg.productions()[cand.prod as usize];
                        if cp.rhs.get(cand.dot as usize) == Some(&Symbol::N(lhs)) {
                            chart.add(Item { dot: cand.dot + 1, ..cand }, i);
                        }
                    }
                }
            }
        }
    }
}

/// The owned state of an incremental Earley recognition: the chart prefix
/// built so far. Opaque, and only constructible through
/// [`EarleyParser::begin`] (which seeds set 0 — an empty chart would
/// violate the "there is always a frontier set" invariant); drive it with
/// [`EarleyParser::feed`] and [`EarleyParser::accepted`].
#[derive(Debug, Clone)]
pub struct EarleyChart {
    sets: Vec<Vec<Item>>,
    seen: Vec<HashSet<Item>>,
}

/// A saved chart position: rollback truncates the chart to this prefix.
///
/// Later feeds never mutate earlier sets (the closure of set `i` only adds
/// to set `i`, and the scanner only adds to set `i+1`), so truncation
/// restores the state after `tokens_fed` tokens exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EarleyCheckpoint {
    sets: usize,
}

impl EarleyCheckpoint {
    /// Number of tokens fed when this checkpoint was taken.
    pub fn tokens_fed(&self) -> usize {
        self.sets - 1
    }
}

impl EarleyChart {
    /// Number of tokens fed so far.
    pub fn tokens_fed(&self) -> usize {
        self.sets.len() - 1
    }

    /// Is the frontier empty (no continuation can be accepted)?
    pub fn is_dead(&self) -> bool {
        self.sets.last().is_none_or(Vec::is_empty)
    }

    /// Saves the current position (the chart prefix length).
    pub fn checkpoint(&self) -> EarleyCheckpoint {
        EarleyCheckpoint { sets: self.sets.len() }
    }

    /// Restores a checkpoint by truncating back to its prefix length.
    ///
    /// The restore is exact **only** for a checkpoint taken on this chart's
    /// current timeline (no rollback past its position since it was taken).
    /// This layer cannot tell a stale or foreign checkpoint with a
    /// plausible length from a valid one — it would silently truncate to a
    /// prefix describing different tokens; callers that need that
    /// validation use the `derp::api` session layer, whose timeline guard
    /// rejects invalidated checkpoints exactly.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's prefix is longer than the chart currently
    /// holds.
    pub fn rollback(&mut self, cp: &EarleyCheckpoint) {
        assert!(
            cp.sets <= self.sets.len(),
            "checkpoint for {} sets cannot restore a chart of {}",
            cp.sets,
            self.sets.len()
        );
        self.sets.truncate(cp.sets);
        self.seen.truncate(cp.sets);
    }

    /// Chart-size statistics for the prefix fed so far.
    pub fn stats(&self) -> EarleyStats {
        EarleyStats {
            set_sizes: self.sets.iter().map(Vec::len).collect(),
            total_items: self.sets.iter().map(Vec::len).sum(),
        }
    }

    fn add(&mut self, item: Item, at: usize) {
        if self.seen[at].insert(item) {
            self.sets[at].push(item);
        }
    }
}

// ---------------------------------------------------------------------
// Shared parse forests (SPPF) from the chart
// ---------------------------------------------------------------------

impl EarleyParser {
    /// The derivation facts the completed chart proves: every completed
    /// item `(p, origin) ∈ set[to]` is exactly the statement "production
    /// `p` derives `tokens[origin..to)`" — the input of the shared SPPF
    /// builder.
    pub fn production_spans(&self, chart: &EarleyChart) -> ProductionSpans {
        let mut spans = ProductionSpans::new();
        for (to, set) in chart.seen.iter().enumerate() {
            for item in set {
                let p = &self.cfg.productions()[item.prod as usize];
                if item.dot as usize == p.rhs.len() {
                    spans.insert(item.prod as usize, item.origin as usize, to);
                }
            }
        }
        spans
    }

    /// Builds the full shared parse forest of a fed chart: *all*
    /// derivations, packed per `(nonterminal, span)` with ambiguity nodes —
    /// cubic-sized where the tree set is exponential (or infinite). The
    /// lexeme text of token `i` is `texts[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `texts.len() != tokens.len()`.
    pub fn forest_from_chart(
        &self,
        chart: &EarleyChart,
        tokens: &[u32],
        texts: &[&str],
    ) -> ParseForest {
        let spans = self.production_spans(chart);
        build_sppf(&self.cfg, tokens, texts, &spans)
    }

    /// Parses `tokens` and returns the shared forest of **all** its
    /// derivations (the canonical empty forest for a rejected input).
    /// Lexeme texts default to the terminal kind names.
    pub fn parse_forest(&self, tokens: &[u32]) -> ParseForest {
        let mut chart = self.begin();
        for &t in tokens {
            self.feed(&mut chart, t);
        }
        let texts: Vec<&str> = tokens.iter().map(|&t| self.cfg.terminal_name(t)).collect();
        self.forest_from_chart(&chart, tokens, &texts)
    }

    /// Extracts **one** derivation tree for an accepted input (any
    /// derivation if ambiguous) — a shim over
    /// [`parse_forest`](EarleyParser::parse_forest) now that the chart builds full
    /// forests. Returns `None` if the input is not in the language.
    pub fn parse_tree(&self, tokens: &[u32]) -> Option<Tree> {
        let forest = self.parse_forest(tokens);
        // Deep enough for any minimal derivation (each derivation step
        // spends a handful of forest levels; unit chains are bounded by
        // the nonterminal count), yet bounded so cyclic forests terminate.
        let depth = 4 * (tokens.len() + 2) * (self.cfg.nonterminal_count() + 3) + 256;
        forest.trees(EnumLimits { max_trees: 1, max_depth: depth }).pop()
    }
}

#[cfg(test)]
mod tree_tests {
    use super::*;
    use pwd_forest::TreeCount;

    #[test]
    fn extracts_arithmetic_tree() {
        let cfg = pwd_grammar::grammars::arith::cfg();
        let p = EarleyParser::new(&cfg);
        let toks = p.kinds_to_tokens(&["NUM", "+", "NUM", "*", "NUM"]).unwrap();
        let tree = p.parse_tree(&toks).expect("accepted");
        assert_eq!(tree.leaves(), 5);
        // Precedence: the multiplication nests under the right T.
        assert_eq!(tree.to_string(), "(E (E (T (F NUM))) + (T (T (F NUM)) * (F NUM)))");
    }

    #[test]
    fn extracts_tree_with_epsilon() {
        let mut g = pwd_grammar::CfgBuilder::new("S");
        g.terminals(&["a", "b"]);
        g.rule("S", &["A", "b"]);
        g.rule("A", &[]);
        g.rule("A", &["a"]);
        let cfg = g.build().unwrap();
        let p = EarleyParser::new(&cfg);
        let toks = p.kinds_to_tokens(&["b"]).unwrap();
        let tree = p.parse_tree(&toks).expect("accepted");
        assert_eq!(tree.to_string(), "(S (A) b)");
    }

    #[test]
    fn left_recursive_tree() {
        let mut g = pwd_grammar::CfgBuilder::new("L");
        g.terminal("c");
        g.rule("L", &["L", "c"]);
        g.rule("L", &["c"]);
        let cfg = g.build().unwrap();
        let p = EarleyParser::new(&cfg);
        let toks = p.kinds_to_tokens(&["c", "c", "c"]).unwrap();
        let tree = p.parse_tree(&toks).expect("accepted");
        assert_eq!(tree.to_string(), "(L (L (L c) c) c)");
    }

    #[test]
    fn rejected_input_has_no_tree() {
        let cfg = pwd_grammar::grammars::arith::cfg();
        let p = EarleyParser::new(&cfg);
        let toks = p.kinds_to_tokens(&["NUM", "+"]).unwrap();
        assert!(p.parse_tree(&toks).is_none());
        assert!(!p.parse_forest(&toks).has_tree());
    }

    #[test]
    fn ambiguous_grammar_builds_exact_forest() {
        let cfg = pwd_grammar::grammars::ambiguous::catalan();
        let p = EarleyParser::new(&cfg);
        let catalan: [u128; 8] = [1, 1, 2, 5, 14, 42, 132, 429];
        for n in 1..=8usize {
            let toks = vec![0u32; n];
            let forest = p.parse_forest(&toks);
            assert_eq!(forest.count(), TreeCount::Finite(catalan[n - 1]), "n={n}");
        }
        let tree = p.parse_tree(&[0u32; 3]).expect("accepted");
        assert_eq!(tree.leaves(), 3);
    }

    #[test]
    fn python_statement_tree() {
        let cfg = pwd_grammar::grammars::python::cfg();
        let p = EarleyParser::new(&cfg);
        let lexemes = pwd_lex::tokenize_python("x = 1\n").unwrap();
        let toks: Vec<u32> = lexemes.iter().map(|l| cfg.terminal_index(&l.kind).unwrap()).collect();
        let tree = p.parse_tree(&toks).expect("accepted");
        assert_eq!(tree.leaves(), toks.len());
        assert!(tree.to_string().starts_with("(file_input"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwd_grammar::CfgBuilder;

    fn arith() -> EarleyParser {
        EarleyParser::new(&pwd_grammar::grammars::arith::cfg())
    }

    #[test]
    fn arithmetic() {
        let p = arith();
        assert!(p.recognize_kinds(&["NUM", "+", "NUM", "*", "NUM"]).unwrap());
        assert!(p.recognize_kinds(&["(", "NUM", ")", "*", "NUM"]).unwrap());
        assert!(!p.recognize_kinds(&["NUM", "+"]).unwrap());
        assert!(!p.recognize_kinds(&["+", "NUM"]).unwrap());
        assert!(!p.recognize_kinds(&[]).unwrap());
    }

    #[test]
    fn left_and_right_recursion() {
        let mut g = CfgBuilder::new("L");
        g.terminal("c");
        g.rule("L", &["L", "c"]);
        g.rule("L", &["c"]);
        let left = EarleyParser::new(&g.build().unwrap());
        assert!(left.recognize_kinds(&["c", "c", "c"]).unwrap());

        let mut g = CfgBuilder::new("R");
        g.terminal("c");
        g.rule("R", &["c", "R"]);
        g.rule("R", &["c"]);
        let right = EarleyParser::new(&g.build().unwrap());
        assert!(right.recognize_kinds(&["c", "c", "c"]).unwrap());
        assert!(!right.recognize_kinds(&[]).unwrap());
    }

    #[test]
    fn nullable_rules() {
        // S → A B, A → ε | 'a', B → 'b'.
        let mut g = CfgBuilder::new("S");
        g.terminals(&["a", "b"]);
        g.rule("S", &["A", "B"]);
        g.rule("A", &[]);
        g.rule("A", &["a"]);
        g.rule("B", &["b"]);
        let p = EarleyParser::new(&g.build().unwrap());
        assert!(p.recognize_kinds(&["b"]).unwrap());
        assert!(p.recognize_kinds(&["a", "b"]).unwrap());
        assert!(!p.recognize_kinds(&["a"]).unwrap());
    }

    #[test]
    fn deeply_nullable_chain() {
        // S → A A A, A → ε | 'a' — stresses the nullable fix.
        let mut g = CfgBuilder::new("S");
        g.terminal("a");
        g.rule("S", &["A", "A", "A"]);
        g.rule("A", &[]);
        g.rule("A", &["a"]);
        let p = EarleyParser::new(&g.build().unwrap());
        for n in 0..=3 {
            let kinds: Vec<&str> = std::iter::repeat_n("a", n).collect();
            assert!(p.recognize_kinds(&kinds).unwrap(), "n={n}");
        }
        assert!(!p.recognize_kinds(&["a", "a", "a", "a"]).unwrap());
    }

    #[test]
    fn hidden_left_recursion() {
        // S → A S 'b' | 'b', A → ε — hidden left recursion via nullable A.
        let mut g = CfgBuilder::new("S");
        g.terminal("b");
        g.rule("S", &["A", "S", "b"]);
        g.rule("S", &["b"]);
        g.rule("A", &[]);
        let p = EarleyParser::new(&g.build().unwrap());
        for n in 1..=6 {
            let kinds: Vec<&str> = std::iter::repeat_n("b", n).collect();
            assert!(p.recognize_kinds(&kinds).unwrap(), "n={n}");
        }
        assert!(!p.recognize_kinds(&[]).unwrap());
    }

    #[test]
    fn ambiguous_grammar() {
        let p = EarleyParser::new(&pwd_grammar::grammars::ambiguous::catalan());
        for n in 1..8 {
            let kinds: Vec<&str> = std::iter::repeat_n("a", n).collect();
            assert!(p.recognize_kinds(&kinds).unwrap(), "n={n}");
        }
        assert!(!p.recognize_kinds(&[]).unwrap());
    }

    #[test]
    fn python_module() {
        let p = EarleyParser::new(&pwd_grammar::grammars::python::cfg());
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
        assert_eq!(err.position, 1);
    }

    #[test]
    fn stats_report_chart_sizes() {
        let p = arith();
        let toks = p.kinds_to_tokens(&["NUM", "+", "NUM"]).unwrap();
        let (ok, stats) = p.recognize_with_stats(&toks);
        assert!(ok);
        assert_eq!(stats.set_sizes.len(), 4);
        assert!(stats.total_items > 0);
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
            let mut chart = p.begin();
            for &t in &toks {
                p.feed(&mut chart, t);
            }
            assert_eq!(p.accepted(&chart), batch, "{kinds:?}");
            assert_eq!(chart.tokens_fed(), toks.len());
        }
    }

    #[test]
    fn dead_chart_stays_dead_and_reports_it() {
        let p = arith();
        let toks = p.kinds_to_tokens(&["NUM", ")", "NUM"]).unwrap();
        let mut chart = p.begin();
        assert!(p.feed(&mut chart, toks[0]));
        assert!(!p.feed(&mut chart, toks[1]), "NUM ) is a dead prefix");
        assert!(chart.is_dead());
        assert!(!p.feed(&mut chart, toks[2]));
        assert!(!p.accepted(&chart));
    }

    #[test]
    fn checkpoint_rollback_truncates_to_prefix() {
        let p = arith();
        let toks = p.kinds_to_tokens(&["NUM", "+", "NUM", "*", "NUM"]).unwrap();
        let mut chart = p.begin();
        p.feed(&mut chart, toks[0]);
        assert!(p.accepted(&chart), "NUM alone is a sentence");
        let cp = chart.checkpoint();
        assert_eq!(cp.tokens_fed(), 1);
        // Speculate: NUM + NUM, then a dead continuation.
        p.feed(&mut chart, toks[1]);
        p.feed(&mut chart, toks[1]); // NUM + + → dead
        assert!(chart.is_dead());
        chart.rollback(&cp);
        assert_eq!(chart.tokens_fed(), 1);
        assert!(p.accepted(&chart));
        // The restored prefix continues exactly like a fresh parse.
        for &t in &toks[1..] {
            assert!(p.feed(&mut chart, t));
        }
        assert!(p.accepted(&chart));
        assert_eq!(chart.stats().set_sizes.len(), toks.len() + 1);
    }

    #[test]
    fn expected_terminals_predict_viable_feeds() {
        let p = arith();
        let toks = p.kinds_to_tokens(&["NUM", "+"]).unwrap();
        let mut chart = p.begin();
        for &t in &toks {
            p.feed(&mut chart, t);
        }
        let expected = p.expected_terminals(&chart);
        assert!(!expected.is_empty());
        for t in 0..p.cfg().terminal_count() as u32 {
            let mut probe = chart.clone();
            assert_eq!(
                p.feed(&mut probe, t),
                expected.contains(&t),
                "terminal {} ({})",
                t,
                p.cfg().terminal_name(t)
            );
        }
        // A dead frontier expects nothing.
        let bad = p.kinds_to_tokens(&[")"]).unwrap();
        let mut dead = p.begin();
        p.feed(&mut dead, bad[0]);
        assert!(dead.is_dead());
        assert!(p.expected_terminals(&dead).is_empty());
    }

    #[test]
    fn incremental_acceptance_tracks_every_prefix() {
        // Matched against the batch recognizer at every prefix length.
        let p = arith();
        let toks = p.kinds_to_tokens(&["NUM", "*", "(", "NUM", "+", "NUM", ")"]).unwrap();
        let mut chart = p.begin();
        assert_eq!(p.accepted(&chart), p.recognize(&[]));
        for (i, &t) in toks.iter().enumerate() {
            p.feed(&mut chart, t);
            assert_eq!(p.accepted(&chart), p.recognize(&toks[..=i]), "prefix {}", i + 1);
        }
    }
}
