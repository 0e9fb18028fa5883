//! Compiling a [`Cfg`] into a PWD expression graph (§2.5.1).
//!
//! Each production `N ::= X₁ … Xₖ` becomes the nested concatenation
//! `X₁ ◦ (X₂ ◦ (… ◦ Xₖ))` wrapped in a reduction that flattens the pair
//! spine into a labeled AST node `(N X₁ … Xₖ)`; a nonterminal's
//! alternatives are joined with `∪`, and nonterminal references become
//! direct pointers into the (cyclic) graph via `forward`/`define`.

use crate::cfg::{Cfg, Symbol};
use crate::kinds::KindMap;
use pwd_core::{Language, NodeId, ParserConfig, PwdError, Reduce, TermId, Token};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// A grammar compiled into a [`Language`], ready to parse token streams.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The underlying PWD engine; exposed for metrics, reset, and advanced
    /// use.
    pub lang: Language,
    /// The start node.
    pub start: NodeId,
    term_ids: Vec<TermId>,
    /// Token kinds to terminal indices, over the source grammar (shared by
    /// every fork).
    kinds: KindMap,
    /// One token per CFG terminal when the engine reads no lexemes
    /// ([`ParserConfig::class_keyed`]); empty otherwise.
    canonical: Vec<Token>,
}

/// Error produced when a token kind is not a terminal of the grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownTerminal {
    /// The unknown kind.
    pub kind: String,
    /// Index in the input lexeme stream.
    pub position: usize,
}

impl fmt::Display for UnknownTerminal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lexeme {} has kind {:?}, which is not a terminal of this grammar",
            self.position, self.kind
        )
    }
}

impl std::error::Error for UnknownTerminal {}

impl Compiled {
    /// Compiles a grammar with the given engine configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use pwd_grammar::{CfgBuilder, Compiled};
    /// use pwd_core::ParserConfig;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut g = CfgBuilder::new("S");
    /// g.terminal("a");
    /// g.rule("S", &["a", "S"]);
    /// g.rule("S", &[]);
    /// let mut c = Compiled::compile(&g.build()?, ParserConfig::improved());
    /// let toks = vec![c.token("a", "a").unwrap(); 3];
    /// assert!(c.lang.recognize(c.start, &toks)?);
    /// # Ok(())
    /// # }
    /// ```
    pub fn compile(cfg: &Cfg, config: ParserConfig) -> Compiled {
        let mut lang = Language::new(config);
        let term_ids: Vec<TermId> =
            (0..cfg.terminal_count()).map(|t| lang.terminal(cfg.terminal_name(t as u32))).collect();
        // Interned only under the gate, so token keys are numbered as
        // before everywhere else.
        let canonical = if lang.config().class_keyed() {
            (0..cfg.terminal_count())
                .map(|t| lang.token(term_ids[t], cfg.terminal_name(t as u32)))
                .collect()
        } else {
            Vec::new()
        };

        // Forward-declare every nonterminal so cycles resolve.
        let nts: Vec<NodeId> = (0..cfg.nonterminal_count())
            .map(|n| {
                let f = lang.forward();
                lang.set_label(f, cfg.nonterminal_name(n as u32));
                f
            })
            .collect();

        for (n, &fwd) in nts.iter().enumerate() {
            let mut alternatives: Vec<NodeId> = Vec::new();
            for &pi in cfg.productions_of(n as u32) {
                let p = &cfg.productions()[pi];
                let parts: Vec<NodeId> = p
                    .rhs
                    .iter()
                    .map(|s| match s {
                        Symbol::T(t) => lang.term_node(term_ids[*t as usize]),
                        Symbol::N(m) => nts[*m as usize],
                    })
                    .collect();
                let body = lang.seq(&parts);
                // A *structured* production label (not an opaque closure):
                // symbolically evaluable, so forests normalize to the same
                // canonical packed form every backend's SPPF builder emits.
                let node =
                    lang.reduce(body, Reduce::label(cfg.nonterminal_name(p.lhs), parts.len()));
                alternatives.push(node);
            }
            let body = lang.alts(&alternatives);
            lang.define(fwd, body);
        }

        let start = nts[cfg.start() as usize];
        let kinds = KindMap::new(Arc::new(cfg.clone()));
        Compiled { lang, start, term_ids, kinds, canonical }
    }

    /// Every terminal kind name of the grammar, in CFG index order — the
    /// candidate alphabet error recovery probes derivatives against.
    pub fn terminal_names(&self) -> &[String] {
        self.kinds.cfg().terminal_names()
    }

    /// The resolver from token kinds to this grammar's terminal indices,
    /// the indices [`token_at`](Compiled::token_at) takes.
    #[inline]
    pub fn kinds(&mut self) -> &mut KindMap {
        &mut self.kinds
    }

    /// Creates a token of the named terminal kind, or `None` if the kind is
    /// not part of this grammar.
    ///
    /// The lexeme is interned only when the engine can read it. Under
    /// [`ParserConfig::class_keyed`] (class keying, recognize mode, naming
    /// off) it cannot, so every token of a kind is that kind's one canonical
    /// token — its lexeme is the kind's name — and the interner stays at
    /// one token per terminal however much distinct text is parsed.
    pub fn token(&mut self, kind: &str, lexeme: &str) -> Option<Token> {
        let t = self.kinds.cfg().terminal_index(kind)?;
        self.token_at(t, lexeme).map(|(tok, _)| tok.into_owned())
    }

    /// [`token`](Compiled::token) for a caller about to feed the engine,
    /// by terminal index (from [`kinds`](Compiled::kinds)), or `None` if
    /// the grammar has no terminal `t`: the token, borrowed when it is the
    /// kind's canonical token (so a feed costs no reference-count traffic,
    /// and the lexeme is never read), together with the engine to feed it
    /// to. Inlined: it runs once per token fed, from another crate.
    #[inline]
    pub fn token_at(&mut self, t: u32, lexeme: &str) -> Option<(Cow<'_, Token>, &mut Language)> {
        let tok = match self.canonical.get(t as usize) {
            Some(tok) => Cow::Borrowed(tok),
            None => Cow::Owned(self.lang.token(*self.term_ids.get(t as usize)?, lexeme)),
        };
        Some((tok, &mut self.lang))
    }

    /// The engine terminal for a CFG terminal index.
    pub fn term_id(&self, t: u32) -> TermId {
        self.term_ids[t as usize]
    }

    /// Converts a lexer output stream into engine tokens, resolving each
    /// kind through [`kinds`](Compiled::kinds).
    ///
    /// # Errors
    ///
    /// [`UnknownTerminal`] if a lexeme kind is not a grammar terminal.
    pub fn tokens_from_lexemes(
        &mut self,
        lexemes: &[pwd_lex::Lexeme],
    ) -> Result<Vec<Token>, UnknownTerminal> {
        let kinds = &mut self.kinds;
        if let Some(position) =
            lexemes.iter().position(|l| kinds.resolve(l.kind.as_kind_ref()).is_none())
        {
            let kind = lexemes[position].kind.to_string();
            return Err(UnknownTerminal { kind, position });
        }
        // Every kind resolves, so the tokens are built by one exact-size
        // collect, with no capacity check per token.
        let Compiled { lang, term_ids, canonical, .. } = self;
        let tokens = lexemes.iter().map(|l| {
            let t = kinds.resolve(l.kind.as_kind_ref()).expect("resolved above") as usize;
            // The text is read only where the engine reads lexemes.
            match canonical.get(t) {
                Some(tok) => tok.clone(),
                None => lang.token(term_ids[t], &l.text),
            }
        });
        Ok(tokens.collect())
    }

    /// Convenience: recognize a lexeme stream.
    ///
    /// # Errors
    ///
    /// Engine errors from [`Language::recognize`]; unknown terminals are
    /// reported as `Ok(false)` would be wrong, so they surface as
    /// [`PwdError::Rejected`] at the offending position.
    pub fn recognize_lexemes(&mut self, lexemes: &[pwd_lex::Lexeme]) -> Result<bool, PwdError> {
        match self.tokens_from_lexemes(lexemes) {
            Ok(toks) => self.lang.recognize(self.start, &toks),
            Err(e) => Err(PwdError::Rejected { position: e.position, token: None }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::CfgBuilder;
    use pwd_core::EnumLimits;

    fn arith() -> Cfg {
        let mut g = CfgBuilder::new("E");
        g.terminals(&["+", "*", "(", ")", "NUM"]);
        g.rule("E", &["E", "+", "T"]);
        g.rule("E", &["T"]);
        g.rule("T", &["T", "*", "F"]);
        g.rule("T", &["F"]);
        g.rule("F", &["(", "E", ")"]);
        g.rule("F", &["NUM"]);
        g.build().unwrap()
    }

    /// The parse-mode arena per token on the paper's workload, at the end
    /// of a 1,358-token Python module's parse: it guards both the
    /// grammar-node size and the nodes each token derives (about 193, at
    /// 40 bytes each, plus the forest, its reduction table and the pools).
    /// It reads about 9.9 KB; a 48-byte node holding an `Arc` per reduction
    /// read 11.3 KB, and carrying every per-parse slot in a 112-byte node
    /// read about 29 KB. The node count has its own bound: compaction that
    /// walks the zombie cycles of left-recursive rules until its fuel runs
    /// out built about 241 nodes per token.
    #[test]
    fn python_parse_arena_stays_under_16_kb_per_token() {
        let src = crate::gen::python_source(1_000, 71);
        let lexemes = pwd_lex::tokenize_python(&src).expect("generated Python lexes");
        let mut c = Compiled::compile(&crate::grammars::python::cfg(), ParserConfig::improved());
        let tokens = c.tokens_from_lexemes(&lexemes).expect("grammar kinds intern");
        let start = c.start;
        let before = c.lang.metrics().nodes_created;
        let forest = c.lang.parse_forest(start, &tokens).expect("the module parses");
        assert!(c.lang.has_tree(forest));
        let per_token = c.lang.arena_bytes() / tokens.len();
        assert!(per_token < 16_000, "{per_token} arena bytes per token");
        let nodes = (c.lang.metrics().nodes_created - before) as f64 / tokens.len() as f64;
        assert!(nodes < 210.0, "{nodes:.1} nodes created per token");
    }

    fn toks(c: &mut Compiled, spec: &str) -> Vec<Token> {
        // spec: space-separated "kind" or "kind:lexeme"
        spec.split_whitespace()
            .map(|s| {
                let (kind, lex) = match s.split_once(':') {
                    Some((k, l)) => (k, l),
                    None => (s, s),
                };
                c.token(kind, lex).unwrap_or_else(|| panic!("unknown terminal {kind}"))
            })
            .collect()
    }

    #[test]
    fn arithmetic_recognition() {
        let mut c = Compiled::compile(&arith(), ParserConfig::improved());
        let good = toks(&mut c, "NUM:1 + NUM:2 * NUM:3");
        assert!(c.lang.recognize(c.start, &good).unwrap());
        c.lang.reset();
        let bad = toks(&mut c, "NUM:1 + *");
        assert!(!c.lang.recognize(c.start, &bad).unwrap());
    }

    #[test]
    fn arithmetic_tree_respects_precedence() {
        let mut c = Compiled::compile(&arith(), ParserConfig::improved());
        let input = toks(&mut c, "NUM:1 + NUM:2 * NUM:3");
        let start = c.start;
        let tree = c.lang.parse_unique(start, &input).unwrap().expect("unambiguous");
        // E → E + T with the T containing the multiplication.
        let s = tree.to_string();
        assert_eq!(s, "(E (E (T (F 1))) + (T (T (F 2)) * (F 3)))");
    }

    #[test]
    fn epsilon_productions_compile() {
        let mut g = CfgBuilder::new("S");
        g.terminal("a");
        g.rule("S", &["a", "S"]);
        g.rule("S", &[]);
        let mut c = Compiled::compile(&g.build().unwrap(), ParserConfig::improved());
        let start = c.start;
        let empty: Vec<Token> = Vec::new();
        assert!(c.lang.recognize(start, &empty).unwrap());
        c.lang.reset();
        let input = toks(&mut c, "a a a");
        let tree = c.lang.parse_unique(start, &input).unwrap().expect("unambiguous");
        assert_eq!(tree.to_string(), "(S a (S a (S a (S))))");
    }

    #[test]
    fn ambiguous_grammar_counts() {
        let mut g = CfgBuilder::new("S");
        g.terminal("a");
        g.rule("S", &["S", "S"]);
        g.rule("S", &["a"]);
        let mut c = Compiled::compile(&g.build().unwrap(), ParserConfig::improved());
        let start = c.start;
        let input = toks(&mut c, "a a a a");
        assert_eq!(c.lang.count_parses(start, &input).unwrap(), pwd_core::TreeCount::Finite(5));
    }

    #[test]
    fn ambiguous_trees_are_distinct() {
        let mut g = CfgBuilder::new("E");
        g.terminals(&["+", "n"]);
        g.rule("E", &["E", "+", "E"]);
        g.rule("E", &["n"]);
        let mut c = Compiled::compile(&g.build().unwrap(), ParserConfig::improved());
        let start = c.start;
        let input = toks(&mut c, "n + n + n");
        let trees = c.lang.parse_trees(start, &input, EnumLimits::default()).unwrap();
        assert_eq!(trees.len(), 2, "left- and right-association");
        let strs: std::collections::HashSet<String> = trees.iter().map(|t| t.to_string()).collect();
        assert_eq!(strs.len(), 2);
    }

    #[test]
    fn unknown_terminal_reported() {
        let mut c = Compiled::compile(&arith(), ParserConfig::improved());
        assert!(c.token("NOPE", "x").is_none());
        let lexemes = vec![pwd_lex::Lexeme { kind: "NOPE".into(), text: "x".into(), offset: 0 }];
        let err = c.tokens_from_lexemes(&lexemes).unwrap_err();
        assert_eq!(err.kind, "NOPE");
        assert_eq!(err.position, 0);
    }

    #[test]
    fn token_at_borrows_the_canonical_token_and_matches_token() {
        let config =
            ParserConfig { mode: pwd_core::ParseMode::Recognize, ..ParserConfig::improved() };
        let mut c = Compiled::compile(&arith(), config);
        let num = arith().terminal_index("NUM").unwrap();
        let owned = c.token("NUM", "7").unwrap();
        let (tok, _) = c.token_at(num, "8").unwrap();
        assert!(matches!(tok, Cow::Borrowed(_)), "class-keyed kinds share one token");
        assert_eq!(*tok, owned);
        let mut parse = Compiled::compile(&arith(), ParserConfig::improved());
        let (tok, _) = parse.token_at(num, "8").unwrap();
        assert!(matches!(tok, Cow::Owned(_)), "parse mode interns each lexeme");
        assert_eq!(tok.lexeme(), "8");
        assert!(parse.token("NOPE", "x").is_none());
        assert!(parse.token_at(arith().terminal_count() as u32, "x").is_none());
    }

    #[test]
    fn lexer_to_parser_pipeline() {
        let lexer = pwd_lex::LexerBuilder::new()
            .rule("NUM", r"[0-9]+")
            .unwrap()
            .rule("+", r"\+")
            .unwrap()
            .rule("*", r"\*")
            .unwrap()
            .rule("(", r"\(")
            .unwrap()
            .rule(")", r"\)")
            .unwrap()
            .skip("WS", r" +")
            .unwrap()
            .build();
        let lexemes = lexer.tokenize("(1 + 2) * 3").unwrap();
        let mut c = Compiled::compile(&arith(), ParserConfig::improved());
        assert!(c.recognize_lexemes(&lexemes).unwrap());
    }
}
