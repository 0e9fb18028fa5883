//! [`KindMap`]: token kinds to grammar terminals, once per lexer.
//!
//! A lexed token names its kind by index into its lexer's shared
//! [`KindTable`]. A parser needs the grammar's terminal index instead: the
//! order [`Cfg`] numbers its terminals in, which the Earley and GLR parsers
//! run on and [`Compiled`](crate::Compiled)'s engine terminals follow. A
//! `KindMap` keeps one array from the kind indices of the last table it
//! met to terminal indices, so resolving a lexed token is one pointer
//! compare and one array read; a kind's name is looked up in the grammar
//! the first time the map meets it, and never again while the table stays.

use crate::cfg::Cfg;
use pwd_lex::{KindRef, KindTable};
use std::sync::Arc;

/// A kind whose name has not been looked up yet.
const PENDING: u32 = u32::MAX;

/// A kind whose name is not a terminal of the grammar.
const UNKNOWN: u32 = u32::MAX - 1;

/// Resolves token kinds to the terminal indices of one grammar.
///
/// A kind from a lexer's table resolves through the map, which follows the
/// last table it met: a stream from another lexer replaces the map, so a
/// pooled parser fed by one lexer keeps it across requests. The map holds
/// that table, so a dropped lexer's table can never be freed and another
/// allocated at its address while the map reads it. A kind known only by
/// name (a kind sequence, a hand-built lexeme) resolves by name.
///
/// # Examples
///
/// ```
/// use pwd_grammar::{CfgBuilder, KindMap};
/// use pwd_lex::{KindRef, LexerBuilder};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = CfgBuilder::new("S");
/// g.terminals(&["a", "b"]);
/// g.rule("S", &["a", "b"]);
/// let mut kinds = KindMap::new(Arc::new(g.build()?));
///
/// let lexer = LexerBuilder::new().rule("b", "b")?.rule("c", "c")?.rule("a", "a")?.build();
/// let lexemes = lexer.tokenize("abc")?;
/// let terms: Vec<Option<u32>> =
///     lexemes.iter().map(|l| kinds.resolve(l.kind.as_kind_ref())).collect();
/// assert_eq!(terms, [Some(0), Some(1), None]);
/// assert_eq!(kinds.resolve(KindRef::name("b")), Some(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct KindMap {
    cfg: Arc<Cfg>,
    /// The lexer table `terms` follows.
    table: Option<Arc<KindTable>>,
    /// Per kind index of `table`: its terminal index, [`UNKNOWN`] or
    /// [`PENDING`].
    terms: Vec<u32>,
}

impl KindMap {
    /// An empty map onto `cfg`'s terminals.
    pub fn new(cfg: Arc<Cfg>) -> KindMap {
        KindMap { cfg, table: None, terms: Vec::new() }
    }

    /// The grammar the map resolves into.
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// The terminal index of `kind`, or `None` when the grammar has no
    /// terminal of that name. Inlined: parsers in other crates call it once
    /// per token.
    #[inline]
    pub fn resolve(&mut self, kind: KindRef<'_>) -> Option<u32> {
        if let (Some((table, index)), Some(current)) = (kind.indexed(), &self.table) {
            if Arc::ptr_eq(table, current) {
                let t = self.terms[index as usize];
                if t < UNKNOWN {
                    return Some(t);
                }
            }
        }
        self.resolve_slow(kind)
    }

    /// [`resolve`](KindMap::resolve) for a kind known by name, from another
    /// table, not yet looked up, or not a terminal.
    fn resolve_slow(&mut self, kind: KindRef<'_>) -> Option<u32> {
        let Some((table, index)) = kind.indexed() else {
            return self.cfg.terminal_index(kind.as_str());
        };
        if !self.table.as_ref().is_some_and(|current| Arc::ptr_eq(table, current)) {
            self.table = Some(Arc::clone(table));
            self.terms.clear();
            self.terms.resize(table.len(), PENDING);
        }
        let slot = &mut self.terms[index as usize];
        if *slot == PENDING {
            *slot = self.cfg.terminal_index(table.name(index)).unwrap_or(UNKNOWN);
        }
        (*slot != UNKNOWN).then_some(*slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::CfgBuilder;
    use pwd_lex::{Kind, LexerBuilder};

    fn grammar() -> Arc<Cfg> {
        let mut g = CfgBuilder::new("S");
        g.terminals(&["NUM", "+", "ID"]);
        g.rule("S", &["NUM", "+", "ID"]);
        Arc::new(g.build().expect("valid grammar"))
    }

    #[test]
    fn lexed_kinds_follow_the_last_table_and_names_resolve_by_name() {
        let lexer = |rules: &[(&str, &str)]| {
            let mut b = LexerBuilder::new();
            for (name, pattern) in rules {
                b = b.rule(name, pattern).expect("valid pattern");
            }
            b.build()
        };
        let one = lexer(&[("ID", "x"), ("NUM", "1"), ("+", r"\+")]);
        let two = lexer(&[("+", r"\+"), ("WS", " "), ("NUM", "1")]);
        let mut kinds = KindMap::new(grammar());
        let resolve = |kinds: &mut KindMap, lexer: &pwd_lex::Lexer, text: &str| {
            let lexemes = lexer.tokenize(text).expect("lexes");
            lexemes.iter().map(|l| kinds.resolve(l.kind.as_kind_ref())).collect::<Vec<_>>()
        };
        for _ in 0..2 {
            assert_eq!(resolve(&mut kinds, &one, "1+x"), [Some(0), Some(1), Some(2)]);
            assert_eq!(resolve(&mut kinds, &two, "1+ "), [Some(0), Some(1), None]);
        }
        assert_eq!(kinds.resolve(Kind::from("ID").as_kind_ref()), Some(2));
        assert_eq!(kinds.resolve(KindRef::name("+")), Some(1));
        assert_eq!(kinds.resolve(KindRef::name("WS")), None);
        assert!(Arc::ptr_eq(kinds.table.as_ref().expect("a table"), two.kinds()), "unchanged");
    }
}
