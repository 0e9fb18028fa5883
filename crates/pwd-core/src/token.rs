//! Tokens and interning.
//!
//! Terminals are interned to [`TermId`]s and whole tokens (terminal kind plus
//! lexeme) to [`TokKey`]s. Keying the `derive` memo tables by token *value*
//! (not input position) is what gives the paper's Figure 10–12 cache
//! dynamics: a token that recurs in the input can hit a full-hash memo entry
//! created at an earlier position, while the forgetful single-entry cache may
//! have evicted it.
//!
//! [`DeriveKey`] is the unit actually stored in the memo slots: depending on
//! the engine's [`MemoKeying`](crate::MemoKeying) it wraps either a [`TokKey`]
//! (the paper's value keying) or a [`TermId`] (class keying, which lets all
//! lexemes of one terminal share a recognize-mode derivative).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Interned identifier of a terminal (token kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub(crate) u32);

impl TermId {
    /// The raw index of this terminal.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interned identifier of a token value `(TermId, lexeme)`.
///
/// Two tokens with the same kind and lexeme — even at different input
/// positions — intern to the same key, and therefore the same memoized
/// derivative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TokKey(pub(crate) u32);

impl TokKey {
    /// The raw index of this token value.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The key a `derive` memo entry is stored under.
///
/// A parse uses one keying uniformly (it is fixed by the engine
/// configuration before the first token), so the wrapped `u32` is never
/// ambiguous: under value keying it is a [`TokKey`] index, under class
/// keying a [`TermId`] index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct DeriveKey(u32);

impl DeriveKey {
    /// The key of an empty memo slot. No terminal or token value is ever
    /// interned at index `u32::MAX`, so it never equals a real key.
    pub(crate) const NONE: DeriveKey = DeriveKey(u32::MAX);

    /// Value keying: one memo entry per distinct `(kind, lexeme)`.
    pub(crate) fn value(key: TokKey) -> DeriveKey {
        DeriveKey(key.0)
    }

    /// Class keying: one memo entry per terminal kind, shared by every
    /// lexeme of that kind.
    pub(crate) fn class(term: TermId) -> DeriveKey {
        DeriveKey(term.0)
    }
}

/// A concrete input token: a terminal kind plus its lexeme.
///
/// # Examples
///
/// ```
/// use pwd_core::Language;
/// let mut lang = Language::default();
/// let num = lang.terminal("NUM");
/// let tok = lang.token(num, "42");
/// assert_eq!(tok.lexeme(), "42");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Token {
    pub(crate) term: TermId,
    pub(crate) key: TokKey,
    pub(crate) lexeme: Arc<str>,
}

impl Token {
    /// The terminal kind of this token.
    pub fn term(&self) -> TermId {
        self.term
    }

    /// The interned key of this token value.
    pub fn key(&self) -> TokKey {
        self.key
    }

    /// The lexeme text.
    pub fn lexeme(&self) -> &str {
        &self.lexeme
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.lexeme)
    }
}

/// Interner for terminal names and token values.
///
/// The token table is nested per terminal (`tok_keys[term] : lexeme → key`)
/// so the hot path — re-interning a token value already seen — is a single
/// `&str` lookup with **no allocation**; this is the memo boundary the
/// streaming lexer feeds borrowed text into, once per token.
#[derive(Debug, Default, Clone)]
pub(crate) struct Interner {
    term_names: Vec<Arc<str>>,
    term_ids: HashMap<Arc<str>, TermId>,
    /// Per-terminal lexeme → key maps (indexed by `TermId`).
    tok_keys: Vec<HashMap<Arc<str>, TokKey>>,
    toks: Vec<Token>,
}

impl Interner {
    pub(crate) fn terminal(&mut self, name: &str) -> TermId {
        if let Some(&id) = self.term_ids.get(name) {
            return id;
        }
        let rc: Arc<str> = Arc::from(name);
        let id = TermId(self.term_names.len() as u32);
        self.term_names.push(rc.clone());
        self.term_ids.insert(rc, id);
        self.tok_keys.push(HashMap::new());
        id
    }

    pub(crate) fn term_name(&self, id: TermId) -> &str {
        &self.term_names[id.0 as usize]
    }

    /// The interned (shared) name of a terminal — the allocation-free way
    /// to stamp forest leaves with their kind.
    pub(crate) fn term_name_arc(&self, id: TermId) -> Arc<str> {
        self.term_names[id.0 as usize].clone()
    }

    pub(crate) fn term_count(&self) -> usize {
        self.term_names.len()
    }

    pub(crate) fn token(&mut self, term: TermId, lexeme: &str) -> Token {
        assert!(
            (term.0 as usize) < self.term_names.len(),
            "terminal {term:?} does not belong to this language"
        );
        // Hit path: borrow-only lookup, no Arc allocated.
        if let Some(&key) = self.tok_keys[term.0 as usize].get(lexeme) {
            return self.toks[key.0 as usize].clone();
        }
        let rc: Arc<str> = Arc::from(lexeme);
        let key = TokKey(self.toks.len() as u32);
        let tok = Token { term, key, lexeme: rc.clone() };
        self.tok_keys[term.0 as usize].insert(rc, key);
        self.toks.push(tok.clone());
        tok
    }

    pub(crate) fn tok_count(&self) -> usize {
        self.toks.len()
    }

    pub(crate) fn token_by_key(&self, key: TokKey) -> &Token {
        &self.toks[key.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_are_deduplicated() {
        let mut i = Interner::default();
        let a = i.terminal("NUM");
        let b = i.terminal("NUM");
        let c = i.terminal("ID");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.term_name(a), "NUM");
        assert_eq!(i.term_count(), 2);
    }

    #[test]
    fn tokens_intern_by_value() {
        let mut i = Interner::default();
        let num = i.terminal("NUM");
        let id = i.terminal("ID");
        let a = i.token(num, "42");
        let b = i.token(num, "42");
        let c = i.token(num, "43");
        let d = i.token(id, "42");
        assert_eq!(a.key(), b.key(), "same kind+lexeme interns to same key");
        assert_ne!(a.key(), c.key(), "different lexeme, different key");
        assert_ne!(a.key(), d.key(), "different kind, different key");
        assert_eq!(i.tok_count(), 3);
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn foreign_terminal_panics() {
        let mut i = Interner::default();
        i.token(TermId(7), "x");
    }

    #[test]
    fn token_display_is_lexeme() {
        let mut i = Interner::default();
        let num = i.terminal("NUM");
        let t = i.token(num, "99");
        assert_eq!(t.to_string(), "99");
    }
}
