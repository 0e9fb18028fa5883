//! Token kinds as integers: a lexer's [`KindTable`], the [`Kind`] handle a
//! [`Lexeme`](crate::Lexeme) carries, and the borrowed [`KindRef`] a
//! [`ScannedToken`](crate::ScannedToken) carries.
//!
//! A lexer knows each match's rule by index, as a lex scanner hands yacc an
//! integer token code. Its kinds are one immutable table of names, shared
//! by every token it produces, and a token names its kind by index into
//! that table. A parser maps each table index to a grammar terminal once
//! per table (see `pwd_grammar::KindMap`), so no kind string is read,
//! hashed or compared per token. The name stays one table read away, and
//! equality, hashing and `Debug` follow it, never the table or the index.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// The kinds of one lexer: its rule names in rule order, then any further
/// kinds its tokenizer emits (the Python tokenizer's layout kinds and
/// keywords). Immutable once built and shared by every token of the lexer.
pub struct KindTable {
    names: Box<[Box<str>]>,
    /// Built for one hand-built kind, not by a lexer: such a kind resolves
    /// by name ([`KindRef::indexed`] hides its table).
    hand_built: bool,
}

impl KindTable {
    /// A lexer's table over `names`.
    pub(crate) fn new<'a>(names: impl IntoIterator<Item = &'a str>) -> Arc<KindTable> {
        let names = names.into_iter().map(Box::from).collect();
        Arc::new(KindTable { names, hand_built: false })
    }

    /// Number of kinds.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Does the table hold no kind?
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The name of kind `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn name(&self, index: u32) -> &str {
        &self.names[index as usize]
    }
}

impl fmt::Debug for KindTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.names.iter()).finish()
    }
}

/// A token kind: an index into its lexer's shared [`KindTable`].
///
/// Cloning bumps the table's reference count; nothing is copied. A kind
/// built by hand (`"NUM".into()`) gets a one-name table of its own and
/// resolves by name. Equality, hashing and `Debug` follow the name alone,
/// so a lexed kind equals a hand-built one of the same name.
///
/// # Examples
///
/// ```
/// use pwd_lex::{Kind, LexerBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lexer = LexerBuilder::new().rule("NUM", r"[0-9]+")?.build();
/// let lexed = lexer.tokenize("42")?.remove(0).kind;
/// assert_eq!(lexed, "NUM");
/// assert_eq!(lexed, Kind::from("NUM"));
/// assert_eq!(lexed.as_kind_ref().indexed().map(|(_, i)| i), Some(0));
/// assert!(Kind::from("NUM").as_kind_ref().indexed().is_none(), "resolved by name");
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Kind {
    table: Arc<KindTable>,
    index: u32,
}

impl Kind {
    /// Kind `index` of `table`.
    pub(crate) fn at(table: &Arc<KindTable>, index: u32) -> Kind {
        debug_assert!((index as usize) < table.len(), "kind {index} is outside its table");
        Kind { table: Arc::clone(table), index }
    }

    /// The kind's name.
    pub fn as_str(&self) -> &str {
        self.table.name(self.index)
    }

    /// The kind's index in its table.
    pub(crate) fn index(&self) -> u32 {
        self.index
    }

    /// The borrowed handle a [`ScannedToken`](crate::ScannedToken) carries.
    #[inline]
    pub fn as_kind_ref(&self) -> KindRef<'_> {
        KindRef(Repr::Indexed(&self.table, self.index))
    }
}

impl From<&str> for Kind {
    fn from(name: &str) -> Kind {
        let table = KindTable { names: Box::new([Box::from(name)]), hand_built: true };
        Kind { table: Arc::new(table), index: 0 }
    }
}

impl From<String> for Kind {
    fn from(name: String) -> Kind {
        Kind::from(name.as_str())
    }
}

impl Deref for Kind {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Kind {
    fn eq(&self, other: &Kind) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Kind {}

impl PartialEq<&str> for Kind {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl Hash for Kind {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// A borrowed token kind: an index into a lexer's [`KindTable`], or a bare
/// name (a kind sequence, a single fed kind, a hand-built kind).
/// Equality and `Debug` follow the name.
#[derive(Clone, Copy)]
pub struct KindRef<'a>(Repr<'a>);

#[derive(Clone, Copy)]
enum Repr<'a> {
    Indexed(&'a Arc<KindTable>, u32),
    Name(&'a str),
}

impl<'a> KindRef<'a> {
    /// Kind `index` of `table`.
    pub(crate) fn at(table: &'a Arc<KindTable>, index: u32) -> KindRef<'a> {
        KindRef(Repr::Indexed(table, index))
    }

    /// A kind given by name alone.
    pub fn name(name: &'a str) -> KindRef<'a> {
        KindRef(Repr::Name(name))
    }

    /// The kind's name.
    pub fn as_str(&self) -> &'a str {
        match self.0 {
            Repr::Indexed(table, index) => table.name(index),
            Repr::Name(name) => name,
        }
    }

    /// The lexer table and the index the kind has there, or `None` for a
    /// kind known only by name (including a hand-built [`Kind`]).
    #[inline]
    pub fn indexed(&self) -> Option<(&'a Arc<KindTable>, u32)> {
        match self.0 {
            Repr::Indexed(table, index) if !table.hand_built => Some((table, index)),
            _ => None,
        }
    }
}

impl Deref for KindRef<'_> {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for KindRef<'_> {
    fn eq(&self, other: &KindRef<'_>) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for KindRef<'_> {}

impl PartialEq<&str> for KindRef<'_> {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for KindRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn kinds_compare_and_hash_by_name() {
        let table = KindTable::new(["ID", "NUM", "NUM"]);
        let (num, num_too, id) = (Kind::at(&table, 1), Kind::at(&table, 2), Kind::at(&table, 0));
        assert_eq!(num, num_too, "two rules of one name are one kind");
        assert_eq!(num, Kind::from("NUM"));
        assert_ne!(num, id);
        assert_eq!(hash_of(&num), hash_of(&Kind::from("NUM")));
        assert_eq!(hash_of(&num), hash_of("NUM"), "hashed as the str it names");
        assert_eq!(format!("{num:?}"), "\"NUM\"");
        assert_eq!(num.as_kind_ref(), KindRef::name("NUM"));
        assert_eq!(format!("{table:?}"), "[\"ID\", \"NUM\", \"NUM\"]");
    }

    #[test]
    fn only_lexer_kinds_are_indexed() {
        let table = KindTable::new(["ID", "NUM"]);
        let lexed = Kind::at(&table, 1);
        let (t, i) = lexed.as_kind_ref().indexed().expect("a lexer kind");
        assert!(Arc::ptr_eq(t, &table) && i == 1);
        assert!(Kind::from("NUM").as_kind_ref().indexed().is_none());
        assert!(KindRef::name("NUM").indexed().is_none());
        assert_eq!(Kind::from(String::from("NUM")).as_str(), "NUM");
    }
}
