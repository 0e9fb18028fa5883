//! [`SharedStr`]: an immutable string slice that shares its allocation.
//!
//! A [`Lexeme`](crate::Lexeme)'s kind and text are `SharedStr`s. The kind is
//! a handle to the lexer rule's name and the text a slice of one shared copy
//! of the lexed input, so producing a token stream allocates a constant
//! number of times per call instead of twice per token. Equality, ordering
//! and hashing follow the string alone, never the backing it was cut from.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A cheaply clonable, immutable string: a byte range of a shared,
/// reference-counted backing string.
///
/// Cloning bumps a reference count; nothing is copied. A handle keeps its
/// whole backing alive, so a lexeme cut from a large input holds that input
/// until the last lexeme sharing it is dropped.
///
/// # Examples
///
/// ```
/// use pwd_lex::SharedStr;
///
/// let s = SharedStr::from("NUM");
/// assert_eq!(s, "NUM");
/// assert_eq!(s.as_str().len(), 3);
/// assert_eq!(s.clone(), SharedStr::from(String::from("NUM")));
/// ```
#[derive(Clone)]
pub struct SharedStr {
    backing: Arc<str>,
    start: usize,
    end: usize,
}

impl SharedStr {
    /// The string this handle denotes.
    pub fn as_str(&self) -> &str {
        &self.backing[self.start..self.end]
    }

    /// A handle to `range` (byte offsets into this string) sharing the same
    /// backing. The range must lie on character boundaries within the
    /// string; the scanners that call this only cut spans they matched, and
    /// [`as_str`](SharedStr::as_str) checks the bounds on every read.
    pub(crate) fn slice(&self, range: Range<usize>) -> SharedStr {
        debug_assert!(self.as_str().get(range.clone()).is_some(), "{range:?} is not a slice");
        SharedStr {
            backing: Arc::clone(&self.backing),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }
}

impl From<&str> for SharedStr {
    fn from(s: &str) -> SharedStr {
        SharedStr { backing: Arc::from(s), start: 0, end: s.len() }
    }
}

impl From<String> for SharedStr {
    fn from(s: String) -> SharedStr {
        SharedStr::from(s.as_str())
    }
}

impl Deref for SharedStr {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for SharedStr {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for SharedStr {
    fn eq(&self, other: &SharedStr) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for SharedStr {}

impl PartialEq<str> for SharedStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for SharedStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl Hash for SharedStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for SharedStr {
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
    fn a_slice_compares_and_hashes_by_its_text() {
        let whole = SharedStr::from("let x = 42;");
        let x = whole.slice(4..5);
        let num = whole.slice(8..10);
        assert_eq!(x, "x");
        assert_eq!(num, SharedStr::from("42"));
        assert_eq!(hash_of(&num), hash_of(&SharedStr::from("42")));
        assert_eq!(hash_of(&num), hash_of("42"), "hashed as the str it denotes");
        assert_eq!(format!("{num:?}"), "\"42\"");
    }

    #[test]
    fn a_slice_of_a_slice_stays_relative() {
        let whole = SharedStr::from("abcdef");
        let mid = whole.slice(1..5);
        assert_eq!(mid.slice(1..3), "cd");
        assert_eq!(mid.slice(4..4), "");
    }

    #[test]
    #[should_panic]
    fn reading_a_slice_inside_a_character_panics() {
        let _ = SharedStr { backing: Arc::from("§"), start: 0, end: 1 }.as_str();
    }
}
