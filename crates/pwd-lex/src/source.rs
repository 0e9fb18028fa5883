//! Pull-based token streams: the [`TokenSource`] trait and its adapters.
//!
//! The PLDI 2016 paper's key observation is that the parser state after `k`
//! tokens is itself a first-class language — which makes parsing with
//! derivatives *naturally* streaming: a parser never needs to see the whole
//! input, only the next token. [`TokenSource`] is the input half of that
//! pipeline: a pull-based stream of `(kind, span)` items over a borrowed
//! input buffer, so lexing and parsing fuse into one pass with **no
//! intermediate `Vec<Lexeme>`** and no per-token `String` allocation.
//!
//! Three producers are provided:
//!
//! * [`Lexer::source`](crate::Lexer::source) — the streaming lexer: scans
//!   the input lazily, one maximal-munch match per pull;
//! * [`LexemeSource`] — adapts an already-materialized `&[Lexeme]` slice
//!   (the legacy batch shape) to the streaming interface;
//! * [`KindSource`] — adapts a bare kind sequence (`&[&str]`, `&[String]`;
//!   grammar-level tests, differential harnesses and kinds requests), with
//!   token-index spans.
//!
//! The consumer half is a parser `Session` (see `derp::api`): every backend
//! accepts any `TokenSource`, so the same stream can drive PWD, Earley, or
//! GLR without materializing tokens.

use crate::kind::KindRef;
use crate::lexer::{LexError, Lexeme};
use crate::span::Span;

/// One token pulled from a [`TokenSource`]: a kind, the matched text, and
/// its byte [`Span`] — all borrowed, nothing owned. A lexer's token names
/// its kind by index into the lexer's kind table; a bare kind sequence's
/// by name.
///
/// The borrows are tied to the pull (`next_token` takes `&mut self`), so a
/// scanned token must be consumed — fed to a parser, interned, or copied —
/// before the next pull. That is exactly the restriction that lets the
/// lexer run zero-copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScannedToken<'a> {
    /// The token kind (lexer rule / grammar terminal).
    pub kind: KindRef<'a>,
    /// The matched text (for [`KindSource`], the kind itself).
    pub text: &'a str,
    /// Byte range of the match in the underlying buffer (token-index range
    /// for [`KindSource`], which has no buffer).
    pub span: Span,
}

/// A pull-based stream of `(kind, span)` tokens over a borrowed input
/// buffer — the streaming boundary between lexing and parsing.
///
/// `None` means end of input; `Some(Err(_))` reports the position where no
/// rule matched (with the offending slice). Errors need not be terminal:
/// the [`Lexer::source`](crate::Lexer::source) stream advances past the
/// offending character, so an error-tolerant consumer can keep pulling to
/// collect diagnostics. Implementations are free to be lazy — that stream
/// does not touch byte `i` until every token before `i` has been pulled.
pub trait TokenSource {
    /// Pulls the next token.
    ///
    /// The returned borrows live until the next call — consume the token
    /// before pulling again.
    fn next_token(&mut self) -> Option<Result<ScannedToken<'_>, LexError>>;
}

/// Streams a pre-lexed `&[Lexeme]` slice — the adapter that lets batch
/// callers ride the streaming pipeline unchanged.
#[derive(Debug, Clone)]
pub struct LexemeSource<'a> {
    lexemes: &'a [Lexeme],
    pos: usize,
}

impl<'a> LexemeSource<'a> {
    /// Wraps a lexeme slice.
    pub fn new(lexemes: &'a [Lexeme]) -> LexemeSource<'a> {
        LexemeSource { lexemes, pos: 0 }
    }
}

impl TokenSource for LexemeSource<'_> {
    #[inline]
    fn next_token(&mut self) -> Option<Result<ScannedToken<'_>, LexError>> {
        let l = self.lexemes.get(self.pos)?;
        self.pos += 1;
        Some(Ok(ScannedToken {
            kind: l.kind.as_kind_ref(),
            text: &l.text,
            span: Span::new(l.offset, l.offset + l.text.len()),
        }))
    }
}

/// Streams a bare kind sequence (`&[&str]`, `&[String]`, …), using the
/// kind as its own text. Spans are token indices, not byte offsets — there
/// is no underlying buffer.
#[derive(Debug, Clone)]
pub struct KindSource<'a, S = &'a str> {
    kinds: &'a [S],
    pos: usize,
}

impl<'a, S: AsRef<str>> KindSource<'a, S> {
    /// Wraps a kind sequence.
    pub fn new(kinds: &'a [S]) -> KindSource<'a, S> {
        KindSource { kinds, pos: 0 }
    }
}

impl<S: AsRef<str>> TokenSource for KindSource<'_, S> {
    #[inline]
    fn next_token(&mut self) -> Option<Result<ScannedToken<'_>, LexError>> {
        let k = self.kinds.get(self.pos)?.as_ref();
        self.pos += 1;
        Some(Ok(ScannedToken {
            kind: KindRef::name(k),
            text: k,
            span: Span::new(self.pos - 1, self.pos),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexeme_source_replays_slice_with_spans() {
        let lexemes = vec![
            Lexeme { kind: "ID".into(), text: "ab".into(), offset: 0 },
            Lexeme { kind: "NUM".into(), text: "42".into(), offset: 3 },
        ];
        let mut src = LexemeSource::new(&lexemes);
        let t = src.next_token().unwrap().unwrap();
        assert_eq!((t.kind.as_str(), t.text, t.span), ("ID", "ab", Span::new(0, 2)));
        let t = src.next_token().unwrap().unwrap();
        assert_eq!((t.kind.as_str(), t.text, t.span), ("NUM", "42", Span::new(3, 5)));
        assert!(src.next_token().is_none());
    }

    #[test]
    fn kind_source_uses_kind_as_text() {
        let kinds = ["a", "b"];
        let mut src = KindSource::new(&kinds);
        let t = src.next_token().unwrap().unwrap();
        assert_eq!((t.kind.as_str(), t.text), ("a", "a"));
        assert_eq!(t.span, Span::new(0, 1));
        assert!(src.next_token().unwrap().is_ok());
        assert!(src.next_token().is_none());
    }

    #[test]
    fn token_source_is_object_safe() {
        let kinds = ["x"];
        let mut src = KindSource::new(&kinds);
        let dyn_src: &mut dyn TokenSource = &mut src;
        assert_eq!(dyn_src.next_token().unwrap().unwrap().kind, "x");
    }
}
