//! Generic longest-match (maximal munch) lexing over derivative-built DFAs.
//!
//! A [`Lexer`] is an ordered list of rules, each compiling a regex (from
//! `pwd-regex`) to a DFA. [`LexerBuilder::build`] merges those automata
//! once into a single maximal-munch DFA over the whole rule vector (Owens,
//! Reppy & Turon 2009, §4.3; see the `scanner` module), so matching at an
//! input position is one table step per character; the longest match wins,
//! ties broken by rule order. This is the classic lex discipline, built
//! entirely on Brzozowski derivatives.
//!
//! The primary interface is streaming: [`Lexer::source`] returns a
//! [`TokenSource`](crate::TokenSource) that scans lazily and hands out
//! zero-copy [`ScannedToken`](crate::ScannedToken)s, so a parser session can
//! consume tokens as they are matched with no intermediate vector. The
//! batch [`Lexer::tokenize`] drains the same scan into owned [`Lexeme`]s
//! for callers that still want a slice: one shared copy of the input and
//! one vector per call, not two strings per token.
//!
//! A token's kind is the index of the rule that matched it, in the lexer's
//! shared [`KindTable`] of rule names: the integer a parser maps to its
//! terminal once per lexer (see the `kind` module).

use crate::kind::{Kind, KindRef, KindTable};
use crate::scanner::Scanner;
use crate::shared::SharedStr;
use crate::source::{ScannedToken, TokenSource};
use crate::span::{Position, Span};
use pwd_regex::{Dfa, Regex};
use std::fmt;
use std::sync::Arc;

/// A lexical token produced by a [`Lexer`]: kind, matched text, byte
/// offset.
///
/// `kind` is an index into the lexer's shared [`KindTable`] and `text` a
/// [`SharedStr`] slice of one shared copy of the text it was cut from, so a
/// lexeme owns no string of its own. It keeps that shared text alive, and
/// outlives both the input string and the [`Lexer`]. Equality and hashing
/// compare the strings, never their backing, so a lexed token equals one
/// built by hand with `"…".into()`. A lexeme is 56 bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Lexeme {
    /// The token kind: the rule that matched, by index into the lexer's
    /// kind table.
    pub kind: Kind,
    /// The matched text.
    pub text: SharedStr,
    /// Byte offset of the match start in the input.
    pub offset: usize,
}

/// Error produced when no rule matches at some input position.
///
/// Carries the offending [`Span`] (byte offsets), the 1-based line/column
/// [`Position`] of its start, and an owned copy of the offending slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte range of the offending slice (up to a short window from the
    /// stuck position).
    pub span: Span,
    /// Line/column of `span.start`.
    pub position: Position,
    /// The offending slice of input (the text `span` denotes).
    pub snippet: String,
}

impl LexError {
    /// Builds the error for the stuck position `pos` in `input`.
    pub(crate) fn at(input: &str, pos: usize) -> LexError {
        let snippet: String = input[pos..].chars().take(12).collect();
        LexError {
            span: Span::new(pos, pos + snippet.len()),
            position: Position::of(input, pos),
            snippet,
        }
    }

    /// Byte offset where lexing got stuck.
    pub fn offset(&self) -> usize {
        self.span.start
    }

    /// Renders the error rustc-style against its source buffer, through the
    /// shared [`SourceMap::render_span`](crate::SourceMap::render_span)
    /// caret renderer (one code path with recovery diagnostics).
    pub fn render(&self, src: &str) -> String {
        format!("error: {self}\n{}", crate::SourceMap::new(src).render_span(self.span))
    }
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no token matches at {} (bytes {}): {:?}", self.position, self.span, self.snippet)
    }
}

impl std::error::Error for LexError {}

/// A table-driven, longest-match lexer.
///
/// # Examples
///
/// ```
/// use pwd_lex::LexerBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lexer = LexerBuilder::new()
///     .rule("NUM", r"[0-9]+")?
///     .rule("ID", r"[a-z]+")?
///     .skip("WS", r"[ \t]+")?
///     .build();
/// let toks = lexer.tokenize("abc 42")?;
/// let kinds: Vec<&str> = toks.iter().map(|t| t.kind.as_str()).collect();
/// assert_eq!(kinds, ["ID", "NUM"]);
/// # Ok(())
/// # }
/// ```
pub struct Lexer {
    /// The rule names in rule order, then any extra kinds.
    kinds: Arc<KindTable>,
    /// Is rule `i` a skip rule?
    skip: Vec<bool>,
    scanner: Scanner,
}

/// Builder for [`Lexer`].
#[derive(Default)]
pub struct LexerBuilder {
    /// `(name, skip)` of each rule, in rule order.
    rules: Vec<(String, bool)>,
    /// Kinds the lexer's tokenizer emits beyond its rules' names.
    extra_kinds: Vec<&'static str>,
    /// Each rule's automaton, in rule order; merged by [`build`](Self::build).
    dfas: Vec<Dfa>,
}

impl LexerBuilder {
    /// Creates an empty builder.
    pub fn new() -> LexerBuilder {
        LexerBuilder::default()
    }

    /// Adds a token rule from a regex pattern.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`pwd_regex::ParseRegexError`] if the pattern
    /// is malformed.
    pub fn rule(self, name: &str, pattern: &str) -> Result<Self, pwd_regex::ParseRegexError> {
        Ok(self.push(name, &pwd_regex::parse(pattern)?, false))
    }

    /// Adds a rule whose matches are discarded (whitespace, comments).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`pwd_regex::ParseRegexError`] if the pattern
    /// is malformed.
    pub fn skip(self, name: &str, pattern: &str) -> Result<Self, pwd_regex::ParseRegexError> {
        Ok(self.push(name, &pwd_regex::parse(pattern)?, true))
    }

    /// Adds a rule from an already-built regex.
    pub fn rule_regex(self, name: &str, re: &Regex) -> Self {
        self.push(name, re, false)
    }

    /// Adds `(name, pattern, skip)` rules in order.
    pub(crate) fn rule_list<'a>(
        mut self,
        rules: impl IntoIterator<Item = (&'a str, &'a str, bool)>,
    ) -> Result<Self, pwd_regex::ParseRegexError> {
        for (name, pattern, skip) in rules {
            self = self.push(name, &pwd_regex::parse(pattern)?, skip);
        }
        Ok(self)
    }

    /// Appends kinds that no rule produces to the lexer's kind table, after
    /// the rules' names: kinds a tokenizer built on the lexer emits itself.
    pub(crate) fn extra_kinds(mut self, names: &[&'static str]) -> Self {
        self.extra_kinds.extend_from_slice(names);
        self
    }

    fn push(mut self, name: &str, re: &Regex, skip: bool) -> Self {
        self.rules.push((name.to_string(), skip));
        self.dfas.push(Dfa::build(re));
        self
    }

    /// Finalizes the lexer, merging the rules' automata into the one DFA it
    /// scans with.
    pub fn build(self) -> Lexer {
        let names = self.rules.iter().map(|(name, _)| name.as_str());
        Lexer {
            kinds: KindTable::new(names.chain(self.extra_kinds.iter().copied())),
            skip: self.rules.iter().map(|&(_, skip)| skip).collect(),
            scanner: Scanner::build(&self.dfas),
        }
    }
}

impl Lexer {
    /// Opens a streaming, zero-copy token source over `input`: tokens are
    /// matched one pull at a time and borrowed straight out of the buffer.
    ///
    /// This is the fused-pipeline entry point — a parser session consuming
    /// this source lexes and parses in one pass, with no intermediate
    /// `Vec<Lexeme>` and no per-token `String`. Skip rules (whitespace,
    /// comments) are consumed silently between pulls.
    ///
    /// # Examples
    ///
    /// ```
    /// use pwd_lex::{LexerBuilder, TokenSource};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let lexer = LexerBuilder::new()
    ///     .rule("NUM", r"[0-9]+")?
    ///     .skip("WS", r" +")?
    ///     .build();
    /// let mut src = lexer.source("1 23");
    /// let t = src.next_token().unwrap()?;
    /// assert_eq!((t.kind.as_str(), t.text, t.span.start), ("NUM", "1", 0));
    /// let t = src.next_token().unwrap()?;
    /// assert_eq!((t.kind.as_str(), t.text, t.span.start), ("NUM", "23", 2));
    /// assert!(src.next_token().is_none());
    /// # Ok(())
    /// # }
    /// ```
    pub fn source<'l, 's>(&'l self, input: &'s str) -> SourceTokens<'l, 's> {
        SourceTokens { lexer: self, input, pos: 0 }
    }

    /// Tokenizes the whole input with maximal munch.
    ///
    /// A batch shim over [`source`](Lexer::source): drains the streaming
    /// scan into owned [`Lexeme`]s. Every lexeme's text is a slice of one
    /// shared copy of `input` and its kind an index into the lexer's kind
    /// table, so a call on up to 128 KiB of input allocates a constant
    /// number of times whatever the token count: that copy and the vector
    /// (reserved at one lexeme per two bytes of input, at most 65,536
    /// lexemes, and trimmed once if more than half of it is unused). Past
    /// that, the vector regrows by doubling as tokens arrive.
    /// Prefer feeding the source directly to a parser session when the
    /// vector itself is not needed.
    ///
    /// # Errors
    ///
    /// Returns [`LexError`] at the first position where no rule matches a
    /// non-empty prefix.
    pub fn tokenize(&self, input: &str) -> Result<Vec<Lexeme>, LexError> {
        let text = SharedStr::from(input);
        let mut src = self.source(input);
        let mut out = Vec::with_capacity(lexeme_capacity(input));
        while let Some(item) = src.next_match() {
            let (rule, span) = item?;
            out.push(self.lexeme(rule, &text, 0, span));
        }
        trim_lexemes(&mut out);
        Ok(out)
    }

    /// The longest non-empty match of any rule at the head of `rest` —
    /// `(byte length, rule index)`, ties broken by rule order — plus the
    /// *scan extent*: the bytes the merged DFA examined while deciding,
    /// until every rule's automaton was dead (the stopping character
    /// included) or the input ended. The winner at this position is a pure
    /// function of exactly `rest[..extent]` — the load-bearing fact for
    /// incremental relexing ([`SourceBuffer::splice`](crate::SourceBuffer::splice)):
    /// an edit that stays clear of every decision's scan window cannot
    /// change any token.
    pub(crate) fn match_at_scanned(&self, rest: &str) -> (Option<(usize, usize)>, usize) {
        self.scanner.scan(rest)
    }

    /// The lexer's kinds: its rule names in rule order, then the kinds its
    /// tokenizer adds. A token's kind is an index into this table.
    pub fn kinds(&self) -> &Arc<KindTable> {
        &self.kinds
    }

    /// The lexeme rule `i` matched at `span`, its text cut from `text`, a
    /// shared copy of the input from byte `base` on.
    pub(crate) fn lexeme(&self, i: usize, text: &SharedStr, base: usize, span: Span) -> Lexeme {
        Lexeme {
            kind: Kind::at(&self.kinds, i as u32),
            text: text.slice(span.start - base..span.end - base),
            offset: span.start,
        }
    }

    /// Is rule `i` a skip rule (matches discarded)?
    pub(crate) fn rule_is_skip(&self, i: usize) -> bool {
        self.skip[i]
    }
}

/// The streaming scan state of one [`Lexer::source`] call: a cursor into
/// the borrowed input, advanced one maximal-munch match per pull.
#[derive(Clone)]
pub struct SourceTokens<'l, 's> {
    lexer: &'l Lexer,
    input: &'s str,
    pos: usize,
}

impl SourceTokens<'_, '_> {
    /// Byte offset of the scan head (the start of the next match).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Scans to the next non-skip match: its rule index and its span. The
    /// one scan loop behind [`TokenSource::next_token`] and the batch
    /// tokenizers.
    pub(crate) fn next_match(&mut self) -> Option<Result<(usize, Span), LexError>> {
        while self.pos < self.input.len() {
            let rest = &self.input[self.pos..];
            let Some((len, i)) = self.lexer.match_at_scanned(rest).0 else {
                let err = LexError::at(self.input, self.pos);
                // Advance past the offending character so error-tolerant
                // consumers (diagnostics collectors) make progress instead
                // of pulling the same error forever.
                self.pos += rest.chars().next().map_or(1, char::len_utf8);
                return Some(Err(err));
            };
            let start = self.pos;
            self.pos += len;
            if !self.lexer.skip[i] {
                return Some(Ok((i, Span::new(start, self.pos))));
            }
        }
        None
    }
}

impl TokenSource for SourceTokens<'_, '_> {
    fn next_token(&mut self) -> Option<Result<ScannedToken<'_>, LexError>> {
        let (lexer, input) = (self.lexer, self.input);
        Some(self.next_match()?.map(|(i, span)| ScannedToken {
            kind: KindRef::at(&lexer.kinds, i as u32),
            text: span.slice(input),
            span,
        }))
    }
}

/// The most lexemes a batch tokenization reserves up front: 65,536, or
/// 3.5 MiB of vector. Larger inputs grow the vector by doubling from there
/// as their tokens arrive (one lexeme per two bytes of a 100 MB input would
/// be 2.8 GB in one request, which strict overcommit refuses).
const MAX_RESERVED_LEXEMES: usize = 1 << 16;

/// Lexemes to reserve for `input`: one per two bytes, capped at
/// [`MAX_RESERVED_LEXEMES`]. Every token covers at least one byte, so a
/// batch tokenization of up to 128 KiB regrows its vector at most once, and
/// source text (several bytes per token) never. A lexeme is 56 bytes (its
/// kind a table handle and an index, 16 bytes; its text 32; its offset
/// 8), so that reserves 28 bytes per input byte; the vector is finished
/// with [`trim_lexemes`].
pub(crate) fn lexeme_capacity(input: &str) -> usize {
    (input.len() / 2 + 1).min(MAX_RESERVED_LEXEMES)
}

/// Trims a vector reserved by [`lexeme_capacity`] when more than half of it
/// is unused, so a held token stream keeps at most twice the memory its
/// lexemes need. Source text runs three to four bytes per token and fills
/// more than half of its reservation, so its vector is handed out as it is,
/// with no reallocation; sparse text (long comments or runs of blanks) is
/// trimmed.
pub(crate) fn trim_lexemes(out: &mut Vec<Lexeme>) {
    if out.capacity() > 2 * out.len() {
        out.shrink_to_fit();
    }
}

// A lexeme is a table handle plus an index (16 bytes), a text slice (32)
// and an offset (8); a batch tokenization reserves vectors of them.
const _: () = assert!(std::mem::size_of::<Lexeme>() <= 56);

#[cfg(test)]
mod tests {
    use super::*;

    fn arith_lexer() -> Lexer {
        LexerBuilder::new()
            .rule("NUM", r"[0-9]+")
            .unwrap()
            .rule("PLUS", r"\+")
            .unwrap()
            .rule("TIMES", r"\*")
            .unwrap()
            .rule("LPAREN", r"\(")
            .unwrap()
            .rule("RPAREN", r"\)")
            .unwrap()
            .skip("WS", r"[ \t\n]+")
            .unwrap()
            .build()
    }

    #[test]
    fn tokenizes_arithmetic() {
        let toks = arith_lexer().tokenize("1 + 23 * (4)").unwrap();
        let kinds: Vec<&str> = toks.iter().map(|t| t.kind.as_str()).collect();
        assert_eq!(kinds, ["NUM", "PLUS", "NUM", "TIMES", "LPAREN", "NUM", "RPAREN"]);
        assert_eq!(toks[2].text, "23");
        assert_eq!(toks[2].offset, 4);
    }

    #[test]
    fn longest_match_wins() {
        let lexer =
            LexerBuilder::new().rule("EQ", r"=").unwrap().rule("EQEQ", r"==").unwrap().build();
        let toks = lexer.tokenize("===").unwrap();
        let kinds: Vec<&str> = toks.iter().map(|t| t.kind.as_str()).collect();
        assert_eq!(kinds, ["EQEQ", "EQ"], "maximal munch");
    }

    #[test]
    fn rule_order_breaks_ties() {
        let lexer = LexerBuilder::new()
            .rule("KW_IF", r"if")
            .unwrap()
            .rule("ID", r"[a-z]+")
            .unwrap()
            .build();
        let toks = lexer.tokenize("if").unwrap();
        assert_eq!(toks[0].kind, "KW_IF");
        let toks = lexer.tokenize("iff").unwrap();
        assert_eq!(toks[0].kind, "ID", "longer ID beats keyword prefix");
    }

    #[test]
    fn error_on_unknown_character() {
        let err = arith_lexer().tokenize("1 + §").unwrap_err();
        assert_eq!(err.offset(), 4);
        assert_eq!(err.span.start, 4);
        assert_eq!(err.snippet, "§");
        assert_eq!(err.position.to_string(), "1:5");
        assert!(err.to_string().contains("bytes 4..6"), "{err}");
        assert!(err.to_string().contains("§"), "{err}");
    }

    #[test]
    fn error_reports_line_and_column() {
        let err = arith_lexer().tokenize("1 + 2\n3 * §4").unwrap_err();
        assert_eq!(err.position.line, 2);
        assert_eq!(err.position.column, 5);
        assert_eq!(err.snippet, "§4");
        assert_eq!(err.span, crate::Span::new(10, 13));
    }

    #[test]
    fn streaming_source_matches_tokenize() {
        use crate::TokenSource;
        let lexer = arith_lexer();
        let input = "1 + 23 * (4)";
        let batch = lexer.tokenize(input).unwrap();
        let mut src = lexer.source(input);
        let mut streamed = Vec::new();
        while let Some(t) = src.next_token() {
            let t = t.unwrap();
            assert_eq!(t.span.slice(input), t.text, "span must denote the text");
            streamed.push((t.kind.to_string(), t.text.to_string(), t.span.start));
        }
        let batch: Vec<_> =
            batch.into_iter().map(|l| (l.kind.to_string(), l.text.to_string(), l.offset)).collect();
        assert_eq!(streamed, batch);
    }

    #[test]
    fn streaming_source_is_lazy_past_errors_and_resumes() {
        use crate::TokenSource;
        // Tokens before the bad byte stream out fine; the error only
        // surfaces when the scan head reaches it, and the scan advances
        // past the offending character so the stream is resumable.
        let lexer = arith_lexer();
        let mut src = lexer.source("12 § 34");
        assert_eq!(src.next_token().unwrap().unwrap().text, "12");
        assert_eq!(src.offset(), 2);
        let err = src.next_token().unwrap().unwrap_err();
        assert_eq!(err.span.start, 3);
        let t = src.next_token().unwrap().unwrap();
        assert_eq!((t.kind.as_str(), t.text), ("NUM", "34"), "stream resumes after the error");
        assert!(src.next_token().is_none());
    }

    #[test]
    fn render_uses_the_shared_caret_path() {
        let src = "1 + 2\n3 * §4";
        let err = arith_lexer().tokenize(src).unwrap_err();
        let rendered = err.render(src);
        assert!(rendered.starts_with("error: no token matches at 2:5"), "{rendered}");
        assert!(rendered.contains(" --> 2:5"), "{rendered}");
        assert!(rendered.contains("2 | 3 * §4"), "{rendered}");
        assert!(rendered.ends_with("    ^^"), "{rendered}");
    }

    #[test]
    fn lexemes_compare_and_hash_by_content_not_backing() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |l: &Lexeme| {
            let mut h = DefaultHasher::new();
            l.hash(&mut h);
            h.finish()
        };
        let toks = arith_lexer().tokenize("1 + 23 * (4)").unwrap();
        let built = Lexeme { kind: "NUM".into(), text: "23".into(), offset: 4 };
        assert_eq!(toks[2], built, "a slice of the shared input equals its own copy");
        assert_eq!(hash(&toks[2]), hash(&built));
        // The same text cut from another input, at the same offset.
        let other = arith_lexer().tokenize("9 * 23").unwrap();
        assert_eq!(other[2], built);
        assert_eq!(hash(&other[2]), hash(&toks[2]));
        assert_ne!(toks[0], Lexeme { kind: "NUM".into(), text: "2".into(), offset: 0 });
        assert_eq!(toks[1].kind, "PLUS");
        assert_eq!(toks[1].text.len(), 1);
        assert_eq!(format!("{:?}", toks[2]), format!("{built:?}"));
    }

    #[test]
    fn lexemes_outlive_their_input_and_lexer() {
        let toks = {
            let lexer = arith_lexer();
            let input = String::from("12 + (345)");
            lexer.tokenize(&input).unwrap()
        };
        let kinds: Vec<&str> = toks.iter().map(|t| t.kind.as_str()).collect();
        assert_eq!(kinds, ["NUM", "PLUS", "LPAREN", "NUM", "RPAREN"]);
        assert_eq!(toks[3].text, "345");
        assert_eq!(toks[3].offset, 6);
        // A clone shares the same backing and keeps it alive on its own.
        let kept = toks[0].clone();
        drop(toks);
        assert_eq!((kept.kind.as_str(), kept.text.as_str()), ("NUM", "12"));
    }

    #[test]
    fn buffer_lexemes_outlive_the_buffer_and_its_lexer() {
        let (all, one, edit) = {
            let lexer = arith_lexer();
            let mut buf = crate::SourceBuffer::new(&lexer, "1 + 2").unwrap();
            let edit = buf.splice(4, 5, "(34)").unwrap();
            (buf.lexemes(), buf.lexeme(3), edit)
        };
        let texts: Vec<&str> = all.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["1", "+", "(", "34", ")"]);
        assert_eq!(one, all[3]);
        assert_eq!(edit.inserted, all[2..]);
        assert_eq!(edit.inserted[1].offset, 5);
    }

    #[test]
    fn empty_input() {
        assert!(arith_lexer().tokenize("").unwrap().is_empty());
    }

    #[test]
    fn skip_rules_are_dropped() {
        let toks = arith_lexer().tokenize("   \n\t ").unwrap();
        assert!(toks.is_empty());
    }
}
