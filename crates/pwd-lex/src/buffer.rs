//! An editable, incrementally-relexed source buffer.
//!
//! [`SourceBuffer`] keeps a source text, its [`SourceMap`], and its full
//! token stream in sync across byte-range edits. [`SourceBuffer::splice`]
//! relexes only a bounded window around the edit instead of the whole
//! buffer, in the Wagner–Graham incremental-lexing style:
//!
//! 1. **Damage detection.** Every token records its *scan extent* — the
//!    furthest byte the lexer's merged DFA examined while deciding it, up
//!    to the character on which every rule was dead (including lookahead
//!    past the match and the skip-rule scans that preceded it). A token
//!    whose extent stays at or before the edit start cannot be affected by
//!    the edit, so a binary search over the running maximum of extents
//!    finds the first damaged token in `O(log n)`.
//! 2. **Window relex.** Scanning restarts at the last undamaged token's
//!    end and runs forward through the edited region.
//! 3. **Resynchronization.** Once the scan head passes the inserted text,
//!    each new token boundary is checked (binary search, `O(log n)`)
//!    against the old boundaries shifted by the edit's length delta; on
//!    the first hit the old suffix tokens are reused verbatim (offsets
//!    shifted) — the remaining text is byte-identical there, and maximal
//!    munch is a pure function of the text ahead of a boundary.
//!
//! The returned [`TokenEdit`] describes the change as a token-level splice
//! (`start`, `removed`, `inserted`), exactly the shape a parser-session
//! splice consumes. A failed relex (no rule matches) leaves the buffer
//! untouched — edits are atomic.

use crate::lexer::{LexError, Lexeme, Lexer};
use crate::shared::SharedStr;
use crate::span::{SourceMap, Span};

/// One token of the buffer: which rule produced it, where its text lives,
/// and how far its match decision looked.
#[derive(Debug, Clone, Copy)]
struct Tok {
    /// Index of the producing rule in the owning [`Lexer`].
    rule: usize,
    /// Byte range of the matched text.
    span: Span,
    /// One past the furthest byte examined while producing this token:
    /// covers the whole decision window from the previous token's end,
    /// including skip-rule scans and the lookahead past each match. The
    /// token's (kind, length) is a pure function of the bytes below this
    /// extent.
    scan_end: usize,
}

/// The token-level description of what a [`SourceBuffer::splice`] changed:
/// replace `removed` tokens starting at index `start` with `inserted`.
///
/// Tokens after the splice point are guaranteed unchanged up to a uniform
/// byte-offset shift, so a parser holding state per token can reuse
/// everything outside `start..start + removed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenEdit {
    /// Index of the first replaced token.
    pub start: usize,
    /// Number of old tokens replaced.
    pub removed: usize,
    /// The freshly lexed tokens taking their place.
    pub inserted: Vec<Lexeme>,
}

/// An editable source buffer that keeps its token stream and [`SourceMap`]
/// incrementally up to date under byte-range edits.
///
/// # Examples
///
/// ```
/// use pwd_lex::{LexerBuilder, SourceBuffer};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lexer = LexerBuilder::new()
///     .rule("NUM", r"[0-9]+")?
///     .rule("ID", r"[a-z]+")?
///     .skip("WS", r" +")?
///     .build();
/// let mut buf = SourceBuffer::new(&lexer, "abc 12 def")?;
/// assert_eq!(buf.token_count(), 3);
/// // Replace "12" with "9 x": only the damaged window is relexed.
/// let edit = buf.splice(4, 6, "9 x")?;
/// assert_eq!(buf.text(), "abc 9 x def");
/// assert_eq!(edit.start, 1);
/// assert_eq!(edit.removed, 1);
/// assert_eq!(edit.inserted.len(), 2);
/// # Ok(())
/// # }
/// ```
pub struct SourceBuffer<'l> {
    lexer: &'l Lexer,
    map: SourceMap,
    toks: Vec<Tok>,
    /// `prefix_scan_max[i]` = max of `toks[..=i].scan_end` — monotone, so
    /// damage detection can binary-search it even though individual scan
    /// extents are not sorted (lookahead length varies per token).
    prefix_scan_max: Vec<usize>,
}

impl<'l> SourceBuffer<'l> {
    /// Lexes `text` from scratch and builds the buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LexError`] at the first position where no rule matches; the
    /// buffer is only constructed for fully lexable text, which is what lets
    /// [`splice`](SourceBuffer::splice) be atomic.
    pub fn new(lexer: &'l Lexer, text: &str) -> Result<SourceBuffer<'l>, LexError> {
        let (toks, _) = relex(lexer, text, 0, None)?;
        let mut buf =
            SourceBuffer { lexer, map: SourceMap::new(text), toks, prefix_scan_max: Vec::new() };
        buf.rebuild_scan_max(0);
        Ok(buf)
    }

    /// The current text.
    pub fn text(&self) -> &str {
        self.map.source()
    }

    /// The up-to-date [`SourceMap`] for the current text.
    pub fn map(&self) -> &SourceMap {
        &self.map
    }

    /// Number of (non-skip) tokens in the buffer.
    pub fn token_count(&self) -> usize {
        self.toks.len()
    }

    /// The `i`-th token as an owned [`Lexeme`], whose text is a copy of
    /// the token's own bytes (one allocation).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn lexeme(&self, i: usize) -> Lexeme {
        let t = &self.toks[i];
        let text = SharedStr::from(t.span.slice(self.map.source()));
        self.lexer.lexeme(t.rule, &text, t.span.start, t.span)
    }

    /// All tokens as owned [`Lexeme`]s (a from-scratch-equivalent view),
    /// sharing one copy of the buffer's text: two allocations per call.
    pub fn lexemes(&self) -> Vec<Lexeme> {
        let text = SharedStr::from(self.map.source());
        self.toks.iter().map(|t| self.lexer.lexeme(t.rule, &text, 0, t.span)).collect()
    }

    /// Byte span of the `i`-th token.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn token_span(&self, i: usize) -> Span {
        self.toks[i].span
    }

    /// Replaces the byte range `start..end` with `replacement`, relexing
    /// only the damaged window and returning the token-level [`TokenEdit`].
    ///
    /// On success the text, token stream, and [`SourceMap`] are all
    /// updated; on error (the edited text has an unlexable window) the
    /// buffer is left exactly as it was.
    ///
    /// # Errors
    ///
    /// Returns [`LexError`] if no rule matches somewhere in the relexed
    /// window of the edited text.
    ///
    /// # Panics
    ///
    /// Panics if `start..end` is out of bounds, inverted, or splits a UTF-8
    /// character.
    pub fn splice(
        &mut self,
        start: usize,
        end: usize,
        replacement: &str,
    ) -> Result<TokenEdit, LexError> {
        assert!(start <= end && end <= self.map.source().len(), "splice range out of bounds");
        let delta = replacement.len() as isize - (end - start) as isize;

        // 1. Damage detection: tokens whose decision window ends at or
        // before the edit start are untouched. `prefix_scan_max` is
        // monotone, so the first damaged index is a partition point.
        let d = self.prefix_scan_max.partition_point(|&m| m <= start);
        let relex_from = if d == 0 { 0 } else { self.toks[d - 1].span.end };

        // 2. Build the edited text and relex forward from the last
        // undamaged boundary. Nothing is committed until relexing succeeds.
        let mut new_text =
            String::with_capacity((self.map.source().len() as isize + delta) as usize);
        new_text.push_str(&self.map.source()[..start]);
        new_text.push_str(replacement);
        new_text.push_str(&self.map.source()[end..]);

        let resync = ResyncIndex {
            toks: &self.toks,
            first: d,
            new_edit_end: start + replacement.len(),
            delta,
        };
        let (fresh, reused_from) = relex(self.lexer, &new_text, relex_from, Some(&resync))?;

        // 3. Commit: splice the token vector, shift the reused suffix, and
        // repair the newline index.
        let reused_from = reused_from.unwrap_or(self.toks.len());
        let removed = reused_from - d;
        // The inserted lexemes share one copy of the text they cover.
        let (lo, hi) = match (fresh.first(), fresh.last()) {
            (Some(first), Some(last)) => (first.span.start, last.span.end),
            _ => (0, 0),
        };
        let window = SharedStr::from(&new_text[lo..hi]);
        let inserted: Vec<Lexeme> =
            fresh.iter().map(|t| self.lexer.lexeme(t.rule, &window, lo, t.span)).collect();
        let mut tail: Vec<Tok> = self.toks[reused_from..]
            .iter()
            .map(|t| Tok {
                rule: t.rule,
                span: Span::new(
                    (t.span.start as isize + delta) as usize,
                    (t.span.end as isize + delta) as usize,
                ),
                scan_end: (t.scan_end as isize + delta) as usize,
            })
            .collect();
        self.toks.truncate(d);
        self.toks.extend(fresh);
        self.toks.append(&mut tail);
        self.map.splice(start, end, replacement);
        self.rebuild_scan_max(d);
        debug_assert_eq!(self.map.source(), new_text);
        Ok(TokenEdit { start: d, removed, inserted })
    }

    /// Recomputes `prefix_scan_max` from index `from` onward.
    fn rebuild_scan_max(&mut self, from: usize) {
        self.prefix_scan_max.truncate(from);
        let mut running = if from == 0 { 0 } else { self.prefix_scan_max[from - 1] };
        for t in &self.toks[from..] {
            running = running.max(t.scan_end);
            self.prefix_scan_max.push(running);
        }
    }
}

/// The old-token index a relex consults to stop early: once the scan head
/// is past the inserted text, a head position that lands exactly on an old
/// decision-window boundary (shifted by `delta`) means the rest of the old
/// stream can be reused verbatim.
struct ResyncIndex<'a> {
    toks: &'a [Tok],
    /// First damaged token index — reuse may only start at or after it.
    first: usize,
    /// End of the replacement text in new-text coordinates.
    new_edit_end: usize,
    /// `new_len - old_len` of the edit.
    delta: isize,
}

impl ResyncIndex<'_> {
    /// If lexing from `pos` (new coordinates) is guaranteed to reproduce
    /// the old suffix `toks[j..]`, returns `j`.
    fn try_resync(&self, pos: usize) -> Option<usize> {
        if pos < self.new_edit_end {
            return None;
        }
        let p_old = pos as isize - self.delta;
        if p_old < 0 {
            return None;
        }
        let p_old = p_old as usize;
        // Old token j's decision window starts at toks[j-1].span.end (token
        // ends are strictly increasing, so binary search applies). Landing
        // there with byte-identical text ahead means maximal munch replays
        // the old decisions exactly.
        let k = self.toks.binary_search_by(|t| t.span.end.cmp(&p_old)).ok()?;
        let j = k + 1;
        (j > self.first && j <= self.toks.len()).then_some(j)
    }
}

/// Scans `text` from byte `pos` to the end (or to a resync point), tracking
/// per-token scan extents. Returns the fresh tokens and, if a resync hit,
/// the old-token index the caller may reuse from.
fn relex(
    lexer: &Lexer,
    text: &str,
    mut pos: usize,
    resync: Option<&ResyncIndex<'_>>,
) -> Result<(Vec<Tok>, Option<usize>), LexError> {
    let mut out = Vec::new();
    // Furthest byte examined since the last emitted token's end: skip-rule
    // scans and failed lookahead in the gap all charge the *next* token,
    // whose decision they precede.
    let mut window_max = pos;
    loop {
        if let Some(r) = resync {
            if let Some(j) = r.try_resync(pos) {
                return Ok((out, Some(j)));
            }
        }
        if pos >= text.len() {
            return Ok((out, None));
        }
        let rest = &text[pos..];
        let (m, extent) = lexer.match_at_scanned(rest);
        // A scan that ran to end-of-input also depended on the *absence* of
        // a next byte — maximal munch might have matched longer. Count EOF
        // as one extra examined position so appends damage the final token.
        let scan_to = if pos + extent >= text.len() { text.len() + 1 } else { pos + extent };
        window_max = window_max.max(scan_to);
        let Some((len, i)) = m else {
            return Err(LexError::at(text, pos));
        };
        if lexer.rule_is_skip(i) {
            pos += len;
            continue;
        }
        out.push(Tok { rule: i, span: Span::new(pos, pos + len), scan_end: window_max });
        pos += len;
        window_max = pos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::LexerBuilder;
    use crate::span::Position;

    /// splitmix64 — the deterministic RNG idiom the repo's property tests use.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    fn pl0ish_lexer() -> Lexer {
        LexerBuilder::new()
            .rule("ASSIGN", r":=")
            .unwrap()
            .rule("LE", r"<=")
            .unwrap()
            .rule("LT", r"<")
            .unwrap()
            .rule("SEMI", r";")
            .unwrap()
            .rule("PLUS", r"\+")
            .unwrap()
            .rule("KW_IF", r"if")
            .unwrap()
            .rule("ID", r"[a-z][a-z0-9]*")
            .unwrap()
            .rule("NUM", r"[0-9]+")
            .unwrap()
            .skip("WS", r"[ \t\n]+")
            .unwrap()
            .skip("COMMENT", r"#[a-z ]*~")
            .unwrap()
            .build()
    }

    /// The oracle: a spliced buffer must be indistinguishable from a buffer
    /// built from scratch over the edited text — same lexemes, same
    /// line:column for every token.
    fn assert_matches_scratch(lexer: &Lexer, buf: &SourceBuffer<'_>) {
        let scratch = SourceBuffer::new(lexer, buf.text()).expect("scratch lex");
        assert_eq!(buf.lexemes(), scratch.lexemes(), "text: {:?}", buf.text());
        for i in 0..buf.token_count() {
            let span = buf.token_span(i);
            assert_eq!(
                buf.map().position(span.start),
                scratch.map().position(span.start),
                "token {i} start position, text: {:?}",
                buf.text()
            );
            assert_eq!(
                buf.map().position(span.end),
                scratch.map().position(span.end),
                "token {i} end position, text: {:?}",
                buf.text()
            );
        }
        assert_eq!(buf.map().lines(), scratch.map().lines());
    }

    #[test]
    fn splice_middle_replaces_one_token() {
        let lexer = pl0ish_lexer();
        let mut buf = SourceBuffer::new(&lexer, "abc 12 def").unwrap();
        let edit = buf.splice(4, 6, "345").unwrap();
        assert_eq!(buf.text(), "abc 345 def");
        assert_eq!(edit.start, 1);
        assert_eq!(edit.removed, 1);
        assert_eq!(edit.inserted.len(), 1);
        assert_eq!(edit.inserted[0].text, "345");
        assert_matches_scratch(&lexer, &buf);
    }

    #[test]
    fn splice_reuses_the_tail() {
        let lexer = pl0ish_lexer();
        let src = "a + b; c + d; e + f; g + h";
        let mut buf = SourceBuffer::new(&lexer, src).unwrap();
        let edit = buf.splice(4, 5, "bb").unwrap();
        assert_eq!(buf.text(), "a + bb; c + d; e + f; g + h");
        // Only the token containing the edit is replaced; the long tail is
        // reused, not relexed.
        assert_eq!(edit.removed, 1);
        assert_eq!(edit.inserted.len(), 1);
        assert_matches_scratch(&lexer, &buf);
    }

    #[test]
    fn insertion_at_token_end_extends_the_token() {
        let lexer = pl0ish_lexer();
        let mut buf = SourceBuffer::new(&lexer, "ab; cd").unwrap();
        // Maximal munch: inserting at ab's end must merge, not append.
        let edit = buf.splice(2, 2, "c").unwrap();
        assert_eq!(buf.text(), "abc; cd");
        assert_eq!(buf.lexeme(0).text, "abc");
        assert!(edit.start == 0, "the extended token is damaged");
        assert_matches_scratch(&lexer, &buf);
    }

    #[test]
    fn edit_splitting_a_two_char_operator() {
        let lexer = pl0ish_lexer();
        let mut buf = SourceBuffer::new(&lexer, "a <= b").unwrap();
        assert_eq!(buf.lexeme(1).kind, "LE");
        // Deleting the '=' turns LE into LT.
        buf.splice(3, 4, "").unwrap();
        assert_eq!(buf.text(), "a < b");
        assert_eq!(buf.lexeme(1).kind, "LT");
        assert_matches_scratch(&lexer, &buf);
    }

    #[test]
    fn edit_inside_skip_comment_damages_across_it() {
        let lexer = pl0ish_lexer();
        let mut buf = SourceBuffer::new(&lexer, "a #x ok~ b; c").unwrap();
        assert_eq!(buf.token_count(), 4);
        // Editing *inside* the skipped comment changes no tokens, but the
        // damage detector must still see it (the comment bytes are part of
        // the next token's decision window).
        let edit = buf.splice(5, 7, "no").unwrap();
        assert_eq!(buf.text(), "a #x no~ b; c");
        assert_eq!(buf.token_count(), 4);
        assert_eq!(edit.start, 1, "damage starts at the token after the comment");
        assert_matches_scratch(&lexer, &buf);
    }

    #[test]
    fn failed_splice_is_atomic() {
        let lexer = pl0ish_lexer();
        let mut buf = SourceBuffer::new(&lexer, "a #x~ b").unwrap();
        let before_text = buf.text().to_string();
        let before_lex = buf.lexemes();
        // Deleting the comment terminator leaves an unlexable '#…' window.
        let err = buf.splice(4, 5, " ").unwrap_err();
        assert!(err.offset() >= 2, "error is inside the damaged window");
        assert_eq!(buf.text(), before_text, "failed splice must not commit");
        assert_eq!(buf.lexemes(), before_lex);
        assert_matches_scratch(&lexer, &buf);
    }

    #[test]
    fn append_and_prepend() {
        let lexer = pl0ish_lexer();
        let mut buf = SourceBuffer::new(&lexer, "b; c").unwrap();
        let e = buf.splice(0, 0, "a; ").unwrap();
        assert_eq!(e.start, 0);
        assert_matches_scratch(&lexer, &buf);
        let len = buf.text().len();
        let e = buf.splice(len, len, "; d").unwrap();
        assert_eq!(buf.text(), "a; b; c; d");
        assert_eq!(e.start + e.inserted.len(), buf.token_count());
        assert_matches_scratch(&lexer, &buf);
    }

    #[test]
    fn newline_edits_keep_positions_correct() {
        let lexer = pl0ish_lexer();
        let mut buf = SourceBuffer::new(&lexer, "a;\nbb;\nccc;\n").unwrap();
        // Insert a newline mid-buffer…
        buf.splice(3, 3, "\n\n").unwrap();
        assert_matches_scratch(&lexer, &buf);
        // …and delete one, shifting every later line.
        let nl = buf.text().find('\n').unwrap();
        buf.splice(nl, nl + 1, " ").unwrap();
        assert_matches_scratch(&lexer, &buf);
        let last = buf.token_count() - 1;
        let pos = buf.map().position(buf.token_span(last).start);
        assert_eq!(pos, Position::of(buf.text(), buf.token_span(last).start));
    }

    #[test]
    fn keyword_identifier_boundary() {
        let lexer = pl0ish_lexer();
        let mut buf = SourceBuffer::new(&lexer, "if x").unwrap();
        assert_eq!(buf.lexeme(0).kind, "KW_IF");
        // 'if' + 'f' = 'iff': longer ID beats the keyword.
        buf.splice(2, 2, "f").unwrap();
        assert_eq!(buf.lexeme(0).kind, "ID");
        assert_matches_scratch(&lexer, &buf);
        // And deleting it flips back.
        buf.splice(2, 3, "").unwrap();
        assert_eq!(buf.lexeme(0).kind, "KW_IF");
        assert_matches_scratch(&lexer, &buf);
    }

    /// Satellite: property test — after random byte-range edits (including
    /// ones adding/removing newlines and landing mid-token), every token's
    /// line:column equals a from-scratch SourceMap build's answer.
    #[test]
    fn property_random_edits_match_scratch() {
        let lexer = pl0ish_lexer();
        let alphabet =
            ["a", "bc", "7", "42", ";", "+", "<", "<=", ":=", " ", "\n", "if", "#ok~", "\t"];
        for case in 0..60u64 {
            let mut rng = Rng(0xDEC0DE ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            // Seed text: a random lexable soup.
            let mut text = String::new();
            for _ in 0..rng.below(40) {
                text.push_str(alphabet[rng.below(alphabet.len())]);
            }
            let Ok(mut buf) = SourceBuffer::new(&lexer, &text) else { continue };
            for _ in 0..8 {
                // Random char-aligned byte range.
                let starts: Vec<usize> =
                    buf.text().char_indices().map(|(i, _)| i).chain([buf.text().len()]).collect();
                let a = starts[rng.below(starts.len())];
                let b = starts[rng.below(starts.len())];
                let (start, end) = (a.min(b), a.max(b));
                let mut repl = String::new();
                for _ in 0..rng.below(4) {
                    repl.push_str(alphabet[rng.below(alphabet.len())]);
                }
                match buf.splice(start, end, &repl) {
                    Ok(_) => assert_matches_scratch(&lexer, &buf),
                    Err(_) => {
                        // Atomic: the buffer must still agree with scratch.
                        assert_matches_scratch(&lexer, &buf);
                    }
                }
            }
        }
    }

    /// The incremental guarantee, not just correctness: a one-byte edit in
    /// the middle of a large buffer must not relex the whole tail.
    #[test]
    fn middle_edit_reuses_most_tokens() {
        let lexer = pl0ish_lexer();
        let mut src = String::new();
        for i in 0..500 {
            src.push_str(&format!("v{i} := {i}; "));
        }
        let mut buf = SourceBuffer::new(&lexer, &src).unwrap();
        let total = buf.token_count();
        let mid = buf.token_span(total / 2).start;
        let edit = buf.splice(mid, mid + 1, "w").unwrap();
        // The edit replaces a handful of tokens at most; everything after
        // the damage window is reused.
        assert!(edit.removed <= 4, "removed {} tokens", edit.removed);
        assert!(edit.inserted.len() <= 4, "inserted {} tokens", edit.inserted.len());
        assert_matches_scratch(&lexer, &buf);
    }
}
