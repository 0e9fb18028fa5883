//! Source positions: byte spans, offset → line/column mapping, and the
//! shared caret renderer.
//!
//! The streaming pipeline talks in [`Span`]s — half-open byte ranges into
//! the input buffer — so a token never needs to copy its text out of the
//! source. Diagnostics want `line:col`; a [`SourceMap`] indexes newline
//! positions once and answers lookups in `O(log lines)`, and
//! [`Position::of`] answers a single lookup without the index. Both run
//! through one line/column code path ([`SourceMap::position_of`]), so a lex
//! error and a recovery diagnostic can never disagree about where an offset
//! is. [`SourceMap::render_span`] is the one rustc-style caret renderer
//! every consumer (recovery diagnostics, `probe diagnose`, the repl) shares.

/// A half-open byte range `start..end` into an input buffer.
///
/// This is the zero-copy currency of the streaming lexer: a
/// [`TokenSource`](crate::TokenSource) hands out spans (plus the borrowed
/// slice they denote) instead of owned strings.
///
/// # Examples
///
/// ```
/// use pwd_lex::Span;
/// let s = Span::new(4, 9);
/// assert_eq!(s.len(), 5);
/// assert_eq!(s.slice("abcdHELLOxyz"), "HELLO");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Span {
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

impl Span {
    /// Builds a span; `start` must not exceed `end`.
    pub fn new(start: usize, end: usize) -> Span {
        debug_assert!(start <= end, "span {start}..{end} is inverted");
        Span { start, end }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Is the span zero-width?
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The slice of `src` this span denotes.
    ///
    /// # Panics
    ///
    /// Panics if the span is out of bounds or splits a UTF-8 character —
    /// spans are only meaningful against the buffer they were produced from.
    pub fn slice<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// A 1-based line/column position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Position {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column in characters.
    pub column: u32,
}

impl Position {
    /// The line/column of a byte offset, computed by one linear scan of the
    /// prefix (use [`SourceMap`] when answering many lookups over one
    /// source). Offsets past the end clamp to the end position.
    ///
    /// This is a shim over [`SourceMap::position_of`] — the single
    /// line/column code path shared with the indexed map.
    pub fn of(src: &str, offset: usize) -> Position {
        SourceMap::position_of(src, offset)
    }
}

impl std::fmt::Display for Position {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// Precomputed newline index for byte-offset → line/column conversion, plus
/// the shared caret renderer for spanned diagnostics.
///
/// # Examples
///
/// ```
/// use pwd_lex::{Position, SourceMap};
/// let map = SourceMap::new("ab\ncdé\nf");
/// assert_eq!(map.position(0), Position { line: 1, column: 1 });
/// assert_eq!(map.position(3), Position { line: 2, column: 1 });
/// // é is multi-byte; column counts characters.
/// assert_eq!(map.position(7), Position { line: 2, column: 4 });
/// ```
#[derive(Debug, Clone)]
pub struct SourceMap {
    /// Byte offsets at which each line starts.
    line_starts: Vec<usize>,
    /// The source (owned) for character-accurate column computation.
    src: String,
}

/// The historical name of [`SourceMap`], kept as an alias.
pub type LineMap = SourceMap;

impl SourceMap {
    /// Indexes the newlines of `src`.
    pub fn new(src: &str) -> SourceMap {
        let mut line_starts = vec![0];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        SourceMap { line_starts, src: src.to_string() }
    }

    /// Number of lines (at least 1, even for empty input).
    pub fn lines(&self) -> usize {
        self.line_starts.len()
    }

    /// The source text this map indexes.
    pub fn source(&self) -> &str {
        &self.src
    }

    /// Replaces the byte range `start..end` with `replacement`, repairing
    /// the newline index incrementally: line starts before the edit are
    /// kept, starts inside the damaged range are rebuilt from the
    /// replacement text, and starts after it are shifted by the length
    /// delta. Equivalent to (but cheaper than) re-indexing from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `start..end` is out of bounds, inverted, or splits a UTF-8
    /// character (same contract as `String::replace_range`).
    pub fn splice(&mut self, start: usize, end: usize, replacement: &str) {
        let delta = replacement.len() as isize - (end - start) as isize;
        // Keep line starts at or before the edit: a start exactly at `start`
        // is the position *after* a preceding newline, which survives.
        let lo = self.line_starts.partition_point(|&s| s <= start);
        let hi = self.line_starts.partition_point(|&s| s <= end);
        for s in &mut self.line_starts[hi..] {
            *s = s.wrapping_add_signed(delta);
        }
        let added = replacement.match_indices('\n').map(|(i, _)| start + i + 1);
        self.line_starts.splice(lo..hi, added);
        self.src.replace_range(start..end, replacement);
    }

    /// The 1-based line/column of a byte offset. Offsets past the end map to
    /// the end position.
    pub fn position(&self, offset: usize) -> Position {
        let offset = offset.min(self.src.len());
        let line = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let start = self.line_starts[line];
        Position { line: line as u32 + 1, column: Self::column_at(&self.src, start, offset) }
    }

    /// One-shot offset → line/column without building an index: the shared
    /// code path behind [`Position::of`] and every ad-hoc lookup (e.g.
    /// [`LexError`](crate::LexError) construction). Offsets past the end
    /// clamp to the end position.
    pub fn position_of(src: &str, offset: usize) -> Position {
        let offset = offset.min(src.len());
        let prefix = &src[..offset];
        let line = prefix.bytes().filter(|&b| b == b'\n').count() + 1;
        let line_start = prefix.rfind('\n').map_or(0, |i| i + 1);
        Position { line: line as u32, column: Self::column_at(src, line_start, offset) }
    }

    /// 1-based character column of `offset` within the line starting at
    /// `line_start` — the one column computation both lookups share.
    fn column_at(src: &str, line_start: usize, offset: usize) -> u32 {
        src[line_start..offset].chars().count() as u32 + 1
    }

    /// The text of a 1-based line, without its trailing newline. Lines past
    /// the end return `""`.
    pub fn line_text(&self, line: u32) -> &str {
        let Some(&start) = self.line_starts.get(line.saturating_sub(1) as usize) else {
            return "";
        };
        let end =
            self.line_starts.get(line as usize).map_or(self.src.len(), |&next| next - 1).max(start);
        &self.src[start..end]
    }

    /// Renders a span rustc-style: a `--> line:col` header, the source line,
    /// and a caret underline. Spans reaching past the first line are clamped
    /// to it; zero-width spans render one caret (a cursor, e.g. "expected
    /// here"). This is the single caret renderer shared by recovery
    /// diagnostics, lex-error display, `probe diagnose`, and the repl.
    ///
    /// ```text
    ///  --> 2:5
    ///   |
    /// 2 | var x = 1;
    ///   |     ^
    /// ```
    pub fn render_span(&self, span: Span) -> String {
        let pos = self.position(span.start);
        let text = self.line_text(pos.line);
        let gutter = pos.line.to_string();
        let pad = " ".repeat(gutter.len());
        let lead = " ".repeat(pos.column as usize - 1);
        let line_end = self.line_starts[pos.line as usize - 1] + text.len();
        let width = Span::new(span.start, span.end.min(line_end).max(span.start))
            .slice(&self.src)
            .chars()
            .count()
            .max(1);
        let carets = "^".repeat(width);
        format!(" --> {pos}\n{pad} |\n{gutter} | {text}\n{pad} | {lead}{carets}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_source() {
        let m = SourceMap::new("");
        assert_eq!(m.lines(), 1);
        assert_eq!(m.position(0), Position { line: 1, column: 1 });
        assert_eq!(m.position(99), Position { line: 1, column: 1 });
    }

    #[test]
    fn multi_line() {
        let m = SourceMap::new("one\ntwo\nthree\n");
        assert_eq!(m.lines(), 4);
        assert_eq!(m.position(0).line, 1);
        assert_eq!(m.position(4), Position { line: 2, column: 1 });
        assert_eq!(m.position(6), Position { line: 2, column: 3 });
        assert_eq!(m.position(8).line, 3);
    }

    #[test]
    fn newline_boundary_belongs_to_old_line() {
        let m = SourceMap::new("ab\ncd");
        assert_eq!(m.position(2), Position { line: 1, column: 3 });
        assert_eq!(m.position(3), Position { line: 2, column: 1 });
    }

    #[test]
    fn integrates_with_lexer_offsets() {
        let src = "x = 1\ny = foo(2)\n";
        let lexemes = crate::tokenize_python(src).unwrap();
        let map = SourceMap::new(src);
        let foo = lexemes.iter().find(|l| l.text == "foo").unwrap();
        assert_eq!(map.position(foo.offset), Position { line: 2, column: 5 });
    }

    #[test]
    fn display_format() {
        assert_eq!(Position { line: 3, column: 7 }.to_string(), "3:7");
        assert_eq!(Span::new(2, 9).to_string(), "2..9");
    }

    #[test]
    fn span_slicing() {
        let s = Span::new(3, 5);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!(Span::new(4, 4).is_empty());
        assert_eq!(s.slice("abcdef"), "de");
    }

    #[test]
    fn position_of_matches_source_map() {
        let src = "ab\ncdé\nf";
        let map = SourceMap::new(src);
        for off in [0, 1, 2, 3, 7, 8, 99] {
            assert_eq!(Position::of(src, off), map.position(off), "offset {off}");
        }
    }

    #[test]
    fn line_text_lookup() {
        let m = SourceMap::new("one\ntwo\nthree");
        assert_eq!(m.line_text(1), "one");
        assert_eq!(m.line_text(2), "two");
        assert_eq!(m.line_text(3), "three");
        assert_eq!(m.line_text(9), "");
    }

    #[test]
    fn render_span_points_at_the_span() {
        let m = SourceMap::new("let x = 1;\nlet y == 2;\n");
        let rendered = m.render_span(Span::new(17, 19));
        assert_eq!(rendered, " --> 2:7\n  |\n2 | let y == 2;\n  |       ^^");
    }

    #[test]
    fn render_span_zero_width_shows_cursor() {
        let m = SourceMap::new("ab\n");
        let rendered = m.render_span(Span::new(2, 2));
        assert_eq!(rendered, " --> 1:3\n  |\n1 | ab\n  |   ^");
    }

    #[test]
    fn render_span_clamps_to_first_line() {
        let m = SourceMap::new("abc\ndef\n");
        let rendered = m.render_span(Span::new(1, 6));
        assert_eq!(rendered, " --> 1:2\n  |\n1 | abc\n  |  ^^");
    }
}
