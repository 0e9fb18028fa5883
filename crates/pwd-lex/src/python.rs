//! A Python-like tokenizer: NAME/NUMBER/STRING/operators plus synthesized
//! NEWLINE, INDENT, DEDENT, and ENDMARKER tokens.
//!
//! The paper's evaluation parses pre-tokenized Python 3.4 source (§4.1). This
//! module reproduces that pipeline stage for our synthetic corpus: a flat
//! longest-match scan (built on the derivative DFAs of `pwd-regex`) followed
//! by the standard indentation post-pass — implicit line joining inside
//! brackets, blank-line suppression, and an indent stack that emits
//! INDENT/DEDENT pairs.
//!
//! Deliberate simplifications versus CPython's tokenizer (documented in
//! DESIGN.md): no triple-quoted strings, no f-strings, tabs count as 8
//! columns, and no Unicode identifiers. None of these affect the parser
//! workload shape.

use crate::kind::Kind;
use crate::lexer::{lexeme_capacity, trim_lexemes, LexError, Lexeme, Lexer, LexerBuilder};
use crate::shared::SharedStr;
use std::fmt;
use std::sync::OnceLock;

/// Python keywords recognized by the tokenizer; keyword tokens use the
/// keyword itself as their kind.
pub const KEYWORDS: &[&str] = &[
    "False", "None", "True", "and", "as", "assert", "break", "class", "continue", "def", "del",
    "elif", "else", "except", "finally", "for", "from", "global", "if", "import", "in", "is",
    "lambda", "nonlocal", "not", "or", "pass", "raise", "return", "try", "while", "with", "yield",
];

/// Multi- and single-character operators/delimiters, longest first.
const OPERATORS: &[&str] = &[
    "**=", "//=", ">>=", "<<=", "==", "!=", "<=", ">=", "->", "**", "//", "<<", ">>", "+=", "-=",
    "*=", "/=", "%=", "&=", "|=", "^=", "+", "-", "*", "/", "%", "@", "&", "|", "^", "~", "<", ">",
    "(", ")", "[", "]", "{", "}", ",", ":", ".", ";", "=",
];

/// Errors from Python-like tokenization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PyLexError {
    /// The flat scanner found no matching token.
    Lex(LexError),
    /// A dedent did not return to any enclosing indentation level.
    BadIndent {
        /// Byte offset of the offending line's first token.
        offset: usize,
    },
}

impl fmt::Display for PyLexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PyLexError::Lex(e) => write!(f, "{e}"),
            PyLexError::BadIndent { offset } => {
                write!(f, "unindent at byte {offset} does not match any outer level")
            }
        }
    }
}

impl std::error::Error for PyLexError {}

impl From<LexError> for PyLexError {
    fn from(e: LexError) -> Self {
        PyLexError::Lex(e)
    }
}

fn escape_pattern(op: &str) -> String {
    op.chars().map(|c| format!("\\{c}")).collect()
}

/// The flat scanner's rules in priority order, as `(kind, pattern, skip)`.
/// Both string forms are kind `STRING`.
pub(crate) fn flat_rules() -> Vec<(&'static str, String, bool)> {
    let mut rules: Vec<(&'static str, String, bool)> = [
        ("NAME", r"[A-Za-z_][A-Za-z0-9_]*", false),
        ("NUMBER", r"[0-9]+(\.[0-9]+)?([eE](\+|-)?[0-9]+)?", false),
        ("STRING", r#""([^"\\\n]|\\.)*""#, false),
        ("STRING", r"'([^'\\\n]|\\.)*'", false),
        ("NL", "\n", false),
        ("JOIN", "\\\\\n", true),
        ("COMMENT", r"#[^\n]*", true),
        ("WS", r"[ \t\r]+", true),
    ]
    .into_iter()
    .map(|(kind, pattern, skip)| (kind, pattern.to_string(), skip))
    .collect();
    rules.extend(OPERATORS.iter().map(|op| (*op, escape_pattern(op), false)));
    rules
}

/// The kinds the indentation pass synthesizes, in the order they follow
/// the flat rules' names in the lexer's kind table; the keywords follow
/// them, in [`KEYWORDS`] order.
const LAYOUT: [&str; 4] = ["NEWLINE", "INDENT", "DEDENT", "ENDMARKER"];

/// What a flat rule's tokens do in the indentation pass.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// A physical line break.
    LineBreak,
    /// An opening bracket.
    Open,
    /// A closing bracket.
    Close,
    /// An identifier, re-kinded when it is a keyword.
    Name,
    /// Any other token.
    Other,
}

/// The flat scanner, each rule's role, and the layout and keyword kinds of
/// its kind table, shared by every call.
struct Flat {
    lexer: Lexer,
    /// Role of each rule, by rule index.
    roles: Vec<Role>,
    newline: Kind,
    indent: Kind,
    dedent: Kind,
    endmarker: Kind,
    /// Table index of the first keyword kind.
    keywords: u32,
    /// Text of a final NEWLINE the source itself does not end with.
    line_break: SharedStr,
}

fn flat() -> &'static Flat {
    static FLAT: OnceLock<Flat> = OnceLock::new();
    FLAT.get_or_init(|| {
        let rules = flat_rules();
        let lexer = LexerBuilder::new()
            .rule_list(rules.iter().map(|(kind, pattern, skip)| (*kind, pattern.as_str(), *skip)))
            .expect("static pattern")
            .extra_kinds(&LAYOUT)
            .extra_kinds(KEYWORDS)
            .build();
        let roles = rules
            .iter()
            .map(|(kind, _, _)| match *kind {
                "NL" => Role::LineBreak,
                "(" | "[" | "{" => Role::Open,
                ")" | "]" | "}" => Role::Close,
                "NAME" => Role::Name,
                _ => Role::Other,
            })
            .collect();
        let layout = rules.len() as u32;
        let kind = |i: u32| Kind::at(lexer.kinds(), layout + i);
        Flat {
            roles,
            newline: kind(0),
            indent: kind(1),
            dedent: kind(2),
            endmarker: kind(3),
            keywords: layout + LAYOUT.len() as u32,
            line_break: "\n".into(),
            lexer,
        }
    })
}

/// Tokenizes Python-like source into a lexeme stream with synthesized
/// NEWLINE / INDENT / DEDENT / ENDMARKER tokens, keywords classified.
///
/// One pass over the flat scan. Every lexeme's text is a slice of one
/// shared copy of `src` (layout tokens take the empty slice at their
/// offset) and every kind an index into the scanner's shared kind table,
/// which holds the layout kinds and the keywords too, so a call allocates
/// a constant number of times however many tokens it produces: that copy,
/// the indentation stack (room for 32 levels) and the vector (reserved at
/// one lexeme per two bytes, at most 65,536 lexemes, and trimmed once if
/// more than half of it is unused). Only nesting deeper than 32 levels,
/// text averaging under two bytes per token, or more than 65,536 tokens
/// regrows them (the vector by doubling).
///
/// # Errors
///
/// [`PyLexError::Lex`] for unrecognized characters; [`PyLexError::BadIndent`]
/// for inconsistent dedents (a lex error anywhere in `src` takes
/// precedence).
///
/// # Examples
///
/// ```
/// use pwd_lex::tokenize_python;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let toks = tokenize_python("def f(x):\n    return x\n")?;
/// let kinds: Vec<&str> = toks.iter().map(|t| t.kind.as_str()).collect();
/// assert_eq!(
///     kinds,
///     ["def", "NAME", "(", "NAME", ")", ":", "NEWLINE", "INDENT",
///      "return", "NAME", "NEWLINE", "DEDENT", "ENDMARKER"],
/// );
/// # Ok(())
/// # }
/// ```
pub fn tokenize_python(src: &str) -> Result<Vec<Lexeme>, PyLexError> {
    let flat = flat();
    let text = SharedStr::from(src);
    let layout = |kind: &Kind, at: usize| Lexeme {
        kind: kind.clone(),
        text: text.slice(at..at),
        offset: at,
    };
    // Is `t` a NEWLINE, INDENT or DEDENT?
    let is_layout =
        |t: &Lexeme| (flat.newline.index()..flat.endmarker.index()).contains(&t.kind.index());
    let mut scan = flat.lexer.source(src);
    let mut out: Vec<Lexeme> = Vec::with_capacity(lexeme_capacity(src));
    // Room for deeper nesting than real code reaches, so the stack does
    // not regrow as blocks nest.
    let mut indents: Vec<usize> = Vec::with_capacity(32);
    indents.push(0);
    let mut depth: usize = 0; // bracket nesting for implicit line joining
    let mut at_line_start = true;
    let mut last_nl_end = 0usize; // byte offset just after the last newline

    while let Some(item) = scan.next_match() {
        let (rule, span) = item?;
        match flat.roles[rule] {
            Role::LineBreak => {
                if depth == 0 {
                    // Emit a logical NEWLINE only after actual content.
                    if out.last().is_some_and(|t| !is_layout(t)) {
                        let nl = text.slice(span.start..span.end);
                        out.push(Lexeme {
                            kind: flat.newline.clone(),
                            text: nl,
                            offset: span.start,
                        });
                    }
                    at_line_start = true;
                }
                last_nl_end = span.end;
            }
            role => {
                if at_line_start && depth == 0 {
                    let col = indent_width(&src[last_nl_end..span.start]);
                    let current = *indents.last().expect("indent stack nonempty");
                    if col > current {
                        indents.push(col);
                        out.push(layout(&flat.indent, span.start));
                    } else if col < current {
                        while *indents.last().expect("nonempty") > col {
                            indents.pop();
                            out.push(layout(&flat.dedent, span.start));
                        }
                        if *indents.last().expect("nonempty") != col {
                            // As if the whole source were scanned first.
                            while let Some(item) = scan.next_match() {
                                item?;
                            }
                            return Err(PyLexError::BadIndent { offset: span.start });
                        }
                    }
                    at_line_start = false;
                }
                match role {
                    Role::Open => depth += 1,
                    Role::Close => depth = depth.saturating_sub(1),
                    _ => {}
                }
                let mut lexeme = flat.lexer.lexeme(rule, &text, 0, span);
                if role == Role::Name {
                    if let Some(k) = KEYWORDS.iter().position(|k| *k == lexeme.text.as_str()) {
                        lexeme.kind = Kind::at(flat.lexer.kinds(), flat.keywords + k as u32);
                    }
                }
                out.push(lexeme);
            }
        }
    }
    // Final NEWLINE if the file didn't end with one.
    if out.last().is_some_and(|t| !is_layout(t)) {
        let nl = flat.line_break.clone();
        out.push(Lexeme { kind: flat.newline.clone(), text: nl, offset: src.len() });
    }
    while indents.len() > 1 {
        indents.pop();
        out.push(layout(&flat.dedent, src.len()));
    }
    out.push(layout(&flat.endmarker, src.len()));
    trim_lexemes(&mut out);
    Ok(out)
}

/// Width of a whitespace prefix: spaces count 1, tabs advance to the next
/// multiple of 8 (CPython's rule).
fn indent_width(ws: &str) -> usize {
    let mut col = 0;
    for c in ws.chars() {
        match c {
            '\t' => col = (col / 8 + 1) * 8,
            _ => col += 1,
        }
    }
    col
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<String> {
        tokenize_python(src).unwrap().into_iter().map(|t| t.kind.to_string()).collect()
    }

    #[test]
    fn simple_statement() {
        assert_eq!(kinds("x = 1\n"), ["NAME", "=", "NUMBER", "NEWLINE", "ENDMARKER"]);
    }

    #[test]
    fn keywords_are_classified() {
        let k = kinds("if x:\n    pass\n");
        assert_eq!(
            k,
            ["if", "NAME", ":", "NEWLINE", "INDENT", "pass", "NEWLINE", "DEDENT", "ENDMARKER"]
        );
    }

    #[test]
    fn nested_indentation() {
        let src = "def f():\n    if x:\n        return 1\n    return 0\n";
        let k = kinds(src);
        let indents = k.iter().filter(|s| *s == "INDENT").count();
        let dedents = k.iter().filter(|s| *s == "DEDENT").count();
        assert_eq!(indents, 2);
        assert_eq!(dedents, 2, "{k:?}");
    }

    #[test]
    fn blank_lines_and_comments_are_suppressed() {
        let src = "x = 1\n\n# a comment\n\ny = 2\n";
        assert_eq!(
            kinds(src),
            ["NAME", "=", "NUMBER", "NEWLINE", "NAME", "=", "NUMBER", "NEWLINE", "ENDMARKER"]
        );
    }

    #[test]
    fn implicit_line_joining_in_brackets() {
        let src = "f(1,\n  2)\n";
        let k = kinds(src);
        assert_eq!(k, ["NAME", "(", "NUMBER", ",", "NUMBER", ")", "NEWLINE", "ENDMARKER"]);
    }

    #[test]
    fn explicit_backslash_joining() {
        let src = "x = 1 + \\\n    2\n";
        let k = kinds(src);
        assert_eq!(k, ["NAME", "=", "NUMBER", "+", "NUMBER", "NEWLINE", "ENDMARKER"]);
    }

    #[test]
    fn strings_with_escapes() {
        let toks = tokenize_python("s = \"a\\\"b\" + 'c\\'d'\n").unwrap();
        let strings: Vec<&str> =
            toks.iter().filter(|t| t.kind == "STRING").map(|t| t.text.as_str()).collect();
        assert_eq!(strings, ["\"a\\\"b\"", "'c\\'d'"]);
    }

    #[test]
    fn multi_char_operators() {
        let k = kinds("x **= y // z\n");
        assert_eq!(k, ["NAME", "**=", "NAME", "//", "NAME", "NEWLINE", "ENDMARKER"]);
    }

    #[test]
    fn numbers() {
        let toks = tokenize_python("a = 1 + 2.5 + 3e-7\n").unwrap();
        let nums: Vec<&str> =
            toks.iter().filter(|t| t.kind == "NUMBER").map(|t| t.text.as_str()).collect();
        assert_eq!(nums, ["1", "2.5", "3e-7"]);
    }

    #[test]
    fn bad_indent_is_an_error() {
        let src = "if x:\n        pass\n    pass\n";
        match tokenize_python(src) {
            Err(PyLexError::BadIndent { .. }) => {}
            other => panic!("expected BadIndent, got {other:?}"),
        }
    }

    #[test]
    fn unknown_character_is_an_error() {
        match tokenize_python("x = §\n") {
            Err(PyLexError::Lex(e)) => {
                assert!(e.span.start > 0);
                assert_eq!(e.position.line, 1);
            }
            other => panic!("expected lex error, got {other:?}"),
        }
    }

    #[test]
    fn missing_trailing_newline_still_closes() {
        let k = kinds("if x:\n    pass");
        assert_eq!(k.last().unwrap(), "ENDMARKER");
        assert!(k.contains(&"DEDENT".to_string()));
        assert_eq!(k.iter().filter(|s| *s == "NEWLINE").count(), 2);
    }

    #[test]
    fn endmarker_always_present() {
        assert_eq!(kinds(""), ["ENDMARKER"]);
        assert_eq!(kinds("\n\n"), ["ENDMARKER"]);
    }

    #[test]
    fn lexemes_outlive_the_source_string() {
        let toks = {
            let src = String::from("if x:\n    pass");
            tokenize_python(&src).unwrap()
        };
        let pairs: Vec<(&str, &str, usize)> =
            toks.iter().map(|t| (t.kind.as_str(), t.text.as_str(), t.offset)).collect();
        assert_eq!(
            pairs,
            [
                ("if", "if", 0),
                ("NAME", "x", 3),
                (":", ":", 4),
                ("NEWLINE", "\n", 5),
                ("INDENT", "", 10),
                ("pass", "pass", 10),
                ("NEWLINE", "\n", 14),
                ("DEDENT", "", 14),
                ("ENDMARKER", "", 14),
            ]
        );
    }

    #[test]
    fn lex_errors_take_precedence_over_bad_indents() {
        let src = "if x:\n        pass\n    pass\nz = §\n";
        assert!(matches!(tokenize_python(src), Err(PyLexError::Lex(_))));
    }

    #[test]
    fn tab_indentation() {
        let k = kinds("if x:\n\tpass\n");
        assert!(k.contains(&"INDENT".to_string()));
    }
}
