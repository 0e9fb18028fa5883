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

use crate::lexer::{LexError, Lexeme, Lexer, LexerBuilder};
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

fn flat_lexer() -> &'static Lexer {
    static LEXER: OnceLock<Lexer> = OnceLock::new();
    LEXER.get_or_init(|| {
        let rules = flat_rules();
        LexerBuilder::new()
            .rule_list(rules.iter().map(|(kind, pattern, skip)| (*kind, pattern.as_str(), *skip)))
            .expect("static pattern")
            .build()
    })
}

/// Tokenizes Python-like source into a lexeme stream with synthesized
/// NEWLINE / INDENT / DEDENT / ENDMARKER tokens, keywords classified.
///
/// # Errors
///
/// [`PyLexError::Lex`] for unrecognized characters; [`PyLexError::BadIndent`]
/// for inconsistent dedents.
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
    let flat = flat_lexer().tokenize(src)?;
    let mut out: Vec<Lexeme> = Vec::with_capacity(flat.len() + 16);
    let mut indents: Vec<usize> = vec![0];
    let mut depth: usize = 0; // bracket nesting for implicit line joining
    let mut at_line_start = true;
    let mut last_nl_end = 0usize; // byte offset just after the last newline

    for lex in flat {
        match lex.kind.as_str() {
            "NL" => {
                if depth == 0 {
                    // Emit a logical NEWLINE only after actual content.
                    if out.last().is_some_and(|t| {
                        t.kind != "NEWLINE" && t.kind != "INDENT" && t.kind != "DEDENT"
                    }) {
                        out.push(Lexeme {
                            kind: "NEWLINE".into(),
                            text: "\n".into(),
                            offset: lex.offset,
                        });
                    }
                    at_line_start = true;
                }
                last_nl_end = lex.offset + 1;
            }
            _ => {
                if at_line_start && depth == 0 {
                    let col = indent_width(&src[last_nl_end..lex.offset]);
                    let current = *indents.last().expect("indent stack nonempty");
                    if col > current {
                        indents.push(col);
                        out.push(Lexeme {
                            kind: "INDENT".into(),
                            text: String::new(),
                            offset: lex.offset,
                        });
                    } else if col < current {
                        while *indents.last().expect("nonempty") > col {
                            indents.pop();
                            out.push(Lexeme {
                                kind: "DEDENT".into(),
                                text: String::new(),
                                offset: lex.offset,
                            });
                        }
                        if *indents.last().expect("nonempty") != col {
                            return Err(PyLexError::BadIndent { offset: lex.offset });
                        }
                    }
                    at_line_start = false;
                }
                match lex.kind.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth = depth.saturating_sub(1),
                    _ => {}
                }
                let kind = if lex.kind == "NAME" && KEYWORDS.contains(&lex.text.as_str()) {
                    lex.text.clone()
                } else {
                    lex.kind
                };
                out.push(Lexeme { kind, text: lex.text, offset: lex.offset });
            }
        }
    }
    // Final NEWLINE if the file didn't end with one.
    if out.last().is_some_and(|t| t.kind != "NEWLINE" && t.kind != "INDENT" && t.kind != "DEDENT") {
        out.push(Lexeme { kind: "NEWLINE".into(), text: "\n".into(), offset: src.len() });
    }
    while indents.len() > 1 {
        indents.pop();
        out.push(Lexeme { kind: "DEDENT".into(), text: String::new(), offset: src.len() });
    }
    out.push(Lexeme { kind: "ENDMARKER".into(), text: String::new(), offset: src.len() });
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
        tokenize_python(src).unwrap().into_iter().map(|t| t.kind).collect()
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
    fn tab_indentation() {
        let k = kinds("if x:\n\tpass\n");
        assert!(k.contains(&"INDENT".to_string()));
    }
}
