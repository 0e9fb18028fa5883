//! Table-driven lexers built on Brzozowski-derivative DFAs, plus a
//! Python-like tokenizer with INDENT/DEDENT synthesis.
//!
//! This crate is the tokenization substrate of the `derp` reproduction of
//! *On the Complexity and Performance of Parsing with Derivatives* (PLDI
//! 2016). The paper's evaluation parses pre-tokenized Python source; this
//! crate produces equivalent token streams for the synthetic corpus, using
//! the derivative-based regex engine of `pwd-regex` for the scanning
//! automata.
//!
//! The streaming interface is primary: [`Lexer::source`] returns a
//! [`TokenSource`] — a pull-based stream of zero-copy `(kind, span)` tokens
//! over the borrowed input — which a parser session consumes token by token,
//! fusing lex and parse into one pass. [`Lexer::tokenize`] is a batch shim
//! over the same scan for callers that want an owned `Vec<Lexeme>`.
//!
//! # Quick start
//!
//! ```
//! use pwd_lex::{tokenize_python, LexerBuilder, TokenSource};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lexer = LexerBuilder::new()
//!     .rule("WORD", r"[a-z]+")?
//!     .skip("WS", r" +")?
//!     .build();
//!
//! // Streaming, zero-copy lexing:
//! let mut src = lexer.source("ab cd");
//! assert_eq!(src.next_token().unwrap()?.text, "ab");
//!
//! // Batch lexing (a shim over the stream):
//! assert_eq!(lexer.tokenize("ab cd")?.len(), 2);
//!
//! // Python-like tokenization with layout tokens:
//! let toks = tokenize_python("x = 1\n")?;
//! assert_eq!(toks.last().unwrap().kind, "ENDMARKER");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod lexer;
mod python;
mod scanner;
mod shared;
mod source;
mod span;
mod timed;

pub use buffer::{SourceBuffer, TokenEdit};
pub use lexer::{LexError, Lexeme, Lexer, LexerBuilder, SourceTokens};
pub use python::{tokenize_python, PyLexError, KEYWORDS};
pub use shared::SharedStr;
pub use source::{KindSource, LexemeSource, ScannedToken, TokenSource};
pub use span::{LineMap, Position, SourceMap, Span};
pub use timed::TimedSource;
