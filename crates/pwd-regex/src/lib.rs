//! Brzozowski regular-expression derivatives, re-examined — in Rust.
//!
//! This crate implements the §2.1 background machinery of
//! *On the Complexity and Performance of Parsing with Derivatives*
//! (Adams, Hollenbeck & Might, PLDI 2016): Brzozowski (1964) derivatives of
//! regular expressions, in the modern character-class formulation of
//! Owens, Reppy & Turon (2009), including derivative-class DFA construction.
//!
//! Within the `derp` reproduction it serves two roles:
//!
//! 1. **Lexing substrate** — `pwd-lex` compiles each token rule written in
//!    this crate's syntax to a [`Dfa`], then merges the rule vector's
//!    automata into one maximal-munch DFA (Owens et al. §4.3) that it scans
//!    with, mirroring how the paper's evaluation pre-tokenizes its Python
//!    corpus.
//! 2. **Test oracle** — on regular fragments, the context-free engine in
//!    `pwd-core` must agree with this crate; the integration suite exploits
//!    that for differential property testing.
//!
//! # Quick start
//!
//! ```
//! use pwd_regex::{parse, Dfa};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ident = parse(r"[a-zA-Z_][a-zA-Z0-9_]*")?;
//! let dfa = Dfa::build(&ident);
//! assert!(dfa.accepts("parse_with_derivatives"));
//! assert_eq!(dfa.longest_match("abc+def"), Some(3));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod class;
mod deriv;
mod dfa;
mod equiv;
mod parse;
mod syntax;

pub use class::CharClass;
pub use deriv::{derivative_classes, derive, derive_str, matches, nullable, Partition};
pub use dfa::{Dfa, StateId};
pub use equiv::{equivalent, includes, is_empty_lang};
pub use parse::{parse, ParseRegexError};
pub use syntax::{
    alt, alts, and, any_char, cat, ch, class, empty, eps, lit, not, opt, plus, repeat, seq, star,
    Re, Regex,
};
