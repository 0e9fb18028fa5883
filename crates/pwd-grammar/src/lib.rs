//! Context-free grammars, their compilation into PWD expression graphs, the
//! benchmark grammar corpus, and workload generators.
//!
//! Part of the `derp` reproduction of *On the Complexity and Performance of
//! Parsing with Derivatives* (PLDI 2016). The paper converts traditional
//! CFG productions to nested parsing expressions (§2.5.1) and evaluates on a
//! 722-production Python grammar over the Python Standard Library; this
//! crate provides the CFG machinery, a Python-subset grammar, and synthetic
//! corpus generators standing in for those artifacts (see DESIGN.md for the
//! substitution rationale).
//!
//! # Quick start
//!
//! ```
//! use pwd_grammar::{grammars, gen, Compiled};
//! use pwd_core::ParserConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Parse generated Python-like source end to end.
//! let src = gen::python_source(120, 42);
//! let lexemes = pwd_lex::tokenize_python(&src)?;
//! let mut parser = Compiled::compile(&grammars::python::cfg(), ParserConfig::improved());
//! assert!(parser.recognize_lexemes(&lexemes)?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod cfg;
mod compile;
pub mod gen;
pub mod grammars;
mod kinds;
mod normalize;
mod random;
pub mod sppf;
mod transform;

pub use cfg::{Cfg, CfgBuilder, CfgError, Production, Symbol};
pub use compile::{Compiled, UnknownTerminal};
pub use kinds::KindMap;
pub use normalize::{eliminate_epsilon, eliminate_units};
pub use random::{random_cfg, random_input, RandomCfgConfig};
pub use sppf::{build_sppf, ProductionSpans};
pub use transform::{
    metrics, productive_nonterminals, remove_useless, GrammarMetrics, TransformError,
};
