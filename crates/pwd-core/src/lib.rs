//! Parsing with derivatives, made cubic and fast.
//!
//! This crate is the primary contribution of the `derp` reproduction of
//! *On the Complexity and Performance of Parsing with Derivatives*
//! (Adams, Hollenbeck & Might, PLDI 2016). It implements parsing with
//! derivatives (PWD) for arbitrary context-free grammars — including left
//! recursion and ambiguity — with the paper's three algorithmic
//! improvements, each independently switchable for ablation:
//!
//! * **Accelerated fixed points** for `nullable?` (§4.2) —
//!   [`NullStrategy`] — and for the per-token productivity pass that prunes
//!   empty derivative nodes, a worklist that revisits only the nodes whose
//!   inputs changed;
//! * **Improved compaction** applied locally at node-construction time
//!   (§4.3), including the associativity-canonicalization and
//!   reduction-floating rules — [`CompactionMode`];
//! * **Single-entry memoization** of `derive` stored in node fields instead
//!   of hash tables (§4.4) — [`MemoStrategy`].
//!
//! Beyond the paper, the memo can be keyed by terminal *class* instead of
//! token value ([`MemoKeying`]), sharing derivatives across distinct lexemes
//! — the difference between all-miss and all-hit caching on identifier-heavy
//! inputs — and recognize-mode derivatives can additionally be compiled into
//! a lazy transition-table automaton ([`AutomatonMode`]), making the
//! steady-state recognize loop a dense table walk with no graph
//! construction, memo probes, or hashing per token.
//!
//! It also carries the §3 complexity instrumentation: Definition-5 node
//! naming, node-census metrics, and the recognizer-form derivative used by
//! the cubic-bound proof.
//!
//! # Quick start
//!
//! The paper's running example, the left-recursive `L = (L ◦ L) ∪ c`:
//!
//! ```
//! use pwd_core::{EnumLimits, Language, TreeCount};
//!
//! # fn main() -> Result<(), pwd_core::PwdError> {
//! let mut lang = Language::default();
//! let c = lang.terminal("c");
//! let tc = lang.term_node(c);
//! let l = lang.forward();
//! let ll = lang.cat(l, l);
//! let body = lang.alt(ll, tc);
//! lang.define(l, body);
//!
//! let tok = lang.token(c, "c");
//! let input = vec![tok; 4];
//! assert!(lang.recognize(l, &input)?);
//!
//! // Highly ambiguous: 5 binary trees over 4 leaves (Catalan number C₃).
//! lang.reset();
//! assert_eq!(lang.count_parses(l, &input)?, TreeCount::Finite(5));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod automaton;
mod compact;
mod config;
mod derive;
mod dot;
mod error;
mod expr;
mod memo;
mod metrics;
mod names;
mod nullable;
mod obs;
mod prune;
mod session;
mod token;

pub use automaton::{AutomatonStats, StateSignature};
pub use config::{
    AutomatonMode, CompactionMode, MemoKeying, MemoStrategy, NullStrategy, ParseMode, ParserConfig,
    RecoveryBudget, DEFAULT_AUTOMATON_MAX_ROWS,
};
pub use error::PwdError;
pub use expr::{Language, NodeId};
pub use metrics::Metrics;
pub use names::Name;
pub use pwd_forest::Reduce;
pub use pwd_forest::{
    CanonError, EnumLimits, Forest, ForestId, ForestMark, ForestNode, ForestSummary, Leaf,
    ParseForest, RedId, Tree, TreeCount,
};
pub use pwd_obs::{Histogram, Phase, PhaseStats, TraceEvent};
pub use session::{SessionCheckpoint, SessionState};
pub use token::{TermId, TokKey, Token};

// Compile-time guarantee that the engine is thread-safe: a compiled
// `Language` (and everything reachable from it — reductions, tokens, parse
// trees) can be shared behind `Arc` and moved into worker threads. The
// serving layer (`pwd-serve`) builds its compiled-grammar cache and session
// pools on exactly this property, so losing it (e.g. by reintroducing an
// `Rc` in a node payload) must fail the build, not a test.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Language>();
    assert_send_sync::<Token>();
    assert_send_sync::<Reduce>();
    assert_send_sync::<Tree>();
    assert_send_sync::<PwdError>();
    assert_send_sync::<Metrics>();
};
