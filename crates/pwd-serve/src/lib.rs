//! `pwd-serve` — a thread-safe, batched parse service over the unified
//! parser backends.
//!
//! `Language::reset()` is an epoch bump plus a rollback of drop-free
//! arenas, so one compiled PWD engine can serve an unbounded stream of
//! inputs with zero rebuild cost.
//! This crate is the subsystem that actually drives that at scale: it
//! multiplexes many grammars and many concurrent inputs over pooled engine
//! sessions, hosting any backend of `derp::api` (PWD improved/original,
//! Earley, GLR) behind one service API.
//!
//! Two front ends share the infrastructure: the batch API
//! ([`ParseService::submit_batch`]) for parse-these-inputs traffic, and the
//! **live-session** API ([`ParseService::open_session`] →
//! [`feed_chunk`](ParseService::feed_chunk) →
//! [`checkpoint_session`](ParseService::checkpoint_session) /
//! [`rollback_session`](ParseService::rollback_session) →
//! [`finish_session`](ParseService::finish_session)) for streaming clients
//! — REPLs, LSP servers, network parse protocols — that feed input in
//! chunks, keep parser state alive across calls, and retract speculative
//! prefixes by rolling back to a saved derivative.
//!
//! The service is **fault-hardened**: every per-input run executes inside
//! a `catch_unwind` boundary, so a panicking backend costs exactly one
//! failed request ([`ServeError::WorkerPanicked`]) — the pooled session it
//! was using is quarantined rather than reused, the worker keeps draining
//! the batch, and quarantine/panic counters surface in
//! [`ParseService::metrics_text`]. Per-request token and wall-clock
//! budgets ([`ServiceConfig::max_tokens_per_input`],
//! [`ServiceConfig::time_budget`]) cancel runaway parses with structured
//! errors, and [`ServiceConfig::recovery`] runs inputs through `derp`'s
//! bounded-budget error recovery, attaching spanned diagnostics to each
//! outcome. The [`fault`] module's deterministic [`FaultPlan`] injects
//! panics, budget exhaustion, and lex errors by input index so chaos tests
//! can prove N faults cost exactly N failed requests and zero lost
//! workers.
//!
//! # Architecture
//!
//! Five layers, one per module:
//!
//! * [`cache`] — a **sharded compiled-grammar cache**. Grammars are keyed by
//!   the stable 64-bit [`Cfg::fingerprint`](pwd_grammar::Cfg::fingerprint);
//!   each shard is an independently locked map, so compiles of distinct
//!   grammars do not serialize. A hit hands back an `Arc<CachedGrammar>`
//!   whose compiled prototype is shared, immutably, by every thread.
//! * [`pool`] — a **per-worker session pool**. Parsing mutates engine state,
//!   so each run needs an exclusive session; the pool turns the one shared
//!   compile into per-thread sessions via
//!   [`Parser::fork`](derp::api::Parser::fork) (an arena memcpy, not a
//!   recompile) and recycles them with
//!   [`Recognizer::reset`](derp::api::Recognizer::reset) — for PWD the
//!   epoch bump and arena rollback — instead of reallocating arenas between
//!   inputs.
//! * [`service`] — the **batch front end**. [`ParseService::submit_batch`]
//!   fans a slice of inputs across a fixed worker pool (work-stealing over
//!   an atomic cursor, so stragglers do not idle the other workers) and
//!   collects per-input results *in input order* plus batch metrics. A
//!   batch's first worker runs on the caller's thread and each further one
//!   on a scoped thread, so a batch that needs one worker
//!   ([`ParseService::submit`] always does) spawns none.
//! * [`live`] — the **streaming front end**. Sessions checked out of the
//!   same pools, kept alive across calls in a registry, fed chunk by chunk
//!   with per-chunk outcomes, checkpointed/rolled back for speculative
//!   prefixes, and released back to a pool at finish.
//! * [`fault`] — **deterministic fault injection**: a [`FaultPlan`] keyed
//!   by batch input index drives real panics, budget exhaustion, and lex
//!   errors through the production failure paths for chaos testing.
//!
//! # Request lifecycle
//!
//! ```text
//!   Cfg ── fingerprint() ──► shard = fp mod S ──► GrammarCache[shard]
//!                                │ hit  ──────────────► Arc<CachedGrammar>
//!                                │ miss ── compile ───► insert, then share
//!                                ▼
//!   worker w ──► SessionPool[w].checkout(entry)
//!                  │ idle session for fp?  reuse it            (epoch-clean)
//!                  │ none?                 prototype.fork()    (memcpy only)
//!                  ▼
//!               run_input: Session::open(backend)
//!                  │ recovery set?   enable_recovery(budget)
//!                  │ feed the Input  one call, or 64-token strides
//!                  │                 with a deadline check before each
//!                  │ forests/trees/counts?  finish_forest_diagnostics
//!                  │ otherwise              finish_with_diagnostics
//!                  ▼                                   ──► ParseOutcome
//!               backend.metrics() ──► memo totals (one pass per input)
//!                  ▼
//!               SessionPool[w].checkin ──► Recognizer::reset()  (epoch bump:
//!                                          arena kept, state cleared)
//! ```
//!
//! # Example
//!
//! ```
//! use pwd_serve::{Input, ParseService, ServiceConfig};
//! use pwd_grammar::CfgBuilder;
//!
//! # fn main() -> Result<(), pwd_serve::ServeError> {
//! let mut g = CfgBuilder::new("S");
//! g.terminal("a");
//! g.rule("S", &["S", "S"]);
//! g.rule("S", &["a"]);
//! let cfg = g.build().expect("valid grammar");
//!
//! let service = ParseService::new(ServiceConfig { workers: 2, ..Default::default() });
//! let inputs: Vec<Input> = (1..5).map(|n| Input::from_kinds(&vec!["a"; n])).collect();
//! let report = service.submit_batch(&cfg, &inputs)?;
//! assert!(report.outcomes.iter().all(|o| o.as_ref().unwrap().accepted));
//! assert_eq!(report.metrics.inputs, 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod fault;
pub mod live;
mod obs;
pub mod pool;
pub mod service;

pub use cache::{CacheMetrics, CachedGrammar, GrammarCache};
pub use fault::{Fault, FaultPlan};
pub use live::{
    CheckpointId, FeedReport, FinishForestReport, FinishReport, SessionId, SessionStats,
    SessionStatus, SpliceReport,
};
pub use pool::{PoolMetrics, PooledSession, SessionPool};
pub use service::{
    BatchMetrics, BatchReport, BudgetKind, Input, MemoEffectiveness, ParseOutcome, ParseService,
    ServeError, ServiceConfig, ServiceMetrics,
};

// Everything the service shares across threads must be Send + Sync; checked
// here so a regression in any layer below (core arena, backend traits,
// cache entries) breaks the build instead of a stress test.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CachedGrammar>();
    assert_send_sync::<GrammarCache>();
    assert_send_sync::<ParseService>();
};
