//! A backend-agnostic **streaming** parser API over the three parser
//! families.
//!
//! The paper's central observation is that the parser state after `k`
//! tokens is itself a first-class language — `D_{t1…tk}(L)` — which makes
//! parsing with derivatives naturally streaming and checkpointable. This
//! module makes that the shape of the whole system: every backend (the PWD
//! engine, the Earley baseline, the GLR baseline) implements one
//! incremental lifecycle, and batch parsing is a thin shim over it.
//!
//! ```text
//!   text ──► TokenSource ──► Session ──► verdict / forest
//!            (pwd-lex,        feed / feed_all
//!             zero-copy       checkpoint / rollback
//!             (kind, span))   finish
//! ```
//!
//! Every input shape is a [`TokenSource`] on the way in: a kind slice
//! ([`KindSource`]), a lexeme slice ([`LexemeSource`]), one token, or the
//! streaming lexer. So there are two token loops in this module: one in
//! [`Session`] that every `feed*` method reaches (recovery, incremental
//! bookkeeping and lex errors handled once, per token), and one raw loop
//! under the batch shims.
//!
//! 1. [`Recognizer::prepare`] — compile a backend from a [`Cfg`];
//! 2. [`Session::open`] (or [`Session::owned`]) — start an incremental
//!    parse: `feed` tokens as they arrive (straight from a streaming
//!    [`TokenSource`] via [`Session::feed_source`] — no intermediate
//!    `Vec<Lexeme>`), `checkpoint` a prefix, `rollback` a speculative
//!    continuation, `finish` for the verdict;
//! 3. [`Recognizer::recognize`] / [`Recognizer::recognize_lexemes`] /
//!    [`Recognizer::recognize_source`] — batch shims, provided once as
//!    default methods that feed the raw streaming hooks (each run starts
//!    from a clean slate);
//! 4. [`Parser::parse_count`] — count derivations, where supported;
//! 5. [`Recognizer::reset`] — return to the post-compile state (for PWD an
//!    epoch bump and an arena rollback); [`Recognizer::metrics`] — uniform
//!    work counters.
//!
//! **Checkpoint = saved derivative.** For the PWD backend a [`Checkpoint`]
//! is literally the derivative node after `k` tokens — the paper's
//! `D_{t1…tk}(L)` made operational; saving it is saving one `NodeId`, and
//! rolling back is a pointer restore that composes with the epoch-stamped
//! memo state and the never-evicted class-template rows (all keyed by
//! nodes, which survive). The baselines snapshot their own prefix state:
//! Earley the chart prefix, GLR the graph-structured-stack frontier.
//!
//! # Examples
//!
//! Race every backend on one input through the trait object interface:
//!
//! ```
//! use derp::api::{backends, Parser};
//! use derp::grammar::CfgBuilder;
//!
//! # fn main() -> Result<(), derp::api::BackendError> {
//! let mut g = CfgBuilder::new("S");
//! g.terminal("a");
//! g.rule("S", &["S", "S"]);
//! g.rule("S", &["a"]);
//! let cfg = g.build().expect("valid grammar");
//!
//! for backend in &mut backends(&cfg) {
//!     assert!(backend.recognize(&["a", "a", "a"])?);
//!     assert!(!backend.recognize(&[])?);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! Stream with checkpoint/rollback — the REPL/LSP shape:
//!
//! ```
//! use derp::api::{PwdBackend, Recognizer, Session};
//! use derp::grammar::CfgBuilder;
//!
//! # fn main() -> Result<(), derp::api::BackendError> {
//! let mut g = CfgBuilder::new("S");
//! g.terminals(&["a", "b"]);
//! g.rule("S", &["a", "S", "b"]);
//! g.rule("S", &["a", "b"]);
//! let cfg = g.build().expect("valid grammar");
//! let mut backend = PwdBackend::improved(&cfg);
//!
//! let mut session = Session::open(&mut backend)?;
//! session.feed_all(&["a", "a"])?;
//! let cp = session.checkpoint()?; // the language after "aa", saved
//! session.feed_all(&["a", "a"])?; // speculate…
//! session.rollback(&cp)?; // …and rewind to the saved derivative
//! session.feed_all(&["b", "b"])?;
//! assert!(session.finish()?, "aabb is a sentence");
//! # Ok(())
//! # }
//! ```

use crate::core::{ParseMode, ParserConfig, PwdError, RecoveryBudget, SessionState};
use crate::earley::{EarleyChart, EarleyParser, EarleyStats};
use crate::glr::{GlrParser, GlrStats};
use crate::grammar::{build_sppf, Cfg, Compiled, KindMap};
use crate::lex::{KindRef, LexError, Lexeme};
use crate::recover::{self, Diagnostic, InputToken, RecoveryState};
use std::collections::VecDeque;
use std::fmt;

pub use crate::core::StateSignature;
pub use pwd_forest::{EnumLimits, ForestSummary, ParseForest, Tree, TreeCount};
pub use pwd_lex::{
    KindSource, LexemeSource, ScannedToken, SourceBuffer, Span, TokenEdit, TokenSource,
};
pub use pwd_obs::{Histogram, Phase, PhaseStats};

/// An error from a parser backend: a malformed grammar, an input token
/// outside the grammar's alphabet, a lifecycle misuse (feeding without an
/// open session, restoring a foreign checkpoint), or an engine resource
/// limit.
///
/// A plain non-match is **not** an error — it is `Ok(false)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendError {
    /// The backend that produced the error.
    pub backend: &'static str,
    /// Human-readable description.
    pub message: String,
    /// The structured cause: an input token kind outside the grammar's
    /// alphabet. Kept private (with the [`is_unknown_kind`]
    /// accessor) because it is a *classification*, not free-form data —
    /// error recovery repairs unknown-kind feeds (the session state is
    /// untouched when they are raised) and must never retry any other
    /// error shape.
    ///
    /// [`is_unknown_kind`]: BackendError::is_unknown_kind
    unknown_kind: bool,
}

impl BackendError {
    fn new(backend: &'static str, message: impl fmt::Display) -> BackendError {
        BackendError { backend, message: message.to_string(), unknown_kind: false }
    }

    fn unknown_kind(backend: &'static str, message: impl fmt::Display) -> BackendError {
        BackendError { backend, message: message.to_string(), unknown_kind: true }
    }

    /// The error for the token at `position` whose kind is not a terminal
    /// of the grammar.
    pub(crate) fn outside_grammar(
        backend: &'static str,
        position: usize,
        kind: &str,
    ) -> BackendError {
        let message = format!("token {position} has kind {kind:?} outside the grammar");
        BackendError::unknown_kind(backend, message)
    }

    /// The error for a terminal index the grammar does not have.
    fn no_terminal(backend: &'static str, terminal: u32) -> BackendError {
        BackendError::unknown_kind(backend, format!("terminal {terminal} is outside the grammar"))
    }

    /// Was this error raised because a fed token's kind is not a terminal
    /// of the grammar? Such errors are raised *before* any session state
    /// changes, so the session remains usable — error recovery relies on
    /// exactly that to substitute or skip the offending token.
    pub fn is_unknown_kind(&self) -> bool {
        self.unknown_kind
    }

    fn no_session(backend: &'static str) -> BackendError {
        BackendError::new(backend, "no open session (call begin/Session::open first)")
    }

    fn stale_checkpoint(backend: &'static str) -> BackendError {
        BackendError::new(
            backend,
            "checkpoint does not belong to the open session \
             (taken in another session, or already rolled past)",
        )
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.backend, self.message)
    }
}

impl std::error::Error for BackendError {}

/// The result of counting the parse trees of an input: an exact `u128`
/// ([`TreeCount::Finite`]; 0 = rejected), an explicit
/// [`TreeCount::Overflow`] past 2¹²⁸, or [`TreeCount::Infinite`]. Every
/// backend counts now that all three build shared parse forests — the old
/// `Unsupported` variant (and its silent-overflow `usize` predecessor) is
/// gone.
pub use pwd_forest::TreeCount as ParseCount;

/// The observable state of a session after feeding a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedOutcome {
    /// The backend has not proven the prefix dead; for PWD this is precise
    /// (some continuation *does* reach a sentence).
    Viable {
        /// Is the *current* prefix itself a sentence?
        prefix_is_sentence: bool,
    },
    /// No continuation of the input can be accepted. Sticky until a
    /// rollback to a pre-death checkpoint.
    Dead,
}

impl FeedOutcome {
    /// Is the session still viable after this feed?
    pub fn is_viable(&self) -> bool {
        matches!(self, FeedOutcome::Viable { .. })
    }
}

/// A saved session position, restorable with [`Session::rollback`] (or the
/// [`Recognizer::rollback`] hook).
///
/// For PWD this wraps the saved derivative node — checkpointing **is** the
/// paper's "the state after `k` tokens is a language" made operational.
/// Earley checkpoints are chart-prefix lengths; GLR checkpoints snapshot
/// the GSS frontier. A checkpoint is valid for the session it was taken in,
/// **on the timeline it was taken on**: rolling back to an earlier position
/// invalidates every checkpoint taken after that position (the positions no
/// longer exist), while checkpoints at or before it stay restorable, any
/// number of times. Backends reject stale, foreign, or invalidated
/// checkpoints with a [`BackendError`] — validation is exact, enforced by
/// a per-session timeline guard shared by all backends.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Process-unique id of the session this checkpoint belongs to.
    session: u64,
    /// Tokens fed when the checkpoint was taken.
    tokens: usize,
    /// Timeline mark at that position (see `SessionGuard`).
    mark: u64,
    state: CheckpointState,
}

#[derive(Debug, Clone)]
enum CheckpointState {
    Pwd(crate::core::SessionCheckpoint),
    Earley(crate::earley::EarleyCheckpoint),
    Glr(crate::glr::GlrCheckpoint),
}

impl Checkpoint {
    /// Number of tokens fed when this checkpoint was taken.
    pub fn tokens_fed(&self) -> usize {
        self.tokens
    }
}

/// Per-session checkpoint bookkeeping, shared by every backend: a
/// process-unique session id plus a **timeline** — for each fed-token
/// position, the "era" (count of rollbacks so far) that wrote it. Rollback
/// bumps the era and cuts the timeline, so a checkpoint is admitted iff its
/// position still exists *and* was written in the era the checkpoint saw —
/// which exactly rejects the three invalid shapes (foreign session,
/// position rolled past, position re-fed after a rollback) with no false
/// rejections of the valid ones (restoring the same checkpoint repeatedly,
/// or any checkpoint at or before every rollback target since it was
/// taken).
///
/// The timeline is stored as era runs, not one mark per position: each era
/// writes a contiguous run of positions starting where its rollback cut the
/// timeline, so a feed only counts and a convergence jump only moves the
/// end.
struct SessionGuard {
    /// Process-unique session id (0 = no session open).
    session: u64,
    /// Rollbacks performed in this session (the current era).
    era: u64,
    /// Positions on the timeline (tokens fed).
    fed: usize,
    /// `(era, first position it wrote)`, both strictly increasing; the last
    /// run is always the current era's, starting at or before `fed + 1`.
    runs: Vec<(u64, usize)>,
}

impl SessionGuard {
    /// No session open.
    fn closed() -> SessionGuard {
        SessionGuard { session: 0, era: 0, fed: 0, runs: Vec::new() }
    }

    /// Opens a fresh session with a process-unique id.
    fn open() -> SessionGuard {
        static NEXT_SESSION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        SessionGuard {
            session: NEXT_SESSION.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            era: 0,
            fed: 0,
            runs: vec![(0, 0)],
        }
    }

    /// Records one fed token (call once per successful feed, dead or not).
    fn on_feed(&mut self) {
        self.fed += 1;
    }

    /// The era that wrote position `tokens`, if the position exists.
    fn mark(&self, tokens: usize) -> Option<u64> {
        if tokens > self.fed {
            return None;
        }
        let run = self.runs.partition_point(|&(_, first)| first <= tokens);
        self.runs[..run].last().map(|&(era, _)| era)
    }

    /// Stamps a checkpoint at the current position.
    fn stamp(&self, state: CheckpointState) -> Checkpoint {
        Checkpoint {
            session: self.session,
            tokens: self.fed,
            mark: self.mark(self.fed).expect("open guard has a mark"),
            state,
        }
    }

    /// Admits or rejects a checkpoint for restoration.
    fn admit(&self, cp: &Checkpoint, backend: &'static str) -> Result<(), BackendError> {
        if cp.session == self.session && self.mark(cp.tokens) == Some(cp.mark) {
            Ok(())
        } else {
            Err(BackendError::stale_checkpoint(backend))
        }
    }

    /// Records a rollback to `tokens` (call after the backend restored).
    fn on_rollback(&mut self, tokens: usize) {
        self.era += 1;
        self.cut(tokens);
    }

    /// Cuts the timeline back to `tokens` positions: later positions no
    /// longer exist, and the current era writes them when they are fed.
    fn cut(&mut self, tokens: usize) {
        self.fed = tokens;
        let kept = self.runs.partition_point(|&(_, first)| first <= tokens);
        self.runs.truncate(kept);
        if self.runs.last().is_none_or(|&(era, _)| era != self.era) {
            self.runs.push((self.era, tokens + 1));
        }
    }

    /// Extends the timeline to `tokens` positions, stamping the current era
    /// on every position added — the bookkeeping for a splice *convergence
    /// jump*, which lands the session at a position whose intermediate marks
    /// were never individually fed on this timeline. Checkpoints stamped at
    /// the new positions afterwards admit normally; checkpoints from before
    /// the jump's rollback stay invalidated (their eras are gone).
    fn extend_to(&mut self, tokens: usize) {
        if tokens >= self.fed {
            // The current era's run already covers every position past `fed`.
            self.fed = tokens;
        } else {
            self.cut(tokens);
        }
    }
}

/// Uniform per-backend instrumentation.
///
/// `work` and `live_state` are backend-specific units — PWD counts `derive`
/// calls and grammar nodes, Earley counts chart items, GLR counts
/// graph-structured-stack nodes and edges — so they compare *growth*, not
/// absolute cost, across backends.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BackendMetrics {
    /// Inputs run through `recognize`/`parse_count`/sessions since
    /// `prepare`.
    pub runs: u64,
    /// Work units spent on the most recent input.
    pub work: u64,
    /// Live state after the most recent input.
    pub live_state: u64,
    /// Work units answered from a memo/cache on the most recent input
    /// (PWD: `derive` calls served by the memo tables, including the
    /// class-template fast path). Zero for backends without a memo.
    pub memo_hits: u64,
    /// Work units that missed every cache and did real work on the most
    /// recent input (PWD: uncached `derive` calls).
    pub memo_misses: u64,
    /// Lexeme-independent derivative subgraphs shared verbatim with a new
    /// lexeme of the same terminal class (PWD class templates only).
    pub template_shares: u64,
    /// Derivatives of a repeat terminal class re-instantiated along the
    /// patch path to fresh leaves (PWD class templates, parse mode only).
    pub template_instantiations: u64,
    /// Lazy-automaton states interned, one dense transition row each (PWD
    /// recognize mode with the automaton axis on; zero elsewhere).
    pub auto_rows_built: u64,
    /// Tokens consumed by an automaton transition-table hit — no derive
    /// call, no memo probe, no hashing.
    pub auto_table_hits: u64,
    /// Tokens consumed by the interpreted path while the automaton was
    /// active (cold-table misses plus post-budget fallback steps).
    pub auto_fallbacks: u64,
    /// Approximate resident bytes of the backend's live parse state (PWD:
    /// the node/forest arenas plus their side pools; zero for backends
    /// without an arena).
    pub arena_bytes: u64,
    /// Tokens an edit splice did **not** refeed (prefix below the ladder
    /// rung plus suffix skipped by a convergence jump), cumulative over the
    /// session. Populated by the [`Session`] splice layer
    /// ([`Session::splice_tokens`]); zero for sessions without incremental
    /// mode.
    pub tokens_reused: u64,
    /// Tokens an edit splice refed through the backend (rung→damage
    /// catch-up, inserted tokens, and suffix tokens fed before
    /// convergence), cumulative over the session.
    pub tokens_refed: u64,
    /// Total distance (in tokens) between each splice's damage start and
    /// the checkpoint-ladder rung it restored — the rollback overshoot the
    /// bounded ladder paid, cumulative over the session.
    pub ladder_rollback_distance: u64,
    /// Snapshot of the per-phase latency histograms, present iff
    /// observability is enabled on the backend
    /// ([`Recognizer::set_obs`]). Boxed so the common disabled case adds
    /// one word, not ten histograms.
    pub phases: Option<Box<PhaseStats>>,
}

/// A compiled recognizer with a uniform **streaming** lifecycle.
///
/// The required methods are the streaming hooks — `begin`, `feed`,
/// `checkpoint`/`rollback`, `end` — one incremental state machine every
/// backend implements natively (PWD drives its derivative session, Earley
/// grows a chart, GLR grows a graph-structured stack). Everything
/// batch-shaped ([`recognize`](Recognizer::recognize),
/// [`recognize_lexemes`](Recognizer::recognize_lexemes),
/// [`recognize_source`](Recognizer::recognize_source)) is a provided
/// default over those hooks, shared by all backends. Prefer driving the
/// hooks through a [`Session`], which enforces the lifecycle.
///
/// Implementations must make every `recognize*` call independent: each run
/// observes the backend as freshly [`reset`](Recognizer::reset), and
/// `begin` always starts from a clean slate (any previously open session is
/// discarded).
///
/// `Send + Sync` is a supertrait bound: a backend must be movable into a
/// worker thread and shareable behind `Arc` (all mutation goes through
/// `&mut self`, so `Sync` costs implementations nothing — it just rules out
/// un-shareable interior mutability). The `pwd-serve` subsystem pools
/// backends across threads on exactly this guarantee.
pub trait Recognizer: Send + Sync {
    /// Compiles a backend for a grammar with its default configuration.
    fn prepare(cfg: &Cfg) -> Self
    where
        Self: Sized;

    /// A stable display name (`"pwd-improved"`, `"earley"`, …).
    fn name(&self) -> &'static str;

    // ------------------------------------------------------------------
    // Streaming hooks (the per-backend SPI)
    // ------------------------------------------------------------------

    /// Opens a streaming session from a clean slate, discarding any session
    /// already open.
    ///
    /// # Errors
    ///
    /// [`BackendError`] for malformed grammars.
    fn begin(&mut self) -> Result<(), BackendError>;

    /// The backend's resolver from token kinds to the terminal indices of
    /// its grammar, which [`feed_terminal`](Recognizer::feed_terminal)
    /// takes. A pooled backend keeps it across sessions, so a lexer's kinds
    /// are mapped once, not once per session or per token.
    fn kinds(&mut self) -> &mut KindMap;

    /// Feeds one token — its terminal index in the grammar (see
    /// [`kinds`](Recognizer::kinds)) and its lexeme text — to the open
    /// session: the per-token hook every feed path ends in. Returns whether
    /// the session is still viable (`false` = dead).
    ///
    /// This is deliberately the *cheap* hook: it must not pay for a
    /// sentence-hood probe (which costs GLR a full end-of-input reduce
    /// phase), so batch shims feed at full speed; callers that want the
    /// rich [`FeedOutcome`] go through [`Session::feed`] or
    /// [`Session::outcome`], which query
    /// [`prefix_is_sentence`](Recognizer::prefix_is_sentence) on demand.
    ///
    /// # Errors
    ///
    /// [`BackendError`] for a terminal index outside the grammar, engine
    /// resource limits, or feeding without an open session. A token that
    /// kills the language is *not* an error — it returns `Ok(false)`, and
    /// the verdict stays retrievable.
    fn feed_terminal(&mut self, terminal: u32, text: &str) -> Result<bool, BackendError>;

    /// Feeds one token by kind name: resolves the name, then
    /// [`feed_terminal`](Recognizer::feed_terminal).
    ///
    /// # Errors
    ///
    /// As [`feed_terminal`](Recognizer::feed_terminal); a kind outside the
    /// grammar's alphabet is an error for which
    /// [`BackendError::is_unknown_kind`] holds, raised before the session
    /// changes.
    fn feed(&mut self, kind: &str, text: &str) -> Result<bool, BackendError> {
        let kind = KindRef::name(kind);
        match self.kinds().resolve(kind) {
            Some(terminal) => self.feed_terminal(terminal, text),
            None => Err(unknown_kind(self, kind)),
        }
    }

    /// Tokens fed to the open session (0 when none is open).
    fn tokens_fed(&self) -> usize;

    /// Can some continuation of the open session still be accepted?
    /// (`true` when no session is open.)
    fn is_viable(&self) -> bool;

    /// Is the prefix fed so far a complete sentence?
    ///
    /// # Errors
    ///
    /// [`BackendError`] if no session is open.
    fn prefix_is_sentence(&mut self) -> Result<bool, BackendError>;

    /// Saves the open session's position — for PWD, the current derivative
    /// (one `NodeId`).
    ///
    /// # Errors
    ///
    /// [`BackendError`] if no session is open.
    fn checkpoint(&mut self) -> Result<Checkpoint, BackendError>;

    /// Restores a checkpoint taken earlier in the open session, on the
    /// current timeline (a rollback invalidates every checkpoint taken
    /// after its target position).
    ///
    /// # Errors
    ///
    /// [`BackendError`] for checkpoints from another session or backend,
    /// for positions rolled past (whether or not re-fed since), or if no
    /// session is open.
    fn rollback(&mut self, cp: &Checkpoint) -> Result<(), BackendError>;

    /// Closes the open session and returns whether the full fed input was
    /// accepted.
    ///
    /// # Errors
    ///
    /// [`BackendError`] if no session is open.
    fn end(&mut self) -> Result<bool, BackendError>;

    // ------------------------------------------------------------------
    // Batch shims (shared defaults over the streaming hooks)
    // ------------------------------------------------------------------

    /// Does the grammar accept this sequence of terminal kinds?
    ///
    /// One streaming session under the hood: `begin`, `feed` each kind (as
    /// its own text), `end`.
    ///
    /// # Errors
    ///
    /// [`BackendError`] for kinds outside the grammar's alphabet or engine
    /// resource limits; rejection is `Ok(false)`.
    fn recognize(&mut self, kinds: &[&str]) -> Result<bool, BackendError> {
        feed_raw(self, &mut KindSource::new(kinds))?;
        self.end()
    }

    /// Does the grammar accept this lexeme stream?
    ///
    /// Lexeme *text* reaches the engine (PWD's parse-mode memo is keyed by
    /// token value), via the same streaming session as
    /// [`recognize`](Recognizer::recognize).
    ///
    /// # Errors
    ///
    /// Same as [`recognize`](Recognizer::recognize).
    fn recognize_lexemes(&mut self, lexemes: &[Lexeme]) -> Result<bool, BackendError> {
        feed_raw(self, &mut LexemeSource::new(lexemes))?;
        self.end()
    }

    /// Does the grammar accept this token stream? The fused-pipeline entry
    /// point: tokens are pulled (and, for a streaming lexer source, matched)
    /// one at a time and fed straight into the session — no intermediate
    /// `Vec<Lexeme>` exists anywhere on this path.
    ///
    /// # Errors
    ///
    /// [`BackendError`] for lexing errors (wrapped), unknown kinds, and
    /// engine resource limits.
    fn recognize_source(&mut self, src: &mut dyn TokenSource) -> Result<bool, BackendError> {
        feed_raw(self, src)?;
        self.end()
    }

    /// Returns the backend to its freshly-[`prepare`](Recognizer::prepare)d
    /// state. Cheap for every backend; for PWD it is a single epoch bump.
    fn reset(&mut self);

    /// Enables or disables per-phase latency observability on this backend.
    ///
    /// When enabled, [`metrics`](Recognizer::metrics) carries a
    /// [`PhaseStats`] snapshot in [`BackendMetrics::phases`]: power-of-two
    /// duration histograms over the backend's instrumented phases (PWD:
    /// derive/compact/nullable/automaton-row/forest; the baselines: one
    /// derive-equivalent span per feed plus forest extraction). Disabling
    /// discards accumulated phase data. Backends honor the zero-overhead
    /// contract of `pwd-obs`: while disabled (the default) no clock is
    /// read, and with the `obs` cargo feature off the hooks compile away
    /// entirely — this method is then a no-op and `phases` stays `None`.
    ///
    /// The default implementation is a no-op, for recognizers without
    /// instrumentation.
    fn set_obs(&mut self, _enabled: bool) {}

    /// The terminals (grammar terminal indices) the open session can
    /// consume next — error recovery's candidate set, in no particular
    /// order. Empty when no session is open, when the session is dead, or
    /// for recognizers without the capability (the default).
    ///
    /// Each backend answers from its own state representation: PWD
    /// trial-derives a cloned session state w.r.t. every grammar terminal
    /// (each probe counted in the engine's `recovery_probes` metric),
    /// Earley reads the exact expected set off its chart frontier, and
    /// GLR reports the terminals its GSS frontier can actually shift
    /// (trial shifts on the raw session, below the checkpoint guard).
    /// The result is exact for grammars without useless symbols: feeding
    /// a reported terminal returns viable.
    fn expected_terminals(&mut self) -> Vec<u32> {
        Vec::new()
    }

    /// Accounts an externally timed error-recovery episode (nanoseconds)
    /// under the backend's [`Phase::Recover`] histogram, when
    /// observability is enabled. Recovery lives above the backends (in
    /// `derp::recover`), so the backends cannot time it themselves; the
    /// driver hands the measured span down through this hook. The default
    /// discards it.
    fn record_recover_span(&mut self, _nanos: u64) {}

    /// A comparable identity of the open session's parser state, when the
    /// backend can witness one **soundly**: equal signatures must imply the
    /// two states give identical verdicts on every continuation. The
    /// [`Session`] splice layer compares these across an edit for its
    /// convergence fast path — once the post-edit state provably matches
    /// the memoized pre-edit state at the same token alignment, the rest of
    /// the suffix need not be refed.
    ///
    /// `None` (the default) simply disables the fast path; splices still
    /// work by refeeding from the nearest checkpoint-ladder rung. The PWD
    /// backend answers in recognize mode (exact interned automaton state
    /// ids when the automaton axis is on, graph-isomorphism digests
    /// otherwise); parse mode stays `None` because equal recognize
    /// structure does not imply equal *forests*.
    fn state_signature(&mut self) -> Option<StateSignature> {
        None
    }

    /// Restores `cp` — a checkpoint of the open session whose state is
    /// known to be exactly what refeeding the remaining suffix would
    /// rebuild — and restamps the session at `tokens` fed tokens.
    ///
    /// [`Session::splice_tokens`], its sole sound caller, has two uses for
    /// it. The splice convergence jump restores a checkpoint taken at a
    /// **later** position, the end of a timeline whose signature matched at
    /// an aligned position. The stop at death restores the current state,
    /// just found dead, at the stream's end: ∅ stays ∅ whatever follows.
    /// This is the one restoration that deliberately bypasses the timeline
    /// guard's position admission (a jump target was invalidated by the
    /// splice's own rollback; only the session identity is checked). It
    /// must never be exposed to callers directly.
    /// Backends without an O(1) restorable state keep the default, which
    /// refuses; the splice then degrades to refeeding the suffix from the
    /// nearest rung (for Earley that refeed *is* chart-prefix reuse, for
    /// GLR re-entry from the saved GSS frontier).
    fn splice_restore(&mut self, _cp: &Checkpoint, _tokens: usize) -> Result<(), BackendError> {
        Err(BackendError::new(self.name(), "backend does not support the splice convergence jump"))
    }

    /// Re-stamps `cp` — a checkpoint from a timeline the splice's rollback
    /// invalidated — onto the **current** timeline at position `tokens`,
    /// returning a checkpoint that admits through the normal
    /// [`rollback`](Recognizer::rollback) path.
    ///
    /// Only sound after a successful
    /// [`splice_restore`](Recognizer::splice_restore) convergence jump,
    /// for old checkpoints at or beyond the convergence point (their states
    /// provably recur on the new timeline, shifted by the edit's length
    /// delta): this is how [`Session::splice_tokens`] keeps the checkpoint
    /// ladder dense across the jumped-over region, so repeated edits keep
    /// paying rung-local refeeds instead of degrading as rungs thin out.
    /// `None` (the default) skips the densification; the splice still
    /// works.
    fn reanchor_checkpoint(&mut self, _cp: &Checkpoint, _tokens: usize) -> Option<Checkpoint> {
        None
    }

    /// Instrumentation for the most recent run (live counters while a
    /// session is open).
    fn metrics(&self) -> BackendMetrics;
}

/// A [`Recognizer`] that also builds **shared parse forests** — the
/// ambiguity-node graphs under which PWD, Earley, and GLR are all cubic
/// (the paper's Lemma-3 representation), lifted into one backend-agnostic
/// API.
///
/// The one required forest hook is [`end_forest`](Parser::end_forest) (the
/// forest-returning twin of [`Recognizer::end`]); batch
/// [`parse_forest`](Parser::parse_forest) and the counting/enumeration
/// conveniences are shared shims over it. Every forest comes back
/// **canonical** ([`pwd_forest`]'s packed normal form), so forests from
/// different backends for the same input compare by
/// [`ParseForest::fingerprint`] — no tree enumeration, no exponential
/// tree-set diffing.
pub trait Parser: Recognizer {
    /// Closes the open session and returns the canonical shared parse
    /// forest of everything fed — the forest of **all** derivations, packed
    /// into a graph that stays polynomial where the tree count is
    /// exponential (or infinite). A rejected input yields the canonical
    /// empty forest (`count() == Finite(0)`), not an error.
    ///
    /// # Errors
    ///
    /// [`BackendError`] if no session is open, or for engine resource
    /// limits hit while extracting.
    fn end_forest(&mut self) -> Result<ParseForest, BackendError>;

    /// Parses a sequence of terminal kinds and returns its canonical
    /// shared forest — one streaming session under the hood (`begin`,
    /// `feed` each kind, [`end_forest`](Parser::end_forest)).
    ///
    /// # Errors
    ///
    /// As [`Recognizer::recognize`]; rejection is the empty forest.
    fn parse_forest(&mut self, kinds: &[&str]) -> Result<ParseForest, BackendError> {
        feed_raw(self, &mut KindSource::new(kinds))?;
        self.end_forest()
    }

    /// Counts the parse trees of an input — a shim over
    /// [`parse_forest`](Parser::parse_forest): exact, never enumerating,
    /// with explicit [`ParseCount::Overflow`] and
    /// [`ParseCount::Infinite`] outcomes.
    ///
    /// # Errors
    ///
    /// Same as [`Recognizer::recognize`]; a rejected input is
    /// `Ok(ParseCount::Finite(0))`.
    fn parse_count(&mut self, kinds: &[&str]) -> Result<ParseCount, BackendError> {
        Ok(self.parse_forest(kinds)?.count())
    }

    /// Enumerates up to `limits.max_trees` parse trees of an input — a
    /// shim over [`parse_forest`](Parser::parse_forest).
    ///
    /// # Errors
    ///
    /// Same as [`Recognizer::recognize`].
    fn parse_trees(
        &mut self,
        kinds: &[&str],
        limits: EnumLimits,
    ) -> Result<Vec<Tree>, BackendError> {
        Ok(self.parse_forest(kinds)?.trees(limits))
    }

    /// Clones this backend into an independent, freshly-reset instance
    /// without recompiling the grammar.
    ///
    /// The fork shares no mutable state with `self`: for PWD it duplicates
    /// the compiled arena (a flat memcpy — the expensive graph construction
    /// and hash-consing of [`Recognizer::prepare`] are *not* repeated), and
    /// for the stateless baselines it clones their tables. This is how a
    /// session pool turns one cached compile into N per-thread sessions.
    fn fork(&self) -> Box<dyn Parser>;
}

/// The batch shims' one loop: opens a session on `r` and feeds it `src`
/// dry through the raw hooks; the caller closes. Not a [`Session`]: a
/// `?Sized` default method cannot coerce `self` to `dyn Parser`, and the
/// raw hooks skip the session's per-token recovery and incremental checks.
fn feed_raw<R: Recognizer + ?Sized, S: TokenSource + ?Sized>(
    r: &mut R,
    src: &mut S,
) -> Result<(), BackendError> {
    r.begin()?;
    while let Some(item) = src.next_token() {
        let t = item.map_err(|e| BackendError::new(r.name(), e))?;
        let Some(terminal) = r.kinds().resolve(t.kind) else {
            return Err(unknown_kind(r, t.kind));
        };
        r.feed_terminal(terminal, t.text)?;
    }
    Ok(())
}

/// The error for feeding `r` a token of `kind`, which its grammar lacks.
#[cold]
fn unknown_kind<R: Recognizer + ?Sized>(r: &R, kind: KindRef<'_>) -> BackendError {
    BackendError::outside_grammar(r.name(), r.tokens_fed(), kind.as_str())
}

// ---------------------------------------------------------------------
// Session: the lifecycle façade
// ---------------------------------------------------------------------

enum BackendRef<'a> {
    Borrowed(&'a mut dyn Parser),
    Owned(Box<dyn Parser>),
}

impl BackendRef<'_> {
    fn get(&mut self) -> &mut dyn Parser {
        match self {
            BackendRef::Borrowed(b) => *b,
            BackendRef::Owned(b) => &mut **b,
        }
    }

    fn get_ref(&self) -> &dyn Parser {
        match self {
            BackendRef::Borrowed(b) => *b,
            BackendRef::Owned(b) => &**b,
        }
    }
}

/// An incremental parse over any [`Parser`] backend: the streaming façade
/// of the unified API.
///
/// `open_session → feed/feed_all → checkpoint/rollback → finish`, with
/// tokens arriving as kind/text pairs, lexeme slices, or — the fused
/// pipeline — straight from a zero-copy [`TokenSource`]
/// ([`feed_source`](Session::feed_source)).
///
/// A session either borrows its backend ([`Session::open`] — the
/// single-caller shape) or owns it ([`Session::owned`] — the pooled-service
/// shape, where the backend is recovered for reuse with
/// [`finish_and_release`](Session::finish_and_release)).
///
/// **Checkpoint = saved derivative**: see [`Checkpoint`]. Speculative
/// prefixes (editor lookahead, a REPL line being typed) are fed, and on
/// retraction rolled back, without re-parsing the committed prefix.
///
/// Every `feed*` method drains its input through one loop over a
/// [`TokenSource`] (kind slices, lexeme slices and single tokens through
/// small adapters), and the `finish*` closers share one close path.
///
/// **Error recovery** is a per-session opt-in
/// ([`enable_recovery`](Session::enable_recovery)): with a
/// [`RecoveryBudget`] installed, the feed loop repairs dead feeds
/// (substitute / insert / skip, scored by lookahead survival — see
/// [`crate::recover`]) instead of going dead, accumulating one spanned
/// [`Diagnostic`] per repair, surfaced incrementally via
/// [`diagnostics`](Session::diagnostics) and finally via
/// [`finish_with_diagnostics`](Session::finish_with_diagnostics) /
/// [`finish_forest_diagnostics`](Session::finish_forest_diagnostics).
/// Healthy tokens cost one checkpoint each and are never copied; the
/// lookahead a repair scores against is pulled from the input only when a
/// token dies. With recovery off (the default) nothing changes — not even
/// a checkpoint is taken per feed.
///
/// **Incremental reparse** is a second per-session opt-in
/// ([`enable_incremental`](Session::enable_incremental)): the session then
/// remembers its fed tokens, maintains a bounded, evenly-spaced
/// *checkpoint ladder* over them, and supports
/// [`splice_tokens`](Session::splice_tokens) /
/// [`splice`](Session::splice) — apply a text or token edit and bring the
/// parse up to date by rolling back only to the nearest rung at or before
/// the damage and refeeding the relexed window, instead of reparsing from
/// scratch. See [`SpliceOutcome`] for what each splice reports.
pub struct Session<'a> {
    backend: BackendRef<'a>,
    recovery: Option<RecoveryState>,
    incremental: Option<IncrementalState>,
}

/// Upper bound on checkpoint-ladder rungs per session. When the ladder
/// fills, the rung stride doubles and every rung off the new stride is
/// dropped — the ladder stays evenly spaced and bounded while the worst
/// rollback overshoot stays within one stride of the damage point.
const MAX_RUNGS: usize = 256;

/// The fed token stream of an incremental session: each token's terminal
/// index and the offset and length of its text, appended to one text arena.
/// Refeeding a recorded token resolves nothing. A splice or rollback drops
/// records, leaving their bytes dead in the arena; once the dead bytes
/// outnumber the live ones, the arena is rebuilt from the live records, so
/// it stays within twice the live text and each rebuild is paid for by as
/// many dropped bytes as it copies.
#[derive(Default)]
struct History {
    text: String,
    /// One record per token; a splice moves the records after it.
    records: Vec<Recorded>,
    /// Bytes of `text` no record addresses.
    dead: usize,
}

/// One recorded token: 16 bytes.
#[derive(Clone, Copy)]
struct Recorded {
    /// Where the token's text starts in the arena.
    start: usize,
    /// Its length in bytes.
    len: u32,
    /// Its terminal index.
    terminal: u32,
}

impl Recorded {
    fn end(&self) -> usize {
        self.start + self.len as usize
    }
}

impl History {
    fn len(&self) -> usize {
        self.records.len()
    }

    /// The terminal and text of token `pos`.
    fn get(&self, pos: usize) -> (u32, &str) {
        let r = self.records[pos];
        (r.terminal, &self.text[r.start..r.end()])
    }

    fn append(arena: &mut String, terminal: u32, text: &str) -> Recorded {
        let start = arena.len();
        arena.push_str(text);
        let len = u32::try_from(text.len()).expect("a token's text is under 4 GiB");
        Recorded { start, len, terminal }
    }

    fn push(&mut self, terminal: u32, text: &str) {
        let r = History::append(&mut self.text, terminal, text);
        self.records.push(r);
    }

    /// Replaces the `remove` tokens at `at` with `insert`.
    fn splice<'t>(
        &mut self,
        at: usize,
        remove: usize,
        insert: impl Iterator<Item = (u32, &'t str)>,
    ) {
        self.dead += self.records[at..at + remove].iter().map(|r| r.len as usize).sum::<usize>();
        let arena = &mut self.text;
        self.records.splice(at..at + remove, insert.map(|(t, x)| History::append(arena, t, x)));
        self.rebuild_if_sparse();
    }

    /// Drops every token from position `len` on.
    fn truncate(&mut self, len: usize) {
        if len >= self.records.len() {
            return;
        }
        self.dead += self.records[len..].iter().map(|r| r.len as usize).sum::<usize>();
        self.records.truncate(len);
        self.rebuild_if_sparse();
    }

    fn rebuild_if_sparse(&mut self) {
        if self.dead <= self.text.len() - self.dead {
            return;
        }
        let mut text = String::with_capacity(2 * (self.text.len() - self.dead));
        for r in &mut self.records {
            let start = text.len();
            text.push_str(&self.text[r.start..r.end()]);
            r.start = start;
        }
        self.text = text;
        self.dead = 0;
    }
}

const _: () = assert!(std::mem::size_of::<Recorded>() == 16);

/// The per-session bookkeeping behind [`Session::splice_tokens`]: the fed
/// token history (the splice coordinate system), the memoized per-position
/// state signatures (the convergence fast path's oracle), and the
/// checkpoint ladder (the bounded set of rollback targets).
///
/// The soundness rule of the fast path: a recorded signature at position
/// `p` may be compared only when the timeline that recorded it fed, from
/// `p` to its end, exactly the tokens the stream now holds from `p` to its
/// end, and a match jumps to that timeline's end state. Three ranges of
/// `sigs` follow from it once a refeed stops at death (see
/// [`Session::splice_tokens`]): positions before `stopped` belong to the
/// current timeline and land on the current end; the gap from there holds
/// older timelines' signatures and is never compared; the shadow's
/// positions belong to the last live timeline and land on its end.
struct IncrementalState {
    /// Every fed token; `history.len()` tracks `tokens_fed` exactly.
    history: History,
    /// `sigs[k]` = backend state signature after `k` tokens (`None` when
    /// the backend cannot witness one soundly); always `history.len() + 1`
    /// entries.
    sigs: Vec<Option<StateSignature>>,
    /// The position at which the last refeed's state died, when that
    /// refeed stopped there: the current timeline recorded `sigs` before it
    /// and re-stamped its dead state at the end. `None` when the current
    /// timeline recorded every position.
    stopped: Option<usize>,
    /// The last live timeline, kept while the document is dead.
    shadow: Option<Shadow>,
    /// The shadow's rungs, parked: `(distance from the stream's end,
    /// checkpoint)`, nearest the end last. Empty without a shadow; kept
    /// outside it so the vector's allocation is reused.
    parked: Vec<(usize, Checkpoint)>,
    /// Ladder rungs `(position, checkpoint)`, sorted by position; rung 0 at
    /// position 0 always exists, so every splice has a restorable target.
    /// During a splice the `stale` entries break the order.
    ladder: Vec<(usize, Checkpoint)>,
    /// The rungs a splice's rollback left on the old timeline, in old
    /// positions; empty outside [`Session::splice_tokens`].
    stale: std::ops::Range<usize>,
    /// Current rung spacing (doubles when the ladder would exceed
    /// [`MAX_RUNGS`]).
    stride: usize,
    /// The terminals of the tokens the running splice inserts, resolved
    /// before it changes anything (kept to reuse its allocation).
    inserted: Vec<u32>,
    /// Cumulative splice counters, surfaced through [`Session::metrics`].
    tokens_reused: u64,
    tokens_refed: u64,
    ladder_rollback_distance: u64,
}

/// The last live timeline of a session whose splice killed it. A refeed
/// that dies stops there, so from the death on `sigs` still holds what
/// that timeline recorded; a later splice that mends the document converges
/// against those signatures and lands on [`end`](Shadow::end).
struct Shadow {
    /// The shadow's positions are the last `tail` before the stream's end:
    /// counted from the end, an edit before them moves none.
    tail: usize,
    /// The timeline's end state.
    end: Checkpoint,
}

impl IncrementalState {
    /// Forgets the shadow and its parked rungs: its end state no longer
    /// ends the stream, or the current timeline has overwritten it.
    fn drop_shadow(&mut self) {
        self.shadow = None;
        self.parked.clear();
    }

    /// Keeps at most the last `tail` positions of the shadow, and the
    /// parked rungs on them.
    fn clip_shadow(&mut self, tail: usize) {
        let Some(shadow) = self.shadow.as_mut() else { return };
        shadow.tail = shadow.tail.min(tail);
        if shadow.tail == 0 {
            self.drop_shadow();
            return;
        }
        let cut = self.parked.partition_point(|&(from_end, _)| from_end > shadow.tail);
        self.parked.drain(..cut);
    }

    /// Halves the ladder density (doubling the laying stride) until the
    /// rung count is back under [`MAX_RUNGS`]. Thins by entry index, not
    /// position alignment: rungs re-anchored after a convergence jump sit
    /// at delta-shifted (possibly unaligned) positions and must survive
    /// proportionally. Stale rungs neither count nor thin.
    fn enforce_rung_cap(&mut self) {
        while self.ladder.len() - self.stale.len() > MAX_RUNGS {
            self.stride *= 2;
            let stale = self.stale.clone();
            let (mut idx, mut live, mut dropped_below) = (0usize, 0usize, 0usize);
            self.ladder.retain(|_| {
                idx += 1;
                if stale.contains(&(idx - 1)) {
                    return true;
                }
                live += 1;
                let keep = (live - 1).is_multiple_of(2);
                dropped_below += usize::from(!keep && idx - 1 < stale.start);
                keep
            });
            self.stale = stale.start - dropped_below..stale.end - dropped_below;
        }
    }
}

/// What one [`Session::splice_tokens`] / [`Session::splice`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpliceOutcome {
    /// Position (tokens fed) of the checkpoint-ladder rung the splice
    /// restored — the reparse re-entry point.
    pub rung: usize,
    /// Tokens refed through the backend: rung→damage catch-up, the
    /// inserted tokens, and suffix tokens fed before convergence or, when
    /// the refeed stopped at death, up to the death.
    pub refed: usize,
    /// Tokens of the new stream *not* refed (prefix below the rung plus
    /// suffix skipped by a convergence jump or a stop at death), so that
    /// `refed + reused` is the stream's length.
    pub reused: usize,
    /// New-stream position at which the convergence fast path matched a
    /// recorded signature (of the pre-edit timeline or of the shadow, see
    /// [`Session::splice_tokens`]) and jumped to that timeline's end state,
    /// skipping the rest of the suffix. A refeed that stopped at death in a
    /// document that was dead already converged too, at the first suffix
    /// position from which both timelines are dead (∅ = ∅), where the
    /// pre-edit one recorded its death. `None` when the splice refed to the
    /// end or killed a live document.
    pub converged_at: Option<usize>,
    /// The session outcome after the splice (same as
    /// [`Session::outcome`]).
    pub outcome: FeedOutcome,
}

/// A splice's token edit: `removed` tokens at `at` replaced by `inserted`.
#[derive(Clone, Copy)]
struct Edit {
    at: usize,
    removed: usize,
    inserted: usize,
}

/// How a splice's refeed ended.
#[derive(Clone, Copy)]
enum Refeed {
    /// It fed to the stream's end.
    Ran,
    /// Its state died and was re-stamped at the stream's end: `Some(pos)`
    /// when the refeed's state died at position `pos`, `None` when the
    /// state at the rung was dead already.
    Stopped(Option<usize>),
    /// A signature matched at `pos`, and the refeed jumped to the end
    /// state of the current timeline or, `into_shadow`, of the shadow.
    Converged { pos: usize, into_shadow: bool },
}

impl<'a> Session<'a> {
    /// Opens a session borrowing `backend` (discarding any session already
    /// open on it).
    ///
    /// # Errors
    ///
    /// [`BackendError`] for malformed grammars.
    pub fn open(backend: &'a mut dyn Parser) -> Result<Session<'a>, BackendError> {
        backend.begin()?;
        Ok(Session { backend: BackendRef::Borrowed(backend), recovery: None, incremental: None })
    }

    /// Opens a session that owns its backend — the shape a session pool
    /// hands out, recovered at [`finish_and_release`](Session::finish_and_release).
    ///
    /// # Errors
    ///
    /// [`BackendError`] for malformed grammars (the backend is dropped).
    pub fn owned(mut backend: Box<dyn Parser>) -> Result<Session<'static>, BackendError> {
        backend.begin()?;
        Ok(Session { backend: BackendRef::Owned(backend), recovery: None, incremental: None })
    }

    /// Turns on bounded-budget error recovery for the rest of this
    /// session. Subsequent feeds repair dead and unknown-kind tokens
    /// within `budget` (see [`crate::recover`] for the cost model) and
    /// record a [`Diagnostic`] per repair. Clean input is unaffected —
    /// byte-identical verdicts and forests, one extra checkpoint per feed.
    ///
    /// Recovery and incremental splicing are mutually exclusive (a repair
    /// rewrites the fed stream out from under the splice history); enabling
    /// recovery turns incremental mode off.
    pub fn enable_recovery(&mut self, budget: RecoveryBudget) {
        self.recovery = Some(RecoveryState::new(budget));
        self.incremental = None;
    }

    /// Turns on incremental reparse for this session: subsequent feeds are
    /// remembered (kind + text), a bounded checkpoint ladder is maintained
    /// over them, and edits can be applied with
    /// [`splice_tokens`](Session::splice_tokens) /
    /// [`splice`](Session::splice) instead of reparsing from scratch.
    ///
    /// The remembered stream costs no allocation per token: each token's
    /// text bytes are appended to one arena, and a 16-byte record per token
    /// holds its terminal index and addresses its text. A splice replaces
    /// records in place and appends only the inserted tokens' bytes; the
    /// bytes of replaced or rolled-back tokens stay in the arena until they
    /// outnumber the live ones, when the arena is rebuilt from the live
    /// records. Per token the session also memoizes one state signature.
    ///
    /// Must be called on a fresh session (no tokens fed). Mutually
    /// exclusive with error recovery.
    ///
    /// # Errors
    ///
    /// [`BackendError`] if tokens were already fed or recovery is enabled.
    pub fn enable_incremental(&mut self) -> Result<(), BackendError> {
        if self.recovery.is_some() {
            return Err(BackendError::new(
                self.name(),
                "incremental splicing and error recovery are mutually exclusive on a session",
            ));
        }
        if self.backend.get_ref().tokens_fed() != 0 {
            return Err(BackendError::new(
                self.name(),
                "enable_incremental requires a fresh session (no tokens fed)",
            ));
        }
        let cp0 = self.backend.get().checkpoint()?;
        let sig0 = self.backend.get().state_signature();
        self.incremental = Some(IncrementalState {
            history: History::default(),
            sigs: vec![sig0],
            ladder: vec![(0, cp0)],
            stale: 0..0,
            stride: 1,
            stopped: None,
            shadow: None,
            parked: Vec::new(),
            inserted: Vec::new(),
            tokens_reused: 0,
            tokens_refed: 0,
            ladder_rollback_distance: 0,
        });
        Ok(())
    }

    /// Is incremental reparse enabled on this session?
    pub fn incremental_enabled(&self) -> bool {
        self.incremental.is_some()
    }

    /// Is error recovery enabled on this session?
    pub fn recovery_enabled(&self) -> bool {
        self.recovery.is_some()
    }

    /// The diagnostics accumulated so far — live during feeding, so a
    /// REPL/LSP loop can surface errors per keystroke. Empty when
    /// recovery is off or the input has been clean.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        self.recovery.as_ref().map_or(&[], |r| &r.diagnostics)
    }

    /// Drains the accumulated diagnostics (they stop being returned by
    /// the `finish_*_diagnostics` closers).
    pub fn take_diagnostics(&mut self) -> Vec<Diagnostic> {
        self.recovery.as_mut().map_or_else(Vec::new, |r| std::mem::take(&mut r.diagnostics))
    }

    /// The backend's display name.
    pub fn name(&self) -> &'static str {
        self.backend.get_ref().name()
    }

    /// The one way in for feeding: every `feed*` method drains its input
    /// through here, as a [`TokenSource`] (`spanned` = its spans are worth
    /// reporting; bare kind feeds carry none), in one of two loops, so each
    /// token takes exactly one feed path. Each token's kind is resolved to
    /// its terminal once, here at the edge: a lexer's kind through the
    /// backend's [`KindMap`] (one array read), a bare name by name. Recovery
    /// off, each borrowed token is fed as it stands and, in incremental
    /// mode, recorded; a lex error or an unknown kind aborts. Recovery on,
    /// each token takes the fast path (checkpoint + feed); only a token that
    /// dies is copied, with the next [`RecoveryBudget::lookahead`] tokens
    /// pulled behind it for repair scoring and fed afterwards, and a lex
    /// error becomes a diagnostic when the loop reaches it.
    fn feed_from<S: TokenSource + ?Sized>(
        &mut self,
        src: &mut S,
        spanned: bool,
    ) -> Result<FeedOutcome, BackendError> {
        let Some(rs) = self.recovery.as_mut() else {
            // An append leaves the shadow's end short of the stream's end.
            if let Some(inc) = self.incremental.as_mut() {
                inc.drop_shadow();
            }
            while let Some(item) = src.next_token() {
                let backend = self.backend.get();
                let t = item.map_err(|e| BackendError::new(backend.name(), e))?;
                let Some(terminal) = backend.kinds().resolve(t.kind) else {
                    return Err(unknown_kind(backend, t.kind));
                };
                backend.feed_terminal(terminal, t.text)?;
                if self.incremental.is_some() {
                    self.record(terminal, t.text)?;
                }
            }
            return self.outcome();
        };
        // Tokens (and lex errors) pulled as lookahead, not yet fed.
        let mut pulled: VecDeque<Result<InputToken<'static>, LexError>> = VecDeque::new();
        loop {
            let backend = self.backend.get();
            let item = match pulled.pop_front() {
                Some(item) => item,
                None => match src.next_token() {
                    Some(item) => item.map(|t| InputToken::new(backend, t, spanned)),
                    None => break,
                },
            };
            let tok = match item {
                Ok(tok) => tok,
                Err(e) => {
                    rs.note_lex_error(&e);
                    continue;
                }
            };
            let Some(failure) = recover::feed_recovering(backend, rs, &tok)? else {
                continue;
            };
            let tok = tok.into_owned();
            let mut ready = pulled.iter().filter(|item| item.is_ok()).count();
            while ready < rs.budget.lookahead {
                let Some(item) = src.next_token() else { break };
                ready += usize::from(item.is_ok());
                pulled.push_back(item.map(|t| InputToken::new(backend, t, spanned).into_owned()));
            }
            let lookahead: Vec<InputToken> =
                pulled.iter().filter_map(|item| item.as_ref().ok().map(InputToken::view)).collect();
            recover::repair(backend, rs, failure, &tok, &lookahead)?;
        }
        self.outcome()
    }

    /// Records a token just fed in the splice bookkeeping of incremental
    /// mode. Every non-recovery feed path calls it after each feed
    /// (recovery and incremental are mutually exclusive, so recovery paths
    /// never need the bookkeeping).
    fn record(&mut self, terminal: u32, text: &str) -> Result<(), BackendError> {
        let inc = self.incremental.as_mut().expect("incremental enabled on this path");
        inc.history.push(terminal, text);
        inc.sigs.push(None);
        let at = inc.history.len();
        self.note_position(at).map(|_| ())
    }

    /// Incremental-mode bookkeeping for the position just fed, `at` in the
    /// history: memoize its state signature and, on the stride, lay a
    /// ladder rung there (keeping the ladder bounded and evenly spaced).
    /// Returns the signature it replaced.
    fn note_position(&mut self, at: usize) -> Result<Option<StateSignature>, BackendError> {
        let sig = self.backend.get().state_signature();
        let fed = self.backend.get_ref().tokens_fed();
        debug_assert_eq!(fed, at, "splice history tracks the backend exactly");
        let inc = self.incremental.as_mut().expect("incremental enabled on this path");
        let replaced = std::mem::replace(&mut inc.sigs[fed], sig);
        if fed.is_multiple_of(inc.stride) {
            let cp = self.backend.get().checkpoint()?;
            let inc = self.incremental.as_mut().expect("checked above");
            inc.ladder.push((fed, cp));
            inc.enforce_rung_cap();
        }
        Ok(replaced)
    }

    /// Feeds one token and reports the rich outcome (viability plus
    /// sentence-hood of the new prefix; the sentence probe runs on demand —
    /// use the raw [`Recognizer::feed`] hook to skip it).
    ///
    /// # Errors
    ///
    /// See [`Recognizer::feed`].
    pub fn feed(&mut self, kind: &str, text: &str) -> Result<FeedOutcome, BackendError> {
        self.feed_from(&mut OneToken(Some((kind, text))), false)
    }

    /// Feeds one kind, using the kind as its own text.
    ///
    /// # Errors
    ///
    /// See [`Recognizer::feed`].
    pub fn feed_kind(&mut self, kind: &str) -> Result<FeedOutcome, BackendError> {
        self.feed(kind, kind)
    }

    /// Feeds a sequence of kinds; returns the outcome after the last one
    /// (one sentence probe per call, not per token).
    ///
    /// # Errors
    ///
    /// See [`Recognizer::feed`].
    pub fn feed_all<S: AsRef<str>>(&mut self, kinds: &[S]) -> Result<FeedOutcome, BackendError> {
        self.feed_from(&mut KindSource::new(kinds), false)
    }

    /// Feeds a lexeme slice (kind + text per token); returns the outcome
    /// after the last one (one sentence probe per call, not per token).
    ///
    /// # Errors
    ///
    /// See [`Recognizer::feed`].
    pub fn feed_lexemes(&mut self, lexemes: &[Lexeme]) -> Result<FeedOutcome, BackendError> {
        self.feed_from(&mut LexemeSource::new(lexemes), true)
    }

    /// Drains a [`TokenSource`] into the session — the fused lex+parse
    /// path: each token is matched, borrowed, fed, and dropped before the
    /// next is pulled, with no intermediate vector. With recovery on, lex
    /// errors become diagnostics at their stream position (the streaming
    /// lexer resynchronizes past the bad bytes itself) instead of aborting
    /// the parse, and at most [`RecoveryBudget::lookahead`] tokens are
    /// held at a time.
    ///
    /// # Errors
    ///
    /// Lexing errors (recovery off) are wrapped in a [`BackendError`];
    /// feeding errors as in [`Recognizer::feed`].
    pub fn feed_source(&mut self, src: &mut dyn TokenSource) -> Result<FeedOutcome, BackendError> {
        self.feed_from(src, true)
    }

    /// The current outcome (without feeding anything).
    ///
    /// # Errors
    ///
    /// [`BackendError`] if the backend lost its session (a bug).
    pub fn outcome(&mut self) -> Result<FeedOutcome, BackendError> {
        let backend = self.backend.get();
        if !backend.is_viable() {
            return Ok(FeedOutcome::Dead);
        }
        Ok(FeedOutcome::Viable { prefix_is_sentence: backend.prefix_is_sentence()? })
    }

    /// Is the prefix fed so far a complete sentence?
    ///
    /// # Errors
    ///
    /// [`BackendError`] if the backend lost its session (a bug).
    pub fn prefix_is_sentence(&mut self) -> Result<bool, BackendError> {
        let backend = self.backend.get();
        Ok(backend.is_viable() && backend.prefix_is_sentence()?)
    }

    /// Can some continuation still be accepted?
    pub fn is_viable(&self) -> bool {
        self.backend.get_ref().is_viable()
    }

    /// Tokens fed so far.
    pub fn tokens_fed(&self) -> usize {
        self.backend.get_ref().tokens_fed()
    }

    /// Enables or disables observability on the underlying backend (see
    /// [`Recognizer::set_obs`]).
    pub fn set_obs(&mut self, enabled: bool) {
        self.backend.get().set_obs(enabled);
    }

    /// The backend's live instrumentation counters (and, with observability
    /// enabled, its per-phase latency histograms). In incremental mode the
    /// session overlays its cumulative splice counters
    /// ([`BackendMetrics::tokens_reused`], [`BackendMetrics::tokens_refed`],
    /// [`BackendMetrics::ladder_rollback_distance`]).
    pub fn metrics(&self) -> BackendMetrics {
        let mut m = self.backend.get_ref().metrics();
        if let Some(inc) = &self.incremental {
            m.tokens_reused = inc.tokens_reused;
            m.tokens_refed = inc.tokens_refed;
            m.ladder_rollback_distance = inc.ladder_rollback_distance;
        }
        m
    }

    /// Saves the current position — for PWD, the derivative `D_{t1…tk}(L)`
    /// itself.
    ///
    /// # Errors
    ///
    /// See [`Recognizer::checkpoint`].
    pub fn checkpoint(&mut self) -> Result<Checkpoint, BackendError> {
        self.backend.get().checkpoint()
    }

    /// Rolls back to a checkpoint taken earlier in this session, on the
    /// current timeline. Checkpoints taken *after* the restored position
    /// become invalid (and stay invalid even if the positions are re-fed);
    /// the restored checkpoint itself, and any earlier one, can be
    /// restored again.
    ///
    /// # Errors
    ///
    /// See [`Recognizer::rollback`].
    pub fn rollback(&mut self, cp: &Checkpoint) -> Result<(), BackendError> {
        self.backend.get().rollback(cp)?;
        if let Some(inc) = self.incremental.as_mut() {
            // The splice history follows the timeline: positions after the
            // restored one no longer exist, and neither do the ladder rungs
            // that pointed at them.
            let pos = cp.tokens_fed();
            inc.history.truncate(pos);
            inc.sigs.truncate(pos + 1);
            inc.ladder.retain(|(rung, _)| *rung <= pos);
            // A restored position before the death is the current
            // timeline's; from the death on, the gap stays a gap.
            inc.stopped = inc.stopped.filter(|&stop| stop <= pos);
            inc.drop_shadow();
        }
        Ok(())
    }

    /// Applies a token-level edit to the fed stream — replace
    /// `remove` tokens starting at position `at` with `insert` — and brings
    /// the parse up to date with maximal reuse outside the damaged region.
    ///
    /// The reparse re-enters from the nearest checkpoint-ladder rung at or
    /// before `at` (PWD restores the saved derivative; Earley the chart
    /// prefix; GLR the saved GSS frontier) and refeeds only from there.
    /// While refeeding the undamaged suffix, backends that witness sound
    /// state signatures ([`Recognizer::state_signature`]) get the
    /// **convergence fast path**: the moment the post-edit state equals the
    /// memoized pre-edit state at the same token alignment, the session
    /// jumps straight to the saved pre-edit end state instead of refeeding
    /// the rest — a single-token edit in a large buffer then costs a
    /// handful of feeds, not half the buffer.
    ///
    /// The fast path's soundness rule: a recorded signature at position `p`
    /// may be compared only when the timeline that recorded it fed, from
    /// `p` to its end, exactly the tokens the stream now holds from `p` to
    /// its end, and a match jumps to that timeline's end state.
    ///
    /// A refeed whose state dies **stops at death**: the dead state is
    /// re-stamped at the stream's end ([`Recognizer::splice_restore`]), so
    /// a keystroke that breaks the document costs its catch-up from the
    /// rung plus the tokens up to the death, and one that edits a dead
    /// document converges with it where both are dead. The positions from
    /// the death on keep the signatures of the timeline that fed them. When
    /// the splice killed a live document, that timeline becomes the **shadow**, with
    /// its end state and its rungs past the death: a later splice that
    /// mends the document converges against the shadow like any other
    /// splice, lands on the shadow's end and re-anchors its rungs. An edit
    /// inside the shadow cuts its start to the edit's end; a refeed that
    /// runs to the end alive, an append, a rollback or the session's end
    /// drops it. Backends that refuse the jump (Earley, GLR) refeed through
    /// death, and backends without signatures (PWD parse mode) stop at
    /// death but refeed the suffix of a mend.
    ///
    /// Checkpoints the caller took at or before the rung stay restorable;
    /// checkpoints after it are invalidated — exactly the
    /// [`rollback`](Session::rollback) timeline semantics, because the
    /// rung restore *is* a rollback.
    ///
    /// Each inserted kind is resolved by name, once, before anything
    /// changes; the recorded stream and every refeed carry terminal indices.
    ///
    /// # Errors
    ///
    /// [`BackendError`] if incremental mode is off, the range exceeds the
    /// fed stream or an inserted kind is outside the grammar (the session
    /// is then untouched), or the backend hits a resource limit mid-refeed
    /// (the session should then be discarded).
    pub fn splice_tokens(
        &mut self,
        at: usize,
        remove: usize,
        insert: &[(&str, &str)],
    ) -> Result<SpliceOutcome, BackendError> {
        self.splice_with(at, remove, insert)
    }

    /// [`splice_tokens`](Session::splice_tokens) for lexed tokens: each
    /// inserted lexeme's kind resolves through the backend's [`KindMap`].
    /// [`splice`](Session::splice) takes this path with the tokens its
    /// relex produced.
    ///
    /// # Errors
    ///
    /// As [`splice_tokens`](Session::splice_tokens).
    pub fn splice_lexemes(
        &mut self,
        at: usize,
        remove: usize,
        insert: &[Lexeme],
    ) -> Result<SpliceOutcome, BackendError> {
        self.splice_with(at, remove, insert)
    }

    /// The splice behind [`splice_tokens`](Session::splice_tokens) and
    /// [`splice_lexemes`](Session::splice_lexemes).
    fn splice_with<T: Inserted>(
        &mut self,
        at: usize,
        remove: usize,
        insert: &[T],
    ) -> Result<SpliceOutcome, BackendError> {
        let name = self.name();
        let Some(inc) = self.incremental.as_mut() else {
            return Err(BackendError::new(
                name,
                "splice requires enable_incremental() on a fresh session",
            ));
        };
        let len = inc.history.len();
        if at + remove > len {
            return Err(BackendError::new(
                name,
                format!("splice range {at}..{} exceeds the {len} fed tokens", at + remove),
            ));
        }
        // Resolve the inserted kinds, once each, before anything changes.
        let kinds = self.backend.get().kinds();
        inc.inserted.clear();
        for (i, tok) in insert.iter().enumerate() {
            let kind = tok.token().0;
            let Some(terminal) = kinds.resolve(kind) else {
                return Err(BackendError::outside_grammar(name, at + i, kind.as_str()));
            };
            inc.inserted.push(terminal);
        }
        if remove == 0 && insert.is_empty() {
            let outcome = self.outcome()?;
            return Ok(SpliceOutcome {
                rung: at,
                refed: 0,
                reused: len,
                converged_at: None,
                outcome,
            });
        }
        if at == len && remove == 0 {
            // Pure append: the current state is already the re-entry point,
            // and the shadow's end no longer ends the stream.
            self.incremental.as_mut().expect("checked above").drop_shadow();
            for (i, tok) in insert.iter().enumerate() {
                let terminal = self.incremental.as_ref().expect("checked above").inserted[i];
                let text = tok.token().1;
                self.backend.get().feed_terminal(terminal, text)?;
                self.record(terminal, text)?;
            }
            let inc = self.incremental.as_mut().expect("checked above");
            inc.tokens_refed += insert.len() as u64;
            inc.tokens_reused += len as u64;
            let outcome = self.outcome()?;
            return Ok(SpliceOutcome {
                rung: at,
                refed: insert.len(),
                reused: len,
                converged_at: None,
                outcome,
            });
        }

        // The pre-edit end state: the convergence jump's landing target,
        // and the shadow's end if this splice kills a live document.
        let was_viable = self.backend.get_ref().is_viable();
        let end_cp = self.backend.get().checkpoint()?;

        // Nearest ladder rung at or before the damage start (rung 0 always
        // exists).
        let inc = self.incremental.as_mut().expect("checked above");
        let idx = inc.ladder.partition_point(|(pos, _)| *pos <= at);
        let (rung_pos, rung_cp) = inc.ladder[idx - 1].clone();

        // Roll back first: admission is checked before any state is
        // mutated, so a refused rollback leaves the session exactly as it
        // was — and the bookkeeping below can then edit in place: the work
        // outside the refeed is proportional to the edit, not the suffix.
        self.backend.get().rollback(&rung_cp)?;

        let inc = self.incremental.as_mut().expect("checked above");
        // The rungs past the restored one were laid on the old timeline.
        // They stay where they are while the refeed lays new rungs after
        // them, and the convergence jump re-stamps the ones it can reuse.
        inc.stale = idx..inc.ladder.len();
        inc.ladder_rollback_distance += (at - rung_pos) as u64;

        let edit = Edit { at, removed: remove, inserted: insert.len() };
        let new_len = len - remove + insert.len();
        // The old signature aligned with the first suffix position; the
        // edit below drops it. Each later one is still in `sigs` when the
        // refeed overwrites it, which hands it back.
        let old_sig = inc.sigs[at + remove];
        // Edit the recorded stream in place. Signature positions after each
        // removed token die; the inserted tokens' slots are placeholders
        // the refeed below always overwrites (inserted tokens are always
        // refed); everything beyond shifts by the edit's length delta.
        let texts = insert.iter().map(|tok| tok.token().1);
        inc.history.splice(at, remove, inc.inserted.iter().copied().zip(texts));
        inc.sigs.splice(at + 1..at + 1 + remove, std::iter::repeat_n(None, insert.len()));
        // Past the edit's end the shadow's timeline still fed the tokens
        // the stream holds; before it, no longer.
        inc.clip_shadow(len - (at + remove));
        let dead_from = inc.stopped;

        let refeed = self.refeed_spliced(edit, rung_pos, &end_cp, old_sig);
        let ended = refeed.as_ref().ok().map(|&(_, ended)| ended);
        self.settle(edit, ended, was_viable.then_some(end_cp))?;
        let (refed, ended) = refeed?;

        let inc = self.incremental.as_mut().expect("checked above");
        debug_assert_eq!(inc.history.len(), new_len, "splice rebuilt the full token stream");
        inc.tokens_refed += refed as u64;
        inc.tokens_reused += (new_len - refed) as u64;
        let converged_at = match ended {
            Refeed::Converged { pos, .. } => Some(pos),
            // A document dead from `dead_from` on agrees with a refeed that
            // died (∅ = ∅) from where both are dead, past the edit.
            Refeed::Stopped(died) => dead_from
                .map(|from| {
                    let aligned = (from + insert.len()).saturating_sub(remove);
                    died.unwrap_or(0).max(at + insert.len()).max(aligned)
                })
                .filter(|&pos| pos < new_len),
            Refeed::Ran => None,
        };
        let outcome = self.outcome()?;
        Ok(SpliceOutcome { rung: rung_pos, refed, reused: new_len - refed, converged_at, outcome })
    }

    /// The refeed of [`splice_tokens`](Session::splice_tokens) after the
    /// rung restore and the in-place edit: the catch-up from the rung, the
    /// inserted tokens, then the suffix until convergence. `old_sig` starts
    /// as the old signature aligned with the first suffix position. A state
    /// that dies ends the refeed wherever it dies: ∅ stays ∅ whatever
    /// follows, so the dead state is re-stamped at the stream's end (a
    /// backend that refuses the jump feeds on, as it always has). Returns
    /// the tokens refed and how the refeed ended.
    fn refeed_spliced(
        &mut self,
        edit: Edit,
        rung_pos: usize,
        end_cp: &Checkpoint,
        mut old_sig: Option<StateSignature>,
    ) -> Result<(usize, Refeed), BackendError> {
        let Edit { at, removed, inserted } = edit;
        let inc = self.incremental.as_ref().expect("incremental enabled");
        let new_len = inc.history.len();
        // Where a match may land, by the soundness rule: on the current end
        // before `current` (new positions whose old ones precede the current
        // timeline's death), on the shadow's end from `shadow` on, and
        // nowhere in the gap between.
        let current = inc.stopped.map_or(new_len, |stop| (stop + inserted).saturating_sub(removed));
        let shadow = inc.shadow.as_ref().map_or(new_len, |sh| new_len - sh.tail);
        let suffix = at + inserted;
        let mut refed = 0usize;
        let mut stop_at_death = true;
        if !self.backend.get_ref().is_viable() {
            // Dead at the rung already: the old death precedes the edit.
            if self.jump_dead_to_end(new_len)? {
                return Ok((0, Refeed::Stopped(None)));
            }
            stop_at_death = false;
        }
        for pos in rung_pos..new_len {
            // Past the inserted tokens, check for convergence before each
            // feed, at old-coordinate positions past the rung.
            if pos >= suffix && pos + removed - inserted > rung_pos {
                let inc = self.incremental.as_ref().expect("incremental enabled");
                let target = if pos < current {
                    Some(end_cp)
                } else {
                    inc.shadow.as_ref().filter(|_| pos >= shadow).map(|sh| &sh.end)
                };
                if let (Some(cur), Some(old), Some(target)) = (inc.sigs[pos], old_sig, target) {
                    // Equal signatures ⇒ equal languages ⇒ feeding the
                    // identical remaining suffix must land on the end state
                    // of the timeline that recorded `old`. Jump there — the
                    // history and the shifted signature tail are already in
                    // place. A backend that refuses the jump just keeps
                    // refeeding.
                    if cur == old && self.backend.get().splice_restore(target, new_len).is_ok() {
                        return Ok((refed, Refeed::Converged { pos, into_shadow: pos >= shadow }));
                    }
                }
            }
            let inc = self.incremental.as_ref().expect("incremental enabled");
            let (terminal, text) = inc.history.get(pos);
            let viable = self.backend.get().feed_terminal(terminal, text)?;
            refed += 1;
            if !viable && stop_at_death {
                // The death's own position keeps the signature recorded
                // there: the dead state's is never compared.
                if self.jump_dead_to_end(new_len)? {
                    return Ok((refed, Refeed::Stopped(Some(pos + 1))));
                }
                stop_at_death = false;
            }
            let replaced = self.note_position(pos + 1)?;
            if pos >= suffix {
                old_sig = replaced;
            }
        }
        Ok((refed, Refeed::Ran))
    }

    /// Re-stamps the dead current state at position `len`, the stream's
    /// end, through [`Recognizer::splice_restore`]: `false` when the
    /// backend refuses the jump.
    fn jump_dead_to_end(&mut self, len: usize) -> Result<bool, BackendError> {
        let backend = self.backend.get();
        let dead = backend.checkpoint()?;
        Ok(backend.splice_restore(&dead, len).is_ok())
    }

    /// Ends a splice's bookkeeping of rungs, death and shadow, given how its
    /// refeed `ended` (`None`: it failed) and, when the document was live
    /// before the edit, its end state `was_live`.
    ///
    /// - After a convergence jump the ladder stays dense across the
    ///   jumped-over range: from the convergence point on, the old
    ///   timeline's states recur on the new one, shifted by the edit's
    ///   length delta. So the stale rungs there (or, after a jump into the
    ///   shadow, its parked rungs) are re-stamped onto the current timeline
    ///   and moved after the refeed's rungs, and the landing position
    ///   becomes a rung. Without this, repeated edits thin the ladder above
    ///   each edit point and later splices pay ever-longer catch-up
    ///   refeeds.
    /// - After a stop at death, a document that was live becomes the
    ///   shadow from the first position, at or past the death, whose
    ///   signature is still the pre-edit one, and its stale rungs there are
    ///   parked with it. A document that was dead keeps its shadow from
    ///   that position on.
    ///
    /// Every other stale rung is dropped.
    fn settle(
        &mut self,
        edit: Edit,
        ended: Option<Refeed>,
        was_live: Option<Checkpoint>,
    ) -> Result<(), BackendError> {
        let Edit { at, removed, inserted } = edit;
        let inc = self.incremental.as_mut().expect("incremental enabled");
        let stale = std::mem::take(&mut inc.stale);
        let new_len = inc.history.len();
        match ended {
            None | Some(Refeed::Ran) => {
                inc.ladder.drain(stale);
                inc.stopped = None;
                inc.drop_shadow();
                return Ok(());
            }
            Some(Refeed::Stopped(died)) => {
                // The refeed overwrote the signatures before the death, and
                // the edit those up to its end.
                let first = died.unwrap_or(0).max(at + inserted + 1);
                let tail = new_len.saturating_sub(first);
                match was_live {
                    Some(end) if tail > 0 && inc.sigs[0].is_some() => {
                        // A live document has no shadow to keep: this one
                        // starts afresh.
                        inc.drop_shadow();
                        inc.parked.reserve(stale.len());
                        for (pos, cp) in inc.ladder.drain(stale) {
                            let shifted = (pos + inserted).checked_sub(removed);
                            if let Some(pos) = shifted.filter(|p| (first..new_len).contains(p)) {
                                inc.parked.push((new_len - pos, cp));
                            }
                        }
                        inc.shadow = Some(Shadow { tail, end });
                    }
                    _ => {
                        inc.ladder.drain(stale);
                        inc.clip_shadow(tail);
                    }
                }
                if died.is_some() {
                    inc.stopped = died;
                }
                return Ok(());
            }
            Some(Refeed::Converged { pos: new_pos, into_shadow: false }) => {
                inc.stopped = inc.stopped.map(|stop| stop + inserted - removed);
                let old_pos = new_pos + removed - inserted;
                let mut kept = stale.start;
                for i in stale.clone() {
                    let pos = inc.ladder[i].0;
                    if pos < old_pos || pos + inserted - removed >= new_len {
                        continue;
                    }
                    let shifted = pos + inserted - removed;
                    if let Some(re) =
                        self.backend.get().reanchor_checkpoint(&inc.ladder[i].1, shifted)
                    {
                        inc.ladder[kept] = (shifted, re);
                        kept += 1;
                    }
                }
                inc.ladder.drain(kept..stale.end);
                inc.ladder[stale.start..].rotate_left(kept - stale.start);
            }
            Some(Refeed::Converged { pos: new_pos, into_shadow: true }) => {
                inc.ladder.drain(stale);
                for (from_end, cp) in inc.parked.drain(..) {
                    let pos = new_len - from_end;
                    if pos < new_pos {
                        continue;
                    }
                    if let Some(re) = self.backend.get().reanchor_checkpoint(&cp, pos) {
                        inc.ladder.push((pos, re));
                    }
                }
                inc.stopped = None;
                inc.shadow = None;
            }
        }
        // The landing position itself is always a rung.
        let cp = self.backend.get().checkpoint()?;
        inc.ladder.push((new_len, cp));
        inc.enforce_rung_cap();
        Ok(())
    }

    /// Applies a text edit — replace bytes `start..end` of `buf` with
    /// `replacement` — by splicing the buffer (incremental relex of a
    /// bounded window, see [`SourceBuffer::splice`]) and then splicing the
    /// resulting token edit into the parse via
    /// [`splice_tokens`](Session::splice_tokens). The buffer and the
    /// session must have been kept in step (the session fed exactly the
    /// buffer's lexemes).
    ///
    /// # Errors
    ///
    /// Lexing errors are wrapped in a [`BackendError`] with the buffer
    /// unchanged; see [`splice_tokens`](Session::splice_tokens) for the
    /// rest. If the *parse* splice fails after the buffer committed, the
    /// buffer and session are out of step — discard the session.
    pub fn splice(
        &mut self,
        buf: &mut SourceBuffer<'_>,
        start: usize,
        end: usize,
        replacement: &str,
    ) -> Result<SpliceOutcome, BackendError> {
        if self.incremental.is_none() {
            return Err(BackendError::new(
                self.name(),
                "splice requires enable_incremental() on a fresh session",
            ));
        }
        let edit =
            buf.splice(start, end, replacement).map_err(|e| BackendError::new(self.name(), e))?;
        self.splice_lexemes(edit.start, edit.removed, &edit.inserted)
    }

    /// Closes the session: was the full fed input accepted?
    ///
    /// # Errors
    ///
    /// [`BackendError`] if the backend lost its session (a bug).
    pub fn finish(mut self) -> Result<bool, BackendError> {
        self.close(|b| b.end()).0
    }

    /// Closes the session and returns the verdict together with every
    /// diagnostic recovery recorded — the recovery-aware twin of
    /// [`finish`](Session::finish). With recovery off the diagnostics are
    /// always empty.
    ///
    /// # Errors
    ///
    /// [`BackendError`] if the backend lost its session (a bug).
    pub fn finish_with_diagnostics(mut self) -> Result<(bool, Vec<Diagnostic>), BackendError> {
        let (verdict, diags) = self.close(|b| b.end());
        Ok((verdict?, diags))
    }

    /// Closes the session and, if the backend is owned, hands it back for
    /// pooling/reuse (`None` for borrowed sessions — the caller still holds
    /// the backend).
    pub fn finish_and_release(mut self) -> (Result<bool, BackendError>, Option<Box<dyn Parser>>) {
        (self.close(|b| b.end()).0, self.release())
    }

    /// Closes the session and returns the canonical shared parse forest of
    /// everything fed (the empty forest if the input was rejected) — the
    /// streaming twin of [`Parser::parse_forest`].
    ///
    /// # Errors
    ///
    /// See [`Parser::end_forest`].
    pub fn finish_forest(mut self) -> Result<ParseForest, BackendError> {
        self.close(|b| b.end_forest()).0
    }

    /// Closes the session and returns the canonical forest of the
    /// (possibly repaired) input **and** the diagnostics explaining every
    /// repair — the `(Forest, Vec<Diagnostic>)` shape of a
    /// recovery-aware parse. A prefix recovery could not complete yields
    /// the empty forest plus the diagnostics that got it there.
    ///
    /// # Errors
    ///
    /// See [`Parser::end_forest`].
    pub fn finish_forest_diagnostics(
        mut self,
    ) -> Result<(ParseForest, Vec<Diagnostic>), BackendError> {
        let (forest, diags) = self.close(|b| b.end_forest());
        Ok((forest?, diags))
    }

    /// Closes the session with a forest and, if the backend is owned, hands
    /// it back for pooling/reuse.
    pub fn finish_forest_and_release(
        mut self,
    ) -> (Result<ParseForest, BackendError>, Option<Box<dyn Parser>>) {
        (self.close(|b| b.end_forest()).0, self.release())
    }

    /// The one close path behind every `finish*` adapter: the end-of-input
    /// repair (recovery on, viable, incomplete → bounded insertion search),
    /// then the backend's closer `end` — run even when the repair fails, so
    /// the backend never keeps the session open — and the diagnostics.
    fn close<T>(
        &mut self,
        end: impl FnOnce(&mut dyn Parser) -> Result<T, BackendError>,
    ) -> (Result<T, BackendError>, Vec<Diagnostic>) {
        let repaired = match self.recovery.as_mut() {
            Some(rs) => recover::repair_eof(self.backend.get(), rs),
            None => Ok(()),
        };
        let diags = self.take_diagnostics();
        (repaired.and(end(self.backend.get())), diags)
    }

    /// The backend, if owned, for pooling/reuse after [`close`](Session::close).
    fn release(self) -> Option<Box<dyn Parser>> {
        match self.backend {
            BackendRef::Borrowed(_) => None,
            BackendRef::Owned(b) => Some(b),
        }
    }
}

/// A one-token [`TokenSource`]: how [`Session::feed`] reaches the feed
/// loop.
struct OneToken<'a>(Option<(&'a str, &'a str)>);

impl TokenSource for OneToken<'_> {
    fn next_token(&mut self) -> Option<Result<ScannedToken<'_>, LexError>> {
        let (kind, text) = self.0.take()?;
        Some(Ok(ScannedToken { kind: KindRef::name(kind), text, span: Span::new(0, 0) }))
    }
}

/// A token a splice inserts: its kind and its text.
trait Inserted {
    fn token(&self) -> (KindRef<'_>, &str);
}

impl Inserted for (&str, &str) {
    fn token(&self) -> (KindRef<'_>, &str) {
        (KindRef::name(self.0), self.1)
    }
}

impl Inserted for Lexeme {
    fn token(&self) -> (KindRef<'_>, &str) {
        (self.kind.as_kind_ref(), &self.text)
    }
}

impl fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("backend", &self.name())
            .field("tokens_fed", &self.tokens_fed())
            .field("viable", &self.is_viable())
            .field("owned", &matches!(self.backend, BackendRef::Owned(_)))
            .finish()
    }
}

// ---------------------------------------------------------------------
// PWD
// ---------------------------------------------------------------------

/// The PWD engine behind the uniform API: a [`Compiled`] grammar driven
/// through the core engine's ownable session state, reusing one arena
/// across runs via epoch reset.
pub struct PwdBackend {
    compiled: Compiled,
    label: &'static str,
    runs: u64,
    session: Option<SessionState>,
    /// Stamps and validates checkpoints (a stale one would resurrect nodes
    /// from a reset epoch).
    guard: SessionGuard,
}

impl PwdBackend {
    /// Compiles the paper's improved configuration.
    pub fn improved(cfg: &Cfg) -> PwdBackend {
        PwdBackend::with_config(cfg, ParserConfig::improved(), "pwd-improved")
    }

    /// Compiles the Might et al. (2011) configuration.
    pub fn original_2011(cfg: &Cfg) -> PwdBackend {
        PwdBackend::with_config(cfg, ParserConfig::original_2011(), "pwd-original")
    }

    /// Compiles the improved configuration in recognize mode, where the
    /// lazy derivative automaton DFA-izes the hot loop: steady-state
    /// tokens are consumed by a dense transition-table walk instead of
    /// graph construction. Recognition-only — [`Parser::end_forest`]
    /// reports an error because recognize mode builds no forests.
    pub fn dfa(cfg: &Cfg) -> PwdBackend {
        let config = ParserConfig { mode: ParseMode::Recognize, ..ParserConfig::improved() };
        PwdBackend::with_config(cfg, config, "pwd-dfa")
    }

    /// Compiles an arbitrary engine configuration under a display label.
    pub fn with_config(cfg: &Cfg, config: ParserConfig, label: &'static str) -> PwdBackend {
        PwdBackend {
            compiled: Compiled::compile(cfg, config),
            label,
            runs: 0,
            session: None,
            guard: SessionGuard::closed(),
        }
    }

    /// Wraps an already-compiled engine (e.g. a clone of a cached
    /// [`Compiled`] template) without paying compilation again.
    pub fn from_compiled(mut compiled: Compiled, label: &'static str) -> PwdBackend {
        compiled.lang.reset();
        PwdBackend { compiled, label, runs: 0, session: None, guard: SessionGuard::closed() }
    }

    /// The underlying compiled engine, for backend-specific inspection.
    pub fn compiled(&self) -> &Compiled {
        &self.compiled
    }

    fn err(&self, e: PwdError) -> BackendError {
        BackendError::new(self.label, e)
    }
}

impl Recognizer for PwdBackend {
    fn prepare(cfg: &Cfg) -> PwdBackend {
        PwdBackend::improved(cfg)
    }

    fn name(&self) -> &'static str {
        self.label
    }

    fn begin(&mut self) -> Result<(), BackendError> {
        self.session = None;
        self.compiled.lang.reset();
        self.runs += 1;
        self.guard = SessionGuard::open();
        let start = self.compiled.start;
        let state = SessionState::start(&mut self.compiled.lang, start).map_err(|e| self.err(e))?;
        self.session = Some(state);
        Ok(())
    }

    #[inline]
    fn kinds(&mut self) -> &mut KindMap {
        self.compiled.kinds()
    }

    #[inline]
    fn feed_terminal(&mut self, terminal: u32, text: &str) -> Result<bool, BackendError> {
        let label = self.label;
        let Some(state) = self.session.as_mut() else {
            return Err(BackendError::no_session(label));
        };
        // Interning happens here, at the memo boundary: the streaming lexer
        // hands out borrowed text, and only the engine's interner turns it
        // into a `TokKey` — unless the configuration never reads lexemes,
        // where the kind's canonical token is fed by reference and nothing
        // is interned (`Compiled::token_at`).
        let Some((tok, lang)) = self.compiled.token_at(terminal, text) else {
            return Err(BackendError::no_terminal(label, terminal));
        };
        // The core session counts the token even on a budget error, so the
        // guard must too — count first, then feed.
        self.guard.on_feed();
        state.feed(lang, &tok).map_err(|e| BackendError::new(label, e))
    }

    fn tokens_fed(&self) -> usize {
        self.session.as_ref().map_or(0, SessionState::tokens_fed)
    }

    fn is_viable(&self) -> bool {
        self.session.as_ref().is_none_or(SessionState::is_viable)
    }

    fn prefix_is_sentence(&mut self) -> Result<bool, BackendError> {
        let Some(state) = self.session.as_ref() else {
            return Err(BackendError::no_session(self.label));
        };
        Ok(state.prefix_is_sentence(&mut self.compiled.lang))
    }

    fn checkpoint(&mut self) -> Result<Checkpoint, BackendError> {
        let Some(state) = self.session.as_ref() else {
            return Err(BackendError::no_session(self.label));
        };
        Ok(self.guard.stamp(CheckpointState::Pwd(state.checkpoint())))
    }

    fn rollback(&mut self, cp: &Checkpoint) -> Result<(), BackendError> {
        let Some(state) = self.session.as_mut() else {
            return Err(BackendError::no_session(self.label));
        };
        let CheckpointState::Pwd(inner) = &cp.state else {
            return Err(BackendError::stale_checkpoint(self.label));
        };
        self.guard.admit(cp, self.label)?;
        if self.compiled.lang.budget_exhausted() {
            // The arena is full; restoring the position would only re-trip
            // the budget on the next feed. Refuse, so callers learn the
            // session is unrecoverable instead of retrying forever.
            return Err(BackendError::new(
                self.label,
                "node budget exhausted; the session cannot be resumed (reset the backend)",
            ));
        }
        state.rollback(inner);
        self.guard.on_rollback(cp.tokens);
        Ok(())
    }

    fn end(&mut self) -> Result<bool, BackendError> {
        let Some(state) = self.session.take() else {
            return Err(BackendError::no_session(self.label));
        };
        self.guard = SessionGuard::closed();
        let accepted = state.prefix_is_sentence(&mut self.compiled.lang);
        state.finish(&mut self.compiled.lang);
        Ok(accepted)
    }

    fn reset(&mut self) {
        self.session = None;
        self.guard = SessionGuard::closed();
        self.compiled.lang.reset();
    }

    fn set_obs(&mut self, enabled: bool) {
        if enabled {
            self.compiled.lang.enable_obs(false);
        } else {
            self.compiled.lang.disable_obs();
        }
    }

    fn expected_terminals(&mut self) -> Vec<u32> {
        // Derivative-based candidate discovery: clone the session state
        // (one small Copy-able struct — the arena is shared) and trial-feed
        // each grammar terminal, its name as its text. A candidate is
        // expected iff its derivative from the current state is non-empty,
        // which for PWD is *precise* viability. Warm automaton rows and memo
        // entries make repeat probes cheap.
        let Some(state) = self.session.as_ref() else {
            return Vec::new();
        };
        if !state.is_viable() || self.compiled.lang.budget_exhausted() {
            return Vec::new();
        }
        let mut trial = state.clone();
        let terminals = self.compiled.terminal_names().len() as u32;
        let mut out = Vec::new();
        for t in 0..terminals {
            let name = self.compiled.terminal_names()[t as usize].clone();
            let (tok, lang) = self.compiled.token_at(t, &name).expect("a grammar terminal");
            trial.clone_from(self.session.as_ref().expect("session checked above"));
            if matches!(trial.feed(lang, &tok), Ok(true)) {
                out.push(t);
            }
        }
        self.compiled.lang.note_recovery_probes(u64::from(terminals));
        out
    }

    fn record_recover_span(&mut self, nanos: u64) {
        self.compiled.lang.note_phase(Phase::Recover, nanos);
    }

    fn state_signature(&mut self) -> Option<StateSignature> {
        // Sound only in recognize mode: equal recognize structure does not
        // imply equal *forests* (parse-mode states carry partial parse
        // trees the signature cannot see), and Definition-5 naming makes
        // nodes position-dependent, defeating cross-position comparison.
        let cfg = self.compiled.lang.config();
        if cfg.mode != ParseMode::Recognize || cfg.naming {
            return None;
        }
        let current = self.session.as_ref()?.current();
        Some(self.compiled.lang.state_signature(current))
    }

    fn splice_restore(&mut self, cp: &Checkpoint, tokens: usize) -> Result<(), BackendError> {
        let Some(state) = self.session.as_mut() else {
            return Err(BackendError::no_session(self.label));
        };
        let CheckpointState::Pwd(inner) = &cp.state else {
            return Err(BackendError::stale_checkpoint(self.label));
        };
        // Deliberately below the timeline guard's position admission — the
        // jump target was invalidated by the splice's own rollback; only
        // session identity is checked. The arena is append-only within a
        // session, so the saved node is still alive.
        if cp.session != self.guard.session {
            return Err(BackendError::stale_checkpoint(self.label));
        }
        if self.compiled.lang.budget_exhausted() {
            return Err(BackendError::new(
                self.label,
                "node budget exhausted; the session cannot be resumed (reset the backend)",
            ));
        }
        state.rollback(inner);
        state.set_tokens_fed(tokens);
        self.guard.extend_to(tokens);
        Ok(())
    }

    fn reanchor_checkpoint(&mut self, cp: &Checkpoint, tokens: usize) -> Option<Checkpoint> {
        if cp.session != self.guard.session {
            return None;
        }
        let CheckpointState::Pwd(inner) = &cp.state else { return None };
        // The saved node is still alive (append-only arena); only the
        // position and timeline mark need re-stamping. The mark at `tokens`
        // exists because the convergence jump's `extend_to` already wrote
        // the current era up to the landing position.
        let mark = self.guard.mark(tokens)?;
        Some(Checkpoint {
            session: cp.session,
            tokens,
            mark,
            state: CheckpointState::Pwd(inner.at_position(tokens)),
        })
    }

    fn metrics(&self) -> BackendMetrics {
        let m = self.compiled.lang.metrics();
        BackendMetrics {
            runs: self.runs,
            work: m.derive_calls,
            live_state: self.compiled.lang.node_count() as u64,
            memo_hits: m.derive_hits(),
            memo_misses: m.derive_uncached,
            template_shares: m.template_shares,
            template_instantiations: m.template_instantiations,
            auto_rows_built: m.auto_rows_built,
            auto_table_hits: m.auto_table_hits,
            auto_fallbacks: m.auto_fallbacks,
            arena_bytes: self.compiled.lang.arena_bytes() as u64,
            tokens_reused: 0,
            tokens_refed: 0,
            ladder_rollback_distance: 0,
            phases: self.compiled.lang.obs_phases().map(|p| Box::new(p.clone())),
        }
    }
}

impl Parser for PwdBackend {
    fn fork(&self) -> Box<dyn Parser> {
        Box::new(PwdBackend::from_compiled(self.compiled.clone(), self.label))
    }

    fn end_forest(&mut self) -> Result<ParseForest, BackendError> {
        if self.compiled.lang.config().mode == ParseMode::Recognize {
            return Err(BackendError::new(
                self.label,
                "recognize-mode backend builds no forests; use end() for the verdict",
            ));
        }
        let Some(state) = self.session.take() else {
            return Err(BackendError::no_session(self.label));
        };
        self.guard = SessionGuard::closed();
        let accepted = state.prefix_is_sentence(&mut self.compiled.lang);
        let result = if accepted {
            // Extract the raw derivative forest (reductions and all) and
            // normalize it into the canonical cross-backend form.
            let root = state.forest(&mut self.compiled.lang).map_err(|e| self.err(e))?;
            self.compiled
                .lang
                .canonical_forest(root)
                .map_err(|e| BackendError::new(self.label, e))?
        } else {
            ParseForest::rejected()
        };
        state.finish(&mut self.compiled.lang);
        Ok(result)
    }
}

// ---------------------------------------------------------------------
// Baseline observability helpers
// ---------------------------------------------------------------------

// The baselines keep their own `Option<Box<PhaseStats>>` sink (the PWD
// engine's lives inside `Language`); these two helpers enforce the same
// zero-overhead contract — no clock read without a sink, nothing at all
// without the `obs` feature.
#[inline]
fn obs_start(obs: &Option<Box<PhaseStats>>) -> Option<std::time::Instant> {
    #[cfg(feature = "obs")]
    if obs.is_some() {
        return Some(std::time::Instant::now());
    }
    #[cfg(not(feature = "obs"))]
    let _ = obs;
    None
}

#[inline]
fn obs_end(obs: &mut Option<Box<PhaseStats>>, phase: Phase, started: Option<std::time::Instant>) {
    #[cfg(feature = "obs")]
    if let (Some(stats), Some(t0)) = (obs.as_deref_mut(), started) {
        stats.record(phase, t0.elapsed().as_nanos() as u64);
    }
    #[cfg(not(feature = "obs"))]
    let _ = (obs, phase, started);
}

#[inline]
fn obs_install(obs: &mut Option<Box<PhaseStats>>, enabled: bool) {
    #[cfg(feature = "obs")]
    {
        *obs = enabled.then(|| Box::new(PhaseStats::new()));
    }
    #[cfg(not(feature = "obs"))]
    let _ = (obs, enabled);
}

// ---------------------------------------------------------------------
// Earley
// ---------------------------------------------------------------------

/// The Earley baseline behind the uniform API: the incremental chart is the
/// session, a checkpoint is a chart-prefix length.
pub struct EarleyBackend {
    parser: EarleyParser,
    kinds: KindMap,
    runs: u64,
    last: EarleyStats,
    chart: Option<EarleyChart>,
    guard: SessionGuard,
    /// Tokens fed to the open session (`(terminal index, lexeme text)`),
    /// kept for SPPF leaves; rollback truncates in step with the chart.
    fed: Vec<(u32, String)>,
    /// Per-phase latency histograms, present iff observability is enabled.
    obs: Option<Box<PhaseStats>>,
}

impl Recognizer for EarleyBackend {
    fn prepare(cfg: &Cfg) -> EarleyBackend {
        let parser = EarleyParser::new(cfg);
        EarleyBackend {
            kinds: parser.kind_map(),
            parser,
            runs: 0,
            last: EarleyStats::default(),
            chart: None,
            guard: SessionGuard::closed(),
            fed: Vec::new(),
            obs: None,
        }
    }

    fn name(&self) -> &'static str {
        "earley"
    }

    fn begin(&mut self) -> Result<(), BackendError> {
        self.runs += 1;
        self.guard = SessionGuard::open();
        self.chart = Some(self.parser.begin());
        self.fed.clear();
        Ok(())
    }

    fn kinds(&mut self) -> &mut KindMap {
        &mut self.kinds
    }

    fn feed_terminal(&mut self, tok: u32, text: &str) -> Result<bool, BackendError> {
        if tok as usize >= self.parser.cfg().terminal_count() {
            return Err(BackendError::no_terminal("earley", tok));
        }
        let Some(chart) = self.chart.as_mut() else {
            return Err(BackendError::no_session("earley"));
        };
        self.guard.on_feed();
        self.fed.push((tok, text.to_string()));
        let span = obs_start(&self.obs);
        let viable = self.parser.feed(chart, tok);
        obs_end(&mut self.obs, Phase::Derive, span);
        Ok(viable)
    }

    fn tokens_fed(&self) -> usize {
        self.chart.as_ref().map_or(0, EarleyChart::tokens_fed)
    }

    fn is_viable(&self) -> bool {
        self.chart.as_ref().is_none_or(|c| !c.is_dead())
    }

    fn prefix_is_sentence(&mut self) -> Result<bool, BackendError> {
        let Some(chart) = self.chart.as_ref() else {
            return Err(BackendError::no_session("earley"));
        };
        Ok(self.parser.accepted(chart))
    }

    fn checkpoint(&mut self) -> Result<Checkpoint, BackendError> {
        let Some(chart) = self.chart.as_ref() else {
            return Err(BackendError::no_session("earley"));
        };
        Ok(self.guard.stamp(CheckpointState::Earley(chart.checkpoint())))
    }

    fn rollback(&mut self, cp: &Checkpoint) -> Result<(), BackendError> {
        let Some(chart) = self.chart.as_mut() else {
            return Err(BackendError::no_session("earley"));
        };
        let CheckpointState::Earley(inner) = &cp.state else {
            return Err(BackendError::stale_checkpoint("earley"));
        };
        self.guard.admit(cp, "earley")?;
        chart.rollback(inner);
        self.fed.truncate(cp.tokens);
        self.guard.on_rollback(cp.tokens);
        Ok(())
    }

    fn end(&mut self) -> Result<bool, BackendError> {
        let Some(chart) = self.chart.take() else {
            return Err(BackendError::no_session("earley"));
        };
        self.guard = SessionGuard::closed();
        self.last = chart.stats();
        Ok(self.parser.accepted(&chart))
    }

    fn reset(&mut self) {
        // Stateless between runs: the chart is rebuilt per session.
        self.chart = None;
        self.guard = SessionGuard::closed();
        self.fed.clear();
    }

    fn set_obs(&mut self, enabled: bool) {
        obs_install(&mut self.obs, enabled);
    }

    fn expected_terminals(&mut self) -> Vec<u32> {
        // The chart frontier carries the expected set directly: every item
        // with a terminal after its dot. Exact — a scan of a reported
        // terminal always yields a non-empty next set.
        match self.chart.as_ref() {
            Some(chart) if !chart.is_dead() => self.parser.expected_terminals(chart),
            _ => Vec::new(),
        }
    }

    fn record_recover_span(&mut self, nanos: u64) {
        if let Some(stats) = self.obs.as_deref_mut() {
            stats.record(Phase::Recover, nanos);
        }
    }

    fn metrics(&self) -> BackendMetrics {
        let stats;
        let s = match &self.chart {
            Some(c) => {
                stats = c.stats();
                &stats
            }
            None => &self.last,
        };
        BackendMetrics {
            runs: self.runs,
            work: s.total_items as u64,
            live_state: s.set_sizes.iter().copied().max().unwrap_or(0) as u64,
            phases: self.obs.clone(),
            ..BackendMetrics::default()
        }
    }
}

impl Parser for EarleyBackend {
    fn fork(&self) -> Box<dyn Parser> {
        Box::new(EarleyBackend {
            parser: self.parser.clone(),
            kinds: self.kinds.clone(),
            runs: 0,
            last: EarleyStats::default(),
            chart: None,
            guard: SessionGuard::closed(),
            fed: Vec::new(),
            obs: None,
        })
    }

    fn end_forest(&mut self) -> Result<ParseForest, BackendError> {
        let Some(chart) = self.chart.take() else {
            return Err(BackendError::no_session("earley"));
        };
        self.guard = SessionGuard::closed();
        self.last = chart.stats();
        // The completed chart *is* the derivation-fact set; the shared
        // builder turns it into the canonical packed forest.
        let span = obs_start(&self.obs);
        let spans = self.parser.production_spans(&chart);
        let tokens: Vec<u32> = self.fed.iter().map(|(t, _)| *t).collect();
        let texts: Vec<&str> = self.fed.iter().map(|(_, x)| x.as_str()).collect();
        let forest = build_sppf(self.parser.cfg(), &tokens, &texts, &spans);
        obs_end(&mut self.obs, Phase::Forest, span);
        self.fed.clear();
        Ok(forest)
    }
}

// ---------------------------------------------------------------------
// GLR
// ---------------------------------------------------------------------

/// The GLR baseline behind the uniform API: the incremental GSS is the
/// session, a checkpoint snapshots the stack frontier.
pub struct GlrBackend {
    parser: GlrParser,
    kinds: KindMap,
    runs: u64,
    last: GlrStats,
    session: Option<crate::glr::GlrSession>,
    guard: SessionGuard,
    /// Tokens fed to the open session (`(terminal index, lexeme text)`),
    /// kept for SPPF leaves; rollback truncates in step with the GSS.
    fed: Vec<(u32, String)>,
    /// Per-phase latency histograms, present iff observability is enabled.
    obs: Option<Box<PhaseStats>>,
}

impl Recognizer for GlrBackend {
    fn prepare(cfg: &Cfg) -> GlrBackend {
        let parser = GlrParser::new(cfg);
        GlrBackend {
            kinds: parser.kind_map(),
            parser,
            runs: 0,
            last: GlrStats::default(),
            session: None,
            guard: SessionGuard::closed(),
            fed: Vec::new(),
            obs: None,
        }
    }

    fn name(&self) -> &'static str {
        "glr"
    }

    fn begin(&mut self) -> Result<(), BackendError> {
        self.runs += 1;
        self.guard = SessionGuard::open();
        self.session = Some(self.parser.begin());
        self.fed.clear();
        Ok(())
    }

    fn kinds(&mut self) -> &mut KindMap {
        &mut self.kinds
    }

    fn feed_terminal(&mut self, tok: u32, text: &str) -> Result<bool, BackendError> {
        // Viability only — the sentence probe (a full EOF-lookahead reduce
        // phase on a frontier snapshot) runs in `prefix_is_sentence`, on
        // demand, so batch feeding never pays for it.
        if tok as usize >= self.parser.cfg().terminal_count() {
            return Err(BackendError::no_terminal("glr", tok));
        }
        let Some(session) = self.session.as_mut() else {
            return Err(BackendError::no_session("glr"));
        };
        self.guard.on_feed();
        self.fed.push((tok, text.to_string()));
        let span = obs_start(&self.obs);
        let viable = self.parser.feed(session, tok);
        obs_end(&mut self.obs, Phase::Derive, span);
        Ok(viable)
    }

    fn tokens_fed(&self) -> usize {
        self.session.as_ref().map_or(0, crate::glr::GlrSession::tokens_fed)
    }

    fn is_viable(&self) -> bool {
        self.session.as_ref().is_none_or(|s| !s.is_dead())
    }

    fn prefix_is_sentence(&mut self) -> Result<bool, BackendError> {
        let Some(session) = self.session.as_mut() else {
            return Err(BackendError::no_session("glr"));
        };
        Ok(self.parser.accepted(session))
    }

    fn checkpoint(&mut self) -> Result<Checkpoint, BackendError> {
        let Some(session) = self.session.as_ref() else {
            return Err(BackendError::no_session("glr"));
        };
        Ok(self.guard.stamp(CheckpointState::Glr(session.checkpoint())))
    }

    fn rollback(&mut self, cp: &Checkpoint) -> Result<(), BackendError> {
        let Some(session) = self.session.as_mut() else {
            return Err(BackendError::no_session("glr"));
        };
        let CheckpointState::Glr(inner) = &cp.state else {
            return Err(BackendError::stale_checkpoint("glr"));
        };
        self.guard.admit(cp, "glr")?;
        session.rollback(inner);
        self.fed.truncate(cp.tokens);
        self.guard.on_rollback(cp.tokens);
        Ok(())
    }

    fn end(&mut self) -> Result<bool, BackendError> {
        let Some(mut session) = self.session.take() else {
            return Err(BackendError::no_session("glr"));
        };
        self.guard = SessionGuard::closed();
        let accepted = self.parser.accepted(&mut session);
        self.last = session.stats();
        Ok(accepted)
    }

    fn reset(&mut self) {
        // Stateless between runs: the GSS is rebuilt per session.
        self.session = None;
        self.guard = SessionGuard::closed();
        self.fed.clear();
    }

    fn set_obs(&mut self, enabled: bool) {
        obs_install(&mut self.obs, enabled);
    }

    fn expected_terminals(&mut self) -> Vec<u32> {
        // The SLR action table over the GSS frontier gives a cheap
        // superset (a reduce chain may strand every stack); filter it down
        // to the terminals that actually shift by trial-feeding the raw
        // session — below the api-level checkpoint guard, so user
        // checkpoints are unaffected.
        let Some(session) = self.session.as_mut() else {
            return Vec::new();
        };
        if session.is_dead() {
            return Vec::new();
        }
        let mut candidates = self.parser.expected_terminals(session);
        candidates.retain(|&t| {
            let cp = session.checkpoint();
            let shifts = self.parser.feed(session, t);
            session.rollback(&cp);
            shifts
        });
        candidates
    }

    fn record_recover_span(&mut self, nanos: u64) {
        if let Some(stats) = self.obs.as_deref_mut() {
            stats.record(Phase::Recover, nanos);
        }
    }

    fn metrics(&self) -> BackendMetrics {
        let stats;
        let s = match &self.session {
            Some(sess) => {
                stats = sess.stats();
                &stats
            }
            None => &self.last,
        };
        BackendMetrics {
            runs: self.runs,
            work: s.gss_nodes as u64,
            live_state: s.gss_edges as u64,
            phases: self.obs.clone(),
            ..BackendMetrics::default()
        }
    }
}

impl Parser for GlrBackend {
    fn fork(&self) -> Box<dyn Parser> {
        Box::new(GlrBackend {
            parser: self.parser.clone(),
            kinds: self.kinds.clone(),
            runs: 0,
            last: GlrStats::default(),
            session: None,
            guard: SessionGuard::closed(),
            fed: Vec::new(),
            obs: None,
        })
    }

    fn end_forest(&mut self) -> Result<ParseForest, BackendError> {
        let Some(mut session) = self.session.take() else {
            return Err(BackendError::no_session("glr"));
        };
        self.guard = SessionGuard::closed();
        // The GSS's recorded reductions (plus the EOF-probe completions)
        // are the derivation facts; the shared builder packs them.
        let span = obs_start(&self.obs);
        let spans = self.parser.session_spans(&mut session);
        self.last = session.stats();
        let tokens: Vec<u32> = self.fed.iter().map(|(t, _)| *t).collect();
        let texts: Vec<&str> = self.fed.iter().map(|(_, x)| x.as_str()).collect();
        let forest = build_sppf(self.parser.cfg(), &tokens, &texts, &spans);
        obs_end(&mut self.obs, Phase::Forest, span);
        self.fed.clear();
        Ok(forest)
    }
}

// ---------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------

/// The stable names accepted by [`backend_by_name`], in roster order.
pub const BACKEND_NAMES: &[&str] = &["pwd-improved", "pwd-original", "earley", "glr"];

/// Prepares one backend by its stable name (`"pwd"` is accepted as an alias
/// for `"pwd-improved"`), or `None` for an unknown name.
///
/// This is the selector services and CLIs use to host any parser family —
/// PWD or the Earley/GLR baselines — behind one `dyn` [`Parser`] without
/// compiling the whole roster.
pub fn backend_by_name(name: &str, cfg: &Cfg) -> Option<Box<dyn Parser>> {
    match name {
        "pwd" | "pwd-improved" => Some(Box::new(PwdBackend::improved(cfg))),
        "pwd-original" => Some(Box::new(PwdBackend::original_2011(cfg))),
        // Recognition-only: table-walk recognize loop, no forests. Not in
        // BACKEND_NAMES because the roster drives forest comparisons.
        "pwd-dfa" => Some(Box::new(PwdBackend::dfa(cfg))),
        "earley" => Some(Box::new(EarleyBackend::prepare(cfg))),
        "glr" => Some(Box::new(GlrBackend::prepare(cfg))),
        _ => None,
    }
}

/// Prepares the standard backend roster for a grammar: improved PWD,
/// original-2011 PWD, Earley, and GLR — the four parsers of the paper's
/// Figure 6 — behind `dyn` [`Parser`].
pub fn backends(cfg: &Cfg) -> Vec<Box<dyn Parser>> {
    BACKEND_NAMES
        .iter()
        .map(|name| backend_by_name(name, cfg).expect("roster names are always valid"))
        .collect()
}

// The whole point of the `Send + Sync` supertrait: compiled backends (and
// boxed trait objects of them, sessions over them, and saved checkpoints)
// can cross threads. Checked at compile time so a regression fails the
// build.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PwdBackend>();
    assert_send_sync::<EarleyBackend>();
    assert_send_sync::<GlrBackend>();
    assert_send_sync::<Box<dyn Parser>>();
    assert_send_sync::<Compiled>();
    assert_send_sync::<Checkpoint>();
    assert_send_sync::<Session<'static>>();
    assert_send_sync::<SpliceOutcome>();
};

/// Runs one input through every backend and asserts they agree — the shared
/// driver of the differential tests.
///
/// Returns the unanimous verdict.
///
/// # Panics
///
/// Panics (with both backend names and the input) if any backend errors or
/// two backends disagree.
pub fn unanimous(backends: &mut [Box<dyn Parser>], kinds: &[&str], label: &str) -> bool {
    let mut verdicts: Vec<(&'static str, bool)> = Vec::with_capacity(backends.len());
    for b in backends.iter_mut() {
        let ans = b
            .recognize(kinds)
            .unwrap_or_else(|e| panic!("{label}: backend failed on {kinds:?}: {e}"));
        verdicts.push((b.name(), ans));
    }
    let (first_name, first) = verdicts[0];
    for &(name, ans) in &verdicts[1..] {
        assert_eq!(first, ans, "{label}: {first_name} and {name} disagree on {kinds:?}");
    }
    first
}

/// Runs one input through every backend's [`Parser::parse_forest`] and
/// asserts the **forests** agree — the forest-native differential driver.
///
/// Tree counts must match exactly on every backend (including
/// [`ParseCount::Overflow`] and [`ParseCount::Infinite`]); for
/// non-`Infinite` counts the canonical fingerprints must match too
/// (infinitely ambiguous forests are cyclic, where the fingerprint is
/// knot-placement-sensitive, so agreement is asserted on the count alone).
/// This verifies *all* derivations coincide, even when the tree set is far
/// too large to enumerate — the comparison is cubic-sized-graph equality,
/// never tree-set equality.
///
/// Returns the unanimous summary.
///
/// # Panics
///
/// Panics (with backend names and the input) if any backend errors or two
/// backends disagree.
pub fn unanimous_forests(
    backends: &mut [Box<dyn Parser>],
    kinds: &[&str],
    label: &str,
) -> ForestSummary {
    let mut results: Vec<(&'static str, ForestSummary)> = Vec::with_capacity(backends.len());
    for b in backends.iter_mut() {
        let forest = b
            .parse_forest(kinds)
            .unwrap_or_else(|e| panic!("{label}: backend failed on {kinds:?}: {e}"));
        results.push((b.name(), forest.summary()));
    }
    let (first_name, first) = results[0];
    for &(name, summary) in &results[1..] {
        assert_eq!(
            first.count, summary.count,
            "{label}: {first_name} and {name} disagree on the tree count of {kinds:?}"
        );
        if first.count != ParseCount::Infinite {
            assert_eq!(
                first.fingerprint, summary.fingerprint,
                "{label}: {first_name} and {name} build different forests for {kinds:?} \
                 (counts agree at {:?} but the canonical graphs differ)",
                first.count
            );
        }
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::CfgBuilder;

    fn catalan() -> Cfg {
        let mut g = CfgBuilder::new("S");
        g.terminal("a");
        g.rule("S", &["S", "S"]);
        g.rule("S", &["a"]);
        g.build().expect("valid grammar")
    }

    fn matched_pairs() -> Cfg {
        let mut g = CfgBuilder::new("S");
        g.terminals(&["a", "b"]);
        g.rule("S", &["a", "S", "b"]);
        g.rule("S", &["a", "b"]);
        g.build().expect("valid grammar")
    }

    #[test]
    fn all_backends_share_one_lifecycle() {
        let cfg = catalan();
        for backend in &mut backends(&cfg) {
            assert!(!backend.recognize(&[]).unwrap(), "{}", backend.name());
            assert!(backend.recognize(&["a", "a"]).unwrap(), "{}", backend.name());
            backend.reset();
            assert!(backend.recognize(&["a"]).unwrap(), "{}", backend.name());
            let m = backend.metrics();
            assert_eq!(m.runs, 3, "{}", backend.name());
            assert!(m.work > 0, "{}", backend.name());
        }
    }

    #[test]
    fn runs_are_independent_without_explicit_reset() {
        let cfg = catalan();
        for backend in &mut backends(&cfg) {
            // Same verdicts in any order, no resets in between.
            assert!(backend.recognize(&["a", "a", "a"]).unwrap(), "{}", backend.name());
            assert!(!backend.recognize(&[]).unwrap(), "{}", backend.name());
            assert!(backend.recognize(&["a", "a", "a"]).unwrap(), "{}", backend.name());
        }
    }

    #[test]
    fn parse_counts_on_every_backend() {
        let cfg = catalan();
        for backend in &mut backends(&cfg) {
            let name = backend.name();
            // 4 leaves => Catalan number C3 = 5 trees.
            assert_eq!(
                backend.parse_count(&["a", "a", "a", "a"]).unwrap(),
                ParseCount::Finite(5),
                "{name}"
            );
            assert_eq!(backend.parse_count(&[]).unwrap(), ParseCount::Finite(0), "{name}");
        }
    }

    #[test]
    fn forests_agree_across_backends() {
        let cfg = catalan();
        let mut bs = backends(&cfg);
        // n = 10 leaves => C9 = 4862 trees, far beyond the default
        // enumeration cap of 64 — only forest-level comparison can check it.
        let summary = unanimous_forests(&mut bs, &["a"; 10], "catalan-forests");
        assert_eq!(summary.count, ParseCount::Finite(4862));
        assert!(
            summary.count.as_finite().unwrap() > EnumLimits::default().max_trees as u128,
            "the agreement must cover counts past the enumeration cap"
        );
        // Small input: cross-check the actual enumerated tree sets too.
        let mut tree_sets: Vec<Vec<String>> = Vec::new();
        for b in &mut bs {
            let mut ts: Vec<String> = b
                .parse_trees(&["a", "a", "a"], EnumLimits::default())
                .unwrap()
                .iter()
                .map(|t| t.to_string())
                .collect();
            ts.sort();
            tree_sets.push(ts);
        }
        assert!(tree_sets.windows(2).all(|w| w[0] == w[1]), "{tree_sets:?}");
        assert_eq!(tree_sets[0].len(), 2, "C2 = 2 trees over aaa");
    }

    #[test]
    fn streaming_finish_forest_matches_batch() {
        let cfg = catalan();
        for backend in &mut backends(&cfg) {
            let name = backend.name();
            let batch = backend.parse_forest(&["a", "a", "a", "a"]).unwrap();
            let mut s = Session::open(&mut **backend).unwrap();
            s.feed_all(&["a", "a"]).unwrap();
            let cp = s.checkpoint().unwrap();
            s.feed_all(&["a", "a", "a"]).unwrap(); // speculate…
            s.rollback(&cp).unwrap(); // …and retract
            s.feed_all(&["a", "a"]).unwrap();
            let streamed = s.finish_forest().unwrap();
            assert_eq!(streamed.summary(), batch.summary(), "{name}");
            assert_eq!(streamed.count(), ParseCount::Finite(5), "{name}: C3");
        }
    }

    #[test]
    fn unknown_kind_is_an_error_not_a_rejection() {
        let cfg = catalan();
        for backend in &mut backends(&cfg) {
            let err = backend.recognize(&["a", "WAT"]).unwrap_err();
            assert!(err.message.contains("WAT"), "{}: {err}", backend.name());
        }
    }

    #[test]
    fn unanimous_driver_agrees_on_corpus() {
        let cfg = catalan();
        let mut bs = backends(&cfg);
        assert!(unanimous(&mut bs, &["a", "a"], "catalan"));
        assert!(!unanimous(&mut bs, &[], "catalan"));
    }

    #[test]
    fn every_backend_streams_with_checkpoint_rollback() {
        let cfg = matched_pairs();
        for backend in &mut backends(&cfg) {
            let name = backend.name();
            let mut s = Session::open(&mut **backend).unwrap();
            assert_eq!(s.tokens_fed(), 0, "{name}");
            s.feed_all(&["a", "a"]).unwrap();
            let cp = s.checkpoint().unwrap();
            assert_eq!(cp.tokens_fed(), 2, "{name}");
            // Speculate into a dead end and retract.
            let out = s.feed_all(&["b", "b", "b"]).unwrap();
            assert_eq!(out, FeedOutcome::Dead, "{name}: aabbb has no continuation");
            assert!(!s.is_viable(), "{name}");
            s.rollback(&cp).unwrap();
            assert!(s.is_viable(), "{name}");
            assert_eq!(s.tokens_fed(), 2, "{name}");
            // Resume down the real input.
            let out = s.feed_all(&["b", "b"]).unwrap();
            assert_eq!(out, FeedOutcome::Viable { prefix_is_sentence: true }, "{name}");
            assert!(s.finish().unwrap(), "{name}: aabb after rollback");
            // The backend is reusable for batch runs afterwards.
            assert!(backend.recognize(&["a", "b"]).unwrap(), "{name}");
        }
    }

    #[test]
    fn streaming_prefix_verdicts_match_batch_for_every_backend() {
        let cfg = matched_pairs();
        let input = ["a", "a", "a", "b", "b", "b"];
        for backend in &mut backends(&cfg) {
            let name = backend.name();
            // Batch verdicts for every prefix, first.
            let expect: Vec<bool> =
                (0..=input.len()).map(|i| backend.recognize(&input[..i]).unwrap()).collect();
            let mut s = Session::open(&mut **backend).unwrap();
            assert_eq!(s.prefix_is_sentence().unwrap(), expect[0], "{name} ε");
            for (i, k) in input.iter().enumerate() {
                s.feed_kind(k).unwrap();
                assert_eq!(s.prefix_is_sentence().unwrap(), expect[i + 1], "{name} prefix {i}");
            }
        }
    }

    #[test]
    fn fused_source_recognition_has_no_intermediate_vector() {
        // Drive a streaming lexer source straight into each backend.
        let mut g = CfgBuilder::new("S");
        g.terminals(&["NUM", "PLUS"]);
        g.rule("S", &["NUM"]);
        g.rule("S", &["S", "PLUS", "NUM"]);
        let cfg = g.build().unwrap();
        let lexer = crate::lex::LexerBuilder::new()
            .rule("NUM", "[0-9]+")
            .unwrap()
            .rule("PLUS", "\\+")
            .unwrap()
            .skip("WS", " +")
            .unwrap()
            .build();
        for backend in &mut backends(&cfg) {
            let name = backend.name();
            let mut src = lexer.source("1 + 22 + 333");
            assert!(backend.recognize_source(&mut src).unwrap(), "{name}");
            let mut src = lexer.source("1 + + 2");
            assert!(!backend.recognize_source(&mut src).unwrap(), "{name}");
            let mut src = lexer.source("1 + §");
            let err = backend.recognize_source(&mut src).unwrap_err();
            assert!(err.message.contains("no token matches"), "{name}: {err}");
        }
    }

    #[test]
    fn stale_checkpoints_are_rejected() {
        let cfg = catalan();
        let mut backend = PwdBackend::improved(&cfg);
        let cp = {
            let mut s = Session::open(&mut backend).unwrap();
            s.feed_kind("a").unwrap();
            let cp = s.checkpoint().unwrap();
            s.finish().unwrap();
            cp
        };
        // A new session must not accept the old session's checkpoint: the
        // epoch reset discarded its derivative.
        let mut s = Session::open(&mut backend).unwrap();
        let err = s.rollback(&cp).unwrap_err();
        assert!(err.message.contains("checkpoint"), "{err}");
        // Nor may a checkpoint cross backends.
        let mut earley = EarleyBackend::prepare(&cfg);
        let mut s2 = Session::open(&mut earley).unwrap();
        assert!(s2.rollback(&cp).is_err());
        // Nor restore a position the session has rolled back past.
        let mut glr = GlrBackend::prepare(&cfg);
        let mut s3 = Session::open(&mut glr).unwrap();
        s3.feed_kind("a").unwrap();
        let early = s3.checkpoint().unwrap();
        s3.feed_kind("a").unwrap();
        let late = s3.checkpoint().unwrap();
        s3.rollback(&early).unwrap();
        assert!(s3.rollback(&late).is_err(), "forward restore must be rejected");
    }

    #[test]
    fn rollback_invalidates_later_checkpoints_even_after_refeed() {
        // The timeline guard: after rolling back past a checkpoint's
        // position, re-feeding up to (or beyond) that position must NOT
        // resurrect it — the chart/GSS rebuilt there describes different
        // tokens. Checkpoints at or before the rollback target stay
        // restorable, repeatedly.
        let cfg = matched_pairs();
        for backend in &mut backends(&cfg) {
            let name = backend.name();
            let mut s = Session::open(&mut **backend).unwrap();
            s.feed_kind("a").unwrap();
            let cp1 = s.checkpoint().unwrap();
            s.feed_kind("a").unwrap();
            let cp2 = s.checkpoint().unwrap();
            s.rollback(&cp1).unwrap();
            s.feed_kind("b").unwrap(); // position 2 exists again, differently
            assert!(s.rollback(&cp2).is_err(), "{name}: divergent re-feed must invalidate cp2");
            s.rollback(&cp1).unwrap();
            s.rollback(&cp1).unwrap(); // same checkpoint, restorable again
            s.feed_kind("b").unwrap();
            assert!(s.finish().unwrap(), "{name}: ab after the excursions");
        }
    }

    #[test]
    fn checkpoints_do_not_cross_backend_instances() {
        // Session ids are process-unique, so two instances opened in
        // lock-step (same generation count) still reject each other's
        // checkpoints.
        let cfg = catalan();
        let mut a = PwdBackend::improved(&cfg);
        let mut b = a.fork();
        a.begin().unwrap();
        b.begin().unwrap();
        a.feed("a", "a").unwrap();
        b.feed("a", "a").unwrap();
        let cp = a.checkpoint().unwrap();
        assert!(b.rollback(&cp).is_err(), "foreign checkpoint must be rejected");
        a.rollback(&cp).unwrap();
        assert!(a.end().unwrap());
        let _ = b.end().unwrap();
    }

    #[test]
    fn class_keyed_recognition_interns_one_token_per_terminal() {
        // `pwd-dfa` recognizes under class keying, where the engine never
        // reads a lexeme: distinct documents must not grow the interner.
        use crate::grammar::{gen, grammars::pl0};
        let cfg = pl0::cfg();
        let lexer = pl0::lexer();
        let mut dfa = PwdBackend::dfa(&cfg);
        let mut glr = GlrBackend::prepare(&cfg);
        let mut rejected = 0;
        for doc in 0..200u64 {
            let src = gen::pl0_source(40 + (doc as usize * 7) % 160, doc, 0.1);
            let mut lexemes = lexer.tokenize(&src).expect("generated PL/0 lexes");
            if doc % 10 == 3 {
                lexemes.remove(lexemes.len() / 2);
            }
            let want = glr.recognize_lexemes(&lexemes).unwrap();
            rejected += usize::from(!want);
            assert_eq!(dfa.recognize_lexemes(&lexemes).unwrap(), want, "document {doc}");
        }
        assert!(rejected > 0, "both verdicts must occur");
        assert_eq!(dfa.compiled().lang.token_count(), cfg.terminal_count());
    }

    #[test]
    fn budget_exhaustion_is_not_recoverable_by_rollback() {
        let cfg = catalan();
        let config = ParserConfig { max_nodes: Some(60), ..ParserConfig::improved() };
        let mut backend = PwdBackend::with_config(&cfg, config, "pwd-budget");
        backend.begin().unwrap();
        let cp = backend.checkpoint().unwrap();
        let mut tripped = false;
        for _ in 0..500 {
            match backend.feed("a", "a") {
                Ok(_) => {}
                Err(e) => {
                    assert!(e.message.contains("budget"), "{e}");
                    tripped = true;
                    break;
                }
            }
        }
        assert!(tripped, "the node budget must trip on this input");
        // The arena is full: rolling back cannot resume the session, and
        // saying so beats letting callers retry forever.
        let err = backend.rollback(&cp).unwrap_err();
        assert!(err.message.contains("cannot be resumed"), "{err}");
        // A reset clears the budget; the backend itself is fine.
        backend.reset();
        assert!(backend.recognize(&["a"]).unwrap());
    }

    #[test]
    fn owned_sessions_release_their_backend() {
        let cfg = catalan();
        let backend = backend_by_name("pwd", &cfg).unwrap();
        let mut s = Session::owned(backend).unwrap();
        s.feed_all(&["a", "a"]).unwrap();
        let (verdict, released) = s.finish_and_release();
        assert!(verdict.unwrap());
        let mut backend = released.expect("owned session returns its backend");
        assert!(backend.recognize(&["a"]).unwrap(), "released backend is reusable");
    }

    #[test]
    fn feeding_without_a_session_is_an_error() {
        let cfg = catalan();
        for backend in &mut backends(&cfg) {
            let err = backend.feed("a", "a").unwrap_err();
            assert!(err.message.contains("no open session"), "{}: {err}", backend.name());
            assert!(backend.end().is_err(), "{}", backend.name());
        }
    }

    #[test]
    fn splice_matches_scratch_on_every_backend() {
        let cfg = matched_pairs();
        let mut roster: Vec<Box<dyn Parser>> = backends(&cfg);
        roster.push(backend_by_name("pwd-dfa", &cfg).unwrap());
        for backend in &mut roster {
            let name = backend.name();
            let mut scratch = backend.fork();
            let mut s = Session::open(&mut **backend).unwrap();
            s.enable_incremental().unwrap();
            let mut model: Vec<&str> = vec!["a", "a", "a", "b", "b", "b"];
            s.feed_all(&model).unwrap();
            let edits: [(usize, usize, &[&str]); 4] =
                [(1, 1, &[]), (0, 0, &["a"]), (3, 0, &["a", "b"]), (2, 2, &["b"])];
            for (at, remove, insert) in edits {
                let pairs: Vec<(&str, &str)> = insert.iter().map(|k| (*k, *k)).collect();
                let out = s.splice_tokens(at, remove, &pairs).unwrap();
                model.splice(at..at + remove, insert.iter().copied());
                assert_eq!(out.refed + out.reused, model.len(), "{name}: {out:?}");
                assert_eq!(s.tokens_fed(), model.len(), "{name}");
                assert_eq!(
                    s.prefix_is_sentence().unwrap(),
                    scratch.recognize(&model).unwrap(),
                    "{name}: spliced verdict diverged from scratch on {model:?}"
                );
            }
        }
    }

    #[test]
    fn convergence_jump_skips_the_suffix() {
        // Both recognize-mode PWD arms: the lazy automaton (exact interned
        // state ids) and the interpreted engine (graph digests).
        let cfg = catalan();
        let interp = ParserConfig {
            mode: ParseMode::Recognize,
            automaton: crate::core::AutomatonMode::Off,
            ..ParserConfig::improved()
        };
        let mut arms: Vec<Box<dyn Parser>> = vec![
            Box::new(PwdBackend::dfa(&cfg)),
            Box::new(PwdBackend::with_config(&cfg, interp, "pwd-recognize-interp")),
        ];
        for backend in &mut arms {
            let name = backend.name();
            let mut s = Session::open(&mut **backend).unwrap();
            s.enable_incremental().unwrap();
            s.feed_all(&["a"; 400]).unwrap();
            // Replace one mid-buffer token with one of the same class: the
            // post-edit state matches the memoized pre-edit state at the
            // first aligned position, so the splice jumps to the saved end
            // state instead of refeeding the 199-token suffix.
            let out = s.splice_tokens(200, 1, &[("a", "a")]).unwrap();
            assert!(out.converged_at.is_some(), "{name}: {out:?}");
            assert!(out.refed <= 2, "{name}: expected an immediate jump, got {out:?}");
            assert!(out.reused >= 398, "{name}: {out:?}");
            assert_eq!(s.tokens_fed(), 400, "{name}");
            assert!(s.finish().unwrap(), "{name}");
        }
    }

    #[test]
    fn splice_follows_rollback_timeline_semantics() {
        let cfg = matched_pairs();
        for backend in &mut backends(&cfg) {
            let name = backend.name();
            let mut s = Session::open(&mut **backend).unwrap();
            s.enable_incremental().unwrap();
            s.feed_kind("a").unwrap();
            let below = s.checkpoint().unwrap(); // position 1
            s.feed_all(&["a", "a", "b", "b"]).unwrap();
            let above = s.checkpoint().unwrap(); // position 5
            s.feed_kind("b").unwrap();
            // Damage at position 4: the rung restore rolls back past
            // `above`, which must invalidate it — same timeline semantics
            // as an explicit rollback.
            let out = s.splice_tokens(4, 1, &[("b", "b")]).unwrap();
            assert!(out.rung <= 4, "{name}: {out:?}");
            assert_eq!(s.tokens_fed(), 6, "{name}");
            assert!(s.prefix_is_sentence().unwrap(), "{name}: aaabbb");
            assert!(
                s.rollback(&above).is_err(),
                "{name}: a checkpoint above the splice damage must be invalidated"
            );
            s.rollback(&below).unwrap();
            assert_eq!(s.tokens_fed(), 1, "{name}");
            s.feed_kind("b").unwrap();
            assert!(s.finish().unwrap(), "{name}: ab after the excursions");
        }
    }

    #[test]
    fn splice_preconditions_are_enforced() {
        let cfg = catalan();
        let mut backend = PwdBackend::improved(&cfg);
        {
            let mut s = Session::open(&mut backend).unwrap();
            let err = s.splice_tokens(0, 0, &[("a", "a")]).unwrap_err();
            assert!(err.message.contains("enable_incremental"), "{err}");
            s.feed_kind("a").unwrap();
            let err = s.enable_incremental().unwrap_err();
            assert!(err.message.contains("fresh"), "{err}");
        }
        {
            let mut s = Session::open(&mut backend).unwrap();
            s.enable_recovery(RecoveryBudget::default());
            let err = s.enable_incremental().unwrap_err();
            assert!(err.message.contains("mutually exclusive"), "{err}");
        }
        {
            let mut s = Session::open(&mut backend).unwrap();
            s.enable_incremental().unwrap();
            s.feed_kind("a").unwrap();
            let err = s.splice_tokens(1, 1, &[]).unwrap_err();
            assert!(err.message.contains("exceeds"), "{err}");
            s.enable_recovery(RecoveryBudget::default());
            assert!(!s.incremental_enabled(), "enabling recovery turns incremental off");
        }
    }

    #[test]
    fn text_splice_through_source_buffer() {
        let mut g = CfgBuilder::new("S");
        g.terminals(&["NUM", "PLUS"]);
        g.rule("S", &["NUM"]);
        g.rule("S", &["S", "PLUS", "NUM"]);
        let cfg = g.build().unwrap();
        let lexer = crate::lex::LexerBuilder::new()
            .rule("NUM", "[0-9]+")
            .unwrap()
            .rule("PLUS", "\\+")
            .unwrap()
            .skip("WS", " +")
            .unwrap()
            .build();
        let mut backend = PwdBackend::improved(&cfg);
        let mut buf = SourceBuffer::new(&lexer, "1 + 22 + 333").unwrap();
        let mut s = Session::open(&mut backend).unwrap();
        s.enable_incremental().unwrap();
        s.feed_lexemes(&buf.lexemes()).unwrap();
        // "22" -> "4 + 5": one NUM becomes NUM PLUS NUM.
        let out = s.splice(&mut buf, 4, 6, "4 + 5").unwrap();
        assert_eq!(buf.text(), "1 + 4 + 5 + 333");
        assert_eq!(s.tokens_fed(), 7);
        assert_eq!(out.refed + out.reused, 7, "{out:?}");
        assert!(s.prefix_is_sentence().unwrap());
        // Delete the " +" after the 5: two adjacent NUMs, which the
        // grammar rejects — the splice must carry the death through.
        let out = s.splice(&mut buf, 9, 11, "").unwrap();
        assert_eq!(buf.text(), "1 + 4 + 5 333");
        assert_eq!(out.outcome, FeedOutcome::Dead);
        let m = s.metrics();
        assert!(m.tokens_refed > 0, "{m:?}");
        assert!(m.tokens_reused > 0, "{m:?}");
    }

    #[test]
    fn recovering_source_notes_lex_errors_at_their_stream_position() {
        let mut g = CfgBuilder::new("S");
        g.terminals(&["NUM", "PLUS"]);
        g.rule("S", &["NUM"]);
        g.rule("S", &["S", "PLUS", "NUM"]);
        let cfg = g.build().unwrap();
        let lexer = crate::lex::LexerBuilder::new()
            .rule("NUM", "[0-9]+")
            .unwrap()
            .rule("PLUS", "\\+")
            .unwrap()
            .skip("WS", " +")
            .unwrap()
            .build();
        let mut backend = PwdBackend::improved(&cfg);
        let mut s = Session::open(&mut backend).unwrap();
        s.enable_recovery(RecoveryBudget::default());
        // Tokens 0-6 are "1 + 2 + 3 + 4"; "§" comes before token 7, the
        // second "+" of "+ +" is token 10, and "¤" comes before token 14.
        s.feed_source(&mut lexer.source("1 + 2 + 3 + 4 § + 5 + + 6 + 7 ¤ + 8")).unwrap();
        let (accepted, diags) = s.finish_with_diagnostics().unwrap();
        assert!(accepted, "{diags:?}");
        let indices: Vec<usize> = diags.iter().map(|d| d.token_index).collect();
        assert_eq!(indices, [7, 10, 14], "{diags:?}");
    }
}
