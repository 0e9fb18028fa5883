//! The batch parse service.
//!
//! [`ParseService`] owns the sharded grammar cache and one session pool per
//! worker. [`ParseService::submit_batch`] is the throughput API: it fans a
//! slice of inputs across the fixed worker pool, letting workers steal work
//! over an atomic cursor (so one pathological input does not idle the other
//! workers), and returns per-input results in input order together with
//! batch metrics.

use derp::api::{
    BackendError, BackendMetrics, EnumLimits, FeedOutcome, ForestSummary, ParseCount, ParseForest,
    Session,
};
use derp::{Diagnostic, RecoveryBudget};
use pwd_grammar::Cfg;
use pwd_lex::Lexeme;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::cache::{CacheMetrics, CachedGrammar, GrammarCache};
use crate::fault::{Fault, FaultPlan};
use crate::live::SessionStats;
use crate::obs::{ObsSamples, ServeObs};
use crate::pool::{PoolMetrics, SessionPool};
use pwd_obs::PromText;

/// Which per-request budget ([`ServiceConfig::max_tokens_per_input`] /
/// [`ServiceConfig::time_budget`]) a cancelled input ran out of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// The input had more tokens than the per-request cap.
    Tokens,
    /// The parse exceeded its wall-clock allowance and was cancelled
    /// between tokens.
    Time,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetKind::Tokens => "token",
            BudgetKind::Time => "time",
        })
    }
}

/// Errors of the serving layer. Batch-level failures (unknown backend)
/// fail [`ParseService::submit_batch`] itself; per-input failures —
/// backend errors, caught worker panics, budget cancellations — are
/// reported per input in [`BatchReport::outcomes`] so one bad request
/// never takes down its batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The configured backend name is not in the `derp::api` roster.
    UnknownBackend {
        /// The rejected name.
        name: String,
    },
    /// No live session with this id (never opened, already finished, or
    /// currently being fed by another caller — live sessions are
    /// single-caller).
    UnknownSession {
        /// The rejected session id.
        id: u64,
    },
    /// The checkpoint id does not name a live checkpoint of this session
    /// (out of range, or discarded by an earlier rollback).
    UnknownCheckpoint {
        /// The session the lookup ran against.
        session: u64,
        /// The rejected checkpoint id.
        checkpoint: usize,
    },
    /// The backend rejected a session operation (unknown terminal kind,
    /// engine resource limit, stale checkpoint).
    Backend(BackendError),
    /// Opening the session would exceed [`ServiceConfig::max_live_sessions`]
    /// — finish or abort existing sessions first.
    SessionLimit {
        /// The configured cap.
        limit: usize,
    },
    /// A worker caught a panic while running this input. The pooled
    /// session that was executing it is *quarantined* — dropped on the
    /// floor instead of being checked back in, since a panic may have
    /// left its engine state inconsistent — and the worker keeps serving
    /// the rest of the batch.
    WorkerPanicked {
        /// The panic payload, rendered to text.
        message: String,
    },
    /// The input exceeded a per-request budget and the parse was
    /// cancelled (before it started for [`BudgetKind::Tokens`], between
    /// tokens for [`BudgetKind::Time`]).
    BudgetExceeded {
        /// Which budget ran out.
        kind: BudgetKind,
        /// The configured limit: a token count, or milliseconds.
        limit: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownBackend { name } => {
                write!(f, "unknown parser backend {name:?} (expected one of {:?})", {
                    derp::api::BACKEND_NAMES
                })
            }
            ServeError::UnknownSession { id } => {
                write!(f, "no live session {id} (finished, never opened, or in use)")
            }
            ServeError::UnknownCheckpoint { session, checkpoint } => {
                write!(f, "session {session} has no checkpoint {checkpoint}")
            }
            ServeError::Backend(e) => write!(f, "backend error: {e}"),
            ServeError::SessionLimit { limit } => {
                write!(f, "live session limit reached ({limit}); finish or abort sessions first")
            }
            ServeError::WorkerPanicked { message } => {
                write!(f, "worker panicked while parsing (session quarantined): {message}")
            }
            ServeError::BudgetExceeded { kind, limit } => {
                let unit = match kind {
                    BudgetKind::Tokens => "tokens",
                    BudgetKind::Time => "ms",
                };
                write!(f, "per-request {kind} budget exceeded ({limit} {unit}); parse cancelled")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<BackendError> for ServeError {
    fn from(e: BackendError) -> ServeError {
        ServeError::Backend(e)
    }
}

/// One input to parse: terminal kinds, or a lexeme stream when lexeme text
/// matters (PWD memoizes derivatives by token *value*).
#[derive(Debug, Clone)]
pub enum Input {
    /// A sequence of terminal kind names.
    Kinds(Vec<String>),
    /// A lexer output stream (kind + text per token).
    Lexemes(Vec<Lexeme>),
}

impl Input {
    /// Builds a kinds input from string slices.
    pub fn from_kinds(kinds: &[&str]) -> Input {
        Input::Kinds(kinds.iter().map(|k| k.to_string()).collect())
    }

    /// Builds a lexeme-stream input.
    pub fn from_lexemes(lexemes: Vec<Lexeme>) -> Input {
        Input::Lexemes(lexemes)
    }

    /// Number of tokens in this input.
    pub fn len(&self) -> usize {
        match self {
            Input::Kinds(k) => k.len(),
            Input::Lexemes(l) => l.len(),
        }
    }

    /// Is the input empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feeds tokens `range` of this input to `session` in one call and
    /// returns the outcome after the last — the one feeding path of batch
    /// requests and live chunks alike. Lexeme text reaches the engine where
    /// the input carries it; a kinds input feeds each kind as its own text.
    pub(crate) fn feed(
        &self,
        session: &mut Session<'_>,
        range: Range<usize>,
    ) -> Result<FeedOutcome, BackendError> {
        match self {
            Input::Kinds(kinds) => session.feed_all(&kinds[range]),
            Input::Lexemes(lexemes) => session.feed_lexemes(&lexemes[range]),
        }
    }
}

/// Renders up to `k` parse trees of a forest (depth-bounded so cyclic —
/// infinitely ambiguous — forests terminate; acyclic forests always fit in
/// their own graph depth).
pub(crate) fn top_k_trees(forest: &ParseForest, k: usize) -> Vec<String> {
    let limits = EnumLimits { max_trees: k, max_depth: forest.depth().saturating_mul(2) + 64 };
    forest.trees(limits).iter().map(|t| t.to_string()).collect()
}

/// Independently locked shards of the compiled-grammar cache.
const CACHE_SHARDS: usize = 8;

/// How often (in tokens) a wall-clock budget is re-checked while feeding.
/// Reading the clock is tens of nanoseconds against microseconds of parse
/// work per token, but a stride keeps the check off the hot path entirely
/// for the common short inputs. Without a budget the input is fed in one
/// call and no stride exists.
const DEADLINE_STRIDE: usize = 64;

/// Renders a caught panic payload to text for
/// [`ServeError::WorkerPanicked`]. `panic!` with a message produces a
/// `&str` or `String` payload; anything else (a `panic_any`) is opaque.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs one input on a checked-out backend through one [`Session`],
/// folding the run's engine cache counters into `memo` (every run resets
/// the engine's metrics, so they must be read between runs, not after).
///
/// With [`ServiceConfig::recovery`] set the session repairs malformed
/// tokens and the outcome carries its [`Diagnostic`]s. When forests, trees
/// or counts are requested the session closes with a forest, and that one
/// pass serves the verdict, the exact count, the summary and the top-k
/// trees together; otherwise it closes with the verdict alone. Per-request
/// budgets are enforced here: the token cap rejects oversized inputs before
/// any engine work, and the wall-clock budget is checked before each
/// stride of [`DEADLINE_STRIDE`] tokens. An abandoned session is reclaimed
/// by the pool's checkin reset.
fn run_input(
    backend: &mut dyn derp::api::Parser,
    input: &Input,
    config: &ServiceConfig,
    memo: &mut MemoEffectiveness,
) -> Result<ParseOutcome, ServeError> {
    if config.max_tokens_per_input > 0 && input.len() > config.max_tokens_per_input {
        return Err(ServeError::BudgetExceeded {
            kind: BudgetKind::Tokens,
            limit: config.max_tokens_per_input as u64,
        });
    }
    let deadline = config.time_budget.map(|budget| (Instant::now() + budget, budget));
    let mut session = Session::open(&mut *backend)?;
    if let Some(budget) = config.recovery {
        session.enable_recovery(budget);
    }
    match deadline {
        None => {
            input.feed(&mut session, 0..input.len())?;
        }
        Some((deadline, budget)) => {
            for at in (0..input.len()).step_by(DEADLINE_STRIDE) {
                if Instant::now() > deadline {
                    let limit = budget.as_millis() as u64;
                    return Err(ServeError::BudgetExceeded { kind: BudgetKind::Time, limit });
                }
                input.feed(&mut session, at..input.len().min(at + DEADLINE_STRIDE))?;
            }
        }
    }
    let (accepted, forest, diagnostics) =
        if config.forests || config.top_k_trees > 0 || config.count_parses {
            let (forest, diagnostics) = session.finish_forest_diagnostics()?;
            let summary = forest.summary();
            (!summary.count.is_zero(), Some((forest, summary)), diagnostics)
        } else {
            let (accepted, diagnostics) = session.finish_with_diagnostics()?;
            (accepted, None, diagnostics)
        };
    let m = backend.metrics();
    memo.absorb(&m);
    let summary = forest.as_ref().map(|(_, summary)| *summary);
    Ok(ParseOutcome {
        accepted,
        parse_count: summary.filter(|_| config.count_parses).map(|s| s.count),
        forest: summary.filter(|_| config.forests),
        trees: forest
            .filter(|_| config.top_k_trees > 0)
            .map(|(forest, _)| top_k_trees(&forest, config.top_k_trees)),
        stats: config.observability.then(|| SessionStats::for_input(input.len(), &m)),
        diagnostics: config.recovery.is_some().then_some(diagnostics),
    })
}

/// What one batch worker hands back: `(input index, outcome)` pairs in
/// the order it ran them, its engine counters, and its observability
/// samples.
type WorkerOut = (Vec<(usize, Result<ParseOutcome, ServeError>)>, MemoEffectiveness, ObsSamples);

/// The result of parsing one input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOutcome {
    /// Did the grammar accept the input?
    pub accepted: bool,
    /// Exact parse-tree count, when [`ServiceConfig::count_parses`] is set
    /// (with explicit [`ParseCount::Overflow`] / [`ParseCount::Infinite`]
    /// outcomes — never a silent wrap).
    pub parse_count: Option<ParseCount>,
    /// The shared-forest summary (count, depth, node count, canonical
    /// fingerprint), when [`ServiceConfig::forests`] is set.
    pub forest: Option<ForestSummary>,
    /// Up to [`ServiceConfig::top_k_trees`] rendered parse trees, when that
    /// is nonzero.
    pub trees: Option<Vec<String>>,
    /// Per-input resource stats (tokens fed, peak live nodes, arena bytes),
    /// when [`ServiceConfig::observability`] is set.
    pub stats: Option<SessionStats>,
    /// Spanned diagnostics from error recovery, when
    /// [`ServiceConfig::recovery`] is set (`Some(vec![])` for clean
    /// inputs). `None` means recovery was off for this request.
    pub diagnostics: Option<Vec<Diagnostic>>,
}

/// Engine cache-effectiveness counters summed over the inputs of a batch
/// (or the lifetime of a service): how well the derive memo and the
/// class-template layer served the traffic for a grammar. Zero for
/// memo-less backends (Earley, GLR).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoEffectiveness {
    /// Derive calls answered from the memo tables (including the
    /// class-template fast path).
    pub memo_hits: u64,
    /// Derive calls that missed every cache and did real work.
    pub memo_misses: u64,
    /// Lexeme-independent derivative subgraphs shared verbatim with a new
    /// lexeme of the same terminal class.
    pub template_shares: u64,
    /// Derivatives of a repeat terminal class re-instantiated along the
    /// patch path to fresh leaves (parse mode).
    pub template_instantiations: u64,
    /// Lazy-automaton states interned (one dense transition row each) on
    /// behalf of this grammar's traffic (recognize mode).
    pub auto_rows_built: u64,
    /// Tokens consumed by an automaton transition-table hit — the
    /// zero-construction fast path of the recognize loop.
    pub auto_table_hits: u64,
    /// Tokens that fell back to the interpreted derive path while the
    /// automaton was active (cold rows, or the row budget froze).
    pub auto_fallbacks: u64,
}

impl MemoEffectiveness {
    fn absorb(&mut self, m: &BackendMetrics) {
        self.memo_hits += m.memo_hits;
        self.memo_misses += m.memo_misses;
        self.template_shares += m.template_shares;
        self.template_instantiations += m.template_instantiations;
        self.auto_rows_built += m.auto_rows_built;
        self.auto_table_hits += m.auto_table_hits;
        self.auto_fallbacks += m.auto_fallbacks;
    }

    fn merge(&mut self, other: MemoEffectiveness) {
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.template_shares += other.template_shares;
        self.template_instantiations += other.template_instantiations;
        self.auto_rows_built += other.auto_rows_built;
        self.auto_table_hits += other.auto_table_hits;
        self.auto_fallbacks += other.auto_fallbacks;
    }

    /// Fraction of derive calls served from a cache, in `[0, 1]`, or `None`
    /// when no derive calls ran — an undefined ratio, not a 0% hit rate
    /// (memo-less backends and empty batches would otherwise read as
    /// pathologically cold caches).
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.memo_hits + self.memo_misses;
        (total != 0).then(|| self.memo_hits as f64 / total as f64)
    }

    /// Fraction of tokens consumed by the automaton's dense-table walk
    /// rather than the interpreted derive path, in `[0, 1]`, or `None` when
    /// the automaton never ran. The per-grammar table-hit rate: how
    /// DFA-like this grammar's steady-state traffic became.
    pub fn table_hit_ratio(&self) -> Option<f64> {
        let total = self.auto_table_hits + self.auto_fallbacks;
        (total != 0).then(|| self.auto_table_hits as f64 / total as f64)
    }
}

/// Batch-level throughput and reuse metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchMetrics {
    /// Inputs in the batch.
    pub inputs: usize,
    /// Inputs accepted.
    pub accepted: usize,
    /// Inputs that errored (unknown terminals, engine limits).
    pub errors: usize,
    /// Wall-clock for the whole batch (cache lookup included).
    pub elapsed: Duration,
    /// Workers that actually ran (≤ configured workers for small batches).
    pub workers_used: usize,
    /// Inputs processed by each worker that ran; the spread shows how well
    /// work-stealing balanced the batch.
    pub per_worker_inputs: Vec<usize>,
    /// Was the grammar already compiled when the batch arrived?
    pub cache_hit: bool,
    /// Engine cache effectiveness summed over the batch's inputs: memo
    /// hits/misses and class-template activity. This is the per-grammar
    /// signal for whether the derive cache is earning its keep on the
    /// traffic actually being served.
    pub memo: MemoEffectiveness,
}

/// Results of one batch: per-input outcomes in input order, plus metrics.
#[derive(Debug)]
pub struct BatchReport {
    /// One entry per input, in the order submitted. A rejected input is
    /// `Ok(ParseOutcome { accepted: false, .. })`; `Err` is reserved for
    /// malformed inputs (unknown terminal kinds), engine resource limits,
    /// per-request budget cancellations, and caught worker panics — one
    /// failing input never fails its batch.
    pub outcomes: Vec<Result<ParseOutcome, ServeError>>,
    /// Batch-level metrics.
    pub metrics: BatchMetrics,
}

/// Configuration of a [`ParseService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Fixed number of workers batches fan out over (≥ 1). A batch's first
    /// worker runs on the caller's thread and stack, each further worker on
    /// a scoped thread of its own; a batch that gets one worker (this is 1,
    /// or the batch has one input) spawns no thread, and its queue-wait
    /// sample is about 0.
    pub workers: usize,
    /// Backend name from the [`derp::api`] roster (`"pwd"` aliases
    /// `"pwd-improved"`); validated lazily at first use.
    pub backend: String,
    /// Also report the exact parse-tree count per input (all roster
    /// backends support counting via their shared forests).
    pub count_parses: bool,
    /// Report a [`ForestSummary`] per input: exact count, forest depth,
    /// packed node count, and the canonical fingerprint clients can use to
    /// compare parses across backends or service instances.
    pub forests: bool,
    /// Also render up to this many parse trees per input (0 = none).
    pub top_k_trees: usize,
    /// Upper bound on concurrently open live sessions — each holds a
    /// pooled backend (for PWD, a full engine arena), so abandoned opens
    /// must not accumulate without bound. Opens beyond the cap fail with
    /// [`ServeError::SessionLimit`].
    pub max_live_sessions: usize,
    /// Record request/queue-wait/execute latency histograms and engine
    /// phase timings, exposed via [`ParseService::metrics_text`] and
    /// [`ParseOutcome::stats`]. Off by default: with it off the service
    /// reads no clocks beyond the existing per-batch wall timer and arms no
    /// engine hooks.
    pub observability: bool,
    /// Per-request token cap (`0` = unlimited). Inputs longer than this
    /// are rejected with [`ServeError::BudgetExceeded`] before any engine
    /// work runs.
    pub max_tokens_per_input: usize,
    /// Per-request wall-clock budget (`None` = unlimited). With a budget
    /// set, the input is fed in strides of 64 tokens with a deadline check
    /// before each, and a parse still running past it is cancelled at the
    /// next stride with [`ServeError::BudgetExceeded`]; the abandoned
    /// session is reclaimed by the pool's epoch reset, not quarantined.
    /// Closing the parse is never cancelled, so an empty input is always
    /// answered. Stride boundaries also cap error recovery's repair
    /// lookahead: a repair near a boundary sees only the tokens up to it,
    /// so with [`recovery`](ServiceConfig::recovery) on, a budgeted request
    /// can repair differently from an unbudgeted one.
    pub time_budget: Option<Duration>,
    /// Bounded-budget error recovery (`None` = off). When set, inputs run
    /// through `derp`'s recovering [`Session`]: malformed tokens are
    /// repaired within this budget instead of failing the request, and
    /// each outcome carries its [`Diagnostic`]s
    /// ([`ParseOutcome::diagnostics`]).
    pub recovery: Option<RecoveryBudget>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: std::thread::available_parallelism().map_or(4, usize::from),
            backend: "pwd-improved".to_string(),
            count_parses: false,
            forests: false,
            top_k_trees: 0,
            max_live_sessions: 1024,
            observability: false,
            max_tokens_per_input: 0,
            time_budget: None,
            recovery: None,
        }
    }
}

/// Service-lifetime counters aggregated over the cache and all worker pools.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceMetrics {
    /// Compiled-grammar cache hits/misses.
    pub cache: CacheMetrics,
    /// Session fork/reuse totals summed over workers.
    pub sessions: PoolMetrics,
    /// Total inputs served.
    pub inputs: u64,
    /// Engine cache effectiveness summed over every input ever served.
    pub memo: MemoEffectiveness,
    /// Worker panics caught (each one quarantined a pooled session and
    /// failed exactly one request).
    pub panics_caught: u64,
    /// Pooled sessions discarded after a caught panic instead of being
    /// checked back in.
    pub sessions_quarantined: u64,
    /// Requests cancelled by a per-request token or wall-clock budget.
    pub budget_cancelled: u64,
    /// Requests whose error recovery applied at least one repair (emitted
    /// at least one diagnostic).
    pub inputs_recovered: u64,
    /// Total diagnostics emitted by error recovery across all requests.
    pub diagnostics_emitted: u64,
    /// Edit splices applied to live sessions.
    pub splices: u64,
    /// Tokens splices avoided refeeding (reused prefix plus
    /// convergence-skipped suffix), totalled over all splices.
    pub splice_tokens_reused: u64,
    /// Tokens splices refed through the engine, totalled.
    pub splice_tokens_refed: u64,
    /// Total distance (in tokens) between each splice's damage start and
    /// the checkpoint-ladder rung it restored.
    pub splice_ladder_distance: u64,
}

/// A thread-safe, batched parse service: sharded compiled-grammar cache +
/// per-worker session pools + a work-stealing batch runner.
///
/// See the [crate docs](crate) for the request lifecycle diagram.
pub struct ParseService {
    config: ServiceConfig,
    cache: GrammarCache,
    /// One slot per worker. A batch's worker `w` locks slot `w` for the
    /// whole batch — concurrent batches queue on the slots rather than
    /// stampeding session creation.
    slots: Vec<Mutex<SessionPool>>,
    /// Rotates which slot a small batch starts on, so concurrent small
    /// submitters spread over the pools instead of all queueing on slot 0.
    next_slot: AtomicUsize,
    inputs_served: AtomicUsize,
    /// Worker panics caught (== sessions quarantined; kept separate so a
    /// future non-quarantining recovery path can diverge them).
    panics_caught: AtomicU64,
    /// Pooled sessions dropped after a caught panic.
    sessions_quarantined: AtomicU64,
    /// Requests cancelled by a per-request budget.
    budget_cancelled: AtomicU64,
    /// Requests repaired by error recovery (≥ 1 diagnostic).
    inputs_recovered: AtomicU64,
    /// Diagnostics emitted by error recovery, totalled.
    diagnostics_emitted: AtomicU64,
    /// Edit splices applied to live sessions.
    pub(crate) splices: AtomicU64,
    /// Tokens splices avoided refeeding, totalled.
    pub(crate) splice_tokens_reused: AtomicU64,
    /// Tokens splices refed through the engine, totalled.
    pub(crate) splice_tokens_refed: AtomicU64,
    /// Splice rollback distances (damage start minus restored rung),
    /// totalled.
    pub(crate) splice_ladder_distance: AtomicU64,
    /// Lifetime engine cache-effectiveness totals (merged once per batch).
    memo_totals: Mutex<MemoEffectiveness>,
    /// Latency/phase histogram store, keyed by (backend, grammar
    /// fingerprint). Inert unless [`ServiceConfig::observability`] is set.
    pub(crate) obs: ServeObs,
    /// Live incremental sessions, keyed by id (see `crate::live`). An entry
    /// is *absent* while a caller is feeding it (taken out of the map), so
    /// the lock is never held across engine work.
    pub(crate) live: Mutex<HashMap<u64, crate::live::LiveSession>>,
    /// Monotonic live-session id source.
    pub(crate) next_session: AtomicU64,
    /// Open live sessions, **including** ones momentarily checked out of
    /// the registry by a call in flight — the registry length undercounts
    /// those, so the `max_live_sessions` cap is enforced on this counter
    /// (atomically: reserve-then-open, release on finish/abort).
    pub(crate) live_count: AtomicUsize,
}

impl ParseService {
    /// Creates a service with the given configuration (the worker count is
    /// clamped to ≥ 1).
    pub fn new(mut config: ServiceConfig) -> ParseService {
        config.workers = config.workers.max(1);
        let cache = GrammarCache::new(CACHE_SHARDS, &config.backend);
        let slots = (0..config.workers).map(|_| Mutex::new(SessionPool::new())).collect();
        let obs = ServeObs::new(config.observability);
        ParseService {
            config,
            cache,
            slots,
            next_slot: AtomicUsize::new(0),
            inputs_served: AtomicUsize::new(0),
            panics_caught: AtomicU64::new(0),
            sessions_quarantined: AtomicU64::new(0),
            budget_cancelled: AtomicU64::new(0),
            inputs_recovered: AtomicU64::new(0),
            diagnostics_emitted: AtomicU64::new(0),
            splices: AtomicU64::new(0),
            splice_tokens_reused: AtomicU64::new(0),
            splice_tokens_refed: AtomicU64::new(0),
            splice_ladder_distance: AtomicU64::new(0),
            memo_totals: Mutex::new(MemoEffectiveness::default()),
            obs,
            live: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            live_count: AtomicUsize::new(0),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Parses one input (a batch of one; slots are assigned round-robin, so
    /// concurrent single submitters use different pools).
    ///
    /// A batch of one needs one worker, so it runs on the caller's thread
    /// and stack, with no thread spawned or joined: its queue-wait sample
    /// is about 0 (the grammar-cache lookup and the pool lock).
    ///
    /// # Errors
    ///
    /// [`ServeError`] — service-level failures (unknown backend) and
    /// per-input failures (backend errors, budget cancellations, caught
    /// panics) alike, since the batch has exactly one input.
    pub fn submit(&self, cfg: &Cfg, input: &Input) -> Result<ParseOutcome, ServeError> {
        let mut report = self.submit_batch(cfg, std::slice::from_ref(input))?;
        report.outcomes.pop().expect("batch of one has one outcome")
    }

    /// Fans `inputs` across the worker pool and returns per-input results in
    /// input order.
    ///
    /// The grammar is compiled at most once (per service) and shared; each
    /// worker checks sessions out of its own pool, so a warm batch does no
    /// compilation and no arena allocation — only epoch resets.
    ///
    /// A batch uses `min(workers, inputs.len())` workers. The first runs on
    /// the caller's thread and stack, each further one on a scoped thread
    /// of its own, all behind the same unwind boundary and quarantine. When
    /// the batch needs one worker — a single input, or
    /// [`ServiceConfig::workers`] = 1 — no thread is spawned and each
    /// input's queue-wait sample is about 0.
    ///
    /// # Errors
    ///
    /// [`ServeError`] for service-level failures (unknown backend). Per-input
    /// failures — unknown terminal kinds, engine limits, per-request budget
    /// cancellations, and even backend panics (caught, with the pooled
    /// session quarantined) — are reported in [`BatchReport::outcomes`]
    /// without failing the batch or losing a worker.
    pub fn submit_batch(&self, cfg: &Cfg, inputs: &[Input]) -> Result<BatchReport, ServeError> {
        self.submit_batch_with_faults(cfg, inputs, &FaultPlan::none())
    }

    /// [`submit_batch`](ParseService::submit_batch) with deterministic
    /// fault injection: each input whose index appears in `plan` fails in
    /// the planned way (worker panic, budget exhaustion, lex error)
    /// *inside* the worker, exercising the same catch/quarantine/report
    /// machinery real faults do. The contract chaos tests lean on: N
    /// planned faults cost exactly N failed requests — every other input
    /// parses normally and no worker is lost.
    pub fn submit_batch_with_faults(
        &self,
        cfg: &Cfg,
        inputs: &[Input],
        plan: &FaultPlan,
    ) -> Result<BatchReport, ServeError> {
        let t0 = Instant::now();
        let (entry, cache_hit) = self.cache.get_or_compile(cfg)?;

        let n = inputs.len();
        let workers_used = self.config.workers.min(n).max(1);
        let obs_on = self.obs.enabled();
        let cursor = AtomicUsize::new(0);
        // Full batches take all slots anyway; smaller ones start at a
        // rotating offset so concurrent small batches use different pools.
        let slot_base = if workers_used < self.slots.len() {
            self.next_slot.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };

        let worker = |w: usize| {
            let slot = &self.slots[(slot_base + w) % self.slots.len()];
            self.run_worker(slot, &entry, inputs, plan, &cursor, t0)
        };
        // Worker 0 runs on the caller's thread; workers 1.. each get a
        // scoped thread, so a one-worker batch spawns nothing.
        let per_worker: Vec<WorkerOut> = std::thread::scope(|scope| {
            let spawned: Vec<_> =
                (1..workers_used).map(|w| scope.spawn(move || worker(w))).collect();
            let mut per_worker = vec![worker(0)];
            per_worker.extend(spawned.into_iter().map(|h| {
                h.join().expect("worker infrastructure panicked outside the unwind boundary")
            }));
            per_worker
        });

        let per_worker_inputs: Vec<usize> = per_worker.iter().map(|(c, _, _)| c.len()).collect();
        let fingerprint = entry.fingerprint();
        let mut memo = MemoEffectiveness::default();
        let mut outcomes: Vec<Option<Result<ParseOutcome, ServeError>>> = vec![None; n];
        for (chunk, worker_memo, samples) in per_worker {
            memo.merge(worker_memo);
            self.obs.fold(&self.config.backend, fingerprint, samples);
            for (i, res) in chunk {
                outcomes[i] = Some(res);
            }
        }
        let outcomes: Vec<_> =
            outcomes.into_iter().map(|o| o.expect("every input was assigned")).collect();

        self.inputs_served.fetch_add(n, Ordering::Relaxed);
        self.memo_totals.lock().expect("memo totals poisoned").merge(memo);
        if obs_on {
            let mut batch = ObsSamples::new();
            batch.request_ns.push(t0.elapsed().as_nanos() as u64);
            self.obs.fold(&self.config.backend, fingerprint, batch);
        }
        let accepted = outcomes.iter().filter(|r| matches!(r, Ok(o) if o.accepted)).count();
        let errors = outcomes.iter().filter(|r| r.is_err()).count();
        let (mut cancelled, mut recovered, mut diags) = (0u64, 0u64, 0u64);
        for res in &outcomes {
            match res {
                Ok(o) => {
                    if let Some(d) = &o.diagnostics {
                        if !d.is_empty() {
                            recovered += 1;
                            diags += d.len() as u64;
                        }
                    }
                }
                Err(ServeError::BudgetExceeded { .. }) => cancelled += 1,
                Err(_) => {}
            }
        }
        self.budget_cancelled.fetch_add(cancelled, Ordering::Relaxed);
        self.inputs_recovered.fetch_add(recovered, Ordering::Relaxed);
        self.diagnostics_emitted.fetch_add(diags, Ordering::Relaxed);
        Ok(BatchReport {
            outcomes,
            metrics: BatchMetrics {
                inputs: n,
                accepted,
                errors,
                elapsed: t0.elapsed(),
                workers_used,
                per_worker_inputs,
                cache_hit,
                memo,
            },
        })
    }

    /// The worker body of a batch, the one path every batch input takes:
    /// locks the pool `slot` and takes inputs off the shared `cursor` until
    /// none are left, running each behind the unwind boundary. A batch
    /// calls it for worker 0 on the submitting thread and for every further
    /// worker on a scoped thread. `arrived` is the batch's arrival, the
    /// start of each input's queue wait.
    fn run_worker(
        &self,
        slot: &Mutex<SessionPool>,
        entry: &CachedGrammar,
        inputs: &[Input],
        plan: &FaultPlan,
        cursor: &AtomicUsize,
        arrived: Instant,
    ) -> WorkerOut {
        let config = &self.config;
        let obs_on = self.obs.enabled();
        let mut pool = slot.lock().expect("worker pool poisoned");
        let mut out = Vec::new();
        let mut memo = MemoEffectiveness::default();
        let mut samples = ObsSamples::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= inputs.len() {
                break;
            }
            let mut session = pool.checkout(entry);
            let fault = plan.fault_for(i);
            // The unwind boundary. Anything that panics in here — a backend
            // bug, or an injected fault — becomes one failed request; the
            // session that was running it is quarantined below, and the
            // worker moves on to the next input.
            let run = catch_unwind(AssertUnwindSafe(|| -> Result<ParseOutcome, ServeError> {
                match fault {
                    Some(Fault::Panic) => panic!("injected fault: panic on input {i}"),
                    Some(Fault::BudgetExhaustion) => {
                        return Err(ServeError::BudgetExceeded {
                            kind: BudgetKind::Tokens,
                            limit: 0,
                        });
                    }
                    Some(Fault::LexError) => {
                        // A genuine backend rejection: the NUL-framed kind is
                        // outside every grammar alphabet, so this travels the
                        // real unknown-kind error path.
                        let err = session
                            .backend()
                            .recognize(&["\u{0}injected-lex-error\u{0}"])
                            .expect_err("control kind is in no alphabet");
                        return Err(ServeError::Backend(err));
                    }
                    None => {}
                }
                if !obs_on {
                    return run_input(session.backend(), &inputs[i], config, &mut memo);
                }
                // Queue wait = batch arrival to worker pickup; execute = the
                // engine run itself. Engine phase histograms are armed for
                // exactly this input and folded into the worker-local samples.
                let picked = Instant::now();
                session.backend().set_obs(true);
                let res = run_input(session.backend(), &inputs[i], config, &mut memo);
                samples.queue_wait_ns.push(picked.duration_since(arrived).as_nanos() as u64);
                samples.execute_ns.push(picked.elapsed().as_nanos() as u64);
                if let Some(p) = session.backend().metrics().phases {
                    samples.absorb_phases(&p);
                }
                session.backend().set_obs(false);
                res
            }));
            match run {
                Ok(res) => {
                    pool.checkin(session);
                    out.push((i, res));
                }
                Err(payload) => {
                    // Quarantine: a panic may have left the engine's arenas
                    // inconsistent, so the session is dropped, never re-pooled.
                    drop(session);
                    self.panics_caught.fetch_add(1, Ordering::Relaxed);
                    self.sessions_quarantined.fetch_add(1, Ordering::Relaxed);
                    let message = panic_text(payload.as_ref());
                    out.push((i, Err(ServeError::WorkerPanicked { message })));
                }
            }
        }
        (out, memo, samples)
    }

    /// Checks a backend out of the slot pools for the grammar (compiling it
    /// on a cache miss), handing ownership to a live session. All slots are
    /// scanned for an idle session before a fork is paid — a finished live
    /// session may have been released into any of them.
    pub(crate) fn checkout_backend(
        &self,
        cfg: &Cfg,
    ) -> Result<(u64, Box<dyn derp::api::Parser>), ServeError> {
        let (entry, _hit) = self.cache.get_or_compile(cfg)?;
        let fingerprint = entry.fingerprint();
        let base = self.next_slot.fetch_add(1, Ordering::Relaxed);
        for i in 0..self.slots.len() {
            let slot = &self.slots[(base + i) % self.slots.len()];
            if let Some(backend) = slot.lock().expect("worker pool poisoned").try_reuse(fingerprint)
            {
                return Ok((fingerprint, backend));
            }
        }
        let slot = &self.slots[base % self.slots.len()];
        let mut pool = slot.lock().expect("worker pool poisoned");
        Ok(pool.checkout(&entry).into_parts())
    }

    /// Returns a backend recovered from a finished live session to a slot
    /// pool (round-robin, like small batches).
    pub(crate) fn release_backend(&self, fingerprint: u64, backend: Box<dyn derp::api::Parser>) {
        let slot = self.next_slot.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        self.slots[slot].lock().expect("worker pool poisoned").release(fingerprint, backend);
    }

    /// Counts one input toward the service-lifetime totals.
    pub(crate) fn count_input(&self) {
        self.inputs_served.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds a finished live session's engine counters into the lifetime
    /// memo-effectiveness totals (the batch path absorbs per input; live
    /// sessions absorb once, at finish, before the backend is reset).
    pub(crate) fn absorb_memo(&self, m: &BackendMetrics) {
        self.memo_totals.lock().expect("memo totals poisoned").absorb(m);
    }

    /// Service-lifetime counters: cache hits/misses, session forks/reuses,
    /// inputs served.
    pub fn metrics(&self) -> ServiceMetrics {
        let sessions = self
            .slots
            .iter()
            .map(|s| s.lock().expect("worker pool poisoned").metrics())
            .fold(PoolMetrics::default(), |acc, m| PoolMetrics {
                forked: acc.forked + m.forked,
                reused: acc.reused + m.reused,
            });
        ServiceMetrics {
            cache: self.cache.metrics(),
            sessions,
            inputs: self.inputs_served.load(Ordering::Relaxed) as u64,
            memo: *self.memo_totals.lock().expect("memo totals poisoned"),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            sessions_quarantined: self.sessions_quarantined.load(Ordering::Relaxed),
            budget_cancelled: self.budget_cancelled.load(Ordering::Relaxed),
            inputs_recovered: self.inputs_recovered.load(Ordering::Relaxed),
            diagnostics_emitted: self.diagnostics_emitted.load(Ordering::Relaxed),
            splices: self.splices.load(Ordering::Relaxed),
            splice_tokens_reused: self.splice_tokens_reused.load(Ordering::Relaxed),
            splice_tokens_refed: self.splice_tokens_refed.load(Ordering::Relaxed),
            splice_ladder_distance: self.splice_ladder_distance.load(Ordering::Relaxed),
        }
    }

    /// Renders the service's lifetime metrics as a Prometheus-style text
    /// exposition document: always-on counters (inputs served, cache and
    /// pool activity, memo effectiveness, live-session gauge), plus — when
    /// [`ServiceConfig::observability`] is set — request/queue-wait/execute
    /// latency histograms and engine phase timings labelled by backend and
    /// grammar fingerprint.
    pub fn metrics_text(&self) -> String {
        let m = self.metrics();
        let mut prom = PromText::new();
        let labels = [("backend", self.config.backend.as_str())];
        prom.counter(
            "pwd_serve_inputs_total",
            "Inputs served over the service lifetime.",
            &labels,
            m.inputs,
        );
        prom.counter(
            "pwd_serve_cache_hits_total",
            "Compiled-grammar cache hits.",
            &labels,
            m.cache.hits,
        );
        prom.counter(
            "pwd_serve_cache_misses_total",
            "Compiled-grammar cache misses (compiles).",
            &labels,
            m.cache.misses,
        );
        prom.counter(
            "pwd_serve_sessions_forked_total",
            "Engine sessions created by forking a cached prototype.",
            &labels,
            m.sessions.forked,
        );
        prom.counter(
            "pwd_serve_sessions_reused_total",
            "Pooled engine sessions reused via epoch reset.",
            &labels,
            m.sessions.reused,
        );
        prom.gauge(
            "pwd_serve_live_sessions",
            "Currently open live (incremental) sessions.",
            &labels,
            self.live_count.load(Ordering::Relaxed) as f64,
        );
        prom.counter(
            "pwd_engine_memo_hits_total",
            "Derive calls answered from the memo tables.",
            &labels,
            m.memo.memo_hits,
        );
        prom.counter(
            "pwd_engine_memo_misses_total",
            "Derive calls that missed every cache.",
            &labels,
            m.memo.memo_misses,
        );
        prom.counter(
            "pwd_engine_template_shares_total",
            "Derivative subgraphs shared via the class-template layer.",
            &labels,
            m.memo.template_shares,
        );
        prom.counter(
            "pwd_engine_template_instantiations_total",
            "Class-template derivatives re-instantiated to fresh leaves.",
            &labels,
            m.memo.template_instantiations,
        );
        prom.counter(
            "pwd_engine_auto_rows_built_total",
            "Lazy-automaton states interned.",
            &labels,
            m.memo.auto_rows_built,
        );
        prom.counter(
            "pwd_engine_auto_table_hits_total",
            "Tokens consumed by a dense transition-table hit.",
            &labels,
            m.memo.auto_table_hits,
        );
        prom.counter(
            "pwd_engine_auto_fallbacks_total",
            "Tokens that fell back to the interpreted derive path.",
            &labels,
            m.memo.auto_fallbacks,
        );
        prom.counter(
            "pwd_serve_worker_panics_total",
            "Worker panics caught at the per-input unwind boundary.",
            &labels,
            m.panics_caught,
        );
        prom.counter(
            "pwd_serve_sessions_quarantined_total",
            "Pooled sessions discarded after a caught panic.",
            &labels,
            m.sessions_quarantined,
        );
        prom.counter(
            "pwd_serve_budget_cancelled_total",
            "Requests cancelled by a per-request token or time budget.",
            &labels,
            m.budget_cancelled,
        );
        prom.counter(
            "pwd_serve_inputs_recovered_total",
            "Requests repaired by error recovery (>= 1 diagnostic).",
            &labels,
            m.inputs_recovered,
        );
        prom.counter(
            "pwd_serve_diagnostics_total",
            "Diagnostics emitted by error recovery.",
            &labels,
            m.diagnostics_emitted,
        );
        prom.counter(
            "pwd_serve_splices_total",
            "Edit splices applied to live sessions.",
            &labels,
            m.splices,
        );
        prom.counter(
            "pwd_serve_splice_tokens_reused_total",
            "Tokens splices avoided refeeding (reused prefix + converged suffix).",
            &labels,
            m.splice_tokens_reused,
        );
        prom.counter(
            "pwd_serve_splice_tokens_refed_total",
            "Tokens splices refed through the engine.",
            &labels,
            m.splice_tokens_refed,
        );
        prom.counter(
            "pwd_serve_splice_ladder_distance_total",
            "Splice rollback distances (damage start minus restored rung), totalled.",
            &labels,
            m.splice_ladder_distance,
        );
        self.obs.render(&mut prom);
        prom.finish()
    }
}

impl fmt::Debug for ParseService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParseService")
            .field("config", &self.config)
            .field("metrics", &self.metrics())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwd_grammar::CfgBuilder;

    fn catalan() -> Cfg {
        let mut g = CfgBuilder::new("S");
        g.terminal("a");
        g.rule("S", &["S", "S"]);
        g.rule("S", &["a"]);
        g.build().unwrap()
    }

    fn a_inputs(lens: &[usize]) -> Vec<Input> {
        lens.iter().map(|&n| Input::from_kinds(&vec!["a"; n])).collect()
    }

    #[test]
    fn batch_results_come_back_in_input_order() {
        let service = ParseService::new(ServiceConfig {
            workers: 3,
            count_parses: true,
            ..Default::default()
        });
        let cfg = catalan();
        // Mix sizes so work-stealing actually interleaves completion order.
        let lens = [4, 0, 7, 1, 6, 2, 5, 3, 8, 1, 4, 0];
        let report = service.submit_batch(&cfg, &a_inputs(&lens)).unwrap();
        assert_eq!(report.outcomes.len(), lens.len());
        for (i, (&len, out)) in lens.iter().zip(&report.outcomes).enumerate() {
            let out = out.as_ref().unwrap();
            assert_eq!(out.accepted, len > 0, "input {i} (length {len})");
            // Catalan counts pin the slot to the right input, not just the
            // right verdict: C(n-1) parse trees for n ≥ 1 leaves.
            let expect = match len as u128 {
                0 => 0,
                n => (0..n - 1).fold(1, |c, k| c * 2 * (2 * k + 1) / (k + 2)),
            };
            assert_eq!(out.parse_count, Some(ParseCount::Finite(expect)), "input {i}");
        }
        assert_eq!(report.metrics.inputs, lens.len());
        assert_eq!(report.metrics.accepted, lens.iter().filter(|&&l| l > 0).count());
        assert_eq!(report.metrics.workers_used, 3);
        assert_eq!(report.metrics.per_worker_inputs.iter().sum::<usize>(), lens.len());
    }

    #[test]
    fn second_batch_hits_cache_and_reuses_sessions() {
        let service = ParseService::new(ServiceConfig { workers: 2, ..Default::default() });
        let cfg = catalan();
        let first = service.submit_batch(&cfg, &a_inputs(&[1, 2, 3, 4])).unwrap();
        assert!(!first.metrics.cache_hit);
        let second = service.submit_batch(&cfg, &a_inputs(&[2, 2, 2, 2])).unwrap();
        assert!(second.metrics.cache_hit, "same grammar must not recompile");
        let m = service.metrics();
        assert_eq!(m.cache, CacheMetrics { hits: 1, misses: 1 });
        assert_eq!(m.inputs, 8);
        assert!(
            m.sessions.reused >= m.sessions.forked,
            "pooled sessions must dominate forks on a warm service: {:?}",
            m.sessions
        );
    }

    #[test]
    fn dfa_backend_reuses_automaton_rows_across_batches() {
        let service = ParseService::new(ServiceConfig {
            workers: 1,
            backend: "pwd-dfa".to_string(),
            ..Default::default()
        });
        let cfg = catalan();
        let first = service.submit_batch(&cfg, &a_inputs(&[1, 2, 3, 4])).unwrap();
        let m1 = first.metrics.memo;
        assert!(m1.auto_rows_built > 0, "cold batch interns states: {m1:?}");
        // The second batch replays warm prefixes on the pooled session: the
        // lazy automaton's rows survive the epoch reset, so every token is
        // a dense-table hit and no new rows are built.
        let second = service.submit_batch(&cfg, &a_inputs(&[2, 3, 4, 4])).unwrap();
        let m2 = second.metrics.memo;
        assert_eq!(m2.auto_rows_built, 0, "pooled session keeps compiled rows: {m2:?}");
        assert_eq!(m2.auto_fallbacks, 0, "warm traffic never leaves the table: {m2:?}");
        assert!(m2.auto_table_hits > 0, "{m2:?}");
        assert_eq!(m2.table_hit_ratio(), Some(1.0), "{m2:?}");
        // Lifetime totals fold both batches.
        let lifetime = service.metrics().memo;
        assert_eq!(lifetime.auto_rows_built, m1.auto_rows_built);
        assert_eq!(lifetime.auto_table_hits, m1.auto_table_hits + m2.auto_table_hits);
    }

    #[test]
    fn per_input_errors_do_not_fail_the_batch() {
        let service = ParseService::new(ServiceConfig { workers: 2, ..Default::default() });
        let cfg = catalan();
        let inputs =
            vec![Input::from_kinds(&["a"]), Input::from_kinds(&["NOPE"]), Input::from_kinds(&[])];
        let report = service.submit_batch(&cfg, &inputs).unwrap();
        assert!(report.outcomes[0].as_ref().unwrap().accepted);
        let err = report.outcomes[1].as_ref().unwrap_err();
        assert!(matches!(err, ServeError::Backend(_)), "{err:?}");
        assert!(err.to_string().contains("NOPE"));
        assert!(!report.outcomes[2].as_ref().unwrap().accepted);
        assert_eq!(report.metrics.errors, 1);
    }

    #[test]
    fn injected_panic_is_caught_quarantined_and_survivable() {
        let service = ParseService::new(ServiceConfig { workers: 2, ..Default::default() });
        let cfg = catalan();
        let plan = FaultPlan::none().inject(1, Fault::Panic);
        let report =
            service.submit_batch_with_faults(&cfg, &a_inputs(&[1, 2, 3, 4]), &plan).unwrap();
        // Exactly the planned input failed, with a structured error.
        let err = report.outcomes[1].as_ref().unwrap_err();
        assert!(
            matches!(err, ServeError::WorkerPanicked { message } if message.contains("injected")),
            "{err:?}"
        );
        for i in [0, 2, 3] {
            assert!(report.outcomes[i].as_ref().unwrap().accepted, "input {i} must still parse");
        }
        assert_eq!(report.metrics.errors, 1);
        let m = service.metrics();
        assert_eq!(m.panics_caught, 1);
        assert_eq!(m.sessions_quarantined, 1);
        // The service keeps serving after the quarantine.
        let clean = service.submit_batch(&cfg, &a_inputs(&[2, 2])).unwrap();
        assert!(clean.outcomes.iter().all(|o| o.as_ref().unwrap().accepted));
        let text = service.metrics_text();
        assert!(
            text.contains("pwd_serve_worker_panics_total{backend=\"pwd-improved\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pwd_serve_sessions_quarantined_total{backend=\"pwd-improved\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn token_budget_rejects_oversized_inputs_before_parsing() {
        let service = ParseService::new(ServiceConfig {
            workers: 2,
            max_tokens_per_input: 3,
            ..Default::default()
        });
        let report = service.submit_batch(&catalan(), &a_inputs(&[2, 5, 3])).unwrap();
        assert!(report.outcomes[0].as_ref().unwrap().accepted);
        assert_eq!(
            report.outcomes[1].as_ref().unwrap_err(),
            &ServeError::BudgetExceeded { kind: BudgetKind::Tokens, limit: 3 }
        );
        assert!(report.outcomes[2].as_ref().unwrap().accepted, "exactly at the cap is fine");
        assert_eq!(service.metrics().budget_cancelled, 1);
        let text = service.metrics_text();
        assert!(
            text.contains("pwd_serve_budget_cancelled_total{backend=\"pwd-improved\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn time_budget_cancels_runaway_parses_between_tokens() {
        let service = ParseService::new(ServiceConfig {
            workers: 1,
            time_budget: Some(Duration::ZERO),
            ..Default::default()
        });
        // A zero allowance trips the very first deadline check, making the
        // cancellation deterministic without needing a pathological input.
        let report = service.submit_batch(&catalan(), &a_inputs(&[64])).unwrap();
        assert!(
            matches!(
                report.outcomes[0].as_ref().unwrap_err(),
                ServeError::BudgetExceeded { kind: BudgetKind::Time, .. }
            ),
            "{:?}",
            report.outcomes[0]
        );
        assert_eq!(service.metrics().budget_cancelled, 1);
        // The abandoned mid-parse session was reclaimed by the pool's epoch
        // reset, not leaked or quarantined: the next request reuses it.
        let clean = service.submit_batch(&catalan(), &a_inputs(&[0])).unwrap();
        assert!(!clean.outcomes[0].as_ref().unwrap().accepted, "ε is rejected, not errored");
        assert_eq!(service.metrics().sessions_quarantined, 0);
        assert!(service.metrics().sessions.reused >= 1, "{:?}", service.metrics().sessions);
    }

    #[test]
    fn recovery_repairs_malformed_inputs_and_reports_diagnostics() {
        let mut g = CfgBuilder::new("S");
        g.terminal("a");
        g.terminal("b");
        g.rule("S", &["a", "b"]);
        g.rule("S", &["a", "b", "S"]);
        let cfg = g.build().unwrap();
        let service = ParseService::new(ServiceConfig {
            workers: 2,
            recovery: Some(derp::RecoveryBudget::default()),
            ..Default::default()
        });
        let inputs = vec![
            Input::from_kinds(&["a", "b"]),               // clean
            Input::from_kinds(&["a", "a", "b"]),          // needs one repair
            Input::from_kinds(&["a", "NOT-A-KIND", "b"]), // unknown kind, repaired
        ];
        let report = service.submit_batch(&cfg, &inputs).unwrap();
        let clean = report.outcomes[0].as_ref().unwrap();
        assert!(clean.accepted);
        assert_eq!(clean.diagnostics.as_deref(), Some(&[][..]), "clean input: no diagnostics");
        for i in [1, 2] {
            let out = report.outcomes[i].as_ref().unwrap();
            assert!(out.accepted, "input {i} must be repaired into acceptance");
            assert!(!out.diagnostics.as_deref().unwrap().is_empty(), "input {i}");
        }
        let m = service.metrics();
        assert_eq!(m.inputs_recovered, 2);
        assert!(m.diagnostics_emitted >= 2);
        let text = service.metrics_text();
        assert!(
            text.contains("pwd_serve_inputs_recovered_total{backend=\"pwd-improved\"} 2"),
            "{text}"
        );
        assert!(text.contains("pwd_serve_diagnostics_total"), "{text}");
    }

    #[test]
    fn recovery_counts_parses_through_the_forest() {
        let service = ParseService::new(ServiceConfig {
            workers: 1,
            count_parses: true,
            recovery: Some(derp::RecoveryBudget::default()),
            ..Default::default()
        });
        let report = service.submit_batch(&catalan(), &a_inputs(&[4])).unwrap();
        let out = report.outcomes[0].as_ref().unwrap();
        assert!(out.accepted);
        assert_eq!(out.parse_count, Some(ParseCount::Finite(5)), "C3 on a clean input");
        assert_eq!(out.diagnostics.as_deref(), Some(&[][..]));
    }

    #[test]
    fn empty_batch_is_fine() {
        let service = ParseService::new(ServiceConfig::default());
        let report = service.submit_batch(&catalan(), &[]).unwrap();
        assert!(report.outcomes.is_empty());
        assert_eq!(report.metrics.inputs, 0);
    }

    #[test]
    fn unknown_backend_fails_the_batch() {
        let service =
            ParseService::new(ServiceConfig { backend: "bison".to_string(), ..Default::default() });
        let err = service.submit_batch(&catalan(), &a_inputs(&[1])).unwrap_err();
        assert!(err.to_string().contains("bison"));
    }

    #[test]
    fn every_roster_backend_serves() {
        let cfg = catalan();
        for &name in derp::api::BACKEND_NAMES {
            let service = ParseService::new(ServiceConfig {
                workers: 2,
                backend: name.to_string(),
                ..Default::default()
            });
            let report = service.submit_batch(&cfg, &a_inputs(&[0, 1, 3])).unwrap();
            let verdicts: Vec<bool> =
                report.outcomes.iter().map(|o| o.as_ref().unwrap().accepted).collect();
            assert_eq!(verdicts, vec![false, true, true], "{name}");
        }
    }

    #[test]
    fn batch_metrics_expose_memo_effectiveness() {
        let service = ParseService::new(ServiceConfig { workers: 2, ..Default::default() });
        let report = service.submit_batch(&catalan(), &a_inputs(&[3, 4, 5, 6])).unwrap();
        let memo = report.metrics.memo;
        assert!(memo.memo_misses > 0, "real derivation work happened: {memo:?}");
        assert!(memo.memo_hits > 0, "repeated tokens must hit the memo: {memo:?}");
        let ratio = memo.hit_ratio().unwrap();
        assert!(ratio > 0.0 && ratio < 1.0, "{memo:?}");
        let lifetime = service.metrics().memo;
        assert_eq!(lifetime, memo, "one batch served, so lifetime == batch");

        // Memo-less baselines report zeros rather than garbage.
        let earley = ParseService::new(ServiceConfig {
            workers: 2,
            backend: "earley".to_string(),
            ..Default::default()
        });
        let report = earley.submit_batch(&catalan(), &a_inputs(&[3, 4])).unwrap();
        assert_eq!(report.metrics.memo, MemoEffectiveness::default());
    }

    #[test]
    fn lexeme_diverse_traffic_reports_template_activity() {
        // A grammar where identifiers recur as a class but never as a
        // lexeme: the class-template layer must show up in batch metrics.
        let mut g = CfgBuilder::new("S");
        g.terminal("ID");
        g.terminal(";");
        g.rule("S", &["ID", ";", "S"]);
        g.rule("S", &["ID"]);
        let cfg = g.build().unwrap();
        let service = ParseService::new(ServiceConfig { workers: 2, ..Default::default() });
        let input = Input::from_lexemes(
            (0..40)
                .flat_map(|i| {
                    [
                        Lexeme { kind: "ID".into(), text: format!("v{i}").into(), offset: 2 * i },
                        Lexeme { kind: ";".into(), text: ";".into(), offset: 2 * i + 1 },
                    ]
                })
                .take(79) // trailing ID, no trailing ';'
                .collect(),
        );
        let report = service.submit_batch(&cfg, std::slice::from_ref(&input)).unwrap();
        assert!(report.outcomes[0].as_ref().unwrap().accepted);
        let memo = report.metrics.memo;
        assert!(
            memo.template_shares + memo.template_instantiations > 0,
            "fresh lexemes of a repeated class must exercise the templates: {memo:?}"
        );
    }

    #[test]
    fn batch_forest_summaries_and_top_k_trees() {
        let service = ParseService::new(ServiceConfig {
            workers: 2,
            forests: true,
            top_k_trees: 3,
            count_parses: true,
            ..Default::default()
        });
        let cfg = catalan();
        let report = service.submit_batch(&cfg, &a_inputs(&[10, 3, 0])).unwrap();
        // n=10: C9 = 4862 readings — countable exactly, enumerable only
        // partially; the summary carries the truth, the trees a sample.
        let big = report.outcomes[0].as_ref().unwrap();
        let summary = big.forest.expect("forests enabled");
        assert_eq!(summary.count, ParseCount::Finite(4862));
        assert!(summary.node_count > 0 && summary.depth > 0);
        assert_eq!(big.parse_count, Some(ParseCount::Finite(4862)));
        assert_eq!(big.trees.as_ref().unwrap().len(), 3);
        assert!(big.accepted);
        // Small and rejected inputs.
        let small = report.outcomes[1].as_ref().unwrap();
        assert_eq!(small.forest.unwrap().count, ParseCount::Finite(2));
        assert_eq!(small.trees.as_ref().unwrap().len(), 2);
        let rejected = report.outcomes[2].as_ref().unwrap();
        assert!(!rejected.accepted);
        assert_eq!(rejected.forest.unwrap().count, ParseCount::Finite(0));
        assert!(rejected.trees.as_ref().unwrap().is_empty());
    }

    #[test]
    fn forest_fingerprints_agree_across_service_backends() {
        // The cross-backend promise at the service level: every roster
        // backend reports the same canonical fingerprint for an input far
        // too ambiguous to compare by tree sets.
        let cfg = catalan();
        let mut prints = Vec::new();
        for &name in derp::api::BACKEND_NAMES {
            let service = ParseService::new(ServiceConfig {
                workers: 1,
                backend: name.to_string(),
                forests: true,
                ..Default::default()
            });
            let report = service.submit_batch(&cfg, &a_inputs(&[9])).unwrap();
            let summary = report.outcomes[0].as_ref().unwrap().forest.unwrap();
            assert_eq!(summary.count, ParseCount::Finite(1430), "{name}: C8");
            prints.push((name, summary.fingerprint));
        }
        assert!(
            prints.windows(2).all(|w| w[0].1 == w[1].1),
            "fingerprints must be backend-invariant: {prints:?}"
        );
    }

    #[test]
    fn metrics_text_exposes_counters_and_latency_histograms() {
        let service = ParseService::new(ServiceConfig {
            workers: 2,
            observability: true,
            ..Default::default()
        });
        let report = service.submit_batch(&catalan(), &a_inputs(&[3, 4, 5])).unwrap();
        let stats = report.outcomes[0].as_ref().unwrap().stats.expect("observability is on");
        assert_eq!(stats.tokens_fed, 3);
        assert!(stats.peak_live_nodes > 0, "{stats:?}");
        let text = service.metrics_text();
        assert!(text.contains("pwd_serve_inputs_total{backend=\"pwd-improved\"} 3"), "{text}");
        assert!(text.contains("# TYPE pwd_serve_request_duration_ns histogram"), "{text}");
        // Per-input latencies carry both the backend and the grammar label.
        assert!(
            text.contains("pwd_serve_execute_ns_count{backend=\"pwd-improved\",grammar="),
            "{text}"
        );
        assert!(text.contains("pwd_serve_queue_wait_ns_bucket"), "{text}");
        // The engine's own instrumented phases ride along — but only when
        // the hooks are compiled in (absent under `--no-default-features`).
        assert_eq!(text.contains("pwd_engine_phase_ns"), cfg!(feature = "obs"), "{text}");
    }

    #[test]
    fn observability_off_keeps_outcomes_and_exposition_lean() {
        let service = ParseService::new(ServiceConfig { workers: 1, ..Default::default() });
        let report = service.submit_batch(&catalan(), &a_inputs(&[3])).unwrap();
        assert!(report.outcomes[0].as_ref().unwrap().stats.is_none());
        let text = service.metrics_text();
        assert!(text.contains("pwd_serve_inputs_total"), "{text}");
        assert!(!text.contains("pwd_serve_request_duration_ns"), "{text}");
    }

    #[test]
    fn lexeme_inputs_reach_the_engine_with_text() {
        let mut g = CfgBuilder::new("S");
        g.terminal("NUM");
        g.rule("S", &["NUM", "S"]);
        g.rule("S", &["NUM"]);
        let cfg = g.build().unwrap();
        let service = ParseService::new(ServiceConfig { workers: 2, ..Default::default() });
        let lex = |texts: &[&str]| {
            Input::from_lexemes(
                texts
                    .iter()
                    .enumerate()
                    .map(|(i, t)| Lexeme { kind: "NUM".into(), text: (*t).into(), offset: i })
                    .collect(),
            )
        };
        let report = service.submit_batch(&cfg, &[lex(&["1", "2", "3"]), lex(&[])]).unwrap();
        assert!(report.outcomes[0].as_ref().unwrap().accepted);
        assert!(!report.outcomes[1].as_ref().unwrap().accepted);
    }
}
