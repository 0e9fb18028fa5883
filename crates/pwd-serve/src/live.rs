//! Live incremental sessions: the streaming front end of the service.
//!
//! The batch API ([`ParseService::submit_batch`]) answers "parse these
//! inputs"; this module answers the shape a REPL, LSP server, or network
//! parse protocol actually has — input arrives in chunks, the caller wants
//! a verdict-so-far after each one, and speculative prefixes (editor
//! lookahead, a line being typed) must be retractable without re-parsing
//! the committed prefix:
//!
//! ```text
//!   open_session(cfg)            ─► SessionId        (backend from a pool)
//!   feed_chunk(id, input)        ─► FeedReport       (per-chunk outcome)
//!   checkpoint_session(id)       ─► CheckpointId     (saved derivative)
//!   rollback_session(id, cp)     ─► SessionStatus    (speculation undone)
//!   finish_session(id)           ─► FinishReport     (backend → pool)
//! ```
//!
//! Sessions ride the same infrastructure as batches: the backend is checked
//! out of a slot pool (fork of the cached compiled prototype, or an idle
//! epoch-reset session) and returned to a pool at finish, so a service
//! serving a mix of batch and live traffic shares one set of warm arenas.
//!
//! Concurrency: a live session is **single-caller**. While one call is
//! feeding a session, the session is temporarily out of the registry and
//! concurrent calls for the same id get [`ServeError::UnknownSession`]; the
//! registry lock itself is never held across engine work, so sessions never
//! serialize against each other.

use derp::api::{BackendMetrics, Checkpoint, FeedOutcome, ForestSummary, Session};
use pwd_grammar::Cfg;
use pwd_obs::{Phase, PhaseStats};
use std::time::Instant;

use crate::obs::ObsSamples;
use crate::service::{top_k_trees, Input, ParseService, ServeError};

/// Handle to a live session on a [`ParseService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session {}", self.0)
    }
}

/// Handle to a checkpoint of one live session (dense indices; a rollback
/// discards all later checkpoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CheckpointId(pub usize);

/// A live session's observable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStatus {
    /// Tokens fed so far.
    pub tokens_fed: usize,
    /// Can some continuation still be accepted?
    pub viable: bool,
    /// Is the prefix fed so far a complete sentence?
    pub prefix_is_sentence: bool,
    /// Checkpoints currently restorable.
    pub checkpoints: usize,
    /// Cumulative resource stats for the session.
    pub stats: SessionStats,
}

/// Cumulative per-session resource stats: how much input a session
/// consumed, how it used the incremental API, and how large the engine
/// state behind it grew. Tracked for every session (the counters are
/// cheap); the batch path surfaces the same shape per input via
/// [`ParseOutcome::stats`](crate::ParseOutcome::stats) when
/// [`ServiceConfig::observability`](crate::ServiceConfig::observability)
/// is set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Tokens fed over the session's lifetime (rollbacks reduce this — it
    /// tracks the session's current position, like
    /// [`SessionStatus::tokens_fed`]).
    pub tokens_fed: usize,
    /// Chunks successfully fed (a batch input counts as one chunk).
    pub chunks: u64,
    /// Checkpoints taken over the lifetime (rollback-discarded ones
    /// included).
    pub checkpoints_taken: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// Peak live engine state observed at a chunk or finish boundary
    /// (PWD: live graph nodes after the last token).
    pub peak_live_nodes: u64,
    /// Peak resident arena bytes observed at a chunk or finish boundary
    /// (zero for backends without an arena).
    pub peak_arena_bytes: u64,
    /// Edit splices applied ([`ParseService::splice_session`]).
    pub splices: u64,
    /// Tokens splices did **not** refeed (reused prefix plus
    /// convergence-skipped suffix), cumulative.
    pub tokens_reused: u64,
    /// Tokens splices refed through the engine, cumulative.
    pub tokens_refed: u64,
    /// Total distance between each splice's damage start and the
    /// checkpoint-ladder rung it restored, cumulative.
    pub ladder_rollback_distance: u64,
}

impl SessionStats {
    /// Stats for one batch input, read off the engine metrics after its
    /// run.
    pub(crate) fn for_input(tokens: usize, m: &BackendMetrics) -> SessionStats {
        let mut stats = SessionStats { tokens_fed: tokens, chunks: 1, ..SessionStats::default() };
        stats.note_peaks(m);
        stats
    }

    /// Folds an engine-metrics snapshot into the peak gauges.
    pub(crate) fn note_peaks(&mut self, m: &BackendMetrics) {
        self.peak_live_nodes = self.peak_live_nodes.max(m.live_state);
        self.peak_arena_bytes = self.peak_arena_bytes.max(m.arena_bytes);
    }
}

/// The result of feeding one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedReport {
    /// Outcome after the chunk's last token.
    pub outcome: FeedOutcome,
    /// Tokens fed so far (chunks accumulate).
    pub tokens_fed: usize,
}

/// The result of splicing an edit into a live session
/// ([`ParseService::splice_session`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpliceReport {
    /// Outcome after the splice (over the whole post-edit stream).
    pub outcome: FeedOutcome,
    /// Tokens fed after the splice (the post-edit stream length).
    pub tokens_fed: usize,
    /// Position of the checkpoint-ladder rung the engine restored —
    /// everything at or below it was reused outright.
    pub rung: usize,
    /// Tokens actually refed through the engine for this splice.
    pub refed: usize,
    /// Tokens *not* refed: the reused prefix plus any convergence-skipped
    /// suffix.
    pub reused: usize,
    /// Post-edit position where the engine state converged with the
    /// memoized pre-edit state and refeeding stopped early, if it did.
    pub converged_at: Option<usize>,
    /// Stored checkpoints still restorable after the splice (ones above
    /// the restored rung were discarded, as with a rollback).
    pub checkpoints: usize,
}

/// The result of finishing a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinishReport {
    /// Was the full fed input accepted?
    pub accepted: bool,
    /// Total tokens the session consumed.
    pub tokens_fed: usize,
    /// Cumulative session resource stats.
    pub stats: SessionStats,
}

/// The result of finishing a session with forest reporting
/// ([`ParseService::finish_session_forest`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishForestReport {
    /// Was the full fed input accepted (≥ 1 parse tree)?
    pub accepted: bool,
    /// Total tokens the session consumed.
    pub tokens_fed: usize,
    /// The shared-forest summary: exact count, depth, packed node count,
    /// canonical fingerprint.
    pub forest: ForestSummary,
    /// Up to `top_k` rendered parse trees.
    pub trees: Vec<String>,
    /// Cumulative session resource stats.
    pub stats: SessionStats,
}

/// A session held across calls: the owned backend session plus its saved
/// checkpoints, keyed into the service registry.
pub(crate) struct LiveSession {
    fingerprint: u64,
    session: Session<'static>,
    checkpoints: Vec<Checkpoint>,
    stats: SessionStats,
}

impl LiveSession {
    fn status(&mut self) -> Result<SessionStatus, ServeError> {
        self.stats.tokens_fed = self.session.tokens_fed();
        Ok(SessionStatus {
            tokens_fed: self.session.tokens_fed(),
            viable: self.session.is_viable(),
            prefix_is_sentence: self.session.prefix_is_sentence()?,
            checkpoints: self.checkpoints.len(),
            stats: self.stats,
        })
    }
}

impl ParseService {
    /// Opens a live incremental session for a grammar. The backend comes
    /// from the same compiled-grammar cache and session pools as batch
    /// traffic (compile at most once per service; warm opens are an epoch
    /// reset away).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownBackend`] for a misconfigured service,
    /// [`ServeError::Backend`] if the session cannot start.
    pub fn open_session(&self, cfg: &Cfg) -> Result<SessionId, ServeError> {
        let limit = self.config().max_live_sessions;
        // Reserve a slot atomically (compare-and-swap): concurrent opens
        // cannot race past the cap, and sessions checked out of the
        // registry by an in-flight call still count.
        if self
            .live_count
            .fetch_update(
                std::sync::atomic::Ordering::AcqRel,
                std::sync::atomic::Ordering::Acquire,
                |n| (n < limit).then_some(n + 1),
            )
            .is_err()
        {
            return Err(ServeError::SessionLimit { limit });
        }
        let opened = (|| {
            let (fingerprint, mut backend) = self.checkout_backend(cfg)?;
            if self.obs.enabled() {
                // Arm the engine's phase histograms for the session's whole
                // lifetime; they are absorbed (and the hooks disarmed) when
                // the backend returns to a pool.
                backend.set_obs(true);
            }
            let mut session = Session::owned(backend)?;
            // Live sessions are incremental by construction: edits can be
            // spliced in via `splice_session` with damage-region reuse, and
            // the per-feed bookkeeping is cheap next to chunked traffic.
            session.enable_incremental()?;
            Ok(LiveSession {
                fingerprint,
                session,
                checkpoints: Vec::new(),
                stats: SessionStats::default(),
            })
        })();
        let live = match opened {
            Ok(live) => live,
            Err(e) => {
                self.live_count.fetch_sub(1, std::sync::atomic::Ordering::AcqRel);
                return Err(e);
            }
        };
        let id = self.next_session.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.live.lock().expect("live registry poisoned").insert(id, live);
        Ok(SessionId(id))
    }

    /// Takes a session out of the registry for exclusive use.
    fn take(&self, id: SessionId) -> Result<LiveSession, ServeError> {
        self.live
            .lock()
            .expect("live registry poisoned")
            .remove(&id.0)
            .ok_or(ServeError::UnknownSession { id: id.0 })
    }

    /// Puts a session back after exclusive use.
    fn put(&self, id: SessionId, live: LiveSession) {
        self.live.lock().expect("live registry poisoned").insert(id.0, live);
    }

    /// Feeds one chunk of input to a live session and reports the outcome
    /// after its last token. Chunk boundaries are invisible to the parse —
    /// any chunking of an input yields the same final state as feeding it
    /// whole (the streaming/batch agreement property).
    ///
    /// Chunks are **atomic**: on a retryable error (an unknown terminal
    /// kind) the session is rolled back to where it was before the chunk,
    /// so no prefix of a failed chunk is consumed and a corrected resend
    /// starts from a known position. If the session cannot be restored —
    /// an engine resource limit tripped, leaving the arena full — it is
    /// **closed** (the backend is recycled, and later calls for the id get
    /// [`ServeError::UnknownSession`]) rather than left poisoned for the
    /// client to retry forever. A chunk whose token kills the language is
    /// not an error: the report says [`FeedOutcome::Dead`] and the session
    /// stays open (for status, rollback, or finish).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`], or [`ServeError::Backend`] from the
    /// engine.
    pub fn feed_chunk(&self, id: SessionId, chunk: &Input) -> Result<FeedReport, ServeError> {
        let t0 = self.obs.enabled().then(Instant::now);
        let mut live = self.take(id)?;
        let fed = (|| {
            // All-or-nothing: retract the partial prefix if any token fails.
            let undo = live.session.checkpoint().map_err(|e| (e, false))?;
            match chunk.feed(&mut live.session, 0..chunk.len()) {
                Ok(outcome) => Ok(outcome),
                Err(e) => match live.session.rollback(&undo) {
                    // Session intact, chunk fully retracted.
                    Ok(()) => Err((e, false)),
                    // Unrecoverable (e.g. node budget exhausted): close it.
                    Err(_) => Err((e, true)),
                },
            }
        })();
        match fed {
            Ok(outcome) => {
                live.stats.chunks += 1;
                live.stats.tokens_fed = live.session.tokens_fed();
                live.stats.note_peaks(&live.session.metrics());
                if let Some(t0) = t0 {
                    let ns = t0.elapsed().as_nanos() as u64;
                    let mut samples = ObsSamples::new();
                    samples.request_ns.push(ns);
                    // Chunk latency also lands in the phase family, so the
                    // exposition shows it next to the engine's own phases.
                    let mut phases = PhaseStats::new();
                    phases.record(Phase::Chunk, ns);
                    samples.phases = Some(phases);
                    self.obs.fold(&self.config().backend, live.fingerprint, samples);
                }
                let report = FeedReport { outcome, tokens_fed: live.session.tokens_fed() };
                self.put(id, live);
                Ok(report)
            }
            Err((e, close)) => {
                if close {
                    self.close(live);
                } else {
                    self.put(id, live);
                }
                Err(ServeError::Backend(e))
            }
        }
    }

    /// Permanently removes a session: recycles its backend (the pool reset
    /// clears even budget-exhausted arenas) and releases its cap slot.
    fn close(&self, live: LiveSession) {
        let (_verdict, backend) = live.session.finish_and_release();
        if let Some(mut backend) = backend {
            let m = backend.metrics();
            self.absorb_memo(&m);
            self.fold_session_obs(live.fingerprint, &m, None);
            backend.set_obs(false);
            self.release_backend(live.fingerprint, backend);
        }
        self.live_count.fetch_sub(1, std::sync::atomic::Ordering::AcqRel);
    }

    /// Folds a closing live session's accumulated engine phase histograms —
    /// plus the finish-call latency, when timed — into the observability
    /// store. A no-op with observability off.
    fn fold_session_obs(&self, fingerprint: u64, m: &BackendMetrics, t0: Option<Instant>) {
        if !self.obs.enabled() {
            return;
        }
        let mut samples = ObsSamples::new();
        if let Some(t0) = t0 {
            samples.request_ns.push(t0.elapsed().as_nanos() as u64);
        }
        if let Some(p) = &m.phases {
            samples.absorb_phases(p);
        }
        self.obs.fold(&self.config().backend, fingerprint, samples);
    }

    /// Saves the session's current position — for the PWD backend, the
    /// derivative `D_{t1…tk}(L)` itself (one node id; nothing is copied).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`], or [`ServeError::Backend`].
    pub fn checkpoint_session(&self, id: SessionId) -> Result<CheckpointId, ServeError> {
        let mut live = self.take(id)?;
        let cp = live.session.checkpoint();
        let out = cp.map(|cp| {
            live.checkpoints.push(cp);
            live.stats.checkpoints_taken += 1;
            CheckpointId(live.checkpoints.len() - 1)
        });
        self.put(id, live);
        Ok(out?)
    }

    /// Rolls a live session back to a saved checkpoint, undoing every token
    /// fed since (the speculative-prefix retraction path). Checkpoints
    /// taken *after* the restored one are discarded — their positions no
    /// longer exist.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`], [`ServeError::UnknownCheckpoint`],
    /// or [`ServeError::Backend`].
    pub fn rollback_session(
        &self,
        id: SessionId,
        cp: CheckpointId,
    ) -> Result<SessionStatus, ServeError> {
        let mut live = self.take(id)?;
        let out = (|| {
            let saved = live
                .checkpoints
                .get(cp.0)
                .ok_or(ServeError::UnknownCheckpoint { session: id.0, checkpoint: cp.0 })?;
            live.session.rollback(saved)?;
            live.checkpoints.truncate(cp.0 + 1);
            live.stats.rollbacks += 1;
            live.status()
        })();
        self.put(id, live);
        out
    }

    /// Splices an edit into a live session's already-fed token stream:
    /// replaces `remove` tokens starting at position `at` with `insert`,
    /// re-deriving only what the damage invalidates. The engine rolls back
    /// to the nearest checkpoint-ladder rung at or below `at` and refeeds
    /// from there; in PWD recognize mode the refeed additionally stops
    /// early once the post-edit derivative state converges with the
    /// memoized pre-edit state. Compared to rollback-and-refeed by hand,
    /// the caller sends only the edit, not the suffix.
    ///
    /// Stored checkpoints follow the same timeline semantics as
    /// [`rollback_session`](ParseService::rollback_session): checkpoints at
    /// positions above the restored rung are discarded — those positions
    /// were re-derived and no longer exist on the session's timeline.
    ///
    /// An out-of-range edit (`at + remove` beyond the fed stream), or one
    /// inserting a kind outside the grammar, fails with the session
    /// untouched. A mid-refeed engine error **closes**
    /// the session: the edit would otherwise be half-applied, leaving a
    /// stream the client cannot reconstruct.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`], or [`ServeError::Backend`] from the
    /// engine.
    pub fn splice_session(
        &self,
        id: SessionId,
        at: usize,
        remove: usize,
        insert: &Input,
    ) -> Result<SpliceReport, ServeError> {
        let t0 = self.obs.enabled().then(Instant::now);
        let mut live = self.take(id)?;
        // The engine validates the range and the inserted kinds before
        // touching anything; compute the range predicate here so the error
        // path knows whether the session is still pristine (put back) or
        // mid-splice (close).
        let in_range = at.checked_add(remove).is_some_and(|end| end <= live.session.tokens_fed());
        let spliced = match insert {
            Input::Kinds(kinds) => {
                let pairs: Vec<(&str, &str)> =
                    kinds.iter().map(|k| (k.as_str(), k.as_str())).collect();
                live.session.splice_tokens(at, remove, &pairs)
            }
            Input::Lexemes(lexemes) => live.session.splice_lexemes(at, remove, lexemes),
        };
        match spliced {
            Ok(out) => {
                // Checkpoints are position-sorted (each new one is at or
                // beyond the last), so "above the rung" is a suffix.
                let keep = live.checkpoints.partition_point(|c| c.tokens_fed() <= out.rung);
                live.checkpoints.truncate(keep);
                live.stats.splices += 1;
                live.stats.tokens_fed = live.session.tokens_fed();
                let m = live.session.metrics();
                live.stats.tokens_reused = m.tokens_reused;
                live.stats.tokens_refed = m.tokens_refed;
                live.stats.ladder_rollback_distance = m.ladder_rollback_distance;
                live.stats.note_peaks(&m);
                self.splices.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.splice_tokens_reused
                    .fetch_add(out.reused as u64, std::sync::atomic::Ordering::Relaxed);
                self.splice_tokens_refed
                    .fetch_add(out.refed as u64, std::sync::atomic::Ordering::Relaxed);
                self.splice_ladder_distance
                    .fetch_add((at - out.rung) as u64, std::sync::atomic::Ordering::Relaxed);
                if let Some(t0) = t0 {
                    let ns = t0.elapsed().as_nanos() as u64;
                    let mut samples = ObsSamples::new();
                    samples.request_ns.push(ns);
                    // Splice latency lands in the chunk phase family: it is
                    // the incremental analogue of feeding a chunk.
                    let mut phases = PhaseStats::new();
                    phases.record(Phase::Chunk, ns);
                    samples.phases = Some(phases);
                    self.obs.fold(&self.config().backend, live.fingerprint, samples);
                }
                let report = SpliceReport {
                    outcome: out.outcome,
                    tokens_fed: live.session.tokens_fed(),
                    rung: out.rung,
                    refed: out.refed,
                    reused: out.reused,
                    converged_at: out.converged_at,
                    checkpoints: live.checkpoints.len(),
                };
                self.put(id, live);
                Ok(report)
            }
            Err(e) => {
                if in_range && !e.is_unknown_kind() {
                    self.close(live);
                } else {
                    self.put(id, live);
                }
                Err(ServeError::Backend(e))
            }
        }
    }

    /// The session's current status (tokens fed, viability, sentence-hood,
    /// live checkpoints).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`], or [`ServeError::Backend`].
    pub fn session_status(&self, id: SessionId) -> Result<SessionStatus, ServeError> {
        let mut live = self.take(id)?;
        let out = live.status();
        self.put(id, live);
        out
    }

    /// Finishes a live session: reports the verdict over everything fed and
    /// returns the backend to a session pool, where the next open (or batch
    /// worker) reuses its warm arena via the epoch reset.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`], or [`ServeError::Backend`] (the
    /// backend is still recycled).
    pub fn finish_session(&self, id: SessionId) -> Result<FinishReport, ServeError> {
        let t0 = self.obs.enabled().then(Instant::now);
        let live = self.take(id)?;
        let tokens_fed = live.session.tokens_fed();
        let mut stats = live.stats;
        stats.tokens_fed = tokens_fed;
        let (verdict, backend) = live.session.finish_and_release();
        if let Some(mut backend) = backend {
            // Fold the session's engine counters into the lifetime memo
            // totals before reset wipes them.
            let m = backend.metrics();
            self.absorb_memo(&m);
            stats.note_peaks(&m);
            self.fold_session_obs(live.fingerprint, &m, t0);
            backend.set_obs(false);
            self.release_backend(live.fingerprint, backend);
        }
        self.live_count.fetch_sub(1, std::sync::atomic::Ordering::AcqRel);
        self.count_input();
        Ok(FinishReport { accepted: verdict?, tokens_fed, stats })
    }

    /// Finishes a live session with a **parse result**, not just a verdict:
    /// the canonical shared forest of everything fed is extracted and
    /// summarized (exact ambiguity count, depth, packed size, fingerprint)
    /// along with up to `top_k` rendered parse trees, and the backend
    /// returns to a session pool. This is what lets a parse client receive
    /// real ambiguity information — "this program has 42 readings, here are
    /// the first three" — from one streaming session.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`], or [`ServeError::Backend`] (the
    /// backend is still recycled).
    pub fn finish_session_forest(
        &self,
        id: SessionId,
        top_k: usize,
    ) -> Result<FinishForestReport, ServeError> {
        let t0 = self.obs.enabled().then(Instant::now);
        let live = self.take(id)?;
        let tokens_fed = live.session.tokens_fed();
        let mut stats = live.stats;
        stats.tokens_fed = tokens_fed;
        let (forest, backend) = live.session.finish_forest_and_release();
        if let Some(mut backend) = backend {
            let m = backend.metrics();
            self.absorb_memo(&m);
            stats.note_peaks(&m);
            self.fold_session_obs(live.fingerprint, &m, t0);
            backend.set_obs(false);
            self.release_backend(live.fingerprint, backend);
        }
        self.live_count.fetch_sub(1, std::sync::atomic::Ordering::AcqRel);
        self.count_input();
        let forest = forest?;
        let summary = forest.summary();
        let trees = top_k_trees(&forest, top_k);
        Ok(FinishForestReport {
            accepted: !summary.count.is_zero(),
            tokens_fed,
            forest: summary,
            trees,
            stats,
        })
    }

    /// Abandons a live session without a verdict: everything fed is
    /// discarded and the backend is recycled into a pool. The escape hatch
    /// for disconnected clients — without it, abandoned opens would pin
    /// pooled backends forever.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`].
    pub fn abort_session(&self, id: SessionId) -> Result<(), ServeError> {
        let live = self.take(id)?;
        self.close(live);
        Ok(())
    }

    /// Number of live sessions currently open, including any momentarily
    /// checked out by a call in flight.
    pub fn live_sessions(&self) -> usize {
        self.live_count.load(std::sync::atomic::Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use pwd_grammar::CfgBuilder;
    use pwd_lex::Lexeme;

    fn pairs() -> Cfg {
        let mut g = CfgBuilder::new("S");
        g.terminals(&["a", "b"]);
        g.rule("S", &["a", "S", "b"]);
        g.rule("S", &["a", "b"]);
        g.build().unwrap()
    }

    fn service() -> ParseService {
        ParseService::new(ServiceConfig { workers: 2, ..Default::default() })
    }

    #[test]
    fn chunked_live_session_end_to_end() {
        let service = service();
        let cfg = pairs();
        let id = service.open_session(&cfg).unwrap();
        assert_eq!(service.live_sessions(), 1);

        let r = service.feed_chunk(id, &Input::from_kinds(&["a", "a"])).unwrap();
        assert_eq!(r.tokens_fed, 2);
        assert_eq!(r.outcome, FeedOutcome::Viable { prefix_is_sentence: false });
        let r = service.feed_chunk(id, &Input::from_kinds(&["b"])).unwrap();
        assert_eq!(r.outcome, FeedOutcome::Viable { prefix_is_sentence: false });
        let r = service.feed_chunk(id, &Input::from_kinds(&["b"])).unwrap();
        assert_eq!(r.outcome, FeedOutcome::Viable { prefix_is_sentence: true });

        let fin = service.finish_session(id).unwrap();
        assert!(fin.accepted);
        assert_eq!(fin.tokens_fed, 4);
        assert_eq!(service.live_sessions(), 0);
        assert!(matches!(service.session_status(id), Err(ServeError::UnknownSession { .. })));
    }

    #[test]
    fn checkpoint_rollback_retracts_speculation() {
        let service = service();
        let cfg = pairs();
        let id = service.open_session(&cfg).unwrap();
        service.feed_chunk(id, &Input::from_kinds(&["a", "a"])).unwrap();
        let cp = service.checkpoint_session(id).unwrap();

        // Speculate into a dead end…
        let r = service.feed_chunk(id, &Input::from_kinds(&["b", "b", "b"])).unwrap();
        assert_eq!(r.outcome, FeedOutcome::Dead);
        let status = service.session_status(id).unwrap();
        assert!(!status.viable);

        // …retract, and resume down the real input.
        let status = service.rollback_session(id, cp).unwrap();
        assert!(status.viable);
        assert_eq!(status.tokens_fed, 2);
        service.feed_chunk(id, &Input::from_kinds(&["b", "b"])).unwrap();
        let fin = service.finish_session(id).unwrap();
        assert!(fin.accepted, "aabb after rollback");
    }

    #[test]
    fn rollback_discards_later_checkpoints() {
        let service = service();
        let cfg = pairs();
        let id = service.open_session(&cfg).unwrap();
        service.feed_chunk(id, &Input::from_kinds(&["a"])).unwrap();
        let cp1 = service.checkpoint_session(id).unwrap();
        service.feed_chunk(id, &Input::from_kinds(&["a"])).unwrap();
        let cp2 = service.checkpoint_session(id).unwrap();
        let status = service.rollback_session(id, cp1).unwrap();
        assert_eq!(status.checkpoints, 1, "cp2 must die with the rollback");
        assert!(matches!(
            service.rollback_session(id, cp2),
            Err(ServeError::UnknownCheckpoint { .. })
        ));
        service.finish_session(id).unwrap();
    }

    #[test]
    fn lexeme_chunks_reach_the_engine_with_text() {
        let mut g = CfgBuilder::new("S");
        g.terminal("ID");
        g.rule("S", &["ID", "S"]);
        g.rule("S", &["ID"]);
        let cfg = g.build().unwrap();
        let service = service();
        let id = service.open_session(&cfg).unwrap();
        let lex = |texts: &[&str], base: usize| {
            Input::from_lexemes(
                texts
                    .iter()
                    .enumerate()
                    .map(|(i, t)| Lexeme { kind: "ID".into(), text: (*t).into(), offset: base + i })
                    .collect(),
            )
        };
        service.feed_chunk(id, &lex(&["x", "y"], 0)).unwrap();
        service.feed_chunk(id, &lex(&["z"], 2)).unwrap();
        let fin = service.finish_session(id).unwrap();
        assert!(fin.accepted);
        assert_eq!(fin.tokens_fed, 3);
    }

    #[test]
    fn live_sessions_finish_with_forests() {
        let service = service();
        let mut g = CfgBuilder::new("S");
        g.terminal("a");
        g.rule("S", &["S", "S"]);
        g.rule("S", &["a"]);
        let cfg = g.build().unwrap();
        let id = service.open_session(&cfg).unwrap();
        service.feed_chunk(id, &Input::from_kinds(&["a", "a", "a"])).unwrap();
        service.feed_chunk(id, &Input::from_kinds(&["a", "a"])).unwrap();
        let report = service.finish_session_forest(id, 2).unwrap();
        assert!(report.accepted);
        assert_eq!(report.tokens_fed, 5);
        assert_eq!(report.forest.count, derp::api::ParseCount::Finite(14), "C4 = 14");
        assert_eq!(report.trees.len(), 2);
        assert_eq!(service.live_sessions(), 0);
        // The backend was recycled like a plain finish.
        let id = service.open_session(&cfg).unwrap();
        service.feed_chunk(id, &Input::from_kinds(&["a"])).unwrap();
        let report = service.finish_session_forest(id, 0).unwrap();
        assert_eq!(report.forest.count, derp::api::ParseCount::Finite(1));
        assert!(report.trees.is_empty());
        assert_eq!(service.metrics().sessions.forked, 1, "second open reused the pool");
    }

    #[test]
    fn rejected_live_sessions_report_empty_forests() {
        let service = service();
        let cfg = pairs();
        let id = service.open_session(&cfg).unwrap();
        service.feed_chunk(id, &Input::from_kinds(&["a"])).unwrap();
        let report = service.finish_session_forest(id, 4).unwrap();
        assert!(!report.accepted);
        assert_eq!(report.forest.count, derp::api::ParseCount::Finite(0));
        assert!(report.trees.is_empty());
    }

    #[test]
    fn finished_sessions_return_their_backend_to_a_pool() {
        let service = service();
        let cfg = pairs();
        // Open/finish twice: the second open must reuse the first session's
        // backend (pool reuse), not fork a fresh one.
        let id = service.open_session(&cfg).unwrap();
        service.feed_chunk(id, &Input::from_kinds(&["a", "b"])).unwrap();
        assert!(service.finish_session(id).unwrap().accepted);
        let id = service.open_session(&cfg).unwrap();
        assert!(service.finish_session(id).unwrap().tokens_fed == 0);
        let m = service.metrics();
        assert_eq!(m.sessions.forked, 1, "{:?}", m.sessions);
        assert!(m.sessions.reused >= 1, "{:?}", m.sessions);
        assert_eq!(m.inputs, 2);
    }

    #[test]
    fn per_chunk_errors_keep_the_session_alive() {
        let service = service();
        let cfg = pairs();
        let id = service.open_session(&cfg).unwrap();
        service.feed_chunk(id, &Input::from_kinds(&["a"])).unwrap();
        let err = service.feed_chunk(id, &Input::from_kinds(&["NOPE"])).unwrap_err();
        assert!(matches!(err, ServeError::Backend(_)), "{err}");
        // The session survived the bad chunk; the good prefix is intact.
        let status = service.session_status(id).unwrap();
        assert_eq!(status.tokens_fed, 1);
        service.feed_chunk(id, &Input::from_kinds(&["b"])).unwrap();
        assert!(service.finish_session(id).unwrap().accepted);
    }

    #[test]
    fn failed_chunks_are_atomic() {
        // A chunk that errors mid-way must consume none of its tokens, so a
        // corrected resend does not double-feed the good prefix.
        let service = service();
        let cfg = pairs();
        let id = service.open_session(&cfg).unwrap();
        service.feed_chunk(id, &Input::from_kinds(&["a"])).unwrap();
        let err = service.feed_chunk(id, &Input::from_kinds(&["a", "NOPE", "b"])).unwrap_err();
        assert!(matches!(err, ServeError::Backend(_)), "{err}");
        assert_eq!(service.session_status(id).unwrap().tokens_fed, 1, "chunk rolled back whole");
        // Resend the corrected chunk: exactly one extra "a" lands.
        service.feed_chunk(id, &Input::from_kinds(&["a", "b", "b"])).unwrap();
        let fin = service.finish_session(id).unwrap();
        assert!(fin.accepted, "aabb");
        assert_eq!(fin.tokens_fed, 4);
    }

    #[test]
    fn abort_discards_the_session_and_recycles_the_backend() {
        let service = service();
        let cfg = pairs();
        let id = service.open_session(&cfg).unwrap();
        service.feed_chunk(id, &Input::from_kinds(&["a", "a"])).unwrap();
        service.abort_session(id).unwrap();
        assert_eq!(service.live_sessions(), 0);
        assert!(matches!(service.abort_session(id), Err(ServeError::UnknownSession { .. })));
        // The aborted session's backend is back in a pool: the next open
        // reuses it instead of forking.
        let id = service.open_session(&cfg).unwrap();
        service.finish_session(id).unwrap();
        assert_eq!(service.metrics().sessions.forked, 1);
    }

    #[test]
    fn session_limit_bounds_the_registry() {
        let service = ParseService::new(ServiceConfig {
            workers: 1,
            max_live_sessions: 2,
            ..Default::default()
        });
        let cfg = pairs();
        let a = service.open_session(&cfg).unwrap();
        let _b = service.open_session(&cfg).unwrap();
        assert!(matches!(service.open_session(&cfg), Err(ServeError::SessionLimit { limit: 2 })));
        // Finishing one frees a slot.
        service.finish_session(a).unwrap();
        assert!(service.open_session(&cfg).is_ok());
    }

    #[test]
    fn live_sessions_contribute_to_lifetime_memo_metrics() {
        let service = service();
        let mut g = CfgBuilder::new("S");
        g.terminal("x");
        g.rule("S", &["x", "S"]);
        g.rule("S", &["x"]);
        let cfg = g.build().unwrap();
        let id = service.open_session(&cfg).unwrap();
        service.feed_chunk(id, &Input::from_kinds(&["x"; 12])).unwrap();
        assert!(service.finish_session(id).unwrap().accepted);
        let memo = service.metrics().memo;
        assert!(
            memo.memo_hits + memo.memo_misses > 0,
            "live traffic must show up in lifetime memo totals: {memo:?}"
        );
    }

    #[test]
    fn dfa_live_sessions_fold_table_hits_into_lifetime_totals() {
        let service = ParseService::new(ServiceConfig {
            workers: 1,
            backend: "pwd-dfa".to_string(),
            ..Default::default()
        });
        let cfg = pairs();
        let id = service.open_session(&cfg).unwrap();
        service.feed_chunk(id, &Input::from_kinds(&["a", "a", "b", "b"])).unwrap();
        assert!(service.finish_session(id).unwrap().accepted);
        let cold = service.metrics().memo;
        assert!(cold.auto_rows_built > 0, "cold session interns states: {cold:?}");
        // A second identical session reuses the pooled backend, whose
        // compiled transition rows survive the epoch reset: all table hits,
        // zero new rows.
        let id = service.open_session(&cfg).unwrap();
        service.feed_chunk(id, &Input::from_kinds(&["a", "a", "b", "b"])).unwrap();
        assert!(service.finish_session(id).unwrap().accepted);
        let warm = service.metrics().memo;
        assert_eq!(warm.auto_rows_built, cold.auto_rows_built, "warm session builds no rows");
        assert!(warm.auto_table_hits > cold.auto_table_hits, "warm session walks the table");
        assert!(warm.table_hit_ratio().unwrap() > 0.0, "{warm:?}");
    }

    #[test]
    fn session_stats_track_chunks_checkpoints_and_rollbacks() {
        let service = ParseService::new(ServiceConfig {
            workers: 2,
            observability: true,
            ..Default::default()
        });
        let cfg = pairs();
        let id = service.open_session(&cfg).unwrap();
        service.feed_chunk(id, &Input::from_kinds(&["a", "a"])).unwrap();
        let cp = service.checkpoint_session(id).unwrap();
        service.feed_chunk(id, &Input::from_kinds(&["b"])).unwrap();
        service.rollback_session(id, cp).unwrap();
        service.feed_chunk(id, &Input::from_kinds(&["b", "b"])).unwrap();
        let status = service.session_status(id).unwrap();
        assert_eq!(status.stats.chunks, 3);
        assert_eq!(status.stats.checkpoints_taken, 1);
        assert_eq!(status.stats.rollbacks, 1);
        assert!(status.stats.peak_live_nodes > 0, "{:?}", status.stats);
        let fin = service.finish_session(id).unwrap();
        assert!(fin.accepted);
        assert_eq!(fin.stats.tokens_fed, 4);
        assert_eq!(fin.stats.chunks, 3);
        assert!(fin.stats.peak_arena_bytes > 0, "{:?}", fin.stats);
        // Live traffic shows up in the exposition: chunk latency rides the
        // phase family, finish latency the request histogram.
        let text = service.metrics_text();
        assert!(text.contains("phase=\"chunk\""), "{text}");
        assert!(text.contains("pwd_serve_request_duration_ns_count"), "{text}");
    }

    #[test]
    fn live_and_batch_traffic_share_the_service() {
        let service = service();
        let cfg = pairs();
        let id = service.open_session(&cfg).unwrap();
        service.feed_chunk(id, &Input::from_kinds(&["a"])).unwrap();
        // A batch lands while the session is live.
        let report = service
            .submit_batch(&cfg, &[Input::from_kinds(&["a", "b"]), Input::from_kinds(&["a"])])
            .unwrap();
        assert!(report.outcomes[0].as_ref().unwrap().accepted);
        assert!(!report.outcomes[1].as_ref().unwrap().accepted);
        // The live session is unaffected.
        service.feed_chunk(id, &Input::from_kinds(&["b"])).unwrap();
        assert!(service.finish_session(id).unwrap().accepted);
    }

    #[test]
    fn every_roster_backend_serves_live_sessions() {
        let cfg = pairs();
        for &name in derp::api::BACKEND_NAMES {
            let service = ParseService::new(ServiceConfig {
                workers: 2,
                backend: name.to_string(),
                ..Default::default()
            });
            let id = service.open_session(&cfg).unwrap();
            service.feed_chunk(id, &Input::from_kinds(&["a", "a"])).unwrap();
            let cp = service.checkpoint_session(id).unwrap();
            service.feed_chunk(id, &Input::from_kinds(&["a"])).unwrap();
            service.rollback_session(id, cp).unwrap();
            service.feed_chunk(id, &Input::from_kinds(&["b", "b"])).unwrap();
            assert!(service.finish_session(id).unwrap().accepted, "{name}");
        }
    }

    #[test]
    fn splice_edits_a_live_session_in_place() {
        let service = service();
        let cfg = pairs();
        let id = service.open_session(&cfg).unwrap();
        // aabb is a sentence; splice the middle to grow it to aaabbb.
        service.feed_chunk(id, &Input::from_kinds(&["a", "a", "b", "b"])).unwrap();
        let r = service.splice_session(id, 2, 0, &Input::from_kinds(&["a", "b"])).unwrap();
        assert_eq!(r.tokens_fed, 6);
        assert_eq!(r.outcome, FeedOutcome::Viable { prefix_is_sentence: true });
        assert!(r.refed <= 6 - r.rung, "{r:?}");
        assert_eq!(r.reused + r.refed, 6, "{r:?}");
        let status = service.session_status(id).unwrap();
        assert_eq!(status.stats.splices, 1);
        assert_eq!(status.stats.tokens_reused + status.stats.tokens_refed, 6);
        let fin = service.finish_session(id).unwrap();
        assert!(fin.accepted, "aaabbb after splice");
        assert_eq!(fin.tokens_fed, 6);
    }

    #[test]
    fn splice_deletes_and_replaces_tokens() {
        let service = service();
        let cfg = pairs();
        let id = service.open_session(&cfg).unwrap();
        service.feed_chunk(id, &Input::from_kinds(&["a", "a", "a", "b", "b", "b"])).unwrap();
        // Delete one nesting level: aaabbb -> aabb.
        let r = service.splice_session(id, 2, 2, &Input::from_kinds(&[])).unwrap();
        assert_eq!(r.tokens_fed, 4);
        assert_eq!(r.outcome, FeedOutcome::Viable { prefix_is_sentence: true });
        assert!(service.finish_session(id).unwrap().accepted, "aabb after deletion");
    }

    #[test]
    fn splice_discards_checkpoints_above_the_restored_rung() {
        let service = service();
        let cfg = pairs();
        let id = service.open_session(&cfg).unwrap();
        let cp0 = service.checkpoint_session(id).unwrap();
        service.feed_chunk(id, &Input::from_kinds(&["a", "a"])).unwrap();
        let cp2 = service.checkpoint_session(id).unwrap();
        service.feed_chunk(id, &Input::from_kinds(&["b", "b"])).unwrap();
        let cp4 = service.checkpoint_session(id).unwrap();

        // Damage starts at 3: the engine restores a rung at or below 3, so
        // cp4 dies; cp0 (position 0, always at or below any rung) survives.
        let r = service.splice_session(id, 3, 1, &Input::from_kinds(&["b"])).unwrap();
        assert!(r.rung <= 3, "{r:?}");
        assert!(r.checkpoints <= 2, "cp4 must die with the splice: {r:?}");
        assert!(matches!(
            service.rollback_session(id, cp4),
            Err(ServeError::UnknownCheckpoint { .. })
        ));
        let status = service.rollback_session(id, cp0).unwrap();
        assert_eq!(status.tokens_fed, 0);
        let _ = cp2; // validity depends on the rung position; not asserted
        service.abort_session(id).unwrap();
    }

    #[test]
    fn out_of_range_splice_leaves_the_session_untouched() {
        let service = service();
        let cfg = pairs();
        let id = service.open_session(&cfg).unwrap();
        service.feed_chunk(id, &Input::from_kinds(&["a", "a"])).unwrap();
        let err = service.splice_session(id, 1, 5, &Input::from_kinds(&["b"]));
        assert!(matches!(err, Err(ServeError::Backend(_))), "{err:?}");
        // Still open and still at position 2.
        let status = service.session_status(id).unwrap();
        assert_eq!(status.tokens_fed, 2);
        assert_eq!(status.stats.splices, 0);
        service.feed_chunk(id, &Input::from_kinds(&["b", "b"])).unwrap();
        assert!(service.finish_session(id).unwrap().accepted);
    }

    #[test]
    fn a_splice_inserting_an_unknown_kind_leaves_the_session_untouched() {
        let service = service();
        let cfg = pairs();
        let id = service.open_session(&cfg).unwrap();
        service.feed_chunk(id, &Input::from_kinds(&["a", "a"])).unwrap();
        let lexemes = vec![Lexeme { kind: "NOPE".into(), text: "x".into(), offset: 1 }];
        for insert in [Input::from_kinds(&["b", "NOPE"]), Input::from_lexemes(lexemes)] {
            match service.splice_session(id, 1, 1, &insert) {
                Err(ServeError::Backend(e)) => assert!(e.is_unknown_kind(), "{e}"),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(service.session_status(id).unwrap().tokens_fed, 2);
        service.feed_chunk(id, &Input::from_kinds(&["b", "b"])).unwrap();
        assert!(service.finish_session(id).unwrap().accepted);
    }

    #[test]
    fn every_roster_backend_splices_live_sessions() {
        let cfg = pairs();
        for &name in derp::api::BACKEND_NAMES {
            let service = ParseService::new(ServiceConfig {
                workers: 2,
                backend: name.to_string(),
                ..Default::default()
            });
            let id = service.open_session(&cfg).unwrap();
            service.feed_chunk(id, &Input::from_kinds(&["a", "b"])).unwrap();
            let r = service.splice_session(id, 1, 0, &Input::from_kinds(&["a", "b"])).unwrap();
            assert_eq!(r.tokens_fed, 4, "{name}");
            assert!(service.finish_session(id).unwrap().accepted, "aabb via splice on {name}");
        }
    }

    #[test]
    fn splice_counters_reach_the_metrics_exposition() {
        let service = service();
        let cfg = pairs();
        let id = service.open_session(&cfg).unwrap();
        service.feed_chunk(id, &Input::from_kinds(&["a", "a", "b", "b"])).unwrap();
        service.splice_session(id, 2, 0, &Input::from_kinds(&["a", "b"])).unwrap();
        service.finish_session(id).unwrap();
        let m = service.metrics();
        assert_eq!(m.splices, 1);
        assert_eq!(m.splice_tokens_reused + m.splice_tokens_refed, 6, "{m:?}");
        let text = service.metrics_text();
        assert!(text.contains("pwd_serve_splices_total"), "{text}");
        assert!(text.contains("pwd_serve_splice_tokens_reused_total"), "{text}");
        assert!(text.contains("pwd_serve_splice_tokens_refed_total"), "{text}");
        assert!(text.contains("pwd_serve_splice_ladder_distance_total"), "{text}");
    }
}
