//! Bounded-budget error recovery and structured diagnostics over the
//! unified [`Parser`] interface.
//!
//! Classic derivative parsing (and both baselines) answer a malformed
//! input with a single bit: the session goes dead. This module upgrades
//! that to the behavior users of real compilers expect — the parse
//! continues past the error, a spanned [`Diagnostic`] explains what was
//! wrong and what the parser did about it, and the caller still gets a
//! forest for the repaired input.
//!
//! # How recovery works
//!
//! Recovery is **derivative-based repair**: the session state after `k`
//! tokens is itself a language (`D_{t1…tk}(L)`), so "which repairs are
//! viable here?" is just "which candidate tokens have a non-empty
//! derivative from the current state?". When a feed dies, the driver
//! rolls back to the pre-feed checkpoint (a pointer restore) and probes
//! the candidate terminals reported by
//! [`Recognizer::expected_terminals`](crate::api::Recognizer::expected_terminals),
//! fed by terminal index (their names appear only in diagnostics):
//!
//! * the PWD backend answers by trial-deriving a cloned session state
//!   w.r.t. every grammar terminal — reusing warm automaton rows and memo
//!   entries, and counting each probe in
//!   [`Metrics::recovery_probes`](crate::core::Metrics);
//! * the Earley backend reads the exact one-step expected set off its
//!   chart frontier (re-seeding the chart is then just feeding the
//!   repaired token);
//! * the GLR backend reports the terminals its GSS frontier can shift,
//!   pre-filtered by trial shifts on the raw session.
//!
//! Three repair shapes are scored per failure point:
//!
//! * **Substitute** the offending token with an expected one (the input
//!   had the right shape, wrong token);
//! * **Insert** an expected token before it (the input was missing one) —
//!   only viable when the offending token parses *after* the insertion;
//! * **Skip** the offending token (the input had an extra one). Skipping
//!   is always viable, so a run of skips is exactly classic panic-mode
//!   recovery: discard input until a synchronizing terminal parses again.
//!
//! Candidates are ranked by how many real input tokens (the offending one
//! plus up to [`RecoveryBudget::lookahead`] of lookahead) the repaired
//! state consumes viably, then by cost, then by a fixed kind order
//! (insert, substitute, skip — insertion keeps the real token in the
//! stream, so at a tie it is the likelier-correct account of the
//! damage), then by candidate name — fully deterministic.
//!
//! # The cost model
//!
//! Every applied repair charges its kind's cost
//! ([`RecoveryBudget::skip_cost`] / [`insert_cost`](RecoveryBudget::insert_cost)
//! / [`substitute_cost`](RecoveryBudget::substitute_cost)) against
//! [`RecoveryBudget::max_cost`], and the repair count is capped by
//! [`RecoveryBudget::max_repairs`]. Skips are deliberately the most
//! expensive: insertion and substitution keep the stream aligned, while
//! panic-mode skipping loses input and should only win when nothing
//! cheaper survives lookahead.
//!
//! Two density guards keep a locally-plausible repair from eating the
//! whole input: a per-kind anti-cascade cap (the same token kind may win
//! insert/substitute at most twice per 8-token window — a third win means
//! the repair is feeding on itself, as a substituted `(` does via
//! argument-list commas) and a flail detector (3 charged repairs inside a
//! 10-token window trips exhaustion early — dense repairs mean the engine
//! is patching noise, not errors).
//!
//! When a limit trips, recovery emits one [`Severity::Note`] diagnostic
//! and switches to **salvage mode**: each remaining token is fed if it
//! still fits and silently dropped otherwise, with contiguous dropped
//! regions coalesced into a single uncharged diagnostic. The parseable
//! suffix of a budget-starved input still reaches the forest, so a
//! starved parse is never worse than no recovery at all — and the
//! end-of-input completion search still runs, so a salvaged prefix is
//! still closed into a sentence when ≤ 3 insertions suffice.
//!
//! At end of input, an incomplete-but-viable prefix is completed by a
//! bounded depth-first search over insertions (≤ 3 tokens deep, within
//! the same budget) — the "unexpected end of input, inserted `)` `;`"
//! family of repairs.
//!
//! Engine resource errors ([`PwdError::NodeBudgetExceeded`] and friends)
//! are **never** recovered: they mean the arena is full, not that the
//! input is wrong, and they propagate as errors.
//!
//! [`PwdError::NodeBudgetExceeded`]: crate::core::PwdError
//!
//! # Examples
//!
//! ```
//! use derp::api::{PwdBackend, Session};
//! use derp::core::RecoveryBudget;
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
//! session.enable_recovery(RecoveryBudget::default());
//! // "a a b" is missing its closing "b" — recovery inserts it.
//! session.feed_all(&["a", "a", "b"])?;
//! let (accepted, diagnostics) = session.finish_with_diagnostics()?;
//! assert!(accepted, "repaired to a sentence");
//! assert_eq!(diagnostics.len(), 1);
//! assert!(diagnostics[0].message.contains("inserted"));
//! # Ok(())
//! # }
//! ```

use crate::api::{BackendError, Checkpoint, Parser, ScannedToken};
use crate::lex::{Position, SourceMap, Span};
use std::borrow::Cow;
use std::fmt;

pub use pwd_core::RecoveryBudget;

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The input was wrong and a repair (or a dead parse) resulted.
    Error,
    /// The input was suspicious but the parse proceeded unmodified.
    Warning,
    /// Bookkeeping the caller should see (e.g. the recovery budget ran
    /// out and remaining errors went unrepaired).
    Note,
}

impl Severity {
    /// The rustc-style label (`"error"` / `"warning"` / `"note"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The shape of one applied repair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairKind {
    /// The offending input token was discarded (panic-mode step).
    Skip,
    /// The named token kind was synthesized before the offending token.
    Insert(String),
    /// The offending token was re-read as the named kind.
    Substitute(String),
}

impl fmt::Display for RepairKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairKind::Skip => write!(f, "skip"),
            RepairKind::Insert(k) => write!(f, "insert {k:?}"),
            RepairKind::Substitute(k) => write!(f, "substitute {k:?}"),
        }
    }
}

/// One repair applied by the recovery engine, with its charged cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repair {
    /// What was done.
    pub kind: RepairKind,
    /// What it charged against [`RecoveryBudget::max_cost`].
    pub cost: u32,
}

/// A structured, spanned account of one recovery event (or lex error, or
/// budget exhaustion) — the unit every layer above the engine reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Index of the offending token in the *input* stream (counting input
    /// tokens only — skipped tokens count, synthesized insertions don't).
    pub token_index: usize,
    /// Byte range of the offending token in the source, when the feed
    /// path knew it (lexeme and source feeds do; bare kind feeds don't).
    pub span: Option<Span>,
    /// Line/column of the span start, when the feed path had the source
    /// text in hand to compute it ([`render`](Diagnostic::render)
    /// recomputes from `span` regardless).
    pub position: Option<Position>,
    /// The offending token's kind, if there was one (`None` for
    /// end-of-input and budget-exhaustion diagnostics).
    pub found: Option<String>,
    /// The token kinds that were viable at the failure point, sorted.
    pub expected: Vec<String>,
    /// The repair that was applied, if any.
    pub repair: Option<Repair>,
    /// How serious this is.
    pub severity: Severity,
    /// Human-readable one-liner.
    pub message: String,
}

impl Diagnostic {
    /// Renders rustc-style: severity and message, then — when the
    /// diagnostic is spanned — the caret frame from
    /// [`SourceMap::render_span`], then the expected set as a help line.
    pub fn render(&self, src: &str) -> String {
        let mut out = format!("{}: {}", self.severity, self.message);
        if let Some(span) = self.span {
            out.push('\n');
            out.push_str(&SourceMap::new(src).render_span(span));
        }
        if !self.expected.is_empty() {
            let list =
                self.expected.iter().map(|k| format!("{k:?}")).collect::<Vec<_>>().join(", ");
            out.push_str(&format!("\n = help: expected one of: {list}"));
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.severity, self.message)?;
        if let Some(p) = self.position {
            write!(f, " at {p}")?;
        } else if let Some(s) = self.span {
            write!(f, " at bytes {s}")?;
        }
        Ok(())
    }
}

/// Fills in [`Diagnostic::position`] from [`Diagnostic::span`] for every
/// spanned diagnostic, given the source text — for feed paths (lexeme
/// slices) that carry byte offsets but never see the full source.
pub fn attach_positions(diagnostics: &mut [Diagnostic], src: &str) {
    let map = SourceMap::new(src);
    for d in diagnostics {
        if let (None, Some(span)) = (d.position, d.span) {
            d.position = Some(map.position(span.start));
        }
    }
}

/// One input token as the recovery driver sees it: its terminal, resolved
/// once when the token was pulled (`None` when its kind is outside the
/// grammar), the kind's name for diagnostics, its text, and the source span
/// when the feed path knows it. Kind name and text are [`Cow`]s: the
/// session's feed loop borrows every token straight from its source for
/// the fast path (recovery adds zero allocations per clean token), and
/// copies only a dying token and the lookahead pulled behind it — a pulled
/// token's borrow dies on the next `next_token` call.
#[derive(Debug, Clone)]
pub(crate) struct InputToken<'a> {
    pub(crate) terminal: Option<u32>,
    pub(crate) kind: Cow<'a, str>,
    pub(crate) text: Cow<'a, str>,
    pub(crate) span: Option<Span>,
}

impl<'a> InputToken<'a> {
    /// `t` resolved against `backend`'s grammar, with its span when
    /// `spanned`.
    pub(crate) fn new(
        backend: &mut dyn Parser,
        t: ScannedToken<'a>,
        spanned: bool,
    ) -> InputToken<'a> {
        InputToken {
            terminal: backend.kinds().resolve(t.kind),
            kind: Cow::Borrowed(t.kind.as_str()),
            text: Cow::Borrowed(t.text),
            span: spanned.then_some(t.span),
        }
    }

    /// Detaches the token from its source (copying only borrowed text).
    pub(crate) fn into_owned(self) -> InputToken<'static> {
        InputToken {
            terminal: self.terminal,
            kind: Cow::Owned(self.kind.into_owned()),
            text: Cow::Owned(self.text.into_owned()),
            span: self.span,
        }
    }

    /// A borrowed view of this token.
    pub(crate) fn view(&self) -> InputToken<'_> {
        InputToken {
            terminal: self.terminal,
            kind: Cow::Borrowed(&self.kind),
            text: Cow::Borrowed(&self.text),
            span: self.span,
        }
    }
}

/// Feeds `tok` to `backend`: an error for a kind outside the grammar.
fn feed_input(backend: &mut dyn Parser, tok: &InputToken<'_>) -> Result<bool, BackendError> {
    match tok.terminal {
        Some(t) => backend.feed_terminal(t, &tok.text),
        None => Err(BackendError::outside_grammar(backend.name(), backend.tokens_fed(), &tok.kind)),
    }
}

/// The candidate terminals at the current position, with their names:
/// [`Recognizer::expected_terminals`](crate::api::Recognizer::expected_terminals)
/// sorted by name and cut to `max`.
fn candidates(backend: &mut dyn Parser, max: usize) -> Vec<(u32, String)> {
    let terminals = backend.expected_terminals();
    let cfg = backend.kinds().cfg();
    let mut named: Vec<(u32, String)> =
        terminals.into_iter().map(|t| (t, cfg.terminal_name(t).to_string())).collect();
    named.sort_by(|a, b| a.1.cmp(&b.1));
    named.truncate(max);
    named
}

/// Per-session recovery ledger: the budget, what has been spent, and the
/// diagnostics accumulated so far.
#[derive(Debug)]
pub(crate) struct RecoveryState {
    pub(crate) budget: RecoveryBudget,
    repairs: u32,
    cost: u32,
    exhausted: bool,
    pub(crate) diagnostics: Vec<Diagnostic>,
    /// Input tokens seen so far (diagnostic `token_index` coordinates).
    pub(crate) next_index: usize,
    /// Byte offset just past the last spanned token seen — where an
    /// end-of-input diagnostic points its (zero-width) caret.
    last_end: Option<usize>,
    /// Recent insert/substitute winners `(token_index, terminal)` — the
    /// anti-cascade memory (see [`CASCADE_KIND_CAP`]).
    recent_kinds: Vec<(usize, u32)>,
    /// Token indices of all charged repairs — the flail detector's
    /// memory (see [`FLAIL_CAP`]).
    recent_repairs: Vec<usize>,
    /// Live salvage-drop run: `(last_dropped_index, run_length,
    /// diagnostics_slot)` — lets adjacent post-exhaustion drops coalesce
    /// into one region diagnostic instead of one per token.
    drop_run: Option<(usize, usize, usize)>,
}

impl RecoveryState {
    pub(crate) fn new(budget: RecoveryBudget) -> RecoveryState {
        RecoveryState {
            budget,
            repairs: 0,
            cost: 0,
            exhausted: false,
            diagnostics: Vec::new(),
            next_index: 0,
            last_end: None,
            recent_kinds: Vec::new(),
            recent_repairs: Vec::new(),
            drop_run: None,
        }
    }

    /// Have [`FLAIL_CAP`] repairs landed within the trailing
    /// [`FLAIL_WINDOW`] token indices? That density means local repair is
    /// flailing — mangling a region that has no local fix (a deleted
    /// declaration header, a scrambled statement) — and every further
    /// repair digs the structural hole deeper. The recovery gives up
    /// repairing and salvages instead, which keeps the end-of-input
    /// completion shallow enough to still close the parse.
    fn flailing(&self, index: usize) -> bool {
        self.recent_repairs.iter().filter(|i| index.saturating_sub(**i) <= FLAIL_WINDOW).count()
            >= FLAIL_CAP
    }

    /// Has `kind` already won [`CASCADE_KIND_CAP`] insert/substitute
    /// repairs within the trailing [`CASCADE_WINDOW`] token indices? Such
    /// a candidate is vetoed: a locally-optimal repair that keeps winning
    /// in a dense cluster is almost always digging a structural hole
    /// (e.g. `"("` in expression grammars swallows any continuation) that
    /// end-of-input completion can never refill.
    fn overused(&self, terminal: u32, index: usize) -> bool {
        self.recent_kinds
            .iter()
            .filter(|&&(i, t)| index.saturating_sub(i) <= CASCADE_WINDOW && t == terminal)
            .count()
            >= CASCADE_KIND_CAP
    }

    /// Records an insert/substitute winner for the anti-cascade window.
    fn note_repair_kind(&mut self, index: usize, terminal: u32) {
        self.recent_kinds.retain(|(i, _)| index.saturating_sub(*i) <= CASCADE_WINDOW);
        self.recent_kinds.push((index, terminal));
    }

    /// Records a token dropped during post-exhaustion salvage, coalescing
    /// adjacent drops into a single region diagnostic.
    fn note_dropped(&mut self, index: usize, tok: &InputToken<'_>) {
        if let Some((last, count, slot)) = self.drop_run {
            if index == last + 1 {
                let count = count + 1;
                let d = &mut self.diagnostics[slot];
                if let (Some(span), Some(ts)) = (d.span.as_mut(), tok.span) {
                    span.end = ts.end;
                }
                d.message =
                    format!("budget exhausted; dropped {count} tokens that no longer parse");
                self.drop_run = Some((index, count, slot));
                return;
            }
        }
        self.diagnostics.push(Diagnostic {
            token_index: index,
            span: tok.span,
            position: None,
            found: Some(tok.kind.to_string()),
            expected: Vec::new(),
            repair: Some(Repair { kind: RepairKind::Skip, cost: 0 }),
            severity: Severity::Error,
            message: format!("unexpected {:?} after budget exhaustion; dropped it", tok.kind),
        });
        self.drop_run = Some((index, 1, self.diagnostics.len() - 1));
    }

    /// Zero-width span at the end of the last spanned token — the anchor
    /// for end-of-input diagnostics (`None` when the input carried no
    /// spans, e.g. bare kind feeds).
    fn eof_span(&self) -> Option<Span> {
        self.last_end.map(|end| Span::new(end, end))
    }

    fn can_afford(&self, cost: u32) -> bool {
        !self.exhausted
            && self.repairs < self.budget.max_repairs
            && self.cost + cost <= self.budget.max_cost
    }

    fn charge(&mut self, cost: u32) {
        self.repairs += 1;
        self.cost += cost;
    }

    /// Records a lexer error as a diagnostic. The streaming lexer already
    /// resynchronizes past the offending bytes, so this is reporting, not
    /// repair — it charges nothing against the budget.
    pub(crate) fn note_lex_error(&mut self, e: &crate::lex::LexError) {
        self.diagnostics.push(Diagnostic {
            token_index: self.next_index,
            span: Some(e.span),
            position: Some(e.position),
            found: None,
            expected: Vec::new(),
            repair: Some(Repair { kind: RepairKind::Skip, cost: 0 }),
            severity: Severity::Error,
            message: e.to_string(),
        });
    }

    /// Marks the budget spent and records the one `note` diagnostic; a
    /// no-op when already exhausted.
    fn note_exhausted(&mut self, token_index: usize, span: Option<Span>) {
        if self.exhausted {
            return;
        }
        self.exhausted = true;
        self.diagnostics.push(Diagnostic {
            token_index,
            span,
            position: None,
            found: None,
            expected: Vec::new(),
            repair: None,
            severity: Severity::Note,
            message: format!(
                "recovery budget exhausted ({} repairs, cost {}); remaining errors are unrepaired",
                self.repairs, self.cost
            ),
        });
    }
}

/// Anti-cascade guard: the same insert/substitute kind may win at most
/// this many repairs within [`CASCADE_WINDOW`] token indices before it is
/// vetoed as a candidate. Sparse legitimate repairs (five independent
/// missing `";"` across a file) are untouched; dense repeat-wins are the
/// signature of a repair digging itself deeper.
const CASCADE_KIND_CAP: usize = 2;

/// Token-index width of the anti-cascade window.
const CASCADE_WINDOW: usize = 8;

/// Flail detector: this many charged repairs (of any kind) within
/// [`FLAIL_WINDOW`] token indices flips the session into salvage mode —
/// dense error clusters have no local fix, and repairing through them
/// only accumulates unfinishable structure.
const FLAIL_CAP: usize = 3;

/// Token-index width of the flail-detector window.
const FLAIL_WINDOW: usize = 10;

/// Minimum chargeable cost of any repair under this budget.
fn min_cost(b: &RecoveryBudget) -> u32 {
    b.skip_cost.min(b.insert_cost).min(b.substitute_cost)
}

/// A scored repair option at one failure point.
struct Option_ {
    kind: RepairKind,
    /// The inserted or substituted terminal.
    terminal: Option<u32>,
    cost: u32,
    /// Real input tokens (the offending one + lookahead) consumed viably.
    progress: usize,
    /// Fixed tie-break order: insert < substitute < skip.
    rank: u8,
}

/// A token [`feed_recovering`] could not feed: its input index and
/// whether its kind is outside the grammar.
pub(crate) struct Failure {
    index: usize,
    unknown: bool,
}

/// Feeds one real input token with recovery's fast path: one checkpoint
/// plus the ordinary feed (or, once the budget is spent, salvage). A dead
/// (or unknown-kind) feed is rewound to the pre-feed state and returned as
/// a [`Failure`], so the caller pulls lookahead only for the tokens that
/// need it and then calls [`repair`].
pub(crate) fn feed_recovering(
    backend: &mut dyn Parser,
    rs: &mut RecoveryState,
    tok: &InputToken<'_>,
) -> Result<Option<Failure>, BackendError> {
    let index = rs.next_index;
    rs.next_index += 1;
    if let Some(span) = tok.span {
        rs.last_end = Some(span.end);
    }
    if rs.exhausted {
        // Salvage mode: the budget is spent, but dying on the first
        // unrepairable token would discard every parseable token after
        // it. Feed what still fits, drop what does not (coalesced into
        // one diagnostic per contiguous region, charged nothing) — one
        // checkpoint + rollback per dropped token, so still linear.
        return salvage_feed(backend, rs, index, tok).map(|()| None);
    }
    if !backend.is_viable() {
        // Dead despite recovery (resource errors, callers feeding past a
        // fatal error): degrade to the recovery-off path — a dead feed
        // is cheap and stays dead.
        return feed_input(backend, tok).map(|_| None);
    }
    // An unknown kind never reaches the session, so the current state is
    // the pre-feed state — repairable (the lexer matched something the
    // grammar has no terminal for).
    let Some(terminal) = tok.terminal else {
        return Ok(Some(Failure { index, unknown: true }));
    };
    let cp = backend.checkpoint()?;
    if backend.feed_terminal(terminal, &tok.text)? {
        return Ok(None);
    }
    // The token killed the language; rewind to the pre-feed derivative
    // (restores viability) and repair from there.
    backend.rollback(&cp)?;
    Ok(Some(Failure { index, unknown: false }))
}

/// Repairs the token [`feed_recovering`] could not feed, scoring the
/// repairs against `lookahead` (the next up to
/// [`RecoveryBudget::lookahead`] input tokens).
pub(crate) fn repair(
    backend: &mut dyn Parser,
    rs: &mut RecoveryState,
    failure: Failure,
    tok: &InputToken<'_>,
    lookahead: &[InputToken<'_>],
) -> Result<(), BackendError> {
    let started = std::time::Instant::now();
    let result = repair_at(backend, rs, failure.index, tok, lookahead, failure.unknown);
    backend.record_recover_span(started.elapsed().as_nanos() as u64);
    result
}

/// Post-exhaustion salvage: feed the token if it still fits, otherwise
/// drop it with a (coalesced) diagnostic and keep the session viable.
fn salvage_feed(
    backend: &mut dyn Parser,
    rs: &mut RecoveryState,
    index: usize,
    tok: &InputToken<'_>,
) -> Result<(), BackendError> {
    if !backend.is_viable() {
        return feed_input(backend, tok).map(|_| ());
    }
    if let Some(terminal) = tok.terminal {
        let cp = backend.checkpoint()?;
        if backend.feed_terminal(terminal, &tok.text)? {
            return Ok(());
        }
        backend.rollback(&cp)?;
    }
    rs.note_dropped(index, tok);
    Ok(())
}

/// The repair engine at one failure point: probe candidates, score the
/// three repair shapes, apply the winner, emit the diagnostic.
fn repair_at(
    backend: &mut dyn Parser,
    rs: &mut RecoveryState,
    index: usize,
    tok: &InputToken<'_>,
    lookahead: &[InputToken<'_>],
    unknown: bool,
) -> Result<(), BackendError> {
    if !rs.can_afford(min_cost(&rs.budget)) || rs.flailing(index) {
        rs.note_exhausted(index, tok.span);
        return if unknown {
            // Can't even feed it raw; drop it without charge so the
            // salvage path keeps the session alive for the rest.
            Ok(())
        } else {
            salvage_feed(backend, rs, index, tok)
        };
    }

    let expected = candidates(backend, rs.budget.max_candidates);
    let la_max = rs.budget.lookahead.min(lookahead.len());
    // In the input's tail (the last few tokens) survival stops
    // discriminating — there is little or nothing left to survive — so
    // additionally rank by whether the repaired state can consume the
    // remaining tail and still *finish*.
    let frontier = lookahead.len() <= FRONTIER_PROBE_DEPTH as usize;

    let mut options: Vec<Option_> = Vec::new();
    // Skip is always viable: the state is untouched and the lookahead
    // continues from it.
    if rs.can_afford(rs.budget.skip_cost) {
        let mut progress = probe(backend, &[], lookahead, la_max)?.expect("empty probe is viable");
        if frontier {
            progress += frontier_bonus(backend, &[], lookahead, rs.budget.max_candidates)?;
        }
        options.push(Option_ {
            kind: RepairKind::Skip,
            terminal: None,
            cost: rs.budget.skip_cost,
            progress,
            rank: 2,
        });
    }
    for (cand, name) in &expected {
        let cand = *cand;
        // Anti-cascade veto: a kind that keeps winning dense repairs
        // stops competing; skip and the other candidates take over.
        if rs.overused(cand, index) {
            continue;
        }
        if rs.can_afford(rs.budget.substitute_cost) {
            let seq = [(cand, tok.text.as_ref())];
            if let Some(la) = probe(backend, &seq, lookahead, la_max)? {
                let bonus = if frontier {
                    frontier_bonus(backend, &seq, lookahead, rs.budget.max_candidates)?
                } else {
                    0
                };
                options.push(Option_ {
                    kind: RepairKind::Substitute(name.clone()),
                    terminal: Some(cand),
                    cost: rs.budget.substitute_cost,
                    progress: 1 + la + bonus,
                    rank: 1,
                });
            }
        }
        // Insertion keeps the offending token, so it is only viable when
        // that token parses after the inserted one — which also rules it
        // out entirely for unknown kinds.
        if let (Some(terminal), true) = (tok.terminal, rs.can_afford(rs.budget.insert_cost)) {
            let seq = [(cand, name.as_str()), (terminal, tok.text.as_ref())];
            if let Some(la) = probe(backend, &seq, lookahead, la_max)? {
                let bonus = if frontier {
                    frontier_bonus(backend, &seq, lookahead, rs.budget.max_candidates)?
                } else {
                    0
                };
                options.push(Option_ {
                    kind: RepairKind::Insert(name.clone()),
                    terminal: Some(cand),
                    cost: rs.budget.insert_cost,
                    progress: 1 + la + bonus,
                    rank: 0,
                });
            }
        }
    }

    let Some(best) = options.into_iter().min_by(|a, b| {
        b.progress
            .cmp(&a.progress)
            .then(a.cost.cmp(&b.cost))
            .then(a.rank.cmp(&b.rank))
            .then_with(|| option_key(&a.kind).cmp(option_key(&b.kind)))
    }) else {
        // Nothing viable is affordable (skip itself over budget): mark
        // the budget spent and fall into the salvage path.
        rs.note_exhausted(index, tok.span);
        return if unknown { Ok(()) } else { salvage_feed(backend, rs, index, tok) };
    };

    let found_desc = if unknown {
        format!("unknown token kind {:?}", tok.kind)
    } else {
        format!("unexpected {:?}", tok.kind)
    };
    let message = match &best.kind {
        RepairKind::Skip => format!("{found_desc}; skipped it"),
        RepairKind::Insert(k) => format!("{found_desc}; inserted {k:?} before it"),
        RepairKind::Substitute(k) => format!("{found_desc}; substituted {k:?} for it"),
    };
    match (&best.kind, best.terminal) {
        (RepairKind::Insert(k), Some(t)) => {
            backend.feed_terminal(t, k)?;
            feed_input(backend, tok)?;
        }
        (RepairKind::Substitute(_), Some(t)) => {
            backend.feed_terminal(t, &tok.text)?;
        }
        _ => {}
    }
    if let Some(t) = best.terminal {
        rs.note_repair_kind(index, t);
    }
    rs.recent_repairs.retain(|i| index.saturating_sub(*i) <= FLAIL_WINDOW);
    rs.recent_repairs.push(index);
    rs.charge(best.cost);
    rs.diagnostics.push(Diagnostic {
        token_index: index,
        span: tok.span,
        position: None,
        found: Some(tok.kind.to_string()),
        expected: expected.into_iter().map(|(_, name)| name).collect(),
        repair: Some(Repair { kind: best.kind, cost: best.cost }),
        severity: Severity::Error,
        message,
    });
    Ok(())
}

/// Tail scoring: trial-feed `seq`, then the remaining input tail, then
/// ask whether the resulting state can still finish — a sentence already,
/// or completable by a short insertion sequence. Repairs that consume the
/// input's tail into unfinishable structure (an opened paren at the last
/// token) get no bonus and lose to repairs — or a plain skip — that leave
/// the parse closeable by the end-of-input completion search. The session
/// is restored either way.
fn frontier_bonus(
    backend: &mut dyn Parser,
    seq: &[(u32, &str)],
    tail: &[InputToken<'_>],
    max_candidates: usize,
) -> Result<usize, BackendError> {
    let cp = backend.checkpoint()?;
    let viable = trial_feed(backend, &cp, seq, tail.iter())? == seq.len() + tail.len();
    let bonus = if viable
        && (backend.prefix_is_sentence()?
            || find_completion(backend, FRONTIER_PROBE_DEPTH, max_candidates)?.is_some())
    {
        4
    } else {
        0
    };
    backend.rollback(&cp)?;
    Ok(bonus)
}

/// Depth of the completion probe inside [`frontier_bonus`] — shallower
/// than [`EOF_SEARCH_DEPTH`] because it runs per candidate repair, not
/// once per parse.
const FRONTIER_PROBE_DEPTH: u32 = 2;

fn option_key(kind: &RepairKind) -> &str {
    match kind {
        RepairKind::Skip => "",
        RepairKind::Insert(k) | RepairKind::Substitute(k) => k,
    }
}

/// Trial-runs one repair shape on the live session: feed `seq`, then up
/// to `la_max` lookahead tokens, then rewind. `Some(la)` = every `seq`
/// feed was viable and `la` lookahead tokens followed; `None` = the shape
/// is not viable here. The session is restored either way.
fn probe(
    backend: &mut dyn Parser,
    seq: &[(u32, &str)],
    lookahead: &[InputToken<'_>],
    la_max: usize,
) -> Result<Option<usize>, BackendError> {
    let cp = backend.checkpoint()?;
    let fed = trial_feed(backend, &cp, seq, lookahead.iter().take(la_max))?;
    backend.rollback(&cp)?;
    Ok(fed.checked_sub(seq.len()))
}

/// The trial feed behind [`probe`] and [`frontier_bonus`]: feeds `seq`,
/// then `input`, stopping at the first token that dies or has an unknown
/// kind, and returns how many were fed viably. The caller rewinds to `cp`,
/// taken before the trial; an engine error rewinds here and propagates.
fn trial_feed<'t>(
    backend: &mut dyn Parser,
    cp: &Checkpoint,
    seq: &[(u32, &'t str)],
    input: impl Iterator<Item = &'t InputToken<'t>>,
) -> Result<usize, BackendError> {
    let input = input.map_while(|tok| Some((tok.terminal?, tok.text.as_ref())));
    let mut fed = 0;
    for (terminal, text) in seq.iter().copied().chain(input) {
        match backend.feed_terminal(terminal, text) {
            Ok(true) => fed += 1,
            Ok(false) => break,
            Err(e) => {
                let _ = backend.rollback(cp);
                return Err(e);
            }
        }
    }
    Ok(fed)
}

/// Maximum depth of the end-of-input insertion search. Real truncations
/// (a dropped `)` `;` or `end .`) complete within this; anything deeper
/// is better reported than guessed.
const EOF_SEARCH_DEPTH: u32 = 3;

/// End-of-input repair: if the session is viable but the prefix is not a
/// sentence, search (bounded depth-first, within budget) for a cheapest
/// insertion sequence that completes it, apply it, and emit one
/// diagnostic per inserted token.
pub(crate) fn repair_eof(
    backend: &mut dyn Parser,
    rs: &mut RecoveryState,
) -> Result<(), BackendError> {
    if !backend.is_viable() || backend.prefix_is_sentence()? {
        return Ok(());
    }
    let started = std::time::Instant::now();
    // The completion search runs even on an exhausted budget: it is
    // depth-bounded on its own ([`EOF_SEARCH_DEPTH`]), it is the last
    // repair of the parse, and a truncated file is the most common
    // malformation — salvage that leaves the session viable would be
    // pointless if the close could then never be inserted.
    let affordable = EOF_SEARCH_DEPTH;
    let index = rs.next_index;
    let found = find_completion(backend, affordable, rs.budget.max_candidates)?;
    match found {
        Some(seq) => {
            for (terminal, kind) in seq {
                let expected = candidates(backend, rs.budget.max_candidates)
                    .into_iter()
                    .map(|(_, name)| name)
                    .collect();
                backend.feed_terminal(terminal, &kind)?;
                rs.charge(rs.budget.insert_cost);
                rs.diagnostics.push(Diagnostic {
                    token_index: index,
                    span: rs.eof_span(),
                    position: None,
                    found: None,
                    expected,
                    repair: Some(Repair {
                        kind: RepairKind::Insert(kind.clone()),
                        cost: rs.budget.insert_cost,
                    }),
                    severity: Severity::Error,
                    message: format!(
                        "unexpected end of input; inserted {kind:?} to complete the parse"
                    ),
                });
            }
        }
        None => {
            let span = rs.eof_span();
            rs.note_exhausted(index, span);
        }
    }
    backend.record_recover_span(started.elapsed().as_nanos() as u64);
    Ok(())
}

/// Depth-first search for the shortest (then lexicographically first)
/// insertion sequence completing the current prefix, as `(terminal, name)`
/// pairs. Iterative deepening keeps it shortest-first; the candidate sets
/// are tiny in practice.
fn find_completion(
    backend: &mut dyn Parser,
    max_depth: u32,
    max_candidates: usize,
) -> Result<Option<Vec<(u32, String)>>, BackendError> {
    for depth in 1..=max_depth {
        if let Some(seq) = complete_at_depth(backend, depth, max_candidates)? {
            return Ok(Some(seq));
        }
    }
    Ok(None)
}

fn complete_at_depth(
    backend: &mut dyn Parser,
    depth: u32,
    max_candidates: usize,
) -> Result<Option<Vec<(u32, String)>>, BackendError> {
    for cand in candidates(backend, max_candidates) {
        let cp = backend.checkpoint()?;
        let alive = match backend.feed_terminal(cand.0, &cand.1) {
            Ok(v) => v,
            Err(e) => {
                let _ = backend.rollback(&cp);
                return Err(e);
            }
        };
        let hit = if !alive {
            None
        } else if depth == 1 {
            backend.prefix_is_sentence()?.then(Vec::new)
        } else {
            complete_at_depth(backend, depth - 1, max_candidates)?
        };
        backend.rollback(&cp)?;
        if let Some(mut rest) = hit {
            rest.insert(0, cand);
            return Ok(Some(rest));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{backends, PwdBackend, Session};
    use crate::grammar::Cfg;
    use crate::grammar::CfgBuilder;

    fn matched_pairs() -> Cfg {
        let mut g = CfgBuilder::new("S");
        g.terminals(&["a", "b"]);
        g.rule("S", &["a", "S", "b"]);
        g.rule("S", &["a", "b"]);
        g.build().expect("valid grammar")
    }

    #[test]
    fn severity_labels() {
        assert_eq!(Severity::Error.as_str(), "error");
        assert_eq!(Severity::Warning.to_string(), "warning");
        assert_eq!(Severity::Note.to_string(), "note");
    }

    #[test]
    fn clean_input_produces_no_diagnostics_on_any_backend() {
        let cfg = matched_pairs();
        for backend in &mut backends(&cfg) {
            let mut s = Session::open(backend.as_mut()).unwrap();
            s.enable_recovery(RecoveryBudget::default());
            s.feed_all(&["a", "a", "b", "b"]).unwrap();
            let (ok, diags) = s.finish_with_diagnostics().unwrap();
            assert!(ok);
            assert!(diags.is_empty(), "clean input, but {diags:?}");
        }
    }

    #[test]
    fn missing_token_is_inserted_on_every_backend() {
        let cfg = matched_pairs();
        for backend in &mut backends(&cfg) {
            let name = backend.name();
            let mut s = Session::open(backend.as_mut()).unwrap();
            s.enable_recovery(RecoveryBudget::default());
            // "a a b" lacks the final "b".
            s.feed_all(&["a", "a", "b"]).unwrap();
            let (ok, diags) = s.finish_with_diagnostics().unwrap();
            assert!(ok, "{name}: repaired to a sentence");
            assert_eq!(diags.len(), 1, "{name}: {diags:?}");
            assert!(
                matches!(
                    diags[0].repair,
                    Some(Repair { kind: RepairKind::Insert(ref k), .. }) if k == "b"
                ),
                "{name}: {diags:?}"
            );
        }
    }

    #[test]
    fn extra_token_is_skipped_or_absorbed_on_every_backend() {
        let cfg = matched_pairs();
        for backend in &mut backends(&cfg) {
            let name = backend.name();
            let mut s = Session::open(backend.as_mut()).unwrap();
            s.enable_recovery(RecoveryBudget::default());
            // "a b b" has a stray trailing "b".
            s.feed_all(&["a", "b", "b"]).unwrap();
            let (ok, diags) = s.finish_with_diagnostics().unwrap();
            assert!(ok, "{name}: repaired to a sentence");
            assert!(!diags.is_empty(), "{name}: the stray token was diagnosed");
        }
    }

    #[test]
    fn unknown_kind_is_repaired_not_an_error() {
        let cfg = matched_pairs();
        let mut backend = PwdBackend::improved(&cfg);
        let mut s = Session::open(&mut backend).unwrap();
        s.enable_recovery(RecoveryBudget::default());
        s.feed("a", "a").unwrap();
        s.feed("ZZZ", "zzz").unwrap();
        s.feed("b", "b").unwrap();
        let (ok, diags) = s.finish_with_diagnostics().unwrap();
        assert!(ok, "unknown token repaired away");
        assert!(diags.iter().any(|d| d.message.contains("unknown token kind")), "{diags:?}");
    }

    #[test]
    fn budget_exhaustion_salvages_with_a_note() {
        let cfg = matched_pairs();
        let mut backend = PwdBackend::improved(&cfg);
        let mut s = Session::open(&mut backend).unwrap();
        s.enable_recovery(RecoveryBudget { max_repairs: 1, ..RecoveryBudget::default() });
        // Repairs the first stray "b" (one insert — the whole budget),
        // exhausts, then salvages by dropping the rest instead of dying.
        s.feed_all(&["b", "b", "a"]).unwrap();
        let (ok, diags) = s.finish_with_diagnostics().unwrap();
        assert!(ok, "salvage keeps the repaired prefix parseable");
        assert!(
            diags.iter().any(|d| d.severity == Severity::Note),
            "exhaustion is noted: {diags:?}"
        );
        // The unparseable trailing token is dropped (charged nothing)
        // rather than killing the parse.
        assert!(
            diags.iter().any(|d| d.message.contains("dropped")),
            "salvage region is diagnosed: {diags:?}"
        );
    }

    #[test]
    fn diagnostics_render_with_carets() {
        let d = Diagnostic {
            token_index: 1,
            span: Some(Span::new(2, 3)),
            position: None,
            found: Some("b".into()),
            expected: vec!["a".into()],
            repair: Some(Repair { kind: RepairKind::Skip, cost: 2 }),
            severity: Severity::Error,
            message: "unexpected \"b\"; skipped it".into(),
        };
        let rendered = d.render("a b c");
        assert!(rendered.starts_with("error: unexpected \"b\"; skipped it"), "{rendered}");
        assert!(rendered.contains(" --> 1:3"), "{rendered}");
        assert!(rendered.contains("^"), "{rendered}");
        assert!(rendered.contains("expected one of: \"a\""), "{rendered}");
    }

    #[test]
    fn attach_positions_fills_line_col() {
        let mut diags = vec![Diagnostic {
            token_index: 0,
            span: Some(Span::new(4, 5)),
            position: None,
            found: None,
            expected: Vec::new(),
            repair: None,
            severity: Severity::Error,
            message: "x".into(),
        }];
        attach_positions(&mut diags, "ab\ncd");
        assert_eq!(diags[0].position, Some(Position { line: 2, column: 2 }));
    }
}
