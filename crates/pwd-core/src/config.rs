//! Engine configuration: the paper's ablation axes.
//!
//! The PLDI 2016 paper improves on Might et al. (2011) along three axes —
//! fixed-point computation (§4.2), compaction (§4.3), and memoization (§4.4).
//! [`ParserConfig`] exposes each axis as a strategy knob so that the
//! "original PWD" and "improved PWD" of the evaluation are two configurations
//! of one audited engine, and every figure's ablation is a config diff.

/// How the `nullable?` least fixed point is computed (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NullStrategy {
    /// Might et al. (2011): repeatedly re-traverse all reachable nodes until
    /// no nullability changes. Quadratic in the subgraph per query.
    Naive,
    /// Kildall-style data-flow worklist: track which nodes depend on which,
    /// and revisit only dependents when a node becomes nullable. Values that
    /// are still `false` at the end of a run remain *assumed*, so later
    /// queries must re-run the fixed point over them.
    Worklist,
    /// The paper's algorithm: worklist propagation **plus** promotion of
    /// assumed-not-nullable nodes to definitely-not-nullable when the run
    /// that examined them completes (run labels, §4.2). Subsequent queries
    /// on promoted nodes are O(1).
    #[default]
    Labeled,
}

/// When and how compaction rewrites are applied (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CompactionMode {
    /// No compaction at all. Still cubic (§3 holds without compaction), but
    /// slow in practice. Required by the Figure-5 naming instrumentation.
    None,
    /// Might et al. (2011): a separate graph-rewriting pass between the
    /// `derive` calls for successive tokens (traverses nodes twice/token).
    SeparatePass,
    /// The paper's improvement (§4.3.3): compact locally as nodes are
    /// constructed by `derive`, never iterating to a fixed point and
    /// punting when a child is still mid-derivation (cycle).
    #[default]
    OnConstruction,
}

/// How `derive` results are memoized (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemoStrategy {
    /// Might et al. (2011): nested hash tables — node → token → result.
    FullHash,
    /// The paper's improvement: two fields on each node acting as a
    /// one-entry cache that evicts on conflict. Forgetful (Figure 11) but on
    /// average 2.04× faster (Figure 12) in the paper's measurements.
    #[default]
    SingleEntry,
    /// The §4.4 extension the paper tried and abandoned: a two-entry
    /// per-node cache with last-recently-inserted eviction. Kept here so
    /// the ablation benches can re-run that experiment.
    DualEntry,
}

/// What identifies a token in the `derive` memo tables (the lexeme-sharing
/// axis; goes beyond the paper).
///
/// The paper keys the memo by token *value* — `(kind, lexeme)` — so on
/// identifier-heavy inputs where nearly every token is a fresh lexeme the
/// memo misses constantly and the engine re-derives the full grammar graph
/// per token. But a derivative depends on the lexeme only through the `ε`
/// leaf it embeds, so `D_tok(n)` is shareable across all lexemes of one
/// terminal class:
///
/// * in [`ParseMode::Recognize`] no forests are built and the derivative is
///   a pure function of the terminal kind, so class keying replaces the
///   [`TokKey`](crate::TokKey) memo key with the [`TermId`](crate::TermId)
///   outright — turning identifier-diverse inputs from all-miss to all-hit;
/// * in [`ParseMode::Parse`] the memo stays value-keyed (forests embed the
///   lexeme), and class keying instead adds a per-`(node, TermId)`
///   *template* slot that lets a repeat terminal share every
///   lexeme-independent subgraph of a previous derivative and re-derive
///   only the patch path down to the fresh `ε` leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemoKeying {
    /// The paper's scheme: key by token value `(kind, lexeme)`. Kept as the
    /// ablation baseline and for the faithful figure reproductions.
    ByValue,
    /// Share derivatives across lexemes of the same terminal class (full
    /// sharing in recognize mode, template sharing in parse mode).
    ///
    /// Automatically falls back to value keying while Definition-5
    /// [`naming`](ParserConfig::naming) is on, because names embed token
    /// values.
    #[default]
    ByClass,
}

/// Whether `derive` results are additionally compiled into a lazy automaton
/// (the third memoization tier, beyond the paper).
///
/// Class keying (tier two) made recognize-mode derivatives lexeme-independent,
/// but the steady-state loop still walks the derivative graph and probes the
/// memo for every token. The automaton takes the same step `pwd-regex` takes
/// from `deriv.rs` to `dfa.rs`: derivative roots are interned into *states*
/// by structural signature, each state caches a dense `TermId → state`
/// transition row plus its nullability, and the recognize loop becomes a
/// table walk — zero graph construction, memo probes, or hashing per token.
///
/// The automaton only engages where it is sound and free of observable
/// effect: recognize mode, class keying, Definition-5 naming off (the same
/// gate as the class-keyed memo — parse-mode derivatives embed lexemes, so
/// their states never recur). Outside that configuration the axis is
/// ignored, and results are byte-identical either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AutomatonMode {
    /// Never build transition rows; always run the interpreted (class-keyed)
    /// derive loop. The ablation baseline.
    Off,
    /// Build states and rows lazily as inputs explore them, up to
    /// [`ParserConfig::automaton_max_rows`]; fall back to the interpreted
    /// path transparently beyond the budget.
    #[default]
    Lazy,
}

/// Whether to build parse forests or only recognize (§2 vs §3).
///
/// `Recognize` uses the paper's Figure-2 derivative for `◦` (two nodes per
/// nullable sequence derivative), which is what Definition 5's naming rules
/// and the Figure-5 worst case count. `Parse` additionally threads null-parse
/// forests through δ nodes to produce ASTs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ParseMode {
    /// Recognition only — no parse forests, Figure-2 derivative shapes.
    Recognize,
    /// Full parsing with ambiguity-node forests.
    #[default]
    Parse,
}

/// Full engine configuration.
///
/// # Examples
///
/// ```
/// use pwd_core::ParserConfig;
/// let orig = ParserConfig::original_2011();
/// let imp = ParserConfig::improved();
/// assert_ne!(orig.nullability, imp.nullability);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParserConfig {
    /// Fixed-point strategy for `nullable?`.
    pub nullability: NullStrategy,
    /// Compaction scheduling.
    pub compaction: CompactionMode,
    /// Memoization strategy for `derive`.
    pub memo: MemoStrategy,
    /// What identifies a token in the `derive` memo (value vs class keying).
    pub keying: MemoKeying,
    /// Recognizer vs full parser.
    pub mode: ParseMode,
    /// Assign Definition-5 names to every node created by `derive`
    /// (§3.2 instrumentation; adds overhead, off by default).
    pub naming: bool,
    /// Apply the §4.3.1 right-child reduction rules to the initial grammar
    /// before parsing (they are never needed during parsing — Theorem 10).
    pub prepass_right_children: bool,
    /// Abort parsing if more than this many grammar nodes are created
    /// (failure-injection and runaway protection).
    pub max_nodes: Option<usize>,
    /// Lazily compile recognize-mode derivatives into a transition-table
    /// automaton (the third memoization tier; see [`AutomatonMode`]).
    pub automaton: AutomatonMode,
    /// State/row budget for the lazy automaton: once this many states have
    /// been interned, no further rows are built and unexplored transitions
    /// run on the interpreted class-keyed path (re-entering the table
    /// whenever the walk lands on an already-interned state).
    pub automaton_max_rows: usize,
}

impl ParserConfig {
    /// The configuration matching Might et al. (2011): naive fixed points,
    /// compaction as a separate pass, nested hash-table memoization.
    pub fn original_2011() -> Self {
        ParserConfig {
            nullability: NullStrategy::Naive,
            compaction: CompactionMode::SeparatePass,
            memo: MemoStrategy::FullHash,
            keying: MemoKeying::ByValue,
            mode: ParseMode::Parse,
            naming: false,
            prepass_right_children: false,
            max_nodes: None,
            automaton: AutomatonMode::Off,
            automaton_max_rows: DEFAULT_AUTOMATON_MAX_ROWS,
        }
    }

    /// Might et al. (2011) **without** compaction — the configuration their
    /// paper reports as taking three minutes for 31 lines of Python.
    pub fn original_2011_no_compaction() -> Self {
        ParserConfig { compaction: CompactionMode::None, ..Self::original_2011() }
    }

    /// The paper's improved configuration (the "Improved PWD" series of
    /// Figure 6): labeled fixed points, on-construction compaction,
    /// single-entry memoization, right-child prepass.
    pub fn improved() -> Self {
        ParserConfig {
            nullability: NullStrategy::Labeled,
            compaction: CompactionMode::OnConstruction,
            memo: MemoStrategy::SingleEntry,
            keying: MemoKeying::ByClass,
            mode: ParseMode::Parse,
            naming: false,
            prepass_right_children: true,
            max_nodes: None,
            automaton: AutomatonMode::Lazy,
            automaton_max_rows: DEFAULT_AUTOMATON_MAX_ROWS,
        }
    }

    /// The instrumented configuration used to reproduce Figure 5 and check
    /// Definition 5 / Lemma 7 / Theorem 8: recognizer-form derivatives, no
    /// compaction, naming on.
    pub fn named_recognizer() -> Self {
        ParserConfig {
            nullability: NullStrategy::Labeled,
            compaction: CompactionMode::None,
            memo: MemoStrategy::FullHash,
            keying: MemoKeying::ByValue,
            mode: ParseMode::Recognize,
            naming: true,
            prepass_right_children: false,
            max_nodes: None,
            automaton: AutomatonMode::Off,
            automaton_max_rows: DEFAULT_AUTOMATON_MAX_ROWS,
        }
    }

    /// Is the derive memo keyed by terminal class outright — class keying
    /// in recognize mode with Definition-5 naming off? Then no lexeme can
    /// reach a derivative: memo entries are keyed by [`TermId`](crate::TermId),
    /// a token's derivative ends in the canonical `ε`, and names (which
    /// embed token values) are off. So the engine never reads a lexeme, and
    /// callers need not intern one.
    pub fn class_keyed(&self) -> bool {
        self.keying == MemoKeying::ByClass && self.mode == ParseMode::Recognize && !self.naming
    }
}

/// Budget and cost model for bounded-effort error recovery.
///
/// Recovery itself runs in the session layer (`derp::recover`) because it
/// drives checkpoints and trial feeds through the backend-agnostic session
/// interface; the budget lives here, next to the other engine knobs, so
/// every layer — core, API, serve — shares one vocabulary for "how hard to
/// try".
///
/// The cost model: each applied repair charges its kind's cost
/// (`skip_cost` / `insert_cost` / `substitute_cost`) against `max_cost`,
/// and the total number of applied repairs is additionally capped by
/// `max_repairs`. When either limit is reached the parse degrades to the
/// recovery-off behavior (the session goes dead on the next unrepairable
/// token) and a final `note`-severity diagnostic records the exhaustion.
/// Skipping is deliberately the most expensive repair: insertion and
/// substitution keep the token stream aligned, while a run of skips is
/// panic-mode recovery (discard input until a synchronizing terminal) and
/// should only win when nothing cheaper is viable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryBudget {
    /// Maximum number of repairs applied in one parse.
    pub max_repairs: u32,
    /// Maximum total repair cost in one parse.
    pub max_cost: u32,
    /// Cost of skipping one input token (panic-mode step).
    pub skip_cost: u32,
    /// Cost of inserting one expected token.
    pub insert_cost: u32,
    /// Cost of substituting an expected token for the input token.
    pub substitute_cost: u32,
    /// Maximum number of candidate repair tokens probed per failure point.
    pub max_candidates: usize,
    /// Tokens of real input a candidate repair must survive (when that much
    /// input remains) to be preferred; breaks ties toward repairs that keep
    /// the parse alive longest.
    pub lookahead: usize,
}

impl Default for RecoveryBudget {
    /// Generous defaults: enough for a handful of independent errors in one
    /// file (16 repairs, total cost 48) without letting an adversarial
    /// input degenerate into an unbounded repair search.
    fn default() -> Self {
        RecoveryBudget {
            max_repairs: 16,
            max_cost: 48,
            skip_cost: 2,
            insert_cost: 1,
            substitute_cost: 1,
            max_candidates: 16,
            lookahead: 4,
        }
    }
}

/// Default state/row budget for the lazy automaton. Real grammars settle
/// into a few dozen isomorphism classes of live derivatives; 4096 rows is
/// two orders of magnitude of headroom while still bounding memory on
/// adversarially state-rich grammars.
pub const DEFAULT_AUTOMATON_MAX_ROWS: usize = 4096;

impl Default for ParserConfig {
    fn default() -> Self {
        Self::improved()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_on_all_axes() {
        let o = ParserConfig::original_2011();
        let i = ParserConfig::improved();
        assert_eq!(o.nullability, NullStrategy::Naive);
        assert_eq!(i.nullability, NullStrategy::Labeled);
        assert_eq!(o.compaction, CompactionMode::SeparatePass);
        assert_eq!(i.compaction, CompactionMode::OnConstruction);
        assert_eq!(o.memo, MemoStrategy::FullHash);
        assert_eq!(i.memo, MemoStrategy::SingleEntry);
        assert_eq!(o.keying, MemoKeying::ByValue);
        assert_eq!(i.keying, MemoKeying::ByClass);
    }

    #[test]
    fn default_is_improved() {
        assert_eq!(ParserConfig::default(), ParserConfig::improved());
    }

    #[test]
    fn automaton_axis_defaults() {
        assert_eq!(ParserConfig::improved().automaton, AutomatonMode::Lazy);
        assert_eq!(ParserConfig::original_2011().automaton, AutomatonMode::Off);
        assert_eq!(ParserConfig::named_recognizer().automaton, AutomatonMode::Off);
        assert_eq!(ParserConfig::improved().automaton_max_rows, DEFAULT_AUTOMATON_MAX_ROWS);
    }

    #[test]
    fn named_recognizer_disables_compaction() {
        let c = ParserConfig::named_recognizer();
        assert!(c.naming);
        assert_eq!(c.compaction, CompactionMode::None);
        assert_eq!(c.mode, ParseMode::Recognize);
    }
}
