//! Instrumentation counters.
//!
//! Figures 7, 10, and 11 of the paper are counter-based (calls to
//! `nullable?`, memo-entry census, uncached calls to `derive`); this module
//! holds those counters. They are plain fields updated on the hot path with
//! no atomic or hashing cost.

/// Counters accumulated while parsing.
///
/// Reset with [`Language::reset_metrics`](crate::Language::reset_metrics) or
/// [`Language::reset`](crate::Language::reset).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct Metrics {
    /// Total calls to `derive` (cached and uncached).
    pub derive_calls: u64,
    /// Calls to `derive` that missed the memo table and did real work.
    pub derive_uncached: u64,
    /// Total calls to `nullable?` (one per node visit, as in Figure 7).
    pub nullable_calls: u64,
    /// Number of fixed-point runs started by `nullable?` queries.
    pub nullable_runs: u64,
    /// Grammar nodes created (the paper's `g`).
    pub nodes_created: u64,
    /// Single-entry memo evictions (a second token displaced a first).
    pub memo_evictions: u64,
    /// Calls to `parse-null` (cached and uncached).
    pub parse_null_calls: u64,
    /// Separate compaction passes executed (original-2011 mode).
    pub compaction_passes: u64,
    /// Nodes rewritten to something smaller by a compaction rule.
    pub compactions_applied: u64,
    /// Nodes proven empty by the productivity pass and rewritten to `∅`.
    pub empty_prunes: u64,
    /// Class-template slots recorded (one per completed uncached `derive`
    /// under `MemoKeying::ByClass` in parse mode).
    pub templates_recorded: u64,
    /// Tainted template hits: the derivative of a repeat terminal class was
    /// re-instantiated along the patch path to its fresh `ε` leaves.
    pub template_instantiations: u64,
    /// Untainted template hits: a lexeme-independent derivative subgraph was
    /// shared verbatim with a new lexeme of the same terminal class.
    pub template_shares: u64,
    /// Lazy-automaton states interned (one dense transition row each).
    pub auto_rows_built: u64,
    /// Tokens consumed by a transition-table hit: `state = row[term]`, no
    /// derive call, no memo probe, no hashing.
    pub auto_table_hits: u64,
    /// Tokens consumed by the interpreted path while the automaton was
    /// active — cold-table misses plus post-budget fallback steps.
    pub auto_fallbacks: u64,
    /// Steps at which the automaton froze: an intern found the row budget
    /// ([`ParserConfig::automaton_max_rows`](crate::ParserConfig::automaton_max_rows))
    /// spent, so every unexplored transition from then on falls back. The
    /// table stays frozen, so this reads 1 in the metrics of the parse that
    /// froze it and 0 in later ones.
    pub auto_freezes: u64,
    /// Error-recovery trial derivatives: cloned session states fed one
    /// candidate repair token to test its viability (zero on clean input —
    /// recovery only probes after a dead feed).
    pub recovery_probes: u64,
}

impl Metrics {
    /// Calls to `derive` answered from the memo tables (including the
    /// class-template fast path).
    pub fn derive_hits(&self) -> u64 {
        self.derive_calls - self.derive_uncached
    }

    /// Fraction of `derive` calls that were uncached, in `[0, 1]`, or
    /// `None` when no `derive` calls ran — a ratio over an empty sample is
    /// not 0% or 100%, it is undefined, and callers must not fold it into
    /// averages as if it were data.
    pub fn uncached_ratio(&self) -> Option<f64> {
        (self.derive_calls != 0).then(|| self.derive_uncached as f64 / self.derive_calls as f64)
    }

    /// Fraction of automaton-active token steps served by a transition-table
    /// hit, in `[0, 1]`, or `None` when the automaton never engaged.
    pub fn auto_hit_ratio(&self) -> Option<f64> {
        let total = self.auto_table_hits + self.auto_fallbacks;
        (total != 0).then(|| self.auto_table_hits as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_are_undefined_on_empty_samples() {
        let m = Metrics::default();
        assert_eq!(m.uncached_ratio(), None);
        assert_eq!(m.auto_hit_ratio(), None);
    }

    #[test]
    fn uncached_ratio_computes() {
        let m = Metrics { derive_calls: 10, derive_uncached: 4, ..Metrics::default() };
        assert!((m.uncached_ratio().unwrap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn auto_hit_ratio_computes() {
        let m = Metrics { auto_table_hits: 3, auto_fallbacks: 1, ..Metrics::default() };
        assert!((m.auto_hit_ratio().unwrap() - 0.75).abs() < 1e-12);
    }
}
