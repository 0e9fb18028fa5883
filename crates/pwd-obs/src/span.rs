//! The fixed span vocabulary and per-phase histogram bundle.

use crate::Histogram;

/// The instrumented phases of the stack, one histogram each in
/// [`PhaseStats`]. The set is closed on purpose: a fixed vocabulary keeps
/// recording allocation-free and makes snapshots from different layers
/// mergeable without name reconciliation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Phase {
    /// Lexing: scanning source text into tokens.
    Lex,
    /// Taking the derivative of the current state by one token (includes
    /// the memo probes; per-token granularity).
    Derive,
    /// The clean-up pass over the fresh derivative: emptiness pruning (the
    /// productivity fixed point) in the improved preset, plus the separate
    /// compaction pass in the original one.
    Compact,
    /// A nullability fixed-point run (only runs that actually iterate;
    /// definite-bit hits are free and unrecorded).
    Nullable,
    /// Interning a derivative as a lazy-automaton state and building its
    /// transition row.
    AutoRow,
    /// Parse-forest construction (`parse-null` / canonicalization).
    Forest,
    /// Serve-side: time a request spent queued before a worker picked it up.
    QueueWait,
    /// Serve-side: time a worker spent executing a request.
    Execute,
    /// Serve-side: whole-request wall time (queue wait + execute).
    Request,
    /// A streaming chunk fed through a live session.
    Chunk,
    /// An error-recovery episode: candidate probing plus repair selection
    /// after a dead feed (only recorded when recovery actually engages, so
    /// clean parses never touch the clock for it).
    Recover,
}

/// Number of [`Phase`] variants (the length of [`Phase::ALL`]).
pub const PHASE_COUNT: usize = 11;

impl Phase {
    /// Every phase, in declaration order (= index order).
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Lex,
        Phase::Derive,
        Phase::Compact,
        Phase::Nullable,
        Phase::AutoRow,
        Phase::Forest,
        Phase::QueueWait,
        Phase::Execute,
        Phase::Request,
        Phase::Chunk,
        Phase::Recover,
    ];

    /// Dense index of the phase, in `0..PHASE_COUNT`.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name, used as the trace-event and metric label.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Lex => "lex",
            Phase::Derive => "derive",
            Phase::Compact => "compact",
            Phase::Nullable => "nullable",
            Phase::AutoRow => "auto_row",
            Phase::Forest => "forest",
            Phase::QueueWait => "queue_wait",
            Phase::Execute => "execute",
            Phase::Request => "request",
            Phase::Chunk => "chunk",
            Phase::Recover => "recover",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One [`Histogram`] per [`Phase`]: the aggregate span record of an engine,
/// a backend, or a whole service. Span durations are recorded in
/// nanoseconds; the same shape also carries size samples where a layer
/// finds that useful.
///
/// Like [`Histogram`], merging is element-wise and lossless, so per-thread
/// instances aggregate without locks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStats {
    hists: [Histogram; PHASE_COUNT],
}

impl Default for PhaseStats {
    fn default() -> PhaseStats {
        PhaseStats { hists: std::array::from_fn(|_| Histogram::new()) }
    }
}

impl PhaseStats {
    /// An empty bundle.
    pub fn new() -> PhaseStats {
        PhaseStats::default()
    }

    /// Records one span of `nanos` under `phase`.
    #[inline]
    pub fn record(&mut self, phase: Phase, nanos: u64) {
        self.hists[phase.index()].record(nanos);
    }

    /// The histogram of one phase.
    pub fn get(&self, phase: Phase) -> &Histogram {
        &self.hists[phase.index()]
    }

    /// Total nanoseconds recorded under `phase` (the histogram's exact sum).
    pub fn total_nanos(&self, phase: Phase) -> u64 {
        self.get(phase).sum()
    }

    /// Merges another bundle in, phase by phase — exactly additive.
    pub fn merge(&mut self, other: &PhaseStats) {
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
    }

    /// Phases with at least one recorded span, with their histograms.
    pub fn recorded(&self) -> impl Iterator<Item = (Phase, &Histogram)> + '_ {
        Phase::ALL.iter().map(|&p| (p, self.get(p))).filter(|(_, h)| !h.is_empty())
    }

    /// Is every phase empty?
    pub fn is_empty(&self) -> bool {
        self.hists.iter().all(Histogram::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_match_all_order() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(Phase::ALL.len(), PHASE_COUNT);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PHASE_COUNT);
    }

    #[test]
    fn record_merge_roundtrip() {
        let mut a = PhaseStats::new();
        let mut b = PhaseStats::new();
        a.record(Phase::Derive, 100);
        a.record(Phase::Derive, 200);
        b.record(Phase::Derive, 50);
        b.record(Phase::Forest, 7);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.get(Phase::Derive).count(), 3);
        assert_eq!(m.get(Phase::Derive).sum(), 350);
        assert_eq!(m.total_nanos(Phase::Forest), 7);
        assert_eq!(m.recorded().count(), 2);
        assert!(PhaseStats::new().is_empty());
        assert!(!m.is_empty());
    }
}
