//! Engine-side observability: per-[`Language`] span timing and trace
//! capture, behind the zero-overhead-when-off contract.
//!
//! The contract has two layers (see the `pwd-obs` crate docs):
//!
//! * **Compile time** — with the `obs` cargo feature off (the crate builds
//!   with `--no-default-features`), every hook body below compiles to
//!   nothing: no `Instant::now()`, no branch on the hot path.
//! * **Run time** — with the feature on (the default), each hook first
//!   checks the per-engine sink ([`Language::enable_obs`] installs it;
//!   engines start with none). Until a sink is installed the only cost is
//!   one branch on an `Option` discriminant the engine already has in
//!   cache; in particular **no clock is read**. The `obs_overhead` bench
//!   gates this at ≤2% recognize-throughput regression.
//!
//! What gets recorded, when enabled: per-phase duration histograms
//! ([`Phase::Derive`], [`Phase::Compact`], [`Phase::Nullable`],
//! [`Phase::AutoRow`], [`Phase::Forest`]) with exact count/sum, and —
//! when tracing is requested too — one Chrome `trace_event` span per
//! recorded phase, exportable via [`pwd_obs::chrome_trace_json`].

use crate::expr::Language;
use pwd_obs::{Phase, PhaseStats, TraceEvent};
use std::time::Instant;

/// The installed sink: phase histograms, plus an optional trace buffer.
#[derive(Debug, Clone)]
pub(crate) struct LangObs {
    pub(crate) phases: PhaseStats,
    pub(crate) trace: Option<TraceState>,
}

/// Trace capture state: a clock zero and the recorded spans.
// With the feature off, `enable_obs` never constructs this, so `zero` is
// only read from feature-gated code.
#[cfg_attr(not(feature = "obs"), allow(dead_code))]
#[derive(Debug, Clone)]
pub(crate) struct TraceState {
    zero: Instant,
    events: Vec<TraceEvent>,
}

impl Language {
    /// Installs (or reinstalls, clearing previous data) the observability
    /// sink: subsequent parses record per-phase duration histograms, and —
    /// with `trace` — individual Chrome-trace spans retrievable via
    /// [`take_trace`](Language::take_trace).
    ///
    /// Phase data accumulates across parses and [`reset`](Language::reset)s
    /// (like the automaton, it is engine-lifetime state);
    /// [`reset_metrics`](Language::reset_metrics) clears it alongside the
    /// counters. Compiled with the `obs` feature off, this is a no-op and
    /// [`obs_enabled`](Language::obs_enabled) stays `false`.
    pub fn enable_obs(&mut self, trace: bool) {
        #[cfg(feature = "obs")]
        {
            self.obs = Some(Box::new(LangObs {
                phases: PhaseStats::new(),
                trace: trace.then(|| TraceState { zero: Instant::now(), events: Vec::new() }),
            }));
        }
        #[cfg(not(feature = "obs"))]
        let _ = trace;
    }

    /// Removes the sink; hooks fall back to the single disabled-check.
    pub fn disable_obs(&mut self) {
        self.obs = None;
    }

    /// Is a sink installed (and the `obs` feature compiled in)?
    #[inline]
    pub fn obs_enabled(&self) -> bool {
        #[cfg(feature = "obs")]
        {
            self.obs.is_some()
        }
        #[cfg(not(feature = "obs"))]
        {
            false
        }
    }

    /// The accumulated per-phase histograms, if observability is enabled.
    pub fn obs_phases(&self) -> Option<&PhaseStats> {
        self.obs.as_ref().map(|o| &o.phases)
    }

    /// Records an externally timed span under `phase` — for layers above
    /// the engine (e.g. error recovery in `derp::api`) whose work spans
    /// several engine calls. Histogram-only: no trace event is emitted,
    /// because the caller's clock zero is not this engine's. A no-op until
    /// [`enable_obs`](Language::enable_obs) installs a sink.
    pub fn note_phase(&mut self, phase: Phase, nanos: u64) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.phases.record(phase, nanos);
        }
    }

    /// Drains the captured trace spans (empty unless
    /// [`enable_obs`](Language::enable_obs) was called with `trace`).
    /// Timestamps are nanoseconds since tracing was enabled.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.obs
            .as_deref_mut()
            .and_then(|o| o.trace.as_mut())
            .map(|t| std::mem::take(&mut t.events))
            .unwrap_or_default()
    }

    /// Approximate resident bytes of the engine's arenas: grammar nodes and
    /// their per-node side tables (labels, memo second slots, template
    /// rows, automaton states), forest nodes, and the pooled
    /// memo/dependency/template storage. An O(1) estimate from arena
    /// lengths (not a malloc census; label text is not counted), intended
    /// for session-size accounting and capacity dashboards.
    pub fn arena_bytes(&self) -> usize {
        use crate::expr::{ClassEntry, DepEntry, MemoEntry, MemoMore, Node, TmplRow};
        use std::mem::size_of;
        self.nodes.len() * size_of::<Node>()
            + self.labels.len() * size_of::<Option<std::sync::Arc<str>>>()
            + self.memo_more.len() * size_of::<MemoMore>()
            + self.tmpl_rows.len() * size_of::<TmplRow>()
            + self.auto.node_states.len() * size_of::<u32>()
            + self.forests.len() * size_of::<pwd_forest::ForestNode>()
            + self.dep_pool.len() * size_of::<DepEntry>()
            + self.memo_pool.len() * size_of::<MemoEntry>()
            + self.class_pool.len() * size_of::<ClassEntry>()
    }

    /// Starts a span clock — `None` (and no clock read) when observability
    /// is off. Pair with [`obs_end`](Language::obs_end).
    #[inline]
    pub(crate) fn obs_start(&self) -> Option<Instant> {
        if self.obs_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Ends a span started by [`obs_start`](Language::obs_start), recording
    /// its duration under `phase` (and as a trace span when tracing).
    #[inline]
    pub(crate) fn obs_end(&mut self, phase: Phase, started: Option<Instant>) {
        #[cfg(feature = "obs")]
        if let Some(t0) = started {
            let dur = t0.elapsed().as_nanos() as u64;
            if let Some(obs) = self.obs.as_deref_mut() {
                obs.phases.record(phase, dur);
                if let Some(tr) = obs.trace.as_mut() {
                    let ts = t0.duration_since(tr.zero).as_nanos() as u64;
                    tr.events.push(TraceEvent::new(phase.as_str(), ts, dur));
                }
            }
        }
        #[cfg(not(feature = "obs"))]
        let _ = (phase, started);
    }

    /// Clears accumulated phase data (keeping the sink installed).
    pub(crate) fn clear_obs_data(&mut self) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.phases = PhaseStats::new();
            if let Some(tr) = obs.trace.as_mut() {
                tr.events.clear();
            }
        }
    }
}

#[cfg(all(test, feature = "obs"))]
mod tests {
    use crate::{Language, ParserConfig};
    use pwd_obs::Phase;

    fn ab_language() -> (Language, crate::NodeId, crate::Token, crate::Token) {
        let mut lang = Language::new(ParserConfig::improved());
        let a = lang.terminal("a");
        let b = lang.terminal("b");
        let (ta, tb) = (lang.term_node(a), lang.term_node(b));
        let s = lang.forward();
        let ab = lang.cat(ta, tb);
        let asb = lang.seq(&[ta, s, tb]);
        let body = lang.alt(ab, asb);
        lang.define(s, body);
        let tok_a = lang.token(a, "a");
        let tok_b = lang.token(b, "b");
        (lang, s, tok_a, tok_b)
    }

    #[test]
    fn disabled_by_default_and_enable_records() {
        let (mut lang, s, a, b) = ab_language();
        assert!(!lang.obs_enabled());
        assert!(lang.obs_phases().is_none());
        let input = vec![a.clone(), a, b.clone(), b];
        assert!(lang.recognize(s, &input).unwrap());
        assert!(lang.obs_phases().is_none(), "no sink, nothing recorded");

        lang.enable_obs(false);
        lang.reset();
        assert!(lang.recognize(s, &input).unwrap());
        let phases = lang.obs_phases().unwrap();
        assert!(phases.get(Phase::Derive).count() > 0, "derive spans recorded");
        assert_eq!(phases.get(Phase::Lex).count(), 0, "engine never lexes");
        assert!(lang.take_trace().is_empty(), "tracing was not requested");
    }

    #[test]
    fn trace_spans_cover_phases() {
        let (mut lang, s, a, b) = ab_language();
        lang.enable_obs(true);
        assert!(lang.recognize(s, &[a.clone(), b.clone()]).unwrap());
        lang.reset();
        let root = lang.parse_forest(s, &[a, b]).unwrap();
        lang.canonical_forest(root).unwrap();
        let events = lang.take_trace();
        assert!(!events.is_empty());
        assert!(events.iter().any(|e| e.name == "derive"), "{events:?}");
        // `parse-null` and canonicalization each record a forest span.
        assert_eq!(events.iter().filter(|e| e.name == "forest").count(), 2, "{events:?}");
        assert!(lang.take_trace().is_empty(), "drained");
    }

    #[test]
    fn arena_bytes_grows_with_parsing() {
        let (mut lang, s, a, b) = ab_language();
        let before = lang.arena_bytes();
        assert!(before > 0);
        assert!(lang.recognize(s, &[a.clone(), a, b.clone(), b]).unwrap());
        assert!(lang.arena_bytes() > before, "derived nodes occupy arena bytes");
    }

    #[test]
    fn reset_metrics_clears_phase_data() {
        let (mut lang, s, a, b) = ab_language();
        lang.enable_obs(false);
        assert!(lang.recognize(s, &[a, b]).unwrap());
        assert!(!lang.obs_phases().unwrap().is_empty());
        lang.reset_metrics();
        assert!(lang.obs_phases().unwrap().is_empty(), "cleared with the counters");
        assert!(lang.obs_enabled(), "sink survives the clear");
    }
}
