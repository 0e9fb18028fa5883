//! Observability accounting properties: the per-phase histograms `pwd-obs`
//! aggregates are *exactly* additive — a fleet total assembled with
//! `PhaseStats::merge` from per-fork snapshots equals the scalar sums of
//! its parts to the last sample and nanosecond, in any merge order — and
//! span counts are workload-determined: a batch recognition and a
//! chunked-streaming session of the same input record the same derive
//! spans, exactly one per fed token, and differ at most in the
//! sentence-hood probes the streaming caller asks for.
//!
//! The same contract holds one layer up: a `ParseService` batch fans out
//! over worker threads that each keep local histogram samples and fold
//! them into the shared store once — the exposed request/execute counts
//! must equal the number of inputs, with no sample lost or double-counted
//! in the fold.
#![cfg(feature = "obs")]

use derp::api::{Parser, PwdBackend, Session};
use derp::core::{AutomatonMode, MemoKeying, ParserConfig};
use derp::grammar::{gen, grammars};
use derp::obs::{Phase, PhaseStats};
use proptest::prelude::*;
use pwd_lex::Lexeme;
use pwd_serve::{Input, ParseService, ServiceConfig};

/// The engine under test: class-keyed, automaton off. With the lazy
/// automaton on, warm tokens step through dense table rows and record *no*
/// derive span, which would make span counts depend on table warmth rather
/// than on the workload — the property below needs one derive span per
/// token, deterministically.
fn prototype() -> PwdBackend {
    let config = ParserConfig {
        keying: MemoKeying::ByClass,
        automaton: AutomatonMode::Off,
        ..ParserConfig::improved()
    };
    PwdBackend::with_config(&grammars::pl0::cfg(), config, "pwd-obs-accounting")
}

/// Small lexeme-diverse PL/0 programs (deterministic per seed).
fn corpus(n: usize, seed: u64) -> Vec<Vec<Lexeme>> {
    let lx = grammars::pl0::lexer();
    (0..n)
        .map(|i| {
            let src = gen::pl0_source(20 + 10 * (i % 3), seed + i as u64, 0.1);
            lx.tokenize(&src).expect("generated PL/0 tokenizes")
        })
        .collect()
}

/// Feeds one input through a fresh streaming session on `backend` and
/// returns the per-phase histograms the run recorded (snapshot taken while
/// the session is still open, so it covers exactly the feeds).
fn streamed_phases(backend: &mut dyn Parser, lexemes: &[Lexeme]) -> PhaseStats {
    backend.set_obs(true);
    let mut session = Session::open(backend).expect("no session already open");
    for lx in lexemes {
        session.feed(&lx.kind, &lx.text).expect("grammar kind feeds");
    }
    let phases = *session.metrics().phases.expect("observability is enabled");
    session.finish().expect("session finishes");
    phases
}

/// Feeds one input through a fresh session in a single `feed_lexemes` call
/// and returns the recorded phases (snapshot taken while the session is
/// still open).
fn one_call_phases(backend: &mut dyn Parser, lexemes: &[Lexeme]) -> PhaseStats {
    backend.set_obs(true);
    let mut session = Session::open(backend).expect("no session already open");
    session.feed_lexemes(lexemes).expect("grammar kinds feed");
    let phases = *session.metrics().phases.expect("observability is enabled");
    session.finish().expect("session finishes");
    phases
}

/// Runs one input as a single batch call and returns the recorded phases.
fn batch_phases(backend: &mut dyn Parser, lexemes: &[Lexeme]) -> PhaseStats {
    backend.set_obs(true);
    assert!(backend.recognize_lexemes(lexemes).expect("corpus parses"), "corpus accepts");
    *backend.metrics().phases.expect("observability is enabled")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fork-fleet additivity: distribute a workload over forked sessions
    /// (the pool's unit of concurrency), snapshot each run's histograms,
    /// and assemble the fleet total two ways — `PhaseStats::merge` in two
    /// different orders, and independent scalar sums of each phase's
    /// count/sum. All three agree exactly, and the fleet derive count is
    /// the workload's token count.
    #[test]
    fn fork_fleet_histograms_are_exactly_additive(
        seed in 0u64..1000,
        forks in 1usize..4,
        n_inputs in 1usize..7,
    ) {
        let inputs = corpus(n_inputs, 0xACC0 + seed);
        let proto = prototype();
        let mut fleet: Vec<Box<dyn Parser>> = (0..forks).map(|_| proto.fork()).collect();

        // Round-robin the inputs over the forks, one snapshot per run.
        let mut parts: Vec<PhaseStats> = Vec::new();
        for (i, lexemes) in inputs.iter().enumerate() {
            parts.push(streamed_phases(&mut *fleet[i % forks], lexemes));
        }

        // Fleet total, folded forward and folded in reverse.
        let mut forward = PhaseStats::new();
        for p in &parts {
            forward.merge(p);
        }
        let mut reverse = PhaseStats::new();
        for p in parts.iter().rev() {
            reverse.merge(p);
        }
        prop_assert_eq!(&forward, &reverse, "merge order must not matter");

        // Merge agrees with the scalar sums, phase by phase, exactly.
        for phase in Phase::ALL {
            let count: u64 = parts.iter().map(|p| p.get(phase).count()).sum();
            let sum: u64 = parts.iter().map(|p| p.get(phase).sum()).sum();
            prop_assert_eq!(forward.get(phase).count(), count, "{} count", phase);
            prop_assert_eq!(forward.get(phase).sum(), sum, "{} sum", phase);
        }

        // The derive histogram counts the workload: one span per fed token.
        let tokens: u64 = inputs.iter().map(|l| l.len() as u64).sum();
        prop_assert_eq!(forward.get(Phase::Derive).count(), tokens);
    }

    /// Batch vs streaming: the same input run as one batch call, as a
    /// session fed in one call, and as a token-by-token session on
    /// identical forks records the same number of spans in every engine
    /// phase — span counts come from the workload, not from how the tokens
    /// arrived. The one exception is `nullable`: feeding pays for no
    /// sentence-hood probe, so each token-by-token `Session::feed`, which
    /// asks for one, may add at most one probe per token.
    #[test]
    fn batch_and_streamed_runs_record_identical_span_counts(seed in 0u64..1000) {
        let inputs = corpus(3, 0xBA7C + seed);
        let proto = prototype();
        for lexemes in &inputs {
            let batch = batch_phases(&mut *proto.fork(), lexemes);
            let one_call = one_call_phases(&mut *proto.fork(), lexemes);
            let streamed = streamed_phases(&mut *proto.fork(), lexemes);
            for phase in Phase::ALL {
                prop_assert_eq!(
                    batch.get(phase).count(),
                    one_call.get(phase).count(),
                    "{} span count (batch vs one feed call)", phase
                );
                if phase == Phase::Nullable {
                    continue;
                }
                prop_assert_eq!(
                    batch.get(phase).count(),
                    streamed.get(phase).count(),
                    "{} span count (batch vs streamed)", phase
                );
            }
            let (batch_probes, streamed_probes) =
                (batch.get(Phase::Nullable).count(), streamed.get(Phase::Nullable).count());
            prop_assert!(
                batch_probes <= streamed_probes
                    && streamed_probes <= batch_probes + lexemes.len() as u64,
                "nullable spans: batch {} vs streamed {} over {} tokens",
                batch_probes, streamed_probes, lexemes.len()
            );
            prop_assert_eq!(batch.get(Phase::Derive).count(), lexemes.len() as u64);
        }
    }
}

/// Sums every sample of a Prometheus counter/histogram series (across all
/// label sets) out of a `metrics_text()` exposition.
fn series_total(text: &str, series: &str) -> u64 {
    text.lines()
        .filter(|l| l.starts_with(series) && (l.as_bytes().get(series.len()) == Some(&b'{')))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().expect("integer sample"))
        .sum()
}

/// Service-level fold: a multi-worker batch must surface exactly one
/// queue-wait and one execute sample per input in `metrics_text()` — the
/// per-worker local histograms lose nothing in the fold — plus one
/// whole-batch request sample.
#[test]
fn service_batch_obs_counts_survive_the_worker_fold() {
    let service = ParseService::new(ServiceConfig {
        workers: 3,
        observability: true,
        ..ServiceConfig::default()
    });
    let cfg = grammars::pl0::cfg();
    let lx = grammars::pl0::lexer();
    let inputs: Vec<Input> = (0..10)
        .map(|i| {
            let src = gen::pl0_source(20, 0x0B5 + i as u64, 0.1);
            Input::from_lexemes(lx.tokenize(&src).expect("tokenizes"))
        })
        .collect();
    let report = service.submit_batch(&cfg, &inputs).expect("batch runs");
    assert_eq!(report.outcomes.len(), inputs.len());

    let text = service.metrics_text();
    let queued = series_total(&text, "pwd_serve_queue_wait_ns_count");
    let executed = series_total(&text, "pwd_serve_execute_ns_count");
    let requests = series_total(&text, "pwd_serve_request_duration_ns_count");
    assert_eq!(queued, inputs.len() as u64, "one queue-wait sample per input\n{text}");
    assert_eq!(executed, inputs.len() as u64, "one execute sample per input\n{text}");
    assert_eq!(requests, 1, "one whole-batch request sample\n{text}");
}
