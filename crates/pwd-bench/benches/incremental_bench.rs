//! Bench for the incremental-reparse tentpole: per-keystroke edit latency
//! via [`Session::splice_tokens`] vs truncate-and-refeed, on a PL/0
//! (superset) buffer of ~10k tokens, with single-token edits at the head,
//! middle, and tail of the buffer.
//!
//! The splice arm holds one long-lived incremental session: each edit rolls
//! back to the nearest checkpoint-ladder rung below the damage, refeeds the
//! bounded catch-up window, and (recognize mode) convergence-jumps over the
//! suffix the moment the post-edit derivative state matches the memoized
//! pre-edit state. The baseline arm is the best a non-incremental session
//! can do — and a *favorable* version of it: a user checkpoint sits exactly
//! at the edit position (zero rollback distance), so the baseline pays only
//! the suffix refeed that truncate-and-refeed fundamentally cannot avoid.
//!
//! The gate: a mid-buffer single-token edit must be **≥10× faster** spliced
//! than truncated-and-refed, on both PWD recognize engines — the lazy
//! automaton (interned state ids) and the interpreted engine (graph
//! digests). Under `--smoke` the corpus shrinks and the threshold relaxes
//! to a sanity check; the samples are the trajectory either way.
//!
//! Emits `BENCH_incremental.json` in the shared [`pwd_bench::Trajectory`]
//! schema.
//!
//! Run: `cargo bench -p pwd-bench --bench incremental_bench`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use derp::api::{Parser, PwdBackend, Session, SpliceOutcome};
use pwd_bench::Trajectory;
use pwd_core::{AutomatonMode, MemoKeying, ParseMode, ParserConfig};
use pwd_grammar::{gen, grammars};
use pwd_lex::{Lexeme, SharedStr};
use std::time::Instant;

/// Moderate identifier reuse: realistic source, and the class-keyed memo
/// still sees fresh lexemes at every edit.
const ID_REUSE: f64 = 0.3;

fn config(automaton: AutomatonMode) -> ParserConfig {
    ParserConfig {
        mode: ParseMode::Recognize,
        keying: MemoKeying::ByClass,
        automaton,
        ..ParserConfig::improved()
    }
}

/// A replacement text for the token at `at`: another text of the same kind
/// from elsewhere in the buffer when one exists (a realistic "retype the
/// identifier" keystroke), else the original text.
fn replacement_for(lexemes: &[Lexeme], at: usize) -> SharedStr {
    let target = &lexemes[at];
    lexemes
        .iter()
        .find(|l| l.kind == target.kind && l.text != target.text)
        .map_or_else(|| target.text.clone(), |l| l.text.clone())
}

/// Best (minimum) ns per spliced single-token edit at `at`, on one
/// long-lived incremental session. Edits alternate between the replacement
/// and the original text so every round is a real change. Also returns the
/// last edit's [`SpliceOutcome`] for the reuse accounting.
fn measure_splice(
    grammar: &pwd_grammar::Cfg,
    automaton: AutomatonMode,
    lexemes: &[Lexeme],
    at: usize,
    rounds: u32,
) -> (u128, SpliceOutcome) {
    let mut backend = PwdBackend::with_config(grammar, config(automaton), "pwd-incremental");
    let mut session = Session::open(&mut backend as &mut dyn Parser).expect("session opens");
    session.enable_incremental().expect("fresh session");
    session.feed_lexemes(lexemes).expect("corpus feeds");
    let texts = [replacement_for(lexemes, at), lexemes[at].text.clone()];
    let kind = lexemes[at].kind.clone();
    let mut best = u128::MAX;
    let mut last = None;
    for round in 0..rounds + 2 {
        let text = texts[(round % 2) as usize].as_str();
        let t0 = Instant::now();
        let out = session.splice_tokens(at, 1, &[(kind.as_str(), text)]).expect("splice applies");
        let ns = t0.elapsed().as_nanos();
        if round >= 2 {
            // First two rounds are warmup (they densify the ladder around
            // the edit point, exactly as a real editing session would).
            best = best.min(ns);
        }
        last = Some(out);
    }
    (best, last.expect("at least one round"))
}

/// Best (minimum) ns per truncate-and-refeed edit at `at`: rollback to a
/// checkpoint taken exactly at the edit position, then refeed the edited
/// token and the entire suffix.
fn measure_baseline(
    grammar: &pwd_grammar::Cfg,
    automaton: AutomatonMode,
    lexemes: &[Lexeme],
    at: usize,
    rounds: u32,
) -> u128 {
    let mut backend = PwdBackend::with_config(grammar, config(automaton), "pwd-truncate");
    let mut session = Session::open(&mut backend as &mut dyn Parser).expect("session opens");
    session.feed_lexemes(&lexemes[..at]).expect("prefix feeds");
    let cp = session.checkpoint().expect("checkpoint");
    session.feed_lexemes(&lexemes[at..]).expect("suffix feeds");
    let mut edited = lexemes[at..].to_vec();
    edited[0].text = replacement_for(lexemes, at);
    let original = lexemes[at..].to_vec();
    let arms = [&edited, &original];
    let mut best = u128::MAX;
    for round in 0..rounds + 2 {
        let suffix = arms[(round % 2) as usize];
        let t0 = Instant::now();
        session.rollback(&cp).expect("checkpoint restores");
        session.feed_lexemes(suffix).expect("suffix refeeds");
        let ns = t0.elapsed().as_nanos();
        if round >= 2 {
            best = best.min(ns);
        }
    }
    best
}

fn bench_incremental(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let target = if smoke { 2_000 } else { 10_000 };
    let rounds = if smoke { 6u32 } else { 16 };
    let grammar = grammars::pl0::cfg();
    let lexer = grammars::pl0::lexer();
    let src = gen::pl0_source(target, 0x1C4E, ID_REUSE);
    let lexemes = lexer.tokenize(&src).expect("generated PL/0 tokenizes");
    let n = lexemes.len();
    let positions = [("head", 50usize.min(n / 4)), ("middle", n / 2), ("tail", n - 50)];
    let arms = [("automaton", AutomatonMode::Lazy), ("interpreted", AutomatonMode::Off)];

    // Criterion timings for the mid-buffer splice on both engines.
    let mut group = c.benchmark_group("incremental");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1));
    for (arm, automaton) in arms {
        let at = n / 2;
        let mut backend = PwdBackend::with_config(&grammar, config(automaton), "pwd-incremental");
        let mut session = Session::open(&mut backend as &mut dyn Parser).expect("session opens");
        session.enable_incremental().expect("fresh session");
        session.feed_lexemes(&lexemes).expect("corpus feeds");
        let texts = [replacement_for(&lexemes, at), lexemes[at].text.clone()];
        let kind = lexemes[at].kind.clone();
        let mut flip = 0usize;
        group.bench_with_input(BenchmarkId::new("splice_middle", arm), &n, |b, _| {
            b.iter(|| {
                flip += 1;
                session
                    .splice_tokens(at, 1, &[(kind.as_str(), texts[flip % 2].as_str())])
                    .expect("splice applies")
            })
        });
    }
    group.finish();

    // Trajectory samples + the tentpole gate, measured outside criterion.
    let mut traj = Trajectory::new("incremental");
    traj.record("tokens", n as f64, "tokens");
    let gate = if smoke { 2.0 } else { 10.0 };
    for (arm, automaton) in arms {
        for (label, at) in positions {
            let (splice_ns, out) = measure_splice(&grammar, automaton, &lexemes, at, rounds);
            let baseline_ns = measure_baseline(&grammar, automaton, &lexemes, at, rounds);
            let speedup = baseline_ns as f64 / splice_ns as f64;
            traj.record(&format!("{arm}/at={label}/splice_ns"), splice_ns as f64, "ns");
            traj.record(&format!("{arm}/at={label}/truncate_refeed_ns"), baseline_ns as f64, "ns");
            traj.record(&format!("{arm}/at={label}/tokens_refed"), out.refed as f64, "tokens");
            traj.record(&format!("{arm}/at={label}/tokens_reused"), out.reused as f64, "tokens");
            if label == "middle" {
                // The tentpole gate: a mid-buffer keystroke must beat
                // truncate-and-refeed by an order of magnitude, on both
                // recognize engines.
                traj.gate(&format!("{arm}/at={label}/speedup"), speedup, "ratio", speedup >= gate);
                traj.write(env!("CARGO_MANIFEST_DIR"));
                assert!(
                    speedup >= gate,
                    "{arm}: mid-buffer splice must be ≥{gate}× vs truncate-and-refeed \
                     ({splice_ns} vs {baseline_ns} ns over {n} tokens)"
                );
            } else {
                traj.record(&format!("{arm}/at={label}/speedup"), speedup, "ratio");
            }
        }
    }
    traj.write(env!("CARGO_MANIFEST_DIR"));
}

criterion_group!(benches, bench_incremental);
criterion_main!(benches);
