//! The recovery zero-interference gate: on **clean** input, a
//! recovery-enabled [`Session`] must stay within 5% of a recovery-off one.
//!
//! The whole recovery design banks on this being cheap: enabling recovery
//! adds one checkpoint (a pointer save) before each feed and a rollback
//! only on failure, so a healthy parse pays for bookkeeping, never for
//! repair search. This bench measures both arms in one process on the
//! lexeme-diverse PL/0 corpus, interleaved round by round, gates the
//! median per-round overhead at ≤ 5%, and writes the evidence to
//! `BENCH_recovery.json`.
//!
//! A second (ungated) pair of samples measures the damaged-input side —
//! mutated programs parsed to a recovered forest — so the trajectory also
//! tracks what repair itself costs over time.
//!
//! Run: `cargo bench -p pwd-bench --bench recovery_bench` (add `-- --smoke`
//! for the quick CI arm, which widens the gate for noisy shared runners).

use criterion::{criterion_group, criterion_main, Criterion};
use derp::api::{Parser, PwdBackend, Session};
use derp::RecoveryBudget;
use pwd_bench::Trajectory;
use pwd_grammar::{gen, grammars};
use pwd_lex::Lexeme;
use std::time::Instant;

/// Same corpus shape as the keying/automaton/obs benches: ~90% of
/// identifier occurrences are first occurrences, so the per-token path —
/// where recovery's checkpoint would hurt — dominates.
const ID_REUSE: f64 = 0.1;
const TOKENS_TARGET: usize = 1000;

/// Clean-input overhead ceiling, percent.
const GATE_PERCENT: f64 = 5.0;

fn corpus() -> Vec<Lexeme> {
    let lx = grammars::pl0::lexer();
    let src = gen::pl0_source(TOKENS_TARGET, 0xEC0_7E5, ID_REUSE);
    lx.tokenize(&src).expect("generated PL/0 tokenizes")
}

/// A lightly damaged copy of the corpus: every ~120th token is dropped, so
/// the damaged arm repairs a handful of real errors per run (the editor
/// workload, not a torture test).
fn damaged(clean: &[Lexeme]) -> Vec<Lexeme> {
    clean.iter().enumerate().filter(|(i, _)| i % 120 != 60).map(|(_, l)| l.clone()).collect()
}

/// Nanoseconds for one full session over `lexemes` — open, optional
/// recovery, feed, finish — on a reused backend.
fn run(backend: &mut PwdBackend, lexemes: &[Lexeme], recovery: bool) -> u128 {
    let t0 = Instant::now();
    let mut session = Session::open(backend as &mut dyn Parser).expect("fresh session");
    if recovery {
        session.enable_recovery(RecoveryBudget::default());
    }
    session.feed_lexemes(lexemes).expect("known kinds");
    let (accepted, diags) = session.finish_with_diagnostics().expect("finish");
    assert!(accepted, "corpus must parse (possibly after repair)");
    std::hint::black_box(diags);
    t0.elapsed().as_nanos()
}

/// Best (minimum) ns of `rounds` sessions over `lexemes`, after warmup.
fn measure(backend: &mut PwdBackend, lexemes: &[Lexeme], recovery: bool, rounds: u32) -> u128 {
    for _ in 0..rounds.div_ceil(4).max(3) {
        run(backend, lexemes, recovery); // warmup
    }
    (0..rounds).map(|_| run(backend, lexemes, recovery)).min().expect("rounds > 0")
}

/// Both clean-input arms measured **interleaved**: each round runs one
/// session of each, alternating which goes first, so scheduler noise and
/// frequency drift hit both arms alike instead of whichever ran second.
/// Returns `(off_ns, on_ns, overhead_percent)`: the best ns of each arm,
/// and the median over rounds of the round's `on / off` ratio, minus one,
/// in percent. A ratio of two minima rests on two lucky rounds, which on a
/// shared host swing by more than the bound; the paired median compares
/// the arms under the same conditions in every round.
fn measure_clean(backend: &mut PwdBackend, lexemes: &[Lexeme], rounds: u32) -> (u128, u128, f64) {
    for _ in 0..rounds.div_ceil(4).max(3) {
        run(backend, lexemes, false); // warmup
        run(backend, lexemes, true);
    }
    let mut best = (u128::MAX, u128::MAX);
    let mut ratios = Vec::with_capacity(rounds as usize);
    for round in 0..rounds {
        let (off, on) = if round % 2 == 0 {
            let off = run(backend, lexemes, false);
            (off, run(backend, lexemes, true))
        } else {
            let on = run(backend, lexemes, true);
            (run(backend, lexemes, false), on)
        };
        best = (best.0.min(off), best.1.min(on));
        ratios.push(on as f64 / off as f64);
    }
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    let median =
        if ratios.len() % 2 == 0 { (ratios[mid - 1] + ratios[mid]) / 2.0 } else { ratios[mid] };
    (best.0, best.1, (median - 1.0) * 100.0)
}

fn bench_recovery(c: &mut Criterion) {
    let clean = corpus();
    let broken = damaged(&clean);
    let tokens = clean.len();
    let cfg = grammars::pl0::cfg();
    let mut backend = PwdBackend::improved(&cfg);

    // Criterion group for local inspection; the gate runs on the
    // interleaved measurement below.
    let mut group = c.benchmark_group("recovery");
    group
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1));
    for (label, recovery) in [("clean/recovery_off", false), ("clean/recovery_on", true)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut session =
                    Session::open(&mut backend as &mut dyn Parser).expect("fresh session");
                if recovery {
                    session.enable_recovery(RecoveryBudget::default());
                }
                session.feed_lexemes(&clean).expect("known kinds");
                assert!(session.finish().expect("finish"));
            })
        });
    }
    group.finish();

    let smoke = std::env::args().any(|a| a == "--smoke");
    let rounds = if smoke { 20u32 } else { 50 };
    let (off, on, overhead) = measure_clean(&mut backend, &clean, rounds);
    // The paired median still jitters a few percent on shared CI runners;
    // `--smoke` widens the ceiling so the gate catches a structural
    // regression (repair search running on healthy feeds, which costs
    // multiples), not timer luck.
    let gate = if smoke { GATE_PERCENT + 5.0 } else { GATE_PERCENT };

    let mut traj = Trajectory::new("recovery");
    traj.record(&format!("tokens={tokens}/clean_recovery_off_ns"), off as f64, "ns");
    traj.record(&format!("tokens={tokens}/clean_recovery_on_ns"), on as f64, "ns");
    traj.gate(
        &format!("tokens={tokens}/clean_overhead_percent"),
        overhead,
        "percent",
        overhead <= gate,
    );

    // Damaged-input trajectory (ungated): what repair itself costs.
    let repaired = measure(&mut backend, &broken, true, rounds.div_ceil(2));
    traj.record(&format!("tokens={}/damaged_recovery_on_ns", broken.len()), repaired as f64, "ns");
    traj.record(
        &format!("tokens={}/damaged_repair_slowdown", broken.len()),
        repaired as f64 / on as f64,
        "ratio",
    );
    traj.write(env!("CARGO_MANIFEST_DIR"));

    assert!(
        overhead <= gate,
        "recovery must be free on clean input: ≤{gate}% overhead required \
         ({tokens} tokens: median paired overhead {overhead:.2}%, best {off} ns off, {on} ns on)"
    );
}

criterion_group!(benches, bench_recovery);
criterion_main!(benches);
