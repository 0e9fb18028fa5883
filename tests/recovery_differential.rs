//! Differential testing of the recovery engine across parser families:
//! the same bounded-repair search drives PWD, Earley, and GLR through one
//! [`Session`] interface, so on the same damaged input every backend must
//! tell the same story — same recovered verdict, same number of
//! diagnostics, and the same primary (first) error location and repair.
//!
//! The second half is the zero-interference guarantee: on **clean** input,
//! a recovery-enabled session is byte-identical to a recovery-off one —
//! same verdict, same canonical forest fingerprint, zero diagnostics.

use derp::api::{backends, PwdBackend, Recognizer, Session};
use derp::grammar::{gen, grammars};
use derp::lex::Lexeme;
use derp::{RecoveryBudget, RepairKind};

/// Deterministic split-mix RNG (same scheme as the corpus gate).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const SUBSTITUTES: &[(&str, &str)] = &[
    (";", ";"),
    (".", "."),
    ("then", "then"),
    ("do", "do"),
    ("end", "end"),
    (")", ")"),
    ("(", "("),
    (":=", ":="),
    ("NUM", "99"),
];

fn mutate(rng: &mut Rng, clean: &[Lexeme]) -> Vec<Lexeme> {
    let mut toks = clean.to_vec();
    for _ in 0..rng.below(3) + 1 {
        if toks.len() < 2 {
            break;
        }
        let i = rng.below(toks.len());
        match rng.below(3) {
            0 => {
                toks.remove(i);
            }
            1 => {
                let dup = toks[i].clone();
                toks.insert(i, dup);
            }
            _ => {
                let (kind, text) = SUBSTITUTES[rng.below(SUBSTITUTES.len())];
                if toks[i].kind != kind {
                    toks[i].kind = kind.into();
                    toks[i].text = text.into();
                }
            }
        }
    }
    toks
}

fn kinds_of(toks: &[Lexeme]) -> Vec<&str> {
    toks.iter().map(|l| l.kind.as_str()).collect()
}

/// The primary (first) error, as (token index, span bounds, repair).
type Primary = (usize, Option<(usize, usize)>, Option<RepairKind>);

/// What one backend reports about one damaged input, reduced to the facts
/// every backend must agree on. Expected-kind lists are deliberately
/// excluded: each family reports its frontier in its own vocabulary.
#[derive(Debug, PartialEq, Eq)]
struct Report {
    verdict: bool,
    diag_count: usize,
    primary: Option<Primary>,
}

fn report(backend: &mut dyn derp::api::Parser, input: &[Lexeme]) -> Report {
    let mut session = Session::open(backend).expect("fresh session");
    session.enable_recovery(RecoveryBudget::default());
    let (verdict, diags) = session
        .feed_lexemes(input)
        .and_then(|_| session.finish_with_diagnostics())
        .expect("recovery sessions don't error on known kinds");
    Report {
        verdict,
        diag_count: diags.len(),
        primary: diags.first().map(|d| {
            (
                d.token_index,
                d.span.map(|s| (s.start, s.end)),
                d.repair.as_ref().map(|r| r.kind.clone()),
            )
        }),
    }
}

/// Seeded mutants of PL/0 programs: all backends in the roster produce the
/// same recovered verdict, the same diagnostic count, and the same primary
/// error (token index, span, repair) as the PWD reference.
#[test]
fn backends_agree_on_recovered_verdicts_and_primary_diagnostics() {
    const N: usize = 150;
    let cfg = grammars::pl0::cfg();
    let lexer = grammars::pl0::lexer();
    let mut oracle = PwdBackend::improved(&cfg);
    let mut rng = Rng(0xD1FF_0008);
    let mut corpus: Vec<Vec<Lexeme>> = Vec::new();
    let mut attempts = 0usize;
    while corpus.len() < N {
        attempts += 1;
        assert!(attempts < N * 20, "corpus generation stalled at {}", corpus.len());
        let src = gen::pl0_source(16 + rng.below(14), rng.next(), 0.6);
        let Ok(clean) = lexer.tokenize(&src) else { continue };
        let mutant = mutate(&mut rng, &clean);
        if oracle.recognize(&kinds_of(&mutant)).map_or(true, |accepted| accepted) {
            continue;
        }
        corpus.push(mutant);
    }

    let mut roster = backends(&cfg);
    let mut agreements = 0usize;
    for (i, mutant) in corpus.iter().enumerate() {
        let mut reports = Vec::new();
        for backend in roster.iter_mut() {
            let name = backend.name();
            reports.push((name, report(backend.as_mut(), mutant)));
        }
        let (ref_name, reference) = &reports[0];
        for (name, rep) in &reports[1..] {
            assert_eq!(
                rep,
                reference,
                "mutant #{i} {:?}: {name} diverges from {ref_name}",
                kinds_of(mutant)
            );
        }
        agreements += 1;
    }
    assert_eq!(agreements, N);
}

/// Clean inputs with recovery enabled: zero diagnostics, and the verdict
/// and canonical forest fingerprint are identical to a recovery-off
/// session — proof that the recovery plumbing (checkpointing, lookahead
/// windows, EOF completion probing) never perturbs a healthy parse.
#[test]
fn clean_inputs_are_byte_identical_with_recovery_on() {
    let cfg = grammars::pl0::cfg();
    let lexer = grammars::pl0::lexer();
    let mut rng = Rng(0xC1EA_0008);
    let programs: Vec<Vec<Lexeme>> = (0..30)
        .map(|_| {
            let src = gen::pl0_source(14 + rng.below(20), rng.next(), 0.5);
            lexer.tokenize(&src).expect("generated PL/0 tokenizes")
        })
        .collect();
    for backend in backends(&cfg).iter_mut() {
        let name = backend.name();
        for (i, program) in programs.iter().enumerate() {
            let mut off_session = Session::open(backend.as_mut()).expect("fresh session");
            let (off_forest, off_diags) = off_session
                .feed_lexemes(program)
                .and_then(|_| off_session.finish_forest_diagnostics())
                .unwrap_or_else(|e| panic!("{name} #{i} recovery-off: {e}"));

            let mut on_session = Session::open(backend.as_mut()).expect("fresh session");
            on_session.enable_recovery(RecoveryBudget::default());
            let (on_forest, on_diags) = on_session
                .feed_lexemes(program)
                .and_then(|_| on_session.finish_forest_diagnostics())
                .unwrap_or_else(|e| panic!("{name} #{i} recovery-on: {e}"));

            assert!(off_diags.is_empty(), "{name} #{i}: recovery-off diagnostics");
            assert!(
                on_diags.is_empty(),
                "{name} #{i}: clean input produced diagnostics under recovery: {on_diags:?}"
            );
            assert!(off_forest.has_tree(), "{name} #{i}: clean program must parse");
            assert_eq!(
                on_forest.fingerprint(),
                off_forest.fingerprint(),
                "{name} #{i}: forest fingerprint differs with recovery enabled"
            );
        }
    }
}
