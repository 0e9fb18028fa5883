//! Corpus acceptance gate for error recovery: on a 1000-program corpus of
//! token-mutated PL/0 (1–3 mutations each, filtered to genuinely malformed
//! inputs), every backend in the roster must repair at least 90% of the
//! corpus to a **non-empty forest** with at least one **spanned**
//! diagnostic, inside the default [`RecoveryBudget`].
//!
//! This is the paper-facing robustness claim in executable form: bounded
//! local repair (skip/insert/substitute plus the end-of-input completion
//! search) is enough to resume real-language parses after the kind of
//! damage an editor sees mid-keystroke — not just on PWD, but uniformly
//! across the Earley and GLR baselines driving the same recovery engine.

use derp::api::{backends, PwdBackend, Recognizer, Session};
use derp::grammar::{gen, grammars};
use derp::lex::Lexeme;
use derp::RecoveryBudget;

/// Deterministic split-mix RNG — keeps the corpus identical across runs
/// and platforms without pulling in an RNG dependency.
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

/// Wrong-token pool for substitution mutations: grammar terminals with
/// plausible texts, so the mutant stays lexable but (usually) unparsable.
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
    ("+", "+"),
    ("odd", "odd"),
    ("]", "]"),
];

/// Applies 1–3 token-level mutations (delete / duplicate / substitute) to
/// a lexed program. Offsets of surviving tokens are kept, so diagnostics
/// still point into the original source.
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

/// Builds the corpus: `n` mutants that a recovery-off parse genuinely
/// rejects (mutations that happen to stay inside the language are
/// discarded — there would be nothing to recover from).
fn malformed_corpus(n: usize) -> Vec<(String, Vec<Lexeme>)> {
    let cfg = grammars::pl0::cfg();
    let lexer = grammars::pl0::lexer();
    let mut oracle = PwdBackend::improved(&cfg);
    let mut rng = Rng(0x5EED_0008);
    let mut corpus = Vec::new();
    let mut attempts = 0usize;
    while corpus.len() < n {
        attempts += 1;
        assert!(attempts < n * 20, "corpus generation stalled at {}", corpus.len());
        let src = gen::pl0_source(18 + rng.below(16), rng.next(), 0.6);
        let Ok(clean) = lexer.tokenize(&src) else { continue };
        let mutant = mutate(&mut rng, &clean);
        // Recovery-off oracle: keep only genuinely malformed mutants.
        if oracle.recognize(&kinds_of(&mutant)).map_or(true, |accepted| accepted) {
            continue;
        }
        corpus.push((src, mutant));
    }
    corpus
}

#[test]
fn ninety_percent_of_mutants_recover_with_spanned_diagnostics() {
    const N: usize = 1000;
    let cfg = grammars::pl0::cfg();
    let corpus = malformed_corpus(N);

    for backend in backends(&cfg).iter_mut() {
        let name = backend.name();
        let mut recovered = 0usize;
        let mut first_failure: Option<String> = None;
        for (src, mutant) in &corpus {
            let mut session = Session::open(backend.as_mut()).expect("fresh session");
            session.enable_recovery(RecoveryBudget::default());
            let ok = session
                .feed_lexemes(mutant)
                .and_then(|_| session.finish_forest_diagnostics())
                .map(|(forest, diags)| {
                    if std::env::var("CORPUS_DEBUG").is_ok()
                        && !(forest.has_tree() && diags.iter().any(|d| d.span.is_some()))
                    {
                        println!(
                            "FAIL tree={} spanned={} ndiags={} kinds={:?} msgs={:?}",
                            forest.has_tree(),
                            diags.iter().any(|d| d.span.is_some()),
                            diags.len(),
                            kinds_of(mutant),
                            diags.iter().map(|d| d.message.as_str()).collect::<Vec<_>>()
                        );
                    }
                    forest.has_tree() && diags.iter().any(|d| d.span.is_some())
                })
                .unwrap_or(false);
            if ok {
                recovered += 1;
            } else if first_failure.is_none() {
                first_failure = Some(format!("{src:?} -> {:?}", kinds_of(mutant)));
            }
        }
        let pct = recovered as f64 / corpus.len() as f64 * 100.0;
        assert!(
            recovered * 10 >= corpus.len() * 9,
            "{name}: only {recovered}/{} mutants ({pct:.1}%) recovered to a \
             non-empty forest with a spanned diagnostic; first failure: {}",
            corpus.len(),
            first_failure.as_deref().unwrap_or("-"),
        );
    }
}
