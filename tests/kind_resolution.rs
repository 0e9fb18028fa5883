//! Lexed kinds reach every backend as integers: a lexeme names its kind by
//! index into its lexer's table, and each backend maps that table to its
//! grammar's terminals once, keeping the map across requests for the last
//! table it met. These tests feed the same tokens once by kind name (the
//! string path, resolved by name per token) and once as lexemes or as a
//! lexer's token source (the integer path), on `pwd-dfa`, `pwd-improved`,
//! `earley` and `glr`, and require the same verdicts, forests and errors:
//! across two lexers whose tables order the kinds differently, across a
//! lexer dropped and another built in its place, for hand-built lexemes,
//! and for a kind outside the grammar, with and without recovery.

use derp::api::{backend_by_name, BackendError, ForestSummary, ParseCount, Parser, Session};
use derp::grammar::{gen, grammars, Cfg};
use derp::lex::{Lexeme, Lexer, LexerBuilder};
use derp::{Diagnostic, RecoveryBudget};

const BACKENDS: [&str; 4] = ["pwd-dfa", "pwd-improved", "earley", "glr"];

/// The arithmetic grammar's lexer (`NUM`, then the operators, then the
/// brackets), its rules in `order`, plus a `BANG` rule the grammar has no
/// terminal for.
fn lexer(order: &[usize]) -> Lexer {
    let rules = [
        ("NUM", r"[0-9]+"),
        ("+", r"\+"),
        ("-", r"-"),
        ("*", r"\*"),
        ("/", r"/"),
        ("(", r"\("),
        (")", r"\)"),
        ("BANG", "!"),
    ];
    let mut b = LexerBuilder::new();
    for &i in order {
        b = b.rule(rules[i].0, rules[i].1).expect("valid pattern");
    }
    b.skip("WS", r"[ \t\n]+").expect("valid pattern").build()
}

const FORWARD: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 7];
const BACKWARD: [usize; 8] = [7, 6, 5, 4, 3, 2, 1, 0];

/// Accepted and rejected arithmetic documents.
fn documents() -> Vec<String> {
    (0..8)
        .map(|i| {
            let doc = gen::arith_source(6 + 5 * i, 0xC0DE + i as u64);
            if i % 3 == 2 {
                doc + " *"
            } else {
                doc
            }
        })
        .collect()
}

/// What a request answers: the verdict, and the forest where the backend
/// builds one.
#[derive(Debug, PartialEq)]
enum Answer {
    Verdict(bool),
    Forest(ForestSummary),
}

fn finish(session: Session<'_>, forests: bool) -> Answer {
    if forests {
        Answer::Forest(session.finish_forest().expect("finishes").summary())
    } else {
        Answer::Verdict(session.finish().expect("finishes"))
    }
}

/// The answer of feeding `lexemes` one by one by kind name.
fn by_name(backend: &mut dyn Parser, lexemes: &[Lexeme], forests: bool) -> Answer {
    let mut s = Session::open(backend).expect("opens");
    for l in lexemes {
        s.feed(l.kind.as_str(), l.text.as_str()).expect("grammar kinds");
    }
    finish(s, forests)
}

/// The answer of feeding `lexemes` as lexemes.
fn lexed(backend: &mut dyn Parser, lexemes: &[Lexeme], forests: bool) -> Answer {
    let mut s = Session::open(backend).expect("opens");
    s.feed_lexemes(lexemes).expect("grammar kinds");
    finish(s, forests)
}

/// Each backend of the roster, with whether it builds forests.
fn roster(cfg: &Cfg) -> Vec<(&'static str, Box<dyn Parser>, bool)> {
    BACKENDS
        .iter()
        .map(|&name| {
            let backend = backend_by_name(name, cfg).expect("a roster name");
            (name, backend, name != "pwd-dfa")
        })
        .collect()
}

#[test]
fn lexemes_of_two_lexers_interleaved_through_one_backend_match_kind_names() {
    let cfg = grammars::arith::cfg();
    let (forward, backward) = (lexer(&FORWARD), lexer(&BACKWARD));
    for (name, mut pooled, forests) in roster(&cfg) {
        let mut reference = backend_by_name(name, &cfg).expect("a roster name");
        for (i, doc) in documents().iter().enumerate() {
            let a = forward.tokenize(doc).expect("lexes");
            let b = backward.tokenize(doc).expect("lexes");
            assert_eq!(a, b, "both lexers cut {doc:?} alike");
            let want = by_name(reference.as_mut(), &a, forests);
            // Requests alternate between the lexers, and one request mixes
            // them token by token.
            let (first, second) = if i % 2 == 0 { (&a, &b) } else { (&b, &a) };
            let mixed: Vec<Lexeme> =
                a.iter().zip(&b).enumerate().map(|(j, (x, y))| [x, y][j % 2].clone()).collect();
            for lexemes in [first, second, &mixed] {
                assert_eq!(lexed(pooled.as_mut(), lexemes, forests), want, "{name}: {doc:?}");
            }
            let verdict = match want {
                Answer::Verdict(verdict) => verdict,
                Answer::Forest(f) => f.count != ParseCount::Finite(0),
            };
            for lexemes in [&a, &b] {
                assert_eq!(pooled.recognize_lexemes(lexemes), Ok(verdict), "{name}: {doc:?}");
            }
            for lexer in [&forward, &backward] {
                let got = pooled.recognize_source(&mut lexer.source(doc));
                assert_eq!(got, Ok(verdict), "{name}: {doc:?} from a token source");
            }
        }
    }
}

#[test]
fn a_lexer_built_after_another_was_dropped_resolves_its_own_kinds() {
    let cfg = grammars::arith::cfg();
    for (name, mut pooled, forests) in roster(&cfg) {
        let mut reference = backend_by_name(name, &cfg).expect("a roster name");
        for (round, doc) in documents().iter().enumerate() {
            // Each round's lexer orders its kinds unlike the last one and is
            // dropped, with its lexemes, before the next is built.
            let lexemes = lexer(if round % 2 == 0 { &FORWARD } else { &BACKWARD })
                .tokenize(doc)
                .expect("lexes");
            let want = by_name(reference.as_mut(), &lexemes, forests);
            assert_eq!(lexed(pooled.as_mut(), &lexemes, forests), want, "{name}: round {round}");
        }
    }
}

#[test]
fn hand_built_lexemes_feed_by_name() {
    let cfg = grammars::arith::cfg();
    let spec =
        [("NUM", "12"), ("*", "*"), ("(", "("), ("NUM", "3"), ("-", "-"), ("NUM", "4"), (")", ")")];
    let lexemes: Vec<Lexeme> = spec
        .iter()
        .enumerate()
        .map(|(i, &(kind, text))| Lexeme { kind: kind.into(), text: text.into(), offset: i })
        .collect();
    let lexed_by_a_lexer = lexer(&BACKWARD).tokenize("12*(3-4)").expect("lexes");
    for (name, mut pooled, forests) in roster(&cfg) {
        let mut reference = backend_by_name(name, &cfg).expect("a roster name");
        let want = by_name(reference.as_mut(), &lexemes, forests);
        assert!(matches!(want, Answer::Verdict(true) | Answer::Forest(_)), "{name}: {want:?}");
        // Before and after the backend has mapped a lexer's table.
        assert_eq!(lexed(pooled.as_mut(), &lexemes, forests), want, "{name}");
        assert_eq!(lexed(pooled.as_mut(), &lexed_by_a_lexer, forests), want, "{name}");
        assert_eq!(lexed(pooled.as_mut(), &lexemes, forests), want, "{name}");
    }
}

/// Feeds `feed` to a recovering session and returns what it finished with.
fn recover(
    backend: &mut dyn Parser,
    forests: bool,
    feed: impl FnOnce(&mut Session<'_>) -> Result<(), BackendError>,
) -> (Answer, Vec<Diagnostic>) {
    let mut s = Session::open(backend).expect("opens");
    s.enable_recovery(RecoveryBudget::default());
    feed(&mut s).expect("recovery repairs unknown kinds");
    if forests {
        let (forest, diagnostics) = s.finish_forest_diagnostics().expect("finishes");
        (Answer::Forest(forest.summary()), diagnostics)
    } else {
        let (verdict, diagnostics) = s.finish_with_diagnostics().expect("finishes");
        (Answer::Verdict(verdict), diagnostics)
    }
}

#[test]
fn a_kind_outside_the_grammar_is_an_unknown_kind_and_recovery_repairs_it() {
    let cfg = grammars::arith::cfg();
    let doc = "1 + ! 2 * (3 !)";
    for order in [FORWARD, BACKWARD] {
        let lexemes = lexer(&order).tokenize(doc).expect("lexes");
        assert_eq!(lexemes[2].kind, "BANG");
        for (name, mut pooled, forests) in roster(&cfg) {
            let mut s = Session::open(pooled.as_mut()).expect("opens");
            let err = s.feed_lexemes(&lexemes).expect_err("BANG is not a terminal");
            assert!(err.is_unknown_kind(), "{name}: {err}");
            assert_eq!(s.tokens_fed(), 2, "{name}: the tokens before it were fed");
            drop(s);
            let err = pooled.recognize_lexemes(&lexemes).expect_err("BANG is not a terminal");
            assert!(err.is_unknown_kind(), "{name}: {err}");

            let mut reference = backend_by_name(name, &cfg).expect("a roster name");
            let (want, want_diagnostics) = recover(reference.as_mut(), forests, |s| {
                for l in &lexemes {
                    s.feed(l.kind.as_str(), l.text.as_str())?;
                }
                Ok(())
            });
            let (got, diagnostics) =
                recover(pooled.as_mut(), forests, |s| s.feed_lexemes(&lexemes).map(|_| ()));
            assert_eq!(got, want, "{name}");
            // Kind-name feeds carry no spans; everything else is the same.
            let unspanned = |ds: Vec<Diagnostic>| -> Vec<Diagnostic> {
                ds.into_iter().map(|d| Diagnostic { span: None, position: None, ..d }).collect()
            };
            let diagnostics = unspanned(diagnostics);
            assert_eq!(diagnostics, unspanned(want_diagnostics), "{name}");
            assert!(
                diagnostics.iter().any(|d| d.message.contains("unknown token kind \"BANG\"")),
                "{name}: {diagnostics:?}"
            );
        }
    }
}
