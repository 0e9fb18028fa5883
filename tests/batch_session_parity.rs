//! One per-token loop: the API backend and the engine's batch entry points
//! step tokens through the same `SessionState::feed`, so a lexeme stream
//! recognized through `PwdBackend` leaves exactly the engine state and work
//! counters `Language::recognize` leaves on the same tokens — the
//! Definition-5 names (Figure 5's census) and the derive, `nullable?` and
//! automaton counters (Figures 7, 10 and 11).

use derp::api::{PwdBackend, Recognizer};
use derp::core::{AutomatonMode, Metrics, ParseMode, ParserConfig};
use derp::grammar::{gen, grammars, Cfg, Compiled};
use derp::lex::{tokenize_python, Lexeme};

/// Recognizes `lexemes` cold through the API backend and cold through the
/// engine's batch entry point, returning both engines.
fn both_paths(cfg: &Cfg, config: ParserConfig, lexemes: &[Lexeme]) -> (PwdBackend, Compiled) {
    let mut backend = PwdBackend::with_config(cfg, config, "pwd-parity");
    let api_verdict = backend.recognize_lexemes(lexemes).expect("grammar kinds feed");

    let mut compiled = Compiled::compile(cfg, config);
    let tokens = compiled.tokens_from_lexemes(lexemes).expect("grammar kinds intern");
    let start = compiled.start;
    let core_verdict = compiled.lang.recognize(start, &tokens).expect("no engine error");
    assert_eq!(api_verdict, core_verdict, "verdicts agree");
    (backend, compiled)
}

/// The counters the paper's figures are drawn from.
fn work(m: &Metrics) -> [(&'static str, u64); 6] {
    [
        ("derive_calls", m.derive_calls),
        ("derive_uncached", m.derive_uncached),
        ("nullable_calls", m.nullable_calls),
        ("auto_rows_built", m.auto_rows_built),
        ("auto_table_hits", m.auto_table_hits),
        ("auto_fallbacks", m.auto_fallbacks),
    ]
}

fn pl0_lexemes(tokens: usize, seed: u64) -> Vec<Lexeme> {
    let src = gen::pl0_source(tokens, seed, 0.1);
    grammars::pl0::lexer().tokenize(&src).expect("generated PL/0 tokenizes")
}

#[test]
fn api_recognition_assigns_definition_5_names() {
    let lexemes = pl0_lexemes(64, 3);
    let (backend, compiled) =
        both_paths(&grammars::pl0::cfg(), ParserConfig::named_recognizer(), &lexemes);
    let api = backend.compiled().lang.name_stats();
    let core = compiled.lang.name_stats();
    assert!(core.0 > 0, "the named recognizer names nodes: {core:?}");
    assert_eq!(api, core, "(named nodes, distinct names, max bullets)");
}

#[test]
fn api_recognition_does_the_engine_work_of_batch_recognition() {
    let pl0 = grammars::pl0::cfg();
    let program = pl0_lexemes(1000, 7);
    let dfa = ParserConfig { mode: ParseMode::Recognize, ..ParserConfig::improved() };
    let interpreted = ParserConfig { automaton: AutomatonMode::Off, ..dfa };
    for (name, config) in [("automaton on", dfa), ("automaton off", interpreted)] {
        let (backend, compiled) = both_paths(&pl0, config, &program);
        let (api, core) = (backend.compiled().lang.metrics(), compiled.lang.metrics());
        assert!(core.derive_calls > 0, "{name}: the cold run derives");
        assert_eq!(work(api), work(core), "PL/0, {name}");
    }

    let module = tokenize_python(&gen::python_source(300, 11)).expect("generated Python lexes");
    let (backend, compiled) =
        both_paths(&grammars::python::cfg(), ParserConfig::improved(), &module);
    assert_eq!(work(backend.compiled().lang.metrics()), work(compiled.lang.metrics()), "Python");
}
