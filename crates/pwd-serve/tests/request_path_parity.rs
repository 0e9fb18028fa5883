//! One request path: a `ParseService` request is one `derp` `Session` fed
//! the whole input, so its answers are the answers of that session run by
//! hand, and each input costs one engine pass whatever the service reports
//! about it.

use derp::api::{PwdBackend, Session};
use derp::RecoveryBudget;
use pwd_grammar::{gen, grammars};
use pwd_lex::Lexeme;
use pwd_serve::{Input, ParseService, ServiceConfig};

/// The feed stride a wall-clock budget would impose.
const STRIDE: usize = 64;

/// PL/0 programs with one token deleted 1–3 tokens before a multiple of
/// [`STRIDE`] — the positions where a strided feed would cut the repair
/// lookahead short.
fn boundary_mutants(programs: u64) -> Vec<Vec<Lexeme>> {
    let lexer = grammars::pl0::lexer();
    let mut mutants = Vec::new();
    for seed in 0..programs {
        let src = gen::pl0_source(150, 0x5EED + seed, 0.1);
        let lexemes = lexer.tokenize(&src).expect("generated PL/0 tokenizes");
        for boundary in (STRIDE..lexemes.len()).step_by(STRIDE) {
            for back in 1..=3 {
                let mut mutant = lexemes.clone();
                mutant.remove(boundary - back);
                mutants.push(mutant);
            }
        }
    }
    mutants
}

#[test]
fn service_recovery_repairs_like_a_direct_session() {
    let cfg = grammars::pl0::cfg();
    let mutants = boundary_mutants(6);
    let service = ParseService::new(ServiceConfig {
        workers: 1,
        forests: true,
        recovery: Some(RecoveryBudget::default()),
        ..ServiceConfig::default()
    });
    let inputs: Vec<Input> = mutants.iter().cloned().map(Input::from_lexemes).collect();
    let report = service.submit_batch(&cfg, &inputs).expect("batch runs");

    let mut backend = PwdBackend::improved(&cfg);
    let mut repaired = 0;
    for (i, (lexemes, outcome)) in mutants.iter().zip(&report.outcomes).enumerate() {
        let outcome = outcome.as_ref().expect("recovering requests are answered");
        let mut session = Session::open(&mut backend).expect("session opens");
        session.enable_recovery(RecoveryBudget::default());
        session.feed_lexemes(lexemes).expect("recovery absorbs malformed input");
        let (forest, diagnostics) = session.finish_forest_diagnostics().expect("forest closes");
        assert_eq!(outcome.accepted, !forest.count().is_zero(), "mutant {i}: verdict");
        assert_eq!(outcome.forest, Some(forest.summary()), "mutant {i}: forest");
        assert_eq!(outcome.diagnostics.as_ref(), Some(&diagnostics), "mutant {i}: diagnostics");
        repaired += usize::from(!diagnostics.is_empty());
    }
    assert!(repaired * 2 > mutants.len(), "most deletions need a repair: {repaired}");
}

#[test]
fn counting_parses_costs_one_engine_pass() {
    let cfg = grammars::python::cfg();
    let inputs: Vec<Input> = (0..4)
        .map(|seed| {
            let src = gen::python_source(150, 0xC0DE + seed);
            Input::from_lexemes(pwd_lex::tokenize_python(&src).expect("generated Python lexes"))
        })
        .collect();
    let run = |config: ServiceConfig| {
        let service = ParseService::new(ServiceConfig { workers: 1, ..config });
        let report = service.submit_batch(&cfg, &inputs).expect("batch runs");
        let outcomes: Vec<_> =
            report.outcomes.into_iter().map(|o| o.expect("modules parse")).collect();
        (outcomes, service.metrics().memo)
    };
    let (counted, count_memo) =
        run(ServiceConfig { count_parses: true, ..ServiceConfig::default() });
    let (forests, forest_memo) = run(ServiceConfig { forests: true, ..ServiceConfig::default() });
    for (i, (c, f)) in counted.iter().zip(&forests).enumerate() {
        let summary = f.forest.expect("forests requested");
        assert!(c.accepted && f.accepted, "module {i} parses");
        assert_eq!(c.parse_count, Some(summary.count), "module {i}: count");
    }
    assert!(forest_memo.memo_misses > 0, "{forest_memo:?}");
    assert_eq!(count_memo, forest_memo, "a count-only request derives exactly once");
}
