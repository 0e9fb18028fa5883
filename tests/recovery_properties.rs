//! Robustness properties of the recovery engine: **no input panics**, the
//! budget actually bounds the work, and enabling the recovery plumbing
//! without turning recovery on changes nothing.
//!
//! The input space is deliberately hostile — random byte soup driven
//! through the fused lexer path (lex errors become diagnostics, not
//! aborts), token streams salted with kinds the grammar has never heard
//! of, and 1–3-token mutants of real PL/0 programs — and every case runs
//! across the full backend matrix: the four-roster (PWD improved/original,
//! Earley, GLR) plus PWD under both [`MemoKeying`] modes × automaton
//! on/off.

use derp::api::{backends, Parser, PwdBackend, Session};
use derp::core::{AutomatonMode, MemoKeying, ParserConfig};
use derp::grammar::{gen, grammars, Cfg};
use derp::lex::Lexeme;
use derp::RecoveryBudget;

/// Deterministic split-mix RNG (same scheme as the corpus gate) — no RNG
/// dependency, identical streams on every platform.
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

/// The full backend matrix: the standard roster plus PWD on every
/// (keying × automaton) point, so recovery is exercised against the memo
/// and automaton machinery, not just the default configuration.
fn matrix(cfg: &Cfg) -> Vec<Box<dyn Parser>> {
    let mut arms = backends(cfg);
    for (keying, automaton, label) in [
        (MemoKeying::ByClass, AutomatonMode::Lazy, "pwd-class-auto"),
        (MemoKeying::ByClass, AutomatonMode::Off, "pwd-class-interp"),
        (MemoKeying::ByValue, AutomatonMode::Lazy, "pwd-value-auto"),
        (MemoKeying::ByValue, AutomatonMode::Off, "pwd-value-interp"),
    ] {
        let config = ParserConfig { keying, automaton, ..ParserConfig::improved() };
        arms.push(Box::new(PwdBackend::with_config(cfg, config, label)));
    }
    arms
}

/// Printable byte soup: ~half plausible PL/0 fragments, ~half junk the
/// lexer must resynchronize past.
fn byte_soup(rng: &mut Rng, len: usize) -> String {
    const PIECES: &[&str] = &[
        "begin ", "end", ";", ":=", "x", "y1", "42", "(", ")", "[", "]", "+", "<=", "if ", "then ",
        "while ", "do ", "@", "$", "~", "\\", "&", "?", "\u{3bb}", "0x", "!!", "'", "`",
    ];
    let mut s = String::new();
    for _ in 0..len {
        s.push_str(PIECES[rng.below(PIECES.len())]);
        if rng.below(4) == 0 {
            s.push(' ');
        }
    }
    s
}

/// 1–3 token-level mutations (delete / duplicate / substitute-with-junk).
/// Unlike the corpus gate this pool includes kinds the grammar doesn't
/// know, so the unknown-kind recovery path is on the menu too.
fn mutate(rng: &mut Rng, clean: &[Lexeme]) -> Vec<Lexeme> {
    const KINDS: &[&str] = &[";", ".", "then", ")", "(", ":=", "NUM", "odd", "@junk", "\u{0}"];
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
                let kind = KINDS[rng.below(KINDS.len())];
                toks[i].kind = kind.into();
                toks[i].text = kind.into();
            }
        }
    }
    toks
}

/// Every diagnostic stream must respect the budget it was produced under:
/// at most `max_repairs` charged repairs, total charged cost within
/// `max_cost`, and (salvage drops included) no more error diagnostics than
/// input tokens — the termination half of the no-panic property.
fn assert_budgeted(diags: &[derp::Diagnostic], budget: &RecoveryBudget, tokens: usize, ctx: &str) {
    let charged: Vec<u32> = diags
        .iter()
        .filter_map(|d| d.repair.as_ref())
        .filter(|r| r.cost > 0)
        .map(|r| r.cost)
        .collect();
    assert!(
        charged.len() as u32 <= budget.max_repairs,
        "{ctx}: {} charged repairs exceeds max_repairs {}",
        charged.len(),
        budget.max_repairs
    );
    assert!(
        charged.iter().sum::<u32>() <= budget.max_cost,
        "{ctx}: charged cost {} exceeds max_cost {}",
        charged.iter().sum::<u32>(),
        budget.max_cost
    );
    assert!(diags.len() <= tokens + 2, "{ctx}: {} diagnostics for {tokens} tokens", diags.len());
}

/// Random byte soup through the fused lexer path: every arm terminates
/// with a verdict and a budget-respecting diagnostic stream — lex errors
/// surface as diagnostics, never as panics or aborts.
#[test]
fn byte_soup_never_panics_on_any_arm() {
    let cfg = grammars::pl0::cfg();
    let lexer = grammars::pl0::lexer();
    let mut rng = Rng(0xB17E_5011);
    let budget = RecoveryBudget::default();
    let soups: Vec<String> = (0..40)
        .map(|_| {
            let len = 4 + rng.below(24);
            byte_soup(&mut rng, len)
        })
        .collect();
    for arm in matrix(&cfg).iter_mut() {
        let name = arm.name();
        for (i, soup) in soups.iter().enumerate() {
            let mut session = Session::open(arm.as_mut()).expect("fresh session");
            session.enable_recovery(budget);
            let mut source = lexer.source(soup);
            let (_, diags) = session
                .feed_source(&mut source)
                .and_then(|_| session.finish_with_diagnostics())
                .unwrap_or_else(|e| panic!("{name} soup #{i} {soup:?}: {e}"));
            let tokens = lexer.tokenize(soup).map(|t| t.len()).unwrap_or(soup.len());
            assert_budgeted(&diags, &budget, tokens, &format!("{name} soup #{i}"));
        }
    }
}

/// Mutated PL/0 (including unknown token kinds) on every arm: sessions
/// terminate, diagnostics stay within budget, and a clean control program
/// recovers with zero diagnostics.
#[test]
fn mutated_corpora_terminate_within_budget_on_every_arm() {
    let cfg = grammars::pl0::cfg();
    let lexer = grammars::pl0::lexer();
    let mut rng = Rng(0x5EED_0009);
    let budget = RecoveryBudget::default();
    let mut corpus: Vec<Vec<Lexeme>> = Vec::new();
    while corpus.len() < 60 {
        let src = gen::pl0_source(16 + rng.below(20), rng.next(), 0.5);
        let Ok(clean) = lexer.tokenize(&src) else { continue };
        corpus.push(mutate(&mut rng, &clean));
    }
    for arm in matrix(&cfg).iter_mut() {
        let name = arm.name();
        for (i, mutant) in corpus.iter().enumerate() {
            let mut session = Session::open(arm.as_mut()).expect("fresh session");
            session.enable_recovery(budget);
            let (_, diags) = session
                .feed_lexemes(mutant)
                .and_then(|_| session.finish_with_diagnostics())
                .unwrap_or_else(|e| panic!("{name} mutant #{i}: {e}"));
            assert_budgeted(&diags, &budget, mutant.len(), &format!("{name} mutant #{i}"));
        }
    }
}

/// A [`Session`] with recovery **off** is a transparent wrapper: its
/// verdict matches the raw backend's batch `recognize` on the same kinds,
/// for clean and mutated inputs alike, on every arm of the matrix.
#[test]
fn recovery_off_sessions_leave_verdicts_unchanged() {
    let cfg = grammars::pl0::cfg();
    let lexer = grammars::pl0::lexer();
    let mut rng = Rng(0x0FF_5EED);
    let mut inputs: Vec<Vec<Lexeme>> = Vec::new();
    while inputs.len() < 40 {
        let src = gen::pl0_source(14 + rng.below(16), rng.next(), 0.5);
        let Ok(clean) = lexer.tokenize(&src) else { continue };
        // Half clean, half mutated — but only with kinds the grammar knows
        // (unknown kinds are an error on the raw path, a diagnostic only
        // under recovery, so they are out of scope for this equivalence).
        if inputs.len().is_multiple_of(2) {
            inputs.push(clean);
        } else {
            let mutant = mutate(&mut rng, &clean);
            let known =
                |kind: &str| (0..cfg.terminal_count()).any(|t| cfg.terminal_name(t as u32) == kind);
            if mutant.iter().all(|l| known(&l.kind)) {
                inputs.push(mutant);
            }
        }
    }
    for arm in matrix(&cfg).iter_mut() {
        let name = arm.name();
        for (i, input) in inputs.iter().enumerate() {
            let kinds: Vec<&str> = input.iter().map(|l| l.kind.as_str()).collect();
            let reference = arm.recognize(&kinds).unwrap_or_else(|e| panic!("{name} #{i}: {e}"));
            let mut session = Session::open(arm.as_mut()).expect("fresh session");
            let verdict = session
                .feed_lexemes(input)
                .and_then(|_| session.finish())
                .unwrap_or_else(|e| panic!("{name} #{i}: {e}"));
            assert_eq!(
                verdict, reference,
                "{name} #{i}: recovery-off session verdict diverges from raw recognize \
                 on {kinds:?}"
            );
        }
    }
}
