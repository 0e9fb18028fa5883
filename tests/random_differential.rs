//! Randomized differential testing: PWD (two configurations), Earley, and
//! GLR over machine-generated grammars and inputs, all driven through the
//! shared [`derp::api::Parser`] trait — **forest-natively**: the widest
//! nets assert canonical forest-fingerprint equality (cubic-sized graph
//! comparison covering *all* derivations, however many), with exact counts
//! compared even where forests are cyclic/infinite, and bounded tree-set
//! equality kept only as a small-input cross-check.

use derp::api::{
    backends, unanimous_forests, EnumLimits as ApiLimits, ParseCount, Parser, PwdBackend,
};
use derp::core::{EnumLimits, MemoKeying, MemoStrategy, ParseMode, ParserConfig};
use derp::earley::EarleyParser;
use derp::grammar::{random_cfg, random_input, remove_useless, Compiled, RandomCfgConfig};
use derp::lex::Lexeme;

#[test]
fn four_parsers_agree_on_random_grammars() {
    let shape = RandomCfgConfig::default();
    let mut checked = 0usize;
    let mut accepted = 0usize;
    let mut past_cap = 0usize;
    for seed in 0..60 {
        let raw = random_cfg(&shape, seed);
        // GLR requires a productive grammar for meaningful FOLLOW sets;
        // clean first and skip the rare empty language.
        let Ok(cfg) = remove_useless(&raw) else { continue };
        let mut bs = backends(&cfg);
        for input_seed in 0..25 {
            let input = random_input(&cfg, 8, seed * 1000 + input_seed);
            let kinds: Vec<&str> = input.iter().map(String::as_str).collect();
            // Full forest agreement, not just the membership verdict:
            // exact counts (incl. Overflow/Infinite) on all four backends,
            // canonical fingerprints wherever the forest is finite.
            let summary = unanimous_forests(&mut bs, &kinds, &format!("seed {seed}"));
            if !summary.count.is_zero() {
                accepted += 1;
            }
            if summary.count.as_finite().is_none_or(|n| n > 64) {
                past_cap += 1; // cases the old bounded tree-set diff missed
            }
            checked += 1;
        }
    }
    assert!(checked > 1000, "coverage sanity: {checked} cases");
    assert!(accepted > 20, "acceptance sanity: {accepted} accepted of {checked}");
    assert!(past_cap > 0, "sanity: some case must exceed the old enumeration cap");
}

/// Property (random grammars × random inputs): whenever the exact forest
/// count is finite and within `EnumLimits::default().max_trees`, full
/// enumeration produces exactly that many trees, each with the input as its
/// fringe — across all three parser families × both PWD `MemoKeying` modes.
#[test]
fn forest_count_equals_enumeration_when_finite() {
    let shape = RandomCfgConfig::default();
    let cap = ApiLimits::default().max_trees as u128;
    let mut verified = 0usize;
    for seed in 500..540 {
        let Ok(cfg) = remove_useless(&random_cfg(&shape, seed)) else { continue };
        let mut arms: Vec<Box<dyn Parser>> = backends(&cfg);
        for (keying, label) in
            [(MemoKeying::ByValue, "pwd-value-keyed"), (MemoKeying::ByClass, "pwd-class-keyed")]
        {
            let config = ParserConfig { keying, ..ParserConfig::improved() };
            arms.push(Box::new(PwdBackend::with_config(&cfg, config, label)));
        }
        for input_seed in 0..10 {
            let input = random_input(&cfg, 7, seed * 917 + input_seed);
            let kinds: Vec<&str> = input.iter().map(String::as_str).collect();
            for arm in &mut arms {
                let forest = arm.parse_forest(&kinds).unwrap();
                let ParseCount::Finite(n) = forest.count() else { continue };
                if n == 0 || n > cap {
                    continue;
                }
                let limits =
                    ApiLimits { max_trees: n as usize + 1, max_depth: forest.depth() * 2 + 64 };
                let trees = forest.trees(limits);
                assert_eq!(
                    trees.len() as u128,
                    n,
                    "{}: count/enumeration mismatch on {kinds:?}\n{cfg}",
                    arm.name()
                );
                for t in &trees {
                    assert_eq!(t.fringe(), input, "{}: bad fringe in {t}", arm.name());
                }
                verified += 1;
            }
        }
    }
    assert!(verified > 100, "coverage sanity: {verified} finite-count cases verified");
}

#[test]
fn parse_counts_agree_across_memo_strategies_on_random_grammars() {
    let shape = RandomCfgConfig {
        nonterminals: 3,
        terminals: 2,
        extra_productions: 4,
        max_rhs: 3,
        terminal_bias: 0.6,
        epsilon_chance: 0.25,
    };
    for seed in 100..130 {
        let Ok(cfg) = remove_useless(&random_cfg(&shape, seed)) else { continue };
        // One prepared backend per memo strategy, reused across the inputs
        // via epoch reset.
        let mut arms: Vec<PwdBackend> = [
            (MemoStrategy::FullHash, "pwd-full-hash"),
            (MemoStrategy::SingleEntry, "pwd-single-entry"),
            (MemoStrategy::DualEntry, "pwd-dual-entry"),
        ]
        .into_iter()
        .map(|(memo, label)| {
            PwdBackend::with_config(&cfg, ParserConfig { memo, ..ParserConfig::improved() }, label)
        })
        .collect();
        for input_seed in 0..8 {
            let input = random_input(&cfg, 6, seed * 77 + input_seed);
            let kinds: Vec<&str> = input.iter().map(String::as_str).collect();
            let counts: Vec<ParseCount> = arms
                .iter_mut()
                .map(|arm| arm.parse_count(&kinds).unwrap_or_else(|e| panic!("{e}")))
                .collect();
            assert_eq!(counts[0], counts[1], "seed {seed}, input {kinds:?}\n{cfg}");
            assert_eq!(counts[1], counts[2], "dual-entry: seed {seed}, input {kinds:?}");
        }
    }
}

/// Class-keyed and value-keyed engines are observationally identical: on
/// random grammars and inputs whose lexemes are all *distinct* (the
/// adversarial case for class sharing — every token is a fresh value key
/// but a repeated class key), both keyings produce byte-identical recognize
/// verdicts, parse counts, and enumerated tree sets in both parse modes,
/// under every memo strategy.
#[test]
fn memo_keyings_are_observationally_identical_on_random_grammars() {
    let shape = RandomCfgConfig::default();
    let mut accepted = 0usize;
    for seed in 300..340 {
        let Ok(cfg) = remove_useless(&random_cfg(&shape, seed)) else { continue };
        for mode in [ParseMode::Recognize, ParseMode::Parse] {
            for memo in [MemoStrategy::SingleEntry, MemoStrategy::DualEntry, MemoStrategy::FullHash]
            {
                let mut arms: Vec<Compiled> = [MemoKeying::ByValue, MemoKeying::ByClass]
                    .map(|keying| {
                        let config =
                            ParserConfig { mode, memo, keying, ..ParserConfig::improved() };
                        Compiled::compile(&cfg, config)
                    })
                    .into_iter()
                    .collect();
                for input_seed in 0..8 {
                    let input = random_input(&cfg, 7, seed * 131 + input_seed);
                    // Give every occurrence a unique lexeme.
                    let lexemes: Vec<Lexeme> = input
                        .iter()
                        .enumerate()
                        .map(|(i, k)| Lexeme {
                            kind: k.as_str().into(),
                            text: format!("{k}_{i}").into(),
                            offset: i,
                        })
                        .collect();
                    let mut results = Vec::new();
                    for arm in &mut arms {
                        arm.lang.reset();
                        let toks = arm.tokens_from_lexemes(&lexemes).unwrap();
                        let start = arm.start;
                        let ok = arm.lang.recognize(start, &toks).unwrap();
                        let (count, trees) = if mode == ParseMode::Parse && ok {
                            arm.lang.reset();
                            let count = arm.lang.count_parses(start, &toks).unwrap();
                            arm.lang.reset();
                            let limits = EnumLimits { max_trees: 16, max_depth: 64 };
                            let mut trees: Vec<String> = arm
                                .lang
                                .parse_trees(start, &toks, limits)
                                .unwrap()
                                .iter()
                                .map(|t| t.to_string())
                                .collect();
                            trees.sort();
                            (count, trees)
                        } else {
                            (derp::core::TreeCount::Finite(0), Vec::new())
                        };
                        results.push((ok, count, trees));
                    }
                    assert_eq!(
                        results[0], results[1],
                        "keyings disagree: seed {seed}, {mode:?}, {memo:?}, input {input:?}\n{cfg}"
                    );
                    if results[0].0 {
                        accepted += 1;
                    }
                }
            }
        }
    }
    assert!(accepted > 30, "acceptance sanity: {accepted}");
}

/// Both keyings agree with the Earley and GLR baselines through the shared
/// differential driver — forest-fingerprint equality with the keying arms
/// added to the standard roster (class-keyed derivative sharing must be
/// invisible in the forests, not just the verdicts).
#[test]
fn keyed_backends_agree_with_baselines_on_random_grammars() {
    let shape = RandomCfgConfig::default();
    let mut checked = 0usize;
    for seed in 400..430 {
        let Ok(cfg) = remove_useless(&random_cfg(&shape, seed)) else { continue };
        let mut bs = backends(&cfg);
        for (keying, label) in
            [(MemoKeying::ByValue, "pwd-value-keyed"), (MemoKeying::ByClass, "pwd-class-keyed")]
        {
            let config = ParserConfig { keying, ..ParserConfig::improved() };
            bs.push(Box::new(PwdBackend::with_config(&cfg, config, label)));
        }
        for input_seed in 0..15 {
            let input = random_input(&cfg, 8, seed * 513 + input_seed);
            let kinds: Vec<&str> = input.iter().map(String::as_str).collect();
            unanimous_forests(&mut bs, &kinds, &format!("seed {seed}"));
            checked += 1;
        }
    }
    assert!(checked > 300, "coverage sanity: {checked} cases");
}

/// Earley's extracted derivation tree must cover exactly the input for
/// accepted random sentences. (Tree extraction is backend-specific, so this
/// one test drives `EarleyParser` directly rather than through the trait.)
#[test]
fn earley_trees_cover_input_on_random_grammars() {
    let shape = RandomCfgConfig::default();
    let mut trees = 0;
    for seed in 200..240 {
        let Ok(cfg) = remove_useless(&random_cfg(&shape, seed)) else { continue };
        let earley = EarleyParser::new(&cfg);
        for input_seed in 0..15 {
            let input = random_input(&cfg, 6, seed * 31 + input_seed);
            let kinds: Vec<&str> = input.iter().map(String::as_str).collect();
            let toks = earley.kinds_to_tokens(&kinds).unwrap();
            if let Some(tree) = earley.parse_tree(&toks) {
                assert!(earley.recognize(&toks), "tree implies acceptance");
                assert_eq!(tree.leaves(), toks.len(), "{kinds:?}\n{cfg}");
                trees += 1;
            }
        }
    }
    assert!(trees > 10, "tree-extraction coverage: {trees}");
}
