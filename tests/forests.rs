//! Forest semantics across configurations and corpora: parse-tree multisets
//! are configuration-invariant, fringes equal inputs, and cyclic forests
//! behave.

use derp::core::{
    CompactionMode, EnumLimits, MemoKeying, MemoStrategy, NullStrategy, ParseMode, ParserConfig,
    TreeCount,
};
use derp::grammar::{gen, grammars, Compiled};

fn tree_strings(
    cfg: &derp::grammar::Cfg,
    config: ParserConfig,
    kinds: &[(&str, &str)],
) -> Option<Vec<String>> {
    let mut c = Compiled::compile(cfg, config);
    let toks: Vec<_> = kinds.iter().map(|(k, l)| c.token(k, l).unwrap()).collect();
    let start = c.start;
    match c.lang.parse_trees(start, &toks, EnumLimits { max_trees: 64, max_depth: 512 }) {
        Ok(ts) => {
            let mut v: Vec<String> = ts.iter().map(|t| t.to_string()).collect();
            v.sort();
            Some(v)
        }
        Err(derp::core::PwdError::Rejected { .. }) => None,
        Err(e) => panic!("engine error: {e}"),
    }
}

/// Every engine configuration produces the identical sorted tree list for a
/// nontrivially ambiguous sentence.
#[test]
fn tree_sets_invariant_across_configs() {
    let cfg = grammars::ambiguous::expr();
    let input =
        [("n", "1"), ("+", "+"), ("n", "2"), ("*", "*"), ("n", "3"), ("+", "+"), ("n", "4")];
    let reference = tree_strings(&cfg, ParserConfig::improved(), &input).expect("accepted");
    assert!(reference.len() >= 4, "C₃ = 5 readings expected, got {}", reference.len());
    for nullability in [NullStrategy::Naive, NullStrategy::Worklist, NullStrategy::Labeled] {
        for compaction in
            [CompactionMode::None, CompactionMode::SeparatePass, CompactionMode::OnConstruction]
        {
            for memo in [MemoStrategy::FullHash, MemoStrategy::SingleEntry] {
                for keying in [MemoKeying::ByValue, MemoKeying::ByClass] {
                    let config = ParserConfig {
                        nullability,
                        compaction,
                        memo,
                        keying,
                        mode: ParseMode::Parse,
                        naming: false,
                        prepass_right_children: true,
                        max_nodes: None,
                        ..ParserConfig::improved()
                    };
                    let got = tree_strings(&cfg, config, &input).expect("accepted");
                    assert_eq!(got, reference, "{config:?}");
                }
            }
        }
    }
}

/// The fringe of every tree equals the input lexeme sequence — on the real
/// Python corpus through the real tokenizer.
#[test]
fn python_tree_fringe_roundtrip() {
    let cfg = grammars::python::cfg();
    let mut c = Compiled::compile(&cfg, ParserConfig::improved());
    let src = gen::python_source(120, 5);
    let lexemes = derp::lex::tokenize_python(&src).unwrap();
    let toks = c.tokens_from_lexemes(&lexemes).unwrap();
    let start = c.start;
    let tree = c
        .lang
        .parse_trees(start, &toks, EnumLimits { max_trees: 1, max_depth: 100_000 })
        .unwrap()
        .pop()
        .expect("at least one tree");
    let fringe = tree.fringe();
    let expected: Vec<String> = lexemes.iter().map(|l| l.text.to_string()).collect();
    assert_eq!(fringe, expected, "tree fringe must reproduce the token stream");
}

/// JSON parse trees are unique and stable across repeated parses.
#[test]
fn json_unique_tree_stability() {
    let cfg = grammars::json::cfg();
    let lexer = grammars::json::lexer();
    let src = gen::json_source(80, 9);
    let lexemes = lexer.tokenize(&src).unwrap();
    let mut c = Compiled::compile(&cfg, ParserConfig::improved());
    let toks = c.tokens_from_lexemes(&lexemes).unwrap();
    let start = c.start;
    let t1 = c.lang.parse_unique(start, &toks).unwrap().expect("unambiguous");
    c.lang.reset();
    let t2 = c.lang.parse_unique(start, &toks).unwrap().expect("unambiguous");
    assert_eq!(t1, t2);
}

/// Catalan counting at larger n with forest-size polynomiality.
#[test]
fn catalan_counts_and_polynomial_forests() {
    let catalan: [u128; 13] = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012];
    let cfg = grammars::ambiguous::catalan();
    let mut forest_sizes = Vec::new();
    for n in 1..=13usize {
        let mut c = Compiled::compile(&cfg, ParserConfig::improved());
        let toks: Vec<_> = (0..n).map(|_| c.token("a", "a").unwrap()).collect();
        let start = c.start;
        assert_eq!(
            c.lang.count_parses(start, &toks).unwrap(),
            TreeCount::Finite(catalan[n - 1]),
            "n={n}"
        );
        forest_sizes.push(c.lang.forest_count() as f64);
    }
    // Forest growth must be polynomial even though counts are exponential:
    // log-log slope of forest size should be ~2, certainly < 3.
    let slope = (forest_sizes[12] / forest_sizes[5]).log2() / (13.0f64 / 6.0).log2();
    assert!(slope < 3.0, "forest growth slope {slope}");
}

/// Infinite ambiguity: counting says infinite, enumeration is bounded, and
/// every enumerated tree still has the right fringe.
#[test]
fn infinitely_ambiguous_fringe_consistency() {
    let mut g = derp::grammar::CfgBuilder::new("S");
    g.terminal("a");
    g.rule("S", &[]);
    g.rule("S", &["S", "S"]);
    g.rule("S", &["a"]);
    let cfg = g.build().unwrap();
    let mut c = Compiled::compile(&cfg, ParserConfig::improved());
    let toks = vec![c.token("a", "a").unwrap(); 2];
    let start = c.start;
    let forest = c.lang.parse_forest(start, &toks).unwrap();
    assert_eq!(c.lang.count_of(forest), TreeCount::Infinite, "ε-cycles make this infinite");
    let trees = c.lang.trees_of(forest, EnumLimits { max_trees: 10, max_depth: 32 });
    assert!(!trees.is_empty());
    for t in trees {
        assert_eq!(t.fringe(), vec!["a", "a"], "bad fringe in {t}");
    }
}

/// Budget failure injection mid-parse leaves the engine reusable after
/// reset.
#[test]
fn budget_trip_then_reset_recovers() {
    let cfg = grammars::python::cfg();
    let config = ParserConfig { max_nodes: Some(4000), ..ParserConfig::improved() };
    let mut c = Compiled::compile(&cfg, config);
    let lexemes = derp::lex::tokenize_python(&gen::python_source(200, 3)).unwrap();
    let toks = c.tokens_from_lexemes(&lexemes).unwrap();
    let start = c.start;
    let err = c.lang.recognize(start, &toks).unwrap_err();
    assert!(matches!(err, derp::core::PwdError::NodeBudgetExceeded { .. }));
    c.lang.reset();
    // A small input fits the budget after reset.
    let small = derp::lex::tokenize_python("x = 1\n").unwrap();
    let toks = c.tokens_from_lexemes(&small).unwrap();
    assert!(c.lang.recognize(start, &toks).unwrap());
}

/// The `derivative` API exposes intermediate languages: D_w(L) accepts v
/// iff L accepts wv.
#[test]
fn derivative_api_is_compositional() {
    let cfg = grammars::arith::cfg();
    let mut c = Compiled::compile(&cfg, ParserConfig::improved());
    let w: Vec<_> =
        [("NUM", "1"), ("+", "+")].iter().map(|(k, l)| c.token(k, l).unwrap()).collect();
    let v: Vec<_> = [("NUM", "2"), ("*", "*"), ("NUM", "3")]
        .iter()
        .map(|(k, l)| c.token(k, l).unwrap())
        .collect();
    let start = c.start;
    let d = c.lang.derivative(start, &w).unwrap();
    assert!(c.lang.recognize(d, &v).unwrap(), "D_w(L) accepts v");
    let empty: Vec<derp::core::Token> = Vec::new();
    assert!(!c.lang.recognize(d, &empty).unwrap(), "\"1+\" is not a sentence");
}
