//! Differential tests for the lazy derivative automaton (memo tier three):
//! with the automaton on, every observable — membership verdicts, per-token
//! viability, sentence-hood of each prefix, parse counts, forest
//! fingerprints — is byte-identical to the interpreted class-keyed path, to
//! the value-keyed path, and to the Earley/GLR baselines; identical across
//! chunked streaming with checkpoint/rollback excursions; and identical
//! across the row-budget fallback boundary (a tiny `automaton_max_rows`
//! that freezes the table mid-input and forces the interpreted fallback).

use derp::api::{backend_by_name, unanimous_forests, Parser, PwdBackend, Recognizer};
use derp::core::{AutomatonMode, MemoKeying, ParseMode, ParserConfig};
use derp::grammar::{random_cfg, random_input, remove_useless, Cfg, RandomCfgConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A recognize-mode PWD arm on one point of the automaton axis.
fn recognizer(
    cfg: &Cfg,
    automaton: AutomatonMode,
    keying: MemoKeying,
    max_rows: usize,
    label: &'static str,
) -> PwdBackend {
    let config = ParserConfig {
        mode: ParseMode::Recognize,
        keying,
        automaton,
        automaton_max_rows: max_rows,
        ..ParserConfig::improved()
    };
    PwdBackend::with_config(cfg, config, label)
}

/// The automaton axis under test: interpreted baseline, table walk,
/// budget-starved table walk (freezes after 2 rows, falling back to the
/// interpreted path mid-input), and the value-keyed arm the activity gate
/// keeps fully interpreted.
fn automaton_arms(cfg: &Cfg) -> Vec<PwdBackend> {
    vec![
        recognizer(cfg, AutomatonMode::Off, MemoKeying::ByClass, usize::MAX, "pwd-interp"),
        recognizer(cfg, AutomatonMode::Lazy, MemoKeying::ByClass, usize::MAX, "pwd-dfa"),
        recognizer(cfg, AutomatonMode::Lazy, MemoKeying::ByClass, 2, "pwd-dfa-starved"),
        recognizer(cfg, AutomatonMode::Lazy, MemoKeying::ByValue, usize::MAX, "pwd-value"),
    ]
}

/// Random grammars × random inputs, two passes per arm (the second pass
/// replays every input against warm transition rows): all automaton arms
/// agree with the interpreted baseline and with Earley and GLR on every
/// membership verdict.
#[test]
fn automaton_verdicts_match_interpreted_and_baselines() {
    let shape = RandomCfgConfig::default();
    let mut checked = 0usize;
    let mut accepted = 0usize;
    let mut warm_hits = 0u64;
    for seed in 0..40 {
        let Ok(cfg) = remove_useless(&random_cfg(&shape, seed)) else { continue };
        let mut arms = automaton_arms(&cfg);
        let mut baselines: Vec<Box<dyn Parser>> =
            ["earley", "glr"].iter().filter_map(|n| backend_by_name(n, &cfg)).collect();
        let inputs: Vec<Vec<String>> =
            (0..12).map(|i| random_input(&cfg, 8, seed * 1000 + i)).collect();
        // Two passes: pass 0 builds rows lazily, pass 1 must replay the
        // same inputs through the now-warm table with identical verdicts.
        for pass in 0..2 {
            for input in &inputs {
                let kinds: Vec<&str> = input.iter().map(String::as_str).collect();
                let reference = baselines[0].recognize(&kinds).unwrap();
                assert_eq!(
                    baselines[1].recognize(&kinds).unwrap(),
                    reference,
                    "glr vs earley: seed {seed}, {kinds:?}\n{cfg}"
                );
                for arm in &mut arms {
                    let got = arm.recognize(&kinds).unwrap();
                    assert_eq!(
                        got,
                        reference,
                        "{} pass {pass}: seed {seed}, {kinds:?}\n{cfg}",
                        arm.name()
                    );
                    if pass == 1 {
                        warm_hits += arm.metrics().auto_table_hits;
                    }
                }
                if reference {
                    accepted += 1;
                }
                checked += 1;
            }
        }
    }
    assert!(checked > 500, "coverage sanity: {checked} cases");
    assert!(accepted > 20, "acceptance sanity: {accepted} accepted of {checked}");
    assert!(warm_hits > 0, "warm passes must actually walk the table");
}

/// Feeds `kinds` through the trait session API in seeded random chunks with
/// speculative checkpoint → junk → rollback excursions, recording every
/// observable as it goes: per-token viability, per-token sentence-hood of
/// the fed prefix, and the final verdict. Lexeme texts are all distinct, so
/// class keying (and with it the automaton gate) is exercised adversarially.
fn drive_with_speculation(
    backend: &mut dyn Parser,
    kinds: &[&str],
    alphabet: &[String],
    rng_seed: u64,
) -> Vec<(bool, bool)> {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut obs = Vec::new();
    let mut uniq = 0usize;
    let feed = |backend: &mut dyn Parser, kind: &str, uniq: &mut usize| {
        *uniq += 1;
        let viable = backend.feed(kind, &format!("{kind}_{uniq}")).unwrap();
        (viable, backend.prefix_is_sentence().unwrap())
    };
    backend.begin().unwrap();
    let mut i = 0;
    loop {
        if rng.random_bool(0.4) && !alphabet.is_empty() {
            // Speculative excursion: the rollback must erase it exactly,
            // automaton state included (a checkpoint is still one NodeId).
            let cp = backend.checkpoint().unwrap();
            for _ in 0..rng.random_range(1..=3usize) {
                let junk = alphabet[rng.random_range(0..alphabet.len())].clone();
                obs.push(feed(backend, &junk, &mut uniq));
            }
            backend.rollback(&cp).unwrap();
            assert_eq!(backend.tokens_fed(), i, "rollback restores the position");
        }
        if i == kinds.len() {
            break;
        }
        let chunk = rng.random_range(1..=(kinds.len() - i).min(4));
        for k in &kinds[i..i + chunk] {
            obs.push(feed(backend, k, &mut uniq));
        }
        i += chunk;
    }
    let verdict = backend.end().unwrap();
    obs.push((verdict, verdict));
    obs
}

/// Chunked streaming with checkpoint/rollback: the full observation stream
/// (every per-token viability and sentence-hood bit, junk excursions
/// included) is byte-identical across the whole automaton axis, and the
/// final verdict also matches a batch Earley run.
#[test]
fn streamed_observations_identical_across_automaton_axis() {
    let shape = RandomCfgConfig::default();
    let mut checked = 0usize;
    for seed in 100..125 {
        let Ok(cfg) = remove_useless(&random_cfg(&shape, seed)) else { continue };
        let alphabet: Vec<String> =
            (0..cfg.terminal_count()).map(|t| cfg.terminal_name(t as u32).to_string()).collect();
        let mut arms = automaton_arms(&cfg);
        let mut earley = backend_by_name("earley", &cfg).unwrap();
        for input_seed in 0..8 {
            let input = random_input(&cfg, 8, seed * 311 + input_seed);
            let kinds: Vec<&str> = input.iter().map(String::as_str).collect();
            let script_seed = seed * 7919 + input_seed * 13;
            // The same seeded script replays against every arm, so the
            // streams are positionally comparable.
            let streams: Vec<Vec<(bool, bool)>> = arms
                .iter_mut()
                .map(|arm| drive_with_speculation(arm, &kinds, &alphabet, script_seed))
                .collect();
            for (arm, stream) in arms.iter().zip(&streams[1..]) {
                assert_eq!(
                    stream,
                    &streams[0],
                    "{}: stream diverges from interpreted on seed {seed}, {kinds:?}\n{cfg}",
                    arm.name()
                );
            }
            let verdict = streams[0].last().unwrap().0;
            assert_eq!(
                earley.recognize(&kinds).unwrap(),
                verdict,
                "earley batch vs streamed PWD: seed {seed}, {kinds:?}\n{cfg}"
            );
            checked += 1;
        }
    }
    assert!(checked > 100, "coverage sanity: {checked} cases");
}

/// The row-budget fallback boundary is exercised for real: with
/// `automaton_max_rows` so small the table freezes mid-input, verdicts stay
/// identical while the metrics prove the engine actually crossed from table
/// walk to interpreted fallback (frozen table, nonzero fallbacks, rows
/// capped at the budget, and one freeze reported by the input that froze
/// it).
#[test]
fn forced_fallback_crosses_budget_boundary_without_observable_effect() {
    let shape = RandomCfgConfig::default();
    let mut frozen_arms = 0usize;
    let mut fallbacks = 0u64;
    for seed in 200..220 {
        let Ok(cfg) = remove_useless(&random_cfg(&shape, seed)) else { continue };
        for max_rows in [1usize, 2, 3] {
            let mut interp =
                recognizer(&cfg, AutomatonMode::Off, MemoKeying::ByClass, usize::MAX, "interp");
            let mut starved =
                recognizer(&cfg, AutomatonMode::Lazy, MemoKeying::ByClass, max_rows, "starved");
            let mut freezes = 0;
            for input_seed in 0..8 {
                let input = random_input(&cfg, 10, seed * 577 + input_seed);
                let kinds: Vec<&str> = input.iter().map(String::as_str).collect();
                assert_eq!(
                    starved.recognize(&kinds).unwrap(),
                    interp.recognize(&kinds).unwrap(),
                    "budget {max_rows}: seed {seed}, {kinds:?}\n{cfg}"
                );
                fallbacks += starved.metrics().auto_fallbacks;
                freezes += starved.metrics().auto_freezes;
            }
            let stats = starved.compiled().lang.automaton_stats();
            assert!(stats.states <= max_rows, "budget respected: {stats:?}");
            assert_eq!(freezes, u64::from(stats.frozen), "one freeze per frozen table: {stats:?}");
            if stats.frozen {
                frozen_arms += 1;
            }
        }
    }
    assert!(frozen_arms > 0, "some arm must actually hit the budget");
    assert!(fallbacks > 0, "some tokens must take the interpreted fallback");
}

/// Parse mode with the automaton axis on: the axis is inert outside
/// recognize mode, and the proof is forest-native — canonical fingerprints
/// and exact counts are unanimous across the standard roster plus PWD arms
/// with the automaton on under both keyings.
#[test]
fn parse_forests_unaffected_by_automaton_axis() {
    let shape = RandomCfgConfig::default();
    let mut checked = 0usize;
    for seed in 300..320 {
        let Ok(cfg) = remove_useless(&random_cfg(&shape, seed)) else { continue };
        let mut bs: Vec<Box<dyn Parser>> = derp::api::backends(&cfg);
        for (keying, automaton, label) in [
            (MemoKeying::ByClass, AutomatonMode::Lazy, "pwd-auto-class"),
            (MemoKeying::ByValue, AutomatonMode::Lazy, "pwd-auto-value"),
            (MemoKeying::ByClass, AutomatonMode::Off, "pwd-off-class"),
        ] {
            let config = ParserConfig { keying, automaton, ..ParserConfig::improved() };
            bs.push(Box::new(PwdBackend::with_config(&cfg, config, label)));
        }
        for input_seed in 0..10 {
            let input = random_input(&cfg, 7, seed * 419 + input_seed);
            let kinds: Vec<&str> = input.iter().map(String::as_str).collect();
            unanimous_forests(&mut bs, &kinds, &format!("automaton axis, seed {seed}"));
            checked += 1;
        }
    }
    assert!(checked > 150, "coverage sanity: {checked} cases");
}
