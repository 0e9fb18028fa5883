//! The gate runner: every performance gate of the workspace as one row.
//! Each row measures two arms with [`paired`] (interleaved rounds, gated on
//! the median per-round ratio) and prints its figures as JSON lines in the
//! [`pwd_bench::gate`] format.
//!
//! ```text
//! cargo bench -p pwd-bench --no-default-features --bench gates   # hook-free build
//! cargo bench -p pwd-bench --bench gates -- [--smoke] [FILTER]
//! ```
//!
//! FILTER keeps the rows whose name contains it. `--smoke` shrinks rounds
//! and corpora and relaxes each bound to the smoke value written next to
//! it, a check for structural regressions on noisy shared runners. A
//! failed gate fails the run once every selected row has printed.
//!
//! The `obs_overhead` row compares this build, whose observability hooks
//! are compiled in but disabled, with a build that compiles them out. The
//! `--no-default-features` build of this target does one thing: it leaves
//! its executable's path in `CARGO_TARGET_TMPDIR`. The next default run
//! takes the path (once: it deletes the file) and spawns that executable
//! as the row's hook-free arm, and itself as the other arm, one child at a
//! time. Without a fresh hook-free build the row prints a note and records
//! no gate.

use derp::api::{EnumLimits, ParseCount, Parser, PwdBackend, Recognizer, Session};
use derp::RecoveryBudget;
use pwd_bench::gate::{ns, paired, Report};
use pwd_bench::{python_cfg, python_corpus};
use pwd_core::{
    AutomatonMode, CompactionMode, MemoKeying, NullStrategy, ParseMode, ParserConfig, Token,
};
use pwd_grammar::{gen, grammars, Cfg, Compiled};
use pwd_lex::{Lexeme, SharedStr};
use pwd_serve::{Input, ParseService, ServiceConfig};
use std::cell::RefCell;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::Command;

/// A row: its name, and the function that measures it (`true` = smoke).
type Row = (&'static str, fn(&mut Report, bool));

const ROWS: [Row; 13] = [
    ("reset_reuse", reset_reuse),
    ("lexeme_diverse", lexeme_diverse),
    ("automaton", automaton),
    ("stream_throughput", stream_throughput),
    ("serve_throughput", serve_throughput),
    ("forest_amb", forest_amb),
    ("recovery", recovery),
    ("api_feed", api_feed),
    ("incremental", incremental),
    ("obs_overhead", obs_overhead),
    ("ablation_nullability", ablation_nullability),
    ("ablation_compaction", ablation_compaction),
    ("ablation_prepass", ablation_prepass),
];

/// The argument that makes the executable print one warm measurement of
/// the `obs_overhead` workload instead of running rows.
const OBS_ARM: &str = "--obs-arm";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == OBS_ARM) {
        println!("{}", obs_measurement());
        return;
    }
    if !cfg!(feature = "obs") {
        let exe = std::env::current_exe().expect("the runner knows its own path");
        std::fs::write(handoff(), exe.to_string_lossy().as_bytes())
            .expect("CARGO_TARGET_TMPDIR is writable");
        println!("hook-free build ready; the next gated run's obs_overhead row spawns it");
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    // Cargo appends its own `--bench`; the filter is the one positional.
    let filter = args.iter().find(|a| !a.starts_with('-')).map_or("", String::as_str);
    let rows: Vec<&Row> = ROWS.iter().filter(|(name, _)| name.contains(filter)).collect();
    if rows.is_empty() {
        let names: Vec<&str> = ROWS.iter().map(|(name, _)| *name).collect();
        eprintln!("no row matches `{filter}`; the rows are {}", names.join(", "));
        std::process::exit(2);
    }
    let mut out = Report::new();
    for (name, row) in rows {
        out.row(name);
        row(&mut out, smoke);
    }
    if !out.failed().is_empty() {
        eprintln!("failed gates: {}", out.failed().join(", "));
        std::process::exit(1);
    }
}

/// Picks the smoke or the full value of a setting.
fn pick<T>(smoke: bool, smoke_value: T, full: T) -> T {
    if smoke {
        smoke_value
    } else {
        full
    }
}

/// ~90% of identifier occurrences are first occurrences: the lexeme-diverse
/// PL/0 corpus, where per-token pipeline costs dominate and a value-keyed
/// memo misses on nearly every token.
const ID_REUSE: f64 = 0.1;

fn pl0(target: usize, seed: u64, reuse: f64) -> Vec<Lexeme> {
    let src = gen::pl0_source(target, seed, reuse);
    grammars::pl0::lexer().tokenize(&src).expect("generated PL/0 tokenizes")
}

/// `ParserConfig::improved()` with the changes `f` makes.
fn with(f: impl FnOnce(&mut ParserConfig)) -> ParserConfig {
    let mut config = ParserConfig::improved();
    f(&mut config);
    config
}

/// A compiled engine over one token stream. A pass is one epoch reset plus
/// one parse; the compile is not timed.
struct Engine {
    pwd: Compiled,
    toks: Vec<Token>,
}

impl Engine {
    fn new(grammar: &Cfg, config: ParserConfig, lexemes: &[Lexeme]) -> Engine {
        let mut pwd = Compiled::compile(grammar, config);
        let toks = pwd.tokens_from_lexemes(lexemes).expect("corpus kinds are terminals");
        Engine { pwd, toks }
    }

    fn recognize(&mut self) -> u128 {
        ns(|| {
            self.pwd.lang.reset();
            assert!(self.pwd.lang.recognize(self.pwd.start, &self.toks).expect("in budget"));
        })
    }

    fn parse(&mut self) -> u128 {
        ns(|| {
            self.pwd.lang.reset();
            self.pwd.lang.parse_forest(self.pwd.start, &self.toks).expect("corpus parses")
        })
    }
}

/// A service reusing its engine through an epoch reset must not lose to
/// compiling the grammar afresh per input, on Python modules. Bound: reset
/// ≤ 1.10 × fresh at both sizes, smoke included.
fn reset_reuse(out: &mut Report, smoke: bool) {
    let cfg = python_cfg();
    for file in python_corpus(&[200, 600]) {
        let mut reused = Engine::new(&cfg, ParserConfig::improved(), &file.lexemes);
        let pair = paired(
            pick(smoke, 10, 20),
            || reused.recognize(),
            || ns(|| Engine::new(&cfg, ParserConfig::improved(), &file.lexemes).recognize()),
        );
        let at = format!("tokens={}", file.tokens);
        out.bests(&at, ["reset", "fresh"], &pair);
        out.figure(
            &format!("{at}/reset_over_fresh"),
            pair.ratio,
            "ratio",
            Some(pair.ratio <= 1.10),
        );
    }
}

/// Class-keyed against value-keyed derive memoization on the lexeme-diverse
/// corpus. Bounds at the larger size: recognize ≥ 2 (smoke 1.2), parse
/// > 1.05 (smoke > 0.9).
fn lexeme_diverse(out: &mut Report, smoke: bool) {
    let grammar = grammars::pl0::cfg();
    let (recognize_bound, parse_bound) = pick(smoke, (1.2, 0.9), (2.0, 1.05));
    for (i, target) in [300, 1000].into_iter().enumerate() {
        let lexemes = pl0(target, 0xD1CE + i as u64, ID_REUSE);
        let gated = target == 1000;
        let engine = |mode, keying| {
            Engine::new(&grammar, with(|c| (c.mode, c.keying) = (mode, keying)), &lexemes)
        };
        let (mut value, mut class) = (
            engine(ParseMode::Recognize, MemoKeying::ByValue),
            engine(ParseMode::Recognize, MemoKeying::ByClass),
        );
        let recognize = paired(pick(smoke, 10, 20), || value.recognize(), || class.recognize());
        let (mut value, mut class) = (
            engine(ParseMode::Parse, MemoKeying::ByValue),
            engine(ParseMode::Parse, MemoKeying::ByClass),
        );
        let parse = paired(pick(smoke, 10, 20), || value.parse(), || class.parse());
        let at = format!("tokens={}", lexemes.len());
        out.bests(&at, ["value_recognize", "class_recognize"], &recognize);
        out.bests(&at, ["value_parse", "class_parse"], &parse);
        let (r, p) = (recognize.ratio, parse.ratio);
        out.figure(
            &format!("{at}/recognize_speedup"),
            r,
            "ratio",
            gated.then_some(r >= recognize_bound),
        );
        out.figure(&format!("{at}/parse_speedup"), p, "ratio", gated.then_some(p > parse_bound));
    }
}

/// The lazy automaton's table walk against the interpreted class-keyed
/// path, both warm. Every warm table pass must stay on the table and rows
/// must get built, at every size. Bound at the larger size: ≥ 5× (smoke
/// 1.5).
fn automaton(out: &mut Report, smoke: bool) {
    let grammar = grammars::pl0::cfg();
    for (i, target) in [300, 1000].into_iter().enumerate() {
        let lexemes = pl0(target, 0xD1CE + i as u64, ID_REUSE);
        let engine = |automaton| {
            let config = with(|c| {
                (c.mode, c.keying, c.automaton) =
                    (ParseMode::Recognize, MemoKeying::ByClass, automaton)
            });
            Engine::new(&grammar, config, &lexemes)
        };
        let (mut interpreted, mut table) =
            (engine(AutomatonMode::Off), engine(AutomatonMode::Lazy));
        let mut rows_built = 0;
        let pair = paired(
            pick(smoke, 20, 40),
            || interpreted.recognize(),
            || {
                let pass = table.recognize();
                rows_built += table.pwd.lang.metrics().auto_rows_built;
                pass
            },
        );
        let fallbacks = table.pwd.lang.metrics().auto_fallbacks;
        let at = format!("tokens={}", lexemes.len());
        out.bests(&at, ["interpreted", "table"], &pair);
        out.record(&format!("{at}/rows_built"), rows_built as f64, "count");
        out.record(&format!("{at}/warm_fallbacks"), fallbacks as f64, "count");
        assert_eq!(fallbacks, 0, "a warm pass must not leave the table ({at})");
        assert!(rows_built > 0, "the lazy automaton must build rows ({at})");
        let gate = (target == 1000).then_some(pair.ratio >= pick(smoke, 1.5, 5.0));
        out.figure(&format!("{at}/speedup"), pair.ratio, "ratio", gate);
    }
}

/// Text to verdict, fused (lexer source fed straight into the session)
/// against materialized (the whole text lexed into a `Vec<Lexeme>` first),
/// class-keyed, in recognize and in parse mode. Bound at the larger size,
/// both modes: fused ≥ 0.95 × materialized (smoke 0.8).
fn stream_throughput(out: &mut Report, smoke: bool) {
    let grammar = grammars::pl0::cfg();
    let lexer = grammars::pl0::lexer();
    for (i, target) in [300, 1000].into_iter().enumerate() {
        let src = gen::pl0_source(target, 0x5EED + i as u64, ID_REUSE);
        let tokens = lexer.tokenize(&src).expect("generated PL/0 tokenizes").len();
        for (mode, label) in [(ParseMode::Recognize, "recognize"), (ParseMode::Parse, "parse")] {
            let backend = || {
                let config = with(|c| (c.mode, c.keying) = (mode, MemoKeying::ByClass));
                PwdBackend::with_config(&grammar, config, "pwd-stream")
            };
            let (mut materialized, mut fused) = (backend(), backend());
            let pair = paired(
                pick(smoke, 12, 100),
                || {
                    ns(|| {
                        let lexemes = lexer.tokenize(&src).expect("corpus tokenizes");
                        assert!(materialized.recognize_lexemes(&lexemes).expect("corpus parses"));
                    })
                },
                || ns(|| assert!(fused.recognize_source(&mut lexer.source(&src)).expect("parses"))),
            );
            let at = format!("tokens={tokens}/{label}");
            out.bests(&at, ["materialized", "fused"], &pair);
            let gate = (target == 1000).then_some(pair.ratio >= pick(smoke, 0.8, 0.95));
            out.figure(&format!("{at}/fused_speedup"), pair.ratio, "ratio", gate);
        }
    }
}

/// `pwd-serve` batch throughput on Python modules, one worker against more.
/// Every batch must be accepted, warm batches must hit the grammar cache,
/// and the pool must reuse sessions. The 1 → 4 workers bound (≥ 2.5×) is
/// checked only on a full run with at least 4 CPUs; smoke runs measure 1
/// against 2 workers.
fn serve_throughput(out: &mut Report, smoke: bool) {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let (files, target, workers): (usize, usize, &[usize]) =
        pick(smoke, (6, 120, &[2]), (24, 300, &[2, 4, 8]));
    let cfg = python_cfg();
    let inputs: Vec<Input> = python_corpus(&vec![target; files])
        .into_iter()
        .map(|f| Input::from_lexemes(f.lexemes))
        .collect();
    // Submits the corpus as one batch; says whether the grammar was cached.
    let submit = |service: &ParseService| {
        let report = service.submit_batch(&cfg, &inputs).expect("service accepts corpus");
        assert_eq!(report.metrics.accepted, files, "every input must parse");
        report.metrics.cache_hit
    };
    let service = |workers| {
        let service = ParseService::new(ServiceConfig { workers, ..Default::default() });
        submit(&service); // compiles the grammar into the cache
        service
    };
    let warm =
        |service: &ParseService| ns(|| assert!(submit(service), "warm batches hit the cache"));
    out.record("cpus", cpus as f64, "count");
    let one = service(1);
    let mut one_ns = u128::MAX;
    for &n in workers {
        let many = service(n);
        let pair = paired(5, || warm(&one), || warm(&many));
        one_ns = one_ns.min(pair.a_ns);
        let per_sec = files as f64 * 1e9 / pair.b_ns as f64;
        out.record(&format!("workers={n}/inputs_per_sec"), per_sec, "inputs/s");
        let gate = (n == 4 && !smoke && cpus >= 4).then_some(pair.ratio >= 2.5);
        out.figure(&format!("workers={n}/speedup"), pair.ratio, "ratio", gate);
        check_reuse(&many, n, files);
    }
    out.record("workers=1/inputs_per_sec", files as f64 * 1e9 / one_ns as f64, "inputs/s");
    check_reuse(&one, 1, files);
}

fn check_reuse(service: &ParseService, workers: usize, files: usize) {
    let sessions = service.metrics().sessions;
    assert!(
        sessions.forked <= (workers * files) as u64 && sessions.reused > 0,
        "the pool must reuse sessions, not refork: {sessions:?}"
    );
}

/// Exact tree counting against enumerating 64 trees, on the shared forest
/// of the catalan grammar (`S → S S | a`). The count must be finite and
/// above 64 (complete where enumeration truncates). Bound on a¹⁸:
/// counting ≥ 10× enumerating (smoke 4). Beside it, ungated, what building
/// the forest costs.
fn forest_amb(out: &mut Report, smoke: bool) {
    let cfg = grammars::ambiguous::catalan();
    let rounds = pick(smoke, 5, 20);
    let cap = EnumLimits::default().max_trees;
    for n in [12, 18] {
        let word = vec!["a"; n];
        let mut backend = PwdBackend::improved(&cfg);
        let forest = backend.parse_forest(&word).expect("catalan accepts a^n");
        // Each arm call takes the mean of 8 operations: a single count takes
        // tens of µs, and the first one after the other arm's call runs in
        // the caches that arm left behind.
        let count = || ns(|| (0..8).for_each(|_| _ = black_box(forest.count()))) / 8;
        let enumerate = || {
            ns(|| (0..8).for_each(|_| assert_eq!(forest.trees(EnumLimits::default()).len(), cap)))
                / 8
        };
        let pair = paired(rounds, enumerate, count);
        let built = paired(rounds, || ns(|| backend.parse_forest(&word).expect("accepts")), count);
        let at = format!("tokens={n}");
        match forest.count() {
            ParseCount::Finite(total) => {
                out.record(&format!("{at}/ambiguity_count"), total as f64, "trees");
                assert!(total > cap as u128, "a^{n} must exceed the enumeration cap");
            }
            other => panic!("the catalan count must be finite, got {other:?}"),
        }
        out.record(&format!("{at}/construct_ns"), built.a_ns as f64, "ns");
        out.record(&format!("{at}/construct_over_count"), built.ratio, "ratio");
        out.bests(&at, ["enum64", "count"], &pair);
        let gate = (n == 18).then_some(pair.ratio >= pick(smoke, 4.0, 10.0));
        out.figure(&format!("{at}/count_speedup"), pair.ratio, "ratio", gate);
    }
}

/// One session over `lexemes`: open, optional recovery, feed, finish.
fn session(backend: &mut PwdBackend, lexemes: &[Lexeme], recovery: bool) -> u128 {
    ns(|| {
        let mut session = Session::open(backend as &mut dyn Parser).expect("fresh session");
        if recovery {
            session.enable_recovery(RecoveryBudget::default());
        }
        session.feed_lexemes(lexemes).expect("known kinds");
        let (accepted, diagnostics) = session.finish_with_diagnostics().expect("finish");
        assert!(accepted, "corpus must parse (possibly after repair)");
        diagnostics
    })
}

/// Recovery is free on clean input: a recovering session pays one
/// checkpoint per feed and repairs nothing. Both arms share one backend.
/// Bound: clean-input overhead ≤ 5% (smoke 10%). Beside it, ungated, what
/// repair costs on a copy with every 120th token dropped.
fn recovery(out: &mut Report, smoke: bool) {
    let clean = pl0(1000, 0xEC0_7E5, ID_REUSE);
    let damaged: Vec<Lexeme> =
        clean.iter().enumerate().filter(|(i, _)| i % 120 != 60).map(|(_, l)| l.clone()).collect();
    let backend = RefCell::new(PwdBackend::improved(&grammars::pl0::cfg()));
    let run = |lexemes: &[Lexeme], recovery| session(&mut backend.borrow_mut(), lexemes, recovery);
    // A session takes about a millisecond, so 50 rounds cost a tenth of a
    // second; with 20, one smoke run in 20 read 14% on a shared 2-vCPU host.
    let rounds = 50;
    let pair = paired(rounds, || run(&clean, true), || run(&clean, false));
    let at = format!("tokens={}", clean.len());
    out.bests(&at, ["clean_recovery_on", "clean_recovery_off"], &pair);
    let overhead = (pair.ratio - 1.0) * 100.0;
    let bound = pick(smoke, 10.0, 5.0);
    out.figure(
        &format!("{at}/clean_overhead_percent"),
        overhead,
        "percent",
        Some(overhead <= bound),
    );
    let repair = paired(rounds.div_ceil(2), || run(&damaged, true), || run(&clean, true));
    let at = format!("tokens={}", damaged.len());
    out.record(&format!("{at}/damaged_recovery_on_ns"), repair.a_ns as f64, "ns");
    out.record(&format!("{at}/damaged_repair_slowdown"), repair.ratio, "ratio");
}

/// What the API edge adds to the engine walk: a `Session` on
/// `PwdBackend::dfa` fed a lexeme slice (open, `feed_lexemes`, finish)
/// against `Engine::recognize` on the same tokens, resolved to engine
/// tokens outside the timing. Per token the session resolves each kind,
/// feeds it through the backend and keeps its timeline guard. Bound:
/// session ≤ 2.5 × walk (smoke 3.0).
fn api_feed(out: &mut Report, smoke: bool) {
    let grammar = grammars::pl0::cfg();
    let lexemes = pl0(1000, 0x5EED, ID_REUSE);
    let mut backend = PwdBackend::dfa(&grammar);
    let mut walk = Engine::new(&grammar, *backend.compiled().lang.config(), &lexemes);
    let pair =
        paired(pick(smoke, 20, 60), || session(&mut backend, &lexemes, false), || walk.recognize());
    let at = format!("tokens={}", lexemes.len());
    out.bests(&at, ["session", "walk"], &pair);
    let bound = pick(smoke, 3.0, 2.5);
    out.figure(&format!("{at}/session_over_walk"), pair.ratio, "ratio", Some(pair.ratio <= bound));
}

/// Another text of the same kind as the token at `at`, from elsewhere in
/// the buffer (a retyped identifier), else the token's own text.
fn replacement_for(lexemes: &[Lexeme], at: usize) -> SharedStr {
    let target = &lexemes[at];
    lexemes
        .iter()
        .find(|l| l.kind == target.kind && l.text != target.text)
        .map_or_else(|| target.text.clone(), |l| l.text.clone())
}

/// A one-token edit through `Session::splice_tokens` on a long-lived
/// incremental session, against truncate-and-refeed from a checkpoint taken
/// exactly at the edit (the best a non-incremental session can do), at the
/// head, middle and tail of a 10k-token PL/0 buffer (smoke: 2k), on both
/// recognize engines. Edits alternate between two texts so each is a real
/// change. Then `break_mend`: at the middle, one timed splice call is an
/// identifier typed after a `;` that precedes a statement, which kills the
/// document, followed by the delete that mends it; the truncate arm rolls
/// back and refeeds the same two suffixes. Bounds, both engines: splice ≥
/// 10× truncate-and-refeed in the middle and for `break_mend` (smoke 2).
fn incremental(out: &mut Report, smoke: bool) {
    let grammar = grammars::pl0::cfg();
    let lexemes = pl0(pick(smoke, 2_000, 10_000), 0x1C4E, 0.3);
    let n = lexemes.len();
    out.record("tokens", n as f64, "tokens");
    for (engine, automaton) in
        [("automaton", AutomatonMode::Lazy), ("interpreted", AutomatonMode::Off)]
    {
        let config = with(|c| {
            (c.mode, c.keying, c.automaton) = (ParseMode::Recognize, MemoKeying::ByClass, automaton)
        });
        for (label, at) in [("head", 50.min(n / 4)), ("middle", n / 2), ("tail", n - 50)] {
            let texts = [replacement_for(&lexemes, at), lexemes[at].text.clone()];
            let kind = lexemes[at].kind.clone();
            let mut spliced_backend = PwdBackend::with_config(&grammar, config, "pwd-incremental");
            let mut spliced = Session::open(&mut spliced_backend).expect("session opens");
            spliced.enable_incremental().expect("fresh session");
            spliced.feed_lexemes(&lexemes).expect("corpus feeds");
            let mut refed_backend = PwdBackend::with_config(&grammar, config, "pwd-truncate");
            let mut refed = Session::open(&mut refed_backend).expect("session opens");
            refed.feed_lexemes(&lexemes[..at]).expect("prefix feeds");
            let checkpoint = refed.checkpoint().expect("checkpoint");
            refed.feed_lexemes(&lexemes[at..]).expect("suffix feeds");
            let mut edited = lexemes[at..].to_vec();
            edited[0].text = texts[0].clone();
            let suffixes = [edited, lexemes[at..].to_vec()];
            let (mut splices, mut refeeds, mut last) = (0, 0, None);
            let pair = paired(
                pick(smoke, 6, 16),
                || {
                    refeeds += 1;
                    ns(|| {
                        refed.rollback(&checkpoint).expect("checkpoint restores");
                        refed.feed_lexemes(&suffixes[refeeds % 2]).expect("suffix refeeds")
                    })
                },
                || {
                    splices += 1;
                    let edit = [(kind.as_str(), texts[splices % 2].as_str())];
                    ns(|| last = Some(spliced.splice_tokens(at, 1, &edit).expect("splice applies")))
                },
            );
            let last = last.expect("at least one splice");
            let at = format!("{engine}/at={label}");
            out.bests(&at, ["truncate_refeed", "splice"], &pair);
            out.record(&format!("{at}/tokens_refed"), last.refed as f64, "tokens");
            out.record(&format!("{at}/tokens_reused"), last.reused as f64, "tokens");
            let gate = (label == "middle").then_some(pair.ratio >= pick(smoke, 2.0, 10.0));
            out.figure(&format!("{at}/speedup"), pair.ratio, "ratio", gate);
        }
        break_mend(out, smoke, engine, &grammar, config, &lexemes);
    }
}

/// The `break_mend` figures of the `incremental` row for one engine.
fn break_mend(
    out: &mut Report,
    smoke: bool,
    engine: &str,
    grammar: &Cfg,
    config: ParserConfig,
    lexemes: &[Lexeme],
) {
    let at = (lexemes.len() / 2..)
        .find(|&i| lexemes[i - 1].kind == ";" && lexemes[i].kind == "ID")
        .expect("a statement boundary in the second half");
    // The identifier that follows, typed once more: `; y y :=` is dead.
    let typed = [lexemes[at].clone()];
    let mut spliced_backend = PwdBackend::with_config(grammar, config, "pwd-incremental");
    let mut spliced = Session::open(&mut spliced_backend).expect("session opens");
    spliced.enable_incremental().expect("fresh session");
    spliced.feed_lexemes(lexemes).expect("corpus feeds");
    let mut refed_backend = PwdBackend::with_config(grammar, config, "pwd-truncate");
    let mut refed = Session::open(&mut refed_backend).expect("session opens");
    refed.feed_lexemes(&lexemes[..at]).expect("prefix feeds");
    let checkpoint = refed.checkpoint().expect("checkpoint");
    refed.feed_lexemes(&lexemes[at..]).expect("suffix feeds");
    let killed = [&typed[..], &lexemes[at..]].concat();
    let mut last = None;
    let pair = paired(
        pick(smoke, 6, 16),
        || {
            ns(|| {
                for suffix in [&killed[..], &lexemes[at..]] {
                    refed.rollback(&checkpoint).expect("checkpoint restores");
                    refed.feed_lexemes(suffix).expect("suffix refeeds");
                }
            })
        },
        || {
            ns(|| {
                let kill = spliced.splice_lexemes(at, 0, &typed).expect("splice applies");
                let mend = spliced.splice_lexemes(at, 1, &[]).expect("splice applies");
                last = Some((kill, mend));
            })
        },
    );
    let (kill, mend) = last.expect("at least one splice");
    assert!(!kill.outcome.is_viable() && mend.outcome.is_viable(), "{kill:?} then {mend:?}");
    let at = format!("{engine}/break_mend");
    out.bests(&at, ["truncate_refeed", "splice"], &pair);
    out.record(&format!("{at}/tokens_refed"), (kill.refed + mend.refed) as f64, "tokens");
    let gate = pair.ratio >= pick(smoke, 2.0, 10.0);
    out.figure(&format!("{at}/speedup"), pair.ratio, "ratio", Some(gate));
}

/// Where the hook-free build leaves its executable's path.
fn handoff() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("gates-hook-free-exe")
}

/// One warm measurement of the obs workload (class-keyed recognize on the
/// lexeme-diverse corpus, whose per-token loop is where a stray clock read
/// or branch in a hook site would show): the median of 200 passes after
/// 100 warm-up passes. A pass takes about 10 µs; on a shared host the best
/// of a few hundred passes swings by a fifth from one window to the next,
/// while their median holds within a percent.
fn obs_measurement() -> u128 {
    let config = with(|c| (c.mode, c.keying) = (ParseMode::Recognize, MemoKeying::ByClass));
    let mut engine = Engine::new(&grammars::pl0::cfg(), config, &pl0(1000, 0xD1CE, ID_REUSE));
    let mut passes: Vec<u128> = (0..300).map(|_| engine.recognize()).skip(100).collect();
    passes.sort_unstable();
    passes[passes.len() / 2]
}

/// Disabled observability is free: this build (hooks compiled in, no sink)
/// against the hook-free build. Each round spawns both executables, one
/// child at a time, for one measurement each. Both arms run in fresh
/// processes: two processes of one build differ by a few percent (heap and
/// code placement), so timing this process against children would carry
/// one process's placement into every round. Bound: ≤ 2% (smoke 8%).
fn obs_overhead(out: &mut Report, smoke: bool) {
    let hook_free = std::fs::read_to_string(handoff()).ok();
    std::fs::remove_file(handoff()).ok();
    let spawn = |exe: &str| -> Option<u128> {
        let child = Command::new(exe).arg(OBS_ARM).output().ok()?;
        let stdout = String::from_utf8(child.stdout).ok()?;
        child.status.success().then(|| stdout.trim().parse().ok())?
    };
    let Some(hook_free) = hook_free.filter(|exe| spawn(exe).is_some()) else {
        println!(
            "note: no fresh hook-free build, so obs_overhead records no gate; run \
             `cargo bench -p pwd-bench --no-default-features --bench gates` first"
        );
        return;
    };
    let hooked = std::env::current_exe().expect("the runner knows its own path");
    let hooked = hooked.to_string_lossy();
    let pair = paired(
        pick(smoke, 30, 60),
        || spawn(&hooked).expect("this build measures"),
        || spawn(&hook_free).expect("the hook-free build measures"),
    );
    let at = format!("tokens={}", pl0(1000, 0xD1CE, ID_REUSE).len());
    out.bests(&at, ["hooks_disabled", "no_hooks"], &pair);
    let overhead = (pair.ratio - 1.0) * 100.0;
    let bound = pick(smoke, 8.0, 2.0);
    out.figure(&format!("{at}/overhead_percent"), overhead, "percent", Some(overhead <= bound));
}

/// The paper's design axes, ungated: each variant's recognize time on one
/// Python module over `ParserConfig::improved()`'s on the same module.
fn ablation(out: &mut Report, smoke: bool, variants: &[(&str, ParserConfig, usize)]) {
    let cfg = python_cfg();
    for &(label, config, target) in variants {
        let file = &python_corpus(&[target])[0];
        let (mut variant, mut improved) = (
            Engine::new(&cfg, config, &file.lexemes),
            Engine::new(&cfg, ParserConfig::improved(), &file.lexemes),
        );
        let pair = paired(pick(smoke, 3, 10), || variant.recognize(), || improved.recognize());
        let at = format!("{label}/tokens={}", file.tokens);
        out.bests(&at, ["variant", "improved"], &pair);
        out.record(&format!("{at}/over_improved"), pair.ratio, "ratio");
    }
}

fn ablation_nullability(out: &mut Report, smoke: bool) {
    let null = |strategy| with(|c| c.nullability = strategy);
    ablation(
        out,
        smoke,
        &[
            ("worklist", null(NullStrategy::Worklist), 200),
            ("naive", null(NullStrategy::Naive), 200),
        ],
    );
}

/// Compaction off is the paper's "three minutes for 31 lines" arm, so it
/// gets a 60-token module.
fn ablation_compaction(out: &mut Report, smoke: bool) {
    let compaction = |mode| with(|c| c.compaction = mode);
    ablation(
        out,
        smoke,
        &[
            ("separate_pass", compaction(CompactionMode::SeparatePass), 200),
            ("none", compaction(CompactionMode::None), 60),
        ],
    );
}

fn ablation_prepass(out: &mut Report, smoke: bool) {
    let config = with(|c| c.prepass_right_children = false);
    ablation(out, smoke, &[("without_prepass", config, 200)]);
}
