//! One diagnostic probe binary, many subcommands — the consolidation of the
//! former one-off bins (`debug_growth`, `debug_growth2`, `debug_ambiguity`,
//! `debug_min`, `reset_probe`, `probe_keying`):
//!
//! ```text
//! cargo run --release -p pwd-bench --bin probe -- growth [tokens]
//! cargo run --release -p pwd-bench --bin probe -- units
//! cargo run --release -p pwd-bench --bin probe -- ambiguity
//! cargo run --release -p pwd-bench --bin probe -- min
//! cargo run --release -p pwd-bench --bin probe -- reset
//! cargo run --release -p pwd-bench --bin probe -- keying [tokens] [--forest-dot [FILE]]
//! cargo run --release -p pwd-bench --bin probe -- automaton [tokens]
//! cargo run --release -p pwd-bench --bin probe -- trace [tokens] [FILE]
//! cargo run --release -p pwd-bench --bin probe -- diagnose FILE [backend]
//! cargo run --release -p pwd-bench --bin probe -- splice FILE [backend]
//! ```
//!
//! * `growth` — per-token reachable-graph growth on the Python grammar.
//! * `units` — reachable growth on degenerate repetitive programs.
//! * `ambiguity` — parse-counts of Python snippets (ambiguity hunt).
//! * `min` — minimal statement-list grammars, reachable size per shape.
//! * `reset` — compile cost, then per Python module (200- and 2,048-token
//!   targets) the reset that follows a parse (µs per reset, ns per derived
//!   node dropped), reset+parse and fresh compile+parse.
//! * `keying` — memo-keying effectiveness matrix on lexeme-diverse PL/0;
//!   `--forest-dot` renders an ambiguous forest as Graphviz instead.
//! * `automaton` — lazy-automaton row occupancy, signature words per state,
//!   the cold pass in ms and fallback stats on the lexeme-diverse PL/0
//!   corpus, across a sweep of row budgets.
//! * `trace` — traced end-to-end run on lexeme-diverse PL/0: writes a
//!   Chrome `trace_event` JSON timeline (default `TRACE_pl0.json`; open in
//!   `chrome://tracing` or Perfetto) and prints a per-phase time table.
//! * `diagnose` — parses a PL/0 source file with bounded-budget error
//!   recovery and prints rustc-style spanned diagnostics for every repair;
//!   exit code 0 = clean, 1 = diagnostics emitted, 2 = usage/IO error.
//! * `splice` — feeds a PL/0 source file into an incremental session, then
//!   replays a deterministic edit script (single-token replacements
//!   sweeping the buffer, two passes) printing per-edit latency, the
//!   checkpoint-ladder rung each splice re-entered from, and the
//!   refed/reused token split; exit code 2 = usage/IO error.

use pwd_bench::{python_cfg, python_corpus};
use pwd_core::{
    AutomatonMode, MemoKeying, MemoStrategy, ParseMode, ParserConfig, Phase, PhaseStats, TraceEvent,
};
use pwd_grammar::{gen, grammars, CfgBuilder, Compiled};
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("growth") => growth(arg_usize(&args, 1, 200)),
        Some("units") => units(),
        Some("ambiguity") => ambiguity(),
        Some("min") => min(),
        Some("reset") => reset(),
        Some("keying") => keying(&args[1..]),
        Some("automaton") => automaton(arg_usize(&args, 1, 600)),
        Some("trace") => trace(arg_usize(&args, 1, 600), args.get(2).cloned()),
        Some("diagnose") => diagnose(args.get(1).cloned(), args.get(2).cloned()),
        Some("splice") => splice(args.get(1).cloned(), args.get(2).cloned()),
        _ => {
            eprintln!(
                "usage: probe <growth [tokens] | units | ambiguity | min | reset | \
                 keying [tokens] [--forest-dot [FILE]] | automaton [tokens] | \
                 trace [tokens] [FILE] | diagnose FILE [backend] | \
                 splice FILE [backend]>"
            );
            std::process::exit(2);
        }
    }
}

fn arg_usize(args: &[String], idx: usize, default: usize) -> usize {
    args.get(idx).and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Per-token reachable-graph growth on the Python grammar.
fn growth(target: usize) {
    let cfg = python_cfg();
    let corpus = python_corpus(&[target]);
    let file = &corpus[0];
    let mut pwd = Compiled::compile(&cfg, ParserConfig::improved());
    let toks = pwd.tokens_from_lexemes(&file.lexemes).expect("terminals");
    let start = pwd.start;
    println!("initial grammar reachable: {}", pwd.lang.reachable_count(start));

    for k in (10..=toks.len()).step_by((toks.len() / 12).max(10)) {
        pwd.lang.reset();
        let d = pwd.lang.derivative(start, &toks[..k]).expect("ok");
        let reach = pwd.lang.reachable_count(d);
        let m = pwd.lang.metrics();
        println!(
            "prefix {:>5}: reachable {:>8}  nodes_created {:>10}  per-token {:>8.0}",
            k,
            reach,
            m.nodes_created,
            m.nodes_created as f64 / k as f64,
        );
        println!("  census: {:?}", pwd.lang.kind_census(d));
    }
}

/// Reachable growth on degenerate repetitive programs, plus the hottest
/// structural patterns among live nodes for `pass`*16.
fn units() {
    let cfg = python_cfg();
    {
        let mut pwd = Compiled::compile(&cfg, ParserConfig::improved());
        let lexemes = pwd_lex::tokenize_python(&"pass\n".repeat(16)).unwrap();
        let toks = pwd.tokens_from_lexemes(&lexemes).unwrap();
        let start = pwd.start;
        let d = pwd.lang.derivative(start, &toks).unwrap();
        for line in pwd.lang.hot_patterns(d, 25) {
            println!("{line}");
        }
        println!();
    }
    for (label, unit) in
        [("pass", "pass\n"), ("assign", "x = 1\n"), ("call", "f(1)\n"), ("binop", "x = x + 1\n")]
    {
        println!("--- unit {label:?} ---");
        for k in [4usize, 8, 16, 32, 64] {
            let src = unit.repeat(k);
            let mut pwd = Compiled::compile(&cfg, ParserConfig::improved());
            let lexemes = pwd_lex::tokenize_python(&src).unwrap();
            let toks = pwd.tokens_from_lexemes(&lexemes).unwrap();
            let start = pwd.start;
            let d = pwd.lang.derivative(start, &toks).unwrap();
            println!(
                "  k={k:>3} tokens={:>4} reachable={:>6} census={:?}",
                toks.len(),
                pwd.lang.reachable_count(d),
                pwd.lang.kind_census(d),
            );
        }
    }
}

/// Parse-count of Python snippets (ambiguity hunt).
fn ambiguity() {
    let cfg = python_cfg();
    let snippets = [
        "x = 1\n",
        "x = 1 + 2\n",
        "x = f(1)\n",
        "x = f(1, 2)\n",
        "x = a.b\n",
        "x = a[1]\n",
        "x = a[1:2]\n",
        "x = (1, 2)\n",
        "x = [1, 2]\n",
        "x = {1: 2}\n",
        "x, y = 1, 2\n",
        "if x:\n    pass\n",
        "def f(a):\n    return a\n",
        "for i in range(3):\n    pass\n",
        "x = 'a' 'b'\n",
        "x = lambda a: a\n",
        "x = y if z else w\n",
        "print(x)\n",
        "x = a + b * c - d\n",
        "x = f(g(h(1)))\n",
        "pass\npass\npass\n",
        "x = 1\ny = 2\nz = 3\n",
    ];
    for src in snippets {
        let mut pwd = Compiled::compile(&cfg, ParserConfig::improved());
        let lexemes = pwd_lex::tokenize_python(src).unwrap();
        let toks = pwd.tokens_from_lexemes(&lexemes).unwrap();
        let start = pwd.start;
        match pwd.lang.count_parses(start, &toks) {
            Ok(n) => println!("{:>6}  {src:?}", n.to_string()),
            Err(e) => println!("  ERR({e})  {src:?}"),
        }
    }
}

/// Minimal statement-list growth repros: reachable size per grammar shape.
fn min() {
    fn probe(label: &str, build: impl Fn(&mut CfgBuilder)) {
        let mut g = CfgBuilder::new("S");
        build(&mut g);
        let cfg = g.build().unwrap();
        let mut pwd = Compiled::compile(&cfg, ParserConfig::improved());
        print!("{label:<40}");
        for k in [2usize, 4, 8, 16, 32] {
            pwd.lang.reset();
            let mut toks = Vec::new();
            for _ in 0..k {
                toks.push(pwd.token("p", "p").unwrap());
                toks.push(pwd.token("n", "n").unwrap());
            }
            let start = pwd.start;
            let d = pwd.lang.derivative(start, &toks).unwrap();
            print!(" {:>6}", pwd.lang.reachable_count(d));
        }
        println!();
    }

    probe("S=ε|S T; T=p n", |g| {
        g.terminals(&["p", "n"]);
        g.rule("S", &[]);
        g.rule("S", &["S", "T"]);
        g.rule("T", &["p", "n"]);
    });
    probe("S=ε|S T; T=U n; U=p", |g| {
        g.terminals(&["p", "n"]);
        g.rule("S", &[]);
        g.rule("S", &["S", "T"]);
        g.rule("T", &["U", "n"]);
        g.rule("U", &["p"]);
    });
    probe("S=T|S T; T=p n", |g| {
        g.terminals(&["p", "n"]);
        g.rule("S", &["T"]);
        g.rule("S", &["S", "T"]);
        g.rule("T", &["p", "n"]);
    });
    probe("right rec: S=ε|T S; T=p n", |g| {
        g.terminals(&["p", "n"]);
        g.rule("S", &[]);
        g.rule("S", &["T", "S"]);
        g.rule("T", &["p", "n"]);
    });
    probe("S=ε|S T; T=A n; A=ε|p", |g| {
        g.terminals(&["p", "n"]);
        g.rule("S", &[]);
        g.rule("S", &["S", "T"]);
        g.rule("T", &["A", "n"]);
        g.rule("A", &[]);
        g.rule("A", &["p"]);
    });
    probe("nested list: T=L n; L=p|L ; p", |g| {
        g.terminals(&["p", "n", ";"]);
        g.rule("S", &[]);
        g.rule("S", &["S", "T"]);
        g.rule("T", &["L", "n"]);
        g.rule("L", &["p"]);
        g.rule("L", &["L", ";", "p"]);
    });
    probe("expr chain: T=E n; E=F|E + F; F=p", |g| {
        g.terminals(&["p", "n", "+"]);
        g.rule("S", &[]);
        g.rule("S", &["S", "T"]);
        g.rule("T", &["E", "n"]);
        g.rule("E", &["F"]);
        g.rule("E", &["E", "+", "F"]);
        g.rule("F", &["p"]);
    });
    probe("two stmt kinds", |g| {
        g.terminals(&["p", "q", "n"]);
        g.rule("S", &[]);
        g.rule("S", &["S", "T"]);
        g.rule("T", &["p", "n"]);
        g.rule("T", &["q", "n"]);
    });
    probe("deep unary chain", |g| {
        g.terminals(&["p", "n"]);
        g.rule("S", &[]);
        g.rule("S", &["S", "T"]);
        g.rule("T", &["A1", "n"]);
        g.rule("A1", &["A2"]);
        g.rule("A2", &["A3"]);
        g.rule("A3", &["A4"]);
        g.rule("A4", &["p"]);
    });
    probe("suite-like: T=p n|h n I S D", |g| {
        // compound statement with a nested statement list (suite)
        g.terminals(&["p", "n", "h", "I", "D"]);
        g.rule("S", &[]);
        g.rule("S", &["S", "T"]);
        g.rule("T", &["p", "n"]);
        g.rule("T", &["h", "n", "I", "S", "D"]);
    });
    probe("python-like small core", |g| {
        g.terminals(&["p", "n", ";", "=", "x", "+"]);
        g.rule("S", &[]);
        g.rule("S", &["S", "T"]);
        g.rule("T", &["SS", "n"]);
        g.rule("SS", &["Sm"]);
        g.rule("SS", &["SS", ";", "Sm"]);
        g.rule("Sm", &["p"]);
        g.rule("Sm", &["E"]);
        g.rule("Sm", &["E", "=", "E"]);
        g.rule("E", &["F"]);
        g.rule("E", &["E", "+", "F"]);
        g.rule("F", &["x"]);
    });
}

/// Micro-probe separating the costs behind the `reset_reuse` bench.
fn reset() {
    let cfg = python_cfg();

    // compile-only cost
    let t0 = Instant::now();
    for _ in 0..50 {
        let c = Compiled::compile(&cfg, ParserConfig::improved());
        std::hint::black_box(&c);
    }
    println!("compile-only: {:?}/round", t0.elapsed() / 50);

    for (file, rounds) in python_corpus(&[200, 2_048]).iter().zip([30u32, 10]) {
        let mut pwd = Compiled::compile(&cfg, ParserConfig::improved());
        let toks = pwd.tokens_from_lexemes(&file.lexemes).unwrap();
        let start = pwd.start;
        println!("module of {} tokens (target {}):", toks.len(), file.target);
        // warmup
        for _ in 0..3 {
            assert!(pwd.lang.recognize(start, &toks).unwrap());
            pwd.lang.reset();
        }
        // The reset that follows each parse: a reset of an engine that has
        // parsed nothing since the last one has nothing to drop.
        let (mut spent, mut dropped) = (Duration::ZERO, 0);
        for _ in 0..rounds {
            assert!(pwd.lang.recognize(start, &toks).unwrap());
            let derived = pwd.lang.node_count();
            let t0 = Instant::now();
            pwd.lang.reset();
            spent += t0.elapsed();
            dropped += derived - pwd.lang.node_count();
        }
        println!(
            "  reset after parse: {:.2} µs/reset, {:.2} ns/derived node, {:.3} µs/token",
            spent.as_secs_f64() * 1e6 / rounds as f64,
            spent.as_secs_f64() * 1e9 / dropped as f64,
            spent.as_secs_f64() * 1e6 / (rounds as usize * toks.len()) as f64,
        );
        // reset+parse
        let t0 = Instant::now();
        for _ in 0..rounds {
            pwd.lang.reset();
            assert!(pwd.lang.recognize(start, &toks).unwrap());
        }
        println!("  reset+parse: {:?}/round", t0.elapsed() / rounds);
        // fresh compile+parse
        let t0 = Instant::now();
        for _ in 0..rounds {
            let mut p = Compiled::compile(&cfg, ParserConfig::improved());
            let tk = p.tokens_from_lexemes(&file.lexemes).unwrap();
            assert!(p.lang.recognize(p.start, &tk).unwrap());
        }
        println!("  fresh+parse: {:?}/round", t0.elapsed() / rounds);
    }
}

/// Renders the canonical shared forest of `n+n*n+n` under the ambiguous
/// expression grammar (E → E+E | E*E | n): 5 readings, one packed graph.
fn forest_dot() -> String {
    let mut c = Compiled::compile(&grammars::ambiguous::expr(), ParserConfig::improved());
    let toks: Vec<_> = ["n", "+", "n", "*", "n", "+", "n"]
        .iter()
        .map(|k| c.token(k, k).expect("grammar terminal"))
        .collect();
    let start = c.start;
    let root = c.lang.parse_forest(start, &toks).expect("ambiguous sentence parses");
    let canon = c.lang.canonical_forest(root).expect("compiled grammars canonicalize");
    eprintln!(
        "forest of n+n*n+n: {} readings, {} packed nodes, depth {}, fingerprint {:016x}",
        canon.count(),
        canon.node_count(),
        canon.depth(),
        canon.fingerprint()
    );
    canon.to_dot()
}

/// Memo-keying effectiveness matrix on the lexeme-diverse PL/0 corpus;
/// `--forest-dot [FILE]` renders an ambiguous forest as Graphviz instead.
fn keying(args: &[String]) {
    if let Some(i) = args.iter().position(|a| a == "--forest-dot") {
        let dot = forest_dot();
        match args.get(i + 1) {
            Some(path) if !path.starts_with("--") => {
                std::fs::write(path, &dot).expect("write DOT file");
                eprintln!("wrote {path}");
            }
            _ => print!("{dot}"),
        }
        return;
    }
    let target = arg_usize(args, 0, 600);
    let lx = grammars::pl0::lexer();
    let src = gen::pl0_source(target, 0xD1CE, 0.1);
    let lexemes = lx.tokenize(&src).unwrap();
    println!("tokens: {}", lexemes.len());
    for mode in [ParseMode::Recognize, ParseMode::Parse] {
        for memo in [MemoStrategy::SingleEntry, MemoStrategy::DualEntry, MemoStrategy::FullHash] {
            for keying in [MemoKeying::ByValue, MemoKeying::ByClass] {
                let cfg = ParserConfig { mode, keying, memo, ..ParserConfig::improved() };
                let mut pwd = Compiled::compile(&grammars::pl0::cfg(), cfg);
                let toks = pwd.tokens_from_lexemes(&lexemes).unwrap();
                let start = pwd.start;
                let run = |pwd: &mut Compiled| {
                    pwd.lang.reset();
                    match mode {
                        ParseMode::Recognize => {
                            assert!(pwd.lang.recognize(start, &toks).unwrap());
                        }
                        ParseMode::Parse => {
                            pwd.lang.parse_forest(start, &toks).unwrap();
                        }
                    }
                };
                run(&mut pwd); // warm the prepass cache and template rows
                let rounds = 20u32;
                let t0 = Instant::now();
                for _ in 0..rounds {
                    run(&mut pwd);
                }
                let ns = t0.elapsed().as_nanos() / rounds as u128;
                let m = *pwd.lang.metrics();
                println!(
                    "{mode:?}/{memo:?}/{keying:?}: ns={ns} calls={} uncached={} nodes={} \
                     evict={} tmpl_rec={} tmpl_inst={} tmpl_share={}",
                    m.derive_calls,
                    m.derive_uncached,
                    m.nodes_created,
                    m.memo_evictions,
                    m.templates_recorded,
                    m.template_instantiations,
                    m.template_shares,
                );
            }
        }
    }
}

/// Lazy-automaton row-occupancy and fallback stats on the lexeme-diverse
/// PL/0 corpus: one warm engine per row budget, showing how many states a
/// real grammar settles into, how dense the explored transition rows are,
/// how many signature words each state holds, what the cold pass (the one
/// that builds the rows) costs, and what fraction of warm-pass tokens fall
/// back to the interpreted path once the budget freezes the table.
fn automaton(target: usize) {
    let lx = grammars::pl0::lexer();
    let src = gen::pl0_source(target, 0xD1CE, 0.1);
    let lexemes = lx.tokenize(&src).unwrap();
    println!("tokens: {}", lexemes.len());
    for max_rows in [usize::MAX, 4096, 512, 64, 8, 2] {
        let cfg = ParserConfig {
            mode: ParseMode::Recognize,
            keying: MemoKeying::ByClass,
            automaton: AutomatonMode::Lazy,
            automaton_max_rows: max_rows,
            ..ParserConfig::improved()
        };
        let mut pwd = Compiled::compile(&grammars::pl0::cfg(), cfg);
        let toks = pwd.tokens_from_lexemes(&lexemes).unwrap();
        let start = pwd.start;
        // Cold pass builds rows; warm pass shows the steady state.
        pwd.lang.reset();
        let t0 = Instant::now();
        assert!(pwd.lang.recognize(start, &toks).unwrap());
        let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
        let cold = *pwd.lang.metrics();
        pwd.lang.reset();
        assert!(pwd.lang.recognize(start, &toks).unwrap());
        let warm = *pwd.lang.metrics();
        let stats = pwd.lang.automaton_stats();
        let budget =
            if max_rows == usize::MAX { "unbounded".to_string() } else { max_rows.to_string() };
        println!(
            "budget {budget:>9}: states={:>5} stride={:>2} explored={:>6} occupancy={:>5.1}% \
             accept_cached={:>5} dead={:>3} frozen={} words/state={:>6.1}",
            stats.states,
            stats.stride,
            stats.explored_transitions,
            stats.occupancy() * 100.0,
            stats.accept_cached,
            stats.dead_states,
            stats.frozen,
            stats.signature_words as f64 / stats.states.max(1) as f64,
        );
        println!(
            "  cold: rows_built={:>5} table_hits={:>6} fallbacks={:>6} hit_ratio={:>5.1}% \
             {cold_ms:.3} ms",
            cold.auto_rows_built,
            cold.auto_table_hits,
            cold.auto_fallbacks,
            cold.auto_hit_ratio().unwrap_or(0.0) * 100.0,
        );
        println!(
            "  warm: rows_built={:>5} table_hits={:>6} fallbacks={:>6} hit_ratio={:>5.1}%",
            warm.auto_rows_built,
            warm.auto_table_hits,
            warm.auto_fallbacks,
            warm.auto_hit_ratio().unwrap_or(0.0) * 100.0,
        );
    }
}

/// Traced end-to-end run on the lexeme-diverse PL/0 corpus. Two engine
/// tracks share one timeline: track 0 lexes and recognizes through the
/// lazy automaton (lex, derive, compact, nullable, auto_row spans); track 1
/// builds the shared parse forest (derive, compact, forest spans). The
/// stitched trace is written as Chrome `trace_event` JSON — load it in
/// `chrome://tracing` or Perfetto — and the per-phase histograms are
/// printed as a time table.
fn trace(target: usize, out: Option<String>) {
    let out = out.unwrap_or_else(|| "TRACE_pl0.json".to_string());
    let grammar = grammars::pl0::cfg();
    let lx = grammars::pl0::lexer();
    let src = gen::pl0_source(target, 0xD1CE, 0.1);

    // Track 0: lex + recognize with the lazy automaton building rows.
    let rec_cfg = ParserConfig {
        mode: ParseMode::Recognize,
        keying: MemoKeying::ByClass,
        automaton: AutomatonMode::Lazy,
        ..ParserConfig::improved()
    };
    let mut rec = Compiled::compile(&grammar, rec_cfg);
    rec.lang.enable_obs(true);
    if !rec.lang.obs_enabled() {
        eprintln!(
            "observability hooks are compiled out — rebuild with the default \
             `obs` feature (drop `--no-default-features`)"
        );
        std::process::exit(2);
    }
    // The engine stamps trace events relative to `enable_obs`; `zero`
    // anchors the manual lex span and the second track to that timeline.
    let zero = Instant::now();
    let lexemes = lx.tokenize(&src).expect("generated PL/0 tokenizes");
    let lex_ns = zero.elapsed().as_nanos() as u64;
    println!("tokens: {}", lexemes.len());
    let toks = rec.tokens_from_lexemes(&lexemes).expect("terminals");
    let start = rec.start;
    assert!(rec.lang.recognize(start, &toks).expect("corpus recognizes"));

    // Track 1: forest construction in parse mode, on a fresh engine so the
    // recognize track's caches don't hide the forest-building work.
    let par_cfg = ParserConfig {
        mode: ParseMode::Parse,
        keying: MemoKeying::ByClass,
        ..ParserConfig::improved()
    };
    let mut par = Compiled::compile(&grammar, par_cfg);
    let par_offset = zero.elapsed().as_nanos() as u64;
    par.lang.enable_obs(true);
    let ptoks = par.tokens_from_lexemes(&lexemes).expect("terminals");
    let pstart = par.start;
    par.lang.parse_forest(pstart, &ptoks).expect("corpus parses");

    // Stitch the tracks: the lex span leads track 0, the parse engine's
    // events shift onto the shared clock and move to track 1.
    let mut events = rec.lang.take_trace();
    events.insert(
        0,
        TraceEvent { name: "lex".to_string(), cat: "lex", ts_ns: 0, dur_ns: lex_ns, tid: 0 },
    );
    for mut e in par.lang.take_trace() {
        e.ts_ns += par_offset;
        e.tid = 1;
        events.push(e);
    }

    // Per-phase table over both engines plus the lex span.
    let mut phases = PhaseStats::new();
    phases.record(Phase::Lex, lex_ns);
    if let Some(p) = rec.lang.obs_phases() {
        phases.merge(p);
    }
    if let Some(p) = par.lang.obs_phases() {
        phases.merge(p);
    }
    println!(
        "{:<10} {:>8} {:>14} {:>12} {:>12}",
        "phase", "spans", "total_ns", "mean_ns", "p99_ns"
    );
    for (phase, h) in phases.recorded() {
        println!(
            "{:<10} {:>8} {:>14} {:>12.0} {:>12}",
            phase.as_str(),
            h.count(),
            h.sum(),
            h.mean().unwrap_or(0.0),
            h.quantile(0.99).unwrap_or(0),
        );
    }

    let mut names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    std::fs::write(&out, pwd_obs::chrome_trace_json(&events)).expect("write trace file");
    println!(
        "wrote {} spans ({} distinct: {}) to {out}",
        events.len(),
        names.len(),
        names.join(", ")
    );
}

/// Parses a PL/0 source file with bounded-budget error recovery and prints
/// one rustc-style block (severity, message, line:column caret frame,
/// expected-set help) per diagnostic. Exit code 0 when the file is clean,
/// 1 when any diagnostic was emitted, 2 on usage or I/O errors.
fn diagnose(path: Option<String>, backend_name: Option<String>) {
    use derp::{RecoveryBudget, Session, Severity};

    let Some(path) = path else {
        eprintln!("usage: probe diagnose FILE [backend]");
        eprintln!("backends: {:?}", derp::api::BACKEND_NAMES);
        std::process::exit(2);
    };
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let name = backend_name.as_deref().unwrap_or("pwd-improved");
    let Some(mut backend) = derp::api::backend_by_name(name, &grammars::pl0::cfg()) else {
        eprintln!("unknown backend {name:?}; expected one of {:?}", derp::api::BACKEND_NAMES);
        std::process::exit(2);
    };

    let lexer = grammars::pl0::lexer();
    let mut tokens = lexer.source(&src);
    let mut session = Session::open(backend.as_mut()).expect("fresh backend opens a session");
    session.enable_recovery(RecoveryBudget::default());
    if let Err(e) = session.feed_source(&mut tokens) {
        eprintln!("internal parser error: {e}");
        std::process::exit(2);
    }
    let (accepted, diagnostics) = match session.finish_with_diagnostics() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("internal parser error: {e}");
            std::process::exit(2);
        }
    };

    for d in &diagnostics {
        println!("{}\n", d.render(&src));
    }
    let count = |s: Severity| diagnostics.iter().filter(|d| d.severity == s).count();
    let (errors, warnings, notes) =
        (count(Severity::Error), count(Severity::Warning), count(Severity::Note));
    if diagnostics.is_empty() {
        println!("{path}: clean — {} ({name})", if accepted { "accepted" } else { "rejected" });
        std::process::exit(if accepted { 0 } else { 1 });
    }
    println!(
        "{path}: {errors} error(s), {warnings} warning(s), {notes} note(s); \
         parse {} after repair ({name})",
        if accepted { "recovered" } else { "failed" }
    );
    std::process::exit(1);
}

/// Feeds a PL/0 source file into an incremental session and replays a
/// deterministic edit script: single-token same-kind replacements sweeping
/// the buffer decile by decile, two passes. Pass 1 swaps each target for a
/// donor lexeme of the same kind; pass 2 restores the original text —
/// showing cold-ladder and warm-ladder (re-anchored rung) behavior on the
/// same positions. Per edit: latency, the rung the splice re-entered from,
/// the rollback distance, the refed/reused split, and the convergence
/// point, followed by the session's cumulative splice counters.
fn splice(path: Option<String>, backend_name: Option<String>) {
    use derp::Session;

    let Some(path) = path else {
        eprintln!("usage: probe splice FILE [backend]");
        eprintln!("backends: {:?} or \"pwd-dfa\"", derp::api::BACKEND_NAMES);
        std::process::exit(2);
    };
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    // The recognize-mode automaton backend by default: it witnesses state
    // signatures, so the convergence fast path is visible in the output.
    let name = backend_name.as_deref().unwrap_or("pwd-dfa");
    let Some(mut backend) = derp::api::backend_by_name(name, &grammars::pl0::cfg()) else {
        eprintln!(
            "unknown backend {name:?}; expected one of {:?} or \"pwd-dfa\"",
            derp::api::BACKEND_NAMES
        );
        std::process::exit(2);
    };
    let lexer = grammars::pl0::lexer();
    let lexemes = match lexer.tokenize(&src) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{path}: lex error: {e}");
            std::process::exit(2);
        }
    };
    let n = lexemes.len();
    if n < 10 {
        eprintln!("{path}: need at least 10 tokens to sweep, got {n}");
        std::process::exit(2);
    }

    let mut session = Session::open(backend.as_mut()).expect("fresh backend opens a session");
    session.enable_incremental().expect("incremental on a fresh session");
    let t0 = Instant::now();
    if let Err(e) = session.feed_lexemes(&lexemes) {
        eprintln!("{path}: parse error: {e}");
        std::process::exit(2);
    }
    println!("{path}: fed {n} tokens in {:?} ({name})", t0.elapsed());
    println!(
        "{:>4} {:>6} {:>10} {:>6} {:>6} {:>6} {:>7} {:>9}",
        "pass", "at", "ns", "rung", "dist", "refed", "reused", "converged"
    );
    for pass in 1..=2u32 {
        for decile in 1..10usize {
            let at = n * decile / 10;
            let target = &lexemes[at];
            let donor = lexemes
                .iter()
                .find(|l| l.kind == target.kind && l.text != target.text)
                .map_or_else(|| target.text.clone(), |l| l.text.clone());
            let text = if pass == 1 { donor } else { target.text.clone() };
            let t0 = Instant::now();
            let out = match session.splice_tokens(at, 1, &[(target.kind.as_str(), text.as_str())]) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("splice at {at} failed: {e}");
                    std::process::exit(2);
                }
            };
            println!(
                "{:>4} {:>6} {:>10} {:>6} {:>6} {:>6} {:>7} {:>9}",
                pass,
                at,
                t0.elapsed().as_nanos(),
                out.rung,
                at - out.rung,
                out.refed,
                out.reused,
                out.converged_at.map_or_else(|| "-".to_string(), |c| c.to_string()),
            );
        }
    }
    let m = session.metrics();
    println!(
        "cumulative: refed={} reused={} ladder_rollback_distance={}",
        m.tokens_refed, m.tokens_reused, m.ladder_rollback_distance
    );
    match session.finish() {
        Ok(accepted) => {
            println!("final verdict: {}", if accepted { "accepted" } else { "rejected" })
        }
        Err(e) => {
            eprintln!("finish failed: {e}");
            std::process::exit(2);
        }
    }
}
