//! `python_forest`, the paper's workload: a `gen::python_source` module →
//! `tokenize_python` → `ParseService::submit` on `pwd-improved` with
//! forests and parse counting → `ForestSummary`, one request at a time.
//!
//! Module sizes are log-uniform over 128–2048 tokens. Parse-mode
//! derivation and forest building dominate; the PL/0 lexer, the automaton
//! and incremental mode are unused, so this workload is the "no change"
//! side for optimisations to those layers.

use crate::calib::{self, Calibrator};
use crate::inputs;
use crate::oracle::Oracle;
use crate::run::{self, lexemes, ColdStart, Layers, Outcome, Pass, Plan};
use crate::trace::Tracer;
use derp::api::{ForestSummary, PwdBackend, Session};
use derp::core::ParserConfig;
use derp::grammar::grammars::python;
use derp::grammar::{Cfg, Compiled};
use derp::lex::{tokenize_python, Lexeme};
use pwd_serve::{Input, ParseService};
use std::time::Instant;

/// The plan of a run: 14 modules per second of `seconds`, of 128–2048
/// tokens (stratified log-uniform), and 150 cold starts (each compiles the
/// Python grammar).
pub fn plan(seed: u64, seconds: u64) -> Plan {
    Plan { cold_starts: 150, ..Plan::new(seed, seconds, 14.0, (128, 2048)) }
}

fn service(observability: bool) -> ParseService {
    let mut config = run::service_config("pwd-improved", observability);
    config.forests = true;
    config.count_parses = true;
    ParseService::new(config)
}

/// What every pass of a run shares.
struct Bench<'p> {
    plan: &'p Plan,
    cfg: Cfg,
    oracle: Oracle,
    cal: Calibrator,
}

/// Runs the workload.
pub fn run(plan: &Plan) -> Outcome {
    let cfg = python::cfg();
    let mut b = Bench { plan, oracle: Oracle::new(&cfg), cfg, cal: Calibrator::new() };
    let mut out = Outcome::default();

    let first = inputs::setup_document("python_forest");
    let first_lexemes = tokenize_python(&first).expect("the cold-start module lexes");
    let want = b.oracle.forest(&first_lexemes).expect("GLR parses the cold-start module");
    let (setup, right) =
        run::measure_setup(plan.cold_starts, &mut b.cal, || cold_start(&first, &want));
    if !right {
        b.oracle.mismatch("a cold start answered its first request wrongly".into());
    }

    let svc = service(false);
    let (pass, answers) = b.pass(&svc, &mut Tracer::new(false), None);
    b.verify(&answers);
    out.calibration_ns = b.cal.median_ns_since(0);
    let fig = pass.figures();
    out.notes.push(run::figures_note("python_forest", &fig, &pass));
    out.end_to_end = run::end_to_end(&fig, &setup, pass.peak_rss_mib);
    let memo = svc.metrics().memo;
    out.counts = [
        ("inputs", pass.inputs.0),
        ("outputs", pass.outputs.0),
        ("tokens", pass.doc_tokens),
        ("forest_nodes", pass.forest_nodes),
        ("memo_hits", memo.memo_hits),
        ("memo_misses", memo.memo_misses),
        ("template_shares", memo.template_shares),
    ]
    .into();
    out.tally = pass.tally;
    drop(svc);

    if plan.trace {
        let svc = service(true);
        let mut tracer = Tracer::new(true);
        let mark = b.cal.mark();
        let mut replay = Replay::new(&b.cfg);
        let (traced, _) = b.pass(&svc, &mut tracer, Some(&mut replay));
        if traced.outputs != pass.outputs {
            b.oracle.mismatch("the traced pass answered differently from the untraced one".into());
        }
        b.oracle.mismatches_from(replay.mismatches);
        out.tally.absorb(traced.tally);
        let (l, note) = layers(&tracer, &traced, &svc, &setup);
        out.layers = l;
        out.notes.push(note);
        let untraced_fig = fig.at_reference_speed(calib::scale(out.calibration_ns));
        out.calibration_ns = b.cal.median_ns_since(mark);
        let traced_fig = traced.figures().at_reference_speed(calib::scale(out.calibration_ns));
        for (name, v) in untraced_fig.overhead_pct(&traced_fig) {
            out.layers.set(name, v);
        }
        run::save_trace("python_forest", plan.seed, &tracer, &svc.metrics_text(), &mut out.notes);
    }
    out.mismatches = b.oracle.mismatches().to_vec();
    out
}

/// One cold start: grammar, service, first request. The Python tokenizer
/// builds its lexer once per process, so the lexer split times only
/// obtaining it.
fn cold_start(first: &str, want: &ForestSummary) -> (ColdStart, bool) {
    let t0 = Instant::now();
    let lexed = tokenize_python("");
    let lexer_ns = run::ns_since(t0);
    let cfg = python::cfg();
    let svc = service(false);
    let t1 = Instant::now();
    let forest = tokenize_python(first)
        .ok()
        .and_then(|l| svc.submit(&cfg, &Input::Lexemes(l)).ok())
        .and_then(|o| o.forest);
    let done = Instant::now();
    let c = ColdStart {
        lexer_ns,
        first_request_ns: done.duration_since(t1).as_nanos() as u64,
        total_ns: done.duration_since(t0).as_nanos() as u64,
    };
    let right = lexed.is_ok()
        && forest.is_some_and(|f| f.count == want.count && f.fingerprint == want.fingerprint);
    (c, right)
}

impl Bench<'_> {
    /// One pass over the input set, returning each request's forest
    /// summary (`None` for a failed request). The traced pass replays each
    /// request's layer calls right after it.
    fn pass(
        &mut self,
        svc: &ParseService,
        tr: &mut Tracer,
        mut replay: Option<&mut Replay>,
    ) -> (Pass, Vec<Option<ForestSummary>>) {
        let (plan, cfg) = (self.plan, &self.cfg);
        let mut p = Pass::default();
        let mut answers = Vec::with_capacity(plan.ops);
        let sizes = inputs::Sizes::new(plan.seed, plan.ops, plan.sizes);
        for i in 0..plan.ops as u64 {
            if plan.expired() {
                break;
            }
            let text = inputs::python_module(plan.seed, i, sizes.get(i as usize));
            p.inputs.bytes(text.as_bytes());
            self.cal.tick();

            let t0 = Instant::now();
            let op = tr.open("request", None, i);
            let served = (|| {
                let lexemes = tr.time("lex.tokenize", op, i, || tokenize_python(&text)).ok()?;
                tr.set_work(op, lexemes.len());
                let input = Input::Lexemes(lexemes);
                let outcome = tr.time("serve.submit", op, i, || svc.submit(cfg, &input)).ok()?;
                Some((input, outcome.forest?, outcome.stats))
            })();
            tr.close(op);
            let ns = run::ns_since(t0);

            let Some((input, forest, stats)) = p.tally.record(served.ok_or(())) else {
                answers.push(None);
                continue;
            };
            let lexemes = lexemes(&input);
            p.op_ns.push(ns);
            p.docs += 1;
            p.doc_tokens += lexemes.len() as u64;
            p.doc_ns += ns;
            p.forest_nodes += forest.node_count as u64;
            if let Some(stats) = stats {
                p.arena_bytes = p.arena_bytes.max(stats.peak_arena_bytes);
            }
            p.outputs.num(forest.fingerprint);
            if let Some(r) = replay.as_deref_mut() {
                r.replay(tr, i, lexemes, &forest);
            }
            answers.push(Some(forest));
        }
        p.peak_rss_mib = run::peak_rss_mib();
        (p, answers)
    }

    /// Checks every forest's count and fingerprint against GLR,
    /// regenerating each module (after the pass, so the oracle stays out
    /// of its timing and its memory high-water mark).
    fn verify(&mut self, answers: &[Option<ForestSummary>]) {
        let plan = self.plan;
        let sizes = inputs::Sizes::new(plan.seed, plan.ops, plan.sizes);
        for (i, answer) in answers.iter().enumerate() {
            let Some(forest) = answer else { continue };
            let text = inputs::python_module(plan.seed, i as u64, sizes.get(i));
            let lexemes = tokenize_python(&text).expect("a served module lexes");
            self.oracle.check_forest(|| format!("module {i}"), &lexemes, forest);
        }
    }
}

/// The standalone layer calls a traced request is replayed through.
struct Replay {
    /// The engine `pwd-improved` compiles, for the resolve step alone.
    compiled: Compiled,
    /// A standalone `pwd-improved` backend.
    backend: PwdBackend,
    mismatches: Vec<String>,
}

impl Replay {
    fn new(cfg: &Cfg) -> Replay {
        Replay {
            compiled: Compiled::compile(cfg, ParserConfig::improved()),
            backend: PwdBackend::improved(cfg),
            mismatches: Vec::new(),
        }
    }

    fn replay(&mut self, tr: &mut Tracer, req: u64, lexemes: &[Lexeme], served: &ForestSummary) {
        let span = tr.open("replay", None, req);
        tr.set_work(span, lexemes.len());
        let compiled = &mut self.compiled;
        let resolved = tr.time("api.resolve", span, req, || compiled.tokens_from_lexemes(lexemes));
        let mut session = Session::open(&mut self.backend).expect("a fresh session opens");
        let fed = tr.time("core.derive", span, req, || session.feed_lexemes(lexemes));
        let summary = tr.time("forest.build", span, req, || {
            session.finish_forest().map(|forest| forest.summary())
        });
        tr.close(span);
        let agrees =
            summary.is_ok_and(|s| s.count == served.count && s.fingerprint == served.fingerprint);
        if resolved.is_err() || fed.is_err() || !agrees {
            self.mismatches.push(format!("module {req}: standalone layers disagree with serve"));
        }
    }
}

/// The layer split of a traced pass, and its note.
fn layers(tr: &Tracer, pass: &Pass, svc: &ParseService, setup: &run::Setup) -> (Layers, String) {
    let tokens = pass.doc_tokens.max(1) as f64;
    let requests = pass.docs.max(1) as f64;
    let [lex, resolve, derive, forest, submit] =
        ["lex.tokenize", "api.resolve", "core.derive", "forest.build", "serve.submit"]
            .map(|n| tr.total_ns(n) as f64);
    let ops = pass.doc_ns.max(1) as f64;
    let mut l = Layers::default();
    l.set("lex.ns_per_token", lex / tokens);
    l.set("api.resolve_ns_per_token", resolve / tokens);
    l.set("core.derive_ns_per_token", derive / tokens);
    l.set("forest.ns_per_token", forest / tokens);
    l.set("forest.nodes_per_token", pass.forest_nodes as f64 / tokens);
    l.set("serve.overhead_us", (submit - derive - forest) / requests / 1e3);
    run::common_layers(&mut l, pass, svc, setup);
    run::engine_fit(&mut l, tr, "core.derive");
    let parts = [
        ("lex", lex),
        ("api", resolve),
        ("core", derive - resolve),
        ("forest", forest),
        ("serve", submit - derive - forest),
    ];
    (l, run::split_note(tr, &parts, ops))
}
