//! `pl0_recognize`, the batch path: PL/0 text → `Lexer::tokenize` →
//! `ParseService::submit` on `pwd-dfa` → verdict, one request at a time.
//!
//! Every request is a distinct `gen::pl0_source` document of log-uniform
//! size over 64–4096 tokens, and a tenth of them lose one token, so both
//! verdicts occur. Lexing dominates the large documents and per-request
//! costs the small ones, and the distinct documents grow the engine state.

use crate::calib::{self, Calibrator};
use crate::inputs;
use crate::oracle::Oracle;
use crate::run::{self, lexemes, ColdStart, Layers, Outcome, Pass, Plan};
use crate::trace::Tracer;
use derp::api::{PwdBackend, Recognizer};
use derp::core::{ParseMode, ParserConfig};
use derp::grammar::grammars::pl0;
use derp::grammar::{Cfg, Compiled};
use derp::lex::{Lexeme, Lexer};
use pwd_serve::{Input, ParseService};
use std::time::Instant;

/// The plan of a run: 200 documents per second of `seconds`, of 64–4096
/// tokens (stratified log-uniform).
pub fn plan(seed: u64, seconds: u64) -> Plan {
    Plan::new(seed, seconds, 200.0, (64, 4096))
}

fn service(observability: bool) -> ParseService {
    ParseService::new(run::service_config("pwd-dfa", observability))
}

/// What every pass of a run shares.
struct Bench<'p> {
    plan: &'p Plan,
    lexer: Lexer,
    cfg: Cfg,
    oracle: Oracle,
    cal: Calibrator,
}

/// Runs the workload.
pub fn run(plan: &Plan) -> Outcome {
    let cfg = pl0::cfg();
    let mut b =
        Bench { plan, lexer: pl0::lexer(), oracle: Oracle::new(&cfg), cfg, cal: Calibrator::new() };
    let mut out = Outcome::default();

    let first = inputs::setup_document("pl0_recognize");
    let first_lexemes = b.lexer.tokenize(&first).expect("the cold-start document lexes");
    let want = b.oracle.verdict(&first_lexemes).expect("GLR answers the cold-start document");
    let (setup, right) =
        run::measure_setup(plan.cold_starts, &mut b.cal, || cold_start(&first, want));
    if !right {
        b.oracle.mismatch("a cold start answered its first request wrongly".into());
    }

    let svc = service(false);
    let (pass, answers) = b.pass(&svc, &mut Tracer::new(false), None);
    b.verify(&answers);
    out.calibration_ns = b.cal.median_ns_since(0);
    let fig = pass.figures();
    out.notes.push(run::figures_note("pl0_recognize", &fig, &pass));
    out.end_to_end = run::end_to_end(&fig, &setup, pass.peak_rss_mib);
    let memo = svc.metrics().memo;
    out.counts = [
        ("inputs", pass.inputs.0),
        ("outputs", pass.outputs.0),
        ("tokens", pass.doc_tokens),
        ("auto_rows_built", memo.auto_rows_built),
        ("auto_fallbacks", memo.auto_fallbacks),
        ("auto_table_hits", memo.auto_table_hits),
        ("memo_hits", memo.memo_hits),
        ("memo_misses", memo.memo_misses),
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
        run::save_trace("pl0_recognize", plan.seed, &tracer, &svc.metrics_text(), &mut out.notes);
    }
    out.mismatches = b.oracle.mismatches().to_vec();
    out
}

/// One cold start: lexer, grammar, service, first request.
fn cold_start(first: &str, want: bool) -> (ColdStart, bool) {
    let t0 = Instant::now();
    let lexer = pl0::lexer();
    let lexer_ns = run::ns_since(t0);
    let cfg = pl0::cfg();
    let svc = service(false);
    let t1 = Instant::now();
    let verdict = lexer
        .tokenize(first)
        .ok()
        .and_then(|l| svc.submit(&cfg, &Input::Lexemes(l)).ok())
        .map(|o| o.accepted);
    let done = Instant::now();
    let c = ColdStart {
        lexer_ns,
        first_request_ns: done.duration_since(t1).as_nanos() as u64,
        total_ns: done.duration_since(t0).as_nanos() as u64,
    };
    (c, verdict == Some(want))
}

impl Bench<'_> {
    /// One pass over the input set, returning each request's verdict
    /// (`None` for a failed request). The traced pass replays each
    /// request's layer calls right after it.
    fn pass(
        &mut self,
        svc: &ParseService,
        tr: &mut Tracer,
        mut replay: Option<&mut Replay>,
    ) -> (Pass, Vec<Option<bool>>) {
        let (plan, lexer, cfg) = (self.plan, &self.lexer, &self.cfg);
        let mut p = Pass::default();
        let mut answers = Vec::with_capacity(plan.ops);
        let sizes = inputs::Sizes::new(plan.seed, plan.ops, plan.sizes);
        for i in 0..plan.ops as u64 {
            if plan.expired() {
                break;
            }
            let text = inputs::pl0_document(lexer, plan.seed, i, sizes.get(i as usize));
            p.inputs.bytes(text.as_bytes());
            self.cal.tick();

            let t0 = Instant::now();
            let op = tr.open("request", None, i);
            let served = (|| {
                let lexemes = tr.time("lex.tokenize", op, i, || lexer.tokenize(&text)).ok()?;
                tr.set_work(op, lexemes.len());
                let input = Input::Lexemes(lexemes);
                let outcome = tr.time("serve.submit", op, i, || svc.submit(cfg, &input)).ok()?;
                Some((input, outcome))
            })();
            tr.close(op);
            let ns = run::ns_since(t0);

            let Some((input, outcome)) = p.tally.record(served.ok_or(())) else {
                answers.push(None);
                continue;
            };
            let lexemes = lexemes(&input);
            p.op_ns.push(ns);
            p.docs += 1;
            p.doc_tokens += lexemes.len() as u64;
            p.doc_ns += ns;
            p.outputs.num(u64::from(outcome.accepted));
            answers.push(Some(outcome.accepted));
            if let Some(stats) = outcome.stats {
                p.arena_bytes = p.arena_bytes.max(stats.peak_arena_bytes);
            }
            if let Some(r) = replay.as_deref_mut() {
                r.replay(tr, i, lexemes, outcome.accepted);
            }
        }
        p.peak_rss_mib = run::peak_rss_mib();
        (p, answers)
    }

    /// Checks every verdict of a pass against GLR, regenerating each
    /// document (after the pass, so the oracle stays out of its timing and
    /// its memory high-water mark).
    fn verify(&mut self, answers: &[Option<bool>]) {
        let plan = self.plan;
        let sizes = inputs::Sizes::new(plan.seed, plan.ops, plan.sizes);
        for (i, answer) in answers.iter().enumerate() {
            let Some(accepted) = *answer else { continue };
            let text = inputs::pl0_document(&self.lexer, plan.seed, i as u64, sizes.get(i));
            let lexemes = self.lexer.tokenize(&text).expect("a served document lexes");
            self.oracle.check_verdict(|| format!("document {i}"), &lexemes, accepted);
        }
    }
}

/// The standalone layer calls a traced request is replayed through.
struct Replay {
    /// The engine `pwd-dfa` compiles, driven directly.
    compiled: Compiled,
    /// A standalone `pwd-dfa` backend.
    backend: PwdBackend,
    mismatches: Vec<String>,
}

impl Replay {
    fn new(cfg: &Cfg) -> Replay {
        let config = ParserConfig { mode: ParseMode::Recognize, ..ParserConfig::improved() };
        Replay {
            compiled: Compiled::compile(cfg, config),
            backend: PwdBackend::dfa(cfg),
            mismatches: Vec::new(),
        }
    }

    fn replay(&mut self, tr: &mut Tracer, req: u64, lexemes: &[Lexeme], verdict: bool) {
        let span = tr.open("replay", None, req);
        tr.set_work(span, lexemes.len());
        let compiled = &mut self.compiled;
        let tokens = tr.time("api.resolve", span, req, || compiled.tokens_from_lexemes(lexemes));
        let tokens = tokens.expect("served documents only hold grammar terminals");
        compiled.lang.reset();
        let start = compiled.start;
        let walked = tr.time("core.walk", span, req, || compiled.lang.recognize(start, &tokens));
        let backend = &mut self.backend;
        let api =
            tr.time("api.recognize_lexemes", span, req, || backend.recognize_lexemes(lexemes));
        tr.close(span);
        if walked.ok() != Some(verdict) || api.ok() != Some(verdict) {
            self.mismatches.push(format!("request {req}: standalone layers disagree with serve"));
        }
    }
}

/// The layer split of a traced pass, and its note.
fn layers(tr: &Tracer, pass: &Pass, svc: &ParseService, setup: &run::Setup) -> (Layers, String) {
    let tokens = pass.doc_tokens.max(1) as f64;
    let requests = pass.docs.max(1) as f64;
    let [lex, resolve, walk, api, submit] =
        ["lex.tokenize", "api.resolve", "core.walk", "api.recognize_lexemes", "serve.submit"]
            .map(|n| tr.total_ns(n) as f64);
    let ops = pass.doc_ns.max(1) as f64;
    let mut l = Layers::default();
    l.set("lex.ns_per_token", lex / tokens);
    l.set("api.resolve_ns_per_token", resolve / tokens);
    l.set("core.walk_ns_per_token", walk / tokens);
    l.set("api.fixed_us", (api - resolve - walk) / requests / 1e3);
    l.set("serve.overhead_us", (submit - api) / requests / 1e3);
    run::common_layers(&mut l, pass, svc, setup);
    run::engine_fit(&mut l, tr, "core.walk");
    let parts = [("lex", lex), ("api", api - walk), ("core", walk), ("serve", submit - api)];
    (l, run::split_note(tr, &parts, ops))
}
