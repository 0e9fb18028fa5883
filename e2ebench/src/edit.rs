//! `pl0_edit`, an editor session: open a ~10k-token PL/0 document
//! (`SourceBuffer::new` → `open_session` → `feed_chunk`), then keystrokes
//! (`SourceBuffer::splice` → `splice_session` → verdict), then
//! `finish_session`.
//!
//! About 70% of keystrokes retype an identifier; the rest type a statement
//! one token per keystroke after a `;` and then delete it. Typing passes
//! through states the convergence fast path cannot skip, so a share of
//! keystrokes refeed the suffix: the median keystroke and the tail sit in
//! different classes. This is the only workload on the incremental
//! `Session` and the relexing buffer.

use crate::calib::{self, Calibrator};
use crate::inputs::{self, EditScript, Rng};
use crate::oracle::Oracle;
use crate::run::{self, lexemes, ColdStart, Layers, Outcome, Pass, Plan};
use crate::trace::Tracer;
use derp::api::{FeedOutcome, Parser, PwdBackend, Session};
use derp::grammar::grammars::pl0;
use derp::grammar::Cfg;
use derp::lex::{Lexeme, Lexer, SourceBuffer};
use pwd_serve::{Input, ParseService};
use std::time::Instant;

/// The plan of a run: 6 sessions per second of `seconds`, each on a
/// ~10k-token document with 200 keystrokes.
pub fn plan(seed: u64, seconds: u64) -> Plan {
    Plan { keystrokes: 200, ..Plan::new(seed, seconds, 6.0, (10_000, 10_000)) }
}

/// Share of keystrokes whose post-edit verdict the oracle re-checks.
const CHECK_SHARE: f64 = 0.01;

fn service(observability: bool) -> ParseService {
    ParseService::new(run::service_config("pwd-dfa", observability))
}

fn verdict(outcome: FeedOutcome) -> bool {
    matches!(outcome, FeedOutcome::Viable { prefix_is_sentence: true })
}

/// What every pass of a run shares.
struct Bench<'p> {
    plan: &'p Plan,
    lexer: Lexer,
    cfg: Cfg,
    oracle: Oracle,
    cal: Calibrator,
}

/// What the service's splice reports add up to over a pass.
#[derive(Debug, Default)]
struct Splices {
    keystrokes: u64,
    converged: u64,
    refed: u64,
    reused: u64,
    rung_distance: u64,
}

/// Runs the workload.
pub fn run(plan: &Plan) -> Outcome {
    let cfg = pl0::cfg();
    let mut b =
        Bench { plan, lexer: pl0::lexer(), oracle: Oracle::new(&cfg), cfg, cal: Calibrator::new() };
    let mut out = Outcome::default();

    let first = inputs::setup_document("pl0_edit");
    let first_lexemes = b.lexer.tokenize(&first).expect("the cold-start document lexes");
    let want = b.oracle.verdict(&first_lexemes).expect("GLR answers the cold-start document");
    let (setup, right) =
        run::measure_setup(plan.cold_starts, &mut b.cal, || cold_start(&first, want));
    if !right {
        b.oracle.mismatch("a cold start answered its first request wrongly".into());
    }

    let svc = service(false);
    let (pass, sp, answers) = b.pass(&svc, &mut Tracer::new(false), None);
    b.verify(&answers);
    out.calibration_ns = b.cal.median_ns_since(0);
    let fig = pass.figures();
    out.notes.push(run::figures_note("pl0_edit", &fig, &pass));
    out.notes.push(format!(
        "keystrokes: {} converged of {}, {} refed and {} reused tokens",
        sp.converged, sp.keystrokes, sp.refed, sp.reused
    ));
    out.end_to_end = run::end_to_end(&fig, &setup, pass.peak_rss_mib);
    let memo = svc.metrics().memo;
    out.counts = [
        ("inputs", pass.inputs.0),
        ("outputs", pass.outputs.0),
        ("tokens", pass.doc_tokens),
        ("keystrokes", sp.keystrokes),
        ("converged", sp.converged),
        ("refed", sp.refed),
        ("reused", sp.reused),
        ("rung_distance", sp.rung_distance),
        ("auto_rows_built", memo.auto_rows_built),
        ("auto_fallbacks", memo.auto_fallbacks),
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
        let (traced, traced_sp, _) = b.pass(&svc, &mut tracer, Some(&mut replay));
        if traced.outputs != pass.outputs {
            b.oracle.mismatch("the traced pass answered differently from the untraced one".into());
        }
        b.oracle.mismatches_from(replay.mismatches);
        out.tally.absorb(traced.tally);
        let (l, note) = layers(&tracer, &traced, &traced_sp, &svc, &setup);
        out.layers = l;
        out.notes.push(note);
        let untraced_fig = fig.at_reference_speed(calib::scale(out.calibration_ns));
        out.calibration_ns = b.cal.median_ns_since(mark);
        let traced_fig = traced.figures().at_reference_speed(calib::scale(out.calibration_ns));
        for (name, v) in untraced_fig.overhead_pct(&traced_fig) {
            out.layers.set(name, v);
        }
        run::save_trace("pl0_edit", plan.seed, &tracer, &svc.metrics_text(), &mut out.notes);
    }
    out.mismatches = b.oracle.mismatches().to_vec();
    out
}

/// One cold start: lexer, grammar, service, then open the document and
/// finish it for a verdict.
fn cold_start(first: &str, want: bool) -> (ColdStart, bool) {
    let t0 = Instant::now();
    let lexer = pl0::lexer();
    let lexer_ns = run::ns_since(t0);
    let cfg = pl0::cfg();
    let svc = service(false);
    let t1 = Instant::now();
    let verdict = (|| {
        let buf = SourceBuffer::new(&lexer, first).ok()?;
        let id = svc.open_session(&cfg).ok()?;
        svc.feed_chunk(id, &Input::Lexemes(buf.lexemes())).ok()?;
        svc.finish_session(id).ok().map(|f| f.accepted)
    })();
    let done = Instant::now();
    let c = ColdStart {
        lexer_ns,
        first_request_ns: done.duration_since(t1).as_nanos() as u64,
        total_ns: done.duration_since(t0).as_nanos() as u64,
    };
    (c, verdict == Some(want))
}

impl Bench<'_> {
    /// One pass: `plan.ops` sessions of `plan.keystrokes` keystrokes each,
    /// returning every verdict. The traced pass replays each open and
    /// keystroke on standalone sessions right after it.
    fn pass(
        &mut self,
        svc: &ParseService,
        tr: &mut Tracer,
        mut replay: Option<&mut Replay>,
    ) -> (Pass, Splices, Vec<Answers>) {
        let (plan, lexer, cfg) = (self.plan, &self.lexer, &self.cfg);
        let mut p = Pass::default();
        let mut sp = Splices::default();
        let mut answers = Vec::with_capacity(plan.ops);
        for s in 0..plan.ops as u64 {
            if plan.expired() {
                break;
            }
            let text = inputs::edit_document(plan.seed, s, plan.sizes.0);
            p.inputs.bytes(text.as_bytes());
            let req = s << 32;
            self.cal.tick();

            // Open: lex into a buffer, open a live session, feed the text.
            let t0 = Instant::now();
            let op = tr.open("open", None, req);
            let opened = (|| {
                let buf = tr.time("lex.buffer", op, req, || {
                    SourceBuffer::new(lexer, &text).map(|b| (b.lexemes(), b))
                });
                let (lexemes, buf) = buf.ok()?;
                tr.set_work(op, lexemes.len());
                let id = tr.time("serve.open_session", op, req, || svc.open_session(cfg)).ok()?;
                let input = Input::Lexemes(lexemes);
                let fed =
                    tr.time("serve.feed_chunk", op, req, || svc.feed_chunk(id, &input)).ok()?;
                Some((buf, id, input, fed))
            })();
            tr.close(op);
            let ns = run::ns_since(t0);
            let Some((mut buf, id, input, fed)) = p.tally.record(opened.ok_or(())) else {
                answers.push(Answers::default());
                continue;
            };
            let mut answer = Answers::default();
            p.docs += 1;
            p.doc_tokens += buf.token_count() as u64;
            p.doc_ns += ns;
            p.outputs.num(u64::from(verdict(fed.outcome)));
            let mut shadow = replay.as_deref_mut().map(|r| r.open(tr, req, lexer, &text, &input));

            let mut script = EditScript::new(plan.seed, s);
            for k in 1..=plan.keystrokes as u64 {
                let key = script.next(&buf);
                let req = req | k;
                self.cal.tick();
                let t0 = Instant::now();
                let op = tr.open("keystroke", None, req);
                let spliced = (|| {
                    let edit = tr
                        .time("lex.relex", op, req, || buf.splice(key.start, key.end, &key.text))
                        .ok()?;
                    tr.set_work(op, edit.inserted.len());
                    let input = Input::Lexemes(edit.inserted);
                    let report = tr
                        .time("serve.splice_session", op, req, || {
                            svc.splice_session(id, edit.start, edit.removed, &input)
                        })
                        .ok()?;
                    Some((edit.start, edit.removed, input, report))
                })();
                tr.close(op);
                let ns = run::ns_since(t0);
                let Some((at, removed, input, report)) = p.tally.record(spliced.ok_or(())) else {
                    answer.keystrokes.push(None);
                    continue;
                };
                p.op_ns.push(ns);
                let accepted = verdict(report.outcome);
                p.outputs.num(u64::from(accepted));
                answer.keystrokes.push(Some(accepted));
                sp.keystrokes += 1;
                sp.converged += u64::from(report.converged_at.is_some());
                sp.refed += report.refed as u64;
                sp.reused += report.reused as u64;
                sp.rung_distance += (at - report.rung) as u64;
                if let (Some(r), Some(sh)) = (replay.as_deref_mut(), shadow.as_mut()) {
                    let inserted = lexemes(&input);
                    r.splice(tr, req, sh, Edit { at, removed, inserted, accepted });
                }
            }
            if let (Some(r), Some(sh)) = (replay.as_deref_mut(), shadow) {
                r.close(sh);
            }

            if let Some(f) = p.tally.record(svc.finish_session(id)) {
                p.outputs.num(u64::from(f.accepted));
                p.arena_bytes = p.arena_bytes.max(f.stats.peak_arena_bytes);
                answer.finish = Some(f.accepted);
            }
            answers.push(answer);
        }
        p.peak_rss_mib = run::peak_rss_mib();
        (p, sp, answers)
    }

    /// Checks every session's finish verdict and a seeded sample of its
    /// keystroke verdicts against GLR, replaying the session's edits on a
    /// fresh buffer (after the pass, so the oracle stays out of its timing
    /// and its memory high-water mark).
    fn verify(&mut self, answers: &[Answers]) {
        let plan = self.plan;
        for (s, answer) in answers.iter().enumerate() {
            let complete = answer.keystrokes.len() == plan.keystrokes
                && answer.keystrokes.iter().all(Option::is_some);
            let Some(finish) = answer.finish.filter(|_| complete) else { continue };
            let s = s as u64;
            let text = inputs::edit_document(plan.seed, s, plan.sizes.0);
            let mut buf = SourceBuffer::new(&self.lexer, &text).expect("a served document lexes");
            let mut script = EditScript::new(plan.seed, s);
            let mut checks = Rng::new(plan.seed, inputs::stream::CHECK, s);
            for (k, accepted) in answer.keystrokes.iter().flatten().enumerate() {
                let key = script.next(&buf);
                buf.splice(key.start, key.end, &key.text).expect("a served keystroke relexes");
                if checks.chance(CHECK_SHARE) {
                    let what = || format!("session {s} keystroke {}", k + 1);
                    self.oracle.check_verdict(what, &buf.lexemes(), *accepted);
                }
            }
            self.oracle.check_verdict(|| format!("session {s} finish"), &buf.lexemes(), finish);
        }
    }
}

/// The verdicts of one edit session (`None` for a failed call).
#[derive(Debug, Default)]
struct Answers {
    keystrokes: Vec<Option<bool>>,
    finish: Option<bool>,
}

/// Standalone `pwd-dfa` sessions a traced pass replays each document and
/// keystroke through.
struct Replay {
    /// Backend of the incremental session shadowing the live one; taken
    /// out while a document is open.
    incremental: Option<Box<dyn Parser>>,
    plain: PwdBackend,
    mismatches: Vec<String>,
}

/// A keystroke's token edit and the service's verdict after it.
struct Edit<'a> {
    at: usize,
    removed: usize,
    inserted: &'a [Lexeme],
    accepted: bool,
}

impl Replay {
    fn new(cfg: &Cfg) -> Replay {
        Replay {
            incremental: Some(Box::new(PwdBackend::dfa(cfg))),
            plain: PwdBackend::dfa(cfg),
            mismatches: Vec::new(),
        }
    }

    /// Replays a document open: plain lexing, an incremental feed (the
    /// session later keystrokes replay on) and a plain feed.
    fn open(
        &mut self,
        tr: &mut Tracer,
        req: u64,
        lexer: &Lexer,
        text: &str,
        input: &Input,
    ) -> Session<'static> {
        let span = tr.open("replay", None, req);
        let lexed = tr.time("lex.tokenize", span, req, || lexer.tokenize(text));
        if lexed.as_deref().ok() != Some(lexemes(input)) {
            self.mismatches
                .push(format!("open {req:x}: Lexer::tokenize disagrees with the buffer"));
        }
        let backend = self.incremental.take().expect("one document is open at a time");
        let shadow = tr.time("api.incremental_feed", span, req, || {
            let mut s = Session::owned(backend).expect("a fresh session opens");
            s.enable_incremental().expect("a fresh session turns incremental");
            s.feed_lexemes(lexemes(input)).expect("the document feeds");
            s
        });
        let plain = &mut self.plain;
        tr.time("api.plain_feed", span, req, || {
            let mut s = Session::open(plain).expect("a fresh session opens");
            s.feed_lexemes(lexemes(input)).expect("the document feeds");
            s.finish().expect("the session finishes")
        });
        tr.close(span);
        shadow
    }

    /// Replays one keystroke's token edit on the shadow session.
    fn splice(&mut self, tr: &mut Tracer, req: u64, shadow: &mut Session<'static>, edit: Edit<'_>) {
        let pairs: Vec<(&str, &str)> =
            edit.inserted.iter().map(|l| (l.kind.as_str(), l.text.as_str())).collect();
        let span = tr.open("replay", None, req);
        let out = tr.time("api.splice_tokens", span, req, || {
            shadow.splice_tokens(edit.at, edit.removed, &pairs)
        });
        tr.close(span);
        if out.map(|o| verdict(o.outcome)).ok() != Some(edit.accepted) {
            self.mismatches
                .push(format!("keystroke {req:x}: standalone splice disagrees with serve"));
        }
    }

    /// Ends a document, taking the shadow session's backend back.
    fn close(&mut self, shadow: Session<'static>) {
        self.incremental = shadow.finish_and_release().1;
    }
}

/// The layer split of a traced pass.
fn layers(
    tr: &Tracer,
    pass: &Pass,
    sp: &Splices,
    svc: &ParseService,
    setup: &run::Setup,
) -> (Layers, String) {
    let tokens = pass.doc_tokens.max(1) as f64;
    let opens = pass.docs.max(1) as f64;
    let keys = sp.keystrokes.max(1) as f64;
    let t = |n: &str| tr.total_ns(n) as f64;
    let (relex, splice) = (t("lex.relex"), t("api.splice_tokens"));
    let serve_splice = t("serve.splice_session");
    let open_serve = t("serve.open_session") + t("serve.feed_chunk");
    let inc_feed = t("api.incremental_feed");
    let key_ns: f64 = pass.op_ns.iter().sum::<u64>() as f64;
    let mut l = Layers::default();
    l.set("lex.ns_per_token", t("lex.tokenize") / tokens);
    l.set("lex.buffer_ns_per_token", t("lex.buffer") / tokens);
    l.set("lex.relex_us", relex / keys / 1e3);
    l.set("api.plain_feed_ns_per_token", t("api.plain_feed") / tokens);
    l.set("api.incremental_feed_ns_per_token", inc_feed / tokens);
    l.set("api.splice_us", splice / keys / 1e3);
    l.set("api.converged_ratio", sp.converged as f64 / keys);
    l.set("api.refed_per_edit", sp.refed as f64 / keys);
    l.set("api.rung_distance_per_edit", sp.rung_distance as f64 / keys);
    l.set("serve.overhead_us", (open_serve - inc_feed) / opens / 1e3);
    l.set("serve.splice_overhead_us", (serve_splice - splice) / keys / 1e3);
    run::common_layers(&mut l, pass, svc, setup);
    let parts = [("lex", relex), ("api", splice), ("serve", serve_splice - splice)];
    (l, run::split_note(tr, &parts, key_ns))
}
