//! Random-edit-script differential testing for [`Session::splice_tokens`]:
//! a session that absorbs an arbitrary interleaving of splices, user
//! checkpoints, and rollbacks (among them break-and-mend scripts: a splice
//! that kills the document, edits, appends or rollbacks while it is dead,
//! and the splice that mends it) must be observationally identical to parsing
//! the resulting token sequence from scratch — same verdicts after every
//! edit, same canonical forest fingerprints at the end — across all three
//! parser families, both PWD memo keyings, and both recognize engines
//! (lazy automaton and interpreted). Error recovery is mutually exclusive
//! with incremental mode, so diagnostic parity is structural: a spliced
//! session emits exactly the diagnostics a scratch session would — none.

use derp::api::{
    backend_by_name, backends, Checkpoint, FeedOutcome, ParseCount, Parser, PwdBackend, Session,
    SpliceOutcome,
};
use derp::core::{AutomatonMode, MemoKeying, ParseMode, ParserConfig};
use derp::grammar::{
    gen, grammars::pl0, random_cfg, random_input, remove_useless, CfgBuilder, RandomCfgConfig,
};

/// Deterministic xorshift64 — the differential suite must replay exactly
/// from its seeds, and the crate deliberately has no `rand` dependency.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        (self.next() % n as u64) as usize
    }
}

/// The full arm roster: the standard four-parser roster (forest-capable),
/// the class-keyed PWD variant, and the two recognize-only PWD engines.
/// The `bool` marks forest-capable arms.
fn arms(cfg: &derp::grammar::Cfg) -> Vec<(Box<dyn Parser>, bool)> {
    let mut arms: Vec<(Box<dyn Parser>, bool)> =
        backends(cfg).into_iter().map(|b| (b, true)).collect();
    let class_keyed = ParserConfig { keying: MemoKeying::ByClass, ..ParserConfig::improved() };
    arms.push((Box::new(PwdBackend::with_config(cfg, class_keyed, "pwd-class-keyed")), true));
    arms.push((backend_by_name("pwd-dfa", cfg).expect("roster name"), false));
    let interp = ParserConfig {
        mode: ParseMode::Recognize,
        automaton: AutomatonMode::Off,
        ..ParserConfig::improved()
    };
    arms.push((Box::new(PwdBackend::with_config(cfg, interp, "pwd-recognize-interp")), false));
    arms
}

/// A saved user checkpoint plus the token model it snapshots (the model at
/// checkpoint time IS the first `tokens_fed` tokens, by construction).
struct Saved {
    pos: usize,
    cp: Checkpoint,
    model: Vec<String>,
}

/// One operation of an edit script.
#[derive(Clone, Copy)]
enum Op {
    /// Take a user checkpoint at the current position.
    Checkpoint,
    /// Roll back to the newest surviving checkpoint, or a random one.
    Rollback { newest: bool },
    /// Splice a random edit anywhere.
    Splice,
    /// Insert a token that kills the model (or makes it die earlier).
    Kill,
    /// Splice a random edit past the killing token: into the dead region
    /// or the rest of the suffix.
    DeadEdit,
    /// Append a token, by a feed or by a splice at the end.
    Append,
    /// Remove the killing token again.
    Mend,
}

/// Where the model dies: the length of its shortest prefix with no
/// accepted continuation, `None` when it has one.
fn death(oracle: &mut dyn Parser, model: &[String]) -> Option<usize> {
    let mut s = Session::open(oracle).unwrap();
    (0..model.len()).find(|&i| !s.feed_kind(&model[i]).unwrap().is_viable()).map(|i| i + 1)
}

/// Extends `model`, which must be viable, by a random walk of tokens that
/// keeps every prefix viable, up to `len` tokens in all or until only a
/// sentence with no continuation is left.
fn extend_live(
    oracle: &mut dyn Parser,
    terminals: &[String],
    model: &mut Vec<String>,
    len: usize,
    rng: &mut Rng,
) {
    while model.len() < len {
        let first = rng.below(terminals.len());
        let next =
            (0..terminals.len()).map(|i| &terminals[(first + i) % terminals.len()]).find(|t| {
                model.push(t.to_string());
                let live = death(oracle, model).is_none();
                model.pop();
                live
            });
        let Some(next) = next else { break };
        model.push(next.clone());
    }
}

/// What the edit scripts covered.
#[derive(Default)]
struct Tally {
    checked: usize,
    spliced: usize,
    rolled_back: usize,
    kills: usize,
    /// Splices that stopped at death: edits that ended dead, did not
    /// converge and fed short of the stream's end.
    stopped: usize,
    /// Mends on the recognize arms that converged out of a dead outcome.
    mends_converged: usize,
}

/// Applies a splice to the session and to the model, checks its accounting
/// and drops the user checkpoints the rung restore invalidated.
fn splice(
    s: &mut Session<'_>,
    model: &mut Vec<String>,
    saved: &mut Vec<Saved>,
    tally: &mut Tally,
    (at, remove, insert): (usize, usize, &[String]),
) -> SpliceOutcome {
    let pairs: Vec<(&str, &str)> = insert.iter().map(|t| (t.as_str(), t.as_str())).collect();
    let out = s.splice_tokens(at, remove, &pairs).unwrap();
    model.splice(at..at + remove, insert.iter().cloned());
    assert_eq!(
        out.refed + out.reused,
        model.len(),
        "{}: splice accounting must cover the stream: {out:?}",
        s.name()
    );
    // The rung restore follows rollback timeline semantics: user
    // checkpoints above it die.
    saved.retain(|sv| sv.pos <= out.rung);
    tally.spliced += 1;
    let fed_short = out.rung + out.refed < model.len() && (remove, insert.len()) != (0, 0);
    tally.stopped +=
        usize::from(out.outcome == FeedOutcome::Dead && out.converged_at.is_none() && fed_short);
    out
}

/// Random scripts on random grammars, on every arm. Half start from random
/// tokens, half from a live document. A break-and-mend revives a dead model
/// first (its tail from the death on becomes a live continuation), so most
/// kills end a live document, which a stopping backend keeps as its shadow.
#[test]
fn random_edit_scripts_match_scratch_reparses() {
    let shape = RandomCfgConfig::default();
    let mut tally = Tally::default();
    for seed in 0..20u64 {
        let Ok(cfg) = remove_useless(&random_cfg(&shape, seed)) else { continue };
        let terminals = cfg.terminal_names().to_vec();
        // Precise viability, to pick killing tokens by.
        let mut oracle = PwdBackend::improved(&cfg);
        for (arm_idx, (arm, forests)) in arms(&cfg).iter_mut().enumerate() {
            let name = arm.name();
            let mut scratch = arm.fork();
            let mut s = Session::open(&mut **arm).unwrap();
            s.enable_incremental().unwrap();
            // Half the scripts start from random tokens, mostly dead, and
            // half from a live document.
            let mut model: Vec<String> = if seed % 2 == 0 {
                random_input(&cfg, 8, seed * 10_007 + 1)
            } else {
                let mut live = Vec::new();
                extend_live(&mut oracle, &terminals, &mut live, 32, &mut Rng::new(seed));
                live
            };
            s.feed_all(&model).unwrap();
            let mut rng = Rng::new(seed * 7919 + arm_idx as u64);
            let mut saved: Vec<Saved> = Vec::new();
            // The rest of a break-and-mend, and where its killing token is.
            let mut queued: Vec<Op> = Vec::new();
            let mut killed_at: Option<usize> = None;
            for step in 0..16u64 {
                let op = queued.pop().unwrap_or_else(|| {
                    [Op::Checkpoint, Op::Rollback { newest: false }, Op::Splice, Op::Splice]
                        .get(rng.below(5))
                        .copied()
                        .unwrap_or(Op::Kill)
                });
                match op {
                    Op::Checkpoint => {
                        saved.push(Saved {
                            pos: s.tokens_fed(),
                            cp: s.checkpoint().unwrap(),
                            model: model.clone(),
                        });
                    }
                    Op::Rollback { newest } if !saved.is_empty() => {
                        let idx = if newest { saved.len() - 1 } else { rng.below(saved.len()) };
                        let target = saved[idx].pos;
                        s.rollback(&saved[idx].cp).unwrap();
                        model = saved[idx].model.clone();
                        // Checkpoints above the restored position die.
                        saved.retain(|sv| sv.pos <= target);
                        killed_at = killed_at.filter(|&k| k < target);
                        tally.rolled_back += 1;
                    }
                    Op::Rollback { .. } => {}
                    // Replace `remove` tokens at `at` (past the killing
                    // token for a dead edit) with a slice of a random input
                    // (guaranteed known terminal kinds).
                    Op::Splice | Op::DeadEdit => {
                        let from = killed_at.map_or(0, |k| k + 1);
                        let at = from + rng.below(model.len() + 1 - from);
                        let remove = rng.below(model.len() - at + 1).min(3);
                        let donor = random_input(&cfg, 6, seed * 65_537 + step + 2);
                        let take = rng.below(donor.len().min(3) + 1);
                        let edit = (at, remove, &donor[..take]);
                        splice(&mut s, &mut model, &mut saved, &mut tally, edit);
                    }
                    // A dead model is revived first: its tail from the
                    // death on is replaced by a live continuation, an edit
                    // in the dead region.
                    Op::Kill if death(&mut oracle, &model).is_some() => {
                        let at = death(&mut oracle, &model).unwrap() - 1;
                        let mut live = model[..at].to_vec();
                        extend_live(
                            &mut oracle,
                            &terminals,
                            &mut live,
                            model.len().max(16),
                            &mut rng,
                        );
                        let edit = (at, model.len() - at, &live[at..]);
                        splice(&mut s, &mut model, &mut saved, &mut tally, edit);
                        queued.push(Op::Kill);
                    }
                    Op::Kill => {
                        let before = death(&mut oracle, &model);
                        // Away from the end, so the killed suffix is long
                        // enough to converge in.
                        let kill = (0..8).find_map(|_| {
                            let at = rng.below(model.len() * 2 / 3 + 1);
                            let token = terminals[rng.below(terminals.len())].clone();
                            let mut killed = model.clone();
                            killed.insert(at, token.clone());
                            let after = death(&mut oracle, &killed)?;
                            before.is_none_or(|b| after < b).then_some((at, token))
                        });
                        if let Some((at, token)) = kill {
                            let edit = (at, 0, std::slice::from_ref(&token));
                            splice(&mut s, &mut model, &mut saved, &mut tally, edit);
                            killed_at = Some(at);
                            tally.kills += 1;
                            queued.push(Op::Mend);
                            queued.extend(match rng.below(6) {
                                0 => &[Op::DeadEdit][..],
                                1 => &[Op::Append],
                                2 => &[Op::Rollback { newest: true }, Op::Append, Op::Checkpoint],
                                3 => &[Op::Rollback { newest: false }],
                                _ => &[],
                            });
                        }
                    }
                    Op::Append => {
                        let token = terminals[rng.below(terminals.len())].clone();
                        if rng.below(2) == 0 {
                            s.feed_kind(&token).unwrap();
                        } else {
                            let edit = (model.len(), 0, std::slice::from_ref(&token));
                            splice(&mut s, &mut model, &mut saved, &mut tally, edit);
                            model.pop();
                        }
                        model.push(token);
                    }
                    Op::Mend => {
                        if let Some(at) = killed_at.take() {
                            let was_dead = !s.is_viable();
                            let out =
                                splice(&mut s, &mut model, &mut saved, &mut tally, (at, 1, &[]));
                            let mended = out.converged_at.is_some() && out.outcome.is_viable();
                            tally.mends_converged += usize::from(!*forests && was_dead && mended);
                        }
                    }
                }
                // After every operation the session must agree byte-for-byte
                // with a scratch parse of the model it now represents.
                assert_eq!(s.tokens_fed(), model.len(), "{name}: position drift");
                let refs: Vec<&str> = model.iter().map(String::as_str).collect();
                assert_eq!(
                    s.prefix_is_sentence().unwrap(),
                    scratch.recognize(&refs).unwrap(),
                    "{name}: seed {seed} step {step}: edited session diverged \
                     from scratch on {refs:?}\n{cfg}"
                );
                tally.checked += 1;
            }
            // Forest-capable arms must also build the *same forest* as a
            // scratch parse — canonical fingerprint equality, not just the
            // verdict.
            if *forests {
                let refs: Vec<&str> = model.iter().map(String::as_str).collect();
                let scratch_summary = scratch.parse_forest(&refs).unwrap().summary();
                let spliced_summary = s.finish_forest().unwrap().summary();
                assert_eq!(
                    spliced_summary.count, scratch_summary.count,
                    "{name}: seed {seed}: tree counts diverged on {refs:?}"
                );
                if spliced_summary.count != ParseCount::Infinite {
                    assert_eq!(
                        spliced_summary.fingerprint, scratch_summary.fingerprint,
                        "{name}: seed {seed}: spliced forest differs from scratch on {refs:?}"
                    );
                }
            }
        }
    }
    let Tally { checked, spliced, rolled_back, kills, stopped, mends_converged } = tally;
    assert!(checked > 500, "coverage sanity: {checked} comparisons");
    assert!(spliced > 200, "edit-coverage sanity: {spliced} splices");
    assert!(rolled_back > 20, "rollback-coverage sanity: {rolled_back} rollbacks");
    assert!(kills > 100, "break-coverage sanity: {kills} killing splices");
    assert!(stopped > 150, "death-coverage sanity: {stopped} splices stopped at death");
    assert!(mends_converged >= 10, "mend-coverage sanity: {mends_converged} converged mends");
}

/// On long streams, convergent single-token edits stay local: the refeed
/// cost is bounded by the ladder stride plus the convergence check, not the
/// suffix length — on both recognize engines (the automaton's interned
/// state ids and the interpreted engine's graph digests).
#[test]
fn convergent_splices_stay_local_on_long_streams() {
    let mut g = CfgBuilder::new("S");
    g.terminal("a");
    g.rule("S", &["S", "S"]);
    g.rule("S", &["a"]);
    let cfg = g.build().unwrap();
    let interp = ParserConfig {
        mode: ParseMode::Recognize,
        automaton: AutomatonMode::Off,
        ..ParserConfig::improved()
    };
    let mut arms: Vec<Box<dyn Parser>> = vec![
        backend_by_name("pwd-dfa", &cfg).unwrap(),
        Box::new(PwdBackend::with_config(&cfg, interp, "pwd-recognize-interp")),
    ];
    const LEN: usize = 600;
    for arm in &mut arms {
        let name = arm.name();
        let mut s = Session::open(&mut **arm).unwrap();
        s.enable_incremental().unwrap();
        s.feed_all(&["a"; LEN]).unwrap();
        let mut rng = Rng::new(0xDEC0DE);
        for _ in 0..20 {
            // Same-class single-token replacement anywhere in the buffer:
            // the post-edit state realigns with the memoized pre-edit state
            // immediately, so the whole suffix is skipped.
            let at = rng.below(LEN - 1);
            let out = s.splice_tokens(at, 1, &[("a", "a")]).unwrap();
            assert!(out.converged_at.is_some(), "{name}: no convergence at {at}: {out:?}");
            assert!(
                out.refed <= 16,
                "{name}: refeed not local at {at} (rung {}): {out:?}",
                out.rung
            );
            assert_eq!(s.tokens_fed(), LEN, "{name}");
        }
        let m = s.metrics();
        assert!(
            m.tokens_refed <= 20 * 16,
            "{name}: cumulative refeed exploded: {}",
            m.tokens_refed
        );
        assert!(m.tokens_reused >= 20 * (LEN as u64 - 16), "{name}: {}", m.tokens_reused);
        assert!(s.finish().unwrap(), "{name}: a^{LEN} stays accepted through the edits");
    }
}

/// A long script on every arm of the roster: splices above a checkpoint
/// until the session's token history has been rebuilt at least twice, a
/// rollback to that checkpoint, then as many splices again. Every token has
/// its own text, so a history that mixed up bytes across a rebuild would
/// change the value-keyed forests.
///
/// The history rebuilds once its dropped bytes outnumber its live ones, so
/// between two rebuilds it drops at most the most live bytes it ever held
/// plus the most one operation drops; dropping more than twice that forces
/// two rebuilds.
#[test]
fn long_scripts_roll_back_across_history_rebuilds() {
    let shape = RandomCfgConfig::default();
    let cfg = (0..).find_map(|seed| remove_useless(&random_cfg(&shape, seed)).ok()).unwrap();
    let bytes = |m: &[(String, String)]| m.iter().map(|(k, t)| k.len() + t.len()).sum::<usize>();
    for (arm_idx, (arm, forests)) in arms(&cfg).iter_mut().enumerate() {
        let name = arm.name();
        let mut scratch = arm.fork();
        let mut s = Session::open(&mut **arm).unwrap();
        s.enable_incremental().unwrap();
        let mut serial = 0usize;
        let mut token = |kind: String| {
            serial += 1;
            let text = format!("{kind}.{serial:05}");
            (kind, text)
        };
        let mut model: Vec<(String, String)> =
            random_input(&cfg, 8, 1).into_iter().map(&mut token).collect();
        for (k, t) in &model {
            s.feed(k, t).unwrap();
        }
        let (cp, cp_model) = (s.checkpoint().unwrap(), model.clone());
        let cp_pos = model.len();
        let mut rng = Rng::new(0x5EED + arm_idx as u64);
        for phase in 0..2 {
            let (mut dropped, mut live_max, mut drop_max) = (0, bytes(&model), 0);
            let mut steps = 0u64;
            while dropped <= 2 * (live_max + drop_max) {
                steps += 1;
                assert!(steps < 10_000, "{name}: the script stopped dropping bytes");
                let at = cp_pos + rng.below(model.len() - cp_pos + 1);
                let remove = rng.below(model.len() - at + 1).min(3);
                let donor = random_input(&cfg, 6, steps * 131 + phase);
                let take = rng.below(donor.len().min(3) + 1);
                let insert: Vec<(String, String)> =
                    donor.into_iter().take(take).map(&mut token).collect();
                let pairs: Vec<(&str, &str)> =
                    insert.iter().map(|(k, t)| (k.as_str(), t.as_str())).collect();
                let out = s.splice_tokens(at, remove, &pairs).unwrap();
                assert!(out.rung >= cp_pos, "{name}: the checkpoint must survive: {out:?}");
                let gone = bytes(&model[at..at + remove]);
                (dropped, drop_max) = (dropped + gone, drop_max.max(gone));
                model.splice(at..at + remove, insert);
                live_max = live_max.max(bytes(&model));
                let kinds: Vec<&str> = model.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(
                    s.prefix_is_sentence().unwrap(),
                    scratch.recognize(&kinds).unwrap(),
                    "{name}: phase {phase} step {steps}: diverged from scratch on {kinds:?}"
                );
            }
            if phase == 0 {
                s.rollback(&cp).unwrap();
                model = cp_model.clone();
                assert_eq!(s.tokens_fed(), cp_pos, "{name}: rollback position");
            }
        }
        let kinds: Vec<&str> = model.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(s.prefix_is_sentence().unwrap(), scratch.recognize(&kinds).unwrap(), "{name}");
        if *forests {
            let mut fresh = Session::open(&mut *scratch).unwrap();
            for (k, t) in &model {
                fresh.feed(k, t).unwrap();
            }
            let want = fresh.finish_forest().unwrap().summary();
            let got = s.finish_forest().unwrap().summary();
            assert_eq!(got.count, want.count, "{name}: tree counts diverged");
            if want.count != ParseCount::Infinite {
                assert_eq!(got.fingerprint, want.fingerprint, "{name}: forests diverged");
            }
        }
    }
}

/// The PWD arms that stop at death, each marked with whether it has state
/// signatures (and so converges a mend): the two recognize engines, and
/// parse mode, which has none.
fn stopping_arms(cfg: &derp::grammar::Cfg) -> Vec<(Box<dyn Parser>, bool)> {
    let interp = ParserConfig {
        mode: ParseMode::Recognize,
        automaton: AutomatonMode::Off,
        ..ParserConfig::improved()
    };
    vec![
        (backend_by_name("pwd-dfa", cfg).unwrap(), true),
        (Box::new(PwdBackend::with_config(cfg, interp, "pwd-recognize-interp")), true),
        (Box::new(PwdBackend::improved(cfg)), false),
    ]
}

/// A keystroke that kills a 10,000-token PL/0 document and the one that
/// mends it cost their damage, not the suffix. After a `;` that precedes a
/// statement, `x := a + b;` is typed one token per splice: the first token
/// kills the document at the next suffix token, where the refeed stops,
/// the next four stop at death too and converge with the dead document,
/// and the `;` mends it by converging against the last live timeline. The
/// statement is then deleted, and an identifier further on retyped, which
/// finds a rung near it because the kill parked the live timeline's rungs
/// and the mend re-anchored them. Every verdict matches a scratch parse.
/// Parse mode has no signatures: it gets the stop at death only.
#[test]
fn break_and_mend_stay_local_on_long_documents() {
    let (cfg, lexer) = (pl0::cfg(), pl0::lexer());
    let lexemes = lexer.tokenize(&gen::pl0_source(10_000, 14, 0.1)).expect("lexes");
    let doc: Vec<(String, String)> =
        lexemes.iter().map(|l| (l.kind.to_string(), l.text.to_string())).collect();
    let statement = [("ID", "x"), (":=", ":="), ("ID", "a"), ("+", "+"), ("ID", "b"), (";", ";")];
    let mut oracle = backend_by_name("pwd-dfa", &cfg).unwrap();
    let mut parses = |m: &[(String, String)]| {
        let kinds: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        oracle.recognize(&kinds).unwrap()
    };
    // A `;` followed by an identifier, after which the typed statement
    // parses: one that ends a procedure's block does not qualify.
    let at = (doc.len() / 2..doc.len())
        .find(|&i| {
            if doc[i - 1].0 != ";" || doc[i].0 != "ID" {
                return false;
            }
            let mut typed = doc.clone();
            typed.splice(i..i, statement.iter().map(|&(k, t)| (k.to_string(), t.to_string())));
            parses(&typed)
        })
        .expect("a statement boundary in the second half");
    for (arm, signatures) in &mut stopping_arms(&cfg) {
        let name = arm.name();
        let mut s = Session::open(&mut **arm).unwrap();
        s.enable_incremental().unwrap();
        s.feed_lexemes(&lexemes).unwrap();
        let mut model = doc.clone();
        let mut check = |s: &mut Session<'_>, model: &[(String, String)], what: &str| {
            assert_eq!(s.tokens_fed(), model.len(), "{name}: {what}: position drift");
            assert_eq!(s.prefix_is_sentence().unwrap(), parses(model), "{name}: {what}");
        };
        for (k, &(kind, text)) in statement.iter().enumerate() {
            let pos = at + k;
            let out = s.splice_tokens(pos, 0, &[(kind, text)]).unwrap();
            model.insert(pos, (kind.to_string(), text.to_string()));
            check(&mut s, &model, &format!("typed {kind}"));
            assert_eq!(out.refed + out.reused, model.len(), "{name}: {out:?}");
            let local = pos - out.rung + 1;
            if k == 0 {
                assert_eq!(out.outcome, FeedOutcome::Dead, "{name}: the first token kills");
                assert!(out.refed <= local + 2, "{name}: the kill refed the suffix: {out:?}");
            } else if k < statement.len() - 1 {
                // Typed into a dead document: both timelines are dead from
                // where the refeed stops.
                assert_eq!(out.outcome, FeedOutcome::Dead, "{name}: typed {kind}: {out:?}");
                assert!(out.converged_at.is_some(), "{name}: typed {kind}: {out:?}");
                assert!(out.refed <= local + 2, "{name}: typed {kind}: {out:?}");
            }
            if k == statement.len() - 1 && *signatures {
                assert!(out.outcome.is_viable(), "{name}: the `;` mends: {out:?}");
                assert!(out.converged_at.is_some(), "{name}: the mend converges: {out:?}");
                assert!(out.refed <= local + 16, "{name}: the mend refed the suffix: {out:?}");
            }
        }
        let out = s.splice_tokens(at, statement.len(), &[]).unwrap();
        model.drain(at..at + statement.len());
        check(&mut s, &model, "deleted the statement");
        assert!(!*signatures || out.converged_at.is_some(), "{name}: the delete: {out:?}");
        let mut rng = Rng::new(0xB4EA);
        let id = loop {
            let i = at + 1 + rng.below(model.len() - at - 1);
            if model[i].0 == "ID" {
                break i;
            }
        };
        let out = s.splice_tokens(id, 1, &[("ID", "q")]).unwrap();
        model[id] = ("ID".to_string(), "q".to_string());
        check(&mut s, &model, "retyped an identifier");
        if *signatures {
            assert!(out.converged_at.is_some(), "{name}: the retype at {id}: {out:?}");
            assert!(out.refed <= 128, "{name}: no rung near the retype at {id}: {out:?}");
        }
        assert!(s.finish().unwrap(), "{name}: the document parses again");
    }
}

/// Between the current timeline's death and the shadow lies a gap whose
/// signatures are never compared: the timeline that recorded them died
/// further on, and its end state is gone. A PL/0 document is killed late,
/// at `b`, and then early, at `a`; mending `a` leaves it dead at `b`, so
/// that refeed must run through the gap, where the states match the ones
/// recorded there, to the death at `b` rather than land on the shadow's
/// live end. Mending `b` then converges into the shadow.
#[test]
fn a_mend_behind_a_later_death_stays_dead() {
    let (cfg, lexer) = (pl0::cfg(), pl0::lexer());
    let lexemes = lexer.tokenize(&gen::pl0_source(2_000, 5, 0.1)).expect("lexes");
    let doc: Vec<&str> = lexemes.iter().map(|l| l.kind.as_str()).collect();
    let mut oracle = backend_by_name("pwd-dfa", &cfg).unwrap();
    // Statement boundaries, where an identifier typed after the `;` kills.
    let boundary = |from: usize| {
        (from..doc.len()).find(|&i| doc[i - 1] == ";" && doc[i] == "ID").expect("a boundary")
    };
    let (a, b) = (boundary(doc.len() / 4), boundary(doc.len() * 3 / 4));
    for (arm, signatures) in &mut stopping_arms(&cfg) {
        let name = arm.name();
        let mut s = Session::open(&mut **arm).unwrap();
        s.enable_incremental().unwrap();
        s.feed_lexemes(&lexemes).unwrap();
        let mut model = doc.clone();
        // The kill of the live document converges nowhere. The splices of
        // the dead one converge where both timelines are dead, from the
        // late death on (`x` at `b` kills at the token after it); the mend
        // of `b` converges into the shadow where there are signatures.
        let script = [
            ("kill b", b, 0, false, None),
            ("kill a", a, 0, false, Some(b + 3)),
            ("mend a", a, 1, false, Some(b + 2)),
            ("mend b", b, 1, true, None),
        ];
        for (what, at, remove, viable, converged) in script {
            let insert: &[(&str, &str)] = if remove == 0 { &[("ID", "x")] } else { &[] };
            let out = s.splice_tokens(at, remove, insert).unwrap();
            model.splice(at..at + remove, insert.iter().map(|&(kind, _)| kind));
            assert_eq!(out.outcome.is_viable(), viable, "{name}: {what}: {out:?}");
            assert_eq!(s.prefix_is_sentence().unwrap(), oracle.recognize(&model).unwrap());
            if what == "mend a" {
                assert!(out.refed > b - a, "{name}: {what} stopped short of the death: {out:?}");
            }
            if what != "mend b" {
                assert_eq!(out.converged_at, converged, "{name}: {what}: {out:?}");
            } else if *signatures {
                assert!(out.converged_at.is_some(), "{name}: {what}: {out:?}");
            }
        }
        assert!(s.finish().unwrap(), "{name}: the document parses again");
    }
}
