//! Random-edit-script differential testing for [`Session::splice_tokens`]:
//! a session that absorbs an arbitrary interleaving of splices, user
//! checkpoints, and rollbacks must be observationally identical to parsing
//! the resulting token sequence from scratch — same verdicts after every
//! edit, same canonical forest fingerprints at the end — across all three
//! parser families, both PWD memo keyings, and both recognize engines
//! (lazy automaton and interpreted). Error recovery is mutually exclusive
//! with incremental mode, so diagnostic parity is structural: a spliced
//! session emits exactly the diagnostics a scratch session would — none.

use derp::api::{backend_by_name, backends, Checkpoint, ParseCount, Parser, PwdBackend, Session};
use derp::core::{AutomatonMode, MemoKeying, ParseMode, ParserConfig};
use derp::grammar::{random_cfg, random_input, remove_useless, CfgBuilder, RandomCfgConfig};

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

#[test]
fn random_edit_scripts_match_scratch_reparses() {
    let shape = RandomCfgConfig::default();
    let mut spliced = 0usize;
    let mut rolled_back = 0usize;
    let mut checked = 0usize;
    for seed in 0..10u64 {
        let Ok(cfg) = remove_useless(&random_cfg(&shape, seed)) else { continue };
        for (arm_idx, (arm, forests)) in arms(&cfg).iter_mut().enumerate() {
            let name = arm.name();
            let mut scratch = arm.fork();
            let mut s = Session::open(&mut **arm).unwrap();
            s.enable_incremental().unwrap();
            let mut model: Vec<String> = random_input(&cfg, 8, seed * 10_007 + 1);
            let refs: Vec<&str> = model.iter().map(String::as_str).collect();
            s.feed_all(&refs).unwrap();
            let mut rng = Rng::new(seed * 7919 + arm_idx as u64);
            let mut saved: Vec<Saved> = Vec::new();
            for step in 0..12u64 {
                match rng.below(5) {
                    // Take a user checkpoint at the current position.
                    0 => {
                        saved.push(Saved {
                            pos: s.tokens_fed(),
                            cp: s.checkpoint().unwrap(),
                            model: model.clone(),
                        });
                    }
                    // Roll back to a random surviving checkpoint.
                    1 if !saved.is_empty() => {
                        let idx = rng.below(saved.len());
                        let target = saved[idx].pos;
                        s.rollback(&saved[idx].cp).unwrap();
                        model = saved[idx].model.clone();
                        // Checkpoints above the restored position die.
                        saved.retain(|sv| sv.pos <= target);
                        rolled_back += 1;
                    }
                    // Splice a random edit: replace `remove` tokens at `at`
                    // with a slice of a random valid sentence (guaranteed
                    // known terminal kinds).
                    _ => {
                        let at = rng.below(model.len() + 1);
                        let remove = rng.below(model.len() - at + 1).min(3);
                        let donor = random_input(&cfg, 6, seed * 65_537 + step + 2);
                        let take = rng.below(donor.len().min(3) + 1);
                        let insert = &donor[..take];
                        let pairs: Vec<(&str, &str)> =
                            insert.iter().map(|t| (t.as_str(), t.as_str())).collect();
                        let out = s.splice_tokens(at, remove, &pairs).unwrap();
                        model.splice(at..at + remove, insert.iter().cloned());
                        assert_eq!(
                            out.refed + out.reused,
                            model.len(),
                            "{name}: splice accounting must cover the stream: {out:?}"
                        );
                        // The rung restore follows rollback timeline
                        // semantics: user checkpoints above it die.
                        saved.retain(|sv| sv.pos <= out.rung);
                        spliced += 1;
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
                checked += 1;
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
    assert!(checked > 500, "coverage sanity: {checked} comparisons");
    assert!(spliced > 200, "edit-coverage sanity: {spliced} splices");
    assert!(rolled_back > 20, "rollback-coverage sanity: {rolled_back} rollbacks");
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
