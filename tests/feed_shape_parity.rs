//! Feed-shape parity: a session's answer must not depend on the shape its
//! input arrives in. The same PL/0 documents — clean and token-damaged —
//! are fed with recovery on as a lexeme slice (`feed_lexemes`), as the
//! same slice behind a `TokenSource` (`feed_source` over a
//! `LexemeSource`), and as bare kinds (`feed_all`), on every roster
//! backend. The first two must agree on the verdict and on every
//! diagnostic, spans included; the kinds feed must agree with them once
//! spans are cleared, and carries no spans of its own (a bare kind has no
//! place in a source). With recovery off, the batch shims must agree
//! across shapes too: `recognize_lexemes` against `recognize_source` over
//! the streaming lexer.

use derp::api::{backends, LexemeSource, Parser, Session};
use derp::grammar::{gen, grammars};
use derp::lex::Lexeme;
use derp::{Diagnostic, RecoveryBudget};

/// Deterministic split-mix RNG (same scheme as the recovery suites).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One to three token deletions, duplications or adjacent swaps.
fn damage(rng: &mut Rng, clean: &[Lexeme]) -> Vec<Lexeme> {
    let mut toks = clean.to_vec();
    for _ in 0..rng.below(3) + 1 {
        if toks.len() < 3 {
            break;
        }
        let i = rng.below(toks.len() - 1);
        match rng.below(3) {
            0 => {
                toks.remove(i);
            }
            1 => {
                let dup = toks[i].clone();
                toks.insert(i, dup);
            }
            _ => toks.swap(i, i + 1),
        }
    }
    toks
}

/// One PL/0 document: its source text (clean ones only) and its tokens.
struct Doc {
    text: Option<String>,
    tokens: Vec<Lexeme>,
}

fn corpus() -> Vec<Doc> {
    let lexer = grammars::pl0::lexer();
    let mut rng = Rng(0xFEED_5AFE);
    (0..80)
        .map(|i| {
            let text = gen::pl0_source(16 + rng.below(14), rng.next(), 0.6);
            let clean = lexer.tokenize(&text).expect("generated PL/0 tokenizes");
            if i % 4 == 0 {
                Doc { text: Some(text), tokens: clean }
            } else {
                Doc { text: None, tokens: damage(&mut rng, &clean) }
            }
        })
        .collect()
}

/// Opens a recovering session, feeds it with `feed`, and closes it.
fn recovering(
    backend: &mut dyn Parser,
    feed: impl FnOnce(&mut Session<'_>) -> Result<derp::api::FeedOutcome, derp::api::BackendError>,
) -> (bool, Vec<Diagnostic>) {
    let mut session = Session::open(backend).expect("fresh session");
    session.enable_recovery(RecoveryBudget::default());
    feed(&mut session)
        .and_then(|_| session.finish_with_diagnostics())
        .expect("recovery sessions don't error on known kinds")
}

#[test]
fn every_feed_shape_recovers_identically() {
    let cfg = grammars::pl0::cfg();
    let docs = corpus();
    let mut repaired = 0usize;
    for backend in backends(&cfg).iter_mut() {
        let name = backend.name();
        for (i, doc) in docs.iter().enumerate() {
            let toks = &doc.tokens;
            let kinds: Vec<&str> = toks.iter().map(|l| l.kind.as_str()).collect();
            let lexemes = recovering(backend.as_mut(), |s| s.feed_lexemes(toks));
            let source =
                recovering(backend.as_mut(), |s| s.feed_source(&mut LexemeSource::new(toks)));
            let bare = recovering(backend.as_mut(), |s| s.feed_all(&kinds));
            assert_eq!(source, lexemes, "{name} doc #{i} {kinds:?}: feed_source vs feed_lexemes");
            assert!(
                bare.1.iter().all(|d| d.span.is_none()),
                "{name} doc #{i}: bare kind feeds carry no spans: {:?}",
                bare.1
            );
            let mut unspanned = lexemes.clone();
            for d in &mut unspanned.1 {
                d.span = None;
            }
            assert_eq!(bare, unspanned, "{name} doc #{i} {kinds:?}: feed_all vs feed_lexemes");
            if !lexemes.1.is_empty() {
                repaired += 1;
            }
        }
    }
    assert!(repaired > 20, "only {repaired} runs repaired anything; the check has no teeth");
}

#[test]
fn batch_shims_agree_across_feed_shapes() {
    let cfg = grammars::pl0::cfg();
    let lexer = grammars::pl0::lexer();
    let docs = corpus();
    for backend in backends(&cfg).iter_mut() {
        let name = backend.name();
        for (i, doc) in docs.iter().enumerate() {
            let Some(text) = &doc.text else { continue };
            let from_slice = backend.recognize_lexemes(&doc.tokens).expect("known kinds");
            let from_source = backend.recognize_source(&mut lexer.source(text)).expect("lexes");
            assert!(from_slice, "{name} doc #{i}: clean PL/0 must parse");
            assert_eq!(from_source, from_slice, "{name} doc #{i}: recognize_source");
        }
    }
}
