//! Seeded inputs. Every document and edit is a pure function of the run's
//! seed and its own index, and is generated right before its operation,
//! outside the timed window. Nothing is kept after the operation, so the
//! benchmark's own corpus does not sit in the heap the run measures.

use derp::grammar::gen;
use derp::lex::{Lexer, SourceBuffer};

/// splitmix64: small, fast, and good enough to pick sizes and edits.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` of the run seeded with `seed`, at `index`.
    pub fn new(seed: u64, stream: u64, index: u64) -> Rng {
        let mut r = Rng(seed);
        let a = r.next_u64() ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let mut r = Rng(a);
        Rng(r.next_u64() ^ index.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Document sizes of a pass: a stratified log-uniform sample over
/// `lo..=hi` tokens. Document `i` draws its size from stratum `order[i]`
/// of `n` equal log-width strata, and the seed shuffles which document
/// gets which stratum. Every seed thus serves the same size mix, and a
/// run's median and tail do not move with the luck of its size draws.
#[derive(Debug, Clone)]
pub struct Sizes {
    seed: u64,
    order: Vec<u32>,
    lo: f64,
    hi: f64,
}

impl Sizes {
    /// Sizes of `n` documents over `lo..=hi` tokens.
    pub fn new(seed: u64, n: usize, (lo, hi): (usize, usize)) -> Sizes {
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut rng = Rng::new(seed, stream::ORDER, 0);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        Sizes { seed, order, lo: lo as f64, hi: hi as f64 }
    }

    /// Size of document `i`, in tokens.
    pub fn get(&self, i: usize) -> usize {
        let jitter = Rng::new(self.seed, stream::SIZE, i as u64).unit();
        let q = (f64::from(self.order[i]) + jitter) / self.order.len() as f64;
        (self.lo * (self.hi / self.lo).powf(q)).round() as usize
    }
}

/// Independent random streams of one run.
pub mod stream {
    /// Document sizes and generator seeds.
    pub const DOC: u64 = 1;
    /// Token deletions on `pl0_recognize`.
    pub const DELETE: u64 = 2;
    /// Keystrokes on `pl0_edit`.
    pub const EDIT: u64 = 3;
    /// Which post-edit verdicts the oracle re-checks.
    pub const CHECK: u64 = 4;
    /// Which document gets which size stratum.
    pub const ORDER: u64 = 5;
    /// A document's place inside its size stratum.
    pub const SIZE: u64 = 6;
}

/// Identifier reuse of the PL/0 batch documents: most names are fresh.
pub const RECOGNIZE_REUSE: f64 = 0.1;
/// Identifier reuse of the edited PL/0 document.
pub const EDIT_REUSE: f64 = 0.3;
/// Share of `pl0_recognize` documents with one token deleted.
pub const DELETE_SHARE: f64 = 0.1;

/// The `index`-th `pl0_recognize` document: `gen::pl0_source` text of
/// about `size` tokens; a tenth of them lose one token.
pub fn pl0_document(lexer: &Lexer, seed: u64, index: u64, size: usize) -> String {
    let text =
        gen::pl0_source(size, Rng::new(seed, stream::DOC, index).next_u64(), RECOGNIZE_REUSE);
    let mut del = Rng::new(seed, stream::DELETE, index);
    if !del.chance(DELETE_SHARE) {
        return text;
    }
    let lexemes = lexer.tokenize(&text).expect("generated PL/0 lexes");
    let victim = &lexemes[del.below(lexemes.len())];
    let (start, end) = (victim.offset, victim.offset + victim.text.len());
    format!("{}{}", &text[..start], &text[end..])
}

/// The `index`-th `python_forest` module: `gen::python_source` text of
/// about `size` tokens.
pub fn python_module(seed: u64, index: u64, size: usize) -> String {
    gen::python_source(size, Rng::new(seed, stream::DOC, index).next_u64())
}

/// The `index`-th `pl0_edit` document: `gen::pl0_source` text of about
/// `tokens` tokens.
pub fn edit_document(seed: u64, index: u64, tokens: usize) -> String {
    gen::pl0_source(tokens, Rng::new(seed, stream::DOC, index).next_u64(), EDIT_REUSE)
}

/// One keystroke: replace bytes `start..end` of the buffer with `text`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Keystroke {
    /// First replaced byte.
    pub start: usize,
    /// One past the last replaced byte.
    pub end: usize,
    /// The replacement.
    pub text: String,
}

/// Chance that a keystroke starts typing a statement instead of retyping
/// an identifier. A statement takes seven keystrokes (six tokens typed,
/// one delete), so 0.058 puts about 30% of keystrokes in statements.
const STATEMENT_CHANCE: f64 = 0.058;

/// The editor traffic of one `pl0_edit` session: identifier retypes, and
/// statements typed one token per keystroke after a `;`, then deleted.
#[derive(Debug, Clone)]
pub struct EditScript {
    rng: Rng,
    typing: Option<Typing>,
}

/// A statement being typed: where it started, where the cursor is, and
/// the token texts still to type.
#[derive(Debug, Clone)]
struct Typing {
    start: usize,
    cursor: usize,
    pending: Vec<String>,
}

impl EditScript {
    /// The script of session `index`.
    pub fn new(seed: u64, index: u64) -> EditScript {
        EditScript { rng: Rng::new(seed, stream::EDIT, index), typing: None }
    }

    /// Is a statement half typed?
    #[cfg(test)]
    fn mid_statement(&self) -> bool {
        self.typing.is_some()
    }

    /// The next keystroke against the buffer's current state.
    pub fn next(&mut self, buf: &SourceBuffer<'_>) -> Keystroke {
        if let Some(t) = self.typing.as_mut() {
            if t.pending.is_empty() {
                let k = Keystroke { start: t.start, end: t.cursor, text: String::new() };
                self.typing = None;
                return k;
            }
            let text = t.pending.remove(0);
            let k = Keystroke { start: t.cursor, end: t.cursor, text };
            t.cursor += k.text.len();
            return k;
        }
        if self.rng.chance(STATEMENT_CHANCE) {
            if let Some(after) = self.find_token(buf, ";") {
                let cursor = buf.token_span(after).end;
                let pending = self.statement();
                self.typing = Some(Typing { start: cursor, cursor, pending });
                return self.next(buf);
            }
        }
        let id = self.find_token(buf, "ID").expect("PL/0 documents have identifiers");
        let span = buf.token_span(id);
        Keystroke { start: span.start, end: span.end, text: self.name() }
    }

    /// A random token of kind `kind`, by rejection sampling.
    fn find_token(&mut self, buf: &SourceBuffer<'_>, kind: &str) -> Option<usize> {
        (0..10_000).map(|_| self.rng.below(buf.token_count())).find(|&i| buf.lexeme(i).kind == kind)
    }

    fn name(&mut self) -> String {
        format!("v{}", 1 + self.rng.below(5_000))
    }

    fn operand(&mut self) -> String {
        if self.rng.chance(0.6) {
            self.name()
        } else {
            self.rng.below(1_000).to_string()
        }
    }

    /// `x := a op b;` as one inserted text per token.
    fn statement(&mut self) -> Vec<String> {
        let op = ["+", "-", "*"][self.rng.below(3)];
        let (target, lhs, rhs) = (self.name(), self.operand(), self.operand());
        vec![
            format!(" {target}"),
            " :=".to_string(),
            format!(" {lhs}"),
            format!(" {op}"),
            format!(" {rhs}"),
            ";".to_string(),
        ]
    }
}

/// Tokens of the document every cold start answers first: small, so that
/// set-up time is mostly grammar compile and session fork.
const SETUP_TOKENS: usize = 64;

/// The document every cold start answers first. It is the same for every
/// seed, so set-up time does not move with the seed.
pub fn setup_document(workload: &str) -> String {
    match workload {
        "python_forest" => gen::python_source(SETUP_TOKENS, 0),
        _ => gen::pl0_source(SETUP_TOKENS, 0, RECOGNIZE_REUSE),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use derp::grammar::grammars;

    #[test]
    fn rng_streams_are_seeded_and_independent() {
        let draw = |seed, stream, index| Rng::new(seed, stream, index).next_u64();
        assert_eq!(draw(7, 1, 0), draw(7, 1, 0));
        assert_ne!(draw(7, 1, 0), draw(8, 1, 0));
        assert_ne!(draw(7, 1, 0), draw(7, 2, 0));
        assert_ne!(draw(7, 1, 0), draw(7, 1, 1));
    }

    #[test]
    fn sizes_are_a_stratified_log_uniform_sample() {
        let n = 1000;
        let sizes = |seed| {
            let s = Sizes::new(seed, n, (64, 4096));
            (0..n).map(|i| s.get(i)).collect::<Vec<_>>()
        };
        let (a, b) = (sizes(1), sizes(2));
        assert!(a.iter().all(|&x| (64..=4096).contains(&x)));
        assert_ne!(a, b, "the seed shuffles sizes over documents");
        // One document per stratum: half the documents fall in the lower
        // half of the log range, for every seed, up to rounding.
        for v in [&a, &b] {
            let low = v.iter().filter(|&&x| x < 512).count();
            assert!((499..=501).contains(&low), "{low} of {n} below 512");
        }
        let (mut sa, mut sb) = (a.clone(), b.clone());
        sa.sort_unstable();
        sb.sort_unstable();
        assert!(sa.iter().zip(&sb).all(|(x, y)| x.abs_diff(*y) * 50 <= *x), "same size mix");
    }

    #[test]
    fn documents_are_a_function_of_seed_and_index() {
        let lexer = grammars::pl0::lexer();
        assert_eq!(pl0_document(&lexer, 5, 3, 300), pl0_document(&lexer, 5, 3, 300));
        assert_ne!(pl0_document(&lexer, 5, 3, 300), pl0_document(&lexer, 6, 3, 300));
        assert_ne!(pl0_document(&lexer, 5, 3, 300), pl0_document(&lexer, 5, 4, 300));
        assert_eq!(python_module(5, 1, 200), python_module(5, 1, 200));
        assert_ne!(python_module(5, 1, 200), python_module(9, 1, 200));
        assert_eq!(edit_document(5, 0, 500), edit_document(5, 0, 500));
    }

    #[test]
    fn about_a_tenth_of_documents_lose_a_token() {
        let lexer = grammars::pl0::lexer();
        let deleted = (0..400)
            .filter(|&i| {
                let full =
                    gen::pl0_source(80, Rng::new(11, stream::DOC, i).next_u64(), RECOGNIZE_REUSE);
                pl0_document(&lexer, 11, i, 80) != full
            })
            .count();
        assert!((20..70).contains(&deleted), "{deleted} of 400 documents lost a token");
    }

    #[test]
    fn edit_scripts_mix_retypes_and_typed_statements() {
        let lexer = grammars::pl0::lexer();
        let text = edit_document(3, 0, 2_000);
        let mut buf = SourceBuffer::new(&lexer, &text).expect("document lexes");
        let mut script = EditScript::new(3, 0);
        let (mut typed, total) = (0usize, 2_000usize);
        for _ in 0..total {
            let typing = script.mid_statement();
            let k = script.next(&buf);
            typed += usize::from(typing || script.mid_statement());
            buf.splice(k.start, k.end, &k.text).expect("keystrokes keep the text lexable");
        }
        let share = typed as f64 / total as f64;
        assert!((0.2..0.4).contains(&share), "{share} of keystrokes typed statements");
        // A finished statement is deleted again, so the document only ever
        // drifts by retyped names.
        while script.mid_statement() {
            let k = script.next(&buf);
            buf.splice(k.start, k.end, &k.text).expect("keystrokes keep the text lexable");
        }
        assert_eq!(buf.token_count(), lexer.tokenize(&text).expect("lexes").len());
    }
}
