//! The one maximal-munch DFA a [`Lexer`](crate::Lexer) scans with: the
//! product of its rules' automata, built once by
//! [`LexerBuilder::build`](crate::LexerBuilder::build).
//!
//! Owens, Reppy & Turon ("Regular-expression derivatives re-examined", JFP
//! 2009, §4.3) lex with a single automaton over the whole rule *vector*
//! `(r₁, …, rₙ)`: a state is the vector of the rules' states, and it is
//! labelled with the first rule whose state accepts. [`Scanner`] builds that
//! automaton from the rules' existing [`Dfa`]s:
//!
//! * a state is the list of *live* `(rule, rule-state)` pairs, in rule
//!   order — a rule whose automaton died is dropped, so the empty list is
//!   the one dead state, and reaching it ends the scan;
//! * the character classes are the alphabet cut at every range boundary of
//!   every rule state, so every rule state treats a class as one character;
//!   a 128-entry table classifies ASCII, a binary search everything above;
//! * transitions are dense `u32` rows over the classes, and each row ends
//!   with its state's label: the lowest-index accepting rule.
//!
//! Scanning is then one table step per character.

use pwd_regex::{Dfa, StateId};
use std::collections::HashMap;

/// One past the largest Unicode scalar value.
const END: u32 = 0x11_0000;

/// "No rule accepts" (a row's label) and "no state yet" (during
/// construction).
const NONE: u32 = u32::MAX;

/// The merged maximal-munch automaton of a rule vector.
pub(crate) struct Scanner {
    /// Character class of each ASCII character.
    ascii: [u32; 128],
    /// The classes above ASCII: class `first_above + j` starts at code
    /// point `above[j]`; ascending, and `above[0] == 128`.
    above: Vec<u32>,
    first_above: u32,
    /// Row length: one successor per class, then the label.
    width: usize,
    /// Row-major transitions. Successors are stored as row offsets
    /// (`state × width`), so the dead state is offset 0; its row points
    /// back at itself and has no label.
    rows: Vec<u32>,
    /// Row offset of the start state (0 when no rule can match anything).
    start: u32,
}

impl Scanner {
    /// Merges the rules' automata, given in rule order.
    pub(crate) fn build(dfas: &[Dfa]) -> Scanner {
        // Every `(rule, rule-state)` pair gets a component id; a rule's ids
        // are contiguous and rise with the rule index, so a component list
        // kept in rule order is sorted.
        let mut base = Vec::with_capacity(dfas.len());
        let mut total = 0usize;
        for d in dfas {
            base.push(total);
            total += d.len();
        }

        // The character classes: the alphabet cut at every range boundary
        // of every rule state.
        let mut cuts = vec![0, END];
        for d in dfas {
            for s in 0..d.len() as StateId {
                for (lo, hi, _) in d.transitions(s) {
                    cuts.push(lo);
                    cuts.push(hi + 1);
                }
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        let classes = cuts.len() - 1;
        let class_of = |v: u32| cuts.partition_point(|&x| x <= v) - 1;

        // Each live component's transitions to live components, as class
        // ranges `(first, last, successor)` at `moves[from[id]..from[id + 1]]`.
        let mut moves: Vec<(usize, usize, u32)> = Vec::new();
        let mut from = Vec::with_capacity(total + 1);
        let mut label_of = vec![NONE; total];
        for (r, d) in dfas.iter().enumerate() {
            for s in 0..d.len() as StateId {
                from.push(moves.len());
                if d.is_accepting(s) {
                    label_of[base[r] + s as usize] = r as u32;
                }
                if d.is_dead(s) {
                    continue;
                }
                for (lo, hi, t) in d.transitions(s) {
                    if !d.is_dead(t) {
                        moves.push((class_of(lo), class_of(hi), (base[r] + t as usize) as u32));
                    }
                }
            }
        }
        from.push(moves.len());
        let moves_of = |g: u32| &moves[from[g as usize]..from[g as usize + 1]];

        // The product, discovered breadth-first. A state is a span of
        // `comps`; state 0 is the dead state (the empty list). One-component
        // lists are found through `single`, longer ones through `multi`.
        let mut comps: Vec<u32> = Vec::new();
        let mut spans: Vec<(usize, usize)> = vec![(0, 0)];
        let mut single = vec![NONE; total];
        let mut multi: HashMap<Box<[u32]>, u32> = HashMap::new();
        let mut intern = |list: &[u32], comps: &mut Vec<u32>, spans: &mut Vec<(usize, usize)>| {
            let slot = match list {
                [] => return 0,
                [one] => &mut single[*one as usize],
                _ => match multi.get(list) {
                    Some(&id) => return id,
                    None => multi.entry(list.into()).or_insert(NONE),
                },
            };
            if *slot == NONE {
                *slot = spans.len() as u32;
                spans.push((comps.len(), list.len()));
                comps.extend_from_slice(list);
            }
            *slot
        };
        let start_list: Vec<u32> = dfas
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.is_dead(d.start()))
            .map(|(r, d)| (base[r] + d.start() as usize) as u32)
            .collect();
        let start = intern(&start_list, &mut comps, &mut spans) as usize;

        let width = classes + 1;
        let mut rows: Vec<u32> = Vec::new();
        // Per class, for the state being expanded: how many components
        // survive, and the first survivor (the lowest rule's).
        let mut live = vec![0u32; classes];
        let mut first = vec![NONE; classes];
        let mut next: Vec<u32> = Vec::new();
        let mut q = 0;
        while q < spans.len() {
            let (at, len) = spans[q];
            live.fill(0);
            for &g in comps[at..at + len].iter().rev() {
                for &(a, b, t) in moves_of(g) {
                    for c in a..=b {
                        live[c] += 1;
                        first[c] = t;
                    }
                }
            }
            for c in 0..classes {
                let id = match live[c] {
                    0 => 0,
                    1 => intern(&[first[c]], &mut comps, &mut spans),
                    _ => {
                        next.clear();
                        for &g in &comps[at..at + len] {
                            let hit = moves_of(g).iter().find(|&&(a, b, _)| a <= c && c <= b);
                            next.extend(hit.map(|&(_, _, t)| t));
                        }
                        intern(&next, &mut comps, &mut spans)
                    }
                };
                rows.push((id as usize * width) as u32);
            }
            let label =
                comps[at..at + len].iter().map(|&c| label_of[c as usize]).find(|&l| l != NONE);
            rows.push(label.unwrap_or(NONE));
            q += 1;
        }

        // Every stored offset is below the table's length.
        assert!(u32::try_from(rows.len()).is_ok(), "the scanner table outgrew u32 offsets");
        let mut ascii = [0u32; 128];
        for (c, slot) in ascii.iter_mut().enumerate() {
            *slot = class_of(c as u32) as u32;
        }
        let first_above = class_of(128);
        let above =
            std::iter::once(128).chain(cuts[first_above + 1..classes].iter().copied()).collect();
        Scanner {
            ascii,
            above,
            first_above: first_above as u32,
            width,
            rows,
            start: (start * width) as u32,
        }
    }

    /// The longest non-empty match at the head of `rest`, as `(byte length,
    /// rule index)` with ties to the earlier rule, and the scan extent: the
    /// bytes examined until every rule was dead — the stopping character
    /// included — or the input ran out.
    pub(crate) fn scan(&self, rest: &str) -> (Option<(usize, usize)>, usize) {
        let bytes = rest.as_bytes();
        let label_at = self.width - 1;
        let mut row = self.start as usize;
        let mut best = None;
        let mut i = 0;
        while i < bytes.len() {
            let b = bytes[i];
            let class = if b < 0x80 {
                i += 1;
                self.ascii[b as usize]
            } else {
                let c = rest[i..].chars().next().expect("the scan head is on a char boundary");
                i += c.len_utf8();
                let v = c as u32;
                self.first_above + (self.above.partition_point(|&s| s <= v) - 1) as u32
            };
            row = self.rows[row + class as usize] as usize;
            if row == 0 {
                break;
            }
            let label = self.rows[row + label_at];
            if label != NONE {
                best = Some((i, label as usize));
            }
        }
        (best, i)
    }
}

#[cfg(test)]
mod tests {
    use crate::lexer::{Lexer, LexerBuilder};
    use pwd_regex::Dfa;

    /// A rule list: `(name, pattern, skip)` in priority order.
    type Rules<'a> = [(&'a str, &'a str, bool)];

    /// splitmix64 — the deterministic RNG idiom the repo's property tests use.
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
            (self.next() % n.max(1) as u64) as usize
        }
    }

    /// The `SourceBuffer` tests' PL/0-like rules, with their `#…~` skip
    /// comment.
    const PL0ISH_RULES: &Rules = &[
        ("ASSIGN", r":=", false),
        ("LE", r"<=", false),
        ("LT", r"<", false),
        ("SEMI", r";", false),
        ("PLUS", r"\+", false),
        ("KW_IF", r"if", false),
        ("ID", r"[a-z][a-z0-9]*", false),
        ("NUM", r"[0-9]+", false),
        ("WS", r"[ \t\n]+", true),
        ("COMMENT", r"#[a-z ]*~", true),
    ];

    /// The PL/0 grammar's lexer rules (`pwd_grammar::grammars::pl0::lexer`).
    const PL0_RULES: &Rules = &[
        ("const", "const", false),
        ("var", "var", false),
        ("procedure", "procedure", false),
        ("call", "call", false),
        ("begin", "begin", false),
        ("end", "end", false),
        ("if", "if", false),
        ("then", "then", false),
        ("while", "while", false),
        ("do", "do", false),
        ("repeat", "repeat", false),
        ("until", "until", false),
        ("read", "read", false),
        ("write", "write", false),
        ("odd", "odd", false),
        ("mod", "mod", false),
        ("div", "div", false),
        (":=", r":=", false),
        (";", r";", false),
        (",", r",", false),
        (".", r"\.", false),
        ("<=", r"<=", false),
        (">=", r">=", false),
        ("<", r"<", false),
        (">", r">", false),
        ("=", r"=", false),
        ("#", r"#", false),
        ("+", r"\+", false),
        ("-", r"-", false),
        ("*", r"\*", false),
        ("/", r"/", false),
        ("(", r"\(", false),
        (")", r"\)", false),
        ("[", r"\[", false),
        ("]", r"\]", false),
        ("ID", r"[a-z][a-z0-9]*", false),
        ("NUM", r"[0-9]+", false),
        ("WS", r"[ \t\n]+", true),
    ];

    fn lexer_of(rules: &Rules) -> Lexer {
        LexerBuilder::new().rule_list(rules.iter().copied()).expect("valid patterns").build()
    }

    /// The per-rule loop the merged DFA replaced: every rule's automaton
    /// scans on its own; the longest non-empty match wins, ties to the
    /// earlier rule, and the extent is the furthest any automaton looked.
    fn per_rule_match(dfas: &[Dfa], rest: &str) -> (Option<(usize, usize)>, usize) {
        let mut best: Option<(usize, usize)> = None;
        let mut extent = 0;
        for (i, dfa) in dfas.iter().enumerate() {
            let (m, scanned) = dfa.longest_match_scanned(rest);
            extent = extent.max(scanned);
            if let Some(len) = m {
                if len > 0 && best.is_none_or(|(bl, _)| len > bl) {
                    best = Some((len, i));
                }
            }
        }
        (best, extent)
    }

    /// A character of `lo..=hi`, printable ASCII when the range has any.
    fn pick(rng: &mut Rng, lo: u32, hi: u32) -> Option<char> {
        let (a, b) = (lo.max(0x20), hi.min(0x7E));
        if a <= b && rng.below(5) > 0 {
            return char::from_u32(a + rng.below((b - a + 1) as usize) as u32);
        }
        let top = hi.min(lo.saturating_add(300));
        (0..4).find_map(|_| char::from_u32(lo + rng.below((top - lo + 1) as usize) as u32))
    }

    /// A random word of `dfa`'s language (or a prefix of one): a walk over
    /// live transitions that may stop at any accepting state.
    fn fragment(rng: &mut Rng, dfa: &Dfa) -> String {
        let mut out = String::new();
        let mut s = dfa.start();
        for _ in 0..12 {
            if dfa.is_accepting(s) && rng.below(3) == 0 {
                break;
            }
            let live: Vec<(u32, u32, u32)> =
                dfa.transitions(s).filter(|&(_, _, t)| !dfa.is_dead(t)).collect();
            if live.is_empty() {
                break;
            }
            let (lo, hi, t) = live[rng.below(live.len())];
            let Some(c) = pick(rng, lo, hi) else { break };
            out.push(c);
            s = t;
        }
        out
    }

    /// Seeded soups of the rules' own fragments — whole, cut short, or
    /// run together — with non-ASCII scalars mixed in.
    fn soups(dfas: &[Dfa], seed: u64, count: usize) -> Vec<String> {
        const ODD: [&str; 4] = ["é", "Ω", "§", "😀"];
        let mut rng = Rng(seed);
        (0..count)
            .map(|_| {
                let mut s = String::new();
                for _ in 0..1 + rng.below(24) {
                    if rng.below(10) == 0 {
                        s.push_str(ODD[rng.below(ODD.len())]);
                        continue;
                    }
                    let rule = rng.below(dfas.len());
                    let f = fragment(&mut rng, &dfas[rule]);
                    let cut = match rng.below(9) {
                        0 => {
                            f.char_indices().nth(rng.below(f.len() + 1)).map_or(f.len(), |(i, _)| i)
                        }
                        _ => f.len(),
                    };
                    s.push_str(&f[..cut]);
                }
                s
            })
            .collect()
    }

    /// The merged DFA keeps the per-rule loop's scan contract exactly:
    /// equal match length, rule and scan extent at every char position.
    #[test]
    fn merged_dfa_matches_the_per_rule_loop() {
        let python = crate::python::flat_rules();
        let python: Vec<(&str, &str, bool)> =
            python.iter().map(|(kind, pattern, skip)| (*kind, pattern.as_str(), *skip)).collect();
        let lists: [(&str, &Rules); 3] =
            [("pl0", PL0_RULES), ("python", &python), ("pl0ish", PL0ISH_RULES)];
        for (seed, (label, rules)) in lists.into_iter().enumerate() {
            let lexer = lexer_of(rules);
            let dfas: Vec<Dfa> = rules
                .iter()
                .map(|(_, pattern, _)| Dfa::build(&pwd_regex::parse(pattern).expect("valid")))
                .collect();
            let mut positions = 0;
            let mut matched = 0;
            for input in soups(&dfas, 0x5CA7 + seed as u64, 2500) {
                for (at, _) in input.char_indices() {
                    let rest = &input[at..];
                    let want = per_rule_match(&dfas, rest);
                    assert_eq!(
                        lexer.match_at_scanned(rest),
                        want,
                        "{label}: (match, extent) at byte {at} of {input:?}"
                    );
                    positions += 1;
                    matched += usize::from(want.0.is_some());
                }
            }
            assert!(positions > 40_000, "{label}: only {positions} positions tried");
            assert!(matched * 10 > positions * 6, "{label}: only {matched} of {positions} match");
        }
    }

    #[test]
    fn non_ascii_classes_follow_the_rules() {
        let lexer = lexer_of(&[("WORD", r"[a-zé]+", false), ("ANY", r"[^a-z]", false)]);
        assert_eq!(lexer.match_at_scanned("éaé!"), (Some((5, 0)), 6));
        assert_eq!(lexer.match_at_scanned("😀x"), (Some((4, 1)), 5));
        assert_eq!(lexer.match_at_scanned("Ωé"), (Some((2, 1)), 4));
    }
}
