//! DFA construction by derivatives.
//!
//! States are canonicalized regexes; transitions are computed once per
//! *derivative class* rather than once per character (Owens et al. 2009).
//! `pwd-lex` builds one automaton per token rule and merges them, through
//! [`Dfa::transitions`], into the single maximal-munch automaton it scans
//! with.

use crate::class::CharClass;
use crate::deriv::{derivative_classes, derive, nullable};
use crate::syntax::{Re, Regex};
use std::collections::HashMap;
use std::fmt;

/// A deterministic finite automaton over Unicode scalar values.
///
/// Transitions are stored per state as `(CharClass, target)` pairs whose
/// classes partition the alphabet, so lookup is a linear scan over a small
/// number of classes (amortized by the class structure of practical lexers).
///
/// # Examples
///
/// ```
/// use pwd_regex::{Dfa, lit, star};
/// let dfa = Dfa::build(&star(lit("ab")));
/// assert!(dfa.accepts("abab"));
/// assert!(!dfa.accepts("aba"));
/// ```
#[derive(Debug, Clone)]
pub struct Dfa {
    states: Vec<State>,
    start: StateId,
}

/// Index of a DFA state.
pub type StateId = u32;

#[derive(Debug, Clone)]
struct State {
    /// Outgoing transitions; classes partition Σ.
    trans: Vec<(CharClass, StateId)>,
    accepting: bool,
    /// True iff this state's language is empty (no path to acceptance).
    dead: bool,
}

impl Dfa {
    /// Builds the DFA recognizing `L(r)` via derivative classes.
    ///
    /// The construction is guaranteed to terminate because the smart
    /// constructors in this crate keep regexes canonical modulo the
    /// ACI laws, giving finitely many distinct derivatives.
    pub fn build(r: &Regex) -> Dfa {
        let mut ids: HashMap<Regex, StateId> = HashMap::new();
        let mut states: Vec<State> = Vec::new();
        let mut exprs: Vec<Regex> = Vec::new();
        let mut work: Vec<StateId> = Vec::new();

        let mut intern = |re: Regex,
                          states: &mut Vec<State>,
                          exprs: &mut Vec<Regex>,
                          work: &mut Vec<StateId>|
         -> StateId {
            if let Some(&id) = ids.get(&re) {
                return id;
            }
            let id = states.len() as StateId;
            states.push(State {
                trans: Vec::new(),
                accepting: nullable(&re),
                dead: matches!(&*re, Re::Empty),
            });
            ids.insert(re.clone(), id);
            exprs.push(re);
            work.push(id);
            id
        };

        let start = intern(r.clone(), &mut states, &mut exprs, &mut work);
        while let Some(id) = work.pop() {
            let re = exprs[id as usize].clone();
            let classes = derivative_classes(&re);
            let mut trans = Vec::with_capacity(classes.classes().len());
            for cls in classes.classes() {
                let Some(rep) = cls.representative() else { continue };
                let d = derive(&re, rep);
                let target = intern(d, &mut states, &mut exprs, &mut work);
                trans.push((cls.clone(), target));
            }
            states[id as usize].trans = trans;
        }

        let mut dfa = Dfa { states, start };
        dfa.mark_dead();
        dfa
    }

    /// Marks states from which no accepting state is reachable, enabling the
    /// lexers' early-bailout on hopeless prefixes.
    fn mark_dead(&mut self) {
        // Reverse reachability from accepting states.
        let n = self.states.len();
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut live = vec![false; n];
        let mut work = Vec::new();
        for (i, s) in self.states.iter().enumerate() {
            for (_, t) in &s.trans {
                rev[*t as usize].push(i);
            }
            if s.accepting {
                live[i] = true;
                work.push(i);
            }
        }
        while let Some(i) = work.pop() {
            for &p in &rev[i] {
                if !live[p] {
                    live[p] = true;
                    work.push(p);
                }
            }
        }
        for (i, s) in self.states.iter_mut().enumerate() {
            s.dead = !live[i];
        }
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Returns `true` if the automaton has no states (never true for built
    /// automata, provided for completeness).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Steps the automaton from `state` on input `c`.
    ///
    /// Returns `None` only if `state` is out of range; the transition
    /// function itself is total because derivative classes partition Σ.
    pub fn step(&self, state: StateId, c: char) -> Option<StateId> {
        let s = self.states.get(state as usize)?;
        for (cls, t) in &s.trans {
            if cls.contains(c) {
                return Some(*t);
            }
        }
        None
    }

    /// The transition ranges of `state`: `(lo, hi, target)` for every
    /// inclusive code-point range of every outgoing class. Together they
    /// cover every `char`, so [`step`](Dfa::step) on any `c` in `lo..=hi`
    /// goes to `target`. The order is unspecified.
    ///
    /// This is the raw material for composite automata: `pwd-lex` merges
    /// its rules' DFAs into one by cutting the alphabet at every range
    /// boundary of every state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn transitions(&self, state: StateId) -> impl Iterator<Item = (u32, u32, StateId)> + '_ {
        self.states[state as usize]
            .trans
            .iter()
            .flat_map(|(cls, t)| cls.ranges().map(move |(lo, hi)| (lo, hi, *t)))
    }

    /// Is `state` accepting?
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.states.get(state as usize).map(|s| s.accepting).unwrap_or(false)
    }

    /// Is `state` dead (no suffix can lead to acceptance)?
    pub fn is_dead(&self, state: StateId) -> bool {
        self.states.get(state as usize).map(|s| s.dead).unwrap_or(true)
    }

    /// Runs the automaton over `input` and reports acceptance.
    pub fn accepts(&self, input: &str) -> bool {
        let mut st = self.start;
        for c in input.chars() {
            match self.step(st, c) {
                Some(next) => st = next,
                None => return false,
            }
            if self.is_dead(st) {
                return false;
            }
        }
        self.is_accepting(st)
    }

    /// Minimizes the automaton by Moore partition refinement.
    ///
    /// Brzozowski derivatives with ACI canonicalization already come close
    /// to minimal, but similarity is weaker than language equivalence, so a
    /// residue can remain; this pass removes it. The result accepts exactly
    /// the same language.
    ///
    /// # Examples
    ///
    /// ```
    /// use pwd_regex::{parse, Dfa};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let dfa = Dfa::build(&parse("(a|b)*abb")?);
    /// let min = dfa.minimize();
    /// assert!(min.len() <= dfa.len());
    /// assert!(min.accepts("aababb"));
    /// assert!(!min.accepts("abab"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn minimize(&self) -> Dfa {
        let n = self.states.len();
        // block[i] = current equivalence block of state i.
        let mut block: Vec<usize> = self.states.iter().map(|s| usize::from(s.accepting)).collect();
        loop {
            // Signature of a state: its block plus, per transition cell of
            // the *overlay* of all states' class partitions, the target
            // block. Using each state's own class list is sound because
            // classes partition Σ: we compare by probing each boundary.
            let mut sig: Vec<Vec<(u32, usize)>> = Vec::with_capacity(n);
            for s in &self.states {
                let mut v: Vec<(u32, usize)> = s
                    .trans
                    .iter()
                    .flat_map(|(cls, t)| {
                        let tb = block[*t as usize];
                        cls.ranges().map(move |(lo, _)| (lo, tb))
                    })
                    .collect();
                v.sort_unstable();
                // Merge adjacent cells with equal target blocks so states
                // with differently-split but equivalent partitions compare
                // equal.
                v.dedup_by(|a, b| a.1 == b.1);
                sig.push(v);
            }
            let mut index: HashMap<(usize, Vec<(u32, usize)>), usize> = HashMap::new();
            let mut next: Vec<usize> = Vec::with_capacity(n);
            for i in 0..n {
                let key = (block[i], sig[i].clone());
                let len = index.len();
                let b = *index.entry(key).or_insert(len);
                next.push(b);
            }
            if next == block {
                break;
            }
            block = next;
        }
        // Build the quotient automaton.
        let n_blocks = block.iter().max().map(|m| m + 1).unwrap_or(0);
        let mut states: Vec<State> = (0..n_blocks)
            .map(|_| State { trans: Vec::new(), accepting: false, dead: false })
            .collect();
        let mut done = vec![false; n_blocks];
        for (i, s) in self.states.iter().enumerate() {
            let b = block[i];
            if done[b] {
                continue;
            }
            done[b] = true;
            states[b].accepting = s.accepting;
            states[b].trans = s
                .trans
                .iter()
                .map(|(cls, t)| (cls.clone(), block[*t as usize] as StateId))
                .collect();
        }
        let mut dfa = Dfa { states, start: block[self.start as usize] as StateId };
        dfa.mark_dead();
        dfa
    }

    /// Length in bytes of the longest prefix of `input` accepted by the
    /// automaton, if any prefix (including the empty one) is accepted.
    pub fn longest_match(&self, input: &str) -> Option<usize> {
        self.longest_match_scanned(input).0
    }

    /// Like [`longest_match`](Dfa::longest_match), but also reports how far
    /// the scan *looked*: the byte length of the prefix examined before the
    /// automaton stopped (missing transition, dead state, or end of input —
    /// the stopping character itself counts as examined). The match decision
    /// is a pure function of exactly those bytes, which is what an
    /// incremental relexer needs to bound the damage of an edit.
    pub fn longest_match_scanned(&self, input: &str) -> (Option<usize>, usize) {
        let mut st = self.start;
        let mut best = if self.is_accepting(st) { Some(0) } else { None };
        let mut scanned = 0;
        for (i, c) in input.char_indices() {
            scanned = i + c.len_utf8();
            match self.step(st, c) {
                Some(next) => st = next,
                None => break,
            }
            if self.is_dead(st) {
                break;
            }
            if self.is_accepting(st) {
                best = Some(i + c.len_utf8());
            }
        }
        (best, scanned)
    }
}

impl fmt::Display for Dfa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DFA with {} states, start {}", self.states.len(), self.start)?;
        for (i, s) in self.states.iter().enumerate() {
            let mark = if s.accepting { "*" } else { " " };
            let dead = if s.dead { " (dead)" } else { "" };
            writeln!(f, " {mark}{i}{dead}:")?;
            for (cls, t) in &s.trans {
                writeln!(f, "    {cls:?} -> {t}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::{alt, alts, cat, ch, class, lit, plus, star};
    use crate::CharClass;

    #[test]
    fn dfa_matches_simple_literal() {
        let dfa = Dfa::build(&lit("abc"));
        assert!(dfa.accepts("abc"));
        assert!(!dfa.accepts("ab"));
        assert!(!dfa.accepts("abcd"));
        assert!(!dfa.accepts(""));
    }

    #[test]
    fn dfa_star_loop() {
        let dfa = Dfa::build(&star(alt(lit("ab"), lit("ba"))));
        assert!(dfa.accepts(""));
        assert!(dfa.accepts("abba"));
        assert!(dfa.accepts("baab"));
        assert!(!dfa.accepts("aab"));
    }

    #[test]
    fn dfa_identifier_like() {
        let letter = class(CharClass::from_ranges([('a', 'z'), ('A', 'Z'), ('_', '_')]));
        let digit = class(CharClass::range('0', '9'));
        let ident = cat(letter.clone(), star(alt(letter, digit)));
        let dfa = Dfa::build(&ident);
        assert!(dfa.accepts("x"));
        assert!(dfa.accepts("snake_case_42"));
        assert!(!dfa.accepts("9lives"));
        assert!(!dfa.accepts(""));
    }

    #[test]
    fn dfa_state_count_is_small_for_keywords() {
        let kw = alts([lit("if"), lit("else"), lit("while"), lit("return")]);
        let dfa = Dfa::build(&kw);
        assert!(dfa.len() < 32, "expected compact DFA, got {} states", dfa.len());
    }

    #[test]
    fn longest_match_prefers_longest() {
        let dfa = Dfa::build(&alt(lit("a"), lit("aaa")));
        assert_eq!(dfa.longest_match("aaaa"), Some(3));
        assert_eq!(dfa.longest_match("ab"), Some(1));
        assert_eq!(dfa.longest_match("b"), None);
    }

    #[test]
    fn longest_match_empty_prefix() {
        let dfa = Dfa::build(&star(ch('a')));
        assert_eq!(dfa.longest_match("bbb"), Some(0));
        assert_eq!(dfa.longest_match("aab"), Some(2));
    }

    #[test]
    fn dead_state_detection() {
        let dfa = Dfa::build(&lit("ab"));
        // After 'x' from start we are in the dead (∅) state.
        let st = dfa.step(dfa.start(), 'x').expect("total transitions");
        assert!(dfa.is_dead(st));
    }

    #[test]
    fn transitions_agree_with_step() {
        let dfa = Dfa::build(&crate::parse(r"[a-c]x|[0-9]+").unwrap());
        for s in 0..dfa.len() as StateId {
            for (lo, hi, t) in dfa.transitions(s) {
                for v in [lo, hi] {
                    if let Some(c) = char::from_u32(v) {
                        assert_eq!(dfa.step(s, c), Some(t), "state {s} on {c:?}");
                    }
                }
            }
            for c in ['a', 'x', '5', 'é', '😀'] {
                let covered = dfa.transitions(s).any(|(lo, hi, _)| (lo..=hi).contains(&(c as u32)));
                assert!(covered, "state {s} has no range for {c:?}");
            }
        }
    }

    #[test]
    fn minimize_classic_example() {
        // (a|b)*abb has a 4-state minimal DFA (plus possibly a dead state).
        let re = crate::parse("(a|b)*abb").unwrap();
        let dfa = Dfa::build(&re);
        let min = dfa.minimize();
        assert!(min.len() <= dfa.len());
        assert!(min.len() <= 5, "minimal DFA is 4 live states, got {}", min.len());
        for (s, want) in [
            ("abb", true),
            ("aabb", true),
            ("bbabb", true),
            ("ab", false),
            ("abba", false),
            ("", false),
        ] {
            assert_eq!(min.accepts(s), want, "{s:?}");
        }
    }

    #[test]
    fn minimize_preserves_language_on_samples() {
        let patterns = [r"[0-9]+(\.[0-9]+)?", "(ab|ba)*", "a?b?c?", "x(yz)*x"];
        let inputs =
            ["", "a", "ab", "abc", "ba", "abba", "3.14", "42", "x", "xx", "xyzx", "xyzyzx", "c"];
        for p in patterns {
            let dfa = Dfa::build(&crate::parse(p).unwrap());
            let min = dfa.minimize();
            assert!(min.len() <= dfa.len(), "{p}");
            for s in inputs {
                assert_eq!(dfa.accepts(s), min.accepts(s), "{p} on {s:?}");
            }
        }
    }

    #[test]
    fn minimize_merges_similar_states() {
        // a(x|y) vs (ax|ay): canonicalization may or may not merge; the
        // minimized automata must have equal state counts (same language).
        let r1 = crate::parse("a(x|y)").unwrap();
        let r2 = crate::parse("(ax|ay)").unwrap();
        let m1 = Dfa::build(&r1).minimize();
        let m2 = Dfa::build(&r2).minimize();
        assert_eq!(m1.len(), m2.len());
    }

    #[test]
    fn agreement_with_derivative_matcher() {
        let res = [
            lit("while"),
            plus(class(CharClass::range('0', '9'))),
            star(alt(lit("ab"), ch('c'))),
            cat(star(ch('a')), lit("b")),
        ];
        let inputs = ["", "a", "ab", "abc", "aab", "42", "while", "whilee", "ccabab"];
        for r in &res {
            let dfa = Dfa::build(r);
            for inp in inputs {
                assert_eq!(
                    dfa.accepts(inp),
                    crate::deriv::matches(r, inp),
                    "dfa/derivative disagreement on {r} with {inp:?}"
                );
            }
        }
    }
}
