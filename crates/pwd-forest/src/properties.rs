//! Property tests for counting and for the shortcut canonicalization
//! takes. On random raw forests of every shape the engines build — acyclic
//! and cyclic, with empty nodes and unpatched placeholders, pair
//! reductions over empty and ambiguous forests, nested structured
//! reductions, and an occasional opaque function — canonicalizing without
//! the productivity pre-pass must give exactly what it gives with it, and
//! on acyclic forests a count must be the number of trees enumeration
//! finds.

use crate::forest::{EnumLimits, Forest, ForestId, ForestNode};
use crate::{CanonError, ForestSummary, Leaf, Reduce, Tree, TreeCount};
use proptest::prelude::*;
use proptest::TestRng;

/// One raw node: an opcode and three operands, each read modulo what it
/// indexes, so every program builds a well-formed forest.
type Op = (u8, u32, u32, u32);

/// A raw forest program: the patches of the placeholders reserved first
/// (which may point forward, tying knots), then the nodes in order.
fn program(knots: std::ops::Range<usize>) -> impl Strategy<Value = (Vec<Op>, Vec<Op>)> {
    let op = || (0u8..12, 0u32..u32::MAX, 0u32..u32::MAX, 0u32..u32::MAX);
    (proptest::collection::vec(op(), knots), proptest::collection::vec(op(), 1..24))
}

/// Builds a program's forest in a raw arena; the root is its last node.
fn build((knots, nodes): &(Vec<Op>, Vec<Op>)) -> (Forest, ForestId) {
    let mut f = Forest::new();
    let holes: Vec<ForestId> = knots.iter().map(|_| f.reserve()).collect();
    let mut ids = holes.clone();
    for op in nodes {
        let node = make(&mut f, &ids, *op);
        ids.push(f.alloc(node));
    }
    for (&hole, &(op, a, b, c)) in holes.iter().zip(knots) {
        // Every fourth placeholder stays an unpatched `Cycle`; the others
        // tie knots, half of them as ambiguity nodes (whose other
        // alternatives can ground the cycle and make it productive).
        if a % 4 != 0 {
            let op = if op % 2 == 0 { 7 } else { 5 + op % 7 };
            let node = make(&mut f, &ids, (op, a, b, c));
            f.set(hole, node);
        }
    }
    (f, *ids.last().expect("programs have a node"))
}

fn make(f: &mut Forest, ids: &[ForestId], (op, a, b, c): Op) -> ForestNode {
    let pick = |x: u32| ids[x as usize % ids.len()];
    match op {
        0 => ForestNode::Empty,
        1 => ForestNode::Eps,
        2 => ForestNode::Const(Tree::node("K", vec![Tree::leaf("a", "x"), Tree::Empty])),
        // The first node of an acyclic program has nothing to point at.
        _ if op < 5 || ids.is_empty() => {
            ForestNode::Leaf(Leaf::new(["a", "b"][a as usize % 2], ["x", "y"][b as usize % 2]))
        }
        5 | 6 => ForestNode::Pair(pick(a), pick(b)),
        7 => ForestNode::Amb([pick(a), pick(b), pick(c)][..1 + c as usize % 3].to_vec()),
        _ => ForestNode::Map(f.intern_reduce(&reduce(ids, a, 3)), pick(b)),
    }
}

/// A structured reduction read from `code`, nested at most `depth` deep;
/// about one in sixteen is an opaque function.
fn reduce(ids: &[ForestId], code: u32, depth: u32) -> Reduce {
    let (op, rest) = (code % 8, code / 8);
    let pick = |x: u32| ids[x as usize % ids.len()];
    match op {
        1 => Reduce::pair_left(pick(rest)),
        2 => Reduce::pair_right(pick(rest)),
        3 => Reduce::reassoc(),
        4 if depth > 0 => Reduce::map_first(reduce(ids, rest, depth - 1)),
        5 if depth > 0 => Reduce::map_second(reduce(ids, rest, depth - 1)),
        6 if depth > 0 => {
            reduce(ids, rest % 4096, depth - 1).compose(reduce(ids, rest / 4096, depth - 1))
        }
        7 if rest % 2 == 0 => Reduce::func("wrap", |t| Tree::node("w", vec![t])),
        _ => Reduce::label(["S", "T"][rest as usize % 2], (rest / 2) as usize % 4),
    }
}

/// What canonicalizing `forest` gives with and without the pre-pass, after
/// checking that the two agree.
fn check(forest: &Forest, root: ForestId) -> Result<ForestSummary, CanonError> {
    let shortcut = forest.extract_canonical(root);
    let pruned = forest.extract_canonical_pruned(root);
    match (shortcut, pruned) {
        (Ok(a), Ok(b)) => {
            assert!(a.structural_eq(&b), "canonical forests differ");
            assert_eq!(a.summary(), b.summary(), "summaries differ");
            Ok(a.summary())
        }
        (Err(a), Err(b)) => {
            assert_eq!(a, b, "errors differ");
            Err(a)
        }
        (a, b) => panic!("one walk failed: shortcut {:?}, pre-pass {:?}", a.err(), b.err()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn acyclic_forests_take_the_shortcuts_exactly(p in program(0..1)) {
        let (forest, root) = build(&p);
        // The enumeration oracle: a small finite count is the number of
        // trees.
        if let TreeCount::Finite(n @ 0..=50) = forest.count(root) {
            let limits = EnumLimits { max_trees: 60, max_depth: usize::MAX };
            assert_eq!(forest.trees(root, limits).len() as u128, n, "count against trees");
        }
        let _ = check(&forest, root);
    }

    #[test]
    fn cyclic_forests_take_the_shortcuts_exactly(p in program(1..4)) {
        let (forest, root) = build(&p);
        let _ = check(&forest, root);
    }
}

/// The programs reach every outcome the properties are about, so a pass
/// above is not a pass over trivial forests.
#[test]
fn programs_reach_every_outcome() {
    let (mut empty, mut ambiguous, mut infinite, mut opaque) = (0, 0, 0, 0);
    let strategy = program(0..4);
    let mut rng = TestRng::seed_from_u64(0xF0E5);
    for _ in 0..4096 {
        let (forest, root) = build(&strategy.sample(&mut rng));
        match check(&forest, root) {
            Ok(s) if s.count == TreeCount::Finite(0) => empty += 1,
            Ok(s) if s.count == TreeCount::Infinite => infinite += 1,
            Ok(s) if s.count != TreeCount::Finite(1) => ambiguous += 1,
            Ok(_) => {}
            Err(_) => opaque += 1,
        }
    }
    for (what, n) in
        [("empty", empty), ("ambiguous", ambiguous), ("infinite", infinite), ("opaque", opaque)]
    {
        assert!(n >= 10, "only {n} of 4096 programs canonicalize to an {what} forest");
    }
}
