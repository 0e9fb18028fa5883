//! Building and canonicalizing a parse forest allocates per forest, not
//! per node.
//!
//! The canonicalizer memoizes raw nodes in one dense vector, conses on
//! integer keys, shares the source's leaves in the nodes it builds, and
//! builds multi-alternative results on one reused scratch stack; the
//! summary is one post-order pass over three dense vectors. So
//! canonicalizing and summarizing a five times larger Python module costs
//! only the extra doublings of the structures that grow with the forest.
//! Feeding a warm engine allocates only what a token's forest owns: a
//! reduction that compaction inserts is an entry appended to the forest
//! arena's table, not a heap object. A counting global allocator measures
//! both; its counters are thread-local, so tests running in parallel do not
//! disturb each other's counts.

use derp::core::{ParserConfig, SessionState};
use derp::grammar::{gen, grammars::python, Compiled};
use derp::lex::tokenize_python;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations made on each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// meets the `GlobalAlloc` contract; counting touches only a thread-local
// `Cell` with a constant initializer, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` and `layout` come from this allocator, which got
        // them from `System`; the caller's guarantees are `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from this allocator, which got
        // them from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made by the calling thread so far.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Parses a generated module of about `tokens` tokens to a raw forest, then
/// returns its token count and the allocations that canonicalizing and
/// summarizing that forest make.
fn canonical_forest_allocations(tokens: usize, seed: u64) -> (usize, usize) {
    let cfg = python::cfg();
    let mut parser = Compiled::compile(&cfg, ParserConfig::improved());
    let src = gen::python_source(tokens, seed);
    let lexemes = tokenize_python(&src).expect("generated Python lexes");
    let toks = parser.tokens_from_lexemes(&lexemes).expect("Python kinds are grammar terminals");
    let start = parser.start;
    let raw = parser.lang.parse_forest(start, &toks).expect("generated Python parses");
    let before = allocations();
    let summary =
        parser.lang.canonical_forest(raw).expect("compiled grammars canonicalize").summary();
    let made = allocations() - before;
    assert!(!summary.count.is_zero(), "the canonical forest has a tree: {summary:?}");
    (toks.len(), made)
}

#[test]
fn canonicalization_allocates_per_forest_not_per_node() {
    let (small_tokens, small) = canonical_forest_allocations(256, 0xF0);
    let (large_tokens, large) = canonical_forest_allocations(2_048, 0xF1);
    assert!(large_tokens >= 4 * small_tokens, "{small_tokens} vs {large_tokens} tokens");
    // The modules have about 540 and 2,740 tokens. A forest five times
    // larger doubles each structure that grows with it at most three more
    // times: the arena's node, hash and reduction vectors, the leaf,
    // label-name and pair cons tables, the name text and name-hash
    // vectors, and the summary's post-order stack. Nine structures, three
    // doublings each, is 27 (the modules differ by 21); 32 leaves room for
    // a table that grows one step more on one module. Allocating per node,
    // as a vector per label application did, makes tens of thousands more.
    assert!(
        large <= small + 32,
        "canonical forest + summary of {small_tokens} tokens made {small} allocations, \
         of {large_tokens} tokens {large}"
    );
}

/// Feeds a generated module of about `tokens` tokens to a parse-mode
/// engine that parsed it once before (so its arenas have grown to size),
/// and returns the token count and the allocations made inside
/// `SessionState::feed`.
fn feed_allocations(tokens: usize, seed: u64) -> (usize, usize) {
    let cfg = python::cfg();
    let mut parser = Compiled::compile(&cfg, ParserConfig::improved());
    let src = gen::python_source(tokens, seed);
    let lexemes = tokenize_python(&src).expect("generated Python lexes");
    let toks = parser.tokens_from_lexemes(&lexemes).expect("Python kinds are grammar terminals");
    let start = parser.start;
    let raw = parser.lang.parse_forest(start, &toks).expect("generated Python parses");
    assert!(parser.lang.has_tree(raw));
    parser.lang.reset();
    let mut session = SessionState::start(&mut parser.lang, start).expect("the grammar is valid");
    let mut made = 0;
    for tok in &toks {
        let before = allocations();
        let viable = session.feed(&mut parser.lang, tok).expect("within budget");
        made += allocations() - before;
        assert!(viable, "generated Python parses");
    }
    session.finish(&mut parser.lang);
    (toks.len(), made)
}

#[test]
fn a_warm_feed_allocates_only_what_the_forest_owns() {
    for (target, seed) in [(256, 0xF2), (2_048, 0xF3)] {
        let (tokens, made) = feed_allocations(target, seed);
        // What a token's forest owns: the vector of each ambiguity node
        // that `ε ∪ ε` merging and `parse-null` build, 6.1–6.4 per token.
        // An `Arc` per reduction that compaction inserts added about 17
        // more (23–24 in all).
        let per_token = made as f64 / tokens as f64;
        assert!(per_token <= 8.0, "feeding {tokens} tokens made {made} allocations");
    }
}
