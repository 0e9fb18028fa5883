//! An incremental session's bookkeeping grows with the document, not with
//! its tokens, and a keystroke's splice allocates as its edit needs.
//!
//! The history of fed tokens is one byte arena plus fixed-size records, the
//! checkpoint timeline is a run per rollback era, and a splice edits both in
//! place, so opening a 10,000-token document costs a handful of vector
//! doublings more than opening a 1,000-token one, and retyping one token in
//! the middle of either makes the same allocations. So does a keystroke
//! that kills the document followed by one that mends it: the kill parks
//! the live timeline's rungs in one reserved vector, not one allocation per
//! rung. A counting global allocator measures it; its counters are
//! thread-local, so tests running in parallel do not disturb each other's
//! counts.

use derp::api::{FeedOutcome, PwdBackend, Session};
use derp::grammar::{gen, grammars::pl0};
use derp::lex::Lexeme;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations made on each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count_one(size: usize) {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|n| n.set(n.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// meets the `GlobalAlloc` contract; counting touches only a thread-local
// `Cell` with a constant initializer, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's guarantees for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
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

/// Runs `f`, returning its result, the allocations it made and the size of
/// the largest allocation or reallocation it requested.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    LARGEST.with(|n| n.set(0));
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before, LARGEST.with(Cell::get))
}

#[test]
fn incremental_feeds_and_splices_allocate_independently_of_the_document() {
    let (cfg, lexer) = (pl0::cfg(), pl0::lexer());
    let docs: Vec<Vec<Lexeme>> = [(1_000, 13), (10_000, 14)]
        .iter()
        .map(|&(tokens, seed)| lexer.tokenize(&gen::pl0_source(tokens, seed, 0.1)).expect("lexes"))
        .collect();
    // Where an identifier typed after a `;` that precedes a statement
    // kills the document.
    let boundary = |doc: &[Lexeme]| {
        (doc.len() / 2..)
            .find(|&i| doc[i - 1].kind == ";" && doc[i].kind == "ID")
            .expect("a statement boundary")
    };
    let mut backend = PwdBackend::dfa(&cfg);
    // Warm the engine on both documents, and on both killed, first: the
    // counts below are the session's, not the lazy automaton's first
    // visits.
    for doc in &docs {
        let mut s = Session::open(&mut backend).expect("opens");
        s.feed_lexemes(doc).expect("feeds");
        assert!(s.finish().expect("finishes"), "generated PL/0 parses");
        let (head, tail) = doc.split_at(boundary(doc));
        let mut s = Session::open(&mut backend).expect("opens");
        s.feed_lexemes(head).expect("feeds");
        s.feed("ID", "x").expect("feeds");
        s.feed_lexemes(tail).expect("feeds");
        assert!(!s.finish().expect("finishes"), "the killed document is rejected");
    }

    let mut feeds = Vec::new();
    let mut splices = Vec::new();
    let mut breaks = Vec::new();
    for doc in &docs {
        let mut s = Session::open(&mut backend).expect("opens");
        s.enable_incremental().expect("a fresh session turns incremental");
        let (_, count, _) = measured(|| s.feed_lexemes(doc).expect("feeds"));
        feeds.push(count);
        // Retype the first identifier from the middle on as another name
        // of the same length.
        let id = (doc.len() / 2..).find(|&i| doc[i].kind == "ID").expect("an identifier");
        let name = "q".repeat(doc[id].text.len());
        let (out, count, largest) =
            measured(|| s.splice_tokens(id, 1, &[("ID", name.as_str())]).expect("splices"));
        assert!(out.converged_at.is_some(), "a retyped name converges: {out:?}");
        splices.push((count, largest));
        // Kill the document and mend it again: the kill parks the live
        // timeline's rungs, and the mend re-anchors them.
        let at = boundary(doc);
        let ((kill, mend), count, _) = measured(|| {
            let kill = s.splice_tokens(at, 0, &[("ID", "x")]).expect("splices");
            (kill, s.splice_tokens(at, 1, &[]).expect("splices"))
        });
        assert_eq!(kill.outcome, FeedOutcome::Dead, "an identifier after `;` kills: {kill:?}");
        assert!(mend.converged_at.is_some(), "the mend converges: {mend:?}");
        breaks.push(count);
        assert!(s.finish().expect("finishes"));
    }
    let tokens = (docs[0].len(), docs[1].len());
    assert!(
        feeds[1] <= feeds[0] + 36,
        "incremental feeds of {tokens:?} tokens made {feeds:?} allocations"
    );
    assert_eq!(splices[0], splices[1], "one-token splices on {tokens:?} tokens: (count, largest)");
    assert_eq!(breaks[0], breaks[1], "kill-then-mend pairs on {tokens:?} tokens");
}
