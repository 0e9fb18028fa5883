//! An incremental session's bookkeeping grows with the document, not with
//! its tokens, and a keystroke's splice allocates as its edit needs.
//!
//! The history of fed tokens is one byte arena plus fixed-size records, the
//! checkpoint timeline is a run per rollback era, and a splice edits both in
//! place, so opening a 10,000-token document costs a handful of vector
//! doublings more than opening a 1,000-token one, and retyping one token in
//! the middle of either makes the same allocations. A counting global
//! allocator measures it; its counters are thread-local, so tests running
//! in parallel do not disturb each other's counts.

use derp::api::{PwdBackend, Session};
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
    let mut backend = PwdBackend::dfa(&cfg);
    // Warm the engine on both documents first: the counts below are the
    // session's, not the lazy automaton's first visits.
    for doc in &docs {
        let mut s = Session::open(&mut backend).expect("opens");
        s.feed_lexemes(doc).expect("feeds");
        assert!(s.finish().expect("finishes"), "generated PL/0 parses");
    }

    let mut feeds = Vec::new();
    let mut splices = Vec::new();
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
        assert!(s.finish().expect("finishes"));
    }
    let tokens = (docs[0].len(), docs[1].len());
    assert!(
        feeds[1] <= feeds[0] + 36,
        "incremental feeds of {tokens:?} tokens made {feeds:?} allocations"
    );
    assert_eq!(splices[0], splices[1], "one-token splices on {tokens:?} tokens: (count, largest)");
}
