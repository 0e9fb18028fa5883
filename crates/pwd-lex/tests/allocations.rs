//! Batch tokenization allocates a constant number of times per call.
//!
//! Every lexeme shares its rule's name and one copy of the lexed text, so
//! `Lexer::tokenize`, `SourceBuffer::lexemes` and `tokenize_python`
//! allocate the same number of times for a document of a hundred tokens as
//! for one of four thousand, and no request is larger than a bounded
//! vector reservation or the text itself. A counting global allocator
//! measures it; its counters are thread-local, so tests running in parallel
//! do not disturb each other's counts.

use pwd_grammar::gen;
use pwd_grammar::grammars::pl0;
use pwd_lex::{tokenize_python, SourceBuffer};
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

/// Runs `f`, returning its result and the allocations it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Runs `f`, returning its result and the size of the largest allocation
/// or reallocation it requested.
fn largest_request<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|n| n.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

#[test]
fn pl0_tokenize_and_buffer_lexemes_allocate_independently_of_length() {
    let lexer = pl0::lexer();
    let small = gen::pl0_source(100, 11, 0.1);
    let large = gen::pl0_source(4_000, 12, 0.1);

    let (small_lexemes, small_count) = allocations(|| lexer.tokenize(&small).expect("lexes"));
    let (large_lexemes, large_count) = allocations(|| lexer.tokenize(&large).expect("lexes"));
    assert!((100..200).contains(&small_lexemes.len()), "{} tokens", small_lexemes.len());
    assert!((4_000..5_000).contains(&large_lexemes.len()), "{} tokens", large_lexemes.len());
    assert_eq!(small_count, large_count, "Lexer::tokenize");
    assert!(small_count <= 2, "one text copy and one vector, not {small_count}");
    for lexemes in [&small_lexemes, &large_lexemes] {
        assert!(lexemes.capacity() <= 2 * lexemes.len(), "source text fills half its vector");
    }

    // Sparse text (blank runs several times longer than its tokens) leaves
    // most of the reservation unused: one trim returns it.
    let sparse: String = small.split_whitespace().collect::<Vec<_>>().join("          ");
    let (sparse_lexemes, sparse_count) = allocations(|| lexer.tokenize(&sparse).expect("lexes"));
    let kinds_and_texts = |ls: &[pwd_lex::Lexeme]| {
        ls.iter().map(|l| (l.kind.clone(), l.text.clone())).collect::<Vec<_>>()
    };
    assert_eq!(
        kinds_and_texts(&sparse_lexemes),
        kinds_and_texts(&small_lexemes),
        "blanks do not change the tokens"
    );
    assert!(sparse_count <= 3, "one text copy, one vector and its trim, not {sparse_count}");
    assert_eq!(sparse_lexemes.capacity(), sparse_lexemes.len(), "trimmed to its length");

    let small_buf = SourceBuffer::new(&lexer, &small).expect("lexes");
    let large_buf = SourceBuffer::new(&lexer, &large).expect("lexes");
    let (from_small_buf, small_count) = allocations(|| small_buf.lexemes());
    let (from_large_buf, large_count) = allocations(|| large_buf.lexemes());
    assert_eq!(from_small_buf, small_lexemes);
    assert_eq!(from_large_buf, large_lexemes);
    assert_eq!(small_count, large_count, "SourceBuffer::lexemes");
    assert!(small_count <= 2, "one text copy and one vector, not {small_count}");
    let (_, one) = allocations(|| large_buf.lexeme(large_buf.token_count() / 2));
    assert_eq!(one, 1, "SourceBuffer::lexeme copies one token's text");
}

#[test]
fn python_tokenize_allocates_independently_of_length() {
    // The first call builds the shared scanner.
    tokenize_python("x = 1\n").expect("lexes");
    let small = gen::python_source(100, 21);
    let large = gen::python_source(4_000, 22);
    let (small_lexemes, small_count) = allocations(|| tokenize_python(&small).expect("lexes"));
    let (large_lexemes, large_count) = allocations(|| tokenize_python(&large).expect("lexes"));
    assert!(small_lexemes.len() < 200 && large_lexemes.len() >= 4_000);
    for kind in ["NEWLINE", "INDENT", "DEDENT", "ENDMARKER", "def"] {
        assert!(large_lexemes.iter().any(|l| l.kind == kind), "no {kind} token");
    }
    assert_eq!(small_count, large_count, "tokenize_python");
    for lexemes in [&small_lexemes, &large_lexemes] {
        assert!(lexemes.capacity() <= 2 * lexemes.len(), "source text fills half its vector");
    }
}

#[test]
fn a_blank_megabyte_reserves_a_bounded_vector() {
    // One lexeme per two bytes would be 36 MB; the reservation stops at
    // 65,536 lexemes, and the text copy (1 MiB) is smaller still.
    let bound = 65_536 * std::mem::size_of::<pwd_lex::Lexeme>();
    let blank = " ".repeat(1 << 20);
    tokenize_python("x = 1\n").expect("lexes");
    let lexer = pl0::lexer();
    let (lexemes, largest) = largest_request(|| lexer.tokenize(&blank).expect("lexes"));
    assert!(lexemes.is_empty());
    assert!(largest <= bound, "Lexer::tokenize asked for {largest} bytes at once");
    let (_, largest) = largest_request(|| tokenize_python(&blank).expect("lexes"));
    assert!(largest <= bound, "tokenize_python asked for {largest} bytes at once");
}
