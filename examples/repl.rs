//! Feed-as-you-type over the session API: tokens arrive one keystroke at a
//! time, a checkpoint is taken before each, and a backspace rolls back to
//! the previous checkpoint instead of re-parsing the line.
//!
//! This is the editor/REPL shape the streaming pipeline exists for: the
//! parser state after `k` tokens is the derivative `D_{t1…tk}(L)` — a
//! first-class value — so "undo the last token" is a pointer restore, not a
//! re-parse, and "is the line complete?" is a nullability query on the
//! current state.
//!
//! When a keystroke kills the line, the REPL does what an editor would:
//! it runs a recovery-enabled side parse over the current line and renders
//! the resulting [`derp::Diagnostic`]s live, carets and all, while the main
//! session stays checkpointed at the last good state.
//!
//! Mid-line edits use the incremental splice path instead of retyping:
//! `<splice:AT:REMOVE:TEXT>` replaces `REMOVE` tokens at position `AT` with
//! the tokens of `TEXT` (lexed without spaces), and the session re-derives
//! only from the nearest checkpoint-ladder rung below the damage.
//!
//! Run with:
//! `cargo run --example repl -- "1 + ( 2 * 3 <del> <del> + 4 ) * 5 <splice:3:3:6*7>"`
//! (tokens separated by spaces; `<del>` is a backspace)

use derp::api::{Checkpoint, Parser, PwdBackend, Session};
use derp::grammar::grammars;
use derp::RecoveryBudget;

/// Live diagnosis of a malformed line: a fresh recovery session repairs the
/// line within the default budget and the repairs are rendered as
/// rustc-style diagnostics against the line's source text.
fn diagnose_line(lexer: &derp::lex::Lexer, src: &str) {
    let mut backend = PwdBackend::improved(&grammars::arith::cfg());
    let mut session = match Session::open(&mut backend as &mut dyn Parser) {
        Ok(s) => s,
        Err(e) => {
            println!("  (diagnosis unavailable: {e})");
            return;
        }
    };
    session.enable_recovery(RecoveryBudget::default());
    let mut source = lexer.source(src);
    let diags = session
        .feed_source(&mut source)
        .and_then(|_| session.finish_with_diagnostics())
        .map(|(_, diags)| diags);
    match diags {
        Ok(diags) => {
            for d in &diags {
                for line in d.render(src).lines() {
                    println!("    {line}");
                }
            }
        }
        Err(e) => println!("  (diagnosis failed: {e})"),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let script = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "1 + ( 2 * 3 <del> <del> + 4 ) * 5 <splice:3:3:6*7>".to_string());
    let lexer = grammars::arith::lexer();

    let mut backend = PwdBackend::improved(&grammars::arith::cfg());
    let mut session = Session::open(&mut backend as &mut dyn Parser)?;
    // Arm the edit-splicing machinery (checkpoint ladder + refeed
    // bookkeeping) so `<splice:...>` commands re-derive only the damage.
    session.enable_incremental()?;
    // Collect per-phase latency histograms for the end-of-run snapshot
    // (compiled out entirely under `--no-default-features`).
    session.set_obs(true);
    // One checkpoint per committed token: undo_stack[k] restores the state
    // *before* token k+1 was fed.
    let mut undo_stack: Vec<Checkpoint> = Vec::new();
    let mut line: Vec<String> = Vec::new();

    println!("{:<10} {:<22} {:<10} {:<10}", "keystroke", "line", "viable?", "complete?");
    for key in script.split_whitespace() {
        if key == "<del>" {
            let Some(cp) = undo_stack.pop() else {
                println!("{key:<10} (nothing to delete)");
                continue;
            };
            session.rollback(&cp)?;
            line.pop();
        } else if let Some(spec) = key.strip_prefix("<splice:").and_then(|s| s.strip_suffix('>')) {
            let mut parts = spec.splitn(3, ':');
            let parsed = match (parts.next(), parts.next(), parts.next()) {
                (Some(at), Some(remove), Some(text)) => at
                    .parse::<usize>()
                    .ok()
                    .zip(remove.parse::<usize>().ok())
                    .map(|(at, remove)| (at, remove, text)),
                _ => None,
            };
            let Some((at, remove, text)) = parsed else {
                println!("{key:<10} (malformed splice; want <splice:AT:REMOVE:TEXT>)");
                continue;
            };
            let lexemes = lexer.tokenize(text)?;
            let pairs: Vec<(&str, &str)> =
                lexemes.iter().map(|l| (l.kind.as_str(), l.text.as_str())).collect();
            match session.splice_tokens(at, remove, &pairs) {
                Ok(out) => {
                    // Same timeline rule as rollback: undo checkpoints above
                    // the restored rung no longer exist.
                    while undo_stack.last().is_some_and(|cp| cp.tokens_fed() > out.rung) {
                        undo_stack.pop();
                    }
                    line.splice(at..at + remove, lexemes.iter().map(|l| l.text.to_string()));
                    let converged =
                        out.converged_at.map_or(String::new(), |k| format!(", converged at {k}"));
                    println!(
                        "{key:<10} spliced: rung {}, refed {}, reused {}{converged}",
                        out.rung, out.refed, out.reused,
                    );
                }
                Err(e) => {
                    println!("{key:<10} (splice failed: {e})");
                    continue;
                }
            }
        } else {
            // Each keystroke is lexed in isolation (single-token REPL
            // grammar) and fed through the session.
            let lexemes = lexer.tokenize(key)?;
            for l in &lexemes {
                undo_stack.push(session.checkpoint()?);
                session.feed(&l.kind, &l.text)?;
                line.push(l.text.to_string());
            }
        }
        let viable = session.is_viable();
        let complete = session.prefix_is_sentence()?;
        println!(
            "{key:<10} {:<22} {:<10} {:<10}",
            line.join(""),
            if viable { "yes" } else { "no" },
            if complete { "yes" } else { "no" },
        );
        // Live diagnostics: the moment a keystroke makes the line
        // unviable, show what recovery would repair — exactly the red
        // squiggle an editor draws while you keep typing.
        if !viable {
            diagnose_line(&lexer, &line.join(""));
        }
    }

    let tokens = session.tokens_fed();
    // Snapshot the phase histograms while the session is still open — the
    // snapshot covers exactly the keystrokes fed above.
    let phases = session.metrics().phases;
    let accepted = session.finish()?;
    println!(
        "\nfinal line {:?} ({tokens} tokens after undos): {}",
        line.join(""),
        if accepted { "a complete expression" } else { "not a complete expression" }
    );
    if let Some(phases) = &phases {
        println!("\nend-of-run phase timings:");
        println!("  {:<10} {:>6} {:>12} {:>10}", "phase", "spans", "total_ns", "mean_ns");
        for (phase, h) in phases.recorded() {
            println!(
                "  {:<10} {:>6} {:>12} {:>10.0}",
                phase.as_str(),
                h.count(),
                h.sum(),
                h.mean().unwrap_or(0.0),
            );
        }
    }
    if accepted {
        match backend.parse_count(
            &lexer.tokenize(&line.join(""))?.iter().map(|l| l.kind.as_str()).collect::<Vec<_>>(),
        )? {
            derp::api::ParseCount::Finite(n) => println!("parse trees: {n}"),
            other => println!("parse trees: {other:?}"),
        }
    }
    Ok(())
}
