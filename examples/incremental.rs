//! Incremental parsing with `SessionState`: feed tokens one at a time and
//! watch the derivative evolve — viability, sentence-hood, graph size.
//!
//! Run with: `cargo run --example incremental -- "1+(2*3)+4"`

use derp::core::{ParserConfig, SessionState};
use derp::grammar::{grammars, Compiled};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let input = std::env::args().nth(1).unwrap_or_else(|| "1+(2*3)+4*".to_string());
    let lexer = grammars::arith::lexer();
    let lexemes = lexer.tokenize(&input)?;

    let mut parser = Compiled::compile(&grammars::arith::cfg(), ParserConfig::improved());
    let tokens = parser.tokens_from_lexemes(&lexemes)?;
    let lang = &mut parser.lang;

    println!("feeding {:?} token by token:\n", input);
    println!("{:<8} {:<10} {:<10} {:<12} note", "token", "viable?", "sentence?", "live nodes");
    let mut session = SessionState::start(lang, parser.start)?;
    for tok in &tokens {
        let viable = session.feed(lang, tok)?;
        let (sentence, note) = match viable {
            true if session.prefix_is_sentence(lang) => ("yes", ""),
            true => ("no", ""),
            false => ("no", "← no continuation can succeed"),
        };
        println!(
            "{:<8} {:<10} {:<10} {:<12} {}",
            tok.lexeme(),
            if viable { "yes" } else { "no" },
            sentence,
            // The live derivative stays small thanks to compaction+pruning.
            session.live_nodes(lang),
            note,
        );
        if !viable {
            break;
        }
    }
    if session.prefix_is_sentence(lang) {
        let forest = session.forest(lang)?;
        session.finish(lang);
        let trees = lang.trees_of(forest, derp::core::EnumLimits { max_trees: 1, max_depth: 4096 });
        println!("\ncomplete expression, parse tree:\n  {}", trees[0]);
    } else {
        session.finish(lang);
        println!("\nprefix is not (yet) a complete expression");
    }
    Ok(())
}
