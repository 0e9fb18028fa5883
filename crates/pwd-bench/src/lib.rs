//! Shared infrastructure for the figure-regenerating benchmark binaries and
//! the gate runner.
//!
//! Every table and figure of the paper's evaluation (§4) has a binary in
//! `src/bin/` that prints (a) CSV rows `x,series,value` for plotting and
//! (b) a human-readable summary juxtaposing the paper's headline number
//! with the measured one. The workspace's performance gates are rows of one
//! runner, `benches/gates.rs`, measured and printed through [`gate`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;

use pwd_core::ParserConfig;
use pwd_grammar::{gen, grammars, Cfg, Compiled};
use pwd_lex::Lexeme;
use std::time::{Duration, Instant};

/// A corpus entry: target size, exact token count, and the lexeme stream.
#[derive(Debug, Clone)]
pub struct CorpusFile {
    /// The generator's target token count.
    pub target: usize,
    /// Exact number of tokens after tokenization.
    pub tokens: usize,
    /// The token stream.
    pub lexemes: Vec<Lexeme>,
}

/// Generates the synthetic Python corpus (the stand-in for the Python
/// Standard Library files of §4.1) at the given target sizes.
pub fn python_corpus(targets: &[usize]) -> Vec<CorpusFile> {
    targets
        .iter()
        .enumerate()
        .map(|(i, &target)| {
            let src = gen::python_source(target, 0xC0FFEE + i as u64);
            let lexemes = pwd_lex::tokenize_python(&src).expect("generated corpus tokenizes");
            CorpusFile { target, tokens: lexemes.len(), lexemes }
        })
        .collect()
}

/// The default size ladder (paper inputs go up to 26,125 tokens).
pub fn default_sizes(full: bool) -> Vec<usize> {
    if full {
        vec![100, 300, 1000, 3000, 8000, 16000, 26000]
    } else {
        vec![100, 300, 1000, 3000]
    }
}

/// Parses `--full` from argv.
pub fn full_flag() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// The Python-subset grammar shared by all figures.
pub fn python_cfg() -> Cfg {
    grammars::python::cfg()
}

/// Compiles a fresh PWD parser for the Python grammar.
pub fn python_pwd(config: ParserConfig) -> Compiled {
    Compiled::compile(&python_cfg(), config)
}

/// Times one closure invocation.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed(), r)
}

/// Times `f` repeatedly (at least `min_rounds` rounds and at least
/// `min_total`), returning the mean duration per round. Mirrors the paper's
/// protocol of repeating each parse until ≥1 s to avoid clock quantization.
pub fn time_mean(min_rounds: usize, min_total: Duration, mut f: impl FnMut()) -> Duration {
    let mut rounds = 0usize;
    let t0 = Instant::now();
    while rounds < min_rounds || t0.elapsed() < min_total {
        f();
        rounds += 1;
        if rounds > 1_000_000 {
            break;
        }
    }
    t0.elapsed() / rounds as u32
}

/// Prints a CSV header once.
pub fn csv_header() {
    println!("x,series,value");
}

/// Prints one CSV row.
pub fn csv_row(x: impl std::fmt::Display, series: &str, value: impl std::fmt::Display) {
    println!("{x},{series},{value}");
}

/// Geometric mean of a ratio series.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Least-squares slope of `log2(y)` against `log2(x)` — the empirical
/// complexity exponent for the cubic-bound checks.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.log2(), y.log2());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_generation() {
        let corpus = python_corpus(&[100, 200]);
        assert_eq!(corpus.len(), 2);
        assert!(corpus[0].tokens >= 90);
        assert!(corpus[1].tokens > corpus[0].tokens);
    }

    #[test]
    fn geomean_of_constant() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn loglog_slope_of_cubic() {
        let pts: Vec<(f64, f64)> = (1..6)
            .map(|i| {
                let x = (1 << i) as f64;
                (x, x * x * x)
            })
            .collect();
        let s = loglog_slope(&pts);
        assert!((s - 3.0).abs() < 1e-9, "slope {s}");
    }

    #[test]
    fn time_mean_runs_min_rounds() {
        let mut count = 0;
        let _ = time_mean(5, Duration::from_millis(0), || count += 1);
        assert!(count >= 5);
    }
}
