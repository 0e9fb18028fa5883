//! The independent backend every answer is checked against: GLR
//! (`backend_by_name("glr")`), an SLR parser over a graph-structured stack
//! that shares no engine code with the PWD backends under test.

use derp::api::{backend_by_name, BackendError, ForestSummary, Parser, Session};
use derp::grammar::Cfg;
use derp::lex::Lexeme;

/// A GLR backend compiled for one grammar, plus the mismatches it found.
pub struct Oracle {
    glr: Box<dyn Parser>,
    mismatches: Vec<String>,
}

impl Oracle {
    /// Compiles the oracle for `cfg`.
    pub fn new(cfg: &Cfg) -> Oracle {
        Oracle {
            glr: backend_by_name("glr", cfg).expect("glr is a roster backend"),
            mismatches: Vec::new(),
        }
    }

    /// Checks a verdict on `lexemes`.
    pub fn check_verdict(
        &mut self,
        what: impl FnOnce() -> String,
        lexemes: &[Lexeme],
        verdict: bool,
    ) {
        match self.glr.recognize_lexemes(lexemes) {
            Ok(expected) if expected == verdict => {}
            Ok(expected) => {
                self.mismatch(format!("{}: verdict {verdict}, GLR says {expected}", what()))
            }
            Err(e) => self.mismatch(format!("{}: GLR failed: {e}", what())),
        }
    }

    /// Checks a forest's exact count and canonical fingerprint.
    pub fn check_forest(
        &mut self,
        what: impl FnOnce() -> String,
        lexemes: &[Lexeme],
        got: &ForestSummary,
    ) {
        match self.forest(lexemes) {
            Ok(want) if want.count == got.count && want.fingerprint == got.fingerprint => {}
            Ok(want) => self.mismatch(format!(
                "{}: count {:?} fingerprint {:016x}, GLR says {:?} {:016x}",
                what(),
                got.count,
                got.fingerprint,
                want.count,
                want.fingerprint
            )),
            Err(e) => self.mismatch(format!("{}: GLR failed: {e}", what())),
        }
    }

    /// GLR's verdict on `lexemes`.
    pub fn verdict(&mut self, lexemes: &[Lexeme]) -> Result<bool, BackendError> {
        self.glr.recognize_lexemes(lexemes)
    }

    /// GLR's forest summary of `lexemes`.
    pub fn forest(&mut self, lexemes: &[Lexeme]) -> Result<ForestSummary, BackendError> {
        let mut session = Session::open(self.glr.as_mut())?;
        session.feed_lexemes(lexemes)?;
        Ok(session.finish_forest()?.summary())
    }

    /// Records a wrong answer found without the oracle's help.
    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    /// Records wrong answers found elsewhere.
    pub fn mismatches_from(&mut self, found: Vec<String>) {
        self.mismatches.extend(found);
    }

    /// Every wrong answer found so far.
    pub fn mismatches(&self) -> &[String] {
        &self.mismatches
    }
}
