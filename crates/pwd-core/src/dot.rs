//! Graphviz export of grammar graphs and parse forests.
//!
//! The paper's Figures 4 and 5 are drawings of grammar graphs before and
//! after derivation; this module renders the same pictures from live
//! engines (`dot -Tsvg` ready), which is invaluable when studying how
//! compaction reshapes derivatives.

use crate::expr::{ExprKind, Language, NodeId};
use pwd_forest::ForestId;
use std::fmt::Write as _;

impl Language {
    /// Renders the grammar graph reachable from `start` in Graphviz DOT
    /// format. Node labels show the expression form, any attached label,
    /// and the Definition-5 name when naming is enabled.
    ///
    /// # Examples
    ///
    /// ```
    /// use pwd_core::Language;
    /// let mut lang = Language::default();
    /// let a = lang.terminal("a");
    /// let ta = lang.term_node(a);
    /// let s = lang.star(ta);
    /// let dot = lang.to_dot(s);
    /// assert!(dot.starts_with("digraph grammar"));
    /// assert!(dot.contains("∪"));
    /// ```
    pub fn to_dot(&self, start: NodeId) -> String {
        let mut out =
            String::from("digraph grammar {\n  rankdir=TB;\n  node [fontname=\"monospace\"];\n");
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![start];
        while let Some(id) = stack.pop() {
            let id = self.resolve(id);
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            let node = self.node(id);
            let (shape, text) = match &node.kind {
                ExprKind::Empty => ("plaintext", "∅".to_string()),
                ExprKind::Eps(f) => ("plaintext", format!("ε[f{}]", f.index())),
                ExprKind::Term(t) => ("box", format!("tok {}", self.terminal_name(*t))),
                ExprKind::Alt(..) => ("circle", "∪".to_string()),
                ExprKind::Cat(..) => ("circle", "◦".to_string()),
                ExprKind::Red(_, f) => ("diamond", format!("↪ {f:?}")),
                ExprKind::Delta(_) => ("circle", "δ".to_string()),
                ExprKind::Forward => ("plaintext", "forward?".to_string()),
                ExprKind::Pending => ("plaintext", "pending…".to_string()),
                ExprKind::Ref(_) => unreachable!("resolved"),
            };
            let mut label = text;
            if let Some(l) = self.label(id) {
                label = format!("{l}: {label}");
            }
            if let Some(name) = self.node_name(id) {
                let _ = write!(label, "\\n{name}");
            }
            let _ = writeln!(
                out,
                "  n{} [shape={shape} label=\"{}\"];",
                id.index(),
                label.replace('"', "\\\"")
            );
            let mut edge = |child: NodeId, tag: &str, out: &mut String| {
                let child = self.resolve(child);
                let _ = writeln!(out, "  n{} -> n{} [label=\"{tag}\"];", id.index(), child.index());
                stack.push(child);
            };
            match &node.kind {
                ExprKind::Alt(a, b) | ExprKind::Cat(a, b) => {
                    edge(*a, "L", &mut out);
                    edge(*b, "R", &mut out);
                }
                ExprKind::Red(x, _) | ExprKind::Delta(x) => edge(*x, "", &mut out),
                _ => {}
            }
        }
        out.push_str("}\n");
        out
    }

    /// Renders a parse forest in DOT format (ambiguity nodes as double
    /// circles) — a thin delegate to the shared [`pwd_forest::Forest::to_dot`]
    /// export, so every backend's forests draw identically.
    pub fn forest_to_dot(&self, root: ForestId) -> String {
        self.forests.to_dot(root)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Language, ParserConfig};

    fn sample() -> (Language, crate::NodeId, Vec<crate::Token>) {
        let mut lang = Language::new(ParserConfig::improved());
        let c = lang.terminal("c");
        let tc = lang.term_node(c);
        let l = lang.forward();
        lang.set_label(l, "L");
        let ll = lang.cat(l, l);
        let body = lang.alt(ll, tc);
        lang.define(l, body);
        let tok = lang.token(c, "c");
        (lang, l, vec![tok; 3])
    }

    #[test]
    fn grammar_dot_is_wellformed() {
        let (lang, l, _) = sample();
        let dot = lang.to_dot(l);
        assert!(dot.starts_with("digraph grammar {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("tok c"));
        assert!(dot.matches("->").count() >= 3);
        // Balanced braces.
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }

    #[test]
    fn forest_dot_includes_ambiguity() {
        let (mut lang, l, toks) = sample();
        let forest = lang.parse_forest(l, &toks).unwrap();
        let dot = lang.forest_to_dot(forest);
        assert!(dot.starts_with("digraph forest {"));
        assert!(dot.contains("doublecircle"), "aⁿ parse of L=(L∘L)∪c is ambiguous:\n{dot}");
        assert!(dot.contains("\\\"c\\\""), "escaped leaf lexeme present:\n{dot}");
    }

    #[test]
    fn dot_with_names() {
        let mut lang = Language::new(ParserConfig::named_recognizer());
        let c = lang.terminal("c");
        let tc = lang.term_node(c);
        lang.set_label(tc, "N");
        let tok = lang.token(c, "c1");
        assert!(lang.recognize(tc, &[tok]).unwrap());
        let dot = lang.to_dot(tc);
        assert!(dot.contains("\\nN\""), "base name rendered: {dot}");
    }
}
