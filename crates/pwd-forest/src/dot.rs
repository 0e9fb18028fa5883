//! Graphviz export of forest graphs.

use crate::forest::{Forest, ForestId, ForestNode};
use std::fmt::Write as _;

impl Forest {
    /// Renders the forest reachable from `root` in Graphviz DOT format
    /// (`dot -Tsvg` ready). Ambiguity nodes draw as double circles, leaves
    /// as boxes, reductions as diamonds — the visual grammar of the paper's
    /// forest figures, and the quickest way to *see* where an input's
    /// ambiguity lives.
    pub fn to_dot(&self, root: ForestId) -> String {
        let mut out = String::from("digraph forest {\n  rankdir=TB;\n");
        let mut seen = vec![false; self.len()];
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id.index()], true) {
                continue;
            }
            let (label, shape, children): (String, &str, Vec<ForestId>) = match self.get(id) {
                ForestNode::Empty => ("·".into(), "plaintext", vec![]),
                ForestNode::Cycle => ("…".into(), "plaintext", vec![]),
                ForestNode::Eps => ("ε".into(), "plaintext", vec![]),
                ForestNode::Leaf(l) => (format!("{:?}", l.text.as_ref()), "box", vec![]),
                ForestNode::Const(t) => (format!("{t}"), "box", vec![]),
                ForestNode::Pair(a, b) => ("•".into(), "circle", vec![*a, *b]),
                ForestNode::Amb(alts) => ("amb".into(), "doublecircle", alts.clone()),
                ForestNode::Map(f, x) => {
                    (format!("↪ {:?}", self.reduction(*f)), "diamond", vec![*x])
                }
            };
            let _ = writeln!(
                out,
                "  f{} [shape={shape} label=\"{}\"];",
                id.index(),
                label.replace('\\', "\\\\").replace('"', "\\\"")
            );
            for c in children {
                let _ = writeln!(out, "  f{} -> f{};", id.index(), c.index());
                stack.push(c);
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_is_wellformed_and_marks_ambiguity() {
        let mut fs = Forest::hash_consed();
        let a = fs.leaf("a", "a");
        let b = fs.leaf("b", "b");
        let p = fs.pair(a, b);
        let amb = fs.amb(vec![p, a]);
        let dot = fs.to_dot(amb);
        assert!(dot.starts_with("digraph forest {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("doublecircle"), "{dot}");
        assert!(dot.contains("\\\"a\\\""), "escaped leaf text present: {dot}");
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }
}
