//! Nullability (`δ(L)` / `nullable?`) as a least fixed point (§2.4, §4.2).
//!
//! Three strategies are implemented behind
//! [`NullStrategy`](crate::NullStrategy):
//!
//! * **Naive** — Might et al. (2011): re-traverse everything reachable until
//!   a traversal changes nothing. Quadratic per query.
//! * **Worklist** — Kildall-style: record which parents depend on which
//!   children; when a node is discovered nullable, revisit only its
//!   dependents. Still must re-run over assumed-not-nullable nodes on the
//!   next query.
//! * **Labeled** — the paper's algorithm: Worklist *plus* the observation
//!   that when a fixed-point run completes, every node it examined that is
//!   still assumed-not-nullable is in fact **definitely** not nullable,
//!   because everything it depends on is at a fixed point (§4.2). Each run
//!   gets a fresh label; nodes visited under an older label short-circuit.
//!
//! In all strategies `true` is final the moment it is discovered (the
//! lattice is monotone), and constant nodes (`∅`, `ε`, tokens) are definite
//! from birth.
//!
//! All lattice values live in epoch-stamped node fields and the dependency
//! lists live in one pooled arena ([`Language::dep_pool`]). A node's list
//! is valid while its visit label is the current run's, and a run's first
//! visit starts it afresh: a [`Language::reset`] (epoch bump) or a new
//! fixed-point run invalidates every list without any clearing sweep.
//! Dependencies recorded by an *earlier* run are deliberately dropped —
//! under `Worklist` nothing is definite so parents recompute on their next
//! query anyway, and under `Labeled` a completed run has promoted everything
//! it examined, so a cross-run wake-up can never fire. The run's queue and
//! visit list are pooled too ([`RunLists`]), so a run allocates nothing once
//! they have grown to the largest run seen.

use crate::config::NullStrategy;
use crate::expr::{DepEntry, ExprKind, Language, NodeId, NO_LINK};

/// The nullability fixed point's buffers. They live on [`Language`], empty
/// between runs but keeping their capacity.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunLists {
    /// Nodes just discovered nullable whose dependents are still to wake.
    queue: Vec<NodeId>,
    /// Nodes the run examined (promoted to definite under `Labeled`).
    visited: Vec<NodeId>,
}

impl Language {
    /// Is the language of `id` nullable (does it accept the empty word)?
    ///
    /// This is the engine's `nullable?`; every invocation (including
    /// recursive ones) increments
    /// [`Metrics::nullable_calls`](crate::Metrics::nullable_calls), which is
    /// exactly the quantity Figure 7 of the paper plots.
    pub fn nullable(&mut self, id: NodeId) -> bool {
        match self.config.nullability {
            NullStrategy::Naive => self.nullable_naive(id),
            NullStrategy::Worklist => self.nullable_fix(id, false),
            NullStrategy::Labeled => self.nullable_fix(id, true),
        }
    }

    /// Resolved current lattice value without recomputation.
    fn val(&self, id: NodeId) -> bool {
        self.null_state(self.resolve(id)).0
    }

    // ------------------------------------------------------------------
    // Naive strategy
    // ------------------------------------------------------------------

    fn nullable_naive(&mut self, id: NodeId) -> bool {
        let id = self.resolve(id);
        self.metrics.nullable_calls += 1;
        let (value, definite) = self.null_state(id);
        if definite {
            return value;
        }
        self.metrics.nullable_runs += 1;
        let span = self.obs_start();
        loop {
            self.run_label += 1;
            let mut changed = false;
            self.naive_visit(id, &mut changed);
            if !changed {
                break;
            }
        }
        self.obs_end(pwd_obs::Phase::Nullable, span);
        self.null_state(id).0
    }

    fn naive_visit(&mut self, id: NodeId, changed: &mut bool) -> bool {
        self.metrics.nullable_calls += 1;
        let id = self.resolve(id);
        let run = self.run_label;
        {
            let n = self.parse_state_mut(id);
            if n.null_definite {
                return n.null_value;
            }
            if n.null_visited_run == run {
                return n.null_value;
            }
            n.null_visited_run = run;
        }
        let v = match self.node(id).kind {
            ExprKind::Empty | ExprKind::Term(_) | ExprKind::Pending | ExprKind::Forward => false,
            ExprKind::Eps(_) => true,
            ExprKind::Alt(a, b) => {
                // Evaluate both sides: the naive algorithm traverses the
                // whole reachable subgraph on every pass.
                let va = self.naive_visit(a, changed);
                let vb = self.naive_visit(b, changed);
                va || vb
            }
            ExprKind::Cat(a, b) => {
                let va = self.naive_visit(a, changed);
                let vb = self.naive_visit(b, changed);
                va && vb
            }
            ExprKind::Red(x, _) | ExprKind::Delta(x) => self.naive_visit(x, changed),
            ExprKind::Ref(_) => unreachable!("resolved"),
        };
        if v && !self.null_state(id).0 {
            let n = self.parse_state_mut(id);
            n.null_value = true;
            n.null_definite = true; // monotone: true is final
            *changed = true;
        }
        self.null_state(id).0
    }

    // ------------------------------------------------------------------
    // Worklist / Labeled strategies
    // ------------------------------------------------------------------

    fn nullable_fix(&mut self, id: NodeId, promote: bool) -> bool {
        let id = self.resolve(id);
        self.metrics.nullable_calls += 1;
        let (value, definite) = self.null_state(id);
        if definite {
            return value;
        }
        self.metrics.nullable_runs += 1;
        let span = self.obs_start();
        self.run_label += 1;
        let RunLists { mut queue, mut visited } = std::mem::take(&mut self.null_lists);
        self.fix_visit(id, &mut queue, &mut visited);
        // Propagate discovered-nullable facts along recorded dependencies.
        while let Some(n) = queue.pop() {
            let mut cur = self.take_deps(n);
            while cur != NO_LINK {
                let entry = self.dep_pool[cur as usize];
                self.fix_recompute(entry.parent, &mut queue);
                cur = entry.next;
            }
        }
        if promote {
            // §4.2: the run is complete, so everything it examined is at a
            // fixed point; assumed-not-nullable becomes definitely-not.
            for &v in &visited {
                self.parse_state_mut(v).null_definite = true;
            }
        }
        visited.clear();
        self.null_lists = RunLists { queue, visited };
        self.obs_end(pwd_obs::Phase::Nullable, span);
        self.null_state(id).0
    }

    fn fix_visit(
        &mut self,
        id: NodeId,
        queue: &mut Vec<NodeId>,
        visited: &mut Vec<NodeId>,
    ) -> bool {
        self.metrics.nullable_calls += 1;
        let id = self.resolve(id);
        let run = self.run_label;
        {
            let n = self.parse_state_mut(id);
            if n.null_definite {
                return n.null_value;
            }
            if n.null_visited_run == run {
                // Already seen this run (possibly still on the DFS stack):
                // use the current assumption.
                return n.null_value;
            }
            n.null_visited_run = run;
            n.deps_head = NO_LINK; // a list from an earlier run is abandoned
        }
        visited.push(id);
        let v = match self.node(id).kind {
            ExprKind::Empty | ExprKind::Term(_) => false,
            ExprKind::Eps(_) => true,
            ExprKind::Pending | ExprKind::Forward => {
                debug_assert!(
                    false,
                    "nullability queried on an unpatched node; parse() should prevent this"
                );
                false
            }
            ExprKind::Alt(a, b) => {
                let va = self.fix_child(id, a, queue, visited);
                if va {
                    true
                } else {
                    self.fix_child(id, b, queue, visited)
                }
            }
            ExprKind::Cat(a, b) => {
                let va = self.fix_child(id, a, queue, visited);
                if va {
                    self.fix_child(id, b, queue, visited)
                } else {
                    false
                }
            }
            ExprKind::Red(x, _) | ExprKind::Delta(x) => self.fix_child(id, x, queue, visited),
            ExprKind::Ref(_) => unreachable!("resolved"),
        };
        if v {
            self.set_nullable(id, queue);
        }
        self.null_state(id).0
    }

    /// Visits a child and subscribes `parent` to it when the child's value
    /// is still an assumption that might change.
    fn fix_child(
        &mut self,
        parent: NodeId,
        child: NodeId,
        queue: &mut Vec<NodeId>,
        visited: &mut Vec<NodeId>,
    ) -> bool {
        let v = self.fix_visit(child, queue, visited);
        let c = self.resolve(child);
        if !v && !self.null_state(c).1 {
            self.push_dep(c, parent);
        }
        v
    }

    /// Records `parent` in `child`'s dependency list for the current run.
    /// Only a child this run has visited (and left non-definite) gets one,
    /// so its list was started afresh by that visit.
    fn push_dep(&mut self, child: NodeId, parent: NodeId) {
        let run = self.run_label;
        let n = self.parse_state_mut(child);
        debug_assert_eq!(n.null_visited_run, run, "dependency on an unvisited node");
        let head = n.deps_head;
        // Cheap de-duplication of immediate re-subscription.
        if head != NO_LINK && self.dep_pool[head as usize].parent == parent {
            return;
        }
        let idx = self.dep_pool.len() as u32;
        self.dep_pool.push(DepEntry { parent, next: head });
        self.parse_state_mut(child).deps_head = idx;
    }

    /// Detaches and returns the head of `id`'s current-run dependency list
    /// (`NO_LINK` if it has none or the list is from an earlier run).
    fn take_deps(&mut self, id: NodeId) -> u32 {
        let run = self.run_label;
        let n = self.parse_state_mut(id);
        if n.null_visited_run != run {
            return NO_LINK;
        }
        std::mem::replace(&mut n.deps_head, NO_LINK)
    }

    fn set_nullable(&mut self, id: NodeId, queue: &mut Vec<NodeId>) {
        let n = self.parse_state_mut(id);
        if !n.null_value {
            n.null_value = true;
            n.null_definite = true;
            queue.push(id);
        }
    }

    /// Recomputes a node from its children's current values after one of
    /// them became nullable.
    fn fix_recompute(&mut self, id: NodeId, queue: &mut Vec<NodeId>) {
        self.metrics.nullable_calls += 1;
        let id = self.resolve(id);
        if self.null_state(id).0 {
            return;
        }
        let v = match self.node(id).kind {
            ExprKind::Alt(a, b) => self.val(a) || self.val(b),
            ExprKind::Cat(a, b) => self.val(a) && self.val(b),
            ExprKind::Red(x, _) | ExprKind::Delta(x) => self.val(x),
            _ => return,
        };
        if v {
            self.set_nullable(id, queue);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CompactionMode, ParserConfig};

    fn with_strategy(s: NullStrategy) -> Language {
        Language::new(ParserConfig {
            nullability: s,
            compaction: CompactionMode::None,
            ..ParserConfig::improved()
        })
    }

    fn strategies() -> [NullStrategy; 3] {
        [NullStrategy::Naive, NullStrategy::Worklist, NullStrategy::Labeled]
    }

    #[test]
    fn constants() {
        for s in strategies() {
            let mut lang = with_strategy(s);
            let e = lang.empty_node();
            let eps = lang.eps_node();
            let a = lang.terminal("a");
            let ta = lang.term_node(a);
            assert!(!lang.nullable(e), "{s:?}: ∅ not nullable");
            assert!(lang.nullable(eps), "{s:?}: ε nullable");
            assert!(!lang.nullable(ta), "{s:?}: token not nullable");
        }
    }

    #[test]
    fn alt_and_cat() {
        for s in strategies() {
            let mut lang = with_strategy(s);
            let a = lang.terminal("a");
            let ta = lang.term_node(a);
            let eps = lang.eps_node();
            let u = lang.alt(ta, eps);
            let k1 = lang.cat(ta, eps);
            let k2 = lang.cat(eps, eps);
            assert!(lang.nullable(u), "{s:?}: a ∪ ε nullable");
            assert!(!lang.nullable(k1), "{s:?}: a ◦ ε not nullable");
            assert!(lang.nullable(k2), "{s:?}: ε ◦ ε nullable");
        }
    }

    /// The cyclic grammar `L = (L ◦ c) ∪ c` is not nullable; `S = ε ∪ (c ◦ S)`
    /// is. Both require the fixed point to handle cycles.
    #[test]
    fn cyclic_grammars() {
        for s in strategies() {
            let mut lang = with_strategy(s);
            let c = lang.terminal("c");
            let tc = lang.term_node(c);

            let l = lang.forward();
            let lc = lang.cat(l, tc);
            let lbody = lang.alt(lc, tc);
            lang.define(l, lbody);
            assert!(!lang.nullable(l), "{s:?}: left-recursive L not nullable");

            let st = lang.forward();
            let cs = lang.cat(tc, st);
            let eps = lang.eps_node();
            let sbody = lang.alt(eps, cs);
            lang.define(st, sbody);
            assert!(lang.nullable(st), "{s:?}: ε ∪ (c ◦ S) nullable");
        }
    }

    /// A nullability fact that needs propagation *through* a cycle:
    /// `A = B, B = ε ∪ (A ◦ A)` — A nullable via B.
    #[test]
    fn mutual_recursion() {
        for s in strategies() {
            let mut lang = with_strategy(s);
            let a = lang.forward();
            let b = lang.forward();
            lang.define(a, b);
            let aa = lang.cat(a, a);
            let eps = lang.eps_node();
            let bbody = lang.alt(eps, aa);
            lang.define(b, bbody);
            assert!(lang.nullable(a), "{s:?}");
            assert!(lang.nullable(b), "{s:?}");
        }
    }

    /// The three strategies must agree on randomized grammar graphs.
    #[test]
    fn strategies_agree_on_random_graphs() {
        // Deterministic pseudo-random graph built from a simple LCG so the
        // test needs no external crates here.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        for _case in 0..50 {
            let n_nodes = 3 + (rng() % 20) as usize;
            let mut answers: Vec<Vec<bool>> = Vec::new();
            for s in strategies() {
                let mut lang = with_strategy(s);
                let t = lang.terminal("t");
                let tt = lang.term_node(t);
                let eps = lang.eps_node();
                let fwds: Vec<_> = (0..n_nodes).map(|_| lang.forward()).collect();
                // Rebuild the same structure for each strategy by replaying
                // the same RNG stream: stash choices first.
                let choices: Vec<(u32, usize, usize)> = {
                    // Derive choices deterministically from the case index
                    // and node index, not the shared RNG, so all three
                    // strategies see identical graphs.
                    (0..n_nodes)
                        .map(|i| {
                            let h = (_case as u64 * 31 + i as u64).wrapping_mul(0x2545F4914F6CDD1D);
                            (
                                (h >> 60) as u32 % 4,
                                (h as usize >> 8) % n_nodes,
                                (h as usize >> 24) % n_nodes,
                            )
                        })
                        .collect()
                };
                for (i, &(kind, x, y)) in choices.iter().enumerate() {
                    let body = match kind {
                        0 => lang.alt(fwds[x], fwds[y]),
                        1 => lang.cat(fwds[x], fwds[y]),
                        2 => lang.alt(tt, fwds[x]),
                        _ => {
                            let c = lang.cat(tt, fwds[x]);
                            lang.alt(eps, c)
                        }
                    };
                    lang.define(fwds[i], body);
                }
                answers.push(fwds.iter().map(|&f| lang.nullable(f)).collect());
            }
            assert_eq!(answers[0], answers[1], "naive vs worklist");
            assert_eq!(answers[1], answers[2], "worklist vs labeled");
        }
        let _ = rng();
    }

    /// Labeled strategy: the second query over the same region must be O(1)
    /// (far fewer calls), because assumed-not was promoted to definite.
    #[test]
    fn labeled_promotes_assumed_not_nullable() {
        let mut lang = with_strategy(NullStrategy::Labeled);
        let c = lang.terminal("c");
        let tc = lang.term_node(c);
        let l = lang.forward();
        let lc = lang.cat(l, tc);
        let body = lang.alt(lc, tc);
        lang.define(l, body);

        assert!(!lang.nullable(l));
        let after_first = lang.metrics().nullable_calls;
        assert!(!lang.nullable(l));
        let after_second = lang.metrics().nullable_calls;
        assert_eq!(after_second - after_first, 1, "promoted node answers in one call");
    }

    /// Worklist strategy re-runs the fixed point over still-assumed nodes.
    #[test]
    fn worklist_does_not_promote() {
        let mut lang = with_strategy(NullStrategy::Worklist);
        let c = lang.terminal("c");
        let tc = lang.term_node(c);
        let l = lang.forward();
        let lc = lang.cat(l, tc);
        let body = lang.alt(lc, tc);
        lang.define(l, body);

        assert!(!lang.nullable(l));
        let after_first = lang.metrics().nullable_calls;
        assert!(!lang.nullable(l));
        let after_second = lang.metrics().nullable_calls;
        assert!(after_second - after_first > 1, "worklist must revisit assumed-not-nullable nodes");
    }

    #[test]
    fn naive_costs_more_calls_than_labeled() {
        let build = |lang: &mut Language| {
            let c = lang.terminal("c");
            let tc = lang.term_node(c);
            let l = lang.forward();
            let lc = lang.cat(l, tc);
            let body = lang.alt(lc, tc);
            lang.define(l, body);
            l
        };
        let mut naive = with_strategy(NullStrategy::Naive);
        let l1 = build(&mut naive);
        let mut labeled = with_strategy(NullStrategy::Labeled);
        let l2 = build(&mut labeled);
        for _ in 0..10 {
            assert!(!naive.nullable(l1));
            assert!(!labeled.nullable(l2));
        }
        assert!(
            naive.metrics().nullable_calls > labeled.metrics().nullable_calls,
            "naive {} vs labeled {}",
            naive.metrics().nullable_calls,
            labeled.metrics().nullable_calls
        );
    }

    /// After an epoch reset, promoted lattice values must be forgotten: the
    /// same query re-runs the fixed point and answers identically.
    #[test]
    fn epoch_reset_forgets_promotions() {
        let mut lang = with_strategy(NullStrategy::Labeled);
        let c = lang.terminal("c");
        let tc = lang.term_node(c);
        let l = lang.forward();
        let lc = lang.cat(l, tc);
        let body = lang.alt(lc, tc);
        lang.define(l, body);

        let tok = lang.token(c, "c");
        assert!(lang.recognize(l, std::slice::from_ref(&tok)).unwrap());
        let epoch_before = lang.epoch();
        lang.reset();
        assert_eq!(lang.epoch(), epoch_before + 1);
        // The promoted "L not nullable" fact must have been invalidated, so
        // this query starts a fresh run (and still answers false).
        assert!(!lang.nullable(l));
        assert!(lang.metrics().nullable_runs > 0, "reset must force a fresh run");
    }
}
