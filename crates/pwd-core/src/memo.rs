//! Memoization of `derive` (§4.4), plus the class-template layer that
//! shares derivatives across lexemes.
//!
//! # Entry storage: the three strategies
//!
//! * [`MemoStrategy::FullHash`](crate::MemoStrategy::FullHash) — the
//!   remember-everything semantics of Might et al. (2011)'s nested hash
//!   tables, realized here **without a hash table**: the node's inline
//!   slot, a second slot in the per-node side table `Language::memo_more`,
//!   and a pooled per-node overflow list. Figure 10's observation (nearly
//!   every node holds exactly one entry) is what makes the linear overflow
//!   scan cheap.
//! * [`MemoStrategy::SingleEntry`](crate::MemoStrategy::SingleEntry) — the
//!   paper's improvement: fields on each node acting as a one-entry cache
//!   that evicts on conflict. Forgetful (Figure 11), but avoids all hashing
//!   on the hot path (Figure 12). The inline slot is all it uses, so it
//!   never touches the side table.
//! * [`MemoStrategy::DualEntry`](crate::MemoStrategy::DualEntry) — the §4.4
//!   extension the paper tried and abandoned, its second slot in the side
//!   table; kept for the ablation benches.
//!
//! # Entry identity: value keys vs class keys
//!
//! Orthogonal to *where* entries live is *what* identifies them, the
//! [`MemoKeying`](crate::MemoKeying) axis. The paper (and
//! [`MemoKeying::ByValue`](crate::MemoKeying::ByValue)) keys entries by
//! token **value** — the interned `(kind, lexeme)` pair — not input
//! position, so a recurring token can hit an entry created earlier in the
//! input: the exact effect Figures 10–12 measure. Value keying wins on
//! inputs dominated by a small token vocabulary (punctuation, keywords,
//! repeated literals), where reuse is exact and frequent. It collapses on
//! realistic identifier-heavy programs: every fresh lexeme is a fresh key,
//! the memo never hits, and the engine re-derives the whole grammar graph
//! per token.
//!
//! [`MemoKeying::ByClass`](crate::MemoKeying::ByClass) exploits the fact
//! that a derivative depends on the lexeme only through the `ε` leaf it
//! embeds:
//!
//! * in recognize mode no leaf is ever built, so entries are keyed by
//!   [`TermId`](crate::TermId) outright and all lexemes of one terminal
//!   share one derivative — identifier-diverse inputs go from all-miss to
//!   all-hit;
//! * in parse mode entries stay value-keyed (forests embed lexemes), and
//!   each node additionally carries a **class-template slot**: the last
//!   derivative computed for `(node, TermId)` plus a *taint* bit recording
//!   whether that derivative embeds a fresh `ε` leaf. A repeat terminal
//!   with a new lexeme shares untainted derivatives verbatim and re-derives
//!   only tainted ones — so allocation is confined to the patch path from
//!   the root to the new leaves instead of the whole graph.
//!
//! Both layers are guarded by epoch stamps (the node's one stamp for its
//! memo slot, one per template entry), so [`Language::reset`] invalidates
//! every strategy's state (and all templates) with one counter bump plus
//! length stores on the pooled tables — nothing re-hashes or walks anything
//! between parses.
//!
//! # Tier three: the lazy derivative automaton
//!
//! The two memo layers above are tiers one and two of a three-tier derive
//! path. In recognize mode under class keying, derivatives are additionally
//! compiled — lazily, as recognition computes them anyway — into dense
//! per-state transition rows ([`crate::AutomatonMode`]; see the
//! `automaton` module). Where a class-keyed hit still costs a memo probe
//! per token (node resolution, epoch check, key compare), a warm automaton
//! consumes a token with one array index and answers end-of-input from a
//! cached nullability bit. Unlike the epoch-stamped tiers, automaton state
//! is a structural fact about the grammar's *language* and survives
//! `reset` — the row budget ([`crate::ParserConfig::automaton_max_rows`])
//! bounds it, with transparent fallback to the class-keyed path here when
//! the table freezes or a transition is still unexplored.

use crate::config::MemoStrategy;
use crate::expr::{ClassEntry, Language, MemoEntry, MemoMore, NodeId, TmplRow, NO_LINK};
use crate::token::{DeriveKey, TermId};

impl Language {
    /// Looks up the memoized derivative of `id` by token `key`.
    pub(crate) fn memo_get(&self, id: NodeId, key: DeriveKey) -> Option<NodeId> {
        let n = self.node(id);
        if n.epoch != self.epoch {
            return None;
        }
        if n.memo_key == key {
            return Some(n.memo_val);
        }
        if self.config.memo == MemoStrategy::SingleEntry {
            return None;
        }
        let more = self.memo_more.get(id.index())?;
        if more.key2 == key {
            return Some(more.val2);
        }
        // `over` is only ever set under `FullHash`.
        let mut cur = more.over;
        while cur != NO_LINK {
            let e = &self.memo_pool[cur as usize];
            if e.key == key {
                return Some(e.val);
            }
            cur = e.next;
        }
        None
    }

    /// The node's memo side entry, added empty if the table does not reach
    /// it yet.
    fn memo_more_mut(&mut self, id: NodeId) -> &mut MemoMore {
        let i = id.index();
        if self.memo_more.len() <= i {
            self.memo_more.resize(i + 1, MemoMore::EMPTY);
        }
        &mut self.memo_more[i]
    }

    /// Records the derivative of `id` by token `key`.
    ///
    /// The inline slot fills first and, within an epoch, is never emptied
    /// again, so an empty inline slot means the side entry is empty too.
    pub(crate) fn memo_put(&mut self, id: NodeId, key: DeriveKey, val: NodeId) {
        let strategy = self.config.memo;
        let n = self.parse_state_mut(id);
        let old = n.memo_key;
        if old == DeriveKey::NONE || old == key {
            n.memo_key = key;
            n.memo_val = val;
            return;
        }
        let evicted = match strategy {
            MemoStrategy::SingleEntry => {
                n.memo_key = key;
                n.memo_val = val;
                true
            }
            MemoStrategy::DualEntry => {
                // Demote the newest entry to the second slot, dropping the
                // oldest.
                let old_val = std::mem::replace(&mut n.memo_val, val);
                n.memo_key = key;
                let more = self.memo_more_mut(id);
                let evicted = more.key2 != DeriveKey::NONE && more.key2 != key;
                more.key2 = old;
                more.val2 = old_val;
                evicted
            }
            MemoStrategy::FullHash => {
                let more = self.memo_more_mut(id);
                if more.key2 == DeriveKey::NONE || more.key2 == key {
                    more.key2 = key;
                    more.val2 = val;
                    return;
                }
                // Update in place if present; otherwise push a new entry.
                let head = more.over;
                let mut cur = head;
                while cur != NO_LINK {
                    let e = &mut self.memo_pool[cur as usize];
                    if e.key == key {
                        e.val = val;
                        return;
                    }
                    cur = e.next;
                }
                let idx = self.memo_pool.len() as u32;
                self.memo_pool.push(MemoEntry { key, val, next: head });
                self.memo_more[id.index()].over = idx;
                false
            }
        };
        if evicted {
            self.metrics.memo_evictions += 1;
        }
    }

    /// Looks up the class template of `id` for terminal class `term`: the
    /// last derivative computed for that class and whether it embeds a
    /// lexeme (`taint`).
    ///
    /// Templates exist only on initial-grammar nodes — the nodes every
    /// token's derivation revisits. Each holds a dense per-class row indexed
    /// by `TermId` that is never evicted (this is what survives the
    /// single-entry memo's cross-class thrash). Derived nodes carry no
    /// template state at all: they are transient (most are derived at most
    /// once per class), so for them the bookkeeping costs more than the
    /// sharing recovers.
    pub(crate) fn template_get(&self, id: NodeId, term: TermId) -> Option<(NodeId, bool)> {
        let row = self.tmpl_rows.get(id.index())?;
        if row.start != NO_LINK && (term.index() as u32) < row.len {
            let e = &self.class_pool[row.start as usize + term.index()];
            if e.epoch == self.epoch {
                return Some((e.val, e.taint));
            }
        }
        None
    }

    /// The recorded taint of `id`'s class template for `term`, or
    /// conservatively `true` when no template is recorded (an unknown
    /// derivative must be assumed lexeme-dependent).
    pub(crate) fn template_taint(&self, id: NodeId, term: TermId) -> bool {
        self.template_get(id, term).is_none_or(|(_, taint)| taint)
    }

    /// Records the class template of `id` for terminal class `term`,
    /// allocating the dense per-class row on an initial-grammar node's first
    /// record; a no-op for derived nodes. (Row allocation is warm state: it
    /// survives `reset`, so a pooled session re-serving the same grammar
    /// never re-allocates.)
    pub(crate) fn template_put(&mut self, id: NodeId, term: TermId, val: NodeId, taint: bool) {
        let initial = self.initial_nodes.unwrap_or(usize::MAX);
        if id.index() >= initial {
            return;
        }
        let epoch = self.epoch;
        let terms = self.interner.term_count() as u32;
        let i = id.index();
        if self.tmpl_rows.len() <= i {
            self.tmpl_rows.resize(i + 1, TmplRow::NONE);
        }
        if self.tmpl_rows[i].start == NO_LINK && terms > 0 {
            let start = self.class_pool.len() as u32;
            self.class_pool.extend(std::iter::repeat_n(
                ClassEntry { epoch: 0, val: NodeId(0), taint: false },
                terms as usize,
            ));
            self.tmpl_rows[i] = TmplRow { start, len: terms };
        }
        let row = self.tmpl_rows[i];
        if row.start != NO_LINK && (term.index() as u32) < row.len {
            let slot = row.start as usize + term.index();
            self.class_pool[slot] = ClassEntry { epoch, val, taint };
            self.metrics.templates_recorded += 1;
        }
    }

    /// Number of memo entries node `i` currently holds (0 if its state is
    /// from an earlier epoch).
    fn memo_entries_of(&self, i: usize) -> u32 {
        let n = &self.nodes[i];
        if n.epoch != self.epoch || n.memo_key == DeriveKey::NONE {
            return 0;
        }
        let Some(more) = self.memo_more.get(i) else { return 1 };
        let mut count = 1 + u32::from(more.key2 != DeriveKey::NONE);
        let mut cur = more.over;
        while cur != NO_LINK {
            count += 1;
            cur = self.memo_pool[cur as usize].next;
        }
        count
    }

    /// Census of derive-memo entries per node (Figure 10): for every node
    /// holding at least one memo entry, how many entries it holds.
    ///
    /// Under `SingleEntry` every occupied node reports exactly 1 by
    /// construction, so the census is only informative under `FullHash`.
    pub fn memo_entry_counts(&self) -> Vec<u32> {
        (0..self.nodes.len()).map(|i| self.memo_entries_of(i)).filter(|&c| c > 0).collect()
    }

    /// Fraction of memoized nodes holding exactly one entry (the quantity
    /// Figure 10 plots), or `None` when nothing is memoized yet.
    pub fn single_entry_fraction(&self) -> Option<f64> {
        let counts = self.memo_entry_counts();
        if counts.is_empty() {
            return None;
        }
        let singles = counts.iter().filter(|&&c| c == 1).count();
        Some(singles as f64 / counts.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParserConfig;
    use crate::token::TokKey;

    /// A value-keyed [`DeriveKey`] (the tests exercise entry storage, which
    /// is keying-agnostic).
    fn key(k: u32) -> DeriveKey {
        DeriveKey::value(TokKey(k))
    }

    #[test]
    fn single_entry_evicts() {
        let mut lang = Language::new(ParserConfig::improved());
        let a = lang.terminal("a");
        let n = lang.term_node(a);
        let (k1, k2) = (key(0), key(1));
        let (v1, v2) = (NodeId(0), NodeId(1));
        lang.memo_put(n, k1, v1);
        assert_eq!(lang.memo_get(n, k1), Some(v1));
        lang.memo_put(n, k2, v2);
        assert_eq!(lang.memo_get(n, k2), Some(v2));
        assert_eq!(lang.memo_get(n, k1), None, "first entry evicted");
        assert_eq!(lang.metrics().memo_evictions, 1);
    }

    #[test]
    fn full_hash_remembers_everything() {
        let mut lang = Language::new(ParserConfig::original_2011());
        let a = lang.terminal("a");
        let n = lang.term_node(a);
        // Enough keys to overflow the inline slot and the second slot into
        // the pool.
        for k in 0..6u32 {
            lang.memo_put(n, key(k), NodeId(k));
        }
        for k in 0..6u32 {
            assert_eq!(lang.memo_get(n, key(k)), Some(NodeId(k)), "key {k}");
        }
        assert_eq!(lang.memo_get(n, key(99)), None);
        assert_eq!(lang.metrics().memo_evictions, 0);
    }

    #[test]
    fn full_hash_updates_in_place() {
        let mut lang = Language::new(ParserConfig::original_2011());
        let a = lang.terminal("a");
        let n = lang.term_node(a);
        for k in 0..4u32 {
            lang.memo_put(n, key(k), NodeId(k));
        }
        // Overwrite an inline and an overflow entry.
        lang.memo_put(n, key(0), NodeId(40));
        lang.memo_put(n, key(3), NodeId(43));
        assert_eq!(lang.memo_get(n, key(0)), Some(NodeId(40)));
        assert_eq!(lang.memo_get(n, key(3)), Some(NodeId(43)));
        assert_eq!(lang.memo_entry_counts(), vec![4], "no duplicate entries");
    }

    #[test]
    fn census_counts_entries_per_node() {
        let mut lang = Language::new(ParserConfig::original_2011());
        let a = lang.terminal("a");
        let n1 = lang.term_node(a);
        let b = lang.terminal("b");
        let n2 = lang.term_node(b);
        lang.memo_put(n1, key(0), NodeId(0));
        lang.memo_put(n1, key(1), NodeId(0));
        lang.memo_put(n2, key(0), NodeId(0));
        let mut counts = lang.memo_entry_counts();
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 2]);
        let frac = lang.single_entry_fraction().unwrap();
        assert!((frac - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dual_entry_keeps_two() {
        let mut lang = Language::new(ParserConfig {
            memo: MemoStrategy::DualEntry,
            ..ParserConfig::improved()
        });
        let a = lang.terminal("a");
        let n = lang.term_node(a);
        let (k1, k2, k3) = (key(0), key(1), key(2));
        lang.memo_put(n, k1, NodeId(0));
        lang.memo_put(n, k2, NodeId(1));
        assert_eq!(lang.memo_get(n, k1), Some(NodeId(0)), "both entries retained");
        assert_eq!(lang.memo_get(n, k2), Some(NodeId(1)));
        assert_eq!(lang.metrics().memo_evictions, 0);
        lang.memo_put(n, k3, NodeId(2));
        assert_eq!(lang.memo_get(n, k3), Some(NodeId(2)));
        assert_eq!(lang.memo_get(n, k2), Some(NodeId(1)), "newest demoted, kept");
        assert_eq!(lang.memo_get(n, k1), None, "oldest evicted");
        assert_eq!(lang.metrics().memo_evictions, 1);
        let mut counts = lang.memo_entry_counts();
        counts.sort_unstable();
        assert_eq!(counts, vec![2]);
    }

    #[test]
    fn dual_entry_update_in_place() {
        let mut lang = Language::new(ParserConfig {
            memo: MemoStrategy::DualEntry,
            ..ParserConfig::improved()
        });
        let a = lang.terminal("a");
        let n = lang.term_node(a);
        lang.memo_put(n, key(0), NodeId(0));
        lang.memo_put(n, key(0), NodeId(1));
        assert_eq!(lang.memo_get(n, key(0)), Some(NodeId(1)));
        assert_eq!(lang.metrics().memo_evictions, 0);
    }

    #[test]
    fn template_rows_hold_every_class_without_eviction() {
        let mut lang = Language::new(ParserConfig::improved());
        let a = lang.terminal("a");
        let b = lang.terminal("b");
        let n = lang.term_node(a);
        assert_eq!(lang.template_get(n, a), None);
        assert!(lang.template_taint(n, a), "unknown templates are conservatively tainted");
        lang.template_put(n, a, NodeId(7), false);
        assert_eq!(lang.template_get(n, a), Some((NodeId(7), false)));
        assert!(!lang.template_taint(n, a));
        // The row is indexed by class: recording `b` does not evict `a`.
        lang.template_put(n, b, NodeId(8), true);
        assert_eq!(lang.template_get(n, a), Some((NodeId(7), false)));
        assert_eq!(lang.template_get(n, b), Some((NodeId(8), true)));
        assert_eq!(lang.metrics().templates_recorded, 2);
        // Kind rewrites (patching, pruning) kill the row entries with the
        // rest of the per-parse state.
        lang.invalidate_parse_state(n);
        assert_eq!(lang.template_get(n, a), None);
        assert_eq!(lang.template_get(n, b), None);
    }

    #[test]
    fn empty_census() {
        let lang = Language::new(ParserConfig::improved());
        assert!(lang.memo_entry_counts().is_empty());
        assert_eq!(lang.single_entry_fraction(), None);
    }
}
