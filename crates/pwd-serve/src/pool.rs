//! Per-worker session pools.
//!
//! A compiled grammar is shared immutably ([`CachedGrammar`]), but *running*
//! an input mutates engine state (the PWD derivative arena, the Earley
//! chart, the GLR stack), so each concurrent parse needs an exclusive
//! session. The pool is the bridge: the first checkout for a grammar forks
//! the shared prototype (arena memcpy, no recompile); every later checkout
//! on the same worker reuses an idle session whose state was cleared by the
//! epoch reset at checkin, which cuts the arenas back to the grammar with
//! their capacity kept (for PWD, length stores on drop-free node and
//! reduction tables; only the forest's leaves and ambiguity vectors are
//! released). A warm worker therefore parses with **zero per-request
//! compilation and zero per-request arena allocation**.
//!
//! Pools are per-worker by design — each worker owns its pool exclusively
//! while running a batch, so checkout/checkin are plain `Vec` operations
//! with no atomics on the per-input hot path.

use derp::api::Parser;
use std::collections::HashMap;

use crate::cache::CachedGrammar;

/// An exclusively-owned parser session checked out of a [`SessionPool`].
pub struct PooledSession {
    fingerprint: u64,
    backend: Box<dyn Parser>,
}

impl PooledSession {
    /// The fingerprint of the grammar this session is compiled for.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The underlying backend, ready to run inputs.
    pub fn backend(&mut self) -> &mut dyn Parser {
        &mut *self.backend
    }

    /// Dissolves the checkout into its fingerprint and owned backend — the
    /// escape hatch for holders that keep a session alive across calls
    /// (the live-session API) and [`release`](SessionPool::release) it
    /// back later.
    pub fn into_parts(self) -> (u64, Box<dyn Parser>) {
        (self.fingerprint, self.backend)
    }
}

impl std::fmt::Debug for PooledSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledSession")
            .field("fingerprint", &format_args!("{:#018x}", self.fingerprint))
            .field("backend", &self.backend.name())
            .finish()
    }
}

/// Fork/reuse counters for one pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Sessions created by forking a cached prototype.
    pub forked: u64,
    /// Checkouts served by an idle pooled session (epoch-reset reuse).
    pub reused: u64,
}

/// An idle-session pool for one worker, keyed by grammar fingerprint.
#[derive(Default)]
pub struct SessionPool {
    idle: HashMap<u64, Vec<Box<dyn Parser>>>,
    metrics: PoolMetrics,
}

impl SessionPool {
    /// Creates an empty pool.
    pub fn new() -> SessionPool {
        SessionPool::default()
    }

    /// Checks out a session for the cached grammar: an idle one if
    /// available, otherwise a fresh fork of the shared prototype.
    pub fn checkout(&mut self, entry: &CachedGrammar) -> PooledSession {
        let fingerprint = entry.fingerprint();
        let backend = match self.try_reuse(fingerprint) {
            Some(b) => b,
            None => {
                self.metrics.forked += 1;
                entry.fork_session()
            }
        };
        PooledSession { fingerprint, backend }
    }

    /// Pops an idle session for the fingerprint, if any — the cheap half of
    /// [`checkout`](SessionPool::checkout), used by callers that scan
    /// several pools before paying for a fork.
    pub fn try_reuse(&mut self, fingerprint: u64) -> Option<Box<dyn Parser>> {
        let backend = self.idle.get_mut(&fingerprint).and_then(Vec::pop)?;
        self.metrics.reused += 1;
        Some(backend)
    }

    /// Returns a session to the pool, clearing its per-parse state via the
    /// backend's `reset` (for PWD, the epoch bump — the arena is cut back
    /// and kept for the next checkout instead of being reallocated).
    pub fn checkin(&mut self, session: PooledSession) {
        self.release(session.fingerprint, session.backend);
    }

    /// Returns a bare backend (e.g. recovered from a finished live session
    /// via [`PooledSession::into_parts`]) to the pool under its grammar
    /// fingerprint, reset for the next checkout.
    pub fn release(&mut self, fingerprint: u64, mut backend: Box<dyn Parser>) {
        backend.reset();
        self.idle.entry(fingerprint).or_default().push(backend);
    }

    /// Number of idle sessions currently pooled (across all grammars).
    pub fn idle_count(&self) -> usize {
        self.idle.values().map(Vec::len).sum()
    }

    /// Fork/reuse totals for this pool.
    pub fn metrics(&self) -> PoolMetrics {
        self.metrics
    }
}

impl std::fmt::Debug for SessionPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionPool")
            .field("idle", &self.idle_count())
            .field("metrics", &self.metrics)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::GrammarCache;
    use pwd_grammar::CfgBuilder;

    fn entry(cache: &GrammarCache) -> std::sync::Arc<CachedGrammar> {
        let mut g = CfgBuilder::new("S");
        g.terminal("a");
        g.rule("S", &["a", "S"]);
        g.rule("S", &[]);
        cache.get_or_compile(&g.build().unwrap()).unwrap().0
    }

    #[test]
    fn checkin_then_checkout_reuses_the_session() {
        let cache = GrammarCache::new(1, "pwd-improved");
        let entry = entry(&cache);
        let mut pool = SessionPool::new();

        let mut s = pool.checkout(&entry);
        assert!(s.backend().recognize(&["a", "a"]).unwrap());
        pool.checkin(s);
        assert_eq!(pool.idle_count(), 1);

        let mut s = pool.checkout(&entry);
        assert!(s.backend().recognize(&["a"]).unwrap());
        pool.checkin(s);
        assert_eq!(
            pool.metrics(),
            PoolMetrics { forked: 1, reused: 1 },
            "second checkout must reuse, not fork"
        );
    }

    #[test]
    fn concurrent_checkouts_fork_independent_sessions() {
        let cache = GrammarCache::new(1, "pwd-improved");
        let entry = entry(&cache);
        let mut pool = SessionPool::new();
        let mut a = pool.checkout(&entry);
        let mut b = pool.checkout(&entry); // first still out: must fork again
        assert!(a.backend().recognize(&["a"]).unwrap());
        assert!(b.backend().recognize(&["a", "b-is-not-a-terminal"]).is_err());
        pool.checkin(a);
        pool.checkin(b);
        assert_eq!(pool.metrics().forked, 2);
        assert_eq!(pool.idle_count(), 2);
    }

    #[test]
    fn reused_session_starts_clean() {
        let cache = GrammarCache::new(1, "pwd-improved");
        let entry = entry(&cache);
        let mut pool = SessionPool::new();
        let mut s = pool.checkout(&entry);
        assert!(s.backend().recognize(&["a", "a", "a"]).unwrap());
        pool.checkin(s);
        let mut s = pool.checkout(&entry);
        // A stale (un-reset) session would start from the old derivative.
        assert!(s.backend().recognize(&[]).unwrap(), "ε is in the language from a clean start");
        pool.checkin(s);
    }
}
