//! The grammar-node arena and the [`Language`] type.
//!
//! Grammars in PWD are *cyclic graphs* of parsing-expression nodes (§2.5.1:
//! non-terminals are represented by direct pointers, so `L = (L ◦ c) ∪ c`
//! contains an edge back to itself). In Rust we represent the graph as an
//! index-addressed arena owned by [`Language`]: nodes refer to children by
//! [`NodeId`]. The paper's "insert a partially constructed node into the
//! memo table before recursing" laziness trick (§2.5.2) becomes: allocate a
//! [`Pending`](ExprKind::Pending) placeholder, memoize its id, recurse, then
//! patch — no `Rc<RefCell<…>>` cycles anywhere.

use crate::config::ParserConfig;
use crate::error::PwdError;
use crate::metrics::Metrics;
use crate::names::NameStore;
use crate::token::{DeriveKey, Interner, TermId, Token};
use pwd_forest::{Forest, ForestId, ForestNode, Reduce, Tree};
use std::collections::HashMap;
use std::sync::Arc;

/// Index of a grammar node within a [`Language`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The parsing-expression forms of Figure 1, plus the δ node of Might et al.
/// (2011) and the arena-specific `Ref`/`Forward`/`Pending` plumbing.
#[derive(Debug, Clone)]
pub(crate) enum ExprKind {
    /// `∅` — the empty language.
    Empty,
    /// `ε_s` — the empty word, yielding the trees of the referenced forest.
    Eps(ForestId),
    /// `c` — a single terminal.
    Term(TermId),
    /// `L₁ ∪ L₂`.
    Alt(NodeId, NodeId),
    /// `L₁ ◦ L₂`.
    Cat(NodeId, NodeId),
    /// `L ↪ f`.
    Red(NodeId, Reduce),
    /// `δ(L)` — the null parses of `L` (derivative ∅, nullability of `L`).
    Delta(NodeId),
    /// Forwarding to another node (compaction collapse or a defined
    /// non-terminal). Transparent to all traversals.
    Ref(NodeId),
    /// A declared-but-not-yet-defined non-terminal.
    Forward,
    /// A node mid-derivation whose children have not been patched yet.
    Pending,
}

/// Sentinel for "no entry" in the pooled linked lists ([`Language::dep_pool`]
/// and [`Language::memo_pool`]).
pub(crate) const NO_LINK: u32 = u32::MAX;

/// One entry of the pooled nullability-dependency lists: `parent` must be
/// recomputed when the owning node becomes nullable.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DepEntry {
    pub(crate) parent: NodeId,
    pub(crate) next: u32,
}

/// One entry of the pooled `FullHash` memo overflow lists.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemoEntry {
    pub(crate) key: DeriveKey,
    pub(crate) val: NodeId,
    pub(crate) next: u32,
}

/// A node's memo state beyond its inline single entry ([`Language::memo_more`]):
/// the second slot `DualEntry` and `FullHash` keep, and the head of the
/// node's `FullHash` overflow list in [`Language::memo_pool`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemoMore {
    pub(crate) key2: DeriveKey,
    pub(crate) val2: NodeId,
    pub(crate) over: u32,
}

impl MemoMore {
    pub(crate) const EMPTY: MemoMore =
        MemoMore { key2: DeriveKey::NONE, val2: NodeId(0), over: NO_LINK };
}

/// Where an initial-grammar node's dense per-class template row sits in
/// [`Language::class_pool`] ([`Language::tmpl_rows`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TmplRow {
    /// Start of the row (`NO_LINK` when the node has none).
    pub(crate) start: u32,
    /// Length of the row: the terminal count when it was allocated
    /// (terminals interned later are simply not templated).
    pub(crate) len: u32,
}

impl TmplRow {
    pub(crate) const NONE: TmplRow = TmplRow { start: NO_LINK, len: 0 };
}

/// One entry of the pooled per-class template rows ([`Language::class_pool`]):
/// the derivative an initial-grammar node last produced for one terminal
/// class, plus its lexeme taint. Valid while `epoch` is current.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClassEntry {
    pub(crate) epoch: u32,
    pub(crate) val: NodeId,
    pub(crate) taint: bool,
}

/// One grammar node plus the per-parse state every derived node uses: the
/// single-entry derive memo, the nullability lattice value and fixed-point
/// bookkeeping, the parse-null memo and the productivity mark. Storing this
/// state *in the node* (not in hash tables) is the §4.4 optimization,
/// generalized here to every per-parse slot a derived node needs.
///
/// Slots that only some nodes or some configurations use live in side
/// tables on [`Language`], indexed by node and grown on demand: labels
/// ([`Language::labels`]), the `DualEntry`/`FullHash` second slot and
/// overflow list ([`Language::memo_more`]), initial-grammar template rows
/// ([`Language::tmpl_rows`]) and automaton states. A parse-mode Python
/// token derives about 235 nodes, so every inline byte counts: the node is
/// at most 48 bytes (asserted below).
///
/// The memo, nullability and null-parse fields share one epoch stamp: they
/// are only meaningful while `epoch` equals the owning [`Language`]'s
/// current parse epoch, and [`Language::parse_state_mut`] is their one
/// write path, which re-initializes all three groups when the stamp is
/// stale. [`Language::reset`] therefore never touches surviving nodes —
/// bumping the epoch invalidates everything at once.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) kind: ExprKind,
    /// The parse epoch the fields below (all but `productive`) were written
    /// under.
    pub(crate) epoch: u32,
    // --- derive memo (§4.4): the single entry, `DeriveKey::NONE` if empty ---
    pub(crate) memo_key: DeriveKey,
    pub(crate) memo_val: NodeId,
    /// The parse-null memo.
    pub(crate) null_parse: Option<ForestId>,
    // --- nullability (§4.2) ---
    /// The fixed-point run that last visited this node.
    pub(crate) null_visited_run: u32,
    /// Head of this node's dependency list in [`Language::dep_pool`], valid
    /// while `null_visited_run` equals the current run label (a visit
    /// starts the list afresh).
    pub(crate) deps_head: u32,
    pub(crate) null_value: bool,
    pub(crate) null_definite: bool,
    /// Productivity lattice value (see [`crate::prune`]). Not epoch-stamped:
    /// for initial-grammar nodes productivity is a language-level fact that
    /// stays valid across parses, and derived nodes die at reset.
    pub(crate) productive: u8,
}

// Node size is the parse-mode arena's size per derived node: a field added
// here costs every one of them.
const _: () = assert!(std::mem::size_of::<Node>() <= 48);

impl Node {
    fn new(kind: ExprKind) -> Node {
        Node {
            kind,
            epoch: 0,
            memo_key: DeriveKey::NONE,
            memo_val: NodeId(0),
            null_parse: None,
            null_visited_run: 0,
            deps_head: NO_LINK,
            null_value: false,
            null_definite: false,
            productive: 0,
        }
    }

    /// The nullability lattice values a node of this kind starts a parse
    /// with: constants (`∅`, tokens, `ε`) are definite from birth, everything
    /// else is assumed-not-nullable.
    pub(crate) fn null_defaults(kind: &ExprKind) -> (bool, bool) {
        match kind {
            ExprKind::Empty | ExprKind::Term(_) => (false, true),
            ExprKind::Eps(_) => (true, true),
            _ => (false, false),
        }
    }
}

/// A language: a (possibly cyclic) graph of parsing-expression nodes, an
/// interner for terminals and tokens, a parse-forest arena, and the engine
/// state required to take derivatives of it.
///
/// # Examples
///
/// Build the paper's left-recursive example `L = (L ◦ c) ∪ c` and parse:
///
/// ```
/// use pwd_core::Language;
///
/// # fn main() -> Result<(), pwd_core::PwdError> {
/// let mut lang = Language::default();
/// let c = lang.terminal("c");
/// let tc = lang.term_node(c);
/// let l = lang.forward();
/// let lc = lang.cat(l, tc);
/// let body = lang.alt(lc, tc);
/// lang.define(l, body);
///
/// let tok = lang.token(c, "c");
/// assert!(lang.recognize(l, &[tok.clone(), tok.clone(), tok])?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Language {
    pub(crate) nodes: Vec<Node>,
    pub(crate) forests: Forest,
    pub(crate) interner: Interner,
    pub(crate) config: ParserConfig,
    pub(crate) metrics: Metrics,
    pub(crate) names: NameStore,
    /// The current parse epoch. Every per-parse field on a [`Node`] is
    /// stamped with the epoch it was written under; [`reset`](Language::reset)
    /// bumps this counter and thereby invalidates all of them in O(1).
    pub(crate) epoch: u32,
    /// Monotone counter labelling nullability fixed-point runs (§4.2).
    pub(crate) run_label: u32,
    /// Pooled storage for per-run nullability dependency lists (replaces a
    /// per-node `Vec`, so dropping derived nodes frees no heap and clearing
    /// between parses is O(1)).
    pub(crate) dep_pool: Vec<DepEntry>,
    /// Pooled storage for `FullHash` memo overflow lists (replaces the global
    /// `(node, token)` hash map: the hot path never hashes).
    pub(crate) memo_pool: Vec<MemoEntry>,
    /// Display labels ([`set_label`](Language::set_label)), indexed by node
    /// and grown only as far as the highest labelled node.
    pub(crate) labels: Vec<Option<Arc<str>>>,
    /// Each node's memo state beyond its inline entry, indexed by node and
    /// grown only by `DualEntry` and `FullHash` (empty under `SingleEntry`).
    /// An entry is per-parse state like [`memo_pool`](Language::memo_pool):
    /// [`reset`](Language::reset) clears the table, and
    /// [`invalidate_parse_state`](Language::invalidate_parse_state) empties
    /// the node's entry, so it is live whenever the node's stamp is.
    pub(crate) memo_more: Vec<MemoMore>,
    /// Each initial-grammar node's template row in
    /// [`class_pool`](Language::class_pool), indexed by node. Only nodes
    /// below the initial boundary get a row, so this never grows past it.
    pub(crate) tmpl_rows: Vec<TmplRow>,
    /// Pooled storage for the dense per-class template rows of
    /// initial-grammar nodes. Row *allocation* is warm state that survives
    /// [`reset`](Language::reset) (rows belong to initial nodes, which
    /// survive too); row *entries* are per-entry epoch-stamped, so the same
    /// O(1) epoch bump invalidates them.
    pub(crate) class_pool: Vec<ClassEntry>,
    /// Cached §4.3.1 prepass results, `(start, compacted root)`. The prepass
    /// is a pure function of the immutable input graph, so one copy serves
    /// every parse; entries whose nodes die at [`reset`](Language::reset)
    /// are dropped there.
    pub(crate) prepass_cache: Vec<(NodeId, NodeId)>,
    /// The lazy derivative automaton (see [`crate::automaton`]): interned
    /// derivative states with dense transition rows and cached accept bits.
    /// Like `class_pool`, warm state that survives [`reset`](Language::reset).
    pub(crate) auto: crate::automaton::Automaton,
    /// The observability sink (see [`crate::obs`]): `None` — the cheap,
    /// default state — means every span hook is a single branch; installed
    /// via [`enable_obs`](Language::enable_obs), it carries per-phase
    /// duration histograms and an optional trace buffer. Boxed so the
    /// disabled engine pays one word.
    pub(crate) obs: Option<Box<crate::obs::LangObs>>,
    /// True while `parse`/`derive` are running; gates the §4.3.1 right-child
    /// compaction rules, which are only valid on the initial grammar.
    pub(crate) in_parse: bool,
    /// Set by `alloc` when `max_nodes` is exceeded; checked per token.
    pub(crate) budget_hit: bool,
    /// Node/forest arena sizes at the start of the first parse, for `reset`.
    pub(crate) initial_nodes: Option<usize>,
    pub(crate) initial_forests: Option<usize>,
    /// The productivity watermark: every node below this index has a
    /// settled productivity mark (see [`crate::prune`]), so a session start
    /// prunes only the nodes above it. `prune_empty` advances it and
    /// [`reset`](Language::reset) clamps it to the truncated arena.
    pub(crate) settled: usize,
    /// Reusable reader lists and worklist of the productivity pass (see
    /// [`crate::prune`]).
    pub(crate) readers: crate::prune::ReaderLists,
    /// Reusable queue and visit list of the nullability fixed point (see
    /// [`crate::nullable`]).
    pub(crate) null_lists: crate::nullable::RunLists,
    /// Initial-grammar start nodes that passed [`validate`](Language::validate):
    /// their reachable graph can no longer change, so a session start
    /// validates each only once.
    pub(crate) validated: Vec<NodeId>,
    /// Canonical `Term` nodes, one per terminal.
    term_nodes: HashMap<TermId, NodeId>,
    /// Canonical forest nodes: the no-parses forest and the `ε`-tree forest.
    pub(crate) forest_nothing: ForestId,
    pub(crate) forest_eps_tree: ForestId,
}

impl Language {
    /// Creates a language with the given engine configuration.
    pub fn new(config: ParserConfig) -> Language {
        let mut forests = Forest::new();
        let forest_nothing = forests.alloc(ForestNode::Empty);
        let forest_eps_tree = forests.alloc(ForestNode::Eps);
        let mut nodes = Vec::with_capacity(64);
        nodes.push(Node::new(ExprKind::Empty)); // NodeId(0): canonical ∅
        nodes.push(Node::new(ExprKind::Eps(forest_eps_tree))); // NodeId(1): canonical ε
        Language {
            nodes,
            forests,
            interner: Interner::default(),
            config,
            metrics: Metrics::default(),
            names: NameStore::default(),
            epoch: 1,
            run_label: 0,
            dep_pool: Vec::new(),
            memo_pool: Vec::new(),
            labels: Vec::new(),
            memo_more: Vec::new(),
            tmpl_rows: Vec::new(),
            class_pool: Vec::new(),
            prepass_cache: Vec::new(),
            auto: crate::automaton::Automaton::default(),
            obs: None,
            in_parse: false,
            budget_hit: false,
            initial_nodes: None,
            initial_forests: None,
            settled: 0,
            readers: Default::default(),
            null_lists: Default::default(),
            validated: Vec::new(),
            term_nodes: HashMap::new(),
            forest_nothing,
            forest_eps_tree,
        }
    }

    /// The current parse epoch (bumped by [`reset`](Language::reset); useful
    /// for diagnostics and for asserting that reuse actually resets).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The engine configuration.
    pub fn config(&self) -> &ParserConfig {
        &self.config
    }

    /// Accumulated instrumentation counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Counts `n` recovery trial derivatives — cloned session states fed a
    /// candidate repair token to test its viability. The session layer
    /// drives the probing (it owns checkpoints and the repair search); the
    /// counter lives here with the other derive accounting so one snapshot
    /// describes the whole engine.
    pub fn note_recovery_probes(&mut self, n: u64) {
        self.metrics.recovery_probes += n;
    }

    /// Clears the instrumentation counters (and any accumulated
    /// observability phase data; an installed obs sink stays installed).
    pub fn reset_metrics(&mut self) {
        self.metrics = Metrics::default();
        self.clear_obs_data();
    }

    /// Interns a terminal (token kind) by name.
    pub fn terminal(&mut self, name: &str) -> TermId {
        self.interner.terminal(name)
    }

    /// The display name of a terminal.
    pub fn terminal_name(&self, id: TermId) -> &str {
        self.interner.term_name(id)
    }

    /// Creates (and interns) a token of the given kind with the given lexeme.
    pub fn token(&mut self, term: TermId, lexeme: &str) -> Token {
        self.interner.token(term, lexeme)
    }

    /// Number of grammar nodes currently allocated (the paper's `G + g`).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Has the configured node budget tripped? Once hit, the arena is full
    /// and no further derivation can run until [`reset`](Language::reset)
    /// (which clears the flag along with the derived nodes).
    pub fn budget_exhausted(&self) -> bool {
        self.budget_hit
    }

    /// Number of interned terminals.
    pub fn terminal_count(&self) -> usize {
        self.interner.term_count()
    }

    /// Number of interned distinct token values.
    pub fn token_count(&self) -> usize {
        self.interner.tok_count()
    }

    /// Number of nodes carrying a Definition-5 name.
    pub fn named_node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of parse-forest nodes currently allocated.
    pub fn forest_count(&self) -> usize {
        self.forests.len()
    }

    pub(crate) fn alloc(&mut self, kind: ExprKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(kind));
        self.metrics.nodes_created += 1;
        if let Some(limit) = self.config.max_nodes {
            if self.nodes.len() > limit {
                self.budget_hit = true;
            }
        }
        id
    }

    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0 as usize]
    }

    /// The node's nullability lattice values `(value, definite)`, reading
    /// epoch-stale state as the kind-determined start-of-parse defaults.
    #[inline]
    pub(crate) fn null_state(&self, id: NodeId) -> (bool, bool) {
        let n = &self.nodes[id.index()];
        if n.epoch == self.epoch {
            (n.null_value, n.null_definite)
        } else {
            Node::null_defaults(&n.kind)
        }
    }

    /// Mutable access to a node's epoch-stamped state (memo, nullability,
    /// null-parse), re-initializing all of it for the current epoch first
    /// if it is stale. This is the only write path for those fields, so
    /// stale state can never leak across parses.
    #[inline]
    pub(crate) fn parse_state_mut(&mut self, id: NodeId) -> &mut Node {
        let epoch = self.epoch;
        let n = &mut self.nodes[id.index()];
        if n.epoch != epoch {
            n.epoch = epoch;
            n.memo_key = DeriveKey::NONE;
            n.null_parse = None;
            n.null_visited_run = 0;
            n.deps_head = NO_LINK;
            let (value, definite) = Node::null_defaults(&n.kind);
            n.null_value = value;
            n.null_definite = definite;
        }
        n
    }

    /// The node's memoized null-parse forest, if computed this epoch.
    #[inline]
    pub(crate) fn null_parse_get(&self, id: NodeId) -> Option<ForestId> {
        let n = &self.nodes[id.index()];
        if n.epoch == self.epoch {
            n.null_parse
        } else {
            None
        }
    }

    /// Memoizes the node's null-parse forest for the current epoch.
    #[inline]
    pub(crate) fn null_parse_set(&mut self, id: NodeId, f: ForestId) {
        self.parse_state_mut(id).null_parse = Some(f);
    }

    /// Invalidates every epoch-stamped field of one node, with its memo
    /// side-table entry, template row entries and automaton state. Called
    /// whenever a node's `kind` is rewritten in place (placeholder patching,
    /// `define`, emptiness pruning) so derived state is recomputed for the
    /// new kind.
    #[inline]
    pub(crate) fn invalidate_parse_state(&mut self, id: NodeId) {
        let i = id.index();
        self.nodes[i].epoch = 0;
        if let Some(more) = self.memo_more.get_mut(i) {
            *more = MemoMore::EMPTY;
        }
        if let Some(&TmplRow { start, len }) = self.tmpl_rows.get(i) {
            if start != NO_LINK {
                // Kind rewrites are rare (placeholder patching, pruning), so
                // an O(classes) row sweep here keeps the hot-path reads
                // stamp-only.
                for e in &mut self.class_pool[start as usize..(start + len) as usize] {
                    e.epoch = 0;
                }
            }
        }
        if let Some(state) = self.auto.take_state(id) {
            // States are interned post-prune on frozen structure, so a kind
            // rewrite on an interned root should be impossible — but if one
            // ever happens, drop the automaton rather than serve stale rows.
            self.auto_node_invalidated(id, state);
        }
        // Cached signature digests of this node's ancestors embed the old
        // kind; drop them all rather than track reachability.
        self.auto.digests.clear();
    }

    /// Follows `Ref` forwarding to the representative node.
    pub(crate) fn resolve(&self, mut id: NodeId) -> NodeId {
        loop {
            match &self.node(id).kind {
                ExprKind::Ref(t) => id = *t,
                _ => return id,
            }
        }
    }

    /// The resolved kind of a node.
    pub(crate) fn kind(&self, id: NodeId) -> &ExprKind {
        &self.node(self.resolve(id)).kind
    }

    /// The canonical `∅` node.
    pub fn empty_node(&self) -> NodeId {
        NodeId(0)
    }

    /// The canonical `ε` node (yielding the single empty tree).
    pub fn eps_node(&self) -> NodeId {
        NodeId(1)
    }

    /// An `ε_s` node yielding the given constant tree. (Its definite
    /// nullability follows from its kind; see `Node::null_defaults`.)
    pub fn eps_tree(&mut self, tree: Tree) -> NodeId {
        let f = self.forests.alloc(ForestNode::Const(tree));
        self.alloc(ExprKind::Eps(f))
    }

    /// The canonical single-terminal node for `term`.
    pub fn term_node(&mut self, term: TermId) -> NodeId {
        if let Some(&id) = self.term_nodes.get(&term) {
            return id;
        }
        let id = self.alloc(ExprKind::Term(term));
        self.term_nodes.insert(term, id);
        id
    }

    /// Declares a non-terminal whose body will be supplied later with
    /// [`define`](Language::define) — the mechanism for building cyclic
    /// grammars.
    pub fn forward(&mut self) -> NodeId {
        self.alloc(ExprKind::Forward)
    }

    /// Defines a previously [`forward`](Language::forward)-declared node.
    ///
    /// # Panics
    ///
    /// Panics if `fwd` was not created by `forward` or is already defined.
    pub fn define(&mut self, fwd: NodeId, body: NodeId) {
        match self.node(fwd).kind {
            ExprKind::Forward => {}
            ref other => panic!("define() on a non-forward node {fwd:?} ({other:?})"),
        }
        self.node_mut(fwd).kind = ExprKind::Ref(body);
        self.invalidate_parse_state(fwd);
    }

    /// Attaches a display label (e.g. a non-terminal name) to a node.
    pub fn set_label(&mut self, id: NodeId, label: &str) {
        let i = id.index();
        if self.labels.len() <= i {
            self.labels.resize(i + 1, None);
        }
        self.labels[i] = Some(Arc::from(label));
    }

    /// The display label of a node, if any.
    pub fn label(&self, id: NodeId) -> Option<&str> {
        self.labels.get(id.index())?.as_deref()
    }

    /// Is this node (after resolution) the empty language *syntactically*?
    ///
    /// With compaction enabled, a derivative that becomes `∅` collapses to
    /// the canonical empty node, so this is the paper's cheap early-reject
    /// check. Without compaction it may return `false` for semantically
    /// empty languages.
    pub fn is_empty_node(&self, id: NodeId) -> bool {
        matches!(self.kind(id), ExprKind::Empty)
    }

    /// Checks that every node reachable from `start` is fully defined (no
    /// [`forward`](Language::forward) declarations missing their
    /// [`define`](Language::define)).
    ///
    /// # Errors
    ///
    /// Returns [`PwdError::UndefinedNonterminal`] naming the first undefined
    /// node found.
    pub fn validate(&self, start: NodeId) -> Result<(), PwdError> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![start];
        while let Some(id) = stack.pop() {
            let id = self.resolve(id);
            if seen[id.0 as usize] {
                continue;
            }
            seen[id.0 as usize] = true;
            match &self.node(id).kind {
                ExprKind::Forward => {
                    return Err(PwdError::UndefinedNonterminal {
                        label: self.label(id).map(str::to_owned),
                    });
                }
                ExprKind::Alt(a, b) | ExprKind::Cat(a, b) => {
                    stack.push(*a);
                    stack.push(*b);
                }
                ExprKind::Red(a, _) | ExprKind::Delta(a) => stack.push(*a),
                ExprKind::Empty | ExprKind::Eps(_) | ExprKind::Term(_) | ExprKind::Pending => {}
                ExprKind::Ref(_) => unreachable!("resolved"),
            }
        }
        Ok(())
    }

    /// Number of nodes reachable from `start` (following `Ref`s, counting
    /// representatives only).
    pub fn reachable_count(&self, start: NodeId) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![start];
        let mut count = 0;
        while let Some(id) = stack.pop() {
            let id = self.resolve(id);
            if seen[id.0 as usize] {
                continue;
            }
            seen[id.0 as usize] = true;
            count += 1;
            match &self.node(id).kind {
                ExprKind::Alt(a, b) | ExprKind::Cat(a, b) => {
                    stack.push(*a);
                    stack.push(*b);
                }
                ExprKind::Red(a, _) | ExprKind::Delta(a) => stack.push(*a),
                _ => {}
            }
        }
        count
    }

    /// Census of reachable node kinds from `start`: `(kind name, count)`,
    /// sorted descending. A diagnostic for graph-growth investigations.
    pub fn kind_census(&self, start: NodeId) -> Vec<(&'static str, usize)> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![start];
        let mut counts: HashMap<&'static str, usize> = HashMap::new();
        while let Some(id) = stack.pop() {
            let id = self.resolve(id);
            if seen[id.0 as usize] {
                continue;
            }
            seen[id.0 as usize] = true;
            let name = match &self.node(id).kind {
                ExprKind::Empty => "empty",
                ExprKind::Eps(_) => "eps",
                ExprKind::Term(_) => "term",
                ExprKind::Alt(a, b) => {
                    stack.push(*a);
                    stack.push(*b);
                    "alt"
                }
                ExprKind::Cat(a, b) => {
                    stack.push(*a);
                    stack.push(*b);
                    "cat"
                }
                ExprKind::Red(a, _) => {
                    stack.push(*a);
                    "red"
                }
                ExprKind::Delta(a) => {
                    stack.push(*a);
                    "delta"
                }
                ExprKind::Forward => "forward",
                ExprKind::Pending => "pending",
                ExprKind::Ref(_) => unreachable!("resolved"),
            };
            *counts.entry(name).or_insert(0) += 1;
        }
        let mut v: Vec<(&'static str, usize)> = counts.into_iter().collect();
        v.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        v
    }

    /// Diagnostic: the most frequent structural patterns among nodes
    /// reachable from `start` (kind + labeled/original children), sorted by
    /// frequency. Used to investigate graph-growth pathologies.
    pub fn hot_patterns(&self, start: NodeId, top: usize) -> Vec<String> {
        let initial = self.initial_nodes.unwrap_or(usize::MAX);
        let describe_child = |id: NodeId| -> String {
            let id = self.resolve(id);
            let n = self.node(id);
            let age = if id.index() < initial { "orig" } else { "new" };
            let kind = match &n.kind {
                ExprKind::Empty => "∅",
                ExprKind::Eps(_) => "ε",
                ExprKind::Term(_) => "tok",
                ExprKind::Alt(..) => "∪",
                ExprKind::Cat(..) => "◦",
                ExprKind::Red(..) => "↪",
                ExprKind::Delta(_) => "δ",
                ExprKind::Forward => "fwd",
                ExprKind::Pending => "pend",
                ExprKind::Ref(_) => "ref",
            };
            match self.label(id) {
                Some(l) => format!("{age}:{kind}:{l}"),
                None => format!("{age}:{kind}"),
            }
        };
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![start];
        let mut counts: HashMap<String, usize> = HashMap::new();
        while let Some(id) = stack.pop() {
            let id = self.resolve(id);
            if seen[id.0 as usize] {
                continue;
            }
            seen[id.0 as usize] = true;
            let pat = match &self.node(id).kind {
                ExprKind::Alt(a, b) => {
                    stack.push(*a);
                    stack.push(*b);
                    format!("∪({}, {})", describe_child(*a), describe_child(*b))
                }
                ExprKind::Cat(a, b) => {
                    stack.push(*a);
                    stack.push(*b);
                    format!("◦({}, {})", describe_child(*a), describe_child(*b))
                }
                ExprKind::Red(a, _) => {
                    stack.push(*a);
                    format!("↪({})", describe_child(*a))
                }
                ExprKind::Delta(a) => {
                    stack.push(*a);
                    format!("δ({})", describe_child(*a))
                }
                _ => continue,
            };
            *counts.entry(pat).or_insert(0) += 1;
        }
        let mut v: Vec<(String, usize)> = counts.into_iter().collect();
        v.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        v.truncate(top);
        v.into_iter().map(|(p, c)| format!("{c:>6}  {p}")).collect()
    }

    /// Returns the language to its pristine pre-parse state: discards the
    /// nodes and forests created by parsing and invalidates every memo table
    /// and lattice value.
    ///
    /// This is a **single epoch bump**, not a sweep: per-node parse state
    /// (derive memos, nullability values, null-parse forests) is stamped
    /// with the epoch it was written under, so bumping the counter
    /// invalidates all of it at once. No per-node clearing loop runs, no
    /// hash table is rehashed, and no buffer is deallocated — arenas, side
    /// tables and pools are truncated with their capacity kept for the next
    /// parse. (The paper clears its memo hash tables between benchmark
    /// rounds; this achieves the same effect in O(1).)
    pub fn reset(&mut self) {
        let (Some(n), Some(f)) = (self.initial_nodes, self.initial_forests) else {
            return; // never parsed; nothing to reset
        };
        // Roll the arenas back to the initial grammar — extended to the
        // automaton boundary (the arena length at the last state intern),
        // so interned state roots and their reachable subgraphs stay alive
        // and every transition row built so far remains warm for the next
        // parse. Their productivity marks are settled and below the
        // productivity watermark, so the start-of-parse prune pass never
        // visits them, and their
        // epoch-stamped memo state dies with the bump below like any other
        // node's. With the automaton idle both boundaries are 0 and this is
        // the plain initial-grammar truncation. Capacity is retained;
        // derived nodes own no per-parse heap (their dependency and memo
        // lists live in the shared pools below), so this drops only
        // reference counts on shared grammar structure.
        let keep = n.max(self.auto.boundary);
        self.nodes.truncate(keep);
        self.forests.truncate(f.max(self.auto.forest_boundary));
        self.settled = self.settled.min(self.nodes.len());
        // Truncation reuses node ids, so every per-node side table is cut
        // back with the arena (a reused id must not inherit a dead node's
        // label or automaton state), and cached signature digests die with
        // the nodes they described. Every table but `labels` (rarely set on
        // a derived node) holds `Copy` entries, so this stays O(1) in the
        // number of derived nodes.
        self.labels.truncate(keep);
        self.tmpl_rows.truncate(keep);
        self.auto.node_states.truncate(keep);
        self.auto.digests.clear();
        // O(1): the pool entries are `Copy`, so `clear` is a length store.
        // Memo side entries are per-parse state for every node, survivors
        // included, so they go with the overflow lists they point into.
        self.dep_pool.clear();
        self.memo_pool.clear();
        self.memo_more.clear();
        // `class_pool` is intentionally NOT cleared: template rows belong to
        // initial-grammar nodes, which survive the truncation, and their
        // entries are epoch-stamped. Prepass results whose nodes just died
        // are dropped; the first-parse entry (inside the boundary) survives.
        self.prepass_cache.retain(|&(s, out)| s.index() < n && out.index() < n);
        if self.epoch == u32::MAX {
            // Epoch wrap (once every 2³² resets): hard-invalidate all stamps
            // so no node from epoch 1 can alias the new epoch 1.
            for node in &mut self.nodes {
                node.epoch = 0;
            }
            for entry in &mut self.class_pool {
                entry.epoch = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        self.run_label = 0;
        self.names.clear_derived();
        self.metrics = Metrics::default();
        self.in_parse = false;
        self.budget_hit = false;
    }

    /// Records the current arena sizes as the "initial grammar" boundary.
    /// Called automatically at the start of the first parse.
    pub(crate) fn mark_initial(&mut self) {
        if self.initial_nodes.is_none() {
            self.initial_nodes = Some(self.nodes.len());
            self.initial_forests = Some(self.forests.len());
        }
    }

    /// Size of the initial grammar (the paper's `G`), if a parse has run.
    pub fn initial_size(&self) -> Option<usize> {
        self.initial_nodes
    }

    /// Test-only hook to flip the compaction mode on an existing language.
    #[doc(hidden)]
    pub fn set_config_compaction_for_test(&mut self, mode: crate::config::CompactionMode) {
        self.config.compaction = mode;
    }

    /// Renders a node for debugging: kind, children ids, label.
    pub fn describe(&self, id: NodeId) -> String {
        let r = self.resolve(id);
        let n = self.node(r);
        let head = match &n.kind {
            ExprKind::Empty => "∅".to_string(),
            ExprKind::Eps(f) => format!("ε[{}]", f.index()),
            ExprKind::Term(t) => format!("tok {}", self.interner.term_name(*t)),
            ExprKind::Alt(a, b) => format!("∪({}, {})", a.0, b.0),
            ExprKind::Cat(a, b) => format!("◦({}, {})", a.0, b.0),
            ExprKind::Red(a, f) => format!("↪({}, {f:?})", a.0),
            ExprKind::Delta(a) => format!("δ({})", a.0),
            ExprKind::Forward => "forward".to_string(),
            ExprKind::Pending => "pending".to_string(),
            ExprKind::Ref(_) => unreachable!("resolved"),
        };
        match self.label(r) {
            Some(l) => format!("{l}: {head}"),
            None => head,
        }
    }
}

impl Default for Language {
    fn default() -> Self {
        Language::new(ParserConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_nodes() {
        let lang = Language::default();
        assert!(lang.is_empty_node(lang.empty_node()));
        assert!(matches!(lang.kind(lang.eps_node()), ExprKind::Eps(_)));
    }

    #[test]
    fn term_nodes_are_canonical() {
        let mut lang = Language::default();
        let a = lang.terminal("a");
        let n1 = lang.term_node(a);
        let n2 = lang.term_node(a);
        assert_eq!(n1, n2);
    }

    #[test]
    fn forward_define_resolves() {
        let mut lang = Language::default();
        let f = lang.forward();
        let a = lang.terminal("a");
        let body = lang.term_node(a);
        lang.define(f, body);
        assert_eq!(lang.resolve(f), body);
    }

    #[test]
    #[should_panic(expected = "non-forward")]
    fn double_define_panics() {
        let mut lang = Language::default();
        let f = lang.forward();
        let e = lang.eps_node();
        lang.define(f, e);
        lang.define(f, e);
    }

    #[test]
    fn validate_catches_undefined_forward() {
        let mut lang = Language::default();
        let f = lang.forward();
        lang.set_label(f, "Expr");
        let err = lang.validate(f).unwrap_err();
        assert_eq!(err, PwdError::UndefinedNonterminal { label: Some("Expr".into()) });
    }

    #[test]
    fn reachable_count_on_cycle() {
        let mut lang = Language::new(ParserConfig {
            compaction: crate::config::CompactionMode::None,
            ..ParserConfig::improved()
        });
        let c = lang.terminal("c");
        let tc = lang.term_node(c);
        let l = lang.forward();
        let lc = lang.cat(l, tc);
        let body = lang.alt(lc, tc);
        lang.define(l, body);
        // Nodes: Term(c), Cat, Alt — the forward resolves away.
        assert_eq!(lang.reachable_count(l), 3);
    }

    /// `reset` truncates the arena, and the next parse reuses the ids of
    /// the nodes it dropped, so every per-node side table must be cut back
    /// with it: a label on a derived node, a `FullHash` second slot and
    /// overflow list, and the automaton state of a non-canonical derived
    /// node above the automaton boundary must all be gone when the id comes
    /// back.
    #[test]
    fn reused_ids_see_no_side_table_state_after_reset() {
        use crate::config::{MemoStrategy, ParseMode};
        use crate::token::TokKey;
        let mut lang = Language::new(ParserConfig {
            mode: ParseMode::Recognize,
            memo: MemoStrategy::FullHash,
            ..ParserConfig::improved()
        });
        assert!(lang.automaton_active());
        // S = a b | a S b
        let a = lang.terminal("a");
        let b = lang.terminal("b");
        let (ta, tb) = (lang.term_node(a), lang.term_node(b));
        let s = lang.forward();
        let ab = lang.cat(ta, tb);
        let asb = lang.seq(&[ta, s, tb]);
        let body = lang.alt(ab, asb);
        lang.define(s, body);
        let tok_a = lang.token(a, "a");
        let key = |k: u32| DeriveKey::value(TokKey(k));

        let mut session = crate::SessionState::start(&mut lang, s).unwrap();
        assert!(session.feed(&mut lang, &tok_a).unwrap());
        // A copy of the current state's root is isomorphic to it, so it is
        // mapped to that state without moving the automaton boundary.
        let root = session.current();
        let x = lang.alloc(lang.node(root).kind.clone());
        let state = lang.auto_intern(x);
        assert!(state.is_some() && state == lang.auto_state_of(root));
        assert!(x.index() >= lang.auto.boundary, "x must die at reset");
        lang.set_label(x, "derived");
        for k in 0..3 {
            lang.memo_put(x, key(k), NodeId(k));
        }
        assert_eq!(lang.memo_get(x, key(2)), Some(NodeId(2)), "an overflow entry");
        session.finish(&mut lang);

        lang.reset();
        assert!(lang.node_count() <= x.index());
        let session = crate::SessionState::start(&mut lang, s).unwrap();
        let mut y = lang.empty_node();
        while y.index() < x.index() {
            y = lang.cat(ta, tb);
        }
        assert_eq!(y, x, "the next parse reuses the id");
        assert_eq!(lang.label(y), None);
        assert_eq!(lang.auto_state_of(y), None);
        lang.memo_put(y, key(7), NodeId(7));
        assert_eq!(lang.memo_get(y, key(1)), None, "a dead second slot");
        assert_eq!(lang.memo_get(y, key(2)), None, "a dead overflow list");
        assert_eq!(lang.memo_get(y, key(7)), Some(NodeId(7)));
        assert_eq!(lang.memo_entry_counts(), vec![1]);
        session.finish(&mut lang);
    }

    #[test]
    fn labels_render_in_describe() {
        let mut lang = Language::default();
        let f = lang.forward();
        lang.set_label(f, "S");
        assert!(lang.describe(f).starts_with("S:"));
    }
}
