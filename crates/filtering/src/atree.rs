//! The A-Tree engine: shared-subexpression DAG matching.
//!
//! The counting matcher shares work at the *predicate* level — two
//! subscriptions with the same leaf share one index entry, but each still
//! evaluates its own tree. Ad-exchange-scale workloads (100k–1M Boolean
//! targeting expressions) are heavily redundant *above* the leaves: whole
//! conjunctions and disjunctions recur across subscriptions. The A-Tree
//! (Mohapatra & Suresh's structure for boolean-expression matching at
//! millions of expressions) shares those subexpressions instead.
//!
//! [`ATreeEngine`] stores every registered tree in one slab-backed DAG:
//!
//! * **Hash-consing.** Each subtree is keyed by its structural
//!   [`expr_fingerprint`](pubsub_core::analysis::expr_fingerprint) (computed
//!   bottom-up via the public combiners, verified structurally on bucket
//!   collision). Identical subtrees across subscriptions — and the analyzer
//!   of PR 8 already normalizes inserted trees into a flattened, deduped,
//!   commutative-stable form, maximizing hits — become **one node** carrying
//!   a sorted subscriber list.
//! * **Leaves reuse the existing machinery.** Each distinct predicate leaf is
//!   registered once in the [`AttributeIndex`], keyed by its DAG node id, so
//!   the per-event probe and the batch-aware [`ProbePlan`] (which groups a
//!   whole batch's probes by attribute run) work unchanged.
//! * **Evaluation is at most once per node per event.** Matching touches the
//!   fulfilled leaves, then sweeps scheduled interior nodes bottom-up in
//!   level order with generation-stamped value/schedule memos. A node whose
//!   inputs all hold their *default* value (the value under "no predicate
//!   fulfilled") is never scheduled — its value is known statically — so an
//!   event pays only for the part of the DAG it perturbs.
//! * **Removal reference-counts.** Every parent edge and every subscriber
//!   holds one reference; releasing the last one frees the slab slot,
//!   unregisters the leaf, and cascades to children, so churn never leaks.
//!
//! Match output is **byte-identical** to [`CountingEngine`](crate::CountingEngine):
//! id-sorted per event, deterministic, and differential-tested across batch
//! sizes on both sides of the probe fork, churn, and analyze on/off.
//!
//! The stage-0 pre-filter is per-*subscription* (kill a subscription before
//! counting); a shared leaf has no single owning subscription, so this engine
//! runs the probe plan without one. The lazy default-value scheduling plays
//! the same role: untouched regions of the DAG cost nothing.

use crate::config::EngineConfig;
use crate::index::{AttributeIndex, PredicateKey, SubSlot};
use crate::probe::ProbePlan;
use crate::{EngineReport, FilterStats, MatchSink, MatchingEngine};
use pubsub_core::analysis::{
    and_fingerprint, not_fingerprint, or_fingerprint, predicate_fingerprint,
};
use pubsub_core::{EventBatch, Expr, NodeId, Predicate, Subscription, SubscriptionId};
use selectivity::DiscriminationHint;
use std::collections::{BTreeMap, HashMap};
use std::mem::size_of;
use std::time::Instant;

/// Sentinel meaning "this node is not in the default-true root list".
const NOT_IN_LIST: u32 = u32::MAX;

/// The operator of one DAG node.
#[derive(Debug)]
enum DagKind {
    /// A predicate leaf (level 0), registered in the [`AttributeIndex`].
    Pred(Predicate),
    /// Conjunction over `children`; empty conjunctions are vacuously true.
    And,
    /// Disjunction over `children`; empty disjunctions are false.
    Or,
    /// Negation of the single child.
    Not,
}

/// One live DAG node.
#[derive(Debug)]
struct DagNode {
    kind: DagKind,
    /// Child node ids, **sorted** (duplicates retained so arity is
    /// preserved). Sorting makes structural equality a plain `Vec` compare
    /// and absorbs `And(a, b)` vs `And(b, a)`, matching the commutative
    /// fingerprint.
    children: Vec<u32>,
    /// One entry per parent *edge* (duplicates allowed when a parent lists
    /// this child twice). Used to propagate non-default values upward.
    parents: Vec<u32>,
    /// Subscriptions rooted at this node, sorted by id.
    subscribers: Vec<SubscriptionId>,
    /// Live references: one per parent edge plus one per subscriber. The
    /// node is freed when this reaches zero.
    refs: u32,
    /// Structural fingerprint — the hash-consing key.
    fp: u64,
}

impl DagNode {
    /// Structural equality against a candidate `(kind, children)` pair, used
    /// to verify fingerprint-bucket hits.
    fn matches(&self, kind: &DagKind, children: &[u32]) -> bool {
        if self.children != children {
            return false;
        }
        match (&self.kind, kind) {
            (DagKind::Pred(a), DagKind::Pred(b)) => a == b,
            (DagKind::And, DagKind::And)
            | (DagKind::Or, DagKind::Or)
            | (DagKind::Not, DagKind::Not) => true,
            _ => false,
        }
    }
}

/// Reusable per-event scratch, indexed by DAG node id. Generation-stamped:
/// "clearing" between events is one integer increment, and steady-state
/// matching performs no heap allocation here.
#[derive(Debug, Default)]
struct AtreeScratch {
    /// Truth value per node, valid only where `val_gen` is current.
    val: Vec<u8>,
    /// Generation stamp for `val`.
    val_gen: Vec<u32>,
    /// Generation stamp recording "already scheduled for evaluation".
    sched_gen: Vec<u32>,
    /// The generation of the event currently being matched.
    current_gen: u32,
    /// Scheduled interior nodes, bucketed by DAG level; swept ascending.
    pending: Vec<Vec<u32>>,
    /// Nodes with subscribers whose value was computed this event.
    touched_roots: Vec<u32>,
    /// Reusable per-event match buffer used by `match_batch`.
    match_buf: Vec<SubscriptionId>,
    /// Number of times any scratch buffer had to grow. Stable across calls
    /// in steady state; tests assert on it.
    grows: u64,
}

impl AtreeScratch {
    /// Starts a new event: bumps the generation and sizes the per-node
    /// buffers to cover `nodes` slab entries and `max_level` levels.
    fn advance(&mut self, nodes: usize, max_level: u32) {
        if self.val.len() < nodes {
            self.val.resize(nodes, 0);
            self.val_gen.resize(nodes, 0);
            self.sched_gen.resize(nodes, 0);
        }
        let want_levels = max_level as usize + 1;
        if self.pending.len() < want_levels {
            self.pending.resize_with(want_levels, Vec::new);
        }
        self.current_gen = self.current_gen.wrapping_add(1);
        if self.current_gen == 0 {
            // Generation wrap (once per 2³² events): physically reset the
            // stamps so ancient generations cannot alias the new one.
            self.val_gen.fill(0);
            self.sched_gen.fill(0);
            self.current_gen = 1;
        }
        self.touched_roots.clear();
    }

    /// Total number of scratch elements currently allocated.
    fn capacity(&self) -> usize {
        self.val.capacity()
            + self.val_gen.capacity()
            + self.sched_gen.capacity()
            + self.pending.capacity()
            + self.pending.iter().map(Vec::capacity).sum::<usize>()
            + self.touched_roots.capacity()
            + self.match_buf.capacity()
    }
}

/// Point-in-time memory footprint of the DAG, for the benchmark panel's
/// per-engine accounting. `slab_bytes` covers the matching structure itself —
/// node slab, child/parent/subscriber edge lists, string-constant heap of the
/// leaf predicates, the interning table, and the flat per-node arrays — and
/// deliberately excludes the engine-API `Subscription` storage, which is
/// identical across engines and never touched while matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtreeMemory {
    /// Live DAG nodes.
    pub node_count: usize,
    /// Parent→child edges (sum of child-list lengths).
    pub edge_count: usize,
    /// Bytes held by the DAG slab and its side tables.
    pub slab_bytes: usize,
}

/// The shared-subexpression (A-Tree) matching engine. See the module docs
/// for the DAG layout and evaluation order.
#[derive(Debug, Default)]
pub struct ATreeEngine {
    /// Slab of DAG nodes; freed slots are recycled via `free_nodes`.
    nodes: Vec<Option<DagNode>>,
    free_nodes: Vec<u32>,
    /// Per-node value under "no predicate fulfilled" (parallel to `nodes`):
    /// the statically known result for every unscheduled node.
    empty_vals: Vec<bool>,
    /// Per-node DAG level: 0 for leaves, `1 + max(child levels)` otherwise.
    levels: Vec<u32>,
    /// Highest level currently in the DAG (monotone; slots keep it simple).
    max_level: u32,
    /// Hash-consing table: fingerprint → candidate node ids (verified
    /// structurally, so a fingerprint collision costs a compare, not
    /// correctness).
    interned: HashMap<u64, Vec<u32>>,
    /// Subscription id → root node.
    id_to_root: HashMap<SubscriptionId, u32>,
    /// Registered subscriptions in id order (backs `get`/`subscriptions`).
    subs: BTreeMap<SubscriptionId, Subscription>,
    /// Roots with subscribers whose default value is *true* — like the
    /// counting engine's zero-`pmin` list, they match events that fulfil
    /// none of their predicates, but here an untouched root is emitted
    /// without any evaluation at all.
    default_true_roots: Vec<u32>,
    /// Position of each node inside `default_true_roots` (or
    /// [`NOT_IN_LIST`]), for O(1) membership updates.
    default_true_pos: Vec<u32>,
    /// Live node count (gauge source for `FilterStats::dag_nodes`).
    live_nodes: u64,
    /// Nodes with more than one reference (gauge source for
    /// `FilterStats::shared_subtrees`).
    shared_count: u64,
    index: AttributeIndex,
    /// Batch-probing scratch (shared with the counting engine's stage 1).
    probe: ProbePlan,
    scratch: AtreeScratch,
    stats: FilterStats,
    config: EngineConfig,
    /// Selectivity oracle for the registration-time analyzer, if any.
    hint: Option<DiscriminationHint>,
}

/// Value of node `c` for the current event: its memoized value if computed,
/// its static default otherwise.
#[inline]
fn node_val(val: &[u8], val_gen: &[u32], empty_vals: &[bool], gen: u32, c: u32) -> bool {
    let i = c as usize;
    if val_gen.get(i).copied() == Some(gen) {
        val[i] != 0
    } else {
        empty_vals.get(i).copied().unwrap_or(false)
    }
}

impl ATreeEngine {
    /// Creates an empty engine with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty engine with capacity for roughly `n` subscriptions.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(n),
            id_to_root: HashMap::with_capacity(n),
            ..Self::default()
        }
    }

    /// Creates an empty engine with the given configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// Point-in-time memory footprint of the DAG (see [`AtreeMemory`]).
    pub fn memory(&self) -> AtreeMemory {
        let mut edge_count = 0usize;
        let mut bytes = self.nodes.capacity() * size_of::<Option<DagNode>>();
        for node in self.nodes.iter().flatten() {
            edge_count += node.children.len();
            bytes += (node.children.capacity() + node.parents.capacity()) * size_of::<u32>()
                + node.subscribers.capacity() * size_of::<SubscriptionId>();
            if let DagKind::Pred(p) = &node.kind {
                bytes += p.size_bytes();
            }
        }
        bytes += self.free_nodes.capacity() * size_of::<u32>()
            + self.empty_vals.capacity()
            + (self.levels.capacity() + self.default_true_pos.capacity()) * size_of::<u32>()
            + self.default_true_roots.capacity() * size_of::<u32>()
            + self.interned.capacity() * size_of::<(u64, Vec<u32>)>()
            + self
                .interned
                .values()
                .map(|b| b.capacity() * size_of::<u32>())
                .sum::<usize>()
            + self.id_to_root.capacity() * size_of::<(SubscriptionId, u32)>();
        AtreeMemory {
            node_count: self.live_nodes as usize,
            edge_count,
            slab_bytes: bytes,
        }
    }

    /// Refreshes the structural gauges exposed through [`FilterStats`].
    fn refresh_gauges(&mut self) {
        self.stats.dag_nodes = self.live_nodes;
        self.stats.shared_subtrees = self.shared_count;
    }

    fn alloc_node(&mut self) -> u32 {
        if let Some(n) = self.free_nodes.pop() {
            return n;
        }
        let n = u32::try_from(self.nodes.len()).expect("DAG node slab exceeds u32 range");
        self.nodes.push(None);
        self.empty_vals.push(false);
        self.levels.push(0);
        self.default_true_pos.push(NOT_IN_LIST);
        n
    }

    /// The fingerprint of a live node (0 for a vacant slot — callers only
    /// pass ids they just interned).
    fn node_fp(&self, n: u32) -> u64 {
        self.nodes
            .get(n as usize)
            .and_then(|e| e.as_ref())
            .map_or(0, |e| e.fp)
    }

    /// Adds one reference to `n`, maintaining the shared gauge.
    fn bump_ref(&mut self, n: u32) {
        if let Some(node) = self.nodes.get_mut(n as usize).and_then(|e| e.as_mut()) {
            node.refs += 1;
            if node.refs == 2 {
                self.shared_count += 1;
            }
        }
    }

    /// Returns the node for `(fp, kind, children)`, reusing a structurally
    /// identical existing node or creating a fresh one. Because equality
    /// compares child *ids*, a hit guarantees every child of the candidate
    /// is exactly the child we interned — fresh children are never orphaned
    /// by a hit (a live candidate cannot reference a just-allocated id).
    fn intern(&mut self, fp: u64, kind: DagKind, children: Vec<u32>) -> u32 {
        if let Some(bucket) = self.interned.get(&fp) {
            for &cand in bucket {
                if self
                    .nodes
                    .get(cand as usize)
                    .and_then(|e| e.as_ref())
                    .is_some_and(|n| n.matches(&kind, &children))
                {
                    return cand;
                }
            }
        }
        self.create_node(fp, kind, children)
    }

    fn create_node(&mut self, fp: u64, kind: DagKind, children: Vec<u32>) -> u32 {
        let (level, empty) = match &kind {
            DagKind::Pred(_) => (0, false),
            DagKind::And => (
                1 + children
                    .iter()
                    .map(|&c| self.levels.get(c as usize).copied().unwrap_or(0))
                    .max()
                    .unwrap_or(0),
                children
                    .iter()
                    .all(|&c| self.empty_vals.get(c as usize).copied().unwrap_or(false)),
            ),
            DagKind::Or => (
                1 + children
                    .iter()
                    .map(|&c| self.levels.get(c as usize).copied().unwrap_or(0))
                    .max()
                    .unwrap_or(0),
                children
                    .iter()
                    .any(|&c| self.empty_vals.get(c as usize).copied().unwrap_or(false)),
            ),
            DagKind::Not => {
                let c = children.first().copied().unwrap_or(0);
                (
                    1 + self.levels.get(c as usize).copied().unwrap_or(0),
                    !self.empty_vals.get(c as usize).copied().unwrap_or(false),
                )
            }
        };
        let id = self.alloc_node();
        for &c in &children {
            if let Some(child) = self.nodes.get_mut(c as usize).and_then(|e| e.as_mut()) {
                child.parents.push(id);
            }
            self.bump_ref(c);
        }
        if let DagKind::Pred(p) = &kind {
            self.index
                .insert(p, PredicateKey::new(SubSlot(id), NodeId(0)));
        }
        let i = id as usize;
        self.empty_vals[i] = empty;
        self.levels[i] = level;
        self.max_level = self.max_level.max(level);
        self.nodes[i] = Some(DagNode {
            kind,
            children,
            parents: Vec::new(),
            subscribers: Vec::new(),
            refs: 0,
            fp,
        });
        self.interned.entry(fp).or_default().push(id);
        self.live_nodes += 1;
        id
    }

    /// Interns `expr` bottom-up, returning its DAG node.
    fn intern_expr(&mut self, expr: &Expr) -> u32 {
        match expr {
            Expr::Pred(p) => {
                let fp = predicate_fingerprint(p);
                self.intern(fp, DagKind::Pred(p.clone()), Vec::new())
            }
            Expr::And(children) => {
                let mut kids: Vec<u32> = children.iter().map(|c| self.intern_expr(c)).collect();
                let fps: Vec<u64> = kids.iter().map(|&k| self.node_fp(k)).collect();
                let fp = and_fingerprint(&fps);
                kids.sort_unstable();
                self.intern(fp, DagKind::And, kids)
            }
            Expr::Or(children) => {
                let mut kids: Vec<u32> = children.iter().map(|c| self.intern_expr(c)).collect();
                let fps: Vec<u64> = kids.iter().map(|&k| self.node_fp(k)).collect();
                let fp = or_fingerprint(&fps);
                kids.sort_unstable();
                self.intern(fp, DagKind::Or, kids)
            }
            Expr::Not(child) => {
                let k = self.intern_expr(child);
                let fp = not_fingerprint(self.node_fp(k));
                self.intern(fp, DagKind::Not, vec![k])
            }
        }
    }

    fn default_true_insert(&mut self, n: u32) {
        let i = n as usize;
        if self.default_true_pos.get(i).copied() != Some(NOT_IN_LIST) {
            return;
        }
        self.default_true_pos[i] = u32::try_from(self.default_true_roots.len())
            .expect("default-true list exceeds u32 range");
        self.default_true_roots.push(n);
    }

    /// O(1) removal from the default-true root list via the position map and
    /// `swap_remove`.
    fn default_true_remove(&mut self, n: u32) {
        let i = n as usize;
        let Some(&pos) = self.default_true_pos.get(i) else {
            return;
        };
        if pos == NOT_IN_LIST {
            return;
        }
        self.default_true_pos[i] = NOT_IN_LIST;
        self.default_true_roots.swap_remove(pos as usize);
        if let Some(&moved) = self.default_true_roots.get(pos as usize) {
            self.default_true_pos[moved as usize] = pos;
        }
    }

    fn add_subscriber(&mut self, root: u32, id: SubscriptionId) {
        let mut first = false;
        if let Some(node) = self.nodes.get_mut(root as usize).and_then(|e| e.as_mut()) {
            if let Err(pos) = node.subscribers.binary_search(&id) {
                node.subscribers.insert(pos, id);
            }
            first = node.subscribers.len() == 1;
        }
        if first && self.empty_vals.get(root as usize).copied().unwrap_or(false) {
            self.default_true_insert(root);
        }
        self.bump_ref(root);
    }

    fn remove_subscriber(&mut self, root: u32, id: SubscriptionId) {
        let mut emptied = false;
        if let Some(node) = self.nodes.get_mut(root as usize).and_then(|e| e.as_mut()) {
            if let Ok(pos) = node.subscribers.binary_search(&id) {
                node.subscribers.remove(pos);
            }
            emptied = node.subscribers.is_empty();
        }
        if emptied {
            self.default_true_remove(root);
        }
        self.release(root);
    }

    /// Drops one reference from `node`, freeing it (and cascading to its
    /// children) when the last reference goes away.
    fn release(&mut self, node: u32) {
        let mut work = vec![node];
        while let Some(n) = work.pop() {
            let freed = {
                let Some(entry) = self.nodes.get_mut(n as usize).and_then(|e| e.as_mut()) else {
                    continue;
                };
                entry.refs = entry.refs.saturating_sub(1);
                if entry.refs == 1 {
                    self.shared_count = self.shared_count.saturating_sub(1);
                }
                entry.refs == 0
            };
            if !freed {
                continue;
            }
            let Some(entry) = self.nodes.get_mut(n as usize).and_then(|e| e.take()) else {
                continue;
            };
            if let Some(bucket) = self.interned.get_mut(&entry.fp) {
                if let Some(pos) = bucket.iter().position(|&x| x == n) {
                    bucket.swap_remove(pos);
                }
                if bucket.is_empty() {
                    self.interned.remove(&entry.fp);
                }
            }
            if let DagKind::Pred(p) = &entry.kind {
                self.index
                    .remove(p, PredicateKey::new(SubSlot(n), NodeId(0)));
            }
            self.default_true_remove(n);
            for &c in &entry.children {
                if let Some(child) = self.nodes.get_mut(c as usize).and_then(|e| e.as_mut()) {
                    if let Some(pos) = child.parents.iter().position(|&x| x == n) {
                        child.parents.swap_remove(pos);
                    }
                }
                work.push(c);
            }
            self.free_nodes.push(n);
            self.live_nodes = self.live_nodes.saturating_sub(1);
        }
    }

    /// The per-event core shared by both probe front ends of `match_batch`.
    ///
    /// `feed` delivers the event's fulfilled leaf nodes (from the probe
    /// plan's CSR slice or a live index probe); the core then sweeps the
    /// scheduled interior nodes bottom-up in level order, memoizing each
    /// shared node's value once, and emits the id-sorted matches.
    #[allow(clippy::too_many_arguments)] // engine fields passed piecewise, as in the counting engine
    fn sweep_event(
        nodes: &[Option<DagNode>],
        empty_vals: &[bool],
        levels: &[u32],
        max_level: u32,
        default_true_roots: &[u32],
        scratch: &mut AtreeScratch,
        stats: &mut FilterStats,
        feed: impl FnOnce(&mut dyn FnMut(u32)),
        matches: &mut Vec<SubscriptionId>,
    ) {
        matches.clear();
        scratch.advance(nodes.len(), max_level);
        let AtreeScratch {
            val,
            val_gen,
            sched_gen,
            current_gen,
            pending,
            touched_roots,
            ..
        } = scratch;
        let gen = *current_gen;
        let mut fulfilled = 0u64;
        let mut evaluated = 0u64;
        let mut saved = 0u64;

        // Stage 1: touch the fulfilled leaves. Idempotent per node (the
        // index may report a leaf more than once) and schedules every
        // parent of a touched leaf — a leaf's true differs from its false
        // default by construction.
        {
            let mut touch = |n: u32| {
                let i = n as usize;
                if val_gen.get(i).copied() == Some(gen) {
                    return;
                }
                let Some(node) = nodes.get(i).and_then(|e| e.as_ref()) else {
                    return;
                };
                val_gen[i] = gen;
                val[i] = 1;
                fulfilled += 1;
                if node.refs > 1 {
                    saved += u64::from(node.refs) - 1;
                }
                if !node.subscribers.is_empty() {
                    touched_roots.push(n);
                }
                for &p in &node.parents {
                    let pi = p as usize;
                    if sched_gen.get(pi).copied() != Some(gen) {
                        sched_gen[pi] = gen;
                        let lvl = levels.get(pi).copied().unwrap_or(0) as usize;
                        if let Some(q) = pending.get_mut(lvl) {
                            q.push(p);
                        }
                    }
                }
            };
            feed(&mut touch);
        }

        // Stage 2: bottom-up level sweep. A node is only ever scheduled by a
        // strictly lower level, so each level's queue is complete when its
        // turn comes; by induction an *unscheduled* node's children all hold
        // their defaults, hence its value is its own default — exactly what
        // `node_val` returns for it.
        let mut lvl = 1usize;
        while lvl < pending.len() {
            let mut idx = 0usize;
            while let Some(&n) = pending[lvl].get(idx) {
                idx += 1;
                let i = n as usize;
                let Some(node) = nodes.get(i).and_then(|e| e.as_ref()) else {
                    continue;
                };
                let v = match &node.kind {
                    DagKind::And => node
                        .children
                        .iter()
                        .all(|&c| node_val(val, val_gen, empty_vals, gen, c)),
                    DagKind::Or => node
                        .children
                        .iter()
                        .any(|&c| node_val(val, val_gen, empty_vals, gen, c)),
                    DagKind::Not => !node
                        .children
                        .first()
                        .is_some_and(|&c| node_val(val, val_gen, empty_vals, gen, c)),
                    // Leaves live at level 0 and are never scheduled; keep
                    // the arm total anyway.
                    DagKind::Pred(_) => node_val(val, val_gen, empty_vals, gen, n),
                };
                evaluated += 1;
                if node.refs > 1 {
                    saved += u64::from(node.refs) - 1;
                }
                val[i] = u8::from(v);
                val_gen[i] = gen;
                if !node.subscribers.is_empty() {
                    touched_roots.push(n);
                }
                if v != empty_vals.get(i).copied().unwrap_or(false) {
                    for &p in &node.parents {
                        let pi = p as usize;
                        if sched_gen.get(pi).copied() != Some(gen) {
                            sched_gen[pi] = gen;
                            let plvl = levels.get(pi).copied().unwrap_or(0) as usize;
                            if let Some(q) = pending.get_mut(plvl) {
                                q.push(p);
                            }
                        }
                    }
                }
            }
            pending[lvl].clear();
            lvl += 1;
        }

        stats.predicates_fulfilled += fulfilled;
        stats.trees_evaluated += evaluated;
        stats.node_evals_saved += saved;
        stats.stage2_candidates += touched_roots.len() as u64;

        // Emit: computed roots that came out true, plus untouched
        // default-true roots (their value is statically true). Subscriber
        // lists are disjoint across roots, so a sort suffices for the
        // deterministic id order that keeps this engine byte-identical to
        // the counting engine.
        for &r in touched_roots.iter() {
            let i = r as usize;
            if val.get(i).copied() != Some(1) {
                continue;
            }
            if let Some(node) = nodes.get(i).and_then(|e| e.as_ref()) {
                matches.extend_from_slice(&node.subscribers);
            }
        }
        for &r in default_true_roots {
            let i = r as usize;
            if val_gen.get(i).copied() == Some(gen) {
                continue;
            }
            if let Some(node) = nodes.get(i).and_then(|e| e.as_ref()) {
                matches.extend_from_slice(&node.subscribers);
            }
        }
        matches.sort_unstable();
        stats.matches += matches.len() as u64;
    }
}

impl MatchingEngine for ATreeEngine {
    fn insert(&mut self, subscription: Subscription) {
        let id = subscription.id();
        let subscription = match crate::analyze::analyze_for_insert(
            self.config,
            self.hint.as_ref(),
            &mut self.stats,
            subscription,
        ) {
            Some(subscription) => subscription,
            None => {
                // Unsatisfiable: never interned. Dropping any previous
                // version keeps replacement semantics.
                self.remove(id);
                return;
            }
        };
        if let Some(old_root) = self.id_to_root.remove(&id) {
            // Replacement: detach the old tree first so its now-unshared
            // nodes are freed before the new tree interns.
            self.remove_subscriber(old_root, id);
        }
        let root = self.intern_expr(&subscription.tree().to_expr());
        self.add_subscriber(root, id);
        self.id_to_root.insert(id, root);
        self.subs.insert(id, subscription);
        self.refresh_gauges();
    }

    fn remove(&mut self, id: SubscriptionId) -> Option<Subscription> {
        let sub = self.subs.remove(&id)?;
        if let Some(root) = self.id_to_root.remove(&id) {
            self.remove_subscriber(root, id);
        }
        self.refresh_gauges();
        Some(sub)
    }

    fn get(&self, id: SubscriptionId) -> Option<&Subscription> {
        self.subs.get(&id)
    }

    fn match_batch(&mut self, batch: &EventBatch, sink: &mut dyn MatchSink) {
        let start = Instant::now();
        sink.begin_batch(batch.len());
        self.index.ensure_built();
        let scratch_capacity_before = self.scratch.capacity() + self.probe.capacity_bytes();

        let mut buf = std::mem::take(&mut self.scratch.match_buf);
        {
            let Self {
                nodes,
                empty_vals,
                levels,
                max_level,
                default_true_roots,
                index,
                probe,
                scratch,
                stats,
                ..
            } = self;
            if batch.len() >= 2 {
                // Batch path: probe the whole batch attribute-group by
                // attribute-group, then run the DAG sweep per event over
                // the plan's CSR slices.
                probe.run(batch, index, None);
                for index_in_batch in 0..batch.len() {
                    let keys = probe.emitted(index_in_batch);
                    Self::sweep_event(
                        nodes,
                        empty_vals,
                        levels,
                        *max_level,
                        default_true_roots,
                        scratch,
                        stats,
                        |touch| {
                            for key in keys {
                                touch(key.slot.0);
                            }
                        },
                        &mut buf,
                    );
                    for &id in buf.iter() {
                        sink.on_match(index_in_batch, id);
                    }
                }
            } else {
                // A one-event batch probes the index directly, as in the
                // counting engine: forcing one-event batches through
                // `ProbePlan` cost the `line_single` perfbench workload
                // 12.6% of its median `publish_eps`, so this front end
                // stays.
                for index_in_batch in 0..batch.len() {
                    Self::sweep_event(
                        nodes,
                        empty_vals,
                        levels,
                        *max_level,
                        default_true_roots,
                        scratch,
                        stats,
                        |touch| {
                            index.fulfilled_pairs(batch.resolved(index_in_batch), |key| {
                                touch(key.slot.0)
                            });
                        },
                        &mut buf,
                    );
                    for &id in buf.iter() {
                        sink.on_match(index_in_batch, id);
                    }
                }
            }
        }
        self.scratch.match_buf = buf;

        if self.scratch.capacity() + self.probe.capacity_bytes() > scratch_capacity_before {
            self.scratch.grows += 1;
        }
        self.stats.batches_filtered += 1;
        self.stats.events_filtered += batch.len() as u64;
        self.stats.filter_time += start.elapsed();
    }

    fn len(&self) -> usize {
        self.subs.len()
    }

    fn stats(&self) -> &FilterStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = FilterStats::new();
        self.refresh_gauges();
    }

    fn report(&self) -> EngineReport {
        EngineReport {
            subscription_count: self.subs.len(),
            association_count: self.index.len(),
            tree_bytes: self.memory().slab_bytes,
        }
    }

    /// Iterates over the registered subscriptions in id order.
    fn subscriptions(&self) -> Box<dyn Iterator<Item = &Subscription> + '_> {
        Box::new(self.subs.values())
    }

    /// Only the `analyze` half has an effect here; the stage-0 pre-filter
    /// mode is ignored (see the module docs).
    fn config(&self) -> EngineConfig {
        self.config
    }

    /// Affects subsequent insertions only.
    fn set_config(&mut self, config: EngineConfig) {
        self.config = config;
    }

    /// The A-Tree uses the hint only as the analyzer's selectivity oracle at
    /// registration.
    fn set_discrimination_hint(&mut self, hint: Option<DiscriminationHint>) {
        self.hint = hint;
    }

    fn scratch_capacity(&self) -> usize {
        self.scratch.capacity() + self.probe.capacity_bytes()
    }

    fn scratch_grows(&self) -> u64 {
        self.scratch.grows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalyzeMode, CountingEngine, NaiveEngine, VecSink};
    use pubsub_core::{EventMessage, Expr, SubscriberId};

    fn sub(id: u64, expr: &Expr) -> Subscription {
        Subscription::from_expr(
            SubscriptionId::from_raw(id),
            SubscriberId::from_raw(id),
            expr,
        )
    }

    fn book_event(category: &str, price: i64, bids: i64) -> EventMessage {
        EventMessage::builder()
            .attr("category", category)
            .attr("price", price)
            .attr("bids", bids)
            .build()
    }

    #[test]
    fn basic_conjunction_matching() {
        let mut e = ATreeEngine::new();
        e.insert(sub(
            1,
            &Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::le("price", 20i64),
            ]),
        ));
        assert_eq!(
            e.match_event(&book_event("books", 10, 0)),
            vec![SubscriptionId::from_raw(1)]
        );
        assert!(e.match_event(&book_event("books", 30, 0)).is_empty());
        assert!(e.match_event(&book_event("music", 10, 0)).is_empty());
    }

    #[test]
    fn negation_only_subscriptions_are_always_matched_by_default() {
        let mut e = ATreeEngine::new();
        e.insert(sub(1, &Expr::not(Expr::eq("category", "books"))));
        assert_eq!(
            e.match_event(&book_event("music", 10, 0)),
            vec![SubscriptionId::from_raw(1)]
        );
        assert!(e.match_event(&book_event("books", 10, 0)).is_empty());
        // An event without the attribute still matches the negation — the
        // untouched default-true root is emitted without any evaluation.
        let bare = EventMessage::builder().attr("other", 1i64).build();
        assert_eq!(e.match_event(&bare), vec![SubscriptionId::from_raw(1)]);
    }

    #[test]
    fn identical_subscriptions_share_one_root() {
        let mut e = ATreeEngine::new();
        let expr = Expr::and(vec![
            Expr::eq("category", "books"),
            Expr::le("price", 20i64),
        ]);
        for id in 1..=10u64 {
            e.insert(sub(id, &expr));
        }
        // Two leaves + one And node, regardless of subscription count.
        let mem = e.memory();
        assert_eq!(mem.node_count, 3);
        assert_eq!(mem.edge_count, 2);
        assert_eq!(e.stats().dag_nodes, 3);
        // The root carries 10 subscriber references — shared.
        assert_eq!(e.stats().shared_subtrees, 1);
        let hits = e.match_event(&book_event("books", 5, 0));
        assert_eq!(hits.len(), 10);
        // One shared root evaluation instead of ten tree evaluations.
        assert_eq!(e.stats().trees_evaluated, 1);
        assert!(e.stats().node_evals_saved >= 9);
    }

    #[test]
    fn overlapping_subscriptions_share_subexpressions() {
        let mut e = ATreeEngine::new();
        let common = Expr::and(vec![
            Expr::eq("category", "books"),
            Expr::le("price", 20i64),
        ]);
        // Each subscription shares `common` but adds its own disjunct.
        for id in 1..=8u64 {
            e.insert(sub(
                id,
                &Expr::or(vec![common.clone(), Expr::ge("bids", id as i64 + 10)]),
            ));
        }
        assert!(e.stats().shared_subtrees > 0);
        // Far fewer live nodes than 8 independent trees (8 × 4 nodes).
        assert!(e.stats().dag_nodes < 24);
        let hits = e.match_event(&book_event("books", 5, 0));
        assert_eq!(hits.len(), 8);
        assert!(e.stats().node_evals_saved > 0);
    }

    #[test]
    fn insert_with_same_id_replaces_and_reindexes() {
        let mut e = ATreeEngine::new();
        e.insert(sub(
            1,
            &Expr::and(vec![
                Expr::eq("category", "books"),
                Expr::le("price", 20i64),
            ]),
        ));
        assert_eq!(e.report().association_count, 2);
        assert_eq!(e.memory().node_count, 3);
        e.insert(sub(1, &Expr::eq("category", "books")));
        assert_eq!(e.len(), 1);
        // The old And and the price leaf were released; only the shared
        // category leaf (now the root) survives.
        assert_eq!(e.report().association_count, 1);
        assert_eq!(e.memory().node_count, 1);
        assert_eq!(
            e.match_event(&book_event("books", 100, 0)),
            vec![SubscriptionId::from_raw(1)]
        );
    }

    #[test]
    fn churn_never_leaks_slab_entries() {
        let mut e = ATreeEngine::new();
        let exprs: Vec<Expr> = (0..20)
            .map(|i| {
                Expr::and(vec![
                    Expr::eq("category", if i % 2 == 0 { "books" } else { "music" }),
                    Expr::le("price", (i % 5) as i64),
                ])
            })
            .collect();
        for (i, expr) in exprs.iter().enumerate() {
            e.insert(sub(i as u64 + 1, expr));
        }
        let slab_len = e.nodes.len();
        for i in 0..20u64 {
            e.remove(SubscriptionId::from_raw(i + 1)).unwrap();
        }
        assert_eq!(e.memory().node_count, 0);
        assert_eq!(e.stats().dag_nodes, 0);
        assert_eq!(e.stats().shared_subtrees, 0);
        assert!(e.interned.is_empty());
        assert_eq!(e.index.len(), 0);
        // Re-inserting the same population reuses the freed slots.
        for (i, expr) in exprs.iter().enumerate() {
            e.insert(sub(i as u64 + 1, expr));
        }
        assert_eq!(e.nodes.len(), slab_len);
        // Five insert/remove cycles later the slab still has not grown.
        for _ in 0..5 {
            for i in 0..20u64 {
                e.remove(SubscriptionId::from_raw(i + 1)).unwrap();
            }
            for (i, expr) in exprs.iter().enumerate() {
                e.insert(sub(i as u64 + 1, expr));
            }
        }
        assert_eq!(e.nodes.len(), slab_len);
    }

    #[test]
    fn duplicate_predicates_within_one_subscription() {
        let mut e = ATreeEngine::new();
        // The same predicate appears in both OR branches — one shared leaf.
        e.insert(sub(
            1,
            &Expr::or(vec![
                Expr::and(vec![
                    Expr::eq("category", "books"),
                    Expr::le("price", 10i64),
                ]),
                Expr::and(vec![Expr::eq("category", "books"), Expr::ge("bids", 3i64)]),
            ]),
        ));
        // Three distinct leaves (category shared), two Ands, one Or.
        assert_eq!(e.report().association_count, 3);
        assert!(e.stats().shared_subtrees >= 1);
        assert_eq!(
            e.match_event(&book_event("books", 5, 0)),
            vec![SubscriptionId::from_raw(1)]
        );
        assert_eq!(
            e.match_event(&book_event("books", 50, 5)),
            vec![SubscriptionId::from_raw(1)]
        );
        assert!(e.match_event(&book_event("books", 50, 0)).is_empty());
    }

    #[test]
    fn matches_are_sorted_by_subscription_id() {
        let mut e = ATreeEngine::new();
        for id in (1..=20u64).rev() {
            e.insert(sub(id, &Expr::eq("category", "books")));
        }
        let hits = e.match_event(&book_event("books", 1, 0));
        let expected: Vec<SubscriptionId> = (1..=20).map(SubscriptionId::from_raw).collect();
        assert_eq!(hits, expected);
    }

    #[test]
    fn unsatisfiable_subscriptions_are_rejected() {
        let mut e = ATreeEngine::new();
        e.insert(sub(
            1,
            &Expr::and(vec![Expr::gt("x", 5i64), Expr::lt("x", 3i64)]),
        ));
        assert_eq!(e.len(), 0);
        assert_eq!(e.stats().unsatisfiable_rejected, 1);
        assert_eq!(e.memory().node_count, 0);
        let ev = EventMessage::builder().attr("x", 4i64).build();
        assert!(e.match_event(&ev).is_empty());
    }

    #[test]
    fn batch_path_agrees_with_single_event_path() {
        let mut batch_engine = ATreeEngine::new();
        let mut single_engine = ATreeEngine::new();
        for i in 0..50u64 {
            let expr = Expr::or(vec![
                Expr::and(vec![
                    Expr::eq("category", if i % 3 == 0 { "books" } else { "music" }),
                    Expr::le("price", (i % 20) as i64),
                ]),
                Expr::not(Expr::ge("bids", (i % 7) as i64)),
            ]);
            batch_engine.insert(sub(i + 1, &expr));
            single_engine.insert(sub(i + 1, &expr));
        }
        let events: Vec<EventMessage> = (0..30)
            .map(|i| book_event(if i % 2 == 0 { "books" } else { "music" }, i, i % 9))
            .collect();
        let batch: EventBatch = events.iter().cloned().collect();
        let mut sink = VecSink::new();
        batch_engine.match_batch(&batch, &mut sink);
        let mut from_batch: Vec<Vec<SubscriptionId>> = vec![Vec::new(); events.len()];
        for &(i, id) in sink.matches() {
            from_batch[i].push(id);
        }
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(from_batch[i], single_engine.match_event(ev), "event {i}");
        }
    }

    #[test]
    fn agrees_with_counting_and_naive_on_a_deterministic_workload() {
        let mut atree = ATreeEngine::new();
        let mut counting = CountingEngine::new();
        let mut naive = NaiveEngine::new();
        let categories = ["books", "music", "games"];
        let mut next_id = 0u64;
        for (i, cat) in categories.iter().enumerate() {
            for price in [5i64, 15, 25] {
                for expr in [
                    Expr::and(vec![Expr::eq("category", *cat), Expr::le("price", price)]),
                    Expr::or(vec![
                        Expr::eq("category", *cat),
                        Expr::gt("bids", (i as i64) * 2),
                    ]),
                    Expr::and(vec![
                        Expr::ne("category", *cat),
                        Expr::not(Expr::ge("price", price)),
                    ]),
                ] {
                    next_id += 1;
                    atree.insert(sub(next_id, &expr));
                    counting.insert(sub(next_id, &expr));
                    naive.insert(sub(next_id, &expr));
                }
            }
        }
        for cat in ["books", "music", "games", "tools"] {
            for price in 0..30i64 {
                let ev = book_event(cat, price, price % 7);
                let a = atree.match_event(&ev);
                let b = counting.match_event(&ev);
                let c = naive.match_event(&ev);
                assert_eq!(a, b, "atree vs counting for category={cat} price={price}");
                assert_eq!(a, c, "atree vs naive for category={cat} price={price}");
            }
        }
    }

    #[test]
    fn analyze_off_still_inserts_raw_trees_correctly() {
        let config = EngineConfig::default().analyze(AnalyzeMode::Off);
        let mut atree = ATreeEngine::with_config(config);
        let mut counting = CountingEngine::with_config(config);
        // Raw, non-normalized shapes: nested Ands, duplicate children,
        // double negation.
        let exprs = [
            Expr::and(vec![
                Expr::and(vec![Expr::eq("category", "books"), Expr::le("price", 9i64)]),
                Expr::eq("category", "books"),
            ]),
            Expr::not(Expr::not(Expr::ge("bids", 2i64))),
            Expr::or(vec![
                Expr::eq("category", "music"),
                Expr::eq("category", "music"),
            ]),
        ];
        for (i, expr) in exprs.iter().enumerate() {
            atree.insert(sub(i as u64 + 1, expr));
            counting.insert(sub(i as u64 + 1, expr));
        }
        for cat in ["books", "music", "tools"] {
            for price in 0..12i64 {
                let ev = book_event(cat, price, price % 4);
                assert_eq!(
                    atree.match_event(&ev),
                    counting.match_event(&ev),
                    "category={cat} price={price}"
                );
            }
        }
    }

    #[test]
    fn stats_accumulate_and_reset_preserving_gauges() {
        let mut e = ATreeEngine::new();
        let expr = Expr::eq("category", "books");
        e.insert(sub(1, &expr));
        e.insert(sub(2, &expr));
        e.match_event(&book_event("books", 1, 1));
        e.match_event(&book_event("music", 1, 1));
        assert_eq!(e.stats().events_filtered, 2);
        assert_eq!(e.stats().matches, 2);
        assert_eq!(e.stats().dag_nodes, 1);
        assert_eq!(e.stats().shared_subtrees, 1);
        e.reset_stats();
        assert_eq!(e.stats().events_filtered, 0);
        assert_eq!(e.stats().node_evals_saved, 0);
        // Gauges describe the registered population, not the traffic — they
        // survive a stats reset.
        assert_eq!(e.stats().dag_nodes, 1);
        assert_eq!(e.stats().shared_subtrees, 1);
    }

    #[test]
    fn report_and_memory_track_the_dag() {
        let mut e = ATreeEngine::new();
        for i in 0..10u64 {
            e.insert(sub(
                i + 1,
                &Expr::and(vec![
                    Expr::eq("category", "books"),
                    Expr::le("price", (i % 3) as i64),
                    Expr::ge("bids", 1i64),
                ]),
            ));
        }
        let r = e.report();
        assert_eq!(r.subscription_count, 10);
        // Distinct leaves: category, bids, and three price thresholds.
        assert_eq!(r.association_count, 5);
        assert!(r.tree_bytes > 0);
        let mem = e.memory();
        assert_eq!(mem.node_count as u64, e.stats().dag_nodes);
        assert!(mem.edge_count >= mem.node_count - e.report().association_count);
        assert_eq!(mem.slab_bytes, r.tree_bytes);
    }

    #[test]
    fn steady_state_matching_reuses_scratch() {
        let mut e = ATreeEngine::new();
        for i in 0..200u64 {
            e.insert(sub(
                i,
                &Expr::and(vec![
                    Expr::eq("category", if i % 2 == 0 { "books" } else { "music" }),
                    Expr::le("price", (i % 30) as i64),
                ]),
            ));
        }
        let events: Vec<EventMessage> = (0..40)
            .map(|i| book_event(if i % 2 == 0 { "books" } else { "music" }, i, i % 7))
            .collect();
        for ev in &events {
            e.match_event(ev);
        }
        let grows = e.scratch_grows();
        let capacity = e.scratch_capacity();
        for _ in 0..5 {
            for ev in &events {
                e.match_event(ev);
            }
        }
        assert_eq!(
            e.scratch_grows(),
            grows,
            "scratch reallocated in steady state"
        );
        assert_eq!(e.scratch_capacity(), capacity);
    }
}
