//! Shared-memory SAS variants (paper §4.2.3).
//!
//! "If our target hardware systems support shared global memory, then we can
//! use globally shared memory to store the SAS. However ... we may not want
//! to pay the synchronization cost of contention for such a globally shared
//! data structure. Fortunately, we can still use the SAS approach if we
//! duplicate the SAS on each node of a parallel computer."
//!
//! [`GlobalSas`] is the single globally-shared structure (one lock);
//! [`ShardedSas`] duplicates one SAS per node with no shared state between
//! them. The contention difference is measured in `benches/sas_ops.rs`.

use crate::model::{Namespace, SentenceId};
use crate::sas::local::{LocalSas, SasStats, Snapshot};
use crate::sas::question::{Question, QuestionExpr, QuestionId};
use crate::util::{CachePadded, Mutex};
use std::sync::Arc;

/// The operations monitoring code performs against a SAS, regardless of how
/// it is stored. All methods take `&self`; implementations synchronise
/// internally.
pub trait SasHandle: Send + Sync {
    /// Notifies that `sid` became active.
    fn activate(&self, sid: SentenceId);
    /// Notifies that `sid` became inactive.
    fn deactivate(&self, sid: SentenceId);
    /// True if `sid` is currently active.
    fn is_active(&self, sid: SentenceId) -> bool;
    /// Point-in-time contents.
    fn snapshot(&self) -> Snapshot;
    /// Registers a conjunction question.
    fn register_question(&self, q: &Question) -> QuestionId;
    /// Registers a boolean-expression question.
    fn register_expr(&self, name: &str, expr: &QuestionExpr) -> QuestionId;
    /// True if all components of `qid` are satisfied right now.
    fn satisfied(&self, qid: QuestionId) -> bool;
    /// Traffic counters.
    fn stats(&self) -> SasStats;
}

/// A single SAS in "globally shared memory": every node contends on one
/// mutex. Kept primarily as the baseline the paper argues against.
#[derive(Clone)]
pub struct GlobalSas {
    inner: Arc<Mutex<LocalSas>>,
}

impl GlobalSas {
    /// Creates an empty global SAS.
    pub fn new(ns: Namespace) -> Self {
        Self {
            inner: Arc::new(Mutex::new(LocalSas::new(ns))),
        }
    }

    /// Runs `f` with exclusive access to the underlying [`LocalSas`].
    pub fn with<R>(&self, f: impl FnOnce(&mut LocalSas) -> R) -> R {
        f(&mut self.inner.lock())
    }
}

impl SasHandle for GlobalSas {
    fn activate(&self, sid: SentenceId) {
        self.inner.lock().activate(sid);
    }

    fn deactivate(&self, sid: SentenceId) {
        self.inner.lock().deactivate(sid);
    }

    fn is_active(&self, sid: SentenceId) -> bool {
        self.inner.lock().is_active(sid)
    }

    fn snapshot(&self) -> Snapshot {
        self.inner.lock().snapshot()
    }

    fn register_question(&self, q: &Question) -> QuestionId {
        self.inner.lock().register_question(q)
    }

    fn register_expr(&self, name: &str, expr: &QuestionExpr) -> QuestionId {
        self.inner.lock().register_expr(name, expr)
    }

    fn satisfied(&self, qid: QuestionId) -> bool {
        self.inner.lock().satisfied(qid)
    }

    fn stats(&self) -> SasStats {
        self.inner.lock().stats()
    }
}

/// One SAS per node, "just as application code is duplicated for Single
/// Program Multiple Data (SPMD) programs". Each node's SAS operates
/// independently; questions are registered on every node so per-node
/// satisfaction can be checked without communication.
pub struct ShardedSas {
    ns: Namespace,
    shards: Vec<CachePadded<Mutex<LocalSas>>>,
}

impl ShardedSas {
    /// Creates `nodes` independent per-node SASes.
    pub fn new(ns: Namespace, nodes: usize) -> Self {
        assert!(nodes > 0, "a machine has at least one node");
        let shards = (0..nodes)
            .map(|_| CachePadded::new(Mutex::new(LocalSas::new(ns.clone()))))
            .collect();
        Self { ns, shards }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.shards.len()
    }

    /// The shared namespace.
    pub fn namespace(&self) -> &Namespace {
        &self.ns
    }

    /// A handle confined to one node's SAS; cheap and lock-free to create.
    pub fn node(&self, node: usize) -> NodeSas<'_> {
        NodeSas {
            shard: &self.shards[node],
        }
    }

    /// Registers a conjunction question on **every** node, returning the
    /// (identical) per-node id. Paper: "Each individual SAS can operate
    /// independently of others as long [as] performance questions are not
    /// asked that require information from several SASs."
    pub fn register_question_all(&self, q: &Question) -> QuestionId {
        let mut last = None;
        for shard in &self.shards {
            let qid = shard.lock().register_question(q);
            if let Some(prev) = last {
                assert_eq!(prev, qid, "question ids diverged across nodes");
            }
            last = Some(qid);
        }
        last.expect("at least one node")
    }

    /// Registers an expression question on every node.
    pub fn register_expr_all(&self, name: &str, expr: &QuestionExpr) -> QuestionId {
        let mut last = None;
        for shard in &self.shards {
            let qid = shard.lock().register_expr(name, expr);
            if let Some(prev) = last {
                assert_eq!(prev, qid, "question ids diverged across nodes");
            }
            last = Some(qid);
        }
        last.expect("at least one node")
    }

    /// Is `qid` satisfied on the given node?
    pub fn satisfied_on(&self, node: usize, qid: QuestionId) -> bool {
        self.shards[node].lock().satisfied(qid)
    }

    /// Runs `f` with exclusive access to one node's [`LocalSas`].
    pub fn with_node<R>(&self, node: usize, f: impl FnOnce(&mut LocalSas) -> R) -> R {
        f(&mut self.shards[node].lock())
    }

    /// Aggregated traffic counters across all nodes.
    pub fn total_stats(&self) -> SasStats {
        let mut total = SasStats::default();
        for shard in &self.shards {
            let s = shard.lock().stats();
            total.activations += s.activations;
            total.deactivations += s.deactivations;
            total.filtered += s.filtered;
            total.unbalanced_deactivations += s.unbalanced_deactivations;
        }
        total
    }
}

/// A [`SasHandle`] view of one node of a [`ShardedSas`].
pub struct NodeSas<'a> {
    shard: &'a CachePadded<Mutex<LocalSas>>,
}

impl SasHandle for NodeSas<'_> {
    fn activate(&self, sid: SentenceId) {
        self.shard.lock().activate(sid);
    }

    fn deactivate(&self, sid: SentenceId) {
        self.shard.lock().deactivate(sid);
    }

    fn is_active(&self, sid: SentenceId) -> bool {
        self.shard.lock().is_active(sid)
    }

    fn snapshot(&self) -> Snapshot {
        self.shard.lock().snapshot()
    }

    fn register_question(&self, q: &Question) -> QuestionId {
        self.shard.lock().register_question(q)
    }

    fn register_expr(&self, name: &str, expr: &QuestionExpr) -> QuestionId {
        self.shard.lock().register_expr(name, expr)
    }

    fn satisfied(&self, qid: QuestionId) -> bool {
        self.shard.lock().satisfied(qid)
    }

    fn stats(&self) -> SasStats {
        self.shard.lock().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sas::question::SentencePattern;

    fn ns_with() -> (
        Namespace,
        crate::model::VerbId,
        crate::model::NounId,
        crate::model::NounId,
    ) {
        let ns = Namespace::new();
        let l = ns.level("HPF");
        let sum = ns.verb(l, "Sums", "");
        let a = ns.noun(l, "A", "");
        let b = ns.noun(l, "B", "");
        (ns, sum, a, b)
    }

    #[test]
    fn global_sas_is_shared_across_threads() {
        let (ns, sum, a, _) = ns_with();
        let sas = GlobalSas::new(ns.clone());
        let s = ns.say(sum, [a]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let sas = sas.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        sas.activate(s);
                        sas.deactivate(s);
                    }
                });
            }
        });
        assert!(!sas.is_active(s));
        assert_eq!(sas.stats().activations, 4000);
    }

    #[test]
    fn sharded_nodes_are_independent() {
        let (ns, sum, a, b) = ns_with();
        let sas = ShardedSas::new(ns.clone(), 4);
        let sa = ns.say(sum, [a]);
        let sb = ns.say(sum, [b]);
        sas.node(0).activate(sa);
        sas.node(2).activate(sb);
        assert!(sas.node(0).is_active(sa));
        assert!(!sas.node(1).is_active(sa));
        assert!(sas.node(2).is_active(sb));
        assert_eq!(sas.node(0).snapshot().len(), 1);
    }

    #[test]
    fn question_registered_on_all_nodes() {
        let (ns, sum, a, _) = ns_with();
        let sas = ShardedSas::new(ns.clone(), 3);
        let qid = sas.register_question_all(&Question::new(
            "A sums",
            vec![SentencePattern::noun_verb(a, sum)],
        ));
        let sa = ns.say(sum, [a]);
        sas.node(1).activate(sa);
        assert!(!sas.satisfied_on(0, qid));
        assert!(sas.satisfied_on(1, qid));
        assert!(!sas.satisfied_on(2, qid));
    }

    #[test]
    fn sharded_total_stats() {
        let (ns, sum, a, _) = ns_with();
        let sas = ShardedSas::new(ns.clone(), 2);
        let sa = ns.say(sum, [a]);
        sas.node(0).activate(sa);
        sas.node(1).activate(sa);
        sas.node(1).deactivate(sa);
        let t = sas.total_stats();
        assert_eq!(t.activations, 2);
        assert_eq!(t.deactivations, 1);
    }

    #[test]
    fn sharded_parallel_activation() {
        let (ns, sum, a, _) = ns_with();
        let sas = ShardedSas::new(ns.clone(), 8);
        let sa = ns.say(sum, [a]);
        std::thread::scope(|scope| {
            for node in 0..8 {
                let sas = &sas;
                scope.spawn(move || {
                    let h = sas.node(node);
                    for _ in 0..500 {
                        h.activate(sa);
                        h.deactivate(sa);
                    }
                });
            }
        });
        assert_eq!(sas.total_stats().activations, 4000);
        for node in 0..8 {
            assert!(!sas.node(node).is_active(sa));
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn sharded_requires_nodes() {
        let (ns, ..) = ns_with();
        let _ = ShardedSas::new(ns, 0);
    }

    #[test]
    fn global_with_gives_direct_access() {
        let (ns, sum, a, _) = ns_with();
        let sas = GlobalSas::new(ns.clone());
        let sa = ns.say(sum, [a]);
        sas.activate(sa);
        let n = sas.with(|s| s.len());
        assert_eq!(n, 1);
    }
}
