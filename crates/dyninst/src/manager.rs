//! The instrumentation manager: run-time insertion and deletion of snippets
//! at points.
//!
//! Paper §4.1: "Dynamic instrumentation provides an advantage over
//! traditional static techniques because it allows performance tools to
//! instrument only those points that are currently needed to provide
//! performance data. Any point that does not contain instrumentation does
//! not cause any execution perturbations."
//!
//! The substrate calls [`InstrumentationManager::execute`] at every point;
//! an uninstrumented or disabled point costs a shared-lock acquire and an
//! empty-slot check, and an instrumented one the snippets its plan visits
//! (both measured in `benches/instrumentation.rs`). Tools insert and
//! remove snippets at any time — Paradyn's "insert mapping instrumentation
//! once at the beginning of execution and leave it in, or insert and delete
//! mapping instrumentation throughout execution" both reduce to these
//! operations. Whole-point enable/disable supports §5's "turn on or turn
//! off all dynamic mapping instrumentation points at once".
//!
//! # The plan
//!
//! An instrumented point does not walk its snippets one by one. Every
//! insertion or removal rebuilds the point's *plan* (one sort of the point's
//! snippets; [`InstrumentationManager::insert_all`] and
//! [`InstrumentationManager::remove_all`] rebuild each touched point once
//! per batch), and `execute` runs the plan, which visits only
//! the snippets whose guard can hold. The plan is a sequence of stages in
//! `(priority, id)` order:
//!
//! * a snippet that activates or deactivates a sentence is a stage by
//!   itself, so every guard after it reads the SAS it left;
//! * a maximal run of same-priority snippets that leave the SAS alone is
//!   one *keyed* stage. Its snippets sit in three buckets, each in
//!   insertion order: unkeyed (no `NodeIs`, no `SentenceActive`), by node
//!   (the guard's first `NodeIs`, when it has no `SentenceActive`) and by
//!   sentence (the guard's first `SentenceActive`).
//!
//! On node k a keyed stage runs its unkeyed bucket, then node k's bucket,
//! then, for each sentence active on the node's SAS in first-activation
//! order, that sentence's bucket. A snippet in another bucket has a
//! conjunct that cannot hold, so skipping it changes nothing; every visited
//! snippet still evaluates its whole guard. Within a keyed stage no snippet
//! changes the SAS, so every guard reads the same state whatever the visit
//! order; and when two buckets of a stage drive one primitive, that stage
//! keeps all its snippets unkeyed, so each primitive's operations still
//! happen in insertion order. A point measuring many foci — one machine
//! run of the Performance Consultant's wave search installs up to
//! 64 foci × 6 metrics — then pays, per execution, for the snippets keyed
//! to its node and its active sentences, not for every request.

use crate::point::{PointId, PointRegistry};
use crate::primitive::PrimitiveStore;
use crate::snippet::{run_snippet, ExecCtx, Op, Pred, Snippet};
use pdmap::model::SentenceId;
use pdmap::util::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifies an inserted snippet so it can be removed later.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SnippetHandle {
    point: PointId,
    id: u64,
}

impl SnippetHandle {
    /// The point the snippet is attached to.
    pub fn point(&self) -> PointId {
        self.point
    }
}

/// One installed snippet.
struct Entry {
    id: u64,
    priority: i32,
    key: Key,
    snippet: Snippet,
}

#[derive(Default)]
struct Slot {
    enabled: bool,
    /// Installed snippets, sorted by (priority, id): lower priorities run
    /// first. Mapping instrumentation uses negative priorities for
    /// activations (before any guard reads the SAS) and positive ones for
    /// deactivations (after guarded stops have run).
    entries: Vec<Entry>,
    /// The plan: indices into `entries`, stage after stage and, within a
    /// stage, bucket after bucket. Rebuilt after every insertion or
    /// removal.
    order: Vec<u32>,
    plan: Vec<Stage>,
}

/// One stage of a point's plan: bucket ranges of its slot's `order`.
struct Stage {
    /// The unkeyed bucket is `order[start..unkeyed]`.
    start: u32,
    unkeyed: u32,
    /// `(node, start, end)`, sorted by node.
    by_node: Vec<(u32, u32, u32)>,
    /// `(sentence, start, end)`, sorted by sentence.
    by_sentence: Vec<(SentenceId, u32, u32)>,
}

/// The bucket a snippet goes in; the variant order is the bucket order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Unkeyed,
    Node(u32),
    Sentence(SentenceId),
}

fn key_of(snippet: &Snippet) -> Key {
    // A snippet that changes the SAS stands alone, unkeyed: its stage
    // visits it exactly once, however it changes the active list.
    if changes_sas(snippet) {
        return Key::Unkeyed;
    }
    let mut key = Key::Unkeyed;
    for p in &snippet.preds {
        match *p {
            Pred::SentenceActive(s) => return Key::Sentence(s),
            Pred::NodeIs(n) if key == Key::Unkeyed => key = Key::Node(n),
            _ => {}
        }
    }
    key
}

fn changes_sas(snippet: &Snippet) -> bool {
    snippet
        .ops
        .iter()
        .any(|op| matches!(op, Op::SasActivate(_) | Op::SasDeactivate(_)))
}

/// The primitive an operation drives: `(is a timer, index)`.
fn primitive_of(op: &Op) -> Option<(bool, u32)> {
    match *op {
        Op::IncrCounter(c, _) | Op::IncrCounterByArg(c) => Some((false, c.0)),
        Op::StartProcessTimer(t)
        | Op::StopProcessTimer(t)
        | Op::StartWallTimer(t)
        | Op::StopWallTimer(t) => Some((true, t.0)),
        Op::SasActivate(_) | Op::SasDeactivate(_) => None,
    }
}

/// True when snippets of two different buckets drive one primitive, so
/// bucketing could reorder that primitive's operations.
fn drives_a_primitive_from_two(entries: &[Entry], stage: &[u32]) -> bool {
    let entry = |i: u32| &entries[i as usize];
    if stage.iter().all(|&i| entry(i).key == entry(stage[0]).key) {
        return false;
    }
    let mut owners: Vec<((bool, u32), Key)> = stage
        .iter()
        .map(|&i| entry(i))
        .flat_map(|e| {
            e.snippet
                .ops
                .iter()
                .filter_map(primitive_of)
                .map(|p| (p, e.key))
        })
        .collect();
    owners.sort_unstable();
    owners
        .windows(2)
        .any(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1)
}

impl Stage {
    /// Sorts `stage` (its entries' indices, in insertion order, at offset
    /// `base` of the slot's `order`) into buckets and records them.
    fn build(entries: &[Entry], stage: &mut [u32], base: usize) -> Self {
        let bucketed = !drives_a_primitive_from_two(entries, stage);
        let key = |i: u32| {
            if bucketed {
                entries[i as usize].key
            } else {
                Key::Unkeyed
            }
        };
        // Sorting by (key, index) keeps insertion order within a bucket.
        stage.sort_unstable_by_key(|&i| (key(i), i));
        let mut start = base as u32;
        let mut built = Stage {
            start,
            unkeyed: start,
            by_node: Vec::new(),
            by_sentence: Vec::new(),
        };
        for run in stage.chunk_by(|&a, &b| key(a) == key(b)) {
            let end = start + run.len() as u32;
            match key(run[0]) {
                Key::Unkeyed => built.unkeyed = end,
                Key::Node(n) => built.by_node.push((n, start, end)),
                Key::Sentence(s) => built.by_sentence.push((s, start, end)),
            }
            start = end;
        }
        built
    }
}

impl Slot {
    /// Rebuilds the plan from `entries`: a snippet that changes the SAS is
    /// a stage alone; any other joins its same-priority neighbours up to
    /// the next one that changes the SAS.
    fn rebuild(&mut self) {
        let Slot {
            entries,
            order,
            plan,
            ..
        } = self;
        order.clear();
        order.extend(0..entries.len() as u32);
        plan.clear();
        let mut start = 0;
        while start < entries.len() {
            let mut end = start + 1;
            if !changes_sas(&entries[start].snippet) {
                while end < entries.len()
                    && entries[end].priority == entries[start].priority
                    && !changes_sas(&entries[end].snippet)
                {
                    end += 1;
                }
            }
            plan.push(Stage::build(entries, &mut order[start..end], start));
            start = end;
        }
    }

    fn bucket(&self, start: u32, end: u32) -> &[u32] {
        &self.order[start as usize..end as usize]
    }
}

/// Counters describing instrumentation activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Point executions observed (instrumented or not).
    pub executions: u64,
    /// Snippets installed at each executed, enabled point, summed over its
    /// executions: what a walk of every snippet would visit.
    pub snippets_run: u64,
    /// Snippets whose guard the plan evaluated: the ones it visited.
    pub guards_evaluated: u64,
}

/// Shared, thread-safe snippet tables per point.
pub struct InstrumentationManager {
    registry: PointRegistry,
    prims: Arc<PrimitiveStore>,
    slots: RwLock<Vec<Slot>>,
    next_id: AtomicU64,
    executions: AtomicU64,
    snippets_run: AtomicU64,
    /// Snippets installed at an executed point that the plan did not
    /// visit. `guards_evaluated` is `snippets_run` minus this, so an
    /// execution that visits every snippet adds to one shared counter.
    skipped: AtomicU64,
}

impl InstrumentationManager {
    /// Creates a manager with a fresh point registry and primitive store.
    pub fn new() -> Self {
        Self::with_registry(PointRegistry::new())
    }

    /// Creates a manager sharing an existing point registry.
    pub fn with_registry(registry: PointRegistry) -> Self {
        Self {
            registry,
            prims: Arc::new(PrimitiveStore::new()),
            slots: RwLock::new(Vec::new()),
            next_id: AtomicU64::new(1),
            executions: AtomicU64::new(0),
            snippets_run: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
        }
    }

    /// The point registry (shared with the substrate).
    pub fn registry(&self) -> &PointRegistry {
        &self.registry
    }

    /// The primitive store snippets operate on.
    pub fn primitives(&self) -> &Arc<PrimitiveStore> {
        &self.prims
    }

    /// Interns a point by name (convenience).
    pub fn point(&self, name: &str) -> PointId {
        self.registry.point(name)
    }

    /// Inserts a snippet at a point with default priority 0, returning a
    /// removal handle. The point becomes enabled if it was not already.
    pub fn insert(&self, point: PointId, snippet: Snippet) -> SnippetHandle {
        self.insert_with_priority(point, snippet, 0)
    }

    /// Inserts a snippet with an explicit priority. Lower priorities run
    /// first. Equal priorities keep insertion order wherever a snippet
    /// could observe it: a snippet that changes the SAS runs after every
    /// earlier-inserted one of its priority and before every later one,
    /// and each primitive sees its operations in insertion order. Only
    /// the visits of same-priority snippets that merely read the SAS are
    /// regrouped (see the module doc's plan).
    pub fn insert_with_priority(
        &self,
        point: PointId,
        snippet: Snippet,
        priority: i32,
    ) -> SnippetHandle {
        self.insert_all(vec![(point, snippet, priority)])[0]
    }

    /// Inserts a batch of `(point, snippet, priority)` under one write
    /// lock, returning the handles in batch order; each touched point's
    /// plan is rebuilt once. Ordering is as for
    /// [`InstrumentationManager::insert_with_priority`], batch order being
    /// insertion order.
    pub fn insert_all(&self, batch: Vec<(PointId, Snippet, i32)>) -> Vec<SnippetHandle> {
        let mut handles = Vec::with_capacity(batch.len());
        let mut slots = self.slots.write();
        for (point, snippet, priority) in batch {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            if slots.len() <= point.index() {
                slots.resize_with(point.index() + 1, Slot::default);
            }
            let slot = &mut slots[point.index()];
            slot.enabled = true;
            let pos = slot
                .entries
                .partition_point(|e| (e.priority, e.id) <= (priority, id));
            slot.entries.insert(
                pos,
                Entry {
                    id,
                    priority,
                    key: key_of(&snippet),
                    snippet,
                },
            );
            handles.push(SnippetHandle { point, id });
        }
        let mut touched: Vec<PointId> = handles.iter().map(|h| h.point).collect();
        touched.sort_unstable();
        touched.dedup();
        for point in touched {
            slots[point.index()].rebuild();
        }
        handles
    }

    /// Removes a previously inserted snippet. Returns `true` if it was
    /// still present.
    pub fn remove(&self, handle: SnippetHandle) -> bool {
        self.remove_all([handle]) == 1
    }

    /// Removes a batch of previously inserted snippets under one write
    /// lock; each touched point's plan is rebuilt once. Returns how many
    /// were still present.
    pub fn remove_all(&self, handles: impl IntoIterator<Item = SnippetHandle>) -> usize {
        let mut batch: Vec<(PointId, u64)> = handles.into_iter().map(|h| (h.point, h.id)).collect();
        batch.sort_unstable();
        let mut slots = self.slots.write();
        let mut removed = 0;
        for run in batch.chunk_by(|a, b| a.0 == b.0) {
            let Some(slot) = slots.get_mut(run[0].0.index()) else {
                continue;
            };
            let before = slot.entries.len();
            slot.entries
                .retain(|e| run.binary_search_by_key(&e.id, |&(_, id)| id).is_err());
            if slot.entries.len() < before {
                removed += before - slot.entries.len();
                slot.rebuild();
            }
        }
        removed
    }

    /// Enables or disables every snippet at one point without removing it.
    pub fn set_point_enabled(&self, point: PointId, enabled: bool) {
        let mut slots = self.slots.write();
        if slots.len() <= point.index() {
            slots.resize_with(point.index() + 1, Slot::default);
        }
        slots[point.index()].enabled = enabled;
    }

    /// Enables or disables **all** points at once (§5: Paradyn "allows
    /// users to turn on or turn off all dynamic mapping instrumentation
    /// points at once").
    pub fn set_all_enabled(&self, enabled: bool) {
        let mut slots = self.slots.write();
        for slot in slots.iter_mut() {
            slot.enabled = enabled;
        }
    }

    /// Number of snippets currently installed at a point.
    pub fn snippet_count(&self, point: PointId) -> usize {
        self.slots
            .read()
            .get(point.index())
            .map(|s| s.entries.len())
            .unwrap_or(0)
    }

    /// Executes a point: runs its plan against the context, visiting every
    /// installed, enabled snippet whose guard can hold. This is the
    /// substrate's hot path.
    #[inline]
    pub fn execute(&self, point: PointId, ctx: &mut ExecCtx<'_>) {
        self.executions.fetch_add(1, Ordering::Relaxed);
        let slots = self.slots.read();
        let Some(slot) = slots.get(point.index()) else {
            return;
        };
        if !slot.enabled || slot.entries.is_empty() {
            return;
        }
        self.run_plan(slot, ctx);
    }

    /// Runs an enabled, instrumented point's plan (kept out of
    /// [`InstrumentationManager::execute`] so its uninstrumented path
    /// stays small enough to inline).
    fn run_plan(&self, slot: &Slot, ctx: &mut ExecCtx<'_>) {
        let mut visited = 0;
        let mut run = |bucket: &[u32], ctx: &mut ExecCtx<'_>| {
            visited += bucket.len();
            for &i in bucket {
                run_snippet(&slot.entries[i as usize].snippet, ctx, &self.prims);
            }
        };
        for stage in &slot.plan {
            run(slot.bucket(stage.start, stage.unkeyed), ctx);
            if let Ok(at) = stage.by_node.binary_search_by_key(&ctx.node, |b| b.0) {
                let (_, start, end) = stage.by_node[at];
                run(slot.bucket(start, end), ctx);
            }
            if stage.by_sentence.is_empty() {
                continue;
            }
            // A stage with sentence buckets changes no SAS, so the active
            // list is the same at every step of this loop.
            let mut j = 0;
            while let Some(s) = ctx
                .sas
                .as_deref()
                .and_then(|sas| sas.active_sentences().get(j).copied())
            {
                j += 1;
                if let Ok(at) = stage.by_sentence.binary_search_by_key(&s, |b| b.0) {
                    let (_, start, end) = stage.by_sentence[at];
                    run(slot.bucket(start, end), ctx);
                }
            }
        }
        // One shared-counter add per point, not per snippet: a run measuring
        // many foci installs hundreds of snippets at the hot points.
        self.snippets_run
            .fetch_add(slot.entries.len() as u64, Ordering::Relaxed);
        let skipped = slot.entries.len() - visited;
        if skipped > 0 {
            self.skipped.fetch_add(skipped as u64, Ordering::Relaxed);
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> ManagerStats {
        let snippets_run = self.snippets_run.load(Ordering::Relaxed);
        ManagerStats {
            executions: self.executions.load(Ordering::Relaxed),
            snippets_run,
            // Saturating: a concurrent execution may land between the loads.
            guards_evaluated: snippets_run.saturating_sub(self.skipped.load(Ordering::Relaxed)),
        }
    }
}

impl Default for InstrumentationManager {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for InstrumentationManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "InstrumentationManager({} points, stats {:?})",
            self.registry.len(),
            self.stats()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snippet::SentenceArg;
    use pdmap::model::Namespace;
    use pdmap::sas::LocalSas;

    #[test]
    fn uninstrumented_point_does_nothing() {
        let m = InstrumentationManager::new();
        let p = m.point("cmrts::dispatch");
        let mut ctx = ExecCtx::basic(0, 0);
        m.execute(p, &mut ctx);
        let st = m.stats();
        assert_eq!(st.executions, 1);
        assert_eq!(st.snippets_run, 0);
    }

    #[test]
    fn insert_execute_remove_cycle() {
        let m = InstrumentationManager::new();
        let p = m.point("p");
        let c = m.primitives().new_counter();
        let h = m.insert(p, Snippet::new(vec![Op::IncrCounter(c, 1)]));
        let mut ctx = ExecCtx::basic(0, 0);
        m.execute(p, &mut ctx);
        assert_eq!(m.primitives().read_counter(c), 1);
        assert!(m.remove(h));
        m.execute(p, &mut ctx);
        assert_eq!(m.primitives().read_counter(c), 1, "removed snippet is gone");
        assert!(!m.remove(h), "double remove reports absence");
    }

    #[test]
    fn removing_a_batch_matches_removing_one_at_a_time() {
        // Two managers install the same two requests over three points;
        // one removes the first request as a batch, the other snippet by
        // snippet.
        let build = || {
            let m = InstrumentationManager::new();
            let points: [PointId; 3] = std::array::from_fn(|i| m.point(&format!("p{i}")));
            let c: Vec<_> = (0..4).map(|_| m.primitives().new_counter()).collect();
            let t = m.primitives().new_timer();
            let request = |counter, delta| {
                let mut batch = Vec::new();
                for (k, &p) in points.iter().enumerate() {
                    let on_node = Pred::NodeIs(k as u32 % 2);
                    let bump = vec![Op::IncrCounter(counter, delta)];
                    batch.push((p, Snippet::new(bump.clone()), 0));
                    batch.push((p, Snippet::guarded(vec![on_node], bump), -5));
                    batch.push((p, Snippet::new(vec![Op::IncrCounter(c[3], 1)]), 5));
                }
                batch.push((points[0], Snippet::new(vec![Op::StartProcessTimer(t)]), -10));
                batch.push((points[2], Snippet::new(vec![Op::StopProcessTimer(t)]), 10));
                m.insert_all(batch)
            };
            let first = request(c[0], 1);
            request(c[1], 10);
            (m, points, c, t, first)
        };
        let (batched, points, c, t, first) = build();
        let (single, _, _, _, one_by_one) = build();
        assert_eq!(batched.remove_all(first.iter().copied()), first.len());
        for h in one_by_one {
            assert!(single.remove(h));
        }
        assert_eq!(batched.remove_all(first), 0, "already gone");
        let counts = |m: &InstrumentationManager| points.map(|p| m.snippet_count(p));
        assert_eq!(counts(&batched), [4, 3, 4], "the kept request's snippets");
        assert_eq!(counts(&batched), counts(&single));
        // The next execution of every point, on both nodes, moves the same
        // primitives the same way.
        let values = |m: &InstrumentationManager| {
            let mut now = 0;
            for node in 0..2 {
                for p in points {
                    now += 5;
                    m.execute(p, &mut ExecCtx::basic(node, now));
                }
            }
            let prims = m.primitives();
            let counters: Vec<i64> = c.iter().map(|&c| prims.read_counter(c)).collect();
            (counters, prims.read_timer(t, now), prims.timer_running(t))
        };
        let want = values(&batched);
        assert_eq!(want.0, [0, 90, 0, 6]);
        assert_eq!(values(&single), want);
    }

    #[test]
    fn multiple_snippets_run_in_insertion_order() {
        let m = InstrumentationManager::new();
        let p = m.point("p");
        let c = m.primitives().new_counter();
        m.insert(p, Snippet::new(vec![Op::IncrCounter(c, 1)]));
        m.insert(p, Snippet::new(vec![Op::IncrCounter(c, 10)]));
        let mut ctx = ExecCtx::basic(0, 0);
        m.execute(p, &mut ctx);
        assert_eq!(m.primitives().read_counter(c), 11);
        assert_eq!(m.snippet_count(p), 2);
    }

    #[test]
    fn disable_point_suppresses_without_removal() {
        let m = InstrumentationManager::new();
        let p = m.point("p");
        let c = m.primitives().new_counter();
        m.insert(p, Snippet::new(vec![Op::IncrCounter(c, 1)]));
        m.set_point_enabled(p, false);
        let mut ctx = ExecCtx::basic(0, 0);
        m.execute(p, &mut ctx);
        assert_eq!(m.primitives().read_counter(c), 0);
        m.set_point_enabled(p, true);
        m.execute(p, &mut ctx);
        assert_eq!(m.primitives().read_counter(c), 1);
    }

    #[test]
    fn snippets_run_counts_every_snippet_of_each_executed_point() {
        let m = InstrumentationManager::new();
        let c = m.primitives().new_counter();
        let (p, q, r) = (m.point("p"), m.point("q"), m.point("r"));
        m.insert(p, Snippet::new(vec![Op::IncrCounter(c, 1)]));
        // Guarded out on node 0, but still run (and counted): the guard is
        // the snippet's first check.
        m.insert(
            p,
            Snippet::guarded(vec![Pred::NodeIs(1)], vec![Op::IncrCounter(c, 100)]),
        );
        m.insert(q, Snippet::new(vec![Op::IncrCounter(c, 10)]));
        m.set_point_enabled(q, false);
        for _ in 0..3 {
            m.insert(r, Snippet::new(vec![Op::IncrCounter(c, 1000)]));
        }
        let mut ctx = ExecCtx::basic(0, 0);
        for point in [p, p, q, r, m.point("bare")] {
            m.execute(point, &mut ctx);
        }
        let executed = [(p, 2), (r, 1)];
        let expected: usize = executed
            .iter()
            .map(|&(pt, n)| n * m.snippet_count(pt))
            .sum();
        assert_eq!(m.stats().snippets_run, expected as u64);
        assert_eq!(m.stats().snippets_run, 7);
        assert_eq!(m.stats().executions, 5);
        assert_eq!(
            m.primitives().read_counter(c),
            2 + 3000,
            "guard and disable held"
        );
    }

    #[test]
    fn plan_visits_only_the_snippets_keyed_to_the_node_and_active_sentences() {
        let ns = Namespace::new();
        let l = ns.level("L");
        let s = ns.say(ns.verb(l, "v", ""), [ns.noun(l, "A", "")]);
        let mut sas = LocalSas::new(ns);
        let m = InstrumentationManager::new();
        let p = m.point("p");
        let c: Vec<_> = (0..4).map(|_| m.primitives().new_counter()).collect();
        m.insert(p, Snippet::new(vec![Op::IncrCounter(c[0], 1)]));
        for (guard, &counter) in [Pred::NodeIs(1), Pred::NodeIs(2), Pred::SentenceActive(s)]
            .into_iter()
            .zip(&c[1..])
        {
            m.insert(
                p,
                Snippet::guarded(vec![guard], vec![Op::IncrCounter(counter, 1)]),
            );
        }
        let mut ctx = ExecCtx::basic(1, 0);
        ctx.sas = Some(&mut sas);
        // `s` inactive: the unguarded and the node-1 snippet.
        m.execute(p, &mut ctx);
        assert_eq!(m.stats().guards_evaluated, 2);
        ctx.sas.as_mut().unwrap().activate(s);
        // `s` active: its bucket too, never node 2's.
        m.execute(p, &mut ctx);
        let st = m.stats();
        assert_eq!(st.executions, 2);
        assert_eq!(st.snippets_run, 8, "every installed snippet, per execution");
        assert_eq!(st.guards_evaluated, 5);
        let counts: Vec<i64> = c.iter().map(|&c| m.primitives().read_counter(c)).collect();
        assert_eq!(counts, [2, 2, 0, 1]);
    }

    #[test]
    fn a_primitive_driven_from_two_buckets_keeps_its_stage_unkeyed() {
        let m = InstrumentationManager::new();
        let p = m.point("p");
        let t = m.primitives().new_timer();
        // Inserted start-then-stop: buckets would run the unguarded stop
        // before the node-0 start and leave the timer running.
        m.insert(
            p,
            Snippet::guarded(vec![Pred::NodeIs(0)], vec![Op::StartProcessTimer(t)]),
        );
        m.insert(p, Snippet::new(vec![Op::StopProcessTimer(t)]));
        m.insert(
            p,
            Snippet::guarded(vec![Pred::NodeIs(1)], vec![Op::StopProcessTimer(t)]),
        );
        m.execute(p, &mut ExecCtx::basic(0, 10));
        assert!(
            !m.primitives().timer_running(t),
            "the stop ran after the start"
        );
        assert_eq!(m.stats().guards_evaluated, 3, "the stage stayed flat");
    }

    #[test]
    fn a_snippet_that_changes_the_sas_runs_once_per_execution() {
        let ns = Namespace::new();
        let l = ns.level("L");
        let v = ns.verb(l, "v", "");
        let s = ns.say(v, [ns.noun(l, "A", "")]);
        let t = ns.say(v, [ns.noun(l, "B", "")]);
        let mut sas = LocalSas::new(ns);
        sas.activate(s);
        sas.activate(t);
        let m = InstrumentationManager::new();
        let p = m.point("p");
        let c = m.primitives().new_counter();
        // Re-activating `s` moves it behind `t` in the active list.
        m.insert(
            p,
            Snippet::guarded(
                vec![Pred::SentenceActive(s)],
                vec![
                    Op::SasDeactivate(SentenceArg::Fixed(s)),
                    Op::SasActivate(SentenceArg::Fixed(s)),
                    Op::IncrCounter(c, 1),
                ],
            ),
        );
        let mut ctx = ExecCtx::basic(0, 0);
        ctx.sas = Some(&mut sas);
        m.execute(p, &mut ctx);
        assert_eq!(m.primitives().read_counter(c), 1);
    }

    #[test]
    fn set_all_enabled_toggles_every_point() {
        let m = InstrumentationManager::new();
        let c = m.primitives().new_counter();
        let points: Vec<PointId> = (0..4).map(|i| m.point(&format!("p{i}"))).collect();
        for &p in &points {
            m.insert(p, Snippet::new(vec![Op::IncrCounter(c, 1)]));
        }
        m.set_all_enabled(false);
        let mut ctx = ExecCtx::basic(0, 0);
        for &p in &points {
            m.execute(p, &mut ctx);
        }
        assert_eq!(m.primitives().read_counter(c), 0);
        m.set_all_enabled(true);
        for &p in &points {
            m.execute(p, &mut ctx);
        }
        assert_eq!(m.primitives().read_counter(c), 4);
    }

    #[test]
    fn concurrent_execute_and_insert() {
        let m = Arc::new(InstrumentationManager::new());
        let p = m.point("hot");
        let c = m.primitives().new_counter();
        std::thread::scope(|s| {
            // Executors hammer the point...
            for _ in 0..3 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..2000 {
                        let mut ctx = ExecCtx::basic(0, 0);
                        m.execute(p, &mut ctx);
                    }
                });
            }
            // ...while a tool inserts and removes.
            let m2 = m.clone();
            s.spawn(move || {
                for _ in 0..100 {
                    let h = m2.insert(p, Snippet::new(vec![Op::IncrCounter(c, 1)]));
                    m2.remove(h);
                }
            });
        });
        // No panics and sane stats: every execution was observed.
        assert_eq!(m.stats().executions, 6000);
    }

    #[test]
    fn shared_registry_between_manager_and_substrate() {
        let reg = PointRegistry::new();
        let p_sub = reg.point("substrate::send");
        let m = InstrumentationManager::with_registry(reg.clone());
        let p_tool = m.point("substrate::send");
        assert_eq!(p_sub, p_tool);
    }
}
