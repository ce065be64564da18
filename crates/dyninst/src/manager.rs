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
//! an uninstrumented point costs a shared-lock acquire and an empty-slot
//! check (measured in `benches/instrumentation.rs`). Tools insert and
//! remove snippets at any time — Paradyn's "insert mapping instrumentation
//! once at the beginning of execution and leave it in, or insert and delete
//! mapping instrumentation throughout execution" both reduce to these
//! operations. Whole-point enable/disable supports §5's "turn on or turn
//! off all dynamic mapping instrumentation points at once".

use crate::point::{PointId, PointRegistry};
use crate::primitive::PrimitiveStore;
use crate::snippet::{run_snippet, ExecCtx, Snippet};
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

#[derive(Default)]
struct Slot {
    enabled: bool,
    /// `(id, priority, snippet)`, kept sorted by (priority, id): lower
    /// priorities run first. Mapping instrumentation uses negative
    /// priorities for activations (before any guard reads the SAS) and
    /// positive ones for deactivations (after guarded stops have run).
    snippets: Vec<(u64, i32, Arc<Snippet>)>,
}

/// Counters describing instrumentation activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Point executions observed (instrumented or not).
    pub executions: u64,
    /// Snippets actually run (guards may still have suppressed the body).
    pub snippets_run: u64,
}

/// Shared, thread-safe snippet tables per point.
pub struct InstrumentationManager {
    registry: PointRegistry,
    prims: Arc<PrimitiveStore>,
    slots: RwLock<Vec<Slot>>,
    next_id: AtomicU64,
    executions: AtomicU64,
    snippets_run: AtomicU64,
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
    /// first; equal priorities run in insertion order.
    pub fn insert_with_priority(
        &self,
        point: PointId,
        snippet: Snippet,
        priority: i32,
    ) -> SnippetHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut slots = self.slots.write();
        if slots.len() <= point.index() {
            slots.resize_with(point.index() + 1, Slot::default);
        }
        let slot = &mut slots[point.index()];
        slot.enabled = true;
        let pos = slot
            .snippets
            .partition_point(|&(sid, p, _)| (p, sid) <= (priority, id));
        slot.snippets.insert(pos, (id, priority, Arc::new(snippet)));
        SnippetHandle { point, id }
    }

    /// Removes a previously inserted snippet. Returns `true` if it was
    /// still present.
    pub fn remove(&self, handle: SnippetHandle) -> bool {
        let mut slots = self.slots.write();
        let Some(slot) = slots.get_mut(handle.point.index()) else {
            return false;
        };
        let before = slot.snippets.len();
        slot.snippets.retain(|(id, _, _)| *id != handle.id);
        slot.snippets.len() != before
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
            .map(|s| s.snippets.len())
            .unwrap_or(0)
    }

    /// Executes a point: runs every installed, enabled snippet against the
    /// context. This is the substrate's hot path.
    #[inline]
    pub fn execute(&self, point: PointId, ctx: &mut ExecCtx<'_>) {
        self.executions.fetch_add(1, Ordering::Relaxed);
        let slots = self.slots.read();
        let Some(slot) = slots.get(point.index()) else {
            return;
        };
        if !slot.enabled || slot.snippets.is_empty() {
            return;
        }
        // One shared-counter add per point, not per snippet: a run measuring
        // many foci installs hundreds of snippets at the hot points.
        self.snippets_run
            .fetch_add(slot.snippets.len() as u64, Ordering::Relaxed);
        for (_, _, snippet) in &slot.snippets {
            run_snippet(snippet, ctx, &self.prims);
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> ManagerStats {
        ManagerStats {
            executions: self.executions.load(Ordering::Relaxed),
            snippets_run: self.snippets_run.load(Ordering::Relaxed),
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
    use crate::snippet::{Op, Pred};

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
