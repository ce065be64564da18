//! The Data Manager: Paradyn's resource dictionary and mapping store.
//!
//! §5: "PIF files are emitted by compilers ... Paradyn daemons import
//! static mapping information via Paradyn Information Format (PIF) files
//! just after they load each application executable", and "the daemons
//! forward the \[dynamic\] mapping information to the Data Manager. The Data
//! Manager uses the dynamic mapping information in exactly the same way as
//! it uses static mapping information."
//!
//! [`DataManager`] therefore accepts both: [`DataManager::import_pif`] for
//! the static path, and the [`MappingSink`] implementation for the dynamic
//! path (array allocations arriving from the run-time system, which build
//! the CMFarrays hierarchy of Figure 8 including per-node subregions).
//! Both merge into the one where axis, the manager's only mapping store.
//! It also resolves where-axis foci into instrumentation guard predicates —
//! the §6.1 "check the array's node-global boolean variable" step.
//!
//! # One lock, per-link counters
//!
//! The catalogue (mapping table, where axis, hashes of wire PIFs) sits
//! behind one `RwLock`, the manager's only lock. An allocation merges into
//! the `CMFarrays` tree under the write lock, so readers
//! ([`DataManager::render_where_axis`], [`DataManager::resolve_focus`], …)
//! merge nothing. Each daemon connection of a multi-daemon session keeps
//! its books in a *shard*: a slot of relaxed counters. Allocations are too
//! rare (once per link at start, once per machine run) for a partitioned
//! catalogue to remove any contention.
//!
//! Invariants:
//! * an array name maps to exactly one axis node no matter which shard
//!   announced it (merge is idempotent, like [`ResourceTree::child`]);
//! * a re-announced allocation (every machine run announces its arrays
//!   again) adds no node, counts no import and keeps nothing;
//! * sample delivery never takes the lock — only relaxed counters move;
//! * the lock is a leaf: no obs counter, span or other tool lock is
//!   touched under it. PIF apply and focus resolution read the namespace
//!   and the symbol table under it; their locks never call back.
//!
//! [`ResourceTree::child`]: pdmap::hierarchy::ResourceTree::child

use cmrts_sim::machine::{ArrayAllocInfo, MappingSink};
use cmrts_sim::ArrayId;
use dyninst_sim::Pred;
use pdmap::aggregate::{assign_per_source, AssignPolicy, AssignmentResult};
use pdmap::cost::{Cost, UnitMismatch};
use pdmap::hierarchy::{Focus, WhereAxis};
use pdmap::mapping::MappingTable;
use pdmap::model::{Namespace, SentenceId};
use pdmap::util::{FxHasher, RwLock};
use pdmap_pif::{Applied, ApplyError, ParseError, PifFile};
use std::collections::HashSet;
use std::fmt;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};

/// Failure to turn a focus into guard predicates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FocusError {
    /// The focus names a hierarchy the data manager does not know.
    UnknownHierarchy(String),
    /// The selected path does not resolve in its hierarchy.
    UnknownPath(String),
    /// The selected resource cannot constrain instrumentation (e.g. an
    /// interior module node).
    Unconstrainable(String),
}

impl fmt::Display for FocusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FocusError::UnknownHierarchy(h) => write!(f, "unknown hierarchy '{h}'"),
            FocusError::UnknownPath(p) => write!(f, "unknown resource path '{p}'"),
            FocusError::Unconstrainable(p) => {
                write!(f, "resource '{p}' cannot constrain instrumentation")
            }
        }
    }
}

impl std::error::Error for FocusError {}

/// Why a wire-shipped PIF was rejected ([`DataManager::import_pif_text`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PifImportError {
    /// The text does not parse; nothing was applied.
    Parse(ParseError),
    /// A record could not be applied. Every record before it stays
    /// applied, as on the static [`DataManager::import_pif`] path.
    Apply(ApplyError),
}

impl fmt::Display for PifImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PifImportError::Parse(e) => write!(f, "pif parse: {e}"),
            PifImportError::Apply(e) => write!(f, "pif apply: {e}"),
        }
    }
}

impl std::error::Error for PifImportError {}

/// Span site for mapping-information import (static PIF and dynamic
/// allocations both count as `datamgr`/`import` in the self-mapping).
fn datamgr_import_site() -> &'static pdmap_obs::SpanSite {
    static SITE: std::sync::OnceLock<pdmap_obs::SpanSite> = std::sync::OnceLock::new();
    SITE.get_or_init(|| pdmap_obs::span_site("datamgr", "import"))
}

/// Everything behind the manager's one lock: the mapping table, the where
/// axis (static resources plus every merged allocation), and the content
/// hashes of PIF texts imported over the wire, so N daemons shipping the
/// same executable's PIF populate the catalogue once.
struct Catalogue {
    mappings: MappingTable,
    axis: WhereAxis,
    imported_pif_hashes: HashSet<u64>,
}

/// Point-in-time counters for one shard (see [`DataManager::shard_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Mapping-information imports on this shard's link: dynamic
    /// allocations that added a where-axis node, plus every wire-shipped
    /// PIF arrival (duplicates included).
    pub imports: u64,
    /// Metric samples delivered by this shard's daemon connection.
    pub samples: u64,
    /// Nanoseconds this shard's allocations waited for the catalogue write
    /// lock.
    pub lock_wait_ns: u64,
}

/// A relaxed count of one manager, mirrored into the process-wide
/// `pdmap-obs` counter of the same name.
struct Tally(AtomicU64, std::sync::Arc<pdmap_obs::Counter>);

impl Tally {
    fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
        self.1.add(n);
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One daemon connection's slot of counters, exported as
/// `datamgr.shard<K>.{imports,samples,lock_wait_ns}`. Drain workers bump
/// different links' slots at once, so each slot has a cache line of its
/// own.
#[repr(align(64))]
struct Shard {
    imports: Tally,
    samples: Tally,
    lock_wait_ns: Tally,
}

impl Shard {
    fn new(index: usize) -> Self {
        let tally = |field: &str| {
            let name = format!("datamgr.shard{index}.{field}");
            Tally(AtomicU64::new(0), pdmap_obs::counter(&name))
        };
        Self {
            imports: tally("imports"),
            samples: tally("samples"),
            lock_wait_ns: tally("lock_wait_ns"),
        }
    }
}

/// The resource dictionary + mapping store.
pub struct DataManager {
    ns: Namespace,
    source_level: String,
    catalogue: RwLock<Catalogue>,
    shards: Box<[Shard]>,
}

impl DataManager {
    /// Creates a single-shard data manager over a shared namespace (the
    /// seed's single-daemon topology). `source_level` is the language level
    /// name used when resolving foci (default `CM Fortran`).
    pub fn new(ns: Namespace, source_level: &str) -> Self {
        Self::sharded(ns, source_level, 1)
    }

    /// Creates a data manager with `shards` counter slots — one per
    /// expected daemon connection. `shards` is clamped to at least 1.
    pub fn sharded(ns: Namespace, source_level: &str, shards: usize) -> Self {
        Self {
            ns,
            source_level: source_level.to_string(),
            catalogue: RwLock::new(Catalogue {
                mappings: MappingTable::new(),
                axis: WhereAxis::new(),
                imported_pif_hashes: HashSet::new(),
            }),
            shards: (0..shards.max(1)).map(Shard::new).collect(),
        }
    }

    /// The shared namespace.
    pub fn namespace(&self) -> &Namespace {
        &self.ns
    }

    /// Number of shards (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, k: usize) -> &Shard {
        &self.shards[k % self.shards.len()]
    }

    /// Counter snapshot for shard `k` (panics if out of range).
    pub fn shard_stats(&self, k: usize) -> ShardStats {
        let s = &self.shards[k];
        ShardStats {
            imports: s.imports.get(),
            samples: s.samples.get(),
            lock_wait_ns: s.lock_wait_ns.get(),
        }
    }

    /// Imports a PIF file (static mapping information, §3/§5). On an
    /// error, every record before the failing one stays applied.
    pub fn import_pif(&self, file: &PifFile) -> Result<Applied, ApplyError> {
        let _span = pdmap_obs::span(datamgr_import_site());
        let mut g = self.catalogue.write();
        self.apply_pif(&mut g, file)
    }

    /// Imports PIF text shipped over the wire by daemon `shard` (the §5
    /// "daemons import static mapping information ... just after they load
    /// each application executable" path, crossing a process boundary).
    /// Identical texts arriving from several daemons of one SPMD program
    /// are applied once; every arrival still counts as that shard's import.
    /// Returns `Ok(None)` for a duplicate. A text that fails to apply is
    /// still recorded as seen: its re-shipment is a duplicate.
    pub fn import_pif_text(
        &self,
        shard: usize,
        text: &str,
    ) -> Result<Option<Applied>, PifImportError> {
        self.shard(shard).imports.add(1);
        let mut h = FxHasher::default();
        h.write(text.as_bytes());
        let key = h.finish();
        if self.catalogue.read().imported_pif_hashes.contains(&key) {
            return Ok(None);
        }
        let file = pdmap_pif::parse(text).map_err(PifImportError::Parse)?;
        let _span = pdmap_obs::span(datamgr_import_site());
        // Racing importers may both parse; the winner of the hash
        // insertion applies, and a loser returns only after it has.
        let mut g = self.catalogue.write();
        if !g.imported_pif_hashes.insert(key) {
            return Ok(None);
        }
        self.apply_pif(&mut g, &file)
            .map(Some)
            .map_err(PifImportError::Apply)
    }

    /// The apply-and-freeze step of both PIF paths. `apply` stops at the
    /// first record it cannot apply and keeps every record before it.
    fn apply_pif(&self, g: &mut Catalogue, file: &PifFile) -> Result<Applied, ApplyError> {
        let applied = pdmap_pif::apply(file, &self.ns, &mut g.mappings, &mut g.axis)?;
        // Import complete: the symbol table is expected to be read-only
        // from here (late interns — dynamic arrays — are counted, not
        // rejected; see `pdmap::intern`).
        pdmap::intern::freeze();
        Ok(applied)
    }

    /// Ensures the Machine hierarchy has `nodes` node resources.
    pub fn ensure_machine(&self, nodes: usize) {
        let mut g = self.catalogue.write();
        let tree = g.axis.tree_mut("Machine");
        for i in 0..nodes {
            tree.add_path(&[&format!("node#{i}")]);
        }
    }

    /// Runs `f` against the mapping table, under the catalogue read lock:
    /// `f` must not call back into the manager.
    pub fn with_mappings<R>(&self, f: impl FnOnce(&MappingTable) -> R) -> R {
        f(&self.catalogue.read().mappings)
    }

    /// Renders the full (merged) where-axis display (Figure 8).
    pub fn render_where_axis(&self) -> String {
        self.catalogue.read().axis.render()
    }

    /// Maps measured low-level costs upward through the mapping table.
    pub fn map_upward(
        &self,
        measured: &[(SentenceId, Cost)],
        policy: AssignPolicy,
    ) -> Result<AssignmentResult, UnitMismatch> {
        let g = self.catalogue.read();
        assign_per_source(&g.mappings, measured, policy)
    }

    /// Dynamic mapping information routed to an explicit shard — the entry
    /// point used by multi-daemon sessions ([`crate::daemonset::DaemonSet`]
    /// hands each connection its own shard index). Compiler temporaries are
    /// filtered exactly as on the [`MappingSink`] path. The allocation
    /// merges into the `CMFarrays` tree under the catalogue write lock,
    /// idempotently by name; it counts as an import only if it added a
    /// node.
    pub fn array_allocated_on(&self, shard: usize, info: &ArrayAllocInfo) {
        let _span = pdmap_obs::span(datamgr_import_site());
        if info.name.starts_with("CMF_TMP") {
            return; // compiler temporaries are not user resources
        }
        let t0 = pdmap_obs::now_ns();
        let mut g = self.catalogue.write();
        let waited = pdmap_obs::now_ns().saturating_sub(t0);
        let tree = g.axis.tree_mut("CMFarrays");
        let before = tree.len();
        // The static PIF usually placed the array already; otherwise park
        // it at the root.
        let array_node = tree
            .find_by_name(&info.name)
            .into_iter()
            .next()
            .unwrap_or_else(|| tree.add_path(&[&info.name]));
        for &(node, _, _) in &info.subgrids {
            tree.child(array_node, &format!("sub#{node}"));
        }
        let added = tree.len() > before;
        drop(g);
        let s = self.shard(shard);
        s.lock_wait_ns.add(waited);
        if added {
            s.imports.add(1);
        }
    }

    /// Records `n` metric samples delivered via `shard`. Lock-free: the
    /// sample path moves only relaxed counters, never the manager's lock.
    pub fn note_samples_on(&self, shard: usize, n: u64) {
        self.shard(shard).samples.add(n);
    }

    fn array_active_sentence(&self, array: &str) -> Option<SentenceId> {
        let level = self.ns.find_level(&self.source_level)?;
        let verb = self.ns.find_verb(level, "Active")?;
        let noun = self.ns.find_noun(level, array)?;
        Some(self.ns.say(verb, [noun]))
    }

    fn line_sentence(&self, line_name: &str) -> Option<SentenceId> {
        let level = self.ns.find_level(&self.source_level)?;
        let verb = self.ns.find_verb(level, "Executes")?;
        // Where-axis spells it `line#N`; the noun is `lineN`.
        let noun_name = line_name.replace('#', "");
        let noun = self.ns.find_noun(level, &noun_name)?;
        Some(self.ns.say(verb, [noun]))
    }

    /// Resolves a focus into instrumentation guard predicates:
    ///
    /// * `Machine/node#K` → restrict to node K;
    /// * `CMFarrays/.../A` → the §6.1 array boolean: `{A} Active` must be
    ///   in the node's SAS;
    /// * `CMFarrays/.../A/sub#K` → the array boolean **and** node K
    ///   (Figure 9: metrics constrained to "subsections of arrays");
    /// * `CMFstmts/.../line#N` → `{lineN} Executes` active.
    pub fn resolve_focus(&self, focus: &Focus) -> Result<Vec<Pred>, FocusError> {
        let g = self.catalogue.read();
        self.resolve_focus_locked(&g, focus)
    }

    /// Where-axis refinements of a focus: for every hierarchy, the nearest
    /// *constrainable* descendants of the current selection (arrays before
    /// their subregions, statement leaves, machine nodes). Used by the
    /// Performance Consultant; returned behind `Arc` so the consultant's
    /// refinement cache shares one allocation across every hypothesis
    /// instead of cloning the list on each hit.
    pub fn refinement_candidates(&self, focus: &Focus) -> std::sync::Arc<[Focus]> {
        let g = self.catalogue.read();
        let mut out = Vec::new();
        for tree in g.axis.trees() {
            let hier = tree.name().to_string();
            let Some(start) = tree.resolve(focus.selection(&hier)) else {
                continue;
            };
            // Depth-first, last child first (the walk pops a stack): stop
            // descending at the first constrainable node.
            let mut stack: Vec<_> = tree.children(start).to_vec();
            while let Some(n) = stack.pop() {
                let path = tree.path_of(n);
                let candidate = focus.clone().select(&hier, &path);
                if self.resolve_focus_locked(&g, &candidate).is_ok() {
                    if &candidate != focus {
                        out.push(candidate);
                    }
                } else {
                    stack.extend(tree.children(n).iter().copied());
                }
            }
        }
        out.into()
    }

    fn resolve_focus_locked(&self, g: &Catalogue, focus: &Focus) -> Result<Vec<Pred>, FocusError> {
        let mut preds = Vec::new();
        for (hier, path) in focus.selection_names() {
            if path == "/" {
                continue;
            }
            let tree = g
                .axis
                .tree(hier)
                .ok_or_else(|| FocusError::UnknownHierarchy(hier.to_string()))?;
            let node = tree
                .resolve(path)
                .ok_or_else(|| FocusError::UnknownPath(path.to_string()))?;
            let name = tree.name_of(node).to_string();
            match hier {
                "Machine" => {
                    let k: u32 = name
                        .strip_prefix("node#")
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| FocusError::Unconstrainable(path.to_string()))?;
                    preds.push(Pred::NodeIs(k));
                }
                "CMFarrays" => {
                    if let Some(sub) = name.strip_prefix("sub#") {
                        let k: u32 = sub
                            .parse()
                            .map_err(|_| FocusError::Unconstrainable(path.to_string()))?;
                        let parent = tree
                            .parent(node)
                            .ok_or_else(|| FocusError::Unconstrainable(path.to_string()))?;
                        let array = tree.name_of(parent).to_string();
                        let s = self
                            .array_active_sentence(&array)
                            .ok_or_else(|| FocusError::Unconstrainable(path.to_string()))?;
                        preds.push(Pred::SentenceActive(s));
                        preds.push(Pred::NodeIs(k));
                    } else {
                        // Must be an array leaf (arrays may have subregion
                        // children, so "has array sentence" is the test).
                        let s = self
                            .array_active_sentence(&name)
                            .ok_or_else(|| FocusError::Unconstrainable(path.to_string()))?;
                        preds.push(Pred::SentenceActive(s));
                    }
                }
                "CMFstmts" => {
                    let s = self
                        .line_sentence(&name)
                        .ok_or_else(|| FocusError::Unconstrainable(path.to_string()))?;
                    preds.push(Pred::SentenceActive(s));
                }
                other => return Err(FocusError::UnknownHierarchy(other.to_string())),
            }
        }
        Ok(preds)
    }
}

impl MappingSink for DataManager {
    /// Dynamic mapping information (§6.1 step 1): a new array and its
    /// node subregions arrive from the run-time system. The sink interface
    /// carries no connection identity, so it routes to shard 0 — the
    /// single-daemon topology.
    fn array_allocated(&self, info: &ArrayAllocInfo) {
        self.array_allocated_on(0, info);
    }

    /// A free keeps nothing: the where axis lists every array the program
    /// allocated (Figure 8), freed or not.
    fn array_freed(&self, _array: ArrayId) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmrts_sim::Distribution;

    fn dm_with_program() -> DataManager {
        let ns = Namespace::new();
        let compiled = cmf_lang::compile(
            cmf_lang::samples::FIGURE4,
            &ns,
            &cmf_lang::CompileOptions::default(),
        )
        .unwrap();
        let dm = DataManager::new(ns, "CM Fortran");
        dm.import_pif(&compiled.pif).unwrap();
        dm.ensure_machine(4);
        dm
    }

    fn alloc(name: &str, nodes: std::ops::Range<usize>) -> ArrayAllocInfo {
        ArrayAllocInfo {
            array: ArrayId(0),
            name: name.into(),
            extents: vec![1024],
            dist: Distribution::Block,
            subgrids: nodes.map(|n| (n, 256, 256)).collect(),
        }
    }

    #[test]
    fn pif_import_populates_axis_and_mappings() {
        let dm = dm_with_program();
        assert!(dm.with_mappings(|m| m.len()) > 0);
        let shown = dm.render_where_axis();
        assert!(shown.contains("CMFstmts"));
        assert!(shown.contains("CMFarrays"));
        assert!(shown.contains("node#3"));
    }

    #[test]
    fn dynamic_alloc_adds_subregions() {
        let dm = dm_with_program();
        dm.array_allocated(&alloc("A", 0..4));
        let shown = dm.render_where_axis();
        assert!(shown.contains("sub#0"));
        assert!(shown.contains("sub#3"));
        assert_eq!(dm.shard_stats(0).imports, 1);
        // A re-announcement (the next machine run's) adds nothing.
        dm.array_allocated(&alloc("A", 0..4));
        dm.array_freed(ArrayId(0));
        assert_eq!(dm.render_where_axis(), shown);
        assert_eq!(dm.shard_stats(0).imports, 1);
    }

    #[test]
    fn temporaries_are_filtered() {
        let dm = dm_with_program();
        dm.array_allocated(&ArrayAllocInfo {
            array: ArrayId(9),
            name: "CMF_TMP3".into(),
            extents: vec![8],
            dist: Distribution::Block,
            subgrids: vec![],
        });
        assert_eq!(dm.shard_stats(0).imports, 0);
        assert!(!dm.render_where_axis().contains("CMF_TMP"));
    }

    #[test]
    fn machine_focus_resolves_to_node_pred() {
        let dm = dm_with_program();
        let f = Focus::whole_program().select("Machine", "/node#2");
        assert_eq!(dm.resolve_focus(&f).unwrap(), vec![Pred::NodeIs(2)]);
    }

    #[test]
    fn array_focus_resolves_to_sentence_pred() {
        let dm = dm_with_program();
        let f = Focus::whole_program().select("CMFarrays", "/hpfex.fcm/HPFEX/A");
        let preds = dm.resolve_focus(&f).unwrap();
        assert_eq!(preds.len(), 1);
        assert!(matches!(preds[0], Pred::SentenceActive(_)));
    }

    #[test]
    fn subregion_focus_adds_node_restriction() {
        let dm = dm_with_program();
        dm.array_allocated(&alloc("A", 0..4));
        let f = Focus::whole_program().select("CMFarrays", "/hpfex.fcm/HPFEX/A/sub#1");
        let preds = dm.resolve_focus(&f).unwrap();
        assert_eq!(preds.len(), 2);
        assert!(preds.contains(&Pred::NodeIs(1)));
    }

    #[test]
    fn statement_focus_resolves() {
        let dm = dm_with_program();
        let f = Focus::whole_program().select("CMFstmts", "/hpfex.fcm/HPFEX/line#5");
        let preds = dm.resolve_focus(&f).unwrap();
        assert_eq!(preds.len(), 1);
    }

    #[test]
    fn whole_program_focus_has_no_preds() {
        let dm = dm_with_program();
        assert!(dm
            .resolve_focus(&Focus::whole_program())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn focus_errors_are_specific() {
        let dm = dm_with_program();
        let f = Focus::whole_program().select("Bogus", "/x");
        assert!(matches!(
            dm.resolve_focus(&f),
            Err(FocusError::UnknownHierarchy(_))
        ));
        let f = Focus::whole_program().select("CMFarrays", "/nope/nope");
        assert!(matches!(
            dm.resolve_focus(&f),
            Err(FocusError::UnknownPath(_))
        ));
        // Interior module node: not constrainable.
        let f = Focus::whole_program().select("CMFarrays", "/hpfex.fcm");
        assert!(matches!(
            dm.resolve_focus(&f),
            Err(FocusError::Unconstrainable(_))
        ));
    }

    #[test]
    fn map_upward_uses_imported_mappings() {
        let dm = dm_with_program();
        // Find the PIF's block->line mapping source sentence and push cost
        // through it.
        let (src, n_dests) = dm.with_mappings(|m| {
            let d = m.defs()[0];
            (d.source, m.destinations(d.source).len())
        });
        let res = dm
            .map_upward(&[(src, Cost::seconds(2.0))], AssignPolicy::Merge)
            .unwrap();
        assert_eq!(res.assignments.len(), 1);
        assert_eq!(res.assignments[0].target.members().len(), n_dests);
    }

    #[test]
    fn shards_keep_independent_state_and_merge_one_axis() {
        let dm = DataManager::sharded(Namespace::new(), "CM Fortran", 3);
        assert_eq!(dm.shard_count(), 3);
        dm.array_allocated_on(0, &alloc("A", 0..2));
        dm.array_allocated_on(1, &alloc("B", 2..4));
        dm.array_allocated_on(2, &alloc("A", 0..2)); // same name, other daemon
        dm.note_samples_on(1, 5);
        let shown = dm.render_where_axis();
        // One axis node per array name, with subregions, regardless of shard.
        assert_eq!(shown.matches("  A\n").count(), 1, "{shown}");
        assert!(shown.contains("sub#2"));
        assert_eq!(dm.shard_stats(0).imports, 1);
        assert_eq!(dm.shard_stats(1).imports, 1);
        assert_eq!(dm.shard_stats(2).imports, 0, "A was already merged");
        assert_eq!(dm.shard_stats(1).samples, 5);
        assert_eq!(dm.shard_stats(2).samples, 0);
    }

    #[test]
    fn wire_pif_import_is_deduplicated_but_counted_per_shard() {
        let ns = Namespace::new();
        let compiled = cmf_lang::compile(
            cmf_lang::samples::FIGURE4,
            &ns,
            &cmf_lang::CompileOptions::default(),
        )
        .unwrap();
        let text = pdmap_pif::write(&compiled.pif);
        let dm = DataManager::sharded(ns, "CM Fortran", 2);
        let first = dm.import_pif_text(0, &text).unwrap();
        assert!(first.is_some(), "first wire import applies");
        let second = dm.import_pif_text(1, &text).unwrap();
        assert!(second.is_none(), "identical PIF from daemon 1 is a dup");
        assert_eq!(dm.shard_stats(0).imports, 1);
        assert_eq!(dm.shard_stats(1).imports, 1);
        let n = dm.with_mappings(|m| m.len());
        let _ = dm.import_pif_text(0, &text).unwrap();
        assert_eq!(dm.with_mappings(|m| m.len()), n, "catalogue applied once");
        assert!(dm.render_where_axis().contains("CMFarrays"));
    }

    #[test]
    fn concurrent_import_and_deliver_on_two_shards_loses_nothing() {
        const N: usize = 200;
        let dm = std::sync::Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", 2));
        std::thread::scope(|s| {
            for shard in 0..2usize {
                let dm = dm.clone();
                s.spawn(move || {
                    for i in 0..N {
                        dm.array_allocated_on(shard, &alloc(&format!("S{shard}_{i}"), 0..2));
                        dm.note_samples_on(shard, 1);
                        if i % 64 == 0 {
                            // Readers interleave with writers on the other shard.
                            let _ = dm.render_where_axis();
                        }
                    }
                });
            }
        });
        for shard in 0..2 {
            let st = dm.shard_stats(shard);
            assert_eq!(st.imports, N as u64, "shard {shard} imports");
            assert_eq!(st.samples, N as u64, "shard {shard} samples");
        }
        let shown = dm.render_where_axis();
        assert!(shown.contains("S0_0") && shown.contains(&format!("S1_{}", N - 1)));
    }
}
