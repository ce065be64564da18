//! Mapping definitions and the mapping table.
//!
//! A mapping definition (paper Figure 3) is an equivalence class for
//! performance data: a *source sentence* and a *destination sentence*.
//! "Performance data collected for the source sentence can be presented in
//! relation to either the source sentence or the destination sentence."
//!
//! Individual definitions are always one-to-one records; the four shapes of
//! Figure 1 (one-to-one, one-to-many, many-to-one, many-to-many) emerge from
//! *combinations* of records (paper §2), and are recovered here by connected-
//! component analysis over the mapping graph ([`MappingTable::shape_of`]).
//!
//! Although the paper concentrates on mapping *upward* through layers of
//! abstraction, the techniques are direction-independent (abstract); the
//! table therefore indexes both directions.

use crate::model::SentenceId;
use crate::util::{FxHashMap, FxHashSet};

/// One mapping record: source sentence ↦ destination sentence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MappingDef {
    /// The measured (usually lower-level) sentence.
    pub source: SentenceId,
    /// The sentence the measurement should also be presented for.
    pub destination: SentenceId,
}

/// The shape of the mapping component a sentence participates in
/// (paper Figure 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MappingShape {
    /// One source maps to one destination.
    OneToOne,
    /// One source maps to several destinations.
    OneToMany,
    /// Several sources map to one destination.
    ManyToOne,
    /// Several sources map to an overlapping set of destinations.
    ManyToMany,
}

impl std::fmt::Display for MappingShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MappingShape::OneToOne => "one-to-one",
            MappingShape::OneToMany => "one-to-many",
            MappingShape::ManyToOne => "many-to-one",
            MappingShape::ManyToMany => "many-to-many",
        };
        f.write_str(s)
    }
}

/// A bidirectional index over mapping definitions.
#[derive(Clone, Debug, Default)]
pub struct MappingTable {
    defs: Vec<MappingDef>,
    seen: FxHashSet<MappingDef>,
    forward: FxHashMap<SentenceId, Vec<SentenceId>>,
    reverse: FxHashMap<SentenceId, Vec<SentenceId>>,
}

impl MappingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a mapping record. Duplicate records are ignored, making import
    /// from several information sources idempotent. Returns `true` if the
    /// record was new.
    pub fn add(&mut self, def: MappingDef) -> bool {
        if !self.seen.insert(def) {
            return false;
        }
        self.defs.push(def);
        self.forward
            .entry(def.source)
            .or_default()
            .push(def.destination);
        self.reverse
            .entry(def.destination)
            .or_default()
            .push(def.source);
        true
    }

    /// Convenience for [`MappingTable::add`].
    pub fn map(&mut self, source: SentenceId, destination: SentenceId) -> bool {
        self.add(MappingDef {
            source,
            destination,
        })
    }

    /// All records, in insertion order.
    pub fn defs(&self) -> &[MappingDef] {
        &self.defs
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True if no records have been added.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Destinations the given source maps to (upward mapping).
    pub fn destinations(&self, source: SentenceId) -> &[SentenceId] {
        self.forward.get(&source).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Sources mapping to the given destination (downward mapping).
    pub fn sources(&self, destination: SentenceId) -> &[SentenceId] {
        self.reverse
            .get(&destination)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Computes the connected component (over the undirected mapping graph)
    /// containing `start`. Returns `(sources, destinations)` of the
    /// component, each sorted.
    pub fn component_of(&self, start: SentenceId) -> (Vec<SentenceId>, Vec<SentenceId>) {
        let mut sources = FxHashSet::default();
        let mut dests = FxHashSet::default();
        let mut stack = vec![start];
        let mut visited: FxHashSet<SentenceId> = FxHashSet::default();
        while let Some(s) = stack.pop() {
            if !visited.insert(s) {
                continue;
            }
            if self.forward.contains_key(&s) {
                sources.insert(s);
            }
            if self.reverse.contains_key(&s) {
                dests.insert(s);
            }
            for &d in self.destinations(s) {
                stack.push(d);
            }
            for &src in self.sources(s) {
                stack.push(src);
            }
        }
        let mut sources: Vec<_> = sources.into_iter().collect();
        let mut dests: Vec<_> = dests.into_iter().collect();
        sources.sort_unstable();
        dests.sort_unstable();
        (sources, dests)
    }

    /// Classifies the mapping component containing `sentence` per Figure 1.
    /// Returns `None` when the sentence participates in no mapping.
    pub fn shape_of(&self, sentence: SentenceId) -> Option<MappingShape> {
        if !self.forward.contains_key(&sentence) && !self.reverse.contains_key(&sentence) {
            return None;
        }
        let (sources, dests) = self.component_of(sentence);
        // A sentence can be both a source and a destination in chained
        // mappings; shape is judged on the source/destination role counts.
        Some(match (sources.len() > 1, dests.len() > 1) {
            (false, false) => MappingShape::OneToOne,
            (false, true) => MappingShape::OneToMany,
            (true, false) => MappingShape::ManyToOne,
            (true, true) => MappingShape::ManyToMany,
        })
    }

    /// Enumerates every connected component in the table as
    /// `(sources, destinations, shape)` triples, in a deterministic order
    /// (sorted by smallest member sentence).
    pub fn components(&self) -> Vec<(Vec<SentenceId>, Vec<SentenceId>, MappingShape)> {
        let mut visited: FxHashSet<SentenceId> = FxHashSet::default();
        let mut all: Vec<SentenceId> = self
            .forward
            .keys()
            .chain(self.reverse.keys())
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        let mut out = Vec::new();
        for s in all {
            if visited.contains(&s) {
                continue;
            }
            let (sources, dests) = self.component_of(s);
            for &m in sources.iter().chain(dests.iter()) {
                visited.insert(m);
            }
            let shape = match (sources.len() > 1, dests.len() > 1) {
                (false, false) => MappingShape::OneToOne,
                (false, true) => MappingShape::OneToMany,
                (true, false) => MappingShape::ManyToOne,
                (true, true) => MappingShape::ManyToMany,
            };
            out.push((sources, dests, shape));
        }
        out
    }

    /// Merges another table's records into this one (used when combining
    /// static PIF-derived mappings with dynamically reported ones).
    pub fn extend_from(&mut self, other: &MappingTable) {
        for &d in &other.defs {
            self.add(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Namespace, SentenceId};

    /// Builds `n` distinct sentences and returns their ids.
    fn sentences(n: usize) -> Vec<SentenceId> {
        let ns = Namespace::new();
        let l = ns.level("L");
        let v = ns.verb(l, "v", "");
        (0..n)
            .map(|i| {
                let noun = ns.noun(l, &format!("n{i}"), "");
                ns.say(v, [noun])
            })
            .collect()
    }

    #[test]
    fn duplicate_records_are_ignored() {
        let s = sentences(2);
        let mut t = MappingTable::new();
        assert!(t.map(s[0], s[1]));
        assert!(!t.map(s[0], s[1]));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn one_to_one_shape() {
        let s = sentences(2);
        let mut t = MappingTable::new();
        t.map(s[0], s[1]);
        assert_eq!(t.shape_of(s[0]), Some(MappingShape::OneToOne));
        assert_eq!(t.shape_of(s[1]), Some(MappingShape::OneToOne));
        assert_eq!(t.destinations(s[0]), &[s[1]]);
        assert_eq!(t.sources(s[1]), &[s[0]]);
    }

    #[test]
    fn one_to_many_shape() {
        // Low-level function F implements reductions R1, R2 (Figure 1 row 2).
        let s = sentences(3);
        let (f, r1, r2) = (s[0], s[1], s[2]);
        let mut t = MappingTable::new();
        t.map(f, r1);
        t.map(f, r2);
        assert_eq!(t.shape_of(f), Some(MappingShape::OneToMany));
        assert_eq!(t.shape_of(r1), Some(MappingShape::OneToMany));
        assert_eq!(t.destinations(f).len(), 2);
    }

    #[test]
    fn many_to_one_shape() {
        // Functions F1, F2 implement one source line L (Figure 1 row 3).
        let s = sentences(3);
        let (f1, f2, line) = (s[0], s[1], s[2]);
        let mut t = MappingTable::new();
        t.map(f1, line);
        t.map(f2, line);
        assert_eq!(t.shape_of(line), Some(MappingShape::ManyToOne));
        assert_eq!(t.sources(line).len(), 2);
    }

    #[test]
    fn many_to_many_shape_via_overlap() {
        // Lines L1, L2 implemented by an overlapping set of functions
        // (Figure 1 row 4): F1 -> L1, F2 -> L1, F2 -> L2.
        let s = sentences(4);
        let (f1, f2, l1, l2) = (s[0], s[1], s[2], s[3]);
        let mut t = MappingTable::new();
        t.map(f1, l1);
        t.map(f2, l1);
        t.map(f2, l2);
        for x in [f1, f2, l1, l2] {
            assert_eq!(t.shape_of(x), Some(MappingShape::ManyToMany));
        }
    }

    #[test]
    fn unmapped_sentence_has_no_shape() {
        let s = sentences(2);
        let t = MappingTable::new();
        assert_eq!(t.shape_of(s[0]), None);
        assert!(t.destinations(s[1]).is_empty());
    }

    #[test]
    fn components_partition_the_graph() {
        let s = sentences(6);
        let mut t = MappingTable::new();
        t.map(s[0], s[1]); // component A: 1-1
        t.map(s[2], s[3]); // component B: 1-many
        t.map(s[2], s[4]);
        t.map(s[5], s[3]); // joins component B -> many-many
        let comps = t.components();
        assert_eq!(comps.len(), 2);
        let shapes: Vec<MappingShape> = comps.iter().map(|c| c.2).collect();
        assert!(shapes.contains(&MappingShape::OneToOne));
        assert!(shapes.contains(&MappingShape::ManyToMany));
    }

    #[test]
    fn extend_from_is_idempotent() {
        let s = sentences(3);
        let mut a = MappingTable::new();
        a.map(s[0], s[1]);
        let mut b = MappingTable::new();
        b.map(s[0], s[1]);
        b.map(s[1], s[2]);
        a.extend_from(&b);
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn chained_mappings_form_one_component() {
        // base -> CMRTS -> CMF chains: s0 -> s1 -> s2.
        let s = sentences(3);
        let mut t = MappingTable::new();
        t.map(s[0], s[1]);
        t.map(s[1], s[2]);
        let (sources, dests) = t.component_of(s[0]);
        assert_eq!(sources, {
            let mut v = vec![s[0], s[1]];
            v.sort_unstable();
            v
        });
        assert_eq!(dests, {
            let mut v = vec![s[1], s[2]];
            v.sort_unstable();
            v
        });
    }
}
