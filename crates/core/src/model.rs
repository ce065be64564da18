//! The Noun-Verb (NV) model for parallel program performance explanation.
//!
//! In the NV model (paper §1):
//!
//! * a **noun** is any program element for which performance measurements can
//!   be made (programs, subroutines, loops, arrays, statements, processors,
//!   messages, ...);
//! * a **verb** is any potential action taken by or performed on a noun
//!   (*executes*, *sums*, *sends a message*, ...);
//! * a **sentence** is an instance of a construct described by a verb: a verb
//!   together with its participating nouns (its *cost* is carried separately,
//!   see [`crate::cost`]);
//! * the nouns and verbs of one software or hardware layer form a **level of
//!   abstraction**, and sentences of different levels are related by
//!   **mappings** ([`crate::mapping`]).
//!
//! All names are interned in a [`Namespace`] so the hot paths (the Set of
//! Active Sentences, question matching) operate on dense integer ids.

use crate::util::FxHashMap;
use std::fmt;
use std::sync::Arc;

use crate::util::RwLock;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Returns the dense index backing this id.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an id from a raw index. Only meaningful for indices
            /// previously produced by the same [`Namespace`].
            #[inline]
            pub fn from_index(i: usize) -> Self {
                Self(i as u32)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({})", stringify!($name), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a level of abstraction (e.g. `CM Fortran`, `CMRTS`, `Base`).
    LevelId
);
id_type!(
    /// Identifies an interned noun.
    NounId
);
id_type!(
    /// Identifies an interned verb.
    VerbId
);
id_type!(
    /// Identifies an interned [`Sentence`] (verb + noun set).
    SentenceId
);

/// Definition record for a level of abstraction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelDef {
    /// Human-readable level name, unique within a namespace.
    pub name: String,
}

/// Definition record for a noun (paper Figure 3: name, level of abstraction,
/// descriptive information).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NounDef {
    /// Noun name, unique within its level.
    pub name: String,
    /// The level of abstraction the noun belongs to.
    pub level: LevelId,
    /// Free-form descriptive information (e.g. `line #1160 in source file
    /// /usr/src/prog/main.fcm`).
    pub description: String,
}

/// Definition record for a verb (paper Figure 3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerbDef {
    /// Verb name, unique within its level.
    pub name: String,
    /// The level of abstraction the verb belongs to.
    pub level: LevelId,
    /// Free-form descriptive information (e.g. `units are "% CPU"`).
    pub description: String,
}

/// A sentence: one verb plus the set of participating nouns.
///
/// Noun order is canonicalised (sorted) so two sentences with the same
/// participants compare equal regardless of construction order.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sentence {
    verb: VerbId,
    nouns: Box<[NounId]>,
}

impl Sentence {
    /// Builds a sentence from a verb and any iterable of nouns. Duplicate
    /// nouns are collapsed; order is irrelevant.
    pub fn new(verb: VerbId, nouns: impl IntoIterator<Item = NounId>) -> Self {
        let mut nouns: Vec<NounId> = nouns.into_iter().collect();
        nouns.sort_unstable();
        nouns.dedup();
        Self {
            verb,
            nouns: nouns.into_boxed_slice(),
        }
    }

    /// The sentence's verb.
    #[inline]
    pub fn verb(&self) -> VerbId {
        self.verb
    }

    /// The sentence's participating nouns, sorted.
    #[inline]
    pub fn nouns(&self) -> &[NounId] {
        &self.nouns
    }

    /// True if `noun` participates in this sentence.
    #[inline]
    pub fn contains_noun(&self, noun: NounId) -> bool {
        self.nouns.binary_search(&noun).is_ok()
    }
}

impl fmt::Debug for Sentence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sentence(v{}, {:?})", self.verb.0, self.nouns)
    }
}

#[derive(Default)]
struct NamespaceInner {
    levels: Vec<LevelDef>,
    level_by_name: FxHashMap<String, LevelId>,
    nouns: Vec<NounDef>,
    noun_by_key: FxHashMap<(LevelId, String), NounId>,
    verbs: Vec<VerbDef>,
    verb_by_key: FxHashMap<(LevelId, String), VerbId>,
    sentences: Vec<Sentence>,
    sentence_ids: FxHashMap<Sentence, SentenceId>,
}

/// The resource dictionary: interns levels, nouns, verbs, and sentences and
/// owns their definition records.
///
/// A `Namespace` is cheap to clone (`Arc` internally) and safe to share
/// across the threads of an SPMD engine; reads take a shared lock, while
/// definitions (rare: program load and dynamic noun creation) take an
/// exclusive lock.
#[derive(Clone, Default)]
pub struct Namespace {
    inner: Arc<RwLock<NamespaceInner>>,
}

impl Namespace {
    /// Creates an empty namespace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Defines (or returns the existing) level with the given name.
    pub fn level(&self, name: &str) -> LevelId {
        let mut g = self.inner.write();
        if let Some(&id) = g.level_by_name.get(name) {
            return id;
        }
        crate::intern::sym(name);
        let id = LevelId(g.levels.len() as u32);
        g.levels.push(LevelDef {
            name: name.to_string(),
        });
        g.level_by_name.insert(name.to_string(), id);
        id
    }

    /// Defines (or returns the existing) noun `name` at `level`. A repeated
    /// definition keeps the first description.
    pub fn noun(&self, level: LevelId, name: &str, description: &str) -> NounId {
        let mut g = self.inner.write();
        if let Some(&id) = g.noun_by_key.get(&(level, name.to_string())) {
            return id;
        }
        crate::intern::sym(name);
        let id = NounId(g.nouns.len() as u32);
        g.nouns.push(NounDef {
            name: name.to_string(),
            level,
            description: description.to_string(),
        });
        g.noun_by_key.insert((level, name.to_string()), id);
        id
    }

    /// Defines (or returns the existing) verb `name` at `level`.
    pub fn verb(&self, level: LevelId, name: &str, description: &str) -> VerbId {
        let mut g = self.inner.write();
        if let Some(&id) = g.verb_by_key.get(&(level, name.to_string())) {
            return id;
        }
        crate::intern::sym(name);
        let id = VerbId(g.verbs.len() as u32);
        g.verbs.push(VerbDef {
            name: name.to_string(),
            level,
            description: description.to_string(),
        });
        g.verb_by_key.insert((level, name.to_string()), id);
        id
    }

    /// Interns a sentence, returning a dense [`SentenceId`].
    pub fn sentence(&self, sentence: Sentence) -> SentenceId {
        let mut g = self.inner.write();
        if let Some(&id) = g.sentence_ids.get(&sentence) {
            return id;
        }
        let id = SentenceId(g.sentences.len() as u32);
        g.sentences.push(sentence.clone());
        g.sentence_ids.insert(sentence, id);
        id
    }

    /// Convenience: interns the sentence `verb(nouns...)`.
    pub fn say(&self, verb: VerbId, nouns: impl IntoIterator<Item = NounId>) -> SentenceId {
        self.sentence(Sentence::new(verb, nouns))
    }

    /// Looks up an already-defined level by name.
    pub fn find_level(&self, name: &str) -> Option<LevelId> {
        self.inner.read().level_by_name.get(name).copied()
    }

    /// Looks up an already-defined noun by level and name.
    pub fn find_noun(&self, level: LevelId, name: &str) -> Option<NounId> {
        self.inner
            .read()
            .noun_by_key
            .get(&(level, name.to_string()))
            .copied()
    }

    /// Looks up an already-defined verb by level and name.
    pub fn find_verb(&self, level: LevelId, name: &str) -> Option<VerbId> {
        self.inner
            .read()
            .verb_by_key
            .get(&(level, name.to_string()))
            .copied()
    }

    /// Returns the definition record for `level`.
    pub fn level_def(&self, level: LevelId) -> LevelDef {
        self.inner.read().levels[level.index()].clone()
    }

    /// Returns the definition record for `noun`.
    pub fn noun_def(&self, noun: NounId) -> NounDef {
        self.inner.read().nouns[noun.index()].clone()
    }

    /// Returns the definition record for `verb`.
    pub fn verb_def(&self, verb: VerbId) -> VerbDef {
        self.inner.read().verbs[verb.index()].clone()
    }

    /// Returns the interned sentence backing `id`.
    pub fn sentence_def(&self, id: SentenceId) -> Sentence {
        self.inner.read().sentences[id.index()].clone()
    }

    /// Runs `f` against the interned sentence backing `id` without cloning
    /// its noun list — the allocation-free accessor the SAS match paths
    /// use (pattern matching reads the sentence; it never needs to own it).
    pub fn with_sentence<R>(&self, id: SentenceId, f: impl FnOnce(&Sentence) -> R) -> R {
        f(&self.inner.read().sentences[id.index()])
    }

    /// The level of abstraction of a sentence is the level of its verb.
    pub fn sentence_level(&self, id: SentenceId) -> LevelId {
        let g = self.inner.read();
        let verb = g.sentences[id.index()].verb;
        g.verbs[verb.index()].level
    }

    /// Number of levels defined so far.
    pub fn num_levels(&self) -> usize {
        self.inner.read().levels.len()
    }

    /// Number of nouns defined so far.
    pub fn num_nouns(&self) -> usize {
        self.inner.read().nouns.len()
    }

    /// Number of distinct sentences interned so far.
    pub fn num_sentences(&self) -> usize {
        self.inner.read().sentences.len()
    }

    /// Renders a sentence as `Verb(noun, noun, ...)` using definition names.
    pub fn render_sentence(&self, id: SentenceId) -> String {
        let g = self.inner.read();
        let s = &g.sentences[id.index()];
        let verb = &g.verbs[s.verb.index()];
        let level = &g.levels[verb.level.index()];
        let nouns: Vec<&str> = s
            .nouns
            .iter()
            .map(|n| g.nouns[n.index()].name.as_str())
            .collect();
        format!("{}: {{{}}} {}", level.name, nouns.join(", "), verb.name)
    }

    /// Iterates over all noun ids defined at `level`.
    pub fn nouns_at_level(&self, level: LevelId) -> Vec<NounId> {
        let g = self.inner.read();
        g.nouns
            .iter()
            .enumerate()
            .filter(|(_, d)| d.level == level)
            .map(|(i, _)| NounId(i as u32))
            .collect()
    }

    /// Iterates over all verb ids defined at `level`.
    pub fn verbs_at_level(&self, level: LevelId) -> Vec<VerbId> {
        let g = self.inner.read();
        g.verbs
            .iter()
            .enumerate()
            .filter(|(_, d)| d.level == level)
            .map(|(i, _)| VerbId(i as u32))
            .collect()
    }
}

impl fmt::Debug for Namespace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = self.inner.read();
        f.debug_struct("Namespace")
            .field("levels", &g.levels.len())
            .field("nouns", &g.nouns.len())
            .field("verbs", &g.verbs.len())
            .field("sentences", &g.sentences.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns() -> Namespace {
        Namespace::new()
    }

    #[test]
    fn level_interning_is_idempotent() {
        let n = ns();
        let a = n.level("CM Fortran");
        let b = n.level("CM Fortran");
        assert_eq!(a, b);
        assert_eq!(n.num_levels(), 1);
        assert_eq!(n.level_def(a).name, "CM Fortran");
    }

    #[test]
    fn nouns_are_unique_per_level() {
        let n = ns();
        let hpf = n.level("HPF");
        let base = n.level("Base");
        let a1 = n.noun(hpf, "A", "array A");
        let a2 = n.noun(base, "A", "symbol A");
        assert_ne!(a1, a2);
        assert_eq!(n.noun(hpf, "A", "ignored"), a1);
        assert_eq!(n.noun_def(a1).description, "array A");
    }

    #[test]
    fn verbs_carry_level_and_description() {
        let n = ns();
        let cmf = n.level("CM Fortran");
        let v = n.verb(cmf, "Executes", "units are \"% CPU\"");
        let def = n.verb_def(v);
        assert_eq!(def.name, "Executes");
        assert_eq!(def.level, cmf);
        assert!(def.description.contains("% CPU"));
    }

    #[test]
    fn sentence_canonicalises_noun_order_and_dupes() {
        let n = ns();
        let l = n.level("L");
        let v = n.verb(l, "v", "");
        let a = n.noun(l, "a", "");
        let b = n.noun(l, "b", "");
        let s1 = Sentence::new(v, [a, b]);
        let s2 = Sentence::new(v, [b, a, b]);
        assert_eq!(s1, s2);
        assert_eq!(n.sentence(s1), n.sentence(s2));
        assert_eq!(n.num_sentences(), 1);
    }

    #[test]
    fn sentence_level_comes_from_verb() {
        let n = ns();
        let hpf = n.level("HPF");
        let base = n.level("Base");
        let sum = n.verb(hpf, "Sum", "");
        let send = n.verb(base, "Send", "");
        let a = n.noun(hpf, "A", "");
        let p = n.noun(base, "P0", "");
        let s_hi = n.say(sum, [a]);
        let s_lo = n.say(send, [p]);
        assert_eq!(n.sentence_level(s_hi), hpf);
        assert_eq!(n.sentence_level(s_lo), base);
    }

    #[test]
    fn render_sentence_uses_names() {
        let n = ns();
        let hpf = n.level("HPF");
        let sum = n.verb(hpf, "Sums", "");
        let a = n.noun(hpf, "A", "");
        let s = n.say(sum, [a]);
        assert_eq!(n.render_sentence(s), "HPF: {A} Sums");
    }

    #[test]
    fn contains_noun() {
        let n = ns();
        let l = n.level("L");
        let v = n.verb(l, "v", "");
        let a = n.noun(l, "a", "");
        let b = n.noun(l, "b", "");
        let c = n.noun(l, "c", "");
        let s = Sentence::new(v, [a, c]);
        assert!(s.contains_noun(a));
        assert!(!s.contains_noun(b));
        assert!(s.contains_noun(c));
    }

    #[test]
    fn level_queries() {
        let n = ns();
        let hpf = n.level("HPF");
        let base = n.level("Base");
        n.noun(hpf, "A", "");
        n.noun(hpf, "B", "");
        n.noun(base, "f", "");
        n.verb(hpf, "Sums", "");
        n.verb(base, "Sends", "");
        assert_eq!(n.nouns_at_level(hpf).len(), 2);
        assert_eq!(n.nouns_at_level(base).len(), 1);
        assert_eq!(n.verbs_at_level(hpf).len(), 1);
        assert_eq!(n.find_level("HPF"), Some(hpf));
        assert_eq!(n.find_level("nope"), None);
        assert!(n.find_noun(hpf, "A").is_some());
        assert!(n.find_noun(base, "A").is_none());
        assert!(n.find_verb(base, "Sends").is_some());
    }

    #[test]
    fn namespace_is_shareable_across_threads() {
        let n = ns();
        let l = n.level("L");
        std::thread::scope(|s| {
            for t in 0..4 {
                let n = n.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        n.noun(l, &format!("n{}_{}", t, i), "");
                    }
                });
            }
        });
        assert_eq!(n.num_nouns(), 400);
    }
}
