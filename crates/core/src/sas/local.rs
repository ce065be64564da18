//! The Set of Active Sentences (paper §4.2.1).
//!
//! "The Set of Active Sentences (SAS) is a data structure that records the
//! current execution state of each level of abstraction similar to the way a
//! procedure call stack keeps track of active functions. Whenever a sentence
//! at any level of abstraction becomes active, it adds itself to the SAS,
//! and when any sentence becomes inactive, it deletes itself from the SAS.
//! Any two sentences contained in the SAS concurrently are considered to
//! dynamically map to one another."
//!
//! [`LocalSas`] is the single-node variant: one exists per parallel node
//! (§4.2.3), so its methods take `&mut self` and the hot paths are free of
//! synchronisation. Wrappers in [`crate::sas::shared`] add locking for
//! shared use, and [`crate::sas::distributed`] adds cross-node forwarding.
//!
//! Performance questions (§4.2.2) are *registered* with the SAS; every
//! activation/deactivation incrementally updates per-pattern ("atom")
//! active counts so that [`LocalSas::satisfied`] — the check monitoring
//! code performs before measuring — is O(question size) and usually O(1).
//! This mirrors §6.1: "The SAS module then sets a boolean variable to true
//! whenever the requested array is active."

use crate::model::{Namespace, SentenceId};
use crate::sas::question::{ExprNode, Question, QuestionExpr, QuestionId, SentencePattern};
use crate::util::BitSet;

/// Counters describing SAS traffic; used by the perturbation study
/// (limitation 2 of §4.2.4: "sentence activity notifications that are
/// ignored by the SAS cause unnecessary execution costs").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SasStats {
    /// Total activation notifications received.
    pub activations: u64,
    /// Total deactivation notifications received.
    pub deactivations: u64,
    /// Activations dropped by the uninteresting-sentence filter.
    pub filtered: u64,
    /// Deactivations for sentences that were not active (caller bug or a
    /// filtered activation); ignored but counted.
    pub unbalanced_deactivations: u64,
}

#[derive(Clone, Debug)]
struct Atom {
    pattern: SentencePattern,
    /// Number of active sentence *instances* matching this pattern.
    active: u32,
    /// Activation sequence numbers of the matching active instances,
    /// ascending (used by ordered questions).
    active_seqs: Vec<(u64, SentenceId)>,
    /// Conjunction questions whose component set includes this atom.
    conj_users: Vec<u32>,
}

#[derive(Clone, Debug)]
enum QuestionKind {
    /// The paper's conjunction-vector question.
    Conj {
        /// Distinct atom indices, in component order.
        atoms: Vec<usize>,
        /// Order-sensitive evaluation (limitation-3 extension).
        ordered: bool,
    },
    /// Boolean-expression extension.
    Expr {
        /// Atom indices for the expression's leaves.
        leaves: Vec<usize>,
        /// The compiled tree.
        tree: ExprNode,
    },
}

#[derive(Clone, Debug)]
struct CompiledQuestion {
    kind: QuestionKind,
    /// For `Conj`: number of atoms currently inactive. Satisfied iff 0.
    unsatisfied: u32,
    /// Number of unsatisfied→satisfied transitions observed (Conj only;
    /// unordered truth).
    satisfied_transitions: u64,
    /// A removed question never satisfies again (its atoms keep counting —
    /// they may be shared with other questions).
    removed: bool,
}

/// A point-in-time copy of the SAS contents, in first-activation order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(sentence, active instance count)` pairs.
    pub entries: Vec<(SentenceId, u32)>,
}

impl Snapshot {
    /// Renders one line per active sentence, Figure 5 style.
    pub fn render(&self, ns: &Namespace) -> String {
        let mut out = String::new();
        for &(sid, count) in &self.entries {
            out.push_str(&ns.render_sentence(sid));
            if count > 1 {
                out.push_str(&format!(" (x{count})"));
            }
            out.push('\n');
        }
        out
    }

    /// Active sentence ids, in first-activation order.
    pub fn sentences(&self) -> impl Iterator<Item = SentenceId> + '_ {
        self.entries.iter().map(|&(s, _)| s)
    }

    /// Number of distinct active sentences.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no sentence is active.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The per-node Set of Active Sentences.
#[derive(Clone, Debug)]
pub struct LocalSas {
    ns: Namespace,
    /// Per-sentence active instance count.
    counts: Vec<u32>,
    /// Per-sentence most recent activation sequence number.
    last_seq: Vec<u64>,
    /// Distinct active sentences in first-activation order. The SAS behaves
    /// like a call stack in the common nested case, so this stays small and
    /// linear removal is cheap (measured in `benches/sas_ops.rs`).
    order: Vec<SentenceId>,
    seq: u64,
    atoms: Vec<Atom>,
    questions: Vec<CompiledQuestion>,
    /// Per-sentence cached atom-match mask, tagged with the question-set
    /// version it was computed under.
    match_cache: Vec<(u32, BitSet)>,
    cache_version: u32,
    /// §4.2 final paragraph: "the SAS may avoid keeping sentences that do
    /// not contain A" — when set, activations matching no atom are dropped.
    filter_uninteresting: bool,
    stats: SasStats,
}

impl LocalSas {
    /// Creates an empty SAS over `ns`.
    pub fn new(ns: Namespace) -> Self {
        Self {
            ns,
            counts: Vec::new(),
            last_seq: Vec::new(),
            order: Vec::new(),
            seq: 0,
            atoms: Vec::new(),
            questions: Vec::new(),
            match_cache: Vec::new(),
            cache_version: 1,
            filter_uninteresting: false,
            stats: SasStats::default(),
        }
    }

    /// The namespace sentences are interpreted against.
    pub fn namespace(&self) -> &Namespace {
        &self.ns
    }

    /// Enables or disables dropping of activations that no registered
    /// question cares about. Enabling trades completeness for lower cost
    /// exactly as the paper warns (filtered sentences cannot satisfy
    /// questions registered later).
    pub fn set_filter_uninteresting(&mut self, on: bool) {
        self.filter_uninteresting = on;
    }

    /// Traffic counters.
    pub fn stats(&self) -> SasStats {
        self.stats
    }

    fn ensure_sentence_slot(&mut self, sid: SentenceId) {
        let need = sid.index() + 1;
        if self.counts.len() < need {
            self.counts.resize(need, 0);
            self.last_seq.resize(need, 0);
            self.match_cache.resize(need, (0, BitSet::new()));
        }
    }

    /// Brings the cached atom-match mask for `sid` up to date, computing
    /// it if stale. Callers then read `match_cache[sid]` in place, borrowed
    /// apart from the atoms and questions they update, so an activation
    /// allocates nothing.
    fn refresh_mask(&mut self, sid: SentenceId) {
        self.ensure_sentence_slot(sid);
        if self.match_cache[sid.index()].0 == self.cache_version {
            return;
        }
        // Zero-clone: the pattern probes only read the sentence, so borrow
        // it in place instead of cloning its noun list per recompute.
        let atoms = &self.atoms;
        let mask = self.ns.with_sentence(sid, |sentence| {
            let mut mask = BitSet::with_capacity(atoms.len());
            for (i, atom) in atoms.iter().enumerate() {
                if atom.pattern.matches(sentence) {
                    mask.insert(i);
                }
            }
            mask
        });
        self.match_cache[sid.index()] = (self.cache_version, mask);
    }

    /// Notifies the SAS that `sid` has become active.
    pub fn activate(&mut self, sid: SentenceId) {
        self.stats.activations += 1;
        self.refresh_mask(sid);
        let mask = &self.match_cache[sid.index()].1;
        if self.filter_uninteresting && mask.is_empty() {
            self.stats.filtered += 1;
            return;
        }
        self.seq += 1;
        let seq = self.seq;
        let count = &mut self.counts[sid.index()];
        *count += 1;
        if *count == 1 {
            self.order.push(sid);
        }
        self.last_seq[sid.index()] = seq;
        for atom_idx in mask.iter() {
            let atom = &mut self.atoms[atom_idx];
            atom.active += 1;
            atom.active_seqs.push((seq, sid));
            if atom.active == 1 {
                for &q in &atom.conj_users {
                    let q = &mut self.questions[q as usize];
                    q.unsatisfied -= 1;
                    if q.unsatisfied == 0 {
                        q.satisfied_transitions += 1;
                    }
                }
            }
        }
    }

    /// Notifies the SAS that `sid` has become inactive. Unbalanced
    /// deactivations (sentence not active) are counted and ignored.
    pub fn deactivate(&mut self, sid: SentenceId) {
        self.stats.deactivations += 1;
        self.ensure_sentence_slot(sid);
        if self.counts[sid.index()] == 0 {
            self.stats.unbalanced_deactivations += 1;
            return;
        }
        self.refresh_mask(sid);
        let mask = &self.match_cache[sid.index()].1;
        let count = &mut self.counts[sid.index()];
        *count -= 1;
        if *count == 0 {
            // Search from the back: in stack-like usage the sentence being
            // removed is usually the most recent.
            if let Some(pos) = self.order.iter().rposition(|&s| s == sid) {
                self.order.remove(pos);
            }
        }
        for atom_idx in mask.iter() {
            let atom = &mut self.atoms[atom_idx];
            debug_assert!(atom.active > 0);
            atom.active -= 1;
            // Remove the most recent active instance of this sentence.
            if let Some(pos) = atom.active_seqs.iter().rposition(|&(_, s)| s == sid) {
                atom.active_seqs.remove(pos);
            }
            if atom.active == 0 {
                for &q in &atom.conj_users {
                    self.questions[q as usize].unsatisfied += 1;
                }
            }
        }
    }

    /// True if at least one instance of `sid` is active.
    pub fn is_active(&self, sid: SentenceId) -> bool {
        self.counts.get(sid.index()).copied().unwrap_or(0) > 0
    }

    /// Number of active instances of `sid`.
    pub fn active_count(&self, sid: SentenceId) -> u32 {
        self.counts.get(sid.index()).copied().unwrap_or(0)
    }

    /// Number of distinct active sentences.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no sentence is active.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The distinct active sentences in first-activation order, borrowed:
    /// what [`LocalSas::snapshot`] copies, without the copy. The
    /// instrumentation manager reads it at every point execution to visit
    /// only the snippets keyed by an active sentence.
    pub fn active_sentences(&self) -> &[SentenceId] {
        &self.order
    }

    /// Copies the current contents (Figure 5's display).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            entries: self
                .order
                .iter()
                .map(|&s| (s, self.counts[s.index()]))
                .collect(),
        }
    }

    /// "Any two sentences contained in the SAS concurrently are considered
    /// to dynamically map to one another": the sentences currently mapped
    /// to `sid` (every other active sentence), in activation order.
    pub fn dynamic_mappings_for(&self, sid: SentenceId) -> Vec<SentenceId> {
        self.order.iter().copied().filter(|&s| s != sid).collect()
    }

    /// Active sentences matching an ad-hoc pattern (linear scan; prefer
    /// registered questions for hot paths).
    pub fn active_matching(&self, pattern: &SentencePattern) -> Vec<SentenceId> {
        self.order
            .iter()
            .copied()
            .filter(|&s| self.ns.with_sentence(s, |def| pattern.matches(def)))
            .collect()
    }

    fn intern_atom(&mut self, pattern: &SentencePattern) -> usize {
        if let Some(i) = self.atoms.iter().position(|a| &a.pattern == pattern) {
            return i;
        }
        // New atom: initialise its state from the currently active
        // sentences, then invalidate match caches.
        let mut active = 0u32;
        let mut active_seqs: Vec<(u64, SentenceId)> = Vec::new();
        for &sid in &self.order {
            if self.ns.with_sentence(sid, |def| pattern.matches(def)) {
                let n = self.counts[sid.index()];
                active += n;
                // We only know the most recent activation seq per sentence;
                // replicate it for each instance (adequate for ordering).
                for _ in 0..n {
                    active_seqs.push((self.last_seq[sid.index()], sid));
                }
            }
        }
        active_seqs.sort_unstable();
        self.atoms.push(Atom {
            pattern: pattern.clone(),
            active,
            active_seqs,
            conj_users: Vec::new(),
        });
        self.cache_version += 1;
        self.atoms.len() - 1
    }

    /// Registers a conjunction question (paper §4.2.2). May be called at any
    /// time — the paper defers question asking to run time.
    pub fn register_question(&mut self, q: &Question) -> QuestionId {
        let qid = QuestionId(self.questions.len() as u32);
        let mut atom_idxs: Vec<usize> = Vec::with_capacity(q.components.len());
        for pat in &q.components {
            let idx = self.intern_atom(pat);
            if !atom_idxs.contains(&idx) {
                atom_idxs.push(idx);
            }
        }
        let unsatisfied = atom_idxs
            .iter()
            .filter(|&&i| self.atoms[i].active == 0)
            .count() as u32;
        for &i in &atom_idxs {
            self.atoms[i].conj_users.push(qid.0);
        }
        self.questions.push(CompiledQuestion {
            kind: QuestionKind::Conj {
                atoms: atom_idxs,
                ordered: q.ordered,
            },
            unsatisfied,
            satisfied_transitions: 0,
            removed: false,
        });
        qid
    }

    /// Registers a boolean-expression question (§4.2.2 extension).
    /// The SAS addresses the question by its id; `_name` is the caller's
    /// label and is not stored.
    pub fn register_expr(&mut self, _name: &str, expr: &QuestionExpr) -> QuestionId {
        let (patterns, tree) = expr.compile();
        let leaves: Vec<usize> = patterns.iter().map(|p| self.intern_atom(p)).collect();
        let qid = QuestionId(self.questions.len() as u32);
        self.questions.push(CompiledQuestion {
            kind: QuestionKind::Expr { leaves, tree },
            unsatisfied: 0,
            satisfied_transitions: 0,
            removed: false,
        });
        qid
    }

    /// The predicate monitoring code evaluates before measuring: are all
    /// components of the question currently active (and, for ordered
    /// questions, were they activated in component order)?
    pub fn satisfied(&self, qid: QuestionId) -> bool {
        let q = &self.questions[qid.index()];
        if q.removed {
            return false;
        }
        match &q.kind {
            QuestionKind::Conj { atoms, ordered } => {
                if q.unsatisfied != 0 {
                    return false;
                }
                if !*ordered {
                    return true;
                }
                self.ordered_check(atoms)
            }
            QuestionKind::Expr { leaves, tree } => {
                tree.eval(&|leaf| self.atoms[leaves[leaf]].active > 0)
            }
        }
    }

    /// Greedy order check: pick, for each component in turn, the earliest
    /// active matching activation later than the previous component's pick.
    fn ordered_check(&self, atoms: &[usize]) -> bool {
        let mut prev = 0u64;
        for &ai in atoms {
            let seqs = &self.atoms[ai].active_seqs;
            let pos = seqs.partition_point(|&(s, _)| s <= prev);
            match seqs.get(pos) {
                Some(&(s, _)) => prev = s,
                None => return false,
            }
        }
        true
    }

    /// How many times the (unordered) conjunction question transitioned from
    /// unsatisfied to satisfied. Returns 0 for expression questions.
    pub fn satisfied_transitions(&self, qid: QuestionId) -> u64 {
        self.questions[qid.index()].satisfied_transitions
    }

    /// Number of registered questions (including removed ones, whose ids
    /// stay allocated).
    pub fn num_questions(&self) -> usize {
        self.questions.len()
    }

    /// Removes a question: it never satisfies again. The paper defers
    /// question *asking* to run time; cancelled measurement requests defer
    /// question *retirement* the same way. Atoms shared with other
    /// questions keep counting. Idempotent.
    pub fn remove_question(&mut self, qid: QuestionId) {
        self.questions[qid.index()].removed = true;
    }

    /// True if the question has been removed.
    pub fn question_removed(&self, qid: QuestionId) -> bool {
        self.questions[qid.index()].removed
    }

    /// True if some registered question's pattern set matches this sentence
    /// (i.e. the sentence is "interesting"). Exposed for the notification-
    /// pruning mechanism (§4.2.4 limitation 2: uninteresting notifications
    /// can be dynamically removed from the executing code).
    pub fn is_interesting(&mut self, sid: SentenceId) -> bool {
        self.refresh_mask(sid);
        !self.match_cache[sid.index()].1.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{NounId, VerbId};
    use crate::sas::question::{Question, QuestionExpr, SentencePattern};

    struct Fx {
        ns: Namespace,
        sum: VerbId,
        maxval: VerbId,
        send: VerbId,
        exec: VerbId,
        a: NounId,
        b: NounId,
        line1: NounId,
        p0: NounId,
    }

    fn fx() -> Fx {
        let ns = Namespace::new();
        let hpf = ns.level("HPF");
        let base = ns.level("Base");
        Fx {
            sum: ns.verb(hpf, "Sums", ""),
            maxval: ns.verb(hpf, "MaxVals", ""),
            send: ns.verb(base, "Sends", ""),
            exec: ns.verb(hpf, "Executes", ""),
            a: ns.noun(hpf, "A", ""),
            b: ns.noun(hpf, "B", ""),
            line1: ns.noun(hpf, "line#1", ""),
            p0: ns.noun(base, "Processor", ""),
            ns,
        }
    }

    #[test]
    fn activate_deactivate_roundtrip() {
        let f = fx();
        let mut sas = LocalSas::new(f.ns.clone());
        let s = f.ns.say(f.sum, [f.a]);
        assert!(!sas.is_active(s));
        sas.activate(s);
        assert!(sas.is_active(s));
        assert_eq!(sas.len(), 1);
        sas.deactivate(s);
        assert!(!sas.is_active(s));
        assert!(sas.is_empty());
    }

    #[test]
    fn nested_activations_are_a_multiset() {
        let f = fx();
        let mut sas = LocalSas::new(f.ns.clone());
        let s = f.ns.say(f.sum, [f.a]);
        sas.activate(s);
        sas.activate(s);
        assert_eq!(sas.active_count(s), 2);
        sas.deactivate(s);
        assert!(sas.is_active(s));
        sas.deactivate(s);
        assert!(!sas.is_active(s));
    }

    #[test]
    fn snapshot_preserves_activation_order() {
        let f = fx();
        let mut sas = LocalSas::new(f.ns.clone());
        let line = f.ns.say(f.exec, [f.line1]);
        let sums = f.ns.say(f.sum, [f.a]);
        let send = f.ns.say(f.send, [f.p0]);
        sas.activate(line);
        sas.activate(sums);
        sas.activate(send);
        let snap = sas.snapshot();
        let ids: Vec<SentenceId> = snap.sentences().collect();
        assert_eq!(ids, vec![line, sums, send]);
        let shown = snap.render(&f.ns);
        let lines: Vec<&str> = shown.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("line#1"));
        assert!(lines[2].contains("Processor"));
    }

    #[test]
    fn dynamic_mappings_are_concurrent_sentences() {
        let f = fx();
        let mut sas = LocalSas::new(f.ns.clone());
        let sums = f.ns.say(f.sum, [f.a]);
        let send = f.ns.say(f.send, [f.p0]);
        sas.activate(sums);
        sas.activate(send);
        assert_eq!(sas.dynamic_mappings_for(send), vec![sums]);
        sas.deactivate(sums);
        assert!(sas.dynamic_mappings_for(send).is_empty());
    }

    #[test]
    fn conjunction_question_satisfaction() {
        let f = fx();
        let mut sas = LocalSas::new(f.ns.clone());
        let q = Question::new(
            "sends while A sums",
            vec![
                SentencePattern::noun_verb(f.a, f.sum),
                SentencePattern::noun_verb(f.p0, f.send),
            ],
        );
        let qid = sas.register_question(&q);
        let sums = f.ns.say(f.sum, [f.a]);
        let send = f.ns.say(f.send, [f.p0]);
        assert!(!sas.satisfied(qid));
        sas.activate(sums);
        assert!(!sas.satisfied(qid));
        sas.activate(send);
        assert!(sas.satisfied(qid));
        sas.deactivate(sums);
        assert!(!sas.satisfied(qid));
        assert_eq!(sas.satisfied_transitions(qid), 1);
    }

    #[test]
    fn wildcard_question_matches_any_summed_array() {
        let f = fx();
        let mut sas = LocalSas::new(f.ns.clone());
        let q = Question::new("anything sums", vec![SentencePattern::any_noun(f.sum)]);
        let qid = sas.register_question(&q);
        let sum_b = f.ns.say(f.sum, [f.b]);
        sas.activate(sum_b);
        assert!(sas.satisfied(qid));
        sas.deactivate(sum_b);
        assert!(!sas.satisfied(qid));
    }

    #[test]
    fn question_registered_after_activation_sees_current_state() {
        let f = fx();
        let mut sas = LocalSas::new(f.ns.clone());
        let sums = f.ns.say(f.sum, [f.a]);
        sas.activate(sums);
        let qid = sas.register_question(&Question::new(
            "A sums",
            vec![SentencePattern::noun_verb(f.a, f.sum)],
        ));
        assert!(sas.satisfied(qid));
    }

    #[test]
    fn overlapping_patterns_share_atoms() {
        let f = fx();
        let mut sas = LocalSas::new(f.ns.clone());
        let p = SentencePattern::noun_verb(f.a, f.sum);
        let q1 = sas.register_question(&Question::new("q1", vec![p.clone()]));
        let q2 = sas.register_question(&Question::new("q2", vec![p.clone(), p.clone()]));
        let sums = f.ns.say(f.sum, [f.a]);
        sas.activate(sums);
        assert!(sas.satisfied(q1));
        assert!(sas.satisfied(q2));
        assert_eq!(sas.num_questions(), 2);
    }

    #[test]
    fn expression_question_or_and_not() {
        let f = fx();
        let mut sas = LocalSas::new(f.ns.clone());
        let pa = SentencePattern::noun_verb(f.a, f.sum);
        let pb = SentencePattern::noun_verb(f.b, f.maxval);
        // (A sums OR B maxvals) AND NOT (processor sends)
        let expr = QuestionExpr::pat(pa)
            .or(QuestionExpr::pat(pb))
            .and(QuestionExpr::pat(SentencePattern::noun_verb(f.p0, f.send)).not());
        let qid = sas.register_expr("expr", &expr);
        assert!(!sas.satisfied(qid));
        let sum_a = f.ns.say(f.sum, [f.a]);
        sas.activate(sum_a);
        assert!(sas.satisfied(qid));
        let send = f.ns.say(f.send, [f.p0]);
        sas.activate(send);
        assert!(!sas.satisfied(qid));
        sas.deactivate(send);
        assert!(sas.satisfied(qid));
    }

    #[test]
    fn ordered_question_distinguishes_direction() {
        let f = fx();
        let mut sas = LocalSas::new(f.ns.clone());
        // "messages sent during the summation of A": sum first, then send.
        let q = Question::new_ordered(
            "sends during sum",
            vec![
                SentencePattern::noun_verb(f.a, f.sum),
                SentencePattern::noun_verb(f.p0, f.send),
            ],
        );
        let qid = sas.register_question(&q);
        let sums = f.ns.say(f.sum, [f.a]);
        let send = f.ns.say(f.send, [f.p0]);
        // Wrong order: send begins before the summation.
        sas.activate(send);
        sas.activate(sums);
        assert!(!sas.satisfied(qid));
        sas.deactivate(send);
        // Right order.
        sas.activate(send);
        assert!(sas.satisfied(qid));
        // The unordered version would accept both orders.
        let q_un = Question::new(
            "unordered",
            vec![
                SentencePattern::noun_verb(f.a, f.sum),
                SentencePattern::noun_verb(f.p0, f.send),
            ],
        );
        let qid_un = sas.register_question(&q_un);
        assert!(sas.satisfied(qid_un));
    }

    #[test]
    fn filter_uninteresting_drops_and_counts() {
        let f = fx();
        let mut sas = LocalSas::new(f.ns.clone());
        sas.register_question(&Question::new(
            "A only",
            vec![SentencePattern::noun_verb(f.a, f.sum)],
        ));
        sas.set_filter_uninteresting(true);
        let sum_b = f.ns.say(f.sum, [f.b]); // uninteresting: question is about A
        sas.activate(sum_b);
        assert!(!sas.is_active(sum_b));
        assert_eq!(sas.stats().filtered, 1);
        // Its deactivation is unbalanced and ignored.
        sas.deactivate(sum_b);
        assert_eq!(sas.stats().unbalanced_deactivations, 1);
        // Interesting sentences still pass.
        let sum_a = f.ns.say(f.sum, [f.a]);
        sas.activate(sum_a);
        assert!(sas.is_active(sum_a));
    }

    #[test]
    fn unbalanced_deactivation_is_ignored() {
        let f = fx();
        let mut sas = LocalSas::new(f.ns.clone());
        let s = f.ns.say(f.sum, [f.a]);
        sas.deactivate(s);
        assert_eq!(sas.stats().unbalanced_deactivations, 1);
        assert!(sas.is_empty());
    }

    #[test]
    fn active_matching_scans_patterns() {
        let f = fx();
        let mut sas = LocalSas::new(f.ns.clone());
        let sum_a = f.ns.say(f.sum, [f.a]);
        let sum_b = f.ns.say(f.sum, [f.b]);
        let send = f.ns.say(f.send, [f.p0]);
        for s in [sum_a, sum_b, send] {
            sas.activate(s);
        }
        let sums = sas.active_matching(&SentencePattern::any_noun(f.sum));
        assert_eq!(sums, vec![sum_a, sum_b]);
    }

    #[test]
    fn is_interesting_reflects_registered_questions() {
        let f = fx();
        let mut sas = LocalSas::new(f.ns.clone());
        let sum_a = f.ns.say(f.sum, [f.a]);
        let sum_b = f.ns.say(f.sum, [f.b]);
        assert!(!sas.is_interesting(sum_a));
        sas.register_question(&Question::new(
            "A sums",
            vec![SentencePattern::noun_verb(f.a, f.sum)],
        ));
        assert!(sas.is_interesting(sum_a));
        assert!(!sas.is_interesting(sum_b));
    }

    #[test]
    fn removed_question_never_satisfies() {
        let f = fx();
        let mut sas = LocalSas::new(f.ns.clone());
        let qid = sas.register_question(&Question::new(
            "A sums",
            vec![SentencePattern::noun_verb(f.a, f.sum)],
        ));
        let shared = sas.register_question(&Question::new(
            "A sums too",
            vec![SentencePattern::noun_verb(f.a, f.sum)],
        ));
        let s = f.ns.say(f.sum, [f.a]);
        sas.activate(s);
        assert!(sas.satisfied(qid));
        sas.remove_question(qid);
        assert!(!sas.satisfied(qid));
        assert!(sas.question_removed(qid));
        // Shared atoms keep serving the other question.
        assert!(sas.satisfied(shared));
        sas.remove_question(qid); // idempotent
    }

    #[test]
    fn stats_count_traffic() {
        let f = fx();
        let mut sas = LocalSas::new(f.ns.clone());
        let s = f.ns.say(f.sum, [f.a]);
        sas.activate(s);
        sas.activate(s);
        sas.deactivate(s);
        let st = sas.stats();
        assert_eq!(st.activations, 2);
        assert_eq!(st.deactivations, 1);
    }
}
