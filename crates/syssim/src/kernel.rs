//! The Figure 7 scenario: asynchronous sentence activations.
//!
//! "In a UNIX system we may want to measure kernel disk writes that occur
//! on behalf of a particular function in a user process. ... The actual
//! writes to disk do not occur until later. ... the SAS may not contain
//! both the function execution sentence and the kernel disk write sentence
//! at the same time, and therefore kernel disk writes on behalf of function
//! func() could not be measured with the help of the SAS alone."
//!
//! [`UnixSim`] models a user process making `write()` system calls into a
//! kernel buffer cache whose flush daemon performs the real disk writes
//! after a delay. With the plain SAS, attribution fails exactly as the
//! paper predicts. The **causal-token extension** (ours, clearly beyond the
//! paper) lets `write()` capture the currently-active user sentences and
//! re-activate them as shadow sentences around the deferred disk write,
//! repairing attribution; the simulator supports both modes so the failure
//! and the fix can be measured side by side.

use pdmap::model::{Namespace, SentenceId, VerbId};
use pdmap::sas::{LocalSas, Question, QuestionId, SentencePattern, Snapshot};
use std::collections::VecDeque;

/// Who acted at a timeline step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Actor {
    /// The user process.
    User,
    /// The kernel.
    Kernel,
}

/// One row of the Figure 7 time-line (time advances downward).
#[derive(Clone, Debug)]
pub struct TimelineEntry {
    /// Virtual tick.
    pub t: u64,
    /// Acting side.
    pub actor: Actor,
    /// What happened (`write() system call`, `kernel writes to disk`, ...).
    pub label: String,
    /// SAS contents right after the event (the figure's third column).
    pub sas: Snapshot,
}

/// Simulator configuration.
#[derive(Clone, Copy, Debug)]
pub struct UnixConfig {
    /// Ticks between buffering a write and the flush daemon issuing it.
    pub flush_delay: u64,
    /// Ticks a `write()` system call itself takes (buffer-cache copy).
    pub syscall_cost: u64,
    /// Ticks a physical disk write takes.
    pub disk_write_cost: u64,
    /// Enable the causal-token extension.
    pub causal_tokens: bool,
}

impl Default for UnixConfig {
    fn default() -> Self {
        Self {
            flush_delay: 10_000,
            syscall_cost: 50,
            disk_write_cost: 2_000,
            causal_tokens: false,
        }
    }
}

struct BufferedWrite {
    ready_at: u64,
    bytes: u64,
    /// User-level sentences active at `write()` time (causal tokens).
    tokens: Vec<SentenceId>,
}

/// Statistics on attribution success.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttributionStats {
    /// Disk writes physically performed.
    pub disk_writes: u64,
    /// Disk writes during which the watched question was satisfied (i.e.
    /// correctly attributed to the function).
    pub attributed: u64,
}

/// The simulated process + kernel.
pub struct UnixSim {
    ns: Namespace,
    config: UnixConfig,
    sas: LocalSas,
    clock: u64,
    executes: VerbId,
    disk_sentence: SentenceId,
    queue: VecDeque<BufferedWrite>,
    timeline: Vec<TimelineEntry>,
    active_stack: Vec<SentenceId>,
    watch: Option<QuestionId>,
    stats: AttributionStats,
}

impl UnixSim {
    /// Creates the simulator with its UNIX-level vocabulary.
    pub fn new(ns: Namespace, config: UnixConfig) -> Self {
        let unix = ns.level("UNIX");
        let executes = ns.verb(unix, "Executes", "user function is on the call stack");
        let writes_disk = ns.verb(unix, "WritesDisk", "kernel performs a physical disk write");
        let disk = ns.noun(unix, "disk0", "the system disk");
        let disk_sentence = ns.say(writes_disk, [disk]);
        Self {
            sas: LocalSas::new(ns.clone()),
            ns,
            config,
            clock: 0,
            executes,
            disk_sentence,
            queue: VecDeque::new(),
            timeline: Vec::new(),
            active_stack: Vec::new(),
            watch: None,
            stats: AttributionStats::default(),
        }
    }

    /// The namespace in use.
    pub fn namespace(&self) -> &Namespace {
        &self.ns
    }

    /// The kernel disk-write sentence.
    pub fn disk_sentence(&self) -> SentenceId {
        self.disk_sentence
    }

    /// Registers the question "disk writes on behalf of `func`":
    /// `{func Executes}, {disk0 WritesDisk}`. Returns its id; attribution
    /// statistics are kept for this question.
    pub fn watch_function(&mut self, func: &str) -> QuestionId {
        let unix = self.ns.level("UNIX");
        let f = self.ns.noun(unix, func, "user function");
        let q = Question::new(
            &format!("disk writes on behalf of {func}"),
            vec![
                SentencePattern::noun_verb(f, self.executes),
                SentencePattern::exact(&self.ns.sentence_def(self.disk_sentence)),
            ],
        );
        let qid = self.sas.register_question(&q);
        self.watch = Some(qid);
        qid
    }

    fn record(&mut self, actor: Actor, label: impl Into<String>) {
        self.timeline.push(TimelineEntry {
            t: self.clock,
            actor,
            label: label.into(),
            sas: self.sas.snapshot(),
        });
    }

    /// User process enters `func` (pushes its sentence on the SAS).
    pub fn enter_function(&mut self, func: &str) {
        let unix = self.ns.level("UNIX");
        let f = self.ns.noun(unix, func, "user function");
        let s = self.ns.say(self.executes, [f]);
        self.sas.activate(s);
        self.active_stack.push(s);
        self.clock += 10;
        self.record(Actor::User, format!("{func}() begins"));
    }

    /// User process leaves the innermost function.
    pub fn exit_function(&mut self) {
        if let Some(s) = self.active_stack.pop() {
            self.clock += 10;
            self.sas.deactivate(s);
            self.record(Actor::User, "function returns");
        }
    }

    /// The innermost function issues a `write()` system call. The kernel
    /// buffers the data and schedules the physical write.
    pub fn write(&mut self, bytes: u64) {
        self.clock += self.config.syscall_cost;
        let tokens = if self.config.causal_tokens {
            self.active_stack.clone()
        } else {
            Vec::new()
        };
        self.queue.push_back(BufferedWrite {
            ready_at: self.clock + self.config.flush_delay,
            bytes,
            tokens,
        });
        self.record(Actor::User, format!("write() system call ({bytes} bytes)"));
    }

    /// Advances time, letting the flush daemon perform any due disk writes.
    pub fn advance(&mut self, ticks: u64) {
        let target = self.clock + ticks;
        while let Some(front) = self.queue.front() {
            if front.ready_at > target {
                break;
            }
            let w = self.queue.pop_front().expect("non-empty");
            self.clock = self.clock.max(w.ready_at);
            self.perform_disk_write(w);
        }
        self.clock = target.max(self.clock);
    }

    /// Forces all buffered writes out (e.g. at shutdown).
    pub fn sync(&mut self) {
        while let Some(w) = self.queue.pop_front() {
            self.clock = self.clock.max(w.ready_at);
            self.perform_disk_write(w);
        }
    }

    fn perform_disk_write(&mut self, w: BufferedWrite) {
        // Causal tokens: replay the captured user sentences as shadows.
        for &t in &w.tokens {
            self.sas.activate(t);
        }
        self.sas.activate(self.disk_sentence);
        self.stats.disk_writes += 1;
        if let Some(qid) = self.watch {
            if self.sas.satisfied(qid) {
                self.stats.attributed += 1;
            }
        }
        self.record(
            Actor::Kernel,
            format!("kernel writes {} bytes to disk", w.bytes),
        );
        self.clock += self.config.disk_write_cost;
        self.sas.deactivate(self.disk_sentence);
        for &t in w.tokens.iter().rev() {
            self.sas.deactivate(t);
        }
    }

    /// The recorded time-line.
    pub fn timeline(&self) -> &[TimelineEntry] {
        &self.timeline
    }

    /// Attribution statistics for the watched question.
    pub fn stats(&self) -> AttributionStats {
        self.stats
    }

    /// Renders the three-column Figure 7 display: user activity, kernel
    /// activity, and SAS contents, with time advancing downward.
    pub fn render_timeline(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>10}  {:<38} {:<38} {}\n",
            "time", "User Process", "Kernel", "SAS contents"
        ));
        for e in &self.timeline {
            let (user, kernel) = match e.actor {
                Actor::User => (e.label.as_str(), ""),
                Actor::Kernel => ("", e.label.as_str()),
            };
            let sas: Vec<String> = e
                .sas
                .sentences()
                .map(|s| self.ns.render_sentence(s))
                .collect();
            let sas = if sas.is_empty() {
                "(empty)".to_string()
            } else {
                sas.join(" | ")
            };
            out.push_str(&format!(
                "{:>10}  {:<38} {:<38} {}\n",
                e.t, user, kernel, sas
            ));
        }
        out
    }

    /// Runs the canonical Figure 7 scenario: `func()` performs `writes`
    /// buffered writes and returns; the flush daemon writes to disk later.
    pub fn run_figure7(&mut self, writes: usize) {
        self.enter_function("func");
        for _ in 0..writes {
            self.write(4096);
        }
        self.exit_function();
        self.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(causal: bool) -> UnixSim {
        UnixSim::new(
            Namespace::new(),
            UnixConfig {
                causal_tokens: causal,
                ..UnixConfig::default()
            },
        )
    }

    #[test]
    fn plain_sas_fails_to_attribute_deferred_writes() {
        let mut s = sim(false);
        s.watch_function("func");
        s.run_figure7(3);
        let st = s.stats();
        assert_eq!(st.disk_writes, 3);
        assert_eq!(st.attributed, 0, "the paper's limitation 1, reproduced");
    }

    #[test]
    fn causal_tokens_repair_attribution() {
        let mut s = sim(true);
        s.watch_function("func");
        s.run_figure7(3);
        let st = s.stats();
        assert_eq!(st.disk_writes, 3);
        assert_eq!(st.attributed, 3, "the extension fixes limitation 1");
    }

    #[test]
    fn synchronous_write_would_attribute() {
        // If the disk write happens while func() is still active (no
        // delay), even the plain SAS attributes it — the problem is
        // specifically asynchrony.
        let mut s = UnixSim::new(
            Namespace::new(),
            UnixConfig {
                flush_delay: 0,
                causal_tokens: false,
                ..UnixConfig::default()
            },
        );
        s.watch_function("func");
        s.enter_function("func");
        s.write(512);
        s.advance(1); // flush while still inside func()
        s.exit_function();
        s.sync();
        assert_eq!(s.stats().attributed, 1);
    }

    #[test]
    fn timeline_matches_figure7_shape() {
        let mut s = sim(false);
        s.watch_function("func");
        s.run_figure7(1);
        let tl = s.timeline();
        // begin, write, return, disk write.
        assert_eq!(tl.len(), 4);
        assert_eq!(tl[0].actor, Actor::User);
        assert!(tl[1].label.contains("write() system call"));
        assert_eq!(tl[3].actor, Actor::Kernel);
        assert!(tl[3].label.contains("disk"));
        // While func() runs the SAS holds its sentence; at the disk write
        // it holds only the disk sentence.
        assert_eq!(tl[1].sas.len(), 1);
        assert_eq!(tl[3].sas.len(), 1);
        assert_ne!(
            tl[1].sas.entries[0].0, tl[3].sas.entries[0].0,
            "different sentences — never both at once"
        );
        let shown = s.render_timeline();
        assert!(shown.contains("User Process"));
        assert!(shown.contains("kernel writes 4096 bytes to disk"));
    }

    #[test]
    fn advance_only_flushes_due_writes() {
        let mut s = sim(false);
        s.enter_function("F");
        s.write(100);
        s.exit_function();
        s.advance(10); // well before flush_delay
        assert_eq!(s.stats().disk_writes, 0);
        s.advance(20_000);
        assert_eq!(s.stats().disk_writes, 1);
    }

    #[test]
    fn nested_functions_capture_all_tokens() {
        let mut s = sim(true);
        s.watch_function("INNER");
        s.enter_function("OUTER");
        s.enter_function("INNER");
        s.write(64);
        s.exit_function();
        s.exit_function();
        s.sync();
        assert_eq!(s.stats().attributed, 1);
    }

    #[test]
    fn clock_is_monotone() {
        let mut s = sim(false);
        s.run_figure7(2);
        let times: Vec<u64> = s.timeline().iter().map(|e| e.t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }
}
