//! The paper's running example (Figures 4-6): relate low-level messages to
//! high-level array reductions with the Set of Active Sentences.
//!
//! ```sh
//! cargo run --example hpf_reductions
//! ```

use cmrts_sim::SnapshotTrigger;
use dyninst_sim::{instantiate, Pred};
use paradyn_tool::tool::Paradyn;
use pdmap::sas::{Question, SentencePattern};

fn main() {
    // The Figure 4 fragment: ASUM = SUM(A); BMAX = MAXVAL(B).
    let mut tool = Paradyn::new(cmrts_sim::MachineConfig {
        nodes: 4,
        ..cmrts_sim::MachineConfig::default()
    });
    tool.load_source(cmf_lang::samples::FIGURE4).unwrap();
    let ns = tool.namespace().clone();
    // Building the machine interns the run-time system's vocabulary (the
    // CMRTS level and its SendsMessage verb), so build it before the
    // lookups.
    let mut machine = tool.new_machine().unwrap();

    // Vocabulary the compiler and the run-time system interned.
    let cmf = ns.find_level("CM Fortran").unwrap();
    let cmrts = ns.find_level("CMRTS").unwrap();
    let sums = ns.find_verb(cmf, "Sums").unwrap();
    let maxvals = ns.find_verb(cmf, "MaxVals").unwrap();
    let sends = ns.find_verb(cmrts, "SendsMessage").unwrap();
    let a = ns.find_noun(cmf, "A").unwrap();
    let b = ns.find_noun(cmf, "B").unwrap();

    // Performance questions, asked at run time (§4.2.2):
    //   How many messages are sent for summations of A? For MAXVAL of B?
    let q_sum_a = Question::new(
        "sends while A sums",
        vec![
            SentencePattern::noun_verb(a, sums),
            SentencePattern::any_noun(sends),
        ],
    );
    let q_max_b = Question::new(
        "sends while B maxvals",
        vec![
            SentencePattern::noun_verb(b, maxvals),
            SentencePattern::any_noun(sends),
        ],
    );
    let qid_a = machine.register_question_all(&q_sum_a);
    let qid_b = machine.register_question_all(&q_max_b);

    // Counters + timers gated on the questions.
    let mgr = tool.manager();
    let msgs_for_a = instantiate(
        mgr,
        tool.metrics().decl("Point-to-Point Operations").unwrap(),
        vec![Pred::QuestionSatisfied(qid_a)],
    );
    let msgs_for_b = instantiate(
        mgr,
        tool.metrics().decl("Point-to-Point Operations").unwrap(),
        vec![Pred::QuestionSatisfied(qid_b)],
    );
    let time_for_a = instantiate(
        mgr,
        tool.metrics().decl("Point-to-Point Time").unwrap(),
        vec![Pred::QuestionSatisfied(qid_a)],
    );

    // Photograph the SAS at the first message sent while A is summed
    // (Figure 5).
    machine.set_snapshot_trigger(SnapshotTrigger {
        point: machine.points().msg_send,
        question: Some(qid_a),
        once: true,
    });

    machine.run();

    println!("program:\n{}", cmf_lang::samples::FIGURE4);
    let snap = &machine.snapshots()[0];
    println!(
        "SAS on node#{} when a message was sent during SUM(A):\n{}",
        snap.node,
        snap.snapshot.render(&ns)
    );

    let prims = mgr.primitives();
    let now = machine.wall_clock();
    println!(
        "messages sent for summations of A: {}",
        msgs_for_a.read_raw(prims, now)
    );
    println!(
        "messages sent for MAXVAL of B:     {}",
        msgs_for_b.read_raw(prims, now)
    );
    println!(
        "time sending messages for SUM(A):  {:.6} s",
        time_for_a.value(prims, now, machine.cost_model().ticks_per_second)
    );
}
