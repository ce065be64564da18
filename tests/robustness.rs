//! Failure injection and edge cases across the stack: the system should
//! degrade loudly-but-gracefully, never silently corrupt a measurement.

use cmrts_sim::{Distribution, MachineConfig, NodeOp, Operand, ProgramBuilder};
use paradyn_tool::tool::{Experiment, Paradyn};
use pdmap::hierarchy::Focus;
use pdmap::model::Namespace;
use pdmap::sas::{LocalSas, Question, SentencePattern};
use std::sync::Arc;

fn tool_for(src: &str, nodes: usize) -> Paradyn {
    let mut tool = Paradyn::new(MachineConfig {
        nodes,
        ..MachineConfig::default()
    });
    tool.load_source(src).unwrap();
    tool
}

#[test]
fn empty_program_runs_and_measures_zero() {
    let tool = tool_for("PROGRAM NOTHING\nEND\n", 4);
    let req = tool
        .request("Point-to-Point Operations", &Focus::whole_program())
        .unwrap();
    let mut m = tool.new_machine().unwrap();
    let s = m.run();
    assert_eq!(s.blocks_dispatched, 0);
    assert_eq!(req.value(&m), 0.0);
    assert_eq!(m.wall_clock(), 0);
}

#[test]
fn single_element_arrays() {
    let tool = tool_for(
        "PROGRAM TINY\nREAL A(1), B(1)\nA = 7.0\nS = SUM(A)\nB = SORT(A)\nEND\n",
        8, // more nodes than elements
    );
    let mut m = tool.new_machine().unwrap();
    m.run();
    assert_eq!(m.scalar("S"), Some(7.0));
}

#[test]
fn more_nodes_than_rows_still_balances() {
    let tool = tool_for(
        "PROGRAM WIDE\nREAL A(3)\nFORALL (I = 1:3) A(I) = I\nS = SUM(A)\nEND\n",
        8,
    );
    let mut m = tool.new_machine().unwrap();
    m.run();
    assert_eq!(m.scalar("S"), Some(6.0));
}

#[test]
fn unbalanced_sas_traffic_is_counted_not_fatal() {
    let ns = Namespace::new();
    let l = ns.level("L");
    let v = ns.verb(l, "v", "");
    let s = ns.say(v, [ns.noun(l, "x", "")]);
    let mut sas = LocalSas::new(ns);
    // Deactivations without activations: dropped, counted.
    for _ in 0..10 {
        sas.deactivate(s);
    }
    assert_eq!(sas.stats().unbalanced_deactivations, 10);
    assert!(sas.is_empty());
    // Interleaved with legitimate traffic the counts stay exact.
    sas.activate(s);
    sas.deactivate(s);
    sas.deactivate(s);
    assert_eq!(sas.stats().unbalanced_deactivations, 11);
}

#[test]
fn question_registered_after_filtering_misses_history() {
    // The paper's caveat made concrete: filtering trades completeness.
    let ns = Namespace::new();
    let l = ns.level("L");
    let v = ns.verb(l, "v", "");
    let noun_a = ns.noun(l, "a", "");
    let noun_b = ns.noun(l, "b", "");
    let sid_b = ns.say(v, [noun_b]);
    let mut sas = LocalSas::new(ns);
    sas.register_question(&Question::new(
        "about a",
        vec![SentencePattern::noun_verb(noun_a, v)],
    ));
    sas.set_filter_uninteresting(true);
    sas.activate(sid_b); // filtered away
    let q_b = sas.register_question(&Question::new(
        "about b",
        vec![SentencePattern::noun_verb(noun_b, v)],
    ));
    // b *is* conceptually active, but the filter already dropped it.
    assert!(!sas.satisfied(q_b));
    assert_eq!(sas.stats().filtered, 1);
}

#[test]
fn daemon_tolerates_garbage_on_the_wire() {
    use paradyn_tool::{DaemonSet, InstrLibEndpoint};
    use pdmap_transport::{Backend, FaultPlan, Frame, FrameError, FrameKind, TransportConfig};
    let ns = Namespace::new();
    let dm = Arc::new(paradyn_tool::DataManager::new(ns, "CM Fortran"));
    let link = Backend::InProc.link(&TransportConfig::default());
    let endpoint = InstrLibEndpoint::over_transport(link.client.clone());
    let mut set = DaemonSet::over_transports(vec![("inproc".into(), link.server.clone())], dm);
    endpoint.send_sample("ok", "f", 1, 2.0);
    set.pump_parallel();
    assert_eq!(set.samples().len(), 1);

    // Byte-level garbage: run the seeded mangler over many frames and
    // check every mode lands in the decode-error class it aims at —
    // truncation mid-frame, a length prefix claiming gigabytes, and a
    // flipped magic byte. Same seed, same mangle sequence.
    let plan = FaultPlan {
        seed: 0xBAD5EED,
        ..FaultPlan::none()
    };
    let mut modes_seen = std::collections::BTreeSet::new();
    for index in 0..64u64 {
        let frame = Frame::data(FrameKind::Daemon, b"SAMPLE|cpu|/Machine|7|1.5".to_vec());
        let mut bytes = frame.encode();
        let mode = plan.mangle_encoded(index, &mut bytes);
        modes_seen.insert(mode);
        let err = Frame::decode(&bytes).expect_err("mangled frame must not decode");
        match mode {
            "truncate" => assert_eq!(err, FrameError::Truncated, "index {index}"),
            "length-prefix" => {
                assert!(
                    matches!(err, FrameError::TooLarge(_)),
                    "index {index}: {err:?}"
                )
            }
            "magic" => assert!(
                matches!(err, FrameError::BadMagic(_)),
                "index {index}: {err:?}"
            ),
            other => panic!("unknown mangle mode {other}"),
        }
        // The mangler is deterministic: a replay mangles identically.
        let mut replay = frame.encode();
        assert_eq!(plan.mangle_encoded(index, &mut replay), mode);
        assert_eq!(replay, bytes, "index {index}: mangle must be reproducible");
    }
    assert_eq!(
        modes_seen.into_iter().collect::<Vec<_>>(),
        ["length-prefix", "magic", "truncate"],
        "64 frames must exercise all three mangle modes"
    );

    // And garbage never wedges the session: valid traffic still flows
    // after the codec has rejected a pile of mangled bytes.
    endpoint.send_sample("ok", "f", 2, 3.0);
    set.pump_parallel();
    assert_eq!(set.samples().len(), 2);
}

#[test]
fn unknown_focus_never_installs_instrumentation() {
    let tool = tool_for(cmf_lang::samples::FIGURE4, 2);
    let before = {
        let p = tool.manager().point("cmrts::reduce:sum:entry");
        tool.manager().snippet_count(p)
    };
    let bad = Focus::whole_program().select("CMFarrays", "/no/such/array");
    assert!(tool.request("Summations", &bad).is_err());
    let after = {
        let p = tool.manager().point("cmrts::reduce:sum:entry");
        tool.manager().snippet_count(p)
    };
    assert_eq!(before, after, "failed requests leave no residue");
}

#[test]
fn snapshot_trigger_without_question_fires_every_time() {
    let tool = tool_for(cmf_lang::samples::FIGURE4, 2);
    let mut m = tool.new_machine().unwrap();
    let point = m.points().msg_send;
    m.set_snapshot_trigger(cmrts_sim::SnapshotTrigger {
        point,
        question: None,
        once: false,
    });
    let s = m.run();
    assert_eq!(m.snapshots().len() as u64, s.messages);
}

#[test]
fn division_by_zero_propagates_as_float_semantics() {
    // The machine computes IEEE floats; no panic, the inf/NaN shows up in
    // the data like it would on real hardware.
    let mut b = ProgramBuilder::new("div");
    let a = b.alloc("A", &[4], Distribution::Block);
    b.simple_ncb(
        "f",
        &[a],
        NodeOp::Fill {
            dst: a,
            value: Operand::Const(1.0),
        },
    );
    b.simple_ncb(
        "d",
        &[a],
        NodeOp::BinOp {
            dst: a,
            a: Operand::Array(a),
            b: Operand::Const(0.0),
            op: cmrts_sim::BinOpKind::Div,
        },
    );
    let ns = Namespace::new();
    let mgr = Arc::new(dyninst_sim::InstrumentationManager::new());
    let mut m =
        cmrts_sim::Machine::new(MachineConfig::default(), ns, mgr, b.build().unwrap()).unwrap();
    m.run();
    assert!(m.gather(a).iter().all(|v| v.is_infinite()));
}

#[test]
fn consultant_on_quiet_program_confirms_nothing_interesting() {
    // A compute-dominated program on one node: no communication, sort,
    // or IO hypothesis should survive a high threshold (tiny programs are
    // legitimately dispatch-dominated, so give it real work).
    let tool = tool_for(
        "PROGRAM CALM\nREAL A(65536)\nA = 1.0\nA = A * 2.0\nA = A + 1.0\nEND\n",
        1,
    );
    let results = paradyn_tool::consultant::search(
        &tool,
        &paradyn_tool::consultant::ConsultantConfig {
            threshold: 0.5,
            max_depth: 1,
        },
    );
    for r in &results {
        assert!(
            !r.verdict.is_true(),
            "hypothesis {} unexpectedly true at {:.2}",
            r.hypothesis,
            r.ratio
        );
    }
}

#[test]
fn metric_requests_survive_multiple_runs() {
    // Requests accumulate across machines sharing the manager — by
    // design (Paradyn measures long-running apps); verify it is exact.
    let tool = tool_for(cmf_lang::samples::FIGURE4, 2);
    let req = tool.request("Summations", &Focus::whole_program()).unwrap();
    let mut m1 = tool.new_machine().unwrap();
    m1.run();
    let after_one = req.value(&m1);
    let mut m2 = tool.new_machine().unwrap();
    m2.run();
    assert_eq!(req.value(&m2), after_one * 2.0);
}

#[test]
fn repeated_experiments_leave_the_mapping_store_unchanged() {
    // Every experiment run announces the program's arrays to the session's
    // data manager again; a long session must not grow with its runs.
    let tool = tool_for(cmf_lang::samples::FIGURE4, 8);
    let exp = Experiment {
        metric: "Summations".into(),
        focus: Focus::whole_program(),
    };
    tool.run_experiment(&exp).unwrap();
    let imports = tool.data().shard_stats(0).imports;
    let axis = tool.render_where_axis();
    assert!(imports > 0 && axis.contains("sub#7"), "{imports}\n{axis}");
    for _ in 0..200 {
        tool.run_experiment(&exp).unwrap();
    }
    assert_eq!(tool.data().shard_stats(0).imports, imports);
    assert_eq!(tool.render_where_axis(), axis);
}

#[test]
fn trace_disabled_changes_no_results() {
    let run = |trace: bool| {
        let mut tool = Paradyn::new(MachineConfig {
            nodes: 4,
            trace,
            ..MachineConfig::default()
        });
        tool.load_source(cmf_lang::samples::ALL_VERBS).unwrap();
        let mut m = tool.new_machine().unwrap();
        let s = m.run();
        (s, m.scalar("S"), m.scalar("MX"))
    };
    let with = run(true);
    let without = run(false);
    assert_eq!(with.0, without.0);
    assert_eq!(with.1, without.1);
    assert_eq!(with.2, without.2);
}
