//! Golden tests on the deterministic tool-chain artifacts: the compiler
//! listing, the scanned PIF, and the daemon wire format. These formats are
//! interfaces between components (and, in the paper's world, between
//! separate tools), so silent drift is a compatibility break.

use pdmap::model::Namespace;

#[test]
fn figure4_listing_golden() {
    let ns = Namespace::new();
    let c = cmf_lang::compile(
        cmf_lang::samples::FIGURE4,
        &ns,
        &cmf_lang::CompileOptions::default(),
    )
    .unwrap();
    let expected = "\
CMF LISTING v1
file = hpfex.fcm
statement line=3 fn=HPFEX text=A = 1.0
statement line=4 fn=HPFEX text=B = 2.0
statement line=5 fn=HPFEX text=ASUM = SUM(A)
statement line=6 fn=HPFEX text=BMAX = MAXVAL(B)
array name=A fn=HPFEX rank=1 extents=1024 dist=block
array name=B fn=HPFEX rank=1 extents=1024 dist=block
block name=cmpe_hpfex_1_ lines=3,4 arrays=A,B
block name=cmpe_hpfex_2_ lines=5 arrays=A
block name=cmpe_hpfex_3_ lines=6 arrays=B
";
    assert_eq!(c.listing, expected);
}

#[test]
fn figure4_pif_mappings_golden() {
    let ns = Namespace::new();
    let c = cmf_lang::compile(
        cmf_lang::samples::FIGURE4,
        &ns,
        &cmf_lang::CompileOptions::default(),
    )
    .unwrap();
    // Every mapping record the scanner should produce, in order.
    let mappings: Vec<String> = c
        .pif
        .mappings()
        .map(|m| format!("{} -> {}", m.source, m.destination))
        .collect();
    assert_eq!(
        mappings,
        vec![
            "{cmpe_hpfex_1_(), CPU Utilization} -> {line3, Executes}",
            "{cmpe_hpfex_1_(), CPU Utilization} -> {line4, Executes}",
            "{cmpe_hpfex_1_(), CPU Utilization} -> {A, Touches}",
            "{cmpe_hpfex_1_(), CPU Utilization} -> {B, Touches}",
            "{cmpe_hpfex_2_(), CPU Utilization} -> {line5, Executes}",
            "{cmpe_hpfex_2_(), CPU Utilization} -> {A, Touches}",
            "{cmpe_hpfex_3_(), CPU Utilization} -> {line6, Executes}",
            "{cmpe_hpfex_3_(), CPU Utilization} -> {B, Touches}",
        ]
    );
}

#[test]
fn paper_figure2_pif_text_golden() {
    let text = pdmap_pif::write(&pdmap_pif::samples::figure2());
    let expected = "\
NOUN
name = line1160
abstraction = CM Fortran
description = line #1160 in source file /usr/src/prog/main.fcm

NOUN
name = line1161
abstraction = CM Fortran
description = line #1161 in source file /usr/src/prog/main.fcm

VERB
name = Executes
abstraction = CM Fortran
description = units are \"% CPU\"

NOUN
name = cmpe_corr_6_()
abstraction = Base
description = compiler generated function, source code not available

VERB
name = CPU Utilization
abstraction = Base
description = units are \"% CPU\"

MAPPING
source = {cmpe_corr_6_(), CPU Utilization}
destination = {line1160, Executes}

MAPPING
source = {cmpe_corr_6_(), CPU Utilization}
destination = {line1161, Executes}
";
    assert_eq!(text, expected);
}

#[test]
fn daemon_wire_format_golden() {
    use paradyn_tool::DaemonMsg;
    use pdmap_transport::{FrameKind, WirePayload};
    // The binary `FrameKind::Daemon` payloads, little-endian, one field
    // per string below.
    let payload = |msg: &DaemonMsg| {
        let frame = msg.to_frame();
        assert_eq!(frame.kind, FrameKind::Daemon);
        frame
            .payload
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect::<String>()
    };
    let msg = DaemonMsg::ArrayAllocated {
        id: 7,
        name: "TOT".into(),
        extents: vec![64, 64],
        dist: cmrts_sim::Distribution::Block,
        subgrids: vec![(0, 32, 2048), (1, 32, 2048)],
    };
    assert_eq!(
        payload(&msg),
        concat!(
            "00",             // tag: ArrayAllocated
            "07000000",       // id
            "03000000544f54", // name "TOT"
            "02000000",       // extents
            "4000000000000000",
            "4000000000000000",
            "05000000626c6f636b", // dist "block"
            "02000000",           // subgrids
            "0000000000000000",   // (0,
            "2000000000000000",   //  32,
            "0008000000000000",   //  2048)
            "0100000000000000",   // (1,
            "2000000000000000",   //  32,
            "0008000000000000",   //  2048)
        )
    );
    let free = DaemonMsg::ArrayFreed { id: 7 };
    assert_eq!(payload(&free), "0107000000");
    let sample = DaemonMsg::Sample {
        metric: "Idle Time".into(),
        focus: "<whole program>".into(),
        wall: 42,
        value: 0.5,
    };
    assert_eq!(
        payload(&sample),
        concat!(
            "02",                                     // tag: Sample
            "0900000049646c652054696d65",             // metric "Idle Time"
            "0f0000003c77686f6c652070726f6772616d3e", // focus "<whole program>"
            "2a00000000000000",                       // wall 42
            "000000000000e03f",                       // value 0.5
        )
    );
}

#[test]
fn mdl_catalogue_emits_stably() {
    // emit(parse(x)) is a fixed point: emitting twice gives identical text.
    let f1 = paradyn_tool::figure9_catalogue();
    let text1 = f1.emit();
    let f2 = dyninst_sim::parse_mdl(&text1).unwrap();
    let text2 = f2.emit();
    assert_eq!(text1, text2);
}

#[test]
fn consultant_render_goldens() {
    // The consultant's rendered answer is an interface too: the report
    // quotes it verbatim and CI greps it. Two frames of the same search —
    // complete coverage must render exactly as the classic boolean
    // consultant always has, and a degraded session must annotate every
    // line with its interval and coverage. The degraded frame also pins
    // the tri-state semantics: clear True stays True, the borderline 8.5%
    // False straddles the 10% threshold and weakens to Unknown, and
    // zero-ratio hypotheses stay decidedly False.
    use paradyn_tool::consultant::{render, search, ConsultantConfig};
    use paradyn_tool::{Coverage, SessionCoverage};
    let mut tool = paradyn_tool::Paradyn::new(cmrts_sim::MachineConfig {
        nodes: 4,
        ..cmrts_sim::MachineConfig::default()
    });
    tool.load_source(cmf_lang::samples::FIGURE4).unwrap();
    let cfg = ConsultantConfig {
        threshold: 0.10,
        max_depth: 0,
    };
    let full = "\
[TRUE ] ExcessiveCommunication @ <whole program> — 55.4% of wall time
[TRUE ] ExcessiveBroadcast @ <whole program> — 38.4% of wall time
[TRUE ] ExcessiveIdleTime @ <whole program> — 210.9% of wall time
[false] ExcessiveReductionTime @ <whole program> — 8.5% of wall time
[false] ExcessiveSortTime @ <whole program> — 0.0% of wall time
[false] ExcessiveIOTime @ <whole program> — 0.0% of wall time
";
    assert_eq!(render(&search(&tool, &cfg)), full);

    tool.set_session_coverage(Some(SessionCoverage {
        coverage: Coverage {
            nodes_reporting: 3,
            nodes_total: 4,
            samples_lost: 2,
        },
        max_sample_cost: 1e-6,
    }));
    let degraded = "\
[TRUE ] ExcessiveCommunication @ <whole program> — 55.4% of wall time in [55.4%, 76.0%] (3/4 nodes, >=2 samples lost)
[TRUE ] ExcessiveBroadcast @ <whole program> — 38.4% of wall time in [38.4%, 53.4%] (3/4 nodes, >=2 samples lost)
[TRUE ] ExcessiveIdleTime @ <whole program> — 210.9% of wall time in [210.9%, 283.4%] (3/4 nodes, >=2 samples lost)
[?????] ExcessiveReductionTime @ <whole program> — 8.5% of wall time in [8.5%, 13.5%] (3/4 nodes, >=2 samples lost)
[false] ExcessiveSortTime @ <whole program> — 0.0% of wall time in [0.0%, 2.2%] (3/4 nodes, >=2 samples lost)
[false] ExcessiveIOTime @ <whole program> — 0.0% of wall time in [0.0%, 2.2%] (3/4 nodes, >=2 samples lost)
";
    assert_eq!(render(&search(&tool, &cfg)), degraded);
}

#[test]
fn parallel_search_matches_the_render_goldens() {
    // The work-stealing frontier is an implementation detail: against the
    // same tool it must reproduce the pinned sequential goldens byte for
    // byte, in both the complete-coverage and degraded frames, even
    // though its experiments complete in nondeterministic order.
    use paradyn_tool::consultant::{render, search, search_parallel, ConsultantConfig};
    use paradyn_tool::{Coverage, SessionCoverage};
    let mut tool = paradyn_tool::Paradyn::new(cmrts_sim::MachineConfig {
        nodes: 4,
        ..cmrts_sim::MachineConfig::default()
    });
    tool.load_source(cmf_lang::samples::FIGURE4).unwrap();
    let cfg = ConsultantConfig {
        threshold: 0.10,
        max_depth: 0,
    };
    assert_eq!(
        render(&search_parallel(&tool, &cfg)),
        render(&search(&tool, &cfg))
    );
    assert!(render(&search_parallel(&tool, &cfg))
        .starts_with("[TRUE ] ExcessiveCommunication @ <whole program> — 55.4% of wall time\n"));

    tool.set_session_coverage(Some(SessionCoverage {
        coverage: Coverage {
            nodes_reporting: 3,
            nodes_total: 4,
            samples_lost: 2,
        },
        max_sample_cost: 1e-6,
    }));
    let degraded = render(&search_parallel(&tool, &cfg));
    assert_eq!(degraded, render(&search(&tool, &cfg)));
    assert!(degraded.contains("(3/4 nodes, >=2 samples lost)"));
}

#[test]
fn unmeasured_unknown_renders_without_a_fabricated_percentage() {
    // An experiment that never ran has no value: its rendered line must
    // carry the note alone, never a fabricated "0.0% of wall time".
    use paradyn_tool::consultant::{render, search_parallel, ConsultantConfig};
    let tool = paradyn_tool::Paradyn::new(cmrts_sim::MachineConfig::default());
    let shown = render(&search_parallel(&tool, &ConsultantConfig::default()));
    let golden = "\
[?????] ExcessiveCommunication @ <whole program> (measurement failed: no program loaded)
[?????] ExcessiveBroadcast @ <whole program> (measurement failed: no program loaded)
[?????] ExcessiveIdleTime @ <whole program> (measurement failed: no program loaded)
[?????] ExcessiveReductionTime @ <whole program> (measurement failed: no program loaded)
[?????] ExcessiveSortTime @ <whole program> (measurement failed: no program loaded)
[?????] ExcessiveIOTime @ <whole program> (measurement failed: no program loaded)
";
    assert_eq!(shown, golden);
    assert!(!shown.contains("% of wall time"));
}

#[test]
fn deterministic_run_summary_golden() {
    // The Figure 4 program on 4 nodes with the default cost model: the
    // exact event counts the rest of the documentation quotes.
    let ns = Namespace::new();
    let c = cmf_lang::compile(
        cmf_lang::samples::FIGURE4,
        &ns,
        &cmf_lang::CompileOptions::default(),
    )
    .unwrap();
    let mgr = std::sync::Arc::new(dyninst_sim::InstrumentationManager::new());
    let mut m = cmrts_sim::Machine::new(
        cmrts_sim::MachineConfig {
            nodes: 4,
            ..cmrts_sim::MachineConfig::default()
        },
        ns,
        mgr,
        c.program().clone(),
    )
    .unwrap();
    let s = m.run();
    assert_eq!(s.blocks_dispatched, 3);
    assert_eq!(s.broadcasts, 3);
    assert_eq!(s.messages, 8, "two 4-node reduction trees incl. CP returns");
    assert_eq!(m.scalar("ASUM"), Some(1024.0));
    assert_eq!(m.scalar("BMAX"), Some(2.0));
}
