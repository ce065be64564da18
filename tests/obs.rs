//! Integration tests for the self-mapped observability layer: the tool
//! measuring itself with the paper's own Noun-Verb machinery, the
//! perturbation self-report, the transport conservation law with span
//! recording enabled, and a catalogue row for every counter and site.
//!
//! All tests in this binary share the global `pdmap-obs` registry, so
//! assertions are lower bounds (`>=`), never exact counts.

use paradyn_tool::consultant::{search_parallel, ConsultantConfig};
use paradyn_tool::selfmap::{ask_obs, export_obs, obs_sentences, SHARD_OBS_FIELDS, TOOL_COUNTERS};
use paradyn_tool::{DaemonSet, DataManager, InstrLibEndpoint, Paradyn};
use pdmap::model::Namespace;
use pdmap_obs::report::{CALIBRATION_COMPONENT, CALIBRATION_VERB};
use pdmap_transport::{
    drain_frames, send_wire, Backend, Backpressure, FrameKind, PifBlob, TransportConfig,
};
use std::sync::Arc;
use std::time::Duration;
use sys_sim::db::DbSystem;

/// Runs the §4.2.3 database scenario over TCP plus a daemon sample burst,
/// so the transport/tcp, sas, and daemon span sites all fire.
fn run_observed_workload() {
    let ns = Namespace::new();
    let mut db = DbSystem::over(ns, true, Backend::Tcp);
    db.watch_query(1);
    db.run_query(1, 8);
    db.background_read();

    let link = Backend::Tcp.link(&TransportConfig::default());
    let endpoint = InstrLibEndpoint::over_transport(link.client.clone());
    let dm = Arc::new(DataManager::new(Namespace::new(), "CM Fortran"));
    let mut set = DaemonSet::over_transports(vec![("tcp".into(), link.server.clone())], dm);
    for i in 0..16 {
        endpoint.send_sample("Computation Time", "/", i, i as f64);
    }
    set.pump_until_samples(16, Duration::from_secs(5));
}

#[test]
fn performance_question_about_the_tool_returns_nonzero_costs() {
    run_observed_workload();
    let snap = pdmap_obs::snapshot();
    let ns = Namespace::new();

    // A question through the paradyn_tool machinery about the generated
    // "Tool" level returns nonzero costs for at least the transport and
    // SAS components.
    let tcp_send = ask_obs(&ns, &snap, "transport/tcp", "send")
        .expect("transport/tcp send must be active after a TCP workload");
    assert!(tcp_send > 0);
    let sas_push = ask_obs(&ns, &snap, "sas", "push")
        .expect("sas push must be active after activating sentences");
    assert!(sas_push > 0);

    // The MDL exporter pairs every known site; the ones we exercised
    // carry nonzero values.
    let samples = export_obs(&snap);
    let lookup = |name: &str| {
        samples
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|&(_, v)| v)
            .unwrap()
    };
    assert!(lookup("Obs transport/tcp send Time") > 0);
    assert!(lookup("Obs transport/tcp send Count") > 0);
    assert!(lookup("Obs sas push Time") > 0);
    assert!(lookup("Obs daemon send Count") > 0);

    // And the sentences themselves speak the Tool level's vocabulary.
    let sentences = obs_sentences(&ns, &snap);
    assert!(sentences.len() >= 3);
    let rendered: Vec<String> = sentences
        .iter()
        .map(|&(sid, _)| ns.render_sentence(sid))
        .collect();
    assert!(
        rendered.iter().any(|r| r.contains("transport/tcp")),
        "got {rendered:?}"
    );
}

#[test]
fn perturbation_overhead_is_below_ten_percent() {
    run_observed_workload();
    let report = pdmap_obs::perturbation_report();
    assert!(report.span_count > 0);
    assert!(report.overhead_ns > 0, "calibration must charge something");
    assert!(
        report.overhead_fraction() < 0.10,
        "span overhead must stay under 10% of reported cost: {}",
        report.summary_line()
    );
    assert!(report.corrected_total_ns <= report.total_reported_ns);
}

#[test]
fn conservation_holds_under_drop_oldest_with_spans_enabled() {
    assert!(pdmap_obs::enabled(), "spans are on by default");
    let cfg = TransportConfig::with_capacity(4).backpressure(Backpressure::DropOldest);
    let link = Backend::InProc.link(&cfg);
    let blob = PifBlob(vec![0x5A; 64]);
    for _ in 0..500 {
        send_wire(link.client.as_ref(), &blob).unwrap();
    }
    let mut delivered = 0u64;
    loop {
        let d = drain_frames(link.server.as_ref());
        if d.is_empty() {
            break;
        }
        delivered += d.len() as u64;
    }
    let sent_stats = link.client.stats();
    let recv_stats = link.server.stats();
    link.close();
    assert_eq!(sent_stats.frames_sent, 500);
    assert_eq!(delivered, recv_stats.frames_received);
    assert!(sent_stats.drops > 0, "a 4-slot DropOldest queue must drop");
    assert_eq!(
        sent_stats.frames_sent,
        recv_stats.frames_received + sent_stats.drops,
        "sent == delivered + drops must survive span instrumentation"
    );
}

#[test]
fn chrome_trace_export_is_wellformed_and_nonempty() {
    run_observed_workload();
    let snap = pdmap_obs::snapshot();
    assert!(snap.span_count() > 0);
    let json = pdmap_obs::chrome_trace_json(&snap);
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"displayTimeUnit\":\"ns\""));
    assert!(json.contains("\"traceEvents\":["));
    assert!(json.contains("\"cat\":\"transport/tcp\""));
    // Structural balance outside string literals — a cheap stand-in for a
    // JSON parser the workspace doesn't have.
    let (mut depth, mut in_str, mut esc) = (0i64, false, false);
    for c in json.chars() {
        if in_str {
            if esc {
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0);
    }
    assert_eq!(depth, 0);
    assert!(!in_str);
}

#[test]
fn every_registered_counter_and_site_is_catalogued() {
    // Drive every subsystem that registers counters or span sites: this
    // file's workload, a parallel consultant search, and a 2-daemon
    // session drained by the pool, one of whose frames is corrupt.
    run_observed_workload();
    let mut tool = Paradyn::new(cmrts_sim::MachineConfig {
        nodes: 2,
        ..cmrts_sim::MachineConfig::default()
    });
    tool.load_source(cmf_lang::samples::FIGURE4).unwrap();
    assert!(!search_parallel(&tool, &ConsultantConfig::default()).is_empty());
    let links: Vec<_> = (0..2)
        .map(|_| Backend::InProc.link(&TransportConfig::default()))
        .collect();
    let tool_ends = links.iter().map(|l| ("fake".to_string(), l.server.clone()));
    let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", 2));
    let mut set = DaemonSet::over_transports(tool_ends.collect(), data);
    for (i, link) in links.iter().enumerate() {
        InstrLibEndpoint::over_transport(link.client.clone())
            .send_sample("cpu", "/", i as u64, 1.0);
    }
    links[0].client.send(FrameKind::Daemon, vec![77]).unwrap(); // unknown tag
    let delivered = || {
        let snap = pdmap_obs::snapshot();
        let site = snap
            .sites
            .iter()
            .find(|s| s.component == "daemon" && s.verb == "deliver");
        site.map_or(0, |s| s.count)
    };
    let before = delivered();
    while set.pump_parallel() > 0 {}
    assert_eq!(set.samples().len(), 2);
    assert_eq!(set.conn(0).decode_errors().len(), 1);
    assert!(
        delivered() > before,
        "the fleet drain records daemon deliver"
    );

    // Every counter has a catalogue row, apart from test counters and the
    // per-shard family, which the shard catalogue covers.
    let snap = pdmap_obs::snapshot();
    for name in ["consultant.cache_hit", "daemon.error.codec"] {
        assert!(snap.counters.iter().any(|(n, _)| n == name), "{name}");
    }
    let shard_field = |name: &str| {
        let (shard, field) = name.strip_prefix("datamgr.shard")?.split_once('.')?;
        let known = SHARD_OBS_FIELDS.iter().any(|&(f, _, _)| f == field);
        (shard.parse::<usize>().is_ok() && known).then_some(())
    };
    let uncatalogued: Vec<&str> = snap
        .counters
        .iter()
        .map(|(name, _)| name.as_str())
        .filter(|&n| !n.starts_with("test.") && shard_field(n).is_none())
        .filter(|&n| !TOOL_COUNTERS.iter().any(|&(c, _, _)| c == n))
        .collect();
    assert!(uncatalogued.is_empty(), "no row for {uncatalogued:?}");

    // Every span site is a known site, apart from test sites and the
    // calibration site.
    let unknown: Vec<(&str, &str)> = snap
        .sites
        .iter()
        .map(|s| (s.component.as_str(), s.verb.as_str()))
        .filter(|&(c, v)| {
            !c.starts_with("test/") && (c, v) != (CALIBRATION_COMPONENT, CALIBRATION_VERB)
        })
        .filter(|&site| {
            !pdmap_obs::KNOWN_SITES
                .iter()
                .any(|&(c, v, _, _)| (c, v) == site)
        })
        .collect();
    assert!(unknown.is_empty(), "not in KNOWN_SITES: {unknown:?}");
}
