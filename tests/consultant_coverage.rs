//! Coverage-aware consultant integration: the tri-state verdicts must be
//! driven by *measured* fleet coverage, end to end.
//!
//! Three acceptance facts, each over the real session machinery:
//!
//! 1. A complete fleet reproduces the classic consultant exactly — point
//!    intervals, every verdict decided, render byte-identical to the
//!    unstamped tool.
//! 2. Killing 1 of 4 daemons mid-session flips borderline hypotheses to
//!    `Unknown` while clear-cut ones stay decided — and nothing ever
//!    flips to the opposite decided answer.
//! 3. A seeded [`FaultPlan`] partition window produces labeled sample
//!    loss, and the verdict intervals widen monotonically with that loss.

use paradyn_tool::consultant::{audit, render, search, search_parallel, ConsultantConfig, Verdict};
use paradyn_tool::{
    Coverage, DaemonHealth, DaemonMsg, DaemonSet, DataManager, Paradyn, SessionCoverage,
    SupervisorPolicy,
};
use pdmap::model::Namespace;
use pdmap_transport::{
    send_wire, Backend, FaultInjector, FaultPlan, ReconnectPolicy, Transport, TransportConfig,
    WirePayload,
};
use pdmapd::{DaemonConfig, RunningDaemon, UpstreamConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A program whose time goes into communication: global sorts and a shift
/// dwarf the element-wise work, so the ratio spectrum has both a clear
/// leader and hypotheses pinned at zero.
const COMM_HEAVY: &str = "\
PROGRAM COMMY
REAL A(512), B(512)
A = 1.0
B = SORT(A)
B = SORT(B)
A = CSHIFT(B, 7)
END
";

fn tool_for(nodes: usize) -> Paradyn {
    let mut t = Paradyn::new(cmrts_sim::MachineConfig {
        nodes,
        ..cmrts_sim::MachineConfig::default()
    });
    t.load_source(COMM_HEAVY).unwrap();
    t
}

fn daemon(skew_ns: i64, samples: u32) -> RunningDaemon {
    pdmapd::spawn(DaemonConfig {
        upstream: UpstreamConfig {
            skew_ns,
            linger: Duration::from_secs(10),
            ..UpstreamConfig::default()
        },
        samples,
        period: Duration::from_millis(5),
        ..DaemonConfig::default()
    })
    .expect("bind daemon listener")
}

/// Transport + supervisor thresholds tuned for fast failure detection.
fn fast_transport() -> TransportConfig {
    TransportConfig {
        liveness_timeout: Duration::from_millis(400),
        heartbeat_every: Duration::from_millis(50),
        reconnect: ReconnectPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
            jitter_seed: 0xC0FFEE,
        },
        ..TransportConfig::default()
    }
}

fn fast_policy() -> SupervisorPolicy {
    SupervisorPolicy {
        degrade_after: Duration::from_millis(200),
        quarantine_after: Duration::from_millis(400),
        retry: ReconnectPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(200),
            jitter_seed: 7,
        },
        retry_sync_rounds: 2,
        retry_sync_timeout: Duration::from_millis(500),
        ..SupervisorPolicy::default()
    }
}

#[test]
fn full_fleet_reproduces_point_verdicts_exactly() {
    // A healthy 4-daemon session, gracefully wound down: the measured
    // coverage label is complete, so stamping it on the tool must not
    // change a single byte of the consultant's answer.
    let daemons: Vec<RunningDaemon> = (0..4).map(|i| daemon(i as i64 * 10_000_000, 8)).collect();
    let addrs: Vec<_> = daemons.iter().map(|d| d.addr).collect();
    let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", 4));
    let mut set = DaemonSet::connect(&addrs, fast_transport(), data);
    set.clock_sync(4, Duration::from_secs(10)).expect("sync");
    set.pump_until_samples(32, Duration::from_secs(10));
    for d in &daemons {
        d.stop();
    }
    let final_cov = set.shutdown_all(Duration::from_secs(10));
    assert!(final_cov.is_complete(), "graceful fleet: {final_cov}");
    let session = set.session_coverage();
    for d in daemons {
        let _ = d.join();
    }

    let tool = tool_for(4);
    let cfg = ConsultantConfig::default();
    let baseline = search(&tool, &cfg);
    tool.set_session_coverage(Some(session));
    let stamped = search(&tool, &cfg);

    for (b, s) in baseline.iter().zip(&stamped) {
        assert!(s.interval.is_point(), "{}: {}", s.hypothesis, s.interval);
        assert!(s.verdict.is_decided());
        assert_eq!(
            s.verdict.is_true(),
            s.ratio > cfg.threshold,
            "{}: point verdict is the classic boolean",
            s.hypothesis
        );
        assert_eq!(b.verdict, s.verdict, "{}", s.hypothesis);
    }
    assert_eq!(
        render(&baseline),
        render(&stamped),
        "complete measured coverage renders byte-identically"
    );
}

#[test]
fn killing_one_daemon_flips_borderline_verdicts_only() {
    // 4 daemons, one killed mid-session (no Goodbye). The supervisor's
    // coverage label — not a synthetic stamp — must weaken borderline
    // verdicts to Unknown and leave clear-cut ones decided.
    let mut daemons: Vec<Option<RunningDaemon>> = (0..4)
        .map(|i| Some(daemon(i as i64 * 10_000_000, 200)))
        .collect();
    let addrs: Vec<_> = daemons.iter().map(|d| d.as_ref().unwrap().addr).collect();
    let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", 4));
    let mut set = DaemonSet::connect(&addrs, fast_transport(), data);
    set.set_policy(fast_policy());
    set.clock_sync(4, Duration::from_secs(10)).expect("sync");
    set.pump_until_samples(8, Duration::from_secs(10));
    assert!(set.coverage().is_complete());

    let _ = daemons[2].take().unwrap().kill();
    let deadline = Instant::now() + Duration::from_secs(15);
    while set.health(2) != DaemonHealth::Quarantined && Instant::now() < deadline {
        set.pump_parallel();
        set.supervise();
        std::thread::sleep(Duration::from_millis(10));
    }
    let session = set.session_coverage();
    assert_eq!(
        (
            session.coverage.nodes_reporting,
            session.coverage.nodes_total
        ),
        (3, 4),
        "{}",
        session.coverage
    );

    let tool = tool_for(4);
    let probe = search(&tool, &ConsultantConfig::default());
    let r_max = probe.iter().map(|e| e.ratio).fold(0.0f64, f64::max);
    assert!(r_max > 0.0);

    // Borderline: the threshold sits between the top ratio and its 3-of-4
    // widened bound (ratio × 4/3), so the leader is decidedly False at 4/4
    // and must straddle — Unknown — at 3/4.
    let borderline = ConsultantConfig {
        threshold: r_max * (1.0 + 0.5 / 3.0),
        max_depth: 0,
    };
    // Clear-cut: the threshold sits well under the top ratio, so the
    // leader is True and stays True (its lower bound never moves).
    let clear_cut = ConsultantConfig {
        threshold: r_max * 0.5,
        max_depth: 0,
    };

    let full_b = search(&tool, &borderline);
    let full_c = search(&tool, &clear_cut);
    assert!(full_b.iter().all(|e| e.verdict.is_decided()));
    tool.set_session_coverage(Some(session));
    let degraded_b = search(&tool, &borderline);
    let degraded_c = search(&tool, &clear_cut);

    let mut flipped = 0;
    for (f, d) in full_b.iter().zip(&degraded_b) {
        match (f.verdict, d.verdict) {
            (Verdict::True, Verdict::False) | (Verdict::False, Verdict::True) => {
                panic!(
                    "{}: crossed {:?} -> {:?}",
                    d.hypothesis, f.verdict, d.verdict
                )
            }
            (v, Verdict::Unknown) if v.is_decided() => flipped += 1,
            _ => {}
        }
    }
    assert!(flipped >= 1, "the borderline leader must weaken to Unknown");
    for (f, d) in full_c.iter().zip(&degraded_c) {
        if f.verdict == Verdict::True {
            assert_eq!(
                d.verdict,
                Verdict::True,
                "{}: clear-cut stays True",
                d.hypothesis
            );
        }
    }
    if session.coverage.samples_lost == 0 {
        // With no lost samples a zero ratio widens to a zero interval:
        // hypotheses the program never exercises stay decidedly False.
        for d in &degraded_b {
            if d.ratio == 0.0 {
                assert_eq!(d.verdict, Verdict::False, "{}", d.hypothesis);
            }
        }
    }
    assert!(audit(&degraded_b, borderline.threshold).is_empty());
    assert!(audit(&degraded_c, clear_cut.threshold).is_empty());
    assert!(render(&degraded_b).contains("3/4 nodes"));

    for d in daemons.iter().flatten() {
        d.stop();
    }
    set.shutdown_all(Duration::from_secs(10));
    for d in daemons.into_iter().flatten() {
        let _ = d.join();
    }
}

/// Runs one single-link session whose daemon-side frames pass through a
/// seeded [`FaultInjector`], sends `sent` samples plus a Goodbye, and
/// returns the session's measured coverage label. The three clock replies
/// occupy injector indices 0..3, so a partition window starting at 8 eats
/// sample frames only — deterministically, from the seed.
fn faulted_session_coverage(plan: FaultPlan, sent: u32) -> SessionCoverage {
    let cfg = TransportConfig::default();
    let link = Backend::InProc.link(&cfg);
    let injector = FaultInjector::wrap(link.server.clone(), plan);
    let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", 1));
    let mut set = DaemonSet::over_transports(vec![("fake#0".into(), link.client)], data);

    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let answerer = &injector;
        let stop_ref = &stop;
        s.spawn(move || {
            while !stop_ref.load(std::sync::atomic::Ordering::Relaxed) {
                while let Ok(Some(frame)) = answerer.try_recv() {
                    if let Ok(DaemonMsg::ClockProbe { token, t_tool_ns }) =
                        DaemonMsg::from_frame(&frame)
                    {
                        let _ = send_wire(
                            &**answerer,
                            &DaemonMsg::ClockReply {
                                token,
                                t_tool_ns,
                                t_daemon_ns: pdmap_obs::now_ns(),
                            },
                        );
                    }
                }
                std::thread::yield_now();
            }
        });
        set.clock_sync(3, Duration::from_secs(5)).expect("sync");
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });

    for i in 0..sent {
        send_wire(
            &*injector,
            &DaemonMsg::Sample {
                metric: "cpu".into(),
                focus: "/".into(),
                wall: pdmap_obs::now_ns(),
                value: f64::from(i),
            },
        )
        .expect("send through injector");
    }
    send_wire(&*injector, &DaemonMsg::Goodbye { samples_sent: sent }).expect("goodbye");
    let deadline = Instant::now() + Duration::from_secs(5);
    while set.conn(0).announced_sent().is_none() && Instant::now() < deadline {
        set.pump_parallel();
        std::thread::yield_now();
    }
    assert_eq!(set.conn(0).announced_sent(), Some(u64::from(sent)));
    let cov = set.coverage();
    assert_eq!(
        u64::from(sent),
        set.conn(0).samples_received() + cov.samples_lost,
        "announced == received + lost ({cov})"
    );
    set.session_coverage()
}

#[test]
fn seeded_drop_window_widens_intervals_monotonically() {
    // Three sessions, identical but for the width of the partition window
    // carved out of the sample stream: 0, 4, then 8 frames eaten. The
    // measured loss labels must climb with the window, and a fixed
    // hypothesis's interval must widen strictly with the measured loss.
    let windows: [Option<(u64, u64)>; 3] = [None, Some((8, 12)), Some((8, 16))];
    let tool = tool_for(1);
    let cfg = ConsultantConfig::default();

    let mut last_lost = None;
    let mut last_width = None;
    for window in windows {
        let plan = FaultPlan {
            seed: 42,
            partitions: window.into_iter().collect(),
            ..FaultPlan::none()
        };
        let mut session = faulted_session_coverage(plan, 20);
        let expected = window.map_or(0, |(lo, hi)| hi - lo);
        assert_eq!(
            session.coverage.samples_lost, expected,
            "the seeded window's loss is exact: {}",
            session.coverage
        );
        // A fixed per-sample cost across sessions, so widths compare.
        session.max_sample_cost = 0.5;
        tool.set_session_coverage(Some(session));
        let results = search(&tool, &cfg);
        let width = results
            .iter()
            .map(|e| e.interval.width())
            .fold(0.0f64, f64::max);
        if let (Some(l), Some(w)) = (last_lost, last_width) {
            assert!(session.coverage.samples_lost > l);
            assert!(
                width > w,
                "interval must widen with loss: {w} !< {width} at {}",
                session.coverage
            );
        } else {
            assert_eq!(width, 0.0, "lossless session keeps point intervals");
        }
        assert!(audit(&results, cfg.threshold).is_empty());
        last_lost = Some(session.coverage.samples_lost);
        last_width = Some(width);
    }
}

#[test]
fn parallel_search_agrees_with_sequential_under_measured_loss() {
    // A seeded partition window produces a real measured-loss coverage
    // label; stamped on the tool, the parallel frontier must render byte-
    // identically to the sequential baseline, keep the audit clean, and
    // share machine runs through the measurement cache while doing it.
    let plan = FaultPlan {
        seed: 42,
        partitions: vec![(8, 14)],
        ..FaultPlan::none()
    };
    let mut session = faulted_session_coverage(plan, 20);
    assert!(session.coverage.samples_lost > 0, "{}", session.coverage);
    session.max_sample_cost = 0.5;

    let tool = tool_for(1);
    let cfg = ConsultantConfig {
        threshold: 0.05,
        max_depth: 1,
    };
    tool.set_session_coverage(Some(session));
    let seq = search(&tool, &cfg);
    let before = tool.measurement_cache_stats();
    let par = search_parallel(&tool, &cfg);
    let after = tool.measurement_cache_stats();

    assert_eq!(
        render(&seq),
        render(&par),
        "degraded renders byte-identical"
    );
    assert!(audit(&seq, cfg.threshold).is_empty());
    assert!(audit(&par, cfg.threshold).is_empty());

    // Cache accounting: every experiment in the parallel tree went
    // through the cache, and the six root hypotheses shared one batched
    // run — so hits outnumber zero and misses undercut the tree size.
    fn count(nodes: &[paradyn_tool::ExperimentNode]) -> u64 {
        nodes.iter().map(|n| 1 + count(&n.children)).sum()
    }
    let experiments = count(&par);
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    assert_eq!(hits + misses, experiments, "every experiment hit the cache");
    assert!(hits >= 5, "six roots share one batch: {hits} hits");
    assert!(misses < experiments, "the cache saved machine runs");
}

#[test]
fn coverage_stamp_bumps_the_epoch_and_invalidates_the_cache() {
    // The PR 5 audit invariant, extended to the cache: a verdict computed
    // after a coverage change must never be served from measurements taken
    // under the old coverage. Stamping a session label bumps the coverage
    // epoch, so a repeat search re-measures instead of hitting the cache,
    // and its render visibly carries the new coverage.
    let tool = tool_for(4);
    let cfg = ConsultantConfig {
        threshold: 0.05,
        max_depth: 1,
    };
    tool.clear_measurement_cache();
    let full = search_parallel(&tool, &cfg);
    let s1 = tool.measurement_cache_stats();
    assert!(s1.misses > 0);

    // Unchanged coverage: a repeat search is pure cache hits.
    let again = search_parallel(&tool, &cfg);
    let s2 = tool.measurement_cache_stats();
    assert_eq!(render(&again), render(&full));
    assert_eq!(s2.misses, s1.misses, "warm repeat adds no machine runs");
    assert!(s2.hits > s1.hits);

    tool.set_session_coverage(Some(SessionCoverage {
        coverage: Coverage {
            nodes_reporting: 3,
            nodes_total: 4,
            samples_lost: 2,
        },
        max_sample_cost: 1e-6,
    }));
    let degraded = search_parallel(&tool, &cfg);
    let s3 = tool.measurement_cache_stats();
    assert!(
        s3.misses > s2.misses,
        "epoch bump forces re-measurement: {} !> {}",
        s3.misses,
        s2.misses
    );
    assert!(render(&degraded).contains("3/4 nodes"));
    assert_ne!(render(&degraded), render(&full));
    assert!(audit(&degraded, cfg.threshold).is_empty());
}

#[test]
fn redefining_a_metric_invalidates_its_cached_measurements() {
    // `metrics_mut` hands out the catalogue, whose `add_mdl` may rebind an
    // existing display name: a search's cached measurements of the old
    // definition must not answer a query about the new one.
    use paradyn_tool::Experiment;
    use pdmap::hierarchy::Focus;
    let mut tool = tool_for(4);
    let cfg = ConsultantConfig {
        threshold: 0.05,
        max_depth: 0,
    };
    search(&tool, &cfg);
    let whole = Focus::whole_program();
    let (timed, _) = tool.measure("Sort Time", &whole).unwrap();
    tool.metrics_mut()
        .add_mdl(
            r#"metric sort_count { name "Sort Time"; units operations;
               foreach point "cmrts::sort:entry" { incrCounter 1; } }"#,
        )
        .unwrap();
    let (value, _) = tool.measure("Sort Time", &whole).unwrap();
    let fresh = tool
        .run_experiment(&Experiment {
            metric: "Sort Time".to_string(),
            focus: whole,
        })
        .unwrap();
    assert_eq!(value, fresh.value, "the new definition answers");
    assert_ne!(value, timed, "a count of sorts, not their seconds");
}

#[test]
fn unloaded_tool_measures_to_an_error_not_a_panic() {
    // Asking an empty tool to measure is a user error, not a crash: every
    // measurement entry point reports `NoProgram`, and the consultant
    // turns it into an undecided verdict with the reason in the note.
    use pdmap::hierarchy::Focus;
    let tool = Paradyn::new(cmrts_sim::MachineConfig::default());
    let whole = Focus::whole_program();
    let err = tool.measure("Computation Time", &whole).unwrap_err();
    assert_eq!(err.to_string(), "no program loaded");
    assert!(tool.run_sampled(&[], 1).is_err());

    let results = search_parallel(&tool, &ConsultantConfig::default());
    assert!(results.iter().all(|r| r.verdict == Verdict::Unknown));
    assert!(results.iter().all(|r| r
        .note
        .as_deref()
        .is_some_and(|n| n.contains("no program loaded"))));
}
