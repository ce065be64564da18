//! Chaos integration: kill a daemon mid-session and prove the loss is
//! *covered* — excluded, labeled, and recovered — never a silent zero.
//!
//! The acceptance test for the supervised daemon fleet: 4 threaded
//! `pdmapd` daemons over real TCP, one killed mid-session (SIGKILL
//! equivalent: transport torn down, no Goodbye), the tool keeps running
//! with `Coverage { nodes_reporting: 3, nodes_total: 4 }`; a restarted
//! daemon on a fresh port is readmitted through the reconnect factory and
//! coverage returns to 4/4.

use paradyn_tool::{DaemonHealth, DaemonSet, DataManager, SupervisorPolicy};
use pdmap::model::Namespace;
use pdmap_transport::{ReconnectPolicy, TcpClient, Transport, TransportConfig};
use pdmapd::{DaemonConfig, RunningDaemon, UpstreamConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A transport config tuned for fast failure detection in tests: a dead
/// peer is declared not-alive after 400 ms of silence instead of 2 s.
fn chaos_transport() -> TransportConfig {
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

/// Supervisor thresholds matched to the transport above.
fn chaos_policy() -> SupervisorPolicy {
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

#[test]
fn kill_one_of_four_is_covered_then_restored() {
    let mut daemons: Vec<Option<RunningDaemon>> = (0..4)
        .map(|i| Some(daemon(i as i64 * 10_000_000, 200)))
        .collect();
    let addrs: Vec<_> = daemons.iter().map(|d| d.as_ref().unwrap().addr).collect();
    let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", 4));
    let cfg = chaos_transport();
    let mut set = DaemonSet::connect(&addrs, cfg, data);
    set.set_policy(chaos_policy());
    set.clock_sync(4, Duration::from_secs(10))
        .expect("all four daemons answer clock probes");
    assert!(set.coverage().is_complete(), "4/4 after sync");

    // Let the session flow, then kill daemon 2 mid-stream: transport torn
    // down, no drain, no Goodbye — a crash, not a shutdown.
    set.pump_until_samples(8, Duration::from_secs(10));
    let victim = daemons[2].take().unwrap();
    let report = victim.kill().expect("victim report");
    assert!(!report.graceful_shutdown, "a kill must not look graceful");
    let mappings_before = set.data().with_mappings(|m| m.len());

    // The supervisor notices (dead link + silence) and quarantines it; the
    // other three keep reporting. No panic anywhere on this path.
    let deadline = Instant::now() + Duration::from_secs(15);
    while set.health(2) != DaemonHealth::Quarantined && Instant::now() < deadline {
        set.pump_parallel();
        set.supervise();
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        set.health(2),
        DaemonHealth::Quarantined,
        "victim quarantined"
    );
    let cov = set.coverage();
    assert_eq!(
        (cov.nodes_reporting, cov.nodes_total),
        (3, 4),
        "coverage must label the degraded fleet: {cov}"
    );
    assert!(!cov.is_complete());
    // The merged answer carries the same label — a consumer cannot read a
    // 3-node merge as a 4-node truth.
    assert_eq!(set.merged_samples().coverage().nodes_reporting, 3);

    // Restart: a fresh daemon on a fresh port, factory pointed at it. The
    // supervisor's next due retry re-dials, re-syncs the clock, and
    // readmits; the re-shipped PIF is absorbed by content-hash dedup.
    let replacement = daemon(20_000_000, 200);
    let new_addr = replacement.addr;
    set.set_reconnect(
        2,
        Box::new(move || TcpClient::connect(new_addr, chaos_transport()) as Arc<dyn Transport>),
    );
    let deadline = Instant::now() + Duration::from_secs(20);
    while set.health(2) == DaemonHealth::Quarantined && Instant::now() < deadline {
        set.pump_parallel();
        set.supervise();
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_ne!(
        set.health(2),
        DaemonHealth::Quarantined,
        "replacement daemon must be readmitted"
    );
    let cov = set.coverage();
    assert_eq!((cov.nodes_reporting, cov.nodes_total), (4, 4), "{cov}");
    let rec = set
        .recoveries()
        .iter()
        .find(|r| r.daemon == 2)
        .expect("readmission logged");
    assert_eq!(rec.gap, None, "crash died unannounced; gap unknowable");
    assert!(set.conn(2).clock().rounds > 0, "clock re-synced");

    // Samples flow from the replacement too, and the re-shipped PIF did
    // not duplicate the catalogue.
    let before = set.conn(2).samples_received();
    let deadline = Instant::now() + Duration::from_secs(10);
    while set.conn(2).samples_received() == before && Instant::now() < deadline {
        set.pump_parallel();
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        set.conn(2).samples_received() > before,
        "replacement streams"
    );
    assert_eq!(
        set.data().with_mappings(|m| m.len()),
        mappings_before,
        "content-hash dedup absorbed the re-shipped PIF"
    );

    // Wind down: graceful shutdown across the fleet announces send counts.
    for d in daemons.iter().flatten() {
        d.stop();
    }
    replacement.stop();
    let final_cov = set.shutdown_all(Duration::from_secs(10));
    assert_eq!(final_cov.nodes_total, 4);
    for d in daemons.into_iter().flatten() {
        let r = d.join().expect("daemon report");
        assert!(r.tool_connected);
        assert!(r.graceful_shutdown, "stopped daemons flush a Goodbye");
    }
    let _ = replacement.join();
}

#[test]
fn graceful_stop_announces_and_conserves() {
    // SIGTERM-equivalent: stop() drains and sends Goodbye{samples_sent};
    // the tool's conservation law closes exactly (lost == 0).
    let d = daemon(0, 12);
    let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", 1));
    let mut set = DaemonSet::connect(&[d.addr], chaos_transport(), data);
    set.clock_sync(3, Duration::from_secs(10)).expect("sync");
    set.pump_until_samples(4, Duration::from_secs(10));

    d.stop();
    let deadline = Instant::now() + Duration::from_secs(10);
    while set.conn(0).announced_sent().is_none() && Instant::now() < deadline {
        set.pump_parallel();
        std::thread::sleep(Duration::from_millis(2));
    }
    let report = d.join().expect("daemon report");
    assert!(report.graceful_shutdown, "stop() must flush the Goodbye");
    let announced = set.conn(0).announced_sent().expect("Goodbye arrived");
    assert_eq!(announced, report.samples_sent as u64);

    // Everything announced was delivered over loopback TCP.
    let deadline = Instant::now() + Duration::from_secs(10);
    while set.conn(0).samples_received() < announced && Instant::now() < deadline {
        set.pump_parallel();
        std::thread::sleep(Duration::from_millis(2));
    }
    let cov = set.coverage();
    assert_eq!(
        cov.samples_lost, 0,
        "nothing lost on a graceful stop: {cov}"
    );
    assert!(cov.is_complete());
}
