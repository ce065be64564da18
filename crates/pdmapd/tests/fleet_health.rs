//! Fleet health telemetry end to end: daemons that watch themselves, a
//! tool that watches the fleet.
//!
//! Three properties are on trial (ISSUE: health telemetry must ride the
//! ordinary sample path, not a side channel):
//!
//! * **Remote questions.** With `--obs-period` on, every node's
//!   self-observation snapshots stream through two levels of relay
//!   batching as ordinary `SampleBatch` rows, and the tool answers
//!   `ask_obs`-style questions ("how much time did leaf 3 spend sending
//!   frames?") against them through the real SAS machinery — nonzero
//!   transport costs, per node, by focus label.
//! * **Staleness beats silence.** A SIGKILLed leaf behind a healthy
//!   relay never trips the connection supervisor (the relay keeps
//!   streaming); `FleetHealth::stale` flags the dark node anyway, before
//!   any quarantine, from nothing but the absence of its telemetry.
//! * **Conservation with telemetry on.** Obs rows count into every
//!   ledger they cross (leaf announcements, relay forward counts), so
//!   `announced == received + lost` still closes exactly at the root.

use paradyn_tool::selfmap::{
    obs_focus, OBS_PERTURB_SPANS, OBS_SUBTREE_REPORTING, OBS_SUBTREE_TOTAL,
};
use paradyn_tool::{DaemonHealth, DaemonSet, DataManager, SupervisorPolicy};
use pdmap::model::Namespace;
use pdmap_transport::{ReconnectPolicy, TransportConfig};
use pdmapd::{
    spawn, spawn_relay, DaemonConfig, RelayConfig, RunningDaemon, RunningRelay, UpstreamConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A transport that notices a dead peer in ~300 ms instead of seconds.
fn fast_transport() -> TransportConfig {
    TransportConfig {
        liveness_timeout: Duration::from_millis(400),
        heartbeat_every: Duration::from_millis(50),
        reconnect: ReconnectPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(50),
            jitter_seed: 0xFA57,
        },
        ..TransportConfig::default()
    }
}

fn fast_policy() -> SupervisorPolicy {
    SupervisorPolicy {
        degrade_after: Duration::from_millis(200),
        quarantine_after: Duration::from_millis(400),
        retry: ReconnectPolicy {
            max_attempts: 2,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_millis(100),
            jitter_seed: 3,
        },
        retry_sync_rounds: 1,
        retry_sync_timeout: Duration::from_millis(300),
        ..SupervisorPolicy::default()
    }
}

/// A leaf that watches itself every 5 ms.
fn obs_leaf(skew_ns: i64, samples: u32) -> RunningDaemon {
    spawn(DaemonConfig {
        upstream: UpstreamConfig {
            skew_ns,
            linger: Duration::from_secs(20),
            obs_period: Some(Duration::from_millis(5)),
            ..UpstreamConfig::default()
        },
        samples,
        batch: 4,
        period: Duration::from_millis(1),
        ..DaemonConfig::default()
    })
    .expect("bind leaf")
}

/// A relay that rolls up its subtree's health every 5 ms.
fn obs_relay_over(children: &[&RunningDaemon], skew_ns: i64) -> RunningRelay {
    spawn_relay(RelayConfig {
        upstream: UpstreamConfig {
            skew_ns,
            linger: Duration::from_secs(20),
            obs_period: Some(Duration::from_millis(5)),
            ..UpstreamConfig::default()
        },
        children: children.iter().map(|d| d.addr).collect(),
        batch: 16,
        flush_interval: Duration::from_millis(2),
        child_transport: fast_transport(),
        ..RelayConfig::default()
    })
    .expect("bind relay")
}

/// The standard self-observing 2×2 tree and a tool session over the
/// relay layer.
fn obs_tree_2x2(samples: u32) -> (Vec<RunningDaemon>, Vec<RunningRelay>, DaemonSet) {
    let leaves: Vec<_> = [200_000_000i64, -200_000_000, 300_000_000, -300_000_000]
        .iter()
        .map(|&s| obs_leaf(s, samples))
        .collect();
    let relays = vec![
        obs_relay_over(&[&leaves[0], &leaves[1]], 150_000_000),
        obs_relay_over(&[&leaves[2], &leaves[3]], -150_000_000),
    ];
    let addrs: Vec<_> = relays.iter().map(|r| r.addr).collect();
    let data = Arc::new(DataManager::sharded(Namespace::new(), "CM Fortran", 2));
    let mut set = DaemonSet::connect(&addrs, fast_transport(), data);
    set.set_policy(fast_policy());
    (leaves, relays, set)
}

/// Focus labels the tree's six nodes report their health under.
fn node_foci(leaves: &[RunningDaemon], relays: &[RunningRelay]) -> Vec<String> {
    leaves
        .iter()
        .map(|l| obs_focus("daemon", &l.addr.to_string()))
        .chain(
            relays
                .iter()
                .map(|r| obs_focus("relay", &r.addr.to_string())),
        )
        .collect()
}

/// Pumps until `cond` holds (or panics at the deadline, with `what`).
fn pump_until(set: &mut DaemonSet, what: &str, mut cond: impl FnMut(&DaemonSet) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        set.pump_parallel();
        if cond(set) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn telemetry_streams_through_the_tree_and_answers_remote_questions() {
    let (leaves, relays, mut set) = obs_tree_2x2(12);
    set.clock_sync(4, Duration::from_secs(15)).expect("sync");
    let foci = node_foci(&leaves, &relays);
    let ns = Namespace::new();

    // Every node — four leaves through two levels of batching, both
    // relays directly — becomes visible in the tool's fleet health view,
    // and its snapshots answer a remote ask_obs question with a nonzero
    // transport cost. The question runs the real SAS machinery against
    // site totals rebuilt from the streamed rows.
    pump_until(&mut set, "all 6 nodes visible and answering", |s| {
        foci.iter().all(|f| {
            s.ask_fleet_obs(&ns, f, "transport/tcp", "send")
                .is_some_and(|total_ns| total_ns > 0)
        })
    });

    // Let every leaf finish its application budget before the shutdown,
    // so the per-leaf ledgers below are exact (telemetry answers arrive
    // well before the 12-sample budget drains).
    pump_until(&mut set, "all 48 application samples", |s| {
        s.merged_samples()
            .iter()
            .filter(|x| !x.focus.starts_with("Tool/"))
            .count()
            >= 48
    });

    // The relay rollup rows carry the subtree coverage triple.
    for r in &relays {
        let focus = obs_focus("relay", &r.addr.to_string());
        let node = set.fleet_health().node(&focus).expect("relay node");
        assert_eq!(node.metric(OBS_SUBTREE_TOTAL), Some(2.0), "{focus}");
        assert_eq!(node.metric(OBS_SUBTREE_REPORTING), Some(2.0), "{focus}");
    }

    // Perturbation rows aggregate across every self-observing node.
    let p = set.fleet_perturbation().expect("perturbation rollup");
    assert_eq!(p.nodes, 6, "all six nodes contribute");
    assert!(p.spans > 0 && p.reported_ns > 0);
    assert!(
        p.overhead_fraction() < 0.05,
        "watching stayed under 5%: {p}"
    );

    // Conservation still closes exactly with telemetry on: obs rows count
    // into the leaf announcements and the relay forward ledgers.
    let cov = set.shutdown_all(Duration::from_secs(15));
    assert_eq!((cov.nodes_reporting, cov.nodes_total), (4, 4));
    assert_eq!(cov.samples_lost, 0, "nothing lost on the graceful path");
    for i in 0..2 {
        let announced = set.conn(i).announced_sent().expect("relay said Goodbye");
        assert_eq!(announced, set.conn(i).samples_received(), "conn {i}");
    }
    for r in relays {
        let rep = r.join().expect("relay report");
        assert!(rep.graceful_shutdown);
        assert!(rep.obs_snapshots > 0 && rep.obs_samples_sent > 0);
    }
    for l in leaves {
        let rep = l.join().expect("leaf report");
        assert!(rep.graceful_shutdown);
        assert!(rep.obs_snapshots > 0 && rep.obs_samples_sent > 0);
        assert_eq!(
            rep.samples_sent,
            12 + rep.obs_samples_sent,
            "announcement covers app + obs rows"
        );
    }
}

#[test]
fn a_killed_leaf_goes_stale_in_fleet_health_before_any_quarantine() {
    let (mut leaves, relays, mut set) = obs_tree_2x2(100_000);
    set.clock_sync(4, Duration::from_secs(15)).expect("sync");
    let dead_focus = obs_focus("daemon", &leaves[0].addr.to_string());
    let foci = node_foci(&leaves, &relays);

    // All six nodes must be reporting health before the fault.
    pump_until(&mut set, "all 6 nodes visible", |s| {
        foci.iter().all(|f| {
            s.fleet_health()
                .node(f)
                .is_some_and(|n| n.metric(OBS_PERTURB_SPANS).is_some())
        })
    });

    // SIGKILL-equivalent on leaf 0. Its relay connection keeps streaming
    // (three live nodes behind it), so the supervisor has nothing to
    // quarantine — the *only* signal is the leaf's telemetry going dark.
    let _ = leaves.remove(0).kill();
    let staleness = Duration::from_millis(400);
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        set.pump_parallel();
        set.supervise();
        let stale: Vec<String> = set
            .fleet_health()
            .stale(staleness)
            .iter()
            .map(|n| n.label.clone())
            .collect();
        if stale.iter().any(|l| l == &dead_focus) {
            // The flag precedes any connection-level reaction: both relay
            // links are still admitted (the surviving subtree streams on).
            for i in 0..2 {
                assert_ne!(
                    set.conn(i).health(),
                    DaemonHealth::Quarantined,
                    "staleness must surface before quarantine"
                );
            }
            // And only the dead leaf is dark — the other five kept fresh.
            for f in foci.iter().filter(|f| *f != &dead_focus) {
                assert!(
                    !stale.iter().any(|l| l == f),
                    "{f} wrongly flagged stale (stale set: {stale:?})"
                );
            }
            break;
        }
        assert!(
            Instant::now() < deadline,
            "dead leaf never went stale (stale set: {stale:?})"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    for r in relays {
        r.stop();
        let _ = r.join();
    }
    for l in leaves {
        l.stop();
        let _ = l.join();
    }
}
